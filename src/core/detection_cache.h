// DetectionCache: the journal-driven substrate behind DetectStage (PR 3).
//
// One instance lives on the EngineContext across iterations. Each iteration
// DetectStage hands it the table and a DetectionRequest; the cache decides —
// from its watermark into the table's mutation journal — whether to rebuild
// every detector from scratch or to fold in only the rows that changed since
// the previous iteration. Either way the published results (candidate pairs,
// M-questions, O-questions) are bit-identical to the legacy free functions
// (TokenBlocking / DetectMissing / DetectOutliers) on the current table; the
// differential suite (tests/detect_differential_test.cc) enforces this.
#ifndef VISCLEAN_CORE_DETECTION_CACHE_H_
#define VISCLEAN_CORE_DETECTION_CACHE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clean/detector.h"
#include "clean/missing_detector.h"
#include "clean/outlier_detector.h"
#include "clean/question.h"
#include "data/table.h"
#include "em/blocking.h"
#include "em/pair_features.h"

namespace visclean {

class ThreadPool;

/// \brief How DetectStage produces its outputs.
enum class DetectionMode {
  /// Route detection through the session's DetectionCache: full scans on the
  /// first iteration / config changes / large dirty fractions, journal-driven
  /// per-row deltas otherwise. Train and generate reuse the cache's feature
  /// memo and sim-join memo. Results are bit-identical to kFull.
  kAuto,
  /// Always call the legacy free functions, serial and uncached — the
  /// reference path the differential suite compares kAuto against.
  kFull,
};

/// \brief Everything DetectStage wants detected this iteration.
struct DetectionRequest {
  BlockingOptions blocking;  ///< candidate-pair generation config
  /// When true, the kNN detectors run on `y_column` (the query's numeric Y).
  bool numeric_y = false;
  size_t y_column = 0;
  MissingDetectorOptions missing;
  OutlierDetectorOptions outlier;
  /// Delta updates are abandoned for a full scan when the dirty fraction
  /// (|dirty rows| / |live rows|) exceeds this; per-row maintenance then
  /// costs more than rebuilding.
  double dirty_fallback_threshold = 0.35;
};

/// \brief Counters for the scaling bench and the differential tests.
struct DetectionStats {
  size_t full_scans = 0;           ///< all full rebuilds (incl. fallbacks)
  size_t fallback_full_scans = 0;  ///< rebuilds forced by the dirty fraction
  size_t delta_updates = 0;        ///< journal-driven incremental scans
  double last_dirty_fraction = 0.0;
  size_t last_dirty_rows = 0;
};

/// \brief Cross-iteration cache that drives detect/train/generate from the
/// table's mutation journal.
///
/// Owned state, all invalidated per dirty row only:
///  * RowTokenCache — per-row token sets shared by both kNN detectors;
///  * BlockingDetector — blocking keys, blocks, pair refcounts;
///  * Missing/OutlierDetector — per-query kNN neighbor lists;
///  * PairFeatureCache — per-pair feature vectors (lent to TrainStage).
///
/// Lifecycle per iteration: BeginIteration() before reading any result;
/// ResyncRolledBack() at the end of BenefitStage (whose speculative repairs
/// all rolled back — the table is bit-for-bit in its BeginIteration state,
/// so the watermark may fast-forward past their journal noise). The session
/// driver compacts the journal only up to the minimum watermark across all
/// journal consumers (BenefitEngine, this cache, and the ErgCache's value
/// index / maintained sim join), so MutatedRowsSince stays legal for each.
class DetectionCache {
 public:
  /// Brings every detector up to date with `table`. Chooses full scan vs
  /// delta update as described above; `env` routes full scans and cache-miss
  /// recomputation through the pool with deterministic index-ordered merges.
  void BeginIteration(const Table& table, const DetectionRequest& request,
                      const KernelEnv& env);

  /// Pool-only convenience overload (tests, standalone callers).
  void BeginIteration(const Table& table, const DetectionRequest& request,
                      ThreadPool* pool) {
    BeginIteration(table, request, KernelEnv{pool, nullptr, nullptr});
  }

  /// Results of the last BeginIteration — bit-identical to the legacy free
  /// functions on the table state it saw.
  const std::vector<std::pair<size_t, size_t>>& candidates() const {
    return blocking_.pairs();
  }
  const std::vector<MQuestion>& m_questions() const {
    return missing_.questions();
  }
  const std::vector<OQuestion>& o_questions() const {
    return outlier_.questions();
  }

  /// Caches lent to the later stages of the same iteration.
  PairFeatureCache* features() { return &features_; }

  /// Fast-forwards the watermark without touching any cache. Valid ONLY when
  /// the table is bit-for-bit back in its last-BeginIteration state (i.e.
  /// right after EstimateBenefits rolled every speculative repair back).
  void ResyncRolledBack(const Table& table);

  /// Drops everything; the next BeginIteration pays a full rebuild.
  void Clear();

  bool primed() const { return primed_; }
  uint64_t watermark() const { return watermark_; }
  const DetectionStats& stats() const { return stats_; }

 private:
  /// Serialized structural config; a change forces a full scan.
  static std::string Fingerprint(const DetectionRequest& request);

  bool primed_ = false;
  std::string fingerprint_;
  uint64_t watermark_ = 0;  ///< table mutation_count at last BeginIteration
  DetectionStats stats_;

  RowTokenCache tokens_;
  BlockingDetector blocking_;
  MissingDetector missing_;
  OutlierDetector outlier_;
  PairFeatureCache features_;
};

}  // namespace visclean

#endif  // VISCLEAN_CORE_DETECTION_CACHE_H_
