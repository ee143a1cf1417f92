// The common interface of the incremental error detectors (PR 3).
//
// Every detection stage input — blocking candidate pairs, M-questions,
// O-questions — is produced by a Detector that supports two entry points:
// FullScan rebuilds the result from the whole table, Update folds in only
// the rows the mutation journal reported dirty since the previous scan.
// Both paths must produce bit-identical results; the differential suite
// (tests/detect_differential_test.cc) enforces this.
#ifndef VISCLEAN_CLEAN_DETECTOR_H_
#define VISCLEAN_CLEAN_DETECTOR_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/kernel_env.h"
#include "data/table.h"

namespace visclean {

/// \brief Journal-driven detector: full rebuild or per-row delta.
///
/// Contract: after either call the detector's published result equals what
/// FullScan alone would produce on the current table. Update may only be
/// called when every mutation since the last scan is covered by
/// `mutated_rows` (the caller reads them from Table::MutatedRowsSince).
/// `env` carries the optional pool and iteration arena; neither may change
/// any published value, only the wall time (deterministic index-ordered
/// merges) and where scratch lives.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Rebuilds all derived state and results from `table`.
  virtual void FullScan(const Table& table, const KernelEnv& env) = 0;

  /// Folds the mutated rows (sorted, deduplicated ids — including appended,
  /// killed and revived rows) into the cached state and refreshes results.
  /// Precondition: shared caches the detector was configured with (the
  /// RowTokenCache) have already been Invalidate()d for `mutated_rows` by
  /// their owner — DetectionCache does this once per iteration for all
  /// detectors sharing the cache.
  virtual void Update(const Table& table,
                      const std::vector<size_t>& mutated_rows,
                      const KernelEnv& env) = 0;

  /// Pool-only convenience shims (tests, standalone callers). Derived
  /// classes re-expose them with `using Detector::FullScan/Update;`.
  void FullScan(const Table& table, ThreadPool* pool) {
    FullScan(table, KernelEnv{pool, nullptr, nullptr});
  }
  void Update(const Table& table, const std::vector<size_t>& mutated_rows,
              ThreadPool* pool) {
    Update(table, mutated_rows, KernelEnv{pool, nullptr, nullptr});
  }
};

/// \brief Cross-iteration cache of per-row word-token sets.
///
/// Both kNN detectors tokenize the concatenation of every attribute of a
/// row (the paper's Q_M/Q_O recipe). The sets are pure functions of the row
/// values, so they are shared between detectors and survive across
/// iterations; Invalidate drops exactly the dirty rows.
class RowTokenCache {
 public:
  /// Drops every cached set (full-rescan path without a known dirty set).
  void Clear() { tokens_.clear(); }

  /// Drops the sets of the given rows only.
  void Invalidate(const std::vector<size_t>& dirty_rows);

  /// Ensures a token set exists for every row in `rows`; missing ones are
  /// computed (routed through `env`, merged by index).
  void Ensure(const Table& table, const std::vector<size_t>& rows,
              const KernelEnv& env);

  /// Pool-only convenience overload.
  void Ensure(const Table& table, const std::vector<size_t>& rows,
              ThreadPool* pool) {
    Ensure(table, rows, KernelEnv{pool, nullptr, nullptr});
  }

  /// Token set of a row previously passed to Ensure.
  const std::set<std::string>& tokens(size_t row) const {
    return tokens_.at(row);
  }

  size_t size() const { return tokens_.size(); }

 private:
  std::unordered_map<size_t, std::set<std::string>> tokens_;
};

/// Concatenated display strings of every column of the row — the shared
/// string representation behind both kNN detectors.
std::string RowAsString(const Table& table, size_t row);

}  // namespace visclean

#endif  // VISCLEAN_CLEAN_DETECTOR_H_
