// ErgCache: journal-driven incremental maintenance of the ERG across
// iterations, the graph-side half of the incremental select stage (the
// question-side half is clean/question_store.h; the contract shared by the
// two plus the session driver is documented in DESIGN.md §2.4).
//
// Legacy assembly rebuilt the ERG from the whole table every iteration:
// an O(table) scan to index X-column spellings (for A-question promotion
// and edge attribute payloads) plus an O(pools) graph construction. The
// cache splits that into
//  * an XValueIndex kept in sync via the Table mutation journal — the only
//    O(table) input — with a pooled full rebuild past a dirty-fraction
//    threshold, mirroring core/detection_cache.h;
//  * a maintained working Erg, updated by edge/vertex insert-retract from
//    the QuestionStore delta, with tombstoned slots and a compaction pass.
//
// Every iteration publishes `working.Compacted()` — the canonical dense
// snapshot (vertices by row, edges by row pair) — so selectors see a form
// that is independent of insertion/retraction history. AssembleFull builds
// the same canonical graph from scratch; ErgMode::kFull routes through it,
// and the two modes are bit-identical at any thread count.
#ifndef VISCLEAN_CORE_ERG_CACHE_H_
#define VISCLEAN_CORE_ERG_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clean/question_store.h"
#include "common/kernel_env.h"
#include "graph/erg.h"
#include "graph/select_support.h"
#include "text/sim_join.h"

namespace visclean {

class Arena;
class Table;
class EmModel;
class PairFeatureCache;

/// \brief How the assemble stage maintains the ERG.
enum class ErgMode {
  kAuto,  ///< journal-driven incremental maintenance with full-build fallback
  kFull,  ///< stateless full assembly every iteration (the reference path)
};

/// \brief Structural inputs of one assembly. A change in the structural
/// fields (x_column, max_promoted_a) invalidates the cache entirely.
struct ErgRequest {
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);

  size_t x_column = kNoColumn;  ///< categorical X column, or kNoColumn
  size_t max_promoted_a = 0;    ///< cap on A-questions promoted to edges
  /// Mutated-row fraction (per journal fold) above which the value index
  /// is rebuilt from scratch and the working graph is rebuilt with it.
  double dirty_fallback_threshold = 0.35;
  /// Tombstoned edge-slot fraction above which the working graph is
  /// compacted in place.
  double compact_tombstone_fraction = 0.5;
};

/// \brief Observability counters; reset by Clear().
struct ErgStats {
  size_t full_builds = 0;           ///< working-graph full rebuilds (any cause)
  size_t fallback_full_builds = 0;  ///< ... of which forced by dirty fraction
  size_t delta_updates = 0;         ///< incremental BeginIteration calls
  size_t index_folds = 0;           ///< journal folds applied to the index
  size_t edges_inserted = 0;
  size_t edges_retracted = 0;
  size_t payload_refreshes = 0;  ///< edge payloads recomputed
  size_t slot_compactions = 0;   ///< in-place tombstone compactions
  size_t jaccard_memo_hits = 0;
  size_t jaccard_memo_misses = 0;
  size_t support_refreshes = 0;  ///< selection-support refreshes
  double last_dirty_fraction = 0.0;
  size_t last_dirty_rows = 0;
};

/// \brief Live index over the X column: spelling -> live rows carrying it,
/// plus a per-row shadow of the last-seen spelling so journal entries (row
/// ids only) can be folded without rescanning the table.
class XValueIndex {
 public:
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  bool primed() const { return primed_; }
  void Clear();

  /// Rebuilds from the whole table. With a pool, rows are scanned in
  /// parallel chunks and merged in chunk order (deterministic).
  void FullRebuild(const Table& table, size_t x_column, ThreadPool* pool);

  /// Folds journal rows: for each row, replaces the shadowed spelling with
  /// the row's current one. Idempotent for a fixed table state, so mid-ask
  /// syncs are safe. When `touched` is given, every spelling whose row set
  /// changed (old shadow and/or new value) is added to it — the netting
  /// input for downstream consumers like the incremental sim join.
  void Fold(const Table& table, size_t x_column,
            const std::vector<size_t>& rows,
            std::set<std::string>* touched = nullptr);

  /// Number of live rows carrying `spelling`.
  size_t Count(const std::string& spelling) const;
  /// Minimum live row carrying `spelling`, or kNoRow ("first live row
  /// wins", matching the legacy ascending scan).
  size_t Representative(const std::string& spelling) const;
  /// The shadowed spelling of `row` (engaged iff live with non-null X).
  const std::optional<std::string>& SpellingOf(size_t row) const;

  size_t num_spellings() const { return rows_of_.size(); }
  const std::map<std::string, std::set<size_t>>& rows_of() const {
    return rows_of_;
  }

 private:
  bool primed_ = false;
  std::map<std::string, std::set<size_t>> rows_of_;
  std::vector<std::optional<std::string>> shadow_;  // by row id
};

/// \brief The maintained select-stage state of a session.
///
/// Lifecycle (mirrors DetectionCache):
///  * SyncValueIndex — bring the X index up to the table's journal head;
///    called by the assemble stage and by generate/ask-stage readers that
///    used to scan the table.
///  * BeginIteration — apply the QuestionStore delta to the working graph
///    and publish the canonical snapshot into `out`.
///  * ResyncRolledBack — after speculative benefit repairs are rolled back
///    bit-for-bit, fast-forward the watermark past their journal noise.
///  * watermark()/primed() — the session driver folds this watermark into
///    its journal-compaction bound alongside the benefit engine's and the
///    detection cache's.
class ErgCache {
 public:
  /// Syncs the X value index to the table head (journal fold, or pooled
  /// full rebuild past the dirty threshold — which also schedules a full
  /// graph rebuild). Returns the synced index. Advances watermark().
  const XValueIndex& SyncValueIndex(const Table& table,
                                    const ErgRequest& request,
                                    ThreadPool* pool);

  /// Brings the maintained A-question self-join up to the table head:
  /// syncs the value index first, then nets the spellings its folds touched
  /// into insert/retract lists against the join's current item set. A
  /// spelling-level dirty fraction above request.dirty_fallback_threshold —
  /// or an index full rebuild, an options change, or an unprimed join —
  /// falls back to the pooled from-scratch self-join. Requires a real
  /// x_column. The returned join's items() are exactly the index's live
  /// spellings and its Pairs() are bit-identical to SimilaritySelfJoin over
  /// them.
  const IncrementalSimJoin& SyncSimJoin(const Table& table,
                                        const ErgRequest& request,
                                        const SimJoinOptions& join_options,
                                        ThreadPool* pool);

  /// Refreshes the maintained selection support against the published
  /// snapshot of this iteration (call after benefit annotation, before
  /// Select). The support handed to selectors via ErgView must have been
  /// refreshed on the exact graph they are selecting over. With `arena`
  /// set, the support's traversal marks live on it for this iteration.
  const ErgSelectSupport* RefreshSelectSupport(const Erg& published,
                                               Arena* arena = nullptr);

  /// Brings the working graph to the current pools and publishes the
  /// canonical snapshot into `*out`. `store.last_delta()` must describe
  /// the Ingest that produced the current pools. `features` (optional)
  /// memoizes pair-feature extraction for promoted-A edge probabilities —
  /// pass the DetectionCache's journal-invalidated cache when detection
  /// runs in kAuto mode; the payloads are bit-identical either way. `env`
  /// routes the batched EM inference behind the promoted-A payloads (and
  /// the pooled index rebuilds) through the pool.
  void BeginIteration(const Table& table, const QuestionStore& store,
                      const EmModel& em, const ErgRequest& request,
                      PairFeatureCache* features, const KernelEnv& env,
                      Erg* out);

  /// Pool-only convenience overload (tests, standalone callers).
  void BeginIteration(const Table& table, const QuestionStore& store,
                      const EmModel& em, const ErgRequest& request,
                      PairFeatureCache* features, ThreadPool* pool, Erg* out) {
    BeginIteration(table, store, em, request, features,
                   KernelEnv{pool, nullptr, nullptr}, out);
  }

  /// Stateless reference assembly (ErgMode::kFull): fresh serial index,
  /// from-scratch build, canonical snapshot into `*out`.
  static void AssembleFull(const Table& table, const QuestionStore& store,
                           const EmModel& em, const ErgRequest& request,
                           Erg* out);

  /// The table has been restored bit-for-bit to its pre-speculation state;
  /// skip the rolled-back journal span instead of folding it.
  void ResyncRolledBack(const Table& table);

  void Clear();

  /// True when the cache holds journal-dependent state (a primed value
  /// index and/or a maintained working graph), i.e. when the session driver
  /// must respect watermark() when compacting the journal.
  bool primed() const { return primed_ || index_.primed(); }
  uint64_t watermark() const { return watermark_; }
  const ErgStats& stats() const { return stats_; }
  /// The maintained (possibly tombstoned) graph — tests only.
  const Erg& working_graph() const { return work_; }
  const XValueIndex& value_index() const { return index_; }
  /// True when the maintained sim join holds journal-dependent state. The
  /// join is synced strictly after the value index, so join_primed()
  /// implies primed() and the join rides this cache's watermark() in the
  /// session's compaction fold.
  bool join_primed() const { return sim_join_.primed(); }
  const SimJoinStats& sim_join_stats() const { return sim_join_.stats(); }

 private:
  enum class EdgeSource { kTuple, kPromotedA };
  struct SourceInfo {
    EdgeSource source = EdgeSource::kTuple;
    AQuestionKey akey;  // valid when source == kPromotedA
  };
  using RowPair = std::pair<size_t, size_t>;  // min row first

  void EnsureConfig(const ErgRequest& request);
  void FullGraphBuild(const Table& table, const QuestionStore& store,
                      const EmModel& em, const ErgRequest& request,
                      PairFeatureCache* features, const KernelEnv& env);
  void DeltaUpdate(const Table& table, const QuestionStore& store,
                   const EmModel& em, const ErgRequest& request,
                   PairFeatureCache* features, const KernelEnv& env);
  size_t EnsureVertex(size_t row);
  void AddEdgeForPair(const RowPair& pair, SourceInfo info);
  void RetractEdgeForPair(const RowPair& pair);
  void SweepIsolatedVertices();

  bool primed_ = false;         // working graph is valid
  bool rebuild_graph_ = false;  // next BeginIteration must full-build
  std::string fingerprint_;
  uint64_t watermark_ = 0;
  ErgStats stats_;
  XValueIndex index_;
  Erg work_;
  std::map<RowPair, SourceInfo> edge_source_;
  std::map<AQuestionKey, RowPair> promoted_;
  std::map<std::pair<std::string, std::string>, double> jaccard_memo_;
  /// Rows folded into the index since the last graph update; DeltaUpdate
  /// refreshes the payloads of their incident edges (a row mutation can
  /// change its spelling or its pair features), then clears the set.
  std::set<size_t> pending_payload_rows_;
  /// The maintained A-question self-join over the index's live spellings.
  IncrementalSimJoin sim_join_;
  /// Spellings touched by index folds since the last SyncSimJoin; netted
  /// against the join's item set (a spelling that died and revived between
  /// syncs nets to no-op), then cleared.
  std::set<std::string> pending_join_spellings_;
  /// Set whenever the index is fully rebuilt (the fold trail the join
  /// depends on is gone); the next SyncSimJoin rebuilds the join too.
  bool join_rebuild_ = false;
  /// Per-iteration selection scaffolding (benefit orderings, induction
  /// scratch) shared by every selector call on the published snapshot.
  ErgSelectSupport select_support_;
};

}  // namespace visclean

#endif  // VISCLEAN_CORE_ERG_CACHE_H_
