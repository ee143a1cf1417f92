// The estimation-based benefit model of Section V-A (Definition 5.1,
// Eqs. 5-6): for every ERG edge, speculatively apply each possible user
// operation to the dataset, re-render the visualization, and measure how far
// it moves (EMD). Larger movement = larger expected benefit.
#ifndef VISCLEAN_CORE_BENEFIT_MODEL_H_
#define VISCLEAN_CORE_BENEFIT_MODEL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/table.h"
#include "dist/vis_data.h"
#include "graph/erg.h"
#include "vql/ast.h"
#include "vql/executor.h"

namespace visclean {

class ThreadPool;

/// \brief Cross-iteration cache behind the incremental benefit path: the
/// baseline visualization Q(D) plus its tuple->group provenance index.
///
/// Lifecycle: the benefit stage calls Prepare() once per iteration before
/// EstimateBenefits. The first call (or a query change) pays one full indexed
/// render; every later call reads the table's mutation journal and folds
/// exactly the rows that accepted repairs touched into the cache via
/// CommitVqlDelta — the cache is never rebuilt from scratch while the query
/// is stable. During estimation the cache is immutable: speculative repairs
/// render through ExecuteVqlDelta against it and roll back.
class BenefitEngine {
 public:
  /// Brings the cached baseline up to date with (query, *table). Reads the
  /// table's mutation journal and advances this engine's watermark; the
  /// table is not modified. Compaction is left to the session driver, which
  /// trims to the minimum watermark across all journal consumers.
  void Prepare(const VqlQuery& query, Table* table);

  /// Fast-forwards the journal watermark without touching the cache. Valid
  /// ONLY when the table is bit-for-bit back in its last-Prepare()d state —
  /// i.e. right after EstimateBenefits, whose speculative repairs all rolled
  /// back. The serial path repairs in place, so its journal entries would
  /// otherwise read as (no-op) invalidations next iteration.
  void ResyncRolledBack(Table* table);

  /// Drops the cache; the next Prepare pays a full rebuild.
  void Invalidate();

  /// True when the provenance index is valid for the prepared query (GROUP/
  /// BIN structure present) so candidates can render incrementally.
  bool incremental_ready() const { return prov_.supported; }

  /// The cached render of Q(D) as of the last Prepare. Bit-identical to
  /// ExecuteVql on the current table.
  const VisData& baseline() const { return baseline_; }
  const VisProvenance& provenance() const { return prov_; }

  // Diagnostics for the scaling bench.
  size_t full_rebuilds() const { return full_rebuilds_; }
  size_t delta_commits() const { return delta_commits_; }

  /// True once Prepare has run; the watermark is only meaningful then.
  bool primed() const { return primed_; }
  /// Journal position this engine has consumed up to (for the session's
  /// min-watermark compaction).
  uint64_t watermark() const { return watermark_; }

 private:
  void RebuildFull(const VqlQuery& query, Table* table);

  bool primed_ = false;
  std::string query_fingerprint_;  ///< VqlQuery::ToString of the cached query
  uint64_t watermark_ = 0;         ///< table mutation_count at last refresh
  VisData baseline_;
  VisProvenance prov_;
  DeltaScratch scratch_;
  size_t full_rebuilds_ = 0;
  size_t delta_commits_ = 0;
};

/// \brief Per-call counters (with or without an engine; filled when `stats`
/// is set).
struct BenefitStats {
  size_t renders = 0;      ///< total speculative evaluations (+1 baseline)
  size_t delta_evals = 0;  ///< evaluations served by ExecuteVqlDelta
  size_t full_evals = 0;   ///< evaluations served by a full render
};

/// \brief Options for benefit estimation.
struct BenefitOptions {
  /// Column index of the visualization's X axis in the table (kNoColumn
  /// when X is not categorical — then edges carry no A-question).
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);
  size_t x_column = kNoColumn;

  /// Worker threads for the speculative repairs. 1 = the exact serial path
  /// (repair/rollback in place on `table`); N > 1 evaluates vertices and
  /// edges on per-thread table shadows with a deterministic reduction, so
  /// the computed benefits are bit-identical to the serial path.
  size_t threads = 1;
  /// Optional externally owned pool (e.g. the session's); when set it takes
  /// precedence over `threads` and is reused instead of spawning workers
  /// per call.
  ThreadPool* pool = nullptr;

  /// Optional prepared cache (see BenefitEngine) — the only switch for
  /// incremental benefits. Null = every candidate re-renders Q(D) from
  /// scratch (the reference the differential suite compares against). The
  /// engine must have been Prepare()d against exactly this (query, table)
  /// state.
  BenefitEngine* engine = nullptr;

  /// Optional out-param for per-call counters.
  BenefitStats* stats = nullptr;
};

/// \brief Fills in `benefit` for every edge of `erg` against the current
/// `table` and `query`.
///
/// Per edge (u, v) with rows a, b:
///  * B_T = p_tuple * dist(V, V') where V' renders after speculatively
///    merging a and b and standardizing their X spellings (the paper's
///    "twofold" confirm benefit). The split branch only improves the EM
///    model, not the current visualization, so its immediate dist is 0 —
///    a deliberate simplification of Eq. 6 (the paper retrains the model to
///    price the split branch; we price only the visible movement).
///  * B_A = p_attr * dist(V, V') where V' renders after the edge's
///    attribute standardization alone (rejection contributes nothing).
///  * B_M / B_O of the endpoint vertices render after the suggested
///    imputation/repair (Section V-A items 3-4); vertex benefits are
///    computed once and added to every incident edge, exactly as Example 5
///    composes b_12 = B_T + B_A + B_O.
///
/// All speculative repairs roll back through an UndoLog; `table` is
/// unchanged on return (worker threads never touch it — each repairs its
/// own clone). Returns the number of visualization evaluations performed
/// (diagnostics for the Fig. 18 bench); the count is independent of the
/// thread count and of the engine — only the cost per evaluation changes.
/// The computed benefits are bit-identical across all (threads, engine)
/// combinations.
size_t EstimateBenefits(const VqlQuery& query, Table* table, Erg* erg,
                        const BenefitOptions& options = {});

}  // namespace visclean

#endif  // VISCLEAN_CORE_BENEFIT_MODEL_H_
