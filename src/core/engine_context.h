// EngineContext: the shared blackboard the pipeline stages read and write.
//
// One iteration of the Fig. 6 loop is a pass over the stage list
// (src/core/pipeline.h); every stage receives the same EngineContext, which
// owns the working table, the EM model, the ERG/CQG of the current
// iteration, the cross-iteration answer memory, and the per-stage timing of
// the iteration in flight. VisCleanSession is only a thin driver around it.
#ifndef VISCLEAN_CORE_ENGINE_CONTEXT_H_
#define VISCLEAN_CORE_ENGINE_CONTEXT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clean/question.h"
#include "clean/question_store.h"
#include "common/arena.h"
#include "common/kernel_env.h"
#include "core/benefit_model.h"
#include "core/detection_cache.h"
#include "core/erg_cache.h"
#include "data/table.h"
#include "datagen/generator.h"
#include "em/em_model.h"
#include "graph/cqg.h"
#include "graph/erg.h"
#include "graph/selector.h"
#include "user/cost_model.h"
#include "user/simulated_user.h"
#include "vql/ast.h"

namespace visclean {

class ThreadPool;

/// \brief Questioning strategy: composite (CQG) or isolated singles.
enum class QuestionStrategy { kComposite, kSingle };

/// \brief Session configuration.
struct SessionOptions {
  size_t k = 10;                 ///< CQG size (paper default)
  size_t budget = 15;            ///< iterations (paper default)
  std::string selector = "gss";  ///< see MakeSelector / SelectorRegistry
  QuestionStrategy strategy = QuestionStrategy::kComposite;
  /// #single questions per iteration in kSingle mode (the paper's m,
  /// matched to the #edges of a typical CQG).
  size_t single_m = 10;

  /// Worker threads of the session-owned pool behind every pooled kernel:
  /// detection full scans, pair features, EM inference, kNN, X-index
  /// rebuilds, the similarity join and benefit estimation. 1 runs serially;
  /// outputs are bit-identical at any count. Served sessions ignore this
  /// field: they borrow the SessionManager's pool or run serially
  /// (ServeOptions::pool_threads), so a client cannot choose how many OS
  /// threads the server starts (DESIGN.md §3).
  size_t threads = 1;

  /// Dirty fraction above which DetectStage abandons the DetectionCache's
  /// journal delta for a full scan (see
  /// DetectionRequest::dirty_fallback_threshold).
  double detection_dirty_threshold = 0.35;

  /// Dirty fraction above which the ErgCache rebuilds its X value index and
  /// working graph from scratch (see ErgRequest::dirty_fallback_threshold).
  double erg_dirty_threshold = 0.35;

  uint64_t seed = 7;
  double auto_merge_threshold = 0.95;  ///< EM prob for machine auto-merge
  double sim_join_lambda = 0.5;        ///< λ of Algorithm 1
  size_t max_t_questions = 200;        ///< |Q_T| cap per iteration
  size_t max_m_questions = 150;        ///< |Q_M| cap per iteration
  size_t blocking_max_block = 16;      ///< token-blocking block-size cap
  size_t max_seed_examples = 4000;     ///< weak-supervision training cap
  ForestOptions forest;                ///< EM model hyperparameters
};

/// \brief Per-component machine seconds of one iteration (Fig. 18). The
/// five buckets aggregate the finer-grained per-stage timings (see
/// IterationTrace::stage_times); stages declare which bucket they charge.
struct ComponentTimes {
  double detect = 0;   ///< detect errors / generate repairs (incl. kNN)
  double train = 0;    ///< train (fine-tune) the EM model
  double benefit = 0;  ///< estimate benefit over the ERG
  double select = 0;   ///< CQG selection
  double apply = 0;    ///< repair errors + refresh visualization

  double Total() const { return detect + train + benefit + select + apply; }
};

/// \brief Wall time of one pipeline stage within one iteration.
struct StageTime {
  std::string stage;     ///< PipelineStage::name()
  double seconds = 0.0;  ///< wall time of this stage's Run()
};

/// \brief Per-iteration deltas of the incremental-maintenance counters: how
/// each cache serviced this iteration (delta applied vs. full rebuild vs.
/// dirty-fraction fallback). The counters of the caches a reference
/// pipeline (tests/support) bypasses stay zero; a stage silently regressing
/// to full rebuilds shows up here in exported traces instead of only in
/// benches.
struct IncrementalityCounters {
  size_t detect_full_scans = 0;      ///< DetectionCache full scans
  size_t detect_delta_updates = 0;   ///< DetectionCache journal deltas
  size_t erg_full_builds = 0;        ///< ErgCache working-graph full builds
  size_t erg_delta_updates = 0;      ///< ErgCache incremental updates
  size_t sim_join_full = 0;          ///< sim-join from-scratch rebuilds
  size_t sim_join_fallbacks = 0;     ///< ... of which dirty-fraction forced
  size_t sim_join_delta_syncs = 0;   ///< sim-join insert/retract syncs
};

/// \brief Everything recorded about one iteration.
struct IterationTrace {
  size_t iteration = 0;        ///< 1-based
  double emd = 0.0;            ///< EMD(Q(D), Q(D_g)) after this iteration
  double user_seconds = 0.0;   ///< simulated human cost of this iteration
  size_t questions_asked = 0;  ///< edge + vertex questions (or singles)
  double cqg_benefit = 0.0;    ///< estimated benefit of the asked CQG
  ComponentTimes machine;      ///< machine time breakdown (Fig. 18 buckets)
  std::vector<StageTime> stage_times;  ///< per-stage wall time, in run order
  IncrementalityCounters incremental;  ///< cache behaviour this iteration
};

/// \brief Shared state of one cleaning run, threaded through the stages.
///
/// Ownership: the context owns everything below except `pool` (owned by the
/// session, optional) and the oracle behind `user` (caller-owned, must
/// outlive the run).
struct EngineContext {
  EngineContext(const DirtyDataset* oracle, VqlQuery query_in,
                SessionOptions options_in, UserOptions user_options,
                UserCostModel cost_model_in)
      : query(std::move(query_in)),
        options(options_in),
        cost_model(cost_model_in),
        table(oracle->dirty.Clone()),
        user(oracle, user_options),
        em(options_in.forest) {}

  // ---- Run-wide configuration ----
  VqlQuery query;
  SessionOptions options;
  UserCostModel cost_model;

  // ---- Long-lived engine state ----
  Table table;          ///< the progressively cleaned working copy
  SimulatedUser user;   ///< answers questions from the oracle
  EmModel em;           ///< entity-matching model, fine-tuned per iteration
  std::unique_ptr<CqgSelector> selector;  ///< set by the driver's Initialize
  ThreadPool* pool = nullptr;  ///< session-owned or lent; null = serial
  /// Per-iteration scratch arena: Reset() at every PlanIteration entry,
  /// so spans live exactly one plan phase (see common/arena.h). Holds the
  /// EM gather matrices, ERG traversal marks, and detector corpus tables.
  Arena arena;
  /// Telemetry sink (serving layer's per-manager registry; null standalone).
  /// Timings and counts flow out through it, nothing flows back in — an
  /// instrumented run is bit-identical to an uninstrumented one.
  obs::Registry* registry = nullptr;
  /// Per-kind kernel telemetry handles, resolved once when `registry` is
  /// attached (see VisCleanSession::SetExternalRegistry).
  KernelSiteMetrics kernel_metrics[kNumKernelKinds];

  /// The kernel execution environment stages hand to the chunk kernels.
  KernelEnv kernel_env() {
    return KernelEnv{pool, &arena,
                     registry != nullptr ? kernel_metrics : nullptr};
  }
  /// Cross-iteration cache behind incremental benefit estimation: baseline
  /// Q(D) + tuple->group provenance, refreshed per iteration from the
  /// table's mutation journal.
  BenefitEngine benefit_engine;
  /// Cross-iteration caches behind incremental detection: blocking state,
  /// row token sets, kNN neighbor lists, pair features.
  DetectionCache detection;
  /// Cross-iteration question identity: per-type pools keyed by question
  /// identity with stable ids, plus the per-iteration delta the ErgCache
  /// consumes (fed by AssembleStage).
  QuestionStore question_store;
  /// Cross-iteration ERG maintenance: journal-driven X value index, the
  /// maintained A-question self-join, the maintained working graph, and the
  /// per-iteration selection support.
  ErgCache erg_cache;

  // ---- Per-iteration products (refreshed by the stages) ----
  std::vector<std::pair<size_t, size_t>> candidates;  ///< blocking output
  std::vector<ScoredPair> scored;  ///< EM scores over `candidates`
  QuestionSet questions;           ///< detected T/A/M/O questions
  Erg erg;                         ///< published by AssembleStage
  Cqg cqg;                         ///< chosen by SelectStage
  IterationTrace trace;            ///< the iteration being assembled

  // ---- Cross-iteration memory ----
  uint64_t retrain_counter = 0;  ///< seeds deterministic retraining

  /// Already-answered questions must not be asked again: spelling pairs the
  /// user ruled on (A-questions; resolved pairs vanish on their own, this
  /// remembers rejections) and (row, column) outlier verdicts.
  std::set<std::pair<std::string, std::string>> a_answered;
  std::set<std::pair<size_t, size_t>> o_answered;

  /// Spelling pairs witnessed inside machine-merged clusters (Strategy 1
  /// evidence that physical merging would otherwise destroy): proposed as
  /// A-questions in later iterations until the user rules on them.
  std::vector<AQuestion> merge_witnessed_a;

  /// Corroboration ledger for table-wide standardization: variant spelling
  /// -> (target spelling, #user answers that asserted it). One answer only
  /// repairs the rows at hand; two agreeing answers rewrite the column —
  /// so a single wrong label (Exp-3) cannot poison a whole venue.
  std::map<std::string, std::pair<std::string, int>> transform_votes;
};

}  // namespace visclean

#endif  // VISCLEAN_CORE_ENGINE_CONTEXT_H_
