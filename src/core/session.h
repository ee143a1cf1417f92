// VisCleanSession: thin driver for the interactive-cleaning loop of Fig. 6.
//
// The loop itself is a staged pipeline (src/core/pipeline.h) over a shared
// EngineContext (src/core/engine_context.h):
//
//   (1) visualization specification  -> constructor (query + dirty table)
//   (2) initialization               -> Initialize (selector, pool, stages)
//   (3)-(6) detect / train / generate / benefit / select / ask / apply
//                                    -> the stage list, one Run() each
//   (7) refresh visualization        -> CurrentVis / trace EMD
//
// The session owns the context and the stage list; both the composite and
// the Single-question baseline strategies are stage configurations
// (MakeStages), so every component is shared.
#ifndef VISCLEAN_CORE_SESSION_H_
#define VISCLEAN_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_context.h"
#include "core/pipeline.h"
#include "core/session_state.h"
#include "datagen/generator.h"
#include "dist/vis_data.h"

namespace visclean {

class ThreadPool;

/// \brief What PlanIteration hands back while the user is deciding: a
/// summary of the question now awaiting answers. The serving layer returns
/// this from Step; the full CQG/QuestionSet stays readable through
/// context() for callers that want to render it.
struct PendingInteraction {
  size_t iteration = 0;  ///< 1-based index of the round now in flight
  QuestionStrategy strategy = QuestionStrategy::kComposite;
  double cqg_benefit = 0.0;     ///< estimated benefit (composite only)
  size_t cqg_vertices = 0;      ///< |V| of the selected CQG (composite only)
  size_t cqg_edges = 0;         ///< |E| of the selected CQG (composite only)
  size_t pool_questions = 0;    ///< detected questions available this round
};

/// \brief One end-to-end interactive cleaning run.
class VisCleanSession {
 public:
  /// `oracle` provides both the simulated user's ground truth and the
  /// reference visualization Q(D_g); it must outlive the session. The
  /// session works on its own copy of oracle->dirty.
  VisCleanSession(const DirtyDataset* oracle, VqlQuery query,
                  SessionOptions options = {}, UserOptions user_options = {},
                  UserCostModel cost_model = {});
  ~VisCleanSession();

  /// Step (2): resolves the selector, builds the stage list for the
  /// configured strategy, and (for options.threads > 1) starts the worker
  /// pool. Must be called once before RunIteration/Run.
  Status Initialize();

  /// One interaction round: runs every pipeline stage over the context,
  /// recording per-stage wall time. Returns the iteration's trace.
  /// Equivalent to PlanIteration() + ResolveIteration().
  Result<IterationTrace> RunIteration();

  /// The machine half of one round: runs the StagePhase::kPlan stages up to
  /// (and including) selecting the next question, then parks with
  /// pending() == true. Checkpoints the retrain counter and selector RNG at
  /// entry so a snapshot taken while pending can deterministically replay
  /// this plan after restore (see RestoreState).
  Result<PendingInteraction> PlanIteration();

  /// The interaction half: runs the StagePhase::kResolve stages (ask the
  /// pending question, apply answers, machine auto-merge), refreshes the
  /// EMD, compacts the journal, and returns the completed round's trace.
  /// Requires pending() == true.
  Result<IterationTrace> ResolveIteration();

  /// Runs until the budget is exhausted; returns all traces (including an
  /// iteration-0 entry holding the initial EMD).
  Result<std::vector<IterationTrace>> Run();

  /// Current (progressively cleaned) visualization.
  Result<VisData> CurrentVis() const;
  /// The ground-truth visualization Q(D_g).
  Result<VisData> GroundTruthVis() const;
  /// EMD between the two above.
  double CurrentEmd() const;

  const Table& table() const { return ctx_.table; }
  const Erg& erg() const { return ctx_.erg; }
  const QuestionSet& questions() const { return ctx_.questions; }
  /// The full stage blackboard (read-only; tests and benches introspect it).
  const EngineContext& context() const { return ctx_; }
  /// Mutable blackboard access for tests and benches that inject external
  /// table churn (e.g. the differential suite's repair storms) between
  /// iterations. Production callers never mutate the context directly.
  EngineContext& mutable_context() { return ctx_; }
  /// The configured stage list (empty before Initialize()).
  const std::vector<std::unique_ptr<PipelineStage>>& stages() const {
    return stages_;
  }

  /// Completed-or-in-flight round count (equals the last trace's iteration).
  size_t iteration() const { return iteration_; }
  /// True between PlanIteration and ResolveIteration: a question is out.
  bool pending() const { return pending_; }
  /// True once the configured budget of rounds has fully resolved.
  bool finished() const { return !pending_ && iteration_ >= ctx_.options.budget; }

  /// Lends an externally owned worker pool to this session (the serving
  /// layer's shared pool). Must be called before Initialize(); overrides the
  /// options.threads session-owned pool. The pool must outlive the session.
  void SetExternalPool(ThreadPool* pool);

  /// Lends a telemetry registry (the serving layer's per-manager
  /// obs::Registry) to this session. Must be called before Initialize();
  /// the registry must outlive the session. Stage timings and kernel call
  /// counts then flow out through it — nothing flows back in, so an
  /// instrumented run stays bit-identical to an uninstrumented one.
  void SetExternalRegistry(obs::Registry* registry);

  /// The session's durable state (see SessionSnapshotState), capturable
  /// while idle or while a question is pending. Requires Initialize().
  Result<SessionSnapshotState> CaptureState() const;

  /// Rehydrates a freshly constructed session from a CaptureState() image.
  /// The session must have been constructed against the same oracle dataset
  /// and the snapshot's query/options (SessionManager does this resolution);
  /// call pattern: construct -> [SetExternalPool] -> RestoreState. When the
  /// snapshot was pending, the plan phase replays here and the session
  /// resumes with the identical question outstanding — bit-identical to the
  /// uninterrupted run (the differential suite asserts this).
  Status RestoreState(const SessionSnapshotState& state);

 private:
  const DirtyDataset* oracle_;
  EngineContext ctx_;
  std::vector<std::unique_ptr<PipelineStage>> stages_;
  std::unique_ptr<ThreadPool> pool_;   ///< lives behind ctx_.pool
  ThreadPool* external_pool_ = nullptr;
  obs::Registry* external_registry_ = nullptr;

  size_t iteration_ = 0;
  bool initialized_ = false;
  bool pending_ = false;

  /// Plan-entry checkpoint: the only durable state the plan phase consumes
  /// or mutates (TrainStage bumps the retrain counter and may refit — or
  /// keep — the EM forest, SelectStage draws selector RNG). A pending
  /// snapshot persists these so restore can replay the plan.
  uint64_t plan_retrain_counter_ = 0;
  std::string plan_selector_state_;
  std::vector<DecisionTree> plan_forest_trees_;

  /// Cumulative cache-stats snapshot taken at PlanIteration entry; diffing
  /// against the caches at ResolveIteration end yields this iteration's
  /// IncrementalityCounters without the caches needing per-iteration state.
  IncrementalityCounters counter_base_;
};

}  // namespace visclean

#endif  // VISCLEAN_CORE_SESSION_H_
