#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/thread_pool.h"
#include "dist/emd.h"
#include "obs/trace.h"
#include "vql/executor.h"

namespace visclean {

namespace {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Times one stage and charges its wall time to the declared bucket.
Status RunStageTimed(PipelineStage& stage, EngineContext& ctx) {
  obs::ScopedSpan span(stage.name());
  Stopwatch watch;
  VC_RETURN_IF_ERROR(stage.Run(ctx));
  double seconds = watch.Seconds();
  ctx.trace.stage_times.push_back({stage.name(), seconds});
#ifndef VISCLEAN_OBS_OFF
  if (ctx.registry != nullptr) {
    ctx.registry->GetHistogram(std::string("stage.") + stage.name() + ".ns")
        ->Record(static_cast<uint64_t>(seconds * 1e9));
  }
#endif
  switch (stage.bucket()) {
    case StageBucket::kDetect:
      ctx.trace.machine.detect += seconds;
      break;
    case StageBucket::kTrain:
      ctx.trace.machine.train += seconds;
      break;
    case StageBucket::kBenefit:
      ctx.trace.machine.benefit += seconds;
      break;
    case StageBucket::kSelect:
      ctx.trace.machine.select += seconds;
      break;
    case StageBucket::kApply:
      ctx.trace.machine.apply += seconds;
      break;
  }
  return Status::Ok();
}

// Snapshot of the caches' cumulative counters, diffed across one iteration:
// counters(resolve end) - counters(plan entry) = this iteration's activity.
IncrementalityCounters CountersOf(const EngineContext& ctx) {
  IncrementalityCounters c;
  c.detect_full_scans = ctx.detection.stats().full_scans;
  c.detect_delta_updates = ctx.detection.stats().delta_updates;
  c.erg_full_builds = ctx.erg_cache.stats().full_builds;
  c.erg_delta_updates = ctx.erg_cache.stats().delta_updates;
  c.sim_join_full = ctx.erg_cache.sim_join_stats().full_joins;
  c.sim_join_fallbacks = ctx.erg_cache.sim_join_stats().fallback_full_joins;
  c.sim_join_delta_syncs = ctx.erg_cache.sim_join_stats().delta_syncs;
  return c;
}

}  // namespace

VisCleanSession::VisCleanSession(const DirtyDataset* oracle, VqlQuery query,
                                 SessionOptions options,
                                 UserOptions user_options,
                                 UserCostModel cost_model)
    : oracle_(oracle),
      ctx_(oracle, std::move(query), options, user_options, cost_model) {}

VisCleanSession::~VisCleanSession() = default;

void VisCleanSession::SetExternalPool(ThreadPool* pool) {
  VC_CHECK(!initialized_, "SetExternalPool must precede Initialize()");
  external_pool_ = pool;
}

void VisCleanSession::SetExternalRegistry(obs::Registry* registry) {
  VC_CHECK(!initialized_, "SetExternalRegistry must precede Initialize()");
  external_registry_ = registry;
}

Status VisCleanSession::Initialize() {
  if (initialized_) return Status::Ok();
  Result<std::unique_ptr<CqgSelector>> selector =
      MakeSelector(ctx_.options.selector, ctx_.options.seed);
  if (!selector.ok()) return selector.status();
  ctx_.selector = std::move(selector).value();
  if (external_pool_ != nullptr) {
    ctx_.pool = external_pool_;
  } else if (ctx_.options.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(ctx_.options.threads);
    ctx_.pool = pool_.get();
  }
  ctx_.registry = external_registry_;
  if (external_registry_ != nullptr) {
    for (size_t k = 0; k < kNumKernelKinds; ++k) {
      const char* kind = KernelKindName(static_cast<KernelKind>(k));
      ctx_.kernel_metrics[k].calls = external_registry_->GetCounter(
          std::string("kernel.") + kind + ".calls");
      ctx_.kernel_metrics[k].rows = external_registry_->GetCounter(
          std::string("kernel.") + kind + ".rows");
    }
  }
  // Validate the query against the table once up front.
  Result<VisData> vis = ExecuteVql(ctx_.query, ctx_.table);
  if (!vis.ok()) return vis.status();
  stages_ = MakeStages(ctx_.options.strategy);
  initialized_ = true;
  return Status::Ok();
}

Result<PendingInteraction> VisCleanSession::PlanIteration() {
  if (!initialized_) {
    return Status::Internal("call Initialize() before PlanIteration()");
  }
  if (pending_) {
    return Status::Internal("previous iteration still awaits its answer");
  }

  // Checkpoint the durable state the plan phase consumes, so a snapshot
  // taken while the question is out can replay this exact plan on restore.
  plan_retrain_counter_ = ctx_.retrain_counter;
  plan_selector_state_ = ctx_.selector->SaveState();
  plan_forest_trees_ = ctx_.em.forest().ExportTrees();
  counter_base_ = CountersOf(ctx_);

  // New iteration epoch: every arena span handed out during the previous
  // plan is now invalid (and poisoned under ASan). All arena use is
  // confined to the plan phase, so resetting here is the whole lifecycle.
  ctx_.arena.Reset();

  ctx_.trace = IterationTrace();
  ctx_.trace.iteration = ++iteration_;

  for (const std::unique_ptr<PipelineStage>& stage : stages_) {
    if (stage->phase() != StagePhase::kPlan) continue;
    VC_RETURN_IF_ERROR(RunStageTimed(*stage, ctx_));
  }
  pending_ = true;

  PendingInteraction out;
  out.iteration = iteration_;
  out.strategy = ctx_.options.strategy;
  if (ctx_.options.strategy == QuestionStrategy::kComposite) {
    out.cqg_benefit = ctx_.cqg.total_benefit;
    out.cqg_vertices = ctx_.cqg.vertices.size();
    out.cqg_edges = ctx_.cqg.edge_indices.size();
  }
  out.pool_questions =
      ctx_.questions.t_questions.size() + ctx_.questions.a_questions.size() +
      ctx_.questions.m_questions.size() + ctx_.questions.o_questions.size();
  return out;
}

Result<IterationTrace> VisCleanSession::ResolveIteration() {
  if (!pending_) {
    return Status::Internal("ResolveIteration without a pending plan");
  }

  for (const std::unique_ptr<PipelineStage>& stage : stages_) {
    if (stage->phase() != StagePhase::kResolve) continue;
    VC_RETURN_IF_ERROR(RunStageTimed(*stage, ctx_));
  }

  ctx_.trace.emd = CurrentEmd();

  // Per-iteration incrementality counters: everything the caches did since
  // this round's plan entry (all zero on the kFull reference paths).
  {
    IncrementalityCounters now = CountersOf(ctx_);
    IncrementalityCounters& d = ctx_.trace.incremental;
    d.detect_full_scans = now.detect_full_scans - counter_base_.detect_full_scans;
    d.detect_delta_updates =
        now.detect_delta_updates - counter_base_.detect_delta_updates;
    d.erg_full_builds = now.erg_full_builds - counter_base_.erg_full_builds;
    d.erg_delta_updates = now.erg_delta_updates - counter_base_.erg_delta_updates;
    d.sim_join_full = now.sim_join_full - counter_base_.sim_join_full;
    d.sim_join_fallbacks =
        now.sim_join_fallbacks - counter_base_.sim_join_fallbacks;
    d.sim_join_delta_syncs =
        now.sim_join_delta_syncs - counter_base_.sim_join_delta_syncs;
  }

  // Journal compaction for all incremental consumers: each holds its own
  // watermark, so the journal may only be trimmed up to the minimum —
  // anything later is still unread by at least one cache. Four consumers
  // read the journal: the benefit engine, the detection cache, the ERG
  // cache's value index / working graph, and the maintained sim join. The
  // join is synced strictly after the index and shares its watermark, so
  // its fold is subsumed by the erg_cache fold whenever both are primed —
  // it is folded explicitly anyway to keep the contract visible and safe
  // against future reordering.
  uint64_t upto = 0;
  bool have_consumer = false;
  auto fold = [&](bool primed, uint64_t watermark) {
    if (!primed) return;
    upto = have_consumer ? std::min(upto, watermark) : watermark;
    have_consumer = true;
  };
  fold(ctx_.benefit_engine.primed(), ctx_.benefit_engine.watermark());
  fold(ctx_.detection.primed(), ctx_.detection.watermark());
  fold(ctx_.erg_cache.primed(), ctx_.erg_cache.watermark());
  fold(ctx_.erg_cache.join_primed(), ctx_.erg_cache.watermark());
  if (have_consumer) ctx_.table.CompactJournal(upto);

  pending_ = false;
  return ctx_.trace;
}

Result<IterationTrace> VisCleanSession::RunIteration() {
  Result<PendingInteraction> planned = PlanIteration();
  if (!planned.ok()) return planned.status();
  return ResolveIteration();
}

Result<std::vector<IterationTrace>> VisCleanSession::Run() {
  VC_RETURN_IF_ERROR(Initialize());
  std::vector<IterationTrace> traces;
  IterationTrace initial;
  initial.iteration = 0;
  initial.emd = CurrentEmd();
  traces.push_back(initial);
  for (size_t i = 0; i < ctx_.options.budget; ++i) {
    Result<IterationTrace> trace = RunIteration();
    if (!trace.ok()) return trace.status();
    traces.push_back(std::move(trace).value());
  }
  return traces;
}

Result<SessionSnapshotState> VisCleanSession::CaptureState() const {
  if (!initialized_) {
    return Status::Internal("call Initialize() before CaptureState()");
  }
  SessionSnapshotState state;
  state.dataset_name = oracle_->name;
  state.query_text = ctx_.query.ToString();
  state.options = ctx_.options;
  state.user_options = ctx_.user.options();
  state.cost_model = ctx_.cost_model;

  state.pending = pending_;
  if (pending_) {
    // A planned-but-unanswered round is not durable: persist the plan-entry
    // checkpoint and let RestoreState replay the plan deterministically.
    state.completed_iterations = iteration_ - 1;
    state.retrain_counter = plan_retrain_counter_;
    state.selector_state = plan_selector_state_;
    state.forest_trees = plan_forest_trees_;
  } else {
    state.completed_iterations = iteration_;
    state.retrain_counter = ctx_.retrain_counter;
    state.selector_state = ctx_.selector->SaveState();
    state.forest_trees = ctx_.em.forest().ExportTrees();
  }

  // Clone() hands back the rows with a compacted journal at the current
  // watermark — exactly the durable image (plan stages are table-neutral,
  // so a pending capture sees the pre-plan table).
  state.table = ctx_.table.Clone();
  state.em_labels = ctx_.em.labels();
  state.question_store = ctx_.question_store.Snapshot();
  state.a_answered = ctx_.a_answered;
  state.o_answered = ctx_.o_answered;
  state.merge_witnessed_a = ctx_.merge_witnessed_a;
  state.transform_votes = ctx_.transform_votes;
  state.user_rng_state = ctx_.user.SaveRngState();
  return state;
}

Status VisCleanSession::RestoreState(const SessionSnapshotState& state) {
  VC_RETURN_IF_ERROR(Initialize());
  if (iteration_ != 0 || pending_) {
    return Status::InvalidArgument(
        "RestoreState requires a freshly initialized session");
  }
  if (oracle_->name != state.dataset_name) {
    return Status::InvalidArgument("snapshot dataset '" + state.dataset_name +
                                   "' does not match session dataset '" +
                                   oracle_->name + "'");
  }

  ctx_.table = state.table;
  ctx_.em.RestoreLabels(state.em_labels);
  // The forest must come back verbatim: a later degenerate retrain (empty
  // or single-class training set) keeps the previous fit, so the fit
  // itself is durable state — labels alone cannot reproduce it.
  ctx_.em.RestoreForest(state.forest_trees);
  ctx_.question_store.Restore(state.question_store);
  ctx_.a_answered = state.a_answered;
  ctx_.o_answered = state.o_answered;
  ctx_.merge_witnessed_a = state.merge_witnessed_a;
  ctx_.transform_votes = state.transform_votes;
  ctx_.retrain_counter = state.retrain_counter;
  if (!ctx_.user.LoadRngState(state.user_rng_state)) {
    return Status::InvalidArgument("snapshot user RNG state does not parse");
  }
  if (!state.selector_state.empty() &&
      !ctx_.selector->LoadState(state.selector_state)) {
    return Status::InvalidArgument("snapshot selector state does not parse");
  }
  iteration_ = state.completed_iterations;

  // The caches (benefit engine, detection, ERG) start unprimed and rebuild
  // bit-identically on first touch. A pending snapshot resumes by replaying
  // the plan phase from the just-restored checkpoint: same inputs, same
  // stages, same pending question.
  if (state.pending) {
    Result<PendingInteraction> replay = PlanIteration();
    if (!replay.ok()) return replay.status();
  }
  return Status::Ok();
}

Result<VisData> VisCleanSession::CurrentVis() const {
  return ExecuteVql(ctx_.query, ctx_.table);
}

Result<VisData> VisCleanSession::GroundTruthVis() const {
  return ExecuteVql(ctx_.query, oracle_->clean);
}

double VisCleanSession::CurrentEmd() const {
  Result<VisData> current = CurrentVis();
  Result<VisData> truth = GroundTruthVis();
  if (!current.ok() || !truth.ok()) return 0.0;
  return EmdDistance(current.value(), truth.value());
}

}  // namespace visclean
