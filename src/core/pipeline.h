// The staged cleaning pipeline: one iteration of the paper's Fig. 6 loop is
// an ordered list of PipelineStage objects run over a shared EngineContext.
//
//   composite: detect -> train -> generate -> assemble -> benefit -> select
//              -> ask -> apply
//   single:    detect -> train -> generate -> ask(single) -> apply
//
// Both questioning strategies are stage *configurations* (MakeStages), not
// separate code paths: they share detection, training, generation and the
// machine auto-merge, and differ only in how questions reach the user.
// Stages are stateless between iterations — everything lives in the context
// — so any stage can be swapped, instrumented, or parallelized in isolation
// (BenefitStage already fans out to the context's ThreadPool).
//
// Each stage runs one path: the incremental caches on the context, with
// their own full-rebuild fallbacks. Where a stage reads a cache, that read
// is one protected virtual hook; the reference pipeline the differential
// suites and scaling benches compare against (tests/support/) overrides
// exactly those hooks with the from-scratch building blocks and installs
// its stage list through VisCleanSession::SetStageFactory.
#ifndef VISCLEAN_CORE_PIPELINE_H_
#define VISCLEAN_CORE_PIPELINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "clean/a_question_gen.h"
#include "common/status.h"
#include "core/engine_context.h"
#include "em/clustering.h"

namespace visclean {

/// \brief Fig. 18 component bucket a stage's wall time is charged to.
enum class StageBucket { kDetect, kTrain, kBenefit, kSelect, kApply };

/// \brief Which half of the interaction round a stage belongs to.
///
/// kPlan stages run machine-side work up to (and including) choosing the
/// next composite question; kResolve stages consume the user's answers and
/// fold repairs. The split is the serving boundary: SessionManager::Step
/// runs the plan half, returns to the (possibly minutes-long) user, and
/// SessionManager::Answer later runs the resolve half. Plan stages must not
/// net-mutate durable session state other than the replay-checkpointed
/// counters (see VisCleanSession::PlanIteration), which is what makes a
/// pending iteration deterministically replayable after snapshot restore.
enum class StagePhase { kPlan, kResolve };

/// \brief One step of the cleaning loop.
///
/// Stages hold no per-run state; Run() reads and writes the context only.
/// The driver (VisCleanSession) times each Run() call and charges it to the
/// stage's declared bucket.
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;

  /// Stable lowercase identifier ("detect", "train", ...), recorded in
  /// IterationTrace::stage_times.
  virtual const char* name() const = 0;
  /// The ComponentTimes bucket this stage charges.
  virtual StageBucket bucket() const = 0;
  /// The interaction half this stage runs in (see StagePhase).
  virtual StagePhase phase() const { return StagePhase::kPlan; }
  virtual Status Run(EngineContext& ctx) = 0;
};

/// Error detection: token blocking for duplicate candidates, kNN missing-
/// value and outlier detectors on the Y column.
class DetectStage : public PipelineStage {
 public:
  const char* name() const override { return "detect"; }
  StageBucket bucket() const override { return StageBucket::kDetect; }
  Status Run(EngineContext& ctx) override;

 protected:
  /// Fills ctx.candidates and (for a numeric Y) the M-/O-questions for
  /// `request`: journal-driven deltas through ctx.detection, pooled full
  /// scans on its first iteration and past the dirty threshold.
  virtual void Detect(EngineContext& ctx, const DetectionRequest& request);
};

/// EM model fine-tuning on the (thinned) candidate pairs + rescoring.
class TrainStage : public PipelineStage {
 public:
  const char* name() const override { return "train"; }
  StageBucket bucket() const override { return StageBucket::kTrain; }
  Status Run(EngineContext& ctx) override;
};

/// \brief Base of the stages that ask how many live rows carry an X-column
/// spelling: GenerateStage (is a witnessed spelling still live?) and the
/// ask stages (golden-record election when a confirmed merge leaves the
/// user's preferred spelling unknown).
class XSpellingStage : public PipelineStage {
 protected:
  /// Live-row count of every spelling in `spellings` in the X column
  /// (XColumnOrNoColumn; 0 when no live row carries it), read from the
  /// ErgCache's journal-synced X value index.
  virtual std::map<std::string, size_t> CountXSpellings(
      EngineContext& ctx, const std::set<std::string>& spellings);

  /// Confirm-edge repair: standardizes the two rows' X spellings (on the
  /// user's preferred form, else the most frequent live one) and merges the
  /// rows.
  void ApplyConfirmedMatch(EngineContext& ctx, size_t row_a, size_t row_b);
};

/// Question generation (Algorithm 1): uncertain T-questions via active
/// learning, A-questions from clusters + witnessed machine merges. Needs
/// TrainStage's scores, hence a separate stage; its time is part of the
/// paper's "Detect Errors" component.
class GenerateStage : public XSpellingStage {
 public:
  const char* name() const override { return "generate"; }
  StageBucket bucket() const override { return StageBucket::kDetect; }
  Status Run(EngineContext& ctx) override;

 protected:
  /// Algorithm 1 over `clusters`; Strategy 2 reads the ErgCache's
  /// journal-maintained similarity self-join.
  virtual std::vector<AQuestion> GenerateA(EngineContext& ctx,
                                           const EntityClusters& clusters,
                                           size_t x_col,
                                           const AQuestionOptions& options);
};

/// Question assembly + ERG construction (Definition 2.1): folds the
/// iteration's QuestionSet into the QuestionStore pools and publishes the
/// canonical ERG snapshot into ctx.erg. Charged to the select bucket: this
/// is the select-stage work the paper's Fig. 18 shows growing with table
/// size.
class AssembleStage : public PipelineStage {
 public:
  const char* name() const override { return "assemble"; }
  StageBucket bucket() const override { return StageBucket::kSelect; }
  Status Run(EngineContext& ctx) override;

 protected:
  /// Publishes the ERG over the just-ingested pools into ctx.erg, through
  /// the ErgCache's maintained working graph.
  virtual void Assemble(EngineContext& ctx, const ErgRequest& request);
};

/// Benefit estimation (Definition 5.1) over the assembled ERG. Fans
/// speculative repairs out to ctx.pool when the session has one; results
/// are bit-identical to the serial path.
class BenefitStage : public PipelineStage {
 public:
  const char* name() const override { return "benefit"; }
  StageBucket bucket() const override { return StageBucket::kBenefit; }
  Status Run(EngineContext& ctx) override;

 protected:
  /// The engine estimation renders against: ctx.benefit_engine, Prepare()d
  /// on the current table so candidates re-aggregate only their dirty
  /// groups.
  virtual BenefitEngine* PreparedEngine(EngineContext& ctx);
};

/// CQG selection via ctx.selector, with the vertex-only fallback composite
/// when no edges remain.
class SelectStage : public PipelineStage {
 public:
  const char* name() const override { return "select"; }
  StageBucket bucket() const override { return StageBucket::kSelect; }
  Status Run(EngineContext& ctx) override;

 protected:
  /// The selection support handed to the selector with ctx.erg: the
  /// ErgCache's, refreshed once on this iteration's published snapshot.
  virtual const ErgSelectSupport* SelectSupport(EngineContext& ctx);
};

/// Composite user interaction: asks the selected CQG (edge questions with
/// A-question follow-ups, vertex M-/O-questions) and applies the answers.
class AskStage : public XSpellingStage {
 public:
  const char* name() const override { return "ask"; }
  StageBucket bucket() const override { return StageBucket::kApply; }
  StagePhase phase() const override { return StagePhase::kResolve; }
  Status Run(EngineContext& ctx) override;
};

/// Single-question baseline interaction (Section VII, algorithm (vi)):
/// m isolated questions per iteration, m/4 from each candidate set.
class SingleAskStage : public XSpellingStage {
 public:
  const char* name() const override { return "ask"; }
  StageBucket bucket() const override { return StageBucket::kApply; }
  StagePhase phase() const override { return StagePhase::kResolve; }
  Status Run(EngineContext& ctx) override;
};

/// Machine auto-merge of confident EM clusters (gated on user labels) —
/// the non-interactive tail of "repair errors + refresh".
class ApplyStage : public PipelineStage {
 public:
  const char* name() const override { return "apply"; }
  StageBucket bucket() const override { return StageBucket::kApply; }
  StagePhase phase() const override { return StagePhase::kResolve; }
  Status Run(EngineContext& ctx) override;
};

/// The stage list for a questioning strategy (see file comment).
std::vector<std::unique_ptr<PipelineStage>> MakeStages(
    QuestionStrategy strategy);

/// The column whose attribute-level duplicates hurt this query: a
/// categorical X axis, or — as in Q7, where the predicate "Venue = 'SIGMOD'"
/// silently drops synonym rows — the first categorical column a WHERE
/// conjunct references. BenefitOptions::kNoColumn when neither exists.
size_t XColumnOrNoColumn(const EngineContext& ctx);

}  // namespace visclean

#endif  // VISCLEAN_CORE_PIPELINE_H_
