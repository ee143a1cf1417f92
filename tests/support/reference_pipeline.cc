#include "support/reference_pipeline.h"

#include <map>
#include <set>
#include <string>

#include "clean/a_question_gen.h"
#include "clean/missing_detector.h"
#include "clean/outlier_detector.h"
#include "em/blocking.h"

namespace visclean {

namespace {

// The legacy detectors, serial and uncached.
class ReferenceDetectStage : public DetectStage {
 protected:
  void Detect(EngineContext& ctx, const DetectionRequest& request) override {
    ctx.candidates = TokenBlocking(ctx.table, request.blocking);
    if (request.numeric_y) {
      ctx.questions.m_questions =
          DetectMissing(ctx.table, request.y_column, request.missing);
      ctx.questions.o_questions =
          DetectOutliers(ctx.table, request.y_column, request.outlier);
    }
  }
};

// Live-spelling counts from a scan of every live row instead of the
// journal-synced X value index.
template <class Stage>
class ScannedSpellings : public Stage {
 protected:
  std::map<std::string, size_t> CountXSpellings(
      EngineContext& ctx, const std::set<std::string>& spellings) override {
    std::map<std::string, size_t> counts;
    for (const std::string& sp : spellings) counts.emplace(sp, 0);
    const size_t x_col = XColumnOrNoColumn(ctx);
    for (size_t r : ctx.table.LiveRowIds()) {
      const Value& v = ctx.table.at(r, x_col);
      if (v.is_null()) continue;
      auto it = counts.find(v.ToDisplayString());
      if (it != counts.end()) ++it->second;
    }
    return counts;
  }
};

// Strategy 2 re-joins every live spelling from scratch.
class ReferenceGenerateStage : public ScannedSpellings<GenerateStage> {
 protected:
  std::vector<AQuestion> GenerateA(EngineContext& ctx,
                                   const EntityClusters& clusters,
                                   size_t x_col,
                                   const AQuestionOptions& options) override {
    return GenerateAQuestions(ctx.table, clusters.clusters, x_col, options,
                              /*maintained=*/nullptr, ctx.pool);
  }
};

class ReferenceAssembleStage : public AssembleStage {
 protected:
  void Assemble(EngineContext& ctx, const ErgRequest& request) override {
    ErgCache::AssembleFull(ctx.table, ctx.question_store, ctx.em, request,
                           &ctx.erg);
  }
};

// The selectors' inline path.
class ReferenceSelectStage : public SelectStage {
 protected:
  const ErgSelectSupport* SelectSupport(EngineContext&) override {
    return nullptr;
  }
};

// Full renders per candidate; the engine is never Prepare()d.
class ReferenceBenefitStage : public BenefitStage {
 protected:
  BenefitEngine* PreparedEngine(EngineContext&) override { return nullptr; }
};

// The reference replacing production stage `name`, or null to keep it.
std::unique_ptr<PipelineStage> ReferenceFor(const std::string& name,
                                            QuestionStrategy strategy,
                                            ReferencePart part) {
  switch (part) {
    case ReferencePart::kDetect:
      if (name == "detect") return std::make_unique<ReferenceDetectStage>();
      break;
    case ReferencePart::kErg:
      if (name == "generate") return std::make_unique<ReferenceGenerateStage>();
      if (name == "assemble") return std::make_unique<ReferenceAssembleStage>();
      if (name == "select") return std::make_unique<ReferenceSelectStage>();
      if (name == "ask" && strategy == QuestionStrategy::kComposite) {
        return std::make_unique<ScannedSpellings<AskStage>>();
      }
      if (name == "ask") {
        return std::make_unique<ScannedSpellings<SingleAskStage>>();
      }
      break;
    case ReferencePart::kBenefit:
      if (name == "benefit") return std::make_unique<ReferenceBenefitStage>();
      break;
  }
  return nullptr;
}

}  // namespace

std::vector<std::unique_ptr<PipelineStage>> MakeReferenceStages(
    QuestionStrategy strategy, ReferencePart part) {
  std::vector<std::unique_ptr<PipelineStage>> stages = MakeStages(strategy);
  for (std::unique_ptr<PipelineStage>& stage : stages) {
    std::unique_ptr<PipelineStage> reference =
        ReferenceFor(stage->name(), strategy, part);
    if (reference != nullptr) stage = std::move(reference);
  }
  return stages;
}

void UseReferenceStages(VisCleanSession& session, ReferencePart part) {
  session.SetStageFactory([part](QuestionStrategy strategy) {
    return MakeReferenceStages(strategy, part);
  });
}

}  // namespace visclean
