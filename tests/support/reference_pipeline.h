// The reference pipeline: the session's production stage list with the
// stages that read one family of incremental caches swapped for subclasses
// that recompute from scratch through the public building blocks. The
// differential suites and the scaling benches run it next to the production
// pipeline and require bit-identical outputs (and, in the benches, the
// speedup of the caches over it).
//
// One family at a time, so a divergence points at one cache:
//  * kDetect  — TokenBlocking / DetectMissing / DetectOutliers every
//    iteration. The DetectionCache never primes, so train and assemble run
//    without its pair-feature memo (DetectionCache::features() is null).
//  * kErg     — GenerateAQuestions with no maintained join, live-spelling
//    counts by table scan (generate's liveness filter, the ask stages'
//    golden-record election), ErgCache::AssembleFull, and a support-less
//    ErgView for selection.
//  * kBenefit — EstimateBenefits with no engine: every candidate re-renders
//    Q(D) from every live row.
#ifndef VISCLEAN_TESTS_SUPPORT_REFERENCE_PIPELINE_H_
#define VISCLEAN_TESTS_SUPPORT_REFERENCE_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/engine_context.h"
#include "core/pipeline.h"
#include "core/session.h"

namespace visclean {

/// \brief The family of incremental caches the reference pipeline bypasses.
enum class ReferencePart { kDetect, kErg, kBenefit };

/// MakeStages(strategy) with the stages that read `part`'s caches replaced
/// by their from-scratch references (see file comment).
std::vector<std::unique_ptr<PipelineStage>> MakeReferenceStages(
    QuestionStrategy strategy, ReferencePart part);

/// Makes `session` build MakeReferenceStages(·, part); call before
/// Initialize() (or RestoreState).
void UseReferenceStages(VisCleanSession& session, ReferencePart part);

}  // namespace visclean

#endif  // VISCLEAN_TESTS_SUPPORT_REFERENCE_PIPELINE_H_
