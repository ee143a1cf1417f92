// The kernel seam: how the per-session chunk kernels execute.
//
// The expensive per-iteration kernels — EM forest inference, pair-feature
// extraction, kNN distance scans — are all "pure chunk" loops: a function
// of a global index range whose writes are indexed, so any partition of
// [0, total) produces bit-identical results. That property is what lets one
// call site serve two execution strategies without changing semantics:
//
//   * small batch (total < min_parallel) -> run serially inline;
//   * large batch                         -> fan out over the session pool.
//
// Standalone and served sessions take the same path; a served session's
// pool is the one its SessionManager lends it. Call sites declare which
// kernel family a loop belongs to via KernelKind so telemetry can account
// calls and rows per kernel.
#ifndef VISCLEAN_COMMON_KERNEL_ENV_H_
#define VISCLEAN_COMMON_KERNEL_ENV_H_

#include <cstddef>
#include <functional>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace visclean {

class Arena;

/// \brief The chunk kernel families (one telemetry family each).
enum class KernelKind {
  kEmInference = 0,   // flat-forest PredictBatch over pair-feature rows
  kPairFeatures = 1,  // PairFeatureCache miss extraction
  kKnnQuery = 2,      // token-kNN scans (detector imputation)
};

inline constexpr size_t kNumKernelKinds = 3;

/// Stable metric-name component per kernel kind ("kernel.<name>.*").
inline const char* KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kEmInference:
      return "em_infer";
    case KernelKind::kPairFeatures:
      return "pair_features";
    case KernelKind::kKnnQuery:
      return "knn";
  }
  return "unknown";
}

/// \brief Pre-resolved telemetry handles for one kernel kind at a call
/// site — resolved once from an obs::Registry (EngineContext does this when
/// the serving layer attaches one), so RunKernel's accounting is two relaxed
/// atomic adds, no name lookups.
struct KernelSiteMetrics {
  obs::Counter* calls = nullptr;
  obs::Counter* rows = nullptr;
};

/// \brief The execution environment a kernel call site sees: the session
/// pool (may be null) and the per-iteration arena (null when a caller has
/// no iteration scope). Bundled so signatures stay stable.
struct KernelEnv {
  ThreadPool* pool = nullptr;
  Arena* arena = nullptr;
  /// Per-kind telemetry handles (array of kNumKernelKinds) or null when the
  /// call site has no registry attached.
  const KernelSiteMetrics* metrics = nullptr;
};

/// Executes fn over [0, total): on the pool when `total >= min_parallel`
/// (each site keeps its historical fan-out gate), else inline. Results are
/// bit-identical across both paths for fns meeting the purity contract.
inline void RunKernel(KernelKind kind, const KernelEnv& env, size_t total,
                      size_t min_parallel,
                      const std::function<void(size_t, size_t)>& fn) {
  if (total == 0) return;
#ifndef VISCLEAN_OBS_OFF
  if (env.metrics != nullptr) {
    const KernelSiteMetrics& m = env.metrics[static_cast<size_t>(kind)];
    if (m.calls != nullptr) m.calls->Add(1);
    if (m.rows != nullptr) m.rows->Add(total);
  }
#endif
  if (env.pool != nullptr && total >= min_parallel) {
    env.pool->ParallelChunks(
        total, [&](size_t, size_t begin, size_t end) { fn(begin, end); });
    return;
  }
  fn(0, total);
}

}  // namespace visclean

#endif  // VISCLEAN_COMMON_KERNEL_ENV_H_
