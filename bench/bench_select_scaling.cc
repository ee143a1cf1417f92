// Select-stage scaling: per-iteration wall time of the assemble / select
// stages with the ERG maintained incrementally by the journal-driven
// ErgCache vs rebuilt from scratch every iteration by the reference
// pipeline (ReferencePart::kErg, tests/support), on the Q1/D1 session.
// Iteration 1 is a full build either way; from iteration 2 on, the
// incremental path folds only the journal rows the previous iteration's
// repairs touched into the X value index and applies the QuestionStore delta to the maintained graph — that
// is where the speedup lives. The run also exercises:
//  * the thread-scaling curve (the pooled index rebuild of iteration 1);
//  * the dirty-fraction fallback (threshold 0 forces every delta back to a
//    pooled full rebuild — the safety valve for bulk edits);
//  * the determinism contract: the incremental EMD trajectory must match the
//    reference's at every thread count (the graphs are bit-identical by
//    construction).
// Results land in BENCH_select_scaling.json; `select_speedup_after_iter1`
// is the headline metric and the run fails if it drops below 3x.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json_writer.h"
#include "core/erg_cache.h"
#include "support/reference_pipeline.h"

namespace visclean {
namespace bench {
namespace {

constexpr size_t kBudget = 6;
constexpr double kRequiredSpeedup = 3.0;

struct IterationTimes {
  std::vector<double> assemble;  // per iteration, seconds
  std::vector<double> select;
  std::vector<double> bucket;  // assemble + select
  std::vector<double> emd;
  std::vector<double> dirty_fraction;  // index dirty share per iteration
  ErgStats stats;
};

SessionOptions SelectOptions(size_t threads, double dirty_threshold) {
  SessionOptions options = PaperSessionOptions("gss", "D1");
  options.budget = kBudget;
  options.threads = threads;
  options.erg_dirty_threshold = dirty_threshold;
  // Keep the interactive loop (one composite question's repairs per
  // iteration) — the bulk-edit path is covered by the threshold-0 run and
  // the differential suite, mirroring bench_detect_scaling.
  options.auto_merge_threshold = 1.1;
  return options;
}

// `reference` runs the reference pipeline's erg stages instead of the
// ErgCache.
IterationTimes RunSession(const DirtyDataset& data, const BenchTask& task,
                          const SessionOptions& options,
                          bool reference = false) {
  VisCleanSession session(&data, MustParse(task.vql), options);
  if (reference) UseReferenceStages(session, ReferencePart::kErg);
  IterationTimes out;
  if (!session.Initialize().ok()) return out;
  for (size_t i = 0; i < options.budget; ++i) {
    Result<IterationTrace> trace = session.RunIteration();
    if (!trace.ok()) return out;
    double assemble = 0, select = 0;
    for (const StageTime& st : trace.value().stage_times) {
      if (st.stage == std::string("assemble")) assemble += st.seconds;
      if (st.stage == std::string("select")) select += st.seconds;
    }
    out.assemble.push_back(assemble);
    out.select.push_back(select);
    out.bucket.push_back(assemble + select);
    out.emd.push_back(trace.value().emd);
    out.dirty_fraction.push_back(
        session.context().erg_cache.stats().last_dirty_fraction);
  }
  out.stats = session.context().erg_cache.stats();
  return out;
}

double TailMean(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double sum = 0.0;
  for (size_t i = 1; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 1);
}

int Run(bool full) {
  DirtyDataset data = MakeDataset("D1", full ? 0 : DefaultEntities("D1"));
  BenchTask task = TableVTasks().front();  // Q1
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const double threshold = DefaultErgDirtyThreshold("D1");

  std::printf("=== Select scaling (Q1/D1, %zu rows, %zu cores) ===\n\n",
              data.dirty.num_rows(), cores);

  // Reference vs incremental, both serial.
  IterationTimes ref =
      RunSession(data, task, SelectOptions(1, threshold), /*reference=*/true);
  IterationTimes inc = RunSession(data, task, SelectOptions(1, threshold));
  if (ref.emd.size() != kBudget || inc.emd.size() != kBudget) {
    std::fprintf(stderr, "FATAL: a session failed mid-run\n");
    return 1;
  }
  if (ref.emd != inc.emd) {
    std::fprintf(stderr,
                 "FATAL: incremental EMD trajectory diverges from the "
                 "reference\n");
    return 1;
  }

  std::printf("%5s %13s %13s %9s %12s %7s\n", "iter", "full_assemble",
              "incr_assemble", "speedup", "incr_select", "dirty");
  for (size_t i = 0; i < kBudget; ++i) {
    std::printf("%5zu %13.4f %13.4f %8.2fx %12.4f %6.1f%%\n", i + 1,
                ref.assemble[i], inc.assemble[i],
                inc.assemble[i] > 0 ? ref.assemble[i] / inc.assemble[i] : 0.0,
                inc.select[i], 100.0 * inc.dirty_fraction[i]);
  }
  // Headline: mean select-bucket (assemble + select) time after the warm-up
  // full build of iteration 1.
  double tail_full = TailMean(ref.bucket);
  double tail_inc = TailMean(inc.bucket);
  double select_speedup = tail_inc > 0 ? tail_full / tail_inc : 0.0;
  double assemble_speedup = TailMean(inc.assemble) > 0
                                ? TailMean(ref.assemble) / TailMean(inc.assemble)
                                : 0.0;
  std::printf("\nmean assemble+select time after iteration 1: full %.4fs, "
              "incremental %.4fs -> %.2fx\n",
              tail_full, tail_inc, select_speedup);
  std::printf("delta updates %zu, full builds %zu (of which fallback %zu), "
              "edges +%zu/-%zu, payload refreshes %zu\n\n",
              inc.stats.delta_updates, inc.stats.full_builds,
              inc.stats.fallback_full_builds, inc.stats.edges_inserted,
              inc.stats.edges_retracted, inc.stats.payload_refreshes);

  // Thread-scaling curve (iteration 1 carries the pooled index rebuild).
  std::printf("%8s %16s %15s\n", "threads", "iter1_assemble",
              "total_assemble");
  struct ThreadPoint {
    size_t threads;
    double first_assemble;
    double total_assemble;
  };
  std::vector<ThreadPoint> curve;
  for (size_t threads : {1, 2, 4, 8}) {
    IterationTimes t =
        RunSession(data, task, SelectOptions(threads, threshold));
    if (t.emd != ref.emd) {
      std::fprintf(stderr,
                   "FATAL: %zu-thread incremental EMD trajectory diverges\n",
                   threads);
      return 1;
    }
    double total = 0;
    for (double d : t.assemble) total += d;
    curve.push_back({threads, t.assemble.front(), total});
    std::printf("%8zu %16.4f %15.4f\n", threads, t.assemble.front(), total);
  }

  // Fallback case: a zero threshold sends every dirty delta back to a
  // pooled full rebuild; the trajectory must be unchanged.
  IterationTimes fb = RunSession(data, task, SelectOptions(1, 0.0));
  if (fb.emd != ref.emd) {
    std::fprintf(stderr, "FATAL: fallback run EMD trajectory diverges\n");
    return 1;
  }
  std::printf("\nfallback run (threshold 0): %zu fallback full builds, "
              "%zu delta updates\n",
              fb.stats.fallback_full_builds, fb.stats.delta_updates);
  if (fb.stats.fallback_full_builds == 0) {
    std::fprintf(stderr, "FATAL: fallback path was never exercised\n");
    return 1;
  }
  if (select_speedup < kRequiredSpeedup) {
    std::fprintf(stderr,
                 "FATAL: select_speedup_after_iter1 %.2fx is below the "
                 "required %.1fx\n",
                 select_speedup, kRequiredSpeedup);
    return 1;
  }

  JsonWriter json = JsonWriter::Pretty();
  json.BeginObject();
  json.Key("bench");
  json.String("select_scaling");
  json.Key("dataset");
  json.String("D1");
  json.Key("task");
  json.Int(task.id);
  json.Key("rows");
  json.Int(static_cast<int64_t>(data.dirty.num_rows()));
  json.Key("budget");
  json.Int(static_cast<int64_t>(kBudget));
  json.Key("hardware_cores");
  json.Int(static_cast<int64_t>(cores));
  json.Key("erg_dirty_threshold");
  json.Number(threshold);
  json.Key("select_speedup_after_iter1");
  json.Number(select_speedup);
  json.Key("assemble_speedup_after_iter1");
  json.Number(assemble_speedup);
  json.Key("delta_updates");
  json.Int(static_cast<int64_t>(inc.stats.delta_updates));
  json.Key("full_builds");
  json.Int(static_cast<int64_t>(inc.stats.full_builds));
  json.Key("edges_inserted");
  json.Int(static_cast<int64_t>(inc.stats.edges_inserted));
  json.Key("edges_retracted");
  json.Int(static_cast<int64_t>(inc.stats.edges_retracted));
  json.Key("fallback_full_builds_at_zero_threshold");
  json.Int(static_cast<int64_t>(fb.stats.fallback_full_builds));
  json.Key("iterations");
  json.BeginArray();
  for (size_t i = 0; i < kBudget; ++i) {
    json.BeginObject();
    json.Key("iteration");
    json.Int(static_cast<int64_t>(i + 1));
    json.Key("assemble_full");
    json.Number(ref.assemble[i]);
    json.Key("assemble_incremental");
    json.Number(inc.assemble[i]);
    json.Key("select_full");
    json.Number(ref.select[i]);
    json.Key("select_incremental");
    json.Number(inc.select[i]);
    json.Key("dirty_fraction");
    json.Number(inc.dirty_fraction[i]);
    json.Key("emd");
    json.Number(ref.emd[i]);
    json.EndObject();
  }
  json.EndArray();
  json.Key("thread_curve");
  json.BeginArray();
  for (const ThreadPoint& p : curve) {
    json.BeginObject();
    json.Key("threads");
    json.Int(static_cast<int64_t>(p.threads));
    json.Key("iter1_assemble_seconds");
    json.Number(p.first_assemble);
    json.Key("iter1_speedup");
    json.Number(p.first_assemble > 0
                    ? curve.front().first_assemble / p.first_assemble
                    : 0.0);
    json.Key("total_assemble_seconds");
    json.Number(p.total_assemble);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out("BENCH_select_scaling.json");
  out << json.TakeString() << "\n";
  std::printf("\nwrote BENCH_select_scaling.json (EMD trajectories "
              "bit-identical across reference, threads, and fallback)\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace visclean

int main(int argc, char** argv) {
  bool full = argc > 1 && std::string(argv[1]) == "--full";
  return visclean::bench::Run(full);
}
