// Detection scaling: per-iteration wall time of the detect / train /
// generate stages (IterationTrace::stage_times) with detection routed
// through the journal-driven DetectionCache vs the reference pipeline's
// legacy full-scan free functions (ReferencePart::kDetect, tests/support),
// on the Q1/D1 session. Iteration 1 is a full scan either way; from
// iteration 2 on, the incremental path folds in only the rows the previous
// iteration's repairs touched, which is where the speedup lives. The run also exercises:
//  * the thread-scaling curve of the pooled full scan (iteration 1);
//  * the dirty-fraction fallback (threshold 0 forces every delta back to a
//    full scan — the safety valve the session relies on for bulk edits);
//  * the determinism contract: the incremental EMD trajectory must match the
//    reference's.
// Results land in BENCH_detect_scaling.json next to the printed table.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json_writer.h"
#include "core/detection_cache.h"
#include "support/reference_pipeline.h"

namespace visclean {
namespace bench {
namespace {

constexpr size_t kBudget = 6;

struct IterationTimes {
  std::vector<double> detect;    // per iteration, seconds
  std::vector<double> train;
  std::vector<double> generate;
  std::vector<double> emd;
  std::vector<double> dirty_fraction;  // share of live rows invalidated
  DetectionStats stats;
};

SessionOptions DetectOptions(size_t threads, double dirty_threshold) {
  SessionOptions options = PaperSessionOptions();
  options.budget = kBudget;
  options.threads = threads;
  options.detection_dirty_threshold = dirty_threshold;
  // Machine auto-merge rewrites thousands of rows in one shot, so every
  // following detect correctly falls back to a full scan — that bulk path
  // is covered by the threshold-0 run and the differential suite. The
  // headline measures the interactive loop the substrate targets: one
  // composite question's accepted repairs per iteration.
  options.auto_merge_threshold = 1.1;
  return options;
}

// `reference` runs the reference pipeline's detect stage instead of the
// DetectionCache.
IterationTimes RunSession(const DirtyDataset& data, const BenchTask& task,
                          const SessionOptions& options,
                          bool reference = false) {
  VisCleanSession session(&data, MustParse(task.vql), options);
  if (reference) UseReferenceStages(session, ReferencePart::kDetect);
  IterationTimes out;
  if (!session.Initialize().ok()) return out;
  for (size_t i = 0; i < options.budget; ++i) {
    Result<IterationTrace> trace = session.RunIteration();
    if (!trace.ok()) return out;
    double detect = 0, train = 0, generate = 0;
    for (const StageTime& st : trace.value().stage_times) {
      if (st.stage == std::string("detect")) detect += st.seconds;
      if (st.stage == std::string("train")) train += st.seconds;
      if (st.stage == std::string("generate")) generate += st.seconds;
    }
    out.detect.push_back(detect);
    out.train.push_back(train);
    out.generate.push_back(generate);
    out.emd.push_back(trace.value().emd);
    out.dirty_fraction.push_back(
        session.context().detection.stats().last_dirty_fraction);
  }
  out.stats = session.context().detection.stats();
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

  std::printf("=== Detection scaling (Q1/D1, %zu rows, %zu cores) ===\n\n",
              data.dirty.num_rows(), cores);
  if (cores == 1) {
    std::printf("NOTE: single-core machine — the thread curve only tracks "
                "overhead; the incremental speedup is thread-free.\n\n");
  }

  // Reference vs incremental, both serial.
  IterationTimes ref =
      RunSession(data, task, DetectOptions(1, 0.35), /*reference=*/true);
  IterationTimes inc = RunSession(data, task, DetectOptions(1, 0.35));
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

  std::printf("%5s %12s %12s %9s %12s %12s %7s\n", "iter", "full_detect",
              "incr_detect", "speedup", "full_train", "incr_train", "dirty");
  for (size_t i = 0; i < kBudget; ++i) {
    std::printf("%5zu %12.4f %12.4f %8.2fx %12.4f %12.4f %6.1f%%\n", i + 1,
                ref.detect[i], inc.detect[i],
                inc.detect[i] > 0 ? ref.detect[i] / inc.detect[i] : 0.0,
                ref.train[i], inc.train[i], 100.0 * inc.dirty_fraction[i]);
  }
  // Headline: mean per-iteration detect time after the warm-up full scan.
  double tail_full = TailMean(ref.detect);
  double tail_inc = TailMean(inc.detect);
  double detect_speedup = tail_inc > 0 ? tail_full / tail_inc : 0.0;
  double train_speedup =
      TailMean(inc.train) > 0 ? TailMean(ref.train) / TailMean(inc.train) : 0.0;
  double generate_speedup = TailMean(inc.generate) > 0
                                ? TailMean(ref.generate) / TailMean(inc.generate)
                                : 0.0;
  std::printf("\nmean detect time after iteration 1: full %.4fs, "
              "incremental %.4fs -> %.2fx\n",
              tail_full, tail_inc, detect_speedup);
  std::printf("delta updates %zu, full scans %zu (of which fallback %zu)\n\n",
              inc.stats.delta_updates, inc.stats.full_scans,
              inc.stats.fallback_full_scans);

  // Thread-scaling curve of the pooled scans (iteration 1 is always full).
  std::printf("%8s %15s %14s\n", "threads", "iter1_detect", "total_detect");
  struct ThreadPoint {
    size_t threads;
    double first_detect;
    double total_detect;
  };
  std::vector<ThreadPoint> curve;
  for (size_t threads : {1, 2, 4, 8}) {
    IterationTimes t = RunSession(data, task, DetectOptions(threads, 0.35));
    if (t.emd != ref.emd) {
      std::fprintf(stderr,
                   "FATAL: %zu-thread incremental EMD trajectory diverges\n",
                   threads);
      return 1;
    }
    double total = 0;
    for (double d : t.detect) total += d;
    curve.push_back({threads, t.detect.front(), total});
    std::printf("%8zu %15.4f %14.4f\n", threads, t.detect.front(), total);
  }

  // Fallback case: a zero threshold sends every dirty delta back to a full
  // scan; the results (EMD trajectory) must be unchanged.
  IterationTimes fb = RunSession(data, task, DetectOptions(1, 0.0));
  if (fb.emd != ref.emd) {
    std::fprintf(stderr, "FATAL: fallback run EMD trajectory diverges\n");
    return 1;
  }
  std::printf("\nfallback run (threshold 0): %zu fallback full scans, "
              "%zu delta updates\n",
              fb.stats.fallback_full_scans, fb.stats.delta_updates);
  if (fb.stats.fallback_full_scans == 0) {
    std::fprintf(stderr, "FATAL: fallback path was never exercised\n");
    return 1;
  }

  // Dirty-threshold sweep, one task per dataset. The threshold trades
  // journal folds (cheap when few rows moved) against the pooled full scan
  // (cheaper once most of the table is dirty); the seed value 0.35 was a
  // guess. The sweep grounds the per-dataset defaults exported by
  // bench_util.h (DefaultDetectionDirtyThreshold) — and, because the
  // ErgCache value index follows the identical journal/fallback contract,
  // the erg_dirty_threshold default reuses the same conclusion.
  constexpr double kThresholds[] = {0.05, 0.15, 0.25, 0.35, 0.50, 0.75};
  struct SweepPoint {
    std::string dataset;
    double threshold;
    double tail_detect;  // mean detect seconds after iteration 1
    size_t fallback_full_scans;
    size_t delta_updates;
  };
  std::vector<SweepPoint> sweep;
  struct SweepPick {
    std::string dataset;
    double threshold;
    double tail_detect;
  };
  std::vector<SweepPick> picks;
  std::printf("\n=== dirty-threshold sweep ===\n");
  std::printf("%4s %10s %12s %10s %7s\n", "data", "threshold", "tail_detect",
              "fallbacks", "deltas");
  for (const char* ds : {"D1", "D2", "D3"}) {
    DirtyDataset sweep_data =
        MakeDataset(ds, full ? 0 : DefaultEntities(ds));
    BenchTask sweep_task = TasksFor(ds).front();
    IterationTimes sweep_ref =
        RunSession(sweep_data, sweep_task, DetectOptions(1, 0.35),
                   /*reference=*/true);
    SweepPick pick{ds, kThresholds[0], 0.0};
    bool first = true;
    for (double threshold : kThresholds) {
      IterationTimes t =
          RunSession(sweep_data, sweep_task, DetectOptions(1, threshold));
      if (t.emd != sweep_ref.emd) {
        std::fprintf(stderr,
                     "FATAL: %s sweep at threshold %.2f diverges from the "
                     "reference\n",
                     ds, threshold);
        return 1;
      }
      double tail = TailMean(t.detect);
      sweep.push_back({ds, threshold, tail, t.stats.fallback_full_scans,
                       t.stats.delta_updates});
      if (first || tail < pick.tail_detect) {
        pick = {ds, threshold, tail};
        first = false;
      }
      std::printf("%4s %10.2f %12.4f %10zu %7zu\n", ds, threshold, tail,
                  t.stats.fallback_full_scans, t.stats.delta_updates);
    }
    picks.push_back(pick);
    std::printf("  -> %s best threshold %.2f (%.4fs tail detect)\n", ds,
                pick.threshold, pick.tail_detect);
  }

  JsonWriter json = JsonWriter::Pretty();
  json.BeginObject();
  json.Key("bench");
  json.String("detect_scaling");
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
  json.Key("detect_speedup_after_iter1");
  json.Number(detect_speedup);
  json.Key("train_speedup_after_iter1");
  json.Number(train_speedup);
  json.Key("generate_speedup_after_iter1");
  json.Number(generate_speedup);
  json.Key("delta_updates");
  json.Int(static_cast<int64_t>(inc.stats.delta_updates));
  json.Key("full_scans");
  json.Int(static_cast<int64_t>(inc.stats.full_scans));
  json.Key("fallback_full_scans_at_zero_threshold");
  json.Int(static_cast<int64_t>(fb.stats.fallback_full_scans));
  json.Key("iterations");
  json.BeginArray();
  for (size_t i = 0; i < kBudget; ++i) {
    json.BeginObject();
    json.Key("iteration");
    json.Int(static_cast<int64_t>(i + 1));
    json.Key("detect_full");
    json.Number(ref.detect[i]);
    json.Key("detect_incremental");
    json.Number(inc.detect[i]);
    json.Key("train_full");
    json.Number(ref.train[i]);
    json.Key("train_incremental");
    json.Number(inc.train[i]);
    json.Key("generate_full");
    json.Number(ref.generate[i]);
    json.Key("generate_incremental");
    json.Number(inc.generate[i]);
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
    json.Key("iter1_detect_seconds");
    json.Number(p.first_detect);
    json.Key("iter1_speedup");
    json.Number(p.first_detect > 0 ? curve.front().first_detect / p.first_detect
                                   : 0.0);
    json.Key("total_detect_seconds");
    json.Number(p.total_detect);
    json.EndObject();
  }
  json.EndArray();
  json.Key("threshold_sweep");
  json.BeginArray();
  for (const SweepPoint& p : sweep) {
    json.BeginObject();
    json.Key("dataset");
    json.String(p.dataset);
    json.Key("threshold");
    json.Number(p.threshold);
    json.Key("tail_detect_seconds");
    json.Number(p.tail_detect);
    json.Key("fallback_full_scans");
    json.Int(static_cast<int64_t>(p.fallback_full_scans));
    json.Key("delta_updates");
    json.Int(static_cast<int64_t>(p.delta_updates));
    json.EndObject();
  }
  json.EndArray();
  json.Key("recommended_thresholds");
  json.BeginObject();
  for (const SweepPick& p : picks) {
    json.Key(p.dataset);
    json.Number(p.threshold);
  }
  json.EndObject();
  json.EndObject();

  std::ofstream out("BENCH_detect_scaling.json");
  out << json.TakeString() << "\n";
  std::printf("\nwrote BENCH_detect_scaling.json (EMD trajectories "
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
