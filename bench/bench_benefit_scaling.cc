// Benefit-estimation scaling: wall time of EstimateBenefits over a real
// session ERG at 1/2/4/8 worker threads, both ways it renders — full
// recompute per candidate (no engine, the reference pipeline's benefit
// stage) and the provenance-indexed incremental path (a prepared
// BenefitEngine). Fig. 18 shows benefit estimation dominating machine time
// at scale, so this is the perf trajectory we track from PR 1 onward;
// results land in BENCH_benefit_scaling.json next to the human-readable
// table. The run also re-verifies the determinism contract: the warm-up
// iteration publishes the same benefits through the reference pipeline
// (ReferencePart::kBenefit, tests/support), and every (thread count,
// engine) pair must produce bit-identical edge benefits.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json_writer.h"
#include "core/benefit_model.h"
#include "core/pipeline.h"
#include "support/reference_pipeline.h"

namespace visclean {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<double> EdgeBenefits(const Erg& erg) {
  std::vector<double> benefits;
  benefits.reserve(erg.num_edges());
  for (size_t e = 0; e < erg.num_edges(); ++e) {
    benefits.push_back(erg.edge(e).benefit);
  }
  return benefits;
}

struct SeriesPoint {
  size_t threads = 0;
  double full_seconds = 0.0;
  double inc_seconds = 0.0;
  size_t renders = 0;
  size_t delta_evals = 0;
  size_t full_evals = 0;
};

int Run(bool full) {
  // Fig. 17-scale publications workload: one warm-up iteration of the Q1
  // session yields the ERG whose benefits the loop re-estimates below.
  DirtyDataset data = MakeDataset("D1", full ? 0 : DefaultEntities("D1"));
  BenchTask task = TableVTasks().front();  // Q1
  VisCleanSession session(&data, MustParse(task.vql), PaperSessionOptions());
  if (!session.Initialize().ok() || !session.RunIteration().ok()) {
    std::fprintf(stderr, "warm-up iteration failed\n");
    return 1;
  }
  VisCleanSession reference(&data, MustParse(task.vql), PaperSessionOptions());
  UseReferenceStages(reference, ReferencePart::kBenefit);
  if (!reference.Initialize().ok() || !reference.RunIteration().ok()) {
    std::fprintf(stderr, "reference warm-up iteration failed\n");
    return 1;
  }
  if (EdgeBenefits(reference.erg()) != EdgeBenefits(session.erg()) ||
      reference.context().cqg.Fingerprint() !=
          session.context().cqg.Fingerprint()) {
    std::fprintf(stderr,
                 "FATAL: warm-up benefits diverge from the reference "
                 "pipeline\n");
    return 1;
  }
  BenefitOptions options;
  options.x_column = XColumnOrNoColumn(session.context());

  // The incremental engine is prepared once against the post-warm-up table
  // (exactly what BenefitStage does per iteration) and shared by every
  // timed call: the baseline/provenance are immutable during estimation.
  BenefitEngine engine;
  Table engine_table = session.table().Clone();
  engine.Prepare(session.context().query, &engine_table);

  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== Benefit-estimation scaling (Q1, %zu live rows, %zu ERG "
              "edges, %zu cores, incremental %s) ===\n\n",
              session.table().num_live_rows(), session.erg().num_edges(),
              cores, engine.incremental_ready() ? "ready" : "UNAVAILABLE");
  if (cores == 1) {
    std::printf("NOTE: single-core machine — expect speedup ~1.0x; this run "
                "only tracks overhead + determinism.\n\n");
  }
  std::printf("%8s %12s %9s %12s %11s %9s\n", "threads", "full_sec",
              "speedup", "incr_sec", "incr_gain", "renders");

  constexpr int kReps = 3;
  std::vector<double> baseline_benefits;
  std::vector<SeriesPoint> series;

  for (size_t threads : {1, 2, 4, 8}) {
    options.threads = threads;
    SeriesPoint point;
    point.threads = threads;

    for (int mode = 0; mode < 2; ++mode) {
      const bool incremental = mode == 1;
      BenefitStats stats;
      options.engine = incremental ? &engine : nullptr;
      options.stats = incremental ? &stats : nullptr;
      double best = 0.0;
      size_t renders = 0;
      Erg erg = session.erg();
      for (int rep = 0; rep < kReps; ++rep) {
        Table table = session.table().Clone();
        erg = session.erg();
        auto start = std::chrono::steady_clock::now();
        renders = EstimateBenefits(session.context().query, &table, &erg,
                                   options);
        double elapsed = Seconds(start);
        if (rep == 0 || elapsed < best) best = elapsed;
      }
      std::vector<double> benefits = EdgeBenefits(erg);
      if (threads == 1 && !incremental) {
        baseline_benefits = benefits;
      } else if (benefits != baseline_benefits) {
        std::fprintf(stderr,
                     "FATAL: %zu-thread %s benefits diverge from serial "
                     "full recompute\n",
                     threads, incremental ? "incremental" : "full");
        return 1;
      }
      if (incremental) {
        point.inc_seconds = best;
        point.delta_evals = stats.delta_evals / kReps;
        point.full_evals = stats.full_evals / kReps;
      } else {
        point.full_seconds = best;
        point.renders = renders;
      }
    }
    series.push_back(point);
    std::printf("%8zu %12.4f %8.2fx %12.4f %10.2fx %9zu\n", point.threads,
                point.full_seconds,
                series.front().full_seconds / point.full_seconds,
                point.inc_seconds, point.full_seconds / point.inc_seconds,
                point.renders);
  }

  // Headline number: serial incremental vs serial full recompute — the
  // per-candidate dirty-group re-aggregation payoff, no threading involved.
  const double incremental_speedup =
      series.front().full_seconds / series.front().inc_seconds;

  JsonWriter json = JsonWriter::Pretty();
  json.BeginObject();
  json.Key("bench");
  json.String("benefit_scaling");
  json.Key("dataset");
  json.String("D1");
  json.Key("erg_edges");
  json.Int(static_cast<int64_t>(session.erg().num_edges()));
  json.Key("live_rows");
  json.Int(static_cast<int64_t>(session.table().num_live_rows()));
  json.Key("reps");
  json.Int(kReps);
  json.Key("hardware_cores");
  json.Int(static_cast<int64_t>(cores));
  json.Key("incremental_speedup");
  json.Number(incremental_speedup);
  json.Key("series");
  json.BeginArray();
  for (const SeriesPoint& p : series) {
    json.BeginObject();
    json.Key("threads");
    json.Int(static_cast<int64_t>(p.threads));
    json.Key("seconds");
    json.Number(p.full_seconds);
    json.Key("speedup");
    json.Number(series.front().full_seconds / p.full_seconds);
    json.Key("seconds_incremental");
    json.Number(p.inc_seconds);
    json.Key("incremental_speedup");
    json.Number(p.full_seconds / p.inc_seconds);
    json.Key("delta_evals");
    json.Int(static_cast<int64_t>(p.delta_evals));
    json.Key("full_evals");
    json.Int(static_cast<int64_t>(p.full_evals));
    json.Key("renders");
    json.Int(static_cast<int64_t>(p.renders));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out("BENCH_benefit_scaling.json");
  out << json.TakeString() << "\n";
  std::printf("\nserial incremental speedup over full recompute: %.2fx\n",
              incremental_speedup);
  std::printf("wrote BENCH_benefit_scaling.json (all thread counts and both "
              "render paths bit-identical to serial full recompute)\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace visclean

int main(int argc, char** argv) {
  bool full = argc > 1 && std::string(argv[1]) == "--full";
  return visclean::bench::Run(full);
}
