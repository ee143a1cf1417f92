// Serving-layer concurrency benchmark: N simulated users clean in parallel
// through one SessionManager, and the aggregate throughput is compared
// against replaying the same N sessions one at a time.
//
// The model. Each round of a session is machine compute (Step + Answer)
// plus user think time — the seconds the human spends on the composite
// question, taken from the UserCostModel over the question's shape and
// scaled down to milliseconds of wall time (--think-ms-per-s). A serial
// replay pays compute and think strictly back to back; the serving layer
// overlaps one user's think time with everyone else's compute, which is
// where its throughput comes from (the machine here may well have a single
// core — compute itself does not parallelize, idle time does).
//
// Three gates, checked at exit (non-zero on violation):
//   * zero failed requests across the concurrent run;
//   * every concurrent session's final table is bit-identical to its serial
//     replay (verified through the snapshot codec, so the export path is
//     exercised too);
//   * aggregate throughput at 8 driver threads >= 4x the serial replay
//     (>= 1x under --smoke, which also shrinks the workload for CI).
//
// After the gated phase, a fixed-core-budget fleet sweep (8 -> 64 sessions
// on the same pool width, no think-time sleeping) records how aggregate
// rounds/s scales with contention.
//
// Results land in BENCH_serve_concurrency.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json_writer.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace visclean {
namespace bench {
namespace {

struct BenchConfig {
  size_t sessions = 16;
  size_t driver_threads = 8;
  size_t budget = 3;
  size_t entities = 120;
  size_t pool_threads = 2;
  double think_ms_per_modeled_second = 15.0;
  double min_speedup = 4.0;
  bool smoke = false;
  /// Fleet sizes for the fixed-core-budget sweep (pool_threads stays
  /// constant while the session count grows): aggregate rounds/s at each
  /// size.
  std::vector<size_t> sweep_sessions = {8, 16, 32, 64};
  size_t sweep_budget = 2;
};

/// One fleet size of the sweep: every session driven to completion with no
/// think-time sleeping (pure machine throughput).
struct SweepPoint {
  size_t sessions = 0;
  double wall_seconds = 0.0;
  double rounds_per_second = 0.0;
};

struct SessionSpec {
  std::string id;
  std::string dataset;
  std::string vql;
  SessionOptions options;
};

// The modeled seconds a user spends on the question Step handed back. Both
// the serial replay and the concurrent run price think time through this
// one function, so the comparison is apples to apples.
double ThinkSeconds(const PendingInteraction& question,
                    const UserCostModel& cost) {
  if (question.strategy == QuestionStrategy::kComposite) {
    return cost.CqgSeconds(question.cqg_edges, question.cqg_vertices);
  }
  return cost.SingleGroupSeconds(question.pool_questions, 0, 0, 0);
}

std::string TableFingerprint(const Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out += table.is_dead(r) ? 'D' : 'L';
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      out += table.at(r, c).ToDisplayString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted_ms.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

std::vector<SessionSpec> MakeSpecs(const BenchConfig& config) {
  // Sessions cycle through the Table V tasks of the three datasets, so the
  // mix exercises different queries, schemas, and cleaning dynamics.
  std::vector<SessionSpec> specs;
  std::vector<BenchTask> tasks = TableVTasks();
  for (size_t i = 0; i < config.sessions; ++i) {
    const BenchTask& task = tasks[i % tasks.size()];
    SessionSpec spec;
    spec.id = "user" + std::to_string(i);
    spec.dataset = task.dataset;
    spec.vql = task.vql;
    spec.options = PaperSessionOptions("gss", task.dataset);
    spec.options.k = 6;
    spec.options.budget = config.budget;
    spec.options.forest.num_trees = 8;
    spec.options.seed = 1000 + i;
    specs.push_back(std::move(spec));
  }
  return specs;
}

// Drives one fleet size of the sweep through a fresh SessionManager on the
// same fixed pool budget. Rounds run back to back — the sweep measures how
// machine throughput scales with fleet size, not think-time overlap (the
// main phase covers that).
SweepPoint RunFleet(const BenchConfig& config, size_t fleet,
                    DirtyDataset* d1, DirtyDataset* d2, DirtyDataset* d3) {
  using Clock = std::chrono::steady_clock;
  auto oracle_of = [&](const std::string& name) {
    return name == "D1" ? d1 : name == "D2" ? d2 : d3;
  };
  BenchConfig fleet_config = config;
  fleet_config.sessions = fleet;
  fleet_config.budget = config.sweep_budget;
  std::vector<SessionSpec> specs = MakeSpecs(fleet_config);

  ServeOptions serve;
  serve.max_resident_sessions = fleet;
  serve.max_sessions = fleet;
  serve.max_inflight_requests = config.driver_threads + 2;
  serve.max_queued_per_session = 2;
  serve.snapshot_dir = "bench_serve_snapshots.tmp";
  serve.pool_threads = config.pool_threads;
  SessionManager manager(serve);
  VC_CHECK(manager.RegisterDataset(d1).ok(), "sweep RegisterDataset D1");
  VC_CHECK(manager.RegisterDataset(d2).ok(), "sweep RegisterDataset D2");
  VC_CHECK(manager.RegisterDataset(d3).ok(), "sweep RegisterDataset D3");
  for (const SessionSpec& spec : specs) {
    Result<SessionInfo> created = manager.Create(
        spec.id, oracle_of(spec.dataset)->name, spec.vql, spec.options);
    VC_CHECK(created.ok(), "sweep Create failed");
  }

  std::atomic<uint64_t> failed{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> drivers;
  for (size_t t = 0; t < config.driver_threads; ++t) {
    drivers.emplace_back([&, t] {
      for (size_t round = 0; round < config.sweep_budget; ++round) {
        for (size_t i = t; i < specs.size(); i += config.driver_threads) {
          Result<PendingInteraction> question = manager.Step(specs[i].id);
          if (!question.ok()) {
            failed.fetch_add(1);
            continue;
          }
          Result<IterationTrace> trace = manager.Answer(specs[i].id);
          if (!trace.ok()) failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& d : drivers) d.join();

  SweepPoint point;
  point.sessions = fleet;
  point.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  point.rounds_per_second =
      static_cast<double>(fleet * config.sweep_budget) / point.wall_seconds;
  VC_CHECK(failed.load() == 0, "sweep round failed");
  return point;
}

}  // namespace

int Run(const BenchConfig& config) {
  using Clock = std::chrono::steady_clock;
  const double think_scale = config.think_ms_per_modeled_second / 1000.0;

  DirtyDataset d1 = MakeDataset("D1", config.entities);
  DirtyDataset d2 = MakeDataset("D2", config.entities);
  DirtyDataset d3 = MakeDataset("D3", config.entities);
  auto oracle_of = [&](const std::string& name) {
    return name == "D1" ? &d1 : name == "D2" ? &d2 : &d3;
  };
  std::vector<SessionSpec> specs = MakeSpecs(config);

  // ---- Serial replay: one session at a time, compute measured, think
  // time accounted at the same rate the concurrent run will sleep it.
  std::printf("serial replay of %zu sessions x %zu rounds...\n",
              specs.size(), config.budget);
  std::vector<std::string> serial_tables;
  std::vector<double> serial_emd;
  double serial_compute_seconds = 0.0;
  double serial_think_seconds = 0.0;
  for (const SessionSpec& spec : specs) {
    VisCleanSession session(oracle_of(spec.dataset),
                            MustParse(spec.vql.c_str()), spec.options);
    Clock::time_point start = Clock::now();
    Status init = session.Initialize();
    VC_CHECK(init.ok(), "serial Initialize failed");
    double emd = 0.0;
    while (!session.finished()) {
      Result<PendingInteraction> question = session.PlanIteration();
      VC_CHECK(question.ok(), "serial PlanIteration failed");
      serial_think_seconds += ThinkSeconds(question.value(), {}) * think_scale;
      Result<IterationTrace> trace = session.ResolveIteration();
      VC_CHECK(trace.ok(), "serial ResolveIteration failed");
      emd = trace.value().emd;
    }
    serial_compute_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    serial_tables.push_back(TableFingerprint(session.table()));
    serial_emd.push_back(emd);
  }
  const double serial_wall_seconds =
      serial_compute_seconds + serial_think_seconds;

  // ---- Concurrent run: the same workload through a SessionManager, with
  // the think time actually slept while other sessions use the machine.
  std::printf("concurrent run: %zu driver threads over one manager...\n",
              config.driver_threads);
  ServeOptions serve;
  serve.max_resident_sessions = config.sessions;  // eviction off the hot path
  serve.max_sessions = config.sessions;
  serve.max_inflight_requests = config.driver_threads + 2;
  serve.max_queued_per_session = 2;
  serve.snapshot_dir = "bench_serve_snapshots.tmp";
  serve.pool_threads = config.pool_threads;
  std::filesystem::create_directories(serve.snapshot_dir);
  SessionManager manager(serve);
  VC_CHECK(manager.RegisterDataset(&d1).ok(), "RegisterDataset D1");
  VC_CHECK(manager.RegisterDataset(&d2).ok(), "RegisterDataset D2");
  VC_CHECK(manager.RegisterDataset(&d3).ok(), "RegisterDataset D3");
  for (const SessionSpec& spec : specs) {
    Result<SessionInfo> created = manager.Create(
        spec.id, oracle_of(spec.dataset)->name, spec.vql, spec.options);
    VC_CHECK(created.ok(), "Create failed");
  }

  std::atomic<uint64_t> failed_requests{0};
  std::vector<std::vector<double>> step_ms_per_thread(config.driver_threads);
  std::vector<std::vector<double>> answer_ms_per_thread(config.driver_threads);

  Clock::time_point concurrent_start = Clock::now();
  std::vector<std::thread> drivers;
  for (size_t t = 0; t < config.driver_threads; ++t) {
    drivers.emplace_back([&, t] {
      // Each driver owns a slice of the sessions and multiplexes them:
      // fire every Step, then answer each question once its user's think
      // time has elapsed. One thread parking N users mid-question is
      // exactly the serving model from serve/session_manager.h.
      std::vector<size_t> own;
      for (size_t i = t; i < specs.size(); i += config.driver_threads) {
        own.push_back(i);
      }
      for (size_t round = 0; round < config.budget; ++round) {
        std::vector<Clock::time_point> ready(own.size());
        for (size_t k = 0; k < own.size(); ++k) {
          Clock::time_point before = Clock::now();
          Result<PendingInteraction> question = manager.Step(specs[own[k]].id);
          Clock::time_point after = Clock::now();
          if (!question.ok()) {
            failed_requests.fetch_add(1);
            ready[k] = after;
            continue;
          }
          step_ms_per_thread[t].push_back(
              std::chrono::duration<double, std::milli>(after - before)
                  .count());
          ready[k] = after + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     ThinkSeconds(question.value(), {}) *
                                     think_scale));
        }
        for (size_t k = 0; k < own.size(); ++k) {
          std::this_thread::sleep_until(ready[k]);
          Clock::time_point before = Clock::now();
          Result<IterationTrace> trace = manager.Answer(specs[own[k]].id);
          Clock::time_point after = Clock::now();
          if (!trace.ok()) {
            failed_requests.fetch_add(1);
            continue;
          }
          answer_ms_per_thread[t].push_back(
              std::chrono::duration<double, std::milli>(after - before)
                  .count());
        }
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  const double concurrent_wall_seconds =
      std::chrono::duration<double>(Clock::now() - concurrent_start).count();

  // ---- Correctness: every concurrent session's final table must be
  // bit-identical to its serial replay. Read back through the snapshot
  // codec so the export path is exercised under real state.
  size_t table_mismatches = 0;
  double max_emd_delta = 0.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    std::string path = "bench_serve_snapshots.tmp/" + specs[i].id + ".export";
    Status exported = manager.Snapshot(specs[i].id, path);
    VC_CHECK(exported.ok(), "Snapshot export failed");
    Result<SessionSnapshotState> state = ReadSnapshotFile(path);
    VC_CHECK(state.ok(), "Snapshot read-back failed");
    if (TableFingerprint(state.value().table) != serial_tables[i]) {
      ++table_mismatches;
      std::printf("  TABLE MISMATCH: %s\n", specs[i].id.c_str());
    }
    Result<SessionInfo> info = manager.GetStatus(specs[i].id);
    VC_CHECK(info.ok(), "GetStatus failed");
    max_emd_delta =
        std::max(max_emd_delta, std::abs(info.value().emd - serial_emd[i]));
  }

  // ---- Fixed-core-budget fleet sweep: same pool width, growing session
  // count; aggregate rounds/s under the contention that produces.
  std::vector<SweepPoint> sweep;
  for (size_t fleet : config.sweep_sessions) {
    std::printf("fleet sweep: %zu sessions x %zu rounds...\n", fleet,
                config.sweep_budget);
    sweep.push_back(RunFleet(config, fleet, &d1, &d2, &d3));
    const SweepPoint& point = sweep.back();
    std::printf("  %2zu sessions: %.2f rounds/s\n", point.sessions,
                point.rounds_per_second);
  }

  // ---- Aggregate metrics.
  std::vector<double> step_ms;
  std::vector<double> answer_ms;
  for (size_t t = 0; t < config.driver_threads; ++t) {
    step_ms.insert(step_ms.end(), step_ms_per_thread[t].begin(),
                   step_ms_per_thread[t].end());
    answer_ms.insert(answer_ms.end(), answer_ms_per_thread[t].begin(),
                     answer_ms_per_thread[t].end());
  }
  std::sort(step_ms.begin(), step_ms.end());
  std::sort(answer_ms.begin(), answer_ms.end());
  const double total_rounds =
      static_cast<double>(specs.size() * config.budget);
  const double speedup = concurrent_wall_seconds > 0
                             ? serial_wall_seconds / concurrent_wall_seconds
                             : 0.0;
  ServeStats stats = manager.stats();
  // Server-side latency histograms: what the manager itself measured for the
  // same requests, net of client-side clock overhead, plus the queue-wait
  // component the client-side numbers fold in.
  obs::MetricsSnapshot server_snapshot = manager.registry().Snapshot();

  std::printf("\nserial:     %.2fs wall (%.2fs compute + %.2fs think)\n",
              serial_wall_seconds, serial_compute_seconds,
              serial_think_seconds);
  std::printf("concurrent: %.2fs wall, %.2f rounds/s\n",
              concurrent_wall_seconds, total_rounds / concurrent_wall_seconds);
  std::printf("speedup:    %.2fx (gate >= %.1fx)\n", speedup,
              config.min_speedup);
  std::printf("step latency ms   p50=%.1f p90=%.1f p99=%.1f\n",
              Percentile(step_ms, 0.5), Percentile(step_ms, 0.9),
              Percentile(step_ms, 0.99));
  std::printf("answer latency ms p50=%.1f p90=%.1f p99=%.1f\n",
              Percentile(answer_ms, 0.5), Percentile(answer_ms, 0.9),
              Percentile(answer_ms, 0.99));
  if (obs::kObsCompiled) {
    PrintServerHistogramMs("step latency      ", server_snapshot,
                           "serve.step_ns");
    PrintServerHistogramMs("answer latency    ", server_snapshot,
                           "serve.answer_ns");
    PrintServerHistogramMs("queue wait        ", server_snapshot,
                           "serve.queue_wait_ns");
  }
  std::printf("failed requests: %llu, table mismatches: %zu, "
              "max |emd delta| = %.3g\n",
              (unsigned long long)failed_requests.load(), table_mismatches,
              max_emd_delta);

  JsonWriter json = JsonWriter::Pretty();
  json.BeginObject();
  json.Key("bench");
  json.String("serve_concurrency");
  json.Key("smoke");
  json.Bool(config.smoke);
  json.Key("sessions");
  json.Int(static_cast<int64_t>(config.sessions));
  json.Key("driver_threads");
  json.Int(static_cast<int64_t>(config.driver_threads));
  json.Key("budget");
  json.Int(static_cast<int64_t>(config.budget));
  json.Key("entities_per_dataset");
  json.Int(static_cast<int64_t>(config.entities));
  json.Key("pool_threads");
  json.Int(static_cast<int64_t>(config.pool_threads));
  json.Key("hardware_cores");
  json.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("think_ms_per_modeled_second");
  json.Number(config.think_ms_per_modeled_second);
  json.Key("serial_wall_seconds");
  json.Number(serial_wall_seconds);
  json.Key("serial_compute_seconds");
  json.Number(serial_compute_seconds);
  json.Key("serial_think_seconds");
  json.Number(serial_think_seconds);
  json.Key("concurrent_wall_seconds");
  json.Number(concurrent_wall_seconds);
  json.Key("throughput_rounds_per_second");
  json.Number(total_rounds / concurrent_wall_seconds);
  json.Key("speedup_vs_serial");
  json.Number(speedup);
  json.Key("speedup_gate");
  json.Number(config.min_speedup);
  json.Key("failed_requests");
  json.Int(static_cast<int64_t>(failed_requests.load()));
  json.Key("table_mismatches");
  json.Int(static_cast<int64_t>(table_mismatches));
  json.Key("max_emd_delta");
  json.Number(max_emd_delta);
  json.Key("step_latency_ms");
  json.BeginObject();
  json.Key("p50");
  json.Number(Percentile(step_ms, 0.5));
  json.Key("p90");
  json.Number(Percentile(step_ms, 0.9));
  json.Key("p99");
  json.Number(Percentile(step_ms, 0.99));
  json.Key("max");
  json.Number(step_ms.empty() ? 0.0 : step_ms.back());
  json.EndObject();
  json.Key("answer_latency_ms");
  json.BeginObject();
  json.Key("p50");
  json.Number(Percentile(answer_ms, 0.5));
  json.Key("p90");
  json.Number(Percentile(answer_ms, 0.9));
  json.Key("p99");
  json.Number(Percentile(answer_ms, 0.99));
  json.Key("max");
  json.Number(answer_ms.empty() ? 0.0 : answer_ms.back());
  json.EndObject();
  json.Key("obs_compiled");
  json.Bool(obs::kObsCompiled);
  json.Key("server_histograms");
  json.BeginObject();
  WriteServerHistogramMs(json, "step_ms", server_snapshot, "serve.step_ns");
  WriteServerHistogramMs(json, "answer_ms", server_snapshot,
                         "serve.answer_ns");
  WriteServerHistogramMs(json, "queue_wait_ms", server_snapshot,
                         "serve.queue_wait_ns");
  json.EndObject();
  json.Key("manager_stats");
  json.BeginObject();
  json.Key("steps");
  json.Int(static_cast<int64_t>(stats.steps));
  json.Key("answers");
  json.Int(static_cast<int64_t>(stats.answers));
  json.Key("snapshots");
  json.Int(static_cast<int64_t>(stats.snapshots));
  json.Key("evictions");
  json.Int(static_cast<int64_t>(stats.evictions));
  json.Key("restores_from_disk");
  json.Int(static_cast<int64_t>(stats.restores_from_disk));
  json.Key("rejected_inflight");
  json.Int(static_cast<int64_t>(stats.rejected_inflight));
  json.Key("rejected_session_queue");
  json.Int(static_cast<int64_t>(stats.rejected_session_queue));
  json.EndObject();
  json.Key("fleet_sweep");
  json.BeginArray();
  for (const SweepPoint& point : sweep) {
    json.BeginObject();
    json.Key("sessions");
    json.Int(static_cast<int64_t>(point.sessions));
    json.Key("rounds");
    json.Int(static_cast<int64_t>(point.sessions * config.sweep_budget));
    json.Key("wall_seconds");
    json.Number(point.wall_seconds);
    json.Key("rounds_per_second");
    json.Number(point.rounds_per_second);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out("BENCH_serve_concurrency.json");
  out << json.TakeString() << "\n";
  std::printf("wrote BENCH_serve_concurrency.json\n");

  // Scratch snapshots are an implementation detail of the correctness check;
  // leaving them behind pollutes repeated runs and the CI workspace.
  std::error_code scratch_ec;
  std::filesystem::remove_all("bench_serve_snapshots.tmp", scratch_ec);

  bool ok = failed_requests.load() == 0 && table_mismatches == 0 &&
            speedup >= config.min_speedup;
  if (!ok) {
    std::printf("GATE FAILED\n");
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}

}  // namespace bench
}  // namespace visclean

int main(int argc, char** argv) {
  visclean::bench::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() { return std::atof(argv[++i]); };
    if (arg == "--smoke") {
      // CI-sized: small datasets, short sessions, fast think time; the
      // speedup gate relaxes to "not slower than serial".
      config.smoke = true;
      config.sessions = 8;
      config.budget = 2;
      config.entities = 60;
      config.think_ms_per_modeled_second = 8.0;
      config.min_speedup = 1.0;
      config.sweep_sessions = {4, 8};
    } else if (arg == "--sessions" && i + 1 < argc) {
      config.sessions = static_cast<size_t>(value());
    } else if (arg == "--threads" && i + 1 < argc) {
      config.driver_threads = static_cast<size_t>(value());
    } else if (arg == "--budget" && i + 1 < argc) {
      config.budget = static_cast<size_t>(value());
    } else if (arg == "--entities" && i + 1 < argc) {
      config.entities = static_cast<size_t>(value());
    } else if (arg == "--pool-threads" && i + 1 < argc) {
      config.pool_threads = static_cast<size_t>(value());
    } else if (arg == "--think-ms-per-s" && i + 1 < argc) {
      config.think_ms_per_modeled_second = value();
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      config.min_speedup = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--sessions N] [--threads N] "
                   "[--budget N] [--entities N] [--pool-threads N] "
                   "[--think-ms-per-s X] [--min-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }
  return visclean::bench::Run(config);
}
