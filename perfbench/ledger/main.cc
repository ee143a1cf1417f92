// perfbench_ledger: the repository's served-fleet benchmark.
//
//   perfbench_ledger --workload <solo-d1|fleet-mixed|churn> --seed <n>
//                    --seconds <s> --trace <0|1>
//                    [--toy] [--corrupt-round] [--scratch <dir>]
//                    [--commit <id>] [--source-digest <hex>]
//
// A run sets the fleet up several times (setup_s is the median), drives it
// closed loop for --seconds, replays every served session spec in process
// and checks the served trajectories bit for bit. --trace 0 reports the
// end-to-end metrics as clients see them with no decorators installed.
// --trace 1 installs the bench-owned decorators, switches them on and off
// in short slices on one fleet (trace.overhead_frac is their A/B), replays
// sessions one at a time for uncontended pipeline timings, and reports the
// per-layer ledger. README.md lists every metric with the layer it reads,
// the end-to-end metric it should move and the workload that shows it.
//
// Output: human-readable lines, then one {"report": ...} line with
// provenance, per-request-type accounting, sample counts and every metric
// computed, then the result line {"correct", "attempted", "failed",
// "metrics"}. Exit code 0 when the outputs check, 1 when they do not (the
// result line is still printed), 2 on a usage or set-up error (no result).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "harness.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool toy = false;
  bool corrupt_round = false;
  std::string scratch;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--workload" && value(&v)) {
      args->workload = v;
      have_workload = true;
    } else if (flag == "--seed" && value(&v)) {
      args->seed = std::stoull(v);
    } else if (flag == "--seconds" && value(&v)) {
      args->seconds = std::stod(v);
    } else if (flag == "--trace" && value(&v)) {
      args->trace = std::stoi(v);
    } else if (flag == "--scratch" && value(&v)) {
      args->scratch = v;
    } else if (flag == "--commit" && value(&v)) {
      args->commit = v;
    } else if (flag == "--source-digest" && value(&v)) {
      args->source_digest = v;
    } else if (flag == "--toy") {
      args->toy = true;
    } else if (flag == "--corrupt-round") {
      args->corrupt_round = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return have_workload && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// ---------------------------------------------------------------- stats

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The highest of p99/p95/p90 that leaves at least ten samples above it
/// (nearest-rank). With fewer than 100 samples none does; p90 is reported
/// and flagged.
struct Tail {
  double value = 0.0;
  int percentile = 90;
  size_t n = 0;
  size_t beyond = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.n = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  for (int p : {99, 95, 90}) {
    size_t rank = static_cast<size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    tail.percentile = p;
    tail.value = v[rank - 1];
    tail.beyond = v.size() - rank;
    if (tail.beyond >= 10) break;
  }
  return tail;
}

// ---------------------------------------------------------------- output

/// Ordered metric set with units, plus the sample count behind each
/// percentile and the percentile behind each tail (provenance).
class MetricSet {
 public:
  void Put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  void Samples(const std::string& name, size_t n) { samples_[name] = n; }
  void PutTail(const std::string& name, const Tail& tail) {
    Put(name, tail.value, "ms");
    samples_[name] = tail.n;
    tails_[name] = tail;
  }
  double Get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }

  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }
  const std::map<std::string, size_t>& samples() const { return samples_; }
  const std::map<std::string, Tail>& tails() const { return tails_; }

 private:
  std::vector<Item> items_;
  std::map<std::string, size_t> samples_;
  std::map<std::string, Tail> tails_;
};

std::string JsonString(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const MetricSet& set,
                        const std::vector<std::string>& names) {
  std::string out = "{";
  bool first = true;
  for (const auto& m : set.items()) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), m.name) == names.end()) {
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Aggregate jiffies from the first line of /proc/stat:
/// {busy, steal, iowait, all}.
std::array<uint64_t, 4> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  // user nice system idle iowait irq softirq steal
  uint64_t busy = v[0] + v[1] + v[2] + v[5] + v[6];
  uint64_t all = busy + v[3] + v[4] + v[7];
  return {busy, v[7], v[4], all};
}

/// Machine-speed reference for the provenance: median wall time of
/// generating D1 at 1000 entities, a fixed single-threaded computation. On a
/// shared VM the machine's speed can drift by 1.5x between runs without
/// showing as steal; this shows it.
double CpuReferenceMs() {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    int64_t t0 = NowNs();
    MakeDataset("D1", 1000);
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(ms);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- layers

/// Warm steps (rounds 2..B, by the iteration in the Step reply) and the
/// other request classes of one tier.
struct TierSpans {
  std::vector<double> step_warm, answer, create, close, migrate, export_ms,
      import_ms, export_kb;
};

TierSpans Split(const std::vector<Span>& spans, Tier tier) {
  TierSpans out;
  for (const Span& span : spans) {
    if (span.tier != tier || !span.ok) continue;
    double ms = static_cast<double>(span.dur_ns) / 1e6;
    switch (span.type) {
      case WireRequestType::kStep:
        if (span.iteration > 1) out.step_warm.push_back(ms);
        break;
      case WireRequestType::kAnswer:
        out.answer.push_back(ms);
        break;
      case WireRequestType::kCreate:
        out.create.push_back(ms);
        break;
      case WireRequestType::kClose:
        out.close.push_back(ms);
        break;
      case WireRequestType::kMigrateSession:
        out.migrate.push_back(ms);
        break;
      case WireRequestType::kExportState:
        out.export_ms.push_back(ms);
        out.export_kb.push_back(static_cast<double>(span.state_bytes) / 1024.0);
        break;
      case WireRequestType::kImportState:
        out.import_ms.push_back(ms);
        break;
      default:
        break;
    }
  }
  return out;
}

struct ClientSamples {
  std::vector<double> first, step, answer;
};

ClientSamples SelectSamples(const DriveOutcome& drive, bool traced_only,
                            bool untraced_only) {
  ClientSamples out;
  for (const DriverResult& d : drive.drivers) {
    for (const Sample& s : d.samples) {
      if (!s.ok || (traced_only && !s.traced) || (untraced_only && s.traced)) {
        continue;
      }
      if (s.op == Op::kStep) (s.first ? out.first : out.step).push_back(s.ms);
      if (s.op == Op::kAnswer) out.answer.push_back(s.ms);
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Traced against untraced slices of one run: per task, the ratio of the
/// two slices' median warm Step latency; reported is the median ratio - 1.
/// Comparing within a task keeps the slices' different task mixes out. The
/// first eighth of the run (every session starting cold at once) and the
/// tail after the deadline (connections finishing one by one) are left
/// out: both differ in load from the rest of the run.
double TracingOverhead(const DriveOutcome& drive) {
  std::map<int, std::vector<double>> traced, untraced;
  for (const DriverResult& d : drive.drivers) {
    for (const Sample& s : d.samples) {
      if (!s.ok || s.op != Op::kStep || s.first ||
          s.sent_ns < drive.start_ns + (drive.deadline_ns - drive.start_ns) / 8 ||
          s.sent_ns >= drive.deadline_ns) {
        continue;
      }
      (s.traced ? traced : untraced)[s.task_id].push_back(s.ms);
    }
  }
  std::vector<double> ratios;
  for (const auto& [task, t] : traced) {
    auto u = untraced.find(task);
    if (u != untraced.end()) ratios.push_back(Ratio(Median(t), Median(u->second)));
  }
  return ratios.empty() ? 0.0 : Median(ratios) - 1.0;
}

/// Self-test hook: flips the lowest bit of the first answered served EMD.
void CorruptOneRound(DriveOutcome& drive) {
  for (DriverResult& d : drive.drivers) {
    for (ServedSession& s : d.sessions) {
      if (s.rounds.empty() || !s.rounds[0].answered) continue;
      uint64_t bits;
      std::memcpy(&bits, &s.rounds[0].trace.emd, sizeof bits);
      bits ^= 1;
      std::memcpy(&s.rounds[0].trace.emd, &bits, sizeof bits);
      return;
    }
  }
}

/// Mean EMD over rounds 0..B of one replayed session.
double EmdArea(const ReplaySession& r) {
  std::vector<double> curve = {r.initial_emd};
  for (const ReplayRound& round : r.rounds) curve.push_back(round.trace.emd);
  return Mean(curve);
}

// ---------------------------------------------------------------- run

struct Setup {
  std::map<std::string, DirtyDataset> datasets;
  std::unique_ptr<Fleet> fleet;
  double generate_s = 0.0;
  double total_s = 0.0;
};

/// Dataset generation + registration + fleet start, until the first
/// request can be sent.
visclean::Status DoSetup(const Workload& workload, const std::string& scratch,
                         Ledger* ledger, Setup* out) {
  int64_t t0 = NowNs();
  for (const auto& [label, entities] : workload.entities) {
    out->datasets.emplace(label, MakeDataset(label, entities));
  }
  int64_t t1 = NowNs();
  std::vector<const DirtyDataset*> pointers;
  for (const auto& [label, data] : out->datasets) pointers.push_back(&data);
  out->fleet = std::make_unique<Fleet>();
  visclean::Status started =
      out->fleet->Start(workload, pointers, scratch, ledger);
  int64_t t2 = NowNs();
  out->generate_s = static_cast<double>(t1 - t0) / 1e9;
  out->total_s = static_cast<double>(t2 - t0) / 1e9;
  return started;
}

int Run(const Args& args) {
  Workload workload = MakeWorkload(args.workload, args.toy);
  if (workload.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s' (solo-d1, fleet-mixed, churn)\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  std::string scratch = args.scratch.empty()
                            ? ".bench_build/perfbench-scratch/run-" +
                                  std::to_string(getpid())
                            : args.scratch;
  std::filesystem::remove_all(scratch);
  SpecStream specs(workload, args.seed);

  // ---- set-up, repeated; the last one is measured.
  const size_t setup_reps = args.toy ? 2 : 9;
  std::vector<double> setup_s, generate_s;
  Ledger ledger;
  Setup setup;
  for (size_t rep = 0; rep < setup_reps; ++rep) {
    setup = Setup{};
    std::string dir = scratch + "/setup" + std::to_string(rep);
    visclean::Status started =
        DoSetup(workload, dir, traced ? &ledger : nullptr, &setup);
    if (!started.ok()) {
      std::fprintf(stderr, "fleet set-up failed: %s\n",
                   started.ToString().c_str());
      return 2;
    }
    setup_s.push_back(setup.total_s);
    generate_s.push_back(setup.generate_s);
    if (rep + 1 < setup_reps) {
      setup.fleet.reset();
      std::filesystem::remove_all(dir);
    }
  }
  Fleet& fleet = *setup.fleet;
  std::map<std::string, std::string> dataset_names;
  std::map<std::string, const DirtyDataset*> dataset_ptrs;
  for (const auto& [label, data] : setup.datasets) {
    dataset_names[label] = data.name;
    dataset_ptrs[label] = &data;
  }

  // ---- measured phase.
  const double cpu_ref_ms = CpuReferenceMs();
  const std::array<uint64_t, 4> cpu_before = CpuJiffies();
  DriveOutcome drive = Drive(fleet, workload, specs, dataset_names,
                             args.seconds, traced ? &ledger : nullptr);
  const std::array<uint64_t, 4> cpu_after = CpuJiffies();
  const double cpu_all = static_cast<double>(cpu_after[3] - cpu_before[3]);
  const double cpu_busy_frac =
      Ratio(static_cast<double>(cpu_after[0] - cpu_before[0]), cpu_all);
  const double cpu_steal_frac =
      Ratio(static_cast<double>(cpu_after[1] - cpu_before[1]), cpu_all);
  const double cpu_iowait_frac =
      Ratio(static_cast<double>(cpu_after[2] - cpu_before[2]), cpu_all);
  const double rss_mb = PeakRssMb();
  visclean::shard::RouterStats router = fleet.router().router_stats();
  visclean::ServeStats serve;
  using visclean::ServeStats;
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    ServeStats s = fleet.manager(i).stats();
    for (uint64_t ServeStats::*field :
         {&ServeStats::evictions, &ServeStats::restores_from_disk,
          &ServeStats::rejected_capacity, &ServeStats::rejected_inflight,
          &ServeStats::rejected_session_queue, &ServeStats::em_infer_batches,
          &ServeStats::em_infer_batch_items, &ServeStats::pair_feature_batches,
          &ServeStats::pair_feature_batch_items, &ServeStats::knn_batches,
          &ServeStats::knn_batch_items}) {
      serve.*field += s.*field;
    }
  }
  setup.fleet->Stop();
  std::vector<Span> spans = ledger.Take();

  // ---- replay and output check. Sessions 0..emd_sessions-1 are replayed
  // whether or not they were served: they define emd_auc.
  std::vector<const ServedSession*> served;
  std::set<size_t> spec_set;
  std::vector<size_t> fixed;
  for (size_t n = 0; n < workload.emd_sessions; ++n) {
    fixed.push_back(n);
    spec_set.insert(n);
  }
  for (DriverResult& d : drive.drivers) {
    for (ServedSession& s : d.sessions) {
      served.push_back(&s);
      spec_set.insert(s.spec);
    }
  }
  if (args.corrupt_round) CorruptOneRound(drive);
  std::vector<size_t> which(spec_set.begin(), spec_set.end());
  unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::map<size_t, ReplaySession> replay =
      Replay(specs, which, dataset_ptrs, 0, cores);
  std::map<size_t, ReplaySession> timed;
  if (traced) {
    // The core timings: the first two session cycles, one at a time.
    std::vector<size_t> two_cycles(
        fixed.begin(),
        fixed.begin() + std::min(fixed.size(), 2 * workload.tasks.size()));
    timed = Replay(specs, two_cycles, dataset_ptrs,
                   std::max<size_t>(1, workload.serve.pool_threads), 1);
  }
  std::vector<std::string> mismatch_details;
  size_t mismatches = CheckOutputs(served, replay, &mismatch_details);

  // ---- accounting.
  uint64_t attempted[kNumOps] = {}, failed[kNumOps] = {};
  size_t rounds = 0, sessions_done = 0;
  double rounds_per_s = 0.0, sessions_per_s = 0.0;
  for (const DriverResult& d : drive.drivers) {
    for (size_t k = 0; k < kNumOps; ++k) {
      attempted[k] += d.attempted[k];
      failed[k] += d.failed[k];
    }
    rounds += d.rounds;
    sessions_done += d.sessions_done;
    if (d.busy_s > 0) {
      rounds_per_s += static_cast<double>(d.rounds) / d.busy_s;
      sessions_per_s += static_cast<double>(d.sessions_done) / d.busy_s;
    }
  }
  for (size_t k = 0; k < kNumOps; ++k) {
    attempted[k] += drive.admin.attempted[k];
    failed[k] += drive.admin.failed[k];
  }
  uint64_t total_attempted = 0, total_failed = 0;
  for (size_t k = 0; k < kNumOps; ++k) {
    total_attempted += attempted[k];
    total_failed += failed[k];
  }
  bool replay_ok = !replay.empty();
  for (const auto& [index, r] : replay) replay_ok = replay_ok && r.ok;
  const bool correct = mismatches == 0 && replay_ok && sessions_done > 0 &&
                       drive.scrape_ok;

  // ---- end-to-end metrics (untraced requests only).
  MetricSet metrics;
  ClientSamples plain = SelectSamples(drive, false, traced);
  metrics.Put("setup_s", Median(setup_s), "s");
  metrics.Samples("setup_s", setup_s.size());
  metrics.Put("first_question_p50_ms", Median(plain.first), "ms");
  metrics.Samples("first_question_p50_ms", plain.first.size());
  metrics.Put("step_p50_ms", Median(plain.step), "ms");
  metrics.Samples("step_p50_ms", plain.step.size());
  metrics.PutTail("step_tail_ms", TailOf(plain.step));
  metrics.Put("answer_p50_ms", Median(plain.answer), "ms");
  metrics.Samples("answer_p50_ms", plain.answer.size());
  metrics.PutTail("answer_tail_ms", TailOf(plain.answer));
  metrics.Put("rounds_per_s", rounds_per_s, "1/s");
  metrics.Put("sessions_per_s", sessions_per_s, "1/s");
  metrics.Put("success_rate",
              1.0 - Ratio(static_cast<double>(total_failed),
                          static_cast<double>(total_attempted)),
              "ratio");
  std::vector<double> emd_per_spec;
  for (size_t n : fixed) {
    if (replay.at(n).ok) emd_per_spec.push_back(EmdArea(replay.at(n)));
  }
  metrics.Put("emd_auc", Mean(emd_per_spec), "emd");
  metrics.Samples("emd_auc", emd_per_spec.size());
  metrics.Put("rss_peak_mb", rss_mb, "MB");
  // The tails and the Answer p50 are reported with the per-layer set
  // (README.md: their run-to-run spread exceeds any allowed bound on a VM
  // with CPU steal).
  const std::vector<std::string> end_to_end = {
      "setup_s",        "first_question_p50_ms", "step_p50_ms",
      "rounds_per_s",   "sessions_per_s",        "success_rate",
      "emd_auc",        "rss_peak_mb"};

  // ---- per-layer metrics.
  std::vector<std::string> per_layer;
  auto layer = [&](const std::string& name, double value,
                   const std::string& unit, size_t n = 0) {
    metrics.Put(name, value, unit);
    if (n > 0) metrics.Samples(name, n);
    per_layer.push_back(name);
  };
  if (traced) {
    // core: uncontended replay timings. Warm rounds (2..B) for the plan
    // stages, the first round for the cold path, every round for resolve.
    std::map<std::string, std::vector<double>> stage_ms;
    std::vector<double> first_plan, plan, resolve;
    double stage_sum = 0.0, call_sum = 0.0;
    for (const auto& [index, r] : timed) {
      for (size_t i = 0; i < r.rounds.size(); ++i) {
        const ReplayRound& round = r.rounds[i];
        (i == 0 ? first_plan : plan).push_back(round.plan_ms);
        resolve.push_back(round.resolve_ms);
        call_sum += round.plan_ms + round.resolve_ms;
        for (const visclean::StageTime& st : round.trace.stage_times) {
          stage_sum += st.seconds * 1e3;
          bool resolve_stage = st.stage == "ask" || st.stage == "apply";
          if (i > 0 || resolve_stage) {
            stage_ms[st.stage].push_back(st.seconds * 1e3);
          }
        }
      }
    }
    for (const char* stage :
         {"detect", "train", "generate", "assemble", "benefit", "select"}) {
      layer(std::string("core.") + stage + "_ms", Median(stage_ms[stage]), "ms",
            stage_ms[stage].size());
    }
    layer("core.first_plan_ms", Median(first_plan), "ms", first_plan.size());
    layer("core.ask_ms", Median(stage_ms["ask"]), "ms", stage_ms["ask"].size());
    layer("core.apply_ms", Median(stage_ms["apply"]), "ms",
          stage_ms["apply"].size());
    layer("core.plan_ms", Median(plan), "ms", plan.size());
    layer("core.resolve_ms", Median(resolve), "ms", resolve.size());
    layer("core.unattributed_frac", 1.0 - Ratio(stage_sum, call_sum), "ratio");

    // core caches, graph and user: the served rounds' wire summaries.
    double detect_delta = 0, detect_all = 0, erg_delta = 0, erg_all = 0,
           fallbacks = 0;
    std::vector<double> pool, edges, questions, user_s;
    for (const ServedSession* s : served) {
      for (const ServedRound& round : s->rounds) {
        pool.push_back(static_cast<double>(round.pending.pool_questions));
        edges.push_back(static_cast<double>(round.pending.cqg_edges));
        if (!round.answered) continue;
        const visclean::IncrementalityCounters& inc = round.trace.incremental;
        detect_delta += static_cast<double>(inc.detect_delta_updates);
        detect_all += static_cast<double>(inc.detect_delta_updates +
                                          inc.detect_full_scans);
        erg_delta += static_cast<double>(inc.erg_delta_updates);
        erg_all +=
            static_cast<double>(inc.erg_delta_updates + inc.erg_full_builds);
        fallbacks += static_cast<double>(inc.sim_join_fallbacks);
        questions.push_back(static_cast<double>(round.trace.questions_asked));
        user_s.push_back(round.trace.user_seconds);
      }
    }
    layer("core.detect_delta_frac", Ratio(detect_delta, detect_all), "ratio");
    layer("core.erg_delta_frac", Ratio(erg_delta, erg_all), "ratio");
    layer("core.sim_join_fallbacks", fallbacks, "count");
    layer("graph.pool_questions", Median(pool), "count", pool.size());
    layer("graph.cqg_edges", Median(edges), "count", edges.size());
    layer("user.questions_per_round", Mean(questions), "count",
          questions.size());
    layer("user.seconds_per_round", Mean(user_s), "s", user_s.size());

    // ml/em kernels: the scraped kernel.<kind>.rows counters per completed
    // round, as the program reports them (README.md: with the kernel
    // batcher on, the call sites and the batcher both add to this cell).
    auto kernel_rows = [&](const std::string& kind) {
      auto it = drive.scrape.counters.find("kernel." + kind + ".rows");
      double rows = it == drive.scrape.counters.end()
                        ? 0.0
                        : static_cast<double>(it->second);
      return rows / static_cast<double>(std::max<size_t>(rounds, 1));
    };
    layer("kernel.em_infer.rows", kernel_rows("em_infer"), "rows/round");
    layer("kernel.pair_features.rows", kernel_rows("pair_features"),
          "rows/round");
    layer("kernel.knn.rows", kernel_rows("knn"), "rows/round");

    // serve / shard / net: decorator spans and the client in traced slices.
    TierSpans shard = Split(spans, Tier::kShard);
    TierSpans route = Split(spans, Tier::kRouter);
    ClientSamples client = SelectSamples(drive, true, false);
    layer("serve.step_ms", Median(shard.step_warm), "ms",
          shard.step_warm.size());
    Tail serve_tail = TailOf(shard.step_warm);
    metrics.PutTail("serve.step_tail_ms", serve_tail);
    per_layer.push_back("serve.step_tail_ms");
    layer("serve.answer_ms", Median(shard.answer), "ms", shard.answer.size());
    layer("serve.create_ms", Median(shard.create), "ms", shard.create.size());
    layer("serve.close_ms", Median(shard.close), "ms", shard.close.size());
    layer("serve.step_wait_ms",
          Median(shard.step_warm) - metrics.Get("core.plan_ms"), "ms");
    layer("serve.em_infer_occupancy",
          Ratio(static_cast<double>(serve.em_infer_batch_items),
                static_cast<double>(serve.em_infer_batches)),
          "items/batch");
    layer("serve.pair_feature_occupancy",
          Ratio(static_cast<double>(serve.pair_feature_batch_items),
                static_cast<double>(serve.pair_feature_batches)),
          "items/batch");
    layer("serve.knn_occupancy",
          Ratio(static_cast<double>(serve.knn_batch_items),
                static_cast<double>(serve.knn_batches)),
          "items/batch");
    layer("serve.export_ms", Median(shard.export_ms), "ms",
          shard.export_ms.size());
    layer("serve.import_ms", Median(shard.import_ms), "ms",
          shard.import_ms.size());
    layer("serve.snapshot_kb", Median(shard.export_kb), "KiB",
          shard.export_kb.size());
    layer("serve.evictions", static_cast<double>(serve.evictions), "count");
    layer("serve.restores_from_disk",
          static_cast<double>(serve.restores_from_disk), "count");
    layer("serve.rejected",
          static_cast<double>(serve.rejected_capacity +
                              serve.rejected_inflight +
                              serve.rejected_session_queue),
          "count");
    layer("shard.step_route_ms",
          Median(route.step_warm) - Median(shard.step_warm), "ms");
    layer("shard.answer_route_ms", Median(route.answer) - Median(shard.answer),
          "ms");
    layer("shard.migrate_ms", Median(route.migrate), "ms", route.migrate.size());
    layer("shard.forwards", static_cast<double>(router.forwards), "count");
    layer("shard.failovers", static_cast<double>(router.failovers), "count");
    layer("shard.migrations", static_cast<double>(router.migrations), "count");
    layer("net.step_overhead_ms", Median(client.step) - Median(route.step_warm),
          "ms");
    layer("net.answer_overhead_ms", Median(client.answer) - Median(route.answer),
          "ms");
    layer("datagen.generate_ms", Median(generate_s) * 1e3, "ms",
          generate_s.size());
    layer("trace.overhead_frac", TracingOverhead(drive), "ratio");
    for (const char* name : {"step_tail_ms", "answer_p50_ms", "answer_tail_ms"}) {
      per_layer.push_back(name);
    }
    layer("error_rate",
          Ratio(static_cast<double>(total_failed),
                static_cast<double>(total_attempted)),
          "ratio");
  }

  // ---- human-readable summary.
  std::printf("workload %s  seed %llu  seconds %.1f  trace %d%s\n",
              workload.name.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace, args.toy ? "  (toy)" : "");
  std::printf("sessions %zu completed, rounds %zu, wall %.2f s, specs replayed %zu\n",
              sessions_done, rounds, drive.wall_s, replay.size());
  for (size_t k = 0; k < kNumOps; ++k) {
    if (attempted[k] == 0) continue;
    std::printf("  %-8s attempted %6llu  failed %4llu\n",
                OpName(static_cast<Op>(k)), (unsigned long long)attempted[k],
                (unsigned long long)failed[k]);
  }
  std::printf("output_mismatches %zu\n", mismatches);
  for (const std::string& d : mismatch_details) {
    std::printf("  mismatch: %s\n", d.c_str());
  }
  for (const auto& m : metrics.items()) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // ---- report line (provenance + everything), then the result line.
  std::ostringstream report;
  report << "{\"report\": {\"workload\": " << JsonString(workload.name)
         << ", \"seed\": " << args.seed << ", \"seconds\": "
         << JsonNumber(args.seconds) << ", \"trace\": " << args.trace
         << ", \"toy\": " << (args.toy ? "true" : "false")
         << ", \"provenance\": {\"commit\": " << JsonString(args.commit)
         << ", \"source_digest\": " << JsonString(args.source_digest)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"cpu_model\": " << JsonString(CpuModel())
         << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
         << ", \"obs_compiled\": "
         << (visclean::obs::kObsCompiled ? "true" : "false")
         << ", \"cpu_busy_frac\": " << JsonNumber(cpu_busy_frac)
         << ", \"cpu_steal_frac\": " << JsonNumber(cpu_steal_frac)
         << ", \"cpu_iowait_frac\": " << JsonNumber(cpu_iowait_frac)
         << ", \"cpu_ref_ms\": " << JsonNumber(cpu_ref_ms) << "}"
         << ", \"output_mismatches\": " << mismatches
         << ", \"sessions_completed\": " << sessions_done
         << ", \"rounds\": " << rounds << ", \"requests\": {";
  bool first = true;
  for (size_t k = 0; k < kNumOps; ++k) {
    if (attempted[k] == 0) continue;
    report << (first ? "" : ", ") << JsonString(OpName(static_cast<Op>(k)))
           << ": {\"attempted\": " << attempted[k]
           << ", \"succeeded\": " << attempted[k] - failed[k]
           << ", \"failed\": " << failed[k] << "}";
    first = false;
  }
  report << "}, \"samples\": {";
  first = true;
  for (const auto& [name, n] : metrics.samples()) {
    report << (first ? "" : ", ") << JsonString(name) << ": " << n;
    first = false;
  }
  report << "}, \"tails\": {";
  first = true;
  for (const auto& [name, tail] : metrics.tails()) {
    report << (first ? "" : ", ") << JsonString(name)
           << ": {\"percentile\": " << tail.percentile << ", \"n\": " << tail.n
           << ", \"beyond\": " << tail.beyond
           << ", \"enough_samples\": " << (tail.beyond >= 10 ? "true" : "false")
           << "}";
    first = false;
  }
  // Per task: warm Step p50, first-question p50 and EMD area, to tell a
  // shift in one task from a shift in the mix.
  report << "}, \"tasks\": {";
  first = true;
  std::map<int, std::vector<double>> task_warm, task_cold, task_answer,
      task_emd;
  for (const DriverResult& d : drive.drivers) {
    for (const Sample& s : d.samples) {
      if (s.ok && s.op == Op::kStep) {
        (s.first ? task_cold : task_warm)[s.task_id].push_back(s.ms);
      }
      if (s.ok && s.op == Op::kAnswer) task_answer[s.task_id].push_back(s.ms);
    }
  }
  for (size_t n : fixed) {
    if (replay.at(n).ok) {
      task_emd[specs.At(n).task_id].push_back(EmdArea(replay.at(n)));
    }
  }
  for (int task : workload.tasks) {
    report << (first ? "" : ", ") << "\"Q" << task
           << "\": {\"steps\": " << task_warm[task].size()
           << ", \"step_p50_ms\": " << JsonNumber(Median(task_warm[task]))
           << ", \"first_question_p50_ms\": "
           << JsonNumber(Median(task_cold[task]))
           << ", \"answer_p50_ms\": " << JsonNumber(Median(task_answer[task]))
           << ", \"emd_auc\": " << JsonNumber(Mean(task_emd[task])) << "}";
    first = false;
  }
  report << "}, \"metrics\": " << MetricsJson(metrics, {}) << "}}";
  std::printf("%s\n", report.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", (unsigned long long)total_attempted,
              (unsigned long long)total_failed,
              MetricsJson(metrics, traced ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(scratch);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <solo-d1|fleet-mixed|churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--toy] [--corrupt-round] "
                 "[--scratch <dir>] [--commit <id>] [--source-digest <hex>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
