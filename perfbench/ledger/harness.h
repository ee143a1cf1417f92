// Served-fleet benchmark harness: shared types.
//
// The harness drives a real in-process fleet (front VisCleanServer ->
// ShardRouter -> N shard servers, each a SessionManager behind a
// SessionManagerHandler) over loopback TCP from closed-loop client
// connections, then replays every distinct session spec in process to check
// the served trajectories bit for bit. Every timing is taken from outside,
// around public calls: the clients, bench-owned WireHandler decorators
// (TapHandler) in front of the router and each shard handler, and
// VisCleanSession::PlanIteration/ResolveIteration in the replay.
#ifndef PERFBENCH_LEDGER_HARNESS_H_
#define PERFBENCH_LEDGER_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.h"
#include "datagen/generator.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "serve/wire.h"
#include "shard/router.h"

namespace perfbench {

using visclean::DirtyDataset;
using visclean::ServeOptions;
using visclean::SessionOptions;
using visclean::WireRequestType;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- workload

/// One Table V task (schemas adapted to the generated datasets).
struct Task {
  int id;               ///< 1..18 as in Table V
  const char* dataset;  ///< "D1", "D2", "D3"
  const char* vql;
};

/// The 18 visualization tasks of Table V.
const std::vector<Task>& TableVTasks();

/// What one session runs: the Create arguments plus its place in the
/// workload's session sequence.
struct SessionSpec {
  size_t index = 0;        ///< n: the n-th session of the run
  int task_id = 0;
  std::string dataset;     ///< "D1" / "D2" / "D3"
  std::string vql;
  SessionOptions options;
};

/// A workload: fleet shape, traffic shape and input sizes.
struct Workload {
  std::string name;
  size_t shards = 1;
  size_t connections = 1;        ///< closed-loop driver connections
  size_t slots = 1;              ///< live sessions interleaved per connection
  bool admin = false;            ///< migrating + scraping admin connection
  size_t admin_migrate_ms = 0;   ///< one live migration per period
  size_t admin_scrape_ms = 0;    ///< one METRICS scrape per period
  bool get_status = false;       ///< GetStatus before each Close
  /// Per pass, Step every slot and then Answer every slot, instead of
  /// Step+Answer per slot: each question stays out while the connection
  /// serves its other sessions.
  bool deferred_answers = false;
  ServeOptions serve;            ///< per shard (snapshot_dir set per shard)
  std::vector<int> tasks;        ///< Table V task ids, one per session cycle
  std::vector<size_t> budgets;   ///< per-session budget, cycled
  std::map<std::string, size_t> entities;  ///< dataset -> entity count
  /// Sessions 0..emd_sessions-1 define emd_auc, so it covers the same
  /// sessions whatever the throughput.
  size_t emd_sessions = 0;
};

/// The named workload at benchmark or toy size (nullopt-like: name empty
/// when unknown).
Workload MakeWorkload(const std::string& name, bool toy);

/// The run's session sequence. Sessions come in cycles that visit every
/// task of the workload once, in a seed-shuffled order per cycle; each
/// session draws its own seed (the simulated user's and the engine's
/// randomness) from the workload seed and its index. Pure: the n-th spec
/// depends only on (workload, seed, n).
class SpecStream {
 public:
  SpecStream(const Workload& workload, uint64_t seed)
      : workload_(workload), seed_(seed) {}
  SessionSpec At(size_t n) const;

 private:
  const Workload& workload_;
  uint64_t seed_;
};

/// Generates one dataset ("D1"/"D2"/"D3") at `entities` entities with the
/// generator's canonical seed: the datasets are fixed, like the paper's;
/// the workload seed varies the sessions.
DirtyDataset MakeDataset(const std::string& label, size_t entities);

// ---------------------------------------------------------------- tracing

enum class Tier { kRouter, kShard };

/// One request as a decorator saw it.
struct Span {
  Tier tier = Tier::kRouter;
  WireRequestType type = WireRequestType::kStats;  ///< inner type if forwarded
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  bool ok = false;
  size_t state_bytes = 0;  ///< kExportState responses: snapshot size
  size_t iteration = 0;    ///< kStep responses: the round the question opens
};

/// In-memory span sink shared by every decorator of one fleet. Recording is
/// switched on and off at run time so a traced run can interleave traced
/// and untraced slices on the same fleet (the tracing-overhead A/B).
class Ledger {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }
  void Record(Span span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// WireHandler decorator timing every request it passes to `inner`.
/// kForwarded envelopes are decoded to classify the inner request.
class TapHandler : public visclean::WireHandler {
 public:
  TapHandler(visclean::WireHandler& inner, Tier tier, Ledger& ledger)
      : inner_(inner), tier_(tier), ledger_(ledger) {}
  visclean::WireResponse Handle(const visclean::WireRequest& request) override;

 private:
  visclean::WireHandler& inner_;
  Tier tier_;
  Ledger& ledger_;
};

// ---------------------------------------------------------------- fleet

/// Front server -> router -> N shard servers, all on loopback. With a
/// ledger, TapHandlers sit in front of the router and of every shard
/// handler; without one the fleet is exactly the production wiring.
class Fleet {
 public:
  Fleet() = default;
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  visclean::Status Start(const Workload& workload,
                         const std::vector<const DirtyDataset*>& datasets,
                         const std::string& scratch_dir, Ledger* ledger);
  void Stop();

  uint16_t port() const;
  visclean::shard::ShardRouter& router() { return *router_; }
  size_t shard_count() const { return shards_.size(); }
  visclean::SessionManager& manager(size_t i) { return *shards_[i]->manager; }

 private:
  struct ShardParts {
    std::unique_ptr<visclean::SessionManager> manager;
    std::unique_ptr<visclean::SessionManagerHandler> handler;
    std::unique_ptr<TapHandler> tap;
    std::unique_ptr<visclean::VisCleanServer> server;
  };
  std::vector<std::unique_ptr<ShardParts>> shards_;
  std::unique_ptr<visclean::shard::ShardRouter> router_;
  std::unique_ptr<TapHandler> router_tap_;
  std::unique_ptr<visclean::VisCleanServer> front_;
};

// ---------------------------------------------------------------- driving

/// Request classes the failure accounting distinguishes.
enum class Op { kCreate, kStep, kAnswer, kStatus, kClose, kMigrate, kMetrics };
inline constexpr size_t kNumOps = 7;
const char* OpName(Op op);

/// One client-observed request.
struct Sample {
  Op op = Op::kStep;
  int task_id = 0;      ///< the session's Table V task
  bool first = false;   ///< kStep: the session's first (cold) question
  bool traced = false;  ///< sent while the ledger was recording
  double ms = 0.0;
  bool ok = true;
  int64_t sent_ns = 0;  ///< NowNs() when sent (Create's, for a first Step)
};

/// One served round: the Step reply and, once answered, the Answer reply.
struct ServedRound {
  visclean::PendingInteraction pending;
  visclean::WireTraceSummary trace;
  bool answered = false;
};

/// Everything one served session returned.
struct ServedSession {
  std::string id;
  size_t spec = 0;  ///< SessionSpec::index
  double created_emd = 0.0;
  std::vector<ServedRound> rounds;
  bool completed = false;  ///< whole budget answered and closed
};

/// Per-connection results of the measured phase.
struct DriverResult {
  std::vector<Sample> samples;
  std::vector<ServedSession> sessions;
  uint64_t attempted[kNumOps] = {};
  uint64_t failed[kNumOps] = {};
  size_t rounds = 0;          ///< Step+Answer pairs completed
  size_t sessions_done = 0;   ///< lifecycles completed
  double busy_s = 0.0;        ///< wall from the first send to the last reply
};

/// Slice length of a traced run: the ledger records in about half of the
/// slices (see Drive).
inline constexpr int64_t kSliceNs = 250'000'000;

/// Runs the closed-loop phase: `workload.connections` drivers (plus the
/// admin connection when configured) for `seconds`. Drivers start no new
/// session after the deadline and finish the ones in progress. With a
/// ledger, recording is switched on and off per kSliceNs slice.
struct DriveOutcome {
  std::vector<DriverResult> drivers;
  DriverResult admin;  ///< the admin connection and the final scrape
  double wall_s = 0.0;
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  visclean::obs::MetricsSnapshot scrape;  ///< one METRICS scrape at the end
  bool scrape_ok = false;
};
DriveOutcome Drive(Fleet& fleet, const Workload& workload,
                   const SpecStream& specs,
                   const std::map<std::string, std::string>& dataset_names,
                   double seconds, Ledger* ledger);

// ---------------------------------------------------------------- replay

/// One replayed round.
struct ReplayRound {
  visclean::PendingInteraction pending;
  visclean::IterationTrace trace;
  double plan_ms = 0.0;
  double resolve_ms = 0.0;
};

/// One replayed spec.
struct ReplaySession {
  bool ok = false;
  double initial_emd = 0.0;
  std::vector<ReplayRound> rounds;
};

/// Replays the sessions `which` of `specs` in process. `pool_threads` > 0
/// lends each session a pool of that size (the shard configuration) and
/// replays one session at a time so the timings are uncontended; 0 replays
/// on up to `parallel` threads without a pool (output check only).
std::map<size_t, ReplaySession> Replay(
    const SpecStream& specs, const std::vector<size_t>& which,
    const std::map<std::string, const DirtyDataset*>& datasets,
    size_t pool_threads, size_t parallel);

/// Rounds (and initial EMDs) whose served values differ from the replay in
/// any checked field; each mismatch is described in `details`.
size_t CheckOutputs(const std::vector<const ServedSession*>& served,
                    const std::map<size_t, ReplaySession>& replay,
                    std::vector<std::string>* details);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_HARNESS_H_
