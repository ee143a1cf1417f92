// Closed-loop client drivers and the admin connection.
//
// Each driver connection keeps `slots` live sessions and advances them
// round-robin, one round per slot per pass, with no think time: Step then
// Answer per slot, or, with deferred answers, every slot's Step and then
// every slot's Answer (each question stays out while the connection serves
// its other sessions).
// A session is Create, the first Step (the cold question), then Answer and
// further rounds until its budget, then GetStatus (churn) and Close. Failed
// or refused requests are counted and never retried: the session is
// abandoned and closed.
#include <algorithm>
#include <condition_variable>
#include <thread>

#include "harness.h"
#include "net/client.h"

namespace perfbench {

using visclean::Client;
using visclean::Result;

const char* OpName(Op op) {
  switch (op) {
    case Op::kCreate:
      return "create";
    case Op::kStep:
      return "step";
    case Op::kAnswer:
      return "answer";
    case Op::kStatus:
      return "status";
    case Op::kClose:
      return "close";
    case Op::kMigrate:
      return "migrate";
    case Op::kMetrics:
      return "metrics";
  }
  return "unknown";
}

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Keeps the sample of one request sent at `sent_ns` and accounts it as
/// attempted and, unless `ok`, failed; returns `ok`.
bool Record(DriverResult& out, Op op, int task_id, bool first, bool traced,
            int64_t sent_ns, bool ok) {
  out.samples.push_back({op, task_id, first, traced, MsSince(sent_ns), ok,
                         sent_ns});
  ++out.attempted[static_cast<size_t>(op)];
  if (!ok) ++out.failed[static_cast<size_t>(op)];
  return ok;
}

/// Live session ids with a per-session lock that serializes a driver's
/// Close against an admin migration of the same session (a migration of a
/// session being closed would fail for reasons of the harness, not the
/// system).
class LiveSessions {
 public:
  void Add(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    live_[id] = std::make_shared<std::mutex>();
  }
  std::shared_ptr<std::mutex> Get(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(id);
    return it == live_.end() ? nullptr : it->second;
  }
  void Remove(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(id);
  }
  /// The next live id after `last` in id order, wrapping ("" when none).
  std::string Next(const std::string& last) {
    std::lock_guard<std::mutex> lock(mu_);
    if (live_.empty()) return "";
    auto it = live_.upper_bound(last);
    return it == live_.end() ? live_.begin()->first : it->first;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<std::mutex>> live_;
};

struct Shared {
  const Workload& workload;
  const SpecStream& specs;
  const std::map<std::string, std::string>& dataset_names;
  uint16_t port;
  int64_t deadline_ns;
  Ledger* ledger;
  std::atomic<size_t> next_session{0};
  LiveSessions live;
};

class DriverLoop {
 public:
  DriverLoop(Shared& shared, DriverResult& out) : s_(shared), out_(out) {}

  void Run() {
    if (!client_.Connect(s_.port).ok()) {
      ++out_.attempted[static_cast<size_t>(Op::kCreate)];
      ++out_.failed[static_cast<size_t>(Op::kCreate)];
      return;
    }
    std::vector<Slot> slots(s_.workload.slots);
    const bool deferred = s_.workload.deferred_answers;
    const int64_t start = NowNs();
    for (;;) {
      bool any_active = false;
      for (Slot& slot : slots) {
        if (!slot.active) {
          if (NowNs() < s_.deadline_ns) Begin(slot);
        } else if (slot.session.rounds.size() < slot.budget) {
          Step(slot, NowNs(), /*first=*/false);
        } else {
          Finish(slot, /*completed=*/true);
        }
        if (!deferred && Pending(slot)) Answer(slot);
        any_active = any_active || slot.active;
      }
      for (Slot& slot : slots) {
        if (deferred && Pending(slot)) Answer(slot);
      }
      if (!any_active && NowNs() >= s_.deadline_ns) break;
    }
    out_.busy_s = static_cast<double>(NowNs() - start) / 1e9;
  }

 private:
  struct Slot {
    bool active = false;
    size_t budget = 0;
    int task_id = 0;
    ServedSession session;
  };

  bool Traced() const { return s_.ledger != nullptr && s_.ledger->enabled(); }

  void Begin(Slot& slot) {
    const SessionSpec spec = s_.specs.At(s_.next_session.fetch_add(1));
    slot = Slot{};
    slot.budget = spec.options.budget;
    slot.session.spec = spec.index;
    slot.session.id = s_.workload.name + "-" + std::to_string(spec.index);
    slot.task_id = spec.task_id;

    bool traced = Traced();
    int64_t t0 = NowNs();
    Result<visclean::SessionInfo> created = client_.Create(
        slot.session.id, s_.dataset_names.at(spec.dataset), spec.vql,
        spec.options);
    if (!Record(out_, Op::kCreate, spec.task_id, false, traced, t0,
                created.ok())) {
      return;
    }
    slot.active = true;
    slot.session.created_emd = created.value().emd;
    s_.live.Add(slot.session.id);
    Step(slot, t0, /*first=*/true);
  }

  /// A question is out on this slot's session.
  static bool Pending(const Slot& slot) {
    return slot.active && !slot.session.rounds.empty() &&
           !slot.session.rounds.back().answered;
  }

  /// The first question's latency runs from the Create send (t0).
  void Step(Slot& slot, int64_t t0, bool first) {
    bool traced = Traced();
    Result<visclean::PendingInteraction> pending =
        client_.Step(slot.session.id);
    if (!Record(out_, Op::kStep, slot.task_id, first, traced, t0,
                pending.ok())) {
      Finish(slot, /*completed=*/false);
      return;
    }
    ServedRound round;
    round.pending = pending.value();
    slot.session.rounds.push_back(round);
  }

  void Answer(Slot& slot) {
    bool traced = Traced();
    int64_t t0 = NowNs();
    Result<visclean::WireTraceSummary> trace = client_.Answer(slot.session.id);
    if (!Record(out_, Op::kAnswer, slot.task_id, false, traced, t0,
                trace.ok())) {
      Finish(slot, /*completed=*/false);
      return;
    }
    slot.session.rounds.back().trace = trace.value();
    slot.session.rounds.back().answered = true;
    ++out_.rounds;
  }

  void Finish(Slot& slot, bool completed) {
    if (completed && s_.workload.get_status) {
      bool traced = Traced();
      int64_t t0 = NowNs();
      Result<visclean::SessionInfo> info = client_.GetStatus(slot.session.id);
      completed = Record(out_, Op::kStatus, slot.task_id, false, traced, t0,
                         info.ok() && info.value().finished);
    }
    std::shared_ptr<std::mutex> pin = s_.live.Get(slot.session.id);
    {
      std::unique_lock<std::mutex> lock;
      if (pin) lock = std::unique_lock<std::mutex>(*pin);
      s_.live.Remove(slot.session.id);
      bool traced = Traced();
      int64_t t0 = NowNs();
      visclean::Status closed = client_.CloseSession(slot.session.id);
      completed = Record(out_, Op::kClose, slot.task_id, false, traced, t0,
                         closed.ok()) &&
                  completed;
    }
    slot.session.completed = completed;
    if (completed) ++out_.sessions_done;
    out_.sessions.push_back(std::move(slot.session));
    slot = Slot{};
  }

  Shared& s_;
  DriverResult& out_;
  Client client_;
};

/// Live-migrates one session per migrate period (to the shard that does not
/// hold it) and scrapes METRICS once per scrape period, until `done`.
void AdminLoop(Shared& s, visclean::shard::ShardRouter& router,
               const std::atomic<bool>& done, DriverResult& out) {
  Client admin;
  if (!admin.Connect(s.port).ok()) return;
  const size_t shards = s.workload.shards;
  std::string last;
  int64_t next_migrate = NowNs();
  int64_t next_scrape = NowNs();
  while (!done.load()) {
    int64_t now = NowNs();
    if (now >= next_migrate) {
      next_migrate += static_cast<int64_t>(s.workload.admin_migrate_ms) * 1000000;
      std::string id = s.live.Next(last);
      std::shared_ptr<std::mutex> pin = id.empty() ? nullptr : s.live.Get(id);
      if (pin) {
        last = id;
        std::lock_guard<std::mutex> lock(*pin);
        Result<uint32_t> owner = router.placement().ShardOf(id);
        if (s.live.Get(id) && owner.ok()) {
          visclean::WireRequest migrate;
          migrate.type = WireRequestType::kMigrateSession;
          migrate.session_id = id;
          migrate.shard_id = static_cast<uint32_t>((owner.value() + 1) % shards);
          bool traced = s.ledger != nullptr && s.ledger->enabled();
          int64_t t0 = NowNs();
          Result<visclean::WireResponse> moved = admin.Call(migrate);
          Record(out, Op::kMigrate, 0, false, traced, t0,
                 moved.ok() &&
                     moved.value().type != visclean::WireResponseType::kError);
        }
      }
    }
    if (now >= next_scrape) {
      next_scrape += static_cast<int64_t>(s.workload.admin_scrape_ms) * 1000000;
      bool traced = s.ledger != nullptr && s.ledger->enabled();
      int64_t t0 = NowNs();
      bool ok = admin.Metrics().ok();
      Record(out, Op::kMetrics, 0, false, traced, t0, ok);
    }
    int64_t wake = std::min(next_migrate, next_scrape);
    int64_t nap = std::min<int64_t>(wake - NowNs(), 5000000);
    if (nap > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
  }
}

}  // namespace

DriveOutcome Drive(Fleet& fleet, const Workload& workload,
                   const SpecStream& specs,
                   const std::map<std::string, std::string>& dataset_names,
                   double seconds, Ledger* ledger) {
  DriveOutcome outcome;
  outcome.drivers.resize(workload.connections);
  const int64_t start = NowNs();
  const int64_t span_ns = static_cast<int64_t>(seconds * 1e9);
  outcome.start_ns = start;
  outcome.deadline_ns = start + span_ns;
  Shared shared{workload,       specs,  dataset_names, fleet.port(),
                start + span_ns, ledger, {},            {}};

  std::atomic<bool> done{false};
  std::mutex toggle_mu;
  std::condition_variable toggle_cv;
  std::thread toggler;
  if (ledger != nullptr) {
    // Short slices, traced or not by a fixed pseudo-random pattern (the top
    // bit of a Weyl sequence), until the drivers are done. Alternating long
    // slices would alias with the waves in which sessions start and end.
    ledger->set_enabled(false);
    toggler = std::thread([&] {
      std::unique_lock<std::mutex> lock(toggle_mu);
      for (uint64_t k = 1; !done.load(); ++k) {
        int64_t at = start + static_cast<int64_t>(k) * kSliceNs;
        toggle_cv.wait_for(lock, std::chrono::nanoseconds(std::max<int64_t>(
                                     at - NowNs(), 0)),
                           [&] { return done.load(); });
        if (!done.load()) {
          ledger->set_enabled(((k * 0x9e3779b97f4a7c15ULL) >> 63) == 1);
        }
      }
    });
  }

  std::thread admin;
  if (workload.admin) {
    admin = std::thread(
        [&] { AdminLoop(shared, fleet.router(), done, outcome.admin); });
  }
  std::vector<std::thread> drivers;
  for (size_t c = 0; c < workload.connections; ++c) {
    drivers.emplace_back([&, c] { DriverLoop(shared, outcome.drivers[c]).Run(); });
  }
  for (std::thread& d : drivers) d.join();
  outcome.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  {
    std::lock_guard<std::mutex> lock(toggle_mu);
    done.store(true);
  }
  toggle_cv.notify_all();
  if (admin.joinable()) admin.join();
  if (toggler.joinable()) toggler.join();
  if (ledger != nullptr) ledger->set_enabled(false);

  // One fleet-wide scrape (the router merges every shard's registry).
  Client scraper;
  int64_t t0 = NowNs();
  Result<visclean::obs::MetricsSnapshot> scraped =
      scraper.Connect(fleet.port()).ok()
          ? scraper.Metrics()
          : Result<visclean::obs::MetricsSnapshot>(
                visclean::Status::Unavailable("scrape connect failed"));
  outcome.scrape_ok =
      Record(outcome.admin, Op::kMetrics, 0, false, false, t0, scraped.ok());
  if (scraped.ok()) outcome.scrape = std::move(scraped).value();
  return outcome;
}

}  // namespace perfbench
