#include "serve/session_manager.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "vql/parser.h"

namespace visclean {

namespace {

bool FilenameSafe(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  // Forbid names that are only dots ("." / ".."): they are directory
  // references, not files.
  return id.find_first_not_of('.') != std::string::npos;
}

/// Bound on migration tombstones kept per manager. A tombstone only has to
/// outlive the router's placement update for its session, so a small recent
/// window is enough; pruning oldest-first keeps the map from growing with
/// the lifetime total of migrations.
constexpr size_t kMaxMovedTombstones = 1024;

}  // namespace

/// One hosted session. `mu` serializes all operations on the session;
/// everything below the marker is guarded by it. `queued` admission-counts
/// the waiters on `mu` and is atomic so the map-lock path can test it
/// without taking `mu`.
struct SessionManager::Entry {
  std::string id;
  const DirtyDataset* oracle = nullptr;

  std::atomic<size_t> queued{0};
  std::atomic<uint64_t> last_touch{0};

  std::mutex mu;
  // ---- guarded by mu ----
  std::unique_ptr<VisCleanSession> session;  ///< null while evicted
  bool closed = false;
  SessionInfo info;  ///< kept current so GetStatus works while evicted
};

struct SessionManager::LockedEntry {
  std::shared_ptr<Entry> entry;
  std::unique_lock<std::mutex> lock;
};

namespace {

/// RAII admission token for the manager-wide in-flight bound.
class InflightSlot {
 public:
  InflightSlot(std::atomic<size_t>& counter, size_t limit)
      : counter_(counter), admitted_(counter.fetch_add(1) < limit) {
    if (!admitted_) counter_.fetch_sub(1);
  }
  ~InflightSlot() {
    if (admitted_) counter_.fetch_sub(1);
  }
  InflightSlot(const InflightSlot&) = delete;
  InflightSlot& operator=(const InflightSlot&) = delete;

  bool admitted() const { return admitted_; }

 private:
  std::atomic<size_t>& counter_;
  bool admitted_;
};

}  // namespace

SessionManager::SessionManager(ServeOptions options)
    : options_(std::move(options)) {
  c_created_ = registry_.GetCounter("serve.sessions_created");
  c_steps_ = registry_.GetCounter("serve.steps");
  c_answers_ = registry_.GetCounter("serve.answers");
  c_snapshots_ = registry_.GetCounter("serve.snapshots");
  c_evictions_ = registry_.GetCounter("serve.evictions");
  c_restores_ = registry_.GetCounter("serve.restores_from_disk");
  c_rejected_capacity_ = registry_.GetCounter("serve.rejected_capacity");
  c_rejected_inflight_ = registry_.GetCounter("serve.rejected_inflight");
  c_rejected_queue_ = registry_.GetCounter("serve.rejected_session_queue");
  c_detect_full_ = registry_.GetCounter("engine.detect_full_scans");
  c_detect_delta_ = registry_.GetCounter("engine.detect_delta_updates");
  c_erg_full_ = registry_.GetCounter("engine.erg_full_builds");
  c_erg_delta_ = registry_.GetCounter("engine.erg_delta_updates");
  c_join_full_ = registry_.GetCounter("engine.sim_join_full");
  c_join_fallback_ = registry_.GetCounter("engine.sim_join_fallbacks");
  c_join_delta_ = registry_.GetCounter("engine.sim_join_delta_syncs");
  h_step_ns_ = registry_.GetHistogram("serve.step_ns");
  h_answer_ns_ = registry_.GetHistogram("serve.answer_ns");
  h_queue_wait_ns_ = registry_.GetHistogram("serve.queue_wait_ns");
  if (options_.pool_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.pool_threads);
  }
}

SessionManager::~SessionManager() = default;

Status SessionManager::RegisterDataset(const DirtyDataset* oracle) {
  VC_CHECK(oracle != nullptr, "RegisterDataset: null oracle");
  if (oracle->name.empty()) {
    return Status::InvalidArgument("dataset has no name");
  }
  std::lock_guard<std::mutex> map_lock(map_mu_);
  auto [it, inserted] = datasets_.emplace(oracle->name, oracle);
  if (!inserted && it->second != oracle) {
    return Status::InvalidArgument("dataset '" + oracle->name +
                                   "' is already registered");
  }
  return Status::Ok();
}

std::string SessionManager::EvictionPath(const std::string& id) const {
  return options_.snapshot_dir + "/" + id + ".snap";
}

Result<std::unique_ptr<VisCleanSession>> SessionManager::BuildSession(
    const DirtyDataset* oracle, const std::string& vql,
    const SessionOptions& options, const UserOptions& user_options,
    const UserCostModel& cost_model) const {
  Result<VqlQuery> query = ParseVql(vql);
  if (!query.ok()) return query.status();
  auto session = std::make_unique<VisCleanSession>(
      oracle, std::move(query).value(), options, user_options, cost_model);
  if (pool_) session->SetExternalPool(pool_.get());
  session->SetExternalRegistry(&registry_);
  VC_RETURN_IF_ERROR(session->Initialize());
  return session;
}

Result<SessionInfo> SessionManager::Create(const std::string& id,
                                           const std::string& dataset,
                                           const std::string& vql,
                                           SessionOptions options,
                                           UserOptions user_options,
                                           UserCostModel cost_model) {
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
  if (!FilenameSafe(id)) {
    return Status::InvalidArgument("session id must be [A-Za-z0-9._-]+");
  }

  const DirtyDataset* oracle = nullptr;
  {
    std::lock_guard<std::mutex> map_lock(map_mu_);
    auto it = datasets_.find(dataset);
    if (it == datasets_.end()) {
      return Status::NotFound("dataset '" + dataset + "' is not registered");
    }
    oracle = it->second;
    if (sessions_.count(id)) {
      return Status::InvalidArgument("session '" + id + "' already exists");
    }
  }

  // Build outside the map lock: initialization is expensive. A concurrent
  // Create racing on the same id loses at the insert below.
  Result<std::unique_ptr<VisCleanSession>> session =
      BuildSession(oracle, vql, options, user_options, cost_model);
  if (!session.ok()) return session.status();

  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->oracle = oracle;
  entry->info.id = id;
  entry->info.dataset = dataset;
  entry->info.budget = options.budget;
  entry->info.emd = session.value()->CurrentEmd();
  entry->session = std::move(session).value();

  SessionInfo info;
  {
    // Publish under the entry lock: the moment the entry is in the map, a
    // concurrent MaybeEvict can try_lock it, so the resident_ increment and
    // the info copy must complete before the lock is released or eviction
    // could run in between (underflowing resident_ and racing on info).
    // Taking map_mu_ inside entry->mu is safe — no thread blocks on an
    // entry mutex while holding map_mu_ (the eviction scan uses try_lock).
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    {
      std::lock_guard<std::mutex> map_lock(map_mu_);
      if (sessions_.size() >= options_.max_sessions) {
        c_rejected_capacity_->Add(1);
        return Status::ResourceExhausted("session capacity reached");
      }
      auto [it, inserted] = sessions_.emplace(id, entry);
      if (!inserted) {
        return Status::InvalidArgument("session '" + id + "' already exists");
      }
    }
    resident_.fetch_add(1);
    entry->last_touch.store(clock_.fetch_add(1) + 1);
    info = entry->info;
  }
  c_created_->Add(1);
  MaybeEvict();
  return info;
}

Result<SessionManager::LockedEntry> SessionManager::LockSession(
    const std::string& id) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> map_lock(map_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      if (moved_.count(id)) {
        return Status::Unavailable("session '" + id + "' migrated away");
      }
      return Status::NotFound("no session '" + id + "'");
    }
    entry = it->second;
    if (entry->queued.fetch_add(1) >= options_.max_queued_per_session) {
      entry->queued.fetch_sub(1);
      c_rejected_queue_->Add(1);
      return Status::ResourceExhausted("session '" + id +
                                       "' request queue is full");
    }
  }
  std::unique_lock<std::mutex> lock(entry->mu);
  entry->queued.fetch_sub(1);
  if (entry->closed) {
    // A request that queued behind a migration drains into the tombstone:
    // kUnavailable tells the router to re-resolve placement and replay.
    {
      std::lock_guard<std::mutex> map_lock(map_mu_);
      if (moved_.count(id)) {
        return Status::Unavailable("session '" + id + "' migrated away");
      }
    }
    return Status::NotFound("session '" + id + "' is closed");
  }
  if (!entry->session) {
    VC_RETURN_IF_ERROR(RestoreResident(*entry));
  }
  TouchLocked(*entry);
  return LockedEntry{std::move(entry), std::move(lock)};
}

void SessionManager::TouchLocked(Entry& entry) {
  entry.last_touch.store(clock_.fetch_add(1) + 1);
}

Status SessionManager::RestoreResident(Entry& entry) {
  Result<SessionSnapshotState> state =
      ReadSnapshotFile(EvictionPath(entry.id));
  if (!state.ok()) return state.status();
  Result<std::unique_ptr<VisCleanSession>> session = BuildSession(
      entry.oracle, state.value().query_text, state.value().options,
      state.value().user_options, state.value().cost_model);
  if (!session.ok()) return session.status();
  VC_RETURN_IF_ERROR(session.value()->RestoreState(state.value()));
  entry.session = std::move(session).value();
  entry.info.resident = true;
  resident_.fetch_add(1);
  c_restores_->Add(1);
  MaybeEvict();  // restoring may push the resident count over the bound
  return Status::Ok();
}

void SessionManager::MaybeEvict() {
  if (options_.snapshot_dir.empty()) return;
  while (resident_.load() > options_.max_resident_sessions) {
    // Pick the least-recently-touched resident entry we can lock without
    // blocking (a thread holding map_mu_ must never wait on an entry).
    std::shared_ptr<Entry> victim;
    std::unique_lock<std::mutex> victim_lock;
    {
      std::lock_guard<std::mutex> map_lock(map_mu_);
      uint64_t oldest = 0;
      for (auto& [id, entry] : sessions_) {
        uint64_t touch = entry->last_touch.load();
        if (victim && touch >= oldest) continue;
        std::unique_lock<std::mutex> lock(entry->mu, std::try_to_lock);
        if (!lock.owns_lock() || !entry->session || entry->closed) continue;
        victim = entry;
        victim_lock = std::move(lock);
        oldest = touch;
      }
    }
    if (!victim) return;  // everything busy or already evicted

    Result<SessionSnapshotState> state = victim->session->CaptureState();
    if (!state.ok()) return;
    Status written = WriteSnapshotFile(EvictionPath(victim->id), state.value());
    if (!written.ok()) return;
    victim->session.reset();
    victim->info.resident = false;
    resident_.fetch_sub(1);
    c_evictions_->Add(1);
  }
}

void SessionManager::PersistLocked(Entry& entry) {
  if (!options_.persist_progress || options_.snapshot_dir.empty()) return;
  // Best-effort, like eviction: a failed checkpoint only narrows crash
  // recovery to the previous round, it must not fail the client's request.
  Result<SessionSnapshotState> state = entry.session->CaptureState();
  if (!state.ok()) return;
  (void)WriteSnapshotFile(EvictionPath(entry.id), state.value());
}

// Requires map_mu_ held: the tombstone must become visible in the same
// critical section that removes the session, or a racing lookup could see
// neither and report kNotFound for a session that merely moved.
void SessionManager::RecordMoved(const std::string& id) {
  moved_[id] = ++moved_seq_;
  while (moved_.size() > kMaxMovedTombstones) {
    auto oldest = moved_.begin();
    for (auto it = moved_.begin(); it != moved_.end(); ++it) {
      if (it->second < oldest->second) oldest = it;
    }
    moved_.erase(oldest);
  }
}

Result<PendingInteraction> SessionManager::Step(const std::string& id) {
  obs::ScopedSpan span("manager.step");
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
#ifndef VISCLEAN_OBS_OFF
  uint64_t wait_start_ns = obs::MonotonicNs();
#endif
  Result<LockedEntry> locked = LockSession(id);
  if (!locked.ok()) return locked.status();
#ifndef VISCLEAN_OBS_OFF
  uint64_t lock_held_ns = obs::MonotonicNs();
  h_queue_wait_ns_->Record(lock_held_ns - wait_start_ns);
  obs::RecordSpan("manager.queue_wait", wait_start_ns, lock_held_ns);
#endif
  Entry& entry = *locked.value().entry;
  if (entry.session->finished()) {
    return Status::InvalidArgument("session '" + id +
                                   "' has exhausted its budget");
  }
  if (entry.session->pending()) {
    return Status::InvalidArgument("session '" + id +
                                   "' already has a pending question");
  }
  Result<PendingInteraction> pending = entry.session->PlanIteration();
  if (!pending.ok()) return pending.status();
#ifndef VISCLEAN_OBS_OFF
  h_step_ns_->Record(obs::MonotonicNs() - lock_held_ns);
#endif
  entry.info.iteration = entry.session->iteration();
  entry.info.pending = true;
  c_steps_->Add(1);
  PersistLocked(entry);
  return pending;
}

Result<IterationTrace> SessionManager::Answer(const std::string& id) {
  obs::ScopedSpan span("manager.answer");
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
#ifndef VISCLEAN_OBS_OFF
  uint64_t wait_start_ns = obs::MonotonicNs();
#endif
  Result<LockedEntry> locked = LockSession(id);
  if (!locked.ok()) return locked.status();
#ifndef VISCLEAN_OBS_OFF
  uint64_t lock_held_ns = obs::MonotonicNs();
  h_queue_wait_ns_->Record(lock_held_ns - wait_start_ns);
  obs::RecordSpan("manager.queue_wait", wait_start_ns, lock_held_ns);
#endif
  Entry& entry = *locked.value().entry;
  if (!entry.session->pending()) {
    return Status::InvalidArgument("session '" + id +
                                   "' has no pending question");
  }
  Result<IterationTrace> trace = entry.session->ResolveIteration();
  if (!trace.ok()) return trace.status();
#ifndef VISCLEAN_OBS_OFF
  h_answer_ns_->Record(obs::MonotonicNs() - lock_held_ns);
#endif
  entry.info.pending = false;
  entry.info.iteration = entry.session->iteration();
  entry.info.emd = trace.value().emd;
  entry.info.finished = entry.session->finished();
  c_answers_->Add(1);
  const IncrementalityCounters& inc = trace.value().incremental;
  c_detect_full_->Add(inc.detect_full_scans);
  c_detect_delta_->Add(inc.detect_delta_updates);
  c_erg_full_->Add(inc.erg_full_builds);
  c_erg_delta_->Add(inc.erg_delta_updates);
  c_join_full_->Add(inc.sim_join_full);
  c_join_fallback_->Add(inc.sim_join_fallbacks);
  c_join_delta_->Add(inc.sim_join_delta_syncs);
  PersistLocked(entry);
  return trace;
}

Result<SessionInfo> SessionManager::GetStatus(const std::string& id) {
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> map_lock(map_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session '" + id + "'");
    }
    entry = it->second;
  }
  // Deliberately no queue-depth accounting and no restore: status is a
  // cheap poll and must stay cheap for evicted sessions.
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->closed) return Status::NotFound("session '" + id + "' is closed");
  return entry->info;
}

Status SessionManager::Snapshot(const std::string& id,
                                const std::string& path) {
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
  Result<LockedEntry> locked = LockSession(id);
  if (!locked.ok()) return locked.status();
  Entry& entry = *locked.value().entry;
  Result<SessionSnapshotState> state = entry.session->CaptureState();
  if (!state.ok()) return state.status();
  VC_RETURN_IF_ERROR(WriteSnapshotFile(path, state.value()));
  c_snapshots_->Add(1);
  return Status::Ok();
}

Result<SessionInfo> SessionManager::AdmitFromState(
    const std::string& id, const SessionSnapshotState& state) {
  if (!FilenameSafe(id)) {
    return Status::InvalidArgument("session id must be [A-Za-z0-9._-]+");
  }
  const DirtyDataset* oracle = nullptr;
  {
    std::lock_guard<std::mutex> map_lock(map_mu_);
    auto it = datasets_.find(state.dataset_name);
    if (it == datasets_.end()) {
      return Status::NotFound("snapshot dataset '" + state.dataset_name +
                              "' is not registered");
    }
    oracle = it->second;
    if (sessions_.count(id)) {
      return Status::InvalidArgument("session '" + id + "' already exists");
    }
  }

  Result<std::unique_ptr<VisCleanSession>> session =
      BuildSession(oracle, state.query_text, state.options,
                   state.user_options, state.cost_model);
  if (!session.ok()) return session.status();
  VC_RETURN_IF_ERROR(session.value()->RestoreState(state));

  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->oracle = oracle;
  entry->info.id = id;
  entry->info.dataset = state.dataset_name;
  entry->info.budget = state.options.budget;
  entry->info.iteration = session.value()->iteration();
  entry->info.pending = session.value()->pending();
  entry->info.finished = session.value()->finished();
  entry->info.emd = session.value()->CurrentEmd();
  entry->session = std::move(session).value();

  SessionInfo info;
  {
    // Same publication protocol as Create: keep the entry unevictable until
    // resident_ and the info copy are consistent.
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    {
      std::lock_guard<std::mutex> map_lock(map_mu_);
      if (sessions_.size() >= options_.max_sessions) {
        c_rejected_capacity_->Add(1);
        return Status::ResourceExhausted("session capacity reached");
      }
      auto [it, inserted] = sessions_.emplace(id, entry);
      if (!inserted) {
        return Status::InvalidArgument("session '" + id + "' already exists");
      }
      // The session lives here now; a stale migration tombstone must not
      // shadow it.
      moved_.erase(id);
    }
    resident_.fetch_add(1);
    entry->last_touch.store(clock_.fetch_add(1) + 1);
    info = entry->info;
  }
  c_created_->Add(1);
  MaybeEvict();
  return info;
}

Result<SessionInfo> SessionManager::Restore(const std::string& id,
                                            const std::string& path) {
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
  Result<SessionSnapshotState> state = ReadSnapshotFile(path);
  if (!state.ok()) return state.status();
  return AdmitFromState(id, state.value());
}

Result<std::string> SessionManager::ExportSession(const std::string& id,
                                                  bool remove) {
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
  Result<LockedEntry> locked = LockSession(id);
  if (!locked.ok()) return locked.status();
  Entry& entry = *locked.value().entry;
  Result<SessionSnapshotState> state = entry.session->CaptureState();
  if (!state.ok()) return state.status();
  std::string bytes = EncodeSnapshot(state.value());
  c_snapshots_->Add(1);
  if (remove) {
    // Retire under the entry lock we already hold: waiters queued on this
    // session observe closed + the tombstone and drain with kUnavailable.
    // Entry-then-map lock order is the legal direction.
    entry.closed = true;
    entry.session.reset();
    resident_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> map_lock(map_mu_);
      sessions_.erase(id);
      RecordMoved(id);
    }
    if (!options_.snapshot_dir.empty()) {
      std::remove(EvictionPath(id).c_str());  // best-effort cleanup
    }
  }
  return bytes;
}

Result<SessionInfo> SessionManager::ImportSession(const std::string& id,
                                                  const std::string& state) {
  InflightSlot slot(inflight_, options_.max_inflight_requests);
  if (!slot.admitted()) {
    c_rejected_inflight_->Add(1);
    return Status::ResourceExhausted("in-flight request limit reached");
  }
  Result<SessionSnapshotState> decoded = DecodeSnapshot(state);
  if (!decoded.ok()) return decoded.status();
  Result<SessionInfo> info = AdmitFromState(id, decoded.value());
  if (info.ok()) {
    // Imported sessions immediately join this shard's crash-recovery set.
    Result<LockedEntry> locked = LockSession(id);
    if (locked.ok()) PersistLocked(*locked.value().entry);
  }
  return info;
}

std::vector<std::string> SessionManager::live_sessions() const {
  std::vector<std::string> ids;
  std::lock_guard<std::mutex> map_lock(map_mu_);
  ids.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) ids.push_back(id);
  return ids;
}

Status SessionManager::Close(const std::string& id) {
  // No InflightSlot: teardown frees capacity, so gating it on the in-flight
  // bound would keep sessions alive exactly when the manager is saturated.
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> map_lock(map_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session '" + id + "'");
    }
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->closed = true;
  if (entry->session) {
    entry->session.reset();
    resident_.fetch_sub(1);
  }
  if (!options_.snapshot_dir.empty()) {
    std::remove(EvictionPath(id).c_str());  // best-effort cleanup
  }
  return Status::Ok();
}

ServeStats SessionManager::stats() const {
  ServeStats s;
  s.sessions_created = c_created_->Value();
  s.steps = c_steps_->Value();
  s.answers = c_answers_->Value();
  s.snapshots = c_snapshots_->Value();
  s.evictions = c_evictions_->Value();
  s.restores_from_disk = c_restores_->Value();
  s.rejected_capacity = c_rejected_capacity_->Value();
  s.rejected_inflight = c_rejected_inflight_->Value();
  s.rejected_session_queue = c_rejected_queue_->Value();
  s.detect_full_scans = c_detect_full_->Value();
  s.detect_delta_updates = c_detect_delta_->Value();
  s.erg_full_builds = c_erg_full_->Value();
  s.erg_delta_updates = c_erg_delta_->Value();
  s.sim_join_full = c_join_full_->Value();
  s.sim_join_fallbacks = c_join_fallback_->Value();
  s.sim_join_delta_syncs = c_join_delta_->Value();
  return s;
}

}  // namespace visclean
