// In-process replay of the served sessions, and the output check.
#include <cstring>
#include <thread>

#include "common/thread_pool.h"
#include "harness.h"
#include "vql/parser.h"

namespace perfbench {
namespace {

double Ms(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

ReplaySession ReplayOne(const SessionSpec& spec, const DirtyDataset* data,
                        visclean::ThreadPool* pool) {
  ReplaySession out;
  visclean::Result<visclean::VqlQuery> query = visclean::ParseVql(spec.vql);
  if (!query.ok()) return out;
  visclean::VisCleanSession session(data, std::move(query).value(),
                                    spec.options);
  if (pool != nullptr) session.SetExternalPool(pool);
  if (!session.Initialize().ok()) return out;
  out.initial_emd = session.CurrentEmd();
  while (!session.finished()) {
    ReplayRound round;
    int64_t t0 = NowNs();
    visclean::Result<visclean::PendingInteraction> pending =
        session.PlanIteration();
    round.plan_ms = Ms(t0);
    if (!pending.ok()) return out;
    int64_t t1 = NowNs();
    visclean::Result<visclean::IterationTrace> trace =
        session.ResolveIteration();
    round.resolve_ms = Ms(t1);
    if (!trace.ok()) return out;
    round.pending = pending.value();
    round.trace = std::move(trace).value();
    out.rounds.push_back(std::move(round));
  }
  out.ok = true;
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

std::map<size_t, ReplaySession> Replay(
    const SpecStream& specs, const std::vector<size_t>& which,
    const std::map<std::string, const DirtyDataset*>& datasets,
    size_t pool_threads, size_t parallel) {
  std::map<size_t, ReplaySession> out;
  for (size_t index : which) out[index];
  if (pool_threads > 0) {
    visclean::ThreadPool pool(pool_threads);
    for (size_t index : which) {
      const SessionSpec spec = specs.At(index);
      out[index] = ReplayOne(spec, datasets.at(spec.dataset), &pool);
    }
    return out;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::max<size_t>(1, parallel); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < which.size();
           i = next.fetch_add(1)) {
        const SessionSpec spec = specs.At(which[i]);
        // Each worker writes only its own, pre-inserted map node.
        out.at(which[i]) = ReplayOne(spec, datasets.at(spec.dataset), nullptr);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return out;
}

size_t CheckOutputs(const std::vector<const ServedSession*>& served,
                    const std::map<size_t, ReplaySession>& replay,
                    std::vector<std::string>* details) {
  size_t mismatches = 0;
  auto note = [&](const ServedSession& s, size_t round, const char* what) {
    ++mismatches;
    if (details->size() < 20) {
      details->push_back(s.id + " round " + std::to_string(round) + ": " +
                         what);
    }
  };
  for (const ServedSession* s : served) {
    const ReplaySession& ref = replay.at(s->spec);
    if (!ref.ok) {
      note(*s, 0, "replay failed");
      continue;
    }
    if (!SameBits(s->created_emd, ref.initial_emd)) note(*s, 0, "initial emd");
    if (s->rounds.size() > ref.rounds.size()) {
      note(*s, ref.rounds.size() + 1, "more rounds than the budget");
    }
    for (size_t r = 0; r < s->rounds.size() && r < ref.rounds.size(); ++r) {
      const ServedRound& got = s->rounds[r];
      const visclean::PendingInteraction& p = ref.rounds[r].pending;
      const visclean::IterationTrace& t = ref.rounds[r].trace;
      const char* field = nullptr;
      if (got.pending.iteration != p.iteration) field = "iteration";
      else if (!SameBits(got.pending.cqg_benefit, p.cqg_benefit))
        field = "pending cqg_benefit";
      else if (got.pending.cqg_vertices != p.cqg_vertices)
        field = "cqg_vertices";
      else if (got.pending.cqg_edges != p.cqg_edges) field = "cqg_edges";
      else if (got.pending.pool_questions != p.pool_questions)
        field = "pool_questions";
      else if (got.answered && !SameBits(got.trace.emd, t.emd)) field = "emd";
      else if (got.answered && !SameBits(got.trace.cqg_benefit, t.cqg_benefit))
        field = "trace cqg_benefit";
      else if (got.answered && got.trace.questions_asked != t.questions_asked)
        field = "questions_asked";
      else if (got.answered && !SameBits(got.trace.user_seconds, t.user_seconds))
        field = "user_seconds";
      if (field != nullptr) note(*s, r + 1, field);
    }
  }
  return mismatches;
}

}  // namespace perfbench
