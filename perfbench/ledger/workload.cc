// Workload definitions: the Table V task pool, the three fleet/traffic
// shapes, and seed-derived inputs. README.md gives the rationale for each.
#include <algorithm>

#include "core/paper_options.h"
#include "datagen/books.h"
#include "datagen/nba.h"
#include "datagen/publications.h"
#include "harness.h"

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<Task>& TableVTasks() {
  static const std::vector<Task> tasks = {
      {1, "D1",
       "VISUALIZE BAR SELECT Venue, SUM(Citations) FROM D1 "
       "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10"},
      {2, "D1",
       "VISUALIZE BAR SELECT Venue, COUNT(Venue) FROM D1 "
       "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10"},
      {3, "D1",
       "VISUALIZE PIE SELECT Venue, COUNT(Venue) FROM D1 "
       "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10"},
      {4, "D1",
       "VISUALIZE BAR SELECT BIN(Citations) BY INTERVAL 200, "
       "COUNT(Citations) FROM D1"},
      {5, "D1",
       "VISUALIZE BAR SELECT BIN(Year) BY INTERVAL 5, COUNT(Year) FROM D1"},
      {6, "D1",
       "VISUALIZE BAR SELECT Venue, SUM(Citations) FROM D1 "
       "TRANSFORM GROUP(Venue) WHERE Year >= 2010 SORT Y DESC LIMIT 10"},
      {7, "D1",
       "VISUALIZE BAR SELECT BIN(Year) BY INTERVAL 5, COUNT(Year) FROM D1 "
       "WHERE Year > 1999 AND Venue = 'SIGMOD' AND Citations > 100"},
      {8, "D1",
       "VISUALIZE PIE SELECT Venue, COUNT(Venue) FROM D1 "
       "TRANSFORM GROUP(Venue) WHERE Year > 2009 SORT Y DESC LIMIT 10"},
      {9, "D2",
       "VISUALIZE PIE SELECT Team, SUM(Points) FROM D2 "
       "TRANSFORM GROUP(Team) SORT Y DESC LIMIT 10"},
      {10, "D2",
       "VISUALIZE BAR SELECT Player, Points FROM D2 "
       "WHERE Team = 'Los Angeles Lakers' SORT Y DESC LIMIT 10"},
      {11, "D2",
       "VISUALIZE BAR SELECT Player, Games FROM D2 SORT Y DESC LIMIT 10"},
      {12, "D2",
       "VISUALIZE BAR SELECT BIN(Points) BY INTERVAL 250, COUNT(Points) "
       "FROM D2 WHERE Position = 'Forward'"},
      {13, "D2",
       "VISUALIZE PIE SELECT Team, SUM(Points) FROM D2 "
       "TRANSFORM GROUP(Team) WHERE Position = 'Guard' SORT Y DESC LIMIT 10"},
      {14, "D3",
       "VISUALIZE PIE SELECT Publisher, COUNT(Publisher) FROM D3 "
       "TRANSFORM GROUP(Publisher) SORT Y DESC LIMIT 10"},
      {15, "D3",
       "VISUALIZE BAR SELECT Publisher, AVG(Rating) FROM D3 "
       "TRANSFORM GROUP(Publisher) WHERE Language = 'English' "
       "SORT Y DESC LIMIT 10"},
      {16, "D3",
       "VISUALIZE BAR SELECT Author, AVG(Rating) FROM D3 "
       "TRANSFORM GROUP(Author) WHERE Language = 'English' "
       "SORT Y DESC LIMIT 10"},
      {17, "D3",
       "VISUALIZE BAR SELECT Author, SUM(NumRatings) FROM D3 "
       "TRANSFORM GROUP(Author) SORT Y DESC LIMIT 5"},
      {18, "D3",
       "VISUALIZE BAR SELECT BIN(Rating) BY INTERVAL 1, COUNT(Rating) "
       "FROM D3"},
  };
  return tasks;
}

Workload MakeWorkload(const std::string& name, bool toy) {
  Workload w;
  w.name = name;
  if (name == "solo-d1") {
    // One request in flight: Step latency is pure pipeline compute.
    w.shards = 1;
    w.connections = 1;
    w.slots = 1;
    w.serve.pool_threads = 4;
    w.tasks = {1, 2, 3, 4, 5, 6, 7, 8};
    w.budgets = {8};
    w.entities = {{"D1", 200}};
    w.emd_sessions = 48;
  } else if (name == "fleet-mixed") {
    // Many more live sessions than connections over all 18 tasks, two
    // shards sharing the cores through their pools and kernel batchers.
    // Three connections already saturate four cores; a fourth only queues,
    // and its scheduling noise swamped the Answer latencies.
    w.shards = 2;
    w.connections = 3;
    w.slots = 5;
    w.serve.pool_threads = 2;
    for (const Task& task : TableVTasks()) w.tasks.push_back(task.id);
    w.budgets = {4};
    w.entities = {{"D1", 200}, {"D2", 200}, {"D3", 200}};
    w.emd_sessions = 36;
  } else if (name == "churn") {
    // Short sessions through the whole lifecycle with checkpointing,
    // eviction below the live count, and live migration. Twelve live
    // sessions over four resident slots, answers deferred: nearly every
    // request finds its session evicted and restores it from disk. The
    // tasks are the D3 ones and Q11, the D2 task whose restored rounds cost
    // what D3's do: the other D2 tasks' warm Steps are about five times
    // cheaper, which made the Step and Answer latencies bimodal with the
    // median in the gap between the modes.
    w.shards = 2;
    w.connections = 3;
    w.slots = 4;
    w.admin = true;
    w.admin_migrate_ms = 100;
    w.admin_scrape_ms = 500;
    w.get_status = true;
    w.deferred_answers = true;
    w.serve.pool_threads = 1;
    w.serve.persist_progress = true;
    w.serve.max_resident_sessions = 2;
    w.tasks = {11, 14, 15, 16, 17, 18};
    w.budgets = {2, 3};
    w.entities = {{"D2", 120}, {"D3", 120}};
    w.emd_sessions = 200;
  } else {
    w.name.clear();
    return w;
  }
  if (toy) {
    for (auto& [label, count] : w.entities) count = 40;
    w.budgets = {2};
    w.emd_sessions = w.tasks.size();
  }
  return w;
}

SessionSpec SpecStream::At(size_t n) const {
  const size_t cycle_len = workload_.tasks.size();
  const uint64_t cycle = n / cycle_len;
  // Fisher-Yates over the task list with a portable generator, one
  // shuffle per cycle: every cycle covers every task once.
  std::vector<int> order = workload_.tasks;
  uint64_t state = SplitMix(seed_ * 0x10001ULL + cycle);
  for (size_t i = order.size(); i > 1; --i) {
    state = SplitMix(state);
    std::swap(order[i - 1], order[state % i]);
  }
  const int task_id = order[n % cycle_len];
  const Task* task = nullptr;
  for (const Task& t : TableVTasks()) {
    if (t.id == task_id) task = &t;
  }
  SessionSpec spec;
  spec.index = n;
  spec.task_id = task->id;
  spec.dataset = task->dataset;
  spec.vql = task->vql;
  spec.options = visclean::PaperSessionOptions("gss", spec.dataset);
  spec.options.budget = workload_.budgets[n % workload_.budgets.size()];
  spec.options.seed = SplitMix(SplitMix(seed_) + n);
  return spec;
}

DirtyDataset MakeDataset(const std::string& label, size_t entities) {
  if (label == "D1") {
    visclean::PublicationsOptions options;
    options.num_entities = entities;
    return visclean::GeneratePublications(options);
  }
  if (label == "D2") {
    visclean::NbaOptions options;
    options.num_entities = entities;
    return visclean::GenerateNba(options);
  }
  visclean::BooksOptions options;
  options.num_entities = entities;
  return visclean::GenerateBooks(options);
}

}  // namespace perfbench
