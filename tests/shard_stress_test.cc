// Concurrency stress for the router/shard tier plus unit coverage for its
// building blocks: hash-ring determinism, placement pin/drain semantics,
// client IO deadlines against a hung peer, and — the heart of it — many
// driver threads completing sessions through the router while an admin
// thread runs a migration storm underneath them. Zero requests may fail
// (kResourceExhausted excepted: that is admission control doing its job).
// Run under TSan (VISCLEAN_TSAN=ON) this is the data-race gate for
// src/shard/.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/publications.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "serve/wire.h"
#include "shard/placement.h"
#include "shard/ring.h"
#include "shard/router.h"
#include "shard/shard_host.h"

namespace visclean {
namespace {

DirtyDataset SmallData() {
  PublicationsOptions o;
  o.num_entities = 30;
  o.seed = 5;
  return GeneratePublications(o);
}

constexpr char kQuery[] =
    "VISUALIZE BAR SELECT Venue, SUM(Citations) FROM D1 "
    "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10";

SessionOptions TinyOptions(uint64_t seed) {
  SessionOptions o;
  o.k = 3;
  o.budget = 1;
  o.max_t_questions = 15;
  o.max_m_questions = 15;
  o.forest.num_trees = 4;
  o.seed = seed;
  return o;
}

TEST(HashRingTest, DeterministicAndStableUnderMembership) {
  shard::HashRing ring(64);
  ring.AddShard(0);
  ring.AddShard(1);
  ring.AddShard(2);
  ASSERT_EQ(ring.size(), 3u);

  // Deterministic: the same key always lands on the same shard.
  std::vector<uint32_t> owners;
  for (int i = 0; i < 200; ++i) {
    Result<uint32_t> owner = ring.OwnerOf("session-" + std::to_string(i));
    ASSERT_TRUE(owner.ok());
    owners.push_back(owner.value());
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ring.OwnerOf("session-" + std::to_string(i)).value(),
              owners[i]);
  }
  // Every shard owns something at 200 keys / 64 replicas.
  std::set<uint32_t> used(owners.begin(), owners.end());
  EXPECT_EQ(used.size(), 3u);

  // Removing one shard only remaps the keys it owned.
  ring.RemoveShard(1);
  for (int i = 0; i < 200; ++i) {
    uint32_t now = ring.OwnerOf("session-" + std::to_string(i)).value();
    if (owners[i] != 1) {
      EXPECT_EQ(now, owners[i]) << "key " << i << " remapped needlessly";
    } else {
      EXPECT_NE(now, 1u);
    }
  }

  ring.RemoveShard(0);
  ring.RemoveShard(2);
  EXPECT_FALSE(ring.OwnerOf("anything").ok());
}

TEST(PlacementTableTest, RoutesPinAndMigrationBlocks) {
  shard::PlacementTable table;
  EXPECT_EQ(table.AcquireRoute("s", 10).status().code(),
            StatusCode::kNotFound);

  table.Assign("s", 7);
  Result<uint32_t> route = table.AcquireRoute("s", 10);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value(), 7u);

  // An in-flight route holds off the migration pin until released.
  EXPECT_EQ(table.BeginMigration("s", 50).code(),
            StatusCode::kDeadlineExceeded);
  table.ReleaseRoute("s");
  ASSERT_TRUE(table.BeginMigration("s", 50).ok());

  // While migrating, new routes block; EndMigration releases them onto the
  // new shard.
  std::atomic<uint32_t> routed{0};
  std::thread blocked([&] {
    Result<uint32_t> r = table.AcquireRoute("s", 5000);
    ASSERT_TRUE(r.ok());
    routed.store(r.value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(routed.load(), 0u);
  table.EndMigration("s", 9);
  blocked.join();
  EXPECT_EQ(routed.load(), 9u);
  table.ReleaseRoute("s");

  // Double-pin is rejected; a timed-out acquirer surfaces the deadline.
  ASSERT_TRUE(table.BeginMigration("s", 50).ok());
  EXPECT_EQ(table.BeginMigration("s", 10).code(), StatusCode::kUnavailable);
  EXPECT_EQ(table.AcquireRoute("s", 30).status().code(),
            StatusCode::kDeadlineExceeded);
  table.EndMigration("s", 9);

  EXPECT_EQ(table.CountOn(9), 1u);
  table.Remove("s");
  EXPECT_EQ(table.size(), 0u);
}

// A peer that accepts the connection and then never answers: the client's
// IO deadline must fire with kDeadlineExceeded instead of wedging forever,
// and the connection must come back disconnected (a half-read frame is
// unsynchronizable).
TEST(ClientDeadlineTest, HungPeerSurfacesDeadlineExceeded) {
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  uint16_t port = ntohs(addr.sin_port);

  ClientOptions options;
  options.io_timeout_ms = 100;
  Client client(options);
  ASSERT_TRUE(client.Connect(port).ok());

  auto start = std::chrono::steady_clock::now();
  Result<ServeStats> stats = client.Stats();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded)
      << stats.status().ToString();
  EXPECT_FALSE(client.connected());
  EXPECT_LT(elapsed, 5000);  // nowhere near a blocking-socket hang

  close(listener);
}

struct StressFleet {
  std::vector<std::unique_ptr<shard::ShardHost>> hosts;
  std::unique_ptr<shard::ShardRouter> router;
  std::unique_ptr<VisCleanServer> front;
  std::string dir;

  void StopAll() {
    if (front) front->Stop();
    if (router) router->Stop();
    for (auto& host : hosts) host->Stop();
    std::filesystem::remove_all(dir);
  }
};

StressFleet MakeStressFleet(const DirtyDataset& data, size_t shard_count,
                            const std::string& tag) {
  StressFleet fleet;
  fleet.dir = ::testing::TempDir() + "visclean_shard_stress_" + tag;
  std::filesystem::create_directories(fleet.dir);
  shard::RouterOptions router_options;
  for (size_t i = 0; i < shard_count; ++i) {
    shard::ShardHostOptions options;
    options.shard_id = static_cast<uint32_t>(i);
    options.serve.snapshot_dir = fleet.dir + "/shard" + std::to_string(i);
    std::filesystem::create_directories(options.serve.snapshot_dir);
    options.server.worker_threads = 4;
    auto host = std::make_unique<shard::ShardHost>(options);
    EXPECT_TRUE(host->RegisterDataset(&data).ok());
    EXPECT_TRUE(host->Start().ok());
    router_options.shards.push_back(
        {options.shard_id, host->port(), options.serve.snapshot_dir});
    fleet.hosts.push_back(std::move(host));
  }
  fleet.router = std::make_unique<shard::ShardRouter>(router_options);
  EXPECT_TRUE(fleet.router->Start().ok());
  ServerOptions front_options;
  front_options.worker_threads = 6;
  fleet.front =
      std::make_unique<VisCleanServer>(*fleet.router, front_options);
  EXPECT_TRUE(fleet.front->Start().ok());
  return fleet;
}

// Driver threads complete full sessions through the router while an admin
// thread migrates their sessions back and forth between shards. The drivers
// must never observe a failure: migration blocks routes, never breaks them.
TEST(ShardStressTest, MigrationStormUnderConcurrentDrivers) {
  DirtyDataset data = SmallData();
  StressFleet fleet = MakeStressFleet(data, 3, "storm");

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 3;
  std::atomic<bool> done{false};
  std::atomic<size_t> completed{0};

  std::thread storm([&] {
    // Round-robin every known session between shards as fast as the drain
    // deadline allows. Failures are expected (a session may be mid-request,
    // already closed, or already there) — the invariant under test is that
    // the *drivers* never fail.
    uint32_t target = 0;
    while (!done.load()) {
      for (int t = 0; t < kThreads; ++t) {
        for (int s = 0; s < kSessionsPerThread; ++s) {
          const std::string id =
              "storm-" + std::to_string(t) + "-" + std::to_string(s);
          (void)fleet.router->MigrateSession(id, target % 3);
        }
      }
      ++target;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> drivers;
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      Client client;
      ASSERT_TRUE(client.Connect(fleet.front->port()).ok());
      for (int s = 0; s < kSessionsPerThread; ++s) {
        const std::string id =
            "storm-" + std::to_string(t) + "-" + std::to_string(s);
        Result<SessionInfo> created =
            client.Create(id, data.name, kQuery, TinyOptions(200 + t * 10 + s));
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        Result<PendingInteraction> pending = client.Step(id);
        ASSERT_TRUE(pending.ok()) << pending.status().ToString();
        Result<WireTraceSummary> trace = client.Answer(id);
        ASSERT_TRUE(trace.ok()) << trace.status().ToString();
        Result<SessionInfo> info = client.GetStatus(id);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        EXPECT_TRUE(info.value().finished);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& d : drivers) d.join();
  done.store(true);
  storm.join();

  EXPECT_EQ(completed.load(), static_cast<size_t>(kThreads) *
                                  kSessionsPerThread);
  // The storm actually moved sessions (the drain deadline makes this all
  // but certain with 12 sessions in play).
  EXPECT_GT(fleet.router->router_stats().migrations, 0u);

  // Every session is still reachable and closable afterwards.
  Client client;
  ASSERT_TRUE(client.Connect(fleet.front->port()).ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int s = 0; s < kSessionsPerThread; ++s) {
      const std::string id =
          "storm-" + std::to_string(t) + "-" + std::to_string(s);
      EXPECT_TRUE(client.CloseSession(id).ok());
    }
  }
  fleet.StopAll();
}

// Draining a shard mid-traffic moves its sessions away without any driver
// noticing; afterwards the drained shard hosts nothing and new sessions
// land elsewhere.
TEST(ShardStressTest, DrainShardUnderTraffic) {
  DirtyDataset data = SmallData();
  StressFleet fleet = MakeStressFleet(data, 3, "drain");

  // Creates run up front: drain only enumerates *placed* sessions, so the
  // point under test is moving established sessions out from under live
  // Step/Answer traffic.
  constexpr int kThreads = 3;
  {
    Client setup;
    ASSERT_TRUE(setup.Connect(fleet.front->port()).ok());
    for (int t = 0; t < kThreads; ++t) {
      const std::string id = "drain-" + std::to_string(t);
      Result<SessionInfo> created =
          setup.Create(id, data.name, kQuery, TinyOptions(300 + t));
      ASSERT_TRUE(created.ok()) << created.status().ToString();
    }
  }

  std::vector<std::thread> drivers;
  std::atomic<size_t> completed{0};
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      Client client;
      ASSERT_TRUE(client.Connect(fleet.front->port()).ok());
      const std::string id = "drain-" + std::to_string(t);
      Result<PendingInteraction> pending = client.Step(id);
      ASSERT_TRUE(pending.ok()) << pending.status().ToString();
      Result<WireTraceSummary> trace = client.Answer(id);
      ASSERT_TRUE(trace.ok()) << trace.status().ToString();
      completed.fetch_add(1);
    });
  }
  {
    // The drain lands over the wire while the drivers are mid-session.
    Client admin;
    ASSERT_TRUE(admin.Connect(fleet.front->port()).ok());
    WireRequest drain;
    drain.type = WireRequestType::kDrainShard;
    drain.shard_id = 0;
    Result<WireResponse> drained = admin.Call(drain);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    EXPECT_NE(drained.value().type, WireResponseType::kError)
        << drained.value().message;
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(completed.load(), static_cast<size_t>(kThreads));

  EXPECT_EQ(fleet.router->placement().CountOn(0), 0u);
  WireTopology topology = fleet.router->Topology();
  bool found = false;
  for (const WireShardStatus& row : topology.shards) {
    if (row.shard_id == 0) {
      found = true;
      EXPECT_TRUE(row.draining);
      EXPECT_TRUE(row.alive);
      EXPECT_EQ(row.sessions, 0u);
    }
  }
  EXPECT_TRUE(found);
  fleet.StopAll();
}

// Rebalancing moves sessions from the shard doing all the recent work to
// the idle one, keyed off the shards' serve.steps + serve.answers counters.
TEST(ShardStressTest, RebalanceMovesHotSessions) {
  DirtyDataset data = SmallData();
  StressFleet fleet = MakeStressFleet(data, 2, "rebalance");

  Client client;
  ASSERT_TRUE(client.Connect(fleet.front->port()).ok());
  // Pile several sessions onto one shard regardless of ring placement.
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    const std::string id = "hot-" + std::to_string(i);
    ASSERT_TRUE(
        client.Create(id, data.name, kQuery, TinyOptions(400 + i)).ok());
    if (fleet.router->placement().ShardOf(id).ValueOr(99) != 0) {
      ASSERT_TRUE(fleet.router->MigrateSession(id, 0).ok());
    }
    ids.push_back(id);
  }
  // Baseline poll so the next pass sees only the activity burst below.
  (void)fleet.router->Rebalance();
  for (const std::string& id : ids) {
    ASSERT_TRUE(client.Step(id).ok());
    ASSERT_TRUE(client.Answer(id).ok());
  }
  size_t moved = fleet.router->Rebalance();
  EXPECT_GT(moved, 0u);
  EXPECT_GT(fleet.router->placement().CountOn(1), 0u);
  fleet.StopAll();
}

}  // namespace
}  // namespace visclean
