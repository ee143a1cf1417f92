// Unit tests for the serving layer: the snapshot codec (round-trip
// exactness, corrupt-input rejection), the SessionManager request API
// (lifecycle, error paths), admission control, and idle-session eviction
// with restore-on-touch. The bit-identical resume guarantee has its own
// suite (serve_snapshot_differential_test).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/session.h"
#include "datagen/nba.h"
#include "datagen/publications.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"
#include "vql/parser.h"

namespace visclean {
namespace {

DirtyDataset SmallPublications(uint64_t seed = 5) {
  PublicationsOptions o;
  o.num_entities = 50;
  o.seed = seed;
  return GeneratePublications(o);
}

DirtyDataset SmallNba(uint64_t seed = 5) {
  NbaOptions o;
  o.num_entities = 50;
  o.seed = seed;
  return GenerateNba(o);
}

const char* kPubQuery =
    "VISUALIZE BAR SELECT Venue, SUM(Citations) FROM D1 "
    "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10";
const char* kNbaQuery =
    "VISUALIZE PIE SELECT Team, SUM(Points) FROM D2 "
    "TRANSFORM GROUP(Team) SORT Y DESC LIMIT 10";

SessionOptions FastOptions(uint64_t seed = 5) {
  SessionOptions o;
  o.k = 4;
  o.budget = 2;
  o.max_t_questions = 30;
  o.max_m_questions = 30;
  o.forest.num_trees = 6;
  o.seed = seed;
  return o;
}

// Scratch directories register here and are removed when the test binary
// exits (static destructor — runs after gtest_main returns), so repeated
// runs cannot accumulate snapshot files in TempDir().
struct ScratchDirs {
  std::mutex mu;
  std::vector<std::string> dirs;
  void Track(std::string dir) {
    std::lock_guard<std::mutex> lock(mu);
    dirs.push_back(std::move(dir));
  }
  ~ScratchDirs() {
    for (const std::string& dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);  // best-effort
    }
  }
};

std::string TempDir(const std::string& tag) {
  static ScratchDirs cleaner;
  std::string dir = ::testing::TempDir() + "visclean_serve_" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  EXPECT_TRUE(std::filesystem::create_directories(dir, ec) || !ec) << dir;
  cleaner.Track(dir);
  return dir;
}

// A populated snapshot: run a session halfway and capture it.
SessionSnapshotState CapturedState(const DirtyDataset* data, bool pending) {
  VisCleanSession session(data, ParseVql(kPubQuery).value(), FastOptions());
  EXPECT_TRUE(session.Initialize().ok());
  EXPECT_TRUE(session.RunIteration().ok());
  if (pending) EXPECT_TRUE(session.PlanIteration().ok());
  Result<SessionSnapshotState> state = session.CaptureState();
  EXPECT_TRUE(state.ok());
  return state.value();
}

TEST(SnapshotCodecTest, RoundTripIsByteExact) {
  DirtyDataset data = SmallPublications();
  for (bool pending : {false, true}) {
    SCOPED_TRACE(pending ? "pending" : "idle");
    SessionSnapshotState state = CapturedState(&data, pending);
    std::string bytes = EncodeSnapshot(state);
    Result<SessionSnapshotState> decoded = DecodeSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Re-encoding the decode must reproduce the bytes exactly: every field
    // (doubles included) survives bit-for-bit.
    EXPECT_EQ(EncodeSnapshot(decoded.value()), bytes);
    EXPECT_EQ(decoded.value().pending, pending);
    EXPECT_EQ(decoded.value().dataset_name, data.name);
    EXPECT_EQ(decoded.value().table.mutation_count(),
              state.table.mutation_count());
  }
}

TEST(SnapshotCodecTest, RejectsCorruptInputWithoutAborting) {
  DirtyDataset data = SmallPublications();
  std::string bytes = EncodeSnapshot(CapturedState(&data, false));

  EXPECT_FALSE(DecodeSnapshot("").ok());
  EXPECT_FALSE(DecodeSnapshot("not a snapshot").ok());

  // Truncation at any prefix length must fail cleanly, never crash or hang.
  for (size_t len : {size_t{3}, size_t{8}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, len)).ok()) << len;
  }
  // Trailing garbage is rejected too (no silent partial reads).
  EXPECT_FALSE(DecodeSnapshot(bytes + "x").ok());
  // A flipped version field is an explicit error.
  std::string bad_version = bytes;
  bad_version[4] = char(0xEE);
  EXPECT_FALSE(DecodeSnapshot(bad_version).ok());
}

// Version 2 snapshots carried the three oracle-mode bytes in their options
// block; the current layout cannot read them, so the version gate refuses
// them up front instead of misparsing every later field.
TEST(SnapshotCodecTest, RejectsVersionTwoSnapshot) {
  DirtyDataset data = SmallPublications();
  std::string bytes = EncodeSnapshot(CapturedState(&data, false));
  ASSERT_TRUE(DecodeSnapshot(bytes).ok());
  bytes[4] = char(2);  // u32 little-endian version after the 4-byte magic
  bytes[5] = bytes[6] = bytes[7] = char(0);
  Result<SessionSnapshotState> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unsupported snapshot version 2"),
            std::string::npos)
      << decoded.status().ToString();
}

// Single-byte corruption fuzz: overwriting any one byte with an adversarial
// value must yield a clean decode result — never an abort (e.g. a cell-tag
// byte pushed out of enum range used to drive MarkDead past the appended
// rows) and never a hang. Dense over the header/schema/leading rows where
// the structural fields live, strided over the bulk.
TEST(SnapshotCodecTest, SingleByteCorruptionNeverAborts) {
  DirtyDataset data = SmallPublications();
  std::string bytes = EncodeSnapshot(CapturedState(&data, false));
  for (size_t pos = 0; pos < bytes.size(); pos += (pos < 2048 ? 1 : 131)) {
    for (unsigned char v : {0x00, 0x01, 0xFF}) {
      if (static_cast<unsigned char>(bytes[pos]) == v) continue;
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(v);
      // A rare mutation may still decode (e.g. flipping a float bit); the
      // contract under test is only "returns, without crashing".
      Result<SessionSnapshotState> result = DecodeSnapshot(mutated);
      (void)result;
    }
  }
}

// A header claiming zero columns must be rejected outright: with 0 columns
// each row consumes no input, so the row-count admission check would pass
// for any declared row count and the decoder would loop appending empty
// rows without bound.
TEST(SnapshotCodecTest, RejectsZeroColumnTable) {
  SessionSnapshotState state;  // default Table has an empty schema
  EXPECT_FALSE(DecodeSnapshot(EncodeSnapshot(state)).ok());
}

// Forest nodes must form a tree Predict can walk: split features inside the
// schema's PairFeatures arity, child links strictly forward (no cycles, no
// dangling leaves masquerading as splits).
TEST(SnapshotCodecTest, RejectsStructurallyInvalidForestNodes) {
  DirtyDataset data = SmallPublications();
  SessionSnapshotState state = CapturedState(&data, false);

  auto encode_with = [&](std::vector<DecisionTree::Node> nodes) {
    SessionSnapshotState s = state;
    DecisionTree tree;
    tree.RestoreNodes(std::move(nodes));
    s.forest_trees.assign(1, tree);
    return EncodeSnapshot(s);
  };

  DecisionTree::Node leaf;
  leaf.positive_fraction = 1.0;
  DecisionTree::Node split;
  split.feature = 0;
  split.left = 1;
  split.right = 2;

  // The well-formed shape decodes.
  EXPECT_TRUE(DecodeSnapshot(encode_with({split, leaf, leaf})).ok());

  // Feature index far beyond the schema's PairFeatures arity (would read
  // out of bounds of every feature vector Predict is handed).
  DecisionTree::Node bad_feature = split;
  bad_feature.feature = 1 << 30;
  EXPECT_FALSE(DecodeSnapshot(encode_with({bad_feature, leaf, leaf})).ok());

  // Self-referential child link (Predict would spin forever).
  DecisionTree::Node self_loop = split;
  self_loop.left = 0;
  EXPECT_FALSE(DecodeSnapshot(encode_with({self_loop, leaf, leaf})).ok());

  // A split with leaf child links (-1 cast to a huge index in Predict).
  DecisionTree::Node dangling = leaf;
  dangling.feature = 0;
  EXPECT_FALSE(DecodeSnapshot(encode_with({dangling})).ok());
}

TEST(SnapshotCodecTest, FileRoundTrip) {
  DirtyDataset data = SmallPublications();
  SessionSnapshotState state = CapturedState(&data, false);
  std::string path = TempDir("codec") + "/session.snap";
  ASSERT_TRUE(WriteSnapshotFile(path, state).ok());
  Result<SessionSnapshotState> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(EncodeSnapshot(read.value()), EncodeSnapshot(state));
  EXPECT_EQ(ReadSnapshotFile(path + ".missing").status().code(),
            StatusCode::kNotFound);
}

TEST(SessionManagerTest, LifecycleStepAnswerToCompletion) {
  DirtyDataset data = SmallPublications();
  SessionManager manager;
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());

  Result<SessionInfo> created =
      manager.Create("s1", data.name, kPubQuery, FastOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created.value().budget, 2u);
  EXPECT_FALSE(created.value().pending);

  for (size_t round = 1; round <= 2; ++round) {
    Result<PendingInteraction> pending = manager.Step("s1");
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    EXPECT_EQ(pending.value().iteration, round);

    Result<SessionInfo> mid = manager.GetStatus("s1");
    ASSERT_TRUE(mid.ok());
    EXPECT_TRUE(mid.value().pending);

    // Step with a question already out is a client error, not a crash.
    EXPECT_EQ(manager.Step("s1").status().code(),
              StatusCode::kInvalidArgument);

    Result<IterationTrace> trace = manager.Answer("s1");
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_EQ(trace.value().iteration, round);
  }

  Result<SessionInfo> done = manager.GetStatus("s1");
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().finished);
  // Budget exhausted: further steps reject, answers without a question too.
  EXPECT_EQ(manager.Step("s1").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Answer("s1").status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(manager.Close("s1").ok());
  EXPECT_EQ(manager.GetStatus("s1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Close("s1").code(), StatusCode::kNotFound);

  ServeStats stats = manager.stats();
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_EQ(stats.steps, 2u);
  EXPECT_EQ(stats.answers, 2u);
}

TEST(SessionManagerTest, CreateValidation) {
  DirtyDataset data = SmallPublications();
  SessionManager manager;
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());

  EXPECT_EQ(
      manager.Create("s1", "no-such-dataset", kPubQuery, FastOptions())
          .status()
          .code(),
      StatusCode::kNotFound);
  EXPECT_FALSE(manager.Create("", data.name, kPubQuery, FastOptions()).ok());
  EXPECT_FALSE(
      manager.Create("../evil", data.name, kPubQuery, FastOptions()).ok());
  EXPECT_FALSE(
      manager.Create("..", data.name, kPubQuery, FastOptions()).ok());
  EXPECT_FALSE(
      manager.Create("s1", data.name, "SELECT nonsense", FastOptions()).ok());

  ASSERT_TRUE(manager.Create("s1", data.name, kPubQuery, FastOptions()).ok());
  EXPECT_EQ(
      manager.Create("s1", data.name, kPubQuery, FastOptions()).status().code(),
      StatusCode::kInvalidArgument);

  // Re-registering a different dataset under a taken name is rejected.
  DirtyDataset other = SmallPublications(17);
  EXPECT_FALSE(manager.RegisterDataset(&other).ok());
}

TEST(SessionManagerTest, SessionCapacityRejectsWithResourceExhausted) {
  DirtyDataset data = SmallPublications();
  ServeOptions serve;
  serve.max_sessions = 2;
  SessionManager manager(serve);
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());
  ASSERT_TRUE(manager.Create("a", data.name, kPubQuery, FastOptions()).ok());
  ASSERT_TRUE(manager.Create("b", data.name, kPubQuery, FastOptions()).ok());
  EXPECT_EQ(
      manager.Create("c", data.name, kPubQuery, FastOptions()).status().code(),
      StatusCode::kResourceExhausted);
  EXPECT_GE(manager.stats().rejected_capacity, 1u);
  // Closing frees the slot.
  ASSERT_TRUE(manager.Close("a").ok());
  EXPECT_TRUE(manager.Create("c", data.name, kPubQuery, FastOptions()).ok());
}

TEST(SessionManagerTest, InflightLimitRejectsEveryRequest) {
  DirtyDataset data = SmallPublications();
  ServeOptions serve;
  serve.max_inflight_requests = 0;  // degenerate bound: nothing admitted
  SessionManager manager(serve);
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());
  EXPECT_EQ(
      manager.Create("s", data.name, kPubQuery, FastOptions()).status().code(),
      StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.Step("s").status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.GetStatus("s").status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_GE(manager.stats().rejected_inflight, 3u);
}

// Close is not admission-gated: with max_inflight_requests saturated by a
// request parked mid-flight, closing another session still succeeds, and
// the session is gone afterwards. The parked request is a Restore reading
// from a FIFO, which blocks in open() until this test writes to it.
TEST(SessionManagerTest, CloseSucceedsWhileInflightIsSaturated) {
  DirtyDataset data = SmallPublications();
  ServeOptions serve;
  serve.max_inflight_requests = 1;
  SessionManager manager(serve);
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());
  ASSERT_TRUE(manager.Create("a", data.name, kPubQuery, FastOptions()).ok());

  const std::string fifo = TempDir("close_saturated") + "/parked.snap";
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  std::thread parked([&] {
    // Retry until this Restore holds the only in-flight slot (the probe
    // below may hold it for an instant); it then blocks on the FIFO.
    Result<SessionInfo> restored = manager.Restore("r", fifo);
    while (restored.status().code() == StatusCode::kResourceExhausted) {
      restored = manager.Restore("r", fifo);
    }
    EXPECT_FALSE(restored.ok());  // the FIFO carries no snapshot
  });
  // Saturated once a gated probe is turned away.
  while (manager.GetStatus("a").status().code() !=
         StatusCode::kResourceExhausted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const Status closed = manager.Close("a");

  {
    std::ofstream release(fifo, std::ios::binary);  // unparks the Restore
    release << "not a snapshot";
  }
  parked.join();
  EXPECT_TRUE(closed.ok()) << closed.ToString();
  EXPECT_EQ(manager.GetStatus("a").status().code(), StatusCode::kNotFound);
}

TEST(SessionManagerTest, EvictionAndRestoreOnTouch) {
  DirtyDataset pubs = SmallPublications();
  DirtyDataset nba = SmallNba();
  ServeOptions serve;
  serve.max_resident_sessions = 1;
  serve.snapshot_dir = TempDir("evict");
  SessionManager manager(serve);
  ASSERT_TRUE(manager.RegisterDataset(&pubs).ok());
  ASSERT_TRUE(manager.RegisterDataset(&nba).ok());

  ASSERT_TRUE(manager.Create("p", pubs.name, kPubQuery, FastOptions()).ok());
  ASSERT_TRUE(manager.Step("p").ok());
  ASSERT_TRUE(manager.Answer("p").ok());
  double emd_before = manager.GetStatus("p").value().emd;

  // Admitting the second session pushes "p" (least recently touched) out.
  ASSERT_TRUE(manager.Create("n", nba.name, kNbaQuery, FastOptions()).ok());
  EXPECT_EQ(manager.resident_sessions(), 1u);
  EXPECT_GE(manager.stats().evictions, 1u);

  Result<SessionInfo> evicted = manager.GetStatus("p");
  ASSERT_TRUE(evicted.ok());
  EXPECT_FALSE(evicted.value().resident);   // status never restores
  EXPECT_EQ(evicted.value().emd, emd_before);  // cached state is current

  // Touching the evicted session restores it transparently and the loop
  // continues where it left off.
  Result<PendingInteraction> pending = manager.Step("p");
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  EXPECT_EQ(pending.value().iteration, 2u);
  ASSERT_TRUE(manager.Answer("p").ok());
  EXPECT_TRUE(manager.GetStatus("p").value().finished);
  EXPECT_GE(manager.stats().restores_from_disk, 1u);
}

TEST(SessionManagerTest, ExplicitSnapshotAndRestore) {
  DirtyDataset data = SmallPublications();
  SessionManager manager;
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());
  ASSERT_TRUE(manager.Create("orig", data.name, kPubQuery, FastOptions()).ok());
  ASSERT_TRUE(manager.Step("orig").ok());
  ASSERT_TRUE(manager.Answer("orig").ok());

  std::string path = TempDir("export") + "/orig.snap";
  ASSERT_TRUE(manager.Snapshot("orig", path).ok());

  Result<SessionInfo> restored = manager.Restore("copy", path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().iteration, 1u);
  EXPECT_FALSE(restored.value().pending);
  EXPECT_EQ(restored.value().emd, manager.GetStatus("orig").value().emd);

  // Both sessions finish independently.
  ASSERT_TRUE(manager.Step("copy").ok());
  ASSERT_TRUE(manager.Answer("copy").ok());
  ASSERT_TRUE(manager.Step("orig").ok());
  ASSERT_TRUE(manager.Answer("orig").ok());
  EXPECT_TRUE(manager.GetStatus("copy").value().finished);
  EXPECT_TRUE(manager.GetStatus("orig").value().finished);
}

TEST(SessionManagerTest, RestoreErrorPaths) {
  DirtyDataset data = SmallPublications();
  SessionManager manager;
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());
  std::string dir = TempDir("restore_err");

  // Missing file.
  EXPECT_EQ(manager.Restore("r1", dir + "/nope.snap").status().code(),
            StatusCode::kNotFound);

  // Corrupt file.
  std::string corrupt = dir + "/corrupt.snap";
  {
    std::FILE* f = std::fopen(corrupt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_EQ(manager.Restore("r2", corrupt).status().code(),
            StatusCode::kInvalidArgument);

  // Snapshot over a dataset this manager has not registered.
  DirtyDataset nba = SmallNba();
  VisCleanSession session(&nba, ParseVql(kNbaQuery).value(), FastOptions());
  ASSERT_TRUE(session.Initialize().ok());
  Result<SessionSnapshotState> state = session.CaptureState();
  ASSERT_TRUE(state.ok());
  std::string foreign = dir + "/foreign.snap";
  ASSERT_TRUE(WriteSnapshotFile(foreign, state.value()).ok());
  EXPECT_EQ(manager.Restore("r3", foreign).status().code(),
            StatusCode::kNotFound);
}

TEST(SessionManagerTest, SharedPoolSessionsMatchSerialSessions) {
  // Two managers, one with a shared worker pool: the cleaning results must
  // be bit-identical (the pool only parallelizes benefit estimation).
  DirtyDataset data = SmallPublications();
  ServeOptions pooled;
  pooled.pool_threads = 4;
  SessionManager serial_manager;
  SessionManager pooled_manager(pooled);
  ASSERT_TRUE(serial_manager.RegisterDataset(&data).ok());
  ASSERT_TRUE(pooled_manager.RegisterDataset(&data).ok());

  for (SessionManager* m : {&serial_manager, &pooled_manager}) {
    ASSERT_TRUE(m->Create("s", data.name, kPubQuery, FastOptions()).ok());
    while (!m->GetStatus("s").value().finished) {
      ASSERT_TRUE(m->Step("s").ok());
      ASSERT_TRUE(m->Answer("s").ok());
    }
  }
  EXPECT_EQ(serial_manager.GetStatus("s").value().emd,
            pooled_manager.GetStatus("s").value().emd);
}

// Entries in /proc/self/task: this process's OS threads.
size_t OsThreadCount() {
  std::error_code ec;
  size_t n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST(SessionManagerTest, ClientThreadsOptionStartsNoThreads) {
  // A client's options.threads must not choose how many OS threads the
  // server starts: with pool_threads = 0 served sessions compute serially.
  DirtyDataset data = SmallPublications();
  SessionManager manager;  // pool_threads = 0: no pool
  ASSERT_TRUE(manager.RegisterDataset(&data).ok());
  const size_t before = OsThreadCount();
  ASSERT_GT(before, 0u);

  SessionOptions options = FastOptions();
  options.threads = 8;
  ASSERT_TRUE(manager.Create("s", data.name, kPubQuery, options).ok());
  EXPECT_EQ(OsThreadCount(), before);
  // Planning runs every pooled kernel (detection, EM, benefits) once.
  ASSERT_TRUE(manager.Step("s").ok());
  EXPECT_EQ(OsThreadCount(), before);
  ASSERT_TRUE(manager.Answer("s").ok());
  EXPECT_EQ(OsThreadCount(), before);
}

}  // namespace
}  // namespace visclean
