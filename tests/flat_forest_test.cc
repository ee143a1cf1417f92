// Differential + property tests for the flattened kernels of this refactor:
//
//  * FlatForest::PredictBatch vs the legacy per-tree pointer walk, on
//    randomized forests and feature matrices (including single-node trees
//    and the latched degenerate fits EmModel::Retrain leaves behind) —
//    results must be bit-identical, not merely close.
//  * The SoA planes must re-encode DecisionTree node arrays exactly
//    (ExportTrees round-trip), which is what keeps the snapshot codec
//    (VCSN v2) byte-stable: a fitted session's snapshot must survive
//    encode -> decode -> encode with identical bytes.
//  * Arena epoch discipline: spans from the same epoch never alias, reuse
//    across epochs does not grow the reservation, and every access goes
//    through current-epoch spans only — under the ASan CI leg a stale or
//    mis-unpoisoned pointer faults here.
//  * RunKernel: the pool and inline strategies each cover [0, total)
//    exactly once, and the per-site counters count every row once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/kernel_env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "datagen/publications.h"
#include "ml/decision_tree.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"
#include "serve/snapshot.h"
#include "vql/parser.h"

namespace visclean {
namespace {

std::string HexOf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// The reference semantics PredictBatch must reproduce bit-for-bit: walk the
// legacy Node arrays per tree, accumulate in tree order, divide once.
double LegacyForestWalk(const std::vector<DecisionTree>& trees,
                        const std::vector<double>& row) {
  double sum = 0.0;
  for (const DecisionTree& tree : trees) sum += tree.PredictProbability(row);
  return sum / static_cast<double>(trees.size());
}

std::vector<Example> RandomExamples(size_t n, size_t arity, double flip,
                                    Rng* rng) {
  std::vector<Example> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Example e;
    e.features.reserve(arity);
    for (size_t f = 0; f < arity; ++f)
      e.features.push_back(rng->UniformReal(-2.0, 2.0));
    int label = e.features[0] + 0.3 * e.features[arity - 1] > 0.0 ? 1 : 0;
    if (rng->UniformReal(0, 1) < flip) label = 1 - label;
    e.label = label;
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<double> RandomMatrix(size_t rows, size_t arity, Rng* rng) {
  std::vector<double> m(rows * arity);
  for (double& v : m) v = rng->UniformReal(-3.0, 3.0);
  return m;
}

// ------------------------------------------------------------ FlatForest --

TEST(FlatForestTest, BatchMatchesLegacyWalkOnRandomForests) {
  Rng rng(20260809);
  for (int round = 0; round < 24; ++round) {
    const size_t arity = static_cast<size_t>(rng.UniformInt(2, 6));
    const size_t num_trees = static_cast<size_t>(rng.UniformInt(1, 12));
    const size_t train = static_cast<size_t>(rng.UniformInt(8, 127));
    ForestOptions options;
    options.num_trees = num_trees;
    options.tree.max_depth = static_cast<size_t>(rng.UniformInt(1, 8));
    RandomForest forest(options);
    forest.Fit(RandomExamples(train, arity, 0.15, &rng), 777 + round);
    ASSERT_TRUE(forest.is_fitted());
    const std::vector<DecisionTree> trees = forest.ExportTrees();
    ASSERT_EQ(trees.size(), num_trees);

    // Row counts straddling the internal block size (256) exercise every
    // remainder path of the level-synchronous walk.
    for (size_t rows : {size_t{1}, size_t{7}, size_t{255}, size_t{256},
                        size_t{257}, size_t{700}}) {
      const std::vector<double> matrix = RandomMatrix(rows, arity, &rng);
      std::vector<double> batched(rows, -1.0);
      forest.PredictBatch(matrix.data(), rows, arity, batched.data());
      for (size_t r = 0; r < rows; ++r) {
        std::vector<double> row(matrix.begin() + r * arity,
                                matrix.begin() + (r + 1) * arity);
        const double legacy = LegacyForestWalk(trees, row);
        ASSERT_EQ(HexOf(legacy), HexOf(batched[r]))
            << "round=" << round << " rows=" << rows << " r=" << r;
        // PredictOne and PredictProbability must agree with the batch too.
        ASSERT_EQ(HexOf(batched[r]), HexOf(forest.PredictProbability(row)));
      }
    }
  }
}

TEST(FlatForestTest, SingleNodeAndDegenerateFits) {
  Rng rng(42);
  // All-one-label training collapses every tree to a lone root leaf — the
  // smallest legal tree, and the shape a latched degenerate Retrain keeps.
  for (int label : {0, 1}) {
    std::vector<Example> pure;
    for (size_t i = 0; i < 16; ++i)
      pure.push_back({{rng.UniformReal(0, 1), rng.UniformReal(0, 1)}, label});
    ForestOptions options;
    options.num_trees = 5;
    RandomForest forest(options);
    forest.Fit(pure, 9);
    const std::vector<DecisionTree> trees = forest.ExportTrees();
    for (const DecisionTree& tree : trees) ASSERT_EQ(tree.num_nodes(), 1u);

    const size_t rows = 300;
    const std::vector<double> matrix = RandomMatrix(rows, 2, &rng);
    std::vector<double> batched(rows, -1.0);
    forest.PredictBatch(matrix.data(), rows, 2, batched.data());
    for (size_t r = 0; r < rows; ++r) {
      std::vector<double> row(matrix.begin() + r * 2,
                              matrix.begin() + (r + 1) * 2);
      ASSERT_EQ(HexOf(LegacyForestWalk(trees, row)), HexOf(batched[r]));
    }
  }
}

TEST(FlatForestTest, UnfittedForestPredictsMaximumUncertainty) {
  RandomForest forest;
  EXPECT_FALSE(forest.is_fitted());
  EXPECT_EQ(forest.PredictProbability({0.1, 0.2}), 0.5);
  std::vector<double> matrix = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> out(2, -1.0);
  forest.PredictBatch(matrix.data(), 2, 2, out.data());
  EXPECT_EQ(out[0], 0.5);
  EXPECT_EQ(out[1], 0.5);
}

TEST(FlatForestTest, ExportTreesRoundTripsNodesBitExactly) {
  Rng rng(7);
  ForestOptions options;
  options.num_trees = 6;
  options.tree.max_depth = 6;
  RandomForest forest(options);
  forest.Fit(RandomExamples(90, 4, 0.2, &rng), 5);

  // Rebuild a second flat forest from the export and export again: the
  // node arrays must be identical field-for-field both times.
  const std::vector<DecisionTree> first = forest.ExportTrees();
  FlatForest rebuilt;
  for (const DecisionTree& tree : first) rebuilt.AddTree(tree.nodes());
  const std::vector<DecisionTree> second = rebuilt.ExportTrees();
  ASSERT_EQ(first.size(), second.size());
  for (size_t t = 0; t < first.size(); ++t) {
    const std::vector<DecisionTree::Node>& a = first[t].nodes();
    const std::vector<DecisionTree::Node>& b = second[t].nodes();
    ASSERT_EQ(a.size(), b.size());
    for (size_t n = 0; n < a.size(); ++n) {
      EXPECT_EQ(a[n].feature, b[n].feature);
      EXPECT_EQ(a[n].left, b[n].left);
      EXPECT_EQ(a[n].right, b[n].right);
      EXPECT_EQ(HexOf(a[n].threshold), HexOf(b[n].threshold));
      EXPECT_EQ(HexOf(a[n].positive_fraction), HexOf(b[n].positive_fraction));
    }
  }
}

// A fitted session's snapshot must survive encode -> decode -> encode with
// byte-identical output: the flat forest feeds the codec through
// ExportTrees, so any re-encoding drift would show up here.
TEST(FlatForestTest, SnapshotBytesStableThroughCodecRoundTrip) {
  PublicationsOptions data_options;
  data_options.num_entities = 40;
  data_options.seed = 3;
  DirtyDataset data = GeneratePublications(data_options);
  Result<VqlQuery> query = ParseVql(
      "VISUALIZE BAR SELECT Venue, SUM(Citations) FROM D1 "
      "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10");
  ASSERT_TRUE(query.ok());
  SessionOptions options;
  options.k = 5;
  options.budget = 2;
  options.forest.num_trees = 6;
  options.seed = 1;
  VisCleanSession session(&data, std::move(query).value(), options);
  ASSERT_TRUE(session.Initialize().ok());
  while (!session.finished()) {
    Result<IterationTrace> trace = session.RunIteration();
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  }

  Result<SessionSnapshotState> captured = session.CaptureState();
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const std::string bytes = EncodeSnapshot(captured.value());
  Result<SessionSnapshotState> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::string bytes_again = EncodeSnapshot(decoded.value());
  ASSERT_EQ(bytes.size(), bytes_again.size());
  EXPECT_TRUE(bytes == bytes_again);
}

// ----------------------------------------------------------------- Arena --

TEST(ArenaTest, SpansWithinAnEpochNeverAlias) {
  Arena arena(1 << 10);
  Rng rng(13);
  std::vector<std::pair<uint32_t*, size_t>> spans;
  for (int i = 0; i < 64; ++i) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 700));
    uint32_t* span = arena.AllocSpan<uint32_t>(n);
    ASSERT_NE(span, nullptr);
    for (size_t j = 0; j < n; ++j) span[j] = static_cast<uint32_t>(i);
    spans.emplace_back(span, n);
  }
  // If any two spans overlapped, a later fill would have clobbered an
  // earlier span's sentinel.
  for (size_t i = 0; i < spans.size(); ++i)
    for (size_t j = 0; j < spans[i].second; ++j)
      ASSERT_EQ(spans[i].first[j], static_cast<uint32_t>(i));
}

TEST(ArenaTest, EpochReuseIsCleanAndDoesNotGrow) {
  Arena arena(1 << 12);
  // First epoch establishes the footprint.
  auto run_epoch = [&](uint64_t stamp) {
    uint64_t* a = arena.AllocSpan<uint64_t>(500);
    uint8_t* b = arena.AllocSpan<uint8_t>(3000);
    double* c = arena.AllocSpan<double>(257);
    for (size_t i = 0; i < 500; ++i) a[i] = stamp;
    for (size_t i = 0; i < 3000; ++i) b[i] = static_cast<uint8_t>(stamp);
    for (size_t i = 0; i < 257; ++i) c[i] = static_cast<double>(stamp);
    // Every current-epoch read must see this epoch's writes — recycled
    // bytes from prior epochs must never show through.
    for (size_t i = 0; i < 500; ++i) ASSERT_EQ(a[i], stamp);
    for (size_t i = 0; i < 3000; ++i)
      ASSERT_EQ(b[i], static_cast<uint8_t>(stamp));
    for (size_t i = 0; i < 257; ++i)
      ASSERT_EQ(c[i], static_cast<double>(stamp));
  };
  run_epoch(1);
  const size_t reserved_after_first = arena.bytes_reserved();
  for (uint64_t epoch = 2; epoch <= 50; ++epoch) {
    arena.Reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    run_epoch(epoch);
  }
  // Identical per-epoch footprints must be served from recycled chunks.
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_first);
  EXPECT_EQ(arena.epoch(), 49u);
}

TEST(ArenaTest, AlignmentAndOversizedRequests) {
  Arena arena(64);
  // Interleave odd-sized byte spans with aligned types; every pointer must
  // respect its type's alignment.
  for (int i = 0; i < 20; ++i) {
    uint8_t* raw = arena.AllocSpan<uint8_t>(3);
    (void)raw;
    double* d = arena.AllocSpan<double>(5);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
    uint64_t* q = arena.AllocSpan<uint64_t>(1);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(q) % alignof(uint64_t), 0u);
  }
  // A request far beyond the chunk size gets its own dedicated chunk and
  // is fully usable.
  uint64_t* big = arena.AllocSpan<uint64_t>(100000);
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[99999] = 2;
  EXPECT_EQ(big[0], 1u);
  EXPECT_EQ(big[99999], 2u);
  // Zero-byte allocations still return distinct non-null storage.
  EXPECT_NE(arena.Allocate(0, 1), nullptr);
}

// ------------------------------------------------------------- RunKernel --

// Both execution strategies of the kernel seam — pool fan-out at or above
// min_parallel, inline below it — cover [0, total) exactly once, and the
// per-site counters add each call's rows exactly once.
TEST(RunKernelTest, PoolAndInlineCoverEveryIndexOnceAndCountOnce) {
  ThreadPool pool(4);
  obs::Registry registry;
  KernelSiteMetrics sites[kNumKernelKinds];
  for (size_t k = 0; k < kNumKernelKinds; ++k) {
    const std::string base =
        std::string("kernel.") + KernelKindName(static_cast<KernelKind>(k));
    sites[k].calls = registry.GetCounter(base + ".calls");
    sites[k].rows = registry.GetCounter(base + ".rows");
  }
  const KernelEnv env{&pool, nullptr, sites};

  bool ran = false;
  RunKernel(KernelKind::kEmInference, env, 0, 2,
            [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);

  uint64_t expected_rows = 0;
  for (size_t total : {1u, 7u, 64u, 1000u}) {
    for (size_t min_parallel : {size_t{2}, size_t{100000}}) {
      std::vector<std::atomic<uint32_t>> hits(total);
      RunKernel(KernelKind::kKnnQuery, env, total, min_parallel,
                [&](size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                });
      expected_rows += total;
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << total << "/" << min_parallel;
      }
    }
  }
#ifndef VISCLEAN_OBS_OFF
  EXPECT_EQ(registry.GetCounter("kernel.knn.calls")->Value(), 8u);
  EXPECT_EQ(registry.GetCounter("kernel.knn.rows")->Value(), expected_rows);
  EXPECT_EQ(registry.GetCounter("kernel.em_infer.calls")->Value(), 0u);
#endif

  // A null pool always runs inline, whatever the gate says.
  std::vector<int> out(10, 0);
  RunKernel(KernelKind::kPairFeatures, KernelEnv{}, out.size(), 2,
            [&](size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) out[i] += 1;
            });
  for (int v : out) EXPECT_EQ(v, 1);
}

}  // namespace
}  // namespace visclean
