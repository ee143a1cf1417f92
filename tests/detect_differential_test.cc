// Differential suite for the incremental detection substrate: detection
// routed through the DetectionCache (journal-driven per-row deltas, pooled
// full scans, memoized features and sim-joins) must be bit-for-bit
// indistinguishable from the reference pipeline's legacy serial free
// functions (ReferencePart::kDetect, tests/support) — same candidate pairs,
// same question sets, same EMD trajectory, same final table — at any thread
// count.
//
// Three layers:
//  * whole-session lockstep: 3 synthetic datasets x 3 seeds x
//    {reference/serial, incremental/serial, incremental/8 threads},
//    compared per iteration;
//  * detector-level: FullScan then N random accepted repairs then Update
//    must equal a from-scratch FullScan and the legacy free functions;
//  * unit tests for the cache layers (kNN merge exactness, feature memo,
//    sim-join memo, dirty-fraction fallback, rolled-back resync).
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clean/detector.h"
#include "clean/missing_detector.h"
#include "clean/outlier_detector.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/detection_cache.h"
#include "core/session.h"
#include "datagen/books.h"
#include "datagen/nba.h"
#include "datagen/publications.h"
#include "em/blocking.h"
#include "em/pair_features.h"
#include "ml/knn.h"
#include "support/reference_pipeline.h"
#include "text/sim_join.h"
#include "text/tokenize.h"
#include "vql/parser.h"

namespace visclean {
namespace {

// Exact bits of a double, stable across platforms for equal values.
std::string HexOf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string TableFingerprint(const Table& t) {
  std::string out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out += t.is_dead(r) ? 'D' : 'L';
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      out += t.at(r, c).ToDisplayString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

std::string CandidatesFingerprint(
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  std::string out = std::to_string(pairs.size()) + ":";
  for (const auto& [a, b] : pairs) {
    out += std::to_string(a) + "," + std::to_string(b) + ";";
  }
  return out;
}

// Every field of every question, down to float bits.
std::string QuestionsFingerprint(const QuestionSet& q) {
  std::string out;
  for (const TQuestion& t : q.t_questions) {
    out += "T " + std::to_string(t.row_a) + " " + std::to_string(t.row_b) +
           " " + HexOf(t.probability) + "\n";
  }
  for (const AQuestion& a : q.a_questions) {
    out += "A " + std::to_string(a.column) + " " + a.value_a + " " +
           a.value_b + " " + HexOf(a.similarity) + "\n";
  }
  for (const MQuestion& m : q.m_questions) {
    out += "M " + std::to_string(m.row) + " " + std::to_string(m.column) +
           " " + HexOf(m.suggested) + "\n";
  }
  for (const OQuestion& o : q.o_questions) {
    out += "O " + std::to_string(o.row) + " " + std::to_string(o.column) +
           " " + HexOf(o.current) + " " + HexOf(o.suggested) + " " +
           HexOf(o.score) + "\n";
  }
  return out;
}

// Small instances of the three synthetic datasets (D1 publications, D2 NBA,
// D3 books), reseeded per sweep point.
DirtyDataset MakeData(const std::string& name, uint64_t seed) {
  if (name == "D1") {
    PublicationsOptions o;
    o.num_entities = 60;
    o.seed = seed;
    return GeneratePublications(o);
  }
  if (name == "D2") {
    NbaOptions o;
    o.num_entities = 60;
    o.seed = seed;
    return GenerateNba(o);
  }
  BooksOptions o;
  o.num_entities = 60;
  o.seed = seed;
  return GenerateBooks(o);
}

VqlQuery QueryFor(const std::string& name) {
  std::string text;
  if (name == "D1") {
    text =
        "VISUALIZE BAR SELECT Venue, SUM(Citations) FROM D1 "
        "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10";
  } else if (name == "D2") {
    text =
        "VISUALIZE PIE SELECT Team, SUM(Points) FROM D2 "
        "TRANSFORM GROUP(Team) SORT Y DESC LIMIT 10";
  } else {
    text =
        "VISUALIZE BAR SELECT Author, SUM(NumRatings) FROM D3 "
        "TRANSFORM GROUP(Author) SORT Y DESC LIMIT 5";
  }
  return ParseVql(text).value();
}

std::string YColumnFor(const std::string& name) {
  if (name == "D1") return "Citations";
  if (name == "D2") return "Points";
  return "NumRatings";
}

constexpr size_t kBudget = 3;

SessionOptions SweepOptions(uint64_t seed, size_t threads) {
  SessionOptions o;
  o.k = 6;
  o.budget = kBudget;
  o.max_t_questions = 40;
  o.max_m_questions = 40;
  o.forest.num_trees = 8;
  o.seed = seed;
  o.threads = threads;
  return o;
}

// Everything observable about one run, down to float bits.
struct RunRecord {
  std::vector<std::string> iterations;
  std::string final_table;
  DetectionStats stats;
};

RunRecord RunVariant(const std::string& dataset, uint64_t seed,
                     size_t threads, bool reference) {
  DirtyDataset data = MakeData(dataset, seed);
  VisCleanSession session(&data, QueryFor(dataset),
                          SweepOptions(seed, threads));
  if (reference) UseReferenceStages(session, ReferencePart::kDetect);
  EXPECT_TRUE(session.Initialize().ok());
  RunRecord record;
  for (size_t i = 0; i < kBudget; ++i) {
    Result<IterationTrace> trace = session.RunIteration();
    EXPECT_TRUE(trace.ok());
    if (!trace.ok()) break;
    std::string line = "emd=" + HexOf(trace.value().emd);
    line += " asked=" + std::to_string(trace.value().questions_asked);
    line += " cand=" + CandidatesFingerprint(session.context().candidates);
    line += "\n" + QuestionsFingerprint(session.questions());
    record.iterations.push_back(std::move(line));
  }
  record.final_table = TableFingerprint(session.table());
  record.stats = session.context().detection.stats();
  return record;
}

void SweepDataset(const std::string& dataset) {
  size_t delta_updates_seen = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(dataset + " seed=" + std::to_string(seed));
    RunRecord full = RunVariant(dataset, seed, 1, /*reference=*/true);
    RunRecord inc1 = RunVariant(dataset, seed, 1, /*reference=*/false);
    RunRecord inc8 = RunVariant(dataset, seed, 8, /*reference=*/false);
    ASSERT_EQ(full.iterations.size(), kBudget);
    EXPECT_EQ(full.iterations, inc1.iterations);
    EXPECT_EQ(full.iterations, inc8.iterations);
    EXPECT_EQ(full.final_table, inc1.final_table);
    EXPECT_EQ(full.final_table, inc8.final_table);
    // The reference must never touch the cache; production must use it.
    EXPECT_EQ(full.stats.full_scans + full.stats.delta_updates, 0u);
    EXPECT_GE(inc1.stats.full_scans, 1u);
    delta_updates_seen += inc1.stats.delta_updates + inc8.stats.delta_updates;
  }
  // The sweep is pointless if every incremental iteration fell back to full
  // scans.
  EXPECT_GT(delta_updates_seen, 0u);
}

TEST(DetectDifferentialTest, PublicationsSweep) { SweepDataset("D1"); }
TEST(DetectDifferentialTest, NbaSweep) { SweepDataset("D2"); }
TEST(DetectDifferentialTest, BooksSweep) { SweepDataset("D3"); }

// ------------------------------------------------------- detector lockstep

// Blocking options exactly as DetectStage builds them.
BlockingOptions BlockingFor(const Table& table) {
  BlockingOptions options;
  for (const ColumnSpec& col : table.schema().columns()) {
    if (col.type == ColumnType::kText) options.key_columns.push_back(col.name);
  }
  if (options.key_columns.empty()) {
    for (const ColumnSpec& col : table.schema().columns()) {
      if (col.type == ColumnType::kCategorical) {
        options.key_columns.push_back(col.name);
      }
    }
  }
  options.max_block_size = 16;
  return options;
}

// N random accepted repairs through ordinary table mutations: cell edits
// (text standardization, numeric fixes, nulling), merges (deaths), appends.
void ApplyRandomRepairs(Table* table, Rng* rng, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    std::vector<size_t> live = table->LiveRowIds();
    ASSERT_GE(live.size(), 4u);
    size_t r = live[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    size_t other = live[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    size_t col = static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(table->schema().num_columns()) - 1));
    switch (rng->UniformInt(0, 9)) {
      case 0:
        table->MarkDead(r);
        break;
      case 1:
        table->AppendRow(table->row(other));
        break;
      case 2:
        table->Set(r, col, Value::Null());
        break;
      default:
        // Standardization-style repair: copy the cell from another row.
        table->Set(r, col, table->at(other, col));
        break;
    }
  }
}

void MExpectEqual(const std::vector<MQuestion>& got,
                  const std::vector<MQuestion>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << i;
    EXPECT_EQ(got[i].column, want[i].column) << i;
    EXPECT_EQ(got[i].suggested, want[i].suggested) << i;  // exact, not NEAR
  }
}

void OExpectEqual(const std::vector<OQuestion>& got,
                  const std::vector<OQuestion>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << i;
    EXPECT_EQ(got[i].column, want[i].column) << i;
    EXPECT_EQ(got[i].current, want[i].current) << i;
    EXPECT_EQ(got[i].suggested, want[i].suggested) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
  }
}

// FullScan; N random repairs; Update(dirty) == from-scratch FullScan ==
// legacy free functions — serial and with an 8-thread pool.
TEST(DetectDifferentialTest, DetectorUpdateMatchesFullScanAfterRepairs) {
  ThreadPool pool(8);
  for (const std::string dataset : {"D1", "D2", "D3"}) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE(dataset + " seed=" + std::to_string(seed));
      DirtyDataset data = MakeData(dataset, seed);
      Table table = data.dirty.Clone();
      BlockingOptions blocking_options = BlockingFor(table);
      size_t y = table.schema().IndexOf(YColumnFor(dataset)).value();
      MissingDetectorOptions missing_options;
      missing_options.max_questions = 40;
      OutlierDetectorOptions outlier_options;

      RowTokenCache tokens_serial, tokens_pooled;
      BlockingDetector blk_serial, blk_pooled;
      MissingDetector mis_serial, mis_pooled;
      OutlierDetector out_serial, out_pooled;
      blk_serial.Configure(blocking_options);
      blk_pooled.Configure(blocking_options);
      mis_serial.Configure(y, missing_options, &tokens_serial);
      mis_pooled.Configure(y, missing_options, &tokens_pooled);
      out_serial.Configure(y, outlier_options, &tokens_serial);
      out_pooled.Configure(y, outlier_options, &tokens_pooled);

      blk_serial.FullScan(table, nullptr);
      blk_pooled.FullScan(table, &pool);
      mis_serial.FullScan(table, nullptr);
      mis_pooled.FullScan(table, &pool);
      out_serial.FullScan(table, nullptr);
      out_pooled.FullScan(table, &pool);
      EXPECT_EQ(blk_serial.pairs(), TokenBlocking(table, blocking_options));

      uint64_t watermark = table.mutation_count();
      Rng rng(seed * 997 + 13);
      ApplyRandomRepairs(&table, &rng, 30);
      std::vector<size_t> dirty = table.MutatedRowsSince(watermark);
      ASSERT_FALSE(dirty.empty());

      // The shared token caches are owned by the caller (DetectionCache in
      // the product path); invalidating dirty rows before Update is its job.
      tokens_serial.Invalidate(dirty);
      tokens_pooled.Invalidate(dirty);

      blk_serial.Update(table, dirty, nullptr);
      blk_pooled.Update(table, dirty, &pool);
      mis_serial.Update(table, dirty, nullptr);
      mis_pooled.Update(table, dirty, &pool);
      out_serial.Update(table, dirty, nullptr);
      out_pooled.Update(table, dirty, &pool);

      std::vector<std::pair<size_t, size_t>> reference =
          TokenBlocking(table, blocking_options);
      EXPECT_EQ(blk_serial.pairs(), reference);
      EXPECT_EQ(blk_pooled.pairs(), reference);

      std::vector<MQuestion> m_reference =
          DetectMissing(table, y, missing_options);
      MExpectEqual(mis_serial.questions(), m_reference);
      MExpectEqual(mis_pooled.questions(), m_reference);

      std::vector<OQuestion> o_reference =
          DetectOutliers(table, y, outlier_options);
      OExpectEqual(out_serial.questions(), o_reference);
      OExpectEqual(out_pooled.questions(), o_reference);
    }
  }
}

// ------------------------------------------------- DetectionCache lifecycle

DetectionRequest RequestFor(const Table& table, const std::string& dataset) {
  DetectionRequest request;
  request.blocking = BlockingFor(table);
  request.numeric_y = true;
  request.y_column = table.schema().IndexOf(YColumnFor(dataset)).value();
  request.missing.max_questions = 40;
  return request;
}

TEST(DetectionCacheTest, DeltaUpdateThenDirtyFractionFallback) {
  DirtyDataset data = MakeData("D1", 42);
  Table table = data.dirty.Clone();
  DetectionRequest request = RequestFor(table, "D1");

  DetectionCache cache;
  cache.BeginIteration(table, request, nullptr);
  EXPECT_EQ(cache.stats().full_scans, 1u);
  EXPECT_EQ(cache.stats().delta_updates, 0u);

  // One-cell repair -> delta path.
  table.Set(0, request.y_column, Value::Number(123.0));
  cache.BeginIteration(table, request, nullptr);
  EXPECT_EQ(cache.stats().delta_updates, 1u);
  EXPECT_EQ(cache.stats().last_dirty_rows, 1u);
  EXPECT_EQ(cache.candidates(), TokenBlocking(table, request.blocking));
  MExpectEqual(cache.m_questions(),
               DetectMissing(table, request.y_column, request.missing));
  OExpectEqual(cache.o_questions(),
               DetectOutliers(table, request.y_column, request.outlier));

  // Touch over threshold-fraction of the live rows -> forced full scan.
  std::vector<size_t> live = table.LiveRowIds();
  size_t touch = live.size() / 2 + 1;
  for (size_t i = 0; i < touch; ++i) {
    table.Set(live[i], request.y_column, table.at(live[i], request.y_column));
  }
  cache.BeginIteration(table, request, nullptr);
  EXPECT_EQ(cache.stats().fallback_full_scans, 1u);
  EXPECT_EQ(cache.stats().full_scans, 2u);
  EXPECT_GT(cache.stats().last_dirty_fraction, 0.35);
  EXPECT_EQ(cache.candidates(), TokenBlocking(table, request.blocking));
}

TEST(DetectionCacheTest, ConfigChangeForcesFullScan) {
  DirtyDataset data = MakeData("D2", 7);
  Table table = data.dirty.Clone();
  DetectionRequest request = RequestFor(table, "D2");

  DetectionCache cache;
  cache.BeginIteration(table, request, nullptr);
  request.blocking.max_block_size = 8;  // structural change
  cache.BeginIteration(table, request, nullptr);
  EXPECT_EQ(cache.stats().full_scans, 2u);
  EXPECT_EQ(cache.stats().delta_updates, 0u);
  EXPECT_EQ(cache.candidates(), TokenBlocking(table, request.blocking));
}

TEST(DetectionCacheTest, ResyncSkipsRolledBackJournalNoise) {
  DirtyDataset data = MakeData("D3", 9);
  Table table = data.dirty.Clone();
  DetectionRequest request = RequestFor(table, "D3");

  DetectionCache cache;
  cache.BeginIteration(table, request, nullptr);
  // Speculative repair that rolls back: set a cell to its own value — the
  // journal records it, the table state does not change.
  table.Set(2, request.y_column, table.at(2, request.y_column));
  cache.ResyncRolledBack(table);
  EXPECT_EQ(cache.watermark(), table.mutation_count());
  cache.BeginIteration(table, request, nullptr);
  EXPECT_EQ(cache.stats().last_dirty_rows, 0u);
  EXPECT_EQ(cache.stats().delta_updates, 1u);
}

// --------------------------------------------------------- cache unit tests

std::vector<std::set<std::string>> Tokenized(
    const std::vector<std::string>& items) {
  std::vector<std::set<std::string>> out;
  out.reserve(items.size());
  for (const std::string& s : items) out.push_back(TokenSet(WordTokens(s)));
  return out;
}

std::vector<const std::set<std::string>*> Pointers(
    const std::vector<std::set<std::string>>& sets) {
  std::vector<const std::set<std::string>*> out;
  out.reserve(sets.size());
  for (const auto& s : sets) out.push_back(&s);
  return out;
}

TEST(TokenKnnCacheTest, MergeEpochMatchesFreshRecompute) {
  std::vector<std::string> items = {
      "deep learning graphics",  "deep learning systems",
      "database cleaning rules", "visual cleaning questions",
      "graph systems learning",  "cleaning questions systems"};
  std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  std::vector<std::set<std::string>> sets = Tokenized(items);

  TokenKnnCache cache;
  std::vector<std::vector<Neighbor>> before =
      cache.BatchQuery(rows, 3, rows, Pointers(sets), nullptr);
  EXPECT_EQ(cache.full_queries(), rows.size());

  // Row 2 changes; every other query keeps its cached list and merges row 2.
  items[2] = "visual systems graphics";
  sets = Tokenized(items);
  cache.BeginEpoch({2});
  std::vector<std::vector<Neighbor>> merged =
      cache.BatchQuery(rows, 3, rows, Pointers(sets), nullptr);
  EXPECT_GT(cache.merged_queries(), 0u);

  TokenKnnCache fresh;
  std::vector<std::vector<Neighbor>> reference =
      fresh.BatchQuery(rows, 3, rows, Pointers(sets), nullptr);
  ASSERT_EQ(merged.size(), reference.size());
  for (size_t q = 0; q < merged.size(); ++q) {
    ASSERT_EQ(merged[q].size(), reference[q].size()) << q;
    for (size_t i = 0; i < merged[q].size(); ++i) {
      EXPECT_EQ(merged[q][i].index, reference[q][i].index) << q;
      EXPECT_EQ(merged[q][i].distance, reference[q][i].distance) << q;
    }
  }
}

// The 2k slack: lists must absorb member deaths/appends/edits without a
// recompute while staying exact, and recompute once the slack runs out.
TEST(TokenKnnCacheTest, SlackAbsorbsDeathsAppendsAndEdits) {
  const std::vector<std::string> vocab = {"alpha", "beta",  "gamma", "delta",
                                          "eps",   "zeta",  "eta",   "theta"};
  auto make = [&](size_t i) {
    return vocab[i % 8] + " " + vocab[(i / 2) % 8] + " " + vocab[(i / 3) % 8];
  };
  std::vector<std::string> items;
  for (size_t i = 0; i < 20; ++i) items.push_back(make(i));
  std::vector<std::set<std::string>> sets = Tokenized(items);
  std::vector<size_t> rows(items.size());
  std::iota(rows.begin(), rows.end(), 0);

  TokenKnnCache cache;
  cache.BatchQuery(rows, 2, rows, Pointers(sets), nullptr);  // prime: 2k = 4

  // Epoch 1: row 7 dies, row 20 is appended, row 3 is rewritten.
  items[3] = "zeta eta theta";
  items.push_back("alpha beta gamma");
  sets = Tokenized(items);
  std::vector<size_t> corpus;
  std::vector<const std::set<std::string>*> ptrs;
  for (size_t r = 0; r < items.size(); ++r) {
    if (r == 7) continue;
    corpus.push_back(r);
    ptrs.push_back(&sets[r]);
  }
  cache.BeginEpoch({3, 7, 20});
  std::vector<std::vector<Neighbor>> merged =
      cache.BatchQuery(corpus, 2, corpus, ptrs, nullptr);
  EXPECT_GT(cache.merged_queries(), 0u);

  TokenKnnCache fresh;
  std::vector<std::vector<Neighbor>> reference =
      fresh.BatchQuery(corpus, 2, corpus, ptrs, nullptr);
  ASSERT_EQ(merged.size(), reference.size());
  for (size_t q = 0; q < merged.size(); ++q) {
    ASSERT_EQ(merged[q].size(), reference[q].size()) << q;
    for (size_t i = 0; i < merged[q].size(); ++i) {
      EXPECT_EQ(merged[q][i].index, reference[q][i].index) << q;
      EXPECT_EQ(merged[q][i].distance, reference[q][i].distance) << q;
    }
  }

  // Epoch 2: rewrite over half the corpus — many lists exhaust their slack
  // and must recompute; results still match a fresh cache exactly.
  std::vector<size_t> dirty;
  for (size_t i = 0; i < 12; ++i) {
    items[corpus[i]] = "omega " + vocab[i % 8];
    dirty.push_back(corpus[i]);
  }
  sets = Tokenized(items);
  ptrs.clear();
  for (size_t r : corpus) ptrs.push_back(&sets[r]);
  size_t full_before = cache.full_queries();
  cache.BeginEpoch(dirty);
  merged = cache.BatchQuery(corpus, 2, corpus, ptrs, nullptr);
  EXPECT_GT(cache.full_queries(), full_before);

  TokenKnnCache fresh2;
  reference = fresh2.BatchQuery(corpus, 2, corpus, ptrs, nullptr);
  ASSERT_EQ(merged.size(), reference.size());
  for (size_t q = 0; q < merged.size(); ++q) {
    ASSERT_EQ(merged[q].size(), reference[q].size()) << q;
    for (size_t i = 0; i < merged[q].size(); ++i) {
      EXPECT_EQ(merged[q][i].index, reference[q][i].index) << q;
      EXPECT_EQ(merged[q][i].distance, reference[q][i].distance) << q;
    }
  }
}

TEST(PairFeatureCacheTest, BatchMatchesDirectAndInvalidates) {
  DirtyDataset data = MakeData("D1", 3);
  const Table& table = data.dirty;
  std::vector<std::pair<size_t, size_t>> pairs = {{0, 1}, {0, 2}, {1, 3}};

  PairFeatureCache cache;
  std::vector<const std::vector<double>*> got =
      cache.Batch(table, pairs, nullptr);
  ASSERT_EQ(got.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(*got[i], PairFeatures(table, pairs[i].first, pairs[i].second));
  }
  EXPECT_EQ(cache.misses(), pairs.size());

  cache.Batch(table, pairs, nullptr);
  EXPECT_EQ(cache.hits(), pairs.size());
  EXPECT_EQ(cache.misses(), pairs.size());

  cache.Invalidate({0});  // kills (0,1) and (0,2), keeps (1,3)
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RowTokenCacheTest, EnsureComputesOnceAndInvalidatesPerRow) {
  DirtyDataset data = MakeData("D2", 4);
  const Table& table = data.dirty;
  RowTokenCache cache;
  cache.Ensure(table, {0, 1, 2}, nullptr);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.tokens(1), TokenSet(WordTokens(RowAsString(table, 1))));
  cache.Invalidate({1});
  EXPECT_EQ(cache.size(), 2u);
  cache.Ensure(table, {0, 1, 2}, nullptr);
  EXPECT_EQ(cache.size(), 3u);
}

// The parallel sim-join probe must match the serial one bit for bit.
TEST(SimJoinParallelTest, PooledJoinMatchesSerial) {
  std::vector<std::string> items;
  for (int i = 0; i < 64; ++i) {
    items.push_back("token" + std::to_string(i % 7) + " shared word " +
                    std::to_string(i % 3));
  }
  SimJoinOptions options;
  options.threshold = 0.4;
  ThreadPool pool(8);
  std::vector<SimJoinPair> serial = SimilaritySelfJoin(items, options);
  std::vector<SimJoinPair> pooled = SimilaritySelfJoin(items, options, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].left_index, pooled[i].left_index);
    EXPECT_EQ(serial[i].right_index, pooled[i].right_index);
    EXPECT_EQ(serial[i].similarity, pooled[i].similarity);
  }
}

}  // namespace
}  // namespace visclean
