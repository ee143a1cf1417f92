// Differential suite for the incremental benefit engine: the delta-based
// path (provenance index + dirty-set re-aggregation) must be bit-for-bit
// indistinguishable from the reference pipeline's re-render of Q(D) from
// scratch per candidate (ReferencePart::kBenefit, tests/support) — same EMD
// trajectory, same estimated benefits, same CQG selections, same final
// table — at any thread count.
//
// The sweep runs 3 seeds x 3 synthetic datasets x {gss, gss+, bnb, 0.5-bnb,
// random, single}; every configuration is executed three times (reference/
// serial, incremental/serial, incremental/8 threads) and compared on a
// per-iteration fingerprint.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/benefit_model.h"
#include "core/session.h"
#include "datagen/books.h"
#include "datagen/nba.h"
#include "datagen/publications.h"
#include "support/reference_pipeline.h"
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

// One GROUP-transform query per dataset (incremental-eligible shapes from
// Table V).
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

constexpr size_t kBudget = 2;

SessionOptions SweepOptions(const std::string& selector, uint64_t seed,
                            size_t threads) {
  SessionOptions o;
  o.k = 6;
  o.budget = kBudget;
  o.max_t_questions = 40;
  o.max_m_questions = 40;
  o.single_m = 8;
  o.forest.num_trees = 8;
  o.seed = seed;
  o.threads = threads;
  if (selector == "single") {
    o.strategy = QuestionStrategy::kSingle;
  } else {
    o.selector = selector;
  }
  return o;
}

// Everything observable about one run, down to float bits.
struct RunRecord {
  std::vector<std::string> iterations;
  std::string final_table;
  bool engine_primed = false;  ///< the BenefitEngine was ever Prepare()d
};

RunRecord RunVariant(const std::string& dataset, uint64_t seed,
                     const std::string& selector, size_t threads,
                     bool reference) {
  DirtyDataset data = MakeData(dataset, seed);
  VisCleanSession session(&data, QueryFor(dataset),
                          SweepOptions(selector, seed, threads));
  if (reference) UseReferenceStages(session, ReferencePart::kBenefit);
  EXPECT_TRUE(session.Initialize().ok());
  RunRecord record;
  for (size_t i = 0; i < kBudget; ++i) {
    Result<IterationTrace> trace = session.RunIteration();
    EXPECT_TRUE(trace.ok());
    if (!trace.ok()) break;
    std::string line = "emd=" + HexOf(trace.value().emd);
    line += " benefit=" + HexOf(trace.value().cqg_benefit);
    line += " asked=" + std::to_string(trace.value().questions_asked);
    line += " cqg=" + session.context().cqg.Fingerprint();
    record.iterations.push_back(std::move(line));
  }
  record.final_table = TableFingerprint(session.table());
  record.engine_primed = session.context().benefit_engine.primed();
  return record;
}

void SweepDataset(const std::string& dataset) {
  const std::vector<std::string> selectors = {"gss",     "gss+",   "bnb",
                                              "0.5-bnb", "random", "single"};
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (const std::string& sel : selectors) {
      SCOPED_TRACE(dataset + " seed=" + std::to_string(seed) + " sel=" + sel);
      RunRecord full = RunVariant(dataset, seed, sel, 1, /*reference=*/true);
      RunRecord inc1 = RunVariant(dataset, seed, sel, 1, /*reference=*/false);
      RunRecord inc8 = RunVariant(dataset, seed, sel, 8, /*reference=*/false);
      ASSERT_EQ(full.iterations.size(), kBudget);
      EXPECT_EQ(full.iterations, inc1.iterations);
      EXPECT_EQ(full.iterations, inc8.iterations);
      EXPECT_EQ(full.final_table, inc1.final_table);
      EXPECT_EQ(full.final_table, inc8.final_table);
      // The reference must never Prepare() the engine; production must
      // (composite strategy only — kSingle has no benefit stage).
      EXPECT_FALSE(full.engine_primed);
      EXPECT_EQ(inc1.engine_primed, sel != "single");
      EXPECT_EQ(inc8.engine_primed, sel != "single");
    }
  }
}

TEST(BenefitDifferentialTest, PublicationsSweep) { SweepDataset("D1"); }
TEST(BenefitDifferentialTest, NbaSweep) { SweepDataset("D2"); }
TEST(BenefitDifferentialTest, BooksSweep) { SweepDataset("D3"); }

// Direct EstimateBenefits-level differential on a mid-run context: after a
// few iterations the table carries accepted repairs, merges, and a non-empty
// journal — exactly the state the engine folds in via CommitVqlDelta. Every
// edge benefit must carry identical bits across (engine, threads).
TEST(BenefitDifferentialTest, MidRunEstimateBitsMatchAcrossModes) {
  DirtyDataset data = MakeData("D1", 21);
  VqlQuery query = QueryFor("D1");
  VisCleanSession session(&data, query, SweepOptions("gss", 21, 1));
  ASSERT_TRUE(session.Initialize().ok());
  for (size_t i = 0; i < 2; ++i) ASSERT_TRUE(session.RunIteration().ok());
  ASSERT_GT(session.erg().num_edges(), 0u);

  Result<size_t> x_col = session.table().schema().IndexOf(query.x_column);
  ASSERT_TRUE(x_col.ok());

  auto estimate = [&](size_t threads, bool use_engine) {
    Table table = session.table().Clone();
    Erg erg = session.erg();
    BenefitEngine engine;
    BenefitStats stats;
    BenefitOptions o;
    o.x_column = x_col.value();
    o.threads = threads;
    o.stats = &stats;
    if (use_engine) {
      engine.Prepare(query, &table);
      o.engine = &engine;
    }
    EstimateBenefits(query, &table, &erg, o);
    std::vector<double> benefits;
    for (size_t e = 0; e < erg.num_edges(); ++e) {
      benefits.push_back(erg.edge(e).benefit);
    }
    return std::make_pair(benefits, stats);
  };

  auto [ref, ref_stats] = estimate(1, false);
  auto [inc1, inc1_stats] = estimate(1, true);
  auto [inc8, inc8_stats] = estimate(8, true);

  ASSERT_EQ(ref.size(), inc1.size());
  ASSERT_EQ(ref.size(), inc8.size());
  for (size_t e = 0; e < ref.size(); ++e) {
    EXPECT_EQ(ref[e], inc1[e]) << "edge " << e;  // exact, not NEAR
    EXPECT_EQ(ref[e], inc8[e]) << "edge " << e;
  }
  // The incremental path must actually take deltas, not silently fall back.
  EXPECT_GT(inc1_stats.delta_evals, 0u);
  EXPECT_GT(inc8_stats.delta_evals, 0u);
  EXPECT_EQ(ref_stats.delta_evals, 0u);
}

// The engine's journal-driven commit must reproduce a from-scratch indexed
// rebuild exactly, including after merges (deaths), cell repairs, and
// appended rows.
TEST(BenefitDifferentialTest, CommitMatchesRebuildAfterMixedMutations) {
  DirtyDataset data = MakeData("D1", 31);
  VqlQuery query = QueryFor("D1");
  Table table = data.dirty.Clone();

  BenefitEngine engine;
  engine.Prepare(query, &table);
  ASSERT_TRUE(engine.incremental_ready());

  Result<size_t> x_col = table.schema().IndexOf("Venue");
  Result<size_t> y_col = table.schema().IndexOf("Citations");
  ASSERT_TRUE(x_col.ok());
  ASSERT_TRUE(y_col.ok());

  // Mixed accepted repairs through ordinary table mutations.
  table.Set(0, y_col.value(), Value::Number(999.0));
  table.Set(1, x_col.value(), table.at(2, x_col.value()));
  table.MarkDead(3);
  Row fresh = table.row(4);
  table.AppendRow(fresh);
  table.Set(5, y_col.value(), Value::Null());

  engine.Prepare(query, &table);  // journal-driven CommitVqlDelta
  EXPECT_GE(engine.delta_commits(), 1u);

  VisProvenance rebuilt;
  Result<VisData> full = ExecuteVqlIndexed(query, table, &rebuilt);
  ASSERT_TRUE(full.ok());

  ASSERT_EQ(engine.baseline().points.size(), full.value().points.size());
  for (size_t i = 0; i < full.value().points.size(); ++i) {
    EXPECT_EQ(engine.baseline().points[i].x, full.value().points[i].x);
    EXPECT_EQ(engine.baseline().points[i].y, full.value().points[i].y);
  }
  // The provenance index itself must agree group-for-group.
  ASSERT_EQ(engine.provenance().num_live_groups(), rebuilt.num_live_groups());
  for (const auto& [label, slot] : rebuilt.group_of_key) {
    auto it = engine.provenance().group_of_key.find(label);
    ASSERT_NE(it, engine.provenance().group_of_key.end()) << label;
    const GroupState& a = engine.provenance().groups[it->second];
    const GroupState& b = rebuilt.groups[slot];
    EXPECT_EQ(a.rows, b.rows) << label;
    EXPECT_EQ(a.sum, b.sum) << label;
    EXPECT_EQ(a.count, b.count) << label;
    EXPECT_EQ(a.numeric_key, b.numeric_key) << label;
  }
}

// Per-tuple queries (no GROUP/BIN) have no group structure: the engine must
// report !incremental_ready() and EstimateBenefits must fall back to full
// renders while still producing reference bits.
TEST(BenefitDifferentialTest, PerTupleQueryFallsBackToFullRenders) {
  NbaOptions o;
  o.num_entities = 40;
  o.seed = 5;
  DirtyDataset data = GenerateNba(o);
  VqlQuery query =
      ParseVql(
          "VISUALIZE BAR SELECT Player, Points FROM D2 SORT Y DESC LIMIT 10")
          .value();
  Table table = data.dirty.Clone();

  BenefitEngine engine;
  engine.Prepare(query, &table);
  EXPECT_FALSE(engine.incremental_ready());

  Erg erg;
  ErgVertex v0, v1;
  v0.row = 0;
  v1.row = 1;
  erg.AddVertex(v0);
  erg.AddVertex(v1);
  ErgEdge edge;
  edge.u = 0;
  edge.v = 1;
  edge.p_tuple = 0.7;
  erg.AddEdge(edge);
  Erg erg_ref = erg;

  BenefitStats stats;
  BenefitOptions with_engine;
  with_engine.engine = &engine;
  with_engine.stats = &stats;
  EstimateBenefits(query, &table, &erg, with_engine);

  Table ref_table = data.dirty.Clone();
  EstimateBenefits(query, &ref_table, &erg_ref, {});

  EXPECT_EQ(erg.edge(0).benefit, erg_ref.edge(0).benefit);
  EXPECT_EQ(stats.delta_evals, 0u);
  EXPECT_GT(stats.full_evals, 0u);
}

}  // namespace
}  // namespace visclean
