// Differential suite for the incremental generate stage: the journal-driven
// similarity join (ErgCache::SyncSimJoin feeding GenerateAQuestions'
// maintained path) and the maintained CQG selection support
// (ErgCache::RefreshSelectSupport behind ErgView) must be bit-for-bit
// indistinguishable from the reference pipeline (ReferencePart::kErg,
// tests/support: scratch join, support-less views) — same A-questions, same
// published ERG, same CQG selections, same EMD trajectory, same final table
// — at any thread count.
//
// The sweep runs 3 seeds x 3 synthetic datasets x {gss, gss+, bnb, 0.5-bnb,
// random, single}; every configuration executes three times (reference/1,
// incremental/1, incremental/8) in lockstep, with a seeded repair storm
// mutating the working table between iterations to force journal
// churn through the join's insert/retract machinery. A dedicated case
// forces the dirty-fraction fallback, and a stepped in-situ test compares
// SyncSimJoin against a scratch SimilaritySelfJoin after every storm.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/erg_cache.h"
#include "core/session.h"
#include "datagen/books.h"
#include "datagen/nba.h"
#include "datagen/publications.h"
#include "support/reference_pipeline.h"
#include "text/sim_join.h"
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

// The generate-stage products down to float bits: the A-question list is
// the direct output of the maintained join, the ERG embeds the promoted
// questions, and the CQG is what the supported selectors chose.
std::string AQuestionsFingerprint(const std::vector<AQuestion>& qs) {
  std::string out = "A" + std::to_string(qs.size()) + "\n";
  for (const AQuestion& q : qs) {
    out += q.value_a + "~" + q.value_b + ":" + HexOf(q.similarity) + "\n";
  }
  return out;
}

std::string ErgFingerprint(const Erg& erg) {
  std::string out = "V" + std::to_string(erg.num_vertices()) + " E" +
                    std::to_string(erg.num_edges()) + "\n";
  for (size_t e = 0; e < erg.num_edges(); ++e) {
    const ErgEdge& edge = erg.edge(e);
    out += "e" + std::to_string(erg.vertex(edge.u).row) + "-" +
           std::to_string(erg.vertex(edge.v).row) + " pt=" +
           HexOf(edge.p_tuple) + " pa=" + HexOf(edge.p_attr) +
           (edge.has_attr ? " attr=" + edge.attr_question.value_a + "~" +
                                edge.attr_question.value_b
                          : "") +
           " b=" + HexOf(edge.benefit) + "\n";
  }
  return out;
}

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

constexpr size_t kBudget = 3;

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

// Same external-churn storm as the select differential: numeric rewrites,
// spelling copies (the join's insert + retract case), occasional row kills.
// Deterministic given (seed, iteration) and the table contents.
void ApplyRepairStorm(Table* table, uint64_t seed, size_t iteration) {
  Rng rng(seed * 7919 + iteration * 104729 + 17);
  size_t n = table->num_rows();
  if (n == 0) return;
  for (int burst = 0; burst < 8; ++burst) {
    size_t r = static_cast<size_t>(rng.UniformInt(0, n - 1));
    if (table->is_dead(r)) continue;
    size_t kind = static_cast<size_t>(rng.UniformInt(0, 2));
    if (kind == 0) {
      size_t donor = static_cast<size_t>(rng.UniformInt(0, n - 1));
      if (table->is_dead(donor)) continue;
      for (size_t c = 0; c < table->schema().num_columns(); ++c) {
        if (table->schema().column(c).type == ColumnType::kCategorical) {
          table->Set(r, c, table->at(donor, c));
          break;
        }
      }
    } else if (kind == 1) {
      for (size_t c = 0; c < table->schema().num_columns(); ++c) {
        if (table->schema().column(c).type == ColumnType::kNumeric) {
          table->Set(r, c, Value::Number(rng.UniformReal(0.0, 500.0)));
          break;
        }
      }
    } else if (rng.Bernoulli(0.25) && table->num_live_rows() > 10) {
      table->MarkDead(r);
    }
  }
}

// Everything observable about one run, down to float bits.
struct RunRecord {
  std::vector<std::string> iterations;
  std::string final_table;
  size_t join_delta_syncs = 0;
  size_t join_full = 0;
  size_t support_refreshes = 0;
  bool join_primed = false;
};

RunRecord RunVariant(const std::string& dataset, uint64_t seed,
                     const std::string& selector, size_t threads,
                     bool reference, bool storm) {
  DirtyDataset data = MakeData(dataset, seed);
  VisCleanSession session(&data, QueryFor(dataset),
                          SweepOptions(selector, seed, threads));
  if (reference) UseReferenceStages(session, ReferencePart::kErg);
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
    line += "\naq=" + AQuestionsFingerprint(session.questions().a_questions);
    line += "erg=" + ErgFingerprint(session.erg());
    record.iterations.push_back(std::move(line));
    if (storm && i + 1 < kBudget) {
      ApplyRepairStorm(&session.mutable_context().table, seed, i);
    }
  }
  record.final_table = TableFingerprint(session.table());
  const SimJoinStats& join = session.context().erg_cache.sim_join_stats();
  record.join_delta_syncs = join.delta_syncs;
  record.join_full = join.full_joins;
  record.support_refreshes =
      session.context().erg_cache.stats().support_refreshes;
  record.join_primed = session.context().erg_cache.join_primed();
  return record;
}

void SweepDataset(const std::string& dataset) {
  const std::vector<std::string> selectors = {"gss",     "gss+",   "bnb",
                                              "0.5-bnb", "random", "single"};
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (const std::string& sel : selectors) {
      SCOPED_TRACE(dataset + " seed=" + std::to_string(seed) + " sel=" + sel);
      bool storm = sel != "single";  // singles mutate plenty on their own
      RunRecord full = RunVariant(dataset, seed, sel, 1, /*reference=*/true,
                                  storm);
      RunRecord inc1 = RunVariant(dataset, seed, sel, 1, /*reference=*/false,
                                  storm);
      RunRecord inc8 = RunVariant(dataset, seed, sel, 8, /*reference=*/false,
                                  storm);
      ASSERT_EQ(full.iterations.size(), kBudget);
      EXPECT_EQ(full.iterations, inc1.iterations);
      EXPECT_EQ(full.iterations, inc8.iterations);
      EXPECT_EQ(full.final_table, inc1.final_table);
      EXPECT_EQ(full.final_table, inc8.final_table);
      // The reference must not touch the maintained join or the select
      // support; production must actually maintain the join (where the
      // query has a categorical X column at all — D3's Author is text, so
      // generate skips A-questions there) and must refresh the support
      // every round (composite strategy only — kSingle skips
      // Assemble/Select entirely).
      EXPECT_FALSE(full.join_primed);
      EXPECT_EQ(full.join_full, 0u);
      EXPECT_EQ(full.join_delta_syncs, 0u);
      EXPECT_EQ(full.support_refreshes, 0u);
      EXPECT_EQ(inc1.join_primed, inc8.join_primed);
      if (inc1.join_primed) {
        EXPECT_GT(inc1.join_full, 0u);
        EXPECT_GT(inc8.join_full, 0u);
      }
      if (sel != "single") {
        EXPECT_GT(inc1.support_refreshes, 0u);
        EXPECT_GT(inc8.support_refreshes, 0u);
      }
    }
  }
}

TEST(GenerateDifferentialTest, PublicationsSweep) { SweepDataset("D1"); }
TEST(GenerateDifferentialTest, NbaSweep) { SweepDataset("D2"); }
TEST(GenerateDifferentialTest, BooksSweep) { SweepDataset("D3"); }

// The incremental variant must service later iterations with join deltas,
// not silent rebuilds: with the fallback disabled (threshold 1.0 can never
// be exceeded) the only full join is the iteration-1 prime.
TEST(GenerateDifferentialTest, QuietRunServicesJoinWithDeltas) {
  DirtyDataset data = MakeData("D1", 11);
  SessionOptions options = SweepOptions("gss", 11, 1);
  options.erg_dirty_threshold = 1.0;
  VisCleanSession session(&data, QueryFor("D1"), options);
  ASSERT_TRUE(session.Initialize().ok());
  for (size_t i = 0; i < kBudget; ++i) ASSERT_TRUE(session.RunIteration().ok());
  const SimJoinStats& join = session.context().erg_cache.sim_join_stats();
  EXPECT_EQ(join.full_joins, 1u);  // the iteration-1 prime only
  EXPECT_EQ(join.fallback_full_joins, 0u);
  EXPECT_GT(join.delta_syncs, 0u);
}

// A storm heavy enough to cross the dirty-fraction threshold must trip the
// join's from-scratch fallback — and the sweep above already proves the
// outputs stay bit-identical when it fires.
TEST(GenerateDifferentialTest, HeavyStormTripsJoinFallback) {
  DirtyDataset data = MakeData("D1", 33);
  SessionOptions options = SweepOptions("gss", 33, 1);
  options.erg_dirty_threshold = 0.0;  // any dirt forces the fallback
  VisCleanSession session(&data, QueryFor("D1"), options);
  ASSERT_TRUE(session.Initialize().ok());
  ASSERT_TRUE(session.RunIteration().ok());
  ApplyRepairStorm(&session.mutable_context().table, 33, 0);
  Result<IterationTrace> trace = session.RunIteration();
  ASSERT_TRUE(trace.ok());
  EXPECT_GT(session.context().erg_cache.sim_join_stats().fallback_full_joins,
            0u);
  // The fallback surfaces in the per-iteration counters too.
  EXPECT_GT(trace.value().incremental.sim_join_fallbacks, 0u);
}

// Direct cache-level differential: drive SyncSimJoin through several steps
// of table churn; after every step its items must equal the value index's
// distinct live spellings and its pairs must match a scratch
// SimilaritySelfJoin bit-for-bit. This isolates the join maintenance from
// the pipeline.
TEST(GenerateDifferentialTest, SteppedSyncMatchesScratchJoinEveryStep) {
  DirtyDataset data = MakeData("D1", 21);
  Table table = data.dirty.Clone();
  Result<size_t> x_col = table.schema().IndexOf("Venue");
  ASSERT_TRUE(x_col.ok());

  ErgRequest request;
  request.x_column = x_col.value();
  SimJoinOptions join_options;
  join_options.threshold = 0.5;

  ErgCache cache;
  for (size_t step = 0; step < 6; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step > 0) ApplyRepairStorm(&table, 21, step);
    const IncrementalSimJoin& join =
        cache.SyncSimJoin(table, request, join_options, /*pool=*/nullptr);
    ASSERT_TRUE(join.primed());

    // Item set == the index's distinct live spellings, sorted.
    std::vector<std::string> expect_items;
    for (const auto& [spelling, rows] : cache.value_index().rows_of()) {
      expect_items.push_back(spelling);
    }
    EXPECT_EQ(join.items(), expect_items);

    // Pair set == scratch self-join, down to float bits and order.
    std::vector<SimJoinPair> want =
        SimilaritySelfJoin(join.items(), join_options);
    const std::vector<SimJoinPair>& got = join.Pairs();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].left_index, want[i].left_index) << "pair " << i;
      EXPECT_EQ(got[i].right_index, want[i].right_index) << "pair " << i;
      EXPECT_EQ(got[i].similarity, want[i].similarity) << "pair " << i;
    }
  }
  EXPECT_GT(cache.sim_join_stats().delta_syncs, 0u);
  EXPECT_GT(cache.sim_join_stats().inserts + cache.sim_join_stats().retracts,
            0u);
}

}  // namespace
}  // namespace visclean
