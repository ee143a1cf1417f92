// Differential suite for the incremental select stage: journal-driven ERG
// maintenance (QuestionStore deltas + ErgCache insert-retract) must be
// bit-for-bit indistinguishable from the reference pipeline's from-scratch
// assembly every iteration (ReferencePart::kErg, tests/support) — same
// published ERG, same CQG selections, same EMD trajectory, same final
// table — at any thread count.
//
// The sweep runs 3 seeds x 3 synthetic datasets x {gss, gss+, bnb, 0.5-bnb,
// random, single}; every configuration executes three times (reference/1,
// incremental/1, incremental/8) in lockstep. Between iterations a seeded
// repair storm mutates the working table directly (cell rewrites,
// spelling copies, row kills), forcing journal churn through the value
// index's fold/fallback machinery — the storm is identical across variants
// because the tables are (that is the invariant under test).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/erg_cache.h"
#include "core/session.h"
#include "em/em_model.h"
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

// The published graph down to float bits: canonical form means two
// bit-identical assemblies stringify identically.
std::string ErgFingerprint(const Erg& erg) {
  std::string out = "V" + std::to_string(erg.num_vertices()) + " E" +
                    std::to_string(erg.num_edges()) + "\n";
  for (size_t v = 0; v < erg.num_vertices(); ++v) {
    const ErgVertex& vertex = erg.vertex(v);
    out += "v" + std::to_string(vertex.row);
    if (vertex.missing.has_value()) {
      out += " m" + std::to_string(vertex.missing->column) + ":" +
             HexOf(vertex.missing->suggested);
    }
    if (vertex.outlier.has_value()) {
      out += " o" + std::to_string(vertex.outlier->column) + ":" +
             HexOf(vertex.outlier->score);
    }
    out += "\n";
  }
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

// A burst of external repairs applied directly to the working table between
// iterations: numeric rewrites, spelling copies (the X-index's insert +
// retract case), and the occasional row kill. Deterministic given (seed,
// iteration) and the table contents — identical across lockstepped variants.
void ApplyRepairStorm(Table* table, uint64_t seed, size_t iteration) {
  Rng rng(seed * 7919 + iteration * 104729 + 17);
  size_t n = table->num_rows();
  if (n == 0) return;
  for (int burst = 0; burst < 8; ++burst) {
    size_t r = static_cast<size_t>(rng.UniformInt(0, n - 1));
    if (table->is_dead(r)) continue;
    size_t kind = static_cast<size_t>(rng.UniformInt(0, 2));
    if (kind == 0) {
      // Copy another live row's spelling into a categorical/text cell.
      size_t donor = static_cast<size_t>(rng.UniformInt(0, n - 1));
      if (table->is_dead(donor)) continue;
      for (size_t c = 0; c < table->schema().num_columns(); ++c) {
        if (table->schema().column(c).type == ColumnType::kCategorical) {
          table->Set(r, c, table->at(donor, c));
          break;
        }
      }
    } else if (kind == 1) {
      // Rewrite the first numeric cell.
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
  size_t delta_updates = 0;
  size_t full_builds = 0;
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
    line += "\nerg=" + ErgFingerprint(session.erg());
    record.iterations.push_back(std::move(line));
    if (storm && i + 1 < kBudget) {
      ApplyRepairStorm(&session.mutable_context().table, seed, i);
    }
  }
  record.final_table = TableFingerprint(session.table());
  record.delta_updates = session.context().erg_cache.stats().delta_updates;
  record.full_builds = session.context().erg_cache.stats().full_builds;
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
      if (sel != "single") {
        // The incremental variants must actually maintain the graph, not
        // silently rebuild every iteration (first build is always full).
        EXPECT_GT(inc1.delta_updates, 0u);
        EXPECT_GT(inc8.delta_updates, 0u);
      }
      // The reference never touches the ErgCache's working graph.
      EXPECT_EQ(full.delta_updates, 0u);
      EXPECT_EQ(full.full_builds, 0u);
    }
  }
}

TEST(SelectDifferentialTest, PublicationsSweep) { SweepDataset("D1"); }
TEST(SelectDifferentialTest, NbaSweep) { SweepDataset("D2"); }
TEST(SelectDifferentialTest, BooksSweep) { SweepDataset("D3"); }

// Direct cache-level differential: drive BeginIteration through several
// steps of table churn + question churn, and after every step the published
// graph must match AssembleFull from the identical (table, pools, EM)
// state bit-for-bit. This isolates the delta maintenance from the pipeline
// (no ask-stage mutations between assembly and comparison).
TEST(SelectDifferentialTest, SteppedCacheMatchesScratchAssemblyEveryStep) {
  DirtyDataset data = MakeData("D1", 21);
  Table table = data.dirty.Clone();
  Result<size_t> x_col = table.schema().IndexOf("Venue");
  ASSERT_TRUE(x_col.ok());

  ForestOptions forest;
  forest.num_trees = 8;
  EmModel em(forest);
  std::vector<std::pair<size_t, size_t>> candidates;
  for (size_t r = 0; r + 1 < table.num_rows() && candidates.size() < 60;
       r += 2) {
    candidates.push_back({r, r + 1});
  }
  em.Retrain(table, candidates, /*seed=*/21, nullptr, nullptr);

  ErgRequest request;
  request.x_column = x_col.value();
  request.max_promoted_a = 10;  // small cap so promotion churn is exercised

  QuestionStore store;
  ErgCache cache;
  Erg published;
  for (size_t step = 0; step < 5; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step > 0) ApplyRepairStorm(&table, 21, step);

    // A churning question set: a sliding window of T-pairs, A-questions
    // over live spellings (some persisting, some new), and a few M/O.
    QuestionSet set;
    for (size_t j = 0; j < 12; ++j) {
      size_t a = (step * 3 + j * 5) % table.num_rows();
      size_t b = (a + 7 + step) % table.num_rows();
      if (a == b || table.is_dead(a) || table.is_dead(b)) continue;
      set.t_questions.push_back(
          {a, b, em.MatchProbability(table, std::min(a, b), std::max(a, b))});
    }
    std::vector<std::string> spellings;
    for (size_t r = 0; r < table.num_rows() && spellings.size() < 8; ++r) {
      if (table.is_dead(r)) continue;
      const Value& v = table.at(r, x_col.value());
      if (!v.is_null()) spellings.push_back(v.ToDisplayString());
    }
    for (size_t j = 0; j + 1 < spellings.size(); j += 2) {
      AQuestion q;
      q.column = x_col.value();
      q.value_a = spellings[j];
      q.value_b = spellings[j + 1];
      q.similarity = 0.5 + 0.04 * static_cast<double>(j + step);
      if (q.value_a != q.value_b) set.a_questions.push_back(q);
    }
    set.m_questions.push_back({(step * 11) % table.num_rows(), 1, 4.5});
    set.o_questions.push_back(
        {(step * 13) % table.num_rows(), 1, 100.0, 5.0, 0.8});

    store.Ingest(set);
    cache.BeginIteration(table, store, em, request, /*features=*/nullptr,
                         /*pool=*/nullptr, &published);
    Erg scratch;
    ErgCache::AssembleFull(table, store, em, request, &scratch);
    EXPECT_EQ(ErgFingerprint(scratch), ErgFingerprint(published));
  }
  EXPECT_GT(cache.stats().delta_updates, 0u);
  EXPECT_GT(cache.stats().edges_inserted, 0u);
  EXPECT_GT(cache.stats().edges_retracted, 0u);
}

// A storm heavy enough to cross the dirty-fraction threshold must trip the
// pooled full rebuild (fallback), and the graph must still match scratch.
TEST(SelectDifferentialTest, HeavyStormTripsFallbackFullBuild) {
  DirtyDataset data = MakeData("D1", 33);
  VqlQuery query = QueryFor("D1");
  SessionOptions options = SweepOptions("gss", 33, 1);
  options.erg_dirty_threshold = 0.0;  // any dirt forces the fallback
  VisCleanSession session(&data, query, options);
  ASSERT_TRUE(session.Initialize().ok());
  ASSERT_TRUE(session.RunIteration().ok());
  ApplyRepairStorm(&session.mutable_context().table, 33, 0);
  ASSERT_TRUE(session.RunIteration().ok());
  EXPECT_GT(session.context().erg_cache.stats().fallback_full_builds, 0u);
}

}  // namespace
}  // namespace visclean
