// Unit + property tests for src/text: tokenizers, similarity measures, and
// the prefix-filtering similarity join.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "text/sim_join.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace visclean {
namespace {

// -------------------------------------------------------------- tokenize --

TEST(TokenizeTest, WordTokensLowercaseAlnum) {
  std::vector<std::string> tokens = WordTokens("SIGMOD Conf. 2013!");
  EXPECT_EQ(tokens, (std::vector<std::string>{"sigmod", "conf", "2013"}));
}

TEST(TokenizeTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("  ... ").empty());
}

TEST(TokenizeTest, QGramsNormalizesWhitespaceAndCase) {
  std::vector<std::string> grams = QGrams("A  b", 2);
  EXPECT_EQ(grams, (std::vector<std::string>{"a ", " b"}));
}

TEST(TokenizeTest, QGramsShortString) {
  std::vector<std::string> grams = QGrams("ab", 3);
  EXPECT_EQ(grams, (std::vector<std::string>{"ab"}));
}

// ------------------------------------------------------------ similarity --

TEST(SimilarityTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(WordJaccard("SIGMOD Conf", "SIGMOD"), 0.5);
  EXPECT_DOUBLE_EQ(WordJaccard("a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(WordJaccard("a", "b"), 0.0);
  EXPECT_DOUBLE_EQ(WordJaccard("", ""), 1.0);
}

TEST(SimilarityTest, LevenshteinDistance) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
}

TEST(SimilarityTest, LevenshteinSimilarityNormalized) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abd"), 1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
}

TEST(SimilarityTest, JaroWinklerPrefixBoost) {
  double jaro = JaroSimilarity("MARTHA", "MARHTA");
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_NEAR(jaro, 0.9444, 1e-3);
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.9611, 1e-3);
}

TEST(SimilarityTest, JaroEdgeCases) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(SimilarityTest, CosineWordSimilarity) {
  EXPECT_DOUBLE_EQ(CosineWordSimilarity("a b", "a b"), 1.0);
  EXPECT_NEAR(CosineWordSimilarity("a b", "a c"), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(CosineWordSimilarity("a", ""), 0.0);
}

TEST(SimilarityTest, OverlapCoefficient) {
  // "SIGMOD" ⊂ "ACM SIGMOD" -> overlap 1.
  EXPECT_DOUBLE_EQ(OverlapCoefficient("ACM SIGMOD", "SIGMOD"), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient("a b", "c d"), 0.0);
}

// Property sweep: every measure stays in [0,1], is symmetric, and scores
// identical strings as 1.
// A case prints as its name, so the discovered test names stay the same
// from run to run (the default tuple printer shows load addresses).
struct SimilarityCase {
  const char* name;
  double (*fn)(std::string_view, std::string_view);
};
void PrintTo(const SimilarityCase& c, std::ostream* os) { *os << c.name; }

class SimilarityPropertyTest
    : public ::testing::TestWithParam<SimilarityCase> {};

TEST_P(SimilarityPropertyTest, RangeSymmetryIdentity) {
  auto fn = GetParam().fn;
  const std::vector<std::string> corpus = {
      "",          "SIGMOD",        "ACM SIGMOD",  "SIGMOD Conf.",
      "SIGMOD'13", "VLDB",          "Very Large Data Bases",
      "ICDE 2013", "IEEE ICDE Conf. 2015", "a", "ab ba",
  };
  for (const std::string& x : corpus) {
    EXPECT_DOUBLE_EQ(fn(x, x), 1.0) << x;
    for (const std::string& y : corpus) {
      double s = fn(x, y);
      EXPECT_GE(s, 0.0) << x << " vs " << y;
      EXPECT_LE(s, 1.0) << x << " vs " << y;
      EXPECT_NEAR(s, fn(y, x), 1e-12) << x << " vs " << y;
    }
  }
}

double QGramJaccard3(std::string_view a, std::string_view b) {
  return QGramJaccard(a, b, 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, SimilarityPropertyTest,
    ::testing::Values(
        SimilarityCase{"word_jaccard", &WordJaccard},
        SimilarityCase{"qgram_jaccard", &QGramJaccard3},
        SimilarityCase{"levenshtein", &LevenshteinSimilarity},
        SimilarityCase{"jaro", &JaroSimilarity},
        SimilarityCase{"jaro_winkler", &JaroWinklerSimilarity},
        SimilarityCase{"cosine", &CosineWordSimilarity},
        SimilarityCase{"overlap", &OverlapCoefficient}),
    [](const auto& info) { return std::string(info.param.name); });

// -------------------------------------------------------------- sim join --

TEST(SimJoinTest, FindsSynonymPairs) {
  std::vector<std::string> left = {"SIGMOD'13", "VLDB"};
  std::vector<std::string> right = {"SIGMOD 13", "Very Large Data Bases",
                                    "ICDE"};
  SimJoinOptions options;
  options.threshold = 0.5;
  std::vector<SimJoinPair> pairs = SimilarityJoin(left, right, options);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].left_index, 0u);
  EXPECT_EQ(pairs[0].right_index, 0u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);  // same token set
}

TEST(SimJoinTest, SelfJoinNoSelfPairs) {
  std::vector<std::string> items = {"a b c", "a b c", "x y"};
  std::vector<SimJoinPair> pairs = SimilaritySelfJoin(items, {});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].left_index, 0u);
  EXPECT_EQ(pairs[0].right_index, 1u);
}

TEST(SimJoinTest, ThresholdRespected) {
  std::vector<std::string> items = {"alpha beta gamma", "alpha beta delta",
                                    "omega"};
  SimJoinOptions options;
  options.threshold = 0.6;
  // Jaccard(0,1) = 2/4 = 0.5 < 0.6 -> excluded.
  EXPECT_TRUE(SimilaritySelfJoin(items, options).empty());
  options.threshold = 0.5;
  EXPECT_EQ(SimilaritySelfJoin(items, options).size(), 1u);
}

// Property: the prefix-filtered join returns exactly the pairs a naive
// quadratic scan finds, across thresholds.
class SimJoinEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(SimJoinEquivalenceTest, MatchesNaiveJoin) {
  double threshold = GetParam();
  Rng rng(77);
  const std::vector<std::string> vocab = {"data", "base", "query", "join",
                                          "index", "clean", "graph", "view"};
  std::vector<std::string> items;
  for (int i = 0; i < 40; ++i) {
    std::string s;
    int len = static_cast<int>(rng.UniformInt(1, 4));
    for (int w = 0; w < len; ++w) {
      if (w > 0) s += ' ';
      s += vocab[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vocab.size()) - 1))];
    }
    items.push_back(s);
  }

  SimJoinOptions options;
  options.threshold = threshold;
  std::vector<SimJoinPair> fast = SimilaritySelfJoin(items, options);

  size_t naive_count = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      if (WordJaccard(items[i], items[j]) >= threshold) ++naive_count;
    }
  }
  EXPECT_EQ(fast.size(), naive_count);
  for (const SimJoinPair& p : fast) {
    EXPECT_NEAR(p.similarity, WordJaccard(items[p.left_index], items[p.right_index]),
                1e-12);
    EXPECT_GE(p.similarity, threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SimJoinEquivalenceTest,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

// Naive O(n^2) reference self-join sharing the header's semantics: strings
// with empty token sets never join, exact set-Jaccard, the same
// (similarity desc, left, right) output order.
std::vector<SimJoinPair> NaiveSelfJoin(const std::vector<std::string>& items,
                                       const SimJoinOptions& options) {
  std::vector<std::set<std::string>> sets;
  sets.reserve(items.size());
  for (const std::string& s : items) {
    sets.push_back(TokenSet(options.use_qgrams ? QGrams(s, 3) : WordTokens(s)));
  }
  std::vector<SimJoinPair> out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (sets[i].empty()) continue;
    for (size_t j = i + 1; j < items.size(); ++j) {
      if (sets[j].empty()) continue;
      double sim = JaccardSimilarity(sets[i], sets[j]);
      if (sim >= options.threshold) out.push_back({i, j, sim});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SimJoinPair& a, const SimJoinPair& b) {
              if (a.similarity != b.similarity)
                return a.similarity > b.similarity;
              if (a.left_index != b.left_index)
                return a.left_index < b.left_index;
              return a.right_index < b.right_index;
            });
  return out;
}

// Exact bit-level equality against the reference: pair count, indices,
// similarity doubles, and output order.
void ExpectBitIdentical(const std::vector<SimJoinPair>& got,
                        const std::vector<SimJoinPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].left_index, want[i].left_index) << "pair " << i;
    EXPECT_EQ(got[i].right_index, want[i].right_index) << "pair " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "pair " << i;
  }
}

TEST(SimJoinEdgeCaseTest, QGramModeMatchesNaive) {
  std::vector<std::string> items = {"sigmod", "sigmond", "sigmod conf",
                                    "vldb",   "vldbj",   "icde 2013",
                                    "icde 13"};
  SimJoinOptions options;
  options.use_qgrams = true;
  for (double t : {0.2, 0.4, 0.6, 0.8}) {
    options.threshold = t;
    ExpectBitIdentical(SimilaritySelfJoin(items, options),
                       NaiveSelfJoin(items, options));
  }
}

TEST(SimJoinEdgeCaseTest, ThresholdOneEmitsExactDuplicatesOnly) {
  std::vector<std::string> items = {"a b c", "c b a", "a b", "x", "x!"};
  SimJoinOptions options;
  options.threshold = 1.0;
  std::vector<SimJoinPair> got = SimilaritySelfJoin(items, options);
  ExpectBitIdentical(got, NaiveSelfJoin(items, options));
  // "a b c" == "c b a" as token sets; "x" == "x!" after tokenization.
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].similarity, 1.0);
  EXPECT_EQ(got[1].similarity, 1.0);
}

TEST(SimJoinEdgeCaseTest, EmptyStringsNeverJoin) {
  // Empty and punctuation-only strings have empty token sets: by the
  // header's semantics they never pair, not even with each other.
  std::vector<std::string> items = {"", "  ", "...", "", "a b", "a b"};
  SimJoinOptions options;
  options.threshold = 0.1;
  std::vector<SimJoinPair> got = SimilaritySelfJoin(items, options);
  ExpectBitIdentical(got, NaiveSelfJoin(items, options));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].left_index, 4u);
  EXPECT_EQ(got[0].right_index, 5u);
}

TEST(SimJoinEdgeCaseTest, AllIdenticalSpellings) {
  std::vector<std::string> items(6, "acm sigmod");
  SimJoinOptions options;
  options.threshold = 0.9;
  std::vector<SimJoinPair> got = SimilaritySelfJoin(items, options);
  ExpectBitIdentical(got, NaiveSelfJoin(items, options));
  EXPECT_EQ(got.size(), 15u);  // C(6,2), all at similarity 1.0
}

TEST(SimJoinEdgeCaseTest, SingleAndEmptyInput) {
  SimJoinOptions options;
  options.threshold = 0.0;
  EXPECT_TRUE(SimilaritySelfJoin({}, options).empty());
  EXPECT_TRUE(SimilaritySelfJoin({"only one"}, options).empty());
  EXPECT_TRUE(SimilaritySelfJoin({""}, options).empty());
}

// ---------------------------------------------------- incremental join --

// The maintained join must stay bit-identical to a from-scratch
// SimilaritySelfJoin over its current item set after any sequence of
// inserts and retracts.
void ExpectMatchesScratch(const IncrementalSimJoin& join,
                          const SimJoinOptions& options) {
  std::vector<SimJoinPair> want = SimilaritySelfJoin(join.items(), options);
  ExpectBitIdentical(join.Pairs(), want);
}

TEST(IncrementalSimJoinTest, RebuildMatchesScratchJoin) {
  std::vector<std::string> items = {"acm sigmod", "icde", "sigmod conf",
                                    "vldb"};
  SimJoinOptions options;
  options.threshold = 0.3;
  IncrementalSimJoin join;
  join.Rebuild(items, options, nullptr);
  EXPECT_TRUE(join.primed());
  EXPECT_TRUE(join.OptionsMatch(options));
  EXPECT_EQ(join.items(), items);
  ExpectMatchesScratch(join, options);
  EXPECT_EQ(join.stats().full_joins, 1u);
  EXPECT_EQ(join.stats().fallback_full_joins, 0u);
}

TEST(IncrementalSimJoinTest, InsertFindsNewPartnersRetractDropsThem) {
  SimJoinOptions options;
  options.threshold = 0.4;
  IncrementalSimJoin join;
  join.Rebuild({"data cleaning", "query processing"}, options, nullptr);
  ASSERT_TRUE(join.Pairs().empty());

  // The newcomer shares one token with each resident — below threshold, so
  // still no pairs.
  join.Insert("data query");
  ExpectMatchesScratch(join, options);
  EXPECT_EQ(join.stats().inserts, 1u);
  EXPECT_TRUE(join.Pairs().empty());

  // "fresh" is unseen: it gets appended past the frozen frequency order (the
  // reordering hard case) and the join must still find its partner
  // ("fresh data query" vs "data query": 2/3 >= 0.4).
  join.Insert("fresh data query");
  ExpectMatchesScratch(join, options);
  EXPECT_GT(join.stats().token_appends, 0u);
  EXPECT_FALSE(join.Pairs().empty());

  join.Retract("fresh data query");
  join.Retract("data query");
  ExpectMatchesScratch(join, options);
  EXPECT_TRUE(join.Pairs().empty());
  EXPECT_EQ(join.stats().retracts, 2u);
  EXPECT_EQ(join.stats().pairs_removed, join.stats().pairs_added);
}

TEST(IncrementalSimJoinTest, RandomWalkStaysBitIdenticalToScratch) {
  Rng rng(123);
  const std::vector<std::string> vocab = {"data",  "base", "query", "join",
                                          "index", "clean", "graph", "view",
                                          "plan",  "cost"};
  std::vector<std::string> pool;
  for (int i = 0; i < 60; ++i) {
    std::string s;
    int len = static_cast<int>(rng.UniformInt(1, 4));
    for (int w = 0; w < len; ++w) {
      if (w > 0) s += ' ';
      s += vocab[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vocab.size()) - 1))];
    }
    pool.push_back(s);
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  SimJoinOptions options;
  options.threshold = 0.5;
  IncrementalSimJoin join;
  std::vector<std::string> seed(pool.begin(),
                                pool.begin() + static_cast<long>(pool.size() / 2));
  join.Rebuild(seed, options, nullptr);
  ExpectMatchesScratch(join, options);

  for (int step = 0; step < 80; ++step) {
    const std::string& s = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    if (join.Contains(s)) {
      join.Retract(s);
    } else {
      join.Insert(s);
    }
    ExpectMatchesScratch(join, options);
  }
  EXPECT_GT(join.stats().inserts, 0u);
  EXPECT_GT(join.stats().retracts, 0u);
}

TEST(IncrementalSimJoinTest, ApplyDeltaCountsOneSyncAndOptionsGateRebuild) {
  SimJoinOptions options;
  options.threshold = 0.5;
  IncrementalSimJoin join;
  join.Rebuild({"a b", "a c"}, options, nullptr);

  join.ApplyDelta({"a c"}, {"a b c", "b c"}, 0.25);
  ExpectMatchesScratch(join, options);
  EXPECT_EQ(join.stats().delta_syncs, 1u);
  EXPECT_DOUBLE_EQ(join.stats().last_dirty_fraction, 0.25);

  SimJoinOptions qgrams = options;
  qgrams.use_qgrams = true;
  EXPECT_FALSE(join.OptionsMatch(qgrams));
  join.Rebuild(join.items(), qgrams, nullptr, /*dirty_fallback=*/true);
  ExpectMatchesScratch(join, qgrams);
  EXPECT_EQ(join.stats().full_joins, 2u);
  EXPECT_EQ(join.stats().fallback_full_joins, 1u);

  join.Clear();
  EXPECT_FALSE(join.primed());
  EXPECT_EQ(join.num_items(), 0u);
  EXPECT_EQ(join.stats().full_joins, 0u);
}

}  // namespace
}  // namespace visclean
