// Unit + property tests for src/datagen: the three dataset generators and
// their oracle bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <set>
#include <string>

#include "data/column_stats.h"
#include "datagen/books.h"
#include "datagen/nba.h"
#include "datagen/publications.h"

namespace visclean {
namespace {

DirtyDataset SmallPublications(uint64_t seed = 21) {
  PublicationsOptions options;
  options.num_entities = 300;
  options.seed = seed;
  return GeneratePublications(options);
}

TEST(PublicationsTest, SchemaMatchesPaper) {
  DirtyDataset data = SmallPublications();
  EXPECT_EQ(data.dirty.schema().num_columns(), 6u);
  EXPECT_TRUE(data.dirty.schema().Contains("Venue"));
  EXPECT_TRUE(data.dirty.schema().Contains("Citations"));
  EXPECT_EQ(data.dirty.schema(), data.clean.schema());
}

TEST(PublicationsTest, DuplicationFactorNearTarget) {
  PublicationsOptions options;
  options.num_entities = 2000;
  options.seed = 5;
  DirtyDataset data = GeneratePublications(options);
  double factor = static_cast<double>(data.dirty.num_rows()) /
                  static_cast<double>(data.clean.num_rows());
  EXPECT_NEAR(factor, options.duplication_mean, 0.25);
}

TEST(PublicationsTest, ErrorRatesNearProfile) {
  PublicationsOptions options;
  options.num_entities = 3000;
  options.seed = 6;
  DirtyDataset data = GeneratePublications(options);
  double n = static_cast<double>(data.dirty.num_rows());
  EXPECT_NEAR(data.injected_missing.size() / n, options.errors.missing_rate,
              0.02);
  // Outliers only injected when the cell was not blanked first.
  EXPECT_NEAR(data.injected_outliers.size() / n,
              options.errors.outlier_rate * (1 - options.errors.missing_rate),
              0.006);
}

TEST(PublicationsTest, DeterministicForSeed) {
  DirtyDataset a = SmallPublications(33);
  DirtyDataset b = SmallPublications(33);
  ASSERT_EQ(a.dirty.num_rows(), b.dirty.num_rows());
  for (size_t r = 0; r < a.dirty.num_rows(); ++r) {
    for (size_t c = 0; c < a.dirty.schema().num_columns(); ++c) {
      EXPECT_EQ(a.dirty.at(r, c), b.dirty.at(r, c));
    }
  }
}

TEST(PublicationsTest, VenueVariantsShareCanonical) {
  DirtyDataset data = SmallPublications();
  size_t venue_col = 3;
  // Every dirty venue spelling must resolve to its entity's clean venue.
  for (size_t r = 0; r < data.dirty.num_rows(); ++r) {
    const Value& v = data.dirty.at(r, venue_col);
    ASSERT_FALSE(v.is_null());
    std::string canonical = data.CanonicalOf(venue_col, v.ToDisplayString());
    EXPECT_EQ(canonical, data.TrueValue(r, venue_col).AsString())
        << "row " << r << " spelling " << v.ToDisplayString();
  }
}

TEST(PublicationsTest, MissingCellsAreNullAndRecoverable) {
  DirtyDataset data = SmallPublications();
  for (const auto& [row, col] : data.injected_missing) {
    EXPECT_TRUE(data.dirty.at(row, col).is_null());
    EXPECT_FALSE(data.TrueValue(row, col).is_null());
  }
}

TEST(PublicationsTest, OutliersAreFarFromTruth) {
  DirtyDataset data = SmallPublications();
  for (const auto& [row, col] : data.injected_outliers) {
    double dirty = data.dirty.at(row, col).ToNumberOr(0);
    double truth = data.TrueValue(row, col).ToNumberOr(0);
    double denom = std::max(std::fabs(truth), 1.0);
    EXPECT_GT(std::fabs(dirty - truth) / denom, 0.5)
        << "row " << row;
  }
}

TEST(PublicationsTest, EntityMappingConsistent) {
  DirtyDataset data = SmallPublications();
  ASSERT_EQ(data.entity_of.size(), data.dirty.num_rows());
  for (size_t e : data.entity_of) EXPECT_LT(e, data.clean.num_rows());
  // Every entity has at least one dirty copy.
  std::set<size_t> covered(data.entity_of.begin(), data.entity_of.end());
  EXPECT_EQ(covered.size(), data.clean.num_rows());
}

// Shared property checks across all three generators.
// A case prints as its name, so the discovered test names stay the same
// from run to run (the default tuple printer shows load addresses).
struct GeneratorCase {
  const char* name;
  std::function<DirtyDataset()> generate;
};
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class GeneratorPropertyTest
    : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorPropertyTest, OracleInvariantsHold) {
  DirtyDataset data = GetParam().generate();
  EXPECT_GT(data.dirty.num_rows(), data.clean.num_rows());
  ASSERT_EQ(data.entity_of.size(), data.dirty.num_rows());

  // Canonical maps are idempotent: canonical(canonical(x)) == canonical(x).
  for (const auto& [col, mapping] : data.canonical_of) {
    for (const auto& [variant, canonical] : mapping) {
      EXPECT_EQ(data.CanonicalOf(col, canonical), canonical);
    }
  }

  // Injected error coordinates are in range and disjoint.
  for (const auto& [row, col] : data.injected_missing) {
    ASSERT_LT(row, data.dirty.num_rows());
    ASSERT_LT(col, data.dirty.schema().num_columns());
    EXPECT_FALSE(data.injected_outliers.count({row, col}));
  }

  // Clean tables have no nulls in numeric measure columns that received
  // injections.
  std::set<size_t> error_cols;
  for (const auto& [row, col] : data.injected_missing) error_cols.insert(col);
  for (size_t col : error_cols) {
    for (size_t r = 0; r < data.clean.num_rows(); ++r) {
      EXPECT_FALSE(data.clean.at(r, col).is_null());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorPropertyTest,
    ::testing::Values(
        GeneratorCase{"publications",
                      [] {
                        PublicationsOptions o;
                        o.num_entities = 250;
                        return GeneratePublications(o);
                      }},
        GeneratorCase{"nba",
                      [] {
                        NbaOptions o;
                        o.num_entities = 250;
                        return GenerateNba(o);
                      }},
        GeneratorCase{"books",
                      [] {
                        BooksOptions o;
                        o.num_entities = 250;
                        return GenerateBooks(o);
                      }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(NbaTest, SeventeenAttributes) {
  NbaOptions options;
  options.num_entities = 100;
  DirtyDataset data = GenerateNba(options);
  EXPECT_EQ(data.dirty.schema().num_columns(), 17u);
  EXPECT_TRUE(data.dirty.schema().Contains("Team"));
  EXPECT_TRUE(data.dirty.schema().Contains("Points"));
}

TEST(BooksTest, SeventeenAttributes) {
  BooksOptions options;
  options.num_entities = 100;
  DirtyDataset data = GenerateBooks(options);
  EXPECT_EQ(data.dirty.schema().num_columns(), 17u);
  EXPECT_TRUE(data.dirty.schema().Contains("Publisher"));
  EXPECT_TRUE(data.dirty.schema().Contains("Rating"));
}

TEST(NbaTest, TeamVariantsResolve) {
  NbaOptions options;
  options.num_entities = 200;
  DirtyDataset data = GenerateNba(options);
  size_t team_col = 2;
  for (size_t r = 0; r < data.dirty.num_rows(); ++r) {
    EXPECT_EQ(
        data.CanonicalOf(team_col, data.dirty.at(r, team_col).ToDisplayString()),
        data.TrueValue(r, team_col).AsString());
  }
}

TEST(BooksTest, ErrorsSplitAcrossRatingColumns) {
  BooksOptions options;
  options.num_entities = 1500;
  DirtyDataset data = GenerateBooks(options);
  std::set<size_t> cols;
  for (const auto& [row, col] : data.injected_missing) cols.insert(col);
  EXPECT_TRUE(cols.count(3));  // Rating
  EXPECT_TRUE(cols.count(4));  // NumRatings
}

}  // namespace
}  // namespace visclean
