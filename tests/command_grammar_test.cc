// Tokenizer + parser tests for the text command grammar: canonical
// round-trip fixpoint (parse → print → parse), full option coverage on
// CREATE, quoting/escaping of inline VQL and paths, case-insensitive
// keywords, and precise 1-based error columns on malformed commands.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/command.h"
#include "serve/wire.h"

namespace visclean {
namespace {

// Semantic equality via the binary codec: two requests are the same iff
// they encode to the same bytes (request_id pinned).
std::string BytesOf(WireRequest req) {
  req.request_id = 0;
  return EncodeRequest(req);
}

void ExpectFixpoint(const std::string& line) {
  SCOPED_TRACE(line);
  Result<WireRequest> first = ParseCommand(line);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string canonical = PrintCommand(first.value());
  Result<WireRequest> second = ParseCommand(canonical);
  ASSERT_TRUE(second.ok()) << second.status().ToString()
                           << "\ncanonical: " << canonical;
  // Same request through the canonical spelling...
  EXPECT_EQ(BytesOf(first.value()), BytesOf(second.value()));
  // ...and the canonical spelling is a true fixpoint of print ∘ parse.
  EXPECT_EQ(PrintCommand(second.value()), canonical);
}

TEST(CommandGrammarTest, SimpleCommandsRoundTrip) {
  ExpectFixpoint("STEP alice");
  ExpectFixpoint("ANSWER alice");
  ExpectFixpoint("STATUS bob.2");
  ExpectFixpoint("CLOSE carol-3");
  ExpectFixpoint("STATS");
  ExpectFixpoint("SNAPSHOT alice TO \"/tmp/a b/snap.bin\"");
  ExpectFixpoint("RESTORE alice FROM \"/tmp/a b/snap.bin\"");
  ExpectFixpoint(
      "CREATE alice ON D1 QUERY \"VISUALIZE BAR SELECT Venue, SUM(Citations)"
      " FROM D1 TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10\"");
}

TEST(CommandGrammarTest, KeywordsAreCaseInsensitiveOperandsAreNot) {
  Result<WireRequest> lower = ParseCommand("step Alice");
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(lower.value().type, WireRequestType::kStep);
  EXPECT_EQ(lower.value().session_id, "Alice");  // case preserved

  Result<WireRequest> mixed =
      ParseCommand("create x oN D1 qUeRy \"q\" wItH k=4 strategy=SINGLE");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed.value().options.k, 4u);
  EXPECT_EQ(mixed.value().options.strategy, QuestionStrategy::kSingle);

  EXPECT_EQ(PrintCommand(lower.value()), "STEP Alice");
}

TEST(CommandGrammarTest, EveryCreateOptionParsesAndPrints) {
  const std::string line =
      "CREATE s1 ON D2 QUERY \"q\" WITH "
      "k=6 budget=3 selector=0.5-bnb strategy=single single_m=8 threads=2 "
      "detection_threshold=0.41 erg_threshold=0.17 seed=1234 auto_merge=0.9 "
      "lambda=0.25 max_t=40 max_m=41 max_block=12 max_seed=999 trees=9 "
      "tree_depth=7 tree_min_split=3 tree_max_features=5 bootstrap=0.6 "
      "wrong_rate=0.05 completeness=0.8 user_seed=42 cost_cqg_base=1.5 "
      "cost_cqg_edge=2.5 cost_cqg_vertex=3.5 cost_t=4.5 cost_a=5.5 cost_m=6.5 "
      "cost_o=7.5";
  Result<WireRequest> parsed = ParseCommand(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WireRequest& req = parsed.value();
  EXPECT_EQ(req.options.k, 6u);
  EXPECT_EQ(req.options.budget, 3u);
  EXPECT_EQ(req.options.selector, "0.5-bnb");
  EXPECT_EQ(req.options.strategy, QuestionStrategy::kSingle);
  EXPECT_EQ(req.options.single_m, 8u);
  EXPECT_EQ(req.options.threads, 2u);
  EXPECT_DOUBLE_EQ(req.options.detection_dirty_threshold, 0.41);
  EXPECT_DOUBLE_EQ(req.options.erg_dirty_threshold, 0.17);
  EXPECT_EQ(req.options.seed, 1234u);
  EXPECT_DOUBLE_EQ(req.options.auto_merge_threshold, 0.9);
  EXPECT_DOUBLE_EQ(req.options.sim_join_lambda, 0.25);
  EXPECT_EQ(req.options.max_t_questions, 40u);
  EXPECT_EQ(req.options.max_m_questions, 41u);
  EXPECT_EQ(req.options.blocking_max_block, 12u);
  EXPECT_EQ(req.options.max_seed_examples, 999u);
  EXPECT_EQ(req.options.forest.num_trees, 9u);
  EXPECT_EQ(req.options.forest.tree.max_depth, 7u);
  EXPECT_EQ(req.options.forest.tree.min_samples_split, 3u);
  EXPECT_EQ(req.options.forest.tree.max_features, 5u);
  EXPECT_DOUBLE_EQ(req.options.forest.bootstrap_fraction, 0.6);
  EXPECT_DOUBLE_EQ(req.user_options.wrong_label_rate, 0.05);
  EXPECT_DOUBLE_EQ(req.user_options.completeness, 0.8);
  EXPECT_EQ(req.user_options.seed, 42u);
  EXPECT_DOUBLE_EQ(req.cost_model.cqg_base_seconds, 1.5);
  EXPECT_DOUBLE_EQ(req.cost_model.single_o_seconds, 7.5);

  // The grammar covers every Create parameter, so printing is lossless and
  // the canonical spelling is a fixpoint.
  ExpectFixpoint(line);
}

TEST(CommandGrammarTest, PrintOmitsDefaultOptionClauses) {
  WireRequest req;
  req.type = WireRequestType::kCreate;
  req.session_id = "a";
  req.dataset = "D1";
  req.vql = "q";
  EXPECT_EQ(PrintCommand(req), "CREATE a ON D1 QUERY \"q\"");

  req.options.k = 4;
  req.options.seed = 11;
  EXPECT_EQ(PrintCommand(req), "CREATE a ON D1 QUERY \"q\" WITH k=4 seed=11");
}

TEST(CommandGrammarTest, QuotingAndEscapingSurvivesRoundTrip) {
  WireRequest req;
  req.type = WireRequestType::kCreate;
  req.session_id = "a";
  req.dataset = "D1";
  req.vql = "say \"hi\"\\\n\ttwice\r";
  std::string printed = PrintCommand(req);
  Result<WireRequest> parsed = ParseCommand(printed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().vql, req.vql);

  Result<WireRequest> literal = ParseCommand(
      "CREATE a ON D1 QUERY \"say \\\"hi\\\"\\\\\\n\\ttwice\\r\"");
  ASSERT_TRUE(literal.ok()) << literal.status().ToString();
  EXPECT_EQ(literal.value().vql, req.vql);
}

TEST(CommandGrammarTest, SelectorValuesWithPunctuationAreBareWords) {
  for (const char* sel : {"gss", "gss+", "bnb", "0.5-bnb", "random"}) {
    Result<WireRequest> parsed = ParseCommand(
        std::string("CREATE a ON D1 QUERY \"q\" WITH selector=") + sel);
    ASSERT_TRUE(parsed.ok()) << sel;
    EXPECT_EQ(parsed.value().options.selector, sel);
  }
}

// Malformed commands fail with the exact 1-based byte column of the
// offending token in the message.
void ExpectErrorAt(const std::string& line, const std::string& fragment) {
  SCOPED_TRACE(line);
  Result<WireRequest> parsed = ParseCommand(line);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find(fragment), std::string::npos)
      << "actual: " << parsed.status().message();
}

TEST(CommandGrammarTest, ErrorsCarryPreciseColumns) {
  //        123456789012345678901234567890
  ExpectErrorAt("FLY alice", "col 1: unknown command 'FLY'");
  ExpectErrorAt("STEP", "col 5: expected session id");
  ExpectErrorAt("STEP a b", "col 8: unexpected trailing input");
  ExpectErrorAt("CREATE a D1", "col 10: expected ON");
  ExpectErrorAt("CREATE a ON D1 QUERY q", "col 22: expected quoted VQL text");
  ExpectErrorAt("SNAPSHOT a TO path", "col 15: expected quoted snapshot path");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH",
                "col 30: expected option clauses after WITH");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH k 4",
                "col 33: expected '=' after option 'k'");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH k=",
                "col 33: expected a value for option 'k'");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH zz=4",
                "col 31: unknown option 'zz'");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH k=four",
                "col 33: expected a non-negative integer");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH k=-4",
                "col 33: expected a non-negative integer");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH lambda=x",
                "col 38: expected a number");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH strategy=both",
                "col 40: expected COMPOSITE or SINGLE");
  ExpectErrorAt("CREATE a ON D1 QUERY \"unterminated",
                "col 22: unterminated string literal");
  ExpectErrorAt("CREATE a ON D1 QUERY \"bad \\z escape\"",
                "col 28: unknown escape");
  ExpectErrorAt("STEP @alice", "col 6: unexpected character '@'");
}

// The test-oracle selectors are not session options: the reference
// pipeline they once chose lives in the tests, so their keys are unknown.
TEST(CommandGrammarTest, OracleModeKeysAreUnknownOptions) {
  //        1234567890123456789012345678901234567
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH k=6 benefit=full",
                "col 35: unknown option 'benefit'");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH k=6 detection=full",
                "col 35: unknown option 'detection'");
  ExpectErrorAt("CREATE a ON D1 QUERY \"q\" WITH k=6 erg=auto",
                "col 35: unknown option 'erg'");
}

TEST(CommandGrammarTest, ResponseLinesPrintDeterministically) {
  WireResponse err;
  err.type = WireResponseType::kError;
  err.code = StatusCode::kResourceExhausted;
  err.message = "manager is at capacity";
  EXPECT_EQ(PrintResponseLine(err),
            "ERR RESOURCE_EXHAUSTED \"manager is at capacity\"");

  WireResponse ack;
  ack.type = WireResponseType::kAck;
  EXPECT_EQ(PrintResponseLine(ack), "OK ACK");

  WireResponse info;
  info.type = WireResponseType::kSessionInfo;
  info.info.id = "alice";
  info.info.dataset = "D1";
  info.info.iteration = 2;
  info.info.budget = 3;
  info.info.pending = true;
  info.info.resident = true;
  info.info.emd = 0.5;
  EXPECT_EQ(PrintResponseLine(info),
            "OK INFO id=alice dataset=D1 iteration=2 budget=3 pending=1 "
            "finished=0 resident=1 emd=0.5");

  WireResponse pending;
  pending.type = WireResponseType::kPending;
  pending.pending.iteration = 1;
  pending.pending.cqg_benefit = 2.25;
  pending.pending.cqg_vertices = 3;
  pending.pending.cqg_edges = 4;
  pending.pending.pool_questions = 17;
  EXPECT_EQ(PrintResponseLine(pending),
            "OK PENDING iteration=1 strategy=composite benefit=2.25 "
            "vertices=3 edges=4 pool=17");
}

TEST(CommandGrammarTest, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "PARSE_ERROR");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
}

// Lossless float spelling: parse → print preserves exact bit patterns even
// for values with no short decimal form.
TEST(CommandGrammarTest, FloatOptionsRoundTripBitExactly) {
  const std::string line =
      "CREATE a ON D1 QUERY \"q\" WITH lambda=0.1 auto_merge=0.30000000000000004";
  Result<WireRequest> first = ParseCommand(line);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(first.value().options.sim_join_lambda, 0.1);
  Result<WireRequest> second = ParseCommand(PrintCommand(first.value()));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(BytesOf(first.value()), BytesOf(second.value()));
}

}  // namespace
}  // namespace visclean
