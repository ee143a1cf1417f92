#include "net/command.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace visclean {

namespace {

// ---- Number formatting: shortest decimal spelling that strtod maps back
// to the exact same bits, so printed commands and responses are lossless ----

std::string FormatU64(uint64_t v) { return std::to_string(v); }

std::string FormatF64(double v) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double back = std::strtod(buf, nullptr);
    if (std::memcmp(&back, &v, sizeof(double)) == 0) return buf;
  }
  return buf;  // %.17g always round-trips for finite doubles
}

// ---- Tokenizer ----

enum class TokKind { kWord, kString, kEquals, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   ///< word spelling or decoded string literal
  size_t col = 0;     ///< 1-based byte column of the token's first char
};

bool IsWordChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '+' ||
         c == '#' || c == '-';
}

Status ErrAt(size_t col, const std::string& what) {
  return Status::ParseError(StrFormat("col %zu: %s", col, what.c_str()));
}

Result<std::vector<Token>> Tokenize(const std::string& line) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      ++i;
      continue;
    }
    if (c == '"') {
      Token tok;
      tok.kind = TokKind::kString;
      tok.col = i + 1;
      ++i;
      bool closed = false;
      while (i < line.size()) {
        char d = line[i];
        if (d == '"') {
          ++i;
          closed = true;
          break;
        }
        if (d == '\\') {
          if (i + 1 >= line.size()) {
            return ErrAt(i + 1, "dangling escape in string literal");
          }
          char e = line[i + 1];
          switch (e) {
            case '"': tok.text += '"'; break;
            case '\\': tok.text += '\\'; break;
            case 'n': tok.text += '\n'; break;
            case 't': tok.text += '\t'; break;
            case 'r': tok.text += '\r'; break;
            default:
              return ErrAt(i + 2,
                           StrFormat("unknown escape '\\%c' in string", e));
          }
          i += 2;
          continue;
        }
        tok.text += d;
        ++i;
      }
      if (!closed) return ErrAt(tok.col, "unterminated string literal");
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '=') {
      out.push_back({TokKind::kEquals, "=", i + 1});
      ++i;
      continue;
    }
    if (IsWordChar(c)) {
      Token tok;
      tok.kind = TokKind::kWord;
      tok.col = i + 1;
      while (i < line.size() && IsWordChar(line[i])) tok.text += line[i++];
      out.push_back(std::move(tok));
      continue;
    }
    return ErrAt(i + 1, StrFormat("unexpected character '%c'", c));
  }
  out.push_back({TokKind::kEnd, "", line.size() + 1});
  return out;
}

std::string UpperAscii(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

// ---- Parser ----

class CommandParser {
 public:
  explicit CommandParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<WireRequest> Parse() {
    const Token& head = Peek();
    if (head.kind != TokKind::kWord) {
      return ErrAt(head.col, "expected a command keyword");
    }
    std::string verb = UpperAscii(head.text);
    Next();
    WireRequest req;
    if (verb == "CREATE") {
      req.type = WireRequestType::kCreate;
      VC_RETURN_IF_ERROR(TakeWord(&req.session_id, "session id"));
      VC_RETURN_IF_ERROR(TakeKeyword("ON"));
      VC_RETURN_IF_ERROR(TakeWord(&req.dataset, "dataset name"));
      VC_RETURN_IF_ERROR(TakeKeyword("QUERY"));
      VC_RETURN_IF_ERROR(TakeString(&req.vql, "quoted VQL text"));
      if (PeekIsKeyword("WITH")) {
        Next();
        VC_RETURN_IF_ERROR(ParseOptions(req));
      }
    } else if (verb == "STEP" || verb == "ANSWER" || verb == "STATUS" ||
               verb == "CLOSE") {
      req.type = verb == "STEP" ? WireRequestType::kStep
                 : verb == "ANSWER"
                     ? WireRequestType::kAnswer
                     : verb == "STATUS" ? WireRequestType::kGetStatus
                                        : WireRequestType::kClose;
      VC_RETURN_IF_ERROR(TakeWord(&req.session_id, "session id"));
    } else if (verb == "SNAPSHOT") {
      req.type = WireRequestType::kSnapshot;
      VC_RETURN_IF_ERROR(TakeWord(&req.session_id, "session id"));
      VC_RETURN_IF_ERROR(TakeKeyword("TO"));
      VC_RETURN_IF_ERROR(TakeString(&req.path, "quoted snapshot path"));
    } else if (verb == "RESTORE") {
      req.type = WireRequestType::kRestore;
      VC_RETURN_IF_ERROR(TakeWord(&req.session_id, "session id"));
      VC_RETURN_IF_ERROR(TakeKeyword("FROM"));
      VC_RETURN_IF_ERROR(TakeString(&req.path, "quoted snapshot path"));
    } else if (verb == "STATS") {
      req.type = WireRequestType::kStats;
    } else if (verb == "EXPORT") {
      req.type = WireRequestType::kExportState;
      VC_RETURN_IF_ERROR(TakeWord(&req.session_id, "session id"));
      if (PeekIsKeyword("REMOVE")) {
        Next();
        req.remove = true;
      }
    } else if (verb == "MIGRATE") {
      req.type = WireRequestType::kMigrateSession;
      VC_RETURN_IF_ERROR(TakeWord(&req.session_id, "session id"));
      VC_RETURN_IF_ERROR(TakeKeyword("TO"));
      VC_RETURN_IF_ERROR(TakeU32(&req.shard_id, "target shard id"));
    } else if (verb == "DRAIN") {
      req.type = WireRequestType::kDrainShard;
      VC_RETURN_IF_ERROR(TakeU32(&req.shard_id, "shard id"));
    } else if (verb == "JOIN") {
      req.type = WireRequestType::kJoinShard;
      VC_RETURN_IF_ERROR(TakeU32(&req.shard_id, "shard id"));
      VC_RETURN_IF_ERROR(TakeKeyword("AT"));
      VC_RETURN_IF_ERROR(TakeU32(&req.port, "shard port"));
    } else if (verb == "TOPOLOGY") {
      req.type = WireRequestType::kTopology;
    } else if (verb == "METRICS") {
      req.type = WireRequestType::kMetrics;
    } else if (verb == "TRACES") {
      req.type = WireRequestType::kTraces;
    } else {
      return ErrAt(head.col, StrFormat("unknown command '%s'",
                                       head.text.c_str()));
    }
    const Token& tail = Peek();
    if (tail.kind != TokKind::kEnd) {
      return ErrAt(tail.col, "unexpected trailing input");
    }
    return req;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Next() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool PeekIsKeyword(const char* kw) const {
    return Peek().kind == TokKind::kWord && UpperAscii(Peek().text) == kw;
  }

  Status TakeKeyword(const char* kw) {
    if (!PeekIsKeyword(kw)) {
      return ErrAt(Peek().col, StrFormat("expected %s", kw));
    }
    Next();
    return Status::Ok();
  }

  Status TakeWord(std::string* out, const char* what) {
    if (Peek().kind != TokKind::kWord) {
      return ErrAt(Peek().col, StrFormat("expected %s", what));
    }
    *out = Peek().text;
    Next();
    return Status::Ok();
  }

  Status TakeString(std::string* out, const char* what) {
    if (Peek().kind != TokKind::kString) {
      return ErrAt(Peek().col, StrFormat("expected %s", what));
    }
    *out = Peek().text;
    Next();
    return Status::Ok();
  }

  Status TakeU32(uint32_t* out, const char* what) {
    if (Peek().kind != TokKind::kWord) {
      return ErrAt(Peek().col, StrFormat("expected %s", what));
    }
    size_t v = 0;
    VC_RETURN_IF_ERROR(ParseU64(Peek(), &v));
    if (v > 0xffffffffu) {
      return ErrAt(Peek().col, StrFormat("%s out of range", what));
    }
    *out = static_cast<uint32_t>(v);
    Next();
    return Status::Ok();
  }

  Status ParseOptions(WireRequest& req) {
    // At least one clause must follow WITH.
    if (Peek().kind != TokKind::kWord) {
      return ErrAt(Peek().col, "expected option clauses after WITH");
    }
    while (Peek().kind == TokKind::kWord) {
      Token key = Peek();
      Next();
      if (Peek().kind != TokKind::kEquals) {
        return ErrAt(Peek().col,
                     StrFormat("expected '=' after option '%s'",
                               key.text.c_str()));
      }
      Next();
      Token value = Peek();
      if (value.kind != TokKind::kWord && value.kind != TokKind::kString) {
        return ErrAt(value.col,
                     StrFormat("expected a value for option '%s'",
                               key.text.c_str()));
      }
      Next();
      VC_RETURN_IF_ERROR(ApplyOption(req, key, value));
    }
    return Status::Ok();
  }

  static Status ParseU64(const Token& value, size_t* out) {
    const char* text = value.text.c_str();
    if (value.text.empty() || value.text[0] == '-') {
      return ErrAt(value.col, "expected a non-negative integer");
    }
    char* end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end != text + value.text.size()) {
      return ErrAt(value.col, "expected a non-negative integer");
    }
    *out = static_cast<size_t>(v);
    return Status::Ok();
  }

  static Status ParseF64(const Token& value, double* out) {
    const char* text = value.text.c_str();
    char* end = nullptr;
    double v = std::strtod(text, &end);
    if (value.text.empty() || end != text + value.text.size()) {
      return ErrAt(value.col, "expected a number");
    }
    *out = v;
    return Status::Ok();
  }

  template <typename E>
  static Status ParseTwoWay(const Token& value, const char* zero,
                            const char* one, E* out) {
    std::string v = UpperAscii(value.text);
    if (v == zero) {
      *out = static_cast<E>(0);
    } else if (v == one) {
      *out = static_cast<E>(1);
    } else {
      return ErrAt(value.col, StrFormat("expected %s or %s", zero, one));
    }
    return Status::Ok();
  }

  Status ApplyOption(WireRequest& req, const Token& key, const Token& value) {
    SessionOptions& o = req.options;
    const std::string k = ToLowerAscii(key.text);
    if (k == "k") return ParseU64(value, &o.k);
    if (k == "budget") return ParseU64(value, &o.budget);
    if (k == "selector") {
      o.selector = value.text;
      return Status::Ok();
    }
    if (k == "strategy") {
      return ParseTwoWay(value, "COMPOSITE", "SINGLE", &o.strategy);
    }
    if (k == "single_m") return ParseU64(value, &o.single_m);
    if (k == "threads") return ParseU64(value, &o.threads);
    if (k == "detection_threshold") {
      return ParseF64(value, &o.detection_dirty_threshold);
    }
    if (k == "erg_threshold") return ParseF64(value, &o.erg_dirty_threshold);
    if (k == "seed") {
      size_t seed = 0;
      VC_RETURN_IF_ERROR(ParseU64(value, &seed));
      o.seed = seed;
      return Status::Ok();
    }
    if (k == "auto_merge") return ParseF64(value, &o.auto_merge_threshold);
    if (k == "lambda") return ParseF64(value, &o.sim_join_lambda);
    if (k == "max_t") return ParseU64(value, &o.max_t_questions);
    if (k == "max_m") return ParseU64(value, &o.max_m_questions);
    if (k == "max_block") return ParseU64(value, &o.blocking_max_block);
    if (k == "max_seed") return ParseU64(value, &o.max_seed_examples);
    if (k == "trees") return ParseU64(value, &o.forest.num_trees);
    if (k == "tree_depth") return ParseU64(value, &o.forest.tree.max_depth);
    if (k == "tree_min_split") {
      return ParseU64(value, &o.forest.tree.min_samples_split);
    }
    if (k == "tree_max_features") {
      return ParseU64(value, &o.forest.tree.max_features);
    }
    if (k == "bootstrap") return ParseF64(value, &o.forest.bootstrap_fraction);
    if (k == "wrong_rate") {
      return ParseF64(value, &req.user_options.wrong_label_rate);
    }
    if (k == "completeness") {
      return ParseF64(value, &req.user_options.completeness);
    }
    if (k == "user_seed") {
      size_t seed = 0;
      VC_RETURN_IF_ERROR(ParseU64(value, &seed));
      req.user_options.seed = seed;
      return Status::Ok();
    }
    if (k == "cost_cqg_base") {
      return ParseF64(value, &req.cost_model.cqg_base_seconds);
    }
    if (k == "cost_cqg_edge") {
      return ParseF64(value, &req.cost_model.cqg_edge_seconds);
    }
    if (k == "cost_cqg_vertex") {
      return ParseF64(value, &req.cost_model.cqg_vertex_seconds);
    }
    if (k == "cost_t") return ParseF64(value, &req.cost_model.single_t_seconds);
    if (k == "cost_a") return ParseF64(value, &req.cost_model.single_a_seconds);
    if (k == "cost_m") return ParseF64(value, &req.cost_model.single_m_seconds);
    if (k == "cost_o") return ParseF64(value, &req.cost_model.single_o_seconds);
    return ErrAt(key.col, StrFormat("unknown option '%s'", key.text.c_str()));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// ---- Printing ----

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

/// Accumulates `key=value` clauses for values that differ from defaults.
class OptionPrinter {
 public:
  void U(const char* key, size_t v, size_t dflt) {
    if (v != dflt) Add(key, FormatU64(v));
  }
  void F(const char* key, double v, double dflt) {
    if (std::memcmp(&v, &dflt, sizeof(double)) != 0) Add(key, FormatF64(v));
  }
  void Word(const char* key, const std::string& v, const std::string& dflt) {
    if (v != dflt) Add(key, v);
  }
  template <typename E>
  void TwoWay(const char* key, E v, E dflt, const char* zero,
              const char* one) {
    if (v != dflt) Add(key, static_cast<uint8_t>(v) == 0 ? zero : one);
  }

  const std::string& text() const { return text_; }

 private:
  void Add(const char* key, const std::string& value) {
    text_ += text_.empty() ? " WITH " : " ";
    text_ += key;
    text_ += '=';
    text_ += value;
  }

  std::string text_;
};

std::string PrintCreate(const WireRequest& req) {
  std::string out = "CREATE " + req.session_id + " ON " + req.dataset +
                    " QUERY " + Quote(req.vql);
  const SessionOptions d;
  const UserOptions ud;
  const UserCostModel cd;
  const SessionOptions& o = req.options;
  OptionPrinter p;
  p.U("k", o.k, d.k);
  p.U("budget", o.budget, d.budget);
  p.Word("selector", o.selector, d.selector);
  p.TwoWay("strategy", o.strategy, d.strategy, "composite", "single");
  p.U("single_m", o.single_m, d.single_m);
  p.U("threads", o.threads, d.threads);
  p.F("detection_threshold", o.detection_dirty_threshold,
      d.detection_dirty_threshold);
  p.F("erg_threshold", o.erg_dirty_threshold, d.erg_dirty_threshold);
  p.U("seed", o.seed, d.seed);
  p.F("auto_merge", o.auto_merge_threshold, d.auto_merge_threshold);
  p.F("lambda", o.sim_join_lambda, d.sim_join_lambda);
  p.U("max_t", o.max_t_questions, d.max_t_questions);
  p.U("max_m", o.max_m_questions, d.max_m_questions);
  p.U("max_block", o.blocking_max_block, d.blocking_max_block);
  p.U("max_seed", o.max_seed_examples, d.max_seed_examples);
  p.U("trees", o.forest.num_trees, d.forest.num_trees);
  p.U("tree_depth", o.forest.tree.max_depth, d.forest.tree.max_depth);
  p.U("tree_min_split", o.forest.tree.min_samples_split,
      d.forest.tree.min_samples_split);
  p.U("tree_max_features", o.forest.tree.max_features,
      d.forest.tree.max_features);
  p.F("bootstrap", o.forest.bootstrap_fraction, d.forest.bootstrap_fraction);
  p.F("wrong_rate", req.user_options.wrong_label_rate, ud.wrong_label_rate);
  p.F("completeness", req.user_options.completeness, ud.completeness);
  p.U("user_seed", req.user_options.seed, ud.seed);
  p.F("cost_cqg_base", req.cost_model.cqg_base_seconds, cd.cqg_base_seconds);
  p.F("cost_cqg_edge", req.cost_model.cqg_edge_seconds, cd.cqg_edge_seconds);
  p.F("cost_cqg_vertex", req.cost_model.cqg_vertex_seconds,
      cd.cqg_vertex_seconds);
  p.F("cost_t", req.cost_model.single_t_seconds, cd.single_t_seconds);
  p.F("cost_a", req.cost_model.single_a_seconds, cd.single_a_seconds);
  p.F("cost_m", req.cost_model.single_m_seconds, cd.single_m_seconds);
  p.F("cost_o", req.cost_model.single_o_seconds, cd.single_o_seconds);
  return out + p.text();
}

void AppendKv(std::string& out, const char* key, const std::string& value) {
  out += ' ';
  out += key;
  out += '=';
  out += value;
}

}  // namespace

Result<WireRequest> ParseCommand(const std::string& line) {
  Result<std::vector<Token>> tokens = Tokenize(line);
  if (!tokens.ok()) return tokens.status();
  return CommandParser(std::move(tokens).value()).Parse();
}

std::string PrintCommand(const WireRequest& request) {
  switch (request.type) {
    case WireRequestType::kCreate:
      return PrintCreate(request);
    case WireRequestType::kStep:
      return "STEP " + request.session_id;
    case WireRequestType::kAnswer:
      return "ANSWER " + request.session_id;
    case WireRequestType::kGetStatus:
      return "STATUS " + request.session_id;
    case WireRequestType::kSnapshot:
      return "SNAPSHOT " + request.session_id + " TO " + Quote(request.path);
    case WireRequestType::kRestore:
      return "RESTORE " + request.session_id + " FROM " + Quote(request.path);
    case WireRequestType::kClose:
      return "CLOSE " + request.session_id;
    case WireRequestType::kStats:
      return "STATS";
    case WireRequestType::kExportState:
      return "EXPORT " + request.session_id +
             (request.remove ? " REMOVE" : "");
    case WireRequestType::kMigrateSession:
      return "MIGRATE " + request.session_id + " TO " +
             FormatU64(request.shard_id);
    case WireRequestType::kDrainShard:
      return "DRAIN " + FormatU64(request.shard_id);
    case WireRequestType::kJoinShard:
      return "JOIN " + FormatU64(request.shard_id) + " AT " +
             FormatU64(request.port);
    case WireRequestType::kTopology:
      return "TOPOLOGY";
    case WireRequestType::kMetrics:
      return "METRICS";
    case WireRequestType::kTraces:
      return "TRACES";
    case WireRequestType::kImportState:
    case WireRequestType::kForwarded:
    case WireRequestType::kSetRole:
      // Binary-only frames: their payloads (snapshot bytes, nested
      // encodings) cannot travel on a text line.
      return "";
  }
  return "";
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kParseError: return "PARSE_ERROR";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
  }
  return "INTERNAL";
}

std::string PrintResponseLine(const WireResponse& response) {
  std::string out;
  switch (response.type) {
    case WireResponseType::kError:
      out = "ERR ";
      out += StatusCodeName(response.code);
      out += ' ';
      out += Quote(response.message);
      return out;
    case WireResponseType::kSessionInfo: {
      const SessionInfo& i = response.info;
      out = "OK INFO";
      AppendKv(out, "id", i.id);
      AppendKv(out, "dataset", i.dataset);
      AppendKv(out, "iteration", FormatU64(i.iteration));
      AppendKv(out, "budget", FormatU64(i.budget));
      AppendKv(out, "pending", i.pending ? "1" : "0");
      AppendKv(out, "finished", i.finished ? "1" : "0");
      AppendKv(out, "resident", i.resident ? "1" : "0");
      AppendKv(out, "emd", FormatF64(i.emd));
      return out;
    }
    case WireResponseType::kPending: {
      const PendingInteraction& p = response.pending;
      out = "OK PENDING";
      AppendKv(out, "iteration", FormatU64(p.iteration));
      AppendKv(out, "strategy",
               p.strategy == QuestionStrategy::kComposite ? "composite"
                                                          : "single");
      AppendKv(out, "benefit", FormatF64(p.cqg_benefit));
      AppendKv(out, "vertices", FormatU64(p.cqg_vertices));
      AppendKv(out, "edges", FormatU64(p.cqg_edges));
      AppendKv(out, "pool", FormatU64(p.pool_questions));
      return out;
    }
    case WireResponseType::kTrace: {
      const WireTraceSummary& t = response.trace;
      out = "OK TRACE";
      AppendKv(out, "iteration", FormatU64(t.iteration));
      AppendKv(out, "emd", FormatF64(t.emd));
      AppendKv(out, "user_seconds", FormatF64(t.user_seconds));
      AppendKv(out, "questions", FormatU64(t.questions_asked));
      AppendKv(out, "benefit", FormatF64(t.cqg_benefit));
      AppendKv(out, "detect_full", FormatU64(t.incremental.detect_full_scans));
      AppendKv(out, "detect_delta",
               FormatU64(t.incremental.detect_delta_updates));
      AppendKv(out, "erg_full", FormatU64(t.incremental.erg_full_builds));
      AppendKv(out, "erg_delta", FormatU64(t.incremental.erg_delta_updates));
      AppendKv(out, "join_full", FormatU64(t.incremental.sim_join_full));
      AppendKv(out, "join_fallback",
               FormatU64(t.incremental.sim_join_fallbacks));
      AppendKv(out, "join_delta",
               FormatU64(t.incremental.sim_join_delta_syncs));
      return out;
    }
    case WireResponseType::kAck:
      return "OK ACK";
    case WireResponseType::kStats: {
      const ServeStats& s = response.stats;
      out = "OK STATS";
      AppendKv(out, "created", FormatU64(s.sessions_created));
      AppendKv(out, "steps", FormatU64(s.steps));
      AppendKv(out, "answers", FormatU64(s.answers));
      AppendKv(out, "snapshots", FormatU64(s.snapshots));
      AppendKv(out, "evictions", FormatU64(s.evictions));
      AppendKv(out, "restores", FormatU64(s.restores_from_disk));
      AppendKv(out, "rejected_capacity", FormatU64(s.rejected_capacity));
      AppendKv(out, "rejected_inflight", FormatU64(s.rejected_inflight));
      AppendKv(out, "rejected_queue", FormatU64(s.rejected_session_queue));
      AppendKv(out, "detect_full", FormatU64(s.detect_full_scans));
      AppendKv(out, "detect_delta", FormatU64(s.detect_delta_updates));
      AppendKv(out, "erg_full", FormatU64(s.erg_full_builds));
      AppendKv(out, "erg_delta", FormatU64(s.erg_delta_updates));
      AppendKv(out, "join_full", FormatU64(s.sim_join_full));
      AppendKv(out, "join_fallback", FormatU64(s.sim_join_fallbacks));
      AppendKv(out, "join_delta", FormatU64(s.sim_join_delta_syncs));
      return out;
    }
    case WireResponseType::kState:
      // Snapshot bytes are binary; the text dialect reports only the size.
      out = "OK STATE";
      AppendKv(out, "bytes", FormatU64(response.state.size()));
      return out;
    case WireResponseType::kTopology: {
      const WireTopology& t = response.topology;
      out = "OK TOPOLOGY";
      AppendKv(out, "epoch", FormatU64(t.epoch));
      AppendKv(out, "shards", FormatU64(t.shards.size()));
      for (const WireShardStatus& s : t.shards) {
        out += StrFormat(" shard=%u:%u:%s:%s:%llu", s.shard_id, s.port,
                         s.alive ? "up" : "down",
                         s.draining ? "draining" : "serving",
                         static_cast<unsigned long long>(s.sessions));
      }
      return out;
    }
    case WireResponseType::kMetrics: {
      // The binary payload re-rendered as one quoted compact-JSON string,
      // so a line-oriented client still gets one parseable line.
      Result<obs::MetricsSnapshot> snapshot =
          obs::DecodeMetricsSnapshot(response.metrics);
      if (!snapshot.ok()) {
        return "ERR INTERNAL \"undecodable metrics payload\"";
      }
      return "OK METRICS " + Quote(obs::ExportMetricsJson(snapshot.value()));
    }
    case WireResponseType::kTraces:
      // Already JSON — quote it onto the line.
      return "OK TRACES " + Quote(response.metrics);
  }
  return "ERR INTERNAL \"unprintable response\"";
}

}  // namespace visclean
