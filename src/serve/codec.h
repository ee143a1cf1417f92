// Shared binary-codec primitives for the serving layer's byte formats: the
// session snapshot codec (serve/snapshot.cc, magic VCSN) and the wire
// protocol (serve/wire.cc, magic VCWP) encode through the same Writer and
// decode through the same hardened Reader, so every defensive property —
// overflow-safe bounds, latched failure instead of per-call checks, bounded
// allocations from untrusted length prefixes — is implemented once and
// fuzzed from both directions.
//
// Conventions: little-endian fixed-width integers, doubles as raw IEEE-754
// bit patterns (decode round-trips are bit-exact), strings length-prefixed
// with u64. Decoders must check Reader::failed() (and their own enum-range
// latches) before trusting any value, and AtEnd() before accepting a
// message.
#ifndef VISCLEAN_SERVE_CODEC_H_
#define VISCLEAN_SERVE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "core/engine_context.h"
#include "user/cost_model.h"
#include "user/simulated_user.h"

namespace visclean {
namespace codec {

/// \brief Append-only encoder. Encoding never fails.
class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Bounds-checked reader: getters return zero values past the end
/// and latch failed(); decode checks the latch instead of every call site.
class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}

  uint8_t U8() {
    if (pos_ >= in_.size()) return Fail<uint8_t>();
    return static_cast<uint8_t>(in_[pos_++]);
  }
  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    uint64_t n = U64();
    // Overflow-safe form: pos_ + n can wrap for corrupt lengths near 2^64.
    if (n > in_.size() - pos_) return Fail<std::string>();
    std::string s = in_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  /// Element count for a sequence whose elements occupy at least
  /// `min_bytes_each`; rejects counts the remaining input cannot hold, so a
  /// corrupt length prefix cannot drive a huge allocation.
  uint64_t Count(uint64_t min_bytes_each) {
    uint64_t n = U64();
    if (min_bytes_each > 0 && n > (in_.size() - pos_) / min_bytes_each) {
      return Fail<uint64_t>();
    }
    return n;
  }

  bool failed() const { return failed_; }
  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  template <typename T>
  T Fail() {
    failed_ = true;
    pos_ = in_.size();
    return T{};
  }

  const std::string& in_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ---- Enum helpers: encode as u8, validate the range on decode ----

template <typename E>
void PutEnum(Writer& w, E v) {
  w.U8(static_cast<uint8_t>(v));
}

template <typename E>
E GetEnum(Reader& r, uint8_t max_value, bool* bad) {
  uint8_t raw = r.U8();
  if (raw > max_value) *bad = true;
  return static_cast<E>(raw);
}

// ---- Session configuration blocks (shared by snapshots and Create
// requests: a restored session and a wire-created one must be configured
// through byte-identical encodings) ----

inline void PutSessionOptions(Writer& w, const SessionOptions& o) {
  w.U64(o.k);
  w.U64(o.budget);
  w.Str(o.selector);
  PutEnum(w, o.strategy);
  w.U64(o.single_m);
  w.U64(o.threads);
  w.F64(o.detection_dirty_threshold);
  w.F64(o.erg_dirty_threshold);
  w.U64(o.seed);
  w.F64(o.auto_merge_threshold);
  w.F64(o.sim_join_lambda);
  w.U64(o.max_t_questions);
  w.U64(o.max_m_questions);
  w.U64(o.blocking_max_block);
  w.U64(o.max_seed_examples);
  w.U64(o.forest.num_trees);
  w.U64(o.forest.tree.max_depth);
  w.U64(o.forest.tree.min_samples_split);
  w.U64(o.forest.tree.max_features);
  w.F64(o.forest.bootstrap_fraction);
}

inline SessionOptions GetSessionOptions(Reader& r, bool* bad) {
  SessionOptions o;
  o.k = r.U64();
  o.budget = r.U64();
  o.selector = r.Str();
  o.strategy = GetEnum<QuestionStrategy>(r, 1, bad);
  o.single_m = r.U64();
  o.threads = r.U64();
  o.detection_dirty_threshold = r.F64();
  o.erg_dirty_threshold = r.F64();
  o.seed = r.U64();
  o.auto_merge_threshold = r.F64();
  o.sim_join_lambda = r.F64();
  o.max_t_questions = r.U64();
  o.max_m_questions = r.U64();
  o.blocking_max_block = r.U64();
  o.max_seed_examples = r.U64();
  o.forest.num_trees = r.U64();
  o.forest.tree.max_depth = r.U64();
  o.forest.tree.min_samples_split = r.U64();
  o.forest.tree.max_features = r.U64();
  o.forest.bootstrap_fraction = r.F64();
  return o;
}

inline void PutUserOptions(Writer& w, const UserOptions& o) {
  w.F64(o.wrong_label_rate);
  w.F64(o.completeness);
  w.U64(o.seed);
}

inline UserOptions GetUserOptions(Reader& r) {
  UserOptions o;
  o.wrong_label_rate = r.F64();
  o.completeness = r.F64();
  o.seed = r.U64();
  return o;
}

inline void PutCostModel(Writer& w, const UserCostModel& m) {
  w.F64(m.cqg_base_seconds);
  w.F64(m.cqg_edge_seconds);
  w.F64(m.cqg_vertex_seconds);
  w.F64(m.single_t_seconds);
  w.F64(m.single_a_seconds);
  w.F64(m.single_m_seconds);
  w.F64(m.single_o_seconds);
}

inline UserCostModel GetCostModel(Reader& r) {
  UserCostModel m;
  m.cqg_base_seconds = r.F64();
  m.cqg_edge_seconds = r.F64();
  m.cqg_vertex_seconds = r.F64();
  m.single_t_seconds = r.F64();
  m.single_a_seconds = r.F64();
  m.single_m_seconds = r.F64();
  m.single_o_seconds = r.F64();
  return m;
}

}  // namespace codec
}  // namespace visclean

#endif  // VISCLEAN_SERVE_CODEC_H_
