#include "serve/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "em/pair_features.h"
#include "serve/codec.h"

namespace visclean {

namespace {

using codec::GetEnum;
using codec::PutEnum;
using codec::Reader;
using codec::Writer;

constexpr char kMagic[4] = {'V', 'C', 'S', 'N'};
constexpr uint32_t kVersion = 3;

void PutValue(Writer& w, const Value& v) {
  PutEnum(w, v.type());
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kNumber:
      w.F64(v.AsNumber());
      break;
    case ValueType::kString:
      w.Str(v.AsString());
      break;
  }
}

Value GetValue(Reader& r, bool* bad) {
  ValueType type = GetEnum<ValueType>(r, 2, bad);
  if (*bad || r.failed()) return Value();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kNumber:
      return Value::Number(r.F64());
    case ValueType::kString:
      return Value::String(r.Str());
  }
  return Value();
}

void PutTable(Writer& w, const Table& t) {
  w.U64(t.schema().num_columns());
  for (const ColumnSpec& col : t.schema().columns()) {
    w.Str(col.name);
    PutEnum(w, col.type);
  }
  w.U64(t.num_rows());
  for (size_t row = 0; row < t.num_rows(); ++row) {
    for (size_t col = 0; col < t.schema().num_columns(); ++col) {
      PutValue(w, t.at(row, col));
    }
  }
  for (size_t row = 0; row < t.num_rows(); ++row) w.Bool(t.is_dead(row));
  w.U64(t.mutation_count());
}

Result<Table> GetTable(Reader& r) {
  bool bad = false;
  uint64_t num_columns = r.Count(9);
  // A session table always has columns; accepting 0 would also zero out the
  // per-row admission bound below and let a corrupt row count drive an
  // unbounded append loop that never consumes input.
  if (r.failed() || num_columns == 0) {
    return Status::InvalidArgument("snapshot table has no columns");
  }
  std::vector<ColumnSpec> columns;
  columns.reserve(num_columns);
  for (uint64_t i = 0; i < num_columns && !r.failed(); ++i) {
    ColumnSpec col;
    col.name = r.Str();
    col.type = GetEnum<ColumnType>(r, 2, &bad);
    columns.push_back(std::move(col));
  }
  Table table{Schema(std::move(columns))};
  uint64_t num_rows = r.Count(num_columns);  // >= 1 tag byte per cell
  for (uint64_t row = 0; row < num_rows && !r.failed() && !bad; ++row) {
    Row values;
    values.reserve(num_columns);
    for (uint64_t col = 0; col < num_columns; ++col) {
      values.push_back(GetValue(r, &bad));
    }
    if (!r.failed() && !bad) table.AppendRow(std::move(values));
  }
  // Bail out before touching rows: once `bad` latches (an out-of-range enum
  // the reader itself cannot detect) the append loop stopped early, and
  // marking the remaining declared rows dead would hit MarkDead's abort on
  // row ids that were never appended.
  if (r.failed() || bad) {
    return Status::InvalidArgument("snapshot table section is corrupt");
  }
  for (uint64_t row = 0; row < num_rows && !r.failed(); ++row) {
    if (r.Bool()) table.MarkDead(row);
  }
  uint64_t watermark = r.U64();
  if (r.failed()) {
    return Status::InvalidArgument("snapshot table section is corrupt");
  }
  if (watermark < table.mutation_count()) {
    return Status::InvalidArgument(
        "snapshot table watermark is below its own mutation history");
  }
  table.ResetJournal(watermark);
  return table;
}

void PutT(Writer& w, const TQuestion& q) {
  w.U64(q.row_a);
  w.U64(q.row_b);
  w.F64(q.probability);
}
TQuestion GetT(Reader& r) {
  TQuestion q;
  q.row_a = r.U64();
  q.row_b = r.U64();
  q.probability = r.F64();
  return q;
}

void PutA(Writer& w, const AQuestion& q) {
  w.U64(q.column);
  w.Str(q.value_a);
  w.Str(q.value_b);
  w.F64(q.similarity);
}
AQuestion GetA(Reader& r) {
  AQuestion q;
  q.column = r.U64();
  q.value_a = r.Str();
  q.value_b = r.Str();
  q.similarity = r.F64();
  return q;
}

void PutM(Writer& w, const MQuestion& q) {
  w.U64(q.row);
  w.U64(q.column);
  w.F64(q.suggested);
}
MQuestion GetM(Reader& r) {
  MQuestion q;
  q.row = r.U64();
  q.column = r.U64();
  q.suggested = r.F64();
  return q;
}

void PutO(Writer& w, const OQuestion& q) {
  w.U64(q.row);
  w.U64(q.column);
  w.F64(q.current);
  w.F64(q.suggested);
  w.F64(q.score);
}
OQuestion GetO(Reader& r) {
  OQuestion q;
  q.row = r.U64();
  q.column = r.U64();
  q.current = r.F64();
  q.suggested = r.F64();
  q.score = r.F64();
  return q;
}

template <typename Q, typename PutFn>
void PutStoredPool(Writer& w, const std::vector<StoredQuestion<Q>>& pool,
                   PutFn put) {
  w.U64(pool.size());
  for (const StoredQuestion<Q>& stored : pool) {
    w.U64(stored.id);
    put(w, stored.question);
  }
}

template <typename Q, typename GetFn>
std::vector<StoredQuestion<Q>> GetStoredPool(Reader& r, uint64_t min_bytes,
                                             GetFn get) {
  uint64_t n = r.Count(8 + min_bytes);
  std::vector<StoredQuestion<Q>> pool;
  pool.reserve(n);
  for (uint64_t i = 0; i < n && !r.failed(); ++i) {
    StoredQuestion<Q> stored;
    stored.id = r.U64();
    stored.question = get(r);
    pool.push_back(std::move(stored));
  }
  return pool;
}

}  // namespace

std::string EncodeSnapshot(const SessionSnapshotState& state) {
  Writer w;
  w.U8(kMagic[0]);
  w.U8(kMagic[1]);
  w.U8(kMagic[2]);
  w.U8(kMagic[3]);
  w.U32(kVersion);

  w.Str(state.dataset_name);
  w.Str(state.query_text);
  codec::PutSessionOptions(w, state.options);
  codec::PutUserOptions(w, state.user_options);
  codec::PutCostModel(w, state.cost_model);

  w.U64(state.completed_iterations);
  w.Bool(state.pending);

  PutTable(w, state.table);
  w.U64(state.retrain_counter);

  w.U64(state.em_labels.size());
  for (const auto& [pair, label] : state.em_labels) {
    w.U64(pair.first);
    w.U64(pair.second);
    w.Bool(label);
  }

  // The fitted EM forest, node-by-node. Thresholds and leaf fractions go
  // through F64 (raw IEEE-754 bits), so the restored ensemble predicts
  // bit-identically.
  w.U64(state.forest_trees.size());
  for (const DecisionTree& tree : state.forest_trees) {
    const std::vector<DecisionTree::Node>& nodes = tree.nodes();
    w.U64(nodes.size());
    for (const DecisionTree::Node& node : nodes) {
      w.I64(node.feature);
      w.F64(node.threshold);
      w.F64(node.positive_fraction);
      w.I64(node.left);
      w.I64(node.right);
    }
  }

  PutStoredPool(w, state.question_store.t, PutT);
  PutStoredPool(w, state.question_store.a, PutA);
  PutStoredPool(w, state.question_store.m, PutM);
  PutStoredPool(w, state.question_store.o, PutO);
  w.U64(state.question_store.next_id);
  w.U64(state.question_store.generation);

  w.U64(state.a_answered.size());
  for (const auto& [a, b] : state.a_answered) {
    w.Str(a);
    w.Str(b);
  }
  w.U64(state.o_answered.size());
  for (const auto& [row, col] : state.o_answered) {
    w.U64(row);
    w.U64(col);
  }
  w.U64(state.merge_witnessed_a.size());
  for (const AQuestion& q : state.merge_witnessed_a) PutA(w, q);
  w.U64(state.transform_votes.size());
  for (const auto& [variant, vote] : state.transform_votes) {
    w.Str(variant);
    w.Str(vote.first);
    w.I64(vote.second);
  }

  w.Str(state.user_rng_state);
  w.Str(state.selector_state);
  return w.Take();
}

Result<SessionSnapshotState> DecodeSnapshot(const std::string& bytes) {
  Reader r(bytes);
  bool bad = false;
  if (r.U8() != static_cast<uint8_t>(kMagic[0]) ||
      r.U8() != static_cast<uint8_t>(kMagic[1]) ||
      r.U8() != static_cast<uint8_t>(kMagic[2]) ||
      r.U8() != static_cast<uint8_t>(kMagic[3])) {
    return Status::InvalidArgument("not a session snapshot (bad magic)");
  }
  uint32_t version = r.U32();
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }

  SessionSnapshotState state;
  state.dataset_name = r.Str();
  state.query_text = r.Str();
  state.options = codec::GetSessionOptions(r, &bad);
  state.user_options = codec::GetUserOptions(r);
  state.cost_model = codec::GetCostModel(r);

  state.completed_iterations = r.U64();
  state.pending = r.Bool();

  Result<Table> table = GetTable(r);
  if (!table.ok()) return table.status();
  state.table = std::move(table).value();
  state.retrain_counter = r.U64();

  uint64_t num_labels = r.Count(17);
  for (uint64_t i = 0; i < num_labels && !r.failed(); ++i) {
    uint64_t a = r.U64();
    uint64_t b = r.U64();
    state.em_labels[{a, b}] = r.Bool();
  }

  // The forest predicts on PairFeatures vectors of the restored table's
  // schema, which bounds every split's feature index exactly.
  const int64_t feature_arity =
      static_cast<int64_t>(PairFeatureArity(state.table.schema()));
  uint64_t num_trees = r.Count(8);
  state.forest_trees.reserve(r.failed() ? 0 : num_trees);
  for (uint64_t i = 0; i < num_trees && !r.failed(); ++i) {
    uint64_t num_nodes = r.Count(40);
    std::vector<DecisionTree::Node> nodes;
    nodes.reserve(r.failed() ? 0 : num_nodes);
    for (uint64_t n = 0; n < num_nodes && !r.failed(); ++n) {
      DecisionTree::Node node;
      int64_t feature = r.I64();
      node.threshold = r.F64();
      node.positive_fraction = r.F64();
      int64_t left = r.I64();
      int64_t right = r.I64();
      // Structural validity. A node is either a childless leaf or a split
      // whose feature indexes a PairFeatures vector and whose children both
      // point strictly forward inside this tree's node array — the shape
      // Fit produces (parents are reserved before their children), and the
      // one that makes Predict's walk bounded and in range: indices strictly
      // increase along any root-to-leaf path, so cycles are impossible.
      const int64_t self = static_cast<int64_t>(n);
      const bool is_leaf = feature == -1 && left == -1 && right == -1;
      const bool is_split =
          feature >= 0 && feature < feature_arity && left > self &&
          right > self && left < static_cast<int64_t>(num_nodes) &&
          right < static_cast<int64_t>(num_nodes);
      if (!is_leaf && !is_split) {
        bad = true;
        break;
      }
      node.feature = static_cast<int>(feature);
      node.left = static_cast<int32_t>(left);
      node.right = static_cast<int32_t>(right);
      nodes.push_back(node);
    }
    DecisionTree tree;
    tree.RestoreNodes(std::move(nodes));
    state.forest_trees.push_back(std::move(tree));
  }

  state.question_store.t = GetStoredPool<TQuestion>(r, 24, GetT);
  state.question_store.a = GetStoredPool<AQuestion>(r, 32, GetA);
  state.question_store.m = GetStoredPool<MQuestion>(r, 24, GetM);
  state.question_store.o = GetStoredPool<OQuestion>(r, 40, GetO);
  state.question_store.next_id = r.U64();
  state.question_store.generation = r.U64();

  uint64_t num_a_answered = r.Count(16);
  for (uint64_t i = 0; i < num_a_answered && !r.failed(); ++i) {
    std::string a = r.Str();
    std::string b = r.Str();
    state.a_answered.emplace(std::move(a), std::move(b));
  }
  uint64_t num_o_answered = r.Count(16);
  for (uint64_t i = 0; i < num_o_answered && !r.failed(); ++i) {
    uint64_t row = r.U64();
    uint64_t col = r.U64();
    state.o_answered.emplace(row, col);
  }
  uint64_t num_witnessed = r.Count(32);
  for (uint64_t i = 0; i < num_witnessed && !r.failed(); ++i) {
    state.merge_witnessed_a.push_back(GetA(r));
  }
  uint64_t num_votes = r.Count(24);
  for (uint64_t i = 0; i < num_votes && !r.failed(); ++i) {
    std::string variant = r.Str();
    std::string target = r.Str();
    int64_t count = r.I64();
    state.transform_votes[std::move(variant)] = {std::move(target),
                                                 static_cast<int>(count)};
  }

  state.user_rng_state = r.Str();
  state.selector_state = r.Str();

  if (r.failed() || bad) {
    return Status::InvalidArgument("snapshot is truncated or corrupt");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("snapshot has trailing bytes");
  }
  return state;
}

Status WriteSnapshotFile(const std::string& path,
                         const SessionSnapshotState& state) {
  std::string bytes = EncodeSnapshot(state);
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp + " for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot move snapshot into place at " + path);
  }
  return Status::Ok();
}

Result<SessionSnapshotState> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no snapshot at " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("error reading " + path);
  return DecodeSnapshot(bytes);
}

}  // namespace visclean
