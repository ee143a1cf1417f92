#include "core/erg_cache.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/table.h"
#include "em/em_model.h"
#include "text/similarity.h"

namespace visclean {

// ------------------------------------------------------------ XValueIndex --

void XValueIndex::Clear() {
  primed_ = false;
  rows_of_.clear();
  shadow_.clear();
}

void XValueIndex::FullRebuild(const Table& table, size_t x_column,
                              ThreadPool* pool) {
  rows_of_.clear();
  shadow_.assign(table.num_rows(), std::nullopt);
  size_t n = table.num_rows();
  auto scan = [&](std::vector<std::pair<std::string, size_t>>* out,
                  size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      if (table.is_dead(r)) continue;
      const Value& v = table.at(r, x_column);
      if (!v.is_null()) out->emplace_back(v.ToDisplayString(), r);
    }
  };
  if (pool != nullptr && n >= 2 * pool->num_threads()) {
    // Per-worker scratch merged in worker order; the merged result is a
    // (sorted) map of (sorted) row sets, so it is partition-independent.
    std::vector<std::vector<std::pair<std::string, size_t>>> parts(
        pool->num_threads());
    pool->ParallelChunks(n, [&](size_t worker, size_t begin, size_t end) {
      scan(&parts[worker], begin, end);
    });
    for (auto& part : parts) {
      for (auto& [spelling, row] : part) {
        rows_of_[spelling].insert(row);
        shadow_[row] = std::move(spelling);
      }
    }
  } else {
    std::vector<std::pair<std::string, size_t>> all;
    scan(&all, 0, n);
    for (auto& [spelling, row] : all) {
      rows_of_[spelling].insert(row);
      shadow_[row] = std::move(spelling);
    }
  }
  primed_ = true;
}

void XValueIndex::Fold(const Table& table, size_t x_column,
                       const std::vector<size_t>& rows,
                       std::set<std::string>* touched) {
  VC_CHECK(primed_, "XValueIndex::Fold before FullRebuild");
  if (shadow_.size() < table.num_rows()) shadow_.resize(table.num_rows());
  for (size_t r : rows) {
    if (r >= shadow_.size()) shadow_.resize(r + 1);
    std::optional<std::string> now;
    if (r < table.num_rows() && !table.is_dead(r)) {
      const Value& v = table.at(r, x_column);
      if (!v.is_null()) now = v.ToDisplayString();
    }
    if (shadow_[r] == now) continue;
    if (shadow_[r].has_value()) {
      if (touched != nullptr) touched->insert(*shadow_[r]);
      auto it = rows_of_.find(*shadow_[r]);
      if (it != rows_of_.end()) {
        it->second.erase(r);
        if (it->second.empty()) rows_of_.erase(it);
      }
    }
    if (now.has_value()) {
      if (touched != nullptr) touched->insert(*now);
      rows_of_[*now].insert(r);
    }
    shadow_[r] = std::move(now);
  }
}

size_t XValueIndex::Count(const std::string& spelling) const {
  auto it = rows_of_.find(spelling);
  return it == rows_of_.end() ? 0 : it->second.size();
}

size_t XValueIndex::Representative(const std::string& spelling) const {
  auto it = rows_of_.find(spelling);
  if (it == rows_of_.end() || it->second.empty()) return kNoRow;
  return *it->second.begin();  // min live row: "first live row wins"
}

const std::optional<std::string>& XValueIndex::SpellingOf(size_t row) const {
  static const std::optional<std::string> kNone;
  return row < shadow_.size() ? shadow_[row] : kNone;
}

// ------------------------------------------------- shared assembly pieces --

namespace {

// Everything a payload computation needs. `memo`/`stats` are null on the
// stateless AssembleFull path.
struct AssemblyEnv {
  const Table* table = nullptr;
  const QuestionStore* store = nullptr;
  const EmModel* em = nullptr;
  const ErgRequest* request = nullptr;
  const XValueIndex* index = nullptr;
  std::map<std::pair<std::string, std::string>, double>* memo = nullptr;
  ErgStats* stats = nullptr;
  PairFeatureCache* features = nullptr;
  /// Kernel routing for the batched EM inference behind promoted-A edge
  /// probabilities; default (all-null) runs the serial reference path.
  KernelEnv kernel;
};

double JaccardOf(const AssemblyEnv& env, const std::string& a,
                 const std::string& b) {
  std::pair<std::string, std::string> key = std::minmax(a, b);
  if (env.memo == nullptr) return WordJaccard(key.first, key.second);
  auto it = env.memo->find(key);
  if (it != env.memo->end()) {
    if (env.stats != nullptr) ++env.stats->jaccard_memo_hits;
    return it->second;
  }
  double sim = WordJaccard(key.first, key.second);
  env.memo->emplace(std::move(key), sim);
  if (env.stats != nullptr) ++env.stats->jaccard_memo_misses;
  return sim;
}

// Canonical A-promotion (Definition 2.1's attribute-level edges): walk the
// A-pool by (similarity desc, key asc); promote the pair of spelling
// representatives (min live row each) unless the row pair is already
// claimed by a T-question or an earlier promotion. Skips do not consume
// the cap. Identical in the maintained and full assemblies by construction.
std::map<AQuestionKey, std::pair<size_t, size_t>> SelectPromotions(
    const AssemblyEnv& env) {
  std::map<AQuestionKey, std::pair<size_t, size_t>> promoted;
  if (env.request->x_column == ErgRequest::kNoColumn) return promoted;

  using Entry = const std::pair<const AQuestionKey, StoredQuestion<AQuestion>>*;
  std::vector<Entry> order;
  order.reserve(env.store->a_pool().size());
  for (const auto& entry : env.store->a_pool()) order.push_back(&entry);
  std::sort(order.begin(), order.end(), [](Entry a, Entry b) {
    if (a->second.question.similarity != b->second.question.similarity) {
      return a->second.question.similarity > b->second.question.similarity;
    }
    return a->first < b->first;
  });

  std::set<std::pair<size_t, size_t>> claimed;
  for (const auto& [key, stored] : env.store->t_pool()) claimed.insert(key);

  size_t added = 0;
  for (Entry entry : order) {
    if (added >= env.request->max_promoted_a) break;
    size_t ra = env.index->Representative(entry->first.second.first);
    size_t rb = env.index->Representative(entry->first.second.second);
    if (ra == XValueIndex::kNoRow || rb == XValueIndex::kNoRow || ra == rb) {
      continue;
    }
    std::pair<size_t, size_t> pair = std::minmax(ra, rb);
    if (!claimed.insert(pair).second) continue;
    promoted.emplace(entry->first, pair);
    ++added;
  }
  return promoted;
}

}  // namespace

// --------------------------------------------------------------- ErgCache --

namespace {

// Payload of the edge on row pair (ru < rv), a pure function of the table's
// X spellings (via the index shadow), the pools, and the EM model.
// T-sourced edges take the pooled probability; promoted-A edges recompute
// the EM match probability every iteration (the model retrains per
// iteration, so the prediction can't be cached — but feature extraction
// can: env.features, when set, memoizes the pair's feature vector). The
// callers batch the promoted-A probabilities through one MatchProbabilities
// call (bit-identical to per-pair MatchProbability) and pass the result in
// as `em_probability`; it is ignored for tuple-sourced edges.
void FillEdgePayload(const AssemblyEnv& env, size_t ru, size_t rv,
                     bool tuple_sourced, double em_probability, ErgEdge* edge) {
  if (tuple_sourced) {
    edge->p_tuple = env.store->t_pool().at({ru, rv}).question.probability;
  } else {
    edge->p_tuple = em_probability;
  }
  edge->has_attr = false;
  edge->p_attr = 0.0;
  edge->attr_question = AQuestion();
  size_t x = env.request->x_column;
  if (x == ErgRequest::kNoColumn) return;
  const std::optional<std::string>& sa = env.index->SpellingOf(ru);
  const std::optional<std::string>& sb = env.index->SpellingOf(rv);
  if (!sa.has_value() || !sb.has_value() || *sa == *sb) return;
  edge->has_attr = true;
  AQuestionKey akey{x, std::minmax(*sa, *sb)};
  auto it = env.store->a_pool().find(akey);
  if (it != env.store->a_pool().end()) {
    edge->attr_question = it->second.question;
    edge->p_attr = it->second.question.similarity;
  } else {
    // Synthesized on the fly; canonical orientation: min-row spelling first.
    edge->attr_question.column = x;
    edge->attr_question.value_a = *sa;
    edge->attr_question.value_b = *sb;
    edge->p_attr = JaccardOf(env, *sa, *sb);
    edge->attr_question.similarity = edge->p_attr;
  }
}

size_t EnsureVertexIn(Erg* erg, size_t row) {
  size_t v = erg->VertexOfRow(row);
  if (v != Erg::kNoVertex) return v;
  ErgVertex vertex;
  vertex.row = row;
  return erg->AddVertex(std::move(vertex));
}

// Refreshes M/O payloads of the vertex backing `row` from the pools
// (canonical overwrite order: pool key ascending, so the greatest column
// wins when a row carries several questions of one kind).
void RefreshVertexPayload(const AssemblyEnv& env, Erg* erg, size_t row) {
  size_t v = erg->VertexOfRow(row);
  if (v == Erg::kNoVertex) return;
  ErgVertex& vertex = erg->vertex(v);
  vertex.missing.reset();
  vertex.outlier.reset();
  for (auto it = env.store->m_pool().lower_bound({row, 0});
       it != env.store->m_pool().end() && it->first.first == row; ++it) {
    vertex.missing = it->second.question;
  }
  for (auto it = env.store->o_pool().lower_bound({row, 0});
       it != env.store->o_pool().end() && it->first.first == row; ++it) {
    vertex.outlier = it->second.question;
  }
}

// Builds the slot graph (bare edges, no payloads) for the current pools.
// Shared by the stateless full assembly and the cache's full rebuild.
void BuildSlots(const AssemblyEnv& env, Erg* erg,
                std::map<std::pair<size_t, size_t>, bool>* tuple_sourced,
                std::map<AQuestionKey, std::pair<size_t, size_t>>* promoted) {
  for (const auto& [key, stored] : env.store->t_pool()) {
    EnsureVertexIn(erg, key.first);
    EnsureVertexIn(erg, key.second);
    (*tuple_sourced)[key] = true;
  }
  *promoted = SelectPromotions(env);
  for (const auto& [akey, pair] : *promoted) {
    EnsureVertexIn(erg, pair.first);
    EnsureVertexIn(erg, pair.second);
    (*tuple_sourced)[pair] = false;
  }
  for (const auto& [key, stored] : env.store->m_pool()) {
    EnsureVertexIn(erg, key.first);
  }
  for (const auto& [key, stored] : env.store->o_pool()) {
    EnsureVertexIn(erg, key.first);
  }
  for (const auto& [pair, is_tuple] : *tuple_sourced) {
    ErgEdge edge;
    edge.u = erg->VertexOfRow(pair.first);
    edge.v = erg->VertexOfRow(pair.second);
    erg->AddEdge(std::move(edge));
  }
  for (size_t v = 0; v < erg->num_vertices(); ++v) {
    RefreshVertexPayload(env, erg, erg->vertex(v).row);
  }
}

// Recomputes every live edge payload. O(|E|) with the spelling shadow and
// the jaccard memo; the full-build paths use it for correctness by
// recomputation (DeltaUpdate instead tracks fine-grained invalidation —
// promoted edges, pool churn, journal-dirty incidence — and refreshes
// only those; see step 4 there).
void RefreshAllPayloads(
    const AssemblyEnv& env, Erg* erg,
    const std::function<bool(std::pair<size_t, size_t>)>& is_tuple_sourced) {
  // One pass collects the live edges; the promoted-A subset goes through a
  // single batched MatchProbabilities call (flat-forest kernel, routed via
  // env.kernel) before the fill pass.
  std::vector<size_t> live_edges;
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<char> tuple;
  std::vector<std::pair<size_t, size_t>> em_pairs;
  for (size_t e = 0; e < erg->num_edges(); ++e) {
    if (!erg->edge_live(e)) continue;
    const ErgEdge& edge = erg->edge(e);
    std::pair<size_t, size_t> pair =
        std::minmax(erg->vertex(edge.u).row, erg->vertex(edge.v).row);
    bool is_tuple = is_tuple_sourced(pair);
    live_edges.push_back(e);
    pairs.push_back(pair);
    tuple.push_back(is_tuple ? 1 : 0);
    if (!is_tuple) em_pairs.push_back(pair);
  }
  std::vector<double> em_probs = env.em->MatchProbabilities(
      *env.table, em_pairs, env.features, env.kernel);
  size_t next_em = 0;
  for (size_t i = 0; i < live_edges.size(); ++i) {
    double p = tuple[i] != 0 ? 0.0 : em_probs[next_em++];
    FillEdgePayload(env, pairs[i].first, pairs[i].second, tuple[i] != 0, p,
                    &erg->edge(live_edges[i]));
    if (env.stats != nullptr) ++env.stats->payload_refreshes;
  }
}

}  // namespace

void ErgCache::AssembleFull(const Table& table, const QuestionStore& store,
                            const EmModel& em, const ErgRequest& request,
                            Erg* out) {
  XValueIndex index;
  if (request.x_column != ErgRequest::kNoColumn) {
    index.FullRebuild(table, request.x_column, /*pool=*/nullptr);
  }
  AssemblyEnv env;
  env.table = &table;
  env.store = &store;
  env.em = &em;
  env.request = &request;
  env.index = &index;

  Erg work;
  std::map<std::pair<size_t, size_t>, bool> tuple_sourced;
  std::map<AQuestionKey, std::pair<size_t, size_t>> promoted;
  BuildSlots(env, &work, &tuple_sourced, &promoted);
  RefreshAllPayloads(env, &work, [&](std::pair<size_t, size_t> pair) {
    return tuple_sourced.at(pair);
  });
  *out = work.Compacted();
}

void ErgCache::EnsureConfig(const ErgRequest& request) {
  std::ostringstream fp;
  fp << "x=" << request.x_column << ";cap=" << request.max_promoted_a;
  if (fp.str() != fingerprint_) {
    Clear();
    fingerprint_ = fp.str();
  }
}

const XValueIndex& ErgCache::SyncValueIndex(const Table& table,
                                            const ErgRequest& request,
                                            ThreadPool* pool) {
  EnsureConfig(request);
  if (request.x_column == ErgRequest::kNoColumn) {
    // No X column: the graph depends only on the pools, never the journal.
    watermark_ = table.mutation_count();
    return index_;
  }
  if (!index_.primed()) {
    index_.FullRebuild(table, request.x_column, pool);
    rebuild_graph_ = true;
    join_rebuild_ = true;
    watermark_ = table.mutation_count();
    return index_;
  }
  std::vector<size_t> dirty = table.MutatedRowsSince(watermark_);
  watermark_ = table.mutation_count();
  if (dirty.empty()) return index_;
  double fraction = static_cast<double>(dirty.size()) /
                    static_cast<double>(std::max<size_t>(1, table.num_rows()));
  stats_.last_dirty_rows = dirty.size();
  stats_.last_dirty_fraction = fraction;
  if (fraction > request.dirty_fallback_threshold) {
    index_.FullRebuild(table, request.x_column, pool);
    rebuild_graph_ = true;
    join_rebuild_ = true;
    ++stats_.fallback_full_builds;
  } else {
    // Accumulated across every sync between graph updates (generate- and
    // ask-stage readers sync too); consumed by the next DeltaUpdate /
    // SyncSimJoin respectively.
    index_.Fold(table, request.x_column, dirty, &pending_join_spellings_);
    ++stats_.index_folds;
    pending_payload_rows_.insert(dirty.begin(), dirty.end());
  }
  return index_;
}

const IncrementalSimJoin& ErgCache::SyncSimJoin(
    const Table& table, const ErgRequest& request,
    const SimJoinOptions& join_options, ThreadPool* pool) {
  VC_CHECK(request.x_column != ErgRequest::kNoColumn,
           "SyncSimJoin requires an X column");
  SyncValueIndex(table, request, pool);

  auto rebuild = [&](bool dirty_fallback) {
    std::vector<std::string> items;
    items.reserve(index_.num_spellings());
    for (const auto& [spelling, rows] : index_.rows_of()) {
      items.push_back(spelling);
    }
    sim_join_.Rebuild(items, join_options, pool, dirty_fallback);
    join_rebuild_ = false;
    pending_join_spellings_.clear();
  };

  if (join_rebuild_ || !sim_join_.OptionsMatch(join_options)) {
    // An index full rebuild counts as a join dirty-fraction fallback only
    // when a maintained join actually got discarded by it.
    rebuild(/*dirty_fallback=*/join_rebuild_ &&
            sim_join_.OptionsMatch(join_options));
    return sim_join_;
  }
  if (pending_join_spellings_.empty()) return sim_join_;

  // Net the touched spellings against the current item set: only
  // live-but-absent (insert) and dead-but-present (retract) survive; a
  // spelling that died and revived between syncs nets to a no-op.
  std::vector<std::string> inserts, retracts;
  for (const std::string& s : pending_join_spellings_) {
    bool live = index_.Count(s) > 0;
    bool present = sim_join_.Contains(s);
    if (live && !present) {
      inserts.push_back(s);
    } else if (!live && present) {
      retracts.push_back(s);
    }
  }
  double fraction =
      static_cast<double>(inserts.size() + retracts.size()) /
      static_cast<double>(std::max<size_t>(1, sim_join_.num_items()));
  if (fraction > request.dirty_fallback_threshold) {
    rebuild(/*dirty_fallback=*/true);
  } else {
    if (!inserts.empty() || !retracts.empty()) {
      sim_join_.ApplyDelta(retracts, inserts, fraction);
    }
    pending_join_spellings_.clear();
  }
  return sim_join_;
}

const ErgSelectSupport* ErgCache::RefreshSelectSupport(const Erg& published,
                                                       Arena* arena) {
  select_support_.Refresh(published, arena);
  ++stats_.support_refreshes;
  return &select_support_;
}

size_t ErgCache::EnsureVertex(size_t row) { return EnsureVertexIn(&work_, row); }

void ErgCache::AddEdgeForPair(const RowPair& pair, SourceInfo info) {
  ErgEdge edge;
  edge.u = EnsureVertex(pair.first);
  edge.v = EnsureVertex(pair.second);
  VC_CHECK(work_.EdgeBetween(edge.u, edge.v) == Erg::kNoEdge,
           "ErgCache: inserting a duplicate edge for a row pair");
  work_.AddEdge(std::move(edge));
  edge_source_[pair] = std::move(info);
  ++stats_.edges_inserted;
}

void ErgCache::RetractEdgeForPair(const RowPair& pair) {
  size_t u = work_.VertexOfRow(pair.first);
  size_t v = work_.VertexOfRow(pair.second);
  VC_CHECK(u != Erg::kNoVertex && v != Erg::kNoVertex,
           "ErgCache: retracting an edge with missing endpoints");
  size_t e = work_.EdgeBetween(u, v);
  VC_CHECK(e != Erg::kNoEdge, "ErgCache: retracting an absent edge");
  work_.RetractEdge(e);
  ++stats_.edges_retracted;
}

void ErgCache::SweepIsolatedVertices() {
  for (size_t v = 0; v < work_.num_vertices(); ++v) {
    if (!work_.vertex_live(v)) continue;
    if (!work_.IncidentEdges(v).empty()) continue;
    const ErgVertex& vertex = work_.vertex(v);
    if (vertex.missing.has_value() || vertex.outlier.has_value()) continue;
    work_.RetractVertex(v);
  }
}

void ErgCache::FullGraphBuild(const Table& table, const QuestionStore& store,
                              const EmModel& em, const ErgRequest& request,
                              PairFeatureCache* features,
                              const KernelEnv& kenv) {
  work_ = Erg();
  edge_source_.clear();
  promoted_.clear();

  AssemblyEnv env;
  env.table = &table;
  env.store = &store;
  env.em = &em;
  env.request = &request;
  env.index = &index_;
  env.memo = &jaccard_memo_;
  env.stats = &stats_;
  env.features = features;
  env.kernel = kenv;

  std::map<std::pair<size_t, size_t>, bool> tuple_sourced;
  BuildSlots(env, &work_, &tuple_sourced, &promoted_);
  for (const auto& [pair, is_tuple] : tuple_sourced) {
    SourceInfo info;
    info.source = is_tuple ? EdgeSource::kTuple : EdgeSource::kPromotedA;
    edge_source_[pair] = info;
  }
  for (const auto& [akey, pair] : promoted_) {
    edge_source_[pair].akey = akey;
  }
  RefreshAllPayloads(env, &work_, [&](std::pair<size_t, size_t> pair) {
    return edge_source_.at(pair).source == EdgeSource::kTuple;
  });
  pending_payload_rows_.clear();  // everything was just recomputed
  ++stats_.full_builds;
  primed_ = true;
  rebuild_graph_ = false;
}

void ErgCache::DeltaUpdate(const Table& table, const QuestionStore& store,
                           const EmModel& em, const ErgRequest& request,
                           PairFeatureCache* features, const KernelEnv& kenv) {
  AssemblyEnv env;
  env.table = &table;
  env.store = &store;
  env.em = &em;
  env.request = &request;
  env.index = &index_;
  env.memo = &jaccard_memo_;
  env.stats = &stats_;
  env.features = features;
  env.kernel = kenv;

  const QuestionDelta& delta = store.last_delta();

  // 1. T-question delta: retire edges whose question left the pool, insert
  //    edges for new questions (taking over pairs currently held by an
  //    A-promotion — the promotion diff below retires its bookkeeping).
  for (const TQuestionKey& key : delta.t_removed) {
    auto it = edge_source_.find(key);
    if (it != edge_source_.end() && it->second.source == EdgeSource::kTuple) {
      RetractEdgeForPair(key);
      edge_source_.erase(it);
    }
  }
  for (const TQuestion& q : delta.t_added) {
    TQuestionKey key = KeyOf(q);
    auto it = edge_source_.find(key);
    if (it != edge_source_.end()) {
      if (it->second.source != EdgeSource::kPromotedA) continue;
      RetractEdgeForPair(key);
      edge_source_.erase(it);
    }
    SourceInfo info;
    info.source = EdgeSource::kTuple;
    AddEdgeForPair(key, info);
  }

  // 2. Promotion diff: recompute the canonical promoted set against the new
  //    pools/representatives, retire promotions that fell out or moved, add
  //    the new ones.
  std::map<AQuestionKey, RowPair> next_promoted = SelectPromotions(env);
  for (const auto& [akey, pair] : promoted_) {
    auto it = next_promoted.find(akey);
    if (it != next_promoted.end() && it->second == pair) continue;
    auto sit = edge_source_.find(pair);
    if (sit != edge_source_.end() &&
        sit->second.source == EdgeSource::kPromotedA &&
        sit->second.akey == akey) {
      RetractEdgeForPair(pair);
      edge_source_.erase(sit);
    }
  }
  for (const auto& [akey, pair] : next_promoted) {
    auto it = promoted_.find(akey);
    if (it != promoted_.end() && it->second == pair) continue;
    SourceInfo info;
    info.source = EdgeSource::kPromotedA;
    info.akey = akey;
    AddEdgeForPair(pair, std::move(info));
  }
  promoted_ = std::move(next_promoted);

  // 3. M/O payload delta: refresh the vertices of rows whose questions
  //    changed (creating vertices for brand-new question rows).
  std::set<size_t> payload_rows;
  for (const MQuestion& q : delta.m_added) {
    EnsureVertex(q.row);
    payload_rows.insert(q.row);
  }
  for (const MQuestion& q : delta.m_updated) payload_rows.insert(q.row);
  for (const CellQuestionKey& key : delta.m_removed) {
    payload_rows.insert(key.first);
  }
  for (const OQuestion& q : delta.o_added) {
    EnsureVertex(q.row);
    payload_rows.insert(q.row);
  }
  for (const OQuestion& q : delta.o_updated) payload_rows.insert(q.row);
  for (const CellQuestionKey& key : delta.o_removed) {
    payload_rows.insert(key.first);
  }
  for (size_t row : payload_rows) {
    RefreshVertexPayload(env, &work_, row);
  }

  // 4. Selective edge payload refresh: recompute exactly the payloads with
  //    a changed input. A payload is a pure function of (t_pool entry | EM
  //    probability of the rows), the endpoints' X spellings, and the a_pool
  //    entry of the current spelling pair, so the refresh set is
  //     * every promoted-A edge (the EM model retrains each iteration);
  //     * edges whose T-question was added or re-scored;
  //     * edges incident to a journal-dirty row (spelling / features);
  //     * T-edges whose current spelling-pair A-question churned.
  //    The full-build paths still recompute everything (RefreshAllPayloads).
  std::set<RowPair> refresh;
  for (const auto& [akey, pair] : promoted_) refresh.insert(pair);
  for (const TQuestion& q : delta.t_added) refresh.insert(KeyOf(q));
  for (const TQuestion& q : delta.t_updated) refresh.insert(KeyOf(q));
  for (size_t row : pending_payload_rows_) {
    size_t v = work_.VertexOfRow(row);
    if (v == Erg::kNoVertex) continue;
    for (size_t e : work_.IncidentEdges(v)) {
      const ErgEdge& edge = work_.edge(e);
      refresh.insert(RowPair(
          std::minmax(work_.vertex(edge.u).row, work_.vertex(edge.v).row)));
    }
  }
  std::set<AQuestionKey> churned_akeys;
  for (const AQuestion& q : delta.a_added) churned_akeys.insert(KeyOf(q));
  for (const AQuestion& q : delta.a_updated) churned_akeys.insert(KeyOf(q));
  for (const AQuestionKey& key : delta.a_removed) churned_akeys.insert(key);
  if (!churned_akeys.empty() &&
      request.x_column != ErgRequest::kNoColumn) {
    for (size_t e = 0; e < work_.num_edges(); ++e) {
      if (!work_.edge_live(e)) continue;
      const ErgEdge& edge = work_.edge(e);
      RowPair pair(
          std::minmax(work_.vertex(edge.u).row, work_.vertex(edge.v).row));
      const std::optional<std::string>& sa = index_.SpellingOf(pair.first);
      const std::optional<std::string>& sb = index_.SpellingOf(pair.second);
      if (!sa.has_value() || !sb.has_value() || *sa == *sb) continue;
      AQuestionKey akey{request.x_column, std::minmax(*sa, *sb)};
      if (churned_akeys.count(akey) > 0) refresh.insert(pair);
    }
  }
  // Resolve the refresh set to live edges, batch the promoted-A EM
  // probabilities (one MatchProbabilities call over all of them), then fill.
  std::vector<size_t> refresh_edges;
  std::vector<RowPair> refresh_pairs;
  std::vector<char> refresh_tuple;
  std::vector<RowPair> em_pairs;
  for (const RowPair& pair : refresh) {
    size_t u = work_.VertexOfRow(pair.first);
    size_t v = work_.VertexOfRow(pair.second);
    if (u == Erg::kNoVertex || v == Erg::kNoVertex) continue;
    size_t e = work_.EdgeBetween(u, v);
    if (e == Erg::kNoEdge) continue;
    bool is_tuple = edge_source_.at(pair).source == EdgeSource::kTuple;
    refresh_edges.push_back(e);
    refresh_pairs.push_back(pair);
    refresh_tuple.push_back(is_tuple ? 1 : 0);
    if (!is_tuple) em_pairs.push_back(pair);
  }
  std::vector<double> em_probs =
      em.MatchProbabilities(table, em_pairs, features, kenv);
  size_t next_em = 0;
  for (size_t i = 0; i < refresh_edges.size(); ++i) {
    double p = refresh_tuple[i] != 0 ? 0.0 : em_probs[next_em++];
    FillEdgePayload(env, refresh_pairs[i].first, refresh_pairs[i].second,
                    refresh_tuple[i] != 0, p, &work_.edge(refresh_edges[i]));
    ++stats_.payload_refreshes;
  }
  pending_payload_rows_.clear();

  // 5. Vertices left with no live edges and no question payload are gone
  //    from the canonical graph; retract their slots.
  SweepIsolatedVertices();
  ++stats_.delta_updates;
}

void ErgCache::BeginIteration(const Table& table, const QuestionStore& store,
                              const EmModel& em, const ErgRequest& request,
                              PairFeatureCache* features, const KernelEnv& env,
                              Erg* out) {
  SyncValueIndex(table, request, env.pool);  // also runs EnsureConfig
  if (!primed_ || rebuild_graph_) {
    FullGraphBuild(table, store, em, request, features, env);
  } else {
    DeltaUpdate(table, store, em, request, features, env);
  }
  if (work_.edge_tombstone_fraction() > request.compact_tombstone_fraction) {
    work_ = work_.Compacted();
    ++stats_.slot_compactions;
  }
  *out = work_.Compacted();
}

void ErgCache::ResyncRolledBack(const Table& table) {
  if (!primed_ && !index_.primed()) return;
  watermark_ = table.mutation_count();
}

void ErgCache::Clear() {
  primed_ = false;
  rebuild_graph_ = false;
  fingerprint_.clear();
  watermark_ = 0;
  stats_ = ErgStats();
  index_.Clear();
  work_ = Erg();
  edge_source_.clear();
  promoted_.clear();
  jaccard_memo_.clear();
  pending_payload_rows_.clear();
  sim_join_.Clear();
  pending_join_spellings_.clear();
  join_rebuild_ = false;
  select_support_.Clear();
}

}  // namespace visclean
