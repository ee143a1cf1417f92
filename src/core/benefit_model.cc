#include "core/benefit_model.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "clean/repair.h"
#include "common/thread_pool.h"
#include "dist/emd.h"
#include "vql/executor.h"

namespace visclean {

namespace {

// Renders the query; an execution error (should not happen for a query that
// rendered before) yields an empty visualization, i.e. zero benefit.
VisData Render(const VqlQuery& query, const Table& table) {
  Result<VisData> vis = ExecuteVql(query, table);
  if (!vis.ok()) return {};
  return std::move(vis).value();
}

// Everything one evaluation thread needs to render a candidate
// incrementally: the shared immutable baseline plus its own scratch.
// `prov` is null when only counters are wanted (full renders).
struct IncrementalCtx {
  const VisProvenance* prov = nullptr;  // shared, read-only
  DeltaScratch* scratch = nullptr;      // per-worker
  std::vector<size_t> touched;          // reused per candidate
  BenefitStats* stats = nullptr;
};

// Renders the speculatively repaired table, rolls the repair back, and
// returns how far the visualization moved. With an incremental context the
// render touches only the groups whose rows the repair changed; a repair
// that rewrote a large fraction of the table (mass standardizations) falls
// back to the plain full render, which is cheaper than delta assembly at
// that size — the per-candidate incremental-vs-full choice.
double DistAfter(const VqlQuery& query, Table* table, const VisData& current,
                 UndoLog* undo, size_t* renders, IncrementalCtx* inc) {
  VisData speculative;
  bool delta = false;
  if (inc != nullptr && inc->prov != nullptr) {
    inc->touched.clear();
    undo->CollectTouchedRows(&inc->touched);
    delta = inc->touched.size() < table->num_rows() / 2;
  }
  if (delta) {
    speculative =
        ExecuteVqlDelta(query, *table, *inc->prov, inc->touched, inc->scratch);
    if (inc->stats != nullptr) ++inc->stats->delta_evals;
  } else {
    speculative = Render(query, *table);
    if (inc != nullptr && inc->stats != nullptr) ++inc->stats->full_evals;
  }
  ++*renders;
  undo->Rollback(table);
  return EmdDistance(current, speculative);
}

// B_M + B_O of one vertex: render after the suggested imputation/repair.
// `table` is any exact copy of the session table; restored before return.
double VertexBenefit(const VqlQuery& query, Table* table,
                     const ErgVertex& vertex, const VisData& current,
                     size_t* renders, IncrementalCtx* inc) {
  if (table->is_dead(vertex.row)) return 0.0;
  double benefit = 0.0;
  if (vertex.missing.has_value()) {
    UndoLog undo;
    ApplyCellRepair(table, vertex.missing->row, vertex.missing->column,
                    vertex.missing->suggested, &undo);
    benefit += DistAfter(query, table, current, &undo, renders, inc);  // B_M
  }
  if (vertex.outlier.has_value()) {
    UndoLog undo;
    ApplyCellRepair(table, vertex.outlier->row, vertex.outlier->column,
                    vertex.outlier->suggested, &undo);
    benefit += DistAfter(query, table, current, &undo, renders, inc);  // B_O
  }
  return benefit;
}

// B_T + B_A of one edge (the endpoint vertex benefits are composed by the
// caller). `table` is restored before return.
double EdgeLocalBenefit(const VqlQuery& query, Table* table, const Erg& erg,
                        const ErgEdge& edge, const BenefitOptions& options,
                        const VisData& current, size_t* renders,
                        IncrementalCtx* inc) {
  size_t row_a = erg.vertex(edge.u).row;
  size_t row_b = erg.vertex(edge.v).row;
  if (table->is_dead(row_a) || table->is_dead(row_b)) return 0.0;
  double benefit = 0.0;

  // B_T: confirm branch = merge + standardize the pair's X spellings.
  {
    UndoLog undo;
    if (options.x_column != BenefitOptions::kNoColumn) {
      const Value& xa = table->at(row_a, options.x_column);
      const Value& xb = table->at(row_b, options.x_column);
      if (!xa.is_null() && !xb.is_null()) {
        std::string sa = xa.ToDisplayString();
        std::string sb = xb.ToDisplayString();
        if (sa != sb) {
          ApplyTransformation(table, options.x_column, sa, sb, &undo);
        }
      }
    }
    MergeRows(table, {row_a, row_b}, &undo);
    benefit +=
        edge.p_tuple * DistAfter(query, table, current, &undo, renders, inc);
  }
  // B_A: approve branch = standardize the edge's A-question alone.
  if (edge.has_attr && options.x_column != BenefitOptions::kNoColumn) {
    UndoLog undo;
    ApplyTransformation(table, options.x_column, edge.attr_question.value_a,
                        edge.attr_question.value_b, &undo);
    benefit +=
        edge.p_attr * DistAfter(query, table, current, &undo, renders, inc);
  }
  return benefit;
}

}  // namespace

void BenefitEngine::RebuildFull(const VqlQuery& query, Table* table) {
  Result<VisData> vis = ExecuteVqlIndexed(query, *table, &prov_);
  if (vis.ok()) {
    baseline_ = std::move(vis).value();
  } else {
    baseline_ = VisData{};
    prov_.Clear();
  }
  ++full_rebuilds_;
}

void BenefitEngine::Prepare(const VqlQuery& query, Table* table) {
  std::string fingerprint = query.ToString();
  if (!primed_ || fingerprint != query_fingerprint_) {
    query_fingerprint_ = std::move(fingerprint);
    RebuildFull(query, table);
    primed_ = true;
  } else {
    std::vector<size_t> touched = table->MutatedRowsSince(watermark_);
    if (!touched.empty()) {
      if (prov_.supported) {
        baseline_ = CommitVqlDelta(query, *table, touched, &prov_, &scratch_);
        ++delta_commits_;
      } else {
        RebuildFull(query, table);
      }
    }
  }
  // Journal compaction is the session driver's job: other consumers (the
  // DetectionCache) hold their own watermarks, so compacting here would pull
  // the journal out from under them.
  watermark_ = table->mutation_count();
}

void BenefitEngine::ResyncRolledBack(Table* table) {
  if (!primed_) return;
  watermark_ = table->mutation_count();
}

void BenefitEngine::Invalidate() {
  primed_ = false;
  query_fingerprint_.clear();
  baseline_ = VisData{};
  prov_.Clear();
}

size_t EstimateBenefits(const VqlQuery& query, Table* table, Erg* erg,
                        const BenefitOptions& options) {
  size_t renders = 0;

  // Incremental path: the engine's Prepare()d baseline stands in for the
  // from-scratch render (same bits — both come from ExecuteImpl / the
  // delta-commit that is proven equivalent to it), and when the provenance
  // index is valid each candidate re-aggregates only its dirty groups.
  const bool have_engine = options.engine != nullptr;
  const bool incremental = have_engine && options.engine->incremental_ready();

  VisData current_storage;
  const VisData* current;
  if (have_engine) {
    current = &options.engine->baseline();
  } else {
    current_storage = Render(query, *table);
    current = &current_storage;
  }
  ++renders;  // the baseline counts as one evaluation, engine or not

  const size_t num_vertices = erg->num_vertices();
  const size_t num_edges = erg->num_edges();
  std::vector<double> vertex_benefit(num_vertices, 0.0);
  std::vector<double> edge_local(num_edges, 0.0);

  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && options.threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(options.threads);
    pool = owned_pool.get();
  }

  if (pool == nullptr || pool->num_threads() <= 1) {
    // Serial path: speculative repair + rollback in place on `table`.
    DeltaScratch scratch;
    IncrementalCtx inc_storage;
    IncrementalCtx* inc = &inc_storage;
    if (incremental) {
      inc_storage.prov = &options.engine->provenance();
      inc_storage.scratch = &scratch;
    }
    inc_storage.stats = options.stats;
    for (size_t i = 0; i < num_vertices; ++i) {
      vertex_benefit[i] =
          VertexBenefit(query, table, erg->vertex(i), *current, &renders, inc);
    }
    for (size_t e = 0; e < num_edges; ++e) {
      edge_local[e] = EdgeLocalBenefit(query, table, *erg, erg->edge(e),
                                       options, *current, &renders, inc);
    }
  } else {
    // Parallel path: every speculative repair is independent (each rolls
    // back before the next starts), so workers evaluate disjoint index
    // ranges against per-thread table shadows. One clone per worker per
    // call — not per edge — then the UndoLog gives copy-on-write of only
    // the touched rows within the shadow. Workers share the engine's
    // immutable baseline/provenance and own their delta scratch.
    const size_t n = pool->num_threads();
    std::vector<Table> shadows;
    shadows.reserve(n);
    for (size_t w = 0; w < n; ++w) shadows.push_back(table->Clone());
    std::vector<size_t> worker_renders(n, 0);
    std::vector<DeltaScratch> scratches(n);
    std::vector<IncrementalCtx> incs(n);
    std::vector<BenefitStats> worker_stats(n);
    for (size_t w = 0; w < n; ++w) {
      if (incremental) {
        incs[w].prov = &options.engine->provenance();
        incs[w].scratch = &scratches[w];
      }
      incs[w].stats = options.stats != nullptr ? &worker_stats[w] : nullptr;
    }
    auto inc_of = [&](size_t w) -> IncrementalCtx* { return &incs[w]; };

    pool->ParallelChunks(
        num_vertices, [&](size_t w, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            vertex_benefit[i] =
                VertexBenefit(query, &shadows[w], erg->vertex(i), *current,
                              &worker_renders[w], inc_of(w));
          }
        });
    pool->ParallelChunks(num_edges, [&](size_t w, size_t begin, size_t end) {
      for (size_t e = begin; e < end; ++e) {
        edge_local[e] =
            EdgeLocalBenefit(query, &shadows[w], *erg, erg->edge(e), options,
                             *current, &worker_renders[w], inc_of(w));
      }
    });
    for (size_t w = 0; w < n; ++w) {
      renders += worker_renders[w];
      if (options.stats != nullptr) {
        options.stats->delta_evals += worker_stats[w].delta_evals;
        options.stats->full_evals += worker_stats[w].full_evals;
      }
    }
  }

  // Deterministic reduction in edge order; the parenthesization matches the
  // historical serial composition benefit = (B_T + B_A) + (B_u + B_v), so
  // every thread count produces float-identical edge benefits.
  for (size_t e = 0; e < num_edges; ++e) {
    ErgEdge& edge = erg->edge(e);
    edge.benefit =
        edge_local[e] + (vertex_benefit[edge.u] + vertex_benefit[edge.v]);
  }
  if (options.stats != nullptr) options.stats->renders += renders;
  return renders;
}

}  // namespace visclean
