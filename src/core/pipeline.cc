#include "core/pipeline.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "clean/a_question_gen.h"
#include "clean/missing_detector.h"
#include "clean/outlier_detector.h"
#include "clean/repair.h"
#include "common/rng.h"
#include "core/benefit_model.h"
#include "em/active_learning.h"
#include "em/blocking.h"
#include "em/clustering.h"

namespace visclean {

namespace {

// Machine auto-merge waits for this many user labels (see ApplyStage).
constexpr size_t kMinLabelsForAutoMerge = 5;

// Records a user-asserted transformation `variant` -> `target` on
// `local_rows`: repairs those rows immediately and applies the
// transformation table-wide once a second independent answer agrees.
void VoteTransformation(EngineContext& ctx, size_t column,
                        const std::string& variant, const std::string& target,
                        const std::vector<size_t>& local_rows) {
  if (variant == target || target.empty()) return;
  // Local repair: the rows the user actually looked at.
  for (size_t r : local_rows) {
    if (ctx.table.is_dead(r)) continue;
    const Value& v = ctx.table.at(r, column);
    if (!v.is_null() && v.ToDisplayString() == variant) {
      ctx.table.Set(r, column, Value::String(target));
    }
  }
  auto& vote = ctx.transform_votes[variant];
  if (vote.first == target) {
    ++vote.second;
  } else {
    vote = {target, 1};
  }
  if (vote.second >= 2) {
    ApplyTransformation(&ctx.table, column, variant, target);
  }
}

// The structural inputs of this iteration's ERG assembly (core/erg_cache.h).
// The promotion cap reuses the T-question cap, matching the legacy builder.
ErgRequest ErgRequestFor(const EngineContext& ctx) {
  ErgRequest request;
  request.x_column = XColumnOrNoColumn(ctx);
  request.max_promoted_a = ctx.options.max_t_questions;
  request.dirty_fallback_threshold = ctx.options.erg_dirty_threshold;
  return request;
}

// Archives the X spelling variants of a cluster about to be machine-merged
// as future A-questions.
void RecordWitnessedSpellings(EngineContext& ctx,
                              const std::vector<size_t>& rows) {
  size_t x_col = XColumnOrNoColumn(ctx);
  if (x_col == BenefitOptions::kNoColumn) return;
  std::set<std::string> spellings;
  std::map<std::string, size_t> freq;
  for (size_t r : rows) {
    if (ctx.table.is_dead(r)) continue;
    const Value& v = ctx.table.at(r, x_col);
    if (v.is_null()) continue;
    std::string sp = v.ToDisplayString();
    spellings.insert(sp);
    ++freq[sp];
  }
  if (spellings.size() < 2) return;
  std::string target;
  size_t best = 0;
  for (const auto& [sp, n] : freq) {
    if (n > best) {
      best = n;
      target = sp;
    }
  }
  for (const std::string& sp : spellings) {
    if (sp == target) continue;
    if (ctx.a_answered.count(std::minmax(sp, target))) continue;
    AQuestion q;
    q.column = x_col;
    q.value_a = sp;
    q.value_b = target;
    q.similarity = 0.9;  // cluster co-membership is strong evidence
    ctx.merge_witnessed_a.push_back(std::move(q));
  }
}

// Golden-record standardization: rewrites every live cell that carries any
// of the X spellings of the co-referring `rows` to one target spelling —
// the user's preferred form when `ask_user` (user-confirmed merges), else
// the frequency-elected form (machine merges).
void StandardizeXAcrossRows(EngineContext& ctx, const std::vector<size_t>& rows,
                            bool ask_user = true) {
  size_t x_col = XColumnOrNoColumn(ctx);
  if (x_col == BenefitOptions::kNoColumn) return;
  // Distinct spellings carried by the co-referring rows.
  std::set<std::string> spellings;
  for (size_t r : rows) {
    if (ctx.table.is_dead(r)) continue;
    const Value& v = ctx.table.at(r, x_col);
    if (!v.is_null()) spellings.insert(v.ToDisplayString());
  }
  if (spellings.size() < 2) return;
  // The user merging these tuples also answers "which value should be
  // used?" — standardize on their preferred spelling. Machine-initiated
  // merges (ask_user = false) must not consume user knowledge and fall
  // back to the globally most frequent spelling (golden-record election).
  std::string target;
  if (ask_user) {
    // The user resolves every witnessed spelling to their preferred form;
    // the first resolution that differs from its input reveals it.
    for (const std::string& sp : spellings) {
      std::string preferred = ctx.user.PreferredSpelling(x_col, sp);
      if (!preferred.empty()) {
        target = preferred;
        break;
      }
    }
  }
  if (target.empty()) {
    size_t best = 0;
    if (ctx.options.erg_mode == ErgMode::kAuto) {
      // Frequency election served by the journal-synced X value index
      // instead of a full-table scan. Mid-ask syncs are safe: the fold is
      // idempotent for a fixed table state. Spellings absent from live data
      // count zero and can never win, so iterating the (sorted) witnessed
      // set matches the legacy sorted-frequency-map walk exactly.
      const XValueIndex& index =
          ctx.erg_cache.SyncValueIndex(ctx.table, ErgRequestFor(ctx), ctx.pool);
      for (const std::string& sp : spellings) {
        size_t n = index.Count(sp);
        if (n > best) {
          best = n;
          target = sp;
        }
      }
    } else {
      std::map<std::string, size_t> freq;
      for (size_t r : ctx.table.LiveRowIds()) {
        const Value& v = ctx.table.at(r, x_col);
        if (v.is_null()) continue;
        std::string s = v.ToDisplayString();
        if (spellings.count(s)) ++freq[s];
      }
      for (const auto& [s, n] : freq) {
        if (n > best) {
          best = n;
          target = s;
        }
      }
    }
  }
  if (target.empty()) return;
  for (const std::string& sp : spellings) {
    if (sp == target) continue;
    if (ask_user) {
      VoteTransformation(ctx, x_col, sp, target, rows);
    } else {
      // Machine-initiated merges only consolidate the rows at hand.
      for (size_t r : rows) {
        if (ctx.table.is_dead(r)) continue;
        const Value& v = ctx.table.at(r, x_col);
        if (!v.is_null() && v.ToDisplayString() == sp) {
          ctx.table.Set(r, x_col, Value::String(target));
        }
      }
    }
  }
}

// Confirm-edge repair: merge two rows + standardize their X spellings.
void ApplyConfirmedMatch(EngineContext& ctx, size_t row_a, size_t row_b) {
  StandardizeXAcrossRows(ctx, {row_a, row_b});
  MergeRows(&ctx.table, {row_a, row_b});
}

}  // namespace

size_t XColumnOrNoColumn(const EngineContext& ctx) {
  Result<size_t> col = ctx.table.schema().IndexOf(ctx.query.x_column);
  if (col.ok() &&
      ctx.table.schema().column(col.value()).type == ColumnType::kCategorical) {
    return col.value();
  }
  for (const Predicate& p : ctx.query.predicates) {
    Result<size_t> pc = ctx.table.schema().IndexOf(p.column);
    if (pc.ok() &&
        ctx.table.schema().column(pc.value()).type ==
            ColumnType::kCategorical) {
      return pc.value();
    }
  }
  return BenefitOptions::kNoColumn;
}

// ------------------------------------------------------------ DetectStage --

Status DetectStage::Run(EngineContext& ctx) {
  ctx.questions = QuestionSet();

  // Blocking + kNN detectors (Fig. 18 "Detect Errors").
  DetectionRequest request;
  for (const ColumnSpec& col : ctx.table.schema().columns()) {
    if (col.type == ColumnType::kText) {
      request.blocking.key_columns.push_back(col.name);
    }
  }
  if (request.blocking.key_columns.empty()) {
    for (const ColumnSpec& col : ctx.table.schema().columns()) {
      if (col.type == ColumnType::kCategorical) {
        request.blocking.key_columns.push_back(col.name);
      }
    }
  }
  request.blocking.max_block_size = ctx.options.blocking_max_block;

  Result<size_t> y_col = ctx.table.schema().IndexOf(ctx.query.y_column);
  request.numeric_y =
      y_col.ok() &&
      ctx.table.schema().column(y_col.value()).type == ColumnType::kNumeric;
  if (request.numeric_y) {
    request.y_column = y_col.value();
    request.missing.max_questions = ctx.options.max_m_questions;
  }
  request.dirty_fallback_threshold = ctx.options.detection_dirty_threshold;

  if (ctx.options.detection_mode == DetectionMode::kAuto) {
    // Journal-driven path: full scans fan out over the session pool; later
    // iterations fold in only the rows mutated since the last scan.
    ctx.detection.BeginIteration(ctx.table, request, ctx.kernel_env());
    ctx.candidates = ctx.detection.candidates();
    if (request.numeric_y) {
      ctx.questions.m_questions = ctx.detection.m_questions();
      ctx.questions.o_questions = ctx.detection.o_questions();
    }
  } else {
    // Reference path: legacy free functions, serial and uncached.
    ctx.candidates = TokenBlocking(ctx.table, request.blocking);
    if (request.numeric_y) {
      ctx.questions.m_questions =
          DetectMissing(ctx.table, request.y_column, request.missing);
      ctx.questions.o_questions =
          DetectOutliers(ctx.table, request.y_column, request.outlier);
    }
  }
  // Drop outlier verdicts the user already gave (answer memory lives outside
  // the cache, so this filter applies to both modes after the scan).
  std::erase_if(ctx.questions.o_questions, [&](const OQuestion& q) {
    return ctx.o_answered.count({q.row, q.column}) > 0;
  });
  return Status::Ok();
}

// ------------------------------------------------------------- TrainStage --

Status TrainStage::Run(EngineContext& ctx) {
  std::vector<std::pair<size_t, size_t>> training_candidates = ctx.candidates;
  if (training_candidates.size() > ctx.options.max_seed_examples) {
    // Deterministic thinning keeps retraining affordable on large tables.
    Rng rng(ctx.options.seed + ctx.retrain_counter);
    rng.Shuffle(training_candidates);
    training_candidates.resize(ctx.options.max_seed_examples);
  }
  // In kAuto mode the feature vectors come from the detection cache (misses
  // fan over the pool); the fitted forest and the scores are bit-identical
  // to the uncached serial path.
  PairFeatureCache* features = ctx.options.detection_mode == DetectionMode::kAuto
                                   ? ctx.detection.features()
                                   : nullptr;
  const KernelEnv env = ctx.options.detection_mode == DetectionMode::kAuto
                            ? ctx.kernel_env()
                            : KernelEnv{};
  ctx.em.Retrain(ctx.table, training_candidates,
                 ctx.options.seed + ctx.retrain_counter, features, env);
  ++ctx.retrain_counter;
  ctx.scored = ctx.em.ScoreAll(ctx.table, ctx.candidates, features, env);
  return Status::Ok();
}

// ---------------------------------------------------------- GenerateStage --

Status GenerateStage::Run(EngineContext& ctx) {
  ActiveLearningOptions al_options;
  al_options.max_questions = ctx.options.max_t_questions;
  for (const ScoredPair& p : SelectUncertainPairs(ctx.scored, ctx.em,
                                                  al_options)) {
    ctx.questions.t_questions.push_back({p.a, p.b, p.probability});
  }

  size_t x_col = XColumnOrNoColumn(ctx);
  if (x_col != BenefitOptions::kNoColumn) {
    ClusteringOptions cluster_options;
    cluster_options.auto_merge_threshold = ctx.options.auto_merge_threshold;
    EntityClusters clusters =
        ClusterEntities(ctx.table.num_rows(), ctx.scored, ctx.em,
                        cluster_options);
    AQuestionOptions a_options;
    a_options.lambda = ctx.options.sim_join_lambda;
    // kAuto: Strategy 2 reads the journal-maintained incremental self-join
    // (synced here through the ErgCache, which nets the X value index's
    // spelling deltas into insert/retract) instead of re-joining the whole
    // spelling set. kFull: scratch join every iteration (reference path).
    MaintainedAJoin maintained;
    const MaintainedAJoin* maintained_ptr = nullptr;
    if (ctx.options.erg_mode == ErgMode::kAuto) {
      SimJoinOptions join_options;
      join_options.threshold = ctx.options.sim_join_lambda;
      maintained.join = &ctx.erg_cache.SyncSimJoin(ctx.table, ErgRequestFor(ctx),
                                                   join_options, ctx.pool);
      const XValueIndex& index = ctx.erg_cache.value_index();
      maintained.rows_of =
          [&index](const std::string& s) -> const std::set<size_t>* {
        auto it = index.rows_of().find(s);
        return it == index.rows_of().end() ? nullptr : &it->second;
      };
      maintained.cluster_of = &clusters.cluster_of;
      maintained_ptr = &maintained;
    }
    ThreadPool* pool =
        ctx.options.detection_mode == DetectionMode::kAuto ? ctx.pool : nullptr;
    ctx.questions.a_questions = GenerateAQuestions(
        ctx.table, clusters.clusters, x_col, a_options, maintained_ptr, pool);
    // Fold in the spelling pairs witnessed by machine-merged clusters,
    // keeping only those whose variant spelling still occurs in live data.
    // kAuto answers "still live?" from the journal-synced X value index;
    // kFull keeps the legacy full-table scan.
    const XValueIndex* index = nullptr;
    std::set<std::string> live_spellings;
    if (ctx.options.erg_mode == ErgMode::kAuto) {
      index =
          &ctx.erg_cache.SyncValueIndex(ctx.table, ErgRequestFor(ctx), ctx.pool);
    } else {
      for (size_t r : ctx.table.LiveRowIds()) {
        const Value& v = ctx.table.at(r, x_col);
        if (!v.is_null()) live_spellings.insert(v.ToDisplayString());
      }
    }
    auto spelling_live = [&](const std::string& sp) {
      return index != nullptr ? index->Count(sp) > 0
                              : live_spellings.count(sp) > 0;
    };
    std::set<std::pair<std::string, std::string>> present;
    for (const AQuestion& q : ctx.questions.a_questions) {
      present.insert(std::minmax(q.value_a, q.value_b));
    }
    std::erase_if(ctx.merge_witnessed_a, [&](const AQuestion& q) {
      return !spelling_live(q.value_a) || !spelling_live(q.value_b) ||
             ctx.a_answered.count(std::minmax(q.value_a, q.value_b)) > 0;
    });
    for (const AQuestion& q : ctx.merge_witnessed_a) {
      if (present.insert(std::minmax(q.value_a, q.value_b)).second) {
        ctx.questions.a_questions.push_back(q);
      }
    }
    // Drop spelling pairs the user already ruled on.
    std::erase_if(ctx.questions.a_questions, [&](const AQuestion& q) {
      return ctx.a_answered.count(std::minmax(q.value_a, q.value_b)) > 0;
    });
  }
  return Status::Ok();
}

// ---------------------------------------------------------- AssembleStage --

Status AssembleStage::Run(EngineContext& ctx) {
  // Fold this iteration's QuestionSet into the identity pools (both modes:
  // the pools are also what deduplicates questions — a T-question and a
  // duplicate of it collapse to one pool entry, hence one ERG edge).
  ctx.question_store.Ingest(ctx.questions);
  ErgRequest request = ErgRequestFor(ctx);
  if (ctx.options.erg_mode == ErgMode::kAuto) {
    // The detection cache's pair-feature memo is journal-invalidated, so it
    // is only safe (and only exists) when detection also runs incrementally.
    PairFeatureCache* features =
        ctx.options.detection_mode == DetectionMode::kAuto
            ? ctx.detection.features()
            : nullptr;
    ctx.erg_cache.BeginIteration(ctx.table, ctx.question_store, ctx.em,
                                 request, features, ctx.kernel_env(),
                                 &ctx.erg);
  } else {
    ErgCache::AssembleFull(ctx.table, ctx.question_store, ctx.em, request,
                           &ctx.erg);
  }
  return Status::Ok();
}

// ----------------------------------------------------------- BenefitStage --

Status BenefitStage::Run(EngineContext& ctx) {
  BenefitOptions benefit_options;
  benefit_options.x_column = XColumnOrNoColumn(ctx);
  benefit_options.threads = ctx.options.threads;
  benefit_options.pool = ctx.pool;
  benefit_options.mode = ctx.options.benefit_mode;
  if (ctx.options.benefit_mode == BenefitMode::kAuto) {
    // Fold the repairs accepted since last iteration into the cached
    // baseline (dirty rows only, via the table's mutation journal), then
    // estimate against it: candidates re-aggregate only their dirty groups.
    ctx.benefit_engine.Prepare(ctx.query, &ctx.table);
    benefit_options.engine = &ctx.benefit_engine;
  }
  EstimateBenefits(ctx.query, &ctx.table, &ctx.erg, benefit_options);
  if (benefit_options.engine != nullptr) {
    // Every speculative repair rolled back: skip their journal entries so
    // the next Prepare sees only genuinely accepted repairs.
    ctx.benefit_engine.ResyncRolledBack(&ctx.table);
  }
  // Same fast-forward for the detection cache: the table is bit-for-bit in
  // its DetectStage-end state here, so the rolled-back speculative noise
  // must not read as invalidations next iteration.
  ctx.detection.ResyncRolledBack(ctx.table);
  // And for the ERG cache's value index, by the same argument.
  ctx.erg_cache.ResyncRolledBack(ctx.table);
  return Status::Ok();
}

// ------------------------------------------------------------ SelectStage --

Status SelectStage::Run(EngineContext& ctx) {
  // kAuto: refresh the maintained selection support once for this published
  // snapshot and hand it to the selector through the view, so its (and the
  // fallback loop's) calls do O(k) induction instead of per-call rebuilds.
  // kFull: support-less view — the selectors' original inline path.
  ErgView view =
      ctx.options.erg_mode == ErgMode::kAuto
          ? ErgView(ctx.erg,
                    ctx.erg_cache.RefreshSelectSupport(ctx.erg, &ctx.arena))
          : ErgView(ctx.erg);
  ctx.cqg = ctx.selector->Select(view, ctx.options.k);
  if (ctx.cqg.empty()) {
    // No edges remain (duplicates resolved) but isolated vertices may still
    // carry M-/O-questions: present up to k of them as one vertex-only
    // composite so the budgeted loop can finish the cleaning job.
    for (size_t v = 0;
         v < ctx.erg.num_vertices() && ctx.cqg.vertices.size() < ctx.options.k;
         ++v) {
      const ErgVertex& vertex = ctx.erg.vertex(v);
      if (vertex.missing.has_value() || vertex.outlier.has_value()) {
        ctx.cqg.vertices.push_back(v);
      }
    }
  }
  ctx.trace.cqg_benefit = ctx.cqg.total_benefit;
  return Status::Ok();
}

// --------------------------------------------------------------- AskStage --

Status AskStage::Run(EngineContext& ctx) {
  size_t vertex_questions = 0;
  for (size_t e : ctx.cqg.edge_indices) {
    const ErgEdge& edge = ctx.erg.edge(e);
    size_t row_a = ctx.erg.vertex(edge.u).row;
    size_t row_b = ctx.erg.vertex(edge.v).row;
    if (ctx.table.is_dead(row_a) || ctx.table.is_dead(row_b)) continue;
    std::optional<bool> confirm =
        ctx.user.AnswerT({row_a, row_b, edge.p_tuple});
    if (!confirm.has_value()) continue;  // incomplete answer
    if (*confirm) {
      ctx.em.AddLabel(row_a, row_b, true);
      ApplyConfirmedMatch(ctx, row_a, row_b);
    } else {
      ctx.em.AddLabel(row_a, row_b, false);
      // Tuples differ, but the spellings may still be synonyms (distinct
      // papers at the same venue): the GUI's follow-up A-question.
      if (edge.has_attr) {
        std::optional<AttributeAnswer> answer =
            ctx.user.AnswerA(edge.attr_question);
        if (answer.has_value()) {
          ctx.a_answered.insert(std::minmax(edge.attr_question.value_a,
                                            edge.attr_question.value_b));
          if (answer->same) {
            // Standardize both spellings on the user's preferred form:
            // repair the edge's rows now, go table-wide on corroboration.
            for (const std::string* s : {&edge.attr_question.value_a,
                                         &edge.attr_question.value_b}) {
              VoteTransformation(ctx, edge.attr_question.column, *s,
                                 answer->preferred, {row_a, row_b});
            }
          }
        }
      }
    }
  }
  for (size_t v : ctx.cqg.vertices) {
    const ErgVertex& vertex = ctx.erg.vertex(v);
    if (ctx.table.is_dead(vertex.row)) continue;
    if (vertex.missing.has_value() &&
        ctx.table.at(vertex.missing->row, vertex.missing->column).is_null()) {
      std::optional<double> value = ctx.user.AnswerM(*vertex.missing);
      if (value.has_value()) {
        ApplyCellRepair(&ctx.table, vertex.missing->row,
                        vertex.missing->column, *value);
      }
      ++vertex_questions;
    }
    if (vertex.outlier.has_value()) {
      std::optional<OutlierAnswer> answer = ctx.user.AnswerO(*vertex.outlier);
      if (answer.has_value()) {
        ctx.o_answered.insert({vertex.outlier->row, vertex.outlier->column});
        if (answer->is_outlier) {
          ApplyCellRepair(&ctx.table, vertex.outlier->row,
                          vertex.outlier->column, answer->repair);
        }
      }
      ++vertex_questions;
    }
  }

  ctx.trace.questions_asked = ctx.cqg.edge_indices.size() + vertex_questions;
  ctx.trace.user_seconds =
      ctx.cost_model.CqgSeconds(ctx.cqg.edge_indices.size(), vertex_questions);
  return Status::Ok();
}

// --------------------------------------------------------- SingleAskStage --

Status SingleAskStage::Run(EngineContext& ctx) {
  // The paper's Single baseline: m questions per iteration, m/4 from each
  // candidate set (padded from Q_T when a set runs short).
  size_t per_set = std::max<size_t>(1, ctx.options.single_m / 4);
  size_t asked_t = 0, asked_a = 0, asked_m = 0, asked_o = 0;

  for (const TQuestion& q : ctx.questions.t_questions) {
    if (asked_t >= per_set) break;
    if (ctx.table.is_dead(q.row_a) || ctx.table.is_dead(q.row_b)) continue;
    std::optional<bool> confirm = ctx.user.AnswerT(q);
    ++asked_t;
    if (!confirm.has_value()) continue;
    ctx.em.AddLabel(q.row_a, q.row_b, *confirm);
    if (*confirm) ApplyConfirmedMatch(ctx, q.row_a, q.row_b);
  }
  for (const AQuestion& q : ctx.questions.a_questions) {
    if (asked_a >= per_set) break;
    std::optional<AttributeAnswer> answer = ctx.user.AnswerA(q);
    ++asked_a;
    if (answer.has_value()) {
      ctx.a_answered.insert(std::minmax(q.value_a, q.value_b));
      if (answer->same) {
        for (const std::string* s : {&q.value_a, &q.value_b}) {
          VoteTransformation(ctx, q.column, *s, answer->preferred, {});
        }
      }
    }
  }
  for (const MQuestion& q : ctx.questions.m_questions) {
    if (asked_m >= per_set) break;
    if (ctx.table.is_dead(q.row) || !ctx.table.at(q.row, q.column).is_null()) {
      continue;
    }
    std::optional<double> value = ctx.user.AnswerM(q);
    ++asked_m;
    if (value.has_value()) {
      ApplyCellRepair(&ctx.table, q.row, q.column, *value);
    }
  }
  for (const OQuestion& q : ctx.questions.o_questions) {
    if (asked_o >= per_set) break;
    if (ctx.table.is_dead(q.row)) continue;
    std::optional<OutlierAnswer> answer = ctx.user.AnswerO(q);
    ++asked_o;
    if (answer.has_value()) {
      ctx.o_answered.insert({q.row, q.column});
      if (answer->is_outlier) {
        ApplyCellRepair(&ctx.table, q.row, q.column, answer->repair);
      }
    }
  }
  // Pad with extra T-questions up to m.
  for (const TQuestion& q : ctx.questions.t_questions) {
    if (asked_t + asked_a + asked_m + asked_o >= ctx.options.single_m) break;
    if (asked_t >= ctx.questions.t_questions.size()) break;
    if (ctx.table.is_dead(q.row_a) || ctx.table.is_dead(q.row_b)) continue;
    if (ctx.em.LabelOf(q.row_a, q.row_b) >= 0) continue;
    std::optional<bool> confirm = ctx.user.AnswerT(q);
    ++asked_t;
    if (!confirm.has_value()) continue;
    ctx.em.AddLabel(q.row_a, q.row_b, *confirm);
    if (*confirm) ApplyConfirmedMatch(ctx, q.row_a, q.row_b);
  }

  ctx.trace.questions_asked = asked_t + asked_a + asked_m + asked_o;
  ctx.trace.user_seconds =
      ctx.cost_model.SingleGroupSeconds(asked_t, asked_a, asked_m, asked_o);
  return Status::Ok();
}

// ------------------------------------------------------------- ApplyStage --

Status ApplyStage::Run(EngineContext& ctx) {
  // Machine auto-merge: confident clusters collapse without user effort
  // ("many tuple-level duplicates are removed by the EM model"). Gated on a
  // few user labels: the unsupervised bootstrap model must not rewrite the
  // dataset before the user has taught it anything.
  if (ctx.em.num_labels() < kMinLabelsForAutoMerge) return Status::Ok();
  ClusteringOptions cluster_options;
  cluster_options.auto_merge_threshold = ctx.options.auto_merge_threshold;
  EntityClusters clusters = ClusterEntities(ctx.table.num_rows(), ctx.scored,
                                            ctx.em, cluster_options);
  for (const std::vector<size_t>& cluster : clusters.MultiMemberClusters()) {
    std::vector<size_t> live;
    for (size_t r : cluster) {
      if (!ctx.table.is_dead(r)) live.push_back(r);
    }
    // Machine merges consolidate locally only: even a rare wrong cluster
    // would poison the whole column if its spellings were standardized
    // table-wide. The witnessed variant pairs become A-questions, so the
    // user-verified path performs the actual standardization.
    if (live.size() >= 2) {
      RecordWitnessedSpellings(ctx, live);
      MergeRows(&ctx.table, live);
    }
  }
  return Status::Ok();
}

// -------------------------------------------------------------- MakeStages --

std::vector<std::unique_ptr<PipelineStage>> MakeStages(
    QuestionStrategy strategy) {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(std::make_unique<DetectStage>());
  stages.push_back(std::make_unique<TrainStage>());
  stages.push_back(std::make_unique<GenerateStage>());
  if (strategy == QuestionStrategy::kComposite) {
    stages.push_back(std::make_unique<AssembleStage>());
    stages.push_back(std::make_unique<BenefitStage>());
    stages.push_back(std::make_unique<SelectStage>());
    stages.push_back(std::make_unique<AskStage>());
  } else {
    stages.push_back(std::make_unique<SingleAskStage>());
  }
  stages.push_back(std::make_unique<ApplyStage>());
  return stages;
}

}  // namespace visclean
