#include "em/pair_features.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/status.h"
#include "common/thread_pool.h"
#include "text/similarity.h"

namespace visclean {

namespace {

constexpr size_t kTextFeatures = 4;
constexpr size_t kNumericFeatures = 2;

}  // namespace

size_t PairFeatureArity(const Schema& schema) {
  size_t arity = 0;
  for (const ColumnSpec& col : schema.columns()) {
    arity += col.type == ColumnType::kNumeric ? kNumericFeatures : kTextFeatures;
  }
  return arity;
}

std::vector<double> PairFeatures(const Table& table, size_t a, size_t b) {
  const Schema& schema = table.schema();
  std::vector<double> features;
  features.reserve(PairFeatureArity(schema));

  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const Value& va = table.at(a, c);
    const Value& vb = table.at(b, c);
    size_t width = schema.column(c).type == ColumnType::kNumeric
                       ? kNumericFeatures
                       : kTextFeatures;
    if (va.is_null() && vb.is_null()) {
      features.insert(features.end(), width, 1.0);
      continue;
    }
    if (va.is_null() || vb.is_null()) {
      features.insert(features.end(), width, 0.5);
      continue;
    }
    if (schema.column(c).type == ColumnType::kNumeric) {
      double x = va.ToNumberOr(0.0);
      double y = vb.ToNumberOr(0.0);
      features.push_back(x == y ? 1.0 : 0.0);
      double denom = std::max({std::fabs(x), std::fabs(y), 1.0});
      features.push_back(1.0 - std::min(1.0, std::fabs(x - y) / denom));
    } else {
      std::string sa = va.ToDisplayString();
      std::string sb = vb.ToDisplayString();
      features.push_back(WordJaccard(sa, sb));
      features.push_back(QGramJaccard(sa, sb, 3));
      features.push_back(LevenshteinSimilarity(sa, sb));
      features.push_back(JaroWinklerSimilarity(sa, sb));
    }
  }
  return features;
}

uint64_t PairFeatureCache::KeyOf(size_t a, size_t b) {
  VC_CHECK(a < (uint64_t{1} << 32) && b < (uint64_t{1} << 32),
           "PairFeatureCache: row id exceeds 32 bits");
  size_t lo = std::min(a, b), hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | static_cast<uint64_t>(hi);
}

void PairFeatureCache::Clear() { cache_.clear(); }

void PairFeatureCache::Invalidate(const std::vector<size_t>& dirty_rows) {
  if (dirty_rows.empty() || cache_.empty()) return;
  std::unordered_set<size_t> dirty(dirty_rows.begin(), dirty_rows.end());
  for (auto it = cache_.begin(); it != cache_.end();) {
    size_t a = static_cast<size_t>(it->first >> 32);
    size_t b = static_cast<size_t>(it->first & 0xffffffffu);
    if (dirty.count(a) > 0 || dirty.count(b) > 0) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<const std::vector<double>*> PairFeatureCache::Batch(
    const Table& table, const std::vector<std::pair<size_t, size_t>>& pairs,
    const KernelEnv& env) {
  std::vector<const std::vector<double>*> out(pairs.size(), nullptr);
  std::vector<size_t> miss_idx;
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto it = cache_.find(KeyOf(pairs[i].first, pairs[i].second));
    if (it != cache_.end()) {
      out[i] = &it->second;
      ++hits_;
    } else {
      miss_idx.push_back(i);
    }
  }
  if (miss_idx.empty()) return out;
  misses_ += miss_idx.size();

  // Miss extraction is a pure chunk kernel (indexed writes into `computed`),
  // so any partition into pool chunks merges to the same bytes.
  std::vector<std::vector<double>> computed(miss_idx.size());
  RunKernel(KernelKind::kPairFeatures, env, miss_idx.size(),
            /*min_parallel=*/2, [&](size_t begin, size_t end) {
              for (size_t j = begin; j < end; ++j) {
                const auto& [a, b] = pairs[miss_idx[j]];
                computed[j] = PairFeatures(table, a, b);
              }
            });
  for (size_t j = 0; j < miss_idx.size(); ++j) {
    const auto& [a, b] = pairs[miss_idx[j]];
    auto it = cache_.emplace(KeyOf(a, b), std::move(computed[j])).first;
    out[miss_idx[j]] = &it->second;
  }
  return out;
}

}  // namespace visclean
