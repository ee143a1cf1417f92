// k-nearest-neighbor utilities for missing-value imputation (Q_M) and
// outlier detection (Q_O, Ramaswamy et al. [31]) from Section IV.
#ifndef VISCLEAN_ML_KNN_H_
#define VISCLEAN_ML_KNN_H_

#include <cstddef>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/kernel_env.h"

namespace visclean {

/// \brief Index/distance pair returned by neighbor queries.
struct Neighbor {
  size_t index;
  double distance;
};

/// \brief The k nearest items to `query` among `items` (excluding
/// `exclude_index` when >= 0), by Jaccard distance over word tokens of the
/// concatenated-attribute strings — exactly the paper's Q_M recipe.
///
/// Results are sorted by ascending distance (ties by index).
std::vector<Neighbor> NearestNeighborsByString(
    const std::vector<std::string>& items, const std::string& query, size_t k,
    ptrdiff_t exclude_index = -1);

/// Pre-tokenized variant: callers issuing many queries over the same corpus
/// tokenize once (word-token sets) and reuse them — the detectors' hot path.
std::vector<Neighbor> NearestNeighborsByTokens(
    const std::vector<std::set<std::string>>& items,
    const std::set<std::string>& query, size_t k, ptrdiff_t exclude_index = -1);

/// \brief Cross-iteration cache of exact kNN neighbor lists over a
/// token-set corpus keyed by stable row ids.
///
/// The detectors issue the same queries every iteration while only a
/// handful of rows change. The cache keeps each query's top-2k list
/// (Neighbor::index holds the ROW ID, not a corpus position) and serves the
/// first k; the slack lets a list absorb dirty-member departures without a
/// full recompute. Refresh from the dirty set is exact:
///  * query row dirty or k changed -> recompute from the full corpus;
///  * otherwise drop the list's dirty members, merge every dirty corpus row
///    back in with fresh distances, and cut at the old last (distance, row)
///    key. Every current row at or below that boundary is in the pool — a
///    clean row kept its key and was inside the old exact prefix, a dirty
///    row was just merged — so the cut prefix is exactly the corpus top
///    ranking down to the boundary. Only when that prefix shrinks below k
///    (too many members went dirty) does the query recompute.
/// Both paths order by ascending (distance, row id); since detector corpora
/// are ascending row-id vectors, this matches NearestNeighborsByTokens'
/// (distance, position) order bit for bit.
class TokenKnnCache {
 public:
  /// Drops every cached list (full-rescan path).
  void Clear();

  /// Starts a delta epoch: evicts lists whose query row is in `dirty_rows`
  /// and stages the dirty set for the merge path. Call once per
  /// Detector::Update before BatchQuery.
  void BeginEpoch(const std::vector<size_t>& dirty_rows);

  /// Neighbor lists (row-id indexed, ascending (distance, row), length
  /// <= k) for every query row, against the corpus given as ascending row
  /// ids plus their token sets. Every query row must itself be a corpus
  /// member (it is excluded from its own list). Cache misses route through
  /// `env` as a KernelKind::kKnnQuery kernel (pool or inline); results are
  /// independent of the execution strategy.
  std::vector<std::vector<Neighbor>> BatchQuery(
      const std::vector<size_t>& query_rows, size_t k,
      const std::vector<size_t>& corpus_rows,
      const std::vector<const std::set<std::string>*>& corpus_tokens,
      const KernelEnv& env);

  /// Pool-only convenience overload (tests, standalone callers).
  std::vector<std::vector<Neighbor>> BatchQuery(
      const std::vector<size_t>& query_rows, size_t k,
      const std::vector<size_t>& corpus_rows,
      const std::vector<const std::set<std::string>*>& corpus_tokens,
      ThreadPool* pool) {
    return BatchQuery(query_rows, k, corpus_rows, corpus_tokens,
                      KernelEnv{pool, nullptr, nullptr});
  }

  // Diagnostics for the scaling bench.
  size_t full_queries() const { return full_queries_; }
  size_t merged_queries() const { return merged_queries_; }

 private:
  struct Entry {
    /// Exact (distance, row) ranking prefix; length <= 2k. Every corpus row
    /// other than the query whose key is <= neighbors.back()'s is in here.
    std::vector<Neighbor> neighbors;
    size_t k = 0;       ///< the requested k this entry serves
    bool merged = false;  ///< dirty rows folded in this epoch
  };

  std::unordered_map<size_t, Entry> entries_;
  std::vector<size_t> epoch_dirty_;  ///< sorted dirty rows of this epoch
  size_t full_queries_ = 0;
  size_t merged_queries_ = 0;
};

/// \brief kNN outlier score for every value: the k-th smallest absolute
/// difference between a value and all other values (Section IV, Q_O).
///
/// Values with higher scores are more isolated. `k` is clamped to n-1;
/// singleton inputs score 0.
std::vector<double> KnnOutlierScores(const std::vector<double>& values,
                                     size_t k);

}  // namespace visclean

#endif  // VISCLEAN_ML_KNN_H_
