// The Errors-and-Repairs Graph of Definition 2.1.
//
// Vertices are tuples that participate in at least one question; edges are
// possible tuple- or attribute-level duplicate pairs carrying the weight
// pair (p^t, p^a); vertex labels mark outlier (O) and missing-value (M)
// questions. Edge `benefit` is filled in by the benefit model before
// selection.
//
// The graph supports two usage styles:
//  * build-once (ErgCache::AssembleFull and most tests): AddVertex/AddEdge
//    only, every slot stays live;
//  * maintained (core/erg_cache.h): RetractEdge/RetractVertex tombstone
//    slots across iterations, and Compacted() emits the canonical dense
//    snapshot — live vertices sorted by row ascending, live edges sorted by
//    (row_u, row_v) — that selectors consume. The canonical form is
//    insertion-order independent, which is what makes the incremental and
//    full assembly paths bit-identical.
#ifndef VISCLEAN_GRAPH_ERG_H_
#define VISCLEAN_GRAPH_ERG_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "clean/question.h"

namespace visclean {

/// \brief One ERG vertex: a tuple plus its optional M-/O-questions.
struct ErgVertex {
  size_t row = 0;  ///< table row id this vertex represents
  std::optional<MQuestion> missing;
  std::optional<OQuestion> outlier;
};

/// \brief One ERG edge between vertex indices u < v.
struct ErgEdge {
  size_t u = 0;
  size_t v = 0;
  double p_tuple = 0.0;  ///< tuple-level match probability (T-question)
  double p_attr = 0.0;   ///< attribute-level match probability (A-question)
  bool has_attr = false; ///< X is categorical and the spellings differ
  AQuestion attr_question;  ///< valid when has_attr
  double benefit = 0.0;  ///< estimated benefit b (Definition 5.1)
};

/// \brief The full graph. Vertices/edges are stored by index.
///
/// Adjacency is maintained eagerly by AddVertex/AddEdge/RetractEdge — never
/// lazily from a const accessor — so concurrent IncidentEdges calls from
/// selector code running on the thread pool are read-only and race-free.
class Erg {
 public:
  Erg() = default;

  /// Adds a vertex; returns its index. The row-to-vertex map points at the
  /// new slot (re-adding a retracted row binds the row to the fresh slot).
  size_t AddVertex(ErgVertex vertex);
  /// Adds an edge (u and v must be live vertex indices, u != v).
  /// Returns the edge index.
  size_t AddEdge(ErgEdge edge);

  /// Tombstones an edge slot: unlinks it from both adjacency lists and from
  /// the pair lookup. The slot index stays valid (edge_live() turns false)
  /// until Compacted() drops it.
  void RetractEdge(size_t index);
  /// Tombstones a vertex slot. The vertex must have no live incident edges.
  void RetractVertex(size_t index);

  size_t num_vertices() const { return vertices_.size(); }
  size_t num_edges() const { return edges_.size(); }
  size_t num_live_vertices() const { return vertices_.size() - dead_vertices_; }
  size_t num_live_edges() const { return edges_.size() - dead_edges_; }
  bool vertex_live(size_t i) const { return !vertex_dead_[i]; }
  bool edge_live(size_t i) const { return !edge_dead_[i]; }
  /// Share of edge slots that are tombstones (0 when there are no slots);
  /// the maintainer compacts past a threshold to keep scans dense.
  double edge_tombstone_fraction() const {
    return edges_.empty()
               ? 0.0
               : static_cast<double>(dead_edges_) /
                     static_cast<double>(edges_.size());
  }

  const ErgVertex& vertex(size_t i) const { return vertices_[i]; }
  ErgVertex& vertex(size_t i) { return vertices_[i]; }
  const ErgEdge& edge(size_t i) const { return edges_[i]; }
  ErgEdge& edge(size_t i) { return edges_[i]; }
  const std::vector<ErgEdge>& edges() const { return edges_; }

  /// Edge indices incident to vertex i, ascending. Safe to call from any
  /// number of threads concurrently (no mutation, not even lazily).
  const std::vector<size_t>& IncidentEdges(size_t i) const {
    return adjacency_[i];
  }

  /// Vertex index for a table row, or kNoVertex when absent/retracted.
  /// O(1): backed by a hash map maintained by AddVertex/RetractVertex.
  static constexpr size_t kNoVertex = static_cast<size_t>(-1);
  size_t VertexOfRow(size_t row) const;

  /// Live edge index between vertex indices u and v (order-insensitive), or
  /// kNoEdge. O(1) via the pair lookup.
  static constexpr size_t kNoEdge = static_cast<size_t>(-1);
  size_t EdgeBetween(size_t u, size_t v) const;

  /// Canonical dense snapshot: live vertices sorted by row ascending, live
  /// edges sorted by (row_u, row_v) ascending. The result has no tombstones
  /// and is independent of this graph's insertion/retraction history.
  Erg Compacted() const;

 private:
  static uint64_t PairKey(size_t u, size_t v);

  std::vector<ErgVertex> vertices_;
  std::vector<ErgEdge> edges_;
  std::vector<std::vector<size_t>> adjacency_;  // parallel to vertices_
  std::vector<char> vertex_dead_;               // parallel to vertices_
  std::vector<char> edge_dead_;                 // parallel to edges_
  size_t dead_vertices_ = 0;
  size_t dead_edges_ = 0;
  std::unordered_map<size_t, size_t> vertex_of_row_;
  std::unordered_map<uint64_t, size_t> edge_of_pair_;
};

class ErgSelectSupport;

/// \brief Read-only snapshot handle over a fully assembled ERG.
///
/// Selectors take an ErgView instead of the graph itself: the view is what
/// the session publishes after assembly and benefit annotation are done, so
/// selection code can never observe an in-flight mutation of the maintained
/// working graph. Implicitly constructible from const Erg& so existing
/// call sites (tests, benches) keep reading naturally.
///
/// A view may additionally carry the iteration's maintained selection
/// support (graph/select_support.h): benefit orderings and induction
/// scratch refreshed once by ErgCache instead of rebuilt per selector call.
/// Selectors treat the support as an optional accelerator — absent support
/// (the implicit constructor, the reference pipeline, plain tests) routes
/// through the original per-call constructions, and the two paths are
/// bit-identical.
class ErgView {
 public:
  ErgView(const Erg& erg) : erg_(&erg) {}  // NOLINT(google-explicit-constructor)
  ErgView(const Erg& erg, const ErgSelectSupport* support)
      : erg_(&erg), support_(support) {}

  const Erg& graph() const { return *erg_; }
  /// The maintained selection support, or nullptr on the reference path.
  const ErgSelectSupport* support() const { return support_; }

  size_t num_vertices() const { return erg_->num_vertices(); }
  size_t num_edges() const { return erg_->num_edges(); }
  const ErgVertex& vertex(size_t i) const { return erg_->vertex(i); }
  const ErgEdge& edge(size_t i) const { return erg_->edge(i); }
  const std::vector<ErgEdge>& edges() const { return erg_->edges(); }
  const std::vector<size_t>& IncidentEdges(size_t i) const {
    return erg_->IncidentEdges(i);
  }
  size_t VertexOfRow(size_t row) const { return erg_->VertexOfRow(row); }

 private:
  const Erg* erg_;
  const ErgSelectSupport* support_ = nullptr;
};

}  // namespace visclean

#endif  // VISCLEAN_GRAPH_ERG_H_
