#include "graph/graph.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ftspan {

namespace {

/// Capacity for a freshly relocated row (geometric growth from 4).
constexpr std::uint32_t grown_cap(std::uint32_t cap) noexcept {
  return std::max<std::uint32_t>(4, cap * 2);
}

/// Capacity granted at compaction: the degree plus a little slack so the
/// next few appends stay in place.
constexpr std::uint32_t compacted_cap(std::uint32_t deg) noexcept {
  return deg + std::max<std::uint32_t>(2, deg / 4);
}

/// Order-insensitive packed key of an endpoint pair, for dup detection.
constexpr std::uint64_t pair_key(VertexId u, VertexId v) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (hi << 32) | lo;
}

}  // namespace

void Graph::validate_edge(std::size_t n, VertexId u, VertexId v, Weight w,
                          bool weighted) {
  FTSPAN_REQUIRE(u < n && v < n, "edge endpoint out of range");
  FTSPAN_REQUIRE(u != v, "self-loops are not allowed");
  FTSPAN_REQUIRE(std::isfinite(w) && w >= 0.0,
                 "edge weight must be finite and >= 0");
  FTSPAN_REQUIRE(weighted || w == 1.0, "unweighted graph requires weight 1");
}

Graph::Graph(std::size_t n, bool weighted) : rows_(n), weighted_(weighted) {}

Graph Graph::from_edges(std::size_t n, std::span<const Edge> edges, bool weighted) {
  Graph g(n, weighted);
  for (const auto& e : edges) validate_edge(n, e.u, e.v, e.w, weighted);

  // Duplicate detection over the whole list at once: sort the packed pair
  // keys and look for an equal neighbor — O(m log m) once, instead of a
  // per-append hash probe (and the per-edge hash index it would pin).
  {
    std::vector<std::uint64_t> keys(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i)
      keys[i] = pair_key(edges[i].u, edges[i].v);
    std::sort(keys.begin(), keys.end());
    FTSPAN_REQUIRE(std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
                   "parallel edge rejected");
  }

  g.edges_.assign(edges.begin(), edges.end());
  g.build_rows();
  return g;
}

Graph Graph::from_unmasked(const Graph& g, std::span<const std::uint8_t> mask) {
  FTSPAN_REQUIRE(mask.size() == g.m(), "mask must cover every edge id");
  Graph out(g.n(), g.weighted_);
  out.edges_.reserve(static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), std::uint8_t{0})));
  for (std::size_t i = 0; i < mask.size(); ++i)
    if (mask[i] == 0) out.edges_.push_back(g.edges_[i]);
  out.build_rows();
  return out;
}

void Graph::build_rows() {
  // Counting-sort CSR build: degree pass, prefix-sum offsets, fill pass.
  // Rows are exact-fit (cap == deg) and laid out in vertex order with no
  // holes, so the arc array is exactly 2m entries.  Iterating edges in list
  // order keeps each row's arc order identical to incremental add_edge.
  for (const auto& e : edges_) {
    ++rows_[e.u].deg;
    ++rows_[e.v].deg;
  }
  ArcIndex offset = 0;
  for (auto& row : rows_) {
    row.offset = offset;
    row.cap = row.deg;
    offset += row.deg;
    row.deg = 0;  // reused as the fill cursor below
  }
  arcs_.resize(offset);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const auto& e = edges_[i];
    const auto id = static_cast<EdgeId>(i);
    Row& ru = rows_[e.u];
    arcs_[ru.offset + ru.deg++] = Arc{e.v, id, e.w};
    Row& rv = rows_[e.v];
    arcs_[rv.offset + rv.deg++] = Arc{e.u, id, e.w};
  }
}

void Graph::relocate_row(VertexId v, std::uint32_t new_cap) {
  Row& row = rows_[v];
  const auto new_offset = static_cast<ArcIndex>(arcs_.size());
  arcs_.resize(arcs_.size() + new_cap);
  std::copy_n(arcs_.begin() + static_cast<std::ptrdiff_t>(row.offset), row.deg,
              arcs_.begin() + static_cast<std::ptrdiff_t>(new_offset));
  dead_arcs_ += row.cap;
  row.offset = new_offset;
  row.cap = new_cap;
}

void Graph::compact() {
  std::vector<Arc> packed;
  ArcIndex need = 0;
  for (const auto& row : rows_) need += compacted_cap(row.deg);
  packed.resize(need);
  ArcIndex offset = 0;
  for (auto& row : rows_) {
    std::copy_n(arcs_.begin() + static_cast<std::ptrdiff_t>(row.offset), row.deg,
                packed.begin() + static_cast<std::ptrdiff_t>(offset));
    row.offset = offset;
    row.cap = compacted_cap(row.deg);
    offset += row.cap;
  }
  arcs_ = std::move(packed);
  dead_arcs_ = 0;
}

void Graph::append_arc(VertexId v, const Arc& arc) {
  Row& row = rows_[v];
  if (row.deg == row.cap) {
    relocate_row(v, grown_cap(row.cap));
    if (dead_arcs_ * 2 > arcs_.size() && arcs_.size() > 1024) compact();
  }
  Row& r = rows_[v];  // compact() may have moved the row
  arcs_[r.offset + r.deg] = arc;
  ++r.deg;
}

bool Graph::row_has_arc(VertexId v, VertexId other) const noexcept {
  const Row& row = rows_[v];
  const Arc* arc = arcs_.data() + row.offset;
  for (const Arc* end = arc + row.deg; arc != end; ++arc)
    if (arc->to == other) return true;
  return false;
}

EdgeId Graph::add_edge(VertexId u, VertexId v, Weight w) {
  validate_edge(n(), u, v, w, weighted_);
  // Duplicate check on the smaller row: O(min degree) over arcs that the
  // append is about to touch anyway — no hash index to maintain.
  const VertexId base = rows_[u].deg <= rows_[v].deg ? u : v;
  FTSPAN_REQUIRE(!row_has_arc(base, base == u ? v : u), "parallel edge rejected");

  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, w});
  append_arc(u, Arc{v, id, w});
  append_arc(v, Arc{u, id, w});
  return id;
}

EdgeId Graph::ensure_edge(VertexId u, VertexId v, Weight w) {
  if (const auto existing = find_edge(u, v)) return *existing;
  return add_edge(u, v, w);
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  if (u >= n() || v >= n() || u == v) return false;
  const VertexId base = rows_[u].deg <= rows_[v].deg ? u : v;
  return row_has_arc(base, base == u ? v : u);
}

std::optional<EdgeId> Graph::find_edge(VertexId u, VertexId v) const {
  if (u >= n() || v >= n() || u == v) return std::nullopt;
  // Scan the smaller row.
  const VertexId base = rows_[u].deg <= rows_[v].deg ? u : v;
  const VertexId other = base == u ? v : u;
  for (const auto& arc : neighbors(base))
    if (arc.to == other) return arc.edge;
  return std::nullopt;
}

const Edge& Graph::edge(EdgeId id) const {
  FTSPAN_REQUIRE(id < m(), "edge id out of range");
  return edges_[id];
}

std::span<const Arc> Graph::neighbors(VertexId v) const {
  FTSPAN_REQUIRE(v < n(), "vertex id out of range");
  const Row& row = rows_[v];
  return {arcs_.data() + row.offset, row.deg};
}

std::size_t Graph::degree(VertexId v) const {
  FTSPAN_REQUIRE(v < n(), "vertex id out of range");
  return rows_[v].deg;
}

std::size_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (const auto& row : rows_) best = std::max(best, row.deg);
  return best;
}

Weight Graph::total_weight() const noexcept {
  Weight total = 0.0;
  for (const auto& e : edges_) total += e.w;
  return total;
}

void Graph::reserve_edges(std::size_t m) {
  edges_.reserve(m);
  arcs_.reserve(2 * m);
}

std::size_t Graph::memory_bytes() const noexcept {
  return arcs_.capacity() * sizeof(Arc) + rows_.capacity() * sizeof(Row) +
         edges_.capacity() * sizeof(Edge);
}

std::string Graph::summary() const {
  return "n=" + std::to_string(n()) + " m=" + std::to_string(m()) +
         (weighted_ ? " weighted" : " unweighted");
}

}  // namespace ftspan
