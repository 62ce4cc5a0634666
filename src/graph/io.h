// Plain-text edge-list serialization.
//
// Format:
//   ftspan <n> <m> <weighted|unweighted>
//   <u> <v> [<w>]     (m lines; w present iff weighted)
// Lines starting with '#' are comments and are ignored on input.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace ftspan {

/// Writes `g` in the ftspan edge-list format.
void write_edge_list(std::ostream& os, const Graph& g);

/// Parses a graph in the ftspan edge-list format; throws
/// std::invalid_argument on malformed input.  The result is laid out like
/// Graph::from_edges over the rows in file order: exact-fit rows, 2m arcs.
[[nodiscard]] Graph read_edge_list(std::istream& is);

/// Writes vertex coordinates (one Point per vertex, same order as the
/// graph's ids) in the companion format:
///   ftspan-points <n>
///   <x> <y>          (n lines; '#' comments allowed)
/// The coordinate-based fault scenarios (geo_ball, SRLG locality grouping)
/// consume these; `ftspan_cli gen --coords` emits them.
void write_points(std::ostream& os, const std::vector<Point>& points);

/// Parses a point set in the ftspan-points format; throws
/// std::invalid_argument on malformed input.
[[nodiscard]] std::vector<Point> read_points(std::istream& is);

/// Convenience file wrappers; throw std::runtime_error when the file cannot
/// be opened or the stream fails mid-read, and std::invalid_argument — with
/// the path and the offending physical line number, or for a repeated edge
/// its row index and endpoints — on malformed content.
/// The file loaders are stricter than the stream readers: content lines
/// after the declared record count are rejected (a count smaller than the
/// data would otherwise load a silently partial graph), while read_edge_list
/// / read_points leave trailing stream data untouched for concatenated use.
void save_graph(const std::string& path, const Graph& g);
[[nodiscard]] Graph load_graph(const std::string& path);
void save_points(const std::string& path, const std::vector<Point>& points);
[[nodiscard]] std::vector<Point> load_points(const std::string& path);

}  // namespace ftspan
