#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace ftspan {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "ftspan " << g.n() << ' ' << g.m() << ' '
     << (g.weighted() ? "weighted" : "unweighted") << '\n';
  os.precision(17);
  for (const auto& e : g.edges()) {
    os << e.u << ' ' << e.v;
    if (g.weighted()) os << ' ' << e.w;
    os << '\n';
  }
}

namespace {

/// Line-oriented reader that skips blanks/comments and tracks the PHYSICAL
/// line number of the last line it returned, so parse errors point at the
/// real file location even when comment or blank lines precede the bad row
/// (a fixed "row index + 2" guess is wrong the moment either appears).
struct LineReader {
  std::istream& is;
  std::size_t line_no = 0;

  /// Next content line, skipping blanks and '#' comments.  False at EOF.
  bool next(std::string& out) {
    std::string line;
    while (std::getline(is, line)) {
      ++line_no;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      out = std::move(line);
      return true;
    }
    return false;
  }

  /// next(), but EOF is a hard error describing what was being read.
  std::string require(const std::string& format, const std::string& what) {
    std::string out;
    if (!next(out))
      throw std::invalid_argument(format + ": unexpected end of input while reading " +
                                  what + " (after line " +
                                  std::to_string(line_no) + ")");
    return out;
  }
};

/// Index of the first edge whose endpoint pair an earlier edge of `edges`
/// already joins; the list must hold such a repeat.
std::size_t first_repeat(const std::vector<Edge>& edges) {
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0;; ++i) {
    const auto [lo, hi] = std::minmax(edges[i].u, edges[i].v);
    if (!seen.insert(std::uint64_t{hi} << 32 | lo).second) return i;
  }
}

Graph read_edge_list_from(LineReader& reader) {
  static const std::string kFormat = "ftspan edge list";
  std::istringstream header(reader.require(kFormat, "the header"));
  std::string magic, mode;
  std::size_t n = 0, m = 0;
  if (!(header >> magic >> n >> m >> mode) || magic != "ftspan" ||
      (mode != "weighted" && mode != "unweighted"))
    throw std::invalid_argument(kFormat + ": bad header on line " +
                                std::to_string(reader.line_no));

  const bool weighted = mode == "weighted";
  // The rows are collected and the adjacency built once, exact-fit
  // (Graph::from_edges).  add_edge per row would relocate each row as it
  // fills, leaving an arc array of 2-4x the 2m arcs, holes included, grown
  // through buffers of up to 8x: memory every copy of the graph inherits.
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::istringstream row(reader.require(
        kFormat, "edge " + std::to_string(i + 1) + " of " + std::to_string(m)));
    VertexId u = 0, v = 0;
    Weight w = 1.0;
    if (!(row >> u >> v) || (weighted && !(row >> w)))
      throw std::invalid_argument(kFormat + ": bad edge on line " +
                                  std::to_string(reader.line_no));
    try {
      Graph::validate_edge(n, u, v, w, weighted);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(kFormat + ": line " +
                                  std::to_string(reader.line_no) + ": " +
                                  e.what());
    }
    edges.push_back(Edge{u, v, w});
  }
  try {
    return Graph::from_edges(n, edges, weighted);
  } catch (const std::invalid_argument& e) {
    // Every row passed validate_edge, so the list repeats an endpoint pair.
    const std::size_t i = first_repeat(edges);
    throw std::invalid_argument(
        kFormat + ": edge " + std::to_string(i + 1) + " of " +
        std::to_string(m) + " (" + std::to_string(edges[i].u) + " " +
        std::to_string(edges[i].v) + "): " + e.what());
  }
}

std::vector<Point> read_points_from(LineReader& reader) {
  static const std::string kFormat = "ftspan points";
  std::istringstream header(reader.require(kFormat, "the header"));
  std::string magic;
  std::size_t n = 0;
  if (!(header >> magic >> n) || magic != "ftspan-points")
    throw std::invalid_argument(kFormat + ": bad header on line " +
                                std::to_string(reader.line_no));
  std::vector<Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::istringstream row(reader.require(
        kFormat,
        "point " + std::to_string(i + 1) + " of " + std::to_string(n)));
    Point p;
    if (!(row >> p.x >> p.y))
      throw std::invalid_argument(kFormat + ": bad point on line " +
                                  std::to_string(reader.line_no));
    points.push_back(p);
  }
  return points;
}

/// File-level strictness for load_*: a declared-count format has no valid
/// continuation, so any content line past the last record is a mistake —
/// most often a count smaller than the data, which would otherwise load a
/// silently partial graph.  (The stream-level read_* entry points stay
/// lenient so concatenated streams keep working.)
void reject_trailing(LineReader& reader, const char* format) {
  std::string extra;
  if (reader.next(extra))
    throw std::invalid_argument(std::string(format) +
                                ": trailing content on line " +
                                std::to_string(reader.line_no));
}

/// I/O (not syntax) failure: badbit means the stream itself broke.
void require_stream_healthy(const std::istream& is, const std::string& path) {
  if (is.bad()) throw std::runtime_error("read failed: " + path);
}

}  // namespace

Graph read_edge_list(std::istream& is) {
  LineReader reader{is};
  return read_edge_list_from(reader);
}

void write_points(std::ostream& os, const std::vector<Point>& points) {
  os << "ftspan-points " << points.size() << '\n';
  os.precision(17);
  for (const auto& p : points) os << p.x << ' ' << p.y << '\n';
}

std::vector<Point> read_points(std::istream& is) {
  LineReader reader{is};
  return read_points_from(reader);
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_edge_list(os, g);
  if (!os) throw std::runtime_error("write failed: " + path);
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  LineReader reader{is};
  try {
    Graph g = read_edge_list_from(reader);
    reject_trailing(reader, "ftspan edge list");
    require_stream_healthy(is, path);
    return g;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void save_points(const std::string& path, const std::vector<Point>& points) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_points(os, points);
  if (!os) throw std::runtime_error("write failed: " + path);
}

std::vector<Point> load_points(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  LineReader reader{is};
  try {
    std::vector<Point> points = read_points_from(reader);
    reject_trailing(reader, "ftspan points");
    require_stream_healthy(is, path);
    return points;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace ftspan
