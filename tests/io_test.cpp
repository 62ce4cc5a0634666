// File-level IO contract: round-trips through save_/load_ and loud failures
// — with the path and the true physical line number — on malformed files.
// (Stream-level hostile-input cases live in io_validation_test.cpp.)

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "util/rng.h"

namespace ftspan {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/ftspan_io_" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  ASSERT_TRUE(os) << "cannot create " << path;
  os << text;
}

/// Expects `fn` to throw Exc whose message contains every needle.
template <typename Exc, typename Fn>
void expect_throw_containing(Fn fn, std::initializer_list<std::string> needles) {
  try {
    fn();
    FAIL() << "should have thrown";
  } catch (const Exc& e) {
    const std::string what = e.what();
    for (const auto& needle : needles)
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << what;
  }
}

// ------------------------------------------------------------ round trips

TEST(IoFiles, GraphRoundTripUnweighted) {
  Rng rng(3);
  const Graph g = gnp(40, 0.2, rng);
  const auto path = temp_path("rt_unweighted.graph");
  save_graph(path, g);
  const Graph back = load_graph(path);
  ASSERT_EQ(back.n(), g.n());
  ASSERT_EQ(back.m(), g.m());
  for (EdgeId i = 0; i < g.m(); ++i) {
    EXPECT_EQ(back.edge(i).u, g.edge(i).u);
    EXPECT_EQ(back.edge(i).v, g.edge(i).v);
  }
}

TEST(IoFiles, GraphRoundTripWeightedStaysExact) {
  Rng rng(5);
  const Graph g = with_uniform_weights(gnp(30, 0.25, rng), 1e-9, 1e9, rng);
  const auto path = temp_path("rt_weighted.graph");
  save_graph(path, g);
  const Graph back = load_graph(path);
  ASSERT_EQ(back.m(), g.m());
  EXPECT_TRUE(back.weighted());
  for (EdgeId i = 0; i < g.m(); ++i)
    EXPECT_DOUBLE_EQ(back.edge(i).w, g.edge(i).w);  // printed at 17 digits
}

TEST(IoFiles, LoadedGraphIsExactFitWithInsertionOrderRows) {
  // The loader builds the adjacency once: its footprint is from_edges' (2m
  // arcs, no relocation holes), not the up-to-4x of appending row by row,
  // and every row lists its arcs in file order, as add_edge would.
  Rng rng(7);
  const Graph g = gnp(300, 0.1, rng);
  const auto path = temp_path("exact_fit.graph");
  save_graph(path, g);
  const Graph back = load_graph(path);
  EXPECT_EQ(back.memory_bytes(),
            Graph::from_edges(g.n(), g.edges()).memory_bytes());
  Graph appended(g.n());
  for (const auto& e : g.edges()) appended.add_edge(e.u, e.v);
  EXPECT_LT(back.memory_bytes(), appended.memory_bytes());
  for (VertexId v = 0; v < g.n(); ++v) {
    const auto want = appended.neighbors(v);
    const auto got = back.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to, want[i].to) << "vertex " << v << " arc " << i;
      EXPECT_EQ(got[i].edge, want[i].edge) << "vertex " << v << " arc " << i;
    }
  }
}

TEST(IoFiles, PointsRoundTripStaysExact) {
  Rng rng(7);
  std::vector<Point> pts;
  for (int i = 0; i < 25; ++i)
    pts.push_back(Point{rng.next_double(), rng.next_double()});
  const auto path = temp_path("rt.points");
  save_points(path, pts);
  const auto back = load_points(path);
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].x, pts[i].x);
    EXPECT_DOUBLE_EQ(back[i].y, pts[i].y);
  }
}

// -------------------------------------------------------- failure reports

TEST(IoFiles, MissingFileNamesPath) {
  expect_throw_containing<std::runtime_error>(
      [] { (void)load_graph("/nonexistent/ftspan.graph"); },
      {"/nonexistent/ftspan.graph"});
  expect_throw_containing<std::runtime_error>(
      [] { (void)load_points("/nonexistent/ftspan.points"); },
      {"/nonexistent/ftspan.points"});
}

TEST(IoFiles, EmptyGraphFileNamesPath) {
  const auto path = temp_path("empty.graph");
  write_file(path, "");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_graph(path); }, {path, "unexpected end of input"});
}

TEST(IoFiles, TruncatedGraphNamesPathAndProgress) {
  // Header declares 3 edges, the file holds 2: previously this parse error
  // was detectable only as a generic EOF; it must say what was missing.
  const auto path = temp_path("truncated.graph");
  write_file(path, "ftspan 4 3 unweighted\n0 1\n1 2\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_graph(path); },
      {path, "unexpected end of input", "edge 3 of 3"});
}

TEST(IoFiles, NonNumericEdgeReportsTrueLineNumber) {
  // Comments and blank lines shift physical line numbers; the report must
  // point at the real line (5), not the row index + 2 (3).
  const auto path = temp_path("nonnumeric.graph");
  write_file(path,
             "# comment\n"
             "ftspan 4 2 unweighted\n"
             "\n"
             "0 1\n"
             "x y\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_graph(path); }, {path, "bad edge on line 5"});
}

TEST(IoFiles, OutOfRangeEndpointReportsLineNumber) {
  const auto path = temp_path("range.graph");
  write_file(path, "ftspan 3 1 unweighted\n0 9\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_graph(path); }, {path, "line 2"});
}

TEST(IoFiles, RepeatedEdgeNamesRowAndEndpoints) {
  // Repeats are found over the whole list once it is read, so the error
  // names the repeating row by its index and endpoints.
  const auto path = temp_path("repeat.graph");
  write_file(path, "ftspan 4 3 unweighted\n0 1\n2 1\n1 0\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_graph(path); },
      {path, "edge 3 of 3 (1 0)", "parallel edge"});
}

TEST(IoFiles, TrailingContentRejectedByLoader) {
  // A declared count smaller than the data would otherwise load a silently
  // partial graph — the loader must refuse and name the first extra line.
  const auto path = temp_path("trailing.graph");
  write_file(path, "ftspan 4 1 unweighted\n0 1\n1 2\n2 3\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_graph(path); }, {path, "trailing content on line 3"});
  // Trailing comments/blanks are fine — only content lines are an error.
  const auto path_ok = temp_path("trailing_ok.graph");
  write_file(path_ok, "ftspan 4 1 unweighted\n0 1\n# the end\n\n");
  EXPECT_EQ(load_graph(path_ok).m(), 1u);
}

TEST(IoFiles, EmptyPointsFileNamesPath) {
  const auto path = temp_path("empty.points");
  write_file(path, "");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_points(path); }, {path, "unexpected end of input"});
}

TEST(IoFiles, TruncatedPointsNamesPathAndProgress) {
  const auto path = temp_path("truncated.points");
  write_file(path, "ftspan-points 3\n0.5 0.5\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_points(path); },
      {path, "unexpected end of input", "point 2 of 3"});
}

TEST(IoFiles, NonNumericPointReportsTrueLineNumber) {
  const auto path = temp_path("nonnumeric.points");
  write_file(path,
             "ftspan-points 2\n"
             "# halfway\n"
             "0.1 0.2\n"
             "oops 0.4\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_points(path); }, {path, "bad point on line 4"});
}

TEST(IoFiles, PointsTrailingContentRejectedByLoader) {
  const auto path = temp_path("trailing.points");
  write_file(path, "ftspan-points 1\n0.1 0.2\n0.3 0.4\n");
  expect_throw_containing<std::invalid_argument>(
      [&] { (void)load_points(path); }, {path, "trailing content on line 3"});
}

}  // namespace
}  // namespace ftspan
