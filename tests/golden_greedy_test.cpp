// Golden-equivalence tests for the CSR substrate swap: the modified greedy
// must pick the IDENTICAL edge set it picked on the pre-CSR adjacency
// (vector-of-vectors + hashed edge index).  The arrays below were recorded
// by running modified_greedy_spanner on the seed implementation with the
// exact generator seeds used here; any change in BFS visit order, adjacency
// insertion order, or LBC cut accumulation shows up as a diff.
//
// The k = 3, f = 2 arrays pin which paths the sweeps find, which k = 2
// inputs here do not: they were recorded with every f >= 1 sweep searched
// from both ends.  The one-ended sweeps before that picked 3 fewer edges
// (vertex: 171, 219, 279) and 1 fewer (edge: 171), at the same sweep
// counts, and both spanners pass the exhaustive stretch-5 check below.

#include <gtest/gtest.h>

#include <string>

#include "core/modified_greedy.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

// kGoldenVertexK2F2: n=48 m=294 k=2 f=2 model=vertex -> 181 picked
static const std::vector<EdgeId> kGoldenVertexK2F2 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 68, 69, 70, 71, 72, 73, 75, 76, 77, 78, 79, 80, 81, 83, 84, 85, 86, 87, 88, 89, 90, 92, 93, 96, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 117, 118, 120, 121, 123, 125, 129, 130, 133, 135, 136, 139, 140, 141, 142, 144, 145, 147, 149, 151, 154, 155, 161, 164, 165, 166, 167, 168, 169, 172, 173, 176, 178, 179, 183, 184, 185, 186, 189, 190, 191, 192, 193, 194, 195, 196, 197, 201, 202, 203, 205, 207, 211, 214, 215, 216, 219, 222, 233, 235, 237, 241, 242, 248, 254, 258, 259, 263, 266, 267, 270, 271, 279, 283, 289};

// kGoldenEdgeK2F2: n=48 m=294 k=2 f=2 model=edge -> 181 picked
static const std::vector<EdgeId> kGoldenEdgeK2F2 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 68, 69, 70, 71, 72, 73, 75, 76, 77, 78, 79, 80, 81, 83, 84, 85, 86, 87, 88, 89, 90, 92, 93, 96, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 117, 118, 120, 121, 123, 125, 129, 130, 133, 135, 136, 139, 140, 141, 142, 144, 145, 147, 149, 151, 154, 155, 161, 164, 165, 166, 167, 168, 169, 172, 173, 176, 178, 179, 183, 184, 185, 186, 189, 190, 191, 192, 193, 194, 195, 196, 197, 201, 202, 203, 205, 207, 211, 214, 215, 216, 219, 222, 233, 235, 237, 241, 242, 248, 254, 258, 259, 263, 266, 267, 270, 271, 279, 283, 289};

// kGoldenVertexK3F1: n=40 m=244 k=3 f=1 model=vertex -> 75 picked
static const std::vector<EdgeId> kGoldenVertexK3F1 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 36, 37, 38, 39, 41, 43, 45, 47, 48, 49, 52, 53, 54, 55, 56, 57, 58, 60, 62, 64, 65, 66, 69, 70, 72, 78, 82, 88, 89, 96, 107, 108, 110, 113, 115, 119, 121, 138, 189, 192, 208};

// kGoldenEdgeWeightedK2F1: n=36 m=214 k=2 f=1 model=edge -> 82 picked
static const std::vector<EdgeId> kGoldenEdgeWeightedK2F1 = {136, 144, 29, 152, 150, 111, 142, 3, 198, 172, 140, 80, 159, 161, 43, 160, 15, 120, 61, 33, 67, 18, 185, 146, 97, 91, 169, 141, 95, 195, 81, 202, 13, 25, 178, 186, 1, 149, 101, 31, 190, 207, 200, 20, 84, 92, 36, 197, 187, 34, 23, 126, 62, 134, 69, 133, 75, 98, 164, 107, 70, 180, 117, 171, 131, 177, 121, 26, 38, 5, 49, 90, 6, 138, 189, 183, 56, 60, 193, 212, 59, 2};

// kGoldenVertexK3F2: n=48 m=294 k=3 f=2 model=vertex -> 133 picked
static const std::vector<EdgeId> kGoldenVertexK3F2 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 68, 69, 71, 72, 73, 75, 76, 77, 78, 79, 80, 81, 83, 84, 85, 86, 87, 88, 89, 90, 92, 93, 96, 100, 101, 102, 104, 105, 106, 108, 109, 110, 112, 114, 115, 117, 120, 121, 123, 129, 130, 133, 135, 136, 140, 144, 145, 147, 151, 164, 166, 167, 171, 172, 179, 183, 184, 185, 189, 190, 191, 195, 196, 197, 214, 219, 279};

// kGoldenEdgeK3F2: n=48 m=294 k=3 f=2 model=edge -> 130 picked
static const std::vector<EdgeId> kGoldenEdgeK3F2 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 68, 69, 71, 72, 73, 75, 76, 77, 78, 79, 80, 81, 83, 84, 85, 86, 87, 88, 89, 90, 92, 93, 96, 100, 101, 104, 105, 106, 108, 109, 110, 112, 114, 115, 117, 120, 121, 123, 129, 130, 133, 135, 136, 140, 144, 145, 147, 151, 164, 166, 167, 171, 172, 179, 183, 184, 185, 189, 190, 191, 195, 196, 197, 214};

// The f = 0 arrays were recorded on a hub-heavy R-MAT instance while the
// alpha-0 decisions of one source still shared a terminal BFS tree.  At
// f = 0 a decision is only "is d_H(u, v) <= t?", so any correct search
// reproduces them, and the fault model cannot change a pick: both models
// are checked against the one array.

// kGoldenRmatK2F0: rmat(7, 4) n=128 m=341 k=2 f=0 -> 105 picked
static const std::vector<EdgeId> kGoldenRmatK2F0 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 62, 69, 77, 80, 82, 83, 88, 92, 101, 102, 106, 107, 110, 122, 127, 133, 136, 145, 156, 167, 181, 184, 186, 191, 199, 200, 218, 219, 224, 228, 232, 251, 257, 270, 272, 273, 279, 295, 296, 298, 307, 308, 312, 318, 331, 332, 335, 336};

// kGoldenRmatK3F0: rmat(7, 4) n=128 m=341 k=3 f=0 -> 96 picked
static const std::vector<EdgeId> kGoldenRmatK3F0 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 62, 69, 77, 80, 82, 83, 88, 92, 101, 102, 106, 107, 110, 122, 127, 133, 136, 145, 156, 167, 181, 184, 186, 191, 199, 219, 224, 228, 232, 251, 270, 272, 273, 295, 298, 307, 308, 332, 335};

// Checks the recorded picks, then pins oracle calls and sweep counts to the
// per-edge reference greedy (tests/test_util.h).
void expect_golden(const Graph& g, const SpannerParams& params,
                   const std::vector<EdgeId>& golden) {
  const auto build = modified_greedy_spanner(g, params);
  EXPECT_EQ(build.picked, golden);
  EXPECT_EQ(build.spanner.m(), golden.size());
  const auto ref = testing::reference_greedy(g, params);
  EXPECT_EQ(ref.picked, golden);
  EXPECT_EQ(build.stats.oracle_calls, ref.stats.oracle_calls);
  EXPECT_EQ(build.stats.search_sweeps, ref.stats.search_sweeps);
}

TEST(GoldenGreedy, VertexModelK2F2) {
  Rng rng(7001);
  const Graph g = gnp(48, 0.25, rng);
  expect_golden(g, SpannerParams{.k = 2, .f = 2, .model = FaultModel::vertex},
                kGoldenVertexK2F2);
}

TEST(GoldenGreedy, EdgeModelK2F2) {
  Rng rng(7001);
  const Graph g = gnp(48, 0.25, rng);
  expect_golden(g, SpannerParams{.k = 2, .f = 2, .model = FaultModel::edge},
                kGoldenEdgeK2F2);
}

TEST(GoldenGreedy, VertexModelK3F1) {
  Rng rng(7002);
  const Graph g = gnp(40, 0.3, rng);
  expect_golden(g, SpannerParams{.k = 3, .f = 1, .model = FaultModel::vertex},
                kGoldenVertexK3F1);
}

TEST(GoldenGreedy, VertexModelK3F2) {
  Rng rng(7001);
  const Graph g = gnp(48, 0.25, rng);
  const SpannerParams params{.k = 3, .f = 2, .model = FaultModel::vertex};
  expect_golden(g, params, kGoldenVertexK3F2);
  testing::expect_ft_spanner_exhaustive(
      g, modified_greedy_spanner(g, params).spanner, params, "vertex k=3 f=2");
}

TEST(GoldenGreedy, EdgeModelK3F2) {
  Rng rng(7001);
  const Graph g = gnp(48, 0.25, rng);
  const SpannerParams params{.k = 3, .f = 2, .model = FaultModel::edge};
  expect_golden(g, params, kGoldenEdgeK3F2);
  testing::expect_ft_spanner_exhaustive(
      g, modified_greedy_spanner(g, params).spanner, params, "edge k=3 f=2");
}

/// f = 0 goldens: the vertex model's picks, the edge model's equal to them,
/// and each spanner checked by verify_exhaustive (one fault set at f = 0).
void expect_fault_free_golden(const Graph& g, std::uint32_t k,
                              const std::vector<EdgeId>& golden) {
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = k, .f = 0, .model = model};
    expect_golden(g, params, golden);
    testing::expect_ft_spanner_exhaustive(
        g, modified_greedy_spanner(g, params).spanner, params,
        "rmat k=" + std::to_string(k) + " f=0 " + to_string(model));
  }
}

TEST(GoldenGreedy, FaultFreeRmatK2) {
  Rng rng(7004);
  const Graph g = rmat(7, 4, rng);
  ASSERT_EQ(g.m(), 341u);
  expect_fault_free_golden(g, 2, kGoldenRmatK2F0);
}

TEST(GoldenGreedy, FaultFreeRmatK3) {
  Rng rng(7004);
  const Graph g = rmat(7, 4, rng);
  ASSERT_EQ(g.m(), 341u);
  expect_fault_free_golden(g, 3, kGoldenRmatK3F0);
}

TEST(GoldenGreedy, EdgeModelWeightedK2F1) {
  Rng rng(7003);
  const Graph g0 = random_geometric(36, 0.35, rng);
  const Graph g = with_uniform_weights(g0, 0.5, 2.0, rng);
  expect_golden(g, SpannerParams{.k = 2, .f = 1, .model = FaultModel::edge},
                kGoldenEdgeWeightedK2F1);
}

}  // namespace
}  // namespace ftspan
