// Guards the million-vertex substrate policies from src/graph/:
//   * 64-bit arc ids — arc counts and cumulative arc counters live in
//     ArcIndex (uint64), never int/uint32, so a graph whose arc array
//     crosses 2^31 entries cannot wrap (graphs that large do not fit in CI
//     memory; these tests pin the type policy and the arithmetic paths that
//     would overflow first, and the nightly E16 sweep exercises the real
//     multi-hundred-million-arc regime).
//   * slab-pooled search arenas — per-vertex state grows in
//     kStateSlabVertices quanta from a high-water mark and is never shrunk
//     or reallocated by a search, which is what keeps the steady-state build
//     allocation-free (the E16 allocations column).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <type_traits>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/search.h"
#include "util/rng.h"

namespace ftspan {
namespace {

TEST(ArcIndexPolicy, TypesAreWideEnough) {
  // The policy static_asserts live in graph/types.h; restating the widths
  // here keeps an accidental typedef change from compiling quietly into a
  // 32-bit arc space.
  static_assert(std::is_same_v<ArcIndex, std::uint64_t>);
  static_assert(sizeof(ArcIndex) == 8);
  EXPECT_GT(std::numeric_limits<ArcIndex>::max(),
            std::uint64_t{1} << 32);  // beyond any 32-bit arc id
}

TEST(ArcIndexPolicy, ArcCountsAccumulateIn64Bits) {
  // 2m arcs summed through ArcIndex: on a graph with m past 2^15 the sum
  // already overflows int16/handmade narrow counters; what we pin is that
  // the public accounting (degree sums, arcs_scanned) goes through ArcIndex.
  Rng rng(11);
  const Graph g = rmat(12, 8, rng);
  ArcIndex total = 0;
  for (VertexId v = 0; v < g.n(); ++v) total += g.neighbors(v).size();
  EXPECT_EQ(total, static_cast<ArcIndex>(2) * g.m());

  BfsRunner bfs;
  std::vector<std::uint32_t> hops;
  const ArcIndex before = bfs.arcs_scanned();
  bfs.all_hops(g, 0, hops);
  EXPECT_GT(bfs.arcs_scanned(), before);
  EXPECT_LE(bfs.arcs_scanned() - before, total);
}

TEST(ArcIndexPolicy, HubRelocationKeepsArcOrderAndCounts) {
  // Incremental add_edge on a hub forces repeated row relocation and
  // compaction of the flat arc array — offsets are ArcIndex arithmetic all
  // the way down.  The row must stay in insertion order with exact size.
  const std::size_t leaves = 50000;
  Graph g(leaves + 1);
  for (VertexId v = 1; v <= leaves; ++v) g.add_edge(0, v);
  ASSERT_EQ(g.degree(0), leaves);
  const auto arcs = g.neighbors(0);
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    EXPECT_EQ(arcs[i].to, static_cast<VertexId>(i + 1));
    EXPECT_EQ(arcs[i].edge, static_cast<EdgeId>(i));
  }
  EXPECT_GT(g.memory_bytes(), leaves * sizeof(Edge));  // 64-bit safe sizing
}

TEST(SlabArena, RoundUpQuantizes) {
  EXPECT_EQ(slab_round_up(0), 0u);
  EXPECT_EQ(slab_round_up(1), kStateSlabVertices);
  EXPECT_EQ(slab_round_up(kStateSlabVertices), kStateSlabVertices);
  EXPECT_EQ(slab_round_up(kStateSlabVertices + 1), 2 * kStateSlabVertices);
  EXPECT_EQ(slab_round_up((std::size_t{1} << 20) - 1), std::size_t{1} << 20);
}

TEST(SlabArena, NearbySizesShareOneFootprint) {
  // Graphs within one slab of each other must land on the identical
  // reservation: no growth when a second, slightly larger graph arrives.
  Rng rng(7);
  const Graph small = gnp(1000, 0.01, rng);
  const Graph large = gnp(1000 + kStateSlabVertices / 8, 0.01, rng);
  BfsRunner bfs;
  // Larger graph first: the slab covers both sizes, and the BFS queue (the
  // one buffer that tracks the reached set, not the universe) is already at
  // its high-water mark when the smaller graph arrives.
  (void)bfs.hop_distance(large, 0, 1);
  const std::size_t after_large = bfs.arena_bytes();
  (void)bfs.hop_distance(small, 0, 1);
  EXPECT_EQ(bfs.arena_bytes(), after_large);
}

TEST(SlabArena, HighWaterMarkNeverShrinks) {
  Rng rng(7);
  const Graph big = gnp(2 * kStateSlabVertices, 0.002, rng);
  const Graph tiny = gnp(64, 0.2, rng);
  BfsRunner bfs;
  (void)bfs.hop_distance(big, 0, 1);
  const std::size_t peak = bfs.arena_bytes();
  for (int i = 0; i < 10; ++i)
    (void)bfs.hop_distance(tiny, 0, static_cast<VertexId>(1 + i % 8));
  EXPECT_EQ(bfs.arena_bytes(), peak);
}

TEST(SlabArena, DijkstraHeapReuses) {
  Rng rng(17);
  const Graph base = gnp(800, 0.02, rng);
  const Graph g = with_uniform_weights(base, 0.5, 2.0, rng);
  DijkstraRunner dij;
  (void)dij.distance(g, 0, 1);
  const std::size_t settled = dij.arena_bytes();
  for (VertexId t = 2; t < 40; ++t) (void)dij.distance(g, 0, t);
  EXPECT_EQ(dij.arena_bytes(), settled);
  EXPECT_GT(dij.arcs_scanned(), 0u);
}

}  // namespace
}  // namespace ftspan
