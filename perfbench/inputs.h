// Seeded input generators owned by the benchmark.
//
// The benchmark must measure the same inputs no matter what happens to the
// library's own generators (src/graph/generators.cpp) or its Rng, so this
// header depends on neither: a splitmix64 stream, a cell-bucketed unit-disk
// graph (O(n * local density) instead of the library's O(n^2) pair loop) and
// a Graph500-parameter Kronecker graph with vertex relabeling and dedup.
// Edge lists are written in the ftspan edge-list format that load_graph
// reads; the writer returns an FNV-1a hash of the bytes it wrote, so a run
// can show it measured exactly the input another run did.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: one 64-bit state, full period, good enough mixing for graph
/// generation, and trivially reproducible from the --seed argument.
class Prng {
 public:
  /// `stream` separates the independent uses of one seed (points, flaps,
  /// queries, ...), so adding a draw to one never shifts another.
  Prng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ULL ^ (stream + 1) * 0xd1b54a32d192ed03ULL) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, bound), bound > 0 (multiply-shift; the bias is
  /// below 2^-32 for every bound used here and the draw stays deterministic).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// An undirected simple graph as a vertex count and a list of u < v pairs,
/// in the order the greedy will scan them.
struct EdgeList {
  std::size_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

/// Unit-disk graph on n uniform points of the unit square: {u, v} is an edge
/// iff |p_u - p_v| <= radius.  Points are bucketed into square cells of side
/// >= radius, so each point compares against its 3x3 cell block only.
/// Edges come out grouped by their smaller endpoint, ascending — the order a
/// naive u < v pair loop emits.
inline EdgeList unit_disk(std::size_t n, double radius, Prng& rng) {
  if (radius <= 0.0 || radius > 1.0) throw std::invalid_argument("radius");
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const auto cells = static_cast<std::size_t>(std::max(1.0, std::floor(1.0 / radius)));
  auto cell_of = [&](std::size_t i) {
    const auto cx = std::min(cells - 1, static_cast<std::size_t>(x[i] * cells));
    const auto cy = std::min(cells - 1, static_cast<std::size_t>(y[i] * cells));
    return cx * cells + cy;
  };
  // Counting sort of the points by cell.
  std::vector<std::uint32_t> start(cells * cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++start[cell_of(i) + 1];
  for (std::size_t c = 0; c < cells * cells; ++c) start[c + 1] += start[c];
  std::vector<std::uint32_t> member(n);
  {
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      member[fill[cell_of(i)]++] = static_cast<std::uint32_t>(i);
  }

  EdgeList out;
  out.n = n;
  const double r2 = radius * radius;
  std::vector<std::uint32_t> near;
  for (std::size_t u = 0; u < n; ++u) {
    near.clear();
    const auto c = cell_of(u);
    const auto cx = static_cast<long>(c / cells), cy = static_cast<long>(c % cells);
    for (long dx = -1; dx <= 1; ++dx) {
      for (long dy = -1; dy <= 1; ++dy) {
        const long nx = cx + dx, ny = cy + dy;
        if (nx < 0 || ny < 0 || nx >= static_cast<long>(cells) ||
            ny >= static_cast<long>(cells))
          continue;
        const auto cell = static_cast<std::size_t>(nx) * cells + static_cast<std::size_t>(ny);
        for (auto k = start[cell]; k < start[cell + 1]; ++k) {
          const auto v = member[k];
          if (v <= u) continue;
          const double ddx = x[u] - x[v], ddy = y[u] - y[v];
          if (ddx * ddx + ddy * ddy <= r2) near.push_back(v);
        }
      }
    }
    std::sort(near.begin(), near.end());
    for (const auto v : near) out.edges.emplace_back(static_cast<std::uint32_t>(u), v);
  }
  return out;
}

/// Graph500 Kronecker graph: 2^scale vertices, edgefactor * 2^scale R-MAT
/// draws with the Graph500 initiator (A = 0.57, B = C = 0.19), vertex ids
/// relabeled by a random permutation (hubs are not the low ids), self-loops
/// dropped and duplicate undirected pairs merged.  Edges come out sorted by
/// (smaller endpoint, larger endpoint).
inline EdgeList kronecker(unsigned scale, unsigned edgefactor, Prng& rng) {
  if (scale < 1 || scale > 26) throw std::invalid_argument("scale");
  const std::size_t n = std::size_t{1} << scale;
  const std::size_t draws = n * edgefactor;
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;

  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);

  std::vector<std::uint64_t> keys;
  keys.reserve(draws);
  for (std::size_t e = 0; e < draws; ++e) {
    std::uint32_t u = 0, v = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const double r = rng.uniform();
      if (r < kA) continue;
      if (r < kA + kB) {
        v |= 1u << bit;
      } else if (r < kA + kB + kC) {
        u |= 1u << bit;
      } else {
        u |= 1u << bit;
        v |= 1u << bit;
      }
    }
    u = perm[u];
    v = perm[v];
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    keys.push_back(std::uint64_t{u} << 32 | v);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  EdgeList out;
  out.n = n;
  out.edges.reserve(keys.size());
  for (const auto key : keys)
    out.edges.emplace_back(static_cast<std::uint32_t>(key >> 32),
                           static_cast<std::uint32_t>(key));
  return out;
}

/// Writes `g` in the ftspan edge-list format ("ftspan n m unweighted", then
/// one "u v" line per edge) and returns the FNV-1a 64 hash of the bytes.
inline std::uint64_t write_edge_list(const std::string& path, const EdgeList& g) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw std::runtime_error("cannot create " + path);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::string buf;
  auto flush = [&] {
    for (const unsigned char ch : buf) hash = (hash ^ ch) * 0x100000001b3ULL;
    if (std::fwrite(buf.data(), 1, buf.size(), file) != buf.size()) {
      std::fclose(file);
      throw std::runtime_error("short write to " + path);
    }
    buf.clear();
  };
  buf += "ftspan " + std::to_string(g.n) + " " + std::to_string(g.edges.size()) +
         " unweighted\n";
  for (const auto& [u, v] : g.edges) {
    buf += std::to_string(u);
    buf += ' ';
    buf += std::to_string(v);
    buf += '\n';
    if (buf.size() > (1u << 16)) flush();
  }
  flush();
  if (std::fclose(file) != 0) throw std::runtime_error("cannot close " + path);
  return hash;
}

}  // namespace perfbench
