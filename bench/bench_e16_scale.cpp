// E16 — million-vertex substrate scaling: the modified greedy on Graph500
// Kronecker / R-MAT instances at n = 2^17 .. 2^20 (edgefactor 16).
//
// Where E4 tracks instruction-count speedups on toy graphs, E16 tracks the
// quantities that decide throughput at scale: wall-clock build time, peak
// RSS (getrusage), adjacency arcs traversed (the measured work term of the
// paper's O(f^{1-1/k} n^{1/k} m) bound), and allocator traffic during the
// build (counting operator new in this binary — near zero once the slab
// arenas reach their high-water mark).  Graph generation is timed separately
// (gen_seconds) so the build column is the spanner build alone.
//
// --f defaults to 0 for the scale sweep: every decision is then one t-hop
// search from both ends, which keeps the 2^20 configuration within a few
// minutes on one thread.  f >= 1 rows remain fully supported at the smaller
// scales (the nightly sweep runs one).
//
// Writes BENCH_e16_scale.json; `tools/check_perf_floor.py --section e16`
// gates the CI perf lane on the checked-in seconds + max_peak_rss_mb floors
// (bench/ci_perf_floor.json, "e16" entries).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "core/result.h"
#include "util/timer.h"

// ------------------------------------------------------- allocation counter
//
// Counting replacements for the global allocation functions, confined to
// this binary.  The counters are the source of truth for the allocations
// column: a build phase that runs entirely out of the pooled arenas performs
// (almost) no operator-new calls, and a regression that reintroduces
// per-decision heap churn shows up here as millions of them.

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

struct AllocSnapshot {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

AllocSnapshot alloc_now() {
  return {g_alloc_calls.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ftspan;

struct RunResult {
  std::string family;
  std::size_t scale = 0;
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t edgefactor = 0;
  std::uint32_t f = 0;
  std::uint32_t k = 0;
  std::size_t spanner_m = 0;
  double seconds = 0.0;      // spanner build only
  double gen_seconds = 0.0;  // graph generation, separate by design
  double peak_rss_mb = 0.0;
  std::uint64_t arcs_traversed = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t graph_bytes = 0;
  std::uint64_t alloc_calls = 0;  // operator-new calls during the build
  std::uint64_t alloc_bytes = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t sweeps = 0;
};

RunResult run_config(const std::string& family, std::size_t scale,
                     std::size_t edgefactor, std::uint32_t f, std::uint32_t k,
                     std::uint64_t seed) {
  RunResult out;
  out.family = family;
  out.scale = scale;
  out.edgefactor = edgefactor;
  out.f = f;
  out.k = k;

  Rng rng(seed + scale);
  const auto [g, gen_seconds] = bench::timed_gen([&] {
    return family == "rmat" ? rmat(scale, edgefactor, rng)
                            : kronecker(scale, edgefactor, rng);
  });
  out.gen_seconds = gen_seconds;
  out.n = g.n();
  out.m = g.m();
  out.graph_bytes = g.memory_bytes();

  const AllocSnapshot before = alloc_now();
  const Timer timer;
  const SpannerBuild build =
      modified_greedy_spanner(g, SpannerParams{.k = k, .f = f});
  out.seconds = timer.seconds();
  const AllocSnapshot after = alloc_now();
  out.alloc_calls = after.calls - before.calls;
  out.alloc_bytes = after.bytes - before.bytes;
  out.spanner_m = build.spanner.m();
  out.oracle_calls = build.stats.oracle_calls;
  out.sweeps = build.stats.search_sweeps;
  out.arcs_traversed = build.stats.arcs_traversed;
  out.arena_bytes = build.stats.arena_bytes;
  out.peak_rss_mb = bench::peak_rss_mb();
  return out;
}

/// Parses "--scales 17,18,19,20".
std::vector<std::size_t> parse_scales(const std::string& arg) {
  std::vector<std::size_t> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const long value = std::stol(item);
    if (value < 1 || value > 30)
      throw std::invalid_argument("--scales values must be in [1, 30]");
    out.push_back(static_cast<std::size_t>(value));
  }
  if (out.empty()) throw std::invalid_argument("--scales is empty");
  // Ascending order keeps the peak-RSS column interpretable (monotone
  // process high-water mark: each row's value is its own config's peak).
  std::sort(out.begin(), out.end());
  return out;
}

/// One JSON row per scale.  "threads" is always 1 (builds run on the
/// calling thread); it stays in the schema because the CI floor entries
/// (bench/ci_perf_floor.json) are keyed on it.
bool write_json(const std::string& path, const std::vector<RunResult>& results) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "  {\"family\": \"" << r.family << "\", \"scale\": " << r.scale
        << ", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"edgefactor\": " << r.edgefactor << ", \"f\": " << r.f
        << ", \"k\": " << r.k << ", \"threads\": 1"
        << ", \"spanner_m\": " << r.spanner_m << ", \"seconds\": " << r.seconds
        << ", \"gen_seconds\": " << r.gen_seconds
        << ", \"peak_rss_mb\": " << r.peak_rss_mb
        << ", \"arcs_traversed\": " << r.arcs_traversed
        << ", \"arena_bytes\": " << r.arena_bytes
        << ", \"graph_bytes\": " << r.graph_bytes
        << ", \"alloc_calls\": " << r.alloc_calls
        << ", \"alloc_bytes\": " << r.alloc_bytes
        << ", \"oracle_calls\": " << r.oracle_calls
        << ", \"sweeps\": " << r.sweeps << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.flush().good();
}

}  // namespace

static int bench_main(const ftspan::Cli& cli) {
  using namespace ftspan;
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 42));
  const auto scales = parse_scales(cli.get("scales", "17,18,19,20"));
  const std::string family = cli.get("family", "kronecker");
  if (family != "kronecker" && family != "rmat")
    throw std::invalid_argument("--family must be kronecker or rmat");
  const auto edgefactor =
      static_cast<std::size_t>(cli.get_uint("edgefactor", 16));
  const auto f = static_cast<std::uint32_t>(cli.get_uint("f", 0));
  const auto k = static_cast<std::uint32_t>(cli.get_uint("k", 2));
  const auto json_path = cli.get("out", "BENCH_e16_scale.json");
  const bench::ObsFlags obs = bench::obs_flags(cli);

  bench::banner("E16 scale",
                "near-optimal O(f^{1-1/k} n^{1/k} m) build time survives "
                "million-vertex inputs: layout and allocation behavior, not "
                "instruction counts, set the slope",
                seed);
  // Obs enablement costs a handful of one-time allocations (per-thread state
  // and rings), so the alloc_calls column is only comparable across runs
  // with the same --trace/--metrics setting; CI floors gate untraced runs.
  obs.start();

  std::vector<RunResult> results;
  for (const std::size_t scale : scales) {
    results.push_back(run_config(family, scale, edgefactor, f, k, seed));
    const auto& r = results.back();
    std::cout << family << " scale=" << scale << " done: n=" << r.n
              << " m=" << r.m << " build=" << r.seconds << "s (gen "
              << r.gen_seconds << "s), peak RSS " << r.peak_rss_mb << " MiB\n";
  }

  Table table({"family", "scale", "n", "m(G)", "f", "k", "m(H)",
               "build-s", "gen-s", "rss-MiB", "arcs", "arena-MiB", "allocs",
               "sweeps"});
  for (const auto& r : results)
    table.add_row({r.family, Table::num(r.scale), Table::num(r.n),
                   Table::num(r.m), Table::num(static_cast<long long>(r.f)),
                   Table::num(static_cast<long long>(r.k)),
                   Table::num(r.spanner_m), Table::num(r.seconds, 2),
                   Table::num(r.gen_seconds, 2), Table::num(r.peak_rss_mb, 1),
                   Table::num(static_cast<long long>(r.arcs_traversed)),
                   Table::num(static_cast<double>(r.arena_bytes) / 1048576.0, 1),
                   Table::num(static_cast<long long>(r.alloc_calls)),
                   Table::num(static_cast<long long>(r.sweeps))});
  table.print(std::cout);

  if (!write_json(json_path, results)) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return obs.finish() ? 0 : 1;
}

int main(int argc, char** argv) {
  static constexpr std::string_view kFlags[] = {
      "seed", "scales", "family", "edgefactor", "f", "k", "out", "trace",
      "metrics", "trace-ring"};
  return ftspan::bench::run_main(argc, argv, bench_main, kFlags);
}
