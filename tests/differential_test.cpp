// Differential fuzz harness: the modified greedy must produce bit-identical
// picks, certificates, oracle-call and sweep counts to the test-side
// per-edge reference greedy (testing::reference_greedy, which orders the
// scan with its own copy of the sort) on seeded random inputs across both
// fault models, every scan order and f in {0, 1, 2, ...}; tracing and the
// verifier's thread count must never perturb a result.  Every assertion
// names the failing seed so a red run is reproducible from the log alone.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/modified_greedy.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "spanner/baswana_sen.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

// ----------------------------------------------------- engine-level harness

/// Asserts the engine matches the per-edge reference on g.
void expect_engines_agree(const Graph& g, const SpannerParams& params,
                          EdgeOrder order, std::uint64_t seed) {
  const std::string ctx = "seed=" + std::to_string(seed) +
                          " n=" + std::to_string(g.n()) +
                          " m=" + std::to_string(g.m()) +
                          " k=" + std::to_string(params.k) +
                          " f=" + std::to_string(params.f) + " model=" +
                          to_string(params.model);
  ModifiedGreedyConfig config;
  config.order = order;
  (void)testing::expect_matches_reference(g, params, config, ctx);
}

TEST(Differential, EnginesAgreeOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(0xd1ffu * seed + seed);
    const auto n = 24 + 8 * static_cast<std::size_t>(rng.next_below(5));
    const Graph g = gnp(n, 0.10 + 0.04 * static_cast<double>(rng.next_below(4)),
                        rng);
    const auto k = static_cast<std::uint32_t>(1 + rng.next_below(3));
    for (const std::uint32_t f : {0u, 1u, 2u, 3u})
      for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
        expect_engines_agree(g, SpannerParams{.k = k, .f = f, .model = model},
                             EdgeOrder::input, seed);
  }
}

TEST(Differential, EnginesAgreeOnWeightedGraphs) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    Rng rng(0xd1ffu * seed);
    const Graph g0 = random_geometric(30, 0.35, rng);
    const Graph g = with_uniform_weights(g0, 0.5, 2.0, rng);
    for (const std::uint32_t f : {0u, 1u, 2u})
      for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
        expect_engines_agree(g, SpannerParams{.k = 2, .f = f, .model = model},
                             EdgeOrder::by_weight, seed);
  }
}

TEST(Differential, EnginesAgreeOnSparseDisconnectedGraphs) {
  // Very sparse G(n, p) is routinely disconnected, so unreachable targets
  // and searches whose two sides never meet get real coverage.
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    Rng rng(0xd15cu * seed);
    const Graph g = gnp(40, 0.04, rng);
    for (const std::uint32_t f : {0u, 1u, 2u})
      for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
        expect_engines_agree(g, SpannerParams{.k = 2, .f = f, .model = model},
                             EdgeOrder::input, seed);
  }
}

TEST(Differential, EnginesAgreeOnDenseGraphs) {
  Rng rng(9020);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const Graph g = gnp(56, 0.18, rng);
    for (const std::uint32_t f : {0u, 1u, 2u})
      expect_engines_agree(g, SpannerParams{.k = 2, .f = f, .model = model},
                           EdgeOrder::input, 9020);
  }
}

TEST(Differential, EnginesAgreeOnWeightedGraphsK3) {
  Rng rng(9021);
  const Graph g0 = random_geometric(40, 0.3, rng);
  const Graph g = with_uniform_weights(g0, 0.5, 2.0, rng);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
    for (const std::uint32_t f : {0u, 1u, 2u})
      expect_engines_agree(g, SpannerParams{.k = 3, .f = f, .model = model},
                           EdgeOrder::by_weight, 9021);
}

TEST(Differential, EnginesAgreeOnHubGraphsFaultFree) {
  // f = 0 on a hub-heavy R-MAT instance: long runs of scan edges share a
  // source, and most of them are answered by a path through a hub.
  Rng rng(9023);
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const Graph g = gnp(64, 0.15, rng);
    expect_engines_agree(g, SpannerParams{.k = 2, .f = 0, .model = model},
                         EdgeOrder::input, 9023);
  }
  const Graph hubs = rmat(8, 8, rng);
  for (const std::uint32_t k : {2u, 3u})
    expect_engines_agree(hubs, SpannerParams{.k = k, .f = 0},
                         EdgeOrder::input, 9023);
}

TEST(Differential, EnginesAgreeInRandomOrder) {
  Rng rng(9022);
  const Graph g = gnp(48, 0.2, rng);
  for (const std::uint32_t f : {1u, 0u})
    expect_engines_agree(g, SpannerParams{.k = 2, .f = f}, EdgeOrder::random,
                         9022);
}

// ------------------------------------------------- tracing bit-identity

/// The obs layer's second CI contract: tracing observes, never steers.
/// Every consumer-visible output — picks, certificates, sweep counts, and
/// the verifier's report — must be bit-identical with tracing on vs off,
/// with the verifier at threads {1, 2, 8}.
TEST(Differential, TracingOnNeverPerturbsResults) {
  obs::reset_for_testing();
  Rng rng(0x0b5eULL);
  const Graph g = gnp(48, 0.14, rng);
  const SpannerParams params{.k = 2, .f = 2};
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    const std::string ctx = "threads=" + std::to_string(threads);
    ModifiedGreedyConfig config;
    config.record_certificates = true;
    ExecPolicy exec;
    exec.threads = threads;

    const auto off = modified_greedy_spanner(g, params, config);
    Rng verify_off_rng(99);
    const auto report_off =
        verify_sampled(g, off.spanner, params, 8, verify_off_rng, exec);

    obs::trace_start(obs::TraceOptions{std::size_t{1} << 12});
    const auto on = modified_greedy_spanner(g, params, config);
    Rng verify_on_rng(99);
    const auto report_on =
        verify_sampled(g, on.spanner, params, 8, verify_on_rng, exec);
    obs::trace_stop();
    obs::metrics_stop();

    ASSERT_EQ(on.picked, off.picked) << ctx;
    EXPECT_EQ(on.stats.oracle_calls, off.stats.oracle_calls) << ctx;
    EXPECT_EQ(on.stats.search_sweeps, off.stats.search_sweeps) << ctx;
    ASSERT_EQ(on.certificates.size(), off.certificates.size()) << ctx;
    for (std::size_t i = 0; i < off.certificates.size(); ++i)
      ASSERT_EQ(on.certificates[i].ids, off.certificates[i].ids)
          << ctx << " certificate=" << i;
    EXPECT_EQ(report_on.ok, report_off.ok) << ctx;
    EXPECT_EQ(report_on.max_stretch, report_off.max_stretch) << ctx;
    EXPECT_EQ(report_on.pairs_checked, report_off.pairs_checked) << ctx;
  }
  obs::reset_for_testing();
}

// ------------------------------------------------- scenario bit-identity

/// Scenario storms share verify_sampled's execution contract: draws are
/// consumed sequentially up front and per-trial reports fold in trial order,
/// so the whole report — including the worst witness — must be bit-identical
/// at threads {1, 2, 8}.  A baswana_sen (non-FT) spanner keeps the witness
/// interesting: violations and infinities must reproduce too.
TEST(Differential, ScenarioStormsBitIdenticalAcrossThreads) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    Rng gen_rng(0x5ce2ULL * seed + 1);
    std::vector<Point> coords;
    const Graph g = random_geometric(36, 0.3, gen_rng, &coords);
    Rng bs_rng(seed);
    const Graph h = baswana_sen_spanner(g, 2, bs_rng);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = 2, .f = 2, .model = model};
      for (const ScenarioKind kind : kAllScenarioKinds) {
        ScenarioSpec spec;
        spec.kind = kind;
        spec.ball_radius = 0.3;
        spec.restarts = 2;
        spec.coords = coords;
        const std::uint32_t trials =
            kind == ScenarioKind::adaptive ? 4 : 10;
        const std::uint64_t storm_seed = seed * 131 + 7;

        Rng ref_rng(storm_seed);
        const StretchReport ref =
            verify_scenario(g, h, params, spec, trials, ref_rng);
        for (const std::uint32_t threads : {2u, 8u}) {
          const std::string ctx = "seed=" + std::to_string(seed) +
                                  " scenario=" + to_string(kind) +
                                  " model=" + to_string(params.model) +
                                  " threads=" + std::to_string(threads);
          ExecPolicy exec;
          exec.threads = threads;
          Rng rng(storm_seed);
          const StretchReport report =
              verify_scenario(g, h, params, spec, trials, rng, exec);
          ASSERT_EQ(report.ok, ref.ok) << ctx;
          ASSERT_EQ(report.max_stretch, ref.max_stretch) << ctx;
          ASSERT_EQ(report.fault_sets_checked, ref.fault_sets_checked) << ctx;
          ASSERT_EQ(report.pairs_checked, ref.pairs_checked) << ctx;
          ASSERT_EQ(report.trials_skipped, ref.trials_skipped) << ctx;
          ASSERT_EQ(report.worst.faults.ids, ref.worst.faults.ids) << ctx;
          ASSERT_EQ(report.worst.u, ref.worst.u) << ctx;
          ASSERT_EQ(report.worst.v, ref.worst.v) << ctx;
          ASSERT_EQ(report.worst.d_g, ref.worst.d_g) << ctx;
          ASSERT_EQ(report.worst.d_h, ref.worst.d_h) << ctx;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftspan
