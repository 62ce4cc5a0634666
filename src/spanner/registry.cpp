#include "spanner/registry.h"

#include <stdexcept>

#include "core/greedy_exact.h"
#include "spanner/add93_greedy.h"
#include "spanner/alpha_beta.h"
#include "spanner/baswana_sen.h"
#include "spanner/bdpvw_vft.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ftspan {

namespace {

SpannerBuild build_modified(const Graph& g, const SpannerParams& params,
                            const SpannerAlgoOptions& o) {
  return modified_greedy_spanner(g, params, o.engine);
}

SpannerBuild build_exact(const Graph& g, const SpannerParams& params,
                         const SpannerAlgoOptions& o) {
  return exact_greedy_spanner(g, params, o.engine.record_certificates);
}

SpannerBuild build_bdpvw(const Graph& g, const SpannerParams& params,
                         const SpannerAlgoOptions& o) {
  BdpvwConfig config;
  config.record_certificates = o.engine.record_certificates;
  return bdpvw_vft_spanner(g, params, config);
}

SpannerBuild build_alpha_beta(const Graph& g, const SpannerParams& params,
                              const SpannerAlgoOptions& o) {
  AlphaBetaConfig config;
  if (o.alpha == 0.0 && o.beta == 0.0) {
    config.alpha = params.stretch();  // modified-greedy-equivalent budget
    config.beta = 0.0;
  } else {
    config.alpha = o.alpha;
    config.beta = o.beta;
  }
  config.engine = o.engine;
  return alpha_beta_spanner(g, params, config);
}

SpannerBuild build_dk11(const Graph& g, const SpannerParams& params,
                        const SpannerAlgoOptions& o) {
  Rng rng(o.seed);
  return dk11_spanner(g, params, rng, o.dk11);
}

SpannerBuild build_baswana_sen(const Graph& g, const SpannerParams& params,
                               const SpannerAlgoOptions& o) {
  const Timer timer;
  SpannerBuild build;
  Rng rng(o.seed);
  build.spanner = baswana_sen_spanner(g, params.k, rng, &build.picked);
  build.stats.seconds = timer.seconds();
  return build;
}

SpannerBuild build_add93(const Graph& g, const SpannerParams& params,
                         const SpannerAlgoOptions& /*o*/) {
  const Timer timer;
  SpannerBuild build;
  build.spanner = add93_greedy_spanner(g, params.k, &build.picked);
  build.stats.seconds = timer.seconds();
  return build;
}

constexpr SpannerAlgoInfo kAlgos[] = {
    {"modified", "Dinitz-Robelle PODC'20, Alg. 3/4",
     "f-FT (2k-1)-spanner, O(k f^{1-1/k} n^{1+1/k}) edges, polynomial time",
     /*fault_tolerant=*/true, /*vertex=*/true, /*edge=*/true,
     /*randomized=*/false, &build_modified},
    {"exact", "[BDPW18, BP19], Alg. 1",
     "f-FT (2k-1)-spanner, optimal O(f^{1-1/k} n^{1+1/k}) edges, "
     "exponential-time decisions",
     /*fault_tolerant=*/true, /*vertex=*/true, /*edge=*/true,
     /*randomized=*/false, &build_exact},
    {"bdpvw", "Bodwin-Dinitz-Parter-Vassilevska Williams (1710.03164)",
     "optimal-size f-VFT (2k-1)-spanner; LBC-prefiltered exact greedy, "
     "picks identical to exact",
     /*fault_tolerant=*/true, /*vertex=*/true, /*edge=*/false,
     /*randomized=*/false, &build_bdpvw},
    {"alpha_beta", "Popova-Tzalik (2603.17085)",
     "f-FT spanner under the budgeted test alpha*w+beta "
     "(alpha=2k-1, beta=0 recovers modified)",
     /*fault_tolerant=*/true, /*vertex=*/true, /*edge=*/true,
     /*randomized=*/false, &build_alpha_beta},
    {"dk11", "Dinitz-Krauthgamer (1101.5753)",
     "f-VFT (2k-1)-spanner whp, O(f^{2-1/k} n^{1+1/k} log n) edges; "
     "requires f >= 1, vertex model",
     /*fault_tolerant=*/true, /*vertex=*/true, /*edge=*/false,
     /*randomized=*/true, &build_dk11},
    {"baswana_sen", "Baswana-Sen [BS07]",
     "non-FT (2k-1)-spanner, expected O(k n^{1+1/k}) edges, O(km) time",
     /*fault_tolerant=*/false, /*vertex=*/true, /*edge=*/true,
     /*randomized=*/true, &build_baswana_sen},
    {"add93", "Althofer et al. [ADD+93]",
     "non-FT (2k-1)-spanner, O(n^{1+1/k}) edges (girth bound)",
     /*fault_tolerant=*/false, /*vertex=*/true, /*edge=*/true,
     /*randomized=*/false, &build_add93},
};

}  // namespace

std::span<const SpannerAlgoInfo> spanner_algos() noexcept { return kAlgos; }

const SpannerAlgoInfo* find_spanner_algo(std::string_view name) noexcept {
  for (const auto& info : kAlgos)
    if (info.name == name) return &info;
  return nullptr;
}

std::string spanner_algo_names(char sep) {
  std::string names;
  for (const auto& info : kAlgos) {
    if (!names.empty()) names.push_back(sep);
    names.append(info.name);
  }
  return names;
}

SpannerBuild build_spanner(std::string_view algo, const Graph& g,
                           const SpannerParams& params,
                           const SpannerAlgoOptions& options) {
  const SpannerAlgoInfo* info = find_spanner_algo(algo);
  if (info == nullptr)
    throw std::invalid_argument("unknown spanner algorithm '" +
                                std::string(algo) + "'; registered: " +
                                spanner_algo_names());
  const bool supported = params.model == FaultModel::vertex ? info->vertex_model
                                                            : info->edge_model;
  if (!supported)
    throw std::invalid_argument(
        "algorithm '" + std::string(algo) + "' does not support the " +
        std::string(to_string(params.model)) + " fault model");
  return info->build(g, params, options);
}

}  // namespace ftspan
