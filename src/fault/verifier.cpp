#include "fault/verifier.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "exec/thread_pool.h"
#include "fault/attack.h"
#include "graph/fault_mask.h"
#include "graph/search.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ftspan {

namespace {

constexpr double kTolerance = 1e-9;

const obs::Counter c_verify_trials("verify.trials");

/// Shared machinery: evaluates one fault set against all surviving G-edges,
/// source by source (the check_fault_set contract in verifier.h), folding
/// results into `report`.  The report equals that of one budget-pruned
/// search pair per edge in edge-id order: settled distances do not depend on
/// the search that settles them, d_H beyond t * d_G is clamped exactly where
/// a per-pair budget pruned it, and max-stretch ties go to the smallest id.
class PairChecker {
 public:
  PairChecker(const Graph& g, const Graph& h, const SpannerParams& params)
      : g_(g),
        h_(h),
        t_(params.stretch()),
        model_(params.model),
        unweighted_(!g.weighted() && !h.weighted()),
        owned_begin_(g.n() + 1, 0),
        owned_(g.m()) {
    FTSPAN_REQUIRE(h.n() == g.n(), "spanner must share G's vertex set");
    // Counting sort of edge ids by owner: placing ids in descending order at
    // the end of their owner's row leaves each row ascending and
    // owned_begin_[u] at the row's start.
    for (const auto& e : g.edges()) ++owned_begin_[e.u];
    std::partial_sum(owned_begin_.begin(), owned_begin_.end(),
                     owned_begin_.begin());
    for (EdgeId id = static_cast<EdgeId>(g.m()); id-- > 0;)
      owned_[--owned_begin_[g.edge(id).u]] = id;
  }

  void check(const FaultSet& faults, StretchReport& report) {
    FTSPAN_REQUIRE(faults.model == model_, "fault model mismatch");
    obs::ScopedSpan span("verify", "trial", "faults", faults.ids.size());
    c_verify_trials.add();
    ++report.fault_sets_checked;

    // Build masks.  Edge faults carry g-edge ids; h's copy of the same edge
    // (if any) is looked up by endpoints.
    g_vertex_mask_.reset_touched();
    g_edge_mask_.reset_touched();
    h_edge_mask_.reset_touched();
    g_vertex_mask_.ensure_universe(g_.n());
    g_edge_mask_.ensure_universe(g_.m());
    h_edge_mask_.ensure_universe(h_.m());
    if (model_ == FaultModel::vertex) {
      for (const auto id : faults.ids) {
        FTSPAN_REQUIRE(id < g_.n(), "vertex fault out of range");
        g_vertex_mask_.set(id);
      }
    } else {
      for (const auto id : faults.ids) {
        FTSPAN_REQUIRE(id < g_.m(), "edge fault out of range");
        g_edge_mask_.set(id);
        const auto& e = g_.edge(id);
        if (const auto in_h = h_.find_edge(e.u, e.v)) h_edge_mask_.set(*in_h);
      }
    }
    const FaultView g_view{g_vertex_mask_.bytes(), g_edge_mask_.bytes()};
    const FaultView h_view{g_vertex_mask_.bytes(), h_edge_mask_.bytes()};

    // This call's worst pair: max stretch, smallest edge id on ties.  Every
    // stretch is >= 0, so the first pair checked always replaces the -1.
    EdgeId worst_id = kInvalidEdge;
    double worst_stretch = -1.0;
    Weight worst_d_g = 0.0;
    Weight worst_d_h = 0.0;
    for (VertexId u = 0; u < g_.n(); ++u) {
      if (model_ == FaultModel::vertex && g_vertex_mask_.test(u)) continue;
      ids_.clear();
      targets_.clear();
      for (EdgeId i = owned_begin_[u]; i < owned_begin_[u + 1]; ++i) {
        const EdgeId id = owned_[i];
        const auto& e = g_.edge(id);
        if (model_ == FaultModel::edge ? g_edge_mask_.test(id)
                                       : g_vertex_mask_.test(e.v))
          continue;
        ids_.push_back(id);
        targets_.push_back(e.v);
      }
      if (ids_.empty()) continue;
      report.pairs_checked += ids_.size();
      search_from(u, g_view, h_view);

      for (std::size_t i = 0; i < ids_.size(); ++i) {
        const Weight d_g = d_g_[i];
        FTSPAN_ASSERT(d_g <= g_.edge(ids_[i]).w + kTolerance,
                      "edge survives, so d_G <= w");
        const Weight budget = static_cast<Weight>(t_) * d_g;
        const Weight d_h = d_h_[i] > budget ? kUnreachableWeight : d_h_[i];
        if (d_h == kUnreachableWeight) report.ok = false;
        const double stretch =
            d_h == kUnreachableWeight
                ? std::numeric_limits<double>::infinity()
                : (d_g == 0.0 ? 1.0 : static_cast<double>(d_h / d_g));
        if (stretch > worst_stretch ||
            (stretch == worst_stretch && ids_[i] < worst_id)) {
          worst_id = ids_[i];
          worst_stretch = stretch;
          worst_d_g = d_g;
          worst_d_h = d_h;
        }
      }
    }
    if (worst_stretch > report.max_stretch) {
      const auto& e = g_.edge(worst_id);
      report.max_stretch = worst_stretch;
      report.worst = StretchWitness{faults, e.u, e.v, worst_d_g, worst_d_h};
    }
  }

 private:
  /// Fills d_g_ and d_h_ (aligned with targets_) for source u: d_{G\F} and
  /// d_{H\F} (kUnreachableWeight past the search budget).
  void search_from(VertexId u, const FaultView& g_view,
                   const FaultView& h_view) {
    if (unweighted_) {
      d_g_.assign(targets_.size(), 1.0);
      d_h_.resize(targets_.size());
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        const std::uint32_t hops =
            bfs_.two_ended_path_arcs(h_, u, targets_[i], path_, h_view, t_);
        d_h_[i] = hops == kUnreachableHops ? kUnreachableWeight
                                           : static_cast<Weight>(hops);
      }
      return;
    }
    Weight max_w = 0.0;
    for (const EdgeId id : ids_) max_w = std::max(max_w, g_.edge(id).w);
    dijkstra_.distances(g_, u, targets_, d_g_, g_view, max_w);
    const Weight max_d_g = *std::max_element(d_g_.begin(), d_g_.end());
    dijkstra_.distances(h_, u, targets_, d_h_, h_view,
                        static_cast<Weight>(t_) * max_d_g);
  }

  const Graph& g_;
  const Graph& h_;
  std::uint32_t t_;
  FaultModel model_;
  bool unweighted_;
  /// G's edge ids grouped by owner e.u: owned_[owned_begin_[u] ..
  /// owned_begin_[u + 1]) ascending.
  std::vector<EdgeId> owned_begin_;
  std::vector<EdgeId> owned_;
  BfsRunner bfs_;
  DijkstraRunner dijkstra_;
  ScratchMask g_vertex_mask_;
  ScratchMask g_edge_mask_;
  ScratchMask h_edge_mask_;
  // Per-source scratch, aligned: surviving owned edges, their far
  // endpoints, and the two distances.
  std::vector<EdgeId> ids_;
  std::vector<VertexId> targets_;
  std::vector<Weight> d_g_;
  std::vector<Weight> d_h_;
  std::vector<PathStep> path_;  ///< the unused path of a two-ended search
};

/// Enumerates all subsets of {0..universe-1} of size exactly `size` and
/// invokes fn(span) on each.
template <typename Fn>
void for_each_subset(std::uint32_t universe, std::uint32_t size, Fn&& fn) {
  if (size > universe) return;
  std::vector<std::uint32_t> pick(size);
  for (std::uint32_t i = 0; i < size; ++i) pick[i] = i;
  while (true) {
    fn(pick);
    // Advance to the next combination.
    std::uint32_t i = size;
    while (i > 0 && pick[i - 1] == universe - (size - (i - 1))) --i;
    if (i == 0) break;
    ++pick[i - 1];
    for (std::uint32_t j = i; j < size; ++j) pick[j] = pick[j - 1] + 1;
  }
}

}  // namespace

StretchReport check_fault_set(const Graph& g, const Graph& h,
                              const SpannerParams& params,
                              const FaultSet& faults) {
  params.validate();
  StretchReport report;
  PairChecker checker(g, h, params);
  checker.check(faults, report);
  return report;
}

StretchReport verify_exhaustive(const Graph& g, const Graph& h,
                                const SpannerParams& params) {
  params.validate();
  StretchReport report;
  PairChecker checker(g, h, params);
  const auto universe = static_cast<std::uint32_t>(
      params.model == FaultModel::vertex ? g.n() : g.m());
  for (std::uint32_t size = 0; size <= params.f && size <= universe; ++size) {
    for_each_subset(universe, size, [&](const std::vector<std::uint32_t>& pick) {
      FaultSet faults;
      faults.model = params.model;
      faults.ids = pick;
      checker.check(faults, report);
    });
  }
  return report;
}

StretchReport verify_fault_sets(const Graph& g, const Graph& h,
                                const SpannerParams& params,
                                std::span<const FaultSet> sets,
                                const ExecPolicy& exec,
                                std::vector<StretchReport>* per_set) {
  params.validate();
  const std::uint32_t threads = exec::resolve_threads(exec.threads);
  std::vector<StretchReport> local;
  std::vector<StretchReport>& partial = per_set != nullptr ? *per_set : local;
  partial.assign(sets.size(), StretchReport{});

  if (threads <= 1 || sets.size() <= 1) {
    PairChecker checker(g, h, params);
    for (std::size_t i = 0; i < sets.size(); ++i)
      checker.check(sets[i], partial[i]);
  } else {
    std::vector<std::unique_ptr<PairChecker>> checkers(threads);
    for (auto& checker : checkers)
      checker = std::make_unique<PairChecker>(g, h, params);
    exec::ThreadPool& pool = exec::shared_pool();
    pool.ensure_workers(threads);
    pool.run(
        sets.size(),
        [&](unsigned worker, std::size_t i) {
          checkers[worker]->check(sets[i], partial[i]);
        },
        threads);
  }

  // Fold in set order: the max-stretch tie-breaking — first set, first pair
  // — is identical at every thread count.
  StretchReport report;
  for (const auto& p : partial) {
    report.fault_sets_checked += p.fault_sets_checked;
    report.pairs_checked += p.pairs_checked;
    report.ok = report.ok && p.ok;
    if (p.max_stretch > report.max_stretch) {
      report.max_stretch = p.max_stretch;
      report.worst = p.worst;
    }
  }
  return report;
}

StretchReport verify_sampled(const Graph& g, const Graph& h,
                             const SpannerParams& params, std::uint32_t trials,
                             Rng& rng, const ExecPolicy& exec) {
  params.validate();
  // Draw every fault set up front (sequential rng consumption is the
  // bit-identity contract).  Trial i requests size f - (i mod (f+1)), so
  // every size in [0, f] is exercised — Definition 1 quantifies over
  // |F| <= f and stretch is not monotone in F.  Size-0 requests and draws
  // the universe could not fill (see attack.h's size contract) are skipped,
  // not silently counted as full-strength trials.
  std::vector<FaultSet> sets;
  sets.reserve(std::size_t{trials} + 1);
  // Always include the empty fault set: H must at least be a plain spanner.
  sets.push_back(FaultSet{params.model, {}});
  std::uint64_t skipped = 0;
  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    const std::uint32_t want =
        params.f == 0 ? 0 : params.f - (trial % (params.f + 1));
    if (want == 0) {
      ++skipped;
      continue;
    }
    FaultSet faults =
        generate_mixed_attack(g, h, params.model, want, trial, rng);
    if (faults.ids.size() < want) {
      ++skipped;
      continue;
    }
    sets.push_back(std::move(faults));
  }

  StretchReport report = verify_fault_sets(g, h, params, sets, exec);
  report.trials_skipped = skipped;
  return report;
}

}  // namespace ftspan
