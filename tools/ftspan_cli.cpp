// ftspan_cli — build, verify, and inspect fault-tolerant spanners from the
// command line.
//
//   ftspan_cli build  --in g.graph --out h.graph [--k 2] [--f 1]
//                     [--model vertex|edge] [--algo NAME]   (NAME is any
//                     algorithm registered in spanner/registry.h — the help
//                     text and error messages enumerate the table, so the
//                     list here never goes stale; see docs/ALGORITHMS.md)
//                     [--alpha 0 --beta 0]   (alpha_beta only: the budgeted
//                     test alpha*w+beta; 0/0 derives alpha=2k-1, beta=0)
//                     [--seed 1]   (randomized constructions)
//                     [--trace out.trace.json] [--metrics out.metrics.json]
//                     (record engine spans to Chrome trace JSON — load it at
//                     https://ui.perfetto.dev — and/or dump the merged
//                     counter snapshot; results are bit-identical either way)
//   ftspan_cli verify --in g.graph --spanner h.graph [--k 2] [--f 1]
//                     [--model vertex|edge] [--trials 200] [--exhaustive]
//                     [--threads 1]   (sampled only; fans trials over the
//                     shared pool, report identical at any count)
//                     [--scenario srlg|ball|adaptive|cascade]
//                     [--groups 0] [--radius 0.2] [--restarts 3]
//                     [--coords pts.txt]   (structured fault scenarios —
//                     fault/scenario.h; ball needs coords, srlg uses them
//                     for locality grouping when given; without --coords,
//                     ball falls back to seeded synthetic coords)
//                     [--trace out.trace.json] [--metrics out.metrics.json]
//   ftspan_cli info   --in g.graph
//   ftspan_cli gen    --out g.graph
//                     --family gnp|geometric|grid|hypercube|rmat|kronecker
//                     [--n 256] [--p 0.1] [--seed 1] [--weighted]
//                     [--scale 10] [--edgefactor 16]   (rmat/kronecker:
//                     n = 2^scale, ~edgefactor edges per vertex, --n ignored)
//                     [--coords pts.txt]   (geometric/grid only: write the
//                     vertex coordinates in the ftspan-points format, for
//                     verify --scenario)
//
// A flag the subcommand does not take (a typo, or a removed engine knob)
// fails with exit code 2 and names the flag instead of being ignored.
//
// Graphs use the ftspan edge-list format (see src/graph/io.h).

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <string_view>

#include "analysis/girth.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "obs/obs.h"
#include "service/ftspand.h"
#include "spanner/registry.h"
#include "util/cli.h"

namespace {

using namespace ftspan;

/// --trace / --metrics wiring shared by build and verify.  start() before
/// the work, finish() after the command's own output; tracing never changes
/// the command's results, only records what it did.
struct ObsCliFlags {
  std::string trace_path;
  std::string metrics_path;

  static ObsCliFlags from(const Cli& cli) {
    return ObsCliFlags{cli.get("trace", ""), cli.get("metrics", "")};
  }

  void start() const {
    if (!trace_path.empty())
      obs::trace_start();
    else if (!metrics_path.empty())
      obs::metrics_start();
  }

  [[nodiscard]] bool finish() const {
    bool ok = true;
    if (!trace_path.empty()) {
      if (obs::write_chrome_trace(trace_path)) {
        std::cout << "trace written to " << trace_path
                  << " (load at https://ui.perfetto.dev)\n";
      } else {
        std::cerr << "error: cannot write " << trace_path << "\n";
        ok = false;
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        obs::write_metrics_json(out);
        std::cout << "metrics written to " << metrics_path << "\n";
      } else {
        std::cerr << "error: cannot write " << metrics_path << "\n";
        ok = false;
      }
    }
    return ok;
  }
};

int usage() {
  // The --algo list is generated from the dispatch table
  // (spanner/registry.h), so a newly registered construction shows up here
  // without anyone remembering to edit a string.
  std::cerr << "usage: ftspan_cli {build|verify|info|gen|serve|client} --help for flags\n"
               "  build  --in G --out H [--k 2] [--f 1] [--model vertex|edge]"
               " [--algo " +
                   spanner_algo_names() +
                   "]"
                   " [--alpha 0] [--beta 0] [--seed 1]"
                   " [--trace T.json] [--metrics M.json]\n"
               "  verify --in G --spanner H [--k 2] [--f 1]"
               " [--model vertex|edge] [--trials 200] [--exhaustive]"
               " [--threads 1] [--scenario srlg|ball|adaptive|cascade]"
               " [--groups 0] [--radius 0.2] [--restarts 3] [--coords P]"
               " [--trace T.json] [--metrics M.json]\n"
               "  info   --in G\n"
               "  gen    --out G --family gnp|geometric|grid|hypercube|rmat|kronecker"
               " [--n 256] [--p 0.1] [--seed 1] [--weighted]"
               " [--scale 10] [--edgefactor 16] [--coords P]\n"
               "  serve  --in G [--k 2] [--f 1] [--model vertex|edge]"
               " [--port 0] [--port-file P] [--uds PATH]"
               " [--rebuild-budget 4096] [--publish-every 8]"
               " [--verify-trials 64] [--seed 1]"
               " [--trace T.json] [--metrics M.json]\n"
               "  client {--port P | --port-file P | --uds PATH}"
               " [--cmd \"insert 0 1\"]   (no --cmd: one command per stdin"
               " line; replies on stdout)\n";
  return 2;
}

SpannerParams params_from(const Cli& cli) {
  SpannerParams params;
  params.k = static_cast<std::uint32_t>(cli.get_uint("k", 2));
  params.f = static_cast<std::uint32_t>(cli.get_uint("f", 1));
  const std::string model = cli.get("model", "vertex");
  if (model == "vertex") {
    params.model = FaultModel::vertex;
  } else if (model == "edge") {
    params.model = FaultModel::edge;
  } else {
    throw std::invalid_argument("--model must be vertex or edge");
  }
  params.validate();
  return params;
}

int cmd_build(const Cli& cli) {
  const Graph g = load_graph(cli.get("in", ""));
  const SpannerParams params = params_from(cli);
  const std::string algo = cli.get("algo", "modified");
  // Resolve before doing any work so an unknown name fails loudly with the
  // full registered list (build_spanner would throw the same error, but the
  // lookup also gives the metadata for the stats line below).
  const SpannerAlgoInfo* info = find_spanner_algo(algo);
  if (info == nullptr)
    throw std::invalid_argument("unknown --algo '" + algo +
                                "'; registered: " + spanner_algo_names());

  SpannerAlgoOptions options;
  options.seed = cli.get_uint("seed", 1);
  options.alpha = cli.get_double("alpha", 0.0);
  options.beta = cli.get_double("beta", 0.0);

  const ObsCliFlags obs_flags = ObsCliFlags::from(cli);
  obs_flags.start();
  auto build = build_spanner(algo, g, params, options);

  // One stats line for every construction, driven by whichever meters it
  // filled (zeros stay silent) — no per-algorithm printing to maintain.
  std::cout << algo << " (" << info->paper << "): " << build.stats.seconds
            << " s";
  if (build.stats.oracle_calls > 0)
    std::cout << ", " << build.stats.oracle_calls << " decisions";
  if (build.stats.exact_searches > 0)
    std::cout << ", " << build.stats.exact_searches
              << " exact fault-set searches ("
              << build.stats.exact_search_nodes << " nodes)";
  std::cout << "\n";
  const Graph h = std::move(build.spanner);

  save_graph(cli.get("out", ""), h);
  std::cout << "input   " << g.summary() << "\n"
            << "spanner " << h.summary() << " ("
            << (g.m() == 0 ? 100.0 : 100.0 * h.m() / g.m())
            << "% of edges) written\n";
  return obs_flags.finish() ? 0 : 1;
}

int cmd_verify(const Cli& cli) {
  const Graph g = load_graph(cli.get("in", ""));
  const Graph h = load_graph(cli.get("spanner", ""));
  const SpannerParams params = params_from(cli);
  const ObsCliFlags obs_flags = ObsCliFlags::from(cli);
  obs_flags.start();
  StretchReport report;
  if (cli.has("exhaustive")) {
    report = verify_exhaustive(g, h, params);
  } else {
    Rng rng(cli.get_uint("seed", 1));
    const std::uint64_t threads = cli.get_uint("threads", 1);
    if (threads > 4096)
      throw std::invalid_argument("--threads must be in [0, 4096] (0 = auto)");
    ExecPolicy exec;
    exec.threads = static_cast<std::uint32_t>(threads);
    const auto trials = static_cast<std::uint32_t>(cli.get_uint("trials", 200));
    const std::string scenario_name = cli.get("scenario", "");
    if (!scenario_name.empty()) {
      const auto kind = parse_scenario_kind(scenario_name);
      if (!kind)
        throw std::invalid_argument(
            "--scenario must be srlg, ball, adaptive, or cascade");
      ScenarioSpec spec;
      spec.kind = *kind;
      spec.srlg_groups = static_cast<std::uint32_t>(cli.get_uint("groups", 0));
      spec.ball_radius = cli.get_double("radius", 0.2);
      spec.restarts = static_cast<std::uint32_t>(cli.get_uint("restarts", 3));
      const std::string coords_path = cli.get("coords", "");
      if (!coords_path.empty()) {
        spec.coords = load_points(coords_path);
        if (spec.coords.size() != g.n())
          throw std::invalid_argument("--coords has " +
                                      std::to_string(spec.coords.size()) +
                                      " points for " + std::to_string(g.n()) +
                                      " vertices");
      } else if (spec.kind == ScenarioKind::geo_ball) {
        // No coordinates on disk: fall back to seeded synthetic positions so
        // the ball scenario still runs (as a random-correlation model).
        spec.coords.reserve(g.n());
        for (std::size_t i = 0; i < g.n(); ++i)
          spec.coords.push_back(Point{rng.next_double(), rng.next_double()});
        std::cout << "note: no --coords; using seeded synthetic positions\n";
      }
      std::cout << "scenario " << to_string(*kind) << ", " << trials
                << " trials\n";
      report = verify_scenario(g, h, params, spec, trials, rng, exec);
    } else {
      report = verify_sampled(g, h, params, trials, rng, exec);
    }
    if (report.trials_skipped > 0)
      std::cout << "skipped " << report.trials_skipped
                << " undersized/empty trials\n";
  }
  std::cout << "checked " << report.fault_sets_checked << " fault sets, "
            << report.pairs_checked << " pairs\n"
            << "max stretch " << report.max_stretch << " (bound "
            << params.stretch() << ")\n"
            << (report.ok ? "OK: spanner property holds\n"
                          : "VIOLATION: see worst pair below\n");
  if (!report.ok) {
    // The verifier stops the H search at t * d_G, so a violating pair's d_H
    // is known only to exceed that bound (H may still connect the pair).
    std::cout << "worst pair (" << report.worst.u << "," << report.worst.v
              << ") d_G=" << report.worst.d_g << " d_H > "
              << params.stretch() * report.worst.d_g << " under "
              << report.worst.faults.ids.size() << " faults\n";
  }
  const bool obs_ok = obs_flags.finish();
  return report.ok && obs_ok ? 0 : 1;
}

int cmd_info(const Cli& cli) {
  const Graph g = load_graph(cli.get("in", ""));
  std::size_t components = 0;
  (void)connected_components(g, &components);
  std::cout << g.summary() << "\n"
            << "max degree  " << g.max_degree() << "\n"
            << "components  " << components << "\n"
            << "total weight " << g.total_weight() << "\n";
  const auto gr = girth(g);
  std::cout << "girth       "
            << (gr == kInfiniteGirth ? std::string("inf (forest)")
                                     : std::to_string(gr))
            << "\n";
  return 0;
}

int cmd_gen(const Cli& cli) {
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 256));
  const auto seed = cli.get_uint("seed", 1);
  const std::string family = cli.get("family", "gnp");
  Rng rng(seed);
  Graph g;
  std::vector<Point> pts;
  if (family == "gnp") {
    g = gnp(n, cli.get_double("p", 0.1), rng);
  } else if (family == "geometric") {
    g = random_geometric(n, cli.get_double("p", 0.15), rng, &pts);
  } else if (family == "grid") {
    const auto side = static_cast<std::size_t>(std::sqrt(double(n)));
    g = grid_graph(side, side);
  } else if (family == "hypercube") {
    std::size_t dim = 0;
    while ((std::size_t{1} << (dim + 1)) <= n) ++dim;
    g = hypercube_graph(dim);
  } else if (family == "rmat" || family == "kronecker") {
    // Scale workloads are parameterized Graph500-style: n = 2^scale,
    // ~edgefactor edges per vertex (--n is ignored).
    const auto scale = static_cast<std::size_t>(cli.get_uint("scale", 10));
    const auto ef = static_cast<std::size_t>(cli.get_uint("edgefactor", 16));
    g = family == "rmat" ? rmat(scale, ef, rng) : kronecker(scale, ef, rng);
  } else {
    throw std::invalid_argument(
        "--family must be gnp|geometric|grid|hypercube|rmat|kronecker");
  }
  if (family == "grid") {
    const auto side = static_cast<std::size_t>(std::sqrt(double(n)));
    pts = grid_coords(side, side);
  }
  if (cli.has("weighted")) {
    g = pts.empty() ? with_uniform_weights(g, 1.0, 10.0, rng)
                    : with_euclidean_weights(g, pts);
  }
  save_graph(cli.get("out", ""), g);
  std::cout << "wrote " << g.summary() << "\n";
  const std::string coords_path = cli.get("coords", "");
  if (!coords_path.empty()) {
    if (pts.empty())
      throw std::invalid_argument(
          "--coords requires a coordinate family (geometric or grid)");
    save_points(coords_path, pts);
    std::cout << "wrote " << pts.size() << " points to " << coords_path
              << "\n";
  }
  return 0;
}

int cmd_serve(const Cli& cli) {
  Graph g = load_graph(cli.get("in", ""));
  service::ChurnConfig config;
  config.params = params_from(cli);
  config.rebuild_budget =
      static_cast<std::uint32_t>(cli.get_uint("rebuild-budget", 4096));
  config.publish_every =
      static_cast<std::uint32_t>(cli.get_uint("publish-every", 8));
  service::ServeOptions options;
  options.uds_path = cli.get("uds", "");
  options.port = static_cast<std::uint16_t>(cli.get_uint("port", 0));
  options.port_file = cli.get("port-file", "");
  options.verify_trials =
      static_cast<std::uint32_t>(cli.get_uint("verify-trials", 64));
  options.verify_seed = cli.get_uint("seed", 1);
  const ObsCliFlags obs_flags = ObsCliFlags::from(cli);
  obs_flags.start();
  service::Ftspand daemon(std::move(g), config, options);
  const auto snap = daemon.engine().snapshot();
  std::cout << "ftspand: n=" << snap->graph.n() << " live_m=" << snap->live_m
            << " spanner_m=" << snap->spanner_m << " k=" << config.params.k
            << " f=" << config.params.f << " model="
            << to_string(config.params.model) << " listening on ";
  if (!options.uds_path.empty()) {
    std::cout << options.uds_path << "\n";
  } else {
    std::cout << "127.0.0.1:" << daemon.port() << "\n";
  }
  std::cout.flush();
  daemon.run();
  std::cout << "ftspand: shut down after "
            << daemon.engine().stats().inserts +
                   daemon.engine().stats().removals
            << " updates\n";
  return obs_flags.finish() ? 0 : 1;
}

int cmd_client(const Cli& cli) {
  int fd;
  const std::string uds = cli.get("uds", "");
  if (!uds.empty()) {
    fd = service::connect_uds(uds);
  } else {
    auto port = cli.get_uint("port", 0);
    const std::string port_file = cli.get("port-file", "");
    if (port == 0 && !port_file.empty()) {
      std::ifstream in(port_file);
      if (!in || !(in >> port))
        throw std::invalid_argument("cannot read port from " + port_file);
    }
    if (port == 0 || port > 65535)
      throw std::invalid_argument("--port (or --port-file) required");
    fd = service::connect_tcp(static_cast<std::uint16_t>(port));
  }
  int failures = 0;
  std::string reply;
  const auto roundtrip = [&](const std::string& command) {
    service::write_frame(fd, command);
    if (!service::read_frame(fd, reply))
      throw std::runtime_error("daemon closed the connection");
    std::cout << reply << "\n";
    if (reply.rfind("err", 0) == 0 || reply.rfind("VIOLATION", 0) == 0)
      ++failures;
  };
  const std::string one = cli.get("cmd", "");
  if (!one.empty()) {
    roundtrip(one);
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty() || line[0] == '#') continue;
      roundtrip(line);
      if (line == "shutdown") break;
    }
  }
  ::close(fd);
  return failures == 0 ? 0 : 1;
}

/// One subcommand: its handler and the flags it takes.
struct Command {
  std::string_view name;
  int (*run)(const Cli&);
  std::span<const std::string_view> flags;
};

constexpr std::string_view kBuildFlags[] = {
    "in", "out", "k", "f", "model", "algo", "alpha", "beta", "seed",
    "trace", "metrics"};
constexpr std::string_view kVerifyFlags[] = {
    "in", "spanner", "k", "f", "model", "trials", "exhaustive", "seed",
    "threads", "scenario", "groups", "radius", "restarts", "coords",
    "trace", "metrics"};
constexpr std::string_view kInfoFlags[] = {"in"};
constexpr std::string_view kGenFlags[] = {
    "out", "family", "n", "p", "seed", "weighted", "scale", "edgefactor",
    "coords"};
constexpr std::string_view kServeFlags[] = {
    "in", "k", "f", "model", "port", "port-file", "uds", "rebuild-budget",
    "publish-every", "verify-trials", "seed", "trace", "metrics"};
constexpr std::string_view kClientFlags[] = {"port", "port-file", "uds",
                                             "cmd"};

constexpr Command kCommands[] = {
    {"build", &cmd_build, kBuildFlags},    {"verify", &cmd_verify, kVerifyFlags},
    {"info", &cmd_info, kInfoFlags},       {"gen", &cmd_gen, kGenFlags},
    {"serve", &cmd_serve, kServeFlags},    {"client", &cmd_client, kClientFlags},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const Command* command = nullptr;
  for (const auto& c : kCommands)
    if (c.name == name) command = &c;
  if (command == nullptr) return usage();
  try {
    const Cli cli(argc - 1, argv + 1);
    if (cli.has("help")) return usage();
    if (const auto flag = cli.unknown_flag(command->flags)) {
      std::cerr << "error: " << name << " does not take --" << *flag
                << " (see ftspan_cli " << name << " --help)\n";
      return 2;
    }
    return command->run(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
