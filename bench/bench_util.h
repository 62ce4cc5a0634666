// Shared helpers for the experiment harness binaries.
//
// Timing and memory accounting are deliberately centralized here: every
// bench times with the ONE steady-clock Timer (util/timer.h) and reads peak
// memory through the ONE getrusage reader below, so per-bench drift in what
// "seconds" or "rss" means cannot creep in.

#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace ftspan::bench {

/// Process peak RSS in MiB (Linux ru_maxrss is KiB).  Monotone over the
/// process lifetime: with configs run in ascending size order each row
/// reports the high-water mark of everything up to and including itself,
/// which is exactly the number a CI memory ceiling must bound.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Shared wiring for the observability flags every bench accepts:
///   --trace out.trace.json     record spans, export Chrome trace JSON
///   --metrics out.metrics.json merged counter/gauge snapshot (flat JSON)
///   --trace-ring N             per-thread span ring capacity in events
/// start() before the measured runs, finish() after the bench JSON is
/// written.  Tracing never perturbs results (bit-identity is CI-pinned), but
/// it does cost wall-clock — traced runs are for looking, not for floors.
///
/// The bench default ring (2^19 events/thread, ~32 MiB) is deliberately much
/// larger than the library default: a full bench sweep emits hundreds of
/// thousands of spans per thread, and a wrapped ring keeps only the last
/// configs — dropping the events of the small configs that run first.
struct ObsFlags {
  std::string trace_path;
  std::string metrics_path;
  std::size_t ring_capacity = std::size_t{1} << 19;

  [[nodiscard]] bool enabled() const {
    return !trace_path.empty() || !metrics_path.empty();
  }

  void start() const {
    if (!trace_path.empty())
      obs::trace_start(obs::TraceOptions{ring_capacity});
    else if (!metrics_path.empty())
      obs::metrics_start();
  }

  [[nodiscard]] bool finish() const {
    bool ok = true;
    if (!trace_path.empty()) {
      if (obs::write_chrome_trace(trace_path)) {
        std::cout << "wrote " << trace_path << " (" << obs::dropped_events()
                  << " events dropped to ring wraparound)\n";
      } else {
        std::cerr << "error: cannot write " << trace_path << "\n";
        ok = false;
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        obs::write_metrics_json(out);
        std::cout << "wrote " << metrics_path << "\n";
      } else {
        std::cerr << "error: cannot write " << metrics_path << "\n";
        ok = false;
      }
    }
    return ok;
  }
};

inline ObsFlags obs_flags(const Cli& cli) {
  ObsFlags flags{cli.get("trace", ""), cli.get("metrics", "")};
  const std::int64_t ring = cli.get_int(
      "trace-ring", static_cast<std::int64_t>(flags.ring_capacity));
  if (ring < 64 || ring > (std::int64_t{1} << 26))
    throw std::invalid_argument("--trace-ring must be in [64, 2^26]");
  flags.ring_capacity = static_cast<std::size_t>(ring);
  return flags;
}

/// Every bench's main: parses argv into a Cli and returns body(cli).  A flag
/// outside `known` exits 2 naming it, so a misspelled flag in a CI step
/// cannot silently run the defaults (an empty `known` checks nothing).  An
/// exception out of the body, such as a malformed flag value, prints
/// "error: <what>" and exits 1, as ftspan_cli does.
inline int run_main(int argc, char** argv, int (*body)(const Cli&),
                    std::span<const std::string_view> known = {}) {
  try {
    const Cli cli(argc, argv);
    if (!known.empty()) {
      if (const auto flag = cli.unknown_flag(known)) {
        std::cerr << "error: " << cli.program() << " does not take --"
                  << *flag << "\n";
        return 2;
      }
    }
    return body(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

/// Prints the experiment banner: id, the paper claim being regenerated, and
/// the seed so every table is reproducible.
inline void banner(const std::string& id, const std::string& claim,
                   std::uint64_t seed) {
  std::cout << "== " << id << " ==\n"
            << "claim: " << claim << "\n"
            << "seed:  " << seed << "\n\n";
}

/// A connected-ish G(n, p) with average degree `avg_degree` (p = d/(n-1)).
inline Graph gnp_with_degree(std::size_t n, double avg_degree, Rng& rng) {
  const double p = std::min(1.0, avg_degree / static_cast<double>(n - 1));
  return gnp(n, p, rng);
}

/// A generated input graph with its construction time kept separate.
/// Runtime benches must report gen_seconds as its own column — at E16 scale
/// generating a Kronecker instance takes whole seconds, and folding that
/// into the build column would corrupt the spanner-runtime trend the CI
/// floor gates on.
struct TimedGraph {
  Graph graph;
  double gen_seconds = 0.0;
};

/// Runs `make_graph` (any callable returning a Graph) under a timer.
template <typename MakeGraph>
TimedGraph timed_gen(MakeGraph&& make_graph) {
  const Timer timer;
  TimedGraph out{std::forward<MakeGraph>(make_graph)(), 0.0};
  out.gen_seconds = timer.seconds();
  return out;
}

}  // namespace ftspan::bench
