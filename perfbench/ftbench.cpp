// ftbench — the repository benchmark: one seeded workload per invocation,
// timed through the library's public entry points only (load_graph,
// build_spanner, generate_mixed_attack + verify_fault_sets, and Ftspand over
// a UNIX socket), with every output checked.  perfbench/README.md explains
// the workloads and metrics; perfbench/run.py builds this binary and is the
// command to run.
//
//   ftbench --workload geo-vft|kron-eft|flap-serve --seed N --seconds S
//           --trace 0|1 --tmp DIR [--spans FILE] [--smoke]
//           [--inject drop-edge|err-reply]
//
// --tmp names an existing private directory for the input file and the
// socket.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run (and writes its spans to --spans).  The
// last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}};
// the exit code is 0 iff every output checked out.
//
// Every library call runs at threads = 1 and the library's own tracing stays
// off: the spans here are the benchmark's, recorded around each public call.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ftspan.h"
#include "inputs.h"
#include "service/churn_spanner.h"
#include "service/ftspand.h"

namespace {

using namespace ftspan;
using perfbench::EdgeList;
using perfbench::Prng;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

// ------------------------------------------------------------------ spans

/// One timed call: its layer, name, interval (seconds since process start)
/// and the index of the span that was open when it began (-1 = top level).
struct Span {
  std::string layer;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder, written out once at exit.  Off in gated runs.
class Tracer {
 public:
  void enable() {
    on_ = true;
    window_start_ = now_s();
  }
  [[nodiscard]] double window_start() const { return window_start_; }

  int begin(const char* layer, std::string name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({layer, std::move(name), now_s(), 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    open_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  double window_start_ = 0.0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Tracer g_tracer;

/// RAII span around one call.
class Scope {
 public:
  Scope(const char* layer, std::string name)
      : id_(g_tracer.begin(layer, std::move(name))) {}
  ~Scope() { g_tracer.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

/// Runs fn inside a span and returns its wall time in seconds.
template <typename Fn>
double timed(const char* layer, std::string name, Fn&& fn) {
  const Scope scope(layer, std::move(name));
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the metrics of its mode, the operation
/// tally, and every correctness failure seen.
struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void put(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A wrong output: counted as a failed operation and printed to stderr.
  void fail(const std::string& what) {
    ++failed;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  [[nodiscard]] double ok_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - std::min(failed, attempted)) /
                                static_cast<double>(attempted);
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process in MiB (VmHWM: the high-water mark of
/// the current address space, so a launcher that exec'd us is not counted).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ----------------------------------------------------------------- options

enum class Inject { none, drop_edge, err_reply };

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  Inject inject = Inject::none;
  std::string tmp;
  std::string spans;
};

std::uint64_t parse_uint(const std::string& flag, const std::string& s) {
  std::uint64_t v = 0;
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size())
    throw std::invalid_argument(flag + " wants a whole number, got '" + s + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace wants 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--tmp") {
      a.tmp = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--inject") {
      if (value == "drop-edge") {
        a.inject = Inject::drop_edge;
      } else if (value == "err-reply") {
        a.inject = Inject::err_reply;
      } else {
        throw std::invalid_argument("--inject wants drop-edge or err-reply");
      }
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace || a.tmp.empty())
    throw std::invalid_argument("--workload, --seed, --seconds, --trace and --tmp are required");
  if (a.seconds < 1) throw std::invalid_argument("--seconds must be at least 1");
  return a;
}

// Every run does a fixed amount of work, so its peak RSS and the number of
// samples behind each metric never depend on how fast the host was: the
// per-phase sample counts below measure about kRefSeconds on a 4-vCPU Xeon
// and scale with --seconds.  Set-up always gets at least kMinSetups samples,
// after one uncounted set-up that warms the allocator (the first load of a
// process pays the page faults of a fresh heap, which the later samples do
// not).  setup_s is the mean of its samples, not the median: a set-up is
// short enough that its samples fall into two clusters, one per host speed
// state (kron-eft loads take about 9 ms or about 17 ms), and the median
// jumps between the clusters with the share of each, where the mean moves
// in proportion to it.
constexpr double kRefSeconds = 35.0;
constexpr std::size_t kMinSetups = 5;

std::size_t reps(std::size_t at_ref, double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                      static_cast<double>(at_ref) * seconds / kRefSeconds)));
}

/// Runs each phase its count of times, interleaved so that every phase's
/// samples spread evenly over the run: the host's speed switches between
/// states lasting seconds to minutes, and samples bunched at one end of a
/// run would give the median of whichever state held there.  The next step
/// is the phase least far along; ties go to the phase listed first.
void interleave(std::vector<std::pair<std::size_t, std::function<void()>>> phases) {
  std::vector<std::size_t> done(phases.size(), 0);
  for (;;) {
    std::size_t next = phases.size();
    double least = 2.0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (done[i] == phases[i].first) continue;
      const double along = (static_cast<double>(done[i]) + 0.5) / static_cast<double>(phases[i].first);
      if (along < least) {
        least = along;
        next = i;
      }
    }
    if (next == phases.size()) return;
    phases[next].second();
    ++done[next];
  }
}

// ------------------------------------------------------- build workloads

struct BuildSpec {
  bool geometric = true;
  std::size_t n = 0;        // unit-disk vertices
  double radius = 0.0;      // unit-disk radius
  unsigned scale = 0;       // Kronecker scale
  unsigned edgefactor = 0;  // Kronecker edgefactor
  SpannerParams params;
  std::size_t setups = 0;   // samples per phase at kRefSeconds
  std::size_t builds = 0;
  std::size_t verifies = 0;
};

/// kron-eft builds one fixed Kronecker instance; --seed draws its fault
/// sets.  A seeded instance would make build_s mostly input noise: over
/// five relabelings of one scale-10 graph the masked-tree repair work
/// ranged 140M-267M arcs and build_s 1.1-3.0 s.
constexpr std::uint64_t kKroneckerSeed = 1;

BuildSpec build_spec(const std::string& workload, bool smoke) {
  BuildSpec s;
  if (workload == "geo-vft") {
    s.geometric = true;
    s.n = smoke ? 2048 : 32768;
    s.radius = smoke ? 0.035 : 0.015;
    s.params = {2, 2, FaultModel::vertex};
    s.setups = 9;    // 0.45 s each
    s.builds = 7;    // 2.8 s
    s.verifies = 1;  // 10.4 s
  } else {
    s.geometric = false;
    s.scale = smoke ? 7 : 10;
    s.edgefactor = smoke ? 16 : 32;
    s.params = {2, 3, FaultModel::edge};
    s.setups = 121;  // 0.02 s
    s.builds = 8;    // 1.45 s
    s.verifies = 3;  // 6.7 s
  }
  return s;
}

EdgeList generate_build_input(const BuildSpec& spec, std::uint64_t seed) {
  if (spec.geometric) {
    Prng rng(seed, 1);
    return perfbench::unit_disk(spec.n, spec.radius, rng);
  }
  Prng rng(kKroneckerSeed, 1);
  return perfbench::kronecker(spec.scale, spec.edgefactor, rng);
}

/// Checks that `build` is a subgraph of g on g's vertex set whose size
/// matches its picked list.
void check_spanner(const Graph& g, const SpannerBuild& build, Result& res) {
  if (build.spanner.n() != g.n()) res.fail("spanner vertex count differs from G");
  if (build.spanner.m() != build.picked.size())
    res.fail("spanner edge count differs from its picked list");
  for (const auto& e : build.spanner.edges()) {
    if (!g.has_edge(e.u, e.v)) {
      res.fail("spanner edge {" + std::to_string(e.u) + "," + std::to_string(e.v) +
               "} is not in G");
      return;
    }
  }
}

/// Test hook: removes one spanner edge {u,v} that has no other u-v path of
/// at most t hops in H, so the empty fault set already violates stretch t.
Graph drop_needed_edge(const Graph& h, std::uint32_t t) {
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> adj(h.n());
  for (EdgeId id = 0; id < h.m(); ++id) {
    adj[h.edge(id).u].push_back({h.edge(id).v, id});
    adj[h.edge(id).v].push_back({h.edge(id).u, id});
  }
  std::vector<std::uint32_t> depth(h.n(), kUnreachableHops);
  std::vector<VertexId> frontier;
  for (EdgeId cut = 0; cut < h.m(); ++cut) {
    const VertexId u = h.edge(cut).u, v = h.edge(cut).v;
    for (const auto x : frontier) depth[x] = kUnreachableHops;
    frontier.assign(1, u);
    depth[u] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const VertexId x = frontier[head];
      if (depth[x] == t) continue;
      for (const auto& [y, id] : adj[x]) {
        if (id == cut || depth[y] != kUnreachableHops) continue;
        depth[y] = depth[x] + 1;
        frontier.push_back(y);
      }
    }
    if (depth[v] != kUnreachableHops) continue;
    std::vector<Edge> kept;
    for (EdgeId id = 0; id < h.m(); ++id)
      if (id != cut) kept.push_back(h.edge(id));
    std::cerr << "inject: dropped spanner edge {" << u << "," << v << "}\n";
    return Graph::from_edges(h.n(), kept);
  }
  throw std::runtime_error("inject: no spanner edge is needed at |F| = 0");
}

/// One build_spanner("modified") call at threads = 1, checked.
struct Built {
  double seconds = 0.0;
  SpannerBuild build;
  std::uint64_t picked_hash = 0;
};

Built build_once(const Graph& g, const SpannerParams& params, Result& res) {
  Built b;
  SpannerAlgoOptions options;
  options.engine.exec.threads = 1;
  b.seconds = timed("core", "build_spanner",
                    [&] { b.build = build_spanner("modified", g, params, options); });
  check_spanner(g, b.build, res);
  b.picked_hash = 0xcbf29ce484222325ULL;
  for (const auto id : b.build.picked) b.picked_hash = (b.picked_hash ^ id) * 0x100000001b3ULL;
  return b;
}

/// One sampled verification: the fault sets verify_sampled checks with
/// trials = f (sizes 0, f, f-1, ..., 1), drawn with generate_mixed_attack
/// from an Rng seeded by --seed and checked with verify_fault_sets at
/// threads = 1, in one call as verify_sampled does; with `per_set` (both
/// passes of a traced run) one call each, to time the slowest set.  Every
/// set must keep stretch 2k-1.
struct Verified {
  double draw_s = 0.0;
  double check_s = 0.0;
  double max_set_s = 0.0;
  std::uint64_t sets = 0;
  std::uint64_t pairs = 0;
  std::uint64_t skipped = 0;
};

Verified verify_once(const Graph& g, const Graph& h, const SpannerParams& params,
                     std::uint64_t seed, bool per_set, Result& res) {
  Verified v;
  Rng rng(seed);
  std::vector<FaultSet> sets;
  v.draw_s = timed("fault", "generate_mixed_attack", [&] {
    sets.push_back(FaultSet{params.model, {}});
    for (std::uint32_t trial = 0; trial < params.f; ++trial) {
      const std::uint32_t want = params.f - trial % (params.f + 1);
      FaultSet faults = generate_mixed_attack(g, h, params.model, want, trial, rng);
      if (faults.ids.size() < want) {
        ++v.skipped;
        continue;
      }
      sets.push_back(std::move(faults));
    }
  });

  ExecPolicy exec;
  exec.threads = 1;
  std::vector<StretchReport> reports;
  if (!per_set) {
    v.check_s = timed("fault", "verify_fault_sets",
                      [&] { (void)verify_fault_sets(g, h, params, sets, exec, &reports); });
  } else {
    for (const auto& set : sets) {
      const double t = timed("fault", "verify_fault_sets |F|=" + std::to_string(set.size()), [&] {
        reports.push_back(verify_fault_sets(g, h, params, std::span(&set, 1), exec));
      });
      v.check_s += t;
      v.max_set_s = std::max(v.max_set_s, t);
    }
  }
  for (const auto& r : reports) {
    v.sets += r.fault_sets_checked;
    v.pairs += r.pairs_checked;
    ++res.attempted;
    if (!r.ok)
      res.fail("stretch " + json_number(r.max_stretch) + " > " +
               std::to_string(params.stretch()) + " at pair (" + std::to_string(r.worst.u) +
               "," + std::to_string(r.worst.v) + ") under " +
               std::to_string(r.worst.faults.size()) + " faults");
  }
  return v;
}

void put_core_counts(Result& res, const SpannerBuildStats& s, std::size_t picked,
                     double build_s) {
  const double sweeps_per_served = ratio(static_cast<double>(s.repair_cost_arcs),
                                         static_cast<double>(s.masked_reuse_hits));
  const double arcs_per_dedicated = ratio(static_cast<double>(s.dedicated_masked_arcs),
                                          static_cast<double>(s.dedicated_masked_sweeps));
  res.put("core.oracle_calls", static_cast<double>(s.oracle_calls), "count");
  res.put("core.search_sweeps", static_cast<double>(s.search_sweeps), "count");
  res.put("core.tree_reuse_hits", static_cast<double>(s.tree_reuse_hits), "count");
  res.put("core.arcs_traversed", static_cast<double>(s.arcs_traversed), "count");
  res.put("core.ns_per_arc",
          ratio(build_s * 1e9, static_cast<double>(s.arcs_traversed + s.repair_cost_arcs)), "ns");
  res.put("core.masked_reuse_hits", static_cast<double>(s.masked_reuse_hits), "count");
  res.put("core.repair_cost_arcs", static_cast<double>(s.repair_cost_arcs), "count");
  res.put("core.dedicated_masked_sweeps", static_cast<double>(s.dedicated_masked_sweeps), "count");
  res.put("core.dedicated_masked_arcs", static_cast<double>(s.dedicated_masked_arcs), "count");
  res.put("core.masked_cost_ratio", ratio(sweeps_per_served, arcs_per_dedicated), "ratio");
  res.put("core.accept_ratio", ratio(static_cast<double>(picked), static_cast<double>(s.oracle_calls)), "ratio");
  res.put("core.arena_bytes", static_cast<double>(s.arena_bytes), "bytes");
}

// -------------------------------------------------------- serve workload

struct ServeSpec {
  std::size_t n = 8192;
  double radius = 0.03;
  SpannerParams params{2, 2, FaultModel::vertex};
  std::size_t updates = 10000;  // link flaps
  std::size_t queries = 3000;   // route requests
  std::size_t rounds = 4;       // alternating update / query blocks
  std::uint32_t rebuild_budget = 4096;  // ftspan_cli serve defaults
  std::uint32_t publish_every = 8;
  std::uint32_t verify_trials = 3;
  std::size_t closed_loop = 1000;  // traced run only: wait-for-reply routes
  std::size_t setup_only = 6;      // set-ups alone, at kRefSeconds (0.7 s each)
  std::size_t sessions = 3;        // whole sessions, at kRefSeconds (10 s each)
};

ServeSpec serve_spec(bool smoke) {
  ServeSpec s;
  if (smoke) {
    s.n = 1024;
    s.radius = 0.07;
    s.updates = 400;
    s.queries = 120;
    s.rebuild_budget = 160;  // exercise the staleness rebuild in seconds
    s.closed_loop = 50;
  }
  return s;
}

/// The daemon's maintenance contract; the replay uses the same one.
service::ChurnConfig churn_config(const ServeSpec& spec) {
  service::ChurnConfig config;
  config.params = spec.params;
  config.rebuild_budget = spec.rebuild_budget;
  config.publish_every = spec.publish_every;
  config.rebuild.exec.threads = 1;
  return config;
}

struct Request {
  bool insert = false;
  VertexId u = 0;
  VertexId v = 0;
  /// The request frame: "insert u v" / "remove u v", or "<verb> u v".
  [[nodiscard]] std::string text(const char* verb = nullptr) const {
    return std::string(verb != nullptr ? verb : insert ? "insert" : "remove") + " " +
           std::to_string(u) + " " + std::to_string(v);
  }
};

/// The request stream of one serving session, identical in every session of
/// a run: `rounds` blocks of link flaps, each followed by a block of routes.
struct ServeStream {
  std::vector<std::vector<Request>> updates;  // per round
  std::vector<std::vector<Request>> queries;  // per round (u, v of a route)
  std::size_t updates_total = 0;
  std::size_t routes_total = 0;
  std::size_t final_live_m = 0;
  std::uint64_t inserts = 0;
  std::uint64_t removals = 0;
};

/// A flap removes a random live link, or re-inserts a random removed one
/// (never while none is removed), so the removed set is a reflecting random
/// walk of size O(sqrt(updates)) and the mesh stays the geometric mesh.
ServeStream make_stream(const EdgeList& mesh, const ServeSpec& spec, std::uint64_t seed) {
  ServeStream s;
  Prng flaps(seed, 2), routes(seed, 3);
  auto live = mesh.edges;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> removed;
  const auto n = static_cast<std::uint64_t>(mesh.n);
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    const std::size_t count = spec.updates / spec.rounds + (r < spec.updates % spec.rounds);
    auto& block = s.updates.emplace_back();
    for (std::size_t i = 0; i < count; ++i) {
      const bool insert = !removed.empty() && flaps.below(2) == 1;
      auto& from = insert ? removed : live;
      auto& to = insert ? live : removed;
      const auto k = flaps.below(from.size());
      const auto e = from[k];
      from[k] = from.back();
      from.pop_back();
      to.push_back(e);
      block.push_back({insert, e.first, e.second});
      ++(insert ? s.inserts : s.removals);
    }
    const std::size_t qcount = spec.queries / spec.rounds + (r < spec.queries % spec.rounds);
    auto& qblock = s.queries.emplace_back();
    for (std::size_t i = 0; i < qcount; ++i) {
      const auto u = static_cast<VertexId>(routes.below(n));
      auto v = static_cast<VertexId>(routes.below(n - 1));
      if (v >= u) ++v;
      qblock.push_back({false, u, v});
    }
  }
  s.updates_total = spec.updates;
  s.routes_total = spec.queries;
  s.final_live_m = live.size();
  return s;
}

/// Sends `requests` over `fd` pipelined — a writer thread streams the frames
/// while this thread drains the replies — and returns the wall time from the
/// first write to the last reply.
double pipelined(int fd, const std::vector<std::string>& requests,
                 std::vector<std::string>& replies) {
  replies.assign(requests.size(), std::string());
  std::exception_ptr write_error;
  const double t0 = now_s();
  std::thread writer([&] {
    try {
      for (const auto& r : requests) service::write_frame(fd, r);
    } catch (...) {
      write_error = std::current_exception();
    }
  });
  try {
    for (auto& reply : replies) {
      if (!service::read_frame(fd, reply)) throw std::runtime_error("daemon closed the connection");
    }
  } catch (...) {
    ::shutdown(fd, SHUT_RDWR);  // unblocks the writer
    writer.join();
    throw;
  }
  const double t1 = now_s();
  writer.join();
  if (write_error) std::rethrow_exception(write_error);
  return t1 - t0;
}

std::string roundtrip(int fd, const std::string& request) {
  service::write_frame(fd, request);
  std::string reply;
  if (!service::read_frame(fd, reply)) throw std::runtime_error("daemon closed the connection");
  return reply;
}

/// Value of "key=" in a space-separated reply; empty when absent.
std::string reply_field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const auto at = reply.find(needle);
  if (at == std::string::npos) return {};
  const auto begin = at + needle.size();
  return reply.substr(begin, reply.find(' ', begin) - begin);
}

/// Checks a route reply: ok, and either unroutable or a path u>...>v of
/// hops + 1 vertices.
bool route_ok(const std::string& reply, const Request& q) {
  if (reply.rfind("ok ", 0) != 0) return false;
  if (reply.find(" unroutable") != std::string::npos) return true;
  const std::string path = reply_field(reply, "path");
  const std::string hops = reply_field(reply, "hops");
  if (path.empty() || hops.empty()) return false;
  std::vector<std::string> ids;
  std::stringstream ss(path);
  for (std::string id; std::getline(ss, id, '>');) ids.push_back(id);
  return ids.size() == std::stoul(hops) + 1 && ids.front() == std::to_string(q.u) &&
         ids.back() == std::to_string(q.v);
}

/// One daemon instance with its accept thread and one client connection.
/// The destructor stops and joins whatever is still running.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (fd_ >= 0) ::close(fd_);
    if (daemon_) daemon_->stop();
    if (server_.joinable()) server_.join();
  }

  struct Startup {
    double load_s = 0.0;  // load_graph
    double init_s = 0.0;  // Ftspand construction: initial greedy build, bind, listen
    double total_s = 0.0; // the two plus starting the accept thread and connecting
  };

  Startup start(const std::string& input, const std::string& socket, const ServeSpec& spec) {
    const double t0 = now_s();
    Graph g;
    const double load_s = timed("graph", "load_graph", [&] { g = load_graph(input); });
    service::ServeOptions options;
    options.uds_path = socket;
    options.verify_trials = spec.verify_trials;
    const double init_s = timed("service", "Ftspand", [&] {
      daemon_ = std::make_unique<service::Ftspand>(std::move(g), churn_config(spec), options);
    });
    timed("service", "connect", [&] {
      server_ = std::thread([this] { daemon_->run(); });
      fd_ = service::connect_uds(socket);
    });
    return {load_s, init_s, now_s() - t0};
  }

  [[nodiscard]] int fd() const { return fd_; }

  /// Sends `shutdown`, joins the daemon and closes the connection.
  void stop(Result& res) {
    ++res.attempted;
    std::string reply;
    timed("service", "shutdown", [&] {
      reply = roundtrip(fd_, "shutdown");
      server_.join();
      ::close(fd_);
      fd_ = -1;
    });
    if (reply != "ok bye") res.fail("shutdown replied '" + reply + "'");
  }

 private:
  std::unique_ptr<service::Ftspand> daemon_;
  std::thread server_;
  int fd_ = -1;
};

/// The measurements of one serving session.
struct Session {
  double setup_s = 0.0;
  double load_s = 0.0;
  double init_s = 0.0;
  double update_s = 0.0;
  double query_s = 0.0;
  double verify_s = 0.0;
  std::size_t spanner_m = 0;
  std::string stats;  // the final `stats` reply
  std::uint64_t fault_sets = 0;
  std::vector<double> rtt_us;  // closed-loop routes (traced runs)
};

Session run_session(const std::string& input, const std::string& socket, const ServeSpec& spec,
                    const ServeStream& stream, bool closed_loop, Inject inject, Result& res) {
  Session s;
  Daemon d;
  const Daemon::Startup up = d.start(input, socket, spec);
  s.load_s = up.load_s;
  s.init_s = up.init_s;
  s.setup_s = up.total_s;

  std::vector<std::string> replies;
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    std::vector<std::string> frames;
    for (const auto& u : stream.updates[r]) frames.push_back(u.text());
    if (inject == Inject::err_reply && r == 0) frames.push_back("insert 0 0");  // self-loop
    s.update_s += timed("service", "update block", [&] { pipelined(d.fd(), frames, replies); });
    res.attempted += frames.size();
    for (std::size_t i = 0; i < replies.size(); ++i)
      if (replies[i].rfind("ok ", 0) != 0) res.fail("'" + frames[i] + "' replied '" + replies[i] + "'");

    frames.clear();
    for (const auto& q : stream.queries[r]) frames.push_back(q.text("route"));
    s.query_s += timed("service", "query block", [&] { pipelined(d.fd(), frames, replies); });
    res.attempted += frames.size();
    for (std::size_t i = 0; i < replies.size(); ++i)
      if (!route_ok(replies[i], stream.queries[r][i]))
        res.fail("'" + frames[i] + "' replied '" + replies[i] + "'");
  }

  if (closed_loop) {
    timed("service", "closed-loop routes", [&] {
      for (std::size_t i = 0; i < spec.closed_loop; ++i) {
        const auto& block = stream.queries[i % spec.rounds];
        const auto& q = block[i / spec.rounds % block.size()];
        const double t0 = now_s();
        const std::string reply = roundtrip(d.fd(), q.text("route"));
        s.rtt_us.push_back((now_s() - t0) * 1e6);
        ++res.attempted;
        if (!route_ok(reply, q)) res.fail("closed-loop route replied '" + reply + "'");
      }
    });
  }

  ++res.attempted;
  timed("service", "stats", [&] { s.stats = roundtrip(d.fd(), "stats"); });
  const std::string live_m = reply_field(s.stats, "live_m");
  const std::string spanner_m = reply_field(s.stats, "spanner_m");
  if (s.stats.rfind("ok ", 0) != 0 || live_m != std::to_string(stream.final_live_m) ||
      reply_field(s.stats, "inserts") != std::to_string(stream.inserts) ||
      reply_field(s.stats, "removals") != std::to_string(stream.removals) || spanner_m.empty()) {
    res.fail("stats disagrees with the stream (live_m=" + std::to_string(stream.final_live_m) +
             "): '" + s.stats + "'");
  } else {
    s.spanner_m = std::stoul(spanner_m);
  }

  ++res.attempted;
  std::string verdict;
  s.verify_s = timed("service", "verify", [&] {
    verdict = roundtrip(d.fd(), "verify " + std::to_string(spec.verify_trials));
  });
  if (verdict.rfind("ok verified", 0) != 0) {
    res.fail("verify replied '" + verdict + "'");
  } else {
    s.fault_sets = std::stoull(reply_field(verdict, "fault_sets"));
  }
  d.stop(res);
  return s;
}

/// Traced run only: replays the session's stream on a private ChurnSpanner
/// in this thread, timing each update and each snapshot route, then one
/// publish (flush) and one oracle rebuild.  Its ChurnStats must equal the
/// daemon's `stats` reply.
void replay_stream(const std::string& input, const ServeSpec& spec, const ServeStream& stream,
                   const std::string& daemon_stats, double socket_s, Result& res) {
  std::unique_ptr<service::ChurnSpanner> engine;
  timed("service", "replay ChurnSpanner", [&] {
    Graph g;
    timed("graph", "load_graph", [&] { g = load_graph(input); });
    engine = std::make_unique<service::ChurnSpanner>(std::move(g), churn_config(spec));
  });

  std::vector<double> insert_us, remove_us, route_us;
  BfsRunner bfs(engine->n());
  std::vector<PathStep> steps;
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    timed("service", "replay updates", [&] {
      for (const auto& u : stream.updates[r]) {
        const double t0 = now_s();
        if (u.insert) {
          (void)engine->insert(u.u, u.v);
        } else {
          (void)engine->remove(u.u, u.v);
        }
        (u.insert ? insert_us : remove_us).push_back((now_s() - t0) * 1e6);
      }
    });
    timed("service", "replay routes", [&] {
      for (const auto& q : stream.queries[r]) {
        const double t0 = now_s();
        const auto snap = engine->snapshot();
        (void)bfs.shortest_path_arcs(snap->graph, q.u, q.v, steps, snap->spanner_view());
        route_us.push_back((now_s() - t0) * 1e6);
      }
    });
  }

  const auto& st = engine->stats();
  const std::pair<const char*, std::uint64_t> expect[] = {
      {"inserts", st.inserts},
      {"removals", st.removals},
      {"spanner_inserts", st.spanner_inserts},
      {"spanner_removals", st.spanner_removals},
      {"repair_decisions", st.repair_decisions},
      {"repair_promotions", st.repair_promotions},
      {"rebuilds", st.rebuilds},
      {"publishes", st.publishes}};
  ++res.attempted;
  for (const auto& [key, value] : expect) {
    if (reply_field(daemon_stats, key) != std::to_string(value)) {
      res.fail(std::string("in-process replay disagrees with the daemon on ") + key);
      break;
    }
  }

  res.put("service.inserts", static_cast<double>(st.inserts), "count");
  res.put("service.removals", static_cast<double>(st.removals), "count");
  res.put("service.spanner_removals", static_cast<double>(st.spanner_removals), "count");
  res.put("service.repair_decisions", static_cast<double>(st.repair_decisions), "count");
  res.put("service.repair_promotions", static_cast<double>(st.repair_promotions), "count");
  res.put("service.promote_ratio",
          ratio(static_cast<double>(st.repair_promotions), static_cast<double>(st.repair_decisions)),
          "ratio");
  res.put("service.repair_ball_vertices", static_cast<double>(st.repair_ball_vertices), "count");
  res.put("service.publishes", static_cast<double>(st.publishes), "count");
  res.put("service.rebuilds", static_cast<double>(st.rebuilds), "count");
  res.put("service.insert_us_p50", percentile(insert_us, 0.50), "us");
  res.put("service.insert_us_p99", percentile(insert_us, 0.99), "us");
  res.put("service.remove_us_p50", percentile(remove_us, 0.50), "us");
  res.put("service.remove_us_p99", percentile(remove_us, 0.99), "us");
  res.put("service.route_us_p50", percentile(route_us, 0.50), "us");
  res.put("service.route_us_p99", percentile(route_us, 0.99), "us");

  double replay_us = 0.0;
  for (const auto* v : {&insert_us, &remove_us, &route_us})
    for (const double x : *v) replay_us += x;
  const double requests = static_cast<double>(stream.updates_total + stream.routes_total);
  res.put("service.frame_us", ratio(socket_s * 1e6, requests) - ratio(replay_us, requests), "us");

  std::vector<double> publish_us;
  timed("service", "replay flush", [&] {
    for (int i = 0; i < 9; ++i) {
      const double t0 = now_s();
      (void)engine->flush();
      publish_us.push_back((now_s() - t0) * 1e6);
    }
  });
  res.put("service.publish_us", median(publish_us), "us");
  const auto snap = engine->snapshot();
  res.put("service.snapshot_mb",
          static_cast<double>(snap->graph.memory_bytes() + snap->dead.size() + snap->blocked.size()) /
              (1024.0 * 1024.0),
          "MiB");
  res.put("service.rebuild_s", timed("service", "replay rebuild", [&] { engine->rebuild(); }), "s");
}

// ------------------------------------------------------------ reporting

/// Every per-layer metric, in report order.  A traced run prints all of
/// them on every workload; a layer a workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"graph.load_s", "s"},
    {"graph.input_edges", "count"},
    {"graph.self_s", "s"},
    {"core.oracle_calls", "count"},
    {"core.search_sweeps", "count"},
    {"core.tree_reuse_hits", "count"},
    {"core.arcs_traversed", "count"},
    {"core.ns_per_arc", "ns"},
    {"core.masked_reuse_hits", "count"},
    {"core.repair_cost_arcs", "count"},
    {"core.dedicated_masked_sweeps", "count"},
    {"core.dedicated_masked_arcs", "count"},
    {"core.masked_cost_ratio", "ratio"},
    {"core.accept_ratio", "ratio"},
    {"core.arena_bytes", "bytes"},
    {"core.self_s", "s"},
    {"fault.draw_s", "s"},
    {"fault.check_s", "s"},
    {"fault.sets_checked", "count"},
    {"fault.pairs_checked", "count"},
    {"fault.us_per_pair", "us"},
    {"fault.max_set_s", "s"},
    {"fault.trials_skipped", "count"},
    {"fault.self_s", "s"},
    {"service.init_s", "s"},
    {"service.inserts", "count"},
    {"service.removals", "count"},
    {"service.spanner_removals", "count"},
    {"service.repair_decisions", "count"},
    {"service.repair_promotions", "count"},
    {"service.promote_ratio", "ratio"},
    {"service.repair_ball_vertices", "count"},
    {"service.publishes", "count"},
    {"service.rebuilds", "count"},
    {"service.insert_us_p50", "us"},
    {"service.insert_us_p99", "us"},
    {"service.remove_us_p50", "us"},
    {"service.remove_us_p99", "us"},
    {"service.publish_us", "us"},
    {"service.snapshot_mb", "MiB"},
    {"service.rebuild_s", "s"},
    {"service.route_us_p50", "us"},
    {"service.route_us_p99", "us"},
    {"service.frame_us", "us"},
    {"service.rtt_p50_us", "us"},
    {"service.rtt_p99_us", "us"},
    {"service.verify_s", "s"},
    {"service.self_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.wall_s", "s"},
    {"obs.uncovered_s", "s"},
    {"obs.spans", "count"},
};

/// Puts a traced run's metrics in kLayerMetrics order, adding the ones its
/// workload does not exercise as 0.
void canonicalize(Result& res) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = std::find_if(res.metrics.begin(), res.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it != res.metrics.end() && it->unit != unit)
      throw std::logic_error(std::string("unit mismatch for ") + name);
    ordered.push_back(it != res.metrics.end() ? *it : Metric{name, 0.0, unit});
  }
  for (const auto& m : res.metrics) {
    if (std::none_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                     [&](const auto& known) { return m.name == known.first; }))
      throw std::logic_error("traced metric " + m.name + " is missing from kLayerMetrics");
  }
  res.metrics = std::move(ordered);
}

/// Per-layer self time (span minus the part its children cover) over the
/// traced window, plus the window time no span covers.
void put_trace_accounting(Result& res, double window_s) {
  const auto& spans = g_tracer.spans();
  std::vector<double> child(spans.size(), 0.0);
  double covered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].end - spans[i].start;
    if (spans[i].parent >= 0) {
      child[static_cast<std::size_t>(spans[i].parent)] += d;
    } else {
      covered += d;
    }
  }
  for (const char* layer : {"graph", "core", "fault", "service"}) {
    double self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].layer == layer) self += spans[i].end - spans[i].start - child[i];
    res.put(std::string(layer) + ".self_s", self, "s");
  }
  res.put("obs.wall_s", window_s, "s");
  res.put("obs.uncovered_s", window_s - covered, "s");
  res.put("obs.spans", static_cast<double>(spans.size()), "count");
}

void write_spans(const std::string& path, const Args& a, const Result& res) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"workload\": " << json_string(a.workload) << ", \"seed\": " << a.seed
     << ", \"window_start\": " << json_number(g_tracer.window_start()) << ",\n \"layers\": {";
  bool first = true;
  for (const auto& m : res.metrics) {
    os << (first ? "" : ", ") << json_string(m.name) << ": " << json_number(m.value);
    first = false;
  }
  os << "},\n \"spans\": [\n";
  const auto& spans = g_tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    os << "  {\"id\": " << i << ", \"layer\": " << json_string(spans[i].layer)
       << ", \"name\": " << json_string(spans[i].name)
       << ", \"start\": " << json_number(spans[i].start)
       << ", \"end\": " << json_number(spans[i].end) << ", \"parent\": " << spans[i].parent
       << (i + 1 < spans.size() ? "},\n" : "}\n");
  }
  os << " ]}\n";
  if (!os) throw std::runtime_error("short write to " + path);
}

void print_table(const Result& res) {
  std::cout << "per-layer table:\n";
  for (const auto& m : res.metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line;
  }
}

void print_result(const Result& res) {
  std::cout << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": "
              << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

// ----------------------------------------------------------- workloads

void describe_input(const Args& a, const EdgeList& input, std::uint64_t hash) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  std::cout << "input: workload=" << a.workload << " seed=" << a.seed << " n=" << input.n
            << " m=" << input.edges.size() << " fnv1a=" << hex << "\n";
}

/// Prints one metric's samples, so a reader can see the spread behind it.
void print_samples(const char* name, const std::vector<double>& samples) {
  std::cout << "samples: " << name;
  for (const double x : samples) std::cout << " " << json_number(x);
  std::cout << "\n";
}

void run_build_workload(const Args& a, Result& res) {
  const BuildSpec spec = build_spec(a.workload, a.smoke);
  const EdgeList input = generate_build_input(spec, a.seed);
  const std::string path = a.tmp + "/input.graph";
  describe_input(a, input, perfbench::write_edge_list(path, input));

  Graph g;
  auto load = [&] {
    const double t = timed("graph", "load_graph", [&] { g = load_graph(path); });
    if (g.n() != input.n || g.m() != input.edges.size())
      res.fail("load_graph returned " + g.summary() + ", wrote n=" + std::to_string(input.n) +
               " m=" + std::to_string(input.edges.size()));
    return t;
  };
  auto spanner_under_test = [&](Graph h) {
    return a.inject == Inject::drop_edge ? drop_needed_edge(h, spec.params.stretch()) : h;
  };
  load();  // uncounted: warms the allocator

  if (a.trace) {
    // One untraced pass, then the same pass traced: their wall-time ratio
    // is the tracing overhead, and the traced pass gives the layer table.
    const double t0 = now_s();
    load();
    Built b = build_once(g, spec.params, res);
    (void)verify_once(g, spanner_under_test(std::move(b.build.spanner)), spec.params, a.seed,
                      true, res);
    const double untraced_s = now_s() - t0;
    g_tracer.enable();
    const double load_s = load();
    b = build_once(g, spec.params, res);
    const Verified v = verify_once(g, spanner_under_test(std::move(b.build.spanner)), spec.params,
                                   a.seed, true, res);
    const double traced_s = now_s() - g_tracer.window_start();

    res.put("graph.load_s", load_s, "s");
    res.put("graph.input_edges", static_cast<double>(g.m()), "count");
    put_core_counts(res, b.build.stats, b.build.picked.size(), b.seconds);
    res.put("fault.draw_s", v.draw_s, "s");
    res.put("fault.check_s", v.check_s, "s");
    res.put("fault.sets_checked", static_cast<double>(v.sets), "count");
    res.put("fault.pairs_checked", static_cast<double>(v.pairs), "count");
    res.put("fault.us_per_pair", ratio(v.check_s * 1e6, static_cast<double>(v.pairs)), "us");
    res.put("fault.max_set_s", v.max_set_s, "s");
    res.put("fault.trials_skipped", static_cast<double>(v.skipped), "count");
    res.put("obs.trace_overhead", ratio(traced_s, untraced_s), "ratio");
    put_trace_accounting(res, traced_s);
    return;
  }

  // The first build yields the spanner every verification checks (builds
  // outnumber verifications, so the interleaving runs a build first).
  std::vector<double> setup_s, build_s, verify_s, check_s;
  Built first;
  std::size_t spanner_m = 0;
  Graph h;
  Verified v;
  interleave({
      {std::max(kMinSetups, reps(spec.setups, a.seconds)), [&] { setup_s.push_back(load()); }},
      {reps(spec.builds, a.seconds),
       [&] {
         Built b = build_once(g, spec.params, res);
         build_s.push_back(b.seconds);
         if (build_s.size() == 1) {
           spanner_m = b.build.spanner.m();
           h = spanner_under_test(std::move(b.build.spanner));
           first = std::move(b);
         } else if (b.picked_hash != first.picked_hash) {
           res.fail("build is not deterministic: |H| " + std::to_string(first.build.picked.size()) +
                    " then " + std::to_string(b.build.picked.size()));
         }
       }},
      {reps(spec.verifies, a.seconds),
       [&] {
         if (build_s.empty()) throw std::logic_error("verification scheduled before a build");
         v = verify_once(g, h, spec.params, a.seed, false, res);
         verify_s.push_back(v.draw_s + v.check_s);
         check_s.push_back(v.check_s);
       }},
  });
  const SpannerBuildStats& stats = first.build.stats;

  print_samples("setup_s", setup_s);
  print_samples("build_s", build_s);
  print_samples("verify_s", verify_s);
  std::cout << "counts: oracle_calls=" << stats.oracle_calls
            << " search_sweeps=" << stats.search_sweeps
            << " tree_reuse_hits=" << stats.tree_reuse_hits
            << " masked_reuse_hits=" << stats.masked_reuse_hits
            << " arcs_traversed=" << stats.arcs_traversed
            << " repair_cost_arcs=" << stats.repair_cost_arcs
            << " dedicated_masked_arcs=" << stats.dedicated_masked_arcs
            << " spanner_m=" << spanner_m << " fault_sets=" << v.sets
            << " pairs_checked=" << v.pairs << " trials_skipped=" << v.skipped << "\n";

  const double build_med = median(build_s);
  res.put("setup_s", mean(setup_s), "s");
  res.put("build_s", build_med, "s");
  res.put("verify_s", median(verify_s), "s");
  res.put("update_us", ratio(build_med * 1e6, static_cast<double>(g.m())), "us");
  res.put("query_us", ratio(median(check_s) * 1e6, static_cast<double>(v.pairs)), "us");
  res.put("spanner_edges", static_cast<double>(spanner_m), "count");
  res.put("peak_rss_mb", peak_rss_mib(), "MiB");
  res.put("ok_frac", res.ok_frac(), "ratio");
}

void run_serve_workload(const Args& a, Result& res) {
  const ServeSpec spec = serve_spec(a.smoke);
  Prng rng(a.seed, 1);
  const EdgeList mesh = perfbench::unit_disk(spec.n, spec.radius, rng);
  const std::string path = a.tmp + "/input.graph";
  describe_input(a, mesh, perfbench::write_edge_list(path, mesh));
  const ServeStream stream = make_stream(mesh, spec, a.seed);
  const std::string socket = a.tmp + "/ftspand.sock";

  // Set-up alone: load, construct, connect, shut down.  The first one warms
  // the allocator and is not counted.
  std::vector<double> setup_s, init_s, update_us, query_us, verify_s;
  auto setup_only = [&](bool counted) {
    Daemon d;
    const Daemon::Startup up = d.start(path, socket, spec);
    if (counted) {
      setup_s.push_back(up.total_s);
      init_s.push_back(up.init_s);
    }
    d.stop(res);
  };
  setup_only(false);

  if (a.trace) {
    const double t0 = now_s();
    (void)run_session(path, socket, spec, stream, true, a.inject, res);
    const double untraced_s = now_s() - t0;
    g_tracer.enable();
    const Session s = run_session(path, socket, spec, stream, true, a.inject, res);
    const double traced_s = now_s() - g_tracer.window_start();

    res.put("graph.load_s", s.load_s, "s");
    res.put("graph.input_edges", static_cast<double>(mesh.edges.size()), "count");
    // Core runs inside Ftspand's constructor; the same build through the
    // dispatch gives its counters.
    Graph g;
    timed("graph", "load_graph", [&] { g = load_graph(path); });
    SpannerAlgoOptions options;
    options.engine.exec.threads = 1;
    SpannerBuild build;
    const double build_s = timed("core", "build_spanner", [&] {
      build = build_spanner("modified", g, spec.params, options);
    });
    put_core_counts(res, build.stats, build.picked.size(), build_s);
    res.put("fault.sets_checked", static_cast<double>(s.fault_sets), "count");
    res.put("service.init_s", s.init_s, "s");
    replay_stream(path, spec, stream, s.stats, s.update_s + s.query_s, res);
    res.put("service.rtt_p50_us", percentile(s.rtt_us, 0.50), "us");
    res.put("service.rtt_p99_us", percentile(s.rtt_us, 0.99), "us");
    res.put("service.verify_s", s.verify_s, "s");
    res.put("obs.trace_overhead", ratio(traced_s, untraced_s), "ratio");
    put_trace_accounting(res, now_s() - g_tracer.window_start());
    return;
  }

  // Set-ups alone interleaved with whole sessions, each on a fresh daemon
  // replaying the same stream.
  std::size_t spanner_m = 0;
  interleave({
      {std::max(kMinSetups, reps(spec.setup_only, a.seconds)), [&] { setup_only(true); }},
      {reps(spec.sessions, a.seconds),
       [&] {
         const Session s = run_session(path, socket, spec, stream, false, a.inject, res);
         if (verify_s.empty()) {
           spanner_m = s.spanner_m;
           std::cout << "counts: " << s.stats << "\n";
         } else if (s.spanner_m != spanner_m) {
           res.fail("sessions disagree on |H|: " + std::to_string(spanner_m) + " then " +
                    std::to_string(s.spanner_m));
         }
         setup_s.push_back(s.setup_s);
         init_s.push_back(s.init_s);
         update_us.push_back(s.update_s * 1e6 / static_cast<double>(stream.updates_total));
         query_us.push_back(s.query_s * 1e6 / static_cast<double>(stream.routes_total));
         verify_s.push_back(s.verify_s);
       }},
  });

  print_samples("setup_s", setup_s);
  print_samples("build_s", init_s);
  print_samples("update_us", update_us);
  print_samples("query_us", query_us);
  print_samples("verify_s", verify_s);
  res.put("setup_s", mean(setup_s), "s");
  res.put("build_s", median(init_s), "s");
  res.put("verify_s", median(verify_s), "s");
  res.put("update_us", median(update_us), "us");
  res.put("query_us", median(query_us), "us");
  res.put("spanner_edges", static_cast<double>(spanner_m), "count");
  res.put("peak_rss_mb", peak_rss_mib(), "MiB");
  res.put("ok_frac", res.ok_frac(), "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a vanished peer surfaces as EPIPE instead
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ftbench: " << e.what() << "\n";
    return 2;
  }
  try {
    Result res;
    if (a.workload == "geo-vft" || a.workload == "kron-eft") {
      run_build_workload(a, res);
    } else if (a.workload == "flap-serve") {
      run_serve_workload(a, res);
    } else {
      std::cerr << "ftbench: unknown workload '" << a.workload
                << "' (geo-vft, kron-eft, flap-serve)\n";
      return 2;
    }
    if (a.trace) {
      canonicalize(res);
      print_table(res);
      if (!a.spans.empty()) {
        write_spans(a.spans, a, res);
        std::cout << "spans: " << a.spans << "\n";
      }
    }
    print_result(res);
    return res.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ftbench: " << e.what() << "\n";
    return 1;
  }
}
