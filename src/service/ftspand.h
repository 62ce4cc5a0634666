// ftspand: the always-on spanner daemon.
//
// Owns a ChurnSpanner and serves a line-oriented command protocol over a
// localhost TCP socket (127.0.0.1, port 0 = kernel-assigned) or a UNIX
// domain socket.  Every message — request and reply — is one frame: a
// 4-byte little-endian payload length followed by that many bytes of UTF-8
// text.  One request frame yields exactly one reply frame.
//
// Commands (tokens separated by single spaces):
//   ping                 -> ok pong
//   insert <u> <v> [w]   -> ok epoch=E in_spanner=0|1
//   remove <u> <v>       -> ok epoch=E repicked=R
//   dist <u> <v>         -> ok epoch=E mesh=D spanner=D stretch=S
//   route <u> <v>        -> ok epoch=E hops=H cost=C path=v0>v1>...>vk
//   verify [trials]      -> ok verified ... | VIOLATION ... (oracle check)
//   stats                -> ok epoch=E n=... (one key=value line)
//   flush                -> ok epoch=E        (publish immediately)
//   rebuild              -> ok epoch=E spanner_m=M (greedy re-anchor)
//   shutdown             -> ok bye            (daemon exits its run loop)
// Anything else, or an argument error, replies "err <message>".  Numeric
// arguments are parsed whole — a vertex must be an integer in [0, n), a
// trial count an unsigned decimal that fits in 32 bits, a weight a finite
// number — and a token that is not replies an err naming it.
//
// Concurrency: updates (insert/remove/rebuild/flush/verify) serialize on one
// mutex; dist/route/stats read the engine's published epoch snapshot with
// per-connection search runners and never take the update lock — readers
// never block the updater and vice versa.  `verify` replies with the same
// loud VIOLATION marker the overlay_routing example prints, so scripted
// sessions can grep for one spelling.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/churn_spanner.h"
#include "util/rng.h"

namespace ftspan::service {

/// Listener configuration.  Exactly one of `uds_path` / TCP is used: a
/// non-empty uds_path binds a UNIX socket there, otherwise TCP on
/// 127.0.0.1:`port` (0 = ephemeral; the bound port is reported by port()
/// and, when `port_file` is set, written there once listening — the
/// handshake scripted clients wait on).
struct ServeOptions {
  std::string uds_path;
  std::uint16_t port = 0;
  std::string port_file;
  /// Default trial count for the `verify` command.
  std::uint32_t verify_trials = 64;
  /// Seed for the verify command's fault sampling.
  std::uint64_t verify_seed = 1;
};

class Ftspand {
 public:
  /// Builds the engine in place (ctor runs the initial greedy build) and
  /// binds the listener (throws std::runtime_error on socket errors).
  Ftspand(Graph initial, ChurnConfig config, ServeOptions options);
  ~Ftspand();

  Ftspand(const Ftspand&) = delete;
  Ftspand& operator=(const Ftspand&) = delete;

  /// Bound TCP port (0 when listening on a UNIX socket).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept loop: serves clients (one thread each) until a `shutdown`
  /// command or stop() arrives, then joins every client thread.
  void run();

  /// Asynchronously stops run() (safe from any thread / signal-free).
  void stop();

  /// Direct (in-process) command dispatch — the same handler the socket
  /// loop calls, exposed for tests.
  std::string handle(const std::string& request);

  [[nodiscard]] ChurnSpanner& engine() noexcept { return engine_; }

 private:
  void serve_client(int fd);

  /// Lock-free query dispatch (ping/stats/dist/route) against the published
  /// snapshot, using the caller's runners.  Throws on argument errors.
  std::string handle_query(const std::vector<std::string>& tokens,
                           DijkstraRunner& dij, BfsRunner& bfs);

  ChurnSpanner engine_;
  ServeOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex update_mu_;   ///< serializes engine updates + verify/rebuild
  std::mutex clients_mu_;  ///< guards clients_ / threads_
  std::vector<int> clients_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  Rng verify_rng_;
};

// --- framing helpers (shared with `ftspan_cli client` and tests) ----------

/// Reads one length-prefixed frame into `out`.  False on clean EOF before
/// any byte; throws std::runtime_error on a truncated frame, a read error,
/// or a frame longer than 1 MiB (protocol guard).
bool read_frame(int fd, std::string& out);

/// Writes one length-prefixed frame; throws std::runtime_error on error.
void write_frame(int fd, const std::string& payload);

/// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
[[nodiscard]] int connect_tcp(std::uint16_t port);

/// Connects to the UNIX socket at `path`; throws on failure.
[[nodiscard]] int connect_uds(const std::string& path);

}  // namespace ftspan::service
