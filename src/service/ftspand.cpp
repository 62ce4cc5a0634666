#include "service/ftspand.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace ftspan::service {

namespace {

constexpr std::size_t kMaxFrame = std::size_t{1} << 20;

const obs::Counter c_requests("service.requests");
const obs::Counter c_queries("service.queries");

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const auto wrote = ::write(fd, data, len);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    data += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
}

/// Reads exactly `len` bytes.  Returns false on EOF at offset 0 when
/// `eof_ok`; throws on mid-frame EOF or errors.
bool read_all(int fd, char* data, std::size_t len, bool eof_ok) {
  std::size_t got = 0;
  while (got < len) {
    const auto n = ::read(fd, data + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("truncated frame (peer closed mid-message)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Splits a request into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(std::move(tok));
  return out;
}

VertexId parse_vertex(const std::string& tok, std::size_t n) {
  std::size_t consumed = 0;
  long long v = -1;
  try {
    v = std::stoll(tok, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != tok.size() || v < 0 || static_cast<std::size_t>(v) >= n)
    throw std::invalid_argument("vertex '" + tok + "' not in [0, " +
                                std::to_string(n) + ")");
  return static_cast<VertexId>(v);
}

/// Parses a `verify` trial count: the whole token, an unsigned decimal that
/// fits in 32 bits ("-1", "3abc" and "99999999999" are errors, not a count).
std::uint32_t parse_trials(const std::string& tok) {
  std::uint32_t trials = 0;
  const char* end = tok.data() + tok.size();
  const auto [stop, ec] = std::from_chars(tok.data(), end, trials);
  if (ec != std::errc{} || stop != end)
    throw std::invalid_argument("trials '" + tok +
                                "' is not an unsigned 32-bit integer");
  return trials;
}

/// Parses an `insert` weight: the whole token, a finite number.
Weight parse_weight(const std::string& tok) {
  std::size_t consumed = 0;
  Weight w = 0.0;
  try {
    w = std::stod(tok, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != tok.size() || !std::isfinite(w))
    throw std::invalid_argument("weight '" + tok + "' is not a finite number");
  return w;
}

std::string format_weight(Weight w) {
  if (w == kUnreachableWeight) return "inf";
  std::ostringstream os;
  os << w;
  return os.str();
}

}  // namespace

bool read_frame(int fd, std::string& out) {
  unsigned char header[4];
  if (!read_all(fd, reinterpret_cast<char*>(header), 4, /*eof_ok=*/true))
    return false;
  const std::size_t len = static_cast<std::size_t>(header[0]) |
                          static_cast<std::size_t>(header[1]) << 8 |
                          static_cast<std::size_t>(header[2]) << 16 |
                          static_cast<std::size_t>(header[3]) << 24;
  if (len > kMaxFrame) throw std::runtime_error("frame exceeds 1 MiB guard");
  out.resize(len);
  if (len > 0) read_all(fd, out.data(), len, /*eof_ok=*/false);
  return true;
}

void write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrame)
    throw std::runtime_error("frame exceeds 1 MiB guard");
  const auto len = static_cast<std::uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff)};
  write_all(fd, reinterpret_cast<const char*>(header), 4);
  write_all(fd, payload.data(), payload.size());
}

int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("connect");
  }
  return fd;
}

int connect_uds(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("UNIX socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("connect");
  }
  return fd;
}

Ftspand::Ftspand(Graph initial, ChurnConfig config, ServeOptions options)
    : engine_(std::move(initial), config),
      options_(std::move(options)),
      verify_rng_(options_.verify_seed) {
  if (!options_.uds_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.uds_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("UNIX socket path too long: " +
                               options_.uds_path);
    std::strncpy(addr.sun_path, options_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.uds_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0)
      throw_errno("bind");
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0)
      throw_errno("bind");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0)
      throw_errno("getsockname");
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) throw_errno("listen");
  if (!options_.port_file.empty()) {
    // Written only once the socket is listening: scripted clients poll this
    // file as their "daemon is ready" handshake.
    std::ofstream out(options_.port_file);
    if (!out) throw std::runtime_error("cannot write " + options_.port_file);
    out << port_ << "\n";
  }
}

Ftspand::~Ftspand() {
  stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
}

void Ftspand::stop() {
  if (stopping_.exchange(true)) return;
  // Unblock accept() and any client thread parked in read().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  const std::lock_guard<std::mutex> lock(clients_mu_);
  for (const int fd : clients_) ::shutdown(fd, SHUT_RDWR);
}

void Ftspand::run() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    const std::lock_guard<std::mutex> lock(clients_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    clients_.push_back(fd);
    threads_.emplace_back([this, fd] { serve_client(fd); });
  }
  stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void Ftspand::serve_client(int fd) {
  obs::label_thread("client", static_cast<unsigned>(fd));
  // Per-connection runner: readers share nothing, so queries on different
  // connections proceed in parallel and never touch the updater's state.
  DijkstraRunner dij(engine_.n());
  BfsRunner bfs(engine_.n());
  std::string request;
  try {
    while (!stopping_.load() && read_frame(fd, request)) {
      std::string reply;
      const auto tokens = tokenize(request);
      const std::string cmd = tokens.empty() ? "" : tokens[0];
      if (cmd == "dist" || cmd == "route" || cmd == "stats" || cmd == "ping") {
        // Snapshot reads: no lock.  handle() counts every other request.
        c_requests.add();
        try {
          reply = handle_query(tokens, dij, bfs);
        } catch (const std::exception& e) {
          reply = std::string("err ") + e.what();
        }
      } else {
        reply = handle(request);
      }
      write_frame(fd, reply);
      if (request == "shutdown") {
        stop();
        break;
      }
    }
  } catch (const std::exception&) {
    // Peer vanished mid-frame or a socket error: drop the connection.
  }
  ::close(fd);
  const std::lock_guard<std::mutex> lock(clients_mu_);
  for (auto it = clients_.begin(); it != clients_.end(); ++it) {
    if (*it == fd) {
      clients_.erase(it);
      break;
    }
  }
}

std::string Ftspand::handle_query(const std::vector<std::string>& tokens,
                                  DijkstraRunner& dij, BfsRunner& bfs) {
  const std::string& cmd = tokens[0];
  if (cmd == "ping") return "ok pong";
  const auto snap = engine_.snapshot();
  std::ostringstream os;
  if (cmd == "stats") {
    os << "ok epoch=" << snap->epoch << " n=" << snap->graph.n()
       << " live_m=" << snap->live_m << " spanner_m=" << snap->spanner_m
       << " k=" << snap->params.k << " f=" << snap->params.f
       << " model=" << to_string(snap->params.model)
       << " stretch=" << snap->params.stretch()
       << " inserts=" << snap->stats.inserts
       << " removals=" << snap->stats.removals
       << " spanner_inserts=" << snap->stats.spanner_inserts
       << " spanner_removals=" << snap->stats.spanner_removals
       << " repair_decisions=" << snap->stats.repair_decisions
       << " repair_promotions=" << snap->stats.repair_promotions
       << " rebuilds=" << snap->stats.rebuilds
       << " publishes=" << snap->stats.publishes;
    return os.str();
  }
  if (tokens.size() < 3) throw std::invalid_argument(cmd + " needs <u> <v>");
  const VertexId u = parse_vertex(tokens[1], snap->graph.n());
  const VertexId v = parse_vertex(tokens[2], snap->graph.n());
  c_queries.add();
  if (cmd == "dist") {
    const Weight mesh =
        snapshot_distance(*snap, dij, u, v, snap->mesh_view());
    const Weight span =
        snapshot_distance(*snap, dij, u, v, snap->spanner_view());
    os << "ok epoch=" << snap->epoch << " mesh=" << format_weight(mesh)
       << " spanner=" << format_weight(span) << " stretch=";
    if (mesh == kUnreachableWeight) {
      os << (span == kUnreachableWeight ? "1" : "inf");
    } else if (mesh == 0.0) {
      os << "1";
    } else {
      os << (span / mesh);
    }
    return os.str();
  }
  if (cmd == "route") {
    // Route over the maintained spanner; hop path on unweighted meshes,
    // least-weight path on weighted ones.
    Route route;
    if (!snapshot_route(*snap, bfs, dij, u, v, route)) {
      os << "ok epoch=" << snap->epoch << " unroutable";
      return os.str();
    }
    os << "ok epoch=" << snap->epoch << " hops=" << route.hops()
       << " cost=" << route.cost << " path=";
    for (std::size_t i = 0; i < route.path.size(); ++i) {
      if (i > 0) os << '>';
      os << route.path[i];
    }
    return os.str();
  }
  throw std::invalid_argument("unknown query: " + cmd);
}

std::string Ftspand::handle(const std::string& request) {
  c_requests.add();
  const auto tokens = tokenize(request);
  if (tokens.empty()) return "err empty request";
  const std::string& cmd = tokens[0];
  std::ostringstream os;
  try {
    if (cmd == "ping") return "ok pong";
    if (cmd == "dist" || cmd == "route" || cmd == "stats") {
      // In-process callers (tests) reach queries through handle() too; the
      // socket loop routes them through its per-connection runners instead.
      DijkstraRunner dij(engine_.n());
      BfsRunner bfs(engine_.n());
      return handle_query(tokens, dij, bfs);
    }
    const std::lock_guard<std::mutex> lock(update_mu_);
    if (cmd == "insert") {
      if (tokens.size() < 3 || tokens.size() > 4)
        throw std::invalid_argument("insert needs <u> <v> [w]");
      const VertexId u = parse_vertex(tokens[1], engine_.n());
      const VertexId v = parse_vertex(tokens[2], engine_.n());
      const Weight w = tokens.size() == 4 ? parse_weight(tokens[3]) : 1.0;
      const auto r = engine_.insert(u, v, w);
      os << "ok epoch=" << r.epoch << " in_spanner=" << (r.in_spanner ? 1 : 0);
      return os.str();
    }
    if (cmd == "remove") {
      if (tokens.size() != 3)
        throw std::invalid_argument("remove needs <u> <v>");
      const VertexId u = parse_vertex(tokens[1], engine_.n());
      const VertexId v = parse_vertex(tokens[2], engine_.n());
      const auto r = engine_.remove(u, v);
      os << "ok epoch=" << r.epoch << " repicked=" << r.repicked;
      return os.str();
    }
    if (cmd == "verify") {
      auto trials = options_.verify_trials;
      if (tokens.size() >= 2) trials = parse_trials(tokens[1]);
      const auto oracle = engine_.oracle_check(trials, verify_rng_);
      if (oracle.report.ok) {
        os << "ok verified trials=" << trials
           << " fault_sets=" << oracle.report.fault_sets_checked
           << " max_stretch=" << oracle.report.max_stretch
           << " bound=" << engine_.config().params.stretch()
           << " spanner_m=" << oracle.maintained_m;
      } else {
        // Same loud marker examples/overlay_routing.cpp prints, so scripted
        // sessions and CI grep for one spelling.
        os << "VIOLATION max_stretch=" << oracle.report.max_stretch
           << " bound=" << engine_.config().params.stretch() << " pair=("
           << oracle.report.worst.u << "," << oracle.report.worst.v
           << ") faults=" << oracle.report.worst.faults.ids.size();
      }
      return os.str();
    }
    if (cmd == "flush") {
      os << "ok epoch=" << engine_.flush();
      return os.str();
    }
    if (cmd == "rebuild") {
      engine_.rebuild();
      os << "ok epoch=" << engine_.snapshot()->epoch
         << " spanner_m=" << engine_.spanner_m();
      return os.str();
    }
    if (cmd == "shutdown") return "ok bye";
    return "err unknown command: " + cmd;
  } catch (const std::exception& e) {
    return std::string("err ") + e.what();
  }
}

}  // namespace ftspan::service
