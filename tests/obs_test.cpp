// Tests for the ftobs layer (src/obs/): per-thread counter/gauge shards
// merged at snapshot, drop-oldest span rings, the Chrome trace exporter's
// matched-pair guarantee, and the category coverage the engines emit.  The
// concurrent-recording tests run under the TSan CI lane, which is the
// enforcement point for the single-producer ring claim.
//
// Global-state discipline: obs state is process-wide, so every test starts
// and ends with obs::reset_for_testing() (quiescent by construction — gtest
// runs tests sequentially and every pool round has joined by then).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/modified_greedy.h"
#include "exec/thread_pool.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace ftspan {
namespace {

std::string export_trace() {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  return os.str();
}

/// Minimal recursive-descent JSON validator: the exporter's output must be
/// well-formed JSON, not merely greppable.  Returns true iff `s` is one
/// complete JSON value (plus trailing whitespace).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Flat scan of the exported trace: one (phase, tid) per event, in emission
/// order.  The exporter writes each thread's stream contiguously, so per-tid
/// nesting depth can be tracked over consecutive same-tid events.
struct MiniEvent {
  char ph = '\0';
  int tid = 0;
};

std::vector<MiniEvent> scan_events(const std::string& json) {
  std::vector<MiniEvent> out;
  const std::string ph_key = "{\"ph\":\"";
  for (std::size_t pos = json.find(ph_key); pos != std::string::npos;
       pos = json.find(ph_key, pos + 1)) {
    MiniEvent e;
    e.ph = json[pos + ph_key.size()];
    const std::size_t tid_pos = json.find("\"tid\":", pos);
    if (tid_pos != std::string::npos)
      e.tid = std::atoi(json.c_str() + tid_pos + 6);
    out.push_back(e);
  }
  return out;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

// ------------------------------------------------------- counters / gauges

TEST(ObsMetrics, DisabledRecordsNothing) {
  obs::reset_for_testing();
  const obs::Counter counter("obs_test.disabled.counter");
  const obs::Gauge gauge("obs_test.disabled.gauge");
  counter.add(5);
  gauge.update(99);
  obs::instant("obs_test_disabled", "tick");
  const auto snap = obs::metrics_snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "obs_test.disabled.counter") {
      EXPECT_EQ(value, 0u);
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name == "obs_test.disabled.gauge") {
      EXPECT_EQ(value, 0u);
    }
  }
  EXPECT_EQ(export_trace().find("obs_test_disabled"), std::string::npos);
  obs::reset_for_testing();
}

TEST(ObsMetrics, ShardsMergeAcrossPoolWorkers) {
  const obs::Counter counter("obs_test.merge.counter");
  const obs::Gauge gauge("obs_test.merge.gauge");
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::reset_for_testing();
    obs::metrics_start();
    constexpr std::size_t kTasks = 4000;
    exec::ThreadPool pool(threads);
    pool.run(kTasks, [&](unsigned, std::size_t i) {
      counter.add(1);
      gauge.update(static_cast<std::uint64_t>(i));
    });
    const auto snap = obs::metrics_snapshot();
    bool saw_counter = false;
    bool saw_gauge = false;
    for (const auto& [name, value] : snap.counters)
      if (name == "obs_test.merge.counter") {
        saw_counter = true;
        EXPECT_EQ(value, kTasks) << "threads=" << threads;
      }
    for (const auto& [name, value] : snap.gauges)
      if (name == "obs_test.merge.gauge") {
        saw_gauge = true;
        EXPECT_EQ(value, kTasks - 1) << "threads=" << threads;
      }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_gauge);
  }
  obs::reset_for_testing();
}

TEST(ObsMetrics, SameNameResolvesToSameSlot) {
  obs::reset_for_testing();
  obs::metrics_start();
  const obs::Counter a("obs_test.shared.slot");
  const obs::Counter b("obs_test.shared.slot");
  a.add(3);
  b.add(4);
  std::uint64_t total = 0;
  std::size_t rows = 0;
  for (const auto& [name, value] : obs::metrics_snapshot().counters)
    if (name == "obs_test.shared.slot") {
      total += value;
      ++rows;
    }
  EXPECT_EQ(rows, 1u);  // one registry row, not one per handle
  EXPECT_EQ(total, 7u);
  obs::reset_for_testing();
}

TEST(ObsMetrics, MetricsJsonIsValidAndFlat) {
  obs::reset_for_testing();
  obs::metrics_start();
  const obs::Counter counter("obs_test.json.counter");
  counter.add(11);
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"obs_test.json.counter\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"obs.dropped_events\": 0"), std::string::npos);
  obs::reset_for_testing();
}

// ----------------------------------------------------------- span rings

TEST(ObsRing, WraparoundDropsOldestAndCountsDrops) {
  obs::reset_for_testing();
  // A fresh thread adopts the capacity current at its FIRST event, so the
  // tiny ring must be exercised on a brand-new thread (the main thread's
  // ring was sized long ago).
  obs::trace_start(obs::TraceOptions{64});
  constexpr std::uint64_t kEvents = 200;
  std::thread recorder([] {
    obs::label_thread("ringtest", 7);
    for (std::uint64_t i = 0; i < kEvents; ++i)
      obs::instant("obs_test_ring", "tick", "seq", i);
  });
  recorder.join();
  EXPECT_EQ(obs::dropped_events(), kEvents - 64);

  const std::string json = export_trace();
  EXPECT_TRUE(JsonValidator(json).valid());
  EXPECT_NE(json.find("\"name\":\"ringtest 7\""), std::string::npos);
  // The kept window is exactly the LAST 64 events: seq 136..199 present,
  // everything older overwritten.
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"obs_test_ring\""), 64u);
  EXPECT_EQ(json.find("\"seq\":135}"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":136}"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":199}"), std::string::npos);
  obs::reset_for_testing();
}

TEST(ObsRing, TruncatedRingStillExportsMatchedPairs) {
  obs::reset_for_testing();
  obs::trace_start(obs::TraceOptions{64});
  // Nested spans wrapping the ring many times: the export suffix starts
  // mid-span, so orphan 'E's must be skipped and trailing 'B's closed.
  std::thread recorder([] {
    obs::label_thread("pairtest", 0);
    for (int i = 0; i < 300; ++i) {
      obs::ScopedSpan outer("obs_test_pair", "outer");
      obs::ScopedSpan inner("obs_test_pair", "inner", "i",
                            static_cast<std::uint64_t>(i));
    }
  });
  recorder.join();
  const std::string json = export_trace();
  ASSERT_TRUE(JsonValidator(json).valid());

  std::vector<MiniEvent> events = scan_events(json);
  ASSERT_FALSE(events.empty());
  // Per-tid B/E balance: depth never goes negative and ends at zero.  The
  // exporter emits each thread's stream contiguously, so a simple pass with
  // a depth reset at tid changes is exact.
  int depth = 0;
  int current_tid = -1;
  for (const MiniEvent& e : events) {
    if (e.ph == 'M' || e.ph == 'i') continue;
    if (e.tid != current_tid) {
      EXPECT_EQ(depth, 0) << "unclosed spans at end of tid " << current_tid;
      current_tid = e.tid;
      depth = 0;
    }
    if (e.ph == 'B') ++depth;
    if (e.ph == 'E') --depth;
    ASSERT_GE(depth, 0) << "orphan end emitted for tid " << e.tid;
  }
  EXPECT_EQ(depth, 0);
  obs::reset_for_testing();
}

TEST(ObsRing, ConcurrentRecordingFromPoolWorkers) {
  // The single-producer ring claim, enforced where it matters: many workers
  // recording spans + counters simultaneously while nothing tears.  The
  // TSan CI lane runs this test; a data race here is a build failure.
  const obs::Counter counter("obs_test.concurrent.counter");
  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::reset_for_testing();
    obs::trace_start(obs::TraceOptions{1u << 10});
    exec::ThreadPool pool(threads);
    pool.run(2000, [&](unsigned, std::size_t i) {
      obs::ScopedSpan span("obs_test_conc", "task", "i",
                           static_cast<std::uint64_t>(i));
      counter.add(1);
      obs::instant("obs_test_conc", "mark", "i", static_cast<std::uint64_t>(i));
    });
    const std::string json = export_trace();
    EXPECT_TRUE(JsonValidator(json).valid()) << "threads=" << threads;
    EXPECT_GT(count_occurrences(json, "\"cat\":\"obs_test_conc\""), 0u);
    for (const auto& [name, value] : obs::metrics_snapshot().counters) {
      if (name == "obs_test.concurrent.counter") {
        EXPECT_EQ(value, 2000u) << "threads=" << threads;
      }
    }
  }
  obs::reset_for_testing();
}

// ------------------------------------------------------ engine coverage

TEST(ObsTrace, EngineRunCoversAllCategories) {
  // The acceptance bar for the instrumentation: one traced build (f >= 1,
  // so masked sweeps run), an alpha-0 build (shared trees and grafts), and
  // a verification fanned over 4 pool workers must produce every category
  // the trace taxonomy promises, on per-worker tracks.  The pool is driven
  // directly (exec.threads is not clamped to the hardware), so this holds
  // on a 1-core CI runner too.
  obs::reset_for_testing();
  obs::trace_start(obs::TraceOptions{1u << 16});

  Rng rng(112);
  const Graph g = gnp(256, 0.12, rng);
  const SpannerParams params{.k = 2, .f = 1};
  const auto build = modified_greedy_spanner(g, params);
  // Guard against vacuous category asserts: the f >= 1 workload must run
  // masked sweeps (from both ends, with no terminal tree)...
  ASSERT_GT(build.stats.dedicated_masked_sweeps, 0u);
  ASSERT_EQ(build.stats.tree_reuse_hits, 0u);

  // ...and at alpha == 0 the workload must share terminal trees, and accepts
  // graft into the shared tree instead of re-beginning.
  const auto graft_build =
      modified_greedy_spanner(g, SpannerParams{.k = 2, .f = 0});
  ASSERT_GT(graft_build.stats.tree_reuse_hits, 0u);
  ASSERT_GT(graft_build.stats.tree_extends, 0u);

  ExecPolicy exec;
  exec.threads = 4;
  Rng verify_rng(7);
  (void)verify_sampled(g, build.spanner, params, 16, verify_rng, exec);

  const std::string json = export_trace();
  ASSERT_TRUE(JsonValidator(json).valid());
  for (const char* cat : {"tree", "graft", "sweep", "pool", "verify"})
    EXPECT_NE(json.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << "category missing from trace: " << cat;
  // Per-worker tracks, named.  The calling thread participates as worker 0
  // under its own "main" track; spawned pool workers are 1..threads-1.
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main 0\""), std::string::npos);
  obs::reset_for_testing();
}

TEST(ObsTrace, StopFreezesRecording) {
  obs::reset_for_testing();
  obs::trace_start();
  obs::instant("obs_test_stop", "before");
  obs::trace_stop();
  obs::metrics_stop();
  obs::instant("obs_test_stop", "after", "marker", 1);
  const std::string json = export_trace();
  EXPECT_NE(json.find("\"name\":\"before\""), std::string::npos);
  EXPECT_EQ(json.find("\"marker\":1"), std::string::npos);
  obs::reset_for_testing();
}

}  // namespace
}  // namespace ftspan
