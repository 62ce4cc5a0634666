// Shared parameter types for the spanner construction algorithms.

#pragma once

#include <cstdint>

#include "graph/types.h"
#include "util/check.h"

namespace ftspan {

/// Order in which the greedy algorithms scan the edges of G.
enum class EdgeOrder : std::uint8_t {
  by_weight,       ///< Nondecreasing weight (Algorithm 4; required for weighted
                   ///< correctness, Theorem 10).
  input,           ///< Insertion order of the input graph (valid for unweighted
                   ///< inputs, Algorithm 3's "arbitrary order").
  by_weight_desc,  ///< Nonincreasing weight — deliberately unsound on weighted
                   ///< graphs; exists for the E12 ordering ablation.
  random,          ///< Uniform shuffle (valid for unweighted inputs).
};

/// Execution policy for the verifier's parallel fan-out (verify_sampled,
/// verify_fault_sets, verify_scenario; see src/exec/): fault sets are
/// independent, so they are checked on pool workers and the per-set reports
/// folded in set order — every setting yields a bit-identical report.
/// Spanner builds run on the calling thread (ModifiedGreedyConfig::exec must
/// keep threads = 1).
struct ExecPolicy {
  /// Worker threads the engine may use (the calling thread counts as one).
  /// 1 = sequential; 0 = one worker per hardware thread.  Workers come from
  /// one process-wide pool, grown on demand; engines never spawn a private
  /// pool per call.
  std::uint32_t threads = 1;
};

/// Parameters of an f-fault-tolerant (2k-1)-spanner construction.
struct SpannerParams {
  std::uint32_t k = 2;  ///< Stretch parameter; the spanner has stretch 2k-1.
  std::uint32_t f = 1;  ///< Number of tolerated faults (f = 0 degenerates to
                        ///< the classic non-fault-tolerant greedy).
  FaultModel model = FaultModel::vertex;

  /// Stretch t = 2k - 1.
  [[nodiscard]] std::uint32_t stretch() const noexcept { return 2 * k - 1; }

  /// Throws std::invalid_argument unless k >= 1.
  void validate() const { FTSPAN_REQUIRE(k >= 1, "spanner requires k >= 1"); }
};

}  // namespace ftspan
