// Communication cost model for the simulated machine.
//
// The paper has no testbed numbers (it predates its own implementation's
// evaluation), so reproducibility comes from *modeled* time: every endpoint
// carries a virtual clock, and message events advance clocks under a
// LogGP-flavoured model:
//
//   sender overhead            alpha + beta * bytes
//   wire latency               latency (one hop; rendezvous-matched
//                              messages pay an extra control hop,
//                              see Fabric)
//   receiver completion        max(receiver clock, arrival) when the
//                              receiver synchronizes on the data (await)
//
// Benchmarks report both wall-clock time (the simulator's own cost) and
// modeled time (deterministic shape). Units are arbitrary "seconds".
#pragma once

#include <cstddef>

namespace xdp::net {

struct CostModel {
  double alpha = 1e-5;       ///< per-message overhead (each side)
  double beta = 1e-9;        ///< per-byte cost
  double latency = 5e-6;     ///< wire latency per hop
  double matchHop = 1e-5;    ///< extra cost of a rendezvous control hop
  double barrierCost = 2e-5; ///< synchronization cost of a barrier
  /// Extra cost when a message arrives before its receive is posted (the
  /// classic "unexpected message" path: the transport must buffer it and
  /// copy again once the receive appears). Charged as
  /// `unexpectedAlpha + unexpectedBeta * bytes` on top of the arrival
  /// time. This is what makes receive hoisting (paper section 3.2:
  /// "move the XDP receive statements as early ... as possible")
  /// profitable in the model, exactly as it is on real transports.
  double unexpectedAlpha = 5e-6;
  double unexpectedBeta = 5e-10;

  double sendCost(std::size_t bytes) const {
    return alpha + beta * static_cast<double>(bytes);
  }
  double unexpectedCost(std::size_t bytes) const {
    return unexpectedAlpha + unexpectedBeta * static_cast<double>(bytes);
  }
};

}  // namespace xdp::net
