// Cannon's algorithm for distributed matrix multiplication on the XDP
// runtime — the classic 2-D torus algorithm, and a natural showcase for
// XDP's unified data/ownership transfer:
//
//   C = A * B on a q x q processor grid, all three (BLOCK:q, BLOCK:q)
//   distributed. After skewing, each of q rounds does a local GEMM on the
//   resident blocks and then *shifts* A one step left and B one step up.
//
// The shift can be implemented two ways, selectable per run:
//
//   * DataShift — each processor keeps ownership of its original block
//     storage and exchanges *values* through separate in-buffers (the
//     conventional message-passing formulation; needs a second buffer per
//     operand).
//   * OwnershipShift — the block itself migrates: "A[block] -=>" to the
//     left neighbour, "<=-" from the right. No auxiliary buffers exist at
//     all; the storage freed by the outgoing block is reused by the
//     incoming one (paper section 2.6: "the storage it had occupied can
//     be reused for a newly acquired section").
//
// Both compute identical results; the bench contrasts their storage
// footprints and traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "xdp/rt/proc.hpp"

namespace xdp::apps {

enum class ShiftPlan { DataShift, OwnershipShift };

struct CannonConfig {
  sec::Index n = 16;   ///< matrix edge; divisible by q
  int q = 2;           ///< processor grid edge (P = q*q)
  ShiftPlan plan = ShiftPlan::OwnershipShift;
  std::uint64_t seed = 21;
  double flopCost = 0.0;  ///< modeled cost per multiply-add
};

struct CannonResult {
  std::vector<double> c;  ///< n*n result, Fortran order
  net::NetStats net;
  double makespan = 0.0;
  std::size_t peakElemsPerProc = 0;  ///< max over procs of peak pool slots
};

CannonResult runCannon(const CannonConfig& cfg);

/// Sequential reference with the same deterministic inputs.
std::vector<double> cannonReference(const CannonConfig& cfg);

}  // namespace xdp::apps
