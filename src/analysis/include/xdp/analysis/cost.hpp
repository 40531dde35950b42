// Static communication-cost analysis (DESIGN.md §10).
//
// analyzeCost() runs the Figure-1 abstract interpreter twice:
//
//   1. exact mode — per (pid, symbol, statement) it accumulates the
//      modeled bytes and messages of every send the abstract traces emit,
//      mirroring the runtime's NetStats accounting bit for bit: Data and
//      ownership+value messages carry count*elemSize payload bytes, pure
//      ownership messages are header-only, and a send-to-set emits one
//      message per destination. When the abstract execution is exhaustive
//      and every event is definite, CostReport::exact is true and
//      bytesMoved/messages equal the runtime's bytesSent/messagesSent on
//      any backend — the analyzer doubles as a differential oracle. A
//      loop the verifier summarizes contributes one aggregated event per
//      send statement and loop execution, with the same sums.
//
//   2. placement-oblivious mode — initial ownership, partition queries
//      and owner-routed destinations are unknown, so the only sends that
//      stay definite are those the program emits under *every* placement
//      of its arrays. Their bytes form the placement-invariant component
//      of the lower bound.
//
// The parametric component covers the opposite case: pre-lowering
// owner-computes sweeps (`do i: A[a*i+b] = ... A[a*i+b'] ...`) move no
// explicit messages yet, but any placement of A must still move the
// values that cross ownership boundaries. parametricLowerBound() derives
// the closed-form chain-cut bound (see DESIGN.md §10.2) over such loops.
//
// Byte arithmetic throughout uses arith::checkedMulNonNeg /
// checkedAddNonNeg: adversarial extents raise UsageError instead of
// wrapping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xdp/analysis/verifier.hpp"

namespace xdp::analysis {

/// Aggregated cost of one send statement across all pids and iterations.
struct StmtCost {
  il::StmtPtr stmt;
  il::SrcLoc loc;
  int sym = -1;
  CostClass cls = CostClass::Data;
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
  bool definite = true;  ///< every contributing event was definite
};

struct ProcCost {
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
};

struct SymbolCost {
  int sym = -1;
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
};

struct CostReport {
  /// True iff bytesMoved/messages are provably the runtime totals: the
  /// exact abstract execution was exhaustive and every send event
  /// definite. When false the totals are the definite subset (a lower
  /// estimate) and should not be gated on.
  bool exact = false;
  std::int64_t bytesMoved = 0;
  std::int64_t messages = 0;
  /// Placement-invariant component: bytes of sends emitted under every
  /// placement (oblivious-mode definite Data sends).
  std::int64_t invariantBound = 0;
  /// Chain-cut component from owner-computes sweeps (0 unless derived
  /// from a pre-lowering program; see analyzeCost(prog, pre)).
  std::int64_t parametricBound = 0;

  std::vector<ProcCost> perProc;      ///< indexed by pid
  std::vector<SymbolCost> perSymbol;  ///< only symbols with traffic
  std::vector<StmtCost> perStmt;      ///< sorted by source position

  std::int64_t lowerBound() const { return invariantBound + parametricBound; }
  /// 100 * lowerBound / bytesMoved, with 0 bytes counting as 100% when
  /// the bound is 0 too (nothing must move, nothing does).
  double pctOfOptimal() const;
};

/// Cost of `prog` as written; the parametric bound is derived from
/// `prog`'s own owner-computes sweeps (nonzero only pre-lowering).
CostReport analyzeCost(const il::Program& prog);

/// Cost of the optimized program `prog` with the parametric bound derived
/// from `pre`, the same program before the pass pipeline ran (lowering
/// guards the sweeps, so the sweep structure is only visible in `pre`).
CostReport analyzeCost(const il::Program& prog, const il::Program& pre);

/// The closed-form chain-cut bound alone (DESIGN.md §10.2).
std::int64_t parametricLowerBound(const il::Program& prog);

/// Human-readable per-statement report ("file:line:col: ...").
std::string formatCostReport(const il::Program& prog, const CostReport& r,
                             const std::string& file = "");

/// The report as one JSON object (stable keys; see DESIGN.md §10.4).
std::string costReportJson(const il::Program& prog, const CostReport& r,
                           const std::string& file = "");

}  // namespace xdp::analysis
