// Static verification of the Figure-1 section-state rules over IL+XDP
// programs — the methodology's promise made checkable: because placement
// and movement are explicit in the IL, the compiler can *prove* the usage
// rules instead of trusting the runtime's --debug-checks to catch a
// violation at execution time.
//
// verifyProgram() abstractly executes the program once per processor.
// Distributions, mypid, nprocs and (in the supported programs) loop bounds
// and compute rules are compile-time evaluable, so the abstract
// interpretation is usually *exact*: per (pid, symbol) it tracks the owned
// region set (including transitional subsections), the pending receive
// initiations, and the regions whose ownership was transferred away.
// A loop whose body is a run of iown-guarded element assignments, point
// sends and receives and awaits -- the shape the standard pipeline emits --
// is checked once per owned iteration set, at section granularity, rather
// than per iteration when that proves it clean; its transfers match as
// section events. Any loop that could raise a diagnostic is unrolled.
// Wherever exactness is lost — a data-dependent rule or loop bound — the
// state joins to Top and the verifier goes silent on the affected facts
// rather than risk a false positive; VerifyResult::exhaustive reports
// whether any such widening happened.
//
// Diagnostic classes (DiagKind):
//   NotAccessible    use of a section that is provably not Accessible
//                    (use-before-receive, use-after-ownership-transfer,
//                    read of a transitional section, receive into unowned)
//   SendUnowned      data/ownership send of a section the sender does not own
//   DoubleOwnership  ownership sent twice, or received while still owned
//   UnmatchedSend    a send whose message provably has no matching receive
//   OrphanRecv       a receive initiation no send will ever complete
//                    (an await of it would deadlock)
//   AwaitMismatch    await orderings: await of an unowned section (always
//                    false), or an await that provably precedes the receive
//                    initiation it is meant to synchronize with
//   TransferMismatch size/type/destination mismatches a transfer statement
//                    would trip XDP_CHECK on at run time
//
// Scope / soundness limits (see DESIGN.md §7): kernel calls are opaque and
// their argument sections are not checked (the built-in `fill` touches only
// the owned intersection by contract), and *unguarded* element assignments
// are treated as pre-lowering owner-computes dialect (they denote global
// assignments that lowerOwnerComputes will make explicit) and are exempt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xdp/il/program.hpp"

namespace xdp::analysis {

enum class Severity { Note, Warning, Error };

enum class DiagKind {
  NotAccessible,
  SendUnowned,
  DoubleOwnership,
  UnmatchedSend,
  OrphanRecv,
  AwaitMismatch,
  TransferMismatch,
};

const char* severityName(Severity s);
const char* kindName(DiagKind k);

struct Diagnostic {
  Severity severity = Severity::Error;
  DiagKind kind = DiagKind::NotAccessible;
  int pid = -1;       ///< processor of the abstract trace (-1 = global fact)
  il::StmtPtr stmt;   ///< offending statement (may be null)
  il::SrcLoc loc;     ///< statement source position (line 0 = unknown)
  std::string message;
};

struct VerifyOptions {
  /// Abstract-statement budget across all processors; exceeding it aborts
  /// the analysis with exhaustive=false (and no matching diagnostics).
  std::uint64_t maxSteps = 4'000'000;
  /// Cross-processor send/receive matching (UnmatchedSend / OrphanRecv).
  bool matchComm = true;
  /// Record a CostEvent at every message-emitting point (see below).
  bool collectCost = false;
  /// Placement-oblivious abstract execution: initial ownership, partition
  /// queries (mypart/partof) and owner-routed destinations are all unknown,
  /// so only communication that happens under *every* placement stays
  /// definite. The cost analyzer's placement-invariant lower bound runs the
  /// verifier in this mode; diagnostics are meaningless here and callers
  /// should ignore them (and disable matchComm).
  bool obliviousPlacement = false;
};

/// Transfer class of a modeled message; numerically mirrors
/// net::TransferKind (analysis does not link against xdp::net).
enum class CostClass { Data, Own, OwnVal };

/// One message-emitting point of one processor's abstract trace. The byte
/// accounting mirrors the runtime exactly (src/rt/proc.cpp): Data and
/// OwnVal messages carry elems*elemSize payload bytes per message, pure
/// Own messages are header-only (0 bytes, still one message). `messages`
/// is the fan-out (one per destination for send-to-set data sends); for a
/// send in a summarized loop the one event of the loop execution carries
/// the fan-out times the iterations that ran it, and `elems` stays the
/// payload of one message (DESIGN.md §10.1).
/// `definite` means the trace provably emits exactly this event: not under
/// an undecidable guard or widened loop, and — for ownership sends — the
/// sender provably owns the section (an unowned ownership send is a
/// runtime no-op that emits nothing).
struct CostEvent {
  int pid = -1;
  int sym = -1;
  il::StmtPtr stmt;
  il::SrcLoc loc;
  CostClass cls = CostClass::Data;
  sec::Index elems = 0;
  sec::Index messages = 1;
  bool definite = true;
};

struct VerifyResult {
  std::vector<Diagnostic> diagnostics;
  /// True iff the abstract execution was exact: no widening, no unknown
  /// guard, and the step budget sufficed. When false the verifier may have
  /// stayed silent about parts of the program (never the reverse).
  bool exhaustive = true;
  std::uint64_t stmtsAnalyzed = 0;
  /// Loop executions verified by one section-granular summary instead of
  /// per iteration (DESIGN.md §7). They are charged the steps unrolling
  /// would take, so stmtsAnalyzed does not depend on this count.
  std::uint64_t loopsSummarized = 0;
  /// Populated when VerifyOptions::collectCost is set.
  std::vector<CostEvent> costEvents;

  std::size_t count(Severity s) const;
  std::size_t errors() const { return count(Severity::Error); }
  bool clean() const { return diagnostics.empty(); }
};

VerifyResult verifyProgram(const il::Program& prog,
                           const VerifyOptions& opts = {});

/// "file:line:col: error: message [p2]"; the position prefix is omitted
/// when the statement has no source location (builder-made programs), in
/// which case the pretty-printed statement is appended for context.
std::string formatDiagnostic(const il::Program& prog, const Diagnostic& d,
                             const std::string& file = "");

/// All diagnostics of `r`, one per line (empty string when clean).
std::string formatDiagnostics(const il::Program& prog, const VerifyResult& r,
                              const std::string& file = "");

/// The whole result as one JSON object for machine consumption
/// (`xdpc --analyze --format=json`). Stable keys: every diagnostic is
/// {"class","severity","file","line","col","pid","message"}, and the
/// object carries {"diagnostics","errors","warnings","exhaustive",
/// "stmts_analyzed"}.
std::string diagnosticsJson(const il::Program& prog, const VerifyResult& r,
                            const std::string& file = "");

}  // namespace xdp::analysis
