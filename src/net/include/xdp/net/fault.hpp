// Fault injection for the simulated fabric.
//
// The paper's position (section 2.2) is that the *compiler* guarantees
// communication is well-formed, so the machine model is perfectly
// reliable. Production data-movement systems are validated the other way
// around: the transport is stressed with dropped, duplicated, delayed and
// reordered messages, and the stack on top must either mask the fault or
// fail loudly. A FaultPlan describes such a stress configuration; the
// FaultInjector applies it inside Fabric::send, so every program written
// against the runtime — jacobi, cannon, fft3d, the task farm — runs under
// faults unmodified.
//
// Determinism: decisions are drawn from a counter-based PRNG keyed on
// (plan seed, source pid, per-source send ordinal). A processor's send
// sequence is its program order, so the same plan yields the same fault
// decisions for every message on every run, regardless of how the
// processors are scheduled.
//
// Fault semantics:
//   * drop      — the message is charged to the sender and then discarded.
//                 Lossy: the matching receive never completes (deadlock
//                 detection converts that into a DeadlockError).
//   * duplicate — the message is delivered twice carrying the same dupId;
//                 the fabric's dedup layer guarantees exactly-once
//                 *completion* (the twin is suppressed or purged), so
//                 correct programs stay correct — this exercises the
//                 queue-purging paths.
//   * delay     — the message's virtual arrival time is pushed back,
//                 perturbing unexpected-message accounting and awaited
//                 clock synchronization. Non-lossy.
//   * reorder   — the message is held back and released after the *next*
//                 send from the same source (adjacent swap). Messages with
//                 equal names never swap (per-name FIFO is preserved, the
//                 MPI non-overtaking rule), so matching stays well-defined.
//   * stall     — every send from a stalled endpoint pays a fixed extra
//                 virtual delay (a slow NIC).
//   * crash     — sends from a crash endpoint die once the configured
//                 send count is exceeded. The fate is configurable: Abort
//                 throws FaultAbort (the run fails loudly); Recover hands
//                 the crash to the runtime's checkpoint layer, which rolls
//                 every processor back to the last good snapshot and
//                 disarms the crash (the died processor rejoins).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "xdp/ckpt/io.hpp"
#include "xdp/net/message.hpp"

namespace xdp::net {

/// What a crash-plan endpoint does when its send budget is exhausted.
enum class CrashFate : std::uint8_t {
  Abort = 0,    ///< throw FaultAbort — the whole run fails
  Recover = 1,  ///< request a checkpoint rollback and rejoin
};

/// One stress configuration. Probabilities are per message, in [0, 1].
struct FaultPlan {
  std::uint64_t seed = 1;     ///< decision-stream seed

  double dropProb = 0.0;      ///< P(message silently discarded)   — lossy
  double dupProb = 0.0;       ///< P(message delivered twice)
  double delayProb = 0.0;     ///< P(virtual delivery delay added)
  double maxDelay = 0.0;      ///< delay drawn uniformly from [0, maxDelay)
  double reorderProb = 0.0;   ///< P(message held past the next send)

  std::vector<int> stallPids; ///< endpoints with a slow NIC
  double stallDelay = 0.0;    ///< extra virtual delay per stalled send

  std::vector<int> crashPids;        ///< endpoints that die mid-run — lossy
  std::uint64_t crashAfterSends = 0; ///< sends completed before the crash
  CrashFate crashFate = CrashFate::Abort;  ///< what the crash does

  /// A lossy plan can legitimately leave unmatched receives / undelivered
  /// messages behind, so the runtime's end-of-run usage checks are waived.
  bool lossy() const { return dropProb > 0.0 || !crashPids.empty(); }
};

/// Counters of what the injector actually did (whole-fabric totals).
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;             ///< extra copies created
  std::uint64_t suppressedDuplicates = 0;   ///< copies dedup'd at delivery
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;              ///< messages held back
  std::uint64_t stalled = 0;
  std::uint64_t crashed = 0;                ///< crash budgets exhausted
  std::uint64_t recovered = 0;              ///< crashes absorbed by rollback
};

/// Per-fabric fault state, kept per source endpoint (the decision stream
/// is keyed per source — see the determinism note above). Like the
/// Fabric that owns it, an injector is used by one thread at a time: the
/// machine's fibers, or the caller between runs. Plan configuration
/// (stall/crash flags) changes only while no traffic runs.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int nprocs);

  const FaultPlan& plan() const { return plan_; }
  /// Whole-fabric totals.
  const FaultStats& stats() const { return stats_; }

  /// Per-message fate, decided deterministically from (seed, src, ordinal).
  struct Outcome {
    bool drop = false;
    bool duplicate = false;
    bool hold = false;        ///< reorder: park until the next send from src
    double extraDelay = 0.0;  ///< virtual-time delay (delay and/or stall)
  };
  Outcome classify(int src);

  /// True when this send's endpoint just died (its crash budget is
  /// exhausted). The caller picks the fate from plan().crashFate.
  bool crashNow(int src);

  /// Clear every crash flag and count one absorbed crash — called after a
  /// successful rollback so the recovered endpoint does not immediately
  /// die again (its send counters were rewound by restoreState). Called
  /// while no traffic runs.
  void disarmCrashes();

  // --- checkpoint image --------------------------------------------------
  /// Serialize the dynamic decision state (ordinals, send counts, held
  /// messages, dup ids, stats). The plan itself is runtime configuration
  /// and is not part of the image.
  void exportState(ckpt::Writer& w) const;
  /// Inverse of exportState. Crash/stall flags stay as configured.
  void restoreState(ckpt::Reader& r);

  /// Fresh nonzero id tagging a duplicated original/copy pair.
  std::uint64_t newDupId() { return nextDupId_++; }

  // --- reorder holdback (at most one held message per source) -----------
  struct Held {
    Message msg;
    std::optional<int> dest;  ///< original route (nullopt = rendezvous)
  };
  bool hasHeld(int src) const;
  const Name& heldName(int src) const;
  void hold(int src, Message msg, std::optional<int> dest);
  Held takeHeld(int src);
  /// Release every held message, lowest source pid first.
  std::vector<Held> takeAllHeld();
  std::size_t heldCount() const { return heldCount_; }

 private:
  /// One source endpoint's dynamic state.
  struct SrcState {
    std::uint64_t seq = 0;        ///< decision ordinal
    std::uint64_t sendCount = 0;  ///< sends so far (for crash budgets)
    std::optional<Held> held;     ///< reorder holdback
  };

  std::size_t idx(int src) const { return static_cast<std::size_t>(src); }

  FaultPlan plan_;
  FaultStats stats_;
  std::vector<char> stalled_;  // by pid; written only while no traffic runs
  std::vector<char> crashy_;   // by pid; same discipline
  std::vector<SrcState> src_;
  std::size_t heldCount_ = 0;
  std::uint64_t nextDupId_ = 1;
};

/// RAII default plan: every Fabric constructed while a FaultScope is alive
/// picks the plan up, which is how existing apps (whose runJacobi-style
/// drivers build their own Runtime) run under faults unmodified:
///
///   net::FaultScope faults(plan);
///   auto r = apps::runJacobi(cfg);   // fabric inside runs under `plan`
///
/// Scopes nest; destruction restores the previous plan.
class FaultScope {
 public:
  explicit FaultScope(FaultPlan plan);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  std::optional<FaultPlan> prev_;
};

/// The plan installed by the innermost live FaultScope, if any.
std::optional<FaultPlan> currentGlobalFaultPlan();

}  // namespace xdp::net
