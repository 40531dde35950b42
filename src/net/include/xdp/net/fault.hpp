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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
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

/// Per-fabric fault state, sharded by source endpoint so concurrent
/// senders never serialize on one injector-wide lock (the decision
/// stream is keyed per source anyway — see the determinism note above).
///
/// Locking: each source's dynamic state (decision ordinal, send count,
/// reorder holdback) sits behind its own cache-line-aligned mutex,
/// exposed via sourceMu(src); the per-message methods (classify,
/// crashNow, the held accessors) require that lock held — the Fabric's
/// faultSend takes it once around the whole fate decision. Whole-fabric
/// stats are relaxed atomics (torn-read-free without any lock). Plan
/// configuration (stall/crash flags) is written only while no traffic
/// runs (construction, disarmCrashes under the Fabric's exclusive
/// faultMu_). The Fabric never holds any injector lock while routing, so
/// injector calls never nest inside endpoint or matcher critical
/// sections.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int nprocs);

  const FaultPlan& plan() const { return plan_; }
  /// Whole-fabric totals, materialized from the relaxed counters; safe at
  /// any time, including mid-run from a monitoring thread.
  FaultStats stats() const;

  /// The lock serializing per-message decisions for one source.
  std::mutex& sourceMu(int src) { return src_[idx(src)].mu; }

  /// Per-message fate, decided deterministically from (seed, src, ordinal).
  struct Outcome {
    bool drop = false;
    bool duplicate = false;
    bool hold = false;        ///< reorder: park until the next send from src
    double extraDelay = 0.0;  ///< virtual-time delay (delay and/or stall)
  };
  /// Caller holds sourceMu(src).
  Outcome classify(int src);

  /// True when this send's endpoint just died (its crash budget is
  /// exhausted). The caller picks the fate from plan().crashFate.
  /// Caller holds sourceMu(src).
  bool crashNow(int src);

  /// Clear every crash flag and count one absorbed crash — called after a
  /// successful rollback so the recovered endpoint does not immediately
  /// die again (its send counters were rewound by restoreState). Called
  /// while no traffic runs (under the Fabric's exclusive faultMu_).
  void disarmCrashes();

  // --- checkpoint image --------------------------------------------------
  /// Serialize the dynamic decision state (ordinals, send counts, held
  /// messages, dup ids, stats). The plan itself is runtime configuration
  /// and is not part of the image. Takes the per-source locks itself;
  /// callers export only at a capture point.
  void exportState(ckpt::Writer& w) const;
  /// Inverse of exportState. Crash/stall flags stay as configured.
  void restoreState(ckpt::Reader& r);

  /// Fresh nonzero id tagging a duplicated original/copy pair.
  std::uint64_t newDupId() {
    return nextDupId_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- reorder holdback (at most one held message per source) -----------
  /// All four single-source accessors require sourceMu(src) held.
  struct Held {
    Message msg;
    std::optional<int> dest;  ///< original route (nullopt = rendezvous)
  };
  bool hasHeld(int src) const;
  const Name& heldName(int src) const;
  void hold(int src, Message msg, std::optional<int> dest);
  Held takeHeld(int src);
  /// Release every held message, lowest source pid first. Takes the
  /// per-source locks itself.
  std::vector<Held> takeAllHeld();
  std::size_t heldCount() const {
    return heldCount_.load(std::memory_order_relaxed);
  }

 private:
  /// One source endpoint's dynamic state, cache-line-aligned so two
  /// sources' send paths never false-share.
  struct alignas(64) SrcState {
    mutable std::mutex mu;  ///< mutable: exportState is const but must lock
    std::uint64_t seq = 0;        ///< decision ordinal
    std::uint64_t sendCount = 0;  ///< sends so far (for crash budgets)
    std::optional<Held> held;     ///< reorder holdback
  };
  struct AtomicStats {
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> suppressedDuplicates{0};
    std::atomic<std::uint64_t> delayed{0};
    std::atomic<std::uint64_t> reordered{0};
    std::atomic<std::uint64_t> stalled{0};
    std::atomic<std::uint64_t> crashed{0};
    std::atomic<std::uint64_t> recovered{0};
  };

  std::size_t idx(int src) const { return static_cast<std::size_t>(src); }

  FaultPlan plan_;
  AtomicStats stats_;
  std::vector<char> stalled_;  // by pid; written only while no traffic runs
  std::vector<char> crashy_;   // by pid; same discipline
  /// Sized once in the constructor; never resized, so the embedded
  /// mutexes stay put.
  std::vector<SrcState> src_;
  std::atomic<std::size_t> heldCount_{0};
  std::atomic<std::uint64_t> nextDupId_{1};
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
