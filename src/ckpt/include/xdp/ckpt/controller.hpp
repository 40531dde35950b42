// Coordinated-capture controller (DESIGN.md §11).
//
// One Controller instance per checkpoint-enabled Runtime. It owns the
// per-processor continuation slots and the park/capture rendezvous:
//
//   * Engines *publish* a continuation image into their slot immediately
//     before every possibly-blocking statement (publish-before-block), so
//     a processor parked in an await always has a valid restart point on
//     file: re-executing the published statement from scratch is safe
//     because awaits block before any side effect of their statement.
//   * Auto-checkpointing parks each processor when its own executed-
//     statement count crosses the next multiple of the configured
//     interval. The first parker of a generation becomes the capture
//     leader and runs the Runtime-provided capture function, which waits
//     for events — never for a timer — until every processor is parked,
//     finished, or blocked, then exports tables + fabric + slots into a
//     Snapshot. Every transition that can settle or doom the cut bumps a
//     change counter and wakes the leader (see events()).
//   * requestRollback()/requestPreempt() raise an asynchronous signal:
//     running engines observe it at statement boundaries, blocked ones
//     are woken through the Runtime-provided interrupt hook, and all
//     unwind with RollbackSignal/PreemptSignal (plain structs, invisible
//     to std::exception handlers).
//
// Thread-safety: every member is callable from any node thread; the hot
// paths (signal(), nextParkAt()) are single relaxed atomic loads. Lock
// order: a table or barrier lock may be held while calling into the
// controller (notifyCoordinator), never the other way round.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "xdp/ckpt/image.hpp"

namespace xdp::ckpt {

/// Failed: the node program ended by an exception other than a recovery
/// signal, so the processor can never be pinned again this round.
enum class ProcState : std::uint8_t {
  Running = 0,
  Parked = 1,
  Finished = 2,
  Failed = 3,
};

class Controller {
 public:
  Controller(int nprocs, CkptOptions opts);

  int nprocs() const { return nprocs_; }
  const CkptOptions& options() const { return opts_; }

  // --- engine hot path -------------------------------------------------
  /// 0 none / 1 rollback / 2 preempt.
  int signal() const { return signal_.load(std::memory_order_relaxed); }
  std::uint64_t parkInterval() const { return opts_.intervalSteps; }
  std::uint64_t nextParkAt(int pid) const {
    return slots_[static_cast<std::size_t>(pid)]->nextParkAt.load(
        std::memory_order_relaxed);
  }

  /// Record `img` as pid's restart point (called before any possibly-
  /// blocking statement, and on park/preempt).
  void publish(int pid, ContImage img);

  /// Throw the pending signal, if any, publishing `img` first so a
  /// preemption snapshot sees the current position. No-op when clear.
  void deliverSignal(int pid, ContImage img);

  /// Throw the pending signal without republishing (blocked engines poll
  /// this from the table's wait-interrupt hook; their slot already holds
  /// the image published before the blocking statement). No-op when clear.
  void checkSignal() {
    if (signal_.load(std::memory_order_acquire) != 0) throwSignal();
  }

  /// Publish `img`, park at this statement boundary, lead or join the
  /// capture rendezvous, advance the park threshold, and resume (or
  /// throw, if a rollback/preempt signal arrives while parked).
  void parkAtBoundary(int pid, ContImage img);

  /// Mark pid's node program complete (its slot becomes a finished
  /// continuation).
  void finish(int pid);
  /// Mark pid's node program as ended by an exception.
  void markFailed(int pid);
  /// Wake the capture leader: some processor stopped running (an await
  /// parked, a barrier gained an entrant). Called under the table or
  /// barrier lock that makes the new state observable, so the leader
  /// either sees the state or sees the counter move.
  void notifyCoordinator();

  // --- runtime side ----------------------------------------------------
  /// Capture function: performs validation + export + store; returns
  /// success. Runs on the capture leader's thread with no controller
  /// locks held.
  void setCaptureFn(std::function<bool()> fn);
  /// Interrupt hook: wake every blocked processor so it can observe the
  /// signal (the Runtime notifies every table's condition variable).
  void setInterruptFn(std::function<void()> fn);

  void requestRollback(int source);
  void requestPreempt();
  /// Clear the signal and park/capture state between recovery rounds and
  /// seed resume continuations (empty = fresh start). Thresholds restart
  /// at the next interval multiple above each resumed stats count.
  void beginRound(std::vector<ContImage> resume);

  /// Pid whose simulated crash requested the current/last rollback.
  int rollbackSource() const { return rollbackSource_; }

  /// Resume image seeded by beginRound, if any (consumed once).
  bool hasResume(int pid) const;
  ContImage takeResume(int pid);

  /// Copy of pid's slot for snapshot export.
  ContImage slotImage(int pid) const;
  ProcState slotState(int pid) const;

  /// How the capture leader sees pid. Pinned: finished, or parked *for
  /// this capture's generation*. A slot can read Parked long after its
  /// capture ended — the waiter's wake predicate is already true, it just
  /// hasn't been scheduled yet — and such a processor is logically
  /// running, so it is Free (it may wake mid-export and mutate tables or
  /// fabric). Failed: see ProcState. Free: running, or blocked in a wait
  /// the runtime classifies.
  enum class Pin : std::uint8_t { Free, Pinned, Failed };
  Pin pin(int pid);

  /// Change counter of the transitions that can settle or doom a capture:
  /// parks, finishes, failures, coordinator notifies and signals. An
  /// observation of every processor is a consistent cut when the counter
  /// reads the same before and after it.
  std::uint64_t events();
  /// Block until events() moves past `seen` or a signal is raised.
  void awaitEvent(std::uint64_t seen);

  /// Deterministic counters.
  std::uint64_t captures() const { return captures_.load(); }
  std::uint64_t captureFailures() const { return captureFailures_.load(); }

 private:
  struct Slot {
    mutable std::mutex mu;
    ContImage img;
    ProcState state = ProcState::Running;
    std::uint64_t parkGen = 0;  ///< generation this park belongs to
    std::atomic<std::uint64_t> nextParkAt{0};
    bool hasResume = false;
    ContImage resume;
  };

  [[noreturn]] void throwSignal();
  /// Wake parked followers, the leader and blocked waits for a new signal.
  void wakeForSignal();

  const int nprocs_;
  const CkptOptions opts_;
  std::vector<std::unique_ptr<Slot>> slots_;

  std::atomic<int> signal_{0};
  std::atomic<int> rollbackSource_{-1};
  std::atomic<std::uint64_t> captures_{0};
  std::atomic<std::uint64_t> captureFailures_{0};

  std::mutex mu_;  ///< park rendezvous (never held while capturing)
  std::condition_variable cv_;        ///< parked followers
  std::condition_variable leaderCv_;  ///< the capture leader (events_)
  bool captureActive_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t events_ = 0;

  std::function<bool()> captureFn_;
  std::function<void()> interruptFn_;
};

}  // namespace xdp::ckpt
