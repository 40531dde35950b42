// Coordinated-capture controller (DESIGN.md §11).
//
// One Controller instance per checkpoint-enabled Runtime. It owns the
// per-processor continuation slots and the boundary parks:
//
//   * Engines *publish* a continuation image into their slot immediately
//     before every possibly-blocking statement (publish-before-block), so
//     a processor parked in an await always has a valid restart point on
//     file: re-executing the published statement from scratch is safe
//     because awaits block before any side effect of their statement.
//   * Auto-checkpointing parks each processor's fiber when its own
//     executed-statement count crosses the next multiple of the
//     configured interval. The capture is a rule the runtime applies when
//     the machine's scheduler finds nothing runnable (settle()).
//   * requestRollback()/requestPreempt() raise a signal: running engines
//     observe it at statement boundaries, and once nothing runs the
//     runtime cancels every parked processor with it (signalError()); all
//     unwind with RollbackSignal/PreemptSignal (plain structs, invisible
//     to std::exception handlers).
//
// Like the Runtime that owns it, a controller is used by one thread at a
// time: the machine's fibers, or the scheduler's stall handler. The hot
// paths (signal(), nextParkAt()) are single loads.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "xdp/ckpt/image.hpp"
#include "xdp/support/fiber.hpp"

namespace xdp::ckpt {

class Controller {
 public:
  Controller(int nprocs, CkptOptions opts);

  const CkptOptions& options() const { return opts_; }

  // --- engine hot path -------------------------------------------------
  /// 0 none / 1 rollback / 2 preempt.
  int signal() const { return signal_; }
  std::uint64_t nextParkAt(int pid) const {
    return slots_[static_cast<std::size_t>(pid)].nextParkAt;
  }

  /// Record `img` as pid's restart point (called before any possibly-
  /// blocking statement, and on park/preempt).
  void publish(int pid, ContImage img);

  /// Throw the pending signal, if any, publishing `img` first so a
  /// preemption snapshot sees the current position. No-op when clear.
  void deliverSignal(int pid, ContImage img);

  /// The pending signal as an exception to cancel parked processors with
  /// (their slots already hold the image published before they parked or
  /// blocked). Null when clear.
  std::exception_ptr signalError() const;

  /// Publish `img`, advance the park threshold and park this processor's
  /// fiber until settle() releases it (or a signal cancels it). Parking
  /// outside net::runSpmd is a UsageError.
  void parkAtBoundary(int pid, ContImage img);

  /// Mark pid's node program complete (its slot becomes a finished
  /// continuation).
  void finish(int pid);
  /// Mark pid's node program as ended by an exception.
  void markFailed(int pid);

  // --- runtime side ----------------------------------------------------
  /// The capture rule, applied when the scheduler finds nothing runnable
  /// and no signal is pending. No-op, returning false, unless some
  /// processor is parked at a boundary. Then a failed processor or
  /// `barrierEntrants` > 0 abandons the attempt (counted in
  /// captureFailures(), since such a processor can never reach a
  /// boundary); otherwise `capture` exports and stores the snapshot and
  /// returns success. Either way the parked processors are released;
  /// returns true.
  bool settle(int barrierEntrants, const std::function<bool()>& capture);

  void requestRollback(int source);
  void requestPreempt();
  /// Clear the signal and park/capture state between recovery rounds and
  /// seed resume continuations (empty = fresh start). Thresholds restart
  /// at the next interval multiple above each resumed stats count.
  void beginRound(std::vector<ContImage> resume);

  /// Resume image seeded by beginRound, if any (consumed once).
  bool hasResume(int pid) const;
  ContImage takeResume(int pid);

  /// Copy of pid's slot for snapshot export.
  ContImage slotImage(int pid) const;

  /// Deterministic counters.
  std::uint64_t captures() const { return captures_; }
  std::uint64_t captureFailures() const { return captureFailures_; }

 private:
  /// Failed: the node program ended by an exception other than a
  /// recovery signal, so the processor never reaches a boundary again.
  enum class State : std::uint8_t { Running, Parked, Finished, Failed };
  struct Slot {
    ContImage img;
    State state = State::Running;
    int fiber = -1;  ///< the parked fiber, while state == Parked
    std::uint64_t nextParkAt = 0;
    bool hasResume = false;
    ContImage resume;
  };

  /// Wake every processor parked at a boundary.
  void releaseParked();

  const int nprocs_;
  const CkptOptions opts_;
  std::vector<Slot> slots_;

  int signal_ = 0;
  int rollbackSource_ = -1;
  std::uint64_t captures_ = 0;
  std::uint64_t captureFailures_ = 0;
  /// The scheduler of the processors parked at boundaries.
  FiberScheduler* sched_ = nullptr;
};

}  // namespace xdp::ckpt
