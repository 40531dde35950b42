// Snapshot images for deterministic checkpoint/restore (DESIGN.md §11).
//
// XDP's thesis — placement as an explicit compile-time representation —
// makes run-time state unusually snapshotable: a processor's entire data
// state is its run-time symbol table (segment descriptor triplets plus
// element payloads), its control state is a point between two bytecode
// instructions of a deterministically executed program, and the fabric's
// in-flight state is a finite set of named messages and posted receives.
// A snapshot is therefore compact, exact, and *verifiable*: restoring it
// and running to completion must produce a result digest bit-identical to
// the uninterrupted run.
//
// Layering: xdp::ckpt depends only on xdp::support. Each layer (rt, net,
// interp) serializes itself to an opaque byte image using the bounds-
// checked Writer/Reader in io.hpp; this header defines only the
// layer-neutral containers and the error/signal types.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "xdp/support/check.hpp"

namespace xdp::ckpt {

/// Error raised for any snapshot defect: truncated file, bit-flipped
/// record (checksum mismatch), version-mismatched header, image/runtime
/// shape disagreement, or recovery-budget exhaustion. In the XdpError
/// hierarchy so session containment reports it structurally.
class CkptError : public XdpError {
 public:
  explicit CkptError(std::string what)
      : XdpError("checkpoint error: " + std::move(what)) {}
};

/// Thrown through a node program to unwind it for crash recovery. NOT a
/// std::exception on purpose: session containment and SPMD failure
/// aggregation catch std::exception, and a recovery unwind must never be
/// mistaken for a program failure.
struct RollbackSignal {
  int source = -1;  ///< pid whose simulated crash requested the rollback
};

/// Thrown through a node program to unwind it for preemption (the serve
/// layer checkpoints the session to a spill file and resumes it later).
/// Like RollbackSignal, deliberately not a std::exception.
struct PreemptSignal {};

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Engine-agnostic count of per-processor interpreter counters carried in
/// a continuation image (mirrors interp::InterpStats; the ckpt layer
/// treats them as an opaque ordered array).
inline constexpr int kNumContStats = 9;
/// Position of the executed-statement count in that array: park
/// thresholds and snapshot capture steps are measured in it.
inline constexpr int kContStmtsExecuted = 2;

/// Continuation engines. Tag 1 belonged to the retired tree-walker
/// continuation format; it is never written, and resuming it is an error.
enum class ContEngine : std::uint8_t { None = 0, Vm = 2 };

/// One processor's continuation: where its node program stands, captured
/// at a statement boundary. `payload` is engine-encoded (the VM's pc +
/// register file) and opaque to this layer. `unsafe` marks a continuation published
/// before a statement that is not safely re-executable (kernel calls may
/// block mid-way after side effects); a coordinated capture refuses to
/// cut there and retries.
struct ContImage {
  std::uint8_t engine = 0;  ///< ContEngine
  bool finished = false;    ///< node program ran to completion
  bool unsafe = false;      ///< not a clean re-execution point
  std::array<std::uint64_t, kNumContStats> stats{};
  std::vector<std::byte> payload;
};

/// A whole-run snapshot: one table image per processor, one fabric image,
/// one continuation per processor. Byte images are produced/consumed by
/// the owning layer; this struct plus io.hpp define the container format.
struct Snapshot {
  std::uint32_t version = kSnapshotVersion;
  std::uint8_t backend = 0;       ///< interp::Backend the run used
  int nprocs = 0;
  std::uint64_t programHash = 0;  ///< caller-chosen program identity (0 = unchecked)
  std::uint64_t captureStep = 0;  ///< capture generation that produced this
  std::vector<std::vector<std::byte>> tables;  ///< per-pid ProcTable image
  std::vector<std::byte> fabric;               ///< fabric in-flight image
  std::vector<ContImage> conts;                ///< per-pid continuation
};

/// Checkpointing knobs (Runtime::enableCheckpointing).
struct CkptOptions {
  /// Auto-checkpoint: each processor parks at every multiple of this many
  /// executed statements and the first parker coordinates a capture.
  /// 0 disables auto-checkpointing (manual checkpoint() still works).
  std::uint64_t intervalSteps = 0;
  /// Directory for snapshot persistence (empty: in-memory ring only).
  std::string dir;
  /// Crash-recovery budget per run; exhausting it raises CkptError.
  int maxRecoveries = 8;
};

}  // namespace xdp::ckpt
