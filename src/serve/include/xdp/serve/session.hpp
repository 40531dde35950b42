// Multi-tenant session execution: one tenant's .xdp program run through
// the full pipeline (parse -> static --analyze gate -> optimize ->
// execute) inside a containment boundary that guarantees NOTHING the
// session does — crash, deadlock, runaway loop, memory blow-up, fault-
// injected message loss — can escape to the process hosting it.
//
// The boundary is the SessionScope. Per attempt it composes:
//
//   * an isolated simulated machine (Runtime + Fabric) whose fault plan
//     is the session's own, reseeded per attempt so retries see fresh
//     fault decisions (a deterministic plan would otherwise replay the
//     exact same drops and make retry pointless);
//   * exact deadlock detection: a deadlocked session surfaces at once as
//     a session-level DeadlockError, never a hung server;
//   * enforced quotas (logical steps, resident ProcTable bytes, fabric
//     messages/bytes, wall-time budget) hooked into the interpreter's
//     statement loop and the fabric's send path. The first breach
//     cancels the whole session: running processors throw QuotaExceeded
//     at their next statement, parked processors are cancelled out of
//     await/barrier by the machine's scheduler. A session with no quota
//     and no preemption bound installs neither hook.
//
// Transient fabric faults (drop/delay/reorder/stall) are absorbed at the
// session boundary by bounded retry with exponential backoff; crash
// faults and quota breaches tear the session down immediately. Teardown
// always drains the session fabric (endpoint drain + match-state
// hygiene check) and reports what was reclaimed, so a faulted session
// can never leak state into the server.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "xdp/ckpt/image.hpp"
#include "xdp/il/program.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/net/fault.hpp"

namespace xdp::serve {

/// One-way shutdown gate for retry backoff: sessions wait on it instead
/// of sleeping, so Server teardown interrupts a backoff immediately
/// instead of being delayed by up to the full backoff cap per session.
class StopLatch {
 public:
  void stop() {
    {
      std::lock_guard lk(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }
  bool stopped() const {
    std::lock_guard lk(mu_);
    return stopped_;
  }
  /// Wait up to `ms` milliseconds; true when the latch tripped (the wait
  /// was cut short by shutdown).
  bool waitFor(int ms) {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, std::chrono::milliseconds(ms),
                        [&] { return stopped_; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

/// Per-tenant resource quotas. 0 = unlimited. Enforcement points:
/// `maxSteps`/`maxResidentBytes`/`wallBudgetMs` at the interpreter's
/// per-statement hook (resident bytes and wall clock are sampled every
/// few steps), `maxMessages`/`maxSendBytes` at the fabric send hook
/// (checked before the send changes any fabric state).
struct Quotas {
  std::uint64_t maxSteps = 0;        ///< executed IL statements, all procs
  std::size_t maxResidentBytes = 0;  ///< per-processor ProcTable residency
  std::uint64_t maxMessages = 0;     ///< fabric messages sent
  std::uint64_t maxSendBytes = 0;    ///< fabric payload bytes sent
  int wallBudgetMs = 0;              ///< whole-session wall-clock budget
};

/// Bounded retry with exponential backoff for *transient* failures (a
/// deadlock under a lossy/perturbing fault plan). Attempt k (1-based)
/// sleeps backoffBaseMs << (k-2) before running, capped at backoffCapMs.
struct RetryPolicy {
  int maxAttempts = 3;   ///< total attempts; 1 = never retry
  int backoffBaseMs = 1;
  int backoffCapMs = 50;
};

/// One tenant's job: a program plus its execution envelope.
struct SessionRequest {
  std::string name = "session";
  /// The program, as .xdp source text...
  std::string source;
  /// ...or prebuilt IL (wins over `source` when set).
  std::shared_ptr<const il::Program> program;
  bool usePipeline = false;  ///< apply the standard optimization pipeline
  bool analyze = true;       ///< static Figure-1 gate before execution
  std::uint64_t fillSeed = 42;
  Quotas quotas;
  /// Faults injected into this session's fabric (and nobody else's).
  std::optional<net::FaultPlan> faultPlan;

  // --- checkpoint / recovery envelope ----------------------------------
  /// > 0 enables auto-checkpointing every N executed statements; a
  /// `crashRecover` fault fate then rolls the session back to its last
  /// good snapshot instead of killing it (fail-recover, not fail-stop).
  std::uint64_t checkpointIntervalSteps = 0;
  /// Preempt the session once its statement count crosses this bound: it
  /// is checkpointed, spilled to SessionOptions::spillDir (when set), and
  /// reported as Preempted. 0 = never preempt.
  std::uint64_t preemptAfterSteps = 0;
  /// Resume from a spill file written by a previously preempted session
  /// (Server::readmitSpilled fills this in). The file's snapshot is
  /// restored before execution and deleted once the session completes.
  std::string resumeFrom;
};

enum class SessionOutcome {
  Completed,         ///< ran to completion; resultDigest is valid
  RejectedParse,     ///< source did not parse
  RejectedAnalysis,  ///< static verifier found errors; never executed
  QuotaExceeded,     ///< a quota breach cancelled the session
  Crashed,           ///< a crash fault killed an endpoint mid-run
  Deadlocked,        ///< diagnosed deadlock (retries exhausted)
  Preempted,         ///< checkpointed and unwound; resumable from spill
  Failed,            ///< any other error
};
const char* outcomeName(SessionOutcome o);

/// Structured account of what the checkpoint/recovery machinery did for
/// one session (all zero when the session ran without a checkpoint
/// envelope).
struct RecoveryReport {
  std::uint64_t snapshots = 0;       ///< coordinated captures accepted
  std::uint64_t snapshotBytes = 0;   ///< encoded size of the newest one
  std::uint64_t snapshotRecords = 0; ///< record count of the newest one
  std::uint64_t recoveries = 0;      ///< crash rollbacks completed
  std::uint64_t fallbacks = 0;       ///< corrupt snapshots skipped at load
  bool resumed = false;              ///< session started from a spill file
  std::string spillPath;  ///< spill written on preemption ("" if none)
};

/// Everything the server knows about a finished session. For failures,
/// the stats/hygiene fields describe the *final* attempt.
struct SessionReport {
  std::uint64_t id = 0;
  std::string name;
  SessionOutcome outcome = SessionOutcome::Failed;
  std::string error;          ///< what() of the final failure ("" if none)
  std::string quotaResource;  ///< breached quota (outcome QuotaExceeded)
  int attempts = 0;           ///< 1 + retries used
  int nprocs = 0;

  /// FNV-1a over every declared array's gathered contents (Completed
  /// only) — bit-identical runs produce identical digests.
  std::uint64_t resultDigest = 0;

  interp::InterpStats stats;
  net::NetStats net;
  net::FaultStats faults;
  RecoveryReport recovery;
  double makespan = 0.0;  ///< modeled seconds
  double wallMs = 0.0;    ///< real time, all attempts + backoff

  // --- teardown hygiene -------------------------------------------------
  /// What draining the session fabric reclaimed (leaked() == 0 for a
  /// clean session).
  net::DrainReport drained;
  /// Bytes still resident in the session's ProcTables at teardown,
  /// summed over processors (reclaimed with the session; recorded so
  /// leak trends are visible).
  std::size_t residentBytesAtTeardown = 0;
  /// Post-drain re-check: fabric shows zero undelivered messages, zero
  /// pending receives, zero held faults. False means reclamation itself
  /// is broken — test_serve_chaos asserts this never happens.
  bool hygieneClean = false;
};

/// Server-level execution knobs shared by every session (the per-tenant
/// envelope rides in SessionRequest). Sessions always run the bytecode VM.
struct SessionOptions {
  bool debugChecks = true;
  net::CostModel costModel{};
  RetryPolicy retry{};
  /// Directory for preemption spill files. Empty: a preempted session
  /// still reports Preempted but its snapshot is discarded (nothing to
  /// resume from).
  std::string spillDir;
  /// When set, retry backoff waits on this latch instead of sleeping, so
  /// server shutdown interrupts sessions mid-backoff (the Server wires
  /// its own latch in; standalone runSession callers may leave it null).
  StopLatch* stopLatch = nullptr;
};

/// Run one session synchronously in the calling thread (the server's
/// workers call this; tests use it for solo reference runs). Never
/// throws for session-contained failures — every outcome, including
/// parse errors and quota kills, is a SessionReport.
SessionReport runSession(const SessionRequest& req,
                         const SessionOptions& opts = {},
                         std::uint64_t id = 0);

// --- preemption spill files ---------------------------------------------
// A spill file ("<dir>/<name>-<id>.xdpspill") is the request's execution
// envelope plus the encoded snapshot, with a whole-file FNV-1a trailer on
// top of the snapshot's own per-record checksums. Only source-backed
// sessions can spill: prebuilt-IL requests have no serializable program
// identity, so they report Preempted with an empty spillPath.

/// The engine tag sessions stamp into snapshots and spill envelopes (the
/// VM's interp::Backend value). Spills carrying any other tag, such as the
/// retired tree walker's 0, are foreign and stay on disk.
inline constexpr std::uint8_t kSessionBackend =
    static_cast<std::uint8_t>(interp::Backend::Bytecode);

/// One preempted session at rest.
struct SpillFile {
  std::uint64_t id = 0;
  std::string name;
  std::uint64_t fillSeed = 42;
  bool usePipeline = false;
  bool analyze = true;
  std::uint64_t checkpointIntervalSteps = 0;
  std::uint8_t backend = 0;  ///< interp::Backend the snapshot belongs to
  std::string source;        ///< the program, as .xdp source text
  std::vector<std::byte> snapshot;  ///< encoded ckpt::Snapshot
};

std::string spillFilePath(const std::string& dir, std::uint64_t id,
                          const std::string& name);
void writeSpillFile(const std::string& path, const SpillFile& s);
/// Throws ckpt::CkptError on any defect (bad magic, truncation, checksum
/// mismatch) — a torn spill is rejected, never partially admitted.
SpillFile readSpillFile(const std::string& path);

}  // namespace xdp::serve
