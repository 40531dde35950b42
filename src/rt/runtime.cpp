#include "xdp/rt/runtime.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "xdp/net/spmd.hpp"
#include "xdp/rt/dump.hpp"
#include "xdp/rt/proc.hpp"
#include "xdp/support/check.hpp"

namespace xdp::rt {

Runtime::Runtime(int nprocs, RuntimeOptions opts)
    : nprocs_(nprocs), opts_(opts), fabric_(nprocs, opts.costModel) {
  if (opts_.faultPlan.has_value()) fabric_.setFaultPlan(*opts_.faultPlan);
  fabric_.setCompletion(
      [this](int pid, const net::RecvDesc& d, const net::Message& msg) {
        completeReceive(pid, d, msg);
      });
}

void Runtime::completeReceive(int pid, const net::RecvDesc& d,
                              const net::Message& msg) {
  // Scatter the payload into the destination sections, in order; a plain
  // ownership transfer carries no values and only settles the sections.
  ProcTable& t = *tables_[static_cast<std::size_t>(pid)];
  const std::size_t sz = elemSize(t.decl(d.dstSym).type);
  const bool value = msg.kind == net::TransferKind::Data || d.withValue;
  if (opts_.debugChecks && msg.kind == net::TransferKind::Data) {
    std::size_t expect = static_cast<std::size_t>(d.dst.count());
    for (const Section& s : d.rest)
      expect += static_cast<std::size_t>(s.count());
    if (msg.payload.size() != expect * sz)
      XDP_USAGE_FAIL("matched send/receive transfer different sizes");
  }
  const std::byte* p = value ? msg.payload.data() : nullptr;
  t.completeReceive(d.dstSym, d.dst, p, msg.arrival);
  std::size_t off = static_cast<std::size_t>(d.dst.count()) * sz;
  for (const Section& s : d.rest) {
    t.completeReceive(d.dstSym, s, value ? p + off : nullptr, msg.arrival);
    off += static_cast<std::size_t>(s.count()) * sz;
  }
}

Runtime::~Runtime() = default;

int Runtime::declareArray(std::string name, ElemType type, Section global,
                          Distribution dist, SegmentShape segShape) {
  XDP_CHECK(dist.nprocs() <= nprocs_,
            "distribution uses more processors than the machine has");
  XDP_CHECK(dist.global() == global,
            "distribution global shape must equal the array's global shape");
  SymbolDecl d;
  d.index = static_cast<int>(decls_.size());
  d.name = std::move(name);
  d.type = type;
  d.global = std::move(global);
  d.dist = std::move(dist);
  d.segShape = segShape;
  decls_.push_back(std::move(d));
  return decls_.back().index;
}

void Runtime::run(const std::function<void(Proc&)>& node) {
  preempted_ = false;
  preemptSnap_.reset();
  std::vector<ckpt::ContImage> resume;
  bool restored = false;
  if (ctrl_ && pendingRestore_.has_value()) {
    ckpt::Snapshot snap = std::move(*pendingRestore_);
    pendingRestore_.reset();
    resume = applySnapshot(snap);
    restored = true;
  }
  int rollbacks = 0;
  for (;;) {
    if (!restored) {
      // Region hygiene: drop any match state leaked by a previous (buggy
      // or faulted) run so stale completion callbacks and leaked receives
      // can never touch the fresh tables.
      fabric_.resetBarrier();
      fabric_.clearMatchState();
      tables_.clear();
      tables_.resize(static_cast<std::size_t>(nprocs_));
      for (int p = 0; p < nprocs_; ++p)
        tables_[static_cast<std::size_t>(p)] =
            std::make_unique<ProcTable>(p, decls_, opts_.debugChecks);
    }
    restored = false;
    if (ctrl_) {
      ctrl_->beginRound(std::move(resume));
      resume.clear();
      // Genesis snapshot, taken before any node fiber runs: a crash
      // before the first interval capture rolls back to the start.
      if (store_->empty()) store_->add(buildSnapshot());
    }
    runRound(node);
    if (!ctrl_) break;
    const int sig = ctrl_->signal();
    if (sig == 1) {
      recoveries_ += 1;
      if (++rollbacks > ctrl_->options().maxRecoveries) {
        std::ostringstream os;
        os << "recovery budget exhausted (" << ctrl_->options().maxRecoveries
           << " rollbacks in one run)";
        throw ckpt::CkptError(os.str());
      }
      resume = applySnapshot(store_->loadLatestGood());
      fabric_.disarmCrashes();
      restored = true;
      continue;
    }
    if (sig == 2) {
      // Every unwound processor republished at its throw point (or was
      // blocked with its image already on file), so the machine state is
      // a consistent statement-boundary cut.
      preemptSnap_ = buildSnapshot();
      preempted_ = true;
      return;
    }
    break;
  }

  if (opts_.debugChecks && !fabric_.faultPlanLossy()) {
    if (fabric_.undeliveredCount() != 0) {
      XDP_USAGE_FAIL("SPMD region ended with undelivered messages: a send "
                     "had no matching receive");
    }
    if (fabric_.pendingReceiveCount() != 0) {
      XDP_USAGE_FAIL("SPMD region ended with unmatched posted receives: a "
                     "receive had no matching send");
    }
  }
}

void Runtime::runRound(const std::function<void(Proc&)>& node) {
  std::exception_ptr failure;
  try {
    net::runSpmd(
        nprocs_,
        [&](int pid) {
          try {
            Proc proc(*this, pid);
            node(proc);
            if (ctrl_) ctrl_->finish(pid);
          } catch (const ckpt::RollbackSignal&) {
            // Recovery unwind, not a failure: the round loop rolls the
            // whole machine back to the last good snapshot.
          } catch (const ckpt::PreemptSignal&) {
            // Preemption unwind: the round loop snapshots and returns.
          } catch (...) {
            // This processor can never reach a boundary again: captures
            // must give up on it (Controller::settle).
            if (ctrl_) ctrl_->markFailed(pid);
            throw;
          }
        },
        [this](int pid) { return fabric_.clock(pid); },
        [this](FiberScheduler& sched) { onStall(sched); });
  } catch (...) {
    failure = std::current_exception();
  }

  fabric_.flushHeldFaults();
  // A rollback discards the round wholesale, including any failure another
  // processor hit while the crash unwound it (the restored timeline
  // re-executes deterministically and re-raises anything real).
  if (failure && !(ctrl_ && ctrl_->signal() == 1))
    std::rethrow_exception(failure);
}

void Runtime::onStall(FiberScheduler& sched) {
  // Delivery is synchronous (§12): with every unfinished processor parked,
  // only messages a reorder fault holds back are still in flight.
  fabric_.flushHeldFaults();
  if (sched.anyRunnable()) return;
  if (ctrl_ && ctrl_->signal() != 0) {
    // A rollback or preempt: every parked processor unwinds too. Its
    // restart point was published before it parked or blocked.
    sched.cancelParked(ctrl_->signalError());
    return;
  }
  // Every processor is parked at a boundary, blocked in an await or
  // finished when a capture runs, so the export reads frozen state.
  auto capture = [this] {
    try {
      store_->add(buildSnapshot());
    } catch (const ckpt::CkptError&) {
      return false;  // e.g. an unsafe continuation; retry next interval
    }
    return true;
  };
  if (ctrl_ && ctrl_->settle(fabric_.barrierWaiters(), capture)) return;

  // Nothing can ever run again: every unfinished processor is blocked in
  // an await or at the barrier, and no message can reach it.
  DeadlockDiagnostics diag;
  for (const auto& d : decls_) diag.symbolNames.push_back(d.name);
  int blocked = 0;
  for (int p = 0; p < nprocs_; ++p) {
    const ProcTable::WaitState w =
        tables_[static_cast<std::size_t>(p)]->waitState();
    DeadlockDiagnostics::ProcState ps;
    ps.pid = p;
    if (sched.finished(p)) {
      ps.status = DeadlockDiagnostics::ProcStatus::Finished;
    } else if (w.blocked) {
      ps.status = DeadlockDiagnostics::ProcStatus::BlockedAwait;
      ps.sym = w.sym;
      ps.symName = decls_[static_cast<std::size_t>(w.sym)].name;
      ps.section = w.section.str();
      diag.symbolTables.push_back(
          dumpSymbolTable(*tables_[static_cast<std::size_t>(p)]));
    } else {
      ps.status = DeadlockDiagnostics::ProcStatus::AtBarrier;
    }
    blocked += ps.status == DeadlockDiagnostics::ProcStatus::Finished ? 0 : 1;
    diag.procs.push_back(std::move(ps));
  }
  diag.fabric = fabric_.snapshot();

  std::ostringstream sum;
  sum << "XDP deadlock detected: " << blocked << " of " << nprocs_
      << " processors blocked with no deliverable message";
  sched.cancelParked(
      std::make_exception_ptr(DeadlockError(sum.str(), dumpDeadlock(diag))));
}

ProcTable& Runtime::table(int pid) {
  XDP_CHECK(pid >= 0 && pid < nprocs_, "bad pid");
  XDP_CHECK(tables_.size() == static_cast<std::size_t>(nprocs_),
            "tables not materialized; call run() first");
  return *tables_[static_cast<std::size_t>(pid)];
}

void Runtime::enableCheckpointing(const ckpt::CkptOptions& opts) {
  XDP_CHECK(!ctrl_, "checkpointing already enabled");
  ctrl_ = std::make_unique<ckpt::Controller>(nprocs_, opts);
  store_ = std::make_unique<ckpt::CheckpointStore>(opts.dir);
  fabric_.setCrashHook([this](int src) { ctrl_->requestRollback(src); });
}

std::vector<ckpt::ContImage> Runtime::applySnapshot(
    const ckpt::Snapshot& snap) {
  if (snap.nprocs != nprocs_) {
    std::ostringstream os;
    os << "snapshot is for " << snap.nprocs << " processors, machine has "
       << nprocs_;
    throw ckpt::CkptError(os.str());
  }
  if (snap.tables.size() != static_cast<std::size_t>(nprocs_) ||
      snap.conts.size() != static_cast<std::size_t>(nprocs_))
    throw ckpt::CkptError(
        "snapshot image count disagrees with its processor count");
  fabric_.resetBarrier();
  tables_.clear();
  tables_.resize(static_cast<std::size_t>(nprocs_));
  for (int p = 0; p < nprocs_; ++p) {
    auto& t = tables_[static_cast<std::size_t>(p)];
    t = std::make_unique<ProcTable>(p, decls_, opts_.debugChecks);
    t->restoreImage(snap.tables[static_cast<std::size_t>(p)]);
  }
  // Restored receives are plain RecvDescs: they complete through the
  // routine the constructor installed, like live ones.
  fabric_.restoreImage(snap.fabric);
  return snap.conts;
}

ckpt::Snapshot Runtime::buildSnapshot() {
  XDP_CHECK(ctrl_ != nullptr, "checkpointing not enabled");
  XDP_CHECK(tables_.size() == static_cast<std::size_t>(nprocs_),
            "tables not materialized");
  ckpt::Snapshot s;
  s.version = ckpt::kSnapshotVersion;
  s.backend = ckptBackend_;
  s.nprocs = nprocs_;
  s.programHash = ckptProgramHash_;
  s.conts.reserve(static_cast<std::size_t>(nprocs_));
  s.tables.reserve(static_cast<std::size_t>(nprocs_));
  for (int p = 0; p < nprocs_; ++p) {
    ckpt::ContImage img = ctrl_->slotImage(p);
    if (img.unsafe) {
      std::ostringstream os;
      os << "continuation for p" << p << " is not a clean re-execution point";
      throw ckpt::CkptError(os.str());
    }
    s.captureStep =
        std::max(s.captureStep, img.stats[ckpt::kContStmtsExecuted]);
    s.conts.push_back(std::move(img));
  }
  for (int p = 0; p < nprocs_; ++p)
    s.tables.push_back(tables_[static_cast<std::size_t>(p)]->exportImage());
  s.fabric = fabric_.exportImage();
  return s;
}

ckpt::Snapshot Runtime::checkpoint() { return buildSnapshot(); }

void Runtime::restoreFrom(ckpt::Snapshot snap) {
  XDP_CHECK(ctrl_ != nullptr, "enableCheckpointing before restoreFrom");
  if (snap.version != ckpt::kSnapshotVersion) {
    std::ostringstream os;
    os << "snapshot version " << snap.version << " does not match "
       << ckpt::kSnapshotVersion;
    throw ckpt::CkptError(os.str());
  }
  if (snap.nprocs != nprocs_) {
    std::ostringstream os;
    os << "snapshot is for " << snap.nprocs << " processors, machine has "
       << nprocs_;
    throw ckpt::CkptError(os.str());
  }
  if (snap.programHash != 0 && ckptProgramHash_ != 0 &&
      snap.programHash != ckptProgramHash_)
    throw ckpt::CkptError("snapshot was taken from a different program");
  store_->add(snap);
  pendingRestore_ = std::move(snap);
}

void Runtime::requestPreempt() {
  if (ctrl_) ctrl_->requestPreempt();
}

ckpt::Snapshot Runtime::takePreemptSnapshot() {
  XDP_CHECK(preemptSnap_.has_value(), "no preemption snapshot pending");
  ckpt::Snapshot s = std::move(*preemptSnap_);
  preemptSnap_.reset();
  return s;
}

}  // namespace xdp::rt
