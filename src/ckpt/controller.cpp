#include "xdp/ckpt/controller.hpp"

#include "xdp/support/check.hpp"

namespace xdp::ckpt {

namespace {

/// The first multiple of `interval` strictly above `count` (never, with
/// auto-checkpointing off). Naive code steps the count by one and parks
/// exactly on a multiple, so this is the old threshold plus one interval;
/// a range split credits many statements at once and may carry the count
/// several intervals past the threshold that fired.
std::uint64_t nextThreshold(std::uint64_t count, std::uint64_t interval) {
  if (interval == 0) return ~0ULL;
  return (count / interval + 1) * interval;
}

}  // namespace

Controller::Controller(int nprocs, CkptOptions opts)
    : nprocs_(nprocs),
      opts_(std::move(opts)),
      slots_(static_cast<std::size_t>(nprocs)) {
  for (Slot& slot : slots_)
    slot.nextParkAt = nextThreshold(0, opts_.intervalSteps);
}

void Controller::publish(int pid, ContImage img) {
  slots_[static_cast<std::size_t>(pid)].img = std::move(img);
}

void Controller::deliverSignal(int pid, ContImage img) {
  if (signal_ == 0) return;
  publish(pid, std::move(img));
  std::rethrow_exception(signalError());
}

void Controller::parkAtBoundary(int pid, ContImage img) {
  Slot& slot = slots_[static_cast<std::size_t>(pid)];
  // Advance before anything can throw: a failed or interrupted attempt
  // must not re-park at the same boundary.
  slot.nextParkAt =
      nextThreshold(img.stats[kContStmtsExecuted], opts_.intervalSteps);
  publish(pid, std::move(img));
  FiberScheduler* sched = FiberScheduler::current();
  if (sched == nullptr)
    throw UsageError("checkpoint park outside net::runSpmd");
  sched_ = sched;
  slot.state = State::Parked;
  slot.fiber = sched->self();
  struct Unpark {
    Slot& slot;
    ~Unpark() { slot.state = State::Running; }
  } unpark{slot};
  sched->park();  // settle() releases it; a signal cancels it
}

void Controller::finish(int pid) {
  Slot& slot = slots_[static_cast<std::size_t>(pid)];
  slot.state = State::Finished;
  slot.img.finished = true;
  slot.img.unsafe = false;
}

void Controller::markFailed(int pid) {
  slots_[static_cast<std::size_t>(pid)].state = State::Failed;
}

bool Controller::settle(int barrierEntrants,
                        const std::function<bool()>& capture) {
  bool parked = false;
  bool failed = false;
  for (const Slot& slot : slots_) {
    parked = parked || slot.state == State::Parked;
    failed = failed || slot.state == State::Failed;
  }
  if (!parked) return false;
  // Nothing runs, so nothing changes until someone is woken: a barrier
  // entrant or a failed processor can never reach a boundary, so the cut
  // cannot form; otherwise every processor is parked, blocked in an await
  // with its restart point published, or finished.
  const bool ok = !failed && barrierEntrants == 0 && capture();
  (ok ? captures_ : captureFailures_) += 1;
  releaseParked();
  return true;
}

void Controller::releaseParked() {
  for (const Slot& slot : slots_)
    if (slot.state == State::Parked) sched_->wake(slot.fiber);
}

void Controller::requestRollback(int source) {
  rollbackSource_ = source;
  signal_ = 1;
}

void Controller::requestPreempt() {
  if (signal_ == 0) signal_ = 2;  // never downgrade a rollback in flight
}

std::exception_ptr Controller::signalError() const {
  switch (signal_) {
    case 1:
      return std::make_exception_ptr(RollbackSignal{rollbackSource_});
    case 2:
      return std::make_exception_ptr(PreemptSignal{});
    default:
      return nullptr;
  }
}

void Controller::beginRound(std::vector<ContImage> resume) {
  signal_ = 0;
  rollbackSource_ = -1;
  sched_ = nullptr;
  for (int pid = 0; pid < nprocs_; ++pid) {
    Slot& slot = slots_[static_cast<std::size_t>(pid)];
    slot.state = State::Running;
    slot.img = ContImage{};
    slot.hasResume = false;
    std::uint64_t base = 0;
    if (pid < static_cast<int>(resume.size())) {
      slot.resume = std::move(resume[static_cast<std::size_t>(pid)]);
      slot.hasResume = true;
      base = slot.resume.stats[kContStmtsExecuted];
    }
    slot.nextParkAt = nextThreshold(base, opts_.intervalSteps);
  }
}

bool Controller::hasResume(int pid) const {
  return slots_[static_cast<std::size_t>(pid)].hasResume;
}

ContImage Controller::takeResume(int pid) {
  Slot& slot = slots_[static_cast<std::size_t>(pid)];
  slot.hasResume = false;
  return std::move(slot.resume);
}

ContImage Controller::slotImage(int pid) const {
  return slots_[static_cast<std::size_t>(pid)].img;
}

}  // namespace xdp::ckpt
