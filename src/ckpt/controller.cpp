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
    : nprocs_(nprocs), opts_(std::move(opts)) {
  slots_.reserve(static_cast<std::size_t>(nprocs_));
  for (int i = 0; i < nprocs_; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->nextParkAt.store(nextThreshold(0, opts_.intervalSteps),
                                    std::memory_order_relaxed);
  }
}

void Controller::publish(int pid, ContImage img) {
  Slot& s = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard lk(s.mu);
  s.img = std::move(img);
}

void Controller::deliverSignal(int pid, ContImage img) {
  if (signal_.load(std::memory_order_relaxed) == 0) return;
  publish(pid, std::move(img));
  std::rethrow_exception(signalError());
}

void Controller::parkAtBoundary(int pid, ContImage img) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  // Advance before anything can throw: a failed or interrupted attempt
  // must not re-park at the same boundary.
  slot.nextParkAt.store(
      nextThreshold(img.stats[kContStmtsExecuted], opts_.intervalSteps),
      std::memory_order_relaxed);
  publish(pid, std::move(img));
  FiberScheduler* sched = FiberScheduler::current();
  if (sched == nullptr)
    throw UsageError("checkpoint park outside net::runSpmd");
  sched_ = sched;
  {
    std::lock_guard slk(slot.mu);
    slot.state = State::Parked;
    slot.fiber = sched->self();
  }
  struct Unpark {
    Slot& slot;
    ~Unpark() {
      std::lock_guard slk(slot.mu);
      slot.state = State::Running;
    }
  } unpark{slot};
  sched->park();  // settle() releases it; a signal cancels it
}

void Controller::finish(int pid) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard slk(slot.mu);
  slot.state = State::Finished;
  slot.img.finished = true;
  slot.img.unsafe = false;
}

void Controller::markFailed(int pid) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard slk(slot.mu);
  slot.state = State::Failed;
}

bool Controller::settle(int barrierEntrants,
                        const std::function<bool()>& capture) {
  bool parked = false;
  bool failed = false;
  for (const auto& slot : slots_) {
    std::lock_guard slk(slot->mu);
    parked = parked || slot->state == State::Parked;
    failed = failed || slot->state == State::Failed;
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
  for (auto& slot : slots_) {
    std::lock_guard slk(slot->mu);
    if (slot->state == State::Parked) sched_->wake(slot->fiber);
  }
}

void Controller::requestRollback(int source) {
  rollbackSource_.store(source, std::memory_order_relaxed);
  signal_.store(1, std::memory_order_release);
}

void Controller::requestPreempt() {
  // Never downgrade a rollback in flight.
  int expect = 0;
  signal_.compare_exchange_strong(expect, 2);
}

std::exception_ptr Controller::signalError() const {
  switch (signal_.load(std::memory_order_relaxed)) {
    case 1:
      return std::make_exception_ptr(
          RollbackSignal{rollbackSource_.load(std::memory_order_relaxed)});
    case 2:
      return std::make_exception_ptr(PreemptSignal{});
    default:
      return nullptr;
  }
}

void Controller::beginRound(std::vector<ContImage> resume) {
  signal_.store(0, std::memory_order_release);
  rollbackSource_.store(-1, std::memory_order_relaxed);
  sched_ = nullptr;
  for (int pid = 0; pid < nprocs_; ++pid) {
    Slot& slot = *slots_[static_cast<std::size_t>(pid)];
    std::lock_guard slk(slot.mu);
    slot.state = State::Running;
    slot.img = ContImage{};
    slot.hasResume = false;
    std::uint64_t base = 0;
    if (pid < static_cast<int>(resume.size())) {
      slot.resume = std::move(resume[static_cast<std::size_t>(pid)]);
      slot.hasResume = true;
      base = slot.resume.stats[kContStmtsExecuted];
    }
    slot.nextParkAt.store(nextThreshold(base, opts_.intervalSteps),
                          std::memory_order_relaxed);
  }
}

bool Controller::hasResume(int pid) const {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard slk(slot.mu);
  return slot.hasResume;
}

ContImage Controller::takeResume(int pid) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard slk(slot.mu);
  slot.hasResume = false;
  return std::move(slot.resume);
}

ContImage Controller::slotImage(int pid) const {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard slk(slot.mu);
  return slot.img;
}

}  // namespace xdp::ckpt
