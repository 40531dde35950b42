#include "xdp/ckpt/controller.hpp"

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

void Controller::throwSignal() {
  if (signal_.load(std::memory_order_relaxed) == 2) throw PreemptSignal{};
  throw RollbackSignal{rollbackSource_.load(std::memory_order_relaxed)};
}

void Controller::deliverSignal(int pid, ContImage img) {
  if (signal_.load(std::memory_order_relaxed) == 0) return;
  publish(pid, std::move(img));
  throwSignal();
}

void Controller::parkAtBoundary(int pid, ContImage img) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  // Advance before anything can throw: a failed or interrupted attempt
  // must not re-park at the same boundary.
  slot.nextParkAt.store(
      nextThreshold(img.stats[kContStmtsExecuted], opts_.intervalSteps),
      std::memory_order_relaxed);
  publish(pid, std::move(img));

  std::unique_lock lk(mu_);
  if (signal_.load(std::memory_order_relaxed) != 0) throwSignal();
  {
    std::lock_guard slk(slot.mu);
    slot.state = ProcState::Parked;
    // Tag the park with the generation it belongs to: only a park for the
    // capture currently forming counts as pinned (see pin()). A stale
    // Parked slot from an earlier generation is a waiter whose wake
    // predicate is already true — logically running.
    slot.parkGen = generation_;
  }
  events_ += 1;
  leaderCv_.notify_one();

  if (!captureActive_) {
    captureActive_ = true;
    lk.unlock();
    bool ok = false;
    if (captureFn_) ok = captureFn_();
    (ok ? captures_ : captureFailures_).fetch_add(1);
    lk.lock();
    captureActive_ = false;
    generation_ += 1;
    {
      std::lock_guard slk(slot.mu);
      slot.state = ProcState::Running;
    }
    cv_.notify_all();
  } else {
    const std::uint64_t gen = generation_;
    cv_.wait(lk, [&] {
      return generation_ != gen ||
             signal_.load(std::memory_order_relaxed) != 0;
    });
    {
      std::lock_guard slk(slot.mu);
      slot.state = ProcState::Running;
    }
  }
  if (signal_.load(std::memory_order_relaxed) != 0) throwSignal();
}

void Controller::finish(int pid) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  // State and counter move in one critical section of mu_: a leader that
  // reads the state reads the counter it moved to (see events()).
  std::lock_guard lk(mu_);
  {
    std::lock_guard slk(slot.mu);
    slot.state = ProcState::Finished;
    slot.img.finished = true;
    slot.img.unsafe = false;
  }
  events_ += 1;
  leaderCv_.notify_one();
}

void Controller::markFailed(int pid) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard lk(mu_);
  {
    std::lock_guard slk(slot.mu);
    slot.state = ProcState::Failed;
  }
  events_ += 1;
  leaderCv_.notify_one();
}

void Controller::notifyCoordinator() {
  std::lock_guard lk(mu_);
  events_ += 1;
  leaderCv_.notify_one();
}

std::uint64_t Controller::events() {
  std::lock_guard lk(mu_);
  return events_;
}

void Controller::awaitEvent(std::uint64_t seen) {
  std::unique_lock lk(mu_);
  leaderCv_.wait(lk, [&] {
    return events_ != seen || signal_.load(std::memory_order_relaxed) != 0;
  });
}

void Controller::setCaptureFn(std::function<bool()> fn) {
  captureFn_ = std::move(fn);
}

void Controller::setInterruptFn(std::function<void()> fn) {
  interruptFn_ = std::move(fn);
}

void Controller::requestRollback(int source) {
  rollbackSource_.store(source, std::memory_order_relaxed);
  signal_.store(1, std::memory_order_release);
  wakeForSignal();
}

void Controller::requestPreempt() {
  // Never downgrade a rollback in flight.
  int expect = 0;
  if (!signal_.compare_exchange_strong(expect, 2)) return;
  wakeForSignal();
}

void Controller::wakeForSignal() {
  {
    std::lock_guard lk(mu_);
    events_ += 1;
    cv_.notify_all();
    leaderCv_.notify_one();
  }
  if (interruptFn_) interruptFn_();
}

void Controller::beginRound(std::vector<ContImage> resume) {
  std::lock_guard lk(mu_);
  signal_.store(0, std::memory_order_release);
  rollbackSource_.store(-1, std::memory_order_relaxed);
  captureActive_ = false;
  for (int pid = 0; pid < nprocs_; ++pid) {
    Slot& slot = *slots_[static_cast<std::size_t>(pid)];
    std::lock_guard slk(slot.mu);
    slot.state = ProcState::Running;
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

ProcState Controller::slotState(int pid) const {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard slk(slot.mu);
  return slot.state;
}

Controller::Pin Controller::pin(int pid) {
  Slot& slot = *slots_[static_cast<std::size_t>(pid)];
  std::lock_guard lk(mu_);  // generation_ is guarded by mu_
  std::lock_guard slk(slot.mu);
  switch (slot.state) {
    case ProcState::Finished:
      return Pin::Pinned;
    case ProcState::Failed:
      return Pin::Failed;
    case ProcState::Parked:
      return slot.parkGen == generation_ ? Pin::Pinned : Pin::Free;
    case ProcState::Running:
      break;
  }
  return Pin::Free;
}

}  // namespace xdp::ckpt
