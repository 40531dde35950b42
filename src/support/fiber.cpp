#include "xdp/support/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "xdp/support/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "the fiber context switch is written for x86-64 (System V ABI)"
#endif

// The context switch. A switched-out context is its stack pointer; the
// stack holds the callee-saved registers, MXCSR and the x87 control word
// (the System V ABI's callee-saved state), under the return address.
// No signal mask is saved: that is what makes swapcontext a syscall.
extern "C" {
void xdp_fiber_switch(void** save, void* load);
void xdp_fiber_start();
}

asm(R"(
  .pushsection .text
  .globl xdp_fiber_switch
  .type xdp_fiber_switch, @function
  .p2align 4
xdp_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size xdp_fiber_switch, .-xdp_fiber_switch

  .globl xdp_fiber_start
  .type xdp_fiber_start, @function
  .p2align 4
xdp_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size xdp_fiber_start, .-xdp_fiber_start
  .popsection
)");

namespace xdp {

namespace {

/// Reserved like a thread's stack; pages commit only when touched. The
/// lowest page is the guard.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kGuardBytes = 4096;
/// Stacks kept per thread for the next machine.
constexpr std::size_t kPooledStacks = 64;

struct StackPool {
  std::vector<void*> free;
  ~StackPool() {
    for (void* s : free) munmap(s, kStackBytes);
  }
};
thread_local StackPool tlsStacks;
thread_local FiberScheduler* tlsCurrent = nullptr;

void* acquireStack() {
  void* s = nullptr;
  if (!tlsStacks.free.empty()) {
    s = tlsStacks.free.back();
    tlsStacks.free.pop_back();
  } else {
    s = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (s == MAP_FAILED) throw XdpError("fiber stack allocation failed");
    if (mprotect(s, kGuardBytes, PROT_NONE) != 0) {
      munmap(s, kStackBytes);
      throw XdpError("fiber stack guard page could not be set");
    }
  }
#if defined(__SANITIZE_ADDRESS__)
  // A stack used before (pooled here, or a mapping the kernel recycled)
  // still carries the redzones of frames that never returned.
  ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(s) + kGuardBytes,
                              kStackBytes - kGuardBytes);
#endif
  return s;
}

void releaseStack(void* s) {
  if (tlsStacks.free.size() < kPooledStacks) {
    tlsStacks.free.push_back(s);
  } else {
    munmap(s, kStackBytes);
  }
}

/// Save the running context in *sp and continue the one saved in `to`,
/// telling the sanitizers. `fake` keeps this context's ASan fake stack
/// while it is switched out (null: this context never resumes); `lo` and
/// `size` bound the stack of `to`.
void switchContext(void** sp, void* to, [[maybe_unused]] void** fake,
                   [[maybe_unused]] const void* lo,
                   [[maybe_unused]] std::size_t size,
                   [[maybe_unused]] void* tsanTo) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake, lo, size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsanTo, 0);
#endif
  xdp_fiber_switch(sp, to);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake ? *fake : nullptr, nullptr, nullptr);
#endif
}

}  // namespace

FiberScheduler* FiberScheduler::current() { return tlsCurrent; }

FiberScheduler::FiberScheduler(int n, const Body& body, ClockFn clock,
                               StallFn stall)
    : body_(body), clock_(std::move(clock)), stall_(std::move(stall)) {
  XDP_CHECK(n >= 1, "a fiber scheduler needs at least one fiber");
  fibers_.resize(static_cast<std::size_t>(n));
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  for (int i = 0; i < n; ++i) {
    Fiber& f = fibers_[static_cast<std::size_t>(i)];
    f.sched = this;
    f.id = i;
    try {
      f.stack = acquireStack();
    } catch (...) {
      f.error = std::current_exception();
      f.state = State::Done;
      continue;
    }
    // The first switch into the fiber pops this frame (see
    // xdp_fiber_switch) and returns into xdp_fiber_start, which calls
    // entry(f) on a 16-byte-aligned stack; a zero rbp ends backtraces.
    auto* frame = reinterpret_cast<std::uint64_t*>(
        static_cast<char*>(f.stack) + kStackBytes - 80);
    frame[0] = mxcsr | (std::uint64_t{fpucw} << 32);
    frame[1] = frame[2] = frame[3] = frame[6] = 0;       // r15 r14 r13 rbp
    frame[4] = reinterpret_cast<std::uint64_t>(&entry);  // r12
    frame[5] = reinterpret_cast<std::uint64_t>(&f);      // rbx
    frame[7] = reinterpret_cast<std::uint64_t>(&xdp_fiber_start);
    f.sp = frame;
#if defined(__SANITIZE_THREAD__)
    f.tsanFiber = __tsan_create_fiber(0);
#endif
    live_ += 1;
    ready_.push_back(&f);
  }
#if defined(__SANITIZE_THREAD__)
  mainTsanFiber_ = __tsan_get_current_fiber();
#endif
}

FiberScheduler::~FiberScheduler() {
  for (Fiber& f : fibers_) {
    if (f.stack != nullptr) releaseStack(f.stack);
  }
}

std::vector<std::exception_ptr> FiberScheduler::run(int n, const Body& body,
                                                    ClockFn clock,
                                                    StallFn stall) {
  FiberScheduler s(n, body, std::move(clock), std::move(stall));
  s.loop();
  std::vector<std::exception_ptr> errors;
  for (Fiber& f : s.fibers_) errors.push_back(std::move(f.error));
  return errors;
}

int FiberScheduler::self() const { return cur_->id; }

bool FiberScheduler::finished(int id) const {
  return fibers_.at(static_cast<std::size_t>(id)).state == State::Done;
}

double FiberScheduler::clockOf(Fiber& f) {
  if (f.clockStale) {
    f.clock = clock_ ? clock_(f.id) : 0.0;
    f.clockStale = false;
  }
  return f.clock;
}

FiberScheduler::Fiber* FiberScheduler::takeNext() {
  auto best = std::min_element(ready_.begin(), ready_.end(),
                               [&](Fiber* a, Fiber* b) {
                                 return std::pair(clockOf(*a), a->id) <
                                        std::pair(clockOf(*b), b->id);
                               });
  Fiber* f = *best;
  *best = ready_.back();
  ready_.pop_back();
  return f;
}

void FiberScheduler::loop() {
  while (live_ > 0) {
    if (ready_.empty()) {
      // Every unfinished fiber is parked: the machine is stuck unless the
      // stall handler can move it.
      std::exception_ptr err;
      try {
        if (stall_) stall_(*this);
      } catch (...) {
        err = std::current_exception();
      }
      if (!err && ready_.empty()) {
        err = std::make_exception_ptr(DeadlockError(
            "deadlock: every unfinished fiber is parked and the stall "
            "handler woke none",
            ""));
      }
      if (err) cancelParked(err);
      continue;
    }
    Fiber& f = *takeNext();
    f.state = State::Running;
    cur_ = &f;
    FiberScheduler* outer = std::exchange(tlsCurrent, this);
    switchContext(&mainSp_, f.sp, &mainAsanFakeStack_,
                  static_cast<char*>(f.stack) + kGuardBytes,
                  kStackBytes - kGuardBytes, f.tsanFiber);
    tlsCurrent = outer;
    cur_ = nullptr;
    if (f.state == State::Done) {
#if defined(__SANITIZE_THREAD__)
      __tsan_destroy_fiber(f.tsanFiber);
#endif
      releaseStack(f.stack);
      f.stack = nullptr;
    }
  }
}

void FiberScheduler::suspend(State next) {
  Fiber& f = *cur_;
  f.state = next;
  if (next == State::Ready) ready_.push_back(&f);
  switchContext(&f.sp, mainSp_, &f.asanFakeStack, mainStackLo_,
                mainStackSize_, mainTsanFiber_);
}

void FiberScheduler::entry(Fiber* f) {
  FiberScheduler& s = *f->sched;
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &s.mainStackLo_,
                                  &s.mainStackSize_);
#endif
  try {
    s.body_(f->id);
  } catch (...) {
    f->error = std::current_exception();
  }
  s.live_ -= 1;
  // Leaving for good: no fake stack to keep.
  f->state = State::Done;
  switchContext(&f->sp, s.mainSp_, nullptr, s.mainStackLo_,
                s.mainStackSize_, s.mainTsanFiber_);
  __builtin_unreachable();
}

void FiberScheduler::park() {
  Fiber& f = *cur_;
  suspend(State::Parked);
  if (f.cancel) std::rethrow_exception(std::exchange(f.cancel, nullptr));
}

void FiberScheduler::wake(int id) {
  Fiber& f = fibers_.at(static_cast<std::size_t>(id));
  if (f.state != State::Parked) return;
  f.state = State::Ready;
  f.clockStale = true;
  ready_.push_back(&f);
}

void FiberScheduler::cancelParked(const std::exception_ptr& err) {
  for (Fiber& f : fibers_) {
    if (f.state != State::Parked) continue;
    f.cancel = err;
    wake(f.id);
  }
}

void FiberScheduler::yieldIfBehind() {
  if (ready_.empty() || !clock_) return;
  const double mine = clock_(cur_->id);
  if (std::none_of(ready_.begin(), ready_.end(),
                   [&](Fiber* r) { return clockOf(*r) < mine; }))
    return;
  cur_->clock = mine;  // frozen until it runs again
  cur_->clockStale = false;
  suspend(State::Ready);
}

}  // namespace xdp
