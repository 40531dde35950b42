// Cooperative fibers: every simulated processor of one machine runs as a
// fiber on the thread that starts the machine (DESIGN.md §5).
//
// The scheduler switches fibers only when one parks (an await, a barrier
// wait, a checkpoint boundary), yields or finishes, and it always runs the
// runnable fiber with the lowest virtual clock next, ties going to the
// lowest id, so a schedule is a function of the program alone. When no
// fiber can run and some have not finished, it calls the stall handler,
// which may wake fibers or cancel them; a stall the handler leaves
// unresolved fails every parked fiber with a DeadlockError.
//
// Code on a fiber holds no lock across park() or a yield, and never parks
// or yields inside a catch handler: the C++ runtime keeps the stack of
// caught exceptions per thread, not per fiber.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

namespace xdp {

class FiberScheduler {
 public:
  using Body = std::function<void(int id)>;
  /// Virtual clock of fiber `id`, read while that fiber is not running: it
  /// may change only while the fiber runs, or while it is parked.
  using ClockFn = std::function<double(int id)>;
  using StallFn = std::function<void(FiberScheduler&)>;

  /// Run body(i) for every i in [0, n) as fibers on the calling thread and
  /// return once all have finished. Element i of the result is fiber i's
  /// exception, or null. A fiber whose stack cannot be allocated records
  /// that failure and never runs. Without a clock every fiber reads 0.
  static std::vector<std::exception_ptr> run(int n, const Body& body,
                                             ClockFn clock = {},
                                             StallFn stall = {});

  /// The scheduler whose fiber is running on this thread; null elsewhere
  /// (including in a stall handler).
  static FiberScheduler* current();

  int self() const;  ///< id of the running fiber
  /// Suspend the running fiber until wake(self()); throws what
  /// cancelParked() left it.
  void park();
  /// Make a parked fiber runnable; no-op in any other state. Only fibers
  /// of the scheduler running on this thread may be woken.
  void wake(int id);
  /// Wake every parked fiber; its park() throws `err` (a deadlock report,
  /// a recovery signal, a session cancellation).
  void cancelParked(const std::exception_ptr& err);
  /// Let the runnable fibers run first when one's clock is strictly lower
  /// than the running fiber's (the policy at sends and receive posts).
  void yieldIfBehind();

  bool finished(int id) const;
  bool anyRunnable() const { return !ready_.empty(); }

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

 private:
  enum class State { Ready, Running, Parked, Done };
  struct Fiber {
    FiberScheduler* sched = nullptr;
    int id = -1;
    State state = State::Ready;
    void* sp = nullptr;     ///< saved stack pointer while switched out
    void* stack = nullptr;  ///< mapping base (guard page first)
    double clock = 0.0;
    bool clockStale = true;
    std::exception_ptr error;   ///< the body's exception
    std::exception_ptr cancel;  ///< thrown out of park() on resumption
    void* asanFakeStack = nullptr;
    void* tsanFiber = nullptr;
  };

  FiberScheduler(int n, const Body& body, ClockFn clock, StallFn stall);
  ~FiberScheduler();

  void loop();
  Fiber* takeNext();
  double clockOf(Fiber& f);
  /// Switch from the running fiber, now in state `next`, back to loop().
  void suspend(State next);
  [[noreturn]] static void entry(Fiber* f);

  const Body& body_;
  ClockFn clock_;
  StallFn stall_;
  std::vector<Fiber> fibers_;
  std::vector<Fiber*> ready_;
  Fiber* cur_ = nullptr;
  int live_ = 0;
  void* mainSp_ = nullptr;
  const void* mainStackLo_ = nullptr;
  std::size_t mainStackSize_ = 0;
  void* mainAsanFakeStack_ = nullptr;
  void* mainTsanFiber_ = nullptr;
};

}  // namespace xdp
