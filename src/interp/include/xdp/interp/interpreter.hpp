// The IL+XDP interpreter: executes a program as the SPMD node program of
// every simulated processor, mapping IL transfer statements onto the
// xdp::rt runtime (our "code generation" stage — on a real machine the
// back end would emit communication-library calls here instead; see paper
// section 3.2 on delayed binding).
//
// Compute-rule semantics (paper section 2.4): a rule evaluates to false if
// it references the *value* of any section the processor does not own;
// intrinsic arguments are names, not values, and never trigger this.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "xdp/il/program.hpp"
#include "xdp/rt/proc.hpp"

namespace xdp::interp {

namespace bc {
struct Module;  // compiled bytecode (xdp/interp/bytecode.hpp)
}

using sec::Index;
using sec::Section;

/// Per-processor execution counters. `rulesEvaluated - rulesTrue` is the
/// wasted guard work that ComputeRuleElimination removes (paper 2.4).
/// The counters describe *logical* work: a guarded loop the VM executes
/// by range splitting still reports one rule evaluation per iteration,
/// so exact-count expectations are independent of how the loop ran; the
/// fast-path counters below record what was actually saved.
struct InterpStats {
  std::uint64_t rulesEvaluated = 0;
  std::uint64_t rulesTrue = 0;
  std::uint64_t stmtsExecuted = 0;
  std::uint64_t loopIterations = 0;
  std::uint64_t elemAssigns = 0;
  std::uint64_t kernelCalls = 0;

  // --- ownership fast path -----------------------------------------------
  /// Run-time table memo-cache hits on this processor (all state queries).
  std::uint64_t guardCacheHits = 0;
  /// Guarded loops executed by splitting the iteration space via
  /// ownedRanges instead of evaluating the guard per iteration.
  std::uint64_t rangeSplits = 0;
  /// Per-iteration guard evaluations those splits replaced.
  std::uint64_t guardedItersSaved = 0;
  /// Loop executions the VM ran through a fused loop kernel. Like the two
  /// above, not a logical counter; checkpoint continuations do not carry
  /// it.
  std::uint64_t fusedLoops = 0;

  InterpStats& operator+=(const InterpStats& o);
};

/// Called by every executing processor at the top of each statement —
/// the interpreter's step-accounting and cancellation points. Throwing
/// aborts that processor's node program (the exception propagates out of
/// Interpreter::run via the SPMD failure aggregation); xdp::serve hangs
/// per-session step/memory/wall-time quota enforcement off it. A hook
/// may read the processor's table but must not change it, nor yield or
/// park: compiled pure loops keep element windows across it.
using StepHook = std::function<void(rt::Proc&)>;

/// Which execution engine runs the node programs. The VM is the engine;
/// the tree walker is the naive reference the differential tests compare
/// it against. Both produce bit-identical results, NetStats, and logical
/// InterpStats; they differ in speed and in the non-logical fast-path
/// counters (only the VM range-splits, and guardCacheHits differ).
enum class Backend {
  TreeWalk,  ///< reference tree walker: naive schedule, no checkpointing
  Bytecode,  ///< register VM compiled from the IL (xdp/interp/bytecode.hpp)
};

/// Interpreter-level execution switches (distinct from RuntimeOptions,
/// which configure the simulated machine).
struct InterpOptions {
  /// Per-statement hook (see StepHook); empty = no per-step overhead
  /// beyond one branch.
  StepHook stepHook;
  /// Execution engine (see Backend). The program is compiled lazily on
  /// the first run() when Bytecode is selected.
  Backend backend = Backend::Bytecode;
};

/// A computational kernel callable from IL (e.g. fft1D). Receives the
/// executing processor and the resolved (symbol, section) arguments.
using KernelFn =
    std::function<void(rt::Proc&, const std::vector<std::pair<int, Section>>&)>;

class Interpreter {
 public:
  explicit Interpreter(il::Program prog, rt::RuntimeOptions opts = {},
                       InterpOptions iopts = {});
  ~Interpreter();  // out-of-line: bc::Module is incomplete here

  const il::Program& program() const { return prog_; }
  rt::Runtime& runtime() { return rt_; }

  /// Register a kernel by name before run().
  void registerKernel(std::string name, KernelFn fn);

  /// Execute the program body on every processor; joins before returning.
  /// Throws UsageError when the reference walker is asked to run under a
  /// checkpoint controller (checkpointing is a VM feature).
  void run();

  InterpStats stats(int pid) const;
  InterpStats totalStats() const;
  void resetStats();

 private:
  friend class Exec;

  // Universal scalars are interned to dense ids at construction (the IL
  // tree is immutable, so every ScalarRef/ScalarAssign/For node can be
  // resolved once); the executor then runs on a vector-backed environment
  // instead of hashing names per access.
  int scalarIdOfExpr(const il::Expr* e) const;
  int scalarIdOfStmt(const il::Stmt* s) const;
  int numScalars() const { return scalarIds_->count(); }

  il::Program prog_;
  rt::Runtime rt_;
  InterpOptions iopts_;
  std::map<std::string, KernelFn> kernels_;
  std::vector<InterpStats> stats_;
  std::unique_ptr<bc::Module> module_;  ///< lazily compiled (Bytecode)

  /// Shared with the compiled module: its scalar registers are these ids.
  std::shared_ptr<const il::ScalarIds> scalarIds_;
};

}  // namespace xdp::interp
