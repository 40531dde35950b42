// Register-based bytecode for IL+XDP programs — the execution engine
// behind interp::Interpreter (see DESIGN.md §9).
//
// compile() lowers an il::Program, the tree the passes produce, into one
// dense instruction stream per program: scalar arithmetic, For loops,
// guards, and single-point element access become register ops over a
// tagged-slot register file; transfers and ownership intrinsics on rank-1
// literal sections become register code plus one op (XferSite);
// everything else stateful — kernels, general sections — stays a single
// cold instruction (EvalCold / EvalRule / ExecCold) that hands its tree
// node to the cold evaluator. Both call the same rt::Proc the reference
// tree walker uses. Quotas (stepHook), fault injection, deadlock
// detection, and NetStats are therefore untouched, and the logical
// InterpStats counters are bit-identical to the reference walker's naive
// guard-per-iteration schedule. Owner-computes loops additionally compile
// a range-split copy (SplitEnter / SplitRun / SplitNext, see SplitSite)
// that runs only the owned iterations and credits the skipped ones to the
// logical counters.
//
// Register file layout: registers [0, numScalars) ARE the universal
// scalars (register index == il::ScalarIds id, so the cold evaluator
// shares the environment with compiled code); registers above that are
// expression temporaries. Slots start Undef, which is how
// use-of-undefined-scalar is detected — same diagnostic as the tree
// walker.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "xdp/ckpt/controller.hpp"
#include "xdp/il/program.hpp"
#include "xdp/interp/interpreter.hpp"

namespace xdp::interp::bc {

enum class Op : std::uint8_t {
  Halt,        ///< end of program
  Step,        ///< stepHook + stmtsExecuted (top of every hot statement)
  ConstI,      ///< a = ipool[d]
  ConstR,      ///< a = rpool[d]
  MyPid,       ///< a = mypid (int)
  NProcs,      ///< a = nprocs (int)
  Mov,         ///< a = b
  // Binary arithmetic: a = b <op> c, Value-variant semantics (both ints →
  // wrapping int op, else real; Div/Mod trap via xdp::arith; comparisons
  // always compare as real and yield bool).
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  Min, Max,
  Neg,         ///< a = -b (wrapping int / real)
  Not,         ///< a = !asBool(b)
  ToBool,      ///< a = asBool(b)
  ToIndex,     ///< a = asInt(b) — llround + range + integrality checks
  CheckStep,   ///< XDP_CHECK(a > 0, "loop step must be positive")
  Jmp,         ///< pc = d
  JmpIfFalse,  ///< if (!asBool(a)) pc = d
  ForEnter,    ///< if (b > c) pc = d else a = b   (a=var, b=lb, c=ub; ints)
  ForNext,     ///< overflow-safe: if (step <= ub-a) { a += step; pc = d }
               ///< (a=var, b=ub, c=step)
  CountRuleTrue,   ///< stats.rulesTrue += 1
  LoadElem,    ///< a = A_d[regs[b..b+rank)] as real (subscripts are ints)
  StoreElem,   ///< A_d[regs[b..b+rank)] = asReal(a)
  Cost,        ///< proc.compute(asReal(a))
  // Cold path: d indexes Module::coldExprs / coldStmtNodes; the cold
  // evaluator walks that tree node exactly as the reference walker does
  // (including its own Step accounting for ExecCold).
  EvalCold,    ///< a = evalValue(coldExprs[d])
  EvalRule,    ///< a = evalRule(coldExprs[d]): UnownedRef ⇒ false
               ///< (paper 2.4)
  ExecCold,    ///< exec(coldStmtNodes[d]) via the cold evaluator
  // Bookkeeping fused into the op that needs it, so a loop iteration or a
  // statement top is one dispatch.
  ForIter,     ///< loopIterations += 1; a = b
  StepElem,    ///< Step, elemAssigns += 1 (top of a hot element assign)
  StepRule,    ///< Step, rulesEvaluated += 1 (top of a hot guarded statement)
  // Rank-1 affine subscripts (`A[i]`, `A[i±c]`) — the stencil inner-loop
  // shape — skip the Sub/Add + ToIndex temp chain entirely.
  LoadElem1,   ///< a = A_d[asInt(b) +w ipool[c]] (wrapping add, as real)
  IdxAff,      ///< a = asInt(b) +w ipool[c] — store-side subscript, kept
               ///< before the value expression (tree-walker eval order)
  // Guarded-loop range split; d is the SplitSite index.
  SplitEnter,  ///< no checkpoint controller, lb <= ub and the subscripts'
               ///< scalars defined: fall into the coefficient code;
               ///< otherwise pc = naivePc
  SplitRun,    ///< one ownedRanges query; run the owned iterations from
               ///< bodyPc, or pc = naivePc when the split preconditions fail
  SplitNext,   ///< next owned iteration (pc = bodyPc) or leave the loop
               ///< scalar at the last iteration and pc = exitPc
  // Rank-1 transfers and intrinsics (DESIGN.md §9.2); d is the XferSite
  // index. A statement compiles to StepXfer; <section code>; [XferSkip;
  // <destination code>;] Xfer — ExecCold's schedule, with the sections in
  // registers.
  StepXfer,    ///< ExecCold's prologue: boundary, publish (restart here),
               ///< step hook, stmtsExecuted
  CheckStride, ///< a literal section's stride must be >= 1 (as Triplet)
  XferSkip,    ///< the statement's empty check, before its destination
               ///< code (a site with a destination): pc = endPc if it skips
  Xfer,        ///< the transfer (with the empty check, unless XferSkip ran)
  XQuery,      ///< a = iown/accessible/await of the site's section; an
               ///< await publishes (restart here) before it may block
  // Loop kernel (DESIGN.md §9.2); d is the KernelSite index. It heads the
  // per-op copy of its loop, which stays as the fallback.
  LoopKernel,  ///< run the whole loop fused and leave it, or fall into
               ///< the per-op copy (pc + 1) from the first iteration
};

/// Number of opcodes; LoopKernel stays the last one.
inline constexpr std::size_t kNumOps =
    static_cast<std::size_t>(Op::LoopKernel) + 1;

/// One fixed-size instruction. `a`/`b`/`c` are register indices, `rank`
/// the subscript count of LoadElem/StoreElem, `d` an op-specific payload:
/// jump target, pool index, symbol, site, or cold-table index.
struct Insn {
  Op op = Op::Halt;
  std::uint8_t rank = 0;
  std::uint16_t a = 0, b = 0, c = 0;
  std::int32_t d = 0;
};
static_assert(sizeof(Insn) == 12, "Insn packs to 12 bytes");

/// One owner-computes loop `do v = lb, ub, st { rule : body }` (through
/// single-statement blocks) whose rule is iown/accessible of a literal
/// point section affine in v, and whose body cannot change the rule's
/// answer. Its code is, in front of the ordinary (naive) loop:
///   SplitEnter; <coefficient code>; SplitRun; <body copy>; SplitNext
/// SplitRun splits only when every coefficient register holds an Int and
/// the subscript images of the whole loop fit int64 (see DESIGN.md §9.3).
/// SplitEnter takes the naive loop when a scalar the coefficient code
/// reads is undefined, so the naive schedule raises the error where the
/// walker does.
struct SplitSite {
  std::int32_t sym = -1;        ///< the rule's array
  bool accessible = false;      ///< rule is accessible(), not iown()
  bool pure = false;            ///< body copy cannot block (register ops
                                ///< and point element accesses only)
  std::uint16_t var = 0;        ///< loop scalar register
  std::uint16_t lb = 0, ub = 0, step = 0;  ///< loop bound registers
  std::uint32_t chain = 0;      ///< skipped statements per iteration
                                ///< (unwrapped blocks + the guard)
  std::int32_t bodyPc = 0, naivePc = 0, exitPc = 0;
  /// Per subscript: registers of a and b in a * v + b.
  std::vector<std::pair<std::uint16_t, std::uint16_t>> dims;
  /// The scalar registers the subscripts read, the loop scalar excepted.
  std::vector<std::uint16_t> scalars;
};

/// One fused pure loop: the body copy of a pure split site, or a plain
/// loop of register ops and point element accesses, whose body is,
/// through blocks, one to four element assignments to rank-1 arrays with
/// subscripts affine in the loop scalar and values built by + - * / and
/// negation from element reads, literals, loop-invariant scalars and the
/// loop scalar. Its code is
///   SplitRun; LoopKernel; <body copy>; SplitNext     (split copy)
///   ForEnter; LoopKernel; ForIter; <body>; ForNext   (plain loop)
/// On entry LoopKernel evaluates the subscripts' coefficients and every
/// invariant leaf, and asks the table for one window per array and owned
/// range, over the images of all the array's accesses
/// (ProcTable::window1). If any of that fails it falls into
/// the per-op copy; otherwise it runs every iteration over the windows
/// with the per-op copy's hook calls and counters, in order.
struct KernelSite {
  /// A tape node; operands precede their users, the root is last.
  struct Node {
    enum Kind : std::uint8_t {
      Var, IntC, RealC, Scalar, MyPid, NProcs, Load,  // leaves
      Fixed,  ///< a subscript folded at compile time: a * v + b
      Add, Sub, Mul, Div, Neg, Min, Max,
    };
    Kind kind = Var;
    std::uint8_t l = 0, r = 0;  ///< operand nodes
    std::int32_t arg = 0;  ///< IntC/RealC: pool index; Scalar: register;
                           ///< Load: access index; Fixed: a's pool index
    std::int32_t arg2 = 0;  ///< Fixed: b's pool index
  };
  /// An element access; its subscript is a subtree of `subs`.
  struct Access {
    std::uint8_t sym = 0;  ///< index into `syms`
    bool i64 = false;
    std::uint8_t sub = 0;  ///< root node in `subs`
  };
  /// One addend of the sum-of-scaled-loads form c0*X[..] + c1*Y[..] - ...
  struct Term {
    std::uint8_t access = 0;   ///< or kVarTerm: the loop scalar
    std::int16_t coef = -1;    ///< leaf node in `values`; -1: a bare load
    bool coefFirst = false;    ///< c * X rather than X * c
    bool minus = false;        ///< subtracted (never the first term)
    double c = 0.0;            ///< a literal coefficient's real value
  };
  struct Assign {
    std::uint8_t store = 0;    ///< the target's access
    std::uint8_t value = 0;    ///< root node in `values`
    std::uint8_t termsOff = 0, termsLen = 0;  ///< len 0: run the tape
  };
  static constexpr std::uint8_t kVarTerm = 0xFF;
  std::vector<Node> subs;    ///< subscript tapes (affine in the scalar)
  std::vector<Node> values;  ///< value tapes
  std::vector<std::int32_t> syms;  ///< the arrays accessed, one window each
  std::vector<Access> accesses;
  std::vector<Term> terms;
  std::vector<Assign> assigns;
  /// The steps of one iteration in order: -1 a block, k >= 0 assignment k.
  std::vector<std::int8_t> plan;
  /// Every assignment is in the sum form over loads, with literal
  /// coefficients: entry resolves no value at all.
  bool fixedValues = false;
  std::int32_t split = -1;  ///< SplitSite of a split copy; -1 plain loop
  /// Plain loop: scalar, counter and bound registers, and the pc past
  /// its ForNext.
  std::uint16_t var = 0, iR = 0, ub = 0, step = 0;
  std::int32_t exitPc = 0;
};

/// A rank-1 literal section whose bounds live in index registers; without
/// `hasUb` the section is the point lb, without `hasStride` the stride 1.
struct SecRegs {
  std::uint16_t lb = 0, ub = 0, stride = 0;
  bool hasUb = false, hasStride = false;
};

/// One hot transfer statement (StepXfer/XferSkip/Xfer) or intrinsic
/// (XQuery): what the walker's statement or expression case would
/// evaluate, with every section and destination pid in registers.
struct XferSite {
  il::StmtKind stmt = il::StmtKind::SendData;  ///< Xfer: statement kind
  il::ExprKind query = il::ExprKind::Iown;     ///< XQuery: intrinsic
  std::int32_t sym = -1, sym2 = -1;
  bool withValue = false;
  SecRegs sec;   ///< the statement's (or intrinsic's) section
  SecRegs sec2;  ///< RecvData: the name section
  il::DestSpec::Kind dest = il::DestSpec::Kind::None;
  std::vector<std::uint16_t> pids;  ///< Pids: one index register each
  std::int32_t destSym = -1;        ///< OwnerOf: the owner's array
  /// OwnerOf: the distribution override, in the module's program; null:
  /// the array's declared distribution.
  const dist::Distribution* destDist = nullptr;
  SecRegs destSec;                  ///< OwnerOf: the owner section
  std::int32_t endPc = 0;           ///< past the Xfer op
};

/// A compiled program: the program it was lowered from (sharing the
/// passes' tree nodes, which the cold ops name), its scalar numbering,
/// the instruction stream, constant pools, and per-symbol element types
/// resolved at compile time.
struct Module {
  il::Program prog;
  std::shared_ptr<const il::ScalarIds> scalars;  ///< registers [0, count)
  std::vector<const il::Expr*> coldExprs;      ///< by EvalCold/EvalRule.d
  std::vector<const il::Stmt*> coldStmtNodes;  ///< by ExecCold.d
  std::vector<Insn> code;
  std::vector<Index> ipool;
  std::vector<double> rpool;
  std::vector<rt::ElemType> elemTypes;  ///< by symbol index
  std::vector<SplitSite> splits;        ///< by SplitEnter/Run/Next.d
  std::vector<XferSite> xfers;          ///< by StepXfer/XferSkip/Xfer/XQuery.d
  std::vector<KernelSite> kernels;      ///< by LoopKernel.d
  std::uint16_t numRegs = 0;            ///< scalars + consts + temporaries
  std::uint32_t hotStmts = 0;           ///< statements fully compiled
  std::uint32_t coldStmts = 0;          ///< statements left to ExecCold
};

/// Lower `prog` to bytecode, numbering its universal scalars by
/// `scalars` (built from `prog`). Pure function of the program.
Module compile(const il::Program& prog,
               std::shared_ptr<const il::ScalarIds> scalars);

/// The same with a scalar numbering of its own.
Module compile(const il::Program& prog);

/// Run `m` as the node program of `proc`. Counters accumulate into
/// `stats`; `iopts.stepHook` fires as in the reference walker, except for
/// the loop blocks and guards a range split skips; kernels resolve by
/// name from `kernels`. With a checkpoint controller the VM never splits,
/// observes statement boundaries (park/signal/publish; DESIGN.md §11) and
/// resumes from a pc + register-file continuation when one is seeded.
void execute(const Module& m, rt::Proc& proc, InterpStats& stats,
             const InterpOptions& iopts,
             const std::map<std::string, KernelFn>& kernels,
             ckpt::Controller* ctrl = nullptr);

/// Human-readable disassembly (tests / debugging).
std::string disassemble(const Module& m);

}  // namespace xdp::interp::bc
