#include "xdp/interp/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "xdp/ckpt/io.hpp"
#include "xdp/il/flat.hpp"
#include "xdp/interp/bytecode.hpp"
#include "xdp/interp/cont.hpp"
#include "xdp/support/arith.hpp"
#include "xdp/support/check.hpp"

namespace xdp::interp {
namespace {

using il::DestSpec;
using il::Expr;
using il::ExprKind;
using il::ExprPtr;
using il::SecExprKind;
using il::SectionExpr;
using il::SectionExprPtr;
using il::Stmt;
using il::StmtKind;
using il::StmtPtr;
using sec::Point;
using sec::Triplet;

/// Thrown (inside compute-rule evaluation only) when the rule references
/// the value of an unowned section — the rule then evaluates to false.
struct UnownedRef {};

using Value = std::variant<Index, double, bool>;

Index asInt(const Value& v) {
  if (std::holds_alternative<Index>(v)) return std::get<Index>(v);
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v) ? 1 : 0;
  double d = std::get<double>(v);
  // Reject before llround: beyond int64 range (or NaN, which fails every
  // comparison) the conversion is undefined behaviour, not a wrong value.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    XDP_USAGE_FAIL("index value out of range (non-finite or beyond int64): " +
                   std::to_string(d));
  }
  Index i = static_cast<Index>(std::llround(d));
  XDP_CHECK(static_cast<double>(i) == d, "non-integral value in index context");
  return i;
}

double asReal(const Value& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  if (std::holds_alternative<Index>(v))
    return static_cast<double>(std::get<Index>(v));
  return std::get<bool>(v) ? 1.0 : 0.0;
}

bool asBool(const Value& v) {
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v);
  if (std::holds_alternative<Index>(v)) return std::get<Index>(v) != 0;
  return std::get<double>(v) != 0.0;
}

}  // namespace

InterpStats& InterpStats::operator+=(const InterpStats& o) {
  rulesEvaluated += o.rulesEvaluated;
  rulesTrue += o.rulesTrue;
  stmtsExecuted += o.stmtsExecuted;
  loopIterations += o.loopIterations;
  elemAssigns += o.elemAssigns;
  kernelCalls += o.kernelCalls;
  guardCacheHits += o.guardCacheHits;
  rangeSplits += o.rangeSplits;
  guardedItersSaved += o.guardedItersSaved;
  return *this;
}

/// Per-processor executor.
class Exec {
 public:
  Exec(Interpreter& in, rt::Proc& proc, InterpStats& stats)
      : in_(in),
        proc_(proc),
        stats_(stats),
        ctrl_(in.rt_.ckptController()),
        pid_(proc.mypid()),
        env_(static_cast<std::size_t>(in.numScalars())),
        def_(static_cast<std::size_t>(in.numScalars()), 0) {}

  void exec(const StmtPtr& s) {
    XDP_CHECK(s != nullptr, "executing null statement");
    // Statement boundary (DESIGN.md §11): nothing of `s` has run yet, so
    // a continuation published here means "re-execute this statement".
    if (ctrl_ != nullptr) boundary(s);
    // Step accounting / cancellation point: a quota or cancellation hook
    // can abort this processor before the statement runs.
    if (in_.iopts_.stepHook) in_.iopts_.stepHook(proc_);
    stats_.stmtsExecuted += 1;
    switch (s->kind) {
      case StmtKind::Block:
        if (ctrl_ == nullptr) {
          for (const auto& c : s->stmts) exec(c);
        } else {
          for (std::size_t k = 0; k < s->stmts.size(); ++k) {
            frames_.push_back({0, static_cast<Index>(k), 0, 0});
            exec(s->stmts[k]);
            frames_.pop_back();
          }
        }
        return;
      case StmtKind::ScalarAssign: {
        const int id = in_.scalarIdOfStmt(s.get());
        env_[static_cast<std::size_t>(id)] = evalValue(s->value);
        def_[static_cast<std::size_t>(id)] = 1;
        return;
      }
      case StmtKind::ElemAssign: {
        stats_.elemAssigns += 1;
        Section pt = evalSection(s->sym, s->lhs);
        XDP_CHECK(pt.count() == 1, "element assignment needs a single point");
        double v = asReal(evalValue(s->rhs));
        writeReal(s->sym, pt, v);
        return;
      }
      case StmtKind::For: {
        Index lb = asInt(evalValue(s->lb));
        Index ub = asInt(evalValue(s->ub));
        Index step = s->step ? asInt(evalValue(s->step)) : 1;
        XDP_CHECK(step > 0, "loop step must be positive");
        if (lb > ub) return;
        const int var = in_.scalarIdOfStmt(s.get());
        // Range splitting is off under checkpointing: the split schedule
        // executes body statements with a frame stack that no longer
        // matches the program tree, so no valid continuation could be
        // published from inside it. Logical counters are split-invariant,
        // so differential parity with unsplit runs still holds.
        if (ctrl_ == nullptr && in_.iopts_.splitGuardedLoops &&
            execSplitLoop(s, var, Triplet(lb, ub, step))) {
          return;
        }
        for (Index i = lb;;) {
          stats_.loopIterations += 1;
          env_[static_cast<std::size_t>(var)] = i;
          def_[static_cast<std::size_t>(var)] = 1;
          if (ctrl_ != nullptr) {
            frames_.push_back({1, i, ub, step});
            exec(s->body);
            frames_.pop_back();
          } else {
            exec(s->body);
          }
          // `i + step` can overflow past a ub near INT64_MAX; decide
          // termination on the (always in-range) remaining distance.
          if (static_cast<std::uint64_t>(ub) - static_cast<std::uint64_t>(i) <
              static_cast<std::uint64_t>(step))
            break;
          i += step;
        }
        return;
      }
      case StmtKind::Guarded: {
        stats_.rulesEvaluated += 1;
        if (!evalRule(s->rule)) return;
        stats_.rulesTrue += 1;
        if (ctrl_ != nullptr) {
          frames_.push_back({2, 0, 0, 0});
          exec(s->body);
          frames_.pop_back();
        } else {
          exec(s->body);
        }
        return;
      }
      case StmtKind::SendData: {
        Section e = evalSection(s->sym, s->lhs);
        if (e.empty()) return;
        proc_.send(s->sym, e, resolveDest(s->dest));
        return;
      }
      case StmtKind::RecvData: {
        Section dst = evalSection(s->sym, s->lhs);
        Section name = evalSection(s->sym2, s->sec2);
        if (dst.empty() && name.empty()) return;
        proc_.recv(s->sym, dst, s->sym2, name);
        return;
      }
      case StmtKind::SendOwn: {
        Section e = evalSection(s->sym, s->lhs);
        if (e.empty()) return;
        proc_.sendOwnership(s->sym, e, s->withValue, resolveDest(s->dest));
        return;
      }
      case StmtKind::RecvOwn: {
        Section u = evalSection(s->sym, s->lhs);
        if (u.empty()) return;
        proc_.recvOwnership(s->sym, u, s->withValue);
        return;
      }
      case StmtKind::Await: {
        Section s2 = evalSection(s->sym, s->lhs);
        if (s2.empty()) return;
        proc_.await(s->sym, s2);
        return;
      }
      case StmtKind::LocalCopy: {
        Section dst = evalSection(s->sym, s->lhs);
        Section src = evalSection(s->sym2, s->sec2);
        if (dst.empty() && src.empty()) return;
        XDP_CHECK(dst.count() == src.count(), "local copy size mismatch");
        const auto type = proc_.table().decl(s->sym).type;
        XDP_CHECK(type == proc_.table().decl(s->sym2).type,
                  "local copy type mismatch");
        std::vector<std::byte> buf(
            static_cast<std::size_t>(src.count()) * rt::elemSize(type));
        proc_.table().readElems(s->sym2, src, buf.data());
        proc_.table().writeElems(s->sym, dst, buf.data());
        return;
      }
      case StmtKind::Kernel: {
        stats_.kernelCalls += 1;
        auto it = in_.kernels_.find(s->name);
        XDP_CHECK(it != in_.kernels_.end(),
                  "unregistered kernel: " + s->name);
        std::vector<std::pair<int, Section>> args;
        for (const auto& [sym, se] : s->args)
          args.emplace_back(sym, evalSection(sym, se));
        it->second(proc_, args);
        return;
      }
      case StmtKind::ComputeCost:
        proc_.compute(asReal(evalValue(s->value)));
        return;
    }
  }

  /// Resume from a captured tree continuation: restore the interned-
  /// scalar environment, then descend the saved frame path and re-execute
  /// the leaf statement in full (capture only cuts where nothing of the
  /// in-flight statement has taken effect, so full re-execution is the
  /// continuation).
  void runFrom(const StmtPtr& root, const ckpt::ContImage& img) {
    ckpt::Reader r(img.payload);
    const std::uint32_t n = r.u32();
    if (n != env_.size())
      throw ckpt::CkptError("tree continuation scalar count mismatch");
    for (std::uint32_t k = 0; k < n; ++k) {
      def_[k] = r.u8();
      switch (r.u8()) {
        case 0:
          env_[k] = static_cast<Index>(r.i64());
          break;
        case 1:
          env_[k] = r.f64();
          break;
        case 2:
          env_[k] = r.u8() != 0;
          break;
        default:
          throw ckpt::CkptError("bad scalar tag in tree continuation");
      }
    }
    const std::uint32_t depth = r.u32();
    resume_.clear();
    resume_.reserve(depth);
    for (std::uint32_t k = 0; k < depth; ++k) {
      Frame f;
      f.kind = r.u8();
      f.a = r.i64();
      f.b = r.i64();
      f.c = r.i64();
      resume_.push_back(f);
    }
    execResume(root, 0);
  }

 private:
  // --- checkpoint continuations (DESIGN.md §11) --------------------------

  /// One level of the execution cursor: where inside a compound statement
  /// the walker currently stands. kind 0 = Block (a: child index), 1 = For
  /// (a: current i, b: ub, c: step), 2 = Guarded body.
  struct Frame {
    std::uint8_t kind = 0;
    Index a = 0;
    Index b = 0;
    Index c = 0;
  };

  /// Statement-boundary protocol, in order: deliver a pending rollback/
  /// preempt signal; park for a coordinated capture when the executed-
  /// statement count crosses the threshold; publish a restart point
  /// before any statement that can block (kernels are flagged unsafe —
  /// they may block mid-way after side effects, so a capture refuses to
  /// cut there).
  void boundary(const StmtPtr& s) {
    if (ctrl_->signal() != 0) ctrl_->deliverSignal(pid_, makeImage(false));
    if (stats_.stmtsExecuted >= ctrl_->nextParkAt(pid_))
      ctrl_->parkAtBoundary(pid_, makeImage(false));
    if (in_.isBlockingStmt(s.get()))
      ctrl_->publish(pid_, makeImage(s->kind == StmtKind::Kernel));
  }

  ckpt::ContImage makeImage(bool unsafe) const {
    ckpt::ContImage img;
    img.engine = static_cast<std::uint8_t>(ckpt::ContEngine::Tree);
    img.unsafe = unsafe;
    img.stats = statsToArray(stats_);
    ckpt::Writer w;
    w.u32(static_cast<std::uint32_t>(env_.size()));
    for (std::size_t k = 0; k < env_.size(); ++k) {
      w.u8(def_[k]);
      const Value& v = env_[k];
      if (std::holds_alternative<Index>(v)) {
        w.u8(0);
        w.i64(std::get<Index>(v));
      } else if (std::holds_alternative<double>(v)) {
        w.u8(1);
        w.f64(std::get<double>(v));
      } else {
        w.u8(2);
        w.u8(std::get<bool>(v) ? 1 : 0);
      }
    }
    w.u32(static_cast<std::uint32_t>(frames_.size()));
    for (const Frame& f : frames_) {
      w.u8(f.kind);
      w.i64(f.a);
      w.i64(f.b);
      w.i64(f.c);
    }
    img.payload = w.take();
    return img;
  }

  /// Descend the saved frame path: re-enter each compound statement at
  /// its saved cursor WITHOUT re-running its already-performed parts
  /// (loop bound evaluation, guard evaluation — their effects, like every
  /// enclosing statement's counters, are already in the image), run the
  /// leaf in full, then fall back into the normal schedule.
  void execResume(const StmtPtr& s, std::size_t depth) {
    if (depth == resume_.size()) {
      exec(s);
      return;
    }
    XDP_CHECK(s != nullptr, "resuming null statement");
    const Frame f = resume_[depth];
    switch (s->kind) {
      case StmtKind::Block: {
        if (f.kind != 0 || f.a < 0 ||
            static_cast<std::size_t>(f.a) >= s->stmts.size())
          throw ckpt::CkptError("continuation path does not fit this block");
        std::size_t k = static_cast<std::size_t>(f.a);
        frames_.push_back(f);
        execResume(s->stmts[k], depth + 1);
        frames_.pop_back();
        for (++k; k < s->stmts.size(); ++k) {
          frames_.push_back({0, static_cast<Index>(k), 0, 0});
          exec(s->stmts[k]);
          frames_.pop_back();
        }
        return;
      }
      case StmtKind::For: {
        if (f.kind != 1 || f.c <= 0)
          throw ckpt::CkptError("continuation path does not fit this loop");
        const int var = in_.scalarIdOfStmt(s.get());
        Index i = f.a;
        const Index ub = f.b;
        const Index step = f.c;
        env_[static_cast<std::size_t>(var)] = i;
        def_[static_cast<std::size_t>(var)] = 1;
        frames_.push_back(f);
        execResume(s->body, depth + 1);
        frames_.pop_back();
        // The in-flight iteration's loopIterations count is already in
        // the image; count only the remaining ones.
        for (;;) {
          if (static_cast<std::uint64_t>(ub) - static_cast<std::uint64_t>(i) <
              static_cast<std::uint64_t>(step))
            break;
          i += step;
          stats_.loopIterations += 1;
          env_[static_cast<std::size_t>(var)] = i;
          def_[static_cast<std::size_t>(var)] = 1;
          frames_.push_back({1, i, ub, step});
          exec(s->body);
          frames_.pop_back();
        }
        return;
      }
      case StmtKind::Guarded: {
        if (f.kind != 2)
          throw ckpt::CkptError(
              "continuation path does not fit this guarded statement");
        frames_.push_back(f);
        execResume(s->body, depth + 1);
        frames_.pop_back();
        return;
      }
      default:
        throw ckpt::CkptError(
            "continuation path descends into a leaf statement");
    }
  }


  // --- guarded-loop range splitting --------------------------------------
  //
  // The owner-computes lowering produces loops of the shape
  //     do i = lb, ub { iown(A[a*i+b]) : { body } }
  // where the guard is re-decided once per iteration although ownership is
  // a property of whole index ranges. When the pattern is recognized (and
  // the body provably cannot change the guard's answer mid-loop), the
  // owned iterations are computed in ONE ownedRanges query and executed
  // unguarded, in ascending order — identical observable behaviour, O(1)
  // guard work. All legacy counters still report the logical per-iteration
  // schedule (see InterpStats).

  /// value = a * loopVar + b, with a and b already-evaluated constants.
  struct AffineDim {
    Index a = 0;
    Index b = 0;
  };

  /// True iff `e` cannot reference the loop variable or any run-dependent
  /// state — safe to evaluate once at split time. (Conservative: only the
  /// arithmetic subset the lowered guards actually use.)
  bool isPureInvariant(const ExprPtr& e, int var) {
    switch (e->kind) {
      case ExprKind::IntConst:
      case ExprKind::MyPid:
      case ExprKind::NProcs:
        return true;
      case ExprKind::ScalarRef:
        return in_.scalarIdOfExpr(e.get()) != var;
      case ExprKind::Neg:
        return isPureInvariant(e->lhs, var);
      case ExprKind::Bin:
        switch (e->op) {
          // Div/Mod are deliberately absent: they can trap (divisor zero,
          // INT64_MIN / -1), and the split path must never hoist a trap
          // onto a schedule position the naive schedule doesn't have.
          case il::BinOp::Add:
          case il::BinOp::Sub:
          case il::BinOp::Mul:
          case il::BinOp::Min:
          case il::BinOp::Max:
            return isPureInvariant(e->lhs, var) &&
                   isPureInvariant(e->rhs, var);
          default:
            return false;
        }
      default:
        return false;
    }
  }

  /// Decompose `e` as a*var + b; evaluates the invariant parts (so this
  /// must only run when the loop executes at least one iteration — the
  /// naive schedule would evaluate them then too).
  bool affineInVar(const ExprPtr& e, int var, AffineDim* out) {
    if (e->kind == ExprKind::ScalarRef &&
        in_.scalarIdOfExpr(e.get()) == var) {
      out->a = 1;
      out->b = 0;
      return true;
    }
    if (isPureInvariant(e, var)) {
      out->a = 0;
      out->b = asInt(evalValue(e));
      return true;
    }
    switch (e->kind) {
      case ExprKind::Neg: {
        AffineDim i;
        if (!affineInVar(e->lhs, var, &i)) return false;
        out->a = -i.a;
        out->b = -i.b;
        return true;
      }
      case ExprKind::Bin: {
        if (e->op == il::BinOp::Add || e->op == il::BinOp::Sub) {
          AffineDim l, r;
          if (!affineInVar(e->lhs, var, &l) || !affineInVar(e->rhs, var, &r))
            return false;
          out->a = e->op == il::BinOp::Add ? l.a + r.a : l.a - r.a;
          out->b = e->op == il::BinOp::Add ? l.b + r.b : l.b - r.b;
          return true;
        }
        if (e->op == il::BinOp::Mul) {
          // One side must be invariant (both-invariant was handled above).
          const bool lInv = isPureInvariant(e->lhs, var);
          const bool rInv = isPureInvariant(e->rhs, var);
          if (!lInv && !rInv) return false;
          AffineDim inner;
          if (!affineInVar(lInv ? e->rhs : e->lhs, var, &inner)) return false;
          const Index c = asInt(evalValue(lInv ? e->lhs : e->rhs));
          out->a = inner.a * c;
          out->b = inner.b * c;
          return true;
        }
        return false;
      }
      default:
        return false;
    }
  }

  /// No blocking/awaiting expression anywhere in `e`.
  bool exprSplitSafe(const ExprPtr& e) {
    if (e == nullptr) return true;
    if (e->kind == ExprKind::Await) return false;
    if (e->lhs && !exprSplitSafe(e->lhs)) return false;
    if (e->rhs && !exprSplitSafe(e->rhs)) return false;
    if (e->section && !secSplitSafe(e->section)) return false;
    return true;
  }

  bool secSplitSafe(const SectionExprPtr& se) {
    if (se == nullptr) return true;
    switch (se->kind) {
      case SecExprKind::Literal:
        for (const auto& t : se->dims) {
          if (!exprSplitSafe(t.lb) || !exprSplitSafe(t.ub) ||
              !exprSplitSafe(t.stride))
            return false;
        }
        return true;
      case SecExprKind::LocalPart:
        return true;
      case SecExprKind::OwnerPart:
        return exprSplitSafe(se->pid);
      case SecExprKind::Intersect:
        return secSplitSafe(se->a) && secSplitSafe(se->b);
    }
    return false;
  }

  bool destSplitSafe(const DestSpec& d) {
    for (const auto& e : d.pids)
      if (!exprSplitSafe(e)) return false;
    return secSplitSafe(d.section);
  }

  /// Mark every scalar id referenced under `e` in `frozen`.
  void collectScalars(const ExprPtr& e, std::vector<char>& frozen) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::ScalarRef)
      frozen[static_cast<std::size_t>(in_.scalarIdOfExpr(e.get()))] = 1;
    if (e->lhs) collectScalars(e->lhs, frozen);
    if (e->rhs) collectScalars(e->rhs, frozen);
    if (e->section) collectScalarsSec(e->section, frozen);
  }

  void collectScalarsSec(const SectionExprPtr& se, std::vector<char>& frozen) {
    if (se == nullptr) return;
    for (const auto& t : se->dims) {
      collectScalars(t.lb, frozen);
      collectScalars(t.ub, frozen);
      collectScalars(t.stride, frozen);
    }
    collectScalars(se->pid, frozen);
    collectScalarsSec(se->a, frozen);
    collectScalarsSec(se->b, frozen);
  }

  /// The body may run unguarded only if it cannot change what the guard
  /// would have answered on a later iteration: no ownership transitions,
  /// no receives, no blocking, no kernels (opaque), and no assignment to
  /// the loop variable or any scalar the guard's section reads.
  bool bodySplitSafe(const StmtPtr& st, const std::vector<char>& frozen) {
    switch (st->kind) {
      case StmtKind::Block:
        return std::all_of(st->stmts.begin(), st->stmts.end(),
                           [&](const StmtPtr& c) {
                             return bodySplitSafe(c, frozen);
                           });
      case StmtKind::ScalarAssign:
        return frozen[static_cast<std::size_t>(
                   in_.scalarIdOfStmt(st.get()))] == 0 &&
               exprSplitSafe(st->value);
      case StmtKind::ElemAssign:
        return secSplitSafe(st->lhs) && exprSplitSafe(st->rhs);
      case StmtKind::For:
        return frozen[static_cast<std::size_t>(
                   in_.scalarIdOfStmt(st.get()))] == 0 &&
               exprSplitSafe(st->lb) && exprSplitSafe(st->ub) &&
               exprSplitSafe(st->step) && bodySplitSafe(st->body, frozen);
      case StmtKind::Guarded:
        return exprSplitSafe(st->rule) && bodySplitSafe(st->body, frozen);
      case StmtKind::SendData:
        // Plain data sends read values and talk to the fabric; they never
        // touch this processor's ownership or pending-receive state.
        return secSplitSafe(st->lhs) && destSplitSafe(st->dest);
      case StmtKind::LocalCopy:
        return secSplitSafe(st->lhs) && secSplitSafe(st->sec2);
      case StmtKind::ComputeCost:
        return exprSplitSafe(st->value);
      case StmtKind::SendOwn:
      case StmtKind::RecvOwn:
      case StmtKind::RecvData:
      case StmtKind::Await:
      case StmtKind::Kernel:
        return false;
    }
    return false;
  }

  /// Try to execute `do var = loop { guard : body }` via ownedRanges.
  /// Returns false (having changed nothing) when the pattern or the
  /// safety conditions do not hold.
  bool execSplitLoop(const StmtPtr& s, int var, const Triplet& loop) {
    // Unwrap single-statement blocks down to the guarded statement.
    int unwrapDepth = 0;
    StmtPtr g = s->body;
    while (g->kind == StmtKind::Block && g->stmts.size() == 1) {
      g = g->stmts.front();
      ++unwrapDepth;
    }
    if (g->kind != StmtKind::Guarded) return false;
    const ExprPtr& rule = g->rule;
    if (rule->kind != ExprKind::Iown && rule->kind != ExprKind::Accessible)
      return false;
    const SectionExprPtr& se = rule->section;
    if (se == nullptr || se->kind != SecExprKind::Literal) return false;

    std::vector<AffineDim> dims;
    bool anyVarying = false;
    for (const auto& t : se->dims) {
      if (t.ub != nullptr || t.stride != nullptr) return false;  // points only
      AffineDim ad;
      if (!affineInVar(t.lb, var, &ad)) return false;
      anyVarying = anyVarying || ad.a != 0;
      dims.push_back(ad);
    }
    if (dims.empty() || !anyVarying) return false;

    std::vector<char> frozen(static_cast<std::size_t>(in_.numScalars()), 0);
    frozen[static_cast<std::size_t>(var)] = 1;
    collectScalars(rule, frozen);
    if (!bodySplitSafe(g->body, frozen)) return false;

    // The image of the whole iteration space under the affine subscripts.
    std::vector<Triplet> qdims;
    for (const AffineDim& ad : dims) {
      if (ad.a == 0) {
        qdims.emplace_back(ad.b);
      } else if (ad.a > 0) {
        qdims.emplace_back(ad.a * loop.lb() + ad.b, ad.a * loop.ub() + ad.b,
                           ad.a * loop.stride());
      } else {
        qdims.emplace_back(ad.a * loop.ub() + ad.b, ad.a * loop.lb() + ad.b,
                           -ad.a * loop.stride());
      }
    }
    sec::RegionList owned = proc_.ownedRanges(
        rule->sym, Section(qdims), rule->kind == ExprKind::Accessible);

    // Pull each owned rectangle back to the loop iterations landing in it.
    // Rectangles are disjoint and each iteration maps to one point, so the
    // per-rectangle iteration sets are disjoint.
    std::vector<Triplet> iterSets;
    for (const Section& r : owned.sections()) {
      Triplet it = loop;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        if (dims[d].a == 0) continue;
        it = Triplet::intersect(
            it, r.dim(static_cast<int>(d))
                    .affinePreimage(dims[d].a, dims[d].b));
        if (it.empty()) break;
      }
      if (!it.empty()) iterSets.push_back(it);
    }

    const Index total = loop.count();
    stats_.rangeSplits += 1;
    stats_.guardedItersSaved += total;
    // Logical schedule: every iteration ran, entered the body chain, and
    // evaluated the guard (see InterpStats).
    stats_.loopIterations += static_cast<std::uint64_t>(total);
    stats_.stmtsExecuted +=
        static_cast<std::uint64_t>(unwrapDepth + 1) *
        static_cast<std::uint64_t>(total);
    stats_.rulesEvaluated += static_cast<std::uint64_t>(total);

    auto runIter = [&](Index i) {
      stats_.rulesTrue += 1;
      env_[static_cast<std::size_t>(var)] = i;
      def_[static_cast<std::size_t>(var)] = 1;
      exec(g->body);
    };
    if (iterSets.size() == 1) {
      const Triplet& t = iterSets.front();
      for (Index k = 0; k < t.count(); ++k) runIter(t.at(k));
    } else if (!iterSets.empty()) {
      // Interleaved strided sets: materialize and sort so iterations run
      // in the ascending order the naive schedule uses.
      std::vector<Index> all;
      for (const Triplet& t : iterSets)
        for (Index k = 0; k < t.count(); ++k) all.push_back(t.at(k));
      std::sort(all.begin(), all.end());
      for (Index i : all) runIter(i);
    }
    // The naive schedule assigns the variable on every (also unowned)
    // iteration; leave it at the last logical value.
    env_[static_cast<std::size_t>(var)] = loop.ub();
    def_[static_cast<std::size_t>(var)] = 1;
    return true;
  }

  // --- expression evaluation -------------------------------------------

  bool evalRule(const ExprPtr& e) {
    ruleDepth_ += 1;
    bool result;
    try {
      result = asBool(evalValue(e));
    } catch (const UnownedRef&) {
      result = false;  // paper 2.4: unowned value reference => rule false
    }
    ruleDepth_ -= 1;
    return result;
  }

  Value evalValue(const ExprPtr& e) {
    XDP_CHECK(e != nullptr, "evaluating null expression");
    switch (e->kind) {
      case ExprKind::IntConst:
        return e->intVal;
      case ExprKind::RealConst:
        return e->realVal;
      case ExprKind::ScalarRef: {
        const auto id =
            static_cast<std::size_t>(in_.scalarIdOfExpr(e.get()));
        XDP_CHECK(def_[id] != 0,
                  "use of undefined universal scalar: " + e->name);
        return env_[id];
      }
      case ExprKind::MyPid:
        return static_cast<Index>(proc_.mypid());
      case ExprKind::NProcs:
        return static_cast<Index>(proc_.nprocs());
      case ExprKind::Bin:
        return evalBin(e);
      case ExprKind::Neg: {
        Value v = evalValue(e->lhs);
        if (std::holds_alternative<Index>(v))
          return arith::wrapNeg(std::get<Index>(v));
        return -asReal(v);
      }
      case ExprKind::Not:
        return !asBool(evalValue(e->lhs));
      case ExprKind::Elem: {
        Section pt = evalSection(e->sym, e->section);
        XDP_CHECK(pt.count() == 1, "element reference needs a single point");
        // Inside a compute rule, an unowned value reference makes the
        // whole rule false instead of being an error.
        if (ruleDepth_ > 0 && !proc_.iown(e->sym, pt)) throw UnownedRef{};
        return readReal(e->sym, pt);
      }
      case ExprKind::Iown:
        return proc_.iown(e->sym, evalSection(e->sym, e->section));
      case ExprKind::Accessible:
        return proc_.accessible(e->sym, evalSection(e->sym, e->section));
      case ExprKind::Await:
        return proc_.await(e->sym, evalSection(e->sym, e->section));
      case ExprKind::MyLb:
        return proc_.mylb(e->sym, evalSection(e->sym, e->section), e->dim);
      case ExprKind::MyUb:
        return proc_.myub(e->sym, evalSection(e->sym, e->section), e->dim);
      case ExprKind::SecNonEmpty:
        return !evalSection(e->sym, e->section).empty();
    }
    XDP_CHECK(false, "unreachable expression kind");
    return Index{0};
  }

  Value evalBin(const ExprPtr& e) {
    using il::BinOp;
    // Short-circuit logicals first.
    if (e->op == BinOp::And) {
      if (!asBool(evalValue(e->lhs))) return false;
      return asBool(evalValue(e->rhs));
    }
    if (e->op == BinOp::Or) {
      if (asBool(evalValue(e->lhs))) return true;
      return asBool(evalValue(e->rhs));
    }
    Value a = evalValue(e->lhs);
    Value b = evalValue(e->rhs);
    const bool bothInt =
        std::holds_alternative<Index>(a) && std::holds_alternative<Index>(b);
    switch (e->op) {
      case BinOp::Add:
        return bothInt
                   ? Value(arith::wrapAdd(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asReal(a) + asReal(b));
      case BinOp::Sub:
        return bothInt
                   ? Value(arith::wrapSub(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asReal(a) - asReal(b));
      case BinOp::Mul:
        return bothInt
                   ? Value(arith::wrapMul(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asReal(a) * asReal(b));
      case BinOp::Div:
        if (bothInt)
          return arith::checkedDiv(std::get<Index>(a), std::get<Index>(b));
        return asReal(a) / asReal(b);
      case BinOp::Mod:
        XDP_CHECK(bothInt, "mod requires integer operands");
        return arith::checkedMod(std::get<Index>(a), std::get<Index>(b));
      case BinOp::Lt:
        return asReal(a) < asReal(b);
      case BinOp::Le:
        return asReal(a) <= asReal(b);
      case BinOp::Gt:
        return asReal(a) > asReal(b);
      case BinOp::Ge:
        return asReal(a) >= asReal(b);
      case BinOp::Eq:
        return asReal(a) == asReal(b);
      case BinOp::Ne:
        return asReal(a) != asReal(b);
      case BinOp::Min:
        return bothInt ? Value(std::min(std::get<Index>(a), std::get<Index>(b)))
                       : Value(std::min(asReal(a), asReal(b)));
      case BinOp::Max:
        return bothInt ? Value(std::max(std::get<Index>(a), std::get<Index>(b)))
                       : Value(std::max(asReal(a), asReal(b)));
      case BinOp::And:
      case BinOp::Or:
        break;  // handled above
    }
    XDP_CHECK(false, "unreachable binop");
    return Index{0};
  }

  // --- section evaluation ------------------------------------------------

  Section emptyOfRank(int rank) {
    std::vector<Triplet> dims;
    dims.emplace_back();  // one empty triplet makes the section empty
    for (int d = 1; d < rank; ++d) dims.emplace_back(0, 0);
    return rank == 0 ? Section{Triplet()} : Section(dims);
  }

  Section evalSection(int sym, const SectionExprPtr& se) {
    XDP_CHECK(se != nullptr, "evaluating null section expression");
    switch (se->kind) {
      case SecExprKind::Literal: {
        std::vector<Triplet> dims;
        for (const auto& t : se->dims) {
          Index lb = asInt(evalValue(t.lb));
          Index ub = t.ub ? asInt(evalValue(t.ub)) : lb;
          Index stride = t.stride ? asInt(evalValue(t.stride)) : 1;
          dims.emplace_back(lb, ub, stride);
        }
        return Section(dims);
      }
      case SecExprKind::LocalPart:
        return partOf(se->sym >= 0 ? se->sym : sym, proc_.mypid(),
                      se->distOverride);
      case SecExprKind::OwnerPart:
        return partOf(se->sym >= 0 ? se->sym : sym,
                      static_cast<int>(asInt(evalValue(se->pid))),
                      se->distOverride);
      case SecExprKind::Intersect: {
        Section a = evalSection(sym, se->a);
        Section b = evalSection(sym, se->b);
        if (a.empty() || b.empty() || a.rank() != b.rank())
          return emptyOfRank(a.rank());
        return Section::intersect(a, b);
      }
    }
    XDP_CHECK(false, "unreachable section expression kind");
    return Section{};
  }

  Section partOf(int sym, int pid,
                 const std::optional<dist::Distribution>& over) {
    const dist::Distribution& d =
        over ? *over : proc_.table().decl(sym).dist;
    sec::RegionList part = d.localPart(pid);
    if (part.empty()) return emptyOfRank(d.rank());
    XDP_CHECK(part.sections().size() == 1,
              "partition is not a single section (CYCLIC(k) local parts "
              "cannot be named by one section expression)");
    return part.sections()[0];
  }

  // --- typed element access ----------------------------------------------

  /// The one point of a single-point section, without materializing the
  /// point list.
  static Point onlyPointOf(const Section& pt) {
    std::array<sec::Index, sec::kMaxRank> idx{};
    for (int d = 0; d < pt.rank(); ++d)
      idx[static_cast<std::size_t>(d)] = pt.dim(d).lb();
    return Point(pt.rank(), idx);
  }

  double readReal(int sym, const Section& pt) {
    const auto type = proc_.table().decl(sym).type;
    if (type == rt::ElemType::F64) {
      double v = 0.0;
      if (proc_.table().tryReadElemAt(sym, onlyPointOf(pt),
                                      reinterpret_cast<std::byte*>(&v)))
        return v;
      return proc_.read<double>(sym, pt)[0];
    }
    if (type == rt::ElemType::I64) {
      std::int64_t v = 0;
      if (proc_.table().tryReadElemAt(sym, onlyPointOf(pt),
                                      reinterpret_cast<std::byte*>(&v)))
        return static_cast<double>(v);
      return static_cast<double>(proc_.read<std::int64_t>(sym, pt)[0]);
    }
    XDP_CHECK(false, "IL element access supports f64/i64 (use kernels for "
                     "complex data)");
    return 0.0;
  }

  void writeReal(int sym, const Section& pt, double v) {
    const auto type = proc_.table().decl(sym).type;
    if (type == rt::ElemType::F64) {
      if (proc_.table().tryWriteElemAt(
              sym, onlyPointOf(pt), reinterpret_cast<const std::byte*>(&v)))
        return;
      proc_.set<double>(sym, pt.points()[0], v);
      return;
    }
    if (type == rt::ElemType::I64) {
      const std::int64_t w = static_cast<std::int64_t>(std::llround(v));
      if (proc_.table().tryWriteElemAt(
              sym, onlyPointOf(pt), reinterpret_cast<const std::byte*>(&w)))
        return;
      proc_.set<std::int64_t>(sym, pt.points()[0], w);
      return;
    }
    XDP_CHECK(false, "IL element access supports f64/i64");
  }

  // --- destinations --------------------------------------------------------

  std::optional<std::vector<int>> resolveDest(const DestSpec& d) {
    switch (d.kind) {
      case DestSpec::Kind::None:
        return std::nullopt;
      case DestSpec::Kind::Pids: {
        std::vector<int> pids;
        for (const auto& e : d.pids)
          pids.push_back(static_cast<int>(asInt(evalValue(e))));
        return pids;
      }
      case DestSpec::Kind::OwnerOf: {
        Section s = evalSection(d.sym, d.section);
        XDP_CHECK(!s.empty(), "owner-of an empty section");
        const dist::Distribution& dd =
            d.distOverride ? *d.distOverride : proc_.table().decl(d.sym).dist;
        int owner = -1;
        bool unique = true;
        s.forEach([&](const Point& p) {
          int o = dd.ownerOf(p);
          if (owner < 0) owner = o;
          else if (o != owner) unique = false;
        });
        XDP_CHECK(unique, "bound destination section spans processors");
        return std::vector<int>{owner};
      }
    }
    return std::nullopt;
  }

  Interpreter& in_;
  rt::Proc& proc_;
  InterpStats& stats_;
  ckpt::Controller* ctrl_;  ///< null when checkpointing is off
  int pid_;
  std::vector<Value> env_;
  std::vector<std::uint8_t> def_;
  std::vector<Frame> frames_;  ///< live execution cursor (ctrl_ only)
  std::vector<Frame> resume_;  ///< saved path being re-entered
  int ruleDepth_ = 0;
};

// --- scalar interning ------------------------------------------------------

int Interpreter::scalarIdOfExpr(const il::Expr* e) const {
  const int id = scalarIds_.ofRef(e);
  XDP_CHECK(id >= 0,
            "scalar reference not interned (expression is not part of the "
            "interpreted program)");
  return id;
}

int Interpreter::scalarIdOfStmt(const il::Stmt* s) const {
  const int id = scalarIds_.ofBind(s);
  XDP_CHECK(id >= 0,
            "scalar binding not interned (statement is not part of the "
            "interpreted program)");
  return id;
}

Interpreter::Interpreter(il::Program prog, rt::RuntimeOptions opts,
                         InterpOptions iopts)
    : prog_(std::move(prog)),
      rt_(prog_.nprocs, opts),
      iopts_(iopts),
      stats_(static_cast<std::size_t>(prog_.nprocs)),
      scalarIds_(prog_) {
  for (const auto& a : prog_.arrays)
    rt_.declareArray(a.name, a.type, a.global, a.dist, a.segShape);
}

Interpreter::~Interpreter() = default;

void Interpreter::computeBlockingStmts() {
  if (blockingComputed_) return;
  blockingComputed_ = true;

  // Memoized await-search over the (possibly DAG-shaped) expression
  // forest; `seen` bounds the statement walk as it does in il::ScalarIds.
  std::unordered_map<const void*, bool> memo;
  std::unordered_set<const void*> seen;

  std::function<bool(const ExprPtr&)> exprAwaits;
  std::function<bool(const SectionExprPtr&)> secAwaits;

  exprAwaits = [&](const ExprPtr& e) -> bool {
    if (e == nullptr) return false;
    auto it = memo.find(e.get());
    if (it != memo.end()) return it->second;
    const bool b = e->kind == ExprKind::Await || exprAwaits(e->lhs) ||
                   exprAwaits(e->rhs) || secAwaits(e->section);
    memo[e.get()] = b;
    return b;
  };
  secAwaits = [&](const SectionExprPtr& se) -> bool {
    if (se == nullptr) return false;
    auto it = memo.find(se.get());
    if (it != memo.end()) return it->second;
    bool b = exprAwaits(se->pid) || secAwaits(se->a) || secAwaits(se->b);
    for (const auto& t : se->dims) {
      b = b || exprAwaits(t.lb) || exprAwaits(t.ub) || exprAwaits(t.stride);
    }
    memo[se.get()] = b;
    return b;
  };

  std::function<void(const StmtPtr&)> walk = [&](const StmtPtr& s) {
    if (s == nullptr || !seen.insert(s.get()).second) return;
    bool blocking = false;
    switch (s->kind) {
      case StmtKind::SendData:  // rendezvous sends can block on delivery
      case StmtKind::RecvData:  // awaits destination accessibility
      case StmtKind::SendOwn:   // awaits the outgoing section
      case StmtKind::RecvOwn:
      case StmtKind::Await:
      case StmtKind::Kernel:  // opaque: may transfer, await, or barrier
        blocking = true;
        break;
      default:
        break;
    }
    blocking = blocking || exprAwaits(s->value) || secAwaits(s->lhs) ||
               exprAwaits(s->rhs) || exprAwaits(s->lb) || exprAwaits(s->ub) ||
               exprAwaits(s->step) || exprAwaits(s->rule) ||
               secAwaits(s->sec2) || exprAwaits(s->bindHint) ||
               secAwaits(s->dest.section);
    for (const auto& e : s->dest.pids) blocking = blocking || exprAwaits(e);
    for (const auto& [sym, se] : s->args) blocking = blocking || secAwaits(se);
    if (blocking) blockingStmts_.insert(s.get());
    for (const auto& c : s->stmts) walk(c);
    walk(s->body);
  };
  walk(prog_.body);
}

void Interpreter::registerKernel(std::string name, KernelFn fn) {
  kernels_[std::move(name)] = std::move(fn);
}

void Interpreter::run() {
  XDP_CHECK(prog_.body != nullptr, "program has no body");
  if (iopts_.backend == Backend::Bytecode && module_ == nullptr) {
    module_ =
        std::make_unique<bc::Module>(bc::compile(il::flat::flatten(prog_)));
  }
  ckpt::Controller* ctrl = rt_.ckptController();
  if (ctrl != nullptr && iopts_.backend == Backend::TreeWalk)
    computeBlockingStmts();
  rt_.run([&](rt::Proc& proc) {
    const int pid = proc.mypid();
    InterpStats& st = stats_[static_cast<std::size_t>(pid)];
    if (iopts_.backend == Backend::Bytecode) {
      bc::execute(*module_, proc, st, iopts_, kernels_, ctrl);
      return;
    }
    if (ctrl != nullptr && ctrl->hasResume(pid)) {
      // A recovery round: overwrite the partial counters of the crashed
      // round with the snapshot's, then re-enter at the saved cursor.
      ckpt::ContImage img = ctrl->takeResume(pid);
      if (img.finished) return;
      st = statsFromArray(img.stats);
      Exec ex(*this, proc, st);
      if (img.engine == static_cast<std::uint8_t>(ckpt::ContEngine::Tree)) {
        ex.runFrom(prog_.body, img);
      } else if (img.engine ==
                 static_cast<std::uint8_t>(ckpt::ContEngine::None)) {
        ex.exec(prog_.body);  // genesis snapshot: restart from the top
      } else {
        throw ckpt::CkptError(
            "tree walker cannot resume a continuation captured by another "
            "engine");
      }
      return;
    }
    Exec ex(*this, proc, st);
    ex.exec(prog_.body);
  });
  // The run's tables are fresh per run(), so their lifetime hit counts are
  // exactly this run's contribution.
  for (int pid = 0; pid < prog_.nprocs; ++pid) {
    stats_[static_cast<std::size_t>(pid)].guardCacheHits +=
        rt_.table(pid).cacheStats().hits;
  }
}

InterpStats Interpreter::stats(int pid) const {
  XDP_CHECK(pid >= 0 && pid < prog_.nprocs, "bad pid");
  return stats_[static_cast<std::size_t>(pid)];
}

InterpStats Interpreter::totalStats() const {
  InterpStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

void Interpreter::resetStats() {
  for (auto& s : stats_) s = InterpStats{};
}

}  // namespace xdp::interp
