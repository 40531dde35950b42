#include "xdp/interp/interpreter.hpp"

#include <algorithm>
#include <cmath>

#include "xdp/interp/bytecode.hpp"
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
  fusedLoops += o.fusedLoops;
  return *this;
}

/// Per-processor executor of the reference schedule: every statement in
/// program order, every guard evaluated on every iteration.
class Exec {
 public:
  Exec(Interpreter& in, rt::Proc& proc, InterpStats& stats)
      : in_(in),
        proc_(proc),
        stats_(stats),
        env_(static_cast<std::size_t>(in.numScalars())),
        def_(static_cast<std::size_t>(in.numScalars()), 0) {}

  void exec(const StmtPtr& s) {
    XDP_CHECK(s != nullptr, "executing null statement");
    // Step accounting / cancellation point: a quota or cancellation hook
    // can abort this processor before the statement runs.
    if (in_.iopts_.stepHook) in_.iopts_.stepHook(proc_);
    stats_.stmtsExecuted += 1;
    switch (s->kind) {
      case StmtKind::Block:
        for (const auto& c : s->stmts) exec(c);
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
        for (Index i = lb;;) {
          stats_.loopIterations += 1;
          env_[static_cast<std::size_t>(var)] = i;
          def_[static_cast<std::size_t>(var)] = 1;
          exec(s->body);
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
        exec(s->body);
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

 private:
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
        if (def_[id] == 0)
          XDP_USAGE_FAIL("use of undefined universal scalar: " + e->name);
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

  // Point element access: readElems/writeElems resolve a one-element
  // section through the table's point path. Reads start from zero, so an
  // unowned element reads as 0 with debug checks off (readElems fills
  // only what is owned).
  double readReal(int sym, const Section& pt) {
    const auto type = proc_.table().decl(sym).type;
    if (type == rt::ElemType::F64) {
      double v = 0.0;
      proc_.table().readElems(sym, pt, reinterpret_cast<std::byte*>(&v));
      return v;
    }
    if (type == rt::ElemType::I64) {
      std::int64_t v = 0;
      proc_.table().readElems(sym, pt, reinterpret_cast<std::byte*>(&v));
      return static_cast<double>(v);
    }
    XDP_CHECK(false, "IL element access supports f64/i64 (use kernels for "
                     "complex data)");
    return 0.0;
  }

  void writeReal(int sym, const Section& pt, double v) {
    const auto type = proc_.table().decl(sym).type;
    if (type == rt::ElemType::F64) {
      proc_.table().writeElems(sym, pt,
                               reinterpret_cast<const std::byte*>(&v));
      return;
    }
    if (type == rt::ElemType::I64) {
      const std::int64_t w = arith::storeI64(v);
      proc_.table().writeElems(sym, pt,
                               reinterpret_cast<const std::byte*>(&w));
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
  std::vector<Value> env_;
  std::vector<std::uint8_t> def_;
  int ruleDepth_ = 0;
};

// --- scalar interning ------------------------------------------------------

int Interpreter::scalarIdOfExpr(const il::Expr* e) const {
  const int id = scalarIds_->ofRef(e);
  XDP_CHECK(id >= 0,
            "scalar reference not interned (expression is not part of the "
            "interpreted program)");
  return id;
}

int Interpreter::scalarIdOfStmt(const il::Stmt* s) const {
  const int id = scalarIds_->ofBind(s);
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
      scalarIds_(std::make_shared<const il::ScalarIds>(prog_)) {
  for (const auto& a : prog_.arrays)
    rt_.declareArray(a.name, a.type, a.global, a.dist, a.segShape);
}

Interpreter::~Interpreter() = default;

void Interpreter::registerKernel(std::string name, KernelFn fn) {
  kernels_[std::move(name)] = std::move(fn);
}

void Interpreter::run() {
  XDP_CHECK(prog_.body != nullptr, "program has no body");
  ckpt::Controller* ctrl = rt_.ckptController();
  if (iopts_.backend == Backend::TreeWalk) {
    // The reference walker keeps no continuation format (DESIGN.md §11).
    if (ctrl != nullptr) {
      XDP_USAGE_FAIL(
          "the tree-walking reference interpreter cannot run under "
          "checkpointing; use the bytecode VM");
    }
    rt_.run([&](rt::Proc& proc) {
      Exec ex(*this, proc, stats_[static_cast<std::size_t>(proc.mypid())]);
      ex.exec(prog_.body);
    });
  } else {
    if (module_ == nullptr) {
      module_ = std::make_unique<bc::Module>(bc::compile(prog_, scalarIds_));
    }
    rt_.run([&](rt::Proc& proc) {
      bc::execute(*module_, proc,
                  stats_[static_cast<std::size_t>(proc.mypid())], iopts_,
                  kernels_, ctrl);
    });
  }
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
