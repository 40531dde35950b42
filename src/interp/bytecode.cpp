// Bytecode compiler + register VM (see bytecode.hpp for the model).
//
// Everything here is semantics-mirroring: each hot op and each cold-path
// evaluator case corresponds to one case of the reference tree walker in
// interpreter.cpp, and must stay bit-identical to it — the differential
// tests (test_vm_differential, test_pipeline_fuzz) hold the VM to the
// walker's result digests and logical counters.
#include "xdp/interp/bytecode.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "xdp/ckpt/io.hpp"
#include "xdp/support/arith.hpp"
#include "xdp/support/check.hpp"

namespace xdp::interp::bc {
namespace {

using il::BinOp;
using il::ExprKind;
using il::SecExprKind;
using il::StmtKind;
using sec::Point;
using sec::Triplet;

/// Thrown (inside compute-rule evaluation only) when the rule references
/// the value of an unowned section — the rule then evaluates to false.
struct UnownedRef {};

enum class Tag : std::uint8_t { Undef, Int, Real, Bool };

/// A tagged register slot — the VM's Value. The tag set matches the tree
/// walker's std::variant<Index, double, bool> exactly (plus Undef for
/// never-assigned universal scalars).
struct Slot {
  Tag tag = Tag::Undef;
  union {
    Index i;
    double r;
    bool b;
  };
  Slot() : i(0) {}
  static Slot ofInt(Index v) {
    Slot s;
    s.tag = Tag::Int;
    s.i = v;
    return s;
  }
  static Slot ofReal(double v) {
    Slot s;
    s.tag = Tag::Real;
    s.r = v;
    return s;
  }
  static Slot ofBool(bool v) {
    Slot s;
    s.tag = Tag::Bool;
    s.b = v;
    return s;
  }
};

// --- Continuation stats: the ckpt layer carries InterpStats as an opaque
// ordered array; this order is the wire format, and the controller's park
// threshold reads stats[2] (executed statements).

std::array<std::uint64_t, ckpt::kNumContStats> statsToArray(
    const InterpStats& s) {
  return {s.rulesEvaluated, s.rulesTrue,   s.stmtsExecuted,
          s.loopIterations, s.elemAssigns, s.kernelCalls,
          s.guardCacheHits, s.rangeSplits, s.guardedItersSaved};
}

InterpStats statsFromArray(
    const std::array<std::uint64_t, ckpt::kNumContStats>& a) {
  InterpStats s;
  s.rulesEvaluated = a[0];
  s.rulesTrue = a[1];
  s.stmtsExecuted = a[2];
  s.loopIterations = a[3];
  s.elemAssigns = a[4];
  s.kernelCalls = a[5];
  s.guardCacheHits = a[6];
  s.rangeSplits = a[7];
  s.guardedItersSaved = a[8];
  return s;
}

// --- Value coercions: byte-for-byte the tree walker's asInt/asReal/asBool.

Index asInt(const Slot& v) {
  if (v.tag == Tag::Int) return v.i;
  if (v.tag == Tag::Bool) return v.b ? 1 : 0;
  double d = v.r;
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    XDP_USAGE_FAIL("index value out of range (non-finite or beyond int64): " +
                   std::to_string(d));
  }
  Index i = static_cast<Index>(std::llround(d));
  XDP_CHECK(static_cast<double>(i) == d, "non-integral value in index context");
  return i;
}

double asReal(const Slot& v) {
  if (v.tag == Tag::Real) return v.r;
  if (v.tag == Tag::Int) return static_cast<double>(v.i);
  return v.b ? 1.0 : 0.0;
}

bool asBool(const Slot& v) {
  if (v.tag == Tag::Bool) return v.b;
  if (v.tag == Tag::Int) return v.i != 0;
  return v.r != 0.0;
}

// =========================================================================
// Cold path: a tree-walking evaluator mirroring interpreter.cpp's Exec
// case-for-case, sharing the VM's register file as the scalar environment.
// It is kept apart from the reference walker so that the walker stays an
// independent oracle. It executes leaf statements only: Block, For and
// Guarded always compile hot, which keeps every ExecCold a restartable
// leaf (DESIGN.md §11).
// =========================================================================

class ColdEval {
 public:
  ColdEval(const Module& m, rt::Proc& proc, InterpStats& stats,
           const InterpOptions& iopts,
           const std::map<std::string, KernelFn>& kernels, Slot* regs)
      : scalars_(*m.scalars),
        proc_(proc),
        stats_(stats),
        iopts_(iopts),
        kernels_(kernels),
        regs_(regs) {}

  void exec(const il::Stmt& s) {
    if (iopts_.stepHook) iopts_.stepHook(proc_);
    stats_.stmtsExecuted += 1;
    switch (s.kind) {
      case StmtKind::Block:
      case StmtKind::For:
      case StmtKind::Guarded:
        XDP_CHECK(false, "compound statement on the VM's cold path");
        return;
      case StmtKind::ScalarAssign:
        regs_[scalars_.ofBind(&s)] = evalValue(s.value.get());
        return;
      case StmtKind::ElemAssign: {
        stats_.elemAssigns += 1;
        Section pt = evalSection(s.sym, s.lhs.get());
        XDP_CHECK(pt.count() == 1, "element assignment needs a single point");
        double v = asReal(evalValue(s.rhs.get()));
        writeReal(s.sym, pt, v);
        return;
      }
      case StmtKind::SendData: {
        Section e = evalSection(s.sym, s.lhs.get());
        if (e.empty()) return;
        proc_.send(s.sym, e, resolveDest(s.dest));
        return;
      }
      case StmtKind::RecvData: {
        Section dst = evalSection(s.sym, s.lhs.get());
        Section name = evalSection(s.sym2, s.sec2.get());
        if (dst.empty() && name.empty()) return;
        proc_.recv(s.sym, dst, s.sym2, name);
        return;
      }
      case StmtKind::SendOwn: {
        Section e = evalSection(s.sym, s.lhs.get());
        if (e.empty()) return;
        proc_.sendOwnership(s.sym, e, s.withValue, resolveDest(s.dest));
        return;
      }
      case StmtKind::RecvOwn: {
        Section u = evalSection(s.sym, s.lhs.get());
        if (u.empty()) return;
        proc_.recvOwnership(s.sym, u, s.withValue);
        return;
      }
      case StmtKind::Await: {
        Section s2 = evalSection(s.sym, s.lhs.get());
        if (s2.empty()) return;
        proc_.await(s.sym, s2);
        return;
      }
      case StmtKind::LocalCopy: {
        Section dst = evalSection(s.sym, s.lhs.get());
        Section src = evalSection(s.sym2, s.sec2.get());
        if (dst.empty() && src.empty()) return;
        XDP_CHECK(dst.count() == src.count(), "local copy size mismatch");
        const auto type = proc_.table().decl(s.sym).type;
        XDP_CHECK(type == proc_.table().decl(s.sym2).type,
                  "local copy type mismatch");
        std::vector<std::byte> buf(
            static_cast<std::size_t>(src.count()) * rt::elemSize(type));
        proc_.table().readElems(s.sym2, src, buf.data());
        proc_.table().writeElems(s.sym, dst, buf.data());
        return;
      }
      case StmtKind::Kernel: {
        stats_.kernelCalls += 1;
        auto it = kernels_.find(s.name);
        XDP_CHECK(it != kernels_.end(), "unregistered kernel: " + s.name);
        std::vector<std::pair<int, Section>> args;
        for (const auto& [sym, se] : s.args)
          args.emplace_back(sym, evalSection(sym, se.get()));
        it->second(proc_, args);
        return;
      }
      case StmtKind::ComputeCost:
        proc_.compute(asReal(evalValue(s.value.get())));
        return;
    }
  }

  bool evalRule(const il::Expr* e) {
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

  Slot evalValue(const il::Expr* ep) {
    XDP_CHECK(ep != nullptr, "evaluating null expression");
    const il::Expr& e = *ep;
    switch (e.kind) {
      case ExprKind::IntConst:
        return Slot::ofInt(e.intVal);
      case ExprKind::RealConst:
        return Slot::ofReal(e.realVal);
      case ExprKind::ScalarRef: {
        const Slot& s = regs_[scalars_.ofRef(&e)];
        if (s.tag == Tag::Undef)
          XDP_USAGE_FAIL("use of undefined universal scalar: " + e.name);
        return s;
      }
      case ExprKind::MyPid:
        return Slot::ofInt(static_cast<Index>(proc_.mypid()));
      case ExprKind::NProcs:
        return Slot::ofInt(static_cast<Index>(proc_.nprocs()));
      case ExprKind::Bin:
        return evalBin(e);
      case ExprKind::Neg: {
        Slot v = evalValue(e.lhs.get());
        if (v.tag == Tag::Int) return Slot::ofInt(arith::wrapNeg(v.i));
        return Slot::ofReal(-asReal(v));
      }
      case ExprKind::Not:
        return Slot::ofBool(!asBool(evalValue(e.lhs.get())));
      case ExprKind::Elem: {
        Section pt = evalSection(e.sym, e.section.get());
        XDP_CHECK(pt.count() == 1, "element reference needs a single point");
        if (ruleDepth_ > 0 && !proc_.iown(e.sym, pt)) throw UnownedRef{};
        return Slot::ofReal(readReal(e.sym, pt));
      }
      case ExprKind::Iown:
        return Slot::ofBool(
            proc_.iown(e.sym, evalSection(e.sym, e.section.get())));
      case ExprKind::Accessible:
        return Slot::ofBool(
            proc_.accessible(e.sym, evalSection(e.sym, e.section.get())));
      case ExprKind::Await:
        return Slot::ofBool(
            proc_.await(e.sym, evalSection(e.sym, e.section.get())));
      case ExprKind::MyLb:
        return Slot::ofInt(
            proc_.mylb(e.sym, evalSection(e.sym, e.section.get()), e.dim));
      case ExprKind::MyUb:
        return Slot::ofInt(
            proc_.myub(e.sym, evalSection(e.sym, e.section.get()), e.dim));
      case ExprKind::SecNonEmpty:
        return Slot::ofBool(!evalSection(e.sym, e.section.get()).empty());
    }
    XDP_CHECK(false, "unreachable expression kind");
    return Slot::ofInt(0);
  }

 private:
  Slot evalBin(const il::Expr& e) {
    // Short-circuit logicals first.
    if (e.op == BinOp::And) {
      if (!asBool(evalValue(e.lhs.get()))) return Slot::ofBool(false);
      return Slot::ofBool(asBool(evalValue(e.rhs.get())));
    }
    if (e.op == BinOp::Or) {
      if (asBool(evalValue(e.lhs.get()))) return Slot::ofBool(true);
      return Slot::ofBool(asBool(evalValue(e.rhs.get())));
    }
    Slot a = evalValue(e.lhs.get());
    Slot b = evalValue(e.rhs.get());
    const bool bothInt = a.tag == Tag::Int && b.tag == Tag::Int;
    switch (e.op) {
      case BinOp::Add:
        return bothInt ? Slot::ofInt(arith::wrapAdd(a.i, b.i))
                       : Slot::ofReal(asReal(a) + asReal(b));
      case BinOp::Sub:
        return bothInt ? Slot::ofInt(arith::wrapSub(a.i, b.i))
                       : Slot::ofReal(asReal(a) - asReal(b));
      case BinOp::Mul:
        return bothInt ? Slot::ofInt(arith::wrapMul(a.i, b.i))
                       : Slot::ofReal(asReal(a) * asReal(b));
      case BinOp::Div:
        if (bothInt) return Slot::ofInt(arith::checkedDiv(a.i, b.i));
        return Slot::ofReal(asReal(a) / asReal(b));
      case BinOp::Mod:
        XDP_CHECK(bothInt, "mod requires integer operands");
        return Slot::ofInt(arith::checkedMod(a.i, b.i));
      case BinOp::Lt:
        return Slot::ofBool(asReal(a) < asReal(b));
      case BinOp::Le:
        return Slot::ofBool(asReal(a) <= asReal(b));
      case BinOp::Gt:
        return Slot::ofBool(asReal(a) > asReal(b));
      case BinOp::Ge:
        return Slot::ofBool(asReal(a) >= asReal(b));
      case BinOp::Eq:
        return Slot::ofBool(asReal(a) == asReal(b));
      case BinOp::Ne:
        return Slot::ofBool(asReal(a) != asReal(b));
      case BinOp::Min:
        return bothInt ? Slot::ofInt(std::min(a.i, b.i))
                       : Slot::ofReal(std::min(asReal(a), asReal(b)));
      case BinOp::Max:
        return bothInt ? Slot::ofInt(std::max(a.i, b.i))
                       : Slot::ofReal(std::max(asReal(a), asReal(b)));
      case BinOp::And:
      case BinOp::Or:
        break;  // handled above
    }
    XDP_CHECK(false, "unreachable binop");
    return Slot::ofInt(0);
  }

  Section emptyOfRank(int rank) {
    std::vector<Triplet> dims;
    dims.emplace_back();
    for (int d = 1; d < rank; ++d) dims.emplace_back(0, 0);
    return rank == 0 ? Section{Triplet()} : Section(dims);
  }

  Section evalSection(int sym, const il::SectionExpr* sp) {
    XDP_CHECK(sp != nullptr, "evaluating null section expression");
    const il::SectionExpr& se = *sp;
    switch (se.kind) {
      case SecExprKind::Literal: {
        std::array<Triplet, sec::kMaxRank> dims{};
        for (std::size_t k = 0; k < se.dims.size(); ++k) {
          const il::TripletExpr& t = se.dims[k];
          Index lb = asInt(evalValue(t.lb.get()));
          Index ub = t.ub ? asInt(evalValue(t.ub.get())) : lb;
          Index stride = t.stride ? asInt(evalValue(t.stride.get())) : 1;
          const Triplet tr(lb, ub, stride);
          if (k < dims.size()) dims[k] = tr;
        }
        XDP_CHECK(se.dims.size() <= dims.size(),
                  "section rank exceeds kMaxRank");
        return Section(static_cast<int>(se.dims.size()), dims);
      }
      case SecExprKind::LocalPart:
        return partOf(se.sym >= 0 ? se.sym : sym, proc_.mypid(),
                      se.distOverride);
      case SecExprKind::OwnerPart:
        return partOf(se.sym >= 0 ? se.sym : sym,
                      static_cast<int>(asInt(evalValue(se.pid.get()))),
                      se.distOverride);
      case SecExprKind::Intersect: {
        Section a = evalSection(sym, se.a.get());
        Section b = evalSection(sym, se.b.get());
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

  std::optional<std::vector<int>> resolveDest(const il::DestSpec& d) {
    switch (d.kind) {
      case il::DestSpec::Kind::None:
        return std::nullopt;
      case il::DestSpec::Kind::Pids: {
        std::vector<int> pids;
        for (const auto& e : d.pids)
          pids.push_back(static_cast<int>(asInt(evalValue(e.get()))));
        return pids;
      }
      case il::DestSpec::Kind::OwnerOf: {
        Section sect = evalSection(d.sym, d.section.get());
        XDP_CHECK(!sect.empty(), "owner-of an empty section");
        const dist::Distribution& dd =
            d.distOverride ? *d.distOverride : proc_.table().decl(d.sym).dist;
        int owner = -1;
        bool unique = true;
        sect.forEach([&](const Point& p) {
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

  const il::ScalarIds& scalars_;
  rt::Proc& proc_;
  InterpStats& stats_;
  const InterpOptions& iopts_;
  const std::map<std::string, KernelFn>& kernels_;
  Slot* regs_;
  int ruleDepth_ = 0;
};

// =========================================================================
// Compiler
// =========================================================================

/// Size limits of one loop kernel: tape nodes (per tape) and accesses.
constexpr std::size_t kKernelNodes = 32;
constexpr std::size_t kKernelAccesses = 16;

/// (a, b) of subscript node `nd` as a * v + b, from its operands' and, for
/// an invariant leaf, its value `leaf`: wrapping like the per-op
/// evaluation, so a * v + b equals the subscript modulo 2^64.
std::pair<Index, Index> affineNode(const KernelSite::Node& nd,
                                   const Index* sa, const Index* sb,
                                   Index leaf) {
  using N = KernelSite::Node;
  switch (nd.kind) {
    case N::Var:
      return {1, 0};
    case N::Add:
      return {arith::wrapAdd(sa[nd.l], sa[nd.r]),
              arith::wrapAdd(sb[nd.l], sb[nd.r])};
    case N::Sub:
      return {arith::wrapSub(sa[nd.l], sa[nd.r]),
              arith::wrapSub(sb[nd.l], sb[nd.r])};
    case N::Mul:  // one side is invariant (a == 0)
      return {arith::wrapAdd(arith::wrapMul(sa[nd.l], sb[nd.r]),
                             arith::wrapMul(sb[nd.l], sa[nd.r])),
              arith::wrapMul(sb[nd.l], sb[nd.r])};
    case N::Neg:
      return {arith::wrapNeg(sa[nd.l]), arith::wrapNeg(sb[nd.l])};
    case N::Min:  // invariant operands
      return {0, std::min(sb[nd.l], sb[nd.r])};
    case N::Max:
      return {0, std::max(sb[nd.l], sb[nd.r])};
    default:
      return {0, leaf};
  }
}

class Compiler {
 public:
  Compiler(const il::Program& prog,
           std::shared_ptr<const il::ScalarIds> scalars)
      : ids_(*scalars) {
    m_.prog = prog;
    m_.scalars = std::move(scalars);
    for (const auto& a : prog.arrays) m_.elemTypes.push_back(a.type);
    tempTop_ = static_cast<std::uint32_t>(ids_.count());
    maxReg_ = tempTop_;
  }

  Module take() {
    if (const il::Stmt* body = m_.prog.body.get()) {
      internConsts(*body);
      compileStmt(*body);
    }
    emit({Op::Halt, 0, 0, 0, 0, 0});
    m_.numRegs = static_cast<std::uint16_t>(maxReg_);
    return std::move(m_);
  }

 private:
  /// The register of a scalar reference, or of the scalar a statement
  /// binds (an assignment, a loop).
  int reg(const il::Expr& e) const { return ids_.ofRef(&e); }
  int reg(const il::Stmt& s) const { return ids_.ofBind(&s); }

  std::int32_t emit(Insn in) {
    m_.code.push_back(in);
    return static_cast<std::int32_t>(m_.code.size() - 1);
  }

  std::uint16_t allocTemp() {
    XDP_CHECK(tempTop_ < 0xFFFF, "bytecode register file exhausted");
    const auto r = static_cast<std::uint16_t>(tempTop_++);
    maxReg_ = std::max(maxReg_, tempTop_);
    return r;
  }

  // --- constant hoisting -------------------------------------------------
  //
  // Every distinct literal in the program gets one persistent register,
  // materialized once in a prologue before the body. Inside loops this
  // removes the per-iteration ConstI/ConstR dispatches entirely (constants
  // are immutable and no op ever writes through a source register).
  // Persistent registers sit between the scalars and the per-statement
  // temporaries; compileStmt's tempTop_ reset never drops below them
  // because the prologue is emitted before any statement is compiled.

  std::uint16_t internInt(Index v) {
    auto it = cintReg_.find(v);
    if (it != cintReg_.end()) return it->second;
    const auto r = allocTemp();
    emit({Op::ConstI, 0, r, 0, 0, ipool(v)});
    cintReg_.emplace(v, r);
    intConstRegs_.insert(r);
    return r;
  }

  std::uint16_t internReal(double v) {
    const auto key = std::bit_cast<std::uint64_t>(v);
    auto it = crealReg_.find(key);
    if (it != crealReg_.end()) return it->second;
    const auto r = allocTemp();
    emit({Op::ConstR, 0, r, 0, 0, rpool(v)});
    crealReg_.emplace(key, r);
    return r;
  }

  /// The prologue. Literals take registers in a fixed order, which
  /// continuation images record: each statement's value, lhs, rhs,
  /// bounds, body, rule, sec2, bind hint, destination and kernel
  /// arguments, then its block children; a section's pid and operands
  /// before its triplets. Then, over the loops in post-order, the
  /// implicit step of a step-less loop and the split sites' constant
  /// coefficients (a loop scalar is 1 * v + 0, an invariant 0 * v + b).
  void internConsts(const il::Stmt& body) {
    std::vector<const il::Stmt*> loops;
    internStmt(body, loops);
    for (const il::Stmt* s : loops) {
      if (!s->step) internInt(1);
      if (splitShape(*s)) {
        internInt(0);
        internInt(1);
      }
    }
  }

  void internStmt(const il::Stmt& s, std::vector<const il::Stmt*>& loops) {
    internExpr(s.value.get());
    internSec(s.lhs.get());
    internExpr(s.rhs.get());
    internExpr(s.lb.get());
    internExpr(s.ub.get());
    internExpr(s.step.get());
    if (s.body) internStmt(*s.body, loops);
    internExpr(s.rule.get());
    internSec(s.sec2.get());
    internExpr(s.bindHint.get());
    for (const auto& p : s.dest.pids) internExpr(p.get());
    internSec(s.dest.section.get());
    for (const auto& [sym, se] : s.args) internSec(se.get());
    for (const auto& c : s.stmts) internStmt(*c, loops);
    if (s.kind == StmtKind::For) loops.push_back(&s);
  }

  void internExpr(const il::Expr* e) {
    if (e == nullptr) return;
    internExpr(e->lhs.get());
    internExpr(e->rhs.get());
    internSec(e->section.get());
    if (e->kind == ExprKind::IntConst) internInt(e->intVal);
    else if (e->kind == ExprKind::RealConst) internReal(e->realVal);
  }

  void internSec(const il::SectionExpr* se) {
    if (se == nullptr) return;
    internExpr(se->pid.get());
    internSec(se->a.get());
    internSec(se->b.get());
    for (const il::TripletExpr& t : se->dims) {
      internExpr(t.lb.get());
      internExpr(t.ub.get());
      internExpr(t.stride.get());
    }
  }

  std::int32_t ipool(Index v) {
    auto [it, fresh] =
        ipoolIdx_.emplace(v, static_cast<std::int32_t>(m_.ipool.size()));
    if (fresh) m_.ipool.push_back(v);
    return it->second;
  }

  std::int32_t rpool(double v) {
    auto [it, fresh] = rpoolIdx_.emplace(
        std::bit_cast<std::uint64_t>(v),
        static_cast<std::int32_t>(m_.rpool.size()));
    if (fresh) m_.rpool.push_back(v);
    return it->second;
  }

  // --- compilability -----------------------------------------------------

  bool elemTypeOk(int sym) const {
    return sym >= 0 && sym < static_cast<int>(m_.elemTypes.size()) &&
           (m_.elemTypes[static_cast<std::size_t>(sym)] == rt::ElemType::F64 ||
            m_.elemTypes[static_cast<std::size_t>(sym)] == rt::ElemType::I64);
  }

  /// Expression compilable to register ops. `allowElem` is false inside
  /// compute rules, where an element read must go through the cold
  /// evaluator's UnownedRef protocol (paper 2.4).
  bool hotExpr(const il::Expr* e, bool allowElem) const {
    if (e == nullptr) return false;
    switch (e->kind) {
      case ExprKind::IntConst:
      case ExprKind::RealConst:
      case ExprKind::ScalarRef:
      case ExprKind::MyPid:
      case ExprKind::NProcs:
        return true;
      case ExprKind::Bin:
        return hotExpr(e->lhs.get(), allowElem) &&
               hotExpr(e->rhs.get(), allowElem);
      case ExprKind::Neg:
      case ExprKind::Not:
        return hotExpr(e->lhs.get(), allowElem);
      case ExprKind::Elem:
        return allowElem && elemTypeOk(e->sym) && hotPoint(e->section.get());
      case ExprKind::Iown:
      case ExprKind::Accessible:
      case ExprKind::Await:
        return hotSec1(e->section.get(), allowElem);
      default:
        return false;
    }
  }

  /// Rank-1 literal section whose bound expressions compile hot.
  bool hotSec1(const il::SectionExpr* s, bool allowElem) const {
    if (s == nullptr || s->kind != SecExprKind::Literal || s->dims.size() != 1)
      return false;
    const il::TripletExpr& t = s->dims[0];
    return hotExpr(t.lb.get(), allowElem) &&
           (!t.ub || hotExpr(t.ub.get(), allowElem)) &&
           (!t.stride || hotExpr(t.stride.get(), allowElem));
  }

  /// A transfer statement whose sections and destination compile hot.
  bool hotXfer(const il::Stmt& s) const {
    switch (s.kind) {
      case StmtKind::SendData:
      case StmtKind::SendOwn:
        if (!hotSec1(s.lhs.get(), true)) return false;
        switch (s.dest.kind) {
          case il::DestSpec::Kind::None:
            return true;
          case il::DestSpec::Kind::Pids:
            for (const auto& p : s.dest.pids)
              if (!hotExpr(p.get(), true)) return false;
            return true;
          case il::DestSpec::Kind::OwnerOf:
            return hotSec1(s.dest.section.get(), true);
        }
        return false;
      case StmtKind::RecvData:
        return hotSec1(s.lhs.get(), true) && hotSec1(s.sec2.get(), true);
      case StmtKind::RecvOwn:
      case StmtKind::Await:
        return hotSec1(s.lhs.get(), true);
      default:
        return false;
    }
  }

  /// Literal single-point section with compilable subscripts.
  bool hotPoint(const il::SectionExpr* s) const {
    if (s == nullptr || s->kind != SecExprKind::Literal || s->dims.empty() ||
        s->dims.size() > static_cast<std::size_t>(sec::kMaxRank))
      return false;
    for (const il::TripletExpr& t : s->dims) {
      if (t.ub || t.stride) return false;  // points only
      if (!hotExpr(t.lb.get(), /*allowElem=*/true)) return false;
    }
    return true;
  }

  // --- expression compilation -------------------------------------------

  std::uint16_t compileExpr(const il::Expr& e) {
    switch (e.kind) {
      case ExprKind::IntConst:
        // Interned in the prologue; no instruction at the use site.
        return cintReg_.at(e.intVal);
      case ExprKind::RealConst:
        return crealReg_.at(std::bit_cast<std::uint64_t>(e.realVal));
      case ExprKind::ScalarRef:
        // Scalars live in their register; consumers check Undef.
        return static_cast<std::uint16_t>(reg(e));
      case ExprKind::MyPid: {
        const auto t = allocTemp();
        emit({Op::MyPid, 0, t, 0, 0, 0});
        return t;
      }
      case ExprKind::NProcs: {
        const auto t = allocTemp();
        emit({Op::NProcs, 0, t, 0, 0, 0});
        return t;
      }
      case ExprKind::Neg: {
        const auto v = compileExpr(*e.lhs);
        const auto t = allocTemp();
        emit({Op::Neg, 0, t, v, 0, 0});
        return t;
      }
      case ExprKind::Not: {
        const auto v = compileExpr(*e.lhs);
        const auto t = allocTemp();
        emit({Op::Not, 0, t, v, 0, 0});
        return t;
      }
      case ExprKind::Elem: {
        if (auto aff = affine1(*e.section)) {
          const auto t = allocTemp();
          emit({Op::LoadElem1, 1, t, aff->first, aff->second, e.sym});
          return t;
        }
        const auto base = compileSubscripts(*e.section);
        const auto rank = static_cast<std::uint8_t>(e.section->dims.size());
        const auto t = allocTemp();
        emit({Op::LoadElem, rank, t, base, 0, e.sym});
        return t;
      }
      case ExprKind::Bin:
        return compileBin(e);
      case ExprKind::Iown:
      case ExprKind::Accessible:
      case ExprKind::Await: {
        XferSite x;
        x.query = e.kind;
        x.sym = e.sym;
        x.sec = compileSec1(*e.section);
        const auto t = allocTemp();
        emit({Op::XQuery, 0, t, 0, 0, addXfer(std::move(x))});
        return t;
      }
      default:
        XDP_CHECK(false, "compileExpr on non-hot expression");
        return 0;
    }
  }

  std::int32_t addXfer(XferSite x) {
    m_.xfers.push_back(std::move(x));
    return static_cast<std::int32_t>(m_.xfers.size() - 1);
  }

  /// Index registers of a hotSec1 section, in the walker's order: lb, ub,
  /// stride, each converted like asInt, and the stride checked where the
  /// walker's Triplet constructor checks it.
  SecRegs compileSec1(const il::SectionExpr& se) {
    const il::TripletExpr& t = se.dims[0];
    SecRegs r;
    r.lb = toIndexTemp(compileExpr(*t.lb));
    if (t.ub) {
      r.ub = toIndexTemp(compileExpr(*t.ub));
      r.hasUb = true;
    }
    if (t.stride) {
      r.stride = toIndexTemp(compileExpr(*t.stride));
      r.hasStride = true;
      if (t.stride->kind != ExprKind::IntConst || t.stride->intVal < 1)
        emit({Op::CheckStride, 0, r.stride, 0, 0, 0});
    }
    return r;
  }

  /// StepXfer; <sections>; [XferSkip; <destination>;] Xfer — the cold
  /// ExecCold's schedule: its prologue, then the walker's evaluation
  /// order, destination pids after the empty-section check.
  void compileXfer(const il::Stmt& s) {
    const auto d = addXfer(XferSite{});
    emit({Op::StepXfer, 0, 0, 0, 0, d});
    m_.hotStmts += 1;
    XferSite x;
    x.stmt = s.kind;
    x.sym = s.sym;
    x.sym2 = s.sym2;
    x.withValue = s.withValue;
    x.sec = compileSec1(*s.lhs);
    if (s.kind == StmtKind::RecvData) x.sec2 = compileSec1(*s.sec2);
    if (s.kind == StmtKind::SendData || s.kind == StmtKind::SendOwn)
      x.dest = s.dest.kind;
    if (x.dest != il::DestSpec::Kind::None) {
      emit({Op::XferSkip, 0, 0, 0, 0, d});
      if (x.dest == il::DestSpec::Kind::Pids) {
        for (const auto& p : s.dest.pids)
          x.pids.push_back(toIndexTemp(compileExpr(*p)));
      } else {
        x.destSym = s.dest.sym;
        if (s.dest.distOverride) x.destDist = &*s.dest.distOverride;
        x.destSec = compileSec1(*s.dest.section);
      }
    }
    emit({Op::Xfer, 0, 0, 0, 0, d});
    x.endPc = static_cast<std::int32_t>(m_.code.size());
    m_.xfers[static_cast<std::size_t>(d)] = std::move(x);
  }

  std::uint16_t compileBin(const il::Expr& e) {
    // Short-circuit logicals become branches, mirroring the tree walker's
    // evaluate-lhs-first, skip-rhs semantics.
    if (e.op == BinOp::And || e.op == BinOp::Or) {
      const auto dst = allocTemp();
      const auto l = compileExpr(*e.lhs);
      emit({Op::ToBool, 0, dst, l, 0, 0});
      if (e.op == BinOp::And) {
        const auto j = emit({Op::JmpIfFalse, 0, dst, 0, 0, 0});
        const auto r = compileExpr(*e.rhs);
        emit({Op::ToBool, 0, dst, r, 0, 0});
        m_.code[static_cast<std::size_t>(j)].d =
            static_cast<std::int32_t>(m_.code.size());
      } else {
        const auto jr = emit({Op::JmpIfFalse, 0, dst, 0, 0, 0});
        const auto jend = emit({Op::Jmp, 0, 0, 0, 0, 0});
        m_.code[static_cast<std::size_t>(jr)].d =
            static_cast<std::int32_t>(m_.code.size());
        const auto r = compileExpr(*e.rhs);
        emit({Op::ToBool, 0, dst, r, 0, 0});
        m_.code[static_cast<std::size_t>(jend)].d =
            static_cast<std::int32_t>(m_.code.size());
      }
      return dst;
    }
    const auto l = compileExpr(*e.lhs);
    const auto r = compileExpr(*e.rhs);
    const auto dst = allocTemp();
    Op op;
    switch (e.op) {
      case BinOp::Add: op = Op::Add; break;
      case BinOp::Sub: op = Op::Sub; break;
      case BinOp::Mul: op = Op::Mul; break;
      case BinOp::Div: op = Op::Div; break;
      case BinOp::Mod: op = Op::Mod; break;
      case BinOp::Lt: op = Op::Lt; break;
      case BinOp::Le: op = Op::Le; break;
      case BinOp::Gt: op = Op::Gt; break;
      case BinOp::Ge: op = Op::Ge; break;
      case BinOp::Eq: op = Op::Eq; break;
      case BinOp::Ne: op = Op::Ne; break;
      case BinOp::Min: op = Op::Min; break;
      case BinOp::Max: op = Op::Max; break;
      default:
        XDP_CHECK(false, "unreachable binop in compileBin");
        op = Op::Add;
    }
    emit({op, 0, dst, l, r, 0});
    return dst;
  }

  /// Rank-1 affine subscript pattern `A[s]`, `A[s±c]`, `A[c±?]`: the
  /// index is one register plus a compile-time offset. Returns the
  /// (register, offset-pool-index) pair, or nullopt when the section
  /// doesn't match or the offset pool index overflows the c field.
  /// wrapSub(i,c) == wrapAdd(i,wrapNeg(c)) in two's complement, so Sub
  /// folds into a negative offset.
  std::optional<std::pair<std::uint16_t, std::uint16_t>> affine1(
      const il::SectionExpr& s) {
    if (s.dims.size() != 1) return std::nullopt;
    const il::Expr& e = *s.dims[0].lb;
    std::uint16_t r;
    Index off = 0;
    if (e.kind == ExprKind::ScalarRef) {
      r = static_cast<std::uint16_t>(reg(e));
    } else if (e.kind == ExprKind::IntConst) {
      r = cintReg_.at(e.intVal);
    } else if (e.kind == ExprKind::Bin &&
               (e.op == BinOp::Add || e.op == BinOp::Sub)) {
      const il::Expr& l = *e.lhs;
      const il::Expr& rt = *e.rhs;
      if (l.kind == ExprKind::ScalarRef && rt.kind == ExprKind::IntConst) {
        r = static_cast<std::uint16_t>(reg(l));
        off = e.op == BinOp::Add ? rt.intVal : arith::wrapNeg(rt.intVal);
      } else if (e.op == BinOp::Add && l.kind == ExprKind::IntConst &&
                 rt.kind == ExprKind::ScalarRef) {
        r = static_cast<std::uint16_t>(reg(rt));
        off = l.intVal;
      } else {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
    const std::int32_t pi = ipool(off);
    if (pi > 0xFFFF) return std::nullopt;
    return std::make_pair(r, static_cast<std::uint16_t>(pi));
  }

  /// Evaluate a hot point section's subscripts into consecutive int temps;
  /// returns the base register.
  std::uint16_t compileSubscripts(const il::SectionExpr& s) {
    // Reserve the destination block first so nested element reads in the
    // subscripts don't interleave their temps into it.
    const auto base = static_cast<std::uint16_t>(tempTop_);
    for (std::size_t k = 0; k < s.dims.size(); ++k) allocTemp();
    for (std::size_t k = 0; k < s.dims.size(); ++k) {
      const auto v = compileExpr(*s.dims[k].lb);
      emit({Op::ToIndex, 0, static_cast<std::uint16_t>(base + k), v, 0, 0});
    }
    return base;
  }

  // --- statement compilation --------------------------------------------

  void cold(const il::Stmt& s) {
    emit({Op::ExecCold, 0, 0, 0, 0,
          static_cast<std::int32_t>(m_.coldStmtNodes.size())});
    m_.coldStmtNodes.push_back(&s);
    m_.coldStmts += 1;
  }

  /// EvalCold or EvalRule of `e` into `dst`.
  void coldExpr(Op op, std::uint16_t dst, const il::Expr* e) {
    emit({op, 0, dst, 0, 0, static_cast<std::int32_t>(m_.coldExprs.size())});
    m_.coldExprs.push_back(e);
  }

  void compileStmt(const il::Stmt& s) {
    const std::uint32_t mark = tempTop_;
    switch (s.kind) {
      case StmtKind::Block:
        emit({Op::Step, 0, 0, 0, 0, 0});
        m_.hotStmts += 1;
        for (const auto& c : s.stmts) compileStmt(*c);
        break;
      case StmtKind::ScalarAssign: {
        if (!hotExpr(s.value.get(), /*allowElem=*/true)) {
          cold(s);
          break;
        }
        emit({Op::Step, 0, 0, 0, 0, 0});
        m_.hotStmts += 1;
        const auto v = compileExpr(*s.value);
        emit({Op::Mov, 0, static_cast<std::uint16_t>(reg(s)), v, 0, 0});
        break;
      }
      case StmtKind::ElemAssign: {
        if (!(elemTypeOk(s.sym) && hotPoint(s.lhs.get()) &&
              hotExpr(s.rhs.get(), /*allowElem=*/true))) {
          cold(s);
          break;
        }
        emit({Op::StepElem, 0, 0, 0, 0, 0});
        m_.hotStmts += 1;
        // Same order as the tree walker: target point, then value. The
        // affine shortcut still computes the index first (IdxAff) so
        // subscript errors precede value errors exactly as in the walker.
        if (auto aff = affine1(*s.lhs)) {
          const auto ix = allocTemp();
          emit({Op::IdxAff, 0, ix, aff->first, aff->second, 0});
          const auto v = compileExpr(*s.rhs);
          emit({Op::StoreElem, 1, v, ix, 0, s.sym});
          break;
        }
        const auto base = compileSubscripts(*s.lhs);
        const auto rank = static_cast<std::uint8_t>(s.lhs->dims.size());
        const auto v = compileExpr(*s.rhs);
        emit({Op::StoreElem, rank, v, base, 0, s.sym});
        break;
      }
      case StmtKind::For: {
        // For loops always compile hot: bounds the expression compiler
        // cannot handle are evaluated by one cold EvalCold each (walker
        // semantics, may block) feeding the hot loop skeleton. This keeps
        // every ExecCold a restartable leaf statement — no cold
        // instruction ever wraps a compound body — which checkpoint
        // capture relies on (DESIGN.md §11).
        emit({Op::Step, 0, 0, 0, 0, 0});
        m_.hotStmts += 1;
        auto boundReg = [&](const il::Expr* e) -> std::uint16_t {
          if (hotExpr(e, /*allowElem=*/true))
            return toIndexTemp(compileExpr(*e));
          const auto t = allocTemp();
          coldExpr(Op::EvalCold, t, e);
          emit({Op::ToIndex, 0, t, t, 0, 0});
          return t;
        };
        const auto lbR = boundReg(s.lb.get());
        const auto ubR = boundReg(s.ub.get());
        const std::uint16_t stR =
            s.step ? boundReg(s.step.get()) : cintReg_.at(1);
        emit({Op::CheckStep, 0, stR, 0, 0, 0});
        std::optional<std::size_t> site;
        if (splitNest_ < kMaxSplitNest) {
          if (auto shape = splitShape(s))
            site = emitSplit(s, *shape, lbR, ubR, stR);
        }
        // The loop counter is a dedicated temp (the tree walker's local
        // `i`): a body assignment to the loop scalar must not change the
        // trip sequence.
        const auto var = static_cast<std::uint16_t>(reg(s));
        const auto iR = allocTemp();
        const auto enter = emit({Op::ForEnter, 0, iR, lbR, ubR, 0});
        std::optional<std::size_t> kernel = emitKernel(*s.body, var, -1);
        const auto head = static_cast<std::int32_t>(m_.code.size());
        emit({Op::ForIter, 0, var, iR, 0, 0});
        compileStmt(*s.body);
        emit({Op::ForNext, 0, iR, ubR, stR, head});
        const auto end = static_cast<std::int32_t>(m_.code.size());
        m_.code[static_cast<std::size_t>(enter)].d = end;
        if (site) {
          m_.splits[*site].naivePc = enter;
          m_.splits[*site].exitPc = end;
        }
        if (kernel) {
          XDP_CHECK(pureSpan(static_cast<std::size_t>(head),
                             m_.code.size() - 1),
                    "loop kernel over an impure body");
          KernelSite& ks = m_.kernels[*kernel];
          ks.var = var;
          ks.iR = iR;
          ks.ub = ubR;
          ks.step = stR;
          ks.exitPc = end;
        }
        break;
      }
      case StmtKind::Guarded: {
        emit({Op::StepRule, 0, 0, 0, 0, 0});
        m_.hotStmts += 1;
        std::uint16_t r;
        if (hotExpr(s.rule.get(), /*allowElem=*/false)) {
          r = compileExpr(*s.rule);
        } else {
          r = allocTemp();
          coldExpr(Op::EvalRule, r, s.rule.get());
        }
        const auto j = emit({Op::JmpIfFalse, 0, r, 0, 0, 0});
        emit({Op::CountRuleTrue, 0, 0, 0, 0, 0});
        compileStmt(*s.body);
        m_.code[static_cast<std::size_t>(j)].d =
            static_cast<std::int32_t>(m_.code.size());
        break;
      }
      case StmtKind::SendData:
      case StmtKind::SendOwn:
      case StmtKind::RecvData:
      case StmtKind::RecvOwn:
      case StmtKind::Await:
        if (hotXfer(s))
          compileXfer(s);
        else
          cold(s);
        break;
      case StmtKind::ComputeCost: {
        if (!hotExpr(s.value.get(), /*allowElem=*/true)) {
          cold(s);
          break;
        }
        emit({Op::Step, 0, 0, 0, 0, 0});
        m_.hotStmts += 1;
        const auto v = compileExpr(*s.value);
        emit({Op::Cost, 0, v, 0, 0, 0});
        break;
      }
      default:
        cold(s);
        break;
    }
    tempTop_ = mark;
  }

  /// No instruction in [from, to) needs more than register ops and
  /// point element accesses: the code cannot block, cost modeled time or
  /// call out (see SplitSite::pure and KernelSite).
  bool pureSpan(std::size_t from, std::size_t to) const {
    for (std::size_t k = from; k < to; ++k) {
      switch (m_.code[k].op) {
        case Op::Cost:
        case Op::EvalCold:
        case Op::EvalRule:
        case Op::ExecCold:
        case Op::SplitRun:  // an ownedRanges query per loop entry
        case Op::StepXfer:
        case Op::XferSkip:
        case Op::Xfer:
        case Op::XQuery:
        case Op::Halt:
          return false;
        default:
          break;
      }
    }
    return true;
  }

  // --- guarded-loop range split (DESIGN.md §9.3) --------------------------
  //
  // The owner-computes lowering produces loops of the shape
  //     do i = lb, ub { iown(A[a*i+b]) : { body } }
  // where the guard is re-decided once per iteration although ownership is
  // a property of whole index ranges. When the shape is recognized and the
  // body provably cannot change the guard's answer mid-loop, a split site
  // goes in front of the ordinary loop: register code computes a and b,
  // one ownedRanges query finds the owned iterations, and a compiled copy
  // of the body runs just those, in ascending order.

  struct SplitShape {
    const il::Stmt* guard = nullptr;
    std::uint32_t chain = 0;  ///< unwrapped blocks + the guard
  };

  /// A split copy nested in a split copy doubles the code again; deeper
  /// loop nests run their inner guarded loops naive.
  static constexpr int kMaxSplitNest = 3;

  /// True iff `e` cannot reference the loop variable or any run-dependent
  /// state — safe to evaluate once before the loop. Div/Mod are
  /// deliberately absent: they can trap (divisor zero, INT64_MIN / -1),
  /// and the split must never hoist a trap onto a schedule position the
  /// naive schedule doesn't have.
  bool isPureInvariant(const il::Expr& e, int var) const {
    switch (e.kind) {
      case ExprKind::IntConst:
      case ExprKind::MyPid:
      case ExprKind::NProcs:
        return true;
      case ExprKind::ScalarRef:
        return reg(e) != var;
      case ExprKind::Neg:
        return isPureInvariant(*e.lhs, var);
      case ExprKind::Bin:
        switch (e.op) {
          case BinOp::Add:
          case BinOp::Sub:
          case BinOp::Mul:
          case BinOp::Min:
          case BinOp::Max:
            return isPureInvariant(*e.lhs, var) &&
                   isPureInvariant(*e.rhs, var);
          default:
            return false;
        }
      default:
        return false;
    }
  }

  /// `e` decomposes as a * var + b with invariant a and b.
  bool affineInVar(const il::Expr& e, int var) const {
    if (e.kind == ExprKind::ScalarRef && reg(e) == var) return true;
    if (isPureInvariant(e, var)) return true;
    if (e.kind == ExprKind::Neg) return affineInVar(*e.lhs, var);
    if (e.kind != ExprKind::Bin) return false;
    if (e.op == BinOp::Add || e.op == BinOp::Sub)
      return affineInVar(*e.lhs, var) && affineInVar(*e.rhs, var);
    if (e.op != BinOp::Mul) return false;
    // One side must be invariant (both-invariant was handled above).
    if (isPureInvariant(*e.lhs, var)) return affineInVar(*e.rhs, var);
    return isPureInvariant(*e.rhs, var) && affineInVar(*e.lhs, var);
  }

  /// Register code for (a, b) of an affineInVar expression. The ops wrap
  /// exactly like the naive evaluation, so a * i + b equals the naive
  /// subscript modulo 2^64; SplitRun's fit checks make it equal outright.
  std::pair<std::uint16_t, std::uint16_t> emitAffine(const il::Expr& e,
                                                     int var) {
    if (e.kind == ExprKind::ScalarRef && reg(e) == var)
      return {cintReg_.at(1), cintReg_.at(0)};
    if (isPureInvariant(e, var)) return {cintReg_.at(0), compileExpr(e)};
    auto op = [&](Op o, std::uint16_t x, std::uint16_t y) {
      const auto t = allocTemp();
      emit({o, 0, t, x, y, 0});
      return t;
    };
    if (e.kind == ExprKind::Neg) {
      const auto [a, b] = emitAffine(*e.lhs, var);
      return {op(Op::Neg, a, 0), op(Op::Neg, b, 0)};
    }
    if (e.op == BinOp::Add || e.op == BinOp::Sub) {
      const Op o = e.op == BinOp::Add ? Op::Add : Op::Sub;
      const auto [la, lb] = emitAffine(*e.lhs, var);
      const auto [ra, rb] = emitAffine(*e.rhs, var);
      return {op(o, la, ra), op(o, lb, rb)};
    }
    const bool lInv = isPureInvariant(*e.lhs, var);
    const auto c = compileExpr(lInv ? *e.lhs : *e.rhs);
    const auto [a, b] = emitAffine(lInv ? *e.rhs : *e.lhs, var);
    return {op(Op::Mul, a, c), op(Op::Mul, b, c)};
  }

  /// No awaiting expression anywhere in `e`.
  bool exprSplitSafe(const il::Expr* e) const {
    if (e == nullptr) return true;
    return e->kind != ExprKind::Await && exprSplitSafe(e->lhs.get()) &&
           exprSplitSafe(e->rhs.get()) && secSplitSafe(e->section.get());
  }

  bool secSplitSafe(const il::SectionExpr* se) const {
    if (se == nullptr) return true;
    switch (se->kind) {
      case SecExprKind::Literal:
        for (const il::TripletExpr& t : se->dims) {
          if (!exprSplitSafe(t.lb.get()) || !exprSplitSafe(t.ub.get()) ||
              !exprSplitSafe(t.stride.get()))
            return false;
        }
        return true;
      case SecExprKind::LocalPart:
        return true;
      case SecExprKind::OwnerPart:
        return exprSplitSafe(se->pid.get());
      case SecExprKind::Intersect:
        return secSplitSafe(se->a.get()) && secSplitSafe(se->b.get());
    }
    return false;
  }

  bool destSplitSafe(const il::DestSpec& d) const {
    for (const auto& p : d.pids)
      if (!exprSplitSafe(p.get())) return false;
    return secSplitSafe(d.section.get());
  }

  /// Mark every scalar register read under `e` in `frozen`.
  void collectScalars(const il::Expr* e, std::vector<char>& frozen) const {
    if (e == nullptr) return;
    if (e->kind == ExprKind::ScalarRef)
      frozen[static_cast<std::size_t>(reg(*e))] = 1;
    collectScalars(e->lhs.get(), frozen);
    collectScalars(e->rhs.get(), frozen);
    collectScalarsSec(e->section.get(), frozen);
  }

  void collectScalarsSec(const il::SectionExpr* se,
                         std::vector<char>& frozen) const {
    if (se == nullptr) return;
    for (const il::TripletExpr& t : se->dims) {
      collectScalars(t.lb.get(), frozen);
      collectScalars(t.ub.get(), frozen);
      collectScalars(t.stride.get(), frozen);
    }
    collectScalars(se->pid.get(), frozen);
    collectScalarsSec(se->a.get(), frozen);
    collectScalarsSec(se->b.get(), frozen);
  }

  /// The body may run unguarded only if it cannot change what the guard
  /// would have answered on a later iteration: no ownership transitions,
  /// no receives, no blocking, no kernels (opaque), and no assignment to
  /// the loop variable or any scalar the guard's section reads.
  bool bodySplitSafe(const il::Stmt& st,
                     const std::vector<char>& frozen) const {
    auto free = [&](const il::Stmt& s) {
      return frozen[static_cast<std::size_t>(reg(s))] == 0;
    };
    switch (st.kind) {
      case StmtKind::Block:
        for (const auto& c : st.stmts)
          if (!bodySplitSafe(*c, frozen)) return false;
        return true;
      case StmtKind::ScalarAssign:
        return free(st) && exprSplitSafe(st.value.get());
      case StmtKind::ElemAssign:
        return secSplitSafe(st.lhs.get()) && exprSplitSafe(st.rhs.get());
      case StmtKind::For:
        return free(st) && exprSplitSafe(st.lb.get()) &&
               exprSplitSafe(st.ub.get()) && exprSplitSafe(st.step.get()) &&
               bodySplitSafe(*st.body, frozen);
      case StmtKind::Guarded:
        return exprSplitSafe(st.rule.get()) && bodySplitSafe(*st.body, frozen);
      case StmtKind::SendData:
        // Plain data sends read values and talk to the fabric; they never
        // touch this processor's ownership or pending-receive state.
        return secSplitSafe(st.lhs.get()) && destSplitSafe(st.dest);
      case StmtKind::LocalCopy:
        return secSplitSafe(st.lhs.get()) && secSplitSafe(st.sec2.get());
      case StmtKind::ComputeCost:
        return exprSplitSafe(st.value.get());
      case StmtKind::SendOwn:
      case StmtKind::RecvOwn:
      case StmtKind::RecvData:
      case StmtKind::Await:
      case StmtKind::Kernel:
        return false;
    }
    return false;
  }

  /// The split shape of `loop`, if it has one: its body is, through
  /// single-statement blocks, an iown/accessible guard of a literal point
  /// section affine in the loop scalar, over a split-safe body.
  std::optional<SplitShape> splitShape(const il::Stmt& loop) const {
    const int var = reg(loop);
    SplitShape sh;
    sh.chain = 1;
    const il::Stmt* g = loop.body.get();
    while (g->kind == StmtKind::Block && g->stmts.size() == 1) {
      g = g->stmts[0].get();
      ++sh.chain;
    }
    sh.guard = g;
    if (g->kind != StmtKind::Guarded) return std::nullopt;
    const il::Expr& rule = *g->rule;
    if (rule.kind != ExprKind::Iown && rule.kind != ExprKind::Accessible)
      return std::nullopt;
    if (rule.section == nullptr) return std::nullopt;
    const il::SectionExpr& se = *rule.section;
    if (se.kind != SecExprKind::Literal || se.dims.empty())
      return std::nullopt;
    bool anyVarying = false;
    for (const il::TripletExpr& t : se.dims) {
      if (t.ub || t.stride) return std::nullopt;  // points
      if (!affineInVar(*t.lb, var)) return std::nullopt;
      anyVarying = anyVarying || !isPureInvariant(*t.lb, var);
    }
    if (!anyVarying) return std::nullopt;
    std::vector<char> frozen(static_cast<std::size_t>(ids_.count()), 0);
    frozen[static_cast<std::size_t>(var)] = 1;
    collectScalars(g->rule.get(), frozen);
    if (!bodySplitSafe(*g->body, frozen)) return std::nullopt;
    return sh;
  }

  /// Emit `SplitEnter; <coefficients>; SplitRun; <body copy>; SplitNext`
  /// and return the new site's index; the caller patches naivePc/exitPc
  /// once the ordinary loop is emitted.
  std::size_t emitSplit(const il::Stmt& loop, const SplitShape& sh,
                        std::uint16_t lbR, std::uint16_t ubR,
                        std::uint16_t stR) {
    const std::size_t idx = m_.splits.size();
    m_.splits.emplace_back();
    const auto d = static_cast<std::int32_t>(idx);
    emit({Op::SplitEnter, 0, 0, 0, 0, d});
    const il::Expr& rule = *sh.guard->rule;
    const int var = reg(loop);
    SplitSite site;
    site.sym = rule.sym;
    site.accessible = rule.kind == ExprKind::Accessible;
    site.var = static_cast<std::uint16_t>(var);
    site.lb = lbR;
    site.ub = ubR;
    site.step = stR;
    site.chain = sh.chain;
    std::vector<char> read(static_cast<std::size_t>(ids_.count()), 0);
    for (const il::TripletExpr& t : rule.section->dims) {
      site.dims.push_back(emitAffine(*t.lb, var));
      collectScalars(t.lb.get(), read);
    }
    read[static_cast<std::size_t>(var)] = 0;
    for (std::size_t r = 0; r < read.size(); ++r)
      if (read[r] != 0) site.scalars.push_back(static_cast<std::uint16_t>(r));
    emit({Op::SplitRun, 0, 0, 0, 0, d});
    const bool fused = emitKernel(*sh.guard->body, var, d).has_value();
    site.bodyPc = static_cast<std::int32_t>(m_.code.size());
    // The copy is the same statements again: hot/cold count them once.
    const auto hot = m_.hotStmts, coldN = m_.coldStmts;
    ++splitNest_;
    compileStmt(*sh.guard->body);
    --splitNest_;
    m_.hotStmts = hot;
    m_.coldStmts = coldN;
    emit({Op::SplitNext, 0, 0, 0, 0, d});
    site.pure =
        pureSpan(static_cast<std::size_t>(site.bodyPc), m_.code.size() - 1);
    XDP_CHECK(site.pure || !fused, "loop kernel over an impure body");
    m_.splits[idx] = std::move(site);
    return idx;
  }

  // --- loop kernels (DESIGN.md §9.2) -------------------------------------
  //
  // A pure loop whose body is a few rank-1 element assignments runs as one
  // LoopKernel op in front of its per-op copy. The recognizer builds two
  // tapes: the subscripts, affine in the loop scalar, and the values.

  static constexpr std::size_t kMaxKernelAssigns = 4;
  static constexpr std::size_t kMaxKernelSteps = 8;

  /// Emit LoopKernel for a loop over `body` in scalar `var` if the body
  /// has the kernel shape (see KernelSite); `split` names the split site
  /// of a split copy, -1 for a plain loop. Returns the kernel's index.
  std::optional<std::size_t> emitKernel(const il::Stmt& body, int var,
                                        std::int32_t split) {
    KernelSite ks;
    if (!kernelStmt(body, var, ks) || ks.assigns.empty()) return std::nullopt;
    using N = KernelSite::Node;
    ks.fixedValues = true;
    for (const KernelSite::Assign& a : ks.assigns)
      ks.fixedValues = ks.fixedValues && a.termsLen != 0;
    for (const N& nd : ks.values)
      ks.fixedValues = ks.fixedValues && nd.kind != N::Scalar &&
                       nd.kind != N::MyPid && nd.kind != N::NProcs &&
                       nd.kind != N::Var;
    for (KernelSite::Term& t : ks.terms) {
      if (t.coef < 0) continue;
      const N& c = ks.values[static_cast<std::size_t>(t.coef)];
      if (c.kind == N::IntC)
        t.c = static_cast<double>(m_.ipool[static_cast<std::size_t>(c.arg)]);
      else if (c.kind == N::RealC)
        t.c = m_.rpool[static_cast<std::size_t>(c.arg)];
    }
    ks.split = split;
    const std::size_t k = m_.kernels.size();
    m_.kernels.push_back(std::move(ks));
    emit({Op::LoopKernel, 0, 0, 0, 0, static_cast<std::int32_t>(k)});
    return k;
  }

  bool kernelStmt(const il::Stmt& s, int var, KernelSite& ks) {
    if (ks.plan.size() == kMaxKernelSteps) return false;
    if (s.kind == StmtKind::Block) {
      ks.plan.push_back(-1);
      for (const auto& c : s.stmts)
        if (!kernelStmt(*c, var, ks)) return false;
      return true;
    }
    if (s.kind != StmtKind::ElemAssign ||
        ks.assigns.size() == kMaxKernelAssigns)
      return false;
    KernelSite::Assign a;
    const auto store = kernelAccess(s.sym, *s.lhs, var, ks);
    if (!store) return false;
    a.store = *store;
    const auto value = kernelValue(*s.rhs, var, ks);
    if (!value) return false;
    a.value = *value;
    a.termsOff = static_cast<std::uint8_t>(ks.terms.size());
    if (!sumTerms(*value, ks, false))
      ks.terms.resize(a.termsOff);  // not the sum form: run the tape
    a.termsLen = static_cast<std::uint8_t>(ks.terms.size() - a.termsOff);
    ks.plan.push_back(static_cast<std::int8_t>(ks.assigns.size()));
    ks.assigns.push_back(a);
    return true;
  }

  /// A rank-1 element access whose subscript is affine in `var`; its
  /// subscript goes to the `subs` tape.
  std::optional<std::uint8_t> kernelAccess(int sym, const il::SectionExpr& se,
                                           int var, KernelSite& ks) {
    if (!elemTypeOk(sym) ||
        m_.prog.arrays[static_cast<std::size_t>(sym)].global.rank() != 1 ||
        ks.accesses.size() == kKernelAccesses)
      return std::nullopt;
    if (se.kind != SecExprKind::Literal || se.dims.size() != 1)
      return std::nullopt;
    const il::TripletExpr& t = se.dims[0];
    if (t.ub || t.stride || !affineInVar(*t.lb, var)) return std::nullopt;
    const std::size_t mark = ks.subs.size();
    auto sub = kernelNode(*t.lb, var, ks, ks.subs);
    if (!sub) return std::nullopt;
    foldSubscript(ks, mark, sub);
    KernelSite::Access acc;
    const auto known = std::find(ks.syms.begin(), ks.syms.end(), sym);
    acc.sym = static_cast<std::uint8_t>(known - ks.syms.begin());
    if (known == ks.syms.end()) ks.syms.push_back(sym);
    acc.i64 = m_.elemTypes[static_cast<std::size_t>(sym)] == rt::ElemType::I64;
    acc.sub = *sub;
    ks.accesses.push_back(acc);
    return static_cast<std::uint8_t>(ks.accesses.size() - 1);
  }

  /// Fold the subscript tree appended to `ks.subs` from `mark` into one
  /// Fixed node when its leaves are the loop scalar and literals only.
  void foldSubscript(KernelSite& ks, std::size_t mark,
                     std::optional<std::uint8_t>& root) {
    using N = KernelSite::Node;
    std::array<Index, kKernelNodes> sa{}, sb{};
    for (std::size_t n = mark; n < ks.subs.size(); ++n) {
      const N& nd = ks.subs[n];
      if (nd.kind == N::Scalar || nd.kind == N::MyPid ||
          nd.kind == N::NProcs || nd.kind == N::Fixed)
        return;
      const Index leaf =
          nd.kind == N::IntC ? m_.ipool[static_cast<std::size_t>(nd.arg)] : 0;
      std::tie(sa[n], sb[n]) = affineNode(nd, sa.data(), sb.data(), leaf);
    }
    N fixed;
    fixed.kind = N::Fixed;
    fixed.arg = ipool(sa[*root]);
    fixed.arg2 = ipool(sb[*root]);
    ks.subs.resize(mark);
    ks.subs.push_back(fixed);
    root = static_cast<std::uint8_t>(mark);
  }

  /// The value tape: + - * / and negation over element reads, literals,
  /// scalars and the loop scalar. A division whose operands can only be
  /// ints would be an int division, which can trap: the loop declines.
  std::optional<std::uint8_t> kernelValue(const il::Expr& e, int var,
                                          KernelSite& ks) {
    if (e.kind == ExprKind::Bin) {
      if (e.op != BinOp::Add && e.op != BinOp::Sub && e.op != BinOp::Mul &&
          e.op != BinOp::Div)
        return std::nullopt;
      if (e.op == BinOp::Div && onlyInt(*e.lhs, var) && onlyInt(*e.rhs, var))
        return std::nullopt;
    }
    return kernelNode(e, var, ks, ks.values);
  }

  /// No leaf of `e` can be real: no element read, real literal or scalar
  /// other than the loop scalar.
  bool onlyInt(const il::Expr& e, int var) const {
    switch (e.kind) {
      case ExprKind::IntConst:
      case ExprKind::MyPid:
      case ExprKind::NProcs:
        return true;
      case ExprKind::ScalarRef:
        return reg(e) == var;
      case ExprKind::Neg:
        return onlyInt(*e.lhs, var);
      case ExprKind::Bin:
        return onlyInt(*e.lhs, var) && onlyInt(*e.rhs, var);
      default:
        return false;
    }
  }

  /// Append `e`'s subtree to `tape` in evaluation order; the operators
  /// `kernelValue` and `affineInVar` admit were checked by the caller.
  std::optional<std::uint8_t> kernelNode(const il::Expr& e, int var,
                                         KernelSite& ks,
                                         std::vector<KernelSite::Node>& tape) {
    using N = KernelSite::Node;
    N n;
    switch (e.kind) {
      case ExprKind::IntConst:
        n.kind = N::IntC;
        n.arg = ipool(e.intVal);
        break;
      case ExprKind::RealConst:
        n.kind = N::RealC;
        n.arg = rpool(e.realVal);
        break;
      case ExprKind::ScalarRef:
        n.arg = reg(e);
        n.kind = n.arg == var ? N::Var : N::Scalar;
        break;
      case ExprKind::MyPid:
        n.kind = N::MyPid;
        break;
      case ExprKind::NProcs:
        n.kind = N::NProcs;
        break;
      case ExprKind::Elem: {
        if (&tape != &ks.values) return std::nullopt;
        const auto acc = kernelAccess(e.sym, *e.section, var, ks);
        if (!acc) return std::nullopt;
        n.kind = N::Load;
        n.arg = *acc;
        break;
      }
      case ExprKind::Neg: {
        const auto l = &tape == &ks.values ? kernelValue(*e.lhs, var, ks)
                                           : kernelNode(*e.lhs, var, ks, tape);
        if (!l) return std::nullopt;
        n.kind = N::Neg;
        n.l = *l;
        break;
      }
      case ExprKind::Bin: {
        switch (e.op) {
          case BinOp::Add: n.kind = N::Add; break;
          case BinOp::Sub: n.kind = N::Sub; break;
          case BinOp::Mul: n.kind = N::Mul; break;
          case BinOp::Div: n.kind = N::Div; break;
          case BinOp::Min: n.kind = N::Min; break;
          case BinOp::Max: n.kind = N::Max; break;
          default:
            return std::nullopt;
        }
        const bool value = &tape == &ks.values;
        const auto l = value ? kernelValue(*e.lhs, var, ks)
                             : kernelNode(*e.lhs, var, ks, tape);
        if (!l) return std::nullopt;
        const auto r = value ? kernelValue(*e.rhs, var, ks)
                             : kernelNode(*e.rhs, var, ks, tape);
        if (!r) return std::nullopt;
        n.l = *l;
        n.r = *r;
        break;
      }
      default:
        return std::nullopt;
    }
    if (tape.size() == kKernelNodes) return std::nullopt;
    tape.push_back(n);
    return static_cast<std::uint8_t>(tape.size() - 1);
  }

  /// Record value node `n` as the sum-of-scaled-loads form, left-
  /// associated: terms `c * X[..]`, `X[..] * c` or `X[..]` with c a
  /// literal or an invariant scalar, joined by + and -. A term may scale
  /// the loop scalar instead of a load; the form then holds only when
  /// every operator turns out real-typed on entry.
  bool sumTerms(std::uint8_t n, KernelSite& ks, bool minus) {
    using N = KernelSite::Node;
    const N& nd = ks.values[n];
    if (nd.kind == N::Add || nd.kind == N::Sub) {
      if (!sumTerms(nd.l, ks, false) || !scaledLoad(nd.r, ks)) return false;
      ks.terms.back().minus = nd.kind == N::Sub;
      return true;
    }
    return !minus && scaledLoad(n, ks);
  }

  bool scaledLoad(std::uint8_t n, KernelSite& ks) {
    using N = KernelSite::Node;
    const N& nd = ks.values[n];
    auto coef = [&](std::uint8_t k) {
      const N::Kind c = ks.values[k].kind;
      return c == N::IntC || c == N::RealC || c == N::Scalar ||
             c == N::MyPid || c == N::NProcs;
    };
    // A load, or the loop scalar (KernelSite::kVarTerm).
    auto operand = [&](std::uint8_t k, std::uint8_t& access) {
      const N& o = ks.values[k];
      if (o.kind != N::Load && o.kind != N::Var) return false;
      access = o.kind == N::Load ? static_cast<std::uint8_t>(o.arg)
                                 : KernelSite::kVarTerm;
      return true;
    };
    KernelSite::Term t;
    if (operand(n, t.access)) {
    } else if (nd.kind == N::Mul && coef(nd.l) && operand(nd.r, t.access)) {
      t.coef = nd.l;
      t.coefFirst = true;
    } else if (nd.kind == N::Mul && coef(nd.r) && operand(nd.l, t.access)) {
      t.coef = nd.r;
    } else {
      return false;
    }
    ks.terms.push_back(t);
    return true;
  }

  std::uint16_t toIndexTemp(std::uint16_t src) {
    // A hoisted int constant is already a validated Int slot: ToIndex on
    // it would be an identity copy.
    if (intConstRegs_.count(src)) return src;
    const auto t = allocTemp();
    emit({Op::ToIndex, 0, t, src, 0, 0});
    return t;
  }

  const il::ScalarIds& ids_;
  Module m_;
  std::uint32_t tempTop_ = 0;
  std::uint32_t maxReg_ = 0;
  std::unordered_map<Index, std::int32_t> ipoolIdx_;
  std::unordered_map<std::uint64_t, std::int32_t> rpoolIdx_;
  std::unordered_map<Index, std::uint16_t> cintReg_;
  std::unordered_map<std::uint64_t, std::uint16_t> crealReg_;
  std::unordered_set<std::uint16_t> intConstRegs_;
  int splitNest_ = 0;  ///< split body copies being compiled
};

/// The owned iterations of an active split site, in ascending order: one
/// progression, or the sorted union of several interleaved ones. A site is
/// never re-entered while its loop runs (loop nests are static).
struct SplitCursor {
  std::vector<Index> order;  ///< several sets, materialized
  std::size_t pos = 0;
  Index at = 0;              ///< the current iteration
  Index end = 0, stride = 1; ///< the one set's last element and stride
  Index last = 0;            ///< the loop's last logical iteration
  bool any = false;          ///< some iteration is owned

  bool next() {
    if (!order.empty()) {
      if (++pos == order.size()) return false;
      at = order[pos];
      return true;
    }
    if (at == end) return false;
    at += stride;
    return true;
  }

  /// Skip to the last owned iteration.
  void toLast() {
    if (order.empty()) {
      at = end;
      return;
    }
    pos = order.size() - 1;
    at = order[pos];
  }

  /// Call fn(first, last, step) on the owned iterations as ranges, in
  /// order, until it returns false: the one set, or the maximal runs of
  /// the loop step in several sets. True iff every call returned true.
  template <class Fn>
  bool forEachRange(Index loopStep, Fn&& fn) const {
    if (order.empty()) return fn(at, end, stride);
    for (std::size_t k = 0; k < order.size();) {
      std::size_t j = k;
      while (j + 1 < order.size() &&
             static_cast<std::uint64_t>(order[j + 1]) -
                     static_cast<std::uint64_t>(order[j]) ==
                 static_cast<std::uint64_t>(loopStep))
        ++j;
      if (!fn(order[k], order[j], loopStep)) return false;
      k = j + 1;
    }
    return true;
  }
};

/// The loop kernel's per-element helpers are lambdas over its locals; an
/// out-of-line copy would make every local escape and reload per element.
#define XDP_KERNEL_INLINE __attribute__((always_inline))

/// Iterations in first, first + step, ..., last (first <= last, step > 0).
/// A unit step skips the division, which costs a short loop's entry more
/// than the rest of its bookkeeping.
std::uint64_t iterCount(Index first, Index last, Index step) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(last) - static_cast<std::uint64_t>(first);
  return (step == 1 ? span : span / static_cast<std::uint64_t>(step)) + 1;
}

/// LoopKernel's work (DESIGN.md §9.2), out of line so the dispatch loop
/// stays small. `ranges(fn)` calls fn(first, last, step) on each range of
/// the loop's iterations in order until fn returns false. Entry holds when
/// every subscript coefficient is an Int, every value leaf is defined, no
/// division is an int division, and on every range each access's image
/// fits int64 inside one table window. Then it runs the iterations (all
/// but the last with `keepLast`) with the per-op copy's hook calls and
/// counters, in its order, and returns true; otherwise it returns false
/// having changed nothing.
template <class Ranges>
[[gnu::noinline]] bool runKernel(const Module& m, const KernelSite& ks,
                                 const Slot* regs, rt::Proc& proc,
                                 InterpStats& stats, const StepHook* hook,
                                 Ranges&& ranges, bool keepLast) {
  using N = KernelSite::Node;
  using I128 = __int128;
  constexpr std::ptrdiff_t kElem = 8;  // f64 and i64 elements
  // Subscripts: a * v + b per node; every invariant leaf must be an Int.
  std::array<Index, kKernelNodes> sa, sb;
  for (std::size_t n = 0; n < ks.subs.size(); ++n) {
    const N& nd = ks.subs[n];
    Index leaf = 0;
    switch (nd.kind) {
      case N::Fixed:
        sa[n] = m.ipool[static_cast<std::size_t>(nd.arg)];
        sb[n] = m.ipool[static_cast<std::size_t>(nd.arg2)];
        continue;
      case N::IntC:
        leaf = m.ipool[static_cast<std::size_t>(nd.arg)];
        break;
      case N::Scalar: {
        const Slot& v = regs[nd.arg];
        if (v.tag != Tag::Int) return false;
        leaf = v.i;
        break;
      }
      case N::MyPid:
        leaf = proc.mypid();
        break;
      case N::NProcs:
        leaf = proc.nprocs();
        break;
      default:
        break;
    }
    std::tie(sa[n], sb[n]) = affineNode(nd, sa.data(), sb.data(), leaf);
  }
  // Values: leaves resolved once, each operator typed like the per-op
  // Slot arithmetic (int iff both operands are). An int node keeps its
  // value in both arrays, so real operators read `vr` without a test.
  enum Rop : std::uint8_t { Leaf, VarI, Load, AddI, SubI, MulI, NegI,
                            AddR, SubR, MulR, DivR, NegR };
  std::array<Index, kKernelNodes> vi;
  std::array<double, kKernelNodes> vr;
  std::array<bool, kKernelNodes> isInt;
  std::array<Rop, kKernelNodes> rop;
  for (std::size_t n = 0; !ks.fixedValues && n < ks.values.size(); ++n) {
    const N& nd = ks.values[n];
    Rop o = Leaf;
    bool in = true;
    const bool ints = nd.kind >= N::Add && isInt[nd.l] && isInt[nd.r];
    switch (nd.kind) {
      case N::IntC:
        vi[n] = m.ipool[static_cast<std::size_t>(nd.arg)];
        break;
      case N::RealC:
        vr[n] = m.rpool[static_cast<std::size_t>(nd.arg)];
        in = false;
        break;
      case N::Scalar: {
        const Slot& v = regs[nd.arg];
        if (v.tag == Tag::Undef) return false;
        in = v.tag == Tag::Int;
        if (in)
          vi[n] = v.i;
        else
          vr[n] = asReal(v);
        break;
      }
      case N::MyPid:
        vi[n] = proc.mypid();
        break;
      case N::NProcs:
        vi[n] = proc.nprocs();
        break;
      case N::Var:
        o = VarI;
        break;
      case N::Load:
        o = Load;
        in = false;
        break;
      case N::Add:
        o = ints ? AddI : AddR;
        in = ints;
        break;
      case N::Sub:
        o = ints ? SubI : SubR;
        in = ints;
        break;
      case N::Mul:
        o = ints ? MulI : MulR;
        in = ints;
        break;
      case N::Div:
        if (ints) return false;  // an int division can trap
        o = DivR;
        in = false;
        break;
      case N::Neg:
        in = isInt[nd.l];
        o = in ? NegI : NegR;
        break;
      default:
        return false;
    }
    if (in && o == Leaf) vr[n] = static_cast<double>(vi[n]);
    rop[n] = o;
    isInt[n] = in;
  }
  // Each term owns a distinct leaf node of the value tape, so the terms
  // are at most kKernelNodes (a bare loop-scalar term takes no access).
  std::array<double, kKernelNodes> coef;
  for (std::size_t t = 0; t < ks.terms.size(); ++t)
    if (ks.terms[t].coef >= 0)
      coef[t] = ks.fixedValues
                    ? ks.terms[t].c
                    : vr[static_cast<std::size_t>(ks.terms[t].coef)];

  // Windows: one per symbol and range, over the images of all the
  // symbol's accesses, checked before anything runs. The first range's
  // are kept for the run.
  const std::size_t nacc = ks.accesses.size(), nsym = ks.syms.size();
  std::array<std::byte*, kKernelAccesses> win, rangeWin;
  std::array<Index, kKernelAccesses> winLo, rangeLo;
  auto windows = [&](Index first, Index last, std::byte** w, Index* wlo) {
    std::array<Index, kKernelAccesses> hi;
    for (std::size_t g = 0; g < nsym; ++g) {
      wlo[g] = std::numeric_limits<Index>::max();
      hi[g] = std::numeric_limits<Index>::min();
    }
    for (std::size_t j = 0; j < nacc; ++j) {
      const KernelSite::Access& acc = ks.accesses[j];
      const I128 a = sa[acc.sub], b = sb[acc.sub];
      const I128 x = a * first + b, y = a * last + b;
      const I128 mn = std::min(x, y), mx = std::max(x, y);
      if (mn < std::numeric_limits<Index>::min() ||
          mx > std::numeric_limits<Index>::max())
        return false;
      wlo[acc.sym] = std::min(wlo[acc.sym], static_cast<Index>(mn));
      hi[acc.sym] = std::max(hi[acc.sym], static_cast<Index>(mx));
    }
    for (std::size_t g = 0; g < nsym; ++g) {
      w[g] = proc.table().window1(ks.syms[g], wlo[g], hi[g]);
      if (w[g] == nullptr) return false;
    }
    return true;
  };
  std::uint64_t total = 0;
  bool firstRange = true;
  const bool fits = ranges([&](Index first, Index last, Index step) {
    if (!windows(first, last, firstRange ? win.data() : rangeWin.data(),
                 firstRange ? winLo.data() : rangeLo.data()))
      return false;
    firstRange = false;
    const std::uint64_t count = iterCount(first, last, step);
    total += count;
    return count != 0;  // 0: all 2^64 int64 values, which no run finishes
  });
  if (!fits) return false;

  stats.fusedLoops += 1;
  // The loop stores through byte pointers, which may alias anything the
  // compiler cannot prove private, so the shape is copied into locals.
  struct LAssign {
    std::uint8_t store, from, value, termsOff, termsLen;
    bool sum;  ///< the sum form applies: no operator is int-typed
  };
  const std::size_t nplan = ks.plan.size();
  std::array<std::int8_t, 8> plan{};
  std::copy(ks.plan.begin(), ks.plan.end(), plan.begin());
  std::array<LAssign, 4> las;
  for (std::size_t k = 0, from = 0; k < ks.assigns.size(); ++k) {
    const KernelSite::Assign& a = ks.assigns[k];
    bool sum = a.termsLen != 0;
    for (std::size_t n = from; !ks.fixedValues && n <= a.value; ++n)
      sum = sum && (rop[n] < AddI || rop[n] > NegI);
    las[k] = {a.store, static_cast<std::uint8_t>(from), a.value, a.termsOff,
              a.termsLen, sum};
    from = a.value + 1u;
  }
  std::array<bool, kKernelAccesses> i64;
  for (std::size_t j = 0; j < nacc; ++j) i64[j] = ks.accesses[j].i64;
  std::array<std::uint8_t, kKernelNodes> nl, nr, narg;
  for (std::size_t n = 0; !ks.fixedValues && n < ks.values.size(); ++n) {
    nl[n] = ks.values[n].l;
    nr[n] = ks.values[n].r;
    narg[n] = static_cast<std::uint8_t>(ks.values[n].arg);
  }
  std::array<std::uint8_t, kKernelNodes> tacc;
  std::array<std::int8_t, kKernelNodes> top;  // 0 bare, 1 c*x, 2 x*c
  std::array<bool, kKernelNodes> tminus;
  for (std::size_t t = 0; t < ks.terms.size(); ++t) {
    const KernelSite::Term& tm = ks.terms[t];
    tacc[t] = tm.access;
    top[t] = tm.coef < 0 ? 0 : (tm.coefFirst ? 1 : 2);
    tminus[t] = tm.minus;
  }
  const std::uint64_t perIterLoops = ks.split < 0 ? 1 : 0;
  const std::size_t nassign = ks.assigns.size();
  std::array<std::byte*, kKernelAccesses> ptr;
  std::array<std::ptrdiff_t, kKernelAccesses> dp;
  Index iv = 0;

  // One assignment of the current iteration: value, then store.
  auto assign = [&](const LAssign& as) XDP_KERNEL_INLINE {
    auto load = [&](std::size_t j) XDP_KERNEL_INLINE {
      if (i64[j]) {
        std::int64_t x;
        std::memcpy(&x, ptr[j], sizeof x);
        return static_cast<double>(x);
      }
      double x;
      std::memcpy(&x, ptr[j], sizeof x);
      return x;
    };
    auto term = [&](std::size_t t) XDP_KERNEL_INLINE {
      const double x = tacc[t] == KernelSite::kVarTerm
                           ? static_cast<double>(iv)
                           : load(tacc[t]);
      return top[t] == 0 ? x : top[t] == 1 ? coef[t] * x : x * coef[t];
    };
    double v;
    if (as.sum) {
      v = term(as.termsOff);
      for (std::size_t t = as.termsOff + 1u; t < as.termsOff + as.termsLen;
           ++t)
        v = tminus[t] ? v - term(t) : v + term(t);
    } else {
      for (std::size_t n = as.from; n <= as.value; ++n) {
        const std::size_t l = nl[n], r = nr[n];
        switch (rop[n]) {
          case Leaf:
            break;
          case VarI:
            vi[n] = iv;
            vr[n] = static_cast<double>(iv);
            break;
          case Load:
            vr[n] = load(narg[n]);
            break;
          case AddI:
            vi[n] = arith::wrapAdd(vi[l], vi[r]);
            vr[n] = static_cast<double>(vi[n]);
            break;
          case SubI:
            vi[n] = arith::wrapSub(vi[l], vi[r]);
            vr[n] = static_cast<double>(vi[n]);
            break;
          case MulI:
            vi[n] = arith::wrapMul(vi[l], vi[r]);
            vr[n] = static_cast<double>(vi[n]);
            break;
          case NegI:
            vi[n] = arith::wrapNeg(vi[l]);
            vr[n] = static_cast<double>(vi[n]);
            break;
          case AddR:
            vr[n] = vr[l] + vr[r];
            break;
          case SubR:
            vr[n] = vr[l] - vr[r];
            break;
          case MulR:
            vr[n] = vr[l] * vr[r];
            break;
          case DivR:
            vr[n] = vr[l] / vr[r];
            break;
          case NegR:
            vr[n] = -vr[l];
            break;
        }
      }
      v = vr[as.value];
    }
    if (i64[as.store]) {
      const std::int64_t w = arith::storeI64(v);
      std::memcpy(ptr[as.store], &w, sizeof w);
    } else {
      std::memcpy(ptr[as.store], &v, sizeof v);
    }
  };
  // `count` iterations from the current pointers. With a hook, the
  // counters move step by step as in the per-op copy, so a throwing hook
  // leaves them exact. Without one, blocks do nothing but count and only
  // a store can throw: the iteration runs its assignments alone, and the
  // counters are credited afterwards, the failing step included.
  std::array<std::uint8_t, 4> stepOf{};  // plan position of each assignment
  for (std::size_t p = 0; p < nplan; ++p)
    if (plan[p] >= 0)
      stepOf[static_cast<std::size_t>(plan[p])] = static_cast<std::uint8_t>(p);
  auto advance = [&](Index step) XDP_KERNEL_INLINE {
    for (std::size_t j = 0; j < nacc; ++j) ptr[j] += dp[j];
    iv = arith::wrapAdd(iv, step);
  };
  auto runHooked = [&](std::uint64_t count, Index step) {
    for (std::uint64_t k = 0; k < count; ++k) {
      stats.loopIterations += perIterLoops;
      for (std::size_t p = 0; p < nplan; ++p) {
        (*hook)(proc);
        stats.stmtsExecuted += 1;
        if (plan[p] < 0) continue;
        stats.elemAssigns += 1;
        assign(las[static_cast<std::size_t>(plan[p])]);
      }
      advance(step);
    }
  };
  auto runBare = [&](std::uint64_t count, Index step) {
    std::uint64_t k = 0;
    std::size_t a = 0;
    auto credit = [&](std::size_t steps) {
      stats.loopIterations += perIterLoops * (k + (steps != 0));
      stats.stmtsExecuted += nplan * k + steps;
      stats.elemAssigns += nassign * k + a + (steps != 0);
    };
    try {
      if (nassign == 1 && las[0].sum) {
        // The common shape, one sum, has a loop of its own: specialized
        // to it, the compiler keeps the tape and the assignment loop out
        // (a quarter less time per BM_LoopGuardedSplit run).
        for (; k < count; ++k) {
          assign(las[0]);
          advance(step);
        }
      } else {
        for (; k < count; ++k) {
          for (a = 0; a < nassign; ++a) assign(las[a]);
          advance(step);
        }
      }
    } catch (...) {
      credit(stepOf[a] + 1u);
      throw;
    }
    a = 0;
    credit(0);
  };

  std::uint64_t budget = keepLast ? total - 1 : total;
  firstRange = true;
  ranges([&](Index first, Index last, Index step) {
    if (budget == 0) return false;
    const std::uint64_t count = std::min(iterCount(first, last, step), budget);
    budget -= count;
    if (!firstRange) windows(first, last, win.data(), winLo.data());
    for (std::size_t j = 0; j < nacc; ++j) {
      const KernelSite::Access& acc = ks.accesses[j];
      // The image fits int64, so the wrapped form is exact.
      const Index a = sa[acc.sub];
      const Index at = arith::wrapAdd(arith::wrapMul(a, first), sb[acc.sub]);
      ptr[j] = win[acc.sym] + (at - winLo[acc.sym]) * kElem;
      dp[j] = count > 1 ? a * step * kElem : 0;
    }
    firstRange = false;
    iv = first;
    if (hook != nullptr)
      runHooked(count, step);
    else
      runBare(count, step);
    return true;
  });
  return true;
}

/// SplitRun's work, out of line so the dispatch loop stays small. Decide
/// the split: every coefficient an Int, every varying subscript's image
/// representable. Then one ownedRanges query, each owned rectangle pulled
/// back to loop iterations, `cur` loaded with them, and the logical
/// counters credited as if every iteration had run its guard. False: the
/// loop must run naive.
[[gnu::noinline]] bool startSplit(const SplitSite& site, const Slot* regs,
                                  rt::Proc& proc, InterpStats& stats,
                                  SplitCursor& cur) {
  const Index lb = regs[site.lb].i, ub = regs[site.ub].i;
  const Index step = regs[site.step].i;
  std::vector<Triplet> image;
  bool anyVarying = false;
  for (const auto& [ra, rb] : site.dims) {
    const Slot& a = regs[ra];
    const Slot& b = regs[rb];
    if (a.tag != Tag::Int || b.tag != Tag::Int) return false;
    if (a.i == 0) {
      image.emplace_back(b.i);
      continue;
    }
    // The image must be the one the naive schedule evaluates: a wrapped
    // subscript names different elements than the exact affine map.
    if (!Triplet::affineImageFits(a.i, b.i, lb, ub, step)) return false;
    anyVarying = true;
    if (a.i > 0)
      image.emplace_back(a.i * lb + b.i, a.i * ub + b.i, a.i * step);
    else
      image.emplace_back(a.i * ub + b.i, a.i * lb + b.i, -a.i * step);
  }
  if (!anyVarying) return false;
  const Triplet loop(lb, ub, step);
  const sec::RegionList owned =
      proc.ownedRanges(site.sym, Section(image), site.accessible);
  // Rectangles are disjoint and each iteration maps to one point, so the
  // per-rectangle iteration sets are disjoint.
  std::vector<Triplet> sets;
  std::uint64_t ownedIters = 0;
  for (const Section& r : owned.sections()) {
    Triplet it = loop;
    for (std::size_t d = 0; d < site.dims.size() && !it.empty(); ++d) {
      const Index a = regs[site.dims[d].first].i;
      if (a == 0) continue;
      it = Triplet::intersect(
          it, r.dim(static_cast<int>(d))
                  .affinePreimage(a, regs[site.dims[d].second].i));
    }
    if (it.empty()) continue;
    ownedIters += static_cast<std::uint64_t>(it.count());
    sets.push_back(it);
  }
  const auto total = static_cast<std::uint64_t>(loop.count());
  stats.rangeSplits += 1;
  stats.guardedItersSaved += total;
  // Logical schedule: every iteration ran, entered the block chain and
  // evaluated the guard (see InterpStats).
  stats.loopIterations += total;
  stats.stmtsExecuted += site.chain * total;
  stats.rulesEvaluated += total;
  stats.rulesTrue += ownedIters;
  cur.order.clear();
  cur.pos = 0;
  cur.last = loop.ub();
  cur.any = !sets.empty();
  if (sets.size() == 1) {
    cur.at = sets.front().lb();
    cur.end = sets.front().ub();
    cur.stride = sets.front().stride();
  } else if (!sets.empty()) {
    // Interleaved strided sets: materialize and sort so iterations run in
    // the ascending order the naive schedule uses.
    for (const Triplet& t : sets)
      for (Index k = 0; k < t.count(); ++k) cur.order.push_back(t.at(k));
    std::sort(cur.order.begin(), cur.order.end());
    cur.at = cur.order.front();
  }
  return true;
}

/// The section `r` names. Its registers hold Ints: ToIndex wrote them.
Section sectionOf(const SecRegs& r, const Slot* regs) {
  const Index lb = regs[r.lb].i;
  std::array<Triplet, sec::kMaxRank> dims{};
  if (!r.hasUb && !r.hasStride)
    dims[0] = Triplet(lb);
  else
    dims[0] = Triplet(lb, r.hasUb ? regs[r.ub].i : lb,
                      r.hasStride ? regs[r.stride].i : 1);
  return Section(1, dims);
}

/// The walker's empty check of a transfer statement: true when it does
/// nothing.
bool xferSkips(const XferSite& x, const Slot* regs) {
  const bool empty = sectionOf(x.sec, regs).empty();
  if (x.stmt == StmtKind::RecvData)
    return empty && sectionOf(x.sec2, regs).empty();
  return empty;
}

/// The one owner of a bound destination section, found as the walker's
/// resolveDest finds it.
int ownerOfDest(const XferSite& x, const Slot* regs, rt::Proc& proc) {
  const Section sect = sectionOf(x.destSec, regs);
  XDP_CHECK(!sect.empty(), "owner-of an empty section");
  const dist::Distribution& dd =
      x.destDist != nullptr ? *x.destDist : proc.table().decl(x.destSym).dist;
  const Triplet& t = sect.dim(0);
  int owner = -1;
  bool unique = true;
  for (Index k = 0; k < t.count(); ++k) {
    std::array<Index, sec::kMaxRank> idx{};
    idx[0] = t.at(k);
    const int o = dd.ownerOf(Point(1, idx));
    if (owner < 0)
      owner = o;
    else if (o != owner)
      unique = false;
  }
  XDP_CHECK(unique, "bound destination section spans processors");
  return owner;
}

/// Xfer's work, out of line so the dispatch loop stays small: the
/// walker's statement case from its empty check on. `pids` is scratch
/// reused across statements, so a send allocates no destination list.
[[gnu::noinline]] void runXfer(const XferSite& x, const Slot* regs,
                               rt::Proc& proc, std::vector<int>& pids) {
  const Section s = sectionOf(x.sec, regs);
  switch (x.stmt) {
    case StmtKind::SendData:
    case StmtKind::SendOwn: {
      if (x.dest == il::DestSpec::Kind::None && s.empty()) return;
      rt::Dests dests;
      int owner = -1;
      if (x.dest == il::DestSpec::Kind::Pids) {
        pids.clear();
        for (std::uint16_t r : x.pids)
          pids.push_back(static_cast<int>(regs[r].i));
        dests = rt::Dests(std::span<const int>(pids));
      } else if (x.dest == il::DestSpec::Kind::OwnerOf) {
        owner = ownerOfDest(x, regs, proc);
        dests = rt::Dests(std::span<const int>(&owner, 1));
      }
      if (x.stmt == StmtKind::SendData)
        proc.send(x.sym, s, dests);
      else
        proc.sendOwnership(x.sym, s, x.withValue, dests);
      return;
    }
    case StmtKind::RecvData: {
      const Section name = sectionOf(x.sec2, regs);
      if (s.empty() && name.empty()) return;
      proc.recv(x.sym, s, x.sym2, name);
      return;
    }
    case StmtKind::RecvOwn:
      if (s.empty()) return;
      proc.recvOwnership(x.sym, s, x.withValue);
      return;
    case StmtKind::Await:
      if (s.empty()) return;
      proc.await(x.sym, s);
      return;
    default:
      XDP_CHECK(false, "Xfer on a non-transfer statement");
  }
}

[[noreturn]] void undefinedReg(const Module& m, std::uint16_t r) {
  if (r < m.scalars->count()) {
    XDP_USAGE_FAIL("use of undefined universal scalar: " +
                   m.scalars->name(r));
  }
  XDP_CHECK(false, "VM read of undefined temporary register");
  std::abort();  // unreachable
}

}  // namespace

Module compile(const il::Program& prog,
               std::shared_ptr<const il::ScalarIds> scalars) {
  return Compiler(prog, std::move(scalars)).take();
}

Module compile(const il::Program& prog) {
  return compile(prog, std::make_shared<const il::ScalarIds>(prog));
}

void execute(const Module& m, rt::Proc& proc, InterpStats& stats,
             const InterpOptions& iopts,
             const std::map<std::string, KernelFn>& kernels,
             ckpt::Controller* ctrl) {
  std::vector<Slot> regs(m.numRegs);
  ColdEval ce(m, proc, stats, iopts, kernels, regs.data());
  const Insn* code = m.code.data();
  const Index* ipool = m.ipool.data();
  const double* rpool = m.rpool.data();
  const int pid = proc.mypid();

  // Operand read with the undefined-scalar check (temps are always
  // written before read by construction; only scalar registers can be
  // Undef here).
  auto val = [&](std::uint16_t r) -> const Slot& {
    const Slot& s = regs[r];
    if (s.tag == Tag::Undef) undefinedReg(m, r);
    return s;
  };

  // Element access shared by LoadElem/LoadElem1/StoreElem: the table's
  // point path.
  auto loadAt = [&](int rank, const std::array<sec::Index, sec::kMaxRank>& idx,
                    std::int32_t sym) -> Slot {
    const auto type = m.elemTypes[static_cast<std::size_t>(sym)];
    // Zero-initialized like the tree walker's vector-backed read: with
    // debug checks off, an unowned element reads as 0 on both engines
    // (readElems fills only the covered subsection).
    std::int64_t vi = 0;
    double vr = 0.0;
    std::byte* bytes = type == rt::ElemType::F64
                           ? reinterpret_cast<std::byte*>(&vr)
                           : reinterpret_cast<std::byte*>(&vi);
    std::array<Triplet, sec::kMaxRank> dims{};
    for (int k = 0; k < rank; ++k)
      dims[static_cast<std::size_t>(k)] =
          Triplet(idx[static_cast<std::size_t>(k)]);
    proc.table().readElems(static_cast<int>(sym), Section(rank, dims), bytes);
    return type == rt::ElemType::F64 ? Slot::ofReal(vr)
                                     : Slot::ofReal(static_cast<double>(vi));
  };
  auto storeAt = [&](int rank,
                     const std::array<sec::Index, sec::kMaxRank>& idx,
                     std::int32_t sym, double v) {
    const auto type = m.elemTypes[static_cast<std::size_t>(sym)];
    const std::int64_t w = type == rt::ElemType::F64 ? 0 : arith::storeI64(v);
    const std::byte* bytes = type == rt::ElemType::F64
                                 ? reinterpret_cast<const std::byte*>(&v)
                                 : reinterpret_cast<const std::byte*>(&w);
    std::array<Triplet, sec::kMaxRank> dims{};
    for (int k = 0; k < rank; ++k)
      dims[static_cast<std::size_t>(k)] =
          Triplet(idx[static_cast<std::size_t>(k)]);
    proc.table().writeElems(static_cast<int>(sym), Section(rank, dims), bytes);
  };

  std::vector<SplitCursor> cursors(m.splits.size());
  std::vector<int> pidBuf;  // Xfer's destination scratch

  // --- checkpoint continuations (DESIGN.md §11) --------------------------
  // Between any two instructions the VM's whole control state is
  // (pc, register file), so a continuation is exact: resuming re-executes
  // from the captured pc against the restored tables/fabric. Boundaries
  // are observed at statement tops (Step/StepElem/StepRule/StepXfer/
  // ExecCold), except inside a pure split copy, and a restart point is
  // published before every instruction that can block (the cold calls
  // into the cold evaluator, StepXfer for its statement, an awaiting
  // XQuery).
  std::size_t pc = 0;
  auto makeImage = [&](bool unsafe) {
    ckpt::ContImage img;
    img.engine = static_cast<std::uint8_t>(ckpt::ContEngine::Vm);
    img.unsafe = unsafe;
    img.stats = statsToArray(stats);
    ckpt::Writer w;
    w.u32(static_cast<std::uint32_t>(pc));
    w.u32(m.numRegs);
    for (const Slot& s : regs) {
      w.u8(static_cast<std::uint8_t>(s.tag));
      std::uint64_t bits = 0;
      if (s.tag == Tag::Int) bits = static_cast<std::uint64_t>(s.i);
      else if (s.tag == Tag::Real) bits = std::bit_cast<std::uint64_t>(s.r);
      else if (s.tag == Tag::Bool) bits = s.b ? 1 : 0;
      w.u64(bits);
    }
    img.payload = w.take();
    return img;
  };
  // Set while a pure split copy runs: its boundaries wait for the loop
  // exit (see SplitRun).
  bool inSplitCopy = false;
  auto boundary = [&] {
    if (inSplitCopy) return;
    if (ctrl->signal() != 0) ctrl->deliverSignal(pid, makeImage(false));
    if (stats.stmtsExecuted >= ctrl->nextParkAt(pid))
      ctrl->parkAtBoundary(pid, makeImage(false));
  };
  if (ctrl != nullptr && ctrl->hasResume(pid)) {
    ckpt::ContImage img = ctrl->takeResume(pid);
    if (img.finished) return;
    stats = statsFromArray(img.stats);
    if (img.engine == static_cast<std::uint8_t>(ckpt::ContEngine::Vm)) {
      ckpt::Reader r(img.payload);
      const std::uint32_t rpc = r.u32();
      if (r.u32() != m.numRegs || rpc >= m.code.size())
        throw ckpt::CkptError("VM continuation does not fit this module");
      for (std::uint16_t k = 0; k < m.numRegs; ++k) {
        const std::uint8_t tag = r.u8();
        const std::uint64_t bits = r.u64();
        switch (tag) {
          case 0:
            regs[k] = Slot{};
            break;
          case 1:
            regs[k] = Slot::ofInt(static_cast<Index>(bits));
            break;
          case 2:
            regs[k] = Slot::ofReal(std::bit_cast<double>(bits));
            break;
          case 3:
            regs[k] = Slot::ofBool(bits != 0);
            break;
          default:
            throw ckpt::CkptError("bad register tag in VM continuation");
        }
      }
      pc = rpc;
    } else if (img.engine !=
               static_cast<std::uint8_t>(ckpt::ContEngine::None)) {
      throw ckpt::CkptError(
          "VM cannot resume a continuation captured by another engine");
    }
    // ContEngine::None (genesis snapshot): restart from pc 0.
  }

  for (;;) {
    const Insn& in = code[pc];
    switch (in.op) {
      case Op::Halt:
        return;
      case Op::Step:
        if (ctrl != nullptr) boundary();
        if (iopts.stepHook) iopts.stepHook(proc);
        stats.stmtsExecuted += 1;
        break;
      case Op::ConstI:
        regs[in.a] = Slot::ofInt(ipool[in.d]);
        break;
      case Op::ConstR:
        regs[in.a] = Slot::ofReal(rpool[in.d]);
        break;
      case Op::MyPid:
        regs[in.a] = Slot::ofInt(static_cast<Index>(proc.mypid()));
        break;
      case Op::NProcs:
        regs[in.a] = Slot::ofInt(static_cast<Index>(proc.nprocs()));
        break;
      case Op::Mov:
        regs[in.a] = val(in.b);
        break;
      case Op::Add: {
        const Slot& x = val(in.b);
        const Slot& y = val(in.c);
        regs[in.a] = (x.tag == Tag::Int && y.tag == Tag::Int)
                         ? Slot::ofInt(arith::wrapAdd(x.i, y.i))
                         : Slot::ofReal(asReal(x) + asReal(y));
        break;
      }
      case Op::Sub: {
        const Slot& x = val(in.b);
        const Slot& y = val(in.c);
        regs[in.a] = (x.tag == Tag::Int && y.tag == Tag::Int)
                         ? Slot::ofInt(arith::wrapSub(x.i, y.i))
                         : Slot::ofReal(asReal(x) - asReal(y));
        break;
      }
      case Op::Mul: {
        const Slot& x = val(in.b);
        const Slot& y = val(in.c);
        regs[in.a] = (x.tag == Tag::Int && y.tag == Tag::Int)
                         ? Slot::ofInt(arith::wrapMul(x.i, y.i))
                         : Slot::ofReal(asReal(x) * asReal(y));
        break;
      }
      case Op::Div: {
        const Slot& x = val(in.b);
        const Slot& y = val(in.c);
        regs[in.a] = (x.tag == Tag::Int && y.tag == Tag::Int)
                         ? Slot::ofInt(arith::checkedDiv(x.i, y.i))
                         : Slot::ofReal(asReal(x) / asReal(y));
        break;
      }
      case Op::Mod: {
        const Slot& x = val(in.b);
        const Slot& y = val(in.c);
        XDP_CHECK(x.tag == Tag::Int && y.tag == Tag::Int,
                  "mod requires integer operands");
        regs[in.a] = Slot::ofInt(arith::checkedMod(x.i, y.i));
        break;
      }
      case Op::Lt:
        regs[in.a] = Slot::ofBool(asReal(val(in.b)) < asReal(val(in.c)));
        break;
      case Op::Le:
        regs[in.a] = Slot::ofBool(asReal(val(in.b)) <= asReal(val(in.c)));
        break;
      case Op::Gt:
        regs[in.a] = Slot::ofBool(asReal(val(in.b)) > asReal(val(in.c)));
        break;
      case Op::Ge:
        regs[in.a] = Slot::ofBool(asReal(val(in.b)) >= asReal(val(in.c)));
        break;
      case Op::Eq:
        regs[in.a] = Slot::ofBool(asReal(val(in.b)) == asReal(val(in.c)));
        break;
      case Op::Ne:
        regs[in.a] = Slot::ofBool(asReal(val(in.b)) != asReal(val(in.c)));
        break;
      case Op::Min: {
        const Slot& x = val(in.b);
        const Slot& y = val(in.c);
        regs[in.a] = (x.tag == Tag::Int && y.tag == Tag::Int)
                         ? Slot::ofInt(std::min(x.i, y.i))
                         : Slot::ofReal(std::min(asReal(x), asReal(y)));
        break;
      }
      case Op::Max: {
        const Slot& x = val(in.b);
        const Slot& y = val(in.c);
        regs[in.a] = (x.tag == Tag::Int && y.tag == Tag::Int)
                         ? Slot::ofInt(std::max(x.i, y.i))
                         : Slot::ofReal(std::max(asReal(x), asReal(y)));
        break;
      }
      case Op::Neg: {
        const Slot& x = val(in.b);
        regs[in.a] = x.tag == Tag::Int ? Slot::ofInt(arith::wrapNeg(x.i))
                                       : Slot::ofReal(-asReal(x));
        break;
      }
      case Op::Not:
        regs[in.a] = Slot::ofBool(!asBool(val(in.b)));
        break;
      case Op::ToBool:
        regs[in.a] = Slot::ofBool(asBool(val(in.b)));
        break;
      case Op::ToIndex:
        regs[in.a] = Slot::ofInt(asInt(val(in.b)));
        break;
      case Op::CheckStep:
        XDP_CHECK(regs[in.a].i > 0, "loop step must be positive");
        break;
      case Op::Jmp:
        pc = static_cast<std::size_t>(in.d);
        continue;
      case Op::JmpIfFalse:
        if (!asBool(val(in.a))) {
          pc = static_cast<std::size_t>(in.d);
          continue;
        }
        break;
      case Op::ForEnter: {
        const Index lb = regs[in.b].i;
        const Index ub = regs[in.c].i;
        if (lb > ub) {
          pc = static_cast<std::size_t>(in.d);
          continue;
        }
        regs[in.a] = Slot::ofInt(lb);
        break;
      }
      case Op::ForNext: {
        const Index i = regs[in.a].i;
        const Index ub = regs[in.b].i;
        const Index step = regs[in.c].i;
        // Same overflow-safe termination test as the tree walker.
        if (static_cast<std::uint64_t>(ub) - static_cast<std::uint64_t>(i) >=
            static_cast<std::uint64_t>(step)) {
          regs[in.a].i = i + step;
          pc = static_cast<std::size_t>(in.d);
          continue;
        }
        break;
      }
      case Op::CountRuleTrue:
        stats.rulesTrue += 1;
        break;
      case Op::LoadElem: {
        std::array<sec::Index, sec::kMaxRank> idx{};
        for (int k = 0; k < in.rank; ++k)
          idx[static_cast<std::size_t>(k)] = regs[in.b + k].i;
        regs[in.a] = loadAt(in.rank, idx, in.d);
        break;
      }
      case Op::StoreElem: {
        const double v = asReal(val(in.a));
        std::array<sec::Index, sec::kMaxRank> idx{};
        for (int k = 0; k < in.rank; ++k)
          idx[static_cast<std::size_t>(k)] = regs[in.b + k].i;
        storeAt(in.rank, idx, in.d, v);
        break;
      }
      case Op::Cost:
        proc.compute(asReal(val(in.a)));
        break;
      case Op::EvalCold:
        // Publish-before-block: the expression may contain an await; the
        // continuation re-evaluates it against the restored state.
        if (ctrl != nullptr) ctrl->publish(pid, makeImage(false));
        regs[in.a] = ce.evalValue(m.coldExprs[static_cast<std::size_t>(in.d)]);
        break;
      case Op::EvalRule:
        if (ctrl != nullptr) ctrl->publish(pid, makeImage(false));
        regs[in.a] = Slot::ofBool(
            ce.evalRule(m.coldExprs[static_cast<std::size_t>(in.d)]));
        break;
      case Op::ExecCold: {
        const il::Stmt& s = *m.coldStmtNodes[static_cast<std::size_t>(in.d)];
        if (ctrl != nullptr) {
          // Cold statements are restartable leaves (For always compiles
          // hot), so re-executing from this pc is the continuation —
          // except kernels, which may block mid-way after side effects.
          boundary();
          ctrl->publish(pid, makeImage(s.kind == StmtKind::Kernel));
        }
        ce.exec(s);
        break;
      }
      // Fused bookkeeping ops: exact concatenation of their components.
      case Op::ForIter:
        stats.loopIterations += 1;
        regs[in.a] = regs[in.b];  // iR is always set by ForEnter
        break;
      case Op::StepElem:
        if (ctrl != nullptr) boundary();
        if (iopts.stepHook) iopts.stepHook(proc);
        stats.stmtsExecuted += 1;
        stats.elemAssigns += 1;
        break;
      case Op::StepRule:
        if (ctrl != nullptr) boundary();
        if (iopts.stepHook) iopts.stepHook(proc);
        stats.stmtsExecuted += 1;
        stats.rulesEvaluated += 1;
        break;
      case Op::LoadElem1: {
        const Index x = arith::wrapAdd(asInt(val(in.b)), ipool[in.c]);
        std::array<sec::Index, sec::kMaxRank> idx{};
        idx[0] = x;
        regs[in.a] = loadAt(1, idx, in.d);
        break;
      }
      case Op::IdxAff:
        regs[in.a] = Slot::ofInt(arith::wrapAdd(asInt(val(in.b)), ipool[in.c]));
        break;
      case Op::SplitEnter: {
        // Continuations cannot name a point inside a split copy. A pure
        // copy cannot block, so under a checkpoint controller it still
        // runs and its boundaries wait for the loop exit (SplitRun);
        // other sites take the naive loop. So does a site whose
        // subscripts read an undefined scalar: the naive loop raises at
        // the guard, where the walker does.
        const SplitSite& site = m.splits[static_cast<std::size_t>(in.d)];
        bool naive = (ctrl != nullptr && !site.pure) ||
                     regs[site.lb].i > regs[site.ub].i;
        for (std::size_t k = 0; !naive && k < site.scalars.size(); ++k)
          naive = regs[site.scalars[k]].tag == Tag::Undef;
        if (naive) {
          pc = static_cast<std::size_t>(site.naivePc);
          continue;
        }
        break;
      }
      case Op::SplitRun: {
        const SplitSite& site = m.splits[static_cast<std::size_t>(in.d)];
        SplitCursor& cur = cursors[static_cast<std::size_t>(in.d)];
        if (!startSplit(site, regs.data(), proc, stats, cur)) {
          pc = static_cast<std::size_t>(site.naivePc);
          continue;
        }
        if (!cur.any) {
          // The naive schedule assigns the variable on every (also
          // unowned) iteration; leave it at the last logical value.
          regs[site.var] = Slot::ofInt(cur.last);
          pc = static_cast<std::size_t>(site.exitPc);
          continue;
        }
        regs[site.var] = Slot::ofInt(cur.at);
        // No boundary inside the copy: no park and no signal delivery.
        // The first boundary after the loop observes them, exactly: the
        // split credited the loop's logical counters up front, so there
        // they equal the naive loop's.
        inSplitCopy = true;
        break;
      }
      case Op::SplitNext: {
        const SplitSite& site = m.splits[static_cast<std::size_t>(in.d)];
        SplitCursor& cur = cursors[static_cast<std::size_t>(in.d)];
        if (cur.next()) {
          regs[site.var] = Slot::ofInt(cur.at);
          pc = static_cast<std::size_t>(site.bodyPc);
          continue;
        }
        inSplitCopy = false;
        regs[site.var] = Slot::ofInt(cur.last);
        pc = static_cast<std::size_t>(site.exitPc);
        continue;
      }
      case Op::StepXfer:
        // ExecCold's prologue: the statement restarts here.
        if (ctrl != nullptr) {
          boundary();
          ctrl->publish(pid, makeImage(false));
        }
        if (iopts.stepHook) iopts.stepHook(proc);
        stats.stmtsExecuted += 1;
        break;
      case Op::CheckStride:
        XDP_CHECK(regs[in.a].i >= 1,
                  "triplet stride must be >= 1 (use descending())");
        break;
      case Op::XferSkip: {
        const XferSite& x = m.xfers[static_cast<std::size_t>(in.d)];
        if (xferSkips(x, regs.data())) {
          pc = static_cast<std::size_t>(x.endPc);
          continue;
        }
        break;
      }
      case Op::Xfer:
        runXfer(m.xfers[static_cast<std::size_t>(in.d)], regs.data(), proc,
                pidBuf);
        break;
      case Op::LoopKernel: {
        // The per-op copy at pc + 1 is the fallback, from the first
        // iteration. Under a checkpoint controller a split copy leaves
        // its last iteration to it, so the temporaries hold what the
        // per-op copy leaves, and a plain loop runs per-op: its
        // statement boundaries are observed one by one.
        const KernelSite& ks = m.kernels[static_cast<std::size_t>(in.d)];
        const StepHook* hook = iopts.stepHook ? &iopts.stepHook : nullptr;
        if (ks.split >= 0) {
          const auto si = static_cast<std::size_t>(ks.split);
          const SplitSite& site = m.splits[si];
          SplitCursor& cur = cursors[si];
          const Index step = regs[site.step].i;
          const bool keepLast = ctrl != nullptr;
          if (!runKernel(m, ks, regs.data(), proc, stats, hook,
                         [&](auto&& fn) { return cur.forEachRange(step, fn); },
                         keepLast))
            break;
          if (keepLast) {
            cur.toLast();
            regs[site.var] = Slot::ofInt(cur.at);
            break;
          }
          inSplitCopy = false;
          regs[site.var] = Slot::ofInt(cur.last);
          pc = static_cast<std::size_t>(site.exitPc);
          continue;
        }
        if (ctrl != nullptr) break;
        const Index lb = regs[ks.iR].i, step = regs[ks.step].i;
        const Index last = static_cast<Index>(
            static_cast<std::uint64_t>(lb) +
            (iterCount(lb, regs[ks.ub].i, step) - 1) *
                static_cast<std::uint64_t>(step));
        if (!runKernel(m, ks, regs.data(), proc, stats, hook,
                       [&](auto&& fn) { return fn(lb, last, step); }, false))
          break;
        regs[ks.iR] = Slot::ofInt(last);
        regs[ks.var] = Slot::ofInt(last);
        pc = static_cast<std::size_t>(ks.exitPc);
        continue;
      }
      case Op::XQuery: {
        const XferSite& x = m.xfers[static_cast<std::size_t>(in.d)];
        const Section sect = sectionOf(x.sec, regs.data());
        bool r;
        if (x.query == ExprKind::Await) {
          // Publish-before-block: resuming re-runs this await.
          if (ctrl != nullptr) ctrl->publish(pid, makeImage(false));
          r = proc.await(x.sym, sect);
        } else if (x.query == ExprKind::Iown) {
          r = proc.iown(x.sym, sect);
        } else {
          r = proc.accessible(x.sym, sect);
        }
        regs[in.a] = Slot::ofBool(r);
        break;
      }
    }
    ++pc;
  }
}

namespace {

const char* stmtKindName(StmtKind k) {
  static const char* kNames[] = {
      "Block",   "ScalarAssign", "ElemAssign", "For",       "Guarded",
      "SendData", "RecvData",    "SendOwn",    "RecvOwn",   "Await",
      "LocalCopy", "Kernel",     "ComputeCost",
  };
  return kNames[static_cast<int>(k)];
}

const char* exprKindName(ExprKind k) {
  static const char* kNames[] = {
      "IntConst", "RealConst",  "ScalarRef", "MyPid", "NProcs",
      "Bin",      "Neg",        "Not",       "Elem",  "Iown",
      "Accessible", "Await",    "MyLb",      "MyUb",  "SecNonEmpty",
  };
  return kNames[static_cast<int>(k)];
}

}  // namespace

std::string disassemble(const Module& m) {
  static constexpr const char* kNames[] = {
      "Halt",     "Step",       "ConstI",     "ConstR",     "MyPid",
      "NProcs",   "Mov",        "Add",        "Sub",        "Mul",
      "Div",      "Mod",        "Lt",         "Le",         "Gt",
      "Ge",       "Eq",         "Ne",         "Min",        "Max",
      "Neg",      "Not",        "ToBool",     "ToIndex",    "CheckStep",
      "Jmp",      "JmpIfFalse", "ForEnter",   "ForNext",    "CountRuleTrue",
      "LoadElem", "StoreElem",  "Cost",       "EvalCold",   "EvalRule",
      "ExecCold", "ForIter",    "StepElem",   "StepRule",   "LoadElem1",
      "IdxAff",   "SplitEnter", "SplitRun",   "SplitNext",  "StepXfer",
      "CheckStride", "XferSkip", "Xfer",      "XQuery",     "LoopKernel",
  };
  static_assert(std::size(kNames) == kNumOps, "one name per Op");
  std::ostringstream os;
  os << "regs=" << m.numRegs << " scalars=" << m.scalars->count()
     << " hot=" << m.hotStmts << " cold=" << m.coldStmts << "\n";
  for (std::size_t k = 0; k < m.code.size(); ++k) {
    const Insn& in = m.code[k];
    os << k << ": " << kNames[static_cast<int>(in.op)] << " a=" << in.a
       << " b=" << in.b << " c=" << in.c << " d=";
    // A cold op names its node by kind: node ids depend on the IR.
    if (in.op == Op::EvalCold || in.op == Op::EvalRule) {
      const il::Expr* e = m.coldExprs[static_cast<std::size_t>(in.d)];
      os << (e != nullptr ? exprKindName(e->kind) : "null");
    } else if (in.op == Op::ExecCold)
      os << stmtKindName(m.coldStmtNodes[static_cast<std::size_t>(in.d)]->kind);
    else
      os << in.d;
    if (in.rank != 0) os << " rank=" << static_cast<int>(in.rank);
    os << "\n";
  }
  return os.str();
}

}  // namespace xdp::interp::bc
