// See cost.hpp for the model. The exact-mode aggregation is a fold over
// the verifier's CostEvents; the parametric bound is a small affine
// pattern-matcher over pre-lowering owner-computes sweeps. Everything
// placement-dependent funnels through the verifier so there is exactly
// one abstract executor to keep faithful to the runtime.
#include "xdp/analysis/cost.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "xdp/rt/types.hpp"
#include "xdp/support/arith.hpp"
#include "xdp/support/json.hpp"

namespace xdp::analysis {
namespace {

using il::ExprKind;
using il::ExprPtr;
using il::SecExprKind;
using il::SectionExprPtr;
using il::Stmt;
using il::StmtKind;
using il::StmtPtr;
using sec::Index;
using sec::Section;
using sec::Triplet;

std::int64_t elemBytes(const il::Program& prog, int sym) {
  return static_cast<std::int64_t>(rt::elemSize(prog.decl(sym).type));
}

/// Modeled payload bytes of one event, mirroring rt::Proc: pure ownership
/// messages carry no payload; data and ownership+value messages carry
/// count*elemSize per message.
std::int64_t eventBytes(const il::Program& prog, const CostEvent& ev) {
  if (ev.cls == CostClass::Own) return 0;
  std::int64_t per = arith::checkedMulNonNeg(
      ev.elems, elemBytes(prog, ev.sym), "modeled message payload");
  return arith::checkedMulNonNeg(per, ev.messages, "modeled send bytes");
}

const char* className(CostClass c) {
  switch (c) {
    case CostClass::Data: return "data";
    case CostClass::Own: return "ownership";
    case CostClass::OwnVal: return "ownership+value";
  }
  return "?";
}

// --- parametric chain-cut bound (DESIGN.md §10.2) -------------------------

/// Compile-time integer value of a loop-bound expression (literals and
/// constant arithmetic only; anything else disqualifies the loop).
std::optional<Index> constIntOf(const ExprPtr& e, int nprocs) {
  if (!e) return std::nullopt;
  switch (e->kind) {
    case ExprKind::IntConst:
      return e->intVal;
    case ExprKind::NProcs:
      return static_cast<Index>(nprocs);
    case ExprKind::Neg: {
      auto v = constIntOf(e->lhs, nprocs);
      if (!v) return std::nullopt;
      return arith::wrapNeg(*v);
    }
    case ExprKind::Bin: {
      auto a = constIntOf(e->lhs, nprocs);
      auto b = constIntOf(e->rhs, nprocs);
      if (!a || !b) return std::nullopt;
      switch (e->op) {
        case il::BinOp::Add: return arith::wrapAdd(*a, *b);
        case il::BinOp::Sub: return arith::wrapSub(*a, *b);
        case il::BinOp::Mul: return arith::wrapMul(*a, *b);
        case il::BinOp::Div: return arith::tryFoldDiv(*a, *b);
        case il::BinOp::Mod: return arith::tryFoldMod(*a, *b);
        default: return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

/// e as a*var + b with integer-constant a, b (nullopt when not affine in
/// `var` alone — mypid or other scalars disqualify, keeping the bound
/// placement- and pid-independent).
std::optional<std::pair<Index, Index>> affineIn(const ExprPtr& e,
                                                const std::string& var) {
  if (!e) return std::nullopt;
  switch (e->kind) {
    case ExprKind::IntConst:
      return std::make_pair(Index{0}, e->intVal);
    case ExprKind::ScalarRef:
      if (e->name == var) return std::make_pair(Index{1}, Index{0});
      return std::nullopt;
    case ExprKind::Neg: {
      auto v = affineIn(e->lhs, var);
      if (!v) return std::nullopt;
      return std::make_pair(arith::wrapNeg(v->first),
                            arith::wrapNeg(v->second));
    }
    case ExprKind::Bin: {
      auto a = affineIn(e->lhs, var);
      auto b = affineIn(e->rhs, var);
      if (!a || !b) return std::nullopt;
      switch (e->op) {
        case il::BinOp::Add:
          return std::make_pair(arith::wrapAdd(a->first, b->first),
                                arith::wrapAdd(a->second, b->second));
        case il::BinOp::Sub:
          return std::make_pair(arith::wrapSub(a->first, b->first),
                                arith::wrapSub(a->second, b->second));
        case il::BinOp::Mul:
          if (a->first == 0)
            return std::make_pair(arith::wrapMul(a->second, b->first),
                                  arith::wrapMul(a->second, b->second));
          if (b->first == 0)
            return std::make_pair(arith::wrapMul(b->second, a->first),
                                  arith::wrapMul(b->second, a->second));
          return std::nullopt;
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

/// The single-subscript affine form of a rank-1 point section expression.
std::optional<std::pair<Index, Index>> pointAffine(const SectionExprPtr& se,
                                                   const std::string& var) {
  if (!se || se->kind != SecExprKind::Literal || se->dims.size() != 1)
    return std::nullopt;
  const il::TripletExpr& t = se->dims[0];
  if (t.ub || t.stride) return std::nullopt;  // a point, not a range
  return affineIn(t.lb, var);
}

/// Collect same-symbol read offsets δ = b' - b of `e` relative to the
/// write A[a*i + b] (only reads with the same linear coefficient count;
/// others cannot share the chain structure and contribute nothing).
void collectOffsets(const ExprPtr& e, int sym, const std::string& var,
                    Index a, Index b, std::vector<Index>& out) {
  if (!e) return;
  if (e->kind == ExprKind::Elem && e->sym == sym) {
    if (auto aff = pointAffine(e->section, var)) {
      if (aff->first == a && aff->second != b)
        out.push_back(arith::wrapSub(aff->second, b));
    }
  }
  collectOffsets(e->lhs, sym, var, a, b, out);
  collectOffsets(e->rhs, sym, var, a, b, out);
  if (e->kind == ExprKind::Elem && e->section &&
      e->section->kind == SecExprKind::Literal) {
    for (const il::TripletExpr& t : e->section->dims) {
      collectOffsets(t.lb, sym, var, a, b, out);
      collectOffsets(t.ub, sym, var, a, b, out);
    }
  }
}

/// Walks the pre-lowering program, finds unguarded owner-computes sweeps
/// (`do i = lb, ub: A[±i + c] = ... A[±i + c'] ...`) and accumulates, per
/// symbol, the best chain-cut bound over all sweeps of that symbol (max,
/// not sum: two sweeps of the same symbol may be servable by overlapping
/// transfers, the cut argument only forces the larger of the two).
class SweepScanner {
 public:
  explicit SweepScanner(const il::Program& prog) : prog_(prog) {
    bestPerSym_.resize(prog.arrays.size(), 0);
  }

  std::int64_t run() {
    walk(prog_.body, /*reps=*/1);
    std::int64_t total = 0;
    for (std::int64_t b : bestPerSym_)
      total = arith::checkedAddNonNeg(total, b, "parametric lower bound");
    return total;
  }

 private:
  void walk(const StmtPtr& s, Index reps) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::Block:
        for (const auto& c : s->stmts) walk(c, reps);
        return;
      case StmtKind::Guarded:
        // Guarded assignments are post-lowering (or explicitly local)
        // code, not the owner-computes dialect; nothing in here is a
        // sweep, and its execution may be placement-dependent.
        return;
      case StmtKind::For: {
        std::optional<Index> lb = constIntOf(s->lb, prog_.nprocs);
        std::optional<Index> ub = constIntOf(s->ub, prog_.nprocs);
        std::optional<Index> step =
            s->step ? constIntOf(s->step, prog_.nprocs)
                    : std::optional<Index>(1);
        if (!lb || !ub || !step || *step <= 0) return;  // not analyzable
        if (*ub < *lb) return;  // zero trips
        // ub - lb can exceed Index, but never its unsigned range; a trip
        // count beyond Index is not analyzable.
        const std::uint64_t span =
            static_cast<std::uint64_t>(arith::wrapSub(*ub, *lb)) /
            static_cast<std::uint64_t>(*step);
        if (span >= static_cast<std::uint64_t>(INT64_MAX)) return;
        const Index trips = static_cast<Index>(span) + 1;
        if (*step == 1) scanSweep(s, *lb, *ub, trips, reps);
        walk(s->body, arith::checkedMulNonNeg(reps, trips,
                                              "loop repetition count"));
        return;
      }
      default:
        return;
    }
  }

  /// Direct (block-flattened) unguarded element assignments of one
  /// unit-stride loop.
  void scanSweep(const StmtPtr& loop, Index lb, Index ub, Index trips,
                 Index reps) {
    std::vector<StmtPtr> flat;
    flatten(loop->body, flat);
    for (const StmtPtr& ea : flat) {
      if (ea->kind != StmtKind::ElemAssign) continue;
      auto aff = pointAffine(ea->lhs, loop->name);
      if (!aff || (aff->first != 1 && aff->first != -1)) continue;
      const auto& decl = prog_.decl(ea->sym);
      if (decl.global.rank() != 1) continue;
      const auto& specs = decl.dist.specs();
      if (specs.empty() || specs[0].kind == dist::DistKind::Collapsed ||
          specs[0].procs < 2)
        continue;
      const Index a = aff->first, b = aff->second;
      const Index w0 = arith::wrapAdd(arith::wrapMul(a, lb), b);
      const Index w1 = arith::wrapAdd(arith::wrapMul(a, ub), b);
      const Index wlo = std::min(w0, w1), whi = std::max(w0, w1);
      std::vector<Index> deltas;
      collectOffsets(ea->rhs, ea->sym, loop->name, a, b, deltas);
      std::int64_t best = 0;
      for (Index d : deltas) {
        const Index ad = d < 0 ? arith::wrapNeg(d) : d;
        if (ad <= 0) continue;  // wrapNeg(INT64_MIN) stays negative
        best = std::max(best, sweepBound(decl, wlo, whi, trips, ad, reps));
      }
      auto& slot = bestPerSym_[static_cast<std::size_t>(ea->sym)];
      slot = std::max(slot, best);
    }
  }

  /// The chain-cut bound of one sweep (DESIGN.md §10.2): any placement
  /// splits V = W ∪ (W+δ) into ≥ q nonempty owner classes; the δ-offset
  /// dependence edges form |δ| chains covering V, so ≥ q − |δ| edges
  /// cross classes and each crossing edge forces elemSize bytes onto the
  /// wire. Across outer repetitions only edges whose read endpoint is
  /// itself rewritten each sweep (≥ q − 2|δ| of them) are forced again.
  std::int64_t sweepBound(const il::ArrayDecl& decl, Index wlo, Index whi,
                          Index trips, Index delta, Index reps) {
    if (delta <= 0 || delta > trips) return 0;  // V must stay connected
    const Index n = decl.global.dim(0).count();
    const int procs = decl.dist.specs()[0].procs;
    // V as a section, clamped to the array (out-of-bounds reads are a
    // program error the verifier reports elsewhere). The widened ends
    // W ± δ may leave Index, so the clamp works in __int128.
    const Index glo = decl.global.dim(0).lb(), ghi = decl.global.dim(0).ub();
    const Index vlo = static_cast<Index>(
        std::max<__int128>(glo, static_cast<__int128>(wlo) - delta));
    const Index vhi = static_cast<Index>(
        std::min<__int128>(ghi, static_cast<__int128>(whi) + delta));
    if (vlo > vhi) return 0;
    const Index len = vhi - vlo + 1;  // at most n
    // q over the search family (block sizes ≤ ceil(N/P)): a contiguous
    // range of length L meets ≥ ceil(L / ceil(N/P)) owner classes...
    const auto ceilDiv = [](Index a, Index b) { return a / b + (a % b != 0); };
    const Index blk = ceilDiv(n, procs);
    Index q = ceilDiv(len, blk);
    // ... and never more classes than the *declared* placement actually
    // populates over V (a declared block size beyond the family cap can
    // leave processors empty).
    const Section v{Triplet(vlo, vhi)};
    int populated = 0;
    for (int pid = 0; pid < prog_.nprocs; ++pid) {
      const sec::RegionList part = decl.dist.localPart(pid, /*compact=*/true);
      for (const Section& piece : part.sections()) {
        if (piece.rank() == 1 && !Section::intersect(piece, v).empty()) {
          ++populated;
          break;
        }
      }
    }
    q = std::min(q, static_cast<Index>(populated));
    const std::int64_t esz =
        static_cast<std::int64_t>(rt::elemSize(decl.type));
    const std::int64_t firstSweep = std::max<Index>(0, q - delta);
    const std::int64_t interior = std::max<Index>(0, firstSweep - delta);
    std::int64_t cuts = arith::checkedAddNonNeg(
        firstSweep,
        arith::checkedMulNonNeg(reps - 1, interior, "sweep repetitions"),
        "chain-cut count");
    return arith::checkedMulNonNeg(cuts, esz, "parametric bound bytes");
  }

  static void flatten(const StmtPtr& s, std::vector<StmtPtr>& out) {
    if (!s) return;
    if (s->kind == StmtKind::Block) {
      for (const auto& c : s->stmts) flatten(c, out);
    } else {
      out.push_back(s);
    }
  }

  const il::Program& prog_;
  std::vector<std::int64_t> bestPerSym_;
};

CostReport buildReport(const il::Program& prog, const il::Program& pre) {
  VerifyOptions exactOpts;
  exactOpts.collectCost = true;
  exactOpts.matchComm = false;
  VerifyResult exact = verifyProgram(prog, exactOpts);

  VerifyOptions oblOpts = exactOpts;
  oblOpts.obliviousPlacement = true;
  VerifyResult obl = verifyProgram(prog, oblOpts);

  CostReport r;
  r.exact = exact.exhaustive;
  r.perProc.resize(static_cast<std::size_t>(prog.nprocs));
  std::map<const Stmt*, StmtCost> byStmt;
  std::map<int, SymbolCost> bySym;
  for (const CostEvent& ev : exact.costEvents) {
    if (!ev.definite) {
      r.exact = false;
      continue;  // non-definite stmts are flagged in a second pass below
    }
    const std::int64_t bytes = eventBytes(prog, ev);
    const std::int64_t msgs = ev.messages;
    r.bytesMoved = arith::checkedAddNonNeg(r.bytesMoved, bytes,
                                           "total modeled bytes");
    r.messages = arith::checkedAddNonNeg(r.messages, msgs,
                                         "total modeled messages");
    auto& pc = r.perProc[static_cast<std::size_t>(ev.pid)];
    pc.bytes += bytes;
    pc.messages += msgs;
    auto& sc = bySym[ev.sym];
    sc.sym = ev.sym;
    sc.bytes += bytes;
    sc.messages += msgs;
    auto& st = byStmt[ev.stmt.get()];
    if (!st.stmt) {
      st.stmt = ev.stmt;
      st.loc = ev.loc;
      st.sym = ev.sym;
      st.cls = ev.cls;
    }
    st.bytes += bytes;
    st.messages += msgs;
  }
  for (const CostEvent& ev : exact.costEvents) {
    if (ev.definite) continue;
    // Flag the statement as undercounted; a purely conditional statement
    // still gets a row (with zero counted bytes) so the report shows it.
    auto& st = byStmt[ev.stmt.get()];
    if (!st.stmt) {
      st.stmt = ev.stmt;
      st.loc = ev.loc;
      st.sym = ev.sym;
      st.cls = ev.cls;
    }
    st.definite = false;
  }
  for (auto& [sym, sc] : bySym) r.perSymbol.push_back(sc);
  for (auto& [p, st] : byStmt) r.perStmt.push_back(st);
  std::stable_sort(r.perStmt.begin(), r.perStmt.end(),
                   [](const StmtCost& a, const StmtCost& b) {
                     if (a.loc.line != b.loc.line)
                       return a.loc.line < b.loc.line;
                     return a.loc.col < b.loc.col;
                   });

  for (const CostEvent& ev : obl.costEvents) {
    if (!ev.definite) continue;
    r.invariantBound = arith::checkedAddNonNeg(
        r.invariantBound, eventBytes(prog, ev), "invariant lower bound");
  }
  r.parametricBound = parametricLowerBound(pre);
  return r;
}

}  // namespace

double CostReport::pctOfOptimal() const {
  if (bytesMoved <= 0) return lowerBound() <= 0 ? 100.0 : 0.0;
  const double p =
      100.0 * static_cast<double>(lowerBound()) /
      static_cast<double>(bytesMoved);
  return p > 100.0 ? 100.0 : p;
}

CostReport analyzeCost(const il::Program& prog) {
  return buildReport(prog, prog);
}

CostReport analyzeCost(const il::Program& prog, const il::Program& pre) {
  return buildReport(prog, pre);
}

std::int64_t parametricLowerBound(const il::Program& prog) {
  return SweepScanner(prog).run();
}

std::string formatCostReport(const il::Program& prog, const CostReport& r,
                             const std::string& file) {
  std::ostringstream os;
  os << "cost: " << r.bytesMoved << " bytes in " << r.messages
     << " messages"
     << (r.exact ? " (exact)" : " (lower estimate: analysis inexact)")
     << "\n";
  char pct[32];
  std::snprintf(pct, sizeof pct, "%.1f", r.pctOfOptimal());
  os << "lower bound: " << r.lowerBound() << " bytes (invariant "
     << r.invariantBound << ", parametric " << r.parametricBound << "); "
     << pct << "% of optimal\n";
  os << "per processor:\n";
  for (std::size_t p = 0; p < r.perProc.size(); ++p)
    os << "  p" << p << ": " << r.perProc[p].bytes << " bytes, "
       << r.perProc[p].messages << " messages\n";
  os << "per symbol:\n";
  for (const SymbolCost& sc : r.perSymbol)
    os << "  " << prog.decl(sc.sym).name << ": " << sc.bytes << " bytes, "
       << sc.messages << " messages\n";
  os << "per statement:\n";
  for (const StmtCost& st : r.perStmt) {
    os << "  ";
    if (st.loc.valid()) {
      if (!file.empty()) os << file << ":";
      os << st.loc.line << ":" << st.loc.col << ": ";
    }
    os << className(st.cls) << " send of '" << prog.decl(st.sym).name
       << "': " << st.bytes << " bytes, " << st.messages << " messages";
    if (!st.definite) os << " (+ sends the analysis could not count)";
    os << "\n";
  }
  return os.str();
}

std::string costReportJson(const il::Program& prog, const CostReport& r,
                           const std::string& file) {
  std::ostringstream os;
  char pct[32];
  std::snprintf(pct, sizeof pct, "%.1f", r.pctOfOptimal());
  os << "{\"file\":" << json::str(file)
     << ",\"exact\":" << (r.exact ? "true" : "false")
     << ",\"bytes_moved\":" << r.bytesMoved
     << ",\"messages\":" << r.messages
     << ",\"lower_bound\":" << r.lowerBound()
     << ",\"invariant_bound\":" << r.invariantBound
     << ",\"parametric_bound\":" << r.parametricBound
     << ",\"pct_of_optimal\":" << pct << ",\"per_proc\":[";
  for (std::size_t p = 0; p < r.perProc.size(); ++p) {
    if (p) os << ",";
    os << "{\"pid\":" << p << ",\"bytes\":" << r.perProc[p].bytes
       << ",\"messages\":" << r.perProc[p].messages << "}";
  }
  os << "],\"per_symbol\":[";
  for (std::size_t i = 0; i < r.perSymbol.size(); ++i) {
    if (i) os << ",";
    const SymbolCost& sc = r.perSymbol[i];
    os << "{\"symbol\":" << json::str(prog.decl(sc.sym).name)
       << ",\"bytes\":" << sc.bytes << ",\"messages\":" << sc.messages
       << "}";
  }
  os << "],\"per_stmt\":[";
  for (std::size_t i = 0; i < r.perStmt.size(); ++i) {
    if (i) os << ",";
    const StmtCost& st = r.perStmt[i];
    os << "{\"file\":" << json::str(file) << ",\"line\":" << st.loc.line
       << ",\"col\":" << st.loc.col
       << ",\"symbol\":" << json::str(prog.decl(st.sym).name)
       << ",\"class\":" << json::str(className(st.cls))
       << ",\"bytes\":" << st.bytes << ",\"messages\":" << st.messages
       << ",\"definite\":" << (st.definite ? "true" : "false") << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace xdp::analysis
