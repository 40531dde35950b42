// The abstract interpreter behind verifyProgram(). Structure mirrors
// interp::Exec statement by statement — where the interpreter performs a
// runtime operation, the verifier applies the operation's Figure-1 state
// transition to an abstract per-(pid, symbol) ownership state and checks
// its preconditions. The correspondence is load-bearing: every diagnostic
// here maps to a concrete failure the runtime's --debug-checks (or the
// fabric's undelivered-message accounting) would report, which is what the
// differential oracle in test_pipeline_fuzz exercises.
//
// One abstract step is kept cheap (DESIGN.md §7): scalars live in dense
// slots interned once per call, one-point section queries are contains()
// tests, a conditional region saves only what it writes on an undo trail
// and joins just that, and communication events are recorded only when
// matching runs.
#include "xdp/analysis/verifier.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "xdp/il/printer.hpp"
#include "xdp/rt/types.hpp"
#include "xdp/support/arith.hpp"
#include "xdp/support/check.hpp"
#include "xdp/support/json.hpp"

namespace xdp::analysis {
namespace {

using il::DestSpec;
using il::ExprKind;
using il::ExprPtr;
using il::Program;
using il::SecExprKind;
using il::SectionExprPtr;
using il::SrcLoc;
using il::Stmt;
using il::StmtKind;
using il::StmtPtr;
using sec::Index;
using sec::Point;
using sec::RegionList;
using sec::Section;
using sec::Triplet;

using Value = std::variant<Index, double, bool>;
using AbsVal = std::optional<Value>;

/// Thrown inside compute-rule evaluation when the rule *definitely*
/// references the value of an unowned section: the rule is then false
/// (paper 2.4), exactly as in the interpreter.
struct UnownedRef {};
/// Abstract-step budget exhausted; analysis of this program aborts.
struct BudgetExceeded {};

Index asIntV(const Value& v) {
  if (std::holds_alternative<Index>(v)) return std::get<Index>(v);
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v) ? 1 : 0;
  double d = std::get<double>(v);
  return static_cast<Index>(std::llround(d));
}

bool intExact(const Value& v) {
  if (!std::holds_alternative<double>(v)) return true;
  double d = std::get<double>(v);
  return static_cast<double>(static_cast<Index>(std::llround(d))) == d;
}

double asRealV(const Value& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  if (std::holds_alternative<Index>(v))
    return static_cast<double>(std::get<Index>(v));
  return std::get<bool>(v) ? 1.0 : 0.0;
}

bool asBoolV(const Value& v) {
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v);
  if (std::holds_alternative<Index>(v)) return std::get<Index>(v) != 0;
  return std::get<double>(v) != 0.0;
}

std::optional<Index> knownInt(const AbsVal& v) {
  if (!v || !intExact(*v)) return std::nullopt;
  return asIntV(*v);
}

std::optional<bool> knownBool(const AbsVal& v) {
  if (!v) return std::nullopt;
  return asBoolV(*v);
}

// --- abstract section state -------------------------------------------------

/// Figure-1 state of one symbol on one processor. `owned` includes
/// transitional subsections (segments exist for them); `pending` lists the
/// uncompleted receive initiations (their union with `owned` determines
/// Accessible); `gone` accumulates regions whose ownership this processor
/// transferred away (only used to sharpen double-transfer messages).
struct SymState {
  bool top = false;  ///< unknown — every query about this symbol is silent
  RegionList owned;
  std::vector<Section> pending;
  RegionList gone;

  void makeTop() {
    top = true;
    owned = RegionList();
    pending.clear();
    gone = RegionList();
  }
};

/// True iff `p` and `s` share an element (never across ranks).
bool meets(const Section& p, const Section& s) {
  return p.rank() == s.rank() && !Section::intersect(p, s).empty();
}

bool pendingOverlaps(const std::vector<Section>& pending, const Section& s) {
  if (pending.empty()) return false;
  if (s.count() == 1) {
    const Point pt = s.origin();
    return std::any_of(pending.begin(), pending.end(),
                       [&](const Section& p) { return p.contains(pt); });
  }
  return std::any_of(pending.begin(), pending.end(),
                     [&](const Section& p) { return meets(p, s); });
}

void completePendingOver(std::vector<Section>& pending, const Section& s) {
  if (s.count() == 1) {
    const Point pt = s.origin();
    std::erase_if(pending, [&](const Section& p) { return p.contains(pt); });
  } else {
    std::erase_if(pending, [&](const Section& p) { return meets(p, s); });
  }
}

/// Memberwise (rank, then lb:ub:stride per dimension) equality and order.
/// Canonical triplets make this set equality for non-empty sections,
/// which are the only ones pending lists and events hold.
bool sameShape(const Section& a, const Section& b) {
  if (a.rank() != b.rank()) return false;
  for (int d = 0; d < a.rank(); ++d) {
    const Triplet &x = a.dim(d), &y = b.dim(d);
    if (x.lb() != y.lb() || x.ub() != y.ub() || x.stride() != y.stride())
      return false;
  }
  return true;
}

bool shapeLess(const Section& a, const Section& b) {
  if (a.rank() != b.rank()) return a.rank() < b.rank();
  for (int d = 0; d < a.rank(); ++d) {
    const Triplet &x = a.dim(d), &y = b.dim(d);
    if (x.lb() != y.lb()) return x.lb() < y.lb();
    if (x.ub() != y.ub()) return x.ub() < y.ub();
    if (x.stride() != y.stride()) return x.stride() < y.stride();
  }
  return false;
}

/// Same multiset of pending initiations, in any order.
bool samePending(const std::vector<Section>& a,
                 const std::vector<Section>& b) {
  if (a.size() != b.size()) return false;
  if (std::equal(a.begin(), a.end(), b.begin(), sameShape)) return true;
  std::vector<const Section*> x, y;
  for (const Section& s : a) x.push_back(&s);
  for (const Section& s : b) y.push_back(&s);
  auto less = [](const Section* l, const Section* r) {
    return shapeLess(*l, *r);
  };
  std::sort(x.begin(), x.end(), less);
  std::sort(y.begin(), y.end(), less);
  return std::equal(x.begin(), x.end(), y.begin(),
                    [](const Section* l, const Section* r) {
                      return sameShape(*l, *r);
                    });
}

bool sameSymState(const SymState& a, const SymState& b) {
  if (a.top != b.top) return false;
  if (a.top) return true;
  return a.owned.sameSet(b.owned) && a.gone.sameSet(b.gone) &&
         samePending(a.pending, b.pending);
}

/// One universal scalar. `present` tells a scalar never bound on this path
/// from one bound to an unknown value: evaluation reads both as unknown,
/// but the frame comparisons of loop widening and the joins keep them
/// apart.
struct Slot {
  bool present = false;
  AbsVal val;
};

bool sameSlot(const Slot& a, const Slot& b) {
  if (a.present != b.present) return false;
  if (a.val.has_value() != b.val.has_value()) return false;
  return !a.val || *a.val == *b.val;
}

/// Per-processor machine state: symbol states + universal scalars.
struct Frame {
  std::vector<SymState> syms;
  std::vector<Slot> slots;
};

// --- communication events ---------------------------------------------------

enum class EvClass { Data, Own, OwnVal };

constexpr int kAnyDest = -1;  ///< unbound send: the matcher routes it
constexpr int kNoDest = -2;   ///< bound to an empty set: serves no receive

struct Event {
  const StmtPtr* stmt = nullptr;  ///< into the program, which outlives us
  Section name;  ///< name section (messages match on (sym, name) exactly)
  int pid = -1;
  int sym = -1;  ///< name symbol (the *source* symbol for data receives)
  int dest = kAnyDest;  ///< sends: bound destination processor
  EvClass cls = EvClass::Data;
  bool isSend = false;
  bool conditional = false;  ///< recorded under an unknown guard / widening
};

/// Unconditional receive initiation viewed from the destination side, for
/// the await-before-initiate ordering check.
struct RecvInit {
  int sym = -1;
  Section sec;
  int seq = 0;
  SrcLoc loc;
};

/// An await that found the awaited section fully accessible with nothing
/// pending ("trivial"): legal, but suspicious if a *later* receive on the
/// same processor initiates the very data it was meant to wait for.
struct AwaitRec {
  int sym = -1;
  Section sec;
  int seq = 0;
  bool conditional = false;
  StmtPtr stmt;
};

struct Shared {
  explicit Shared(const Program& prog) : scalars(prog) {}

  il::ScalarIds scalars;
  std::uint64_t steps = 0;
  std::vector<Event> events;   ///< recorded only when matchComm is set
  std::set<int> poisonedSyms;  ///< name symbol had an unevaluable section
  std::set<std::pair<int, const Stmt*>> seenDiags;
  bool incomplete = false;  ///< some pid's abstract run aborted
  /// Local parts per (distribution, pid), computed on first use.
  std::map<std::pair<const dist::Distribution*, int>, RegionList> parts;

  const RegionList& localPart(const dist::Distribution& d, int pid) {
    const auto key = std::make_pair(&d, pid);
    auto it = parts.find(key);
    if (it == parts.end()) it = parts.emplace(key, d.localPart(pid)).first;
    return it->second;
  }
};

// --- the per-processor abstract executor -------------------------------------

class PidExec {
 public:
  PidExec(const Program& prog, const VerifyOptions& opts, Shared& sh,
          VerifyResult& res, int pid)
      : prog_(prog), opts_(opts), sh_(sh), res_(res), pid_(pid) {
    frame_.syms.resize(prog.arrays.size());
    frame_.slots.resize(static_cast<std::size_t>(sh.scalars.count()));
    symStamp_.assign(frame_.syms.size(), 0);
    slotStamp_.assign(frame_.slots.size(), 0);
    for (std::size_t i = 0; i < prog.arrays.size(); ++i) {
      if (opts.obliviousPlacement)
        frame_.syms[i].makeTop();  // who owns what is placement-dependent
      else
        frame_.syms[i].owned = sh.localPart(prog.arrays[i].dist, pid);
    }
  }

  void run() {
    try {
      exec(prog_.body);
    } catch (const BudgetExceeded&) {
      res_.exhaustive = false;
      sh_.incomplete = true;
    } catch (const Error&) {
      // A malformed construct the abstract evaluator could not guard
      // against (the runtime would XDP_CHECK on it). Stay silent.
      res_.exhaustive = false;
      sh_.incomplete = true;
    }
    checkAwaitOrdering();
  }

 private:
  // --- diagnostics -----------------------------------------------------

  void diag(DiagKind kind, Severity sev, const StmtPtr& stmt,
            std::string msg) {
    if (condDepth_ > 0) {
      // The enclosing guard was not decidable: the violation is definite
      // *if* this code runs, but we cannot prove it runs.
      if (sev == Severity::Error) sev = Severity::Warning;
      msg += " (in conditionally-executed code)";
    }
    auto key = std::make_pair(static_cast<int>(kind),
                              static_cast<const Stmt*>(stmt.get()));
    if (!sh_.seenDiags.insert(key).second) return;
    Diagnostic d;
    d.severity = sev;
    d.kind = kind;
    d.pid = pid_;
    d.stmt = stmt;
    d.loc = stmt ? stmt->loc : SrcLoc{};
    d.message = std::move(msg);
    res_.diagnostics.push_back(std::move(d));
  }

  std::string symName(int sym) const { return prog_.decl(sym).name; }

  std::string secOf(int sym, const Section& s) const {
    return s.str() + " of '" + symName(sym) + "'";
  }

  // --- state access ----------------------------------------------------
  //
  // Reads go through sym()/slot values directly; every write goes through
  // symMut()/slotMut() so the undo trail sees it.

  const SymState& sym(int s) const {
    return frame_.syms[static_cast<std::size_t>(s)];
  }

  SymState& symMut(int s) {
    save(symTrail_, symStamp_, frame_.syms, s);
    return frame_.syms[static_cast<std::size_t>(s)];
  }

  Slot& slotMut(int i) {
    save(slotTrail_, slotStamp_, frame_.slots, i);
    return frame_.slots[static_cast<std::size_t>(i)];
  }

  int bindOf(const StmtPtr& s) const {
    const int id = sh_.scalars.ofBind(s.get());
    XDP_CHECK(id >= 0, "scalar binding outside the verified program");
    return id;
  }

  // --- undo trail --------------------------------------------------------
  //
  // A conditional region (the body under an undecidable guard, one pass of
  // a widened loop) ends in a join with the state it started from. The
  // first write to a slot or symbol state inside a region saves the prior
  // value, stamped with the region's id, so the join compares only what
  // the region wrote. Closing a region hands its saves to the enclosing
  // one, unless that region already holds an earlier save of the same
  // entity.

  template <class T>
  struct Save {
    int index;
    int prevStamp;  ///< the entity's stamp before this save
    T value;        ///< its value when the region first wrote it
  };

  struct Region {
    int id;
    std::size_t slotMark;
    std::size_t symMark;
  };

  template <class T>
  void save(std::vector<Save<T>>& trail, std::vector<int>& stamps,
            const std::vector<T>& values, int i) {
    if (regions_.empty()) return;
    const int id = regions_.back().id;
    int& stamp = stamps[static_cast<std::size_t>(i)];
    if (stamp == id) return;
    trail.push_back(Save<T>{i, stamp, values[static_cast<std::size_t>(i)]});
    stamp = id;
  }

  void openRegion() {
    regions_.push_back(
        Region{++lastRegionId_, slotTrail_.size(), symTrail_.size()});
  }

  /// True iff the innermost region left some slot or symbol state
  /// different from its value at region entry.
  bool regionChanged() const {
    const Region& r = regions_.back();
    for (std::size_t k = r.slotMark; k < slotTrail_.size(); ++k) {
      const Save<Slot>& e = slotTrail_[k];
      if (!sameSlot(frame_.slots[static_cast<std::size_t>(e.index)], e.value))
        return true;
    }
    for (std::size_t k = r.symMark; k < symTrail_.size(); ++k) {
      const Save<SymState>& e = symTrail_[k];
      if (!sameSymState(frame_.syms[static_cast<std::size_t>(e.index)],
                        e.value))
        return true;
    }
    return false;
  }

  /// Join the innermost region's entry state into the current one. The
  /// domain is deliberately shallow: any disagreement tops the symbol (or
  /// forgets the scalar). Precision after a join only matters for programs
  /// with data-dependent rules, which are outside the exact fragment
  /// anyway — soundness (no false positives) is what counts.
  void joinRegion() {
    const Region& r = regions_.back();
    for (std::size_t k = r.slotMark; k < slotTrail_.size(); ++k) {
      const Save<Slot>& e = slotTrail_[k];
      Slot& cur = frame_.slots[static_cast<std::size_t>(e.index)];
      if (!sameSlot(cur, e.value)) cur.val.reset();
    }
    for (std::size_t k = r.symMark; k < symTrail_.size(); ++k) {
      const Save<SymState>& e = symTrail_[k];
      SymState& cur = frame_.syms[static_cast<std::size_t>(e.index)];
      if (!sameSymState(cur, e.value)) cur.makeTop();
    }
  }

  void closeRegion() {
    const Region r = regions_.back();
    regions_.pop_back();
    const int outer = regions_.empty() ? 0 : regions_.back().id;
    handOver(slotTrail_, slotStamp_, r.slotMark, outer);
    handOver(symTrail_, symStamp_, r.symMark, outer);
  }

  template <class T>
  static void handOver(std::vector<Save<T>>& trail, std::vector<int>& stamps,
                       std::size_t mark, int outer) {
    std::size_t keep = mark;
    for (std::size_t k = mark; k < trail.size(); ++k) {
      Save<T>& e = trail[k];
      int& stamp = stamps[static_cast<std::size_t>(e.index)];
      if (outer == 0 || e.prevStamp == outer) {
        stamp = e.prevStamp;  // no enclosing region, or it saved earlier
        continue;
      }
      stamp = outer;
      if (keep != k) trail[keep] = std::move(e);
      ++keep;
    }
    trail.erase(trail.begin() + static_cast<std::ptrdiff_t>(keep),
                trail.end());
  }

  // --- state queries ---------------------------------------------------

  /// Check that (sym, s) is provably Accessible; `what` names the
  /// operation ("read of", "data send of", ...). Returns false if a
  /// definite violation was diagnosed. Silent when the state is Top.
  bool requireAccessible(DiagKind kind, const StmtPtr& stmt, int symbol,
                         const Section& s, const char* what) {
    const SymState& ss = sym(symbol);
    if (ss.top || s.empty()) return true;
    if (!ss.owned.covers(s)) {
      const bool wasMine = ss.gone.overlaps(s);
      diag(kind, Severity::Error, stmt,
           std::string(what) + " section " + secOf(symbol, s) +
               (wasMine ? " after its ownership was transferred away"
                        : " that this processor does not own"));
      return false;
    }
    if (pendingOverlaps(ss.pending, s)) {
      diag(kind, Severity::Error, stmt,
           std::string(what) + " transitional section " + secOf(symbol, s) +
               " (overlaps an uncompleted receive; await it first)");
      return false;
    }
    return true;
  }

  // --- statement execution ---------------------------------------------

  void step() {
    res_.stmtsAnalyzed += 1;
    if (++sh_.steps > opts_.maxSteps) throw BudgetExceeded{};
  }

  void exec(const StmtPtr& s) {
    if (!s) return;
    step();
    curStmt_ = &s;  // anchor for diagnostics raised during expression eval
    switch (s->kind) {
      case StmtKind::Block:
        for (const auto& c : s->stmts) exec(c);
        return;
      case StmtKind::ScalarAssign: {
        AbsVal v = evalValue(s->value);
        slotMut(bindOf(s)) = Slot{true, std::move(v)};
        return;
      }
      case StmtKind::ElemAssign:
        execElemAssign(s);
        return;
      case StmtKind::For:
        execFor(s);
        return;
      case StmtKind::Guarded:
        execGuarded(s);
        return;
      case StmtKind::SendData:
        execSendData(s);
        return;
      case StmtKind::RecvData:
        execRecvData(s);
        return;
      case StmtKind::SendOwn:
        execSendOwn(s);
        return;
      case StmtKind::RecvOwn:
        execRecvOwn(s);
        return;
      case StmtKind::Await:
        execAwait(s);
        return;
      case StmtKind::LocalCopy:
        execLocalCopy(s);
        return;
      case StmtKind::Kernel:
        // Kernels are opaque: by contract they touch only what they may
        // (the built-in `fill` writes the owned intersection of each
        // argument), so argument sections are not checked.
        return;
      case StmtKind::ComputeCost:
        evalValue(s->value);  // still checks element reads in the cost
        return;
    }
  }

  void execElemAssign(const StmtPtr& s) {
    if (guardDepth_ == 0) {
      // Pre-lowering owner-computes dialect: an unguarded element
      // assignment denotes a *global* assignment that lowerOwnerComputes
      // turns into explicit guarded transfers. Not checkable as-is.
      return;
    }
    AbsVal rhs = evalValue(s->rhs);  // checks the reads
    (void)rhs;
    std::optional<Section> pt = evalSection(s->sym, s->lhs);
    if (!pt) return;
    if (pt->count() != 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "element assignment target " + secOf(s->sym, *pt) +
               " is not a single point");
      return;
    }
    requireAccessible(DiagKind::NotAccessible, s, s->sym, *pt, "write to");
  }

  void execFor(const StmtPtr& s) {
    std::optional<Index> lb = knownInt(evalValue(s->lb));
    std::optional<Index> ub = knownInt(evalValue(s->ub));
    std::optional<Index> stp =
        s->step ? knownInt(evalValue(s->step)) : std::optional<Index>(1);
    if (lb && ub && stp && *stp > 0) {
      if (summarizeLoop(s, *lb, *ub, *stp)) return;
      const int var = bindOf(s);
      for (Index i = *lb; i <= *ub;) {
        slotMut(var) = Slot{true, Value(i)};
        exec(s->body);
        // `i + step` can overflow past a ub near INT64_MAX; decide
        // termination on the (always in-range) remaining distance, as the
        // interpreter does.
        if (static_cast<std::uint64_t>(*ub) - static_cast<std::uint64_t>(i) <
            static_cast<std::uint64_t>(*stp))
          break;
        i += *stp;
      }
      return;
    }
    widenLoop(s);
  }

  /// Loop with a bound the analysis cannot evaluate: run the body to a
  /// local fixpoint with the loop variable unknown, topping whatever does
  /// not stabilize, then join with the zero-iteration state. Diagnostics
  /// inside are downgraded (the body may execute zero times) and events
  /// are conditional (their matching groups go silent).
  void widenLoop(const StmtPtr& s) {
    res_.exhaustive = false;
    const int var = bindOf(s);
    openRegion();  // the zero-iteration state
    ++condDepth_;
    slotMut(var) = Slot{true, std::nullopt};
    const int kMaxIter = 3;
    for (int k = 0; k < kMaxIter; ++k) {
      openRegion();  // this pass's entry state
      exec(s->body);
      slotMut(var) = Slot{true, std::nullopt};
      const bool moved = regionChanged();
      // Not converged: drop everything that is still moving.
      if (moved && k == kMaxIter - 1) joinRegion();
      closeRegion();
      if (!moved) break;
    }
    --condDepth_;
    joinRegion();
    closeRegion();
  }

  // --- loop summaries ----------------------------------------------------
  //
  // A loop body of blocks and element assignments, under at most one
  // iown/accessible guard of a literal point, changes no ownership state:
  // every iteration meets the state the loop started in. Its iterations
  // are then checked a section at a time (paper §3.1): the guard's owned
  // pieces are pulled back to iteration sets, each set is pushed through
  // every subscript, and each image gets one covers and one
  // pending-overlap test. The summary is taken only when every test
  // passes, so it never has a diagnostic to raise; any other loop unrolls.

  /// a * v + b in the loop variable v.
  struct Affine {
    Index a = 0;
    Index b = 0;
  };

  /// An element reference of a summarizable body.
  struct Access {
    int sym;
    const il::SectionExpr* point;
  };

  struct LoopShape {
    const Stmt* guard = nullptr;   ///< the iown/accessible guard, if any
    std::uint64_t perIter = 0;     ///< steps every iteration is charged
    std::uint64_t perGuarded = 0;  ///< steps a guarded iteration adds
    std::vector<Access> accesses;  ///< element reads and writes
  };

  static bool isLiteralPoint(const SectionExprPtr& se) {
    if (!se || se->kind != SecExprKind::Literal || se->dims.empty() ||
        se->dims.size() > static_cast<std::size_t>(sec::kMaxRank))
      return false;
    return std::all_of(se->dims.begin(), se->dims.end(),
                       [](const il::TripletExpr& t) {
                         return t.lb && !t.ub && !t.stride;
                       });
  }

  /// Collect the element reads of `e`; false on an expression kind whose
  /// evaluation queries or changes ownership state.
  static bool collectReads(const ExprPtr& e, std::vector<Access>& out) {
    if (!e) return true;
    switch (e->kind) {
      case ExprKind::IntConst:
      case ExprKind::RealConst:
      case ExprKind::ScalarRef:
      case ExprKind::MyPid:
      case ExprKind::NProcs:
        return true;
      case ExprKind::Bin:
        return collectReads(e->lhs, out) && collectReads(e->rhs, out);
      case ExprKind::Neg:
      case ExprKind::Not:
        return collectReads(e->lhs, out);
      case ExprKind::Elem:
        if (!isLiteralPoint(e->section)) return false;
        out.push_back(Access{e->sym, e->section.get()});
        return true;
      default:
        return false;
    }
  }

  /// Count the statements of a tree of blocks and element assignments and
  /// collect its element references; false on any other statement.
  static bool collectBody(const StmtPtr& s, std::uint64_t& nodes,
                          std::vector<Access>& out) {
    if (!s) return true;
    ++nodes;
    if (s->kind == StmtKind::Block) {
      for (const auto& c : s->stmts)
        if (!collectBody(c, nodes, out)) return false;
      return true;
    }
    if (s->kind != StmtKind::ElemAssign || !isLiteralPoint(s->lhs))
      return false;
    out.push_back(Access{s->sym, s->lhs.get()});
    return collectReads(s->rhs, out);
  }

  /// Single-statement blocks down to an optional guard (the VM's split
  /// shape, DESIGN.md §9.3), then only blocks and element assignments.
  static bool loopShape(const StmtPtr& body, LoopShape& sh) {
    const StmtPtr* at = &body;
    std::uint64_t chain = 0;
    while (*at && (*at)->kind == StmtKind::Block &&
           (*at)->stmts.size() == 1) {
      ++chain;
      at = &(*at)->stmts.front();
    }
    if (*at && (*at)->kind == StmtKind::Guarded) {
      const ExprPtr& rule = (*at)->rule;
      if (!rule ||
          (rule->kind != ExprKind::Iown &&
           rule->kind != ExprKind::Accessible) ||
          !isLiteralPoint(rule->section))
        return false;
      sh.guard = at->get();
      sh.perIter = chain + 1;
      return collectBody((*at)->body, sh.perGuarded, sh.accesses);
    }
    return collectBody(body, sh.perIter, sh.accesses);
  }

  /// `e` as a * v + b, v the loop variable `var` running from lb to last:
  /// built from integer literals, mypid, nprocs, v and integer scalars
  /// known in the frame under + - * min max and negation. Each
  /// subexpression is affine in v, so its values at the two ends bound it
  /// on every iteration; they and its coefficients must lie strictly
  /// within ±2^62 (decided in 128 bits). The wrapping evaluation of each
  /// iteration is then exact, and the section algebra on the images has
  /// room to work.
  std::optional<Affine> affineOf(const ExprPtr& e, int var, Index lb,
                                 Index last) const {
    using I128 = __int128;
    if (!e) return std::nullopt;
    I128 a = 0, b = 0;
    switch (e->kind) {
      case ExprKind::IntConst:
        b = e->intVal;
        break;
      case ExprKind::MyPid:
        b = pid_;
        break;
      case ExprKind::NProcs:
        b = prog_.nprocs;
        break;
      case ExprKind::ScalarRef: {
        const int id = sh_.scalars.ofRef(e.get());
        if (id < 0) return std::nullopt;
        if (id == var) {
          a = 1;
          break;
        }
        const AbsVal& v = frame_.slots[static_cast<std::size_t>(id)].val;
        if (!v || !std::holds_alternative<Index>(*v)) return std::nullopt;
        b = std::get<Index>(*v);
        break;
      }
      case ExprKind::Neg: {
        const std::optional<Affine> x = affineOf(e->lhs, var, lb, last);
        if (!x) return std::nullopt;
        a = -I128{x->a};
        b = -I128{x->b};
        break;
      }
      case ExprKind::Bin: {
        const std::optional<Affine> x = affineOf(e->lhs, var, lb, last);
        if (!x) return std::nullopt;
        const std::optional<Affine> y = affineOf(e->rhs, var, lb, last);
        if (!y) return std::nullopt;
        switch (e->op) {
          case il::BinOp::Add:
            a = I128{x->a} + y->a;
            b = I128{x->b} + y->b;
            break;
          case il::BinOp::Sub:
            a = I128{x->a} - y->a;
            b = I128{x->b} - y->b;
            break;
          case il::BinOp::Mul:
            if (x->a != 0 && y->a != 0) return std::nullopt;
            a = I128{x->a} * y->b + I128{y->a} * x->b;
            b = I128{x->b} * y->b;
            break;
          case il::BinOp::Min:
          case il::BinOp::Max:
            if (x->a != 0 || y->a != 0) return std::nullopt;
            b = e->op == il::BinOp::Min ? std::min(x->b, y->b)
                                        : std::max(x->b, y->b);
            break;
          default:
            return std::nullopt;
        }
        break;
      }
      default:
        return std::nullopt;
    }
    constexpr I128 kBound = I128{1} << 62;
    for (const I128 v : {a, b, a * lb + b, a * last + b})
      if (v <= -kBound || v >= kBound) return std::nullopt;
    return Affine{static_cast<Index>(a), static_cast<Index>(b)};
  }

  /// The subscripts of a literal point as affine maps; false if one is not.
  bool pointAffine(const il::SectionExpr& se, int var, Index lb, Index last,
                   std::array<Affine, sec::kMaxRank>& out) const {
    for (std::size_t d = 0; d < se.dims.size(); ++d) {
      const std::optional<Affine> f = affineOf(se.dims[d].lb, var, lb, last);
      if (!f) return false;
      out[d] = *f;
    }
    return true;
  }

  /// The bounding section of the points `f` maps the iterations `it`
  /// (within the loop) to: per dimension the image triplet, or the point
  /// b where a = 0. nullopt if an image stride or the element count
  /// leaves Index.
  static std::optional<Section> hullOf(
      const std::array<Affine, sec::kMaxRank>& f, int rank,
      const Triplet& it) {
    std::array<Triplet, sec::kMaxRank> dims{};
    __int128 count = 1;
    for (int d = 0; d < rank; ++d) {
      const Affine& m = f[d];
      dims[d] = Triplet(m.b);
      if (m.a != 0) {
        const __int128 stride =
            (m.a < 0 ? -__int128{m.a} : __int128{m.a}) * it.stride();
        if (stride > std::numeric_limits<Index>::max()) return std::nullopt;
        const Index x = m.a * it.lb() + m.b, y = m.a * it.ub() + m.b;
        dims[d] = m.a > 0 ? Triplet(x, y, static_cast<Index>(stride))
                          : Triplet(y, x, static_cast<Index>(stride));
      }
      count *= dims[d].count();
      if (count > std::numeric_limits<Index>::max()) return std::nullopt;
    }
    return Section(rank, dims);
  }

  /// Verify the loop lb:ub:step of `s` at section granularity. True when
  /// every check passed: the steps unrolling would take are charged and
  /// the loop variable holds its last value. False, with nothing
  /// changed, when the loop must unroll.
  bool summarizeLoop(const StmtPtr& s, Index lb, Index ub, Index step) {
    using U128 = unsigned __int128;
    if (lb > ub) return false;
    LoopShape shape;
    if (!loopShape(s->body, shape)) return false;
    const auto ustep = static_cast<std::uint64_t>(step);
    const std::uint64_t trips = (static_cast<std::uint64_t>(ub) -
                                 static_cast<std::uint64_t>(lb)) / ustep + 1;
    const std::uint64_t room = opts_.maxSteps - sh_.steps;
    if (U128{trips} * shape.perIter > room) return false;
    const auto last = static_cast<Index>(static_cast<std::uint64_t>(lb) +
                                         (trips - 1) * ustep);
    if (__int128{last} - lb > std::numeric_limits<Index>::max())
      return false;
    const Triplet loop(lb, last, step);
    const int var = bindOf(s);

    // The iterations that run the body: all of them, or the guard's
    // owned pieces pulled back through its subscripts.
    std::vector<Triplet> sets;
    std::uint64_t guarded = 0;
    if (!shape.guard) {
      sets.push_back(loop);
    } else {
      const il::Expr& rule = *shape.guard->rule;
      const SymState& g = sym(rule.sym);
      if (g.top) return false;  // the guard is undecidable on every iteration
      if (rule.kind == ExprKind::Accessible && !g.pending.empty())
        return false;
      const int rank = static_cast<int>(rule.section->dims.size());
      std::array<Affine, sec::kMaxRank> f{};
      if (!pointAffine(*rule.section, var, lb, last, f)) return false;
      for (int d = 0; d < rank; ++d)
        if (f[d].a != 0 &&
            !Triplet::affineImageFits(f[d].a, f[d].b, lb, last, step))
          return false;
      const std::optional<Section> image = hullOf(f, rank, loop);
      if (!image) return false;
      for (const Section& piece : g.owned.sections())
        if (piece.rank() != rank) return false;
      for (const Section& piece : g.owned.intersect(*image)) {
        Triplet it = loop;
        for (int d = 0; d < rank && !it.empty(); ++d)
          if (f[d].a != 0)
            it = Triplet::intersect(
                it, piece.dim(d).affinePreimage(f[d].a, f[d].b));
        if (it.empty()) continue;
        guarded += static_cast<std::uint64_t>(it.count());
        sets.push_back(it);
      }
    }

    // Every access of every running iteration must be Accessible. An
    // unguarded element assignment outside any guard is exempt, as in
    // execElemAssign. A Top array owns nothing here, so its covers test
    // fails and the loop unrolls, silent as before.
    if (shape.guard || guardDepth_ > 0) {
      for (const Access& acc : shape.accesses) {
        const SymState& x = sym(acc.sym);
        const int rank = static_cast<int>(acc.point->dims.size());
        std::array<Affine, sec::kMaxRank> f{};
        if (!pointAffine(*acc.point, var, lb, last, f)) return false;
        for (const Triplet& it : sets) {
          const std::optional<Section> hull = hullOf(f, rank, it);
          if (!hull || !x.owned.covers(*hull) ||
              pendingOverlaps(x.pending, *hull))
            return false;
        }
      }
    }

    const U128 total =
        U128{trips} * shape.perIter + U128{guarded} * shape.perGuarded;
    if (total > room) return false;
    sh_.steps += static_cast<std::uint64_t>(total);
    res_.stmtsAnalyzed += static_cast<std::uint64_t>(total);
    slotMut(var) = Slot{true, Value(last)};
    ++res_.loopsSummarized;
    return true;
  }

  void execGuarded(const StmtPtr& s) {
    std::optional<bool> r = evalRule(s->rule);
    ++guardDepth_;
    if (r.has_value()) {
      if (*r) exec(s->body);
    } else {
      res_.exhaustive = false;
      openRegion();
      ++condDepth_;
      exec(s->body);
      --condDepth_;
      joinRegion();
      closeRegion();
    }
    --guardDepth_;
  }

  void execSendData(const StmtPtr& s) {
    std::optional<Section> e = evalSection(s->sym, s->lhs);
    if (!e) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym);
      return;
    }
    if (e->empty()) return;
    requireAccessible(DiagKind::SendUnowned, s, s->sym, *e, "data send of");
    // The message is emitted regardless (without --debug-checks the
    // runtime reads whatever the segments hold), so record it either way
    // to keep the matching diagnostics focused on the root cause.
    recordSend(s, EvClass::Data, s->sym, *e, resolveDest(s, s->dest),
               /*expandToSet=*/true);
    // Fan-out is structural: a send-to-set emits one message per listed
    // destination even when a pid expression is not compile-time known.
    const Index fanout = s->dest.kind == DestSpec::Kind::Pids
                             ? static_cast<Index>(s->dest.pids.size())
                             : 1;
    recordCost(s, CostClass::Data, s->sym, e->count(), fanout,
               /*definite=*/condDepth_ == 0);
  }

  void execRecvData(const StmtPtr& s) {
    std::optional<Section> dst = evalSection(s->sym, s->lhs);
    std::optional<Section> name = evalSection(s->sym2, s->sec2);
    if (!name) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym2);
    }
    if (dst && name && dst->empty() && name->empty()) return;
    if (dst && name && dst->count() != name->count()) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "receive destination " + secOf(s->sym, *dst) + " and name " +
               secOf(s->sym2, *name) + " differ in size (" +
               std::to_string(dst->count()) + " vs " +
               std::to_string(name->count()) + " elements)");
      return;
    }
    if (prog_.decl(s->sym).type != prog_.decl(s->sym2).type) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "receive element type mismatch: '" + symName(s->sym) + "' is " +
               rt::elemTypeName(prog_.decl(s->sym).type) + ", '" +
               symName(s->sym2) + "' is " +
               rt::elemTypeName(prog_.decl(s->sym2).type));
      return;
    }
    if (!dst) {
      res_.exhaustive = false;
      symMut(s->sym).makeTop();
    } else if (!dst->empty()) {
      if (!sym(s->sym).top) {
        if (!sym(s->sym).owned.covers(*dst)) {
          diag(DiagKind::NotAccessible, Severity::Error, s,
               "receive into section " + secOf(s->sym, *dst) +
                   " that this processor does not own");
          return;  // the runtime refuses to post the receive
        }
        // E <- X blocks until E is accessible (completing anything
        // pending over it), then initiates the receive.
        SymState& ss = symMut(s->sym);
        completePendingOver(ss.pending, *dst);
        ss.pending.push_back(*dst);
      }
      noteRecvInit(s->sym, *dst, s->loc);
    }
    if (name && !name->empty())
      recordRecv(s, EvClass::Data, s->sym2, *name);
  }

  void execSendOwn(const StmtPtr& s) {
    std::optional<Section> e = evalSection(s->sym, s->lhs);
    if (!e) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym);
      symMut(s->sym).makeTop();
      return;
    }
    if (e->empty()) return;
    Dest d = resolveDest(s, s->dest);
    if (d.bound && d.pids.size() > 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "ownership can be sent to exactly one processor (got " +
               std::to_string(d.pids.size()) + " destinations)");
      return;
    }
    const bool ownershipProven = !sym(s->sym).top;
    if (ownershipProven) {
      const SymState& ss = sym(s->sym);
      if (!ss.owned.covers(*e)) {
        if (ss.gone.overlaps(*e)) {
          diag(DiagKind::DoubleOwnership, Severity::Error, s,
               "ownership of section " + secOf(s->sym, *e) +
                   " transferred away twice (already sent)");
        } else {
          diag(DiagKind::SendUnowned, Severity::Error, s,
               "ownership send of section " + secOf(s->sym, *e) +
                   " that this processor does not own");
        }
        return;  // the runtime makes this a no-op: no message leaves
      }
      // "Owner send operations block until the section is accessible."
      SymState& m = symMut(s->sym);
      completePendingOver(m.pending, *e);
      m.owned.subtract(*e);
      m.gone.add(*e);
    }
    recordSend(s, s->withValue ? EvClass::OwnVal : EvClass::Own, s->sym, *e,
               d, /*expandToSet=*/false);
    // Unproven ownership means the runtime may silently drop this send
    // (ownership send of an unowned section is a no-op), so the event is
    // only definite when ownership was proven.
    recordCost(s, s->withValue ? CostClass::OwnVal : CostClass::Own, s->sym,
               e->count(), 1,
               /*definite=*/condDepth_ == 0 && ownershipProven);
  }

  void execRecvOwn(const StmtPtr& s) {
    std::optional<Section> u = evalSection(s->sym, s->lhs);
    if (!u) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym);
      symMut(s->sym).makeTop();
      return;
    }
    if (u->empty()) return;
    if (!sym(s->sym).top) {
      if (sym(s->sym).owned.overlaps(*u)) {
        diag(DiagKind::DoubleOwnership, Severity::Error, s,
             "ownership receive of section " + secOf(s->sym, *u) +
                 " this processor already owns");
        return;
      }
      SymState& ss = symMut(s->sym);
      ss.owned.add(*u);
      ss.pending.push_back(*u);
      ss.gone.subtract(*u);
    }
    noteRecvInit(s->sym, *u, s->loc);
    recordRecv(s, s->withValue ? EvClass::OwnVal : EvClass::Own, s->sym, *u);
  }

  void execAwait(const StmtPtr& s) {
    std::optional<Section> sec = evalSection(s->sym, s->lhs);
    if (!sec) {
      res_.exhaustive = false;
      symMut(s->sym).makeTop();
      return;
    }
    if (sec->empty()) return;
    const SymState& ss = sym(s->sym);
    if (ss.top) return;
    if (!ss.owned.covers(*sec)) {
      diag(DiagKind::AwaitMismatch, Severity::Warning, s,
           "await of section " + secOf(s->sym, *sec) +
               " this processor does not own: it returns false "
               "immediately and synchronizes nothing");
      return;
    }
    const bool trivial = !pendingOverlaps(ss.pending, *sec);
    if (trivial) {
      awaits_.push_back(AwaitRec{s->sym, *sec, seq_, condDepth_ > 0, s});
    } else {
      completePendingOver(symMut(s->sym).pending, *sec);
      noteCompletingAwait(s.get());
    }
    ++seq_;
  }

  void execLocalCopy(const StmtPtr& s) {
    std::optional<Section> dst = evalSection(s->sym, s->lhs);
    std::optional<Section> src = evalSection(s->sym2, s->sec2);
    if (!dst || !src) {
      res_.exhaustive = false;
      return;
    }
    if (dst->empty() && src->empty()) return;
    if (dst->count() != src->count()) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "local copy size mismatch: " + secOf(s->sym, *dst) + " vs " +
               secOf(s->sym2, *src));
      return;
    }
    if (prog_.decl(s->sym).type != prog_.decl(s->sym2).type) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "local copy element type mismatch between '" + symName(s->sym) +
               "' and '" + symName(s->sym2) + "'");
      return;
    }
    requireAccessible(DiagKind::NotAccessible, s, s->sym2, *src, "read of");
    requireAccessible(DiagKind::NotAccessible, s, s->sym, *dst, "write to");
  }

  // --- events ----------------------------------------------------------

  /// Resolved send destination: `known` is false when a pid expression or
  /// owner query could not be decided; `bound` is false for the
  /// unspecified (matcher-routed) destination.
  struct Dest {
    bool known = true;
    bool bound = false;
    std::vector<int> pids;

    static Dest unknown() {
      Dest d;
      d.known = false;
      return d;
    }
  };

  void recordSend(const StmtPtr& s, EvClass cls, int symbol,
                  const Section& e, const Dest& d, bool expandToSet) {
    ++seq_;
    if (!opts_.matchComm) return;  // only matchEvents reads events
    Event ev;
    ev.stmt = &s;
    ev.name = e;
    ev.pid = pid_;
    ev.sym = symbol;
    ev.cls = cls;
    ev.isSend = true;
    ev.conditional = condDepth_ > 0 || !d.known;
    if (d.known && d.bound && expandToSet && d.pids.size() > 1) {
      // sendToSet: one message per destination processor.
      for (int pid : d.pids) {
        ev.dest = pid;
        sh_.events.push_back(ev);
      }
      return;
    }
    if (d.known && d.bound) ev.dest = d.pids.empty() ? kNoDest : d.pids[0];
    sh_.events.push_back(std::move(ev));
  }

  void recordCost(const StmtPtr& s, CostClass cls, int symbol, Index elems,
                  Index messages, bool definite) {
    if (!opts_.collectCost) return;
    CostEvent ce;
    ce.pid = pid_;
    ce.sym = symbol;
    ce.stmt = s;
    ce.loc = s ? s->loc : SrcLoc{};
    ce.cls = cls;
    ce.elems = elems;
    ce.messages = messages;
    ce.definite = definite;
    res_.costEvents.push_back(std::move(ce));
  }

  void recordRecv(const StmtPtr& s, EvClass cls, int nameSym,
                  const Section& name) {
    ++seq_;
    if (!opts_.matchComm) return;
    Event ev;
    ev.stmt = &s;
    ev.name = name;
    ev.pid = pid_;
    ev.sym = nameSym;
    ev.cls = cls;
    ev.conditional = condDepth_ > 0;
    sh_.events.push_back(std::move(ev));
  }

  Dest resolveDest(const StmtPtr& s, const DestSpec& d) {
    switch (d.kind) {
      case DestSpec::Kind::None:
        return Dest{};
      case DestSpec::Kind::Pids: {
        Dest out{true, true, {}};
        for (const auto& e : d.pids) {
          std::optional<Index> v = knownInt(evalValue(e));
          if (!v) {
            res_.exhaustive = false;
            return Dest::unknown();
          }
          if (*v < 0 || *v >= prog_.nprocs) {
            diag(DiagKind::TransferMismatch, Severity::Error, s,
                 "send destination processor " + std::to_string(*v) +
                     " is outside 0.." + std::to_string(prog_.nprocs - 1));
            return Dest::unknown();
          }
          out.pids.push_back(static_cast<int>(*v));
        }
        return out;
      }
      case DestSpec::Kind::OwnerOf: {
        if (opts_.obliviousPlacement) {
          // Who owns the section is exactly what this mode abstracts away.
          res_.exhaustive = false;
          return Dest::unknown();
        }
        std::optional<Section> sec = evalSection(d.sym, d.section);
        if (!sec || sec->empty()) {
          res_.exhaustive = false;
          return Dest::unknown();
        }
        const dist::Distribution& dd =
            d.distOverride ? *d.distOverride : prog_.decl(d.sym).dist;
        int owner = -1;
        bool unique = true;
        try {
          if (sec->count() == 1) {
            owner = dd.ownerOf(sec->origin());
          } else {
            sec->forEach([&](const Point& p) {
              int o = dd.ownerOf(p);
              if (owner < 0) owner = o;
              else if (o != owner) unique = false;
            });
          }
        } catch (const Error&) {
          res_.exhaustive = false;
          return Dest::unknown();
        }
        if (!unique) {
          diag(DiagKind::TransferMismatch, Severity::Error, s,
               "bound destination section " + secOf(d.sym, *sec) +
                   " spans more than one processor");
          return Dest::unknown();
        }
        return Dest{true, true, {owner}};
      }
    }
    return Dest::unknown();
  }

  // --- expression evaluation -------------------------------------------

  std::optional<bool> evalRule(const ExprPtr& e) {
    ++ruleDepth_;
    std::optional<bool> result;
    try {
      result = knownBool(evalValue(e));
    } catch (const UnownedRef&) {
      result = false;  // paper 2.4: unowned value reference => rule false
    }
    --ruleDepth_;
    return result;
  }

  AbsVal evalValue(const ExprPtr& e) {
    if (!e) return std::nullopt;
    switch (e->kind) {
      case ExprKind::IntConst:
        return Value(e->intVal);
      case ExprKind::RealConst:
        return Value(e->realVal);
      case ExprKind::ScalarRef: {
        const int id = sh_.scalars.ofRef(e.get());
        if (id < 0) return std::nullopt;
        return frame_.slots[static_cast<std::size_t>(id)].val;
      }
      case ExprKind::MyPid:
        return Value(static_cast<Index>(pid_));
      case ExprKind::NProcs:
        return Value(static_cast<Index>(prog_.nprocs));
      case ExprKind::Bin:
        return evalBin(e);
      case ExprKind::Neg: {
        AbsVal v = evalValue(e->lhs);
        if (!v) return std::nullopt;
        if (std::holds_alternative<Index>(*v))
          return Value(arith::wrapNeg(std::get<Index>(*v)));
        return Value(-asRealV(*v));
      }
      case ExprKind::Not: {
        std::optional<bool> b = knownBool(evalValue(e->lhs));
        if (!b) return std::nullopt;
        return Value(!*b);
      }
      case ExprKind::Elem:
        return evalElem(e);
      case ExprKind::Iown: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        const SymState& ss = sym(e->sym);
        if (!s || ss.top) return std::nullopt;
        return Value(ss.owned.covers(*s));
      }
      case ExprKind::Accessible: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        const SymState& ss = sym(e->sym);
        if (!s || ss.top) return std::nullopt;
        return Value(ss.owned.covers(*s) && !pendingOverlaps(ss.pending, *s));
      }
      case ExprKind::Await: {
        // await(X) in rule position: false if unowned, else blocks until
        // accessible — which completes the overlapping pending receives.
        std::optional<Section> s = evalSection(e->sym, e->section);
        const SymState& ss = sym(e->sym);
        if (!s || ss.top) return std::nullopt;
        if (s->empty()) return Value(true);
        if (!ss.owned.covers(*s)) return Value(false);
        const bool trivial = !pendingOverlaps(ss.pending, *s);
        if (!trivial) {
          completePendingOver(symMut(e->sym).pending, *s);
          if (curStmt_ && *curStmt_) noteCompletingAwait(curStmt_->get());
        }
        if (trivial && curStmt_ && *curStmt_)
          awaits_.push_back(
              AwaitRec{e->sym, *s, seq_, condDepth_ > 0, *curStmt_});
        ++seq_;
        return Value(true);
      }
      case ExprKind::MyLb:
      case ExprKind::MyUb: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        const SymState& ss = sym(e->sym);
        if (!s || ss.top) return std::nullopt;
        if (e->dim < 0 || e->dim >= s->rank()) return std::nullopt;
        const bool lower = e->kind == ExprKind::MyLb;
        Index best = lower ? rt::kMaxInt : rt::kMinInt;
        for (const Section& piece : ss.owned.sections()) {
          if (piece.rank() != s->rank()) continue;
          Section i = Section::intersect(piece, *s);
          if (i.empty()) continue;
          best = lower ? std::min(best, i.dim(e->dim).lb())
                       : std::max(best, i.dim(e->dim).ub());
        }
        return Value(best);
      }
      case ExprKind::SecNonEmpty: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        if (!s) return std::nullopt;
        return Value(!s->empty());
      }
    }
    return std::nullopt;
  }

  AbsVal evalElem(const ExprPtr& e) {
    std::optional<Section> pt = evalSection(e->sym, e->section);
    if (!pt) return std::nullopt;
    if (pt->count() != 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, *curStmt_,
           "element reference " + secOf(e->sym, *pt) +
               " is not a single point");
      return std::nullopt;
    }
    const SymState& ss = sym(e->sym);
    if (ss.top) return std::nullopt;
    if (ruleDepth_ > 0) {
      // Inside a compute rule an unowned value reference makes the whole
      // rule false (no diagnostic); a transitional read is still an error.
      if (!ss.owned.covers(*pt)) throw UnownedRef{};
      if (pendingOverlaps(ss.pending, *pt)) {
        diag(DiagKind::NotAccessible, Severity::Error, *curStmt_,
             "compute rule reads transitional section " +
                 secOf(e->sym, *pt) + " (overlaps an uncompleted receive)");
      }
      return std::nullopt;  // element values are not tracked
    }
    requireAccessible(DiagKind::NotAccessible, *curStmt_, e->sym, *pt,
                      "read of");
    return std::nullopt;
  }

  AbsVal evalBin(const ExprPtr& e) {
    using il::BinOp;
    if (e->op == BinOp::And || e->op == BinOp::Or) {
      const bool isAnd = e->op == BinOp::And;
      std::optional<bool> a = knownBool(evalValue(e->lhs));
      if (a.has_value()) {
        // Mirror the interpreter's short-circuit: the rhs (and any await
        // side effect in it) is only evaluated when the lhs lets it run.
        if (isAnd && !*a) return Value(false);
        if (!isAnd && *a) return Value(true);
        std::optional<bool> b = knownBool(evalValue(e->rhs));
        if (!b) return std::nullopt;
        return Value(*b);
      }
      // lhs unknown: the rhs may or may not execute. An UnownedRef inside
      // it is no longer a definite rule-falsifier.
      std::optional<bool> b;
      try {
        b = knownBool(evalValue(e->rhs));
      } catch (const UnownedRef&) {
        b = std::nullopt;
      }
      if (b.has_value() && *b == isAnd) return std::nullopt;  // decided by lhs
      if (!b.has_value()) return std::nullopt;
      return Value(*b);  // absorbing element: false&&x / true||x
    }
    AbsVal av = evalValue(e->lhs);
    AbsVal bv = evalValue(e->rhs);
    if (!av || !bv) return std::nullopt;
    const Value& a = *av;
    const Value& b = *bv;
    const bool bothInt =
        std::holds_alternative<Index>(a) && std::holds_alternative<Index>(b);
    switch (e->op) {
      // Same wrap/trap semantics as both execution backends (see
      // xdp/support/arith.hpp); would-trap divisions become "unknown"
      // instead of faulting the analysis.
      case BinOp::Add:
        return bothInt
                   ? Value(arith::wrapAdd(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asRealV(a) + asRealV(b));
      case BinOp::Sub:
        return bothInt
                   ? Value(arith::wrapSub(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asRealV(a) - asRealV(b));
      case BinOp::Mul:
        return bothInt
                   ? Value(arith::wrapMul(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asRealV(a) * asRealV(b));
      case BinOp::Div: {
        if (bothInt) {
          if (auto q = arith::tryFoldDiv(std::get<Index>(a),
                                         std::get<Index>(b)))
            return Value(*q);
          return std::nullopt;
        }
        return Value(asRealV(a) / asRealV(b));
      }
      case BinOp::Mod: {
        if (!bothInt) return std::nullopt;
        if (auto r = arith::tryFoldMod(std::get<Index>(a), std::get<Index>(b)))
          return Value(*r);
        return std::nullopt;
      }
      case BinOp::Lt:
        return Value(asRealV(a) < asRealV(b));
      case BinOp::Le:
        return Value(asRealV(a) <= asRealV(b));
      case BinOp::Gt:
        return Value(asRealV(a) > asRealV(b));
      case BinOp::Ge:
        return Value(asRealV(a) >= asRealV(b));
      case BinOp::Eq:
        return Value(asRealV(a) == asRealV(b));
      case BinOp::Ne:
        return Value(asRealV(a) != asRealV(b));
      case BinOp::Min:
        return bothInt
                   ? Value(std::min(std::get<Index>(a), std::get<Index>(b)))
                   : Value(std::min(asRealV(a), asRealV(b)));
      case BinOp::Max:
        return bothInt
                   ? Value(std::max(std::get<Index>(a), std::get<Index>(b)))
                   : Value(std::max(asRealV(a), asRealV(b)));
      case BinOp::And:
      case BinOp::Or:
        break;  // handled above
    }
    return std::nullopt;
  }

  // --- section evaluation ----------------------------------------------

  static Section emptyOfRank(int rank) {
    std::vector<Triplet> dims;
    dims.emplace_back();  // one empty triplet makes the section empty
    for (int d = 1; d < rank; ++d) dims.emplace_back(0, 0);
    return rank == 0 ? Section{Triplet()} : Section(dims);
  }

  std::optional<Section> evalSection(int symbol, const SectionExprPtr& se) {
    if (!se) return std::nullopt;
    try {
      switch (se->kind) {
        case SecExprKind::Literal: {
          std::array<Triplet, sec::kMaxRank> dims{};
          int rank = 0;
          for (const auto& t : se->dims) {
            std::optional<Index> lb = knownInt(evalValue(t.lb));
            if (!lb) return std::nullopt;
            Triplet tr(*lb);  // a point unless the bounds say otherwise
            if (t.ub || t.stride) {
              std::optional<Index> ub =
                  t.ub ? knownInt(evalValue(t.ub)) : lb;
              std::optional<Index> stride =
                  t.stride ? knownInt(evalValue(t.stride))
                           : std::optional<Index>(1);
              if (!ub || !stride) return std::nullopt;
              tr = Triplet(*lb, *ub, *stride);
            }
            if (rank < sec::kMaxRank) dims[static_cast<std::size_t>(rank)] = tr;
            ++rank;
          }
          // Beyond kMaxRank the Section constructor raises, as the
          // runtime would.
          return Section(rank, dims);
        }
        case SecExprKind::LocalPart:
          return partOf(se->sym >= 0 ? se->sym : symbol, pid_,
                        se->distOverride);
        case SecExprKind::OwnerPart: {
          std::optional<Index> pid = knownInt(evalValue(se->pid));
          if (!pid || *pid < 0) return std::nullopt;
          return partOf(se->sym >= 0 ? se->sym : symbol,
                        static_cast<int>(*pid), se->distOverride);
        }
        case SecExprKind::Intersect: {
          std::optional<Section> a = evalSection(symbol, se->a);
          std::optional<Section> b = evalSection(symbol, se->b);
          if (!a || !b) return std::nullopt;
          if (a->empty() || b->empty() || a->rank() != b->rank())
            return emptyOfRank(a->rank());
          return Section::intersect(*a, *b);
        }
      }
    } catch (const Error&) {
      return std::nullopt;  // the runtime would XDP_CHECK on this shape
    }
    return std::nullopt;
  }

  std::optional<Section> partOf(int symbol, int pid,
                                const std::optional<dist::Distribution>& over) {
    if (opts_.obliviousPlacement) {
      res_.exhaustive = false;  // partitions are placement-dependent
      return std::nullopt;
    }
    const dist::Distribution& d = over ? *over : prog_.decl(symbol).dist;
    const RegionList& part = sh_.localPart(d, pid);
    if (part.empty()) return emptyOfRank(d.rank());
    if (part.sections().size() != 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, *curStmt_,
           "partition of '" + symName(symbol) +
               "' is not a single section (CYCLIC(k) local parts cannot "
               "be named by one section expression)");
      return std::nullopt;
    }
    return part.sections()[0];
  }

  // --- await ordering --------------------------------------------------

  /// Only an unconditional initiation that follows a trivial await can
  /// trip checkAwaitOrdering, so the others are not kept.
  void noteRecvInit(int symbol, const Section& sec, const SrcLoc& loc) {
    if (awaits_.empty() || condDepth_ > 0) return;
    recvInits_.push_back(RecvInit{symbol, sec, seq_, loc});
  }

  /// A program has few await statements, and each completing instance
  /// lands here, so a scan beats hashing.
  void noteCompletingAwait(const Stmt* s) {
    if (std::find(completingAwaits_.begin(), completingAwaits_.end(), s) ==
        completingAwaits_.end())
      completingAwaits_.push_back(s);
  }

  /// Warns per statement, so a statement that completed a pending
  /// receive on some instance synchronizes with something and is left
  /// alone, however many of its other instances were trivial (a ring's
  /// first await finds the processor's own block).
  void checkAwaitOrdering() {
    for (const AwaitRec& a : awaits_) {
      if (a.conditional ||
          std::find(completingAwaits_.begin(), completingAwaits_.end(),
                    a.stmt.get()) != completingAwaits_.end())
        continue;
      for (const RecvInit& r : recvInits_) {
        if (r.seq <= a.seq || r.sym != a.sym) continue;
        if (!meets(r.sec, a.sec)) continue;
        std::string at = r.loc.valid()
                             ? " (initiated at line " +
                                   std::to_string(r.loc.line) + ")"
                             : "";
        diag(DiagKind::AwaitMismatch, Severity::Warning, a.stmt,
             "await of section " + secOf(a.sym, a.sec) +
                 " precedes the receive that initiates it" + at +
                 ": the await synchronizes with nothing");
        break;
      }
    }
  }

  const Program& prog_;
  const VerifyOptions& opts_;
  Shared& sh_;
  VerifyResult& res_;
  int pid_;
  Frame frame_;
  int guardDepth_ = 0;
  int ruleDepth_ = 0;
  int condDepth_ = 0;
  int seq_ = 0;
  const StmtPtr* curStmt_ = nullptr;
  std::vector<RecvInit> recvInits_;
  std::vector<AwaitRec> awaits_;
  /// Await statements some instance of which completed a pending receive.
  std::vector<const Stmt*> completingAwaits_;
  std::vector<Region> regions_;
  std::vector<Save<Slot>> slotTrail_;
  std::vector<Save<SymState>> symTrail_;
  std::vector<int> slotStamp_;
  std::vector<int> symStamp_;
  int lastRegionId_ = 0;
};

// --- communication matching --------------------------------------------------

/// Sends and receives of one (class, name symbol, name section) group.
struct Group {
  std::vector<const Event*> sends;
  std::vector<const Event*> recvs;
  bool conditional = false;  ///< some event was recorded conditionally
};

/// Hash of the group key (class, symbol, triplets).
std::uint64_t groupHash(const Event& e) {
  std::uint64_t h = static_cast<std::uint64_t>(e.cls);
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(e.sym));
  mix(static_cast<std::uint64_t>(e.name.rank()));
  for (int d = 0; d < e.name.rank(); ++d) {
    const Triplet& t = e.name.dim(d);
    mix(static_cast<std::uint64_t>(t.lb()));
    mix(static_cast<std::uint64_t>(t.ub()));
    mix(static_cast<std::uint64_t>(t.stride()));
  }
  return h;
}

bool sameGroup(const Event& a, const Event& b) {
  return a.cls == b.cls && a.sym == b.sym && sameShape(a.name, b.name);
}

/// Groups are keyed by their first event, hashed and compared on the
/// group key only.
struct GroupKeyHash {
  std::size_t operator()(const Event* e) const {
    return static_cast<std::size_t>(groupHash(*e));
  }
};
struct GroupKeyEq {
  bool operator()(const Event* a, const Event* b) const {
    return sameGroup(*a, *b);
  }
};

bool canServe(const Event& send, const Event& recv) {
  return send.dest == kAnyDest || send.dest == recv.pid;
}

/// Which sends and receives of `g` get paired. The diagnostics name the
/// unpaired events, so the choice among maximum matchings is part of the
/// output: it is the one Kuhn's augmenting-path algorithm finds when it
/// takes the sends in index order and tries receives in index order.
void matchGroup(const Group& g, std::vector<char>& sendMatched,
                std::vector<char>& recvMatched) {
  const std::size_t n = g.sends.size(), m = g.recvs.size();
  sendMatched.assign(n, 0);
  recvMatched.assign(m, 0);
  const int recvPid = m ? g.recvs[0]->pid : kNoDest;
  const bool onePid = std::all_of(
      g.recvs.begin(), g.recvs.end(),
      [&](const Event* r) { return r->pid == recvPid; });
  const bool complete =
      std::all_of(g.sends.begin(), g.sends.end(), [&](const Event* s) {
        return s->dest == kAnyDest || (onePid && s->dest == recvPid);
      });
  if (complete) {
    // Every send can serve every receive (a rendezvous group): each
    // augmenting search ends at the first free receive, so Kuhn pairs
    // the first min(n, m) of each side.
    const std::size_t k = std::min(n, m);
    std::fill(sendMatched.begin(), sendMatched.begin() + k, 1);
    std::fill(recvMatched.begin(), recvMatched.begin() + k, 1);
    return;
  }
  if (std::none_of(g.sends.begin(), g.sends.end(),
                   [](const Event* s) { return s->dest == kAnyDest; })) {
    // Every send is bound: it serves exactly the receives on its
    // destination pid, so the group splits by pid into complete bipartite
    // parts (kNoDest sends serve none). Kuhn's search never leaves a part,
    // and within one it pairs the first min(sends, receives) of each side.
    int pids = 0;
    for (const Event* r : g.recvs) pids = std::max(pids, r->pid + 1);
    std::vector<std::size_t> recvsLeft(static_cast<std::size_t>(pids), 0);
    std::vector<std::size_t> sendsLeft(static_cast<std::size_t>(pids), 0);
    for (const Event* r : g.recvs) ++recvsLeft[static_cast<std::size_t>(r->pid)];
    for (const Event* s : g.sends)
      if (s->dest >= 0 && s->dest < pids)
        ++sendsLeft[static_cast<std::size_t>(s->dest)];
    for (std::size_t si = 0; si < n; ++si) {
      const int d = g.sends[si]->dest;
      if (d < 0 || d >= pids || recvsLeft[static_cast<std::size_t>(d)] == 0)
        continue;
      --recvsLeft[static_cast<std::size_t>(d)];
      sendMatched[si] = 1;
    }
    for (std::size_t ri = 0; ri < m; ++ri) {
      std::size_t& left = sendsLeft[static_cast<std::size_t>(g.recvs[ri]->pid)];
      if (left == 0) continue;
      --left;
      recvMatched[ri] = 1;
    }
    return;
  }
  // General case: Kuhn's algorithm with an explicit stack.
  struct Step {
    std::size_t send;
    std::size_t next = 0;  ///< first receive not yet tried
    std::size_t recv = 0;  ///< receive being tried
  };
  std::vector<int> recvOf(m, -1);
  std::vector<std::size_t> visitedBy(m, n);  // root of the last visit
  std::vector<Step> path;
  for (std::size_t root = 0; root < n; ++root) {
    path.assign(1, Step{root});
    bool found = false;
    while (!path.empty()) {
      Step& f = path.back();
      std::size_t ri = f.next;
      while (ri < m && (visitedBy[ri] == root ||
                        !canServe(*g.sends[f.send], *g.recvs[ri])))
        ++ri;
      if (ri == m) {
        path.pop_back();  // dead end: the parent tries its next receive
        continue;
      }
      visitedBy[ri] = root;
      f.next = ri + 1;
      f.recv = ri;
      if (recvOf[ri] < 0) {
        found = true;
        break;
      }
      path.push_back(Step{static_cast<std::size_t>(recvOf[ri])});
    }
    if (found)
      for (const Step& f : path) recvOf[f.recv] = static_cast<int>(f.send);
  }
  for (std::size_t ri = 0; ri < m; ++ri) {
    if (recvOf[ri] < 0) continue;
    recvMatched[ri] = 1;
    sendMatched[static_cast<std::size_t>(recvOf[ri])] = 1;
  }
}

/// Unmatched-send and orphan-receive diagnostics of one group, one per
/// statement.
void reportGroup(const Program& prog, const Group& g,
                 const std::vector<char>& sendMatched,
                 const std::vector<char>& recvMatched,
                 std::vector<Diagnostic>& out) {
  auto push = [&](const Event& ev, DiagKind kind, const std::string& msg) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.kind = kind;
    d.pid = ev.pid;
    d.stmt = *ev.stmt;
    d.loc = d.stmt ? d.stmt->loc : SrcLoc{};
    d.message = msg;
    out.push_back(std::move(d));
  };
  std::unordered_map<const Stmt*, std::size_t> unmatchedOf;
  for (std::size_t si = 0; si < g.sends.size(); ++si)
    if (!sendMatched[si]) ++unmatchedOf[g.sends[si]->stmt->get()];
  std::unordered_set<const Stmt*> reported;
  for (std::size_t si = 0; si < g.sends.size(); ++si) {
    const Event& ev = *g.sends[si];
    if (sendMatched[si] || !reported.insert(ev.stmt->get()).second) continue;
    const std::size_t extra = unmatchedOf[ev.stmt->get()];
    std::string times =
        extra > 1 ? " (" + std::to_string(extra) + " times)" : "";
    push(ev, DiagKind::UnmatchedSend,
         "send of " + ev.name.str() + " of '" + prog.decl(ev.sym).name +
             "' has no matching receive" + times +
             ": the message would go undelivered");
  }
  reported.clear();
  for (std::size_t ri = 0; ri < g.recvs.size(); ++ri) {
    const Event& ev = *g.recvs[ri];
    if (recvMatched[ri] || !reported.insert(ev.stmt->get()).second) continue;
    push(ev, DiagKind::OrphanRecv,
         "receive of " + ev.name.str() + " of '" + prog.decl(ev.sym).name +
             "' has no matching send: it never completes and awaiting "
             "it deadlocks");
  }
}

/// Maximum bipartite matching between the sends and receives of each
/// (class, symbol, name-section) group, honoring bound destinations.
void matchEvents(const Program& prog, const Shared& sh, VerifyResult& res) {
  // Groups in first-seen order, events in program order within each.
  std::unordered_map<const Event*, std::size_t, GroupKeyHash, GroupKeyEq>
      groupOf;
  std::vector<Group> groups;
  for (const Event& ev : sh.events) {
    if (sh.poisonedSyms.count(ev.sym)) continue;
    auto [it, fresh] = groupOf.emplace(&ev, groups.size());
    if (fresh) groups.emplace_back();
    Group& g = groups[it->second];
    (ev.isSend ? g.sends : g.recvs).push_back(&ev);
    g.conditional = g.conditional || ev.conditional;
  }
  // Reporting groups are emitted in the order of their
  // "<class>#<symbol>#<section>" key, which fixes the order of equally
  // placed diagnostics.
  std::vector<std::pair<std::string, std::vector<Diagnostic>>> reports;
  std::vector<char> sendMatched, recvMatched;
  for (const Group& g : groups) {
    if (g.conditional) continue;  // cannot reason exactly
    matchGroup(g, sendMatched, recvMatched);
    std::vector<Diagnostic> diags;
    reportGroup(prog, g, sendMatched, recvMatched, diags);
    if (diags.empty()) continue;
    const Event& ev = g.sends.empty() ? *g.recvs.front() : *g.sends.front();
    reports.emplace_back(std::to_string(static_cast<int>(ev.cls)) + "#" +
                             std::to_string(ev.sym) + "#" + ev.name.str(),
                         std::move(diags));
  }
  std::sort(reports.begin(), reports.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, diags] : reports)
    for (Diagnostic& d : diags) res.diagnostics.push_back(std::move(d));
}

}  // namespace

// --- public API ---------------------------------------------------------------

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* kindName(DiagKind k) {
  switch (k) {
    case DiagKind::NotAccessible: return "not-accessible";
    case DiagKind::SendUnowned: return "send-unowned";
    case DiagKind::DoubleOwnership: return "double-ownership";
    case DiagKind::UnmatchedSend: return "unmatched-send";
    case DiagKind::OrphanRecv: return "orphan-recv";
    case DiagKind::AwaitMismatch: return "await-mismatch";
    case DiagKind::TransferMismatch: return "transfer-mismatch";
  }
  return "?";
}

std::size_t VerifyResult::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == s) ++n;
  return n;
}

VerifyResult verifyProgram(const il::Program& prog,
                           const VerifyOptions& opts) {
  VerifyResult res;
  XDP_CHECK(prog.body != nullptr, "program has no body");
  XDP_CHECK(prog.nprocs > 0, "program needs at least one processor");
  Shared sh(prog);
  for (int pid = 0; pid < prog.nprocs; ++pid) {
    PidExec ex(prog, opts, sh, res, pid);
    ex.run();
  }
  if (opts.matchComm && !sh.incomplete) matchEvents(prog, sh, res);
  res.stmtsAnalyzed = sh.steps;
  std::stable_sort(res.diagnostics.begin(), res.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.line != b.loc.line)
                       return a.loc.line < b.loc.line;
                     if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
                     return a.pid < b.pid;
                   });
  return res;
}

std::string formatDiagnostic(const il::Program& prog, const Diagnostic& d,
                             const std::string& file) {
  std::ostringstream os;
  if (d.loc.valid()) {
    if (!file.empty()) os << file << ":";
    os << d.loc.line << ":" << d.loc.col << ": ";
  } else if (!file.empty()) {
    os << file << ": ";
  }
  os << severityName(d.severity) << ": " << d.message << " ["
     << kindName(d.kind);
  if (d.pid >= 0) os << ", p" << d.pid;
  os << "]";
  if (!d.loc.valid() && d.stmt) {
    std::string text = il::printStmt(prog, d.stmt);
    std::size_t nl = text.find('\n');
    if (nl != std::string::npos) text = text.substr(0, nl) + " ...";
    os << "\n    in: " << text;
  }
  return os.str();
}

std::string formatDiagnostics(const il::Program& prog, const VerifyResult& r,
                              const std::string& file) {
  std::string out;
  for (const Diagnostic& d : r.diagnostics) {
    out += formatDiagnostic(prog, d, file);
    out += '\n';
  }
  return out;
}

std::string diagnosticsJson(const il::Program& prog, const VerifyResult& r,
                            const std::string& file) {
  (void)prog;
  std::ostringstream os;
  os << "{\"file\":" << json::str(file) << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
    if (i) os << ",";
    const Diagnostic& d = r.diagnostics[i];
    os << "{\"class\":" << json::str(kindName(d.kind))
       << ",\"severity\":" << json::str(severityName(d.severity))
       << ",\"file\":" << json::str(file) << ",\"line\":" << d.loc.line
       << ",\"col\":" << d.loc.col << ",\"pid\":" << d.pid
       << ",\"message\":" << json::str(d.message) << "}";
  }
  os << "],\"errors\":" << r.errors()
     << ",\"warnings\":" << r.count(Severity::Warning)
     << ",\"exhaustive\":" << (r.exhaustive ? "true" : "false")
     << ",\"stmts_analyzed\":" << r.stmtsAnalyzed << "}";
  return os.str();
}

}  // namespace xdp::analysis
