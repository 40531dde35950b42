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
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <tuple>
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
  if (s.isPoint()) {
    const Point pt = s.origin();
    return std::any_of(pending.begin(), pending.end(),
                       [&](const Section& p) { return p.contains(pt); });
  }
  return std::any_of(pending.begin(), pending.end(),
                     [&](const Section& p) { return meets(p, s); });
}

void completePendingOver(std::vector<Section>& pending, const Section& s) {
  if (s.isPoint()) {
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
  /// A summarized transfer (DESIGN.md §7): every point of `name` stands
  /// for `copies` messages of its own. Otherwise the event is one message
  /// whose name is the whole section.
  bool perPoint = false;
  Index copies = 1;
};

/// Unconditional receive initiation viewed from the destination side, for
/// the await-before-initiate ordering check.
struct RecvInit {
  int sym = -1;
  Section sec;
  std::int64_t seq = 0;
  SrcLoc loc;
};

/// An await that found the awaited section fully accessible with nothing
/// pending ("trivial"): legal, but suspicious if a *later* receive on the
/// same processor initiates the very data it was meant to wait for.
struct AwaitRec {
  int sym = -1;
  Section sec;
  std::int64_t seq = 0;
  bool conditional = false;
  StmtPtr stmt;
};

// --- loop shapes ------------------------------------------------------------

/// One item of a summarizable loop body: an iown/accessible guard of a
/// literal point over simple statements, or a run of unguarded simple
/// statements.
struct LoopItem {
  const StmtPtr* guard = nullptr;  ///< the Guarded statement, if any
  std::uint64_t nodes = 0;  ///< steps a running guarded instance adds
  std::vector<const StmtPtr*> stmts;  ///< simple statements, in order
};

/// A loop body the summary can take (DESIGN.md §7 "Loop summaries").
struct LoopShape {
  std::uint64_t perIter = 0;  ///< steps every iteration is charged
  std::vector<LoopItem> items;
  bool transfers = false;  ///< some statement sends or receives
};

struct Shared {
  Shared(const Program& prog, bool summarizeTransfers)
      : scalars(prog), summarizeTransfers(summarizeTransfers) {}

  il::ScalarIds scalars;
  /// False on the re-run that answers for events that did not cancel:
  /// loops that send or receive then unroll.
  bool summarizeTransfers;
  std::uint64_t steps = 0;
  std::vector<Event> events;   ///< recorded only when matchComm is set
  std::set<int> poisonedSyms;  ///< name symbol had an unevaluable section
  std::set<std::pair<int, const Stmt*>> seenDiags;
  bool incomplete = false;  ///< some pid's abstract run aborted
  /// Local parts per (distribution, pid), computed on first use, with
  /// block-cyclic dimensions held as strided triplets so their size does
  /// not grow with the array.
  std::map<std::pair<const dist::Distribution*, int>, RegionList> parts;
  /// The summary's shape decision per loop statement (nullopt: unroll).
  std::unordered_map<const Stmt*, std::optional<LoopShape>> shapes;

  const RegionList& localPart(const dist::Distribution& d, int pid) {
    const auto key = std::make_pair(&d, pid);
    auto it = parts.find(key);
    if (it == parts.end())
      it = parts.emplace(key, d.localPart(pid, /*compact=*/true)).first;
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

  /// Put back every slot and symbol state the innermost region wrote.
  void undoRegion() {
    const Region& r = regions_.back();
    for (std::size_t k = r.slotMark; k < slotTrail_.size(); ++k)
      frame_.slots[static_cast<std::size_t>(slotTrail_[k].index)] =
          slotTrail_[k].value;
    for (std::size_t k = r.symMark; k < symTrail_.size(); ++k)
      frame_.syms[static_cast<std::size_t>(symTrail_[k].index)] =
          symTrail_[k].value;
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
    if (!pt->isPoint()) {
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
  // A loop body that is a run of items -- an iown/accessible guard of a
  // literal point over simple statements, or a run of unguarded simple
  // statements -- is verified a section at a time (paper §3.1). Each item runs once per
  // iteration set: a guard's owned pieces are pulled back to iteration
  // sets, each set is pushed through every affine subscript, and each
  // image gets one covers and one pending-overlap test, while operands
  // that do not depend on the loop variable are evaluated and applied
  // once. An item must leave the state as it found it; then every
  // instance of every item meets the loop-entry state and the order of
  // the iterations cannot matter. Sends and receives become section
  // events, sends one aggregated cost event per statement. The summary is
  // taken only when every test passes, so it never has a diagnostic to
  // raise; any other loop unrolls.

  /// a * v + b in the loop variable v.
  struct Affine {
    Index a = 0;
    Index b = 0;
  };

  using AffinePoint = std::array<Affine, sec::kMaxRank>;

  static bool isLiteralPoint(const SectionExprPtr& se) {
    if (!se || se->kind != SecExprKind::Literal || se->dims.empty() ||
        se->dims.size() > static_cast<std::size_t>(sec::kMaxRank))
      return false;
    return std::all_of(se->dims.begin(), se->dims.end(),
                       [](const il::TripletExpr& t) {
                         return t.lb && !t.ub && !t.stride;
                       });
  }

  /// True iff `e` does not read the loop variable `var` and evaluates
  /// without querying or changing ownership state.
  bool invariant(const ExprPtr& e, int var) const {
    if (!e) return true;
    switch (e->kind) {
      case ExprKind::IntConst:
      case ExprKind::RealConst:
      case ExprKind::MyPid:
      case ExprKind::NProcs:
        return true;
      case ExprKind::ScalarRef:
        return sh_.scalars.ofRef(e.get()) != var;
      case ExprKind::Bin:
        return invariant(e->lhs, var) && invariant(e->rhs, var);
      case ExprKind::Neg:
      case ExprKind::Not:
        return invariant(e->lhs, var);
      default:
        return false;
    }
  }

  bool invariantSection(const SectionExprPtr& se, int var) const {
    if (!se || se->kind != SecExprKind::Literal || se->dims.empty() ||
        se->dims.size() > static_cast<std::size_t>(sec::kMaxRank))
      return false;
    return std::all_of(se->dims.begin(), se->dims.end(),
                       [&](const il::TripletExpr& t) {
                         return t.lb && invariant(t.lb, var) &&
                                invariant(t.ub, var) &&
                                invariant(t.stride, var);
                       });
  }

  /// True iff every element read of `e` names a literal point and nothing
  /// else in it queries or changes ownership state.
  static bool pointReads(const ExprPtr& e) {
    if (!e) return true;
    switch (e->kind) {
      case ExprKind::IntConst:
      case ExprKind::RealConst:
      case ExprKind::ScalarRef:
      case ExprKind::MyPid:
      case ExprKind::NProcs:
        return true;
      case ExprKind::Bin:
        return pointReads(e->lhs) && pointReads(e->rhs);
      case ExprKind::Neg:
      case ExprKind::Not:
        return pointReads(e->lhs);
      case ExprKind::Elem:
        return isLiteralPoint(e->section);
      default:
        return false;
    }
  }

  template <class Fn>
  static void forEachRead(const ExprPtr& e, Fn& fn) {
    if (!e) return;
    if (e->kind == ExprKind::Elem) {
      fn(*e);
      return;
    }
    forEachRead(e->lhs, fn);
    forEachRead(e->rhs, fn);
  }

  /// A statement the summary runs at section granularity: an element
  /// assignment of literal points, a data send of a literal point (bound,
  /// if at all, to invariant pids or to the owner of a literal point), a
  /// data receive of a literal point into an invariant section, or an
  /// await of an invariant section.
  bool simpleStmt(const Stmt& s, int var, LoopShape& shape) const {
    switch (s.kind) {
      case StmtKind::ElemAssign:
        return isLiteralPoint(s.lhs) && pointReads(s.rhs);
      case StmtKind::SendData:
        shape.transfers = true;
        if (!isLiteralPoint(s.lhs)) return false;
        switch (s.dest.kind) {
          case DestSpec::Kind::None:
            return true;
          case DestSpec::Kind::Pids:
            return std::all_of(s.dest.pids.begin(), s.dest.pids.end(),
                               [&](const ExprPtr& e) {
                                 return invariant(e, var);
                               });
          case DestSpec::Kind::OwnerOf:
            return isLiteralPoint(s.dest.section);
        }
        return false;
      case StmtKind::RecvData:
        shape.transfers = true;
        return invariantSection(s.lhs, var) && isLiteralPoint(s.sec2);
      case StmtKind::Await:
        return invariantSection(s.lhs, var);
      default:
        return false;
    }
  }

  /// A guard body: blocks and simple statements, counted as unrolling
  /// charges them.
  bool collectGuardBody(const StmtPtr& s, int var, LoopShape& shape,
                        LoopItem& item) const {
    if (!s) return true;
    ++item.nodes;
    if (s->kind == StmtKind::Block) {
      for (const auto& c : s->stmts)
        if (!collectGuardBody(c, var, shape, item)) return false;
      return true;
    }
    if (!simpleStmt(*s, var, shape)) return false;
    item.stmts.push_back(&s);
    return true;
  }

  /// A loop body through its blocks, as a run of items.
  bool collectItems(const StmtPtr& s, int var, LoopShape& shape) const {
    if (!s) return true;
    ++shape.perIter;
    if (s->kind == StmtKind::Block) {
      for (const auto& c : s->stmts)
        if (!collectItems(c, var, shape)) return false;
      return true;
    }
    if (s->kind != StmtKind::Guarded) {
      // Unguarded statements in a row run on the same iterations, so they
      // form one item (a receive and its await leave the state as found).
      if (!simpleStmt(*s, var, shape)) return false;
      if (shape.items.empty() || shape.items.back().guard)
        shape.items.emplace_back();
      shape.items.back().stmts.push_back(&s);
      return true;
    }
    const ExprPtr& rule = s->rule;
    if (!rule ||
        (rule->kind != ExprKind::Iown && rule->kind != ExprKind::Accessible) ||
        !isLiteralPoint(rule->section))
      return false;
    LoopItem item;
    item.guard = &s;
    if (!collectGuardBody(s->body, var, shape, item)) return false;
    shape.items.push_back(std::move(item));
    return true;
  }

  /// The summary's shape of `loop`, decided once per statement and run.
  const LoopShape* shapeOf(const StmtPtr& loop) {
    auto [it, fresh] = sh_.shapes.try_emplace(loop.get());
    if (fresh) {
      LoopShape shape;
      if (collectItems(loop->body, bindOf(loop), shape))
        it->second = std::move(shape);
    }
    return it->second ? &*it->second : nullptr;
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
                   AffinePoint& out) const {
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
      const AffinePoint& f, int rank,
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

  /// One loop execution under summary: the loop, and what running its
  /// items records, held back until every item has passed. One object per
  /// executor is reused, so a summary allocates nothing in steady state.
  struct Summary {
    Triplet loop;
    int var = -1;
    std::vector<Triplet> sets;      ///< every item's iterations, in order
    std::vector<std::size_t> ends;  ///< per item: the end of its sets
    std::vector<char> conds;        ///< per item: its guard is undecidable
    unsigned __int128 steps = 0;    ///< steps of the guarded instances
    std::int64_t seq = 0;           ///< sends, receives and awaits run
    bool inexact = false;
    std::vector<Event> events;
    std::vector<CostEvent> costs;
    std::vector<const Stmt*> completing;  ///< awaits that completed

    void reset(const Triplet& l, int v) {
      loop = l;
      var = v;
      sets.clear();
      ends.clear();
      conds.clear();
      steps = 0;
      seq = 0;
      inexact = false;
      events.clear();
      costs.clear();
      completing.clear();
    }

    std::span<const Triplet> setsOf(std::size_t item) const {
      const std::size_t first = item ? ends[item - 1] : 0;
      return {sets.data() + first, ends[item] - first};
    }
  };

  /// The points a literal point names over the iterations `it`: their
  /// bounding section, whether that is exactly the points named (at most
  /// one subscript varies), and how many iterations name each point.
  struct Image {
    Section hull;
    bool exact = false;
    Index copies = 1;
  };

  std::optional<Image> imageOf(const il::SectionExpr& se, const Summary& sum,
                               const Triplet& it) const {
    AffinePoint f{};
    if (!pointAffine(se, sum.var, sum.loop.lb(), sum.loop.ub(), f))
      return std::nullopt;
    const int rank = static_cast<int>(se.dims.size());
    std::optional<Section> hull = hullOf(f, rank, it);
    if (!hull) return std::nullopt;
    const auto varying = std::count_if(
        f.begin(), f.begin() + rank, [](const Affine& m) { return m.a != 0; });
    return Image{*hull, varying <= 1, varying == 0 ? it.count() : 1};
  }

  /// Call fn(t) for each piece of `region`, with t the iterations of `it`
  /// whose point under `f` lies in that piece. False when a piece's rank
  /// differs or an image leaves Index.
  template <class Fn>
  bool pullBack(const AffinePoint& f, int rank, const RegionList& region,
                const Summary& sum, const Triplet& it, Fn&& fn) const {
    for (int d = 0; d < rank; ++d)
      if (f[d].a != 0 &&
          !Triplet::affineImageFits(f[d].a, f[d].b, sum.loop.lb(),
                                    sum.loop.ub(), sum.loop.stride()))
        return false;
    for (const Section& piece : region.sections())
      if (piece.rank() != rank) return false;
    const std::optional<Section> hull = hullOf(f, rank, it);
    if (!hull) return false;
    for (const Section& piece : region.intersect(*hull)) {
      Triplet t = it;
      for (int d = 0; d < rank && !t.empty(); ++d)
        if (f[d].a != 0)
          t = Triplet::intersect(
              t, piece.dim(d).affinePreimage(f[d].a, f[d].b));
      if (!t.empty()) fn(t);
    }
    return true;
  }

  /// The iterations that run `item`: all of them, or its guard's owned
  /// pieces pulled back through the guard's subscripts. A guard on a Top
  /// array is undecidable on every iteration: `cond` is set and the item
  /// runs conditionally over the whole loop, as unrolling runs it.
  bool itemSets(const LoopItem& item, const Summary& sum,
                std::vector<Triplet>& sets, bool& cond) const {
    cond = false;
    if (!item.guard) {
      sets.push_back(sum.loop);
      return true;
    }
    const il::Expr& rule = *(*item.guard)->rule;
    const int rank = static_cast<int>(rule.section->dims.size());
    AffinePoint f{};
    if (!pointAffine(*rule.section, sum.var, sum.loop.lb(), sum.loop.ub(), f))
      return false;
    const SymState& g = sym(rule.sym);
    if (g.top) {
      cond = true;
      sets.push_back(sum.loop);
      return true;
    }
    if (rule.kind == ExprKind::Accessible && !g.pending.empty()) return false;
    return pullBack(f, rank, g.owned, sum, sum.loop,
                    [&](const Triplet& t) { sets.push_back(t); });
  }

  /// True iff every point of `img` is provably Accessible, or the state is
  /// Top (where unrolling is silent too).
  bool accessibleAll(int symbol, const Section& img) const {
    const SymState& ss = sym(symbol);
    return ss.top ||
           (ss.owned.covers(img) && !pendingOverlaps(ss.pending, img));
  }

  /// Add `messages` to the loop's one cost event of statement `s`.
  bool addCost(Summary& sum, const StmtPtr& s, int symbol, Index messages) {
    if (!opts_.collectCost) return true;
    for (CostEvent& ce : sum.costs)
      if (ce.stmt == s)
        return !__builtin_add_overflow(ce.messages, messages, &ce.messages);
    CostEvent ce;
    ce.pid = pid_;
    ce.sym = symbol;
    ce.stmt = s;
    ce.loc = s->loc;
    ce.cls = CostClass::Data;
    ce.elems = 1;
    ce.messages = messages;
    ce.definite = condDepth_ == 0;
    sum.costs.push_back(std::move(ce));
    return true;
  }

  /// A section event of `s` over the iterations `it`, naming the points
  /// `se` maps them to. False when those points are not one section.
  bool addEvent(Summary& sum, const StmtPtr& s, const il::SectionExpr& se,
                const Triplet& it, int symbol, bool isSend, int dest,
                bool conditional) {
    if (!opts_.matchComm) return true;
    const std::optional<Image> name = imageOf(se, sum, it);
    if (!name || !name->exact) return false;
    Event ev;
    ev.stmt = &s;
    ev.name = name->hull;
    ev.pid = pid_;
    ev.sym = symbol;
    ev.dest = dest;
    ev.isSend = isSend;
    ev.conditional = conditional;
    ev.perPoint = true;
    ev.copies = name->copies;
    sum.events.push_back(std::move(ev));
    return true;
  }

  /// Run simple statement `s` once for the iterations `it`. False when
  /// some instance could raise a diagnostic or leave a record the summary
  /// does not reproduce: the loop then unrolls.
  bool runSimple(const StmtPtr& s, const Triplet& it, Summary& sum) {
    switch (s->kind) {
      case StmtKind::ElemAssign: {
        if (guardDepth_ == 0) return true;  // exempt, as in execElemAssign
        bool ok = true;
        auto check = [&](int symbol, const il::SectionExpr& se) {
          const std::optional<Image> img = imageOf(se, sum, it);
          ok = ok && img && accessibleAll(symbol, img->hull);
        };
        auto read = [&](const il::Expr& e) { check(e.sym, *e.section); };
        forEachRead(s->rhs, read);
        check(s->sym, *s->lhs);
        return ok;
      }
      case StmtKind::SendData:
        return runSend(s, it, sum);
      case StmtKind::RecvData:
        return runRecv(s, it, sum);
      case StmtKind::Await:
        return runAwait(s, it.count(), sum);
      default:
        return false;
    }
  }

  bool runSend(const StmtPtr& s, const Triplet& it, Summary& sum) {
    const std::optional<Image> img = imageOf(*s->lhs, sum, it);
    if (!img || !accessibleAll(s->sym, img->hull)) return false;
    // The iterations per destination; the matcher routes unbound sends.
    std::vector<std::pair<Triplet, int>> dests;
    bool known = true;
    const DestSpec& d = s->dest;
    switch (d.kind) {
      case DestSpec::Kind::None:
        dests.emplace_back(it, kAnyDest);
        break;
      case DestSpec::Kind::Pids:
        if (d.pids.empty()) dests.emplace_back(it, kNoDest);
        for (const auto& e : d.pids) {
          const std::optional<Index> v = knownInt(evalValue(e));
          if (!v || *v < 0 || *v >= prog_.nprocs) return false;
          dests.emplace_back(it, static_cast<int>(*v));
        }
        break;
      case DestSpec::Kind::OwnerOf: {
        if (opts_.obliviousPlacement) {
          sum.inexact = true;  // as in resolveDest
          known = false;
          dests.emplace_back(it, kAnyDest);
          break;
        }
        const dist::Distribution& dd =
            d.distOverride ? *d.distOverride : prog_.decl(d.sym).dist;
        AffinePoint f{};
        if (!pointAffine(*d.section, sum.var, sum.loop.lb(), sum.loop.ub(),
                         f))
          return false;
        const int rank = static_cast<int>(d.section->dims.size());
        Index owned = 0;
        for (int q = 0; q < prog_.nprocs; ++q)
          if (!pullBack(f, rank, sh_.localPart(dd, q), sum, it,
                        [&](const Triplet& t) {
                          owned += t.count();
                          dests.emplace_back(t, q);
                        }))
            return false;
        if (owned != it.count()) return false;  // an owner query fails
        break;
      }
    }
    Index messages = 0;
    if (__builtin_mul_overflow(fanoutOf(*s), it.count(), &messages) ||
        !addCost(sum, s, s->sym, messages))
      return false;
    sum.seq += it.count();
    for (const auto& [t, dest] : dests)
      if (!addEvent(sum, s, *s->lhs, t, s->sym, true, dest,
                    condDepth_ > 0 || !known))
        return false;
    return true;
  }

  bool runRecv(const StmtPtr& s, const Triplet& it, Summary& sum) {
    const std::optional<Section> dst = evalSection(s->sym, s->lhs);
    if (!dst || !imageOf(*s->sec2, sum, it) || !dst->isPoint() ||
        prog_.decl(s->sym).type != prog_.decl(s->sym2).type)
      return false;
    if (!sym(s->sym).top) {
      if (!sym(s->sym).owned.covers(*dst)) return false;
      SymState& ss = symMut(s->sym);
      completePendingOver(ss.pending, *dst);
      ss.pending.push_back(*dst);
    }
    // An initiation only matters to an earlier trivial await of the same
    // section (checkAwaitOrdering); leave those loops to unrolling.
    if (condDepth_ == 0 &&
        std::any_of(awaits_.begin(), awaits_.end(), [&](const AwaitRec& a) {
          return a.sym == s->sym && meets(a.sec, *dst);
        }))
      return false;
    sum.seq += it.count();
    return addEvent(sum, s, *s->sec2, it, s->sym2, false, kAnyDest,
                    condDepth_ > 0);
  }

  bool runAwait(const StmtPtr& s, Index instances, Summary& sum) {
    const std::optional<Section> sec = evalSection(s->sym, s->lhs);
    if (!sec) return false;
    const SymState& ss = sym(s->sym);
    if (sec->empty() || ss.top) return true;
    if (!ss.owned.covers(*sec)) return false;
    if (pendingOverlaps(ss.pending, *sec)) {
      completePendingOver(symMut(s->sym).pending, *sec);
      sum.completing.push_back(s.get());
    } else if (condDepth_ == 0) {
      return false;  // a trivial await leaves a record for later receives
    }
    sum.seq += instances;
    return true;
  }

  /// Run every item over its iteration sets; false as soon as one could
  /// raise a diagnostic or does not leave the state as it found it.
  bool runItems(const LoopShape& shape, Summary& sum) {
    for (const LoopItem& item : shape.items) {
      bool cond = false;
      const std::size_t first = sum.sets.size();
      if (!itemSets(item, sum, sum.sets, cond)) return false;
      sum.ends.push_back(sum.sets.size());
      sum.conds.push_back(cond);
      sum.inexact = sum.inexact || cond;
      condDepth_ += cond;
      guardDepth_ += item.guard != nullptr;
      bool ok = true;
      for (std::size_t k = first; k < sum.sets.size(); ++k) {
        const Triplet it = sum.sets[k];
        sum.steps += static_cast<unsigned __int128>(it.count()) * item.nodes;
        for (const StmtPtr* st : item.stmts)
          if (!(ok = runSimple(*st, it, sum))) break;
        if (!ok || !(ok = !regionChanged())) break;
      }
      condDepth_ -= cond;
      guardDepth_ -= item.guard != nullptr;
      if (!ok) return false;
    }
    return true;
  }

  /// Iterations of `sets` whose value is at most `x`.
  static Index countAtMost(std::span<const Triplet> sets, Index x) {
    Index n = 0;
    for (const Triplet& t : sets)
      if (x >= t.ub())
        n += t.count();
      else if (x >= t.lb())
        n += (x - t.lb()) / t.stride() + 1;
    return n;
  }

  /// Charge the nodes of `s` in unrolled order for iteration `i` of a
  /// summarized loop, counting the simple statements that run in `ran`;
  /// false once `left` steps are spent.
  bool walkIteration(const StmtPtr& s, const LoopShape& shape,
                     const Summary& sum, Index i, std::uint64_t& left,
                     std::unordered_map<const Stmt*, Index>& ran) const {
    if (!s) return true;
    if (left == 0) return false;
    --left;
    if (s->kind == StmtKind::Block) {
      for (const auto& c : s->stmts)
        if (!walkIteration(c, shape, sum, i, left, ran)) return false;
      return true;
    }
    if (s->kind == StmtKind::Guarded) {
      std::size_t j = 0;  // unguarded runs are items too: skip them
      while (!shape.items[j].guard || shape.items[j].guard->get() != s.get())
        ++j;
      const std::span<const Triplet> sets = sum.setsOf(j);
      const bool runs =
          sum.conds[j] || std::any_of(sets.begin(), sets.end(),
                                      [&](const Triplet& t) {
                                        return t.contains(i);
                                      });
      return !runs || walkIteration(s->body, shape, sum, i, left, ran);
    }
    ++ran[s.get()];
    return true;
  }

  /// Statement `s`'s fan-out: one message per listed destination.
  static Index fanoutOf(const Stmt& s) {
    return s.dest.kind == DestSpec::Kind::Pids
               ? static_cast<Index>(s.dest.pids.size())
               : 1;
  }

  /// The loop's charge crosses the step budget, so unrolling stops at its
  /// step room + 1. Every instance passed the summary's checks, so none
  /// before that step raises a diagnostic: record the cost events and
  /// completed awaits of those instances, and stop where unrolling stops.
  [[noreturn]] void stopInside(const StmtPtr& loopStmt, const LoopShape& shape,
                               Summary& sum, std::uint64_t room) {
    using U128 = unsigned __int128;
    const Triplet& loop = sum.loop;
    auto charge = [&](Index k) {  // steps of the first k iterations
      U128 c = U128{static_cast<std::uint64_t>(k)} * shape.perIter;
      if (k == 0) return c;
      const Index x = loop.at(k - 1);
      for (std::size_t j = 0; j < shape.items.size(); ++j)
        c += U128{static_cast<std::uint64_t>(countAtMost(sum.setsOf(j), x))} *
             shape.items[j].nodes;
      return c;
    };
    Index k = 0, hi = loop.count() - 1;  // the iteration the budget ends in
    while (k < hi) {
      const Index mid = k + (hi - k) / 2;
      if (charge(mid + 1) > room)
        hi = mid;
      else
        k = mid + 1;
    }
    std::unordered_map<const Stmt*, Index> ran;
    for (std::size_t j = 0; j < shape.items.size(); ++j)
      for (const StmtPtr* st : shape.items[j].stmts)
        ran[st->get()] = k ? countAtMost(sum.setsOf(j), loop.at(k - 1)) : 0;
    std::uint64_t left = room - static_cast<std::uint64_t>(charge(k));
    walkIteration(loopStmt->body, shape, sum, loop.at(k), left, ran);
    for (CostEvent& ce : sum.costs) {
      const Index n = ran[ce.stmt.get()];
      if (n == 0) continue;
      ce.messages = fanoutOf(*ce.stmt) * n;
      res_.costEvents.push_back(std::move(ce));
    }
    for (const Stmt* a : sum.completing)
      if (ran[a] > 0) noteCompletingAwait(a);
    sh_.steps += room + 1;
    res_.stmtsAnalyzed += room + 1;
    throw BudgetExceeded{};
  }

  /// Verify the loop lb:ub:step of `s` at section granularity. True when
  /// every check passed: the steps, sequence numbers, events and cost
  /// unrolling would produce are recorded and the loop variable holds its
  /// last value. False, with nothing changed, when the loop must unroll.
  bool summarizeLoop(const StmtPtr& s, Index lb, Index ub, Index step) {
    using U128 = unsigned __int128;
    if (lb > ub) return false;
    const LoopShape* shape = shapeOf(s);
    if (!shape || (shape->transfers && !sh_.summarizeTransfers)) return false;
    const auto ustep = static_cast<std::uint64_t>(step);
    const std::uint64_t trips = (static_cast<std::uint64_t>(ub) -
                                 static_cast<std::uint64_t>(lb)) / ustep + 1;
    const std::uint64_t room = opts_.maxSteps - sh_.steps;
    const auto last = static_cast<Index>(static_cast<std::uint64_t>(lb) +
                                         (trips - 1) * ustep);
    if (__int128{last} - lb > std::numeric_limits<Index>::max())
      return false;
    Summary& sum = summary_;
    sum.reset(Triplet(lb, last, step), bindOf(s));
    openRegion();
    const bool ok = runItems(*shape, sum);
    if (!ok) undoRegion();
    closeRegion();
    if (!ok) return false;
    if (U128{trips} * shape->perIter + sum.steps > room)
      stopInside(s, *shape, sum, room);
    const auto total =
        static_cast<std::uint64_t>(U128{trips} * shape->perIter + sum.steps);
    sh_.steps += total;
    res_.stmtsAnalyzed += total;
    seq_ += sum.seq;
    if (sum.inexact) res_.exhaustive = false;
    for (Event& ev : sum.events) sh_.events.push_back(std::move(ev));
    for (CostEvent& ce : sum.costs) res_.costEvents.push_back(std::move(ce));
    for (const Stmt* a : sum.completing) noteCompletingAwait(a);
    slotMut(sum.var) = Slot{true, Value(last)};
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
    recordCost(s, CostClass::Data, s->sym, e->count(), fanoutOf(*s),
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
          if (sec->isPoint()) {
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
    if (!pt->isPoint()) {
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
    // One piece per block is the rule: a block-cyclic dimension held as
    // one strided triplet of several blocks is still several sections.
    bool single = part.sections().size() == 1;
    for (int k = 0; single && k < d.rank(); ++k) {
      const dist::DimSpec& spec = d.specs()[static_cast<std::size_t>(k)];
      single = spec.kind != dist::DistKind::BlockCyclic ||
               part.sections()[0].dim(k).count() <= spec.blockSize;
    }
    if (!single) {
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
  std::int64_t seq_ = 0;
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
  Summary summary_;  ///< scratch of summarizeLoop, which never nests
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

Index floorDiv(Index a, Index b) { return a / b - (a % b != 0 && a < 0); }

/// True iff the point events of one (class, name symbol) cancel: with
/// multiplicity, every point has as many sends as receives per
/// destination pid when every send is bound, or in total when every send
/// is unbound. Balanced counts mean a perfect matching exists, so the
/// name's groups have no matching diagnostic (and a group skipped for a
/// conditional event reports nothing either way). False also when the
/// events are not in a form this test decides: mixed bound and unbound
/// sends, a send bound to no pid, or names that vary in more than one
/// dimension.
///
/// Each name is split into residue classes modulo the lcm L of the
/// strides, where its points form an interval of x div L; the events
/// cancel iff the signed counts entering and leaving those intervals net
/// to zero at every endpoint.
bool cancels(const std::vector<const Event*>& evs) {
  bool bound = false, unbound = false;
  int varying = -1;
  Index lcm = 1;
  for (const Event* e : evs) {
    if (e->name.rank() != evs.front()->name.rank()) return false;
    if (e->isSend) {
      if (e->dest == kNoDest) return false;
      (e->dest == kAnyDest ? unbound : bound) = true;
    }
    for (int d = 0; d < e->name.rank(); ++d) {
      const Triplet& t = e->name.dim(d);
      if (t.lb() == t.ub()) continue;
      if (varying >= 0 && varying != d) return false;
      varying = d;
      const Index g = std::gcd(lcm, t.stride());
      if (__builtin_mul_overflow(lcm / g, t.stride(), &lcm) ||
          lcm > (Index{1} << 20))
        return false;
    }
  }
  if (bound && unbound) return false;
  struct Edge {
    int key;  ///< destination pid when bound, else 0
    std::array<Index, sec::kMaxRank> at;  ///< fixed subscripts, residue
    Index coord;
    __int128 delta;
  };
  std::vector<Edge> edges;
  const int vd = std::max(varying, 0);
  for (const Event* e : evs) {
    const int key = bound ? (e->isSend ? e->dest : e->pid) : 0;
    const __int128 w = (e->isSend ? 1 : -1) *
                       static_cast<__int128>(e->perPoint ? e->copies : 1);
    Edge edge{key, {}, 0, 0};
    for (int d = 0; d < e->name.rank(); ++d)
      edge.at[static_cast<std::size_t>(d)] = e->name.dim(d).lb();
    const Triplet& t = e->name.rank() ? e->name.dim(vd) : Triplet(0);
    auto interval = [&](Index first, Index n) {  // n points, stride L
      edge.at[static_cast<std::size_t>(vd)] = first - floorDiv(first, lcm) * lcm;
      edge.coord = floorDiv(first, lcm);
      edge.delta = w;
      edges.push_back(edge);
      edge.coord += n;
      edge.delta = -w;
      edges.push_back(edge);
    };
    const Index per = lcm / t.stride();  // residue classes t meets
    if (per >= t.count()) {
      for (Index k = 0; k < t.count(); ++k) interval(t.at(k), 1);
    } else {
      for (Index r = 0; r < per; ++r) {
        const Index first = t.lb() + r * t.stride();
        interval(first, (t.ub() - first) / lcm + 1);
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.key, a.at, a.coord) < std::tie(b.key, b.at, b.coord);
  });
  for (std::size_t i = 0; i < edges.size();) {
    __int128 net = 0;
    std::size_t j = i;
    for (; j < edges.size() && edges[j].key == edges[i].key &&
           edges[j].at == edges[i].at && edges[j].coord == edges[i].coord;
         ++j)
      net += edges[j].delta;
    if (net != 0) return false;
    i = j;
  }
  return true;
}

/// Maximum bipartite matching between the sends and receives of each
/// (class, symbol, name-section) group, honoring bound destinations.
/// The point events of a name that summarized loops send or receive are
/// tested together by cancels() instead; false when they do not cancel,
/// and the call must then be answered by an unrolled run.
bool matchEvents(const Program& prog, const Shared& sh, VerifyResult& res) {
  auto nameKey = [](const Event& ev) {
    return std::make_pair(static_cast<int>(ev.cls), ev.sym);
  };
  std::set<std::pair<int, int>> summarized;
  for (const Event& ev : sh.events)
    if (ev.perPoint && !sh.poisonedSyms.count(ev.sym))
      summarized.insert(nameKey(ev));
  auto bySummary = [&](const Event& ev) {
    return (ev.perPoint || ev.name.isPoint()) &&
           summarized.count(nameKey(ev)) > 0;
  };
  if (!summarized.empty()) {
    std::map<std::pair<int, int>, std::vector<const Event*>> points;
    for (const Event& ev : sh.events)
      if (!sh.poisonedSyms.count(ev.sym) && bySummary(ev))
        points[nameKey(ev)].push_back(&ev);
    for (const auto& [key, evs] : points)
      if (!cancels(evs)) return false;
  }
  // Groups in first-seen order, events in program order within each.
  std::unordered_map<const Event*, std::size_t, GroupKeyHash, GroupKeyEq>
      groupOf;
  std::vector<Group> groups;
  for (const Event& ev : sh.events) {
    if (sh.poisonedSyms.count(ev.sym) || bySummary(ev)) continue;
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
  return true;
}

/// One abstract execution of every processor, then the matching. Events
/// of summarized loops that do not cancel are answered by running the
/// whole call again with those loops unrolled, so the matching
/// diagnostics are always the per-iteration ones.
VerifyResult verifyRun(const Program& prog, const VerifyOptions& opts,
                       bool summarizeTransfers) {
  VerifyResult res;
  Shared sh(prog, summarizeTransfers);
  for (int pid = 0; pid < prog.nprocs; ++pid) {
    PidExec ex(prog, opts, sh, res, pid);
    ex.run();
  }
  if (opts.matchComm && !sh.incomplete && !matchEvents(prog, sh, res))
    return verifyRun(prog, opts, /*summarizeTransfers=*/false);
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
  XDP_CHECK(prog.body != nullptr, "program has no body");
  XDP_CHECK(prog.nprocs > 0, "program needs at least one processor");
  return verifyRun(prog, opts, /*summarizeTransfers=*/true);
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
