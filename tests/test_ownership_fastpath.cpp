// Property tests for the ownership fast path: the indexed/cached
// ProcTable state queries and ownedRanges must stay bit-identical to
// brute-force per-element iown across randomized ownership histories, the
// lock-free cache-hit path must be race-free (run under `-L sanitize`),
// and the VM's guarded-loop range splitting must be observable only
// through InterpStats: every split run matches the reference walker's
// naive schedule.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <set>
#include <utility>

#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/net/spmd.hpp"
#include "xdp/rt/proc_table.hpp"
#include "xdp/support/fiber.hpp"

namespace xdp::rt {
namespace {

using dist::DimSpec;
using dist::Distribution;
using sec::Point;
using sec::Triplet;

std::vector<SymbolDecl> oneArray(const Section& g, Distribution d) {
  SymbolDecl decl;
  decl.index = 0;
  decl.name = "A";
  decl.type = ElemType::F64;
  decl.global = g;
  decl.dist = std::move(d);
  return {decl};
}

Section pointSec(const Point& p) {
  std::vector<Triplet> dims;
  for (int d = 0; d < p.rank(); ++d) dims.emplace_back(p[d]);
  return Section(dims);
}

/// Per-element shadow model of one processor's table.
struct Shadow {
  std::set<std::vector<Index>> owned;
  std::vector<Section> pending;

  static std::vector<Index> key(const Point& p) {
    std::vector<Index> k;
    for (int d = 0; d < p.rank(); ++d) k.push_back(p[d]);
    return k;
  }
  bool ownsAll(const Section& s) const {
    bool all = true;
    s.forEach([&](const Point& p) { all = all && owned.count(key(p)) > 0; });
    return all;
  }
  bool ownsNone(const Section& s) const {
    bool none = true;
    s.forEach([&](const Point& p) { none = none && owned.count(key(p)) == 0; });
    return none;
  }
  bool pendingOverlaps(const Section& s) const {
    for (const Section& p : pending)
      if (!Section::intersect(p, s).empty()) return true;
    return false;
  }
  bool pendingContains(const Point& p) const {
    for (const Section& s : pending)
      if (!Section::intersect(s, pointSec(p)).empty()) return true;
    return false;
  }
};

/// Assert every fast-path query on `t` agrees with brute-force per-element
/// queries and with the shadow model, for one query section.
void checkQueries(ProcTable& t, const Shadow& sh, const Section& q) {
  const bool wantOwn = sh.ownsAll(q);
  const bool wantAcc = wantOwn && !sh.pendingOverlaps(q);

  // Aggregate queries, twice so the second answer comes from the memo
  // cache.
  EXPECT_EQ(t.iown(0, q), wantOwn) << q.str();
  EXPECT_EQ(t.iown(0, q), wantOwn) << q.str() << " (cached)";
  EXPECT_EQ(t.accessible(0, q), wantAcc) << q.str();
  EXPECT_EQ(t.accessible(0, q), wantAcc) << q.str() << " (cached)";

  // Brute force: the aggregate must equal the per-element conjunction.
  bool allOwn = true;
  q.forEach([&](const Point& p) {
    allOwn = allOwn && t.iown(0, pointSec(p));
  });
  EXPECT_EQ(allOwn, wantOwn) << q.str() << " (element-wise)";

  // ownedRanges: disjoint cover of exactly the owned elements of q.
  std::set<std::vector<Index>> want;
  q.forEach([&](const Point& p) {
    if (sh.owned.count(Shadow::key(p))) want.insert(Shadow::key(p));
  });
  std::set<std::vector<Index>> got;
  const sec::RegionList ranges = t.ownedRanges(0, q);
  for (const Section& s : ranges.sections()) {
    s.forEach([&](const Point& p) {
      EXPECT_TRUE(got.insert(Shadow::key(p)).second)
          << "overlapping ownedRanges pieces at " << q.str();
    });
  }
  EXPECT_EQ(got, want) << q.str();

  // excludeTransitional: the accessible elements only.
  std::set<std::vector<Index>> wantAccElems;
  q.forEach([&](const Point& p) {
    if (sh.owned.count(Shadow::key(p)) && !sh.pendingContains(p))
      wantAccElems.insert(Shadow::key(p));
  });
  std::set<std::vector<Index>> gotAcc;
  const sec::RegionList accRanges = t.ownedRanges(0, q, true);
  for (const Section& s : accRanges.sections()) {
    s.forEach([&](const Point& p) { gotAcc.insert(Shadow::key(p)); });
  }
  EXPECT_EQ(gotAcc, wantAccElems) << q.str() << " (excludeTransitional)";
}

TEST(OwnershipFastPath, RandomHistory1D) {
  for (unsigned seed : {1u, 2u, 3u, 4u}) {
    std::mt19937 rng(seed);
    const Section g{Triplet(0, 63)};
    ProcTable t(0, oneArray(g, Distribution(g, {DimSpec::block(2)})),
                /*debugChecks=*/true);
    Shadow sh;
    for (Index i = 0; i <= 31; ++i) sh.owned.insert({i});  // pid 0's block

    auto randSec = [&] {
      std::uniform_int_distribution<Index> lbD(0, 63), lenD(0, 15),
          strideD(1, 3);
      Index lb = lbD(rng);
      return Section{
          Triplet(lb, std::min<Index>(63, lb + lenD(rng)), strideD(rng))};
    };

    double clock = 1.0;
    for (int step = 0; step < 250; ++step) {
      const int op = static_cast<int>(rng() % 4);
      if (op == 0) {
        // Release: give away an accessible piece of a random query.
        sec::RegionList acc = t.ownedRanges(0, randSec(), true);
        if (!acc.sections().empty()) {
          const Section& piece = acc.sections().front();
          t.takeOwnershipOut(0, piece, rng() % 2 == 0);
          piece.forEach(
              [&](const Point& p) { sh.owned.erase(Shadow::key(p)); });
        }
      } else if (op == 1) {
        // Acquire: start an ownership receive into an unowned section.
        Section s = randSec();
        if (sh.ownsNone(s)) {
          t.beginOwnershipReceive(0, s);
          s.forEach([&](const Point& p) { sh.owned.insert(Shadow::key(p)); });
          sh.pending.push_back(s);
        }
      } else if (op == 2) {
        // Data receive into an owned, currently-quiet section.
        Section s = randSec();
        if (sh.ownsAll(s) && !sh.pendingOverlaps(s)) {
          t.beginReceive(0, s);
          sh.pending.push_back(s);
        }
      } else if (!sh.pending.empty()) {
        // Complete one outstanding receive.
        const std::size_t k = rng() % sh.pending.size();
        Section s = sh.pending[k];
        std::vector<std::byte> payload(
            static_cast<std::size_t>(s.count()) * sizeof(double));
        t.completeReceive(0, s, payload.data(), clock);
        clock += 1.0;
        sh.pending.erase(sh.pending.begin() +
                         static_cast<std::ptrdiff_t>(k));
      }
      checkQueries(t, sh, randSec());
    }
    EXPECT_GT(t.cacheStats().hits, 0u);
  }
}

TEST(OwnershipFastPath, RandomHistory2D) {
  std::mt19937 rng(11);
  const Section g{Triplet(0, 15), Triplet(0, 15)};
  ProcTable t(
      0,
      oneArray(g, Distribution(g, {DimSpec::block(2), DimSpec::block(2)})),
      /*debugChecks=*/true);
  Shadow sh;
  for (Index i = 0; i <= 7; ++i)
    for (Index j = 0; j <= 7; ++j) sh.owned.insert({i, j});

  auto randSec = [&] {
    std::uniform_int_distribution<Index> lbD(0, 15), lenD(0, 6), strideD(1, 2);
    Index lb0 = lbD(rng), lb1 = lbD(rng);
    return Section{
        Triplet(lb0, std::min<Index>(15, lb0 + lenD(rng)), strideD(rng)),
        Triplet(lb1, std::min<Index>(15, lb1 + lenD(rng)), strideD(rng))};
  };

  double clock = 1.0;
  for (int step = 0; step < 200; ++step) {
    const int op = static_cast<int>(rng() % 4);
    if (op == 0) {
      sec::RegionList acc = t.ownedRanges(0, randSec(), true);
      if (!acc.sections().empty()) {
        const Section& piece = acc.sections().front();
        t.takeOwnershipOut(0, piece, false);
        piece.forEach([&](const Point& p) { sh.owned.erase(Shadow::key(p)); });
      }
    } else if (op == 1) {
      Section s = randSec();
      if (sh.ownsNone(s)) {
        t.beginOwnershipReceive(0, s);
        s.forEach([&](const Point& p) { sh.owned.insert(Shadow::key(p)); });
        sh.pending.push_back(s);
      }
    } else if (op == 2) {
      Section s = randSec();
      if (sh.ownsAll(s) && !sh.pendingOverlaps(s)) {
        t.beginReceive(0, s);
        sh.pending.push_back(s);
      }
    } else if (!sh.pending.empty()) {
      const std::size_t k = rng() % sh.pending.size();
      Section s = sh.pending[k];
      std::vector<std::byte> payload(
          static_cast<std::size_t>(s.count()) * sizeof(double));
      t.completeReceive(0, s, payload.data(), clock);
      clock += 1.0;
      sh.pending.erase(sh.pending.begin() + static_cast<std::ptrdiff_t>(k));
    }
    checkQueries(t, sh, randSec());
  }
}

TEST(OwnershipFastPath, OutstandingReceivesMatchLinearScan) {
  // The outstanding receives of a symbol are an index on dim-0 lower
  // bounds that must answer exactly as a linear scan of the multiset of
  // posted sections: duplicates of one section retire one at a time,
  // overlapping posts are allowed at the table level, and one wide post
  // widens every later window until the index empties.
  for (unsigned seed : {5u, 6u, 7u}) {
    std::mt19937 rng(seed);
    const Section g{Triplet(0, 511)};
    ProcTable t(0, oneArray(g, Distribution(g, {DimSpec::block(1)})),
                /*debugChecks=*/false);
    Shadow sh;
    for (Index i = 0; i <= 511; ++i) sh.owned.insert({i});
    auto randSec = [&](Index maxLen) {
      std::uniform_int_distribution<Index> lbD(0, 511), lenD(0, maxLen),
          strideD(1, 4);
      const Index lb = lbD(rng);
      return Section{
          Triplet(lb, std::min<Index>(511, lb + lenD(rng)), strideD(rng))};
    };
    for (int step = 0; step < 1500; ++step) {
      const unsigned op = rng() % 8;
      if (op < 3) {
        // Post: mostly short sections, sometimes a wide one, sometimes a
        // duplicate of an outstanding one.
        Section s = (op == 2 && !sh.pending.empty())
                        ? sh.pending[rng() % sh.pending.size()]
                        : randSec(rng() % 16 == 0 ? 300 : 6);
        t.beginReceive(0, s);
        sh.pending.push_back(s);
      } else if (op < 5 && !sh.pending.empty()) {
        const std::size_t k = rng() % sh.pending.size();
        const Section s = sh.pending[k];
        t.completeReceive(0, s, nullptr, 1.0);
        sh.pending.erase(sh.pending.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        const Section q = randSec(rng() % 4 == 0 ? 200 : 10);
        const bool wantAcc = !sh.pendingOverlaps(q);
        EXPECT_EQ(t.accessible(0, q), wantAcc) << q.str();
        EXPECT_TRUE(t.iown(0, q)) << q.str();
        if (wantAcc) {
          EXPECT_TRUE(t.await(0, q)) << q.str();
        }
        std::set<std::vector<Index>> want;
        q.forEach([&](const Point& p) {
          if (!sh.pendingContains(p)) want.insert(Shadow::key(p));
        });
        std::set<std::vector<Index>> got;
        const sec::RegionList accessible = t.ownedRanges(0, q, true);
        for (const Section& r : accessible.sections())
          r.forEach([&](const Point& p) { got.insert(Shadow::key(p)); });
        EXPECT_EQ(got, want) << q.str();
      }
      if (step % 100 == 0) {
        for (const rt::SegmentDesc& seg : t.segments(0)) {
          EXPECT_EQ(seg.status == rt::SegState::Transitional,
                    sh.pendingOverlaps(seg.bounds))
              << seg.bounds.str();
        }
      }
    }
    // Drain: after the last completion nothing is transitional.
    while (!sh.pending.empty()) {
      t.completeReceive(0, sh.pending.back(), nullptr, 2.0);
      sh.pending.pop_back();
      EXPECT_EQ(t.accessible(0, g), sh.pending.empty());
    }
  }
}

TEST(OwnershipFastPath, ManySegmentsUseTheIndex) {
  // Fragment ownership into dozens of single-element segments so queries
  // exercise the binary-search path (> linear-scan threshold), then check
  // against brute force.
  const Section g{Triplet(0, 255)};
  ProcTable t(0, oneArray(g, Distribution(g, {DimSpec::block(1)})),
              /*debugChecks=*/true);
  Shadow sh;
  for (Index i = 0; i <= 255; ++i) sh.owned.insert({i});
  // Give away every third element: leaves ~170 fragments.
  for (Index i = 0; i <= 255; i += 3) {
    t.takeOwnershipOut(0, Section{Triplet(i)}, false);
    sh.owned.erase({i});
  }
  std::mt19937 rng(21);
  for (int step = 0; step < 100; ++step) {
    std::uniform_int_distribution<Index> lbD(0, 255), lenD(0, 40),
        strideD(1, 4);
    Index lb = lbD(rng);
    checkQueries(t, sh,
                 Section{Triplet(lb, std::min<Index>(255, lb + lenD(rng)),
                                 strideD(rng))});
  }
}

TEST(OwnershipFastPath, EpochInvalidatesCache) {
  const Section g{Triplet(0, 31)};
  ProcTable t(0, oneArray(g, Distribution(g, {DimSpec::block(1)})), true);
  const Section q{Triplet(0, 15)};
  EXPECT_TRUE(t.iown(0, q));
  EXPECT_TRUE(t.iown(0, q));  // cache hit
  const auto before = t.cacheStats();
  EXPECT_GT(before.hits, 0u);
  // Mutate: the cached answer must not survive the epoch bump.
  t.takeOwnershipOut(0, Section{Triplet(4)}, false);
  EXPECT_FALSE(t.iown(0, q));
  EXPECT_TRUE(t.iown(0, Section{Triplet(0, 3)}));
}

TEST(OwnershipFastPath, ConcurrentReadersAndCompletions) {
  // Memo-cache hits and reads on three reader fibers interleaved with
  // receive initiation/completion and an await park/wake cycle, all
  // fibers of one runSpmd (a table is used by one thread at a time).
  const Section g{Triplet(0, 255)};
  ProcTable t(0, oneArray(g, Distribution(g, {DimSpec::block(1)})),
              /*debugChecks=*/false);
  const Section churn{Triplet(0, 63)};     // receives cycle here
  const Section stable{Triplet(128, 191)}; // always accessible
  const Section foreign{Triplet(200, 255)};
  t.takeOwnershipOut(0, foreign, false);   // awaits on it must return false

  // Fiber 0 awaits, fiber 1 writes; each step moves the fiber's clock
  // (two for an await, one for a begin or a completion) and hands over to
  // the others once it is behind, so the awaiter finds a receive
  // outstanding and parks until its completion. Fibers 2-4 read, two
  // clock units per round from 0.5 (half a unit ahead of the writer's
  // cycle, so a completion never hands over to them before the writer's
  // next begin), until both have finished.
  std::array<double, 5> steps{0.0, 0.0, 0.5, 0.5, 0.5};
  int parksSeen = 0;
  int finished = 0;
  net::runSpmd(
      5,
      [&](int pid) {
        FiberScheduler& sched = *FiberScheduler::current();
        auto step = [&] {
          steps[static_cast<std::size_t>(pid)] += pid == 1 ? 1 : 2;
          sched.yieldIfBehind();
        };
        if (pid == 0) {
          for (int i = 0; i < 50; ++i) {
            const bool pending = !t.accessible(0, churn);
            double arrival = 0.0;
            EXPECT_TRUE(t.await(0, churn, &arrival));
            EXPECT_FALSE(t.await(0, foreign, nullptr));
            parksSeen += pending ? 1 : 0;
            step();
          }
          ++finished;
        } else if (pid == 1) {
          std::vector<std::byte> payload(
              static_cast<std::size_t>(churn.count()) * sizeof(double));
          for (int i = 0; i < 400; ++i) {
            t.beginReceive(0, churn);
            step();
            t.completeReceive(0, churn, payload.data(), 1.0 + i);
            step();
          }
          ++finished;
        } else {
          std::vector<std::byte> buf(
              static_cast<std::size_t>(stable.count()) * sizeof(double));
          std::uint64_t trues = 0;
          for (int iter = 0; iter < 50 || finished < 2; ++iter) {
            if (t.iown(0, churn)) ++trues;
            t.accessible(0, churn);
            EXPECT_TRUE(t.iown(0, stable));
            EXPECT_TRUE(t.accessible(0, stable));
            t.ownedRanges(0, g);
            t.waitState();
            if (pid == 2) t.readElems(0, stable, buf.data());
            step();
          }
          EXPECT_GT(trues, 0u);  // ownership never changed, only access
        }
      },
      [&](int pid) { return steps[static_cast<std::size_t>(pid)]; });
  EXPECT_GT(parksSeen, 0);
  EXPECT_TRUE(t.accessible(0, churn));
}

}  // namespace
}  // namespace xdp::rt

namespace xdp::sec {
namespace {

TEST(AffinePreimage, MatchesPointwiseMembership) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    std::uniform_int_distribution<Index> lbD(-50, 50), lenD(0, 40),
        strideD(1, 7), aD(-5, 5), bD(-60, 60);
    Index lb = lbD(rng);
    Triplet T(lb, lb + lenD(rng), strideD(rng));
    Index a = aD(rng);
    if (a == 0) a = 1;
    Index b = bD(rng);
    Triplet pre = T.affinePreimage(a, b);
    // |image values| <= 140 and |b| <= 60 with |a| >= 1 bounds any
    // preimage element by 200, so scanning [-200, 200] is exhaustive.
    for (Index i = -200; i <= 200; ++i) {
      EXPECT_EQ(pre.contains(i), T.contains(a * i + b))
          << "a=" << a << " b=" << b << " i=" << i;
    }
  }
}

TEST(AffinePreimage, EmptyAndSinglePoint) {
  EXPECT_TRUE(Triplet().affinePreimage(2, 1).empty());
  Triplet single(10);
  EXPECT_EQ(single.affinePreimage(2, 0), Triplet(5));
  EXPECT_TRUE(single.affinePreimage(2, 1).empty());  // 2i+1 is odd
  EXPECT_EQ(single.affinePreimage(-5, 0), Triplet(-2));
}

}  // namespace
}  // namespace xdp::sec

namespace xdp::interp {
namespace {

using dist::DimSpec;
using dist::Distribution;
using sec::Section;
using sec::Triplet;

il::Program guardProg(int nprocs, Index n) {
  il::Program prog;
  prog.nprocs = nprocs;
  Section g{Triplet(1, n)};
  prog.addArray({"A", rt::ElemType::F64, g,
                 Distribution(g, {DimSpec::block(nprocs)}), {}});
  // Three owner-computes loops: identity, scaled, and offset subscripts.
  prog.body = il::block({
      il::forLoop("i", il::intConst(1), il::intConst(n),
                  il::guarded(il::iown(0, il::secPoint({il::scalar("i")})),
                              il::block({il::elemAssign(
                                  0, il::secPoint({il::scalar("i")}),
                                  il::mul(il::scalar("i"),
                                          il::intConst(2)))}))),
      il::forLoop(
          "j", il::intConst(1), il::intConst(n / 2),
          il::guarded(
              il::iown(0, il::secPoint({il::mul(il::intConst(2),
                                                il::scalar("j"))})),
              il::block({il::elemAssign(
                  0, il::secPoint({il::mul(il::intConst(2), il::scalar("j"))}),
                  il::add(il::elem(0, il::secPoint({il::mul(
                                          il::intConst(2), il::scalar("j"))})),
                          il::intConst(1)))}))),
      il::forLoop(
          "k", il::intConst(0), il::intConst(n - 1),
          il::guarded(
              il::iown(0, il::secPoint({il::add(il::scalar("k"),
                                                il::intConst(1))})),
              il::block({il::elemAssign(
                  0, il::secPoint({il::add(il::scalar("k"), il::intConst(1))}),
                  il::add(il::elem(0, il::secPoint({il::add(
                                          il::scalar("k"), il::intConst(1))})),
                          il::intConst(100)))}))),
  });
  return prog;
}

std::vector<double> readAll(rt::Runtime& rt, int nprocs, Index n) {
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  for (int pid = 0; pid < nprocs; ++pid) {
    rt::ProcTable& t = rt.table(pid);
    for (Index i = 1; i <= n; ++i) {
      Section pt{Triplet(i)};
      if (!t.iown(0, pt)) continue;
      double v = 0.0;
      t.readElems(0, pt, reinterpret_cast<std::byte*>(&v));
      out[static_cast<std::size_t>(i - 1)] = v;
    }
  }
  return out;
}

TEST(GuardSplit, SplitAndNaiveSchedulesAgree) {
  constexpr int kProcs = 4;
  constexpr Index kN = 64;
  rt::RuntimeOptions ro;
  ro.debugChecks = true;  // writes to unowned elements would throw

  InterpOptions naive;
  naive.backend = Backend::TreeWalk;
  Interpreter a(guardProg(kProcs, kN), ro, naive);
  a.run();

  Interpreter b(guardProg(kProcs, kN), ro, InterpOptions{});
  b.run();

  EXPECT_EQ(readAll(a.runtime(), kProcs, kN),
            readAll(b.runtime(), kProcs, kN));

  // Legacy counters describe the logical schedule — identical either way.
  const InterpStats sa = a.totalStats(), sb = b.totalStats();
  EXPECT_EQ(sa.rulesEvaluated, sb.rulesEvaluated);
  EXPECT_EQ(sa.rulesTrue, sb.rulesTrue);
  EXPECT_EQ(sa.loopIterations, sb.loopIterations);
  EXPECT_EQ(sa.stmtsExecuted, sb.stmtsExecuted);
  EXPECT_EQ(sa.elemAssigns, sb.elemAssigns);

  // The VM split every loop; the reference walker never splits.
  EXPECT_EQ(sa.rangeSplits, 0u);
  EXPECT_EQ(sb.rangeSplits, 3u * kProcs);
  EXPECT_EQ(sb.guardedItersSaved,
            static_cast<std::uint64_t>(kN + kN / 2 + kN) * kProcs);
  EXPECT_EQ(sa.guardedItersSaved, 0u);
}

TEST(GuardSplit, BodyMutatingGuardScalarFallsBack) {
  il::Program prog;
  prog.nprocs = 2;
  Section g{Triplet(1, 8)};
  prog.addArray({"A", rt::ElemType::F64, g, Distribution(g, {DimSpec::block(2)}),
                 {}});
  // The guard reads `off`, the body reassigns it: splitting would freeze
  // the guard section, so the loop must run the naive schedule.
  prog.body = il::block({
      il::scalarAssign("off", il::intConst(0)),
      il::forLoop(
          "i", il::intConst(1), il::intConst(8),
          il::guarded(
              il::iown(0, il::secPoint({il::add(il::scalar("i"),
                                                il::scalar("off"))})),
              il::block({il::scalarAssign("off", il::intConst(0))}))),
  });
  Interpreter in(prog, {}, InterpOptions{});
  in.run();
  EXPECT_EQ(in.totalStats().rangeSplits, 0u);
  EXPECT_EQ(in.totalStats().rulesEvaluated, 16u);
}

TEST(GuardSplit, LoopVariableHoldsFinalValueAfterSplit) {
  // The naive schedule leaves the loop variable at its last iteration's
  // value; the split path must preserve that for code after the loop.
  il::Program prog;
  prog.nprocs = 2;
  Section g{Triplet(1, 8)};
  prog.addArray({"A", rt::ElemType::F64, g, Distribution(g, {DimSpec::block(2)}),
                 {}});
  prog.body = il::block({
      il::forLoop("i", il::intConst(1), il::intConst(8),
                  il::guarded(il::iown(0, il::secPoint({il::scalar("i")})),
                              il::block({il::elemAssign(
                                  0, il::secPoint({il::scalar("i")}),
                                  il::intConst(1))}))),
      // Writes A[i] after the loop: i must be 8, owned by pid 1 only.
      il::guarded(il::iown(0, il::secPoint({il::scalar("i")})),
                  il::block({il::elemAssign(
                      0, il::secPoint({il::scalar("i")}), il::intConst(7))})),
  });
  rt::RuntimeOptions ro;
  ro.debugChecks = true;
  Interpreter in(prog, ro, InterpOptions{});
  in.run();
  EXPECT_GT(in.totalStats().rangeSplits, 0u);
  rt::ProcTable& t1 = in.runtime().table(1);
  double v = 0.0;
  t1.readElems(0, Section{Triplet(8)}, reinterpret_cast<std::byte*>(&v));
  EXPECT_EQ(v, 7.0);
}

/// FNV-1a over every array's final contents in global Fortran order.
std::uint64_t digestState(rt::Runtime& rt) {
  std::uint64_t h = 1469598103934665603ULL;
  std::vector<std::byte> buf, seg;
  for (const auto& d : rt.decls()) {
    const std::size_t esz = rt::elemSize(d.type);
    buf.assign(static_cast<std::size_t>(d.global.count()) * esz,
               std::byte{0});
    for (int p = 0; p < rt.nprocs(); ++p) {
      for (const auto& sg : rt.table(p).segments(d.index)) {
        if (sg.status != rt::SegState::Accessible) continue;
        seg.resize(static_cast<std::size_t>(sg.count()) * esz);
        rt.table(p).readElems(d.index, sg.bounds, seg.data());
        std::size_t i = 0;
        sg.bounds.forEach([&](const sec::Point& pt) {
          const auto pos = static_cast<std::size_t>(d.global.fortranPos(pt));
          std::memcpy(buf.data() + pos * esz, seg.data() + i * esz, esz);
          ++i;
        });
      }
    }
    for (std::byte b : buf) {
      h ^= static_cast<std::uint64_t>(std::to_integer<unsigned>(b));
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct Observed {
  std::string error;
  std::uint64_t digest = 0;
  net::NetStats net;
  InterpStats stats;
};

Observed runSource(const std::string& src, Backend be) {
  InterpOptions io;
  io.backend = be;
  Interpreter in(il::parseProgram(src), {}, io);
  apps::registerFillKernel(in, 42);
  Observed o;
  try {
    in.run();
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.digest = digestState(in.runtime());
  o.net = in.runtime().fabric().totalStats();
  o.stats = in.totalStats();
  return o;
}

/// The VM must reproduce the reference walker's naive schedule exactly:
/// the same outcome, result digest, NetStats and logical counters.
void expectVmMatchesReference(const std::string& src) {
  const Observed ref = runSource(src, Backend::TreeWalk);
  const Observed vm = runSource(src, Backend::Bytecode);
  EXPECT_EQ(ref.error, "");
  EXPECT_EQ(vm.error, ref.error);
  EXPECT_EQ(vm.digest, ref.digest);
  EXPECT_EQ(vm.net.messagesSent, ref.net.messagesSent);
  EXPECT_EQ(vm.net.bytesSent, ref.net.bytesSent);
  EXPECT_EQ(vm.net.ownershipTransfers, ref.net.ownershipTransfers);
  EXPECT_EQ(vm.stats.stmtsExecuted, ref.stats.stmtsExecuted);
  EXPECT_EQ(vm.stats.loopIterations, ref.stats.loopIterations);
  EXPECT_EQ(vm.stats.rulesEvaluated, ref.stats.rulesEvaluated);
  EXPECT_EQ(vm.stats.rulesTrue, ref.stats.rulesTrue);
  EXPECT_EQ(vm.stats.elemAssigns, ref.stats.elemAssigns);
  EXPECT_EQ(vm.stats.kernelCalls, ref.stats.kernelCalls);
}

TEST(GuardSplit, WrappedSubscriptRunsTheNaiveSchedule) {
  // IL arithmetic wraps: 2^62 * i + 1 names A[1] at i = 0 and again at
  // i = 4, so the owner of A[1] sends twice. The image of the whole loop
  // (2^62 * 4 + 1) does not fit int64; a split computed in overflowing
  // int64 would pull back only i = 0 and send once.
  const std::string src =
      "procs 2\n"
      "array A f64 [1:8] (BLOCK)\n"
      "fill(A[1:8])\n"
      "do i = 0, 4\n"
      "  iown(A[4611686018427387904 * i + 1]) : { A[1] -> {1} }\n"
      "enddo\n";
  expectVmMatchesReference(src);
  const Observed vm = runSource(src, Backend::Bytecode);
  EXPECT_EQ(vm.net.messagesSent, 2u);
  EXPECT_EQ(vm.stats.rangeSplits, 0u);
  // The image 2 * 2^62 + (1 - 2^63) = 1 fits, but 2 * 2^62 alone does
  // not: pulling A[1] back through a * v + b would overflow on the way.
  expectVmMatchesReference(
      "procs 2\n"
      "array A f64 [1:8] (BLOCK)\n"
      "fill(A[1:8])\n"
      "do i = 4611686018427387904, 4611686018427387904\n"
      "  iown(A[2 * i - 9223372036854775807]) : { A[1] -> {1} }\n"
      "enddo\n");
}

TEST(GuardSplit, RealCoefficientRunsTheNaiveSchedule) {
  // k * i is integral on every iteration, so the naive schedule runs; a
  // split that converted the coefficient k = 0.5 to an index up front
  // would fail with "non-integral value in index context".
  const std::string src =
      "procs 2\n"
      "array A f64 [1:8] (BLOCK)\n"
      "fill(A[1:8])\n"
      "k = 0.5\n"
      "do i = 2, 16, 2\n"
      "  iown(A[k * i]) : { A[k * i] = 1.0 }\n"
      "enddo\n";
  expectVmMatchesReference(src);
  const Observed vm = runSource(src, Backend::Bytecode);
  EXPECT_EQ(vm.stats.rulesEvaluated, 16u);
  EXPECT_EQ(vm.stats.rangeSplits, 0u);
}

TEST(GuardSplit, InterleavedOwnedSetsRunInAscendingOrder) {
  // CYCLIC(2) gives each processor several owned pieces, so one loop
  // pulls back to several iteration sets; `s` makes the body's effect
  // depend on the order the owned iterations run in. Both rule kinds,
  // and a descending subscript, must reproduce the naive schedule.
  for (const char* rule : {"iown(A[i])", "accessible(A[17 - i])"}) {
    const std::string src =
        std::string("procs 2\n"
                    "array A f64 [1:16] (CYCLIC(2))\n"
                    "fill(A[1:16])\n"
                    "s = 1\n"
                    "do i = 1, 16\n  ") +
        rule +
        " : {\n"
        "    s = s * 3 + i\n"
        "    A[i] = s\n"
        "  }\n"
        "enddo\n";
    expectVmMatchesReference(src);
    EXPECT_EQ(runSource(src, Backend::Bytecode).stats.rangeSplits, 2u)
        << rule;
  }
}

TEST(GuardSplit, CacheHitsAreReported) {
  // A loop-invariant *range* guard is not splittable (not a point
  // section), so it is re-queried per iteration — every query after the
  // first is a memo-cache hit, surfaced through InterpStats.
  il::Program prog;
  prog.nprocs = 2;
  Section g{Triplet(1, 8)};
  prog.addArray({"A", rt::ElemType::F64, g, Distribution(g, {DimSpec::block(2)}),
                 {}});
  prog.body = il::block({il::forLoop(
      "i", il::intConst(1), il::intConst(8),
      il::guarded(il::iown(0, il::secRange1(il::intConst(1), il::intConst(4))),
                  il::block({})))});
  Interpreter in(prog, {}, InterpOptions{});
  in.run();
  EXPECT_EQ(in.totalStats().rangeSplits, 0u);
  EXPECT_GT(in.totalStats().guardCacheHits, 0u);
}

}  // namespace
}  // namespace xdp::interp
