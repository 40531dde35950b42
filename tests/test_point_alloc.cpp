// Heap allocations of a steady-state point message and of a loop-kernel
// entry. This binary replaces the global operator new with a counting
// one, so it stays out of the sanitizer builds, which replace it
// themselves.
//
// The measure is differential: the same program runs for kShort and for
// kLong round trips, and the extra round trips must allocate nothing
// (posted-receive path) or at most once each (the message parks as
// unexpected first), whatever the fixed setup costs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <string>

#include "xdp/il/parser.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/rt/proc.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XDP_COUNTING_NEW 0
#else
#define XDP_COUNTING_NEW 1
#endif

namespace {
std::size_t gAllocs = 0;
}  // namespace

#if XDP_COUNTING_NEW
void* operator new(std::size_t n) {
  ++gAllocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace xdp {
namespace {

using sec::Section;
using sec::Triplet;

constexpr int kShort = 200;
constexpr int kLong = 1200;

/// Allocations of `rounds` point messages p0 -> p1 through the runtime's
/// Proc API. With `receiverFirst`, p0 computes before each send, so p1's
/// receive is posted when the message arrives; otherwise p1 computes and
/// the message parks as unexpected.
std::size_t procRoundTrips(int rounds, bool receiverFirst) {
  rt::Runtime rt(2);
  const Section g{Triplet(0, 1)};
  const dist::Distribution d(g, {dist::DimSpec::block(2)});
  const int a = rt.declareArray<double>("A", g, d);
  const int b = rt.declareArray<double>("B", g, d);
  static const int kToP1[] = {1};
  const std::size_t before = gAllocs;
  rt.run([&](rt::Proc& p) {
    const Section src{Triplet(0)};
    const Section dst{Triplet(1)};
    for (int k = 0; k < rounds; ++k) {
      if (p.mypid() == 0) {
        if (receiverFirst) p.compute(1e-3);
        p.send(a, src, std::span<const int>(kToP1));
      } else {
        if (!receiverFirst) p.compute(1e-3);
        p.recv(b, dst, a, src);
        p.await(b, dst);
      }
    }
  });
  return gAllocs - before;
}

/// Allocations of a compiled two-processor program whose loop sends one
/// element per iteration, run through the VM's hot transfer ops.
std::size_t vmRoundTrips(int rounds, bool direct) {
  const std::string text = "procs 2\n"
                           "array A f64 [0:1] (BLOCK)\n"
                           "array B f64 [0:1] (BLOCK)\n"
                           "do t = 1, " +
                           std::to_string(rounds) +
                           "\n"
                           "  (mypid == 0) : {\n"
                           "    compute(0.001)\n"
                           "    A[0] -> " +
                           (direct ? "{1}" : "") +
                           "\n  }\n"
                           "  (mypid == 1) : {\n"
                           "    B[1] <- A[0]\n"
                           "    await(B[1])\n"
                           "  }\n"
                           "enddo\n";
  interp::Interpreter in(il::parseProgram(text));
  const std::size_t before = gAllocs;
  in.run();
  return gAllocs - before;
}

/// Allocations of a compiled two-processor program that enters a
/// one-iteration stencil loop `rounds` times per processor; `fused`
/// receives how many of those entries ran as a loop kernel.
std::size_t kernelEntries(int rounds, std::uint64_t& fused) {
  const std::string text =
      "procs 2\n"
      "array A f64 [1:8] (BLOCK)\n"
      "do t = 1, " +
      std::to_string(rounds) +
      "\n"
      "  do i = 4 * mypid + 2, 4 * mypid + 2\n"
      "    A[i] = 0.5 * A[i - 1] + A[i] * 0.25 + A[i + 1]\n"
      "  enddo\n"
      "enddo\n";
  interp::Interpreter in(il::parseProgram(text));
  const std::size_t before = gAllocs;
  in.run();
  fused = in.totalStats().fusedLoops;
  return gAllocs - before;
}

/// Extra allocations of the long run over the short one, after a warm-up
/// run that pays one-time initialization.
template <class Run>
long extraAllocs(const Run& run) {
  (void)run(kShort);
  const std::size_t shortRun = run(kShort);
  return static_cast<long>(run(kLong)) - static_cast<long>(shortRun);
}

TEST(PointAlloc, PostedReceivePathAllocatesNothing) {
  if (!XDP_COUNTING_NEW) GTEST_SKIP() << "sanitizers replace operator new";
  EXPECT_EQ(extraAllocs([](int n) { return procRoundTrips(n, true); }), 0);
  for (bool direct : {true, false})
    EXPECT_EQ(extraAllocs([&](int n) { return vmRoundTrips(n, direct); }), 0)
        << (direct ? "direct" : "rendezvous");
}

TEST(PointAlloc, UnexpectedPathAllocatesAtMostOnce) {
  if (!XDP_COUNTING_NEW) GTEST_SKIP() << "sanitizers replace operator new";
  EXPECT_LE(extraAllocs([](int n) { return procRoundTrips(n, false); }),
            kLong - kShort);
}

TEST(PointAlloc, LoopKernelEntryAllocatesNothing) {
  if (!XDP_COUNTING_NEW) GTEST_SKIP() << "sanitizers replace operator new";
  constexpr int kFew = 1000, kMany = kFew + 10000;
  std::uint64_t fewFused = 0, manyFused = 0;
  (void)kernelEntries(kFew, fewFused);
  const std::size_t few = kernelEntries(kFew, fewFused);
  const std::size_t many = kernelEntries(kMany, manyFused);
  EXPECT_EQ(manyFused - fewFused, 2u * 10000u);  // every entry fused
  EXPECT_EQ(static_cast<long>(many) - static_cast<long>(few), 0);
}

}  // namespace
}  // namespace xdp
