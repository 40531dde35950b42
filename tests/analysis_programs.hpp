// Source-text program generators shared by the analysis tests and
// bench_analysis: the rank-1 update shape of the end-to-end `compile`
// benchmark workload, the rendezvous task farm of the `exchange`
// workload with adjustable send and receive counts, and the halo and
// ownership-ring programs of the `serve` workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "xdp/sections/triplet.hpp"

namespace xdp::testprog {

/// One rank-1 f64 array of length n per placement in `dists` (e.g.
/// "BLOCK", "CYCLIC(4)"; at most 8), filled, then each updated once from
/// its neighbours in the list: an element-wise update, a 3-point stencil
/// and a two-array combination in turn.
inline std::string rank1UpdateText(sec::Index n, int nprocs,
                                   const std::vector<std::string>& dists) {
  static const char* kNames[] = {"A", "B", "C", "D", "E", "F", "G", "H"};
  const std::size_t k = dists.size();
  const std::string ns = std::to_string(n);
  std::string t = "procs " + std::to_string(nprocs) + "\n";
  for (std::size_t a = 0; a < k; ++a)
    t += std::string("array ") + kNames[a] + " f64 [1:" + ns + "] (" +
         dists[a] + ")\n";
  t += "\nfill(";
  for (std::size_t a = 0; a < k; ++a)
    t += std::string(a ? ", " : "") + kNames[a] + "[1:" + ns + "]";
  t += ")\n";
  for (std::size_t a = 0; a < k; ++a) {
    const std::string x = kNames[a], s = kNames[(a + 1) % k],
                      s2 = kNames[(a + 2) % k];
    switch (a % 3) {
      case 0:
        t += "do i = 1, " + ns + "\n  " + x + "[i] = 0.5 * " + x +
             "[i] + 0.25 * " + s + "[i]\nenddo\n";
        break;
      case 1:
        t += "do i = 2, " + std::to_string(n - 1) + "\n  " + x +
             "[i] = 0.25 * " + s + "[i - 1] + 0.5 * " + s + "[i] + 0.25 * " +
             s + "[i + 1]\nenddo\n";
        break;
      default:
        t += "do i = 1, " + ns + "\n  " + x + "[i] = 0.75 * " + s +
             "[i] + 1.25 * " + s2 + "[i]\nenddo\n";
        break;
    }
  }
  return t;
}

/// Section 2.7's task farm: processor 0 publishes `sends` jobs under one
/// unbound name and the workers 1..nprocs-1 post `recvs` receives for it
/// in turn. Every send can serve every receive, so the verifier's
/// matching sees one rendezvous group of sends x recvs; sends == recvs is
/// the clean farm.
inline std::string farmText(int nprocs, sec::Index sends, sec::Index recvs) {
  const std::string P = std::to_string(nprocs);
  std::string t = "procs " + P + "\n";
  t += "array W f64 [0:0] (BLOCK:1)\n";
  t += "array M f64 [0:" + std::to_string(nprocs - 1) + "] (BLOCK)\n\n";
  t += "(mypid == 0) : {\n  do t = 1, " + std::to_string(sends) +
       "\n    W[0] = t\n    W[0] ->\n  enddo\n}\n";
  t += "(mypid > 0) : {\n  do t = mypid, " + std::to_string(recvs) + ", " +
       std::to_string(nprocs - 1) +
       "\n    M[mypid] <- W[0]\n    await(M[mypid])\n  enddo\n}\n";
  return t;
}

/// The `serve` workload's halo relaxation: U holds `block` elements per
/// processor (BLOCK). Each of `sweeps` sweeps sends both edge values to
/// the neighbours as bound data messages into halo cells, updates each
/// edge after awaiting the halo it reads, and updates the interior with
/// an `iown`-guarded element loop, the shape the VM's range split takes.
inline std::string haloText(int nprocs, sec::Index block, sec::Index sweeps) {
  const std::string b = std::to_string(block);
  const std::string me = b + " * mypid";
  const std::string lo = me + " + 1", hi = me + " + " + b;
  std::string t = "procs " + std::to_string(nprocs) + "\n";
  const std::string n = std::to_string(nprocs * block);
  t += "array U f64 [1:" + n + "] (BLOCK)\n";
  t += "array HL f64 [0:" + std::to_string(nprocs - 1) + "] (BLOCK)\n";
  t += "array HR f64 [0:" + std::to_string(nprocs - 1) + "] (BLOCK)\n\n";
  t += "fill(U[1:" + n + "])\n";
  t += "do t = 1, " + std::to_string(sweeps) + "\n";
  t += "  (mypid < nprocs - 1) : { U[" + hi + "] -> {mypid + 1} }\n";
  t += "  (mypid > 0) : { U[" + lo + "] -> {mypid - 1} }\n";
  t += "  (mypid > 0) : { HL[mypid] <- U[" + me + "] }\n";
  t += "  (mypid < nprocs - 1) : { HR[mypid] <- U[" + me + " + " +
       std::to_string(block + 1) + "] }\n";
  t += "  (mypid > 0) : {\n    await(HL[mypid])\n    U[" + lo +
       "] = 0.25 * HL[mypid] + 0.5 * U[" + lo + "] + 0.25 * U[" + me +
       " + 2]\n  }\n";
  t += "  (mypid < nprocs - 1) : {\n    await(HR[mypid])\n    U[" + hi +
       "] = 0.25 * U[" + me + " + " + std::to_string(block - 1) +
       "] + 0.5 * U[" + hi + "] + 0.25 * HR[mypid]\n  }\n";
  t += "  do i = " + me + " + 2, " + me + " + " + std::to_string(block - 1) +
       "\n";
  t += "    iown(U[i]) : { U[i] = 0.25 * U[i - 1] + 0.5 * U[i] + 0.25 * "
       "U[i + 1] }\n";
  t += "  enddo\nenddo\n";
  return t;
}

/// The `serve` workload's ownership ring: X's `block`-element blocks
/// travel one processor to the left per step with ownership-and-value
/// transfers (-=> bound to the left neighbour, <=- unbound). At each of
/// `steps` steps a processor awaits the block it holds and folds it into
/// its own block of Y with an unguarded element loop.
inline std::string ringText(int nprocs, sec::Index block, sec::Index steps) {
  const std::string P = std::to_string(nprocs), k = std::to_string(block);
  const std::string last = std::to_string(steps - 1);
  const std::string n1 = std::to_string(nprocs * block - 1);
  auto blockOf = [&](const std::string& j) {
    return "X[" + k + " * " + j + ":" + k + " * " + j + " + " +
           std::to_string(block - 1) + "]";
  };
  std::string t = "procs " + P + "\n";
  t += "array X f64 [0:" + n1 + "] (BLOCK)\n";
  t += "array Y f64 [0:" + n1 + "] (BLOCK)\n\n";
  t += "fill(X[0:" + n1 + "], Y[0:" + n1 + "])\n";
  t += "do s = 0, " + last + "\n";
  t += "  j = (mypid + s) % " + P + "\n";
  t += "  await(" + blockOf("j") + ") : {\n";
  t += "    do e = 0, " + std::to_string(block - 1) + "\n";
  t += "      Y[" + k + " * mypid + e] = 0.5 * Y[" + k +
       " * mypid + e] + 0.75 * X[" + k + " * j + e]\n";
  t += "    enddo\n  }\n";
  t += "  (s < " + last + ") : {\n";
  t += "    " + blockOf("j") + " -=> {(mypid + " + std::to_string(nprocs - 1) +
       ") % " + P + "}\n";
  t += "    " + blockOf("((mypid + s + 1) % " + P + ")") + " <=-\n";
  t += "  }\nenddo\n";
  return t;
}

/// One name bound to two receiving processors with a surplus on each:
/// processor 0 sends W[0] three times to processor 1 (which receives
/// twice) and once to processor 2 (which receives four times), so one
/// send and three receives stay unpaired.
inline constexpr const char* kBoundSurplusText = R"(procs 3
array W f64 [0:0] (BLOCK:1)
array M f64 [0:2] (BLOCK)

fill(W[0:0], M[0:2])
(mypid == 0) : {
  do t = 1, 3
    W[0] -> {1}
  enddo
  W[0] -> {2}
}
(mypid > 0) : {
  do t = 1, 2 * mypid
    M[mypid] <- W[0]
    await(M[mypid])
  enddo
}
)";

/// An element-only loop case for the verifier's loop summary: the shapes
/// it summarizes, and each shape that must unroll instead, with the step
/// count and diagnostics (formatDiagnostics text) of the exact unrolled
/// run, which the summary must reproduce.
struct LoopCase {
  const char* name;
  const char* text;
  std::uint64_t stmts;       ///< VerifyResult::stmtsAnalyzed
  std::uint64_t summarized;  ///< VerifyResult::loopsSummarized
  const char* diagnostics;
};

inline const LoopCase kLoopCases[] = {
    {"loop read past the owned edge", R"(procs 2
array A f64 [1:16] (BLOCK)
array B f64 [1:16] (BLOCK)

fill(A[1:16], B[1:16])
do i = 1, 16
  iown(A[i]) : { A[i] = 0.5 * A[i] + B[i + 1] }
enddo
)",
     102, 0,
     "7:18: error: read of section [9:9] of 'B' that this "
     "processor does not own [not-accessible, p0]\n"},
    {"loop read of an unawaited receive", R"(procs 2
array A f64 [1:16] (BLOCK)
array B f64 [1:16] (BLOCK)

fill(A[1:16], B[1:16])
(mypid == 0) : { A[1:8] -> {1} }
(mypid == 1) : {
  B[9:16] <- A[1:8]
  do i = 9, 16
    iown(B[i]) : { B[i] = 2.0 * B[i] }
  enddo
  await(B[9:16])
}
)",
     46, 0,
     "10:20: error: read of transitional section [9:9] of 'B' "
     "(overlaps an uncompleted receive; await it first) "
     "[not-accessible, p1]\n"},
    {"loop guard on another array", R"(procs 2
array A f64 [1:16] (BLOCK)
array C f64 [1:16] (CYCLIC)

fill(A[1:16], C[1:16])
do i = 1, 16
  iown(A[i]) : { C[i] = A[i] }
enddo
)",
     102, 0,
     "7:18: error: write to section [2:2] of 'C' that this "
     "processor does not own [not-accessible, p0]\n"},
    {"loop stride 3 negative coefficients", R"(procs 2
array A f64 [1:32] (BLOCK)
array B f64 [1:32] (BLOCK)

fill(A[1:32], B[1:32])
do i = 1, 30, 3
  iown(A[33 - i]) : { A[33 - i] = B[33 - i] + 0.5 * B[-1 * i + 33] }
enddo
)",
     66, 2, ""},
    {"loop stride 3 negative coefficients past the edge", R"(procs 2
array A f64 [1:32] (BLOCK)
array B f64 [1:32] (BLOCK)

fill(A[1:32], B[1:32])
do i = 1, 30, 3
  iown(A[33 - i]) : { A[33 - i] = B[36 - i] }
enddo
)",
     66, 0,
     "7:23: error: read of section [17:17] of 'B' that this "
     "processor does not own [not-accessible, p0]\n"},
    {"loop 2-D nest", R"(procs 4
array A f64 [1:8,1:8] (BLOCK:2, BLOCK:2)
array B f64 [1:8,1:8] (BLOCK:2, BLOCK:2)

fill(A[1:8,1:8], B[1:8,1:8])
do j = 1, 8
  do i = 1, 8
    iown(A[i, j]) : { A[i, j] = 0.5 * A[i, j] + B[i, j] }
  enddo
enddo
)",
     716, 32, ""},
    {"loop accessible guard with a pending receive", R"(procs 2
array A f64 [1:16] (BLOCK)
array B f64 [1:16] (BLOCK)

fill(A[1:16], B[1:16])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[9:12] <- A[1:4]
  do i = 10, 16
    accessible(B[i]) : { B[i] = B[i - 1] }
  enddo
  await(B[9:12])
}
)",
     36, 0,
     "10:26: error: read of transitional section [12:12] of 'B' "
     "(overlaps an uncompleted receive; await it first) "
     "[not-accessible, p1]\n"},
    {"loop guard array top", R"(procs 2
array A f64 [1:16] (BLOCK)
array B f64 [1:16] (BLOCK)

fill(A[1:16], B[1:16])
x = A[8 * mypid + 1]
(x > 0.5) : { A[8 * mypid + 1:8 * mypid + 4] => {1 - mypid} }
do i = 1, 16
  iown(A[i]) : { B[i] = 0.5 * B[i] }
enddo
)",
     142, 0,
     "9:18: warning: read of section [9:9] of 'B' that this processor "
     "does not own (in conditionally-executed code) "
     "[not-accessible, p0]\n"},
};

}  // namespace xdp::testprog
