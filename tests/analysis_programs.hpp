// Source-text program generators shared by the analysis tests and
// bench_analysis: the rank-1 update shape of the end-to-end `compile`
// benchmark workload, and the rendezvous task farm of the `exchange`
// workload with adjustable send and receive counts.
#pragma once

#include <cstddef>
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

}  // namespace xdp::testprog
