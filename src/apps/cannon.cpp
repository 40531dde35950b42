#include "xdp/apps/cannon.hpp"

#include "xdp/apps/programs.hpp"
#include "xdp/support/check.hpp"

namespace xdp::apps {

using dist::DimSpec;
using dist::Distribution;
using sec::Index;
using sec::Point;
using sec::Section;
using sec::Triplet;

namespace {

struct Grid {
  Index n, b;
  int q;

  int pidOf(int row, int col) const { return row + q * col; }
  int rowOf(int pid) const { return pid % q; }
  int colOf(int pid) const { return pid / q; }

  /// Section of block (br, bc), 0-based block coordinates.
  Section block(int br, int bc) const {
    return Section{Triplet(br * b + 1, (br + 1) * b),
                   Triplet(bc * b + 1, (bc + 1) * b)};
  }
};

double aInit(const CannonConfig& cfg, Index r, Index c) {
  return cellValueAt(cfg.seed, 0, Point{r, c});
}
double bInit(const CannonConfig& cfg, Index r, Index c) {
  return cellValueAt(cfg.seed, 1, Point{r, c});
}

/// C-block += A-block * B-block, all b x b in Fortran (column-major) order.
void gemmAcc(std::vector<double>& c, const std::vector<double>& a,
             const std::vector<double>& bm, Index b) {
  for (Index j = 0; j < b; ++j)
    for (Index k = 0; k < b; ++k) {
      const double bkj = bm[static_cast<std::size_t>(k + b * j)];
      for (Index i = 0; i < b; ++i)
        c[static_cast<std::size_t>(i + b * j)] +=
            a[static_cast<std::size_t>(i + b * k)] * bkj;
    }
}

}  // namespace

CannonResult runCannon(const CannonConfig& cfg) {
  XDP_CHECK(cfg.q >= 2, "cannon needs a processor grid of at least 2x2");
  XDP_CHECK(cfg.n % cfg.q == 0, "matrix edge must divide by the grid edge");
  const Grid gr{cfg.n, cfg.n / cfg.q, cfg.q};
  const int P = cfg.q * cfg.q;

  rt::Runtime runtime(P);
  Section g{Triplet(1, cfg.n), Triplet(1, cfg.n)};
  Distribution d2(g, {DimSpec::block(cfg.q), DimSpec::block(cfg.q)});
  const int A = runtime.declareArray<double>("A", g, d2);
  const int B = runtime.declareArray<double>("B", g, d2);
  const int C = runtime.declareArray<double>("C", g, d2);
  const bool own = cfg.plan == ShiftPlan::OwnershipShift;
  // In-buffers exist only under the DataShift plan — the ownership plan
  // needs no auxiliary storage at all (section 2.6's storage reuse).
  const int AIN =
      own ? -1 : runtime.declareArray<double>("AIN", g, d2);
  const int BIN =
      own ? -1 : runtime.declareArray<double>("BIN", g, d2);
  const Index b = gr.b;

  runtime.run([&](rt::Proc& p) {
    const int i = gr.rowOf(p.mypid());
    const int j = gr.colOf(p.mypid());
    Section home = gr.block(i, j);

    // Initialize my home blocks.
    {
      std::vector<double> av, bv;
      av.reserve(static_cast<std::size_t>(b * b));
      bv.reserve(static_cast<std::size_t>(b * b));
      home.forEach([&](const Point& pt) {
        av.push_back(aInit(cfg, pt[0], pt[1]));
        bv.push_back(bInit(cfg, pt[0], pt[1]));
      });
      p.write<double>(A, home, av);
      p.write<double>(B, home, bv);
    }
    p.barrier();

    // --- skew: A-block (i,j) -> (i, j-i); B-block (i,j) -> (i-j, j) ----
    const int aSkewDst = gr.pidOf(i, (j - i + cfg.q) % cfg.q);
    const int bSkewDst = gr.pidOf((i - j + cfg.q) % cfg.q, j);
    // After the skew, I hold A(i, i+j) and B(i+j, j).
    int aCol = (i + j) % cfg.q;  // current A block column
    int bRow = (i + j) % cfg.q;  // current B block row
    if (own) {
      if (aSkewDst != p.mypid()) {
        p.sendOwnership(A, home, true, std::vector<int>{aSkewDst});
        p.recvOwnership(A, gr.block(i, aCol), true);
      }
      if (bSkewDst != p.mypid()) {
        p.sendOwnership(B, home, true, std::vector<int>{bSkewDst});
        p.recvOwnership(B, gr.block(bRow, j), true);
      }
    } else {
      // Values travel; home storage keeps the (relabelled) blocks.
      if (aSkewDst != p.mypid()) {
        p.send(A, home, std::vector<int>{aSkewDst});
        // My incoming block is A(i, i+j), whose home is proc (i, i+j).
        p.recv(AIN, home, A, gr.block(i, aCol));
        p.await(AIN, home);
      }
      if (bSkewDst != p.mypid()) {
        p.send(B, home, std::vector<int>{bSkewDst});
        p.recv(BIN, home, B, gr.block(bRow, j));
        p.await(BIN, home);
      }
      p.barrier();  // all sends of this exchange retired before overwrite
      if (aSkewDst != p.mypid()) {
        auto v = p.read<double>(AIN, home);
        p.write<double>(A, home, v);
      }
      if (bSkewDst != p.mypid()) {
        auto v = p.read<double>(BIN, home);
        p.write<double>(B, home, v);
      }
      p.barrier();
    }

    std::vector<double> cAcc(static_cast<std::size_t>(b * b), 0.0);
    const int left = gr.pidOf(i, (j - 1 + cfg.q) % cfg.q);
    const int up = gr.pidOf((i - 1 + cfg.q) % cfg.q, j);

    for (int s = 0; s < cfg.q; ++s) {
      std::vector<double> av, bv;
      if (own) {
        Section aBlk = gr.block(i, aCol);
        Section bBlk = gr.block(bRow, j);
        p.await(A, aBlk);
        p.await(B, bBlk);
        av = p.read<double>(A, aBlk);
        bv = p.read<double>(B, bBlk);
        gemmAcc(cAcc, av, bv, b);
        if (cfg.flopCost > 0)
          p.compute(cfg.flopCost * static_cast<double>(b * b * b));
        if (s + 1 < cfg.q) {
          // Shift: my A block migrates left, my B block migrates up.
          p.sendOwnership(A, aBlk, true, std::vector<int>{left});
          p.sendOwnership(B, bBlk, true, std::vector<int>{up});
          aCol = (aCol + 1) % cfg.q;
          bRow = (bRow + 1) % cfg.q;
          p.recvOwnership(A, gr.block(i, aCol), true);
          p.recvOwnership(B, gr.block(bRow, j), true);
        }
      } else {
        av = p.read<double>(A, home);
        bv = p.read<double>(B, home);
        gemmAcc(cAcc, av, bv, b);
        if (cfg.flopCost > 0)
          p.compute(cfg.flopCost * static_cast<double>(b * b * b));
        if (s + 1 < cfg.q) {
          p.send(A, home, std::vector<int>{left});
          p.send(B, home, std::vector<int>{up});
          // The values now landing in my buffers are whatever my right /
          // down neighbour held — by construction blocks A(i, aCol+1)
          // and B(bRow+1, j), but the message is *named* by the sender's
          // home block.
          const int right = gr.pidOf(i, (j + 1) % cfg.q);
          const int down = gr.pidOf((i + 1) % cfg.q, j);
          p.recv(AIN, home, A, gr.block(gr.rowOf(right), gr.colOf(right)));
          p.recv(BIN, home, B, gr.block(gr.rowOf(down), gr.colOf(down)));
          p.await(AIN, home);
          p.await(BIN, home);
          p.barrier();  // sends retired before the overwrite below
          auto va = p.read<double>(AIN, home);
          p.write<double>(A, home, va);
          auto vb = p.read<double>(BIN, home);
          p.write<double>(B, home, vb);
          aCol = (aCol + 1) % cfg.q;
          bRow = (bRow + 1) % cfg.q;
          p.barrier();
        }
      }
    }
    p.write<double>(C, home, cAcc);
  });

  CannonResult r;
  r.c = gatherF64(runtime, C, g);
  r.net = runtime.fabric().totalStats();
  r.makespan = runtime.fabric().makespan();
  for (int pid = 0; pid < P; ++pid) {
    std::size_t peak = 0;
    for (int sym : {A, B, C, AIN, BIN}) {
      if (sym < 0) continue;
      peak += runtime.table(pid).storageStats(sym).peakElems;
    }
    r.peakElemsPerProc = std::max(r.peakElemsPerProc, peak);
  }
  return r;
}

std::vector<double> cannonReference(const CannonConfig& cfg) {
  const Index n = cfg.n;
  std::vector<double> a(static_cast<std::size_t>(n * n)),
      bm(static_cast<std::size_t>(n * n)), c(static_cast<std::size_t>(n * n));
  for (Index col = 1; col <= n; ++col)
    for (Index row = 1; row <= n; ++row) {
      a[static_cast<std::size_t>((row - 1) + n * (col - 1))] =
          aInit(cfg, row, col);
      bm[static_cast<std::size_t>((row - 1) + n * (col - 1))] =
          bInit(cfg, row, col);
    }
  for (Index col = 1; col <= n; ++col)
    for (Index k = 1; k <= n; ++k) {
      const double bkj = bm[static_cast<std::size_t>((k - 1) + n * (col - 1))];
      for (Index row = 1; row <= n; ++row)
        c[static_cast<std::size_t>((row - 1) + n * (col - 1))] +=
            a[static_cast<std::size_t>((row - 1) + n * (k - 1))] * bkj;
    }
  return c;
}

}  // namespace xdp::apps
