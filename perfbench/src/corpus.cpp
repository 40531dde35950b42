#include "corpus.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

namespace {

/// The fill kernel's value for element `idx` of symbol `sym` (rank 1):
/// apps::cellValueAt, re-derived so the reference links nothing of XDP.
double fillValue(std::uint64_t seed, int sym, std::int64_t idx) {
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(sym + 1) << 56);
  h ^= static_cast<std::uint64_t>(idx + 0x9e37) * 0x9e3779b97f4a7c15ULL;
  h = (h << 13) | (h >> 51);
  Rng sm(h);
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

std::vector<double> filled(std::uint64_t seed, int sym, std::int64_t lb,
                           std::int64_t count) {
  std::vector<double> v(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i)
    v[static_cast<std::size_t>(i)] = fillValue(seed, sym, lb + i);
  return v;
}

/// A coefficient as an f64 literal the parser reads back exactly.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s = buf;
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

std::string str(std::int64_t v) { return std::to_string(v); }

/// `base` moved by up to 1/32 of itself: sizes differ a little per seed
/// (so modeled time is seed-specific) but stay in their class.
std::int64_t jitter(Rng& rng, std::int64_t base) {
  const std::int64_t d = base / 32;
  return base + rng.range(-d, d);
}

const char* kArrayNames[] = {"A", "B", "C", "D", "E", "F", "G", "H"};

// --- text -------------------------------------------------------------------

std::string updateText(const UpdateSpec& s) {
  const std::string n = str(s.n);
  std::string t = "procs " + str(s.nprocs) + "\n";
  for (std::size_t a = 0; a < s.dists.size(); ++a)
    t += std::string("array ") + kArrayNames[a] + " f64 [1:" + n + "] (" +
         s.dists[a] + ")\n";
  t += "\nfill(";
  for (std::size_t a = 0; a < s.dists.size(); ++a)
    t += std::string(a ? ", " : "") + kArrayNames[a] + "[1:" + n + "]";
  t += ")\n";
  for (const UpdateSpec::Stmt& st : s.stmts) {
    t += "do i = " + str(st.lo) + ", " + str(st.hi) + "\n  " +
         kArrayNames[st.dst] + "[i] =";
    for (std::size_t k = 0; k < st.terms.size(); ++k) {
      const UpdateSpec::Term& tm = st.terms[k];
      t += std::string(k ? " + " : " ") + num(tm.coef) + " * " +
           kArrayNames[tm.src] + "[i";
      if (tm.off > 0) t += " + " + str(tm.off);
      if (tm.off < 0) t += " - " + str(-tm.off);
      t += "]";
    }
    t += "\nenddo\n";
  }
  return t;
}

std::string haloText(const HaloSpec& s) {
  const std::string b = str(s.block);
  const std::string me = b + " * mypid";
  const std::string lo = me + " + 1", hi = me + " + " + b;
  const std::string c0 = num(s.c0) + " * ", c1 = " + " + num(s.c1) + " * ",
                    c2 = " + " + num(s.c2) + " * ";
  std::string t = "procs " + str(s.nprocs) + "\n";
  t += "array U f64 [1:" + str(s.nprocs * s.block) + "] (BLOCK)\n";
  t += "array HL f64 [0:" + str(s.nprocs - 1) + "] (BLOCK)\n";
  t += "array HR f64 [0:" + str(s.nprocs - 1) + "] (BLOCK)\n\n";
  t += "fill(U[1:" + str(s.nprocs * s.block) + "])\n";
  t += "do t = 1, " + str(s.sweeps) + "\n";
  t += "  (mypid < nprocs - 1) : { U[" + hi + "] -> {mypid + 1} }\n";
  t += "  (mypid > 0) : { U[" + lo + "] -> {mypid - 1} }\n";
  t += "  (mypid > 0) : { HL[mypid] <- U[" + me + "] }\n";
  t += "  (mypid < nprocs - 1) : { HR[mypid] <- U[" + me + " + " +
       str(s.block + 1) + "] }\n";
  t += "  (mypid > 0) : {\n    await(HL[mypid])\n    U[" + lo + "] = " + c0 +
       "HL[mypid]" + c1 + "U[" + lo + "]" + c2 + "U[" + me + " + 2]\n  }\n";
  t += "  (mypid < nprocs - 1) : {\n    await(HR[mypid])\n    U[" + hi +
       "] = " + c0 + "U[" + me + " + " + str(s.block - 1) + "]" + c1 + "U[" +
       hi + "]" + c2 + "HR[mypid]\n  }\n";
  t += "  do i = " + me + " + 2, " + me + " + " + str(s.block - 1) + "\n";
  t += "    iown(U[i]) : { U[i] = " + c0 + "U[i - 1]" + c1 + "U[i]" + c2 +
       "U[i + 1] }\n";
  t += "  enddo\nenddo\n";
  return t;
}

std::string ringText(const RingSpec& s) {
  const std::string P = str(s.nprocs), k = str(s.block);
  const std::string last = str(s.steps - 1);
  auto blockOf = [&](const std::string& j) {
    return "X[" + k + " * " + j + ":" + k + " * " + j + " + " +
           str(s.block - 1) + "]";
  };
  std::string t = "procs " + P + "\n";
  t += "array X f64 [0:" + str(s.nprocs * s.block - 1) + "] (BLOCK)\n";
  t += "array Y f64 [0:" + str(s.nprocs * s.block - 1) + "] (BLOCK)\n\n";
  t += "fill(X[0:" + str(s.nprocs * s.block - 1) + "], Y[0:" +
       str(s.nprocs * s.block - 1) + "])\n";
  t += "do s = 0, " + last + "\n";
  t += "  j = (mypid + s) % " + P + "\n";
  t += "  await(" + blockOf("j") + ") : {\n";
  t += "    do e = 0, " + str(s.block - 1) + "\n";
  t += "      Y[" + k + " * mypid + e] = " + num(s.c0) + " * Y[" + k +
       " * mypid + e] + " + num(s.c1) + " * X[" + k + " * j + e]\n";
  t += "    enddo\n  }\n";
  t += "  (s < " + last + ") : {\n";
  t += "    " + blockOf("j") + " -=> {(mypid + " + str(s.nprocs - 1) +
       ") % " + P + "}\n";
  t += "    " + blockOf("((mypid + s + 1) % " + P + ")") + " <=-\n";
  t += "  }\nenddo\n";
  return t;
}

std::string farmText(const FarmSpec& s) {
  const std::string P = str(s.nprocs), J = str(s.jobs);
  std::string t = "procs " + P + "\n";
  t += "array W f64 [0:0] (BLOCK:1)\n";
  t += "array M f64 [0:" + str(s.nprocs - 1) + "] (BLOCK)\n";
  t += "array A f64 [0:" + str(s.nprocs - 1) + "] (BLOCK)\n";
  t += "array R f64 [1:" + str(s.nprocs - 1) + "] (BLOCK:1)\n";
  t += "array S f64 [0:0] (BLOCK:1)\n\n";
  t += "(mypid == 0) : {\n  do t = 1, " + J + "\n    W[0] = t\n    W[0] ->\n"
       "  enddo\n}\n";
  t += "(mypid > 0) : {\n  do t = mypid, " + J + ", " + str(s.nprocs - 1) +
       "\n    M[mypid] <- W[0]\n    await(M[mypid])\n"
       "    A[mypid] = A[mypid] + M[mypid]\n  enddo\n  M[mypid] = 0.0\n"
       "  A[mypid] -> {0}\n}\n";
  t += "(mypid == 0) : {\n  do w = 1, " + str(s.nprocs - 1) +
       "\n    R[w] <- A[w]\n    await(R[w])\n    S[0] = S[0] + R[w]\n"
       "    R[w] = 0.0\n  enddo\n}\n";
  t += "(mypid > 0) : { A[mypid] = 0.0 }\n";
  return t;
}

// --- references -------------------------------------------------------------

RefResult updateRef(const UpdateSpec& s, std::uint64_t seed) {
  RefResult r;
  for (std::size_t a = 0; a < s.dists.size(); ++a)
    r.push_back({kArrayNames[a], filled(seed, int(a), 1, s.n)});
  for (const UpdateSpec::Stmt& st : s.stmts) {
    std::vector<double>& dst = r[static_cast<std::size_t>(st.dst)].values;
    for (std::int64_t i = st.lo; i <= st.hi; ++i) {
      double v = 0.0;
      for (std::size_t k = 0; k < st.terms.size(); ++k) {
        const UpdateSpec::Term& tm = st.terms[k];
        const double x = r[static_cast<std::size_t>(tm.src)]
                             .values[static_cast<std::size_t>(i + tm.off - 1)];
        v = k == 0 ? tm.coef * x : v + tm.coef * x;
      }
      dst[static_cast<std::size_t>(i - 1)] = v;
    }
  }
  return r;
}

RefResult haloRef(const HaloSpec& s, std::uint64_t seed) {
  const std::int64_t P = s.nprocs, b = s.block;
  std::vector<double> u = filled(seed, 0, 1, P * b);
  std::vector<double> hl(static_cast<std::size_t>(P), 0.0), hr = hl;
  auto U = [&u](std::int64_t i) -> double& {
    return u[static_cast<std::size_t>(i - 1)];
  };
  std::vector<double> leftEdge(static_cast<std::size_t>(P)),
      rightEdge(static_cast<std::size_t>(P));
  for (std::int64_t t = 0; t < s.sweeps; ++t) {
    // Every edge value is sent before its owner updates it in this sweep.
    for (std::int64_t p = 0; p < P; ++p) {
      leftEdge[static_cast<std::size_t>(p)] = U(p * b + 1);
      rightEdge[static_cast<std::size_t>(p)] = U(p * b + b);
    }
    for (std::int64_t p = 0; p < P; ++p) {
      const std::int64_t lo = p * b + 1, hi = p * b + b;
      const auto q = static_cast<std::size_t>(p);
      if (p > 0) {
        hl[q] = rightEdge[q - 1];
        U(lo) = s.c0 * hl[q] + s.c1 * U(lo) + s.c2 * U(lo + 1);
      }
      if (p < P - 1) {
        hr[q] = leftEdge[q + 1];
        U(hi) = s.c0 * U(hi - 1) + s.c1 * U(hi) + s.c2 * hr[q];
      }
      for (std::int64_t i = lo + 1; i <= hi - 1; ++i)
        U(i) = s.c0 * U(i - 1) + s.c1 * U(i) + s.c2 * U(i + 1);
    }
  }
  return {{"U", u}, {"HL", hl}, {"HR", hr}};
}

RefResult ringRef(const RingSpec& s, std::uint64_t seed) {
  const std::int64_t P = s.nprocs, k = s.block;
  std::vector<double> x = filled(seed, 0, 0, P * k);
  std::vector<double> y = filled(seed, 1, 0, P * k);
  for (std::int64_t p = 0; p < P; ++p)
    for (std::int64_t st = 0; st < s.steps; ++st) {
      const std::int64_t j = (p + st) % P;
      for (std::int64_t e = 0; e < k; ++e) {
        double& yv = y[static_cast<std::size_t>(k * p + e)];
        yv = s.c0 * yv + s.c1 * x[static_cast<std::size_t>(k * j + e)];
      }
    }
  return {{"X", x}, {"Y", y}};
}

RefResult farmRef(const FarmSpec& s) {
  const auto P = static_cast<std::size_t>(s.nprocs);
  const auto J = static_cast<double>(s.jobs);
  return {{"W", {J}},
          {"M", std::vector<double>(P, 0.0)},
          {"A", std::vector<double>(P, 0.0)},
          {"R", std::vector<double>(P - 1, 0.0)},
          {"S", {J * (J + 1) / 2}}};
}

template <class... Fs>
struct Overload : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overload(Fs...) -> Overload<Fs...>;

}  // namespace

Program makeProgram(Spec spec) {
  Program p;
  p.text = std::visit(Overload{
                          [](const UpdateSpec& s) { return updateText(s); },
                          [](const HaloSpec& s) { return haloText(s); },
                          [](const RingSpec& s) { return ringText(s); },
                          [](const FarmSpec& s) { return farmText(s); },
                      },
                      spec);
  p.scheduleDependentTime = std::holds_alternative<FarmSpec>(spec);
  p.spec = std::move(spec);
  return p;
}

RefResult reference(const Program& p, std::uint64_t fillSeed) {
  return std::visit(
      Overload{
          [&](const UpdateSpec& s) { return updateRef(s, fillSeed); },
          [&](const HaloSpec& s) { return haloRef(s, fillSeed); },
          [&](const RingSpec& s) { return ringRef(s, fillSeed); },
          [&](const FarmSpec& s) { return farmRef(s); },
      },
      p.spec);
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest(const RefResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const RefArray& a : r) {
    std::string bytes(a.values.size() * sizeof(double), '\0');
    std::memcpy(bytes.data(), a.values.data(), bytes.size());
    h = fnv1a(bytes, h);
  }
  return h;
}

// --- generators ---------------------------------------------------------------

UpdateSpec drawUpdate(Rng& rng, int nprocs, int sizeClass) {
  struct Class {
    std::int64_t n;
    int arrays;
    int stmts;
  };
  // Static size (statements, arrays) and dynamic size (n) grow together
  // across the classes; the verifier's exact unrolling makes the dynamic
  // size the larger cost.
  static const Class kClasses[kUpdateClasses] = {
      {192, 3, 4}, {256, 4, 5}, {320, 5, 6}, {384, 6, 7}};
  if (sizeClass < 0 || sizeClass >= kUpdateClasses)
    throw std::invalid_argument("update size class out of range");
  const Class& c = kClasses[sizeClass];
  // Each array gets a different placement, so every statement that reads
  // another array moves data and cost varies little within a class.
  static const std::vector<std::string> kDists = {
      "BLOCK", "CYCLIC", "CYCLIC(4)", "CYCLIC(2)", "CYCLIC(8)", "CYCLIC(16)"};
  static const std::vector<double> kCoefs = {0.25, 0.5, 0.75, 1.25, 1.5};
  auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1],
                v[static_cast<std::size_t>(rng.range(0, std::int64_t(i) - 1))]);
  };

  UpdateSpec s;
  s.nprocs = nprocs;
  s.n = jitter(rng, c.n);
  s.dists.assign(kDists.begin(), kDists.begin() + c.arrays);
  shuffle(s.dists);
  auto other = [&](int not_) {
    int a = static_cast<int>(rng.range(0, c.arrays - 2));
    return a >= not_ ? a + 1 : a;
  };
  // Element-wise updates, stencils and combinations in turn, in a seeded
  // order.
  std::vector<int> kinds;
  for (int k = 0; k < c.stmts; ++k) kinds.push_back(k % 3);
  shuffle(kinds);
  for (int kind : kinds) {
    UpdateSpec::Stmt st;
    st.dst = static_cast<int>(rng.range(0, c.arrays - 1));
    switch (kind) {
      case 0:  // element-wise update in place: X = c0*X + c1*Y
        st.lo = 1;
        st.hi = s.n;
        st.terms = {{st.dst, 0, rng.pick(kCoefs)},
                    {other(st.dst), 0, rng.pick(kCoefs)}};
        break;
      case 1: {  // 3-point stencil from another array
        const int src = other(st.dst);
        st.lo = 2;
        st.hi = s.n - 1;
        st.terms = {{src, -1, rng.pick(kCoefs)},
                    {src, 0, rng.pick(kCoefs)},
                    {src, 1, rng.pick(kCoefs)}};
        break;
      }
      default:  // combination of two other arrays
        st.lo = 1;
        st.hi = s.n;
        st.terms = {{other(st.dst), 0, rng.pick(kCoefs)},
                    {other(st.dst), 0, rng.pick(kCoefs)}};
        break;
    }
    s.stmts.push_back(std::move(st));
  }
  return s;
}

HaloSpec drawHalo(Rng& rng, int nprocs, std::int64_t block,
                  std::int64_t sweeps) {
  static const std::vector<std::array<double, 3>> kCoefs = {
      {0.25, 0.5, 0.25}, {0.125, 0.75, 0.125}, {0.375, 0.25, 0.375},
      {0.5, 0.25, 0.25}};
  HaloSpec s;
  s.nprocs = nprocs;
  s.block = jitter(rng, block);
  s.sweeps = jitter(rng, sweeps);
  const auto& c = rng.pick(kCoefs);
  s.c0 = c[0];
  s.c1 = c[1];
  s.c2 = c[2];
  return s;
}

RingSpec drawRing(Rng& rng, int nprocs, std::int64_t block,
                  std::int64_t steps) {
  static const std::vector<double> kC0 = {0.25, 0.5, 0.75};
  static const std::vector<double> kC1 = {0.5, 0.75, 1.5};
  RingSpec s;
  s.nprocs = nprocs;
  s.block = jitter(rng, block);
  s.steps = jitter(rng, steps);
  s.c0 = rng.pick(kC0);
  s.c1 = rng.pick(kC1);
  return s;
}

FarmSpec drawFarm(Rng& rng, int nprocs, std::int64_t jobsPerWorker) {
  FarmSpec s;
  s.nprocs = nprocs;
  s.jobs = (nprocs - 1) * jitter(rng, jobsPerWorker);
  return s;
}

}  // namespace perfbench
