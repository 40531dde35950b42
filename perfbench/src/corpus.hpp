// Seeded program corpus for the end-to-end benchmark, and the plain
// sequential reference every generated program is checked against.
//
// Each program is a small parameter record; its .xdp text and its
// reference result are both derived from that record. The reference uses
// nothing from the XDP libraries (no parser, pass, interpreter, runtime or
// fabric code): it replays the program's semantics with ordinary loops over
// std::vector<double>. Only the fill kernel's value hash is re-derived here,
// so that the reference starts from the same initial data.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace perfbench {

/// splitmix64. The corpus has its own generator so that a change to the
/// library's RNG never changes the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(range(0, std::int64_t(v.size()) - 1))];
  }

 private:
  std::uint64_t state_;
};

/// Source-form (sequential) loop nest over several 1-D arrays of [1:n]:
/// each statement is `do i = lo, hi: X[i] = c0 * Y[i+o0] + c1 * Z[i+o1]...`,
/// the owner-computes pipeline's input. A term reading the assigned array
/// always has offset 0, so the sequential result is independent of the
/// SPMD schedule the compiler derives.
struct UpdateSpec {
  struct Term {
    int src = 0;
    int off = 0;
    double coef = 1.0;
  };
  struct Stmt {
    int dst = 0;
    std::int64_t lo = 1, hi = 1;
    std::vector<Term> terms;
  };
  int nprocs = 2;
  std::int64_t n = 0;
  std::vector<std::string> dists;  ///< one distribution spec per array
  std::vector<Stmt> stmts;
};

/// SPMD 1-D relaxation over U[1:P*b] (BLOCK): per sweep each processor
/// sends its edge values to its neighbours with direct sends, receives
/// their edges into halo cells HL/HR, updates its two boundary points
/// after awaiting the halo each reads, then its interior points under an
/// iown guard. Same shape as examples/programs/jacobi.xdp.
struct HaloSpec {
  int nprocs = 2;
  std::int64_t block = 0;
  std::int64_t sweeps = 0;
  double c0 = 0.25, c1 = 0.5, c2 = 0.25;
};

/// Cannon-style ring over X[0:P*k-1] (BLOCK): at step s processor p holds
/// block (p+s)%P of X, folds it into its own block of Y, then moves it to
/// its left neighbour by ownership+value transfer (`-=>` / `<=-`). Same
/// shape as examples/programs/cannon.xdp with k-element blocks.
struct RingSpec {
  int nprocs = 2;
  std::int64_t block = 0;
  std::int64_t steps = 0;
  double c0 = 0.5, c1 = 0.75;
};

/// Section 2.7 task farm: processor 0 publishes `jobs` values through
/// unspecified-destination sends, workers draw them through the
/// rendezvous matchmaker and accumulate what they draw, then send their
/// sums to processor 0 and clear every schedule-dependent cell. Which
/// worker draws which job depends on match order; the final state
/// (W[0] = jobs, S[0] = jobs*(jobs+1)/2, everything else 0) does not.
struct FarmSpec {
  int nprocs = 2;
  std::int64_t jobs = 0;
};

using Spec = std::variant<UpdateSpec, HaloSpec, RingSpec, FarmSpec>;

struct Program {
  Spec spec;
  std::string text;  ///< the .xdp source handed to the system under test
  /// Modeled makespan depends on rendezvous match order (task farms), so
  /// the program is left out of modeled_ms.
  bool scheduleDependentTime = false;
};

Program makeProgram(Spec spec);

/// Final contents of one declared array, in global Fortran order.
struct RefArray {
  std::string name;
  std::vector<double> values;
};
/// Every declared array, in declaration order.
using RefResult = std::vector<RefArray>;

/// The program's result computed by plain sequential C++ from its spec.
/// `fillSeed` is the fill kernel's seed (xdpc and serve both default to 42).
RefResult reference(const Program& p, std::uint64_t fillSeed);

/// FNV-1a over every array's element bytes in declaration order: the
/// definition SessionReport::resultDigest documents.
std::uint64_t digest(const RefResult& r);

/// FNV-1a over a string (corpus hashes).
std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL);

// --- generators -------------------------------------------------------------
// Each draws one program of a fixed size class; the seed varies structure,
// coefficients and a few percent of size, never the class itself.

/// Size classes of the compile workload (static size x dynamic size).
constexpr int kUpdateClasses = 4;
UpdateSpec drawUpdate(Rng& rng, int nprocs, int sizeClass);
HaloSpec drawHalo(Rng& rng, int nprocs, std::int64_t block,
                  std::int64_t sweeps);
RingSpec drawRing(Rng& rng, int nprocs, std::int64_t block,
                  std::int64_t steps);
FarmSpec drawFarm(Rng& rng, int nprocs, std::int64_t jobsPerWorker);

}  // namespace perfbench
