// Fault injection and exact deadlock diagnosis, end to end.
//
// Three acts:
//   1. jacobi, clean — the paper's perfectly reliable machine.
//   2. jacobi under a non-lossy fault plan (duplicates + delays +
//      reordering), enabled via net::FaultScope with ZERO changes to the
//      application: the answer is bit-identical to the reference, and the
//      injector's counters show how much abuse the run absorbed.
//   3. a deliberately broken program (a receive nobody answers) under a
//      lossy plan: instead of hanging, the scheduler sees that no
//      processor can run and every blocked wait fails at once with a
//      DeadlockError whose report names the blocked processors, the
//      unmatched names and the owning sections.
#include <cstdio>

#include "xdp/apps/jacobi.hpp"
#include "xdp/rt/proc.hpp"

using namespace xdp;
using dist::DimSpec;
using dist::Distribution;
using sec::Section;
using sec::Triplet;

int main() {
  apps::JacobiConfig cfg;
  cfg.rows = 24;
  cfg.cols = 24;
  cfg.nprocs = 4;
  cfg.iterations = 8;

  // Act 1: the reliable machine.
  const auto clean = apps::runJacobi(cfg);
  std::printf("clean run:   %llu messages, makespan %.1f\n",
              static_cast<unsigned long long>(clean.net.messagesSent),
              clean.makespan);

  // Act 2: same program, hostile transport.
  net::FaultPlan plan;
  plan.seed = 2026;
  plan.dupProb = 0.25;
  plan.delayProb = 0.30;
  plan.maxDelay = 50.0;
  plan.reorderProb = 0.25;
  {
    net::FaultScope faults(plan);
    const auto faulty = apps::runJacobi(cfg);
    const bool exact = faulty.grid == apps::jacobiReference(cfg);
    std::printf("faulted run: %llu messages, makespan %.1f, %s\n",
                static_cast<unsigned long long>(faulty.net.messagesSent),
                faulty.makespan,
                exact ? "result EXACT despite faults" : "RESULT CORRUPTED");
  }

  // Act 3: a hang, diagnosed. Drop every message and wait for one.
  rt::RuntimeOptions opts;
  opts.debugChecks = true;
  net::FaultPlan lossy;
  lossy.dropProb = 1.0;
  opts.faultPlan = lossy;
  rt::Runtime runtime(2, opts);
  Section g{Triplet(1, 8)};
  const int A = runtime.declareArray<double>(
      "A", g, Distribution(g, {DimSpec::block(2)}));
  try {
    runtime.run([&](rt::Proc& p) {
      if (p.mypid() == 0) {
        p.send(A, Section{Triplet(1, 4)}, std::vector<int>{1});
      } else {
        p.recv(A, Section{Triplet(5, 8)}, A, Section{Triplet(1, 4)});
        p.await(A, Section{Triplet(5, 8)});  // the message was dropped
      }
    });
    std::printf("unexpectedly completed?\n");
    return 1;
  } catch (const DeadlockError& e) {
    std::printf("\ndeadlock diagnosed: %s\n%s", e.summary().c_str(),
                e.report().c_str());
  }
  return 0;
}
