// xdpc — the XDP compiler driver.
//
// Reads an IL+XDP program in the textual dialect (see src/il/parser.hpp),
// applies an optimization pipeline, and prints and/or executes the result
// on the simulated SPMD machine.
//
//   xdpc prog.xdp --print                        # parse + pretty-print
//   xdpc prog.xdp --analyze                      # static Figure-1 verifier
//   xdpc prog.xdp --pipeline --print             # the standard pipeline
//   xdpc prog.xdp --pipeline --verify-passes     # re-verify after each pass
//   xdpc prog.xdp --passes lower-owner-computes,comm-binding --run
//   xdpc prog.xdp --pipeline --run --trace       # per-pass program dumps
//
// --run registers the built-in kernels ("fill" with --seed, "fft1d") and
// reports traffic and modeled-time statistics after the SPMD region.
//
// Exit codes: 0 = success, 1 = diagnostics reported or a compile/run
// failure, 2 = usage error (bad flag or option value, unknown pass,
// missing file).
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "xdp/analysis/cost.hpp"
#include "xdp/analysis/verifier.hpp"
#include "xdp/apps/fft.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/il/printer.hpp"
#include "xdp/opt/auto_place.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/support/cli.hpp"
#include "xdp/support/json.hpp"

namespace {

using namespace xdp;

std::map<std::string, opt::PassFn> passRegistry() {
  return {
      {"lower-owner-computes", opt::lowerOwnerComputes},
      {"redundant-transfer-elim", opt::redundantTransferElimination},
      {"dead-array-elim", opt::deadArrayElimination},
      {"message-vectorize", opt::messageVectorization},
      {"compute-rule-elim", opt::computeRuleElimination},
      {"single-iteration-elim", opt::singleIterationElimination},
      {"loop-fusion", opt::loopFusion},
      {"await-sinking", opt::awaitSinking},
      {"const-fold", opt::constantFolding},
      {"recv-hoisting", opt::recvHoisting},
      {"comm-binding", opt::commBinding},
  };
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [options]\n"
               "  --print            pretty-print the (optimized) program\n"
               "  --parseable        print in the re-parseable dialect\n"
               "  --pipeline         apply the standard pass pipeline\n"
               "  --passes a,b,c     apply the named passes in order\n"
               "  --list-passes      list available passes\n"
               "  --analyze          statically verify the Figure-1 section-\n"
               "                     state rules (after any passes applied);\n"
               "                     exit 1 if errors are found\n"
               "  --cost             static communication-cost report: per-\n"
               "                     statement modeled bytes/messages, the\n"
               "                     placement lower bound and %% of optimal\n"
               "  --auto-place       search BLOCK/CYCLIC/CYCLIC(b) placements\n"
               "                     per array, rewrite declarations to the\n"
               "                     modeled-bytes argmin (before any passes)\n"
               "  --format=json      machine-readable --analyze/--cost/\n"
               "                     --auto-place output (stable keys)\n"
               "  --verify-passes    re-run the verifier after every pass and\n"
               "                     fail on the pass that introduces a\n"
               "                     violation (implies --pipeline if no\n"
               "                     passes are named)\n"
               "  --run              execute on the simulated machine\n"
               "  --debug-checks     enforce the Figure-1 usage rules\n"
               "  --seed N           fill-kernel seed (default 42)\n"
               "  --checkpoint-dir DIR\n"
               "                     persist coordinated snapshots to DIR\n"
               "                     during --run (ckpt-NNNNNNNN.xdpckpt)\n"
               "  --checkpoint-interval N\n"
               "                     auto-checkpoint every N executed\n"
               "                     statements (default 1024 when only\n"
               "                     --checkpoint-dir is given)\n"
               "  --trace            dump the program after every pass\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::vector<std::string> passNames;
  bool print = false, parseable = false, run = false, trace = false;
  bool debugChecks = false, analyze = false, verifyPasses = false;
  bool cost = false, autoPlace = false, jsonFormat = false;
  std::uint64_t seed = 42;
  std::string ckptDir;
  std::uint64_t ckptInterval = 0;

  // Every numeric option goes through the one checked parser: a
  // malformed, signed or out-of-range value is a usage error.
  auto number = [&](int& i, std::uint64_t& out) {
    if (++i >= argc) return false;
    const auto v = cli::parseNumber<std::uint64_t>(
        argv[i], 0, std::numeric_limits<std::uint64_t>::max());
    if (!v) {
      std::fprintf(stderr, "xdpc: bad value for %s: '%s'\n", argv[i - 1],
                   argv[i]);
      return false;
    }
    out = *v;
    return true;
  };

  auto reg = passRegistry();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print") print = true;
    else if (arg == "--parseable") parseable = true;
    else if (arg == "--run") run = true;
    else if (arg == "--trace") trace = true;
    else if (arg == "--debug-checks") debugChecks = true;
    else if (arg == "--analyze") analyze = true;
    else if (arg == "--cost") cost = true;
    else if (arg == "--auto-place") autoPlace = true;
    else if (arg == "--format=json") jsonFormat = true;
    else if (arg == "--format=text") jsonFormat = false;
    else if (arg == "--verify-passes") verifyPasses = true;
    else if (arg == "--pipeline") {
      for (const auto& p : opt::standardPipeline()) passNames.push_back(p.name);
    } else if (arg == "--passes") {
      if (++i >= argc) return usage(argv[0]);
      std::stringstream ss(argv[i]);
      std::string name;
      while (std::getline(ss, name, ',')) passNames.push_back(name);
    } else if (arg == "--seed") {
      if (!number(i, seed)) return usage(argv[0]);
    } else if (arg == "--checkpoint-dir") {
      if (++i >= argc) return usage(argv[0]);
      ckptDir = argv[i];
    } else if (arg == "--checkpoint-interval") {
      if (!number(i, ckptInterval)) return usage(argv[0]);
    } else if (arg == "--list-passes") {
      for (const auto& [name, fn] : reg) std::printf("%s\n", name.c_str());
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      file = arg;
    }
  }
  if (file.empty()) return usage(argv[0]);
  if (verifyPasses && passNames.empty()) {
    for (const auto& p : opt::standardPipeline()) passNames.push_back(p.name);
  }
  for (const std::string& name : passNames) {
    if (!reg.count(name)) {
      std::fprintf(stderr, "xdpc: unknown pass '%s' (see --list-passes)\n",
                   name.c_str());
      return 2;
    }
  }

  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "xdpc: cannot open %s\n", file.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  try {
    il::Program prog = il::parseProgram(buf.str());
    if (autoPlace) {
      opt::AutoPlaceResult ar = opt::autoPlace(prog);
      if (jsonFormat) {
        auto scoreJson = [&prog](const opt::PlacementScore& s) {
          std::string out = "{\"valid\": ";
          out += s.valid ? "true" : "false";
          out += ", \"bytes\": " + std::to_string(s.bytes);
          out += ", \"messages\": " + std::to_string(s.messages);
          out += ", \"dists\": [";
          for (std::size_t i = 0; i < s.dists.size(); ++i) {
            if (i) out += ", ";
            out += json::str(prog.arrays[i].name + " " + s.dists[i].str());
          }
          out += "]}";
          return out;
        };
        std::printf(
            "{\"file\": %s, \"candidates_tried\": %zu, "
            "\"candidates_valid\": %zu, \"original\": %s, \"best\": %s, "
            "\"lower_bound\": %lld, \"pct_of_optimal\": %.1f}\n",
            json::str(file).c_str(), ar.candidatesTried, ar.candidatesValid,
            scoreJson(ar.original).c_str(), scoreJson(ar.best).c_str(),
            static_cast<long long>(ar.lowerBound), ar.pctOfOptimal());
      } else {
        std::printf("xdpc: auto-place: tried %zu candidates (%zu valid)\n",
                    ar.candidatesTried, ar.candidatesValid);
        for (std::size_t i = 0; i < prog.arrays.size(); ++i) {
          const std::string& from = ar.original.dists[i].str();
          const std::string& to = ar.best.dists[i].str();
          std::printf("xdpc: auto-place: %s %s%s%s\n",
                      prog.arrays[i].name.c_str(), from.c_str(),
                      from == to ? "" : " -> ",
                      from == to ? " (kept)" : to.c_str());
        }
        std::printf(
            "xdpc: auto-place: modeled %lld bytes in %lld messages "
            "(was %lld bytes in %lld messages); lower bound %lld bytes; "
            "%.1f%% of optimal\n",
            static_cast<long long>(ar.best.bytes),
            static_cast<long long>(ar.best.messages),
            static_cast<long long>(ar.original.bytes),
            static_cast<long long>(ar.original.messages),
            static_cast<long long>(ar.lowerBound), ar.pctOfOptimal());
      }
      if (!ar.best.valid) {
        std::fprintf(stderr,
                     "xdpc: auto-place: no candidate placement verifies "
                     "with an exact cost model; keeping the original\n");
        return 1;
      }
      prog = ar.program;
    }
    // Snapshot for the parametric lower bound: the bound reads the
    // owner-computes sweeps, which lowering rewrites into guarded sends.
    const il::Program pre = prog;
    if (!passNames.empty()) {
      opt::PassManager pm;
      for (const std::string& name : passNames) pm.add(name, reg.at(name));
      pm.verifyEachPass(verifyPasses);
      std::string traceStr;
      try {
        prog = pm.run(prog, trace ? &traceStr : nullptr);
      } catch (const opt::PassVerifyError& e) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(), e.what());
        return 1;
      }
      if (trace) std::printf("%s", traceStr.c_str());
      if (verifyPasses) {
        std::printf("xdpc: %zu passes verified: no introduced violations\n",
                    passNames.size());
      }
    }
    if (analyze) {
      analysis::VerifyResult r = analysis::verifyProgram(prog);
      if (jsonFormat) {
        std::printf("%s\n", analysis::diagnosticsJson(prog, r, file).c_str());
      } else {
        std::string report = analysis::formatDiagnostics(prog, r, file);
        if (!report.empty()) std::fprintf(stderr, "%s", report.c_str());
        std::printf("xdpc: analyzed %llu abstract statements: %zu errors, "
                    "%zu warnings%s\n",
                    static_cast<unsigned long long>(r.stmtsAnalyzed),
                    r.errors(), r.count(analysis::Severity::Warning),
                    r.exhaustive ? "" : " (not exhaustive)");
      }
      if (r.errors() > 0) return 1;
    }
    if (cost) {
      analysis::CostReport cr = analysis::analyzeCost(prog, pre);
      if (jsonFormat) {
        std::printf("%s\n", analysis::costReportJson(prog, cr, file).c_str());
      } else {
        std::printf("%s", analysis::formatCostReport(prog, cr, file).c_str());
      }
    }
    if (print && !trace) {
      il::PrintOptions po;
      po.parseable = parseable;
      std::printf("%s", il::printProgram(prog, po).c_str());
    }
    if (run) {
      rt::RuntimeOptions opts;
      opts.debugChecks = debugChecks;
      interp::Interpreter interp(prog, opts);
      apps::registerFillKernel(interp, seed);
      apps::registerFftKernels(interp);
      if (!ckptDir.empty() || ckptInterval > 0) {
        ckpt::CkptOptions co;
        co.dir = ckptDir;
        co.intervalSteps = ckptInterval > 0 ? ckptInterval : 1024;
        interp.runtime().enableCheckpointing(co);
      }
      interp.run();
      if (interp.runtime().checkpointingEnabled()) {
        const ckpt::StoreStats& cs = interp.runtime().ckptStore()->stats();
        std::printf(
            "xdpc: checkpoints: %llu snapshots (%llu records, %llu bytes "
            "newest), %llu recoveries\n",
            static_cast<unsigned long long>(cs.snapshots),
            static_cast<unsigned long long>(cs.lastRecords),
            static_cast<unsigned long long>(cs.lastBytes),
            static_cast<unsigned long long>(interp.runtime().recoveries()));
      }
      auto net = interp.runtime().fabric().totalStats();
      auto st = interp.totalStats();
      std::printf(
          "xdpc: ran on %d processors: %llu msgs (%llu rendezvous, %llu "
          "unexpected), %llu bytes, %llu ownership transfers, %llu rule "
          "evals, modeled makespan %.6g s\n",
          prog.nprocs, static_cast<unsigned long long>(net.messagesSent),
          static_cast<unsigned long long>(net.rendezvousSends),
          static_cast<unsigned long long>(net.unexpectedMessages),
          static_cast<unsigned long long>(net.bytesSent),
          static_cast<unsigned long long>(net.ownershipTransfers),
          static_cast<unsigned long long>(st.rulesEvaluated),
          interp.runtime().fabric().makespan());
      if (interp.runtime().fabric().undeliveredCount() != 0) {
        std::fprintf(stderr,
                     "xdpc: warning: %zu undelivered messages (a send had "
                     "no matching receive)\n",
                     interp.runtime().fabric().undeliveredCount());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xdpc: %s\n", e.what());
    return 1;
  }
  return 0;
}
