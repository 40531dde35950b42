// Golden-output test for the bytecode compiler. For the five example
// programs and the serve workload's six program shapes (its halo and ring
// corpus on four processors), raw and after the standard pipeline, it
// records each module's disassembly (with its register count and hot and
// cold statement counts), its constant pools and its split, loop-kernel
// and transfer sites. It records the same for the section 4 3-D FFT at
// its four stages, for the built vector-add program and for a corpus of
// constructs the compiler leaves cold. For a fixed-seed sample of
// pipeline-fuzz programs it records a digest of the same record at every
// pipeline stage. The whole record must match tests/golden/bytecode.golden
// byte for byte, so a change to the compiler that is meant to leave the
// generated code alone is proven output-neutral on this corpus. A cold op
// names the IL kind of its node, not the node's id.
//
// On a mismatch the test writes the full record to bytecode.golden.actual
// in its working directory and reports the first differing line. After
// an intentional change to the generated code, review that diff and copy
// the file over the checked-in golden.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>

#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/bytecode.hpp"
#include "xdp/opt/passes.hpp"

#include "analysis_programs.hpp"
#include "fuzz_case.hpp"

namespace xdp::interp {
namespace {

il::Program loadExample(const std::string& name) {
  std::ifstream in(std::string(XDP_PROGRAMS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return il::parseProgram(buf.str());
}

void secRegs(std::ostream& os, const bc::SecRegs& r) {
  os << r.lb;
  if (r.hasUb) os << ':' << r.ub;
  if (r.hasStride) os << ':' << r.stride;
}

void tape(std::ostream& os, const char* name,
          const std::vector<bc::KernelSite::Node>& nodes) {
  os << ' ' << name << '[';
  for (const bc::KernelSite::Node& n : nodes)
    os << ' ' << static_cast<int>(n.kind) << '(' << static_cast<int>(n.l)
       << ',' << static_cast<int>(n.r) << ',' << n.arg << ',' << n.arg2
       << ')';
  os << " ]";
}

/// Everything compile() produced, one fact per line.
std::string moduleRecord(const bc::Module& m) {
  std::ostringstream os;
  os << bc::disassemble(m);
  os << "ipool";
  for (const Index v : m.ipool) os << ' ' << v;
  os << "\nrpool" << std::setprecision(17);
  for (const double v : m.rpool) os << ' ' << v;
  os << '\n';
  for (const bc::SplitSite& s : m.splits) {
    os << "split sym=" << s.sym << " acc=" << s.accessible
       << " pure=" << s.pure << " var=" << s.var << " lb=" << s.lb
       << " ub=" << s.ub << " step=" << s.step << " chain=" << s.chain
       << " body=" << s.bodyPc << " naive=" << s.naivePc
       << " exit=" << s.exitPc << " dims";
    for (const auto& [a, b] : s.dims) os << " (" << a << ',' << b << ')';
    os << '\n';
  }
  for (const bc::KernelSite& k : m.kernels) {
    os << "kernel split=" << k.split << " var=" << k.var << " i=" << k.iR
       << " ub=" << k.ub << " step=" << k.step << " exit=" << k.exitPc
       << " fixed=" << k.fixedValues;
    tape(os, "subs", k.subs);
    tape(os, "values", k.values);
    os << " syms[";
    for (const std::int32_t s : k.syms) os << ' ' << s;
    os << " ] accesses[";
    for (const auto& a : k.accesses)
      os << ' ' << static_cast<int>(a.sym) << '/' << a.i64 << '/'
         << static_cast<int>(a.sub);
    os << " ] terms[";
    for (const auto& t : k.terms)
      os << ' ' << static_cast<int>(t.access) << '/' << t.coef << '/'
         << t.coefFirst << '/' << t.minus << '/' << t.c;
    os << " ] assigns[";
    for (const auto& a : k.assigns)
      os << ' ' << static_cast<int>(a.store) << '/'
         << static_cast<int>(a.value) << '/' << static_cast<int>(a.termsOff)
         << '/' << static_cast<int>(a.termsLen);
    os << " ] plan[";
    for (const std::int8_t p : k.plan) os << ' ' << static_cast<int>(p);
    os << " ]\n";
  }
  for (const bc::XferSite& x : m.xfers) {
    os << "xfer stmt=" << static_cast<int>(x.stmt)
       << " query=" << static_cast<int>(x.query) << " sym=" << x.sym
       << " sym2=" << x.sym2 << " value=" << x.withValue << " sec=";
    secRegs(os, x.sec);
    os << " sec2=";
    secRegs(os, x.sec2);
    os << " dest=" << static_cast<int>(x.dest) << " pids";
    for (const std::uint16_t r : x.pids) os << ' ' << r;
    os << " owner=" << x.destSym << (x.destDist != nullptr ? "/override" : "")
       << ' ';
    secRegs(os, x.destSec);
    os << " end=" << x.endPc << '\n';
  }
  return os.str();
}

bc::Module compileOf(const il::Program& prog) {
  return bc::compile(prog);
}

/// The module of `prog` raw and after the standard pipeline.
void recordRawAndPipelined(std::ostringstream& os, const std::string& name,
                           const il::Program& prog) {
  os << "== " << name << " raw\n" << moduleRecord(compileOf(prog));
  il::Program cur = prog;
  for (const opt::Pass& p : opt::standardPipeline()) cur = p.fn(cur);
  os << "== " << name << " pipeline\n" << moduleRecord(compileOf(cur));
}

/// Cold constructs: loop bounds, a step and scalar assignments the
/// expression compiler declines, rank-2 elements and transfers, part and
/// intersection sections, strided receives, ownership moves, i64 stores.
constexpr const char* kColdCorpus = R"(procs 4
array A f64 [1:16] (BLOCK)
array B f64 [1:8,1:8] (*,BLOCK)
array C f64 [1:16] (CYCLIC)
array K i64 [1:16] (BLOCK)

fill(A[1:16], B[1:8,1:8], C[1:16])
n = mylb(A[1:16], 1) + 3
do i = mylb(A[1:16], 1), myub(A[1:16], 1), n - 2
  iown(A[i]) : { A[i] = A[i] + 0.5 }
enddo
do j = 1, 8
  iown(B[2, j]) : { B[2, j] = B[1, j] * 2.0 + j }
  (mypid == 0) : { B[1:8, j] -> {owner(C[j])} }
  (nonempty(B[1:8, 1:8]^[mypart]) && n > 1) : { compute(0.25) }
enddo
(mypid == 1) : { A[1:16]^[part(1)] -> {2, 3} }
(mypid == 2) : { C[2:16:4] <- A[5:8] }
x = myub(B[1:8, 1:8], 2) * 7 - 1.5
K[2] = x / 3
do k = 1, 16
  iown(K[k]) : { K[k] = K[k] + k * 2 }
enddo
(mypid == 3) : { A[13:16] => {0} }
(mypid == 0) : { A[13:16] <=- }
)";

/// FNV-1a of a module record. The cold ops' mnemonics hash as their
/// role, so a renamed cold op keeps every digest.
std::uint64_t digest(std::string record) {
  static const std::pair<std::string, std::string> kRoles[] = {
      {" EvalCold ", " <eval> "}, {" ExecCold ", " <exec> "}};
  for (const auto& [name, role] : kRoles)
    for (std::size_t at = 0; (at = record.find(name, at)) != std::string::npos;)
      record.replace(at, name.size(), role);
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : record) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string buildRecord() {
  std::ostringstream os;
  for (const char* name : {"vecadd.xdp", "ownership.xdp", "taskfarm.xdp",
                           "jacobi.xdp", "cannon.xdp"})
    recordRawAndPipelined(os, name, loadExample(name));

  for (const auto& [block, sweeps] :
       {std::pair{256, 20}, {96, 60}, {1024, 8}, {48, 120}})
    recordRawAndPipelined(
        os,
        "serve halo " + std::to_string(block) + "x" + std::to_string(sweeps),
        il::parseProgram(testprog::haloText(4, block, sweeps)));
  for (const auto& [block, steps] : {std::pair{32, 80}, {128, 24}})
    recordRawAndPipelined(
        os, "serve ring " + std::to_string(block) + "x" + std::to_string(steps),
        il::parseProgram(testprog::ringText(4, block, steps)));

  apps::Fft3dConfig fft;
  il::Program stage = apps::buildFft3dStage1(fft);
  os << "== fft3d stage1\n" << moduleRecord(compileOf(stage));
  stage = opt::singleIterationElimination(opt::computeRuleElimination(stage));
  os << "== fft3d stage2\n" << moduleRecord(compileOf(stage));
  stage = opt::awaitSinking(opt::loopFusion(stage));
  os << "== fft3d stage3\n" << moduleRecord(compileOf(stage));
  stage = opt::commBinding(stage);
  os << "== fft3d bound\n" << moduleRecord(compileOf(stage));

  recordRawAndPipelined(os, "built vecadd",
                        apps::buildVecAdd(apps::vecAddMisaligned(16, 4)));
  os << "== cold corpus raw\n"
     << moduleRecord(compileOf(il::parseProgram(kColdCorpus)));

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::uint64_t s = seed * 1000 + seed % 3;
    il::Program cur = opt::fuzz::buildCase(opt::fuzz::randomCase(s));
    os << "== fuzz " << s << " @input " << std::hex
       << digest(moduleRecord(compileOf(cur))) << std::dec << '\n';
    for (const opt::Pass& p : opt::standardPipeline()) {
      cur = p.fn(cur);
      os << "== fuzz " << s << " @" << p.name << ' ' << std::hex
         << digest(moduleRecord(compileOf(cur))) << std::dec << '\n';
    }
  }
  return os.str();
}

TEST(BytecodeGolden, ModulesMatchCheckedInGolden) {
  const std::string actual = buildRecord();
  std::ifstream in(XDP_BYTECODE_GOLDEN);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (actual == golden) return;

  std::ofstream("bytecode.golden.actual") << actual;
  std::istringstream a(actual), g(golden);
  std::string la, lg;
  int line = 0;
  while (true) {
    const bool moreA = static_cast<bool>(std::getline(a, la));
    const bool moreG = static_cast<bool>(std::getline(g, lg));
    ++line;
    if (!moreA && !moreG) break;
    if (!moreA || !moreG || la != lg) {
      ADD_FAILURE() << "bytecode record differs from " << XDP_BYTECODE_GOLDEN
                    << " at line " << line << "\n  golden: "
                    << (moreG ? lg : "<end of file>")
                    << "\n  actual: " << (moreA ? la : "<end of file>")
                    << "\n(full record written to bytecode.golden.actual)";
      return;
    }
  }
  ADD_FAILURE() << "bytecode record differs from " << XDP_BYTECODE_GOLDEN
                << " (full record written to bytecode.golden.actual)";
}

}  // namespace
}  // namespace xdp::interp
