// End-to-end benchmark of the XDP reproduction.
//
//   xdp_perfbench --workload compile|exchange|serve --seed N
//                 --seconds S --trace 0|1 [--out DIR]
//
// One client thread drives a closed loop of jobs. A job is one generated
// program through one user path, made with the same public library calls
// the tools make, on each path's default options:
//
//   compile   xdpc --pipeline --analyze --cost --run: parse, the eight
//             standard passes, verifyProgram, analyzeCost, Interpreter run
//   exchange  xdpc --run (programs run as written)
//   serve     one session through serve::Server::submit; the client keeps
//             more sessions outstanding than the server has workers
//
// Every job's result is checked against a plain sequential reference
// (corpus.hpp). With --trace 0 the last stdout line is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// and the spans recorded around each layer call are written as Chrome
// trace-event JSON under --out. See perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "corpus.hpp"
#include "trace.hpp"
#include "xdp/analysis/cost.hpp"
#include "xdp/analysis/verifier.hpp"
#include "xdp/apps/fft.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/opt/rewrite.hpp"
#include "xdp/serve/server.hpp"

namespace {

using namespace perfbench;
using namespace xdp;

/// xdpc's --seed default and SessionRequest::fillSeed's default.
constexpr std::uint64_t kFillSeed = 42;
/// Set-up is repeated this many times per run; setup_s is their median.
constexpr int kSetupRounds = 3;
/// Every program runs on this many simulated processors.
constexpr int kProcs = 2;
/// The process runs on one CPU. On the shared 4-vCPU test host, host CPU
/// steal grew with the number of busy vCPUs and moved wall-time metrics
/// 2-4x between identical runs on two or four CPUs; on one CPU it stayed
/// low and the runs stayed within a few percent (README.md, "Noise").
constexpr int kCpus = 1;

/// Confine the process to the last `cpus` CPUs it may run on; returns how
/// many it got. Called before any thread starts; every thread inherits the
/// mask.
int pinCpus(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t use;
  CPU_ZERO(&use);
  int n = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && n < cpus; --c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      ++n;
    }
  return sched_setaffinity(0, sizeof use, &use) == 0 ? n : 0;
}

double msSince(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Host-wide CPU steal seconds so far (the `cpu` line of /proc/stat).
double stealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (auto& x : v) in >> x;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Written by probeMs() so the probe loop cannot be folded away.
std::uint64_t probeSink = 0;

/// Thread CPU milliseconds a fixed integer loop takes: a host-speed probe
/// printed beside the metrics. It moves when the host runs this CPU
/// slower, not when the program under test changes.
double probeMs() {
  timespec a{}, b{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
  Rng rng(1);
  std::uint64_t x = 0;
  for (int i = 0; i < 4'000'000; ++i) x ^= rng.next();
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
  probeSink = x;
  return static_cast<double>(b.tv_sec - a.tv_sec) * 1e3 +
         static_cast<double>(b.tv_nsec - a.tv_nsec) / 1e6;
}

long involuntarySwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t logicalOps(const interp::InterpStats& s) {
  return s.stmtsExecuted + s.loopIterations + s.rulesEvaluated +
         s.elemAssigns;
}

std::uint64_t countStmts(const il::Program& p) {
  std::uint64_t n = 0;
  opt::visitStmts(p.body, [&n](const il::StmtPtr&) { ++n; });
  return n;
}

// --- workloads ------------------------------------------------------------------

struct Job {
  const Program* prog = nullptr;
  std::size_t index = 0;            ///< position in the workload's corpus
  std::uint64_t ckptInterval = 0;   ///< serve: checkpointIntervalSteps
};

/// A workload: its corpus, the user path its jobs take, and the order in
/// which jobs draw programs. The first `modeledPass` timed jobs visit each
/// program of the modeled set once; modeled_ms sums their makespans.
class Workload {
 public:
  std::string name;
  bool serve = false;
  /// xdpc path: --pipeline --analyze --cost --run when set, else --run.
  bool frontEnd = false;
  int warmupJobs = 0;  ///< per set-up round
  std::size_t modeledPass = 0;

  Workload(std::string n, std::uint64_t seed) : name(std::move(n)), rng_(seed) {}

  /// Draw the corpus. compile draws a fresh program for every job (no text
  /// repeats in a run); the pool made here is what the corpus hash covers
  /// and grows on demand in the same deterministic stream.
  void build();
  std::uint64_t corpusHash() const;
  std::size_t corpusSize() const { return pool_.size(); }

  const Program& program(std::size_t i) { return *jobAt(i).prog; }
  Job selfCheckJob() { return jobAt(0); }
  Job warmupJob(std::size_t k);
  Job timedJob(std::size_t k);

 private:
  Job jobAt(std::size_t index, std::uint64_t ckpt = 0) {
    while (index >= pool_.size()) extendCompilePool();
    return {&pool_[index], index, ckpt};
  }
  void extendCompilePool();
  const std::vector<std::size_t>& lap(std::size_t l);

  Rng rng_;
  std::deque<Program> pool_;  ///< stable addresses
  std::unordered_set<std::uint64_t> seenTexts_;
  /// Non-compile workloads: one lap is `lapSlots_` shuffled, with the
  /// serve workload's checkpointed slots marked.
  std::vector<std::size_t> lapSlots_;
  std::vector<bool> lapCkpt_;
  std::vector<std::vector<std::size_t>> laps_;
};

constexpr std::size_t kCompilePool = 1024;
constexpr std::uint64_t kServeCkptSteps = 1024;

void Workload::extendCompilePool() {
  // Redraw on a text collision so no program text repeats within a run.
  for (;;) {
    const int cls = static_cast<int>(pool_.size() % kUpdateClasses);
    Program p = makeProgram(drawUpdate(rng_, kProcs, cls));
    if (!seenTexts_.insert(fnv1a(p.text)).second) continue;
    pool_.push_back(std::move(p));
    return;
  }
}

void Workload::build() {
  auto add = [this](Spec s) { pool_.push_back(makeProgram(std::move(s))); };
  if (name == "compile") {
    frontEnd = true;
    warmupJobs = 12;
    modeledPass = 128;
    while (pool_.size() < kCompilePool) extendCompilePool();
    return;
  }
  if (name == "exchange") {
    warmupJobs = 8;
    // Messages per logical operation must be the highest of the three
    // workloads. Measured alone: halo 0.033, ring 0.062, task farm 0.091
    // (compile: 0.071), hence small blocks and mostly farms.
    for (int k = 0; k < 2; ++k) add(drawHalo(rng_, kProcs, 3, 2400));
    for (int k = 0; k < 2; ++k) add(drawRing(rng_, kProcs, 1, 3200));
    for (int k = 0; k < 8; ++k) add(drawFarm(rng_, kProcs, 12000));
  } else if (name == "serve") {
    serve = true;
    warmupJobs = 8;
    // Popularity is skewed: in every lap of 16 sessions program 0 runs 6
    // times, 1 four times, 2 and 3 twice, 4 and 5 once; two of program 1's
    // sessions are checkpointed.
    add(drawHalo(rng_, kProcs, 256, 20));
    add(drawHalo(rng_, kProcs, 96, 60));
    add(drawRing(rng_, kProcs, 32, 80));
    add(drawHalo(rng_, kProcs, 1024, 8));
    add(drawRing(rng_, kProcs, 128, 24));
    add(drawHalo(rng_, kProcs, 48, 120));
    lapSlots_ = {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 5};
    lapCkpt_.assign(lapSlots_.size(), false);
    lapCkpt_[6] = lapCkpt_[7] = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (lapSlots_.empty())
    for (std::size_t i = 0; i < pool_.size(); ++i) lapSlots_.push_back(i);
  if (lapCkpt_.empty()) lapCkpt_.assign(lapSlots_.size(), false);
  modeledPass = lapSlots_.size();
}

std::uint64_t Workload::corpusHash() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Program& p : pool_) h = fnv1a(p.text, h);
  return h;
}

/// Lap `l` of the job order: a seeded shuffle of the lap's slots (slot
/// indices, so checkpoint marks travel with their slot).
const std::vector<std::size_t>& Workload::lap(std::size_t l) {
  while (laps_.size() <= l) {
    std::vector<std::size_t> order(lapSlots_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng_.range(0, std::int64_t(i) - 1))]);
    laps_.push_back(std::move(order));
  }
  return laps_[l];
}

Job Workload::warmupJob(std::size_t k) {
  if (name == "compile") return jobAt(1 + k);
  // Warm-up walks the lap in slot order, so it visits every program.
  const std::size_t slot = k % lapSlots_.size();
  return jobAt(lapSlots_[slot], lapCkpt_[slot] ? kServeCkptSteps : 0);
}

Job Workload::timedJob(std::size_t k) {
  if (name == "compile")
    return jobAt(1 + static_cast<std::size_t>(kSetupRounds * warmupJobs) + k);
  const std::size_t slot = lap(k / lapSlots_.size())[k % lapSlots_.size()];
  return jobAt(lapSlots_[slot], lapCkpt_[slot] ? kServeCkptSteps : 0);
}

// --- per-layer accounting ---------------------------------------------------

struct Layers {
  std::uint64_t jobs = 0;
  std::uint64_t stmtsIn = 0, stmtsOut = 0, stmtsAnalyzed = 0;
  std::uint64_t costJobs = 0, costExact = 0;
  interp::InterpStats stats;
  std::uint64_t ops = 0;
  net::NetStats net;
  double runMs = 0;  ///< Interpreter::run, or session wall for serve
  double queueWaitMs = 0, sessionMs = 0;
  std::uint64_t attempts = 0, hygieneClean = 0;
  std::uint64_t ckptSessions = 0, snapshots = 0, snapshotBytes = 0;
  double ckptSessionMs = 0;
};

// --- checks ---------------------------------------------------------------------

/// Compare the run's arrays with the reference element for element. Each
/// element must be accessible on exactly one processor. `corruptAt`
/// flips one gathered element first (the self-check).
std::string checkArrays(interp::Interpreter& in, const RefResult& ref,
                        std::optional<std::size_t> corruptAt = {}) {
  rt::Runtime& rt = in.runtime();
  const il::Program& prog = in.program();
  for (std::size_t a = 0; a < ref.size(); ++a) {
    const RefArray& want = ref[a];
    int sym = -1;
    for (std::size_t s = 0; s < prog.arrays.size(); ++s)
      if (prog.arrays[s].name == want.name) sym = static_cast<int>(s);
    if (sym < 0) return "array " + want.name + " missing";
    const sec::Section& global = prog.arrays[static_cast<std::size_t>(sym)].global;
    if (static_cast<std::size_t>(global.count()) != want.values.size())
      return "array " + want.name + " has the wrong extent";
    std::vector<double> got(want.values.size(), 0.0);
    std::vector<unsigned char> seen(want.values.size(), 0);
    std::vector<double> buf;
    for (int p = 0; p < rt.nprocs(); ++p) {
      for (const rt::SegmentDesc& seg : rt.table(p).segments(sym)) {
        if (seg.status != rt::SegState::Accessible) continue;
        buf.resize(static_cast<std::size_t>(seg.bounds.count()));
        rt.table(p).readElems(sym, seg.bounds,
                              reinterpret_cast<std::byte*>(buf.data()));
        std::size_t i = 0;
        seg.bounds.forEach([&](const sec::Point& pt) {
          const auto pos = static_cast<std::size_t>(global.fortranPos(pt));
          seen[pos] += 1;
          got[pos] = buf[i++];
        });
      }
    }
    if (corruptAt && a == 0) {
      const std::size_t k = *corruptAt % got.size();
      got[k] = std::nextafter(got[k], 1e300);
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (seen[i] != 1)
        return want.name + "[" + std::to_string(i) + "] accessible on " +
               std::to_string(seen[i]) + " processors";
      if (std::memcmp(&got[i], &want.values[i], sizeof(double)) != 0) {
        char msg[160];
        std::snprintf(msg, sizeof msg, "%s element %zu: got %.17g, want %.17g",
                      want.name.c_str(), i, got[i], want.values[i]);
        return msg;
      }
    }
  }
  return {};
}

// --- one job on the xdpc path ---------------------------------------------------

struct Outcome {
  std::string error;  ///< empty: the job passed its check
  double latencyMs = 0;
  double makespan = 0;
};

Outcome runXdpcJob(const Workload& w, const Job& job, Tracer& tr,
                   std::uint64_t id, Layers* layers,
                   std::optional<std::size_t> corruptAt = {}) {
  Outcome out;
  const auto t0 = Clock::now();
  std::unique_ptr<interp::Interpreter> in;
  il::Program prog, pre;
  std::uint64_t stmtsAnalyzed = 0;
  std::optional<analysis::CostReport> cost;
  double runMs = 0;
  try {
    Scope js(tr, "job", id, static_cast<std::int64_t>(job.index));
    {
      Scope s(tr, "il.parse", id);
      prog = il::parseProgram(job.prog->text);
    }
    // xdpc keeps the pre-pipeline program for the cost report's bound.
    pre = prog;
    if (w.frontEnd) {
      for (const opt::Pass& pass : opt::standardPipeline()) {
        Scope s(tr, "opt." + pass.name, id);
        prog = pass.fn(prog);
      }
      analysis::VerifyResult vr;
      {
        Scope s(tr, "analysis.verify", id);
        vr = analysis::verifyProgram(prog);
      }
      stmtsAnalyzed = vr.stmtsAnalyzed;
      if (vr.errors() > 0)
        throw std::runtime_error("verifier errors on a clean program:\n" +
                                 analysis::formatDiagnostics(prog, vr));
      Scope s(tr, "analysis.cost", id);
      cost = analysis::analyzeCost(prog, pre);
    }
    {
      Scope s(tr, "interp.setup", id);
      in = std::make_unique<interp::Interpreter>(prog);
      apps::registerFillKernel(*in, kFillSeed);
      apps::registerFftKernels(*in);
    }
    const auto r0 = Clock::now();
    {
      Scope s(tr, "interp.run", id);
      in->run();
    }
    runMs = msSince(r0);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.latencyMs = msSince(t0);
  if (!out.error.empty()) return out;

  net::Fabric& fab = in->runtime().fabric();
  const net::NetStats ns = fab.totalStats();
  out.makespan = fab.makespan();
  {
    Scope s(tr, "bench.check", id);
    if (fab.undeliveredCount() != 0)
      out.error = std::to_string(fab.undeliveredCount()) +
                  " undelivered messages";
    else
      out.error = checkArrays(*in, reference(*job.prog, kFillSeed), corruptAt);
  }
  if (layers) {
    Layers& L = *layers;
    L.jobs += 1;
    if (tr.on() && w.frontEnd) {  // counted outside the job's spans
      L.stmtsIn += countStmts(pre);
      L.stmtsOut += countStmts(prog);
    }
    L.stmtsAnalyzed += stmtsAnalyzed;
    if (cost) {
      L.costJobs += 1;
      if (cost->exact && cost->bytesMoved == std::int64_t(ns.bytesSent) &&
          cost->messages == std::int64_t(ns.messagesSent))
        L.costExact += 1;
    }
    const interp::InterpStats st = in->totalStats();
    L.stats += st;
    L.ops += logicalOps(st);
    L.net += ns;
    L.runMs += runMs;
  }
  return out;
}

// --- run state ------------------------------------------------------------------

struct Run {
  Run(Workload& wl, Tracer& t) : w(wl), tr(t) {}

  Workload& w;
  Tracer& tr;
  std::uint64_t nextId = 1;
  std::uint64_t attempted = 0, failed = 0;
  int reportedFailures = 0;
  std::vector<double> warmupLatency, timedLatency;
  double modeledMs = 0;
  Layers layers;

  void record(const Job& job, const std::string& error) {
    attempted += 1;
    if (error.empty()) return;
    failed += 1;
    // A failure is reported with its program text; it stays in the corpus.
    if (reportedFailures++ < 3)
      std::fprintf(stderr,
                   "perfbench: job on %s program %zu failed: %s\n--- program "
                   "---\n%s--- end ---\n",
                   w.name.c_str(), job.index, error.c_str(),
                   job.prog->text.c_str());
  }
};

struct Phase {
  double wallS = 0, cpuS = 0, stealS = 0;
  long nivcsw = 0;
  std::size_t jobs = 0;
};

// --- xdpc path ------------------------------------------------------------------------

bool selfCheckXdpc(Run& r) {
  const Job job = r.w.selfCheckJob();
  Tracer off(false);
  const Outcome clean = runXdpcJob(r.w, job, off, 0, nullptr);
  const Outcome bad = runXdpcJob(r.w, job, off, 0, nullptr, job.index * 7919 + 13);
  std::printf("self-check: clean job %s; one corrupted element %s (%s)\n",
              clean.error.empty() ? "passes" : "FAILS",
              bad.error.empty() ? "NOT caught" : "caught",
              bad.error.empty() ? "-" : bad.error.c_str());
  if (!clean.error.empty())
    std::fprintf(stderr, "perfbench: self-check job failed: %s\n--- program "
                 "---\n%s--- end ---\n", clean.error.c_str(), job.prog->text.c_str());
  return clean.error.empty() && !bad.error.empty();
}

std::vector<double> setupXdpc(Run& r) {
  std::vector<double> setup;
  Tracer off(false);  // the trace covers timed jobs only
  std::size_t k = 0;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    for (int j = 0; j < r.w.warmupJobs; ++j, ++k) {
      const Job job = r.w.warmupJob(k);
      const Outcome o = runXdpcJob(r.w, job, off, r.nextId++, nullptr);
      r.record(job, o.error);
      r.warmupLatency.push_back(o.latencyMs);
    }
    setup.push_back(msSince(t0) / 1e3);
  }
  return setup;
}

Phase timedXdpc(Run& r, double seconds) {
  Phase ph;
  const double cpu0 = cpuSeconds(), steal0 = stealSeconds();
  const long sw0 = involuntarySwitches();
  const auto t0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (k >= r.w.modeledPass && msSince(t0) >= seconds * 1e3) break;
    const Job job = r.w.timedJob(k);
    const Outcome o = runXdpcJob(r.w, job, r.tr, r.nextId++, &r.layers);
    r.record(job, o.error);
    r.timedLatency.push_back(o.latencyMs);
    if (k < r.w.modeledPass && !job.prog->scheduleDependentTime)
      r.modeledMs += o.makespan * 1e3;
    ph.jobs += 1;
  }
  ph.wallS = msSince(t0) / 1e3;
  ph.cpuS = cpuSeconds() - cpu0;
  ph.stealS = stealSeconds() - steal0;
  ph.nivcsw = involuntarySwitches() - sw0;
  return ph;
}

// --- serve path ------------------------------------------------------------------------

/// Sessions the client keeps outstanding: more than the server's one
/// worker, so sessions wait in its queue.
constexpr std::size_t kServeWindow = 3;

serve::ServerConfig serverConfig() {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  return cfg;
}

/// Closed loop: submits job `jobAt(k)` for k = 0, 1, ... while `more(k)`
/// holds, keeping kServeWindow sessions in flight, and hands each report
/// to `done(job, k, submitted, ready, report)` once it is ready. The client
/// waits on the oldest future for at most 1 ms, then scans all of them, so
/// a ready time is observed within 1 ms.
template <class JobAt, class More, class Done>
void serveLoop(serve::Server& server, JobAt jobAt, More more, Done done) {
  struct InFlight {
    Job job;
    std::size_t k;
    Clock::time_point submitted;
    std::future<serve::SessionReport> fut;
  };
  std::vector<InFlight> inflight;
  std::size_t next = 0;
  for (;;) {
    while (inflight.size() < kServeWindow && more(next)) {
      const Job job = jobAt(next);
      serve::SessionRequest req;
      req.name = "p" + std::to_string(job.index);
      req.source = job.prog->text;
      req.checkpointIntervalSteps = job.ckptInterval;
      const auto t = Clock::now();
      inflight.push_back({job, next, t, server.submit(std::move(req))});
      ++next;
    }
    if (inflight.empty()) return;
    inflight.front().fut.wait_for(std::chrono::milliseconds(1));
    const auto now = Clock::now();
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      InFlight f = std::move(inflight[i]);
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      done(f.job, f.k, f.submitted, now, f.fut.get());
    }
  }
}

std::string checkSession(const serve::SessionReport& rep,
                         std::uint64_t expected) {
  if (rep.outcome != serve::SessionOutcome::Completed)
    return std::string("outcome ") + serve::outcomeName(rep.outcome) + ": " +
           rep.error;
  if (rep.resultDigest != expected) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "digest %016llx, want %016llx",
                  static_cast<unsigned long long>(rep.resultDigest),
                  static_cast<unsigned long long>(expected));
    return msg;
  }
  return {};
}

/// `expect[i]`: the reference digest of corpus program i.
bool selfCheckServe(Run& r, const std::vector<std::uint64_t>& expect) {
  const Job job = r.w.selfCheckJob();
  serve::Server server(serverConfig());
  serve::SessionRequest req;
  req.source = job.prog->text;
  const serve::SessionReport rep = server.submit(std::move(req)).get();
  RefResult ref = reference(*job.prog, kFillSeed);
  ref[0].values[(job.index * 7919 + 13) % ref[0].values.size()] += 0.5;
  const std::string clean = checkSession(rep, expect[job.index]);
  const std::string bad = checkSession(rep, digest(ref));
  std::printf("self-check: clean session %s; one corrupted element %s (%s)\n",
              clean.empty() ? "passes" : "FAILS",
              bad.empty() ? "NOT caught" : "caught",
              bad.empty() ? "-" : bad.c_str());
  if (!clean.empty())
    std::fprintf(stderr, "perfbench: self-check session failed: %s\n",
                 clean.c_str());
  return clean.empty() && !bad.empty();
}

std::vector<double> setupServe(Run& r, const std::vector<std::uint64_t>& expect,
                               std::unique_ptr<serve::Server>& server) {
  std::vector<double> setup;
  std::size_t base = 0;
  for (int round = 0; round < kSetupRounds; ++round) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<serve::Server>(serverConfig());
    const auto n = static_cast<std::size_t>(r.w.warmupJobs);
    serveLoop(
        *server, [&](std::size_t k) { return r.w.warmupJob(base + k); },
        [&](std::size_t k) { return k < n; },
        [&](const Job& job, std::size_t, Clock::time_point sub,
            Clock::time_point ready, const serve::SessionReport& rep) {
          r.record(job, checkSession(rep, expect[job.index]));
          r.warmupLatency.push_back(msSince(sub, ready));
        });
    base += n;
    setup.push_back(msSince(t0) / 1e3);
  }
  return setup;
}

Phase timedServe(Run& r, const std::vector<std::uint64_t>& expect,
                 serve::Server& server, double seconds) {
  Phase ph;
  std::vector<bool> modeled(r.w.corpusSize(), false);
  const double cpu0 = cpuSeconds(), steal0 = stealSeconds();
  const long sw0 = involuntarySwitches();
  const auto t0 = Clock::now();
  serveLoop(
      server, [&](std::size_t k) { return r.w.timedJob(k); },
      [&](std::size_t k) {
        return k < r.w.modeledPass || msSince(t0) < seconds * 1e3;
      },
      [&](const Job& job, std::size_t k, Clock::time_point sub,
          Clock::time_point ready, const serve::SessionReport& rep) {
        const std::uint64_t id = r.nextId++;
        std::string err;
        {
          const auto c0 = Clock::now();
          err = checkSession(rep, expect[job.index]);
          r.tr.add("bench.check", id, c0, Clock::now(), 0);
        }
        r.record(job, err);
        const double lat = msSince(sub, ready);
        r.timedLatency.push_back(lat);
        r.tr.add("serve.session", id, sub, ready, static_cast<int>(1 + k % 16),
                 static_cast<std::int64_t>(job.index));
        ph.jobs += 1;
        // Each program's makespan once, from an uncheckpointed session.
        if (!modeled[job.index] && job.ckptInterval == 0 && err.empty()) {
          modeled[job.index] = true;
          r.modeledMs += rep.makespan * 1e3;
        }
        Layers& L = r.layers;
        L.jobs += 1;
        L.stats += rep.stats;
        L.ops += logicalOps(rep.stats);
        L.net += rep.net;
        L.runMs += rep.wallMs;
        L.sessionMs += rep.wallMs;
        L.queueWaitMs += std::max(0.0, lat - rep.wallMs);
        L.attempts += static_cast<std::uint64_t>(rep.attempts);
        L.hygieneClean += rep.hygieneClean ? 1 : 0;
        if (job.ckptInterval > 0) {
          L.ckptSessions += 1;
          L.snapshots += rep.recovery.snapshots;
          L.snapshotBytes += rep.recovery.snapshotBytes;
          L.ckptSessionMs += rep.wallMs;
        }
      });
  ph.wallS = msSince(t0) / 1e3;
  ph.cpuS = cpuSeconds() - cpu0;
  ph.stealS = stealSeconds() - steal0;
  ph.nivcsw = involuntarySwitches() - sw0;
  return ph;
}

// --- output -----------------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void printResult(bool correct, const Run& r, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof v, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + v +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics: self time per timed job from the spans, and counts
/// per timed job from the stats each layer returns.
std::vector<Metric> layerMetrics(const Run& r, const std::map<std::string, double>& self) {
  const Layers& L = r.layers;
  const double jobs = static_cast<double>(std::max<std::uint64_t>(L.jobs, 1));
  auto per = [&](double v) { return v / jobs; };
  auto selfMs = [&](const std::string& n) {
    auto it = self.find(n);
    return per(it == self.end() ? 0.0 : it->second);
  };
  std::vector<Metric> m;
  m.push_back({"il.parse_ms", "ms", selfMs("il.parse")});
  for (const char* p :
       {"lower-owner-computes", "redundant-transfer-elim", "dead-array-elim",
        "message-vectorize", "compute-rule-elim", "const-fold",
        "recv-hoisting", "comm-binding"})
    m.push_back({std::string("opt.") + p + "_ms", "ms", selfMs(std::string("opt.") + p)});
  m.push_back({"opt.stmts_in", "count", per(double(L.stmtsIn))});
  m.push_back({"opt.stmts_out", "count", per(double(L.stmtsOut))});
  m.push_back({"analysis.verify_ms", "ms", selfMs("analysis.verify")});
  m.push_back({"analysis.stmts_analyzed", "count", per(double(L.stmtsAnalyzed))});
  m.push_back({"analysis.cost_ms", "ms", selfMs("analysis.cost")});
  m.push_back({"analysis.cost_exact_ratio", "ratio",
               ratio(double(L.costExact), double(L.costJobs))});
  m.push_back({"interp.setup_ms", "ms", selfMs("interp.setup")});
  m.push_back({"interp.run_ms", "ms", selfMs("interp.run")});
  m.push_back({"interp.logical_ops", "count", per(double(L.ops))});
  m.push_back({"interp.ops_per_s", "1/s", ratio(double(L.ops), L.runMs / 1e3)});
  m.push_back({"interp.rule_true_ratio", "ratio",
               ratio(double(L.stats.rulesTrue), double(L.stats.rulesEvaluated))});
  m.push_back({"interp.guarded_iters_saved", "count",
               per(double(L.stats.guardedItersSaved))});
  m.push_back({"net.msgs", "count", per(double(L.net.messagesSent))});
  m.push_back({"net.bytes", "bytes", per(double(L.net.bytesSent))});
  m.push_back({"net.msgs_per_s", "1/s",
               ratio(double(L.net.messagesSent), L.runMs / 1e3)});
  m.push_back({"net.unexpected_ratio", "ratio",
               ratio(double(L.net.unexpectedMessages), double(L.net.messagesReceived))});
  m.push_back({"net.rendezvous", "count", per(double(L.net.rendezvousSends))});
  m.push_back({"net.ownership_transfers", "count",
               per(double(L.net.ownershipTransfers))});
  m.push_back({"serve.queue_wait_ms", "ms", r.w.serve ? per(L.queueWaitMs) : 0.0});
  m.push_back({"serve.session_ms", "ms", r.w.serve ? per(L.sessionMs) : 0.0});
  m.push_back({"serve.attempts_per_session", "count",
               r.w.serve ? per(double(L.attempts)) : 0.0});
  m.push_back({"serve.hygiene_clean_ratio", "ratio",
               r.w.serve ? per(double(L.hygieneClean)) : 0.0});
  const double ck = double(std::max<std::uint64_t>(L.ckptSessions, 1));
  m.push_back({"ckpt.snapshots", "count", double(L.snapshots) / ck});
  m.push_back({"ckpt.snapshot_bytes", "bytes", double(L.snapshotBytes) / ck});
  m.push_back({"ckpt.session_ms", "ms", L.ckptSessionMs / ck});
  m.push_back({"bench.check_ms", "ms", selfMs("bench.check")});
  return m;
}

/// Wall cost of one span (open + close), for the tracing-overhead line.
double spanCostUs() {
  constexpr int kSpans = 20000;
  Tracer t(true);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) Scope s(t, "calibration", 0);
  return msSince(t0) * 1e3 / kSpans;
}

void printLayerSummary(const Run& r, const Tracer& tr,
                       const std::map<std::string, double>& self,
                       double jobWallMs, const std::vector<Metric>& metrics) {
  const double jobs = static_cast<double>(std::max<std::uint64_t>(r.layers.jobs, 1));
  std::printf("layer self time per timed job (%llu jobs):\n",
              static_cast<unsigned long long>(r.layers.jobs));
  double covered = 0;
  std::map<std::string, double> byModule;  // il, opt, analysis, interp
  for (const auto& [name, ms] : self) {
    const double share = jobWallMs > 0 ? ms / jobWallMs : 0;
    std::printf("  %-30s %10.4f ms  %6.2f%% of job wall\n", name.c_str(),
                ms / jobs, 100 * share);
    if (name != "job" && name != "bench.check" && name != "serve.session") {
      covered += ms;
      byModule[name.substr(0, name.find('.'))] += share;
    }
  }
  if (!r.w.serve && jobWallMs > 0) {
    std::printf("self-time coverage of job wall: %.2f%%\nby module:",
                100 * covered / jobWallMs);
    for (const auto& [module, share] : byModule)
      std::printf(" %s %.2f%%", module.c_str(), 100 * share);
    std::printf("\n");
  }
  const double ops = static_cast<double>(r.layers.ops);
  std::printf("messages per logical op: %.5f (%llu msgs / %.0f ops)\n",
              ratio(double(r.layers.net.messagesSent), ops),
              static_cast<unsigned long long>(r.layers.net.messagesSent), ops);
  std::printf("per-layer metrics:\n");
  for (const Metric& m : metrics)
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const double p50 = quantile(r.timedLatency, 0.5);
  const double spans = static_cast<double>(tr.size()) / jobs;
  const double perJobMs = spans * spanCostUs() / 1e3;
  std::printf("tracing overhead: traced latency_p50_ms %.4f; %.1f spans per "
              "job cost about %.4f ms per job (%.3f%% of the traced p50)\n",
              p50, spans, perJobMs, p50 > 0 ? 100 * perJobMs / p50 : 0.0);
}

int usage() {
  std::fprintf(stderr,
               "usage: xdp_perfbench --workload compile|exchange|serve"
               " --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, outDir = ".";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") workload = v;
      else if (k == "--seed") seed = std::stoull(v);
      else if (k == "--seconds") seconds = std::stod(v);
      else if (k == "--trace") trace = std::stoi(v);
      else if (k == "--out") outDir = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();

  Workload w(workload, seed);
  try {
    w.build();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  const int cpus = pinCpus(kCpus);
  std::printf("workload %s seed %llu corpus %zu programs hash %016llx; CPUs "
              "%d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              w.corpusSize(), static_cast<unsigned long long>(w.corpusHash()),
              cpus, trace ? " (traced)" : "");

  Tracer tracer(trace == 1);
  Run r(w, tracer);
  std::vector<std::uint64_t> expect;
  if (w.serve)
    for (std::size_t i = 0; i < w.corpusSize(); ++i)
      expect.push_back(digest(reference(w.program(i), kFillSeed)));

  const bool selfOk = w.serve ? selfCheckServe(r, expect) : selfCheckXdpc(r);
  const double probeBefore = probeMs();

  std::vector<double> setup;
  Phase ph;
  std::unique_ptr<serve::Server> server;
  if (w.serve) {
    setup = setupServe(r, expect, server);
    ph = timedServe(r, expect, *server, seconds);
    server.reset();
  } else {
    setup = setupXdpc(r);
    ph = timedXdpc(r, seconds);
  }

  const double p50 = quantile(r.timedLatency, 0.5);
  std::printf(
      "timed: %zu jobs in %.3f s; warm-up median %.3f ms vs timed median "
      "%.3f ms; host steal %.3f s; involuntary switches %ld; CPU probe "
      "%.3f ms before, %.3f ms after\n",
      ph.jobs, ph.wallS, quantile(r.warmupLatency, 0.5), p50, ph.stealS,
      ph.nivcsw, probeBefore, probeMs());
  std::printf("jobs: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const bool correct = selfOk && r.failed == 0;

  std::vector<Metric> metrics;
  if (!tracer.on()) {
    metrics = {
        {"setup_s", "s", quantile(setup, 0.5)},
        {"jobs_per_s", "1/s", static_cast<double>(ph.jobs) / ph.wallS},
        {"latency_p50_ms", "ms", p50},
        {"latency_p90_ms", "ms", quantile(r.timedLatency, 0.9)},
        {"cpu_ms_per_job", "ms", ph.cpuS * 1e3 / static_cast<double>(ph.jobs)},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"modeled_ms", "ms", r.modeledMs},
    };
  } else {
    const auto self = tracer.selfMs();
    double jobWall = 0;
    if (w.serve) {
      jobWall = r.layers.sessionMs + r.layers.queueWaitMs;
    } else {
      for (const auto& [name, ms] : self)
        if (name != "bench.check") jobWall += ms;
    }
    metrics = layerMetrics(r, self);
    printLayerSummary(r, tracer, self, jobWall, metrics);
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    const std::string path = outDir + "/trace-" + w.name + "-" +
                             std::to_string(seed) + ".json";
    if (!tracer.writeChrome(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %s\n", path.c_str());
  }
  printResult(correct, r, metrics);
  return 0;
}
