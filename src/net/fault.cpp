#include "xdp/net/fault.hpp"

#include <algorithm>
#include <mutex>

#include "xdp/net/wire.hpp"
#include "xdp/support/check.hpp"
#include "xdp/support/rng.hpp"

namespace xdp::net {

namespace {

void markPids(const std::vector<int>& pids, int nprocs,
              std::vector<char>& flags, const char* what) {
  for (int p : pids) {
    XDP_CHECK(p >= 0 && p < nprocs, std::string("FaultPlan: bad pid in ") + what);
    flags[static_cast<std::size_t>(p)] = 1;
  }
}

double unitReal(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, int nprocs)
    : plan_(std::move(plan)),
      stalled_(static_cast<std::size_t>(nprocs), 0),
      crashy_(static_cast<std::size_t>(nprocs), 0),
      src_(static_cast<std::size_t>(nprocs)) {
  auto checkProb = [](double p, const char* what) {
    XDP_CHECK(p >= 0.0 && p <= 1.0,
              std::string("FaultPlan: probability out of [0,1]: ") + what);
  };
  checkProb(plan_.dropProb, "dropProb");
  checkProb(plan_.dupProb, "dupProb");
  checkProb(plan_.delayProb, "delayProb");
  checkProb(plan_.reorderProb, "reorderProb");
  markPids(plan_.stallPids, nprocs, stalled_, "stallPids");
  markPids(plan_.crashPids, nprocs, crashy_, "crashPids");
}

FaultInjector::Outcome FaultInjector::classify(int src) {
  SrcState& st = src_[idx(src)];
  const std::uint64_t ordinal = st.seq++;
  // Counter-based decision stream: one generator per (seed, src, ordinal),
  // so decisions do not depend on the interleaving of other endpoints.
  SplitMix64 g(plan_.seed +
               0x9e3779b97f4a7c15ULL * (ordinal + 1) +
               0x2545f4914f6cdd1dULL * (static_cast<std::uint64_t>(src) + 1));
  const double uDrop = unitReal(g.next());
  const double uDup = unitReal(g.next());
  const double uDelay = unitReal(g.next());
  const double uDelayAmt = unitReal(g.next());
  const double uReorder = unitReal(g.next());

  Outcome o;
  o.drop = uDrop < plan_.dropProb;
  if (o.drop) {
    stats_.dropped += 1;
    return o;
  }
  o.duplicate = uDup < plan_.dupProb;
  if (o.duplicate) stats_.duplicated += 1;
  if (uDelay < plan_.delayProb) {
    o.extraDelay += uDelayAmt * plan_.maxDelay;
    stats_.delayed += 1;
  }
  if (stalled_[idx(src)]) {
    o.extraDelay += plan_.stallDelay;
    stats_.stalled += 1;
  }
  o.hold = uReorder < plan_.reorderProb;
  return o;
}

bool FaultInjector::crashNow(int src) {
  if (!crashy_[idx(src)]) return false;
  SrcState& st = src_[idx(src)];
  st.sendCount += 1;
  if (st.sendCount <= plan_.crashAfterSends) return false;
  if (st.sendCount == plan_.crashAfterSends + 1)
    stats_.crashed += 1;
  return true;
}

void FaultInjector::disarmCrashes() {
  std::fill(crashy_.begin(), crashy_.end(), 0);
  // The crash that triggered this recovery was counted by crashNow and
  // then rewound by restoreState (the snapshot predates it) — re-record
  // it here so stats stay truthful across the rollback.
  stats_.crashed += 1;
  stats_.recovered += 1;
}

void FaultInjector::exportState(ckpt::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(src_.size()));
  for (const SrcState& st : src_) w.u64(st.seq);
  for (const SrcState& st : src_) w.u64(st.sendCount);
  w.u64(nextDupId_);
  w.u64(stats_.dropped);
  w.u64(stats_.duplicated);
  w.u64(stats_.suppressedDuplicates);
  w.u64(stats_.delayed);
  w.u64(stats_.reordered);
  w.u64(stats_.stalled);
  w.u64(stats_.crashed);
  w.u64(stats_.recovered);
  w.u32(static_cast<std::uint32_t>(src_.size()));
  for (const SrcState& st : src_) {
    w.boolean(st.held.has_value());
    if (!st.held.has_value()) continue;
    wire::putMessage(w, st.held->msg);
    w.boolean(st.held->dest.has_value());
    if (st.held->dest.has_value()) w.i64(*st.held->dest);
  }
}

void FaultInjector::restoreState(ckpt::Reader& r) {
  const std::uint32_t n = r.u32();
  if (n != src_.size())
    throw ckpt::CkptError("fault image endpoint count mismatch");
  for (SrcState& st : src_) st.seq = r.u64();
  for (SrcState& st : src_) st.sendCount = r.u64();
  nextDupId_ = r.u64();
  stats_.dropped = r.u64();
  stats_.duplicated = r.u64();
  stats_.suppressedDuplicates = r.u64();
  stats_.delayed = r.u64();
  stats_.reordered = r.u64();
  stats_.stalled = r.u64();
  stats_.crashed = r.u64();
  stats_.recovered = r.u64();
  const std::uint32_t hn = r.u32();
  if (hn != src_.size())
    throw ckpt::CkptError("fault image held-slot count mismatch");
  std::size_t count = 0;
  for (SrcState& st : src_) {
    st.held.reset();
    if (!r.boolean()) continue;
    Held h;
    h.msg = wire::getMessage(r);
    if (r.boolean()) h.dest = static_cast<int>(r.i64());
    st.held = std::move(h);
    count += 1;
  }
  heldCount_ = count;
}

bool FaultInjector::hasHeld(int src) const {
  return src_[idx(src)].held.has_value();
}

const Name& FaultInjector::heldName(int src) const {
  const auto& h = src_[idx(src)].held;
  XDP_CHECK(h.has_value(), "heldName: no held message for this source");
  return h->msg.name;
}

void FaultInjector::hold(int src, Message msg, std::optional<int> dest) {
  auto& slot = src_[idx(src)].held;
  XDP_CHECK(!slot.has_value(), "hold: source already has a held message");
  slot = Held{std::move(msg), dest};
  heldCount_ += 1;
  stats_.reordered += 1;
}

FaultInjector::Held FaultInjector::takeHeld(int src) {
  auto& slot = src_[idx(src)].held;
  XDP_CHECK(slot.has_value(), "takeHeld: no held message for this source");
  Held h = std::move(*slot);
  slot.reset();
  heldCount_ -= 1;
  return h;
}

std::vector<FaultInjector::Held> FaultInjector::takeAllHeld() {
  std::vector<Held> out;
  for (SrcState& st : src_) {
    if (!st.held.has_value()) continue;
    out.push_back(std::move(*st.held));
    st.held.reset();
  }
  heldCount_ = 0;
  return out;
}

namespace {
std::mutex gScopeMu;
std::optional<FaultPlan> gScopePlan;
}  // namespace

FaultScope::FaultScope(FaultPlan plan) {
  std::lock_guard lk(gScopeMu);
  prev_ = std::move(gScopePlan);
  gScopePlan = std::move(plan);
}

FaultScope::~FaultScope() {
  std::lock_guard lk(gScopeMu);
  gScopePlan = std::move(prev_);
}

std::optional<FaultPlan> currentGlobalFaultPlan() {
  std::lock_guard lk(gScopeMu);
  return gScopePlan;
}

}  // namespace xdp::net
