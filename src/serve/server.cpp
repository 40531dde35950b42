#include "xdp/serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "xdp/ckpt/image.hpp"
#include "xdp/il/parser.hpp"

namespace xdp::serve {

Server::Server(ServerConfig cfg) : cfg_(cfg) {
  XDP_CHECK(cfg_.workers >= 1, "server needs at least one worker");
  XDP_CHECK(cfg_.maxPending >= 1, "server needs a positive pending bound");
  if (cfg_.endpointCapacity <= 0) cfg_.endpointCapacity = 8 * cfg_.workers;
  cfg_.session.stopLatch = &stopLatch_;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w)
    workers_.emplace_back([this] { workerLoop(); });
}

Server::~Server() { shutdown(); }

std::future<SessionReport> Server::submit(SessionRequest req) {
  std::future<SessionReport> fut;
  {
    std::lock_guard lk(mu_);
    if (stopping_)
      throw AdmissionRejected("server is shutting down; session '" +
                              req.name + "' not admitted");
    if (queue_.size() >= static_cast<std::size_t>(cfg_.maxPending)) {
      stats_.rejected += 1;
      throw AdmissionRejected(
          "admission control: pending queue full (" +
          std::to_string(cfg_.maxPending) + " sessions); session '" +
          req.name + "' shed — back off and resubmit");
    }
    Job job;
    job.id = nextId_++;
    job.req = std::move(req);
    fut = job.promise.get_future();
    stats_.admitted += 1;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return fut;
}

void Server::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (stopping_) {
      // Idempotent: a second call (the destructor after an explicit
      // shutdown) finds the workers already joined.
      if (workers_.empty()) return;
    }
    stopping_ = true;
  }
  stopLatch_.stop();
  cv_.notify_all();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

ServerStats Server::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

int Server::readmitSpilled(const std::string& dir) {
  if (dir.empty()) return 0;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& ent : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.size() > 9 && name.substr(name.size() - 9) == ".xdpspill")
      paths.push_back(ent.path().string());
  }
  std::sort(paths.begin(), paths.end());  // deterministic re-admission order

  int readmitted = 0;
  for (const std::string& path : paths) {
    SpillFile sp;
    try {
      sp = readSpillFile(path);
    } catch (const ckpt::CkptError&) {
      continue;  // torn/corrupt spill: leave it for inspection
    }
    // A snapshot carries one engine's continuation representation; a
    // server resumes only the VM's. Foreign spills stay on disk.
    if (sp.backend != kSessionBackend) continue;
    SessionRequest req;
    req.name = sp.name;
    req.source = sp.source;
    req.fillSeed = sp.fillSeed;
    req.usePipeline = sp.usePipeline;
    req.analyze = sp.analyze;
    req.checkpointIntervalSteps = sp.checkpointIntervalSteps;
    req.resumeFrom = path;
    try {
      submit(std::move(req));
    } catch (const AdmissionRejected&) {
      break;  // queue full: the rest stay spilled for a later sweep
    }
    {
      std::lock_guard lk(mu_);
      stats_.readmitted += 1;
    }
    ++readmitted;
  }
  return readmitted;
}

int Server::pendingSessions() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(queue_.size());
}

int Server::endpointsInUse() const {
  std::lock_guard lk(mu_);
  return endpointsInUse_;
}

void Server::workerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and everything queued ran
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    SessionReport rep = runJob(job);
    {
      std::lock_guard lk(mu_);
      if (rep.outcome == SessionOutcome::Completed)
        stats_.completed += 1;
      else
        stats_.failed += 1;
      if (rep.attempts > 1)
        stats_.retries += static_cast<std::uint64_t>(rep.attempts - 1);
    }
    job.promise.set_value(std::move(rep));
  }
}

SessionReport Server::runJob(Job& job) {
  // Lease the session's fabric partition from the shared endpoint arena.
  // The program's nprocs is not known until it parses, so parse-only
  // outcomes are produced without a lease (they run no fabric); a probe
  // run of runSession with an unparseable/overlarge program never reaches
  // execution either, but we must know nprocs *before* leasing — so peek
  // at the program here.
  int nprocs = 0;
  if (job.req.program) {
    nprocs = job.req.program->nprocs;
  } else {
    try {
      nprocs = il::parseProgram(job.req.source).nprocs;
    } catch (...) {
      // Let runSession produce the canonical RejectedParse report.
      return runSession(job.req, cfg_.session, job.id);
    }
  }

  if (nprocs > cfg_.endpointCapacity) {
    // Larger than the whole arena: blocking would deadlock admission.
    SessionReport rep;
    rep.id = job.id;
    rep.name = job.req.name;
    rep.outcome = SessionOutcome::Failed;
    rep.nprocs = nprocs;
    rep.error = "session needs " + std::to_string(nprocs) +
                " endpoints but the arena has " +
                std::to_string(cfg_.endpointCapacity);
    rep.hygieneClean = true;
    return rep;
  }

  acquireEndpoints(nprocs);
  SessionReport rep;
  try {
    rep = runSession(job.req, cfg_.session, job.id);
  } catch (...) {
    // runSession is no-throw for session failures, but the lease must
    // survive even a logic error in it.
    releaseEndpoints(nprocs);
    throw;
  }
  releaseEndpoints(nprocs);
  return rep;
}

bool Server::acquireEndpoints(int n) {
  std::unique_lock lk(mu_);
  arenaCv_.wait(lk, [&] {
    return endpointsInUse_ + n <= cfg_.endpointCapacity;
  });
  endpointsInUse_ += n;
  return true;
}

void Server::releaseEndpoints(int n) {
  {
    std::lock_guard lk(mu_);
    endpointsInUse_ -= n;
  }
  arenaCv_.notify_all();
}

}  // namespace xdp::serve
