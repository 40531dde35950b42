// The long-lived multi-tenant server: admits sessions onto a bounded
// worker pool over a shared endpoint arena, contains every failure to
// its session (see session.hpp for the containment boundary), and
// degrades gracefully under load — when the pending queue is full,
// admission control sheds new sessions with a typed AdmissionRejected
// instead of queuing unboundedly.
//
// The endpoint arena is the shared-fabric resource model: the server
// owns a fixed number of endpoint slots; a session leases one slot per
// simulated processor for the duration of its run (its fabric partition
// — barriers and rendezvous matching stay inside the partition, which is
// what makes per-session fault isolation possible at all), and teardown
// always returns the lease, faulted or not. Tests assert the arena
// drains back to zero after any chaos mix.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "xdp/serve/session.hpp"
#include "xdp/support/check.hpp"

namespace xdp::serve {

/// Typed admission-control rejection: the server is shedding load. The
/// caller may back off and resubmit; nothing was queued.
class AdmissionRejected : public XdpError {
 public:
  explicit AdmissionRejected(std::string what) : XdpError(std::move(what)) {}
};

struct ServerConfig {
  int workers = 4;
  /// Admission bound: sessions accepted but not yet running. Submissions
  /// beyond it are shed with AdmissionRejected.
  int maxPending = 64;
  /// Endpoint slots in the shared arena; 0 = 8 * workers. Must be at
  /// least the largest program's nprocs or that program can never run.
  int endpointCapacity = 0;
  SessionOptions session{};
};

struct ServerStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   ///< shed at admission control
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< any non-Completed outcome (Preempted too)
  std::uint64_t retries = 0;    ///< extra attempts across all sessions
  std::uint64_t readmitted = 0; ///< spilled sessions resumed at startup
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  /// Stops admission, finishes every queued session, joins the workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit a session. Returns a future for its report; throws
  /// AdmissionRejected when the pending queue is full or the server is
  /// shutting down. Session failures never surface here — they are
  /// outcomes inside the report.
  std::future<SessionReport> submit(SessionRequest req);

  /// Stop admitting, run everything already queued, join the workers.
  /// Trips the stop latch first, so sessions parked in retry backoff wake
  /// immediately instead of serving out their sleep. Idempotent; the
  /// destructor calls it.
  void shutdown();

  /// Scan `dir` for *.xdpspill files written by preempted sessions (this
  /// server's spillDir, or a crashed predecessor's) and resubmit each as
  /// a resume request. Corrupt spills and spills checkpointed by another
  /// engine than the VM are skipped and left on disk; a resumed session
  /// deletes its spill on completion. Returns the number re-admitted.
  int readmitSpilled(const std::string& dir);

  ServerStats stats() const;
  int pendingSessions() const;
  int endpointsInUse() const;
  int endpointCapacity() const { return cfg_.endpointCapacity; }

 private:
  struct Job {
    std::uint64_t id;
    SessionRequest req;
    std::promise<SessionReport> promise;
  };

  void workerLoop();
  SessionReport runJob(Job& job);

  /// Lease `n` endpoint slots, blocking until available (leases are
  /// always returned, so waiting cannot deadlock as long as n <=
  /// capacity; larger requests fail the session instead of blocking
  /// forever).
  bool acquireEndpoints(int n);
  void releaseEndpoints(int n);

  ServerConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< queue activity
  std::condition_variable arenaCv_;   ///< endpoint-lease returns
  std::deque<Job> queue_;
  bool stopping_ = false;
  int endpointsInUse_ = 0;
  std::uint64_t nextId_ = 1;
  ServerStats stats_;

  /// Shared shutdown gate handed to every session via SessionOptions.
  StopLatch stopLatch_;

  std::vector<std::thread> workers_;
};

}  // namespace xdp::serve
