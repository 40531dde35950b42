// Span recorder for the benchmark's traced mode. Spans are recorded from
// the benchmark's own code around each call into an XDP layer; they stay
// in memory and are written out once, at exit, as Chrome trace-event JSON
// (Perfetto and chrome://tracing open it). When the recorder is off every
// call is one branch, so untraced runs measure the library alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  /// Open a span nested in the innermost open one; returns its id (-1 when
  /// off). Spans opened here must close in LIFO order. `program` is the
  /// corpus index the job runs (-1: not recorded).
  int open(const std::string& name, std::uint64_t job,
           std::int64_t program = -1);
  void close(int id);

  /// A span timed elsewhere (a served session, from submit to report
  /// ready). `lane` separates overlapping spans in the viewer.
  void add(const std::string& name, std::uint64_t job, Clock::time_point t0,
           Clock::time_point t1, int lane, std::int64_t program = -1);

  std::size_t size() const { return spans_.size(); }

  /// Self time (span minus the time its children cover) summed per name,
  /// in milliseconds.
  std::map<std::string, double> selfMs() const;

  /// Chrome trace-event JSON; returns false if the file cannot be written.
  bool writeChrome(const std::string& path) const;

 private:
  struct Span {
    int name;
    int parent;
    int lane;
    std::uint64_t job;
    std::int64_t program;
    std::int64_t t0, t1;  ///< ns since origin_
    std::int64_t childNs;
  };

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  int nameId(const std::string& name);

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::uint64_t job,
        std::int64_t program = -1)
      : t_(t), id_(t.on() ? t.open(name, job, program) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
