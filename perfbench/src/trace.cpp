#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

int Tracer::nameId(const std::string& name) {
  auto [it, fresh] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

int Tracer::open(const std::string& name, std::uint64_t job,
                 std::int64_t program) {
  const int parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {nameId(name), parent, 0, job, program, ns(Clock::now()), 0, 0});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = ns(Clock::now());
  open_.pop_back();
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].childNs += s.t1 - s.t0;
}

void Tracer::add(const std::string& name, std::uint64_t job,
                 Clock::time_point t0, Clock::time_point t1, int lane,
                 std::int64_t program) {
  if (!on_) return;
  spans_.push_back({nameId(name), -1, lane, job, program, ns(t0), ns(t1), 0});
}

std::map<std::string, double> Tracer::selfMs() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    out[names_[static_cast<std::size_t>(s.name)]] +=
        static_cast<double>(s.t1 - s.t0 - s.childNs) / 1e6;
  return out;
}

bool Tracer::writeChrome(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"job\": %llu, \"program\": %lld, \"parent\": %d}}",
                 i ? "," : "", names_[static_cast<std::size_t>(s.name)].c_str(),
                 s.lane + 1, static_cast<double>(s.t0) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3,
                 static_cast<unsigned long long>(s.job),
                 static_cast<long long>(s.program), s.parent);
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::fflush(f.get()) == 0 && !std::ferror(f.get());
}

}  // namespace perfbench
