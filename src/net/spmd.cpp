#include "xdp/net/spmd.hpp"

#include <exception>
#include <sstream>
#include <utility>
#include <vector>

#include "xdp/support/check.hpp"

namespace xdp::net {

void runSpmd(int nprocs, const std::function<void(int pid)>& node,
             FiberScheduler::ClockFn clock, FiberScheduler::StallFn stall) {
  XDP_CHECK(nprocs >= 1, "runSpmd needs at least one processor");
  const std::vector<std::exception_ptr> errors =
      FiberScheduler::run(nprocs, node, std::move(clock), std::move(stall));

  std::vector<std::pair<int, std::exception_ptr>> fails;
  for (int p = 0; p < nprocs; ++p) {
    if (errors[static_cast<std::size_t>(p)])
      fails.emplace_back(p, errors[static_cast<std::size_t>(p)]);
  }
  if (fails.empty()) return;
  if (fails.size() == 1) std::rethrow_exception(fails[0].second);

  // Several nodes failed. Aggregate every failure into one error so no
  // diagnostic is lost, and keep the most specific common type: a
  // diagnosed deadlock dominates (its report travels along), otherwise
  // uniform usage errors stay usage errors.
  std::ostringstream os;
  os << fails.size() << " of " << nprocs << " SPMD nodes failed:";
  bool sawDeadlock = false;
  bool allUsage = true;
  std::string deadlockReport;
  for (const auto& [pid, err] : fails) {
    os << "\n  p" << pid << ": ";
    try {
      std::rethrow_exception(err);
    } catch (const DeadlockError& e) {
      os << e.summary();
      if (!sawDeadlock) deadlockReport = e.report();
      sawDeadlock = true;
      allUsage = false;
    } catch (const UsageError& e) {
      os << e.what();
    } catch (const std::exception& e) {
      os << e.what();
      allUsage = false;
    } catch (...) {
      os << "unknown error";
      allUsage = false;
    }
  }
  if (sawDeadlock) throw DeadlockError(os.str(), std::move(deadlockReport));
  if (allUsage) throw UsageError(os.str());
  throw XdpError(os.str());
}

}  // namespace xdp::net
