// SPMD execution: "the program will be loaded onto every processor of the
// target machine that is assigned to the program" (paper section 1).
// runSpmd runs the node program once per simulated processor, each as a
// fiber on the calling thread, and rethrows the failure(s).
#pragma once

#include <functional>

#include "xdp/support/fiber.hpp"

namespace xdp::net {

/// Run `node(pid)` for every pid in [0, nprocs) as fibers of one
/// FiberScheduler on the calling thread, with its `clock` and `stall`
/// hooks; returns when all have finished.
///
/// Failure handling: one failed node rethrows its exception unchanged.
/// When several nodes fail, ALL failures are aggregated into one error
/// whose message lists each pid and its what(); the aggregate is a
/// DeadlockError (keeping the first diagnostic report) if any node
/// deadlocked, a UsageError if every failure was a usage error, and a
/// plain XdpError otherwise.
void runSpmd(int nprocs, const std::function<void(int pid)>& node,
             FiberScheduler::ClockFn clock = {},
             FiberScheduler::StallFn stall = {});

}  // namespace xdp::net
