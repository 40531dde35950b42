// Diagnostics for the XDP runtime and compiler.
//
// The paper's semantics are deliberately unsafe: the runtime performs no
// automatic state checks, because the compiler is expected to have proven
// them unnecessary (XDP paper, section 2.1/2.5). We therefore split
// diagnostics into two tiers:
//
//   * XDP_CHECK   — precondition violations of the *implementation* API
//                   (bad rank, out-of-range index). Always on; throws.
//   * XDP_DEBUG_CHECK — violations of the *XDP usage rules* (reading a
//                   transitional section, mismatched send/receive names,
//                   receiving ownership of an owned section). Enabled per
//                   runtime instance via RuntimeOptions::debug_checks;
//                   this macro is the cheap always-compiled variant used
//                   in hot paths guarded by a bool.
#pragma once

#include <stdexcept>
#include <string>

namespace xdp {

/// Root of the XDP exception hierarchy. Every error the fabric, runtime
/// or compiler raises derives from this, so callers can catch one type.
class XdpError : public std::runtime_error {
 public:
  explicit XdpError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Historical name for the base error (implementation-precondition
/// violations throw it directly).
using Error = XdpError;

/// Error thrown (in debug-checks mode) when a program violates the XDP
/// usage rules of Figure 1 — e.g. reading a transitional section.
class UsageError : public XdpError {
 public:
  explicit UsageError(std::string what) : XdpError(std::move(what)) {}
};

/// Error thrown out of blocked awaits / barrier waits when the runtime has
/// diagnosed a deadlock: every processor is blocked or finished and no
/// message in the fabric can complete any posted receive. Carries a
/// structured multi-line report (one line per fact: blocked processors,
/// pending receives, undelivered messages, section ownership states).
class DeadlockError : public XdpError {
 public:
  DeadlockError(const std::string& summary, std::string report)
      : XdpError(report.empty() ? summary : summary + "\n" + report),
        summary_(summary),
        report_(std::move(report)) {}

  /// One-line description ("XDP deadlock: 2 processors blocked ...").
  const std::string& summary() const { return summary_; }
  /// The full diagnostic dump (see xdp::rt::dumpDeadlock for the format).
  const std::string& report() const { return report_; }

 private:
  std::string summary_;
  std::string report_;
};

/// Error thrown by the fault injector when a simulated endpoint crash
/// fires (FaultPlan::crashPids): the endpoint's send aborts its node
/// program, as a died-mid-run processor would.
class FaultAbort : public XdpError {
 public:
  explicit FaultAbort(std::string what) : XdpError(std::move(what)) {}
};

/// Error thrown when a multi-tenant session exceeds one of its enforced
/// resource quotas (logical steps, resident bytes, fabric messages/bytes,
/// wall-time budget — see xdp::serve::Quotas). `resource()` names the
/// breached quota so reports can aggregate by kind.
class QuotaExceeded : public XdpError {
 public:
  QuotaExceeded(std::string resource, std::string what)
      : XdpError("quota exceeded [" + resource + "]: " + what),
        resource_(std::move(resource)) {}

  const std::string& resource() const { return resource_; }

 private:
  std::string resource_;
};

namespace detail {
[[noreturn]] void checkFailed(const char* file, int line, const char* expr,
                              const std::string& msg);
[[noreturn]] void usageFailed(const char* file, int line,
                              const std::string& msg);
}  // namespace detail

}  // namespace xdp

#define XDP_CHECK(expr, msg)                                          \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::xdp::detail::checkFailed(__FILE__, __LINE__, #expr, (msg));   \
    }                                                                 \
  } while (0)

#define XDP_USAGE_FAIL(msg) ::xdp::detail::usageFailed(__FILE__, __LINE__, (msg))
