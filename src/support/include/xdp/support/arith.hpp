// The single definition of IL integer arithmetic semantics.
//
// Every consumer of IL arithmetic — the tree-walking interpreter, the
// bytecode VM, and compile-time constant folding — must agree bit-for-bit,
// or the differential oracle (tree walk vs VM vs folded-then-run) reports
// false mismatches and real miscompiles hide behind them. The rules:
//
//   * Add / Sub / Mul / Neg wrap modulo 2^64 (two's complement). C++
//     signed overflow is UB, so these route through uint64_t; the result
//     is what the hardware produces and what both backends and the
//     folder reproduce identically.
//   * Div / Mod by zero raise UsageError (a program bug, reported — not
//     UB, not a crash). INT64_MIN / -1 and INT64_MIN % -1 overflow the
//     result (SIGFPE on x86) and raise the same UsageError.
//
// Const-fold must NEVER raise these at compile time: a trapping division
// may sit under a guard that is false at run time (or inside a zero-trip
// loop), and folding it would introduce a fault on a path the program
// never executes. It calls the tryFold* forms, which decline instead.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "xdp/support/check.hpp"

namespace xdp::arith {

inline std::int64_t wrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrapNeg(std::int64_t a) {
  return static_cast<std::int64_t>(-static_cast<std::uint64_t>(a));
}

/// True iff a/b (and a%b) would trap: divisor zero, or the one overflowing
/// quotient INT64_MIN / -1.
inline bool divTraps(std::int64_t a, std::int64_t b) {
  return b == 0 || (a == INT64_MIN && b == -1);
}

[[noreturn]] inline void raiseDivTrap(std::int64_t a, std::int64_t b,
                                      const char* what) {
  if (b == 0)
    throw UsageError(std::string(what) + " by zero");
  throw UsageError(std::string(what) + " overflow: " + std::to_string(a) +
                   (what[0] == 'd' ? " / " : " % ") + std::to_string(b));
}

inline std::int64_t checkedDiv(std::int64_t a, std::int64_t b) {
  if (divTraps(a, b)) raiseDivTrap(a, b, "division");
  return a / b;
}

inline std::int64_t checkedMod(std::int64_t a, std::int64_t b) {
  if (divTraps(a, b)) raiseDivTrap(a, b, "modulo");
  return a % b;
}

/// The value an i64 element store writes: element stores are
/// f64-mediated and round to nearest (llround). A non-finite value or one
/// beyond int64 has no such value (llround's result is unspecified
/// there), so it raises UsageError, by the range rule of index values.
inline std::int64_t storeI64(double v) {
  if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0))
    throw UsageError(
        "i64 element store out of range (non-finite or beyond int64): " +
        std::to_string(v));
  return static_cast<std::int64_t>(std::llround(v));
}

/// Checked non-wrapping product for the static cost model's byte
/// accounting: element counts can approach 2^63 before the
/// segment-count × element-size multiplication, so the product goes
/// through __int128 and raises UsageError instead of silently wrapping on
/// adversarial extents (the same hardening as Triplet::intersect's
/// overflow fix). Operands must be non-negative.
inline std::int64_t checkedMulNonNeg(std::int64_t a, std::int64_t b,
                                     const char* what) {
  if (a < 0 || b < 0)
    throw UsageError(std::string(what) + " is negative (" +
                     std::to_string(a) + " * " + std::to_string(b) + ")");
  const __int128 p = static_cast<__int128>(a) * static_cast<__int128>(b);
  if (p > static_cast<__int128>(INT64_MAX))
    throw UsageError(std::string(what) + " overflows 64-bit accounting: " +
                     std::to_string(a) + " * " + std::to_string(b));
  return static_cast<std::int64_t>(p);
}

/// Checked non-wrapping sum, same contract as checkedMulNonNeg.
inline std::int64_t checkedAddNonNeg(std::int64_t a, std::int64_t b,
                                     const char* what) {
  if (a < 0 || b < 0)
    throw UsageError(std::string(what) + " is negative (" +
                     std::to_string(a) + " + " + std::to_string(b) + ")");
  const __int128 s = static_cast<__int128>(a) + static_cast<__int128>(b);
  if (s > static_cast<__int128>(INT64_MAX))
    throw UsageError(std::string(what) + " overflows 64-bit accounting: " +
                     std::to_string(a) + " + " + std::to_string(b));
  return static_cast<std::int64_t>(s);
}

/// Fold-time forms: return nullopt on would-trap inputs so the folder
/// leaves the expression for runtime (see header comment).
inline std::optional<std::int64_t> tryFoldDiv(std::int64_t a, std::int64_t b) {
  if (divTraps(a, b)) return std::nullopt;
  return a / b;
}

inline std::optional<std::int64_t> tryFoldMod(std::int64_t a, std::int64_t b) {
  if (divTraps(a, b)) return std::nullopt;
  return a % b;
}

}  // namespace xdp::arith
