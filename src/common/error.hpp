// Contract checking and error types shared across the goodones library.
//
// Follows C++ Core Guidelines I.6/I.8 (state preconditions and postconditions)
// with lightweight macros that throw rather than abort, so library misuse is
// testable and recoverable by callers.
#pragma once

#include <stdexcept>
#include <string>

namespace goodones::common {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when an internal invariant or postcondition fails (library bug).
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when a persisted artifact cannot be read back: truncated file,
/// wrong magic or version, shape/kind mismatch, or a stale config
/// fingerprint. Loaders guarantee the in-memory target is left untouched
/// when this is thrown — a half-loaded model is never served.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void fail_precondition(const char* expr, const char* file, int line) {
  throw PreconditionError(std::string("precondition failed: ") + expr + " at " + file + ":" +
                          std::to_string(line));
}

[[noreturn]] inline void fail_invariant(const char* expr, const char* file, int line) {
  throw InvariantError(std::string("invariant failed: ") + expr + " at " + file + ":" +
                       std::to_string(line));
}

}  // namespace goodones::common

/// Precondition check: document and enforce what callers must guarantee.
#define GO_EXPECTS(cond)                                                 \
  do {                                                                   \
    if (!(cond)) ::goodones::common::fail_precondition(#cond, __FILE__, __LINE__); \
  } while (false)

/// Invariant/postcondition check: enforce what the library guarantees.
#define GO_ENSURES(cond)                                               \
  do {                                                                 \
    if (!(cond)) ::goodones::common::fail_invariant(#cond, __FILE__, __LINE__); \
  } while (false)
