// Error handling policy for the library (C++ Core Guidelines E.*):
//  - programming errors (precondition violations) -> WFBN_EXPECT, which
//    throws std::logic_error so tests can assert on misuse;
//  - environmental/data errors -> std::runtime_error with context.
// See docs/ROBUSTNESS.md for the per-API failure semantics.
#pragma once

#include <stdexcept>
#include <string>

namespace wfbn {

/// Thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown for malformed input data (bad CSV, state out of range, ...).
class DataError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a cooperative cancellation token (e.g. LearnRequest::cancel)
/// is observed set. A distinct type so callers can tell a deliberate abort
/// from a data or environment failure; the serving layer maps it to a clean
/// error response rather than a crash.
class OperationCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] inline void fail_precondition(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  throw PreconditionError(std::string("precondition failed: ") + expr + " at " +
                          file + ":" + std::to_string(line) +
                          (msg.empty() ? "" : (" — " + msg)));
}
}  // namespace detail

}  // namespace wfbn

/// Precondition check that is always on (cheap checks on public boundaries).
#define WFBN_EXPECT(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::wfbn::detail::fail_precondition(#cond, __FILE__, __LINE__, (msg));  \
    }                                                                       \
  } while (false)
