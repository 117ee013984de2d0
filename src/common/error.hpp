// Error handling for gemmtune.
//
// The library reports unrecoverable misuse (bad parameters, out-of-range
// accesses in the simulator, malformed kernels) through gemmtune::Error,
// which carries a human-readable message and, apart from it, the source
// location of the failed check. Recoverable conditions (a candidate kernel
// that fails validation during tuning) are reported through return values
// instead.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace gemmtune {

/// Exception thrown on precondition violations and internal invariant
/// failures anywhere in the library. what() is the message alone, fit to
/// show a user; where() is the source location of the failed check, for
/// debugging.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 const std::source_location& loc =
                     std::source_location::current())
      : std::runtime_error(what), loc_(loc) {}
  const std::source_location& where() const { return loc_; }

 private:
  std::source_location loc_;
};

namespace detail {
[[noreturn]] inline void raise(const std::string& msg,
                               const std::source_location& loc) {
  throw Error(msg, loc);
}
}  // namespace detail

/// Checks a precondition; throws gemmtune::Error with the caller's source
/// location when `cond` is false.
inline void check(bool cond, const std::string& msg,
                  const std::source_location loc =
                      std::source_location::current()) {
  if (!cond) detail::raise(msg, loc);
}

/// check() with a literal message: a passing check builds no std::string,
/// so hot paths may check freely.
inline void check(bool cond, const char* msg,
                  const std::source_location loc =
                      std::source_location::current()) {
  if (!cond) detail::raise(msg, loc);
}

/// Unconditional failure with message; used for unreachable branches.
[[noreturn]] inline void fail(const std::string& msg,
                              const std::source_location loc =
                                  std::source_location::current()) {
  detail::raise(msg, loc);
}

}  // namespace gemmtune
