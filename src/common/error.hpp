// Error handling primitives for the Supercloud WCC library.
//
// The library follows the C++ Core Guidelines error model: programming
// errors (violated preconditions) are reported through SCWC_CHECK /
// SCWC_REQUIRE which throw scwc::Error with file/line context; recoverable
// conditions use status-returning APIs at the module boundary.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace scwc {

/// Exception type thrown by all SCWC precondition and invariant checks.
///
/// Carries the failing expression, the source location and a free-form
/// message so that test failures and user errors are actionable.
class Error : public std::runtime_error {
 public:
  Error(std::string_view what_arg, std::string_view file, int line);

  /// Source file in which the check failed.
  [[nodiscard]] const std::string& file() const noexcept { return file_; }
  /// Source line at which the check failed.
  [[nodiscard]] int line() const noexcept { return line_; }

  /// A copy that shares no storage with this one: the message is copied
  /// into a new buffer, not reference-counted. A thread can throw it
  /// while another destroys the original (parallel_for_blocked does).
  [[nodiscard]] Error deep_copy() const;

 private:
  struct Verbatim {};
  Error(Verbatim, const std::string& what_arg, std::string file, int line);

  std::string file_;
  int line_ = 0;
};

namespace detail {
[[noreturn]] void throw_error(std::string_view expr, std::string_view msg,
                              std::string_view file, int line);
}  // namespace detail

}  // namespace scwc

/// Precondition check: throws scwc::Error when `cond` is false.
/// `msg` may be any expression convertible to std::string.
#define SCWC_REQUIRE(cond, msg)                                       \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::scwc::detail::throw_error(#cond, (msg), __FILE__, __LINE__);  \
    }                                                                 \
  } while (false)

/// Internal invariant check. Semantically identical to SCWC_REQUIRE but
/// signals a library bug rather than caller misuse.
#define SCWC_CHECK(cond, msg) SCWC_REQUIRE(cond, msg)

/// Unconditional failure with message.
#define SCWC_FAIL(msg) \
  ::scwc::detail::throw_error("unreachable", (msg), __FILE__, __LINE__)
