// Rule engine behind the scwc_lint invariant checker.
//
// Generic linters can't know this project's contracts; these rules encode
// them (DESIGN.md §8 has the rationale table):
//   no-raw-rand       rand()/srand()/std::random_device outside
//                     src/common/rng.* breaks bit-reproducibility
//   no-stdout-in-lib  library code (src/) must narrate via scwc::log so
//                     SCWC_LOG controls verbosity everywhere
//   no-raw-getenv     getenv outside src/common/env.* bypasses the typed
//                     env accessors (obs/ is exempted inline — see below)
//   pragma-once       every header guards with #pragma once
//   no-float-eq       EXPECT_EQ/ASSERT_EQ on a bare float literal in
//                     tests — use EXPECT_DOUBLE_EQ / EXPECT_NEAR
//   no-naked-new      naked new/delete — use containers / smart pointers
//   no-unchecked-future-get
//                     bare future::get() in library code hangs forever if
//                     the promise side is lost — bound the wait with
//                     wait_for/wait_until or serve::get_within
//   no-raw-chrono-timing
//                     inline steady_clock deltas (duration<double>(a - b),
//                     duration_cast of a subtraction) in src/serve/ or
//                     src/cluster/ — request timing must flow through
//                     obs::seconds_between / signed_seconds_between so
//                     every phase measurement shares one clamped helper
//   no-raw-socket-calls
//                     global-scope socket syscalls (::socket, ::bind,
//                     ::connect, ::send, ::recv, …) outside src/net/socket.*
//                     — everything else (the rest of src/net/ included)
//                     must go through net::Socket / TcpListener /
//                     FrameReader / write_frame so fd lifecycle and timeout
//                     handling live in one place
//   no-raw-std-mutex  std::mutex / condition_variable / lock_guard /
//                     unique_lock / … in library code bypass the annotated
//                     scwc::Mutex / CondVar / LockGuard wrappers
//                     (src/common/mutex.hpp), so neither Clang thread-safety
//                     analysis nor the lock-order tracker can see the lock
//   guarded-field-coverage
//                     a class owning a scwc::Mutex must annotate every
//                     mutable field with SCWC_GUARDED_BY (const / atomic /
//                     reference / obs *Handle fields are exempt) — an
//                     unannotated field is a data race the compiler cannot
//                     check
//   no-lock-across-blocking-call
//                     future::get(), serve::get_within() or a condition-wait
//                     on a *different* handle while a lock guard is live —
//                     blocking under a held mutex stalls every other thread
//                     on that lock and invites deadlock
//
// The first six scan line-by-line; the last three (and the chrono rule)
// are declaration-aware: they parse class bodies, guard-variable scopes
// and balanced macro argument lists out of the stripped text.
//
// Scans are textual but comment/string-literal aware: the source is first
// rewritten with comment and literal *contents* blanked (line structure
// preserved), so a rule never fires inside a comment, a string, or a char
// literal. Suppressions are ordinary comments in the raw text:
//   // scwc-lint: allow(rule-a, rule-b)       — this line only
//   // scwc-lint: allow-file(rule-a)          — whole file
// Every suppression should carry a neighbouring justification.
//
// Kept std-only (filesystem + string) so the tool builds in every preset
// with zero dependencies and the rules stay unit-testable on raw strings
// (tests/test_lint_rules.cpp).
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace scwc::lint {

/// One rule violation at a specific source line.
struct Finding {
  std::string file;  ///< repo-relative path (or a label in unit tests)
  std::size_t line;  ///< 1-based
  std::string rule;
  std::string message;
};

/// Which rule sets apply to a file, derived from its repo-relative path.
struct FileContext {
  bool is_header = false;    ///< *.hpp → pragma-once applies
  bool in_lib = false;       ///< under src/ → no-stdout-in-lib applies
  bool in_tests = false;     ///< under tests/ → no-float-eq applies
  bool is_rng_impl = false;  ///< src/common/rng.* → no-raw-rand exempt
  bool is_env_impl = false;  ///< src/common/env.* → no-raw-getenv exempt
  bool in_serve = false;     ///< src/serve/ → no-raw-chrono-timing applies
  bool in_cluster = false;   ///< src/cluster/ → no-raw-chrono-timing applies
  bool in_net = false;       ///< src/net/ → no-raw-chrono-timing applies
  /// src/common/{mutex,lock_order,thread_annotations}.* — the sync layer
  /// itself wraps the raw std primitives, so no-raw-std-mutex,
  /// guarded-field-coverage and no-lock-across-blocking-call are exempt.
  bool is_sync_impl = false;
  /// src/net/socket.* — the one sanctioned home of raw socket syscalls;
  /// everywhere else no-raw-socket-calls applies.
  bool is_socket_impl = false;
};

/// Derives the context from a repo-relative path like "src/common/rng.cpp".
[[nodiscard]] FileContext classify_path(std::string_view rel_path);

/// Replaces the contents of //, /* */ comments and string/char literals
/// with spaces. Newlines survive so findings keep real line numbers.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view source);

/// Lints one file's raw contents under the given context.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view rel_path,
                                               std::string_view raw,
                                               const FileContext& ctx);

/// Walks root/{src,bench,tests,tools} and lints every *.cpp / *.hpp.
/// (examples/ is exempt by design: the example apps' whole point is
/// printing to stdout, and they are not part of the library surface.)
[[nodiscard]] std::vector<Finding> lint_tree(const std::filesystem::path& root);

/// Names of all implemented rules (stable, kebab-case).
[[nodiscard]] const std::vector<std::string>& rule_names();

/// Serialises findings as one scwc.lint/v1 JSON document:
///   {"schema":"scwc.lint/v1","count":N,
///    "findings":[{"file":...,"line":N,"rule":...,"message":...},...]}
/// Deterministic (findings keep their order) so CI artifacts diff cleanly.
[[nodiscard]] std::string findings_to_json(const std::vector<Finding>& findings);

}  // namespace scwc::lint
