// Unit tests for the scwc_lint rule engine (tools/lint_core.*).
//
// One deliberately-violating snippet per rule proves each rule can fire;
// the "clean" cases pin down the tricky negatives the real tree contains
// (deleted member functions, snprintf, string/comment occurrences,
// EXPECT_EQ on strings whose arguments merely contain float literals).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "lint_core.hpp"

namespace scwc::lint {
namespace {

std::vector<Finding> lint(std::string_view path, std::string_view src) {
  return lint_source(path, src, classify_path(path));
}

bool fired(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [rule](const Finding& f) { return f.rule == rule; });
}

// ------------------------------------------------------------- no-raw-rand

TEST(LintRules, RawRandFires) {
  const auto f = lint("src/ml/foo.cpp", "int x = rand() % 7;\n");
  ASSERT_TRUE(fired(f, "no-raw-rand"));
  EXPECT_EQ(f[0].line, 1u);
}

TEST(LintRules, RandomDeviceFires) {
  EXPECT_TRUE(fired(lint("bench/foo.cpp", "std::random_device rd;\n"),
                    "no-raw-rand"));
}

TEST(LintRules, RngImplIsExemptAndIdentifiersDoNotMatch) {
  // The rng implementation itself may say rand; elsewhere only the exact
  // token fires — substrings like "operand" or "randomized" never do.
  EXPECT_FALSE(fired(lint("src/common/rng.cpp", "int r = rand();\n"),
                     "no-raw-rand"));
  EXPECT_FALSE(fired(lint("src/ml/foo.cpp",
                          "int operand = randomized_count;\n"),
                     "no-raw-rand"));
}

// -------------------------------------------------------- no-stdout-in-lib

TEST(LintRules, CoutInLibraryFires) {
  EXPECT_TRUE(fired(lint("src/core/foo.cpp",
                         "#include <iostream>\nstd::cout << x;\n"),
                    "no-stdout-in-lib"));
  EXPECT_TRUE(fired(lint("src/core/foo.cpp", "printf(\"%d\", x);\n"),
                    "no-stdout-in-lib"));
}

TEST(LintRules, CoutOutsideLibraryAndSnprintfAreClean) {
  // Benches/tests/tools may print; snprintf is formatting, not stdout.
  EXPECT_FALSE(fired(lint("bench/foo.cpp", "std::cout << x;\n"),
                     "no-stdout-in-lib"));
  EXPECT_FALSE(fired(lint("src/obs/json.cpp",
                          "std::snprintf(buf, sizeof(buf), \"x\");\n"),
                     "no-stdout-in-lib"));
}

// ----------------------------------------------------------- no-raw-getenv

TEST(LintRules, GetenvFires) {
  EXPECT_TRUE(fired(lint("src/core/foo.cpp",
                         "const char* v = std::getenv(\"HOME\");\n"),
                    "no-raw-getenv"));
}

TEST(LintRules, EnvImplIsExemptAndSetenvIsClean) {
  EXPECT_FALSE(fired(lint("src/common/env.cpp",
                          "const char* v = std::getenv(name);\n"),
                     "no-raw-getenv"));
  // Tests that *write* the environment are fine; only reads must go
  // through the typed accessors.
  EXPECT_FALSE(fired(lint("tests/foo.cpp", "::setenv(\"X\", \"1\", 1);\n"),
                     "no-raw-getenv"));
}

// ------------------------------------------------------------- pragma-once

TEST(LintRules, HeaderWithoutPragmaOnceFires) {
  const auto f = lint("src/ml/foo.hpp", "int f();\n");
  ASSERT_TRUE(fired(f, "pragma-once"));
  EXPECT_EQ(f[0].line, 1u);
}

TEST(LintRules, PragmaOnceSatisfiesAndCppFilesAreExempt) {
  EXPECT_FALSE(fired(lint("src/ml/foo.hpp", "#pragma once\nint f();\n"),
                     "pragma-once"));
  EXPECT_FALSE(fired(lint("src/ml/foo.cpp", "int f() { return 1; }\n"),
                     "pragma-once"));
  // A commented-out guard does not count.
  EXPECT_TRUE(fired(lint("src/ml/bar.hpp", "// #pragma once\nint f();\n"),
                    "pragma-once"));
}

// -------------------------------------------------------------- no-float-eq

TEST(LintRules, FloatLiteralEqualityInTestsFires) {
  EXPECT_TRUE(fired(lint("tests/foo.cpp", "EXPECT_EQ(total, 5.0);\n"),
                    "no-float-eq"));
  EXPECT_TRUE(fired(lint("tests/foo.cpp", "ASSERT_EQ(1e-3, err);\n"),
                    "no-float-eq"));
  EXPECT_TRUE(fired(lint("tests/foo.cpp", "EXPECT_NE(x, 2.5f);\n"),
                    "no-float-eq"));
}

TEST(LintRules, FloatEqNegativesStayClean) {
  // Integer literals, epsilon macros, string comparisons whose arguments
  // merely CONTAIN a float literal, and non-test files are all fine.
  EXPECT_FALSE(fired(lint("tests/foo.cpp", "EXPECT_EQ(counts[0], 2u);\n"),
                     "no-float-eq"));
  EXPECT_FALSE(fired(lint("tests/foo.cpp",
                          "EXPECT_DOUBLE_EQ(h.sum(), 107.0);\n"),
                     "no-float-eq"));
  EXPECT_FALSE(
      fired(lint("tests/foo.cpp",
                 "EXPECT_EQ(format_fixed(93.016, 2), \"93.02\");\n"),
            "no-float-eq"));
  EXPECT_FALSE(fired(lint("tests/foo.cpp",
                          "EXPECT_EQ(bounds, (std::vector<double>{1.0}));\n"),
                     "no-float-eq"));
  EXPECT_FALSE(fired(lint("src/ml/foo.cpp", "EXPECT_EQ(total, 5.0);\n"),
                     "no-float-eq"));
}

// ------------------------------------------------------------ no-naked-new

TEST(LintRules, NakedNewAndDeleteFire) {
  EXPECT_TRUE(fired(lint("src/ml/foo.cpp", "auto* p = new Node();\n"),
                    "no-naked-new"));
  EXPECT_TRUE(fired(lint("src/ml/foo.cpp", "delete p;\n"), "no-naked-new"));
}

TEST(LintRules, DeletedFunctionsAndMakeUniqueAreClean) {
  EXPECT_FALSE(fired(lint("src/ml/foo.hpp",
                          "#pragma once\n"
                          "struct S {\n"
                          "  S(const S&) = delete;\n"
                          "  S& operator=(const S&) = delete;\n"
                          "};\n"),
                     "no-naked-new"));
  EXPECT_FALSE(fired(lint("src/ml/foo.cpp",
                          "auto p = std::make_unique<Node>();\n"),
                     "no-naked-new"));
}

// ----------------------------------------- stripping, suppressions, context

TEST(LintRules, CommentsAndStringsNeverFire) {
  EXPECT_FALSE(fired(lint("src/ml/foo.cpp",
                          "// old code used rand() and std::cout\n"
                          "/* printf(\"%d\")  and getenv(\"X\") */\n"
                          "const char* s = \"rand() new delete getenv\";\n"),
                     "no-raw-rand"));
  const auto f = lint("src/ml/foo.cpp",
                      "const std::string msg = \"call rand()\";\n"
                      "int x = rand();  // this one is real\n");
  ASSERT_TRUE(fired(f, "no-raw-rand"));
  EXPECT_EQ(f[0].line, 2u);  // the string on line 1 did not fire
}

TEST(LintRules, LineSuppressionSilencesOnlyThatLine) {
  const auto f =
      lint("src/ml/foo.cpp",
           "int a = rand();  // scwc-lint: allow(no-raw-rand) — justified\n"
           "int b = rand();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 2u);
}

TEST(LintRules, FileSuppressionSilencesWholeFile) {
  EXPECT_TRUE(lint("src/ml/foo.cpp",
                   "// scwc-lint: allow-file(no-raw-rand)\n"
                   "int a = rand();\n"
                   "int b = rand();\n")
                  .empty());
}

TEST(LintRules, SuppressionForOneRuleDoesNotSilenceAnother) {
  const auto f = lint("src/ml/foo.cpp",
                      "std::cout << rand();  // scwc-lint: allow(no-raw-rand)\n");
  EXPECT_FALSE(fired(f, "no-raw-rand"));
  EXPECT_TRUE(fired(f, "no-stdout-in-lib"));
}

TEST(LintRules, StripPreservesLineStructure) {
  const std::string src = "int a; // comment\n\"str\\\"ing\"\n/* multi\nline */int b;\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
  EXPECT_EQ(out.find("comment"), std::string::npos);
  EXPECT_EQ(out.find("ing"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

// ----------------------------------------------- no-unchecked-future-get

TEST(LintRules, UncheckedFutureGetFires) {
  const auto f = lint("src/serve/foo.cpp",
                      "ServeResult r = pending_future.get();\n");
  ASSERT_TRUE(fired(f, "no-unchecked-future-get"));
  EXPECT_EQ(f[0].line, 1u);
}

TEST(LintRules, FutureGetMemberAndCamelCaseFire) {
  EXPECT_TRUE(fired(lint("src/serve/foo.cpp", "use(window.future.get());\n"),
                    "no-unchecked-future-get"));
  EXPECT_TRUE(fired(lint("src/serve/foo.cpp", "auto r = myFuture.get();\n"),
                    "no-unchecked-future-get"));
}

TEST(LintRules, BoundedFutureGetIsClean) {
  // A wait on the same line proves the get is deadline-bounded.
  EXPECT_TRUE(lint("src/serve/foo.cpp",
                   "if (future.wait_for(t) == ready) return future.get();\n")
                  .empty());
  EXPECT_TRUE(
      lint("src/serve/foo.cpp", "auto r = get_within(future, 0.5);\n")
          .empty());
}

TEST(LintRules, NonFutureGetReceiversAreClean) {
  // shared_ptr/unique_ptr/istream get() must never fire.
  EXPECT_TRUE(lint("src/serve/foo.cpp", "Classifier* c = model_.get();\n")
                  .empty());
  EXPECT_TRUE(lint("src/common/foo.cpp", "const int byte = is.get();\n")
                  .empty());
}

TEST(LintRules, FutureGetOutsideLibIsClean) {
  // Bench/test clients may block on a future; the contract is lib-only.
  EXPECT_TRUE(
      lint("bench/foo.cpp", "ServeResult r = outcome.future.get();\n")
          .empty());
  EXPECT_TRUE(
      lint("tests/test_foo.cpp", "ServeResult r = future.get();\n").empty());
}

TEST(LintRules, UncheckedFutureGetSuppressible) {
  EXPECT_TRUE(lint("src/serve/foo.cpp",
                   "return future.get();  // scwc-lint: "
                   "allow(no-unchecked-future-get)\n")
                  .empty());
}

// ------------------------------------------------- no-raw-chrono-timing

TEST(LintRules, RawChronoDeltaInServeFires) {
  const auto f = lint(
      "src/serve/foo.cpp",
      "const double s = std::chrono::duration<double>(now - start).count();\n");
  ASSERT_TRUE(fired(f, "no-raw-chrono-timing"));
  EXPECT_EQ(f[0].line, 1u);
}

TEST(LintRules, DurationCastDeltaFires) {
  EXPECT_TRUE(fired(
      lint("src/serve/foo.cpp",
           "auto us = std::chrono::duration_cast<std::chrono::microseconds>("
           "deadline - std::chrono::steady_clock::now());\n"),
      "no-raw-chrono-timing"));
}

TEST(LintRules, NonDeltaDurationConstructionIsClean) {
  // Building a duration from a scalar (no clock subtraction) is fine —
  // that is configuration, not timing measurement.
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "auto d = std::chrono::duration<double>(timeout_s);\n"),
                     "no-raw-chrono-timing"));
  // Negative literals and exponents are not binary minus.
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "auto d = std::chrono::duration<double>(-1e-3);\n"),
                     "no-raw-chrono-timing"));
  // Arrow dereference is not subtraction either.
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "auto d = std::chrono::duration<double>(p->delay);\n"),
                     "no-raw-chrono-timing"));
}

TEST(LintRules, RawChronoDeltaOutsideServeIsClean) {
  // The contract is serve-layer only: obs implements the helpers, and
  // tests/benches may measure however they like.
  const std::string delta =
      "double s = std::chrono::duration<double>(now - start).count();\n";
  EXPECT_FALSE(fired(lint("src/obs/request_trace.cpp", delta),
                     "no-raw-chrono-timing"));
  EXPECT_FALSE(fired(lint("tests/test_foo.cpp", delta),
                     "no-raw-chrono-timing"));
  EXPECT_FALSE(fired(lint("bench/foo.cpp", delta), "no-raw-chrono-timing"));
}

TEST(LintRules, RawChronoTimingSuppressible) {
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "auto d = std::chrono::duration<double>(a - b);"
                          "  // scwc-lint: allow(no-raw-chrono-timing)\n"),
                     "no-raw-chrono-timing"));
}

// ------------------------------------------------------ no-raw-std-mutex

TEST(LintRules, RawStdMutexInLibraryFires) {
  const auto f = lint("src/ml/foo.cpp", "std::mutex m;\n");
  ASSERT_TRUE(fired(f, "no-raw-std-mutex"));
  EXPECT_EQ(f[0].line, 1u);
  EXPECT_TRUE(fired(lint("src/serve/foo.cpp",
                         "std::lock_guard<std::mutex> lock(m_);\n"),
                    "no-raw-std-mutex"));
  EXPECT_TRUE(
      fired(lint("src/obs/foo.cpp", "std::condition_variable cv;\n"),
            "no-raw-std-mutex"));
}

TEST(LintRules, SyncImplToolsAndTestsMayUseStdMutex) {
  // The wrappers themselves are the one home of the raw primitives, and
  // the rule binds to library code only.
  EXPECT_FALSE(fired(lint("src/common/mutex.hpp", "std::mutex m_;\n"),
                     "no-raw-std-mutex"));
  EXPECT_FALSE(fired(lint("src/common/lock_order.hpp", "std::mutex mu;\n"),
                     "no-raw-std-mutex"));
  EXPECT_FALSE(fired(lint("tests/test_foo.cpp", "std::mutex m;\n"),
                     "no-raw-std-mutex"));
  EXPECT_FALSE(fired(lint("tools/foo.cpp", "std::mutex m;\n"),
                     "no-raw-std-mutex"));
}

TEST(LintRules, ScwcMutexAndUnrelatedIdentifiersAreClean) {
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "scwc::Mutex m{\"serve.foo\"};\n"),
                     "no-raw-std-mutex"));
  // Only the std:: qualification fires — a project type named
  // my::lock_guard or a comment mention never does.
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp", "my::lock_guard g(m);\n"),
                     "no-raw-std-mutex"));
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "// std::mutex is banned here\n"),
                     "no-raw-std-mutex"));
}

// ------------------------------------------------ guarded-field-coverage

TEST(LintRules, UnguardedFieldInMutexOwningClassFires) {
  const auto f = lint("src/serve/foo.hpp",
                      "#pragma once\n"
                      "class Foo {\n"
                      "  mutable Mutex mutex_{\"serve.foo\"};\n"
                      "  int count_ = 0;\n"
                      "};\n");
  ASSERT_TRUE(fired(f, "guarded-field-coverage"));
  EXPECT_EQ(f[0].line, 4u);
  EXPECT_NE(f[0].message.find("count_"), std::string::npos);
  EXPECT_NE(f[0].message.find("Foo"), std::string::npos);
}

TEST(LintRules, TimedMutexMarksOwnershipAndIsExempt) {
  const auto f = lint("src/serve/foo.hpp",
                      "#pragma once\n"
                      "class Foo {\n"
                      "  TimedMutex call_mutex_{\"serve.call\"};\n"
                      "  int calls_ = 0;\n"
                      "};\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "guarded-field-coverage");
  EXPECT_EQ(f[0].line, 4u);
  EXPECT_NE(f[0].message.find("calls_"), std::string::npos);
}

TEST(LintRules, GuardedAndExemptFieldsAreClean) {
  EXPECT_TRUE(lint("src/serve/foo.hpp",
                   "#pragma once\n"
                   "class Foo {\n"
                   "  mutable Mutex mutex_{\"serve.foo\"};\n"
                   "  CondVar cv_;\n"
                   "  std::vector<int> items_ SCWC_GUARDED_BY(mutex_);\n"
                   "  bool stop_ SCWC_GUARDED_BY(mutex_) = false;\n"
                   "  const std::size_t capacity_;\n"
                   "  std::atomic<int> hits_{0};\n"
                   "  obs::CounterHandle obs_total_;\n"
                   "  ModelRegistry& registry_;\n"
                   "};\n")
                  .empty());
}

TEST(LintRules, ClassWithoutMutexNeedsNoAnnotations) {
  EXPECT_TRUE(lint("src/serve/foo.hpp",
                   "#pragma once\n"
                   "struct Config {\n"
                   "  int threads = 0;\n"
                   "  double budget_s = 0.0;\n"
                   "};\n")
                  .empty());
}

TEST(LintRules, MethodsAliasesAndNestedTypesAreNotFields) {
  EXPECT_TRUE(lint("src/serve/foo.hpp",
                   "#pragma once\n"
                   "class Foo {\n"
                   " public:\n"
                   "  using Clock = std::chrono::steady_clock;\n"
                   "  void start();\n"
                   "  std::size_t size() const { return items_.size(); }\n"
                   " private:\n"
                   "  struct Slot {\n"
                   "    int id = 0;\n"
                   "  };\n"
                   "  static constexpr int kMax = 4;\n"
                   "  mutable Mutex mutex_{\"serve.foo\"};\n"
                   "  std::vector<int> items_ SCWC_GUARDED_BY(mutex_);\n"
                   "};\n")
                  .empty());
}

TEST(LintRules, GuardedFieldCoverageSuppressible) {
  EXPECT_TRUE(lint("src/serve/foo.hpp",
                   "#pragma once\n"
                   "class Foo {\n"
                   "  mutable Mutex mutex_{\"serve.foo\"};\n"
                   "  // Internally synchronized component.\n"
                   "  Inner inner_;  // scwc-lint: allow(guarded-field-coverage)\n"
                   "};\n")
                  .empty());
}

// ------------------------------------------ no-lock-across-blocking-call

TEST(LintRules, FutureGetUnderGuardFires) {
  const auto f = lint("src/serve/foo.cpp",
                      "void f() {\n"
                      "  const LockGuard lock(mutex_);\n"
                      "  auto r = result_future.get();"
                      "  // scwc-lint: allow(no-unchecked-future-get)\n"
                      "}\n");
  ASSERT_TRUE(fired(f, "no-lock-across-blocking-call"));
  EXPECT_EQ(f[0].line, 3u);
  EXPECT_NE(f[0].message.find("lock"), std::string::npos);
  EXPECT_NE(f[0].message.find("mutex_"), std::string::npos);
}

TEST(LintRules, GetAfterScopeCloseOrUnlockIsClean) {
  // Guard scope ends with its block.
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "void f() {\n"
                          "  {\n"
                          "    const LockGuard lock(mutex_);\n"
                          "    count_ = 1;\n"
                          "  }\n"
                          "  auto r = f_future.get();"
                          "  // scwc-lint: allow(no-unchecked-future-get)\n"
                          "}\n"),
                     "no-lock-across-blocking-call"));
  // An explicit unlock() also releases; a later lock() re-arms.
  const auto f = lint("src/serve/foo.cpp",
                      "void f() {\n"
                      "  LockGuard lock(mutex_);\n"
                      "  lock.unlock();\n"
                      "  auto a = a_future.get();"
                      "  // scwc-lint: allow(no-unchecked-future-get)\n"
                      "  lock.lock();\n"
                      "  auto b = b_future.get();"
                      "  // scwc-lint: allow(no-unchecked-future-get)\n"
                      "}\n");
  ASSERT_TRUE(fired(f, "no-lock-across-blocking-call"));
  EXPECT_EQ(f[0].line, 6u);  // only the re-locked get fires
}

TEST(LintRules, CvWaitOnGuardedMutexIsClean) {
  EXPECT_FALSE(fired(lint("src/common/foo.cpp",
                          "void f() {\n"
                          "  const LockGuard lock(mutex_);\n"
                          "  while (!ready_) cv_.wait(mutex_);\n"
                          "}\n"),
                     "no-lock-across-blocking-call"));
  // std-style: the wait names the guard variable itself.
  EXPECT_FALSE(fired(lint("tests/helper.hpp",
                          "void f() {\n"
                          "  std::unique_lock<std::mutex> lk(m_);\n"
                          "  cv_.wait(lk, [&] { return ready_; });\n"
                          "}\n"),
                     "no-lock-across-blocking-call"));
}

TEST(LintRules, WaitOnForeignHandleUnderGuardFires) {
  const auto f = lint("src/serve/foo.cpp",
                      "void f() {\n"
                      "  const LockGuard lock(a_mutex_);\n"
                      "  other_cv_.wait(b_mutex_);\n"
                      "}\n");
  ASSERT_TRUE(fired(f, "no-lock-across-blocking-call"));
  EXPECT_NE(f[0].message.find("other_cv_"), std::string::npos);
  EXPECT_TRUE(fired(lint("src/serve/foo.cpp",
                         "void f() {\n"
                         "  const LockGuard lock(mutex_);\n"
                         "  done_future.wait_for(std::chrono::seconds(1));\n"
                         "}\n"),
                    "no-lock-across-blocking-call"));
}

TEST(LintRules, GetWithinUnderGuardFires) {
  EXPECT_TRUE(fired(lint("src/serve/foo.cpp",
                         "void f() {\n"
                         "  const LockGuard lock(mutex_);\n"
                         "  auto r = get_within(fut, 1.0);\n"
                         "}\n"),
                    "no-lock-across-blocking-call"));
  // Outside the guard scope it is the sanctioned bounded wait.
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "void f() {\n"
                          "  auto r = get_within(fut, 1.0);\n"
                          "}\n"),
                     "no-lock-across-blocking-call"));
}

TEST(LintRules, LockAcrossBlockingCallSuppressible) {
  EXPECT_FALSE(fired(lint("src/serve/foo.cpp",
                          "void f() {\n"
                          "  const LockGuard lock(mutex_);\n"
                          "  auto r = get_within(fut, 1.0);"
                          "  // scwc-lint: allow(no-lock-across-blocking-call)\n"
                          "}\n"),
                     "no-lock-across-blocking-call"));
}

// ------------------------------------------------------------ JSON output

TEST(LintJson, EmptyFindingsSerialise) {
  EXPECT_EQ(findings_to_json({}),
            "{\"schema\":\"scwc.lint/v1\",\"count\":0,\"findings\":[]}");
}

TEST(LintJson, FindingsSerialiseWithEscapes) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 7, "no-raw-rand", "say \"no\" to rand\n"},
      {"src/b.cpp", 9, "pragma-once", "missing guard"},
  };
  const std::string json = findings_to_json(findings);
  EXPECT_NE(json.find("\"schema\":\"scwc.lint/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  EXPECT_NE(json.find("say \\\"no\\\" to rand\\n"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"pragma-once\""), std::string::npos);
}

// ---------------------------------------------------- no-raw-socket-calls

TEST(LintRules, RawSocketCallFiresEverywhereButTheNetLayer) {
  const std::string call = "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n";
  EXPECT_TRUE(fired(lint("src/foo/bar.cpp", call), "no-raw-socket-calls"));
  EXPECT_TRUE(fired(lint("tests/test_foo.cpp", call),
                    "no-raw-socket-calls"));
  EXPECT_TRUE(fired(lint("bench/foo.cpp", call), "no-raw-socket-calls"));
  EXPECT_TRUE(fired(lint("src/cluster/router.cpp",
                         "::connect(fd, addr, len);\n"),
                    "no-raw-socket-calls"));
  EXPECT_TRUE(
      fired(lint("src/foo.cpp", "::send(fd, p, n, 0);\n"),
            "no-raw-socket-calls"));
}

TEST(LintRules, RawPollAndSocketpairFireOutsideTheNetLayer) {
  // The local socket's reader waits in poll(); that and socketpair() stay
  // inside src/net/socket.* like every other socket call.
  const std::string wait = "const int n = ::poll(&p, 1, -1);\n";
  const std::string pair = "::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);\n";
  EXPECT_TRUE(fired(lint("src/cluster/router.cpp", wait),
                    "no-raw-socket-calls"));
  EXPECT_TRUE(fired(lint("tests/test_foo.cpp", pair), "no-raw-socket-calls"));
  EXPECT_FALSE(fired(lint("src/net/socket.cpp", wait),
                     "no-raw-socket-calls"));
  EXPECT_FALSE(fired(lint("src/net/socket.cpp", pair),
                     "no-raw-socket-calls"));
  // Qualified names are not the syscall.
  EXPECT_FALSE(fired(lint("src/foo.cpp", "io::poll(x);\n"),
                     "no-raw-socket-calls"));
  const std::vector<Finding> found =
      lint("src/cluster/worker.cpp", "::socket(AF_UNIX, SOCK_STREAM, 0);\n");
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().message.find("LocalListener"), std::string::npos);
}

TEST(LintRules, OnlySocketImplIsExempt) {
  const std::string call = "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n";
  EXPECT_FALSE(fired(lint("src/net/socket.cpp", call),
                     "no-raw-socket-calls"));
  EXPECT_FALSE(fired(lint("src/net/socket.hpp", call),
                     "no-raw-socket-calls"));
  // The rest of the net layer and the scrape server ride on net::Socket.
  EXPECT_TRUE(fired(lint("src/obs/scrape.cpp", call),
                    "no-raw-socket-calls"));
  EXPECT_TRUE(fired(lint("src/net/scrape.cpp", call),
                    "no-raw-socket-calls"));
  EXPECT_TRUE(fired(lint("src/net/wire.cpp", call),
                    "no-raw-socket-calls"));
}

TEST(LintRules, QualifiedNamesAndWrappersAreClean) {
  // Only the GLOBAL-scope syscall spelling fires: qualified names
  // (std::bind, Socket::connect), wrapper methods and enumerators that
  // merely contain a syscall name must all stay clean.
  EXPECT_FALSE(fired(lint("src/foo.cpp", "auto f = std::bind(g, 1);\n"),
                     "no-raw-socket-calls"));
  EXPECT_FALSE(fired(lint("src/foo.cpp", "sock.send_all(data);\n"),
                     "no-raw-socket-calls"));
  EXPECT_FALSE(fired(lint("src/foo.cpp",
                          "net::Socket s = net::connect_loopback(p, 1.0);\n"),
                     "no-raw-socket-calls"));
  EXPECT_FALSE(fired(lint("src/foo.cpp",
                          "case net::FrameType::kShutdown: break;\n"),
                     "no-raw-socket-calls"));
  EXPECT_FALSE(fired(lint("src/foo.cpp", "listener_.accept();\n"),
                     "no-raw-socket-calls"));
  // Comments and strings never fire.
  EXPECT_FALSE(fired(lint("src/foo.cpp",
                          "// call ::socket() somewhere else\n"
                          "log(\"::recv( failed\");\n"),
                     "no-raw-socket-calls"));
}

TEST(LintRules, RawSocketCallSuppressible) {
  EXPECT_FALSE(fired(lint("src/foo.cpp",
                          "::shutdown(fd, SHUT_RDWR);"
                          "  // scwc-lint: allow(no-raw-socket-calls)\n"),
                     "no-raw-socket-calls"));
}

TEST(LintRules, RawChronoDeltaInClusterAndNetFires) {
  // The cluster and net layers are request-path code like serve: inline
  // clock deltas must use the shared obs helpers there too (the wire layer
  // joined when the clock-offset handshake gave it timing code of its own).
  const std::string delta =
      "double s = std::chrono::duration<double>(now - start).count();\n";
  EXPECT_TRUE(fired(lint("src/cluster/router.cpp", delta),
                    "no-raw-chrono-timing"));
  EXPECT_TRUE(fired(lint("src/net/socket.cpp", delta),
                    "no-raw-chrono-timing"));
  EXPECT_TRUE(fired(lint("src/net/wire.cpp", delta),
                    "no-raw-chrono-timing"));
}

TEST(LintRules, NetNonDeltaDurationsStayClean) {
  // Timeout configuration in the socket layer is not timing measurement;
  // only a clock subtraction inside the duration argument fires.
  EXPECT_FALSE(
      fired(lint("src/net/socket.cpp",
                 "auto d = std::chrono::duration<double>(timeout_s);\n"),
            "no-raw-chrono-timing"));
  EXPECT_FALSE(fired(lint("src/net/socket.cpp",
                          "auto d = std::chrono::duration<double>(a - b);"
                          "  // scwc-lint: allow(no-raw-chrono-timing)\n"),
                     "no-raw-chrono-timing"));
}

TEST(LintRules, RuleNamesAreStable) {
  const auto& names = rule_names();
  EXPECT_EQ(names.size(), 12u);
  for (const std::string_view expected :
       {"no-raw-rand", "no-stdout-in-lib", "no-raw-getenv", "pragma-once",
        "no-float-eq", "no-naked-new", "no-unchecked-future-get",
        "no-raw-chrono-timing", "no-raw-std-mutex", "guarded-field-coverage",
        "no-lock-across-blocking-call", "no-raw-socket-calls"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) !=
                names.end())
        << expected;
  }
}

}  // namespace
}  // namespace scwc::lint
