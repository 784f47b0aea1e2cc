// Debug-mode lock-hierarchy tracker (lockdep-style).
//
// Every scwc::Mutex acquisition/release reports here. The tracker keeps a
// per-thread stack of held locks and a global lock-order graph keyed by the
// mutex *name* (its lock class, not the instance address), so two threads
// nesting "a" inside "b" and "b" inside "a" are caught even when the runs
// never overlap and even when they lock different instances of the two
// classes. TSan's deadlock detector sees the first case but only on the
// same instances; the class-level inversion across instances is the shape
// only this tracker reports.
//
// Violations are collected in a queryable list (tests assert on it) and
// reported once per lock-class pair to stderr; the process is NOT aborted,
// so a stress suite can finish and then inspect the graph.
//
// The whole tracker is compiled out unless SCWC_LOCK_ORDER_CHECK is
// defined (the asan/tsan presets turn it on via -DSCWC_LOCK_ORDER=ON);
// release builds pay nothing. Header-only on purpose: scwc_obs sits below
// scwc_common in the link order and must be able to use scwc::Mutex
// without linking a new library.
#pragma once

#include <string>
#include <utility>
#include <vector>

#if defined(SCWC_LOCK_ORDER_CHECK)
#include <algorithm>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

// The tracker's global graph and per-thread held stacks are intentionally
// immortal (see graph()/held_stack()); under LeakSanitizer that reads as a
// leak, so the allocations are explicitly registered as deliberate.
#if defined(__SANITIZE_ADDRESS__)
#define SCWC_LOCK_ORDER_HAS_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCWC_LOCK_ORDER_HAS_LSAN 1
#endif
#endif
#if defined(SCWC_LOCK_ORDER_HAS_LSAN)
#include <sanitizer/lsan_interface.h>
#define SCWC_LOCK_ORDER_IGNORE_LEAK(p) __lsan_ignore_object(p)
#else
#define SCWC_LOCK_ORDER_IGNORE_LEAK(p) (static_cast<void>(p))
#endif
#endif

namespace scwc::lock_order {

/// One detected ordering conflict between two lock classes.
struct Violation {
  std::string first;           ///< lock class acquired first this time
  std::string second;          ///< lock class being acquired under `first`
  std::string existing_order;  ///< the order already in the graph, rendered
  std::string new_order;       ///< the conflicting order just observed
  std::string message;         ///< full human-readable report
};

/// True when the tracker is compiled in (asan/tsan presets).
constexpr bool enabled() noexcept {
#if defined(SCWC_LOCK_ORDER_CHECK)
  return true;
#else
  return false;
#endif
}

#if defined(SCWC_LOCK_ORDER_CHECK)

namespace detail {

struct Held {
  const void* addr;
  const char* name;
};

struct Graph {
  // Guards everything below. A raw std::mutex on purpose: routing it
  // through scwc::Mutex would recurse into the tracker.
  std::mutex mu;
  std::map<std::string, std::set<std::string>> edges;  // first -> seconds
  std::set<std::pair<std::string, std::string>> reported;
  std::vector<Violation> violations;
};

inline Graph& graph() {
  // Intentionally immortal (never destroyed): ThreadPool::global() and
  // other function-local statics own worker threads that still lock
  // mutexes while destructing after main, and this graph is constructed
  // lazily — i.e. later — so a plain static would be torn down first and
  // those late acquisitions would corrupt freed map nodes. Debug-only
  // build, one small object: leaking beats a destruction-order race.
  static Graph* g = new Graph;  // scwc-lint: allow(no-naked-new)
  SCWC_LOCK_ORDER_IGNORE_LEAK(g);
  return *g;
}

inline std::vector<Held>& held_stack() {
  // Immortal per-thread for the same reason: the main thread's
  // thread_local destructors interleave with static destruction, and a
  // mutex locked after this vector died would be a use-after-destroy.
  thread_local std::vector<Held>* stack = [] {
    auto* s = new std::vector<Held>;  // scwc-lint: allow(no-naked-new)
    SCWC_LOCK_ORDER_IGNORE_LEAK(s);
    return s;
  }();
  return *stack;
}

/// DFS: is `to` reachable from `from` in the order graph? Fills `path`
/// with the node sequence from→…→to when found.
inline bool reachable(const Graph& g, const std::string& from,
                      const std::string& to, std::vector<std::string>* path) {
  path->push_back(from);
  if (from == to) return true;
  const auto it = g.edges.find(from);
  if (it != g.edges.end()) {
    for (const std::string& next : it->second) {
      if (std::find(path->begin(), path->end(), next) != path->end()) {
        continue;  // already on the current path — don't loop
      }
      if (reachable(g, next, to, path)) return true;
    }
  }
  path->pop_back();
  return false;
}

inline std::string render_path(const std::vector<std::string>& path) {
  std::ostringstream os;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) os << " -> ";
    os << '"' << path[i] << '"';
  }
  return os.str();
}

}  // namespace detail

/// Records that the current thread is about to acquire `m` (named `name`).
/// Called BEFORE the underlying lock blocks, so an acquisition that would
/// deadlock still leaves its evidence in the graph.
inline void note_acquire(const void* m, const char* name) {
  auto& stack = detail::held_stack();
  if (!stack.empty()) {
    auto& g = detail::graph();
    const std::lock_guard<std::mutex> lock(g.mu);
    const std::string to(name);
    for (const detail::Held& held : stack) {
      const std::string from(held.name);
      // Same lock class: two instances of one class may legitimately nest
      // (and an ordering *within* one class is invisible to a name-keyed
      // graph), so self-edges are skipped rather than reported.
      if (from == to) continue;
      if (g.edges[from].contains(to)) continue;  // known order, already vetted
      std::vector<std::string> path;
      if (detail::reachable(g, to, from, &path)) {
        // The graph already proves `to` precedes `from`; acquiring `to`
        // while holding `from` closes a cycle — the ABBA shape.
        const auto key = std::minmax(from, to);
        if (!g.reported.contains(key)) {
          g.reported.insert(key);
          Violation v;
          v.first = from;
          v.second = to;
          v.existing_order = detail::render_path(path);
          v.new_order = "\"" + from + "\" -> \"" + to + "\"";
          std::ostringstream os;
          os << "lock-order violation: acquiring \"" << to
             << "\" while holding \"" << from
             << "\" contradicts the established order " << v.existing_order
             << " — potential ABBA deadlock between \"" << from << "\" and \""
             << to << "\"";
          v.message = os.str();
          // Debug-only diagnostic; stderr keeps the tracker free of any
          // dependency on the scwc_common logger (obs sits below common).
          std::cerr << "[scwc:lock-order] " << v.message << '\n';
          g.violations.push_back(std::move(v));
        }
      }
      g.edges[from].insert(to);  // record the observed order either way
    }
  }
  stack.push_back(detail::Held{m, name});
}

/// Records that the current thread released `m`. Out-of-order release is
/// legal (LockGuard::unlock before another guard's destructor): the entry
/// is found by address, scanning from the innermost lock outward.
inline void note_release(const void* m) noexcept {
  auto& stack = detail::held_stack();
  for (std::size_t i = stack.size(); i > 0; --i) {
    if (stack[i - 1].addr == m) {
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
}

/// Snapshot of all detected ordering conflicts so far.
inline std::vector<Violation> violations() {
  auto& g = detail::graph();
  const std::lock_guard<std::mutex> lock(g.mu);
  return g.violations;
}

/// Snapshot of the observed order graph as (first, second) edges.
inline std::vector<std::pair<std::string, std::string>> edges() {
  auto& g = detail::graph();
  const std::lock_guard<std::mutex> lock(g.mu);
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [from, tos] : g.edges) {
    for (const std::string& to : tos) out.emplace_back(from, to);
  }
  return out;
}

/// True when the observed order graph has no cycle — i.e. a single global
/// lock hierarchy exists that explains every acquisition seen so far.
inline bool acyclic() {
  auto& g = detail::graph();
  const std::lock_guard<std::mutex> lock(g.mu);
  for (const auto& [from, tos] : g.edges) {
    for (const std::string& to : tos) {
      std::vector<std::string> path;
      if (detail::reachable(g, to, from, &path)) return false;
    }
  }
  return true;
}

/// Test hook: forgets the global graph and violation list. Per-thread
/// held stacks are left alone (they drain naturally as guards unwind).
inline void clear() {
  auto& g = detail::graph();
  const std::lock_guard<std::mutex> lock(g.mu);
  g.edges.clear();
  g.reported.clear();
  g.violations.clear();
}

#else  // !SCWC_LOCK_ORDER_CHECK — release builds: everything is a no-op.

inline void note_acquire(const void*, const char*) noexcept {}
inline void note_release(const void*) noexcept {}
inline std::vector<Violation> violations() { return {}; }
inline std::vector<std::pair<std::string, std::string>> edges() { return {}; }
inline bool acyclic() { return true; }
inline void clear() {}

#endif  // SCWC_LOCK_ORDER_CHECK

}  // namespace scwc::lock_order
