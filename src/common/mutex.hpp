// Annotated synchronization primitives.
//
// scwc::Mutex / scwc::TimedMutex / scwc::LockGuard / scwc::CondVar wrap the
// std primitives with three additions:
//   1. Clang thread-safety capability annotations (thread_annotations.hpp),
//      so the `tsa` preset proves GUARDED_BY/REQUIRES contracts at compile
//      time — on GCC they cost nothing.
//   2. A lock-class name, fed to the debug-mode lock-hierarchy tracker
//      (lock_order.hpp) under the asan/tsan presets.
//   3. A single choke point the `no-raw-std-mutex` lint rule can enforce:
//      library code must not use std::mutex directly.
//
// Header-only on purpose: scwc_obs sits below scwc_common in the link
// order and must be able to use these without a new library dependency.
//
// CondVar waits follow the abseil shape — `cv.wait(mutex_)` inside an
// explicit `while (!predicate)` loop, with a LockGuard already holding the
// mutex. Clang's analysis does not look into predicate lambdas, so the
// std::condition_variable::wait(lock, pred) form is deliberately absent.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"

// This header and lock_order.hpp are the one place raw std primitives are
// allowed — the no-raw-std-mutex rule exempts them by path (is_sync_impl).

namespace scwc {

/// A std::mutex with a TSA capability and a lock-class name for the
/// lock-order tracker. Name instances hierarchically: "pool.queue",
/// "serve.registry" — the DESIGN.md §8 table is keyed on these.
class SCWC_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name) noexcept : name_(name) {}
  Mutex() noexcept : name_("unnamed") {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SCWC_ACQUIRE() {
    lock_order::note_acquire(this, name_);
    m_.lock();
  }

  void unlock() SCWC_RELEASE() {
    m_.unlock();
    lock_order::note_release(this);
  }

  bool try_lock() SCWC_TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    // A failed try_lock imposes no ordering constraint (it cannot block),
    // so only successful acquisitions reach the tracker.
    lock_order::note_acquire(this, name_);
    return true;
  }

  const char* name() const noexcept { return name_; }

 private:
  friend class CondVar;  // wait() needs the raw handle for adopt_lock
  std::mutex m_;
  const char* name_;
};

/// A Mutex whose acquisition can also give up at a deadline, for a lock
/// one holder may keep for long while other callers must stay bounded.
/// Not usable with CondVar. Like try_lock, only a successful timed
/// acquisition reaches the lock-order tracker. Built from a mutex, a
/// condition variable and a flag rather than std::timed_mutex, whose
/// timed lock (pthread_mutex_clocklock) ThreadSanitizer does not see.
class SCWC_CAPABILITY("mutex") TimedMutex {
 public:
  explicit TimedMutex(const char* name) noexcept : name_(name) {}
  TimedMutex(const TimedMutex&) = delete;
  TimedMutex& operator=(const TimedMutex&) = delete;

  void lock() SCWC_ACQUIRE() {
    lock_order::note_acquire(this, name_);
    std::unique_lock<std::mutex> native(m_);
    while (locked_) cv_.wait(native);
    locked_ = true;
  }

  void unlock() SCWC_RELEASE() {
    {
      // Notified under the lock: a waiter that wins may destroy *this.
      const std::lock_guard<std::mutex> native(m_);
      locked_ = false;
      cv_.notify_one();
    }
    lock_order::note_release(this);
  }

  template <class Clock, class Duration>
  bool try_lock_until(
      const std::chrono::time_point<Clock, Duration>& deadline)
      SCWC_TRY_ACQUIRE(true) {
    {
      std::unique_lock<std::mutex> native(m_);
      while (locked_) {
        if (cv_.wait_until(native, deadline) == std::cv_status::timeout &&
            locked_) {
          return false;
        }
      }
      locked_ = true;
    }
    lock_order::note_acquire(this, name_);
    return true;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool locked_ = false;
  const char* name_;
};

/// RAII lock over scwc::Mutex or scwc::TimedMutex, annotated as a scoped
/// capability. Supports mid-scope unlock()/lock() for the "drop the lock
/// around the callback" pattern, which the analysis tracks precisely, and
/// adopting a lock already taken (e.g. by TimedMutex::try_lock_until).
template <class M>
class SCWC_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(M& m) SCWC_ACQUIRE(m) : m_(&m), held_(true) {
    m_->lock();
  }

  LockGuard(M& m, std::adopt_lock_t) SCWC_REQUIRES(m)
      : m_(&m), held_(true) {}

  ~LockGuard() SCWC_RELEASE() {
    if (held_) m_->unlock();
  }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  /// Drops the lock early (e.g. before notifying or running a callback).
  void unlock() SCWC_RELEASE() {
    m_->unlock();
    held_ = false;
  }

  /// Re-acquires after an early unlock().
  void lock() SCWC_ACQUIRE() {
    m_->lock();
    held_ = true;
  }

 private:
  M* m_;
  bool held_;
};

/// Condition variable over scwc::Mutex. The caller holds the mutex via a
/// LockGuard and passes the *mutex* so the REQUIRES contract is visible to
/// the analysis:
///
///   scwc::LockGuard lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `m`, waits, and re-acquires before returning.
  /// The lock-order tracker keeps `m` on the held stack across the wait:
  /// the blocked thread acquires nothing while parked, and on wake the
  /// stack is accurate again, so no false edges can form.
  void wait(Mutex& m) SCWC_REQUIRES(m) {
    std::unique_lock<std::mutex> native(m.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's LockGuard
  }

  /// Timed wait; returns std::cv_status::timeout when `deadline` passed.
  template <class Clock, class Duration>
  std::cv_status wait_until(
      Mutex& m, const std::chrono::time_point<Clock, Duration>& deadline)
      SCWC_REQUIRES(m) {
    std::unique_lock<std::mutex> native(m.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace scwc
