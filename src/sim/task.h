// A minimal lazily-started coroutine task with symmetric transfer.
//
// Every renaming algorithm in this library is written once, as a coroutine
// over an abstract shared-memory environment (see sim/env.h). Under the
// simulator the coroutine suspends at every shared-memory operation so an
// adversarial scheduler can interleave processes at step granularity (the
// model of the paper). Under the direct environment the awaiters never
// block on the scheduler and the same coroutine runs to completion
// synchronously on a real thread.
//
// On that hardware path every ConcurrentRenamer::get_name call allocates
// one coroutine frame (ReBatching's walk over every batch), so the promise
// takes its frames from a small per-thread recycler (FrameCache below)
// instead of the global allocator.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>

namespace loren::sim {

namespace detail {

/// Per-thread recycler of coroutine frames: one intrusive free list per
/// 64-byte size class, at most kDepth frames each, classes up to
/// kClasses * 64 bytes; larger frames bypass it. A thread therefore keeps
/// at most kDepth * (64 + 128 + ... + 512) = 9 KiB. A frame carries no
/// owner: whichever thread frees it caches it, so a Task created on one
/// thread and destroyed on another is fine. The cache drains at thread
/// exit; a frame freed after that (from a later thread_local destructor)
/// goes straight to ::operator delete.
class FrameCache {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 8;
  static constexpr std::size_t kDepth = 4;

  static void* allocate(std::size_t bytes) {
    const std::size_t c = class_of(bytes);
    if (c >= kClasses) return ::operator new(bytes);
    if (!torn_down()) {
      FrameCache& cache = local();
      if (Node* n = cache.heads_[c]) {
        cache.heads_[c] = n->next;
        --cache.counts_[c];
        return n;
      }
    }
    // Small frames always get their whole class, so any frame of the
    // class can later reuse the block and the sized delete matches.
    return ::operator new(class_bytes(c));
  }

  static void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t c = class_of(bytes);
    if (c >= kClasses) {
      ::operator delete(p, bytes);
      return;
    }
    if (!torn_down()) {
      FrameCache& cache = local();
      if (cache.counts_[c] < kDepth) {
        cache.heads_[c] = new (p) Node{cache.heads_[c]};
        ++cache.counts_[c];
        return;
      }
    }
    ::operator delete(p, class_bytes(c));
  }

  /// Frames cached on the calling thread (for tests).
  static std::size_t cached() {
    if (torn_down()) return 0;
    std::size_t total = 0;
    for (const std::size_t n : local().counts_) total += n;
    return total;
  }

  FrameCache(const FrameCache&) = delete;
  FrameCache& operator=(const FrameCache&) = delete;

 private:
  struct Node {
    Node* next;
  };

  FrameCache() = default;
  ~FrameCache() {
    torn_down() = true;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Node* n = heads_[c]) {
        heads_[c] = n->next;
        ::operator delete(n, class_bytes(c));
      }
    }
  }

  static constexpr std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }
  static constexpr std::size_t class_bytes(std::size_t c) {
    return (c + 1) * kGranule;
  }

  static FrameCache& local() {
    thread_local FrameCache cache;
    return cache;
  }
  /// Trivially destructible, so it stays readable for the whole of thread
  /// exit, after `cache` itself is gone.
  static bool& torn_down() {
    thread_local bool flag = false;
    return flag;
  }

  Node* heads_[kClasses] = {};
  std::size_t counts_[kClasses] = {};
};

}  // namespace detail

template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    static void* operator new(std::size_t bytes) {
      return detail::FrameCache::allocate(bytes);
    }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      detail::FrameCache::deallocate(frame, bytes);
    }

    std::coroutine_handle<> continuation{};
    std::optional<T> value{};
    std::exception_ptr exception{};

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        // Hand control back to whoever co_awaited us; if nobody did (a
        // top-level process task), return to the resumer (the scheduler).
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// True once the coroutine ran to completion (result available).
  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }
  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }

  /// Kicks off (or continues) a *top-level* task. Runs until the coroutine
  /// either completes or suspends waiting for the scheduler.
  void resume() { handle_.resume(); }

  /// Result of a completed task. Rethrows an exception escaping the body.
  T result() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
    return std::move(*handle_.promise().value);
  }

  /// Awaiting a Task starts the child coroutine via symmetric transfer and
  /// resumes the parent when the child completes. Awaiting an empty
  /// (default-constructed or moved-from) Task throws std::logic_error.
  auto operator co_await() {
    if (!handle_) throw std::logic_error("co_await on an empty Task");
    struct Awaiter {
      Handle h;
      bool await_ready() noexcept { return h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        return std::move(*h.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

}  // namespace loren::sim
