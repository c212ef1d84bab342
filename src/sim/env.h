// The abstract shared-memory environment the renaming algorithms run on.
//
// An Env exposes three shared-memory operations (TAS, read, write over a
// flat array of 64-bit cells) plus process-local randomness. Algorithms
// perform shared-memory operations by co_awaiting the awaitables returned
// here; whether the operation executes immediately (real atomics, real
// threads) or suspends until an adversarial scheduler picks this process
// (simulation) is the environment's choice. This is what lets us write each
// algorithm exactly once and both (a) measure step complexity against the
// paper's adversaries and (b) run the same code on hardware.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <stdexcept>

#include "sim/task.h"

namespace loren::sim {

using Location = std::uint64_t;
using ProcessId = std::uint32_t;

/// A name returned by a renaming algorithm; -1 means "no name acquired".
using Name = std::int64_t;

enum class OpKind : std::uint8_t { kTas, kRead, kWrite };

/// A shared-memory operation parked with the environment, waiting for the
/// scheduler to execute it on behalf of the suspended process.
struct PendingOp {
  OpKind kind = OpKind::kTas;
  Location loc = 0;
  std::uint64_t write_value = 0;        // kWrite only
  std::uint64_t* result = nullptr;      // where to deposit the outcome
  std::coroutine_handle<> resume{};     // innermost suspended coroutine
};

class Env {
 public:
  virtual ~Env() = default;

  /// True if shared-memory operations execute inside await_ready (real
  /// concurrency); false if they suspend for the simulator's scheduler.
  [[nodiscard]] virtual bool immediate() const = 0;

  // Immediate execution path (used when immediate() is true).
  virtual std::uint64_t execute_now(OpKind kind, Location loc,
                                    std::uint64_t write_value) = 0;

  // Simulated path: park the op; the scheduler will execute it later.
  virtual void post(PendingOp op) = 0;

  /// Process-local uniform draw from {0..bound-1}; a local computation, not
  /// a shared-memory step (matches the paper's step accounting).
  virtual std::uint64_t random_below(std::uint64_t bound) = 0;

  /// Guarantees locations [0, count) exist. The adaptive algorithms use a
  /// conceptually unbounded sequence of ReBatching objects; environments
  /// either grow (simulator) or preallocate and verify (real atomics).
  virtual void ensure_locations(std::uint64_t count) = 0;

  /// Identity of the process currently executing (the paper's p_i). Used by
  /// substrates that need per-process slots, e.g. tournament-tree TAS.
  [[nodiscard]] virtual ProcessId current_pid() const = 0;
};

namespace detail {

/// The awaiter behind read/write (tas has its own below), templated on the
/// env type: over a `final` env (ArenaEnv, the hardware path) the
/// immediate() check and the execute_now() call bind statically, so a probe
/// costs no indirect call; over sim::Env they stay virtual.
template <class E>
struct OpAwaiter {
  E* env;
  OpKind kind;
  Location loc;
  std::uint64_t write_value = 0;
  std::uint64_t outcome = 0;

  bool await_ready() {
    if (env->immediate()) {
      outcome = env->execute_now(kind, loc, write_value);
      return true;
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    env->post(PendingOp{kind, loc, write_value, &outcome, h});
  }
  [[nodiscard]] std::uint64_t await_resume() const { return outcome; }
};

/// OpAwaiter specialised to TAS: the kind and the (unused) write value are
/// constants, so the awaiter is 24 bytes. It lives in every suspended
/// caller's frame, one slot per co_await site.
template <class E>
struct TasAwaiter {
  E* env;
  Location loc;
  std::uint64_t outcome = 0;

  bool await_ready() {
    if (env->immediate()) {
      outcome = env->execute_now(OpKind::kTas, loc, 0);
      return true;
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    env->post(PendingOp{OpKind::kTas, loc, 0, &outcome, h});
  }
  bool await_resume() const { return outcome != 0; }
};

}  // namespace detail

/// co_await tas(env, loc) -> true iff this process *won* the TAS (changed
/// the location's value from 0 to 1; the paper's "wins" convention).
template <std::derived_from<Env> E>
detail::TasAwaiter<E> tas(E& env, Location loc) {
  return detail::TasAwaiter<E>{&env, loc};
}

/// co_await read(env, loc) -> current 64-bit value of the cell.
template <std::derived_from<Env> E>
detail::OpAwaiter<E> read(E& env, Location loc) {
  return detail::OpAwaiter<E>{&env, OpKind::kRead, loc};
}

/// co_await write(env, loc, v). Result value is meaningless.
template <std::derived_from<Env> E>
detail::OpAwaiter<E> write(E& env, Location loc, std::uint64_t v) {
  return detail::OpAwaiter<E>{&env, OpKind::kWrite, loc, v};
}

/// Runs a coroutine to completion over an immediate environment. With a
/// suspending (simulated) environment this is a bug; the helper checks.
template <class T>
T run_sync(Task<T> task) {
  task.resume();
  if (!task.done()) {
    throw std::logic_error(
        "run_sync: task suspended; did you pass a simulated Env?");
  }
  return task.result();
}

}  // namespace loren::sim
