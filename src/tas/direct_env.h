// BasicDirectEnv: run the coroutine algorithms directly over any hardware
// shared-memory substrate (TasArena, BitmapArena, ...).
//
// The substrate must expose test_and_set(i) -> bool, read(i) -> u64,
// write(i, v), and size(). Operations execute immediately inside
// await_ready, so the same algorithm code measured under the simulated
// adversaries runs unchanged on real threads.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "platform/rng.h"
#include "sim/env.h"

namespace loren {

/// One BasicDirectEnv per thread at a time; the substrate is the shared
/// memory. The caller owns the random stream and keeps it across envs, so
/// building an env per call costs no reseed (ConcurrentRenamer keeps one
/// stream per thread).
template <class Memory>
class BasicDirectEnv final : public sim::Env {
 public:
  BasicDirectEnv(Memory& memory, Xoshiro256& rng, sim::ProcessId pid)
      : memory_(&memory), rng_(&rng), pid_(pid) {}

  [[nodiscard]] bool immediate() const override { return true; }

  std::uint64_t execute_now(sim::OpKind kind, sim::Location loc,
                            std::uint64_t write_value) override {
    ++steps_;
    switch (kind) {
      case sim::OpKind::kTas:
        // sim:exempt(forwards to the substrate RMW; scheduling already
        // happened when the Env op was issued)
        return memory_->test_and_set(loc) ? 1 : 0;
      case sim::OpKind::kRead:
        return memory_->read(loc);
      case sim::OpKind::kWrite:
        memory_->write(loc, write_value);
        return 0;
    }
    return 0;  // unreachable
  }

  void post(sim::PendingOp) override {
    throw std::logic_error("BasicDirectEnv never parks operations");
  }

  std::uint64_t random_below(std::uint64_t bound) override {
    return rng_->below(bound);
  }

  void ensure_locations(std::uint64_t count) override {
    if (count > memory_->size()) {
      throw std::length_error(
          "BasicDirectEnv: algorithm needs more locations than were "
          "preallocated");
    }
  }

  [[nodiscard]] sim::ProcessId current_pid() const override { return pid_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  Memory* memory_;
  Xoshiro256* rng_;
  sim::ProcessId pid_;
  std::uint64_t steps_ = 0;
};

}  // namespace loren
