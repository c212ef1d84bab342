// Adversarial schedulers for the simulated shared-memory model.
//
// The paper proves its upper bounds against the *strong adaptive* adversary
// (sees all process state, including past coin flips, before every
// scheduling decision) and its lower bound against the *oblivious* adversary
// (fixes the schedule in advance). A Strategy here is handed a full view of
// the execution before each step, so adaptive adversaries are expressible;
// oblivious ones simply ignore the view.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "platform/rng.h"
#include "sim/sim_env.h"

namespace loren::sim {

enum class ProcState : std::uint8_t { kRunnable, kDone, kCrashed };

/// Read-only view of the execution offered to adversaries before each step.
class ExecView {
 public:
  ExecView(const SimEnv& env, const std::vector<ProcState>& states,
           const std::vector<ProcessId>& runnable)
      : env_(&env), states_(&states), runnable_(&runnable) {}

  [[nodiscard]] const SimEnv& env() const { return *env_; }
  [[nodiscard]] ProcState state(ProcessId pid) const { return (*states_)[pid]; }
  /// Compact list of processes that can be scheduled right now.
  [[nodiscard]] const std::vector<ProcessId>& runnable() const {
    return *runnable_;
  }
  /// The shared-memory op `pid` is about to perform (pid must be runnable).
  [[nodiscard]] const PendingOp& pending(ProcessId pid) const {
    return env_->pending(pid);
  }
  /// True iff the pending op of `pid` is a TAS that would *lose* right now.
  [[nodiscard]] bool would_lose_tas(ProcessId pid) const {
    const PendingOp& op = env_->pending(pid);
    return op.kind == OpKind::kTas && env_->cell(op.loc) != 0;
  }

 private:
  const SimEnv* env_;
  const std::vector<ProcState>* states_;
  const std::vector<ProcessId>* runnable_;
};

struct Decision {
  ProcessId pid = 0;
  bool crash = false;  // crash `pid` instead of executing its step
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  /// Called once per run before any step; lets stateful strategies reset.
  virtual void reset(ProcessId num_processes, std::uint64_t seed) = 0;
  /// Picks the next process to schedule (must be runnable).
  virtual Decision pick(const ExecView& view) = 0;
  /// Human-readable name for experiment tables.
  [[nodiscard]] virtual const char* name() const = 0;
};

// --- concrete adversaries ---------------------------------------------------

/// Oblivious: cycles through live processes in id order.
class RoundRobinStrategy final : public Strategy {
 public:
  void reset(ProcessId, std::uint64_t) override { cursor_ = 0; }
  Decision pick(const ExecView& view) override;
  [[nodiscard]] const char* name() const override { return "round-robin"; }

 private:
  std::size_t cursor_ = 0;
};

/// Oblivious: uniformly random runnable process each step.
class RandomStrategy final : public Strategy {
 public:
  void reset(ProcessId, std::uint64_t seed) override { rng_.reseed(seed ^ 0xabcdef); }
  Decision pick(const ExecView& view) override;
  [[nodiscard]] const char* name() const override { return "random"; }

 private:
  Xoshiro256 rng_{0};
};

/// Oblivious: the Section 6 lower-bound schedule. Steps proceed in layers;
/// within a layer every live process takes exactly one step, in an order
/// given by a fresh uniformly random permutation.
class LayeredStrategy final : public Strategy {
 public:
  void reset(ProcessId, std::uint64_t seed) override {
    rng_.reseed(seed ^ 0x1a7e5ed);
    queue_.clear();
    layers_completed_ = 0;
  }
  Decision pick(const ExecView& view) override;
  [[nodiscard]] std::uint64_t layers_completed() const { return layers_completed_; }
  [[nodiscard]] const char* name() const override { return "layered"; }

 private:
  Xoshiro256 rng_{0};
  std::vector<ProcessId> queue_;  // remaining pids of the current layer
  std::uint64_t layers_completed_ = 0;
};

/// Strong adaptive adversary that maximizes wasted probes: schedules first
/// any process whose pending TAS is already doomed to lose; otherwise picks
/// a process probing the location with the most contenders (so every
/// contender but one wastes its step; ties go to the first location in
/// runnable order to reach the count); falls back to round-robin. Reads and
/// writes are never counted. Each decision scans the runnable list: O(n)
/// per decision, so use it at moderate n. The contender counts are a flat
/// per-location array kept across decisions and grown with the env, so a
/// decision allocates nothing; it costs 4 bytes per location.
class CollisionAdversary final : public Strategy {
 public:
  void reset(ProcessId, std::uint64_t) override {
    cursor_ = 0;
    counts_.clear();
  }
  Decision pick(const ExecView& view) override;
  [[nodiscard]] const char* name() const override { return "collision-adaptive"; }

 private:
  std::size_t cursor_ = 0;
  /// Pending-TAS contenders per location; all zero between decisions.
  std::vector<std::uint32_t> counts_;
};

/// Decorator injecting crashes into any base strategy.
class CrashDecorator final : public Strategy {
 public:
  enum class Mode {
    kBeforeWin,  // crash a process the moment it is about to win a TAS
    kRandom,     // crash a random runnable process at regular intervals
  };

  CrashDecorator(std::unique_ptr<Strategy> base, ProcessId max_crashes,
                 Mode mode, std::uint64_t interval = 16)
      : base_(std::move(base)),
        max_crashes_(max_crashes),
        mode_(mode),
        interval_(interval) {}

  void reset(ProcessId n, std::uint64_t seed) override {
    base_->reset(n, seed);
    rng_.reseed(seed ^ 0xc4a5);
    crashes_ = 0;
    ticks_ = 0;
  }
  Decision pick(const ExecView& view) override;
  [[nodiscard]] ProcessId crashes_injected() const { return crashes_; }
  [[nodiscard]] const char* name() const override { return "crash-decorator"; }

 private:
  std::unique_ptr<Strategy> base_;
  ProcessId max_crashes_;
  Mode mode_;
  std::uint64_t interval_;
  Xoshiro256 rng_{0};
  ProcessId crashes_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace loren::sim
