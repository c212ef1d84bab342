#include <algorithm>
#include <stdexcept>

#include "sim/scheduler.h"

namespace loren::sim {

Decision RoundRobinStrategy::pick(const ExecView& view) {
  const auto& runnable = view.runnable();
  if (runnable.empty()) throw std::logic_error("pick with no runnable process");
  if (cursor_ >= runnable.size()) cursor_ = 0;
  return Decision{runnable[cursor_++]};
}

Decision RandomStrategy::pick(const ExecView& view) {
  const auto& runnable = view.runnable();
  if (runnable.empty()) throw std::logic_error("pick with no runnable process");
  return Decision{runnable[rng_.below(runnable.size())]};
}

Decision LayeredStrategy::pick(const ExecView& view) {
  const auto& runnable = view.runnable();
  if (runnable.empty()) throw std::logic_error("pick with no runnable process");
  // Drop processes that finished or crashed since the layer was formed.
  while (!queue_.empty() && view.state(queue_.back()) != ProcState::kRunnable) {
    queue_.pop_back();
  }
  if (queue_.empty()) {
    queue_ = runnable;
    // Fisher-Yates; we consume from the back, so this is a uniform order.
    for (std::size_t i = queue_.size(); i > 1; --i) {
      std::swap(queue_[i - 1], queue_[rng_.below(i)]);
    }
    ++layers_completed_;
  }
  const ProcessId pid = queue_.back();
  queue_.pop_back();
  return Decision{pid};
}

Decision CollisionAdversary::pick(const ExecView& view) {
  const auto& runnable = view.runnable();
  if (runnable.empty()) throw std::logic_error("pick with no runnable process");

  // 1. A guaranteed loser wastes a step at zero cost to the adversary.
  for (ProcessId pid : runnable) {
    if (view.would_lose_tas(pid)) return Decision{pid};
  }
  // 2. Otherwise create collisions: find the pending-TAS location with the
  //    most contenders and schedule one of them (the rest become losers).
  //    Counts live in a flat per-location array, grown to the env's size
  //    (or past it: a pending op may target a cell not yet created) and
  //    zeroed again by a second pass over the same list.
  if (counts_.size() < view.env().num_locations()) {
    counts_.resize(view.env().num_locations(), 0);
  }
  Location best_loc = 0;
  std::uint32_t best_count = 0;
  for (ProcessId pid : runnable) {
    const PendingOp& op = view.pending(pid);
    if (op.kind != OpKind::kTas) continue;
    if (op.loc >= counts_.size()) counts_.resize(op.loc + 1, 0);
    const std::uint32_t c = ++counts_[op.loc];
    if (c > best_count) {
      best_count = c;
      best_loc = op.loc;
    }
  }
  for (ProcessId pid : runnable) {
    const PendingOp& op = view.pending(pid);
    if (op.kind == OpKind::kTas) counts_[op.loc] = 0;
  }
  if (best_count >= 2) {
    for (ProcessId pid : runnable) {
      const PendingOp& op = view.pending(pid);
      if (op.kind == OpKind::kTas && op.loc == best_loc) return Decision{pid};
    }
  }
  // 3. No collisions available: round-robin.
  if (cursor_ >= runnable.size()) cursor_ = 0;
  return Decision{runnable[cursor_++]};
}

Decision CrashDecorator::pick(const ExecView& view) {
  ++ticks_;
  if (crashes_ < max_crashes_) {
    if (mode_ == Mode::kBeforeWin) {
      for (ProcessId pid : view.runnable()) {
        const PendingOp& op = view.pending(pid);
        if (op.kind == OpKind::kTas && view.env().cell(op.loc) == 0) {
          ++crashes_;
          return Decision{pid, /*crash=*/true};
        }
      }
    } else if (ticks_ % interval_ == 0) {
      const auto& runnable = view.runnable();
      ++crashes_;
      return Decision{runnable[rng_.below(runnable.size())], /*crash=*/true};
    }
  }
  return base_->pick(view);
}

}  // namespace loren::sim
