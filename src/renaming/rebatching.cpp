#include "renaming/rebatching.h"

#include <algorithm>

#include "tas/tas_arena.h"

namespace loren {

using sim::Env;
using sim::Name;
using sim::Task;

ReBatching::ReBatching(std::uint64_t n, Options options)
    : layout_(n, options.layout),
      base_(options.base),
      backup_(options.backup),
      service_(options.service) {}

template <ReBatchingEnv E, bool kService>
Task<Name> ReBatching::walk(E& env, std::uint64_t first, std::uint64_t last,
                            bool backup) {
  // Batches [first, last), then, when `backup` is set, Figure 1 lines 5-7's
  // deterministic sweep as pass `last`: reached with probability
  // 1/n^(beta-o(1)) but indispensable for worst-case termination. One loop
  // and one co_await: the compiler gives every suspend point its own frame
  // slot, so a second probe site would grow every process's frame.
  const std::uint64_t passes = backup ? last + 1 : last;
  for (std::uint64_t i = first; i < passes; ++i) {
    // Figure 1's TryGetName(i), inline so that a whole call is one frame.
    const bool sweep = i == last;
    if (stats_ != nullptr) {
      ++(sweep ? stats_->backup_entries : stats_->entered[i]);
    }
    const std::uint64_t probes = sweep ? layout_.total() : layout_.probes(i);
    for (std::uint64_t j = 0; j < probes; ++j) {
      if constexpr (std::same_as<E, ArenaEnv>) {
        // Fetch the next cells this batch will probe (kLookAhead). The copy
        // of the coin stream lives in prefetch_draws, not in this frame.
        if (!sweep && j % kLookAhead == 0) {
          env.prefetch_draws(base_ + layout_.offset(i), layout_.size(i),
                             std::min(kLookAhead, probes - j));
        }
      }
      const sim::Location loc =
          sweep ? base_ + j
                : base_ + layout_.offset(i) + env.random_below(layout_.size(i));
      // Probes await the TAS (or the service) directly rather than through
      // a helper coroutine, so a probe allocates no frame of its own.
      bool won = false;
      if constexpr (kService) {
        won = co_await service_->acquire(env, loc);
      } else {
        won = co_await sim::tas(env, loc);
      }
      if (won) co_return static_cast<Name>(loc);
    }
    if (stats_ != nullptr && !sweep) ++stats_->failed[i];
  }
  co_return -1;
}

template <ReBatchingEnv E>
Task<Name> ReBatching::get_name(E& env) {
  // In service mode the service's creator sized the cell region; here we
  // only own the hardware-cell layout.
  if (service_ != nullptr) {
    return walk<E, true>(env, 0, layout_.num_batches(), backup_);
  }
  env.ensure_locations(end());
  return walk<E, false>(env, 0, layout_.num_batches(), backup_);
}

template <ReBatchingEnv E>
Task<Name> ReBatching::try_get_name(E& env, std::uint64_t batch) {
  return service_ != nullptr ? walk<E, true>(env, batch, batch + 1, false)
                             : walk<E, false>(env, batch, batch + 1, false);
}

template Task<Name> ReBatching::get_name(Env&);
template Task<Name> ReBatching::get_name(ArenaEnv&);
template Task<Name> ReBatching::try_get_name(Env&, std::uint64_t);
template Task<Name> ReBatching::try_get_name(ArenaEnv&, std::uint64_t);

}  // namespace loren
