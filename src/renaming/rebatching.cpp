#include "renaming/rebatching.h"

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

template <ReBatchingEnv E>
Task<Name> ReBatching::walk(E& env, std::uint64_t first, std::uint64_t last,
                            bool backup) {
  for (std::uint64_t i = first; i < last; ++i) {
    // Figure 1's TryGetName(i), inline so that a whole call is one frame.
    if (stats_ != nullptr) ++stats_->entered[i];
    const std::uint64_t b = layout_.size(i);
    const int t = layout_.probes(i);
    for (int j = 0; j < t; ++j) {
      const sim::Location loc = base_ + layout_.offset(i) + env.random_below(b);
      // Probes await the TAS (or the service) directly rather than through
      // a helper coroutine, so a probe allocates no frame of its own.
      const bool won = service_ != nullptr
                           ? co_await service_->acquire(env, loc)
                           : co_await sim::tas(env, loc);
      if (won) co_return static_cast<Name>(loc);
    }
    if (stats_ != nullptr) ++stats_->failed[i];
  }
  if (backup) {
    // Figure 1 lines 5-7: deterministic sweep; reached with probability
    // 1/n^(beta-o(1)) but indispensable for worst-case termination.
    if (stats_ != nullptr) ++stats_->backup_entries;
    for (sim::Location loc = base_; loc < end(); ++loc) {
      const bool won = service_ != nullptr
                           ? co_await service_->acquire(env, loc)
                           : co_await sim::tas(env, loc);
      if (won) co_return static_cast<Name>(loc);
    }
  }
  co_return -1;
}

template <ReBatchingEnv E>
Task<Name> ReBatching::get_name(E& env) {
  // In service mode the service's creator sized the cell region; here we
  // only own the hardware-cell layout.
  if (service_ == nullptr) env.ensure_locations(end());
  return walk(env, 0, layout_.num_batches(), backup_);
}

template <ReBatchingEnv E>
Task<Name> ReBatching::try_get_name(E& env, std::uint64_t batch) {
  return walk(env, batch, batch + 1, false);
}

template Task<Name> ReBatching::get_name(Env&);
template Task<Name> ReBatching::get_name(ArenaEnv&);
template Task<Name> ReBatching::try_get_name(Env&, std::uint64_t);
template Task<Name> ReBatching::try_get_name(ArenaEnv&, std::uint64_t);

}  // namespace loren
