#include "renaming/rebatching.h"

namespace loren {

using sim::Env;
using sim::Name;
using sim::Task;

ReBatching::ReBatching(std::uint64_t n, Options options)
    : layout_(n, options.layout),
      base_(options.base),
      backup_(options.backup),
      service_(options.service) {}

Task<Name> ReBatching::try_get_name(Env& env, std::uint64_t batch) {
  if (stats_ != nullptr) ++stats_->entered[batch];
  const std::uint64_t b = layout_.size(batch);
  const int t = layout_.probes(batch);
  for (int j = 0; j < t; ++j) {
    const sim::Location loc =
        base_ + layout_.offset(batch) + env.random_below(b);
    // Probes await the TAS (or the service) directly rather than through
    // a helper coroutine, so a probe allocates no frame of its own.
    const bool won = service_ != nullptr
                         ? co_await service_->acquire(env, loc)
                         : co_await sim::tas(env, loc);
    if (won) co_return static_cast<Name>(loc);
  }
  if (stats_ != nullptr) ++stats_->failed[batch];
  co_return -1;
}

Task<Name> ReBatching::get_name(Env& env) {
  // In service mode the service's creator sized the cell region; here we
  // only own the hardware-cell layout.
  if (service_ == nullptr) env.ensure_locations(end());
  for (std::uint64_t i = 0; i < layout_.num_batches(); ++i) {
    const Name u = co_await try_get_name(env, i);
    if (u != -1) co_return u;
  }
  if (backup_) {
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

}  // namespace loren
