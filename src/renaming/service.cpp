#include "renaming/service.h"

#include <stdexcept>

#include "telemetry/trace.h"

namespace loren {

using sim::Name;

namespace {

/// The fixed service's one never-resizing group: every shard laid out for
/// ceil(n/S) holders under one shared schedule.
ShardGroup fixed_group(std::uint64_t n, const ServiceOptions& options) {
  if (n == 0) throw std::invalid_argument("RenamingService: n must be >= 1");
  const std::uint64_t shards =
      shard_count_for(n, options.shards, options.layout_extra);
  return ShardGroup(/*tag=*/0, /*generation=*/1, n, shards,
                    std::make_shared<const CachedSchedule>(
                        (n + shards - 1) / shards, options.layout_extra));
}

/// Trace points of a claim walk (migration payload: the sticky hint
/// after the walk).
void trace_walk([[maybe_unused]] const ShardGroup::ProbeStats& stats,
                [[maybe_unused]] std::uint32_t shard) {
  if (stats.migrations != 0) LOREN_TRACE("service.migrate", shard);
  if (stats.sweep_shards != 0) LOREN_TRACE("service.sweep", stats.sweep_shards);
}

}  // namespace

RenamingService::RenamingService(std::uint64_t n,
                                 RenamingServiceOptions options)
    : ServiceCore(options, {}), group_(fixed_group(n, opts())) {
  register_exit_flush();
}

RenamingService::~RenamingService() { unregister_exit_flush(); }

Name RenamingService::claim_one(PerThread& per,
                                ShardGroup::ProbeStats& stats) {
  // The sticky shard first; on pressure (late win) migrate to a random
  // shard, on a full miss steal ringward, so loaded shards shed to
  // neighbours. If every schedule misses (probability 1/n^(beta-o(1)) per
  // shard unless the namespace really is near-exhausted), the
  // deterministic sweep backstops, so the claim fails only when zero cells
  // are free — or fails fast once the bounded sweep budget is spent.
  std::int64_t local = group_.try_acquire(*per.rng, &per.shard, stats);
  if (local < 0) {
    local = group_.sweep_acquire(&per.shard, opts().sweep_retry_budget, stats);
  }
  trace_walk(stats, per.shard);
  if (local >= 0) {
    RegisteredCounter::add(*per.node, 1);
    return static_cast<Name>(local);
  }
  return local == ShardGroup::kSweepBudgetTruncated ? kSweepBudgetExhausted
                                                    : kExhausted;
}

std::uint64_t RenamingService::claim_many(PerThread& per, std::uint64_t want,
                                          Name* out,
                                          ShardGroup::ProbeStats& stats,
                                          bool* budget_hit) {
  const std::uint64_t got =
      group_.try_acquire_many(*per.rng, &per.shard, want, out,
                              opts().sweep_retry_budget, budget_hit, stats);
  trace_walk(stats, per.shard);
  if (got > 0) {
    RegisteredCounter::add(*per.node, static_cast<std::int64_t>(got));
  }
  return got;
}

std::uint64_t RenamingService::release_batch(const Name* names,
                                             std::uint64_t count,
                                             PerThread& per) {
  std::uint64_t freed = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Name name = names[i];
    if (!plausible(name) || !lease_closed(name, per)) continue;
    if (group_.release_local(static_cast<std::uint64_t>(name))) ++freed;
  }
  if (freed > 0) {
    RegisteredCounter::add(*per.node, -static_cast<std::int64_t>(freed));
  }
  return freed;
}

void RenamingService::reset() {
  group_.reset();
  live_.reset();
  // Drop every lease without reclaiming — the epoch bump above already
  // freed every cell, so reclaim callbacks would double-free.
  if (leasing_enabled()) lease_table()->clear();
  // Invalidate every thread's stash: contents are discarded (not spilled)
  // on the owning thread's next call, because the epoch bump above
  // already made the stashed cells winnable again.
  // sim:exempt(reset() requires external quiescence; nothing races it)
  cache_gen_.fetch_add(1, std::memory_order_relaxed);
}

template class ServiceCore<RenamingService>;

}  // namespace loren
