#include "elastic/elastic_service.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "telemetry/trace.h"

namespace loren {

using sim::Name;

namespace {

/// Bounded by the doubling ladder: each failed claim round either resized
/// the service or gives up, so a claim loops O(log2(max/min)) times worst
/// case; 40 covers the full default range with margin.
constexpr int kMaxClaimRounds = 40;

/// name = (local << kTagBits) | tag, plus the generation stamp when the
/// debug release guard is on (see ElasticOptions::debug_release_guard).
Name encode_name(const ShardGroup& g, std::int64_t local, bool guard) {
  std::uint64_t v = (static_cast<std::uint64_t>(local)
                     << ElasticRenamingService::kTagBits) |
                    g.tag();
  if (guard) {
    v |= (g.generation() & ElasticRenamingService::kGenStampMask)
         << ElasticRenamingService::kGenStampShift;
  }
  return static_cast<Name>(v);
}

/// encode_name's inverse, so the stamp geometry lives in exactly two
/// adjacent functions.
struct DecodedName {
  std::uint64_t local;
  std::uint32_t tag;
  std::uint64_t stamp;  // meaningful only when the guard is on
};

DecodedName decode_name(Name name, bool guard) {
  std::uint64_t raw = static_cast<std::uint64_t>(name);
  DecodedName d{};
  if (guard) {
    d.stamp = (raw >> ElasticRenamingService::kGenStampShift) &
              ElasticRenamingService::kGenStampMask;
    raw &= (std::uint64_t{1} << ElasticRenamingService::kGenStampShift) - 1;
  }
  d.tag = static_cast<std::uint32_t>(raw) &
          (ElasticRenamingService::kMaxGroups - 1);
  d.local = raw >> ElasticRenamingService::kTagBits;
  return d;
}

/// The stale double-release ABA guard: with the guard on, the tag has
/// been recycled since the name was issued iff the generation stamp
/// mismatches — freeing the cell would hit a victim in the *new* group.
bool stamp_matches(const ShardGroup& g, const DecodedName& d, bool guard) {
  return !guard ||
         (g.generation() & ElasticRenamingService::kGenStampMask) == d.stamp;
}

control::AdaptiveController::KnobSeeds knob_seeds(const ElasticOptions& o) {
  control::AdaptiveController::KnobSeeds seeds;
  seeds.grow_miss_threshold = o.grow_miss_threshold;
  seeds.shrink_low_threshold = o.shrink_low_threshold;
  return seeds;
}

}  // namespace

ElasticRenamingService::ElasticRenamingService(std::uint64_t initial_holders,
                                               ElasticOptions options)
    : ServiceCore(options, knob_seeds(options)),
      options_(options),
      min_holders_(options.min_holders != 0 ? options.min_holders
                                            : initial_holders),
      schedules_(opts().layout_extra) {
  if (initial_holders == 0) {
    throw std::invalid_argument("ElasticRenamingService: n must be >= 1");
  }
  if (min_holders_ > options_.max_holders) {
    throw std::invalid_argument(
        "ElasticRenamingService: min_holders > max_holders");
  }
  const std::uint64_t initial =
      std::clamp(initial_holders, min_holders_, options_.max_holders);
  telemetry::MetricsRegistry& reg = metrics_registry();
  grow_events_ = reg.counter("elastic.grow.events");
  shrink_events_ = reg.counter("elastic.shrink.events");
  reclaimed_groups_ = reg.counter("elastic.reclaim.groups");
  epoch_advances_ = reg.counter("elastic.epoch.advances");
  quiesce_ticks_ = reg.histogram("elastic.reclaim.quiesce_ticks");
  {
    std::lock_guard<SimMutex> lock(resize_mu_);
    const std::uint64_t shards =
        shard_count_for(initial, options_.shards, schedules_.params());
    const std::uint64_t shard_n = (initial + shards - 1) / shards;
    auto group = std::make_unique<ShardGroup>(
        /*tag=*/0, /*generation=*/1, initial, shards, schedules_.get(shard_n));
    ShardGroup* raw = group.get();
    live_local_capacity_.store(raw->local_capacity(),
                               std::memory_order_release);
    live_holders_.store(initial, std::memory_order_release);
    live_tag_.store(0, std::memory_order_release);
    groups_[0].store(raw, std::memory_order_release);
    live_group_.store(raw, std::memory_order_release);
    generation_.store(1, std::memory_order_release);
    linked_.push_back(std::move(group));
  }
  register_exit_flush();
}

ElasticRenamingService::~ElasticRenamingService() { unregister_exit_flush(); }

bool ElasticRenamingService::reclaim_cell(Name name) {
  if (name < 0) return false;
  const DecodedName d = decode_name(name, options_.debug_release_guard);
  ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
  if (g == nullptr) return false;
  if (!stamp_matches(*g, d, options_.debug_release_guard)) return false;
  if (!g->release_local(d.local)) return false;
  g->note_released();
  return true;
}

bool ElasticRenamingService::stashable(const PerThread& per, Name name) const {
  const DecodedName d = decode_name(name, options_.debug_release_guard);
  return d.tag == per.extra.expected_tag &&
         d.local < live_local_capacity_.load(std::memory_order_acquire);
}

bool ElasticRenamingService::is_held(Name name) const {
  const DecodedName d = decode_name(name, options_.debug_release_guard);
  ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
  LOREN_SIM_POINT("elastic.release.stamp");
  return g != nullptr && stamp_matches(*g, d, options_.debug_release_guard) &&
         g->is_held(d.local);
}

Name ElasticRenamingService::claim_one(PerThread& per,
                                       ShardGroup::ProbeStats& stats) {
  for (int attempt = 0; attempt < kMaxClaimRounds; ++attempt) {
    std::uint64_t seen_gen = 0;
    {
      EpochDomain::Guard guard(domain_, *per.node);
      // Generation before group: if a resize lands between the two loads
      // we hold (old gen, new group) and a miss leads grow_from() to a
      // gen mismatch — a harmless retry. The other order would pair a
      // stale full group with the *current* gen and let one pressure
      // event double capacity twice.
      seen_gen = generation_.load(std::memory_order_acquire);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      const std::int64_t local = g->try_acquire(*per.rng, &per.shard, stats);
      if (local >= 0) {
        g->note_acquired();
        end_miss_streak();
        return encode_name(*g, local, options_.debug_release_guard);
      }
    }
    // Full schedule miss: record pressure, grow when it is sustained.
    const std::uint32_t streak =
        miss_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.auto_grow && streak >= effective_grow_threshold() &&
        grow_from(seen_gen)) {
      continue;
    }
    // Growth unavailable (or pressure not yet sustained): deterministic
    // sweep so we fail only on true exhaustion of the live group (or, with
    // a sweep budget set, fail fast once the bounded walk is spent).
    std::int64_t swept = -1;
    {
      EpochDomain::Guard guard(domain_, *per.node);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      LOREN_SIM_POINT("elastic.sweep");
      LOREN_TRACE("elastic.sweep", seen_gen);
      swept = g->sweep_acquire(&per.shard, options_.sweep_retry_budget, stats);
      if (swept >= 0) {
        g->note_acquired();
        // A sweep win is still a successful acquisition: it must end the
        // miss streak like a schedule win does. Leaving the streak in
        // place let one later schedule miss cross grow_miss_threshold and
        // double capacity with no sustained pressure at all.
        end_miss_streak();
        return encode_name(*g, swept, options_.debug_release_guard);
      }
    }
    if (swept == ShardGroup::kSweepBudgetTruncated) {
      // Budget-truncated sweep: the walk gave up before covering every
      // shard, so this is *not* evidence the group is full. Report the
      // explicit exhaustion code without forcing a grow — feeding a
      // truncated scan into the grow path would reintroduce the
      // spurious-grow bug the miss-streak discipline exists to prevent.
      return kSweepBudgetExhausted;
    }
    // True exhaustion: force a grow regardless of streak, or give up.
    if (!options_.auto_grow || !grow_from(seen_gen)) return kExhausted;
  }
  return kExhausted;
}

std::uint64_t ElasticRenamingService::claim_many(PerThread& per,
                                                 std::uint64_t want, Name* out,
                                                 ShardGroup::ProbeStats& stats,
                                                 bool* budget_hit) {
  // Each round runs against one generation under one epoch pin; a round
  // that leaves a shortfall grows the namespace and the next round claims
  // the remainder from the new generation, so the loop is bounded by the
  // doubling ladder exactly like claim_one's.
  std::uint64_t got = 0;
  for (int attempt = 0; attempt < kMaxClaimRounds && got < want; ++attempt) {
    std::uint64_t seen_gen = 0;
    {
      EpochDomain::Guard guard(domain_, *per.node);
      // Generation before group, for the same reason as claim_one().
      seen_gen = generation_.load(std::memory_order_acquire);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      const std::uint64_t round = g->try_acquire_many(
          *per.rng, &per.shard, want - got, out + got,
          options_.sweep_retry_budget, budget_hit, stats);
      if (round > 0) {
        // One live-counter add and one tag/stamp encode pass per
        // sub-batch — the whole point of batching.
        g->note_acquired_n(static_cast<std::int64_t>(round));
        for (std::uint64_t i = got; i < got + round; ++i) {
          out[i] = encode_name(*g, out[i], options_.debug_release_guard);
        }
        got += round;
      }
    }
    if (got == want) {
      end_miss_streak();  // sweep-served or not
      break;
    }
    // A shortfall from a budget-truncated backstop sweep is no exhaustion
    // evidence: no miss streak, no grow — hand back the partial batch.
    if (*budget_hit) break;
    // Shortfall past try_acquire_many's sweep backstop: the live group
    // really had fewer than the remaining demand free. That is one
    // pressure event for the whole batch — not one per missing name — and,
    // like claim_one's true-exhaustion path, grounds for growing now.
    // sim:exempt(streak bookkeeping; the claim RMWs carry the sim points)
    miss_streak_.fetch_add(1, std::memory_order_relaxed);
    if (!options_.auto_grow || !grow_from(seen_gen)) break;
  }
  return got;
}

std::uint64_t ElasticRenamingService::release_batch(const Name* names,
                                                   std::uint64_t count,
                                                   PerThread& per) {
  std::uint64_t freed = 0;
  EpochDomain::Guard guard(domain_, *per.node);
  // With leasing on, one holder-set lock for the whole batch, taken after
  // the epoch pin (the reaper's order too). Close-vs-reap is still
  // linearized per name by that lock, and each cell is freed while it is
  // held: the reaper frees only cells whose lease it removed under the
  // same lock, so exactly one side frees each cell.
  std::optional<lease::LeaseTable::HolderBatch> leases;
  if (lease_table() != nullptr) {
    leases.emplace(*lease_table(), per.hb, per.stripe);
  }
  // Batches overwhelmingly come from one generation, so coalesce the
  // live-counter updates per group and flush on change.
  ShardGroup* run_group = nullptr;
  std::int64_t run_freed = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Name name = names[i];
    if (name < 0) continue;
    const DecodedName d = decode_name(name, options_.debug_release_guard);
    ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
    if (g == nullptr) continue;
    LOREN_SIM_POINT("elastic.release.stamp");
    if (!stamp_matches(*g, d, options_.debug_release_guard)) continue;
    if (leases && !lease_closed(*leases, name)) continue;
    if (!g->release_local(d.local)) continue;
    if (g != run_group) {
      if (run_group != nullptr) run_group->note_released_n(run_freed);
      run_group = g;
      run_freed = 0;
    }
    ++run_freed;
    ++freed;
  }
  if (run_group != nullptr) run_group->note_released_n(run_freed);
  return freed;
}

bool ElasticRenamingService::grow_from(std::uint64_t seen_gen) {
  LOREN_SIM_POINT("elastic.grow");
  std::lock_guard<SimMutex> lock(resize_mu_);
  if (generation_.load(std::memory_order_relaxed) != seen_gen) {
    return true;  // someone already resized since the caller's miss
  }
  const std::uint64_t h = live_holders_.load(std::memory_order_relaxed);
  if (h >= options_.max_holders) return false;
  return resize_locked(std::min(h * 2, options_.max_holders));
}

bool ElasticRenamingService::grow() {
  std::lock_guard<SimMutex> lock(resize_mu_);
  const std::uint64_t h = live_holders_.load(std::memory_order_relaxed);
  if (h >= options_.max_holders) return false;
  return resize_locked(std::min(h * 2, options_.max_holders));
}

bool ElasticRenamingService::shrink() {
  std::lock_guard<SimMutex> lock(resize_mu_);
  const std::uint64_t h = live_holders_.load(std::memory_order_relaxed);
  return resize_locked(std::max(h / 2, min_holders_));
}

bool ElasticRenamingService::resize(std::uint64_t holders) {
  std::lock_guard<SimMutex> lock(resize_mu_);
  return resize_locked(holders);
}

bool ElasticRenamingService::resize_locked(std::uint64_t target) {
  target = std::clamp(target, min_holders_, options_.max_holders);
  ShardGroup* cur = live_group_.load(std::memory_order_relaxed);
  if (target == cur->holders()) return false;
  // Free tag slots before looking for one: a long-drained retiree should
  // never block a resize.
  reclaim_locked();
  const int tag = find_free_tag_locked();
  if (tag < 0) return false;  // kMaxGroups generations still in flight

  const std::uint64_t shards =
      shard_count_for(target, options_.shards, schedules_.params());
  const std::uint64_t shard_n = (target + shards - 1) / shards;
  const std::uint64_t gen =
      generation_.load(std::memory_order_relaxed) + 1;
  auto group = std::make_unique<ShardGroup>(
      static_cast<std::uint32_t>(tag), gen, target, shards,
      schedules_.get(shard_n));
  ShardGroup* raw = group.get();

  // Publication order matters: the tag table entry must be visible before
  // the live pointer (an acquisition from the new group may release
  // immediately), and the retiring advance comes only after the swap so
  // quiesced(retire_epoch) really means "no in-flight acquisition can
  // still insert into the old group".
  LOREN_SIM_POINT("elastic.swap.publish");
  live_local_capacity_.store(raw->local_capacity(), std::memory_order_release);
  live_holders_.store(target, std::memory_order_release);
  live_tag_.store(static_cast<std::uint32_t>(tag), std::memory_order_release);
  groups_[static_cast<std::size_t>(tag)].store(raw, std::memory_order_release);
  live_group_.store(raw, std::memory_order_release);
  generation_.store(gen, std::memory_order_release);
  LOREN_SIM_POINT("elastic.swap.retire");
  cur->retire(domain_.advance(), telemetry::trace_ticks());
  linked_.push_back(std::move(group));

  telemetry::MetricsRegistry::ThreadStripe& stripe =
      metrics_registry().stripe();
  stripe.add(epoch_advances_);
  if (target > cur->holders()) {
    stripe.add(grow_events_);
    LOREN_TRACE("elastic.grow", gen);
  } else {
    stripe.add(shrink_events_);
    LOREN_TRACE("elastic.shrink", gen);
  }
  miss_streak_.store(0, std::memory_order_relaxed);
  low_streak_.store(0, std::memory_order_relaxed);
  return true;
}

int ElasticRenamingService::find_free_tag_locked() const {
  for (std::uint32_t t = 0; t < kMaxGroups; ++t) {
    // mo:relaxed-ok(nullptr scan under resize_mu_, the only writer; no deref)
    if (groups_[t].load(std::memory_order_relaxed) == nullptr) {
      return static_cast<int>(t);
    }
  }
  return -1;
}

std::size_t ElasticRenamingService::reclaim_locked() {
  // Stage A: a retiree is drained once (a) the retire epoch quiesced (no
  // in-flight acquisition can still insert into it, so its live counter
  // is monotonically non-increasing from here) and (b) the counter hit
  // zero (no held names, so no legitimate release will look it up).
  // Unlink it and give it a fresh epoch to wait out in limbo.
  telemetry::MetricsRegistry::ThreadStripe& stripe =
      metrics_registry().stripe();
  for (auto it = linked_.begin(); it != linked_.end();) {
    ShardGroup* g = it->get();
    if (g->retired() && domain_.quiesced(g->retire_epoch()) &&
        g->live() <= 0) {
      groups_[g->tag()].store(nullptr, std::memory_order_release);
      const std::uint64_t e = domain_.advance();
      stripe.add(epoch_advances_);
      LOREN_TRACE("elastic.unlink", g->tag());
      limbo_.push_back(LimboEntry{std::move(*it), e});
      it = linked_.erase(it);
    } else {
      ++it;
    }
  }
  // Stage B: limbo groups whose unlink epoch has quiesced — no release()
  // can still hold a pointer read from the tag table — are freed. Runs
  // after stage A so that with no readers in flight (quiescence is
  // immediate) a single pass unlinks *and* frees.
  std::size_t freed = 0;
  for (auto it = limbo_.begin(); it != limbo_.end();) {
    if (domain_.quiesced(it->unlink_epoch)) {
      // Quiescence wait: retirement to reclamation, in trace_ticks()
      // units (engine steps under LOREN_SIM, TSC otherwise).
      const std::uint64_t retired_at = it->group->retire_ticks();
      if (retired_at != 0) {
        stripe.record(quiesce_ticks_,
                      telemetry::trace_ticks() - retired_at);
      }
      LOREN_TRACE("elastic.reclaim", it->group->tag());
      it = limbo_.erase(it);
      ++freed;
      stripe.add(reclaimed_groups_);
    } else {
      ++it;
    }
  }
  return freed;
}

std::size_t ElasticRenamingService::reclaim() {
  std::lock_guard<SimMutex> lock(resize_mu_);
  return reclaim_locked();
}

void ElasticRenamingService::maintenance() {
  std::unique_lock<SimMutex> lock(resize_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // someone else is already on it
  reclaim_locked();
  if (!options_.auto_shrink) return;
  const std::uint64_t h = live_holders_.load(std::memory_order_relaxed);
  if (h / 2 < min_holders_) return;
  std::int64_t live = 0;
  for (const auto& g : linked_) live += g->live();
  if (live >= 0 && static_cast<std::uint64_t>(live) * 4 <= h) {
    // Low watermark — but only shrink once it is *sustained* across
    // consecutive samples, mirroring the grow-side miss streak.
    const std::uint32_t streak =
        // sim:exempt(maintenance-only counter under resize_mu_; no races)
        low_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= effective_shrink_threshold()) resize_locked(h / 2);
  } else {
    low_streak_.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t ElasticRenamingService::names_live() const {
  std::lock_guard<SimMutex> lock(resize_mu_);
  std::int64_t live = 0;
  for (const auto& g : linked_) live += g->live();
  return live > 0 ? static_cast<std::uint64_t>(live) : 0;
}

std::size_t ElasticRenamingService::groups_in_flight() const {
  std::lock_guard<SimMutex> lock(resize_mu_);
  return linked_.size();
}

std::uint64_t ElasticRenamingService::footprint_bytes() const {
  std::lock_guard<SimMutex> lock(resize_mu_);
  std::uint64_t bytes = 0;
  for (const auto& g : linked_) bytes += g->footprint_bytes();
  for (const auto& e : limbo_) bytes += e.group->footprint_bytes();
  return bytes;
}

template class ServiceCore<ElasticRenamingService>;

}  // namespace loren
