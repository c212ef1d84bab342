#include "elastic/elastic_service.h"

#include <algorithm>
#include <stdexcept>

#include "platform/sim_point.h"
#include "renaming/service_directory.h"
#include "renaming/thread_ctx.h"
#include "telemetry/trace.h"

namespace {

/// Per-(thread, service) hot-path state: this thread's epoch slot in the
/// service's domain (registered lazily — the introspection accessors must
/// be able to touch the entry without registering), its sticky shard hint
/// (masked down when the live group has fewer shards — after a resize the
/// hint is merely stale, never wrong), the release-path maintenance sample
/// counter, and the thread-local name stash.
struct PerElastic {
  loren::EpochDomain::Slot* slot = nullptr;
  /// This thread's stripe of the service's metrics registry, resolved
  /// alongside the epoch slot (telemetry/metrics.h).
  loren::telemetry::MetricsRegistry::ThreadStripe* stripe = nullptr;
  std::uint32_t shard = 0;
  std::uint32_t sample = 0;
  /// Detailed-mode sampling phases (every (mask+1)-th op observed);
  /// acquire and release keep separate phases so strict churn
  /// alternation cannot park one side on an unsampled parity.
  std::uint32_t op_tick = 0;
  std::uint32_t rel_tick = 0;
  loren::NameStash stash;
  /// This thread's lease heartbeat cell (null until the first op under a
  /// leasing service; heap-owned by the LeaseTable, outlives the thread).
  loren::lease::Heartbeat* hb = nullptr;
  /// Sampled reap-poll phase (ElasticRenamingService::kLeasePollMask).
  std::uint32_t lease_poll = 0;
};

struct ThreadCtx {
  std::uint64_t tslot;
  loren::Xoshiro256 rng;
  loren::PerServiceTable<PerElastic> services;

  ThreadCtx(std::uint64_t seed, std::uint64_t s)
      : tslot(s), rng(loren::mix_seed(seed, s)) {}

  /// Thread exit: flush every still-registered service's stash so names
  /// aren't stranded (renaming/service_directory.h). Mid-TLS-destruction,
  /// so the callbacks use only the payload's cached pointers.
  ~ThreadCtx() {
    services.for_each([](std::uint64_t id, PerElastic& p) {
      loren::ServiceDirectory::instance().flush(id, &p);
    });
  }
};

ThreadCtx& thread_ctx(std::uint64_t seed) {
  thread_local ThreadCtx ctx(seed, loren::dense_thread_slot());
  return ctx;
}

PerElastic& per_elastic(ThreadCtx& ctx, std::uint64_t service_id,
                        std::uint32_t stash_capacity) {
  return ctx.services.for_service(
      service_id, [&ctx, stash_capacity](PerElastic& p) {
        p.shard = static_cast<std::uint32_t>(ctx.tslot);
        p.stash.configure(stash_capacity);
      });
}

loren::BatchLayoutParams with_epsilon(loren::BatchLayoutParams p, double eps) {
  p.epsilon = eps;
  return p;
}

}  // namespace

namespace loren {

using sim::Name;

namespace {

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

/// encode_name's inverse: the release-path decode shared by release()
/// and release_many(), so the stamp geometry lives in exactly two
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
bool stamp_matches(const loren::ShardGroup& g, const DecodedName& d,
                   bool guard) {
  return !guard ||
         (g.generation() & ElasticRenamingService::kGenStampMask) == d.stamp;
}

}  // namespace

ElasticRenamingService::ElasticRenamingService(std::uint64_t initial_holders,
                                               ElasticOptions options)
    : options_(options),
      min_holders_(options.min_holders != 0 ? options.min_holders
                                            : initial_holders),
      id_(next_service_instance_id()),
      schedules_(with_epsilon(options.layout_extra, options.epsilon)) {
  if (initial_holders == 0) {
    throw std::invalid_argument("ElasticRenamingService: n must be >= 1");
  }
  if (min_holders_ > options_.max_holders) {
    throw std::invalid_argument(
        "ElasticRenamingService: min_holders > max_holders");
  }
  const std::uint64_t initial =
      std::clamp(initial_holders, min_holders_, options_.max_holders);

  // Resolve the telemetry surface once: attached registry = detailed mode
  // (per-op histograms live), internal fallback = event counters only.
  // Metric ids are interned here so the hot paths never touch a name.
  if (options_.telemetry.registry != nullptr) {
    ins_.registry = options_.telemetry.registry;
    ins_.detailed = true;
  } else {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    ins_.registry = owned_metrics_.get();
  }
  telemetry::MetricsRegistry& reg = *ins_.registry;
  ins_.grow_events = reg.counter("elastic.grow.events");
  ins_.shrink_events = reg.counter("elastic.shrink.events");
  ins_.reclaimed_groups = reg.counter("elastic.reclaim.groups");
  ins_.cache_hits = reg.counter("elastic.cache.hits");
  ins_.cache_misses = reg.counter("elastic.cache.misses");
  ins_.sweep_budget_exhausted = reg.counter("elastic.sweep.budget_exhausted");
  ins_.shard_migrations = reg.counter("elastic.shard.migrations");
  ins_.sweeps = reg.counter("elastic.sweep.invocations");
  ins_.stash_spills = reg.counter("elastic.stash.spills");
  ins_.stash_flushes = reg.counter("elastic.stash.flushes");
  ins_.epoch_advances = reg.counter("elastic.epoch.advances");
  ins_.acquire_ticks = reg.histogram("elastic.acquire.ticks");
  ins_.release_ticks = reg.histogram("elastic.release.ticks");
  ins_.probe_len = reg.histogram("elastic.acquire.probe_len");
  ins_.lost_races = reg.histogram("elastic.acquire.lost_races");
  ins_.ring_walk = reg.histogram("elastic.batch.ring_walk");
  ins_.quiesce_ticks = reg.histogram("elastic.reclaim.quiesce_ticks");

  if (options_.control.mode != control::ControlMode::kOff) {
    // The controller reads windowed deltas of the acquire-latency
    // histogram, which only fills in detailed mode — so enabling control
    // forces it even on the internal registry.
    ins_.detailed = true;
    static_assert(control::AdaptiveController::kStashFloor ==
                      NameStash::kMinCapacity,
                  "stash knob floor must match the stash's own minimum");
    control::AdaptiveController::KnobSeeds seeds;
    seeds.stash_cap = NameStash::kMaxCapacity;
    seeds.grow_miss_threshold = options_.grow_miss_threshold;
    seeds.shrink_low_threshold = options_.shrink_low_threshold;
    controller_ = std::make_unique<control::AdaptiveController>(
        options_.control, ins_.registry, ins_.acquire_ticks, seeds);
  }

  if (options_.lease.ttl_ticks != 0) {
    leases_ = std::make_unique<lease::LeaseTable>(options_.lease, ins_.registry);
    leases_->set_reclaimer(&ElasticRenamingService::reclaim_cell, this);
  }

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
  // Last: once registered, exiting threads may flush into us.
  ServiceDirectory::instance().register_service(
      id_, this, &ElasticRenamingService::directory_flush);
}

void ElasticRenamingService::cache_sync_gen(
    NameStash& st, EpochDomain::Slot& slot,
    telemetry::MetricsRegistry::ThreadStripe& stripe,
    const lease::Heartbeat* hb) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (st.gen() == gen) return;
  // A resize was published since the stash was filled: its contents are
  // names still *held* in what is now a retired (or at least older)
  // generation. Flush them through the shared tag-table path so that
  // generation can drain, then re-tag against the live group. (The tag
  // and generation are read separately; a resize racing between the two
  // loads only costs one extra flush on the next call — the stale pairing
  // fails this gen check again and self-heals.)
  if (!st.empty()) {
    Name buf[NameStash::kMaxCapacity];
    const std::uint32_t n = st.take_oldest(buf, st.size());
    release_shared(buf, n, slot, &stripe, hb);
  }
  st.set_gen(gen);
  st.set_expected_tag(live_tag_.load(std::memory_order_acquire));
}

void ElasticRenamingService::cache_note_acquire(
    NameStash& st, bool hit, EpochDomain::Slot& slot,
    telemetry::MetricsRegistry::ThreadStripe& stripe,
    const lease::Heartbeat* hb) {
  const NameStash::WindowStats ws = st.note_acquire(hit);
  if (ws.rolled) {
    stripe.add(ins_.cache_hits, ws.hits);
    stripe.add(ins_.cache_misses, ws.misses);
    if (controller_ != nullptr) st.clamp_capacity(controller_->stash_cap());
    if (st.excess() > 0) cache_spill(st, st.excess(), slot, stripe, hb);
  }
}

void ElasticRenamingService::cache_spill(
    NameStash& st, std::uint32_t k, EpochDomain::Slot& slot,
    telemetry::MetricsRegistry::ThreadStripe& stripe,
    const lease::Heartbeat* hb) {
  Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = st.take_oldest(buf, k);
  LOREN_SIM_POINT("stash.spill");
  LOREN_TRACE("stash.spill", n);
  stripe.add(ins_.stash_spills, n);
  release_shared(buf, n, slot, &stripe, hb);
}

std::uint64_t ElasticRenamingService::flush_thread_cache() {
  if (!options_.name_cache) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  PerElastic& per = per_elastic(ctx, id_, options_.name_cache_capacity);
  if (per.slot == nullptr) {
    per.slot = &domain_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  NameStash& st = per.stash;
  const NameStash::WindowStats ws = st.take_partial_window();
  if (ws.rolled) {
    per.stripe->add(ins_.cache_hits, ws.hits);
    per.stripe->add(ins_.cache_misses, ws.misses);
  }
  std::uint64_t freed = 0;
  if (!st.empty()) {
    Name buf[NameStash::kMaxCapacity];
    const std::uint32_t n = st.take_oldest(buf, st.size());
    LOREN_SIM_POINT("stash.flush");
    LOREN_TRACE("stash.flush", n);
    per.stripe->add(ins_.stash_flushes);
    freed = release_shared(buf, n, *per.slot, per.stripe, per.hb);
  }
  st.set_gen(generation_.load(std::memory_order_acquire));
  st.set_expected_tag(live_tag_.load(std::memory_order_acquire));
  // A flush often precedes a drain check; push reclamation forward now
  // rather than waiting for the sampled release-path cadence.
  if (freed > 0) maintenance();
  return freed;
}

std::uint32_t ElasticRenamingService::thread_cache_size() const {
  ThreadCtx& ctx = thread_ctx(options_.seed);
  return per_elastic(ctx, id_, options_.name_cache_capacity).stash.size();
}

std::uint32_t ElasticRenamingService::thread_cache_capacity() const {
  ThreadCtx& ctx = thread_ctx(options_.seed);
  return per_elastic(ctx, id_, options_.name_cache_capacity).stash.capacity();
}

ElasticRenamingService::~ElasticRenamingService() {
  // Unregister first: the directory holds its lock across in-flight exit
  // flushes, so after this returns no thread can touch the dying service.
  ServiceDirectory::instance().unregister_service(id_);
}

bool ElasticRenamingService::reclaim_cell(void* ctx, Name name) {
  // Caller (the reap driver) holds an epoch pin — the tag-table deref
  // below follows the same rules as release_shared's.
  auto* self = static_cast<ElasticRenamingService*>(ctx);
  if (name < 0) return false;
  const DecodedName d = decode_name(name, self->options_.debug_release_guard);
  ShardGroup* g = self->groups_[d.tag].load(std::memory_order_acquire);
  if (g == nullptr) return false;
  if (!stamp_matches(*g, d, self->options_.debug_release_guard)) return false;
  if (!g->release_local(d.local)) return false;
  g->note_released();
  return true;
}

void ElasticRenamingService::directory_flush(void* service, void* payload) {
  static_cast<ElasticRenamingService*>(service)->flush_thread_state(payload);
}

void ElasticRenamingService::flush_thread_state(void* payload) {
  auto& per = *static_cast<PerElastic*>(payload);
  NameStash& st = per.stash;
  if (st.empty()) return;
  // Mid-TLS-destruction: only cached pointers are legal. The epoch slot
  // registers without TLS (mutex + heap); the stripe does not
  // (MetricsRegistry::stripe() probes a thread_local table), so a thread
  // that never cached one flushes uninstrumented. release_shared routes
  // names from *any* generation through the tag table, so stale-gen
  // stash contents drain correctly here too.
  if (per.slot == nullptr) per.slot = &domain_.register_thread();
  if (per.stripe != nullptr) per.stripe->add(ins_.stash_flushes);
  Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = st.take_oldest(buf, st.size());
  release_shared(buf, n, *per.slot, per.stripe, per.hb);
}

void ElasticRenamingService::lease_heartbeat(
    lease::Heartbeat*& hb, std::uint32_t& poll, NameStash* st,
    EpochDomain::Slot& slot,
    telemetry::MetricsRegistry::ThreadStripe& stripe) {
  if (hb == nullptr) hb = &leases_->register_thread();
  const std::uint64_t now = leases_->now();
  // mo:relaxed-ok(single-writer heartbeat stamp; the reaper's max() with
  // the lease deadline makes a stale read expiry-delaying, never
  // expiry-causing — see lease/lease_table.h)
  const std::uint64_t prev = hb->last.load(std::memory_order_relaxed);
  // mo:relaxed-ok(same single-writer stamp contract)
  hb->last.store(now, std::memory_order_relaxed);
  if (prev != 0 && now - prev >= leases_->ttl() && st != nullptr &&
      !st->empty()) {
    // This thread went quiet for a full ttl: its stashed names may have
    // been reaped (and their cells reclaimed into their groups), so each
    // one must revalidate before it can be re-issued. Dropped entries
    // were already reclaimed — dropping is the only safe move.
    Name buf[NameStash::kMaxCapacity];
    const std::uint32_t n = st->take_oldest(buf, st->size());
    for (std::uint32_t i = 0; i < n; ++i) {
      if (leases_->validate(buf[i], hb)) st->push(buf[i]);
    }
  }
  if ((poll++ & kLeasePollMask) == 0) {
    std::size_t reclaimed;
    {
      // The reclaim callback dereferences the tag table: pin the epoch
      // around the whole pass, exactly like a release.
      EpochDomain::Guard guard(domain_, slot);
      reclaimed = leases_->try_reap(now, &stripe);
    }
    // Reclaimed cells went back through note_released(), so group live
    // counters are already right; just re-admit shed callers.
    if (reclaimed > 0 && controller_ != nullptr) controller_->note_release();
  }
}

Name ElasticRenamingService::renew_lease(Name name) {
  if (leases_ == nullptr) return name;
  if (name < 0) return kLeaseExpired;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  PerElastic& per = per_elastic(ctx, id_, options_.name_cache_capacity);
  if (per.slot == nullptr) {
    per.slot = &domain_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  lease_heartbeat(per.hb, per.lease_poll,
                  options_.name_cache ? &per.stash : nullptr, *per.slot,
                  *per.stripe);
  return leases_->renew(name, leases_->now(), per.hb, per.stripe) ? name
                                                          : kLeaseExpired;
}

std::size_t ElasticRenamingService::reap_expired() {
  if (leases_ == nullptr) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  PerElastic& per = per_elastic(ctx, id_, options_.name_cache_capacity);
  if (per.slot == nullptr) {
    per.slot = &domain_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  // Deliberately NO heartbeat stamp here: reap_expired is a maintenance
  // op (a dedicated reaper holds nothing; the post-crash drain must be
  // able to expire the *caller's own* abandoned names). Holders keep
  // their leases alive through regular ops or renew_lease().
  std::size_t reclaimed;
  {
    EpochDomain::Guard guard(domain_, *per.slot);
    reclaimed = leases_->reap(leases_->now(), per.stripe);
  }
  if (reclaimed > 0) {
    if (controller_ != nullptr) controller_->note_release();
    // Reaped names may have emptied a retired generation: push the
    // drain->unlink->free pipeline forward now.
    maintenance();
  }
  return reclaimed;
}

Name ElasticRenamingService::acquire() {
  ThreadCtx& ctx = thread_ctx(options_.seed);
  PerElastic& per = per_elastic(ctx, id_, options_.name_cache_capacity);
  if (per.slot == nullptr) {
    per.slot = &domain_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  if (leases_ != nullptr) {
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.slot,
                    *per.stripe);
  }
  // Detailed mode: every (mask+1)-th op is the observed sample — one
  // trace_ticks() pair plus probe/lost-race accumulation into a stack
  // struct, folded into the histograms as single stripe records at the
  // exits. Unobserved ops pay one counter increment and a predictable
  // branch (the <= 5% hot-path contract, docs/observability.md).
  const bool timed =
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  ShardGroup::ProbeStats stats;
  const auto finish = [&](Name name) {
    if (stats.migrations != 0) {
      per.stripe->add(ins_.shard_migrations, stats.migrations);
    }
    if (timed) {
      per.stripe->record(ins_.probe_len, stats.probes);
      if (stats.lost_races != 0) {
        per.stripe->record(ins_.lost_races, stats.lost_races);
      }
      per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
    }
    return name;
  };
  if (controller_ != nullptr) {
    controller_->note_ops(*per.stripe, 1, per.op_tick);
  }
  if (options_.name_cache) {
    NameStash& st = per.stash;
    cache_sync_gen(st, *per.slot, *per.stripe, per.hb);
    if (!st.empty()) {
      // The steady-state hot path: a pop from thread-owned memory — no
      // epoch pin, no probes, no counter traffic. The name's cell stayed
      // taken in its (still live: the generation matched) group.
      const Name name = static_cast<Name>(st.pop());
      cache_note_acquire(st, true, *per.slot, *per.stripe, per.hb);
      if (timed) {
        per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
      }
      return name;
    }
    cache_note_acquire(st, false, *per.slot, *per.stripe, per.hb);
  }
  // Admission gate: names already parked in this thread's stash (above)
  // still serve during shed — they are thread-owned — but the shared
  // namespace is closed until a release ends the failure streak.
  if (controller_ != nullptr && !controller_->admit(*per.stripe)) {
    return finish(kShed);
  }

  // Bounded by the doubling ladder: each failed round either resized the
  // service or returns -1, so the loop runs O(log2(max/min)) times worst
  // case; 40 covers the full default range with margin.
  for (int attempt = 0; attempt < 40; ++attempt) {
    std::uint64_t seen_gen;
    {
      EpochDomain::Guard guard(domain_, *per.slot);
      // Generation before group: if a resize lands between the two loads
      // we hold (old gen, new group) and a miss leads grow_from() to a
      // gen mismatch — a harmless retry. The other order would pair a
      // stale full group with the *current* gen and let one pressure
      // event double capacity twice.
      seen_gen = generation_.load(std::memory_order_acquire);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      const std::int64_t local = g->try_acquire(ctx.rng, &per.shard, stats);
      if (local >= 0) {
        g->note_acquired();
        // A schedule win ends any miss streak: pressure must be sustained
        // (uninterrupted misses) to trigger an automatic grow.
        if (miss_streak_.load(std::memory_order_relaxed) != 0) {
          miss_streak_.store(0, std::memory_order_relaxed);
        }
        const Name n = encode_name(*g, local, options_.debug_release_guard);
        if (leases_ != nullptr) {
          leases_->open(n, leases_->now(), per.hb, per.stripe);
        }
        return finish(n);
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
    const std::uint32_t swept_before = stats.sweep_shards;
    {
      EpochDomain::Guard guard(domain_, *per.slot);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      LOREN_SIM_POINT("elastic.sweep");
      LOREN_TRACE("elastic.sweep", seen_gen);
      // The sweep is already off the hot path, so its shard count is
      // always collected — `elastic.sweep.invocations` counts shards
      // swept in every mode (matching service.sweep.invocations).
      swept = g->sweep_acquire(&per.shard, options_.sweep_retry_budget,
                               stats);
      if (swept >= 0) {
        g->note_acquired();
        // A sweep win is still a successful acquisition: it must end the
        // miss streak like a schedule win does. Leaving the streak in
        // place let one later schedule miss cross grow_miss_threshold and
        // double capacity with no sustained pressure at all.
        if (miss_streak_.load(std::memory_order_relaxed) != 0) {
          miss_streak_.store(0, std::memory_order_relaxed);
        }
        per.stripe->add(ins_.sweeps, stats.sweep_shards - swept_before);
        const Name n = encode_name(*g, swept, options_.debug_release_guard);
        if (leases_ != nullptr) {
          leases_->open(n, leases_->now(), per.hb, per.stripe);
        }
        return finish(n);
      }
    }
    per.stripe->add(ins_.sweeps, stats.sweep_shards - swept_before);
    if (swept == ShardGroup::kSweepBudgetTruncated) {
      // Budget-truncated sweep: the walk gave up before covering every
      // shard, so this is *not* evidence the group is full. Report the
      // explicit exhaustion code without forcing a grow — feeding a
      // truncated scan into the grow path would reintroduce the
      // spurious-grow bug the miss-streak discipline exists to prevent.
      per.stripe->add(ins_.sweep_budget_exhausted);
      if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
      return finish(kSweepBudgetExhausted);
    }
    // True exhaustion: force a grow regardless of streak, or give up.
    if (!options_.auto_grow || !grow_from(seen_gen)) {
      if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
      return finish(kExhausted);
    }
  }
  if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
  return finish(kExhausted);
}

bool ElasticRenamingService::release(Name name) {
  if (name < 0) return false;
  const DecodedName d = decode_name(name, options_.debug_release_guard);

  ThreadCtx& ctx = thread_ctx(options_.seed);
  PerElastic& per = per_elastic(ctx, id_, options_.name_cache_capacity);
  if (per.slot == nullptr) {
    per.slot = &domain_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  if (leases_ != nullptr) {
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.slot,
                    *per.stripe);
  }
  const bool timed =
      ins_.detailed && ((per.rel_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  const auto finish = [&](bool ok) {
    if (timed) {
      per.stripe->record(ins_.release_ticks, telemetry::trace_ticks() - t0);
    }
    return ok;
  };
  if (options_.name_cache) {
    NameStash& st = per.stash;
    cache_sync_gen(st, *per.slot, *per.stripe, per.hb);
    // Only live-generation names are ever stashed: the 3-bit tag must
    // match the live group's (the stash-invalidation rule) and the local
    // index its bound. A name from a retired-but-draining generation
    // takes the shared path below, so retirees keep draining.
    if (d.tag == st.expected_tag() &&
        d.local < live_local_capacity_.load(std::memory_order_acquire)) {
      if (st.contains(name)) return finish(false);  // same-thread double release
      // Validate under a pin that the cell really is held before touching
      // anything (never-acquired or already-freed values must keep
      // failing, as on the shared path — and a failing release must have
      // no side effects, so the overflow spill waits until the name has
      // validated). No RMW and no counter update — the cell stays taken
      // and the group's live count stays up.
      bool held = false;
      {
        EpochDomain::Guard guard(domain_, *per.slot);
        ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
        LOREN_SIM_POINT("elastic.release.stamp");
        held = g != nullptr &&
               stamp_matches(*g, d, options_.debug_release_guard) &&
               g->is_held(d.local);
      }
      if (!held) return finish(false);
      // Stash absorb keeps the lease open (the cell stays taken): rebind
      // it to this thread's heartbeat so the reaper tracks the stash's
      // owner, not the original holder. A rebind miss means the reaper
      // already expired the lease and reclaimed the cell — absorbing now
      // would hand a recycled cell back as a stash hit.
      if (leases_ != nullptr &&
          !leases_->rebind(name, leases_->now(), per.hb) &&
          leases_->release_guard()) {
        return finish(false);
      }
      if (st.full()) {
        cache_spill(st, st.capacity() / 2 + 1, *per.slot, *per.stripe, per.hb);
      }
      st.push(name);
      if ((++per.sample & 63u) == 0) maintenance();
      return finish(true);
    }
  }
  {
    EpochDomain::Guard guard(domain_, *per.slot);
    ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
    if (g == nullptr) return finish(false);
    LOREN_SIM_POINT("elastic.release.stamp");
    if (!stamp_matches(*g, d, options_.debug_release_guard)) {
      return finish(false);
    }
    // Close-vs-reap is linearized by the lease shard lock: exactly one
    // side frees the cell. A lost close means the reaper already reclaimed
    // it — with the guard on the late release is rejected (kLeaseExpired
    // semantics), never silently double-freed under a revived holder.
    if (leases_ != nullptr && !leases_->close(name, per.hb, per.stripe) &&
        leases_->release_guard()) {
      return finish(false);
    }
    if (!g->release_local(d.local)) return finish(false);
    g->note_released();
  }
  // A real shared-namespace free (stash absorbs above keep the cell
  // taken): re-admit shed callers.
  if (controller_ != nullptr) controller_->note_release();
  // Sampled maintenance: drive reclamation (and auto-shrink) forward
  // without a background thread and without taxing every release.
  if ((++per.sample & 63u) == 0) maintenance();
  return finish(true);
}

std::uint64_t ElasticRenamingService::acquire_many(std::uint64_t k,
                                                   Name* out) {
  if (k == 0) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  PerElastic& per = per_elastic(ctx, id_, options_.name_cache_capacity);
  if (per.slot == nullptr) {
    per.slot = &domain_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  if (leases_ != nullptr) {
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.slot,
                    *per.stripe);
  }
  const bool timed =
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  ShardGroup::ProbeStats stats;
  const auto finish = [&](std::uint64_t n) {
    if (stats.migrations != 0) {
      per.stripe->add(ins_.shard_migrations, stats.migrations);
    }
    if (ins_.detailed) {
      per.stripe->record(ins_.ring_walk, stats.ring_shards);
      if (stats.probes != 0) per.stripe->record(ins_.probe_len, stats.probes);
      if (stats.lost_races != 0) {
        per.stripe->record(ins_.lost_races, stats.lost_races);
      }
    }
    if (stats.sweep_shards != 0) {
      per.stripe->add(ins_.sweeps, stats.sweep_shards);
    }
    if (timed) {
      per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
    }
    return n;
  };

  std::uint64_t got = 0;
  if (options_.name_cache) {
    NameStash& st = per.stash;
    cache_sync_gen(st, *per.slot, *per.stripe, per.hb);
    while (got < k && !st.empty()) {
      out[got++] = static_cast<Name>(st.pop());
      cache_note_acquire(st, true, *per.slot, *per.stripe, per.hb);
    }
    if (got == k) {
      if (controller_ != nullptr) {
        controller_->note_ops(*per.stripe, got, per.op_tick);
      }
      return finish(got);
    }
  }
  // Admission + batch clamp: the stash served what it could above; the
  // shared portion is gated (shed returns the partial batch) and bounded
  // by the controller's live batch knob — callers see a short fill and
  // come back, which is the whole adaptive-batching mechanism.
  std::uint64_t want = k;
  if (controller_ != nullptr) {
    if (!controller_->admit(*per.stripe)) {
      controller_->note_ops(*per.stripe, got, per.op_tick);
      return finish(got);
    }
    want = std::min<std::uint64_t>(k, got + controller_->batch_limit());
  }
  const std::uint64_t from_cache = got;
  // Each round runs against one generation under one epoch pin; a round
  // that leaves a shortfall grows the namespace and the next round claims
  // the remainder from the new generation, so the loop is bounded by the
  // doubling ladder exactly like acquire()'s.
  for (int attempt = 0; attempt < 40 && got < want; ++attempt) {
    std::uint64_t seen_gen = 0;
    std::uint64_t round = 0;
    bool budget_hit = false;
    {
      EpochDomain::Guard guard(domain_, *per.slot);
      // Generation before group, for the same reason as acquire().
      seen_gen = generation_.load(std::memory_order_acquire);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      round = g->try_acquire_many(ctx.rng, &per.shard, want - got, out + got,
                                  options_.sweep_retry_budget, &budget_hit,
                                  stats);
      if (round > 0) {
        // One live-counter add and one tag/stamp encode pass per
        // sub-batch — the whole point of batching. The lease clock is
        // read once per sub-batch too: every name in the round shares a
        // registration instant.
        g->note_acquired_n(static_cast<std::int64_t>(round));
        const std::uint64_t lnow = leases_ != nullptr ? leases_->now() : 0;
        for (std::uint64_t i = 0; i < round; ++i) {
          out[got + i] = encode_name(*g, out[got + i],
                                     options_.debug_release_guard);
          if (leases_ != nullptr) {
            leases_->open(out[got + i], lnow, per.hb, per.stripe);
          }
        }
        got += round;
      }
    }
    if (got == want) {
      // Any fully served batch ends the miss streak, sweep-served or not:
      // pressure must be *sustained* to trigger an automatic grow.
      if (miss_streak_.load(std::memory_order_relaxed) != 0) {
        miss_streak_.store(0, std::memory_order_relaxed);
      }
      break;
    }
    if (budget_hit) {
      // The shortfall came from a budget-truncated backstop sweep, not
      // from scanning every shard — no exhaustion evidence, so no miss
      // streak and no grow. Hand back the partial batch.
      per.stripe->add(ins_.sweep_budget_exhausted);
      if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
      break;
    }
    // Shortfall past try_acquire_many's sweep backstop: the live group
    // really had fewer than the remaining demand free. That is one
    // pressure event for the whole batch — not one per missing name — and,
    // like acquire()'s true-exhaustion path, grounds for growing now.
    // sim:exempt(streak bookkeeping; the claim RMWs carry the sim points)
    miss_streak_.fetch_add(1, std::memory_order_relaxed);
    if (!options_.auto_grow || !grow_from(seen_gen)) {
      if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
      break;
    }
  }
  if (options_.name_cache) {
    for (std::uint64_t i = from_cache; i < got; ++i) {
      cache_note_acquire(per.stash, false, *per.slot, *per.stripe, per.hb);
    }
  }
  if (controller_ != nullptr) {
    controller_->note_ops(*per.stripe, got, per.op_tick);
  }
  return finish(got);
}

std::uint64_t ElasticRenamingService::release_shared(
    const Name* names, std::uint64_t count, EpochDomain::Slot& slot,
    telemetry::MetricsRegistry::ThreadStripe* stripe,
    const lease::Heartbeat* hb) {
  std::uint64_t freed = 0;
  EpochDomain::Guard guard(domain_, slot);
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
    // Same close-vs-reap linearization as release(): a lease the reaper
    // already expired must not free the (since recycled) cell again.
    if (leases_ != nullptr && !leases_->close(name, hb, stripe) &&
        leases_->release_guard()) {
      continue;
    }
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
  if (freed > 0 && controller_ != nullptr) controller_->note_release();
  return freed;
}

std::uint64_t ElasticRenamingService::release_many(const Name* names,
                                                   std::uint64_t count) {
  if (count == 0) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  PerElastic& per = per_elastic(ctx, id_, options_.name_cache_capacity);
  if (per.slot == nullptr) {
    per.slot = &domain_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  if (leases_ != nullptr) {
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.slot,
                    *per.stripe);
  }
  std::uint64_t freed = 0;
  if (!options_.name_cache) {
    freed = release_shared(names, count, *per.slot, per.stripe, per.hb);
    if (freed > 0 && (++per.sample & 63u) == 0) maintenance();
    return freed;
  }
  NameStash& st = per.stash;
  cache_sync_gen(st, *per.slot, *per.stripe, per.hb);
  const std::uint32_t live_tag = st.expected_tag();
  const std::uint64_t local_cap =
      live_local_capacity_.load(std::memory_order_acquire);
  // Classify under one pin per chunk (a Guard must never nest on one
  // slot, so the shared remainder is released between pins): stashable
  // live-generation names are validated and parked, everything else —
  // stale-tag names, out-of-range values, stash overflow — is forwarded
  // to the shared path.
  Name shared_buf[NameStash::kMaxCapacity];
  std::uint64_t i = 0;
  while (i < count) {
    std::uint32_t n_shared = 0;
    {
      EpochDomain::Guard guard(domain_, *per.slot);
      for (; i < count && n_shared < NameStash::kMaxCapacity; ++i) {
        const Name name = names[i];
        if (name < 0) continue;
        const DecodedName d = decode_name(name, options_.debug_release_guard);
        if (st.contains(name)) continue;  // same-thread double release
        if (d.tag == live_tag && d.local < local_cap && !st.full()) {
          ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
          if (g == nullptr ||
              !stamp_matches(*g, d, options_.debug_release_guard) ||
              !g->is_held(d.local)) {
            continue;  // not currently held: reject as the shared path would
          }
          // Stash absorb: same rebind-or-reject rule as release().
          if (leases_ != nullptr &&
              !leases_->rebind(name, leases_->now(), per.hb) &&
              leases_->release_guard()) {
            continue;
          }
          st.push(name);
          ++freed;
          continue;
        }
        shared_buf[n_shared++] = name;
      }
    }
    if (n_shared > 0) {
      freed += release_shared(shared_buf, n_shared, *per.slot, per.stripe,
                              per.hb);
    }
  }
  // Same sampled maintenance cadence as release(): one batch counts once.
  if (freed > 0 && (++per.sample & 63u) == 0) maintenance();
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

  telemetry::MetricsRegistry::ThreadStripe& stripe = ins_.registry->stripe();
  stripe.add(ins_.epoch_advances);
  if (target > cur->holders()) {
    stripe.add(ins_.grow_events);
    LOREN_TRACE("elastic.grow", gen);
  } else {
    stripe.add(ins_.shrink_events);
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
  telemetry::MetricsRegistry::ThreadStripe& stripe = ins_.registry->stripe();
  for (auto it = linked_.begin(); it != linked_.end();) {
    ShardGroup* g = it->get();
    if (g->retired() && domain_.quiesced(g->retire_epoch()) &&
        g->live() <= 0) {
      groups_[g->tag()].store(nullptr, std::memory_order_release);
      const std::uint64_t e = domain_.advance();
      stripe.add(ins_.epoch_advances);
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
        stripe.record(ins_.quiesce_ticks,
                      telemetry::trace_ticks() - retired_at);
      }
      LOREN_TRACE("elastic.reclaim", it->group->tag());
      it = limbo_.erase(it);
      ++freed;
      stripe.add(ins_.reclaimed_groups);
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

}  // namespace loren
