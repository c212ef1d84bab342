#include "renaming/service.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "platform/sim_point.h"
#include "renaming/service_directory.h"
#include "renaming/thread_ctx.h"
#include "telemetry/trace.h"

namespace {

using loren::RegisteredCounter;

/// Everything the acquire/release hot path needs from the calling thread,
/// behind a single thread_local access: the dense thread slot (the
/// home-shard hash), the cached per-thread generator (the seed path
/// re-derived one from a shared ticket on *every* call), and a small
/// per-service state table — the sticky shard hint and this thread's
/// registered counter node. The slot/table machinery is shared with the
/// elastic service (renaming/thread_ctx.h).
///
/// The sticky hint is what keeps a loaded home shard from becoming a tax:
/// without it, a thread whose home shard has filled walks that shard's
/// probe schedule and fails it on *every* acquisition before stealing.
/// The walk's full-word memo caps that miss at one probe per window word
/// (eight at the 512-cell auto-shard cap) instead of t_0 ~
/// 17 ln(8e/eps)/eps probes on B_0 alone, but it is still a miss on
/// every acquire. The hint moves as soon as wins start arriving late in
/// the schedule (the shard is running hot) or the schedule misses
/// outright, so steady-state work goes straight to a shard with free
/// cells; after a reset the hint is merely stale, never wrong, because
/// any shard can serve any thread.
struct PerService {
  std::uint32_t shard = 0;
  RegisteredCounter::Node* counter = nullptr;
  /// This thread's stripe of the service's metrics registry, resolved
  /// alongside the counter node so a record is one cached-pointer deref
  /// plus a relaxed add (telemetry/metrics.h).
  loren::telemetry::MetricsRegistry::ThreadStripe* stripe = nullptr;
  /// Detailed-mode sampling phases (every (mask+1)-th op observed).
  /// Acquire and release keep separate phases: churn loops alternate the
  /// two ops strictly, so a shared counter would park one side on a
  /// parity the mask never selects.
  std::uint32_t op_tick = 0;
  std::uint32_t rel_tick = 0;
  /// The thread-local name cache (renaming/thread_ctx.h): released names
  /// parked here are re-issued to this thread with no shared-memory
  /// traffic at all. Tagged with the service's reset generation.
  loren::NameStash stash;
  /// This thread's lease heartbeat cell (null until the first op under a
  /// leasing service; heap-owned by the LeaseTable, outlives the thread).
  loren::lease::Heartbeat* hb = nullptr;
  /// Sampled reap-poll phase (see RenamingService::kLeasePollMask).
  std::uint32_t lease_poll = 0;
};

struct ThreadCtx {
  std::uint64_t slot;
  loren::Xoshiro256 rng;
  loren::PerServiceTable<PerService> services;

  explicit ThreadCtx(std::uint64_t seed, std::uint64_t slot_)
      : slot(slot_), rng(loren::mix_seed(seed, slot_)) {}

  /// Thread exit: hand every still-registered service its per-thread
  /// state so stashed names are flushed, not stranded (the thread-exit
  /// leak fix — see renaming/service_directory.h). Runs during TLS
  /// destruction; the directory callback works only off the payload's
  /// cached pointers.
  ~ThreadCtx() {
    services.for_each([](std::uint64_t id, PerService& p) {
      loren::ServiceDirectory::instance().flush(id, &p);
    });
  }

  PerService& for_service(std::uint64_t service_id, std::uint64_t home,
                          std::uint32_t stash_capacity) {
    return services.for_service(service_id, [home, stash_capacity](PerService& p) {
      p.shard = static_cast<std::uint32_t>(home);
      p.stash.configure(stash_capacity);
    });
  }
};

/// The rng seed is fixed by the first service a thread touches; streams
/// stay independent across threads either way, which is all the analysis
/// needs.
ThreadCtx& thread_ctx(std::uint64_t seed) {
  thread_local ThreadCtx ctx(seed, loren::dense_thread_slot());
  return ctx;
}

/// Validates the holder count and folds epsilon into the layout params —
/// before the shard group is built from them.
loren::RenamingServiceOptions resolved(std::uint64_t n,
                                       loren::RenamingServiceOptions options) {
  if (n == 0) throw std::invalid_argument("RenamingService: n must be >= 1");
  options.layout_extra.epsilon = options.epsilon;
  return options;
}

/// The fixed service's one never-resizing group: every shard laid out for
/// ceil(n/S) holders under one shared schedule.
loren::ShardGroup fixed_group(std::uint64_t n,
                              const loren::RenamingServiceOptions& options) {
  const std::uint64_t shards =
      loren::shard_count_for(n, options.shards, options.layout_extra);
  return loren::ShardGroup(
      /*tag=*/0, /*generation=*/1, n, shards,
      std::make_shared<const loren::CachedSchedule>((n + shards - 1) / shards,
                                                    options.layout_extra));
}

}  // namespace

namespace loren {

using sim::Name;

RenamingService::RenamingService(std::uint64_t n,
                                 RenamingServiceOptions options)
    : options_(resolved(n, options)),
      id_(next_service_instance_id()),
      group_(fixed_group(n, options_)) {
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
  ins_.cache_hits = reg.counter("service.cache.hits");
  ins_.cache_misses = reg.counter("service.cache.misses");
  ins_.sweep_budget_exhausted = reg.counter("service.sweep.budget_exhausted");
  ins_.shard_migrations = reg.counter("service.shard.migrations");
  ins_.sweeps = reg.counter("service.sweep.invocations");
  ins_.stash_spills = reg.counter("service.stash.spills");
  ins_.stash_flushes = reg.counter("service.stash.flushes");
  ins_.acquire_ticks = reg.histogram("service.acquire.ticks");
  ins_.release_ticks = reg.histogram("service.release.ticks");
  ins_.probe_len = reg.histogram("service.acquire.probe_len");
  ins_.lost_races = reg.histogram("service.acquire.lost_races");
  ins_.ring_walk = reg.histogram("service.batch.ring_walk");

  if (options_.control.mode != control::ControlMode::kOff) {
    // The controller is fed from the per-op latency histograms, so
    // enabling control implies detailed sampling even on the internal
    // registry (the sampled 1-in-256 cadence keeps the hot-path cost
    // inside the telemetry overhead contract either way).
    ins_.detailed = true;
    static_assert(control::AdaptiveController::kStashFloor ==
                  NameStash::kMinCapacity);
    control::AdaptiveController::KnobSeeds seeds;
    seeds.stash_cap = NameStash::kMaxCapacity;
    controller_ = std::make_unique<control::AdaptiveController>(
        options_.control, ins_.registry, ins_.acquire_ticks, seeds);
  }

  if (options_.lease.ttl_ticks != 0) {
    leases_ = std::make_unique<lease::LeaseTable>(options_.lease, ins_.registry);
    leases_->set_reclaimer(&RenamingService::reclaim_cell, this);
  }
  // Last: once registered, exiting threads may flush into us, so every
  // member above must already be live.
  ServiceDirectory::instance().register_service(
      id_, this, &RenamingService::directory_flush);
}

RenamingService::~RenamingService() {
  // Unregister first: the directory holds its lock across in-flight exit
  // flushes, so after this returns no thread can touch the dying service.
  ServiceDirectory::instance().unregister_service(id_);
}

bool RenamingService::reclaim_cell(void* ctx, Name name) {
  auto* self = static_cast<RenamingService*>(ctx);
  return name >= 0 &&
         self->group_.release_local(static_cast<std::uint64_t>(name));
}

void RenamingService::directory_flush(void* service, void* payload) {
  static_cast<RenamingService*>(service)->flush_thread_state(payload);
}

void RenamingService::flush_thread_state(void* payload) {
  auto& per = *static_cast<PerService*>(payload);
  NameStash& st = per.stash;
  // A stash stranded across a reset() holds dead values — the epoch bump
  // already freed those cells; discard, don't double-free.
  // mo:relaxed-ok(invalidation stamp compare; see cache_gen_'s contract)
  if (st.gen() != cache_gen_.load(std::memory_order_relaxed)) {
    st.clear();
    return;
  }
  if (st.empty()) return;
  // Mid-TLS-destruction: only the payload's cached pointers are legal.
  // The counter node is heap-owned and registrable without TLS; the
  // stripe is not (MetricsRegistry::stripe() probes a thread_local
  // table), so a thread that never cached one flushes uninstrumented.
  if (per.counter == nullptr) per.counter = &live_.register_thread();
  if (per.stripe != nullptr) per.stripe->add(ins_.stash_flushes);
  Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = st.take_oldest(buf, st.size());
  release_shared(buf, n, *per.counter, per.stripe, per.hb);
}

void RenamingService::lease_heartbeat(
    lease::Heartbeat*& hb, std::uint32_t& poll, NameStash* st,
    RegisteredCounter::Node& counter,
    telemetry::MetricsRegistry::ThreadStripe& stripe) {
  if (hb == nullptr) hb = &leases_->register_thread();
  const std::uint64_t now = leases_->now();
  // mo:relaxed-ok(single-writer heartbeat stamp; the reaper's max() with
  // the lease deadline makes a stale read expiry-delaying, never
  // expiry-causing — see lease/lease_table.h)
  const std::uint64_t prev = hb->last.load(std::memory_order_relaxed);
  // mo:relaxed-ok(same single-writer stamp contract)
  hb->last.store(now, std::memory_order_relaxed);
  if (prev != 0 && now - prev >= leases_->ttl() && st != nullptr) {
    // This thread went quiet for a full ttl: its leases may have been
    // reaped, so every stashed name must be revalidated before it can be
    // re-issued. A name whose lease is gone was already reclaimed into
    // the arena — dropping the stash entry is the correct (and only
    // safe) move.
    cache_sync_gen(*st);
    if (!st->empty()) {
      Name buf[NameStash::kMaxCapacity];
      const std::uint32_t n = st->take_oldest(buf, st->size());
      for (std::uint32_t i = 0; i < n; ++i) {
        if (leases_->validate(buf[i], hb)) st->push(buf[i]);
      }
    }
  }
  if ((poll++ & kLeasePollMask) == 0) {
    const std::size_t reclaimed = leases_->try_reap(now, &stripe);
    if (reclaimed > 0) {
      RegisteredCounter::add(counter, -static_cast<std::int64_t>(reclaimed));
      if (controller_ != nullptr) controller_->note_release();
    }
  }
}

Name RenamingService::renew_lease(Name name) {
  if (leases_ == nullptr) return name;
  if (name < 0 || static_cast<std::uint64_t>(name) >= capacity()) {
    return kLeaseExpired;
  }
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  if (per.counter == nullptr) {
    per.counter = &live_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  lease_heartbeat(per.hb, per.lease_poll,
                  options_.name_cache ? &per.stash : nullptr, *per.counter,
                  *per.stripe);
  return leases_->renew(name, leases_->now(), per.hb, per.stripe) ? name
                                                          : kLeaseExpired;
}

std::size_t RenamingService::reap_expired() {
  if (leases_ == nullptr) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  if (per.counter == nullptr) {
    per.counter = &live_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  // Deliberately NO heartbeat stamp here: reap_expired is a maintenance
  // op (a dedicated reaper holds nothing; the post-crash drain must be
  // able to expire the *caller's own* abandoned names). Holders keep
  // their leases alive through regular ops or renew_lease().
  const std::size_t reclaimed = leases_->reap(leases_->now(), per.stripe);
  if (reclaimed > 0) {
    RegisteredCounter::add(*per.counter,
                           -static_cast<std::int64_t>(reclaimed));
    if (controller_ != nullptr) controller_->note_release();
  }
  return reclaimed;
}

void RenamingService::cache_sync_gen(NameStash& st) const {
  const std::uint64_t gen = cache_gen_.load(std::memory_order_relaxed);
  if (st.gen() != gen) {
    // reset() ran since the stash was filled: the epoch bump already made
    // every stashed cell winnable again, so the values are simply stale.
    st.clear();
    st.set_gen(gen);
  }
}

void RenamingService::cache_note_acquire(
    NameStash& st, bool hit, RegisteredCounter::Node& counter,
    telemetry::MetricsRegistry::ThreadStripe& stripe,
    const lease::Heartbeat* hb) {
  const NameStash::WindowStats ws = st.note_acquire(hit);
  if (ws.rolled) {
    stripe.add(ins_.cache_hits, ws.hits);
    stripe.add(ins_.cache_misses, ws.misses);
    // The controller's capacity bound is re-applied at every adaptation
    // rollup, so the stash's own doubling can never outrun it for more
    // than one window; the excess spill below drains what the clamp cut.
    if (controller_ != nullptr) st.clamp_capacity(controller_->stash_cap());
    if (st.excess() > 0) cache_spill(st, st.excess(), counter, stripe, hb);
  }
}

void RenamingService::cache_spill(
    NameStash& st, std::uint32_t k, RegisteredCounter::Node& counter,
    telemetry::MetricsRegistry::ThreadStripe& stripe,
    const lease::Heartbeat* hb) {
  Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = st.take_oldest(buf, k);
  // Names leave the (thread-private) stash and hit shared cells/counter.
  LOREN_SIM_POINT("stash.spill");
  LOREN_TRACE("stash.spill", n);
  stripe.add(ins_.stash_spills, n);
  release_shared(buf, n, counter, &stripe, hb);
}

void RenamingService::note_walk(
    const ShardGroup::ProbeStats& stats, [[maybe_unused]] std::uint32_t shard,
    telemetry::MetricsRegistry::ThreadStripe& stripe) {
  if (stats.migrations != 0) {
    stripe.add(ins_.shard_migrations, stats.migrations);
    LOREN_TRACE("service.migrate", shard);
  }
  if (stats.sweep_shards != 0) {
    stripe.add(ins_.sweeps, stats.sweep_shards);
    LOREN_TRACE("service.sweep", stats.sweep_shards);
  }
}

Name RenamingService::acquire() {
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  if (per.counter == nullptr) {
    per.counter = &live_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  if (leases_ != nullptr) {
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.counter,
                    *per.stripe);
  }
  // Detailed mode: every (mask+1)-th op is the observed sample — one
  // rdtsc pair plus probe/lost-race accumulation into stack locals,
  // recorded as single stripe adds at the exits, never an RMW on shared
  // state. The unobserved ops pay one counter increment and a
  // predictable branch, which is what keeps detailed mode inside the
  // <= 5% hot-path overhead contract (docs/observability.md).
  const bool timed =
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  const auto finish = [&](Name name) {
    if (timed) {
      per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
    }
    return name;
  };
  if (controller_ != nullptr) {
    controller_->note_ops(*per.stripe, 1, per.op_tick);
  }
  if (options_.name_cache) {
    NameStash& st = per.stash;
    cache_sync_gen(st);
    if (!st.empty()) {
      // The whole hot path: a pop from thread-owned memory. The name's
      // cell stayed taken and the live counter never moved, so no shared
      // state needs touching at all.
      const Name name = static_cast<Name>(st.pop());
      cache_note_acquire(st, true, *per.counter, *per.stripe, per.hb);
      return finish(name);
    }
    cache_note_acquire(st, false, *per.counter, *per.stripe, per.hb);
  }
  // Admission control gates the *shared* namespace only: a stash hit
  // above still serves (it touches no shared state), but a shedding
  // controller fails the call here before any probe or sweep.
  if (controller_ != nullptr && !controller_->admit(*per.stripe)) {
    return finish(kShed);
  }
  // The sticky shard first; on pressure (late win) migrate to a random
  // shard, on a full miss steal ringward, so loaded shards shed to
  // neighbours. If every schedule misses (probability 1/n^(beta-o(1)) per
  // shard unless the namespace really is near-exhausted), the
  // deterministic sweep backstops, so acquire() fails only when zero cells
  // are free — or fails fast with kSweepBudgetExhausted once the bounded
  // retry budget (if configured) is spent.
  ShardGroup::ProbeStats stats;
  std::int64_t local = group_.try_acquire(ctx.rng, &per.shard, stats);
  if (local < 0) {
    local =
        group_.sweep_acquire(&per.shard, options_.sweep_retry_budget, stats);
  }
  note_walk(stats, per.shard, *per.stripe);
  if (timed) {
    per.stripe->record(ins_.probe_len, stats.probes);
    if (stats.lost_races != 0) {
      per.stripe->record(ins_.lost_races, stats.lost_races);
    }
  }
  if (local >= 0) {
    const Name name = static_cast<Name>(local);
    RegisteredCounter::add(*per.counter, 1);
    if (leases_ != nullptr) {
      leases_->open(name, leases_->now(), per.hb, per.stripe);
    }
    return finish(name);
  }
  if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
  if (local == ShardGroup::kSweepBudgetTruncated) {
    per.stripe->add(ins_.sweep_budget_exhausted);
    return finish(kSweepBudgetExhausted);
  }
  return finish(kExhausted);
}

std::uint64_t RenamingService::acquire_many(std::uint64_t k, Name* out) {
  if (k == 0) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  if (per.counter == nullptr) {
    per.counter = &live_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  if (leases_ != nullptr) {
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.counter,
                    *per.stripe);
  }
  const bool timed =
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  std::uint64_t got = 0;
  if (options_.name_cache) {
    NameStash& st = per.stash;
    cache_sync_gen(st);
    while (got < k && !st.empty()) {
      out[got++] = static_cast<Name>(st.pop());
      cache_note_acquire(st, true, *per.counter, *per.stripe, per.hb);
    }
    if (got == k) {
      if (controller_ != nullptr) {
        controller_->note_ops(*per.stripe, got, per.op_tick);
      }
      if (timed) {
        per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
      }
      return got;
    }
  }
  std::uint64_t want = k - got;
  if (controller_ != nullptr) {
    if (!controller_->admit(*per.stripe)) {
      // Shedding: hand back whatever the stash served, touch nothing
      // shared. The partial batch is the admission-control contract, not
      // an exhaustion signal.
      controller_->note_ops(*per.stripe, got, per.op_tick);
      if (timed) {
        per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
      }
      return got;
    }
    // The batch knob: one call claims at most batch_limit() names from
    // the shared namespace, whatever was asked.
    want = std::min<std::uint64_t>(want, controller_->batch_limit());
  }
  // The seed-and-run-claim ring walk: a shortfall past its sweep
  // backstop means fewer than k cells were free across the whole
  // namespace when scanned — unless the bounded sweep budget truncated
  // the scan, which is counted, not conflated.
  bool budget_hit = false;
  ShardGroup::ProbeStats stats;
  const std::uint64_t shared_got = group_.try_acquire_many(
      ctx.rng, &per.shard, want, out + got, options_.sweep_retry_budget,
      &budget_hit, stats);
  if (budget_hit) {
    per.stripe->add(ins_.sweep_budget_exhausted);
  }
  if (controller_ != nullptr) {
    // A clamped request coming back short is still a failed shared
    // acquisition from the controller's seat — the walk scanned and
    // found less than it wanted.
    if (budget_hit || shared_got < want) {
      controller_->note_saturation(*per.stripe);
    }
    controller_->note_ops(*per.stripe, got + shared_got, per.op_tick);
  }
  note_walk(stats, per.shard, *per.stripe);
  if (ins_.detailed) {
    per.stripe->record(ins_.ring_walk, stats.ring_shards);
    if (stats.probes != 0) per.stripe->record(ins_.probe_len, stats.probes);
    if (stats.lost_races != 0) {
      per.stripe->record(ins_.lost_races, stats.lost_races);
    }
  }
  if (shared_got > 0) {
    RegisteredCounter::add(*per.counter, static_cast<std::int64_t>(shared_got));
    if (leases_ != nullptr) {
      const std::uint64_t lnow = leases_->now();
      for (std::uint64_t i = 0; i < shared_got; ++i) {
        leases_->open(out[got + i], lnow, per.hb, per.stripe);
      }
    }
  }
  if (options_.name_cache) {
    for (std::uint64_t i = 0; i < shared_got; ++i) {
      cache_note_acquire(per.stash, false, *per.counter, *per.stripe, per.hb);
    }
  }
  if (timed) {
    per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
  }
  return got + shared_got;
}

std::uint64_t RenamingService::release_shared(
    const Name* names, std::uint64_t count, RegisteredCounter::Node& counter,
    telemetry::MetricsRegistry::ThreadStripe* stripe,
    const lease::Heartbeat* hb) {
  std::uint64_t freed = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Name name = names[i];
    if (name < 0 || static_cast<std::uint64_t>(name) >= capacity()) continue;
    if (leases_ != nullptr && !leases_->close(name, hb, stripe) &&
        leases_->release_guard()) {
      // The reaper won the close: the cell was already reclaimed (and
      // possibly reissued to someone else) — a late release must be
      // rejected here, never applied. The guard trip is counted.
      continue;
    }
    if (group_.release_local(static_cast<std::uint64_t>(name))) ++freed;
  }
  if (freed > 0) {
    RegisteredCounter::add(counter, -static_cast<std::int64_t>(freed));
    // Shared capacity really freed (stash absorbs don't count — their
    // cells stay taken): end any admission-control saturation episode.
    if (controller_ != nullptr) controller_->note_release();
  }
  return freed;
}

std::uint64_t RenamingService::release_many(const Name* names,
                                            std::uint64_t count) {
  if (count == 0) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  if (per.counter == nullptr) {
    per.counter = &live_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  if (leases_ != nullptr) {
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.counter,
                    *per.stripe);
  }
  if (!options_.name_cache) {
    return release_shared(names, count, *per.counter, per.stripe, per.hb);
  }
  NameStash& st = per.stash;
  cache_sync_gen(st);
  std::uint64_t freed = 0;
  // Names the stash cannot absorb are forwarded to the shared path in
  // chunks, so an arbitrarily long batch still does O(count / chunk)
  // counter adds.
  Name shared_buf[NameStash::kMaxCapacity];
  std::uint32_t n_shared = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Name name = names[i];
    if (name < 0 || static_cast<std::uint64_t>(name) >= capacity()) continue;
    if (st.contains(name)) continue;  // same-thread double release
    if (!st.full()) {
      if (!group_.is_held(static_cast<std::uint64_t>(name))) continue;
      // Absorbing a name re-homes its lease onto this thread's heartbeat
      // (the original holder may exit; the stash must keep it alive). A
      // rebind the reaper already beat means the cell isn't ours to park.
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
    if (n_shared == NameStash::kMaxCapacity) {
      freed += release_shared(shared_buf, n_shared, *per.counter, per.stripe,
                              per.hb);
      n_shared = 0;
    }
  }
  if (n_shared > 0) {
    freed += release_shared(shared_buf, n_shared, *per.counter, per.stripe,
                              per.hb);
  }
  return freed;
}

bool RenamingService::release(Name name) {
  if (name < 0 || static_cast<std::uint64_t>(name) >= capacity()) return false;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  if (leases_ != nullptr) {
    if (per.counter == nullptr) {
      per.counter = &live_.register_thread();
      per.stripe = &ins_.registry->stripe();
    }
    lease_heartbeat(per.hb, per.lease_poll,
                    options_.name_cache ? &per.stash : nullptr, *per.counter,
                    *per.stripe);
  }
  const bool timed =
      ins_.detailed && ((per.rel_tick++ & kLatencySampleMask) == 0);
  if (timed && per.stripe == nullptr) per.stripe = &ins_.registry->stripe();
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  const auto finish = [&](bool ok) {
    if (timed) {
      per.stripe->record(ins_.release_ticks, telemetry::trace_ticks() - t0);
    }
    return ok;
  };
  if (options_.name_cache) {
    NameStash& st = per.stash;
    cache_sync_gen(st);
    if (st.contains(name)) return finish(false);  // same-thread double release
    // The cell must actually be taken for the release to be legitimate; a
    // plain load suffices (the cell stays taken while stashed), and for a
    // conforming caller the line is still in this core's cache from the
    // acquisition. Contract-violating races (two threads releasing one
    // held name) are undetectable without the RMW — see release()'s
    // contract in service.h.
    if (!group_.is_held(static_cast<std::uint64_t>(name))) {
      return finish(false);
    }
    // Absorbing re-homes the lease onto this thread (see release_many).
    if (leases_ != nullptr &&
        !leases_->rebind(name, leases_->now(), per.hb) &&
        leases_->release_guard()) {
      return finish(false);
    }
    if (st.full()) {
      if (per.counter == nullptr) {
        per.counter = &live_.register_thread();
        per.stripe = &ins_.registry->stripe();
      }
      cache_spill(st, st.capacity() / 2 + 1, *per.counter, *per.stripe, per.hb);
    }
    st.push(name);
    return finish(true);
  }
  if (leases_ != nullptr && !leases_->close(name, per.hb, per.stripe) &&
      leases_->release_guard()) {
    // The reaper won: the cell was reclaimed (and possibly reissued) —
    // reject the late release rather than free someone else's cell.
    return finish(false);
  }
  if (!group_.release_local(static_cast<std::uint64_t>(name))) {
    return finish(false);
  }
  if (per.counter == nullptr) {
    per.counter = &live_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  RegisteredCounter::add(*per.counter, -1);
  if (controller_ != nullptr) controller_->note_release();
  return finish(true);
}

std::uint64_t RenamingService::flush_thread_cache() {
  if (!options_.name_cache) return 0;
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  NameStash& st = per.stash;
  cache_sync_gen(st);
  if (per.stripe == nullptr) per.stripe = &ins_.registry->stripe();
  const NameStash::WindowStats ws = st.take_partial_window();
  if (ws.rolled) {
    per.stripe->add(ins_.cache_hits, ws.hits);
    per.stripe->add(ins_.cache_misses, ws.misses);
  }
  if (st.empty()) return 0;
  if (per.counter == nullptr) per.counter = &live_.register_thread();
  Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = st.take_oldest(buf, st.size());
  LOREN_SIM_POINT("stash.flush");
  LOREN_TRACE("stash.flush", n);
  per.stripe->add(ins_.stash_flushes);
  return release_shared(buf, n, *per.counter, per.stripe, per.hb);
}

std::uint32_t RenamingService::thread_cache_size() const {
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  cache_sync_gen(per.stash);
  return per.stash.size();
}

std::uint32_t RenamingService::thread_cache_capacity() const {
  ThreadCtx& ctx = thread_ctx(options_.seed);
  auto& per = ctx.for_service(id_, ctx.slot & (group_.shards() - 1),
                              options_.name_cache_capacity);
  return per.stash.capacity();
}

void RenamingService::reset() {
  group_.reset();
  live_.reset();
  // Drop every lease without reclaiming — the epoch bump above already
  // freed every cell, so reclaim callbacks would double-free.
  if (leases_ != nullptr) leases_->clear();
  // Invalidate every thread's stash: contents are discarded (not spilled)
  // on the owning thread's next call, because the epoch bump above
  // already made the stashed cells winnable again.
  // sim:exempt(reset() requires external quiescence; nothing races it)
  cache_gen_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t RenamingService::home_shard() const {
  return thread_ctx(options_.seed).slot & (group_.shards() - 1);
}

}  // namespace loren
