// ServiceCore: the one op pipeline under both long-lived renaming services.
//
// RenamingService (renaming/service.h) and ElasticRenamingService
// (elastic/elastic_service.h) offer one contract, the long-lived renaming
// of the paper's setting (cf. Aspnes's notes): acquire a name in
// log log n + O(1) probes, release it, reacquire it. They differ only in
// the namespace under the ops — one never-resizing ShardGroup, or a
// generation swap of them. Everything around the namespace lives here,
// once:
//
//   * the per-thread context behind one thread_local access: dense slot,
//     cached generator, and per (thread, service) the sticky shard hint,
//     the registry stripe, the sampling phases, the lease heartbeat and
//     the name stash;
//   * the thread-local name stash: generation sync, hit/miss accounting,
//     overflow spill, flush_thread_cache() and the thread-exit flush
//     (renaming/service_directory.h);
//   * the lease prologue (heartbeat stamp, stale-gap stash revalidation,
//     sampled reap poll), renew_lease() and reap_expired();
//   * admission control and the batch clamp (control/);
//   * the sampled latency/probe histograms and the event counters, and
//     the construction of the registry, controller and lease table.
//
// The namespace is a compile-time policy. Each service derives from
// ServiceCore<itself> (CRTP) and supplies these hooks as private members,
// befriending the core; every hook is a direct, inlinable call, so no
// virtual call or std::function sits on an op path:
//
//   ThreadNode, register_node(), retire_node(), node_count()
//                                per-thread registration: a live-counter
//                                node (fixed) or an epoch slot (elastic),
//                                retired at thread exit for reuse
//   ThreadExtra, retag_stash()   policy per-thread state, re-pinned when
//                                the stash moves to a new generation
//   kMetricPrefix                "service" / "elastic"
//   kStaleStashHeld, stash_generation()
//                                the stale-stash rule: a stash filled under
//                                an older generation is discarded (fixed:
//                                reset() already freed its cells) or
//                                flushed through the shared release
//                                (elastic: its names are still held in a
//                                retired group, which must drain)
//   plausible(name)              the cheap range check before any work
//   stashable(), pin(), is_held()
//                                which released names the stash may
//                                absorb, and the cell-held check (under
//                                pin()) that validates them first
//   claim_one(), claim_many()    the shared claim, live accounting
//                                included; the elastic one grows and
//                                retries
//   release_batch()              the shared release of a batch
//   after_reap(), released()     live accounting for reaped cells; the
//                                post-release hook (elastic: maintenance)
//   reclaim_cell()               the lease table's reclaim callback
//
// The op bodies are defined below the class; each service's .cpp
// instantiates them explicitly, next to its hooks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "control/adaptive_controller.h"
#include "lease/lease_table.h"
#include "platform/rng.h"
#include "platform/sim_point.h"
#include "renaming/acquire_result.h"
#include "renaming/batch_layout.h"
#include "renaming/service_directory.h"
#include "renaming/shard_group.h"
#include "renaming/thread_ctx.h"
#include "sim/env.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace loren {

/// The options both services share. RenamingServiceOptions and
/// ElasticOptions derive from it; each sets its own default seed.
struct ServiceOptions {
  double epsilon = 0.5;
  /// Shards per group, rounded up to a power of two. 0 = auto: enough
  /// shards that (a) hardware threads get distinct home shards and (b) a
  /// shard has at most kMaxShardCells cells, clamped so every shard still
  /// serves >= 64 holders (shard_count_for; the elastic service applies
  /// it per generation, so a small generation gets few shards).
  std::uint64_t shards = 0;
  /// Seeds the per-thread generators (mixed with the dense thread slot).
  std::uint64_t seed = 0;
  BatchLayoutParams layout_extra{};
  /// Thread-local name cache: each thread keeps a bounded stash of names
  /// it released against this service, so a steady-state churn thread
  /// re-acquires its own names with zero probes, zero counter traffic and
  /// no shared RMW. A stashed name's cell stays taken and stays counted
  /// by names_live() until the stash spills or is flushed. A stash is
  /// tagged with the service's generation and synced on its owner's next
  /// call: the fixed service discards it after reset(); the elastic one
  /// flushes it through the tag table after a resize, so retired
  /// generations still drain (a *parked* thread's stash delays that until
  /// it calls again or flush_thread_cache()s). See docs/protocols.md,
  /// "The thread-local name cache". Disable for the tightest exhaustion
  /// semantics (-1 then means *zero* cells free, with no residue parked
  /// in other threads' stashes).
  bool name_cache = true;
  /// Initial per-thread stash capacity; per-thread hit-rate adaptation
  /// moves it within [NameStash::kMinCapacity, NameStash::kMaxCapacity].
  std::uint32_t name_cache_capacity = 16;
  /// Bounded retry budget for the deterministic sweep backstop: the most
  /// shards one acquire()/acquire_many() may sweep after every probe
  /// schedule missed. 0 = unbounded (the full walk). An acquisition that
  /// spends it fails fast with kSweepBudgetExhausted (-2), counted in
  /// sweep_budget_exhausted(). A truncated scan is deliberately NOT
  /// exhaustion evidence: it neither feeds the elastic miss streak nor
  /// triggers a grow.
  std::uint32_t sweep_retry_budget = 0;
  /// Observability (telemetry/metrics.h). Attaching a registry switches
  /// the service into *detailed* mode: the per-op histograms (acquire/
  /// release latency, probe lengths, lost races, batch ring-walk lengths)
  /// record alongside the always-on event counters. Left null, the
  /// service counts its events on an internal registry — one counting
  /// idiom either way — and the per-op histograms stay off, so the
  /// default configuration pays nothing per operation. See
  /// docs/observability.md.
  telemetry::TelemetryOptions telemetry{};
  /// Closed-loop control (control/adaptive_controller.h). With mode !=
  /// kOff the service runs an AdaptiveController over its registry:
  /// per-window latency/arrival measurement, the acquire_many batch
  /// clamp, the stash capacity bound, the elastic grow/shrink hysteresis
  /// (seeded from grow_miss_threshold / shrink_low_threshold) and — in
  /// kAdapt mode — admission control: acquire fails fast with kShed once
  /// the consecutive-failure streak reaches control.retry_budget, until a
  /// release frees capacity. Implies detailed telemetry (the controller
  /// is fed from the latency histogram). See docs/adaptive-control.md.
  control::ControlOptions control{};
  /// Crash-safe ownership (lease/lease_table.h). With lease.ttl_ticks !=
  /// 0 every shared acquisition registers a lease, every op by the
  /// holder's thread heartbeats it alive, and names abandoned by a
  /// crashed, parked or exited holder are reaped back into the namespace
  /// after ttl + grace ticks — after which a revived holder's late
  /// release is rejected (kLeaseExpired / a guard trip), never applied
  /// to a cell that may have been reissued. 0 (the default) disables
  /// leasing: one null check per op. See docs/leases.md.
  lease::LeaseOptions lease{};
};

/// The per-thread context: the dense slot (the home-shard hash), a cached
/// generator (seeded once per thread, not per call), and the per-service
/// state table. One thread_local per service type; the rng seed is fixed
/// by the first service of that type a thread touches, and streams stay
/// independent across threads either way.
template <class Payload>
struct ThreadCtx {
  std::uint64_t slot;
  Xoshiro256 rng;
  PerServiceTable<Payload> services;

  ThreadCtx(std::uint64_t seed, std::uint64_t slot_)
      : slot(slot_), rng(mix_seed(seed, slot_)) {
    // The exit flush below records into this thread's cached stripes: the
    // stripe table must be constructed first, so that it is destroyed
    // after this context and hands the stripes on only once the flush is
    // done with them.
    telemetry::MetricsRegistry::anchor_thread_stripes();
  }
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  /// Thread exit: hand every still-registered service its per-thread
  /// state so stashed names are flushed, not stranded, and the thread's
  /// nodes are retired for reuse. Runs during TLS destruction; the
  /// directory callback works only off the payload's cached pointers.
  ~ThreadCtx() {
    services.for_each([](std::uint64_t id, Payload& p) {
      ServiceDirectory::instance().flush(id, &p);
    });
  }
};

template <class Derived>
class ServiceCore {
 public:
  /// Failure codes, from the shared loren::AcquireResult enum
  /// (renaming/acquire_result.h), so both services and every embedder
  /// agree on the numbers. kExhausted: every cell scanned was taken (and
  /// the elastic namespace cannot grow). kSweepBudgetExhausted: the
  /// bounded sweep budget ran out first — capacity may remain. kShed:
  /// admission control rejected the call before any probe; a successful
  /// release re-admits. kLeaseExpired: a lease operation referred to a
  /// name whose lease the reaper already expired — the caller no longer
  /// owns it and the cell may have been reissued.
  static constexpr sim::Name kExhausted = to_name(AcquireResult::kExhausted);
  static constexpr sim::Name kSweepBudgetExhausted =
      to_name(AcquireResult::kSweepBudgetExhausted);
  static constexpr sim::Name kShed = to_name(AcquireResult::kShed);
  static constexpr sim::Name kLeaseExpired =
      to_name(AcquireResult::kLeaseExpired);

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  /// A unique name, or a negative failure code. Safe from any thread;
  /// never blocks (not even on a concurrent resize) and never spins. A
  /// stash hit is a pop from thread-owned memory. Otherwise the claim
  /// probes the sticky shard, migrates or steals on pressure, and falls
  /// back to a deterministic sweep, so -1 means every cell was taken when
  /// scanned — with the name cache on, "taken" includes names parked in
  /// *other* threads' stashes (bounded by stash capacity x threads).
  sim::Name acquire();

  /// Frees `name` for reacquisition. Returns false (and changes nothing)
  /// when the name is not currently held — a double release or a foreign
  /// value. Safe from any thread; never blocks. Uncached, validation is a
  /// single RMW, so concurrent double releases cannot both succeed; a
  /// release the stash absorbs validates with a stash-duplicate scan plus
  /// a cell load instead (same results for conforming callers; two
  /// *racing* releases of one held name — already outside the contract —
  /// may both return true).
  bool release(sim::Name name);

  /// Batched acquisition: claims up to `k` unique names into `out` and
  /// returns the number acquired. The stash serves first; the rest is
  /// one sticky-shard ring walk (ShardGroup::try_acquire_many) — per
  /// visited shard one probe-schedule walk seeds a linear run-claim, the
  /// sweep backstops — and one live-count update, so a batch of k costs
  /// one TLS lookup and ~one schedule walk instead of k of each. A
  /// shortfall means fewer than k cells were free over the scan (under
  /// concurrent churn, cells freed behind the cursor are not revisited —
  /// callers that must have all k retry), the bounded sweep budget ran
  /// out, or the controller clamped or shed the batch.
  std::uint64_t acquire_many(std::uint64_t k, sim::Name* out);

  /// Frees `count` names: stash absorption first, then the shared path in
  /// chunks. Returns how many were freed; invalid or not-held entries are
  /// skipped (validation as in release()).
  std::uint64_t release_many(const sim::Name* names, std::uint64_t count);

  /// Releases every name in the calling thread's stash for this service
  /// through the shared path and folds the thread's pending cache
  /// statistics into the aggregate. Returns the number flushed. Call it
  /// when a thread parks, or before asserting exact names_live() figures
  /// at quiescence (an exiting thread's stash is flushed for it). No-op
  /// when the cache is off or the stash is empty.
  std::uint64_t flush_thread_cache();

  /// Explicitly renews the calling thread's lease on `name` (every op
  /// already renews implicitly by stamping the thread's heartbeat — this
  /// is for holders that go quiet between ops). Returns `name`, or
  /// kLeaseExpired when the lease is gone: the reaper reclaimed the cell
  /// and the caller must treat the name as lost. `name` with leasing off.
  sim::Name renew_lease(sim::Name name);

  /// One full blocking reap pass: every stale lease is expired and its
  /// cell handed back. Returns cells reclaimed. The op paths already poll
  /// try_reap() on a sampled cadence; this is the deterministic variant
  /// for tests, shutdown drains and dedicated reaper threads. 0 when off.
  std::size_t reap_expired();

  /// Lease observability (all 0 / false with leasing off). A guard trip
  /// is a stale lease operation (late release/renew/validate after the
  /// reaper won) that was detected, never silently applied.
  [[nodiscard]] bool leasing_enabled() const { return leases_ != nullptr; }
  [[nodiscard]] std::uint64_t leases_live() const {
    return leases_ != nullptr ? leases_->leases_live() : 0;
  }
  [[nodiscard]] std::uint64_t lease_expired() const {
    return leases_ != nullptr ? leases_->expired() : 0;
  }
  [[nodiscard]] std::uint64_t lease_guard_trips() const {
    return leases_ != nullptr ? leases_->guard_trips() : 0;
  }
  /// The underlying table (null with leasing off), for introspection.
  [[nodiscard]] lease::LeaseTable* lease_table() const { return leases_.get(); }
  /// The policy's per-thread nodes allocated (live-count nodes or epoch
  /// slots): at most the peak count of threads registered at once, since
  /// an exiting thread's node goes to the next thread that registers.
  [[nodiscard]] std::size_t thread_nodes() const { return self().node_count(); }

  /// Aggregate name-cache statistics, folded in window-at-a-time from the
  /// per-thread stashes (they lag by up to one adaptation window per
  /// thread until flush_thread_cache()). Thin snapshot reads of the
  /// registry, exact at quiescence like every registry sum.
  [[nodiscard]] std::uint64_t cache_hits() const {
    return ins_.registry->counter_value(ins_.cache_hits);
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return ins_.registry->counter_value(ins_.cache_misses);
  }
  /// Times the bounded sweep budget ran out (a kSweepBudgetExhausted
  /// return, or an acquire_many shortfall the budget caused). Always 0
  /// when options.sweep_retry_budget is 0.
  [[nodiscard]] std::uint64_t sweep_budget_exhausted() const {
    return ins_.registry->counter_value(ins_.sweep_budget_exhausted);
  }
  /// The registry this service records into: the one attached via
  /// options.telemetry, or the internal fallback.
  [[nodiscard]] telemetry::MetricsRegistry& metrics_registry() const {
    return *ins_.registry;
  }
  /// Admissions rejected with kShed (one per kShed returned); 0 without
  /// a controller.
  [[nodiscard]] std::uint64_t shed_events() const {
    return controller_ != nullptr ? controller_->shed_events() : 0;
  }
  /// The attached controller, or nullptr when control is off.
  [[nodiscard]] control::AdaptiveController* controller() const {
    return controller_.get();
  }
  /// The calling thread's stash occupancy / adaptive capacity for this
  /// service (introspection and tests). A stale stash under the discard
  /// rule counts as empty: reset() already freed its cells.
  [[nodiscard]] std::uint32_t thread_cache_size() const;
  [[nodiscard]] std::uint32_t thread_cache_capacity() const {
    return entry().stash.capacity();
  }

 protected:
  /// Everything an op needs from the calling thread for this service.
  /// Trivially copyable, so PerServiceTable growth can relocate it.
  struct PerThread {
    /// The policy's registration, resolved with `stripe` on the first op
    /// (the introspection accessors touch the entry without registering).
    typename Derived::ThreadNode* node = nullptr;
    telemetry::MetricsRegistry::ThreadStripe* stripe = nullptr;
    Xoshiro256* rng = nullptr;  // the ThreadCtx's generator
    /// This thread's lease heartbeat (null until the first op under a
    /// leasing service; heap-owned by the LeaseTable, retired at thread
    /// exit).
    lease::Heartbeat* hb = nullptr;
    /// The sticky shard hint. It moves as soon as wins arrive late in the
    /// schedule or the schedule misses, so a loaded home shard is not a
    /// tax on every acquire; after a reset or resize it is merely stale,
    /// never wrong (ShardGroup masks it), because any shard can serve any
    /// thread.
    std::uint32_t shard = 0;
    /// Detailed-mode sampling phases. Acquire and release keep separate
    /// phases: churn loops alternate the two ops strictly, so a shared
    /// counter would park one side on a parity the mask never selects.
    std::uint32_t op_tick = 0;
    std::uint32_t rel_tick = 0;
    std::uint32_t lease_poll = 0;  // sampled reap-poll phase
    typename Derived::ThreadExtra extra{};
    NameStash stash;
  };

  /// `seeds` carries the policy's controller knob seeds (stash_cap is
  /// set here).
  ServiceCore(const ServiceOptions& options,
              control::AdaptiveController::KnobSeeds seeds);
  ~ServiceCore() = default;

  /// Registration with the thread-exit flush directory. The service calls
  /// register_exit_flush() last in its constructor (exiting threads may
  /// flush into it from then on, so every member must be live) and
  /// unregister_exit_flush() first in its destructor (the directory holds
  /// its lock across in-flight flushes, so after it returns no thread can
  /// touch the dying service).
  void register_exit_flush() {
    ServiceDirectory::instance().register_service(id_, this,
                                                  &ServiceCore::exit_flush);
  }
  void unregister_exit_flush() {
    ServiceDirectory::instance().unregister_service(id_);
  }

  /// The shared options, layout_extra.epsilon set from epsilon.
  [[nodiscard]] const ServiceOptions& opts() const { return opts_; }
  [[nodiscard]] std::uint64_t thread_slot() const {
    return thread_ctx(opts_.seed).slot;
  }

  /// Lease close before a shared free: false when the reaper already won
  /// the close — or the lease is bound to another heartbeat (same-bits
  /// ABA) — and the guard rejects the late release: the cell was
  /// reclaimed, possibly reissued, and is not ours to free.
  bool lease_closed(sim::Name name, const PerThread& per) {
    return leases_ == nullptr || leases_->close(name, per.hb, per.stripe) ||
           !leases_->release_guard();
  }
  /// The same close for one name of a batch holding the holder's set.
  bool lease_closed(lease::LeaseTable::HolderBatch& batch, sim::Name name) {
    return batch.close(name) || !leases_->release_guard();
  }

 private:
  /// Detailed-mode sampling: every (mask+1)-th acquire/release on a
  /// thread is the observed sample — timestamped, probe counts recorded.
  /// 1-in-256 keeps the histograms representative while amortizing the
  /// timestamp cost to well under the 5% overhead contract even where
  /// rdtsc is hypervisor-slow (docs/observability.md).
  static constexpr std::uint32_t kLatencySampleMask = 255;
  /// Sampled op-path reap poll: every 64th op per thread attempts a
  /// non-blocking try_reap, so expiry latency is bounded by op traffic
  /// without a dedicated reaper thread.
  static constexpr std::uint32_t kLeasePollMask = 63;

  /// Resolved telemetry surface: the registry (attached or internal
  /// fallback) and the interned `<prefix>.*` ids. The event counters
  /// always count; the histograms record only when `detailed`.
  struct Instruments {
    telemetry::MetricsRegistry* registry = nullptr;
    bool detailed = false;
    telemetry::MetricId cache_hits = 0;
    telemetry::MetricId cache_misses = 0;
    telemetry::MetricId sweep_budget_exhausted = 0;
    telemetry::MetricId shard_migrations = 0;
    telemetry::MetricId sweeps = 0;
    telemetry::MetricId stash_spills = 0;
    telemetry::MetricId stash_flushes = 0;
    telemetry::MetricId claims = 0;      // these two count only the
    telemetry::MetricId run_claims = 0;  // walks probe_len samples
    telemetry::MetricId acquire_ticks = 0;  // histograms from here on
    telemetry::MetricId release_ticks = 0;
    telemetry::MetricId probe_len = 0;
    telemetry::MetricId lost_races = 0;
    telemetry::MetricId ring_walk = 0;
  };

  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  static ThreadCtx<PerThread>& thread_ctx(std::uint64_t seed) {
    thread_local ThreadCtx<PerThread> ctx(seed, dense_thread_slot());
    return ctx;
  }
  /// The calling thread's entry, without registering. Forced inline: it
  /// is the lookup every op (the stash-hit fast path included) starts
  /// with, and an out-of-line call measurably slows that path.
  [[gnu::always_inline]] inline PerThread& entry() const;
  /// The calling thread's entry, registered (node + stripe).
  [[gnu::always_inline]] inline PerThread& thread_state();

  /// Per-op lease prologue (leasing on only): registers and stamps the
  /// thread's heartbeat, revalidates the stash after a self-detected
  /// stale gap (its names may have been reaped), and runs the sampled
  /// try_reap poll under pin().
  void lease_prologue(PerThread& per);
  /// Lease rebind before a stash absorb: the stash keeps the lease open
  /// (the cell stays taken), re-homed onto this thread's heartbeat — the
  /// original holder may exit. A rebind the reaper already beat means the
  /// cell was reclaimed: absorbing it would hand a recycled cell back as
  /// a stash hit.
  bool lease_rebound(sim::Name name, const PerThread& per) {
    return leases_ == nullptr ||
           leases_->rebind(name, leases_->now(), per.hb, per.stripe) ||
           !leases_->release_guard();
  }

  /// The shared release (arena + live count), bypassing the stash: the
  /// policy's batch release, then re-admission of shed callers when
  /// shared capacity was really freed (stash absorbs keep their cells
  /// taken, so they don't count). Every release surface, the spill and
  /// both flushes bottom out here. `per.stripe` is null only on the
  /// thread-exit flush.
  std::uint64_t release_shared(const sim::Name* names, std::uint64_t count,
                               PerThread& per);
  /// Applies the stale-stash rule when the stash's generation is behind
  /// the service's. Returns the names it released.
  std::uint64_t sync_stash(PerThread& per);
  /// Hit/miss accounting for `n` acquisitions of one outcome; at every
  /// window roll-up applies the controller's capacity bound and spills any
  /// excess above a shrunk capacity, as n one-name calls would, then folds
  /// the rolled counts into the registry.
  void note_stash_acquire(PerThread& per, bool hit, std::uint64_t n = 1);
  /// Spills the `k` oldest stashed names through release_shared (the
  /// hottest half stays). Stashed leases were rebound to this thread's
  /// heartbeat on absorb, so its heartbeat is the identity closes present.
  void spill(PerThread& per, std::uint32_t k);
  /// Migrations and swept shards of a claim — counted in every mode,
  /// unlike the sampled probe histograms.
  void note_walk(PerThread& per, const ShardGroup::ProbeStats& stats);
  /// A sampled walk's shared steps (detailed mode): its word loads, and
  /// the claiming fetch_ors of the schedule walk and of run claims summed
  /// into counters beside them.
  void record_claims(PerThread& per, const ShardGroup::ProbeStats& stats) {
    per.stripe->record(ins_.probe_len, stats.probes);
    per.stripe->add(ins_.claims, stats.claims);
    per.stripe->add(ins_.run_claims, stats.run_claims);
  }

  /// ServiceDirectory::FlushFn: an exiting thread's stash flush, then
  /// the retirement of its policy node and heartbeat, driven entirely off
  /// the payload's cached pointers (mid-TLS-destruction: no thread_local
  /// lookups are legal).
  static void exit_flush(void* core, void* payload);
  /// LeaseTable::ReclaimFn trampoline onto the policy's reclaim_cell.
  static bool reclaim_trampoline(void* core, sim::Name name) {
    return static_cast<ServiceCore*>(core)->self().reclaim_cell(name);
  }

  ServiceOptions opts_;
  /// Process-unique instance id. Per-thread state is keyed by this, never
  /// by `this`: a service at a recycled address must not inherit another
  /// instance's cached state (nodes pointing into a freed registry).
  std::uint64_t id_;
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  Instruments ins_;
  /// The control loop (null when control.mode == kOff); built over
  /// ins_.registry, after it, destroyed before it.
  std::unique_ptr<control::AdaptiveController> controller_;
  /// The lease table (null when lease.ttl_ticks == 0).
  std::unique_ptr<lease::LeaseTable> leases_;
};

// ------------------------------------------------------------------------
// Definitions, instantiated by each service's .cpp.

template <class Derived>
ServiceCore<Derived>::ServiceCore(const ServiceOptions& options,
                                  control::AdaptiveController::KnobSeeds seeds)
    : opts_(options), id_(next_service_instance_id()) {
  // The layout parameters the policies build their groups from carry
  // the service's epsilon.
  opts_.layout_extra.epsilon = opts_.epsilon;
  // Resolve the telemetry surface once: attached registry = detailed mode
  // (per-op histograms live), internal fallback = event counters only.
  // Metric ids are interned here so the hot paths never touch a name.
  if (opts_.telemetry.registry != nullptr) {
    ins_.registry = opts_.telemetry.registry;
    ins_.detailed = true;
  } else {
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    ins_.registry = owned_metrics_.get();
  }
  telemetry::MetricsRegistry& reg = *ins_.registry;
  const std::string p = Derived::kMetricPrefix;
  ins_.cache_hits = reg.counter(p + ".cache.hits");
  ins_.cache_misses = reg.counter(p + ".cache.misses");
  ins_.sweep_budget_exhausted = reg.counter(p + ".sweep.budget_exhausted");
  ins_.shard_migrations = reg.counter(p + ".shard.migrations");
  ins_.sweeps = reg.counter(p + ".sweep.invocations");
  ins_.stash_spills = reg.counter(p + ".stash.spills");
  ins_.stash_flushes = reg.counter(p + ".stash.flushes");
  ins_.claims = reg.counter(p + ".acquire.claims");
  ins_.run_claims = reg.counter(p + ".acquire.run_claims");
  ins_.acquire_ticks = reg.histogram(p + ".acquire.ticks");
  ins_.release_ticks = reg.histogram(p + ".release.ticks");
  ins_.probe_len = reg.histogram(p + ".acquire.probe_len");
  ins_.lost_races = reg.histogram(p + ".acquire.lost_races");
  ins_.ring_walk = reg.histogram(p + ".batch.ring_walk");

  if (opts_.control.mode != control::ControlMode::kOff) {
    // The controller reads windowed deltas of the acquire-latency
    // histogram, which only fills in detailed mode — so enabling control
    // forces it even on the internal registry (the 1-in-256 cadence keeps
    // the cost inside the telemetry overhead contract either way).
    ins_.detailed = true;
    static_assert(control::AdaptiveController::kStashFloor ==
                      NameStash::kMinCapacity,
                  "stash knob floor must match the stash's own minimum");
    seeds.stash_cap = NameStash::kMaxCapacity;
    controller_ = std::make_unique<control::AdaptiveController>(
        opts_.control, ins_.registry, ins_.acquire_ticks, seeds);
  }
  if (opts_.lease.ttl_ticks != 0) {
    leases_ = std::make_unique<lease::LeaseTable>(opts_.lease, ins_.registry);
    leases_->set_reclaimer(&ServiceCore::reclaim_trampoline, this);
  }
}

template <class Derived>
typename ServiceCore<Derived>::PerThread&
ServiceCore<Derived>::entry() const {
  ThreadCtx<PerThread>& ctx = thread_ctx(opts_.seed);
  return ctx.services.for_service(id_, [&ctx, this](PerThread& p) {
    p.rng = &ctx.rng;
    p.shard = static_cast<std::uint32_t>(ctx.slot);
    p.stash.configure(opts_.name_cache_capacity);
  });
}

template <class Derived>
typename ServiceCore<Derived>::PerThread&
ServiceCore<Derived>::thread_state() {
  PerThread& per = entry();
  if (per.node == nullptr) {
    per.node = &self().register_node();
    per.stripe = &ins_.registry->stripe();
  }
  return per;
}

template <class Derived>
void ServiceCore<Derived>::exit_flush(void* core, void* payload) {
  auto& c = *static_cast<ServiceCore*>(core);
  auto& per = *static_cast<PerThread*>(payload);
  if (!per.stash.empty()) {
    // The node registers without TLS (mutex + heap); the stripe does not
    // (MetricsRegistry::stripe() probes a thread_local table), so a
    // thread that never cached one flushes uninstrumented.
    if (per.node == nullptr) per.node = &c.self().register_node();
    c.sync_stash(per);
    if (!per.stash.empty()) {
      if (per.stripe != nullptr) per.stripe->add(c.ins_.stash_flushes);
      sim::Name buf[NameStash::kMaxCapacity];
      const std::uint32_t n = per.stash.take_oldest(buf, per.stash.size());
      c.release_shared(buf, n, per);
    }
  }
  // The thread is done with its nodes: hand them to the next thread that
  // registers. The counter node keeps its net count and the epoch slot is
  // idle (no op is in flight); a heartbeat whose set still holds leases
  // stays with the table until the reap pass that empties it.
  if (per.node != nullptr) c.self().retire_node(*per.node);
  if (per.hb != nullptr) c.leases_->retire_thread(*per.hb);
  per.node = nullptr;
  per.hb = nullptr;
  per.stripe = nullptr;
}

template <class Derived>
void ServiceCore<Derived>::lease_prologue(PerThread& per) {
  if (per.hb == nullptr) per.hb = &leases_->register_thread();
  const std::uint64_t now = leases_->now();
  // mo:relaxed-ok(single-writer heartbeat stamp; the reaper's max() with
  // the lease deadline makes a stale read expiry-delaying, never
  // expiry-causing — see lease/lease_table.h)
  const std::uint64_t prev = per.hb->last.load(std::memory_order_relaxed);
  // mo:relaxed-ok(same single-writer stamp contract)
  per.hb->last.store(now, std::memory_order_relaxed);
  if (prev != 0 && now - prev >= leases_->ttl() && opts_.name_cache &&
      !per.stash.empty()) {
    // This thread went quiet for a full ttl: its stashed names may have
    // been reaped (and their cells reclaimed), so each one must
    // revalidate before it can be re-issued. A dropped entry was already
    // reclaimed — dropping it is the only safe move.
    sim::Name buf[NameStash::kMaxCapacity];
    const std::uint32_t n = per.stash.take_oldest(buf, per.stash.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      if (leases_->validate(buf[i], per.hb, per.stripe)) {
        per.stash.push(buf[i]);
      }
    }
  }
  if ((per.lease_poll++ & kLeasePollMask) == 0) {
    std::size_t reclaimed = 0;
    {
      [[maybe_unused]] auto pin = self().pin(per);
      reclaimed = leases_->try_reap(now, per.stripe);
    }
    if (reclaimed > 0) {
      self().after_reap(per, reclaimed);
      if (controller_ != nullptr) controller_->note_release();
    }
  }
}

template <class Derived>
sim::Name ServiceCore<Derived>::renew_lease(sim::Name name) {
  if (leases_ == nullptr) return name;
  if (!self().plausible(name)) return kLeaseExpired;
  PerThread& per = thread_state();
  lease_prologue(per);
  return leases_->renew(name, leases_->now(), per.hb, per.stripe)
             ? name
             : kLeaseExpired;
}

template <class Derived>
std::size_t ServiceCore<Derived>::reap_expired() {
  if (leases_ == nullptr) return 0;
  PerThread& per = thread_state();
  // Deliberately NO heartbeat stamp here: reap_expired is a maintenance
  // op (a dedicated reaper holds nothing; the post-crash drain must be
  // able to expire the *caller's own* abandoned names). Holders keep
  // their leases alive through regular ops or renew_lease().
  std::size_t reclaimed = 0;
  {
    [[maybe_unused]] auto pin = self().pin(per);
    reclaimed = leases_->reap(leases_->now(), per.stripe);
  }
  if (reclaimed > 0) {
    self().after_reap(per, reclaimed);
    if (controller_ != nullptr) controller_->note_release();
    self().released(per, /*eager=*/true);
  }
  return reclaimed;
}

template <class Derived>
inline std::uint64_t ServiceCore<Derived>::sync_stash(PerThread& per) {
  const std::uint64_t gen = self().stash_generation();
  NameStash& st = per.stash;
  if (st.gen() == gen) return 0;
  std::uint64_t freed = 0;
  if constexpr (Derived::kStaleStashHeld) {
    if (!st.empty()) {
      sim::Name buf[NameStash::kMaxCapacity];
      const std::uint32_t n = st.take_oldest(buf, st.size());
      freed = release_shared(buf, n, per);
    }
  } else {
    st.clear();
  }
  st.set_gen(gen);
  self().retag_stash(per);
  return freed;
}

template <class Derived>
void ServiceCore<Derived>::note_stash_acquire(PerThread& per, bool hit,
                                              std::uint64_t n) {
  NameStash& st = per.stash;
  const NameStash::WindowStats ws = st.note_acquire(hit, n, [&] {
    // The controller's capacity bound is re-applied at every adaptation
    // rollup, so the stash's own doubling can never outrun it for more
    // than one window; the excess spill drains what the clamp cut.
    if (controller_ != nullptr) st.clamp_capacity(controller_->stash_cap());
    if (st.excess() > 0) spill(per, st.excess());
  });
  if (ws.rolled) {
    per.stripe->add(ins_.cache_hits, ws.hits);
    per.stripe->add(ins_.cache_misses, ws.misses);
  }
}

template <class Derived>
void ServiceCore<Derived>::spill(PerThread& per, std::uint32_t k) {
  sim::Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = per.stash.take_oldest(buf, k);
  // Names leave the (thread-private) stash and hit shared cells/counters.
  LOREN_SIM_POINT("stash.spill");
  LOREN_TRACE("stash.spill", n);
  per.stripe->add(ins_.stash_spills, n);
  release_shared(buf, n, per);
}

template <class Derived>
void ServiceCore<Derived>::note_walk(PerThread& per,
                                     const ShardGroup::ProbeStats& stats) {
  if (stats.migrations != 0) {
    per.stripe->add(ins_.shard_migrations, stats.migrations);
  }
  if (stats.sweep_shards != 0) {
    per.stripe->add(ins_.sweeps, stats.sweep_shards);
  }
}

template <class Derived>
std::uint64_t ServiceCore<Derived>::release_shared(const sim::Name* names,
                                                   std::uint64_t count,
                                                   PerThread& per) {
  const std::uint64_t freed = self().release_batch(names, count, per);
  if (freed > 0 && controller_ != nullptr) controller_->note_release();
  return freed;
}

template <class Derived>
sim::Name ServiceCore<Derived>::acquire() {
  PerThread& per = thread_state();
  if (leases_ != nullptr) lease_prologue(per);
  // Detailed mode: every (mask+1)-th op is the observed sample — one
  // timestamp pair plus probe/lost-race counts recorded as single stripe
  // records at the exits, never an RMW on shared state. The unobserved
  // ops pay one counter increment and a predictable branch.
  const bool timed =
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  const auto finish = [&](sim::Name name) {
    if (timed) {
      per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
    }
    return name;
  };
  if (controller_ != nullptr) {
    controller_->note_ops(*per.stripe, 1, per.op_tick);
  }
  if (opts_.name_cache) {
    sync_stash(per);
    if (!per.stash.empty()) {
      // The whole hot path: a pop from thread-owned memory. The name's
      // cell stayed taken and the live count never moved, so no shared
      // state needs touching at all.
      const auto name = static_cast<sim::Name>(per.stash.pop());
      note_stash_acquire(per, true);
      return finish(name);
    }
    note_stash_acquire(per, false);
  }
  // Admission control gates the *shared* namespace only: a stash hit
  // above still serves (it touches no shared state), but a shedding
  // controller fails the call here before any probe or sweep.
  if (controller_ != nullptr && !controller_->admit(*per.stripe)) {
    return finish(kShed);
  }
  ShardGroup::ProbeStats stats;
  const sim::Name name = self().claim_one(per, stats);
  note_walk(per, stats);
  if (timed) {
    record_claims(per, stats);
    if (stats.lost_races != 0) {
      per.stripe->record(ins_.lost_races, stats.lost_races);
    }
  }
  if (name >= 0) {
    if (leases_ != nullptr) {
      leases_->open(name, leases_->now(), per.hb, per.stripe);
    }
    return finish(name);
  }
  if (name == kSweepBudgetExhausted) {
    per.stripe->add(ins_.sweep_budget_exhausted);
  }
  if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
  return finish(name);
}

template <class Derived>
std::uint64_t ServiceCore<Derived>::acquire_many(std::uint64_t k,
                                                 sim::Name* out) {
  if (k == 0) return 0;
  PerThread& per = thread_state();
  if (leases_ != nullptr) lease_prologue(per);
  const bool timed =
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  const auto finish = [&](std::uint64_t n) {
    if (timed) {
      per.stripe->record(ins_.acquire_ticks, telemetry::trace_ticks() - t0);
    }
    return n;
  };
  std::uint64_t got = 0;
  if (opts_.name_cache) {
    sync_stash(per);
    while (got < k && !per.stash.empty()) {
      out[got++] = static_cast<sim::Name>(per.stash.pop());
      note_stash_acquire(per, true);
    }
    if (got == k) {
      if (controller_ != nullptr) {
        controller_->note_ops(*per.stripe, got, per.op_tick);
      }
      return finish(got);
    }
  }
  std::uint64_t want = k - got;
  if (controller_ != nullptr) {
    if (!controller_->admit(*per.stripe)) {
      // Shedding: hand back whatever the stash served, touch nothing
      // shared. The partial batch is the admission-control contract, not
      // an exhaustion signal.
      controller_->note_ops(*per.stripe, got, per.op_tick);
      return finish(got);
    }
    // The batch knob: one call claims at most batch_limit() names from
    // the shared namespace, whatever was asked — callers see a short fill
    // and come back, which is the whole adaptive-batching mechanism.
    want = std::min<std::uint64_t>(want, controller_->batch_limit());
  }
  // The seed-and-run-claim ring walk: a shortfall past its sweep backstop
  // means fewer than `want` cells were free when scanned — unless the
  // bounded sweep budget truncated the scan, which is counted, not
  // conflated.
  bool budget_hit = false;
  ShardGroup::ProbeStats stats;
  const std::uint64_t shared_got =
      self().claim_many(per, want, out + got, stats, &budget_hit);
  if (budget_hit) per.stripe->add(ins_.sweep_budget_exhausted);
  if (controller_ != nullptr) {
    // A clamped request coming back short is still a failed shared
    // acquisition from the controller's seat.
    if (budget_hit || shared_got < want) {
      controller_->note_saturation(*per.stripe);
    }
    controller_->note_ops(*per.stripe, got + shared_got, per.op_tick);
  }
  note_walk(per, stats);
  // Only walks that ran are recorded: a batch the stash (or a shedding
  // controller) answered never reaches this point.
  if (ins_.detailed) {
    per.stripe->record(ins_.ring_walk, stats.ring_shards);
    if (stats.probes != 0) record_claims(per, stats);
    if (stats.lost_races != 0) {
      per.stripe->record(ins_.lost_races, stats.lost_races);
    }
  }
  if (leases_ != nullptr && shared_got > 0) {
    // One lease clock read and one holder-set lock per batch: every name
    // shares a registration instant.
    leases_->open_batch(out + got, shared_got, leases_->now(), per.hb,
                        per.stripe);
  }
  if (opts_.name_cache && shared_got > 0) {
    note_stash_acquire(per, false, shared_got);
  }
  return finish(got + shared_got);
}

template <class Derived>
bool ServiceCore<Derived>::release(sim::Name name) {
  if (!self().plausible(name)) return false;
  PerThread& per = thread_state();
  if (leases_ != nullptr) lease_prologue(per);
  const bool timed =
      ins_.detailed && ((per.rel_tick++ & kLatencySampleMask) == 0);
  const std::uint64_t t0 = timed ? telemetry::trace_ticks() : 0;
  const auto finish = [&](bool ok) {
    if (timed) {
      per.stripe->record(ins_.release_ticks, telemetry::trace_ticks() - t0);
    }
    return ok;
  };
  if (opts_.name_cache) {
    sync_stash(per);
    NameStash& st = per.stash;
    if (self().stashable(per, name)) {
      // A same-thread double release.
      if (st.contains(name)) return finish(false);
      // The cell must actually be taken for the release to be legitimate;
      // a plain load suffices (the cell stays taken while stashed), and a
      // failing release must have no side effects, so the overflow spill
      // waits until the name has validated. Contract-violating races (two
      // threads releasing one held name) are undetectable without the
      // RMW — see release()'s contract above.
      bool held = false;
      {
        [[maybe_unused]] auto pin = self().pin(per);
        held = self().is_held(name);
      }
      if (!held || !lease_rebound(name, per)) return finish(false);
      if (st.full()) spill(per, st.capacity() / 2 + 1);
      st.push(name);
      self().released(per, /*eager=*/false);
      return finish(true);
    }
  }
  if (release_shared(&name, 1, per) == 0) return finish(false);
  self().released(per, /*eager=*/false);
  return finish(true);
}

template <class Derived>
std::uint64_t ServiceCore<Derived>::release_many(const sim::Name* names,
                                                 std::uint64_t count) {
  if (count == 0) return 0;
  PerThread& per = thread_state();
  if (leases_ != nullptr) lease_prologue(per);
  std::uint64_t freed = 0;
  if (!opts_.name_cache) {
    freed = release_shared(names, count, per);
  } else {
    sync_stash(per);
    NameStash& st = per.stash;
    // Classify a chunk at a time under one pin (pins never nest on one
    // thread, so the shared remainder is released between them):
    // stashable names are validated and parked, everything else — stash
    // overflow, names the policy keeps out of the stash — is forwarded to
    // the shared path, so a long batch still costs O(count / chunk)
    // live-count updates.
    sim::Name shared_buf[NameStash::kMaxCapacity];
    std::uint64_t i = 0;
    while (i < count) {
      std::uint32_t n_shared = 0;
      {
        [[maybe_unused]] auto pin = self().pin(per);
        for (; i < count && n_shared < NameStash::kMaxCapacity; ++i) {
          const sim::Name name = names[i];
          if (!self().plausible(name)) continue;
          if (st.contains(name)) continue;  // same-thread double release
          if (!st.full() && self().stashable(per, name)) {
            // Not currently held, or reaped under us: reject as the
            // shared path would.
            if (!self().is_held(name) || !lease_rebound(name, per)) continue;
            st.push(name);
            ++freed;
            continue;
          }
          shared_buf[n_shared++] = name;
        }
      }
      if (n_shared > 0) freed += release_shared(shared_buf, n_shared, per);
    }
  }
  // One batch counts once toward the post-release cadence.
  if (freed > 0) self().released(per, /*eager=*/false);
  return freed;
}

template <class Derived>
std::uint64_t ServiceCore<Derived>::flush_thread_cache() {
  if (!opts_.name_cache) return 0;
  PerThread& per = thread_state();
  std::uint64_t freed = sync_stash(per);
  NameStash& st = per.stash;
  const NameStash::WindowStats ws = st.take_partial_window();
  if (ws.rolled) {
    per.stripe->add(ins_.cache_hits, ws.hits);
    per.stripe->add(ins_.cache_misses, ws.misses);
  }
  if (!st.empty()) {
    sim::Name buf[NameStash::kMaxCapacity];
    const std::uint32_t n = st.take_oldest(buf, st.size());
    LOREN_SIM_POINT("stash.flush");
    LOREN_TRACE("stash.flush", n);
    per.stripe->add(ins_.stash_flushes);
    freed += release_shared(buf, n, per);
  }
  // A flush often precedes a drain check: let the policy push its
  // post-release work forward now rather than on its sampled cadence.
  if (freed > 0) self().released(per, /*eager=*/true);
  return freed;
}

template <class Derived>
std::uint32_t ServiceCore<Derived>::thread_cache_size() const {
  const NameStash& st = entry().stash;
  return Derived::kStaleStashHeld || st.gen() == self().stash_generation()
             ? st.size()
             : 0;
}

}  // namespace loren
