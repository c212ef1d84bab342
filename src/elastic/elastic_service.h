// ElasticRenamingService: a contention-adaptive namespace that grows and
// shrinks at runtime.
//
// The fixed RenamingService freezes n, shard count, and arena size at
// construction, so a deployment serving bursty traffic must provision for
// peak forever. This service makes capacity a runtime quantity — the
// paper's "namespace proportional to actual contention" promise, carried
// from the one-shot setting into a long-lived, resizable one (cf. the
// long-lived/adaptive renaming chapters of Aspnes's notes):
//
//   * The live namespace is one ShardGroup (shard_group.h): a BitmapArena
//     carved into sticky-probed shards under a ReBatching schedule sized
//     for the group's holder count.
//   * GROW: when acquisitions keep missing the whole probe schedule
//     (a streak of `grow_miss_threshold` full misses with no intervening
//     schedule win — "sustained pressure"), or when even the backstop
//     sweep finds nothing, a group with double the holders is built,
//     linked into the tag table, and published with one pointer store —
//     an RCU-style swap; no acquisition ever blocks on a resize.
//   * SHRINK: shrink() (or the sampled auto-shrink watermark) publishes a
//     *smaller* group the same way. The old group is not torn down: it
//     retires. New acquisitions only ever probe the live group, so the
//     retiree only drains; a name acquired from generation g stays valid —
//     release(name) finds g through the tag table — until its holder
//     releases it, however many resizes have happened since.
//   * RECLAIM: a retired group's memory is freed only after (a) the epoch
//     domain quiesced past the retirement (no acquisition that might still
//     insert into it is in flight), (b) its live counter drained to zero
//     (no held names), and (c) a second quiescence after it is unlinked
//     from the tag table (no release() can still be dereferencing it).
//     See docs/protocols.md, "Grow, shrink, and reclaim".
//
// Name encoding: name = (group_local << kTagBits) | tag. The tag selects
// one of kMaxGroups (8) table slots, so release() decodes its group with a
// mask — no search — and uniqueness across generations is structural:
// distinct tags can never collide, and a tag is only reused after its
// previous group was reclaimed (which requires zero held names). The cost
// is namespace looseness: issued names are < capacity() =
// local_capacity * 2^kTagBits, a constant factor over the (1+eps)-tight
// fixed service. That is the price of elasticity here, and it is bounded
// and documented rather than hidden (docs/protocols.md, "Grow, shrink,
// and reclaim", discusses the tag-bit tradeoff).
//
// Concurrency contract: acquire/release/grow/shrink/resize/reclaim are
// safe from any thread. Destruction requires external quiescence (no
// calls in flight), the same contract as the other services' reset().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "control/adaptive_controller.h"
#include "lease/lease_table.h"
#include "platform/epoch.h"
#include "platform/sim_point.h"
#include "renaming/acquire_result.h"
#include "renaming/batch_layout.h"
#include "renaming/schedule_cache.h"
#include "renaming/shard_group.h"
#include "renaming/thread_ctx.h"
#include "sim/env.h"
#include "telemetry/metrics.h"

namespace loren {

struct ElasticOptions {
  double epsilon = 0.5;
  /// Smallest holder count shrink may reach. 0 = the initial holder count.
  std::uint64_t min_holders = 0;
  /// Largest holder count grow may reach.
  std::uint64_t max_holders = std::uint64_t{1} << 22;
  /// Shards per group: 0 = auto per group size (the RenamingService
  /// heuristic, so a small generation gets few shards and a large one
  /// many).
  std::uint64_t shards = 0;
  std::uint64_t seed = 0xE1A5;
  BatchLayoutParams layout_extra{};
  /// Grow automatically under sustained probe-schedule misses (and always
  /// on true exhaustion). Off = fixed capacity, explicit resize only.
  bool auto_grow = true;
  /// Full-schedule misses (with no intervening schedule win) that trigger
  /// an automatic grow.
  std::uint32_t grow_miss_threshold = 4;
  /// Shrink automatically (sampled on the release path) when live names
  /// stay below holders/4 across `shrink_low_threshold` consecutive
  /// samples — like grow, the pressure must be *sustained*, so a
  /// transient dip between bursts does not thrash the namespace. Off by
  /// default: shrinking trades latency for memory and most callers prefer
  /// to decide when (e.g. between traffic phases).
  bool auto_shrink = false;
  std::uint32_t shrink_low_threshold = 2;
  /// Thread-local name cache: each thread keeps a bounded stash of
  /// live-generation names it released, re-issued to that thread with no
  /// epoch pin, no probes and no shared RMW. Stashes are tagged with the
  /// resize generation: any grow/shrink invalidates them, and their
  /// contents are flushed through the shared tag-table path on the owning
  /// thread's next call, so retired generations still drain (a *parked*
  /// thread's stash delays that drain until it calls again or
  /// flush_thread_cache()s — see docs/protocols.md). Stashed names stay
  /// counted by names_live() and keep their group's live counter up.
  bool name_cache = true;
  /// Initial per-thread stash capacity; per-thread hit-rate adaptation
  /// moves it within [NameStash::kMinCapacity, NameStash::kMaxCapacity].
  std::uint32_t name_cache_capacity = 16;
  /// Bounded retry budget for the deterministic sweep backstop: at most
  /// this many shards of the live group are swept per acquisition after
  /// every probe schedule missed. 0 = unbounded (the historical full
  /// walk). A budget-truncated sweep fails fast with
  /// kSweepBudgetExhausted (-2) and counts in sweep_budget_exhausted();
  /// it is deliberately NOT exhaustion evidence, so it neither feeds the
  /// miss streak nor triggers a grow — a bounded scan giving up says
  /// nothing about how full the namespace is.
  std::uint32_t sweep_retry_budget = 0;
  /// Diagnostic hardening against *contract-violating* releases: stamp
  /// the issuing generation into bits [48, 63) of every name and reject a
  /// release whose stamp does not match the generation currently holding
  /// the name's tag. This catches the stale double-release ABA — a copy
  /// of a name from a long-reclaimed generation whose 3-bit tag has been
  /// recycled would otherwise free a victim's cell in the *new* group.
  /// Stamped names are no longer < capacity() (the stamp rides above the
  /// value bits), so keep this off in production and on in tests/debug
  /// deployments. See docs/protocols.md, "The release contract".
  bool debug_release_guard = false;
  /// Observability (telemetry/metrics.h). Attaching a registry switches
  /// the service into *detailed* mode: per-op histograms (acquire/release
  /// latency, probe lengths, lost races, ring-walk depth, quiescence
  /// waits) record alongside the always-on event counters. With no
  /// registry the service owns a private one, so the `elastic.*` event
  /// counters and their accessors work either way at one relaxed add per
  /// event, but the per-op histograms stay off.
  telemetry::TelemetryOptions telemetry{};
  /// Closed-loop control (control/adaptive_controller.h). With mode !=
  /// kOff the service constructs an AdaptiveController: per-window
  /// latency/arrival measurement, the acquire_many batch clamp, the
  /// stash capacity bound, the grow/shrink hysteresis knob (the
  /// controller's thresholds substitute for grow_miss_threshold /
  /// shrink_low_threshold above, seeded from them), and — in kAdapt
  /// mode — admission control: acquire fails fast with kShed once the
  /// consecutive-failure streak reaches control.retry_budget, until a
  /// release frees capacity. Implies detailed telemetry mode. See
  /// docs/adaptive-control.md.
  control::ControlOptions control{};
  /// Crash-safe ownership (lease/lease_table.h): with lease.ttl_ticks !=
  /// 0 every shared acquisition registers a lease, every op heartbeats
  /// the holder's leases alive, and names abandoned by a crashed/parked/
  /// exited holder are reaped back into their generation's group after
  /// ttl + grace — after which a revived holder's late release is
  /// rejected (kLeaseExpired / a guard trip), never applied to a
  /// possibly-reissued cell. 0 (default) disables leasing: zero per-op
  /// cost. See docs/leases.md.
  lease::LeaseOptions lease{};
};

class ElasticRenamingService {
 public:
  /// Tag bits spent in every name; bounds the generations that can be
  /// in flight (live + draining) at once.
  static constexpr std::uint32_t kTagBits = 3;
  static constexpr std::uint32_t kMaxGroups = 1u << kTagBits;
  /// debug_release_guard stamp geometry: 15 generation bits at bit 48 —
  /// far above any realistic local<<kTagBits value (max_holders tops out
  /// at 2^22 by default) and, at 15 bits, stopping short of bit 63 so a
  /// stamped name can never go negative (sim::Name is a signed int64 and
  /// negative means "failure" everywhere).
  static constexpr std::uint32_t kGenStampShift = 48;
  static constexpr std::uint64_t kGenStampMask = 0x7FFF;

  /// acquire() failure codes. kExhausted: the namespace is full and
  /// cannot grow. kSweepBudgetExhausted: the bounded sweep budget
  /// (options.sweep_retry_budget) ran out first — capacity may remain;
  /// the caller chose bounded latency over a full walk.
  /// kShed: admission control rejected the call before any probe — the
  /// controller's consecutive-failure streak hit its retry budget; a
  /// successful release re-admits (control/adaptive_controller.h).
  /// kLeaseExpired: a lease operation referred to a name whose lease the
  /// reaper already expired. Defined from the shared loren::AcquireResult
  /// enum (renaming/acquire_result.h), the single source of truth for
  /// these values across both services.
  static constexpr sim::Name kExhausted = to_name(AcquireResult::kExhausted);
  static constexpr sim::Name kSweepBudgetExhausted =
      to_name(AcquireResult::kSweepBudgetExhausted);
  static constexpr sim::Name kShed = to_name(AcquireResult::kShed);
  static constexpr sim::Name kLeaseExpired =
      to_name(AcquireResult::kLeaseExpired);

  /// Publishes generation 1, laid out for `initial_holders` (clamped to
  /// [min_holders, max_holders]). Throws std::invalid_argument for
  /// initial_holders == 0 or min_holders > max_holders. Immediately
  /// usable from any thread.
  explicit ElasticRenamingService(std::uint64_t initial_holders,
                                  ElasticOptions options = {});
  /// Requires external quiescence (no calls in flight on any thread) —
  /// the same contract as the other services' reset().
  ~ElasticRenamingService();

  ElasticRenamingService(const ElasticRenamingService&) = delete;
  ElasticRenamingService& operator=(const ElasticRenamingService&) = delete;

  /// Unique name in [0, capacity()), or -1 iff the namespace is exhausted
  /// and cannot grow (auto_grow off, max_holders reached, or all
  /// kMaxGroups tags still draining). Never blocks on a concurrent
  /// resize.
  sim::Name acquire();

  /// Frees `name`. Valid for names from *any* generation, including
  /// groups retired by grow/shrink since the acquisition. Returns false
  /// (and changes nothing) for names not currently held.
  bool release(sim::Name name);

  /// Batched acquisition: claims up to `k` unique names into `out` and
  /// returns the number acquired. One epoch pin covers the whole batch
  /// (safe: a pin never blocks a resize, only delays reclamation by at
  /// most one batch — see docs/protocols.md, "Batched acquisition: the
  /// run-claim protocol"), miss accounting is per *batch* (a
  /// batch the probe schedules could not fill is one pressure event, not
  /// k), and a shortfall past the sweep backstop grows the namespace
  /// immediately and claims the remainder from the new generation — so a
  /// batch may span generations (each sub-batch carries its own tag) and
  /// returns < k only when growth is unavailable (auto_grow off,
  /// max_holders reached, or all tags draining).
  std::uint64_t acquire_many(std::uint64_t k, sim::Name* out);

  /// Frees `count` names (any mix of generations) under one epoch pin
  /// with batched per-group live accounting. Returns how many were
  /// actually freed; invalid or not-held entries are skipped.
  std::uint64_t release_many(const sim::Name* names, std::uint64_t count);

  /// Publish a generation with double / half / exactly `holders` holders
  /// (clamped to [min_holders, max_holders]). False when the target equals
  /// the current size, the clamp makes it a no-op, or no tag slot is free
  /// (kMaxGroups generations already in flight). Safe concurrently with
  /// acquire/release.
  bool grow();
  bool shrink();
  bool resize(std::uint64_t holders);

  /// One reclamation pass: unlink drained retirees, free quiesced limbo
  /// groups. Returns groups freed by this call. Also runs opportunistically
  /// (sampled) on the release path, so calling it is optional. Safe from
  /// any thread; takes the (cold) resize mutex. Cannot reclaim a group
  /// whose names sit in some thread's stash — that thread must call into
  /// the service (or flush_thread_cache()) once after the resize first.
  std::size_t reclaim();

  /// Releases every name in the calling thread's stash for this service
  /// through the shared tag-table path (names from any generation route
  /// to their own group) and folds the thread's pending cache statistics
  /// into the aggregate. Returns the number flushed. Call when a thread
  /// parks or before it exits — a dead thread's stash otherwise pins its
  /// names' generations against draining for the service's lifetime.
  std::uint64_t flush_thread_cache();

  /// Explicitly renews the calling thread's lease on `name` (every op
  /// already renews implicitly via the heartbeat — this is for holders
  /// going quiet between ops). Returns `name`, or kLeaseExpired when the
  /// lease is gone: the reaper reclaimed the cell and the caller must
  /// treat the name as lost. Trivially `name` with leasing off.
  sim::Name renew_lease(sim::Name name);

  /// One full blocking reap pass: expires every stale lease and hands
  /// the cells back to their generations' groups (which lets retired
  /// generations finish draining). Returns cells reclaimed. The op paths
  /// poll try_reap() on a sampled cadence already; this is the
  /// deterministic variant for tests and shutdown drains. 0 when off.
  std::size_t reap_expired();

  /// Lease observability (all 0 / false with leasing off).
  [[nodiscard]] bool leasing_enabled() const { return leases_ != nullptr; }
  [[nodiscard]] std::uint64_t leases_live() const {
    return leases_ != nullptr ? leases_->leases_live() : 0;
  }
  [[nodiscard]] std::uint64_t lease_expired() const {
    return leases_ != nullptr ? leases_->expired() : 0;
  }
  /// Stale lease operations the guard rejected (late release/renew after
  /// the reaper won) — detected, never silently applied.
  [[nodiscard]] std::uint64_t lease_guard_trips() const {
    return leases_ != nullptr ? leases_->guard_trips() : 0;
  }
  [[nodiscard]] lease::LeaseTable* lease_table() const { return leases_.get(); }

  /// Bound on newly issued names: local capacity of the live generation
  /// times 2^kTagBits. Names issued by earlier, larger generations may
  /// exceed this until released (they stay valid; see release()).
  [[nodiscard]] std::uint64_t capacity() const {
    return live_local_capacity_.load(std::memory_order_acquire) << kTagBits;
  }
  /// Holder count the live generation is laid out for.
  [[nodiscard]] std::uint64_t holders() const {
    return live_holders_.load(std::memory_order_acquire);
  }
  /// Monotonic resize count (initial construction = 1).
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Names currently held, summed over every in-flight generation.
  /// Approximate while calls are in flight, exact at quiescence.
  [[nodiscard]] std::uint64_t names_live() const;
  /// Linked generations (live + draining). 1 at rest.
  [[nodiscard]] std::size_t groups_in_flight() const;
  /// Cell-storage bytes across linked + limbo groups: the number that
  /// shrinking + reclamation drives back down.
  [[nodiscard]] std::uint64_t footprint_bytes() const;

  /// Event-counter accessors: thin snapshot reads of the telemetry
  /// registry (`elastic.*` counters — the one counting idiom), exact at
  /// quiescence like every registry sum.
  [[nodiscard]] std::uint64_t grow_events() const {
    return ins_.registry->counter_value(ins_.grow_events);
  }
  [[nodiscard]] std::uint64_t shrink_events() const {
    return ins_.registry->counter_value(ins_.shrink_events);
  }
  [[nodiscard]] std::uint64_t reclaimed_groups() const {
    return ins_.registry->counter_value(ins_.reclaimed_groups);
  }
  /// Aggregate name-cache statistics (folded in window-at-a-time; they
  /// lag by up to one adaptation window per thread until flushed).
  [[nodiscard]] std::uint64_t cache_hits() const {
    return ins_.registry->counter_value(ins_.cache_hits);
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return ins_.registry->counter_value(ins_.cache_misses);
  }
  /// Times the bounded sweep budget ran out (acquire returning
  /// kSweepBudgetExhausted, or an acquire_many shortfall caused by the
  /// budget). Always 0 when options.sweep_retry_budget is 0.
  [[nodiscard]] std::uint64_t sweep_budget_exhausted() const {
    return ins_.registry->counter_value(ins_.sweep_budget_exhausted);
  }
  /// The registry this service records into — the attached one in
  /// detailed mode, else the internally owned fallback. Snapshot it for
  /// the full `elastic.*` metric surface (docs/observability.md).
  [[nodiscard]] telemetry::MetricsRegistry& metrics_registry() const {
    return *ins_.registry;
  }
  /// Admissions rejected with kShed (exact: one per kShed returned).
  /// Always 0 without a controller (options.control.mode == kOff).
  [[nodiscard]] std::uint64_t shed_events() const {
    return controller_ != nullptr ? controller_->shed_events() : 0;
  }
  /// The attached controller, or nullptr when control is off.
  [[nodiscard]] control::AdaptiveController* controller() const {
    return controller_.get();
  }
  /// The calling thread's stash occupancy / adaptive capacity for this
  /// service (introspection and tests).
  [[nodiscard]] std::uint32_t thread_cache_size() const;
  [[nodiscard]] std::uint32_t thread_cache_capacity() const;
  [[nodiscard]] const ElasticOptions& options() const { return options_; }

 private:
  struct LimboEntry {
    std::unique_ptr<ShardGroup> group;
    std::uint64_t unlink_epoch;
  };

  /// Resize if the generation still equals `seen_gen`; returns true when
  /// the service resized (by this call or a concurrent one) so the caller
  /// should re-probe. Prevents a stampede of threads that all saw the
  /// same pressure from growing once each.
  bool grow_from(std::uint64_t seen_gen);

  bool resize_locked(std::uint64_t target);
  std::size_t reclaim_locked();
  int find_free_tag_locked() const;
  /// Sampled release-path maintenance: reclamation + auto-shrink check.
  void maintenance();

  /// The shared release path, bypassing the stash: one epoch pin, the
  /// tag-table decode/release loop, coalesced per-group live updates.
  /// `slot` is the caller's registered epoch slot. Both public release
  /// surfaces and the stash flush/spill paths bottom out here. With
  /// leasing on, each name's lease closes first; a close the reaper beat
  /// — or one presenting a heartbeat the lease is not bound to (same-bits
  /// ABA) — skips the group release (the cell is not ours to free).
  /// `stripe` is nullable only on the thread-exit flush path; `hb` is the
  /// releasing thread's heartbeat, the identity closes are checked
  /// against.
  std::uint64_t release_shared(const sim::Name* names, std::uint64_t count,
                               EpochDomain::Slot& slot,
                               telemetry::MetricsRegistry::ThreadStripe* stripe,
                               const lease::Heartbeat* hb);

  /// Per-op lease prologue (leasing on only): registers/stamps the
  /// calling thread's heartbeat, revalidates the stash after a
  /// self-detected stale gap, and runs the sampled try_reap poll under
  /// an epoch pin (the reclaim callback dereferences the tag table).
  void lease_heartbeat(lease::Heartbeat*& hb, std::uint32_t& poll,
                       NameStash* st, EpochDomain::Slot& slot,
                       telemetry::MetricsRegistry::ThreadStripe& stripe);

  /// LeaseTable::ReclaimFn: routes an expired name back into its
  /// generation's group via the tag table (caller holds an epoch pin).
  static bool reclaim_cell(void* ctx, sim::Name name);

  /// ServiceDirectory::FlushFn pair — an exiting thread's stash flush,
  /// driven entirely off the payload's cached pointers (mid-TLS-
  /// destruction: no thread_local lookups are legal here).
  static void directory_flush(void* service, void* payload);
  void flush_thread_state(void* payload);

  /// Re-tags `st` against the current resize generation; on mismatch the
  /// contents — names still held in a now-retired group — are flushed
  /// through release_shared so that group can drain (the stash-
  /// invalidation rule; see docs/protocols.md).
  void cache_sync_gen(NameStash& st, EpochDomain::Slot& slot,
                      telemetry::MetricsRegistry::ThreadStripe& stripe,
                      const lease::Heartbeat* hb);
  /// Hit/miss accounting; window roll-ups fold into the aggregate and
  /// spill any excess above an adaptively shrunk capacity.
  void cache_note_acquire(NameStash& st, bool hit, EpochDomain::Slot& slot,
                          telemetry::MetricsRegistry::ThreadStripe& stripe,
                          const lease::Heartbeat* hb);
  /// Spills the `k` oldest stashed names through release_shared. `hb`
  /// is the stash owner's heartbeat (stashed leases are rebound to it).
  void cache_spill(NameStash& st, std::uint32_t k, EpochDomain::Slot& slot,
                   telemetry::MetricsRegistry::ThreadStripe& stripe,
                   const lease::Heartbeat* hb);

  ElasticOptions options_;
  std::uint64_t min_holders_;
  std::uint64_t id_;  // process-unique (thread_ctx.h), keys per-thread state
  EpochDomain domain_;
  ScheduleCache schedules_;

  /// RCU-published pointers: the live group (acquire path) and the tag
  /// table (release path). Dereferenced only under an epoch pin.
  // mo: acquire, release, relaxed -- RCU pointer: release-publish on swap,
  // acquire-load before any deref (under an epoch pin); relaxed only for
  // pointer-identity checks under resize_mu_, which wrote the pointer.
  std::atomic<ShardGroup*> live_group_{nullptr};
  // mo: acquire, release, relaxed -- tag table: release-publish with the
  // swap, acquire-load before deref on the release path; relaxed for
  // nullptr slot scans under resize_mu_ (use sites carry mo:relaxed-ok —
  // the std::array wrapper hides the element type from the decl index).
  std::array<std::atomic<ShardGroup*>, kMaxGroups> groups_{};

  /// Lock-free mirrors of the live group's geometry so capacity()/holders()
  /// never dereference a pointer that a concurrent resize might retire —
  /// and so the name-cache fast paths can validate a name's tag and range
  /// without pinning the epoch.
  // mo: acquire, release -- geometry mirror: release-published with the
  // group swap, acquire-read by the name-cache range checks.
  std::atomic<std::uint64_t> live_local_capacity_{0};
  // mo: release, relaxed -- release-published with the group swap; relaxed
  // reads feed holders()/maintenance() sizing hints, never a deref.
  std::atomic<std::uint64_t> live_holders_{0};
  // mo: acquire, release -- published with the swap; acquire-read to stamp
  // per-thread stashes with the tag they must match.
  std::atomic<std::uint32_t> live_tag_{0};

  // mo: acquire, release, relaxed -- resize ticket: release-incremented
  // after each swap, acquire-read to detect a missed swap; relaxed inside
  // maintenance(), which holds resize_mu_ and so cannot race a writer.
  std::atomic<std::uint64_t> generation_{0};
  // mo: relaxed -- contended-acquire streak heuristic; a lost update only
  // delays a grow decision, it cannot corrupt state.
  std::atomic<std::uint32_t> miss_streak_{0};
  /// Consecutive low-watermark observations (maintenance() only, under
  /// resize_mu_); plain int would do but keeps the header self-consistent.
  // mo: relaxed -- written only under resize_mu_; atomic for the header's
  // self-consistency, not for cross-thread ordering.
  std::atomic<std::uint32_t> low_streak_{0};

  /// Detailed-mode sampling: one observed op (trace_ticks() pair +
  /// probe stats) per (mask + 1) per thread, same cadence as
  /// RenamingService.
  static constexpr std::uint32_t kLatencySampleMask = 255;

  /// The telemetry surface, resolved once at construction (see
  /// ElasticOptions::telemetry): the registry every event counts into,
  /// the interned `elastic.*` metric ids, and the detailed flag gating
  /// the per-op histograms.
  struct Instruments {
    telemetry::MetricsRegistry* registry = nullptr;
    bool detailed = false;
    telemetry::MetricId grow_events = 0;
    telemetry::MetricId shrink_events = 0;
    telemetry::MetricId reclaimed_groups = 0;
    telemetry::MetricId cache_hits = 0;
    telemetry::MetricId cache_misses = 0;
    telemetry::MetricId sweep_budget_exhausted = 0;
    telemetry::MetricId shard_migrations = 0;
    telemetry::MetricId sweeps = 0;
    telemetry::MetricId stash_spills = 0;
    telemetry::MetricId stash_flushes = 0;
    telemetry::MetricId epoch_advances = 0;
    telemetry::MetricId acquire_ticks = 0;   // histogram
    telemetry::MetricId release_ticks = 0;   // histogram
    telemetry::MetricId probe_len = 0;       // histogram
    telemetry::MetricId lost_races = 0;      // histogram
    telemetry::MetricId ring_walk = 0;       // histogram
    telemetry::MetricId quiesce_ticks = 0;   // histogram
  };
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  Instruments ins_;
  /// The closed control loop (null when options.control.mode == kOff);
  /// constructed over ins_.registry, after it, destroyed before it.
  std::unique_ptr<control::AdaptiveController> controller_;
  /// The grow threshold acquire() compares the miss streak against:
  /// the controller's hysteresis knob when attached, else the option.
  [[nodiscard]] std::uint32_t effective_grow_threshold() const {
    return controller_ != nullptr ? controller_->grow_miss_threshold()
                                  : options_.grow_miss_threshold;
  }
  /// Likewise for the auto-shrink low-watermark streak (maintenance()).
  [[nodiscard]] std::uint32_t effective_shrink_threshold() const {
    return controller_ != nullptr ? controller_->shrink_low_threshold()
                                  : options_.shrink_low_threshold;
  }

  /// Serializes resize + reclamation bookkeeping (cold path only).
  /// SimMutex, not std::mutex: the critical sections contain sim points
  /// (the scenario engine suspends workers *inside* a resize to test the
  /// publication order), and a blocking lock would deadlock the
  /// serialized schedule — see platform/sim_point.h. Identical to
  /// std::mutex in normal builds.
  mutable SimMutex resize_mu_;
  std::vector<std::unique_ptr<ShardGroup>> linked_;  // live + draining
  std::vector<LimboEntry> limbo_;  // unlinked, awaiting final quiescence

  /// The lease table (null when options.lease.ttl_ticks == 0 — the
  /// leasing-off hot path pays one null check per op and nothing else).
  std::unique_ptr<lease::LeaseTable> leases_;
  /// Sampled op-path reap poll cadence (every 64th op per thread).
  static constexpr std::uint32_t kLeasePollMask = 63;
};

}  // namespace loren
