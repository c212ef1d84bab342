// RenamingService: sharded long-lived loose renaming as a service.
//
// The ConcurrentRenamer is one ReBatching object over one arena: every
// thread probes the same B_0, and under churn all acquisitions funnel
// through one probe geometry and one set of hot lines. The service instead
// runs one ShardGroup (renaming/shard_group.h), built once and never
// resized: S shards (a power of two) of one ReBatching layout sized for
// n/S holders, each shard a word-aligned window of a single
// word-packed BitmapArena (64 cells per word, one word per cache line).
// A thread probes a *sticky* shard — initially its home shard, a cheap
// dense thread hash — so disjoint thread groups run on disjoint memory,
// and S is chosen so a shard holds at most 512 cells (eight words): under
// churn a thread's entire probe target is a few cache lines, which a
// single (1+eps)n-cell arena can never be. Each probe of the schedule
// claims any free cell of the word it lands in — one load and one
// fetch_or, the paper's TAS object 64 cells at a time (see
// tas/bitmap_arena.h). When a shard runs hot (wins start arriving late in
// the probe schedule) the thread migrates to a random shard; when a
// schedule misses outright it steals from the neighbours; and after all S
// schedules miss it falls back to a deterministic sweep of every cell, so
// acquire() fails only when the whole namespace is exhausted.
//
// Names are interleaved across shards — name = local * S + shard — so
// mapping a name back to its shard is a mask, not a division, and the
// namespace stays exactly [0, S * (1+eps)ceil(n/S) + O(S)).
//
// Guarantees (cf. the long-lived variant in Aspnes's notes, and [16, 20]
// in the paper's related work):
//   * uniqueness — names are handed out by per-cell TAS, so a name is
//     held by at most one caller at any time, globally across shards;
//   * namespace — every name is < capacity() = S * (1+eps)ceil(n/S) + O(S)
//     (the shard layout rounds its batches up);
//   * per-acquisition step bounds — while a shard serves at most n/S
//     concurrent holders, an acquisition that stays on its sticky shard
//     performs log2 log2 (n/S) + O(1) probes w.h.p.; migration/stealing
//     adds one schedule walk per visited shard.
//
// Hot-path engineering (measured by perfbench/'s reuse-churn and
// full-scatter workloads):
//   * one thread_local context per call — cached Xoshiro256, thread slot,
//     shard hints, and counter node behind a single TLS access; the
//     per-call reseed-from-ticket of ConcurrentRenamer::get_name_direct
//     (a shared fetch_add + six SplitMix64 rounds per acquisition)
//     happens once per thread here;
//   * word-scan shards of at most 512 cells — a probe covers 64 cells
//     with one load and one RMW, and a sticky thread's probes stay in a
//     few cache lines;
//   * registered per-thread live counter — bookkeeping is a plain store
//     to a thread-owned cache line, not a locked RMW, and acquire/release
//     never serialize on one cell;
//   * shift/mask name decoding — release() does no division.
#pragma once

#include <cstdint>
#include <memory>

#include "control/adaptive_controller.h"
#include "lease/lease_table.h"
#include "platform/registered_counter.h"
#include "renaming/acquire_result.h"
#include "renaming/batch_layout.h"
#include "renaming/shard_group.h"
#include "renaming/thread_ctx.h"
#include "sim/env.h"
#include "telemetry/metrics.h"

namespace loren {

struct RenamingServiceOptions {
  double epsilon = 0.5;
  /// Number of shards, rounded up to a power of two. 0 = auto: enough
  /// shards that (a) hardware threads get distinct home shards and (b) a
  /// shard has at most kMaxShardCells cells, clamped so every shard still
  /// serves >= 64 holders.
  std::uint64_t shards = 0;
  std::uint64_t seed = 0x53ED;
  BatchLayoutParams layout_extra{};
  /// Thread-local name cache: each thread keeps a bounded stash of names
  /// it released against this service, so a steady-state churn thread
  /// re-acquires its own names with zero probes, zero counter traffic and
  /// no shared RMW. A stashed name's cell stays taken and stays counted
  /// by names_live() until the stash spills or is flushed — see
  /// docs/protocols.md, "The thread-local name cache". Disable for the
  /// tightest exhaustion semantics (acquire() == -1 then means *zero*
  /// cells free, with no residue parked in other threads' stashes).
  bool name_cache = true;
  /// Initial per-thread stash capacity; per-thread hit-rate adaptation
  /// moves it within [NameStash::kMinCapacity, NameStash::kMaxCapacity].
  std::uint32_t name_cache_capacity = 16;
  /// Bounded retry budget for the deterministic sweep backstop: the
  /// maximum number of shards a single acquire()/acquire_many() may
  /// sweep after every probe schedule missed. 0 = unbounded (sweep the
  /// whole namespace — the historical behaviour). With a budget set, an
  /// acquisition that exhausts it fails fast with kSweepBudgetExhausted
  /// instead of walking every remaining cell, and the service counts the
  /// event in sweep_budget_exhausted() — the explicit bounded failure
  /// mode admission control (ROADMAP) and the fault engine inject
  /// against.
  std::uint32_t sweep_retry_budget = 0;
  /// Observability surface (telemetry/metrics.h). With a registry
  /// attached, the service publishes its `service.*` metrics there —
  /// including the per-op hot-path histograms (acquire/release latency,
  /// probe lengths, lost races, batch ring-walk lengths), which are
  /// recorded only in this mode. Left null, the service counts its event
  /// metrics (cache hits/misses, sweeps, migrations, spills) on an
  /// internal registry — one counting idiom either way — and the per-op
  /// histograms stay off, so the default configuration pays nothing per
  /// operation. See docs/observability.md.
  telemetry::TelemetryOptions telemetry{};
  /// Closed-loop control (control/adaptive_controller.h). With mode !=
  /// kOff the service constructs an AdaptiveController over its metrics
  /// registry: per-window latency/arrival measurement, the acquire_many
  /// batch clamp, the stash capacity bound, and — in kAdapt mode —
  /// admission control (acquire fails fast with kShed once the
  /// consecutive-failure streak reaches control.retry_budget, until a
  /// release frees capacity). Enabling control switches the service into
  /// detailed telemetry mode (the controller is fed from the per-op
  /// latency histograms). See docs/adaptive-control.md.
  control::ControlOptions control{};
  /// Crash-safe ownership (lease/lease_table.h). With lease.ttl_ticks !=
  /// 0 every shared acquisition also registers a lease, every op by the
  /// holder's thread heartbeats it alive, and abandoned names (holder
  /// crashed, parked, or exited) are reaped back into the arena after
  /// ttl + grace ticks — at which point any late release by a revived
  /// holder is rejected (kLeaseExpired / a guard trip), never applied to
  /// a cell that may have been reissued. ttl_ticks == 0 (the default)
  /// disables leasing entirely: no per-op cost, the pre-lease behavior.
  /// See docs/leases.md.
  lease::LeaseOptions lease{};
};

class RenamingService {
 public:
  /// acquire() failure codes (acquire_many reports shortfalls by count).
  /// kExhausted: every cell scanned was taken. kSweepBudgetExhausted:
  /// the bounded sweep budget (options.sweep_retry_budget) ran out
  /// before a free cell was found — the namespace may NOT be full; the
  /// caller chose bounded latency over a full walk. kShed: admission
  /// control rejected the call outright — the controller's consecutive-
  /// failure streak hit its retry budget, and the caller pays one
  /// relaxed load instead of another sweep; a successful release
  /// re-admits (see control/adaptive_controller.h). kLeaseExpired: a
  /// lease operation (renew_lease, a guarded release) referred to a name
  /// whose lease the reaper already expired — the caller no longer owns
  /// it and the cell may have been reissued. The values are defined from
  /// the shared loren::AcquireResult enum (renaming/acquire_result.h) so
  /// both services and every embedder agree on the numbers forever.
  static constexpr sim::Name kExhausted = to_name(AcquireResult::kExhausted);
  static constexpr sim::Name kSweepBudgetExhausted =
      to_name(AcquireResult::kSweepBudgetExhausted);
  static constexpr sim::Name kShed = to_name(AcquireResult::kShed);
  static constexpr sim::Name kLeaseExpired =
      to_name(AcquireResult::kLeaseExpired);

  /// Serves up to `n` concurrent holders from a ~(1+eps)n namespace.
  /// Throws std::invalid_argument for n == 0. The constructed service is
  /// immediately usable from any thread.
  explicit RenamingService(std::uint64_t n, RenamingServiceOptions options = {});

  /// Unregisters from the ServiceDirectory first, so by the time members
  /// tear down no exiting thread can flush a stash into this instance.
  ~RenamingService();
  RenamingService(const RenamingService&) = delete;
  RenamingService& operator=(const RenamingService&) = delete;

  /// Unique name in [0, capacity()), or -1 iff no free cell was found.
  /// Safe to call from any thread; never blocks and never spins — the
  /// slow path is one bounded deterministic sweep over every cell, after
  /// which -1 means every cell was taken when scanned. With the name
  /// cache on, "taken" includes names parked in *other* threads' stashes
  /// (bounded by stash capacity x threads); callers that must squeeze the
  /// last few names out have the holders flush_thread_cache() first.
  /// With options.sweep_retry_budget set, a truncated sweep returns
  /// kSweepBudgetExhausted (-2) instead — see the option's doc.
  sim::Name acquire();

  /// Frees `name` for reacquisition. Returns false (and changes nothing)
  /// when the name is not currently held — a double release or a foreign
  /// value. Safe from any thread; never blocks. Uncached, validation is a
  /// single RMW, so concurrent double releases cannot both succeed; with
  /// the name cache on, a release the stash absorbs validates with a
  /// stash-duplicate scan plus a cell load instead (same observable
  /// results for conforming callers; two *racing* releases of one held
  /// name — already outside the release contract — may both return true).
  bool release(sim::Name name);

  /// Batched acquisition: claims up to `k` unique names into `out` and
  /// returns the number acquired. Returns < k only when fewer than k
  /// cells were free over the scan: at quiescence that means namespace
  /// exhaustion, while under concurrent churn the one-pass sweep can
  /// transiently come up short even though k cells were free at every
  /// instant (cells freed behind the scan cursor are not revisited) —
  /// callers that must have all k retry the remainder. One sticky-shard
  /// ring walk (ShardGroup::try_acquire_many): per visited shard a single
  /// probe-schedule walk seeds a linear run-claim
  /// (BitmapArena::try_claim_run), the deterministic sweep backstops, and
  /// the live counter gets one add of +got — so a batch of k costs one
  /// TLS lookup, ~one schedule walk, and one counter update instead of k
  /// of each. Names are the same interleaved encoding as acquire();
  /// uniqueness and the namespace bound are unchanged (every claim is
  /// still a per-cell TAS).
  std::uint64_t acquire_many(std::uint64_t k, sim::Name* out);

  /// Frees `count` names with one counter add (stash absorption first,
  /// then one shared pass for the remainder). Returns how many were
  /// actually freed; invalid or not-held entries are skipped (validation
  /// as in release()). Safe from any thread; never blocks.
  std::uint64_t release_many(const sim::Name* names, std::uint64_t count);

  /// Releases every name in the calling thread's stash for this service
  /// through the shared path (one counter add) and folds the thread's
  /// pending cache statistics into the aggregate. Returns the number of
  /// names flushed. Call it when a thread parks, before a worker thread
  /// exits (a dead thread's stash strands its names until reset()), or
  /// before asserting exact names_live() figures at quiescence. No-op
  /// when the cache is off or the stash is empty.
  std::uint64_t flush_thread_cache();

  /// Explicitly renews the calling thread's lease on `name` (every
  /// service op already renews implicitly by stamping the thread's
  /// heartbeat — this is for holders that go quiet between ops, e.g. a
  /// thread parking on I/O while holding names). Returns `name` on
  /// success and kLeaseExpired when the lease no longer exists: the
  /// reaper reclaimed the cell and the caller must treat the name as
  /// lost. With leasing off it trivially returns `name`.
  sim::Name renew_lease(sim::Name name);

  /// One full blocking reap pass over the lease table: every stale lease
  /// is expired and its cell handed back to the arena. Returns the
  /// number of cells reclaimed. The op paths already poll try_reap()
  /// periodically — this is the deterministic variant for tests,
  /// shutdown drains, and dedicated reaper threads. 0 with leasing off.
  std::size_t reap_expired();

  /// Lease observability (all 0 / false with leasing off).
  [[nodiscard]] bool leasing_enabled() const { return leases_ != nullptr; }
  [[nodiscard]] std::uint64_t leases_live() const {
    return leases_ != nullptr ? leases_->leases_live() : 0;
  }
  [[nodiscard]] std::uint64_t lease_expired() const {
    return leases_ != nullptr ? leases_->expired() : 0;
  }
  /// Times the generation guard rejected a stale lease operation (late
  /// release/renew/validate after the reaper won). Each trip is a
  /// detected — not silently applied — stale-ownership event.
  [[nodiscard]] std::uint64_t lease_guard_trips() const {
    return leases_ != nullptr ? leases_->guard_trips() : 0;
  }
  /// The underlying table (null with leasing off): test/bench
  /// introspection, never needed on the hot path.
  [[nodiscard]] lease::LeaseTable* lease_table() const { return leases_.get(); }

  /// O(1) full reset: epoch-bumps the shard group's arena, zeroes the live
  /// counter, and invalidates every thread's stash (their contents are
  /// discarded on the owning thread's next call — the epoch bump already
  /// freed the cells). Not safe concurrently with acquire/release —
  /// quiesce first.
  void reset();

  /// Geometry accessors: fixed at construction, safe from any thread.
  /// Every issued name is < capacity(); each shard is laid out for
  /// shard_holders() concurrent holders.
  [[nodiscard]] std::uint64_t capacity() const {
    return group_.local_capacity();
  }
  [[nodiscard]] std::uint64_t num_shards() const { return group_.shards(); }
  [[nodiscard]] std::uint64_t shard_holders() const {
    return group_.shard_layout().n();
  }
  /// Approximate while calls are in flight, exact at quiescence (after
  /// the workers have been joined or otherwise synchronized). Names
  /// parked in thread stashes count as live — they are unavailable to
  /// every other thread; flush_thread_cache() on each thread drains them.
  [[nodiscard]] std::uint64_t names_live() const {
    const std::int64_t live = live_.sum();
    return live > 0 ? static_cast<std::uint64_t>(live) : 0;
  }
  /// Aggregate name-cache statistics, folded in window-at-a-time from the
  /// per-thread stashes (so they lag by up to one adaptation window per
  /// thread until flush_thread_cache()). Approximate while in flight.
  /// Thin snapshot reads of the metrics registry (the counting moved
  /// there; same values, same contract).
  [[nodiscard]] std::uint64_t cache_hits() const {
    return ins_.registry->counter_value(ins_.cache_hits);
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return ins_.registry->counter_value(ins_.cache_misses);
  }
  /// Times the bounded sweep budget ran out (acquire returning
  /// kSweepBudgetExhausted, or an acquire_many shortfall caused by the
  /// budget rather than true exhaustion). Always 0 when
  /// options.sweep_retry_budget is 0.
  [[nodiscard]] std::uint64_t sweep_budget_exhausted() const {
    return ins_.registry->counter_value(ins_.sweep_budget_exhausted);
  }
  /// The registry this service records into: the one attached via
  /// options.telemetry, or the internal fallback. Snapshot/exposition
  /// surface for callers and the bench harness.
  [[nodiscard]] telemetry::MetricsRegistry& metrics_registry() const {
    return *ins_.registry;
  }
  /// Admissions rejected with kShed (exact: one per kShed returned).
  /// Always 0 without a controller (options.control.mode == kOff).
  [[nodiscard]] std::uint64_t shed_events() const {
    return controller_ != nullptr ? controller_->shed_events() : 0;
  }
  /// The attached controller, or nullptr when control is off. Knob and
  /// window introspection for tests, benches and operators.
  [[nodiscard]] control::AdaptiveController* controller() const {
    return controller_.get();
  }
  /// The calling thread's stash occupancy / adaptive capacity for this
  /// service (introspection and tests).
  [[nodiscard]] std::uint32_t thread_cache_size() const;
  [[nodiscard]] std::uint32_t thread_cache_capacity() const;
  /// The shard acquire() tries first on this thread before any migration
  /// (for tests).
  [[nodiscard]] std::uint64_t home_shard() const;

 private:
  /// Detailed-mode sampling: every (mask+1)-th acquire/release on a
  /// thread is the observed sample — timestamped, probe counts
  /// accumulated and recorded. 1-in-256 keeps the histograms
  /// representative (tens of thousands of samples per bench second)
  /// while amortizing the timestamp cost to well under the 5% overhead
  /// contract even where rdtsc is hypervisor-slow (docs/observability.md).
  static constexpr std::uint32_t kLatencySampleMask = 255;

  /// Resolved telemetry surface: the registry (attached or internal
  /// fallback) plus the service's interned metric ids. The event
  /// counters always count; the per-op histograms record only when
  /// `detailed` (a registry was attached via options.telemetry).
  struct Instruments {
    telemetry::MetricsRegistry* registry = nullptr;
    bool detailed = false;
    // Event counters (always on; recorded off the hot path or on rare
    // events only).
    telemetry::MetricId cache_hits = 0;
    telemetry::MetricId cache_misses = 0;
    telemetry::MetricId sweep_budget_exhausted = 0;
    telemetry::MetricId shard_migrations = 0;
    telemetry::MetricId sweeps = 0;
    telemetry::MetricId stash_spills = 0;
    telemetry::MetricId stash_flushes = 0;
    // Per-op histograms (detailed mode only).
    telemetry::MetricId acquire_ticks = 0;
    telemetry::MetricId release_ticks = 0;
    telemetry::MetricId probe_len = 0;
    telemetry::MetricId lost_races = 0;
    telemetry::MetricId ring_walk = 0;
  };

  /// Records a probe walk's migrations and sweeps — counted in every
  /// mode, unlike the sampled probe histograms. `shard` is the caller's
  /// sticky hint after the walk (the migration trace payload).
  void note_walk(const ShardGroup::ProbeStats& stats, std::uint32_t shard,
                 telemetry::MetricsRegistry::ThreadStripe& stripe);

  /// The shared (arena + counter) release path, bypassing the stash: the
  /// try_release loop plus one add to `counter` (the caller's already-
  /// resolved registered node, so chunked callers don't re-pay the
  /// thread-local lookup per chunk). Both public release surfaces and the
  /// stash spill/flush paths bottom out here. With leasing on, each
  /// name's lease is closed first; a close the reaper already won — or
  /// one presenting a heartbeat the lease is not bound to (same-bits
  /// ABA) — skips the arena release (the cell is not ours to free).
  /// `stripe` is the caller's cached stripe, nullable only on the
  /// thread-exit flush path. `hb` is the releasing thread's heartbeat
  /// (the identity the lease close is checked against).
  std::uint64_t release_shared(const sim::Name* names, std::uint64_t count,
                               RegisteredCounter::Node& counter,
                               telemetry::MetricsRegistry::ThreadStripe* stripe,
                               const lease::Heartbeat* hb);

  /// Per-op lease prologue (called only when leasing is on): registers
  /// and stamps the calling thread's heartbeat, revalidates the stash
  /// after a self-detected stale gap (its names may have been reaped),
  /// and runs the sampled try_reap poll. The hb/poll references are the
  /// caller's per-thread per-service context fields.
  void lease_heartbeat(lease::Heartbeat*& hb, std::uint32_t& poll,
                       NameStash* st, RegisteredCounter::Node& counter,
                       telemetry::MetricsRegistry::ThreadStripe& stripe);

  /// LeaseTable::ReclaimFn: frees an expired name's cell back into its
  /// shard arena. The live counter is adjusted by the *reaping* thread
  /// (which has a counter node); this callback has no thread context.
  static bool reclaim_cell(void* ctx, sim::Name name);

  /// ServiceDirectory::FlushFn: an exiting thread's stash flush, driven
  /// entirely off the payload's cached pointers (the thread is mid-TLS-
  /// destruction, so no thread_local lookups are legal here).
  static void directory_flush(void* service, void* payload);
  void flush_thread_state(void* payload);

  /// Re-tags `st` against cache_gen_, discarding contents stranded by a
  /// reset() (the epoch bump already freed those cells).
  void cache_sync_gen(NameStash& st) const;
  /// Hit/miss accounting; at each window roll-up folds the counts into
  /// the registry (via `stripe`, the caller's cached thread stripe) and
  /// spills any excess above an adaptively shrunk capacity.
  void cache_note_acquire(NameStash& st, bool hit,
                          RegisteredCounter::Node& counter,
                          telemetry::MetricsRegistry::ThreadStripe& stripe,
                          const lease::Heartbeat* hb);
  /// Spills the `k` oldest stashed names through release_shared. `hb` is
  /// the stash owner's heartbeat — stashed leases are rebound to it on
  /// absorb, so it is the identity their closes must present.
  void cache_spill(NameStash& st, std::uint32_t k,
                   RegisteredCounter::Node& counter,
                   telemetry::MetricsRegistry::ThreadStripe& stripe,
                   const lease::Heartbeat* hb);

  RenamingServiceOptions options_;
  /// Process-unique instance id. Per-thread caches (sticky shard hint,
  /// counter node) are keyed by this, never by `this`: a new service
  /// placed at a recycled address must not inherit another instance's
  /// cached state — in particular a counter node pointing into a freed
  /// registry.
  std::uint64_t id_;
  /// The whole namespace: built once, never resized.
  ShardGroup group_;
  RegisteredCounter live_;
  /// Stash-invalidation generation: reset() bumps it, and a stash tagged
  /// with an older value discards its contents on its owner's next call
  /// (the epoch bump already freed those cells). Starts at 1 so a fresh
  /// stash (gen 0) always re-tags before serving.
  // mo: relaxed -- invalidation stamp: readers only compare it against
  // their stash tag; reset() already requires external quiescence, so the
  // bump never races the arena epoch bump it trails.
  std::atomic<std::uint64_t> cache_gen_{1};
  /// Internal registry fallback (engaged when options.telemetry.registry
  /// is null) — all counting goes through a registry either way.
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  Instruments ins_;
  /// The closed control loop (null when options.control.mode == kOff);
  /// constructed over ins_.registry, after it, destroyed before it.
  std::unique_ptr<control::AdaptiveController> controller_;
  /// The lease table (null when options.lease.ttl_ticks == 0, which is
  /// what keeps the leasing-off hot path at literally zero extra cost —
  /// one null check per op).
  std::unique_ptr<lease::LeaseTable> leases_;

  /// Sampled op-path reap poll: every 64th op per thread attempts a
  /// non-blocking try_reap, so expiry latency is bounded by op traffic
  /// without a dedicated reaper thread.
  static constexpr std::uint32_t kLeasePollMask = 63;
};

}  // namespace loren
