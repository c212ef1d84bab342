// LeaseTable: revocable, crash-safe name ownership.
//
// Every name a service hands out under leasing is registered here as a
// lease: (name, holder heartbeat, deadline). A holder that keeps
// operating keeps its leases alive for free — each service op stamps the
// thread's heartbeat cell, and the reaper treats a lease as fresh while
//   max(lease deadline, heartbeat + ttl) + grace > now.
// A holder that crashes, parks, or exits stops stamping; once its leases
// go stale the reaper expires them and hands the names back to the arena
// (via the service's reclaim callback), so the namespace no longer leaks
// under holder death — the liveness gap the renaming papers leave to the
// deployment (see docs/leases.md for the state machine and invariants).
//
// Structure: the table is sharded by name hash; each shard is one
// cacheline-aligned unit of {SimMutex, intrusive hash map name -> record,
// hierarchical timer wheel, counters}. All record state is mutated under
// the shard lock, so records need no atomics; the only lock-free word in
// the subsystem is the per-thread Heartbeat stamp. The timer wheel is the
// classic hashed hierarchical design (4 levels x 64 slots): insertion
// O(1) into the level whose span covers the remaining delta, entries
// cascading toward level 0 as their deadline approaches. A deadline past
// the wheel's span parks one revolution out at the top level and is
// re-armed there once per revolution. Slot chains are doubly linked, so
// close() takes a lease off the wheel at once, and a per-level occupancy
// bitmap lets a reap pass walk only the occupied slots the clock crossed:
// a poll costs the leases that are due, not the slots or the closed
// leases behind it. Expiry checks are exact at the moment of expiry —
// the wheel only schedules *examination* times, and a lease whose
// effective deadline moved (renew or heartbeat) is re-armed, never
// expired early. A lease can therefore expire late (by up to one reap
// poll interval), but never early: "zero false expiries of live renewing
// holders" is structural, not probabilistic.
//
// Close vs reap linearization: the shard lock is the arbiter. Exactly one
// of {holder's close(), reaper's expiry} removes the lease from the map;
// whoever loses finds it absent. The services free an arena cell only
// after winning the close, and the reaper frees it only after winning the
// expiry — so a revived holder's late release is *detected* (close fails,
// the service reports kLeaseExpired / a guard trip), never applied to a
// cell that may already be someone else's. The cell itself stays taken
// from expiry until the reclaim callback runs, so there is no window in
// which a third party could double-grant it.
//
// Clock domains: ticks come from an injectable clock (LeaseOptions::clock),
// defaulting to telemetry::trace_ticks() — the TSC in production and the
// ScenarioEngine's deterministic step counter under -DLOREN_SIM with an
// engine bound (the same pattern as the adaptive controller). ttl and
// grace are in whatever unit the clock counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "platform/cacheline.h"
#include "platform/sim_point.h"
#include "sim/env.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace loren::lease {

/// One thread's freshness stamp for one service: every op the thread
/// performs against the service relaxed-stores the current tick here,
/// which renews *all* of that thread's leases at once (the reaper max()es
/// the stamp into every effective deadline). Nodes are owned by the
/// LeaseTable and live as long as it does, so a lease may safely point at
/// its holder's cell even after the holder thread exits.
struct alignas(kCacheLine) Heartbeat {
  // mo: relaxed -- single-writer freshness stamp: only the owning thread
  // stores; the reaper reads under the shard lock and tolerates a stale
  // value (staleness can only delay an expiry by one reap pass, never
  // cause a false one, because the effective deadline is the max of the
  // stamp-derived deadline and the lease's own).
  std::atomic<std::uint64_t> last{0};
};

struct LeaseOptions {
  /// Lease lifetime in clock ticks; 0 disables leasing entirely (the
  /// services skip every lease hook — the pre-lease behavior).
  std::uint64_t ttl_ticks = 0;
  /// Extra ticks past the deadline before the reaper may expire: slack
  /// for holders whose heartbeat is coarse (one stamp per op).
  std::uint64_t grace = 0;
  /// Tick source; nullptr selects telemetry::trace_ticks (TSC in
  /// production, the engine step counter under -DLOREN_SIM when bound).
  std::uint64_t (*clock)() = nullptr;
  /// Lock shards (rounded up to a power of two).
  std::uint64_t table_shards = 8;
  /// Test knob (default on): when off, the services *ignore* a failed
  /// lease close and release the arena cell anyway — the unguarded
  /// behavior whose ABA corruption scenario_lease_test pins as a real,
  /// reproducible double-grant. Never disable outside tests.
  bool release_guard = true;
};

class LeaseTable {
 public:
  /// Frees the reclaimed cell back into the owning service's arena.
  /// Called *outside* any shard lock; returns true iff the cell was
  /// actually freed (false indicates the name no longer decodes to a
  /// live cell, e.g. an elastic generation stamp mismatch).
  using ReclaimFn = bool (*)(void* ctx, sim::Name name);

  LeaseTable(const LeaseOptions& opts, telemetry::MetricsRegistry* registry);
  LeaseTable(const LeaseTable&) = delete;
  LeaseTable& operator=(const LeaseTable&) = delete;

  /// One-time wiring by the owning service (before any open()).
  void set_reclaimer(ReclaimFn fn, void* ctx) {
    reclaim_ = fn;
    reclaim_ctx_ = ctx;
  }

  /// One-time per thread; callers cache the node. Nodes are never
  /// deregistered (same contract as RegisteredCounter).
  Heartbeat& register_thread();

  [[nodiscard]] std::uint64_t now() const { return clock_(); }
  [[nodiscard]] std::uint64_t ttl() const { return ttl_; }
  [[nodiscard]] std::uint64_t grace_ticks() const { return grace_; }
  [[nodiscard]] bool release_guard() const { return release_guard_; }

  /// Registers a lease on `name` held by `hb` (nullable: a lease with no
  /// heartbeat relies on its deadline alone). Caller has just won the
  /// arena cell, so `name` is not in the table.
  void open(sim::Name name, std::uint64_t now_ticks, const Heartbeat* hb,
            telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// The holder relinquishes the lease (it is about to free the cell).
  /// True iff the lease was live *and bound to `hb`* — false means the
  /// reaper got there first and the caller must NOT free the cell (a
  /// guard trip, counted). The identity check is what defeats same-bits
  /// ABA: a reaped name re-issued to another thread produces a lease
  /// with identical name bits but a different holder, so the revived
  /// original holder's close is rejected instead of silently closing the
  /// new holder's lease. A lease whose hb is null (opened holderless)
  /// may be closed by anyone.
  [[nodiscard]] bool close(sim::Name name, const Heartbeat* hb,
                           telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Explicit renewal: pushes the lease's own deadline to now + ttl.
  /// False (a guard trip) if the lease no longer exists or is bound to a
  /// different holder (same ABA rule as close()).
  [[nodiscard]] bool renew(sim::Name name, std::uint64_t now_ticks,
                           const Heartbeat* hb,
                           telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Refreshes the deadline of a lease this holder owns (or re-homes a
  /// holderless one onto `hb`) — the stash-absorb hook. Same identity
  /// rule as close(): a lease bound to a *different* live holder is not
  /// stealable; false is a counted guard trip and the caller must not
  /// absorb the name.
  [[nodiscard]] bool rebind(sim::Name name, std::uint64_t now_ticks,
                            const Heartbeat* hb);

  /// True iff a lease on `name` exists and is held by `hb` — the stash
  /// revalidation probe a thread runs after noticing its own heartbeat
  /// went stale (its stashed names may have been reaped and reissued).
  /// A mismatch is counted as a guard trip.
  [[nodiscard]] bool validate(sim::Name name, const Heartbeat* hb);

  /// Expires every stale lease and reclaims its cell via the callback.
  /// Returns the number of cells reclaimed. reap() takes every shard
  /// lock in turn; try_reap() skips shards whose lock is busy (the
  /// sampled op-path poll — another thread is already reaping there).
  std::size_t reap(std::uint64_t now_ticks, telemetry::MetricsRegistry::ThreadStripe* stripe);
  std::size_t try_reap(std::uint64_t now_ticks,
                       telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Drops every lease without reclaiming (the service reset path: the
  /// arena epoch bump already freed every cell).
  void clear();

  // Exact under quiescence (each addend is read under its shard lock).
  [[nodiscard]] std::uint64_t leases_live() const;
  [[nodiscard]] std::uint64_t opened() const;
  [[nodiscard]] std::uint64_t expired() const;
  [[nodiscard]] std::uint64_t guard_trips() const;

 private:
  friend struct LeaseTablePeer;  // white-box wheel checks (lease_test)

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr unsigned kWheelBits = 6;
  static constexpr std::uint32_t kWheelSlots = 1u << kWheelBits;
  static constexpr unsigned kWheelLevels = 4;

  /// All fields mutated under the owning shard's lock — plain words.
  struct Record {
    sim::Name name = 0;
    std::uint64_t deadline = 0;  // open/renew tick + ttl (grace excluded)
    const Heartbeat* hb = nullptr;
    std::uint32_t hnext = kNil;  // hash-chain link
    std::uint32_t wnext = kNil;  // wheel-slot chain link (freelist link)
    std::uint32_t wprev = kNil;  // wheel-slot back link (kNil at the head)
    std::uint16_t wpos = 0;      // wheel position: level * kWheelSlots + slot
    bool live = false;           // false = on the freelist
  };

  struct alignas(kCacheLine) Shard {
    mutable SimMutex mu;
    std::vector<std::uint32_t> buckets;  // hash heads (power-of-two size)
    std::vector<Record> records;
    std::uint32_t free_head = kNil;  // freelist through Record::wnext
    std::uint32_t live_count = 0;
    // Timer wheel: slot chains per level, a bitmap per level of the
    // non-empty slots, and a per-level cursor (the last fully processed
    // absolute bucket index at that level's granularity).
    std::uint32_t wheel[kWheelLevels][kWheelSlots];
    std::uint64_t occupied[kWheelLevels];
    std::uint64_t cursor[kWheelLevels];
    // Monotonic tallies (exact: every transition happens under mu).
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;
    std::uint64_t expired = 0;
    std::uint64_t guard_trips = 0;
  };

  Shard& shard_for(sim::Name name);
  const Shard& shard_for(sim::Name name) const;
  // All of the below require the shard's lock held.
  std::uint32_t find_locked(Shard& s, sim::Name name) const;
  void unlink_locked(Shard& s, std::uint32_t idx);
  std::uint32_t alloc_record_locked(Shard& s);
  /// Takes a live record out of the hash map onto the freelist; the
  /// caller has already taken it off the wheel.
  void free_record_locked(Shard& s, std::uint32_t idx);
  void wheel_insert_locked(Shard& s, std::uint32_t idx, std::uint64_t due,
                           std::uint64_t now_ticks);
  void wheel_unlink_locked(Shard& s, std::uint32_t idx);
  [[nodiscard]] std::uint64_t effective_deadline_locked(
      const Record& rec) const;
  /// Advances the shard's wheel to now, expiring stale leases; appends
  /// the reclaimable names to `out` and their lateness to `late`.
  void advance_locked(Shard& s, std::uint64_t now_ticks,
                      std::vector<sim::Name>& out,
                      std::vector<std::uint64_t>& late);
  /// One reap pass over every shard; `wait` selects lock() over
  /// try_lock() (reap() vs try_reap()).
  std::size_t reap_pass(std::uint64_t now_ticks,
                        telemetry::MetricsRegistry::ThreadStripe* stripe,
                        bool wait);
  /// Post-lock half of a reap pass: telemetry + reclaim callbacks for
  /// the names advance_locked() expired. Runs outside every shard lock.
  std::size_t finish_reap(const std::vector<sim::Name>& names,
                          const std::vector<std::uint64_t>& late,
                          telemetry::MetricsRegistry::ThreadStripe* stripe);

  std::uint64_t ttl_;
  std::uint64_t grace_;
  std::uint64_t (*clock_)();
  bool release_guard_;
  std::uint64_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  ReclaimFn reclaim_ = nullptr;
  void* reclaim_ctx_ = nullptr;

  // Heartbeat registry (cold: one registration per thread per service).
  SimMutex hb_mu_;  // sim:lock-ok(registration only; no sim points inside)
  std::vector<std::unique_ptr<Heartbeat>> heartbeats_;

  // Telemetry ids (sink-mapped when no registry is attached).
  telemetry::MetricsRegistry* registry_;
  telemetry::MetricId ctr_opened_{0};
  telemetry::MetricId ctr_closed_{0};
  telemetry::MetricId ctr_expired_{0};
  telemetry::MetricId ctr_renewals_{0};
  telemetry::MetricId ctr_guard_trips_{0};
  telemetry::MetricId hist_reap_late_{0};
};

}  // namespace loren::lease
