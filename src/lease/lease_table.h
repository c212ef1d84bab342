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
// Structure: leases are partitioned by holder. Each thread's Heartbeat
// node for a service carries that holder's lease set (a SimMutex, a flat
// map name -> deadline and its exact tallies), so open, close, renew,
// rebind and validate lock only the caller's own, uncontended set, whose
// lines stay in the caller's cache. A batch of opens or closes (the
// services' acquire_many and release_many) runs through one HolderBatch:
// one lock, one gate update and one stripe add per tally for the whole
// batch, each name's outcome still decided under the set's lock. Leases
// opened without a heartbeat (unit tests) live in one table-owned set
// that close, renew and rebind consult after a miss in the caller's own.
// A reap pass skips a holder whose heartbeat is fresh (one load) and
// checks a stale holder's set entry by entry. next_due, a lower bound on
// every live lease's effective deadline, makes the op-path try_reap()
// one load until a lease may be due. Expiry checks are exact, so a lease
// can expire late (by up to one reap poll interval) but never early:
// "zero false expiries of live renewing holders" is structural, not
// probabilistic.
//
// Close vs reap linearization: the holder set's lock is the arbiter.
// Exactly one of {holder's close(), reaper's expiry} removes the lease
// from the set; whoever loses finds it absent. The services free an arena cell only
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
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "platform/cacheline.h"
#include "platform/sim_point.h"
#include "platform/thread_nodes.h"
#include "sim/env.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace loren::lease {
namespace detail {

/// Marks a free slot; the services only lease non-negative names.
inline constexpr sim::Name kFree = std::numeric_limits<sim::Name>::min();
struct Slot {
  sim::Name name = kFree;
  std::uint64_t deadline = 0;  // open/renew tick + ttl (grace excluded)
};

/// One holder's leases: a flat open-addressed map from name to deadline
/// (linear probing, backward-shift erase, power-of-two capacity) plus the
/// holder's exact tallies. Every field but `size` is used only under `mu`.
/// An emptied set keeps its storage, for its holder or, once the node is
/// recycled, for the node's next owner; the tallies carry over too.
struct LeaseSet {
  static constexpr std::uint64_t kMinCapacity = 8;

  SimMutex mu;
  // mo: seq_cst/relaxed — stored only under mu. The store that makes the
  // set non-empty and a pass's unlocked read are seq_cst: the store/load
  // pair with next_due that keeps the gate from hiding a lease
  // (docs/leases.md, "The gate never hides a live lease").
  std::atomic<std::uint32_t> size{0};
  std::uint32_t mask = 0;  // capacity - 1 while slots is non-null
  std::unique_ptr<Slot[]> slots;
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t expired = 0;
  std::uint64_t guard_trips = 0;
  /// The holder exited while the set still held leases: the reap pass
  /// that empties the set retires the node.
  bool orphaned = false;

  [[nodiscard]] std::uint64_t capacity() const {
    return slots != nullptr ? std::uint64_t{mask} + 1 : 0;
  }
  /// The capacity a set grows to for `n` entries (load factor <= 3/4).
  [[nodiscard]] static std::uint64_t capacity_for(std::uint64_t n);
  /// Slot of `name`, or capacity() when absent.
  [[nodiscard]] std::uint64_t find(sim::Name name) const;
  /// Inserts `name` (or refreshes its deadline), growing as needed.
  void put(sim::Name name, std::uint64_t deadline);
  /// Empties slot `i`, shifting its probe run back over the hole.
  void erase_at(std::uint64_t i);
  /// Grows (once) so that `n` more entries fit without a rehash.
  void reserve(std::uint64_t n);
  /// Drops every entry, keeping the storage.
  void clear();

 private:
  /// Rehashes every entry into `want` slots (a power of two).
  void grow_to(std::uint64_t want);
};

}  // namespace detail

/// One thread's freshness stamp for one service, and that holder's lease
/// set: every op the thread performs against the service relaxed-stores
/// the current tick here, which renews *all* of that thread's leases at
/// once (the reaper max()es the stamp into every effective deadline).
/// Nodes are owned by the LeaseTable, so a holder's leases stay reapable
/// after its thread exits; a node is recycled to a new thread only once
/// its set is empty and its holder gone (docs/leases.md, "Recycled
/// holder nodes").
struct alignas(kCacheLine) Heartbeat {
  // mo: relaxed -- single-writer freshness stamp: only the owning thread
  // stores; the reaper reads it without a lock and tolerates a stale
  // value (staleness can only delay an expiry by one reap pass, never
  // cause a false one, because the effective deadline is the max of the
  // stamp-derived deadline and the lease's own).
  std::atomic<std::uint64_t> last{0};

 private:
  friend class LeaseTable;
  friend struct LeaseTablePeer;  // white-box set checks (lease_test)

  // Mutable: a holder's leases are not part of its identity, and the
  // table mutates them through the const Heartbeat* every caller holds.
  mutable detail::LeaseSet leases_;
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
  /// Test knob (default on): when off, the services *ignore* a failed
  /// lease close and release the arena cell anyway — the unguarded
  /// behavior whose ABA corruption scenario_lease_test pins as a real,
  /// reproducible double-grant. Never disable outside tests.
  bool release_guard = true;
};

class LeaseTable {
 public:
  /// Frees the reclaimed cell back into the owning service's arena.
  /// Called *outside* every lock; returns true iff the cell was actually
  /// freed (false indicates the name no longer decodes to a live cell,
  /// e.g. an elastic generation stamp mismatch).
  using ReclaimFn = bool (*)(void* ctx, sim::Name name);

  LeaseTable(const LeaseOptions& opts, telemetry::MetricsRegistry* registry);
  LeaseTable(const LeaseTable&) = delete;
  LeaseTable& operator=(const LeaseTable&) = delete;

  /// One-time wiring by the owning service (before any open()).
  void set_reclaimer(ReclaimFn fn, void* ctx) {
    reclaim_ = fn;
    reclaim_ctx_ = ctx;
  }

  /// One-time per thread; callers cache the node, which may be an exited
  /// holder's (its stamp reset to 0, its set empty). Every non-null
  /// Heartbeat passed to the calls below must come from this table.
  Heartbeat& register_thread();

  /// The holder's thread is done with `hb` (thread exit): the node is
  /// recycled at once when its set is empty, else marked orphaned and
  /// recycled by the reap pass that expires its last lease. The caller
  /// must not present `hb` again.
  void retire_thread(Heartbeat& hb);

  [[nodiscard]] std::uint64_t now() const { return clock_(); }
  [[nodiscard]] std::uint64_t ttl() const { return ttl_; }
  [[nodiscard]] std::uint64_t grace_ticks() const { return grace_; }
  [[nodiscard]] bool release_guard() const { return release_guard_; }

  /// Registers a lease on `name` held by `hb` (nullable: a lease with no
  /// heartbeat relies on its deadline alone). Caller has just won the
  /// arena cell, so `name` is not in the table.
  void open(sim::Name name, std::uint64_t now_ticks, const Heartbeat* hb,
            telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// open() for each of `count` names, through one HolderBatch.
  void open_batch(const sim::Name* names, std::uint64_t count,
                  std::uint64_t now_ticks, const Heartbeat* hb,
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

  /// A scoped batch of opens and closes on one holder's set: the set is
  /// locked once (at the first operation, so the first name's sim point
  /// comes before the lock, as in a one-name open or close), and the
  /// destructor unlocks, lowers the reap gate once to the batch's least
  /// deadline and adds each tally to the stripe once. Each open and close
  /// has exactly the one-name call's outcome: close against reap is still
  /// decided per name under the set's lock, and a name closed twice in
  /// one batch closes once (the second is a guard trip). `opens` sizes
  /// the set for that many opens at the lock, so a batch rehashes at
  /// most once. One batch per thread at a time; no other call into the
  /// table for the same holder may run on this thread while it lives.
  class HolderBatch {
   public:
    HolderBatch(LeaseTable& table, const Heartbeat* hb,
                telemetry::MetricsRegistry::ThreadStripe* stripe,
                std::uint64_t opens = 0)
        : table_(table),
          hb_(hb),
          set_(table.own_set(hb)),
          stripe_(stripe),
          reserve_(opens) {}
    HolderBatch(const HolderBatch&) = delete;
    HolderBatch& operator=(const HolderBatch&) = delete;
    ~HolderBatch() {
      if (!locked_) return;  // no operation ran
      set_.mu.unlock();
      // After every size store of the batch: the gate's seq_cst load is
      // the second half of the pair with a pass's reset (docs/leases.md,
      // "The gate never hides a live lease").
      if (opened_ != 0) table_.lower_gate(due_);
      if (stripe_ == nullptr) return;
      if (opened_ != 0) stripe_->add(table_.ctr_opened_, opened_);
      if (closed_ != 0) stripe_->add(table_.ctr_closed_, closed_);
      if (trips_ != 0) stripe_->add(table_.ctr_guard_trips_, trips_);
    }

    /// open() for one name of the batch.
    void open(sim::Name name, std::uint64_t now_ticks);
    /// close() for one name of the batch.
    [[nodiscard]] bool close(sim::Name name);

   private:
    void lock();

    LeaseTable& table_;
    const Heartbeat* hb_;
    detail::LeaseSet& set_;
    telemetry::MetricsRegistry::ThreadStripe* stripe_;
    std::uint64_t reserve_;
    std::uint64_t due_ = kNever;  // least deadline + grace opened
    std::uint32_t opened_ = 0;
    std::uint32_t closed_ = 0;
    std::uint32_t trips_ = 0;
    bool locked_ = false;
  };

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
                            const Heartbeat* hb,
                            telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// True iff a lease on `name` exists and is held by `hb` — the stash
  /// revalidation probe a thread runs after noticing its own heartbeat
  /// went stale (its stashed names may have been reaped and reissued).
  /// A mismatch is counted as a guard trip.
  [[nodiscard]] bool validate(sim::Name name, const Heartbeat* hb,
                              telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Expires every stale lease and reclaims its cell via the callback,
  /// in effective-deadline order. Returns the number of cells reclaimed.
  /// reap() always runs a full pass (waiting for a running one);
  /// try_reap() — the sampled op-path poll — returns at once while
  /// now < next_due or while another thread's pass is running.
  std::size_t reap(std::uint64_t now_ticks, telemetry::MetricsRegistry::ThreadStripe* stripe);
  std::size_t try_reap(std::uint64_t now_ticks,
                       telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Drops every lease without reclaiming (the service reset path: the
  /// arena epoch bump already freed every cell).
  void clear();

  // Exact under quiescence (each addend is read under its set's lock).
  [[nodiscard]] std::uint64_t leases_live() const;
  [[nodiscard]] std::uint64_t opened() const;
  [[nodiscard]] std::uint64_t closed() const;
  [[nodiscard]] std::uint64_t expired() const;
  [[nodiscard]] std::uint64_t guard_trips() const;
  /// Heartbeat nodes allocated: at most the peak count of holders that
  /// were registered, or exited with leases not yet reaped, at once.
  [[nodiscard]] std::size_t holders() const { return heartbeats_.size(); }

 private:
  friend struct LeaseTablePeer;  // white-box set and gate checks (lease_test)

  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// A reaped lease, held until its reclaim callback runs.
  struct Expiry {
    std::uint64_t due;  // effective deadline
    sim::Name name;
  };

  /// The set a caller's operations start in: its own, or the
  /// holderless set for hb == nullptr.
  detail::LeaseSet& own_set(const Heartbeat* hb) {
    return hb != nullptr ? hb->leases_ : holderless_;
  }
  /// Calls f(set, hb) for every set, holderless last (hb null there),
  /// holding the heartbeat registry's lock across the holders.
  template <class F>
  void for_each_set(F&& f) const;
  /// Under `set`'s lock, after it may have emptied: an orphaned set that
  /// is now empty queues its node in `out` for recycling.
  static void note_orphan_locked(detail::LeaseSet& set, Heartbeat* hb,
                                 std::vector<Heartbeat*>& out);
  /// Recycles the nodes note_orphan_locked queued (no set lock held).
  void retire_orphans(const std::vector<Heartbeat*>& orphans);
  /// After `name` missed in the caller's own (locked) set: applies `hit`
  /// to it in the holderless set when the caller has a heartbeat, else
  /// (or on a miss there too) counts a guard trip on `own`.
  template <class Hit>
  bool on_holderless_locked(detail::LeaseSet& own, const Heartbeat* hb,
                            sim::Name name, Hit&& hit);
  [[nodiscard]] std::uint64_t effective_deadline(std::uint64_t deadline,
                                                 std::uint64_t beat) const;
  /// Lowers next_due to `due` unless it already lies at or below it.
  void lower_gate(std::uint64_t due);
  /// Under the set's lock: expires the set's due entries into `out` and
  /// returns the least effective deadline left (kNever when empty).
  std::uint64_t expire_locked(detail::LeaseSet& set, std::uint64_t beat,
                              std::uint64_t now_ticks,
                              std::vector<Expiry>& out);
  /// Sums get(set) over every set, each read under its lock.
  template <class Get>
  [[nodiscard]] std::uint64_t sum(Get get) const;
  /// One pass over every holder; the caller holds pass_mu_.
  std::size_t reap_pass(std::uint64_t now_ticks,
                        telemetry::MetricsRegistry::ThreadStripe* stripe,
                        std::unique_lock<SimMutex>& pass_lock);

  std::uint64_t ttl_;
  std::uint64_t grace_;
  std::uint64_t (*clock_)();
  bool release_guard_;

  ReclaimFn reclaim_ = nullptr;
  void* reclaim_ctx_ = nullptr;

  // mo: seq_cst/relaxed — the reap gate: a lower bound on the effective
  // deadline of every live lease (kNever with none). Reset by a pass and
  // read by an opener seq_cst (the pair with LeaseSet::size), lowered by
  // CAS-min; the op-path poll reads it relaxed.
  alignas(kCacheLine) std::atomic<std::uint64_t> next_due_{kNever};
  SimMutex pass_mu_;          // one pass at a time
  std::uint64_t passes_ = 0;  // under pass_mu_ (white-box tests)

  // Heartbeat registry (one node per live thread per service; exited
  // threads' nodes are recycled). A pass walks it under the registry's
  // lock, so a holder registered after the walk opens its first lease
  // after that pass's reset of next_due. A SimMutex: the walk locks
  // holder sets inside it.
  alignas(kCacheLine) ThreadNodes<Heartbeat, SimMutex> heartbeats_;
  mutable detail::LeaseSet holderless_;

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
