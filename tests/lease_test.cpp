// The lease subsystem (lease/lease_table.h) under a fake, test-owned
// clock — every deadline comparison here is exact, not timing-dependent:
//
//   * open/close/renew/rebind units — live counts, close-after-close and
//     renew-after-expiry guard trips, rebind re-homing a lease onto a
//     new holder's heartbeat;
//   * expiry boundary — a lease expires at exactly open + ttl + grace,
//     never one tick earlier (the "no false expiry" half of the reaper
//     contract, checked to the tick);
//   * heartbeat renewal — a holder that keeps stamping its heartbeat
//     keeps every lease alive indefinitely; the moment it stops, the
//     stale leases expire at stamp + ttl + grace;
//   * deadline spread — deadlines from 1 to 2^28 ticks out expire in
//     deadline order across coarse clock jumps, each exactly once and
//     exactly on time, and a lease opened with a tick older than the last
//     reap still expires at its own deadline;
//   * holder sets and the reap gate (white-box, via LeaseTablePeer) — a
//     closed lease leaves its set at once and the storage never grows
//     past peak live, expiries come out in deadline order, a try_reap
//     before next_due runs no pass and never hides a due lease (also
//     while opens race passes), exited holders' leases are reaped and
//     their sets' storage freed, and concurrent churn with op-path polls
//     keeps every count exact;
//   * holder batches — one HolderBatch gives every close outcome the
//     one-name call gives, sizes the set once and lowers the gate once;
//   * service integration (both services) — abandoned names are reaped
//     back into the arena and become re-acquirable, a revived holder's
//     late release is rejected, renew_lease reports kLeaseExpired, and a
//     release_many racing the reaper frees each cell exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "elastic/elastic_service.h"
#include "lease/lease_table.h"
#include "renaming/service.h"

namespace loren::lease {

/// White-box view of a LeaseTable's holder sets and reap gate.
struct LeaseTablePeer {
  struct SetView {
    std::uint64_t entries;   // occupied slots, counted by walking them
    std::uint64_t size;      // the set's size word
    std::uint64_t capacity;  // slots allocated (0: never grown)
  };
  /// Every holder set in registration order, then the holderless set;
  /// each read under its lock (call it while no thread registers).
  static std::vector<SetView> sets(const LeaseTable& t) {
    std::vector<SetView> out;
    const auto view = [&](detail::LeaseSet& set) {
      std::lock_guard<SimMutex> lock(set.mu);
      SetView v{0, set.size.load(), set.capacity()};
      for (std::uint64_t i = 0; i < v.capacity; ++i) {
        if (set.slots[i].name != detail::kFree) ++v.entries;
      }
      out.push_back(v);
    };
    t.heartbeats_.for_each([&](Heartbeat& hb) { view(hb.leases_); });
    view(t.holderless_);
    return out;
  }
  /// Entries over every set; also checks each set's size word.
  static std::uint64_t entries(const LeaseTable& t) {
    std::uint64_t total = 0;
    for (const SetView& v : sets(t)) {
      EXPECT_EQ(v.entries, v.size) << "a set's size word disagrees";
      total += v.entries;
    }
    return total;
  }
  /// Passes run so far (read while no pass runs).
  static std::uint64_t passes(const LeaseTable& t) { return t.passes_; }
  static std::uint64_t next_due(const LeaseTable& t) { return t.next_due_.load(); }
  static std::uint64_t capacity_for(std::uint64_t n) {
    return detail::LeaseSet::capacity_for(n);
  }
  /// Heartbeat nodes allocated: at most the peak count of live holders.
  static std::size_t heartbeats(const LeaseTable& t) {
    return t.heartbeats_.size();
  }
  /// The slot array of `hb`'s set (read on the thread holding its lock,
  /// or while no thread uses the set): a new array means a rehash.
  static const void* slots(const Heartbeat& hb) {
    return hb.leases_.slots.get();
  }
};

}  // namespace loren::lease

namespace loren {
namespace {

using lease::LeaseTablePeer;

using sim::Name;

// The injected clock: a plain function reading a test-owned tick. The
// LeaseOptions clock hook is a stateless function pointer, so the tick
// lives in a file-scope atomic each test resets in its fixture.
std::atomic<std::uint64_t> g_now{0};
std::uint64_t fake_now() { return g_now.load(std::memory_order_relaxed); }

// Reclaim recorder: the table's callback target for the unit tests.
struct Reclaimed {
  std::vector<Name> names;
  static bool sink(void* ctx, Name n) {
    static_cast<Reclaimed*>(ctx)->names.push_back(n);
    return true;
  }
};

// Thread-safe reclaim counter, for the tables several threads reap.
struct Counting {
  std::atomic<std::uint64_t> reclaimed{0};
  static bool sink(void* ctx, Name) {
    static_cast<Counting*>(ctx)->reclaimed.fetch_add(1,
                                                     std::memory_order_relaxed);
    return true;
  }
};

lease::LeaseOptions opts_with(std::uint64_t ttl, std::uint64_t grace = 0) {
  lease::LeaseOptions o;
  o.ttl_ticks = ttl;
  o.grace = grace;
  o.clock = &fake_now;
  return o;
}

class LeaseUnit : public ::testing::Test {
 protected:
  void SetUp() override { g_now.store(1, std::memory_order_relaxed); }
};

// ------------------------------------------------------------ units ----

TEST_F(LeaseUnit, OpenCloseLiveCounts) {
  lease::LeaseTable t(opts_with(100), nullptr);
  for (Name n = 0; n < 10; ++n) t.open(n, t.now(), nullptr, nullptr);
  EXPECT_EQ(t.leases_live(), 10u);
  EXPECT_EQ(t.opened(), 10u);
  for (Name n = 0; n < 10; ++n) EXPECT_TRUE(t.close(n, nullptr, nullptr));
  EXPECT_EQ(t.leases_live(), 0u);
  // A second close finds the lease gone: guard trip, not a crash.
  EXPECT_FALSE(t.close(3, nullptr, nullptr));
  EXPECT_EQ(t.guard_trips(), 1u);
}

TEST_F(LeaseUnit, ExpiresAtExactlyTtlPlusGraceNeverEarlier) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50, /*grace=*/10), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  g_now = 100;
  t.open(7, t.now(), nullptr, nullptr);
  // The effective deadline is open + ttl + grace = 160; the tick *before*
  // it must expire nothing — early expiry is the one forbidden outcome.
  g_now = 159;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  EXPECT_EQ(t.leases_live(), 1u);
  g_now = 160;
  EXPECT_EQ(t.reap(t.now(), nullptr), 1u);
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(t.expired(), 1u);
  ASSERT_EQ(rec.names.size(), 1u);
  EXPECT_EQ(rec.names[0], 7);
  // The reaper won: the holder's late close is rejected.
  EXPECT_FALSE(t.close(7, nullptr, nullptr));
}

TEST_F(LeaseUnit, HeartbeatKeepsEveryLeaseAliveUntilItStops) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50, /*grace=*/5), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& hb = t.register_thread();
  hb.last.store(fake_now(), std::memory_order_relaxed);
  for (Name n = 0; n < 8; ++n) t.open(n, t.now(), &hb, nullptr);
  // Stamp every 40 ticks (< ttl): across 20 deadline-spans of wall time,
  // nothing may expire — one stamp renews all eight leases at once.
  for (int i = 0; i < 20; ++i) {
    g_now += 40;
    hb.last.store(fake_now(), std::memory_order_relaxed);
    EXPECT_EQ(t.reap(t.now(), nullptr), 0u) << "false expiry at pass " << i;
  }
  EXPECT_EQ(t.leases_live(), 8u);
  // Holder dies (stops stamping): everything expires at stamp + ttl +
  // grace, and the tick before that is still alive.
  const std::uint64_t stamp = hb.last.load(std::memory_order_relaxed);
  g_now = stamp + 50 + 5 - 1;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = stamp + 50 + 5;
  EXPECT_EQ(t.reap(t.now(), nullptr), 8u);
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(rec.names.size(), 8u);
}

TEST_F(LeaseUnit, RenewPushesTheDeadlineAndFailsAfterExpiry) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/30), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  g_now = 10;
  t.open(1, t.now(), nullptr, nullptr);
  g_now = 35;  // 5 ticks before the original deadline
  EXPECT_TRUE(t.renew(1, t.now(), nullptr, nullptr));
  g_now = 64;  // past the original deadline (40), inside the renewed (65)
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = 65;
  EXPECT_EQ(t.reap(t.now(), nullptr), 1u);
  EXPECT_FALSE(t.renew(1, t.now(), nullptr, nullptr))
      << "renew revived a dead lease";
  EXPECT_GE(t.guard_trips(), 1u);
}

TEST_F(LeaseUnit, RebindEnforcesHolderIdentity) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& a = t.register_thread();
  lease::Heartbeat& b = t.register_thread();
  a.last.store(fake_now(), std::memory_order_relaxed);
  b.last.store(fake_now(), std::memory_order_relaxed);
  t.open(9, t.now(), &a, nullptr);
  EXPECT_TRUE(t.validate(9, &a, nullptr));
  EXPECT_FALSE(t.validate(9, &b, nullptr)) << "validate matched a foreign holder";
  // A lease bound to a live holder is not stealable — the same-bits ABA
  // defense: when a reaped name is reissued, the revived original holder
  // presents the wrong heartbeat and every mutation is rejected instead
  // of silently applied to the new holder's lease.
  EXPECT_FALSE(t.rebind(9, t.now(), &b, nullptr));
  EXPECT_FALSE(t.close(9, &b, nullptr)) << "foreign close closed a's lease";
  EXPECT_FALSE(t.renew(9, t.now(), &b, nullptr));
  EXPECT_GE(t.guard_trips(), 3u);
  EXPECT_EQ(t.leases_live(), 1u);
  // Self-rebind is the refresh path (a stash re-absorb by the holder).
  EXPECT_TRUE(t.rebind(9, t.now(), &a, nullptr));
  EXPECT_TRUE(t.close(9, &a, nullptr));
  // A holderless lease may be adopted by anyone; from then on only the
  // adopter's heartbeat sustains it.
  g_now = 1000;
  t.open(11, t.now(), nullptr, nullptr);
  EXPECT_TRUE(t.rebind(11, t.now(), &b, nullptr));
  EXPECT_TRUE(t.validate(11, &b, nullptr));
  for (int i = 0; i < 4; ++i) {
    g_now += 40;
    b.last.store(fake_now(), std::memory_order_relaxed);
    EXPECT_EQ(t.reap(t.now(), nullptr), 0u) << "rebind lost the new holder";
  }
  // b stops; a's stamps must not count for b's lease.
  g_now += 50;
  a.last.store(fake_now(), std::memory_order_relaxed);
  EXPECT_EQ(t.reap(t.now(), nullptr), 1u)
      << "a foreign heartbeat kept a rebound lease alive";
}

TEST_F(LeaseUnit, WheelCascadeExpiresInDeadlineOrderAcrossClockJumps) {
  // Deltas straddling the level boundaries of the timer wheel the holder
  // sets replaced (64, 4096, 262144 ticks): each lease must survive any
  // reap before its deadline and die on the first reap at-or-after it —
  // including when the clock jumps past many deadlines at once.
  const std::vector<std::uint64_t> deltas = {1,    2,    63,     64,    65,
                                             100,  4095, 4096,   4097,  9000,
                                             262143, 262144, 262145, 300000};
  const std::uint64_t base = 1000;
  // Per-delta boundary exactness: ttl = delta puts the deadline exactly
  // at base + delta (fresh table per delta so each level is hit alone).
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    SCOPED_TRACE("delta " + std::to_string(deltas[i]));
    Reclaimed r2;
    lease::LeaseTable t2(opts_with(deltas[i]), nullptr);
    t2.set_reclaimer(&Reclaimed::sink, &r2);
    g_now = base;
    t2.open(static_cast<Name>(i), t2.now(), nullptr, nullptr);
    g_now = base + deltas[i] - 1;
    EXPECT_EQ(t2.reap(t2.now(), nullptr), 0u) << "expired a tick early";
    g_now = base + deltas[i];
    EXPECT_EQ(t2.reap(t2.now(), nullptr), 1u) << "failed to expire on time";
  }
  // One shared table, all deadlines staggered, a single coarse jump past
  // every one of them: the cascade must surface each lease exactly once.
  Reclaimed all;
  lease::LeaseTable big(opts_with(/*ttl=*/10), nullptr);
  big.set_reclaimer(&Reclaimed::sink, &all);
  g_now = base;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    g_now = base + deltas[i];  // staggered open times => staggered deadlines
    big.open(static_cast<Name>(100 + i), big.now(), nullptr, nullptr);
  }
  g_now = base + 400000;  // one jump over every level
  EXPECT_EQ(big.reap(big.now(), nullptr), deltas.size());
  EXPECT_EQ(big.leases_live(), 0u);
  std::set<Name> uniq(all.names.begin(), all.names.end());
  EXPECT_EQ(uniq.size(), deltas.size()) << "a lease expired twice or never";
}

TEST_F(LeaseUnit, ClearDropsEverythingWithoutReclaiming) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/10), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  for (Name n = 0; n < 5; ++n) t.open(n, t.now(), nullptr, nullptr);
  t.clear();
  EXPECT_EQ(t.leases_live(), 0u);
  g_now += 1000;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  EXPECT_TRUE(rec.names.empty()) << "clear() must not reclaim cells";
}

TEST_F(LeaseUnit, ClosedLeaseLeavesItsHolderSetAtOnce) {
  // The clock never moves, so no reap could recycle anything: a closed
  // lease must leave its set inside close() itself, with no tombstone
  // left behind to grow the storage. Odd names go to a holder's set,
  // even ones to the holderless set.
  lease::LeaseTable t(opts_with(/*ttl=*/1000), nullptr);
  const lease::Heartbeat& hb = t.register_thread();
  g_now = 77;
  std::vector<std::uint64_t> peak(LeaseTablePeer::sets(t).size(), 0);
  constexpr Name kBatch = 100;
  const auto holder_of = [&](Name n) { return n % 2 != 0 ? &hb : nullptr; };
  for (Name base = 0; base < 10000; base += kBatch) {
    for (Name n = base; n < base + kBatch; ++n) {
      t.open(n, t.now(), holder_of(n), nullptr);
    }
    ASSERT_EQ(LeaseTablePeer::entries(t), t.leases_live());
    const std::vector<LeaseTablePeer::SetView> sets = LeaseTablePeer::sets(t);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      peak[i] = std::max(peak[i], sets[i].entries);
    }
    for (Name n = base; n < base + kBatch; ++n) {
      ASSERT_TRUE(t.close(n, holder_of(n), nullptr));
    }
  }
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(LeaseTablePeer::entries(t), t.leases_live())
      << "closed leases are still in their sets";
  const std::vector<LeaseTablePeer::SetView> sets = LeaseTablePeer::sets(t);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(peak[i], static_cast<std::uint64_t>(kBatch / 2));
    EXPECT_LE(sets[i].capacity, LeaseTablePeer::capacity_for(peak[i]))
        << "set " << i << " grew its storage past peak live";
  }
}

TEST_F(LeaseUnit, DeadlinePastTheWheelSpanExpiresOnTime) {
  // Deadlines at and past 2^24 ticks (the span of the former timer
  // wheel, about 8 ms on the TSC). Clock steps of 2^17 and 2^18 and an
  // unaligned 987654 each walk the clock up to the deadline, landing
  // once on deadline - 1 and once on the deadline.
  const std::uint64_t grace = std::uint64_t{1} << 20;
  const std::vector<std::uint64_t> ttls = {
      std::uint64_t{1} << 24, (std::uint64_t{1} << 24) + 12345,
      std::uint64_t{1} << 26, 3 * (std::uint64_t{1} << 27)};
  const std::vector<std::uint64_t> strides = {std::uint64_t{1} << 17,
                                              std::uint64_t{1} << 18, 987654};
  const std::uint64_t base = 5'000'017;
  for (const std::uint64_t ttl : ttls) {
    for (const std::uint64_t stride : strides) {
      SCOPED_TRACE("ttl " + std::to_string(ttl) + " stride " +
                   std::to_string(stride));
      Reclaimed rec;
      lease::LeaseTable t(opts_with(ttl, grace), nullptr);
      t.set_reclaimer(&Reclaimed::sink, &rec);
      g_now = base;
      t.open(42, t.now(), nullptr, nullptr);
      const std::uint64_t deadline = base + ttl + grace;
      for (std::uint64_t now = base; now < deadline - 1;) {
        now = std::min(now + stride, deadline - 1);
        g_now = now;
        ASSERT_EQ(t.reap(t.now(), nullptr), 0u) << "expired early at " << now;
      }
      EXPECT_EQ(t.leases_live(), 1u);
      g_now = deadline;
      EXPECT_EQ(t.reap(t.now(), nullptr), 1u) << "failed to expire on time";
      EXPECT_EQ(t.leases_live(), 0u);
      EXPECT_EQ(rec.names, std::vector<Name>{42});
    }
  }
}

TEST_F(LeaseUnit, OpenStampedBeforeTheLastReapIsNotParkedARevolutionLate) {
  // A service reads the clock before it takes the set lock, so a reap
  // with a later tick can run first. The lease, stamped before that
  // reap, must still expire on the first reap past its deadline (the
  // former wheel once parked it a revolution late behind its cursor).
  const std::uint64_t base = 3 * (std::uint64_t{1} << 24) + 12345;
  for (unsigned level = 0; level < 4; ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const unsigned shift = 6 * level;
    const std::uint64_t width = std::uint64_t{1} << shift;
    Reclaimed rec;
    lease::LeaseTable t(opts_with(/*ttl=*/2 * width), nullptr);
    t.set_reclaimer(&Reclaimed::sink, &rec);
    g_now = base;
    EXPECT_EQ(t.reap(t.now(), nullptr), 0u);  // cursors up to base
    t.open(9, base - 2 * width, nullptr, nullptr);  // deadline == base
    g_now = ((base >> shift) + 1) << shift;  // the level's next bucket
    EXPECT_EQ(t.reap(t.now(), nullptr), 1u) << "parked behind the cursor";
  }
}

TEST_F(LeaseUnit, ReapOrderHoldsAcrossTheSlotWrap) {
  // Eight deadlines one tick apart (ttl 10) and then one 64 ticks apart
  // (ttl 640), across what were the slot 63 -> 0 wraps of the former
  // wheel's levels 0 and 1. One reap past every deadline must run the
  // reclaim callbacks in deadline order.
  for (unsigned level = 0; level < 2; ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const std::uint64_t width = std::uint64_t{1} << (6 * level);
    const std::uint64_t ttl = 10 * width;
    lease::LeaseOptions o = opts_with(ttl);
    Reclaimed rec;
    lease::LeaseTable t(o, nullptr);
    t.set_reclaimer(&Reclaimed::sink, &rec);
    const std::uint64_t first_due = (64 * 1000 + 60) * width;
    g_now = first_due - ttl;
    EXPECT_EQ(t.reap(t.now(), nullptr), 0u);  // cursors up to the clock
    std::vector<Name> expected;
    for (Name j = 0; j < 8; ++j) {
      g_now = first_due + static_cast<std::uint64_t>(j) * width - ttl;
      t.open(j, t.now(), nullptr, nullptr);
      expected.push_back(j);
    }
    g_now = first_due + 8 * width;
    EXPECT_EQ(t.reap(t.now(), nullptr), 8u);
    EXPECT_EQ(rec.names, expected);
  }
}

TEST_F(LeaseUnit, ConcurrentChurnWithPollsKeepsCountsExact) {
  // Four holders churn their own names on one shared clock (one tick per
  // op) and poll try_reap() every 64 ops, as the services' op path does.
  // Most names close after one op; every 16th is held for 100 ops, past
  // the 32-tick ttl, so the polls expire some of them under the holder.
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  Counting counting;
  lease::LeaseTable t(opts_with(/*ttl=*/32), nullptr);
  t.set_reclaimer(&Counting::sink, &counting);
  std::atomic<std::uint64_t> closes{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      lease::Heartbeat& hb = t.register_thread();
      std::vector<std::pair<Name, int>> held;  // name, op to close it at
      std::uint64_t ok = 0;
      std::uint64_t bad = 0;
      auto close_one = [&](Name n) { (t.close(n, &hb, nullptr) ? ok : bad)++; };
      for (int op = 0; op < kOps; ++op) {
        g_now.fetch_add(1, std::memory_order_relaxed);
        const Name n = (static_cast<Name>(tid) << 32) | op;
        t.open(n, t.now(), &hb, nullptr);
        held.emplace_back(n, op + (op % 16 == 0 ? 100 : 1));
        std::erase_if(held, [&](const std::pair<Name, int>& h) {
          if (h.second > op) return false;
          close_one(h.first);
          return true;
        });
        if ((op & 63) == 63) t.try_reap(t.now(), nullptr);
      }
      for (const auto& h : held) close_one(h.first);
      closes.fetch_add(ok, std::memory_order_relaxed);
      rejected.fetch_add(bad, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.opened(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(closes.load() + t.expired(), t.opened());
  EXPECT_EQ(rejected.load(), t.expired()) << "each expired lease's close trips";
  EXPECT_EQ(t.guard_trips(), rejected.load());
  EXPECT_EQ(counting.reclaimed.load(), t.expired());
  EXPECT_GT(t.expired(), 0u) << "no lease outlived its ttl under churn";
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(LeaseTablePeer::entries(t), 0u);
}

// One HolderBatch over every close outcome at once: a held lease, one the
// reaper already expired, another holder's, a holderless one (adopted by
// the close), and a held name given twice. Each result is the one-name
// close()'s, the batch's own open lands in the holder's set, and the
// table tallies equal the registry counters the batch added to once each.
TEST_F(LeaseUnit, HolderBatchMixedOutcomesMatchOneNameCalls) {
  Reclaimed rec;
  telemetry::MetricsRegistry reg;
  telemetry::MetricsRegistry::ThreadStripe* stripe = &reg.stripe();
  lease::LeaseTable t(opts_with(/*ttl=*/100, /*grace=*/10), &reg);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& a = t.register_thread();
  lease::Heartbeat& b = t.register_thread();
  // a never stamps (beat 0), so each of its leases lives by its own
  // deadline: 3 opened at tick 1 is due at 111, 1 and 2 opened at tick 50
  // at 160.
  t.open(3, t.now(), &a, stripe);
  g_now = 50;
  t.open(1, t.now(), &a, stripe);
  t.open(2, t.now(), &a, stripe);
  b.last.store(fake_now(), std::memory_order_relaxed);
  t.open(4, t.now(), &b, stripe);
  t.open(5, t.now(), nullptr, stripe);  // holderless
  g_now = 120;
  b.last.store(fake_now(), std::memory_order_relaxed);
  ASSERT_EQ(t.reap(t.now(), stripe), 1u);
  ASSERT_EQ(rec.names, std::vector<Name>{3});

  {
    lease::LeaseTable::HolderBatch batch(t, &a, stripe, /*opens=*/1);
    EXPECT_TRUE(batch.close(1)) << "held";
    EXPECT_FALSE(batch.close(3)) << "already reaped";
    EXPECT_FALSE(batch.close(4)) << "another holder's";
    EXPECT_TRUE(batch.close(5)) << "holderless";
    EXPECT_TRUE(batch.close(2)) << "held, first copy";
    EXPECT_FALSE(batch.close(2)) << "held, second copy";
    batch.open(6, t.now());
  }
  EXPECT_EQ(t.leases_live(), 2u);  // b's 4 and a's 6
  EXPECT_TRUE(t.validate(4, &b, stripe));
  EXPECT_TRUE(t.validate(6, &a, stripe));
  EXPECT_EQ(t.opened(), 6u);
  EXPECT_EQ(t.closed(), 3u);
  EXPECT_EQ(t.expired(), 1u);
  EXPECT_EQ(t.guard_trips(), 3u);
  EXPECT_EQ(t.opened(), t.closed() + t.expired() + t.leases_live());
  const auto counter = [&](const char* name) {
    return reg.counter_value(reg.counter(name));
  };
  EXPECT_EQ(counter("lease.opened"), t.opened());
  EXPECT_EQ(counter("lease.closed"), t.closed());
  EXPECT_EQ(counter("lease.expired"), t.expired());
  EXPECT_EQ(counter("lease.guard_trips"), t.guard_trips());
  EXPECT_EQ(LeaseTablePeer::entries(t), 2u);
}

TEST_F(LeaseUnit, HolderBatchSizesTheSetOnceAndLowersTheGateOnce) {
  lease::LeaseTable t(opts_with(/*ttl=*/100), nullptr);
  lease::Heartbeat& hb = t.register_thread();
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  ASSERT_EQ(LeaseTablePeer::next_due(t), kNever);
  {
    lease::LeaseTable::HolderBatch batch(t, &hb, nullptr, /*opens=*/100);
    batch.open(0, t.now());
    const void* sized = LeaseTablePeer::slots(hb);
    ASSERT_NE(sized, nullptr);
    for (Name n = 1; n < 100; ++n) batch.open(n, t.now());
    EXPECT_EQ(LeaseTablePeer::slots(hb), sized) << "a second rehash";
    EXPECT_EQ(LeaseTablePeer::next_due(t), kNever)
        << "the gate moved before the batch ended";
  }
  EXPECT_EQ(LeaseTablePeer::next_due(t), 1u + 100);
  const std::vector<LeaseTablePeer::SetView> sets = LeaseTablePeer::sets(t);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].entries, 100u);
  EXPECT_EQ(sets[0].capacity, LeaseTablePeer::capacity_for(100));
  // A batch that runs no operation never locks, sizes or counts.
  { lease::LeaseTable::HolderBatch idle(t, &hb, nullptr, /*opens=*/1000); }
  EXPECT_EQ(LeaseTablePeer::sets(t)[0].capacity,
            LeaseTablePeer::capacity_for(100));
  EXPECT_EQ(t.opened(), 100u);
}

TEST_F(LeaseUnit, GateNeverHidesADueLease) {
  // Holder a keeps stamping; holder b stops at tick 1000. While the clock
  // is short of next_due a try_reap runs no pass at all; b's leases
  // expire on the first try_reap at their effective deadline (1000 + ttl
  // + grace), never earlier, and a's lease on the first try_reap at its
  // last stamp + ttl + grace.
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/100, /*grace=*/10), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& a = t.register_thread();
  lease::Heartbeat& b = t.register_thread();
  g_now = 1000;
  a.last.store(1000, std::memory_order_relaxed);
  b.last.store(1000, std::memory_order_relaxed);
  t.open(1, t.now(), &a, nullptr);
  t.open(2, t.now(), &b, nullptr);
  t.open(3, t.now(), &b, nullptr);
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  EXPECT_EQ(LeaseTablePeer::next_due(t), 1110u);
  const std::uint64_t passes = LeaseTablePeer::passes(t);
  for (std::uint64_t now = 1001; now < 1110; ++now) {
    g_now = now;
    if (now % 10 == 0) a.last.store(now, std::memory_order_relaxed);
    ASSERT_EQ(t.try_reap(t.now(), nullptr), 0u) << "expired early at " << now;
  }
  EXPECT_EQ(LeaseTablePeer::passes(t), passes)
      << "a try_reap before next_due ran a pass";
  EXPECT_EQ(t.leases_live(), 3u);
  g_now = 1110;
  EXPECT_EQ(t.try_reap(t.now(), nullptr), 2u);
  EXPECT_EQ(LeaseTablePeer::passes(t), passes + 1);
  std::sort(rec.names.begin(), rec.names.end());
  EXPECT_EQ(rec.names, (std::vector<Name>{2, 3}));
  // a stamped last at 1100, so its lease is due at 1210.
  EXPECT_EQ(LeaseTablePeer::next_due(t), 1210u);
  g_now = 1209;
  EXPECT_EQ(t.try_reap(t.now(), nullptr), 0u);
  EXPECT_EQ(LeaseTablePeer::passes(t), passes + 1);
  g_now = 1210;
  EXPECT_EQ(t.try_reap(t.now(), nullptr), 1u);
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(LeaseTablePeer::next_due(t), ~std::uint64_t{0}) << "nothing is live";
}

TEST_F(LeaseUnit, OpenRacingAPassIsNotLost) {
  // Each round opens a trigger lease and lets it fall due, then starts two
  // pollers and four holders together: a poller's try_reap runs a pass
  // for the trigger while each holder opens one short-ttl lease. A ballast
  // holder with thousands of far-off leases, registered last so that a
  // pass reads the holders' sets before it scans the ballast, makes every
  // pass long, so the opens tend to land after the pass read their sets
  // as empty. Once every thread has stopped, try_reap alone must reap
  // every lease by its deadline: a pass that raised the gate past a lease
  // it did not see would leave that lease live.
  constexpr std::uint64_t kTtl = 2;
  constexpr std::uint64_t kGrace = 1;
  constexpr std::uint64_t kBallast = 16384;
  constexpr int kHolders = 4;
  constexpr int kPollers = 2;
  constexpr int kRounds = 200;
  Counting counting;
  lease::LeaseTable t(opts_with(kTtl, kGrace), nullptr);
  t.set_reclaimer(&Counting::sink, &counting);
  std::vector<const lease::Heartbeat*> hbs;
  for (int h = 0; h < kHolders; ++h) hbs.push_back(&t.register_thread());
  const lease::Heartbeat& ballast = t.register_thread();
  for (std::uint64_t i = 0; i < kBallast; ++i) {
    t.open(static_cast<Name>(i), std::uint64_t{1} << 40, &ballast, nullptr);
  }
  for (int round = 0; round < kRounds; ++round) {
    const Name base = (Name{1} << 32) | (static_cast<Name>(round) << 8);
    t.open(base | 0xFF, t.now(), nullptr, nullptr);  // the trigger
    g_now += kTtl + kGrace;
    std::atomic<bool> go{false};
    std::atomic<int> holding{kHolders};
    std::vector<std::thread> threads;
    for (int p = 0; p < kPollers; ++p) {
      threads.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        while (holding.load() > 0) t.try_reap(t.now(), nullptr);
      });
    }
    for (int h = 0; h < kHolders; ++h) {
      threads.emplace_back([&, h] {
        while (!go.load()) std::this_thread::yield();
        // Let a poller's pass get past the holders' sets first.
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::microseconds(2)) {
        }
        t.open(base | h, t.now(), hbs[h], nullptr);
        holding.fetch_sub(1);
      });
    }
    go.store(true);
    for (auto& th : threads) th.join();
    g_now += kTtl + kGrace;
    t.try_reap(t.now(), nullptr);
    ASSERT_EQ(t.leases_live(), kBallast)
        << "round " << round << ": the gate hid a due lease";
  }
  EXPECT_EQ(t.expired(), t.opened() - kBallast);
  EXPECT_EQ(counting.reclaimed.load(), t.expired());
}

TEST_F(LeaseUnit, ExitedHoldersAreReapedAndReleased) {
  // 500 short-lived holders, four alive at a time, each stamp once, open
  // two leases and exit without closing them. Their nodes outlive them
  // (orphaned, not recycled, while they hold leases): every lease
  // expires at stamp + ttl + grace, and the pass that empties a set
  // recycles its node with its storage, for the next holder to register.
  constexpr int kHolders = 500;
  constexpr int kWave = 4;
  Counting counting;
  lease::LeaseTable t(opts_with(/*ttl=*/100, /*grace=*/10), nullptr);
  t.set_reclaimer(&Counting::sink, &counting);
  g_now = 1000;
  for (int base = 0; base < kHolders; base += kWave) {
    std::vector<std::thread> wave;
    for (int h = base; h < base + kWave; ++h) {
      wave.emplace_back([&t, h] {
        lease::Heartbeat& hb = t.register_thread();
        hb.last.store(fake_now(), std::memory_order_relaxed);
        t.open(2 * h, t.now(), &hb, nullptr);
        t.open(2 * h + 1, t.now(), &hb, nullptr);
        t.retire_thread(hb);
      });
    }
    for (auto& th : wave) th.join();
  }
  constexpr std::uint64_t kLeases = 2 * kHolders;
  EXPECT_EQ(t.leases_live(), kLeases);
  EXPECT_EQ(LeaseTablePeer::heartbeats(t), static_cast<std::size_t>(kHolders))
      << "a node holding leases was recycled";
  g_now = 1109;
  EXPECT_EQ(t.try_reap(t.now(), nullptr), 0u);
  g_now = 1110;
  EXPECT_EQ(t.try_reap(t.now(), nullptr), kLeases);
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(t.expired(), kLeases);
  EXPECT_EQ(counting.reclaimed.load(), kLeases);
  const std::vector<LeaseTablePeer::SetView> sets = LeaseTablePeer::sets(t);
  EXPECT_EQ(sets.size(), kHolders + 1u);  // and the holderless set
  for (std::size_t i = 0; i + 1 < sets.size(); ++i) {
    EXPECT_EQ(sets[i].entries, 0u);
    EXPECT_EQ(sets[i].capacity, lease::detail::LeaseSet::kMinCapacity)
        << "an emptied set gave up the storage its next owner needs";
  }
  // The next holder takes a recycled node, its block ready: no node and
  // no storage is allocated, and the totals carry on from the old owner.
  lease::Heartbeat& next = t.register_thread();
  EXPECT_EQ(next.last.load(), 0u) << "a recycled node kept its stamp";
  t.open(2 * kHolders, t.now(), &next, nullptr);
  EXPECT_EQ(LeaseTablePeer::heartbeats(t), static_cast<std::size_t>(kHolders));
  EXPECT_EQ(LeaseTablePeer::sets(t).size(), kHolders + 1u);
  EXPECT_EQ(t.opened(), kLeases + 1);
  EXPECT_EQ(t.expired(), kLeases);
}

TEST_F(LeaseUnit, RetiredHoldersAreRecycledWithTotalsIntact) {
  // Holders that retire with an empty set are recycled at once; holders
  // that retire holding leases are recycled by the pass that expires
  // them. With a reap between waves, the nodes never outnumber the
  // holders alive at once, and every tally stays exact across owners.
  constexpr int kWaves = 50;
  constexpr int kWave = 4;
  Counting counting;
  lease::LeaseTable t(opts_with(/*ttl=*/100), nullptr);
  t.set_reclaimer(&Counting::sink, &counting);
  g_now = 1000;
  Name next_name = 0;
  std::uint64_t abandoned = 0;
  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::thread> wave;
    for (int h = 0; h < kWave; ++h) {
      const Name base = next_name;
      next_name += 3;
      const bool abandons = h % 2 == 0;
      abandoned += abandons ? 1 : 0;
      wave.emplace_back([&t, base, abandons] {
        lease::Heartbeat& hb = t.register_thread();
        hb.last.store(fake_now(), std::memory_order_relaxed);
        for (Name n = base; n < base + 3; ++n) t.open(n, t.now(), &hb, nullptr);
        ASSERT_TRUE(t.close(base, &hb, nullptr));
        ASSERT_TRUE(t.close(base + 1, &hb, nullptr));
        if (!abandons) {
          ASSERT_TRUE(t.close(base + 2, &hb, nullptr));
        }
        t.retire_thread(hb);
      });
    }
    for (auto& th : wave) th.join();
    ASSERT_LE(LeaseTablePeer::heartbeats(t), static_cast<std::size_t>(kWave));
    g_now += 200;  // every abandoned lease is due
    t.reap(t.now(), nullptr);
    ASSERT_EQ(t.leases_live(), 0u) << "wave " << w;
  }
  EXPECT_LE(LeaseTablePeer::heartbeats(t), static_cast<std::size_t>(kWave));
  EXPECT_EQ(t.opened(), 3u * kWaves * kWave);
  EXPECT_EQ(t.expired(), abandoned);
  EXPECT_EQ(counting.reclaimed.load(), abandoned);
  EXPECT_EQ(t.guard_trips(), 0u);
}

// ---------------------------------------------- service integration ----

class LeaseService : public ::testing::Test {
 protected:
  void SetUp() override { g_now.store(1, std::memory_order_relaxed); }
};

// The revived holder of the late-release tests: a live thread that
// acquires one name and goes dark until revive() runs a late operation on
// it. The name is reaped and reacquired by a *different* thread meanwhile
// (the reap hands the cell back to the lowest free bit, so the reacquirer
// typically gets the same name bits), which is the foreign-identity,
// same-bits case the lease guard exists for. A same-thread reacquire
// would make the "late" release the holder's own legitimate one.
class DarkHolder {
 public:
  template <class Service>
  explicit DarkHolder(Service& svc)
      : thread_([this, &svc] {
          name_ = svc.acquire();
          acquired_.store(true);
          while (!revived_.load()) std::this_thread::yield();
          late_op_(name_);
        }) {
    while (!acquired_.load()) std::this_thread::yield();
  }
  ~DarkHolder() {
    if (thread_.joinable()) revive([](Name) {});
  }
  DarkHolder(const DarkHolder&) = delete;
  DarkHolder& operator=(const DarkHolder&) = delete;

  [[nodiscard]] Name name() const { return name_; }
  /// Runs `op(name())` on the holder's thread and waits for it to exit.
  void revive(std::function<void(Name)> op) {
    late_op_ = std::move(op);
    revived_.store(true);
    thread_.join();
  }

 private:
  Name name_ = -1;
  std::function<void(Name)> late_op_;
  std::atomic<bool> acquired_{false};
  std::atomic<bool> revived_{false};
  std::thread thread_;  // last: starts once every member above exists
};

TEST_F(LeaseService, FixedServiceReapsAbandonedNamesBackIntoTheArena) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/1000, /*grace=*/100);
  RenamingService svc(64, opts);
  ASSERT_TRUE(svc.leasing_enabled());

  // The crashed holder: grabs 16 names on its own thread and exits
  // without releasing — the classic liveness leak.
  std::vector<Name> abandoned;
  std::thread victim([&] {
    for (int i = 0; i < 16; ++i) {
      const Name n = svc.acquire();
      ASSERT_GE(n, 0);
      abandoned.push_back(n);
    }
  });
  victim.join();
  EXPECT_EQ(svc.names_live(), 16u);
  EXPECT_EQ(svc.leases_live(), 16u);

  // Before the ttl runs out the names are (correctly) still theirs.
  g_now += 500;
  EXPECT_EQ(svc.reap_expired(), 0u);
  EXPECT_EQ(svc.names_live(), 16u);

  // Past ttl + grace the reaper hands every cell back.
  g_now += 1000;
  EXPECT_EQ(svc.reap_expired(), 16u);
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.lease_expired(), 16u);

  // The namespace really is whole again: the full capacity is acquirable
  // with no duplicates, including the formerly abandoned names.
  std::set<Name> seen;
  for (std::uint64_t i = 0; i < svc.capacity(); ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0) << "arena lost cells to the reap";
    ASSERT_TRUE(seen.insert(n).second) << "duplicate " << n;
  }
  for (const Name n : abandoned) EXPECT_TRUE(seen.count(n));
}

TEST_F(LeaseService, FixedServiceRejectsARevivedHoldersLateRelease) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/100);
  RenamingService svc(64, opts);

  DarkHolder holder(svc);
  ASSERT_GE(holder.name(), 0);
  g_now += 500;  // the holder goes dark for 5 ttls...
  EXPECT_EQ(svc.reap_expired(), 1u);
  EXPECT_EQ(svc.names_live(), 0u);

  // ...another thread reacquires, then the holder revives and tries to
  // release. The lease guard must reject it: the cell belongs to someone
  // else now.
  const Name other = svc.acquire();
  ASSERT_GE(other, 0);
  bool late_release = true;
  holder.revive([&](Name n) { late_release = svc.release(n); });
  EXPECT_FALSE(late_release) << "late release of an expired lease accepted";
  EXPECT_GE(svc.lease_guard_trips(), 1u);
  EXPECT_EQ(svc.names_live(), 1u) << "the late release freed a victim's cell";
  EXPECT_TRUE(svc.release(other));
}

TEST_F(LeaseService, FixedServiceRenewLeaseContract) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/100);
  RenamingService svc(64, opts);

  const Name n = svc.acquire();
  ASSERT_GE(n, 0);
  // Explicit renewals carry a quiet holder across many ttls.
  for (int i = 0; i < 10; ++i) {
    g_now += 90;
    EXPECT_EQ(svc.renew_lease(n), n);
  }
  EXPECT_EQ(svc.reap_expired(), 0u);
  EXPECT_TRUE(svc.release(n));
  // A renewal after expiry reports exactly kLeaseExpired.
  const Name m = svc.acquire();
  ASSERT_GE(m, 0);
  g_now += 1000;
  EXPECT_EQ(svc.reap_expired(), 1u);
  EXPECT_EQ(svc.renew_lease(m), RenamingService::kLeaseExpired);
}

TEST_F(LeaseService, FixedServiceOpsHeartbeatLeasesAliveImplicitly) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/100, /*grace=*/10);
  RenamingService svc(64, opts);

  // A churning holder never explicitly renews: its ordinary acquire/
  // release traffic stamps the heartbeat, which must keep the *held*
  // name alive across 50 ttls of wall time.
  const Name held = svc.acquire();
  ASSERT_GE(held, 0);
  for (int i = 0; i < 100; ++i) {
    g_now += 50;  // each gap well under ttl
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    ASSERT_TRUE(svc.release(n));
  }
  EXPECT_EQ(svc.reap_expired(), 0u) << "a live, churning holder was expired";
  EXPECT_EQ(svc.lease_expired(), 0u);
  EXPECT_TRUE(svc.release(held));
}

TEST_F(LeaseService, ElasticServiceReapsAbandonedNamesAndReissuesThem) {
  ElasticOptions opts;
  opts.name_cache = false;
  opts.min_holders = 64;
  opts.max_holders = 256;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  opts.lease = opts_with(/*ttl=*/1000, /*grace=*/100);
  ElasticRenamingService svc(64, opts);
  ASSERT_TRUE(svc.leasing_enabled());

  std::vector<Name> abandoned;
  std::thread victim([&] {
    for (int i = 0; i < 16; ++i) {
      const Name n = svc.acquire();
      ASSERT_GE(n, 0);
      abandoned.push_back(n);
    }
  });
  victim.join();
  EXPECT_EQ(svc.names_live(), 16u);

  g_now += 2000;
  EXPECT_EQ(svc.reap_expired(), 16u);
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.lease_expired(), 16u);

  // Reclaimed cells are reissued: drain the whole group uniquely.
  std::set<Name> seen;
  std::vector<Name> mine;
  for (;;) {
    const Name n = svc.acquire();
    if (n < 0) break;
    ASSERT_TRUE(seen.insert(n).second) << "duplicate " << n;
    mine.push_back(n);
  }
  EXPECT_GE(seen.size(), 16u);
  for (const Name n : mine) EXPECT_TRUE(svc.release(n));
}

TEST_F(LeaseService, ElasticServiceRejectsLateReleaseAndRenewAfterExpiry) {
  ElasticOptions opts;
  opts.name_cache = false;
  opts.min_holders = 64;
  opts.max_holders = 256;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  opts.lease = opts_with(/*ttl=*/100);
  ElasticRenamingService svc(64, opts);

  DarkHolder holder(svc);
  ASSERT_GE(holder.name(), 0);
  g_now += 500;
  EXPECT_EQ(svc.reap_expired(), 1u);
  EXPECT_EQ(svc.names_live(), 0u);
  const Name other = svc.acquire();
  ASSERT_GE(other, 0);
  Name late_renew = 0;
  bool late_release = true;
  holder.revive([&](Name n) {
    late_renew = svc.renew_lease(n);
    late_release = svc.release(n);
  });
  EXPECT_EQ(late_renew, ElasticRenamingService::kLeaseExpired);
  EXPECT_FALSE(late_release);
  EXPECT_GE(svc.lease_guard_trips(), 1u);
  EXPECT_EQ(svc.names_live(), 1u);
  EXPECT_TRUE(svc.release(other));
}

// A foreign release under leasing: thread B presents a name thread A holds.
// Both release surfaces must reject it with one guard trip each and leave
// A's cell taken, whether B's stash would absorb the name (cache on: the
// lease rebind refuses) or the name goes to the shared path (cache off:
// the lease close refuses). A's own release then succeeds.
template <class Service, class Options>
void expect_foreign_release_rejected(Options opts) {
  for (const bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "name cache on" : "name cache off");
    opts.name_cache = cache;
    Service svc(64, opts);
    const Name n = svc.acquire();  // thread A: the main thread
    ASSERT_GE(n, 0);
    bool released = true;
    std::uint64_t freed = 1;
    std::uint64_t trips_after_release = 0;
    std::uint64_t live_after_release = 0;
    std::thread b([&] {
      released = svc.release(n);
      trips_after_release = svc.lease_guard_trips();
      live_after_release = svc.names_live();
      freed = svc.release_many(&n, 1);
    });
    b.join();
    EXPECT_FALSE(released) << "a foreign release() freed a held name";
    EXPECT_EQ(trips_after_release, 1u);
    EXPECT_EQ(live_after_release, 1u);
    EXPECT_EQ(freed, 0u) << "a foreign release_many() freed a held name";
    EXPECT_EQ(svc.lease_guard_trips(), 2u);
    EXPECT_EQ(svc.names_live(), 1u) << "the holder's cell was freed";
    EXPECT_EQ(svc.leases_live(), 1u);
    EXPECT_TRUE(svc.release(n)) << "the holder's own release was rejected";
    svc.flush_thread_cache();
    EXPECT_EQ(svc.names_live(), 0u);
    EXPECT_EQ(svc.lease_guard_trips(), 2u);
  }
}

TEST_F(LeaseService, ForeignReleaseIsRejectedOnBothServices) {
  {
    SCOPED_TRACE("RenamingService");
    RenamingServiceOptions opts;
    opts.lease = opts_with(/*ttl=*/1000);
    expect_foreign_release_rejected<RenamingService>(opts);
  }
  {
    SCOPED_TRACE("ElasticRenamingService");
    ElasticOptions opts;
    opts.min_holders = 64;
    opts.max_holders = 256;
    opts.auto_grow = false;
    opts.auto_shrink = false;
    opts.lease = opts_with(/*ttl=*/1000);
    expect_foreign_release_rejected<ElasticRenamingService>(opts);
  }
}

TEST_F(LeaseService, EveryGuardTripReachesTheRegistry) {
  // One trip from rebind (a foreign release the stash would absorb) and
  // one from validate (the stash revalidation after a stale gap): the
  // registry's lease.guard_trips counter must see both, like the table.
  RenamingServiceOptions opts;
  opts.name_cache = true;
  opts.lease = opts_with(/*ttl=*/100, /*grace=*/10);
  RenamingService svc(64, opts);
  Name foreign = -1;
  std::thread([&] { foreign = svc.acquire(); }).join();
  ASSERT_GE(foreign, 0);
  const Name own = svc.acquire();
  ASSERT_GE(own, 0);
  ASSERT_TRUE(svc.release(own));  // parked in the stash, lease rebound
  EXPECT_FALSE(svc.release(foreign)) << "a foreign lease was rebound";
  EXPECT_EQ(svc.lease_guard_trips(), 1u);
  // Past ttl + grace, a reap expires both leases; the next op's stale-gap
  // revalidation finds the stashed name's lease gone.
  g_now.fetch_add(200, std::memory_order_relaxed);
  EXPECT_EQ(svc.reap_expired(), 2u);
  const Name fresh = svc.acquire();
  ASSERT_GE(fresh, 0);
  EXPECT_EQ(svc.lease_guard_trips(), 2u);
  const telemetry::MetricsSnapshot snap = svc.metrics_registry().snapshot();
  const telemetry::CounterSnapshot* trips = snap.counter("lease.guard_trips");
  ASSERT_NE(trips, nullptr);
  EXPECT_EQ(trips->value, svc.lease_guard_trips());
}

// release_many of a batch of leased names racing a reaper that keeps
// stepping the clock past ttl + grace: each name is either closed by the
// release or expired by the reaper, never both, so every cell is freed
// exactly once and every lease the release lost is one guard trip.
template <class Service, class Options>
void race_release_many_against_reaper(Options opts) {
  constexpr std::uint64_t kNames = 16;
  constexpr int kRounds = 40;
  opts.name_cache = false;  // every release reaches the shared path
  opts.lease = opts_with(/*ttl=*/100, /*grace=*/10);
  Service svc(64, opts);
  std::uint64_t released = 0;
  std::uint64_t reaped = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> stage{0};  // 1: names held, 2: their leases stale
    std::uint64_t freed = 0;
    std::thread holder([&] {
      Name names[kNames];
      ASSERT_EQ(svc.acquire_many(kNames, names), kNames);
      stage.store(1);
      while (stage.load() != 2) std::this_thread::yield();
      freed = svc.release_many(names, kNames);
      stage.store(3);
    });
    std::uint64_t round_reaped = 0;
    while (stage.load() != 1) std::this_thread::yield();
    // On even rounds the holder's release and the first pass start
    // together after its leases went stale, so either may reach the set
    // first; on odd rounds the passes start a little later, so the
    // release usually does.
    if (round % 2 == 0) {
      g_now.fetch_add(100 + 10 + 1, std::memory_order_relaxed);
      stage.store(2);
    } else {
      stage.store(2);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    while (stage.load() != 3) {
      g_now.fetch_add(100 + 10 + 1, std::memory_order_relaxed);
      round_reaped += svc.reap_expired();
    }
    holder.join();
    round_reaped += svc.reap_expired();
    EXPECT_EQ(freed + round_reaped, kNames)
        << "round " << round << ": a cell was freed twice or leaked";
    released += freed;
    reaped += round_reaped;
  }
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.leases_live(), 0u);
  const lease::LeaseTable& t = *svc.lease_table();
  EXPECT_EQ(t.opened(), kNames * kRounds);
  EXPECT_EQ(t.opened(), t.closed() + t.expired());
  EXPECT_EQ(t.closed(), released);
  EXPECT_EQ(t.expired(), reaped);
  EXPECT_EQ(t.guard_trips(), reaped) << "each lost close is one trip";
}

TEST_F(LeaseService, FixedReleaseManyRacingTheReaperFreesEachCellOnce) {
  race_release_many_against_reaper<RenamingService>(RenamingServiceOptions{});
}

TEST_F(LeaseService, ElasticReleaseManyRacingTheReaperFreesEachCellOnce) {
  ElasticOptions opts;
  opts.min_holders = 64;
  opts.max_holders = 256;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  race_release_many_against_reaper<ElasticRenamingService>(opts);
}

TEST_F(LeaseService, StashAbsorbedNamesStayLeasedAndReapable) {
  // With the cache on, a release parks the name in the stash (cell stays
  // taken, lease stays open, rebound to the stashing thread). If that
  // thread then dies *holding a stash*, the exit flush returns the names
  // — but if it parks forever without exiting, the reaper must still get
  // them. Simulate the park by just going quiet on the main thread's
  // stash from a helper thread's point of view.
  RenamingServiceOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  opts.lease = opts_with(/*ttl=*/100, /*grace=*/10);
  RenamingService svc(64, opts);

  std::thread quiet_holder([&] {
    Name names[8];
    ASSERT_EQ(svc.acquire_many(8, names), 8u);
    ASSERT_EQ(svc.release_many(names, 8), 8u);
    // The names are now parked in this thread's stash, leases rebound to
    // this thread — and the thread blocks forever (simulated: it simply
    // stops calling the service; the thread object outlives the reap).
    ASSERT_EQ(svc.names_live(), 8u) << "stash absorb should keep cells taken";
  });
  quiet_holder.join();
  // NB: joining ran the exit flush, which releases the stash through the
  // shared path — so this exercises flush-beats-reaper: the leases were
  // closed by the flush and the reaper finds nothing.
  EXPECT_EQ(svc.names_live(), 0u);
  g_now += 1000;
  EXPECT_EQ(svc.reap_expired(), 0u)
      << "the exit flush already closed these leases";
  EXPECT_EQ(svc.lease_guard_trips(), 0u);
}

}  // namespace
}  // namespace loren
