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
//   * wheel cascade math — deadlines spanning all four wheel levels
//     (deltas around the 64 / 4096 / 262144 level boundaries) expire in
//     deadline order across coarse clock jumps, each exactly once;
//   * service integration (both services) — abandoned names are reaped
//     back into the arena and become re-acquirable, a revived holder's
//     late release is rejected, renew_lease reports kLeaseExpired.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "lease/lease_table.h"
#include "renaming/service.h"

namespace loren {
namespace {

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
  EXPECT_TRUE(t.validate(9, &a));
  EXPECT_FALSE(t.validate(9, &b)) << "validate matched a foreign holder";
  // A lease bound to a live holder is not stealable — the same-bits ABA
  // defense: when a reaped name is reissued, the revived original holder
  // presents the wrong heartbeat and every mutation is rejected instead
  // of silently applied to the new holder's lease.
  EXPECT_FALSE(t.rebind(9, t.now(), &b));
  EXPECT_FALSE(t.close(9, &b, nullptr)) << "foreign close closed a's lease";
  EXPECT_FALSE(t.renew(9, t.now(), &b, nullptr));
  EXPECT_GE(t.guard_trips(), 3u);
  EXPECT_EQ(t.leases_live(), 1u);
  // Self-rebind is the refresh path (a stash re-absorb by the holder).
  EXPECT_TRUE(t.rebind(9, t.now(), &a));
  EXPECT_TRUE(t.close(9, &a, nullptr));
  // A holderless lease may be adopted by anyone; from then on only the
  // adopter's heartbeat sustains it.
  g_now = 1000;
  t.open(11, t.now(), nullptr, nullptr);
  EXPECT_TRUE(t.rebind(11, t.now(), &b));
  EXPECT_TRUE(t.validate(11, &b));
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
  // Deltas straddling every wheel-level boundary (levels cover 64, 4096,
  // 262144, 16777216 ticks): each lease must survive any reap before its
  // deadline and die on the first reap at-or-after it — including when
  // the clock jumps over several levels' worth of slots at once.
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
