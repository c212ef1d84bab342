// Deterministic crash-storm scenarios for the lease subsystem
// (lease/lease_table.h): parked holders, the reaper, and the late-release
// guard, all driven under the ScenarioEngine's seeded scheduler with a
// test-owned lease clock (a file-scope counter the scenario advances
// explicitly, so every deadline comparison in a run is replayable).
//
// The three claims pinned here, per docs/leases.md:
//   1. Recovery: a storm that parks holders forever (crash model:
//      StallRule{stall_steps = 0}) ends with every abandoned name
//      reclaimed, zero false expiries of live renewing holders, and
//      global uniqueness intact throughout.
//   2. The same storm without leasing demonstrably leaks — the namespace
//      stays down by exactly the abandoned names with no mechanism to
//      recover them.
//   3. The release guard is load-bearing: a pinned schedule stalls a
//      releaser *inside* LeaseTable::close while the reaper expires the
//      lease and the name is reissued to another thread. With the guard
//      on, the revived holder's release is rejected (an hb-identity
//      trip); with release_guard = false the same schedule applies the
//      stale release to the new holder's cell and the very next acquire
//      double-grants the name — the silent ABA the guard exists to stop.
//   4. A batch closes under one lock, yet each name's close still races
//      the reaper correctly: an elastic release_many stalled at its first
//      lease.close (before the holder set's lock) loses every name to a
//      reaper that expires them and reissues one, and frees none of them;
//      stalled at its second lease.close (inside the lock) it keeps every
//      name, the reaper waiting on the lock and then finding nothing.
//
// Only builds under -DLOREN_SIM (CMakeLists excludes scenario_* tests
// otherwise): the stalls aim at LOREN_SIM_POINT tags.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "elastic/elastic_service.h"
#include "renaming/service.h"
#include "sim/scenario/engine.h"
#include "sim/scenario/scenario.h"

namespace loren {
namespace {

using scenario::Scenario;
using scenario::ScenarioEngine;
using scenario::StallRule;
using Worker = ScenarioEngine::Worker;
using sim::Name;

// Test-owned lease clock. The engine's step counter would also be
// deterministic, but it only ticks on worker threads — the post-storm
// reap below runs from the main thread, which must see the same clock
// the workers' heartbeats were stamped with.
std::atomic<std::uint64_t> g_now{1};
std::uint64_t fake_now() { return g_now.load(std::memory_order_relaxed); }

// Same recorder discipline as scenario_test.cpp: no gtest asserts on
// worker threads; bodies record, main asserts with seed + trace.
struct Checks {
  std::mutex mu;
  std::vector<std::string> failures;
  void fail(std::string msg) {
    std::lock_guard<std::mutex> lock(mu);
    failures.push_back(std::move(msg));
  }
  [[nodiscard]] bool ok() {
    std::lock_guard<std::mutex> lock(mu);
    return failures.empty();
  }
  [[nodiscard]] std::string summary() {
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    for (const std::string& f : failures) out += "  " + f + "\n";
    return out;
  }
};

struct HeldSet {
  std::mutex mu;
  std::set<Name> names;
  bool add(Name n) {
    std::lock_guard<std::mutex> lock(mu);
    return names.insert(n).second;
  }
  void remove(Name n) {
    std::lock_guard<std::mutex> lock(mu);
    names.erase(n);
  }
};

ElasticOptions storm_options(std::uint64_t ttl, std::uint64_t grace) {
  ElasticOptions opts;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  // Cache off: every acquisition must walk the instrumented shared path
  // (and open a lease there), and stashes would blur the live-name
  // accounting the storm asserts on.
  opts.name_cache = false;
  opts.lease.ttl_ticks = ttl;
  opts.lease.grace = grace;
  opts.lease.clock = &fake_now;
  return opts;
}

// A holder that "crashes": acquires `count` names, records them, then
// parks forever at victim.hold (the matching StallRule has
// stall_steps = 0). Resumed only by eng.finish(), at which point its
// leases are long reaped — every late release must come back rejected.
ScenarioEngine::Body victim(ElasticRenamingService* svc, Checks* checks,
                            HeldSet* held, std::mutex* abandoned_mu,
                            std::vector<Name>* abandoned, int count) {
  return [=](Worker& w) {
    std::vector<Name> mine;
    for (int i = 0; i < count; ++i) {
      w.yield("victim.acquire");
      const Name n = svc->acquire();
      if (n < 0) {
        checks->fail("victim acquire failed pre-crash");
        continue;
      }
      if (!held->add(n)) {
        checks->fail("duplicate live name " + std::to_string(n) +
                     " acquired by victim w" + std::to_string(w.id()));
      }
      mine.push_back(n);
    }
    {
      std::lock_guard<std::mutex> lock(*abandoned_mu);
      abandoned->insert(abandoned->end(), mine.begin(), mine.end());
    }
    w.yield("victim.hold");  // parks here: the crash
    // --- revived by finish(), far in the future ---
    for (const Name n : mine) {
      if (svc->release(n)) {
        checks->fail("revived holder's late release of " + std::to_string(n) +
                     " was APPLIED (silent ABA)");
      }
    }
  };
}

// A live holder: churns acquire/release and must never be falsely
// expired — every release of a name it holds has to succeed.
ScenarioEngine::Body churner(ElasticRenamingService* svc, Checks* checks,
                             HeldSet* held, int ops) {
  return [=](Worker& w) {
    std::vector<Name> mine;
    for (int i = 0; i < ops; ++i) {
      w.yield("churn.op");
      if (mine.size() < 6 && (mine.empty() || w.rng().below(2) == 0)) {
        const Name n = svc->acquire();
        if (n < 0) continue;
        if (!held->add(n)) {
          checks->fail("duplicate live name " + std::to_string(n));
        }
        mine.push_back(n);
      } else {
        const Name n = mine.back();
        mine.pop_back();
        held->remove(n);
        if (!svc->release(n)) {
          checks->fail("live holder's release of " + std::to_string(n) +
                       " rejected (false expiry)");
        }
      }
    }
    for (const Name n : mine) {
      held->remove(n);
      if (!svc->release(n)) {
        checks->fail("live holder's final release rejected (false expiry)");
      }
    }
  };
}

// The lease clock: one engine worker advancing g_now a tick per slice,
// so time moves *during* the storm (heartbeats are stamped at differing
// ticks, renewals matter) while staying far below ttl + grace — a false
// expiry of a churner is a bug, not a flake.
ScenarioEngine::Body ticker(int ticks) {
  return [=](Worker& w) {
    for (int i = 0; i < ticks; ++i) {
      w.yield("clock.tick");
      g_now.fetch_add(1, std::memory_order_relaxed);
    }
  };
}

struct StormResult {
  std::string trace;
  std::size_t abandoned = 0;
  std::uint64_t reaped = 0;
};

// One full crash-storm: 2 victims park holding names, 2 churners + the
// ticker keep running; after run() returns the main thread jumps the
// clock past ttl + grace and reaps; finish() then revives the victims
// into a world where their names belong to someone else.
StormResult run_crash_storm(std::uint64_t seed, bool leases_on) {
  g_now.store(1, std::memory_order_relaxed);
  const std::uint64_t ttl = 5000;
  const std::uint64_t grace = 100;
  ElasticRenamingService svc(
      64, storm_options(leases_on ? ttl : 0, leases_on ? grace : 0));
  Checks checks;
  HeldSet held;
  std::mutex abandoned_mu;
  std::vector<Name> abandoned;

  Scenario scn;
  scn.seed = seed;
  scn.preempt_every = 1;
  // Workers 0 and 1 are the victims: park forever at the hold point.
  scn.stalls.push_back(StallRule{"victim.hold", 0, 0, 0, 1});
  scn.stalls.push_back(StallRule{"victim.hold", 1, 0, 0, 1});

  ScenarioEngine eng(scn);
  const bool done =
      eng.run({victim(&svc, &checks, &held, &abandoned_mu, &abandoned, 4),
               victim(&svc, &checks, &held, &abandoned_mu, &abandoned, 4),
               churner(&svc, &checks, &held, 40),
               churner(&svc, &checks, &held, 40), ticker(400)});

  StormResult r;
  EXPECT_TRUE(done) << "livelock guard tripped\n" << eng.trace();
  EXPECT_EQ(eng.parked(), 2u) << "a victim failed to crash\n" << eng.trace();
  EXPECT_TRUE(checks.ok()) << checks.summary() << "seed " << seed << "\n"
                           << eng.trace();
  r.abandoned = abandoned.size();
  EXPECT_GE(r.abandoned, 1u);
  // Churners drained; exactly the abandoned names are still live, and
  // nothing expired while every holder was either live or not yet stale.
  EXPECT_EQ(svc.names_live(), r.abandoned);
  if (leases_on) {
    EXPECT_EQ(svc.lease_expired(), 0u) << "a lease expired mid-storm";
    EXPECT_EQ(svc.lease_guard_trips(), 0u) << "a guard tripped mid-storm";
  }

  // The holders are dead; let their leases go stale and reap.
  g_now.fetch_add(ttl + grace + 1, std::memory_order_relaxed);
  r.reaped = svc.reap_expired();

  if (leases_on) {
    EXPECT_EQ(r.reaped, r.abandoned) << "reaper missed abandoned names";
    EXPECT_EQ(svc.lease_expired(), r.abandoned);
    EXPECT_EQ(svc.names_live(), 0u) << "abandoned names not reclaimed";
    // The recovered capacity is genuinely reusable: re-acquire it all.
    // (These leases bind to the main thread's heartbeat — which is the
    // point: the revived victims below present the wrong identity.)
    std::vector<Name> reissued(r.abandoned);
    EXPECT_EQ(svc.acquire_many(reissued.size(), reissued.data()),
              reissued.size())
        << "reclaimed capacity was not reusable";
    for (const Name n : abandoned) held.remove(n);

    // Revive the victims: their late releases must all be rejected (the
    // victim bodies record a failure otherwise), and every reissued name
    // must still be live afterwards — nothing was double-freed.
    eng.finish();
    EXPECT_TRUE(checks.ok()) << checks.summary() << eng.trace();
    EXPECT_EQ(svc.names_live(), reissued.size())
        << "a late release freed a reissued cell";
    EXPECT_GE(svc.lease_guard_trips(), r.abandoned)
        << "late releases were not detected";
    EXPECT_EQ(svc.release_many(reissued.data(), reissued.size()),
              reissued.size());
  } else {
    // No leases: the abandoned names are simply gone. There is no reap
    // mechanism — this is the leak the subsystem exists to fix.
    EXPECT_EQ(r.reaped, 0u);
    EXPECT_EQ(svc.names_live(), r.abandoned) << "leak model changed";
    // And the failure is silent in both directions: when the dead
    // holders are revived, their stale releases are *applied* without
    // complaint (the victim bodies record each application as a
    // failure — without leasing, every one of them fires).
    eng.finish();
    EXPECT_EQ(svc.names_live(), 0u);
    std::size_t applied = 0;
    {
      std::lock_guard<std::mutex> lock(checks.mu);
      for (const std::string& f : checks.failures) {
        applied += f.find("APPLIED") != std::string::npos ? 1 : 0;
      }
      EXPECT_EQ(applied, checks.failures.size())
          << "unexpected failures:\n" << checks.summary();
    }
    EXPECT_EQ(applied, r.abandoned)
        << "stale releases were not all silently applied";
  }

  r.trace = eng.trace();
  return r;
}

TEST(ScenarioLease, CrashStormRecoversEveryAbandonedName) {
  run_crash_storm(0x1EA5Eu, /*leases_on=*/true);
}

TEST(ScenarioLease, SameStormWithoutLeasesLeaksForever) {
  run_crash_storm(0x1EA5Eu, /*leases_on=*/false);
}

TEST(ScenarioLease, StormTraceIsByteIdenticalPerSeed) {
  const StormResult a = run_crash_storm(0x1EA5E2u, true);
  const StormResult b = run_crash_storm(0x1EA5E2u, true);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace) << "same seed produced different schedules";
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.reaped, b.reaped);
  EXPECT_NE(a.trace, run_crash_storm(0x1EA5E3u, true).trace)
      << "distinct seeds explored the same schedule";
}

// ------------------------- pinned schedule: expiry vs late release ------
//
// The fixed service is the sharpest ABA instrument: its names carry no
// generation bits, so a reaped-and-reissued cell yields *identical* name
// bits. Worker 0 is stalled inside LeaseTable::close (at the lease.close
// sim point, before the set lock); while it hangs, worker 1 drives the
// clock past expiry, reaps, and re-acquires the very same cell. Worker 0
// then resumes its release holding stale name bits that now denote
// worker 1's name.
//
// Returns true iff the schedule produced a double-grant (two holders
// observing the same live name) — which must be impossible with the
// guard on and is reliably reproduced with it off.
bool run_pinned_late_release(bool guard_on, std::string* trace_out) {
  g_now.store(1, std::memory_order_relaxed);
  RenamingServiceOptions opts;
  opts.shards = 1;  // one shard: local index == name, no interleaving
  opts.name_cache = false;
  opts.lease.ttl_ticks = 50;
  opts.lease.grace = 10;
  opts.lease.clock = &fake_now;
  opts.lease.release_guard = guard_on;
  RenamingService svc(4, opts);
  Checks checks;

  std::atomic<Name> victim_name{-1};
  std::atomic<bool> victim_done{false};
  std::atomic<bool> victim_release_applied{false};
  std::atomic<bool> double_grant{false};

  Scenario scn;
  scn.seed = 0xABAu;
  scn.preempt_every = 1;
  // Freeze worker 0 inside its release's lease close for a long time —
  // long enough for worker 1's whole expiry+reissue dance.
  scn.stalls.push_back(StallRule{"lease.close", 0, 0, 4000, 1});

  ScenarioEngine eng(scn);
  const bool done = eng.run(
      {// Worker 0: the reviving holder. Acquires, then releases; the
       // release hangs at lease.close until far past its own expiry.
       [&](Worker& w) {
         w.yield("victim.acquire");
         const Name n = svc.acquire();
         if (n < 0) {
           checks.fail("victim acquire failed");
           return;
         }
         victim_name.store(n, std::memory_order_release);
         w.yield("victim.release");
         victim_release_applied.store(svc.release(n),
                                      std::memory_order_release);
         victim_done.store(true, std::memory_order_release);
       },
       // Worker 1: owns the rest of the namespace, expires the victim's
       // lease, takes over its cell, and probes for the double-grant.
       [&](Worker& w) {
         // Pre-fill the other cells so the victim's is the only one a
         // post-reap acquire can return.
         Name rest[3];
         w.yield("driver.prefill");
         if (svc.acquire_many(3, rest) != 3) {
           checks.fail("driver prefill failed");
           return;
         }
         // Wait until the victim holds its name, then age it out. Each
         // pass advances the clock and reaps; reap_expired deliberately
         // does not renew the caller (it must be able to expire the
         // caller's own abandoned names), so the driver keeps its three
         // leases fresh with an explicit renew per pass.
         while (victim_name.load(std::memory_order_acquire) < 0) {
           w.yield("driver.wait_hold");
         }
         while (svc.lease_expired() == 0) {
           w.yield("driver.age");
           g_now.fetch_add(10, std::memory_order_relaxed);
           if (svc.renew_lease(rest[0]) != rest[0]) {
             checks.fail("driver's own renew failed");
             return;
           }
           svc.reap_expired();
           if (g_now.load(std::memory_order_relaxed) > 100000) {
             checks.fail("victim lease never expired");
             return;
           }
         }
         // Reissue: the freed cell comes back with identical name bits.
         w.yield("driver.reissue");
         const Name taken = svc.acquire();
         if (taken != victim_name.load(std::memory_order_acquire)) {
           checks.fail("reissued name " + std::to_string(taken) +
                       " != victim's " +
                       std::to_string(victim_name.load()));
           return;
         }
         // Burn steps until the victim's stall expires and its whole
         // stale release has run to completion (rejected or applied).
         while (!victim_done.load(std::memory_order_acquire)) {
           w.yield("driver.wait_release");
         }
         // The probe: if the stale release freed *our* cell, the next
         // acquire double-grants name bits we still hold.
         w.yield("driver.probe");
         const Name probe = svc.acquire();
         if (probe == taken) double_grant.store(true);
         if (probe >= 0 && probe != taken) svc.release(probe);
         svc.release(taken);
         svc.release_many(rest, 3);
       }});
  eng.finish();

  EXPECT_TRUE(done) << "livelock guard tripped\n" << eng.trace();
  EXPECT_GE(eng.stalls_fired(), 1u) << "the close stall never fired";
  EXPECT_TRUE(checks.ok()) << checks.summary() << eng.trace();
  EXPECT_GE(svc.lease_guard_trips(), 1u)
      << "the late release was never detected";
  // The victim's own view must agree with the guard setting: rejected
  // when guarded, silently applied when not.
  EXPECT_EQ(victim_release_applied.load(), !guard_on);
  if (trace_out != nullptr) *trace_out = eng.trace();
  return double_grant.load();
}

TEST(ScenarioLease, PinnedLateReleaseIsRejectedByTheGuard) {
  std::string trace;
  EXPECT_FALSE(run_pinned_late_release(/*guard_on=*/true, &trace))
      << "guarded late release still double-granted\n"
      << trace;
}

TEST(ScenarioLease, SameScheduleWithGuardOffDoubleGrants) {
  // The control experiment proving the schedule actually reaches the
  // race (and that the pinned test above would fail were the guard
  // reverted): with release_guard off the stale release lands on the
  // reissued cell and the very next acquire double-grants it.
  std::string trace;
  EXPECT_TRUE(run_pinned_late_release(/*guard_on=*/false, &trace))
      << "unguarded schedule no longer reproduces the ABA\n"
      << trace;
}

// ------------------------- pinned schedule: batch close vs reap --------
//
// Worker 0 acquires kBatch names with one acquire_many; worker 1 takes
// every other cell, so a reclaimed cell is the only kind a later acquire
// can return. Worker 0 then releases its names with one release_many
// while worker 1 ages the clock, reaps (renewing its own leases each
// pass) and, once the reaper took the batch's leases, reissues one cell.
// The stall at lease.close comes either before the batch takes the
// holder set's lock (after_hits = 0: the reaper expires all of the
// batch's leases meanwhile, and the resumed batch must free nothing,
// least of all the reissued cell) or inside it (after_hits = 1: the
// reaper's pass waits for the lock and finds the set empty). Every cell
// is freed exactly once either way.
struct BatchStallResult {
  std::uint64_t freed = 0;     // by the stalled release_many
  std::uint64_t expired = 0;   // by the reaper
  std::uint64_t trips = 0;
  bool reissued = false;       // worker 1 got a batch name back
  bool reaper_waited = false;  // worker 1 waited on a lock worker 0 held
};

BatchStallResult run_batch_close_stall(std::uint64_t after_hits) {
  constexpr std::uint64_t kBatch = 8;
  g_now.store(1, std::memory_order_relaxed);
  ElasticRenamingService svc(64, storm_options(/*ttl=*/50, /*grace=*/10));
  Checks checks;
  std::atomic<int> stage{0};  // 1: batch held, 2: the rest held
  std::atomic<bool> released{false};
  std::atomic<std::uint64_t> freed{0};
  std::atomic<bool> reissued{false};
  Name names[kBatch];

  Scenario scn;
  scn.seed = 0xBA7C4u + after_hits;
  scn.preempt_every = 1;
  scn.stalls.push_back(StallRule{"lease.close", 0, after_hits, 4000, 1});

  ScenarioEngine eng(scn);
  const bool done = eng.run(
      {[&](Worker& w) {
         w.yield("batch.acquire");
         if (svc.acquire_many(kBatch, names) != kBatch) {
           checks.fail("batch acquire_many came back short");
         }
         stage.store(1, std::memory_order_release);
         while (stage.load(std::memory_order_acquire) != 2) {
           w.yield("batch.wait_fill");
         }
         freed.store(svc.release_many(names, kBatch),
                     std::memory_order_release);
         released.store(true, std::memory_order_release);
       },
       [&](Worker& w) {
         while (stage.load(std::memory_order_acquire) != 1) {
           w.yield("driver.wait_batch");
         }
         std::vector<Name> rest;
         for (Name n = svc.acquire(); n >= 0; n = svc.acquire()) {
           rest.push_back(n);
         }
         stage.store(2, std::memory_order_release);
         if (rest.empty()) {
           checks.fail("driver prefill got nothing");
           return;
         }
         // Age and reap until the reaper took the batch's leases or the
         // batch finished. A pass never stamps the reaper, so the driver
         // keeps its own leases fresh with an explicit renew per pass.
         while (svc.lease_expired() == 0 &&
                !released.load(std::memory_order_acquire)) {
           w.yield("driver.age");
           g_now.fetch_add(10, std::memory_order_relaxed);
           if (svc.renew_lease(rest[0]) != rest[0]) {
             checks.fail("driver's own renew failed");
             return;
           }
           svc.reap_expired();
           if (g_now.load(std::memory_order_relaxed) > 100000) {
             checks.fail("neither the batch nor the reaper finished");
             return;
           }
         }
         if (svc.lease_expired() != 0) {
           // Take a reclaimed cell back while the batch is still stalled:
           // its stale close must not free it.
           w.yield("driver.reissue");
           const Name taken = svc.acquire();
           bool ours = false;
           for (const Name n : names) ours = ours || n == taken;
           if (!ours) {
             checks.fail("reissued " + std::to_string(taken) +
                         ", not a name of the batch");
           }
           reissued.store(ours, std::memory_order_release);
           while (!released.load(std::memory_order_acquire)) {
             w.yield("driver.wait_release");
           }
           if (svc.names_live() != rest.size() + 1) {
             checks.fail("the stalled batch freed a reissued cell");
           }
           if (taken >= 0 && !svc.release(taken)) {
             checks.fail("reissued name not held");
           }
         }
         if (svc.release_many(rest.data(), rest.size()) != rest.size()) {
           checks.fail("driver's release_many came back short");
         }
       }});
  eng.finish();

  EXPECT_TRUE(done) << "livelock guard tripped\n" << eng.trace();
  EXPECT_GE(eng.stalls_fired(), 1u) << "the close stall never fired";
  EXPECT_TRUE(checks.ok()) << checks.summary() << eng.trace();
  // Every cell freed exactly once: by the batch or by the reaper.
  EXPECT_EQ(freed.load() + svc.lease_expired(), kBatch);
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.leases_live(), 0u);
  const lease::LeaseTable& t = *svc.lease_table();
  EXPECT_EQ(t.opened(), t.closed() + t.expired());
  return {freed.load(), svc.lease_expired(), svc.lease_guard_trips(),
          reissued.load(),
          eng.trace().find(" w1 mutex.wait\n") != std::string::npos};
}

TEST(ScenarioLease, BatchStalledBeforeItsLockLosesEveryNameToTheReaper) {
  const BatchStallResult r = run_batch_close_stall(/*after_hits=*/0);
  EXPECT_EQ(r.freed, 0u);
  EXPECT_EQ(r.expired, 8u);
  EXPECT_EQ(r.trips, 8u) << "each lost close is one guard trip";
  EXPECT_TRUE(r.reissued);
}

TEST(ScenarioLease, BatchStalledInsideItsLockKeepsEveryName) {
  const BatchStallResult r = run_batch_close_stall(/*after_hits=*/1);
  EXPECT_EQ(r.freed, 8u);
  EXPECT_EQ(r.expired, 0u);
  EXPECT_EQ(r.trips, 0u);
  EXPECT_FALSE(r.reissued);
  EXPECT_TRUE(r.reaper_waited) << "the pass never met the batch's lock";
}

}  // namespace
}  // namespace loren
