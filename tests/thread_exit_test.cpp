// Thread-exit stash flush (renaming/service_directory.h): a thread that
// dies holding a populated NameStash must hand the parked names back
// through the owning service's shared release path, for both services.
//
// Before the fix, each short-lived worker thread stranded up to a stash's
// worth of names forever — `names_live()` ratcheted up with every thread
// generation until the namespace exhausted. The churn tests here are the
// regression: hundreds of short-lived threads acquire into and release
// through their stashes, and after every join `names_live()` must return
// to exactly zero.
//
// The same exit retires the thread's per-thread nodes — its live-count
// node or epoch slot, its lease heartbeat, and (from its stripe table)
// its metrics stripes — for the next thread that registers. The churn
// test bounds all of them by the peak count of threads alive at once
// while every total stays exact.
//
// The destructor-ordering half of the contract is covered too: the flush
// runs from the thread context's TLS destructor, so it must not touch any
// other thread_local (the metrics stripe is skipped when uncached, the
// epoch slot registers TLS-free) and must record into its stripes before
// the stripe table hands them on; and a service destroyed *while* threads
// are exiting must block their in-flight flushes out via the directory
// (services unregister before dying, and the directory holds its lock
// across each flush).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "renaming/service.h"
#include "telemetry/metrics.h"

namespace loren {
namespace {

using sim::Name;
using telemetry::MetricsRegistry;

std::atomic<std::uint64_t> g_now{1};
std::uint64_t fake_now() { return g_now.load(std::memory_order_relaxed); }

TEST(ThreadExit, FixedServiceStashFlushesWhenTheThreadDies) {
  RenamingServiceOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  RenamingService svc(256, opts);

  // 200 short-lived threads, each parking names in its stash and dying.
  // The old leak was ~8 names per thread: 200 generations would strand
  // 1600 names in a 256+ namespace — impossible to miss.
  for (int gen = 0; gen < 200; ++gen) {
    std::thread worker([&] {
      Name names[8];
      const std::uint64_t got = svc.acquire_many(8, names);
      ASSERT_EQ(got, 8u);
      ASSERT_EQ(svc.release_many(names, 8), 8u);
      // The releases were absorbed by this thread's stash: the cells are
      // still taken. Exiting now is the leak scenario.
      ASSERT_GT(svc.thread_cache_size(), 0u);
    });
    worker.join();
    ASSERT_EQ(svc.names_live(), 0u)
        << "names stranded in a dead thread's stash after generation " << gen;
  }
}

TEST(ThreadExit, ElasticServiceStashFlushesWhenTheThreadDies) {
  ElasticOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  opts.min_holders = 64;
  opts.max_holders = 1024;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  ElasticRenamingService svc(256, opts);

  for (int gen = 0; gen < 200; ++gen) {
    std::thread worker([&] {
      Name names[8];
      const std::uint64_t got = svc.acquire_many(8, names);
      ASSERT_EQ(got, 8u);
      ASSERT_EQ(svc.release_many(names, 8), 8u);
      ASSERT_GT(svc.thread_cache_size(), 0u);
    });
    worker.join();
    ASSERT_EQ(svc.names_live(), 0u)
        << "names stranded in a dead thread's stash after generation " << gen;
  }
}

TEST(ThreadExit, ExitFlushSurvivesAResizeBetweenStashAndDeath) {
  // The stash's generation goes stale between parking and dying: the
  // exit flush must still drain the names through the tag table (the
  // elastic flush path routes any generation), letting the retired
  // group reach zero and reclaim.
  ElasticOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  opts.min_holders = 64;
  opts.max_holders = 1024;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  ElasticRenamingService svc(64, opts);

  std::thread worker([&] {
    Name names[8];
    ASSERT_EQ(svc.acquire_many(8, names), 8u);
    ASSERT_EQ(svc.release_many(names, 8), 8u);
    ASSERT_GT(svc.thread_cache_size(), 0u);
    // Retire the generation the stashed names belong to, then die
    // without ever touching the service again (no op runs the usual
    // stale-gen stash flush — only the exit flush can save these names).
    ASSERT_TRUE(svc.resize(128));
  });
  worker.join();
  EXPECT_EQ(svc.names_live(), 0u) << "stale-generation stash leaked at exit";
  svc.reclaim();
  svc.reclaim();
  EXPECT_EQ(svc.groups_in_flight(), 1u)
      << "the retired group never drained: its names died with the thread";
}

TEST(ThreadExit, ConcurrentThreadChurnNeverStrandsNames) {
  // Many generations of threads exiting *concurrently* while others are
  // mid-operation: the directory's lock discipline (held across each
  // flush) must keep every flush atomic with respect to service
  // registration. Runs under TSan in CI.
  RenamingServiceOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  RenamingService svc(1024, opts);

  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread> workers;
    workers.reserve(8);
    for (int t = 0; t < 8; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          Name names[4];
          const std::uint64_t got = svc.acquire_many(4, names);
          svc.release_many(names, got);
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(svc.names_live(), 0u) << "round " << round << " stranded names";
  }
}

TEST(ThreadExit, ServiceDestructionRacingThreadExitIsSafe) {
  // Services die while worker threads are still being torn down: the
  // destructor unregisters from the directory first, so any flush that
  // arrives later is a silent no-op instead of a use-after-free. (The
  // assertion here is simply "no crash / no sanitizer report".)
  for (int round = 0; round < 50; ++round) {
    RenamingServiceOptions opts;
    opts.name_cache = true;
    auto svc = std::make_unique<RenamingService>(128, opts);
    std::thread worker([&] {
      Name names[4];
      const std::uint64_t got = svc->acquire_many(4, names);
      svc->release_many(names, got);
    });
    worker.join();
    svc.reset();  // service dies after the worker's exit flush completed
  }
  // And the other order: the worker's thread context outlives the
  // service because the thread itself outlives it — its exit flush must
  // find the service gone and do nothing.
  std::thread lingering([] {
    RenamingServiceOptions opts;
    opts.name_cache = true;
    RenamingService svc(128, opts);
    Name names[4];
    const std::uint64_t got = svc.acquire_many(4, names);
    svc.release_many(names, got);
    // svc dies here, at lambda scope exit; the thread's TLS destructor
    // (and its flush attempt) runs after, against an empty directory.
  });
  lingering.join();
}

constexpr std::uint64_t kTtl = 1000;
constexpr std::uint64_t kGrace = 10;

template <class Options>
Options churn_options(MetricsRegistry& reg) {
  Options opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  opts.telemetry.registry = &reg;
  opts.control.mode = control::ControlMode::kAdapt;
  opts.lease.ttl_ticks = kTtl;
  opts.lease.grace = kGrace;
  opts.lease.clock = &fake_now;
  return opts;
}

/// One short-lived holder's work on `svc`: six shared acquires, three
/// releases into the stash, and three names still held at exit. The exit
/// flush hands the stash back; the reaper recovers the three abandoned.
template <class Service>
void churn_holder(Service& svc) {
  Name names[6];
  for (Name& n : names) {
    n = svc.acquire();
    ASSERT_GE(n, 0);
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(svc.release(names[i]));
  ASSERT_EQ(svc.thread_cache_size(), 3u);
}

template <class Service>
void expect_exact_lease_totals(const Service& svc, const MetricsRegistry& reg,
                               std::uint64_t abandoned) {
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  const auto counter = [&](const char* name) {
    const telemetry::CounterSnapshot* c = snap.counter(name);
    return c != nullptr ? c->value : 0;
  };
  const lease::LeaseTable& table = *svc.lease_table();
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(table.leases_live(), 0u);
  EXPECT_EQ(counter("lease.opened"), table.opened());
  EXPECT_EQ(counter("lease.opened"),
            counter("lease.closed") + counter("lease.expired"));
  EXPECT_EQ(counter("lease.expired"), table.expired());
  EXPECT_EQ(table.expired(), abandoned);
  EXPECT_EQ(table.guard_trips(), 0u);
}

TEST(ThreadExit, ChurnKeepsPerThreadStateBounded) {
  // 400 short-lived threads, never more than four alive at once, each
  // working both services (leases, an attached registry, kAdapt control)
  // and exiting with a stash and three held names per service. After
  // each wave the clock passes ttl + grace and a reap recovers the
  // abandoned names, recycling the orphaned heartbeats. Every per-thread
  // node count stays within the peak of threads alive at once, plus the
  // main thread (which reaps) and one of slack, however many threads
  // came and went.
  constexpr int kThreads = 400;
  constexpr int kPeakLive = 4;
  constexpr std::size_t kBound = kPeakLive + 2;
  g_now.store(1, std::memory_order_relaxed);
  MetricsRegistry fixed_reg;
  MetricsRegistry elastic_reg;
  RenamingService fixed(256, churn_options<RenamingServiceOptions>(fixed_reg));
  ElasticOptions eopts = churn_options<ElasticOptions>(elastic_reg);
  eopts.min_holders = 64;
  eopts.max_holders = 1024;
  ElasticRenamingService elastic(64, eopts);

  std::uint64_t abandoned = 0;
  for (int base = 0; base < kThreads; base += kPeakLive) {
    std::vector<std::thread> wave;
    for (int t = 0; t < kPeakLive; ++t) {
      wave.emplace_back([&] {
        churn_holder(fixed);
        churn_holder(elastic);
      });
    }
    for (auto& w : wave) w.join();
    abandoned += 3 * kPeakLive;
    g_now.fetch_add(kTtl + kGrace + 1, std::memory_order_relaxed);
    fixed.reap_expired();
    elastic.reap_expired();
    ASSERT_EQ(fixed.names_live(), 0u) << "after wave " << base / kPeakLive;
    ASSERT_EQ(elastic.names_live(), 0u) << "after wave " << base / kPeakLive;
  }

  EXPECT_LE(fixed_reg.thread_count(), kBound);
  EXPECT_LE(elastic_reg.thread_count(), kBound);
  EXPECT_LE(fixed.thread_nodes(), kBound) << "live-count nodes";
  EXPECT_LE(elastic.thread_nodes(), kBound) << "epoch slots";
  EXPECT_LE(fixed.lease_table()->holders(), kBound) << "fixed heartbeats";
  EXPECT_LE(elastic.lease_table()->holders(), kBound) << "elastic heartbeats";
  expect_exact_lease_totals(fixed, fixed_reg, abandoned);
  expect_exact_lease_totals(elastic, elastic_reg, abandoned);
}

/// A two-step handshake for a thread paused inside its own TLS teardown.
struct Rendezvous {
  std::mutex mu;
  std::condition_variable cv;
  bool paused = false;
  bool resumed = false;

  void pause() {
    std::unique_lock<std::mutex> lock(mu);
    paused = true;
    cv.notify_all();
    cv.wait(lock, [this] { return resumed; });
  }
  void wait_paused() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return paused; });
  }
  void resume() {
    std::lock_guard<std::mutex> lock(mu);
    resumed = true;
    cv.notify_all();
  }
};

/// A thread_local whose destructor pauses its thread at exit. Touched
/// after the service's thread context and before the first op, it is
/// destroyed before that context: the pause falls between the stripe
/// table's teardown and the context's exit flush, should the table be
/// destroyed first.
struct ExitPause {
  Rendezvous* rv = nullptr;
  ExitPause() = default;
  ExitPause(const ExitPause&) = delete;
  ExitPause& operator=(const ExitPause&) = delete;
  ~ExitPause() {
    if (rv != nullptr) rv->pause();
  }
};

ExitPause& exit_pause() {
  thread_local ExitPause pause;
  return pause;
}

TEST(ThreadExit, ExitFlushRecordsBeforeItsStripeIsHandedOn) {
  // A thread exits with a non-empty stash while another thread registers
  // with the same registry and records into the flush counter as fast as
  // it can. The exit flush counts into the exiting thread's stripe; were
  // that stripe already handed to the registrant, the two single-writer
  // increments would race and lose counts.
  MetricsRegistry reg;
  RenamingServiceOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  opts.telemetry.registry = &reg;
  RenamingService svc(256, opts);
  const telemetry::MetricId flushes = reg.counter("service.stash.flushes");
  constexpr int kRounds = 20;
  std::uint64_t recorded = 0;
  for (int round = 0; round < kRounds; ++round) {
    Rendezvous rv;
    std::thread exiting([&] {
      (void)svc.thread_cache_size();  // the thread context, no stripe yet
      exit_pause().rv = &rv;
      Name names[8];
      ASSERT_EQ(svc.acquire_many(8, names), 8u);
      ASSERT_EQ(svc.release_many(names, 8), 8u);
      ASSERT_GT(svc.thread_cache_size(), 0u);
    });
    rv.wait_paused();
    std::atomic<bool> registered{false};
    std::atomic<bool> stop{false};
    std::uint64_t adds = 0;
    std::thread registrant([&] {
      MetricsRegistry::ThreadStripe& stripe = reg.stripe();
      registered.store(true, std::memory_order_release);
      while (!stop.load(std::memory_order_relaxed)) {
        stripe.add(flushes);
        ++adds;
      }
    });
    while (!registered.load(std::memory_order_acquire)) {
    }
    rv.resume();
    exiting.join();
    stop.store(true, std::memory_order_relaxed);
    registrant.join();
    recorded += adds;
    ASSERT_EQ(svc.names_live(), 0u);
  }
  EXPECT_EQ(reg.counter_value(flushes), recorded + kRounds)
      << "an exit flush recorded into a stripe another thread owned";
}

}  // namespace
}  // namespace loren
