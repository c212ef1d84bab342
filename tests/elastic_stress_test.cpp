// ElasticRenamingService: unit coverage + the burst/drain stress test.
//
// The stress acceptance criteria for the elastic subsystem: under
// concurrent acquire/release spanning >= 2 grow and >= 1 shrink events,
// (a) all held names are globally unique across generations, (b) every
// name stays valid (release succeeds) however many resizes happened since
// it was issued, and (c) after the shrink + drain, capacity() is back
// within the small-group bound and the retired generations' memory is
// reclaimed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "platform/rng.h"
#include "test_seed.h"

namespace loren {
namespace {

using sim::Name;

ElasticOptions small_options() {
  ElasticOptions opts;
  opts.epsilon = 0.5;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  return opts;
}

// ------------------------------------------------------------- unit ----

TEST(Elastic, ConstructionPublishesOneGeneration) {
  ElasticRenamingService svc(64, small_options());
  EXPECT_EQ(svc.holders(), 64u);
  EXPECT_EQ(svc.generation(), 1u);
  EXPECT_EQ(svc.groups_in_flight(), 1u);
  EXPECT_GT(svc.capacity(), 0u);
  EXPECT_EQ(svc.names_live(), 0u);
}

TEST(Elastic, AcquireReleaseRoundTrip) {
  ElasticRenamingService svc(64, small_options());
  std::vector<Name> names;
  for (int i = 0; i < 48; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    EXPECT_LT(static_cast<std::uint64_t>(n), svc.capacity());
    names.push_back(n);
  }
  // Uniqueness among concurrently held names.
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_EQ(svc.names_live(), names.size());
  for (const Name n : names) EXPECT_TRUE(svc.release(n));
  // Live-generation releases park in this thread's stash (still counted
  // live); flushing drains them through the shared tag-table path.
  svc.flush_thread_cache();
  EXPECT_EQ(svc.names_live(), 0u);
}

TEST(Elastic, ReleaseValidatesNames) {
  ElasticRenamingService svc(64, small_options());
  const Name n = svc.acquire();
  ASSERT_GE(n, 0);
  EXPECT_TRUE(svc.release(n));
  EXPECT_FALSE(svc.release(n)) << "double release must fail";
  EXPECT_FALSE(svc.release(-1));
  EXPECT_FALSE(svc.release(static_cast<Name>(1) << 40))
      << "a name no generation ever issued must fail";
}

TEST(Elastic, ExplicitGrowAndShrinkMoveCapacity) {
  ElasticRenamingService svc(64, small_options());
  const std::uint64_t small_cap = svc.capacity();
  EXPECT_TRUE(svc.grow());
  EXPECT_EQ(svc.holders(), 128u);
  EXPECT_GT(svc.capacity(), small_cap);
  EXPECT_EQ(svc.grow_events(), 1u);
  EXPECT_TRUE(svc.shrink());
  EXPECT_EQ(svc.holders(), 64u);
  EXPECT_EQ(svc.capacity(), small_cap)
      << "a fresh generation of the same holder count has the same bound";
  EXPECT_EQ(svc.shrink_events(), 1u);
  // At the floor, shrink is a no-op.
  EXPECT_FALSE(svc.shrink());
}

TEST(Elastic, NamesSurviveResizesUntilReleased) {
  ElasticRenamingService svc(64, small_options());
  std::vector<Name> held;
  for (int i = 0; i < 32; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    held.push_back(n);
  }
  ASSERT_TRUE(svc.grow());    // gen 2: the names' group starts draining
  ASSERT_TRUE(svc.grow());    // gen 3
  ASSERT_TRUE(svc.shrink());  // gen 4
  // Gen 1 cannot drain while its names are held; empty intermediate
  // generations may already have been reclaimed by the resizes.
  EXPECT_GE(svc.groups_in_flight(), 2u);
  // Every pre-resize name must still release cleanly, exactly once.
  for (const Name n : held) EXPECT_TRUE(svc.release(n));
  for (const Name n : held) EXPECT_FALSE(svc.release(n));
}

TEST(Elastic, AutoGrowServesDemandBeyondInitialCapacity) {
  ElasticOptions opts = small_options();
  opts.grow_miss_threshold = 2;
  ElasticRenamingService svc(64, opts);
  std::vector<Name> held;
  std::vector<std::uint8_t> seen(1u << 20, 0);
  for (int i = 0; i < 600; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0) << "auto-grow must keep serving (i=" << i << ")";
    ASSERT_LT(static_cast<std::uint64_t>(n), seen.size());
    ASSERT_EQ(seen[static_cast<std::uint64_t>(n)], 0) << "duplicate name " << n;
    seen[static_cast<std::uint64_t>(n)] = 1;
    held.push_back(n);
  }
  EXPECT_GE(svc.grow_events(), 2u)
      << "600 holders from a 64-holder start needs at least two doublings";
  // Held names accumulate across draining generations, so the live group
  // only serves the marginal demand: 256 holders is the floor here.
  EXPECT_GE(svc.holders(), 256u);
  for (const Name n : held) EXPECT_TRUE(svc.release(n));
}

TEST(Elastic, DrainedRetireesAreReclaimed) {
  ElasticRenamingService svc(64, small_options());
  std::vector<Name> held;
  for (int i = 0; i < 32; ++i) held.push_back(svc.acquire());
  ASSERT_TRUE(svc.grow());
  ASSERT_TRUE(svc.grow());
  const std::uint64_t peak_footprint = svc.footprint_bytes();
  ASSERT_TRUE(svc.resize(64));
  for (const Name n : held) ASSERT_TRUE(svc.release(n));
  // Two passes: the first unlinks drained retirees (stage A), the second
  // frees them once the unlink epoch quiesced (stage B).
  for (int i = 0; i < 4 && svc.groups_in_flight() > 1; ++i) svc.reclaim();
  EXPECT_EQ(svc.groups_in_flight(), 1u);
  EXPECT_GE(svc.reclaimed_groups(), 3u);
  EXPECT_LT(svc.footprint_bytes(), peak_footprint);
  EXPECT_EQ(svc.names_live(), 0u);
}

TEST(Elastic, ResizeFailsGracefullyWhenAllTagsAreInFlight) {
  ElasticOptions opts = small_options();
  opts.min_holders = 1;
  opts.max_holders = 1u << 20;
  ElasticRenamingService svc(64, opts);
  // Pin every generation with one held name so nothing can drain.
  std::vector<Name> pins;
  pins.push_back(svc.acquire());
  int resizes = 0;
  while (svc.resize(svc.holders() * 2)) {
    ++resizes;
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    pins.push_back(n);
    ASSERT_LE(resizes, static_cast<int>(ElasticRenamingService::kMaxGroups));
  }
  EXPECT_EQ(resizes, static_cast<int>(ElasticRenamingService::kMaxGroups) - 1)
      << "with every generation pinned, the tag table must fill at 8";
  // Releasing the pins lets reclamation free tags and resizing resume.
  for (const Name n : pins) ASSERT_TRUE(svc.release(n));
  svc.reclaim();
  EXPECT_TRUE(svc.resize(svc.holders() * 2));
}

TEST(Elastic, AcquireManyGrowsOnShortfall) {
  ElasticOptions opts = small_options();
  ElasticRenamingService svc(64, opts);
  // One batch far beyond the initial group: each round claims what the
  // live generation has free, the shortfall grows the namespace, and the
  // next round claims the remainder from the new generation.
  std::vector<Name> names(600);
  const std::uint64_t got = svc.acquire_many(names.size(), names.data());
  ASSERT_EQ(got, names.size());
  EXPECT_GE(svc.grow_events(), 2u)
      << "a 600-name batch from a 64-holder start needs >= 2 doublings";
  std::set<Name> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size()) << "duplicate names across generations";
  // The whole batch releases cleanly — including the sub-batches issued
  // by now-retired generations — and exactly once.
  EXPECT_EQ(svc.release_many(names.data(), names.size()), names.size());
  EXPECT_EQ(svc.release_many(names.data(), names.size()), 0u);
  svc.flush_thread_cache();
  EXPECT_EQ(svc.names_live(), 0u);
}

TEST(Elastic, AcquireManyRespectsGrowthCeiling) {
  ElasticOptions opts = small_options();
  opts.min_holders = 64;
  opts.max_holders = 64;  // growth unavailable
  ElasticRenamingService svc(64, opts);
  const std::uint64_t cells =
      svc.capacity() >> ElasticRenamingService::kTagBits;
  std::vector<Name> names(cells + 32);
  // The batch overshoots a namespace that cannot grow: every free cell is
  // claimed (the sweep backstop), the rest is an honest shortfall.
  const std::uint64_t got = svc.acquire_many(names.size(), names.data());
  EXPECT_EQ(got, cells);
  EXPECT_EQ(svc.grow_events(), 0u);
  EXPECT_EQ(svc.release_many(names.data(), got), got);
}

// ------------------------------------------------------- stress ----

// Uniqueness ledger: one atomic flag per possible name value. acquire must
// flip 0 -> 1 (no concurrent holder), release 1 -> 0.
class NameLedger {
 public:
  explicit NameLedger(std::size_t bound) : flags_(bound) {}

  bool mark_held(Name n) {
    return flags_[static_cast<std::size_t>(n)].exchange(
               1, std::memory_order_acq_rel) == 0;
  }
  bool mark_free(Name n) {
    return flags_[static_cast<std::size_t>(n)].exchange(
               0, std::memory_order_acq_rel) == 1;
  }
  [[nodiscard]] std::size_t bound() const { return flags_.size(); }

 private:
  std::vector<std::atomic<std::uint8_t>> flags_;
};

TEST(ElasticStress, ConcurrentBatchesStayUniqueAcrossResizes) {
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 4000;
  constexpr std::uint64_t kMaxBatch = 8;
  constexpr std::size_t kMaxHeld = 64;

  ElasticOptions opts = small_options();
  opts.grow_miss_threshold = 2;
  opts.auto_shrink = true;  // exercise resize churn under batches too
  ElasticRenamingService svc(64, opts);

  const std::uint64_t seed = test::stress_seed(
      "ElasticStress.ConcurrentBatchesStayUniqueAcrossResizes", 0xBA7C8);
  NameLedger ledger(1u << 20);
  std::atomic<std::uint64_t> uniqueness_violations{0};
  std::atomic<std::uint64_t> validity_violations{0};
  std::atomic<std::uint64_t> out_of_range{0};
  std::atomic<std::uint64_t> short_batches{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t, seed] {
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      std::vector<Name> held;
      Name batch[kMaxBatch];
      for (int i = 0; i < kItersPerThread; ++i) {
        if (held.size() < kMaxHeld && rng.below(2) == 0) {
          const std::uint64_t want = std::min<std::uint64_t>(
              1 + rng.below(kMaxBatch), kMaxHeld - held.size());
          // One pass can come up short mid-resize or under churn; with
          // the live total far under max_holders, a bounded retry must
          // top the batch up (as in service_stress_test's batch churn).
          std::uint64_t got = svc.acquire_many(want, batch);
          for (int retry = 0; got < want && retry < 8; ++retry) {
            got += svc.acquire_many(want - got, batch + got);
          }
          if (got < want) short_batches.fetch_add(1, std::memory_order_relaxed);
          for (std::uint64_t j = 0; j < got; ++j) {
            if (static_cast<std::uint64_t>(batch[j]) >= ledger.bound()) {
              out_of_range.fetch_add(1, std::memory_order_relaxed);
            } else if (!ledger.mark_held(batch[j])) {
              uniqueness_violations.fetch_add(1, std::memory_order_relaxed);
            } else {
              held.push_back(batch[j]);
            }
          }
        } else if (!held.empty()) {
          const std::uint64_t m =
              std::min<std::uint64_t>(1 + rng.below(kMaxBatch), held.size());
          for (std::uint64_t j = 0; j < m; ++j) {
            batch[j] = held.back();
            held.pop_back();
            // Ledger first, as in the burst/drain stress: once release_many
            // frees the cell another thread may re-acquire the name.
            if (!ledger.mark_free(batch[j])) {
              uniqueness_violations.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (svc.release_many(batch, m) != m) {
            validity_violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      for (const Name n : held) {
        ledger.mark_free(n);
        if (!svc.release(n)) {
          validity_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Drain this worker's stash so quiescent accounting is exact.
      svc.flush_thread_cache();
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(uniqueness_violations.load(), 0u);
  EXPECT_EQ(validity_violations.load(), 0u);
  EXPECT_EQ(out_of_range.load(), 0u);
  // 4 x 64 held names sit far under max_holders = 4096, so a batch still
  // short after the retries would be a real shortfall.
  EXPECT_EQ(short_batches.load(), 0u);
  EXPECT_EQ(svc.names_live(), 0u);
}

TEST(ElasticStress, BurstDrainKeepsNamesUniqueAndValid) {
  constexpr int kThreads = 4;
  constexpr int kBurstHold = 96;  // 4 * 96 demand vs 64 initial holders
  constexpr int kDrainHold = 2;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);

  ElasticOptions opts = small_options();
  opts.grow_miss_threshold = 2;
  // Cache off: this test asserts exact live-count watermarks while the
  // workers are mid-run (the drain wait below), which per-thread stashes
  // would inflate by design. The cache x resize interplay has its own
  // coverage: ConcurrentBatchesStayUniqueAcrossResizes here (cache on)
  // and the stale-stash tests in elastic_regression_test / name_cache_test.
  opts.name_cache = false;
  ElasticRenamingService svc(64, opts);

  NameLedger ledger(1u << 20);
  std::atomic<int> hold_target{kBurstHold};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> uniqueness_violations{0};
  std::atomic<std::uint64_t> validity_violations{0};
  std::atomic<std::uint64_t> out_of_range{0};
  std::atomic<std::uint64_t> total_acquired{0};

  const std::uint64_t seed = test::stress_seed(
      "ElasticStress.BurstDrainKeepsNamesUniqueAndValid", 0xACE0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t, seed] {
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      std::vector<Name> held;
      held.reserve(kBurstHold + 1);
      auto release_one = [&](std::size_t victim) {
        const Name n = held[victim];
        held[victim] = held.back();
        held.pop_back();
        // Ledger first: the instant release() frees the cell, another
        // thread may legitimately re-acquire this very name.
        if (!ledger.mark_free(n)) {
          uniqueness_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (!svc.release(n)) {
          validity_violations.fetch_add(1, std::memory_order_relaxed);
        }
      };
      while (!stop.load(std::memory_order_relaxed)) {
        const int target = hold_target.load(std::memory_order_relaxed);
        if (static_cast<int>(held.size()) < target) {
          const Name n = svc.acquire();
          if (n < 0) continue;  // transient exhaustion while resizing
          total_acquired.fetch_add(1, std::memory_order_relaxed);
          if (static_cast<std::uint64_t>(n) >= ledger.bound()) {
            out_of_range.fetch_add(1, std::memory_order_relaxed);
            svc.release(n);
          } else if (!ledger.mark_held(n)) {
            uniqueness_violations.fetch_add(1, std::memory_order_relaxed);
          } else {
            held.push_back(n);
          }
        } else if (!held.empty()) {
          release_one(rng.below(held.size()));
        }
        // Churn: occasionally release even below target so cells recycle.
        if (!held.empty() && rng.below(8) == 0) {
          release_one(rng.below(held.size()));
        }
      }
      while (!held.empty()) release_one(held.size() - 1);
    });
  }

  // Phase 1 — burst: wait until sustained pressure has grown the
  // namespace at least twice (64 -> 128 -> 256 at minimum).
  while (svc.grow_events() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(svc.grow_events(), 2u) << "burst phase never grew the namespace";

  // Phase 2 — drain: demand collapses; shrink back to the floor while the
  // workers keep acquiring/releasing (names from retired generations must
  // stay valid throughout).
  hold_target.store(kDrainHold, std::memory_order_relaxed);
  while (svc.names_live() > kThreads * kDrainHold &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  while (svc.holders() > 64 && std::chrono::steady_clock::now() < deadline) {
    svc.shrink();  // may no-op if a free tag is momentarily unavailable
    svc.reclaim();
  }
  EXPECT_GE(svc.shrink_events(), 1u);
  EXPECT_EQ(svc.holders(), 64u);

  // Phase 3 — shutdown: workers release everything they still hold.
  stop.store(true);
  for (auto& w : workers) w.join();

  EXPECT_EQ(uniqueness_violations.load(), 0u);
  EXPECT_EQ(validity_violations.load(), 0u);
  EXPECT_EQ(out_of_range.load(), 0u);
  EXPECT_GT(total_acquired.load(), 0u);
  EXPECT_EQ(svc.names_live(), 0u);

  // Post-shrink, post-drain: the bound on new names is back to the
  // small-group bound, and the retired generations' memory is gone.
  for (int i = 0; i < 6 && svc.groups_in_flight() > 1; ++i) svc.reclaim();
  EXPECT_EQ(svc.groups_in_flight(), 1u);
  const ElasticRenamingService reference(64, small_options());
  EXPECT_LE(svc.capacity(), reference.capacity());
  EXPECT_LE(svc.footprint_bytes(), reference.footprint_bytes());
}

}  // namespace
}  // namespace loren
