// Tests for the word-packed BitmapArena substrate and its service
// integration: word-scan claims (mask snapshot -> ctz -> fetch_or ->
// verify), cross-word run claims, lost single-bit races under real
// contention, the per-word generation sidecar across epoch resets, and
// NameStash interop on a bitmap-backed RenamingService. Runs in the TSan
// CI set.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "renaming/service.h"
#include "tas/bitmap_arena.h"
#include "test_seed.h"

namespace loren {
namespace {

class BitmapArenaLayouts : public ::testing::TestWithParam<ArenaLayout> {};

TEST_P(BitmapArenaLayouts, FirstCallWins) {
  BitmapArena arena(130, GetParam());
  EXPECT_TRUE(arena.test_and_set(2));
  EXPECT_FALSE(arena.test_and_set(2));
  // The last cell lives in a partial top word.
  EXPECT_TRUE(arena.test_and_set(129));
  EXPECT_FALSE(arena.test_and_set(129));
  EXPECT_EQ(arena.read(2), 1u);
  EXPECT_EQ(arena.read(0), 0u);
  EXPECT_EQ(arena.read(129), 1u);
}

TEST_P(BitmapArenaLayouts, TryReleaseValidates) {
  BitmapArena arena(70, GetParam());
  EXPECT_FALSE(arena.try_release(65)) << "never-won cell released";
  ASSERT_TRUE(arena.test_and_set(65));
  EXPECT_TRUE(arena.try_release(65));
  EXPECT_FALSE(arena.try_release(65)) << "double release succeeded";
  EXPECT_TRUE(arena.test_and_set(65));
  arena.reset();
  EXPECT_FALSE(arena.try_release(65)) << "stale-epoch holder released";
  EXPECT_TRUE(arena.test_and_set(65));
}

TEST_P(BitmapArenaLayouts, EpochResetFreesEverythingInO1) {
  BitmapArena arena(200, GetParam());
  for (std::uint64_t i = 0; i < 200; ++i) ASSERT_TRUE(arena.test_and_set(i));
  const std::uint64_t before = arena.epoch();
  arena.reset();
  EXPECT_GT(arena.epoch(), before);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(arena.read(i), 0u) << "cell " << i << " still taken after reset";
  }
  // The word stamps are lazily refreshed: winning a cell of a stale word
  // re-zeroes exactly that word, and everything stays winnable once.
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(arena.test_and_set(i)) << "stale cell " << i << " not winnable";
    EXPECT_FALSE(arena.test_and_set(i));
  }
}

TEST_P(BitmapArenaLayouts, WriteMatchesSeedSemantics) {
  BitmapArena arena(8, GetParam());
  arena.write(3, 1);
  EXPECT_EQ(arena.read(3), 1u);
  EXPECT_FALSE(arena.test_and_set(3));
  arena.write(3, 0);
  EXPECT_EQ(arena.read(3), 0u);
  EXPECT_TRUE(arena.test_and_set(3));
}

TEST_P(BitmapArenaLayouts, TryClaimInWordScansAndClamps) {
  BitmapArena arena(128, GetParam());
  // Claim the whole first word one scan at a time: each call must return
  // a distinct cell of word 0 (the hint only picks the word).
  std::set<std::int64_t> got;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t cell = arena.try_claim_in_word(7, 0, 128);
    ASSERT_GE(cell, 0);
    ASSERT_LT(cell, 64);
    EXPECT_TRUE(got.insert(cell).second) << "cell " << cell << " claimed twice";
  }
  EXPECT_EQ(arena.try_claim_in_word(7, 0, 128), -1) << "full word served";
  // Window clamping: a word straddling [lo, hi) never claims outside it.
  const std::int64_t clamped = arena.try_claim_in_word(70, 70, 80);
  ASSERT_GE(clamped, 70);
  ASSERT_LT(clamped, 80);
  for (int i = 0; i < 9; ++i) {
    ASSERT_GE(arena.try_claim_in_word(70, 70, 80), 70);
  }
  EXPECT_EQ(arena.try_claim_in_word(70, 70, 80), -1);
  EXPECT_EQ(arena.read(69), 0u);
  EXPECT_EQ(arena.read(80), 0u);
}

TEST_P(BitmapArenaLayouts, TryClaimRunSpansWordBoundaries) {
  BitmapArena arena(256, GetParam());
  // Occupy a few cells around the 64/128 boundaries so the run has to
  // skip them and still assemble k across words.
  for (const std::uint64_t taken : {60u, 63u, 64u, 100u, 127u, 128u}) {
    ASSERT_TRUE(arena.test_and_set(taken));
  }
  std::uint64_t out[96];
  const std::uint64_t got = arena.try_claim_run(50, 200, 96, out);
  EXPECT_EQ(got, 96u);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < got; ++i) {
    EXPECT_GE(out[i], 50u);
    EXPECT_LT(out[i], 200u);
    EXPECT_TRUE(seen.insert(out[i]).second) << out[i] << " claimed twice";
    for (const std::uint64_t taken : {60u, 63u, 64u, 100u, 127u, 128u}) {
      EXPECT_NE(out[i], taken) << "claimed an already-taken cell";
    }
  }
  // Exactly the free cells of [50, 200) minus the 6 pre-taken are gone:
  // 150 - 6 - 96 = 48 remain.
  std::uint64_t remaining = 0;
  for (std::uint64_t i = 50; i < 200; ++i) {
    if (arena.read(i) == 0) ++remaining;
  }
  EXPECT_EQ(remaining, 48u);
}

TEST_P(BitmapArenaLayouts, SweepWordSnapshotsOccupancy) {
  BitmapArena arena(100, GetParam());
  EXPECT_EQ(arena.sweep_word(0), ~std::uint64_t{0});
  // The top word is clamped to the arena size: 100 - 64 = 36 valid bits.
  EXPECT_EQ(arena.sweep_word(1), (std::uint64_t{1} << 36) - 1);
  ASSERT_TRUE(arena.test_and_set(0));
  ASSERT_TRUE(arena.test_and_set(65));
  EXPECT_EQ(arena.sweep_word(0), ~std::uint64_t{0} << 1);
  EXPECT_EQ(arena.sweep_word(1),
            ((std::uint64_t{1} << 36) - 1) & ~std::uint64_t{2});
  arena.reset();
  EXPECT_EQ(arena.sweep_word(0), ~std::uint64_t{0}) << "stale word not free";
}

INSTANTIATE_TEST_SUITE_P(Layouts, BitmapArenaLayouts,
                         ::testing::Values(ArenaLayout::kPadded,
                                           ArenaLayout::kPacked));

// Real-thread TAS safety on ONE word: every loss is a lost single-bit
// race inside try_claim_in_word's fetch_or retry loop. At most one winner
// per (cell, epoch) regardless of interleaving.
TEST(BitmapArenaThreads, LostSingleBitRacesPreserveUniqueness) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 400;
  BitmapArena arena(64, ArenaLayout::kPadded);
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> start{0};
    std::vector<std::vector<std::int64_t>> wins(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        start.fetch_add(1);
        while (start.load(std::memory_order_acquire) < kThreads) {
        }
        // Everyone hammers the same word until it is full.
        while (true) {
          const std::int64_t cell = arena.try_claim_in_word(0, 0, 64);
          if (cell < 0) break;
          wins[t].push_back(cell);
        }
      });
    }
    for (auto& th : pool) th.join();
    std::set<std::int64_t> all;
    std::size_t total = 0;
    for (const auto& w : wins) {
      total += w.size();
      for (const std::int64_t c : w) {
        EXPECT_TRUE(all.insert(c).second)
            << "cell " << c << " won twice in round " << round;
      }
    }
    EXPECT_EQ(total, 64u) << "claims lost in round " << round;
    arena.reset();  // quiesced: all workers joined
  }
}

// The per-word generation sidecar under a post-reset first-touch storm:
// reset() at quiescence, then every thread races to refresh the same
// stale words while claiming. No claim may land on pre-zero garbage and
// no refresh may wipe a landed claim — so across all threads exactly
// `size` wins per epoch.
TEST(BitmapArenaThreads, ResetThenConcurrentFirstTouchRefresh) {
  constexpr int kThreads = 4;
  constexpr int kEpochs = 200;
  constexpr std::uint64_t kSize = 192;  // three words
  BitmapArena arena(kSize, ArenaLayout::kPacked);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    // Leave the words partially set before the reset so the lazy re-zero
    // has garbage to clear.
    std::uint64_t scratch[kSize];
    arena.try_claim_run(0, kSize, epoch % (kSize + 1), scratch);
    arena.reset();
    std::atomic<int> start{0};
    std::vector<std::uint64_t> counts(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        start.fetch_add(1);
        while (start.load(std::memory_order_acquire) < kThreads) {
        }
        std::uint64_t buf[8];
        std::uint64_t got;
        while ((got = arena.try_claim_run(0, kSize, 8, buf)) > 0) {
          counts[t] += got;
        }
      });
    }
    for (auto& th : pool) th.join();
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    EXPECT_EQ(total, kSize) << "epoch " << epoch
                            << ": refresh raced a claim (lost or duplicated)";
  }
}

// ---------------------------------------------------------------- services

TEST(BitmapService, FillExhaustReleaseRoundTrip) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  RenamingService service(256, opts);
  std::vector<sim::Name> held;
  for (;;) {
    const sim::Name name = service.acquire();
    if (name < 0) break;
    held.push_back(name);
  }
  // Exhaustion is exact with the cache off: every cell was handed out
  // exactly once.
  EXPECT_EQ(held.size(), service.capacity());
  std::set<sim::Name> unique(held.begin(), held.end());
  EXPECT_EQ(unique.size(), held.size());
  EXPECT_EQ(service.names_live(), held.size());
  for (const sim::Name name : held) EXPECT_TRUE(service.release(name));
  EXPECT_EQ(service.names_live(), 0u);
  EXPECT_FALSE(service.release(held[0])) << "double release succeeded";
}

TEST(BitmapService, AcquireManyClaimsRunsAcrossWords) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  RenamingService service(512, opts);
  std::vector<sim::Name> names(300);
  const std::uint64_t got = service.acquire_many(300, names.data());
  EXPECT_EQ(got, 300u);
  std::set<sim::Name> unique(names.begin(), names.begin() + got);
  EXPECT_EQ(unique.size(), got);
  EXPECT_EQ(service.release_many(names.data(), got), got);
  EXPECT_EQ(service.names_live(), 0u);
}

TEST(BitmapService, ResetInvalidatesAndReissues) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  RenamingService service(128, opts);
  std::vector<sim::Name> names(64);
  ASSERT_EQ(service.acquire_many(64, names.data()), 64u);
  service.reset();
  EXPECT_EQ(service.names_live(), 0u);
  EXPECT_FALSE(service.release(names[0])) << "stale-epoch name released";
  std::vector<sim::Name> again(128);
  EXPECT_EQ(service.acquire_many(128, again.data()), 128u);
}

// NameStash interop on a bitmap-backed service: stash hits must serve
// names whose bits stay set, spills must really free bits, and uniqueness
// must hold across threads churning with caches on.
TEST(BitmapService, NameStashInteropUnderChurn) {
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  RenamingServiceOptions opts;
  opts.name_cache = true;
  // The service's internal probe RNG streams are this test's only
  // randomness: log/override the seed they all derive from.
  opts.seed = test::stress_seed("BitmapService.NameStashInteropUnderChurn",
                                opts.seed);
  RenamingService service(1024, opts);
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      std::vector<sim::Name> held;
      for (int i = 0; i < kOps; ++i) {
        const sim::Name name = service.acquire();
        if (name < 0) {
          failed.store(true);
          break;
        }
        held.push_back(name);
        if (held.size() >= 16) {
          // Mix single and batched releases so the stash absorbs, spills,
          // and forwards.
          service.release(held.back());
          held.pop_back();
          service.release_many(held.data(), 8);
          held.erase(held.begin(), held.begin() + 8);
        }
      }
      for (const sim::Name n : held) service.release(n);
      service.flush_thread_cache();
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_FALSE(failed.load()) << "acquire failed under ample capacity";
  EXPECT_EQ(service.names_live(), 0u)
      << "names leaked through the stash on a bitmap substrate";
  EXPECT_GT(service.cache_hits(), 0u) << "stash never served a bitmap name";
}

TEST(BitmapElastic, GrowShrinkReclaimOnBitmapSubstrate) {
  ElasticOptions opts;
  opts.seed = test::stress_seed("BitmapElastic.GrowShrinkReclaimOnBitmapSubstrate",
                                opts.seed);
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.name_cache = false;
  ElasticRenamingService service(64, opts);
  // Saturate past the initial capacity: growth must kick in and every
  // name must stay unique across the generations it spans.
  std::vector<sim::Name> held;
  for (int i = 0; i < 1500; ++i) {
    const sim::Name name = service.acquire();
    ASSERT_GE(name, 0) << "exhausted despite growth headroom at " << i;
    held.push_back(name);
  }
  std::set<sim::Name> unique(held.begin(), held.end());
  EXPECT_EQ(unique.size(), held.size());
  EXPECT_GE(service.grow_events(), 1u);
  // Drain and shrink back; retired bitmap-backed generations must still
  // release correctly through the tag table and reclaim.
  for (const sim::Name name : held) EXPECT_TRUE(service.release(name));
  EXPECT_EQ(service.names_live(), 0u);
  while (service.shrink()) {
  }
  service.reclaim();
  EXPECT_EQ(service.holders(), 64u);
  EXPECT_EQ(service.groups_in_flight(), 1u);
}

}  // namespace
}  // namespace loren
