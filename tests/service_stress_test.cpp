// Real-thread stress tests for the sharded RenamingService: global
// uniqueness and namespace bounds under acquire/release churn across
// shards, epoch-reset correctness, and the overflow/steal path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "platform/rng.h"
#include "renaming/service.h"

namespace loren {
namespace {

RenamingServiceOptions sharded(std::uint64_t shards) {
  RenamingServiceOptions opts;
  opts.shards = shards;
  return opts;
}

TEST(RenamingService, SingleThreadFillsWholeNamespace) {
  RenamingService service(256, sharded(4));
  EXPECT_EQ(service.num_shards(), 4u);
  std::set<sim::Name> names;
  for (std::uint64_t i = 0; i < service.capacity(); ++i) {
    const sim::Name name = service.acquire();
    ASSERT_GE(name, 0) << "exhausted after " << i << " of "
                       << service.capacity();
    ASSERT_LT(static_cast<std::uint64_t>(name), service.capacity());
    ASSERT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  EXPECT_EQ(service.acquire(), -1) << "acquired beyond capacity";
  EXPECT_EQ(service.names_live(), service.capacity());
}

TEST(RenamingService, ReleaseValidates) {
  RenamingService service(64, sharded(2));
  const sim::Name name = service.acquire();
  ASSERT_GE(name, 0);
  EXPECT_FALSE(service.release(-1));
  EXPECT_FALSE(service.release(static_cast<sim::Name>(service.capacity())));
  EXPECT_TRUE(service.release(name));
  EXPECT_FALSE(service.release(name)) << "double release succeeded";
  // The release parked the name in this thread's stash (still counted
  // live); flushing drains it through the shared path.
  EXPECT_EQ(service.names_live(), 1u);
  EXPECT_EQ(service.flush_thread_cache(), 1u);
  EXPECT_EQ(service.names_live(), 0u);
}

TEST(RenamingService, ReleaseValidatesUncached) {
  // Same contract with the name cache off: validation is the single RMW.
  RenamingServiceOptions opts = sharded(2);
  opts.name_cache = false;
  RenamingService service(64, opts);
  const sim::Name name = service.acquire();
  ASSERT_GE(name, 0);
  EXPECT_TRUE(service.release(name));
  EXPECT_FALSE(service.release(name)) << "double release succeeded";
  EXPECT_EQ(service.names_live(), 0u);
  EXPECT_EQ(service.flush_thread_cache(), 0u) << "nothing to flush uncached";
}

TEST(RenamingService, EpochResetMakesStaleCellsWinnable) {
  RenamingService service(64, sharded(4));
  std::vector<sim::Name> first;
  for (int i = 0; i < 64; ++i) {
    const sim::Name name = service.acquire();
    ASSERT_GE(name, 0);
    first.push_back(name);
  }
  service.reset();
  EXPECT_EQ(service.names_live(), 0u);
  // Stale-generation cells must be winnable: the full namespace is
  // acquirable again, including every name held before the reset.
  std::set<sim::Name> names;
  for (std::uint64_t i = 0; i < service.capacity(); ++i) {
    const sim::Name name = service.acquire();
    ASSERT_GE(name, 0) << "stale cell not winnable after epoch reset";
    ASSERT_TRUE(names.insert(name).second);
  }
  for (const sim::Name name : first) {
    EXPECT_TRUE(names.count(name)) << "pre-reset name " << name
                                   << " unreachable after reset";
  }
}

// The core stress: T real threads churn acquire/release; every acquired
// name is tagged in a shared owner table with compare-exchange, so any
// uniqueness violation (two concurrent holders of one name) trips the CAS.
void churn_stress(std::uint64_t n, std::uint64_t shards, int threads,
                  int iters_per_thread) {
  RenamingService service(n, sharded(shards));
  const std::uint64_t capacity = service.capacity();
  std::vector<std::atomic<int>> owner(capacity);
  for (auto& o : owner) o.store(-1);
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> exhausted{0};

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(0xC0FFEE + t);
      std::vector<sim::Name> held;
      // Keep 8..48 names held: an unbounded coin-flip walk would let the
      // total live set wander past n, where exhaustion is legitimate and
      // outside the long-lived contract (at most n concurrent holders).
      constexpr std::size_t kMaxHeld = 48;
      for (int i = 0; i < iters_per_thread; ++i) {
        if (held.size() < 8 ||
            (held.size() < kMaxHeld && rng.below(2) == 0)) {
          const sim::Name name = service.acquire();
          if (name < 0) {
            ++exhausted;
            continue;
          }
          if (static_cast<std::uint64_t>(name) >= capacity) {
            ++violations;  // namespace bound broken
            continue;
          }
          int expected = -1;
          if (!owner[name].compare_exchange_strong(expected, t)) {
            ++violations;  // uniqueness broken: someone already holds it
          } else {
            held.push_back(name);
          }
        } else {
          const sim::Name name = held.back();
          held.pop_back();
          int expected = t;
          if (!owner[name].compare_exchange_strong(expected, -1)) {
            ++violations;
          }
          if (!service.release(name)) ++violations;  // we do hold it
        }
      }
      for (const sim::Name name : held) {
        owner[name].store(-1);
        if (!service.release(name)) ++violations;
      }
      // Drain this worker's stash so quiescent accounting is exact.
      service.flush_thread_cache();
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(violations.load(), 0u);
  // Total concurrent holders stay under n (<= kMaxHeld per thread, plus
  // a bounded per-thread stash), so the namespace should never have been
  // exhausted.
  EXPECT_EQ(exhausted.load(), 0u);
  EXPECT_EQ(service.names_live(), 0u) << "live counter drifted";
}

// Namespace sizing: per-thread demand is kMaxHeld (48) held names plus a
// stash of up to NameStash::kMaxCapacity (64) parked ones — 112 per
// thread. What bounds exhaustion is capacity() = ~(1+eps)n, not n, so
// with eps = 0.5 the n=768 runs give capacity >= 1152 >= 8 * 112 = 896
// and the zero-exhaustion assertion is airtight.
TEST(RenamingServiceStress, ChurnAcrossFourShards) {
  churn_stress(/*n=*/768, /*shards=*/4, /*threads=*/8, /*iters=*/20000);
}

TEST(RenamingServiceStress, ChurnAcrossEightShards) {
  churn_stress(/*n=*/768, /*shards=*/8, /*threads=*/8, /*iters=*/20000);
}

TEST(RenamingServiceStress, ChurnSingleShard) {
  churn_stress(/*n=*/512, /*shards=*/1, /*threads=*/4, /*iters=*/20000);
}

TEST(RenamingServiceStress, OverflowStealsFromNeighbours) {
  // More concurrent holders than one shard serves: threads must steal
  // across shards, and every name must still be unique and in range.
  RenamingService service(256, sharded(4));
  const std::uint64_t per_shard = service.shard_holders();
  ASSERT_LT(per_shard, 256u);
  constexpr int kThreads = 4;
  // Collectively hold ~85% of capacity so some shards must overflow.
  const std::uint64_t target = service.capacity() * 85 / 100 / kThreads;
  std::vector<std::vector<sim::Name>> held(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < target; ++i) {
        const sim::Name name = service.acquire();
        if (name >= 0) held[t].push_back(name);
      }
    });
  }
  for (auto& th : pool) th.join();

  std::set<sim::Name> all;
  for (const auto& names : held) {
    for (const sim::Name name : names) {
      ASSERT_LT(static_cast<std::uint64_t>(name), service.capacity());
      ASSERT_TRUE(all.insert(name).second) << "duplicate " << name;
    }
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(target) * kThreads);
  EXPECT_EQ(service.names_live(), all.size());
}

TEST(RenamingService, AcquireManyFillsAndExhausts) {
  RenamingService service(256, sharded(4));
  const std::uint64_t capacity = service.capacity();
  std::set<sim::Name> names;
  std::vector<sim::Name> all;
  std::vector<sim::Name> batch(50);
  // Batches drain the namespace completely: every name unique and in
  // range, partial batches only at the very end, then hard exhaustion.
  for (;;) {
    const std::uint64_t got = service.acquire_many(batch.size(), batch.data());
    if (got == 0) break;
    for (std::uint64_t i = 0; i < got; ++i) {
      ASSERT_GE(batch[i], 0);
      ASSERT_LT(static_cast<std::uint64_t>(batch[i]), capacity);
      ASSERT_TRUE(names.insert(batch[i]).second) << "duplicate " << batch[i];
      all.push_back(batch[i]);
    }
    if (got < batch.size()) {
      EXPECT_EQ(names.size(), capacity)
          << "a partial batch is only legal on exhaustion";
    }
  }
  EXPECT_EQ(names.size(), capacity);
  EXPECT_EQ(service.acquire_many(1, batch.data()), 0u);
  EXPECT_EQ(service.names_live(), capacity);
  // Batched release round-trip; double release frees nothing (stashed
  // entries are caught by the duplicate scan, spilled ones by the RMW).
  EXPECT_EQ(service.release_many(all.data(), all.size()), capacity);
  EXPECT_EQ(service.release_many(all.data(), all.size()), 0u);
  service.flush_thread_cache();
  EXPECT_EQ(service.names_live(), 0u);
}

TEST(RenamingService, AcquireManyMatchesSinglesSemantics) {
  // A batch of k against k singles on an identical twin service: both
  // must succeed fully and stay within the namespace bound.
  RenamingService batched(256, sharded(4));
  sim::Name batch[16];
  ASSERT_EQ(batched.acquire_many(16, batch), 16u);
  std::set<sim::Name> unique(batch, batch + 16);
  EXPECT_EQ(unique.size(), 16u);
  EXPECT_EQ(batched.names_live(), 16u);
  // Mixed-mode interop: singles release what a batch acquired (the first
  // 16 park in this thread's stash; the flush spills them).
  for (const sim::Name n : batch) EXPECT_TRUE(batched.release(n));
  batched.flush_thread_cache();
  EXPECT_EQ(batched.names_live(), 0u);
  // And a batch releases what singles acquired.
  std::vector<sim::Name> singles;
  for (int i = 0; i < 16; ++i) singles.push_back(batched.acquire());
  EXPECT_EQ(batched.release_many(singles.data(), singles.size()), 16u);
  batched.flush_thread_cache();
  EXPECT_EQ(batched.names_live(), 0u);
}

// Batched variant of the churn stress: threads acquire in zipf-ish sized
// batches and release in batches, with the same CAS-owner-table uniqueness
// oracle. Runs under TSan in CI like the single-name churn.
void batch_churn_stress(std::uint64_t n, std::uint64_t shards, int threads,
                        int iters_per_thread) {
  RenamingService service(n, sharded(shards));
  const std::uint64_t capacity = service.capacity();
  std::vector<std::atomic<int>> owner(capacity);
  for (auto& o : owner) o.store(-1);
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> short_batches{0};

  constexpr std::uint64_t kMaxBatch = 16;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(0xBA7C4 + t);
      std::vector<sim::Name> held;
      sim::Name batch[kMaxBatch];
      constexpr std::size_t kMaxHeld = 48;
      for (int i = 0; i < iters_per_thread; ++i) {
        if (held.size() < kMaxHeld && rng.below(2) == 0) {
          const std::uint64_t want =
              std::min<std::uint64_t>(1 + rng.below(kMaxBatch),
                                      kMaxHeld - held.size());
          // A single acquire_many pass can transiently come up short
          // under churn (cells freed behind the sweep cursor are not
          // revisited — see service.h); with the live total bounded well
          // under n, a *bounded retry* must top the batch up. Only a
          // persistent shortfall counts as exhaustion.
          std::uint64_t got = service.acquire_many(want, batch);
          for (int retry = 0; got < want && retry < 8; ++retry) {
            got += service.acquire_many(want - got, batch + got);
          }
          if (got < want) ++short_batches;
          for (std::uint64_t j = 0; j < got; ++j) {
            const sim::Name name = batch[j];
            if (static_cast<std::uint64_t>(name) >= capacity) {
              ++violations;  // namespace bound broken
              continue;
            }
            int expected = -1;
            if (!owner[name].compare_exchange_strong(expected, t)) {
              ++violations;  // uniqueness broken
            } else {
              held.push_back(name);
            }
          }
        } else if (!held.empty()) {
          const std::uint64_t m =
              std::min<std::uint64_t>(1 + rng.below(kMaxBatch), held.size());
          for (std::uint64_t j = 0; j < m; ++j) {
            const sim::Name name = held.back();
            held.pop_back();
            batch[j] = name;
            int expected = t;
            if (!owner[name].compare_exchange_strong(expected, -1)) {
              ++violations;
            }
          }
          if (service.release_many(batch, m) != m) ++violations;
        }
      }
      if (!held.empty()) {
        for (const sim::Name name : held) owner[name].store(-1);
        if (service.release_many(held.data(), held.size()) != held.size()) {
          ++violations;
        }
      }
      // Drain this worker's stash so quiescent accounting is exact.
      service.flush_thread_cache();
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(violations.load(), 0u);
  // <= kMaxHeld live per thread keeps total demand under n, so a batch
  // that stays short across the retries means real exhaustion, which the
  // bound rules out.
  EXPECT_EQ(short_batches.load(), 0u);
  EXPECT_EQ(service.names_live(), 0u) << "live counter drifted";
}

TEST(RenamingServiceStress, BatchChurnAcrossFourShards) {
  batch_churn_stress(/*n=*/768, /*shards=*/4, /*threads=*/8, /*iters=*/8000);
}

TEST(RenamingServiceStress, BatchChurnAcrossEightShards) {
  batch_churn_stress(/*n=*/768, /*shards=*/8, /*threads=*/8, /*iters=*/8000);
}

TEST(RenamingService, AutoShardingPicksPowerOfTwo) {
  RenamingService service(1u << 14, RenamingServiceOptions{});
  const std::uint64_t s = service.num_shards();
  EXPECT_GE(s, 1u);
  EXPECT_EQ(s & (s - 1), 0u) << "shard count not a power of two";
  EXPECT_GE(service.shard_holders(), 64u);
  EXPECT_GE(service.capacity(), 1u << 14);
}

TEST(RenamingService, ResetUnderRepeatedRounds) {
  // The bench-pool pattern: fill to 60%, reset, refill — across rounds the
  // service must keep producing unique names without reallocation.
  RenamingService service(128, sharded(4));
  const std::uint64_t threshold = service.capacity() * 6 / 10;
  for (int round = 0; round < 50; ++round) {
    std::set<sim::Name> names;
    for (std::uint64_t i = 0; i < threshold; ++i) {
      const sim::Name name = service.acquire();
      ASSERT_GE(name, 0);
      ASSERT_TRUE(names.insert(name).second)
          << "duplicate in round " << round;
    }
    service.reset();
  }
}

}  // namespace
}  // namespace loren
