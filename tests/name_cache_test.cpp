// The thread-local name cache (renaming/thread_ctx.h NameStash + its
// integration in RenamingService and ElasticRenamingService):
//
//   * stash hit/miss/overflow-spill units — a released name is re-issued
//     to its releasing thread with no shared traffic, overflow spills the
//     oldest half through the shared path, double releases of stashed
//     names are rejected;
//   * adaptive sizing — the per-thread capacity doubles under sustained
//     hot reuse and halves under adversarial zero-reuse;
//   * reset invalidation — a fixed-service reset() discards stashes, so
//     a stale stashed name is never re-issued into a fresh epoch;
//   * cross-thread handoff stress — names released on thread A must NOT
//     be served to thread B out of A's stash; B can only see them after
//     they spill/flush through the shared path (runs under TSan in CI);
//   * elastic stale-stash regression — after a shrink, a name stashed
//     under a retired generation is never returned by acquire (it is
//     flushed through the tag table instead), and the retired generation
//     still drains and reclaims.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "platform/rng.h"
#include "test_seed.h"
#include "renaming/service.h"
#include "renaming/thread_ctx.h"

namespace loren {
namespace {

using sim::Name;

RenamingServiceOptions cached(std::uint64_t shards, std::uint32_t cap = 16) {
  RenamingServiceOptions opts;
  opts.shards = shards;
  opts.name_cache = true;
  opts.name_cache_capacity = cap;
  return opts;
}

// ------------------------------------------------------- stash units ----

TEST(NameStash, LifoPushPopAndContains) {
  NameStash st;
  st.configure(8);
  EXPECT_TRUE(st.empty());
  EXPECT_EQ(st.capacity(), 8u);
  st.push(10);
  st.push(20);
  EXPECT_EQ(st.size(), 2u);
  EXPECT_TRUE(st.contains(10));
  EXPECT_FALSE(st.contains(30));
  EXPECT_EQ(st.pop(), 20) << "LIFO: the hottest (last released) name first";
  EXPECT_EQ(st.pop(), 10);
  EXPECT_TRUE(st.empty());
}

TEST(NameStash, TakeOldestKeepsTheHotHalf) {
  NameStash st;
  st.configure(8);
  for (std::int64_t i = 0; i < 8; ++i) st.push(i);
  std::int64_t out[8];
  EXPECT_EQ(st.take_oldest(out, 3), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(st.size(), 5u);
  EXPECT_EQ(st.pop(), 7) << "the most recently pushed names survive a spill";
}

TEST(NameStash, ConfigureClampsIntoBounds) {
  NameStash st;
  st.configure(1);
  EXPECT_EQ(st.capacity(), NameStash::kMinCapacity);
  st.configure(1000);
  EXPECT_EQ(st.capacity(), NameStash::kMaxCapacity);
}

TEST(NameStash, AdaptiveWindowGrowsAndShrinksCapacity) {
  NameStash st;
  st.configure(16);
  // A full window of hits doubles the capacity...
  for (std::uint32_t i = 0; i < NameStash::kAdaptWindow; ++i) {
    const auto ws = st.note_acquire(true, 1, [] {});
    EXPECT_EQ(ws.rolled, i + 1 == NameStash::kAdaptWindow);
  }
  EXPECT_EQ(st.capacity(), 32u);
  // ...and a full window of misses halves it.
  for (std::uint32_t i = 0; i < NameStash::kAdaptWindow; ++i) {
    st.note_acquire(false, 1, [] {});
  }
  EXPECT_EQ(st.capacity(), 16u);
}

TEST(NameStash, BatchedNoteMatchesSingleCalls) {
  // 100 hits open a window; then 300 misses cross three boundaries: the
  // first window rolls at 100/128 hits (doubles), the next all-miss one
  // halves, a third halves again, and 16 misses stay in flight. Under a
  // bound of 8 re-applied at every roll, the single calls read 32 -> 8 ->
  // 4 -> 4; clamping only once at the end would leave 8.
  for (const std::uint32_t cap : {NameStash::kMaxCapacity, 8u}) {
    NameStash single;
    NameStash batched;
    single.configure(16);
    batched.configure(16);
    int single_rolls = 0;
    int batched_rolls = 0;
    for (int i = 0; i < 100; ++i) {
      single.note_acquire(true, 1, [] {});
      batched.note_acquire(true, 1, [] {});
    }
    NameStash::WindowStats folded;
    for (int i = 0; i < 300; ++i) {
      const NameStash::WindowStats ws = single.note_acquire(false, 1, [&] {
        single.clamp_capacity(cap);
        ++single_rolls;
      });
      folded.hits += ws.hits;
      folded.misses += ws.misses;
      folded.rolled |= ws.rolled;
    }
    const NameStash::WindowStats ws = batched.note_acquire(false, 300, [&] {
      batched.clamp_capacity(cap);
      ++batched_rolls;
    });
    EXPECT_EQ(batched.capacity(), single.capacity()) << "cap " << cap;
    EXPECT_EQ(batched.capacity(), cap == 8 ? 4u : 8u);
    EXPECT_EQ(batched_rolls, single_rolls);
    EXPECT_EQ(batched_rolls, 3);
    EXPECT_EQ(ws.rolled, folded.rolled);
    EXPECT_EQ(ws.hits, folded.hits);
    EXPECT_EQ(ws.misses, folded.misses);
    EXPECT_EQ(ws.hits, 100u);
    EXPECT_EQ(ws.misses, 284u);
    // The in-flight remainder carries over identically.
    const NameStash::WindowStats a = single.take_partial_window();
    const NameStash::WindowStats b = batched.take_partial_window();
    EXPECT_EQ(b.hits, a.hits);
    EXPECT_EQ(b.misses, a.misses);
    EXPECT_EQ(b.misses, 16u);
  }
}

// --------------------------------------------------- fixed service ----

TEST(NameCache, HitServesTheReleasedNameLocally) {
  RenamingService service(256, cached(4));
  const Name a = service.acquire();
  ASSERT_GE(a, 0);
  EXPECT_TRUE(service.release(a));
  EXPECT_EQ(service.thread_cache_size(), 1u);
  // The stashed name comes straight back; the cell never went free, so
  // the live count never moved.
  EXPECT_EQ(service.names_live(), 1u);
  EXPECT_EQ(service.acquire(), a);
  EXPECT_EQ(service.thread_cache_size(), 0u);
  EXPECT_TRUE(service.release(a));
  EXPECT_EQ(service.flush_thread_cache(), 1u);
  EXPECT_EQ(service.names_live(), 0u);
}

TEST(NameCache, DoubleReleaseOfStashedNameFails) {
  RenamingService service(256, cached(4));
  const Name a = service.acquire();
  ASSERT_GE(a, 0);
  EXPECT_TRUE(service.release(a));
  EXPECT_FALSE(service.release(a)) << "stash duplicate scan missed it";
  Name arr[2] = {a, a};
  EXPECT_EQ(service.release_many(arr, 2), 0u);
  service.flush_thread_cache();
  EXPECT_FALSE(service.release(a)) << "spilled cell is free; RMW must reject";
}

TEST(NameCache, NeverAcquiredNameIsNotStashed) {
  RenamingService service(256, cached(4));
  // In-range but never acquired: the cell-held validation load must
  // reject it, or the stash would later hand out a claimable cell.
  EXPECT_FALSE(service.release(5));
  EXPECT_EQ(service.thread_cache_size(), 0u);
}

TEST(NameCache, OverflowSpillsThroughTheSharedPath) {
  RenamingService service(256, cached(4, /*cap=*/8));
  std::vector<Name> names;
  for (int i = 0; i < 9; ++i) names.push_back(service.acquire());
  for (const Name n : names) ASSERT_TRUE(service.release(n));
  // The 9th release found the stash full (capacity 8): the oldest
  // cap/2 + 1 = 5 names spilled through the shared path, then the push
  // went through — 3 + 1 remain stashed and 5 cells went free.
  EXPECT_EQ(service.thread_cache_size(), 4u);
  EXPECT_EQ(service.names_live(), 4u);
  // Reacquisition stays duplicate-free across both paths: the first four
  // come from the stash (exactly the four hottest releases), the rest are
  // fresh shared wins (random probes — not necessarily the spilled cells).
  std::set<Name> seen;
  const std::set<Name> hot(names.begin() + 5, names.end());
  for (int i = 0; i < 9; ++i) {
    const Name n = service.acquire();
    ASSERT_GE(n, 0);
    EXPECT_TRUE(seen.insert(n).second) << "duplicate " << n;
    if (i < 4) {
      EXPECT_TRUE(hot.count(n)) << "stash served a non-stashed name";
    }
  }
  EXPECT_EQ(service.names_live(), 9u);
}

TEST(NameCache, AdaptiveCapacityGrowsUnderHotReuse) {
  RenamingService service(1024, cached(4, /*cap=*/16));
  ASSERT_EQ(service.thread_cache_capacity(), 16u);
  const Name a = service.acquire();
  ASSERT_GE(a, 0);
  // >= 3 windows of pure hits: 16 -> 32 -> 64 (and stays clamped there).
  for (std::uint32_t i = 0; i < 4 * NameStash::kAdaptWindow; ++i) {
    ASSERT_TRUE(service.release(a));
    ASSERT_EQ(service.acquire(), a);
  }
  EXPECT_EQ(service.thread_cache_capacity(), NameStash::kMaxCapacity);
  EXPECT_GT(service.cache_hits(), 3u * NameStash::kAdaptWindow - 1);
  service.release(a);
  service.flush_thread_cache();
}

TEST(NameCache, AdaptiveCapacityShrinksUnderZeroReuse) {
  RenamingService service(1024, cached(4, /*cap=*/16));
  // Adversarial zero-reuse: acquire a big block with an empty stash (all
  // misses), release it all (at most cap stashed, rest shared), repeat.
  // Hit rate stays <= cap/block < 1/4, so the capacity walks down to the
  // floor and the stash stops hoarding names.
  std::vector<Name> block(128);
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t got = service.acquire_many(block.size(), block.data());
    ASSERT_EQ(got, block.size());
    EXPECT_EQ(service.release_many(block.data(), got), got);
  }
  EXPECT_EQ(service.thread_cache_capacity(), NameStash::kMinCapacity);
  service.flush_thread_cache();
  EXPECT_EQ(service.names_live(), 0u);
}

TEST(NameCache, ResetInvalidatesTheStash) {
  RenamingService service(256, cached(4));
  const Name a = service.acquire();
  ASSERT_GE(a, 0);
  ASSERT_TRUE(service.release(a));
  ASSERT_EQ(service.thread_cache_size(), 1u);
  service.reset();
  // The stash is discarded, not served: the full namespace is acquirable
  // with no duplicates, and `a` appears exactly once (from the arena, not
  // the stale stash).
  EXPECT_EQ(service.thread_cache_size(), 0u);
  std::set<Name> seen;
  for (std::uint64_t i = 0; i < service.capacity(); ++i) {
    const Name n = service.acquire();
    ASSERT_GE(n, 0);
    ASSERT_TRUE(seen.insert(n).second) << "duplicate " << n;
  }
  EXPECT_TRUE(seen.count(a));
}

TEST(NameCache, AcquireManyDrainsStashFirst) {
  RenamingService service(256, cached(4, /*cap=*/16));
  Name block[8];
  ASSERT_EQ(service.acquire_many(8, block), 8u);
  ASSERT_EQ(service.release_many(block, 8), 8u);
  ASSERT_EQ(service.thread_cache_size(), 8u);
  // The batch is served from the stash: same 8 names, zero shared claims.
  Name again[8];
  ASSERT_EQ(service.acquire_many(8, again), 8u);
  EXPECT_EQ(service.thread_cache_size(), 0u);
  std::set<Name> a(block, block + 8), b(again, again + 8);
  EXPECT_EQ(a, b);
  service.release_many(again, 8);
  service.flush_thread_cache();
  EXPECT_EQ(service.names_live(), 0u);
}

// ----------------------------------------- cross-thread handoff ----

TEST(NameCacheStress, HandoffOnlyThroughTheSharedPath) {
  // Thread A acquires the whole namespace, then releases everything: its
  // stash absorbs up to its capacity, the rest spills shared. While A is
  // alive its stash is private (the per-thread magazine never serves
  // another thread) — but when A *exits*, its thread context flushes the
  // stash through the shared release path (renaming/service_directory.h),
  // so no name is stranded in a dead thread's stash. Thread B can then
  // acquire the entire namespace.
  RenamingService service(256, cached(4, /*cap=*/16));
  const std::uint64_t capacity = service.capacity();

  std::vector<Name> a_names;
  std::uint32_t a_stashed = 0;
  std::thread a0([&] {
    for (;;) {
      const Name n = service.acquire();
      if (n < 0) break;
      a_names.push_back(n);
    }
    ASSERT_EQ(a_names.size(), capacity);
    ASSERT_EQ(service.release_many(a_names.data(), a_names.size()), capacity);
    a_stashed = service.thread_cache_size();
    ASSERT_GT(a_stashed, 0u);
  });
  a0.join();
  // A's exit flush drained its stash through release_shared: nothing is
  // live anywhere, including the a_stashed names that used to be parked
  // (and, before the exit-flush fix, leaked forever).
  EXPECT_EQ(service.names_live(), 0u);

  std::vector<Name> b_names;
  std::thread b([&] {
    std::vector<Name> batch(capacity);
    const std::uint64_t got = service.acquire_many(capacity, batch.data());
    b_names.assign(batch.begin(), batch.begin() + got);
  });
  b.join();
  EXPECT_EQ(b_names.size(), capacity)
      << "names parked in dead thread A's stash were leaked";

  // Every one of A's names reappeared for B — handoff went through the
  // shared path (the exit flush), never by reading A's stash directly.
  std::set<Name> b_set(b_names.begin(), b_names.end());
  std::uint64_t invisible = 0;
  for (const Name n : a_names) invisible += b_set.count(n) ? 0 : 1;
  EXPECT_EQ(invisible, 0u);
  EXPECT_EQ(service.names_live(), b_names.size());
}

// The concurrent handoff stress: every released name crosses threads via
// a shared exchange slot; the owner table catches any double issue. Runs
// under TSan in CI.
TEST(NameCacheStress, ConcurrentHandoffKeepsNamesUnique) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  RenamingService service(768, cached(0));
  const std::uint64_t capacity = service.capacity();
  std::vector<std::atomic<int>> owner(capacity);
  for (auto& o : owner) o.store(-1);
  std::vector<std::atomic<Name>> slots(kThreads * 4);
  for (auto& s : slots) s.store(-1);
  std::atomic<std::uint64_t> violations{0};

  const std::uint64_t seed = test::stress_seed(
      "NameCacheStress.ConcurrentHandoffKeepsNamesUnique", 0x44AD0FF);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t, seed] {
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const Name mine = service.acquire();
        if (mine < 0) continue;
        int expected = -1;
        if (!owner[mine].compare_exchange_strong(expected, t)) {
          ++violations;
          continue;
        }
        // Publish my name, adopt whoever was parked there, release it.
        const Name theirs =
            slots[rng.below(slots.size())].exchange(mine);
        if (theirs < 0) continue;
        const int holder = owner[theirs].exchange(-1);
        if (holder < 0) ++violations;  // nobody actually held it
        if (!service.release(theirs)) ++violations;
      }
      service.flush_thread_cache();
    });
  }
  for (auto& th : pool) th.join();
  // Drain the slots single-threaded and check the books balance.
  std::uint64_t parked = 0;
  for (auto& s : slots) {
    const Name n = s.load();
    if (n >= 0) {
      ++parked;
      owner[n].store(-1);
      if (!service.release(n)) ++violations;
    }
  }
  service.flush_thread_cache();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(service.names_live(), 0u);
}

// --------------------------------------------- elastic stale stash ----

TEST(ElasticNameCache, StaleStashedNameIsNeverReturnedAfterShrink) {
  ElasticOptions opts;
  opts.epsilon = 0.5;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  ElasticRenamingService svc(64, opts);

  // Stash names under generation 1.
  std::vector<Name> first;
  for (int i = 0; i < 8; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    first.push_back(n);
  }
  for (const Name n : first) ASSERT_TRUE(svc.release(n));
  ASSERT_EQ(svc.thread_cache_size(), 8u);
  const std::set<Name> stale(first.begin(), first.end());

  // Retire generation 1: grow then shrink (gen 3 is live, tag != 0).
  ASSERT_TRUE(svc.grow());
  ASSERT_TRUE(svc.shrink());
  const std::uint64_t gen = svc.generation();
  ASSERT_EQ(gen, 3u);

  // Every subsequent acquire must come from the live generation — never
  // a stale stashed name from retired generation 1.
  std::vector<Name> fresh;
  for (int i = 0; i < 64; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    EXPECT_FALSE(stale.count(n))
        << "acquire returned a name stashed under a retired generation";
    fresh.push_back(n);
  }
  // The first post-resize call flushed the stale stash through the tag
  // table, so generation 1 drains and reclaims.
  for (const Name n : fresh) ASSERT_TRUE(svc.release(n));
  svc.flush_thread_cache();
  for (int i = 0; i < 4 && svc.groups_in_flight() > 1; ++i) svc.reclaim();
  EXPECT_EQ(svc.groups_in_flight(), 1u);
  EXPECT_EQ(svc.names_live(), 0u);
}

// Concurrent variant, run under TSan in CI: workers churn with the cache
// on while the main thread forces grow/shrink cycles; the ledger catches
// any stale re-issue (a name from a retired generation being handed out
// while its legitimate holder still has it, or double-issued after a
// flush). Zero uniqueness violations is the acceptance criterion.
TEST(ElasticNameCache, ShrinkStressKeepsStashedNamesUnique) {
  constexpr int kThreads = 4;
  constexpr int kIters = 8000;
  ElasticOptions opts;
  opts.epsilon = 0.5;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.grow_miss_threshold = 2;
  ElasticRenamingService svc(64, opts);

  std::vector<std::atomic<std::uint8_t>> flags(1u << 20);
  std::atomic<std::uint64_t> violations{0};
  std::atomic<bool> stop{false};

  const std::uint64_t seed = test::stress_seed(
      "ElasticNameCache.ShrinkStressKeepsStashedNamesUnique", 0xE1A57);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t, seed] {
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(t));
      std::vector<Name> held;
      for (int i = 0; i < kIters; ++i) {
        if (held.size() < 32 && rng.below(2) == 0) {
          const Name n = svc.acquire();
          if (n < 0) continue;
          if (static_cast<std::uint64_t>(n) >= flags.size() ||
              flags[n].exchange(1) != 0) {
            ++violations;
          } else {
            held.push_back(n);
          }
        } else if (!held.empty()) {
          const Name n = held.back();
          held.pop_back();
          if (flags[n].exchange(0) != 1) ++violations;
          if (!svc.release(n)) ++violations;
        }
      }
      for (const Name n : held) {
        flags[n].store(0);
        if (!svc.release(n)) ++violations;
      }
      svc.flush_thread_cache();
    });
  }
  // Resize churn: alternate grows and shrinks while the workers run, so
  // stashes are repeatedly invalidated mid-flight.
  std::thread resizer([&, seed] {
    Xoshiro256 rng(mix_seed(seed, 0x5121E));
    for (int i = 0; i < 200 && !stop.load(); ++i) {
      if (rng.below(2) == 0) {
        svc.grow();
      } else {
        svc.shrink();
      }
      svc.reclaim();
      std::this_thread::yield();
    }
  });
  for (auto& th : pool) th.join();
  stop.store(true);
  resizer.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(svc.names_live(), 0u);
  // Everything drained: retirees reclaim down to the single live group.
  for (int i = 0; i < 8 && svc.groups_in_flight() > 1; ++i) svc.reclaim();
  EXPECT_EQ(svc.groups_in_flight(), 1u);
}

}  // namespace
}  // namespace loren
