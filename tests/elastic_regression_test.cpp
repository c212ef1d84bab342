// Regression tests for three elastic-path bugs fixed together:
//
//   1. Spurious grows: ElasticRenamingService::acquire's sweep-path wins
//      never cleared miss_streak_, so sweep-served acquisitions let the
//      streak accumulate across calls and one later schedule miss crossed
//      grow_miss_threshold — doubling capacity with no sustained pressure.
//   2. hardware_concurrency() == 0: auto_shard_count used the raw value,
//      where 0 ("unknown") made the `shards < hw` growth condition
//      unsatisfiable by accident of unsigned comparison. Now clamped to
//      1 — the same conservative shard count, but as an explicit,
//      documented contract — and hw is injectable so the policy is
//      unit-testable against any topology.
//   3. Stale double-release ABA: a release() of a name from an already-
//      reclaimed generation whose 3-bit tag has been recycled validated
//      only the tag, freeing a victim's cell in the *new* group. The
//      debug_release_guard generation stamp rejects it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "elastic/elastic_service.h"
#include "renaming/service.h"

namespace loren {
namespace {

using sim::Name;

// ---------------------------------------------------- 1. spurious grow ----

TEST(ElasticRegression, SweepWinsDoNotAccumulateIntoSpuriousGrow) {
  ElasticOptions opts;
  opts.epsilon = 0.5;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.auto_grow = true;
  opts.grow_miss_threshold = 4;
  // Cache off: the repro needs every re-acquisition to walk the probe
  // schedule into the sweep; with a stash the released name would be
  // re-issued thread-locally and the sweep path never runs.
  opts.name_cache = false;
  ElasticRenamingService svc(64, opts);

  // Fill every cell of the live group. Each acquisition succeeds (via
  // schedule or sweep), so no true exhaustion and no legitimate grow.
  const std::uint64_t cells =
      svc.capacity() >> ElasticRenamingService::kTagBits;
  std::vector<Name> held;
  held.reserve(cells);
  for (std::uint64_t i = 0; i < cells; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0) << "group exhausted early at " << i << " of " << cells;
    held.push_back(n);
  }

  // Saturated churn: release one name, re-acquire it. With a single free
  // cell the probe schedule all but always misses and the deterministic
  // sweep serves the call — a *successful* acquisition every time, so the
  // miss streak must never reach grow_miss_threshold. Unfixed, sweep wins
  // left the streak in place and four such calls doubled capacity.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(svc.release(held.back()));
    held.pop_back();
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    held.push_back(n);
  }

  EXPECT_EQ(svc.grow_events(), 0u)
      << "sweep-served acquisitions accumulated into a spurious grow";
  EXPECT_EQ(svc.holders(), 64u);
  EXPECT_EQ(svc.generation(), 1u);

  for (const Name n : held) EXPECT_TRUE(svc.release(n));
}

// --------------------------------------------- 2. hw-detection faults ----

TEST(AutoShardCount, ZeroHardwareConcurrencyMeansOne) {
  BatchLayoutParams params;
  params.epsilon = 0.5;
  // 0 = "could not be determined" per the standard; the policy must treat
  // it as 1, not let `shards < 0u` disable thread dispersion.
  const std::uint64_t s0 = auto_shard_count(1u << 14, params, 0);
  const std::uint64_t s1 = auto_shard_count(1u << 14, params, 1);
  EXPECT_GE(s0, 1u);
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(s0 & (s0 - 1), 0u) << "not a power of two";
}

TEST(AutoShardCount, ShardsForInjectedTopology) {
  BatchLayoutParams params;
  params.epsilon = 0.5;
  // Large namespace, 8 hardware threads: at least 8 home shards.
  EXPECT_GE(auto_shard_count(1u << 14, params, 8), 8u);
  // Monotone in hw for a fixed n.
  EXPECT_LE(auto_shard_count(1u << 14, params, 2),
            auto_shard_count(1u << 14, params, 16));
  // Tiny namespaces never shard below 64 holders, whatever hw says.
  EXPECT_EQ(auto_shard_count(64, params, 64), 1u);
}

// The shard count fixes each shard's holder count, and with it the step
// counts and namespace size the benchmark gates on, so the policy's
// values at a 4-thread host are pinned: a change that moves them moves
// those gated figures.
TEST(AutoShardCount, PinnedAtFourHardwareThreads) {
  BatchLayoutParams params;
  params.epsilon = 0.5;
  EXPECT_EQ(auto_shard_count(std::uint64_t{1} << 14, params, 4), 64u);
  EXPECT_EQ(auto_shard_count(std::uint64_t{1} << 16, params, 4), 256u);
  EXPECT_EQ(auto_shard_count(std::uint64_t{1} << 20, params, 4), 4096u);
}

TEST(ShardCountFor, InjectedHwFlowsThroughAndExplicitRequestsStillWin) {
  BatchLayoutParams params;
  params.epsilon = 0.5;
  EXPECT_EQ(shard_count_for(1u << 14, 0, params, 0),
            auto_shard_count(1u << 14, params, 0));
  EXPECT_EQ(shard_count_for(1u << 14, 0, params, 8),
            auto_shard_count(1u << 14, params, 8));
  // An explicit request ignores hw entirely (rounded up to a power of two).
  EXPECT_EQ(shard_count_for(1u << 14, 3, params, 0), 4u);
  EXPECT_EQ(shard_count_for(1u << 14, 4, params, 0), 4u);
}

// ------------------------------------------- 3. stale double-release ----

TEST(ElasticRegression, StaleReleaseFromRecycledTagIsRejected) {
  ElasticOptions opts;
  opts.epsilon = 0.5;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.debug_release_guard = true;
  // Cache off: the ABA setup needs the first release to actually free the
  // cell (so gen 1 drains and tag 0 recycles); a stashed release would
  // keep gen 1 alive and the recycle could never materialize.
  opts.name_cache = false;
  ElasticRenamingService svc(64, opts);

  // A (buggy) client acquires, releases, and keeps a stale copy.
  const Name stale = svc.acquire();
  ASSERT_GE(stale, 0);
  ASSERT_EQ(static_cast<std::uint64_t>(stale) &
                (ElasticRenamingService::kMaxGroups - 1),
            0u)
      << "generation 1 must sit in tag slot 0";
  ASSERT_TRUE(svc.release(stale));

  // Recycle tag 0: resize away (gen 2 takes tag 1, gen 1 drains empty and
  // is reclaimed), then resize back (gen 3 takes the freed tag 0).
  ASSERT_TRUE(svc.resize(128));
  svc.reclaim();  // single-threaded: quiescence is immediate, both stages run
  ASSERT_TRUE(svc.resize(64));
  const Name probe = svc.acquire();
  ASSERT_GE(probe, 0);
  ASSERT_EQ(static_cast<std::uint64_t>(probe) &
                (ElasticRenamingService::kMaxGroups - 1),
            0u)
      << "tag 0 was not recycled — the ABA setup did not materialize";
  ASSERT_TRUE(svc.release(probe));

  // Fill the recycled-tag group completely, so whatever cell the stale
  // name points at is now held by a victim.
  const std::uint64_t cells =
      svc.capacity() >> ElasticRenamingService::kTagBits;
  std::vector<Name> victims;
  victims.reserve(cells);
  for (std::uint64_t i = 0; i < cells; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    victims.push_back(n);
  }

  // The stale double-release must be rejected: its generation stamp (1)
  // mismatches the group now holding tag 0. Unguarded, this freed a
  // victim's cell and the victim's own release then failed.
  EXPECT_FALSE(svc.release(stale))
      << "stale release from a reclaimed generation freed a victim's cell";
  for (const Name n : victims) {
    EXPECT_TRUE(svc.release(n)) << "victim lost its name to the stale release";
  }
}

TEST(ElasticRegression, GuardedNamesStillRoundTrip) {
  ElasticOptions opts;
  opts.epsilon = 0.5;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.debug_release_guard = true;
  ElasticRenamingService svc(64, opts);

  std::set<Name> names;
  for (int i = 0; i < 48; ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    ASSERT_TRUE(names.insert(n).second) << "duplicate " << n;
  }
  // Guarded batches too: stamps ride through acquire_many/release_many.
  Name batch[16];
  const std::uint64_t got = svc.acquire_many(16, batch);
  ASSERT_EQ(got, 16u);
  for (std::uint64_t i = 0; i < got; ++i) {
    ASSERT_TRUE(names.insert(batch[i]).second) << "duplicate " << batch[i];
  }
  EXPECT_EQ(svc.release_many(batch, got), got);
  EXPECT_EQ(svc.release_many(batch, got), 0u) << "double batch release";
  for (const Name n : names) {
    const bool was_batch = std::find(batch, batch + got, n) != batch + got;
    if (!was_batch) {
      EXPECT_TRUE(svc.release(n));
    }
  }
  // Stamped names ride through the stash too; flush for exact accounting.
  svc.flush_thread_cache();
  EXPECT_EQ(svc.names_live(), 0u);
}

}  // namespace
}  // namespace loren
