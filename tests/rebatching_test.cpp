// Tests for the ReBatching algorithm (paper Section 4): correctness under
// every adversary, step bounds, survivor decay (Lemma 4.2), the backup
// phase, stats instrumentation, and crash tolerance. ReBatchingSteps pins
// exact simulator counts for ReBatching and the two adaptive algorithms
// built on its try_get_name.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "renaming/adaptive.h"
#include "renaming/fast_adaptive.h"
#include "renaming/rebatching.h"
#include "sim/runner.h"
#include "sim/scheduler.h"
#include "tas/rw_tas.h"

namespace loren {
namespace {

using sim::AlgoFactory;
using sim::Env;
using sim::Name;
using sim::ProcessId;
using sim::RunConfig;
using sim::RunResult;
using sim::Task;

AlgoFactory rebatching_factory(ReBatching& algo) {
  return [&algo](Env& env, ProcessId) -> Task<Name> {
    co_return co_await algo.get_name(env);
  };
}

std::unique_ptr<sim::Strategy> make_strategy(int kind) {
  switch (kind) {
    case 0: return std::make_unique<sim::RoundRobinStrategy>();
    case 1: return std::make_unique<sim::RandomStrategy>();
    case 2: return std::make_unique<sim::LayeredStrategy>();
    default: return std::make_unique<sim::CollisionAdversary>();
  }
}

class ReBatchingAdversaries
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReBatchingAdversaries, FullContentionUniqueAndBounded) {
  const auto [kind, seed] = GetParam();
  constexpr std::uint64_t kN = 256;
  ReBatching algo(kN, 0.5);
  auto strat = make_strategy(kind);
  RunConfig cfg{.num_processes = kN,
                .seed = static_cast<std::uint64_t>(seed),
                .strategy = strat.get()};
  const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.finished, kN);
  // Namespace: every name inside [0, total).
  EXPECT_LT(r.max_name, static_cast<Name>(algo.layout().total()));
  // Worst case is the backup sweep; sane upper bound check.
  EXPECT_LE(r.max_steps,
            static_cast<std::uint64_t>(algo.layout().max_probes_main_phase()) +
                algo.layout().total());
}

INSTANTIATE_TEST_SUITE_P(Grid, ReBatchingAdversaries,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 3)));

TEST(ReBatching, SoloProcessWinsFirstProbe) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ReBatching algo(64, 0.5);
    sim::RoundRobinStrategy strat;
    RunConfig cfg{.num_processes = 1, .seed = seed, .strategy = &strat};
    const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    EXPECT_EQ(r.max_steps, 1u);  // empty batch 0: first probe always wins
    EXPECT_LT(r.max_name, 64);  // a batch-0 name
  }
}

TEST(ReBatching, TinyNamespaces) {
  for (std::uint64_t n = 1; n <= 8; ++n) {
    ReBatching algo(n, 0.5);
    sim::RandomStrategy strat;
    RunConfig cfg{.num_processes = static_cast<ProcessId>(n),
                  .seed = n,
                  .strategy = &strat};
    const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct()) << "n=" << n;
    EXPECT_EQ(r.finished, n);
  }
}

TEST(ReBatching, StepComplexityIsLogLogPlusConstantWhp) {
  // Measured max steps should stay below the paper's t0 + (kappa-1) + beta
  // main-phase budget (i.e. no process enters the backup) and the *typical*
  // max should be far below it.
  constexpr std::uint64_t kN = 1u << 12;
  ReBatching algo(kN, 0.5);
  const auto budget =
      static_cast<std::uint64_t>(algo.layout().max_probes_main_phase());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ReBatchingStats stats;
    algo.attach_stats(&stats);
    sim::RandomStrategy strat;
    RunConfig cfg{.num_processes = kN, .seed = seed, .strategy = &strat};
    const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    EXPECT_LE(r.max_steps, budget);
    EXPECT_EQ(stats.backup_entries, 0u);
    algo.attach_stats(nullptr);
    // New env per seed: reset shared memory by rebuilding the algo is not
    // needed (simulate creates a fresh SimEnv each time).
  }
}

TEST(ReBatching, TotalStepsLinearInN) {
  // Theorem 4.1: total step complexity O(n) w.h.p.
  for (std::uint64_t n : {1u << 10, 1u << 12, 1u << 14}) {
    ReBatching algo(n, 0.5);
    sim::RandomStrategy strat;
    RunConfig cfg{.num_processes = static_cast<ProcessId>(n),
                  .seed = 99,
                  .strategy = &strat};
    const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    // Far below t0*n (every process exhausting batch 0): in practice ~4n.
    EXPECT_LT(r.total_steps, 8 * n) << "n=" << n;
  }
}

TEST(ReBatching, SurvivorDecayRespectsLemma42Bounds) {
  constexpr std::uint64_t kN = 1u << 14;
  ReBatching algo(kN, 0.5);
  ReBatchingStats stats;
  algo.attach_stats(&stats);
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = kN, .seed = 7, .strategy = &strat};
  const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  // n_{i+1} = failed[i] should be below the paper's n*_{i+1} bound. For
  // i+1 in 1..kappa-1 the bound is eps*n/2^(2^i+i+delta); allow the kappa
  // cases their log^2 n bound.
  const auto& L = algo.layout();
  for (std::uint64_t i = 1; i <= L.kappa(); ++i) {
    EXPECT_LE(static_cast<double>(stats.failed[i - 1]),
              L.survivor_bound(i) + 1.0)
        << "batch " << i;
  }
  EXPECT_EQ(stats.backup_entries, 0u);
  // Everyone enters batch 0.
  EXPECT_EQ(stats.entered[0], kN);
  // Monotone: entered[i+1] == failed[i] when all processes proceed.
  for (std::uint64_t i = 0; i + 1 < L.num_batches(); ++i) {
    EXPECT_EQ(stats.entered[i + 1], stats.failed[i]);
  }
}

TEST(ReBatching, BackupPhaseHandlesPathologicalLayouts) {
  // Force the backup: tiny t0/beta so random probing nearly always fails,
  // n processes on an n-name namespace (eps tiny => nearly no slack).
  constexpr std::uint64_t kN = 32;
  ReBatching algo(kN, ReBatching::Options{
                          .layout = {.epsilon = 0.02, .beta = 1,
                                     .t0_override = 1}});
  ReBatchingStats stats;
  algo.attach_stats(&stats);
  sim::CollisionAdversary strat;  // worst-case scheduling on top
  RunConfig cfg{.num_processes = kN, .seed = 3, .strategy = &strat};
  const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
  // Even in the pathological setup, renaming must stay correct and total:
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.finished, kN);
  EXPECT_GE(stats.backup_entries, 1u);  // the point of this configuration
}

TEST(ReBatching, NoBackupReturnsMinusOneWhenSqueezed) {
  // With backup disabled and more processes than can plausibly win with
  // 1-probe budgets, some processes must return -1 (used by Section 5).
  constexpr std::uint64_t kN = 16;
  ReBatching algo(kN, ReBatching::Options{
                          .layout = {.epsilon = 0.01, .beta = 1,
                                     .t0_override = 1},
                          .backup = false});
  sim::CollisionAdversary strat;
  RunConfig cfg{.num_processes = 64, .seed = 5, .strategy = &strat};
  sim::SimEnv env(64, 5);
  const RunResult r = sim::run_execution(env, rebatching_factory(algo), cfg);
  EXPECT_TRUE(r.names_unique);
  EXPECT_EQ(r.finished, 64u);
  std::uint64_t failures = 0;
  for (const auto& p : r.processes) failures += p.name == -1 ? 1 : 0;
  EXPECT_GE(failures, 1u);
}

// TryGetName(i) walks batch i alone. On a namespace filled in advance
// every probe loses, so each call makes exactly t_i probes and bumps only
// entered[i] and failed[i], and never reaches the backup sweep.
TEST(ReBatching, TryGetNameEntersOnlyItsBatch) {
  constexpr std::uint64_t kN = 64;
  ReBatching algo(kN, 0.5);
  ReBatchingStats stats;
  algo.attach_stats(&stats);
  const std::uint64_t batches = algo.layout().num_batches();
  for (std::uint64_t i = 0; i < batches; ++i) {
    sim::SimEnv env(1, 11);
    for (sim::Location loc = 0; loc < algo.end(); ++loc) env.poke(loc, 1);
    sim::RoundRobinStrategy strat;
    RunConfig cfg{.num_processes = 1, .seed = 11, .strategy = &strat};
    const AlgoFactory factory = [&algo, i](Env& e, ProcessId) -> Task<Name> {
      co_return co_await algo.try_get_name(e, i);
    };
    const RunResult r = sim::run_execution(env, factory, cfg);
    EXPECT_EQ(r.processes[0].name, -1) << "batch " << i;
    EXPECT_EQ(r.processes[0].steps,
              static_cast<std::uint64_t>(algo.layout().probes(i)));
    for (std::uint64_t j = 0; j < batches; ++j) {
      const std::uint64_t want = j <= i ? 1 : 0;
      EXPECT_EQ(stats.entered[j], want) << "after batch " << i << ", j=" << j;
      EXPECT_EQ(stats.failed[j], want) << "after batch " << i << ", j=" << j;
    }
    EXPECT_EQ(stats.backup_entries, 0u);
  }
}

TEST(ReBatching, CrashesDoNotBreakUniqueness) {
  constexpr std::uint64_t kN = 128;
  for (int mode = 0; mode < 2; ++mode) {
    ReBatching algo(kN, 0.5);
    auto base = std::make_unique<sim::RandomStrategy>();
    sim::CrashDecorator strat(std::move(base), /*max_crashes=*/40,
                              mode == 0 ? sim::CrashDecorator::Mode::kRandom
                                        : sim::CrashDecorator::Mode::kBeforeWin,
                              /*interval=*/5);
    RunConfig cfg{.num_processes = kN, .seed = 31, .strategy = &strat};
    const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    // The run may finish before every scheduled crash fires.
    EXPECT_GE(r.crashed, 1u);
    EXPECT_LE(r.crashed, 40u);
    EXPECT_EQ(r.finished, kN - r.crashed);
  }
}

TEST(ReBatching, FewerProcessesThanCapacity) {
  // k << n: processes should win almost immediately in batch 0.
  ReBatching algo(1u << 12, 0.5);
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = 64, .seed = 8, .strategy = &strat};
  const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_LE(r.max_steps, 3u);
}

TEST(ReBatching, NamesLandInTheRightBatchRanges) {
  constexpr std::uint64_t kN = 512;
  ReBatching algo(kN, 0.5);
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = kN, .seed = 15, .strategy = &strat};
  const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  // Most names come from batch 0 (size n); count them.
  std::uint64_t batch0 = 0;
  for (const auto& p : r.processes) {
    if (p.name >= 0 && static_cast<std::uint64_t>(p.name) < kN) ++batch0;
  }
  EXPECT_GT(batch0, kN * 8 / 10);
}

TEST(ReBatching, BaseOffsetsNamespace) {
  ReBatching algo(64, ReBatching::Options{.layout = {.epsilon = 0.5},
                                          .base = 1000});
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = 64, .seed = 2, .strategy = &strat};
  const RunResult r = sim::simulate(rebatching_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  for (const auto& p : r.processes) {
    ASSERT_GE(p.name, 1000);
    ASSERT_LT(p.name, static_cast<Name>(algo.end()));
    EXPECT_TRUE(algo.owns(p.name));
  }
  EXPECT_FALSE(algo.owns(999));
  EXPECT_FALSE(algo.owns(-1));
}

TEST(ReBatching, DeterministicAcrossIdenticalRuns) {
  ReBatching a1(128, 0.5), a2(128, 0.5);
  sim::RandomStrategy s1, s2;
  RunConfig c1{.num_processes = 128, .seed = 77, .strategy = &s1};
  RunConfig c2{.num_processes = 128, .seed = 77, .strategy = &s2};
  const RunResult r1 = sim::simulate(rebatching_factory(a1), c1);
  const RunResult r2 = sim::simulate(rebatching_factory(a2), c2);
  for (std::size_t i = 0; i < r1.processes.size(); ++i) {
    EXPECT_EQ(r1.processes[i].name, r2.processes[i].name);
    EXPECT_EQ(r1.processes[i].steps, r2.processes[i].steps);
  }
}

// ------------------------------------------------ exact step counts ----
//
// Fixed seeds under the random and collision adversaries, pinned with
// EXPECT_EQ: total and max steps, an FNV-1a hash of every issued name in
// process order, and (for ReBatching) the per-batch entered/failed counts
// and backup entries. A change to how the coroutines issue their probes
// (frames, awaiters, RNG plumbing) must leave every value unchanged: it
// may neither add a scheduling point nor reorder a coin flip.

struct PinnedSteps {
  std::uint64_t total_steps = 0;
  std::uint64_t max_steps = 0;
  std::uint64_t name_hash = 0;
  std::vector<std::uint64_t> entered{};
  std::vector<std::uint64_t> failed{};
  std::uint64_t backup_entries = 0;
};

template <class Algo>
PinnedSteps pinned_steps(const std::string& label, Algo& algo,
                         ProcessId procs, std::uint64_t seed, bool collision,
                         ReBatchingStats* stats = nullptr) {
  sim::RandomStrategy random;
  sim::CollisionAdversary adversary;
  RunConfig cfg{.num_processes = procs, .seed = seed,
                .strategy = collision ? static_cast<sim::Strategy*>(&adversary)
                                      : static_cast<sim::Strategy*>(&random),
                .max_total_steps = 5'000'000};
  const RunResult r = sim::simulate(
      [&algo](Env& env, ProcessId) -> Task<Name> {
        co_return co_await algo.get_name(env);
      },
      cfg);
  EXPECT_TRUE(r.renaming_correct());
  PinnedSteps s{.total_steps = r.total_steps, .max_steps = r.max_steps,
                .name_hash = 0xcbf29ce484222325ull};
  for (const auto& p : r.processes) {
    s.name_hash =
        (s.name_hash ^ static_cast<std::uint64_t>(p.name)) * 0x100000001b3ull;
  }
  if (stats != nullptr) {
    s.entered = stats->entered;
    s.failed = stats->failed;
    s.backup_entries = stats->backup_entries;
  }
  std::printf("[ STEPS    ] %s: total %llu max %llu hash %016llx backup %llu "
              "entered/failed",
              label.c_str(), static_cast<unsigned long long>(s.total_steps),
              static_cast<unsigned long long>(s.max_steps),
              static_cast<unsigned long long>(s.name_hash),
              static_cast<unsigned long long>(s.backup_entries));
  for (std::size_t i = 0; i < s.entered.size(); ++i) {
    std::printf(" %llu/%llu", static_cast<unsigned long long>(s.entered[i]),
                static_cast<unsigned long long>(s.failed[i]));
  }
  std::printf("\n");
  return s;
}

void expect_pinned(const PinnedSteps& got, const PinnedSteps& want) {
  EXPECT_EQ(got.total_steps, want.total_steps);
  EXPECT_EQ(got.max_steps, want.max_steps);
  EXPECT_EQ(got.name_hash, want.name_hash);
  EXPECT_EQ(got.entered, want.entered);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.backup_entries, want.backup_entries);
}

PinnedSteps rebatching_steps(const std::string& label, ProcessId n,
                             std::uint64_t seed, bool collision) {
  ReBatching algo(n, 0.5);
  ReBatchingStats stats;
  algo.attach_stats(&stats);
  return pinned_steps(label, algo, n, seed, collision, &stats);
}

TEST(ReBatchingSteps, Random64) {
  expect_pinned(rebatching_steps("random n=64", 64, 11, false),
                PinnedSteps{155, 20, 0xb57564fc0cb67a71,
                            {64, 0, 0, 0}, {0, 0, 0, 0}, 0});
}

TEST(ReBatchingSteps, Random1024) {
  expect_pinned(rebatching_steps("random n=1024", 1024, 12, false),
                PinnedSteps{5265, 130, 0xfab78c97434a1de4,
                            {1024, 9, 0, 0, 0}, {9, 0, 0, 0, 0}, 0});
}

TEST(ReBatchingSteps, Collision64) {
  expect_pinned(rebatching_steps("collision n=64", 64, 13, true),
                PinnedSteps{236, 25, 0x399d4b2adc70aa65,
                            {64, 0, 0, 0}, {0, 0, 0, 0}, 0});
}

TEST(ReBatchingSteps, Collision1024) {
  expect_pinned(rebatching_steps("collision n=1024", 1024, 14, true),
                PinnedSteps{5523, 130, 0x3ab245a17038b478,
                            {1024, 4, 0, 0, 0}, {4, 0, 0, 0, 0}, 0});
}

// The pathological layout of BackupPhaseHandlesPathologicalLayouts: the
// deterministic backup sweep issues names too.
TEST(ReBatchingSteps, BackupSweep) {
  constexpr ProcessId kN = 32;
  ReBatching algo(kN, ReBatching::Options{
                          .layout = {.epsilon = 0.02, .beta = 1,
                                     .t0_override = 1}});
  ReBatchingStats stats;
  algo.attach_stats(&stats);
  expect_pinned(pinned_steps("backup sweep n=32", algo, kN, 3, true, &stats),
                PinnedSteps{207, 25, 0x550bb6171431757a,
                            {32, 15, 14, 13}, {15, 14, 13, 12}, 12});
}

// Probes routed through a TasService: every logical TAS is a read/write
// tournament, so a probe costs many steps.
TEST(ReBatchingSteps, TournamentService) {
  constexpr ProcessId kN = 32;
  const BatchLayout layout(kN, 0.5);
  TournamentTasService service(0, layout.total(), kN);
  ReBatching algo(kN, ReBatching::Options{.layout = {.epsilon = 0.5},
                                          .service = &service});
  ReBatchingStats stats;
  algo.attach_stats(&stats);
  expect_pinned(pinned_steps("tournament n=32", algo, kN, 5, false, &stats),
                PinnedSteps{2660, 1614, 0xed8d916fbe2b3c3b,
                            {32, 0, 0, 0}, {0, 0, 0, 0}, 0});
}

// Two ReBatching objects side by side under the collision adversary: even
// pids probe through a read/write tournament, whose reads and writes the
// adversary skips when it counts TAS contenders and whose cell regions
// appear as processes first reach them; odd pids probe hardware cells of a
// second namespace that no one ensured, so pending TAS locations lie past
// the env's current size until they execute.
struct MixedServices {
  static constexpr ProcessId kN = 32;
  BatchLayout layout{kN, 0.5};
  TournamentTasService tournament{0, layout.total(), kN};
  HardwareTasService hardware{tournament.footprint(), 2 * layout.total()};
  ReBatching rw{kN, ReBatching::Options{.layout = {.epsilon = 0.5},
                                        .service = &tournament}};
  ReBatching hw{kN, ReBatching::Options{.layout = {.epsilon = 0.5},
                                        .base = layout.total(),
                                        .service = &hardware}};

  Task<Name> get_name(Env& env) {
    return env.current_pid() % 2 == 0 ? rw.get_name(env) : hw.get_name(env);
  }
};

TEST(ReBatchingSteps, CollisionMixedServices) {
  MixedServices algo;
  expect_pinned(pinned_steps("collision mixed services n=32", algo,
                             MixedServices::kN, 7, true),
                PinnedSteps{410, 56, 0x06db77a56c26b9b9});
}

TEST(ReBatchingSteps, AdaptiveRandom) {
  AdaptiveReBatching a64, a1024;
  expect_pinned(pinned_steps("adaptive random k=64", a64, 64, 21, false),
                PinnedSteps{10076, 221, 0x420210b22c566b78});
  expect_pinned(pinned_steps("adaptive random k=1024", a1024, 1024, 22, false),
                PinnedSteps{257722, 340, 0x635b769d42b3e938});
}

TEST(ReBatchingSteps, AdaptiveCollision) {
  AdaptiveReBatching a64, a1024;
  expect_pinned(pinned_steps("adaptive collision k=64", a64, 64, 23, true),
                PinnedSteps{10090, 222, 0x789fddb2cad3321e});
  expect_pinned(pinned_steps("adaptive collision k=1024", a1024, 1024, 24, true),
                PinnedSteps{258411, 340, 0xdbf343bf831faf98});
}

TEST(ReBatchingSteps, FastAdaptiveRandom) {
  FastAdaptiveReBatching a64, a1024;
  expect_pinned(pinned_steps("fast random k=64", a64, 64, 31, false),
                PinnedSteps{10049, 225, 0x3cb3a9ee7c97ae3e});
  expect_pinned(pinned_steps("fast random k=1024", a1024, 1024, 32, false),
                PinnedSteps{254524, 333, 0x242de961e9266a8e});
}

TEST(ReBatchingSteps, FastAdaptiveCollision) {
  FastAdaptiveReBatching a64, a1024;
  expect_pinned(pinned_steps("fast collision k=64", a64, 64, 33, true),
                PinnedSteps{10066, 225, 0x756e282543264de7});
  expect_pinned(pinned_steps("fast collision k=1024", a1024, 1024, 34, true),
                PinnedSteps{255090, 333, 0x1e74bbff9db09f2a});
}

}  // namespace
}  // namespace loren
