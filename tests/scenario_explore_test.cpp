// Schedule exploration over the elastic stack: many seeds × several
// preemption bounds, each cell one deterministic engine run asserting
// the standing invariants. This is the CTest target CI's sim-explore
// job runs with a larger seed budget (LOREN_EXPLORE_SEEDS); any
// violation prints its (seed, preemption bound) and full schedule trace
// via scenario::describe, so the failing interleaving replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "elastic/elastic_service.h"
#include "sim/scenario/engine.h"
#include "sim/scenario/explore.h"
#include "sim/scenario/scenario.h"

namespace loren {
namespace {

using scenario::ExploreConfig;
using scenario::ExploreFailure;
using scenario::kAnyWorker;
using scenario::Scenario;
using scenario::ScenarioEngine;
using scenario::StallRule;
using Worker = ScenarioEngine::Worker;
using sim::Name;

std::uint64_t explore_seeds() {
  // Default sized for the developer loop; CI's sim-explore job raises it
  // (bounded wall-clock: each seed is 3 bounds × one short run).
  if (const char* env = std::getenv("LOREN_EXPLORE_SEEDS")) {
    const std::uint64_t v = std::strtoull(env, nullptr, 0);
    if (v > 0) return v;
  }
  return 12;
}

// One scenario instance: fresh service, three churners and a resize
// stormer under the swept (seed, preempt_every), stall faults at the
// swap-publication and word-claim points. Returns "" when every standing
// invariant held, else the violation report.
std::string run_churn_scenario(const Scenario& scenario, std::string* trace) {
  ElasticOptions opts;
  opts.epsilon = 0.5;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.auto_grow = false;  // the stormer drives every resize explicitly
  opts.name_cache = false;
  ElasticRenamingService svc(64, opts);

  std::ostringstream violations;
  std::mutex held_mu;
  std::set<Name> held;

  auto churner = [&](Worker& w) {
    std::vector<Name> mine;
    for (int i = 0; i < 25; ++i) {
      w.yield("churn.op");
      if (mine.size() < 6 && (mine.empty() || w.rng().below(2) == 0)) {
        const Name n = svc.acquire();
        if (n < 0) continue;  // transient exhaustion mid-resize
        {
          std::lock_guard<std::mutex> lock(held_mu);
          if (!held.insert(n).second) {
            violations << "duplicate live name " << n << " on w" << w.id()
                       << "\n";
          }
        }
        mine.push_back(n);
      } else {
        const Name n = mine.back();
        mine.pop_back();
        {
          std::lock_guard<std::mutex> lock(held_mu);
          held.erase(n);
        }
        if (!svc.release(n)) {
          violations << "release of held name " << n << " failed\n";
        }
      }
    }
    for (const Name n : mine) {
      {
        std::lock_guard<std::mutex> lock(held_mu);
        held.erase(n);
      }
      if (!svc.release(n)) violations << "final release of " << n << " failed\n";
    }
  };

  ScenarioEngine eng(scenario);
  const bool done = eng.run({churner, churner, churner, [&svc](Worker& w) {
                               for (int i = 0; i < 4; ++i) {
                                 w.yield("storm.resize");
                                 svc.resize(i % 2 == 0 ? 128 : 64);
                                 w.yield("storm.reclaim");
                                 svc.reclaim();
                               }
                             }});
  eng.finish();
  *trace = eng.trace();

  if (!done) violations << "livelock guard tripped\n";
  // Standing invariants after quiesce: nothing leaked, capacity back at
  // the shrink floor, every retired generation reclaimable.
  if (const std::uint64_t live = svc.names_live(); live != 0) {
    violations << live << " names leaked past quiesce\n";
  }
  if (svc.holders() != 64) {
    violations << "capacity bound violated after shrink: holders = "
               << svc.holders() << "\n";
  }
  svc.reclaim();
  svc.reclaim();
  if (const std::size_t g = svc.groups_in_flight(); g != 1) {
    violations << g << " groups in flight after quiesce (want 1)\n";
  }
  return violations.str();
}

TEST(ScenarioExplore, ChurnAndResizeStormAcrossSeedsAndBounds) {
  ExploreConfig config;
  config.base.max_steps = std::uint64_t{1} << 20;
  config.base.stalls.push_back(
      StallRule{"elastic.swap.publish", kAnyWorker, 0, 60, 1});
  config.base.stalls.push_back(
      StallRule{"bitmap.word.claim", kAnyWorker, 3, 5, 2});
  config.first_seed = 1;
  config.seeds = explore_seeds();
  config.preempt_intervals = {1, 2, 7};

  const std::vector<ExploreFailure> failures =
      scenario::explore(config, run_churn_scenario);
  EXPECT_TRUE(failures.empty()) << scenario::describe(failures);
}

}  // namespace
}  // namespace loren
