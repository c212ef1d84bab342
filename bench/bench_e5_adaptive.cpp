// E5 — Theorem 5.1: AdaptiveReBatching assigns names of value O(k) in
// O((lg lg k)^2) steps w.h.p., where k is the realized contention (n is
// unknown to the algorithm).
//
// Series printed over a k sweep:
//   * max name / k (should flatten to a constant ~ 4(1+eps));
//   * max and mean steps (paper t0 and practical t0);
//   * the doubling-uniform baseline's name constants for contrast.
#include "bench_util.h"
#include "renaming/adaptive.h"
#include "renaming/baselines.h"

using namespace loren;
using namespace loren::bench;

namespace {

struct Point {
  double max_name_over_k = 0;
  double max_steps = 0;
  double mean_steps = 0;
};

Point run_adaptive(std::uint64_t k, int t0_override, std::uint64_t seed) {
  AdaptiveReBatching algo(AdaptiveReBatching::Options{
      .layout = {.epsilon = 1.0, .beta = 3, .t0_override = t0_override}});
  auto strat = strategy_by_name("random");
  sim::RunConfig cfg{.num_processes = static_cast<sim::ProcessId>(k),
                     .seed = seed,
                     .strategy = strat.get()};
  const Measurement m = measure(
      [&algo](sim::Env& env, sim::ProcessId) -> sim::Task<sim::Name> {
        return algo.get_name(env);
      },
      cfg);
  return Point{static_cast<double>(m.result.max_name) / double(k),
               m.steps.max, m.steps.mean};
}

Point run_doubling_uniform(std::uint64_t k, std::uint64_t seed) {
  auto strat = strategy_by_name("random");
  sim::RunConfig cfg{.num_processes = static_cast<sim::ProcessId>(k),
                     .seed = seed,
                     .strategy = strat.get()};
  const Measurement m = measure(
      [](sim::Env& env, sim::ProcessId) -> sim::Task<sim::Name> {
        return doubling_uniform(env, 1.0, 4);
      },
      cfg);
  return Point{static_cast<double>(m.result.max_name) / double(k),
               m.steps.max, m.steps.mean};
}

}  // namespace

int main() {
  std::printf("# E5 — adaptive renaming (Theorem 5.1)\n");
  std::printf("\npaper: largest name <= 4(1+eps)k = 8k (eps=1) and "
              "O((lg lg k)^2) steps, w.h.p., n unknown.\n");

  std::vector<std::vector<std::string>> rows;
  for (std::uint64_t logk = 2; logk <= 13; logk += 1) {
    const std::uint64_t k = std::uint64_t{1} << logk;
    double name_ratio = 0, steps_paper = 0, mean_paper = 0, steps_practical = 0;
    double base_ratio = 0, base_steps = 0;
    const std::uint64_t seeds = 3;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const Point paper = run_adaptive(k, 0, 5000 + logk * 10 + s);
      const Point practical = run_adaptive(k, 6, 5400 + logk * 10 + s);
      const Point base = run_doubling_uniform(k, 5800 + logk * 10 + s);
      name_ratio += paper.max_name_over_k;
      steps_paper += paper.max_steps;
      mean_paper += paper.mean_steps;
      steps_practical += practical.max_steps;
      base_ratio += base.max_name_over_k;
      base_steps += base.max_steps;
    }
    rows.push_back({fmt_u(k), fmt(name_ratio / seeds, 2),
                    fmt(steps_paper / seeds, 1), fmt(mean_paper / seeds, 1),
                    fmt(steps_practical / seeds, 1),
                    fmt(base_ratio / seeds, 2), fmt(base_steps / seeds, 1)});
  }
  print_table(
      "k sweep (avg of 3 seeds)",
      {"k", "max-name/k", "max steps (paper t0)", "mean steps (paper t0)",
       "max steps (t0=6)", "doubling-uniform max-name/k",
       "doubling-uniform max steps"},
      rows);

  std::printf(
      "\nReading: max-name/k flattens to a small constant (the O(k) "
      "namespace)\nwhile steps grow only with (lg lg k)^2 — under the "
      "paper's t0 the constant\ndominates, with the practical t0 the slow "
      "growth is visible. The doubling-\nuniform baseline needs similar "
      "names but a heavier step tail.\n");
  return 0;
}
