// E6 — Theorem 5.2: FastAdaptiveReBatching has *total* step complexity
// O(k lg lg k) w.h.p. (vs Theta(k (lg lg k)^2) for AdaptiveReBatching)
// with the same O(k) namespace.
//
// Series printed over a k sweep:
//   * total steps / k for both algorithms (paper t0 and practical t0);
//   * total steps / (k lg lg k) for the fast variant (should flatten);
//   * max name / k for both (same O(k) namespace).
#include "bench_util.h"
#include "renaming/adaptive.h"
#include "renaming/fast_adaptive.h"

using namespace loren;
using namespace loren::bench;

namespace {

struct Totals {
  double steps_per_k = 0;
  double name_ratio = 0;
};

Totals run_slow(std::uint64_t k, int t0, std::uint64_t seed) {
  AdaptiveReBatching algo(AdaptiveReBatching::Options{
      .layout = {.epsilon = 1.0, .beta = 2, .t0_override = t0}});
  auto strat = strategy_by_name("random");
  sim::RunConfig cfg{.num_processes = static_cast<sim::ProcessId>(k),
                     .seed = seed,
                     .strategy = strat.get()};
  const Measurement m = measure(
      [&algo](sim::Env& env, sim::ProcessId) -> sim::Task<sim::Name> {
        return algo.get_name(env);
      },
      cfg);
  return {double(m.result.total_steps) / double(k),
          double(m.result.max_name) / double(k)};
}

Totals run_fast(std::uint64_t k, int t0, std::uint64_t seed) {
  FastAdaptiveReBatching algo(
      FastAdaptiveReBatching::Options{.beta = 2, .t0_override = t0});
  auto strat = strategy_by_name("random");
  sim::RunConfig cfg{.num_processes = static_cast<sim::ProcessId>(k),
                     .seed = seed,
                     .strategy = strat.get()};
  const Measurement m = measure(
      [&algo](sim::Env& env, sim::ProcessId) -> sim::Task<sim::Name> {
        return algo.get_name(env);
      },
      cfg);
  return {double(m.result.total_steps) / double(k),
          double(m.result.max_name) / double(k)};
}

}  // namespace

int main() {
  std::printf("# E6 — fast adaptive renaming, total work (Theorem 5.2)\n");
  std::printf("\npaper: FastAdaptiveReBatching total steps O(k lg lg k); "
              "AdaptiveReBatching Theta(k (lg lg k)^2); names O(k) both.\n");
  std::printf("(practical probe budget t0=4 so the lg lg factors are not "
              "buried under the paper's t0=53 constant; beta=2)\n");

  std::vector<std::vector<std::string>> rows;
  for (std::uint64_t logk = 4; logk <= 13; ++logk) {
    const std::uint64_t k = std::uint64_t{1} << logk;
    double slow_spk = 0, fast_spk = 0, slow_nr = 0, fast_nr = 0;
    const std::uint64_t seeds = 3;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const Totals slow = run_slow(k, 4, 6000 + logk * 10 + s);
      const Totals fast = run_fast(k, 4, 6400 + logk * 10 + s);
      slow_spk += slow.steps_per_k;
      fast_spk += fast.steps_per_k;
      slow_nr += slow.name_ratio;
      fast_nr += fast.name_ratio;
    }
    slow_spk /= seeds;
    fast_spk /= seeds;
    const double lglgk = std::max(log_log2(double(k)), 1.0);
    rows.push_back({fmt_u(k), fmt(slow_spk, 1), fmt(fast_spk, 1),
                    fmt(slow_spk / fast_spk, 2), fmt(fast_spk / lglgk, 2),
                    fmt(slow_nr / seeds, 2), fmt(fast_nr / seeds, 2)});
  }
  print_table("k sweep (avg of 3 seeds)",
              {"k", "adaptive total/k", "fast total/k",
               "adaptive/fast ratio", "fast total/(k lg lg k)",
               "adaptive max-name/k", "fast max-name/k"},
              rows);

  std::printf(
      "\nReading: fast total/(k lg lg k) flattens to a constant while the\n"
      "adaptive-to-fast ratio grows slowly (the extra lg lg k factor of\n"
      "Theorem 5.1 vs 5.2). Namespace constants stay O(k) for both.\n");
  return 0;
}
