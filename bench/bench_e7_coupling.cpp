// E7 — the coupling gadget (Lemmas 6.4 / 6.5).
//
// Tables printed:
//   * CDF dominance P_lambda(n+1) <= P_gamma(n) verified over a lambda
//     grid (the analytic heart of Lemma 6.5);
//   * sampled couplings: violation count of Y <= max(0, Z-1) (must be 0)
//     and the marginal means E[Z] ~ lambda, E[Y] ~ gamma(lambda);
//   * an independence check in the spirit of Lemma 6.4: two type counts
//     thinned through a common location stay (near-)uncorrelated.
//
// It is also a gate (ctest label `paper`): it exits 1 when any dominance
// row reads VIOLATED or any sampled rate counts a Y > max(0, Z-1)
// violation, naming each such row on stderr so stdout stays the tables.
// The grid and the rng seed are fixed, so a pass is a pinned fact about
// them, not a proof of the lemmas (docs/testing.md).
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "lowerbound/poisson_coupling.h"
#include "platform/poisson.h"
#include "platform/rng.h"

using namespace loren;
using namespace loren::bench;
using namespace loren::lb;

int main() {
  int gate_failures = 0;
  std::printf("# E7 — Poisson coupling gadget (Lemmas 6.4/6.5)\n");

  // --- Lemma 6.5 dominance grid ------------------------------------------
  std::vector<std::vector<std::string>> rows;
  for (double lambda : {0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 128.0}) {
    const auto violation = first_dominance_violation(lambda, 400);
    if (violation >= 0) {
      std::fprintf(stderr, "E7 gate: lambda = %g: dominance VIOLATED at n=%lld\n",
                   lambda, static_cast<long long>(violation));
      ++gate_failures;
    }
    rows.push_back({fmt(lambda, 2), fmt(coupled_rate(lambda), 4),
                    violation < 0 ? "holds (n <= 400)"
                                  : ("VIOLATED at n=" + std::to_string(violation))});
  }
  print_table("Lemma 6.5: P_lambda(n+1) <= P_gamma(n), gamma = min(l^2/4, l/4)",
              {"lambda", "gamma", "dominance"}, rows);

  // --- coupled sampling ----------------------------------------------------
  rows.clear();
  Xoshiro256 rng(777);
  for (double lambda : {0.25, 1.0, 4.0, 16.0}) {
    const int kSamples = 200000;
    std::uint64_t violations = 0;
    double sum_z = 0, sum_y = 0;
    for (int i = 0; i < kSamples; ++i) {
      const CoupledSample s = sample_coupled(lambda, rng);
      if (s.y > (s.z == 0 ? 0 : s.z - 1)) ++violations;
      sum_z += double(s.z);
      sum_y += double(s.y);
    }
    if (violations > 0) {
      std::fprintf(stderr, "E7 gate: lambda = %g: %llu of %d samples have "
                   "Y > max(0, Z-1)\n",
                   lambda, static_cast<unsigned long long>(violations), kSamples);
      ++gate_failures;
    }
    rows.push_back({fmt(lambda, 2), fmt_u(violations),
                    fmt(sum_z / kSamples, 4), fmt(lambda, 4),
                    fmt(sum_y / kSamples, 4), fmt(coupled_rate(lambda), 4)});
  }
  print_table("sampled coupling, 200k draws per rate",
              {"lambda", "Y > max(0,Z-1) violations", "E[Z] measured",
               "E[Z] expected", "E[Y] measured", "E[Y] expected"},
              rows);

  // --- Lemma 6.4 independence sanity --------------------------------------
  // Two Poisson type-counts X1, X2 access one location; mark the last Y of
  // Z = X1 + X2 under a random permutation; the marked sub-counts X'1, X'2
  // must remain independent Poisson. We estimate their correlation.
  rows.clear();
  for (double lambda_i : {0.5, 2.0}) {
    const int kRounds = 60000;
    std::vector<double> x1p, x2p;
    x1p.reserve(kRounds);
    x2p.reserve(kRounds);
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t x1 = poisson_sample(lambda_i, rng);
      const std::uint64_t x2 = poisson_sample(lambda_i, rng);
      const std::uint64_t z = x1 + x2;
      const std::uint64_t y = sample_y_given_z(2.0 * lambda_i, z, rng);
      // Random permutation of z items (x1 of type 1), keep the last y.
      std::vector<int> items;
      items.reserve(z);
      for (std::uint64_t i = 0; i < z; ++i) items.push_back(i < x1 ? 1 : 2);
      for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.below(i)]);
      }
      std::uint64_t k1 = 0, k2 = 0;
      for (std::uint64_t t = 0; t < y; ++t) {
        (items[items.size() - 1 - t] == 1 ? k1 : k2) += 1;
      }
      x1p.push_back(double(k1));
      x2p.push_back(double(k2));
    }
    const double corr = correlation(x1p, x2p);
    const Summary s1 = summarize(x1p);
    const double expected_rate =
        lambda_i * coupled_rate(2.0 * lambda_i) / (2.0 * lambda_i);
    rows.push_back({fmt(lambda_i, 2), fmt(corr, 4), fmt(s1.mean, 4),
                    fmt(expected_rate, 4),
                    fmt(s1.stddev * s1.stddev, 4)});
  }
  print_table("Lemma 6.4: marked sub-counts stay independent Poisson "
              "(60k rounds)",
              {"lambda_i (per type)", "corr(X'1, X'2)", "E[X'1] measured",
               "lambda_i * gamma/lambda expected", "Var[X'1] (Poisson: = mean)"},
              rows);

  std::printf("\nReading: dominance holds everywhere, the sampled coupling "
              "never violates\nY <= max(0, Z-1), marginals match, and the "
              "thinned counts are uncorrelated\nwith variance ~ mean — "
              "i.e. the gadget behaves exactly as Lemma 6.4 needs.\n");
  if (gate_failures > 0) {
    std::fprintf(stderr, "E7 gate: %d failed checks\n", gate_failures);
    return 1;
  }
  return 0;
}
