// Unit tests for the platform substrate: RNG, Poisson machinery, stats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "platform/poisson.h"
#include "platform/registered_counter.h"
#include "platform/rng.h"
#include "platform/stats.h"

namespace loren {
namespace {

// ---------------------------------------------------------------- RNG ----

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LE(equal, 1);
}

TEST(MixSeed, StreamsAreDistinct) {
  EXPECT_NE(mix_seed(7, 0), mix_seed(7, 1));
  EXPECT_NE(mix_seed(7, 0), mix_seed(8, 0));
}

TEST(Xoshiro256, DeterministicAndReseedable) {
  Xoshiro256 a(99);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next());
  a.reseed(99);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), first[i]);
}

TEST(Xoshiro256, BelowIsInRange) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Xoshiro256, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, BelowIsRoughlyUniform) {
  Xoshiro256 rng(77);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 64000;
  std::vector<double> observed(kBuckets, 0.0);
  for (int i = 0; i < kDraws; ++i) ++observed[rng.below(kBuckets)];
  std::vector<double> expected(kBuckets, kDraws / double(kBuckets));
  // chi-square with 15 dof: 99.9th percentile ~ 37.7
  EXPECT_LT(chi_square(observed, expected), 37.7);
}

TEST(Xoshiro256, Uniform01InRange) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// ------------------------------------------------------------- Poisson ----

TEST(Poisson, LogFactorialMatchesExactValues) {
  EXPECT_DOUBLE_EQ(log_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log_factorial(1), 0.0);
  EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(log_factorial(20), 42.3356164607535, 1e-9);
  EXPECT_NEAR(log_factorial(100), std::lgamma(101.0), 1e-9);
}

TEST(Poisson, PmfSumsToOne) {
  for (double lambda : {0.1, 1.0, 4.0, 10.0, 25.0}) {
    double sum = 0.0;
    for (std::uint64_t k = 0; k < 400; ++k) sum += poisson_pmf(lambda, k);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "lambda=" << lambda;
  }
}

TEST(Poisson, PmfZeroLambda) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(0.0, 3), 0.0);
}

TEST(Poisson, CdfMatchesPmfPrefixSums) {
  for (double lambda : {0.5, 2.0, 8.0}) {
    double prefix = 0.0;
    for (std::uint64_t n = 0; n < 40; ++n) {
      prefix += poisson_pmf(lambda, n);
      EXPECT_NEAR(poisson_cdf(lambda, n), prefix, 1e-9);
    }
  }
}

TEST(Poisson, CdfIsMonotoneInN) {
  for (std::uint64_t n = 0; n < 30; ++n) {
    EXPECT_LE(poisson_cdf(3.5, n), poisson_cdf(3.5, n + 1) + 1e-15);
  }
}

TEST(Poisson, IcdfInvertsCdf) {
  const double lambda = 4.2;
  for (std::uint64_t k : {0ULL, 1ULL, 3ULL, 7ULL, 12ULL}) {
    // u strictly inside the step of k.
    const double lo = k == 0 ? 0.0 : poisson_cdf(lambda, k - 1);
    const double hi = poisson_cdf(lambda, k);
    const double u = (lo + hi) / 2.0;
    EXPECT_EQ(poisson_icdf(lambda, u), k);
  }
}

TEST(Poisson, SampleMomentsMatch) {
  Xoshiro256 rng(2024);
  for (double lambda : {0.5, 3.0, 17.0, 120.0}) {
    const int kSamples = 20000;
    double sum = 0.0, sumsq = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      const double x = static_cast<double>(poisson_sample(lambda, rng));
      sum += x;
      sumsq += x * x;
    }
    const double mean = sum / kSamples;
    const double var = sumsq / kSamples - mean * mean;
    EXPECT_NEAR(mean, lambda, 5.0 * std::sqrt(lambda / kSamples) + 0.01)
        << "lambda=" << lambda;
    EXPECT_NEAR(var, lambda, 0.15 * lambda + 0.05) << "lambda=" << lambda;
  }
}

TEST(Poisson, SampleZeroLambda) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(poisson_sample(0.0, rng), 0u);
}

// --------------------------------------------------------------- Stats ----

TEST(Stats, SummarizeBasics) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummarizeEmptyAndSingleton) {
  EXPECT_EQ(summarize(std::vector<double>{}).count, 0u);
  const Summary s = summarize(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
}

TEST(Stats, QuantileThrowsOnEmpty) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.5 * i);
  }
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.5, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitRejectsBadInput) {
  EXPECT_THROW(fit_linear(std::vector<double>{1.0}, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Stats, LogHelpers) {
  EXPECT_DOUBLE_EQ(safe_log2(8.0), 3.0);
  EXPECT_DOUBLE_EQ(safe_log2(1.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_log2(0.5), 0.0);
  EXPECT_DOUBLE_EQ(log_log2(65536.0), 4.0);
  EXPECT_DOUBLE_EQ(log_log2(2.0), 0.0);
}

TEST(Stats, CorrelationSigns) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y_pos{2, 4, 6, 8, 10};
  std::vector<double> y_neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(correlation(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, y_neg), -1.0, 1e-12);
}

TEST(Stats, ChiSquareZeroWhenEqual) {
  std::vector<double> o{10, 20, 30};
  EXPECT_DOUBLE_EQ(chi_square(o, o), 0.0);
}

TEST(Stats, MarkdownRowFormat) {
  EXPECT_EQ(markdown_row({"a", "b"}), "| a | b |");
}

TEST(RegisteredCounter, RetiredNodesKeepTheirCountForTheNextOwner) {
  // 100 sequential threads, each registering, adding and retiring: one
  // node serves them all and the sum stays exact across the hand-overs.
  RegisteredCounter counter;
  std::int64_t expected = 0;
  for (int t = 0; t < 100; ++t) {
    const std::int64_t delta = (t % 3 == 0) ? -t : 2 * t;
    expected += delta;
    std::thread([&counter, delta] {
      RegisteredCounter::Node& node = counter.register_thread();
      RegisteredCounter::add(node, delta);
      counter.retire(node);
    }).join();
  }
  EXPECT_EQ(counter.nodes(), 1u);
  EXPECT_EQ(counter.sum(), expected);
  // Owners alive at once each get their own node; the retired ones are
  // handed out again before anything new is allocated.
  RegisteredCounter::Node& a = counter.register_thread();
  RegisteredCounter::Node& b = counter.register_thread();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(counter.nodes(), 2u);
  RegisteredCounter::add(a, 5);
  RegisteredCounter::add(b, -2);
  counter.retire(a);
  counter.retire(b);
  EXPECT_EQ(&counter.register_thread(), &b);
  EXPECT_EQ(counter.nodes(), 2u);
  EXPECT_EQ(counter.sum(), expected + 3);
  counter.reset();
  EXPECT_EQ(counter.sum(), 0);
}

}  // namespace
}  // namespace loren
