// Cross-service conformance battery: one parameterized suite asserting
// the renaming-service contract — uniqueness, exhaustion semantics,
// batch fill, release round-trips, reset/resize invalidation, and exact
// live-counter accounting — over the full configuration matrix
// {RenamingService, ElasticRenamingService} x {name cache on, off}.
// Every cell must behave identically at this level; elasticity is
// implementation detail. Runs under
// TSan in CI (the concurrent-uniqueness cell is the data-race probe).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "renaming/service.h"

namespace loren {
namespace {

using sim::Name;

enum class Kind { kFixed, kElastic };

struct Config {
  Kind kind;
  bool cache;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::string s = info.param.kind == Kind::kFixed ? "Fixed" : "Elastic";
  s += info.param.cache ? "Cache" : "NoCache";
  return s;
}

/// The conformance surface: the operations whose observable behaviour
/// must not depend on which service backs them.
class ServiceUnderTest {
 public:
  virtual ~ServiceUnderTest() = default;
  virtual Name acquire() = 0;
  virtual bool release(Name name) = 0;
  virtual std::uint64_t acquire_many(std::uint64_t k, Name* out) = 0;
  virtual std::uint64_t release_many(const Name* names,
                                     std::uint64_t count) = 0;
  virtual std::uint64_t flush_thread_cache() = 0;
  /// Upper bound on issued name *values* (fixed: the namespace size;
  /// elastic: the encoded-name bound, which carries the tag bits).
  [[nodiscard]] virtual std::uint64_t capacity() const = 0;
  /// Number of acquirable cells — what exhaustion is measured against.
  [[nodiscard]] virtual std::uint64_t cells() const = 0;
  [[nodiscard]] virtual std::uint64_t names_live() const = 0;
  [[nodiscard]] virtual std::uint32_t thread_cache_size() const = 0;
  /// The service-appropriate "every outstanding name is now invalid"
  /// event: reset() for the fixed service, a resize generation bump (and
  /// back, so capacity() is unchanged) for the elastic one. Both must
  /// invalidate thread stashes.
  virtual void invalidate() = 0;
};

class FixedAdapter final : public ServiceUnderTest {
 public:
  FixedAdapter(std::uint64_t n, const Config& cfg) {
    RenamingServiceOptions opts;
    opts.shards = 2;
    opts.name_cache = cfg.cache;
    svc_ = std::make_unique<RenamingService>(n, opts);
  }
  Name acquire() override { return svc_->acquire(); }
  bool release(Name name) override { return svc_->release(name); }
  std::uint64_t acquire_many(std::uint64_t k, Name* out) override {
    return svc_->acquire_many(k, out);
  }
  std::uint64_t release_many(const Name* names, std::uint64_t count) override {
    return svc_->release_many(names, count);
  }
  std::uint64_t flush_thread_cache() override {
    return svc_->flush_thread_cache();
  }
  [[nodiscard]] std::uint64_t capacity() const override {
    return svc_->capacity();
  }
  [[nodiscard]] std::uint64_t cells() const override {
    return svc_->capacity();  // names are dense: one cell per value
  }
  [[nodiscard]] std::uint64_t names_live() const override {
    return svc_->names_live();
  }
  [[nodiscard]] std::uint32_t thread_cache_size() const override {
    return svc_->thread_cache_size();
  }
  void invalidate() override { svc_->reset(); }

 private:
  std::unique_ptr<RenamingService> svc_;
};

class ElasticAdapter final : public ServiceUnderTest {
 public:
  ElasticAdapter(std::uint64_t n, const Config& cfg) {
    ElasticOptions opts;
    opts.shards = 2;
    opts.name_cache = cfg.cache;
    // Pin the namespace: conformance asserts fixed-capacity semantics
    // (exhaustion must mean exhaustion, not a growth trigger).
    opts.auto_grow = false;
    opts.min_holders = n / 2;
    opts.max_holders = n;
    svc_ = std::make_unique<ElasticRenamingService>(n, opts);
  }
  Name acquire() override { return svc_->acquire(); }
  bool release(Name name) override { return svc_->release(name); }
  std::uint64_t acquire_many(std::uint64_t k, Name* out) override {
    return svc_->acquire_many(k, out);
  }
  std::uint64_t release_many(const Name* names, std::uint64_t count) override {
    return svc_->release_many(names, count);
  }
  std::uint64_t flush_thread_cache() override {
    return svc_->flush_thread_cache();
  }
  [[nodiscard]] std::uint64_t capacity() const override {
    return svc_->capacity();
  }
  [[nodiscard]] std::uint64_t cells() const override {
    // capacity() bounds encoded name values (local << kTagBits | tag);
    // the acquirable cell count is the live group's local capacity.
    return svc_->capacity() >> ElasticRenamingService::kTagBits;
  }
  [[nodiscard]] std::uint64_t names_live() const override {
    return svc_->names_live();
  }
  [[nodiscard]] std::uint32_t thread_cache_size() const override {
    return svc_->thread_cache_size();
  }
  void invalidate() override {
    // Two resize hops: the generation (and group tag) changes, every
    // stash goes stale, and the namespace geometry ends up where it
    // started so capacity()-based assertions keep holding.
    const std::uint64_t h = svc_->holders();
    ASSERT_TRUE(svc_->resize(h / 2));
    ASSERT_TRUE(svc_->resize(h));
  }

 private:
  std::unique_ptr<ElasticRenamingService> svc_;
};

constexpr std::uint64_t kHolders = 192;

class ServiceConformance : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const Config& cfg = GetParam();
    if (cfg.kind == Kind::kFixed) {
      svc_ = std::make_unique<FixedAdapter>(kHolders, cfg);
    } else {
      svc_ = std::make_unique<ElasticAdapter>(kHolders, cfg);
    }
  }

  std::unique_ptr<ServiceUnderTest> svc_;
};

TEST_P(ServiceConformance, NamesAreUniqueAndInRange) {
  const std::uint64_t n = svc_->cells() / 2;
  std::set<Name> seen;
  std::vector<Name> held;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Name name = svc_->acquire();
    ASSERT_GE(name, 0) << "failed at " << i << " with half the namespace free";
    EXPECT_LT(static_cast<std::uint64_t>(name), svc_->capacity());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    held.push_back(name);
  }
  for (const Name name : held) EXPECT_TRUE(svc_->release(name));
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

TEST_P(ServiceConformance, ConcurrentAcquiresNeverCollide) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 24;  // 4*24 = 96 of 192+ cells
  std::vector<std::vector<Name>> held(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, &held] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const Name name = svc_->acquire();
        if (name >= 0) held[static_cast<std::size_t>(t)].push_back(name);
      }
      // Churn a little so release paths race acquire paths under TSan.
      for (int r = 0; r < 8; ++r) {
        auto& mine = held[static_cast<std::size_t>(t)];
        if (mine.empty()) break;
        EXPECT_TRUE(svc_->release(mine.back()));
        mine.pop_back();
        const Name again = svc_->acquire();
        if (again >= 0) mine.push_back(again);
      }
      svc_->flush_thread_cache();
    });
  }
  for (std::thread& w : workers) w.join();

  std::set<Name> all;
  std::uint64_t total = 0;
  for (const auto& mine : held) {
    for (const Name name : mine) {
      EXPECT_LT(static_cast<std::uint64_t>(name), svc_->capacity());
      EXPECT_TRUE(all.insert(name).second)
          << "name " << name << " issued to two threads";
      ++total;
    }
  }
  EXPECT_EQ(svc_->names_live(), total);  // exact at quiescence post-flush
  for (const auto& mine : held) {
    for (const Name name : mine) EXPECT_TRUE(svc_->release(name));
  }
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

TEST_P(ServiceConformance, ExhaustionIsExactAndRecoverable) {
  std::vector<Name> held;
  for (;;) {
    const Name name = svc_->acquire();
    if (name < 0) {
      // No sweep budget and no controller configured: the only legal
      // failure is true exhaustion.
      EXPECT_EQ(name, RenamingService::kExhausted);
      break;
    }
    held.push_back(name);
    ASSERT_LE(held.size(), svc_->cells()) << "issued past the namespace";
  }
  // Single-threaded, the deterministic sweep reaches every free cell:
  // failure means every cell really was taken.
  EXPECT_EQ(held.size(), svc_->cells());
  EXPECT_EQ(svc_->names_live(), svc_->cells());

  // Freeing one name makes exactly one acquisition succeed again.
  EXPECT_TRUE(svc_->release(held.back()));
  held.pop_back();
  svc_->flush_thread_cache();  // the freed cell must be globally visible
  const Name again = svc_->acquire();
  EXPECT_GE(again, 0);
  held.push_back(again);

  for (const Name name : held) EXPECT_TRUE(svc_->release(name));
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

TEST_P(ServiceConformance, BatchFillIsCompleteAtQuiescence) {
  const std::uint64_t k = svc_->cells() / 2;
  std::vector<Name> batch(k);
  ASSERT_EQ(svc_->acquire_many(k, batch.data()), k)
      << "quiescent batch under half the namespace must fill completely";
  std::set<Name> seen;
  for (const Name name : batch) {
    EXPECT_GE(name, 0);
    EXPECT_LT(static_cast<std::uint64_t>(name), svc_->capacity());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate in batch: " << name;
  }
  EXPECT_EQ(svc_->names_live(), k);

  // Batched release frees every valid entry exactly once; a replay of
  // the same array frees nothing (double releases are rejected whether
  // the first release parked the name in a stash or freed the cell).
  EXPECT_EQ(svc_->release_many(batch.data(), k), k);
  EXPECT_EQ(svc_->release_many(batch.data(), k), 0u);
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

TEST_P(ServiceConformance, ReleaseManyFreesADuplicatedNameOnce) {
  // A name given twice in one release_many frees once: the copy loses
  // the cell's single-RMW release (shared path) or the stash duplicate
  // scan (cached path), and nothing else in the batch is disturbed.
  constexpr std::uint64_t k = 8;
  std::vector<Name> batch(k);
  ASSERT_EQ(svc_->acquire_many(k, batch.data()), k);
  batch.insert(batch.begin() + k / 2, batch.front());
  EXPECT_EQ(svc_->release_many(batch.data(), batch.size()), k);
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
  // No cell was freed twice: the whole namespace serves unique names.
  std::set<Name> seen;
  std::vector<Name> all;
  for (Name name = svc_->acquire(); name >= 0; name = svc_->acquire()) {
    EXPECT_TRUE(seen.insert(name).second) << "double-granted " << name;
    all.push_back(name);
  }
  EXPECT_EQ(all.size(), svc_->cells());
  EXPECT_EQ(svc_->release_many(all.data(), all.size()), all.size());
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

TEST_P(ServiceConformance, ReleaseRoundTripAndForeignValues) {
  const Name name = svc_->acquire();
  ASSERT_GE(name, 0);
  EXPECT_EQ(svc_->names_live(), 1u);

  EXPECT_TRUE(svc_->release(name));
  EXPECT_FALSE(svc_->release(name)) << "double release must be rejected";

  // Foreign values: negative codes and never-issued names change nothing.
  EXPECT_FALSE(svc_->release(RenamingService::kExhausted));
  EXPECT_FALSE(svc_->release(RenamingService::kShed));
  EXPECT_FALSE(
      svc_->release(static_cast<Name>(svc_->capacity() + 1024)));

  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);

  // The round trip: the namespace serves again after the release.
  const Name again = svc_->acquire();
  EXPECT_GE(again, 0);
  EXPECT_TRUE(svc_->release(again));
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

TEST_P(ServiceConformance, InvalidationDiscardsStashesAndAccountsExactly) {
  // Park names in the thread stash (cache on) or free them outright
  // (cache off), then invalidate: either way the service must come back
  // with an empty, exactly-accounted namespace and a cold stash.
  std::vector<Name> held;
  for (int i = 0; i < 32; ++i) {
    const Name name = svc_->acquire();
    ASSERT_GE(name, 0);
    held.push_back(name);
  }
  for (const Name name : held) EXPECT_TRUE(svc_->release(name));
  if (GetParam().cache) {
    EXPECT_GT(svc_->thread_cache_size(), 0u);  // releases were absorbed
  }

  svc_->invalidate();
  svc_->flush_thread_cache();  // stale stash contents must drain/discard
  EXPECT_EQ(svc_->names_live(), 0u);
  EXPECT_EQ(svc_->thread_cache_size(), 0u);

  // The full namespace is intact and serves fresh unique names.
  std::set<Name> seen;
  std::vector<Name> fresh;
  for (int i = 0; i < 64; ++i) {
    const Name name = svc_->acquire();
    ASSERT_GE(name, 0);
    EXPECT_LT(static_cast<std::uint64_t>(name), svc_->capacity());
    EXPECT_TRUE(seen.insert(name).second);
    fresh.push_back(name);
  }
  EXPECT_EQ(svc_->names_live(), 64u);
  for (const Name name : fresh) EXPECT_TRUE(svc_->release(name));
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

TEST_P(ServiceConformance, CounterAccountingStaysExactUnderMixedTraffic) {
  // Interleave singles and batches, tracking the expected live count;
  // at every quiescent flush point the service's counter must agree.
  std::vector<Name> held;
  Name batch[48];
  const std::uint64_t got = svc_->acquire_many(48, batch);
  ASSERT_EQ(got, 48u);
  held.insert(held.end(), batch, batch + got);
  for (int i = 0; i < 16; ++i) {
    const Name name = svc_->acquire();
    ASSERT_GE(name, 0);
    held.push_back(name);
  }
  EXPECT_EQ(svc_->names_live(), 64u);

  // Release a prefix through singles and a suffix through one batch.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(svc_->release(held.back()));
    held.pop_back();
  }
  EXPECT_EQ(svc_->release_many(held.data() + 40, held.size() - 40),
            held.size() - 40);
  held.resize(40);
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 40u);

  // Drain, including a second pass that must free nothing.
  EXPECT_EQ(svc_->release_many(held.data(), held.size()), held.size());
  EXPECT_EQ(svc_->release_many(held.data(), held.size()), 0u);
  svc_->flush_thread_cache();
  EXPECT_EQ(svc_->names_live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ServiceConformance,
    ::testing::Values(
        Config{Kind::kFixed, true}, Config{Kind::kFixed, false},
        Config{Kind::kElastic, true}, Config{Kind::kElastic, false}),
    config_name);

}  // namespace
}  // namespace loren
