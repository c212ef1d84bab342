// StripedCounter: a sharded statistic counter for contended hot paths.
//
// A single std::atomic counter serializes every increment on one cache
// line; under multithreaded churn the line bounces between cores and the
// counter becomes the bottleneck even when the guarded work is contention-
// free. A StripedCounter spreads increments over kStripes cache-line-
// padded cells indexed by a per-thread slot, so writers on different
// threads (almost) never touch the same line. Reads sum the stripes —
// O(kStripes), approximate while writers are in flight (each stripe is
// read atomically but not the set as a whole), exact at quiescence. That
// is the right trade for statistics like "names currently assigned".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "platform/cacheline.h"

namespace loren {

class StripedCounter {
 public:
  static constexpr unsigned kStripes = 16;  // power of two

  void add(std::int64_t delta) {
    stripes_[thread_stripe()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Hot-path variant for callers that already hold their stripe index
  /// (see stripe_of): skips the thread-local lookup.
  void add_at(unsigned stripe, std::int64_t delta) {
    stripes_[stripe & (kStripes - 1)].v.fetch_add(delta,
                                                  std::memory_order_relaxed);
  }

  /// Maps any dense per-thread slot to its stripe.
  static constexpr unsigned stripe_of(std::uint64_t slot) {
    return static_cast<unsigned>(slot) & (kStripes - 1);
  }

  [[nodiscard]] std::int64_t sum() const {
    std::int64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Not thread-safe (same contract as the arenas' reset()).
  void reset() {
    for (auto& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

  /// The stripe this thread writes to. (The services keep their own
  /// dense thread slot in their thread-local context — see
  /// renaming/service_core.h — because they need the raw slot, not one
  /// folded to kStripes.)
  static unsigned thread_stripe() {
    // mo: relaxed -- one-time stripe ticket; uniqueness is all that
    // matters, no ordering with any other location.
    static std::atomic<unsigned> next{0};
    thread_local const unsigned slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot & (kStripes - 1);
  }

 private:
  struct alignas(kCacheLine) Stripe {
    // mo: relaxed -- striped statistic: per-stripe adds race benignly;
    // sum() is an advisory snapshot, never a synchronization point.
    std::atomic<std::int64_t> v{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace loren
