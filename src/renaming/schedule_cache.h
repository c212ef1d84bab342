// ScheduleCache: memoized probe plans for heterogeneous group sizes.
//
// A fixed-capacity service computes its BatchLayout + per-batch probe plan
// once in the constructor. The elastic service creates shard groups at
// runtime with *different* holder counts — and a workload that oscillates
// between two load levels re-creates groups of the same two sizes over and
// over. The layout/schedule for a given (holders, params) pair is pure, so
// the cache hands out one immutable shared instance per holder count:
// resizing back to a size seen before costs a mutex-protected map lookup,
// not a layout recomputation, and retired groups can outlive the resize
// that replaced them while sharing their schedule with their successor.
//
// Entries are shared_ptr<const ...>: a ShardGroup keeps its schedule alive
// for its own lifetime (including limbo, after the service has moved on),
// and the cache never invalidates.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "renaming/batch_layout.h"

namespace loren {

/// One immutable probe plan: the batch geometry for `n` holders and its
/// per-batch walk, the form ShardGroup's word-aware probe consumes.
struct CachedSchedule {
  /// One batch of the walk: `budget` probes, each drawn uniformly from the
  /// window-relative cells [offset, offset + size). `words` is the mask of
  /// 64-cell words the batch spans (bit w = cells [64w, 64w + 64)), or 0
  /// when the batch reaches past word 63 and so cannot be memoized in one
  /// 64-bit full-word mask.
  struct Batch {
    std::uint64_t offset;
    std::uint64_t size;
    std::uint64_t budget;
    std::uint64_t words;
  };

  CachedSchedule(std::uint64_t n, const BatchLayoutParams& params)
      : layout(n, params), batches(plan(layout)) {}

  BatchLayout layout;
  std::vector<Batch> batches;

 private:
  static std::vector<Batch> plan(const BatchLayout& layout) {
    constexpr std::uint64_t kWord = 64;
    std::vector<Batch> out;
    out.reserve(static_cast<std::size_t>(layout.num_batches()));
    for (std::uint64_t i = 0; i < layout.num_batches(); ++i) {
      const std::uint64_t last =
          (layout.offset(i) + layout.size(i) - 1) / kWord;
      std::uint64_t words = 0;
      if (last < kWord) {
        for (std::uint64_t w = layout.offset(i) / kWord; w <= last; ++w) {
          words |= std::uint64_t{1} << w;
        }
      }
      out.push_back({layout.offset(i), layout.size(i),
                     static_cast<std::uint64_t>(layout.probes(i)), words});
    }
    return out;
  }
};

/// Keyed by holder count; the layout params are fixed per cache (one cache
/// per service — every group of a service shares epsilon/beta/t0).
class ScheduleCache {
 public:
  explicit ScheduleCache(const BatchLayoutParams& params) : params_(params) {}

  std::shared_ptr<const CachedSchedule> get(std::uint64_t holders) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = entries_[holders];
    if (entry == nullptr) {
      entry = std::make_shared<const CachedSchedule>(holders, params_);
    }
    return entry;
  }

  [[nodiscard]] const BatchLayoutParams& params() const { return params_; }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  BatchLayoutParams params_;
  // sim:lock-ok(cold schedule-construction cache; map lookups and the
  // one-time layout build never hit a sim point)
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const CachedSchedule>> entries_;
};

}  // namespace loren
