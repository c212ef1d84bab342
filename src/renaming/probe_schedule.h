// FlatProbeSchedule: the ReBatching probe plan, precomputed for the
// hand-inlined hot paths.
//
// BatchLayout answers offset/size/probes queries through three vectors,
// so the direct acquisition loop of the seed did two nested loops with
// four indexed loads per probe. The whole plan is static per layout —
// batch i contributes probes(i) identical (offset, size) probes — so it
// flattens into one contiguous array of log2 log2 n + O(1) slots that the
// hot path walks linearly: one pointer increment and two loads per probe
// and a single predictable branch. The array is not small: for n = 2^20
// at eps = 0.5 it is 136 slots x 16 B, about 2 KiB, nearly all of it
// B_0's t_0 = 129 copies of one slot. ConcurrentRenamer (the paper-model
// path) walks it; the services' ShardGroup walks the per-batch plan in
// schedule_cache.h instead.
#pragma once

#include <cstdint>
#include <vector>

#include "renaming/batch_layout.h"

namespace loren {

class FlatProbeSchedule {
 public:
  struct Slot {
    std::uint64_t offset;  // first cell of the batch this probe targets
    std::uint64_t size;    // batch size (the rng bound)
  };

  explicit FlatProbeSchedule(const BatchLayout& layout)
      : total_(layout.total()) {
    slots_.reserve(static_cast<std::size_t>(layout.max_probes_main_phase()));
    for (std::uint64_t i = 0; i < layout.num_batches(); ++i) {
      const Slot slot{layout.offset(i), layout.size(i)};
      for (int j = 0; j < layout.probes(i); ++j) slots_.push_back(slot);
    }
  }

  [[nodiscard]] const Slot* begin() const { return slots_.data(); }
  [[nodiscard]] const Slot* end() const { return slots_.data() + slots_.size(); }
  [[nodiscard]] std::size_t probes() const { return slots_.size(); }
  /// Namespace size; the backup sweep bound after a full miss.
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  std::vector<Slot> slots_;
  std::uint64_t total_;
};

}  // namespace loren
