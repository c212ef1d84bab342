// ArenaSegment: a relocatable window into a word-packed BitmapArena.
//
// A segment is a non-owning [base, base+size) view of one arena: the
// elastic service's shard groups allocate a single arena per group and
// carve it into shard segments, so a whole group is one allocation that
// can be published, retired, and reclaimed as a unit (the property the
// epoch-based resize protocol needs), and creating or destroying a group
// is one malloc/free regardless of shard count. "Relocating" a shard is
// rebinding a view, never copying cells.
//
// Every operation takes segment-relative cell indices and clamps word
// claims to the window, so a word straddling two shards' segments never
// hands one shard a cell of its neighbour (which would corrupt the name
// encoding).
#pragma once

#include <cstdint>

#include "tas/bitmap_arena.h"

namespace loren {

class ArenaSegment {
 public:
  ArenaSegment() = default;
  ArenaSegment(BitmapArena& arena, std::uint64_t base, std::uint64_t size)
      : arena_(&arena), base_(base), size_(size) {}

  /// 1 iff segment-relative cell `i` is taken in the current epoch.
  [[nodiscard]] std::uint64_t read(std::uint64_t i) const {
    return arena_->read(base_ + i);
  }
  /// Frees segment-relative cell `i`; true iff it was taken.
  bool try_release(std::uint64_t i) { return arena_->try_release(base_ + i); }

  /// The word-scan probe: claims any free cell of the word containing
  /// segment-relative `hint`, clamped to this segment's window. Returns
  /// the segment-relative index, or -1 when the word is full.
  /// `lost_races` (optional) forwards BitmapArena's observable-loss count
  /// (telemetry).
  std::int64_t try_claim_word(std::uint64_t hint,
                              std::uint32_t* lost_races = nullptr) {
    const std::int64_t got = arena_->try_claim_in_word(
        base_ + hint, base_, base_ + size_, lost_races);
    return got < 0 ? got : got - static_cast<std::int64_t>(base_);
  }

  /// Batched claim over the window [begin, end) (segment-relative): up to
  /// `k` free cells are claimed word-at-a-time in one linear scan and
  /// their *segment-relative* indices appended to `out`. Returns the
  /// number claimed.
  std::uint64_t try_claim_run(std::uint64_t begin, std::uint64_t end,
                              std::uint64_t k, std::uint64_t* out,
                              std::uint32_t* lost_races = nullptr) {
    const std::uint64_t got = arena_->try_claim_run(
        base_ + begin, base_ + end, k, out, lost_races);
    for (std::uint64_t i = 0; i < got; ++i) out[i] -= base_;
    return got;
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::uint64_t base() const { return base_; }

 private:
  BitmapArena* arena_ = nullptr;
  std::uint64_t base_ = 0;
  std::uint64_t size_ = 0;
};

}  // namespace loren
