// BitmapArena: the word-packed TAS substrate — 64 cells per probe.
//
// TasArena spends one cache-line atomic RMW per *cell* probed, and its
// exhaustion backstop sweeps cell by cell. At a bit per cell the same
// namespace packs 64 cells into every std::uint64_t word, and the probing
// primitives change shape:
//
//  * try_claim_in_word — one word load snapshots 64 cells, countr_zero
//    over the free mask picks a candidate, and a single one-bit fetch_or
//    claims it (retrying on a lost race, which can only happen at most 63
//    times per word because every loss permanently shrinks the free mask).
//    A probe that would have cost up to 64 cell RMWs is a load + one RMW.
//  * try_claim_run — batch claims assemble a multi-bit mask from the
//    loaded free mask (load-before-RMW, as in TasArena::try_claim_run)
//    and claim a whole sub-batch with ONE fetch_or per word; the bits
//    that were already set in the returned old value are the lost races.
//  * sweep_word — a whole word's occupancy in one snapshot instead of
//    64 per-cell loads (the claiming backstops get the same word-at-a-
//    time shape through try_claim_run; sweep_word is the read-only
//    surface).
//
// Epoch-stamped O(1) reset is preserved via a per-word generation
// sidecar: each word carries the epoch its bits were last valid in, and a
// word whose stamp is stale is logically all-free. reset() is still one
// epoch increment; the first toucher of a stale word re-zeroes it lazily
// under a tiny CAS-guarded protocol (see ensure_fresh below).
//
// Memory orders mirror the TasArena argument (docs/protocols.md,
// "Memory-order weakening"): the claiming fetch_or is acq_rel — per-word
// modification order makes "at most one winner per (cell, epoch)"
// structural at any ordering, and the release half publishes a winner's
// prior writes to whoever later observes the bit set; loads are acquire;
// the arena epoch is read relaxed on the hot path because reset()
// requires external quiescence (the same contract as TasArena::reset()).
//
// The tradeoff vs TasArena is false sharing by construction: 64 (padded)
// or 256 (packed) cells share a line, so concurrent wins on neighbouring
// names contend. The word-scan makes each touch *count* for 64 cells,
// which is why both renaming services run on this substrate; TasArena
// remains the paper-model substrate (ConcurrentRenamer, the baselines).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "platform/bit.h"
#include "platform/cacheline.h"
#include "platform/sim_point.h"
#include "tas/direct_env.h"
#include "tas/tas_arena.h"
#include "telemetry/trace.h"

namespace loren {

class BitmapArena {
 public:
  static constexpr std::uint64_t kBitsPerWord = 64;
  static constexpr std::size_t kCacheLine = loren::kCacheLine;

  /// One allocation of ceil(size/64) word slots, all free, epoch 2. The
  /// kPadded layout gives every word slot its own cache line (64 cells
  /// per line — concurrent scans of distinct words never share a line);
  /// kPacked packs slots densely (256 cells per 64-byte line, the
  /// smallest footprint). Immediately usable from any thread.
  explicit BitmapArena(std::uint64_t size,
                       ArenaLayout layout = ArenaLayout::kPadded)
      : size_(size),
        words_((size + kBitsPerWord - 1) / kBitsPerWord),
        layout_(layout),
        stride_(layout == ArenaLayout::kPadded ? kCacheLine
                                               : sizeof(WordSlot)) {
    storage_ = std::make_unique<std::byte[]>(words_ * stride_ + kCacheLine);
    auto base = reinterpret_cast<std::uintptr_t>(storage_.get());
    data_ = reinterpret_cast<std::byte*>((base + kCacheLine - 1) &
                                         ~std::uintptr_t(kCacheLine - 1));
    for (std::uint64_t w = 0; w < words_; ++w) {
      ::new (static_cast<void*>(data_ + w * stride_)) WordSlot{};
      // Stamp every word with the starting epoch so the first epoch needs
      // no lazy refresh at all.
      slot(w).gen.store(kFirstEpoch, std::memory_order_relaxed);
    }
  }

  /// Returns true iff this call won the TAS on cell `i`: flipped it from
  /// free (never won, stale epoch, or released) to taken-in-this-epoch.
  /// Safe from any thread; one word load (+ the rare stale-word refresh)
  /// and one single-bit fetch_or. Bounds-unchecked: i < size().
  bool test_and_set(std::uint64_t i) {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    WordSlot& s = slot(i / kBitsPerWord);
    ensure_fresh(s, e);
    const std::uint64_t bit = std::uint64_t{1} << (i % kBitsPerWord);
    LOREN_SIM_POINT("bitmap.tas");
    return (s.bits.fetch_or(bit, std::memory_order_acq_rel) & bit) == 0;
  }

  /// 1 iff cell `i` is taken in the current epoch. A stale word is
  /// logically all-free, so no refresh is needed (or performed) to read.
  [[nodiscard]] std::uint64_t read(std::uint64_t i) const {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    const WordSlot& s = slot(i / kBitsPerWord);
    if (s.gen.load(std::memory_order_acquire) != e) return 0;
    return (s.bits.load(std::memory_order_acquire) >>
            (i % kBitsPerWord)) &
           1u;
  }

  /// Seed-compatible unconditional 0/1 write (simulator/baseline surface;
  /// concurrent production code wants test_and_set/try_release).
  void write(std::uint64_t i, std::uint64_t v) {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    WordSlot& s = slot(i / kBitsPerWord);
    ensure_fresh(s, e);
    const std::uint64_t bit = std::uint64_t{1} << (i % kBitsPerWord);
    if (v != 0) {
      // sim:exempt(seed-compat baseline surface; the concurrent paths go
      // through test_and_set/try_release, which carry the sim points)
      s.bits.fetch_or(bit, std::memory_order_acq_rel);
    } else {
      // sim:exempt(seed-compat baseline surface; the concurrent paths go
      // through test_and_set/try_release, which carry the sim points)
      s.bits.fetch_and(~bit, std::memory_order_acq_rel);
    }
  }

  /// Atomically frees cell `i`; true iff it was taken in the current
  /// epoch. A stale word holds no current-epoch names, so the release
  /// fails without touching it; a fresh word cannot go stale mid-call
  /// (reset() requires external quiescence), so the single-RMW validation
  /// argument carries over from TasArena: concurrent double releases
  /// cannot both observe the bit set.
  bool try_release(std::uint64_t i) {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    WordSlot& s = slot(i / kBitsPerWord);
    if (s.gen.load(std::memory_order_acquire) != e) return false;
    const std::uint64_t bit = std::uint64_t{1} << (i % kBitsPerWord);
    LOREN_SIM_POINT("bitmap.release");
    return (s.bits.fetch_and(~bit, std::memory_order_acq_rel) & bit) != 0;
  }

  /// The word-scan probe: claims any free cell of the word containing
  /// `hint`, restricted to indices in [lo, hi) (the caller's shard
  /// window). Returns the claimed cell index, or -1 when the word has no
  /// free cell in range. The protocol is mask snapshot -> countr_zero ->
  /// one-bit fetch_or -> verify: losing the race on the chosen bit just
  /// reloads the (shrunken) free mask from the fetch_or's return value,
  /// so the retry loop runs at most 64 times and performs no extra loads.
  /// `lost_races` (optional) accumulates the fetch_or retries — each one
  /// is a rival observed winning the chosen bit (telemetry); `claims`
  /// (optional) accumulates every fetch_or issued, lost ones included.
  std::int64_t try_claim_in_word(std::uint64_t hint, std::uint64_t lo,
                                 std::uint64_t hi,
                                 std::uint32_t* lost_races = nullptr,
                                 std::uint32_t* claims = nullptr) {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    const std::uint64_t w = hint / kBitsPerWord;
    WordSlot& s = slot(w);
    ensure_fresh(s, e);
    const std::uint64_t allowed = word_window_mask(w, lo, hi);
    std::uint64_t taken = s.bits.load(std::memory_order_acquire);
    while (true) {
      const std::uint64_t free = ~taken & allowed;
      if (free == 0) return -1;
      const int b = countr_zero_u64(free);
      const std::uint64_t bit = std::uint64_t{1} << b;
      // The snapshot->fetch_or race window: a rival claims the chosen
      // bit between the mask read and the RMW (the word-claim storm
      // scenario schedules exactly this).
      LOREN_SIM_POINT("bitmap.word.claim");
      const std::uint64_t old = s.bits.fetch_or(bit, std::memory_order_acq_rel);
      if (claims != nullptr) ++*claims;
      if ((old & bit) == 0) {
        return static_cast<std::int64_t>(w * kBitsPerWord +
                                         static_cast<std::uint64_t>(b));
      }
      if (lost_races != nullptr) ++*lost_races;
      taken = old | bit;  // lost the race: that bit (at least) is now taken
    }
  }

  /// Batched claim over [begin, end): up to `k` free cells claimed
  /// word-at-a-time, indices appended to `out`, count returned. Per word
  /// the free mask is loaded once, the lowest (k - got) free bits are
  /// assembled into a single claim mask, and one fetch_or claims them
  /// all; bits already set in the returned old value were lost races and
  /// the residue is retried from the updated mask. Claiming a k-cell run
  /// that spans a word boundary is just two word iterations — no cell is
  /// ever claimed twice because every claim is a bit that this fetch_or
  /// flipped 0 -> 1. `lost_races` (optional) accumulates popcount(want &
  /// old) across the fetch_ors — the bits rivals won first (telemetry);
  /// `claims` (optional) accumulates the fetch_ors issued.
  std::uint64_t try_claim_run(std::uint64_t begin, std::uint64_t end,
                              std::uint64_t k, std::uint64_t* out,
                              std::uint32_t* lost_races = nullptr,
                              std::uint32_t* claims = nullptr) {
    if (begin >= end || k == 0) return 0;
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    std::uint64_t got = 0;
    const std::uint64_t first_word = begin / kBitsPerWord;
    const std::uint64_t last_word = (end - 1) / kBitsPerWord;
    for (std::uint64_t w = first_word; w <= last_word && got < k; ++w) {
      WordSlot& s = slot(w);
      ensure_fresh(s, e);
      const std::uint64_t allowed = word_window_mask(w, begin, end);
      std::uint64_t taken = s.bits.load(std::memory_order_acquire);
      while (got < k) {
        const std::uint64_t free = ~taken & allowed;
        if (free == 0) break;
        const std::uint64_t want =
            lowest_n_bits(free, static_cast<unsigned>(
                                    k - got < kBitsPerWord ? k - got
                                                           : kBitsPerWord));
        LOREN_SIM_POINT("bitmap.run.word");
        const std::uint64_t old =
            s.bits.fetch_or(want, std::memory_order_acq_rel);
        if (claims != nullptr) ++*claims;
        std::uint64_t won = want & ~old;  // bits this RMW flipped 0 -> 1
        while (won != 0) {
          const int b = countr_zero_u64(won);
          won &= won - 1;
          out[got++] = w * kBitsPerWord + static_cast<std::uint64_t>(b);
        }
        if ((want & old) == 0) break;  // no lost races: mask is exhausted
        if (lost_races != nullptr) {
          *lost_races += static_cast<std::uint32_t>(popcount_u64(want & old));
        }
        taken = old | want;
      }
    }
    return got;
  }

  /// Whole-word snapshot: the free mask of word `w` (bit b set = cell
  /// w*64+b is free), clamped to the arena size. One load replaces 64
  /// per-cell reads; a stale word is all-free without refreshing. The
  /// production backstops reach the same word-at-a-time scan through
  /// try_claim_run (which snapshots AND claims); this is the standalone
  /// read-only surface for occupancy probes, diagnostics, and tests.
  [[nodiscard]] std::uint64_t sweep_word(std::uint64_t w) const {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    const WordSlot& s = slot(w);
    const std::uint64_t valid = word_window_mask(w, 0, size_);
    if (s.gen.load(std::memory_order_acquire) != e) return valid;
    return ~s.bits.load(std::memory_order_acquire) & valid;
  }

  /// O(1) full-namespace reset: bump the epoch so every word's stamp goes
  /// stale (words re-zero lazily on first touch). Same contract as
  /// TasArena::reset(): requires external quiescence.
  void reset() {
    // sim:exempt(reset() requires external quiescence; nothing races it)
    epoch_.fetch_add(kEpochStep, std::memory_order_acq_rel);
    LOREN_TRACE("bitmap.reset", epoch_.load(std::memory_order_relaxed));
  }

  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::uint64_t words() const { return words_; }
  [[nodiscard]] ArenaLayout layout() const { return layout_; }
  /// Bytes of word storage (excludes the alignment slack). The packed
  /// layout is size/4 bytes — 8x denser than packed TasArena cells, 256x
  /// denser than padded ones.
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return words_ * stride_;
  }

  /// Raw word stamp/bits — test/diagnostic use only.
  [[nodiscard]] std::uint64_t raw_gen(std::uint64_t w) const {
    return slot(w).gen.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t raw_bits(std::uint64_t w) const {
    return slot(w).bits.load(std::memory_order_acquire);
  }

 private:
  /// Epochs advance by 2 and stay even; the odd value (epoch | 1) is the
  /// in-progress marker of the lazy refresh protocol below.
  static constexpr std::uint64_t kFirstEpoch = 2;
  static constexpr std::uint64_t kEpochStep = 2;

  struct WordSlot {
    // mo: acquire, acq_rel, relaxed -- occupancy mask: acq_rel RMWs
    // decide claims, acquire snapshots pair with them; the one relaxed
    // store (refresh zero) is published by gen's release store.
    std::atomic<std::uint64_t> bits{0};
    // mo: acquire, release, acq_rel, relaxed -- refresh protocol stamp:
    // CAS to the odd marker, release-publish of the fresh epoch pairing
    // with acquire readers; relaxed only for the construction-time stamp.
    std::atomic<std::uint64_t> gen{0};
  };

  /// Lazy re-zero of a word whose stamp predates the current epoch.
  /// Exactly one thread wins the CAS from the stale stamp to the odd
  /// in-progress marker (epoch | 1); the winner zeroes the bits and then
  /// publishes the fresh stamp with a release store, so any thread that
  /// observes gen == epoch (acquire) also observes the zeroed bits — no
  /// claim can land on pre-zero garbage and no zero can wipe a landed
  /// claim. Concurrent first-touchers of the same word spin across the
  /// winner's two plain stores; the window is two instructions wide and
  /// only ever open on the first touch of a word after a reset().
  void ensure_fresh(WordSlot& s, std::uint64_t e) {
    std::uint64_t g = s.gen.load(std::memory_order_acquire);
    while (g != e) {
      if (g == (e | 1)) {  // another thread is mid-refresh: wait it out
        // Under a serialized schedule the refresher may be suspended
        // exactly between its two stores; yielding here lets the
        // scheduler run it instead of spinning forever.
        LOREN_SIM_POINT("bitmap.refresh.wait");
        g = s.gen.load(std::memory_order_acquire);
        continue;
      }
      if (s.gen.compare_exchange_weak(g, e | 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        // CAS won, marker published, zero + fresh stamp still pending —
        // the widest the refresh race ever opens; stalling here makes
        // every concurrent toucher sit in the wait loop above.
        LOREN_SIM_POINT("bitmap.refresh.zero");
        s.bits.store(0, std::memory_order_relaxed);
        s.gen.store(e, std::memory_order_release);
        return;
      }
    }
  }

  /// Bits of word `w` whose cell indices fall in [lo, hi).
  [[nodiscard]] std::uint64_t word_window_mask(std::uint64_t w,
                                               std::uint64_t lo,
                                               std::uint64_t hi) const {
    const std::uint64_t word_base = w * kBitsPerWord;
    if (hi <= word_base || lo >= word_base + kBitsPerWord) return 0;
    const std::uint64_t from = lo > word_base ? lo - word_base : 0;
    const std::uint64_t to =
        hi < word_base + kBitsPerWord ? hi - word_base : kBitsPerWord;
    return bit_range_mask(static_cast<unsigned>(from),
                          static_cast<unsigned>(to));
  }

  [[nodiscard]] WordSlot& slot(std::uint64_t w) const {
    return *std::launder(reinterpret_cast<WordSlot*>(data_ + w * stride_));
  }

  std::uint64_t size_;
  std::uint64_t words_;
  ArenaLayout layout_;
  std::size_t stride_;
  std::unique_ptr<std::byte[]> storage_;
  std::byte* data_ = nullptr;
  /// Own cache line for the same reason as TasArena::epoch_.
  // mo: relaxed, acq_rel -- epoch stamp: same contract as
  // TasArena::epoch_ (reset() requires external quiescence; relaxed
  // reads are current by that contract).
  alignas(kCacheLine) std::atomic<std::uint64_t> epoch_{kFirstEpoch};
};

/// Run the coroutine algorithms directly over the bitmap substrate.
using BitmapEnv = BasicDirectEnv<BitmapArena>;

}  // namespace loren
