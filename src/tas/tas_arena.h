// TasArena: the cache-conscious hardware TAS substrate.
//
// A plain std::atomic array packs eight TAS cells into every 64-byte
// cache line, so under real concurrency every win ping-pongs the line under seven
// innocent neighbours (false sharing), and reusing a namespace means
// zeroing (or reallocating) all m cells. TasArena fixes both:
//
//  * Two layouts. kPadded places one cell per cache line (alignas(64)
//    stride) so concurrent probes on distinct names never share a line —
//    the right choice for contended hot paths. kPacked keeps the 8-per-
//    line density of the old array — 8x smaller, the right choice for
//    huge namespaces or read-mostly workloads.
//
//  * Generation-stamped cells. A cell stores the epoch in which it was
//    won (0 = never). A cell is "taken" iff its stamp equals the arena's
//    current epoch, so reset() is a single epoch increment — O(1) instead
//    of the O(m) store loop / reallocation the seed needed between
//    rounds. Stale stamps from earlier epochs are indistinguishable from
//    free cells to the probing logic.
//
//  * Minimal memory orders. test_and_set is exchange(epoch, acq_rel):
//    -- Linearizability of a TAS object only requires a total order over
//       the operations on that one cell, and C++ guarantees a per-object
//       modification order for atomic RMWs at *any* ordering; exactly one
//       exchange per epoch can observe a non-current stamp, so "at most
//       one winner" holds even under memory_order_relaxed.
//    -- acq_rel (rather than relaxed) is kept so a win synchronizes-with
//       every later operation that sees the cell taken: data a process
//       publishes before acquiring a name is visible to whoever observes
//       the name in use. This is the release/acquire handoff long-lived
//       renaming needs when names guard resources (connection slots etc.).
//    -- seq_cst would add only a global order across *different* cells.
//       No algorithm here branches on the relative order of two distinct
//       cells' values, so that fence is pure cost (a full barrier per
//       probe on arm64/power; stronger xchg semantics already paid on
//       x86). See docs/protocols.md, "Memory-order weakening", for the
//       argument.
//    Reads are acquire (pair with the release half of the winning RMW);
//    the epoch counter is read relaxed on the hot path — it only changes
//    in reset(), which requires external quiescence anyway (same contract
//    as the seed's reset()).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "platform/cacheline.h"
#include "platform/sim_point.h"
#include "tas/direct_env.h"
#include "telemetry/trace.h"

namespace loren {

enum class ArenaLayout : std::uint8_t {
  kPadded,  // one cell per 64-byte cache line (no false sharing)
  kPacked,  // eight cells per line (8x denser; the seed's layout)
};

class TasArena {
 public:
  static constexpr std::size_t kCacheLine = loren::kCacheLine;

  /// One allocation of `size` cells, all free, epoch 1. The constructed
  /// arena is immediately usable from any thread; construction itself is
  /// not concurrent with anything (standard object lifetime rules).
  explicit TasArena(std::uint64_t size, ArenaLayout layout = ArenaLayout::kPadded)
      : size_(size),
        layout_(layout),
        stride_(layout == ArenaLayout::kPadded ? kCacheLine : sizeof(std::uint64_t)) {
    storage_ = std::make_unique<std::byte[]>(size_ * stride_ + kCacheLine);
    auto base = reinterpret_cast<std::uintptr_t>(storage_.get());
    data_ = reinterpret_cast<std::byte*>((base + kCacheLine - 1) & ~std::uintptr_t(kCacheLine - 1));
    for (std::uint64_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(data_ + i * stride_)) std::atomic<std::uint64_t>(0);
    }
  }

  /// Returns true iff this call won the TAS: flipped the cell from free
  /// (never won, won in a stale epoch, or released) to taken-in-this-epoch.
  /// Safe from any thread, wait-free (one RMW), never blocks; at most one
  /// caller per (cell, epoch) ever wins. Bounds-unchecked: i < size().
  bool test_and_set(std::uint64_t i) {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    LOREN_SIM_POINT("tas.claim");
    return cell(i).exchange(e, std::memory_order_acq_rel) != e;
  }

  /// 1 iff the cell is taken in the current epoch (the seed's 0/1 view).
  /// Safe from any thread; a plain acquire load (pairs with the release
  /// half of the winning RMW, so a winner's prior writes are visible).
  [[nodiscard]] std::uint64_t read(std::uint64_t i) const {
    return cell(i).load(std::memory_order_acquire) ==
                   epoch_.load(std::memory_order_relaxed)
               ? 1
               : 0;
  }

  /// Seed-compatible write of the 0/1 view: nonzero marks the cell taken
  /// in the current epoch, zero frees it. Unconditional (no validation) —
  /// the simulator/baseline surface; concurrent production code wants
  /// test_and_set/try_release, whose outcomes are race-decided.
  void write(std::uint64_t i, std::uint64_t v) {
    // mo:relaxed-ok(the epoch read inside the store's value operand: the
    // stamp only has to be epoch-current, the release store publishes it)
    cell(i).store(v != 0 ? epoch_.load(std::memory_order_relaxed) : 0,
                  std::memory_order_release);
  }

  /// Atomically frees cell `i`; returns true iff it was taken in the
  /// current epoch (i.e. the release was legitimate). Single RMW — no
  /// check-then-act window, so concurrent double releases cannot both
  /// succeed. Safe from any thread, wait-free, never blocks.
  bool try_release(std::uint64_t i) {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    LOREN_SIM_POINT("tas.release");
    return cell(i).exchange(0, std::memory_order_acq_rel) == e;
  }

  /// Batched claim: scans [begin, end) linearly and TASes free-looking
  /// cells until `k` wins are collected, appending the won indices to
  /// `out`. Returns the number claimed (<= k). Each cell is checked with
  /// a cheap acquire load first, so already-taken cells cost a load, not
  /// a locked RMW — in the packed layout the scan reads the eight stamps
  /// of a cache line before touching the next line, so a mostly-full
  /// region is skipped at one line-fill per eight cells. Losing the race
  /// on a free-looking cell (the exchange observes the current epoch)
  /// just moves the scan on; uniqueness is still the per-cell TAS.
  /// `lost_races` (optional) accumulates the observable losses — cells
  /// whose check saw free but whose exchange found the current epoch
  /// (telemetry; single-RMW test_and_set losses are not observable).
  std::uint64_t try_claim_run(std::uint64_t begin, std::uint64_t end,
                              std::uint64_t k, std::uint64_t* out,
                              std::uint32_t* lost_races = nullptr) {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    std::uint64_t got = 0;
    for (std::uint64_t i = begin; i < end && got < k; ++i) {
      std::atomic<std::uint64_t>& c = cell(i);
      if (c.load(std::memory_order_acquire) == e) continue;  // taken
      // The load-before-RMW window: a rival can win the free-looking
      // cell between the check and the exchange.
      LOREN_SIM_POINT("tas.run.claim");
      if (c.exchange(e, std::memory_order_acq_rel) != e) {
        out[got++] = i;
      } else if (lost_races != nullptr) {
        ++*lost_races;
      }
    }
    return got;
  }

  /// Asks the cache for cell `i`'s line with intent to write, because a
  /// test_and_set on it is coming. A hint only: it reads and changes no
  /// state, so it is safe from any thread and at any point. Bounds-
  /// unchecked like test_and_set.
  void prefetch(std::uint64_t i) const {
    __builtin_prefetch(data_ + i * stride_, 1, 3);
  }

  /// O(1) full-namespace reset: bump the epoch so every stamp goes stale.
  /// Not safe concurrently with in-flight test_and_set/release (an
  /// in-flight op may land in either epoch); callers quiesce first.
  void reset() {
    // sim:exempt(reset() requires external quiescence; nothing races it)
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    LOREN_TRACE("tas.reset", epoch_.load(std::memory_order_relaxed));
  }

  /// Current epoch (diagnostics; exact only at quiescence, like reset()).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Geometry accessors: fixed at construction, safe from any thread.
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] ArenaLayout layout() const { return layout_; }
  /// Bytes of cell storage (excludes the alignment slack).
  [[nodiscard]] std::uint64_t footprint_bytes() const { return size_ * stride_; }

  /// Raw generation stamp of a cell — test/diagnostic use only.
  [[nodiscard]] std::uint64_t raw_stamp(std::uint64_t i) const {
    return cell(i).load(std::memory_order_acquire);
  }

 private:
  [[nodiscard]] std::atomic<std::uint64_t>& cell(std::uint64_t i) const {
    return *std::launder(
        reinterpret_cast<std::atomic<std::uint64_t>*>(data_ + i * stride_));
  }

  std::uint64_t size_;
  ArenaLayout layout_;
  std::size_t stride_;
  std::unique_ptr<std::byte[]> storage_;
  std::byte* data_ = nullptr;
  /// Epochs start at 1 so stamp 0 can mean "never won / released" forever.
  /// Own cache line: the hot path reads it on every probe and reset()
  /// writes it; sharing a line with `size_`/`data_` would be harmless
  /// (they are never written after construction) but padding makes the
  /// read-mostly intent explicit.
  // mo: relaxed, acq_rel -- epoch stamp: relaxed reads suffice because
  // reset() requires external quiescence (no racing bump to order with);
  // the acq_rel bump is belt-and-braces for the quiesce boundary itself.
  alignas(kCacheLine) std::atomic<std::uint64_t> epoch_{1};
};

/// An Env whose shared-memory operations execute immediately on a TasArena
/// (see BasicDirectEnv in direct_env.h); lets the coroutine algorithms run
/// on the cache-conscious substrate unchanged.
using ArenaEnv = BasicDirectEnv<TasArena>;

}  // namespace loren
