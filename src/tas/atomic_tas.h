// Hardware-backed shared memory: std::atomic cells plus the DirectEnv that
// lets the coroutine algorithms run unchanged on real threads.
//
// TAS is exchange(1) on a 64-bit cell ("win" iff the previous value was 0,
// exactly the paper's semantics). The exchange is acq_rel, not seq_cst:
// a TAS object is linearizable as long as all operations on the *same*
// cell are totally ordered, which every atomic RMW already guarantees via
// the cell's modification order; acq_rel additionally makes the winning
// exchange a synchronizes-with edge so data published before a win is
// visible to any process that later observes the cell taken. seq_cst
// would only add a single total order *across different cells*, which no
// algorithm in this library relies on — each probe's control flow depends
// only on that one cell's outcome. (See docs/protocols.md, "Memory-order
// weakening".) Plain read/write stay seq_cst: they also serve the
// read-write-register TAS protocols (rw_tas.*), whose proofs assume
// sequentially consistent registers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "tas/direct_env.h"

namespace loren {

class AtomicTasArray {
 public:
  explicit AtomicTasArray(std::uint64_t size)
      : size_(size), cells_(std::make_unique<std::atomic<std::uint64_t>[]>(size)) {
    reset();
  }

  /// Returns true iff this call won the TAS (flipped the cell from 0).
  bool test_and_set(std::uint64_t i) {
    // sim:exempt(seed substrate: the coroutine simulator schedules it at
    // Env-op granularity, so a yield inside the RMW adds nothing)
    return cells_[i].exchange(1, std::memory_order_acq_rel) == 0;
  }
  [[nodiscard]] std::uint64_t read(std::uint64_t i) const {
    return cells_[i].load(std::memory_order_seq_cst);
  }
  void write(std::uint64_t i, std::uint64_t v) {
    cells_[i].store(v, std::memory_order_seq_cst);
  }

  /// Atomically clears cell `i` and returns its previous value (the
  /// race-free primitive for long-lived release: the caller can validate
  /// that the cell really was held without a check-then-act window).
  std::uint64_t exchange_clear(std::uint64_t i) {
    // sim:exempt(seed substrate: the coroutine simulator schedules it at
    // Env-op granularity, so a yield inside the RMW adds nothing)
    return cells_[i].exchange(0, std::memory_order_acq_rel);
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Not thread-safe; for reuse between single-threaded experiment rounds.
  /// O(size) — TasArena (tas_arena.h) resets in O(1) via an epoch bump.
  void reset() {
    // Release stores rather than relaxed ones and a trailing fence: each
    // cleared cell then publishes itself to the acquiring exchange or
    // load that next reads it, an edge ThreadSanitizer can see (GCC
    // rejects atomic_thread_fence under -fsanitize=thread).
    for (std::uint64_t i = 0; i < size_; ++i) {
      cells_[i].store(0, std::memory_order_release);
    }
  }

 private:
  std::uint64_t size_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
};

/// An Env whose shared-memory operations execute immediately on an
/// AtomicTasArray (see BasicDirectEnv in direct_env.h).
using DirectEnv = BasicDirectEnv<AtomicTasArray>;

}  // namespace loren
