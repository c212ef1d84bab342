// EpochDomain: epoch-based quiescence tracking for online reclamation.
//
// The elastic renaming service (src/elastic/) retires whole shard groups at
// runtime: a resize publishes a new group via pointer swap, and the old
// group's memory must not be freed while some thread still holds a raw
// pointer into it. Hazard pointers or reference counts would put an RMW on
// the acquire/release hot path; epoch-based reclamation (Fraser 2004, and
// the RCU family) keeps the reader side down to two plain atomic accesses.
//
// The registry reuses the RegisteredCounter recipe (registered_counter.h):
// each thread registers once per domain and receives its own cache-line-
// padded slot that only it ever writes on the hot path. A reader *pins*
// the domain for the duration of a critical section by publishing the
// global epoch into its slot; a writer *advances* the global epoch and can
// later ask whether every reader observed the advance.
//
// Protocol (the classic two-step):
//   reader:  e = global; slot = e (seq_cst); re-check global == e, retry
//            with the new value otherwise; ... dereference ...; slot = idle
//   writer:  unpublish the pointer; E = advance(); when quiesced(E), no
//            reader pinned before the advance is still inside its critical
//            section, so nobody can still hold the unpublished pointer.
//
// Why the re-check: between the reader's load of `global` and the store to
// its slot, a writer may advance and scan the slots without seeing the
// pin. Re-reading `global` after the store (both seq_cst, so neither can
// be reordered past the other) closes the window: either the reader sees
// the advance and re-pins at the new epoch, or the writer's later
// quiesced() scan sees the reader's published (old) epoch and waits.
//
// quiesced(E) is a cold-path scan under the registry mutex; it never
// blocks readers. Slots live in a ThreadNodes registry (thread_nodes.h):
// a thread that exits retires its slot, idle, and the next thread to
// register reuses it, so the slots (and every quiesced() scan) number at
// most the peak count of threads registered at once. An idle slot blocks
// no epoch, so handing one over needs no reset.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>

#include "platform/cacheline.h"
#include "platform/sim_point.h"
#include "platform/thread_nodes.h"
#include "telemetry/trace.h"

namespace loren {

class EpochDomain {
 public:
  /// Epochs start at 1, so 0 can mean "not pinned" forever.
  static constexpr std::uint64_t kIdle = 0;

  struct alignas(kCacheLine) Slot {
    // mo: seq_cst, release, relaxed -- pin publication: the seq_cst
    // store/scan pair closes the publish-vs-advance race; the release
    // unpin pairs with quiesced()'s read; relaxed only re-reads the
    // guard's own last store for the trace.
    std::atomic<std::uint64_t> pinned{kIdle};
  };

  /// One-time per (thread, domain); callers cache the returned slot in a
  /// thread-local. Safe to call concurrently.
  Slot& register_thread() { return slots_.acquire(); }

  /// The owning thread gives its slot up (at thread exit). Only an idle
  /// slot may be retired: a pin held past retirement would be lost to the
  /// slot's next owner's unpin.
  void retire(Slot& slot) {
    // mo:relaxed-ok(the owner's own last store, read back by its thread)
    assert(slot.pinned.load(std::memory_order_relaxed) == kIdle);
    slots_.retire(slot);
  }

  /// RAII pin: the domain's current epoch is published in `slot` for the
  /// guard's lifetime. Pointers loaded from epoch-protected structures
  /// while a guard is live stay valid until the guard is destroyed.
  class Guard {
   public:
    Guard(const EpochDomain& domain, Slot& slot) : slot_(&slot) {
      std::uint64_t e = domain.global_.load(std::memory_order_acquire);
      for (;;) {
        // The publish/re-check race window the protocol exists to close:
        // an adversarial schedule advances the epoch right here.
        LOREN_SIM_POINT("epoch.pin.publish");
        slot_->pinned.store(e, std::memory_order_seq_cst);
        const std::uint64_t g = domain.global_.load(std::memory_order_seq_cst);
        if (g == e) break;  // pin published before any later advance's scan
        e = g;
      }
      // Pinned and inside the critical section — the park site for the
      // crash-mid-pin fault model (a reader that dies while pinned must
      // block reclamation forever, never unblock it).
      LOREN_SIM_POINT("epoch.pin");
      LOREN_TRACE("epoch.pin", e);
    }
    ~Guard() {
      LOREN_SIM_POINT("epoch.unpin");
      LOREN_TRACE("epoch.unpin",
                  slot_->pinned.load(std::memory_order_relaxed));
      slot_->pinned.store(kIdle, std::memory_order_release);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Slot* slot_;
  };

  [[nodiscard]] std::uint64_t current() const {
    return global_.load(std::memory_order_acquire);
  }

  /// Bumps the global epoch; returns the *new* epoch E. Every reader
  /// pinned strictly before the advance holds an epoch < E.
  std::uint64_t advance() {
    LOREN_SIM_POINT("epoch.advance");
    const std::uint64_t e = global_.fetch_add(1, std::memory_order_seq_cst) + 1;
    LOREN_TRACE("epoch.advance", e);
    return e;
  }

  /// True iff no reader is still pinned at an epoch < `epoch`: every
  /// critical section that began before advance() returned `epoch` has
  /// ended (and, via the release/acquire pair on the slot, everything it
  /// wrote is visible to the caller). New pins at >= `epoch` don't block.
  [[nodiscard]] bool quiesced(std::uint64_t epoch) const {
    bool quiet = true;
    slots_.for_each([&](const Slot& slot) {
      const std::uint64_t p = slot.pinned.load(std::memory_order_seq_cst);
      if (p != kIdle && p < epoch) quiet = false;
    });
    return quiet;
  }

  /// Slots allocated (diagnostics): at most the peak count of threads
  /// registered at once.
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

 private:
  // mo: seq_cst, acquire -- advance()'s seq_cst RMW orders against pin
  // publication; acquire loads just snapshot the current epoch.
  alignas(kCacheLine) std::atomic<std::uint64_t> global_{1};
  // sim:lock-ok(cold slot registry; its critical sections -- acquire,
  // retire and the quiesced() scan -- never hit a sim point)
  ThreadNodes<Slot, std::mutex> slots_;
};

}  // namespace loren
