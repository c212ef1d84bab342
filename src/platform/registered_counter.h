// RegisteredCounter: an exact-at-quiescence statistic counter whose hot
// path is two plain moves, not a locked RMW.
//
// StripedCounter (striped_counter.h) removes cross-thread cache-line
// bouncing, but each add is still an atomic fetch_add — a full locked RMW
// even uncontended, because two threads can hash to one stripe. A
// RegisteredCounter goes one step further: each thread registers once and
// receives its own cache-line-padded node that no other thread ever
// writes. Single-writer means add() can be load-relaxed + store-relaxed —
// an ordinary increment of a memory word — while readers still see a
// consistent per-node value because the word itself is atomic.
//
// sum() walks the registry under a mutex (cold path) and is approximate
// while writers are in flight, exact once they have quiesced *and*
// synchronized with the reader (e.g. via thread join) — the same contract
// as StripedCounter. Nodes live in a ThreadNodes registry
// (thread_nodes.h): a thread that exits retires its node, value and all,
// and the next thread to register adds on top of it. The sum stays exact
// — a dead thread's net contribution is never lost, which is exactly
// right for "how many names are live" (names outlive threads) — and the
// nodes number at most the peak count of threads registered at once.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/cacheline.h"
#include "platform/thread_nodes.h"

namespace loren {

class RegisteredCounter {
 public:
  struct alignas(kCacheLine) Node {
    // mo: relaxed -- single-writer statistic: only the owning thread
    // writes; readers tolerate a stale snapshot (sum() is advisory).
    std::atomic<std::int64_t> v{0};
  };

  /// One-time per thread (callers cache the returned node, e.g. in a
  /// thread_local). Safe to call concurrently. The node may be a retired
  /// one, still carrying its old owner's contribution.
  Node& register_thread() { return nodes_.acquire(); }

  /// The owning thread gives its node up (at thread exit); its value
  /// stays in the sum.
  void retire(Node& node) { nodes_.retire(node); }

  /// Single-writer add: only the owning thread may pass its node.
  static void add(Node& node, std::int64_t delta) {
    node.v.store(node.v.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t sum() const {
    std::int64_t total = 0;
    nodes_.for_each(
        [&](const Node& n) { total += n.v.load(std::memory_order_relaxed); });
    return total;
  }

  /// Not thread-safe with concurrent add() (same contract as the arenas'
  /// reset()).
  void reset() {
    nodes_.for_each([](Node& n) { n.v.store(0, std::memory_order_relaxed); });
  }

  /// Nodes allocated (diagnostics): at most the peak count of threads
  /// registered at once.
  [[nodiscard]] std::size_t nodes() const { return nodes_.size(); }

 private:
  ThreadNodes<Node> nodes_;
};

}  // namespace loren
