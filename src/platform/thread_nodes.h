// ThreadNodes: the per-thread node registry behind RegisteredCounter,
// EpochDomain, the MetricsRegistry stripes and the lease heartbeats.
//
// Each of those hands every registering thread its own cache-line-padded
// node that only that thread writes on the hot path, and walks all nodes
// on a cold path (a sum, a quiescence scan, a snapshot, a reap pass). A
// node is owned here, not by its thread, so nothing a reader holds can
// dangle. What the thread gives back at exit is the *use* of the node:
// retire() parks it, and the next acquire() hands it to the next thread
// that registers. The nodes therefore number at most the peak count of
// threads registered at once, and so does every walk over them.
//
// Reuse needs no fold step. A node that holds a running total (a counter
// stripe, a live count, a lease set's tallies) keeps it, and its next
// owner adds on top, so every sum over the nodes stays exact. A node that
// holds identity or freshness (an epoch pin, a heartbeat stamp) is reset
// by its owner: retired only while idle, or cleared on reuse.
//
// The owner picks the lock type: std::mutex for the plain registries, a
// SimMutex where a walker's critical section contains sim points.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace loren {

template <class Node, class Mutex = std::mutex>
class ThreadNodes {
 public:
  /// A retired node if there is one, else a freshly allocated one. The
  /// caller owns its use until retire(); callers cache the reference.
  Node& acquire() {
    std::lock_guard<Mutex> lock(mu_);
    if (!retired_.empty()) {
      Node* n = retired_.back();
      retired_.pop_back();
      return *n;
    }
    nodes_.push_back(std::make_unique<Node>());
    return *nodes_.back();
  }

  /// Hands `node` back for the next acquire(). Its owner must not touch
  /// it afterwards; a node is retired at most once per acquire().
  void retire(Node& node) {
    std::lock_guard<Mutex> lock(mu_);
    retired_.push_back(&node);
  }

  /// Calls f(node) for every allocated node, retired ones included (they
  /// keep their totals), under the lock: a node acquired after the walk
  /// took the lock is not visited.
  template <class F>
  void for_each(F&& f) const {
    std::lock_guard<Mutex> lock(mu_);
    for (const auto& n : nodes_) f(*n);
  }

  /// Nodes allocated: at most the peak count of concurrent owners.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<Mutex> lock(mu_);
    return nodes_.size();
  }

 private:
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Node*> retired_;
};

}  // namespace loren
