// ServiceDirectory: the thread-exit flush rendezvous.
//
// A thread that exits without calling flush_thread_cache() used to strand
// its stashed names for the service's lifetime (the NameStash lives in
// the exiting thread's thread_ctx, and nobody else can reach it). The
// directory closes that leak: each service registers (instance id ->
// flush callback) on construction and unregisters first thing in its
// destructor; the per-thread ThreadCtx destructor walks its
// PerServiceTable and hands each still-registered service its per-thread
// payload to flush. The payload pointer is passed directly — the exiting
// thread is mid-TLS-destruction, so the callback must never re-enter
// thread_local lookups; it works only off the payload's cached pointers
// (counter node, stripe, epoch slot, heartbeat — all heap-owned by the
// service or its registry and guaranteed to outlive the thread), and
// retires those nodes for the next thread that registers.
//
// Metrics registries (telemetry/metrics.h) draw their ids from the same
// sequence and register here too: an exiting thread's stripe table hands
// each stripe back through flush(), so a registry shared by several
// services gets its stripes back exactly once.
//
// Locking: the directory mutex is held across the callback, so a service
// destructor's unregister() blocks until in-flight exit flushes drain —
// after unregister returns, no thread can touch the dying service again.
// Lock order is directory -> service internals; services never call into
// the directory while holding their own locks (register/unregister run in
// ctor/dtor bodies only). The mutex is a SimMutex because the flush
// callbacks contain LOREN_SIM_POINTs (stash flush, arena releases).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "platform/sim_point.h"

namespace loren {

class ServiceDirectory {
 public:
  /// `payload` is the thread's per-service context (ServiceCore's
  /// PerThread), passed type-erased.
  using FlushFn = void (*)(void* service, void* payload);

  static ServiceDirectory& instance() {
    static ServiceDirectory directory;
    return directory;
  }

  void register_service(std::uint64_t id, void* service, FlushFn fn) {
    std::lock_guard<SimMutex> lock(mu_);
    entries_[id] = Entry{service, fn};
  }

  void unregister_service(std::uint64_t id) {
    std::lock_guard<SimMutex> lock(mu_);
    entries_.erase(id);
  }

  /// Called by the exiting thread for each service id in its table; a
  /// no-op when the service was already destroyed (its names died with
  /// it). The lock is held across the callback — see the file comment.
  void flush(std::uint64_t id, void* payload) {
    std::lock_guard<SimMutex> lock(mu_);
    auto it = entries_.find(id);
    if (it != entries_.end()) it->second.fn(it->second.service, payload);
  }

 private:
  struct Entry {
    void* service = nullptr;
    FlushFn fn = nullptr;
  };

  ServiceDirectory() = default;

  SimMutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace loren
