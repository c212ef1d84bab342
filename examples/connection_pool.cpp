// Connection pool: the fixed long-lived renaming service as a lock-free
// resource allocator.
//
// A pool holds ~(1+eps)n connection slots for at most n concurrent
// clients. A client claims a slot with RenamingService::acquire(), uses
// it, and releases it. This is the classic "renaming ~ resource
// allocation" correspondence: a name is a lease on slot #name. A claim is
// a pop from the thread's own stash when the client just returned a slot,
// else ReBatching's batched random probing on the thread's sticky shard
// (log log n + O(1) word probes w.h.p.). The service checks every slot is
// held by one client at a time, and that no slot outlives the clients:
// an exiting thread's stashed slots are flushed back for it.
//
//   build/examples/connection_pool [clients] [requests-per-client]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "renaming/service.h"

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 16;
  const int requests = argc > 2 ? std::atoi(argv[2]) : 50;
  if (clients < 1 || requests < 1) {
    std::fprintf(stderr, "usage: %s [clients>=1] [requests>=1]\n", argv[0]);
    return 1;
  }

  loren::RenamingService pool(static_cast<std::uint64_t>(clients));
  std::printf("pool: %llu slots for %d clients\n",
              static_cast<unsigned long long>(pool.capacity()), clients);

  std::vector<std::atomic<int>> in_use(pool.capacity());
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shared{0};  // a slot handed to two clients
  std::atomic<std::uint64_t> peak_slot{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      for (int r = 0; r < requests; ++r) {
        const loren::sim::Name slot = pool.acquire();
        if (slot < 0) continue;  // exhausted: drop the request in this demo
        auto& flag = in_use[static_cast<std::size_t>(slot)];
        if (flag.exchange(1) != 0) shared.fetch_add(1);
        // ... issue the query over connection #slot ...
        std::uint64_t prev = peak_slot.load(std::memory_order_relaxed);
        while (static_cast<std::uint64_t>(slot) > prev &&
               !peak_slot.compare_exchange_weak(
                   prev, static_cast<std::uint64_t>(slot))) {
        }
        served.fetch_add(1, std::memory_order_relaxed);
        flag.store(0);
        pool.release(slot);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::printf("served %llu requests; highest slot ever used: %llu; "
              "slots shared by two clients: %llu; slots still held: %llu\n",
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(peak_slot.load()),
              static_cast<unsigned long long>(shared.load()),
              static_cast<unsigned long long>(pool.names_live()));
  return shared.load() == 0 && pool.names_live() == 0 ? 0 : 1;
}
