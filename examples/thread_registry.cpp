// Thread registry: the concurrent-memory-management use case from the
// paper's introduction (cf. the "repeat offender problem" [27]).
//
// Epoch-based memory reclamation, hazard pointers, and per-thread
// statistics all need each thread to own a *small dense slot index* so
// per-thread state can live in a flat array. Threads come and go, and the
// population is unknown in advance, so the registry is an
// ElasticRenamingService: it starts small, grows when more threads
// register at once than it was laid out for, and a deregistered slot is
// simply released — the service's stash and arena recycle it for later
// threads, so the slot range follows the *high-water* concurrency, not
// the total number of threads ever created.
//
//   build/examples/thread_registry [rounds] [threads]
//
// The demo runs several waves of worker threads. Each worker registers
// (acquires a slot), bumps its per-slot counter in the flat array, and
// deregisters (releases the slot) before it exits.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 3;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 6;
  if (rounds < 1 || threads < 1) {
    std::fprintf(stderr, "usage: %s [rounds>=1] [threads>=1]\n", argv[0]);
    return 1;
  }

  // Laid out for 4 threads; the namespace grows if a wave exhausts it.
  loren::ElasticRenamingService registry(4);
  constexpr int kCounterSlots = 4096;
  std::vector<std::atomic<std::uint64_t>> per_slot_ops(kCounterSlots);

  loren::sim::Name high_water_slot = -1;
  bool failed = false;
  std::mutex io;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, round, t] {
        const loren::sim::Name slot = registry.acquire();
        if (slot >= 0) {
          // Dense slot => direct index into flat per-thread state.
          for (int op = 0; op < 1000; ++op) {
            per_slot_ops[static_cast<std::size_t>(slot) % kCounterSlots]
                .fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::scoped_lock lock(io);
        std::printf("round %d worker %d -> slot %lld\n", round, t,
                    static_cast<long long>(slot));
        if (slot > high_water_slot) high_water_slot = slot;
        failed = failed || slot < 0 || !registry.release(slot);
      });
    }
    for (auto& w : workers) w.join();
  }

  std::printf("high-water slot index: %lld (threads launched in total: %d; "
              "registry laid out for %llu threads, generation %llu)\n",
              static_cast<long long>(high_water_slot), rounds * threads,
              static_cast<unsigned long long>(registry.holders()),
              static_cast<unsigned long long>(registry.generation()));
  std::printf("slots still registered after every worker exited: %llu\n",
              static_cast<unsigned long long>(registry.names_live()));
  return !failed && registry.names_live() == 0 ? 0 : 1;
}
