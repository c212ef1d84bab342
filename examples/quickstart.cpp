// Quickstart: T threads rename themselves into a namespace of size
// ~(1+eps)*T using the ReBatching algorithm over hardware atomics.
//
//   build/examples/quickstart [threads]
//
// Each thread performs log log T + O(1) shared-memory steps w.h.p. — the
// headline result of Alistarh, Aspnes, Giakkoupis & Woelfel (PODC 2013).
//
// This example stays on ConcurrentRenamer, not the long-lived services:
// it demonstrates the paper's one-shot algorithm itself (each thread
// acquires one name, once). connection_pool and thread_registry show the
// long-lived RenamingService and ElasticRenamingService.
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "renaming/concurrent.h"

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 8;
  if (threads < 1) {
    std::fprintf(stderr, "usage: %s [threads>=1]\n", argv[0]);
    return 1;
  }

  loren::ConcurrentRenamer renamer(static_cast<std::uint64_t>(threads),
                                   /*epsilon=*/0.5);
  std::printf("namespace capacity: %llu names for %d threads (eps = 0.5)\n",
              static_cast<unsigned long long>(renamer.capacity()), threads);

  std::mutex io;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const loren::sim::Name name = renamer.get_name();
      std::scoped_lock lock(io);
      std::printf("thread %2d acquired name %3lld\n", t,
                  static_cast<long long>(name));
    });
  }
  for (auto& w : workers) w.join();

  std::printf("assigned %llu unique names\n",
              static_cast<unsigned long long>(renamer.names_assigned()));
  return 0;
}
