// Tests for EpochDomain (platform/epoch.h): the quiescence primitive the
// elastic resize protocol is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "platform/epoch.h"

namespace loren {
namespace {

TEST(EpochDomain, StartsQuiescedAndAtEpochOne) {
  EpochDomain d;
  EXPECT_EQ(d.current(), 1u);
  EXPECT_TRUE(d.quiesced(1));
  EXPECT_TRUE(d.quiesced(d.current()));
}

TEST(EpochDomain, AdvanceReturnsNewEpoch) {
  EpochDomain d;
  EXPECT_EQ(d.advance(), 2u);
  EXPECT_EQ(d.advance(), 3u);
  EXPECT_EQ(d.current(), 3u);
}

TEST(EpochDomain, PinnedReaderBlocksQuiescenceUntilUnpinned) {
  EpochDomain d;
  EpochDomain::Slot& slot = d.register_thread();
  {
    EpochDomain::Guard guard(d, slot);  // pinned at epoch 1
    const std::uint64_t e = d.advance();  // e == 2
    EXPECT_FALSE(d.quiesced(e)) << "reader pinned at 1 must block epoch 2";
  }
  EXPECT_TRUE(d.quiesced(d.current()));
}

TEST(EpochDomain, ReaderPinnedAfterAdvanceDoesNotBlockThatEpoch) {
  EpochDomain d;
  EpochDomain::Slot& slot = d.register_thread();
  const std::uint64_t e = d.advance();  // e == 2
  EpochDomain::Guard guard(d, slot);    // pins at >= 2
  EXPECT_TRUE(d.quiesced(e));
}

TEST(EpochDomain, IdleSlotsNeverBlock) {
  EpochDomain d;
  for (int i = 0; i < 8; ++i) d.register_thread();
  d.advance();
  EXPECT_TRUE(d.quiesced(d.current()));
}

TEST(EpochDomain, GuardsNest_SequentiallyOnOneThread) {
  EpochDomain d;
  EpochDomain::Slot& slot = d.register_thread();
  for (int i = 0; i < 100; ++i) {
    EpochDomain::Guard guard(d, slot);
    EXPECT_NE(slot.pinned.load(), EpochDomain::kIdle);
  }
  EXPECT_EQ(slot.pinned.load(), EpochDomain::kIdle);
}

// The protocol the elastic service runs, in miniature: readers chase a
// published pointer under pins while a writer swaps it out, advances, and
// waits for quiescence before poisoning the old target. If quiescence were
// ever reported early, a reader would observe the poison value.
TEST(EpochDomain, SwapAdvanceQuiesceNeverFreesUnderAReader) {
  constexpr int kReaders = 3;
  constexpr int kSwaps = 200;
  EpochDomain d;
  struct Box {
    std::atomic<std::uint64_t> value{0};
  };
  std::vector<Box> boxes(kSwaps + 1);
  for (int i = 0; i <= kSwaps; ++i) boxes[i].value.store(1);
  std::atomic<Box*> published{&boxes[0]};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> poisoned_reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      EpochDomain::Slot& slot = d.register_thread();
      while (!stop.load(std::memory_order_relaxed)) {
        EpochDomain::Guard guard(d, slot);
        Box* box = published.load(std::memory_order_acquire);
        if (box->value.load(std::memory_order_relaxed) == 0xDEAD) {
          poisoned_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 1; i <= kSwaps; ++i) {
    Box* old = published.exchange(&boxes[i], std::memory_order_acq_rel);
    const std::uint64_t e = d.advance();
    while (!d.quiesced(e)) std::this_thread::yield();
    old->value.store(0xDEAD, std::memory_order_relaxed);  // "free"
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(poisoned_reads.load(), 0u);
}

TEST(EpochDomain, SlotsAreRegisteredPerCall) {
  EpochDomain d;
  EXPECT_EQ(d.slots(), 0u);
  EpochDomain::Slot& a = d.register_thread();
  EpochDomain::Slot& b = d.register_thread();
  EXPECT_EQ(d.slots(), 2u);
  EXPECT_NE(&a, &b);

  // Retire and reuse: a retired (idle) slot goes to the next registrant
  // instead of a new allocation, and it pins and blocks like a new one.
  { EpochDomain::Guard guard(d, a); }
  d.retire(a);
  EXPECT_TRUE(d.quiesced(d.advance())) << "a retired slot blocked an epoch";
  EpochDomain::Slot& c = d.register_thread();
  EXPECT_EQ(&c, &a) << "the retired slot was not reused";
  EXPECT_EQ(d.slots(), 2u);
  const std::uint64_t e = d.current();
  {
    EpochDomain::Guard guard(d, c);
    EXPECT_FALSE(d.quiesced(d.advance())) << "the reused slot's pin was missed";
  }
  EXPECT_TRUE(d.quiesced(e + 1));

  // Sequential threads each register, pin and retire: one slot serves
  // them all.
  d.retire(b);
  d.retire(c);
  for (int t = 0; t < 50; ++t) {
    std::thread([&d] {
      EpochDomain::Slot& slot = d.register_thread();
      { EpochDomain::Guard guard(d, slot); }
      d.retire(slot);
    }).join();
  }
  EXPECT_EQ(d.slots(), 2u);
  EXPECT_TRUE(d.quiesced(d.advance()));
}

}  // namespace
}  // namespace loren
