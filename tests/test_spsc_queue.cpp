// Tests for the wait-free SPSC queue — including a true concurrent
// producer/consumer stress test (the queue's contract beyond the builder's
// barrier-separated use).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "concurrent/spsc_queue.hpp"
#include "util/fault_injection.hpp"

namespace wfbn {
namespace {

TEST(SpscQueue, StartsEmpty) {
  SpscQueue<std::uint64_t> queue;
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_EQ(queue.pushed(), 0u);
}

TEST(SpscQueue, FifoWithinOneChunk) {
  SpscQueue<std::uint64_t> queue;
  for (std::uint64_t i = 0; i < 100; ++i) queue.push(i);
  EXPECT_EQ(queue.pushed(), 100u);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, FifoAcrossChunkBoundaries) {
  // Small chunks force many chunk transitions.
  SpscQueue<std::uint64_t, 4> queue;
  constexpr std::uint64_t kCount = 1000;
  for (std::uint64_t i = 0; i < kCount; ++i) queue.push(i);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    ASSERT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(SpscQueue, InterleavedPushPop) {
  SpscQueue<std::uint64_t, 8> queue;
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::uint64_t out = 0;
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 3; ++i) queue.push(next_push++);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      ASSERT_EQ(out, next_pop++);
    }
  }
  while (queue.try_pop(out)) {
    ASSERT_EQ(out, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscQueue, EmptyReflectsConsumerView) {
  SpscQueue<std::uint64_t, 4> queue;
  EXPECT_TRUE(queue.empty());
  queue.push(1);
  EXPECT_FALSE(queue.empty());
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());
  // Fill exactly one chunk, drain it, then cross into the next.
  for (std::uint64_t i = 0; i < 4; ++i) queue.push(i);
  queue.push(99);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, StoresArbitraryTrivialTypes) {
  struct Item {
    std::uint32_t a;
    float b;
  };
  SpscQueue<Item> queue;
  queue.push(Item{7, 2.5f});
  Item out{};
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.a, 7u);
  EXPECT_FLOAT_EQ(out.b, 2.5f);
}

TEST(SpscQueue, ConcurrentProducerConsumerDeliversEverythingInOrder) {
  SpscQueue<std::uint64_t, 256> queue;
  constexpr std::uint64_t kCount = 2000000;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) queue.push(i);
  });

  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (expected < kCount) {
    if (queue.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_EQ(queue.pushed(), kCount);
}

TEST(SpscQueueBulk, PushBlockRoundTripsAcrossChunkBoundaries) {
  SpscQueue<std::uint64_t, 4> queue;
  constexpr std::uint64_t kCount = 1003;  // deliberately not a chunk multiple
  std::vector<std::uint64_t> items(kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) items[i] = i;
  queue.push_block(items.data(), items.size());
  EXPECT_EQ(queue.pushed(), kCount);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    ASSERT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueueBulk, PushBlockOfZeroItemsIsANoOp) {
  SpscQueue<std::uint64_t, 4> queue;
  const std::uint64_t sentinel = 7;
  queue.push_block(&sentinel, 0);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pushed(), 0u);
}

TEST(SpscQueueBulk, ConsumeDeliversWholeSpansInFifoOrder) {
  SpscQueue<std::uint64_t, 8> queue;
  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) queue.push(i);
  std::vector<std::uint64_t> seen;
  std::size_t spans = 0;
  const std::size_t consumed = queue.consume([&](const std::uint64_t* span,
                                                 std::size_t count) {
    ++spans;
    EXPECT_LE(count, queue.chunk_capacity());
    seen.insert(seen.end(), span, span + count);
  });
  EXPECT_EQ(consumed, kCount);
  // One span per chunk: 100 items over capacity-8 chunks is 13 spans.
  EXPECT_EQ(spans, (kCount + 7) / 8);
  ASSERT_EQ(seen.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.consume([](const std::uint64_t*, std::size_t) {}), 0u);
}

TEST(SpscQueueBulk, BulkAndScalarApisInteroperate) {
  SpscQueue<std::uint64_t, 4> queue;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> block(6);
  // Alternate scalar pushes with bulk blocks; FIFO must hold across both.
  for (int round = 0; round < 50; ++round) {
    queue.push(next++);
    for (auto& item : block) item = next++;
    queue.push_block(block.data(), block.size());
  }
  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  // Drain alternating between the scalar and bulk consumer.
  while (expected < next) {
    if (expected % 2 == 0) {
      ASSERT_TRUE(queue.try_pop(out));
      ASSERT_EQ(out, expected++);
    } else {
      queue.consume([&](const std::uint64_t* span, std::size_t count) {
        for (std::size_t k = 0; k < count; ++k) ASSERT_EQ(span[k], expected++);
      });
    }
  }
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueueBulk, ThrowingConsumerRedeliversTheSpan) {
  SpscQueue<std::uint64_t, 8> queue;
  for (std::uint64_t i = 0; i < 5; ++i) queue.push(i);
  EXPECT_THROW(queue.consume([](const std::uint64_t*, std::size_t) {
    throw std::runtime_error("mid-drain failure");
  }),
               std::runtime_error);
  // Nothing was marked consumed: the same span arrives again.
  std::vector<std::uint64_t> seen;
  queue.consume([&](const std::uint64_t* span, std::size_t count) {
    seen.insert(seen.end(), span, span + count);
  });
  ASSERT_EQ(seen.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(seen[i], i);
}

TEST(SpscQueueBulk, ThrowMidBlockKeepsThePublishedPrefix) {
  SpscQueue<std::uint64_t, 8> queue;
  std::vector<std::uint64_t> items(20);
  for (std::uint64_t i = 0; i < items.size(); ++i) items[i] = i;
  queue.push_block(items.data(), 5);

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kSpscChunkAlloc, 1);
  // Items 5..7 fill the first chunk; item 8 needs a fresh chunk, whose
  // allocation throws with 7 items of the block still unpublished.
  EXPECT_THROW(queue.push_block(items.data() + 5, 10), InjectedFault);
  EXPECT_EQ(fault::hits(fault::Point::kSpscChunkAlloc), 1u);
  EXPECT_EQ(queue.pushed(), 8u);
  std::vector<std::uint64_t> seen;
  queue.consume([&](const std::uint64_t* span, std::size_t count) {
    seen.insert(seen.end(), span, span + count);
  });
  EXPECT_EQ(seen, std::vector<std::uint64_t>(items.begin(), items.begin() + 8));
  EXPECT_TRUE(queue.empty());

  // Both ends stay valid: the queue keeps working once the fault is gone.
  fault::reset();
  queue.push_block(items.data() + 8, 12);
  seen.clear();
  queue.consume([&](const std::uint64_t* span, std::size_t count) {
    seen.insert(seen.end(), span, span + count);
  });
  EXPECT_EQ(seen, std::vector<std::uint64_t>(items.begin() + 8, items.end()));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pushed(), 20u);
}

TEST(SpscQueueBulk, ConcurrentBulkProducerAndConsumerDeliverEverythingInOrder) {
  // The builders' usage pattern under TSan: producer flushes variable-sized
  // blocks (write-combining buffers), consumer drains whole published spans.
  SpscQueue<std::uint64_t, 256> queue;
  constexpr std::uint64_t kCount = 1000000;

  std::thread producer([&] {
    std::vector<std::uint64_t> block;
    block.reserve(97);
    std::uint64_t next = 0;
    while (next < kCount) {
      // Vary the flush size across chunk-boundary phases (97 is coprime with
      // the chunk capacity, so every offset within a chunk gets exercised).
      const std::uint64_t take = std::min<std::uint64_t>(97, kCount - next);
      block.clear();
      for (std::uint64_t i = 0; i < take; ++i) block.push_back(next++);
      queue.push_block(block.data(), block.size());
    }
  });

  std::uint64_t expected = 0;
  while (expected < kCount) {
    const std::size_t got =
        queue.consume([&](const std::uint64_t* span, std::size_t count) {
          for (std::size_t k = 0; k < count; ++k) {
            ASSERT_EQ(span[k], expected);
            ++expected;
          }
        });
    if (got == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pushed(), kCount);
}

TEST(SpscQueue, DestructorReleasesUnconsumedChunks) {
  // Leak-checked implicitly under ASan builds; here we just exercise the
  // path where many chunks are still linked at destruction.
  auto queue = std::make_unique<SpscQueue<std::uint64_t, 16>>();
  for (std::uint64_t i = 0; i < 10000; ++i) queue->push(i);
  std::uint64_t out = 0;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(queue->try_pop(out));
  queue.reset();
  SUCCEED();
}

}  // namespace
}  // namespace wfbn
