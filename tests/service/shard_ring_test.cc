/**
 * @file
 * ShardRing unit tests on the ring alone: reserved spans that wrap at
 * the end of the storage, all-or-nothing and partial takes, flush,
 * positions that keep counting across a resize, and a hammer of
 * consumers racing one producer that flushes and resizes. The
 * service-level contract (the ring inside EntropyService, raced by
 * the refill producer, migration, retune and quarantine) is
 * lockfree_ring_test.cc's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/thread_annotations.hh"
#include "service/shard_ring.hh"

namespace quac::service
{
namespace
{

/** The test producer's byte at stream position @p pos: neighbours
 * step by 151, so any contiguous slice is checkable on its own. */
uint8_t
streamByte(uint64_t pos)
{
    return static_cast<uint8_t>(151 * pos);
}

/** Reserve @p n bytes, write the stream from @p pos on into them
 * (advancing @p pos), and publish them. Returns the spans. */
ShardRing::Spans
produce(ShardRing &ring, uint64_t &pos, size_t n)
{
    ShardRing::Spans spans = ring.reserve(n);
    for (std::span<uint8_t> span : {spans.first, spans.second}) {
        for (uint8_t &byte : span)
            byte = streamByte(pos++);
    }
    ring.publish(n);
    return spans;
}

/** Are the @p len bytes at @p bytes the stream from @p pos on? */
bool
isStreamAt(const uint8_t *bytes, size_t len, uint64_t pos)
{
    for (size_t i = 0; i < len; ++i) {
        if (bytes[i] != streamByte(pos + i))
            return false;
    }
    return true;
}

/** Is @p len bytes at @p bytes some contiguous slice of the stream? */
bool
isStreamContiguous(const uint8_t *bytes, size_t len)
{
    for (size_t i = 1; i < len; ++i) {
        if (static_cast<uint8_t>(bytes[i] - bytes[i - 1]) != 151)
            return false;
    }
    return true;
}

TEST(ShardRing, ReserveWrapsTakeAndFlush)
{
    constexpr size_t kSize = 16;
    ShardRing ring;
    ring.resize(kSize);
    uint64_t written = 0;
    uint8_t out[32];

    ShardRing::Spans spans = produce(ring, written, 10);
    EXPECT_EQ(spans.first.size(), 10u);
    EXPECT_TRUE(spans.second.empty());
    EXPECT_EQ(ring.take(out, 6, false), 6u);
    EXPECT_TRUE(isStreamAt(out, 6, 0));

    // Positions 10..19 cross the end of the storage: the second span
    // continues at its start.
    spans = produce(ring, written, 10);
    EXPECT_EQ(spans.first.size(), 6u);
    EXPECT_EQ(spans.second.size(), 4u);
    EXPECT_EQ(spans.first.data() - spans.second.data(), 10);
    EXPECT_EQ(ring.level(), 14u);

    // All-or-nothing refuses a short claim; a partial take returns
    // what is there, in order across the wrap.
    EXPECT_EQ(ring.take(out, 15, true), 0u);
    EXPECT_EQ(ring.level(), 14u);
    EXPECT_EQ(ring.take(out, 20, false), 14u);
    EXPECT_TRUE(isStreamAt(out, 14, 6));
    EXPECT_EQ(ring.level(), 0u);
    EXPECT_EQ(ring.take(out, 1, false), 0u);

    // Flush drops exactly the unclaimed bytes.
    produce(ring, written, 12);
    EXPECT_EQ(ring.take(out, 5, true), 5u);
    EXPECT_TRUE(isStreamAt(out, 5, 20));
    EXPECT_EQ(ring.flush(), 7u);
    EXPECT_EQ(ring.level(), 0u);
    EXPECT_EQ(ring.flush(), 0u);
    EXPECT_EQ(ring.take(out, 1, false), 0u);

    // level() reaches the storage size and never passes it: a full
    // ring refuses to reserve more.
    produce(ring, written, kSize);
    EXPECT_EQ(ring.level(), kSize);
    EXPECT_THROW(ring.reserve(1), PanicError);
    EXPECT_EQ(ring.take(out, kSize, true), kSize);
    EXPECT_TRUE(isStreamAt(out, kSize, 32));
}

TEST(ShardRing, ResizeKeepsCountingPositions)
{
    ShardRing ring;
    ring.resize(16);
    uint64_t written = 0;
    uint8_t out[32];
    produce(ring, written, 10);
    EXPECT_EQ(ring.take(out, 10, true), 10u);
    produce(ring, written, 3);
    EXPECT_EQ(ring.flush(), 3u);

    // Position 13 lands at offset 13 of a 24-byte storage, so a
    // 20-byte reserve wraps after 11 bytes; had the positions
    // restarted at 0 it would not wrap at all.
    ring.resize(24);
    ShardRing::Spans spans = produce(ring, written, 20);
    EXPECT_EQ(spans.first.size(), 11u);
    EXPECT_EQ(spans.second.size(), 9u);
    EXPECT_EQ(ring.level(), 20u);
    EXPECT_EQ(ring.take(out, 20, true), 20u);
    EXPECT_TRUE(isStreamAt(out, 20, 13));

    // Only an empty ring may be resized; shrinking works the same.
    produce(ring, written, 1);
    EXPECT_THROW(ring.resize(8), PanicError);
    EXPECT_EQ(ring.take(out, 1, true), 1u);
    ring.resize(8);
    spans = produce(ring, written, 8); // positions 34..41
    EXPECT_EQ(spans.first.size(), 6u);
    EXPECT_EQ(spans.second.size(), 2u);
    EXPECT_EQ(ring.take(out, 8, true), 8u);
    EXPECT_TRUE(isStreamAt(out, 8, 34));
}

TEST(ShardRing, HammerConsumersAgainstProducerFlushAndResize)
{
    // Storage sizes that are not multiples of 256, so a copy from the
    // wrong lap breaks the stream's step.
    constexpr size_t kSizes[] = {250, 333, 97};
    constexpr int kConsumers = 3;
    constexpr uint64_t kSteps = 30000;
    ShardRing ring;
    // Serializes the producer side, as Shard::mutex does in the
    // service; every 16th take runs under it too, like a miss.
    Mutex producer;
    size_t size = kSizes[0];
    ring.resize(size);

    std::atomic<bool> done{false};
    std::atomic<int> errors{0};
    std::atomic<uint64_t> taken{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&, c] {
            std::vector<uint8_t> buf(96);
            for (uint64_t i = 0; !done.load(); ++i) {
                size_t len = 1 + (i * 7 + c * 13) % buf.size();
                bool all_or_nothing = (i + c) % 2 == 0;
                size_t got;
                if (i % 16 == 0) {
                    MutexLock lock(producer);
                    got = ring.take(buf.data(), len, all_or_nothing);
                } else {
                    got = ring.take(buf.data(), len, all_or_nothing);
                }
                bool short_claim = all_or_nothing && got != 0 &&
                                   got != len;
                if (got > len || short_claim ||
                    !isStreamContiguous(buf.data(), got))
                    errors.fetch_add(1);
                taken.fetch_add(got);
                if (got == 0)
                    std::this_thread::yield();
            }
        });
    }

    uint64_t published = 0;
    uint64_t flushed = 0;
    for (uint64_t step = 0; step < kSteps; ++step) {
        MutexLock lock(producer);
        if (step % 89 == 88)
            flushed += ring.flush();
        if (step % 997 == 996) {
            flushed += ring.flush();
            size = kSizes[(step / 997) % 3];
            ring.resize(size);
        }
        // Consumers only ever lower the level, so this room holds
        // until the publish.
        size_t n = std::min<size_t>(1 + step % 64, size - ring.level());
        if (n > 0) {
            produce(ring, published, n);
        } else {
            lock.unlock();
            std::this_thread::yield();
        }
    }
    done.store(true);
    for (std::thread &consumer : consumers)
        consumer.join();

    EXPECT_EQ(errors.load(), 0);
    EXPECT_GT(taken.load(), 0u);
    EXPECT_EQ(published, taken.load() + flushed + ring.level());
}

} // namespace
} // namespace quac::service
