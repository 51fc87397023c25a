/**
 * @file
 * Tests for the sharded multi-client entropy service: deterministic
 * replay across serial and concurrent schedules, watermark and
 * backpressure edge cases, priority classes, budgeted refill,
 * concurrent drain during background refill, the refill producer's
 * demand wake-up and per-chunk lock holds, and service totals that
 * outlive their client handles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/parallel.hh"
#include "core/fault_injection.hh"
#include "service/entropy_service.hh"

namespace quac::service
{
namespace
{

/**
 * Deterministic backend whose byte stream is a pure function of its
 * tag and stream position: byte k = tag + 151 * k. Distinct tags
 * yield distinct streams, so cross-shard mixups are detectable.
 */
class TaggedTrng : public core::Trng
{
  public:
    explicit TaggedTrng(uint8_t tag, size_t chunk = 0)
        : tag_(tag), chunk_(chunk)
    {
    }

    std::string name() const override { return "tagged"; }

    void
    fill(uint8_t *out, size_t len) override
    {
        for (size_t i = 0; i < len; ++i) {
            out[i] = static_cast<uint8_t>(tag_ + 151 * counter_);
            ++counter_;
        }
        ++fills_;
    }

    size_t preferredChunkBytes() override { return chunk_; }

    /** Expected byte at stream position @p k for tag @p tag. */
    static uint8_t
    expected(uint8_t tag, uint64_t k)
    {
        return static_cast<uint8_t>(tag + 151 * k);
    }

    uint64_t fills() const { return fills_; }

  private:
    uint8_t tag_;
    size_t chunk_;
    uint64_t counter_ = 0;
    uint64_t fills_ = 0;
};

/** Assert @p bytes is the contiguous tag stream starting at @p from. */
void
expectStreamContinuity(const std::vector<uint8_t> &bytes, uint8_t tag,
                       uint64_t from = 0)
{
    for (size_t i = 0; i < bytes.size(); ++i) {
        ASSERT_EQ(bytes[i], TaggedTrng::expected(tag, from + i))
            << "position " << i;
    }
}

TEST(EntropyService, ShardsPinToBackendsAndStayContinuous)
{
    TaggedTrng b0(10, 32);
    TaggedTrng b1(20, 32);
    EntropyService service({&b0, &b1},
                           {.shardCapacityBytes = 128,
                            .refillWatermark = 0.5});
    ASSERT_EQ(service.shardCount(), 2u);

    service.refillBelowWatermark();
    EXPECT_EQ(service.level(0), 128u);
    EXPECT_EQ(service.level(1), 128u);

    auto c0 = service.connect("a", Priority::Standard, 0);
    auto c1 = service.connect("b", Priority::Standard, 1);
    std::vector<uint8_t> s0 = c0.request(200); // 128 buffered + 72 sync
    std::vector<uint8_t> s1 = c1.request(40);
    expectStreamContinuity(s0, 10);
    expectStreamContinuity(s1, 20);
    EXPECT_EQ(c0.stats().synchronousFills, 1u);
    EXPECT_EQ(c1.stats().bufferHits, 1u);
}

TEST(EntropyService, RoundRobinShardAssignment)
{
    TaggedTrng b0(1);
    TaggedTrng b1(2);
    EntropyService service({&b0, &b1}, {.shardCapacityBytes = 64});
    auto c0 = service.connect("c0");
    auto c1 = service.connect("c1");
    auto c2 = service.connect("c2");
    EXPECT_EQ(c0.shard(), 0u);
    EXPECT_EQ(c1.shard(), 1u);
    EXPECT_EQ(c2.shard(), 0u);
    EXPECT_EQ(c0.name(), "c0");
    EXPECT_EQ(c2.priority(), Priority::Standard);
}

/**
 * The service totals live in the shards, not in the client handles:
 * every outcome a client produced still counts once all its handles
 * are gone. The denial comes through serveInto's no-throw path — a
 * permanently failing backend makes the health-off sync fill rethrow
 * after its retries, and serveInto turns that into a counted denial.
 */
TEST(EntropyService, TotalsOutliveClientHandles)
{
    TaggedTrng healthy(7, 32);
    TaggedTrng inner(8, 32);
    core::FaultSpec fault;
    fault.mode = core::FaultMode::ReadFailure; // lengthBytes 0: forever
    core::FaultInjectedTrng failing(inner, fault);
    EntropyService service({&healthy, &failing},
                           {.shardCapacityBytes = 128,
                            .refillWatermark = 1.0});
    uint8_t out[256];
    {
        auto standard = service.connect("std", Priority::Standard, 0);
        // Unrefilled shard: a synchronous fill.
        EXPECT_FALSE(standard.request(out, 64).hit);
        service.refillTick(1024, std::vector<size_t>{0});
        EXPECT_TRUE(standard.request(out, 64).hit);
        // More than the shard holds: bulk gets a partial answer.
        auto bulk = service.connect("bulk", Priority::Bulk, 0);
        RequestResult partial = bulk.request(out, sizeof(out));
        EXPECT_FALSE(partial.hit);
        EXPECT_LT(partial.bytes, sizeof(out));

        auto doomed = service.connect("doomed", Priority::Standard, 1);
        RequestResult denied = doomed.serveInto(out, 64);
        EXPECT_TRUE(denied.denied);
        EXPECT_EQ(denied.bytes, 0u);
        EXPECT_EQ(doomed.stats().requests, 1u);
        EXPECT_EQ(doomed.stats().denials, 1u);
    }
    EXPECT_EQ(service.requestsServed(), 4u);
    EXPECT_EQ(service.bufferHits(), 1u);
    EXPECT_EQ(service.synchronousFills(), 1u);
    EXPECT_EQ(service.denials(), 1u);
}

/**
 * With health monitoring off, a backend failure on a miss denies the
 * request as a failover that finds no servable bank does: the
 * buffered prefix the request already claimed is handed over and
 * counted, so the wire answers DENY_SERVICE with it instead of
 * losing it uncounted.
 */
TEST(EntropyService, ServeIntoDenialHandsOverBufferedPrefix)
{
    core::SoftwareTrng inner(61);
    core::FaultInjectedTrng failing(
        inner, core::FaultSpec::parse("0:fail:1024:0"));
    EntropyService service({&failing}, {.shardCapacityBytes = 1024});
    service.refillBelowWatermark();
    ASSERT_EQ(service.level(0), 1024u);

    auto client = service.connect("wire", Priority::Standard, 0);
    std::vector<uint8_t> out(1184);
    RequestResult denied = client.serveInto(out.data(), out.size());
    EXPECT_TRUE(denied.denied);
    EXPECT_EQ(denied.bytes, 1024u);
    EXPECT_EQ(denied.bytesFromBuffer, 1024u);
    EXPECT_EQ(service.level(0), 0u);
    core::SoftwareTrng reference(61);
    std::vector<uint8_t> head(1024);
    reference.fill(head.data(), head.size());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), out.begin()))
        << "the prefix is the head of the backend stream";

    ClientStats stats = client.stats();
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.denials, 1u);
    EXPECT_EQ(stats.bytesServed, 1024u);
    EXPECT_EQ(stats.bytesFromBuffer, 1024u);
    EXPECT_EQ(service.denials(), 1u);
    EXPECT_EQ(service.healthStats().refillFailures, 3u);

    // request() counts the same kind of denial, then rethrows.
    EXPECT_THROW(client.request(out.data(), 64),
                 core::TransientReadError);
    EXPECT_EQ(client.stats().denials, 2u);
    EXPECT_EQ(service.requestsServed(), 2u);
}

/**
 * The determinism contract: with one backend per shard, a given
 * per-shard request order delivers byte-identical client streams no
 * matter how requests and refills interleave across shards — the
 * shard buffer is a FIFO window over the backend stream, and
 * synchronous fills continue the same stream.
 */
TEST(EntropyService, DeterministicReplaySerialVsConcurrent)
{
    constexpr size_t nshards = 4;
    const std::vector<size_t> sizes = {1,  17, 64,  300, 5,
                                       96, 33, 128, 7,   250};

    auto run = [&](bool concurrent, bool auto_refill) {
        std::vector<TaggedTrng> backends;
        backends.reserve(nshards);
        for (size_t s = 0; s < nshards; ++s)
            backends.emplace_back(static_cast<uint8_t>(10 * (s + 1)),
                                  96);
        std::vector<core::Trng *> pool;
        for (auto &backend : backends)
            pool.push_back(&backend);

        EntropyService service(pool, {.shardCapacityBytes = 256,
                                      .refillWatermark = 0.5});
        if (auto_refill)
            service.startAutoRefill(std::chrono::microseconds(50));

        std::vector<EntropyService::Client> clients;
        for (size_t s = 0; s < nshards; ++s) {
            clients.push_back(service.connect(
                "client" + std::to_string(s), Priority::Standard, s));
        }

        std::vector<std::vector<uint8_t>> streams(nshards);
        auto drive = [&](size_t s) {
            std::vector<uint8_t> buf(512);
            for (size_t k = 0; k < sizes.size(); ++k) {
                RequestResult result =
                    clients[s].request(buf.data(), sizes[k]);
                ASSERT_EQ(result.bytes, sizes[k]);
                streams[s].insert(streams[s].end(), buf.begin(),
                                  buf.begin() +
                                      static_cast<ptrdiff_t>(sizes[k]));
                if (!auto_refill && k % 2 == 1)
                    service.refillBelowWatermark();
            }
        };
        if (concurrent)
            parallelFor(0, nshards, drive, nshards);
        else
            for (size_t s = 0; s < nshards; ++s)
                drive(s);
        service.stopAutoRefill();
        return streams;
    };

    auto serial = run(false, false);
    auto concurrent = run(true, false);
    auto racing_refill = run(true, true);
    for (size_t s = 0; s < nshards; ++s) {
        EXPECT_EQ(serial[s], concurrent[s]) << "shard " << s;
        EXPECT_EQ(serial[s], racing_refill[s]) << "shard " << s;
        expectStreamContinuity(serial[s],
                               static_cast<uint8_t>(10 * (s + 1)));
    }
}

TEST(EntropyService, RequestLargerThanCapacityFallsThrough)
{
    TaggedTrng backend(5);
    EntropyService service({&backend}, {.shardCapacityBytes = 32,
                                        .refillWatermark = 0.5});
    service.refillBelowWatermark();
    auto client = service.connect("big");
    std::vector<uint8_t> bytes = client.request(100);
    ASSERT_EQ(bytes.size(), 100u);
    expectStreamContinuity(bytes, 5);
    EXPECT_EQ(service.level(0), 0u);
    EXPECT_EQ(client.stats().bytesFromBuffer, 32u);
    EXPECT_EQ(client.stats().bytesSynchronous, 68u);
}

TEST(EntropyService, UnrefilledServiceIsPassThrough)
{
    // A service nobody refills serves every request synchronously,
    // straight off the backend stream (the zero-buffer degenerate
    // mode; a zero *capacity* is rejected as a config error).
    TaggedTrng backend(9, 64);
    EntropyService service({&backend}, {.shardCapacityBytes = 64});
    auto client = service.connect("raw");
    std::vector<uint8_t> bytes = client.request(50);
    expectStreamContinuity(bytes, 9);
    EXPECT_EQ(service.level(0), 0u);
    EXPECT_EQ(client.stats().bufferHits, 0u);
    EXPECT_EQ(client.stats().synchronousFills, 1u);
}

TEST(EntropyService, BulkClassGetsBackpressureNotGeneratorTime)
{
    TaggedTrng backend(7);
    EntropyService service({&backend}, {.shardCapacityBytes = 64,
                                        .refillWatermark = 1.0});
    service.refillBelowWatermark();
    auto bulk = service.connect("bulk", Priority::Bulk);

    uint8_t buf[128];
    RequestResult first = bulk.request(buf, 40);
    EXPECT_TRUE(first.hit);
    ASSERT_EQ(first.bytes, 40u);

    // Only 24 bytes left: a bulk request gets a partial result and
    // the generator is NOT run synchronously.
    uint64_t fills_before = backend.fills();
    RequestResult second = bulk.request(buf, 40);
    EXPECT_FALSE(second.hit);
    EXPECT_FALSE(second.denied);
    EXPECT_EQ(second.bytes, 24u);
    EXPECT_EQ(backend.fills(), fills_before);
    EXPECT_EQ(bulk.stats().partialServes, 1u);

    // After a refill the remainder is served.
    service.refillBelowWatermark();
    EXPECT_TRUE(bulk.request(buf, 16).hit);
}

TEST(EntropyService, WatermarkGatesRefillAndChunksRoundUp)
{
    TaggedTrng backend(11, 48);
    EntropyService service({&backend}, {.shardCapacityBytes = 100,
                                        .refillWatermark = 0.25});
    // Empty: 100 wanted -> 3 whole 48-byte chunks.
    EXPECT_EQ(service.refillDemand().bytes, 144u);
    EXPECT_EQ(service.refillBelowWatermark(), 144u);
    EXPECT_EQ(service.level(0), 144u);

    auto client = service.connect("c");
    uint8_t buf[256];
    client.request(buf, 110); // level 34 > 25: no refill
    EXPECT_EQ(service.refillBelowWatermark(), 0u);
    client.request(buf, 14); // level 20 <= 25: refill
    EXPECT_EQ(service.refillBelowWatermark(), 96u);
    EXPECT_EQ(service.level(0), 116u);
}

/** TaggedTrng that counts preferredChunkBytes() queries. */
class ChunkProbeTrng : public TaggedTrng
{
  public:
    ChunkProbeTrng() : TaggedTrng(7, 16) {}

    size_t
    preferredChunkBytes() override
    {
        ++chunkQueries_;
        return TaggedTrng::preferredChunkBytes();
    }

    uint64_t chunkQueries() const { return chunkQueries_; }

  private:
    uint64_t chunkQueries_ = 0;
};

TEST(EntropyService, ChunkQueryDeferredToFirstRefill)
{
    // preferredChunkBytes() may run the backend's one-time
    // characterization (QuacTrng::setup). Neither construction nor a
    // synchronous miss may trigger it, so callers can still adjust
    // module state before the first refill.
    ChunkProbeTrng backend;
    EntropyService service({&backend}, {.shardCapacityBytes = 64,
                                        .refillWatermark = 0.5});
    EXPECT_EQ(backend.chunkQueries(), 0u);
    auto client = service.connect("lazy");
    uint8_t buf[8];
    client.request(buf, sizeof(buf));
    EXPECT_EQ(backend.chunkQueries(), 0u);
    service.refillBelowWatermark();
    EXPECT_GT(backend.chunkQueries(), 0u);
}

TEST(EntropyService, StreamIdenticalToUnbufferedSource)
{
    // Ten refill/request cycles wrap a one-shard ring several times;
    // buffering must not reorder or drop any backend byte.
    TaggedTrng buffered_source(4);
    TaggedTrng direct_source(4);
    EntropyService service({&buffered_source},
                           {.shardCapacityBytes = 128,
                            .refillWatermark = 0.5});
    auto client = service.connect("one");
    std::vector<uint8_t> via_service;
    for (int i = 0; i < 10; ++i) {
        service.refillBelowWatermark();
        std::vector<uint8_t> chunk = client.request(size_t{37});
        via_service.insert(via_service.end(), chunk.begin(),
                           chunk.end());
    }
    std::vector<uint8_t> direct(via_service.size());
    direct_source.fill(direct.data(), direct.size());
    EXPECT_EQ(via_service, direct);
    EXPECT_EQ(via_service.size(), 370u);
}

TEST(EntropyService, RefillTickSpendsBudgetMostDrainedFirst)
{
    TaggedTrng b0(1, 32);
    TaggedTrng b1(2, 32);
    EntropyService service({&b0, &b1}, {.shardCapacityBytes = 128,
                                        .refillWatermark = 1.0});
    service.refillBelowWatermark();
    auto c0 = service.connect("c0", Priority::Standard, 0);
    auto c1 = service.connect("c1", Priority::Standard, 1);
    uint8_t buf[128];
    c0.request(buf, 128); // shard 0 empty
    c1.request(buf, 64);  // shard 1 at 64

    // 96 bytes of budget go to shard 0 (the most drained), three
    // whole chunks, leaving nothing for shard 1.
    EXPECT_EQ(service.refillTick(96), 96u);
    EXPECT_EQ(service.level(0), 96u);
    EXPECT_EQ(service.level(1), 64u);

    // An unbounded tick tops the rest up.
    EXPECT_EQ(service.refillTick(~size_t{0}), 32u + 64u);
    EXPECT_EQ(service.level(0), 128u);
    EXPECT_EQ(service.level(1), 128u);

    // Streams stayed continuous throughout.
    auto s0 = c0.request(size_t{128});
    expectStreamContinuity(s0, 1, 128);
}

TEST(EntropyService, UrgentDemandTracksPanicWatermark)
{
    TaggedTrng b0(1);
    TaggedTrng b1(2);
    EntropyService service({&b0, &b1}, {.shardCapacityBytes = 100,
                                        .refillWatermark = 0.5,
                                        .panicWatermark = 0.125});
    service.refillBelowWatermark();
    auto c0 = service.connect("c0", Priority::Standard, 0);
    auto c1 = service.connect("c1", Priority::Standard, 1);
    uint8_t buf[128];
    c0.request(buf, 95); // level 5 <= 12.5: panic
    c1.request(buf, 60); // level 40 <= 50: refill, not panic
    EntropyService::RefillDemand demand = service.refillDemand();
    EXPECT_EQ(demand.bytes, 95u + 60u);
    EXPECT_EQ(demand.urgentBytes, 95u);
}

TEST(EntropyService, ConcurrentDrainDuringBackgroundRefill)
{
    TaggedTrng backend(42, 64);
    EntropyService service({&backend}, {.shardCapacityBytes = 1024,
                                        .refillWatermark = 0.9});
    service.startAutoRefill(std::chrono::microseconds(20));
    auto client = service.connect("drain");

    std::vector<uint8_t> stream;
    uint8_t buf[96];
    for (int i = 0; i < 3000; ++i) {
        size_t len = 1 + static_cast<size_t>(i * 31 % 96);
        RequestResult result = client.request(buf, len);
        ASSERT_EQ(result.bytes, len);
        stream.insert(stream.end(), buf, buf + len);
    }

    // Under a loaded machine the refill thread may not have run at
    // all yet; give it bounded time to prove it tops the service up
    // (once the drain stops, the level only rises).
    for (int spin = 0;
         spin < 5000 && service.level(0) < sizeof(buf); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.stopAutoRefill();
    EXPECT_GT(service.bytesRefilled(), 0u);

    // No byte was lost, duplicated, or reordered by the racing
    // refill thread: the client saw the exact backend stream...
    expectStreamContinuity(stream, 42);
    // ...and the stream continues seamlessly from the warm buffer.
    ASSERT_GE(service.level(0), sizeof(buf));
    RequestResult last = client.request(buf, sizeof(buf));
    EXPECT_TRUE(last.hit);
    stream.insert(stream.end(), buf, buf + sizeof(buf));
    expectStreamContinuity(stream, 42);
}

TEST(EntropyService, ProducerWakesOnDemand)
{
    // The request that leaves a shard at or below the watermark wakes
    // the sleeping producer; the period (10 s) is only its longest
    // sleep.
    TaggedTrng backend(77, 64);
    EntropyService service({&backend}, {.shardCapacityBytes = 4096,
                                        .refillWatermark = 0.5});
    service.refillBelowWatermark();
    ASSERT_EQ(service.level(0), 4096u);
    service.startAutoRefill(std::chrono::seconds(10));
    // Nothing to do: give the producer time to fall asleep.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    auto client = service.connect("drain");
    std::vector<uint8_t> bytes = client.request(3000); // level 1096
    ASSERT_EQ(bytes.size(), 3000u);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (service.level(0) < 4096 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(service.level(0), 4096u);
    service.stopAutoRefill();

    // The refill continues the stream the request drained.
    std::vector<uint8_t> more = client.request(4096);
    bytes.insert(bytes.end(), more.begin(), more.end());
    expectStreamContinuity(bytes, 77);
}

/** A TaggedTrng that sleeps per started chunk of each fill, so the
 * time a lock is held while generating shows in wall time. */
class SlowTrng : public TaggedTrng
{
  public:
    SlowTrng(uint8_t tag, size_t chunk,
             std::chrono::milliseconds per_chunk)
        : TaggedTrng(tag, chunk), chunk_(chunk), perChunk_(per_chunk)
    {
    }

    void
    fill(uint8_t *out, size_t len) override
    {
        started_.fetch_add(1);
        std::this_thread::sleep_for(perChunk_ *
                                    ((len + chunk_ - 1) / chunk_));
        TaggedTrng::fill(out, len);
    }

    /** Fill calls begun so far. */
    uint64_t started() const { return started_.load(); }

  private:
    size_t chunk_;
    std::chrono::milliseconds perChunk_;
    std::atomic<uint64_t> started_{0};
};

TEST(EntropyService, MissWaitsForOneChunkNotTheTopUp)
{
    // The producer tops an empty shard up one chunk per lock hold: a
    // miss that arrives mid-top-up waits for the chunk in flight,
    // then fills its own remainder, instead of waiting for all 64
    // chunks of the deficit.
    constexpr auto kPerChunk = std::chrono::milliseconds(4);
    SlowTrng backend(33, 64, kPerChunk);
    EntropyService service({&backend}, {.shardCapacityBytes = 4096,
                                        .refillWatermark = 0.5});
    auto client = service.connect("miss");
    service.startAutoRefill(std::chrono::milliseconds(1));
    while (backend.started() == 0)
        std::this_thread::yield();

    // Four chunks' worth, more than the shard holds: a miss.
    auto start = std::chrono::steady_clock::now();
    std::vector<uint8_t> bytes = client.request(256);
    auto waited = std::chrono::steady_clock::now() - start;
    service.stopAutoRefill();

    ASSERT_EQ(bytes.size(), 256u);
    expectStreamContinuity(bytes, 33);
    EXPECT_LT(waited, 16 * kPerChunk)
        << "the miss waited "
        << std::chrono::duration_cast<std::chrono::milliseconds>(waited)
               .count()
        << " ms";
}

TEST(EntropyService, SharedBackendShardsStayRaceFreeAndLossless)
{
    // More shards than backends: byte-to-shard assignment is
    // interleaving-dependent, but the union of all streams must be
    // the exact backend stream (no loss, no duplication).
    TaggedTrng backend(0, 0); // tag 0: byte k = 151 * k mod 256
    EntropyService service({&backend}, {.shards = 4,
                                        .shardCapacityBytes = 256,
                                        .refillWatermark = 0.5});
    std::vector<EntropyService::Client> clients;
    for (size_t s = 0; s < 4; ++s)
        clients.push_back(service.connect("c", Priority::Standard, s));

    std::vector<std::vector<uint8_t>> streams(4);
    parallelFor(0, 4, [&](size_t s) {
        uint8_t buf[128];
        for (int k = 0; k < 50; ++k) {
            size_t len = 1 + static_cast<size_t>((s * 37 + k * 13) % 128);
            clients[s].request(buf, len);
            streams[s].insert(streams[s].end(), buf, buf + len);
            if (k % 4 == 0)
                service.refillBelowWatermark();
        }
    }, 4);

    size_t produced = 0;
    for (const auto &stream : streams)
        produced += stream.size();
    size_t generated = service.totalLevel() + produced;
    // Every generated byte is either still buffered or was served.
    std::vector<uint64_t> seen(256, 0);
    for (const auto &stream : streams)
        for (uint8_t byte : stream)
            ++seen[byte];
    for (size_t i = 0; i < service.shardCount(); ++i) {
        auto rest = clients[i].request(service.level(i));
        for (uint8_t byte : rest)
            ++seen[byte];
    }
    std::vector<uint64_t> expected(256, 0);
    for (uint64_t k = 0; k < generated; ++k)
        ++expected[TaggedTrng::expected(0, k)];
    EXPECT_EQ(seen, expected);
}

TEST(EntropyService, RejectsBadConfig)
{
    TaggedTrng backend(1);
    EXPECT_THROW(EntropyService({}, {}), FatalError);
    EXPECT_THROW(EntropyService({nullptr}, {}), FatalError);
    EXPECT_THROW(EntropyService({&backend}, {.refillWatermark = 1.5}),
                 FatalError);
    EXPECT_THROW(EntropyService({&backend}, {.refillWatermark = 0.25,
                                             .panicWatermark = 0.5}),
                 FatalError);
    EXPECT_THROW(EntropyService({&backend}, {.shardCapacityBytes = 0}),
                 FatalError)
        << "zero-capacity shards have no buffer to serve from";
    EXPECT_THROW(
        EntropyService({&backend}, {.shardCapacityBytes = 16,
                                    .recentLatencyWindow = 0}),
        FatalError);
    EntropyService service({&backend}, {.shardCapacityBytes = 16});
    EXPECT_THROW(service.connect("oops", Priority::Standard, 3),
                 FatalError);
}

TEST(EntropyService, PriorityNames)
{
    EXPECT_STREQ(priorityName(Priority::Interactive), "interactive");
    EXPECT_STREQ(priorityName(Priority::Standard), "standard");
    EXPECT_STREQ(priorityName(Priority::Bulk), "bulk");
}

} // anonymous namespace
} // namespace quac::service
