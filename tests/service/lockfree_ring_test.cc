/**
 * @file
 * Lock-free request data plane tests: a pinned per-shard SHA replay
 * of one mixed serial schedule, and thread-sanitizer hammer tests
 * driving N consumers against the SPMC ring's producer, client
 * migration, retune flushes, and quarantine re-sourcing. The
 * hammers run under the regular build too (the invariant checks are
 * cheap); CI's TSan job is where they earn their keep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.hh"
#include "crypto/sha256.hh"
#include "service/entropy_service.hh"

namespace quac::service
{
namespace
{

/**
 * Deterministic backend whose byte stream is a pure function of its
 * tag and stream position: byte k = tag + 151 * k. Any contiguous
 * slice of any tag's stream steps by 151 between neighbouring bytes,
 * so per-request stream contiguity is checkable without knowing
 * which backend (or stream offset) served the request.
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
    }

    size_t preferredChunkBytes() override { return chunk_; }

    /** Bytes produced so far (read once every filler has stopped). */
    uint64_t produced() const { return counter_; }

  private:
    uint8_t tag_;
    size_t chunk_;
    uint64_t counter_ = 0;
};

/** Bytes within one request must step by 151 (see TaggedTrng). */
bool
isStreamContiguous(const uint8_t *bytes, size_t len)
{
    for (size_t i = 1; i < len; ++i) {
        if (static_cast<uint8_t>(bytes[i] - bytes[i - 1]) != 151)
            return false;
    }
    return true;
}

TEST(LockFreeRing, ScheduleStreamIsPinned)
{
    // One deterministic serial schedule: mixed classes and request
    // sizes (lock-free hits, bulk partials, misses), refills, a
    // migration and a retune flush. The SHA-256 over every client's
    // served bytes and hit/denied flags, in schedule order, pins the
    // per-shard streams; the full-mutex serving plane produced the
    // same digest and counters before it was deleted.
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    EntropyServiceConfig cfg;
    cfg.shards = 2;
    cfg.shardCapacityBytes = 256;
    EntropyService svc({&b0, &b1}, cfg);

    EntropyService::Client i0 =
        svc.connect("i0", Priority::Interactive, 0);
    EntropyService::Client s0 = svc.connect("s0", Priority::Standard, 0);
    EntropyService::Client k0 = svc.connect("k0", Priority::Bulk, 0);
    EntropyService::Client s1 =
        svc.connect("s1", Priority::Standard, 1);
    EntropyService::Client k1 = svc.connect("k1", Priority::Bulk, 1);

    Sha256 sha;
    std::vector<uint8_t> buf(2048);
    auto absorb = [&](EntropyService::Client &client, size_t len) {
        RequestResult res = client.request(buf.data(), len);
        sha.update(buf.data(), res.bytes);
        uint8_t meta[2] = {static_cast<uint8_t>(res.hit),
                           static_cast<uint8_t>(res.denied)};
        sha.update(meta, sizeof(meta));
    };

    svc.refillBelowWatermark();
    absorb(i0, 64);        // hit
    absorb(k0, 512);       // bulk partial (more than buffered)
    absorb(s0, 300);       // miss -> sync fill
    absorb(s1, 96);
    absorb(k1, 32);
    svc.migrateClient(s0, 1); // s0 now drains shard 1's stream
    absorb(s0, 64);
    svc.refillBelowWatermark();
    absorb(i0, 128);
    svc.retuneBackend(0, [] { return true; }); // flush shard 0
    absorb(i0, 48);        // post-flush miss
    svc.refillBelowWatermark();
    absorb(k0, 200);
    absorb(s1, 17);
    absorb(i0, 1);

    EXPECT_EQ(Sha256::hex(sha.finish()),
              "657707c9994849804c944c4a2848335d"
              "ea0bf1e9302749c92efb34c5b1e582f4");
    EXPECT_EQ(svc.requestsServed(), 11u);
    EXPECT_EQ(svc.bufferHits(), 8u);
    EXPECT_EQ(svc.synchronousFills(), 2u);
    EXPECT_EQ(svc.denials(), 0u);
}

TEST(LockFreeRing, HammerConsumersProducerAndMigration)
{
    TaggedTrng b0(30, 128);
    TaggedTrng b1(40, 128);
    EntropyServiceConfig cfg;
    cfg.shards = 2;
    cfg.shardCapacityBytes = 2048;
    EntropyService svc({&b0, &b1}, cfg);
    svc.startAutoRefill(std::chrono::microseconds(50));

    constexpr int kConsumers = 4;
    constexpr int kIterations = 1500;
    std::atomic<int> contiguityErrors{0};
    std::atomic<uint64_t> bytesSeen{0};

    std::vector<EntropyService::Client> clients;
    for (int c = 0; c < kConsumers; ++c) {
        clients.push_back(
            svc.connect("c" + std::to_string(c),
                        c % 2 ? Priority::Bulk : Priority::Standard,
                        c % 2));
    }
    EntropyService::Client roamer =
        svc.connect("roamer", Priority::Standard, 0);

    std::vector<std::thread> threads;
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&, c] {
            std::vector<uint8_t> buf(128);
            for (int iter = 0; iter < kIterations; ++iter) {
                size_t len = 48 + (7 * c + iter) % 64;
                RequestResult res =
                    clients[c].request(buf.data(), len);
                if (!isStreamContiguous(buf.data(), res.bytes))
                    contiguityErrors.fetch_add(1);
                bytesSeen.fetch_add(res.bytes);
            }
        });
    }
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(64);
        for (int iter = 0; iter < kIterations; ++iter) {
            RequestResult res = roamer.request(buf.data(), 40);
            if (!isStreamContiguous(buf.data(), res.bytes))
                contiguityErrors.fetch_add(1);
            bytesSeen.fetch_add(res.bytes);
        }
    });
    // Migration churn against the in-flight requests.
    for (int m = 0; m < 400; ++m) {
        svc.migrateClient(roamer, m % 2);
        std::this_thread::yield();
    }
    for (std::thread &thread : threads)
        thread.join();
    svc.stopAutoRefill();

    EXPECT_EQ(contiguityErrors.load(), 0);
    EXPECT_GT(bytesSeen.load(), 0u);

    // Byte conservation: everything the producer published was
    // either served from the buffer or still sits in a ring
    // (synchronous fills bypass the rings entirely).
    uint64_t from_buffer = roamer.stats().bytesFromBuffer;
    for (const EntropyService::Client &client : clients)
        from_buffer += client.stats().bytesFromBuffer;
    EXPECT_EQ(from_buffer + svc.totalLevel(), svc.bytesRefilled());
}

TEST(LockFreeRing, HammerQuarantineResourcingUnderLoad)
{
    // Bank 1 carries a bounded bias fault: the health monitor
    // quarantines it mid-run (flush + re-source race the consumers),
    // probation walks it past the fault, and the shard returns home.
    // Shard 0's bank stays healthy, so its requests must stay
    // stream-contiguous throughout; the tripwire must stay zero.
    TaggedTrng b0(50, 128);
    TaggedTrng b1_inner(60, 128);
    TaggedTrng b2(70, 128);
    core::FaultInjectedTrng b1(
        b1_inner, core::FaultSpec::parse("1:bias:0:2048:0.95"), 7);

    EntropyServiceConfig cfg;
    cfg.shards = 2;
    cfg.shardCapacityBytes = 1024;
    cfg.health.enabled = true;
    cfg.health.windowBits = 1024;
    cfg.health.probationWindows = 3;
    EntropyService svc({&b0, &b1, &b2}, cfg);

    std::atomic<int> contiguityErrors{0};
    std::atomic<bool> stop{false};
    EntropyService::Client c0 =
        svc.connect("c0", Priority::Standard, 0);
    EntropyService::Client c1a =
        svc.connect("c1a", Priority::Standard, 1);
    EntropyService::Client c1b = svc.connect("c1b", Priority::Bulk, 1);

    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(96);
        // relaxed: test stop flag; no data is published through it.
        while (!stop.load(std::memory_order_relaxed)) {
            RequestResult res = c0.request(buf.data(), 80);
            if (!isStreamContiguous(buf.data(), res.bytes))
                contiguityErrors.fetch_add(1);
        }
    });
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(96);
        while (!stop.load(std::memory_order_relaxed))
            c1a.request(buf.data(), 64);
    });
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(96);
        while (!stop.load(std::memory_order_relaxed))
            c1b.request(buf.data(), 96);
    });

    // The producer/health loop: refill + control-loop ticks racing
    // the consumers until the faulty bank has gone all the way to
    // quarantine and back home.
    for (int tick = 0; tick < 3000; ++tick) {
        svc.refillBelowWatermark();
        svc.healthTick();
        if (svc.healthStats().readmissions > 0 &&
            svc.shardBackendIndex(1) == 1 && tick > 50)
            break;
        std::this_thread::yield();
    }
    // relaxed: stop flag only; the joins below synchronize.
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(contiguityErrors.load(), 0);
    EntropyService::HealthStats stats = svc.healthStats();
    EXPECT_GE(stats.quarantines, 1u);
    EXPECT_EQ(stats.unhealthyBytesServed, 0u);
    EXPECT_GT(stats.unhealthyBytesDropped, 0u);
}

TEST(LockFreeRing, HammerProducerAgainstRetuneQuarantineAndMigration)
{
    // The refill producer against everything else at once: Standard
    // and Bulk consumers, migration churn, retune flushes, and a
    // bias-faulted bank (1) that the producer's own health ticks
    // quarantine, re-source (onto spare bank 3) and re-admit. Shard
    // 0's bank is healthy and sources only shard 0, so its requests
    // must stay stream-contiguous and every byte bank 0 produced
    // must be served, still buffered, or dropped by a retune.
    TaggedTrng b0(50, 64);
    TaggedTrng b1_inner(60, 64);
    TaggedTrng b2(70, 64);
    TaggedTrng b3(80, 64);
    core::FaultInjectedTrng b1(
        b1_inner, core::FaultSpec::parse("1:bias:0:2048:0.95"), 7);

    EntropyServiceConfig cfg;
    cfg.shards = 3;
    cfg.shardCapacityBytes = 1024;
    cfg.health.enabled = true;
    cfg.health.windowBits = 1024;
    cfg.health.probationWindows = 3;
    EntropyService svc({&b0, &b1, &b2, &b3}, cfg);
    svc.startAutoRefill(std::chrono::microseconds(100));

    std::vector<EntropyService::Client> shard0 = {
        svc.connect("s0", Priority::Standard, 0),
        svc.connect("k0", Priority::Bulk, 0)};
    EntropyService::Client s1 =
        svc.connect("s1", Priority::Standard, 1);
    EntropyService::Client k1 = svc.connect("k1", Priority::Bulk, 1);
    EntropyService::Client roamer =
        svc.connect("roamer", Priority::Standard, 2);

    std::atomic<int> contiguityErrors{0};
    std::atomic<bool> stop{false};
    auto drive = [&](EntropyService::Client &client, size_t len,
                     bool check) {
        std::vector<uint8_t> buf(len);
        // relaxed: test stop flag; no data is published through it.
        while (!stop.load(std::memory_order_relaxed)) {
            RequestResult res = client.request(buf.data(), len);
            if (check && !isStreamContiguous(buf.data(), res.bytes))
                contiguityErrors.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    threads.emplace_back(drive, std::ref(shard0[0]), 80, true);
    threads.emplace_back(drive, std::ref(shard0[1]), 96, true);
    threads.emplace_back(drive, std::ref(s1), 64, false);
    threads.emplace_back(drive, std::ref(k1), 96, false);
    threads.emplace_back(drive, std::ref(roamer), 40, false);

    // Migration and retune churn until bank 1 has been quarantined
    // and its shard is back home (bounded, so a hang fails instead).
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (int m = 0; std::chrono::steady_clock::now() < deadline; ++m) {
        svc.migrateClient(roamer, 1 + m % 2);
        if (m % 8 == 0)
            svc.retuneBackend(0, [] { return true; });
        if (m > 200 && svc.healthStats().readmissions > 0 &&
            svc.shardBackendIndex(1) == 1)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // relaxed: stop flag only; the joins below synchronize.
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &thread : threads)
        thread.join();
    svc.stopAutoRefill();

    EXPECT_EQ(contiguityErrors.load(), 0);
    EntropyService::HealthStats stats = svc.healthStats();
    EXPECT_GE(stats.quarantines, 1u);
    EXPECT_GE(stats.readmissions, 1u);
    EXPECT_EQ(svc.shardBackendIndex(1), 1u);
    EXPECT_EQ(stats.unhealthyBytesServed, 0u);
    EXPECT_EQ(svc.healthMonitor()->score(0).quarantines, 0u);
    EXPECT_EQ(svc.shardBackendIndex(0), 0u);

    uint64_t served = 0;
    for (const EntropyService::Client &client : shard0)
        served += client.stats().bytesServed;
    EXPECT_EQ(b0.produced(),
              served + svc.level(0) + svc.suspectBytesDropped());
}

} // anonymous namespace
} // namespace quac::service
