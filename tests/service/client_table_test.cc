/**
 * @file
 * Tests for the bounded wire-client table: LRU eviction at capacity,
 * admission-gate mapping (Queued / Denied / adoption via pump),
 * nonce replay and gap accounting, per-client pacing buckets, flat
 * memory under id churn, and the wire-name round trip.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/vec_clones.hh" // QUAC_SANITIZED
#include "core/fault_injection.hh"
#include "service/client_table.hh"
#include "service/entropy_service.hh"

namespace quac::service
{
namespace
{

EntropyServiceConfig
plainConfig()
{
    EntropyServiceConfig cfg;
    cfg.shards = 1;
    cfg.shardCapacityBytes = 4096;
    cfg.refillWatermark = 1.0;
    return cfg;
}

/** One shard, admission gate on, tiny queue (see admission_test). */
EntropyServiceConfig
gatedConfig()
{
    EntropyServiceConfig cfg = plainConfig();
    cfg.shardCapacityBytes = 1024;
    cfg.recentLatencyWindow = 4;
    cfg.admission.enabled = true;
    cfg.admission.interactiveSloNs = 250.0;
    cfg.admission.maxQueuedConnects = 2;
    cfg.admission.maxBackoffTicks = 4;
    return cfg;
}

TEST(ClientTable, AcquireCreatesThenHits)
{
    core::SoftwareTrng backend(30);
    EntropyService svc({&backend}, plainConfig());
    ClientTable table(svc, {.capacity = 4});

    ClientTable::Acquire first = table.acquire(7, Priority::Standard);
    ASSERT_EQ(first.status, ClientTable::AcquireStatus::Created);
    ASSERT_NE(first.entry, nullptr);
    EXPECT_EQ(first.entry->id, 7u);
    EXPECT_EQ(first.entry->client.name(), table.wireName(7));
    EXPECT_EQ(first.entry->client.priority(), Priority::Standard);
    EXPECT_TRUE(first.entry->bucket.unlimited()) << "unpaced";

    ClientTable::Acquire again = table.acquire(7, Priority::Bulk);
    EXPECT_EQ(again.status, ClientTable::AcquireStatus::Existing);
    // The priority of the first admission sticks.
    EXPECT_EQ(again.entry->client.priority(), Priority::Standard);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.stats().inserts, 1u);
    EXPECT_EQ(table.stats().hits, 1u);
    EXPECT_EQ(table.stats().lookups, 2u);
}

TEST(ClientTable, EvictsLeastRecentlySeenAtCapacity)
{
    core::SoftwareTrng backend(31);
    EntropyService svc({&backend}, plainConfig());
    ClientTable table(svc, {.capacity = 2});

    table.acquire(1, Priority::Standard);
    table.acquire(2, Priority::Standard);
    // Touch 1 so 2 becomes the LRU victim.
    table.acquire(1, Priority::Standard);
    ClientTable::Acquire third = table.acquire(3, Priority::Standard);
    EXPECT_EQ(third.status, ClientTable::AcquireStatus::Created);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.stats().evictions, 1u);

    // 1 survived; 2 was forgotten and re-enters as a fresh client
    // with a fresh nonce window.
    EXPECT_EQ(table.acquire(1, Priority::Standard).status,
              ClientTable::AcquireStatus::Existing);
    ClientTable::Acquire back = table.acquire(2, Priority::Standard);
    EXPECT_EQ(back.status, ClientTable::AcquireStatus::Created);
    EXPECT_FALSE(back.entry->seenNonce);
    EXPECT_EQ(table.stats().evictions, 2u);
}

TEST(ClientTable, NonceSequenceAccounting)
{
    core::SoftwareTrng backend(32);
    EntropyService svc({&backend}, plainConfig());
    ClientTable table(svc, {.capacity = 4});
    ClientTable::Entry &entry =
        *table.acquire(9, Priority::Standard).entry;

    // First nonce seen anchors the window at any value.
    EXPECT_EQ(table.checkNonce(entry, 5),
              ClientTable::NonceCheck::Fresh);
    EXPECT_EQ(table.checkNonce(entry, 6),
              ClientTable::NonceCheck::Fresh);
    // Jumping ahead is served but recorded as client-side loss.
    EXPECT_EQ(table.checkNonce(entry, 10),
              ClientTable::NonceCheck::Gap);
    EXPECT_EQ(table.stats().nonceGaps, 1u);
    EXPECT_EQ(table.stats().missingSeqs, 3u); // 7, 8, 9
    // At or below the high-water mark: replay, lastNonce untouched.
    EXPECT_EQ(table.checkNonce(entry, 10),
              ClientTable::NonceCheck::Replay);
    EXPECT_EQ(table.checkNonce(entry, 3),
              ClientTable::NonceCheck::Replay);
    EXPECT_EQ(entry.lastNonce, 10u);
    EXPECT_EQ(table.stats().replays, 2u);
    EXPECT_EQ(table.checkNonce(entry, 11),
              ClientTable::NonceCheck::Fresh);

    EXPECT_EQ(table.stats().replays, 2u);
    EXPECT_EQ(table.stats().nonceGaps, 1u);
    EXPECT_EQ(table.stats().missingSeqs, 3u);
}

TEST(ClientTable, PerClientPacingBucketFromConfig)
{
    core::SoftwareTrng backend(33);
    EntropyService svc({&backend}, plainConfig());
    ClientTableConfig cfg;
    cfg.capacity = 4;
    cfg.perClientBytesPerSec = 100.0; // holds one second: 100 B
    ClientTable table(svc, cfg);

    ClientTable::Entry &entry =
        *table.acquire(1, Priority::Standard).entry;
    ASSERT_FALSE(entry.bucket.unlimited());
    EXPECT_TRUE(entry.bucket.tryTake(100.0, 0));
    EXPECT_FALSE(entry.bucket.tryTake(1.0, 0));
    // Each client gets its own bucket.
    ClientTable::Entry &other =
        *table.acquire(2, Priority::Standard).entry;
    EXPECT_TRUE(other.bucket.tryTake(100.0, 0));
}

TEST(ClientTable, BulkMapsThroughAdmissionGate)
{
    core::SoftwareTrng backend(34);
    EntropyService svc({&backend}, gatedConfig());

    // Close the gate: timed 256-byte misses inflate the tail.
    EntropyService::Client probe =
        svc.connect("probe", Priority::Interactive, 0);
    std::vector<uint8_t> out(256);
    for (int i = 0; i < 4; ++i)
        probe.requestAt(out.data(), out.size(), 0.0);
    ASSERT_FALSE(svc.admissionHeadroom());

    ClientTable table(svc, {.capacity = 8});
    // Interactive bypasses the gate even when thin.
    EXPECT_EQ(table.acquire(1, Priority::Interactive).status,
              ClientTable::AcquireStatus::Created);

    // Bulk parks; retries of the same id do not multiply queue
    // entries; the queue overflows into an outright denial.
    EXPECT_EQ(table.acquire(2, Priority::Bulk).status,
              ClientTable::AcquireStatus::Queued);
    EXPECT_EQ(table.acquire(2, Priority::Bulk).status,
              ClientTable::AcquireStatus::Queued);
    EXPECT_EQ(svc.admissionStats().queuedNow, 1u);
    EXPECT_EQ(table.acquire(3, Priority::Bulk).status,
              ClientTable::AcquireStatus::Queued);
    EXPECT_EQ(table.acquire(4, Priority::Bulk).status,
              ClientTable::AcquireStatus::Denied);
    // Retries of a parked id are answered from queuedIds_, not
    // re-queued: only the two distinct ids count.
    EXPECT_EQ(table.stats().queued, 2u);
    EXPECT_EQ(table.stats().denied, 1u);

    // Restore headroom; pump() installs the released connects as
    // live entries, so each client's next datagram finds its own.
    svc.refillBelowWatermark();
    for (int i = 0; i < 4; ++i)
        probe.requestAt(out.data(), 16, 1.0e12 + 1.0e3 * i);
    ASSERT_TRUE(svc.admissionHeadroom());
    size_t adopted = 0;
    for (int t = 0; t < 16 && adopted < 2; ++t)
        adopted += table.pump();
    EXPECT_EQ(adopted, 2u);
    EXPECT_EQ(table.stats().adopted, 2u);
    EXPECT_EQ(table.size(), 3u);

    ClientTable::Acquire two = table.acquire(2, Priority::Bulk);
    EXPECT_EQ(two.status, ClientTable::AcquireStatus::Existing);
    EXPECT_EQ(two.entry->client.priority(), Priority::Bulk);
    EXPECT_EQ(table.acquire(3, Priority::Bulk).status,
              ClientTable::AcquireStatus::Existing);
    EXPECT_EQ(svc.admissionStats().queuedNow, 0u);
}

/** This process's resident set in bytes (/proc/self/statm). */
size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t pages = 0;
    size_t resident = 0;
    statm >> pages >> resident;
    return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(ClientTable, IdChurnKeepsMemoryFlat)
{
#ifdef QUAC_SANITIZED
    GTEST_SKIP() << "sanitizer allocators hold freed memory back";
#endif
    core::SoftwareTrng backend(36);
    EntropyService svc({&backend}, plainConfig());
    ClientTable table(svc, {.capacity = 64});

    // Warm up the allocator and the table's own containers first.
    constexpr uint64_t kWarmup = 8192;
    constexpr uint64_t kChurn = 200000;
    uint64_t id = 0;
    for (; id < kWarmup; ++id)
        table.acquire(id, Priority::Standard);
    size_t before = residentBytes();
    for (; id < kWarmup + kChurn; ++id)
        table.acquire(id, Priority::Standard);
    size_t after = residentBytes();

    EXPECT_EQ(table.size(), 64u);
    EXPECT_EQ(table.stats().evictions, kWarmup + kChurn - 64);
    // An evicted client whose service state outlived it would leave
    // about 184 B behind: some 37 MB over this churn.
    EXPECT_LT(after, before + (size_t{4} << 20))
        << "resident set grew from " << before << " to " << after
        << " bytes";
}

TEST(ClientTable, WireNameRoundTrip)
{
    core::SoftwareTrng backend(35);
    EntropyService svc({&backend}, plainConfig());
    ClientTable table(svc, {.capacity = 2});

    std::string name = table.wireName(0xDEADBEEFull);
    EXPECT_EQ(name, "net-00000000deadbeef");
    uint64_t id = 0;
    ASSERT_TRUE(table.parseWireName(name, id));
    EXPECT_EQ(id, 0xDEADBEEFull);

    EXPECT_FALSE(table.parseWireName("other-00000000deadbeef", id));
    EXPECT_FALSE(table.parseWireName("net-xyz", id));
    EXPECT_FALSE(table.parseWireName("net-", id));
    EXPECT_FALSE(table.parseWireName("", id));
}

} // namespace
} // namespace quac::service
