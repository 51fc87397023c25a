/**
 * @file
 * Tests for SLO-aware admission control on bulk connects: the
 * headroom gate, the bounded FIFO retry queue with exponential
 * backoff, overflow denial, eventual admission, and configuration
 * validation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hh"
#include "core/fault_injection.hh"
#include "service/entropy_service.hh"

namespace quac::service
{
namespace
{

/**
 * One shard, tiny recent-latency window (4 samples) so a handful of
 * requests fully determines the p99 the admission gate reads.
 * Thresholds: SLO 250 ns x the fixed 0.8 headroom fraction => gate
 * closes when the worst recent shard p99 exceeds 200 ns. A buffer
 * hit models ~25 ns; a 256-byte miss models >= 512 ns.
 */
EntropyServiceConfig
admissionConfig()
{
    EntropyServiceConfig cfg;
    cfg.shards = 1;
    cfg.shardCapacityBytes = 1024;
    cfg.refillWatermark = 1.0;
    cfg.recentLatencyWindow = 4;
    cfg.admission.enabled = true;
    cfg.admission.interactiveSloNs = 250.0;
    cfg.admission.maxQueuedConnects = 2;
    cfg.admission.maxBackoffTicks = 4;
    return cfg;
}

/**
 * Record @p n miss-priced samples. The shard starts (and stays)
 * empty — synchronous fills serve the caller directly without
 * topping the buffer up, so every request is a miss.
 */
void
inflateTail(EntropyService &svc, EntropyService::Client &client,
            int n)
{
    (void)svc;
    std::vector<uint8_t> out(256);
    for (int i = 0; i < n; ++i) {
        RequestResult r =
            client.requestAt(out.data(), out.size(), 0.0);
        ASSERT_FALSE(r.hit);
        ASSERT_GT(r.modeledLatencyNs, 200.0);
    }
}

/**
 * Record @p n hit-priced samples, ageing the misses out of the
 * window. Arrivals land far past any modelled backlog so the hits
 * are priced at service time alone (~25 ns), not queueing.
 */
void
restoreTail(EntropyService &svc, EntropyService::Client &client,
            int n)
{
    std::vector<uint8_t> out(16);
    svc.refillBelowWatermark();
    for (int i = 0; i < n; ++i) {
        RequestResult r = client.requestAt(
            out.data(), out.size(), 1.0e12 + 1.0e3 * i);
        ASSERT_TRUE(r.hit);
        ASSERT_LT(r.modeledLatencyNs, 200.0);
    }
}

TEST(Admission, DisabledGatePassesBulkThrough)
{
    core::SoftwareTrng backend(1);
    EntropyServiceConfig cfg = admissionConfig();
    cfg.admission.enabled = false;
    EntropyService svc({&backend}, cfg);

    EntropyService::AdmissionOutcome out =
        svc.admit("bulk", Priority::Bulk);
    EXPECT_EQ(out.decision, AdmissionDecision::Admitted);
    ASSERT_TRUE(out.client.has_value());
    EXPECT_FALSE(svc.admissionStats().enabled);
    EXPECT_TRUE(svc.admissionTick().empty());
}

TEST(Admission, InteractiveAndStandardBypassTheGate)
{
    core::SoftwareTrng backend(2);
    EntropyService svc({&backend}, admissionConfig());
    EntropyService::Client probe =
        svc.connect("probe", Priority::Interactive, 0);
    inflateTail(svc, probe, 4);
    ASSERT_FALSE(svc.admissionHeadroom());

    // The classes admission exists to protect are never gated.
    EXPECT_EQ(svc.admit("i", Priority::Interactive).decision,
              AdmissionDecision::Admitted);
    EXPECT_EQ(svc.admit("s", Priority::Standard).decision,
              AdmissionDecision::Admitted);
    // Bypasses are not admission attempts.
    EXPECT_EQ(svc.admissionStats().attempts, 0u);
}

TEST(Admission, BulkAdmittedWhileHeadroomHolds)
{
    core::SoftwareTrng backend(3);
    EntropyService svc({&backend}, admissionConfig());
    ASSERT_TRUE(svc.admissionHeadroom());

    EntropyService::AdmissionOutcome out =
        svc.admit("bulk", Priority::Bulk);
    EXPECT_EQ(out.decision, AdmissionDecision::Admitted);
    ASSERT_TRUE(out.client.has_value());
    EXPECT_EQ(out.client->priority(), Priority::Bulk);

    EntropyService::AdmissionStats stats = svc.admissionStats();
    EXPECT_EQ(stats.attempts, 1u);
    EXPECT_EQ(stats.admitted, 1u);
    EXPECT_EQ(stats.queued, 0u);
}

TEST(Admission, ThinHeadroomQueuesThenReleasesInOrder)
{
    core::SoftwareTrng backend(4);
    EntropyService svc({&backend}, admissionConfig());
    EntropyService::Client probe =
        svc.connect("probe", Priority::Interactive, 0);
    inflateTail(svc, probe, 4);
    ASSERT_FALSE(svc.admissionHeadroom());
    EXPECT_GT(svc.interactiveHeadroomP99Ns(), 200.0);

    EntropyService::AdmissionOutcome first =
        svc.admit("first", Priority::Bulk);
    EXPECT_EQ(first.decision, AdmissionDecision::Queued);
    EXPECT_FALSE(first.client.has_value());

    // Headroom recovers, but the queue is non-empty: a newcomer must
    // not overtake the parked connect — it queues behind it (FIFO).
    restoreTail(svc, probe, 4);
    ASSERT_TRUE(svc.admissionHeadroom());
    EXPECT_EQ(svc.admit("second", Priority::Bulk).decision,
              AdmissionDecision::Queued);

    std::vector<EntropyService::Client> released =
        svc.admissionTick();
    ASSERT_EQ(released.size(), 2u);
    EXPECT_EQ(released[0].name(), "first");
    EXPECT_EQ(released[1].name(), "second");

    EntropyService::AdmissionStats stats = svc.admissionStats();
    EXPECT_EQ(stats.admittedFromQueue, 2u);
    EXPECT_EQ(stats.queuedNow, 0u);
    EXPECT_EQ(stats.maxQueueDepth, 2u);
}

TEST(Admission, QueueOverflowDenies)
{
    core::SoftwareTrng backend(5);
    EntropyService svc({&backend}, admissionConfig());
    EntropyService::Client probe =
        svc.connect("probe", Priority::Interactive, 0);
    inflateTail(svc, probe, 4);

    EXPECT_EQ(svc.admit("a", Priority::Bulk).decision,
              AdmissionDecision::Queued);
    EXPECT_EQ(svc.admit("b", Priority::Bulk).decision,
              AdmissionDecision::Queued);
    EXPECT_EQ(svc.admit("c", Priority::Bulk).decision,
              AdmissionDecision::Denied);

    EntropyService::AdmissionStats stats = svc.admissionStats();
    EXPECT_EQ(stats.queued, 2u);
    EXPECT_EQ(stats.denied, 1u);
    EXPECT_EQ(stats.queuedNow, 2u);
}

TEST(Admission, BackoffDoublesBoundedWhileThin)
{
    core::SoftwareTrng backend(6);
    EntropyService svc({&backend}, admissionConfig());
    EntropyService::Client probe =
        svc.connect("probe", Priority::Interactive, 0);
    inflateTail(svc, probe, 4);
    ASSERT_EQ(svc.admit("parked", Priority::Bulk).decision,
              AdmissionDecision::Queued);

    // While headroom stays thin the head is probed at ticks 1, 3, 7,
    // 11, 15, ... (backoff 1 -> 2 -> 4, capped at 4): 16 ticks see
    // exactly 5 retries and no admission.
    uint64_t retries_before = svc.admissionStats().retries;
    for (int t = 0; t < 16; ++t)
        EXPECT_TRUE(svc.admissionTick().empty()) << "tick " << t;
    EXPECT_EQ(svc.admissionStats().retries - retries_before, 5u);
    EXPECT_EQ(svc.admissionStats().queuedNow, 1u);

    // Headroom returns: the parked connect is eventually admitted.
    restoreTail(svc, probe, 4);
    std::vector<EntropyService::Client> released;
    for (int t = 0; t < 8 && released.empty(); ++t)
        released = svc.admissionTick();
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0].name(), "parked");
    EXPECT_EQ(svc.admissionStats().queuedNow, 0u);
}

TEST(Admission, ReleasedClientsServeNormally)
{
    core::SoftwareTrng backend(7);
    EntropyService svc({&backend}, admissionConfig());
    EntropyService::Client probe =
        svc.connect("probe", Priority::Interactive, 0);
    inflateTail(svc, probe, 4);
    ASSERT_EQ(svc.admit("parked", Priority::Bulk).decision,
              AdmissionDecision::Queued);
    restoreTail(svc, probe, 4);

    std::vector<EntropyService::Client> released;
    for (int t = 0; t < 8 && released.empty(); ++t)
        released = svc.admissionTick();
    ASSERT_EQ(released.size(), 1u);

    svc.refillBelowWatermark();
    std::vector<uint8_t> got = released[0].request(64);
    EXPECT_EQ(got.size(), 64u);
}

TEST(Admission, DecayedTailSurvivesFullTopUp)
{
    core::SoftwareTrng backend(9);
    EntropyService svc({&backend}, admissionConfig());
    EntropyService::Client probe =
        svc.connect("probe", Priority::Interactive, 0);
    inflateTail(svc, probe, 4);
    ASSERT_FALSE(svc.admissionHeadroom());
    double inflamed = svc.shardDecayedTailNs(0);
    EXPECT_GT(inflamed, 400.0);

    // A full top-up clears the windowed tail, but congestion this
    // recent must not vanish from the gate's view the instant the
    // buffer is replenished: the decayed estimate bridges the blind
    // spot and keeps bulk connects parked.
    svc.refillBelowWatermark();
    EXPECT_DOUBLE_EQ(svc.shardRecentP95Ns(0), 0.0);
    EXPECT_FALSE(svc.admissionHeadroom());
    EXPECT_EQ(svc.admit("early", Priority::Bulk).decision,
              AdmissionDecision::Queued);

    // With no further traffic at all, per-tick decay reopens the
    // gate; the parked connect's own retry probing finds it open.
    std::vector<EntropyService::Client> released;
    for (int t = 0; t < 8 && released.empty(); ++t)
        released = svc.admissionTick();
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0].name(), "early");
    EXPECT_TRUE(svc.admissionHeadroom());
    EXPECT_LT(svc.shardDecayedTailNs(0), 200.0);
}

TEST(Admission, ConfigValidatedThroughServiceCtor)
{
    core::SoftwareTrng backend(8);
    EntropyServiceConfig cfg = admissionConfig();
    cfg.admission.interactiveSloNs = 0.0;
    EXPECT_THROW(EntropyService({&backend}, cfg), FatalError);

    cfg = admissionConfig();
    cfg.admission.maxQueuedConnects = 0;
    EXPECT_THROW(EntropyService({&backend}, cfg), FatalError);

    cfg = admissionConfig();
    cfg.admission.maxBackoffTicks = 0; // must be >= 1
    EXPECT_THROW(EntropyService({&backend}, cfg), FatalError);

    // The same nonsense with the gate disabled is accepted (knobs
    // are never read).
    cfg.admission.enabled = false;
    EntropyService svc({&backend}, cfg);
    EXPECT_EQ(svc.admit("x", Priority::Bulk).decision,
              AdmissionDecision::Admitted);
}

} // anonymous namespace
} // namespace quac::service
