/**
 * @file
 * Tests for the deterministic scenario engine: fatal-parse
 * validation of campaign specs (mirroring core::FaultSpec's
 * reject-at-startup contract), cross-phase validation against a
 * concrete deployment, and the engine's tick-edge semantics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "core/fault_injection.hh"
#include "scenario/scenario.hh"

namespace quac::scenario
{
namespace
{

using service::EntropyService;
using service::EntropyServiceConfig;
using service::MultiChannelRefillConfig;
using service::MultiChannelRefillScheduler;
using service::Priority;

// ------------------------------------------------------- parsing

TEST(ScenarioSpec, ParsesEveryPhaseKind)
{
    ScenarioSpec spec = ScenarioSpec::parse(
        "chfail:1:10:20, drift:5:40:45:85, crowd:0:8:24:512, "
        "fault:2:bias:1024:2048:0.95");
    ASSERT_EQ(spec.phases.size(), 4u);

    EXPECT_EQ(spec.phases[0].kind, PhaseKind::ChannelFail);
    EXPECT_EQ(spec.phases[0].channel, 1u);
    EXPECT_EQ(spec.phases[0].startTick, 10u);
    EXPECT_EQ(spec.phases[0].lengthTicks, 20u);

    EXPECT_EQ(spec.phases[1].kind, PhaseKind::ThermalDrift);
    EXPECT_DOUBLE_EQ(spec.phases[1].fromC, 45.0);
    EXPECT_DOUBLE_EQ(spec.phases[1].toC, 85.0);

    EXPECT_EQ(spec.phases[2].kind, PhaseKind::FlashCrowd);
    EXPECT_EQ(spec.phases[2].clients, 24u);
    EXPECT_EQ(spec.phases[2].requestBytes, 512u);

    EXPECT_EQ(spec.phases[3].kind, PhaseKind::Fault);
    EXPECT_EQ(spec.phases[3].fault.bank, 2u);
    EXPECT_EQ(spec.phases[3].fault.mode, core::FaultMode::BiasedBits);
    EXPECT_EQ(spec.phases[3].fault.startByte, 1024u);
    EXPECT_EQ(spec.phases[3].fault.lengthBytes, 2048u);
    EXPECT_DOUBLE_EQ(spec.phases[3].fault.biasP, 0.95);

    // lastEventTick covers recovery edges; fault phases are
    // byte-addressed and do not count.
    EXPECT_EQ(spec.lastEventTick(), 45u);
    // describe() round-trips.
    ScenarioSpec again = ScenarioSpec::parse(spec.describe());
    EXPECT_EQ(again.describe(), spec.describe());
}

TEST(ScenarioSpec, EmptyStringIsAnEmptyCampaign)
{
    ScenarioSpec spec = ScenarioSpec::parse("");
    EXPECT_TRUE(spec.phases.empty());
    EXPECT_EQ(spec.lastEventTick(), 0u);
    spec.validate(1, 1); // nothing to reject
}

TEST(ScenarioSpec, MalformedPhasesAreFatal)
{
    // Unknown kind.
    EXPECT_THROW(PhaseSpec::parse("quake:0:1:2"), FatalError);
    // Wrong arity.
    EXPECT_THROW(PhaseSpec::parse("chfail:0:1"), FatalError);
    EXPECT_THROW(PhaseSpec::parse("chfail:0:1:2:3"), FatalError);
    EXPECT_THROW(PhaseSpec::parse("drift:0:10:45"), FatalError);
    EXPECT_THROW(PhaseSpec::parse("crowd:0:10"), FatalError);
    // Zero-length windows would never act.
    EXPECT_THROW(PhaseSpec::parse("chfail:0:5:0"), FatalError);
    EXPECT_THROW(PhaseSpec::parse("drift:0:0:45:85"), FatalError);
    // Empty and non-numeric fields.
    EXPECT_THROW(PhaseSpec::parse("chfail::1:2"), FatalError);
    EXPECT_THROW(PhaseSpec::parse("chfail:0:x:2"), FatalError);
    EXPECT_THROW(PhaseSpec::parse("drift:0:10:warm:85"),
                 FatalError);
    // A crowd of nobody, or of zero-byte requests.
    EXPECT_THROW(PhaseSpec::parse("crowd:0:10:0"), FatalError);
    EXPECT_THROW(PhaseSpec::parse("crowd:0:10:4:0"), FatalError);
    // Fault phases inherit FaultSpec's own fatal parsing...
    EXPECT_THROW(PhaseSpec::parse("fault:0:wobble:0:64"),
                 FatalError);
    EXPECT_THROW(PhaseSpec::parse("fault"), FatalError);
    // ...plus the campaign rule that faults must clear.
    EXPECT_THROW(PhaseSpec::parse("fault:0:fail:0:0"), FatalError);
    // Malformed lists.
    EXPECT_THROW(ScenarioSpec::parse("chfail:0:1:2,,crowd:0:4:2"),
                 FatalError);
}

// ---------------------------------------------------- validation

TEST(ScenarioSpec, ValidateRejectsOutOfRangeTargets)
{
    ScenarioSpec chfail = ScenarioSpec::parse("chfail:2:0:5");
    EXPECT_THROW(chfail.validate(2, 4), FatalError);
    chfail.validate(3, 4);

    ScenarioSpec fault = ScenarioSpec::parse("fault:4:stuck:0:64");
    EXPECT_THROW(fault.validate(2, 4), FatalError);
    fault.validate(2, 5);
}

TEST(ScenarioSpec, ValidateRejectsSameTargetOverlaps)
{
    // Two outages of one channel — including back-to-back windows,
    // whose recovery edge and failure edge would collide.
    EXPECT_THROW(
        ScenarioSpec::parse("chfail:0:0:10,chfail:0:5:10")
            .validate(2, 2),
        FatalError);
    EXPECT_THROW(
        ScenarioSpec::parse("chfail:0:0:10,chfail:0:10:5")
            .validate(2, 2),
        FatalError);
    // Different channels may overlap freely.
    ScenarioSpec::parse("chfail:0:0:10,chfail:1:5:10")
        .validate(2, 2);

    // The one module has one temperature: concurrent drifts clash.
    EXPECT_THROW(
        ScenarioSpec::parse("drift:0:10:40:60,drift:5:10:60:40")
            .validate(1, 1),
        FatalError);
    ScenarioSpec::parse("drift:0:10:40:60,drift:20:10:60:40")
        .validate(1, 1);

    // Concurrent crowds make admission accounting unattributable.
    EXPECT_THROW(
        ScenarioSpec::parse("crowd:0:10:4,crowd:9:10:4")
            .validate(1, 1),
        FatalError);

    // Stacked fault windows on one bank hide each other; the same
    // window on different banks composes.
    EXPECT_THROW(
        ScenarioSpec::parse(
            "fault:0:fail:0:128,fault:0:stuck:64:128")
            .validate(1, 1),
        FatalError);
    ScenarioSpec::parse("fault:0:fail:0:128,fault:1:stuck:0:128")
        .validate(1, 2);

    // Different kinds on the "same" index never conflict.
    ScenarioSpec::parse("chfail:0:0:10,drift:0:10:40:60,crowd:0:10:4")
        .validate(1, 1);
}

TEST(ScenarioSpec, FaultSpecsExtractsOnlyFaultPhases)
{
    ScenarioSpec spec = ScenarioSpec::parse(
        "chfail:0:0:5,fault:1:bias:0:512:0.9,fault:3:fail:128:64");
    std::vector<core::FaultSpec> faults = spec.faultSpecs();
    ASSERT_EQ(faults.size(), 2u);
    EXPECT_EQ(faults[0].bank, 1u);
    EXPECT_EQ(faults[1].bank, 3u);
    EXPECT_EQ(faults[1].mode, core::FaultMode::ReadFailure);
}

// -------------------------------------------------------- engine

/** Service + scheduler pair the engine drives. */
struct Harness
{
    std::vector<std::unique_ptr<core::SoftwareTrng>> backends;
    std::vector<core::Trng *> pool;
    std::unique_ptr<EntropyService> service;
    std::unique_ptr<MultiChannelRefillScheduler> scheduler;

    explicit Harness(size_t shards = 4, unsigned channels = 2,
                     bool admission = false)
    {
        for (size_t i = 0; i < shards; ++i) {
            backends.push_back(std::make_unique<core::SoftwareTrng>(
                2000 + i, "bank" + std::to_string(i)));
            pool.push_back(backends.back().get());
        }
        EntropyServiceConfig cfg;
        cfg.shards = shards;
        cfg.shardCapacityBytes = 1 << 10;
        cfg.refillWatermark = 1.0;
        if (admission) {
            cfg.admission.enabled = true;
            cfg.admission.interactiveSloNs = 250.0;
            cfg.admission.maxQueuedConnects = 8;
        }
        service = std::make_unique<EntropyService>(pool, cfg);

        MultiChannelRefillConfig mcfg;
        mcfg.topology.channels = channels;
        mcfg.policy = sysperf::FairnessPolicy::Fcfs;
        mcfg.tickNs = 1.0e5;
        mcfg.seed = 17;
        scheduler = std::make_unique<MultiChannelRefillScheduler>(
            *service,
            std::vector<sysperf::WorkloadProfile>(
                channels, {"idle", 0.0, 100.0}),
            mcfg);
    }
};

TEST(ScenarioEngine, ValidatesSpecAgainstDeployment)
{
    Harness harness(4, 2);
    EXPECT_THROW(ScenarioEngine(*harness.service,
                                *harness.scheduler,
                                ScenarioSpec::parse("chfail:2:0:5")),
                 FatalError)
        << "channel 2 of 2";
    EXPECT_THROW(
        ScenarioEngine(*harness.service, *harness.scheduler,
                       ScenarioSpec::parse("fault:4:stuck:0:64")),
        FatalError)
        << "bank 4 of 4";
    EXPECT_THROW(
        ScenarioEngine(*harness.service, *harness.scheduler,
                       ScenarioSpec::parse("drift:0:10:40:80")),
        FatalError)
        << "drift without a thermal governor";
}

TEST(ScenarioEngine, AppliesChannelFailAndRecoverEdges)
{
    Harness harness(4, 2);
    ScenarioEngine engine(*harness.service, *harness.scheduler,
                          ScenarioSpec::parse("chfail:0:2:3"));
    for (uint64_t t = 0; t <= 6; ++t) {
        engine.beginTick(t);
        bool down = t >= 2 && t < 5;
        EXPECT_EQ(harness.scheduler->channelFailed(0), down)
            << "tick " << t;
        harness.scheduler->run(1);
    }
    EXPECT_EQ(engine.counters().channelFailures, 1u);
    EXPECT_EQ(engine.counters().channelRecoveries, 1u);
    EXPECT_EQ(harness.scheduler->failovers(), 2u);
    EXPECT_EQ(harness.scheduler->failbacks(), 2u);
}

TEST(ScenarioEngine, TicksMustBeContiguous)
{
    Harness harness;
    ScenarioEngine engine(*harness.service, *harness.scheduler,
                          ScenarioSpec::parse("chfail:0:2:3"));
    engine.beginTick(0);
    EXPECT_THROW(engine.beginTick(2), PanicError);
}

TEST(ScenarioEngine, FlashCrowdSpreadsConnectsAcrossTheWindow)
{
    Harness harness;
    // 6 clients over 4 ticks: 2, 2, 1, 1 (remainder lands early).
    ScenarioEngine engine(*harness.service, *harness.scheduler,
                          ScenarioSpec::parse("crowd:1:4:6:256"));
    std::vector<uint64_t> per_tick;
    for (uint64_t t = 0; t < 6; ++t) {
        uint64_t before = engine.counters().crowdAttempted;
        engine.beginTick(t);
        per_tick.push_back(engine.counters().crowdAttempted -
                           before);
    }
    EXPECT_EQ(per_tick,
              (std::vector<uint64_t>{0, 2, 2, 1, 1, 0}));
    // Admission is disabled in this harness: everyone connects
    // immediately and the engine owns the handles.
    EXPECT_EQ(engine.counters().crowdAdmitted, 6u);
    EXPECT_EQ(engine.counters().crowdQueued, 0u);
    ASSERT_EQ(engine.crowdClients().size(), 6u);
    EXPECT_EQ(engine.crowdClients()[0].client.name(), "crowd-0");
    EXPECT_EQ(engine.crowdClients()[5].client.name(), "crowd-5");
    EXPECT_EQ(engine.crowdClients()[2].client.priority(),
              Priority::Bulk);
}

TEST(ScenarioEngine, CrowdClientsCarryPerPhaseRequestSizes)
{
    Harness harness;
    // Two non-overlapping crowds with different request sizes: the
    // engine tags each connected client with its own phase's size,
    // so the driver does not flatten every crowd to one number.
    ScenarioEngine engine(
        *harness.service, *harness.scheduler,
        ScenarioSpec::parse("crowd:0:1:2:64,crowd:3:1:2:512"));
    for (uint64_t t = 0; t < 5; ++t)
        engine.beginTick(t);
    ASSERT_EQ(engine.crowdClients().size(), 4u);
    EXPECT_EQ(engine.crowdClients()[0].requestBytes, 64u);
    EXPECT_EQ(engine.crowdClients()[1].requestBytes, 64u);
    EXPECT_EQ(engine.crowdClients()[2].requestBytes, 512u);
    EXPECT_EQ(engine.crowdClients()[3].requestBytes, 512u);
    EXPECT_EQ(engine.crowdClients()[3].client.name(), "crowd-3");
}

TEST(ScenarioEngine, CrowdFlowsThroughAdmissionGateWhenThin)
{
    Harness harness(1, 1, /*admission=*/true);
    // Inflate the lone shard's tail so the gate is closed when the
    // burst arrives.
    EntropyService::Client probe = harness.service->connect(
        "probe", Priority::Interactive, 0);
    std::vector<uint8_t> out(256);
    for (int i = 0; i < 4; ++i)
        probe.requestAt(out.data(), out.size(), 0.0);
    ASSERT_FALSE(harness.service->admissionHeadroom());

    ScenarioEngine engine(*harness.service, *harness.scheduler,
                          ScenarioSpec::parse("crowd:0:1:3:64"));
    engine.beginTick(0);
    EXPECT_EQ(engine.counters().crowdAttempted, 3u);
    EXPECT_EQ(engine.counters().crowdQueued, 3u);
    EXPECT_EQ(engine.counters().crowdAdmitted, 0u);

    // Restore headroom: refill, then age the misses out with cheap
    // hits. The engine adopts queue releases on later ticks.
    harness.service->refillBelowWatermark();
    for (int i = 0; i < 4; ++i)
        probe.requestAt(out.data(), 16, 1.0e12 + 1.0e3 * i);
    ASSERT_TRUE(harness.service->admissionHeadroom());
    for (uint64_t t = 1; t < 12 && engine.crowdClients().size() < 3;
         ++t) {
        engine.beginTick(t);
    }
    EXPECT_EQ(engine.counters().crowdAdmitted, 3u);
    EXPECT_EQ(engine.crowdClients().size(), 3u);
    EXPECT_EQ(harness.service->admissionStats().queuedNow, 0u);
    // Adoption from the queue preserves the phase's request size.
    for (const auto &crowd : engine.crowdClients())
        EXPECT_EQ(crowd.requestBytes, 64u);
}

TEST(ScenarioEngine, CampaignsReplayDeterministically)
{
    auto run = []() {
        Harness harness(4, 2);
        ScenarioEngine engine(
            *harness.service, *harness.scheduler,
            ScenarioSpec::parse("chfail:0:2:3,crowd:1:4:6:256"));
        for (uint64_t t = 0; t < 8; ++t) {
            engine.beginTick(t);
            harness.scheduler->run(1);
        }
        std::vector<uint64_t> levels;
        for (size_t s = 0; s < 4; ++s)
            levels.push_back(harness.service->level(s));
        return std::make_pair(engine.counters(), levels);
    };
    auto [counters_a, levels_a] = run();
    auto [counters_b, levels_b] = run();
    EXPECT_EQ(counters_a.channelFailures,
              counters_b.channelFailures);
    EXPECT_EQ(counters_a.crowdAttempted, counters_b.crowdAttempted);
    EXPECT_EQ(counters_a.crowdAdmitted, counters_b.crowdAdmitted);
    EXPECT_EQ(levels_a, levels_b);
}

} // anonymous namespace
} // namespace quac::scenario
