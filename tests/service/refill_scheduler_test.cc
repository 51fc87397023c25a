/**
 * @file
 * Tests for the scheduler-aware refill loop on one channel (a
 * MultiChannelRefillScheduler over ChannelTopology::single()):
 * fairness-policy accounting against ChannelSim, budget consistency
 * with the BusScheduler-derived iteration cost, and end-to-end refill
 * of a drained service.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "service/refill_scheduler.hh"
#include "sysperf/workloads.hh"

namespace quac::service
{
namespace
{

/** Cheap deterministic backend with a whole-iteration chunk. */
class CountingTrng : public core::Trng
{
  public:
    explicit CountingTrng(size_t chunk) : chunk_(chunk) {}
    std::string name() const override { return "counting"; }

    void
    fill(uint8_t *out, size_t len) override
    {
        for (size_t i = 0; i < len; ++i)
            out[i] = static_cast<uint8_t>(counter_++);
    }

    size_t preferredChunkBytes() override { return chunk_; }

  private:
    size_t chunk_;
    uint64_t counter_ = 0;
};

/** An idle co-runner: every channel cycle is usable for refill. */
const sysperf::WorkloadProfile kIdle{"idle", 0.0, 100.0};

MultiChannelRefillConfig
schedulerConfig(sysperf::FairnessPolicy policy)
{
    MultiChannelRefillConfig cfg;
    cfg.topology = sched::ChannelTopology::single();
    cfg.policy = policy;
    cfg.tickNs = 1.0e5;
    cfg.seed = 17;
    return cfg;
}

/** A drained two-shard service over cheap backends. */
struct Harness
{
    CountingTrng b0{64};
    CountingTrng b1{64};
    EntropyService service;

    explicit Harness(size_t capacity)
        : service({&b0, &b1}, {.shardCapacityBytes = capacity,
                               .refillWatermark = 1.0,
                               .panicWatermark = 1.0})
    {
    }
};

TEST(RefillScheduler, IterationCostComesFromBusScheduler)
{
    Harness harness(1 << 12);
    MultiChannelRefillScheduler scheduler(
        harness.service, {kIdle},
        schedulerConfig(sysperf::FairnessPolicy::Fcfs));
    const sched::RefillCost &cost = scheduler.iterationCost();
    EXPECT_GT(cost.iterationNs, 0.0);
    EXPECT_GT(cost.bitsPerIteration, 0.0);
    EXPECT_GT(cost.commandsPerIteration, 0.0);
    EXPECT_GT(cost.nsPerByte(), 0.0);
}

TEST(RefillScheduler, FcfsRefillsFromIdleOnlyAndNeverSteals)
{
    // Memory-bound co-runner, demand far above one tick's idle time.
    Harness harness(1 << 20);
    sysperf::WorkloadProfile lbm{"lbm-like", 0.65, 160.0};
    MultiChannelRefillScheduler scheduler(
        harness.service, {lbm},
        schedulerConfig(sysperf::FairnessPolicy::Fcfs));

    RefillAccounting acct = scheduler.tick();
    EXPECT_GT(acct.neededNs, acct.usableIdleNs)
        << "demand must exceed idle for this test to bite";
    EXPECT_EQ(acct.stolenBusyNs, 0.0);
    EXPECT_EQ(acct.memSlowdown(), 0.0);
    EXPECT_LE(acct.grantedNs, acct.usableIdleNs + 1e-6);
    EXPECT_GT(acct.bytesRefilled, 0u);

    // The refilled bytes fit the granted channel time (the last
    // chunk may overshoot by less than one backend chunk).
    double spent_ns = static_cast<double>(acct.bytesRefilled) *
                      scheduler.iterationCost().nsPerByte();
    double chunk_ns = 64.0 * scheduler.iterationCost().nsPerByte();
    EXPECT_LE(spent_ns, acct.grantedNs + chunk_ns + 1e-6);
}

TEST(RefillScheduler, RngPriorityOutRefillsFcfsAtMemoryExpense)
{
    sysperf::WorkloadProfile lbm{"lbm-like", 0.65, 160.0};

    Harness fcfs_harness(1 << 20);
    MultiChannelRefillScheduler fcfs(
        fcfs_harness.service, {lbm},
        schedulerConfig(sysperf::FairnessPolicy::Fcfs));
    Harness prio_harness(1 << 20);
    MultiChannelRefillScheduler prio(
        prio_harness.service, {lbm},
        schedulerConfig(sysperf::FairnessPolicy::RngPriority));

    RefillAccounting facct = fcfs.tick();
    RefillAccounting pacct = prio.tick();

    EXPECT_GT(pacct.bytesRefilled, facct.bytesRefilled);
    EXPECT_GT(pacct.stolenBusyNs, 0.0);
    EXPECT_GT(pacct.memSlowdown(), 0.0);
    EXPECT_LE(pacct.memSlowdown(), 1.0);
    EXPECT_GE(pacct.grantedNs, facct.grantedNs);
}

TEST(RefillScheduler, BufferedFairEscalatesOnlyUrgentDemand)
{
    sysperf::WorkloadProfile lbm{"lbm-like", 0.65, 160.0};

    // Panic watermark 0 with a partially filled service: nothing is
    // urgent, so buffered-fair behaves like FCFS (no stealing).
    CountingTrng calm_backend{64};
    EntropyService calm({&calm_backend},
                        {.shardCapacityBytes = 1 << 20,
                         .refillWatermark = 1.0,
                         .panicWatermark = 0.0});
    calm.refillTick(1024); // lift the level above the empty = panic
    ASSERT_EQ(calm.refillDemand().urgentBytes, 0u);
    MultiChannelRefillConfig cfg =
        schedulerConfig(sysperf::FairnessPolicy::BufferedFair);
    MultiChannelRefillScheduler calm_scheduler(calm, {lbm}, cfg);
    RefillAccounting calm_acct = calm_scheduler.tick();
    EXPECT_EQ(calm_acct.stolenBusyNs, 0.0);

    // Panic watermark 1.0 with the same drained service: the whole
    // deficit is urgent; buffered-fair escalates it like priority.
    Harness urgent_harness(1 << 20);
    MultiChannelRefillScheduler urgent_scheduler(urgent_harness.service,
                                                 {lbm}, cfg);
    RefillAccounting urgent_acct = urgent_scheduler.tick();
    EXPECT_GT(urgent_acct.stolenBusyNs, 0.0);
    EXPECT_GT(urgent_acct.bytesRefilled, calm_acct.bytesRefilled);
}

TEST(RefillScheduler, RunAccumulatesAndTopsUpSmallService)
{
    // A small service under an idle channel: a few ticks top every
    // shard up to capacity and the accounting matches the service's
    // own refill counters.
    Harness harness(4096);
    MultiChannelRefillScheduler scheduler(
        harness.service, {kIdle},
        schedulerConfig(sysperf::FairnessPolicy::Fcfs));
    const RefillAccounting &total = scheduler.run(50);

    EXPECT_EQ(total.ticks, 50u);
    EXPECT_EQ(harness.service.level(0), 4096u);
    EXPECT_EQ(harness.service.level(1), 4096u);
    EXPECT_EQ(total.bytesRefilled, harness.service.bytesRefilled());
    EXPECT_EQ(total.bytesRefilled, 2u * 4096u);
    EXPECT_GT(total.refillGbps(), 0.0);
    // Once full, ticks stop granting.
    EXPECT_EQ(scheduler.tick().bytesRefilled, 0u);
}

TEST(RefillScheduler, ZeroDemandTickGrantsAndRefillsNothing)
{
    // A full service (or one whose shards all sit above the
    // watermark) asks for nothing: the tick must model the window,
    // account the co-runner's busy time, and grant/steal/refill
    // zero without touching the shards.
    Harness harness(4096);
    harness.service.refillBelowWatermark(); // top both shards up
    ASSERT_EQ(harness.service.refillDemand().bytes, 0u);

    sysperf::WorkloadProfile lbm{"lbm-like", 0.65, 160.0};
    MultiChannelRefillScheduler scheduler(
        harness.service, {lbm},
        schedulerConfig(sysperf::FairnessPolicy::RngPriority));
    uint64_t refilled_before = harness.service.bytesRefilled();

    RefillAccounting acct = scheduler.tick();
    EXPECT_EQ(acct.neededNs, 0.0);
    EXPECT_EQ(acct.grantedNs, 0.0);
    EXPECT_EQ(acct.stolenBusyNs, 0.0);
    EXPECT_EQ(acct.bytesRequested, 0u);
    EXPECT_EQ(acct.bytesRefilled, 0u);
    EXPECT_GT(acct.busyNs, 0.0) << "the co-runner still ran";
    EXPECT_DOUBLE_EQ(acct.modeledNs, 1.0e5);
    EXPECT_EQ(harness.service.bytesRefilled(), refilled_before);
    EXPECT_EQ(harness.service.level(0), 4096u);
}

TEST(RefillScheduler, AllShardsAboveWatermarkAreLeftAlone)
{
    // Watermark 0.5: shards drained to just above it must not be
    // refilled, even under a generous policy with a drained peer.
    CountingTrng b0{64};
    CountingTrng b1{64};
    EntropyService service({&b0, &b1},
                           {.shardCapacityBytes = 4096,
                            .refillWatermark = 0.5,
                            .panicWatermark = 0.25});
    service.refillBelowWatermark();
    auto client = service.connect("drain", Priority::Standard, 0);
    std::vector<uint8_t> sink(1024);
    client.request(sink.data(), sink.size()); // 4096 -> 3072 > 2048
    ASSERT_EQ(service.refillDemand().bytes, 0u);

    MultiChannelRefillScheduler scheduler(
        service, {kIdle},
        schedulerConfig(sysperf::FairnessPolicy::RngPriority));
    RefillAccounting acct = scheduler.tick();
    EXPECT_EQ(acct.bytesRefilled, 0u);
    EXPECT_EQ(service.level(0), 3072u) << "no top-up above watermark";

    // One more drain drops shard 0 to the watermark: now it alone
    // is refilled back to capacity.
    client.request(sink.data(), sink.size());
    EXPECT_EQ(scheduler.tick().bytesRefilled, 2048u);
    EXPECT_EQ(service.level(0), 4096u);
    EXPECT_EQ(service.level(1), 4096u);
}

TEST(RefillScheduler, SubsetDemandAndRefillRespectShardSets)
{
    // The per-channel primitives the multi-channel scheduler is
    // built on: demand and budgeted refill restricted to a set.
    Harness harness(1 << 12);
    EntropyService &service = harness.service;
    EXPECT_EQ(service.refillDemand({0}).bytes, size_t{1} << 12);
    EXPECT_EQ(service.refillDemand({1}).bytes, size_t{1} << 12);
    EXPECT_EQ(service.refillDemand({0, 1}).bytes, size_t{2} << 12);

    // A budget issued to shard 1's set must not touch shard 0.
    size_t added = service.refillTick(1 << 12, {1});
    EXPECT_EQ(added, size_t{1} << 12);
    EXPECT_EQ(service.level(0), 0u);
    EXPECT_EQ(service.level(1), size_t{1} << 12);
    EXPECT_THROW(service.refillTick(64, {7}), PanicError);
    EXPECT_THROW(service.refillDemand({7}), PanicError);
}

TEST(ServiceScenarios, WellFormedAndLookupWorks)
{
    const auto &scenarios = sysperf::serviceScenarios();
    ASSERT_GE(scenarios.size(), 4u);
    for (const auto &scenario : scenarios) {
        EXPECT_GT(scenario.totalClients(), 0u) << scenario.name;
        EXPECT_GT(scenario.demandBytesPerMs(), 0.0) << scenario.name;
        EXPECT_GE(scenario.memoryTraffic.busUtilization, 0.0);
        EXPECT_LT(scenario.memoryTraffic.busUtilization, 1.0);
        for (const auto &cls : scenario.clientClasses)
            EXPECT_LE(cls.priority, 2u) << cls.name;
    }
    EXPECT_EQ(sysperf::serviceScenario("web-keyserver").name,
              "web-keyserver");
    EXPECT_THROW(sysperf::serviceScenario("nope"), FatalError);
}

} // anonymous namespace
} // namespace quac::service
