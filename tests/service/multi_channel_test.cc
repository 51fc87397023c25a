/**
 * @file
 * Tests for the multi-channel refill scheduler: shard placement,
 * per-channel demand/grant/refill isolation, heterogeneous channel
 * traffic, starvation-driven rebalancing, and the deterministic
 * replay guarantee across channel counts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hh"
#include "crypto/sha256.hh"
#include "service/refill_scheduler.hh"
#include "sysperf/workloads.hh"

namespace quac::service
{
namespace
{

/** Deterministic byte-counter backend with a chunk granularity. */
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

constexpr size_t kChunk = 64;

/** A drained service with one dedicated backend per shard. */
struct Harness
{
    std::vector<std::unique_ptr<CountingTrng>> backends;
    std::vector<core::Trng *> pool;
    std::unique_ptr<EntropyService> service;

    Harness(size_t shards, size_t capacity, double panic = 1.0)
    {
        for (size_t i = 0; i < shards; ++i) {
            backends.push_back(
                std::make_unique<CountingTrng>(kChunk));
            pool.push_back(backends.back().get());
        }
        service = std::make_unique<EntropyService>(
            pool, EntropyServiceConfig{
                      .shardCapacityBytes = capacity,
                      .refillWatermark = 1.0,
                      .panicWatermark = panic});
    }
};

MultiChannelRefillConfig
multiConfig(unsigned channels, sysperf::FairnessPolicy policy)
{
    MultiChannelRefillConfig cfg;
    cfg.topology.channels = channels;
    cfg.policy = policy;
    cfg.tickNs = 1.0e5;
    cfg.seed = 17;
    return cfg;
}

TEST(ShardPlacement, RoundRobinCoversAllShardsDisjointly)
{
    ShardPlacement placement = ShardPlacement::roundRobin(10, 4);
    ASSERT_EQ(placement.shards(), 10u);
    auto sets = placement.byChannel(4);
    ASSERT_EQ(sets.size(), 4u);
    size_t covered = 0;
    std::vector<bool> seen(10, false);
    for (const auto &set : sets) {
        for (size_t shard : set) {
            EXPECT_FALSE(seen[shard]);
            seen[shard] = true;
            ++covered;
        }
    }
    EXPECT_EQ(covered, 10u);
    EXPECT_EQ(sets[0], (std::vector<size_t>{0, 4, 8}));
    EXPECT_EQ(sets[3], (std::vector<size_t>{3, 7}));
}

TEST(ShardPlacement, OutOfRangeChannelPanics)
{
    ShardPlacement placement;
    placement.channelOfShard = {0, 5};
    EXPECT_THROW(placement.byChannel(4), PanicError);
}

TEST(MultiChannelScheduler, RejectsMismatchedConfig)
{
    Harness harness(4, 1 << 12);
    EXPECT_THROW(MultiChannelRefillScheduler(
                     *harness.service,
                     {{"a", 0.1, 80.0}, {"b", 0.1, 80.0}},
                     multiConfig(4, sysperf::FairnessPolicy::Fcfs)),
                 FatalError)
        << "2 profiles for 4 channels";

    ShardPlacement bad = ShardPlacement::roundRobin(3, 2);
    EXPECT_THROW(MultiChannelRefillScheduler(
                     *harness.service, {{"a", 0.1, 80.0}},
                     multiConfig(2, sysperf::FairnessPolicy::Fcfs),
                     bad),
                 FatalError)
        << "placement covers 3 shards, service has 4";
}

TEST(MultiChannelScheduler, SingleProfileBroadcasts)
{
    Harness harness(4, 1 << 12);
    MultiChannelRefillScheduler scheduler(
        *harness.service, {{"idle", 0.0, 100.0}},
        multiConfig(4, sysperf::FairnessPolicy::Fcfs));
    EXPECT_EQ(scheduler.channels(), 4u);
    scheduler.run(20);
    for (size_t s = 0; s < 4; ++s)
        EXPECT_EQ(harness.service->level(s), size_t{1} << 12) << s;
}

TEST(MultiChannelScheduler, PerChannelTotalsSumToAggregate)
{
    Harness harness(8, 1 << 14);
    std::vector<sysperf::WorkloadProfile> traffic = {
        {"heavy", 0.60, 120.0},
        {"light", 0.05, 60.0},
        {"mid", 0.30, 90.0},
        {"idle", 0.0, 60.0}};
    MultiChannelRefillScheduler scheduler(
        *harness.service, traffic,
        multiConfig(4, sysperf::FairnessPolicy::Fcfs));
    scheduler.run(10);

    RefillAccounting sum;
    for (size_t c = 0; c < 4; ++c)
        sum.accumulate(scheduler.channelTotal(c));
    const RefillAccounting &total = scheduler.total();
    EXPECT_DOUBLE_EQ(sum.grantedNs, total.grantedNs);
    EXPECT_DOUBLE_EQ(sum.neededNs, total.neededNs);
    EXPECT_DOUBLE_EQ(sum.busyNs, total.busyNs);
    EXPECT_EQ(sum.bytesRefilled, total.bytesRefilled);
    EXPECT_EQ(total.ticks, 10u);
    EXPECT_EQ(scheduler.channelTotal(0).ticks, 10u);
    // Channels were modelled for the same time but granted
    // differently by their own traffic.
    EXPECT_DOUBLE_EQ(scheduler.channelTotal(0).modeledNs,
                     scheduler.channelTotal(3).modeledNs);
    EXPECT_LT(scheduler.channelTotal(0).grantedNs,
              scheduler.channelTotal(3).grantedNs);
}

TEST(MultiChannelScheduler, ChannelsRefillOnlyTheirPlacedShards)
{
    // Channel 1 is almost fully busy: under FCFS its shards only
    // get the trickle of usable idle gaps, while channel 0's shards
    // fill completely from an idle channel.
    Harness harness(4, 1 << 14);
    std::vector<sysperf::WorkloadProfile> traffic = {
        {"idle", 0.0, 100.0}, {"jam", 0.995, 5.0e4}};
    MultiChannelRefillScheduler scheduler(
        *harness.service, traffic,
        multiConfig(2, sysperf::FairnessPolicy::Fcfs));
    scheduler.run(20);

    EXPECT_EQ(harness.service->level(0), size_t{1} << 14);
    EXPECT_EQ(harness.service->level(2), size_t{1} << 14);
    EXPECT_LT(harness.service->level(1), size_t{1} << 12);
    EXPECT_LT(harness.service->level(3), size_t{1} << 12);
}

TEST(MultiChannelScheduler, PolicyBroadcastsToEveryChannel)
{
    Harness harness(4, 1 << 14);
    MultiChannelRefillConfig broadcast =
        multiConfig(2, sysperf::FairnessPolicy::BufferedFair);
    MultiChannelRefillScheduler pool(
        *harness.service, {{"a", 0.1, 80.0}, {"b", 0.1, 80.0}},
        broadcast);
    EXPECT_EQ(pool.channelPolicy(0),
              sysperf::FairnessPolicy::BufferedFair);
    EXPECT_EQ(pool.channelPolicy(1),
              sysperf::FairnessPolicy::BufferedFair);
}

// --------------------------------------------------- rebalancing

/** Channel 0 saturated, the rest idle; shards drained each tick. */
struct StarvedSetup
{
    Harness harness{4, 4096};
    std::vector<EntropyService::Client> clients;
    std::vector<std::vector<uint8_t>> served;

    MultiChannelRefillScheduler
    makeScheduler(bool rebalance)
    {
        MultiChannelRefillConfig cfg =
            multiConfig(2, sysperf::FairnessPolicy::Fcfs);
        cfg.rebalance = rebalance;
        cfg.starveTickThreshold = 3;
        return MultiChannelRefillScheduler(
            *harness.service,
            {{"jam", 0.995, 5.0e4}, {"idle", 0.0, 100.0}}, cfg);
    }

    void
    drive(MultiChannelRefillScheduler &scheduler, int ticks)
    {
        for (size_t s = 0; s < 4; ++s) {
            clients.push_back(harness.service->connect(
                "c" + std::to_string(s), Priority::Standard, s));
        }
        served.resize(4);
        uint8_t out[1024];
        for (int t = 0; t < ticks; ++t) {
            for (size_t s = 0; s < 4; ++s) {
                RequestResult result =
                    clients[s].request(out, sizeof(out));
                served[s].insert(served[s].end(), out,
                                 out + result.bytes);
            }
            scheduler.tick();
        }
    }
};

TEST(Rebalancer, DetectsStarvedShardUnderFcfs)
{
    // Rebalancing off: the starvation counters must still expose the
    // shards the saturated channel cannot serve.
    StarvedSetup setup;
    MultiChannelRefillScheduler scheduler = setup.makeScheduler(false);
    setup.drive(scheduler, 12);

    EXPECT_GE(scheduler.starvedTicks(0), 3u)
        << "shard 0 starves on the jammed channel";
    EXPECT_GE(scheduler.starvedTicks(2), 3u);
    EXPECT_EQ(scheduler.starvedTicks(1), 0u)
        << "the idle channel keeps shard 1 topped up";
    EXPECT_EQ(scheduler.migrations(), 0u);
    EXPECT_EQ(scheduler.placement().channelOfShard,
              (std::vector<size_t>{0, 1, 0, 1}));
}

TEST(Rebalancer, MigratesStarvedShardsAndImprovesThem)
{
    StarvedSetup off_setup;
    MultiChannelRefillScheduler off = off_setup.makeScheduler(false);
    off_setup.drive(off, 30);

    StarvedSetup on_setup;
    MultiChannelRefillScheduler on = on_setup.makeScheduler(true);
    on_setup.drive(on, 30);

    EXPECT_EQ(off.migrations(), 0u);
    EXPECT_GE(on.migrations(), 2u);
    EXPECT_EQ(on.placement().channelOfShard[0], 1u)
        << "starved shard 0 moved to the idle channel";
    EXPECT_EQ(on.placement().channelOfShard[2], 1u);

    // The starved shard improves: more of its requests come from
    // the buffer once the idle channel refills it.
    ClientStats off_stats = off_setup.clients[0].stats();
    ClientStats on_stats = on_setup.clients[0].stats();
    EXPECT_GT(on_stats.bufferHits, off_stats.bufferHits);
    EXPECT_LT(on_stats.synchronousFills, off_stats.synchronousFills);

    // ... without changing a single output byte on any shard.
    for (size_t s = 0; s < 4; ++s)
        EXPECT_EQ(off_setup.served[s], on_setup.served[s]) << s;
}

TEST(Rebalancer, TwoSaturatedChannelsDoNotPingPong)
{
    // Both channels jammed: every shard starves, but no channel is a
    // refuge (both under-grant their own shards), so the rebalancer
    // must hold every shard in place instead of trading them between
    // two channels that cannot serve them.
    Harness harness(4, 4096);
    MultiChannelRefillConfig cfg =
        multiConfig(2, sysperf::FairnessPolicy::Fcfs);
    cfg.rebalance = true;
    cfg.starveTickThreshold = 2;
    MultiChannelRefillScheduler scheduler(
        *harness.service,
        {{"jam", 0.995, 5.0e4}, {"jam", 0.995, 5.0e4}}, cfg);

    std::vector<EntropyService::Client> clients;
    for (size_t s = 0; s < 4; ++s) {
        clients.push_back(harness.service->connect(
            "c" + std::to_string(s), Priority::Standard, s));
    }
    uint8_t out[1024];
    for (int t = 0; t < 40; ++t) {
        for (auto &client : clients)
            client.request(out, sizeof(out));
        scheduler.tick();
    }
    EXPECT_EQ(scheduler.migrations(), 0u)
        << "no healthy destination exists";
    EXPECT_EQ(scheduler.placement().channelOfShard,
              (std::vector<size_t>{0, 1, 0, 1}));
    // Starvation is still visible to the operator.
    EXPECT_GE(scheduler.starvedTicks(0), 2u);
    EXPECT_GE(scheduler.starvedTicks(1), 2u);
}

TEST(Rebalancer, MigrationCooldownHoldsAfterMove)
{
    // Jam + idle: the two starved shards migrate once to the idle
    // channel and then stay (exactly one migration each, no churn).
    StarvedSetup setup;
    MultiChannelRefillScheduler scheduler = setup.makeScheduler(true);
    setup.drive(scheduler, 40);
    EXPECT_EQ(scheduler.migrations(), 2u);
    EXPECT_EQ(scheduler.placement().channelOfShard,
              (std::vector<size_t>{1, 1, 1, 1}));
}

TEST(Rebalancer, ShardLatencyTriggerMigratesOnMeasuredTail)
{
    // Closed loop: the starvation signal is the shards' measured
    // recent p95 (timestamped requests missing to synchronous
    // fills), not the grant ratio.
    Harness harness(4, 4096);
    MultiChannelRefillConfig cfg =
        multiConfig(2, sysperf::FairnessPolicy::Fcfs);
    cfg.rebalance = true;
    cfg.trigger = RebalanceTrigger::ShardLatency;
    cfg.rebalanceSloNs = 500.0;
    cfg.starveTickThreshold = 3;
    MultiChannelRefillScheduler scheduler(
        *harness.service,
        {{"jam", 0.995, 5.0e4}, {"idle", 0.0, 100.0}}, cfg);

    std::vector<EntropyService::Client> clients;
    for (size_t s = 0; s < 4; ++s) {
        clients.push_back(harness.service->connect(
            "c" + std::to_string(s), Priority::Standard, s));
    }
    uint8_t out[1024];
    double now = 0.0;
    for (int t = 0; t < 20; ++t) {
        for (auto &client : clients)
            client.requestAt(out, sizeof(out), now);
        now += 1.0e5;
        scheduler.tick();
    }
    EXPECT_GE(scheduler.migrations(), 1u);
    EXPECT_EQ(scheduler.placement().channelOfShard[0], 1u)
        << "the measured tail moved the starved shard off channel 0";
}

// -------------------------------------------- deterministic replay

/**
 * The replay regression the multi-channel refactor must preserve:
 * the same client trace under 1-, 2-, and 4-channel placements
 * produces byte-identical per-shard output. Placement only decides
 * which channel's granted time refills a shard; every shard drains
 * its own backend stream in order.
 */
TEST(MultiChannelReplay, ShardOutputIdenticalAcross124Channels)
{
    auto run = [](unsigned channels) {
        Harness harness(4, 4096);
        std::vector<sysperf::WorkloadProfile> traffic;
        for (unsigned c = 0; c < channels; ++c) {
            traffic.push_back(c % 2 == 0
                                  ? sysperf::WorkloadProfile{
                                        "mid", 0.45, 120.0}
                                  : sysperf::WorkloadProfile{
                                        "light", 0.05, 60.0});
        }
        MultiChannelRefillScheduler scheduler(
            *harness.service, traffic,
            multiConfig(channels,
                        sysperf::FairnessPolicy::BufferedFair));

        std::vector<EntropyService::Client> clients;
        for (size_t s = 0; s < 4; ++s) {
            clients.push_back(harness.service->connect(
                "c" + std::to_string(s), Priority::Standard, s));
        }
        // A fixed trace with varying request sizes; interleaves
        // hits, misses, and refills.
        std::vector<std::string> digests;
        std::vector<std::vector<uint8_t>> served(4);
        uint8_t out[640];
        for (int t = 0; t < 40; ++t) {
            for (size_t s = 0; s < 4; ++s) {
                size_t len = 64 + 64 * ((t + s) % 10);
                RequestResult result = clients[s].request(out, len);
                served[s].insert(served[s].end(), out,
                                 out + result.bytes);
            }
            scheduler.tick();
        }
        for (size_t s = 0; s < 4; ++s) {
            digests.push_back(Sha256::hex(Sha256::hash(
                served[s].data(), served[s].size())));
        }
        return digests;
    };

    auto one = run(1);
    auto two = run(2);
    auto four = run(4);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, four);
}

} // anonymous namespace
} // namespace quac::service
