/**
 * @file
 * Tests for closed-loop client placement: least-loaded connect(),
 * online client migration between shards, and the SLO-driven
 * migrator's breach/hysteresis behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "service/entropy_service.hh"
#include "service/placement.hh"

namespace quac::service
{
namespace
{

/** Deterministic backend: byte k of tag t is t + 151 * k. */
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

    static uint8_t
    expected(uint8_t tag, uint64_t k)
    {
        return static_cast<uint8_t>(tag + 151 * k);
    }

  private:
    uint8_t tag_;
    size_t chunk_;
    uint64_t counter_ = 0;
};

void
expectStream(const std::vector<uint8_t> &bytes, uint8_t tag,
             uint64_t from)
{
    for (size_t i = 0; i < bytes.size(); ++i) {
        ASSERT_EQ(bytes[i], TaggedTrng::expected(tag, from + i))
            << "position " << i;
    }
}

TEST(Placement, PolicyNames)
{
    EXPECT_STREQ(placementPolicyName(PlacementPolicy::RoundRobin),
                 "round-robin");
    EXPECT_STREQ(placementPolicyName(PlacementPolicy::LeastLoaded),
                 "least-loaded");
}

TEST(Placement, LeastLoadedConnectAvoidsDrainedShard)
{
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    EntropyServiceConfig cfg;
    cfg.shardCapacityBytes = 128;
    cfg.placement = PlacementPolicy::LeastLoaded;
    EntropyService service({&b0, &b1}, cfg);
    service.refillBelowWatermark();

    // Drain shard 0 completely; shard 1 stays full.
    auto drain = service.connect("drain", Priority::Bulk, 0);
    drain.request(128);
    EXPECT_EQ(service.level(0), 0u);
    EXPECT_GT(service.shardLoadSnapshot(0).load,
              service.shardLoadSnapshot(1).load);

    // Interactive clients see the load; standard stays round-robin.
    auto interactive =
        service.connect("keys", Priority::Interactive);
    EXPECT_EQ(interactive.shard(), 1u);
    auto standard = service.connect("apps", Priority::Standard);
    EXPECT_EQ(standard.shard(), 0u) << "round-robin starts at 0";

    // Round-robin control: a blind service pins interactive to the
    // drained shard.
    TaggedTrng c0(10, 64);
    TaggedTrng c1(20, 64);
    cfg.placement = PlacementPolicy::RoundRobin;
    EntropyService blind({&c0, &c1}, cfg);
    blind.refillBelowWatermark();
    blind.connect("drain", Priority::Bulk, 0).request(128);
    EXPECT_EQ(blind.connect("keys", Priority::Interactive).shard(),
              0u);
}

TEST(Placement, LoadScoreIncludesRecentLatencyTail)
{
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    EntropyServiceConfig cfg;
    cfg.shardCapacityBytes = 128;
    cfg.placement = PlacementPolicy::LeastLoaded;
    EntropyService service({&b0, &b1}, cfg);

    // Shard 0's client misses to synchronous fills (big modelled
    // latency); both shards sit at identical (empty) levels, so the
    // load scores differ only by the measured recent tail.
    auto victim = service.connect("victim", Priority::Standard, 0);
    uint8_t out[512];
    for (int i = 0; i < 8; ++i)
        victim.requestAt(out, sizeof(out),
                         static_cast<double>(i) * 1.0e5);
    EXPECT_EQ(service.level(0), service.level(1));
    EXPECT_GT(service.shardRecentP95Ns(0), 1000.0);
    EXPECT_DOUBLE_EQ(service.shardRecentP95Ns(1), 0.0);
    EXPECT_GT(service.shardLoadSnapshot(0).load,
              service.shardLoadSnapshot(1).load);
    EXPECT_EQ(service.connect("probe", Priority::Interactive).shard(),
              1u);
}

TEST(Placement, LoadScoreIncludesQueuedWorkHorizon)
{
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    EntropyServiceConfig cfg;
    cfg.shardCapacityBytes = 128;
    cfg.placement = PlacementPolicy::LeastLoaded;
    EntropyService service({&b0, &b1}, cfg);

    // Timed misses commit backend work past the newest arrival; a
    // full top-up then clears the latency window and equalizes the
    // levels, so the only signal that shard 0 is still digesting a
    // backlog is the queued-work horizon.
    auto victim = service.connect("victim", Priority::Standard, 0);
    uint8_t out[512];
    for (int i = 0; i < 4; ++i)
        victim.requestAt(out, sizeof(out), 0.0);
    service.refillBelowWatermark();
    EXPECT_EQ(service.level(0), service.level(1));
    EXPECT_DOUBLE_EQ(service.shardRecentP95Ns(0), 0.0);
    EXPECT_GT(service.shardLoadSnapshot(0).load,
              service.shardLoadSnapshot(1).load);
    EXPECT_EQ(service.connect("probe", Priority::Interactive).shard(),
              1u);

    // Advancing the modelled clock past the backlog retires it.
    auto clock = service.connect("clock", Priority::Bulk, 1);
    clock.requestAt(out, 0, 1.0e9);
    EXPECT_DOUBLE_EQ(service.shardLoadSnapshot(0).load,
                     service.shardLoadSnapshot(1).load);
}

TEST(Placement, UntimedWorkloadsAreByteIdenticalAcrossBusyWeight)
{
    // Untimed requests never advance the modelled clock nor record a
    // latency sample, so neither the p95 term nor the busy-horizon
    // term may contribute: after untimed traffic, hits and misses
    // alike, every shard's load is exactly its deficit fraction.
    // That keeps least-loaded placement (and so the bytes of the
    // recorded fig12 campaigns) a function of buffer levels alone.
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    EntropyServiceConfig cfg;
    cfg.shardCapacityBytes = 256;
    cfg.placement = PlacementPolicy::LeastLoaded;
    EntropyService service({&b0, &b1}, cfg);
    service.refillBelowWatermark();

    auto first = service.connect("first", Priority::Interactive);
    first.request(96);
    auto drain = service.connect("drain", Priority::Bulk, first.shard());
    drain.request(128);
    auto second = service.connect("second", Priority::Interactive);
    EXPECT_NE(second.shard(), first.shard()) << "least-loaded pick";
    second.request(64);
    first.request(64); // 32 buffered: a synchronous-fill miss
    EXPECT_EQ(first.stats().synchronousFills, 1u);

    for (size_t s = 0; s < service.shardCount(); ++s) {
        double buffered = static_cast<double>(
            std::min<size_t>(service.level(s), 256));
        EXPECT_DOUBLE_EQ(service.shardLoadSnapshot(s).load,
                         (256.0 - buffered) / 256.0)
            << "shard " << s;
    }
}

TEST(Placement, FullRefillRetiresStaleLatencyTail)
{
    // Congestion history must not outlive the condition it measured:
    // once a shard is topped back up to capacity, its window resets,
    // so a recovered shard whose timed clients migrated away does
    // not repel placements (or trip the latency rebalancer) forever.
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    EntropyServiceConfig cfg;
    cfg.shardCapacityBytes = 128;
    EntropyService service({&b0, &b1}, cfg);

    auto victim = service.connect("victim", Priority::Standard, 0);
    uint8_t out[512];
    for (int i = 0; i < 4; ++i)
        victim.requestAt(out, sizeof(out),
                         static_cast<double>(i) * 1.0e5);
    EXPECT_GT(service.shardRecentP95Ns(0), 1000.0);

    service.refillBelowWatermark();
    EXPECT_DOUBLE_EQ(service.shardRecentP95Ns(0), 0.0);
    // The busy-horizon term still sees the last miss's committed
    // backend time until the modelled clock passes it; advance "now"
    // with a zero-byte timed bulk request (no window sample, no
    // drain), after which the loads must be identical.
    auto clock = service.connect("clock", Priority::Bulk, 1);
    clock.requestAt(out, 0, 1.0e9);
    EXPECT_DOUBLE_EQ(service.shardLoadSnapshot(0).load,
                     service.shardLoadSnapshot(1).load);
}

TEST(Migration, MigrateClientSwitchesStreamNotShardBytes)
{
    TaggedTrng b0(10, 32);
    TaggedTrng b1(20, 32);
    EntropyService service({&b0, &b1}, {.shardCapacityBytes = 64});
    service.refillBelowWatermark();

    auto roamer = service.connect("roamer", Priority::Standard, 0);
    expectStream(roamer.request(32), 10, 0);

    EXPECT_TRUE(service.migrateClient(roamer, 1));
    EXPECT_EQ(roamer.shard(), 1u);
    EXPECT_EQ(roamer.stats().migrations, 1u);
    // The client now drains shard 1's stream from its current
    // position (nothing was drained from it yet).
    expectStream(roamer.request(32), 20, 0);

    // Shard 0's stream is untouched by the migration: a client still
    // pinned there continues exactly where the roamer left off.
    auto stayer = service.connect("stayer", Priority::Standard, 0);
    expectStream(stayer.request(32), 10, 32);

    // Migrating to the current shard is a no-op.
    EXPECT_FALSE(service.migrateClient(roamer, 1));
    EXPECT_EQ(roamer.stats().migrations, 1u);
    EXPECT_THROW(service.migrateClient(roamer, 9), FatalError);
}

/** Shard 0 drained and missing; shard 1 full. */
struct BreachHarness
{
    TaggedTrng b0{10, 64};
    TaggedTrng b1{20, 64};
    EntropyService service;
    EntropyService::Client victim;
    double now = 0.0;

    BreachHarness()
        : service({&b0, &b1},
                  {.shardCapacityBytes = 512}),
          victim(service.connect("victim", Priority::Interactive, 0))
    {
        service.refillBelowWatermark();
        service.connect("drain", Priority::Bulk, 0).request(512);
    }

    /** One timed 256-byte request; misses cost ~537 ns modelled. */
    void
    requestOnce()
    {
        uint8_t out[256];
        victim.requestAt(out, sizeof(out), now);
        now += 1.0e4;
    }
};

TEST(SloMigrator, MovesBreachingClientToBetterShard)
{
    BreachHarness harness;
    SloMigratorConfig cfg;
    cfg.slo[0] = {400.0, 0.0}; // interactive p95 <= 400 ns
    SloMigrator migrator(harness.service, cfg);
    migrator.manage(harness.victim);
    ASSERT_EQ(migrator.managedClients(), 1u);

    size_t total = 0;
    for (int t = 0; t < 6; ++t) {
        harness.requestOnce();
        total += migrator.tick();
    }
    EXPECT_EQ(total, 1u);
    EXPECT_EQ(migrator.migrations(), 1u);
    ASSERT_EQ(migrator.events().size(), 1u);
    EXPECT_EQ(migrator.events()[0].fromShard, 0u);
    EXPECT_EQ(migrator.events()[0].toShard, 1u);
    EXPECT_EQ(harness.victim.shard(), 1u);

    // On the full shard the client hits; no further breaches, no
    // further migrations.
    for (int t = 0; t < 6; ++t) {
        harness.requestOnce();
        migrator.tick();
    }
    EXPECT_EQ(migrator.migrations(), 1u);
    EXPECT_GT(harness.victim.stats().bufferHits, 0u);
}

TEST(SloMigrator, StaysPutWhenNoShardIsMeaningfullyBetter)
{
    // Both shards drained: every request misses everywhere, so the
    // improvement-factor hysteresis must keep the client in place
    // instead of ping-ponging between two equally bad shards.
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    EntropyService service({&b0, &b1},
                           {.shardCapacityBytes = 512});
    auto victim = service.connect("victim", Priority::Interactive, 0);
    auto peer = service.connect("peer", Priority::Interactive, 1);

    SloMigratorConfig cfg;
    cfg.slo[0] = {400.0, 0.0};
    SloMigrator migrator(service, cfg);
    migrator.manage(victim);
    migrator.manage(peer);

    uint8_t out[256];
    double now = 0.0;
    for (int t = 0; t < 20; ++t) {
        victim.requestAt(out, sizeof(out), now);
        peer.requestAt(out, sizeof(out), now);
        now += 1.0e4;
        migrator.tick();
    }
    EXPECT_EQ(migrator.migrations(), 0u);
    EXPECT_EQ(victim.shard(), 0u);
    EXPECT_EQ(peer.shard(), 1u);
}

TEST(SloMigrator, CooldownBoundsPerClientChurn)
{
    BreachHarness harness;
    SloMigratorConfig cfg;
    cfg.slo[0] = {400.0, 0.0};
    SloMigrator migrator(harness.service, cfg);
    migrator.manage(harness.victim);

    // Once the victim has moved to shard 1, shard 1 is kept drained
    // (the victim keeps breaching there) and shard 0 full (a full
    // top-up also retires its latency tail), so shard 0 is the
    // better shard on every tick: only the per-client cooldown
    // holds the victim back from bouncing straight home.
    auto drain1 = harness.service.connect("d1", Priority::Bulk, 1);
    for (int t = 0; t < 24; ++t) {
        harness.requestOnce();
        if (migrator.migrations() > 0) {
            harness.service.refillTick(SIZE_MAX, {0});
            drain1.request(1024);
        }
        migrator.tick();
    }
    ASSERT_EQ(migrator.migrations(), 2u);
    const std::vector<MigrationEvent> &events = migrator.events();
    EXPECT_EQ(events[0].toShard, 1u);
    EXPECT_EQ(events[1].toShard, 0u);
    EXPECT_GE(events[1].tick - events[0].tick, 8u)
        << "the 8-tick cooldown separates the two moves";
}

} // anonymous namespace
} // namespace quac::service
