/**
 * @file
 * Figure 12: QUAC-TRNG throughput available in idle DRAM cycles
 * while SPEC CPU2006 workloads run on a 4-channel DDR4 system.
 *
 * Paper expectations: 10.2 Gb/s average, 3.22 Gb/s minimum,
 * 14.3 Gb/s maximum; memory-bound workloads (lbm, libquantum, mcf)
 * leave the least TRNG bandwidth.
 *
 * Extensions past the paper: a heterogeneous per-channel sweep
 * (each channel runs its own co-runner instead of the workload
 * cloned 4 ways), the DR-STRaNGe entropy-service fairness study,
 * a request-latency study (end-to-end p50/p95/p99 per priority
 * class under fcfs and buffered-fair), and a shard-rebalancing
 * comparison on a starved channel. `--json <path>` writes the
 * latency and rebalancing results machine-readably.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_injection.hh"
#include "core/thermal_governor.hh"
#include "core/trng.hh"
#include "crypto/sha256.hh"
#include "dram/module.hh"
#include "scenario/scenario.hh"
#include "sched/trng_programs.hh"
#include "service/placement.hh"
#include "service/refill_scheduler.hh"
#include "sysperf/channel_sim.hh"
#include "util.hh"

using namespace quac;

namespace
{

/**
 * DR-STRaNGe-style extension: drive the sharded entropy service
 * under each service scenario and fairness policy, draining the
 * buffers with the scenario's client demand each tick and refilling
 * through the scheduler-aware loop (which probes its own iteration
 * cost from the BusScheduler). Reports sustained refill throughput
 * and the slowdown charged to memory traffic.
 */
void
runServiceStudy(double bits_per_iteration, uint64_t seed)
{
    std::printf("\nEntropy-service fairness study "
                "(tick 100 us, 4 shards, 64 KiB SRAM):\n");
    size_t chunk = static_cast<size_t>(bits_per_iteration / 8.0);

    Table table({"scenario", "policy", "refill Gb/s", "demand met",
                 "mem slowdown"});
    for (const auto &scenario : sysperf::serviceScenarios()) {
        // Per-tick client drain in bytes (tick = 0.1 ms).
        double drain_per_tick = scenario.demandBytesPerMs() * 0.1;
        for (auto policy : {sysperf::FairnessPolicy::Fcfs,
                            sysperf::FairnessPolicy::RngPriority,
                            sysperf::FairnessPolicy::BufferedFair}) {
            std::vector<std::unique_ptr<benchutil::CountingTrng>>
                backends;
            std::vector<core::Trng *> pool;
            for (int i = 0; i < 4; ++i) {
                backends.push_back(
                    std::make_unique<benchutil::CountingTrng>(chunk));
                pool.push_back(backends.back().get());
            }
            service::EntropyService svc(
                pool, {.shardCapacityBytes = 16384,
                       .refillWatermark = 0.75,
                       .panicWatermark = 0.25});
            svc.refillBelowWatermark(); // start warm

            service::MultiChannelRefillConfig rcfg;
            rcfg.topology = sched::ChannelTopology::single();
            rcfg.policy = policy;
            rcfg.tickNs = 1.0e5;
            rcfg.seed = seed;
            service::MultiChannelRefillScheduler scheduler(
                svc, {scenario.memoryTraffic}, rcfg);

            // One bulk drain client per shard: partial service is
            // the demand-not-met signal (no synchronous stealing).
            std::vector<service::EntropyService::Client> clients;
            for (size_t s = 0; s < svc.shardCount(); ++s) {
                clients.push_back(svc.connect(
                    "drain", service::Priority::Bulk, s));
            }
            std::vector<uint8_t> sink(1 << 16);
            double served = 0.0;
            double asked = 0.0;
            const int ticks = 200;
            for (int t = 0; t < ticks; ++t) {
                size_t want = static_cast<size_t>(drain_per_tick) /
                              clients.size();
                for (auto &client : clients) {
                    auto result = client.request(sink.data(), want);
                    asked += static_cast<double>(want);
                    served += static_cast<double>(result.bytes);
                }
                scheduler.tick();
            }
            const service::RefillAccounting &acct = scheduler.total();
            table.addRow({scenario.name,
                          sysperf::fairnessPolicyName(policy),
                          Table::num(acct.refillGbps(), 3),
                          Table::num(asked > 0.0 ? served / asked : 1.0,
                                     3),
                          Table::num(acct.memSlowdown(), 3)});
        }
    }
    table.print();
    std::printf("Expected shape: rng-priority meets demand at the "
                "highest memory slowdown; fcfs never slows memory "
                "traffic; buffered-fair sits between.\n");
}

// ------------------------------------------------ latency study

/** One latency-study result row. */
struct LatencyRow
{
    std::string scenario;
    std::string policy;
    std::string priority;
    size_t requests = 0;
    double hitRate = 0.0;
    double p50Ns = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;
};

/** A scenario client handle plus its fractional request budget. */
struct TimedClient
{
    service::EntropyService::Client handle;
    size_t requestBytes;
    double requestsPerTick;
    service::Priority priority;
    double pending = 0.0;
};

service::Priority
mapPriority(unsigned priority)
{
    switch (priority) {
    case 0: return service::Priority::Interactive;
    case 1: return service::Priority::Standard;
    default: return service::Priority::Bulk;
    }
}

/**
 * Drive one (scenario, policy) cell of the latency study: a 4-channel
 * service with heterogeneous per-channel co-runners (scenario traffic
 * on channel 0, corunnerMix() on the rest), clients issuing
 * timestamped requests each tick, refill through the multi-channel
 * scheduler. Returns one row per priority class present.
 */
std::vector<LatencyRow>
runLatencyCell(const sysperf::ServiceScenario &scenario,
               sysperf::FairnessPolicy policy,
               double bits_per_iteration, uint64_t seed, int ticks)
{
    constexpr size_t nshards = 8;
    const double tick_ns = 1.0e5;
    size_t chunk = static_cast<size_t>(bits_per_iteration / 8.0);

    std::vector<std::unique_ptr<benchutil::CountingTrng>> backends;
    std::vector<core::Trng *> pool;
    for (size_t i = 0; i < nshards; ++i) {
        backends.push_back(
            std::make_unique<benchutil::CountingTrng>(chunk));
        pool.push_back(backends.back().get());
    }
    // Capacity sized so a channel's worth of shard deficit exceeds
    // its idle time in a tick: refill is idle-limited rather than
    // capacity-limited, which is where the fairness policies
    // genuinely diverge.
    service::EntropyService svc(pool, {.shardCapacityBytes = 32768,
                                       .refillWatermark = 0.75,
                                       .panicWatermark = 0.25});
    svc.refillBelowWatermark();

    service::MultiChannelRefillConfig mcfg;
    mcfg.topology.channels = 4;
    mcfg.policy = policy;
    mcfg.tickNs = tick_ns;
    mcfg.seed = seed;
    mcfg.installLatencyCost = true;
    service::MultiChannelRefillScheduler scheduler(
        svc, sysperf::corunnerMix(scenario.memoryTraffic, 4), mcfg);

    // A bounded handle population per class, with the class demand
    // spread over the handles so the aggregate rate is preserved.
    // The scenario rates are sized against one channel; a 4-channel
    // system serves 4x the client population, which is what makes
    // the policies contend.
    const double demand_scale = 4.0;
    std::vector<TimedClient> clients;
    for (const auto &cls : scenario.clientClasses) {
        unsigned handles = std::min(cls.clients, 16u);
        double per_handle_requests_per_tick =
            demand_scale * cls.demandBytesPerMs() /
            static_cast<double>(cls.requestBytes) / handles *
            (tick_ns * 1e-6);
        for (unsigned h = 0; h < handles; ++h) {
            clients.push_back({svc.connect(cls.name,
                                           mapPriority(cls.priority)),
                               cls.requestBytes,
                               per_handle_requests_per_tick,
                               mapPriority(cls.priority)});
        }
    }

    std::vector<uint8_t> sink(1 << 17);
    struct Arrival
    {
        double at;
        size_t client;
    };
    std::vector<Arrival> arrivals;
    for (int t = 0; t < ticks; ++t) {
        double tick_start = static_cast<double>(t) * tick_ns;
        // Merge every client's arrivals into simulated-time order
        // before issuing: the queue model charges a request for the
        // modelled work ahead of it, so issue order must follow
        // arrival order within a shard.
        arrivals.clear();
        for (size_t i = 0; i < clients.size(); ++i) {
            TimedClient &client = clients[i];
            client.pending += client.requestsPerTick;
            unsigned n = static_cast<unsigned>(client.pending);
            for (unsigned j = 0; j < n; ++j) {
                arrivals.push_back(
                    {tick_start + (j + 0.5) * tick_ns / n, i});
            }
            client.pending -= n;
        }
        std::sort(arrivals.begin(), arrivals.end(),
                  [](const Arrival &a, const Arrival &b) {
                      return a.at != b.at ? a.at < b.at
                                          : a.client < b.client;
                  });
        for (const Arrival &arrival : arrivals) {
            TimedClient &client = clients[arrival.client];
            client.handle.requestAt(sink.data(), client.requestBytes,
                                    arrival.at);
        }
        scheduler.tick();
    }

    std::vector<LatencyRow> rows;
    for (auto priority : {service::Priority::Interactive,
                          service::Priority::Standard,
                          service::Priority::Bulk}) {
        service::LatencyDistribution dist =
            svc.latencySnapshot(priority);
        if (dist.count() == 0)
            continue;
        uint64_t requests = 0;
        uint64_t hits = 0;
        for (const TimedClient &client : clients) {
            if (client.priority != priority)
                continue;
            service::ClientStats stats = client.handle.stats();
            requests += stats.requests;
            hits += stats.bufferHits;
        }
        LatencyRow row;
        row.scenario = scenario.name;
        row.policy = sysperf::fairnessPolicyName(policy);
        row.priority = service::priorityName(priority);
        row.requests = dist.count();
        row.hitRate = requests ? static_cast<double>(hits) /
                                     static_cast<double>(requests)
                               : 0.0;
        row.p50Ns = dist.p50Ns();
        row.p95Ns = dist.p95Ns();
        row.p99Ns = dist.p99Ns();
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<LatencyRow>
runLatencyStudy(double bits_per_iteration, uint64_t seed, int ticks)
{
    std::printf("\nRequest-latency study (4 channels, 8 shards, "
                "heterogeneous co-runners, %d ticks):\n", ticks);
    std::vector<LatencyRow> rows;
    Table table({"scenario", "policy", "priority", "requests",
                 "hit rate", "p50 ns", "p95 ns", "p99 ns"});
    for (const auto &scenario : sysperf::serviceScenarios()) {
        for (auto policy : {sysperf::FairnessPolicy::Fcfs,
                            sysperf::FairnessPolicy::BufferedFair}) {
            for (LatencyRow &row :
                 runLatencyCell(scenario, policy, bits_per_iteration,
                                seed, ticks)) {
                table.addRow({row.scenario, row.policy, row.priority,
                              std::to_string(row.requests),
                              Table::num(row.hitRate, 3),
                              Table::num(row.p50Ns, 0),
                              Table::num(row.p95Ns, 0),
                              Table::num(row.p99Ns, 0)});
                rows.push_back(std::move(row));
            }
        }
    }
    table.print();
    std::printf("Expected shape: buffered-fair cuts the p95/p99 tail "
                "of the heavier scenarios versus fcfs by escalating "
                "refill below the panic watermark.\n");
    return rows;
}

// --------------------------------------------- rebalancing study

/** Outcome of one starved-channel run (rebalancing on or off). */
struct RebalanceOutcome
{
    bool rebalance = false;
    uint64_t migrations = 0;
    double starvedHitRate = 0.0;
    double starvedP95Ns = 0.0;
    /** SHA-256 of every shard's served byte stream, in shard order. */
    std::vector<std::string> shardDigests;
};

/**
 * The starved-shard case: channel 0 is saturated (97% busy, long
 * bursts), channels 1-3 nearly idle, policy FCFS (no stealing), so
 * the shards placed on channel 0 get no refill. With rebalancing
 * the scheduler migrates them to an idle channel after a few
 * starved ticks; without it they miss to synchronous fills forever.
 * Every served byte is captured per shard so the two runs can be
 * proven byte-identical.
 */
RebalanceOutcome
runRebalanceCase(bool rebalance, double bits_per_iteration,
                 uint64_t seed, int ticks)
{
    constexpr size_t nshards = 8;
    const double tick_ns = 1.0e5;
    size_t chunk = static_cast<size_t>(bits_per_iteration / 8.0);

    std::vector<std::unique_ptr<benchutil::CountingTrng>> backends;
    std::vector<core::Trng *> pool;
    for (size_t i = 0; i < nshards; ++i) {
        backends.push_back(
            std::make_unique<benchutil::CountingTrng>(chunk));
        pool.push_back(backends.back().get());
    }
    service::EntropyService svc(pool, {.shardCapacityBytes = 8192,
                                       .refillWatermark = 0.75,
                                       .panicWatermark = 0.25});
    svc.refillBelowWatermark();

    service::MultiChannelRefillConfig mcfg;
    mcfg.topology.channels = 4;
    mcfg.policy = sysperf::FairnessPolicy::Fcfs;
    mcfg.tickNs = tick_ns;
    mcfg.seed = seed;
    mcfg.rebalance = rebalance;
    mcfg.starveTickThreshold = 3;
    mcfg.installLatencyCost = true;
    std::vector<sysperf::WorkloadProfile> traffic = {
        {"saturated", 0.97, 500.0},
        {"calm", 0.05, 60.0},
        {"calm", 0.05, 60.0},
        {"calm", 0.05, 60.0},
    };
    service::MultiChannelRefillScheduler scheduler(svc, traffic, mcfg);

    // One standard client pinned per shard; shards 0 and 4 sit on
    // the saturated channel under the round-robin placement. The
    // per-tick drain far exceeds the saturated channel's usable
    // idle time, so those shards starve unless migrated.
    std::vector<service::EntropyService::Client> clients;
    for (size_t s = 0; s < nshards; ++s) {
        clients.push_back(svc.connect("pinned",
                                      service::Priority::Standard, s));
    }
    std::vector<std::vector<uint8_t>> served(nshards);
    constexpr size_t request_bytes = 2048;
    uint8_t out[request_bytes];
    for (int t = 0; t < ticks; ++t) {
        double tick_start = static_cast<double>(t) * tick_ns;
        for (size_t s = 0; s < nshards; ++s) {
            auto result = clients[s].requestAt(out, request_bytes,
                                               tick_start);
            served[s].insert(served[s].end(), out,
                             out + result.bytes);
        }
        scheduler.tick();
    }

    RebalanceOutcome outcome;
    outcome.rebalance = rebalance;
    outcome.migrations = scheduler.migrations();
    service::ClientStats starved = clients[0].stats();
    outcome.starvedHitRate =
        starved.requests ? static_cast<double>(starved.bufferHits) /
                               static_cast<double>(starved.requests)
                         : 0.0;
    outcome.starvedP95Ns =
        svc.latencySnapshot(service::Priority::Standard).p95Ns();
    for (size_t s = 0; s < nshards; ++s)
        outcome.shardDigests.push_back(Sha256::hex(
            Sha256::hash(served[s].data(), served[s].size())));
    return outcome;
}

bool
runRebalanceStudy(double bits_per_iteration, uint64_t seed,
                  int ticks, RebalanceOutcome &off,
                  RebalanceOutcome &on)
{
    std::printf("\nShard-rebalancing study (channel 0 saturated, "
                "fcfs, %d ticks):\n", ticks);
    off = runRebalanceCase(false, bits_per_iteration, seed, ticks);
    on = runRebalanceCase(true, bits_per_iteration, seed, ticks);

    bool identical = off.shardDigests == on.shardDigests;
    Table table({"rebalance", "migrations", "starved-shard hit rate",
                 "std p95 ns"});
    for (const RebalanceOutcome *outcome : {&off, &on}) {
        table.addRow({outcome->rebalance ? "on" : "off",
                      std::to_string(outcome->migrations),
                      Table::num(outcome->starvedHitRate, 3),
                      Table::num(outcome->starvedP95Ns, 0)});
    }
    table.print();
    std::printf("Per-shard output bytes identical across runs: %s\n",
                identical ? "YES" : "NO (BUG)");
    std::printf("Expected shape: rebalancing migrates the starved "
                "shards to idle channels, recovering their hit rate "
                "without changing any shard's output bytes.\n");
    return identical;
}

// --------------------------------------------- closed-loop study

/** Client placement mode of one closed-loop run. */
enum class PlacementMode
{
    /** Blind round-robin connect, no rebalancing, no migration. */
    Static,
    /** Shard-level rebalancing driven by grant ratios (PR-4 loop). */
    GrantRatio,
    /**
     * The closed loop: least-loaded connect, SLO-driven client
     * migration, and shard rebalancing triggered by the measured
     * per-shard latency tail instead of grant bookkeeping.
     */
    Latency,
};

const char *
placementModeName(PlacementMode mode)
{
    switch (mode) {
    case PlacementMode::Static: return "static";
    case PlacementMode::GrantRatio: return "grant-ratio";
    case PlacementMode::Latency: return "latency";
    }
    return "?";
}

/** Outcome of one closed-loop run. */
struct ClosedLoopOutcome
{
    std::string mode;
    double interactiveP95Ns = 0.0;
    double interactiveP99Ns = 0.0;
    double standardP99Ns = 0.0;
    double interactiveHitRate = 0.0;
    uint64_t clientMigrations = 0;
    uint64_t shardMigrations = 0;
    /** Every byte each shard served, in serve order. */
    std::vector<std::vector<uint8_t>> served;
};

/** Interactive p99 SLO the closed loop enforces, in modelled ns. */
constexpr double kClosedLoopSloNs = 100.0;

/**
 * One closed-loop run: 8 shards over 4 channels under FCFS, channel
 * 0 saturated by the primary co-runner and the rest running the
 * heterogeneous corunnerMix. Per-shard bulk drains outpace channel
 * 0's trickle of idle bandwidth, so its shards sit empty; after a
 * warm-up, interactive and standard clients connect and issue
 * timestamped requests. Whether they suffer depends only on the
 * placement mode under test.
 */
ClosedLoopOutcome
runClosedLoopCase(PlacementMode mode, double bits_per_iteration,
                  uint64_t seed, int ticks)
{
    constexpr size_t nshards = 8;
    constexpr unsigned nchannels = 4;
    const double tick_ns = 1.0e5;
    size_t chunk = static_cast<size_t>(bits_per_iteration / 8.0);

    std::vector<std::unique_ptr<benchutil::CountingTrng>> backends;
    std::vector<core::Trng *> pool;
    for (size_t i = 0; i < nshards; ++i) {
        backends.push_back(
            std::make_unique<benchutil::CountingTrng>(chunk));
        pool.push_back(backends.back().get());
    }
    service::EntropyServiceConfig scfg;
    scfg.shardCapacityBytes = 8192;
    scfg.refillWatermark = 0.75;
    scfg.panicWatermark = 0.25;
    scfg.placement = mode == PlacementMode::Latency
                         ? service::PlacementPolicy::LeastLoaded
                         : service::PlacementPolicy::RoundRobin;
    service::EntropyService svc(pool, scfg);
    svc.refillBelowWatermark();

    service::MultiChannelRefillConfig mcfg;
    mcfg.topology.channels = nchannels;
    mcfg.policy = sysperf::FairnessPolicy::Fcfs;
    mcfg.tickNs = tick_ns;
    mcfg.seed = seed;
    mcfg.installLatencyCost = true;
    mcfg.rebalance = mode != PlacementMode::Static;
    mcfg.starveTickThreshold = 3;
    if (mode == PlacementMode::Latency) {
        mcfg.trigger = service::RebalanceTrigger::ShardLatency;
        mcfg.rebalanceSloNs = kClosedLoopSloNs;
    }
    std::vector<sysperf::WorkloadProfile> traffic =
        sysperf::corunnerMix({"saturated", 0.97, 500.0}, nchannels);
    service::MultiChannelRefillScheduler scheduler(svc, traffic, mcfg);

    service::SloMigratorConfig migcfg;
    migcfg.slo[0] = {0.0, kClosedLoopSloNs};       // interactive p99
    migcfg.slo[1] = {0.0, 4.0 * kClosedLoopSloNs}; // standard p99
    service::SloMigrator migrator(svc, migcfg);

    ClosedLoopOutcome outcome;
    outcome.mode = placementModeName(mode);
    outcome.served.resize(nshards);

    // One bulk drain per shard; its pressure (2 KiB/tick) dwarfs the
    // saturated channel's usable idle bandwidth.
    std::vector<service::EntropyService::Client> drains;
    for (size_t s = 0; s < nshards; ++s) {
        drains.push_back(
            svc.connect("drain", service::Priority::Bulk, s));
    }
    constexpr size_t drain_bytes = 2048;
    std::vector<uint8_t> buf(1 << 15);
    auto serve = [&](service::EntropyService::Client &client,
                     size_t len, double at) {
        size_t shard = client.shard();
        auto result = std::isnan(at)
                          ? client.request(buf.data(), len)
                          : client.requestAt(buf.data(), len, at);
        outcome.served[shard].insert(outcome.served[shard].end(),
                                     buf.data(),
                                     buf.data() + result.bytes);
    };
    auto drainAll = [&]() {
        for (auto &drain : drains)
            serve(drain, drain_bytes,
                  std::numeric_limits<double>::quiet_NaN());
    };

    // Warm-up: ten drain-only ticks empty the saturated channel's
    // shards while the healthy channels keep theirs topped up, so
    // connect-time load genuinely differs across shards.
    constexpr int warmup = 10;
    for (int t = 0; t < warmup; ++t) {
        drainAll();
        scheduler.tick();
    }

    std::vector<service::EntropyService::Client> interactive;
    for (int i = 0; i < 4; ++i) {
        interactive.push_back(svc.connect(
            "keys" + std::to_string(i), service::Priority::Interactive));
        migrator.manage(interactive.back());
    }
    std::vector<service::EntropyService::Client> standard;
    for (int i = 0; i < 2; ++i) {
        standard.push_back(svc.connect(
            "apps" + std::to_string(i), service::Priority::Standard));
        migrator.manage(standard.back());
    }

    for (int t = 0; t < ticks; ++t) {
        double tick_start = static_cast<double>(warmup + t) * tick_ns;
        drainAll();
        // Two interactive requests per client per tick, one standard,
        // spread across the tick in a fixed arrival order.
        for (size_t i = 0; i < interactive.size(); ++i) {
            serve(interactive[i], 256,
                  tick_start + (0.1 + 0.1 * static_cast<double>(i)) *
                                   tick_ns);
            serve(interactive[i], 256,
                  tick_start + (0.5 + 0.1 * static_cast<double>(i)) *
                                   tick_ns);
        }
        for (size_t i = 0; i < standard.size(); ++i) {
            serve(standard[i], 512,
                  tick_start + (0.45 + 0.1 * static_cast<double>(i)) *
                                   tick_ns);
        }
        scheduler.tick();
        if (mode == PlacementMode::Latency)
            migrator.tick();
    }

    outcome.interactiveP95Ns =
        svc.latencySnapshot(service::Priority::Interactive).p95Ns();
    outcome.interactiveP99Ns =
        svc.latencySnapshot(service::Priority::Interactive).p99Ns();
    outcome.standardP99Ns =
        svc.latencySnapshot(service::Priority::Standard).p99Ns();
    uint64_t requests = 0;
    uint64_t hits = 0;
    for (const auto &client : interactive) {
        service::ClientStats stats = client.stats();
        requests += stats.requests;
        hits += stats.bufferHits;
    }
    outcome.interactiveHitRate =
        requests ? static_cast<double>(hits) /
                       static_cast<double>(requests)
                 : 0.0;
    outcome.clientMigrations = migrator.migrations();
    outcome.shardMigrations = scheduler.migrations();
    return outcome;
}

/**
 * Per-shard byte identity across placement modes: different modes
 * drain different *amounts* from each shard (clients sit elsewhere),
 * but every byte a shard serves must come from the same backend
 * stream position regardless of who asked — so the streams must
 * agree on their common prefix, SHA-verified.
 */
bool
shardPrefixesIdentical(const std::vector<ClosedLoopOutcome *> &runs)
{
    size_t nshards = runs[0]->served.size();
    for (size_t s = 0; s < nshards; ++s) {
        size_t common = runs[0]->served[s].size();
        for (const ClosedLoopOutcome *run : runs)
            common = std::min(common, run->served[s].size());
        std::string reference = Sha256::hex(
            Sha256::hash(runs[0]->served[s].data(), common));
        for (const ClosedLoopOutcome *run : runs) {
            if (Sha256::hex(Sha256::hash(run->served[s].data(),
                                         common)) != reference)
                return false;
        }
    }
    return true;
}

bool
runClosedLoopStudy(double bits_per_iteration, uint64_t seed,
                   int ticks, std::vector<ClosedLoopOutcome> &outcomes,
                   bool &identical)
{
    std::printf("\nClosed-loop placement study (channel 0 saturated, "
                "heterogeneous co-runners, fcfs, %d ticks, "
                "interactive p99 SLO %.0f ns):\n",
                ticks, kClosedLoopSloNs);
    outcomes.clear();
    for (PlacementMode mode :
         {PlacementMode::Static, PlacementMode::GrantRatio,
          PlacementMode::Latency}) {
        outcomes.push_back(
            runClosedLoopCase(mode, bits_per_iteration, seed, ticks));
    }

    Table table({"mode", "int hit rate", "int p95 ns", "int p99 ns",
                 "std p99 ns", "client migs", "shard migs",
                 "SLO met"});
    for (const ClosedLoopOutcome &outcome : outcomes) {
        table.addRow(
            {outcome.mode, Table::num(outcome.interactiveHitRate, 3),
             Table::num(outcome.interactiveP95Ns, 0),
             Table::num(outcome.interactiveP99Ns, 0),
             Table::num(outcome.standardP99Ns, 0),
             std::to_string(outcome.clientMigrations),
             std::to_string(outcome.shardMigrations),
             outcome.interactiveP99Ns <= kClosedLoopSloNs ? "yes"
                                                          : "no"});
    }
    table.print();

    std::vector<ClosedLoopOutcome *> runs;
    for (ClosedLoopOutcome &outcome : outcomes)
        runs.push_back(&outcome);
    identical = shardPrefixesIdentical(runs);
    bool improves =
        outcomes[2].interactiveP99Ns < outcomes[0].interactiveP99Ns;
    std::printf("Per-shard output bytes identical across modes: %s\n",
                identical ? "YES" : "NO (BUG)");
    std::printf("Latency-driven p99 beats static round-robin: %s "
                "(%.0f vs %.0f ns)\n",
                improves ? "YES" : "NO",
                outcomes[2].interactiveP99Ns,
                outcomes[0].interactiveP99Ns);
    std::printf("Expected shape: static leaves interactive clients "
                "missing on the saturated channel's shards forever; "
                "grant-ratio rebalancing refills those shards; the "
                "latency-driven loop additionally places and "
                "migrates the clients themselves, meeting the "
                "tightest tail.\n");
    return improves;
}

// ------------------------------------------------- health study

/** Outcome of one fault-injection run (health on or off). */
struct HealthOutcome
{
    bool health = false;
    uint64_t quarantines = 0;
    uint64_t readmissions = 0;
    /** Faulty bank's windowsTested when quarantine fired (0 = never). */
    uint64_t quarantineWindow = 0;
    uint64_t unhealthyBytesServed = 0;
    uint64_t unhealthyBytesDropped = 0;
    uint64_t resourcings = 0;
    /** Standard-class p99 per phase (pre-fault / fault / recovered). */
    double baselineP99Ns = 0.0;
    double faultyP99Ns = 0.0;
    double recoveredP99Ns = 0.0;
    /** Every byte each shard served, in serve order. */
    std::vector<std::vector<uint8_t>> served;
};

/** The injected fault the health study detects. */
core::FaultSpec
healthStudyFault()
{
    core::FaultSpec fault;
    fault.bank = 1;
    fault.mode = core::FaultMode::BiasedBits;
    fault.startByte = 24576;
    fault.lengthBytes = 32768;
    fault.biasP = 0.95;
    return fault;
}

/** Health-study phase lengths, in scheduler ticks. */
constexpr int kHealthBaselineTicks = 24;
constexpr int kHealthFaultTicks = 56;
constexpr int kHealthRecoveryTicks = 24;

/**
 * One fault-injection run: 4 shards homed on banks 0-3 of a 5-bank
 * software pool (bank 4 is the spare), bank 1 biased to P(one)=0.95
 * for a bounded 32 KiB span of its stream. One pinned standard
 * client drains each shard while the multi-channel scheduler refills
 * (its tick drives the health control loop). With health on, the
 * monitor quarantines bank 1 within a bounded number of windows,
 * shard 1 re-sources to the spare, probation draws walk bank 1 past
 * the fault, and the bank is re-admitted — all without touching the
 * healthy shards' output bytes.
 */
HealthOutcome
runHealthCase(bool health, uint64_t seed)
{
    constexpr size_t nshards = 4;
    constexpr size_t nbanks = 5;
    const double tick_ns = 1.0e5;

    std::vector<std::unique_ptr<core::SoftwareTrng>> sw;
    std::vector<core::Trng *> pool;
    for (size_t b = 0; b < nbanks; ++b) {
        sw.push_back(std::make_unique<core::SoftwareTrng>(
            0xC0FFEE + b, "sw" + std::to_string(b)));
        pool.push_back(sw.back().get());
    }
    core::FaultInjectedTrng faulty(*pool[1], healthStudyFault(), seed);
    pool[1] = &faulty;

    service::EntropyServiceConfig scfg;
    scfg.shards = nshards;
    scfg.shardCapacityBytes = 8192;
    scfg.refillWatermark = 0.75;
    scfg.panicWatermark = 0.25;
    scfg.health.enabled = health;
    scfg.health.windowBits = 8192;
    scfg.health.probationWindows = 3;
    service::EntropyService svc(pool, scfg);
    svc.refillBelowWatermark();

    service::MultiChannelRefillConfig mcfg;
    mcfg.topology.channels = 2;
    mcfg.policy = sysperf::FairnessPolicy::BufferedFair;
    mcfg.tickNs = tick_ns;
    mcfg.seed = seed;
    mcfg.installLatencyCost = true;
    std::vector<sysperf::WorkloadProfile> traffic = {
        {"calm", 0.05, 60.0},
        {"calm", 0.05, 60.0},
    };
    service::MultiChannelRefillScheduler scheduler(svc, traffic, mcfg);

    std::vector<service::EntropyService::Client> clients;
    for (size_t s = 0; s < nshards; ++s) {
        clients.push_back(svc.connect(
            "pinned", service::Priority::Standard, s));
    }

    HealthOutcome outcome;
    outcome.health = health;
    outcome.served.resize(nshards);
    constexpr size_t request_bytes = 512;
    uint8_t out[request_bytes];
    int tick = 0;
    auto runPhase = [&](int ticks) {
        for (int t = 0; t < ticks; ++t, ++tick) {
            double tick_start = static_cast<double>(tick) * tick_ns;
            for (size_t s = 0; s < nshards; ++s) {
                auto result = clients[s].requestAt(out, request_bytes,
                                                   tick_start);
                outcome.served[s].insert(outcome.served[s].end(), out,
                                         out + result.bytes);
            }
            scheduler.tick();
        }
        double p99 =
            svc.latencySnapshot(service::Priority::Standard).p99Ns();
        svc.resetLatencyStats();
        return p99;
    };

    outcome.baselineP99Ns = runPhase(kHealthBaselineTicks);
    outcome.faultyP99Ns = runPhase(kHealthFaultTicks);
    outcome.recoveredP99Ns = runPhase(kHealthRecoveryTicks);

    service::EntropyService::HealthStats hstats = svc.healthStats();
    outcome.quarantines = hstats.quarantines;
    outcome.readmissions = hstats.readmissions;
    outcome.unhealthyBytesServed = hstats.unhealthyBytesServed;
    outcome.unhealthyBytesDropped = hstats.unhealthyBytesDropped;
    outcome.resourcings = hstats.shardResourcings;
    if (const service::HealthMonitor *monitor = svc.healthMonitor()) {
        for (const service::HealthEvent &event : monitor->events()) {
            if (event.kind == service::HealthEvent::Kind::Quarantine &&
                event.bank == healthStudyFault().bank) {
                outcome.quarantineWindow = event.window;
                break;
            }
        }
    }
    return outcome;
}

/** Structural verdicts of the health study (CI-asserted). */
struct HealthVerdict
{
    HealthOutcome off;
    HealthOutcome on;
    /** Detection bound, in windows of the faulty bank's stream. */
    uint64_t quarantineBound = 0;
    bool quarantined = false;
    bool withinBound = false;
    bool readmitted = false;
    bool healthyShardsIdentical = false;
    bool p99Recovered = false;

    bool pass() const
    {
        return quarantined && withinBound && readmitted &&
               healthyShardsIdentical &&
               on.unhealthyBytesServed == 0;
    }
};

HealthVerdict
runHealthStudy(uint64_t seed)
{
    core::FaultSpec fault = healthStudyFault();
    std::printf("\nHealth-monitoring fault-injection study "
                "(4 shards on 5 software banks, bank %zu biased "
                "P(one)=%.2f for %zu KiB):\n",
                fault.bank, fault.biasP, fault.lengthBytes / 1024);

    HealthVerdict verdict;
    verdict.off = runHealthCase(false, seed);
    verdict.on = runHealthCase(true, seed);

    // Detection bound: the faulty span begins startByte into the
    // bank's stream, so the monitor has seen start/window clean
    // windows before the first faulty one; kFailWindowLimit failing
    // windows plus alignment slack later it must have quarantined.
    const uint64_t window_bytes = 8192 / 8;
    verdict.quarantineBound = fault.startByte / window_bytes +
                              service::kFailWindowLimit + 4;
    verdict.quarantined = verdict.on.quarantines >= 1;
    verdict.withinBound =
        verdict.on.quarantineWindow > 0 &&
        verdict.on.quarantineWindow <= verdict.quarantineBound;
    verdict.readmitted = verdict.on.readmissions >= 1;

    // Shards homed on healthy banks must serve identical bytes
    // whether or not monitoring runs: observation never consumes a
    // bank's stream, and probation draws only touch the faulty bank.
    verdict.healthyShardsIdentical = true;
    for (size_t s = 0; s < verdict.on.served.size(); ++s) {
        if (s == fault.bank)
            continue;
        if (Sha256::hex(Sha256::hash(verdict.on.served[s].data(),
                                     verdict.on.served[s].size())) !=
            Sha256::hex(Sha256::hash(verdict.off.served[s].data(),
                                     verdict.off.served[s].size())))
            verdict.healthyShardsIdentical = false;
    }
    verdict.p99Recovered =
        verdict.on.recoveredP99Ns <=
        2.0 * verdict.on.baselineP99Ns + 100.0;

    Table table({"health", "quarantines", "readmits", "q window",
                 "dropped B", "served bad B", "base p99",
                 "fault p99", "recov p99"});
    for (const HealthOutcome *outcome :
         {&verdict.off, &verdict.on}) {
        table.addRow({outcome->health ? "on" : "off",
                      std::to_string(outcome->quarantines),
                      std::to_string(outcome->readmissions),
                      std::to_string(outcome->quarantineWindow),
                      std::to_string(outcome->unhealthyBytesDropped),
                      std::to_string(outcome->unhealthyBytesServed),
                      Table::num(outcome->baselineP99Ns, 0),
                      Table::num(outcome->faultyP99Ns, 0),
                      Table::num(outcome->recoveredP99Ns, 0)});
    }
    table.print();
    std::printf("Quarantine within %llu windows: %s; re-admitted: "
                "%s; healthy shards byte-identical: %s; unhealthy "
                "bytes served: %llu; p99 recovered: %s\n",
                static_cast<unsigned long long>(
                    verdict.quarantineBound),
                verdict.withinBound ? "YES" : "NO (BUG)",
                verdict.readmitted ? "YES" : "NO (BUG)",
                verdict.healthyShardsIdentical ? "YES" : "NO (BUG)",
                static_cast<unsigned long long>(
                    verdict.on.unhealthyBytesServed),
                verdict.p99Recovered ? "YES" : "NO");
    std::printf("Expected shape: the biased span trips the "
                "continuous tests within failWindowLimit windows, "
                "the shard re-sources to the spare bank, probation "
                "draws walk the bank past the fault and re-admit it, "
                "and no detected-unhealthy byte is ever served.\n");
    return verdict;
}

// ---------------------------------- scenario campaign studies

/**
 * One scenario campaign study: a timed failure campaign replayed
 * attached (ScenarioEngine driving the fault) and detached (the same
 * request schedule against a healthy stack), with the campaign's
 * structural effects, the latency recovery, and byte-level replay
 * identity all CI-asserted.
 */
struct ScenarioStudyOutcome
{
    std::string name;
    std::string campaign;
    scenario::ScenarioEngine::Counters counters;
    /** Per-phase p99 of the protected class (pre / during / after). */
    double baselineP99Ns = 0.0;
    double disturbedP99Ns = 0.0;
    double recoveredP99Ns = 0.0;
    uint64_t failovers = 0;
    uint64_t failbacks = 0;
    uint64_t escalatedTicks = 0;
    uint64_t quarantines = 0;
    uint64_t readmissions = 0;
    uint64_t unhealthyBytesServed = 0;
    uint64_t queuedAtEnd = 0;
    /** Campaign-specific structural effects all landed. */
    bool eventsApplied = false;
    /** Every burst client not denied was eventually admitted. */
    bool admitted = true;
    /** Detached streams are byte-identical (or an exact prefix of)
     * the attached streams on every asserted shard. */
    bool bytesIdentical = false;
    bool p99Recovered = false;

    bool pass() const
    {
        return eventsApplied && admitted && bytesIdentical &&
               p99Recovered && unhealthyBytesServed == 0 &&
               queuedAtEnd == 0;
    }
};

/**
 * Replay-identity check between a detached reference run and the
 * attached campaign run. With flash crowds the attached run serves
 * extra bulk bytes interleaved into the same shard streams, so the
 * invariant is prefix identity over the shorter stream: the campaign
 * may change WHO gets bytes and WHEN, never WHICH bytes a healthy
 * shard serves. @p skip excludes shards the campaign legitimately
 * diverges (the retuned thermal backend, the re-sourced fault bank).
 */
bool
scenarioStreamsMatch(const std::vector<std::vector<uint8_t>> &ref,
                     const std::vector<std::vector<uint8_t>> &got,
                     const std::vector<size_t> &skip, bool prefix)
{
    for (size_t s = 0; s < ref.size(); ++s) {
        if (std::find(skip.begin(), skip.end(), s) != skip.end())
            continue;
        if (!prefix && got[s].size() != ref[s].size())
            return false;
        size_t n = std::min(ref[s].size(), got[s].size());
        if (n == 0)
            return false; // a vacuous match proves nothing
        if (Sha256::hex(Sha256::hash(ref[s].data(), n)) !=
            Sha256::hex(Sha256::hash(got[s].data(), n)))
            return false;
    }
    return true;
}

/** Drive every admitted flash-crowd client once at its issuing
 * phase's request size (@p fallback_bytes for an untagged client),
 * recording served bytes into the per-shard streams (serve order
 * matters for the replay-identity check). */
void
driveCrowd(const scenario::ScenarioEngine &engine, double tick_start,
           size_t fallback_bytes,
           std::vector<std::vector<uint8_t>> &served)
{
    std::vector<uint8_t> buf;
    size_t idx = 0;
    for (const scenario::ScenarioEngine::CrowdClient &crowd :
         engine.crowdClients()) {
        service::EntropyService::Client client = crowd.client;
        size_t bytes = crowd.requestBytes > 0 ? crowd.requestBytes
                                              : fallback_bytes;
        buf.resize(bytes);
        auto result = client.requestAt(
            buf.data(), bytes,
            tick_start + 1.0e3 * static_cast<double>(++idx));
        served[client.shard()].insert(served[client.shard()].end(),
                                      buf.begin(),
                                      buf.begin() + result.bytes);
    }
}

/**
 * Campaign 1 — channel outage and recovery. Four shards over two
 * channels; channel 0 fails at tick 20 and recovers at tick 50. The
 * displaced shards fail over to channel 1, keep refilling through
 * the outage, and return home on recovery; every shard's served
 * stream is byte-identical to a run without the outage, and the
 * standard-class p99 is back within the recovery bound after a
 * settle window.
 */
ScenarioStudyOutcome
runChannelFailScenario(uint64_t seed)
{
    constexpr size_t nshards = 4;
    constexpr int kBaseline = 20;
    constexpr int kOutage = 30;
    constexpr int kSettle = 8;
    constexpr int kSteady = 22;
    const double tick_ns = 1.0e5;

    ScenarioStudyOutcome outcome;
    outcome.name = "channel_failure";
    outcome.campaign = "chfail:0:20:30";

    auto run = [&](bool attach) {
        std::vector<std::unique_ptr<core::SoftwareTrng>> sw;
        std::vector<core::Trng *> pool;
        for (size_t b = 0; b < nshards; ++b) {
            sw.push_back(std::make_unique<core::SoftwareTrng>(
                0xF00D + b, "sw" + std::to_string(b)));
            pool.push_back(sw.back().get());
        }
        service::EntropyServiceConfig scfg;
        scfg.shards = nshards;
        scfg.shardCapacityBytes = 8192;
        scfg.refillWatermark = 0.75;
        scfg.panicWatermark = 0.25;
        service::EntropyService svc(pool, scfg);
        svc.refillBelowWatermark();

        service::MultiChannelRefillConfig mcfg;
        mcfg.topology.channels = 2;
        mcfg.policy = sysperf::FairnessPolicy::BufferedFair;
        mcfg.tickNs = tick_ns;
        mcfg.seed = seed;
        mcfg.installLatencyCost = true;
        std::vector<sysperf::WorkloadProfile> traffic = {
            {"calm", 0.05, 60.0}, {"calm", 0.05, 60.0}};
        service::MultiChannelRefillScheduler scheduler(svc, traffic,
                                                       mcfg);
        auto engine =
            attach ? std::make_unique<scenario::ScenarioEngine>(
                         svc, scheduler,
                         scenario::ScenarioSpec::parse(
                             outcome.campaign))
                   : nullptr;

        std::vector<service::EntropyService::Client> clients;
        for (size_t s = 0; s < nshards; ++s) {
            clients.push_back(svc.connect(
                "pinned", service::Priority::Standard, s));
        }
        std::vector<std::vector<uint8_t>> served(nshards);
        uint8_t out[512];
        uint64_t tick = 0;
        auto runPhase = [&](int ticks) {
            for (int t = 0; t < ticks; ++t, ++tick) {
                if (engine)
                    engine->beginTick(tick);
                double tick_start =
                    static_cast<double>(tick) * tick_ns;
                for (size_t s = 0; s < nshards; ++s) {
                    auto result = clients[s].requestAt(
                        out, sizeof(out), tick_start);
                    served[s].insert(served[s].end(), out,
                                     out + result.bytes);
                }
                scheduler.tick();
            }
            double p99 = svc.latencySnapshot(
                                service::Priority::Standard)
                             .p99Ns();
            svc.resetLatencyStats();
            return p99;
        };
        double base = runPhase(kBaseline);
        double disturbed = runPhase(kOutage + kSettle);
        double recovered = runPhase(kSteady);
        if (attach) {
            outcome.baselineP99Ns = base;
            outcome.disturbedP99Ns = disturbed;
            outcome.recoveredP99Ns = recovered;
            outcome.counters = engine->counters();
            outcome.failovers = scheduler.failovers();
            outcome.failbacks = scheduler.failbacks();
            outcome.unhealthyBytesServed =
                svc.healthStats().unhealthyBytesServed;
        }
        return served;
    };

    std::vector<std::vector<uint8_t>> detached = run(false);
    std::vector<std::vector<uint8_t>> attached = run(true);
    // Round-robin homes shards 0 and 2 on channel 0: both must fail
    // over and both must return.
    outcome.eventsApplied = outcome.counters.channelFailures == 1 &&
                            outcome.counters.channelRecoveries == 1 &&
                            outcome.failovers == 2 &&
                            outcome.failbacks == 2;
    outcome.bytesIdentical =
        scenarioStreamsMatch(detached, attached, {}, false);
    outcome.p99Recovered = outcome.recoveredP99Ns <=
                           2.0 * outcome.baselineP99Ns + 100.0;
    return outcome;
}

/**
 * Campaign 2 — online thermal drift. Backend 0 is a real QuacTrng
 * on the reduced test geometry under a core::ThermalGovernor; the
 * temperature ramps 45→85 °C across a 30-tick window. Band-edge
 * crossings switch the generator's column sets online (no stop, no
 * re-setup) and flush the suspect spans buffered across each switch;
 * the shards homed on untouched software banks replay byte-exact.
 */
ScenarioStudyOutcome
runThermalDriftScenario(uint64_t seed)
{
    constexpr size_t nshards = 4;
    constexpr int kBaseline = 20;
    constexpr int kDrift = 30;
    constexpr int kSettle = 6;
    constexpr int kSteady = 20;
    const double tick_ns = 1.0e5;

    ScenarioStudyOutcome outcome;
    outcome.name = "thermal_drift";
    outcome.campaign = "drift:20:30:45:85";

    auto run = [&](bool attach) {
        dram::ModuleSpec spec;
        spec.geometry = dram::Geometry::testScale();
        spec.seed = 2021;
        dram::DramModule module(spec);
        core::QuacTrngConfig tcfg;
        tcfg.banks = {0, 1};
        tcfg.characterizeStride = 1;
        tcfg.sibEntropyTarget = 24.0;
        tcfg.threads = 2;
        core::QuacTrng trng(module, tcfg);
        core::ThermalGovernorConfig gcfg;
        gcfg.minC = 30.0;
        gcfg.maxC = 90.0;
        gcfg.bands = 8;
        core::ThermalGovernor governor(module, trng, gcfg);

        std::vector<std::unique_ptr<core::SoftwareTrng>> sw;
        std::vector<core::Trng *> pool = {&trng};
        for (size_t b = 1; b < nshards; ++b) {
            sw.push_back(std::make_unique<core::SoftwareTrng>(
                0xD1A7 + b, "sw" + std::to_string(b)));
            pool.push_back(sw.back().get());
        }
        service::EntropyServiceConfig scfg;
        scfg.shards = nshards;
        scfg.shardCapacityBytes = 4096;
        scfg.refillWatermark = 0.75;
        scfg.panicWatermark = 0.25;
        service::EntropyService svc(pool, scfg);
        svc.refillBelowWatermark();

        service::MultiChannelRefillConfig mcfg;
        mcfg.topology.channels = 2;
        mcfg.policy = sysperf::FairnessPolicy::BufferedFair;
        mcfg.tickNs = tick_ns;
        mcfg.seed = seed;
        mcfg.installLatencyCost = true;
        std::vector<sysperf::WorkloadProfile> traffic = {
            {"calm", 0.05, 60.0}, {"calm", 0.05, 60.0}};
        service::MultiChannelRefillScheduler scheduler(svc, traffic,
                                                       mcfg);
        auto engine =
            attach ? std::make_unique<scenario::ScenarioEngine>(
                         svc, scheduler,
                         scenario::ScenarioSpec::parse(
                             outcome.campaign),
                         &governor)
                   : nullptr;

        std::vector<service::EntropyService::Client> clients;
        for (size_t s = 0; s < nshards; ++s) {
            clients.push_back(svc.connect(
                "pinned", service::Priority::Standard, s));
        }
        std::vector<std::vector<uint8_t>> served(nshards);
        uint8_t out[256];
        uint64_t tick = 0;
        auto runPhase = [&](int ticks) {
            for (int t = 0; t < ticks; ++t, ++tick) {
                if (engine)
                    engine->beginTick(tick);
                double tick_start =
                    static_cast<double>(tick) * tick_ns;
                for (size_t s = 0; s < nshards; ++s) {
                    auto result = clients[s].requestAt(
                        out, sizeof(out), tick_start);
                    served[s].insert(served[s].end(), out,
                                     out + result.bytes);
                }
                scheduler.tick();
            }
            double p99 = svc.latencySnapshot(
                                service::Priority::Standard)
                             .p99Ns();
            svc.resetLatencyStats();
            return p99;
        };
        double base = runPhase(kBaseline);
        double disturbed = runPhase(kDrift + kSettle);
        double recovered = runPhase(kSteady);
        if (attach) {
            outcome.baselineP99Ns = base;
            outcome.disturbedP99Ns = disturbed;
            outcome.recoveredP99Ns = recovered;
            outcome.counters = engine->counters();
            outcome.unhealthyBytesServed =
                svc.healthStats().unhealthyBytesServed;
        }
        return served;
    };

    std::vector<std::vector<uint8_t>> detached = run(false);
    std::vector<std::vector<uint8_t>> attached = run(true);
    // The ramp must cross at least one 7.5 °C band edge and flush
    // the suspect bytes buffered across the switch.
    outcome.eventsApplied = outcome.counters.bandSwitches >= 1 &&
                            outcome.counters.suspectBytesDropped > 0;
    // Shard 0 legitimately diverges: its generator was retuned.
    outcome.bytesIdentical =
        scenarioStreamsMatch(detached, attached, {0}, false);
    outcome.p99Recovered = outcome.recoveredP99Ns <=
                           2.0 * outcome.baselineP99Ns + 100.0;
    return outcome;
}

/**
 * Campaign 3 — flash crowd through the admission gate. Interactive
 * clients first run oversized requests that wreck the recent tail
 * (the gate's headroom signal) and escalate both channels' refill
 * policy; a 12-client bulk burst then arrives mid-breach. The gate
 * queues up to its bound, denies the overflow, and releases the
 * queue FIFO once the interactive tail recovers — every non-denied
 * client is eventually admitted, and the detached run's streams are
 * an exact prefix of the attached run's.
 */
ScenarioStudyOutcome
runFlashCrowdScenario(uint64_t seed)
{
    constexpr size_t nshards = 4;
    constexpr int kWarm = 6;
    constexpr int kInflate = 12;   // ticks 6..17; crowd at 10..13
    constexpr int kTransition = 18;
    constexpr int kSteady = 20;    // ticks 36..55
    constexpr size_t kCrowdBytes = 256;
    const double kSloNs = 400.0;
    const double tick_ns = 1.0e5;

    ScenarioStudyOutcome outcome;
    outcome.name = "flash_crowd";
    outcome.campaign = "crowd:10:4:12:256";

    auto run = [&](bool attach) {
        std::vector<std::unique_ptr<core::SoftwareTrng>> sw;
        std::vector<core::Trng *> pool;
        for (size_t b = 0; b < nshards; ++b) {
            sw.push_back(std::make_unique<core::SoftwareTrng>(
                0xBEEF + b, "sw" + std::to_string(b)));
            pool.push_back(sw.back().get());
        }
        service::EntropyServiceConfig scfg;
        scfg.shards = nshards;
        scfg.shardCapacityBytes = 4096;
        scfg.refillWatermark = 0.75;
        scfg.panicWatermark = 0.25;
        scfg.recentLatencyWindow = 16;
        scfg.admission.enabled = true;
        scfg.admission.interactiveSloNs = kSloNs;
        scfg.admission.maxQueuedConnects = 8;
        scfg.admission.maxBackoffTicks = 8;
        service::EntropyService svc(pool, scfg);
        svc.refillBelowWatermark();

        service::MultiChannelRefillConfig mcfg;
        mcfg.topology.channels = 2;
        mcfg.policy = sysperf::FairnessPolicy::BufferedFair;
        mcfg.tickNs = tick_ns;
        mcfg.seed = seed;
        mcfg.installLatencyCost = true;
        mcfg.sloEscalation = true;
        mcfg.escalateSloNs = kSloNs;
        std::vector<sysperf::WorkloadProfile> traffic = {
            {"calm", 0.05, 60.0}, {"calm", 0.05, 60.0}};
        service::MultiChannelRefillScheduler scheduler(svc, traffic,
                                                       mcfg);
        auto engine =
            attach ? std::make_unique<scenario::ScenarioEngine>(
                         svc, scheduler,
                         scenario::ScenarioSpec::parse(
                             outcome.campaign))
                   : nullptr;

        std::vector<service::EntropyService::Client> clients;
        for (size_t s = 0; s < nshards; ++s) {
            clients.push_back(svc.connect(
                "fg", service::Priority::Interactive, s));
        }
        std::vector<std::vector<uint8_t>> served(nshards);
        std::vector<uint8_t> out(8192);
        uint64_t tick = 0;
        auto runPhase = [&](int ticks, size_t request_bytes) {
            for (int t = 0; t < ticks; ++t, ++tick) {
                double tick_start =
                    static_cast<double>(tick) * tick_ns;
                for (size_t s = 0; s < nshards; ++s) {
                    auto result = clients[s].requestAt(
                        out.data(), request_bytes, tick_start);
                    served[s].insert(served[s].end(), out.begin(),
                                     out.begin() + result.bytes);
                }
                if (engine) {
                    driveCrowd(*engine, tick_start, kCrowdBytes,
                               served);
                    // Connects arrive after the tick's foreground
                    // traffic: the gate prices them on the tail this
                    // tick just produced (each full top-up retires
                    // the window, so pre-traffic probes see a clean
                    // slate).
                    engine->beginTick(tick);
                }
                scheduler.tick();
            }
            double p99 = svc.latencySnapshot(
                                service::Priority::Interactive)
                             .p99Ns();
            svc.resetLatencyStats();
            return p99;
        };
        double base = runPhase(kWarm, 64);
        // Oversized requests always overrun the 4 KiB shard buffer:
        // guaranteed misses, a wrecked recent tail, thin headroom.
        double disturbed = runPhase(kInflate, 8192);
        runPhase(kTransition, 64); // tail ages out, queue drains
        double recovered = runPhase(kSteady, 64);
        if (attach) {
            outcome.baselineP99Ns = base;
            outcome.disturbedP99Ns = disturbed;
            outcome.recoveredP99Ns = recovered;
            outcome.counters = engine->counters();
            outcome.escalatedTicks = scheduler.escalatedTicks();
            outcome.queuedAtEnd = svc.admissionStats().queuedNow;
            outcome.unhealthyBytesServed =
                svc.healthStats().unhealthyBytesServed;
        }
        return served;
    };

    std::vector<std::vector<uint8_t>> detached = run(false);
    std::vector<std::vector<uint8_t>> attached = run(true);
    // All 12 arrive mid-breach: 8 fill the queue, 4 bounce off the
    // bound, and the breach escalates the channels' refill policy.
    outcome.eventsApplied = outcome.counters.crowdAttempted == 12 &&
                            outcome.counters.crowdQueued == 8 &&
                            outcome.counters.crowdDenied == 4 &&
                            outcome.escalatedTicks >= 1;
    outcome.admitted = outcome.counters.crowdAdmitted == 8;
    outcome.bytesIdentical =
        scenarioStreamsMatch(detached, attached, {}, true);
    // The study's recovery bound is the admission SLO itself.
    outcome.p99Recovered = outcome.recoveredP99Ns <= kSloNs;
    return outcome;
}

/**
 * Campaign 4 — the composed worst day: a biased bank (health
 * quarantine + re-source + probation re-admit), a channel outage
 * spanning part of the fault, and a flash crowd during recovery, all
 * in one campaign string. The detached reference is the same
 * schedule against a fully healthy stack: shards never touched by
 * the fault must replay as an exact prefix, no detected-unhealthy
 * byte is served, and the standard tail recovers.
 */
ScenarioStudyOutcome
runMultiFaultScenario(uint64_t seed)
{
    constexpr size_t nshards = 4;
    constexpr size_t nbanks = 5;
    constexpr int kBaseline = 24;
    constexpr int kDisturbed = 72;
    constexpr int kSteady = 24;
    constexpr size_t kCrowdBytes = 256;
    const double tick_ns = 1.0e5;

    ScenarioStudyOutcome outcome;
    outcome.name = "multi_fault";
    outcome.campaign = "fault:1:bias:24576:32768:0.95,"
                       "chfail:0:30:20,crowd:70:4:8:256";
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::parse(outcome.campaign);

    auto run = [&](bool attach) {
        std::vector<std::unique_ptr<core::SoftwareTrng>> sw;
        std::vector<core::Trng *> pool;
        for (size_t b = 0; b < nbanks; ++b) {
            sw.push_back(std::make_unique<core::SoftwareTrng>(
                0xC0FFEE + b, "sw" + std::to_string(b)));
            pool.push_back(sw.back().get());
        }
        // The campaign string carries the fault; the harness arms it
        // before the service is built (byte-addressed on the bank's
        // stream, exactly like the health study).
        std::unique_ptr<core::FaultInjectedTrng> faulty;
        if (attach) {
            core::FaultSpec fault = spec.faultSpecs().at(0);
            faulty = std::make_unique<core::FaultInjectedTrng>(
                *pool[fault.bank], fault, seed);
            pool[fault.bank] = faulty.get();
        }
        service::EntropyServiceConfig scfg;
        scfg.shards = nshards;
        scfg.shardCapacityBytes = 8192;
        scfg.refillWatermark = 0.75;
        scfg.panicWatermark = 0.25;
        scfg.recentLatencyWindow = 16;
        scfg.health.enabled = true;
        scfg.health.windowBits = 8192;
        scfg.health.probationWindows = 3;
        scfg.admission.enabled = true;
        scfg.admission.interactiveSloNs = 400.0;
        scfg.admission.maxQueuedConnects = 8;
        scfg.admission.maxBackoffTicks = 8;
        service::EntropyService svc(pool, scfg);
        svc.refillBelowWatermark();

        service::MultiChannelRefillConfig mcfg;
        mcfg.topology.channels = 2;
        mcfg.policy = sysperf::FairnessPolicy::BufferedFair;
        mcfg.tickNs = tick_ns;
        mcfg.seed = seed;
        mcfg.installLatencyCost = true;
        mcfg.sloEscalation = true;
        mcfg.escalateSloNs = 400.0;
        std::vector<sysperf::WorkloadProfile> traffic = {
            {"calm", 0.05, 60.0}, {"calm", 0.05, 60.0}};
        service::MultiChannelRefillScheduler scheduler(svc, traffic,
                                                       mcfg);
        auto engine =
            attach ? std::make_unique<scenario::ScenarioEngine>(
                         svc, scheduler, spec)
                   : nullptr;

        std::vector<service::EntropyService::Client> clients;
        for (size_t s = 0; s < nshards; ++s) {
            clients.push_back(svc.connect(
                "pinned", service::Priority::Standard, s));
        }
        std::vector<std::vector<uint8_t>> served(nshards);
        uint8_t out[512];
        uint64_t tick = 0;
        auto runPhase = [&](int ticks) {
            for (int t = 0; t < ticks; ++t, ++tick) {
                if (engine)
                    engine->beginTick(tick);
                double tick_start =
                    static_cast<double>(tick) * tick_ns;
                for (size_t s = 0; s < nshards; ++s) {
                    auto result = clients[s].requestAt(
                        out, sizeof(out), tick_start);
                    served[s].insert(served[s].end(), out,
                                     out + result.bytes);
                }
                if (engine)
                    driveCrowd(*engine, tick_start, kCrowdBytes,
                               served);
                scheduler.tick();
            }
            double p99 = svc.latencySnapshot(
                                service::Priority::Standard)
                             .p99Ns();
            svc.resetLatencyStats();
            return p99;
        };
        double base = runPhase(kBaseline);
        double disturbed = runPhase(kDisturbed);
        double recovered = runPhase(kSteady);
        if (attach) {
            outcome.baselineP99Ns = base;
            outcome.disturbedP99Ns = disturbed;
            outcome.recoveredP99Ns = recovered;
            outcome.counters = engine->counters();
            outcome.failovers = scheduler.failovers();
            outcome.failbacks = scheduler.failbacks();
            outcome.escalatedTicks = scheduler.escalatedTicks();
            service::EntropyService::HealthStats hstats =
                svc.healthStats();
            outcome.quarantines = hstats.quarantines;
            outcome.readmissions = hstats.readmissions;
            outcome.unhealthyBytesServed =
                hstats.unhealthyBytesServed;
            outcome.queuedAtEnd = svc.admissionStats().queuedNow;
        }
        return served;
    };

    std::vector<std::vector<uint8_t>> detached = run(false);
    std::vector<std::vector<uint8_t>> attached = run(true);
    outcome.eventsApplied = outcome.quarantines >= 1 &&
                            outcome.readmissions >= 1 &&
                            outcome.counters.channelFailures == 1 &&
                            outcome.counters.channelRecoveries == 1 &&
                            outcome.failovers >= 1 &&
                            outcome.failbacks >= 1 &&
                            outcome.counters.crowdAttempted == 8 &&
                            outcome.counters.crowdDenied == 0;
    outcome.admitted = outcome.counters.crowdAdmitted == 8;
    // The faulted bank's shard re-sources to the spare: its stream
    // legitimately diverges from the healthy reference.
    outcome.bytesIdentical = scenarioStreamsMatch(
        detached, attached, {spec.faultSpecs().at(0).bank}, true);
    outcome.p99Recovered = outcome.recoveredP99Ns <=
                           2.0 * outcome.baselineP99Ns + 100.0;
    return outcome;
}

/** The four campaigns plus the combined CI verdict. */
struct ScenarioVerdict
{
    std::vector<ScenarioStudyOutcome> studies;

    bool pass() const
    {
        for (const ScenarioStudyOutcome &study : studies)
            if (!study.pass())
                return false;
        return !studies.empty();
    }
};

ScenarioVerdict
runScenarioStudies(uint64_t seed)
{
    std::printf("\nScenario campaign studies (deterministic failure "
                "campaigns replayed attached vs detached):\n");
    ScenarioVerdict verdict;
    verdict.studies.push_back(runChannelFailScenario(seed));
    verdict.studies.push_back(runThermalDriftScenario(seed));
    verdict.studies.push_back(runFlashCrowdScenario(seed));
    verdict.studies.push_back(runMultiFaultScenario(seed));

    Table table({"campaign", "events", "crowd a/q/d", "base p99",
                 "worst p99", "recov p99", "replay", "pass"});
    for (const ScenarioStudyOutcome &study : verdict.studies) {
        table.addRow(
            {study.name, study.eventsApplied ? "applied" : "MISSING",
             std::to_string(study.counters.crowdAdmitted) + "/" +
                 std::to_string(study.counters.crowdQueued) + "/" +
                 std::to_string(study.counters.crowdDenied),
             Table::num(study.baselineP99Ns, 0),
             Table::num(study.disturbedP99Ns, 0),
             Table::num(study.recoveredP99Ns, 0),
             study.bytesIdentical ? "identical" : "DIVERGED",
             study.pass() ? "yes" : "NO (BUG)"});
    }
    table.print();
    std::printf("Expected shape: every campaign edge lands (failover/"
                "failback, band switches with suspect flushes, queue/"
                "deny/release, quarantine/re-admit), tails recover "
                "within the settle windows, no detected-unhealthy "
                "byte is served, and healthy streams replay "
                "byte-exact against the detached reference.\n");
    return verdict;
}

// -------------------------------------------------- JSON output

bool
writeJson(const std::string &path,
          const std::vector<LatencyRow> &latency,
          const RebalanceOutcome &off, const RebalanceOutcome &on,
          bool identical,
          const std::vector<ClosedLoopOutcome> &closed_loop,
          bool closed_loop_identical, bool closed_loop_improves,
          const HealthVerdict &health,
          const ScenarioVerdict &scenarios)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "fig12_system: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"latency_study\": [\n");
    for (size_t i = 0; i < latency.size(); ++i) {
        const LatencyRow &row = latency[i];
        std::fprintf(f,
                     "    {\"scenario\": \"%s\", \"policy\": \"%s\", "
                     "\"priority\": \"%s\", \"requests\": %zu, "
                     "\"hit_rate\": %.4f, \"p50_ns\": %.1f, "
                     "\"p95_ns\": %.1f, \"p99_ns\": %.1f}%s\n",
                     row.scenario.c_str(), row.policy.c_str(),
                     row.priority.c_str(), row.requests, row.hitRate,
                     row.p50Ns, row.p95Ns, row.p99Ns,
                     i + 1 < latency.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"rebalance_study\": {\n");
    for (const RebalanceOutcome *outcome : {&off, &on}) {
        std::fprintf(f,
                     "    \"%s\": {\"migrations\": %llu, "
                     "\"starved_hit_rate\": %.4f, "
                     "\"starved_p95_ns\": %.1f},\n",
                     outcome->rebalance ? "on" : "off",
                     static_cast<unsigned long long>(
                         outcome->migrations),
                     outcome->starvedHitRate, outcome->starvedP95Ns);
    }
    std::fprintf(f, "    \"bytes_identical\": %s\n  },\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"closed_loop_study\": {\n"
                 "    \"slo_ns\": %.1f,\n", kClosedLoopSloNs);
    for (const ClosedLoopOutcome &outcome : closed_loop) {
        std::fprintf(
            f,
            "    \"%s\": {\"interactive_hit_rate\": %.4f, "
            "\"interactive_p95_ns\": %.1f, "
            "\"interactive_p99_ns\": %.1f, "
            "\"standard_p99_ns\": %.1f, "
            "\"client_migrations\": %llu, "
            "\"shard_migrations\": %llu, \"slo_met\": %s},\n",
            outcome.mode.c_str(), outcome.interactiveHitRate,
            outcome.interactiveP95Ns, outcome.interactiveP99Ns,
            outcome.standardP99Ns,
            static_cast<unsigned long long>(outcome.clientMigrations),
            static_cast<unsigned long long>(outcome.shardMigrations),
            outcome.interactiveP99Ns <= kClosedLoopSloNs ? "true"
                                                         : "false");
    }
    std::fprintf(f,
                 "    \"bytes_identical\": %s,\n"
                 "    \"latency_beats_static\": %s\n  },\n",
                 closed_loop_identical ? "true" : "false",
                 closed_loop_improves ? "true" : "false");
    std::fprintf(
        f,
        "  \"health_study\": {\n"
        "    \"quarantines\": %llu,\n"
        "    \"readmissions\": %llu,\n"
        "    \"quarantine_window\": %llu,\n"
        "    \"quarantine_bound\": %llu,\n"
        "    \"quarantine_within_bound\": %s,\n"
        "    \"readmitted\": %s,\n"
        "    \"unhealthy_bytes_dropped\": %llu,\n"
        "    \"unhealthy_bytes_served\": %llu,\n"
        "    \"shard_resourcings\": %llu,\n"
        "    \"baseline_p99_ns\": %.1f,\n"
        "    \"faulty_p99_ns\": %.1f,\n"
        "    \"recovered_p99_ns\": %.1f,\n"
        "    \"p99_recovered\": %s,\n"
        "    \"healthy_shards_identical\": %s\n  },\n",
        static_cast<unsigned long long>(health.on.quarantines),
        static_cast<unsigned long long>(health.on.readmissions),
        static_cast<unsigned long long>(health.on.quarantineWindow),
        static_cast<unsigned long long>(health.quarantineBound),
        health.withinBound ? "true" : "false",
        health.readmitted ? "true" : "false",
        static_cast<unsigned long long>(
            health.on.unhealthyBytesDropped),
        static_cast<unsigned long long>(
            health.on.unhealthyBytesServed),
        static_cast<unsigned long long>(health.on.resourcings),
        health.on.baselineP99Ns, health.on.faultyP99Ns,
        health.on.recoveredP99Ns,
        health.p99Recovered ? "true" : "false",
        health.healthyShardsIdentical ? "true" : "false");
    std::fprintf(f, "  \"scenario_studies\": {\n");
    for (const ScenarioStudyOutcome &study : scenarios.studies) {
        std::fprintf(
            f,
            "    \"%s\": {\"campaign\": \"%s\", "
            "\"channel_failures\": %llu, "
            "\"channel_recoveries\": %llu, \"failovers\": %llu, "
            "\"failbacks\": %llu, \"band_switches\": %llu, "
            "\"suspect_bytes_dropped\": %llu, "
            "\"crowd_attempted\": %llu, \"crowd_admitted\": %llu, "
            "\"crowd_queued\": %llu, \"crowd_denied\": %llu, "
            "\"queued_at_end\": %llu, \"escalated_ticks\": %llu, "
            "\"quarantines\": %llu, \"readmissions\": %llu, "
            "\"unhealthy_bytes_served\": %llu, "
            "\"baseline_p99_ns\": %.1f, \"disturbed_p99_ns\": %.1f, "
            "\"recovered_p99_ns\": %.1f, \"events_applied\": %s, "
            "\"crowd_all_admitted\": %s, \"bytes_identical\": %s, "
            "\"p99_recovered\": %s, \"pass\": %s},\n",
            study.name.c_str(), study.campaign.c_str(),
            static_cast<unsigned long long>(
                study.counters.channelFailures),
            static_cast<unsigned long long>(
                study.counters.channelRecoveries),
            static_cast<unsigned long long>(study.failovers),
            static_cast<unsigned long long>(study.failbacks),
            static_cast<unsigned long long>(
                study.counters.bandSwitches),
            static_cast<unsigned long long>(
                study.counters.suspectBytesDropped),
            static_cast<unsigned long long>(
                study.counters.crowdAttempted),
            static_cast<unsigned long long>(
                study.counters.crowdAdmitted),
            static_cast<unsigned long long>(
                study.counters.crowdQueued),
            static_cast<unsigned long long>(
                study.counters.crowdDenied),
            static_cast<unsigned long long>(study.queuedAtEnd),
            static_cast<unsigned long long>(study.escalatedTicks),
            static_cast<unsigned long long>(study.quarantines),
            static_cast<unsigned long long>(study.readmissions),
            static_cast<unsigned long long>(
                study.unhealthyBytesServed),
            study.baselineP99Ns, study.disturbedP99Ns,
            study.recoveredP99Ns,
            study.eventsApplied ? "true" : "false",
            study.admitted ? "true" : "false",
            study.bytesIdentical ? "true" : "false",
            study.p99Recovered ? "true" : "false",
            study.pass() ? "true" : "false");
    }
    std::fprintf(f, "    \"pass\": %s\n  }\n}\n",
                 scenarios.pass() ? "true" : "false");
    std::fclose(f);
    return true;
}

/** Print one Fig-12 sweep table and its summary/shape checks. */
void
printSweep(const std::vector<sysperf::WorkloadTrngResult> &results,
           bool heterogeneous)
{
    Table table(heterogeneous
                    ? std::vector<std::string>{"workload",
                                               "co-runners",
                                               "idle fraction",
                                               "TRNG Gb/s"}
                    : std::vector<std::string>{"workload",
                                               "idle fraction",
                                               "TRNG Gb/s"});
    double sum = 0.0;
    double min_thr = 1e18;
    double max_thr = 0.0;
    std::string min_name;
    std::string max_name;
    for (const auto &result : results) {
        if (heterogeneous) {
            std::string corunners;
            for (size_t c = 1; c < result.channelWorkloads.size();
                 ++c) {
                corunners += c > 1 ? "," : "";
                corunners += result.channelWorkloads[c];
            }
            table.addRow({result.name, corunners,
                          Table::num(result.idleFraction, 3),
                          Table::num(result.throughputGbps, 2)});
        } else {
            table.addRow({result.name,
                          Table::num(result.idleFraction, 3),
                          Table::num(result.throughputGbps, 2)});
        }
        sum += result.throughputGbps;
        if (result.throughputGbps < min_thr) {
            min_thr = result.throughputGbps;
            min_name = result.name;
        }
        if (result.throughputGbps > max_thr) {
            max_thr = result.throughputGbps;
            max_name = result.name;
        }
    }
    table.print();

    double avg = sum / static_cast<double>(results.size());
    if (!heterogeneous) {
        std::printf("\nSummary: avg %.2f (paper 10.2), min %.2f on "
                    "%s (paper 3.22), max %.2f on %s (paper 14.3) "
                    "Gb/s\n",
                    avg, min_thr, min_name.c_str(), max_thr,
                    max_name.c_str());
        std::printf("Shape checks:\n");
        std::printf("  average within band: %s\n",
                    (avg > 7.0 && avg < 14.0) ? "OK" : "OFF");
        std::printf("  memory-bound workload is the minimum: %s "
                    "(%s)\n",
                    (min_name == "lbm" || min_name == "libquantum" ||
                     min_name == "mcf") ? "OK" : "OFF",
                    min_name.c_str());
        std::printf("  compute-bound workload is the maximum: %s "
                    "(%s)\n",
                    (max_name == "namd" || max_name == "sjeng" ||
                     max_name == "gobmk" || max_name == "hmmer")
                        ? "OK" : "OFF",
                    max_name.c_str());
    } else {
        std::printf("\nHeterogeneous summary: avg %.2f, min %.2f on "
                    "%s, max %.2f on %s Gb/s (co-runner mixing "
                    "flattens the homogeneous spread)\n",
                    avg, min_thr, min_name.c_str(), max_thr,
                    max_name.c_str());
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"channels", "window", "seed", "sib", "columns",
                  "ticks", "json"});
    unsigned channels =
        static_cast<unsigned>(args.getUint("channels", 4));
    double window = args.getDouble("window", 2.0e6);
    uint64_t seed = args.getUint("seed", 42);
    uint32_t sib = static_cast<uint32_t>(args.getUint("sib", 7));
    uint32_t columns =
        static_cast<uint32_t>(args.getUint("columns", 128));
    int ticks = static_cast<int>(args.getUint("ticks", 200));
    std::string json_path = args.getString("json", "");

    benchutil::printExperimentHeader(
        "Figure 12: TRNG throughput in idle DRAM cycles (SPEC2006)",
        "avg 10.2 Gb/s, min 3.22, max 14.3 over 23 workloads on 4 "
        "channels",
        "synthetic traces matched to published workload memory "
        "intensity (--window/--seed)");

    // Steady-state per-channel iteration cost from the scheduler.
    sched::QuacScheduleConfig quac_cfg;
    quac_cfg.banks = 4;
    quac_cfg.init = sched::InitMethod::RowClone;
    quac_cfg.profile = {sib, columns, 128};
    auto stats = sched::simulateQuacTrng(
        dram::TimingParams::ddr4(2400), quac_cfg);
    double iterations = static_cast<double>(
        quac_cfg.iterations - quac_cfg.warmupIterations);
    double iteration_ns = stats.totalNs / iterations;
    double bits_per_iteration = stats.bits / iterations;
    std::printf("Per-channel iteration: %.0f ns for %.0f bits "
                "(%.2f Gb/s busy-channel rate)\n\n",
                iteration_ns, bits_per_iteration,
                bits_per_iteration / iteration_ns);

    printSweep(sysperf::runSystemStudy(iteration_ns,
                                       bits_per_iteration, channels,
                                       window, seed),
               false);

    std::printf("\nHeterogeneous per-channel sweep (channel 0 runs "
                "the named workload, co-runners from the SPEC list):\n");
    printSweep(sysperf::runSystemStudy(iteration_ns,
                                       bits_per_iteration, channels,
                                       window, seed, true),
               true);

    runServiceStudy(bits_per_iteration, seed);

    std::vector<LatencyRow> latency =
        runLatencyStudy(bits_per_iteration, seed, ticks);

    RebalanceOutcome off;
    RebalanceOutcome on;
    bool identical = runRebalanceStudy(bits_per_iteration, seed,
                                       ticks, off, on);

    std::vector<ClosedLoopOutcome> closed_loop;
    bool closed_loop_identical = false;
    bool closed_loop_improves = runClosedLoopStudy(
        bits_per_iteration, seed, ticks, closed_loop,
        closed_loop_identical);

    HealthVerdict health = runHealthStudy(seed);

    ScenarioVerdict scenarios = runScenarioStudies(seed);

    if (!json_path.empty() &&
        !writeJson(json_path, latency, off, on, identical,
                   closed_loop, closed_loop_identical,
                   closed_loop_improves, health, scenarios))
        return 1;
    return identical && closed_loop_identical && health.pass() &&
                   scenarios.pass()
               ? 0
               : 1;
}
