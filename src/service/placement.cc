#include "service/placement.hh"

namespace quac::service
{

namespace
{

/**
 * A client's shard must breach the SLO on this many consecutive
 * evaluations before the client migrates (one transiently slow tick
 * is not a reason to move).
 */
constexpr uint32_t kBreachTicks = 2;

/**
 * Evaluations a migrated client sits out before it may migrate again
 * — the window needs time to reflect the new shard, and the cooldown
 * bounds per-client churn even when every shard breaches.
 */
constexpr uint32_t kCooldownTicks = 8;

/**
 * The destination's load must be below the source's load times this
 * factor, so clients never hop between two equally bad shards (the
 * other half of the anti-ping-pong hysteresis).
 */
constexpr double kImprovementFactor = 0.7;

/** Cap on migrations per tick() across all managed clients (prevents
 * a stampede onto one momentarily idle shard). */
constexpr size_t kMaxMigrationsPerTick = 1;

} // anonymous namespace

void
SloMigrator::manage(EntropyService::Client client)
{
    managed_.push_back({std::move(client), 0, 0});
}

size_t
SloMigrator::tick()
{
    ++tickIndex_;
    size_t nshards = service_.shardCount();
    // One snapshot per shard per tick (a wait-free cursor read each
    // on the lock-free plane): every decision below sees the same
    // picture.
    std::vector<double> load(nshards);
    std::vector<double> p95(nshards);
    std::vector<double> p99(nshards);
    for (size_t s = 0; s < nshards; ++s) {
        EntropyService::ShardLoadSnapshot snapshot =
            service_.shardLoadSnapshot(s);
        load[s] = snapshot.load;
        p95[s] = snapshot.recentP95Ns;
        p99[s] = snapshot.recentP99Ns;
    }

    size_t moved = 0;
    for (Managed &managed : managed_) {
        if (moved >= kMaxMigrationsPerTick)
            break;
        const SloTarget &slo =
            cfg_.slo[static_cast<size_t>(managed.client.priority())];
        if (!slo.active())
            continue;
        size_t current = managed.client.shard();
        bool breach =
            (slo.p95Ns > 0.0 && p95[current] > slo.p95Ns) ||
            (slo.p99Ns > 0.0 && p99[current] > slo.p99Ns);
        if (!breach) {
            managed.breach = 0;
            continue;
        }
        if (managed.breach < kBreachTicks)
            ++managed.breach;
        if (managed.breach < kBreachTicks ||
            tickIndex_ < managed.cooldownUntil)
            continue;

        size_t best = current;
        for (size_t s = 0; s < nshards; ++s) {
            if (s != current && load[s] < load[best])
                best = s;
        }
        // Hysteresis: only move to a meaningfully better shard, so
        // two equally overloaded shards never trade clients.
        if (best == current ||
            load[best] >= load[current] * kImprovementFactor)
            continue;
        if (!service_.migrateClient(managed.client, best))
            continue;
        events_.push_back({managed.client.name(), current, best,
                           tickIndex_});
        managed.breach = 0;
        managed.cooldownUntil = tickIndex_ + kCooldownTicks;
        ++migrations_;
        ++moved;
    }
    return moved;
}

} // namespace quac::service
