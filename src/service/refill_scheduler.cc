#include "service/refill_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hh"

namespace quac::service
{

namespace
{

/** Idle re-entry overhead per gap (see sysperf::injectQuac), in ns. */
constexpr double kReentryOverheadNs = 20.0;

/**
 * Grant ratio below which a channel's tick counts as starving its
 * shards (GrantRatio trigger), and which a rebalance destination must
 * itself reach to be a refuge.
 */
constexpr double kStarveGrantRatio = 0.5;

/** Ticks a migrated or failed-back shard sits out before the
 * rebalancer may move it again. */
constexpr uint32_t kMigrateCooldownTicks = 8;

} // anonymous namespace

ShardPlacement
ShardPlacement::roundRobin(size_t shards, size_t channels)
{
    QUAC_ASSERT(channels >= 1, "channels=%zu", channels);
    ShardPlacement placement;
    placement.channelOfShard.resize(shards);
    for (size_t s = 0; s < shards; ++s)
        placement.channelOfShard[s] = s % channels;
    return placement;
}

std::vector<std::vector<size_t>>
ShardPlacement::byChannel(size_t channels) const
{
    std::vector<std::vector<size_t>> sets(channels);
    for (size_t s = 0; s < channelOfShard.size(); ++s) {
        QUAC_ASSERT(channelOfShard[s] < channels,
                    "shard %zu on channel %zu of %zu", s,
                    channelOfShard[s], channels);
        sets[channelOfShard[s]].push_back(s);
    }
    return sets;
}

const char *
rebalanceTriggerName(RebalanceTrigger trigger)
{
    switch (trigger) {
    case RebalanceTrigger::GrantRatio: return "grant-ratio";
    case RebalanceTrigger::ShardLatency: return "shard-latency";
    }
    return "?";
}

void
RefillAccounting::accumulate(const RefillAccounting &tick)
{
    ticks += tick.ticks;
    modeledNs += tick.modeledNs;
    neededNs += tick.neededNs;
    grantedNs += tick.grantedNs;
    usableIdleNs += tick.usableIdleNs;
    stolenBusyNs += tick.stolenBusyNs;
    busyNs += tick.busyNs;
    bytesRequested += tick.bytesRequested;
    bytesRefilled += tick.bytesRefilled;
}

MultiChannelRefillScheduler::MultiChannelRefillScheduler(
    EntropyService &service,
    std::vector<sysperf::WorkloadProfile> per_channel_demand,
    MultiChannelRefillConfig cfg, ShardPlacement placement)
    : service_(service), demand_(std::move(per_channel_demand)),
      cfg_(cfg), placement_(std::move(placement))
{
    uint32_t channels = cfg_.topology.channels;
    QUAC_ASSERT(channels >= 1, "channels=%u", channels);
    QUAC_ASSERT(cfg_.tickNs > 0.0, "tickNs=%f", cfg_.tickNs);
    if (demand_.size() == 1 && channels > 1)
        demand_.resize(channels, demand_.front());
    if (demand_.size() != channels)
        fatal("refill scheduler: %zu demand profiles for %u channels",
              demand_.size(), channels);

    if (placement_.channelOfShard.empty())
        placement_ =
            ShardPlacement::roundRobin(service_.shardCount(), channels);
    if (placement_.shards() != service_.shardCount())
        fatal("placement covers %zu shards, service has %zu",
              placement_.shards(), service_.shardCount());
    shardsOf_ = placement_.byChannel(channels);
    starved_.assign(placement_.shards(), 0);
    cooldownUntil_.assign(placement_.shards(), 0);
    channelTotals_.resize(channels);
    channelDown_.assign(channels, 0);
    failoverHome_.assign(placement_.shards(), npos_);
    escalated_.assign(channels, 0);
    if (cfg_.sloEscalation && cfg_.escalateSloNs <= 0.0)
        fatal("escalation SLO must be > 0 ns");

    // One BusScheduler probe per channel timing; identical channels
    // share one simulation.
    costs_.reserve(channels);
    if (!cfg_.topology.heterogeneous()) {
        sched::RefillCost cost = sched::quacRefillCost(
            cfg_.topology, 0, sched::QuacScheduleConfig{});
        costs_.assign(channels, cost);
    } else {
        for (uint32_t c = 0; c < channels; ++c)
            costs_.push_back(sched::quacRefillCost(
                cfg_.topology, c, sched::QuacScheduleConfig{}));
    }
    for (const sched::RefillCost &cost : costs_) {
        QUAC_ASSERT(cost.iterationNs > 0.0 &&
                    cost.bitsPerIteration > 0.0,
                    "refill cost probe failed");
    }
    if (cfg_.installLatencyCost)
        service_.setMissLatencyNsPerByte(costs_[0].nsPerByte());
}

RefillAccounting
MultiChannelRefillScheduler::tick()
{
    size_t channels = costs_.size();
    RefillAccounting aggregate;
    aggregate.ticks = 1;

    // Health control loop rides the refill cadence: propagate any
    // pending quarantine/re-admission to the shards (flush +
    // re-source) and advance probation sampling before measuring
    // demand, so a just-re-sourced shard's deficit is refilled from
    // its new bank this very tick. No-op when health is disabled.
    service_.healthTick();

    std::vector<double> grant_ratio(channels, 1.0);
    std::vector<double> headroom_ns(channels, 0.0);

    for (size_t c = 0; c < channels; ++c) {
        if (channelDown_[c]) {
            // A failed channel models no usable window: no demand
            // measurement, no grant, no refill. Time still passes
            // (modeledNs) so rate metrics stay honest, and a zero
            // grant ratio charges starved ticks to any shards still
            // stranded on it (no servable channel was left to take
            // them), keeping the starvation visible.
            RefillAccounting down;
            down.ticks = 1;
            down.modeledNs = cfg_.tickNs;
            channelTotals_[c].accumulate(down);
            down.ticks = 0;
            aggregate.accumulate(down);
            grant_ratio[c] = 0.0;
            headroom_ns[c] = -1.0; // never a rebalance destination
            escalated_[c] = 0;
            continue;
        }
        double ns_per_byte = costs_[c].nsPerByte();

        // SLO escalation: a channel whose clients measurably breach
        // arbitrates this tick under rng-priority, reverting as soon
        // as the breach clears.
        sysperf::FairnessPolicy policy = cfg_.policy;
        if (cfg_.sloEscalation) {
            escalated_[c] = channelBreaching(c) ? 1 : 0;
            if (escalated_[c]) {
                policy = sysperf::FairnessPolicy::RngPriority;
                ++escalatedTicks_;
            }
        }

        // What this channel's shards would actually pull
        // (chunk-rounded), and the part below the panic watermark
        // that BufferedFair escalates — read as one snapshot so
        // urgent <= total even while clients drain concurrently.
        EntropyService::RefillDemand demand =
            service_.refillDemand(shardsOf_[c]);
        double needed_ns =
            static_cast<double>(demand.bytes) * ns_per_byte;
        double urgent_ns =
            static_cast<double>(demand.urgentBytes) * ns_per_byte;

        // This tick's slice of the channel's co-running demand
        // traffic. Channel 0 reproduces the original single-channel
        // seed stream exactly.
        uint64_t tick_seed = cfg_.seed;
        tick_seed ^= 0x9E3779B97F4A7C15ULL * (tickIndex_ + 1);
        tick_seed += 0xC2B2AE3D27D4EB4FULL * c;
        sysperf::ChannelActivity activity =
            sysperf::ChannelActivity::generate(demand_[c], cfg_.tickNs,
                                               tick_seed);

        sysperf::RefillGrant grant = sysperf::grantRefill(
            activity, needed_ns, policy, urgent_ns, kReentryOverheadNs);

        size_t budget_bytes = static_cast<size_t>(
            std::floor(grant.grantedNs / ns_per_byte));
        size_t refilled =
            service_.refillTick(budget_bytes, shardsOf_[c]);

        RefillAccounting acct;
        acct.ticks = 1;
        acct.modeledNs = cfg_.tickNs;
        acct.neededNs = needed_ns;
        acct.grantedNs = grant.grantedNs;
        acct.usableIdleNs = grant.usableIdleNs;
        acct.stolenBusyNs = grant.stolenBusyNs;
        acct.busyNs = cfg_.tickNs * (1.0 - activity.idleFraction());
        acct.bytesRequested = demand.bytes;
        acct.bytesRefilled = refilled;

        channelTotals_[c].accumulate(acct);
        acct.ticks = 0; // aggregate counts the tick once
        aggregate.accumulate(acct);

        grant_ratio[c] =
            needed_ns > 0.0 ? grant.grantedNs / needed_ns : 1.0;
        headroom_ns[c] = grant.usableIdleNs - grant.grantedNs;
    }

    rebalanceAfterTick(grant_ratio, headroom_ns);

    total_.accumulate(aggregate);
    ++tickIndex_;
    return aggregate;
}

bool
MultiChannelRefillScheduler::shardStarvedThisTick(
    size_t shard, const std::vector<double> &grant_ratio)
{
    // Both triggers require outstanding demand: a topped-up shard is
    // never starved, whatever its channel granted or its clients
    // recently measured. The demand probe is one shard-lock
    // acquisition, so the cheap signal is checked first.
    if (cfg_.trigger == RebalanceTrigger::GrantRatio) {
        size_t channel = placement_.channelOfShard[shard];
        if (grant_ratio[channel] >= kStarveGrantRatio)
            return false;
    } else {
        // Closed loop: the shard's clients measurably breach the
        // latency SLO — grant bookkeeping does not enter into it.
        if (service_.shardRecentP95Ns(shard) <= cfg_.rebalanceSloNs)
            return false;
    }
    std::vector<size_t> probe{shard};
    return service_.refillDemand(probe).bytes > 0;
}

void
MultiChannelRefillScheduler::rebalanceAfterTick(
    const std::vector<double> &grant_ratio,
    const std::vector<double> &headroom_ns)
{
    // The starvation counters are maintained even with rebalancing
    // off, so a study (or operator) can observe starvation it chose
    // not to fix. Under the grant-ratio trigger the common
    // fully-granted tick touches no shard at all.
    for (size_t s = 0; s < placement_.shards(); ++s) {
        if (shardStarvedThisTick(s, grant_ratio))
            ++starved_[s];
        else
            starved_[s] = 0;
    }
    if (!cfg_.rebalance)
        return;

    // Migrate persistent starvers to the channel with the most
    // unclaimed idle time this tick. Placement only redirects whose
    // granted time refills the shard; the shard keeps draining its
    // own backend stream, so its output bytes are unchanged.
    size_t best = 0;
    for (size_t c = 1; c < headroom_ns.size(); ++c) {
        if (headroom_ns[c] > headroom_ns[best])
            best = c;
    }
    // Anti-ping-pong: a destination that under-granted its own
    // shards this tick is no refuge — with every channel saturated,
    // shards stay put and keep accruing starved ticks instead of
    // bouncing between two channels that cannot serve them.
    if (headroom_ns[best] <= 0.0 ||
        grant_ratio[best] < kStarveGrantRatio)
        return;
    bool moved = false;
    for (size_t s = 0; s < placement_.shards(); ++s) {
        if (starved_[s] < cfg_.starveTickThreshold)
            continue;
        if (placement_.channelOfShard[s] == best)
            continue; // nowhere better to go
        if (tickIndex_ < cooldownUntil_[s])
            continue; // recently moved; let the new channel work
        placement_.channelOfShard[s] = best;
        starved_[s] = 0;
        cooldownUntil_[s] = tickIndex_ + kMigrateCooldownTicks;
        ++migrations_;
        moved = true;
    }
    if (moved)
        shardsOf_ = placement_.byChannel(costs_.size());
}

const RefillAccounting &
MultiChannelRefillScheduler::run(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        tick();
    return total_;
}

const RefillAccounting &
MultiChannelRefillScheduler::channelTotal(size_t channel) const
{
    QUAC_ASSERT(channel < channelTotals_.size(), "channel=%zu",
                channel);
    return channelTotals_[channel];
}

const sched::RefillCost &
MultiChannelRefillScheduler::iterationCost(size_t channel) const
{
    QUAC_ASSERT(channel < costs_.size(), "channel=%zu", channel);
    return costs_[channel];
}

sysperf::FairnessPolicy
MultiChannelRefillScheduler::channelPolicy(size_t channel) const
{
    QUAC_ASSERT(channel < escalated_.size(), "channel=%zu", channel);
    return escalated_[channel] ? sysperf::FairnessPolicy::RngPriority
                               : cfg_.policy;
}

bool
MultiChannelRefillScheduler::channelBreaching(size_t channel)
{
    for (size_t s : shardsOf_[channel]) {
        if (service_.shardRecentP95Ns(s) <= cfg_.escalateSloNs)
            continue;
        // Breach without demand is stale history (e.g. the window
        // has not aged out yet); escalating would steal demand
        // bandwidth for nothing.
        std::vector<size_t> probe{s};
        if (service_.refillDemand(probe).bytes > 0)
            return true;
    }
    return false;
}

bool
MultiChannelRefillScheduler::channelEscalated(size_t channel) const
{
    QUAC_ASSERT(channel < escalated_.size(), "channel=%zu", channel);
    return escalated_[channel] != 0;
}

void
MultiChannelRefillScheduler::failChannel(size_t channel)
{
    QUAC_ASSERT(channel < costs_.size(), "channel=%zu", channel);
    if (channelDown_[channel])
        return;
    channelDown_[channel] = 1;
    escalated_[channel] = 0;
    // Count shards per servable channel once, then place the failed
    // channel's shards one at a time onto the least-occupied one
    // (ascending tie-break): deterministic, and spreads a big
    // channel's load instead of dumping it on a single survivor.
    std::vector<size_t> occupancy(costs_.size(), 0);
    for (size_t s = 0; s < placement_.shards(); ++s)
        ++occupancy[placement_.channelOfShard[s]];
    for (size_t s = 0; s < placement_.shards(); ++s) {
        if (placement_.channelOfShard[s] != channel)
            continue;
        size_t best = npos_;
        size_t best_count = std::numeric_limits<size_t>::max();
        for (size_t c = 0; c < costs_.size(); ++c) {
            if (channelDown_[c])
                continue;
            if (occupancy[c] < best_count) {
                best = c;
                best_count = occupancy[c];
            }
        }
        if (best == npos_)
            continue; // every channel down: stay, starve visibly
        // Remember the failure home only if the shard is not already
        // displaced by an earlier (still unrecovered) failure.
        if (failoverHome_[s] == npos_)
            failoverHome_[s] = channel;
        placement_.channelOfShard[s] = best;
        --occupancy[channel];
        ++occupancy[best];
        starved_[s] = 0;
        ++failovers_;
    }
    shardsOf_ = placement_.byChannel(costs_.size());
}

void
MultiChannelRefillScheduler::recoverChannel(size_t channel)
{
    QUAC_ASSERT(channel < costs_.size(), "channel=%zu", channel);
    if (!channelDown_[channel])
        return;
    channelDown_[channel] = 0;
    // Shards displaced by THIS channel's failure return home; shards
    // the rebalancer moved for its own reasons are its business and
    // stay where it put them.
    bool moved = false;
    for (size_t s = 0; s < placement_.shards(); ++s) {
        if (failoverHome_[s] != channel)
            continue;
        placement_.channelOfShard[s] = channel;
        failoverHome_[s] = npos_;
        starved_[s] = 0;
        // Cooldown against an immediate rebalance bounce: give the
        // recovered channel a window to prove itself.
        cooldownUntil_[s] = tickIndex_ + kMigrateCooldownTicks;
        ++failbacks_;
        moved = true;
    }
    if (moved)
        shardsOf_ = placement_.byChannel(costs_.size());
}

bool
MultiChannelRefillScheduler::channelFailed(size_t channel) const
{
    QUAC_ASSERT(channel < channelDown_.size(), "channel=%zu",
                channel);
    return channelDown_[channel] != 0;
}

size_t
MultiChannelRefillScheduler::failedChannelCount() const
{
    size_t count = 0;
    for (uint8_t down : channelDown_)
        count += down;
    return count;
}

uint32_t
MultiChannelRefillScheduler::starvedTicks(size_t shard) const
{
    QUAC_ASSERT(shard < starved_.size(), "shard=%zu", shard);
    return starved_[shard];
}

} // namespace quac::service
