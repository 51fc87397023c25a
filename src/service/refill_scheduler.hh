/**
 * @file
 * Scheduler-aware asynchronous refill for the entropy service, at
 * memory-system scale.
 *
 * The memory controller tops the service's shard buffers up with
 * idle DRAM bandwidth (paper Section 9). This component models that
 * loop per channel: a ShardPlacement assigns disjoint shard sets to
 * the channels of a sched::ChannelTopology, and each tick every
 * channel measures its shards' chunk-rounded refill demand, converts
 * it to channel time using the BusScheduler-simulated cost of one
 * QUAC iteration on that channel (sched::quacRefillCost), arbitrates
 * that time against the channel's own co-running demand traffic
 * under a DR-STRaNGe fairness policy (sysperf::grantRefill), and
 * issues the granted bytes to its shards as a budgeted refill.
 * Channels may run heterogeneous workloads and timings; a shard
 * whose channel persistently starves it can be migrated to a channel
 * with headroom (rebalancing), which never changes the shard's
 * output bytes — a shard always drains its own backend stream, the
 * placement only decides whose granted time pays for the refill.
 */

#ifndef QUAC_SERVICE_REFILL_SCHEDULER_HH
#define QUAC_SERVICE_REFILL_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "sched/channel_topology.hh"
#include "sched/trng_programs.hh"
#include "service/entropy_service.hh"
#include "sysperf/channel_sim.hh"
#include "sysperf/workloads.hh"

namespace quac::service
{

/** Disjoint shard -> channel assignment. */
struct ShardPlacement
{
    /** channelOfShard[s] = channel refilling shard s. */
    std::vector<size_t> channelOfShard;

    /** Shard s on channel s % channels. */
    static ShardPlacement roundRobin(size_t shards, size_t channels);

    /** The shard sets per channel (disjoint by construction). */
    std::vector<std::vector<size_t>> byChannel(size_t channels) const;

    size_t shards() const { return channelOfShard.size(); }
};

/** What accrues a shard's starved ticks (rebalancer input). */
enum class RebalanceTrigger : uint8_t
{
    /** Channel granted less than half of the need and the shard is
     * still below the watermark (open-loop signal). */
    GrantRatio = 0,
    /**
     * The shard's *measured* recent p95 request latency breaches
     * rebalanceSloNs while the shard still has refill demand — the
     * closed-loop signal: what clients actually experienced drives
     * the migration, not the grant bookkeeping.
     */
    ShardLatency = 1,
};

/** Display name ("grant-ratio", "shard-latency"). */
const char *rebalanceTriggerName(RebalanceTrigger trigger);

/** Multi-channel refill-loop configuration. */
struct MultiChannelRefillConfig
{
    /** Channel shape and per-channel timing. */
    sched::ChannelTopology topology;
    /** RNG-vs-memory arbitration policy of every channel (SLO
     * escalation overrides it per channel and tick). */
    sysperf::FairnessPolicy policy =
        sysperf::FairnessPolicy::BufferedFair;
    /** Channel-time window modelled per tick, in ns. */
    double tickNs = 1.0e5;
    /** Seed of the per-tick demand-traffic timelines. */
    uint64_t seed = 1;
    /**
     * Enable starvation-driven rebalancing: a shard accruing
     * starveTickThreshold consecutive starved ticks (per `trigger`)
     * migrates to the channel with the most idle headroom this tick
     * — provided that channel is itself healthy (it granted at least
     * half of its own shards' need) and the shard's 8-tick migration
     * cooldown has expired, so two saturated channels never trade
     * shards back and forth.
     */
    bool rebalance = false;
    uint32_t starveTickThreshold = 4;
    /** Starvation signal the rebalancer acts on. */
    RebalanceTrigger trigger = RebalanceTrigger::GrantRatio;
    /** ShardLatency trigger: recent shard p95 above this (with
     * demand outstanding) counts one starved tick. */
    double rebalanceSloNs = 2000.0;
    /**
     * Install the channel-0 refill cost as the service's modelled
     * synchronous-fill rate (EntropyService latency model).
     */
    bool installLatencyCost = false;
    /**
     * SLO-driven policy escalation: while any of a channel's shards
     * measurably breaches escalateSloNs (recent p95, with refill
     * demand outstanding), the channel arbitrates its refill under
     * rng-priority instead of its configured policy — buffer refill
     * preempts demand traffic exactly while clients are hurting —
     * and reverts the moment the breach clears. The closed-loop
     * "drive the channel policy from SLO state" control.
     */
    bool sloEscalation = false;
    /** Recent shard p95 above this escalates the channel, in ns. */
    double escalateSloNs = 2000.0;
};

/** Accounting of the refill loop, per tick and accumulated. */
struct RefillAccounting
{
    uint64_t ticks = 0;
    /** Channel time modelled (ticks x tickNs x channels). */
    double modeledNs = 0.0;
    /** Channel time the shards' demand asked for. */
    double neededNs = 0.0;
    /** Channel time granted under the fairness policy. */
    double grantedNs = 0.0;
    /** Idle time that was usable for FCFS-style refill. */
    double usableIdleNs = 0.0;
    /** Demand-traffic time displaced by prioritized refill. */
    double stolenBusyNs = 0.0;
    /** Demand-traffic busy time in the modelled windows. */
    double busyNs = 0.0;
    /** Bytes the shards wanted / actually pulled. */
    uint64_t bytesRequested = 0;
    uint64_t bytesRefilled = 0;

    /** Fractional slowdown charged to regular memory traffic. */
    double
    memSlowdown() const
    {
        return busyNs > 0.0 ? stolenBusyNs / busyNs : 0.0;
    }

    /** Refill throughput over the modelled time, in Gb/s. */
    double
    refillGbps() const
    {
        return modeledNs > 0.0
                   ? static_cast<double>(bytesRefilled) * 8.0 /
                         modeledNs
                   : 0.0;
    }

    /** Accumulate @p tick into this total. */
    void accumulate(const RefillAccounting &tick);
};

/**
 * The per-channel refill scheduler pool driving one service.
 *
 * Thread contract: confined to the single control thread that calls
 * tick() — it holds no locks of its own, and the thread-safety
 * analysis has no capability for thread confinement, so the contract
 * is this comment plus the lint ban on raw mutexes here. All real
 * concurrency flows through the EntropyService's annotated mutexes
 * when tick() calls into it.
 */
class MultiChannelRefillScheduler
{
  public:
    /**
     * @param service service to top up (kept by reference).
     * @param per_channel_demand co-running memory-traffic profile of
     *        each channel. One entry is broadcast to every channel;
     *        otherwise the size must equal topology.channels.
     * @param cfg refill-loop parameters.
     * @param placement shard -> channel map; empty = round-robin.
     */
    MultiChannelRefillScheduler(
        EntropyService &service,
        std::vector<sysperf::WorkloadProfile> per_channel_demand,
        MultiChannelRefillConfig cfg = {},
        ShardPlacement placement = {});

    /**
     * Run one tick on every channel: measure each channel's shards'
     * demand, arbitrate against that channel's traffic, refill.
     * Returns the tick's accounting aggregated across channels (also
     * accumulated into total() and per-channel channelTotal()).
     */
    RefillAccounting tick();

    /** Run @p n ticks; returns the accumulated total. */
    const RefillAccounting &run(uint64_t n);

    const RefillAccounting &total() const { return total_; }

    /** Accumulated accounting of one channel. */
    const RefillAccounting &channelTotal(size_t channel) const;

    /** BusScheduler-measured refill cost on @p channel. */
    const sched::RefillCost &iterationCost(size_t channel = 0) const;

    /** Current shard -> channel placement (rebalancing mutates it). */
    const ShardPlacement &placement() const { return placement_; }

    /** Consecutive starved ticks currently charged to @p shard. */
    uint32_t starvedTicks(size_t shard) const;

    /** Shard migrations performed by the rebalancer. */
    uint64_t migrations() const { return migrations_; }

    size_t channels() const { return costs_.size(); }

    /** Fairness policy channel @p channel arbitrates under (the
     * escalated policy while channelEscalated(channel)). */
    sysperf::FairnessPolicy channelPolicy(size_t channel) const;

    /** @name Channel failure and recovery (scenario campaigns) */
    /**@{*/
    /**
     * Take @p channel out of service: it grants nothing and refills
     * nothing until recoverChannel(). Its shards re-place onto the
     * servable channel currently refilling the fewest shards
     * (ascending tie-break, deterministic) and remember this channel
     * as their failover home. Placement only redirects whose granted
     * time pays for a refill — every shard keeps draining its own
     * backend stream, so the byte-exact replay invariant holds
     * through the outage. With no servable channel left the shards
     * stay put and starve visibly (starvedTicks). Idempotent.
     */
    void failChannel(size_t channel);

    /**
     * Return @p channel to service. Shards displaced *by its
     * failure* (not by the rebalancer) return home, with a migration
     * cooldown so the rebalancer does not immediately bounce them.
     * Idempotent.
     */
    void recoverChannel(size_t channel);

    bool channelFailed(size_t channel) const;
    size_t failedChannelCount() const;
    /** Shard re-placements forced by failChannel. */
    uint64_t failovers() const { return failovers_; }
    /** Failure-displaced shards returned home by recoverChannel. */
    uint64_t failbacks() const { return failbacks_; }
    /**@}*/

    /** Is @p channel currently escalated to rng-priority? */
    bool channelEscalated(size_t channel) const;

    /** Channel-ticks spent escalated (sloEscalation). */
    uint64_t escalatedTicks() const { return escalatedTicks_; }

  private:
    void rebalanceAfterTick(const std::vector<double> &grant_ratio,
                            const std::vector<double> &headroom_ns);

    /** Escalation probe: does any shard of @p channel breach the
     * escalation SLO with demand outstanding? */
    bool channelBreaching(size_t channel);

    /** One starved tick for @p shard per cfg_.trigger? */
    bool shardStarvedThisTick(size_t shard,
                              const std::vector<double> &grant_ratio);

    EntropyService &service_;
    std::vector<sysperf::WorkloadProfile> demand_;
    MultiChannelRefillConfig cfg_;
    std::vector<sched::RefillCost> costs_;
    ShardPlacement placement_;
    std::vector<std::vector<size_t>> shardsOf_;
    std::vector<uint32_t> starved_;
    /** Tick index before which a shard may not migrate again. */
    std::vector<uint64_t> cooldownUntil_;
    std::vector<RefillAccounting> channelTotals_;
    RefillAccounting total_;
    uint64_t tickIndex_ = 0;
    uint64_t migrations_ = 0;

    /** Channels currently failed (failChannel). */
    std::vector<uint8_t> channelDown_;
    /** Failure home of a displaced shard; npos_ while at home (or
     * displaced only by the rebalancer). */
    std::vector<size_t> failoverHome_;
    /** Channels escalated to rng-priority this tick. */
    std::vector<uint8_t> escalated_;
    uint64_t failovers_ = 0;
    uint64_t failbacks_ = 0;
    uint64_t escalatedTicks_ = 0;

    static constexpr size_t npos_ = ~size_t{0};
};

} // namespace quac::service

#endif // QUAC_SERVICE_REFILL_SCHEDULER_HH
