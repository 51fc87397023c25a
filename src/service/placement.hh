/**
 * @file
 * Closed-loop client placement: SLO-driven migration of entropy
 * clients between shards.
 *
 * The multi-channel refill scheduler can migrate *refill assignment*
 * between channels, but a latency-critical client pinned to an
 * overloaded shard stays slow forever — DR-STRaNGe's RNG-interference
 * failure mode. The SloMigrator closes that loop at the client level:
 * each tick it reads every shard's *measured* recent latency tail
 * (EntropyService::shardRecentPercentileNs, a windowed per-shard
 * signal fed by timestamped requests) and moves managed clients off
 * shards whose p95/p99 breaches their priority class's SLO, onto the
 * least-loaded shard. Hysteresis (two consecutive breaching ticks,
 * an 8-tick per-client cooldown, a 30% improvement margin, and at
 * most one migration per tick; see placement.cc) keeps clients from
 * ping-ponging between two equally bad shards.
 *
 * Migration never changes any shard's output bytes: each shard keeps
 * draining its own backend stream in request order; only which
 * stream a migrated client reads changes.
 */

#ifndef QUAC_SERVICE_PLACEMENT_HH
#define QUAC_SERVICE_PLACEMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "service/entropy_service.hh"

namespace quac::service
{

/** Latency SLO for one priority class; 0 disables a bound. */
struct SloTarget
{
    double p95Ns = 0.0;
    double p99Ns = 0.0;

    bool active() const { return p95Ns > 0.0 || p99Ns > 0.0; }
};

/** SLO-driven migration parameters. */
struct SloMigratorConfig
{
    /** Per-priority targets, indexed by Priority (interactive,
     * standard, bulk). Default: no class is managed. */
    std::array<SloTarget, 3> slo;
};

/** One migration performed by the migrator (for studies/logs). */
struct MigrationEvent
{
    std::string client;
    size_t fromShard = 0;
    size_t toShard = 0;
    uint64_t tick = 0;
};

/**
 * The closed-loop client migrator over one EntropyService. Register
 * the clients whose placement it may manage, then call tick() once
 * per control interval (typically right after the refill scheduler's
 * tick, with the same cadence).
 *
 * Thread contract: confined to the single control thread that calls
 * tick(), like MultiChannelRefillScheduler. The shard-latency
 * snapshots it reads and the migrations it performs go through the
 * EntropyService's annotated mutexes; the migrator itself holds no
 * locks, so it must never be ticked from two threads.
 */
class SloMigrator
{
  public:
    explicit SloMigrator(EntropyService &service,
                         SloMigratorConfig cfg = {})
        : service_(service), cfg_(cfg)
    {
    }

    /** Put @p client under management (its priority picks the SLO). */
    void manage(EntropyService::Client client);

    /**
     * One evaluation: read every shard's recent latency tail, accrue
     * breaches, migrate clients whose breach count and cooldown
     * allow it and for which a meaningfully better shard exists.
     * @return migrations performed this tick.
     */
    size_t tick();

    /** Total migrations across all ticks. */
    uint64_t migrations() const { return migrations_; }

    /** Every migration performed, in order. */
    const std::vector<MigrationEvent> &events() const
    {
        return events_;
    }

    size_t managedClients() const { return managed_.size(); }

  private:
    struct Managed
    {
        EntropyService::Client client;
        uint32_t breach = 0;
        /** Tick index before which this client may not migrate. */
        uint64_t cooldownUntil = 0;
    };

    EntropyService &service_;
    SloMigratorConfig cfg_;
    std::vector<Managed> managed_;
    uint64_t tickIndex_ = 0;
    uint64_t migrations_ = 0;
    std::vector<MigrationEvent> events_;
};

} // namespace quac::service

#endif // QUAC_SERVICE_PLACEMENT_HH
