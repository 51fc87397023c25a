/**
 * @file
 * Sharded, multi-client entropy service (paper Section 9 scaled out;
 * DR-STRaNGe's end-to-end system design).
 *
 * A pool of backend generators (one QuacTrng per module, or any
 * core::Trng) feeds N sharded ring buffers of controller SRAM.
 * Clients connect with a priority class and are pinned to a shard;
 * requests are served from the shard's buffer, falling back to
 * synchronous generation (interactive/standard) or backpressure
 * (bulk) when drained. Refill is decoupled from the request path:
 * refillBelowWatermark()/refillTick() top shards up in whole backend
 * iterations on the caller's thread, unbudgeted or under a
 * channel-time budget from the scheduler-aware
 * MultiChannelRefillScheduler; or one producer thread
 * (startAutoRefill) keeps them topped up, woken by the request that
 * drains a shard to the watermark and holding a shard lock for one
 * backend chunk at a time, so a miss never waits for a whole top-up.
 *
 * Determinism: each shard drains its backend strictly in stream
 * order (refills and synchronous fills both advance the same
 * stream), so a given (backend seed, shard, per-shard request order)
 * schedule replays byte-identically — including across serial and
 * concurrent runs — as long as each backend serves one shard.
 * Shared backends (more shards than backends) stay correct and
 * race-free via per-backend locks, but the interleaving of refills
 * then decides which shard receives which bytes.
 *
 * Request data plane: buffered reads are lock-free. Each shard's
 * buffer is a ShardRing (service/shard_ring.hh), which consumers
 * claim from by CAS and the producer side publishes to; the hot-path
 * bookkeeping (per-client stats, per-shard outcome totals, the
 * recent-latency window, per-priority distributions) is sharded or
 * atomic, so a buffer hit never takes Shard::mutex. Slow paths
 * (miss/sync-fill, re-sourcing, retune/flush, storage resize) hold
 * the mutex, which serializes the ring's producer side; a stale
 * resourceEpoch_ diverts requests onto that path, so health
 * transitions are never raced past.
 *
 * A client's state lives with its handles and is freed with the last
 * copy, so a server that drops a client's handles (an evicted wire
 * client) frees its state; the service totals live in the shards.
 */

#ifndef QUAC_SERVICE_ENTROPY_SERVICE_HH
#define QUAC_SERVICE_ENTROPY_SERVICE_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"
#include "core/trng.hh"
#include "service/health.hh"
#include "service/latency_model.hh"
#include "service/shard_ring.hh"

namespace quac::service
{

/** Client request classes (DR-STRaNGe's latency/throughput split). */
enum class Priority : uint8_t
{
    /** Latency-critical: misses complete synchronously. */
    Interactive = 0,
    /** Default class: misses complete synchronously. */
    Standard = 1,
    /**
     * Throughput class served from buffered entropy only: a drained
     * shard returns a partial result (backpressure) instead of
     * stealing generator time from the other classes.
     */
    Bulk = 2,
};

/** Display name ("interactive", "standard", "bulk"). */
const char *priorityName(Priority priority);

/**
 * How connect() picks a shard for auto-placed clients (DR-STRaNGe's
 * RNG-interference failure mode: a latency-critical client pinned to
 * an overloaded shard stays slow forever under blind round-robin).
 */
enum class PlacementPolicy : uint8_t
{
    /** Shards assigned in connect order, blind to load. */
    RoundRobin = 0,
    /**
     * Interactive clients go to the shard with the lowest load score
     * (buffered-bytes deficit + recent p95, see shardLoadSnapshot());
     * Standard/Bulk clients still round-robin, so throughput traffic
     * keeps spreading instead of piling onto the emptiest shard.
     */
    LeastLoaded = 1,
};

/** Display name ("round-robin", "least-loaded"). */
const char *placementPolicyName(PlacementPolicy policy);

/** Outcome class of one admission-controlled connect (admit()). */
enum class AdmissionDecision : uint8_t
{
    /** Connected; AdmissionOutcome::client holds the handle. */
    Admitted = 0,
    /** Parked in the bounded retry queue; admissionTick() admits it
     * once interactive headroom recovers. */
    Queued = 1,
    /** Rejected outright: the retry queue is full. */
    Denied = 2,
};

/** Display name ("admitted", "queued", "denied"). */
const char *admissionDecisionName(AdmissionDecision decision);

/**
 * SLO-aware admission control for bulk connects (DR-STRaNGe's
 * interference failure mode: a flash crowd of throughput clients
 * drains the buffers the latency-critical class depends on). admit()
 * gates Bulk connects on interactive p99 headroom — the worst
 * per-shard recent p99 must sit at or below 0.8 x the SLO — and
 * parks the rest in a bounded FIFO retried with exponential backoff
 * (from one tick) by admissionTick(). Interactive/Standard clients
 * always connect: they are the class admission exists to protect.
 */
struct AdmissionConfig
{
    bool enabled = false;
    /** Interactive p99 SLO in modelled ns (> 0 when enabled). */
    double interactiveSloNs = 0.0;
    /** Retry-queue capacity; overflow is denied outright, so the
     * number of waiting connects is bounded by construction. */
    size_t maxQueuedConnects = 64;
    /** Backoff ceiling in admissionTick() ticks (>= 1): doubling per
     * failed retry stops here, so a parked connect keeps probing and
     * is eventually admitted once headroom returns. */
    uint32_t maxBackoffTicks = 16;
};

/** Service configuration. */
struct EntropyServiceConfig
{
    /** Shard count; 0 = one shard per backend. */
    size_t shards = 0;
    /** Buffer capacity per shard in bytes (controller SRAM slice). */
    size_t shardCapacityBytes = 4096;
    /**
     * Refill threshold: a shard is topped up once its fill level is
     * at or below this fraction of capacity.
     */
    double refillWatermark = 0.5;
    /**
     * Panic threshold: levels at or below this fraction count as
     * urgent demand, which the BufferedFair refill policy escalates
     * to demand-traffic expense.
     */
    double panicWatermark = 0.125;
    /** Shard choice for auto-placed connect() calls. */
    PlacementPolicy placement = PlacementPolicy::RoundRobin;
    /**
     * Per-shard recent-latency window size (samples) feeding
     * shardRecentPercentileNs() and the load score.
     */
    size_t recentLatencyWindow = 128;
    /** SLO-aware admission control on bulk connects (admit()). */
    AdmissionConfig admission;
    /**
     * Streaming SP 800-90B health monitoring (service/health.hh).
     * When enabled, every byte a backend bank produces is scored;
     * failing banks are quarantined and their shards re-sourced from
     * the remaining pool. Provision more backends than shards so a
     * re-sourced shard lands on an unconsumed spare stream — then
     * every healthy shard's output stays byte-identical to a
     * monitoring-off run (the standing replay invariant).
     */
    HealthConfig health;
};

/** Outcome of one client request. */
struct RequestResult
{
    /** Bytes actually delivered (may be < requested for Bulk). */
    size_t bytes = 0;
    /** The part of bytes that came from the shard buffer. */
    size_t bytesFromBuffer = 0;
    /** Served entirely from the shard buffer. */
    bool hit = false;
    /** The miss could not be completed (no servable bank, or the
     * backend failed with health monitoring off); bytes counts the
     * buffered prefix handed over. */
    bool denied = false;
    /**
     * Modelled end-to-end latency in simulated ns (timestamped
     * requests only; 0 for the untimed request path and denials).
     */
    double modeledLatencyNs = 0.0;
};

/** Per-client service statistics. */
struct ClientStats
{
    uint64_t requests = 0;
    uint64_t bufferHits = 0;
    /** Misses completed synchronously on the backend. */
    uint64_t synchronousFills = 0;
    /** Bulk-class misses served partially from the buffer. */
    uint64_t partialServes = 0;
    uint64_t denials = 0;
    uint64_t bytesServed = 0;
    uint64_t bytesFromBuffer = 0;
    uint64_t bytesSynchronous = 0;
    /** Times this client was moved to another shard. */
    uint64_t migrations = 0;
};

/** The sharded entropy service. */
class EntropyService
{
  public:
    /** Pass to connect() for round-robin shard placement. */
    static constexpr size_t autoShard = ~size_t{0};

    /**
     * @param backends generator pool (kept by reference, must
     *        outlive the service). Shard i pulls from backend
     *        i % backends.size().
     * @param cfg service parameters.
     */
    explicit EntropyService(std::vector<core::Trng *> backends,
                            EntropyServiceConfig cfg = {});

    EntropyService(const EntropyService &) = delete;
    EntropyService &operator=(const EntropyService &) = delete;

    ~EntropyService();

    /** Client handle. Copies share one state (shard pin and
     * statistics), which the last copy frees. */
    class Client
    {
      public:
        /**
         * Serve a request into @p out. Interactive/Standard clients
         * always receive @p len bytes unless denied; Bulk clients
         * receive what the shard buffer holds. With health
         * monitoring off, a backend failure that outlasts the
         * retries denies the request (counted, with its buffered
         * prefix in @p out) and is then rethrown.
         */
        RequestResult request(uint8_t *out, size_t len);

        /**
         * Zero-copy network serving entry: request() with a
         * no-throw guarantee. The payload lands directly in @p out
         * (a response datagram's payload region — buffered bytes
         * are claimed straight off the lock-free shard ring with no
         * intermediate copy), and the denial a backend failure
         * causes is returned without the rethrow, because a wire
         * server must answer DENY rather than unwind its event loop.
         */
        RequestResult serveInto(uint8_t *out, size_t len) noexcept;

        /**
         * Timestamped request: like request(), but the request
         * arrives at @p arrival_ns of the caller's simulated clock.
         * It queues behind earlier modelled work on the shard
         * (synchronous fills occupy the backend), its end-to-end
         * latency is returned in RequestResult::modeledLatencyNs and
         * recorded into the service's per-priority distribution.
         * Served bytes are identical to the untimed path.
         */
        RequestResult requestAt(uint8_t *out, size_t len,
                                double arrival_ns);

        /** Convenience byte-vector request (sized to served bytes). */
        std::vector<uint8_t> request(size_t len);

        const std::string &name() const;
        Priority priority() const;
        /** Shard this client is pinned to. */
        size_t shard() const;
        /** Snapshot of this client's statistics. */
        ClientStats stats() const;

      private:
        friend class EntropyService;
        struct State;
        Client(EntropyService *service, std::shared_ptr<State> state)
            : service_(service), state_(std::move(state))
        {
        }

        EntropyService *service_;
        std::shared_ptr<State> state_;
    };

    /**
     * Register a client. @p shard pins it to a specific shard;
     * autoShard places it by cfg.placement (round-robin in connect
     * order, or least-loaded for interactive clients under
     * PlacementPolicy::LeastLoaded).
     */
    Client connect(std::string name,
                   Priority priority = Priority::Standard,
                   size_t shard = autoShard);

    /** @name SLO-aware admission control (cfg.admission.enabled) */
    /**@{*/
    /** What admit() decided, plus the handle when admitted. */
    struct AdmissionOutcome
    {
        AdmissionDecision decision = AdmissionDecision::Admitted;
        /** Engaged iff decision == Admitted. */
        std::optional<Client> client;
    };

    /**
     * Admission-controlled connect. Interactive/Standard clients and
     * disabled admission pass straight through to connect(). Bulk
     * clients are admitted while interactive p99 headroom holds
     * (admissionHeadroom()) and the retry queue is empty (FIFO: no
     * overtaking parked clients); otherwise they are queued (bounded
     * by cfg.admission.maxQueuedConnects) or denied on overflow.
     */
    AdmissionOutcome admit(std::string name,
                           Priority priority = Priority::Standard,
                           size_t shard = autoShard);

    /**
     * One admission control-loop step (the scenario engine and the
     * campaign drivers call this once per tick): retries queued
     * connects that are due, in FIFO order, admitting while headroom
     * lasts and backing the queue head off (bounded exponential)
     * when it is still thin. Returns the clients admitted from the
     * queue this tick — the caller owns driving them. No-op (empty)
     * when admission is disabled.
     */
    std::vector<Client> admissionTick();

    /** Admission counters. */
    struct AdmissionStats
    {
        bool enabled = false;
        /** admit() calls that went through the bulk gate. */
        uint64_t attempts = 0;
        /** Total admitted (immediately + from the queue). */
        uint64_t admitted = 0;
        /** Parked in the retry queue at admit() time. */
        uint64_t queued = 0;
        /** Rejected outright (queue overflow). */
        uint64_t denied = 0;
        /** Queued-connect retry evaluations by admissionTick(). */
        uint64_t retries = 0;
        /** The part of `admitted` that waited in the queue. */
        uint64_t admittedFromQueue = 0;
        /** Currently waiting. */
        uint64_t queuedNow = 0;
        /** High-water mark of the queue depth. */
        uint64_t maxQueueDepth = 0;
    };

    AdmissionStats admissionStats() const;

    /**
     * The admission headroom signal: worst per-shard recent p99
     * (shardRecentPercentileNs) across the service — a windowed
     * measure of what latency-critical clients currently experience,
     * which recovers as the window ages out, unlike the cumulative
     * distributions.
     */
    double interactiveHeadroomP99Ns() const;

    /** Is the headroom signal at or below 0.8 x the SLO? */
    bool admissionHeadroom() const;
    /**@}*/

    /** @name Online backend retuning (thermal recalibration) */
    /**@{*/
    /**
     * Retune @p backend in place: run @p reconfigure under the
     * backend's lock (no fill in flight — e.g. a
     * ThermalGovernor::setTemperature band switch), and if it
     * returns true, flush every shard currently sourced from the
     * backend and mark its chunk granularity stale. The flushed
     * bytes span the recalibration (suspect): they are dropped
     * unserved rather than mixed across calibrations, and the band
     * switch may have changed the backend's iteration geometry, so
     * the next refill re-resolves the chunk size. Returns the
     * suspect bytes dropped (0 when @p reconfigure returned false).
     */
    size_t retuneBackend(size_t backend,
                         const std::function<bool()> &reconfigure);

    /** Suspect bytes dropped by retuning so far (never served). */
    uint64_t suspectBytesDropped() const
    {
        // relaxed: monotonic stats counter; readers need no ordering.
        return suspectBytesDropped_.load(std::memory_order_relaxed);
    }

    /** Size of the backend pool. */
    size_t backendCount() const { return backends_.size(); }
    /**@}*/

    /**
     * Move @p client to @p shard: its next request drains the new
     * shard's stream. Migration never changes any shard's output
     * bytes — each shard keeps draining its own backend in request
     * order; only which stream this client reads changes. Safe to
     * call concurrently with the client's own requests (a request
     * already in flight completes on the old shard).
     * @return true if the client actually moved (false: same shard).
     */
    bool migrateClient(const Client &client, size_t shard);

    /** @name Shard inspection */
    /**@{*/
    size_t shardCount() const { return shards_.size(); }
    /** Current fill level of @p shard in bytes. */
    size_t level(size_t shard) const;
    /** Sum of all shard levels. */
    size_t totalLevel() const;

    /**
     * Nearest-rank percentile of @p shard's recent non-bulk request
     * latencies (timestamped requests only; 0 when none recorded).
     * This is the windowed per-shard signal the SLO migrator and the
     * latency-driven rebalancer consume — old congestion ages out of
     * the window once the shard recovers.
     */
    double shardRecentPercentileNs(size_t shard, double q) const;
    double shardRecentP95Ns(size_t shard) const
    {
        return shardRecentPercentileNs(shard, 0.95);
    }

    /**
     * The shard's decayed tail-latency estimate (see
     * Shard::decayedTailNs). Maintained only while admission is
     * enabled; 0 otherwise.
     */
    double shardDecayedTailNs(size_t shard) const;

    /** One consistent placement view of a shard. */
    struct ShardLoadSnapshot
    {
        /**
         * Placement load score: buffered-bytes deficit as a fraction
         * of capacity (0 = full, 1 = drained), plus 1e-3 per ns of
         * the recent p95 request latency, plus 1e-3 per ns of queued
         * modelled work (see loadOf()). Lower is better.
         */
        double load = 0.0;
        double recentP95Ns = 0.0;
        double recentP99Ns = 0.0;
    };

    /**
     * Load score and recent p95/p99 in one wait-free pass over the
     * shard's atomic cursors and lock-free latency window — the
     * per-tick probe the SLO migrator and the latency rebalancer
     * issue for every shard never contends with the request path.
     */
    ShardLoadSnapshot shardLoadSnapshot(size_t shard) const;
    /**@}*/

    /** @name Refill */
    /**@{*/
    /** Total and urgent refill demand in one consistent snapshot. */
    struct RefillDemand
    {
        /**
         * Bytes needed to top every at-or-below-watermark shard up to
         * capacity, rounded up to whole backend chunks (what a refill
         * would actually pull).
         */
        size_t bytes = 0;
        /** The part of bytes from shards at or below the panic
         * watermark (escalated under BufferedFair); always <= bytes. */
        size_t urgentBytes = 0;
    };

    /**
     * Both demand figures with each shard's deficit read under one
     * lock acquisition, so urgentBytes <= bytes holds even while
     * clients drain concurrently.
     */
    RefillDemand refillDemand();

    /**
     * Demand restricted to @p shards (a channel's placement set in
     * the multi-channel refill scheduler).
     */
    RefillDemand refillDemand(const std::vector<size_t> &shards);

    /**
     * Top up every shard at or below the watermark to capacity in
     * whole backend chunks (a shard may transiently exceed capacity
     * by less than one chunk): refillTick() with no budget, so shards
     * are visited most-drained first. @return bytes added.
     */
    size_t refillBelowWatermark();

    /**
     * Budgeted refill: top shards at or below the watermark up until
     * @p budget_bytes have been pulled, visiting most-drained shards
     * first (ties by shard index, so the order is deterministic).
     * The final chunk may overshoot the budget by less than one
     * chunk. @return bytes added.
     */
    size_t refillTick(size_t budget_bytes);

    /**
     * Budgeted refill restricted to @p shards: the per-channel form
     * used by the multi-channel scheduler, so each channel's granted
     * time only tops up the shards placed on it. Most-drained-first
     * within the set, ties by shard index.
     */
    size_t refillTick(size_t budget_bytes,
                      const std::vector<size_t> &shards);

    /**
     * Start the refill producer, the memory controller's continuous
     * idle-bandwidth top-ups. It tops every shard at or below the
     * watermark up to capacity, one shard after another, most
     * drained first, one backend chunk per shard-lock hold, then
     * sleeps until a request leaves a shard at or below the
     * watermark (which wakes it) or @p period passes. Every
     * @p period it also runs healthTick(). Idempotent; stopped by
     * stopAutoRefill() or destruction.
     */
    void startAutoRefill(std::chrono::microseconds period);
    void stopAutoRefill();
    bool autoRefillRunning() const;
    /**@}*/

    /** @name Aggregate statistics
     *
     * Request-path aggregates sum the per-shard outcome counters
     * without a lock (no service-wide counter on the hot path), so
     * they outlive the clients that made the requests; refill
     * aggregates are producer-side atomics.
     */
    /**@{*/
    uint64_t requestsServed() const;
    uint64_t bufferHits() const { return outcomeTotal(kHit); }
    uint64_t synchronousFills() const
    {
        return outcomeTotal(kSyncFill);
    }
    uint64_t denials() const { return outcomeTotal(kDenied); }
    uint64_t bytesRefilled() const { return bytesRefilled_.load(); }
    /**@}*/

    /** @name Health monitoring (cfg.health.enabled) */
    /**@{*/
    /** Service-level health counters. */
    struct HealthStats
    {
        bool enabled = false;
        /** Bank quarantine / re-admission transitions. */
        uint64_t quarantines = 0;
        uint64_t readmissions = 0;
        /** Backend fills that threw (caught, counted, survived). */
        uint64_t refillFailures = 0;
        /** Bytes dropped (never served) because their bank was
         * detected unhealthy: triggering pulls, flushed rings, and
         * lock-free claims that raced a detection. */
        uint64_t unhealthyBytesDropped = 0;
        /**
         * Tripwire: bytes served while the sourcing bank was
         * detected-unhealthy. Structurally zero — a nonzero value
         * means the quarantine plumbing leaked.
         */
        uint64_t unhealthyBytesServed = 0;
        /** Shard re-sourcings (quarantine moves + returns home). */
        uint64_t shardResourcings = 0;
    };

    /** Snapshot of the health counters (zeros when disabled). */
    HealthStats healthStats() const;

    /** The monitor, or nullptr when health is disabled. */
    const HealthMonitor *healthMonitor() const
    {
        return monitor_.get();
    }

    /**
     * One health control-loop step: draws a probation window from
     * every quarantined/probation bank (advancing re-admission
     * without client traffic) and eagerly propagates pending
     * quarantine/re-admission transitions to every shard (flush +
     * re-source). The refill schedulers call this once per tick; the
     * refill producer (startAutoRefill) calls it once per period.
     * No-op when health is disabled.
     */
    void healthTick();

    /** Backend bank currently sourcing @p shard (re-sourcing moves
     * it; equals the home bank while the home bank is healthy). */
    size_t shardBackendIndex(size_t shard) const;
    /**@}*/

    /** @name Modelled request latency (timestamped requests) */
    /**@{*/
    /**
     * Install the synchronous-fill channel rate, normally the
     * BusScheduler-measured sched::RefillCost::nsPerByte (the refill
     * schedulers call this when configured to).
     */
    void setMissLatencyNsPerByte(double ns_per_byte);

    /** Snapshot of @p priority's end-to-end latency distribution. */
    LatencyDistribution latencySnapshot(Priority priority) const;

    /** Drop all recorded latency samples (not the model config). */
    void resetLatencyStats();
    /**@}*/

  private:
    /** Request outcomes; finishRequest counts each request under
     * exactly one, on its client and on the shard that served it. */
    enum Outcome : uint8_t
    {
        kHit,
        kSyncFill,
        /** Bulk miss answered with what the buffer held. */
        kPartial,
        kDenied,
        kOutcomeCount,
    };
    using OutcomeCounts =
        std::array<std::atomic<uint64_t>, kOutcomeCount>;

    /** Sum of @p outcome over every shard; wait-free. */
    uint64_t outcomeTotal(Outcome outcome) const;

    /**
     * One shard: a ring over a slice of controller SRAM plus the
     * backend it drains. The ring holds capacity + one chunk of
     * headroom so refills can pull whole backend iterations without
     * discarding entropy; it is sized on the first chunk query
     * (chunkLocked), because preferredChunkBytes() may run the
     * backend's one-time setup (QuacTrng::setup), which must not run
     * at construction. The mutex serializes the ring's producer side
     * and guards every slow path: refill, sync-fill, re-sourcing,
     * retune/flush, and chunk resolution.
     */
    struct Shard
    {
        mutable Mutex mutex;
        /** Atomic because the lock-free serve path reads it for the
         * unhealthy-serve tripwire; written under the mutex. */
        std::atomic<size_t> backendIndex{0};
        /** The bank this shard was constructed on; a re-sourced
         * shard returns here once the bank is re-admitted. */
        size_t homeBackend QUAC_GUARDED_BY(mutex) = 0;
        /** Last resourceEpoch_ this shard revalidated against; the
         * lock-free path compares it before claiming and falls to
         * the mutex path on any pending transition. */
        std::atomic<uint64_t> seenEpoch{0};
        size_t chunk QUAC_GUARDED_BY(mutex) = 0;
        bool chunkKnown QUAC_GUARDED_BY(mutex) = false;
        /** Requests this shard served, by outcome (the service
         * totals). With the ring's cursors right after them they
         * fill one cache line that every request writes anyway, so
         * counting touches no extra line. */
        alignas(64) OutcomeCounts outcomes{};
        /**
         * The buffered entropy. Deliberately NOT GUARDED_BY(mutex):
         * lock-free readers take() from it with no lock held, so a
         * mutex annotation would be a lie requiring
         * NO_THREAD_SAFETY_ANALYSIS escapes on the hot path. Its
         * producer side (reserve/publish, flush, resize) is only
         * called with the mutex held.
         */
        ShardRing ring;
        /**
         * Simulated time the shard's request path is busy until
         * (latency model): synchronous fills occupy the backend, so
         * later timestamped arrivals queue behind them. Misses store
         * it under the mutex; lock-free timed hits only read.
         */
        std::atomic<double> busyUntilNs{0.0};
        /**
         * Requests blocked on (or about to take) the mutex on the
         * slow path. The refill producer passes over a shard while
         * one waits: it re-locks within nanoseconds of an unlock,
         * before the woken waiter runs, so without this a miss could
         * wait for the whole top-up.
         */
        std::atomic<uint32_t> missWaiting{0};
        /**
         * Recent non-bulk request latencies served by this shard
         * (timestamped requests only) — the placement/migration load
         * signal. Internally lock-free.
         */
        RecentLatencyWindow recent;
        /**
         * Decaying max of the non-bulk modelled latencies — the
         * admission gate's congestion memory. Unlike `recent`, it is
         * never cleared by a full top-up; it only ages out through
         * per-sample and per-admissionTick decay (kTailDecayPerSample
         * in entropy_service.cc).
         */
        std::atomic<double> decayedTailNs{0.0};
        /**
         * Per-priority end-to-end latency distributions, sharded so
         * the timed path never crosses a service-global lock;
         * latencySnapshot() merges them across shards.
         */
        std::array<LatencyDistribution, 3> latencyByClass;
    };

    /**
     * The shard's backend chunk granularity, resolved lazily on
     * first use (Trng::preferredChunkBytes may run the backend's
     * one-time characterization); also sizes the ring storage.
     */
    size_t chunkLocked(Shard &shard) QUAC_REQUIRES(shard.mutex);

    /** What one fillObserved() call saw. */
    struct FillOutcome
    {
        /** The backend threw (counted and reported to the monitor);
         * the health-off miss path hands it to request(). */
        std::exception_ptr error;
        /** Observing the filled bytes changed the bank's health
         * state. A read failure never sets this, even when it flags
         * the last bank: the miss path must keep retrying then, not
         * flush the ring and deny. */
        bool changed = false;
    };

    /**
     * The one backend-fill path: fill @p len bytes into @p out, then
     * @p wrap_len more into @p wrap (the ring's wrapped tail), under
     * the backend lock, and observe them through the health monitor
     * in stream order. A throw is caught, counted and reported as a
     * read failure; any state change bumps resourceEpoch_.
     */
    FillOutcome fillObserved(size_t backend, uint8_t *out, size_t len,
                             uint8_t *wrap = nullptr,
                             size_t wrap_len = 0);

    /**
     * Pull @p want bytes from the backend into the ring, observing
     * them through the health monitor. Returns the bytes actually
     * admitted: 0 when the fill threw (caught and counted — the
     * shard keeps serving its buffered bytes) or when the bank was
     * detected unhealthy by this very pull (the bytes and the ring
     * are dropped and the shard re-sources).
     */
    size_t pullLocked(Shard &shard, size_t want)
        QUAC_REQUIRES(shard.mutex);

    /**
     * Catch up with quarantine/re-admission transitions (cheap
     * epoch check): a shard on a detected-unhealthy bank flushes its
     * ring and re-sources; a re-sourced shard whose home bank was
     * re-admitted returns home. Shard mutex held.
     */
    void revalidateLocked(Shard &shard)
        QUAC_REQUIRES(shard.mutex);

    /**
     * Move the shard off its current bank onto the servable bank
     * sourcing the fewest shards (ascending index tie-break, so
     * spare banks are preferred and the pick is deterministic).
     * Stays put when no alternative servable bank exists. Shard
     * mutex held, ring already flushed.
     */
    void resourceShardLocked(Shard &shard)
        QUAC_REQUIRES(shard.mutex);

    /** Rebind the shard to @p target (sourcing bookkeeping + lazy
     * chunk re-resolution). Shard mutex held, ring flushed. */
    void moveShardLocked(Shard &shard, size_t target)
        QUAC_REQUIRES(shard.mutex);

    /**
     * Complete a miss synchronously into @p out, re-sourcing away
     * from banks that throw or are detected unhealthy under the
     * fill; served bytes always come from a servable bank. Returns
     * false when no servable bank could produce the bytes (the
     * request is denied). Without health monitoring a backend
     * exception is retried a bounded number of times with bounded
     * exponential backoff, then denies the request and is stored in
     * @p error.
     */
    bool syncFillLocked(Shard &shard, uint8_t *out, size_t need,
                        std::exception_ptr &error)
        QUAC_REQUIRES(shard.mutex);

    /**
     * Deficit if the shard is at/below @p frac, rounded up to whole
     * backend chunks. Resolves the chunk lazily, and only when a
     * deficit exists.
     */
    size_t deficitLocked(Shard &shard, double frac)
        QUAC_REQUIRES(shard.mutex);

    /** Missing buffered bytes as a fraction of capacity (0..1);
     * wait-free (atomic cursor reads). */
    double deficitFraction(const Shard &shard) const;

    /** Queued modelled work in ns (busyUntilNs past the latest
     * modelled arrival, clamped at 0); wait-free. */
    double busyHorizonNs(const Shard &shard) const;

    /** Placement load score given the shard's recent @p p95_ns;
     * wait-free. */
    double loadOf(const Shard &shard, double p95_ns) const;

    /** The shard connect() picks for an interactive client under
     * LeastLoaded placement (min load score, ties by index). */
    size_t leastLoadedShard() const;

    /**
     * Serve one request. @p arrival_ns is the simulated arrival time
     * of a timestamped request; NaN disables the latency model (the
     * untimed path). The backend failure behind a health-off denial
     * is stored in @p error, after the request was counted.
     */
    RequestResult requestOn(Client::State &client, uint8_t *out,
                            size_t len, double arrival_ns,
                            std::exception_ptr &error);

    /**
     * Shared request epilogue for the lock-free and mutex serve
     * paths: the modelled-latency bookkeeping (timed requests), the
     * per-client and per-shard outcome counters, and the producer
     * wake-up when the request left the shard at or below the
     * watermark. Takes no lock unless it wakes a sleeping producer.
     */
    RequestResult finishRequest(Client::State &client, Shard &shard,
                                RequestResult result,
                                size_t synchronous_bytes,
                                double arrival_ns);

    EntropyServiceConfig cfg_;
    /** The backend pool (not owned); re-sourcing picks from here. */
    std::vector<core::Trng *> backends_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** One lock per backend: shards sharing a backend serialize.
     * Lock order: Shard::mutex -> backend lock -> monitor mutex. */
    std::vector<std::unique_ptr<Mutex>> backendLocks_;

    /** Null unless cfg.health.enabled. */
    std::unique_ptr<HealthMonitor> monitor_;
    /** Guards sourcingCount_ and the donor pick (never nested
     * inside a backend lock). */
    Mutex sourcingMutex_;
    /** Shards currently sourced from each bank. */
    std::vector<size_t> sourcingCount_
        QUAC_GUARDED_BY(sourcingMutex_);
    /**
     * Bumped on every monitor state transition; shards compare it
     * against their seenEpoch under their own lock (revalidateLocked)
     * so quarantine reactions never need cross-shard locking.
     */
    std::atomic<uint64_t> resourceEpoch_{0};
    std::atomic<uint64_t> refillFailures_{0};
    std::atomic<uint64_t> unhealthyBytesDropped_{0};
    std::atomic<uint64_t> unhealthyBytesServed_{0};
    std::atomic<uint64_t> resourcings_{0};
    std::atomic<uint64_t> suspectBytesDropped_{0};

    /** Round-robin placement cursor of connect(). */
    std::atomic<size_t> nextShard_{0};

    /** One connect parked by admission control. */
    struct PendingConnect
    {
        std::string name;
        Priority priority = Priority::Bulk;
        size_t shard = autoShard;
        /** admissionTick() index before which no retry happens. */
        uint64_t notBeforeTick = 0;
        /** Current backoff (doubles per failed retry, bounded). */
        uint32_t backoffTicks = 1;
    };

    /** Guards the admission queue and counters. Never held across
     * shard locks or connect(): the headroom probe runs before it is
     * taken, and admit/admissionTick release it around the actual
     * connect. */
    mutable Mutex admissionMutex_;
    std::deque<PendingConnect> admissionQueue_
        QUAC_GUARDED_BY(admissionMutex_);
    uint64_t admissionTickIndex_ QUAC_GUARDED_BY(admissionMutex_) = 0;
    AdmissionStats admissionStats_ QUAC_GUARDED_BY(admissionMutex_);

    std::atomic<uint64_t> bytesRefilled_{0};

    /** Installed sync-fill rate; 0 = the model's default rate. */
    std::atomic<double> missNsPerByte_{0.0};

    /**
     * Latest modelled arrival timestamp seen by any timed request —
     * the load score's "now": a shard's queued-work horizon is
     * busyUntilNs minus this (clamped at 0). Monotonic CAS-max.
     */
    std::atomic<double> latestArrivalNs_{0.0};

    /** @name The refill producer (startAutoRefill) */
    /**@{*/
    /** The producer thread's body: chunk after chunk while a shard
     * needs one (health tick once per @p period), then sleep until
     * woken or the next health tick. */
    void produce(std::chrono::microseconds period);

    /**
     * One producer step: pull one backend chunk, under Shard::mutex,
     * into @p current while it is being filled, else into the most
     * drained shard that is (which becomes @p current), passing over
     * shards a request holds or waits for while another one needs a
     * chunk. A shard is filled from the time it is found at or below
     * the watermark until it reaches capacity; @p pass holds each
     * shard's state (see kPassIdle in the .cc) between steps.
     * Returns false when no shard needs a chunk.
     */
    bool topUpChunk(std::vector<uint8_t> &pass, size_t &current);

    /** Pull one backend chunk into @p shard and update its pass
     * @p state (idle once full, skipped when the backend threw). */
    void fillChunkLocked(Shard &shard, uint8_t &state)
        QUAC_REQUIRES(shard.mutex);

    /** Does any shard sit at or below wakeLevel_? */
    bool refillDue() const;

    /** Notify the producer if it sleeps; see finishRequest. */
    void wakeProducer();

    /** Highest level at which a shard needs a refill: the watermark
     * threshold, below capacity (a full shard never needs one). */
    size_t wakeLevel_ = 0;
    /** Set by the producer before its last level check ahead of a
     * sleep, cleared by the first request that wakes it. */
    std::atomic<bool> producerAsleep_{false};

    /** Guards the refillThread_ object itself (start/stop/running);
     * refillMutex_ covers the producer's stop flag and its sleep. A
     * miss may take refillMutex_ under Shard::mutex (wakeProducer);
     * the producer never takes a shard lock while holding it. */
    mutable Mutex refillControlMutex_;
    std::thread refillThread_ QUAC_GUARDED_BY(refillControlMutex_);
    Mutex refillMutex_;
    CondVar refillCv_;
    bool stopRefill_ QUAC_GUARDED_BY(refillMutex_) = false;
    /**@}*/
};

} // namespace quac::service

#endif // QUAC_SERVICE_ENTROPY_SERVICE_HH
