#include "service/entropy_service.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hh"

namespace quac::service
{

const char *
priorityName(Priority priority)
{
    switch (priority) {
    case Priority::Interactive: return "interactive";
    case Priority::Standard: return "standard";
    case Priority::Bulk: return "bulk";
    }
    return "?";
}

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
    case PlacementPolicy::RoundRobin: return "round-robin";
    case PlacementPolicy::LeastLoaded: return "least-loaded";
    }
    return "?";
}

const char *
admissionDecisionName(AdmissionDecision decision)
{
    switch (decision) {
    case AdmissionDecision::Admitted: return "admitted";
    case AdmissionDecision::Queued: return "queued";
    case AdmissionDecision::Denied: return "denied";
    }
    return "?";
}

namespace
{

/** Modelled controller-SRAM read + response for a buffered request,
 * in simulated ns (timestamped requests only). */
constexpr double kHitNs = 20.0;
/** Modelled fixed per-request arbitration/bookkeeping overhead. */
constexpr double kPerRequestNs = 5.0;
/** Modelled synchronous-generation cost per missing byte until a
 * refill scheduler installs its BusScheduler-measured channel rate
 * (setMissLatencyNsPerByte); approximates one DDR4-2400 4-bank QUAC
 * channel. */
constexpr double kDefaultMissNsPerByte = 2.0;

/** Load-score weight of a shard's recent p95 latency, per ns: ~1 us
 * of recent tail outweighs a completely drained buffer, so a shard
 * whose clients miss to synchronous fills repels new interactive
 * placements even when its buffer is momentarily full. */
constexpr double kPlacementLatencyWeight = 1.0e-3;
/** Load-score weight of queued modelled work, per ns of busy horizon
 * (busyHorizonNs). The windowed p95 only sees completed requests, so
 * a shard that just absorbed a burst of misses looks idle to it until
 * those latencies retire; the horizon term repels placements from
 * work that is committed but not yet visible. */
constexpr double kPlacementBusyWeight = 1.0e-3;

/** Admit bulk connects while the worst recent shard p99 is at or
 * below this fraction of the interactive SLO; the remaining margin
 * absorbs the admitted client's own drain before the next check. */
constexpr double kHeadroomFraction = 0.8;
/** Base retry backoff of a parked connect in admissionTick() ticks;
 * it doubles per failed retry up to AdmissionConfig::maxBackoffTicks.
 */
constexpr uint32_t kRetryBackoffTicks = 1;
/**
 * Decay factor of Shard::decayedTailNs, applied per non-bulk timed
 * sample (max(sample, estimate * decay)) and once more per
 * admissionTick. Halving per good sample (0.5^4 ~= 0.06 across one
 * small window) is strong enough to bridge the blind spot a full
 * top-up leaves in the windowed p99, weak enough that a genuinely
 * recovered shard reopens the gate within about one window of good
 * samples.
 */
constexpr double kTailDecayPerSample = 0.5;

/**
 * Health-off synchronous-fill retry budget: a backend exception on
 * the miss path is caught, counted (HealthStats::refillFailures) and
 * the fill retried up to this many more times before the error
 * surfaces. Transient interface faults (a FaultInjectedTrng
 * ReadFailure window) advance the stream past the fault on every
 * attempt, so a retry genuinely can serve the bytes.
 */
constexpr uint32_t kSyncFillRetries = 2;
/** Base wall-clock backoff between those retries; doubles per
 * attempt, capped at 16x the base. */
constexpr std::chrono::microseconds kSyncFillBackoff{50};

/** Bytes the refill producer pulls per shard-lock hold from a
 * backend with no preferred chunk (preferredChunkBytes() == 0): it
 * bounds how long a miss on that shard waits behind the producer. */
constexpr size_t kProducerStepBytes = 1024;

/** The refill producer's view of a shard between sleeps
 * (EntropyService::topUpChunk). */
constexpr uint8_t kPassIdle = 0;
/** Found at or below the watermark; being filled to capacity. */
constexpr uint8_t kPassFilling = 1;
/** Its pull admitted nothing (the backend threw); left until the
 * producer has slept. */
constexpr uint8_t kPassSkipped = 2;
/** Filling, but locked by a request during this step. */
constexpr uint8_t kPassBusy = 3;

} // anonymous namespace

/**
 * Per-client state, shared by the client's handles. The shard pin is
 * atomic so migration can race with the client's own requests (a
 * request in flight resolves the pin once, at entry). Statistics are
 * relaxed per-client atomics — the sharded accumulators of the
 * lock-free data plane — so a request never serializes against a
 * stats() reader or another request after a migration. Counts
 * observed after a thread join are exact; a concurrent stats()
 * snapshot may tear between fields, but each field is itself exact.
 */
struct EntropyService::Client::State
{
    std::string name;
    Priority priority = Priority::Standard;
    std::atomic<size_t> shard{0};
    OutcomeCounts outcomes{};
    std::atomic<uint64_t> bytesServed{0};
    std::atomic<uint64_t> bytesFromBuffer{0};
    std::atomic<uint64_t> bytesSynchronous{0};
    std::atomic<uint64_t> migrations{0};
};

EntropyService::EntropyService(std::vector<core::Trng *> backends,
                               EntropyServiceConfig cfg)
    : cfg_(std::move(cfg)), backends_(std::move(backends))
{
    if (backends_.empty())
        fatal("EntropyService needs at least one backend");
    for (core::Trng *backend : backends_) {
        if (!backend)
            fatal("EntropyService backend is null");
    }
    if (cfg_.refillWatermark < 0.0 || cfg_.refillWatermark > 1.0)
        fatal("refill watermark must be in [0, 1]");
    if (cfg_.panicWatermark < 0.0 ||
        cfg_.panicWatermark > cfg_.refillWatermark)
        fatal("panic watermark must be in [0, refill watermark]");
    if (cfg_.shardCapacityBytes == 0)
        fatal("shard capacity must be > 0 (for an unbuffered "
              "generator call Trng::fill directly)");
    if (cfg_.recentLatencyWindow == 0)
        fatal("recent latency window must hold at least one sample");
    if (cfg_.admission.enabled) {
        if (cfg_.admission.interactiveSloNs <= 0.0)
            fatal("admission control needs an interactive SLO > 0");
        if (cfg_.admission.maxQueuedConnects == 0)
            fatal("admission queue must hold at least one connect "
                  "(disable admission for an always-deny gate)");
        if (cfg_.admission.maxBackoffTicks < 1)
            fatal("admission backoff ceiling must be >= 1 tick");
    }
    admissionStats_.enabled = cfg_.admission.enabled;
    // The threshold deficitLocked applies, kept below capacity: a
    // full shard never needs a refill, even at watermark 1.
    double threshold = cfg_.refillWatermark *
                       static_cast<double>(cfg_.shardCapacityBytes);
    wakeLevel_ = std::min(static_cast<size_t>(threshold),
                          cfg_.shardCapacityBytes - 1);

    // The HealthMonitor and StreamingHealthTester constructors
    // validate the health knobs themselves (zero/misaligned window,
    // zero probation windows) via fatal().
    if (cfg_.health.enabled)
        monitor_ = std::make_unique<HealthMonitor>(backends_.size(),
                                                   cfg_.health);

    size_t nshards = cfg_.shards ? cfg_.shards : backends_.size();
    backendLocks_.reserve(backends_.size());
    for (size_t b = 0; b < backends_.size(); ++b)
        backendLocks_.push_back(std::make_unique<Mutex>());

    sourcingCount_.assign(backends_.size(), 0);
    shards_.reserve(nshards);
    for (size_t i = 0; i < nshards; ++i) {
        auto shard = std::make_unique<Shard>();
        size_t backend_index = i % backends_.size();
        // relaxed: construction is single-threaded; the service is
        // published to other threads after the constructor returns.
        shard->backendIndex.store(backend_index,
                                  std::memory_order_relaxed);
        shard->homeBackend = backend_index;
        shard->recent = RecentLatencyWindow(cfg_.recentLatencyWindow);
        ++sourcingCount_[backend_index];
        shards_.push_back(std::move(shard));
    }
}

size_t
EntropyService::chunkLocked(Shard &shard)
{
    if (!shard.chunkKnown) {
        {
            // preferredChunkBytes() may run QuacTrng::setup() (the
            // one-time characterization), so it is deferred to first
            // use: construction stays cheap and setup sees the module
            // state at refill time.
            // relaxed: backendIndex only changes under the shard
            // mutex held here.
            size_t backend =
                shard.backendIndex.load(std::memory_order_relaxed);
            MutexLock backend_lock(*backendLocks_[backend]);
            shard.chunk = backends_[backend]->preferredChunkBytes();
        }
        shard.chunkKnown = true;
        // Capacity plus one chunk of headroom: refills pull whole
        // backend iterations and discard no generated entropy, so a
        // full shard can exceed capacity by less than one chunk. The
        // ring is empty here: the chunk is unknown only before the
        // first refill and after a flush (re-sourcing, retune).
        shard.ring.resize(cfg_.shardCapacityBytes + shard.chunk);
    }
    return shard.chunk;
}

EntropyService::~EntropyService()
{
    stopAutoRefill();
}

size_t
EntropyService::pullLocked(Shard &shard, size_t want)
{
    if (want == 0)
        return 0;
    ShardRing::Spans spans = shard.ring.reserve(want);
    // relaxed: backendIndex only changes under the shard mutex held
    // here.
    size_t backend_index =
        shard.backendIndex.load(std::memory_order_relaxed);
    FillOutcome fill =
        fillObserved(backend_index, spans.first.data(),
                     spans.first.size(), spans.second.data(),
                     spans.second.size());
    // A state transition during this very pull marks the whole span
    // suspect even if the bank ended it servable (a large pull over a
    // bounded fault can quarantine AND re-admit within one observe;
    // admitting those bytes would serve the detected-bad window
    // between the two transitions).
    if (monitor_ &&
        (fill.changed || !monitor_->servable(backend_index))) {
        // This pull detected the collapse, or repeated failures
        // crossed the quarantine limit: the pulled bytes are never
        // published, everything still buffered from the bank is
        // dropped unserved, and the shard moves to a servable bank.
        // relaxed: monotonic stats counter(s); readers take snapshots
        // and need no ordering.
        unhealthyBytesDropped_.fetch_add(
            (fill.error ? 0 : want) + shard.ring.flush(),
            std::memory_order_relaxed);
        resourceShardLocked(shard);
        return 0;
    }
    // The backend misbehaved mid-fill: nothing is admitted to the
    // ring, and the shard keeps serving the bytes it already
    // buffered.
    if (fill.error)
        return 0;
    shard.ring.publish(want);
    // A full top-up retires the shard's congestion history: the tail
    // the window measured came from an empty buffer that no longer
    // exists, and without this reset a recovered shard that lost its
    // timed traffic (e.g. after its clients migrated away) would
    // repel placements and trip the latency rebalancer forever. If
    // congestion persists, the very next misses rebuild the signal.
    if (shard.ring.level() >= cfg_.shardCapacityBytes)
        shard.recent.clear();
    return want;
}

void
EntropyService::moveShardLocked(Shard &shard, size_t target)
{
    QUAC_ASSERT(shard.ring.level() == 0,
                "re-sourcing a non-flushed shard");
    // relaxed: backendIndex only changes under the shard mutex held
    // here.
    size_t old = shard.backendIndex.load(std::memory_order_relaxed);
    {
        MutexLock lock(sourcingMutex_);
        --sourcingCount_[old];
        ++sourcingCount_[target];
    }
    shard.backendIndex.store(target, std::memory_order_release);
    // Chunk granularity differs per backend; re-resolve lazily (the
    // resize in chunkLocked is safe: the ring is empty).
    shard.chunkKnown = false;
    // relaxed: monotonic stats counter(s); readers take snapshots and
    // need no ordering.
    resourcings_.fetch_add(1, std::memory_order_relaxed);
}

void
EntropyService::resourceShardLocked(Shard &shard)
{
    // relaxed: backendIndex only changes under the shard mutex held
    // here.
    size_t old = shard.backendIndex.load(std::memory_order_relaxed);
    size_t best = old;
    size_t best_count = std::numeric_limits<size_t>::max();
    {
        MutexLock lock(sourcingMutex_);
        for (size_t b = 0; b < backends_.size(); ++b) {
            if (b == old)
                continue;
            if (monitor_ && !monitor_->servable(b))
                continue;
            // Strict < on an ascending scan: fewest sourcing shards
            // wins, ties to the lowest index. Spare banks (count 0)
            // are preferred, which is what keeps every healthy
            // shard's stream untouched by someone else's failover.
            if (sourcingCount_[b] < best_count) {
                best = b;
                best_count = sourcingCount_[b];
            }
        }
    }
    if (best == old)
        return; // no servable alternative; stay (flagged-but-serving)
    moveShardLocked(shard, best);
}

void
EntropyService::revalidateLocked(Shard &shard)
{
    if (!monitor_)
        return;
    uint64_t epoch = resourceEpoch_.load(std::memory_order_acquire);
    // relaxed: seenEpoch and backendIndex only change under the shard
    // mutex held here; the acquire on resourceEpoch_ above orders the
    // comparison.
    if (shard.seenEpoch.load(std::memory_order_relaxed) == epoch)
        return;
    size_t backend_index =
        shard.backendIndex.load(std::memory_order_relaxed);
    if (!monitor_->servable(backend_index)) {
        // The bank was quarantined by someone else's observation
        // (another shard's pull, a probation draw): drop the
        // buffered bytes unserved and move.
        unhealthyBytesDropped_.fetch_add(shard.ring.flush(),
                                         std::memory_order_relaxed);
        resourceShardLocked(shard);
    } else if (backend_index != shard.homeBackend &&
               monitor_->state(shard.homeBackend) ==
                   BankState::Healthy) {
        // Home bank re-admitted: return, freeing the donor for the
        // next failover. The donor bytes still buffered are healthy
        // but discarded — continuity of the home stream matters
        // more than one ring of spare entropy.
        shard.ring.flush();
        moveShardLocked(shard, shard.homeBackend);
    }
    // Published only after any flush/re-sourcing above: a lock-free
    // reader that observes the fresh epoch (acquire) is therefore
    // ordered after the flush and can never claim the dropped span.
    shard.seenEpoch.store(epoch, std::memory_order_release);
}

size_t
EntropyService::deficitLocked(Shard &shard, double frac)
{
    size_t capacity = cfg_.shardCapacityBytes;
    size_t threshold =
        static_cast<size_t>(frac * static_cast<double>(capacity));
    size_t buffered = shard.ring.level();
    if (buffered > threshold)
        return 0;
    size_t want = capacity > buffered ? capacity - buffered : 0;
    if (want == 0)
        return 0;
    size_t chunk = chunkLocked(shard);
    if (chunk > 0)
        want = (want + chunk - 1) / chunk * chunk;
    return want;
}

size_t
EntropyService::refillBelowWatermark()
{
    return refillTick(SIZE_MAX);
}

size_t
EntropyService::refillTick(size_t budget_bytes)
{
    std::vector<size_t> all(shards_.size());
    std::iota(all.begin(), all.end(), size_t{0});
    return refillTick(budget_bytes, all);
}

size_t
EntropyService::refillTick(size_t budget_bytes,
                           const std::vector<size_t> &shards)
{
    // Most-drained shards first; ties broken by index so the visit
    // order (and hence which shard the budget runs out on) is a
    // deterministic function of the levels.
    std::vector<size_t> order = shards;
    std::vector<size_t> levels(shards_.size());
    for (size_t index : order) {
        QUAC_ASSERT(index < shards_.size(), "shard=%zu", index);
        levels[index] = level(index);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return levels[a] != levels[b] ? levels[a] < levels[b] : a < b;
    });

    size_t added = 0;
    for (size_t index : order) {
        if (budget_bytes == 0)
            break;
        Shard &shard = *shards_[index];
        MutexLock lock(shard.mutex);
        revalidateLocked(shard);
        size_t want = deficitLocked(shard, cfg_.refillWatermark);
        if (want == 0)
            continue;
        // One pull of as many whole chunks as the budget covers, so
        // the budget spreads across drained shards; the final chunk
        // may overshoot by < one chunk.
        size_t step = shard.chunk > 0 ? shard.chunk : want;
        size_t chunks =
            (std::min(budget_bytes, want) + step - 1) / step;
        size_t pulled =
            pullLocked(shard, std::min(want, chunks * step));
        if (pulled == 0)
            continue;
        // relaxed: monotonic stats counter(s); readers take snapshots
        // and need no ordering.
        budget_bytes -= std::min(budget_bytes, pulled);
        bytesRefilled_.fetch_add(pulled, std::memory_order_relaxed);
        added += pulled;
    }
    return added;
}

EntropyService::RefillDemand
EntropyService::refillDemand()
{
    std::vector<size_t> all(shards_.size());
    std::iota(all.begin(), all.end(), size_t{0});
    return refillDemand(all);
}

EntropyService::RefillDemand
EntropyService::refillDemand(const std::vector<size_t> &shards)
{
    RefillDemand demand;
    for (size_t index : shards) {
        QUAC_ASSERT(index < shards_.size(), "shard=%zu", index);
        Shard &shard = *shards_[index];
        MutexLock lock(shard.mutex);
        size_t deficit = deficitLocked(shard, cfg_.refillWatermark);
        size_t urgent = deficitLocked(shard, cfg_.panicWatermark);
        demand.bytes += deficit;
        // The panic threshold is <= the refill threshold, so per
        // shard urgent <= deficit; summing under one lock keeps the
        // invariant across shards too.
        demand.urgentBytes += std::min(urgent, deficit);
    }
    return demand;
}

void
EntropyService::startAutoRefill(std::chrono::microseconds period)
{
    MutexLock control(refillControlMutex_);
    if (refillThread_.joinable())
        return;
    {
        MutexLock lock(refillMutex_);
        stopRefill_ = false;
    }
    refillThread_ = std::thread([this, period]() { produce(period); });
}

void
EntropyService::produce(std::chrono::microseconds period)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point health_due = Clock::now() + period;
    std::vector<uint8_t> pass(shards_.size(), kPassIdle);
    size_t current = shards_.size();
    // The stop flag is rechecked after every chunk, under the lock,
    // not in a wait predicate: a predicate lambda cannot carry the
    // REQUIRES annotation, and the analysis follows this shape.
    MutexLock lock(refillMutex_);
    while (!stopRefill_) {
        lock.unlock();
        if (Clock::now() >= health_due) {
            // Probation draws and eager transition propagation, on
            // cadence even while requests keep the producer busy.
            healthTick();
            health_due = Clock::now() + period;
        }
        bool filling = topUpChunk(pass, current);
        lock.lock();
        if (filling || stopRefill_)
            continue;
        // Out of work. A shard whose backend just threw is retried
        // after the sleep, not at once, which would spin.
        bool stalled = false;
        for (uint8_t &state : pass) {
            stalled |= state == kPassSkipped;
            state = kPassIdle;
        }
        // Asleep before the last level check, so a request that
        // drains a shard after the check sees the flag and wakes us.
        producerAsleep_.store(true, std::memory_order_seq_cst);
        if (stalled || !refillDue())
            refillCv_.waitFor(refillMutex_, health_due - Clock::now());
        // relaxed: only this thread sets the flag; a request that
        // still reads it set at worst notifies an awake producer.
        producerAsleep_.store(false, std::memory_order_relaxed);
    }
}

bool
EntropyService::topUpChunk(std::vector<uint8_t> &pass, size_t &current)
{
    // A shard joins the fill at or below the watermark and leaves it
    // at capacity, so it is topped up all the way.
    size_t filling = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
        size_t buffered = shards_[s]->ring.level();
        if (pass[s] == kPassIdle && buffered <= wakeLevel_)
            pass[s] = kPassFilling;
        else if (pass[s] == kPassFilling &&
                 buffered >= cfg_.shardCapacityBytes)
            pass[s] = kPassIdle;
        filling += pass[s] == kPassFilling;
    }
    // The current shard is filled to capacity before the next one,
    // the most drained (ties by index), so its backend's state stays
    // in this core's caches. A shard whose lock a request holds or
    // waits for is passed over: the producer fills another backend
    // beside that miss instead of queueing behind it, and never
    // re-locks ahead of a waiter it just woke.
    size_t first = shards_.size();
    for (size_t tried = 0; tried < filling; ++tried) {
        size_t pick = current;
        if (pick >= shards_.size() || pass[pick] != kPassFilling) {
            pick = shards_.size();
            size_t pick_level = 0;
            for (size_t s = 0; s < shards_.size(); ++s) {
                size_t buffered = shards_[s]->ring.level();
                if (pass[s] == kPassFilling &&
                    (pick == shards_.size() || buffered < pick_level)) {
                    pick = s;
                    pick_level = buffered;
                }
            }
        }
        if (first == shards_.size())
            first = pick;
        Shard &shard = *shards_[pick];
        // relaxed: a hint; the mutex orders the shard state.
        if (shard.missWaiting.load(std::memory_order_relaxed) == 0) {
            if (shard.mutex.try_lock()) {
                fillChunkLocked(shard, pass[pick]);
                shard.mutex.unlock();
                current = pick;
                for (uint8_t &state : pass)
                    state = state == kPassBusy ? kPassFilling : state;
                return true;
            }
        }
        pass[pick] = kPassBusy;
    }
    for (uint8_t &state : pass)
        state = state == kPassBusy ? kPassFilling : state;
    if (first == shards_.size())
        return false;
    // Every filling shard is busy. Queue for the first pick, unless a
    // request waits for it: then let that request go first.
    Shard &shard = *shards_[first];
    // relaxed: a hint; the mutex orders the shard state.
    if (shard.missWaiting.load(std::memory_order_relaxed) > 0) {
        std::this_thread::yield();
        return true;
    }
    MutexLock lock(shard.mutex);
    fillChunkLocked(shard, pass[first]);
    current = first;
    return true;
}

void
EntropyService::fillChunkLocked(Shard &shard, uint8_t &state)
{
    revalidateLocked(shard);
    size_t want = deficitLocked(shard, 1.0);
    if (want == 0) {
        state = kPassIdle;
        return;
    }
    size_t step = shard.chunk > 0 ? shard.chunk : kProducerStepBytes;
    // relaxed: backendIndex only changes under the shard mutex held
    // here.
    size_t backend = shard.backendIndex.load(std::memory_order_relaxed);
    size_t pulled = pullLocked(shard, std::min(want, step));
    if (pulled == 0) {
        // A pull that detected an unhealthy bank re-sourced the
        // shard: fill it from the new bank. Otherwise the backend
        // threw; leave the shard until the producer has slept.
        if (shard.backendIndex.load(std::memory_order_relaxed) ==
            backend)
            state = kPassSkipped;
        return;
    }
    // relaxed: monotonic stats counter; readers take snapshots and
    // need no ordering.
    bytesRefilled_.fetch_add(pulled, std::memory_order_relaxed);
}

bool
EntropyService::refillDue() const
{
    for (const auto &shard : shards_) {
        if (shard->ring.level() <= wakeLevel_)
            return true;
    }
    return false;
}

void
EntropyService::wakeProducer()
{
    // seq_cst, like the claim CAS before it and the producer's flag
    // store before its level loads: either the producer's last check
    // sees this request's claim and it stays awake, or this load sees
    // the flag, so no wake-up is lost. The exchange leaves the
    // notify to the one request that takes the sleeping->woken edge.
    if (!producerAsleep_.load(std::memory_order_seq_cst) ||
        !producerAsleep_.exchange(false, std::memory_order_seq_cst))
        return;
    // The producer holds refillMutex_ from its check until the wait
    // releases it, so this notify cannot fall in between.
    MutexLock lock(refillMutex_);
    refillCv_.notifyOne();
}

void
EntropyService::stopAutoRefill()
{
    MutexLock control(refillControlMutex_);
    if (!refillThread_.joinable())
        return;
    {
        MutexLock lock(refillMutex_);
        stopRefill_ = true;
    }
    refillCv_.notifyAll();
    refillThread_.join();
    refillThread_ = std::thread();
}

bool
EntropyService::autoRefillRunning() const
{
    MutexLock control(refillControlMutex_);
    return refillThread_.joinable();
}

size_t
EntropyService::level(size_t shard) const
{
    QUAC_ASSERT(shard < shards_.size(), "shard=%zu", shard);
    return shards_[shard]->ring.level();
}

size_t
EntropyService::totalLevel() const
{
    size_t total = 0;
    for (size_t i = 0; i < shards_.size(); ++i)
        total += level(i);
    return total;
}

double
EntropyService::deficitFraction(const Shard &shard) const
{
    double capacity = static_cast<double>(cfg_.shardCapacityBytes);
    size_t buffered =
        std::min(shard.ring.level(), cfg_.shardCapacityBytes);
    return (capacity - static_cast<double>(buffered)) / capacity;
}

double
EntropyService::busyHorizonNs(const Shard &shard) const
{
    // Modelled work the shard's backend is already committed to but
    // has not yet drained. busyUntilNs only ever moves forward under
    // the shard mutex; latestArrivalNs_ is the service-wide modelled
    // "now". Untimed workloads never advance either, so the horizon
    // stays 0 and the score reduces to deficit + p95 exactly.
    // relaxed: heuristic load-signal reads; momentary staleness only
    // perturbs a placement score.
    return std::max(0.0,
                    shard.busyUntilNs.load(std::memory_order_relaxed) -
                        latestArrivalNs_.load(
                            std::memory_order_relaxed));
}

double
EntropyService::loadOf(const Shard &shard, double p95_ns) const
{
    return deficitFraction(shard) + p95_ns * kPlacementLatencyWeight +
           busyHorizonNs(shard) * kPlacementBusyWeight;
}

double
EntropyService::shardRecentPercentileNs(size_t shard, double q) const
{
    QUAC_ASSERT(shard < shards_.size(), "shard=%zu", shard);
    return shards_[shard]->recent.percentileNs(q);
}

EntropyService::ShardLoadSnapshot
EntropyService::shardLoadSnapshot(size_t shard) const
{
    QUAC_ASSERT(shard < shards_.size(), "shard=%zu", shard);
    const Shard &sampled = *shards_[shard];
    ShardLoadSnapshot snapshot;
    snapshot.recentP95Ns = sampled.recent.p95Ns();
    snapshot.recentP99Ns = sampled.recent.p99Ns();
    snapshot.load = loadOf(sampled, snapshot.recentP95Ns);
    return snapshot;
}

size_t
EntropyService::leastLoadedShard() const
{
    auto load_of = [this](size_t s) {
        const Shard &sampled = *shards_[s];
        return loadOf(sampled, sampled.recent.p95Ns());
    };
    size_t best = 0;
    double best_load = load_of(0);
    for (size_t s = 1; s < shards_.size(); ++s) {
        double load = load_of(s);
        if (load < best_load) {
            best = s;
            best_load = load;
        }
    }
    return best;
}

EntropyService::Client
EntropyService::connect(std::string name, Priority priority,
                        size_t shard)
{
    if (shard == autoShard) {
        // Least-loaded placement only steers the latency-critical
        // class: interactive clients avoid drained/slow shards,
        // while standard/bulk traffic keeps spreading round-robin
        // instead of piling onto the emptiest shard.
        if (cfg_.placement == PlacementPolicy::LeastLoaded &&
            priority == Priority::Interactive) {
            shard = leastLoadedShard();
        } else {
            // relaxed: the cursor only spreads placements; racing
            // connects need no order between them.
            shard = nextShard_.fetch_add(1, std::memory_order_relaxed) %
                    shards_.size();
        }
    }
    if (shard >= shards_.size())
        fatal("client '%s' pinned to shard %zu of %zu", name.c_str(),
              shard, shards_.size());
    auto state = std::make_shared<Client::State>();
    state->name = std::move(name);
    state->priority = priority;
    state->shard.store(shard, std::memory_order_release);
    return Client(this, std::move(state));
}

bool
EntropyService::migrateClient(const Client &client, size_t shard)
{
    QUAC_ASSERT(client.service_ == this, "client of another service");
    if (shard >= shards_.size())
        fatal("client '%s' migrated to shard %zu of %zu",
              client.state_->name.c_str(), shard, shards_.size());
    Client::State &state = *client.state_;
    if (state.shard.exchange(shard, std::memory_order_acq_rel) ==
        shard)
        return false;
    // relaxed: monotonic stats counter(s); readers take snapshots
    // and need no ordering.
    state.migrations.fetch_add(1, std::memory_order_relaxed);
    return true;
}

double
EntropyService::shardDecayedTailNs(size_t shard) const
{
    QUAC_ASSERT(shard < shards_.size(), "shard=%zu", shard);
    // relaxed: admission signal read; staleness is tolerated by the
    // gate.
    return shards_[shard]->decayedTailNs.load(
        std::memory_order_relaxed);
}

double
EntropyService::interactiveHeadroomP99Ns() const
{
    // Worst of the windowed p99 and the decayed estimate across
    // shards: the window is the precise signal while it has samples,
    // the decayed max is the memory that survives a full top-up
    // clearing the window (the gate must not snap open the instant a
    // refill retires its evidence).
    double worst = 0.0;
    for (size_t s = 0; s < shards_.size(); ++s) {
        worst = std::max(worst, shardRecentPercentileNs(s, 0.99));
        worst = std::max(worst, shardDecayedTailNs(s));
    }
    return worst;
}

bool
EntropyService::admissionHeadroom() const
{
    return interactiveHeadroomP99Ns() <=
           kHeadroomFraction * cfg_.admission.interactiveSloNs;
}

EntropyService::AdmissionOutcome
EntropyService::admit(std::string name, Priority priority,
                      size_t shard)
{
    AdmissionOutcome outcome;
    if (!cfg_.admission.enabled || priority != Priority::Bulk) {
        // Interactive/Standard are the classes admission exists to
        // protect; they (and ungated services) connect directly.
        outcome.client = connect(std::move(name), priority, shard);
        return outcome;
    }
    // Probe headroom before taking the admission lock: the probe
    // walks the shard locks and must never nest inside it.
    bool headroom = admissionHeadroom();
    MutexLock lock(admissionMutex_);
    ++admissionStats_.attempts;
    if (headroom && admissionQueue_.empty()) {
        ++admissionStats_.admitted;
        lock.unlock();
        outcome.client = connect(std::move(name), priority, shard);
        return outcome;
    }
    if (admissionQueue_.size() >= cfg_.admission.maxQueuedConnects) {
        ++admissionStats_.denied;
        outcome.decision = AdmissionDecision::Denied;
        return outcome;
    }
    PendingConnect pending;
    pending.name = std::move(name);
    pending.priority = priority;
    pending.shard = shard;
    pending.backoffTicks = kRetryBackoffTicks;
    pending.notBeforeTick = admissionTickIndex_ + pending.backoffTicks;
    admissionQueue_.push_back(std::move(pending));
    ++admissionStats_.queued;
    admissionStats_.maxQueueDepth =
        std::max<uint64_t>(admissionStats_.maxQueueDepth,
                           admissionQueue_.size());
    outcome.decision = AdmissionDecision::Queued;
    return outcome;
}

std::vector<EntropyService::Client>
EntropyService::admissionTick()
{
    std::vector<Client> admitted;
    if (!cfg_.admission.enabled)
        return admitted;
    // Age the decayed tail estimates: per-sample decay needs traffic
    // to make progress, and a shard whose clients all went quiet
    // would otherwise pin the gate shut forever. Each tick is one
    // more decay step, so parked connects' own retry probing is what
    // eventually reopens the gate.
    // relaxed: decaying a heuristic signal; racing samples may
    // interleave in any order.
    for (const std::unique_ptr<Shard> &shard : shards_) {
        double cur =
            shard->decayedTailNs.load(std::memory_order_relaxed);
        while (cur > 0.0 &&
               !shard->decayedTailNs.compare_exchange_weak(
                   cur, cur * kTailDecayPerSample,
                   std::memory_order_relaxed)) {
        }
    }
    bool headroom = admissionHeadroom();
    MutexLock lock(admissionMutex_);
    ++admissionTickIndex_;
    // Strict FIFO: the queue head gates everyone behind it, so a
    // connect that arrived first is admitted first — starvation-free
    // by construction, which is what makes "bounded and eventually
    // admitted" an assertable invariant.
    while (!admissionQueue_.empty()) {
        PendingConnect &head = admissionQueue_.front();
        if (head.notBeforeTick > admissionTickIndex_)
            break;
        ++admissionStats_.retries;
        if (!headroom) {
            // Still thin: back off, bounded exponentially, so a
            // congested service is probed ever more gently but a
            // parked connect never stops probing.
            head.backoffTicks =
                std::min(head.backoffTicks * 2,
                         cfg_.admission.maxBackoffTicks);
            head.notBeforeTick =
                admissionTickIndex_ + head.backoffTicks;
            break;
        }
        PendingConnect pending = std::move(head);
        admissionQueue_.pop_front();
        ++admissionStats_.admitted;
        ++admissionStats_.admittedFromQueue;
        lock.unlock();
        admitted.push_back(connect(std::move(pending.name),
                                   pending.priority, pending.shard));
        lock.lock();
    }
    return admitted;
}

EntropyService::AdmissionStats
EntropyService::admissionStats() const
{
    MutexLock lock(admissionMutex_);
    AdmissionStats stats = admissionStats_;
    stats.queuedNow = admissionQueue_.size();
    return stats;
}

size_t
EntropyService::retuneBackend(size_t backend,
                              const std::function<bool()> &reconfigure)
{
    QUAC_ASSERT(backend < backends_.size(), "backend=%zu", backend);
    if (reconfigure) {
        // Under the backend lock: no fill is in flight while the
        // generator's geometry changes.
        MutexLock backend_lock(
            *backendLocks_[backend]);
        if (!reconfigure())
            return 0;
    }
    size_t dropped = 0;
    for (auto &shard_ptr : shards_) {
        Shard &shard = *shard_ptr;
        // relaxed: a shard being re-sourced concurrently is re-flushed
        // by its own revalidation; this pass only needs the current
        // view.
        MutexLock lock(shard.mutex);
        if (shard.backendIndex.load(std::memory_order_relaxed) !=
            backend)
            continue;
        // The buffered bytes straddle the recalibration: suspect.
        // Dropping them (never serving) is the conservative side of
        // the paper's per-temperature guarantee. A racing lock-free
        // read that already claimed a span keeps it: those bytes
        // were generated (and observed healthy) before the retune.
        dropped += shard.ring.flush();
        // The retune may change the backend's iteration geometry;
        // re-resolve the chunk (and ring headroom) lazily, exactly
        // as a re-sourcing does.
        shard.chunkKnown = false;
    }
    // relaxed: monotonic stats counter(s); readers take snapshots and
    // need no ordering.
    suspectBytesDropped_.fetch_add(dropped,
                                   std::memory_order_relaxed);
    return dropped;
}

void
EntropyService::setMissLatencyNsPerByte(double ns_per_byte)
{
    // relaxed: model parameter install; in-flight requests may price
    // with the old rate.
    QUAC_ASSERT(ns_per_byte >= 0.0, "ns_per_byte=%f", ns_per_byte);
    missNsPerByte_.store(ns_per_byte, std::memory_order_relaxed);
}

LatencyDistribution
EntropyService::latencySnapshot(Priority priority) const
{
    // The per-class distribution is sharded (one per shard) so a
    // timed request only contends with requests on its own shard;
    // the snapshot merges the pieces.
    LatencyDistribution merged;
    for (const auto &shard : shards_)
        merged.merge(
            shard->latencyByClass[static_cast<size_t>(priority)]);
    return merged;
}

void
EntropyService::resetLatencyStats()
{
    for (auto &shard : shards_) {
        for (LatencyDistribution &dist : shard->latencyByClass)
            dist = LatencyDistribution();
    }
}

EntropyService::FillOutcome
EntropyService::fillObserved(size_t backend, uint8_t *out, size_t len,
                             uint8_t *wrap, size_t wrap_len)
{
    FillOutcome outcome;
    {
        MutexLock backend_lock(*backendLocks_[backend]);
        try {
            backends_[backend]->fill(out, len);
            if (wrap_len > 0)
                backends_[backend]->fill(wrap, wrap_len);
        } catch (...) {
            outcome.error = std::current_exception();
        }
        if (!outcome.error && monitor_) {
            // Observe after the fill, in stream order, still under
            // the backend lock so concurrent sharers can't reorder
            // their observations.
            outcome.changed = monitor_->observe(backend, out, len);
            if (wrap_len > 0)
                outcome.changed |=
                    monitor_->observe(backend, wrap, wrap_len);
            if (outcome.changed)
                resourceEpoch_.fetch_add(1,
                                         std::memory_order_acq_rel);
        }
    }
    if (outcome.error) {
        // relaxed: monotonic stats counter(s); readers take snapshots
        // and need no ordering.
        refillFailures_.fetch_add(1, std::memory_order_relaxed);
        if (monitor_ && monitor_->reportReadFailure(backend))
            resourceEpoch_.fetch_add(1, std::memory_order_acq_rel);
    }
    return outcome;
}

bool
EntropyService::syncFillLocked(Shard &shard, uint8_t *out,
                               size_t need, std::exception_ptr &error)
{
    // Health on: bounded failover — each bank gets at most
    // kReadFailureLimit throwing attempts before quarantine moves the
    // shard on, plus one fill on the final destination. Health off:
    // no quarantine machinery, but a transient error is retried a
    // bounded number of times before the original exception is
    // handed back, so callers still see persistent failures.
    size_t max_attempts =
        monitor_ ? backends_.size() * (size_t{kReadFailureLimit} + 1)
                 : size_t{kSyncFillRetries} + 1;
    for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
        // relaxed: backendIndex only changes under the shard mutex
        // held here.
        size_t backend_index =
            shard.backendIndex.load(std::memory_order_relaxed);
        FillOutcome fill = fillObserved(backend_index, out, need);
        if (!monitor_) {
            if (!fill.error)
                return true;
            if (attempt + 1 == max_attempts) {
                error = fill.error;
                return false;
            }
            // Backoff outside the backend lock: give an interface
            // fault time to clear without holding the bank hostage
            // (the cap bounds the total stall at ~31x the base).
            size_t doublings = std::min<size_t>(attempt, 4);
            std::this_thread::sleep_for(kSyncFillBackoff *
                                        (1u << doublings));
            continue;
        }
        // As in pullLocked, any transition during this fill marks
        // its bytes suspect even if the bank ended servable.
        if (fill.changed || !monitor_->servable(backend_index)) {
            // Either this fill's bytes completed a failing window or
            // the failure streak crossed the limit. The bytes in
            // @p out were never handed to the client — drop them
            // with the ring and refill wholesale from a new bank.
            // relaxed: monotonic stats counter(s); readers take
            // snapshots and need no ordering. backendIndex is re-read
            // under the shard mutex held here.
            unhealthyBytesDropped_.fetch_add(
                (fill.error ? 0 : need) + shard.ring.flush(),
                std::memory_order_relaxed);
            resourceShardLocked(shard);
            if (shard.backendIndex.load(std::memory_order_relaxed) ==
                backend_index)
                return false; // nowhere servable left
            continue;
        }
        if (!fill.error)
            return true;
        // Transient failure below the quarantine limit: retry the
        // same bank (the stream position advanced past the fault).
    }
    return false;
}

RequestResult
EntropyService::finishRequest(Client::State &client, Shard &shard,
                              RequestResult result,
                              size_t synchronous_bytes,
                              double arrival_ns)
{
    if (!std::isnan(arrival_ns)) {
        // Modelled channel time: the request starts once the shard's
        // earlier modelled work has drained, pays the fixed
        // controller and SRAM-read costs, and a miss additionally
        // occupies the backend for the synchronous fill, queueing
        // later arrivals behind it (DR-STRaNGe's request-latency
        // view). Only misses advance busyUntilNs, and misses run
        // under the shard mutex; lock-free hits read it relaxed — a
        // hit racing a miss may miss the very newest queue depth,
        // which is the modelling precision a lock-free plane trades.
        // relaxed: all model state below (busyUntilNs,
        // latestArrivalNs_, the miss rate) is heuristic signal whose
        // tolerated staleness is described above.
        double installed =
            missNsPerByte_.load(std::memory_order_relaxed);
        double ns_per_byte =
            installed > 0.0 ? installed : kDefaultMissNsPerByte;
        // Advance the service-wide modelled "now" (monotonic max):
        // the placement busy-horizon is measured against it.
        double seen = latestArrivalNs_.load(std::memory_order_relaxed);
        while (arrival_ns > seen &&
               !latestArrivalNs_.compare_exchange_weak(
                   seen, arrival_ns, std::memory_order_relaxed)) {
        }
        double start = std::max(
            arrival_ns,
            shard.busyUntilNs.load(std::memory_order_relaxed));
        double service_ns =
            kPerRequestNs + kHitNs +
            static_cast<double>(synchronous_bytes) * ns_per_byte;
        if (synchronous_bytes > 0)
            shard.busyUntilNs.store(start + service_ns,
                                    std::memory_order_relaxed);
        result.modeledLatencyNs = start + service_ns - arrival_ns;
        // Bulk requests never sync-fill, so their near-constant hit
        // cost would dilute the shard's tail-latency signal; the
        // window tracks what a latency-sensitive client experiences.
        if (client.priority != Priority::Bulk) {
            shard.recent.add(result.modeledLatencyNs);
            if (cfg_.admission.enabled) {
                // Decaying max: the admission gate's congestion
                // memory. Survives the recent-window reset a full
                // top-up performs (CAS because timed requests on the
                // same shard race each other here).
                double sample = result.modeledLatencyNs;
                // relaxed: CAS-max over a decaying signal; order
                // between racing samples is immaterial.
                double cur = shard.decayedTailNs.load(
                    std::memory_order_relaxed);
                for (;;) {
                    double next =
                        std::max(sample, cur * kTailDecayPerSample);
                    if (next == cur ||
                        shard.decayedTailNs.compare_exchange_weak(
                            cur, next, std::memory_order_relaxed))
                        break;
                }
            }
        }
        shard.latencyByClass[static_cast<size_t>(client.priority)]
            .add(result.modeledLatencyNs);
    }

    Outcome outcome = kSyncFill;
    if (result.denied)
        outcome = kDenied; // sync fill failed on every servable bank
    else if (result.hit)
        outcome = kHit;
    else if (client.priority == Priority::Bulk)
        outcome = kPartial;
    // relaxed: per-client and per-shard accumulators; a concurrent
    // snapshot may tear between fields, each field is exact.
    client.outcomes[outcome].fetch_add(1, std::memory_order_relaxed);
    shard.outcomes[outcome].fetch_add(1, std::memory_order_relaxed);
    client.bytesFromBuffer.fetch_add(result.bytesFromBuffer,
                                     std::memory_order_relaxed);
    client.bytesServed.fetch_add(result.bytes,
                                 std::memory_order_relaxed);
    if (outcome == kSyncFill) {
        client.bytesSynchronous.fetch_add(synchronous_bytes,
                                          std::memory_order_relaxed);
    }
    // Demand wake-up: one load more while the producer is awake.
    if (shard.ring.level() <= wakeLevel_)
        wakeProducer();
    return result;
}

RequestResult
EntropyService::requestOn(Client::State &client, uint8_t *out,
                          size_t len, double arrival_ns,
                          std::exception_ptr &error)
{
    // The shard pin is resolved exactly once: a migration racing
    // with this request either redirects it entirely or not at all,
    // so the request always drains a single shard's stream.
    Shard &shard =
        *shards_[client.shard.load(std::memory_order_acquire)];

    RequestResult result;
    bool bulk = client.priority == Priority::Bulk;
    // Lock-free fast path: when the shard has already revalidated
    // against the current resourcing epoch, a buffered read claims
    // its span straight off the ring — no shard mutex. Non-bulk
    // claims are all-or-nothing (a short claim would have to fall
    // through to a sync fill under the mutex anyway); bulk partial
    // claims are final, exactly like the mutex path's backpressure.
    if (!monitor_ ||
        shard.seenEpoch.load(std::memory_order_acquire) ==
            resourceEpoch_.load(std::memory_order_acquire)) {
        size_t got = shard.ring.take(out, len,
                                     /*all_or_nothing=*/!bulk);
        // The claim is the serve, so the tripwire looks at the bank
        // here: a concurrent pull may have detected it since the
        // epoch check, ahead of its flush. Such bytes are dropped and
        // the mutex path serves the request from a servable bank; a
        // detection after this check came after the serve.
        // relaxed: backendIndex is re-read under the mutex below if
        // the bytes are dropped.
        if (monitor_ && got > 0 &&
            !monitor_->servable(
                shard.backendIndex.load(std::memory_order_relaxed))) {
            unhealthyBytesDropped_.fetch_add(got,
                                             std::memory_order_relaxed);
        } else if (bulk || got == len) {
            result.bytes = got;
            result.bytesFromBuffer = got;
            result.hit = got == len;
            return finishRequest(client, shard, result, 0,
                                 arrival_ns);
        }
    }

    // Slow path: miss (sync fill), stale epoch, or a claim dropped
    // above. The mutex serializes against resourcing, retune, and the
    // refill producer.
    // relaxed: missWaiting is a hint to the producer; the mutex
    // orders everything it guards.
    shard.missWaiting.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(shard.mutex);
    shard.missWaiting.fetch_sub(1, std::memory_order_relaxed);
    revalidateLocked(shard);

    size_t from_buffer = shard.ring.take(out, len,
                                         /*all_or_nothing=*/false);
    size_t synchronous_bytes = 0;
    if (from_buffer == len) {
        result.bytes = len;
        result.hit = true;
    } else if (bulk) {
        // Buffer-only class: partial service is the backpressure
        // signal; the caller retries after the next refill.
        result.bytes = from_buffer;
    } else {
        // Drain what the buffer has, then complete synchronously on
        // the shard's backend (the paper's fallback when requests
        // outpace idle bandwidth). The same stream continues:
        // buffered bytes came from earlier positions of the
        // identical backend stream. Under health monitoring the
        // fill is observed, revalidated, and retried on a different
        // bank if this one throws or is detected unhealthy.
        if (syncFillLocked(shard, out + from_buffer,
                           len - from_buffer, error)) {
            synchronous_bytes = len - from_buffer;
            result.bytes = len;
        } else {
            // No servable bank could produce the bytes (or the
            // backend failed with health off): hand over the
            // buffered prefix and deny the remainder rather than
            // serve bytes from a detected-unhealthy bank.
            result.denied = true;
            result.bytes = from_buffer;
        }
    }
    result.bytesFromBuffer = from_buffer;
    // Tripwire (must stay zero): a serve that raced a cross-shard
    // detection of its bank. The flush-on-revalidate plumbing keeps
    // detected-unhealthy bytes out of every serve path; this counts
    // any leak instead of hiding it.
    if (monitor_ && result.bytes > 0 &&
        // relaxed: backendIndex only changes under the shard mutex
        // held here.
        !monitor_->servable(
            shard.backendIndex.load(std::memory_order_relaxed))) {
        unhealthyBytesServed_.fetch_add(result.bytes,
                                        std::memory_order_relaxed);
    }
    return finishRequest(client, shard, result, synchronous_bytes,
                         arrival_ns);
}

void
EntropyService::healthTick()
{
    if (!monitor_)
        return;
    // Probation sampling: quarantined banks source no shard, so the
    // monitor would never see another byte from them — re-admission
    // would deadlock. Draw one health window from each quarantined
    // or probation bank per tick; the draw is the bank's only
    // consumer, so its stream stays deterministic for the eventual
    // return home.
    size_t window_bytes = cfg_.health.windowBits / 8;
    std::vector<uint8_t> scratch(window_bytes);
    for (size_t b = 0; b < backends_.size(); ++b) {
        BankState state = monitor_->state(b);
        if (state == BankState::Quarantined ||
            state == BankState::Probation)
            fillObserved(b, scratch.data(), window_bytes);
    }
    // Eagerly propagate pending transitions: without this a shard
    // would only flush/re-source on its next request or refill.
    for (auto &shard_ptr : shards_) {
        Shard &shard = *shard_ptr;
        MutexLock lock(shard.mutex);
        revalidateLocked(shard);
    }
}

EntropyService::HealthStats
EntropyService::healthStats() const
{
    HealthStats stats;
    stats.enabled = monitor_ != nullptr;
    if (monitor_) {
        stats.quarantines = monitor_->quarantines();
        stats.readmissions = monitor_->readmissions();
    }
    // relaxed: stats snapshot; counters may tear between fields, each
    // is exact.
    stats.refillFailures =
        refillFailures_.load(std::memory_order_relaxed);
    stats.unhealthyBytesDropped =
        unhealthyBytesDropped_.load(std::memory_order_relaxed);
    stats.unhealthyBytesServed =
        unhealthyBytesServed_.load(std::memory_order_relaxed);
    stats.shardResourcings =
        resourcings_.load(std::memory_order_relaxed);
    return stats;
}

size_t
EntropyService::shardBackendIndex(size_t shard) const
{
    QUAC_ASSERT(shard < shards_.size(), "shard=%zu", shard);
    return shards_[shard]->backendIndex.load(
        std::memory_order_acquire);
}

uint64_t
EntropyService::outcomeTotal(Outcome outcome) const
{
    uint64_t total = 0;
    // relaxed: per-shard accumulators; a concurrent snapshot may tear
    // between outcomes, each count is exact.
    for (const auto &shard : shards_)
        total +=
            shard->outcomes[outcome].load(std::memory_order_relaxed);
    return total;
}

uint64_t
EntropyService::requestsServed() const
{
    // Each request counts under exactly one outcome.
    return outcomeTotal(kHit) + outcomeTotal(kSyncFill) +
           outcomeTotal(kPartial) + outcomeTotal(kDenied);
}

RequestResult
EntropyService::Client::request(uint8_t *out, size_t len)
{
    std::exception_ptr error;
    RequestResult result = service_->requestOn(
        *state_, out, len, std::numeric_limits<double>::quiet_NaN(),
        error);
    if (error)
        std::rethrow_exception(error);
    return result;
}

RequestResult
EntropyService::Client::serveInto(uint8_t *out, size_t len) noexcept
{
    // The network front end's entry point: request() without the
    // rethrow. The payload is claimed straight off the lock-free
    // shard ring into the caller's response buffer, and a backend
    // failure is already the counted denial a wire server answers
    // with DENY; an exception unwinding through its epoll loop would
    // kill every client.
    std::exception_ptr error;
    return service_->requestOn(
        *state_, out, len, std::numeric_limits<double>::quiet_NaN(),
        error);
}

RequestResult
EntropyService::Client::requestAt(uint8_t *out, size_t len,
                                  double arrival_ns)
{
    QUAC_ASSERT(!std::isnan(arrival_ns), "arrival is NaN");
    std::exception_ptr error;
    RequestResult result =
        service_->requestOn(*state_, out, len, arrival_ns, error);
    if (error)
        std::rethrow_exception(error);
    return result;
}

std::vector<uint8_t>
EntropyService::Client::request(size_t len)
{
    std::vector<uint8_t> out(len);
    RequestResult result = request(out.data(), len);
    out.resize(result.bytes);
    return out;
}

const std::string &
EntropyService::Client::name() const
{
    return state_->name;
}

Priority
EntropyService::Client::priority() const
{
    return state_->priority;
}

size_t
EntropyService::Client::shard() const
{
    return state_->shard.load(std::memory_order_acquire);
}

ClientStats
EntropyService::Client::stats() const
{
    const State &state = *state_;
    // relaxed: per-client accumulators; a concurrent snapshot may tear
    // between fields, each field is exact.
    ClientStats stats;
    stats.bufferHits =
        state.outcomes[kHit].load(std::memory_order_relaxed);
    stats.synchronousFills =
        state.outcomes[kSyncFill].load(std::memory_order_relaxed);
    stats.partialServes =
        state.outcomes[kPartial].load(std::memory_order_relaxed);
    stats.denials =
        state.outcomes[kDenied].load(std::memory_order_relaxed);
    // Each request counts under exactly one outcome.
    stats.requests = stats.bufferHits + stats.synchronousFills +
                     stats.partialServes + stats.denials;
    stats.bytesServed =
        state.bytesServed.load(std::memory_order_relaxed);
    stats.bytesFromBuffer =
        state.bytesFromBuffer.load(std::memory_order_relaxed);
    stats.bytesSynchronous =
        state.bytesSynchronous.load(std::memory_order_relaxed);
    stats.migrations =
        state.migrations.load(std::memory_order_relaxed);
    return stats;
}

} // namespace quac::service
