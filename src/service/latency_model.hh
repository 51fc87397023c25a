/**
 * @file
 * Modelled end-to-end request latency for the entropy service.
 *
 * DR-STRaNGe (Bostanci et al., HPCA 2022) reports that what an
 * application observes from a DRAM TRNG is its RNG *request latency*
 * under contention, not the generator's aggregate throughput. The
 * service therefore models a request queue in simulated channel
 * time: requests carry an arrival timestamp, buffer hits cost the
 * controller-SRAM read, misses additionally occupy the shard's
 * backend for the synchronous fill (queueing later arrivals behind
 * it), and each completed request's end-to-end latency is recorded
 * into a per-priority-class distribution (p50/p95/p99).
 */

#ifndef QUAC_SERVICE_LATENCY_MODEL_HH
#define QUAC_SERVICE_LATENCY_MODEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.hh"

namespace quac::service
{

/**
 * An online latency distribution: collects samples and answers
 * percentile queries (nearest-rank on the sorted samples).
 *
 * Thread-safe: add()/merge() may race with percentile queries (the
 * auto-refill thread and concurrent clients record latencies while
 * stats are read); every member serializes on an internal mutex, and
 * the lazy percentile sort happens under it.
 */
class LatencyDistribution
{
  public:
    LatencyDistribution() = default;
    LatencyDistribution(const LatencyDistribution &other);
    LatencyDistribution &operator=(const LatencyDistribution &other);

    void add(double latency_ns);
    void merge(const LatencyDistribution &other);

    size_t count() const;
    double meanNs() const;
    double maxNs() const;

    /** Nearest-rank percentile; @p q in (0, 1]. 0 when empty. */
    double percentileNs(double q) const;

    double p50Ns() const { return percentileNs(0.50); }
    double p95Ns() const { return percentileNs(0.95); }
    double p99Ns() const { return percentileNs(0.99); }

  private:
    /** Guards every member below. Cross-object operations (copy,
     * assign, merge) snapshot the source under its own lock and then
     * apply under ours, so at most one LatencyDistribution mutex is
     * ever held at a time. */
    mutable Mutex mutex_;
    /** Sorted lazily by percentileNs; add() marks dirty. */
    mutable std::vector<double> samples_ QUAC_GUARDED_BY(mutex_);
    mutable bool sorted_ QUAC_GUARDED_BY(mutex_) = true;
    double sum_ QUAC_GUARDED_BY(mutex_) = 0.0;
    double max_ QUAC_GUARDED_BY(mutex_) = 0.0;
};

/**
 * A fixed-capacity ring of the most recent latency samples: the
 * "what has this shard done for its clients lately" signal the
 * placement policy and SLO-driven migration consume. Percentiles are
 * nearest-rank over the window only, so old congestion ages out once
 * a shard recovers.
 *
 * Lock-free: the service's lock-free data plane records hit
 * latencies without taking the shard mutex, so adds, clears, and
 * percentile queries may all race. Every slot and cursor is a
 * relaxed atomic — a racing reader sees a well-defined (if
 * momentarily stale) window, never undefined behaviour, which is
 * exactly the contract a load-balancing *signal* needs.
 */
class RecentLatencyWindow
{
  public:
    explicit RecentLatencyWindow(size_t capacity = 128);
    RecentLatencyWindow(const RecentLatencyWindow &other);
    RecentLatencyWindow &operator=(const RecentLatencyWindow &other);

    void add(double latency_ns);
    void clear();

    /** Samples currently in the window (<= capacity). */
    size_t count() const;
    size_t capacity() const { return ring_.size(); }

    /** Nearest-rank percentile over the window; 0 when empty. */
    double percentileNs(double q) const;
    double p95Ns() const { return percentileNs(0.95); }
    double p99Ns() const { return percentileNs(0.99); }

  private:
    /** Slot values, written with relaxed stores by add(). */
    std::vector<std::atomic<double>> ring_;
    /** Monotonic count of samples ever added; a sample lands in
     * slot (next % capacity). */
    std::atomic<uint64_t> next_{0};
    /** clear() raises the base to next_: the live window is the
     * samples in (base_, next_], capped at the ring size. */
    std::atomic<uint64_t> base_{0};
};

} // namespace quac::service

#endif // QUAC_SERVICE_LATENCY_MODEL_HH
