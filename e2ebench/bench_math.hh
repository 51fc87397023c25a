/**
 * @file
 * The benchmark's own arithmetic: nearest-rank percentiles with a
 * sample-support rule, request-outcome accounting, the seeded Zipf
 * client-id sampler, and the closed-loop in-flight window. All of it
 * is self-tested (selftest.cc) before every run, because a wrong
 * percentile or a miscounted loss would make every figure the
 * benchmark prints wrong in a way no run-to-run comparison reveals.
 */

#ifndef QUAC_E2EBENCH_BENCH_MATH_HH
#define QUAC_E2EBENCH_BENCH_MATH_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"

namespace e2e
{

/** Samples that must lie beyond a reported percentile. */
constexpr size_t kMinSamplesBeyond = 10;

/**
 * Nearest-rank percentile of ascending-sorted @p sorted: the sample
 * at rank ceil(q * n) (1-based). Empty unless at least
 * kMinSamplesBeyond samples rank strictly above it, so a p99 needs
 * n >= 1000 and a reported tail is never one lucky outlier.
 */
template <class T>
std::optional<double>
nearestRank(const std::vector<T> &sorted, double q)
{
    size_t n = sorted.size();
    if (n == 0 || q <= 0.0 || q > 1.0)
        return std::nullopt;
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < kMinSamplesBeyond)
        return std::nullopt;
    return sorted[rank - 1];
}

/** Median of an unsorted copy (mean of the middle pair when even). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Indices (ascending) of the slices whose host CPU steal is at most
 * the slices' lowest twentieth: at least a twentieth of them, and
 * every slice tied at that steal, so every slice with no steal at
 * all when there are that many, and all of them when steal is flat.
 * The end-to-end figures come from these. The host steals CPU in
 * bursts lasting seconds, and a stolen vCPU stalls whatever runs on
 * it, so stolen slices measure the neighbours rather than the
 * program.
 */
inline std::vector<size_t>
quietSlices(const std::vector<double> &steal)
{
    if (steal.empty())
        return {};
    std::vector<double> sorted = steal;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = (sorted.size() + 19) / 20; // ceil(n / 20), >= 1
    double threshold = sorted[rank - 1];
    std::vector<size_t> picked;
    for (size_t i = 0; i < steal.size(); ++i) {
        if (steal[i] <= threshold)
            picked.push_back(i);
    }
    return picked;
}

/**
 * Each slice's steal widened to the most of it and its two
 * neighbours: the kernel books steal at the next tick, and the
 * closed loop takes a moment to recover from a stall, so a slice
 * beside a stolen one is not calm either.
 */
inline std::vector<double>
widenSteal(const std::vector<double> &steal)
{
    std::vector<double> wide(steal.size());
    for (size_t i = 0; i < steal.size(); ++i) {
        double w = steal[i];
        if (i > 0)
            w = std::max(w, steal[i - 1]);
        if (i + 1 < steal.size())
            w = std::max(w, steal[i + 1]);
        wide[i] = w;
    }
    return wide;
}

/**
 * Median over slices of each slice's nearest-rank p50; slices too
 * small to support a p50 are skipped. Empty when none qualifies.
 */
template <class T>
std::optional<double>
medianOfSliceP50(std::vector<std::vector<T>> slices)
{
    std::vector<double> p50s;
    for (std::vector<T> &slice : slices) {
        std::sort(slice.begin(), slice.end());
        if (std::optional<double> v = nearestRank(slice, 0.5))
            p50s.push_back(*v);
    }
    if (p50s.empty())
        return std::nullopt;
    return median(p50s);
}

/**
 * Request outcomes as the client saw them. Every sent request ends
 * in exactly one bucket; partial serves are answered requests, not
 * failures.
 */
struct Outcome
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t partial = 0;
    uint64_t denied = 0;
    /** Unanswered once the in-flight window has drained. */
    uint64_t lost = 0;

    uint64_t failed() const { return lost + denied; }

    /** (lost + every DENY) / sent; 0 when nothing was sent. */
    double
    failFrac() const
    {
        return sent == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(sent);
    }

    /** sent = ok + partial + denied + lost. */
    bool
    balanced() const
    {
        return sent == ok + partial + denied + lost;
    }
};

/**
 * Zipf(s) sampler over ranks 1..n by inverse CDF: deterministic for
 * a given seed, one uniform draw and one binary search per sample.
 */
class ZipfSampler
{
  public:
    ZipfSampler(uint64_t n, double s, uint64_t seed) : rng_(seed)
    {
        cdf_.resize(n);
        double total = 0.0;
        for (uint64_t k = 1; k <= n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k), s);
            cdf_[k - 1] = total;
        }
        for (double &c : cdf_)
            c /= total;
        cdf_.back() = 1.0;
    }

    /** Next rank in [1, n]. */
    uint64_t
    next()
    {
        double u = rng_.uniform();
        auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<uint64_t>(
                   std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1)) +
               1;
    }

    /** Probability mass of rank @p k (1-based). */
    double
    mass(uint64_t k) const
    {
        return k == 1 ? cdf_[0] : cdf_[k - 1] - cdf_[k - 2];
    }

  private:
    quac::Xoshiro256pp rng_;
    std::vector<double> cdf_;
};

/**
 * The closed-loop client's in-flight window: one slot per
 * outstanding request, matched back by the (client id, nonce) pair
 * the response echoes. A request stays in flight until its response
 * arrives; only what is still outstanding when the drain deadline
 * passes is lost.
 */
class InFlightWindow
{
  public:
    struct Slot
    {
        uint64_t clientId = 0;
        uint64_t nonce = 0;
        uint32_t bytes = 0;
        int64_t sentNs = 0;
        /** Sent inside the measurement window. */
        bool measured = false;
        bool busy = false;
    };

    explicit InFlightWindow(size_t depth) : slots_(depth) {}

    size_t depth() const { return slots_.size(); }
    size_t outstanding() const { return outstanding_; }

    /** Occupy a free slot; returns false when the window is full. */
    bool
    add(const Slot &request)
    {
        for (Slot &slot : slots_) {
            if (!slot.busy) {
                slot = request;
                slot.busy = true;
                ++outstanding_;
                return true;
            }
        }
        return false;
    }

    /**
     * Match a response and free its slot. Returns the request, or
     * nothing for a response that matches no outstanding request
     * (a duplicate or a stranger's datagram).
     */
    std::optional<Slot>
    complete(uint64_t client_id, uint64_t nonce)
    {
        for (Slot &slot : slots_) {
            if (slot.busy && slot.clientId == client_id &&
                slot.nonce == nonce) {
                slot.busy = false;
                --outstanding_;
                return slot;
            }
        }
        return std::nullopt;
    }

    /** Drain deadline passed: everything still outstanding is lost.
     * Returns that count and empties the window. */
    uint64_t
    abandon()
    {
        uint64_t lost = outstanding_;
        for (Slot &slot : slots_)
            slot.busy = false;
        outstanding_ = 0;
        return lost;
    }

  private:
    std::vector<Slot> slots_;
    size_t outstanding_ = 0;
};

} // namespace e2e

#endif // QUAC_E2EBENCH_BENCH_MATH_HH
