/**
 * @file
 * Memory-channel occupancy simulation and QUAC command injection
 * (paper Section 7.3): generate each channel's busy/idle timeline
 * under its workload, then fit QUAC-TRNG iterations into the idle
 * intervals. SystemActivity holds the N per-channel timelines of a
 * multi-channel system, each with its own (possibly heterogeneous)
 * co-running workload.
 */

#ifndef QUAC_SYSPERF_CHANNEL_SIM_HH
#define QUAC_SYSPERF_CHANNEL_SIM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sysperf/workloads.hh"

namespace quac::sysperf
{

/** Busy/idle timeline of one channel over a simulation window. */
class ChannelActivity
{
  public:
    /**
     * Generate a synthetic timeline: busy bursts with exponential
     * lengths (mean = profile.burstNs) separated by exponential idle
     * gaps sized so the long-run busy fraction matches
     * profile.busUtilization.
     *
     * @param profile workload behaviour.
     * @param window_ns timeline length.
     * @param seed generator seed.
     */
    static ChannelActivity generate(const WorkloadProfile &profile,
                                    double window_ns, uint64_t seed);

    /** [start, end) busy intervals, ascending and disjoint. */
    const std::vector<std::pair<double, double>> &busyIntervals() const
    {
        return busy_;
    }

    /** [start, end) idle intervals between the busy ones. */
    std::vector<std::pair<double, double>> idleIntervals() const;

    /** Fraction of the window with no demand traffic. */
    double idleFraction() const;

    double windowNs() const { return windowNs_; }

  private:
    std::vector<std::pair<double, double>> busy_;
    double windowNs_ = 0.0;
};

/**
 * Per-channel busy/idle timelines of an N-channel system over one
 * simulation window. Each channel runs its own workload profile, so
 * heterogeneous co-runner mixes (one memory-bound channel next to
 * three nearly idle ones) are first-class rather than one profile
 * cloned N ways.
 */
class SystemActivity
{
  public:
    /**
     * Generate one timeline per entry of @p per_channel. Channel c's
     * seed is derived deterministically from @p seed, c, and the
     * profile name, so per-channel streams are independent and the
     * whole system replays from one seed.
     */
    static SystemActivity
    generate(const std::vector<WorkloadProfile> &per_channel,
             double window_ns, uint64_t seed);

    size_t channels() const { return channels_.size(); }
    const ChannelActivity &channel(size_t c) const;
    /** Profile channel @p c was generated from. */
    const WorkloadProfile &profile(size_t c) const;
    double windowNs() const { return windowNs_; }

  private:
    std::vector<ChannelActivity> channels_;
    std::vector<WorkloadProfile> profiles_;
    double windowNs_ = 0.0;
};

/** Result of injecting QUAC-TRNG work into a channel's idle time. */
struct InjectionResult
{
    double iterations = 0.0;      ///< QUAC iterations completed.
    double bits = 0.0;            ///< Random bits produced.
    double idleFraction = 0.0;    ///< Channel idle fraction.
    double idleUsedFraction = 0.0; ///< Idle time actually used.

    /** TRNG throughput over the window, in Gb/s. */
    double throughputGbps(double window_ns) const
    {
        return window_ns > 0.0 ? bits / window_ns : 0.0;
    }
};

/**
 * Fit QUAC-TRNG work into a channel's idle intervals at command
 * granularity: each interval first pays a re-entry overhead
 * (draining demand traffic / reissuing state), and the remainder
 * contributes fractional iteration progress at a rate of
 * @p bits_per_iteration random bits per @p iteration_ns.
 */
InjectionResult injectQuac(const ChannelActivity &activity,
                           double iteration_ns,
                           double bits_per_iteration,
                           double reentry_overhead_ns = 20.0);

/** System-level injection: one InjectionResult per channel. */
struct SystemInjection
{
    std::vector<InjectionResult> perChannel;

    /** Total random bits across all channels. */
    double bits() const;
    /** Aggregate TRNG throughput over the window, in Gb/s. */
    double throughputGbps(double window_ns) const;
    /** Mean channel idle fraction. */
    double meanIdleFraction() const;
};

/**
 * Inject QUAC-TRNG work into every channel of @p system
 * independently (each channel's TRNG only sees that channel's idle
 * intervals).
 */
SystemInjection injectQuac(const SystemActivity &system,
                           double iteration_ns,
                           double bits_per_iteration,
                           double reentry_overhead_ns = 20.0);

/**
 * How entropy-service refill traffic is arbitrated against regular
 * memory traffic on the channel (DR-STRaNGe, Bostanci et al., HPCA
 * 2022: an end-to-end DRAM-TRNG system must pick a fairness point
 * between RNG starvation and memory slowdown).
 */
enum class FairnessPolicy
{
    /** Refill queues behind demand traffic: idle bandwidth only. */
    Fcfs,
    /** Refill preempts demand traffic until the need is met. */
    RngPriority,
    /**
     * Refill normally uses idle bandwidth only, but buffer levels
     * below the panic watermark escalate that part of the demand to
     * RngPriority (DR-STRaNGe's buffered fairness point).
     */
    BufferedFair,
};

/** Display name ("fcfs", "rng-priority", "buffered-fair"). */
const char *fairnessPolicyName(FairnessPolicy policy);

/** Parse a policy display name back (fatal on unknown names). */
FairnessPolicy fairnessPolicyFromName(const std::string &name);

/** Channel time granted to a refill request under a policy. */
struct RefillGrant
{
    /** Channel time granted to RNG refill, in ns. */
    double grantedNs = 0.0;
    /**
     * Prioritized prefix of the grant: channel time scheduled ahead
     * of demand traffic (idle or not). Its demand overlap — the part
     * actually taken from memory traffic — is stolenBusyNs.
     */
    double urgentNs = 0.0;
    /** Idle time usable after re-entry overheads (FCFS budget). */
    double usableIdleNs = 0.0;
    /** Demand traffic displaced by prioritized refill. */
    double stolenBusyNs = 0.0;
    /** Slowdown charged to memory traffic: stolen / total busy. */
    double memSlowdown = 0.0;
};

/**
 * Arbitrate @p needed_ns of refill channel time against the demand
 * traffic of @p activity under @p policy. @p urgent_ns is the part
 * of the need below the service's panic watermark (only meaningful
 * for BufferedFair, which escalates exactly that part); prioritized
 * refill occupies the head of the window, displacing overlapped
 * demand bursts, while FCFS-style refill pays @p reentry_overhead_ns
 * per idle gap like injectQuac().
 */
RefillGrant grantRefill(const ChannelActivity &activity,
                        double needed_ns, FairnessPolicy policy,
                        double urgent_ns = 0.0,
                        double reentry_overhead_ns = 20.0);

/** Fig 12 datapoint: a workload's TRNG throughput on N channels. */
struct WorkloadTrngResult
{
    std::string name;
    double throughputGbps = 0.0;
    double idleFraction = 0.0;
    /** Workload run on each channel (name repeated if cloned). */
    std::vector<std::string> channelWorkloads;
    /** Per-channel TRNG throughput contribution, in Gb/s. */
    std::vector<double> perChannelGbps;
};

/**
 * Deterministic heterogeneous co-runner assignment for a Fig-12 row:
 * @p primary runs on channel 0 and the remaining channels run its
 * neighbours in the SPEC2006 profile list (stride 7 walk, so mixes
 * span the intensity classes rather than clustering).
 */
std::vector<WorkloadProfile>
corunnerMix(const WorkloadProfile &primary, unsigned channels);

/**
 * One Fig 12 datapoint with real per-channel injection: build a
 * SystemActivity from @p per_channel (one profile per channel),
 * inject QUAC into each channel's own idle intervals, and aggregate.
 * The result is named after channel 0's workload (the row's primary).
 */
WorkloadTrngResult
fig12Point(const std::vector<WorkloadProfile> &per_channel,
           double iteration_ns, double bits_per_iteration,
           double window_ns, uint64_t seed);

/**
 * Run the full Fig 12 experiment: every workload across
 * @p channels channels. With @p heterogeneous false (the paper's
 * configuration) every channel of a row runs the row's workload;
 * with it true the co-runners come from corunnerMix().
 *
 * @param iteration_ns per-channel QUAC iteration length (from the
 *        command scheduler).
 * @param bits_per_iteration bits per iteration (256 x SIB x banks).
 */
std::vector<WorkloadTrngResult>
runSystemStudy(double iteration_ns, double bits_per_iteration,
               unsigned channels = 4, double window_ns = 2.0e6,
               uint64_t seed = 1, bool heterogeneous = false);

} // namespace quac::sysperf

#endif // QUAC_SYSPERF_CHANNEL_SIM_HH
