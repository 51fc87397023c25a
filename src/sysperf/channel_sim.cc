#include "sysperf/channel_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/rng.hh"

namespace quac::sysperf
{

ChannelActivity
ChannelActivity::generate(const WorkloadProfile &profile,
                          double window_ns, uint64_t seed)
{
    QUAC_ASSERT(window_ns > 0.0, "window=%f", window_ns);
    QUAC_ASSERT(profile.busUtilization >= 0.0 &&
                profile.busUtilization < 1.0,
                "utilization=%f", profile.busUtilization);

    ChannelActivity activity;
    activity.windowNs_ = window_ns;
    if (profile.busUtilization <= 0.0)
        return activity;

    Xoshiro256pp rng(seed);
    double mean_busy = profile.burstNs;
    double mean_idle = mean_busy *
                       (1.0 - profile.busUtilization) /
                       profile.busUtilization;

    auto exponential = [&](double mean) {
        double u = 0.0;
        while (u <= 0.0)
            u = rng.uniform();
        return -mean * std::log(u);
    };

    // Start mid-pattern: begin with an idle gap half the time.
    double t = rng.bernoulli(0.5) ? exponential(mean_idle) : 0.0;
    while (t < window_ns) {
        double busy_len = exponential(mean_busy);
        double end = std::min(t + busy_len, window_ns);
        activity.busy_.emplace_back(t, end);
        t = end + exponential(mean_idle);
    }
    return activity;
}

std::vector<std::pair<double, double>>
ChannelActivity::idleIntervals() const
{
    std::vector<std::pair<double, double>> idle;
    double cursor = 0.0;
    for (const auto &[start, end] : busy_) {
        if (start > cursor)
            idle.emplace_back(cursor, start);
        cursor = end;
    }
    if (cursor < windowNs_)
        idle.emplace_back(cursor, windowNs_);
    return idle;
}

double
ChannelActivity::idleFraction() const
{
    double busy_total = 0.0;
    for (const auto &[start, end] : busy_)
        busy_total += end - start;
    return windowNs_ > 0.0 ? 1.0 - busy_total / windowNs_ : 0.0;
}

namespace
{

/** Stable per-channel seed: mix the channel index and profile name. */
uint64_t
channelSeed(uint64_t seed, size_t channel, const std::string &name)
{
    uint64_t mixed = seed ^ (0x9E3779B97F4A7C15ULL * (channel + 1));
    for (char c : name)
        mixed = mixed * 131 + static_cast<unsigned char>(c);
    return mixed;
}

} // anonymous namespace

SystemActivity
SystemActivity::generate(const std::vector<WorkloadProfile> &per_channel,
                         double window_ns, uint64_t seed)
{
    QUAC_ASSERT(!per_channel.empty(), "no channels");
    SystemActivity system;
    system.windowNs_ = window_ns;
    system.profiles_ = per_channel;
    system.channels_.reserve(per_channel.size());
    for (size_t c = 0; c < per_channel.size(); ++c) {
        system.channels_.push_back(ChannelActivity::generate(
            per_channel[c], window_ns,
            channelSeed(seed, c, per_channel[c].name)));
    }
    return system;
}

const ChannelActivity &
SystemActivity::channel(size_t c) const
{
    QUAC_ASSERT(c < channels_.size(), "channel %zu of %zu", c,
                channels_.size());
    return channels_[c];
}

const WorkloadProfile &
SystemActivity::profile(size_t c) const
{
    QUAC_ASSERT(c < profiles_.size(), "channel %zu of %zu", c,
                profiles_.size());
    return profiles_[c];
}

InjectionResult
injectQuac(const ChannelActivity &activity, double iteration_ns,
           double bits_per_iteration, double reentry_overhead_ns)
{
    QUAC_ASSERT(iteration_ns > 0.0 && bits_per_iteration > 0.0,
                "iteration=%f bits=%f", iteration_ns,
                bits_per_iteration);

    InjectionResult result;
    result.idleFraction = activity.idleFraction();

    // QUAC-TRNG work is injected at command granularity (paper
    // Section 7.3): an interrupted iteration resumes in the next
    // idle interval, so every gap longer than the re-entry overhead
    // contributes fractional progress.
    double idle_total = 0.0;
    double used_total = 0.0;
    for (const auto &[start, end] : activity.idleIntervals()) {
        double len = end - start;
        idle_total += len;
        double usable = len - reentry_overhead_ns;
        if (usable <= 0.0)
            continue;
        used_total += usable;
    }
    result.iterations = used_total / iteration_ns;
    result.bits = result.iterations * bits_per_iteration;
    result.idleUsedFraction =
        idle_total > 0.0 ? used_total / idle_total : 0.0;
    return result;
}

const char *
fairnessPolicyName(FairnessPolicy policy)
{
    switch (policy) {
    case FairnessPolicy::Fcfs: return "fcfs";
    case FairnessPolicy::RngPriority: return "rng-priority";
    case FairnessPolicy::BufferedFair: return "buffered-fair";
    }
    return "?";
}

FairnessPolicy
fairnessPolicyFromName(const std::string &name)
{
    for (FairnessPolicy policy :
         {FairnessPolicy::Fcfs, FairnessPolicy::RngPriority,
          FairnessPolicy::BufferedFair}) {
        if (name == fairnessPolicyName(policy))
            return policy;
    }
    fatal("unknown fairness policy '%s' (fcfs, rng-priority, "
          "buffered-fair)",
          name.c_str());
}

namespace
{

/** Idle time usable for refill in (from, window), net of re-entry. */
double
usableIdleAfter(const ChannelActivity &activity, double from,
                double reentry_overhead_ns)
{
    double usable = 0.0;
    for (const auto &[start, end] : activity.idleIntervals()) {
        double lo = std::max(start, from);
        if (lo >= end)
            continue;
        // A gap entered fresh (or re-entered after the prioritized
        // prefix) pays the re-entry overhead once.
        usable += std::max(0.0, end - lo - reentry_overhead_ns);
    }
    return usable;
}

/** Demand-burst time overlapping the prioritized prefix [0, len). */
double
busyOverlap(const ChannelActivity &activity, double len)
{
    double overlap = 0.0;
    for (const auto &[start, end] : activity.busyIntervals()) {
        if (start >= len)
            break;
        overlap += std::min(end, len) - start;
    }
    return overlap;
}

} // anonymous namespace

RefillGrant
grantRefill(const ChannelActivity &activity, double needed_ns,
            FairnessPolicy policy, double urgent_ns,
            double reentry_overhead_ns)
{
    QUAC_ASSERT(needed_ns >= 0.0 && urgent_ns >= 0.0 &&
                urgent_ns <= needed_ns + 1e-9,
                "needed=%f urgent=%f", needed_ns, urgent_ns);

    double window = activity.windowNs();
    double busy_total = window * (1.0 - activity.idleFraction());

    RefillGrant grant;
    grant.usableIdleNs =
        usableIdleAfter(activity, 0.0, reentry_overhead_ns);

    // The prioritized part runs first, occupying the head of the
    // window and displacing any demand bursts it overlaps.
    double prioritized = 0.0;
    switch (policy) {
    case FairnessPolicy::Fcfs:
        prioritized = 0.0;
        break;
    case FairnessPolicy::RngPriority:
        prioritized = needed_ns;
        break;
    case FairnessPolicy::BufferedFair:
        prioritized = urgent_ns;
        break;
    }
    prioritized = std::min(prioritized, window);
    grant.urgentNs = prioritized;
    grant.stolenBusyNs = busyOverlap(activity, prioritized);

    // The remainder queues FCFS-style behind demand traffic in the
    // idle gaps after the prioritized prefix.
    double remainder = needed_ns - prioritized;
    double idle_budget =
        usableIdleAfter(activity, prioritized, reentry_overhead_ns);
    grant.grantedNs = prioritized + std::min(remainder, idle_budget);

    grant.memSlowdown =
        busy_total > 0.0 ? grant.stolenBusyNs / busy_total : 0.0;
    return grant;
}

double
SystemInjection::bits() const
{
    double total = 0.0;
    for (const InjectionResult &injection : perChannel)
        total += injection.bits;
    return total;
}

double
SystemInjection::throughputGbps(double window_ns) const
{
    return window_ns > 0.0 ? bits() / window_ns : 0.0;
}

double
SystemInjection::meanIdleFraction() const
{
    if (perChannel.empty())
        return 0.0;
    double idle = 0.0;
    for (const InjectionResult &injection : perChannel)
        idle += injection.idleFraction;
    return idle / static_cast<double>(perChannel.size());
}

SystemInjection
injectQuac(const SystemActivity &system, double iteration_ns,
           double bits_per_iteration, double reentry_overhead_ns)
{
    SystemInjection injection;
    injection.perChannel.reserve(system.channels());
    for (size_t c = 0; c < system.channels(); ++c) {
        injection.perChannel.push_back(
            injectQuac(system.channel(c), iteration_ns,
                       bits_per_iteration, reentry_overhead_ns));
    }
    return injection;
}

std::vector<WorkloadProfile>
corunnerMix(const WorkloadProfile &primary, unsigned channels)
{
    QUAC_ASSERT(channels >= 1, "channels=%u", channels);
    const std::vector<WorkloadProfile> &profiles = spec2006Profiles();
    size_t base = 0;
    for (size_t i = 0; i < profiles.size(); ++i) {
        if (profiles[i].name == primary.name) {
            base = i;
            break;
        }
    }
    std::vector<WorkloadProfile> mix;
    mix.reserve(channels);
    mix.push_back(primary);
    // Stride-7 walk: 7 is coprime to the 23-entry list, so the
    // co-runners cycle through every intensity class before
    // repeating.
    for (unsigned c = 1; c < channels; ++c)
        mix.push_back(profiles[(base + 7ull * c) % profiles.size()]);
    return mix;
}

WorkloadTrngResult
fig12Point(const std::vector<WorkloadProfile> &per_channel,
           double iteration_ns, double bits_per_iteration,
           double window_ns, uint64_t seed)
{
    SystemActivity system =
        SystemActivity::generate(per_channel, window_ns, seed);
    SystemInjection injection = injectQuac(system, iteration_ns,
                                           bits_per_iteration);

    WorkloadTrngResult result;
    result.name = per_channel.front().name;
    result.throughputGbps = injection.throughputGbps(window_ns);
    result.idleFraction = injection.meanIdleFraction();
    for (size_t c = 0; c < per_channel.size(); ++c) {
        result.channelWorkloads.push_back(per_channel[c].name);
        result.perChannelGbps.push_back(
            injection.perChannel[c].bits / window_ns);
    }
    return result;
}

std::vector<WorkloadTrngResult>
runSystemStudy(double iteration_ns, double bits_per_iteration,
               unsigned channels, double window_ns, uint64_t seed,
               bool heterogeneous)
{
    std::vector<WorkloadTrngResult> results;
    for (const WorkloadProfile &profile : spec2006Profiles()) {
        std::vector<WorkloadProfile> mix =
            heterogeneous
                ? corunnerMix(profile, channels)
                : std::vector<WorkloadProfile>(channels, profile);
        results.push_back(fig12Point(mix, iteration_ns,
                                     bits_per_iteration, window_ns,
                                     seed));
    }
    return results;
}

} // namespace quac::sysperf
