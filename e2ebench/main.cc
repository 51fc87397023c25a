/**
 * @file
 * End-to-end benchmark over real QUAC-TRNG backends.
 *
 *   e2ebench --workload keys|bulk|inproc --seed N --seconds S
 *            --trace 0|1 [--trace-out PATH]
 *   e2ebench --self-test
 *
 * Stands the stack up several times (set-up time is a metric of its
 * own), runs the workload (workloads.hh) for S seconds with tracing
 * off and prints the end-to-end metrics. With --trace 1 it instead
 * splits S between an untraced and a traced phase (at most 10 s, as
 * its spans stay in memory) and prints the per-layer ledger,
 * including what the tracing cost. Everything is measured from
 * outside the program through its public APIs; the workload seed
 * only shapes the offered requests, the module seeds are fixed.
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. Any correctness violation prints
 * "correct": false and exits 1; bad arguments or a failing self-test
 * exit 2 without a result.
 */

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_math.hh"
#include "ledger.hh"
#include "selftest.hh"
#include "stack.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace e2e;

namespace
{

/** Stacks stood up per run; setup_s is their median. */
constexpr size_t kSetups = 5;
/** Longest traced phase; spans are kept in memory until it ends. */
constexpr double kMaxTracedSeconds = 10.0;
/** Reference-stream check: each inproc client's first bytes. */
constexpr size_t kReferenceBytes = 64 * 1024;

struct Args
{
    Workload workload = Workload::Keys;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &args, bool &self_test)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--self-test") {
            self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            have_workload = parseWorkload(value, args.workload);
            if (!have_workload)
                return false;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds >= 0.2) ||
                args.seconds > 600.0)
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            return false;
        }
    }
    return self_test || have_workload;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Printed beside the value ("modelled", "context"). */
    std::string tag;
};

double
valueOf(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** A per-layer percentile, or 0 with a note when too few samples
 * lie beyond it (e.g. the few, large refill pulls of inproc). */
template <class T>
double
percentileOr(const std::vector<T> &sorted, double q,
             std::vector<std::string> &notes, const char *what)
{
    std::optional<double> v = nearestRank(sorted, q);
    if (!v) {
        notes.push_back(std::string(what) + ": too few samples (" +
                        std::to_string(sorted.size()) + "), reported as 0");
        return 0.0;
    }
    return *v;
}

/** Rates and totals of each slice of the window. */
struct SliceRates
{
    std::vector<double> rps;
    std::vector<double> mbps;
    std::vector<double> programCpuNs;
    std::vector<double> bytes;
    std::vector<double> steal;
};

SliceRates
sliceRates(const PhaseResult &p)
{
    SliceRates r;
    for (size_t i = 1; i < p.slices.size(); ++i) {
        const Slice &a = p.slices[i - 1];
        const Slice &b = p.slices[i];
        double s = static_cast<double>(b.wallNs - a.wallNs) * 1e-9;
        double bytes = static_cast<double>(b.payloadBytes - a.payloadBytes);
        r.rps.push_back(ratio(static_cast<double>(b.completed - a.completed), s));
        r.mbps.push_back(ratio(bytes, s) / 1e6);
        r.programCpuNs.push_back(
            static_cast<double>(b.programCpuNs - a.programCpuNs));
        r.bytes.push_back(bytes);
        r.steal.push_back(stealFrac(a.host, b.host));
    }
    return r;
}

/** Median of @p values at @p picked. */
double
medianAt(const std::vector<double> &values, const std::vector<size_t> &picked)
{
    std::vector<double> v;
    for (size_t i : picked)
        v.push_back(values[i]);
    return median(v);
}

/** Sum of @p num over sum of @p den, both at @p picked. */
double
ratioAt(const std::vector<double> &num, const std::vector<double> &den,
        const std::vector<size_t> &picked)
{
    double n = 0.0;
    double d = 0.0;
    for (size_t i : picked) {
        n += num[i];
        d += den[i];
    }
    return ratio(n, d);
}

/** The slices the end-to-end figures come from (see endToEnd). */
std::vector<size_t>
quietOf(const SliceRates &r)
{
    return quietSlices(widenSteal(r.steal));
}

/** Share of the slices with no host CPU steal at all. */
double
calmFrac(const SliceRates &r)
{
    double calm = 0.0;
    for (double s : r.steal)
        calm += s == 0.0 ? 1.0 : 0.0;
    return ratio(calm, static_cast<double>(r.steal.size()));
}

/** The window's p50 latency: median of the picked slices' p50s. */
double
sliceP50Us(const PhaseResult &p, const std::vector<size_t> &picked,
           std::vector<std::string> &violations)
{
    std::vector<std::vector<float>> slices;
    for (size_t i : picked) {
        if (i < p.sliceLatencyUs.size())
            slices.push_back(p.sliceLatencyUs[i]);
    }
    std::optional<double> v = medianOfSliceP50(slices);
    if (!v)
        violations.push_back("too few samples for p50");
    return v.value_or(0.0);
}

/** Headline figure of a workload (for the tracing overhead), and
 * whether higher is better. */
double
headline(const PhaseResult &p, bool &higher_better,
         std::vector<std::string> &violations)
{
    SliceRates r = sliceRates(p);
    std::vector<size_t> quiet = quietOf(r);
    switch (p.workload) {
    case Workload::Keys:
        higher_better = true;
        return medianAt(r.rps, quiet);
    case Workload::Bulk:
        higher_better = true;
        return medianAt(r.mbps, quiet);
    case Workload::Inproc:
        higher_better = false;
        return sliceP50Us(p, quiet, violations);
    }
    return 0.0;
}

/**
 * The end-to-end metrics, over the window's 50 ms slices with the
 * least host CPU steal (see quietSlices and widenSteal): every slice
 * that, with both neighbours, saw none, when a twentieth of them
 * did. Rates and p50 are medians over those slices; CPU per byte is
 * their CPU over their bytes, because the generator spends CPU in
 * lumps (a fill at a time). So a burst of interference from other
 * tenants moves a few slices, not the figure.
 */
std::vector<Metric>
endToEnd(const PhaseResult &p, double setup_s,
         std::vector<std::string> &violations)
{
    SliceRates r = sliceRates(p);
    std::vector<size_t> quiet = quietOf(r);
    return {
        {"setup_s", "s", setup_s, ""},
        {"rps", "1/s", medianAt(r.rps, quiet), ""},
        {"goodput_mbps", "MB/s", medianAt(r.mbps, quiet), ""},
        {"p50_us", "us", sliceP50Us(p, quiet, violations), ""},
        {"cpu_ns_per_byte", "ns/B", ratioAt(r.programCpuNs, r.bytes, quiet),
         ""},
        {"peak_rss_mb", "MB", p.peakRssMb, ""},
    };
}

/** Traced-span aggregates over the measurement window. */
struct SpanTotals
{
    double pollSelfNs = 0.0;
    uint64_t fills = 0;
    double fillNs = 0.0;
    double fillBytes = 0.0;
    std::vector<double> fillUs;
    /** Fills on the serving thread (loop, or the refill thread). */
    double servingFillNs = 0.0;
    /** Their wall minus thread CPU: waits for bank workers. */
    double servingFillWaitNs = 0.0;
};

SpanTotals
spanTotals(const PhaseResult &p)
{
    SpanTotals t;
    // A poll can outlast the window (it serves until the socket is
    // momentarily empty), so poll spans count by their overlap.
    std::unordered_set<uint64_t> polls;
    for (const Span &s : p.spans) {
        int64_t overlap = std::min(s.endNs, p.windowEndNs) -
                          std::max(s.startNs, p.windowStartNs);
        if (s.kind == SpanKind::Poll && overlap > 0) {
            polls.insert(s.id);
            t.pollSelfNs += static_cast<double>(overlap);
        }
    }
    bool udp = p.workload != Workload::Inproc;
    for (const Span &s : p.spans) {
        if (s.kind != SpanKind::Fill || s.startNs < p.windowStartNs ||
            s.startNs >= p.windowEndNs)
            continue;
        double d = static_cast<double>(s.durationNs());
        ++t.fills;
        t.fillNs += d;
        t.fillBytes += s.bytes;
        t.fillUs.push_back(d * 1e-3);
        bool in_poll = polls.count(s.parent) != 0;
        if (in_poll)
            t.pollSelfNs -= d;
        if ((udp && in_poll) ||
            (!udp && s.parent == kRefillThreadParent)) {
            t.servingFillNs += d;
            t.servingFillWaitNs += d - static_cast<double>(s.cpuNs);
        }
    }
    std::sort(t.fillUs.begin(), t.fillUs.end());
    return t;
}

std::vector<Metric>
perLayer(const PhaseResult &t, const PhaseResult &u,
         const StageCosts &costs, std::vector<std::string> &violations,
         std::vector<std::string> &notes)
{
    const double w = t.windowSeconds();
    const bool udp = t.workload != Workload::Inproc;
    const SpanTotals s = spanTotals(t);
    const double kreq = static_cast<double>(t.svc.requests) / 1e3;
    // Server and table counters cover the whole run (see PhaseResult).
    const double wire_kreq =
        static_cast<double>(t.server.wellFormed) / 1e3;
    const double loop_cpu =
        static_cast<double>(t.cpu1.loopNs - t.cpu0.loopNs);
    const bool refill_known = t.cpu0.refillNs >= 0 && t.cpu1.refillNs >= 0;
    const double refill_cpu =
        static_cast<double>(t.cpu1.refillNs - t.cpu0.refillNs);
    const double own_cpu =
        static_cast<double>((t.cpu1.mainNs - t.cpu0.mainNs) +
                            (t.cpu1.loopNs - t.cpu0.loopNs) +
                            (t.cpu1.driverNs - t.cpu0.driverNs));
    const double process_cpu =
        static_cast<double>(t.cpu1.processNs - t.cpu0.processNs);
    const int drivers = udp ? 1 : static_cast<int>(kInprocClients);

    // Busy time of the thread that serves (UDP: the loop) or
    // generates (inproc: the refill thread): its CPU plus the time it
    // waited inside fills for the bank workers.
    // Without both refill-thread readings, its fills alone count.
    double serving_busy =
        udp            ? loop_cpu + s.servingFillWaitNs
        : refill_known ? refill_cpu + s.servingFillWaitNs
                       : s.servingFillNs;
    // Stage ledger: micro-timed costs times their counts, against the
    // busy time of every thread that ran program code.
    double attributed =
        costs.parseNs * (udp ? static_cast<double>(t.svc.requests) : 0.0) +
        costs.serveHitNs * static_cast<double>(t.svc.requests) +
        costs.pullFillNsPerByte * s.fillBytes +
        costs.observeNsPerByte * s.fillBytes;
    double program_busy =
        serving_busy + (udp ? 0.0 : static_cast<double>(t.inCallNs));

    double fill_ns_per_byte = ratio(s.fillNs, s.fillBytes);
    double sha_ns_per_byte =
        ratio(costs.shaNsPerSib * static_cast<double>(costs.sibsPerIteration),
              static_cast<double>(costs.bytesPerIteration));

    bool higher_better = true;
    double h_traced = headline(t, higher_better, violations);
    double h_plain = headline(u, higher_better, violations);
    double overhead = higher_better ? ratio(h_plain - h_traced, h_plain)
                                    : ratio(h_traced - h_plain, h_plain);

    return {
        // Whole-window tail latency of the untraced phase: reported
        // here because it swings with host scheduling gaps from run to
        // run, too much to carry a regression bound.
        {"p99_us", "us", percentileOr(u.latencyUs, 0.99, notes, "p99_us"),
         ""},
        {"net.loop_busy_frac", "frac", udp ? ratio(loop_cpu, w * 1e9) : 0.0,
         ""},
        {"net.poll_self_us_per_kreq", "us", ratio(s.pollSelfNs, kreq) * 1e-3,
         ""},
        {"net.dgrams_per_recv", "count",
         ratio(static_cast<double>(t.server.datagramsReceived),
               static_cast<double>(t.server.recvCalls)),
         ""},
        {"net.send_per_kreq", "count",
         ratio(static_cast<double>(t.server.sendCalls),
               static_cast<double>(t.server.responsesSent) / 1e3),
         ""},
        {"net.parse_ns", "ns", costs.parseNs, ""},
        {"net.send_retries", "count",
         static_cast<double>(t.server.sendRetries), ""},
        {"net.idle_ticks_per_s", "1/s",
         ratio(static_cast<double>(t.server.idleWakeups), t.loopSeconds),
         ""},
        {"service.table_hit_ratio", "frac",
         ratio(static_cast<double>(t.table.hits),
               static_cast<double>(t.table.lookups)),
         ""},
        {"service.table_connects_per_kreq", "count",
         ratio(static_cast<double>(t.table.inserts), wire_kreq), ""},
        {"service.table_evictions_per_kreq", "count",
         ratio(static_cast<double>(t.table.evictions), wire_kreq), ""},
        {"service.hit_ratio", "frac",
         ratio(static_cast<double>(t.svc.hits),
               static_cast<double>(t.svc.requests)),
         ""},
        {"service.sync_fills_per_kreq", "count",
         ratio(static_cast<double>(t.svc.syncFills), kreq), ""},
        {"service.partial_frac", "frac",
         ratio(static_cast<double>(t.partial),
               static_cast<double>(t.completed)),
         ""},
        {"service.refill_mbps", "MB/s",
         ratio(static_cast<double>(t.svc.bytesRefilled), w) / 1e6, ""},
        {"service.level_frac", "frac", t.levelFrac, ""},
        {"service.serve_hit_ns", "ns", costs.serveHitNs, ""},
        {"service.denials", "count", static_cast<double>(t.svc.denials),
         ""},
        {"service.health_windows_per_s", "1/s",
         ratio(static_cast<double>(t.svc.healthWindows), w), ""},
        {"service.health_quarantines", "count",
         static_cast<double>(t.svc.quarantines), ""},
        {"core.fill_calls_per_kreq", "count",
         ratio(static_cast<double>(s.fills), kreq), ""},
        {"core.fill_ns_per_byte", "ns/B", fill_ns_per_byte, ""},
        {"core.fill_p99_us", "us",
         percentileOr(s.fillUs, 0.99, notes, "core.fill_p99_us"), ""},
        {"core.iterations_per_s", "1/s",
         ratio(static_cast<double>(t.svc.iterations), w), ""},
        {"core.fill_share", "frac", ratio(s.servingFillNs, serving_busy),
         ""},
        {"dram.ns_per_byte", "ns/B",
         std::max(0.0, fill_ns_per_byte - sha_ns_per_byte), ""},
        {"crypto.sha_ns_per_sib", "ns", costs.shaNsPerSib, ""},
        {"nist.health_observe_ns_per_byte", "ns/B", costs.observeNsPerByte,
         ""},
        {"common.worker_cpu_frac", "frac",
         ratio(process_cpu - own_cpu, w * 1e9), ""},
        {"sched.model_channel_gbps", "Gb/s", costs.modelChannelGbps,
         "modelled"},
        {"ledger.unattributed_frac", "frac",
         program_busy > 0.0 ? 1.0 - attributed / program_busy : 0.0, ""},
        {"loadgen.busy_frac", "frac",
         ratio(static_cast<double>(t.cpu1.driverNs - t.cpu0.driverNs),
               w * 1e9 * drivers),
         "context"},
        {"loadgen.gaps_per_s", "1/s",
         ratio(static_cast<double>(t.gaps), w), "context"},
        {"loadgen.late_p99_us", "us",
         percentileOr(t.lateUs, 0.99, notes, "loadgen.late_p99_us"),
         "context"},
        {"host.steal_frac", "frac", stealFrac(t.cpu0.host, t.cpu1.host),
         "context"},
        {"host.calm_frac", "frac", calmFrac(sliceRates(t)), "context"},
        {"trace.overhead_frac", "frac", overhead, "context"},
    };
}

void
printMetric(const Metric &m)
{
    std::printf("  %-34s %16.6g %-6s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.tag.empty() ? "" : " ",
                m.tag.empty() ? "" : m.tag.c_str());
}

void
printJson(bool correct, const Outcome &outcome,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", outcome.sent,
                outcome.failed());
    for (size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

void
printPhase(const PhaseResult &p)
{
    const Outcome &o = p.outcome;
    std::printf("phase %s%s: window %.3f s, sent %" PRIu64 " = ok %" PRIu64
                " + partial %" PRIu64 " + denied %" PRIu64
                " + lost %" PRIu64 " (fail_frac %.6g), measured %" PRIu64
                " requests, %" PRIu64 " payload bytes\n",
                workloadName(p.workload), p.traced ? " (traced)" : "",
                p.windowSeconds(), o.sent, o.ok, o.partial, o.denied,
                o.lost, o.failFrac(), p.completed, p.payloadBytes);
    std::printf("  host: steal %.4f, driver stalls >100us %" PRIu64
                " (%.1f/s)\n",
                stealFrac(p.cpu0.host, p.cpu1.host), p.gaps,
                ratio(static_cast<double>(p.gaps), p.windowSeconds()));
    SliceRates r = sliceRates(p);
    std::vector<size_t> quiet = quietOf(r);
    auto [lo, hi] = std::minmax_element(r.rps.begin(), r.rps.end());
    auto [slo, shi] = std::minmax_element(r.steal.begin(), r.steal.end());
    std::printf("  %zu slices: req/s min %.6g median %.6g max %.6g, "
                "%zu quiet slices %.6g (whole window %.6g); slice steal "
                "min %.4f median %.4f max %.4f, none in %.0f%%\n",
                r.rps.size(), *lo, median(r.rps), *hi, quiet.size(),
                medianAt(r.rps, quiet),
                ratio(static_cast<double>(p.completed), p.windowSeconds()),
                *slo, median(r.steal), *shi, 100.0 * calmFrac(r));
    if (!p.rssAtCheckpoint)
        std::printf("  note: too few requests for the RSS checkpoint; "
                    "peak RSS read at the window's end\n");
    for (const std::string &v : p.violations)
        std::printf("  VIOLATION: %s\n", v.c_str());
}

int
run(const Args &args)
{
    const bool udp = args.workload != Workload::Inproc;
    std::printf("e2ebench: workload %s, seed %" PRIu64
                ", %.3g s, trace %d\n",
                workloadName(args.workload), args.seed, args.seconds,
                args.trace ? 1 : 0);
    int main_cpu = pinThread(kMainCpuSlot);
    std::printf("host: nproc %ld, cpu %s; main thread on cpu %d\n",
                ::sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                main_cpu);
    std::fflush(stdout);

    struct PhasePlan
    {
        bool traced;
        double seconds;
    };
    std::vector<PhasePlan> plans;
    if (args.trace) {
        double traced = std::min(args.seconds / 2, kMaxTracedSeconds);
        plans = {{false, args.seconds - traced}, {true, traced}};
    } else {
        plans = {{false, args.seconds}};
    }

    std::vector<double> setups;
    std::vector<double> setup_steal;
    for (size_t i = plans.size(); i < kSetups; ++i) {
        std::unique_ptr<Stack> stack = buildStack(udp, nullptr);
        setups.push_back(stack->setupSeconds);
        setup_steal.push_back(stack->setupSteal);
    }

    std::vector<PhaseResult> phases;
    std::vector<std::vector<std::vector<uint8_t>>> first(plans.size());
    Tracer tracer;
    for (size_t i = 0; i < plans.size(); ++i) {
        PhaseConfig cfg;
        cfg.workload = args.workload;
        cfg.seed = args.seed;
        cfg.seconds = plans[i].seconds;
        cfg.tracer = plans[i].traced ? &tracer : nullptr;
        std::unique_ptr<Stack> stack = buildStack(udp, cfg.tracer);
        setups.push_back(stack->setupSeconds);
        setup_steal.push_back(stack->setupSteal);
        phases.push_back(runPhase(cfg, *stack, first[i], kReferenceBytes));
        printPhase(phases.back());
    }
    // A plain median: the first set-ups after an idle spell run slow
    // (the host wakes halted vCPUs), which steal does not predict.
    double setup_s = median(setups);
    std::printf("  setup: median %.4f s of", setup_s);
    for (size_t i = 0; i < setups.size(); ++i)
        std::printf(" %.4f (steal %.3f)", setups[i], setup_steal[i]);
    std::printf("\n");

    std::vector<std::string> violations;
    for (const PhaseResult &p : phases)
        violations.insert(violations.end(), p.violations.begin(),
                          p.violations.end());

    // Each inproc client is the only reader of its shard, so its
    // first bytes must be the backend's stream from position 0.
    std::unique_ptr<quac::dram::DramModule> ref_module;
    std::unique_ptr<quac::core::QuacTrng> ref_trng;
    if (args.workload == Workload::Inproc) {
        for (size_t c = 0; c < kInprocClients; ++c) {
            std::unique_ptr<quac::dram::DramModule> module;
            auto trng = referenceTrng(c, module);
            std::vector<uint8_t> expect(kReferenceBytes);
            trng->fill(expect.data(), expect.size());
            for (auto &phase_bytes : first) {
                const std::vector<uint8_t> &got = phase_bytes[c];
                if (got.size() < expect.size() ||
                    std::memcmp(got.data(), expect.data(),
                                expect.size()) != 0)
                    violations.push_back(
                        "inproc client " + std::to_string(c) +
                        ": first 64 KiB differ from a fresh QuacTrng");
            }
            if (c == 0) {
                ref_module = std::move(module);
                ref_trng = std::move(trng);
            }
        }
        std::printf("  reference: each client's first %zu bytes checked "
                    "against a fresh same-seed QuacTrng\n",
                    kReferenceBytes);
    }

    Outcome total;
    for (const PhaseResult &p : phases) {
        total.sent += p.outcome.sent;
        total.ok += p.outcome.ok;
        total.partial += p.outcome.partial;
        total.denied += p.outcome.denied;
        total.lost += p.outcome.lost;
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = endToEnd(phases[0], setup_s, violations);
        std::printf("end-to-end metrics (tracing off):\n");
        for (const Metric &m : metrics)
            printMetric(m);
        printMetric({"fail_frac", "frac", phases[0].outcome.failFrac(), ""});
    } else {
        const PhaseResult &u = phases[0];
        const PhaseResult &t = phases[1];
        if (!ref_trng)
            ref_trng = referenceTrng(0, ref_module);
        SpanTotals s = spanTotals(t);
        size_t pull = s.fills == 0
                          ? 1
                          : static_cast<size_t>(s.fillBytes /
                                                static_cast<double>(s.fills));
        StageCosts costs = measureStages(*ref_trng, *ref_module,
                                         requestBytes(args.workload), pull);
        std::vector<std::string> notes;
        metrics = perLayer(t, u, costs, violations, notes);
        std::printf("per-layer metrics (traced phase; stage ledger from "
                    "this run):\n");
        for (const Metric &m : metrics)
            printMetric(m);
        for (const std::string &note : notes)
            std::printf("  note: %s\n", note.c_str());
        std::vector<std::string> unused;
        std::vector<Metric> plain = endToEnd(u, setup_s, unused);
        std::printf("measured beside modelled: cpu_ns_per_byte %.6g ns/B "
                    "(untraced), core.fill_ns_per_byte %.6g ns/B, "
                    "sched.model_channel_gbps %.6g Gb/s [modelled]\n",
                    valueOf(plain, "cpu_ns_per_byte"),
                    valueOf(metrics, "core.fill_ns_per_byte"),
                    costs.modelChannelGbps);
        std::printf("stage costs: parse %.1f ns, serve hit %.1f ns, "
                    "sha %.1f ns/SIB x %zu SIB, observe %.3f ns/B and "
                    "fill %.1f ns/B on %zu-B pulls, one iteration %.1f us "
                    "for %zu B\n",
                    costs.parseNs, costs.serveHitNs, costs.shaNsPerSib,
                    costs.sibsPerIteration, costs.observeNsPerByte,
                    costs.pullFillNsPerByte, pull,
                    costs.iterationNs * 1e-3, costs.bytesPerIteration);
        if (!args.traceOut.empty()) {
            if (Tracer::write(t.spans, args.traceOut))
                std::printf("trace: %zu spans -> %s\n", t.spans.size(),
                            args.traceOut.c_str());
            else
                std::printf("trace: could not write %s\n",
                            args.traceOut.c_str());
        }
    }

    bool correct = violations.empty();
    for (const std::string &v : violations)
        std::printf("VIOLATION: %s\n", v.c_str());
    printJson(correct, total, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args;
    bool self_test = false;
    if (!parseArgs(argc, argv, args, self_test)) {
        std::fprintf(stderr,
                     "usage: %s --workload keys|bulk|inproc --seed N "
                     "--seconds S --trace 0|1 [--trace-out PATH]\n"
                     "       %s --self-test\n",
                     argv[0], argv[0]);
        return 2;
    }
    int failures = runSelfTests();
    if (failures != 0) {
        std::fprintf(stderr, "%d self-test failure(s)\n", failures);
        return 2;
    }
    if (self_test) {
        std::printf("self-tests passed\n");
        return 0;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 2;
    }
}
