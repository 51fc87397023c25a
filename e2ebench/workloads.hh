/**
 * @file
 * The three workloads, each one measured phase against a fresh
 * stack:
 *
 *  - keys:   UDP loopback, closed loop, 64 requests in flight from
 *            one socket; 32-byte interactive requests (one 256-bit
 *            key) from Zipf(1.1) client ids over 65,536 ids against
 *            the default 4,096-entry ClientTable. Stresses the
 *            per-datagram path, first-contact table churn and small
 *            synchronous fills.
 *  - bulk:   UDP loopback, closed loop, 16 requests in flight of
 *            1,184 bytes (the payload cap) from 64 resident clients,
 *            half standard and half bulk priority. Generation
 *            dominates; bulk backpressure shows as partial serves.
 *  - inproc: no sockets. Two threads, each pinned to its own shard,
 *            call Client::request for 64 bytes open loop at 20,000
 *            req/s each while the service's auto-refill thread
 *            (200 us period) generates beside them: the lock-free
 *            ring-hit path, with net and the client table idle.
 *
 * A phase warms up, measures for a fixed window, then drains every
 * in-flight request before anything is counted.
 */

#ifndef QUAC_E2EBENCH_WORKLOADS_HH
#define QUAC_E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.hh"
#include "net/udp_server.hh"
#include "service/client_table.hh"
#include "stack.hh"
#include "trace.hh"

namespace e2e
{

enum class Workload : uint8_t
{
    Keys = 0,
    Bulk = 1,
    Inproc = 2,
};

/** Parse "keys" / "bulk" / "inproc"; false on anything else. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload workload);
/** Payload bytes each request of @p workload asks for. */
uint32_t requestBytes(Workload workload);

/** Service-side counters read through the stats accessors. */
struct ServiceCounters
{
    uint64_t requests = 0;
    uint64_t hits = 0;
    uint64_t syncFills = 0;
    uint64_t denials = 0;
    uint64_t bytesRefilled = 0;
    uint64_t healthWindows = 0;
    uint64_t quarantines = 0;
    uint64_t iterations = 0;

    static ServiceCounters read(const Stack &stack);
    ServiceCounters operator-(const ServiceCounters &base) const;
};

/** CPU and host readings at one window edge. */
struct CpuMark
{
    int64_t wallNs = 0;
    int64_t processNs = 0;
    /** The benchmark's own threads, by role. */
    int64_t mainNs = 0;
    int64_t loopNs = 0;
    int64_t driverNs = 0;
    /** The service's auto-refill thread (inproc, traced only; -1
     * until the thread has been seen filling). */
    int64_t refillNs = -1;
    HostCpu host;
};

/** One cut of the measurement window, as the main thread sampled
 * it; consecutive slices give per-slice rates. */
struct Slice
{
    int64_t wallNs = 0;
    /** Process CPU minus the benchmark's own threads, plus client
     * time inside program calls. */
    int64_t programCpuNs = 0;
    /** Measured requests answered so far, and their payload. */
    uint64_t completed = 0;
    uint64_t payloadBytes = 0;
    HostCpu host;
};

/** Everything one measured phase yields. */
struct PhaseResult
{
    Workload workload = Workload::Keys;
    bool traced = false;
    double setupSeconds = 0.0;

    /** Correctness violations (empty = the phase was correct). */
    std::vector<std::string> violations;
    /** Whole-phase outcomes, counted after the drain. */
    Outcome outcome;

    /** Measurement window [start, end] (steady clock ns). */
    int64_t windowStartNs = 0;
    int64_t windowEndNs = 0;
    /** Requests sent inside the window and answered. */
    uint64_t completed = 0;
    /** Partial serves among them. */
    uint64_t partial = 0;
    /** Payload bytes those requests delivered. */
    uint64_t payloadBytes = 0;
    /** Their latencies in us, sorted. */
    std::vector<float> latencyUs;
    /** The same samples bucketed by the slice they completed in. */
    std::vector<std::vector<float>> sliceLatencyUs;
    /** Generator lateness samples in us, sorted. */
    std::vector<float> lateUs;
    /**
     * Generator stalls over 100 us inside the window: off-CPU time
     * inside a UDP driver's non-blocking batch, or a gap between a
     * spinning inproc client's clock reads.
     */
    uint64_t gaps = 0;
    /** Client-thread time spent inside Client::request (inproc). */
    int64_t inCallNs = 0;

    CpuMark cpu0;
    CpuMark cpu1;
    ServiceCounters svc;
    /** Window edges and the cuts between them (>= 2 entries). */
    std::vector<Slice> slices;
    /** Mean fill level of all shards over the window (0..1). */
    double levelFrac = 0.0;
    /** Process peak RSS once the window completed a fixed number of
     * requests (see rssCheckpointRate), MB; read at the window's end
     * instead when it never did. */
    double peakRssMb = 0.0;
    bool rssAtCheckpoint = true;
    uint64_t unhealthyBytesServed = 0;

    /** Server and client-table totals over the whole run (UDP),
     * read once the loop stopped, and how long the loop ran. */
    quac::net::UdpServerStats server;
    quac::service::ClientTable::Stats table;
    double loopSeconds = 0.0;

    /** Every span the traced phase recorded. */
    std::vector<Span> spans;

    double
    windowSeconds() const
    {
        return static_cast<double>(windowEndNs - windowStartNs) * 1e-9;
    }
};

/** Inputs of one phase. */
struct PhaseConfig
{
    Workload workload = Workload::Keys;
    uint64_t seed = 1;
    double seconds = 10.0;
    double warmupSeconds = 0.5;
    /** Null = untraced. */
    Tracer *tracer = nullptr;
};

/**
 * Run one phase on @p stack (built for this workload with the same
 * tracer). For inproc, @p firstBytes receives each client's first
 * bytes (up to @p captureBytes) for the reference-stream check.
 */
PhaseResult runPhase(const PhaseConfig &cfg, Stack &stack,
                     std::vector<std::vector<uint8_t>> &firstBytes,
                     size_t captureBytes);

/** Clients (and shards) the inproc workload drives. */
constexpr size_t kInprocClients = 2;

/**
 * CPU slots (see pinThread). Every thread the benchmark runs keeps
 * to one CPU, and threads the program starts inherit the CPU of the
 * thread that starts them: set-up, the reference streams and the
 * service's refill thread run on the main thread's CPU, and the bank
 * workers of a fill on the CPU of the thread that fills. Without
 * this, each fill wakes idle vCPUs, and on a shared host a woken
 * vCPU waits for the hypervisor: the figures then swing with the
 * neighbours' load (2-4x from run to run) instead of measuring the
 * program. The price is that fills run their banks one after
 * another, so the benchmark measures the program per core, not how
 * it scales across cores.
 */
constexpr size_t kMainCpuSlot = 0;
/** The UDP load generator, or the first inproc client (the second
 * takes the next slot). */
constexpr size_t kLoadCpuSlot = 1;
/** The thread that calls UdpServer::poll. */
constexpr size_t kLoopCpuSlot = 2;

} // namespace e2e

#endif // QUAC_E2EBENCH_WORKLOADS_HH
