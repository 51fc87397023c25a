/**
 * @file
 * Clocks, host-noise probes, and the in-memory span recorder.
 *
 * Spans are recorded only by the benchmark's own code, around its
 * calls into the program: one per loadgen request, per
 * UdpServer::poll, per backend fill (through the TimedTrng
 * decorator), and per in-process Client::request. Each recording
 * site owns its span buffer, so recording never contends; buffers
 * are merged and written out when the phase ends.
 */

#ifndef QUAC_E2EBENCH_TRACE_HH
#define QUAC_E2EBENCH_TRACE_HH

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"

namespace e2e
{

/** steady_clock now, in ns. */
int64_t nowNs();
/** CPU time of the calling thread, in ns. */
int64_t threadCpuNs();
/** CPU time of a live thread of this process, in ns. */
int64_t threadCpuNs(pthread_t thread);
/** CPU time of the whole process (exited threads included), ns. */
int64_t processCpuNs();
/** Peak resident set size so far, in MB (10^6 bytes). */
double peakRssMb();

/**
 * Pin the calling thread to one CPU: the @p slot-th of the CPUs this
 * process could run on when it first asked (wrapping around when
 * there are fewer). Threads it starts afterwards inherit the CPU.
 * Returns the CPU, or -1 when it stays unpinned.
 */
int pinThread(size_t slot);

/** Aggregate CPU jiffies from /proc/stat (host-noise context). */
struct HostCpu
{
    uint64_t total = 0;
    uint64_t steal = 0;
};
HostCpu readHostCpu();
/** Share of host CPU time stolen between two readings. */
double stealFrac(const HostCpu &before, const HostCpu &after);
/** "model name" of the first CPU, or "unknown". */
std::string cpuModel();

/** What a span covers. */
enum class SpanKind : uint8_t
{
    /** One loadgen request: id = client id, aux = nonce. */
    Request = 0,
    /** One UdpServer::poll call. */
    Poll = 1,
    /** One backend fill: aux = backend, parent = enclosing span. */
    Fill = 2,
    /** One in-process Client::request call. */
    Call = 3,
};

/** Fill spans with no enclosing benchmark span ran on the
 * service's own refill thread. */
constexpr uint64_t kRefillThreadParent = 0;
/** Parent of the fills that prefill the shards during set-up. */
constexpr uint64_t kSetupParent = ~uint64_t{0};

struct Span
{
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = kRefillThreadParent;
    uint64_t aux = 0;
    /** Thread CPU consumed inside the span (fills only). */
    int64_t cpuNs = 0;
    uint32_t bytes = 0;
    SpanKind kind = SpanKind::Request;

    int64_t durationNs() const { return endNs - startNs; }
};

/**
 * The innermost open benchmark span on this thread (a poll or an
 * in-process request); fills record it as their parent.
 */
uint64_t openSpan();
void setOpenSpan(uint64_t id);

/** Span recorder for one traced phase. */
class Tracer
{
  public:
    /** A span buffer owned by one recording site. */
    using Buffer = std::vector<Span>;

    /** Fresh span id (never kRefillThreadParent). */
    uint64_t
    nextId()
    {
        // relaxed: ids only need uniqueness, not ordering.
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * A new buffer for one recording site, reserved up front so
     * recording stays allocation-free in the common case. The
     * tracer keeps ownership; the pointer stays valid until the
     * tracer is destroyed.
     */
    Buffer *buffer(size_t reserve);

    /** Every recorded span, merged (call once recording ended). */
    std::vector<Span> collect() const;

    /**
     * Write @p spans as TSV (kind, id, parent, aux, start_ns,
     * end_ns, cpu_ns, bytes). Returns false on an I/O error.
     */
    static bool write(const std::vector<Span> &spans,
                      const std::string &path);

  private:
    std::atomic<uint64_t> nextId_{1};
    mutable quac::Mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_
        QUAC_GUARDED_BY(mutex_);
};

} // namespace e2e

#endif // QUAC_E2EBENCH_TRACE_HH
