#include "workloads.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>

#include "common/rng.hh"
#include "net/wire.hh"

namespace e2e
{

using namespace quac;

namespace
{

/** Phase of a run, published by the main thread. */
enum Stage : int
{
    kWarmup = 0,
    kMeasure = 1,
    kDrain = 2,
};

constexpr int64_t kStallNs = 100'000;
/** Loopback does not drop datagrams, so only a response this late
 * (after the window's last send) counts as lost; the margin covers
 * hosts that stall the server for a while. */
constexpr int64_t kDrainTimeoutNs = 5'000'000'000;

/** Keys: Zipf(1.1) over this many ids. */
constexpr uint64_t kKeyIds = 65'536;
constexpr double kZipfExponent = 1.1;
/** Bulk: resident clients; the first half standard, the rest bulk. */
constexpr uint64_t kBulkClients = 64;
/** Inproc: open-loop rate per client thread. */
constexpr double kInprocRatePerSec = 20'000.0;
constexpr std::chrono::microseconds kRefillPeriod{200};
/** Sample buffers are sized for this request rate (UDP). */
constexpr double kMaxUdpRate = 150'000.0;

/**
 * Peak RSS is read once the window has completed seconds x this many
 * requests, a rate each workload clears even on a slow host, so the
 * figure reflects a fixed amount of work: keys leaves a service
 * client behind per table eviction, and a reading taken at a fixed
 * time would grow with throughput.
 */
double
rssCheckpointRate(Workload workload)
{
    switch (workload) {
    case Workload::Keys: return 15'000.0;
    case Workload::Bulk: return 1'500.0;
    case Workload::Inproc: return 10'000.0;
    }
    return 0.0;
}

unsigned
inFlight(Workload workload)
{
    return workload == Workload::Keys ? 64 : 16;
}

int64_t
secondsToNs(double s)
{
    return static_cast<int64_t>(s * 1e9);
}

void
sleepUntil(int64_t deadline_ns)
{
    int64_t now = nowNs();
    if (deadline_ns > now)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(deadline_ns - now));
}

/** Runs a callable when the scope ends, on exception paths too. */
template <class F>
class Finally
{
  public:
    explicit Finally(F fn) : fn_(std::move(fn)) {}
    Finally(const Finally &) = delete;
    Finally &operator=(const Finally &) = delete;
    ~Finally() { fn_(); }

  private:
    F fn_;
};

/** Counters the driver threads publish for the main thread's
 * slices (relaxed increments; the slices only need snapshots). */
struct Progress
{
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> payloadBytes{0};
    std::atomic<int64_t> inCallNs{0};
    /** Index of the slice now open (bumped at each cut). */
    std::atomic<uint32_t> slice{0};

    void
    add(uint64_t bytes, int64_t in_call_ns)
    {
        // relaxed: monotonic counters sampled by the main thread.
        completed.fetch_add(1, std::memory_order_relaxed);
        payloadBytes.fetch_add(bytes, std::memory_order_relaxed);
        if (in_call_ns != 0)
            inCallNs.fetch_add(in_call_ns, std::memory_order_relaxed);
    }
};

/** What a driver thread measured; merged by the main thread after
 * the join. */
struct DriverResult
{
    Outcome outcome;
    uint64_t completed = 0;
    uint64_t partial = 0;
    uint64_t payloadBytes = 0;
    /** Latencies in completion order; sliceStarts[k] indexes the
     * first one completed in slice k. */
    std::vector<float> latencyUs;
    std::vector<size_t> sliceStarts;
    std::vector<float> lateUs;
    uint64_t gaps = 0;
    int64_t inCallNs = 0;
    std::vector<std::string> violations;

    /**
     * Size the sample buffers for @p seconds up front and touch
     * them, so the benchmark's own memory is the same whatever rate
     * the program reaches (peak RSS is a metric).
     */
    void
    reserve(double seconds, double max_rate)
    {
        size_t n = static_cast<size_t>(seconds * max_rate) + 1024;
        latencyUs.resize(n);
        latencyUs.clear();
        lateUs.resize(n);
        lateUs.clear();
    }

    void
    sample(float latency_us, const Progress &progress)
    {
        // relaxed: the slice index is a hint of the time bucket.
        uint32_t slice = progress.slice.load(std::memory_order_relaxed);
        while (sliceStarts.size() <= slice)
            sliceStarts.push_back(latencyUs.size());
        latencyUs.push_back(latency_us);
    }

    void
    violation(std::string what)
    {
        // Keep the report short: the first few say it all.
        if (violations.size() < 8)
            violations.push_back(std::move(what));
    }
};

/**
 * The closed-loop UDP client: one socket, a fixed number of
 * requests in flight, a replacement sent as each response arrives.
 */
class UdpDriver
{
  public:
    UdpDriver(Workload workload, uint64_t seed, uint16_t port,
              double seconds, Tracer *tracer,
              const std::atomic<int> &stage, Progress &progress)
        : workload_(workload), stage_(stage), progress_(progress),
          zipf_(kKeyIds, kZipfExponent, seed), rng_(seed),
          window_(inFlight(workload)),
          nonces_(std::max(kKeyIds, kBulkClients) + 1, 0)
    {
        if (tracer != nullptr)
            spans_ = tracer->buffer(1 << 20);
        fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
        if (fd_ < 0)
            return;
        int buf = 1 << 21;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
            return;
        }
        rxBuffers_.resize(kBatch * kRxSlot);
        rxIov_.resize(kBatch);
        rxMsgs_.resize(kBatch);
        txBuffers_.resize(kBatch * net::kRequestBytes);
        txIov_.resize(kBatch);
        txMsgs_.resize(kBatch);
        for (unsigned i = 0; i < kBatch; ++i) {
            rxIov_[i] = {rxBuffers_.data() + i * kRxSlot, kRxSlot};
            rxMsgs_[i] = {};
            rxMsgs_[i].msg_hdr.msg_iov = &rxIov_[i];
            rxMsgs_[i].msg_hdr.msg_iovlen = 1;
            txIov_[i] = {txBuffers_.data() + i * net::kRequestBytes,
                         net::kRequestBytes};
            txMsgs_[i] = {};
            txMsgs_[i].msg_hdr.msg_iov = &txIov_[i];
            txMsgs_[i].msg_hdr.msg_iovlen = 1;
        }
        result_.reserve(seconds, kMaxUdpRate);
    }

    UdpDriver(const UdpDriver &) = delete;
    UdpDriver &operator=(const UdpDriver &) = delete;

    ~UdpDriver()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** Thread body: runs until the drain completes. */
    void
    run()
    {
        pinThread(kLoadCpuSlot);
        if (fd_ < 0) {
            result_.violation("driver socket setup failed");
            return;
        }
        unsigned queued = 0;
        while (queued < window_.depth())
            queueRequest(queued++, false);
        sendQueued(queued);

        bool draining = false;
        int64_t deadline = 0;
        for (;;) {
            int stage = stage_.load(std::memory_order_acquire);
            if (stage >= kDrain && !draining) {
                draining = true;
                deadline = nowNs() + kDrainTimeoutNs;
            }
            if (draining && window_.outstanding() == 0)
                break;
            if (draining && nowNs() > deadline) {
                uint64_t lost = window_.abandon();
                result_.outcome.lost += lost;
                result_.violation(std::to_string(lost) +
                                  " requests unanswered after drain");
                break;
            }
            bool measuring = stage == kMeasure;
            // Busy-poll rather than sleep in poll(): a sleeping load
            // generator leaves its vCPU halted, and on a shared host a
            // woken vCPU waits for the hypervisor, so the closed loop
            // would run at the pace of the neighbours' load.
            int n = ::recvmmsg(fd_, rxMsgs_.data(), kBatch,
                               MSG_DONTWAIT, nullptr);
            if (n <= 0)
                continue;
            int64_t received = nowNs();
            int64_t received_cpu = threadCpuNs();
            queued = 0;
            for (int i = 0; i < n; ++i) {
                if (onResponse(static_cast<unsigned>(i), received) &&
                    !draining)
                    queueRequest(queued++, measuring);
            }
            sendQueued(queued);
            int64_t done = nowNs();
            if (measuring) {
                result_.lateUs.push_back(
                    static_cast<float>(done - received) * 1e-3f);
                // Nothing from received to done blocks, so wall time
                // the thread did not spend on a CPU is a stall: a
                // preemption or a stolen vCPU.
                if ((done - received) - (threadCpuNs() - received_cpu) >
                    kStallNs)
                    ++result_.gaps;
            }
        }
    }

    DriverResult &result() { return result_; }

  private:
    static constexpr unsigned kBatch = net::kMaxBatchMessages;
    static constexpr size_t kRxSlot =
        net::kResponseHeaderBytes + net::kMaxPayloadBytes;

    /** Pick the next request and stage it in tx slot @p slot. */
    void
    queueRequest(unsigned slot, bool measured)
    {
        net::Request request;
        if (workload_ == Workload::Keys) {
            request.clientId = zipf_.next();
            request.priority = 0;
        } else {
            request.clientId = 1 + rng_.uniformInt(kBulkClients);
            request.priority =
                request.clientId <= kBulkClients / 2 ? 1 : 2;
        }
        request.nonce = ++nonces_[request.clientId];
        request.bytes = requestBytes(workload_);
        net::encodeRequest(txBuffers_.data() + slot * net::kRequestBytes,
                           request);
        InFlightWindow::Slot pending;
        pending.clientId = request.clientId;
        pending.nonce = request.nonce;
        pending.bytes = request.bytes;
        pending.measured = measured;
        staged_[slot] = pending;
    }

    /** Timestamp, admit to the window, and send @p count staged
     * requests. */
    void
    sendQueued(unsigned count)
    {
        if (count == 0)
            return;
        int64_t now = nowNs();
        for (unsigned i = 0; i < count; ++i) {
            staged_[i].sentNs = now;
            if (!window_.add(staged_[i]))
                result_.violation("in-flight window overflow");
        }
        result_.outcome.sent += count;
        unsigned sent = 0;
        while (sent < count) {
            int n = ::sendmmsg(fd_, txMsgs_.data() + sent, count - sent,
                               0);
            if (n > 0) {
                sent += static_cast<unsigned>(n);
            } else if (n < 0 && (errno == EAGAIN || errno == ENOBUFS ||
                                 errno == EINTR)) {
                pollfd pfd{fd_, POLLOUT, 0};
                ::poll(&pfd, 1, 10);
            } else {
                result_.violation(std::string("sendmmsg: ") +
                                  std::strerror(errno));
                return;
            }
        }
    }

    /** Account one received datagram; true when it answered an
     * outstanding request (so a replacement may be sent). */
    bool
    onResponse(unsigned i, int64_t received)
    {
        const uint8_t *data = rxBuffers_.data() + i * kRxSlot;
        net::Response response;
        if (net::parseResponse(data, rxMsgs_[i].msg_len, response) !=
            net::ParseError::None) {
            result_.violation("malformed response");
            return false;
        }
        std::optional<InFlightWindow::Slot> request =
            window_.complete(response.clientId, response.nonce);
        if (!request) {
            result_.violation("response matches no request");
            return false;
        }
        uint32_t payload = response.payloadBytes;
        if (response.status == net::Status::Ok) {
            ++result_.outcome.ok;
            if (payload != request->bytes)
                result_.violation("OK response with " +
                                  std::to_string(payload) + " of " +
                                  std::to_string(request->bytes) +
                                  " bytes");
        } else if (response.status == net::Status::Partial) {
            ++result_.outcome.partial;
            if (payload >= request->bytes)
                result_.violation("PARTIAL response not short");
        } else {
            ++result_.outcome.denied;
            if (payload != 0)
                result_.violation("DENY response with payload");
        }
        if (request->measured) {
            ++result_.completed;
            result_.payloadBytes += payload;
            if (response.status == net::Status::Partial)
                ++result_.partial;
            result_.sample(
                static_cast<float>(received - request->sentNs) * 1e-3f,
                progress_);
            progress_.add(payload, 0);
        }
        if (spans_ != nullptr) {
            Span span;
            span.kind = SpanKind::Request;
            span.id = response.clientId;
            span.aux = response.nonce;
            span.startNs = request->sentNs;
            span.endNs = received;
            span.bytes = payload;
            spans_->push_back(span);
        }
        return true;
    }

    Workload workload_;
    const std::atomic<int> &stage_;
    Progress &progress_;
    ZipfSampler zipf_;
    Xoshiro256pp rng_;
    InFlightWindow window_;
    std::vector<uint64_t> nonces_;
    std::array<InFlightWindow::Slot, kBatch> staged_{};
    Tracer::Buffer *spans_ = nullptr;
    int fd_ = -1;

    std::vector<uint8_t> rxBuffers_;
    std::vector<iovec> rxIov_;
    std::vector<mmsghdr> rxMsgs_;
    std::vector<uint8_t> txBuffers_;
    std::vector<iovec> txIov_;
    std::vector<mmsghdr> txMsgs_;

    DriverResult result_;
};

/**
 * One open-loop in-process client: request i is due at
 * start + i / rate, and its latency runs from that due time, so a
 * stall of the client or the service shows in every request it
 * delays.
 */
void
inprocClient(service::EntropyService::Client client, int64_t start_ns,
             double seconds, const std::atomic<int> &stage,
             Progress &progress, Tracer *tracer,
             size_t index, std::vector<uint8_t> &first_bytes,
             size_t capture_bytes, DriverResult &out)
{
    const uint32_t len = requestBytes(Workload::Inproc);
    const double period_ns = 1e9 / kInprocRatePerSec;
    Tracer::Buffer *spans = tracer ? tracer->buffer(1 << 20) : nullptr;
    std::vector<uint8_t> buf(len);
    out.reserve(seconds, kInprocRatePerSec * 1.25);
    int64_t prev = nowNs();
    for (uint64_t k = 0;; ++k) {
        int64_t due = start_ns + static_cast<int64_t>(
                                     static_cast<double>(k) * period_ns);
        int stage_now = stage.load(std::memory_order_acquire);
        if (stage_now >= kDrain)
            break;
        bool measuring = stage_now == kMeasure;
        int64_t now = nowNs();
        for (;;) {
            if (measuring && now - prev > kStallNs)
                ++out.gaps;
            prev = now;
            if (now >= due)
                break;
            now = nowNs();
        }
        uint64_t span_id = 0;
        if (spans != nullptr) {
            span_id = tracer->nextId();
            setOpenSpan(span_id);
        }
        int64_t call_start = nowNs();
        service::RequestResult result = client.request(buf.data(), len);
        int64_t call_end = nowNs();
        setOpenSpan(kRefillThreadParent);
        prev = call_end;

        ++out.outcome.sent;
        if (result.denied) {
            ++out.outcome.denied;
        } else if (result.bytes == len) {
            ++out.outcome.ok;
        } else {
            ++out.outcome.partial;
            out.violation("standard request served short");
        }
        if (first_bytes.size() < capture_bytes)
            first_bytes.insert(first_bytes.end(), buf.begin(),
                               buf.begin() + result.bytes);
        if (measuring) {
            ++out.completed;
            out.payloadBytes += result.bytes;
            out.sample(static_cast<float>(call_end - due) * 1e-3f,
                       progress);
            out.lateUs.push_back(
                static_cast<float>(call_start - due) * 1e-3f);
            out.inCallNs += call_end - call_start;
            progress.add(result.bytes, call_end - call_start);
        }
        if (spans != nullptr) {
            Span span;
            span.kind = SpanKind::Call;
            span.id = span_id;
            span.aux = index;
            span.startNs = call_start;
            span.endNs = call_end;
            span.bytes = static_cast<uint32_t>(result.bytes);
            spans->push_back(span);
        }
    }
}

/** Merge driver results into the phase result. */
void
absorb(PhaseResult &phase, DriverResult &driver)
{
    Outcome &o = phase.outcome;
    o.sent += driver.outcome.sent;
    o.ok += driver.outcome.ok;
    o.partial += driver.outcome.partial;
    o.denied += driver.outcome.denied;
    o.lost += driver.outcome.lost;
    phase.completed += driver.completed;
    phase.partial += driver.partial;
    phase.payloadBytes += driver.payloadBytes;
    phase.latencyUs.insert(phase.latencyUs.end(),
                           driver.latencyUs.begin(),
                           driver.latencyUs.end());
    for (size_t k = 0; k < driver.sliceStarts.size(); ++k) {
        size_t end = k + 1 < driver.sliceStarts.size()
                         ? driver.sliceStarts[k + 1]
                         : driver.latencyUs.size();
        if (phase.sliceLatencyUs.size() <= k)
            phase.sliceLatencyUs.resize(k + 1);
        phase.sliceLatencyUs[k].insert(
            phase.sliceLatencyUs[k].end(),
            driver.latencyUs.begin() + driver.sliceStarts[k],
            driver.latencyUs.begin() + end);
    }
    phase.lateUs.insert(phase.lateUs.end(), driver.lateUs.begin(),
                        driver.lateUs.end());
    phase.gaps += driver.gaps;
    phase.inCallNs += driver.inCallNs;
    for (std::string &v : driver.violations)
        phase.violations.push_back(std::move(v));
}

constexpr int64_t kSliceNs = 50'000'000;
constexpr int64_t kLevelSampleNs = 10'000'000;

/**
 * The main thread's side of a phase: warm up, open the window, cut
 * it into slices (sampling shard levels in between), close it.
 * @p mark reads the CPU clocks at one instant.
 */
template <class Mark>
void
measureWindow(const PhaseConfig &cfg, const Stack &stack,
              PhaseResult &phase, std::atomic<int> &stage,
              Progress &progress, int64_t warm_start, Mark mark)
{
    auto slice = [&](const CpuMark &m) {
        Slice s;
        s.wallNs = m.wallNs;
        // relaxed: snapshots of monotonic counters.
        s.programCpuNs = m.processNs - m.mainNs - m.driverNs +
                         progress.inCallNs.load(std::memory_order_relaxed);
        s.completed = progress.completed.load(std::memory_order_relaxed);
        s.payloadBytes =
            progress.payloadBytes.load(std::memory_order_relaxed);
        s.host = m.host;
        return s;
    };

    sleepUntil(warm_start + secondsToNs(cfg.warmupSeconds));
    ServiceCounters svc0 = ServiceCounters::read(stack);
    phase.cpu0 = mark();
    stage.store(kMeasure, std::memory_order_release);
    phase.windowStartNs = phase.cpu0.wallNs;
    phase.slices.push_back(slice(phase.cpu0));

    const int64_t end = phase.windowStartNs + secondsToNs(cfg.seconds);
    const double capacity =
        static_cast<double>(kShardBytes * stack.service->shardCount());
    double level_sum = 0.0;
    uint64_t level_samples = 0;
    int64_t next_slice = phase.windowStartNs + kSliceNs;
    const uint64_t rss_checkpoint = static_cast<uint64_t>(
        cfg.seconds * rssCheckpointRate(cfg.workload));
    for (;;) {
        int64_t now = nowNs();
        if (now >= end)
            break;
        sleepUntil(std::min(end, now + kLevelSampleNs));
        level_sum +=
            static_cast<double>(stack.service->totalLevel()) / capacity;
        ++level_samples;
        // relaxed: a snapshot of a monotonic counter.
        if (phase.peakRssMb == 0.0 &&
            progress.completed.load(std::memory_order_relaxed) >=
                rss_checkpoint)
            phase.peakRssMb = peakRssMb();
        if (nowNs() >= next_slice && next_slice + kSliceNs / 2 < end) {
            phase.slices.push_back(slice(mark()));
            // relaxed: drivers only bucket samples by it.
            progress.slice.fetch_add(1, std::memory_order_relaxed);
            next_slice += kSliceNs;
        }
    }
    phase.levelFrac =
        level_samples == 0 ? 0.0 : level_sum / level_samples;
    phase.cpu1 = mark();
    stage.store(kDrain, std::memory_order_release);
    phase.windowEndNs = phase.cpu1.wallNs;
    phase.slices.push_back(slice(phase.cpu1));
    if (phase.peakRssMb == 0.0) {
        phase.rssAtCheckpoint = false;
        phase.peakRssMb = peakRssMb();
    }
    phase.svc = ServiceCounters::read(stack) - svc0;
}

void
runUdp(const PhaseConfig &cfg, Stack &stack, PhaseResult &phase)
{
    net::UdpServer &server = *stack.server;
    std::atomic<int> stage{kWarmup};
    Progress progress;
    std::atomic<bool> stop_loop{false};
    int64_t loop_start = nowNs();
    UdpDriver driver(cfg.workload, cfg.seed, server.port(), cfg.seconds,
                     cfg.tracer, stage, progress);
    std::thread loop;
    std::thread driver_thread;
    // Drain the driver, then stop the loop; idempotent, and run on
    // every exit so no thread outlives what it uses.
    auto stop = [&]() {
        stage.store(kDrain, std::memory_order_release);
        if (driver_thread.joinable())
            driver_thread.join();
        // relaxed: stop flag; stop() wakes the poll, the join orders.
        stop_loop.store(true, std::memory_order_relaxed);
        server.stop();
        if (loop.joinable())
            loop.join();
    };
    Finally stop_on_exit(stop);

    // The benchmark's own loop thread drives the server one poll at
    // a time, exactly as UdpServer::run would. Under sustained load a
    // single poll can last the whole run (it serves until the socket
    // is momentarily empty), so the single-threaded server stats are
    // only read once the loop has stopped.
    loop = std::thread([&]() {
        pinThread(kLoopCpuSlot);
        Tracer::Buffer *spans =
            cfg.tracer ? cfg.tracer->buffer(1 << 20) : nullptr;
        // relaxed: stop flag; the join publishes everything after it.
        while (!stop_loop.load(std::memory_order_relaxed)) {
            if (spans == nullptr) {
                server.poll(net::UdpServerConfig{}.idleTimeoutMs);
                continue;
            }
            Span span;
            span.kind = SpanKind::Poll;
            span.id = cfg.tracer->nextId();
            setOpenSpan(span.id);
            span.startNs = nowNs();
            span.bytes = static_cast<uint32_t>(
                server.poll(net::UdpServerConfig{}.idleTimeoutMs));
            span.endNs = nowNs();
            setOpenSpan(kRefillThreadParent);
            spans->push_back(span);
        }
    });

    driver_thread = std::thread([&]() { driver.run(); });

    auto mark = [&]() {
        CpuMark m;
        m.wallNs = nowNs();
        m.processNs = processCpuNs();
        m.mainNs = threadCpuNs();
        m.loopNs = threadCpuNs(loop.native_handle());
        m.driverNs = threadCpuNs(driver_thread.native_handle());
        m.host = readHostCpu();
        return m;
    };

    measureWindow(cfg, stack, phase, stage, progress, loop_start, mark);
    stop();
    phase.loopSeconds = static_cast<double>(nowNs() - loop_start) * 1e-9;
    phase.server = server.stats();
    phase.table = server.clientTable().stats();
    absorb(phase, driver.result());

    // Server-side accounting must agree with what the client saw.
    const net::UdpServerStats &total = phase.server;
    uint64_t answered = 0;
    for (uint64_t r : total.responses)
        answered += r;
    const Outcome &o = phase.outcome;
    if (total.malformedTotal() != 0)
        phase.violations.push_back("server saw malformed requests");
    if (total.wellFormed != o.sent || answered != total.wellFormed ||
        total.responsesSent != answered || total.sendErrors != 0)
        phase.violations.push_back(
            "server accounting mismatch: sent " + std::to_string(o.sent) +
            ", well-formed " + std::to_string(total.wellFormed) +
            ", answered " + std::to_string(answered) + ", sent back " +
            std::to_string(total.responsesSent));
    uint64_t srv_ok = total.responses[static_cast<size_t>(net::Status::Ok)];
    uint64_t srv_partial =
        total.responses[static_cast<size_t>(net::Status::Partial)];
    if (srv_ok != o.ok || srv_partial != o.partial ||
        total.deniesTotal() != o.denied)
        phase.violations.push_back("status counts differ between "
                                   "server and client");
}

void
runInproc(const PhaseConfig &cfg, Stack &stack, PhaseResult &phase,
          std::vector<std::vector<uint8_t>> &first_bytes,
          size_t capture_bytes)
{
    service::EntropyService &service = *stack.service;
    std::vector<service::EntropyService::Client> clients;
    for (size_t i = 0; i < kInprocClients; ++i)
        clients.push_back(service.connect("inproc-" + std::to_string(i),
                                          service::Priority::Standard,
                                          i));
    first_bytes.assign(kInprocClients, {});

    std::atomic<int> stage{kWarmup};
    Progress progress;
    std::vector<DriverResult> results(kInprocClients);
    std::vector<std::thread> threads;
    auto stop = [&]() {
        stage.store(kDrain, std::memory_order_release);
        for (std::thread &t : threads) {
            if (t.joinable())
                t.join();
        }
        service.stopAutoRefill();
    };
    Finally stop_on_exit(stop);
    service.startAutoRefill(kRefillPeriod);
    int64_t start = nowNs() + 1'000'000;
    for (size_t i = 0; i < kInprocClients; ++i)
        threads.emplace_back([&, i]() {
            pinThread(kLoadCpuSlot + i);
            inprocClient(clients[i], start, cfg.seconds, stage, progress,
                         cfg.tracer, i,
                         first_bytes[i], capture_bytes, results[i]);
        });

    auto mark = [&]() {
        CpuMark m;
        m.wallNs = nowNs();
        m.processNs = processCpuNs();
        m.mainNs = threadCpuNs();
        for (std::thread &t : threads)
            m.driverNs += threadCpuNs(t.native_handle());
        pthread_t refill;
        for (const auto &timed : stack.timed) {
            if (timed->refillThread(refill)) {
                m.refillNs = threadCpuNs(refill);
                break;
            }
        }
        m.host = readHostCpu();
        return m;
    };

    measureWindow(cfg, stack, phase, stage, progress, start, mark);
    stop();
    for (DriverResult &r : results)
        absorb(phase, r);
}

} // anonymous namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::Keys, Workload::Bulk, Workload::Inproc}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::Keys: return "keys";
    case Workload::Bulk: return "bulk";
    case Workload::Inproc: return "inproc";
    }
    return "?";
}

uint32_t
requestBytes(Workload workload)
{
    switch (workload) {
    case Workload::Keys: return 32;
    case Workload::Bulk: return static_cast<uint32_t>(net::kMaxPayloadBytes);
    case Workload::Inproc: return 64;
    }
    return 0;
}

ServiceCounters
ServiceCounters::read(const Stack &stack)
{
    const service::EntropyService &service = *stack.service;
    ServiceCounters c;
    c.requests = service.requestsServed();
    c.hits = service.bufferHits();
    c.syncFills = service.synchronousFills();
    c.denials = service.denials();
    c.bytesRefilled = service.bytesRefilled();
    c.quarantines = service.healthStats().quarantines;
    if (const service::HealthMonitor *monitor = service.healthMonitor()) {
        for (const service::BankScore &score : monitor->scores())
            c.healthWindows += score.windowsTested;
    }
    for (const auto &timed : stack.timed)
        c.iterations += timed->iterations();
    return c;
}

ServiceCounters
ServiceCounters::operator-(const ServiceCounters &base) const
{
    ServiceCounters d;
    d.requests = requests - base.requests;
    d.hits = hits - base.hits;
    d.syncFills = syncFills - base.syncFills;
    d.denials = denials - base.denials;
    d.bytesRefilled = bytesRefilled - base.bytesRefilled;
    d.healthWindows = healthWindows - base.healthWindows;
    d.quarantines = quarantines - base.quarantines;
    d.iterations = iterations - base.iterations;
    return d;
}

PhaseResult
runPhase(const PhaseConfig &cfg, Stack &stack,
         std::vector<std::vector<uint8_t>> &first_bytes,
         size_t capture_bytes)
{
    PhaseResult phase;
    phase.workload = cfg.workload;
    phase.traced = cfg.tracer != nullptr;
    phase.setupSeconds = stack.setupSeconds;
    if (cfg.workload == Workload::Inproc)
        runInproc(cfg, stack, phase, first_bytes, capture_bytes);
    else
        runUdp(cfg, stack, phase);

    phase.unhealthyBytesServed =
        stack.service->healthStats().unhealthyBytesServed;
    if (phase.unhealthyBytesServed != 0)
        phase.violations.push_back(
            std::to_string(phase.unhealthyBytesServed) +
            " unhealthy bytes served");
    if (!phase.outcome.balanced())
        phase.violations.push_back("sent != ok + partial + denied + lost");
    std::sort(phase.latencyUs.begin(), phase.latencyUs.end());
    std::sort(phase.lateUs.begin(), phase.lateUs.end());
    if (cfg.tracer != nullptr)
        phase.spans = cfg.tracer->collect();
    return phase;
}

} // namespace e2e
