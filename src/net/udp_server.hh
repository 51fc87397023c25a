/**
 * @file
 * Single-threaded epoll UDP front end serving the sharded
 * EntropyService over the wire protocol in net/wire.hh.
 *
 * Modelled on janmojzis/pok's single-threaded poll loop: one
 * non-blocking socket, one event loop, no locks on the hot path. I/O
 * is batched — up to cfg.batchMessages datagrams per recvmmsg /
 * sendmmsg call, so the syscall cost amortizes across a backlog
 * (UdpServer.RecvBatchesQueuedDatagrams pins it) — and response
 * payloads are filled by EntropyService::Client::serveInto
 * straight into the outgoing datagram buffer: buffered entropy is
 * claimed off the lock-free shard ring directly into the packet, no
 * intermediate copy.
 *
 * Request handling per datagram:
 *   1. parse (reject malformed/truncated/oversized with zero
 *      allocation and zero service-side effect — no response:
 *      garbage gets nothing),
 *   2. resolve the wire client through the bounded LRU
 *      service::ClientTable (first contact admits through the
 *      service's SLO admission gate),
 *   3. nonce check (replays answered DENY_REPLAY, never served),
 *   4. pacing (per-client token bucket, then the global bytes/s
 *      cap; a rejected global charge refunds the per-client take),
 *   5. serve and respond (both caps meter served payload, so a
 *      PARTIAL or DENY_SERVICE answer refunds what it did not carry).
 * Every well-formed request gets exactly one response; overload is
 * an explicit DENY status, never a silent drop. Responses that hit
 * a full socket buffer are retried (poll on writability), not
 * dropped.
 *
 * Generation stays off the loop: the constructor starts the
 * service's refill producer (EntropyService::startAutoRefill, with
 * cfg.idleTimeoutMs as its longest sleep and health-tick period)
 * unless one already runs, so a loaded loop serves from the shard
 * buffers and only a request that outruns the producer fills
 * synchronously. The producer inherits the constructing thread's
 * CPU set, not the loop's.
 *
 * The loop is single-threaded by design. Only stop() may be called
 * from another thread (or a signal handler — it is one write() to
 * an eventfd); stats() is safe once the loop has returned or
 * between poll() steps.
 */

#ifndef QUAC_NET_UDP_SERVER_HH
#define QUAC_NET_UDP_SERVER_HH

#include <netinet/in.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/token_bucket.hh"
#include "net/wire.hh"
#include "service/client_table.hh"
#include "service/entropy_service.hh"

namespace quac::net
{

/** Upper bound on cfg.batchMessages (mmsghdr array size). */
constexpr unsigned kMaxBatchMessages = 64;

/** Server parameters. */
struct UdpServerConfig
{
    /** IPv4 address to bind. */
    std::string bindAddress = "127.0.0.1";
    /** UDP port; 0 binds an ephemeral port (see UdpServer::port). */
    uint16_t port = 0;
    /** Datagrams per recvmmsg/sendmmsg syscall (1..64). */
    unsigned batchMessages = 16;
    /** Wire-client table: capacity + per-client pacing. */
    service::ClientTableConfig table;
    /**
     * Global serve-rate cap in payload bytes/s (0 = uncapped); the
     * bucket holds one second of it.
     */
    double globalBytesPerSec = 0.0;
    /** Idle wakeup period in ms (the epoll timeout); also the refill
     * producer's period when this server starts it. */
    int idleTimeoutMs = 2;
};

/** Counters; single-threaded, read when the loop is parked. */
struct UdpServerStats
{
    uint64_t datagramsReceived = 0;
    /** Rejected before any service contact, by ParseError. */
    std::array<uint64_t, kParseErrorCount> malformed{};
    uint64_t wellFormed = 0;
    /** Responses by Status. */
    std::array<uint64_t, kStatusCount> responses{};
    uint64_t responsesSent = 0;
    uint64_t payloadBytesServed = 0;
    uint64_t recvCalls = 0;
    uint64_t sendCalls = 0;
    /** sendmmsg blocked on a full buffer and was retried. */
    uint64_t sendRetries = 0;
    /** Hard send errors (response unsendable and skipped). */
    uint64_t sendErrors = 0;
    uint64_t idleWakeups = 0;

    uint64_t malformedTotal() const
    {
        uint64_t total = 0;
        for (uint64_t m : malformed)
            total += m;
        return total;
    }
    uint64_t deniesTotal() const
    {
        uint64_t total = 0;
        for (size_t s = 0; s < kStatusCount; ++s) {
            if (isDeny(static_cast<Status>(s)))
                total += responses[s];
        }
        return total;
    }
};

/** The epoll front end. Construction binds; run()/poll() serve. */
class UdpServer
{
  public:
    /**
     * Create the socket, bind it, set up epoll, and start the
     * service's refill producer unless one already runs. Fatal on
     * any socket/bind failure (a server that cannot bind must not
     * look half-started). @p service must outlive the server.
     */
    UdpServer(service::EntropyService &service, UdpServerConfig cfg);

    UdpServer(const UdpServer &) = delete;
    UdpServer &operator=(const UdpServer &) = delete;

    /** Closes the sockets; stops the producer if this server
     * started it. */
    ~UdpServer();

    /** The bound UDP port (resolves cfg.port == 0). */
    uint16_t port() const { return port_; }

    /**
     * Serve until stop(). Blocks the calling thread; the loop
     * alternates epoll_wait, batched serve rounds, and (when idle)
     * admission ticks. Refill runs on the producer, not here.
     */
    void run();

    /**
     * One bounded loop step for callers that own the cadence
     * (tests, in-process harnesses): wait up to @p timeout_ms for
     * readiness, serve every ready batch, run the idle tick (count
     * the wakeup, pump the admission queue) on timeout. Returns
     * datagrams processed.
     */
    size_t poll(int timeout_ms);

    /**
     * Make run()/poll() return promptly. Async-signal-safe and
     * callable from any thread (one write to an eventfd).
     */
    void stop();

    /** True after stop(); reset by the next run()/poll(). */
    bool stopRequested() const { return stopRequested_; }

    const UdpServerStats &stats() const { return stats_; }
    const service::ClientTable &clientTable() const { return table_; }

  private:
    /** Drain the socket: recvmmsg+serve until EAGAIN. */
    size_t serveReady();
    /** Serve one received batch; returns responses queued. */
    unsigned processBatch(unsigned count, uint64_t now_ns);
    /** Handle rx slot @p i; encode into tx slot @p slot. Returns
     * true when a response was produced. */
    bool handleDatagram(unsigned i, unsigned slot, uint64_t now_ns);
    /** Send @p count queued responses; retries on EAGAIN. */
    void flushSend(unsigned count);
    /** Idle work: the admission pump. */
    void idleTick();

    service::EntropyService &service_;
    UdpServerConfig cfg_;
    service::ClientTable table_;
    TokenBucket global_;

    int fd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    uint16_t port_ = 0;
    bool stopRequested_ = false;
    /** This server started the refill producer (and stops it). */
    bool startedProducer_ = false;

    /** RX: header size + slack so an oversized datagram is seen as
     * oversized instead of silently truncated to a valid size. */
    static constexpr size_t kRxSlotBytes = kRequestBytes + 16;
    std::vector<uint8_t> rxBuffers_;
    std::vector<sockaddr_in> rxAddrs_;
    std::vector<iovec> rxIovecs_;
    std::vector<mmsghdr> rxMsgs_;

    /** TX: response header + payload, filled in place. */
    size_t txSlotBytes_ = 0;
    std::vector<uint8_t> txBuffers_;
    std::vector<sockaddr_in> txAddrs_;
    std::vector<iovec> txIovecs_;
    std::vector<mmsghdr> txMsgs_;

    UdpServerStats stats_;
};

} // namespace quac::net

#endif // QUAC_NET_UDP_SERVER_HH
