#include "net/udp_server.hh"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hh"

namespace quac::net
{

namespace
{

/** SO_RCVBUF / SO_SNDBUF request in bytes. */
constexpr int kSocketBufferBytes = 1 << 21;

uint64_t
monotonicNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

service::Priority
wirePriority(uint8_t priority)
{
    switch (priority) {
    case 0: return service::Priority::Interactive;
    case 1: return service::Priority::Standard;
    default: return service::Priority::Bulk;
    }
}

} // anonymous namespace

UdpServer::UdpServer(service::EntropyService &service,
                     UdpServerConfig cfg)
    : service_(service), cfg_(std::move(cfg)),
      table_(service, cfg_.table),
      global_(cfg_.globalBytesPerSec, cfg_.globalBytesPerSec)
{
    if (cfg_.batchMessages < 1 ||
        cfg_.batchMessages > kMaxBatchMessages)
        fatal("batchMessages must be in [1, %u], got %u",
              kMaxBatchMessages, cfg_.batchMessages);
    if (cfg_.idleTimeoutMs <= 0)
        fatal("idleTimeoutMs must be > 0");

    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0)
        fatal("socket: %s", std::strerror(errno));
    // Best-effort: the kernel clamps to rmem_max/wmem_max; a smaller
    // buffer only means earlier backpressure, which the explicit-DENY
    // path already handles.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufferBytes,
                 sizeof(kSocketBufferBytes));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufferBytes,
                 sizeof(kSocketBufferBytes));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.bindAddress.c_str(),
                    &addr.sin_addr) != 1)
        fatal("bad bind address '%s'", cfg_.bindAddress.c_str());
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("bind %s:%u: %s", cfg_.bindAddress.c_str(),
              cfg_.port, std::strerror(errno));
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0)
        fatal("getsockname: %s", std::strerror(errno));
    port_ = ntohs(addr.sin_port);

    wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wakeFd_ < 0)
        fatal("eventfd: %s", std::strerror(errno));
    epollFd_ = ::epoll_create1(0);
    if (epollFd_ < 0)
        fatal("epoll_create1: %s", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd_, &ev) != 0)
        fatal("epoll_ctl(socket): %s", std::strerror(errno));
    ev.data.fd = wakeFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0)
        fatal("epoll_ctl(eventfd): %s", std::strerror(errno));

    // Fixed-size I/O state, allocated once: the serve loop itself
    // never allocates.
    unsigned batch = cfg_.batchMessages;
    rxBuffers_.resize(batch * kRxSlotBytes);
    rxAddrs_.resize(batch);
    rxIovecs_.resize(batch);
    rxMsgs_.resize(batch);
    txSlotBytes_ = kResponseHeaderBytes + kMaxPayloadBytes;
    txBuffers_.resize(batch * txSlotBytes_);
    txAddrs_.resize(batch);
    txIovecs_.resize(batch);
    txMsgs_.resize(batch);
    for (unsigned i = 0; i < batch; ++i) {
        rxIovecs_[i] = {rxBuffers_.data() + i * kRxSlotBytes,
                        kRxSlotBytes};
        std::memset(&rxMsgs_[i], 0, sizeof(rxMsgs_[i]));
        rxMsgs_[i].msg_hdr.msg_name = &rxAddrs_[i];
        rxMsgs_[i].msg_hdr.msg_namelen = sizeof(rxAddrs_[i]);
        rxMsgs_[i].msg_hdr.msg_iov = &rxIovecs_[i];
        rxMsgs_[i].msg_hdr.msg_iovlen = 1;
        txIovecs_[i] = {txBuffers_.data() + i * txSlotBytes_, 0};
        std::memset(&txMsgs_[i], 0, sizeof(txMsgs_[i]));
        txMsgs_[i].msg_hdr.msg_name = &txAddrs_[i];
        txMsgs_[i].msg_hdr.msg_namelen = sizeof(txAddrs_[i]);
        txMsgs_[i].msg_hdr.msg_iov = &txIovecs_[i];
        txMsgs_[i].msg_hdr.msg_iovlen = 1;
    }

    // Last, once nothing above can fail: generation runs on the
    // producer, so the loop serves from the buffers.
    if (!service_.autoRefillRunning()) {
        service_.startAutoRefill(
            std::chrono::milliseconds(cfg_.idleTimeoutMs));
        startedProducer_ = true;
    }
}

UdpServer::~UdpServer()
{
    if (startedProducer_)
        service_.stopAutoRefill();
    if (epollFd_ >= 0)
        ::close(epollFd_);
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
UdpServer::stop()
{
    // One write, async-signal-safe: usable straight from a SIGINT
    // handler. The loop reads the eventfd and returns.
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

bool
UdpServer::handleDatagram(unsigned i, unsigned slot, uint64_t now_ns)
{
    size_t len = rxMsgs_[i].msg_len;
    const uint8_t *data = rxBuffers_.data() + i * kRxSlotBytes;

    // Malformed traffic is classified and dropped before the client
    // table or any shard state is touched: no allocation, no
    // service-side effect, no response. A datagram the rx slot had
    // to truncate is oversized by definition.
    Request request;
    ParseError err =
        (rxMsgs_[i].msg_hdr.msg_flags & MSG_TRUNC) != 0
            ? ParseError::Oversized
            : parseRequest(data, len, request);
    if (err != ParseError::None) {
        ++stats_.malformed[static_cast<size_t>(err)];
        return false;
    }
    ++stats_.wellFormed;

    // From here on every outcome is a response: overload and
    // rejection are explicit DENY statuses, never silence.
    uint8_t *tx = txBuffers_.data() + slot * txSlotBytes_;
    uint8_t *payload = tx + kResponseHeaderBytes;
    Status status = Status::Ok;
    uint32_t payload_bytes = 0;

    if (request.bytes > kMaxPayloadBytes) {
        status = Status::DenyOversized;
    } else {
        service::ClientTable::Acquire acquired = table_.acquire(
            request.clientId, wirePriority(request.priority));
        switch (acquired.status) {
        case service::ClientTable::AcquireStatus::Denied:
            status = Status::DenyAdmission;
            break;
        case service::ClientTable::AcquireStatus::Queued:
            status = Status::DenyBusy;
            break;
        case service::ClientTable::AcquireStatus::Existing:
        case service::ClientTable::AcquireStatus::Created: {
            service::ClientTable::Entry &entry = *acquired.entry;
            double bytes = static_cast<double>(request.bytes);
            if (table_.checkNonce(entry, request.nonce) ==
                service::ClientTable::NonceCheck::Replay) {
                // Duplicate or reordered stale datagram: answered
                // (so nothing is silent) but never served — a
                // replayed request must not drain fresh entropy.
                status = Status::DenyReplay;
            } else if (!entry.bucket.tryTake(bytes, now_ns)) {
                status = Status::DenyThrottled;
            } else if (!global_.tryTake(bytes, now_ns)) {
                // Refund the per-client take: the client should
                // not also lose private budget to a global cap.
                entry.bucket.credit(bytes);
                status = Status::DenyGlobal;
            } else {
                // Zero-copy serve: buffered bytes are claimed off
                // the lock-free shard ring straight into the
                // response datagram.
                service::RequestResult result =
                    entry.client.serveInto(payload, request.bytes);
                payload_bytes =
                    static_cast<uint32_t>(result.bytes);
                if (payload_bytes < request.bytes) {
                    // Both caps meter served payload: give back
                    // what a PARTIAL or DENY_SERVICE answer did
                    // not carry.
                    double unserved = bytes - payload_bytes;
                    entry.bucket.credit(unserved);
                    global_.credit(unserved);
                }
                if (result.denied)
                    status = Status::DenyService;
                else if (result.bytes < request.bytes)
                    status = Status::Partial;
                else
                    status = Status::Ok;
            }
            break;
        }
        }
    }

    encodeResponseHeader(tx, status, request.clientId, request.nonce,
                         payload_bytes);
    txIovecs_[slot].iov_len = kResponseHeaderBytes + payload_bytes;
    txAddrs_[slot] = rxAddrs_[i];
    txMsgs_[slot].msg_hdr.msg_namelen = rxMsgs_[i].msg_hdr.msg_namelen;
    ++stats_.responses[static_cast<size_t>(status)];
    stats_.payloadBytesServed += payload_bytes;
    return true;
}

void
UdpServer::flushSend(unsigned count)
{
    unsigned sent = 0;
    while (sent < count) {
        int n = ::sendmmsg(fd_, txMsgs_.data() + sent, count - sent,
                           0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == ENOBUFS) {
                // Socket buffer full: wait for writability and
                // retry. Backpressure stalls the loop (we stop
                // reading new requests until these responses are
                // out) — bounded memory, zero silent drops.
                ++stats_.sendRetries;
                pollfd pfd{fd_, POLLOUT, 0};
                ::poll(&pfd, 1, 100);
                continue;
            }
            // Hard error for this destination (e.g. an unreachable
            // route). Skip the one message so one poisoned address
            // cannot livelock the loop; the gap is counted, not
            // hidden.
            ++stats_.sendErrors;
            ++sent;
            continue;
        }
        ++stats_.sendCalls;
        stats_.responsesSent += static_cast<uint64_t>(n);
        sent += static_cast<unsigned>(n);
    }
}

unsigned
UdpServer::processBatch(unsigned count, uint64_t now_ns)
{
    unsigned queued = 0;
    for (unsigned i = 0; i < count; ++i) {
        if (handleDatagram(i, queued, now_ns))
            ++queued;
    }
    if (queued > 0)
        flushSend(queued);
    return queued;
}

size_t
UdpServer::serveReady()
{
    size_t total = 0;
    for (;;) {
        int n = ::recvmmsg(fd_, rxMsgs_.data(), cfg_.batchMessages,
                           MSG_DONTWAIT, nullptr);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN: drained
        }
        if (n == 0)
            break;
        ++stats_.recvCalls;
        stats_.datagramsReceived += static_cast<uint64_t>(n);
        processBatch(static_cast<unsigned>(n), monotonicNs());
        total += static_cast<size_t>(n);
        if (static_cast<unsigned>(n) < cfg_.batchMessages)
            break; // short batch: socket is (momentarily) drained
    }
    // Serve rounds can release queued admissions too (headroom may
    // have recovered); keep the control loop moving even when the
    // server never goes idle.
    table_.pump();
    return total;
}

void
UdpServer::idleTick()
{
    ++stats_.idleWakeups;
    table_.pump();
}

size_t
UdpServer::poll(int timeout_ms)
{
    stopRequested_ = false;
    epoll_event events[4];
    int n = ::epoll_wait(epollFd_, events, 4, timeout_ms);
    if (n < 0) {
        if (errno != EINTR)
            fatal("epoll_wait: %s", std::strerror(errno));
        return 0;
    }
    if (n == 0) {
        idleTick();
        return 0;
    }
    size_t served = 0;
    for (int e = 0; e < n; ++e) {
        if (events[e].data.fd == wakeFd_) {
            uint64_t drained;
            while (::read(wakeFd_, &drained, sizeof(drained)) > 0) {
            }
            stopRequested_ = true;
        } else if ((events[e].events & EPOLLIN) != 0) {
            served += serveReady();
        }
    }
    return served;
}

void
UdpServer::run()
{
    stopRequested_ = false;
    while (!stopRequested_)
        poll(cfg_.idleTimeoutMs);
}

} // namespace quac::net
