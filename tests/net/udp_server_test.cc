/**
 * @file
 * Loopback tests for the epoll UDP front end: byte-for-byte replay
 * identity against the direct service API, silence + zero service
 * effect for malformed datagrams, the full DENY taxonomy (replay,
 * oversized, throttled, global cap, bulk backpressure), the cap
 * refund of a partial serve, and the
 * every-well-formed-request-gets-exactly-one-response accounting
 * under an open-loop burst, recvmmsg batching of a queued backlog,
 * and the refill producer the server runs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.hh"
#include "crypto/sha256.hh"
#include "net/loadgen.hh"
#include "net/udp_server.hh"
#include "service/entropy_service.hh"

namespace quac::net
{
namespace
{

using service::EntropyService;
using service::EntropyServiceConfig;
using service::Priority;

EntropyServiceConfig
serviceConfig(size_t shards, size_t shard_bytes = 16 * 1024)
{
    EntropyServiceConfig cfg;
    cfg.shards = shards;
    cfg.shardCapacityBytes = shard_bytes;
    cfg.refillWatermark = 1.0;
    return cfg;
}

/** A server on an ephemeral loopback port with its own run() thread. */
struct ServerHarness
{
    std::vector<std::unique_ptr<core::SoftwareTrng>> backends;
    std::vector<core::Trng *> pool;
    std::unique_ptr<EntropyService> service;
    std::unique_ptr<UdpServer> server;
    std::thread thread;

    explicit ServerHarness(UdpServerConfig cfg = {},
                           size_t shards = 1, uint64_t seed = 700,
                           size_t shard_bytes = 16 * 1024)
    {
        for (size_t i = 0; i < shards; ++i) {
            backends.push_back(std::make_unique<core::SoftwareTrng>(
                seed + i, "wire" + std::to_string(i)));
            pool.push_back(backends.back().get());
        }
        service = std::make_unique<EntropyService>(
            pool, serviceConfig(shards, shard_bytes));
        server = std::make_unique<UdpServer>(*service, cfg);
        thread = std::thread([this] { server->run(); });
    }

    ~ServerHarness() { stop(); }

    /** Stop the loop and join; stats are safe to read after. */
    void
    stop()
    {
        if (thread.joinable()) {
            server->stop();
            thread.join();
        }
    }
};

TEST(UdpServer, NetworkStreamMatchesDirectServiceBytes)
{
    const std::vector<uint32_t> kSizes = {1,   16,   64,
                                          256, 1024, kMaxPayloadBytes};

    // Network path: every byte crosses the wire protocol, the client
    // table, and the zero-copy serveInto claim.
    ServerHarness harness;
    Sha256 net_hash;
    SyncClient client("127.0.0.1", harness.server->port(), 42);
    for (uint32_t size : kSizes) {
        SyncClient::Reply reply = client.request(size, /*standard*/ 1);
        ASSERT_TRUE(reply.received) << size;
        ASSERT_EQ(reply.status, Status::Ok) << size;
        ASSERT_EQ(reply.payload.size(), size);
        net_hash.update(reply.payload);
    }
    harness.stop();

    // Direct path: the same backend seed consumed through the
    // in-process client API.
    core::SoftwareTrng backend(700, "wire0");
    EntropyService direct({&backend}, serviceConfig(1));
    EntropyService::Client direct_client =
        direct.connect("direct", Priority::Standard);
    Sha256 direct_hash;
    for (uint32_t size : kSizes)
        direct_hash.update(direct_client.request(size));

    EXPECT_EQ(net_hash.finish(), direct_hash.finish());
}

TEST(UdpServer, MalformedDatagramsGetSilenceAndNoServiceEffect)
{
    ServerHarness harness;
    SyncClient client("127.0.0.1", harness.server->port(), 7);

    // A valid encoding to corrupt (never sent as-is: nonce 99 stays
    // unused so the later real request is fresh).
    uint8_t valid[kRequestBytes];
    Request probe;
    probe.clientId = 7;
    probe.nonce = 99;
    probe.bytes = 32;
    encodeRequest(valid, probe);

    uint8_t garbage[kRequestBytes + 1];
    std::memcpy(garbage, valid, kRequestBytes);

    // Truncated: first 8 bytes of a valid request.
    EXPECT_FALSE(client.sendRaw(valid, 8).received);
    // Oversized: one trailing byte.
    garbage[kRequestBytes] = 0;
    EXPECT_FALSE(client.sendRaw(garbage, sizeof(garbage)).received);
    // Bad magic.
    std::memcpy(garbage, valid, kRequestBytes);
    garbage[0] ^= 0xFF;
    EXPECT_FALSE(client.sendRaw(garbage, kRequestBytes).received);
    // Bad version.
    std::memcpy(garbage, valid, kRequestBytes);
    garbage[4] = kVersion + 1;
    EXPECT_FALSE(client.sendRaw(garbage, kRequestBytes).received);
    // Reserved bits set.
    std::memcpy(garbage, valid, kRequestBytes);
    garbage[6] = 1;
    EXPECT_FALSE(client.sendRaw(garbage, kRequestBytes).received);

    // The server is alive and the garbage consumed nothing: a real
    // request is served immediately.
    SyncClient::Reply reply = client.request(32);
    ASSERT_TRUE(reply.received);
    EXPECT_EQ(reply.status, Status::Ok);
    harness.stop();

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.datagramsReceived, 6u);
    EXPECT_EQ(stats.malformedTotal(), 5u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::Truncated)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::Oversized)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::BadMagic)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::BadVersion)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::BadReserved)], 1u);
    EXPECT_EQ(stats.wellFormed, 1u);
    EXPECT_EQ(stats.responsesSent, 1u);
    // Garbage reached neither the client table nor the service.
    EXPECT_EQ(harness.server->clientTable().stats().lookups, 1u);
    EXPECT_EQ(harness.server->clientTable().stats().inserts, 1u);
}

TEST(UdpServer, ReplayedNonceIsDeniedNotServed)
{
    ServerHarness harness;
    SyncClient client("127.0.0.1", harness.server->port(), 11);

    ASSERT_EQ(client.request(32).status, Status::Ok);
    // Replay the nonce just consumed: denied, no payload.
    client.setNextNonce(1);
    SyncClient::Reply replay = client.request(32);
    ASSERT_TRUE(replay.received);
    EXPECT_EQ(replay.status, Status::DenyReplay);
    EXPECT_TRUE(replay.payload.empty());
    // Jumping forward is served; the gap is recorded, not punished.
    client.setNextNonce(10);
    EXPECT_EQ(client.request(32).status, Status::Ok);
    harness.stop();

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.responses[size_t(Status::DenyReplay)], 1u);
    EXPECT_EQ(stats.responses[size_t(Status::Ok)], 2u);
    const service::ClientTable::Stats &table =
        harness.server->clientTable().stats();
    EXPECT_EQ(table.replays, 1u);
    EXPECT_EQ(table.nonceGaps, 1u);
    EXPECT_EQ(table.missingSeqs, 8u); // nonces 2..9
}

TEST(UdpServer, OversizedRequestsAreDeniedExplicitly)
{
    ServerHarness harness;
    SyncClient client("127.0.0.1", harness.server->port(), 3);

    SyncClient::Reply big = client.request(kMaxPayloadBytes + 1);
    ASSERT_TRUE(big.received);
    EXPECT_EQ(big.status, Status::DenyOversized);
    EXPECT_TRUE(big.payload.empty());
    SyncClient::Reply fits = client.request(kMaxPayloadBytes);
    ASSERT_TRUE(fits.received);
    EXPECT_EQ(fits.status, Status::Ok);
    EXPECT_EQ(fits.payload.size(), kMaxPayloadBytes);
}

TEST(UdpServer, RecvBatchesQueuedDatagrams)
{
    // With the loop parked, 64 requests pile up in the socket; one
    // poll() must drain them in batchMessages-sized recvmmsg calls.
    // This pins batching independently of load: when the loop keeps
    // up with its senders there is nothing to batch, so loadgen's
    // recv-syscall ratio alone cannot show it.
    constexpr unsigned kQueued = 64;
    for (unsigned batch : {1u, 16u, 64u}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        core::SoftwareTrng backend(800 + batch, "batch");
        EntropyService service({&backend}, serviceConfig(1));
        UdpServerConfig cfg;
        cfg.batchMessages = batch;
        UdpServer server(service, cfg);
        SyncClient client("127.0.0.1", server.port(), 9);
        for (unsigned i = 0; i < kQueued; ++i) {
            Request request;
            request.clientId = 9;
            request.nonce = i + 1;
            request.bytes = 16;
            uint8_t wire[kRequestBytes];
            encodeRequest(wire, request);
            // Timeout 0: queue the datagram, expect no answer yet.
            EXPECT_FALSE(
                client.sendRaw(wire, sizeof(wire), 0).received);
        }

        EXPECT_EQ(server.poll(0), kQueued);
        const UdpServerStats &stats = server.stats();
        EXPECT_EQ(stats.datagramsReceived, kQueued);
        EXPECT_EQ(stats.recvCalls, kQueued / batch);
        EXPECT_EQ(stats.responsesSent, kQueued);
    }
}

TEST(UdpServer, ProducerRefillsWithoutTheLoop)
{
    // Generation runs on the service's refill producer, which the
    // server starts: an empty service fills up with no poll() at
    // all, and the idle tick only counts its wakeup.
    constexpr size_t kShardBytes = 64 * 1024;
    core::SoftwareTrng first(900, "fill0");
    core::SoftwareTrng second(901, "fill1");
    EntropyService service({&first, &second},
                           serviceConfig(2, kShardBytes));
    ASSERT_EQ(service.totalLevel(), 0u);
    {
        UdpServer server(service, UdpServerConfig{});
        EXPECT_TRUE(service.autoRefillRunning());
        for (int spin = 0;
             spin < 10000 && service.totalLevel() < 2 * kShardBytes;
             ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(service.level(0), kShardBytes);
        EXPECT_EQ(service.level(1), kShardBytes);
        EXPECT_EQ(server.stats().idleWakeups, 0u);

        EXPECT_EQ(server.poll(0), 0u);
        EXPECT_EQ(server.stats().idleWakeups, 1u);
    }
    // The server stopped the producer it started...
    EXPECT_FALSE(service.autoRefillRunning());
    // ...and leaves running one that its owner started.
    service.startAutoRefill(std::chrono::milliseconds(2));
    {
        UdpServer server(service, UdpServerConfig{});
    }
    EXPECT_TRUE(service.autoRefillRunning());
    service.stopAutoRefill();
}

TEST(UdpServer, PerClientPacingThrottlesOnlyTheOffender)
{
    UdpServerConfig cfg;
    // The bucket holds 64 bytes; refill between requests is < 1 B.
    cfg.table.perClientBytesPerSec = 64.0;
    ServerHarness harness(cfg);

    SyncClient hog("127.0.0.1", harness.server->port(), 1);
    EXPECT_EQ(hog.request(64).status, Status::Ok);
    SyncClient::Reply throttled = hog.request(64);
    ASSERT_TRUE(throttled.received);
    EXPECT_EQ(throttled.status, Status::DenyThrottled);
    EXPECT_TRUE(throttled.payload.empty());

    // A different client has its own untouched bucket.
    SyncClient polite("127.0.0.1", harness.server->port(), 2);
    EXPECT_EQ(polite.request(64).status, Status::Ok);
}

TEST(UdpServer, GlobalCapDeniesWhenExhausted)
{
    UdpServerConfig cfg;
    // The bucket holds 64 bytes; refill between requests is < 1 B.
    cfg.globalBytesPerSec = 64.0;
    ServerHarness harness(cfg);

    SyncClient first("127.0.0.1", harness.server->port(), 1);
    EXPECT_EQ(first.request(64).status, Status::Ok);
    SyncClient second("127.0.0.1", harness.server->port(), 2);
    SyncClient::Reply denied = second.request(64);
    ASSERT_TRUE(denied.received);
    EXPECT_EQ(denied.status, Status::DenyGlobal);
    harness.stop();

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.responses[size_t(Status::Ok)], 1u);
    EXPECT_EQ(stats.responses[size_t(Status::DenyGlobal)], 1u);
    EXPECT_EQ(stats.payloadBytesServed, 64u);
}

TEST(UdpServer, BulkBackpressureAnswersPartial)
{
    // A 256-byte shard: even topped up by the producer it holds less
    // than the request.
    ServerHarness harness({}, 1, 700, 256);
    SyncClient client("127.0.0.1", harness.server->port(), 5);

    // Bulk never triggers a synchronous fill: a short shard answers
    // PARTIAL with whatever was buffered instead of blocking or
    // silently dropping.
    SyncClient::Reply reply = client.request(512, /*bulk*/ 2);
    ASSERT_TRUE(reply.received);
    EXPECT_EQ(reply.status, Status::Partial);
    EXPECT_LT(reply.payload.size(), 512u);
}

TEST(UdpServer, PartialServeRefundsUnservedBytes)
{
    // Both caps meter served payload. The global bucket holds 1,024
    // bytes; the 256-byte shard holds at most 512, so a 1,024-byte
    // bulk request is answered PARTIAL, and the bytes it did not
    // carry go back to the bucket to pay for the next request.
    UdpServerConfig cfg;
    cfg.globalBytesPerSec = 1024.0;
    ServerHarness harness(cfg, 1, 700, 256);

    SyncClient bulk("127.0.0.1", harness.server->port(), 5);
    SyncClient::Reply partial = bulk.request(1024, /*bulk*/ 2);
    ASSERT_TRUE(partial.received);
    EXPECT_EQ(partial.status, Status::Partial);
    EXPECT_LE(partial.payload.size(), 512u);

    SyncClient standard("127.0.0.1", harness.server->port(), 6);
    SyncClient::Reply ok = standard.request(512, /*standard*/ 1);
    ASSERT_TRUE(ok.received);
    EXPECT_EQ(ok.status, Status::Ok);
    harness.stop();

    EXPECT_EQ(harness.server->stats().payloadBytesServed,
              partial.payload.size() + ok.payload.size());
}

TEST(UdpServer, OverloadAccountingEveryRequestAnswered)
{
    // An open-loop burst from many clients against a deliberately
    // tight server: small table (forces evictions), per-client
    // pacing, and a low global cap. The contract under overload is
    // explicit denial — every well-formed request still gets exactly
    // one response.
    UdpServerConfig cfg;
    cfg.table.capacity = 64;
    cfg.table.perClientBytesPerSec = 4096.0;
    cfg.globalBytesPerSec = 64.0 * 1024.0;
    ServerHarness harness(cfg);

    LoadGenConfig load;
    load.port = harness.server->port();
    load.clients = 200;
    load.requests = 2000;
    load.ratePerSec = 20000.0;
    load.requestBytes = 64;
    load.priorityMix = {0.5, 0.5, 0.0};
    load.drainTimeoutMs = 2000;
    LoadGenResult result = runLoadGen(load);
    harness.stop();

    EXPECT_EQ(result.sent, 2000u);
    EXPECT_EQ(result.lost, 0u);
    EXPECT_EQ(result.unmatched, 0u);
    EXPECT_EQ(result.received, result.sent);
    EXPECT_EQ(result.okCount() + result.denyCount(), result.sent);
    EXPECT_GT(result.denyCount(), 0u) << "the cap never bit";

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.wellFormed, 2000u);
    EXPECT_EQ(stats.responsesSent, 2000u);
    EXPECT_EQ(stats.malformedTotal(), 0u);
    uint64_t answered =
        stats.responses[size_t(Status::Ok)] +
        stats.responses[size_t(Status::Partial)] +
        stats.deniesTotal();
    EXPECT_EQ(answered, stats.wellFormed);
    EXPECT_GT(harness.server->clientTable().stats().evictions, 0u);
}

} // namespace
} // namespace quac::net
