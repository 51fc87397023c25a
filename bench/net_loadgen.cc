/**
 * @file
 * Measured loopback benchmark of the UDP entropy front end.
 *
 * Stands up a real UdpServer (in-process thread, ephemeral loopback
 * port) over an EntropyService backed by deterministic SoftwareTrng
 * generators — fast generators on purpose, so the numbers measure
 * the network path (epoll + recvmmsg/sendmmsg + wire handling +
 * zero-copy serve), not generator compute — and drives it with the
 * open-loop load generator.
 *
 * Each row also records the share of requests the service served
 * from its shard buffers (service_hit_ratio): the server's refill
 * producer, not the serving loop, should generate the bytes.
 *
 * Two sweeps, both measured (never modelled):
 *   - client scale: 1k / 10k / 100k simulated wire clients at a
 *     fixed syscall batch, reporting requests/s and p50/p95/p99
 *     wall-clock latency;
 *   - syscall batch: 1 vs 16 vs 64 messages per recvmmsg/sendmmsg
 *     at a fixed scale, quantifying the batching speedup.
 *
 * Writes BENCH_net.json (--json <path>). The numbers depend on the
 * host — this container pins everything to little CPU — so the JSON
 * records the core count; see README "Network front end" for the
 * >= 4-core re-measurement procedure.
 *
 * Flags: --quick (CI-sized run), --requests N, --rate R (req/s),
 * --bytes B, --json PATH.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "core/fault_injection.hh"
#include "net/loadgen.hh"
#include "net/udp_server.hh"
#include "service/entropy_service.hh"
#include "util.hh"

using namespace quac;

namespace
{

struct RunSpec
{
    std::string label;
    uint64_t clients = 0;
    unsigned batch = 0;
    uint64_t requests = 0;
    double ratePerSec = 0.0;
    uint32_t requestBytes = 0;
};

struct RunRow
{
    RunSpec spec;
    net::LoadGenResult result;
    uint64_t serverRecvCalls = 0;
    uint64_t serverSendCalls = 0;
    /** Requests served from the shard buffers / requests served. */
    double serviceHitRatio = 0.0;
};

/** One measured server+loadgen run over loopback. */
RunRow
runOnce(const RunSpec &spec, uint64_t seed)
{
    // Four fast deterministic backends -> four shards; chunk 256
    // keeps the refill path off the per-request critical path.
    std::vector<std::unique_ptr<core::SoftwareTrng>> backends;
    std::vector<core::Trng *> raw;
    for (uint64_t b = 0; b < 4; ++b) {
        backends.push_back(std::make_unique<core::SoftwareTrng>(
            seed + b, "sw" + std::to_string(b), 256));
        raw.push_back(backends.back().get());
    }
    service::EntropyServiceConfig scfg;
    scfg.shardCapacityBytes = 64 * 1024;
    scfg.placement = service::PlacementPolicy::LeastLoaded;
    service::EntropyService service(raw, scfg);

    net::UdpServerConfig ucfg;
    ucfg.batchMessages = spec.batch;
    ucfg.table.capacity = 1 << 17; // hold every simulated client
    net::UdpServer server(service, ucfg);

    std::thread loop([&server] { server.run(); });

    net::LoadGenConfig lcfg;
    lcfg.port = server.port();
    lcfg.clients = spec.clients;
    lcfg.requests = spec.requests;
    lcfg.ratePerSec = spec.ratePerSec;
    lcfg.requestBytes = spec.requestBytes;
    lcfg.batchMessages = spec.batch;
    lcfg.seed = seed;
    RunRow row;
    row.spec = spec;
    row.result = net::runLoadGen(lcfg);

    server.stop();
    loop.join();
    row.serverRecvCalls = server.stats().recvCalls;
    row.serverSendCalls = server.stats().sendCalls;
    uint64_t served = service.requestsServed();
    row.serviceHitRatio =
        served > 0 ? static_cast<double>(service.bufferHits()) /
                         static_cast<double>(served)
                   : 0.0;
    return row;
}

void
printRow(const RunRow &row)
{
    std::printf(
        "  %-14s clients %6" PRIu64 "  batch %2u  sent %7" PRIu64
        "  rcvd %7" PRIu64 "  lost %3" PRIu64
        "  %8.0f req/s  p50 %6.1f us  p95 %6.1f us  p99 %6.1f us"
        "  hits %.3f\n",
        row.spec.label.c_str(), row.spec.clients, row.spec.batch,
        row.result.sent, row.result.received, row.result.lost,
        row.result.achievedRps,
        static_cast<double>(row.result.p50Ns) * 1e-3,
        static_cast<double>(row.result.p95Ns) * 1e-3,
        static_cast<double>(row.result.p99Ns) * 1e-3,
        row.serviceHitRatio);
}

void
writeRowJson(std::FILE *f, const RunRow &row, bool last)
{
    std::fprintf(
        f,
        "    {\"label\": \"%s\", \"clients\": %" PRIu64
        ", \"batch\": %u, \"requests\": %" PRIu64
        ", \"offered_rps\": %.0f, \"sent\": %" PRIu64
        ", \"received\": %" PRIu64 ", \"lost\": %" PRIu64
        ", \"ok\": %" PRIu64 ", \"denied\": %" PRIu64
        ", \"achieved_rps\": %.1f, \"p50_ns\": %" PRIu64
        ", \"p95_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"max_ns\": %" PRIu64 ", \"server_recv_calls\": %" PRIu64
        ", \"server_send_calls\": %" PRIu64
        ", \"service_hit_ratio\": %.4f}%s\n",
        row.spec.label.c_str(), row.spec.clients, row.spec.batch,
        row.spec.requests, row.result.offeredRps, row.result.sent,
        row.result.received, row.result.lost, row.result.okCount(),
        row.result.denyCount(), row.result.achievedRps,
        row.result.p50Ns, row.result.p95Ns, row.result.p99Ns,
        row.result.maxNs, row.serverRecvCalls, row.serverSendCalls,
        row.serviceHitRatio, last ? "" : ",");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"quick", "requests", "rate", "bytes", "json"});
    bool quick = args.getBool("quick");
    uint64_t requests =
        args.getUint("requests", quick ? 20000 : 100000);
    double rate = args.getDouble("rate", quick ? 40000.0 : 80000.0);
    uint32_t bytes =
        static_cast<uint32_t>(args.getUint("bytes", 64));
    std::string json_path = args.getString("json");

    benchutil::printExperimentHeader(
        "net_loadgen: measured UDP front-end loopback benchmark",
        "system layer (no paper figure): epoll + batched syscalls "
        "over the sharded entropy service",
        std::to_string(requests) + " requests/run at " +
            std::to_string(static_cast<uint64_t>(rate)) +
            " req/s offered, " +
            std::to_string(std::thread::hardware_concurrency()) +
            " cores");

    // Sweep 1: client scale at the default batch of 16.
    std::vector<RunRow> scale_rows;
    std::printf("\nClient-scale sweep (batch 16):\n");
    for (uint64_t clients : {1000ull, 10000ull, 100000ull}) {
        RunSpec spec;
        spec.label = "scale";
        spec.clients = clients;
        spec.batch = 16;
        spec.requests = requests;
        spec.ratePerSec = rate;
        spec.requestBytes = bytes;
        scale_rows.push_back(runOnce(spec, 7 + clients));
        printRow(scale_rows.back());
    }

    // Sweep 2: messages per syscall at 10k clients.
    std::vector<RunRow> batch_rows;
    std::printf("\nSyscall-batch sweep (10k clients):\n");
    for (unsigned batch : {1u, 16u, 64u}) {
        RunSpec spec;
        spec.label = "batch";
        spec.clients = 10000;
        spec.batch = batch;
        spec.requests = requests;
        spec.ratePerSec = rate;
        spec.requestBytes = bytes;
        batch_rows.push_back(runOnce(spec, 100 + batch));
        printRow(batch_rows.back());
    }

    // The batching win, measured: syscalls saved and the tail-latency
    // ratio of batch=1 over batch=64 at the same offered load.
    const RunRow &b1 = batch_rows.front();
    const RunRow &b64 = batch_rows.back();
    double syscall_ratio =
        b64.serverRecvCalls > 0
            ? static_cast<double>(b1.serverRecvCalls) /
                  static_cast<double>(b64.serverRecvCalls)
            : 0.0;
    double p99_ratio =
        b64.result.p99Ns > 0
            ? static_cast<double>(b1.result.p99Ns) /
                  static_cast<double>(b64.result.p99Ns)
            : 0.0;
    std::printf("\nBatching speedup (batch 1 -> 64): %.1fx fewer "
                "recv syscalls, p99 ratio %.2fx\n",
                syscall_ratio, p99_ratio);

    bool lost_any = false;
    for (const std::vector<RunRow> *rows : {&scale_rows, &batch_rows})
        for (const RunRow &row : *rows)
            lost_any = lost_any || row.result.lost > 0 ||
                       row.result.sent !=
                           row.result.received + row.result.lost;

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "net_loadgen: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n  \"requests_per_run\": %" PRIu64
                     ",\n  \"offered_rps\": %.0f,\n"
                     "  \"request_bytes\": %u,\n"
                     "  \"hardware_concurrency\": %u,\n",
                     requests, rate, bytes,
                     std::thread::hardware_concurrency());
        std::fprintf(f, "  \"client_scale_sweep\": [\n");
        for (size_t i = 0; i < scale_rows.size(); ++i)
            writeRowJson(f, scale_rows[i],
                         i + 1 == scale_rows.size());
        std::fprintf(f, "  ],\n  \"syscall_batch_sweep\": [\n");
        for (size_t i = 0; i < batch_rows.size(); ++i)
            writeRowJson(f, batch_rows[i],
                         i + 1 == batch_rows.size());
        std::fprintf(f,
                     "  ],\n  \"batch_1_to_64_recv_syscall_ratio\": "
                     "%.2f,\n  \"batch_1_to_64_p99_ratio\": %.2f,\n"
                     "  \"all_requests_accounted\": %s\n}\n",
                     syscall_ratio, p99_ratio,
                     lost_any ? "false" : "true");
        std::fclose(f);
        std::printf("Wrote %s\n", json_path.c_str());
    }

    if (lost_any) {
        std::printf("FAIL: well-formed requests lost\n");
        return 1;
    }
    std::printf("PASS: every request accounted (response or "
                "counted loss = 0)\n");
    return 0;
}
