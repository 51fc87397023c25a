/**
 * @file
 * Standalone UDP entropy server: the sharded EntropyService behind
 * the epoll front end, servable with any UDP client that speaks the
 * 32-byte wire protocol (net/wire.hh) — the bundled load generator
 * (`net_loadgen`) or a few lines of Python.
 *
 * Backends are deterministic SoftwareTrng generators by default so
 * the example runs anywhere instantly; pass --modules N to stand up
 * N full QUAC-TRNG module models instead (slower start, real
 * pipeline). The server starts the service's refill producer, which
 * generates on a thread of its own (it inherits this process's CPU
 * set, unpinned), so the serving loop answers from the shard
 * buffers. It prints the bound port (--port 0 picks an
 * ephemeral one), serves until SIGINT/SIGTERM, then prints the full
 * wire/service accounting: every well-formed request is either an
 * OK/PARTIAL serve or an explicit DENY — the final table proves it.
 *
 * Flags:
 *   --port P          UDP port (default 9876; 0 = ephemeral)
 *   --bind A          bind address (default 127.0.0.1)
 *   --backends N      SoftwareTrng backends/shards (default 4)
 *   --modules N       use N QUAC-TRNG module models instead
 *   --batch N         messages per recvmmsg/sendmmsg (default 16)
 *   --clients N       wire-client table capacity (default 4096)
 *   --client-rate B   per-client pacing, payload bytes/s (0 = off)
 *   --global-rate B   global serve cap, payload bytes/s (0 = off)
 *   --slo-ns S        enable SLO admission with this interactive p99
 *                     (no effect on the wire yet: wire requests carry
 *                     no arrival time, so no latency sample reaches
 *                     the gate and every connect is admitted)
 *   --quiet           skip the per-second status line
 */

#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "core/fault_injection.hh"
#include "core/trng.hh"
#include "dram/catalog.hh"
#include "net/udp_server.hh"
#include "service/entropy_service.hh"

using namespace quac;

namespace
{

net::UdpServer *g_server = nullptr;

void
onSignal(int)
{
    if (g_server != nullptr)
        g_server->stop(); // one eventfd write; async-signal-safe
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"port", "bind", "backends", "modules", "batch",
                  "clients", "client-rate", "global-rate", "slo-ns",
                  "quiet"});

    size_t nmodules = args.getUint("modules", 0);
    size_t nbackends = args.getUint("backends", 4);
    bool quiet = args.getBool("quiet");

    std::vector<std::unique_ptr<dram::DramModule>> modules;
    std::vector<std::unique_ptr<core::QuacTrng>> trngs;
    std::vector<std::unique_ptr<core::SoftwareTrng>> soft;
    std::vector<core::Trng *> backends;
    if (nmodules > 0) {
        std::printf("Standing up %zu QUAC-TRNG modules...\n",
                    nmodules);
        for (size_t m = 0; m < nmodules; ++m) {
            dram::ModuleSpec spec =
                dram::specFor(dram::paperCatalog()[m % 5],
                              dram::Geometry::testScale());
            spec.seed += m;
            modules.push_back(std::make_unique<dram::DramModule>(
                std::move(spec)));
            // Test-scale rows hold less entropy than the paper-scale
            // 256-bit SIB target; scale the target with the row.
            core::QuacTrngConfig tcfg;
            tcfg.sibEntropyTarget = 24.0;
            tcfg.characterizeStride = 4;
            auto trng = std::make_unique<core::QuacTrng>(
                *modules.back(), tcfg);
            trng->setup();
            backends.push_back(trng.get());
            trngs.push_back(std::move(trng));
        }
    } else {
        for (size_t b = 0; b < nbackends; ++b) {
            soft.push_back(std::make_unique<core::SoftwareTrng>(
                1 + b, "sw" + std::to_string(b)));
            backends.push_back(soft.back().get());
        }
    }

    service::EntropyServiceConfig scfg;
    scfg.shardCapacityBytes = 64 * 1024;
    scfg.placement = service::PlacementPolicy::LeastLoaded;
    double slo_ns = args.getDouble("slo-ns", 0.0);
    if (slo_ns > 0.0) {
        scfg.admission.enabled = true;
        scfg.admission.interactiveSloNs = slo_ns;
    }
    service::EntropyService service(backends, scfg);

    net::UdpServerConfig ucfg;
    ucfg.bindAddress = args.getString("bind", "127.0.0.1");
    ucfg.port = static_cast<uint16_t>(args.getUint("port", 9876));
    ucfg.batchMessages =
        static_cast<unsigned>(args.getUint("batch", 16));
    ucfg.table.capacity = args.getUint("clients", 4096);
    ucfg.table.perClientBytesPerSec =
        args.getDouble("client-rate", 0.0);
    ucfg.globalBytesPerSec = args.getDouble("global-rate", 0.0);
    net::UdpServer server(service, ucfg);

    g_server = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::printf("udp_entropy_server listening on %s:%u "
                "(%zu backends, batch %u)\n",
                ucfg.bindAddress.c_str(), server.port(),
                backends.size(), ucfg.batchMessages);
    std::fflush(stdout);

    std::atomic<bool> done{false};
    std::thread status;
    if (!quiet) {
        status = std::thread([&] {
            uint64_t last = 0;
            // relaxed: shutdown flag; no data is published through it.
            while (!done.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::seconds(1));
                // Single-threaded loop owns the stats; this reads a
                // monotonically-growing counter, good enough for a
                // status line.
                uint64_t now = server.stats().wellFormed;
                if (now != last) {
                    std::printf("  %" PRIu64 " req/s\n", now - last);
                    std::fflush(stdout);
                    last = now;
                }
            }
        });
    }

    server.run();
    // relaxed: shutdown flag; the join below synchronizes.
    done.store(true, std::memory_order_relaxed);
    if (status.joinable())
        status.join();

    const net::UdpServerStats &stats = server.stats();
    std::printf("\nShut down. Accounting:\n");
    std::printf("  datagrams received : %" PRIu64 "\n",
                stats.datagramsReceived);
    std::printf("  malformed (dropped): %" PRIu64 "\n",
                stats.malformedTotal());
    std::printf("  well-formed        : %" PRIu64 "\n",
                stats.wellFormed);
    std::printf("  responses sent     : %" PRIu64 "\n",
                stats.responsesSent);
    for (size_t s = 0; s < net::kStatusCount; ++s) {
        if (stats.responses[s] > 0)
            std::printf("    %-16s : %" PRIu64 "\n",
                        net::statusName(
                            static_cast<net::Status>(s)),
                        stats.responses[s]);
    }
    std::printf("  payload bytes      : %" PRIu64 "\n",
                stats.payloadBytesServed);
    uint64_t answered = 0;
    for (uint64_t r : stats.responses)
        answered += r;
    std::printf("  every well-formed request answered: %s\n",
                answered == stats.wellFormed ? "yes" : "NO");
    return answered == stats.wellFormed ? 0 : 1;
}
