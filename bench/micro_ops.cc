/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot operations:
 * SHA-256 hashing, the batched sensing kernel, QUAC resolution, the
 * RowClone-init resolve with and without the saturation fast-path,
 * the entropy service's hit/miss/multi-client request paths,
 * analytic characterization, the Von Neumann corrector, and
 * representative NIST tests.
 *
 * Pass `--json <path>` to additionally write the results (name,
 * ns/op, throughput) as a machine-readable JSON file, so the perf
 * trajectory can be tracked across PRs.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/characterizer.hh"
#include "core/trng.hh"
#include "crypto/sha256.hh"
#include "dram/segment_model.hh"
#include "dram/sensing.hh"
#include "dram/variation.hh"
#include "nist/health90b.hh"
#include "nist/sts.hh"
#include "postprocess/von_neumann.hh"
#include "service/entropy_service.hh"
#include "softmc/host.hh"
#include "util.hh"

using namespace quac;

namespace
{

dram::ModuleSpec
testSpec()
{
    dram::ModuleSpec spec;
    spec.geometry = dram::Geometry::testScale();
    spec.seed = 1;
    return spec;
}

core::QuacTrngConfig
fourBankConfig()
{
    core::QuacTrngConfig cfg;
    cfg.banks = {0, 1, 2, 3};
    cfg.sibEntropyTarget = 24.0;
    cfg.characterizeStride = 4;
    return cfg;
}

/**
 * The seed repository's generation loop, replayed through the public
 * host API: strictly serial across banks, one heap-allocated vector
 * per RD, and a word -> byte push_back staging buffer per SHA input
 * block. Kept here as the "before" side of the pipeline benchmarks.
 */
void
seedPathIteration(dram::DramModule &module, softmc::SoftMcHost &host,
                  const std::vector<core::QuacTrng::BankPlan> &plans,
                  uint8_t pattern, std::vector<uint8_t> &out)
{
    const dram::Geometry &geom = module.geometry();
    const dram::TimingParams &timing = host.timing();
    for (const auto &plan : plans) {
        uint32_t base = geom.firstRowOfSegment(plan.segment);
        for (uint32_t i = 0; i < dram::Geometry::rowsPerSegment; ++i) {
            bool one = (pattern >> i) & 1;
            host.rowCloneCopy(plan.bank,
                              one ? plan.oneRow : plan.zeroRow,
                              base + i);
        }
        host.quac(plan.bank, plan.segment);
        for (const core::ColumnRange &range : plan.ranges) {
            std::vector<uint8_t> raw;
            raw.reserve((range.endColumn - range.beginColumn) *
                        geom.cacheBlockBits / 8);
            for (uint32_t col = range.beginColumn;
                 col < range.endColumn; ++col) {
                std::vector<uint64_t> block = host.rd(plan.bank, col);
                host.wait(timing.tCCD_L);
                for (uint64_t word : block) {
                    for (int byte = 0; byte < 8; ++byte) {
                        raw.push_back(
                            static_cast<uint8_t>(word >> (8 * byte)));
                    }
                }
            }
            Sha256::Digest digest = Sha256::hash(raw);
            out.insert(out.end(), digest.begin(), digest.end());
        }
        host.preObeyed(plan.bank);
    }
}

void
BM_Sha256_64B(benchmark::State &state)
{
    std::vector<uint8_t> data(64, 0xAB);
    for (auto _ : state)
        benchmark::DoNotOptimize(Sha256::hash(data));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void
BM_Sha256_8KB(benchmark::State &state)
{
    std::vector<uint8_t> data(8192, 0xCD);
    for (auto _ : state)
        benchmark::DoNotOptimize(Sha256::hash(data));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_Sha256_8KB);

/**
 * The scalar-vs-SHA-NI compression pair: the same hashes with the
 * hardware path forced off and on. BM_Sha256_ShaNi falls back to the
 * scalar rounds (and reports hw_available = 0) on hosts without the
 * SHA extensions.
 */
void
sha256PathBench(benchmark::State &state, bool hw)
{
    bool prev = Sha256::setHwEnabled(hw);
    std::vector<uint8_t> data(8192, 0xCD);
    for (auto _ : state)
        benchmark::DoNotOptimize(Sha256::hash(data));
    Sha256::setHwEnabled(prev);
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * 8192);
    state.counters["hw_available"] =
        Sha256::hwAvailable() ? 1.0 : 0.0;
}

void
BM_Sha256_Scalar(benchmark::State &state)
{
    sha256PathBench(state, false);
}
BENCHMARK(BM_Sha256_Scalar);

void
BM_Sha256_ShaNi(benchmark::State &state)
{
    sha256PathBench(state, true);
}
BENCHMARK(BM_Sha256_ShaNi);

// ---------------------------------------------------------- block read

void
BM_BlockRead_SeedAlloc(benchmark::State &state)
{
    dram::DramModule module(testSpec());
    softmc::SoftMcHost host(module);
    host.writeRowFill(0, 6, true);
    host.actObeyed(0, 6);
    uint32_t col = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(host.rd(0, col));
        col = (col + 1) % module.geometry().cacheBlocksPerRow();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            module.geometry().cacheBlockBits / 8);
}
BENCHMARK(BM_BlockRead_SeedAlloc);

void
BM_BlockRead_ZeroCopy(benchmark::State &state)
{
    dram::DramModule module(testSpec());
    softmc::SoftMcHost host(module);
    host.writeRowFill(0, 6, true);
    host.actObeyed(0, 6);
    std::vector<uint64_t> block(module.geometry().cacheBlockBits / 64);
    uint32_t col = 0;
    for (auto _ : state) {
        host.rdInto(0, col, block.data());
        benchmark::DoNotOptimize(block.data());
        col = (col + 1) % module.geometry().cacheBlocksPerRow();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            module.geometry().cacheBlockBits / 8);
}
BENCHMARK(BM_BlockRead_ZeroCopy);

// ------------------------------------------------------- hash per SIB

void
BM_SibHash_SeedByteLoop(benchmark::State &state)
{
    // One SHA input block's worth of sense-amp words (8 cache blocks
    // of 512 bits), staged through the seed's byte push_back loop.
    std::vector<uint64_t> words(64);
    Xoshiro256pp rng(11);
    for (uint64_t &w : words)
        w = rng.next();
    for (auto _ : state) {
        std::vector<uint8_t> raw;
        raw.reserve(words.size() * 8);
        for (uint64_t word : words) {
            for (int byte = 0; byte < 8; ++byte)
                raw.push_back(static_cast<uint8_t>(word >> (8 * byte)));
        }
        benchmark::DoNotOptimize(Sha256::hash(raw));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(words.size()) * 8);
}
BENCHMARK(BM_SibHash_SeedByteLoop);

void
BM_SibHash_ZeroCopy(benchmark::State &state)
{
    std::vector<uint64_t> words(64);
    Xoshiro256pp rng(11);
    for (uint64_t &w : words)
        w = rng.next();
    for (auto _ : state) {
        Sha256 sha;
        sha.update(reinterpret_cast<const uint8_t *>(words.data()),
                   words.size() * 8);
        benchmark::DoNotOptimize(sha.finish());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(words.size()) * 8);
}
BENCHMARK(BM_SibHash_ZeroCopy);

// ---------------------------------------------------- full iteration

void
BM_FullIteration_SeedPath(benchmark::State &state)
{
    // The seed's pipeline, faithfully: serial across banks, one
    // vector allocation per RD, byte-staging before SHA, no
    // variation-oracle row cache, and the scalar sensing path.
    dram::ModuleSpec spec = testSpec();
    spec.oracleCache = false;
    spec.fastSense = false;
    dram::DramModule module(std::move(spec));
    core::QuacTrng trng(module, fourBankConfig());
    trng.setup();
    softmc::SoftMcHost host(module);
    host.wait(1e6); // clear of setup's reserved-row writes
    std::vector<uint8_t> out;
    for (auto _ : state) {
        out.clear();
        seedPathIteration(module, host, trng.plans(), 0b1110, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_FullIteration_SeedPath);

void
BM_FullIteration_ZeroCopySerial(benchmark::State &state)
{
    dram::DramModule module(testSpec());
    core::QuacTrng trng(module, fourBankConfig());
    trng.setup();
    std::vector<uint8_t> out(trng.bytesPerIteration());
    for (auto _ : state) {
        trng.fill(out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_FullIteration_ZeroCopySerial);

void
BM_FullIteration_NoSaturation(benchmark::State &state)
{
    // The zero-copy pipeline with the saturation fast-path disabled:
    // the four per-bank RowClone-init cache misses pay the full Phi
    // batch every iteration. The "before" side of the saturation
    // benchmarks (BM_FullIteration_ZeroCopySerial is the "after").
    dram::ModuleSpec spec = testSpec();
    spec.saturationFastPath = false;
    dram::DramModule module(std::move(spec));
    core::QuacTrng trng(module, fourBankConfig());
    trng.setup();
    std::vector<uint8_t> out(trng.bytesPerIteration());
    for (auto _ : state) {
        trng.fill(out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_FullIteration_NoSaturation);

void
BM_FullIteration_ReferenceSense(benchmark::State &state)
{
    // The zero-copy pipeline with the batched sensing kernel disabled:
    // scalar erfc per bitline and per-bit uniform draws (PR 1's bank
    // model). The "before" side of the fastSense benchmarks.
    dram::ModuleSpec spec = testSpec();
    spec.fastSense = false;
    dram::DramModule module(std::move(spec));
    core::QuacTrng trng(module, fourBankConfig());
    trng.setup();
    std::vector<uint8_t> out(trng.bytesPerIteration());
    for (auto _ : state) {
        trng.fill(out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_FullIteration_ReferenceSense);

// -------------------------------------------- RowClone-init resolves

/**
 * One RowClone segment-init copy: the destination row, which holds
 * new bits on every copy as in the generation loop, races the
 * full-rail residual of a constant source row. With the saturation
 * fast-path the residual dominates every bitline and the resolve
 * copies it (Bank::residRaceSaturated): no probability row, no cache
 * lookup. Without it, the changing destination makes every copy a
 * probability-cache miss that runs the full Phi batch.
 */
void
rowCloneInitResolve(benchmark::State &state, bool saturation)
{
    dram::ModuleSpec spec = testSpec();
    spec.saturationFastPath = saturation;
    dram::DramModule module(std::move(spec));
    softmc::SoftMcHost host(module);
    host.writeRowFill(0, 8, true); // constant source row
    dram::Bank &bank = module.bank(0);
    uint32_t nbits = module.geometry().bitlinesPerRow;
    Xoshiro256pp churn(3);
    for (auto _ : state) {
        // New pseudo-random contents in one destination word defeat
        // the probability cache, as the generation loop does.
        state.PauseTiming();
        uint64_t word = churn.next();
        for (unsigned b = 0; b < 64; ++b)
            bank.pokeCell(16, b, (word >> b) & 1);
        state.ResumeTiming();
        host.rowCloneCopy(0, 8, 16);
        benchmark::DoNotOptimize(bank.peekRow(16).data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            nbits);
}

void
BM_RowCloneInitResolve_FullPhi(benchmark::State &state)
{
    rowCloneInitResolve(state, false);
}
BENCHMARK(BM_RowCloneInitResolve_FullPhi);

void
BM_RowCloneInitResolve_Saturation(benchmark::State &state)
{
    rowCloneInitResolve(state, true);
}
BENCHMARK(BM_RowCloneInitResolve_Saturation);

// ------------------------------------------------- entropy service

using benchutil::CountingTrng;

/**
 * Buffer-hit request latency: the steady state the paper's Section 9
 * design targets, where refill keeps up and every request is served
 * from controller SRAM. The shard is topped up untimed, only once it
 * can no longer serve a request, so the loop times hits alone.
 */
void
BM_ServiceRequest_Hit(benchmark::State &state)
{
    CountingTrng backend(4096);
    service::EntropyService svc({&backend},
                                {.shardCapacityBytes = 1 << 16,
                                 .refillWatermark = 0.5});
    auto client = svc.connect("hit");
    uint8_t out[64];
    svc.refillBelowWatermark();
    for (auto _ : state) {
        if (svc.level(0) < sizeof(out)) {
            state.PauseTiming();
            svc.refillBelowWatermark();
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(client.request(out, sizeof(out)));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sizeof(out)));
}
BENCHMARK(BM_ServiceRequest_Hit);

/**
 * Miss path: a never-refilled shard forces every request through the
 * synchronous backend fallback, measuring the service overhead over
 * a raw Trng::fill call.
 */
void
BM_ServiceRequest_Miss(benchmark::State &state)
{
    CountingTrng backend;
    service::EntropyService svc({&backend}, {.shardCapacityBytes = 64});
    auto client = svc.connect("miss");
    uint8_t out[64];
    for (auto _ : state)
        benchmark::DoNotOptimize(client.request(out, sizeof(out)));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sizeof(out)));
}
BENCHMARK(BM_ServiceRequest_Miss);

/** The raw backend fill, as the miss benchmark's baseline. */
void
BM_ServiceRequest_RawFillBaseline(benchmark::State &state)
{
    CountingTrng backend;
    uint8_t out[64];
    for (auto _ : state) {
        backend.fill(out, sizeof(out));
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sizeof(out)));
}
BENCHMARK(BM_ServiceRequest_RawFillBaseline);

/** The service BM_ServiceMultiClient's threads share. */
struct MultiClientService
{
    std::vector<std::unique_ptr<CountingTrng>> backends;
    std::unique_ptr<service::EntropyService> service;
    std::vector<service::EntropyService::Client> clients;
};

/**
 * Contended multi-client throughput on google-benchmark's own
 * persistent threads: each thread times one 64-byte request per
 * iteration on its own client, pinned to its own shard (one backend
 * each), while a background thread refills. Thread 0 builds the
 * service before the timed loop and stops the refill thread after
 * it, so no iteration pays for thread start-up. Rates are wall clock
 * (UseRealTime), summed over the threads.
 */
void
BM_ServiceMultiClient(benchmark::State &state)
{
    constexpr size_t request_bytes = 64;
    // The loop start is a barrier across the benchmark's threads, so
    // the others read `shared` only after thread 0 has built it.
    static std::unique_ptr<MultiClientService> shared;
    auto index = static_cast<size_t>(state.thread_index());
    if (index == 0) {
        shared = std::make_unique<MultiClientService>();
        std::vector<core::Trng *> pool;
        for (int i = 0; i < state.threads(); ++i) {
            shared->backends.push_back(
                std::make_unique<CountingTrng>(4096));
            pool.push_back(shared->backends.back().get());
        }
        shared->service = std::make_unique<service::EntropyService>(
            pool, service::EntropyServiceConfig{
                      .shardCapacityBytes = 1 << 16,
                      .refillWatermark = 0.5});
        for (size_t i = 0; i < pool.size(); ++i) {
            shared->clients.push_back(shared->service->connect(
                "c" + std::to_string(i), service::Priority::Standard,
                i));
        }
        shared->service->startAutoRefill(
            std::chrono::microseconds(100));
    }
    uint8_t out[request_bytes];
    for (auto _ : state) {
        shared->clients[index].request(out, request_bytes);
        benchmark::DoNotOptimize(out);
    }
    if (index == 0) {
        shared->service->stopAutoRefill();
        shared.reset();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(request_bytes));
}
BENCHMARK(BM_ServiceMultiClient)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

/**
 * Modelled request-latency distribution: timestamped requests whose
 * inter-arrival outpaces the periodic refill, so the latency model
 * sees the hit/miss mix and queueing the fig12 latency study
 * reports. The p50/p95/p99 land in the JSON output as counters.
 */
void
BM_ServiceRequestLatency(benchmark::State &state)
{
    CountingTrng backend(4096);
    service::EntropyService svc({&backend},
                                {.shardCapacityBytes = 1 << 14,
                                 .refillWatermark = 0.5});
    auto client = svc.connect("timed");
    uint8_t out[64];
    double now = 0.0;
    uint64_t n = 0;
    for (auto _ : state) {
        if ((n++ & 255) == 0)
            svc.refillTick(8192);
        benchmark::DoNotOptimize(
            client.requestAt(out, sizeof(out), now));
        now += 100.0;
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(sizeof(out)));
    service::LatencyDistribution dist =
        svc.latencySnapshot(service::Priority::Standard);
    state.counters["latency_p50_ns"] = dist.p50Ns();
    state.counters["latency_p95_ns"] = dist.p95Ns();
    state.counters["latency_p99_ns"] = dist.p99Ns();
}
BENCHMARK(BM_ServiceRequestLatency);

// -------------------------------------------------- sensing kernels

/**
 * Representative per-bitline sensing inputs: offsets spread like the
 * SA-offset distribution and deviations like a balanced QUAC pattern,
 * giving the realistic mix of degenerate and metastable bitlines.
 */
struct SensingRow
{
    std::vector<double> dev;
    std::vector<double> offset;
    double sigma = 0.12;
};

SensingRow
makeSensingRow(uint32_t nbits)
{
    SensingRow row;
    row.dev.resize(nbits);
    row.offset.resize(nbits);
    Xoshiro256pp rng(21);
    for (uint32_t b = 0; b < nbits; ++b) {
        row.dev[b] = rng.gaussian(0.0, 1.2);
        row.offset[b] = rng.gaussian(0.0, 5.4);
    }
    return row;
}

void
BM_ProbabilityOne_Scalar(benchmark::State &state)
{
    SensingRow row = makeSensingRow(4096);
    std::vector<float> out(row.dev.size());
    for (auto _ : state) {
        for (size_t b = 0; b < row.dev.size(); ++b) {
            out[b] = static_cast<float>(dram::probabilityOne(
                row.dev[b], row.offset[b], row.sigma));
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(row.dev.size()));
}
BENCHMARK(BM_ProbabilityOne_Scalar);

void
BM_ProbabilityOne_Batch(benchmark::State &state)
{
    SensingRow row = makeSensingRow(4096);
    std::vector<float> out(row.dev.size());
    for (auto _ : state) {
        dram::probabilityOneBatch(row.dev.data(), row.offset.data(),
                                  row.sigma, out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(row.dev.size()));
}
BENCHMARK(BM_ProbabilityOne_Batch);

/**
 * Full-row sense resolution through the command path: re-init the
 * segment, QUAC, and force resolution with a RD. Steady state hits
 * the probability cache, so this isolates the per-event resolution
 * cost (key hash + draws + bit packing + row write-back).
 */
void
senseResolveRow(benchmark::State &state, bool fast_sense)
{
    dram::ModuleSpec spec = testSpec();
    spec.fastSense = fast_sense;
    dram::DramModule module(std::move(spec));
    softmc::SoftMcHost host(module);
    uint32_t segment = 2;
    for (auto _ : state) {
        module.bank(0).pokeSegmentPattern(segment, 0b1110);
        host.quac(0, segment);
        std::vector<uint64_t> block = host.rd(0, 0);
        benchmark::DoNotOptimize(block.data());
        host.preObeyed(0);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        module.geometry().bitlinesPerRow);
}

void
BM_ResolveSenseRow_Reference(benchmark::State &state)
{
    senseResolveRow(state, false);
}
BENCHMARK(BM_ResolveSenseRow_Reference);

void
BM_ResolveSenseRow_Fast(benchmark::State &state)
{
    senseResolveRow(state, true);
}
BENCHMARK(BM_ResolveSenseRow_Fast);

/** Analytic probability query (uncached computeProbabilities). */
void
BM_QuacAnalyticProbabilities_Reference(benchmark::State &state)
{
    dram::ModuleSpec spec = testSpec();
    spec.fastSense = false;
    dram::DramModule module(std::move(spec));
    module.bank(0).pokeSegmentPattern(2, 0b1110);
    for (auto _ : state)
        benchmark::DoNotOptimize(module.bank(0).quacProbabilities(2));
}
BENCHMARK(BM_QuacAnalyticProbabilities_Reference);

// ------------------------------------------------ bulk draw kernels

void
BM_OracleOffsetRow_PerElement(benchmark::State &state)
{
    dram::DramModule module(testSpec());
    const dram::VariationModel &var = module.variation();
    uint32_t nbits = module.geometry().bitlinesPerRow;
    std::vector<double> out(nbits);
    for (auto _ : state) {
        for (uint32_t b = 0; b < nbits; ++b)
            out[b] = var.saOffsetMv(0, 6, b);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            nbits);
}
BENCHMARK(BM_OracleOffsetRow_PerElement);

void
BM_OracleOffsetRow_Bulk(benchmark::State &state)
{
    dram::DramModule module(testSpec());
    const dram::VariationModel &var = module.variation();
    uint32_t nbits = module.geometry().bitlinesPerRow;
    std::vector<double> out(nbits);
    for (auto _ : state) {
        var.saOffsetRowMv(0, 6, nbits, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            nbits);
}
BENCHMARK(BM_OracleOffsetRow_Bulk);

void
BM_UniformDraws_PerCall(benchmark::State &state)
{
    Xoshiro256pp rng(5);
    std::vector<float> out(4096);
    for (auto _ : state) {
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = static_cast<float>(rng.uniform());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_UniformDraws_PerCall);

void
BM_UniformDraws_Bulk(benchmark::State &state)
{
    Xoshiro256pp rng(5);
    std::vector<float> out(4096);
    for (auto _ : state) {
        rng.fillUniform(out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_UniformDraws_Bulk);

// ------------------------------------------------------ bit plumbing

void
BM_GenerateBits_SeedBitLoop(benchmark::State &state)
{
    Xoshiro256pp rng(17);
    std::vector<uint8_t> bytes(1 << 13);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    size_t nbits = bytes.size() * 8;
    for (auto _ : state) {
        Bitstream bits;
        for (size_t i = 0; i < nbits; ++i)
            bits.append((bytes[i / 8] >> (i % 8)) & 1);
        benchmark::DoNotOptimize(bits.size());
    }
}
BENCHMARK(BM_GenerateBits_SeedBitLoop);

void
BM_GenerateBits_Bulk(benchmark::State &state)
{
    Xoshiro256pp rng(17);
    std::vector<uint8_t> bytes(1 << 13);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    for (auto _ : state) {
        Bitstream bits;
        bits.appendBytes(bytes.data(), bytes.size() * 8);
        benchmark::DoNotOptimize(bits.size());
    }
}
BENCHMARK(BM_GenerateBits_Bulk);

void
BM_QuacCommandIteration(benchmark::State &state)
{
    dram::DramModule module(testSpec());
    core::QuacTrngConfig cfg;
    cfg.banks = {0};
    cfg.sibEntropyTarget = 24.0;
    cfg.characterizeStride = 4;
    core::QuacTrng trng(module, cfg);
    trng.setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(trng.rawIteration(0));
}
BENCHMARK(BM_QuacCommandIteration);

void
BM_QuacAnalyticProbabilities(benchmark::State &state)
{
    dram::DramModule module(testSpec());
    module.bank(0).pokeSegmentPattern(2, 0b1110);
    for (auto _ : state)
        benchmark::DoNotOptimize(module.bank(0).quacProbabilities(2));
}
BENCHMARK(BM_QuacAnalyticProbabilities);

void
BM_SegmentModelConstruct(benchmark::State &state)
{
    dram::ModuleSpec spec = testSpec();
    dram::DramModule module(std::move(spec));
    uint32_t segment = 0;
    for (auto _ : state) {
        dram::SegmentModel model(module.geometry(),
                                 module.calibration(),
                                 module.variation(), 0,
                                 segment % 16, 50.0, 0.0);
        benchmark::DoNotOptimize(model.segmentEntropy(0b1110));
        ++segment;
    }
}
BENCHMARK(BM_SegmentModelConstruct);

void
BM_VonNeumann_1Mbit(benchmark::State &state)
{
    Xoshiro256pp rng(3);
    Bitstream bits;
    for (int i = 0; i < (1 << 20); ++i)
        bits.append(rng.bernoulli(0.5));
    for (auto _ : state)
        benchmark::DoNotOptimize(postprocess::vonNeumann(bits));
}
BENCHMARK(BM_VonNeumann_1Mbit);

Bitstream
randomBits(size_t n)
{
    Xoshiro256pp rng(9);
    Bitstream bits;
    for (size_t i = 0; i < n; i += 64)
        bits.appendWord(rng.next(), std::min<size_t>(64, n - i));
    return bits;
}

void
BM_NistMonobit_1Mbit(benchmark::State &state)
{
    Bitstream bits = randomBits(1 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(nist::monobit(bits));
}
BENCHMARK(BM_NistMonobit_1Mbit);

void
BM_NistSerial_256Kbit(benchmark::State &state)
{
    Bitstream bits = randomBits(1 << 18);
    for (auto _ : state)
        benchmark::DoNotOptimize(nist::serial(bits));
}
BENCHMARK(BM_NistSerial_256Kbit);

void
BM_NistDft_256Kbit(benchmark::State &state)
{
    Bitstream bits = randomBits(1 << 18);
    for (auto _ : state)
        benchmark::DoNotOptimize(nist::dft(bits));
}
BENCHMARK(BM_NistDft_256Kbit);

void
BM_NistLinearComplexity_64Kbit(benchmark::State &state)
{
    Bitstream bits = randomBits(1 << 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(nist::linearComplexityTest(bits));
}
BENCHMARK(BM_NistLinearComplexity_64Kbit);

// ------------------------------------------- health-monitor kernels

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Xoshiro256pp rng(seed);
    std::vector<uint8_t> bytes(n);
    for (size_t i = 0; i < n; ++i)
        bytes[i] = static_cast<uint8_t>(rng.next());
    return bytes;
}

void
BM_HealthOnesCount_Scalar(benchmark::State &state)
{
    std::vector<uint8_t> bytes = randomBytes(1 << 20, 13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nist::onesCountScalar(bytes.data(), bytes.size()));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_HealthOnesCount_Scalar);

void
BM_HealthOnesCount_Vectorized(benchmark::State &state)
{
    std::vector<uint8_t> bytes = randomBytes(1 << 20, 13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nist::onesCount(bytes.data(), bytes.size()));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_HealthOnesCount_Vectorized);

/**
 * The "before" side of the serial-pattern pair: the offline
 * nist::serial() bit loop, which walks the window one bit at a time.
 * PatternCounter3 counts the same cyclic 3-bit patterns with word
 * masks and popcounts (vec_clones-dispatched).
 */
void
BM_HealthPattern_BitLoop(benchmark::State &state)
{
    constexpr size_t nbytes = 1 << 17;
    std::vector<uint8_t> bytes = randomBytes(nbytes, 29);
    Bitstream bits = Bitstream::fromBytes(bytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(nist::serial(bits, 3));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * nbytes));
}
BENCHMARK(BM_HealthPattern_BitLoop);

void
BM_HealthPattern_Vectorized(benchmark::State &state)
{
    constexpr size_t nbytes = 1 << 17;
    std::vector<uint8_t> bytes = randomBytes(nbytes, 29);
    for (auto _ : state) {
        nist::PatternCounter3 counter;
        counter.consume(bytes.data(), bytes.size());
        counter.finishCyclic();
        benchmark::DoNotOptimize(counter.counts());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * nbytes));
}
BENCHMARK(BM_HealthPattern_Vectorized);

/** End-to-end streaming tester cost per byte observed. */
void
BM_HealthStream_1MiB(benchmark::State &state)
{
    std::vector<uint8_t> bytes = randomBytes(1 << 20, 31);
    nist::StreamingHealthConfig cfg;
    cfg.alphaExponent = 40;
    std::vector<nist::HealthWindowResult> completed;
    for (auto _ : state) {
        nist::StreamingHealthTester tester(cfg);
        completed.clear();
        tester.consume(bytes.data(), bytes.size(), completed);
        benchmark::DoNotOptimize(completed);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_HealthStream_1MiB);

/**
 * Console reporter that also collects each run for the --json file:
 * benchmark name, ns per op, and the byte/item throughputs.
 */
class JsonCollectingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Result
    {
        std::string name;
        double nsPerOp = 0.0;
        double bytesPerSecond = 0.0;
        double itemsPerSecond = 0.0;
        int64_t iterations = 0;
        /** Every other user counter (latency percentiles, per-client
         * rates, ...), in iteration order. */
        std::vector<std::pair<std::string, double>> counters;
    };

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            Result r;
            r.name = run.benchmark_name();
            r.nsPerOp = run.GetAdjustedRealTime();
            for (const auto &[name, counter] : run.counters) {
                if (name == "bytes_per_second")
                    r.bytesPerSecond = counter;
                else if (name == "items_per_second")
                    r.itemsPerSecond = counter;
                else
                    r.counters.emplace_back(name, counter);
            }
            r.iterations = static_cast<int64_t>(run.iterations);
            results.push_back(std::move(r));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::vector<Result> results;
};

bool
writeJsonResults(const std::string &path,
                 const std::vector<JsonCollectingReporter::Result> &results)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "micro_ops: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.4f, "
                     "\"bytes_per_second\": %.1f, "
                     "\"items_per_second\": %.1f, "
                     "\"iterations\": %lld",
                     r.name.c_str(), r.nsPerOp, r.bytesPerSecond,
                     r.itemsPerSecond,
                     static_cast<long long>(r.iterations));
        for (const auto &[name, value] : r.counters)
            std::fprintf(f, ", \"%s\": %.4f", name.c_str(), value);
        std::fprintf(f, "}%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Extract our --json flag before google-benchmark parses argv.
    std::string json_path;
    std::vector<char *> pruned;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else {
            pruned.push_back(argv[i]);
        }
    }
    int pruned_argc = static_cast<int>(pruned.size());
    pruned.push_back(nullptr);

    benchmark::Initialize(&pruned_argc, pruned.data());
    if (benchmark::ReportUnrecognizedArguments(pruned_argc,
                                               pruned.data()))
        return 1;

    JsonCollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!json_path.empty() &&
        !writeJsonResults(json_path, reporter.results))
        return 1;
    return 0;
}
