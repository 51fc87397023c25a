#include "ledger.hh"

#include <vector>

#include "bench_math.hh"
#include "core/fault_injection.hh"
#include "crypto/sha256.hh"
#include "net/wire.hh"
#include "sched/trng_programs.hh"
#include "service/entropy_service.hh"
#include "service/health.hh"
#include "stack.hh"
#include "trace.hh"

namespace e2e
{

using namespace quac;

namespace
{

/** Keeps a computed value alive without a visible side effect. */
template <class T>
void
keep(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/** Median over @p reps repetitions of @p body's ns per operation. */
template <class Body>
double
medianNsPerOp(int reps, Body body)
{
    std::vector<double> per_op;
    for (int r = 0; r < reps; ++r) {
        int64_t start = nowNs();
        double ops = body();
        per_op.push_back(static_cast<double>(nowNs() - start) / ops);
    }
    return median(per_op);
}

double
parseCost()
{
    uint8_t datagram[net::kRequestBytes];
    net::Request request;
    request.priority = 0;
    request.clientId = 0x1234;
    request.nonce = 1;
    request.bytes = 32;
    net::encodeRequest(datagram, request);
    constexpr int kOps = 100'000;
    return medianNsPerOp(5, [&]() {
        uint64_t sum = 0;
        for (int i = 0; i < kOps; ++i) {
            // Vary the nonce so no iteration can be folded away.
            datagram[16] = static_cast<uint8_t>(i);
            net::Request out;
            if (net::parseRequest(datagram, sizeof(datagram), out) ==
                net::ParseError::None)
                sum += out.nonce;
        }
        keep(sum);
        return static_cast<double>(kOps);
    });
}

double
serveHitCost(size_t request_bytes)
{
    // A ring hit never touches the backend, so a software backend
    // keeps the probe cheap; the shard geometry and health
    // monitoring match the stack's.
    core::SoftwareTrng backend(7, "ledger");
    service::EntropyServiceConfig scfg;
    scfg.shardCapacityBytes = kShardBytes;
    scfg.placement = service::PlacementPolicy::LeastLoaded;
    scfg.health.enabled = true;
    service::EntropyService service({&backend}, scfg);
    service::EntropyService::Client client =
        service.connect("ledger", service::Priority::Standard, 0);
    std::vector<uint8_t> out(request_bytes);
    // Each round starts from a full ring and serves at most half of
    // it, so every timed request is a hit; the top-up is untimed.
    size_t per_round = kShardBytes / 2 / request_bytes;
    std::vector<double> per_op;
    for (int r = 0; r < 7; ++r) {
        service.refillBelowWatermark();
        int64_t start = nowNs();
        for (size_t i = 0; i < per_round; ++i)
            keep(client.serveInto(out.data(), out.size()).bytes);
        per_op.push_back(static_cast<double>(nowNs() - start) /
                         static_cast<double>(per_round));
    }
    return median(per_op);
}

double
shaCostPerSib(const core::QuacTrng &trng, const dram::DramModule &module)
{
    const size_t block_bytes = module.geometry().cacheBlockBits / 8;
    std::vector<std::vector<Sha256::Job>> plan_jobs;
    size_t total = 0;
    for (const auto &plan : trng.plans()) {
        plan_jobs.emplace_back();
        for (const auto &range : plan.ranges) {
            plan_jobs.back().push_back(
                {nullptr, (range.endColumn - range.beginColumn) *
                              block_bytes});
            total += plan_jobs.back().back().len;
        }
    }
    std::vector<uint8_t> data(total);
    Xoshiro256pp rng(11);
    for (uint8_t &b : data)
        b = static_cast<uint8_t>(rng.next());
    size_t offset = 0;
    size_t sibs = 0;
    for (auto &jobs : plan_jobs) {
        for (Sha256::Job &job : jobs) {
            job.data = data.data() + offset;
            offset += job.len;
        }
        sibs += jobs.size();
    }
    if (sibs == 0)
        return 0.0;
    std::vector<Sha256::Digest> digests(sibs);
    constexpr int kIterations = 2'000;
    // Same batching as QuacTrng::hashPlanInto: one hashBatch per
    // plan, the whole iteration's SIBs per repetition.
    return medianNsPerOp(5, [&]() {
        for (int i = 0; i < kIterations; ++i) {
            for (const auto &jobs : plan_jobs) {
                Sha256::hashBatch(jobs.data(), jobs.size(),
                                  digests.data());
                keep(digests[0][0]);
            }
            data[0] = static_cast<uint8_t>(i);
        }
        return static_cast<double>(kIterations) *
               static_cast<double>(sibs);
    });
}

double
observeCostPerByte(const std::vector<uint8_t> &stream, size_t pull_bytes)
{
    pull_bytes = std::clamp<size_t>(pull_bytes, 1, stream.size());
    service::HealthConfig hcfg;
    hcfg.enabled = true;
    service::HealthMonitor monitor(1, hcfg);
    // At least a few health windows per repetition.
    size_t per_rep = std::max<size_t>(hcfg.windowBits / 8 * 8,
                                      pull_bytes * 16);
    return medianNsPerOp(5, [&]() {
        size_t done = 0;
        size_t pos = 0;
        while (done < per_rep) {
            if (pos + pull_bytes > stream.size())
                pos = 0;
            keep(monitor.observe(0, stream.data() + pos, pull_bytes));
            pos += pull_bytes;
            done += pull_bytes;
        }
        return static_cast<double>(done);
    });
}

} // anonymous namespace

StageCosts
measureStages(core::QuacTrng &trng, const dram::DramModule &module,
              size_t request_bytes, size_t pull_bytes)
{
    StageCosts costs;
    costs.parseNs = parseCost();
    costs.serveHitNs = serveHitCost(request_bytes);
    costs.shaNsPerSib = shaCostPerSib(trng, module);
    for (const auto &plan : trng.plans())
        costs.sibsPerIteration += plan.ranges.size();
    costs.bytesPerIteration = trng.bytesPerIteration();

    // Real generator output, so the health tests see healthy data.
    std::vector<uint8_t> stream(64 * 1024);
    trng.fill(stream.data(), stream.size());
    costs.observeNsPerByte = observeCostPerByte(stream, pull_bytes);

    // Whole-iteration fills run exactly one iteration each (a
    // leftover partial iteration only shifts which bytes return).
    std::vector<uint8_t> iteration(costs.bytesPerIteration);
    std::vector<double> walls;
    for (int i = 0; i < 41; ++i) {
        int64_t start = nowNs();
        trng.fill(iteration.data(), iteration.size());
        walls.push_back(static_cast<double>(nowNs() - start));
    }
    costs.iterationNs = median(walls);

    // Fills of the phase's mean size, as many as fit in ~50 ms (at
    // least 16), timed as a whole: small pulls are mostly copies out
    // of the generator's buffered iteration, large ones amortize the
    // bank workers' start-up over many iterations.
    std::vector<uint8_t> pull(std::max<size_t>(pull_bytes, 1));
    std::vector<double> per_byte;
    for (int rep = 0; rep < 3; ++rep) {
        int64_t start = nowNs();
        size_t bytes = 0;
        for (int calls = 0;
             calls < 16 || nowNs() - start < 50'000'000; ++calls) {
            trng.fill(pull.data(), pull.size());
            bytes += pull.size();
        }
        per_byte.push_back(static_cast<double>(nowNs() - start) /
                           static_cast<double>(bytes));
    }
    costs.pullFillNsPerByte = median(per_byte);

    const auto &plan = trng.plans().front();
    sched::QuacScheduleConfig scfg;
    scfg.banks = static_cast<uint32_t>(trng.plans().size());
    scfg.init = sched::InitMethod::RowClone;
    scfg.profile.sib = static_cast<uint32_t>(plan.ranges.size());
    scfg.profile.columnsRead =
        plan.ranges.empty() ? 0 : plan.ranges.back().endColumn;
    scfg.profile.columnsPerRow = module.geometry().cacheBlocksPerRow();
    costs.modelChannelGbps =
        sched::simulateQuacTrng(module.timing(), scfg).throughputGbps();
    return costs;
}

} // namespace e2e
