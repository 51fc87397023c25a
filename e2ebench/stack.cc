#include "stack.hh"

#include "dram/catalog.hh"

namespace e2e
{

using namespace quac;

dram::ModuleSpec
moduleSpec(size_t index)
{
    return dram::specFor(dram::paperCatalog()[index],
                         dram::Geometry::testScale());
}

core::QuacTrngConfig
trngConfig()
{
    // Test-scale rows hold less entropy than the paper-scale 256-bit
    // SIB target, so the target scales with the row; everything else
    // stays at the shipped defaults (parallelBanks included).
    core::QuacTrngConfig cfg;
    cfg.sibEntropyTarget = 24.0;
    cfg.characterizeStride = 4;
    return cfg;
}

TimedTrng::TimedTrng(core::QuacTrng &inner, uint16_t index,
                     Tracer *tracer)
    : inner_(inner), index_(index), tracer_(tracer)
{
    if (tracer_ != nullptr)
        spans_ = tracer_->buffer(1 << 16);
}

void
TimedTrng::fill(uint8_t *out, size_t len)
{
    if (tracer_ == nullptr) {
        inner_.fill(out, len);
        // relaxed: monotonic counter; readers want a snapshot only.
        iterations_.store(inner_.iterations(),
                          std::memory_order_relaxed);
        return;
    }
    Span span;
    span.kind = SpanKind::Fill;
    span.id = tracer_->nextId();
    span.parent = openSpan();
    span.aux = index_;
    span.bytes = static_cast<uint32_t>(len);
    if (span.parent == kRefillThreadParent &&
        !refillSeen_.load(std::memory_order_acquire)) {
        refillThread_.store(::pthread_self(),
                            std::memory_order_relaxed);
        refillSeen_.store(true, std::memory_order_release);
    }
    int64_t cpu0 = threadCpuNs();
    span.startNs = nowNs();
    inner_.fill(out, len);
    span.endNs = nowNs();
    span.cpuNs = threadCpuNs() - cpu0;
    // relaxed: monotonic counter; readers want a snapshot only.
    iterations_.store(inner_.iterations(), std::memory_order_relaxed);
    spans_->push_back(span);
}

bool
TimedTrng::refillThread(pthread_t &thread) const
{
    if (!refillSeen_.load(std::memory_order_acquire))
        return false;
    // relaxed: ordered by the acquire load of refillSeen_.
    thread = refillThread_.load(std::memory_order_relaxed);
    return true;
}

std::unique_ptr<Stack>
buildStack(bool udp, Tracer *tracer)
{
    auto stack = std::make_unique<Stack>();
    HostCpu host = readHostCpu();
    int64_t start = nowNs();
    std::vector<core::Trng *> backends;
    for (size_t m = 0; m < kModules; ++m) {
        stack->modules.push_back(
            std::make_unique<dram::DramModule>(moduleSpec(m)));
        stack->trngs.push_back(std::make_unique<core::QuacTrng>(
            *stack->modules.back(), trngConfig()));
        stack->trngs.back()->setup();
        stack->timed.push_back(std::make_unique<TimedTrng>(
            *stack->trngs.back(), static_cast<uint16_t>(m), tracer));
        backends.push_back(stack->timed.back().get());
    }

    service::EntropyServiceConfig scfg;
    scfg.shardCapacityBytes = kShardBytes;
    scfg.placement = service::PlacementPolicy::LeastLoaded;
    scfg.health.enabled = true;
    stack->service =
        std::make_unique<service::EntropyService>(backends, scfg);
    setOpenSpan(kSetupParent);
    stack->service->refillBelowWatermark();
    setOpenSpan(kRefillThreadParent);

    if (udp) {
        // Defaults: loopback, an ephemeral port, idle refill on.
        stack->server = std::make_unique<net::UdpServer>(
            *stack->service, net::UdpServerConfig{});
    }
    stack->setupSeconds = static_cast<double>(nowNs() - start) * 1e-9;
    stack->setupSteal = stealFrac(host, readHostCpu());
    return stack;
}

std::unique_ptr<core::QuacTrng>
referenceTrng(size_t index, std::unique_ptr<dram::DramModule> &module)
{
    module = std::make_unique<dram::DramModule>(moduleSpec(index));
    auto trng = std::make_unique<core::QuacTrng>(*module, trngConfig());
    trng->setup();
    return trng;
}

} // namespace e2e
