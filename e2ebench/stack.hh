/**
 * @file
 * The system under test, stood up through public APIs only: four
 * test-scale catalog modules (0-3) as QuacTrng backends, each
 * wrapped in a TimedTrng decorator, behind an EntropyService with
 * 64 KiB shards, LeastLoaded placement and health monitoring, and
 * (for the network workloads) a UdpServer bound to loopback.
 */

#ifndef QUAC_E2EBENCH_STACK_HH
#define QUAC_E2EBENCH_STACK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/trng.hh"
#include "dram/module.hh"
#include "net/udp_server.hh"
#include "service/entropy_service.hh"
#include "trace.hh"

namespace e2e
{

/** Backends (and shards) in the stack. */
constexpr size_t kModules = 4;
/** Per-shard ring capacity. */
constexpr size_t kShardBytes = 64 * 1024;

/** Module @p index's spec: catalog entry @p index at test scale,
 * with the catalog's fixed per-module seed. */
quac::dram::ModuleSpec moduleSpec(size_t index);

/** The generator configuration every backend uses. */
quac::core::QuacTrngConfig trngConfig();

/**
 * Forwards to a QuacTrng and, when tracing, records one Fill span
 * per call (parented to the calling thread's open span) with the
 * wall and thread-CPU time it took. Always mirrors the generator's
 * iteration count into an atomic, so other threads can read it
 * without racing the filling thread.
 */
class TimedTrng final : public quac::core::Trng
{
  public:
    TimedTrng(quac::core::QuacTrng &inner, uint16_t index,
              Tracer *tracer);

    std::string name() const override { return inner_.name(); }
    void fill(uint8_t *out, size_t len) override;
    size_t preferredChunkBytes() override
    {
        return inner_.preferredChunkBytes();
    }

    /** Generator iterations completed so far. */
    uint64_t
    iterations() const
    {
        // relaxed: monotonic counter snapshot.
        return iterations_.load(std::memory_order_relaxed);
    }

    /**
     * The thread that ran fills outside any benchmark span (the
     * service's auto-refill thread), once one has (traced only).
     */
    bool refillThread(pthread_t &thread) const;

  private:
    quac::core::QuacTrng &inner_;
    uint16_t index_;
    Tracer *tracer_;
    /** Written under the service's per-backend lock, which
     * serializes every fill of this backend. */
    Tracer::Buffer *spans_ = nullptr;
    std::atomic<uint64_t> iterations_{0};
    std::atomic<bool> refillSeen_{false};
    std::atomic<pthread_t> refillThread_{};
};

/** One complete stack. Members are destroyed server-first. */
struct Stack
{
    std::vector<std::unique_ptr<quac::dram::DramModule>> modules;
    std::vector<std::unique_ptr<quac::core::QuacTrng>> trngs;
    std::vector<std::unique_ptr<TimedTrng>> timed;
    std::unique_ptr<quac::service::EntropyService> service;
    std::unique_ptr<quac::net::UdpServer> server;
    /** Start to first servable request: module + QuacTrng setup,
     * service construction, initial prefill, and the bind. */
    double setupSeconds = 0.0;
    /** Host CPU steal while it was set up. */
    double setupSteal = 0.0;
};

/**
 * Stand the stack up; @p udp adds the loopback UdpServer. A null
 * @p tracer records nothing.
 */
std::unique_ptr<Stack> buildStack(bool udp, Tracer *tracer);

/**
 * A fresh, set-up QuacTrng on module @p index (same seed as the
 * stack's backend @p index): the reference stream and the stage
 * ledger's generator. @p module receives the module it runs on.
 */
std::unique_ptr<quac::core::QuacTrng>
referenceTrng(size_t index,
              std::unique_ptr<quac::dram::DramModule> &module);

} // namespace e2e

#endif // QUAC_E2EBENCH_STACK_HH
