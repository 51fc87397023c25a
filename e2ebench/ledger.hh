/**
 * @file
 * Same-run stage ledger: micro-timings of the stages a request and a
 * refill cross, taken in the same process right after the traced
 * phase, so they can be multiplied by the phase's counts and checked
 * against the serving threads' measured busy time.
 */

#ifndef QUAC_E2EBENCH_LEDGER_HH
#define QUAC_E2EBENCH_LEDGER_HH

#include <cstddef>

#include "core/trng.hh"
#include "dram/module.hh"

namespace e2e
{

struct StageCosts
{
    /** net::parseRequest on one well-formed request. */
    double parseNs = 0.0;
    /** Client::serveInto of one request that hits the ring. */
    double serveHitNs = 0.0;
    /** Sha256::hashBatch per SIB, over the plans' SIB sizes. */
    double shaNsPerSib = 0.0;
    /** HealthMonitor::observe per byte, on pull-sized chunks. */
    double observeNsPerByte = 0.0;
    /** One QuacTrng::fill of exactly one iteration (wall). */
    double iterationNs = 0.0;
    /** QuacTrng::fill per byte on pull-sized fills (wall): a large
     * pull runs many iterations per bank-worker start-up. */
    double pullFillNsPerByte = 0.0;
    size_t sibsPerIteration = 0;
    size_t bytesPerIteration = 0;
    /** sched::simulateQuacTrng channel throughput: MODELLED, from
     * the command schedule, never measured. */
    double modelChannelGbps = 0.0;
};

/**
 * Time every stage. @p trng is a fresh, set-up generator on
 * @p module that no one else uses (its stream is consumed);
 * @p request_bytes sizes the serve-hit probe and @p pull_bytes the
 * observe chunks (the phase's mean fill size).
 */
StageCosts measureStages(quac::core::QuacTrng &trng,
                         const quac::dram::DramModule &module,
                         size_t request_bytes, size_t pull_bytes);

} // namespace e2e

#endif // QUAC_E2EBENCH_LEDGER_HH
