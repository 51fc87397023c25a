/**
 * @file
 * Streaming health monitor for the entropy service's backend banks.
 *
 * Closes ROADMAP direction 2 (and the failure half of direction 5):
 * a deployed QUAC-TRNG without online health tests is the open gap
 * neoTRNG's authors call out, and DR-STRaNGe argues the end-to-end
 * system is what makes DRAM TRNGs usable. The monitor taps every
 * byte each backend bank produces (refill pulls, synchronous fills,
 * probation draws), runs the SP 800-90B continuous tests plus the
 * windowed monobit/serial statistics (nist/health90b.hh) per bank,
 * and drives a quarantine state machine:
 *
 *            failing windows >= kFailWindowLimit
 *   Healthy ------------------------------------> Quarantined
 *      ^   (or consecutive read failures            |  ^
 *      |    >= kReadFailureLimit)                   |  |
 *      |                                clean probation  failing
 *      |                                window      |  |  window
 *      |   probationWindows consecutive             v  |
 *      +--------------------------------------- Probation
 *
 *   Flagged: the failure condition held but quarantining would leave
 *   zero servable banks — the last bank is never quarantined; it
 *   keeps serving, marked, and recovers to Healthy through the same
 *   consecutive-clean-windows rule (or becomes Quarantined on a
 *   later failing window once another bank is servable again).
 *
 * The monitor only decides servability; the EntropyService reacts by
 * re-sourcing shards off quarantined banks and flushing their
 * buffered bytes (see entropy_service.hh). All transitions are
 * recorded as HealthEvents for stats/CLI surfacing.
 *
 * Thread safety: every public member except servable() and state()
 * serializes on one internal mutex. Callers hold shard/backend locks
 * while calling observe(); the monitor never calls back out, so its
 * mutex is innermost. servable() and state() read a per-bank atomic
 * copy of the state that every transition stores under the mutex,
 * so a serve path's tripwire never waits behind an observe() that
 * is scoring a whole fill.
 */

#ifndef QUAC_SERVICE_HEALTH_HH
#define QUAC_SERVICE_HEALTH_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "nist/health90b.hh"

namespace quac::service
{

/**
 * A window fails when its smallest monobit/serial p-value drops below
 * this (or a continuous test fired). 1e-9 per statistic keeps the
 * per-window false-positive rate ~3e-9 while an entropy-collapsed
 * window's p-value underflows to ~0.
 */
constexpr double kPValueCutoff = 1e-9;

/** Consecutive failing windows before quarantine. */
constexpr uint32_t kFailWindowLimit = 2;

/** Consecutive fill failures before quarantine. */
constexpr uint32_t kReadFailureLimit = 3;

/** Health-monitoring parameters (EntropyServiceConfig::health). */
struct HealthConfig
{
    /** Master switch; disabled monitoring costs nothing. */
    bool enabled = false;
    /**
     * Windowed-statistic window in bits; positive multiple of 8,
     * >= 128 (the serial test's applicability floor).
     */
    size_t windowBits = 16384;
    /** Consecutive clean windows for probation re-admission. */
    uint32_t probationWindows = 4;
};

/** Bank health state. */
enum class BankState : uint8_t
{
    Healthy = 0,
    /** Was quarantined; producing clean windows, not yet servable. */
    Probation = 1,
    /** Not servable; shards re-sourced away. */
    Quarantined = 2,
    /** Failing but servable: the last bank is never quarantined. */
    Flagged = 3,
};

/** Display name ("healthy", "probation", "quarantined", "flagged"). */
const char *bankStateName(BankState state);

/** Per-bank health score snapshot. */
struct BankScore
{
    BankState state = BankState::Healthy;
    uint64_t windowsTested = 0;
    uint64_t windowsFailed = 0;
    uint32_t consecutiveFailed = 0;
    uint32_t consecutiveClean = 0;
    /** Smallest p-value of the most recent window. */
    double lastMinP = 1.0;
    /** Worst statistics seen over the bank's lifetime. */
    uint64_t maxRun = 0;
    uint64_t maxAptCount = 0;
    uint64_t readFailures = 0;
    uint32_t consecutiveReadFailures = 0;
    uint64_t quarantines = 0;
    uint64_t readmissions = 0;
};

/** One recorded state transition. */
struct HealthEvent
{
    enum class Kind : uint8_t
    {
        Quarantine = 0,
        Flag = 1,
        /** Quarantined bank produced its first clean window. */
        Probation = 2,
        /** Probation (or Flagged) bank re-admitted to Healthy. */
        Readmit = 3,
    };

    Kind kind = Kind::Quarantine;
    size_t bank = 0;
    /** The bank's windowsTested count when the transition fired. */
    uint64_t window = 0;
    /** Smallest p-value of the triggering window (1.0 for
     * read-failure transitions). */
    double minP = 1.0;
    std::string reason;
};

/** Display name ("quarantine", "flag", "probation", "readmit"). */
const char *healthEventKindName(HealthEvent::Kind kind);

/** The per-bank streaming health monitor. */
class HealthMonitor
{
  public:
    /**
     * @param banks backend pool size.
     * @param cfg health parameters (validated here via fatal()).
     */
    HealthMonitor(size_t banks, HealthConfig cfg);

    /**
     * Feed @p len bytes of @p bank's output stream through the
     * tests. @return true when the bank's state changed (the service
     * bumps its re-source epoch and reacts).
     */
    bool observe(size_t bank, const uint8_t *bytes, size_t len);

    /**
     * Record a fill failure on @p bank (exception from the backend).
     * @return true when the bank's state changed.
     */
    bool reportReadFailure(size_t bank);

    /** May bytes from @p bank be served? (Healthy or Flagged.)
     * Wait-free. */
    bool servable(size_t bank) const;

    /** Banks currently servable. */
    size_t servableCount() const;

    /** @p bank's current state; wait-free. */
    BankState state(size_t bank) const;

    /** Snapshot of one bank's score. */
    BankScore score(size_t bank) const;

    /** Snapshot of every bank's score, indexed by bank. */
    std::vector<BankScore> scores() const;

    /** Every transition recorded so far, in order. */
    std::vector<HealthEvent> events() const;

    uint64_t quarantines() const;
    uint64_t readmissions() const;

    /* Latent issue surfaced by the annotation pass: this used to
     * read perBank_.size() — a mutex_-guarded container — with no
     * lock. The bank count is fixed at construction, so it lives in
     * its own immutable member instead of the guarded vector. */
    size_t banks() const { return bankCount_; }
    const HealthConfig &config() const { return cfg_; }

    /** Configured continuous-test cutoffs (stats surfacing). */
    uint64_t rctCutoff() const { return rctCutoff_; }
    uint64_t aptCutoff() const { return aptCutoff_; }

  private:
    struct Bank
    {
        nist::StreamingHealthTester tester;
        BankScore score;

        explicit Bank(const nist::StreamingHealthConfig &cfg)
            : tester(cfg)
        {
        }
    };

    /** A window failed: advance the state machine. */
    void windowFailedLocked(size_t bank, Bank &state, double min_p)
        QUAC_REQUIRES(mutex_);

    /** A window passed: advance the state machine. */
    void windowCleanLocked(size_t bank, Bank &state)
        QUAC_REQUIRES(mutex_);

    /** Move @p bank to @p to: the score and its atomic copy. */
    void setStateLocked(size_t bank, Bank &state, BankState to)
        QUAC_REQUIRES(mutex_);

    /** Quarantine or (last servable bank) flag. */
    void quarantineLocked(size_t bank, Bank &state, double min_p,
                          const std::string &reason)
        QUAC_REQUIRES(mutex_);

    /** Servable-bank count. */
    size_t servableCountLocked() const QUAC_REQUIRES(mutex_);

    void recordLocked(HealthEvent::Kind kind, size_t bank,
                      const Bank &state, double min_p,
                      std::string reason) QUAC_REQUIRES(mutex_);

    /* Set in the constructor, read-only afterwards: safe to read
     * without mutex_. */
    HealthConfig cfg_;
    size_t bankCount_ = 0;
    uint64_t rctCutoff_ = 0;
    uint64_t aptCutoff_ = 0;

    /* Each bank's score.state, stored (release) by setStateLocked
     * under mutex_ and read (acquire) without it. The store lands
     * before observe()/reportReadFailure() return, so before the
     * service bumps the re-source epoch that revalidation reads. */
    std::vector<std::atomic<BankState>> states_;

    mutable Mutex mutex_;
    std::vector<Bank> perBank_ QUAC_GUARDED_BY(mutex_);
    std::vector<HealthEvent> events_ QUAC_GUARDED_BY(mutex_);
    uint64_t totalQuarantines_ QUAC_GUARDED_BY(mutex_) = 0;
    uint64_t totalReadmissions_ QUAC_GUARDED_BY(mutex_) = 0;
    /** Scratch for completed-window results (reused). */
    std::vector<nist::HealthWindowResult> completed_
        QUAC_GUARDED_BY(mutex_);
};

} // namespace quac::service

#endif // QUAC_SERVICE_HEALTH_HH
