#include "service/health.hh"

#include <algorithm>

#include "common/error.hh"

namespace quac::service
{

const char *
bankStateName(BankState state)
{
    switch (state) {
    case BankState::Healthy: return "healthy";
    case BankState::Probation: return "probation";
    case BankState::Quarantined: return "quarantined";
    case BankState::Flagged: return "flagged";
    }
    return "?";
}

const char *
healthEventKindName(HealthEvent::Kind kind)
{
    switch (kind) {
    case HealthEvent::Kind::Quarantine: return "quarantine";
    case HealthEvent::Kind::Flag: return "flag";
    case HealthEvent::Kind::Probation: return "probation";
    case HealthEvent::Kind::Readmit: return "readmit";
    }
    return "?";
}

namespace
{

/** Assessed min-entropy per output bit. */
constexpr double kEntropyPerBit = 1.0;

/**
 * Continuous-test false-alarm exponent a (alpha = 2^-a) for the
 * RCT/APT cutoffs. The SP 800-90B tables are usually quoted at
 * a = 20, but at bit granularity that fires on healthy data every
 * ~2^20 bits; a = 40 (RCT cutoff 41 at H = 1.0) makes a false alarm a
 * once-per-terabyte event.
 */
constexpr int kAlphaExponent = 40;

} // anonymous namespace

HealthMonitor::HealthMonitor(size_t banks, HealthConfig cfg)
    : cfg_(cfg)
{
    if (banks == 0)
        fatal("health monitor needs at least one bank");
    if (cfg_.probationWindows == 0)
        fatal("health probation window count must be >= 1");

    nist::StreamingHealthConfig tester_cfg;
    tester_cfg.windowBits = cfg_.windowBits;
    tester_cfg.entropyPerBit = kEntropyPerBit;
    tester_cfg.alphaExponent = kAlphaExponent;

    // The tester constructor validates windowBits and computes the
    // cutoffs; construct one per bank.
    bankCount_ = banks;
    states_ = std::vector<std::atomic<BankState>>(banks);
    perBank_.reserve(banks);
    for (size_t b = 0; b < banks; ++b)
        perBank_.emplace_back(tester_cfg);
    rctCutoff_ = perBank_.front().tester.rctLimit();
    aptCutoff_ = perBank_.front().tester.aptLimit();
}

size_t
HealthMonitor::servableCountLocked() const
{
    size_t count = 0;
    for (const Bank &bank : perBank_) {
        BankState s = bank.score.state;
        count += s == BankState::Healthy || s == BankState::Flagged;
    }
    return count;
}

void
HealthMonitor::recordLocked(HealthEvent::Kind kind, size_t bank,
                            const Bank &state, double min_p,
                            std::string reason)
{
    HealthEvent event;
    event.kind = kind;
    event.bank = bank;
    event.window = state.score.windowsTested;
    event.minP = min_p;
    event.reason = std::move(reason);
    events_.push_back(std::move(event));
}

void
HealthMonitor::setStateLocked(size_t bank, Bank &state, BankState to)
{
    state.score.state = to;
    states_[bank].store(to, std::memory_order_release);
}

void
HealthMonitor::quarantineLocked(size_t bank, Bank &state,
                                double min_p,
                                const std::string &reason)
{
    state.score.consecutiveFailed = 0;
    state.score.consecutiveClean = 0;
    // The last servable bank is never quarantined: losing it would
    // leave the service with no entropy source at all, which is
    // worse than serving flagged bytes the caller can see are
    // suspect. It degrades to Flagged and keeps serving.
    bool last = servableCountLocked() <= 1 &&
                (state.score.state == BankState::Healthy ||
                 state.score.state == BankState::Flagged);
    if (last) {
        if (state.score.state != BankState::Flagged) {
            setStateLocked(bank, state, BankState::Flagged);
            recordLocked(HealthEvent::Kind::Flag, bank, state, min_p,
                         reason + " (last servable bank)");
        }
        return;
    }
    setStateLocked(bank, state, BankState::Quarantined);
    ++state.score.quarantines;
    ++totalQuarantines_;
    recordLocked(HealthEvent::Kind::Quarantine, bank, state, min_p,
                 reason);
}

void
HealthMonitor::windowFailedLocked(size_t bank, Bank &state,
                                  double min_p)
{
    BankScore &score = state.score;
    ++score.windowsFailed;
    ++score.consecutiveFailed;
    score.consecutiveClean = 0;

    switch (score.state) {
    case BankState::Healthy:
        if (score.consecutiveFailed >= kFailWindowLimit)
            quarantineLocked(bank, state, min_p, "failing windows");
        break;
    case BankState::Flagged:
        // Still failing: quarantine the moment an alternative
        // exists (another bank re-admitted or recovered).
        quarantineLocked(bank, state, min_p,
                         "flagged bank still failing");
        break;
    case BankState::Probation:
        setStateLocked(bank, state, BankState::Quarantined);
        ++score.quarantines;
        ++totalQuarantines_;
        recordLocked(HealthEvent::Kind::Quarantine, bank, state,
                     min_p, "probation window failed");
        break;
    case BankState::Quarantined:
        break;
    }
}

void
HealthMonitor::windowCleanLocked(size_t bank, Bank &state)
{
    BankScore &score = state.score;
    score.consecutiveFailed = 0;
    ++score.consecutiveClean;

    switch (score.state) {
    case BankState::Healthy:
        break;
    case BankState::Quarantined:
        setStateLocked(bank, state, BankState::Probation);
        recordLocked(HealthEvent::Kind::Probation, bank, state,
                     score.lastMinP, "first clean window");
        break;
    case BankState::Probation:
    case BankState::Flagged:
        if (score.consecutiveClean >= cfg_.probationWindows) {
            setStateLocked(bank, state, BankState::Healthy);
            ++score.readmissions;
            ++totalReadmissions_;
            recordLocked(HealthEvent::Kind::Readmit, bank, state,
                         score.lastMinP,
                         "consecutive clean windows");
        }
        break;
    }
}

bool
HealthMonitor::observe(size_t bank, const uint8_t *bytes, size_t len)
{
    QUAC_ASSERT(bank < bankCount_, "bank=%zu", bank);
    MutexLock lock(mutex_);
    Bank &state = perBank_[bank];
    // A successful read clears the consecutive-failure streak.
    state.score.consecutiveReadFailures = 0;

    size_t events_before = events_.size();
    completed_.clear();
    state.tester.consume(bytes, len, completed_);
    for (const nist::HealthWindowResult &window : completed_) {
        BankScore &score = state.score;
        ++score.windowsTested;
        double min_p = window.minP();
        score.lastMinP = min_p;
        score.maxRun = std::max(score.maxRun, window.maxRun);
        score.maxAptCount =
            std::max(score.maxAptCount, window.maxAptCount);
        bool failed = window.rctFailed || window.aptFailed ||
                      min_p < kPValueCutoff;
        if (failed)
            windowFailedLocked(bank, state, min_p);
        else
            windowCleanLocked(bank, state);
    }
    return events_.size() != events_before;
}

bool
HealthMonitor::reportReadFailure(size_t bank)
{
    QUAC_ASSERT(bank < bankCount_, "bank=%zu", bank);
    MutexLock lock(mutex_);
    Bank &state = perBank_[bank];
    BankScore &score = state.score;
    ++score.readFailures;
    ++score.consecutiveReadFailures;
    score.consecutiveClean = 0;

    size_t events_before = events_.size();
    switch (score.state) {
    case BankState::Healthy:
    case BankState::Flagged:
        if (score.consecutiveReadFailures >= kReadFailureLimit)
            quarantineLocked(bank, state, 1.0, "read failures");
        break;
    case BankState::Probation:
        // A probation draw failed outright: back to quarantine.
        setStateLocked(bank, state, BankState::Quarantined);
        ++score.quarantines;
        ++totalQuarantines_;
        recordLocked(HealthEvent::Kind::Quarantine, bank, state, 1.0,
                     "read failure during probation");
        break;
    case BankState::Quarantined:
        break;
    }
    return events_.size() != events_before;
}

bool
HealthMonitor::servable(size_t bank) const
{
    BankState s = state(bank);
    return s == BankState::Healthy || s == BankState::Flagged;
}

size_t
HealthMonitor::servableCount() const
{
    MutexLock lock(mutex_);
    return servableCountLocked();
}

BankState
HealthMonitor::state(size_t bank) const
{
    QUAC_ASSERT(bank < bankCount_, "bank=%zu", bank);
    return states_[bank].load(std::memory_order_acquire);
}

BankScore
HealthMonitor::score(size_t bank) const
{
    QUAC_ASSERT(bank < bankCount_, "bank=%zu", bank);
    MutexLock lock(mutex_);
    return perBank_[bank].score;
}

std::vector<BankScore>
HealthMonitor::scores() const
{
    MutexLock lock(mutex_);
    std::vector<BankScore> out;
    out.reserve(perBank_.size());
    for (const Bank &bank : perBank_)
        out.push_back(bank.score);
    return out;
}

std::vector<HealthEvent>
HealthMonitor::events() const
{
    MutexLock lock(mutex_);
    return events_;
}

uint64_t
HealthMonitor::quarantines() const
{
    MutexLock lock(mutex_);
    return totalQuarantines_;
}

uint64_t
HealthMonitor::readmissions() const
{
    MutexLock lock(mutex_);
    return totalReadmissions_;
}

} // namespace quac::service
