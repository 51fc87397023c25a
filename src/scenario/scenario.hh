/**
 * @file
 * Deterministic failure-scenario engine for the entropy service.
 *
 * The stack models a healthy steady state well; a production
 * QUAC-TRNG deployment also sees whole-channel outages, temperature
 * drift moving the entropy operating point mid-run (paper Section 8),
 * and flash crowds of connects (DR-STRaNGe's demand bursts). This
 * module composes those failure shapes into timed campaigns against
 * a *running* EntropyService + MultiChannelRefillScheduler pair:
 *
 *  - chfail:<channel>:<start>:<len>   — the channel fails at tick
 *    `start` (shards re-place onto servable channels) and recovers
 *    at tick `start+len` (displaced shards return home).
 *  - drift:<start>:<len>:<fromC>:<toC> — the module temperature
 *    ramps linearly across the window; each TemperatureTable band
 *    edge crossed switches the generator's column sets online
 *    (core::ThermalGovernor) and flushes the suspect spans buffered
 *    across the switch (EntropyService::retuneBackend).
 *  - crowd:<start>:<len>:<clients>[:<bytes>] — `clients` bulk
 *    connects spread evenly over the window, pushed through the
 *    service's SLO-aware admission gate (EntropyService::admit);
 *    queue-admitted clients are adopted each tick.
 *  - fault:<bank>:<mode>:<startByte>:<lenBytes>[:<param>] — a
 *    core::FaultSpec carried for the study harness, which wraps the
 *    bank in a FaultInjectedTrng before the service is built. The
 *    fault window is byte-addressed on the bank's stream (the PR 6
 *    machinery), so the engine itself does nothing at run time; the
 *    spec travels with the campaign so one string describes the
 *    whole composed scenario, and validation still applies.
 *
 * Everything is deterministic: phases are tick- or byte-addressed
 * with no randomness, so a campaign replays exactly — which is what
 * lets the studies assert byte-exact healthy replay with the engine
 * attached vs detached. Specs are fatal-parsed like core::FaultSpec:
 * unknown kinds, zero-length windows, out-of-range targets and
 * overlapping same-target phases are rejected at startup rather
 * than silently running a weaker campaign.
 */

#ifndef QUAC_SCENARIO_SCENARIO_HH
#define QUAC_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fault_injection.hh"
#include "core/thermal_governor.hh"
#include "service/entropy_service.hh"
#include "service/refill_scheduler.hh"

namespace quac::scenario
{

/** Campaign phase classes. */
enum class PhaseKind : uint8_t
{
    /** Channel outage + recovery (tick-addressed). */
    ChannelFail = 0,
    /** Linear temperature ramp (tick-addressed). */
    ThermalDrift = 1,
    /** Bulk-connect burst through admission control. */
    FlashCrowd = 2,
    /** Backend fault window (byte-addressed, build-time armed). */
    Fault = 3,
};

/** Display name ("chfail", "drift", "crowd", "fault"). */
const char *phaseKindName(PhaseKind kind);

/** One timed campaign phase. */
struct PhaseSpec
{
    PhaseKind kind = PhaseKind::ChannelFail;
    /** First tick of the phase (tick-addressed kinds). */
    uint64_t startTick = 0;
    /** Window length in ticks (> 0; recovery/ramp end at
     * startTick + lengthTicks). */
    uint64_t lengthTicks = 0;

    /** ChannelFail: the channel to take down. */
    size_t channel = 0;

    /** ThermalDrift: ramp endpoints in Celsius. */
    double fromC = 50.0;
    double toC = 50.0;

    /** FlashCrowd: connects spread across the window, and the
     * request size the study drives them with. */
    uint64_t clients = 0;
    size_t requestBytes = 1024;

    /** Fault: the byte-addressed backend fault. */
    core::FaultSpec fault;

    /**
     * Parse one phase in the syntax above. fatal() on unknown kind,
     * malformed fields, or a zero-length window — a mistyped
     * campaign must never run silently weaker.
     */
    static PhaseSpec parse(const std::string &text);

    /** The phase in parse() syntax (logs, JSON). */
    std::string describe() const;
};

/** A full campaign: phases plus cross-phase validation. */
struct ScenarioSpec
{
    std::vector<PhaseSpec> phases;

    /** Parse a comma-separated phase list (whitespace around commas
     * tolerated). fatal() on any malformed phase; an empty string
     * parses to an empty campaign. */
    static ScenarioSpec parse(const std::string &text);

    /**
     * Cross-phase validation against a concrete deployment: channel
     * and bank targets in range, and no two phases of the same kind
     * overlapping on the same target (two outages of one channel,
     * two drifts of the one module, two concurrent crowds, two
     * fault windows on one bank). fatal() with the offending pair —
     * mirrors FaultSpec's reject-at-startup contract.
     */
    void validate(size_t channels, size_t banks) const;

    /** The fault phases' specs, for arming FaultInjectedTrng
     * wrappers before the service is built. */
    std::vector<core::FaultSpec> faultSpecs() const;

    /** Last tick at which any tick-addressed phase still acts
     * (recovery edges included); 0 for fault-only campaigns. */
    uint64_t lastEventTick() const;

    /** The campaign in parse() syntax. */
    std::string describe() const;
};

/**
 * The campaign driver. The owner calls beginTick(t) for t = 0, 1,
 * ... *before* scheduler.tick() each tick; the engine applies every
 * phase edge falling on t (fail/recover a channel, step the
 * temperature ramp, issue crowd connects) and collects clients the
 * admission queue released. Deterministic: same spec + same tick
 * sequence => same actions.
 */
class ScenarioEngine
{
  public:
    /** Campaign effect counters. */
    struct Counters
    {
        uint64_t channelFailures = 0;
        uint64_t channelRecoveries = 0;
        /** TemperatureTable band switches performed by drift. */
        uint64_t bandSwitches = 0;
        /** Suspect bytes flushed across band switches. */
        uint64_t suspectBytesDropped = 0;
        uint64_t crowdAttempted = 0;
        /** Admitted immediately or from the queue. */
        uint64_t crowdAdmitted = 0;
        uint64_t crowdQueued = 0;
        uint64_t crowdDenied = 0;
    };

    /**
     * Validates @p spec against the deployment (fatal on mismatch).
     * @param thermal required iff the campaign has drift phases; its
     *        generator must be service backend 0 (drift phases
     *        retune and flush that backend). Flash-crowd clients
     *        are named "crowd-<n>".
     */
    ScenarioEngine(service::EntropyService &service,
                   service::MultiChannelRefillScheduler &scheduler,
                   ScenarioSpec spec,
                   core::ThermalGovernor *thermal = nullptr);

    /** Apply phase edges for @p tick; call before scheduler.tick().
     * Ticks must be issued in increasing order without gaps. */
    void beginTick(uint64_t tick);

    const Counters &counters() const { return counters_; }
    const ScenarioSpec &spec() const { return spec_; }

    /**
     * One admitted flash-crowd client, tagged with the request size
     * of the phase that issued its connect — overlapping campaigns
     * can run a small-request crowd and a large-request crowd
     * side by side, and the study loop drives each client with its
     * own phase's size instead of one size for everyone.
     */
    struct CrowdClient
    {
        service::EntropyService::Client client;
        size_t requestBytes = 0;
    };

    /**
     * Flash-crowd clients admitted so far (burst admissions plus
     * clients the admission queue released), each carrying its
     * phase's request size. The study loop drives their requests;
     * the engine only owns the handles.
     */
    const std::vector<CrowdClient> &crowdClients() const
    {
        return crowd_;
    }

  private:
    service::EntropyService &service_;
    service::MultiChannelRefillScheduler &scheduler_;
    ScenarioSpec spec_;
    core::ThermalGovernor *thermal_;
    Counters counters_;
    std::vector<CrowdClient> crowd_;
    /** Request size of each connect parked in the admission queue,
     * by client name, so a queue-released client is adopted with
     * its issuing phase's size. */
    std::unordered_map<std::string, size_t> queuedBytes_;
    uint64_t nextTick_ = 0;
};

} // namespace quac::scenario

#endif // QUAC_SCENARIO_SCENARIO_HH
