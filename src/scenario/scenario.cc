#include "scenario/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/error.hh"

namespace quac::scenario
{

const char *
phaseKindName(PhaseKind kind)
{
    switch (kind) {
    case PhaseKind::ChannelFail: return "chfail";
    case PhaseKind::ThermalDrift: return "drift";
    case PhaseKind::FlashCrowd: return "crowd";
    case PhaseKind::Fault: return "fault";
    }
    return "?";
}

namespace
{

/**
 * Backend the thermal governor's generator occupies: drift phases
 * retune and flush it. Backend 0 always exists (EntropyService
 * needs at least one backend).
 */
constexpr size_t kThermalBackend = 0;

/** Split on ':' keeping empty fields (they are parse errors). */
std::vector<std::string>
splitFields(const std::string &text, char sep)
{
    std::vector<std::string> fields;
    size_t start = 0;
    for (;;) {
        size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            fields.push_back(text.substr(start));
            return fields;
        }
        fields.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

uint64_t
parseUint(const std::string &field, const char *what,
          const std::string &spec)
{
    if (field.empty())
        fatal("phase '%s': empty %s field", spec.c_str(), what);
    uint64_t value = 0;
    for (char c : field) {
        if (c < '0' || c > '9')
            fatal("phase '%s': %s '%s' is not a non-negative integer",
                  spec.c_str(), what, field.c_str());
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            fatal("phase '%s': %s '%s' overflows", spec.c_str(), what,
                  field.c_str());
        value = value * 10 + digit;
    }
    return value;
}

double
parseDouble(const std::string &field, const char *what,
            const std::string &spec)
{
    if (field.empty())
        fatal("phase '%s': empty %s field", spec.c_str(), what);
    char *end = nullptr;
    double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0')
        fatal("phase '%s': %s '%s' is not a number", spec.c_str(),
              what, field.c_str());
    return value;
}

std::string
trimmed(const std::string &text)
{
    size_t begin = text.find_first_not_of(" \t\n");
    if (begin == std::string::npos)
        return {};
    size_t end = text.find_last_not_of(" \t\n");
    return text.substr(begin, end - begin + 1);
}

/** Half-open tick/byte windows [aStart, aStart+aLen) overlap? */
bool
windowsOverlap(uint64_t a_start, uint64_t a_len, uint64_t b_start,
               uint64_t b_len)
{
    return a_start < b_start + b_len && b_start < a_start + a_len;
}

} // anonymous namespace

PhaseSpec
PhaseSpec::parse(const std::string &text)
{
    std::vector<std::string> fields = splitFields(text, ':');
    if (fields.empty() || fields[0].empty())
        fatal("phase '%s': expected "
              "chfail | drift | crowd | fault first", text.c_str());

    PhaseSpec phase;
    const std::string &kind = fields[0];
    if (kind == "chfail") {
        if (fields.size() != 4)
            fatal("phase '%s': expected "
                  "chfail:<channel>:<start>:<len>", text.c_str());
        phase.kind = PhaseKind::ChannelFail;
        phase.channel = static_cast<size_t>(
            parseUint(fields[1], "channel", text));
        phase.startTick = parseUint(fields[2], "start tick", text);
        phase.lengthTicks = parseUint(fields[3], "length", text);
    } else if (kind == "drift") {
        if (fields.size() != 5)
            fatal("phase '%s': expected "
                  "drift:<start>:<len>:<fromC>:<toC>", text.c_str());
        phase.kind = PhaseKind::ThermalDrift;
        phase.startTick = parseUint(fields[1], "start tick", text);
        phase.lengthTicks = parseUint(fields[2], "length", text);
        phase.fromC = parseDouble(fields[3], "from-temperature", text);
        phase.toC = parseDouble(fields[4], "to-temperature", text);
    } else if (kind == "crowd") {
        if (fields.size() < 4 || fields.size() > 5)
            fatal("phase '%s': expected "
                  "crowd:<start>:<len>:<clients>[:<bytes>]",
                  text.c_str());
        phase.kind = PhaseKind::FlashCrowd;
        phase.startTick = parseUint(fields[1], "start tick", text);
        phase.lengthTicks = parseUint(fields[2], "length", text);
        phase.clients = parseUint(fields[3], "client count", text);
        if (phase.clients == 0)
            fatal("phase '%s': a crowd needs at least one client",
                  text.c_str());
        if (fields.size() == 5) {
            phase.requestBytes = static_cast<size_t>(
                parseUint(fields[4], "request bytes", text));
            if (phase.requestBytes == 0)
                fatal("phase '%s': crowd request bytes must be > 0",
                      text.c_str());
        }
    } else if (kind == "fault") {
        // Everything after "fault:" is a core::FaultSpec, which
        // fatal-parses its own fields (byte-addressed window).
        if (fields.size() < 2)
            fatal("phase '%s': expected fault:<bank>:<mode>:"
                  "<startByte>:<lenBytes>[:<param>]", text.c_str());
        phase.kind = PhaseKind::Fault;
        phase.fault =
            core::FaultSpec::parse(text.substr(kind.size() + 1));
        if (phase.fault.lengthBytes == 0)
            fatal("phase '%s': campaign faults must clear "
                  "(length > 0); permanent faults never let the "
                  "recovery assertions run", text.c_str());
        return phase; // fault windows are byte-, not tick-addressed
    } else {
        fatal("phase '%s': unknown kind '%s' "
              "(chfail | drift | crowd | fault)", text.c_str(),
              kind.c_str());
    }

    if (phase.lengthTicks == 0)
        fatal("phase '%s': zero-length window (the phase would "
              "never act)", text.c_str());
    return phase;
}

std::string
PhaseSpec::describe() const
{
    char buf[160];
    switch (kind) {
    case PhaseKind::ChannelFail:
        std::snprintf(buf, sizeof(buf), "chfail:%zu:%llu:%llu",
                      channel,
                      static_cast<unsigned long long>(startTick),
                      static_cast<unsigned long long>(lengthTicks));
        return buf;
    case PhaseKind::ThermalDrift:
        std::snprintf(buf, sizeof(buf), "drift:%llu:%llu:%g:%g",
                      static_cast<unsigned long long>(startTick),
                      static_cast<unsigned long long>(lengthTicks),
                      fromC, toC);
        return buf;
    case PhaseKind::FlashCrowd:
        std::snprintf(buf, sizeof(buf), "crowd:%llu:%llu:%llu:%zu",
                      static_cast<unsigned long long>(startTick),
                      static_cast<unsigned long long>(lengthTicks),
                      static_cast<unsigned long long>(clients),
                      requestBytes);
        return buf;
    case PhaseKind::Fault:
        return "fault:" + fault.describe();
    }
    return "?";
}

ScenarioSpec
ScenarioSpec::parse(const std::string &text)
{
    ScenarioSpec spec;
    for (const std::string &raw : splitFields(text, ',')) {
        std::string phase = trimmed(raw);
        if (phase.empty()) {
            if (trimmed(text).empty())
                continue; // "" => empty campaign
            fatal("campaign '%s': empty phase between commas",
                  text.c_str());
        }
        spec.phases.push_back(PhaseSpec::parse(phase));
    }
    return spec;
}

void
ScenarioSpec::validate(size_t channels, size_t banks) const
{
    for (const PhaseSpec &phase : phases) {
        if (phase.kind == PhaseKind::ChannelFail &&
            phase.channel >= channels) {
            fatal("phase '%s': channel %zu of %zu",
                  phase.describe().c_str(), phase.channel, channels);
        }
        if (phase.kind == PhaseKind::Fault &&
            phase.fault.bank >= banks) {
            fatal("phase '%s': bank %zu of %zu",
                  phase.describe().c_str(), phase.fault.bank, banks);
        }
    }
    // Same-kind same-target phases must not overlap: a channel
    // cannot fail while failed, the one module has one temperature,
    // concurrent crowds make the admission accounting unattributable,
    // and stacked fault windows on one bank hide each other. Compose
    // across kinds/targets freely.
    for (size_t i = 0; i < phases.size(); ++i) {
        for (size_t j = i + 1; j < phases.size(); ++j) {
            const PhaseSpec &a = phases[i];
            const PhaseSpec &b = phases[j];
            if (a.kind != b.kind)
                continue;
            bool overlap = false;
            switch (a.kind) {
            case PhaseKind::ChannelFail:
                // The recovery edge at start+len still acts on the
                // channel, so back-to-back windows need a gap.
                overlap = a.channel == b.channel &&
                          windowsOverlap(a.startTick,
                                         a.lengthTicks + 1,
                                         b.startTick,
                                         b.lengthTicks + 1);
                break;
            case PhaseKind::ThermalDrift:
            case PhaseKind::FlashCrowd:
                overlap = windowsOverlap(a.startTick, a.lengthTicks,
                                         b.startTick, b.lengthTicks);
                break;
            case PhaseKind::Fault:
                overlap = a.fault.bank == b.fault.bank &&
                          windowsOverlap(a.fault.startByte,
                                         a.fault.lengthBytes,
                                         b.fault.startByte,
                                         b.fault.lengthBytes);
                break;
            }
            if (overlap) {
                fatal("campaign: phases '%s' and '%s' overlap on "
                      "the same target",
                      a.describe().c_str(), b.describe().c_str());
            }
        }
    }
}

std::vector<core::FaultSpec>
ScenarioSpec::faultSpecs() const
{
    std::vector<core::FaultSpec> faults;
    for (const PhaseSpec &phase : phases) {
        if (phase.kind == PhaseKind::Fault)
            faults.push_back(phase.fault);
    }
    return faults;
}

uint64_t
ScenarioSpec::lastEventTick() const
{
    uint64_t last = 0;
    for (const PhaseSpec &phase : phases) {
        if (phase.kind == PhaseKind::Fault)
            continue;
        last = std::max(last, phase.startTick + phase.lengthTicks);
    }
    return last;
}

std::string
ScenarioSpec::describe() const
{
    std::string out;
    for (const PhaseSpec &phase : phases) {
        if (!out.empty())
            out += ",";
        out += phase.describe();
    }
    return out;
}

ScenarioEngine::ScenarioEngine(
    service::EntropyService &service,
    service::MultiChannelRefillScheduler &scheduler,
    ScenarioSpec spec, core::ThermalGovernor *thermal)
    : service_(service), scheduler_(scheduler),
      spec_(std::move(spec)), thermal_(thermal)
{
    spec_.validate(scheduler_.channels(), service_.backendCount());
    bool has_drift = false;
    for (const PhaseSpec &phase : spec_.phases)
        has_drift |= phase.kind == PhaseKind::ThermalDrift;
    if (has_drift && !thermal_)
        fatal("campaign has drift phases but no thermal governor");
}

void
ScenarioEngine::beginTick(uint64_t tick)
{
    QUAC_ASSERT(tick == nextTick_,
                "campaign ticks must be contiguous: got %llu, "
                "expected %llu",
                static_cast<unsigned long long>(tick),
                static_cast<unsigned long long>(nextTick_));
    ++nextTick_;

    for (const PhaseSpec &phase : spec_.phases) {
        switch (phase.kind) {
        case PhaseKind::ChannelFail:
            if (tick == phase.startTick) {
                scheduler_.failChannel(phase.channel);
                ++counters_.channelFailures;
            } else if (tick ==
                       phase.startTick + phase.lengthTicks) {
                scheduler_.recoverChannel(phase.channel);
                ++counters_.channelRecoveries;
            }
            break;
        case PhaseKind::ThermalDrift:
            if (tick >= phase.startTick &&
                tick < phase.startTick + phase.lengthTicks) {
                // Linear ramp hitting toC exactly on the last tick.
                uint64_t i = tick - phase.startTick;
                double frac =
                    phase.lengthTicks > 1
                        ? static_cast<double>(i) /
                              static_cast<double>(phase.lengthTicks -
                                                  1)
                        : 1.0;
                double temp =
                    phase.fromC + (phase.toC - phase.fromC) * frac;
                // The band switch runs under the backend lock; a
                // switch flushes the spans buffered across it as
                // suspect (the generator keeps serving — the next
                // fill simply runs under the new column sets).
                bool switched = false;
                size_t dropped = service_.retuneBackend(
                    kThermalBackend, [&]() {
                        switched =
                            thermal_->setTemperature(temp);
                        return switched;
                    });
                if (switched) {
                    ++counters_.bandSwitches;
                    counters_.suspectBytesDropped += dropped;
                }
            }
            break;
        case PhaseKind::FlashCrowd:
            if (tick >= phase.startTick &&
                tick < phase.startTick + phase.lengthTicks) {
                // Even spread, remainder on the earliest ticks.
                uint64_t i = tick - phase.startTick;
                uint64_t per = phase.clients / phase.lengthTicks;
                uint64_t extra = phase.clients % phase.lengthTicks;
                uint64_t due = per + (i < extra ? 1 : 0);
                for (uint64_t k = 0; k < due; ++k) {
                    std::string name =
                        "crowd-" +
                        std::to_string(counters_.crowdAttempted);
                    ++counters_.crowdAttempted;
                    service::EntropyService::AdmissionOutcome
                        outcome = service_.admit(
                            name, service::Priority::Bulk);
                    switch (outcome.decision) {
                    case service::AdmissionDecision::Admitted:
                        crowd_.push_back(
                            {*outcome.client, phase.requestBytes});
                        ++counters_.crowdAdmitted;
                        break;
                    case service::AdmissionDecision::Queued:
                        // Remember the issuing phase's request size
                        // so the client is adopted with it when the
                        // queue releases the connect.
                        queuedBytes_[name] = phase.requestBytes;
                        ++counters_.crowdQueued;
                        break;
                    case service::AdmissionDecision::Denied:
                        ++counters_.crowdDenied;
                        break;
                    }
                }
            }
            break;
        case PhaseKind::Fault:
            break; // armed at build time, byte-addressed
        }
    }

    // Adopt clients the admission queue released (the engine is the
    // campaign's only bulk-connect source, so every queued connect
    // is a crowd client).
    for (service::EntropyService::Client &client :
         service_.admissionTick()) {
        size_t bytes = 0;
        auto queued = queuedBytes_.find(client.name());
        if (queued != queuedBytes_.end()) {
            bytes = queued->second;
            queuedBytes_.erase(queued);
        }
        crowd_.push_back({client, bytes});
        ++counters_.crowdAdmitted;
    }
}

} // namespace quac::scenario
