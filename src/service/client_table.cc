#include "service/client_table.hh"

#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "common/error.hh"

namespace quac::service
{

namespace
{

/** Service client-name prefix of every wire client. */
constexpr std::string_view kNamePrefix = "net";

} // anonymous namespace

ClientTable::ClientTable(EntropyService &service,
                         ClientTableConfig cfg)
    : service_(service), cfg_(std::move(cfg))
{
    if (cfg_.capacity == 0)
        fatal("client table needs capacity >= 1");
    if (cfg_.perClientBytesPerSec < 0.0)
        fatal("client table pacing rate must be >= 0");
}

std::string
ClientTable::wireName(uint64_t id) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "-%016" PRIx64, id);
    return std::string(kNamePrefix) + buf;
}

bool
ClientTable::parseWireName(const std::string &name,
                           uint64_t &id) const
{
    // "<prefix>-" + exactly 16 hex digits.
    size_t fixed = kNamePrefix.size() + 1;
    if (name.size() != fixed + 16 ||
        name.compare(0, kNamePrefix.size(), kNamePrefix) != 0 ||
        name[kNamePrefix.size()] != '-')
        return false;
    uint64_t value = 0;
    for (size_t i = fixed; i < name.size(); ++i) {
        char c = name[i];
        uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint64_t>(c - 'a' + 10);
        else
            return false;
        value = (value << 4) | digit;
    }
    id = value;
    return true;
}

ClientTable::Entry *
ClientTable::install(uint64_t id, EntropyService::Client client)
{
    if (lru_.size() >= cfg_.capacity) {
        // Evict the least-recently-seen mapping. The entry holds
        // the table's only handle on its service client, so the
        // client's state is freed with the wire state — nonce
        // window, pacing tokens — the bounded table's documented
        // trade.
        byId_.erase(lru_.back().id);
        lru_.pop_back();
        ++stats_.evictions;
    }
    TokenBucket bucket(cfg_.perClientBytesPerSec,
                       cfg_.perClientBytesPerSec);
    lru_.emplace_front(id, std::move(client), bucket);
    byId_[id] = lru_.begin();
    ++stats_.inserts;
    return &lru_.front();
}

ClientTable::Acquire
ClientTable::acquire(uint64_t id, Priority priority)
{
    ++stats_.lookups;
    Acquire result;

    auto it = byId_.find(id);
    if (it != byId_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second); // touch
        result.status = AcquireStatus::Existing;
        result.entry = &*it->second;
        return result;
    }

    if (queuedIds_.count(id) != 0) {
        // Still parked in the service queue: do not admit() again —
        // a retry storm must not multiply queue entries.
        result.status = AcquireStatus::Queued;
        return result;
    }

    EntropyService::AdmissionOutcome outcome =
        service_.admit(wireName(id), priority);
    switch (outcome.decision) {
    case AdmissionDecision::Admitted:
        result.status = AcquireStatus::Created;
        result.entry = install(id, std::move(*outcome.client));
        return result;
    case AdmissionDecision::Queued:
        queuedIds_.insert(id);
        ++stats_.queued;
        result.status = AcquireStatus::Queued;
        return result;
    case AdmissionDecision::Denied:
        ++stats_.denied;
        result.status = AcquireStatus::Denied;
        return result;
    }
    fatal("unreachable admission decision");
}

ClientTable::NonceCheck
ClientTable::checkNonce(Entry &entry, uint64_t nonce)
{
    if (entry.seenNonce && nonce <= entry.lastNonce) {
        ++stats_.replays;
        return NonceCheck::Replay;
    }
    NonceCheck verdict = NonceCheck::Fresh;
    if (entry.seenNonce && nonce > entry.lastNonce + 1) {
        uint64_t missing = nonce - entry.lastNonce - 1;
        ++stats_.nonceGaps;
        stats_.missingSeqs += missing;
        verdict = NonceCheck::Gap;
    }
    entry.lastNonce = nonce;
    entry.seenNonce = true;
    return verdict;
}

size_t
ClientTable::pump()
{
    size_t adopted = 0;
    for (EntropyService::Client &client : service_.admissionTick()) {
        uint64_t id = 0;
        if (!parseWireName(client.name(), id)) {
            // Not one of ours: someone else queued a connect on the
            // same service. The handle is counted and dropped — this
            // table cannot route datagrams to it.
            ++stats_.foreignAdoptions;
            continue;
        }
        // A parked id is answered from queuedIds_ and never reaches
        // admit() again, so it has no live entry to replace.
        queuedIds_.erase(id);
        install(id, std::move(client));
        ++stats_.adopted;
        ++adopted;
    }
    return adopted;
}

} // namespace quac::service
