/**
 * @file
 * Bounded wire-client table: the network front end's adapter onto
 * the EntropyService.
 *
 * A UDP server cannot hold unbounded per-client state — an attacker
 * (or a million honest clients) would exhaust it. The table maps
 * 64-bit wire client ids onto EntropyService clients through the
 * service's existing SLO-aware admission gate, holds at most
 * `capacity` live mappings, and evicts the least-recently-seen
 * mapping when a new client arrives at capacity. Each entry carries
 * the wire-protocol per-client state the service itself has no
 * business knowing: the last sequence nonce (replay and gap
 * detection) and a token bucket (per-client pacing).
 *
 * An entry holds the table's handle on its service client, so
 * eviction frees the service-side client state with the wire state:
 * the table's memory stays bounded by `capacity` however many ids
 * churn through it. A returning evicted client re-enters through the
 * admission gate as a fresh client with a fresh nonce window. That
 * forgetting is the bounded table's deliberate trade: replay
 * protection spans a client's residency, not all time.
 *
 * Bulk connects the gate parks (AdmissionDecision::Queued) are
 * remembered by id so retries do not multiply queue entries; pump()
 * drives the service's admissionTick and installs each released
 * connect as a live entry, which the LRU evicts like any other if
 * its client never comes back. The table expects to own the
 * service's admission loop — a concurrently admitting subsystem
 * would race it for released connects.
 *
 * Single-threaded by design, like the epoll loop that owns it.
 */

#ifndef QUAC_SERVICE_CLIENT_TABLE_HH
#define QUAC_SERVICE_CLIENT_TABLE_HH

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/token_bucket.hh"
#include "service/entropy_service.hh"

namespace quac::service
{

/** Client-table parameters. */
struct ClientTableConfig
{
    /** Maximum live wire-client mappings (>= 1). */
    size_t capacity = 4096;
    /**
     * Per-client pacing rate in payload bytes/s (0 = unpaced); each
     * bucket holds one second of it.
     */
    double perClientBytesPerSec = 0.0;
};

/** Bounded LRU map of wire clients onto service clients. */
class ClientTable
{
  public:
    /** One live wire-client mapping. */
    struct Entry
    {
        uint64_t id = 0;
        EntropyService::Client client;
        /** Per-client pacing bucket (unlimited when unpaced). */
        TokenBucket bucket;
        /** Highest nonce seen; valid once seenNonce. */
        uint64_t lastNonce = 0;
        bool seenNonce = false;

        Entry(uint64_t id_, EntropyService::Client client_,
              TokenBucket bucket_)
            : id(id_), client(std::move(client_)), bucket(bucket_)
        {
        }
    };

    /** How acquire() resolved the id. */
    enum class AcquireStatus : uint8_t
    {
        /** Entry already live (LRU refreshed). */
        Existing = 0,
        /** Newly admitted and installed (possibly evicting). */
        Created = 1,
        /** Parked in the service admission queue; retry later. */
        Queued = 2,
        /** Admission denied outright (queue overflow). */
        Denied = 3,
    };

    struct Acquire
    {
        AcquireStatus status = AcquireStatus::Denied;
        /** Valid iff status is Existing or Created; owned by the
         * table and invalidated by the next acquire() or pump()
         * (eviction). */
        Entry *entry = nullptr;
    };

    /** Nonce-sequence verdict for one request. */
    enum class NonceCheck : uint8_t
    {
        /** Next in sequence (lastNonce + 1, or the first seen). */
        Fresh = 0,
        /** Fresh but skipped ahead: earlier requests were lost. */
        Gap = 1,
        /** At or below lastNonce: duplicate or replayed datagram. */
        Replay = 2,
    };

    ClientTable(EntropyService &service, ClientTableConfig cfg);

    ClientTable(const ClientTable &) = delete;
    ClientTable &operator=(const ClientTable &) = delete;

    /**
     * Resolve @p id to a live entry, admitting through the service
     * gate on first contact. @p priority only matters for that
     * first admission — an entry's service client keeps the class
     * it connected with. A new entry's pacing bucket starts full;
     * its first take anchors its clock.
     */
    Acquire acquire(uint64_t id, Priority priority);

    /**
     * Record @p nonce against @p entry: updates lastNonce and the
     * table's replay/gap counters, returns the verdict. Replays
     * leave lastNonce untouched; the caller must not serve them.
     */
    NonceCheck checkNonce(Entry &entry, uint64_t nonce);

    /**
     * One admission control-loop step: drives the service's
     * admissionTick and installs the connects the queue released
     * (evicting LRU victims at capacity). Returns the number
     * adopted.
     */
    size_t pump();

    /** Live mappings. */
    size_t size() const { return lru_.size(); }

    /** Aggregate counters. */
    struct Stats
    {
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t inserts = 0;
        /** LRU evictions to make room at capacity. */
        uint64_t evictions = 0;
        uint64_t queued = 0;
        uint64_t denied = 0;
        /** Connects adopted from the admission queue. */
        uint64_t adopted = 0;
        /** admissionTick clients whose name was not ours (dropped;
         * see the class comment on owning the admission loop). */
        uint64_t foreignAdoptions = 0;
        uint64_t replays = 0;
        uint64_t nonceGaps = 0;
        uint64_t missingSeqs = 0;
    };

    const Stats &stats() const { return stats_; }

    /** The service-client name for a wire id
     * ("net-<16-hex-digit id>"). */
    std::string wireName(uint64_t id) const;

    /**
     * Parse an id back out of a wireName()-formatted name.
     * @return true on success.
     */
    bool parseWireName(const std::string &name, uint64_t &id) const;

  private:
    /** Install a mapping (evicting the LRU victim at capacity). */
    Entry *install(uint64_t id, EntropyService::Client client);

    EntropyService &service_;
    ClientTableConfig cfg_;
    /** Front = most recently seen; back = eviction victim. */
    std::list<Entry> lru_;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> byId_;
    /** Ids currently parked in the service admission queue. */
    std::unordered_set<uint64_t> queuedIds_;
    Stats stats_;
};

} // namespace quac::service

#endif // QUAC_SERVICE_CLIENT_TABLE_HH
