/**
 * @file
 * One shard's buffer of generated entropy: a single-producer,
 * multi-consumer byte ring over a slice of controller SRAM (the
 * buffer the paper's Section 9 keeps in the memory controller and
 * refills from idle DRAM bandwidth).
 *
 * The ring is addressed by plain monotonic 64-bit byte positions held
 * in three atomic cursors:
 *
 *  - tail:     bytes the producer has published, stored with release
 *              after the bytes are written (publish());
 *  - claim:    bytes consumers have claimed: take() CASes it forward,
 *              then copies storage[pos % size);
 *  - readDone: bytes fully copied out. Consumers advance it in claim
 *              (ticket) order, and reserve() waits until it clears
 *              the span about to be written, so a claimed range stays
 *              stable for its whole copy.
 *
 * Invariant: readDone <= claim <= tail and tail - readDone <= size.
 * Positions never reset, not even when resize() swaps the storage, so
 * a claim CAS cannot succeed across a swap: the producer side holds
 * claim == tail while it swaps, and a monotonic cursor has no ABA.
 * (2^64 bytes outlast any run: 584 years at 1 GB/s.)
 *
 * The consumer side (take, level) is lock-free and safe from any
 * thread. The producer side (reserve, publish, flush, resize) must be
 * serialized by the caller; EntropyService holds Shard::mutex for it.
 *
 * Memory-order contract: a successful claim CAS in take() and
 * level()'s claim load are seq_cst. EntropyService::wakeProducer's
 * wake-up handshake depends on it: a consumer claims, then reads the
 * producer's sleep flag; the producer sets that flag, then reads
 * level(); with all four operations seq_cst, at least one side sees
 * the other.
 */

#ifndef QUAC_SERVICE_SHARD_RING_HH
#define QUAC_SERVICE_SHARD_RING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace quac::service
{

/** Single-producer/multi-consumer byte ring; see the file comment. */
class ShardRing
{
  public:
    /** Where the producer writes a reserved range: first, then the
     * part that wraps to the start of the storage (empty unless the
     * range crosses its end). */
    struct Spans
    {
        std::span<uint8_t> first;
        std::span<uint8_t> second;
    };

    /** Buffered, unclaimed bytes (tail - claim); wait-free. */
    size_t level() const;

    /**
     * Claim and copy up to @p len buffered bytes into @p out;
     * lock-free. With @p all_or_nothing only a full @p len is ever
     * claimed. Returns the bytes copied.
     */
    size_t take(uint8_t *out, size_t len, bool all_or_nothing);

    /**
     * Producer side: wait until in-flight copies clear @p n bytes
     * past tail, then return the spans to write them into (valid
     * until the next resize()). 0 < @p n and level() + @p n <= the
     * storage size. Nothing is visible to consumers until publish().
     */
    Spans reserve(size_t n);

    /** Producer side: hand @p n reserved, written bytes to the
     * consumers (release-stores tail += n). */
    void publish(size_t n);

    /**
     * Producer side: drop the buffered, unclaimed bytes. A racing
     * take() may still claim part of them first; only the remainder
     * is dropped. Returns the bytes dropped.
     */
    size_t flush();

    /**
     * Producer side: replace the storage with @p bytes zeroed bytes
     * (a no-op when the size is unchanged). The ring must be empty;
     * resize() waits for copies still reading the old storage, and
     * positions keep counting.
     */
    void resize(size_t bytes);

  private:
    // The cursors lead the object: an owner that puts up to 40 bytes
    // of its own per-request state on a 64-byte line right before the
    // ring keeps everything a request writes on that one line.
    std::atomic<uint64_t> claim_{0};
    std::atomic<uint64_t> tail_{0};
    std::atomic<uint64_t> readDone_{0};
    std::vector<uint8_t> storage_;
};

} // namespace quac::service

#endif // QUAC_SERVICE_SHARD_RING_HH
