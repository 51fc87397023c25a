#include "service/shard_ring.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/error.hh"

namespace quac::service
{

size_t
ShardRing::level() const
{
    uint64_t tail = tail_.load(std::memory_order_acquire);
    // seq_cst: the producer's half of the wake-up handshake (see the
    // file comment); as cheap as a relaxed load on x86.
    uint64_t claim = claim_.load(std::memory_order_seq_cst);
    // claim may have passed the tail read above since.
    return tail > claim ? static_cast<size_t>(tail - claim) : 0;
}

size_t
ShardRing::take(uint8_t *out, size_t len, bool all_or_nothing)
{
    if (len == 0)
        return 0;
    // relaxed: first guess only; the CAS below is the synchronizing
    // operation.
    uint64_t claim = claim_.load(std::memory_order_relaxed);
    uint64_t pos;
    size_t got;
    for (;;) {
        // Kept apart from claim, which the CAS writes back: the
        // copy's index math below then need not wait for the CAS.
        pos = claim;
        uint64_t tail = tail_.load(std::memory_order_acquire);
        // A stale claim guess may read ahead of this tail; then there
        // is nothing to take as far as this read knows.
        uint64_t avail = tail > pos ? tail - pos : 0;
        got = static_cast<size_t>(std::min<uint64_t>(len, avail));
        if (got == 0 || (all_or_nothing && got < len))
            return 0;
        // relaxed: CAS failure order — the reloaded claim is retried;
        // success is seq_cst, the consumer's half of the wake-up
        // handshake (a locked RMW on x86 either way).
        if (claim_.compare_exchange_weak(claim, pos + got,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed))
            break;
    }
    // The acquire on tail ordered the producer's byte writes, and any
    // earlier resize(), before these reads; resize() and reserve()
    // cannot touch the range until this claim's readDone retires.
    size_t size = storage_.size();
    size_t start = static_cast<size_t>(pos % size);
    size_t first = std::min(got, size - start);
    std::memcpy(out, storage_.data() + start, first);
    if (got > first)
        std::memcpy(out + first, storage_.data(), got - first);
    // Ticket-ordered completion: readDone advances in claim order, so
    // the producer's overwrite horizon (readDone + size) never runs
    // past an unfinished copy. The wait is bounded by the memcpys of
    // earlier claimants, who hold no lock.
    while (readDone_.load(std::memory_order_acquire) != pos)
        std::this_thread::yield();
    readDone_.store(pos + got, std::memory_order_release);
    return got;
}

ShardRing::Spans
ShardRing::reserve(size_t n)
{
    size_t size = storage_.size();
    QUAC_ASSERT(n > 0 && level() + n <= size,
                "reserving %zu bytes with %zu of %zu buffered", n,
                level(), size);
    // relaxed: only the serialized producer side stores tail.
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    // The span may still be under in-flight copies (readDone trails
    // claim by the claimed ranges); wait for them to retire. They
    // need only CPU time, not any lock the caller holds.
    while (tail - readDone_.load(std::memory_order_acquire) + n > size)
        std::this_thread::yield();
    size_t start = static_cast<size_t>(tail % size);
    size_t first = std::min(n, size - start);
    return {{storage_.data() + start, first},
            {storage_.data(), n - first}};
}

void
ShardRing::publish(size_t n)
{
    // relaxed: only the serialized producer side stores tail; the
    // release store below is what hands the bytes to take().
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    tail_.store(tail + n, std::memory_order_release);
}

size_t
ShardRing::flush()
{
    // relaxed: tail is the serialized producer side's own; the CAS
    // below orders the claim jump.
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t claim = claim_.load(std::memory_order_relaxed);
    do {
        if (claim == tail)
            return 0;
        // relaxed: CAS failure order of the retry loop.
    } while (!claim_.compare_exchange_weak(claim, tail,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
    // No consumer claimed the dropped span, so no ticket will retire
    // it: readDone must skip it or reserve() would starve once the
    // write horizon wraps. First let in-flight copies (tickets below
    // the old claim) retire, then jump over the span. No new claim
    // can start meanwhile: claim == tail, and only this side
    // publishes.
    while (readDone_.load(std::memory_order_acquire) != claim)
        std::this_thread::yield();
    readDone_.store(tail, std::memory_order_release);
    return static_cast<size_t>(tail - claim);
}

void
ShardRing::resize(size_t bytes)
{
    if (bytes == storage_.size())
        return;
    QUAC_ASSERT(level() == 0, "resizing a ring holding %zu bytes",
                level());
    // Copies claimed before the ring emptied may still read the old
    // storage: a flush that dropped nothing returns without waiting
    // for them. With the ring empty, claim == tail.
    // relaxed: only the serialized producer side stores tail.
    uint64_t claim = tail_.load(std::memory_order_relaxed);
    while (readDone_.load(std::memory_order_acquire) != claim)
        std::this_thread::yield();
    storage_.assign(bytes, 0);
}

} // namespace quac::service
