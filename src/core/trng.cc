#include "core/trng.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hh"
#include "crypto/sha256.hh"

namespace quac::core
{

std::vector<uint8_t>
Trng::generate(size_t len)
{
    std::vector<uint8_t> out(len);
    fill(out.data(), len);
    return out;
}

Bitstream
Trng::generateBits(size_t nbits)
{
    std::vector<uint8_t> bytes = generate((nbits + 7) / 8);
    Bitstream bits;
    bits.appendBytes(bytes.data(), nbits);
    return bits;
}

std::array<uint8_t, 32>
Trng::random256()
{
    std::array<uint8_t, 32> out;
    fill(out.data(), out.size());
    return out;
}

QuacTrng::QuacTrng(dram::DramModule &module, QuacTrngConfig cfg)
    : module_(module), cfg_(std::move(cfg))
{
    const dram::Geometry &geom = module_.geometry();
    if (cfg_.banks.empty())
        fatal("QuacTrng needs at least one bank");
    for (size_t i = 0; i < cfg_.banks.size(); ++i) {
        if (cfg_.banks[i] >= geom.banks)
            fatal("bank %u out of range", cfg_.banks[i]);
        for (size_t j = i + 1; j < cfg_.banks.size(); ++j) {
            if (cfg_.banks[i] == cfg_.banks[j]) {
                fatal("bank %u listed twice; each plan must own its "
                      "bank's command stream",
                      cfg_.banks[i]);
            }
        }
    }
}

void
QuacTrng::setup()
{
    const dram::Geometry &geom = module_.geometry();
    Characterizer characterizer(module_);
    plans_.clear();

    for (uint32_t bank : cfg_.banks) {
        CharacterizerConfig ccfg;
        ccfg.bank = bank;
        ccfg.pattern = cfg_.pattern;
        ccfg.temperatureC = module_.temperature();
        ccfg.ageDays = module_.ageDays();
        ccfg.segmentStride = cfg_.characterizeStride;
        ccfg.threads = cfg_.threads;

        BankPlan plan;
        plan.bank = bank;
        SegmentEntropy best = characterizer.bestSegment(ccfg);
        plan.segment = best.segment;
        plan.segmentEntropy = best.entropy;

        // Reserve the two bulk-initialization rows in a neighbouring
        // segment of the same subarray (RowClone cannot cross
        // subarrays, and same-segment ACT pairs would QUAC).
        uint32_t base = geom.firstRowOfSegment(plan.segment);
        uint32_t neighbour;
        if (plan.segment > 0 &&
            geom.subarrayOfRow(base - 1) == geom.subarrayOfRow(base)) {
            neighbour = base - dram::Geometry::rowsPerSegment;
        } else {
            neighbour = base + dram::Geometry::rowsPerSegment;
            QUAC_ASSERT(geom.subarrayOfRow(neighbour) ==
                        geom.subarrayOfRow(base),
                        "no same-subarray neighbour for segment %u",
                        plan.segment);
        }
        plan.zeroRow = neighbour;
        plan.oneRow = neighbour + 1;

        // SHA input block column ranges at the current temperature.
        auto cb_entropy = characterizer.cacheBlockEntropies(
            bank, plan.segment, cfg_.pattern, module_.temperature(),
            module_.ageDays());
        plan.ranges = sibRanges(cb_entropy, cfg_.sibEntropyTarget);
        if (plan.ranges.empty()) {
            fatal("segment %u of bank %u cannot supply %g bits of "
                  "entropy per block",
                  plan.segment, bank, cfg_.sibEntropyTarget);
        }

        plans_.push_back(std::move(plan));
    }

    // Rebuild the per-plan command cursors, synchronized past every
    // command issued so far so per-bank gaps stay non-negative after
    // a recharacterization.
    for (const softmc::SoftMcHost &host : hosts_)
        epoch_ = std::max(epoch_, host.now());
    hosts_.clear();
    hosts_.reserve(plans_.size());
    scratch_.assign(plans_.size(),
                    std::vector<uint64_t>(geom.wordsPerRow()));

    for (const BankPlan &plan : plans_) {
        hosts_.emplace_back(module_);
        softmc::SoftMcHost &host = hosts_.back();
        host.wait(epoch_);

        // Fill the reserved rows once; RowClone re-reads them every
        // iteration without consuming data-bus bandwidth.
        host.writeRowFill(plan.bank, plan.zeroRow, false);
        host.writeRowFill(plan.bank, plan.oneRow, true);
    }
    ready_ = true;
}

void
QuacTrng::recharacterize()
{
    setup();
}

void
QuacTrng::applyColumnRanges(
    const std::vector<std::vector<ColumnRange>> &per_plan)
{
    if (!ready_)
        setup();
    if (per_plan.size() != plans_.size()) {
        fatal("applyColumnRanges: %zu range sets for %zu plans",
              per_plan.size(), plans_.size());
    }
    const dram::Geometry &geom = module_.geometry();
    for (size_t i = 0; i < per_plan.size(); ++i) {
        if (per_plan[i].empty())
            fatal("applyColumnRanges: plan %zu got no ranges", i);
        for (const ColumnRange &range : per_plan[i]) {
            if (range.beginColumn >= range.endColumn ||
                range.endColumn > geom.cacheBlocksPerRow()) {
                fatal("applyColumnRanges: plan %zu range [%u, %u) "
                      "outside the %u-block row",
                      i, range.beginColumn, range.endColumn,
                      geom.cacheBlocksPerRow());
            }
        }
    }
    for (size_t i = 0; i < plans_.size(); ++i)
        plans_[i].ranges = per_plan[i];
    // Drop any partial iteration generated under the old calibration:
    // it spans the switch, and its geometry no longer matches.
    buffer_.clear();
    bufferHead_ = 0;
}

size_t
QuacTrng::bitsPerIteration() const
{
    size_t sib = 0;
    for (const BankPlan &plan : plans_)
        sib += plan.ranges.size();
    return sib * 256;
}

size_t
QuacTrng::bytesPerIteration() const
{
    if (cfg_.useSha)
        return bitsPerIteration() / 8;
    const size_t block_bytes = module_.geometry().cacheBlockBits / 8;
    size_t bytes = 0;
    for (const BankPlan &plan : plans_) {
        for (const ColumnRange &range : plan.ranges) {
            bytes +=
                (range.endColumn - range.beginColumn) * block_bytes;
        }
    }
    return bytes;
}

size_t
QuacTrng::preferredChunkBytes()
{
    if (!ready_)
        setup();
    return bytesPerIteration();
}

void
QuacTrng::initSegment(const BankPlan &plan, softmc::SoftMcHost &host)
{
    const dram::Geometry &geom = module_.geometry();
    uint32_t base = geom.firstRowOfSegment(plan.segment);
    for (uint32_t i = 0; i < dram::Geometry::rowsPerSegment; ++i) {
        bool one = (cfg_.pattern >> i) & 1;
        host.rowCloneCopy(plan.bank, one ? plan.oneRow : plan.zeroRow,
                          base + i);
    }
}

size_t
QuacTrng::readPlanRaw(size_t plan_index)
{
    const BankPlan &plan = plans_[plan_index];
    softmc::SoftMcHost &host = hosts_[plan_index];
    const size_t block_words = module_.geometry().cacheBlockBits / 64;

    initSegment(plan, host);
    host.quac(plan.bank, plan.segment);

    // Every SIB range lands back to back in the scratch row (their
    // total width never exceeds one row); hashing happens after the
    // bank is closed, which leaves the command stream unchanged (the
    // cursor only advances on commands and waits, never on hashing).
    uint64_t *words = scratch_[plan_index].data();
    size_t offset = 0;
    for (const ColumnRange &range : plan.ranges) {
        size_t nwords =
            (range.endColumn - range.beginColumn) * block_words;
        host.readColumns(plan.bank, range.beginColumn, range.endColumn,
                         words + offset);
        offset += nwords;
    }
    host.preObeyed(plan.bank);

    if constexpr (std::endian::native == std::endian::big) {
        // Wire order is little-endian bytes per word (the data bus's
        // order): swap in place so the row's bytes read as sent.
        for (size_t w = 0; w < offset; ++w) {
            uint64_t word = words[w];
            uint64_t swapped = 0;
            for (int b = 0; b < 8; ++b, word >>= 8)
                swapped = (swapped << 8) | (word & 0xff);
            words[w] = swapped;
        }
    }
    return offset;
}

void
QuacTrng::runIterationsInto(uint8_t *out, size_t count)
{
    // Drive every bank's commands first. Raw reads copy each plan's
    // SIB bytes as they land; with SHA, ALL the iteration's SIBs are
    // hashed as one batch, the digests coming out in plan order,
    // then range order, which is exactly the iteration's output
    // layout.
    const size_t block_bytes = module_.geometry().cacheBlockBits / 8;
    std::vector<Sha256::Job> jobs;
    std::vector<Sha256::Digest> digests;
    for (size_t k = 0; k < count; ++k) {
        jobs.clear();
        for (size_t i = 0; i < plans_.size(); ++i) {
            size_t nwords = readPlanRaw(i);
            const uint8_t *bytes =
                reinterpret_cast<const uint8_t *>(scratch_[i].data());
            if (!cfg_.useSha) {
                std::memcpy(out, bytes, nwords * 8);
                out += nwords * 8;
                continue;
            }
            for (const ColumnRange &range : plans_[i].ranges) {
                size_t nbytes =
                    (range.endColumn - range.beginColumn) * block_bytes;
                jobs.push_back({bytes, nbytes});
                bytes += nbytes;
            }
        }
        digests.resize(jobs.size());
        Sha256::hashBatch(jobs.data(), jobs.size(), digests.data());
        for (const Sha256::Digest &digest : digests) {
            std::memcpy(out, digest.data(), digest.size());
            out += digest.size();
        }
    }
    iterations_ += count;
}

void
QuacTrng::runIteration()
{
    buffer_.resize(bytesPerIteration());
    bufferHead_ = 0;
    runIterationsInto(buffer_.data(), 1);
}

void
QuacTrng::fill(uint8_t *out, size_t len)
{
    if (!ready_)
        setup();
    const size_t iter_bytes = bytesPerIteration();
    QUAC_ASSERT(iter_bytes > 0, "setup produced no output ranges");

    size_t produced = 0;
    while (produced < len) {
        size_t available = buffer_.size() - bufferHead_;
        if (available > 0) {
            size_t take = std::min(available, len - produced);
            std::memcpy(out + produced, buffer_.data() + bufferHead_,
                        take);
            bufferHead_ += take;
            produced += take;
        } else if (len - produced >= iter_bytes) {
            // Whole iterations go straight into the caller's buffer,
            // skipping the staging copy entirely.
            size_t whole = (len - produced) / iter_bytes;
            runIterationsInto(out + produced, whole);
            produced += whole * iter_bytes;
        } else {
            runIteration();
        }
    }
}

Bitstream
QuacTrng::rawIteration(size_t plan_index)
{
    if (!ready_)
        setup();
    QUAC_ASSERT(plan_index < plans_.size(), "plan %zu", plan_index);
    const BankPlan &plan = plans_[plan_index];
    softmc::SoftMcHost &host = hosts_[plan_index];
    const dram::Geometry &geom = module_.geometry();

    initSegment(plan, host);
    host.quac(plan.bank, plan.segment);

    uint64_t *words = scratch_[plan_index].data();
    host.readColumns(plan.bank, 0, geom.cacheBlocksPerRow(), words);
    host.preObeyed(plan.bank);
    ++iterations_;

    Bitstream raw;
    raw.appendWords(words,
                    static_cast<size_t>(geom.cacheBlocksPerRow()) *
                        geom.cacheBlockBits);
    return raw;
}

} // namespace quac::core
