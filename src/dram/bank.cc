#include "dram/bank.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace quac::dram
{

namespace
{

/** FNV-1a 64-bit accumulation over an arbitrary value's bytes. */
template <typename T>
uint64_t
fnvMix(uint64_t hash, const T &value)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Word-granular FNV-1a variant for bulk row contents: one xor-multiply
 * per 64-bit word instead of eight. The probability-cache key hashes
 * every contributing row per sensing event, so this sits on the hot
 * path; cache keying only needs collision resistance, not avalanche
 * quality, and the multiply chain keeps full 64-bit diffusion.
 */
uint64_t
fnvMixWords(uint64_t hash, const std::vector<uint64_t> &words)
{
    for (uint64_t w : words) {
        hash ^= w;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr uint64_t fnvBasis = 0xcbf29ce484222325ULL;

/**
 * +1 if the first @p nbits bits of @p words are all ones, -1 if all
 * zeros, 0 otherwise. Lets the deviation accumulation use a constant
 * sign (and hence a vectorizable FMA pass) for the TRNG's uniform
 * init rows and full-rail residuals.
 */
int
constantRowSign(const std::vector<uint64_t> &words, uint32_t nbits)
{
    bool zeros = true;
    bool ones = true;
    uint32_t full = nbits / 64;
    for (uint32_t w = 0; w < full; ++w) {
        zeros = zeros && words[w] == 0;
        ones = ones && words[w] == ~uint64_t{0};
        if (!zeros && !ones)
            return 0;
    }
    if (uint32_t tail = nbits % 64) {
        uint64_t mask = (uint64_t{1} << tail) - 1;
        zeros = zeros && (words[full] & mask) == 0;
        ones = ones && (words[full] & mask) == mask;
    }
    if (zeros)
        return -1;
    if (ones)
        return 1;
    return 0;
}

/**
 * Second-chance eviction sweep: drop every entry not hit since the
 * last sweep and demote the survivors. If everything was hot (the
 * working set exceeds the capacity), drop alternate entries so the
 * cache still shrinks instead of thrashing on a full clear.
 */
template <typename Map>
void
evictColdEntries(Map &map)
{
    bool erased = false;
    for (auto it = map.begin(); it != map.end();) {
        if (!it->second.hot) {
            it = map.erase(it);
            erased = true;
        } else {
            it->second.hot = false;
            ++it;
        }
    }
    if (!erased) {
        bool drop = true;
        for (auto it = map.begin(); it != map.end();) {
            if (drop)
                it = map.erase(it);
            else
                ++it;
            drop = !drop;
        }
    }
}

} // anonymous namespace

Bank::Bank(const BankContext *ctx, uint32_t bank_id, uint64_t noise_seed)
    : ctx_(ctx), bankId_(bank_id), noise_(noise_seed)
{
    QUAC_ASSERT(ctx && ctx->geom && ctx->cal && ctx->variation,
                "bank context incomplete");
    sa_.assign(ctx_->geom->wordsPerRow(), 0);
}

std::vector<uint64_t> &
Bank::rowStorage(uint32_t row)
{
    // Handing out a mutable reference invalidates the row's cached
    // content digest (this is the only mutation path into rows_).
    rowDigests_.erase(row);
    auto it = rows_.find(row);
    if (it == rows_.end()) {
        it = rows_.emplace(row,
                           std::vector<uint64_t>(ctx_->geom->wordsPerRow(),
                                                 0)).first;
    }
    return it->second;
}

uint64_t
Bank::rowDigest(uint32_t row, const std::vector<uint64_t> &words) const
{
    auto it = rowDigests_.find(row);
    if (it == rowDigests_.end()) {
        it = rowDigests_.emplace(row, fnvMixWords(fnvBasis, words))
                 .first;
    }
    return it->second;
}

bool
Bank::cellValue(uint32_t row, uint32_t bitline) const
{
    auto it = rows_.find(row);
    if (it == rows_.end())
        return false;
    return (it->second[bitline / 64] >> (bitline % 64)) & 1;
}

void
Bank::latchFromRow(uint32_t row)
{
    if (row & 1)
        latches_.a0 = true;
    else
        latches_.a0b = true;
    if (row & 2)
        latches_.a1 = true;
    else
        latches_.a1b = true;
}

std::vector<uint32_t>
Bank::rowsSelectedByLatches() const
{
    // Product terms of the hypothetical decoder (paper Fig 4):
    // S0 = A0b.A1b, S1 = A0.A1b, S2 = A0b.A1, S3 = A0.A1.
    std::vector<uint32_t> rows;
    uint32_t base = latches_.mwl << 2;
    if (latches_.a0b && latches_.a1b)
        rows.push_back(base + 0);
    if (latches_.a0 && latches_.a1b)
        rows.push_back(base + 1);
    if (latches_.a0b && latches_.a1)
        rows.push_back(base + 2);
    if (latches_.a0 && latches_.a1)
        rows.push_back(base + 3);
    return rows;
}

void
Bank::activate(uint32_t row, double t)
{
    const Calibration &cal = *ctx_->cal;
    if (row >= ctx_->geom->rowsPerBank)
        fatal("ACT row %u out of range", row);
    if (phase_ == Phase::Opening || phase_ == Phase::Open)
        fatal("ACT on bank %u while a row is open (missing PRE)", bankId_);

    double gap = t - preTime_;
    bool latches_survive = latches_.valid && preRasViolated_ &&
                           phase_ == Phase::Precharging &&
                           gap < cal.tPreReset;
    double resid_amp = 0.0;
    if (phase_ == Phase::Precharging)
        resid_amp = preResidAmpMv_ * std::exp(-gap / cal.tauEqNs);
    bool same_mwl = latches_survive && (row >> 2) == latches_.mwl;

    pending_ = PendingSense{};
    pending_.active = true;
    pending_.actTime = t;

    if (same_mwl) {
        // The surviving LWL select latches OR in the new row's
        // address bits; every row whose product term is now true
        // opens simultaneously (QUAC when the 2 LSBs are inverted).
        latchFromRow(row);
        openRows_ = rowsSelectedByLatches();

        double t1 = preTime_ - firstActTime_;
        QuacWeights weights = quacWeights(cal, firstActRow_ & 3, t1, gap);
        for (uint32_t open_row : openRows_) {
            pending_.contribs.push_back(
                {open_row, weights.w[open_row & 3] * cal.vShareMv});
        }
        // The first row's partial deviation is folded into its QUAC
        // weight; the precharge residual must not be double counted.
    } else {
        // Fresh decode: any previously open rows are now closed and
        // the latches take the new row's address.
        openRows_.clear();
        latches_ = Latches{};
        latches_.mwl = row >> 2;
        latches_.valid = true;
        latchFromRow(row);
        openRows_ = {row};
        firstActRow_ = row;
        firstActTime_ = t;

        if (resid_amp > cal.residThresholdMv && !preResidBits_.empty()) {
            // The row buffer was not fully drained: the new row's
            // cells race the residual (RowClone copy when the
            // residual dominates, tRP-failure flips when comparable).
            pending_.contribs.push_back({row, cal.singleRowKickMv});
            pending_.residAmpMv = resid_amp;
            pending_.residBits = preResidBits_;
        } else {
            pending_.contribs.push_back({row, cal.singleRowShareMv});
        }
    }

    saLatched_ = false;
    phase_ = Phase::Opening;
    lastActTime_ = t;
}

void
Bank::precharge(double t)
{
    const Calibration &cal = *ctx_->cal;
    if (phase_ == Phase::Idle || phase_ == Phase::Precharging)
        return;

    double elapsed = t - lastActTime_;
    preRasViolated_ = elapsed < cal.tRasViolation;

    if (pending_.active) {
        if (elapsed >= cal.tSenseLatch) {
            resolveSense(t);
        } else {
            // Sensing aborted (QUAC's first ACT): the first row's
            // partially shared deviation stays on the bitlines.
            pending_.active = false;
            double share = 1.0 - std::exp(-std::max(elapsed, 0.0) / 2.0);
            preResidAmpMv_ = cal.singleRowKickMv * share;
            preResidBits_ = peekRow(firstActRow_);
            saLatched_ = false;
        }
    }

    if (saLatched_) {
        // Restore all open rows, then snapshot the full-rail row
        // buffer as the residual a violated follow-up ACT would see.
        writeBackToOpenRows();
        preResidAmpMv_ = cal.railMv;
        preResidBits_ = sa_;
    }

    preTime_ = t;
    phase_ = Phase::Precharging;
    saLatched_ = false;
}

std::vector<uint64_t>
Bank::read(uint32_t column, double t)
{
    const Geometry &geom = *ctx_->geom;
    std::vector<uint64_t> block(geom.cacheBlockBits / 64);
    readInto(column, block.data(), t);
    return block;
}

void
Bank::readInto(uint32_t column, uint64_t *dst, double t)
{
    const Geometry &geom = *ctx_->geom;
    if (column >= geom.cacheBlocksPerRow())
        fatal("RD column %u out of range", column);
    if (phase_ != Phase::Opening && phase_ != Phase::Open)
        fatal("RD on bank %u with no open row", bankId_);

    if (pending_.active)
        resolveSense(t);

    size_t words = geom.cacheBlockBits / 64;
    size_t start = static_cast<size_t>(column) * words;
    std::copy(sa_.begin() + start, sa_.begin() + start + words, dst);
}

void
Bank::write(uint32_t column, const std::vector<uint64_t> &data, double t)
{
    const Geometry &geom = *ctx_->geom;
    if (column >= geom.cacheBlocksPerRow())
        fatal("WR column %u out of range", column);
    if (phase_ != Phase::Opening && phase_ != Phase::Open)
        fatal("WR on bank %u with no open row", bankId_);
    size_t words = geom.cacheBlockBits / 64;
    if (data.size() != words)
        fatal("WR data size %zu != %zu words", data.size(), words);

    if (pending_.active)
        resolveSense(t);

    size_t start = static_cast<size_t>(column) * words;
    std::copy(data.begin(), data.end(), sa_.begin() + start);

    // Write through to all open rows so cell state stays coherent.
    for (uint32_t row : openRows_) {
        auto &storage = rowStorage(row);
        std::copy(data.begin(), data.end(), storage.begin() + start);
    }
}

void
Bank::resolveSense(double t)
{
    const Calibration &cal = *ctx_->cal;
    const Geometry &geom = *ctx_->geom;
    QUAC_ASSERT(pending_.active, "resolveSense without pending sensing");

    double develop = developFraction(cal, t - pending_.actTime);

    bool normal_single =
        pending_.contribs.size() == 1 &&
        pending_.residAmpMv <= cal.residThresholdMv &&
        pending_.contribs[0].scaleMv >= cal.singleRowShareMv * 0.999 &&
        develop >= 1.0;

    if (normal_single) {
        // Obeyed-timing activation: guardbanded sensing never fails.
        sa_ = peekRow(pending_.contribs[0].row);
    } else if (residRaceSaturated(develop)) {
        // Residual-dominated race (the TRNG's RowClone init copies):
        // resolved straight from the residual bits — no probability
        // row, no cache-key hashing, no draws.
    } else {
        uint64_t key = probCacheKey(pending_.contribs,
                                    pending_.residBits,
                                    pending_.residAmpMv, develop);
        auto it = probCache_.find(key);
        bool fresh = it == probCache_.end();
        if (fresh) {
            ++probCacheMisses_;
            if (probCache_.size() >= probCacheCapacity)
                evictColdEntries(probCache_);
            SenseRowPlan plan;
            computeProbabilities(pending_.contribs,
                                 pending_.residBits.empty()
                                     ? nullptr : &pending_.residBits,
                                 pending_.residAmpMv, develop,
                                 plan.probs);
            it = probCache_.emplace(key, std::move(plan)).first;
        } else {
            ++probCacheHits_;
            it->second.hot = true;
        }
        SenseRowPlan &plan = it->second;

        if (ctx_->fastSense) {
            // Sparse plans win even for one-shot setups: most rows
            // are degenerate-dominated, so classifying bitlines once
            // costs less than bulk-drawing uniforms for the whole
            // row (the dense pass is still used for metastable-rich
            // rows inside resolveRowFast).
            if (!plan.fastReady)
                buildSensePlan(plan);
            resolveRowFast(plan);
        } else {
            // Reference oracle: scalar per-bitline draws, as seeded.
            sa_.assign(geom.wordsPerRow(), 0);
            for (uint32_t b = 0; b < geom.bitlinesPerRow; ++b) {
                float p = plan.probs[b];
                bool bit;
                if (p >= 1.0f - degenerateProbability)
                    bit = true;
                else if (p <= degenerateProbability)
                    bit = false;
                else
                    bit = noise_.uniform() < p;
                if (bit)
                    sa_[b / 64] |= (uint64_t{1} << (b % 64));
            }
        }
    }

    saLatched_ = true;
    pending_.active = false;
    phase_ = Phase::Open;
    writeBackToOpenRows();
}

bool
Bank::residRaceSaturated(double develop)
{
    if (!ctx_->fastSense || !ctx_->saturationFastPath)
        return false;
    if (pending_.contribs.size() != 1 || pending_.residBits.empty())
        return false;

    const Calibration &cal = *ctx_->cal;
    const VariationModel &var = *ctx_->variation;
    const Geometry &geom = *ctx_->geom;
    const Contribution &contrib = pending_.contribs[0];
    uint32_t nbits = geom.bitlinesPerRow;

    double sigma = var.noiseSigmaMv(ctx_->temperatureC) +
                   cal.raceNoiseMv * (1.0 - develop);
    // Cheap pre-filter before touching the oracle rows: the bound
    // below only tightens, so a residual that cannot even clear
    // saturationZ sigma on its own never saturates.
    if (pending_.residAmpMv < saturationZ * sigma)
        return false;

    double max_off;
    double max_cap;
    if (ctx_->oracleCache) {
        offsetRow(contrib.row); // refresh/insert the cached entry
        max_off = offsetRowMaxAbs(contrib.row);
        // Evict here, not in capRow() (same single-caller contract
        // as computeProbabilities): no live cache pointers are held.
        if (capCache_.size() >= capCacheCapacity)
            evictColdEntries(capCache_);
        capRow(contrib.row);
        max_cap = capRowMaxAbs(contrib.row);
    } else {
        computeOffsetRow(contrib.row, offsetScratch_);
        max_off = 0.0;
        for (double off : offsetScratch_)
            max_off = std::max(max_off, std::fabs(off));
        computeCapRow(contrib.row, capScratch_);
        max_cap = 0.0;
        for (double cap : capScratch_)
            max_cap = std::max(max_cap, std::fabs(cap));
    }

    // Worst case over every bitline: the racing cells pull against
    // the residual with at most develop * |scale| * max|cap|, and the
    // SA offset shifts the threshold by at most max|offset|. If the
    // residual amplitude still clears saturationZ sigma, every
    // bitline's P(1) snaps to exactly its residual bit (the same
    // per-bitline guarantee probabilityOneBatch's snapping gives the
    // whole-row saturation path), so the resolve is the residual row.
    double margin = pending_.residAmpMv -
                    develop * std::fabs(contrib.scaleMv) * max_cap -
                    max_off;
    if (margin < saturationZ * sigma)
        return false;

    sa_ = pending_.residBits;
    sa_.resize(geom.wordsPerRow(), 0);
    // The probability resolvers leave bits past bitlinesPerRow zero;
    // a residual snapshot from pokeRowFill may have them set.
    if (uint32_t tail = nbits % 64)
        sa_[nbits / 64] &= (uint64_t{1} << tail) - 1;
    for (size_t w = (nbits + 63) / 64; w < sa_.size(); ++w)
        sa_[w] = 0;
    ++satRowFastPaths_;
    ++residRaceFastPaths_;
    return true;
}

void
Bank::writeBackToOpenRows()
{
    // Skip rows that already hold sa_ (the PRE after a resolve, a
    // RowClone source): rowStorage() would drop their cached digest.
    for (uint32_t row : openRows_) {
        auto it = rows_.find(row);
        if (it == rows_.end() || it->second != sa_)
            rowStorage(row) = sa_;
    }
}

void
Bank::buildSensePlan(SenseRowPlan &plan) const
{
    const Geometry &geom = *ctx_->geom;
    uint32_t nbits = geom.bitlinesPerRow;

    plan.baseWords.assign(geom.wordsPerRow(), 0);
    plan.fuzzyIdx.clear();
    plan.fuzzyProbs.clear();
    for (uint32_t b = 0; b < nbits; ++b) {
        // Same classification thresholds as the scalar reference
        // loop, so fast and reference paths agree exactly on which
        // bitlines are deterministic.
        float p = plan.probs[b];
        if (p >= 1.0f - degenerateProbability)
            plan.baseWords[b / 64] |= (uint64_t{1} << (b % 64));
        else if (p > degenerateProbability) {
            plan.fuzzyIdx.push_back(b);
            plan.fuzzyProbs.push_back(p);
        }
    }
    plan.fastReady = true;
}

void
Bank::resolveRowDense(const std::vector<float> &probs)
{
    // Whole-row resolution: a row of bulk uniforms compared against
    // the probability row, result bits packed word-at-a-time. The
    // probabilities are snapped (probabilityOneBatch), so degenerate
    // bitlines resolve deterministically here too.
    const Geometry &geom = *ctx_->geom;
    uint32_t nbits = geom.bitlinesPerRow;
    uniformScratch_.resize(nbits);
    noise_.fillUniform(uniformScratch_.data(), nbits);
    sa_.resize(geom.wordsPerRow());
    resolveBitsBatch(uniformScratch_.data(), probs.data(), nbits,
                     sa_.data());
}

void
Bank::resolveRowFast(const SenseRowPlan &plan)
{
    const Geometry &geom = *ctx_->geom;
    uint32_t nbits = geom.bitlinesPerRow;
    size_t fuzzy = plan.fuzzyIdx.size();

    if (fuzzy * 4 >= nbits) {
        // Metastable-rich rows (tRCD/tRP regimes): the dense pass
        // beats indexing a long fuzzy list.
        resolveRowDense(plan.probs);
    } else {
        // Sparse rows (QUAC, RowClone): start from the deterministic
        // bits and draw only for the bitlines that can flip.
        sa_.assign(plan.baseWords.begin(), plan.baseWords.end());
        uniformScratch_.resize(fuzzy);
        noise_.fillUniform(uniformScratch_.data(), fuzzy);
        // Branch-free: a branch on each random draw mispredicts often.
        for (size_t j = 0; j < fuzzy; ++j) {
            uint32_t b = plan.fuzzyIdx[j];
            uint64_t bit = uniformScratch_[j] < plan.fuzzyProbs[j];
            sa_[b / 64] |= bit << (b % 64);
        }
    }
}

void
Bank::computeProbabilities(const std::vector<Contribution> &contribs,
                           const std::vector<uint64_t> *resid_bits,
                           double resid_amp_mv, double develop,
                           std::vector<float> &probs) const
{
    const Geometry &geom = *ctx_->geom;
    const Calibration &cal = *ctx_->cal;
    const VariationModel &var = *ctx_->variation;
    QUAC_ASSERT(!contribs.empty(), "sensing with no contributions");

    uint32_t nbits = geom.bitlinesPerRow;
    probs.resize(nbits);

    double sigma = var.noiseSigmaMv(ctx_->temperatureC) +
                   cal.raceNoiseMv * (1.0 - develop);

    // Segment-level systematics are defined by the first contributor.
    uint32_t row0 = contribs[0].row;

    // The per-bitline oracle factors (SA offsets, cell capacitances)
    // are cell-content independent; fetching them row-wise lets the
    // generation loop amortize the Philox draws even though changing
    // cell contents defeat the probability cache.
    const std::vector<double> *offset;
    if (ctx_->oracleCache) {
        offset = &offsetRow(row0);
    } else {
        computeOffsetRow(row0, offsetScratch_);
        offset = &offsetScratch_;
    }

    // Eviction may only run here, never inside capRow(): the loop
    // below holds a live pointer into the cache while capRow() may
    // insert further rows (insertion keeps entries stable, erasure
    // does not).
    if (ctx_->oracleCache && capCache_.size() >= capCacheCapacity)
        evictColdEntries(capCache_);

    // Structure-of-arrays accumulation: one contiguous pass per
    // contribution. The per-bitline addition order matches the seed's
    // scalar loop (contributions in order), so the deviations are
    // bit-identical to the reference formulation (multiplying by
    // constant ±1.0 signs is exact).
    devScratch_.assign(nbits, 0.0);
    double *dev = devScratch_.data();
    for (const Contribution &contrib : contribs) {
        const double *cap;
        if (ctx_->oracleCache) {
            cap = capRow(contrib.row).data();
        } else {
            computeCapRow(contrib.row, capScratch_);
            cap = capScratch_.data();
        }
        double scale = contrib.scaleMv;
        auto row_it = rows_.find(contrib.row);
        int constant = row_it == rows_.end()
                           ? -1
                           : constantRowSign(row_it->second, nbits);
        if (constant != 0) {
            // Uniform rows (unwritten, or the TRNG's all-0s/all-1s
            // init fills): a constant sign keeps the loop a pure
            // FMA pass, which vectorizes.
            double signed_scale = scale * (constant > 0 ? 1.0 : -1.0);
            for (uint32_t b = 0; b < nbits; ++b)
                dev[b] += signed_scale * cap[b];
        } else {
            const uint64_t *bits = row_it->second.data();
            for (uint32_t b = 0; b < nbits; ++b) {
                double sign =
                    ((bits[b / 64] >> (b % 64)) & 1) ? 1.0 : -1.0;
                dev[b] += scale * sign * cap[b];
            }
        }
    }
    for (uint32_t b = 0; b < nbits; ++b)
        dev[b] *= develop;
    if (resid_bits) {
        const uint64_t *rbits = resid_bits->data();
        int constant = constantRowSign(*resid_bits, nbits);
        if (constant != 0) {
            // Full-rail residuals of a constant source row.
            double amp = resid_amp_mv * (constant > 0 ? 1.0 : -1.0);
            for (uint32_t b = 0; b < nbits; ++b)
                dev[b] += amp;
        } else {
            for (uint32_t b = 0; b < nbits; ++b) {
                double rsign =
                    ((rbits[b / 64] >> (b % 64)) & 1) ? 1.0 : -1.0;
                dev[b] += resid_amp_mv * rsign;
            }
        }
    }

    if (ctx_->fastSense && ctx_->saturationFastPath) {
        // Saturation fast-path: if every bitline is >= saturationZ
        // sigma into the same tail, the Phi batch would snap the
        // whole row to exactly 0.0f / 1.0f anyway, so emit the
        // constant row directly. The TRNG's RowClone-init copies do
        // not get here: their residual-dominated races resolve in
        // residRaceSaturated, before any probability-cache lookup.
        double max_abs;
        if (ctx_->oracleCache) {
            max_abs = offsetRowMaxAbs(row0);
        } else {
            max_abs = 0.0;
            const double *off = offset->data();
            for (uint32_t b = 0; b < nbits; ++b)
                max_abs = std::max(max_abs, std::fabs(off[b]));
        }
        // |dev| beyond this puts a bitline >= saturationZ sigma into
        // its tail for every possible offset of this row.
        double bound = saturationZ * sigma + max_abs;
        bool one_tail = dev[0] >= bound;
        if (one_tail || dev[0] <= -bound) {
            // Block-wise all-of test: a vectorizable compare-count
            // per block, bailing at the first non-saturated block so
            // metastable rows pay one block at most.
            bool saturated = true;
            constexpr uint32_t block = 512;
            for (uint32_t base = 0; base < nbits && saturated;
                 base += block) {
                uint32_t end = std::min(nbits, base + block);
                uint32_t bad = 0;
                if (one_tail) {
                    for (uint32_t b = base; b < end; ++b)
                        bad += dev[b] < bound;
                } else {
                    for (uint32_t b = base; b < end; ++b)
                        bad += dev[b] > -bound;
                }
                saturated = bad == 0;
            }
            if (saturated) {
                probs.assign(nbits, one_tail ? 1.0f : 0.0f);
                ++satRowFastPaths_;
                return;
            }
        }
    }

    if (ctx_->fastSense) {
        probabilityOneBatch(dev, offset->data(), sigma, probs.data(),
                            nbits);
    } else {
        const double *off = offset->data();
        for (uint32_t b = 0; b < nbits; ++b)
            probs[b] = static_cast<float>(
                probabilityOne(dev[b], off[b], sigma));
    }
}

void
Bank::computeOffsetRow(uint32_t row0, std::vector<double> &out) const
{
    const Geometry &geom = *ctx_->geom;
    const VariationModel &var = *ctx_->variation;

    uint32_t nbits = geom.bitlinesPerRow;
    out.resize(nbits);

    uint32_t segment = geom.segmentOfRow(row0);
    double seg_mean = var.segmentMeanMv(bankId_, segment);
    double spatial = var.spatialScale(bankId_, segment);
    double aging = var.agingScale(bankId_, segment, ctx_->ageDays);

    std::vector<double> chip_factor(geom.chipsPerRank);
    for (uint32_t chip = 0; chip < geom.chipsPerRank; ++chip)
        chip_factor[chip] = var.temperatureFactor(chip,
                                                  ctx_->temperatureC);

    // Bulk Philox fill of the raw SA offsets, then the scalings.
    var.saOffsetRowMv(bankId_, row0, nbits, out.data());

    uint32_t cb_bits = geom.cacheBlockBits;
    double col_shape = 0.0;
    for (uint32_t b = 0; b < nbits; ++b) {
        if (b % cb_bits == 0)
            col_shape = var.columnShape(b / cb_bits);
        out[b] = (out[b] + seg_mean) /
                 (spatial * col_shape * aging) *
                 chip_factor[geom.chipOfBitline(b)];
    }
}

const std::vector<double> &
Bank::offsetRow(uint32_t row0) const
{
    auto it = offsetCache_.find(row0);
    if (it != offsetCache_.end() &&
        it->second.temperatureC == ctx_->temperatureC &&
        it->second.ageDays == ctx_->ageDays) {
        it->second.hot = true;
        return it->second.offset;
    }
    if (offsetCache_.size() >= offsetCacheCapacity)
        evictColdEntries(offsetCache_);
    OffsetRowEntry entry;
    entry.temperatureC = ctx_->temperatureC;
    entry.ageDays = ctx_->ageDays;
    computeOffsetRow(row0, entry.offset);
    for (double offset : entry.offset)
        entry.maxAbsMv = std::max(entry.maxAbsMv, std::fabs(offset));
    return offsetCache_.insert_or_assign(row0, std::move(entry))
        .first->second.offset;
}

double
Bank::offsetRowMaxAbs(uint32_t row0) const
{
    auto it = offsetCache_.find(row0);
    QUAC_ASSERT(it != offsetCache_.end() &&
                it->second.temperatureC == ctx_->temperatureC &&
                it->second.ageDays == ctx_->ageDays,
                "offsetRowMaxAbs before offsetRow(%u)", row0);
    return it->second.maxAbsMv;
}

void
Bank::computeCapRow(uint32_t row, std::vector<double> &out) const
{
    const Geometry &geom = *ctx_->geom;
    const VariationModel &var = *ctx_->variation;
    out.resize(geom.bitlinesPerRow);
    var.cellCapRow(bankId_, row, geom.bitlinesPerRow, out.data());
}

const std::vector<double> &
Bank::capRow(uint32_t row) const
{
    // No eviction here: computeProbabilities may still hold a
    // pointer into the cache when it calls this for the next
    // contribution; it evicts once, before its accumulation loop.
    auto it = capCache_.find(row);
    if (it == capCache_.end()) {
        CapRowEntry entry;
        computeCapRow(row, entry.caps);
        for (double cap : entry.caps)
            entry.maxAbs = std::max(entry.maxAbs, std::fabs(cap));
        it = capCache_.emplace(row, std::move(entry)).first;
    } else {
        it->second.hot = true;
    }
    return it->second.caps;
}

double
Bank::capRowMaxAbs(uint32_t row) const
{
    auto it = capCache_.find(row);
    QUAC_ASSERT(it != capCache_.end(),
                "capRowMaxAbs before capRow(%u)", row);
    return it->second.maxAbs;
}

uint64_t
Bank::probCacheKey(const std::vector<Contribution> &contribs,
                   const std::vector<uint64_t> &resid_bits,
                   double resid_amp_mv, double develop) const
{
    uint64_t hash = fnvBasis;
    hash = fnvMix(hash, ctx_->temperatureC);
    hash = fnvMix(hash, ctx_->ageDays);
    hash = fnvMix(hash, develop);
    hash = fnvMix(hash, resid_amp_mv);
    for (const Contribution &contrib : contribs) {
        hash = fnvMix(hash, contrib.row);
        hash = fnvMix(hash, contrib.scaleMv);
        auto it = rows_.find(contrib.row);
        if (it != rows_.end()) {
            // Row contents enter through the cached digest: one
            // 64-bit mix per row here instead of a word-wise pass,
            // re-hashed only after the row actually changed.
            hash = fnvMix(hash, uint8_t{1});
            hash = fnvMix(hash, rowDigest(contrib.row, it->second));
        } else {
            hash = fnvMix(hash, uint8_t{0});
        }
    }
    if (!resid_bits.empty()) {
        hash = fnvMix(hash, uint8_t{2});
        hash = fnvMix(hash, fnvMixWords(fnvBasis, resid_bits));
    }
    return hash;
}

bool
Bank::peekCell(uint32_t row, uint32_t bitline) const
{
    QUAC_ASSERT(row < ctx_->geom->rowsPerBank &&
                bitline < ctx_->geom->bitlinesPerRow,
                "peek out of range");
    return cellValue(row, bitline);
}

void
Bank::pokeCell(uint32_t row, uint32_t bitline, bool value)
{
    QUAC_ASSERT(row < ctx_->geom->rowsPerBank &&
                bitline < ctx_->geom->bitlinesPerRow,
                "poke out of range");
    auto &storage = rowStorage(row);
    uint64_t mask = uint64_t{1} << (bitline % 64);
    if (value)
        storage[bitline / 64] |= mask;
    else
        storage[bitline / 64] &= ~mask;
}

void
Bank::pokeRowFill(uint32_t row, bool value)
{
    QUAC_ASSERT(row < ctx_->geom->rowsPerBank, "poke row out of range");
    rowStorage(row).assign(ctx_->geom->wordsPerRow(),
                           value ? ~uint64_t{0} : uint64_t{0});
}

void
Bank::pokeSegmentPattern(uint32_t segment, uint8_t pattern)
{
    QUAC_ASSERT(segment < ctx_->geom->segmentsPerBank(),
                "segment out of range");
    uint32_t base = ctx_->geom->firstRowOfSegment(segment);
    for (uint32_t i = 0; i < Geometry::rowsPerSegment; ++i)
        pokeRowFill(base + i, (pattern >> i) & 1);
}

std::vector<uint64_t>
Bank::peekRow(uint32_t row) const
{
    auto it = rows_.find(row);
    if (it != rows_.end())
        return it->second;
    return std::vector<uint64_t>(ctx_->geom->wordsPerRow(), 0);
}

void
Bank::dropRow(uint32_t row)
{
    rows_.erase(row);
    rowDigests_.erase(row);
}

std::vector<float>
Bank::quacProbabilities(uint32_t segment, unsigned first_offset,
                        double t1_ns, double t2_ns) const
{
    const Geometry &geom = *ctx_->geom;
    const Calibration &cal = *ctx_->cal;
    QUAC_ASSERT(segment < geom.segmentsPerBank(), "segment out of range");

    QuacWeights weights = quacWeights(cal, first_offset, t1_ns, t2_ns);
    std::vector<Contribution> contribs;
    uint32_t base = geom.firstRowOfSegment(segment);
    for (unsigned i = 0; i < Geometry::rowsPerSegment; ++i)
        contribs.push_back({base + i, weights.w[i] * cal.vShareMv});

    std::vector<float> probs;
    computeProbabilities(contribs, nullptr, 0.0, 1.0, probs);
    return probs;
}

std::vector<float>
Bank::earlyReadProbabilities(uint32_t row, double elapsed_ns) const
{
    const Calibration &cal = *ctx_->cal;
    std::vector<Contribution> contribs = {{row, cal.singleRowShareMv}};
    std::vector<float> probs;
    computeProbabilities(contribs, nullptr, 0.0,
                         developFraction(cal, elapsed_ns), probs);
    return probs;
}

std::vector<float>
Bank::racedActivateProbabilities(uint32_t row,
                                 const std::vector<uint64_t> &resid_bits,
                                 double gap_ns) const
{
    const Calibration &cal = *ctx_->cal;
    double amp = cal.railMv * std::exp(-gap_ns / cal.tauEqNs);
    std::vector<Contribution> contribs = {{row, cal.singleRowKickMv}};
    std::vector<float> probs;
    computeProbabilities(contribs, &resid_bits, amp, 1.0, probs);
    return probs;
}

} // namespace quac::dram
