/**
 * @file
 * DRAM bank model: cell array, row buffer (sense amplifiers), and the
 * hierarchical-wordline decoder latches that enable QUAC (paper
 * Sections 4-5).
 *
 * The bank consumes timed ACT/PRE/RD/WR commands and classifies each
 * transition by the *actual intervals* between commands, yielding the
 * behaviour classes characterized on real chips:
 *
 *  - obeyed timings: normal deterministic operation;
 *  - ACT -> PRE -> ACT, both gaps violated, second ACT in the same
 *    segment with inverted 2-LSB row address: QUAC (all four rows
 *    open; metastable sensing);
 *  - ACT(full sense) -> PRE -> ACT with a very short gap, different
 *    segment: RowClone in-DRAM copy (SA residual wins the race);
 *  - same with a moderate gap: tRP-failure bit flips (Talukder+);
 *  - RD before the bitline has developed: tRCD-failure sampling
 *    (D-RaNGe).
 */

#ifndef QUAC_DRAM_BANK_HH
#define QUAC_DRAM_BANK_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "dram/calibration.hh"
#include "dram/geometry.hh"
#include "dram/sensing.hh"
#include "dram/variation.hh"

namespace quac::dram
{

/** Module-level context shared by all banks. */
struct BankContext
{
    const Geometry *geom = nullptr;
    const Calibration *cal = nullptr;
    const VariationModel *variation = nullptr;
    double temperatureC = 50.0;
    double ageDays = 0.0;
    /**
     * Reuse the cell-content-independent variation-oracle factors
     * across sensing events (bit-identical results; trades memory
     * for a large speedup of the generation loop).
     */
    bool oracleCache = true;
    /**
     * Resolve sensing with the batched SIMD kernel (vectorized Phi
     * approximation + bulk uniform draws) instead of the scalar
     * per-bitline erfc/draw loops. Statistically indistinguishable
     * from the reference path and bit-identical on the guardbanded
     * single-row path; disable to select the scalar oracle.
     */
    bool fastSense = true;
    /**
     * Skip the batched Phi evaluation when a whole sensing row is
     * >= saturationZ sigma into one tail (min/max deviation against
     * the cached per-row max |offset|) and emit a constant
     * probability row instead; likewise resolve a residual-dominated
     * race straight from its residual bits. Bit-identical to the full
     * fastSense kernel; it makes the TRNG's RowClone-init resolves
     * cheap. Only applies when fastSense is on.
     */
    bool saturationFastPath = true;
};

/** One DRAM bank: sparse cell array plus row-buffer state machine. */
class Bank
{
  public:
    /**
     * @param ctx shared module context (must outlive the bank).
     * @param bank_id index of this bank within the module.
     * @param noise_seed seed of this bank's thermal-noise stream.
     */
    Bank(const BankContext *ctx, uint32_t bank_id, uint64_t noise_seed);

    /** @name Timed command interface (times in ns, non-decreasing) */
    /**@{*/
    /** Activate @p row at time @p t. */
    void activate(uint32_t row, double t);

    /** Precharge the bank at time @p t. */
    void precharge(double t);

    /**
     * Read the 512-bit cache block at @p column from the row buffer.
     * Reading before the bitlines have fully developed samples
     * metastable values (tRCD-failure behaviour).
     */
    std::vector<uint64_t> read(uint32_t column, double t);

    /**
     * Zero-copy variant of read(): writes the cache block's words
     * into @p dst (which must hold cacheBlockBits / 64 words)
     * instead of allocating a vector.
     */
    void readInto(uint32_t column, uint64_t *dst, double t);

    /** Write a 512-bit cache block into the row buffer. */
    void write(uint32_t column, const std::vector<uint64_t> &data,
               double t);
    /**@}*/

    /** Rows whose wordlines are currently (or still) enabled. */
    const std::vector<uint32_t> &openRows() const { return openRows_; }

    /** True once the sense amplifiers have latched values. */
    bool saLatched() const { return saLatched_; }

    /** @name Backdoor accessors for tests and initialization */
    /**@{*/
    /** Read a cell directly from the array (not the row buffer). */
    bool peekCell(uint32_t row, uint32_t bitline) const;

    /** Write a cell directly into the array. */
    void pokeCell(uint32_t row, uint32_t bitline, bool value);

    /** Fill an entire row with @p value. */
    void pokeRowFill(uint32_t row, bool value);

    /**
     * Initialize the four rows of @p segment with a 4-bit pattern;
     * bit i of @p pattern (LSB = row offset 0) fills row i.
     */
    void pokeSegmentPattern(uint32_t segment, uint8_t pattern);

    /** Copy of a row's cell contents (bit-packed words). */
    std::vector<uint64_t> peekRow(uint32_t row) const;

    /** Release a row's backing storage (reads as all zeros again). */
    void dropRow(uint32_t row);
    /**@}*/

    /** @name Analytic probability queries (do not disturb state) */
    /**@{*/
    /**
     * Per-bitline probability of reading 1 after a QUAC operation on
     * @p segment with the current cell contents.
     *
     * @param segment segment index within the bank.
     * @param first_offset row offset (0..3) targeted by the first ACT.
     * @param t1_ns ACT -> PRE gap.
     * @param t2_ns PRE -> ACT gap.
     */
    std::vector<float> quacProbabilities(uint32_t segment,
                                         unsigned first_offset = 0,
                                         double t1_ns = 2.5,
                                         double t2_ns = 2.5) const;

    /**
     * Per-bitline probability of reading 1 when @p row is read
     * @p elapsed_ns after its ACT (tRCD-failure behaviour).
     */
    std::vector<float> earlyReadProbabilities(uint32_t row,
                                              double elapsed_ns) const;

    /**
     * Per-bitline probability of reading 1 when @p row is activated
     * @p gap_ns after a precharge that interrupted a latched row
     * buffer holding @p resid_bits (tRP-failure / RowClone regimes).
     */
    std::vector<float>
    racedActivateProbabilities(uint32_t row,
                               const std::vector<uint64_t> &resid_bits,
                               double gap_ns) const;
    /**@}*/

    /** @name Sensing-cache telemetry (tests and profiling) */
    /**@{*/
    size_t probCacheSize() const { return probCache_.size(); }
    uint64_t probCacheHits() const { return probCacheHits_; }
    uint64_t probCacheMisses() const { return probCacheMisses_; }
    size_t capCacheSize() const { return capCache_.size(); }
    /** Probability rows emitted by the saturation fast-path. */
    uint64_t saturatedRowFastPaths() const { return satRowFastPaths_; }
    /** The subset of saturatedRowFastPaths() resolved straight from
     * the residual bits (no probability row, no cache key). */
    uint64_t residRaceFastPaths() const { return residRaceFastPaths_; }

    /** Probability-cache capacity before cold entries are evicted. */
    static constexpr size_t probCacheCapacity = 64;
    /** Oracle-row cache capacities (cap and offset rows). */
    static constexpr size_t capCacheCapacity = 32;
    static constexpr size_t offsetCacheCapacity = 32;
    /**@}*/

  private:
    /** Row-buffer lifecycle. */
    enum class Phase : uint8_t
    {
        Idle,         ///< Fully precharged.
        Opening,      ///< ACT seen, sensing not yet resolved.
        Open,         ///< Sense amps latched.
        Precharging,  ///< PRE seen, settling toward VDD/2.
    };

    /** LWL select latches of the hypothetical decoder (Fig 4). */
    struct Latches
    {
        bool a0 = false;
        bool a0b = false;
        bool a1 = false;
        bool a1b = false;
        uint32_t mwl = 0;
        bool valid = false;
    };

    /** One row's additive contribution to the bitline deviation. */
    struct Contribution
    {
        uint32_t row;
        double scaleMv; ///< mV of deviation per unit cell value.
    };

    /** Deferred sensing event, resolved lazily at first access. */
    struct PendingSense
    {
        bool active = false;
        double actTime = 0.0;
        std::vector<Contribution> contribs;
        double residAmpMv = 0.0;
        std::vector<uint64_t> residBits; ///< Empty when no residual.
    };

    /**
     * Cached resolution data for one sensing setup: the probability
     * row, plus the fast path's precomputed split into deterministic
     * bits and metastable ("fuzzy") bitlines so each replay only
     * draws uniforms for bitlines that can actually flip.
     */
    struct SenseRowPlan
    {
        std::vector<float> probs;
        /** Deterministic-1 bits (p == 1), packed per word. */
        std::vector<uint64_t> baseWords;
        /** Bitlines with 0 < p < 1 and their probabilities. */
        std::vector<uint32_t> fuzzyIdx;
        std::vector<float> fuzzyProbs;
        bool fastReady = false;
        bool hot = false; ///< Second-chance eviction bit.
    };

    std::vector<uint64_t> &rowStorage(uint32_t row);
    bool cellValue(uint32_t row, uint32_t bitline) const;
    void latchFromRow(uint32_t row);
    std::vector<uint32_t> rowsSelectedByLatches() const;

    /** Resolve pending sensing at time @p t (develop-dependent). */
    void resolveSense(double t);

    /**
     * Residual-dominated race fast path: a single-row activation
     * racing a residual whose amplitude puts every bitline >=
     * saturationZ sigma into the tail its residual bit selects (for
     * any possible cell contribution and SA offset of this row)
     * resolves to exactly the residual bits. Copies them into the
     * row buffer — no probability row, no cache-key hashing, no
     * draws — and returns true; returns false (resolve normally)
     * when the bound does not hold. Bit-identical to the full path.
     */
    bool residRaceSaturated(double develop);

    /** Build a plan's fast-path split from its probability row. */
    void buildSensePlan(SenseRowPlan &plan) const;

    /** Fast-path SA resolution: bulk draws against a plan. */
    void resolveRowFast(const SenseRowPlan &plan);

    /** Dense fast-path resolution straight from a probability row. */
    void resolveRowDense(const std::vector<float> &probs);

    /** Write the latched SA values back into all open rows. */
    void writeBackToOpenRows();

    /**
     * Compute per-bitline P(1) for a sensing setup. Shared by the
     * empirical resolution path and the analytic queries.
     */
    void computeProbabilities(const std::vector<Contribution> &contribs,
                              const std::vector<uint64_t> *resid_bits,
                              double resid_amp_mv, double develop,
                              std::vector<float> &probs) const;

    /**
     * Per-bitline effective SA offset for sensing led by @p row0
     * (cell-content independent; cached per row at the current
     * temperature/age when the oracle cache is enabled).
     */
    const std::vector<double> &offsetRow(uint32_t row0) const;
    void computeOffsetRow(uint32_t row0,
                          std::vector<double> &out) const;

    /**
     * Max |offset| of offsetRow(row0), cached with the row entry
     * (valid right after offsetRow(row0) refreshed the entry). Feeds
     * the saturation fast-path's whole-row tail test.
     */
    double offsetRowMaxAbs(uint32_t row0) const;

    /** Per-bitline cell capacitance factors of @p row (cached). */
    const std::vector<double> &capRow(uint32_t row) const;
    void computeCapRow(uint32_t row, std::vector<double> &out) const;

    /** Max |cap factor| of capRow(row), cached with the row entry
     * (valid right after capRow(row) touched the entry). */
    double capRowMaxAbs(uint32_t row) const;

    /**
     * Hash of everything computeProbabilities depends on. Row
     * contents enter through cached per-row digests (rowDigest); the
     * residual words (empty: none) are hashed here, only on a lookup.
     */
    uint64_t probCacheKey(const std::vector<Contribution> &contribs,
                          const std::vector<uint64_t> &resid_bits,
                          double resid_amp_mv, double develop) const;

    /** Cached FNV digest of @p words (the current contents of
     * @p row); invalidated by rowStorage() on any mutation. */
    uint64_t rowDigest(uint32_t row,
                       const std::vector<uint64_t> &words) const;

    const BankContext *ctx_;
    uint32_t bankId_;
    Xoshiro256pp noise_;

    Phase phase_ = Phase::Idle;
    Latches latches_;
    std::vector<uint32_t> openRows_;
    std::vector<uint64_t> sa_;
    bool saLatched_ = false;
    PendingSense pending_;

    double lastActTime_ = -1e18;
    double firstActTime_ = -1e18; ///< ACT that started this episode.
    uint32_t firstActRow_ = 0;
    double preTime_ = -1e18;
    bool preRasViolated_ = false;
    /** Residual snapshot taken at PRE: amplitude and sign source. */
    double preResidAmpMv_ = 0.0;
    std::vector<uint64_t> preResidBits_;

    std::unordered_map<uint32_t, std::vector<uint64_t>> rows_;

    /**
     * Cached per-row content digests feeding probCacheKey; an entry
     * is dropped when rowStorage() hands out a mutable reference to
     * the row (the only mutation path; write-backs that would not
     * change the row skip it) or the row is dropped.
     */
    mutable std::unordered_map<uint32_t, uint64_t> rowDigests_;

    /**
     * Memoized resolution plans keyed by the sensing-setup hash; the
     * TRNG loop replays the same few setups (four RowClone init
     * copies plus the QUAC itself) every iteration. Evicted with a
     * second-chance sweep (entries hit since the last sweep survive)
     * instead of wholesale clearing, so hot setups stay resident.
     */
    mutable std::unordered_map<uint64_t, SenseRowPlan> probCache_;
    mutable uint64_t probCacheHits_ = 0;
    mutable uint64_t probCacheMisses_ = 0;
    mutable uint64_t satRowFastPaths_ = 0;
    mutable uint64_t residRaceFastPaths_ = 0;

    /**
     * Memoized cell-content-independent variation-oracle rows. The
     * Philox draws behind saOffsetMv/cellCapFactor dominate
     * computeProbabilities; they depend only on (bank, row, bitline,
     * temperature, age), so the generation loop can reuse them even
     * though changing cell contents defeat probCache_.
     */
    struct OffsetRowEntry
    {
        double temperatureC = 0.0;
        double ageDays = 0.0;
        std::vector<double> offset;
        double maxAbsMv = 0.0;
        bool hot = false;
    };
    struct CapRowEntry
    {
        std::vector<double> caps;
        double maxAbs = 0.0;
        bool hot = false;
    };
    mutable std::unordered_map<uint32_t, OffsetRowEntry> offsetCache_;
    mutable std::unordered_map<uint32_t, CapRowEntry> capCache_;

    /** Reused scratch (avoids per-sensing allocations). */
    mutable std::vector<double> devScratch_;
    mutable std::vector<double> capScratch_;
    mutable std::vector<double> offsetScratch_;
    std::vector<float> uniformScratch_;
};

} // namespace quac::dram

#endif // QUAC_DRAM_BANK_HH
