/**
 * @file
 * QUAC-TRNG: the paper's primary contribution (Section 5).
 *
 * Each iteration (i) initializes the four rows of a pre-characterized
 * high-entropy segment from two reserved all-0s/all-1s rows using
 * RowClone in-DRAM copies, (ii) performs a QUAC operation, (iii)
 * reads the SHA-input-block column ranges from the sense amplifiers,
 * and (iv) hashes each range with SHA-256 into 256 output bits.
 */

#ifndef QUAC_CORE_TRNG_HH
#define QUAC_CORE_TRNG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitstream.hh"
#include "core/characterizer.hh"
#include "dram/module.hh"
#include "softmc/host.hh"

namespace quac::core
{

/** Abstract byte-oriented random number source. */
class Trng
{
  public:
    virtual ~Trng() = default;

    /** Human-readable generator name. */
    virtual std::string name() const = 0;

    /** Fill @p len bytes with random data. */
    virtual void fill(uint8_t *out, size_t len) = 0;

    /**
     * Natural output granularity of the generator in bytes (0 =
     * none). Buffered consumers that request whole multiples of this
     * let the generator write straight into their memory without an
     * intermediate staging copy.
     */
    virtual size_t preferredChunkBytes() { return 0; }

    /** Convenience: generate a byte vector. */
    std::vector<uint8_t> generate(size_t len);

    /** Convenience: generate a bit stream. */
    Bitstream generateBits(size_t nbits);

    /** Convenience: one 256-bit random number. */
    std::array<uint8_t, 32> random256();
};

/** QUAC-TRNG configuration. */
struct QuacTrngConfig
{
    /**
     * Banks to run QUAC on; the paper picks one bank from each of
     * the four bank groups to maximize command overlap.
     */
    std::vector<uint32_t> banks = {0, 1, 2, 3};
    /** Segment init pattern (paper default "0111"). */
    uint8_t pattern = 0b1110;
    /** Apply SHA-256 whitening (false = raw reads, analysis only). */
    bool useSha = true;
    /** Shannon entropy target per SHA input block. */
    double sibEntropyTarget = 256.0;
    /** Segment stride used during best-segment characterization. */
    uint32_t characterizeStride = 8;
    /** Characterization worker threads (0 = hardware). */
    unsigned threads = 0;
};

/** The QUAC-based true random number generator. */
class QuacTrng : public Trng
{
  public:
    /** Per-bank execution plan produced by setup(). */
    struct BankPlan
    {
        uint32_t bank = 0;
        uint32_t segment = 0;       ///< Highest-entropy segment.
        double segmentEntropy = 0.0;
        uint32_t zeroRow = 0;       ///< Reserved all-0s source row.
        uint32_t oneRow = 0;        ///< Reserved all-1s source row.
        std::vector<ColumnRange> ranges; ///< SHA input block reads.
    };

    /**
     * @param module simulated module to run on (kept by reference).
     * @param cfg generator configuration.
     */
    explicit QuacTrng(dram::DramModule &module, QuacTrngConfig cfg = {});

    std::string name() const override { return "QUAC-TRNG"; }

    /**
     * One-time characterization and row reservation (paper
     * Section 9). Runs automatically on first use.
     */
    void setup();

    /**
     * Re-run characterization, e.g. after a temperature change
     * (paper Section 8: per-temperature column address sets).
     */
    void recharacterize();

    /**
     * Install new per-plan SHA-input-block column ranges (one set
     * per plan, in plans() order) without re-characterizing: the
     * online band-switch path, fed by ranges precomputed offline by
     * TemperatureTable::build. The output geometry follows the range
     * count (bytesPerIteration / preferredChunkBytes may change),
     * and any partially-consumed buffered iteration is discarded so
     * the post-switch stream starts on an iteration boundary —
     * consumers must treat bytes buffered across the switch as
     * suspect. Not safe against a concurrent fill(); callers
     * serialize (the service retunes under the backend lock).
     */
    void applyColumnRanges(
        const std::vector<std::vector<ColumnRange>> &per_plan);

    /** The generator configuration (band tables reuse its pattern
     * and entropy target). */
    const QuacTrngConfig &config() const { return cfg_; }

    void fill(uint8_t *out, size_t len) override;

    /** One full iteration's output in bytes (runs setup() if needed). */
    size_t preferredChunkBytes() override;

    /** True once setup() has completed. */
    bool ready() const { return ready_; }

    /** Execution plans (setup() must have run). */
    const std::vector<BankPlan> &plans() const { return plans_; }

    /** Random bits produced per full iteration (256 x total SIB). */
    size_t bitsPerIteration() const;

    /** Bytes produced per full iteration (raw bytes when !useSha). */
    size_t bytesPerIteration() const;

    /** Iterations executed so far. */
    uint64_t iterations() const { return iterations_; }

    /**
     * Raw (pre-hash) sense-amplifier bits of one QUAC on the given
     * plan: init + QUAC + full-segment read, no whitening. Used by
     * the characterization experiments.
     */
    Bitstream rawIteration(size_t plan_index);

    /** DRAM rows reserved per bank (paper Section 9: six). */
    static constexpr uint32_t reservedRowsPerBank = 6;

  private:
    void runIteration();
    /**
     * @p count consecutive full iterations written straight into
     * caller memory (count x bytesPerIteration() bytes), on the
     * calling thread. Each iteration drives every plan's commands;
     * raw reads copy the SIB bytes out, and SHA whitens all of the
     * iteration's SIBs through one Sha256::hashBatch.
     */
    void runIterationsInto(uint8_t *out, size_t count);
    /**
     * The DRAM half of an iteration: init + QUAC + read every SIB
     * range of one plan back to back into its scratch row, in wire
     * (little-endian byte) order. Returns the word count read.
     */
    size_t readPlanRaw(size_t plan_index);
    void initSegment(const BankPlan &plan, softmc::SoftMcHost &host);

    dram::DramModule &module_;
    QuacTrngConfig cfg_;
    std::vector<BankPlan> plans_;
    bool ready_ = false;
    uint64_t iterations_ = 0;

    /**
     * Per-plan command-stream cursors. Each bank owns one host, and
     * all per-bank gaps stay >= the obeyed timings at iteration
     * boundaries, so a bank's commands never depend on the order in
     * which the plans run (sched::simulateQuacTrng models their
     * overlap on the channel).
     */
    std::vector<softmc::SoftMcHost> hosts_;
    /** Per-plan word scratch (one row), reused across iterations. */
    std::vector<std::vector<uint64_t>> scratch_;
    /** Epoch the per-plan cursors were synchronized to at setup(). */
    double epoch_ = 0.0;

    std::vector<uint8_t> buffer_;
    size_t bufferHead_ = 0;
};

} // namespace quac::core

#endif // QUAC_CORE_TRNG_HH
