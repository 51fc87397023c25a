/**
 * @file
 * SHA-256 (FIPS 180-2) implemented from scratch.
 *
 * The paper uses SHA-256 as the post-processing (whitening) step of
 * QUAC-TRNG: each 512-bit-wide read that carries >= 256 bits of
 * Shannon entropy is hashed down to a 256-bit random number.
 */

#ifndef QUAC_CRYPTO_SHA256_HH
#define QUAC_CRYPTO_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace quac
{

/**
 * Incremental SHA-256 hasher.
 *
 * The compression function has two implementations: the portable
 * scalar rounds and an x86 SHA-NI path (the CPU's SHA extensions,
 * one _mm_sha256rnds2 per two rounds). The hardware path is guarded
 * like common/vec_clones.hh — x86-64 only, compiled out under the
 * sanitizers — and selected at runtime via __builtin_cpu_supports,
 * so the binary stays portable. SHA-NI cannot use target_clones
 * directly (its body is intrinsics, not portable code the compiler
 * could clone), hence the explicit two-function dispatch. Both paths
 * are bit-identical; setHwEnabled(false) forces the scalar rounds
 * for benchmarking and differential tests.
 */
class Sha256
{
  public:
    /** The 32-byte digest type. */
    using Digest = std::array<uint8_t, 32>;

    /** True when this build and CPU support the SHA-NI path. */
    static bool hwAvailable();

    /**
     * Enable or disable the SHA-NI path (enabled by default when
     * available). Returns the previous setting. Process-global, for
     * benchmarks and differential tests.
     */
    static bool setHwEnabled(bool enabled);

    /** True when the SHA-NI path is available and enabled. */
    static bool hwEnabled();

    Sha256();

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p len bytes from @p data. */
    void update(const uint8_t *data, size_t len);

    /** Absorb a byte vector. */
    void update(const std::vector<uint8_t> &data);

    /** Absorb the bytes of a string. */
    void update(const std::string &data);

    /** Apply padding and produce the digest; the hasher then resets. */
    Digest finish();

    /** One-shot convenience hash. */
    static Digest hash(const uint8_t *data, size_t len);

    /** One-shot convenience hash of a byte vector. */
    static Digest hash(const std::vector<uint8_t> &data);

    /** One independent message for hashBatch(). */
    struct Job
    {
        const uint8_t *data;
        size_t len;
    };

    /**
     * Hash @p count independent messages into out[0..count), each
     * through hash(): one call per TRNG iteration whitens all of its
     * SIBs.
     */
    static void hashBatch(const Job *jobs, size_t count, Digest *out);

    /** Render a digest as lowercase hex. */
    static std::string hex(const Digest &digest);

  private:
    void processBlock(const uint8_t *block);

    std::array<uint32_t, 8> state_;
    std::array<uint8_t, 64> buffer_;
    uint64_t totalBytes_;
    size_t bufferLen_;
};

} // namespace quac

#endif // QUAC_CRYPTO_SHA256_HH
