#include "crypto/sha256.hh"

#include <atomic>
#include <cstring>

#include "common/vec_clones.hh" // QUAC_SANITIZED

/**
 * SHA-NI support guard, mirroring vec_clones.hh: x86-64 with the
 * target attribute and __builtin_cpu_supports, and not a sanitizer
 * build (keep instrumented binaries on the plain scalar path).
 */
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(QUAC_SANITIZED)
#if __has_attribute(target) && __has_include(<immintrin.h>)
#define QUAC_SHA_NI 1
#include <immintrin.h>
#endif
#endif

namespace quac
{

namespace
{

constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u,
    0x3956c25bu, 0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u,
    0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u,
    0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u,
    0xc6e00bf3u, 0xd5a79147u, 0x06ca6351u, 0x14292967u,
    0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u,
    0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u,
    0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu, 0x682e6ff3u,
    0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

constexpr std::array<uint32_t, 8> kInitialState = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

inline uint32_t
rotr(uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

/** SHA-NI path toggle (process-global; benches/tests flip it). */
std::atomic<bool> shaNiEnabled{true};

#ifdef QUAC_SHA_NI

/** Round constants k[4g..4g+3] as one vector. */
#define QUAC_SHA_K(g)                                                \
    _mm_loadu_si128(reinterpret_cast<const __m128i *>(               \
        kRoundConstants.data() + 4 * (g)))

/** Four rounds: two sha256rnds2 issues over the w+k vector. */
#define QUAC_SHA_QROUND(wk)                                          \
    do {                                                             \
        __m128i wk_ = (wk);                                          \
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk_);               \
        wk_ = _mm_shuffle_epi32(wk_, 0x0E);                          \
        abef = _mm_sha256rnds2_epu32(abef, cdgh, wk_);               \
    } while (0)

/** One 64-byte block through the CPU's SHA extensions. */
__attribute__((target("sha,sse4.1"))) void
processBlockShaNi(uint32_t *state, const uint8_t *block)
{
    const __m128i swap = _mm_set_epi64x(0x0C0D0E0F08090A0BULL,
                                        0x0405060700010203ULL);

    // Repack {a..d}, {e..h} into the ABEF/CDGH lane order the
    // sha256rnds2 instruction expects.
    __m128i abcd = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(state));
    __m128i efgh = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(state + 4));
    __m128i tmp = _mm_shuffle_epi32(abcd, 0xB1);
    efgh = _mm_shuffle_epi32(efgh, 0x1B);
    __m128i abef = _mm_alignr_epi8(tmp, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);

    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;

    // Message schedule in a rotating 4-vector window: group g holds
    // w[4g..4g+3]; groups 4..15 extend the schedule from the
    // previous four groups before their rounds run.
    __m128i m[4];
    for (int g = 0; g < 4; ++g) {
        m[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                block + 16 * g)),
            swap);
        QUAC_SHA_QROUND(_mm_add_epi32(m[g], QUAC_SHA_K(g)));
    }
    for (int g = 4; g < 16; ++g) {
        __m128i w = _mm_sha256msg1_epu32(m[g & 3], m[(g + 1) & 3]);
        w = _mm_add_epi32(
            w, _mm_alignr_epi8(m[(g + 3) & 3], m[(g + 2) & 3], 4));
        w = _mm_sha256msg2_epu32(w, m[(g + 3) & 3]);
        m[g & 3] = w;
        QUAC_SHA_QROUND(_mm_add_epi32(w, QUAC_SHA_K(g)));
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    // Unpack ABEF/CDGH back to {a..d}, {e..h}.
    tmp = _mm_shuffle_epi32(abef, 0x1B);
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
    abcd = _mm_blend_epi16(tmp, cdgh, 0xF0);
    efgh = _mm_alignr_epi8(cdgh, tmp, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), abcd);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), efgh);
}

#undef QUAC_SHA_QROUND
#undef QUAC_SHA_K

#endif // QUAC_SHA_NI

} // anonymous namespace

bool
Sha256::hwAvailable()
{
#ifdef QUAC_SHA_NI
    static const bool available = __builtin_cpu_supports("sha") &&
                                  __builtin_cpu_supports("sse4.1");
    return available;
#else
    return false;
#endif
}

bool
Sha256::setHwEnabled(bool enabled)
{
    return shaNiEnabled.exchange(enabled);
}

bool
Sha256::hwEnabled()
{
    return hwAvailable() &&
           // relaxed: one-time CPU-feature probe result; any thread
           // computes the same value.
           shaNiEnabled.load(std::memory_order_relaxed);
}

Sha256::Sha256()
{
    reset();
}

void
Sha256::reset()
{
    state_ = kInitialState;
    totalBytes_ = 0;
    bufferLen_ = 0;
}

void
Sha256::update(const uint8_t *data, size_t len)
{
    totalBytes_ += len;
    while (len > 0) {
        size_t take = std::min(len, buffer_.size() - bufferLen_);
        std::memcpy(buffer_.data() + bufferLen_, data, take);
        bufferLen_ += take;
        data += take;
        len -= take;
        if (bufferLen_ == buffer_.size()) {
            processBlock(buffer_.data());
            bufferLen_ = 0;
        }
    }
}

void
Sha256::update(const std::vector<uint8_t> &data)
{
    update(data.data(), data.size());
}

void
Sha256::update(const std::string &data)
{
    update(reinterpret_cast<const uint8_t *>(data.data()), data.size());
}

Sha256::Digest
Sha256::finish()
{
    uint64_t bit_len = totalBytes_ * 8;

    // Append the 0x80 terminator, zero-pad to 56 mod 64 (spilling
    // into one more block when the terminator leaves no room for the
    // length), then append the 64-bit big-endian message length.
    buffer_[bufferLen_++] = 0x80;
    if (bufferLen_ > 56) {
        std::memset(buffer_.data() + bufferLen_, 0,
                    buffer_.size() - bufferLen_);
        processBlock(buffer_.data());
        bufferLen_ = 0;
    }
    std::memset(buffer_.data() + bufferLen_, 0, 56 - bufferLen_);
    for (int i = 0; i < 8; ++i)
        buffer_[56 + i] =
            static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    processBlock(buffer_.data());

    Digest digest;
    for (int i = 0; i < 8; ++i) {
        digest[4 * i + 0] = static_cast<uint8_t>(state_[i] >> 24);
        digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
        digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
        digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
    }
    reset();
    return digest;
}

void
Sha256::processBlock(const uint8_t *block)
{
#ifdef QUAC_SHA_NI
    if (hwEnabled()) {
        processBlockShaNi(state_.data(), block);
        return;
    }
#endif
    std::array<uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
               (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
               (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
               static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                      (w[i - 15] >> 3);
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                      (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

    for (int i = 0; i < 64; ++i) {
        uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
        uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t temp2 = s0 + maj;

        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

void
Sha256::hashBatch(const Job *jobs, size_t count, Digest *out)
{
    for (size_t i = 0; i < count; ++i)
        out[i] = hash(jobs[i].data, jobs[i].len);
}

Sha256::Digest
Sha256::hash(const uint8_t *data, size_t len)
{
    Sha256 hasher;
    hasher.update(data, len);
    return hasher.finish();
}

Sha256::Digest
Sha256::hash(const std::vector<uint8_t> &data)
{
    return hash(data.data(), data.size());
}

std::string
Sha256::hex(const Digest &digest)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (uint8_t byte : digest) {
        out.push_back(digits[byte >> 4]);
        out.push_back(digits[byte & 0xf]);
    }
    return out;
}

} // namespace quac
