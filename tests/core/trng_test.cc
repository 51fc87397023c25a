/**
 * @file
 * Tests for the QUAC-TRNG pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/error.hh"
#include "core/trng.hh"
#include "crypto/sha256.hh"
#include "dram/catalog.hh"
#include "nist/sts.hh"

namespace quac::core
{
namespace
{

dram::ModuleSpec
testSpec(uint64_t seed = 2021)
{
    dram::ModuleSpec spec;
    spec.geometry = dram::Geometry::testScale();
    spec.seed = seed;
    return spec;
}

QuacTrngConfig
testConfig()
{
    QuacTrngConfig cfg;
    cfg.banks = {0, 1};
    cfg.characterizeStride = 1;
    // The reduced test geometry has ~8x fewer bitlines per segment
    // than real hardware; scale the per-block entropy target so a
    // segment still yields multiple blocks.
    cfg.sibEntropyTarget = 24.0;
    cfg.threads = 2;
    return cfg;
}

TEST(QuacTrng, SetupBuildsPlans)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    trng.setup();
    ASSERT_TRUE(trng.ready());
    ASSERT_EQ(trng.plans().size(), 2u);

    const dram::Geometry &geom = module.geometry();
    for (const auto &plan : trng.plans()) {
        EXPECT_LT(plan.segment, geom.segmentsPerBank());
        EXPECT_GT(plan.segmentEntropy, 0.0);
        EXPECT_FALSE(plan.ranges.empty());
        // Reserved rows must sit outside the QUAC segment but in the
        // same subarray (RowClone requirement).
        EXPECT_NE(geom.segmentOfRow(plan.zeroRow), plan.segment);
        EXPECT_EQ(geom.subarrayOfRow(plan.zeroRow),
                  geom.subarrayOfRow(
                      geom.firstRowOfSegment(plan.segment)));
        EXPECT_EQ(plan.oneRow, plan.zeroRow + 1);
    }
    EXPECT_EQ(trng.bitsPerIteration() % 256, 0u);
    EXPECT_GT(trng.bitsPerIteration(), 0u);
}

TEST(QuacTrng, GeneratesRequestedBytes)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    auto bytes = trng.generate(1000);
    EXPECT_EQ(bytes.size(), 1000u);
    EXPECT_GT(trng.iterations(), 0u);

    // Output should not be trivially constant.
    std::set<uint8_t> distinct(bytes.begin(), bytes.end());
    EXPECT_GT(distinct.size(), 16u);
}

TEST(QuacTrng, FillAcrossIterationBoundaries)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    trng.setup();
    size_t chunk = trng.bitsPerIteration() / 8;
    // Request a length that is not a multiple of the per-iteration
    // output so the buffer must carry a partial remainder.
    auto bytes = trng.generate(chunk + chunk / 2 + 3);
    EXPECT_EQ(bytes.size(), chunk + chunk / 2 + 3);
    EXPECT_GE(trng.iterations(), 2u);
}

TEST(QuacTrng, DeterministicForSameSeed)
{
    dram::DramModule module_a(testSpec(5));
    dram::DramModule module_b(testSpec(5));
    QuacTrng trng_a(module_a, testConfig());
    QuacTrng trng_b(module_b, testConfig());
    EXPECT_EQ(trng_a.generate(256), trng_b.generate(256));
}

TEST(QuacTrng, DifferentModulesDiffer)
{
    dram::DramModule module_a(testSpec(5));
    dram::DramModule module_b(testSpec(6));
    QuacTrng trng_a(module_a, testConfig());
    QuacTrng trng_b(module_b, testConfig());
    EXPECT_NE(trng_a.generate(256), trng_b.generate(256));
}

TEST(QuacTrng, Random256Distinct)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    auto a = trng.random256();
    auto b = trng.random256();
    EXPECT_NE(a, b) << "consecutive 256-bit outputs must differ";
}

TEST(QuacTrng, RawIterationHasExpectedSize)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    Bitstream raw = trng.rawIteration(0);
    EXPECT_EQ(raw.size(), module.geometry().bitlinesPerRow);
    // Conflicting-pattern QUAC: the raw read is a mix of 0s and 1s.
    EXPECT_GT(raw.popcount(), 0u);
    EXPECT_LT(raw.popcount(), raw.size());
}

TEST(QuacTrng, ShaOutputPassesBasicNistTests)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    Bitstream bits = trng.generateBits(1u << 16);
    EXPECT_TRUE(nist::monobit(bits).passed());
    EXPECT_TRUE(nist::runs(bits).passed());
    EXPECT_TRUE(nist::frequencyWithinBlock(bits).passed());
    EXPECT_TRUE(nist::serial(bits).passed());
}

TEST(QuacTrng, RawOutputIsBiased)
{
    // Without whitening, raw QUAC reads carry the deterministic
    // bitlines too; a monobit failure is expected (this is why the
    // paper post-processes).
    dram::DramModule module(testSpec());
    QuacTrngConfig cfg = testConfig();
    cfg.useSha = false;
    QuacTrng trng(module, cfg);
    Bitstream bits = trng.generateBits(1u << 15);
    EXPECT_FALSE(nist::monobit(bits).passed());
}

TEST(QuacTrng, GeneratorStateAdvances)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    auto first = trng.generate(64);
    auto second = trng.generate(64);
    EXPECT_NE(first, second);
}

TEST(QuacTrng, RejectsBadConfig)
{
    dram::DramModule module(testSpec());
    QuacTrngConfig cfg = testConfig();
    cfg.banks = {};
    EXPECT_THROW(QuacTrng(module, cfg), FatalError);
    cfg.banks = {module.geometry().banks};
    EXPECT_THROW(QuacTrng(module, cfg), FatalError);
}

TEST(QuacTrng, ShaStreamIsPerSibDigestOfRawReads)
{
    // Reference for the one SHA path: the whitened stream is
    // Sha256::hash of each SIB slice of a same-seed raw stream, in
    // plan order, then range order. The chunks cover a buffered
    // remainder (1 B, then the rest of that iteration) and the
    // direct write of whole iterations followed by a buffered tail,
    // for a single plan as well as four.
    for (const auto &banks :
         std::vector<std::vector<uint32_t>>{{0}, {0, 1, 2, 3}}) {
        SCOPED_TRACE(banks.size());
        QuacTrngConfig cfg = testConfig();
        cfg.banks = banks;
        QuacTrngConfig raw_cfg = cfg;
        raw_cfg.useSha = false;
        dram::DramModule sha_module(testSpec(7));
        dram::DramModule raw_module(testSpec(7));
        QuacTrng sha(sha_module, cfg);
        QuacTrng raw(raw_module, raw_cfg);
        sha.setup();
        raw.setup();
        ASSERT_EQ(sha.plans().size(), banks.size());
        ASSERT_EQ(sha.bitsPerIteration(), raw.bitsPerIteration());

        size_t iter = sha.bytesPerIteration();
        std::vector<uint8_t> stream;
        for (size_t chunk : {size_t{1}, iter - 1, 3 * iter + 11}) {
            auto part = sha.generate(chunk);
            stream.insert(stream.end(), part.begin(), part.end());
        }

        const size_t block_bytes =
            raw_module.geometry().cacheBlockBits / 8;
        std::vector<uint8_t> expected;
        while (expected.size() < stream.size()) {
            auto reads = raw.generate(raw.bytesPerIteration());
            const uint8_t *sib = reads.data();
            for (const auto &plan : raw.plans()) {
                for (const ColumnRange &range : plan.ranges) {
                    size_t len = (range.endColumn - range.beginColumn) *
                                 block_bytes;
                    Sha256::Digest digest = Sha256::hash(sib, len);
                    expected.insert(expected.end(), digest.begin(),
                                    digest.end());
                    sib += len;
                }
            }
            ASSERT_EQ(sib, reads.data() + reads.size());
        }
        expected.resize(stream.size());
        EXPECT_EQ(stream, expected);
    }
}

TEST(QuacTrng, FillRequestsStraddlingIterationBoundary)
{
    // A stream drawn in awkward chunk sizes (forcing buffered
    // remainders across iteration boundaries) must equal the same
    // stream drawn in one large request (the direct-write path).
    dram::DramModule module_chunked(testSpec(9));
    dram::DramModule module_bulk(testSpec(9));
    QuacTrng chunked(module_chunked, testConfig());
    QuacTrng bulk(module_bulk, testConfig());
    chunked.setup();
    bulk.setup();

    size_t iter = chunked.bytesPerIteration();
    ASSERT_GT(iter, 0u);
    std::vector<size_t> chunks = {iter / 2 + 1, iter, 3, iter - 1,
                                  2 * iter + 5};
    std::vector<uint8_t> stream;
    for (size_t chunk : chunks) {
        auto part = chunked.generate(chunk);
        stream.insert(stream.end(), part.begin(), part.end());
    }
    EXPECT_EQ(stream, bulk.generate(stream.size()));
}

TEST(QuacTrng, OracleCacheIsBitIdentical)
{
    // The variation-oracle row cache is a pure memoization: cached
    // and uncached modules must emit identical bytes.
    dram::ModuleSpec cached_spec = testSpec(13);
    dram::ModuleSpec uncached_spec = testSpec(13);
    uncached_spec.oracleCache = false;
    dram::DramModule cached_module(std::move(cached_spec));
    dram::DramModule uncached_module(std::move(uncached_spec));
    QuacTrng cached(cached_module, testConfig());
    QuacTrng uncached(uncached_module, testConfig());
    EXPECT_EQ(cached.generate(512), uncached.generate(512));
}

TEST(QuacTrng, SaturationFastPathIsBitIdentical)
{
    // The saturation fast-path skips the Phi batch for whole-row
    // tail setups (the RowClone-init resolves); generated bytes must
    // not change, and the fast-path must actually fire every
    // iteration on the four raced init copies per bank.
    dram::ModuleSpec fast_spec = testSpec(13);
    dram::ModuleSpec full_spec = testSpec(13);
    full_spec.saturationFastPath = false;
    dram::DramModule fast_module(std::move(fast_spec));
    dram::DramModule full_module(std::move(full_spec));
    QuacTrng fast(fast_module, testConfig());
    QuacTrng full(full_module, testConfig());
    EXPECT_EQ(fast.generate(512), full.generate(512));

    uint64_t fired = 0;
    for (const auto &plan : fast.plans())
        fired += fast_module.bank(plan.bank).saturatedRowFastPaths();
    EXPECT_GE(fired, 4u * fast.plans().size() * fast.iterations());
    for (const auto &plan : full.plans())
        EXPECT_EQ(full_module.bank(plan.bank).saturatedRowFastPaths(),
                  0u);
}

TEST(QuacTrng, PreferredChunkMatchesIterationOutput)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    size_t chunk = trng.preferredChunkBytes();
    ASSERT_TRUE(trng.ready()) << "preferredChunkBytes must set up";
    EXPECT_EQ(chunk, trng.bytesPerIteration());
    EXPECT_EQ(chunk * 8, trng.bitsPerIteration());
}

TEST(QuacTrng, RejectsDuplicateBanks)
{
    dram::DramModule module(testSpec());
    QuacTrngConfig cfg = testConfig();
    cfg.banks = {0, 1, 0};
    EXPECT_THROW(QuacTrng(module, cfg), FatalError);
}

/** SHA-256 hex of the first 64 KiB of a catalog module's stream,
 * filled in @p call_bytes calls. */
std::string
catalogStreamDigest(size_t module_index, std::vector<uint32_t> banks,
                    bool use_sha, size_t call_bytes)
{
    const auto &entry = dram::paperCatalog()[module_index];
    dram::DramModule module(
        dram::specFor(entry, dram::Geometry::testScale()));
    QuacTrngConfig cfg;
    cfg.banks = std::move(banks);
    cfg.useSha = use_sha;
    cfg.sibEntropyTarget = 24.0;
    cfg.characterizeStride = 4;
    QuacTrng trng(module, cfg);
    std::vector<uint8_t> stream(65536);
    for (size_t at = 0; at < stream.size(); at += call_bytes)
        trng.fill(stream.data() + at,
                  std::min(call_bytes, stream.size() - at));
    return Sha256::hex(Sha256::hash(stream));
}

TEST(QuacTrng, StreamDigestIsPinned)
{
    // Byte-for-byte contract of the generator: the sense model, the
    // SIB reads and the SHA-256 whitening may get faster, but these
    // streams may not change. The digests do not depend on the
    // host's ISA (same with the vector clones and SHA-NI compiled
    // out), so they hold on every build.
    struct Case
    {
        size_t module;
        std::vector<uint32_t> banks;
        bool sha;
        const char *digest;
    };
    const std::vector<Case> cases = {
        {0, {0, 1, 2, 3}, true,
         "6867c35609bad979035b883570f33954"
         "793cb204783e244bfe0a75350e7a434f"},
        {0, {0, 1, 2, 3}, false,
         "e4e619a63ace78bd086c7782966df624"
         "d4ba2facc7e27d07a365e737b1bcaa47"},
        {0, {0}, true,
         "8d42bceebcba5bde0ffdb8beda47bb14"
         "19514de087e5e5a2185ec5e995eab6d4"},
        {0, {0}, false,
         "99d12b56deafb39b42ebcc44cc90d0b0"
         "2e29ce1ff76e2087c0ec9609e3265d4a"},
        {2, {0, 1, 2, 3}, true,
         "116c4d13b2c5a27a1c936b678ad86df8"
         "8bcd025d9092e5caea074a988db09dec"},
        {2, {0, 1, 2, 3}, false,
         "e81d797223d390739ac9828c5e21777f"
         "0ef263faca52d7f8697d19f5fe625d31"},
        {2, {0}, true,
         "58723e6d6816bba8afa5f2b78b8915df"
         "4930c94d2b4888e6b87d83dc52d85234"},
        {2, {0}, false,
         "795d63b7d2ca0bbae9e788306952ed77"
         "68bc8f0d6f167bb45aa8f00477f191dd"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "module " << c.module << ", " << c.banks.size()
                     << " bank(s), " << (c.sha ? "SHA" : "raw"));
        EXPECT_EQ(catalogStreamDigest(c.module, c.banks, c.sha, 333),
                  c.digest);
    }
    // One 64 KiB fill: whole iterations written straight to the
    // caller's buffer instead of through the 333-byte remainders.
    EXPECT_EQ(catalogStreamDigest(0, {0, 1, 2, 3}, true, 65536),
              cases[0].digest);
}

TEST(QuacTrng, RecharacterizeAfterTemperatureChange)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    trng.setup();
    auto plans_cold = trng.plans();
    module.setTemperature(85.0);
    trng.recharacterize();
    ASSERT_TRUE(trng.ready());
    // Plans may or may not move; the TRNG must still produce data.
    auto bytes = trng.generate(128);
    EXPECT_EQ(bytes.size(), 128u);
    (void)plans_cold;
}

} // anonymous namespace
} // namespace quac::core
