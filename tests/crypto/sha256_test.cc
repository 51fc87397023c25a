/**
 * @file
 * SHA-256 known-answer tests (FIPS 180-2 and NIST CAVP vectors).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.hh"

namespace quac
{
namespace
{

std::string
hashHex(const std::string &message)
{
    Sha256 hasher;
    hasher.update(message);
    return Sha256::hex(hasher.finish());
}

TEST(Sha256, EmptyMessage)
{
    EXPECT_EQ(hashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(hashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                      "mnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 hasher;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        hasher.update(chunk);
    EXPECT_EQ(Sha256::hex(hasher.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
              "c7112cd0");
}

TEST(Sha256, ExactBlockBoundary)
{
    // 64 bytes: padding spills into a second block.
    std::string message(64, 'x');
    Sha256 one_shot;
    one_shot.update(message);
    std::string direct = Sha256::hex(one_shot.finish());

    Sha256 split;
    split.update(message.substr(0, 31));
    split.update(message.substr(31));
    EXPECT_EQ(Sha256::hex(split.finish()), direct);
}

TEST(Sha256, FiftyFiveAndFiftySixBytes)
{
    // 55 bytes is the longest message whose padding fits one block.
    std::string m55(55, 'y');
    std::string m56(56, 'y');
    EXPECT_NE(hashHex(m55), hashHex(m56));
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> data;
    for (int i = 0; i < 1000; ++i)
        data.push_back(static_cast<uint8_t>(i * 37));

    Sha256::Digest one_shot = Sha256::hash(data);

    Sha256 incremental;
    for (size_t offset = 0; offset < data.size(); offset += 7) {
        size_t len = std::min<size_t>(7, data.size() - offset);
        incremental.update(data.data() + offset, len);
    }
    EXPECT_EQ(incremental.finish(), one_shot);
}

TEST(Sha256, FinishResetsState)
{
    Sha256 hasher;
    hasher.update("abc");
    auto first = hasher.finish();
    hasher.update("abc");
    auto second = hasher.finish();
    EXPECT_EQ(first, second);
}

TEST(Sha256, AvalancheOnSingleBitFlip)
{
    std::vector<uint8_t> a(32, 0);
    std::vector<uint8_t> b = a;
    b[0] ^= 1;
    auto da = Sha256::hash(a);
    auto db = Sha256::hash(b);
    int differing_bits = 0;
    for (size_t i = 0; i < da.size(); ++i) {
        uint8_t x = da[i] ^ db[i];
        while (x) {
            differing_bits += x & 1;
            x >>= 1;
        }
    }
    // Expect roughly half of 256 bits to flip.
    EXPECT_GT(differing_bits, 80);
    EXPECT_LT(differing_bits, 176);
}

TEST(Sha256, HexFormatting)
{
    Sha256::Digest digest{};
    digest[0] = 0xab;
    digest[31] = 0x01;
    std::string hex = Sha256::hex(digest);
    EXPECT_EQ(hex.size(), 64u);
    EXPECT_EQ(hex.substr(0, 2), "ab");
    EXPECT_EQ(hex.substr(62, 2), "01");
}

/** Restores the SHA-NI toggle even when an assertion fails. */
struct HwGuard
{
    bool previous;
    explicit HwGuard(bool enabled)
        : previous(Sha256::setHwEnabled(enabled))
    {
    }
    ~HwGuard() { Sha256::setHwEnabled(previous); }
};

TEST(Sha256, ScalarAndShaNiPathsAreBitIdentical)
{
    if (!Sha256::hwAvailable())
        GTEST_SKIP() << "no SHA-NI on this host/build";

    // Every length mod 64 around the block and padding boundaries,
    // plus multi-block sizes, under both compression paths.
    std::vector<size_t> lengths = {0, 1, 31, 55, 56, 63, 64,
                                   65, 119, 127, 128, 1000, 8192};
    for (size_t len : lengths) {
        std::vector<uint8_t> data(len);
        for (size_t i = 0; i < len; ++i)
            data[i] = static_cast<uint8_t>(i * 131 + 7);

        Sha256::Digest scalar;
        Sha256::Digest hw;
        {
            HwGuard guard(false);
            scalar = Sha256::hash(data);
        }
        {
            HwGuard guard(true);
            hw = Sha256::hash(data);
        }
        EXPECT_EQ(Sha256::hex(scalar), Sha256::hex(hw))
            << "length " << len;
    }
}

TEST(Sha256, PaddingBoundaryKnownAnswers)
{
    // 'x' * n around each padding boundary: 55 bytes is the longest
    // tail whose length field fits its own block, 56..63 spill it into
    // one more, and 64/119/120 repeat the cases one block later.
    // Digests from an independent implementation (Python hashlib).
    struct Vector
    {
        size_t len;
        const char *digest;
    };
    const std::vector<Vector> vectors = {
        {55, "d5e285683cd4efc02d021a5c62014694"
             "958901005d6f71e89e0989fac77e4072"},
        {56, "04c26261370ee7541549d16dee320c72"
             "3e3fd14671e66a099afe0a377c16888e"},
        {57, "ae14a2563ccf969d99aca69ce6bb7498"
             "1f734bbf9f655f73b8f06db68cab5217"},
        {63, "75220b47218278e656f2013bb8f0c455"
             "a25eaf01e86c64924e9d48d89776d6f2"},
        {64, "7ce100971f64e7001e8fe5a51973ecdf"
             "e1ced42befe7ee8d5fd6219506b5393c"},
        {65, "9537c5fdf120482f7d58d25e9ed583f5"
             "2c02b4e304ea814db1633ad565aed7e9"},
        {119, "000b48d4edf0fa7bee3c6236ecd2785b"
              "aa5db4eeb8bb54341b029e0d9fa5fb0c"},
        {120, "13f05a0b594787f5ecd315edc96141bd"
              "3243203d1b7d4f0836f37308b276ba98"},
    };
    const std::string longest(vectors.back().len, 'x');
    const auto *bytes =
        reinterpret_cast<const uint8_t *>(longest.data());
    for (bool hw : {false, true}) {
        HwGuard guard(hw);
        std::vector<Sha256::Job> jobs;
        for (const Vector &v : vectors) {
            SCOPED_TRACE(testing::Message()
                         << "length " << v.len << ", SHA-NI " << hw);
            EXPECT_EQ(Sha256::hex(Sha256::hash(bytes, v.len)),
                      v.digest);
            Sha256 split;
            split.update(bytes, v.len / 2);
            split.update(bytes + v.len / 2, v.len - v.len / 2);
            EXPECT_EQ(Sha256::hex(split.finish()), v.digest);
            jobs.push_back({bytes, v.len});
        }
        std::vector<Sha256::Digest> batch(jobs.size());
        Sha256::hashBatch(jobs.data(), jobs.size(), batch.data());
        for (size_t i = 0; i < vectors.size(); ++i) {
            EXPECT_EQ(Sha256::hex(batch[i]), vectors[i].digest)
                << "batch job " << i << ", SHA-NI " << hw;
        }
    }
}

TEST(Sha256, ShaNiIncrementalMatchesOneShot)
{
    if (!Sha256::hwAvailable())
        GTEST_SKIP() << "no SHA-NI on this host/build";
    HwGuard guard(true);

    std::vector<uint8_t> data(777);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    Sha256 hasher;
    hasher.update(data.data(), 100);
    hasher.update(data.data() + 100, 1);
    hasher.update(data.data() + 101, 676);
    EXPECT_EQ(Sha256::hex(hasher.finish()),
              Sha256::hex(Sha256::hash(data)));
}

TEST(Sha256, InterleavedBatchMatchesScalarHashes)
{
    // hashBatch on the scalar rounds (SHA-NI off) over a length mix
    // that spans the padding boundaries (incl. 55/56 bytes) plus
    // equal-length messages, the TRNG's SIB shape: every digest must
    // equal hash() of its own message, in job order.
    HwGuard guard(false);
    std::vector<size_t> lens = {0,   1,   55,  56,   63,   64,  65,
                                120, 128, 512, 8192, 8192, 8192};
    std::vector<std::vector<uint8_t>> msgs;
    for (size_t i = 0; i < lens.size(); ++i) {
        std::vector<uint8_t> msg(lens[i]);
        for (size_t k = 0; k < msg.size(); ++k)
            msg[k] = static_cast<uint8_t>(31 * i + k);
        msgs.push_back(std::move(msg));
    }
    std::vector<Sha256::Job> jobs;
    for (const std::vector<uint8_t> &msg : msgs)
        jobs.push_back({msg.data(), msg.size()});
    std::vector<Sha256::Digest> batch(jobs.size());
    Sha256::hashBatch(jobs.data(), jobs.size(), batch.data());
    for (size_t i = 0; i < msgs.size(); ++i) {
        EXPECT_EQ(Sha256::hex(batch[i]),
                  Sha256::hex(Sha256::hash(msgs[i])))
            << "job " << i << " length " << lens[i];
    }
}

TEST(Sha256, InterleavedBatchMatchesHardwarePath)
{
    if (!Sha256::hwAvailable())
        GTEST_SKIP() << "no SHA-NI on this host/build";
    std::vector<uint8_t> data(4 * 512);
    for (size_t k = 0; k < data.size(); ++k)
        data[k] = static_cast<uint8_t>(k * 7);
    std::vector<Sha256::Job> jobs;
    for (int l = 0; l < 4; ++l)
        jobs.push_back({data.data() + l * 512, 512});

    std::vector<Sha256::Digest> scalar(4), hw(4);
    {
        HwGuard guard(false);
        Sha256::hashBatch(jobs.data(), jobs.size(), scalar.data());
    }
    {
        HwGuard guard(true);
        Sha256::hashBatch(jobs.data(), jobs.size(), hw.data());
    }
    for (int l = 0; l < 4; ++l)
        EXPECT_EQ(Sha256::hex(scalar[l]), Sha256::hex(hw[l]));
}

TEST(Sha256, HwToggleRoundTrips)
{
    bool initial = Sha256::hwEnabled();
    {
        HwGuard guard(false);
        EXPECT_FALSE(Sha256::hwEnabled());
    }
    EXPECT_EQ(Sha256::hwEnabled(), initial);
    EXPECT_EQ(Sha256::hwEnabled(),
              Sha256::hwAvailable() && initial);
}

} // anonymous namespace
} // namespace quac
