/**
 * @file
 * BFV tests: batching encoder round trips, encrypt/decrypt, homomorphic
 * add / multiply / rotate against exact Z_t arithmetic, key-switch
 * noise sanity, and the RNS scale-and-round / decrypt against the
 * BigUInt references in test_refs. BFV is exact: every slot check is an
 * integer equality; only the HPS round may differ from the exact
 * scale-down, by at most one.
 */
#include <gtest/gtest.h>

#include "bfv/bfv.h"
#include "common/rng.h"
#include "nt/modops.h"
#include "test_refs.h"

namespace cross::bfv {
namespace {

class BfvFixture : public ::testing::Test
{
  protected:
    BfvFixture()
        : ctx(BfvParams::testSet(1 << 10, 4, 16)), encoder(ctx),
          keygen(ctx, 77), evaluator(ctx), rng(78)
    {
        pk = keygen.publicKey();
    }

    std::vector<u64>
    randomSlots(u64 seed)
    {
        Rng r(seed);
        std::vector<u64> v(ctx.degree());
        for (auto &x : v)
            x = r.uniform(ctx.plainModulus());
        return v;
    }

    BfvContext ctx;
    BfvEncoder encoder;
    BfvKeyGenerator keygen;
    BfvEvaluator evaluator;
    BfvPublicKey pk;
    Rng rng;
};

TEST_F(BfvFixture, ContextInvariants)
{
    EXPECT_EQ(ctx.plainModulus() % (2 * ctx.degree()), 1u);
    EXPECT_GT(ctx.bCount(), ctx.qCount()); // B > 2NQ guarantee
    // Delta * t <= Q < (Delta + 1) * t.
    const auto qt = ctx.bigQ();
    u64 rem = 0;
    const auto delta = qt.divmodSmall(ctx.plainModulus(), rem);
    EXPECT_EQ(delta.modSmall(ctx.ring().modulus(0)),
              ctx.deltaModQ(0) % ctx.ring().modulus(0));
}

TEST_F(BfvFixture, EncodeDecodeRoundTrip)
{
    const auto values = randomSlots(1);
    EXPECT_EQ(encoder.decode(encoder.encode(values)), values);
}

TEST_F(BfvFixture, EncodePartialPadsWithZeros)
{
    const std::vector<u64> values = {1, 2, 3};
    const auto decoded = encoder.decode(encoder.encode(values));
    EXPECT_EQ(decoded[0], 1u);
    EXPECT_EQ(decoded[2], 3u);
    for (size_t i = 3; i < decoded.size(); ++i)
        EXPECT_EQ(decoded[i], 0u);
}

TEST_F(BfvFixture, EncryptDecryptExact)
{
    const auto values = randomSlots(2);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    const auto decoded =
        encoder.decode(evaluator.decrypt(ct, keygen.secretKey()));
    EXPECT_EQ(decoded, values);
}

TEST_F(BfvFixture, HomomorphicAdd)
{
    const auto a = randomSlots(3);
    const auto b = randomSlots(4);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto sum = encoder.decode(
        evaluator.decrypt(evaluator.add(ca, cb), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(sum[i], (a[i] + b[i]) % t);
}

TEST_F(BfvFixture, HomomorphicMultiplyExact)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(5);
    const auto b = randomSlots(6);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto prod = encoder.decode(evaluator.decrypt(
        evaluator.multiply(ca, cb, rlk), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(prod[i], a[i] * b[i] % t) << "slot " << i;
}

TEST_F(BfvFixture, MultiplyThenAdd)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(7);
    const auto b = randomSlots(8);
    const auto c = randomSlots(9);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto cc = evaluator.encrypt(encoder.encode(c), pk, rng);
    const auto result = encoder.decode(evaluator.decrypt(
        evaluator.add(evaluator.multiply(ca, cb, rlk), cc),
        keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(result[i], (a[i] * b[i] + c[i]) % t);
}

TEST_F(BfvFixture, RotationPermutesSlots)
{
    // Galois element 5 acts on the NTT-mod-t slot order exactly as in
    // CKKS: a cyclic rotation within each conjugacy orbit. Verify against
    // the plaintext automorphism rather than a hardcoded pattern.
    const u32 k = 5;
    const auto key = keygen.rotationKey(k);
    const auto values = randomSlots(10);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    const auto rotated = encoder.decode(
        evaluator.decrypt(evaluator.rotate(ct, k, key),
                          keygen.secretKey()));

    // Expected: apply the same automorphism to the plaintext polynomial.
    auto pt = encoder.encode(values);
    poly::RnsPoly tmp(ctx.ring(), 1, false);
    // Plaintext automorphism in coefficient domain modulo t.
    std::vector<u32> expect_coeffs(ctx.degree());
    const u64 two_n = 2ULL * ctx.degree();
    const u32 t = ctx.plainModulus();
    for (u32 j = 0; j < ctx.degree(); ++j) {
        const u64 e = (static_cast<u64>(j) * k) % two_n;
        const u32 v = pt.coeffs[j];
        if (e < ctx.degree())
            expect_coeffs[e] = v;
        else
            expect_coeffs[e - ctx.degree()] =
                static_cast<u32>(nt::negMod(v, t));
    }
    BfvPlaintext expect_pt;
    expect_pt.coeffs = expect_coeffs;
    EXPECT_EQ(rotated, encoder.decode(expect_pt));
}

TEST_F(BfvFixture, KeySwitchPreservesDecryption)
{
    // keySwitch(c, swk_{s->s}) must decrypt to c * s.
    const auto swk = keygen.relinKey(); // targets s^2
    const auto values = randomSlots(11);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    // relinearising c1 * s^2 is exercised inside multiply; here check the
    // degree-2 pipeline end to end via squaring.
    const auto sq = encoder.decode(evaluator.decrypt(
        evaluator.multiply(ct, ct, swk), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(sq[i], values[i] * values[i] % t);
}

TEST_F(BfvFixture, KernelLogCoversExpectedKinds)
{
    ckks::KernelLog log;
    BfvEvaluator ev(ctx, &log);
    const auto rlk = keygen.relinKey();
    const auto ct = ev.encrypt(encoder.encode(randomSlots(12)), pk, rng);
    (void)ev.multiply(ct, ct, rlk);
    bool has_ntt = false, has_bconv = false, has_mul = false;
    for (const auto &c : log.calls()) {
        has_ntt |= c.kind == ckks::KernelKind::Ntt;
        has_bconv |= c.kind == ckks::KernelKind::BConv;
        has_mul |= c.kind == ckks::KernelKind::VecModMul;
    }
    EXPECT_TRUE(has_ntt);
    EXPECT_TRUE(has_bconv);
    EXPECT_TRUE(has_mul);

    const u32 l = static_cast<u32>(ctx.qCount());
    const u32 full = l + static_cast<u32>(ctx.bCount());
    using ckks::KernelKind;
    std::vector<std::pair<u32, u32>> bconv;
    size_t scale_at = 0;
    const auto &calls = log.calls();
    for (size_t k = 0; k < calls.size(); ++k) {
        if (calls[k].kind != KernelKind::BConv)
            continue;
        bconv.emplace_back(calls[k].limbs, calls[k].limbsOut);
        if (calls[k].limbs == 3 * full)
            scale_at = k;
    }
    // BConv covers only the four ModUps Q -> B, one scale-and-round over
    // the three tensor components, and the relinearisation's per-limb
    // digit ModUps.
    std::vector<std::pair<u32, u32>> want(4, {l, full - l});
    want.emplace_back(3 * full, 3 * l);
    for (u32 i = 0; i < l; ++i)
        want.emplace_back(1, l - 1);
    EXPECT_EQ(bconv, want);
    // The tensor's coefficient-domain INTT is its own Intt entry just
    // before the scale-and-round; the scaled output's NTT just after.
    ASSERT_GT(scale_at, 0u);
    ASSERT_LT(scale_at + 1, calls.size());
    EXPECT_EQ(calls[scale_at - 1].kind, KernelKind::Intt);
    EXPECT_EQ(calls[scale_at - 1].limbs, 3 * full);
    EXPECT_EQ(calls[scale_at + 1].kind, KernelKind::Ntt);
    EXPECT_EQ(calls[scale_at + 1].limbs, 3 * l);
}

TEST_F(BfvFixture, DepthTwoMultiplyChainExact)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(13);
    const auto b = randomSlots(14);
    const auto c = randomSlots(15);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto cc = evaluator.encrypt(encoder.encode(c), pk, rng);
    const auto abc = evaluator.multiply(evaluator.multiply(ca, cb, rlk),
                                        cc, rlk);
    const auto prod =
        encoder.decode(evaluator.decrypt(abc, keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(prod[i], a[i] * b[i] % t * c[i] % t) << "slot " << i;
}

TEST_F(BfvFixture, DecryptMatchesBigUIntReference)
{
    // Fresh, once-multiplied and twice-multiplied ciphertexts: the RNS
    // decrypt must equal the exact BigUInt rounding bit for bit.
    const auto rlk = keygen.relinKey();
    const auto &sk = keygen.secretKey();
    const auto ca = evaluator.encrypt(encoder.encode(randomSlots(16)), pk,
                                      rng);
    const auto cb = evaluator.encrypt(encoder.encode(randomSlots(17)), pk,
                                      rng);
    const auto once = evaluator.multiply(ca, cb, rlk);
    const auto twice = evaluator.multiply(once, ca, rlk);
    for (const auto *ct : {&ca, &cb, &once, &twice})
        EXPECT_EQ(evaluator.decrypt(*ct, sk).coeffs,
                  testref::bfvDecrypt(ctx, *ct, sk).coeffs);
}

TEST_F(BfvFixture, KeySwitchDigitConversionsMatchFreshlyBuilt)
{
    // Each per-digit conversion the context builds once must equal a
    // conversion built from scratch for the same digit.
    const size_t l = ctx.qCount();
    for (size_t i = 0; i < l; ++i) {
        std::vector<u64> to;
        for (size_t j = 0; j < l; ++j)
            if (j != i)
                to.push_back(ctx.ring().modulus(j));
        const rns::BasisConversion fresh{
            rns::RnsBasis({ctx.ring().modulus(i)}), rns::RnsBasis(to)};
        const auto &pre = ctx.digitConversion(i);
        ASSERT_EQ(pre.from().moduli(), fresh.from().moduli());
        ASSERT_EQ(pre.to().moduli(), fresh.to().moduli());
        const rns::LimbMatrix in = {testref::randomPoly(
            ctx.degree(), ctx.ring().modulus(i), 100 + i)};
        rns::LimbMatrix got, want;
        pre.apply(in, got);
        fresh.apply(in, want);
        EXPECT_EQ(got, want) << "digit " << i;
    }
}

// ---------------------------------------------------------------------
// RNS scale-and-round against the BigUInt reference
// ---------------------------------------------------------------------

struct ScaleCase
{
    u32 n;
    size_t limbs;
    u32 logt;
};

class BfvScaleAndRound : public ::testing::TestWithParam<ScaleCase>
{
};

/**
 * Residues over Q u B of a random signed integer below the largest
 * tensor coefficient two ModUp'd ciphertexts can produce,
 * 2N * (L*Q)^2; the bit length is drawn too, so small values are
 * covered as well as the extremes.
 */
std::vector<u64>
randomTensorCoeff(const BfvContext &ctx, Rng &rng)
{
    const nt::BigUInt bound =
        ctx.bigQ() * ctx.bigQ() *
        (2ULL * ctx.degree() * ctx.qCount() * ctx.qCount());
    const u32 bits =
        1 + static_cast<u32>(rng.uniform(bound.bitLength() - 1));
    nt::BigUInt x;
    for (u32 done = 0; done < bits; done += 32) {
        const u32 take = std::min(32u, bits - done);
        x = x.shl(take) + rng.uniform(1ULL << take);
    }
    const auto &qb = ctx.qbBasis();
    return qb.decompose(rng.uniform(2) ? qb.bigModulus() - x : x);
}

TEST_P(BfvScaleAndRound, WithinOneOfBigUIntReference)
{
    const auto p = GetParam();
    const BfvContext ctx(BfvParams::testSet(p.n, p.limbs, p.logt));
    const size_t l = ctx.qCount();
    const size_t full = l + ctx.bCount();
    Rng rng(0x5ca1e + p.n + p.limbs);
    poly::RnsPoly x(ctx.ring(), full, false);
    for (u32 c = 0; c < ctx.degree(); ++c) {
        const auto r = randomTensorCoeff(ctx, rng);
        for (size_t i = 0; i < full; ++i)
            x.limb(i)[c] = static_cast<u32>(r[i]);
    }
    const auto got = ctx.scaleAndRound(x);
    const auto want = testref::bfvScaleDown(ctx, x);
    size_t off_by_one = 0;
    for (u32 c = 0; c < ctx.degree(); ++c) {
        // The difference is one integer in {-1, 0, 1} on every limb.
        const u64 q0 = ctx.ring().modulus(0);
        const i64 d = nt::centered(
            nt::subMod(got.limb(0)[c], want.limb(0)[c], q0), q0);
        ASSERT_LE(std::abs(d), 1) << "coefficient " << c;
        off_by_one += d != 0;
        for (size_t i = 1; i < l; ++i) {
            const u64 q = ctx.ring().modulus(i);
            EXPECT_EQ(nt::centered(
                          nt::subMod(got.limb(i)[c], want.limb(i)[c], q), q),
                      d)
                << "coefficient " << c << " limb " << i;
        }
    }
    // Off-by-one needs the fraction within ~2^-23 of 1/2.
    EXPECT_LE(off_by_one, 2u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, BfvScaleAndRound,
                         ::testing::Values(ScaleCase{1 << 10, 4, 16},
                                           ScaleCase{1 << 12, 4, 17},
                                           ScaleCase{1 << 13, 8, 17}),
                         [](const auto &info) {
                             return "N" + std::to_string(info.param.n) +
                                 "_L" + std::to_string(info.param.limbs) +
                                 "_t" + std::to_string(info.param.logt);
                         });

TEST(BfvParams, Validation)
{
    auto make = [](const BfvParams &p) { BfvContext ctx(p); };
    make(BfvParams::testSet()); // sane params construct fine
    EXPECT_THROW(make(BfvParams::testSet(100, 4)),
                 std::invalid_argument); // non power of two
    auto p = BfvParams::testSet();
    p.logt = 30; // t !<< q
    EXPECT_THROW(make(p), std::invalid_argument);
}

} // namespace
} // namespace cross::bfv
