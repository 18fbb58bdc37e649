/**
 * @file
 * Shared reference implementations for the test suites.
 *
 * Ground-truth code that multiple suites compare against lives here --
 * not in the product library -- so the `cross` library ships no
 * test-only code and every suite checks against the *same* reference.
 * Used by poly_test, crossntt_test, bfv_test and the BAT property
 * tests.
 */
#pragma once

#include <vector>

#include "bfv/bfv.h"
#include "common/types.h"

namespace cross::testref {

/**
 * Reference negacyclic product of two coefficient vectors mod q
 * (schoolbook O(N^2)); ground truth for every NTT-based multiply.
 */
std::vector<u32> negacyclicMulSchoolbook(const std::vector<u32> &a,
                                         const std::vector<u32> &b, u64 q);

/**
 * Reference negacyclic product via Karatsuba (O(N^1.585)); bit-identical
 * to negacyclicMulSchoolbook but fast enough to serve as ground truth at
 * N >= 4096, where schoolbook's 16M+ modmuls per call dominate test time.
 */
std::vector<u32> negacyclicMulKaratsuba(const std::vector<u32> &a,
                                        const std::vector<u32> &b, u64 q);

/** Deterministic uniform coefficient vector in [0, q)^n. */
std::vector<u32> randomPoly(u32 n, u64 q, u64 seed);

/**
 * Reference BFV scale-down: round(t*x/Q) over Q for every coefficient
 * of a coefficient-domain x over Q u B, composing the centred integer
 * x mod QB with BigUInt CRT and dividing exactly. Ground truth for
 * BfvContext::scaleAndRound.
 */
poly::RnsPoly bfvScaleDown(const bfv::BfvContext &ctx,
                           const poly::RnsPoly &x);

/** Reference BFV decryption: [round(t*(c0 + c1*s)/Q)]_t via BigUInt. */
bfv::BfvPlaintext bfvDecrypt(const bfv::BfvContext &ctx,
                             const bfv::BfvCiphertext &ct,
                             const bfv::BfvSecretKey &sk);

} // namespace cross::testref
