// Pieces shared by the AES-NI and VAES-512 GCM kernels (aesni.cc,
// gcm_kernel_vaes512.cc). Internal: include it only from a
// translation unit compiled with -maes -mpclmul -msse4.1. Everything here has
// internal linkage, so the two kernel TUs — built with different -m flags —
// never share (and never swap) one definition at link time.
//
// Field elements live byte-reversed in registers (bswap128 of the GCM byte
// order), as in Gueron & Kounavis, "Intel Carry-Less Multiplication
// Instruction and its Usage for Computing the GCM Mode". Products are summed
// unreduced, so k blocks multiplied by H^k..H^1 cost one reduction in total.
#pragma once

#include <immintrin.h>

namespace plinius::crypto::detail {
namespace {

/// What one kernel call hashes besides running CTR: nothing, its output
/// (encrypt) or its input (decrypt).
enum class Mode { kCtr, kEncrypt, kDecrypt };

inline __m128i bswap_mask() {
  return _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
}

/// An unreduced sum of 128x128 -> 256-bit carry-less products, with the
/// middle (cross) terms kept apart until the reduction.
struct Clmul256 {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

inline void clmul_acc(Clmul256& acc, __m128i a, __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                                 _mm_clmulepi64_si128(a, b, 0x01)));
}

/// Folds the middle terms in, shifts the 256-bit sum left by one (the
/// bit-reflection adjustment) and reduces modulo x^128 + x^7 + x^2 + x + 1.
inline __m128i gf128_reduce(const Clmul256& acc) {
  const __m128i t0 = _mm_xor_si128(acc.lo, _mm_slli_si128(acc.mid, 8));
  const __m128i t3 = _mm_xor_si128(acc.hi, _mm_srli_si128(acc.mid, 8));

  const __m128i lo_carry = _mm_srli_epi64(t0, 63);
  const __m128i hi_carry = _mm_srli_epi64(t3, 63);
  const __m128i lo = _mm_or_si128(_mm_slli_epi64(t0, 1), _mm_slli_si128(lo_carry, 8));
  const __m128i cross = _mm_srli_si128(lo_carry, 8);
  __m128i hi = _mm_or_si128(_mm_slli_epi64(t3, 1), _mm_slli_si128(hi_carry, 8));
  hi = _mm_or_si128(hi, cross);

  __m128i v = lo;
  const __m128i r = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi64(v, 63), _mm_slli_epi64(v, 62)), _mm_slli_epi64(v, 57));
  v = _mm_xor_si128(v, _mm_slli_si128(r, 8));
  __m128i w = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi64(v, 1), _mm_srli_epi64(v, 2)), _mm_srli_epi64(v, 7));
  // Bits shifted across the 64-bit lane boundary.
  const __m128i carry = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi64(v, 63), _mm_slli_epi64(v, 62)), _mm_slli_epi64(v, 57));
  w = _mm_xor_si128(w, _mm_srli_si128(carry, 8));
  return _mm_xor_si128(hi, _mm_xor_si128(v, w));
}

}  // namespace
}  // namespace plinius::crypto::detail
