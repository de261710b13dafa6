// VAES + VPCLMULQDQ CTR + GHASH kernel on 512-bit registers: 16 blocks per
// step, four per zmm (Drucker & Gueron, ARITH 2018). Lives in its own
// translation unit so only it is compiled with -mvaes -mvpclmulqdq -mavx512f
// -mavx512bw; it checks CPU support at runtime and hands the last < 16
// blocks to the 8-block AES-NI kernel.
#include <cstdlib>

#include "crypto/aes.h"

#if defined(__VAES__) && defined(__VPCLMULQDQ__) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AES__) && defined(__PCLMUL__)
#define PLINIUS_VAES512_COMPILED 1
#include "crypto/ghash_clmul.h"
#else
#define PLINIUS_VAES512_COMPILED 0
#endif

namespace plinius::crypto::detail {

bool vaes512_gcm_supported() noexcept {
#if PLINIUS_VAES512_COMPILED
  static const bool ok = aesni_gcm_supported() && __builtin_cpu_supports("vaes") &&
                         __builtin_cpu_supports("vpclmulqdq") &&
                         __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512bw");
  return ok;
#else
  return false;
#endif
}

#if PLINIUS_VAES512_COMPILED

namespace {

struct Clmul512 {
  __m512i lo = _mm512_setzero_si512();
  __m512i mid = _mm512_setzero_si512();
  __m512i hi = _mm512_setzero_si512();
};

inline void clmul_acc(Clmul512& acc, __m512i a, __m512i b) {
  acc.lo = _mm512_xor_si512(acc.lo, _mm512_clmulepi64_epi128(a, b, 0x00));
  acc.hi = _mm512_xor_si512(acc.hi, _mm512_clmulepi64_epi128(a, b, 0x11));
  acc.mid = _mm512_xor_si512(acc.mid, _mm512_xor_si512(_mm512_clmulepi64_epi128(a, b, 0x10),
                                                       _mm512_clmulepi64_epi128(a, b, 0x01)));
}

// GCC 12's unmasked AVX-512 lane moves (broadcast, lane shuffle, extract,
// cast to a narrower type) fill an unused pass-through operand from
// _mm512_undefined_*(), which -Wuninitialized reports at every call site
// (GCC bug 105593). The zero-masked forms with every mask bit set compute
// the same lanes without one.
inline __m512i broadcast(__m128i x) { return _mm512_maskz_broadcast_i32x4(0xFFFF, x); }

inline __m512i broadcast_load(const std::uint8_t* p) {
  return broadcast(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline __m128i xor_lanes(__m512i v) {
  return _mm_xor_si128(_mm_xor_si128(_mm512_maskz_extracti32x4_epi32(0xF, v, 0),
                                     _mm512_maskz_extracti32x4_epi32(0xF, v, 1)),
                       _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(0xF, v, 2),
                                     _mm512_maskz_extracti32x4_epi32(0xF, v, 3)));
}

// The four lanes' products summed, then the one 128-bit reduction.
inline __m128i reduce(const Clmul512& acc) {
  Clmul256 sum;
  sum.lo = xor_lanes(acc.lo);
  sum.mid = xor_lanes(acc.mid);
  sum.hi = xor_lanes(acc.hi);
  return gf128_reduce(sum);
}

// Same structure as aesni.cc's 8-block kernel, four blocks per register:
// counters byte-reversed per lane (_mm512_add_epi32 wraps each lane's low
// word modulo 2^32), 16 ciphertext blocks times H^16..H^1 folded into one
// reduction, the multiplies interleaved with AES rounds 1-4.
template <Mode M>
void gcm_blocks(const GcmJob& j) {
  const __m512i bswap = broadcast(bswap_mask());
  const int rounds = j.aes.rounds();
  __m512i rk[15];
  for (int r = 0; r <= rounds; ++r) rk[r] = broadcast_load(j.aes.round_keys() + 16 * r);
  // hp[q] lane l = H^(16 - 4q - l): the table holds H^(13-4q)..H^(16-4q) in
  // ascending order, so reverse the lanes.
  __m512i hp[4] = {};
  __m128i y = _mm_setzero_si128();
  if constexpr (M != Mode::kCtr) {
    for (int q = 0; q < 4; ++q) {
      const __m512i asc = _mm512_loadu_si512(j.hpow + 16 * (12 - 4 * q));
      hp[q] = _mm512_shuffle_epi8(_mm512_maskz_shuffle_i64x2(0xFF, asc, asc, 0x1B), bswap);
    }
    y = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(j.y)),
                         bswap_mask());
  }
  const __m512i four = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4);
  __m512i ctr = _mm512_add_epi32(
      _mm512_shuffle_epi8(broadcast_load(j.counter), bswap),
      _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0));
  const std::uint8_t* in = j.in;
  std::uint8_t* out = j.out;
  std::size_t n = j.len;

  __m512i pending[4] = {};  // encrypt: the last step's ciphertext, not yet hashed
  bool have_pending = false;
  for (; n >= 256; n -= 256, in += 256, out += 256) {
    __m512i b[4], h[4] = {};
    for (int q = 0; q < 4; ++q) {
      b[q] = _mm512_xor_si512(_mm512_shuffle_epi8(ctr, bswap), rk[0]);
      ctr = _mm512_add_epi32(ctr, four);
    }
    bool hash = false;
    if constexpr (M == Mode::kDecrypt) {
      for (int q = 0; q < 4; ++q) {
        h[q] = _mm512_shuffle_epi8(_mm512_loadu_si512(in + 64 * q), bswap);
      }
      hash = true;
    } else if constexpr (M == Mode::kEncrypt) {
      for (int q = 0; q < 4; ++q) h[q] = pending[q];
      hash = have_pending;
    }
    h[0] = _mm512_xor_si512(h[0], _mm512_inserti32x4(_mm512_setzero_si512(), y, 0));
    Clmul512 acc;
    for (int r = 1; r <= 4; ++r) {
      for (int q = 0; q < 4; ++q) b[q] = _mm512_aesenc_epi128(b[q], rk[r]);
      if (hash) clmul_acc(acc, h[r - 1], hp[r - 1]);
    }
    for (int r = 5; r < rounds; ++r) {
      for (int q = 0; q < 4; ++q) b[q] = _mm512_aesenc_epi128(b[q], rk[r]);
    }
    for (int q = 0; q < 4; ++q) {
      const __m512i c = _mm512_xor_si512(_mm512_loadu_si512(in + 64 * q),
                                         _mm512_aesenclast_epi128(b[q], rk[rounds]));
      _mm512_storeu_si512(out + 64 * q, c);
      if constexpr (M == Mode::kEncrypt) pending[q] = _mm512_shuffle_epi8(c, bswap);
    }
    if (hash) y = reduce(acc);
    have_pending = M == Mode::kEncrypt;
  }
  if (have_pending) {
    Clmul512 acc;
    pending[0] = _mm512_xor_si512(pending[0], _mm512_inserti32x4(_mm512_setzero_si512(), y, 0));
    for (int q = 0; q < 4; ++q) clmul_acc(acc, pending[q], hp[q]);
    y = reduce(acc);
  }
  if constexpr (M != Mode::kCtr) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(j.y), _mm_shuffle_epi8(y, bswap_mask()));
  }
  if (n == 0) return;
  alignas(16) std::uint8_t next[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(next),
                  _mm_shuffle_epi8(_mm512_maskz_extracti32x4_epi32(0xF, ctr, 0), bswap_mask()));
  GcmJob tail = j;
  tail.counter = next;
  tail.in = in;
  tail.out = out;
  tail.len = n;
  aesni_gcm(tail);
}

}  // namespace

void vaes512_gcm(const GcmJob& job) {
  if (job.y == nullptr) {
    gcm_blocks<Mode::kCtr>(job);
  } else if (job.encrypt) {
    gcm_blocks<Mode::kEncrypt>(job);
  } else {
    gcm_blocks<Mode::kDecrypt>(job);
  }
}

#else  // !PLINIUS_VAES512_COMPILED

void vaes512_gcm(const GcmJob&) {
  std::abort();  // unreachable: vaes512_gcm_supported() returned false
}

#endif

}  // namespace plinius::crypto::detail
