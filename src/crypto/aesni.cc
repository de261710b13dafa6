// AES-NI / PCLMULQDQ fast paths: the single-block cipher and field multiply,
// and the 8-block CTR + GHASH kernel. This translation unit is compiled with
// -maes -mpclmul -msse4.1 when the toolchain supports those flags; every
// entry point double-checks CPU support at runtime, so calling code can
// dispatch safely on any machine.
#include <cstdlib>
#include <cstring>

#include "crypto/aes.h"

#if defined(__AES__) && defined(__PCLMUL__)
#define PLINIUS_AESNI_COMPILED 1
#include "crypto/ghash_clmul.h"
#else
#define PLINIUS_AESNI_COMPILED 0
#endif

namespace plinius::crypto::detail {

bool aesni_supported() noexcept {
#if PLINIUS_AESNI_COMPILED
  static const bool ok = __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
  return ok;
#else
  return false;
#endif
}

bool clmul_supported() noexcept {
#if PLINIUS_AESNI_COMPILED
  static const bool ok = __builtin_cpu_supports("pclmul");
  return ok;
#else
  return false;
#endif
}

bool aesni_gcm_supported() noexcept { return aesni_supported() && clmul_supported(); }

#if PLINIUS_AESNI_COMPILED

namespace {

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

inline __m128i encrypt_one(__m128i block, const __m128i* rks, int rounds) {
  block = _mm_xor_si128(block, rks[0]);
  for (int r = 1; r < rounds; ++r) block = _mm_aesenc_si128(block, rks[r]);
  return _mm_aesenclast_si128(block, rks[rounds]);
}

// 8 blocks per step. The counter is kept byte-reversed, so its big-endian low
// word is lane 0 and _mm_add_epi32 steps it modulo 2^32 exactly as GCM's
// inc32 does. GHASH multiplies 8 ciphertext blocks by H^8..H^1 and reduces
// once, its carry-less multiplies interleaved with AES rounds 1-8: encrypt
// hashes the previous step's ciphertext (still in registers), decrypt the
// step's own input, so either direction reads the buffer once.
template <Mode M>
void gcm_blocks(const GcmJob& j) {
  const __m128i bswap = bswap_mask();
  const int rounds = j.aes.rounds();
  __m128i rk[15];
  for (int r = 0; r <= rounds; ++r) rk[r] = load(j.aes.round_keys() + 16 * r);
  __m128i hp[8];  // hp[i] = H^(i+1)
  __m128i y = _mm_setzero_si128();
  if constexpr (M != Mode::kCtr) {
    for (int i = 0; i < 8; ++i) hp[i] = _mm_shuffle_epi8(load(j.hpow + 16 * i), bswap);
    y = _mm_shuffle_epi8(load(j.y), bswap);
  }
  const __m128i one = _mm_set_epi32(0, 0, 0, 1);
  __m128i ctr = _mm_shuffle_epi8(load(j.counter), bswap);
  const std::uint8_t* in = j.in;
  std::uint8_t* out = j.out;
  std::size_t n = j.len;

  __m128i pending[8] = {};  // encrypt: the last step's ciphertext, not yet hashed
  bool have_pending = false;
  for (; n >= 128; n -= 128, in += 128, out += 128) {
    __m128i b[8], h[8] = {};
    for (int i = 0; i < 8; ++i) {
      b[i] = _mm_xor_si128(_mm_shuffle_epi8(ctr, bswap), rk[0]);
      ctr = _mm_add_epi32(ctr, one);
    }
    bool hash = false;
    if constexpr (M == Mode::kDecrypt) {
      for (int i = 0; i < 8; ++i) h[i] = _mm_shuffle_epi8(load(in + 16 * i), bswap);
      hash = true;
    } else if constexpr (M == Mode::kEncrypt) {
      for (int i = 0; i < 8; ++i) h[i] = pending[i];
      hash = have_pending;
    }
    h[0] = _mm_xor_si128(h[0], y);
    Clmul256 acc;
    for (int r = 1; r <= 8; ++r) {  // AES has >= 10 rounds, so none is the last
      for (int i = 0; i < 8; ++i) b[i] = _mm_aesenc_si128(b[i], rk[r]);
      if (hash) clmul_acc(acc, h[r - 1], hp[8 - r]);
    }
    for (int r = 9; r < rounds; ++r) {
      for (int i = 0; i < 8; ++i) b[i] = _mm_aesenc_si128(b[i], rk[r]);
    }
    for (int i = 0; i < 8; ++i) {
      const __m128i c =
          _mm_xor_si128(load(in + 16 * i), _mm_aesenclast_si128(b[i], rk[rounds]));
      store(out + 16 * i, c);
      if constexpr (M == Mode::kEncrypt) pending[i] = _mm_shuffle_epi8(c, bswap);
    }
    if (hash) y = gf128_reduce(acc);
    have_pending = M == Mode::kEncrypt;
  }
  if (have_pending) {
    Clmul256 acc;
    pending[0] = _mm_xor_si128(pending[0], y);
    for (int i = 0; i < 8; ++i) clmul_acc(acc, pending[i], hp[7 - i]);
    y = gf128_reduce(acc);
  }
  // Tail: the last < 8 blocks one at a time, a partial block zero-padded.
  while (n > 0) {
    const std::size_t take = n < 16 ? n : 16;
    alignas(16) std::uint8_t buf[16] = {};
    std::memcpy(buf, in, take);
    const __m128i x = load(buf);
    const __m128i c =
        _mm_xor_si128(x, encrypt_one(_mm_shuffle_epi8(ctr, bswap), rk, rounds));
    ctr = _mm_add_epi32(ctr, one);
    store(buf, c);
    std::memcpy(out, buf, take);
    if constexpr (M != Mode::kCtr) {
      std::memset(buf + take, 0, 16 - take);
      const __m128i ct = M == Mode::kEncrypt ? load(buf) : x;
      Clmul256 acc;
      clmul_acc(acc, _mm_xor_si128(y, _mm_shuffle_epi8(ct, bswap)), hp[0]);
      y = gf128_reduce(acc);
    }
    in += take;
    out += take;
    n -= take;
  }
  if constexpr (M != Mode::kCtr) store(j.y, _mm_shuffle_epi8(y, bswap));
}

}  // namespace

void aesni_encrypt_blocks(const std::uint8_t* round_keys, int rounds,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks) {
  __m128i rks[15];
  for (int r = 0; r <= rounds; ++r) rks[r] = load(round_keys + 16 * r);
  for (std::size_t i = 0; i < nblocks; ++i) {
    store(out + 16 * i, encrypt_one(load(in + 16 * i), rks, rounds));
  }
}

void aesni_gcm(const GcmJob& job) {
  if (job.y == nullptr) {
    gcm_blocks<Mode::kCtr>(job);
  } else if (job.encrypt) {
    gcm_blocks<Mode::kEncrypt>(job);
  } else {
    gcm_blocks<Mode::kDecrypt>(job);
  }
}

void clmul_gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16],
                     std::uint8_t out[16]) {
  // GHASH field elements are bit-reflected; reverse the bytes and work with
  // the reflected-reduction trick (reduce modulo x^128 + x^7 + x^2 + x + 1).
  const __m128i bswap = bswap_mask();
  Clmul256 acc;
  clmul_acc(acc, _mm_shuffle_epi8(load(x), bswap), _mm_shuffle_epi8(load(h), bswap));
  store(out, _mm_shuffle_epi8(gf128_reduce(acc), bswap));
}

#else  // !PLINIUS_AESNI_COMPILED

void aesni_encrypt_blocks(const std::uint8_t*, int, const std::uint8_t*, std::uint8_t*,
                          std::size_t) {
  std::abort();  // unreachable: aesni_supported() returned false
}
void aesni_gcm(const GcmJob&) { std::abort(); }
void clmul_gf128_mul(const std::uint8_t*, const std::uint8_t*, std::uint8_t*) {
  std::abort();
}

#endif

}  // namespace plinius::crypto::detail
