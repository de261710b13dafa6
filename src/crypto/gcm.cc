#include "crypto/gcm.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/error.h"
#include "common/rng.h"

namespace plinius::crypto {

namespace {

void xor_block(std::uint8_t* dst, const std::uint8_t* src) {
  for (int i = 0; i < 16; ++i) dst[i] ^= src[i];
}

void put_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

void big_endian_inc32(std::uint8_t counter[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++counter[i] != 0) break;
  }
}

/// One-time verification that the PCLMUL path agrees with the portable field
/// multiply; if it does not (e.g. an exotic compiler miscompiles the
/// intrinsics), the library silently stays on the portable path.
bool clmul_verified() {
  static const bool ok = [] {
    if (!detail::clmul_supported()) return false;
    Rng rng(0xC1A0C1A0ULL);
    for (int trial = 0; trial < 64; ++trial) {
      std::uint8_t x[16], h[16], a[16], b[16];
      rng.fill(x, 16);
      rng.fill(h, 16);
      gf128_mul(x, h, a);
      detail::clmul_gf128_mul(x, h, b);
      if (std::memcmp(a, b, 16) != 0) return false;
    }
    return true;
  }();
  return ok;
}

/// The single-block multiply for GHASH tails and H powers.
void field_mul(const std::uint8_t x[16], const std::uint8_t h[16], std::uint8_t out[16]) {
  if (clmul_verified()) {
    detail::clmul_gf128_mul(x, h, out);
  } else {
    gf128_mul(x, h, out);
  }
}

/// table = H^1..H^count, H = E_K(0^128), 16 bytes each.
void fill_h_powers(const Aes& aes, std::uint8_t* table, std::size_t count) {
  const std::uint8_t zero[16] = {};
  aes.encrypt_block(zero, table);
  for (std::size_t p = 1; p < count; ++p) field_mul(table + 16 * (p - 1), table, table + 16 * p);
}

/// The portable reference tier: one Aes::encrypt_block and one bit-serial
/// gf128_mul per block.
void portable_gcm(const detail::GcmJob& j) {
  std::uint8_t ctr[16];
  std::memcpy(ctr, j.counter, 16);
  for (std::size_t off = 0; off < j.len; off += 16) {
    const std::size_t n = std::min<std::size_t>(16, j.len - off);
    std::uint8_t ks[16];
    j.aes.encrypt_block(ctr, ks);
    big_endian_inc32(ctr);
    std::uint8_t ct[16] = {};  // zero-padded ciphertext block
    if (!j.encrypt) std::memcpy(ct, j.in + off, n);
    for (std::size_t i = 0; i < n; ++i) j.out[off + i] = j.in[off + i] ^ ks[i];
    if (j.y == nullptr) continue;
    if (j.encrypt) std::memcpy(ct, j.out + off, n);
    xor_block(j.y, ct);
    gf128_mul(j.y, j.hpow, j.y);
  }
}

bool always_supported() noexcept { return true; }

constexpr detail::GcmKernel kKernels[] = {
    {"vaes512", detail::vaes512_gcm_supported, detail::vaes512_gcm},
    {"aesni", detail::aesni_gcm_supported, detail::aesni_gcm},
    {"portable", always_supported, portable_gcm},
};

/// Startup self-check of one SIMD tier: the same random jobs (both key
/// sizes, all three directions, counters about to wrap, lengths around the
/// 8- and 16-block steps with partial tails) through `k` and the portable
/// tier must agree on every output byte and on the GHASH state.
bool agrees_with_portable(const detail::GcmKernel& k) {
  const detail::GcmKernel& ref = kKernels[std::size(kKernels) - 1];
  Rng rng(0x6C3A5E1DULL);
  for (const std::size_t key_len : {Aes::kKeySize128, Aes::kKeySize256}) {
    Bytes key(key_len);
    rng.fill(key.data(), key.size());
    const Aes aes(key);
    std::uint8_t hpow[16 * 16];
    fill_h_powers(aes, hpow, 16);
    for (const std::size_t len : {0, 1, 16, 100, 128, 255, 256, 383, 512, 1000, 4096 + 17}) {
      Bytes in(len), want(len), got(len);
      rng.fill(in.data(), in.size());
      std::uint8_t ctr[16];
      rng.fill(ctr, 16);
      ctr[12] = ctr[13] = ctr[14] = 0xFF;  // the low word wraps inside the job
      for (int dir = 0; dir < 3; ++dir) {
        std::uint8_t y_want[16], y_got[16];
        rng.fill(y_want, 16);
        std::memcpy(y_got, y_want, 16);
        const bool hash = dir > 0;
        const bool encrypt = dir == 1;
        ref.run({aes, ctr, in.data(), want.data(), len, hash ? y_want : nullptr, hpow, encrypt});
        k.run({aes, ctr, in.data(), got.data(), len, hash ? y_got : nullptr, hpow, encrypt});
        if (want != got || std::memcmp(y_want, y_got, 16) != 0) return false;
      }
    }
  }
  return true;
}

}  // namespace

namespace detail {

std::span<const GcmKernel> gcm_kernels() noexcept { return kKernels; }

const GcmKernel& active_gcm_kernel() {
  static const GcmKernel& active = []() -> const GcmKernel& {
    for (const GcmKernel& k : kKernels) {
      if (k.supported() && (k.run == portable_gcm || agrees_with_portable(k))) return k;
    }
    return kKernels[std::size(kKernels) - 1];
  }();
  return active;
}

}  // namespace detail

void gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16], std::uint8_t out[16]) {
  // Bit-serial multiply in the reflected GCM field (SP 800-38D §6.3).
  std::uint64_t z_hi = 0, z_lo = 0;
  std::uint64_t v_hi = (std::uint64_t(h[0]) << 56) | (std::uint64_t(h[1]) << 48) |
                       (std::uint64_t(h[2]) << 40) | (std::uint64_t(h[3]) << 32) |
                       (std::uint64_t(h[4]) << 24) | (std::uint64_t(h[5]) << 16) |
                       (std::uint64_t(h[6]) << 8) | std::uint64_t(h[7]);
  std::uint64_t v_lo = (std::uint64_t(h[8]) << 56) | (std::uint64_t(h[9]) << 48) |
                       (std::uint64_t(h[10]) << 40) | (std::uint64_t(h[11]) << 32) |
                       (std::uint64_t(h[12]) << 24) | (std::uint64_t(h[13]) << 16) |
                       (std::uint64_t(h[14]) << 8) | std::uint64_t(h[15]);

  for (int i = 0; i < 128; ++i) {
    const std::uint8_t bit = (x[i / 8] >> (7 - (i % 8))) & 1;
    if (bit) {
      z_hi ^= v_hi;
      z_lo ^= v_lo;
    }
    const bool lsb = (v_lo & 1) != 0;
    v_lo = (v_lo >> 1) | (v_hi << 63);
    v_hi >>= 1;
    if (lsb) v_hi ^= 0xe100000000000000ULL;  // R = 11100001 || 0^120
  }

  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(z_hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) out[8 + i] = static_cast<std::uint8_t>(z_lo >> (56 - 8 * i));
}

Ghash::Ghash(const std::uint8_t h[16]) { std::memcpy(h_.data(), h, 16); }

void Ghash::absorb_block(const std::uint8_t block[16]) {
  xor_block(y_.data(), block);
  field_mul(y_.data(), h_.data(), y_.data());
}

void Ghash::update(ByteSpan data) {
  std::size_t off = 0;
  if (partial_len_ > 0) {
    const std::size_t need = 16 - partial_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(partial_.data() + partial_len_, data.data(), take);
    partial_len_ += take;
    off += take;
    if (partial_len_ == 16) {
      absorb_block(partial_.data());
      partial_len_ = 0;
    }
  }
  while (off + 16 <= data.size()) {
    absorb_block(data.data() + off);
    off += 16;
  }
  if (off < data.size()) {
    std::memcpy(partial_.data(), data.data() + off, data.size() - off);
    partial_len_ = data.size() - off;
  }
}

void Ghash::update_padded(ByteSpan data) {
  update(data);
  if (partial_len_ > 0) {
    std::memset(partial_.data() + partial_len_, 0, 16 - partial_len_);
    absorb_block(partial_.data());
    partial_len_ = 0;
  }
}

void Ghash::finish_lengths(std::uint64_t aad_bytes, std::uint64_t ct_bytes) {
  expects(partial_len_ == 0, "Ghash::finish_lengths: unpadded partial block");
  std::uint8_t block[16];
  put_be64(block, aad_bytes * 8);
  put_be64(block + 8, ct_bytes * 8);
  absorb_block(block);
}

void Ghash::digest(std::uint8_t out[16]) const { std::memcpy(out, y_.data(), 16); }

AesGcm::AesGcm(ByteSpan key) : aes_(key) { fill_h_powers(aes_, hpow_.data(), kHPowers); }

AesGcm::~AesGcm() { secure_zero(hpow_.data(), hpow_.size()); }

void AesGcm::derive_j0(ByteSpan iv, std::uint8_t j0[16]) const {
  if (iv.size() == kGcmIvSize) {
    std::memcpy(j0, iv.data(), 12);
    j0[12] = j0[13] = j0[14] = 0;
    j0[15] = 1;
    return;
  }
  // General-length IV: J0 = GHASH(IV || pad || [0]64 || [len(IV) bits]64).
  Ghash g(hpow_.data());
  g.update_padded(iv);
  std::uint8_t block[16] = {};
  put_be64(block + 8, static_cast<std::uint64_t>(iv.size()) * 8);
  g.update(ByteSpan(block, 16));
  g.digest(j0);
}

void AesGcm::crypt(ByteSpan iv, ByteSpan aad, const std::uint8_t* in, std::uint8_t* out,
                   std::size_t len, bool encrypt, std::uint8_t tag[kGcmTagSize]) const {
  std::uint8_t j0[16];
  derive_j0(iv, j0);
  std::uint8_t ctr[16];
  std::memcpy(ctr, j0, 16);
  big_endian_inc32(ctr);

  Ghash g(hpow_.data());
  g.update_padded(aad);
  detail::active_gcm_kernel().run(
      {aes_, ctr, in, out, len, g.y_.data(), hpow_.data(), encrypt});
  g.finish_lengths(aad.size(), len);

  std::uint8_t ekj0[16];
  aes_.encrypt_block(j0, ekj0);
  for (int i = 0; i < 16; ++i) tag[i] = g.y_[i] ^ ekj0[i];
}

void AesGcm::encrypt(ByteSpan iv, ByteSpan aad, ByteSpan plain, MutableByteSpan cipher,
                     std::uint8_t tag[kGcmTagSize]) const {
  if (cipher.size() < plain.size()) throw CryptoError("AesGcm::encrypt: output too small");
  crypt(iv, aad, plain.data(), cipher.data(), plain.size(), true, tag);
}

bool AesGcm::decrypt(ByteSpan iv, ByteSpan aad, ByteSpan cipher, MutableByteSpan plain,
                     const std::uint8_t tag[kGcmTagSize]) const {
  if (plain.size() < cipher.size()) throw CryptoError("AesGcm::decrypt: output too small");
  std::uint8_t expected[kGcmTagSize];
  crypt(iv, aad, cipher.data(), plain.data(), cipher.size(), false, expected);
  if (!secure_equal(ByteSpan(expected, kGcmTagSize), ByteSpan(tag, kGcmTagSize))) {
    if (!cipher.empty()) std::memset(plain.data(), 0, cipher.size());
    return false;
  }
  return true;
}

}  // namespace plinius::crypto
