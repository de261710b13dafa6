// AES-128-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the encryption engine the Plinius mirroring module uses (paper
// §IV): every buffer mirrored to PM is encrypted with AES-GCM under a
// 128-bit key, with a fresh 12-byte IV per operation (drawn from the key's
// counter-based IvSequence, envelope.h) and a 16-byte MAC appended for
// integrity — 28 bytes of metadata per encrypted buffer, exactly the paper's
// accounting (§VI "CPU and memory overhead").
//
// The bulk CTR + GHASH pass runs on the fastest kernel tier the CPU supports
// (detail::active_gcm_kernel in aes.h): VAES-512, then AES-NI + PCLMULQDQ,
// then the portable reference. Every tier produces the same bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace plinius::crypto {

inline constexpr std::size_t kGcmIvSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;
/// IV + MAC appended to each encrypted buffer (28 B, as in the paper).
inline constexpr std::size_t kSealOverhead = kGcmIvSize + kGcmTagSize;

/// Incremental GHASH over GF(2^128), one block per field multiply. AesGcm
/// uses it for the AAD and the length block (and J0 for non-96-bit IVs);
/// the ciphertext itself is hashed by the CTR + GHASH kernel tiers. The
/// multiply is PCLMULQDQ when that agrees with the portable bit-serial
/// gf128_mul at startup, gf128_mul otherwise.
class Ghash {
 public:
  explicit Ghash(const std::uint8_t h[16]);

  /// Absorbs data; callers append zero padding themselves where GCM needs it.
  void update(ByteSpan data);

  /// Absorbs data then pads with zeros to a 16-byte boundary.
  void update_padded(ByteSpan data);

  /// Absorbs the final [len(A)]64 || [len(C)]64 length block (lengths in bits).
  void finish_lengths(std::uint64_t aad_bytes, std::uint64_t ct_bytes);

  void digest(std::uint8_t out[16]) const;

 private:
  friend class AesGcm;  // the kernels absorb the ciphertext into y_

  void absorb_block(const std::uint8_t block[16]);

  std::array<std::uint8_t, 16> h_{};
  std::array<std::uint8_t, 16> y_{};
  std::array<std::uint8_t, 16> partial_{};
  std::size_t partial_len_ = 0;
};

/// Portable carry-less multiply in the GHASH field; exposed for tests.
void gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16], std::uint8_t out[16]);

class AesGcm {
 public:
  /// Expands the key and precomputes H = E_K(0^128) and its powers
  /// H^1..H^16 once; encrypt/decrypt redo no per-key setup.
  explicit AesGcm(ByteSpan key);
  ~AesGcm();

  AesGcm(const AesGcm&) = default;
  AesGcm& operator=(const AesGcm&) = default;

  /// Encrypts `plain` with the given 12-byte IV; writes ciphertext (same
  /// length as plain) and the 16-byte tag.
  void encrypt(ByteSpan iv, ByteSpan aad, ByteSpan plain, MutableByteSpan cipher,
               std::uint8_t tag[kGcmTagSize]) const;

  /// Decrypts and authenticates in one pass. Returns false on MAC mismatch
  /// (output is zeroed in that case so corrupt plaintext can never leak out).
  [[nodiscard]] bool decrypt(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                             MutableByteSpan plain,
                             const std::uint8_t tag[kGcmTagSize]) const;

 private:
  void derive_j0(ByteSpan iv, std::uint8_t j0[16]) const;
  /// CTR over `in` -> `out` on the active kernel tier; writes the tag over
  /// the ciphertext (`out` when `encrypt`, else `in`).
  void crypt(ByteSpan iv, ByteSpan aad, const std::uint8_t* in, std::uint8_t* out,
             std::size_t len, bool encrypt, std::uint8_t tag[kGcmTagSize]) const;

  static constexpr std::size_t kHPowers = 16;

  Aes aes_;
  // H^1..H^16, 16 bytes each; the first is the hash subkey H = E_K(0^128).
  std::array<std::uint8_t, 16 * kHPowers> hpow_{};
};

}  // namespace plinius::crypto
