// AES block cipher (FIPS-197), 128/192/256-bit keys.
//
// Plinius' encryption engine (paper §IV) uses AES-GCM from the SGX SDK:
// "AES-GCM uses a 128, 192 or 256 bit key for all cryptographic operations
// ... Plinius uses a 128 bit key." We implement the cipher from scratch for
// all three key sizes: a portable byte-oriented implementation that is
// always available, plus AES-NI and VAES fast paths used automatically when
// the CPU supports them (the SGX SDK's crypto is also AES-NI-backed, so this
// mirrors the real deployment). Bulk CTR runs on the GCM kernel tiers below.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace plinius::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize128 = 16;
  static constexpr std::size_t kKeySize192 = 24;
  static constexpr std::size_t kKeySize256 = 32;
  static constexpr int kMaxRounds = 14;

  /// Expands the key schedule. Throws CryptoError unless the key is 16, 24
  /// or 32 bytes.
  explicit Aes(ByteSpan key);
  ~Aes();

  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;

  [[nodiscard]] int rounds() const noexcept { return rounds_; }

  void encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;
  void decrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;

  /// CTR-mode transform (encrypt == decrypt). `counter` is the full 16-byte
  /// initial counter block; the low 32 bits (big-endian) are incremented per
  /// block modulo 2^32, as GCM requires. Runs on the active GCM kernel tier.
  void ctr_xcrypt(const std::uint8_t counter[kBlockSize], ByteSpan in,
                  MutableByteSpan out) const;

  /// The expanded key schedule: rounds()+1 round keys of 16 bytes each.
  [[nodiscard]] const std::uint8_t* round_keys() const noexcept {
    return enc_round_keys_.data();
  }

  /// True when the AES-NI fast path is active for this process.
  static bool hw_accelerated() noexcept;

 private:
  // Round keys stored byte-wise, 16 bytes per round key, rounds_+1 keys.
  std::array<std::uint8_t, kBlockSize*(kMaxRounds + 1)> enc_round_keys_{};
  int rounds_ = 10;
  bool use_aesni_ = false;
};

/// Backwards-compatible name for the 128-bit configuration Plinius uses.
using Aes128 = Aes;

namespace detail {
// Single-block AES-NI and PCLMULQDQ entry points, implemented in aesni.cc
// (compiled with -maes -mpclmul -msse4.1); stubs there keep the library
// linking on toolchains without the extensions.
bool aesni_supported() noexcept;
void aesni_encrypt_blocks(const std::uint8_t* round_keys, int rounds,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks);
bool clmul_supported() noexcept;
void clmul_gf128_mul(const std::uint8_t x[16], const std::uint8_t h[16],
                     std::uint8_t out[16]);

/// One call into a CTR + GHASH kernel. CTR runs over `len` bytes from the
/// `counter` block (low 32 bits big-endian, stepped modulo 2^32). When `y`
/// is set, the ciphertext — `out` when `encrypt`, else `in` — is absorbed
/// into the GHASH accumulator `y`, a trailing partial block zero-padded.
/// `in` == `out` is allowed.
struct GcmJob {
  const Aes& aes;
  const std::uint8_t* counter;
  const std::uint8_t* in;
  std::uint8_t* out;
  std::size_t len;
  std::uint8_t* y = nullptr;
  /// H^1..H^16, 16 bytes each in GCM byte order; read only when `y` is set.
  const std::uint8_t* hpow = nullptr;
  bool encrypt = true;
};

/// A kernel tier. gcm_kernels() lists them fastest first; the last is the
/// portable reference (Aes::encrypt_block + gf128_mul, always supported).
/// active_gcm_kernel() is the first tier the CPU supports whose one-time
/// self-check agrees with the portable reference on every output byte.
struct GcmKernel {
  const char* name;
  bool (*supported)() noexcept;
  void (*run)(const GcmJob& job);
};
std::span<const GcmKernel> gcm_kernels() noexcept;
const GcmKernel& active_gcm_kernel();

// The SIMD tiers: 8 blocks per step with AES-NI + PCLMULQDQ (aesni.cc), and
// 16 blocks per step with VAES + VPCLMULQDQ on 512-bit registers
// (gcm_kernel_vaes512.cc, built with -mvaes -mvpclmulqdq -mavx512f -mavx512bw).
bool aesni_gcm_supported() noexcept;
void aesni_gcm(const GcmJob& job);
bool vaes512_gcm_supported() noexcept;
void vaes512_gcm(const GcmJob& job);
}  // namespace detail

}  // namespace plinius::crypto
