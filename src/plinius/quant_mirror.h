// Quantized model mirror: the int8 serving snapshot in PM.
//
// A TensorMirror on its own root slot, so it runs on the sealed-blob engine
// (plinius/sealed_blobs.h) shared with MirrorModel: per-blob AES-GCM sealing
// with IVs in blob order, parallel seal and open priced as the critical path
// over the enclave's TCS lanes, atomic Romulus-transactional versioned
// updates, authenticate-before-install restore, and a PM table that fails
// closed (PmError) when forged. Each layer contributes two sealed blobs —
// "l<i>.w" (int8 weights) and "l<i>.b" (int32 biases) — plus one fixed-size
// "meta" blob carrying geometry and scales, so a server can reconstruct the
// QuantizedNetwork from PM alone. Because weights dominate and shrink from
// 4-byte floats to 1 byte, a quantized snapshot seals ~4x fewer PM bytes
// than the float MirrorModel of the same architecture — which is exactly
// what moves the EPC paging cliff in bench/fig6_sps' crossover panel.
#pragma once

#include <cstdint>

#include "ml/quant.h"
#include "pm/root_slots.h"
#include "plinius/tensor_mirror.h"

namespace plinius {

class QuantMirror {
 public:
  static constexpr int kRootSlot = pm::kQuantMirrorRootSlot;

  QuantMirror(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, crypto::AesGcm gcm);

  [[nodiscard]] bool exists() const { return mirror_.exists(); }

  /// Atomically seals the quantized model into PM at `version`, allocating
  /// the mirror on first save. Subsequent saves must keep the architecture
  /// (blob names and sizes) unchanged.
  void save(ml::QuantizedNetwork& qnet, std::uint64_t version);

  /// Reconstructs the quantized model from PM; returns the mirror version.
  /// All blobs are authenticated into staging buffers before `qnet` is
  /// touched, so a tampered snapshot leaves `qnet` unchanged.
  std::uint64_t load(ml::QuantizedNetwork& qnet);

  /// load() into a fresh network (serving hot-reload).
  [[nodiscard]] ml::QuantizedNetwork load_snapshot();

  [[nodiscard]] std::uint64_t version() const { return mirror_.version(); }

  /// Total sealed PM bytes of the quantized snapshot.
  [[nodiscard]] std::size_t sealed_bytes() const { return mirror_.sealed_bytes(); }

 private:
  TensorMirror mirror_;
};

}  // namespace plinius
