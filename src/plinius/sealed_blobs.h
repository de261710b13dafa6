// Sealed-blob engine: the one seal / commit / open / scrub protocol under
// both PM mirrors (paper §IV, "Plinius's mirroring mechanism").
//
// A sealed blob is an AES-GCM envelope (IV || ciphertext || MAC, 28 B of
// overhead) at a main-relative PM extent, optionally with an A/B sibling
// copy of the same length. The engine does not know how a schema finds its
// blobs (MirrorModel walks a linked layer list, TensorMirror reads a named
// table): it takes the extents the schema validated plus the plaintext spans
// they mirror. IVs are drawn serially in task order, so the key's
// IvSequence stays strictly monotonic while GCM runs concurrently;
// simulated GCM time is the critical path over the enclave's TCS lanes, and
// PM reads and the Romulus commit stay serial.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "obs/trace.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {

/// Simulated-time and count accounting of a mirror's saves and restores.
struct MirrorStats {
  sim::Nanos encrypt_ns = 0;  // save: in-enclave encryption
  sim::Nanos write_ns = 0;    // save: PM stores + PWBs + twin-copy commit
  sim::Nanos read_ns = 0;     // restore: PM reads + copies into the enclave
  sim::Nanos decrypt_ns = 0;  // restore: in-enclave decryption + layer copy
  // Foreground time spent in complete_async_save waiting for an in-flight
  // background seal (0 = every async seal was fully hidden under compute).
  sim::Nanos pipeline_stall_ns = 0;
  // Attempts count every save/restore *started*; saves/restores count only
  // the ones that ran to completion — a throw mid-operation leaves
  // attempts > completions, which is what recovery/chaos accounting keys on.
  std::uint64_t save_attempts = 0;
  std::uint64_t restore_attempts = 0;
  std::uint64_t saves = 0;
  std::uint64_t restores = 0;
  // Completed saves that went through the begin/complete async pipeline.
  std::uint64_t async_saves = 0;
  // Sealed buffers whose corrupt copy was rebuilt from its A/B sibling
  // (mirror_in fallback + scrub repairs).
  std::uint64_t replica_repairs = 0;
};

/// Result of a mirror scrub pass (see MirrorModel::scrub).
struct MirrorScrubReport {
  std::uint64_t buffers_checked = 0;
  std::uint64_t auth_failures = 0;   // copies that failed GCM authentication
  std::uint64_t repaired = 0;        // rebuilt from the healthy sibling
  std::uint64_t unrecoverable = 0;   // both copies corrupt (or no replica)
  [[nodiscard]] bool healthy() const noexcept { return unrecoverable == 0; }
};

/// Main-relative PM extent of one sealed blob and its optional sibling.
struct BlobExtent {
  std::uint64_t primary_off = 0;
  std::uint64_t replica_off = 0;  // 0 = no A/B sibling
  std::uint64_t sealed_len = 0;
};

class SealedBlobs {
 public:
  /// One blob of a planned save. `plain` views the live plaintext;
  /// `plain_off` is its offset in a gathered snapshot (seal_async).
  struct SealTask {
    BlobExtent extent;
    ByteSpan plain;
    std::size_t scratch_off;
    std::size_t plain_off;
    std::uint8_t iv[crypto::kGcmIvSize];
  };
  /// A save's tasks in IV order, with per-task costs split into their
  /// EPC-paging and GCM shares.
  struct SealPlan {
    std::vector<SealTask> tasks;
    std::vector<sim::Nanos> costs;
    sim::Nanos touch_sum = 0;   // EPC paging share of the seal costs
    sim::Nanos crypto_sum = 0;  // GCM share
    std::size_t scratch_bytes = 0;
    std::size_t plain_bytes = 0;
  };
  /// One blob of a restore: its extent and where its plaintext goes.
  struct OpenTask {
    BlobExtent extent;
    MutableByteSpan dest;
  };

  /// Draws the IV salt from the enclave RNG (one draw, as every sealed
  /// structure with its own IvSequence does).
  SealedBlobs(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, crypto::AesGcm gcm);

  [[nodiscard]] MirrorStats& stats() noexcept { return stats_; }
  [[nodiscard]] const MirrorStats& stats() const noexcept { return stats_; }

  /// Throws PmError (naming `ctx`) unless the blob is at least one envelope
  /// long and both its copies lie inside the PM main region.
  void check_extent(const BlobExtent& e, const char* ctx) const;

  // --- save -------------------------------------------------------------------
  /// Appends a blob to `plan`: draws its IV now (call order is IV order) and
  /// prices touching the plaintext plus one GCM pass (no clock advance).
  void plan_seal(SealPlan& plan, const BlobExtent& e, ByteSpan plain);
  /// Seals every task concurrently into the engine's scratch, advances the
  /// clock by the critical path over the TCS lanes (split into
  /// mirror.seal.paging / mirror.seal.gcm spans), and returns the sealed
  /// bytes.
  ByteSpan seal(const SealPlan& plan);
  /// Pipelined save: gathers every plaintext into `snapshot` (the only
  /// foreground charge: one plain copy), seals the snapshot into `sealed`,
  /// and books the seal on `stream`'s lanes as a track-1 pipeline.seal
  /// bracket tagged with `iteration`.
  void seal_async(const SealPlan& plan, sgx::ChargeStream& stream, std::uint64_t iteration,
                  Bytes& snapshot, Bytes& sealed);
  /// One durable transaction: the schema's version stamp at `stamp_off`,
  /// then every sealed blob to its primary and sibling. Adds the
  /// transaction's time to stats().write_ns.
  void commit(const SealPlan& plan, ByteSpan sealed, std::uint64_t stamp_off,
              std::uint64_t stamp);

  // --- restore ------------------------------------------------------------------
  /// Stages every blob, authenticates + decrypts it into its `dest`
  /// concurrently, retries a failed primary from its sibling, and commits
  /// the repaired primaries in one transaction. Returns tasks.size() when
  /// every blob authenticated; otherwise the index of the first blob neither
  /// copy authenticates (nothing is repaired then, and earlier `dest`s hold
  /// restored plaintext).
  std::size_t open(std::span<const OpenTask> tasks);

  // --- maintenance --------------------------------------------------------------
  /// Authenticates both copies of every blob, charging scrub read traffic.
  /// With `repair`, a corrupt copy whose sibling authenticates is rebuilt
  /// from it, all in one durable transaction (the full-line rewrite also
  /// clears line poison). Authentication results are reported, not thrown.
  MirrorScrubReport scrub(std::span<const BlobExtent> extents, bool repair);
  /// True when the primary copy of `e` authenticates. Uncharged: the
  /// integrity probe of crash-recovery sweeps, never part of a timed path.
  [[nodiscard]] bool authenticates(const BlobExtent& e);

 private:
  /// Splits [t0, t0 + total) into two adjacent leaf spans in proportion to
  /// `first_cost : second_cost` (a parallel advance decomposed by component).
  void trace_split(sim::Nanos t0, sim::Nanos total, sim::Nanos first_cost,
                   sim::Nanos second_cost, obs::Category first_cat, const char* first,
                   obs::Category second_cat, const char* second,
                   std::uint64_t parent = 0, std::uint32_t track = 0) const;
  /// Seals every task from its plaintext (or from `snapshot` + plain_off)
  /// into `out`, concurrently.
  void seal_tasks(const SealPlan& plan, const std::uint8_t* snapshot,
                  MutableByteSpan out) const;
  /// Copies the `len` sealed bytes at main offset `off` into the enclave,
  /// charging the PM read and (on real SGX) the boundary copy.
  void stage(std::uint64_t off, std::size_t len, std::uint8_t* out);

  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  crypto::AesGcm gcm_;
  crypto::IvSequence iv_seq_;
  MirrorStats stats_;
  Bytes scratch_;
  Bytes plain_scratch_;
};

}  // namespace plinius
