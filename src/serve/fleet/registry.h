// PM-resident versioned model registry — the rollout source of truth for
// the serving fleet.
//
// Every model version the fleet may serve is one sealed record in PM:
// an AES-GCM envelope of the v2 weight blob (ml/serialize.h — float32 and
// int8 entries share the registry, distinguished by the dtype header) plus
// plaintext metadata (version number, dtype, training iteration, rollout
// state). Each version's envelope is one blob of the sealed-blob engine
// (plinius/sealed_blobs.h), sealed, committed and opened on the same path
// as the PM mirrors' blobs. A publish and a state transition are each one
// durable Romulus transaction, so a crash mid-publish or mid-promotion can
// never tear the registry: the fleet restarts, re-attaches, and finds
// either the old state or the new one, with every weight blob still
// authenticated on load.
//
// The rollout state machine is persisted per record:
//
//   kStaged ──begin_rollout──▶ kCanary ──promote──▶ kServing ──▶ kRetired
//                                 │
//                                 └──rollback (SLO regression or
//                                    reload_failure)──▶ kRejected
//
// load_*() authenticates into staging before anything else is touched — a
// tampered record throws CryptoError, a forged extent or length PmError, and
// the caller's serving model keeps its old weights, which is what lets a
// canary replica survive a corrupt rollout (tests/route_test.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/gcm.h"
#include "ml/network.h"
#include "ml/quant.h"
#include "ml/serialize.h"
#include "plinius/sealed_blobs.h"
#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius::serve::fleet {

/// Rollout state of one registry record (persisted wide for layout
/// stability, like RecoveryRecord's tier).
enum class VersionState : std::uint64_t {
  kStaged = 0,   // published, not yet offered traffic
  kCanary = 1,   // serving the canary cohort
  kServing = 2,  // the fleet's stable version
  kRetired = 3,  // superseded by a promoted successor
  kRejected = 4, // rolled back (SLO regression or corrupt record)
};

[[nodiscard]] const char* to_string(VersionState state) noexcept;

struct VersionRecord {
  std::uint64_t version = 0;
  std::uint64_t dtype = ml::kDtypeFloat32;  // ml::kDtypeFloat32 / kDtypeInt8
  VersionState state = VersionState::kStaged;
  std::uint64_t iterations = 0;             // training iteration of the blob
  std::size_t plain_len = 0;
  std::size_t sealed_len = 0;
};

/// Snapshot for obs publishing (stats_bridge maps this onto registry.*).
struct RegistryStats {
  std::uint64_t versions = 0;
  std::uint64_t serving_version = 0;
  std::uint64_t publishes = 0;
  std::uint64_t loads = 0;
  std::uint64_t load_failures = 0;  // authentication rejections
  std::size_t sealed_bytes = 0;
};

class ModelRegistry {
 public:
  static constexpr int kRootSlot = pm::kModelRegistryRootSlot;

  ModelRegistry(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                crypto::AesGcm gcm);

  [[nodiscard]] bool exists() const;

  /// Creates the registry with a fixed record capacity (one durable
  /// transaction). Throws PmError if it already exists.
  void create(std::size_t capacity);

  /// Seals a float32 model into a new kStaged record. Returns its version
  /// (monotonically increasing from 1, never reused). Throws PmError when
  /// the registry is full.
  std::uint64_t publish(ml::Network& net);
  /// Seals an int8 model into a new kStaged record.
  std::uint64_t publish(const ml::QuantizedNetwork& qnet);

  /// Persists a state transition for `version` (durable transaction).
  void set_state(std::uint64_t version, VersionState state);

  [[nodiscard]] VersionRecord record(std::uint64_t version) const;
  [[nodiscard]] std::vector<VersionRecord> records() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  /// The record currently in kServing state (0 when none). At most one
  /// record is kServing at a time — promotion retires the predecessor in
  /// the same transaction.
  [[nodiscard]] std::uint64_t serving_version() const;

  /// Authenticates and returns the plaintext weight blob of `version`.
  /// Throws CryptoError on tamper (counted in stats().load_failures),
  /// PmError on an unknown version or a corrupt extent or length.
  [[nodiscard]] Bytes load_blob(std::uint64_t version);

  /// Authenticated load of a float32 record into an architecturally
  /// identical network; stages the blob first, so `net` is untouched on
  /// tamper or dtype mismatch.
  void load(std::uint64_t version, ml::Network& net);
  /// Authenticated reconstruction of an int8 record.
  [[nodiscard]] ml::QuantizedNetwork load_quantized(std::uint64_t version);

  /// PM extent (main-relative offset, sealed length) of a record's sealed
  /// blob — the surface a tamper test corrupts.
  [[nodiscard]] std::pair<std::size_t, std::size_t> sealed_extent(
      std::uint64_t version) const;

  /// Total sealed PM bytes across all records.
  [[nodiscard]] std::size_t sealed_bytes() const;

  [[nodiscard]] RegistryStats stats() const;

 private:
  struct Header {
    std::uint64_t magic;
    std::uint64_t capacity;
    std::uint64_t count;
    std::uint64_t entries_off;
    std::uint64_t next_version;
  };
  struct Entry {
    std::uint64_t version;
    std::uint64_t dtype;
    std::uint64_t state;
    std::uint64_t iterations;
    std::uint64_t plain_len;
    std::uint64_t sealed_off;  // offset of IV||CT||MAC in main
    std::uint64_t sealed_len;
  };
  static constexpr std::uint64_t kMagic = 0x504C4D4F44524547ULL;  // "PLMODREG"

  [[nodiscard]] Header header() const;
  [[nodiscard]] Entry entry_at(std::size_t index) const;
  /// Index of `version` in the entry table; throws PmError when absent.
  [[nodiscard]] std::size_t find(std::uint64_t version) const;
  std::uint64_t publish_blob(ByteSpan blob, std::uint64_t dtype,
                             std::uint64_t iterations);

  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  SealedBlobs blobs_;
  std::uint64_t publishes_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t load_failures_ = 0;
};

}  // namespace plinius::serve::fleet
