// Persistent training-metrics log.
//
// The paper's crash experiments (Figs. 9-10) plot loss curves across
// process kills; the curve itself must survive the crashes to be plotted.
// MetricsLog is an append-only, crash-consistent record of (iteration,
// loss, learning-rate) entries in PM: appends ride the same Romulus
// transaction machinery as the mirror, so the log never tears and never
// disagrees with the mirrored model about how far training got.
//
// Entries are plaintext: loss values are aggregate statistics that do not
// expose model parameters or training data (same argument as the paper's
// public hyper-parameters, §III). A sealed variant would be trivial but
// would make the common "tail -f the training curve" operation need keys.
#pragma once

#include <cstdint>
#include <vector>

#include "pm/root_slots.h"
#include "romulus/romulus.h"
#include "sgx/enclave.h"

namespace plinius {

struct MetricsEntry {
  std::uint64_t iteration;
  float loss;
  float learning_rate;
};

/// Fixed-capacity, append-only table of plaintext `Record`s under one root
/// slot: the PM layout shared by MetricsLog, RecoveryLog and ServeLog. Every
/// update is one durable Romulus transaction; the header is validated on
/// every read (count <= capacity, the entry table inside main), so a forged
/// header fails closed with PmError.
template <class Record>
class PmRecordLog {
 public:
  [[nodiscard]] bool exists() const;
  /// Creates the log with a fixed capacity (one durable transaction).
  void create(std::size_t capacity);
  [[nodiscard]] std::size_t size() const { return header().count; }
  [[nodiscard]] std::size_t capacity() const { return header().capacity; }
  [[nodiscard]] Record at(std::size_t index) const;
  [[nodiscard]] std::vector<Record> all() const;

 protected:
  struct Header {
    std::uint64_t magic;
    std::uint64_t capacity;
    std::uint64_t count;
    std::uint64_t entries_off;
  };

  PmRecordLog(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave, const char* name,
              int slot, std::uint64_t magic)
      : rom_(&rom), enclave_(&enclave), name_(name), slot_(slot), magic_(magic) {}

  [[nodiscard]] Header header() const;
  /// Appends one record in a durable transaction. A full log throws PmError,
  /// or with `compact` first drops its oldest half.
  void append_record(const Record& record, bool compact);

  romulus::Romulus* rom_;
  sgx::EnclaveRuntime* enclave_;
  const char* name_;
  int slot_;
  std::uint64_t magic_;
};

class MetricsLog : public PmRecordLog<MetricsEntry> {
 public:
  static constexpr int kRootSlot = pm::kMetricsLogRootSlot;

  MetricsLog(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave)
      : PmRecordLog(rom, enclave, "MetricsLog", kRootSlot, 0x504C4D4554524943ULL) {}  // "PLMETRIC"

  /// Appends one entry (durable transaction). Throws PmError when full.
  void append(const MetricsEntry& entry) { append_record(entry, /*compact=*/false); }

  /// Drops every entry with iteration > `iteration` — used after a crash to
  /// reconcile the log with the restored mirror (entries from iterations
  /// whose mirror-out never committed are stale).
  void truncate_after(std::uint64_t iteration);
};

/// One recovery episode, as persisted by the trainer's recovery ladder
/// (tier values are plinius::RecoveryTier, stored wide for layout stability).
struct RecoveryRecord {
  std::uint64_t tier;
  std::uint64_t resume_iteration;
  std::uint64_t replica_repairs;   // A/B sibling rebuilds during this episode
  std::uint64_t rungs_failed;      // ladder rungs tried and exhausted first
  std::uint64_t flags;             // RecoveryRecord::kReformatted | ...
  static constexpr std::uint64_t kReformatted = 1;   // region was reformatted
  static constexpr std::uint64_t kMirrorRebuilt = 2; // mirror realloc'd
  static constexpr std::uint64_t kDatasetLost = 4;   // PM dataset must reload
};

/// Append-only PM log of RecoveryRecords — the crash-consistent trail of
/// every recovery the trainer performed, surviving the very faults it
/// documents (unless the region itself is reformatted, which the next
/// record's kReformatted flag then admits). Same Romulus transaction
/// machinery as MetricsLog, separate root slot.
class RecoveryLog : public PmRecordLog<RecoveryRecord> {
 public:
  static constexpr int kRootSlot = pm::kRecoveryLogRootSlot;

  RecoveryLog(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave)
      : PmRecordLog(rom, enclave, "RecoveryLog", kRootSlot, 0x504C5245434F5652ULL) {}  // "PLRECOVR"

  /// Appends one record (durable transaction). When full, the oldest half is
  /// dropped first — recovery history must never block recovery itself.
  void append(const RecoveryRecord& record) { append_record(record, /*compact=*/true); }
};

/// One serving window, as persisted by serve::InferenceServer after each
/// run: offered/served/shed counts and the latency percentiles of the
/// window, plus the model iteration that was being served. Like MetricsEntry
/// these are aggregate statistics — no query data, no parameters.
struct ServeWindowRecord {
  std::uint64_t window;         // monotonically increasing per log
  std::uint64_t arrived;
  std::uint64_t completed;
  std::uint64_t shed;           // queue-full + deadline + expired, all replied
  std::uint64_t model_version;  // mirror iteration served during the window
  float p50_us;
  float p95_us;
  float p99_us;
};

/// Append-only PM log of serving windows: the crash-consistent SLO trail of
/// a Plinius serving deployment, riding the same Romulus transaction
/// machinery as MetricsLog (separate root slot). When full, the oldest half
/// is dropped — the serving path must never stall on its own telemetry.
class ServeLog : public PmRecordLog<ServeWindowRecord> {
 public:
  static constexpr int kRootSlot = pm::kServeLogRootSlot;

  ServeLog(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave)
      : PmRecordLog(rom, enclave, "ServeLog", kRootSlot, 0x504C5345525645ULL) {}  // "PLSERVE"

  /// Appends one window record (durable transaction; compacts when full).
  void append(const ServeWindowRecord& record) { append_record(record, /*compact=*/true); }
  /// window value for the next append (max persisted window + 1; 0 if empty).
  [[nodiscard]] std::uint64_t next_window() const;
};

}  // namespace plinius
