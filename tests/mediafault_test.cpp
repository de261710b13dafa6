// Media-fault model and tiered repair: device primitives (bit rot, torn
// lines, poison), the seeded MediaFaultInjector, Romulus twin-copy repair
// helpers, mirror A/B replication + scrubbing, the arena scrubber, the
// PM-data corruption policy, and the persistent RecoveryLog.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "obs/registry.h"
#include "obs/stats_bridge.h"
#include "pm/device.h"
#include "pm/mediafault.h"
#include "plinius/checkpoint.h"
#include "plinius/metrics_log.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/pm_data.h"
#include "plinius/scrub.h"
#include "romulus/romulus.h"

namespace plinius {
namespace {

using pm::kCacheLine;

ml::Dataset tiny_dataset(std::size_t rows = 32) {
  ml::SynthDigitsOptions opt;
  opt.train_count = rows;
  opt.test_count = 1;
  return make_synth_digits(opt).train;
}

ml::ModelConfig tiny_config() { return ml::make_cnn_config(2, 4, 8); }

crypto::AesGcm test_gcm() {
  Bytes key(16);
  Rng(77).fill(key.data(), key.size());
  return crypto::AesGcm(key);
}

// --- PmDevice media primitives ------------------------------------------------

class MediaDeviceTest : public ::testing::Test {
 protected:
  MediaDeviceTest() : dev_(clock_, 1 << 20, pm::PmLatencyModel::optane()) {}

  sim::Clock clock_;
  pm::PmDevice dev_;
};

TEST_F(MediaDeviceTest, FlipBitHitsBothImagesWhenLineClean) {
  const std::size_t off = 4096;
  const std::uint8_t before = dev_.data()[off];
  dev_.flip_bit(off, 3);
  EXPECT_EQ(dev_.data()[off], before ^ 0x08);
  EXPECT_EQ(dev_.persistent_image()[off], before ^ 0x08);
  EXPECT_EQ(dev_.stats().media_bit_flips, 1u);
}

TEST_F(MediaDeviceTest, DirtyCacheLineMasksMediaFault) {
  const std::size_t off = 4096;
  const std::uint8_t value = 0x5A;
  dev_.store(off, &value, 1);  // line now dirty: CPU cache holds the data
  dev_.flip_bit(off, 0);
  // The cached (volatile) copy is unaffected; the media (persistent) copy rots.
  EXPECT_EQ(dev_.data()[off], 0x5A);
  EXPECT_NE(dev_.persistent_image()[off], dev_.data()[off]);
}

TEST_F(MediaDeviceTest, TornLineGarblesSecondHalfOnly) {
  const std::size_t line = 37;
  std::uint8_t pattern[kCacheLine];
  std::memset(pattern, 0xAB, sizeof(pattern));
  dev_.store(line * kCacheLine, pattern, sizeof(pattern));
  dev_.flush(line * kCacheLine, kCacheLine, pm::FlushKind::kClflush);
  dev_.fence(pm::FenceKind::kSfence);

  dev_.tear_line(line, /*seed=*/123);
  for (std::size_t i = 0; i < kCacheLine / 2; ++i) {
    EXPECT_EQ(dev_.persistent_image()[line * kCacheLine + i], 0xAB) << i;
  }
  bool changed = false;
  for (std::size_t i = kCacheLine / 2; i < kCacheLine; ++i) {
    changed |= dev_.persistent_image()[line * kCacheLine + i] != 0xAB;
  }
  EXPECT_TRUE(changed);
  EXPECT_EQ(dev_.stats().media_torn_lines, 1u);
}

TEST_F(MediaDeviceTest, PoisonedLineReadThrowsUntilRewritten) {
  const std::size_t line = 5;
  dev_.poison_line(line, /*seed=*/9);
  EXPECT_TRUE(dev_.line_poisoned(line));
  EXPECT_EQ(dev_.poisoned_line_count(), 1u);

  std::uint8_t buf[8];
  try {
    dev_.load(line * kCacheLine + 8, buf, sizeof(buf));
    FAIL() << "poisoned read did not throw";
  } catch (const PmError& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos);
  }
  // Reads elsewhere still work.
  dev_.load(0, buf, sizeof(buf));

  // A full-line rewrite (store + flush + fence) clears the poison, as
  // hardware does after ndctl clear-error / a full write-back.
  std::uint8_t fresh[kCacheLine] = {};
  dev_.store(line * kCacheLine, fresh, sizeof(fresh));
  dev_.flush(line * kCacheLine, kCacheLine, pm::FlushKind::kClwb);
  dev_.fence(pm::FenceKind::kSfence);
  EXPECT_FALSE(dev_.line_poisoned(line));
  EXPECT_EQ(dev_.poisoned_line_count(), 0u);
  EXPECT_EQ(dev_.stats().poison_cleared, 1u);
  dev_.load(line * kCacheLine, buf, sizeof(buf));  // no throw
}

TEST_F(MediaDeviceTest, ScrubRangeFindsPoisonAndChargesTraffic) {
  dev_.poison_line(10, 1);
  dev_.poison_line(12, 2);
  const auto t0 = clock_.now();
  const auto poisoned = dev_.scrub_range(8 * kCacheLine, 8 * kCacheLine);
  ASSERT_EQ(poisoned.size(), 2u);
  EXPECT_EQ(poisoned[0], 10u);
  EXPECT_EQ(poisoned[1], 12u);
  EXPECT_EQ(dev_.stats().scrub_bytes, 8 * kCacheLine);
  EXPECT_GT(clock_.now(), t0);  // ARS traffic costs simulated time
}

TEST_F(MediaDeviceTest, RestorePersistentClearsPoison) {
  const Bytes image = dev_.snapshot_persistent();
  dev_.poison_line(3, 7);
  dev_.restore_persistent(image);  // replaced media: poison gone
  EXPECT_EQ(dev_.poisoned_line_count(), 0u);
}

// --- MediaFaultInjector -------------------------------------------------------

TEST_F(MediaDeviceTest, InjectorIsDeterministicUnderSeed) {
  pm::MediaFaultRates rates{3.0, 2.0, 1.0};
  std::vector<pm::MediaFaultEvent> runs[2];
  for (int run = 0; run < 2; ++run) {
    sim::Clock clock;
    pm::PmDevice dev(clock, 1 << 20, pm::PmLatencyModel::optane());
    pm::MediaFaultInjector inj(dev, /*seed=*/4242);
    inj.add_region("arena", 0, dev.size(), rates);
    runs[run] = inj.unleash();
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].kind, runs[1][i].kind);
    EXPECT_EQ(runs[0][i].offset, runs[1][i].offset);
    EXPECT_EQ(runs[0][i].region, runs[1][i].region);
  }
}

TEST_F(MediaDeviceTest, InjectorCountsScaleWithRegionAndRate) {
  // Integral expectation: 4 flips/MiB over 1 MiB = exactly 4 (no Bernoulli).
  pm::MediaFaultInjector inj(dev_, 7);
  inj.add_region("arena", 0, 1 << 20, pm::MediaFaultRates{4.0, 0.0, 0.0});
  const auto events = inj.unleash();
  EXPECT_EQ(events.size(), 4u);
  for (const auto& e : events) {
    EXPECT_EQ(e.kind, pm::MediaFaultKind::kBitFlip);
    EXPECT_LT(e.offset, dev_.size());
    EXPECT_FALSE(e.describe().empty());
  }
  EXPECT_EQ(dev_.stats().media_bit_flips, 4u);
  EXPECT_EQ(inj.events_applied(), 4u);
}

TEST_F(MediaDeviceTest, InjectorValidatesRegionsAndNames) {
  pm::MediaFaultInjector inj(dev_, 7);
  EXPECT_THROW(inj.add_region("oob", dev_.size() - 16, 64, {}), PmError);
  inj.add_region("ok", 0, 4096, {});
  EXPECT_THROW((void)inj.inject(pm::MediaFaultKind::kBitFlip, "nope"), Error);
  const auto e = inj.inject(pm::MediaFaultKind::kPoisonedLine, "ok");
  EXPECT_EQ(e.kind, pm::MediaFaultKind::kPoisonedLine);
  EXPECT_EQ(dev_.poisoned_line_count(), 1u);
}

// --- Romulus media-repair helpers ---------------------------------------------

class RomulusMediaTest : public ::testing::Test {
 protected:
  RomulusMediaTest()
      : dev_(clock_, 4 << 20, pm::PmLatencyModel::optane()),
        rom_(dev_, 0, 1 << 20, romulus::PwbPolicy::clflushopt_sfence(), true) {}

  sim::Clock clock_;
  pm::PmDevice dev_;
  romulus::Romulus rom_;
};

TEST_F(RomulusMediaTest, ValidateHeaderNamesCorruptField) {
  rom_.validate_header();  // clean passes
  dev_.flip_bit(0, 1);     // magic word
  try {
    rom_.validate_header();
    FAIL() << "corrupt magic not detected";
  } catch (const PmError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(RomulusMediaTest, ConstructorRefusesCorruptHeaderWithoutFormat) {
  dev_.flip_bit(3, 7);  // rot inside the magic
  EXPECT_THROW(romulus::Romulus(dev_, 0, 1 << 20,
                                romulus::PwbPolicy::clflushopt_sfence(), false),
               PmError);
  // format=true reformats the region and recovers the device.
  romulus::Romulus fresh(dev_, 0, 1 << 20,
                         romulus::PwbPolicy::clflushopt_sfence(), true);
  fresh.validate_header();
}

TEST_F(RomulusMediaTest, TwinRestoreRepairsAllocatorRot) {
  rom_.run_transaction([&] { (void)rom_.pmalloc(256); });
  // Rot the in-use accounting word in main; the back twin still has it.
  dev_.flip_bit(rom_.main_region_offset() + romulus::Romulus::alloc_meta_offset() + 16,
                5);
  EXPECT_THROW(rom_.validate_allocator(), PmError);
  EXPECT_GT(rom_.twin_divergence(), 0u);
  rom_.restore_main_from_back();
  rom_.validate_allocator();
  EXPECT_EQ(rom_.twin_divergence(), 0u);
}

TEST_F(RomulusMediaTest, RewriteBackHealsBackTwinRot) {
  rom_.run_transaction([&] { (void)rom_.pmalloc(256); });
  dev_.flip_bit(rom_.back_region_offset() + 64, 2);
  EXPECT_GT(rom_.twin_divergence(), 0u);
  rom_.validate_allocator();  // main is fine
  rom_.rewrite_back_from_main();
  EXPECT_EQ(rom_.twin_divergence(), 0u);
}

TEST_F(RomulusMediaTest, PmfreeErrorsNameOffsets) {
  rom_.run_transaction([&] {
    try {
      rom_.pmfree(rom_.main_size() + 1024);
      FAIL() << "out-of-heap pmfree accepted";
    } catch (const PmError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(rom_.main_size() + 1024)),
                std::string::npos);
    }
  });
  const std::size_t block = [&] {
    std::size_t b = 0;
    rom_.run_transaction([&] { b = rom_.pmalloc(128); });
    return b;
  }();
  // Rot the size word of the 16-byte block header so pmfree sees a block
  // that overruns the heap.
  dev_.flip_bit(rom_.main_region_offset() + block - 16 + 6, 4);
  rom_.run_transaction([&] { EXPECT_THROW(rom_.pmfree(block), PmError); });
}

TEST_F(RomulusMediaTest, ReadOutOfRangeNamesOffsets) {
  try {
    (void)rom_.read<std::uint64_t>(rom_.main_size() - 2);
    FAIL() << "out-of-range read accepted";
  } catch (const PmError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(rom_.main_size() - 2)), std::string::npos);
    EXPECT_NE(what.find(std::to_string(rom_.main_size())), std::string::npos);
  }
}

// --- Mirror A/B replication and scrubbing -------------------------------------

class MirrorMediaTest : public ::testing::Test {
 protected:
  MirrorMediaTest()
      : platform_(MachineProfile::emlsgx_pm(), 32 * 1024 * 1024),
        rom_(platform_.pm(), 0, 14 * 1024 * 1024,
             romulus::PwbPolicy::clflushopt_sfence(), true),
        net_(ml::build_network(tiny_config(), rng_)) {}

  /// Corrupts `len` bytes of main-relative extent [off, off+len) as a media
  /// fault (device coordinates; persistent + clean volatile image).
  void rot_extent(std::uint64_t off, std::uint64_t len) {
    for (std::uint64_t i = 0; i < len; i += 16) {
      platform_.pm().flip_bit(rom_.main_region_offset() + off + i, 1);
    }
  }

  Rng rng_{1};
  Platform platform_;
  romulus::Romulus rom_;
  ml::Network net_;
};

TEST_F(MirrorMediaTest, ReplicatedMirrorRecoversAndRepairsPrimaryRot) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  EXPECT_TRUE(mirror.replicated());
  net_.set_iterations(4);
  mirror.mirror_out(net_, 4);

  const auto extents = mirror.sealed_extents();
  ASSERT_FALSE(extents.empty());
  ASSERT_NE(extents[0].replica_off, 0u);
  rot_extent(extents[0].primary_off, 64);

  ml::Network other = ml::build_network(tiny_config(), rng_);
  EXPECT_EQ(mirror.mirror_in(other), 4u);
  EXPECT_EQ(mirror.stats().replica_repairs, 1u);
  // The corrupt primary was rewritten from the sibling: a scrub is clean.
  const auto report = mirror.scrub(other);
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.auth_failures, 0u);
}

TEST_F(MirrorMediaTest, ScrubRepairsRottenReplica) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 1);

  const auto extents = mirror.sealed_extents();
  rot_extent(extents[1].replica_off, 32);

  const auto before = rom_.device().stats().scrub_bytes;
  const auto report = mirror.scrub(net_);
  EXPECT_EQ(report.buffers_checked, extents.size());
  EXPECT_EQ(report.auth_failures, 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_GT(rom_.device().stats().scrub_bytes, before);
  // Second pass: clean.
  EXPECT_EQ(mirror.scrub(net_).auth_failures, 0u);
}

TEST_F(MirrorMediaTest, BothCopiesRottenIsUnrecoverableAtMirrorTier) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 1);

  const auto extents = mirror.sealed_extents();
  rot_extent(extents[0].primary_off, 32);
  rot_extent(extents[0].replica_off, 32);
  // But ALSO rot the back-region copies, else the twin would repair them.
  auto& dev = platform_.pm();
  for (std::uint64_t i = 0; i < 32; i += 16) {
    dev.flip_bit(rom_.back_region_offset() + extents[0].primary_off + i, 1);
    dev.flip_bit(rom_.back_region_offset() + extents[0].replica_off + i, 1);
  }

  const auto report = mirror.scrub(net_, /*repair=*/true);
  EXPECT_EQ(report.unrecoverable, 1u);
  EXPECT_FALSE(report.healthy());
  try {
    (void)mirror.mirror_in(net_);
    FAIL() << "mirror_in authenticated rotten copies";
  } catch (const CryptoError& e) {
    EXPECT_NE(std::string(e.what()).find("both A/B copies"), std::string::npos);
  }
}

TEST_F(MirrorMediaTest, UnreplicatedMirrorReportsNoReplica) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 1);
  EXPECT_FALSE(mirror.replicated());
  const auto extents = mirror.sealed_extents();
  for (const auto& e : extents) EXPECT_EQ(e.replica_off, 0u);

  rot_extent(extents[0].primary_off, 32);
  const auto report = mirror.scrub(net_);
  EXPECT_EQ(report.unrecoverable, 1u);  // no sibling to repair from
}

TEST_F(MirrorMediaTest, DisposeReturnsEveryAllocation) {
  const std::size_t before = rom_.allocated_bytes();
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 3);
  EXPECT_GT(rom_.allocated_bytes(), before);

  mirror.dispose();
  EXPECT_EQ(rom_.allocated_bytes(), before);
  EXPECT_FALSE(mirror.exists());
  rom_.validate_allocator();
  // The region is immediately reusable.
  mirror.alloc(net_);
  EXPECT_TRUE(mirror.exists());
}

// --- Arena scrubber -----------------------------------------------------------

TEST_F(MirrorMediaTest, ArenaScrubCleanIsHealthy) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.mirror_present);
  EXPECT_FALSE(report.twin_restored);
}

TEST_F(MirrorMediaTest, ArenaScrubRestoresAllocatorFromTwin) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  platform_.pm().flip_bit(
      rom_.main_region_offset() + romulus::Romulus::alloc_meta_offset() + 4, 2);
  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.twin_restored);
  rom_.validate_allocator();
}

TEST_F(MirrorMediaTest, ArenaScrubUsesTwinForUnreplicatedSeal) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  const auto extents = mirror.sealed_extents();
  rot_extent(extents[0].primary_off, 48);

  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.twin_restored);
  ml::Network other = ml::build_network(tiny_config(), rng_);
  EXPECT_EQ(mirror.mirror_in(other), 2u);  // repaired in place
}

TEST_F(MirrorMediaTest, ArenaScrubReportsCorruptHeader) {
  platform_.pm().flip_bit(2, 0);  // region header magic
  const auto report = scrub_arena(rom_, nullptr, nullptr, nullptr);
  EXPECT_FALSE(report.header_ok);
  EXPECT_FALSE(report.healthy());
}

TEST_F(MirrorMediaTest, ArenaScrubResyncsDivergedBackTwin) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  platform_.pm().flip_bit(rom_.back_region_offset() + 4096, 3);
  ASSERT_GT(rom_.twin_divergence(), 0u);
  const auto report = scrub_arena(rom_, &mirror, &net_, nullptr);
  EXPECT_TRUE(report.healthy());
  EXPECT_TRUE(report.twins_resynced);
  EXPECT_EQ(rom_.twin_divergence(), 0u);
}

// --- PmDataStore corruption policy --------------------------------------------

TEST_F(MirrorMediaTest, DataStoreThrowNamesRecordIndex) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm());
  data.load(tiny_dataset());
  // Rot every record so the first draw is guaranteed to hit one.
  for (std::size_t r = 0; r < data.rows(); ++r) {
    rot_extent(data.records_offset() + r * data.record_bytes(), 16);
  }

  std::vector<float> x(32 * data.x_cols()), y(32 * data.y_cols());
  Rng rng(5);
  try {
    data.sample_batch(32, rng, x.data(), y.data());
    FAIL() << "rotten record authenticated";
  } catch (const CryptoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record "), std::string::npos);
    EXPECT_NE(what.find("failed authentication"), std::string::npos);
  }
}

TEST_F(MirrorMediaTest, DataStoreForgedHeaderFailsClosed) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm());
  data.load(tiny_dataset());
  // Header layout: magic, rows, x_cols, y_cols, record_len, encrypted,
  // records_off — one u64 each.
  const std::uint64_t hdr_off = rom_.root(PmDataStore::kRootSlot);
  const auto forge = [&](std::size_t field, std::uint64_t value) {
    const std::uint64_t at = hdr_off + field * sizeof(std::uint64_t);
    const auto saved = rom_.read<std::uint64_t>(at);
    rom_.run_transaction([&] { rom_.tx_assign(at, value); });
    return saved;
  };
  const auto restore = [&](std::size_t field, std::uint64_t saved) {
    rom_.run_transaction(
        [&] { rom_.tx_assign(hdr_off + field * sizeof(std::uint64_t), saved); });
  };

  std::vector<float> x(4 * data.x_cols()), y(4 * data.y_cols());
  const struct {
    std::size_t field;
    std::uint64_t value;
  } forgeries[] = {
      {6, std::uint64_t{1} << 40},   // records_off far outside main
      {1, std::uint64_t{1} << 60},   // rows past the end of main
      {4, data.record_bytes() + 1},  // record_len disagrees with the geometry
      {5, 2},                        // encrypted flag neither 0 nor 1
      {2, 0},                        // no feature columns
  };
  for (const auto& f : forgeries) {
    SCOPED_TRACE("header field " + std::to_string(f.field));
    const std::uint64_t saved = forge(f.field, f.value);
    Rng rng(5);
    EXPECT_THROW(data.read_record(0, x.data(), y.data()), PmError);
    EXPECT_THROW(data.sample_batch(4, rng, x.data(), y.data()), PmError);
    EXPECT_THROW((void)data.scrub_records(), PmError);
    restore(f.field, saved);
  }
  data.read_record(0, x.data(), y.data());  // the restored header reads again
}

TEST_F(MirrorMediaTest, DataStoreResamplePolicySkipsRot) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm());
  data.set_corrupt_policy(CorruptRecordPolicy::kResample);
  data.load(tiny_dataset());
  rot_extent(data.records_offset(), 16);                          // record 0
  rot_extent(data.records_offset() + 3 * data.record_bytes(), 16);  // record 3

  std::vector<float> x(32 * data.x_cols()), y(32 * data.y_cols());
  Rng rng(5);
  for (int round = 0; round < 4; ++round) {
    data.sample_batch(32, rng, x.data(), y.data());  // must not throw
  }
  EXPECT_GT(data.stats().corrupt_records, 0u);
  EXPECT_GT(data.stats().resampled, 0u);
  EXPECT_EQ(data.stats().batches, 4u);

  const auto corrupt = data.scrub_records();
  ASSERT_EQ(corrupt.size(), 2u);
  EXPECT_EQ(corrupt[0], 0u);
  EXPECT_EQ(corrupt[1], 3u);
}

TEST_F(MirrorMediaTest, PlaintextStoreScrubsClean) {
  PmDataStore data(rom_, platform_.enclave(), test_gcm(), /*encrypted=*/false);
  data.load(tiny_dataset());
  EXPECT_TRUE(data.scrub_records().empty());
}

TEST(DataStoreScrub, PoisonedLineReportsItsRecordInBothStoreKinds) {
  for (const bool encrypted : {false, true}) {
    SCOPED_TRACE(encrypted ? "encrypted store" : "plaintext store");
    Platform platform(MachineProfile::emlsgx_pm(), 8 * 1024 * 1024);
    romulus::Romulus rom(platform.pm(), 0, 3 * 1024 * 1024,
                         romulus::PwbPolicy::clflushopt_sfence(), true);
    PmDataStore data(rom, platform.enclave(), test_gcm(), encrypted);
    data.load(tiny_dataset());
    EXPECT_TRUE(data.scrub_records().empty());

    // Poison one line in the middle of record 3 (a record spans many lines).
    constexpr std::size_t kRecord = 3;
    const std::size_t line = (rom.main_region_offset() + data.records_offset() +
                              kRecord * data.record_bytes() + data.record_bytes() / 2) /
                             pm::kCacheLine;
    platform.pm().poison_line(line, /*seed=*/11);

    const std::vector<std::size_t> corrupt = data.scrub_records();
    ASSERT_EQ(corrupt.size(), 1u);
    EXPECT_EQ(corrupt[0], kRecord);
    ScrubOptions opts;
    opts.scan_dataset = true;
    const ScrubReport report = scrub_arena(rom, nullptr, nullptr, &data, opts);
    EXPECT_EQ(report.corrupt_records, corrupt);
    EXPECT_EQ(report.poisoned_lines, 1u);
  }
}

// --- RecoveryLog --------------------------------------------------------------

TEST_F(MirrorMediaTest, RecoveryLogPersistsAndCompacts) {
  RecoveryLog log(rom_, platform_.enclave());
  EXPECT_FALSE(log.exists());
  log.create(4);
  EXPECT_TRUE(log.exists());
  EXPECT_EQ(log.capacity(), 4u);

  for (std::uint64_t i = 0; i < 6; ++i) {
    log.append({/*tier=*/2, /*resume_iteration=*/10 * i, /*replica_repairs=*/i,
                /*rungs_failed=*/1, /*flags=*/RecoveryRecord::kMirrorRebuilt});
  }
  // Capacity 4, six appends: compaction keeps the newest entries.
  ASSERT_LE(log.size(), 4u);
  const auto all = log.all();
  EXPECT_EQ(all.back().resume_iteration, 50u);
  EXPECT_EQ(all.back().flags, RecoveryRecord::kMirrorRebuilt);

  // Survives re-attach through a second Romulus handle.
  romulus::Romulus again(platform_.pm(), 0, 14 * 1024 * 1024,
                         romulus::PwbPolicy::clflushopt_sfence(), false);
  RecoveryLog reread(again, platform_.enclave());
  EXPECT_TRUE(reread.exists());
  EXPECT_EQ(reread.all().back().resume_iteration, 50u);
}

// --- attempt/completion accounting and root-slot validation -------------------

TEST_F(MirrorMediaTest, FailedSaveLeavesAttemptAheadOfCompletion) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);

  // A net whose layer list does not match the persistent layout: the save
  // starts (attempt) but throws before anything commits.
  ml::Network other = ml::build_network(ml::make_cnn_config(3, 4, 8), rng_);
  EXPECT_THROW(mirror.mirror_out(other, 1), MlError);
  EXPECT_EQ(mirror.stats().save_attempts, 1u);
  EXPECT_EQ(mirror.stats().saves, 0u);

  // A clean save closes the gap again.
  mirror.mirror_out(net_, 1);
  EXPECT_EQ(mirror.stats().save_attempts, 2u);
  EXPECT_EQ(mirror.stats().saves, 1u);
}

TEST_F(MirrorMediaTest, FailedRestoreLeavesAttemptAheadOfCompletion) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  net_.set_iterations(3);
  mirror.mirror_out(net_, 3);

  const auto extents = mirror.sealed_extents();
  ASSERT_FALSE(extents.empty());
  rot_extent(extents[0].primary_off, 64);  // unreplicated: no sibling to save it

  ml::Network other = ml::build_network(tiny_config(), rng_);
  EXPECT_THROW((void)mirror.mirror_in(other), CryptoError);
  EXPECT_EQ(mirror.stats().restore_attempts, 1u);
  EXPECT_EQ(mirror.stats().restores, 0u);
}

TEST_F(MirrorMediaTest, CorruptRootSlotOffsetSurfacesPmErrorNotOob) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  EXPECT_TRUE(mirror.exists());

  // Media fault lands the root slot far outside the main region: every
  // root-following entry point reports a contextual PmError instead of
  // reading out of bounds.
  const std::uint64_t bad = rom_.main_size() + (1u << 20);
  rom_.run_transaction([&] { rom_.set_root(MirrorModel::kRootSlot, bad); });
  try {
    (void)mirror.exists();
    FAIL() << "corrupt root slot did not throw";
  } catch (const PmError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
    EXPECT_NE(what.find("exceeds main size"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(rom_.main_size())), std::string::npos) << what;
  }

  // A root slot whose header would straddle the end of the region is just as
  // dead — the full sizeof(Header) extent must fit, not only the magic word.
  rom_.run_transaction([&] {
    rom_.set_root(MirrorModel::kRootSlot, rom_.main_size() - 4);
  });
  EXPECT_THROW((void)mirror.exists(), PmError);
  EXPECT_THROW((void)mirror.iteration(), PmError);
}

TEST_F(MirrorMediaTest, LayerListWalksFailClosedOnSelfLoopAndTruncation) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm(), MirrorOptions{true});
  mirror.alloc(net_);
  mirror.mirror_out(net_, 2);
  ASSERT_GT(net_.num_layers(), 1u);

  // Header layout: magic, iteration, num_layers, head, replicated; a layer
  // node starts with its next pointer.
  const std::uint64_t head = rom_.read<std::uint64_t>(rom_.root(MirrorModel::kRootSlot) + 24);
  const std::uint64_t next = rom_.read<std::uint64_t>(head);
  const auto set_next = [&](std::uint64_t value) {
    rom_.run_transaction([&] { rom_.tx_assign(head, value); });
  };

  for (const std::uint64_t forged : {head, std::uint64_t{0}}) {
    SCOPED_TRACE(forged == head ? "self-loop" : "truncated");
    set_next(forged);
    sgx::ChargeStream stream = platform_.enclave().open_stream(1);
    EXPECT_THROW(mirror.mirror_out(net_, 3), PmError);
    EXPECT_THROW(mirror.begin_async_save(net_, 3, stream), PmError);
    EXPECT_FALSE(mirror.async_save_pending());
    EXPECT_THROW((void)mirror.mirror_in(net_), PmError);
    EXPECT_THROW((void)mirror.mirror_in_snapshot(net_), PmError);
    EXPECT_THROW((void)mirror.verify_integrity(net_), PmError);
    EXPECT_THROW((void)mirror.scrub(net_), PmError);
    EXPECT_THROW((void)mirror.sealed_extents(), PmError);
    EXPECT_THROW((void)mirror.encryption_metadata_bytes(), PmError);
    EXPECT_THROW(mirror.dispose(), PmError);  // frees nothing, twice or at all
    set_next(next);
  }

  // The repaired list walks again, and nothing above committed.
  EXPECT_EQ(mirror.iteration(), 2u);
  EXPECT_EQ(mirror.verify_integrity(net_), 2u);
  EXPECT_FALSE(mirror.sealed_extents().empty());
}

TEST_F(MirrorMediaTest, CheckpointRestoreFailureLeavesAttemptAheadOfCompletion) {
  SsdCheckpointer ckpt(platform_.ssd(), platform_.enclave(), test_gcm());
  EXPECT_THROW((void)ckpt.restore(net_), StorageError);  // nothing saved yet
  EXPECT_EQ(ckpt.stats().restore_attempts, 1u);
  EXPECT_EQ(ckpt.stats().restores, 0u);

  ckpt.save(net_);
  EXPECT_EQ(ckpt.stats().save_attempts, 1u);
  EXPECT_EQ(ckpt.stats().saves, 1u);
  EXPECT_EQ(ckpt.restore(net_), net_.iterations());
  EXPECT_EQ(ckpt.stats().restore_attempts, 2u);
  EXPECT_EQ(ckpt.stats().restores, 1u);
}

TEST_F(MirrorMediaTest, StatsBridgePublishesAttemptAndPipelineSeries) {
  MirrorModel mirror(rom_, platform_.enclave(), test_gcm());
  mirror.alloc(net_);
  sgx::ChargeStream stream = platform_.enclave().open_stream(1);
  mirror.begin_async_save(net_, 1, stream);
  ASSERT_TRUE(mirror.complete_async_save(stream));

  obs::Registry reg;
  obs::publish(reg, mirror.stats(), {});
  EXPECT_EQ(reg.counter("mirror.save_attempts"), 1u);
  EXPECT_EQ(reg.counter("mirror.saves"), 1u);
  EXPECT_EQ(reg.counter("mirror.async_saves"), 1u);
  EXPECT_EQ(reg.counter("mirror.restore_attempts"), 0u);
  EXPECT_GE(reg.gauge("mirror.encrypt_ns"), 0.0);
  EXPECT_GE(reg.gauge("mirror.pipeline_stall_ns"), 0.0);

  obs::publish(reg, platform_.enclave().stats(), {});
  EXPECT_EQ(reg.counter("enclave.stream_submits"), 1u);

  SsdCheckpointer ckpt(platform_.ssd(), platform_.enclave(), test_gcm());
  ckpt.save(net_);
  obs::publish(reg, ckpt.stats(), {});
  EXPECT_EQ(reg.counter("checkpoint.save_attempts"), 1u);
  EXPECT_EQ(reg.counter("checkpoint.restore_attempts"), 0u);
}

}  // namespace
}  // namespace plinius
