// Fig. 9 extension — recovery time per ladder tier under media faults.
//
// The paper's Fig. 9 shows that mirroring makes training crash-resilient;
// this extension measures what each rung of the corruption-recovery ladder
// costs when the PM media itself rots. Every scenario trains a model,
// power-cuts the device, injects seeded media faults chosen to force one
// specific tier, and times the recovery ladder (resume_or_init) on the
// simulated platform clock. The peer tier is measured differentially on a
// 3-worker cluster: elapsed time with an obliterated worker minus the
// no-fault baseline.
//
// Output: one JSON document on stdout, recovery-time-vs-tier.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "pm/device.h"
#include "plinius/fleet/fleet.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"

namespace {

using namespace plinius;

constexpr std::uint64_t kPhase1Iters = 3;
constexpr std::size_t kPmBytes = 24 * 1024 * 1024;

ml::Dataset tiny_dataset() {
  ml::SynthDigitsOptions opt;
  opt.train_count = 32;
  opt.test_count = 1;
  return make_synth_digits(opt).train;
}

TrainerOptions chaos_options(bool ssd_rung) {
  TrainerOptions opt;
  opt.replicate_mirror = true;
  opt.data_policy = CorruptRecordPolicy::kResample;
  opt.metrics_capacity = 64;
  opt.recovery_log_capacity = 8;
  opt.ssd_checkpoint_every = ssd_rung ? 2 : 0;
  return opt;
}

/// Rots [off, off+len) with seeded bit flips every 16 bytes — enough to
/// defeat AES-GCM authentication on any sealed buffer it covers.
void rot(pm::PmDevice& dev, std::size_t off, std::size_t len, std::uint64_t seed) {
  Rng rng(seed * 7919 + off);
  for (std::size_t i = 0; i < len; i += 16) {
    dev.flip_bit(off + i, static_cast<unsigned>(rng.below(8)));
  }
}

enum class Fault { kNone, kPrimary, kDeep };

struct TierSample {
  std::string tier;
  std::string scenario;
  double recovery_ns = 0;
  std::uint64_t resume_iteration = 0;
  std::uint64_t replica_repairs = 0;
  std::size_t rungs_failed = 0;
};

/// Trains, power-cuts, injects `fault`, and times the recovery ladder.
TierSample run_local(Fault fault, bool ssd_rung, const char* scenario,
                     std::uint64_t seed) {
  Platform platform(MachineProfile::emlsgx_pm(), kPmBytes);
  const auto data = tiny_dataset();
  const auto config = ml::make_cnn_config(2, 4, 8);
  const auto options = chaos_options(ssd_rung);

  std::vector<MirrorModel::SealedExtent> extents;
  std::size_t main_dev = 0;
  std::size_t back_dev = 0;
  {
    Trainer t(platform, config, options);
    t.load_dataset(data);
    t.train(kPhase1Iters);
    extents = t.mirror().sealed_extents();
    main_dev = t.romulus().main_region_offset();
    back_dev = t.romulus().back_region_offset();
  }
  const auto big = *std::max_element(
      extents.begin(), extents.end(),
      [](const auto& a, const auto& b) { return a.sealed_len < b.sealed_len; });

  auto& dev = platform.pm();
  dev.crash(pm::PmDevice::CrashOutcome::kPersistAll);
  switch (fault) {
    case Fault::kNone:
      break;
    case Fault::kPrimary:
      rot(dev, main_dev + big.primary_off, big.sealed_len, seed);
      break;
    case Fault::kDeep:
      rot(dev, main_dev + big.primary_off, big.sealed_len, seed);
      rot(dev, main_dev + big.replica_off, big.sealed_len, seed + 1);
      rot(dev, back_dev + big.primary_off, big.sealed_len, seed + 2);
      rot(dev, back_dev + big.replica_off, big.sealed_len, seed + 3);
      break;
  }

  Trainer t(platform, config, options);
  t.load_dataset(data);
  const sim::Nanos t0 = platform.clock().now();
  const std::uint64_t resumed = t.resume_or_init();
  const sim::Nanos t1 = platform.clock().now();
  const RecoveryReport& rep = t.last_recovery();

  TierSample sample;
  sample.tier = to_string(rep.tier);
  sample.scenario = scenario;
  sample.recovery_ns = t1 - t0;
  sample.resume_iteration = resumed;
  sample.replica_repairs = rep.replica_repairs;
  sample.rungs_failed = rep.rungs_failed.size();
  return sample;
}

/// Runs a 3-worker cluster to `iters` iterations; when `obliterate`, kills
/// worker 0 mid-run and rots its Romulus header so its local ladder bottoms
/// out and it re-provisions from a peer. Returns parallel wall time.
sim::Nanos run_cluster(bool obliterate, std::uint64_t iters, std::string* tier) {
  fleet::FleetOptions opt;
  opt.workers = 3;
  opt.sync_every = 2;
  opt.trainer = chaos_options(/*ssd_rung=*/false);
  fleet::ElasticTrainer cluster(MachineProfile::emlsgx_pm(), kPmBytes,
                                ml::make_cnn_config(2, 4, 8), opt);
  cluster.load_dataset(tiny_dataset());
  (void)cluster.train(iters / 2);
  if (obliterate) {
    auto& dev = cluster.trainer(0).platform().pm();
    cluster.kill_worker(0);
    dev.flip_bit(1, 4);
    dev.flip_bit(5, 2);
  }
  (void)cluster.train(iters);
  if (tier) *tier = to_string(cluster.trainer(0).last_recovery().tier);
  return cluster.elapsed_ns();
}

void emit(const TierSample& s, bool last) {
  std::printf(
      "    {\"tier\": \"%s\", \"scenario\": \"%s\", \"recovery_ns\": %.0f,\n"
      "     \"resume_iteration\": %llu, \"replica_repairs\": %llu, "
      "\"rungs_failed\": %zu}%s\n",
      s.tier.c_str(), s.scenario.c_str(), s.recovery_ns,
      static_cast<unsigned long long>(s.resume_iteration),
      static_cast<unsigned long long>(s.replica_repairs), s.rungs_failed,
      last ? "" : ",");
}

}  // namespace

int main() {
  std::vector<TierSample> samples;
  // Each scenario forces exactly one ladder tier (asserted by the chaos
  // harness in tests/chaos_recovery_test.cpp); here we time them.
  samples.push_back(run_local(Fault::kNone, false, "clean power cut", 11));
  samples.push_back(run_local(Fault::kPrimary, false, "primary copy rotten", 12));
  samples.push_back(
      run_local(Fault::kDeep, true, "all four copies rotten, SSD rung on", 13));
  samples.push_back(
      run_local(Fault::kDeep, false, "all four copies rotten, no SSD rung", 14));

  std::string peer_tier;
  const sim::Nanos base = run_cluster(false, 8, nullptr);
  const sim::Nanos with_peer = run_cluster(true, 8, &peer_tier);
  TierSample peer;
  peer.tier = peer_tier;
  peer.scenario = "worker obliterated, re-provisioned from peer (differential)";
  peer.recovery_ns = with_peer - base;
  peer.resume_iteration = 0;
  samples.push_back(peer);

  std::printf("{\n  \"figure\": \"fig9-extension: recovery time vs ladder tier\",\n");
  std::printf("  \"samples\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    emit(samples[i], i + 1 == samples.size());
  }
  std::printf("  ]\n}\n");
  return 0;
}
