// ServingFleet: the fleet-scale serving tier.
//
// One control plane plus N replica InferenceServers, each replica a full
// machine of its own (Platform -> own simulated clock, enclave cost lanes,
// PM device with a Romulus region and model mirror). The control plane owns:
//
//   * the PM-resident ModelRegistry (serve/fleet/registry.h) — the versioned
//     rollout source of truth, float32 and int8 records side by side;
//   * the data key and the AttestationService: a replica joins the fleet by
//     remote attestation (paper Fig. 5 — the control plane plays the data
//     owner), receives the data key over the derived channel, and is then
//     re-provisioned the current stable weights over the attested link via
//     the shared cluster fabric (cluster/fabric.h, the same transfer +
//     BackoffSchedule retry path fleet::ElasticTrainer uses);
//   * the Router (least-loaded / consistent-hash, per-tenant SLO classes)
//     and the Autoscaler closing the loop on published router.* gauges.
//
// Rollout lifecycle (driven by serve_window, persisted in the registry):
//
//   publish(v)            -> kStaged record
//   begin_rollout(v)      -> install v on ceil(fraction * N) canary replicas
//                            (staged install: a corrupt record fails closed,
//                            the old version keeps serving) -> kCanary
//   serve_window x K      -> canary cohort p99/error-rate compared against
//                            the baseline cohort every window; a regression
//                            rolls every canary back to the stable version
//                            and marks v kRejected; `promote_after` healthy
//                            windows promote v fleet-wide (kServing, the
//                            predecessor kRetired).
//
// Every request admitted to a window gets exactly one sealed completion —
// served, shed, or expired — including router-level sheds, so rollback
// under a corrupt canary is observable as *zero failed requests* rather
// than a gap in the reply stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/fabric.h"
#include "common/rng.h"
#include "crypto/gcm.h"
#include "ml/config.h"
#include "ml/network.h"
#include "ml/quant.h"
#include "obs/registry.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/quant_mirror.h"
#include "romulus/romulus.h"
#include "serve/fleet/autoscaler.h"
#include "serve/fleet/registry.h"
#include "serve/fleet/router.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sgx/attestation.h"

namespace plinius::serve::fleet {

struct CanaryOptions {
  /// Fraction of the replica set serving the canary (at least one replica).
  double fraction = 0.25;
  /// Rollback when canary p99 exceeds baseline p99 by this factor...
  double p99_ratio = 1.5;
  /// ...and exceeds this absolute floor (immunizes the ratio against noise
  /// on near-zero baselines).
  sim::Nanos p99_floor_ns = 200e3;
  /// Rollback when the canary error rate (auth-failed + expired over
  /// arrived) exceeds baseline by more than this.
  double error_rate_slack = 0.01;
  /// Served canary requests a window needs before its verdict counts.
  std::uint64_t min_samples = 20;
  /// Consecutive healthy canary windows before fleet-wide promotion.
  std::uint64_t promote_after = 2;
};

struct FleetOptions {
  std::size_t initial_replicas = 2;
  std::size_t pm_bytes_per_replica = 48u << 20;
  std::size_t control_pm_bytes = 64u << 20;
  /// ModelRegistry record capacity.
  std::size_t registry_capacity = 16;
  RouterOptions router;
  /// Shape of each replica's InferenceServer (workers, batching, admission).
  ServerOptions server;
  CanaryOptions canary;
  AutoscalerOptions autoscaler;
  /// Run the autoscaler after each window (held automatically while a
  /// rollout is in flight — capacity changes would confound the cohorts).
  bool autoscale = true;
  /// Attested control-to-replica weight transfer link.
  cluster::LinkOptions link;
  std::uint64_t fleet_seed = 0xF1EE7;
};

enum class RolloutPhase : std::uint8_t {
  kIdle = 0,
  kCanary = 1,
};

/// Per-cohort (baseline vs canary) window accounting.
struct CohortReport {
  std::size_t replicas = 0;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;        // replica-level sheds + expiries
  std::uint64_t expired = 0;
  std::uint64_t auth_failed = 0;
  sim::Nanos p50_ns = 0;
  sim::Nanos p99_ns = 0;

  [[nodiscard]] double error_rate() const noexcept {
    return arrived == 0
               ? 0.0
               : static_cast<double>(auth_failed + expired) /
                     static_cast<double>(arrived);
  }
};

struct FleetWindowReport {
  std::size_t replicas_begin = 0;
  std::size_t replicas_end = 0;  // after any autoscale action
  std::uint64_t offered = 0;
  std::uint64_t routed = 0;
  std::uint64_t router_shed = 0;
  std::uint64_t served = 0;
  sim::Nanos span_ns = 0;
  double goodput_qps = 0;
  double utilization = 0;       // summed replica busy over replicas x span
  double mean_queue_depth = 0;  // router backlog estimate at window end
  sim::Nanos p99_ns = 0;        // fleet-wide served latency
  CohortReport baseline;
  CohortReport canary;  // zeroed when no rollout is in flight
  bool rolled_back = false;
  bool promoted = false;
  int scale_delta = 0;
  /// Exactly one completion per workload request (any order).
  std::vector<Completion> completions;
};

/// Cumulative fleet counters (stats_bridge maps these onto router.*).
struct FleetServeStats {
  std::uint64_t windows = 0;
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t router_shed = 0;
  std::uint64_t auth_failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t rollouts = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t reloads = 0;          // successful replica weight installs
  std::uint64_t reload_failures = 0;  // failed installs (old version kept)
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t provisions = 0;       // attested key provisionings (joins)
  std::uint64_t transfer_drops = 0;   // lossy-link retries during installs
};

class ServingFleet {
 public:
  /// Builds the control plane (registry PM region, attestation service,
  /// in-enclave data key) and `initial_replicas` attested replicas. The
  /// fleet serves models built from `config` — every published version must
  /// share that architecture.
  ServingFleet(const MachineProfile& profile, const ml::ModelConfig& config,
               FleetOptions options);
  ~ServingFleet();

  ServingFleet(const ServingFleet&) = delete;
  ServingFleet& operator=(const ServingFleet&) = delete;

  /// Publishes a model into the registry (kStaged). Versions are fleet-wide
  /// and monotonic.
  std::uint64_t publish(ml::Network& net);
  std::uint64_t publish(const ml::QuantizedNetwork& qnet);

  /// Installs `version` on every replica and marks it kServing (retiring
  /// the previous stable). Throws on install failure — the fleet cannot
  /// serve without a stable version.
  void set_stable(std::uint64_t version);

  /// Starts a canary rollout of `version`. Returns false — and rolls the
  /// canaries back to the stable version, marking `version` kRejected —
  /// when any canary install fails (corrupt record, transfer failure).
  bool begin_rollout(std::uint64_t version);

  /// Serves one workload window (absolute arrival times; route() stamps
  /// SLO-class deadlines in place): routes, runs every replica server,
  /// seals router-shed replies, evaluates the canary cohort, publishes
  /// router.*/registry.* metrics, and (when idle) runs the autoscaler.
  FleetWindowReport serve_window(std::span<Request> workload);

  [[nodiscard]] std::size_t replica_count() const noexcept;
  [[nodiscard]] std::uint64_t replica_version(std::size_t r) const;
  [[nodiscard]] bool replica_is_canary(std::size_t r) const;
  [[nodiscard]] std::uint64_t replica_reloads(std::size_t r) const;
  [[nodiscard]] std::uint64_t replica_reload_failures(std::size_t r) const;

  [[nodiscard]] std::uint64_t stable_version() const noexcept { return stable_version_; }
  [[nodiscard]] std::uint64_t canary_version() const noexcept { return canary_version_; }
  [[nodiscard]] RolloutPhase rollout_phase() const noexcept { return phase_; }

  [[nodiscard]] ModelRegistry& registry() noexcept { return *registry_; }
  [[nodiscard]] Router& router() noexcept { return *router_; }
  [[nodiscard]] const Autoscaler& autoscaler() const noexcept { return autoscaler_; }
  [[nodiscard]] obs::Registry& obs_registry() noexcept { return obs_; }
  [[nodiscard]] const FleetServeStats& stats() const noexcept { return stats_; }
  /// Clients seal queries under this key (provisioned to every replica).
  [[nodiscard]] const Bytes& data_key() const noexcept { return data_key_; }
  /// Control-plane PM region (tests reach the registry's sealed bytes
  /// through it to model media tamper).
  [[nodiscard]] romulus::Romulus& control_romulus() noexcept { return *control_rom_; }

  /// Latest simulated time across the control plane and all replicas.
  [[nodiscard]] sim::Nanos elapsed_ns() const;

 private:
  struct Replica {
    std::unique_ptr<Platform> platform;
    std::unique_ptr<romulus::Romulus> rom;
    std::unique_ptr<MirrorModel> mirror;
    std::unique_ptr<QuantMirror> qmirror;
    std::unique_ptr<ml::Network> net;          // float serving model
    std::unique_ptr<ml::QuantizedNetwork> qnet;  // int8 serving model
    std::uint64_t version = 0;
    std::uint64_t dtype = ml::kDtypeFloat32;
    bool canary = false;
    std::uint64_t reloads = 0;
    std::uint64_t reload_failures = 0;
  };

  /// Boots, attests and key-provisions a new replica (no weights yet).
  void add_replica();
  /// Attested weight transfer + staged install of `version` on replica `r`.
  /// On failure the replica's serving model is untouched.
  bool install_version(std::size_t r, std::uint64_t version);
  void rollback();
  void promote();
  void barrier_clocks();
  void publish_metrics(const FleetWindowReport& window);

  MachineProfile profile_;
  ml::ModelConfig config_;
  FleetOptions options_;

  std::unique_ptr<Platform> control_;
  std::unique_ptr<romulus::Romulus> control_rom_;
  std::unique_ptr<ModelRegistry> registry_;
  sgx::AttestationService attestation_;
  Bytes data_key_;
  crypto::IvSequence shed_iv_;  // control-plane reply IVs for router sheds

  std::vector<Replica> replicas_;
  std::size_t next_replica_ordinal_ = 0;  // platform seeds are never reused

  std::unique_ptr<Router> router_;
  Autoscaler autoscaler_;
  Rng net_rng_;  // shared lossy-link randomness, like ElasticTrainer's

  RolloutPhase phase_ = RolloutPhase::kIdle;
  std::uint64_t stable_version_ = 0;
  std::uint64_t canary_version_ = 0;
  std::uint64_t healthy_windows_ = 0;

  obs::Registry obs_;
  FleetServeStats stats_;
};

}  // namespace plinius::serve::fleet
