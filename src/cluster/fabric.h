// Cluster fabric: the attested enclave-to-enclave transfer primitive shared
// by every multi-enclave subsystem.
//
// Two subsystems move sealed model parameters between enclaves over a
// lossy simulated network: fleet::ElasticTrainer's peer re-provision rung
// and the serving fleet's replica provisioning (serve/fleet). Both follow
// the same wire protocol — sender seals inside its enclave, the blob crosses
// a bandwidth+RTT link, seeded loss forces a retry after a capped jittered
// backoff (common/backoff.h), the receiver authenticates and opens. This
// module is that loop, written once.
//
// The fabric deliberately depends only on sgx/ and below (no Platform, no
// Trainer): an Endpoint is just an enclave runtime plus its clock, so the
// elastic fleet and the serving router can both hand their halves in without
// inverting the library layering.
#pragma once

#include <cstdint>

#include "common/backoff.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "sgx/attestation.h"
#include "sgx/enclave.h"

namespace plinius::cluster {

/// Golden-ratio increment used to salt per-member seeds (the same constant
/// splitmix64 uses), so members derive well-spread independent streams from
/// one cluster seed.
inline constexpr std::uint64_t kSeedGamma = 0x9E3779B97F4A7C15ULL;

/// One enclave-to-enclave link: bandwidth + RTT, seeded loss, and the retry
/// budget/backoff policy applied when the channel drops a transfer.
struct LinkOptions {
  double network_gib_s = 1.16;    // ~10 GbE inter-node links
  sim::Nanos rtt_ns = 60000.0;    // per transfer attempt
  double loss_rate = 0.0;         // per-attempt drop probability
  std::size_t retries = 5;        // additional attempts after the first
  BackoffPolicy backoff{};        // capped jittered delay between attempts
  std::uint64_t net_seed = 0x9E77;  // lossy-channel determinism
};

/// Backoff seed for cluster member `member`: each member jitters from its
/// own stream so simultaneous rejoiners spread their retries apart instead
/// of hammering the channel in lockstep.
[[nodiscard]] constexpr std::uint64_t member_backoff_seed(std::uint64_t net_seed,
                                                          std::size_t member) {
  return net_seed ^ (kSeedGamma * (static_cast<std::uint64_t>(member) + 1));
}

/// One side of a transfer: the enclave that seals/opens and the simulated
/// clock that pays for the wire time.
struct Endpoint {
  sgx::EnclaveRuntime* enclave = nullptr;
  sim::Clock* clock = nullptr;
};

struct TransferOutcome {
  bool delivered = false;
  std::uint64_t drops = 0;           // attempts the channel lost
  std::uint64_t backoff_capped = 0;  // retry delays clamped at the cap
};

/// Moves `bytes` of sealed payload from `sender` to `receiver` over `link`.
///
/// Per attempt: the sender's enclave seals (charge_crypto), both clocks
/// advance by the wire time (bandwidth_ns + rtt), and `net_rng` decides
/// whether the channel dropped the transfer — on a drop only the receiver
/// waits out the backoff delay (the sender returns to its own work). On
/// delivery the receiver's enclave authenticates and opens. The charge and
/// RNG-draw order is a compatibility contract: the exact simulated clocks
/// pinned in tests/fleet_test.cpp and tests/chaos_recovery_test.cpp depend on
/// this sequence.
TransferOutcome transfer_sealed(const Endpoint& sender, const Endpoint& receiver,
                                double bytes, const LinkOptions& link, Rng& net_rng,
                                std::uint64_t backoff_seed);

/// Runs the full Fig. 5 attestation handshake against `joiner`: the owner
/// challenges, the joiner's enclave reports, the owner verifies the quote
/// via its AttestationService and wraps the key for the derived session, and
/// the joiner unwraps it. Returns the joiner's copy of the key. Throws
/// SgxError when the measurement or quote fails verification, CryptoError if
/// the wrapped key was tampered in flight.
[[nodiscard]] Bytes provision_key(sgx::DataOwner& owner, sgx::EnclaveRuntime& joiner);

}  // namespace plinius::cluster
