// Bridges the subsystem stats structs into the unified obs::Registry.
//
// Each publish() overload maps one legacy struct onto canonical metric
// names (dot-separated by subsystem) under caller-supplied labels, so the
// same struct published for two platforms/workers lands as two label sets
// of the same series. Publishing is snapshot-style: counters are *set*, not
// incremented; histograms are merged. Call at report cadence.
#pragma once

#include "obs/registry.h"

namespace plinius::sgx {
struct EnclaveStats;
}
namespace plinius::pm {
struct PmStats;
}
namespace plinius {
struct MirrorStats;
struct MirrorScrubReport;
struct CheckpointStats;
struct PmDataStats;
struct ScrubReport;
struct RecoveryReport;
}
namespace plinius::serve {
struct ServerStats;
}
namespace plinius::serve::fleet {
struct RouterStats;
struct RegistryStats;
struct FleetServeStats;
}
namespace plinius::fleet {
struct ClusterStats;
struct FleetReport;
}

namespace plinius::obs {

class Tracer;

/// Publishes the tracer's ring accounting (`obs.trace.recorded`,
/// `obs.trace.evicted`, `obs.trace.cancelled`) so silent span truncation is
/// visible in metrics artifacts.
void publish(Registry& reg, const Tracer& t, const Labels& labels = {});

void publish(Registry& reg, const sgx::EnclaveStats& s, const Labels& labels = {});
void publish(Registry& reg, const pm::PmStats& s, const Labels& labels = {});
void publish(Registry& reg, const MirrorStats& s, const Labels& labels = {});
void publish(Registry& reg, const MirrorScrubReport& s, const Labels& labels = {});
void publish(Registry& reg, const CheckpointStats& s, const Labels& labels = {});
void publish(Registry& reg, const PmDataStats& s, const Labels& labels = {});
void publish(Registry& reg, const ScrubReport& s, const Labels& labels = {});
void publish(Registry& reg, const RecoveryReport& s, const Labels& labels = {});
void publish(Registry& reg, const fleet::ClusterStats& s, const Labels& labels = {});
void publish(Registry& reg, const serve::ServerStats& s, const Labels& labels = {});
void publish(Registry& reg, const serve::fleet::RouterStats& s, const Labels& labels = {});
void publish(Registry& reg, const serve::fleet::RegistryStats& s, const Labels& labels = {});
void publish(Registry& reg, const serve::fleet::FleetServeStats& s, const Labels& labels = {});
void publish(Registry& reg, const fleet::FleetReport& s, const Labels& labels = {});

}  // namespace plinius::obs
