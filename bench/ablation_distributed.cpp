// Ablation — distributed Plinius (the paper's §VIII future-work direction).
//
// Data-parallel training over N independent Plinius workers (each with its
// own enclave, PM mirror and encrypted shard), parameters averaged over
// sealed 10 GbE links every 8 iterations. Reports training throughput
// scaling and the communication share of wall time.
#include <cstdio>

#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/fleet/fleet.h"

int main() {
  using namespace plinius;

  std::printf("# Ablation: distributed data-parallel training (emlSGX-PM workers)\n");
  std::printf("# 3 conv layers, batch 64/worker, sync every 8 iterations\n\n");

  ml::SynthDigitsOptions dopt;
  dopt.train_count = 4096;
  dopt.test_count = 512;
  const auto digits = ml::make_synth_digits(dopt);

  std::printf("%-9s %14s %16s %16s %10s\n", "workers", "wall time", "samples/s",
              "scaling", "test acc");
  double base_throughput = 0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    fleet::FleetOptions opt;
    opt.workers = workers;
    opt.sync_every = 8;
    fleet::ElasticTrainer cluster(MachineProfile::emlsgx_pm(), 64u << 20,
                                  ml::make_cnn_config(3, 8, 64), opt);
    cluster.load_dataset(digits.train);
    constexpr std::uint64_t kIters = 48;
    const sim::Nanos before = cluster.elapsed_ns();  // exclude one-time data load
    (void)cluster.train(kIters);

    const double wall_s = (cluster.elapsed_ns() - before) / 1e9;
    const double samples =
        static_cast<double>(workers) * static_cast<double>(kIters) * 64.0;
    const double throughput = samples / wall_s;
    if (workers == 1) base_throughput = throughput;
    const double acc = cluster.network(0).accuracy(digits.test.x.values.data(),
                                                   digits.test.y.values.data(),
                                                   digits.test.size());
    std::printf("%-9zu %13.2fs %16.0f %15.2fx %9.1f%%\n", workers, wall_s, throughput,
                throughput / base_throughput, 100.0 * acc);
  }
  std::printf("\n# Expected: near-linear throughput scaling (averaging rounds cost\n");
  std::printf("# sealed all-reduce traffic, so efficiency dips slightly with N).\n");
  return 0;
}
