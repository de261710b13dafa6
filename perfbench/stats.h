// Statistics helpers shared by every workload of the benchmark: medians and
// quartiles, the tail-percentile rule, and the serving ladder rule.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(values, n=4)
/// (the default "exclusive" method), so the benchmark's own spread figures
/// match the ones computed from its JSON output. Needs at least 2 values.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// A tail latency: the highest percentile of a fixed ladder (50, 75, 90, 95,
/// 99, 99.9) that still has at least kTailBeyond samples beyond it, so a
/// tail is never read off a handful of samples. Nearest-rank percentiles.
struct Tail {
  double percentile = 0;  // 0 when there are no samples
  double value = 0;
  std::size_t n = 0;      // sample count
};
inline constexpr std::size_t kTailBeyond = 10;
[[nodiscard]] Tail tail(std::vector<double> values);

/// Nearest-rank percentile `p` (0 < p <= 100) of `values` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// One rung of the serving ladder: the offered rate and what it achieved.
struct Rung {
  double offered_qps = 0;
  double p99_us = 0;        // simulated tail latency of the rung
  std::size_t failed = 0;   // requests shed, expired or auth-failed
};

/// The highest offered rate, walking the ladder upwards, up to which every
/// rung met `limit_us` and failed nothing. Rungs above the first miss do not
/// count: a later pass is noise, not capacity. Returns 0 if the lowest rung
/// already misses. `rungs` must be sorted by offered rate.
[[nodiscard]] double max_sustained_qps(const std::vector<Rung>& rungs, double limit_us);

}  // namespace perfbench
