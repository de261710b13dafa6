#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> values) {
  const std::size_t ld = values.size();
  if (ld < 2) throw std::invalid_argument("quartiles: need at least 2 values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = len + 1, cut point i of n
  // at position i*m/n, clamped to [1, len-1], linearly interpolated.
  constexpr std::size_t n = 4;
  const std::size_t m = ld + 1;
  double cut[3];
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t j = i * m / n;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * n);
    cut[i - 1] = (values[j - 1] * (static_cast<double>(n) - delta) + values[j] * delta) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

namespace {

/// 1-based nearest rank of percentile p among n samples. The small slack
/// keeps e.g. p99.9 of 10000 at rank 9990 despite 99.9 being inexact.
std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(1.0, r)), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(p, values.size()) - 1];
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.n = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const std::size_t rank = nearest_rank(p, values.size());
    if (values.size() - rank < kTailBeyond) break;
    t.percentile = p;
    t.value = values[rank - 1];
  }
  if (t.percentile == 0) {  // too few samples for even the median's rule
    t.percentile = 50;
    t.value = percentile(values, 50);
  }
  return t;
}

double max_sustained_qps(const std::vector<Rung>& rungs, double limit_us) {
  double best = 0;
  for (const Rung& r : rungs) {
    if (r.p99_us > limit_us || r.failed > 0) break;
    best = r.offered_qps;
  }
  return best;
}

}  // namespace perfbench
