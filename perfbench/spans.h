// Spans on three clocks, recorded from the benchmark's own code around calls
// into the library's public functions: host wall time, process CPU time and
// the platform's simulated time. The same Span measures every end-to-end
// figure; with the tracer switched off it records nothing, so the untraced
// run pays only the clock reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace perfbench {

/// Host steady-clock time and process CPU time, in nanoseconds.
[[nodiscard]] double host_now_ns();
[[nodiscard]] double cpu_now_ns();

/// One interval measured on the three clocks.
struct Interval {
  double host_ns = 0;
  double cpu_ns = 0;
  double sim_ns = 0;

  [[nodiscard]] double host_ms() const noexcept { return host_ns / 1e6; }
  [[nodiscard]] double sim_ms() const noexcept { return sim_ns / 1e6; }
  /// Average busy cores over the interval: CPU time over wall time.
  [[nodiscard]] double cores() const noexcept { return host_ns > 0 ? cpu_ns / host_ns : 0; }
  Interval& operator+=(const Interval& o) noexcept {
    host_ns += o.host_ns;
    cpu_ns += o.cpu_ns;
    sim_ns += o.sim_ns;
    return *this;
  }
};

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  double begin_host_ns = 0;  // relative to the tracer's creation
  Interval interval;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Chrome trace-event JSON in the shape obs/export emits ("X" complete
  /// events, ts/dur in microseconds, id and parent in args), here on the host
  /// clock with the CPU and simulated durations as extra args.
  [[nodiscard]] std::string chrome_json() const;

 private:
  friend class Span;
  bool enabled_;
  double origin_ns_;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint64_t> open_;  // ids of the enclosing open spans
  std::vector<SpanRecord> spans_;
};

/// Measures a scope; ends at stop() or destruction, whichever comes first.
class Span {
 public:
  Span(Tracer& tracer, const char* name, const plinius::sim::Clock& clock);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its interval.
  Interval stop();

 private:
  Tracer* tracer_;
  const char* name_;
  const plinius::sim::Clock* clock_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double host0_, cpu0_, sim0_;
  bool open_ = true;
  Interval result_;
};

/// Host facts that tell a slow run from a regression.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
/// Aggregate CPU ticks from /proc/stat (zeros when unreadable).
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Peak resident set of this process (VmHWM) in MB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
