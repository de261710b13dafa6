#include "spans.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double host_now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

double cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(host_now_ns()) {}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": 0, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu, \"cpu_ns\": %.0f, \"sim_ns\": %.3f}}%s\n",
                  s.name.c_str(), s.begin_host_ns / 1e3, s.interval.host_ns / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.interval.cpu_ns,
                  s.interval.sim_ns, i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

Span::Span(Tracer& tracer, const char* name, const plinius::sim::Clock& clock)
    : tracer_(&tracer), name_(name), clock_(&clock) {
  if (tracer_->enabled_) {
    id_ = tracer_->next_id_++;
    parent_ = tracer_->open_.empty() ? 0 : tracer_->open_.back();
    tracer_->open_.push_back(id_);
  }
  sim0_ = clock_->now();
  cpu0_ = cpu_now_ns();
  host0_ = host_now_ns();
}

Span::~Span() { (void)stop(); }

Interval Span::stop() {
  if (!open_) return result_;
  open_ = false;
  result_.host_ns = host_now_ns() - host0_;
  result_.cpu_ns = cpu_now_ns() - cpu0_;
  result_.sim_ns = clock_->now() - sim0_;
  if (tracer_->enabled_) {
    tracer_->open_.pop_back();
    tracer_->spans_.push_back(
        {name_, id_, parent_, host0_ - tracer_->origin_ns_, result_});
  }
  return result_;
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  std::uint64_t v = 0;
  for (int i = 0; fields >> v; ++i) {
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so stop after steal.
    if (i < 8) t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB (MiB)
    }
  }
  return 0;
}

}  // namespace perfbench
