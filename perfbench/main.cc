// perfbench: the repository benchmark. One process runs one workload on the
// emlSGX-PM profile and prints every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1) as the last line of stdout, one JSON object.
//
//   perfbench --workload train|checkpoint|serve --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--commit ID] [--tree HASH]
//
// Every workload runs the same phases, so every metric exists on every
// workload; the workload decides which phase gets the --seconds budget and
// which model is checkpointed (README.md, "Workloads"):
//
//   train       60k rows in PM; the training loop runs for --seconds.
//   checkpoint  the checkpointed model is fig7's 90 MB wide-conv stack and
//               its save/restore loop runs for --seconds.
//   serve       the int8 serving ladder is repeated for --seconds.
//
// Each phase first runs a fixed, seed-determined part: the simulated metrics
// and the simulated-output digest are read from it, so they repeat bit for
// bit. Only then does the workload's timed phase run on.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/envelope.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "ml/config.h"
#include "ml/quant.h"
#include "ml/synth_digits.h"
#include "obs/export.h"
#include "plinius/checkpoint.h"
#include "plinius/mirror.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace plinius;

// ---------------------------------------------------------------------------
// Fixed shape of the workloads.

constexpr std::size_t kBatch = 128;            // make_cnn_config(5, 32, kBatch)
// Fixed part of the training phase. 60 leaves >= 50 iterations that are not
// the first of a segment, so the iteration tail is a p75; at 40-50 some seeds
// still sit where int8 loses more than a point of top-1 against float.
constexpr std::uint64_t kTrainIters = 60;
constexpr std::size_t kTestRows = 2000;        // serving requests draw from these
constexpr std::size_t kSetupReps = 3;          // setup_s is the median of these
constexpr std::uint64_t kChunkIters = 4;       // timed continuation granularity
constexpr std::size_t kCnnMirrorWarmup = 5;    // first touches of the CNN's mirror
constexpr std::size_t kCnnMirrorSteps = 100;   // save/restore pairs on the CNN (~6 ms each)
constexpr std::size_t kWideWarmup = 3;         // first touches of the 90 MB mirror
constexpr std::size_t kWideFixedSteps = 8;     // fixed part of the wide loop
constexpr std::size_t kWideConvLayers = 11;    // fig7's stack: ~90 MB of params
// The serving ladder: offered rate and requests per rung (>= 1000, so a p99
// has 10 samples beyond it). The rungs below the knee (~30k qps) take more
// requests, which steadies the host req/s and the nominal sim p99 across
// seeds; the 38k rung stays short, because above the knee the admission
// queue (256) grows with every request and would start shedding.
struct LadderRung {
  double qps;
  std::size_t requests;
};
constexpr double kNominalQps = 20000;
constexpr LadderRung kLadder[] = {{10000, 2000}, {kNominalQps, 5000}, {25000, 2000}, {38000, 1000}};
constexpr double kLatencyLimitUs = 1000;       // sim p99 limit of the ladder
constexpr std::size_t kServeLanes = 4;         // serving enclave's TCS lanes
constexpr double kMaxAccuracyGapPoints = 1.0;  // int8 vs float top-1
constexpr std::size_t kTracedIters = 8;
// Pool size when PLINIUS_THREADS is unset. With a pool of nproc every pooled
// phase swings with the rest of the host's load: on a 4-vCPU host, two busy
// neighbour processes slowed iterations by 23% and 90 MB saves by 50% at 4
// threads, against 0% and 5% at 1. Training and serving gain at most ~10%
// from the pool there; saves and restores gain 2x, so the checkpoint figures
// are one-thread figures.
constexpr std::size_t kPoolThreads = 1;

struct Seeds {
  std::uint64_t data, init, batch, kill, perturb, arrival, key;

  static Seeds derive(std::uint64_t seed) {
    SplitMix64 sm(seed);
    return {sm.next(), sm.next(), sm.next(), sm.next(), sm.next(), sm.next(), sm.next()};
  }
};

struct Plan {
  std::size_t train_rows = 10000;
  double train_seconds = 0;  // > 0: the training loop runs on until then
  double ckpt_seconds = 0;   // > 0: the wide save/restore loop runs until then
  double serve_seconds = 0;  // > 0: ladder passes repeat until then
  bool wide = false;         // checkpoint the wide stack, not the CNN's mirror
};

std::optional<Plan> plan_for(const std::string& workload, double seconds) {
  if (workload == "train") return Plan{60000, seconds, 0, 0, false};
  if (workload == "checkpoint") return Plan{10000, 0, seconds, 0, true};
  if (workload == "serve") return Plan{10000, 0, 0, seconds, false};
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Correctness accounting: every operation and every check is attempted once.

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) { count(1, ok ? 0 : 1, what); }
  void count(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0) {
      std::fprintf(stderr, "CHECK FAILED: %s (%llu of %llu)\n", what.c_str(),
                   static_cast<unsigned long long>(bad), static_cast<unsigned long long>(n));
    }
  }
};

// ---------------------------------------------------------------------------
// Counters from the layers' public stats() structs.

struct Counters {
  double ecalls = 0, copy_in = 0, copy_out = 0, crypto = 0;
  double pm_stored = 0, pm_lines = 0, pm_fences = 0, pm_read = 0;

  static Counters read(Platform& p) {
    const auto& e = p.enclave().stats();
    const auto& m = p.pm().stats();
    return {static_cast<double>(e.ecalls),          static_cast<double>(e.bytes_copied_in),
            static_cast<double>(e.bytes_copied_out), static_cast<double>(e.crypto_bytes),
            static_cast<double>(m.bytes_stored),     static_cast<double>(m.lines_flushed),
            static_cast<double>(m.fences),           static_cast<double>(m.bytes_read)};
  }
  Counters& operator+=(const Counters& o) {
    ecalls += o.ecalls, copy_in += o.copy_in;
    copy_out += o.copy_out, crypto += o.crypto, pm_stored += o.pm_stored;
    pm_lines += o.pm_lines, pm_fences += o.pm_fences, pm_read += o.pm_read;
    return *this;
  }
  friend Counters operator-(Counters a, const Counters& b) {
    a.ecalls -= b.ecalls, a.copy_in -= b.copy_in;
    a.copy_out -= b.copy_out, a.crypto -= b.crypto, a.pm_stored -= b.pm_stored;
    a.pm_lines -= b.pm_lines, a.pm_fences -= b.pm_fences, a.pm_read -= b.pm_read;
    return a;
  }
};

// ---------------------------------------------------------------------------
// Session: everything setup builds.

ml::ModelConfig cnn_config() { return ml::make_cnn_config(5, 32, kBatch); }

ml::ModelConfig wide_config() {
  // fig7_mirror_vs_ssd's wide stack: each 512->512 3x3 layer adds ~9.4 MB.
  std::string cfg =
      "[net]\nbatch=128\nheight=28\nwidth=28\nchannels=1\n\n"
      "[convolutional]\nfilters=512\nsize=3\nstride=2\npad=1\nactivation=leaky\n\n";
  for (std::size_t i = 1; i < kWideConvLayers; ++i) {
    cfg += "[convolutional]\nfilters=512\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n";
  }
  return ml::ModelConfig::parse(cfg);
}

Bytes derive_key(std::uint64_t seed) {
  Bytes key(16);
  Rng(seed).fill(key.data(), key.size());
  return key;
}

struct CnnSession {
  ml::SynthDigits digits;
  TrainerOptions options;
  std::unique_ptr<Platform> platform;
  std::unique_ptr<Trainer> trainer;
};

struct WideSession {
  std::unique_ptr<Platform> platform;
  ml::Network net;
  std::unique_ptr<sgx::EnclaveBuffer> residency;
  std::unique_ptr<romulus::Romulus> rom;
  std::unique_ptr<MirrorModel> mirror;
  Bytes key;
};

struct Session {
  CnnSession cnn;
  std::optional<WideSession> wide;
};

std::size_t cnn_pm_bytes(std::size_t rows) {
  // Sealed records (784 + 10 floats + IV/MAC) plus room for the mirror and
  // the logs, twice over for Romulus' twin copy.
  const std::size_t main = rows * 3264 + (8u << 20);
  return 2 * main + (1u << 20);
}

Session setup(const Plan& plan, const Seeds& seeds) {
  Session s;
  ml::SynthDigitsOptions dopt;
  dopt.train_count = plan.train_rows;
  dopt.test_count = kTestRows;
  dopt.seed = seeds.data;
  s.cnn.digits = ml::make_synth_digits(dopt);
  s.cnn.options.init_seed = seeds.init;
  s.cnn.options.batch_seed = seeds.batch;
  s.cnn.platform = std::make_unique<Platform>(MachineProfile::emlsgx_pm(),
                                              cnn_pm_bytes(plan.train_rows));
  s.cnn.trainer = std::make_unique<Trainer>(*s.cnn.platform, cnn_config(), s.cnn.options);
  s.cnn.trainer->load_dataset(s.cnn.digits.train);
  (void)s.cnn.trainer->resume_or_init();

  if (plan.wide) {
    Rng init_rng(seeds.init ^ 0x5749444555ULL);
    ml::Network net = ml::build_network(wide_config(), init_rng);
    const std::size_t model_bytes = net.parameter_bytes();
    const std::size_t main_size = model_bytes + model_bytes / 8 + (32u << 20);
    auto platform = std::make_unique<Platform>(
        MachineProfile::emlsgx_pm(), romulus::Romulus::region_bytes(main_size) + (1u << 20));
    // fig7's enclave residency: the model plus ~16 MB of code and buffers.
    auto residency = std::make_unique<sgx::EnclaveBuffer>(platform->enclave(),
                                                          model_bytes + (16u << 20));
    auto rom = std::make_unique<romulus::Romulus>(
        platform->pm(), 0, main_size, romulus::PwbPolicy::clflushopt_sfence(),
        /*format=*/true, romulus::ExecutionProfile::native());
    Bytes key = derive_key(seeds.key);
    auto mirror = std::make_unique<MirrorModel>(*rom, platform->enclave(), crypto::AesGcm(key));
    mirror->alloc(net);
    s.wide.emplace(WideSession{std::move(platform), std::move(net), std::move(residency),
                               std::move(rom), std::move(mirror), std::move(key)});
  }
  return s;
}

// ---------------------------------------------------------------------------
// Training phase: Trainer::train with a mirror every iteration and seeded
// kills (destroy the Trainer, crash PM, construct, load_dataset, resume).

struct TrainResult {
  // Host and simulated time of every iteration but the first of a segment,
  // which also pays train()'s entry and, after a kill, the cold caches.
  std::vector<double> iter_ms;
  std::vector<double> sim_iter_ns;
  std::vector<double> first_iter_ms;  // the first of each segment
  std::vector<double> attach_ms, load_ms, resume_ms, recover_ms;
  std::vector<float> losses;
  double loop_ns = 0;               // host time of the loop, recoveries included
  double loop_cpu_ns = 0;           // process CPU time over the same span
  std::uint64_t iterations = 0;
};

/// Iterations after which the process is killed: 8 to 10 inside the first
/// `prefix` iterations, then one every 5 to 8 iterations. Recovery is bimodal (a crash
/// that loses Romulus' unfenced IDLE store makes the next attach copy the
/// whole main region), so recover_ms is a mean over many kills.
std::vector<std::uint64_t> kill_schedule(std::uint64_t seed, std::uint64_t prefix) {
  Rng rng(seed);
  std::vector<std::uint64_t> kills;
  const std::uint64_t in_prefix = 8 + rng.below(3);
  while (kills.size() < in_prefix) {
    const std::uint64_t at = 4 + rng.below(prefix - 6);
    if (std::find(kills.begin(), kills.end(), at) == kills.end()) kills.push_back(at);
  }
  std::sort(kills.begin(), kills.end());
  for (std::uint64_t at = prefix + 5 + rng.below(4); at < 100000;
       at += 5 + rng.below(4)) {
    kills.push_back(at);
  }
  return kills;
}

void kill_and_recover(CnnSession& s, Tracer& tracer, TrainResult& r, Checks& checks) {
  const std::uint64_t last = s.trainer->network().iterations();
  sim::Clock& clock = s.platform->clock();
  {
    Span total(tracer, "recover", clock);
    s.trainer.reset();
    s.platform->pm().crash();
    Span attach(tracer, "recover.attach", clock);
    s.trainer = std::make_unique<Trainer>(*s.platform, cnn_config(), s.options);
    r.attach_ms.push_back(attach.stop().host_ms());
    Span load(tracer, "recover.load", clock);
    s.trainer->load_dataset(s.digits.train);
    r.load_ms.push_back(load.stop().host_ms());
    Span resume(tracer, "recover.resume", clock);
    const std::uint64_t resumed = s.trainer->resume_or_init();
    r.resume_ms.push_back(resume.stop().host_ms());
    r.recover_ms.push_back(total.stop().host_ms());
    checks.expect(resumed == last, "resume iteration equals the last completed one");
  }
  try {
    s.trainer->verify_persistent_state();
    checks.expect(true, "");
  } catch (const std::exception& e) {
    checks.expect(false, std::string("verify_persistent_state: ") + e.what());
  }
}

/// Trains to `target` iterations, then (deadline_ns > 0) on in small chunks
/// until the host clock passes deadline_ns. Kills fire at `kills`.
void train_phase(CnnSession& s, const std::vector<std::uint64_t>& kills, std::uint64_t target,
                 double deadline_ns, Tracer& tracer, TrainResult& r, Checks& checks) {
  const double loop0 = host_now_ns();
  const double cpu0 = cpu_now_ns();
  for (;;) {
    const std::uint64_t it = s.trainer->network().iterations();
    if (it >= target && (deadline_ns <= 0 || host_now_ns() >= deadline_ns)) break;
    const std::uint64_t next_kill = *std::upper_bound(kills.begin(), kills.end(), it);
    const std::uint64_t stop =
        std::min(next_kill, it < target ? target : it + kChunkIters);

    sim::Clock& clock = s.platform->clock();
    double prev_host = host_now_ns();
    double prev_sim = clock.now();
    bool first = true;
    const std::uint64_t before = it;
    try {
      Span seg(tracer, "train.segment", clock);
      (void)s.trainer->train(stop, [&](std::uint64_t, float loss) {
        const double h = host_now_ns();
        const double t = clock.now();
        if (first) {
          r.first_iter_ms.push_back((h - prev_host) / 1e6);
        } else {
          r.iter_ms.push_back((h - prev_host) / 1e6);
          r.sim_iter_ns.push_back(t - prev_sim);
        }
        first = false;
        prev_host = h;
        prev_sim = t;
        r.losses.push_back(loss);
      });
    } catch (const std::exception& e) {
      checks.expect(false, std::string("Trainer::train threw: ") + e.what());
      throw;
    }
    const std::uint64_t done = s.trainer->network().iterations() - before;
    r.iterations += done;
    checks.count(done, 0, "iterations");
    if (stop == next_kill) kill_and_recover(s, tracer, r, checks);
  }
  r.loop_ns += host_now_ns() - loop0;
  r.loop_cpu_ns += cpu_now_ns() - cpu0;
}

// ---------------------------------------------------------------------------
// Checkpoint steps: perturb, save (mirror_out), scramble, restore (mirror_in)
// and check that the restore brought back the saved iteration and weights.

struct Mirrored {
  Platform* platform;
  ml::Network* net;
  MirrorModel* mirror;
};

Mirrored mirrored(Session& s) {
  if (s.wide) return {s.wide->platform.get(), &s.wide->net, s.wide->mirror.get()};
  Trainer& t = *s.cnn.trainer;
  return {s.cnn.platform.get(), &t.network(), &t.mirror()};
}

std::uint64_t param_checksum(ml::Network& net) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    for (const ml::ParamBuffer& p : net.layer(i).parameters()) {
      const auto* v = p.values.data();
      for (std::size_t k = 0; k < p.values.size(); ++k) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v[k], sizeof bits);
        h = (h ^ bits) * 0x100000001B3ULL;
      }
    }
  }
  return h;
}

/// Adds a small seeded delta to every 61st weight from a seeded offset: a
/// stand-in for the weight change of a training step.
void perturb(ml::Network& net, Rng& rng) {
  const std::size_t offset = rng.below(61);
  const auto delta = static_cast<float>(rng.uniform(-1e-3, 1e-3));
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    for (const ml::ParamBuffer& p : net.layer(i).parameters()) {
      for (std::size_t k = offset; k < p.values.size(); k += 61) p.values[k] += delta;
    }
  }
}

std::size_t sealed_bytes(const MirrorModel& mirror) {
  std::size_t total = 0;
  for (const auto& e : mirror.sealed_extents()) total += e.sealed_len;
  return total;
}

std::size_t largest_buffer(const MirrorModel& mirror) {
  std::size_t largest = 0;
  for (const auto& e : mirror.sealed_extents()) {
    largest = std::max(largest, crypto::unsealed_size(e.sealed_len));
  }
  return largest;
}

struct CkptResult {
  std::vector<Interval> save, restore;    // every measured step
  std::vector<double> sim_save_ns, sim_restore_ns;  // the fixed steps only
  Counters at_save, at_restore;           // summed counter deltas
};

void checkpoint_steps(Session& s, Rng& rng, std::size_t warmup, std::size_t steps,
                      double deadline_ns, bool fixed, Tracer& tracer, CkptResult& r,
                      Checks& checks) {
  const Mirrored m = mirrored(s);
  const sim::Clock& clock = m.platform->clock();
  for (std::size_t k = 0; k < warmup + steps || (deadline_ns > 0 && host_now_ns() < deadline_ns);
       ++k) {
    perturb(*m.net, rng);
    const std::uint64_t sum = param_checksum(*m.net);
    const std::uint64_t iteration = m.net->iterations() + 1;
    const bool measured = k >= warmup;

    Counters c0 = Counters::read(*m.platform);
    Span save(tracer, "mirror.mirror_out", clock);
    m.mirror->mirror_out(*m.net, iteration);
    const Interval si = save.stop();
    Counters c1 = Counters::read(*m.platform);

    perturb(*m.net, rng);  // the restore must undo this
    Span restore(tracer, "mirror.mirror_in", clock);
    const std::uint64_t got = m.mirror->mirror_in(*m.net);
    const Interval ri = restore.stop();
    Counters c2 = Counters::read(*m.platform);

    checks.count(2, 0, "save and restore");
    checks.expect(got == iteration && param_checksum(*m.net) == sum,
                  "mirror_in returns the saved iteration and weights");
    if (!measured) continue;
    r.save.push_back(si);
    r.restore.push_back(ri);
    if (fixed) {
      r.sim_save_ns.push_back(si.sim_ns);
      r.sim_restore_ns.push_back(ri.sim_ns);
    }
    r.at_save += c1 - c0;
    r.at_restore += c2 - c1;
  }
}

// ---------------------------------------------------------------------------
// Serving: the trained model quantized to int8, one worker, open-loop
// Poisson arrivals generated up front (a discrete-event simulation, so the
// generator cannot fall behind).

struct ServeResult {
  std::vector<Rung> rungs;           // the fixed first pass
  Tail nominal;                      // sim latency tail at kNominalQps (us)
  double requests = 0;               // every pass
  Interval run;                      // summed InferenceServer::run
  Counters at_run;
  double batches = 0, batched = 0;
  double queue_ns = 0, decrypt_ns = 0, forward_ns = 0, seal_ns = 0, stage_n = 0;
  double float_correct = 0, int8_correct = 0, scored = 0;
  std::size_t passes = 0;
};

/// Top-1 float predictions of the requests' (decrypted) queries.
std::vector<std::size_t> float_predictions(ml::Network& net, const crypto::AesGcm& gcm,
                                           const std::vector<serve::Request>& reqs) {
  const std::size_t in = ml::kDigitPixels;
  std::vector<std::size_t> out(reqs.size());
  std::vector<float> x(kBatch * in);
  for (std::size_t b = 0; b < reqs.size(); b += kBatch) {
    const std::size_t n = std::min(kBatch, reqs.size() - b);
    for (std::size_t i = 0; i < n; ++i) {
      const Bytes plain = crypto::open(gcm, reqs[b + i].sealed_query);
      std::memcpy(&x[i * in], plain.data(), in * sizeof(float));
    }
    net.predict(x.data(), n, &out[b]);
  }
  return out;
}

/// One ladder pass. Pass 0 is the fixed one: it gives the rungs and, with
/// `score`, the int8-vs-float comparison.
void serve_pass(CnnSession& s, ml::QuantizedNetwork& qnet, const crypto::AesGcm& gcm,
                std::uint64_t arrival_seed, std::size_t pass, bool score, Tracer& tracer,
                ServeResult& r, Checks& checks) {
  Platform& platform = *s.platform;
  const bool fixed = pass == 0;
  std::size_t rung_index = 0;
  for (const auto& [rate, requests] : kLadder) {
    serve::LoadGenOptions lg;
    lg.rate_qps = rate;
    lg.count = requests;
    lg.start_ns = platform.clock().now();
    lg.seed = arrival_seed ^ (pass * 0x10001ULL + rung_index++) * 0x9E3779B97F4A7C15ULL;
    crypto::IvSequence client_iv(static_cast<std::uint32_t>(lg.seed ^ 0xC11E27));
    const auto reqs = serve::poisson_workload(s.digits.test, gcm, client_iv, lg);

    serve::ServerOptions opt;
    opt.workers = 1;
    opt.batch = {.max_batch = 32, .max_wait_ns = 200'000};
    serve::InferenceServer server(platform, qnet, gcm, opt);
    const Counters c0 = Counters::read(platform);
    Span run(tracer, "serve.run", platform.clock());
    const auto done = server.run(reqs);
    r.run += run.stop();
    r.at_run += Counters::read(platform) - c0;
    r.requests += static_cast<double>(reqs.size());

    // Exactly one reply per offered request.
    std::vector<int> replies(reqs.size(), 0);
    bool ids_ok = done.size() == reqs.size();
    for (const auto& c : done) {
      if (c.id < replies.size()) ++replies[c.id];
      else ids_ok = false;
    }
    ids_ok = ids_ok && std::all_of(replies.begin(), replies.end(), [](int n) { return n == 1; });
    checks.expect(ids_ok, "exactly one reply per offered request");
    const auto& st = server.stats();
    checks.expect(st.auth_failed == 0, "no request failed authentication");
    const std::size_t failed = st.shed_total() + st.auth_failed;
    checks.count(reqs.size(), failed, "requests served");

    r.batches += static_cast<double>(st.batches);
    r.batched += st.batch_hist.sum();
    r.queue_ns += st.queue_hist.sum();
    r.decrypt_ns += st.decrypt_hist.sum();
    r.forward_ns += st.forward_hist.sum();
    r.seal_ns += st.seal_hist.sum();
    r.stage_n += static_cast<double>(st.queue_hist.count());
    if (!fixed) continue;

    std::vector<double> lat_us;
    for (const auto& c : done) {
      if (c.served()) lat_us.push_back(c.latency() / 1e3);
    }
    const Tail t = tail(lat_us);
    r.rungs.push_back({rate, percentile(lat_us, 99), failed});
    if (rate == kNominalQps) r.nominal = t;
    if (!score) continue;

    // int8 vs float top-1 on the same requests.
    const auto fpred = float_predictions(s.trainer->network(), gcm, reqs);
    for (const auto& c : done) {
      if (!c.served()) continue;
      r.float_correct += fpred[c.id] == reqs[c.id].truth ? 1 : 0;
      r.int8_correct += c.prediction == reqs[c.id].truth ? 1 : 0;
      r.scored += 1;
    }
  }
  ++r.passes;
}

// ---------------------------------------------------------------------------
// Digests: a changed simulated byte anywhere shows in one of these.

void hash_mirror(crypto::Sha256& h, const MirrorModel& mirror, const romulus::Romulus& rom) {
  for (const auto& e : mirror.sealed_extents()) {
    h.update(ByteSpan(rom.main_base() + e.primary_off, e.sealed_len));
  }
}

void hash_clock(crypto::Sha256& h, Platform& p) {
  const double now = p.clock().now();
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(&now), sizeof now));
}

std::string finish(crypto::Sha256& h) {
  std::uint8_t out[crypto::Sha256::kDigestSize];
  h.final(out);
  return to_hex(ByteSpan(out, 8));
}

std::string sim_digest(Session& s) {
  crypto::Sha256 h;
  hash_clock(h, *s.cnn.platform);
  hash_mirror(h, s.cnn.trainer->mirror(), s.cnn.trainer->romulus());
  if (s.wide) {
    hash_clock(h, *s.wide->platform);
    hash_mirror(h, *s.wide->mirror, *s.wide->rom);
  }
  return finish(h);
}

std::string loss_digest(const std::vector<float>& losses) {
  crypto::Sha256 h;
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(losses.data()),
                    losses.size() * sizeof(float)));
  return finish(h);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, const Checks& checks, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
  out += buf;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN; run() has already failed the run for a non-finite value.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

Interval sum(const std::vector<Interval>& v) {
  Interval t;
  for (const Interval& i : v) t += i;
  return t;
}

std::vector<double> host_ms(const std::vector<Interval>& v) {
  std::vector<double> out;
  for (const Interval& i : v) out.push_back(i.host_ms());
  return out;
}

std::vector<double> sim_ms(const std::vector<Interval>& v) {
  std::vector<double> out;
  for (const Interval& i : v) out.push_back(i.sim_ms());
  return out;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return ratio(s, static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Traced-run probes. They run after the fixed and timed phases because they
// mutate state (batch-norm forwards in train mode update running statistics).

struct TracedLoop {
  std::vector<Interval> iters, batch, compute, train_batch, mirror_out;
  Counters counters;
  std::vector<float> bx, by;  // the last batch, reused by the forward probes
};

/// The same public calls as Trainer::train, one span around each.
TracedLoop traced_train_loop(CnnSession& s, std::uint64_t batch_seed, Tracer& tracer) {
  Trainer& tr = *s.trainer;
  Platform& platform = *s.platform;
  ml::Network& net = tr.network();
  const sim::Clock& clock = platform.clock();
  TracedLoop t;
  t.bx.resize(kBatch * tr.data().x_cols());
  t.by.resize(kBatch * tr.data().y_cols());
  const sgx::EnclaveBuffer batch_buf(platform.enclave(),
                                     (t.bx.size() + t.by.size()) * sizeof(float));
  Rng rng(batch_seed ^ 0x7ACEDULL);
  const Counters c0 = Counters::read(platform);
  for (std::size_t i = 0; i < kTracedIters; ++i) {
    Span iter(tracer, "train.iteration", clock);
    Span data(tracer, "data.sample_batch", clock);
    tr.data().sample_batch(kBatch, rng, t.bx.data(), t.by.data());
    t.batch.push_back(data.stop());
    Span compute(tracer, "sim.charge_compute", clock);
    platform.charge_compute(3.0 * static_cast<double>(net.forward_macs()) *
                            static_cast<double>(kBatch));
    platform.enclave().touch_enclave(net.parameter_bytes());
    t.compute.push_back(compute.stop());
    Span train(tracer, "ml.train_batch", clock);
    const float loss = net.train_batch(t.bx.data(), t.by.data(), kBatch);
    t.train_batch.push_back(train.stop());
    const std::uint64_t it = net.iterations();
    Span mirror(tracer, "mirror.mirror_out", clock);
    tr.mirror().mirror_out(net, it);
    t.mirror_out.push_back(mirror.stop());
    Span append(tracer, "metrics.append", clock);
    tr.metrics().append({it, loss, net.hyper().learning_rate});
    append.stop();
    t.iters.push_back(iter.stop());
  }
  t.counters = Counters::read(platform) - c0;
  return t;
}

template <typename F>
double median_host_ms(Tracer& tracer, const char* name, const sim::Clock& clock, std::size_t reps,
                      F&& body) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < reps; ++i) {
    Span span(tracer, name, clock);
    body();
    ms.push_back(span.stop().host_ms());
  }
  return median(ms);
}

/// Single-thread AES-GCM seal/open rate at `size` bytes, in MB/s (1e6 B).
std::pair<double, double> gcm_rates(const Bytes& key, std::size_t size, double target_bytes) {
  const crypto::AesGcm gcm(key);
  crypto::IvSequence ivs(0x6C3A);
  Bytes plain(size), sealed(crypto::sealed_size(size)), back(size);
  Rng(size).fill(plain.data(), plain.size());
  const std::size_t reps = std::max<std::size_t>(3, static_cast<std::size_t>(target_bytes / size));
  double t0 = host_now_ns();
  for (std::size_t i = 0; i < reps; ++i) crypto::seal_into(gcm, ivs, plain, sealed);
  const double seal_ns = host_now_ns() - t0;
  bool ok = true;
  t0 = host_now_ns();
  for (std::size_t i = 0; i < reps; ++i) ok = crypto::open_into(gcm, sealed, back) && ok;
  const double open_ns = host_now_ns() - t0;
  if (!ok || back != plain) throw std::runtime_error("gcm_rates: open failed");
  const double bytes = static_cast<double>(reps * size);
  return {bytes / seal_ns * 1e3, bytes / open_ns * 1e3};
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string tree = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--tree") a.tree = v;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

int run(const Args& args) {
  const std::optional<Plan> plan_opt = plan_for(args.workload, args.seconds);
  if (!plan_opt) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Plan& plan = *plan_opt;
  const Seeds seeds = Seeds::derive(args.seed);
  if (par::threads_from_env(std::getenv("PLINIUS_THREADS")) == 0) {
    par::set_max_threads(kPoolThreads);
  }
  const CpuTicks ticks0 = read_cpu_ticks();
  const auto steal_share = [&] {
    const CpuTicks now = read_cpu_ticks();
    return ratio(static_cast<double>(now.steal - ticks0.steal),
                 static_cast<double>(now.total - ticks0.total));
  };
  Tracer tracer(args.trace);
  Checks checks;

  // --- setup: built kSetupReps times (once when tracing); the last is kept.
  std::vector<double> setup_s;
  std::optional<Session> session;
  for (std::size_t rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    session.reset();
    const double t0 = host_now_ns();
    session.emplace(setup(plan, seeds));
    setup_s.push_back((host_now_ns() - t0) / 1e9);
  }
  Session& s = *session;
  CnnSession& cnn = s.cnn;
  Rng perturb_rng(seeds.perturb);

  // --- fixed part: seed-determined; simulated metrics come from here.
  const auto kills = kill_schedule(seeds.kill, kTrainIters);
  TrainResult train;
  train_phase(cnn, kills, kTrainIters, 0, tracer, train, checks);
  std::size_t bad_losses = 0;
  for (const float l : train.losses) bad_losses += std::isfinite(l) ? 0 : 1;
  checks.count(train.losses.size(), bad_losses, "finite losses");

  CkptResult ckpt;
  checkpoint_steps(s, perturb_rng, plan.wide ? kWideWarmup : kCnnMirrorWarmup,
                   plan.wide ? kWideFixedSteps : kCnnMirrorSteps, 0, true, tracer, ckpt, checks);

  double quant_ms = 0;
  std::optional<ml::QuantizedNetwork> qnet;
  {
    Span q(tracer, "ml.quantize_network", cnn.platform->clock());
    qnet.emplace(ml::quantize_network(cnn.trainer->network(), cnn.digits.train.x.values.data(),
                                      256));
    quant_ms = q.stop().host_ms();
  }
  const crypto::AesGcm data_gcm(cnn.trainer->data_key());
  cnn.platform->enclave().set_tcs_count(kServeLanes);
  ServeResult serve;
  // The int8 check belongs to the serve workload, whose model is trained on.
  const bool score = plan.serve_seconds > 0;
  serve_pass(cnn, *qnet, data_gcm, seeds.arrival, 0, score, tracer, serve, checks);
  cnn.platform->enclave().set_tcs_count(1);
  const double max_qps = max_sustained_qps(serve.rungs, kLatencyLimitUs);
  const double acc_gap =
      100.0 * (serve.float_correct - serve.int8_correct) / std::max(1.0, serve.scored);
  if (score) {
    checks.expect(std::abs(acc_gap) <= kMaxAccuracyGapPoints,
                  "int8 top-1 within 1 point of float on the same requests");
  }

  const std::string digest = sim_digest(s);
  const std::string losses = loss_digest(train.losses);

  // --- timed part: the workload's phase runs on for --seconds.
  const double sim_iter_ns = median(train.sim_iter_ns);
  const double host_iter_ms = median(train.iter_ms);
  if (!args.trace) {
    if (plan.train_seconds > 0) {
      train_phase(cnn, kills, 0, host_now_ns() + (plan.train_seconds * 1e9 - train.loop_ns),
                  tracer, train, checks);
    }
    if (plan.ckpt_seconds > 0) {
      checkpoint_steps(s, perturb_rng, 0, 0, host_now_ns() + plan.ckpt_seconds * 1e9, false,
                       tracer, ckpt, checks);
    }
    if (plan.serve_seconds > 0) {
      const double deadline = host_now_ns() + plan.serve_seconds * 1e9;
      cnn.platform->enclave().set_tcs_count(kServeLanes);
      while (host_now_ns() < deadline) {
        serve_pass(cnn, *qnet, data_gcm, seeds.arrival, serve.passes, false, tracer, serve,
                   checks);
      }
      cnn.platform->enclave().set_tcs_count(1);
    }
  }

  // --- report. Kills replace the Trainer, so the view is taken afresh.
  const Mirrored m = mirrored(s);
  const Tail iter_tail = tail(train.iter_ms);
  const double rss = peak_rss_mb();
  const double sim_save = median(ckpt.sim_save_ns) / 1e6;
  const double sim_restore = median(ckpt.sim_restore_ns) / 1e6;
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  const Quartiles iq = quartiles(train.iter_ms);
  std::printf("train: %llu iterations (%zu kills), iter ms quartiles %.1f/%.1f/%.1f, "
              "tail p%g of n=%zu, first of a segment %.1f ms (n=%zu), loss digest %s\n",
              static_cast<unsigned long long>(train.iterations), train.recover_ms.size(), iq.q1,
              iq.q2, iq.q3, iter_tail.percentile, iter_tail.n, median(train.first_iter_ms),
              train.first_iter_ms.size(), losses.c_str());
  std::printf("recover ms (attach + load + resume):");
  for (std::size_t i = 0; i < train.recover_ms.size(); ++i) {
    std::printf(" %.1f (%.1f+%.1f+%.1f)", train.recover_ms[i], train.attach_ms[i],
                train.load_ms[i], train.resume_ms[i]);
  }
  std::printf("\n");
  std::printf("checkpoint: %zu measured steps on a %.1f MB model\n", ckpt.save.size(),
              static_cast<double>(m.net->parameter_bytes()) / (1024.0 * 1024.0));
  std::printf("serve: %zu passes, %g requests, nominal tail p%g of n=%zu\n", serve.passes,
              serve.requests, serve.nominal.percentile, serve.nominal.n);
  if (score) {
    std::printf("int8 top-1 %.4f vs float %.4f on %g requests (gap %.2f points)\n",
                ratio(serve.int8_correct, serve.scored), ratio(serve.float_correct, serve.scored),
                serve.scored, acc_gap);
  }
  for (const Rung& r : serve.rungs) {
    std::printf("  ladder %6.0f qps: sim p99 %8.1f us, failed %zu\n", r.offered_qps, r.p99_us,
                r.failed);
  }
  std::printf("simulated-output digest %s\n", digest.c_str());
  std::printf("fail_ratio %.6g (%llu of %llu)\n",
              ratio(static_cast<double>(checks.failed), static_cast<double>(checks.attempted)),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"train_samples_per_s",
         static_cast<double>(train.iterations * kBatch) / (train.loop_ns / 1e9), "samples/s"},
        {"iter_p50_ms", median(train.iter_ms), "ms"},
        {"iter_tail_ms", iter_tail.value, "ms"},
        {"recover_ms", mean(train.recover_ms), "ms"},
        {"sim_iter_ms", sim_iter_ns / 1e6, "sim-ms"},
        {"save_p50_ms", median(host_ms(ckpt.save)), "ms"},
        {"restore_p50_ms", median(host_ms(ckpt.restore)), "ms"},
        {"sim_save_ms", sim_save, "sim-ms"},
        {"sim_restore_ms", sim_restore, "sim-ms"},
        {"serve_req_per_s", serve.requests / (serve.run.host_ns / 1e9), "req/s"},
        {"sim_p99_us", serve.nominal.value, "sim-us"},
        {"sim_max_qps", max_qps, "qps"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss, "MB"},
    };
  } else {
    // --- traced run: per-layer metrics from the benchmark's spans.
    Platform& cp = *cnn.platform;
    const sim::Clock& clock = cp.clock();
    TracedLoop loop = traced_train_loop(cnn, seeds.batch, tracer);
    const double traced_sim_ns = median(sim_ms(loop.iters)) * 1e6;
    const bool sim_match = std::llround(traced_sim_ns) == std::llround(sim_iter_ns);
    checks.expect(sim_match, "traced train loop reproduces sim ms/iteration");
    std::printf("traced loop: sim %.9f ms/iter vs untraced %.9f (%s); host %.3f vs %.3f ms\n",
                traced_sim_ns / 1e6, sim_iter_ns / 1e6, sim_match ? "equal" : "DIFFERENT",
                median(host_ms(loop.iters)), host_iter_ms);

    ml::Network& net = cnn.trainer->network();
    const float* bx = loop.bx.data();
    const double fwd_ms = median_host_ms(tracer, "ml.forward", clock, 3,
                                         [&] { net.forward(bx, kBatch, true); });
    std::vector<Metric> layer_gflops;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      ml::Layer& layer = net.layer(i);
      if (layer.forward_macs() == 0) continue;
      const float* in = i == 0 ? bx : net.layer(i - 1).output().data();
      const std::string name = "ml.layer" + std::to_string(i);
      const double ms = median_host_ms(tracer, (name + ".forward").c_str(), clock, 3,
                                       [&] { layer.forward(in, kBatch, true); });
      layer_gflops.push_back({name + ".fwd_gflops",
                              2.0 * static_cast<double>(layer.forward_macs() * kBatch) /
                                  (ms * 1e6),
                              "GFLOP/s"});
    }

    std::vector<Metric> int8;
    double int8_x = 0;
    const float* tx = cnn.digits.test.x.values.data();
    for (const std::size_t b : {1, 4, 32}) {
      const std::size_t reps = std::max<std::size_t>(5, 256 / b);
      const double f = median_host_ms(tracer, "ml.float_forward", clock, reps,
                                      [&] { net.forward(tx, b, false); });
      const double q = median_host_ms(tracer, "ml.int8_forward", clock, reps,
                                      [&] { qnet->forward(tx, b); });
      int8.push_back({"ml.float_fwd_ms.b" + std::to_string(b), f, "ms"});
      int8.push_back({"ml.int8_fwd_ms.b" + std::to_string(b), q, "ms"});
      int8_x = ratio(f, q);  // the last one: serving's batch of 32
    }

    const auto [seal_big, open_big] =
        gcm_rates(cnn.trainer->data_key(), largest_buffer(*m.mirror), 64e6);
    const double seal_small =
        gcm_rates(cnn.trainer->data_key(), ml::kDigitPixels * sizeof(float), 16e6).first;

    // SSD checkpointing of the same model: the paper's baseline (Table Ib).
    Bytes ssd_key = derive_key(seeds.key ^ 0x55D);
    SsdCheckpointer ssd(m.platform->ssd(), m.platform->enclave(), crypto::AesGcm(ssd_key),
                        "perfbench.ckpt");
    ssd.save(*m.net);  // first touch of the file
    std::vector<Interval> ssd_save, ssd_restore;
    for (int i = 0; i < 3; ++i) {
      perturb(*m.net, perturb_rng);
      const std::uint64_t sum = param_checksum(*m.net);
      const std::uint64_t iteration = m.net->iterations();
      Span save(tracer, "ckpt.ssd_save", m.platform->clock());
      ssd.save(*m.net);
      ssd_save.push_back(save.stop());
      m.platform->ssd().drop_caches();  // restores happen after a crash: cold
      perturb(*m.net, perturb_rng);
      Span restore(tracer, "ckpt.ssd_restore", m.platform->clock());
      const std::uint64_t got = ssd.restore(*m.net);
      ssd_restore.push_back(restore.stop());
      checks.count(2, 0, "ssd save and restore");
      checks.expect(got == iteration && param_checksum(*m.net) == sum,
                    "SSD restore returns the saved iteration and weights");
    }

    const double saves = static_cast<double>(ckpt.save.size());
    const double restores = static_cast<double>(ckpt.restore.size());
    const double sealed = static_cast<double>(sealed_bytes(*m.mirror));
    const Interval save_sum = sum(ckpt.save), restore_sum = sum(ckpt.restore);
    const Interval train_sum = sum(loop.train_batch);
    const double iters = static_cast<double>(loop.iters.size());
    const double reqs = serve.requests;
    const double ssd_sim_save = median(sim_ms(ssd_save)), ssd_sim_restore = median(sim_ms(ssd_restore));
    const auto& sgx_model = cp.profile().sgx;
    const double model_crypto_mb_s = sgx_model.enclave_crypto_gib_s * 1073.741824;

    metrics = {
        {"ml.train_batch_ms", median(host_ms(loop.train_batch)), "ms"},
        {"ml.train_batch_cores", train_sum.cores(), "cores"},
        {"ml.fwd_ms", fwd_ms, "ms"},
    };
    metrics.insert(metrics.end(), layer_gflops.begin(), layer_gflops.end());
    metrics.push_back({"sim.compute_ms", median(sim_ms(loop.compute)), "sim-ms"});
    metrics.insert(metrics.end(), int8.begin(), int8.end());
    metrics.insert(
        metrics.end(),
        {
            {"ml.int8_host_x", int8_x, "x"},
            {"ml.quantize_ms", quant_ms, "ms"},
            {"data.batch_ms", median(host_ms(loop.batch)), "ms"},
            {"data.sim_batch_ms", median(sim_ms(loop.batch)), "sim-ms"},
            {"mirror.save_ms", median(host_ms(ckpt.save)), "ms"},
            {"mirror.restore_ms", median(host_ms(ckpt.restore)), "ms"},
            {"mirror.save_cores", save_sum.cores(), "cores"},
            {"mirror.restore_cores", restore_sum.cores(), "cores"},
            {"mirror.sealed_mb_per_s", sealed * saves / save_sum.host_ns * 1e3, "MB/s"},
            {"mirror.traced_loop_save_ms", median(host_ms(loop.mirror_out)), "ms"},
            {"crypto.seal_mb_per_s", seal_big, "MB/s"},
            {"crypto.open_mb_per_s", open_big, "MB/s"},
            {"crypto.seal_small_mb_per_s", seal_small, "MB/s"},
            {"pm.bytes_stored_per_save", ckpt.at_save.pm_stored / saves, "bytes"},
            {"pm.write_amp", ckpt.at_save.pm_stored / saves / sealed, "x"},
            {"pm.lines_flushed_per_save", ckpt.at_save.pm_lines / saves, "count"},
            {"pm.fences_per_save", ckpt.at_save.pm_fences / saves, "count"},
            {"pm.bytes_read_per_restore", ckpt.at_restore.pm_read / restores, "bytes"},
        });
    const std::pair<const char*, std::pair<const Counters*, double>> per[] = {
        {"save", {&ckpt.at_save, saves}},
        {"restore", {&ckpt.at_restore, restores}},
        {"iter", {&loop.counters, iters}},
        {"req", {&serve.at_run, reqs}},
    };
    // emlSGX-PM models no EPC limit, and only serving copies across the
    // enclave boundary: EPC faults and the other copies are always 0 here.
    for (const auto& [what, cv] : per) {
      const Counters& c = *cv.first;
      const double n = cv.second;
      const std::string sfx = std::string(".per_") + what;
      metrics.push_back({"sgx.crypto_mb" + sfx, c.crypto / n / 1e6, "MB"});
      metrics.push_back({"sgx.ecalls" + sfx, c.ecalls / n, "count"});
    }
    metrics.push_back({"sgx.copy_in_mb.per_req", serve.at_run.copy_in / reqs / 1e6, "MB"});
    metrics.push_back({"sgx.copy_out_mb.per_req", serve.at_run.copy_out / reqs / 1e6, "MB"});
    metrics.insert(
        metrics.end(),
        {
            {"ckpt.ssd_save_ms", median(host_ms(ssd_save)), "ms"},
            {"ckpt.ssd_restore_ms", median(host_ms(ssd_restore)), "ms"},
            {"ckpt.sim_ssd_save_ms", ssd_sim_save, "sim-ms"},
            {"ckpt.sim_ssd_restore_ms", ssd_sim_restore, "sim-ms"},
            {"ckpt.sim_save_x_ssd", ratio(ssd_sim_save, sim_save), "x"},
            {"ckpt.sim_restore_x_ssd", ratio(ssd_sim_restore, sim_restore), "x"},
            {"recover.attach_ms", mean(train.attach_ms), "ms"},
            {"recover.load_ms", mean(train.load_ms), "ms"},
            {"recover.resume_ms", mean(train.resume_ms), "ms"},
            {"serve.run_us_per_req", serve.run.host_ns / 1e3 / reqs, "us"},
            {"serve.run_cores", serve.run.cores(), "cores"},
            {"serve.mean_batch", ratio(serve.batched, serve.batches), "requests"},
            {"serve.sim_queue_us", serve.queue_ns / 1e3 / serve.stage_n, "sim-us"},
            {"serve.sim_decrypt_us", serve.decrypt_ns / 1e3 / serve.stage_n, "sim-us"},
            {"serve.sim_forward_us", serve.forward_ns / 1e3 / serve.stage_n, "sim-us"},
            {"serve.sim_seal_us", serve.seal_ns / 1e3 / serve.stage_n, "sim-us"},
            {"trace.sim_iter_ms", traced_sim_ns / 1e6, "sim-ms"},
            {"trace.overhead_ms", median(host_ms(loop.iters)) - host_iter_ms, "ms"},
            {"calib.data_sim_per_host", ratio(sum(loop.batch).sim_ns, sum(loop.batch).host_ns), "x"},
            {"calib.ml_sim_per_host", ratio(sum(loop.compute).sim_ns, train_sum.host_ns), "x"},
            {"calib.save_sim_per_host", ratio(save_sum.sim_ns, save_sum.host_ns), "x"},
            {"calib.restore_sim_per_host", ratio(restore_sum.sim_ns, restore_sum.host_ns), "x"},
            {"calib.ssd_save_sim_per_host", ratio(sum(ssd_save).sim_ns, sum(ssd_save).host_ns), "x"},
            {"calib.serve_sim_per_host", ratio(serve.run.sim_ns, serve.run.host_ns), "x"},
            {"calib.int8_x_over_model", ratio(int8_x, sgx_model.int8_gemm_speedup), "x"},
            {"calib.seal_over_model", ratio(seal_big, model_crypto_mb_s), "x"},
            {"env.steal_share", steal_share(), "ratio"},
            {"env.threads", static_cast<double>(par::max_threads()), "count"},
        });

    std::printf("calibration (simulated / host time, per layer):\n");
    for (const Metric& c : metrics) {
      if (c.name.rfind("calib.", 0) == 0) std::printf("  %-28s %10.4f\n", c.name.c_str(), c.value);
    }
    std::printf("  int8 host speedup %.3f vs modelled int8_gemm_speedup %.1f\n", int8_x,
                sgx_model.int8_gemm_speedup);
    std::printf("  GCM seal %.0f MB/s (1 thread, %zu B) vs modelled enclave rate %.0f MB/s\n",
                seal_big, largest_buffer(*m.mirror), model_crypto_mb_s);
    if (!args.trace_out.empty() && !obs::write_text_file(args.trace_out, tracer.chrome_json())) {
      checks.expect(false, "write the trace file");
    }
  }

  // Per-run environment record: what a one-CPU or stolen-CPU run looks like.
  std::string reps;
  for (const double v : setup_s) reps += (reps.empty() ? "" : ", ") + std::to_string(v);
  std::printf(
      "{\"env\": {\"threads\": %zu, \"steal_share\": %.6f, \"setup_s\": [%s], "
      "\"train_cores\": %.3f, \"mirror_save_cores\": %.3f, \"mirror_restore_cores\": %.3f, \"serve_run_cores\": %.3f, "
      "\"commit\": \"%s\", \"tree\": \"%s\"}}\n",
      par::max_threads(),
      steal_share(),
      reps.c_str(), ratio(train.loop_cpu_ns, train.loop_ns), sum(ckpt.save).cores(), sum(ckpt.restore).cores(), serve.run.cores(),
      args.commit.c_str(), args.tree.c_str());

  for (const Metric& metric : metrics) {
    checks.expect(std::isfinite(metric.value), "metric " + metric.name + " is finite");
  }
  const bool correct = checks.failed == 0;
  print_json(correct, checks, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto args = perfbench::parse_args(argc, argv);
    if (!args) {
      std::fprintf(stderr,
                   "usage: perfbench --workload train|checkpoint|serve --seed N --seconds S "
                   "--trace 0|1 [--trace-out FILE] [--commit ID] [--tree HASH]\n");
      return 2;
    }
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
