#include "plinius/fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "obs/stats_bridge.h"

namespace plinius::fleet {

namespace {
constexpr std::size_t kNoKill = static_cast<std::size_t>(-1);
constexpr std::uint64_t kGold = 0x9E3779B97F4A7C15ULL;

bool wants_media_damage(const PreemptionOptions& p) {
  return p.model == PreemptionModel::kChaos &&
         (p.media_rates.bit_flips_per_mib > 0 ||
          p.media_rates.torn_lines_per_mib > 0 ||
          p.media_rates.poisoned_lines_per_mib > 0);
}
}  // namespace

const char* to_string(SyncPolicy policy) noexcept {
  switch (policy) {
    case SyncPolicy::kBarrier: return "barrier";
    case SyncPolicy::kBoundedStaleness: return "bounded-staleness";
    case SyncPolicy::kGossip: return "gossip";
  }
  return "?";
}

const char* to_string(RoundPhase phase) noexcept {
  switch (phase) {
    case RoundPhase::kPreExchange: return "pre-exchange";
    case RoundPhase::kMidExchange: return "mid-exchange";
    case RoundPhase::kPostAverage: return "post-average";
  }
  return "?";
}

std::vector<ml::Dataset> shard_round_robin(const ml::Dataset& data,
                                           std::size_t workers) {
  data.validate();
  expects(workers >= 1, "shard_round_robin: need at least one worker");
  expects(data.size() >= workers, "shard_round_robin: dataset too small");
  std::vector<ml::Dataset> shards(workers);
  const std::size_t per_worker = data.size() / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    auto& shard = shards[w];
    shard.x = ml::Matrix(per_worker, data.x.cols);
    shard.y = ml::Matrix(per_worker, data.y.cols);
    for (std::size_t r = 0; r < per_worker; ++r) {
      const std::size_t src = r * workers + w;
      std::memcpy(shard.x.row(r), data.x.row(src), data.x.cols * sizeof(float));
      std::memcpy(shard.y.row(r), data.y.row(src), data.y.cols * sizeof(float));
    }
  }
  return shards;
}

ElasticTrainer::ElasticTrainer(const MachineProfile& profile,
                               std::size_t pm_bytes_per_worker,
                               const ml::ModelConfig& config, FleetOptions options)
    : config_(config),
      options_(std::move(options)),
      net_rng_(options_.link.net_seed),
      gossip_rng_(options_.fleet_seed) {
  expects(options_.workers >= 1, "ElasticTrainer: need at least one worker");
  expects(options_.sync_every >= 1, "ElasticTrainer: sync_every must be >= 1");
  expects(options_.min_live_fraction >= 0.0 && options_.min_live_fraction <= 1.0,
          "ElasticTrainer: min_live_fraction must be in [0, 1]");
  expects(options_.max_rounds >= 1, "ElasticTrainer: max_rounds must be >= 1");
  platforms_.reserve(options_.workers);
  trainers_.resize(options_.workers);
  sources_.reserve(options_.workers);
  alive_.assign(options_.workers, true);
  last_iteration_.assign(options_.workers, 0);
  open_kill_.assign(options_.workers, kNoKill);
  losses_.resize(options_.workers);
  report_.workers.resize(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    // Distinct platform seeds: independent machines with their own fused keys.
    platforms_.push_back(std::make_unique<Platform>(profile, pm_bytes_per_worker,
                                                    0x5367E0ULL + w));
    sources_.emplace_back(options_.preemption, w);
    report_.workers[w].worker = w;
  }
  for (std::size_t w = 0; w < options_.workers; ++w) build_worker(w);
}

ElasticTrainer::~ElasticTrainer() = default;

void ElasticTrainer::build_worker(std::size_t w) {
  trainers_[w] = std::make_unique<Trainer>(*platforms_[w], config_,
                                           options_.trainer);
  if (data_loaded_) trainers_[w]->load_dataset(shards_[w]);
  (void)trainers_[w]->resume_or_init();
}

void ElasticTrainer::load_dataset(const ml::Dataset& data) {
  shards_ = shard_round_robin(data, options_.workers);
  data_loaded_ = true;
  for (std::size_t w = 0; w < options_.workers; ++w) {
    if (trainers_[w] != nullptr) trainers_[w]->load_dataset(shards_[w]);
  }
}

bool ElasticTrainer::alive(std::size_t w) const {
  expects(w < alive_.size(), "ElasticTrainer: bad worker index");
  return alive_[w];
}

std::size_t ElasticTrainer::live_count() const noexcept {
  return static_cast<std::size_t>(std::count(alive_.begin(), alive_.end(), true));
}

ml::Network& ElasticTrainer::network(std::size_t w) {
  return trainer(w).network();
}

Trainer& ElasticTrainer::trainer(std::size_t w) {
  expects(w < trainers_.size(), "ElasticTrainer: bad worker index");
  if (!alive_[w]) revive_worker(w, nullptr);
  return *trainers_[w];
}

const std::vector<float>& ElasticTrainer::losses(std::size_t w) const {
  expects(w < losses_.size(), "ElasticTrainer: bad worker index");
  return losses_[w];
}

sim::Nanos ElasticTrainer::elapsed_ns() const {
  sim::Nanos latest = 0;
  for (const auto& p : platforms_) latest = std::max(latest, p->clock().now());
  return latest;
}

void ElasticTrainer::kill_worker(std::size_t w) {
  expects(w < trainers_.size(), "ElasticTrainer: bad worker index");
  if (!alive_[w]) return;
  spot::InterruptionRecord rec;
  rec.tick = round_counter_ == 0 ? 0 : round_counter_ - 1;
  rec.killed_at_iteration = trainers_[w] != nullptr
                                ? trainers_[w]->network().iterations()
                                : last_iteration_[w];
  last_iteration_[w] = rec.killed_at_iteration;
  trainers_[w].reset();          // process dies, volatile state gone
  platforms_[w]->pm().crash();   // PM keeps only persisted lines
  alive_[w] = false;
  open_kill_[w] = report_.workers[w].interruptions.size();
  report_.workers[w].interruptions.push_back(rec);
  ++report_.workers[w].kills;
  ++report_.kills;
  if (current_log_ != nullptr) ++current_log_->killed;
}

void ElasticTrainer::preempt_kill(std::size_t w, std::uint64_t round) {
  kill_worker(w);
  // A chaos kill can also degrade the victim's PM in place, so the revival
  // exercises the deeper recovery rungs (replica, SSD checkpoint, peer).
  if (wants_media_damage(options_.preemption)) {
    auto& dev = platforms_[w]->pm();
    pm::MediaFaultInjector injector(
        dev, options_.preemption.chaos_seed ^ (round * kGold) ^ (w + 1));
    injector.add_region("arena", 0, dev.size(), options_.preemption.media_rates);
    (void)injector.unleash();
  }
}

void ElasticTrainer::revive_worker(std::size_t w, RoundLog* log) {
  // The machine was off but the wall clock was not: bring its clock up to
  // the fleet's present before charging recovery work.
  const sim::Nanos now = elapsed_ns();
  if (platforms_[w]->clock().now() < now) {
    platforms_[w]->clock().advance(now - platforms_[w]->clock().now());
  }
  build_worker(w);
  const RecoveryReport& rec = trainers_[w]->last_recovery();
  if (rec.dataset_lost && data_loaded_) {
    trainers_[w]->load_dataset(shards_[w]);  // region was reformatted
  }
  RecoveryTier tier = rec.tier;
  // Local ladder bottomed out: pull the current model from a healthy peer
  // over the attested channel (the ladder's bottom-most rung).
  if (tier == RecoveryTier::kFreshStart && options_.peer_provision) {
    if (reprovision_from_peer(w)) tier = RecoveryTier::kPeer;
  }
  alive_[w] = true;
  const std::uint64_t resume = trainers_[w]->network().iterations();
  last_iteration_[w] = resume;
  ++report_.workers[w].revives;
  ++report_.revives;
  ++report_.recoveries_by_tier[static_cast<std::size_t>(tier)];
  if (open_kill_[w] != kNoKill) {
    spot::InterruptionRecord& kill = report_.workers[w].interruptions[open_kill_[w]];
    kill.tier = tier;
    kill.resume_iteration = resume;
    report_.workers[w].redone_iterations += kill.redone_iterations();
    report_.redone_iterations += kill.redone_iterations();
    open_kill_[w] = kNoKill;
  }
  if (log != nullptr) ++log->revived;
}

bool ElasticTrainer::reprovision_from_peer(std::size_t w) {
  // Most-advanced live peer; dead workers have no enclave to seal from.
  std::size_t peer = w;
  std::uint64_t best_iter = 0;
  for (std::size_t p = 0; p < trainers_.size(); ++p) {
    if (p == w || trainers_[p] == nullptr || !alive_[p]) continue;
    const std::uint64_t iter = trainers_[p]->network().iterations();
    if (iter > best_iter) {
      best_iter = iter;
      peer = p;
    }
  }
  if (peer == w || best_iter == 0) return false;

  ClusterStats& stats = report_.cluster;
  const auto param_bytes =
      static_cast<double>(trainers_[w]->network().parameter_bytes());
  const cluster::LinkOptions& link = options_.link;
  const cluster::TransferOutcome outcome = cluster::transfer_sealed(
      {&platforms_[peer]->enclave(), &platforms_[peer]->clock()},
      {&platforms_[w]->enclave(), &platforms_[w]->clock()}, param_bytes, link,
      net_rng_, cluster::member_backoff_seed(link.net_seed, w));
  stats.peer_retries += outcome.drops;
  stats.peer_backoff_capped += outcome.backoff_capped;
  if (!outcome.delivered) {
    ++stats.peer_provision_failures;
    return false;
  }

  ml::Network& src = trainers_[peer]->network();
  ml::Network& dst = trainers_[w]->network();
  for (std::size_t l = 0; l < src.num_layers(); ++l) {
    const auto from = src.layer(l).parameters();
    auto to = dst.layer(l).parameters();
    expects(from.size() == to.size(), "ElasticTrainer: parameter layout divergence");
    for (std::size_t b = 0; b < from.size(); ++b) {
      expects(from[b].values.size() == to[b].values.size(),
              "ElasticTrainer: parameter shape divergence");
      std::copy(from[b].values.begin(), from[b].values.end(),
                to[b].values.begin());
    }
  }
  dst.set_iterations(best_iter);
  if (options_.trainer.backend == CheckpointBackend::kPmMirror) {
    trainers_[w]->mirror().mirror_out(dst, best_iter);
  }
  trainers_[w]->note_peer_recovery(best_iter);
  ++stats.peer_provisions;
  return true;
}

void ElasticTrainer::refresh_membership(std::uint64_t round, RoundLog& log) {
  for (std::size_t w = 0; w < workers(); ++w) {
    const bool want_up = sources_[w].up(round);
    if (alive_[w] && !want_up) {
      preempt_kill(w, round);
    } else if (!alive_[w] && want_up) {
      revive_worker(w, &log);
    }
  }
}

std::vector<std::size_t> ElasticTrainer::select_participants() const {
  std::vector<std::size_t> out;
  out.reserve(workers());
  for (std::size_t w = 0; w < workers(); ++w) {
    if (!alive_[w]) continue;
    if (options_.policy == SyncPolicy::kBoundedStaleness &&
        lag_rounds(w) > options_.staleness_bound) {
      continue;  // too stale: trains locally until back within the bound
    }
    out.push_back(w);
  }
  return out;
}

std::uint64_t ElasticTrainer::lag_rounds(std::size_t w) const {
  std::uint64_t frontier = 0;
  for (std::size_t p = 0; p < workers(); ++p) {
    if (alive_[p]) frontier = std::max(frontier, last_iteration_[p]);
  }
  const std::uint64_t mine = last_iteration_[w];
  const std::uint64_t behind = frontier > mine ? frontier - mine : 0;
  return behind / std::max<std::size_t>(options_.sync_every, 1);
}

void ElasticTrainer::barrier_all() {
  const sim::Nanos latest = elapsed_ns();
  for (auto& p : platforms_) p->clock().advance(latest - p->clock().now());
}

void ElasticTrainer::align_clocks(const std::vector<std::size_t>& ws) {
  sim::Nanos latest = 0;
  for (const std::size_t w : ws) {
    latest = std::max(latest, platforms_[w]->clock().now());
  }
  for (const std::size_t w : ws) {
    platforms_[w]->clock().advance(latest - platforms_[w]->clock().now());
  }
}

void ElasticTrainer::charge_exchange(const std::vector<std::size_t>& ws) {
  // Ring all-reduce of the sealed parameter blob among the participants:
  // each sends/receives 2*(n-1)/n of the model, encrypted enclave-to-enclave.
  const std::size_t n = ws.size();
  const auto param_bytes =
      static_cast<double>(trainers_[ws.front()]->network().parameter_bytes());
  const double wire_bytes =
      2.0 * static_cast<double>(n - 1) / static_cast<double>(n) * param_bytes;
  for (const std::size_t w : ws) {
    auto& platform = *platforms_[w];
    platform.enclave().charge_crypto(static_cast<std::size_t>(wire_bytes));
    platform.clock().advance(sim::bandwidth_ns(wire_bytes, options_.link.network_gib_s) +
                             2.0 * static_cast<double>(n - 1) * options_.link.rtt_ns);
  }
}

void ElasticTrainer::average_plain(const std::vector<std::size_t>& ws) {
  // Accumulate into the first participant, scale, copy back out.
  const std::size_t n = ws.size();
  ml::Network& first_net = trainers_[ws.front()]->network();
  const std::size_t layers = first_net.num_layers();
  for (std::size_t l = 0; l < layers; ++l) {
    auto first = first_net.layer(l).parameters();
    for (std::size_t b = 0; b < first.size(); ++b) {
      std::span<float> acc = first[b].values;
      for (std::size_t i = 1; i < n; ++i) {
        const auto other = trainers_[ws[i]]->network().layer(l).parameters();
        expects(other[b].values.size() == acc.size(),
                "ElasticTrainer: parameter shape divergence");
        for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += other[b].values[j];
      }
      const float inv = 1.0f / static_cast<float>(n);
      for (auto& v : acc) v *= inv;
      for (std::size_t i = 1; i < n; ++i) {
        auto other = trainers_[ws[i]]->network().layer(l).parameters();
        std::copy(acc.begin(), acc.end(), other[b].values.begin());
      }
    }
  }
}

void ElasticTrainer::average_weighted(const std::vector<std::size_t>& ws) {
  // Staleness-weighted fold: weight 1/(1+lag_rounds), so a fresh worker
  // counts fully and a straggler's stale parameters are damped instead of
  // dragging the averaged model backwards.
  const std::size_t n = ws.size();
  std::vector<float> weights(n);
  float total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0f / (1.0f + static_cast<float>(lag_rounds(ws[i])));
    total += weights[i];
  }
  const float inv_total = 1.0f / total;
  ml::Network& first_net = trainers_[ws.front()]->network();
  const std::size_t layers = first_net.num_layers();
  std::vector<float> acc;
  for (std::size_t l = 0; l < layers; ++l) {
    auto first = first_net.layer(l).parameters();
    for (std::size_t b = 0; b < first.size(); ++b) {
      const std::size_t len = first[b].values.size();
      acc.assign(len, 0.0f);
      for (std::size_t i = 0; i < n; ++i) {
        const auto other = trainers_[ws[i]]->network().layer(l).parameters();
        expects(other[b].values.size() == len,
                "ElasticTrainer: parameter shape divergence");
        for (std::size_t j = 0; j < len; ++j) {
          acc[j] += weights[i] * other[b].values[j];
        }
      }
      for (std::size_t j = 0; j < len; ++j) acc[j] *= inv_total;
      for (std::size_t i = 0; i < n; ++i) {
        auto other = trainers_[ws[i]]->network().layer(l).parameters();
        std::copy(acc.begin(), acc.end(), other[b].values.begin());
      }
    }
  }
}

void ElasticTrainer::gossip_exchange(std::uint64_t round, RoundLog& log,
                                     std::vector<bool>& folded) {
  std::vector<std::size_t> live;
  for (std::size_t w = 0; w < workers(); ++w) {
    if (alive_[w]) live.push_back(w);
  }
  std::shuffle(live.begin(), live.end(), gossip_rng_);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
    pairs.emplace_back(live[i], live[i + 1]);
  }
  // Wire: each member of a pair seals and ships its full parameter blob.
  for (const auto& [a, b] : pairs) {
    const auto param_bytes =
        static_cast<double>(trainers_[a]->network().parameter_bytes());
    for (const std::size_t w : {a, b}) {
      platforms_[w]->enclave().charge_crypto(static_cast<std::size_t>(param_bytes));
      platforms_[w]->clock().advance(
          sim::bandwidth_ns(param_bytes, options_.link.network_gib_s) +
          options_.link.rtt_ns);
    }
    align_clocks({a, b});
  }
  run_phase_hook(round, RoundPhase::kMidExchange);
  for (const auto& [a, b] : pairs) {
    if (!alive_[a] || !alive_[b]) continue;  // killed mid-exchange: dropped
    const std::vector<std::size_t> pair{a, b};
    average_plain(pair);
    ++report_.workers[a].rounds_participated;
    ++report_.workers[b].rounds_participated;
    folded[a] = true;
    folded[b] = true;
    log.participants += 2;
  }
  if (log.participants > 0) {
    ++report_.sync_rounds;
    log.averaged = true;
  }
}

void ElasticTrainer::run_phase_hook(std::uint64_t round, RoundPhase phase) {
  if (phase_hook_) phase_hook_(round, phase);
}

void ElasticTrainer::persist_live_mirrors() {
  // Persist the synchronized model on every surviving worker so a
  // post-average crash resumes with the folded weights.
  if (options_.trainer.backend != CheckpointBackend::kPmMirror) return;
  for (std::size_t w = 0; w < workers(); ++w) {
    if (!alive_[w]) continue;
    trainers_[w]->mirror().mirror_out(trainers_[w]->network(),
                                      trainers_[w]->network().iterations());
    last_iteration_[w] = trainers_[w]->network().iterations();
  }
}

void ElasticTrainer::sync_round(std::uint64_t round, RoundLog& log) {
  run_phase_hook(round, RoundPhase::kPreExchange);

  std::vector<bool> folded(workers(), false);
  if (options_.policy == SyncPolicy::kGossip) {
    gossip_exchange(round, log, folded);
  } else {
    auto participants = select_participants();
    std::erase_if(participants, [&](std::size_t w) { return !alive_[w]; });
    if (options_.policy == SyncPolicy::kBarrier) barrier_all();
    if (participants.size() >= 2) {
      charge_exchange(participants);
      if (options_.policy == SyncPolicy::kBoundedStaleness) {
        align_clocks(participants);
      }
      run_phase_hook(round, RoundPhase::kMidExchange);
      // A worker killed during the exchange contributes nothing.
      std::erase_if(participants, [&](std::size_t w) { return !alive_[w]; });
      if (participants.size() >= 2) {
        if (options_.policy == SyncPolicy::kBarrier) {
          average_plain(participants);
        } else {
          average_weighted(participants);
        }
        ++report_.sync_rounds;
        log.averaged = true;
        log.participants = participants.size();
        for (const std::size_t w : participants) {
          ++report_.workers[w].rounds_participated;
          folded[w] = true;
        }
      }
    }
  }

  run_phase_hook(round, RoundPhase::kPostAverage);
  persist_live_mirrors();

  // A worker that is up but sat the average out (too stale, or gossip's odd
  // one out) missed the round.
  if (log.averaged) {
    for (std::size_t w = 0; w < workers(); ++w) {
      if (alive_[w] && !folded[w]) ++report_.workers[w].rounds_missed;
    }
  }
}

void ElasticTrainer::collect_losses(std::size_t w, std::uint64_t new_losses) {
  const auto& history = trainers_[w]->loss_history();
  losses_[w].insert(losses_[w].end(),
                    history.end() - static_cast<std::ptrdiff_t>(new_losses),
                    history.end());
}

bool ElasticTrainer::all_reached(std::uint64_t target) const {
  for (std::size_t w = 0; w < workers(); ++w) {
    const std::uint64_t iter = trainers_[w] != nullptr && alive_[w]
                                   ? trainers_[w]->network().iterations()
                                   : last_iteration_[w];
    if (iter < target) return false;
  }
  return true;
}

float ElasticTrainer::train(std::uint64_t target_iterations) {
  expects(data_loaded_, "ElasticTrainer: load_dataset first");

  bool done = false;
  while (!done) {
    if (round_counter_ >= options_.max_rounds) break;  // dead fleet backstop
    const std::uint64_t round = round_counter_++;
    RoundLog log;
    log.round = round;
    log.start_ns = elapsed_ns();
    ++report_.rounds_total;
    current_log_ = &log;

    refresh_membership(round, log);
    log.live = live_count();

    const double live_frac =
        static_cast<double>(live_count()) / static_cast<double>(workers());
    if (live_count() == 0 || live_frac < options_.min_live_fraction) {
      // Quorum loss: the round is skipped and charged as idle time on every
      // machine (the survivors sit waiting, the dead ones are off).
      for (auto& p : platforms_) p->clock().advance(options_.idle_round_ns);
      ++report_.rounds_skipped_quorum;
      log.quorum_met = false;
      for (std::size_t w = 0; w < workers(); ++w) {
        ++report_.workers[w].rounds_missed;
      }
      done = all_reached(target_iterations);
      current_log_ = nullptr;
      log.end_ns = elapsed_ns();
      report_.rounds.push_back(log);
      continue;
    }

    done = true;
    for (std::size_t w = 0; w < workers(); ++w) {
      if (!alive_[w]) {
        if (last_iteration_[w] < target_iterations) done = false;
        ++report_.workers[w].rounds_missed;
        continue;
      }
      Trainer& tr = *trainers_[w];
      const std::uint64_t current = tr.network().iterations();
      last_iteration_[w] = current;
      if (current >= target_iterations) continue;
      const std::uint64_t goal =
          std::min<std::uint64_t>(current + options_.sync_every, target_iterations);
      (void)tr.train(goal);
      collect_losses(w, goal - current);
      report_.workers[w].executed_iterations += goal - current;
      report_.executed_iterations += goal - current;
      last_iteration_[w] = goal;
      if (goal < target_iterations) done = false;
    }

    sync_round(round, log);
    current_log_ = nullptr;
    log.end_ns = elapsed_ns();
    report_.rounds.push_back(log);
  }

  float sum = 0;
  for (std::size_t w = 0; w < workers(); ++w) {
    const float last = losses_[w].empty() ? 0.0f : losses_[w].back();
    report_.workers[w].final_loss = last;
    sum += last;
  }
  report_.live_workers = live_count();
  report_.elapsed_ns = elapsed_ns();
  report_.completed = all_reached(target_iterations);
  return sum / static_cast<float>(workers());
}

void ElasticTrainer::publish(obs::Registry& reg, const obs::Labels& labels) const {
  obs::publish(reg, report_, labels);
}

}  // namespace plinius::fleet
