#include "plinius/sealed_blobs.h"

#include <cstring>
#include <string>

#include "common/error.h"
#include "common/parallel.h"

namespace plinius {

SealedBlobs::SealedBlobs(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm)
    : rom_(&rom),
      enclave_(&enclave),
      gcm_(std::move(gcm)),
      iv_seq_(crypto::IvSequence::salted(enclave.rng())) {}

void SealedBlobs::check_extent(const BlobExtent& e, const char* ctx) const {
  if (e.sealed_len < crypto::kSealOverhead) {
    throw PmError(std::string(ctx) + ": corrupt sealed length " +
                  std::to_string(e.sealed_len) + " is shorter than the " +
                  std::to_string(crypto::kSealOverhead) + "-byte envelope");
  }
  const auto check = [&](std::uint64_t off, const char* which) {
    if (off > rom_->main_size() || e.sealed_len > rom_->main_size() - off) {
      throw PmError(std::string(ctx) + ": corrupt " + which + " buffer extent [" +
                    std::to_string(off) + ", +" + std::to_string(e.sealed_len) +
                    ") exceeds main size " + std::to_string(rom_->main_size()));
    }
  };
  check(e.primary_off, "primary");
  if (e.replica_off != 0) check(e.replica_off, "replica");
}

void SealedBlobs::trace_split(sim::Nanos t0, sim::Nanos total, sim::Nanos first_cost,
                              sim::Nanos second_cost, obs::Category first_cat,
                              const char* first, obs::Category second_cat,
                              const char* second, std::uint64_t parent,
                              std::uint32_t track) const {
  obs::Tracer* tracer = enclave_->clock().tracer();
  if (tracer == nullptr || !tracer->enabled() || total <= 0 ||
      first_cost + second_cost <= 0) {
    return;
  }
  const sim::Nanos mid = t0 + total * (first_cost / (first_cost + second_cost));
  const sim::Nanos end = t0 + total;
  if (mid > t0) tracer->complete(first_cat, first, t0, mid, parent, track);
  if (end > mid) tracer->complete(second_cat, second, mid, end, parent, track);
}

// --- save ---------------------------------------------------------------------

void SealedBlobs::plan_seal(SealPlan& plan, const BlobExtent& e, ByteSpan plain) {
  SealTask task{e, plain, plan.scratch_bytes, plan.plain_bytes, {}};
  iv_seq_.next(task.iv);
  plan.scratch_bytes += e.sealed_len;
  plan.plain_bytes += plain.size();
  // Encrypt cost: touch the (EPC-resident) plaintext + one GCM pass.
  const sim::Nanos touch_ns = enclave_->touch_task_ns(plain.size());
  const sim::Nanos crypto_ns = enclave_->crypto_task_ns(plain.size());
  plan.touch_sum += touch_ns;
  plan.crypto_sum += crypto_ns;
  plan.costs.push_back(touch_ns + crypto_ns);
  plan.tasks.push_back(task);
}

void SealedBlobs::seal_tasks(const SealPlan& plan, const std::uint8_t* snapshot,
                             MutableByteSpan out) const {
  par::parallel_for(plan.tasks.size(), [&](par::Range r) {
    for (std::size_t t = r.begin; t < r.end; ++t) {
      const SealTask& task = plan.tasks[t];
      const ByteSpan plain =
          snapshot == nullptr ? task.plain
                              : ByteSpan(snapshot + task.plain_off, task.plain.size());
      crypto::seal_into_iv(
          gcm_, task.iv, plain,
          MutableByteSpan(out.data() + task.scratch_off, task.extent.sealed_len));
    }
  });
}

ByteSpan SealedBlobs::seal(const SealPlan& plan) {
  scratch_.resize(plan.scratch_bytes);
  seal_tasks(plan, nullptr, scratch_);
  // Simulated encryption time: critical path over the enclave's TCS lanes,
  // attributed to paging and GCM in proportion to their task-cost shares —
  // paging dominates past the EPC limit, GCM below it (the Table Ia
  // crossover the trace should expose).
  const sim::Nanos seal_t0 = enclave_->clock().now();
  const sim::Nanos enc_ns = enclave_->charge_parallel(plan.costs);
  stats_.encrypt_ns += enc_ns;
  trace_split(seal_t0, enc_ns, plan.touch_sum, plan.crypto_sum, obs::Category::kEpcPaging,
              "mirror.seal.paging", obs::Category::kGcm, "mirror.seal.gcm");
  return scratch_;
}

void SealedBlobs::seal_async(const SealPlan& plan, sgx::ChargeStream& stream,
                             std::uint64_t iteration, Bytes& snapshot, Bytes& sealed) {
  // Double buffer: gather the live plaintexts into the enclave staging
  // snapshot. This copy is the only plaintext-touching cost left on the
  // foreground; the moment it is done, the caller may mutate them again.
  snapshot.resize(plan.plain_bytes);
  for (const SealTask& task : plan.tasks) {
    std::memcpy(snapshot.data() + task.plain_off, task.plain.data(), task.plain.size());
  }
  enclave_->charge_plain_copy(plan.plain_bytes);

  // Seal the snapshot now — bitwise identical to seal()'s output — but book
  // the simulated cost on the background stream's lanes.
  sealed.resize(plan.scratch_bytes);
  seal_tasks(plan, snapshot.data(), sealed);
  const sgx::ChargeStream::Window window = stream.submit(plan.costs);
  stats_.encrypt_ns += window.duration();

  // Background-lane spans: a pipeline.seal bracket on its own track with the
  // same paging/GCM decomposition seal() emits, so rollups can prove the
  // overlap (the bracket lies outside the foreground span tree and may
  // extend past "now").
  obs::Tracer* tracer = enclave_->clock().tracer();
  if (tracer != nullptr && tracer->enabled() && window.duration() > 0) {
    const obs::Attr a[] = {{"iteration", static_cast<double>(iteration)},
                           {"lanes", static_cast<double>(stream.lanes())}};
    const std::uint64_t bracket =
        tracer->complete(obs::Category::kPipelineSeal, "pipeline.seal",
                         window.begin, window.end, /*parent=*/0, /*track=*/1, a, 2);
    trace_split(window.begin, window.duration(), plan.touch_sum, plan.crypto_sum,
                obs::Category::kEpcPaging, "pipeline.seal.paging", obs::Category::kGcm,
                "pipeline.seal.gcm", bracket, /*track=*/1);
  }
}

void SealedBlobs::commit(const SealPlan& plan, ByteSpan sealed, std::uint64_t stamp_off,
                         std::uint64_t stamp) {
  // Romulus transactions are single-writer, so the sealed blobs and the
  // stamp go to PM serially, atomically. The PM stores, PWBs, fences and the
  // twin-copy commit are the "write" share of Table Ia.
  sim::Stopwatch write_sw(enclave_->clock());
  rom_->run_transaction([&] {
    rom_->tx_assign(stamp_off, stamp);
    for (const SealTask& task : plan.tasks) {
      const BlobExtent& e = task.extent;
      rom_->tx_store(e.primary_off, sealed.data() + task.scratch_off, e.sealed_len);
      if (e.replica_off != 0) {
        rom_->tx_store(e.replica_off, sealed.data() + task.scratch_off, e.sealed_len);
      }
    }
  });
  stats_.write_ns += write_sw.elapsed();
}

// --- restore --------------------------------------------------------------------

void SealedBlobs::stage(std::uint64_t off, std::size_t len, std::uint8_t* out) {
  rom_->device().charge_read(len);
  if (enclave_->model().real_sgx) enclave_->copy_into_enclave(len);
  std::memcpy(out, rom_->main_base() + off, len);
}

std::size_t SealedBlobs::open(std::span<const OpenTask> tasks) {
  // Price every blob first: one GCM pass + the plain copy into its dest.
  std::vector<sim::Nanos> costs;
  costs.reserve(tasks.size());
  std::vector<std::size_t> scratch_off(tasks.size());
  sim::Nanos crypto_sum = 0;  // GCM share of the decrypt costs
  sim::Nanos copy_sum = 0;    // plain-copy share
  std::size_t scratch_bytes = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    scratch_off[t] = scratch_bytes;
    scratch_bytes += tasks[t].extent.sealed_len;
    const sim::Nanos crypto_ns = enclave_->crypto_task_ns(tasks[t].extent.sealed_len);
    const sim::Nanos copy_ns = enclave_->plain_copy_ns(tasks[t].dest.size());
    crypto_sum += crypto_ns;
    copy_sum += copy_ns;
    costs.push_back(crypto_ns + copy_ns);
  }

  // Stage PM -> enclave scratch serially: the media bandwidth is shared, so
  // lanes would not overlap the reads anyway.
  sim::Stopwatch rd(enclave_->clock());
  scratch_.resize(scratch_bytes);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    stage(tasks[t].extent.primary_off, tasks[t].extent.sealed_len,
          scratch_.data() + scratch_off[t]);
  }
  stats_.read_ns += rd.elapsed();

  // Authenticate + decrypt every blob concurrently into its (disjoint) dest.
  const auto sealed_of = [&](std::size_t t) {
    return ByteSpan(scratch_.data() + scratch_off[t], tasks[t].extent.sealed_len);
  };
  std::vector<std::uint8_t> auth_ok(tasks.size(), 0);
  par::parallel_for(tasks.size(), [&](par::Range r) {
    for (std::size_t t = r.begin; t < r.end; ++t) {
      auth_ok[t] = crypto::open_into(gcm_, sealed_of(t), tasks[t].dest) ? 1 : 0;
    }
  });
  const sim::Nanos open_t0 = enclave_->clock().now();
  const sim::Nanos dec_ns = enclave_->charge_parallel(costs);
  stats_.decrypt_ns += dec_ns;
  trace_split(open_t0, dec_ns, crypto_sum, copy_sum, obs::Category::kGcm,
              "mirror.open.gcm", obs::Category::kPlainCopy, "mirror.open.copy");

  // Rare, serial: a blob whose primary failed authentication retries from
  // its A/B sibling. A sibling that authenticates both restores the blob and
  // rewrites the corrupt primary (one durable transaction for all repairs;
  // tx_store's full-line write-back also clears line poison).
  std::vector<std::size_t> repaired;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (auth_ok[t]) continue;
    const BlobExtent& e = tasks[t].extent;
    if (e.replica_off == 0) return t;
    stage(e.replica_off, e.sealed_len, scratch_.data() + scratch_off[t]);
    stats_.decrypt_ns += enclave_->crypto_task_ns(e.sealed_len);
    if (!crypto::open_into(gcm_, sealed_of(t), tasks[t].dest)) return t;
    repaired.push_back(t);
    ++stats_.replica_repairs;
  }
  if (!repaired.empty()) {
    rom_->run_transaction([&] {
      for (const std::size_t t : repaired) {
        rom_->tx_store(tasks[t].extent.primary_off, scratch_.data() + scratch_off[t],
                       tasks[t].extent.sealed_len);
      }
    });
  }
  return tasks.size();
}

// --- maintenance ------------------------------------------------------------------

MirrorScrubReport SealedBlobs::scrub(std::span<const BlobExtent> extents, bool repair) {
  MirrorScrubReport report;
  struct Repair {
    std::uint64_t dest_off;
    Bytes sealed;  // the authenticated sibling's bytes
  };
  std::vector<Repair> repairs;

  // Authenticates the copy at main-relative `off`, charging scrub read
  // traffic (PmDevice::scrub_range also surfaces poisoned lines; poisoned
  // content is scrambled, so authentication fails and the copy reads as
  // corrupt rather than wedging the scrubber). Leaves the copy's bytes in
  // scratch_.
  const auto copy_ok = [&](std::uint64_t off, std::size_t sealed_len) {
    (void)rom_->device().scrub_range(rom_->main_region_offset() + off, sealed_len);
    scratch_.resize(sealed_len);
    std::memcpy(scratch_.data(), rom_->main_base() + off, sealed_len);
    plain_scratch_.resize(sealed_len - crypto::kSealOverhead);
    stats_.decrypt_ns += enclave_->crypto_task_ns(sealed_len);
    return crypto::open_into(gcm_, scratch_, plain_scratch_);
  };

  for (const BlobExtent& e : extents) {
    ++report.buffers_checked;
    const bool primary_ok = copy_ok(e.primary_off, e.sealed_len);
    if (e.replica_off == 0) {
      if (!primary_ok) {
        ++report.auth_failures;
        ++report.unrecoverable;
      }
      continue;
    }
    // Keep the primary's bytes before the replica check overwrites them.
    Bytes primary_bytes = primary_ok ? scratch_ : Bytes{};
    const bool replica_ok = copy_ok(e.replica_off, e.sealed_len);
    if (!primary_ok) ++report.auth_failures;
    if (!replica_ok) ++report.auth_failures;
    if (primary_ok && replica_ok) continue;
    if (!primary_ok && !replica_ok) {
      ++report.unrecoverable;
      continue;
    }
    if (repair) {
      if (primary_ok) {
        repairs.push_back({e.replica_off, std::move(primary_bytes)});
      } else {
        repairs.push_back({e.primary_off, scratch_});
      }
      ++report.repaired;
      ++stats_.replica_repairs;
    }
  }

  if (!repairs.empty()) {
    rom_->run_transaction([&] {
      for (const Repair& r : repairs) {
        rom_->tx_store(r.dest_off, r.sealed.data(), r.sealed.size());
      }
    });
  }
  return report;
}

bool SealedBlobs::authenticates(const BlobExtent& e) {
  scratch_.resize(e.sealed_len);
  std::memcpy(scratch_.data(), rom_->main_base() + e.primary_off, e.sealed_len);
  plain_scratch_.resize(e.sealed_len - crypto::kSealOverhead);
  return crypto::open_into(gcm_, scratch_, plain_scratch_);
}

}  // namespace plinius
