#include "plinius/mirror.h"

#include <cstring>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "crypto/envelope.h"
#include "obs/trace.h"

namespace plinius {

MirrorModel::MirrorModel(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                         crypto::AesGcm gcm, MirrorOptions options)
    : rom_(&rom), enclave_(&enclave), options_(options), blobs_(rom, enclave, std::move(gcm)) {}

MirrorModel::~MirrorModel() = default;

bool MirrorModel::exists() const {
  const std::uint64_t off = rom_->root(kRootSlot);
  if (off == 0) return false;
  // The root slot is untrusted PM data: validate the full Header extent
  // before any read (header() reads all of it), so a corrupt slot surfaces
  // as a PmError instead of an out-of-bounds main-region access.
  if (off > rom_->main_size() || sizeof(Header) > rom_->main_size() - off) {
    throw PmError("MirrorModel::exists: corrupt root slot: header offset " +
                  std::to_string(off) + " + " + std::to_string(sizeof(Header)) +
                  " bytes exceeds main size " + std::to_string(rom_->main_size()));
  }
  return rom_->read<std::uint64_t>(off) == kMagic;
}

MirrorModel::Header MirrorModel::header() const {
  expects(exists(), "MirrorModel: no mirror in PM");
  return rom_->read<Header>(rom_->root(kRootSlot));
}

std::uint64_t MirrorModel::iteration() const { return header().iteration; }

MirrorModel::LayerList MirrorModel::walk(const Header& hdr, ml::Network* net,
                                         const char* ctx) const {
  const std::string where(ctx);
  if (net != nullptr && hdr.num_layers != net->num_layers()) {
    throw MlError(where + ": layer count mismatch");
  }
  // Nodes are distinct allocations, so a count that cannot fit in main is
  // corrupt before any node is read.
  if (hdr.num_layers > rom_->main_size() / sizeof(LayerNode)) {
    throw PmError(where + ": corrupt layer count " + std::to_string(hdr.num_layers));
  }
  LayerList list;
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t node_off = hdr.head;
  for (std::uint64_t i = 0; i < hdr.num_layers; ++i) {
    if (node_off == 0) throw PmError(where + ": truncated layer list");
    if (!seen.insert(node_off).second) {
      throw PmError(where + ": layer list revisits the node at offset " +
                    std::to_string(node_off));
    }
    if (node_off > rom_->main_size() ||
        sizeof(LayerNode) > rom_->main_size() - node_off) {
      throw PmError(where + ": layer node offset " + std::to_string(node_off) + " + " +
                    std::to_string(sizeof(LayerNode)) + " bytes exceeds main size " +
                    std::to_string(rom_->main_size()));
    }
    const auto node = rom_->read<LayerNode>(node_off);
    if (node.num_buffers > kMaxBuffersPerLayer) {
      throw PmError(where + ": corrupt buffer count " + std::to_string(node.num_buffers) +
                    " in layer node at offset " + std::to_string(node_off));
    }
    std::vector<ml::ParamBuffer> params;
    if (net != nullptr) {
      params = net->layer(i).parameters();
      if (node.num_buffers != params.size()) {
        throw MlError(where + ": buffer count mismatch");
      }
    }
    for (std::size_t b = 0; b < node.num_buffers; ++b) {
      const SealedExtent e{{node.buf_off[b], node.buf_replica_off[b], node.buf_sealed_len[b]},
                           static_cast<std::size_t>(i),
                           b};
      if (net != nullptr &&
          e.sealed_len != crypto::sealed_size(params[b].values.size_bytes())) {
        throw MlError(where + ": buffer size mismatch");
      }
      blobs_.check_extent(e, ctx);
      list.extents.push_back(e);
    }
    list.params.insert(list.params.end(), std::make_move_iterator(params.begin()),
                       std::make_move_iterator(params.end()));
    list.nodes.push_back(node_off);
    node_off = node.next;
  }
  if (node_off != 0) throw PmError(where + ": layer list longer than the model");
  return list;
}

void MirrorModel::alloc(ml::Network& net) {
  if (exists()) throw PmError("MirrorModel::alloc: mirror already exists");
  enclave_->charge_ecall();

  rom_->run_transaction([&] {
    Header hdr{kMagic, 0, net.num_layers(), 0, options_.replicate ? 1ULL : 0ULL};
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));

    std::uint64_t prev_node = 0;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      const auto buffers = net.layer(i).parameters();
      if (buffers.size() > kMaxBuffersPerLayer) {
        throw MlError("MirrorModel: layer has too many parameter buffers");
      }
      LayerNode node{};
      node.num_buffers = buffers.size();
      for (std::size_t b = 0; b < buffers.size(); ++b) {
        const std::size_t sealed = crypto::sealed_size(buffers[b].values.size_bytes());
        node.buf_off[b] = rom_->pmalloc(sealed);
        node.buf_sealed_len[b] = sealed;
        if (options_.replicate) node.buf_replica_off[b] = rom_->pmalloc(sealed);
      }
      const std::size_t node_off = rom_->pmalloc(sizeof(LayerNode));
      rom_->tx_store(node_off, &node, sizeof(node));
      if (prev_node == 0) {
        hdr.head = node_off;
      } else {
        // Patch the previous node's next pointer.
        rom_->tx_assign(prev_node + offsetof(LayerNode, next),
                        static_cast<std::uint64_t>(node_off));
      }
      prev_node = node_off;
    }

    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(kRootSlot, hdr_off);
  });
}

SealedBlobs::SealPlan MirrorModel::build_seal_plan(ml::Network& net, const char* ctx) {
  // IVs are drawn here, serially in list order, so the counter stays
  // strictly monotonic no matter how the sealing tasks are scheduled.
  const LayerList list = walk(header(), &net, ctx);
  SealedBlobs::SealPlan plan;
  for (std::size_t k = 0; k < list.extents.size(); ++k) {
    blobs_.plan_seal(plan, list.extents[k], float_bytes(list.params[k].values));
  }
  return plan;
}

void MirrorModel::mirror_out(ml::Network& net, std::uint64_t iteration) {
  expects(async_ == nullptr,
          "MirrorModel::mirror_out: async save in flight — drain it first");
  ++blobs_.stats().save_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save");
  span.attr("iteration", static_cast<double>(iteration));
  enclave_->charge_ecall();

  const SealedBlobs::SealPlan plan = build_seal_plan(net, "MirrorModel::mirror_out");
  const ByteSpan sealed = blobs_.seal(plan);
  blobs_.commit(plan, sealed, rom_->root(kRootSlot) + offsetof(Header, iteration),
                iteration);
  ++blobs_.stats().saves;
}

// Pending double-buffered save: the weight snapshot (so compute can mutate
// the live buffers immediately) and the sealed bytes awaiting their durable
// commit. Owning both here keeps the engine's scratch free for any
// synchronous restore the recovery path may need while a seal is in flight.
struct MirrorModel::AsyncSeal {
  SealedBlobs::SealPlan plan;
  std::uint64_t iteration = 0;
  Bytes snapshot;
  Bytes sealed;
};

void MirrorModel::begin_async_save(ml::Network& net, std::uint64_t iteration,
                                   sgx::ChargeStream& stream) {
  expects(async_ == nullptr,
          "MirrorModel::begin_async_save: previous async save still pending");
  ++blobs_.stats().save_attempts;
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save.stage");
  span.attr("iteration", static_cast<double>(iteration));
  enclave_->charge_ecall();

  auto async = std::make_unique<AsyncSeal>();
  async->plan = build_seal_plan(net, "MirrorModel::begin_async_save");
  async->iteration = iteration;
  blobs_.seal_async(async->plan, stream, iteration, async->snapshot, async->sealed);
  async_ = std::move(async);
}

bool MirrorModel::complete_async_save(sgx::ChargeStream& stream) {
  if (async_ == nullptr) return false;
  // Consume the pending state up front: if the commit below throws, the
  // snapshot is spent either way and the caller re-seals from live weights.
  const std::unique_ptr<AsyncSeal> pending = std::move(async_);
  const sim::Nanos stall_t0 = enclave_->clock().now();
  const sim::Nanos stall = stream.join();
  blobs_.stats().pipeline_stall_ns += stall;
  if (stall > 0) {
    obs::trace_complete(enclave_->clock(), obs::Category::kPipelineStall,
                        "pipeline.stall", stall_t0, enclave_->clock().now());
  }
  obs::Span span(enclave_->clock(), obs::Category::kMirrorSave, "mirror.save.commit");
  span.attr("iteration", static_cast<double>(pending->iteration));
  blobs_.commit(pending->plan, pending->sealed,
                rom_->root(kRootSlot) + offsetof(Header, iteration), pending->iteration);
  ++blobs_.stats().saves;
  ++blobs_.stats().async_saves;
  return true;
}

void MirrorModel::abandon_async_save() noexcept { async_.reset(); }

bool MirrorModel::async_save_pending() const noexcept { return async_ != nullptr; }

std::uint64_t MirrorModel::pending_iteration() const {
  expects(async_ != nullptr, "MirrorModel::pending_iteration: no pending save");
  return async_->iteration;
}

std::uint64_t MirrorModel::mirror_in(ml::Network& net) {
  return restore_model(net, /*snapshot=*/false);
}

std::uint64_t MirrorModel::mirror_in_snapshot(ml::Network& net) {
  return restore_model(net, /*snapshot=*/true);
}

std::uint64_t MirrorModel::restore_model(ml::Network& net, bool snapshot) {
  const char* ctx = snapshot ? "MirrorModel::mirror_in_snapshot" : "MirrorModel::mirror_in";
  expects(async_ == nullptr,
          "MirrorModel: restore with an async save in flight — drain it first");
  ++blobs_.stats().restore_attempts;
  const Header hdr = header();
  const LayerList list = walk(hdr, &net, ctx);
  obs::Span span(enclave_->clock(), obs::Category::kMirrorRestore,
                 snapshot ? "mirror.restore.snapshot" : "mirror.restore");
  enclave_->charge_ecall();

  // Snapshot mode decrypts into this staging buffer; the layer arrays are
  // only written after every buffer has authenticated.
  std::size_t plain_floats = 0;
  for (const ml::ParamBuffer& p : list.params) plain_floats += p.values.size();
  std::vector<float> plain_stage(snapshot ? plain_floats : 0);
  std::vector<SealedBlobs::OpenTask> tasks;
  tasks.reserve(list.extents.size());
  std::size_t staged = 0;
  for (std::size_t k = 0; k < list.extents.size(); ++k) {
    const std::span<float> dest = list.params[k].values;
    tasks.push_back({list.extents[k],
                     float_bytes_mut(snapshot ? std::span<float>(plain_stage.data() + staged,
                                                                 dest.size())
                                              : dest)});
    staged += dest.size();
  }

  const std::size_t failed = blobs_.open(tasks);
  if (failed < tasks.size()) {
    const SealedExtent& e = list.extents[failed];
    throw CryptoError(std::string(ctx) + ": authentication failed for layer " +
                      std::to_string(e.layer) + " buffer " + list.params[failed].name +
                      (e.replica_off != 0 ? " (both A/B copies corrupt)"
                                          : " (PM mirror corrupted or tampered)"));
  }

  // Snapshot install: everything authenticated, so the staged weights can be
  // copied into the layer arrays (plain enclave-DRAM copies, charged above in
  // the per-task costs; an extra pass, but torn-weight-free on any failure).
  if (snapshot) {
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      std::memcpy(list.params[k].values.data(), tasks[k].dest.data(), tasks[k].dest.size());
    }
    enclave_->charge_plain_copy(plain_floats * sizeof(float));
  }

  net.set_iterations(hdr.iteration);
  ++blobs_.stats().restores;
  return hdr.iteration;
}

std::uint64_t MirrorModel::verify_integrity(ml::Network& net) {
  const Header hdr = header();
  const LayerList list = walk(hdr, &net, "MirrorModel::verify_integrity");
  for (std::size_t k = 0; k < list.extents.size(); ++k) {
    if (!blobs_.authenticates(list.extents[k])) {
      throw CryptoError("MirrorModel::verify_integrity: authentication failed for layer " +
                        std::to_string(list.extents[k].layer) + " buffer " +
                        list.params[k].name);
    }
  }
  return hdr.iteration;
}

bool MirrorModel::replicated() const {
  return exists() && header().replicated != 0;
}

MirrorScrubReport MirrorModel::scrub(ml::Network& net, bool repair) {
  expects(async_ == nullptr,
          "MirrorModel::scrub: async save in flight — drain it first");
  const LayerList list = walk(header(), &net, "MirrorModel::scrub");
  obs::Span span(enclave_->clock(), obs::Category::kScrub, "mirror.scrub");
  const std::vector<BlobExtent> extents(list.extents.begin(), list.extents.end());
  return blobs_.scrub(extents, repair);
}

void MirrorModel::dispose() {
  expects(async_ == nullptr,
          "MirrorModel::dispose: async save in flight — drain it first");
  // Walk first (reads can throw on corrupt offsets), free second: each
  // node's sealed buffers and siblings, then the node, then the header.
  const LayerList list = walk(header(), nullptr, "MirrorModel::dispose");
  std::vector<std::uint64_t> blocks;
  std::size_t k = 0;
  for (std::size_t i = 0; i < list.nodes.size(); ++i) {
    for (; k < list.extents.size() && list.extents[k].layer == i; ++k) {
      blocks.push_back(list.extents[k].primary_off);
      if (list.extents[k].replica_off != 0) blocks.push_back(list.extents[k].replica_off);
    }
    blocks.push_back(list.nodes[i]);
  }
  blocks.push_back(rom_->root(kRootSlot));

  rom_->run_transaction([&] {
    for (const std::uint64_t off : blocks) rom_->pmfree(off);
    rom_->set_root(kRootSlot, 0);
  });
}

std::vector<MirrorModel::SealedExtent> MirrorModel::sealed_extents() const {
  return walk(header(), nullptr, "MirrorModel::sealed_extents").extents;
}

std::size_t MirrorModel::encryption_metadata_bytes() const {
  return walk(header(), nullptr, "MirrorModel::encryption_metadata_bytes").extents.size() *
         crypto::kSealOverhead;
}

}  // namespace plinius
