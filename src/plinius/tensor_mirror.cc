#include "plinius/tensor_mirror.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>

#include "common/error.h"
#include "crypto/envelope.h"

namespace plinius {

namespace {

/// Reinterprets a float tensor set as the byte blobs the mirror core works
/// on (mirror_in writes through the span; mirror_out/alloc only read).
std::vector<NamedBlob> as_blobs(std::span<const NamedTensor> tensors) {
  std::vector<NamedBlob> blobs;
  blobs.reserve(tensors.size());
  for (const auto& t : tensors) {
    blobs.push_back({t.name,
                     std::span<std::uint8_t>(
                         reinterpret_cast<std::uint8_t*>(t.values.data()),
                         t.values.size_bytes())});
  }
  return blobs;
}

}  // namespace

TensorMirror::TensorMirror(romulus::Romulus& rom, sgx::EnclaveRuntime& enclave,
                           crypto::AesGcm gcm, int root_slot)
    : rom_(&rom), enclave_(&enclave), root_slot_(root_slot), blobs_(rom, enclave, std::move(gcm)) {}

bool TensorMirror::exists() const {
  const std::uint64_t off = rom_->root(root_slot_);
  return off != 0 && rom_->read<std::uint64_t>(off) == kMagic;
}

TensorMirror::Header TensorMirror::header() const {
  expects(exists(), "TensorMirror: no tensor mirror in PM");
  return rom_->read<Header>(rom_->root(root_slot_));
}

std::vector<TensorMirror::Entry> TensorMirror::table(const Header& hdr) const {
  rom_->check_table("TensorMirror", hdr.table_off, hdr.count, hdr.count, sizeof(Entry));
  std::vector<Entry> entries(hdr.count);
  for (std::uint64_t i = 0; i < hdr.count; ++i) {
    Entry& e = entries[i];
    e = rom_->read<Entry>(hdr.table_off + i * sizeof(Entry));
    if (std::memchr(e.name, '\0', sizeof(e.name)) == nullptr) {
      throw PmError("TensorMirror: corrupt table: entry " + std::to_string(i) +
                    " has an unterminated name");
    }
    blobs_.check_extent({e.sealed_off, 0, e.sealed_len}, "TensorMirror");
    if (e.sealed_len - crypto::kSealOverhead != e.plain_len) {
      throw PmError("TensorMirror: corrupt table: entry " + std::to_string(i) +
                    " seals " + std::to_string(e.plain_len) + " bytes into " +
                    std::to_string(e.sealed_len));
    }
  }
  return entries;
}

std::vector<BlobExtent> TensorMirror::extents_for(std::span<const NamedBlob> blobs,
                                                  const Header& hdr,
                                                  const char* ctx) const {
  const auto entries = table(hdr);
  if (entries.size() != blobs.size()) {
    throw MlError(std::string(ctx) + ": tensor count mismatch");
  }
  std::vector<BlobExtent> extents;
  extents.reserve(blobs.size());
  for (const auto& b : blobs) {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const Entry& e) { return b.name == e.name; });
    if (it == entries.end()) {
      throw MlError(std::string(ctx) + ": unknown tensor " + b.name);
    }
    if (it->plain_len != b.bytes.size()) {
      throw MlError(std::string(ctx) + ": size mismatch for " + b.name);
    }
    extents.push_back({it->sealed_off, 0, it->sealed_len});
  }
  return extents;
}

std::uint64_t TensorMirror::version() const { return header().version; }
std::size_t TensorMirror::tensor_count() const { return header().count; }

std::vector<std::pair<std::string, std::size_t>> TensorMirror::blob_sizes() const {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const auto& e : table(header())) {
    out.emplace_back(e.name, static_cast<std::size_t>(e.plain_len));
  }
  return out;
}

std::size_t TensorMirror::sealed_bytes() const {
  std::size_t total = 0;
  for (const auto& e : table(header())) total += e.sealed_len;
  return total;
}

void TensorMirror::alloc_blobs(std::span<const NamedBlob> blobs) {
  if (exists()) throw PmError("TensorMirror::alloc: tensor mirror already exists");
  expects(!blobs.empty(), "TensorMirror::alloc: empty tensor set");

  std::unordered_set<std::string> names;
  for (const auto& b : blobs) {
    if (b.name.size() > kMaxNameLen) {
      throw MlError("TensorMirror: tensor name too long: " + b.name);
    }
    if (!names.insert(b.name).second) {
      throw MlError("TensorMirror: duplicate tensor name: " + b.name);
    }
  }

  enclave_->charge_ecall();
  rom_->run_transaction([&] {
    Header hdr{kMagic, 0, blobs.size(), 0};
    hdr.table_off = rom_->pmalloc(blobs.size() * sizeof(Entry));
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      Entry e{};
      std::snprintf(e.name, sizeof(e.name), "%s", blobs[i].name.c_str());
      e.plain_len = blobs[i].bytes.size();
      e.sealed_len = crypto::sealed_size(e.plain_len);
      e.sealed_off = rom_->pmalloc(e.sealed_len);
      rom_->tx_store(hdr.table_off + i * sizeof(Entry), &e, sizeof(e));
    }
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));
    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(root_slot_, hdr_off);
  });
}

void TensorMirror::mirror_out_blobs(std::span<const NamedBlob> blobs,
                                    std::uint64_t version) {
  const Header hdr = header();
  const auto extents = extents_for(blobs, hdr, "TensorMirror::mirror_out");
  enclave_->charge_ecall();
  SealedBlobs::SealPlan plan;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    blobs_.plan_seal(plan, extents[i], ByteSpan(blobs[i].bytes.data(), blobs[i].bytes.size()));
  }
  const ByteSpan sealed = blobs_.seal(plan);
  blobs_.commit(plan, sealed, rom_->root(root_slot_) + offsetof(Header, version), version);
}

std::uint64_t TensorMirror::mirror_in_blobs(std::span<const NamedBlob> blobs) {
  const Header hdr = header();
  const auto extents = extents_for(blobs, hdr, "TensorMirror::mirror_in");
  enclave_->charge_ecall();
  std::vector<SealedBlobs::OpenTask> tasks;
  tasks.reserve(blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    tasks.push_back({extents[i], MutableByteSpan(blobs[i].bytes.data(), blobs[i].bytes.size())});
  }
  const std::size_t failed = blobs_.open(tasks);
  if (failed < tasks.size()) {
    throw CryptoError("TensorMirror::mirror_in: authentication failed for tensor " +
                      blobs[failed].name);
  }
  return hdr.version;
}

void TensorMirror::alloc(std::span<const NamedTensor> tensors) {
  alloc_blobs(as_blobs(tensors));
}

void TensorMirror::mirror_out(std::span<const NamedTensor> tensors,
                              std::uint64_t version) {
  mirror_out_blobs(as_blobs(tensors), version);
}

std::uint64_t TensorMirror::mirror_in(std::span<NamedTensor> tensors) {
  return mirror_in_blobs(as_blobs(tensors));
}

}  // namespace plinius
