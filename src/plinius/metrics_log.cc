#include "plinius/metrics_log.h"

#include <string>

#include "common/error.h"

namespace plinius {

template <class Record>
bool PmRecordLog<Record>::exists() const {
  const std::uint64_t off = rom_->root(slot_);
  return off != 0 && rom_->read<std::uint64_t>(off) == magic_;
}

template <class Record>
typename PmRecordLog<Record>::Header PmRecordLog<Record>::header() const {
  if (!exists()) throw Error(std::string("precondition violated: ") + name_ + ": no log in PM");
  const auto hdr = rom_->read<Header>(rom_->root(slot_));
  rom_->check_table(name_, hdr.entries_off, hdr.capacity, hdr.count, sizeof(Record));
  return hdr;
}

template <class Record>
void PmRecordLog<Record>::create(std::size_t capacity) {
  if (exists()) throw PmError(std::string(name_) + "::create: log already exists");
  if (capacity == 0) {
    throw Error(std::string("precondition violated: ") + name_ +
                ": capacity must be positive");
  }
  rom_->run_transaction([&] {
    Header hdr{magic_, capacity, 0, 0};
    hdr.entries_off = rom_->pmalloc(capacity * sizeof(Record));
    const std::size_t hdr_off = rom_->pmalloc(sizeof(Header));
    rom_->tx_store(hdr_off, &hdr, sizeof(hdr));
    rom_->set_root(slot_, hdr_off);
  });
}

template <class Record>
void PmRecordLog<Record>::append_record(const Record& record, bool compact) {
  Header hdr = header();
  if (!compact && hdr.count >= hdr.capacity) {
    throw PmError(std::string(name_) + ": log is full");
  }
  rom_->run_transaction([&] {
    if (hdr.count >= hdr.capacity) {
      // Compact: keep the newest half.
      const std::uint64_t keep = hdr.capacity / 2;
      const std::uint64_t drop = hdr.count - keep;
      for (std::uint64_t i = 0; i < keep; ++i) {
        const auto e = rom_->read<Record>(hdr.entries_off + (drop + i) * sizeof(Record));
        rom_->tx_store(hdr.entries_off + i * sizeof(Record), &e, sizeof(e));
      }
      hdr.count = keep;
    }
    rom_->tx_store(hdr.entries_off + hdr.count * sizeof(Record), &record, sizeof(record));
    rom_->tx_assign(rom_->root(slot_) + offsetof(Header, count), hdr.count + 1);
  });
}

template <class Record>
Record PmRecordLog<Record>::at(std::size_t index) const {
  const Header hdr = header();
  if (index >= hdr.count) throw PmError(std::string(name_) + "::at: index out of range");
  rom_->device().charge_read(sizeof(Record));
  return rom_->read<Record>(hdr.entries_off + index * sizeof(Record));
}

template <class Record>
std::vector<Record> PmRecordLog<Record>::all() const {
  const Header hdr = header();
  rom_->device().charge_read(hdr.count * sizeof(Record));
  std::vector<Record> out(hdr.count);
  for (std::uint64_t i = 0; i < hdr.count; ++i) {
    out[i] = rom_->read<Record>(hdr.entries_off + i * sizeof(Record));
  }
  return out;
}

template class PmRecordLog<MetricsEntry>;
template class PmRecordLog<RecoveryRecord>;
template class PmRecordLog<ServeWindowRecord>;

void MetricsLog::truncate_after(std::uint64_t iteration) {
  const Header hdr = header();
  std::uint64_t keep = hdr.count;
  while (keep > 0) {
    const auto e =
        rom_->read<MetricsEntry>(hdr.entries_off + (keep - 1) * sizeof(MetricsEntry));
    if (e.iteration <= iteration) break;
    --keep;
  }
  if (keep == hdr.count) return;
  rom_->run_transaction([&] {
    rom_->tx_assign(rom_->root(kRootSlot) + offsetof(Header, count), keep);
  });
}

std::uint64_t ServeLog::next_window() const {
  const Header hdr = header();
  if (hdr.count == 0) return 0;
  const auto last = rom_->read<ServeWindowRecord>(
      hdr.entries_off + (hdr.count - 1) * sizeof(ServeWindowRecord));
  return last.window + 1;
}

}  // namespace plinius
