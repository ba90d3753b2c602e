#include "db/table.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace p4db::db {

Table::Table(TableId id, std::string name, uint16_t num_columns,
             PartitionSpec partition, Row default_row)
    : id_(id),
      name_(std::move(name)),
      num_columns_(num_columns),
      partition_(partition),
      default_row_(std::move(default_row)) {
  if (default_row_.empty()) default_row_.assign(num_columns_, 0);
  assert(default_row_.size() == num_columns_);
}

RowRef Table::GetOrCreate(Key key) {
  if (concurrent_) {
    std::lock_guard<std::mutex> lock(mu_);
    return GetOrCreateUnguarded(key);
  }
  return GetOrCreateUnguarded(key);
}

RowRef Table::GetOrCreateUnguarded(Key key) {
  const auto [row, inserted] =
      index_.try_emplace(key, static_cast<uint32_t>(index_.size()));
  assert(index_.size() <= UINT32_MAX && "row numbers are 32-bit");
  const uint32_t offset = *row & (kChunkRows - 1);
  if (inserted && offset == 0) {
    chunks_.push_back(std::make_unique_for_overwrite<Value64[]>(
        size_t{kChunkRows} * num_columns_));
  }
  Value64* cells =
      chunks_[*row >> kChunkShift].get() + size_t{offset} * num_columns_;
  if (inserted) std::copy_n(default_row_.data(), num_columns_, cells);
  return RowRef(cells, num_columns_);
}

TableId Catalog::CreateTable(std::string name, uint16_t num_columns,
                             PartitionSpec partition, Row default_row) {
  const TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(
      id, std::move(name), num_columns, partition, std::move(default_row)));
  return id;
}

SecondaryIndex& Catalog::CreateSecondaryIndex(std::string /*name*/) {
  indexes_.push_back(std::make_unique<SecondaryIndex>());
  return *indexes_.back();
}

}  // namespace p4db::db
