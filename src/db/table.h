#ifndef P4DB_DB_TABLE_H_
#define P4DB_DB_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "common/types.h"

namespace p4db::db {

/// Fixed-width numeric row. String columns are dictionary-encoded to
/// integers by the workloads (the same trick the switch needs, Table 1), so
/// one representation serves both substrates. `Row` is the owning form a
/// schema's default row is declared in; stored rows are handed out as
/// `RowRef`, a view of `num_columns` cells inside the table's storage.
using Row = std::vector<Value64>;
using RowRef = std::span<Value64>;

/// How a table's keys are spread over database nodes (shared-nothing
/// partitioning, Section 7.1).
struct PartitionSpec {
  enum class Kind : uint8_t {
    kRoundRobin,  // owner = key % num_nodes   (YCSB, Section 7.2)
    kRange,       // owner = (key / block) % num_nodes (SmallBank accounts)
    kByHighBits,  // owner = (key >> shift) % num_nodes (TPC-C by warehouse)
    kReplicated,  // read-only reference data; every node owns a copy
  };
  Kind kind = Kind::kRoundRobin;
  uint64_t block = 1;   // kRange block size
  uint32_t shift = 0;   // kByHighBits shift

  NodeId OwnerOf(Key key, uint16_t num_nodes) const {
    switch (kind) {
      case Kind::kRoundRobin:
        return static_cast<NodeId>(key % num_nodes);
      case Kind::kRange:
        return static_cast<NodeId>((key / block) % num_nodes);
      case Kind::kByHighBits:
        return static_cast<NodeId>((key >> shift) % num_nodes);
      case Kind::kReplicated:
        return 0;  // any node can serve it locally; 0 is the canonical copy
    }
    return 0;
  }
};

/// In-memory storage of one relation. Rows materialize lazily with schema
/// defaults: benchmark tables are logically huge (YCSB: 10^9 keys) but only
/// touched keys occupy memory.
///
/// Layout: a FlatMap indexes key -> row number; rows are fixed-width runs
/// of `num_columns` cells in chunks of kChunkRows rows, allocated once per
/// chunk and never moved. A RowRef therefore stays valid for the table's
/// lifetime, across index rehashes and later inserts. Rows are never
/// erased and nothing iterates them, so the layout is invisible to results.
class Table {
 public:
  Table(TableId id, std::string name, uint16_t num_columns,
        PartitionSpec partition, Row default_row = {});

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint16_t num_columns() const { return num_columns_; }
  const PartitionSpec& partition() const { return partition_; }

  /// Row accessor; creates the row with defaults on first touch.
  RowRef GetOrCreate(Key key);

  /// Switches GetOrCreate to mutex-guarded mode for the parallel sharded
  /// runtime: rows materialize lazily, and coordinators apply ops in place
  /// to rows other nodes own, so shards on different threads can race the
  /// index and the chunk list mid-run. Only that structure is guarded —
  /// RowRefs stay valid across rehashes (chunks never move) and row
  /// CONTENT synchronization remains the lock managers' job (conflicting
  /// accesses are serialized by 2PL, and the lock handoff always crosses a
  /// window barrier between shards). Legacy single-thread runs never take
  /// the mutex.
  void EnableConcurrentAccess() { concurrent_ = true; }

  size_t materialized_rows() const { return index_.size(); }

 private:
  static constexpr uint32_t kChunkShift = 10;
  static constexpr uint32_t kChunkRows = uint32_t{1} << kChunkShift;

  RowRef GetOrCreateUnguarded(Key key);

  TableId id_;
  std::string name_;
  uint16_t num_columns_;
  PartitionSpec partition_;
  Row default_row_;
  FlatMap<Key, uint32_t> index_;  // key -> row number
  std::vector<std::unique_ptr<Value64[]>> chunks_;
  bool concurrent_ = false;
  std::mutex mu_;
};

/// Secondary index mapping an alternate key to a primary key. Kept on the
/// database nodes even for hot tuples (Section 6.1: "secondary indexes are
/// supported by keeping them on the database nodes").
class SecondaryIndex {
 public:
  void Put(Key secondary, Key primary) { map_[secondary] = primary; }
  StatusOr<Key> Lookup(Key secondary) const {
    auto it = map_.find(secondary);
    if (it == map_.end()) return Status::NotFound("secondary key");
    return it->second;
  }
  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<Key, Key> map_;
};

/// The cluster's schema and storage. In the simulator all node partitions
/// live in one address space; ownership (which node pays local vs. remote
/// access cost and whose lock table guards a tuple) is defined by each
/// table's PartitionSpec.
class Catalog {
 public:
  explicit Catalog(uint16_t num_nodes) : num_nodes_(num_nodes) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  TableId CreateTable(std::string name, uint16_t num_columns,
                      PartitionSpec partition, Row default_row = {});
  Table& table(TableId id) { return *tables_[id]; }
  const Table& table(TableId id) const { return *tables_[id]; }
  size_t num_tables() const { return tables_.size(); }

  SecondaryIndex& CreateSecondaryIndex(std::string name);

  /// Arms mutex-guarded access on every table (see
  /// Table::EnableConcurrentAccess). Called by the engine when the parallel
  /// sharded runtime starts.
  void EnableConcurrentAccess() {
    for (auto& t : tables_) t->EnableConcurrentAccess();
  }

  NodeId OwnerOf(const TupleId& t) const {
    return tables_[t.table]->partition().OwnerOf(t.key, num_nodes_);
  }
  /// Replicated (read-only reference) tables are served locally on every
  /// node: no locks, no remote access, never distributed.
  bool IsReplicated(TableId id) const {
    return tables_[id]->partition().kind ==
           PartitionSpec::Kind::kReplicated;
  }
  uint16_t num_nodes() const { return num_nodes_; }

 private:
  uint16_t num_nodes_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
};

}  // namespace p4db::db

#endif  // P4DB_DB_TABLE_H_
