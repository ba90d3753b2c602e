#ifndef P4DB_WORKLOAD_TPCC_H_
#define P4DB_WORKLOAD_TPCC_H_

#include <cstdint>
#include <string>

#include "workload/workload.h"

namespace p4db::wl {

/// TPC-C, restricted to the NewOrder + Payment mix the paper evaluates
/// (Section 7.2: "these account for 90% of the transactional workload").
///
/// Contention points modeled faithfully:
///  * district.next_o_id — incremented by every NewOrder in the district;
///  * warehouse.ytd / district.ytd — updated by every Payment;
///  * stock.quantity of popular items — most-ordered items' stock.
/// These are exactly the columns the paper offloads ("we offloaded all
/// contended columns of the warehouse and district tables with
/// write-accesses as well as stock columns of most ordered items"), which
/// makes every TPC-C transaction WARM: hot columns on the switch, the rest
/// (customer rows, order/orderline inserts) on the nodes.
struct TpccConfig {
  uint32_t num_warehouses = 8;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 3000;
  uint32_t num_items = 100000;
  /// Most-ordered items whose stock is contended (and offloaded).
  uint32_t popular_items = 100;
  /// Probability an ordered item comes from the popular set.
  double popular_item_fraction = 0.5;
  /// Probability that a NewOrder line's supplying warehouse / a Payment's
  /// customer is remote (the paper's "varying distributed transactions").
  double remote_fraction = 0.1;
  /// NewOrder share of the mix (rest is Payment).
  double new_order_fraction = 0.5;
};

class Tpcc : public Workload {
 public:
  enum TxnType : uint8_t {
    kNewOrder = 0,
    kPayment = 1,
  };

  // Column indexes.
  static constexpr uint16_t kWarehouseYtd = 0;   // hot
  static constexpr uint16_t kWarehouseTax = 1;
  static constexpr uint16_t kDistrictYtd = 0;    // hot
  static constexpr uint16_t kDistrictNextOid = 1;  // hot
  static constexpr uint16_t kDistrictTax = 2;
  static constexpr uint16_t kCustomerBalance = 0;
  static constexpr uint16_t kCustomerYtdPayment = 1;
  static constexpr uint16_t kCustomerPaymentCnt = 2;
  static constexpr uint16_t kStockQuantity = 0;  // hot for popular items
  static constexpr uint16_t kStockYtd = 1;
  static constexpr uint16_t kItemPrice = 0;
  static constexpr uint16_t kOrderCustomer = 0;
  static constexpr uint16_t kOrderTotal = 1;

  explicit Tpcc(const TpccConfig& config) : config_(config) {}

  std::string name() const override { return "TPC-C"; }
  void Setup(db::Catalog* catalog) override;
  db::Transaction Next(Rng& rng, NodeId home) override;
  bool OffloadWrittenOnly() const override { return true; }

  db::Transaction MakeNewOrder(Rng& rng, uint32_t w);
  db::Transaction MakePayment(Rng& rng, uint32_t w);

  // Key packing.
  Key WarehouseKey(uint32_t w) const { return w; }
  Key DistrictKey(uint32_t w, uint32_t d) const { return w * 10ULL + d; }
  Key CustomerKey(uint32_t w, uint32_t d, uint32_t c) const {
    return DistrictKey(w, d) * 100000ULL + c;
  }
  Key StockKey(uint32_t w, uint32_t i) const {
    return w * 1000000ULL + i;
  }
  Key OrderKeyBase(uint32_t w, uint32_t d) const {
    return DistrictKey(w, d) * 10000000ULL;
  }

  TableId warehouse_table() const { return warehouse_; }
  TableId district_table() const { return district_; }
  TableId customer_table() const { return customer_; }
  TableId stock_table() const { return stock_; }
  TableId item_table() const { return item_; }
  TableId order_table() const { return order_; }
  TableId new_order_table() const { return new_order_; }
  TableId order_line_table() const { return order_line_; }
  TableId history_table() const { return history_; }
  const TpccConfig& config() const { return config_; }

  /// Warehouses are partitioned round-robin across nodes.
  uint32_t LocalWarehouse(Rng& rng, NodeId home) const;

 private:
  uint32_t PickItem(Rng& rng) const;

  TpccConfig config_;
  uint16_t num_nodes_ = 1;
  TableId warehouse_ = 0, district_ = 0, customer_ = 0, stock_ = 0,
          item_ = 0, order_ = 0, new_order_ = 0, order_line_ = 0,
          history_ = 0;
  uint64_t history_seq_ = 0;
};

}  // namespace p4db::wl

#endif  // P4DB_WORKLOAD_TPCC_H_
