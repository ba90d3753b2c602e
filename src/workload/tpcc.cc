#include "workload/tpcc.h"

#include <cassert>

namespace p4db::wl {

void Tpcc::Setup(db::Catalog* catalog) {
  num_nodes_ = catalog->num_nodes();
  using Kind = db::PartitionSpec::Kind;
  const auto range = [](uint64_t block) {
    db::PartitionSpec p;
    p.kind = Kind::kRange;
    p.block = block;
    return p;
  };
  db::PartitionSpec rr;
  rr.kind = Kind::kRoundRobin;
  db::PartitionSpec repl;
  repl.kind = Kind::kReplicated;

  // Default rows: see column constants in the header.
  warehouse_ = catalog->CreateTable("warehouse", 2, rr, {0, 8});
  // {ytd, next_o_id, tax}
  district_ = catalog->CreateTable("district", 3, range(10), {0, 1, 10});
  customer_ =
      catalog->CreateTable("customer", 3, range(1000000ULL), {0, 0, 0});
  stock_ = catalog->CreateTable("stock", 2, range(1000000ULL),
                                {1000000000, 0});
  item_ = catalog->CreateTable("item", 1, repl, {500});
  // {customer, total_amount}
  order_ = catalog->CreateTable("order", 2, range(100000000ULL));
  new_order_ = catalog->CreateTable("new_order", 1, range(100000000ULL));
  order_line_ = catalog->CreateTable("order_line", 1, range(1600000000ULL));
  history_ = catalog->CreateTable("history", 1, range(1000000ULL));

  // Materialize warehouses and districts (everything else is lazy).
  for (uint32_t w = 0; w < config_.num_warehouses; ++w) {
    catalog->table(warehouse_).GetOrCreate(WarehouseKey(w));
    for (uint32_t d = 0; d < config_.districts_per_warehouse; ++d) {
      catalog->table(district_).GetOrCreate(DistrictKey(w, d));
    }
  }
}

uint32_t Tpcc::LocalWarehouse(Rng& rng, NodeId home) const {
  if (config_.num_warehouses <= num_nodes_) {
    return home % config_.num_warehouses;
  }
  const uint32_t per_node = config_.num_warehouses / num_nodes_;
  return home + static_cast<uint32_t>(rng.NextRange(per_node)) * num_nodes_;
}

uint32_t Tpcc::PickItem(Rng& rng) const {
  if (rng.NextBool(config_.popular_item_fraction)) {
    return static_cast<uint32_t>(rng.NextRange(config_.popular_items));
  }
  return static_cast<uint32_t>(rng.NextRange(config_.num_items));
}

db::Transaction Tpcc::MakeNewOrder(Rng& rng, uint32_t w) {
  db::Transaction txn;
  txn.type_tag = kNewOrder;
  const uint32_t d =
      static_cast<uint32_t>(rng.NextRange(config_.districts_per_warehouse));
  const uint32_t c =
      static_cast<uint32_t>(rng.NextRange(config_.customers_per_district));
  const uint32_t ol_cnt = 5 + static_cast<uint32_t>(rng.NextRange(11));

  // Header reads + the contended next-order-id increment.
  txn.ops.push_back(
      {db::OpType::kGet, {warehouse_, WarehouseKey(w)}, kWarehouseTax, 0});
  txn.ops.push_back(
      {db::OpType::kGet, {district_, DistrictKey(w, d)}, kDistrictTax, 0});
  const int16_t oid_op = static_cast<int16_t>(txn.ops.size());
  txn.ops.push_back({db::OpType::kAdd,
                     {district_, DistrictKey(w, d)},
                     kDistrictNextOid,
                     1});

  // Order lines: item lookup + stock decrement per line. The generator
  // tracks the order total (host-side knowledge: price x quantity).
  Value64 total = 0;
  for (uint32_t l = 0; l < ol_cnt; ++l) {
    const uint32_t item = PickItem(rng);
    uint32_t supply_w = w;
    if (config_.num_warehouses > 1 && rng.NextBool(config_.remote_fraction)) {
      supply_w = static_cast<uint32_t>(
          rng.NextRange(config_.num_warehouses - 1));
      if (supply_w >= w) ++supply_w;
    }
    const Value64 qty = 1 + static_cast<Value64>(rng.NextRange(10));
    total += 500 * qty;  // default item price (see Setup)
    txn.ops.push_back({db::OpType::kGet, {item_, item}, kItemPrice, 0});
    txn.ops.push_back({db::OpType::kCondAddGeZero,
                       {stock_, StockKey(supply_w, item)},
                       kStockQuantity,
                       -qty});
  }

  // Inserts, keyed by the order id the switch (or host) returned.
  db::Op order_ins{db::OpType::kInsert,
                   {order_, OrderKeyBase(w, d)},
                   kOrderCustomer,
                   static_cast<Value64>(c)};
  order_ins.operand_src = oid_op;
  txn.ops.push_back(order_ins);

  db::Op total_ins{db::OpType::kInsert,
                   {order_, OrderKeyBase(w, d)},
                   kOrderTotal,
                   total};
  total_ins.operand_src = oid_op;
  txn.ops.push_back(total_ins);

  db::Op no_ins{db::OpType::kInsert,
                {new_order_, OrderKeyBase(w, d)},
                0,
                static_cast<Value64>(ol_cnt)};
  no_ins.operand_src = oid_op;
  txn.ops.push_back(no_ins);

  for (uint32_t l = 0; l < ol_cnt; ++l) {
    db::Op ol_ins{db::OpType::kInsert,
                  {order_line_, OrderKeyBase(w, d) * 16 + l * 10000000ULL},
                  0,
                  static_cast<Value64>(l)};
    ol_ins.operand_src = oid_op;
    txn.ops.push_back(ol_ins);
  }
  return txn;
}

db::Transaction Tpcc::MakePayment(Rng& rng, uint32_t w) {
  db::Transaction txn;
  txn.type_tag = kPayment;
  const uint32_t d =
      static_cast<uint32_t>(rng.NextRange(config_.districts_per_warehouse));
  const Value64 amount = 100 + static_cast<Value64>(rng.NextRange(500000));

  // Customer: local district, or a remote warehouse's customer.
  uint32_t cw = w, cd = d;
  if (config_.num_warehouses > 1 && rng.NextBool(config_.remote_fraction)) {
    cw = static_cast<uint32_t>(rng.NextRange(config_.num_warehouses - 1));
    if (cw >= w) ++cw;
    cd = static_cast<uint32_t>(
        rng.NextRange(config_.districts_per_warehouse));
  }
  const uint32_t c =
      static_cast<uint32_t>(rng.NextRange(config_.customers_per_district));
  const Key cust = CustomerKey(cw, cd, c);

  txn.ops.push_back(
      {db::OpType::kAdd, {warehouse_, WarehouseKey(w)}, kWarehouseYtd,
       amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {district_, DistrictKey(w, d)}, kDistrictYtd,
       amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {customer_, cust}, kCustomerBalance, -amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {customer_, cust}, kCustomerYtdPayment, amount});
  txn.ops.push_back(
      {db::OpType::kAdd, {customer_, cust}, kCustomerPaymentCnt, 1});

  db::Op hist{db::OpType::kInsert,
              {history_, static_cast<Key>(w) * 1000000ULL +
                             (history_seq_++ % 1000000ULL)},
              0,
              amount};
  txn.ops.push_back(hist);
  return txn;
}

db::Transaction Tpcc::Next(Rng& rng, NodeId home) {
  const uint32_t w = LocalWarehouse(rng, home);
  if (rng.NextBool(config_.new_order_fraction)) {
    return MakeNewOrder(rng, w);
  }
  return MakePayment(rng, w);
}

}  // namespace p4db::wl
