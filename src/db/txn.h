#ifndef P4DB_DB_TXN_H_
#define P4DB_DB_TXN_H_

#include <cstdint>
#include <string>

#include "common/small_vector.h"
#include "common/types.h"

namespace p4db::db {

/// Logical tuple operations, the common IR emitted by the workload
/// generators and consumed by BOTH execution substrates:
///  * the host executor runs them under 2PL or OCC on node memory, and
///  * the switch-transaction compiler lowers them to switch Instructions
///    when every touched item is hot (Section 6.1).
/// Both paths lower every op but kInsert through core::LowerOp and apply it
/// with sw::ApplyOp, so the two implement identical semantics by
/// construction; the equivalence tests exploit that.
enum class OpType : uint8_t {
  kGet,            // result = value
  kPut,            // value = operand; result = operand
  kAdd,            // value += operand; result = new value
  kCondAddGeZero,  // add if result stays >= 0; else constraint violation
  kMax,            // value = max(value, operand)
  kSwap,           // value = operand; result = old value
  /// Creates a row and sets one column (host-only; inserts are never hot).
  /// Special dependency semantics: operand_src (if set) offsets the KEY —
  /// e.g. a TPC-C order row keyed by the next-order-id returned from the
  /// switch; operand_src2 (if set) feeds the stored value as usual.
  kInsert,
};

inline bool IsWrite(OpType t) { return t != OpType::kGet; }

/// One logical operation of a transaction.
struct Op {
  OpType type = OpType::kGet;
  TupleId tuple;
  /// Column within the row. Hot offloading is per (tuple, column): the
  /// paper offloads "contended columns of the warehouse and district
  /// tables" (Section 7.5), not whole rows.
  uint16_t column = 0;
  Value64 operand = 0;
  /// If >= 0: effective operand = operand +/- result of ops[operand_src]
  /// (read-dependent write, e.g. SmallBank Amalgamate). A second source is
  /// supported for "sum of two earlier results" patterns.
  int16_t operand_src = -1;
  int16_t operand_src2 = -1;
  bool negate_src = false;
  bool negate_src2 = false;

  bool has_src() const { return operand_src >= 0; }
  bool has_src2() const { return operand_src2 >= 0; }
};

/// Classification of a transaction w.r.t. the hot-set (Section 3.2).
enum class TxnClass : uint8_t {
  kHot,   // all items hot -> runs entirely on the switch
  kCold,  // no hot items  -> runs entirely on database nodes
  kWarm,  // mixed         -> cold sub-txn + switch sub-txn (Section 6.2)
};

const char* TxnClassName(TxnClass c);

/// A transaction: an ordered list of operations plus bookkeeping used by
/// the benchmark harness.
struct Transaction {
  /// Workload-defined type tag (e.g. SmallBank's Payment) for statistics.
  uint8_t type_tag = 0;
  /// Inline storage covers the common case (YCSB groups of 8, SmallBank's
  /// <= 6 ops); TPC-C's ~50-op transactions spill to the heap.
  SmallVector<Op, 8> ops;

  /// Filled by the engine during classification.
  TxnClass cls = TxnClass::kCold;
  /// True if any op touches a tuple owned by a remote node.
  bool distributed = false;
};

}  // namespace p4db::db

#endif  // P4DB_DB_TXN_H_
