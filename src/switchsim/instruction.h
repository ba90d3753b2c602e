#ifndef P4DB_SWITCHSIM_INSTRUCTION_H_
#define P4DB_SWITCHSIM_INSTRUCTION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace p4db::sw {

/// Op codes executable by the in-switch transaction engine. Each instruction
/// is one single-cycle stateful register operation (a Tofino
/// `RegisterAction`): it may read, modify and write ONE register slot
/// atomically, and nothing else — the memory model the whole paper designs
/// around (Section 2.3).
enum class OpCode : uint8_t {
  /// result = reg[idx]
  kRead = 0,
  /// reg[idx] = operand; result = operand
  kWrite = 1,
  /// reg[idx] += operand; result = new value (fixed-point add)
  kAdd = 2,
  /// Constrained write (Section 5.1): if reg[idx] + operand >= 0 then
  /// reg[idx] += operand and the constraint flag is set; otherwise the
  /// register is left unchanged and the flag is cleared. result = the
  /// post-operation register value either way. Implements SmallBank-style
  /// "write balance only if it stays non-negative" checks.
  kCondAddGeZero = 3,
  /// reg[idx] = max(reg[idx], operand); result = new value. (Tofino register
  /// ALUs support min/max; used for high-watermark style columns.)
  kMax = 4,
  /// reg[idx] = operand; result = OLD value (atomic exchange). Used for
  /// read-and-clear patterns such as SmallBank Amalgamate.
  kSwap = 5,
};

const char* OpCodeName(OpCode op);

/// True if the op writes the register.
inline bool IsWriteOp(OpCode op) { return op != OpCode::kRead; }

/// What one op does to one cell: the value it returns, the value the cell
/// holds afterwards, and whether it wrote the cell. Every write op writes
/// except a kCondAddGeZero whose sum would go negative — the cleared
/// constraint flag.
struct OpOutcome {
  Value64 result;
  Value64 stored;
  bool wrote;
};

/// The op semantics, defined once. The switch pipeline applies it to a
/// register, WAL replay to its state map, 2PL to a host row and OCC to its
/// write buffer; each stores `stored` where it keeps the cell when `wrote`.
inline OpOutcome ApplyOp(OpCode op, Value64 cell, Value64 operand) {
  switch (op) {
    case OpCode::kRead:
      return {cell, cell, false};
    case OpCode::kWrite:
      return {operand, operand, true};
    case OpCode::kAdd:
      return {cell + operand, cell + operand, true};
    case OpCode::kCondAddGeZero:
      if (cell + operand >= 0) return {cell + operand, cell + operand, true};
      return {cell, cell, false};
    case OpCode::kMax:
      return {std::max(cell, operand), std::max(cell, operand), true};
    case OpCode::kSwap:
      return {cell, operand, true};
  }
  return {cell, cell, false};  // unreachable: every OpCode is handled
}

/// One carried source's contribution to an operand.
inline Value64 Carried(Value64 value, bool negate) {
  return negate ? -value : value;
}

/// The effective operand of an op: its immediate plus each carried source,
/// negated where asked. `in` is a switch Instruction or a host db::Op;
/// `carried(src)` yields the result of the op at index `src`.
template <typename InstrLike, typename CarriedFn>
Value64 ResolveOperand(const InstrLike& in, CarriedFn&& carried) {
  Value64 operand = in.operand;
  if (in.has_src()) operand += Carried(carried(in.operand_src), in.negate_src);
  if (in.has_src2()) {
    operand += Carried(carried(in.operand_src2), in.negate_src2);
  }
  return operand;
}

/// Physical register address on the switch: MAU stage, register array within
/// the stage, slot within the array. Nodes resolve (table, key) to this via
/// their replicated partition-manager index (Section 5.4), so packets carry
/// physical addresses.
struct RegisterAddress {
  uint8_t stage = 0;
  uint8_t reg = 0;
  uint32_t index = 0;

  friend bool operator==(const RegisterAddress&,
                         const RegisterAddress&) = default;
  friend auto operator<=>(const RegisterAddress&,
                          const RegisterAddress&) = default;
};

/// Sentinel for Instruction::operand_src: operand is an immediate.
constexpr uint8_t kNoOperandSrc = 0x7F;

/// One operation of a switch transaction (Figure 6: "variable amount of
/// instructions, each of which defines an operation of a transaction").
///
/// Read-dependent writes ("B = B + A", Figure 4) are expressed by carrying
/// an earlier instruction's result in packet metadata (PHV): when
/// operand_src != kNoOperandSrc, the effective operand is
///   operand + (negate_src ? -1 : +1) * result[operand_src].
/// Within one pipeline pass this requires stage(src) < stage(this) — the
/// access-order constraint the declustered layout optimizes for
/// (Section 4.2); across passes the value simply rides in the packet.
/// Two metadata sources are supported because plain (non-stateful) PHV
/// arithmetic between stages can combine two carried values before the
/// register ALU consumes them (SmallBank Amalgamate credits the sum of two
/// drained balances in one add).
struct Instruction {
  OpCode op = OpCode::kRead;
  RegisterAddress addr;
  Value64 operand = 0;
  uint8_t operand_src = kNoOperandSrc;   // index of an earlier instruction
  uint8_t operand_src2 = kNoOperandSrc;  // optional second carried value
  bool negate_src = false;
  bool negate_src2 = false;

  bool has_src() const { return operand_src != kNoOperandSrc; }
  bool has_src2() const { return operand_src2 != kNoOperandSrc; }

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// Pipeline-lock bits (Listing 1): two one-bit locks packed in one register.
/// In coarse mode only kLockLeft exists and covers the whole pipeline; in
/// fine-grained mode kLockLeft covers the first half of the MAU stages and
/// kLockRight the second half.
constexpr uint8_t kLockLeft = 0x1;
constexpr uint8_t kLockRight = 0x2;

std::string ToString(const Instruction& instr);

}  // namespace p4db::sw

#endif  // P4DB_SWITCHSIM_INSTRUCTION_H_
