#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "switchsim/packet.h"

namespace p4db::sw {
namespace {

SwitchTxn SampleTxn() {
  SwitchTxn txn;
  txn.is_multipass = true;
  txn.lock_mask = kLockLeft | kLockRight;
  txn.nb_recircs = 3;
  txn.origin_node = 5;
  txn.epoch = 9;
  txn.client_seq = 123456;
  txn.instrs.push_back(
      Instruction{OpCode::kRead, RegisterAddress{0, 1, 77}, 0});
  Instruction dep{OpCode::kAdd, RegisterAddress{4, 0, 12}, 50};
  dep.operand_src = 0;
  dep.negate_src = true;
  txn.instrs.push_back(dep);
  return txn;
}

TEST(PacketCodecTest, RoundTripPreservesEverything) {
  const SwitchTxn txn = SampleTxn();
  const auto bytes = PacketCodec::Encode(txn);
  const auto decoded = PacketCodec::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->is_multipass, txn.is_multipass);
  EXPECT_EQ(decoded->lock_mask, txn.lock_mask);
  EXPECT_EQ(decoded->nb_recircs, txn.nb_recircs);
  EXPECT_EQ(decoded->origin_node, txn.origin_node);
  EXPECT_EQ(decoded->epoch, txn.epoch);
  EXPECT_EQ(decoded->client_seq, txn.client_seq);
  EXPECT_EQ(decoded->instrs, txn.instrs);
}

TEST(PacketCodecTest, EpochRoundTripsAtFullByteRange) {
  // The control-plane epoch travels mod 256 in a former pad byte; the fence
  // compares it verbatim, so both extremes must survive the wire.
  for (int e : {0, 1, 255}) {
    SwitchTxn txn = SampleTxn();
    txn.epoch = static_cast<uint8_t>(e);
    const auto decoded = PacketCodec::Decode(PacketCodec::Encode(txn));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->epoch, static_cast<uint8_t>(e));
  }
}

TEST(PacketCodecTest, EncodedSizeMatchesFormula) {
  const SwitchTxn txn = SampleTxn();
  EXPECT_EQ(PacketCodec::Encode(txn).size(),
            PacketCodec::kHeaderBytes +
                txn.instrs.size() * PacketCodec::kInstrBytes);
}

TEST(PacketCodecTest, EmptyInstructionListRoundTrips) {
  SwitchTxn txn;
  txn.origin_node = 1;
  const auto decoded = PacketCodec::Decode(PacketCodec::Encode(txn));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->instrs.empty());
}

TEST(PacketCodecTest, TruncatedHeaderRejected) {
  auto bytes = PacketCodec::Encode(SampleTxn());
  bytes.resize(PacketCodec::kHeaderBytes - 1);
  EXPECT_FALSE(PacketCodec::Decode(bytes).ok());
}

TEST(PacketCodecTest, TruncatedInstructionRejected) {
  auto bytes = PacketCodec::Encode(SampleTxn());
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(PacketCodec::Decode(bytes).ok());
}

TEST(PacketCodecTest, TrailingBytesRejected) {
  auto bytes = PacketCodec::Encode(SampleTxn());
  bytes.push_back(0);
  EXPECT_FALSE(PacketCodec::Decode(bytes).ok());
}

TEST(PacketCodecTest, UnknownOpcodeRejected) {
  auto bytes = PacketCodec::Encode(SampleTxn());
  bytes[PacketCodec::kHeaderBytes] = 200;  // first instruction's opcode
  EXPECT_FALSE(PacketCodec::Decode(bytes).ok());
}

TEST(PacketCodecTest, ForwardOperandSrcRejected) {
  SwitchTxn txn;
  Instruction in{OpCode::kAdd, RegisterAddress{0, 0, 0}, 1};
  in.operand_src = 0;  // references itself: invalid
  txn.instrs.push_back(in);
  const auto bytes = PacketCodec::Encode(txn);
  EXPECT_FALSE(PacketCodec::Decode(bytes).ok());
}

TEST(PacketCodecTest, WireSizeIncludesFraming) {
  const SwitchTxn txn = SampleTxn();
  EXPECT_EQ(PacketCodec::WireSize(txn),
            PacketCodec::EncodedSize(txn) + PacketCodec::kFrameOverheadBytes);
  EXPECT_GT(PacketCodec::ResponseWireSize(8), PacketCodec::ResponseWireSize(1));
}

// Wire sizes pinned to literal byte counts from Figure 6's field widths,
// independent of the codecs:
//   request header 12 B = flags 1 + lock_mask 1 + touch_mask 1 +
//     nb_recircs 1 + instr_count 1 + origin_node 2 + client_seq 4 + epoch 1;
//   instruction 20 B = opcode 1 + stage 1 + reg 1 + src1 1 + index 4 +
//     operand 8 + src2 1 + pad 3;
//   frame 42 B = Ethernet 14 + IPv4 20 + UDP 8;
//   response 24 B + 9 B per instruction (8 B value + 1 B constraint flag);
//   INT: 4 B instruction header on the request, 32 B postcard on the reply;
//   batch header 8 B = magic 1 + txn_count 1 + origin_node 2 + batch_seq 4.
TEST(PacketWireSizeTest, RequestSizesMatchFigure6Layout) {
  SwitchTxn txn;
  EXPECT_EQ(PacketCodec::WireSize(txn), 54u);  // 12 + 42
  txn = SampleTxn();
  EXPECT_EQ(PacketCodec::WireSize(txn), 94u);  // 12 + 2 * 20 + 42
  txn.int_flags = SwitchTxn::kIntEnabled;  // postcard mode rides for free
  EXPECT_EQ(PacketCodec::WireSize(txn), 94u);
  txn.int_flags |= SwitchTxn::kIntWireCost;
  EXPECT_EQ(PacketCodec::WireSize(txn), 98u);  // + 4
}

TEST(PacketWireSizeTest, ResponseSizesMatchFigure6Layout) {
  EXPECT_EQ(PacketCodec::ResponseWireSize(0), 66u);   // 24 + 42
  EXPECT_EQ(PacketCodec::ResponseWireSize(1), 75u);   // 24 + 9 + 42
  EXPECT_EQ(PacketCodec::ResponseWireSize(8), 138u);  // 24 + 72 + 42
  EXPECT_EQ(PacketCodec::ResponseWireSize(1, /*int_wire_cost=*/true), 107u);
  EXPECT_EQ(PacketCodec::ResponseWireSize(8, /*int_wire_cost=*/true), 170u);
}

TEST(PacketWireSizeTest, BatchSizesPayOneFrame) {
  // Members of 2, 1 and 2 instructions: 52 + 32 + 52 = 136 payload bytes.
  EXPECT_EQ(BatchCodec::WireSizeFor(136), 186u);  // 8 + 136 + 42
  EXPECT_EQ(BatchCodec::WireSizeFor(0), 50u);     // 8 + 42
  EXPECT_EQ(BatchCodec::ResponsePayloadSize(2), 42u);         // 24 + 18
  EXPECT_EQ(BatchCodec::ResponsePayloadSize(2, true), 74u);   // + 32
}

TEST(InstructionTest, OpCodeNames) {
  EXPECT_STREQ(OpCodeName(OpCode::kRead), "READ");
  EXPECT_STREQ(OpCodeName(OpCode::kSwap), "SWAP");
  EXPECT_STREQ(OpCodeName(OpCode::kCondAddGeZero), "COND_ADD_GE_ZERO");
}

TEST(InstructionTest, ToStringIsHumanReadable) {
  Instruction in{OpCode::kAdd, RegisterAddress{3, 1, 9}, -5};
  EXPECT_EQ(ToString(in), "ADD s3r1[9], -5");
}

// Property sweep: random packets of every size round-trip bit-exactly.
class CodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecPropertyTest, RandomPacketsRoundTrip) {
  Rng rng(GetParam());
  std::vector<uint8_t> wire;  // reused across iterations (the hot-path shape)
  for (int iter = 0; iter < 50; ++iter) {
    SwitchTxn txn;
    txn.is_multipass = rng.NextBool(0.5);
    txn.lock_mask = static_cast<uint8_t>(rng.NextRange(4));
    txn.touch_mask = static_cast<uint8_t>(rng.NextRange(4));
    txn.nb_recircs = static_cast<uint8_t>(rng.NextRange(256));
    txn.origin_node = static_cast<uint16_t>(rng.NextRange(65536));
    txn.client_seq = static_cast<uint32_t>(rng.Next());
    txn.epoch = static_cast<uint8_t>(rng.NextRange(256));
    const size_t n = rng.NextRange(40);
    for (size_t i = 0; i < n; ++i) {
      Instruction in;
      in.op = static_cast<OpCode>(rng.NextRange(6));
      in.addr.stage = static_cast<uint8_t>(rng.NextRange(20));
      in.addr.reg = static_cast<uint8_t>(rng.NextRange(2));
      in.addr.index = static_cast<uint32_t>(rng.Next());
      in.operand = static_cast<Value64>(rng.Next());
      if (i > 0 && rng.NextBool(0.3)) {
        in.operand_src = static_cast<uint8_t>(rng.NextRange(i));
        in.negate_src = rng.NextBool(0.5);
      }
      if (i > 0 && rng.NextBool(0.2)) {
        in.operand_src2 = static_cast<uint8_t>(rng.NextRange(i));
        in.negate_src2 = rng.NextBool(0.5);
      }
      txn.instrs.push_back(in);
    }
    PacketCodec::Encode(txn, &wire);
    ASSERT_EQ(wire.size(), PacketCodec::EncodedSize(txn));
    const auto decoded = PacketCodec::Decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->instrs, txn.instrs);
    EXPECT_EQ(decoded->is_multipass, txn.is_multipass);
    EXPECT_EQ(decoded->lock_mask, txn.lock_mask);
    EXPECT_EQ(decoded->touch_mask, txn.touch_mask);
    EXPECT_EQ(decoded->nb_recircs, txn.nb_recircs);
    EXPECT_EQ(decoded->origin_node, txn.origin_node);
    EXPECT_EQ(decoded->client_seq, txn.client_seq);
    EXPECT_EQ(decoded->epoch, txn.epoch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

SwitchBatch SampleBatch(uint16_t origin, size_t members) {
  SwitchBatch batch;
  batch.origin_node = origin;
  batch.batch_seq = 42;
  for (size_t i = 0; i < members; ++i) {
    SwitchTxn txn = SampleTxn();
    txn.origin_node = origin;
    txn.client_seq = static_cast<uint32_t>(1000 + i);
    if (i % 2 == 1) txn.instrs.pop_back();  // vary member sizes
    batch.txns.push_back(std::move(txn));
  }
  return batch;
}

TEST(BatchCodecTest, RoundTripPreservesEveryMember) {
  const SwitchBatch batch = SampleBatch(5, 3);
  const auto bytes = BatchCodec::Encode(batch);
  const auto decoded = BatchCodec::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->origin_node, batch.origin_node);
  EXPECT_EQ(decoded->batch_seq, batch.batch_seq);
  ASSERT_EQ(decoded->txns.size(), batch.txns.size());
  for (size_t i = 0; i < batch.txns.size(); ++i) {
    EXPECT_EQ(decoded->txns[i].instrs, batch.txns[i].instrs) << "member " << i;
    EXPECT_EQ(decoded->txns[i].client_seq, batch.txns[i].client_seq);
    EXPECT_EQ(decoded->txns[i].origin_node, batch.origin_node);
  }
}

TEST(BatchCodecTest, EncodedSizeIsHeaderPlusMemberPayloads) {
  const SwitchBatch batch = SampleBatch(2, 4);
  size_t payload_sum = 0;
  for (const SwitchTxn& txn : batch.txns) {
    payload_sum += PacketCodec::EncodedSize(txn);
  }
  EXPECT_EQ(BatchCodec::Encode(batch).size(),
            BatchCodec::kHeaderBytes + payload_sum);
  // The batcher's incremental accounting must agree with a materialized
  // batch: one frame overhead per batch, not per member.
  EXPECT_EQ(BatchCodec::WireSize(batch), BatchCodec::WireSizeFor(payload_sum));
}

TEST(BatchCodecTest, ResponsePayloadMatchesFramelessResponseWire) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{8}, size_t{40}}) {
    EXPECT_EQ(BatchCodec::ResponsePayloadSize(n),
              PacketCodec::ResponseWireSize(n) -
                  PacketCodec::kFrameOverheadBytes);
  }
}

TEST(BatchCodecTest, BadMagicRejected) {
  auto bytes = BatchCodec::Encode(SampleBatch(1, 2));
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(BatchCodec::Decode(bytes).ok());
}

TEST(BatchCodecTest, EmptyBatchRejected) {
  SwitchBatch batch;
  batch.origin_node = 3;
  const auto bytes = BatchCodec::Encode(batch);
  EXPECT_FALSE(BatchCodec::Decode(bytes).ok());
}

TEST(BatchCodecTest, TruncatedMemberRejected) {
  auto bytes = BatchCodec::Encode(SampleBatch(1, 2));
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(BatchCodec::Decode(bytes).ok());
}

TEST(BatchCodecTest, TrailingBytesRejected) {
  auto bytes = BatchCodec::Encode(SampleBatch(1, 2));
  bytes.push_back(0);
  EXPECT_FALSE(BatchCodec::Decode(bytes).ok());
}

TEST(BatchCodecTest, MemberOriginMismatchRejected) {
  // A frame is one origin's egress queue; a member claiming another origin
  // means the batcher mixed lanes.
  SwitchBatch batch = SampleBatch(7, 2);
  batch.txns[1].origin_node = 8;
  const auto bytes = BatchCodec::Encode(batch);
  EXPECT_FALSE(BatchCodec::Decode(bytes).ok());
}

// Property sweep: random batches of random member shapes round-trip
// bit-exactly through the self-delimiting batch framing.
class BatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchPropertyTest, RandomBatchesRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    SwitchBatch batch;
    batch.origin_node = static_cast<uint16_t>(rng.NextRange(65536));
    batch.batch_seq = static_cast<uint32_t>(rng.Next());
    const size_t members = 1 + rng.NextRange(16);
    for (size_t m = 0; m < members; ++m) {
      SwitchTxn txn;
      txn.is_multipass = rng.NextBool(0.5);
      txn.lock_mask = static_cast<uint8_t>(rng.NextRange(4));
      txn.nb_recircs = static_cast<uint8_t>(rng.NextRange(256));
      txn.origin_node = batch.origin_node;
      txn.client_seq = static_cast<uint32_t>(rng.Next());
      txn.epoch = static_cast<uint8_t>(rng.NextRange(256));
      const size_t n = rng.NextRange(20);
      for (size_t i = 0; i < n; ++i) {
        Instruction in;
        in.op = static_cast<OpCode>(rng.NextRange(6));
        in.addr.stage = static_cast<uint8_t>(rng.NextRange(20));
        in.addr.reg = static_cast<uint8_t>(rng.NextRange(2));
        in.addr.index = static_cast<uint32_t>(rng.Next());
        in.operand = static_cast<Value64>(rng.Next());
        txn.instrs.push_back(in);
      }
      batch.txns.push_back(std::move(txn));
    }
    const auto bytes = BatchCodec::Encode(batch);
    ASSERT_EQ(bytes.size(), BatchCodec::EncodedSize(batch));
    const auto decoded = BatchCodec::Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->origin_node, batch.origin_node);
    EXPECT_EQ(decoded->batch_seq, batch.batch_seq);
    ASSERT_EQ(decoded->txns.size(), batch.txns.size());
    for (size_t m = 0; m < batch.txns.size(); ++m) {
      EXPECT_EQ(decoded->txns[m].instrs, batch.txns[m].instrs);
      EXPECT_EQ(decoded->txns[m].client_seq, batch.txns[m].client_seq);
      EXPECT_EQ(decoded->txns[m].nb_recircs, batch.txns[m].nb_recircs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchPropertyTest,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace p4db::sw
