// Wire-protocol codec tests: encode/decode round trips for every opcode,
// incremental delivery (the decoder must assemble frames from arbitrary
// byte fragments), pipelined streams, and the two-tier error model — a
// malformed frame body is consumed per-frame with the stream staying in
// sync, while a broken outer length poisons the stream for good.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>

namespace treediff {
namespace net {
namespace {

WireRequest SampleDiffRequest() {
  WireRequest request;
  request.opcode = Opcode::kDiff;
  request.format = kFormatXml;
  request.flags = kFlagNoScript;
  request.request_id = 0x1122334455667788ull;
  request.deadline_ms = 2500;
  request.tenant = "team-a";
  request.old_doc = "<doc><p>old</p></doc>";
  request.new_doc = "<doc><p>new</p></doc>";
  return request;
}

TEST(WireTest, DiffRequestRoundTrip) {
  const WireRequest in = SampleDiffRequest();
  FrameDecoder decoder;
  const std::string bytes = EncodeRequest(in);
  decoder.Append(bytes.data(), bytes.size());

  WireRequest out;
  Status error = Status::Ok();
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
  EXPECT_EQ(out.opcode, Opcode::kDiff);
  EXPECT_EQ(out.format, kFormatXml);
  EXPECT_EQ(out.flags, kFlagNoScript);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.old_doc, in.old_doc);
  EXPECT_EQ(out.new_doc, in.new_doc);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kNeedMore);
}

TEST(WireTest, AllOpcodesRoundTrip) {
  FrameDecoder decoder;
  std::string stream;

  WireRequest ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 1;
  AppendRequest(ping, &stream);

  WireRequest vdiff;
  vdiff.opcode = Opcode::kVdiff;
  vdiff.request_id = 2;
  vdiff.doc_id = "doc-7";
  vdiff.from_version = 3;
  vdiff.to_version = -1;  // "latest" sentinel must survive the trip.
  AppendRequest(vdiff, &stream);

  WireRequest open;
  open.opcode = Opcode::kOpen;
  open.request_id = 3;
  open.doc_id = "doc-7";
  open.old_doc = "(D (P (S \"base\")))";
  open.replicas = 3;
  AppendRequest(open, &stream);

  WireRequest commit;
  commit.opcode = Opcode::kCommit;
  commit.request_id = 4;
  commit.doc_id = "doc-7";
  commit.old_doc = "(D (P (S \"v1\")))";
  AppendRequest(commit, &stream);

  WireRequest metrics;
  metrics.opcode = Opcode::kMetrics;
  metrics.request_id = 5;
  AppendRequest(metrics, &stream);

  WireRequest status;
  status.opcode = Opcode::kStatus;
  status.request_id = 6;
  AppendRequest(status, &stream);

  decoder.Append(stream.data(), stream.size());
  WireRequest out;
  Status error = Status::Ok();
  const Opcode opcodes[] = {Opcode::kPing,   Opcode::kVdiff,
                            Opcode::kOpen,   Opcode::kCommit,
                            Opcode::kMetrics, Opcode::kStatus};
  for (uint64_t id = 1; id <= 6; ++id) {
    ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame)
        << "frame " << id;
    EXPECT_EQ(out.request_id, id);
    EXPECT_EQ(out.opcode, opcodes[id - 1]);
    // The replica count rides on kOpen only.
    EXPECT_EQ(out.replicas, id == 3 ? 3u : 0u);
    if (id >= 2 && id <= 4) {
      EXPECT_EQ(out.doc_id, "doc-7");
    }
    if (id == 2) {
      EXPECT_EQ(out.to_version, -1);
    }
  }
  EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kNeedMore);
  EXPECT_EQ(out.doc_id, "");  // The output struct is reset per frame.
}

TEST(WireTest, ByteAtATimeDelivery) {
  const WireRequest in = SampleDiffRequest();
  const std::string bytes = EncodeRequest(in);
  FrameDecoder decoder;
  WireRequest out;
  Status error = Status::Ok();
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Append(bytes.data() + i, 1);
    ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kNeedMore)
        << "at byte " << i;
  }
  decoder.Append(bytes.data() + bytes.size() - 1, 1);
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
  EXPECT_EQ(out.old_doc, in.old_doc);
}

TEST(WireTest, ResponseRoundTrip) {
  WireResponse in;
  in.opcode = Opcode::kDiff;
  in.status = 0;
  in.rung = 2;
  in.flags = kRespFlagDegraded | kRespFlagCacheNew;
  in.request_id = 99;
  in.value = 17;
  in.aux = 4;
  in.payload = "INS((3, P, \"\"), 0, 1)\n";

  FrameDecoder decoder;
  const std::string bytes = EncodeResponse(in);
  decoder.Append(bytes.data(), bytes.size());
  WireResponse out;
  Status error = Status::Ok();
  ASSERT_EQ(decoder.NextResponse(&out, &error), DecodeResult::kFrame);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.rung, 2);
  EXPECT_EQ(out.flags, in.flags);
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(out.value, 17u);
  EXPECT_EQ(out.aux, 4u);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(WireTest, BadOpcodeIsPerFrameErrorAndStreamStaysInSync) {
  std::string stream = EncodeRequest(SampleDiffRequest());
  // Corrupt the opcode byte (first payload byte, after the 4-byte length).
  stream[kLenPrefixBytes] = static_cast<char>(0x7F);
  // A healthy frame follows the corrupt one.
  WireRequest ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 42;
  AppendRequest(ping, &stream);

  FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size());
  WireRequest out;
  Status error = Status::Ok();
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kBadFrame);
  EXPECT_FALSE(error.ok());
  // The stream is still in sync: the next frame decodes normally.
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
  EXPECT_EQ(out.request_id, 42u);
}

TEST(WireTest, BadFrameKeepsCorrelationHeader) {
  // Inner lengths inconsistent with the frame: header decodes, body fails —
  // the server needs request_id/tenant to answer with an error response.
  WireRequest in = SampleDiffRequest();
  std::string stream = EncodeRequest(in);
  // old_len is the u32 right after the fixed header + tenant. Inflate it.
  const size_t old_len_at =
      kLenPrefixBytes + kRequestHeaderBytes + in.tenant.size();
  stream[old_len_at + 3] = static_cast<char>(0x7F);  // Huge old_len.

  FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size());
  WireRequest out;
  Status error = Status::Ok();
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kBadFrame);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.tenant, in.tenant);

  // A kOpen whose replica count is above the cap: same tier, and the
  // frame after it still decodes.
  WireRequest open;
  open.opcode = Opcode::kOpen;
  open.request_id = 8;
  open.doc_id = "doc";
  open.old_doc = "(D)";
  open.replicas = kMaxReplicas + 1;
  WireRequest ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 9;
  stream = EncodeRequest(open) + EncodeRequest(ping);
  decoder.Append(stream.data(), stream.size());
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kBadFrame);
  EXPECT_EQ(out.request_id, 8u);
  EXPECT_NE(error.message().find("replica count"), std::string::npos);
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
  EXPECT_EQ(out.request_id, 9u);
}

TEST(WireTest, TrailingBytesRejected) {
  WireRequest ping;
  ping.opcode = Opcode::kPing;
  std::string frame = EncodeRequest(ping);
  // Declare one extra byte and append it: the body no longer matches the
  // opcode's fixed shape.
  frame.push_back('X');
  frame[0] = static_cast<char>(static_cast<unsigned char>(frame[0]) + 1);

  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  WireRequest out;
  Status error = Status::Ok();
  EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kBadFrame);
}

TEST(WireTest, OversizedLengthIsFatalAndSticky) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  const uint32_t huge = 1 << 30;
  char prefix[4] = {static_cast<char>(huge & 0xFF),
                    static_cast<char>((huge >> 8) & 0xFF),
                    static_cast<char>((huge >> 16) & 0xFF),
                    static_cast<char>((huge >> 24) & 0xFF)};
  decoder.Append(prefix, sizeof prefix);

  WireRequest out;
  Status error = Status::Ok();
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kError);
  EXPECT_FALSE(error.ok());
  // The poisoned buffer was released, and the state is sticky: even a
  // well-formed frame appended later is refused.
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  const std::string good = EncodeRequest(SampleDiffRequest());
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kError);
}

TEST(WireTest, ZeroLengthIsFatal) {
  FrameDecoder decoder;
  const char zeros[4] = {0, 0, 0, 0};
  decoder.Append(zeros, sizeof zeros);
  WireRequest out;
  Status error = Status::Ok();
  EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kError);
}

TEST(WireTest, TenantLongerThanCapIsClampedOnEncode) {
  WireRequest request;
  request.opcode = Opcode::kPing;
  request.tenant = std::string(200, 't');
  FrameDecoder decoder;
  const std::string bytes = EncodeRequest(request);
  decoder.Append(bytes.data(), bytes.size());
  WireRequest out;
  Status error = Status::Ok();
  ASSERT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
  EXPECT_EQ(out.tenant.size(), kMaxTenantLen);
}

TEST(WireTest, OversizedTenantOnTheWireIsBadFrame) {
  // A hand-built frame can still declare tenant_len > kMaxTenantLen (u8
  // holds up to 255); the decoder must reject it per-frame.
  WireRequest ping;
  ping.opcode = Opcode::kPing;
  std::string frame = EncodeRequest(ping);
  const size_t body = frame.size() - kLenPrefixBytes;
  // Patch tenant_len to 100 and supply the bytes.
  frame[kLenPrefixBytes + 3] = static_cast<char>(100);
  frame += std::string(100, 'q');
  const uint32_t new_len = static_cast<uint32_t>(body + 100);
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>((new_len >> (8 * i)) & 0xFF);
  }

  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  WireRequest out;
  Status error = Status::Ok();
  EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kBadFrame);
  // Stream still in sync for the next frame.
  const std::string good = EncodeRequest(ping);
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.NextRequest(&out, &error), DecodeResult::kFrame);
}

TEST(WireTest, ErrorResponseStatusRoundTrip) {
  WireResponse in;
  in.opcode = Opcode::kDiff;
  in.status = static_cast<uint8_t>(Code::kResourceExhausted);
  in.request_id = 7;
  in.payload = "queue full";
  FrameDecoder decoder;
  const std::string bytes = EncodeResponse(in);
  decoder.Append(bytes.data(), bytes.size());
  WireResponse out;
  Status error = Status::Ok();
  ASSERT_EQ(decoder.NextResponse(&out, &error), DecodeResult::kFrame);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.code(), Code::kResourceExhausted);
  EXPECT_EQ(out.payload, "queue full");
}

}  // namespace
}  // namespace net
}  // namespace treediff
