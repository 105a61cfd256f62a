#include "net/wire.h"

#include <algorithm>
#include <cstring>

namespace treediff {
namespace net {

namespace {

/// Little-endian integer plumbing. memcpy keeps it alignment-safe and
/// optimizes to single loads/stores on every target we build for.
void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

/// Cursor over one frame's payload; every Read checks remaining bytes
/// first, so a malformed inner length can never read past the frame.
class Reader {
 public:
  Reader(const char* data, size_t len) : p_(data), remaining_(len) {}

  size_t remaining() const { return remaining_; }

  bool ReadU8(uint8_t* v) {
    if (remaining_ < 1) return false;
    *v = static_cast<uint8_t>(*p_);
    ++p_;
    --remaining_;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining_ < 4) return false;
    const unsigned char* u = reinterpret_cast<const unsigned char*>(p_);
    *v = static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
    p_ += 4;
    remaining_ -= 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  /// Copies `len` bytes out; the length was necessarily validated against
  /// `remaining()` to get here, so the allocation is bounded by the frame.
  bool ReadBytes(size_t len, std::string* out) {
    if (remaining_ < len) return false;
    out->assign(p_, len);
    p_ += len;
    remaining_ -= len;
    return true;
  }

 private:
  const char* p_;
  size_t remaining_;
};

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed frame: " + what);
}

}  // namespace

bool ValidOpcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kPing) &&
         op <= static_cast<uint8_t>(Opcode::kStatus);
}

void AppendRequest(const WireRequest& request, std::string* out) {
  const size_t len_at = out->size();
  PutU32(out, 0);  // Patched below.

  // A tenant id is an identifier, not a payload: encode at most
  // kMaxTenantLen bytes (the decoder rejects more anyway).
  const size_t tenant_len = std::min(request.tenant.size(), kMaxTenantLen);
  PutU8(out, static_cast<uint8_t>(request.opcode));
  PutU8(out, request.format);
  PutU8(out, request.flags);
  PutU8(out, static_cast<uint8_t>(tenant_len));
  PutU64(out, request.request_id);
  PutU32(out, request.deadline_ms);
  out->append(request.tenant.data(), tenant_len);

  switch (request.opcode) {
    case Opcode::kPing:
    case Opcode::kMetrics:
    case Opcode::kStatus:
      break;
    case Opcode::kDiff:
      PutU32(out, static_cast<uint32_t>(request.old_doc.size()));
      PutU32(out, static_cast<uint32_t>(request.new_doc.size()));
      out->append(request.old_doc);
      out->append(request.new_doc);
      break;
    case Opcode::kVdiff:
      PutU32(out, static_cast<uint32_t>(request.doc_id.size()));
      PutI32(out, request.from_version);
      PutI32(out, request.to_version);
      out->append(request.doc_id);
      break;
    case Opcode::kOpen:
    case Opcode::kCommit:
      PutU32(out, static_cast<uint32_t>(request.doc_id.size()));
      PutU32(out, static_cast<uint32_t>(request.old_doc.size()));
      out->append(request.doc_id);
      out->append(request.old_doc);
      if (request.opcode == Opcode::kOpen) PutU32(out, request.replicas);
      break;
  }

  const uint32_t payload =
      static_cast<uint32_t>(out->size() - len_at - kLenPrefixBytes);
  std::string len;
  PutU32(&len, payload);
  std::memcpy(out->data() + len_at, len.data(), kLenPrefixBytes);
}

void AppendResponse(const WireResponse& response, std::string* out) {
  const size_t len_at = out->size();
  PutU32(out, 0);  // Patched below.

  PutU8(out, static_cast<uint8_t>(response.opcode));
  PutU8(out, response.status);
  PutU8(out, response.rung);
  PutU8(out, response.flags);
  PutU64(out, response.request_id);
  PutU32(out, response.value);
  PutU32(out, response.aux);
  PutU32(out, static_cast<uint32_t>(response.payload.size()));
  out->append(response.payload);

  const uint32_t payload =
      static_cast<uint32_t>(out->size() - len_at - kLenPrefixBytes);
  std::string len;
  PutU32(&len, payload);
  std::memcpy(out->data() + len_at, len.data(), kLenPrefixBytes);
}

std::string EncodeRequest(const WireRequest& request) {
  std::string out;
  AppendRequest(request, &out);
  return out;
}

std::string EncodeResponse(const WireResponse& response) {
  std::string out;
  AppendResponse(response, &out);
  return out;
}

void FrameDecoder::Append(const void* data, size_t len) {
  if (broken_) return;  // The stream is dead; don't hoard its bytes.
  buffer_.append(static_cast<const char*>(data), len);
}

DecodeResult FrameDecoder::NextPayload(const char** begin, size_t* len,
                                       Status* error) {
  if (broken_) {
    *error = Status::InvalidArgument(broken_message_);
    return DecodeResult::kError;
  }

  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection's buffer tracks its live data, not its history.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }

  const size_t available = buffer_.size() - consumed_;
  if (available < kLenPrefixBytes) return DecodeResult::kNeedMore;

  const unsigned char* u =
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
  const uint32_t declared = static_cast<uint32_t>(u[0]) |
                            (static_cast<uint32_t>(u[1]) << 8) |
                            (static_cast<uint32_t>(u[2]) << 16) |
                            (static_cast<uint32_t>(u[3]) << 24);

  // Outer-framing sanity: an absurd length means the stream is not a frame
  // stream (or an attack); nothing after this point can be trusted.
  if (declared == 0 || declared > max_frame_bytes_) {
    broken_ = true;
    broken_message_ = "frame length " + std::to_string(declared) +
                      " outside (0, " + std::to_string(max_frame_bytes_) +
                      "]";
    buffer_.clear();
    consumed_ = 0;
    *error = Status::InvalidArgument(broken_message_);
    return DecodeResult::kError;
  }

  if (available < kLenPrefixBytes + declared) return DecodeResult::kNeedMore;

  *begin = buffer_.data() + consumed_ + kLenPrefixBytes;
  *len = declared;
  consumed_ += kLenPrefixBytes + declared;
  return DecodeResult::kFrame;
}

DecodeResult FrameDecoder::NextRequest(WireRequest* out, Status* error) {
  const char* payload = nullptr;
  size_t len = 0;
  const DecodeResult pulled = NextPayload(&payload, &len, error);
  if (pulled != DecodeResult::kFrame) return pulled;

  *out = WireRequest();
  Reader r(payload, len);
  uint8_t opcode = 0;
  uint8_t tenant_len = 0;
  if (!r.ReadU8(&opcode) || !r.ReadU8(&out->format) ||
      !r.ReadU8(&out->flags) || !r.ReadU8(&tenant_len) ||
      !r.ReadU64(&out->request_id) || !r.ReadU32(&out->deadline_ms)) {
    *error = Malformed("request header truncated");
    return DecodeResult::kBadFrame;
  }
  if (!ValidOpcode(opcode)) {
    *error = Malformed("unknown opcode " + std::to_string(opcode));
    return DecodeResult::kBadFrame;
  }
  out->opcode = static_cast<Opcode>(opcode);
  if (out->format > kFormatXml) {
    *error = Malformed("unknown format " + std::to_string(out->format));
    return DecodeResult::kBadFrame;
  }
  if (tenant_len > kMaxTenantLen) {
    *error = Malformed("tenant id longer than " +
                       std::to_string(kMaxTenantLen));
    return DecodeResult::kBadFrame;
  }
  if (!r.ReadBytes(tenant_len, &out->tenant)) {
    *error = Malformed("tenant id truncated");
    return DecodeResult::kBadFrame;
  }

  switch (out->opcode) {
    case Opcode::kPing:
    case Opcode::kMetrics:
    case Opcode::kStatus:
      break;
    case Opcode::kDiff: {
      uint32_t old_len = 0;
      uint32_t new_len = 0;
      if (!r.ReadU32(&old_len) || !r.ReadU32(&new_len) ||
          old_len > r.remaining() ||
          new_len > r.remaining() - old_len ||
          !r.ReadBytes(old_len, &out->old_doc) ||
          !r.ReadBytes(new_len, &out->new_doc)) {
        *error = Malformed("diff body lengths inconsistent with frame");
        return DecodeResult::kBadFrame;
      }
      break;
    }
    case Opcode::kVdiff: {
      uint32_t id_len = 0;
      if (!r.ReadU32(&id_len) || !r.ReadI32(&out->from_version) ||
          !r.ReadI32(&out->to_version) ||
          !r.ReadBytes(id_len, &out->doc_id)) {
        *error = Malformed("vdiff body lengths inconsistent with frame");
        return DecodeResult::kBadFrame;
      }
      break;
    }
    case Opcode::kOpen:
    case Opcode::kCommit: {
      uint32_t id_len = 0;
      uint32_t doc_len = 0;
      if (!r.ReadU32(&id_len) || !r.ReadU32(&doc_len) ||
          id_len > r.remaining() || doc_len > r.remaining() - id_len ||
          !r.ReadBytes(id_len, &out->doc_id) ||
          !r.ReadBytes(doc_len, &out->old_doc)) {
        *error = Malformed("open/commit body lengths inconsistent");
        return DecodeResult::kBadFrame;
      }
      if (out->opcode == Opcode::kOpen) {
        if (!r.ReadU32(&out->replicas)) {
          *error = Malformed("open body missing replica count");
          return DecodeResult::kBadFrame;
        }
        if (out->replicas > kMaxReplicas) {
          *error = Malformed("replica count " +
                             std::to_string(out->replicas) + " above " +
                             std::to_string(kMaxReplicas));
          return DecodeResult::kBadFrame;
        }
      }
      break;
    }
  }

  if (r.remaining() != 0) {
    *error = Malformed(std::to_string(r.remaining()) +
                       " trailing bytes after request body");
    return DecodeResult::kBadFrame;
  }
  return DecodeResult::kFrame;
}

DecodeResult FrameDecoder::NextResponse(WireResponse* out, Status* error) {
  const char* payload = nullptr;
  size_t len = 0;
  const DecodeResult pulled = NextPayload(&payload, &len, error);
  if (pulled != DecodeResult::kFrame) return pulled;

  *out = WireResponse();
  Reader r(payload, len);
  uint8_t opcode = 0;
  uint32_t payload_len = 0;
  if (!r.ReadU8(&opcode) || !r.ReadU8(&out->status) || !r.ReadU8(&out->rung) ||
      !r.ReadU8(&out->flags) || !r.ReadU64(&out->request_id) ||
      !r.ReadU32(&out->value) || !r.ReadU32(&out->aux) ||
      !r.ReadU32(&payload_len) || !r.ReadBytes(payload_len, &out->payload)) {
    *error = Malformed("response header or payload truncated");
    return DecodeResult::kBadFrame;
  }
  if (!ValidOpcode(opcode)) {
    *error = Malformed("unknown response opcode " + std::to_string(opcode));
    return DecodeResult::kBadFrame;
  }
  out->opcode = static_cast<Opcode>(opcode);
  if (out->status > static_cast<uint8_t>(Code::kDataLoss)) {
    *error = Malformed("unknown status code " + std::to_string(out->status));
    return DecodeResult::kBadFrame;
  }
  if (r.remaining() != 0) {
    *error = Malformed("trailing bytes after response payload");
    return DecodeResult::kBadFrame;
  }
  return DecodeResult::kFrame;
}

}  // namespace net
}  // namespace treediff
