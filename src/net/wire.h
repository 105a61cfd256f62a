#ifndef TREEDIFF_NET_WIRE_H_
#define TREEDIFF_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace treediff {
namespace net {

/// The binary wire protocol of the network front end (docs/network.md).
///
/// Every frame — request or response — is length-prefixed:
///
///   u32 len      byte length of everything after this field (little-endian,
///                like every integer on the wire)
///   payload      len bytes
///
/// Request payload:
///
///   u8  opcode       Opcode below
///   u8  format       0 = sexpr, 1 = xml
///   u8  flags        bit 0: kFlagNoScript (skip script text in response)
///   u8  tenant_len   length of the tenant id, <= kMaxTenantLen
///   u64 request_id   opaque; echoed verbatim in the response, so a client
///                    may pipeline requests and correlate responses
///   u32 deadline_ms  end-to-end deadline; 0 = server default
///   ... tenant_len bytes of tenant id
///   ... opcode-specific body:
///
///   kPing / kMetrics / kStatus   (empty)
///   kDiff      u32 old_len | u32 new_len | old bytes | new bytes
///   kVdiff     u32 id_len | i32 from | i32 to | id bytes
///   kOpen      u32 id_len | u32 doc_len | id bytes | doc bytes | u32 replicas
///   kCommit    u32 id_len | u32 doc_len | id bytes | doc bytes
///
/// kOpen's `replicas` is 0 for an in-memory store, or n in
/// [1, kMaxReplicas] for an n-replica group whose logs live under the
/// server's store directory. When a log of that group already exists (a
/// restart), kOpen recovers it instead of creating one, led by the replica
/// that led last, and rejects a document that differs from the recovered
/// version 0. An OK
/// kOpen answers the store's head version in `value` (0 when created).
///
/// Response payload:
///
///   u8  opcode       echo of the request opcode
///   u8  status       treediff::Code as u8 (0 = OK)
///   u8  rung         DiffRung served on, or kNoRung for non-diff ops
///   u8  flags        kRespFlag* bits below
///   u64 request_id   echo
///   u32 value        diff: operation count; commit: new version; open:
///                    head version; else 0
///   u32 aux          diff: share-map pruned subtrees; else 0
///   u32 payload_len  bytes following
///   ... payload      edit script text (OK diff), error message (non-OK),
///                    metrics text (kMetrics), store health lines
///                    (kStatus), else empty
///
/// Framing errors are two-tier. A frame whose *outer* length field is
/// absurd (zero, or beyond the decoder's max) means the stream can no
/// longer be trusted and the connection must close. A frame whose outer
/// length is fine but whose *inner* structure is malformed (bad opcode,
/// inconsistent inner lengths, oversized tenant) is consumed and reported
/// per-frame — the stream stays in sync, the server answers with an error
/// response and keeps the connection.
enum class Opcode : uint8_t {
  kPing = 1,     // Liveness probe; empty OK response.
  kDiff = 2,     // Diff two inline documents.
  kVdiff = 3,    // Diff two stored versions.
  kOpen = 4,     // Create or recover a version store.
  kCommit = 5,   // Commit the next version of a store.
  kMetrics = 6,  // Prometheus text exposition of the server registry.
  kStatus = 7,   // Per-store health: store= lines, REPL lines for groups.
};

/// True for a byte that names a real opcode.
bool ValidOpcode(uint8_t op);

inline constexpr uint8_t kFormatSexpr = 0;
inline constexpr uint8_t kFormatXml = 1;

inline constexpr uint8_t kFlagNoScript = 1u << 0;

inline constexpr uint8_t kRespFlagDegraded = 1u << 0;
inline constexpr uint8_t kRespFlagShedDegraded = 1u << 1;
inline constexpr uint8_t kRespFlagCacheOld = 1u << 2;
inline constexpr uint8_t kRespFlagCacheNew = 1u << 3;
inline constexpr uint8_t kRespFlagMatchCache = 1u << 4;  // Diff cache.
inline constexpr uint8_t kRespFlagChainLog = 1u << 5;

/// `rung` byte for responses that did not run the diff ladder.
inline constexpr uint8_t kNoRung = 0xFF;

inline constexpr size_t kMaxTenantLen = 64;
inline constexpr uint32_t kMaxReplicas = 8;  // Per kOpen frame.
inline constexpr size_t kLenPrefixBytes = 4;
inline constexpr size_t kRequestHeaderBytes = 16;   // After the length.
inline constexpr size_t kResponseHeaderBytes = 20;  // After the length.

/// Default ceiling on one frame's payload. A decoder rejects a larger
/// declared length the moment the 4-byte prefix arrives — before buffering
/// a single payload byte — so a hostile length field cannot make the
/// server allocate.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

/// One decoded request frame.
struct WireRequest {
  Opcode opcode = Opcode::kPing;
  uint8_t format = kFormatSexpr;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  uint32_t deadline_ms = 0;
  std::string tenant;

  std::string doc_id;   // kVdiff / kOpen / kCommit.
  std::string old_doc;  // kDiff old document; kOpen/kCommit document.
  std::string new_doc;  // kDiff new document.
  int32_t from_version = -1;  // kVdiff.
  int32_t to_version = -1;    // kVdiff.
  uint32_t replicas = 0;      // kOpen: 0 = in-memory store.
};

/// One decoded response frame.
struct WireResponse {
  Opcode opcode = Opcode::kPing;
  uint8_t status = 0;  // treediff::Code as u8.
  uint8_t rung = kNoRung;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  uint32_t value = 0;
  uint32_t aux = 0;
  std::string payload;

  bool ok() const { return status == 0; }
  Code code() const { return static_cast<Code>(status); }
};

/// Serializes a frame (length prefix included) onto `out`.
void AppendRequest(const WireRequest& request, std::string* out);
void AppendResponse(const WireResponse& response, std::string* out);

std::string EncodeRequest(const WireRequest& request);
std::string EncodeResponse(const WireResponse& response);

/// What one Next() call on a decoder produced.
enum class DecodeResult {
  kFrame,     // A complete, well-formed frame was decoded.
  kNeedMore,  // The buffer holds no complete frame; feed more bytes.
  kBadFrame,  // A complete frame was consumed but its body is malformed;
              // the stream is still in sync. `error` says what was wrong,
              // and for requests the partially decoded header (request_id,
              // tenant) is available for the error response.
  kError,     // The outer framing is broken; close the connection. Sticky:
              // every later Next() repeats the error.
};

/// Incremental decoder over a byte stream of frames. Append() buffers
/// whatever the socket produced; Next() extracts complete frames one at a
/// time. The internal buffer never grows beyond the bytes actually
/// received, and a declared frame length above `max_frame_bytes` is
/// rejected before any payload is buffered.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const void* data, size_t len);

  /// Bytes buffered and not yet consumed by Next() — bounded by
  /// kLenPrefixBytes + max_frame_bytes + one read's worth of trailing
  /// partial frame (the transport reads in bounded chunks).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  /// Decodes the next request frame. See DecodeResult.
  DecodeResult NextRequest(WireRequest* out, Status* error);

  /// Decodes the next response frame (the client side of the stream).
  DecodeResult NextResponse(WireResponse* out, Status* error);

 private:
  /// Pulls the next complete payload into [*begin, *begin + *len).
  /// Consumes it from the buffer (the span stays valid until the next
  /// Append/Next call).
  DecodeResult NextPayload(const char** begin, size_t* len, Status* error);

  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
  bool broken_ = false;
  std::string broken_message_;
};

}  // namespace net
}  // namespace treediff

#endif  // TREEDIFF_NET_WIRE_H_
