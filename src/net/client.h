#ifndef TREEDIFF_NET_CLIENT_H_
#define TREEDIFF_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "net/wire.h"
#include "util/socket.h"
#include "util/status.h"

namespace treediff {
namespace net {

/// A small blocking client for the binary protocol — the reference
/// implementation tests and tools are written against. One connection,
/// synchronous Call() or explicit Send()/Receive() for pipelining. The
/// high-concurrency path is net/loadgen.h; this class optimizes for being
/// obviously correct.
class SimpleClient {
 public:
  SimpleClient() = default;

  /// Connects (blocking). Any previous connection is dropped.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  void Close() { fd_.Reset(); }

  /// One request, one response. The response is matched by arrival, not
  /// request_id — with no pipelining they coincide.
  Status Call(const WireRequest& request, WireResponse* response);

  /// Writes one request frame (no wait). Pair with Receive() to pipeline.
  Status Send(const WireRequest& request);

  /// Writes pre-encoded bytes verbatim — lets tests send malformed frames.
  Status SendRaw(const std::string& bytes);

  /// Blocks until the next response frame arrives.
  Status Receive(WireResponse* response);

  // Convenience wrappers for the common opcodes.

  Status Ping();
  Status Diff(const std::string& old_doc, const std::string& new_doc,
              uint8_t format, WireResponse* response,
              const std::string& tenant = "", uint32_t deadline_ms = 0);
  /// `replicas` 0 opens an in-memory store; n >= 1 an n-replica group.
  Status Open(const std::string& doc_id, const std::string& doc,
              uint8_t format, WireResponse* response, uint32_t replicas = 0);
  Status Commit(const std::string& doc_id, const std::string& doc,
                uint8_t format, WireResponse* response);
  Status Vdiff(const std::string& doc_id, int32_t from_version,
               int32_t to_version, WireResponse* response,
               const std::string& tenant = "");
  Status Metrics(std::string* text);
  /// The kStatus text: one store= line per store, plus a REPL line per
  /// replicated store. (Not named Status: that would hide the type.)
  Status StatusText(std::string* text);

 private:
  /// One body-less request whose OK payload is text (kMetrics, kStatus).
  Status CallForText(Opcode opcode, std::string* text);

  OwnedFd fd_;
  FrameDecoder decoder_;
  uint64_t next_request_id_ = 1;
};

}  // namespace net
}  // namespace treediff

#endif  // TREEDIFF_NET_CLIENT_H_
