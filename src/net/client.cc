#include "net/client.h"

#include <unistd.h>
#include <utility>

namespace treediff {
namespace net {

Status SimpleClient::Connect(const std::string& host, uint16_t port) {
  StatusOr<OwnedFd> fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(*fd);
  decoder_ = FrameDecoder();
  return SetNoDelay(fd_.get());
}

Status SimpleClient::Call(const WireRequest& request, WireResponse* response) {
  TREEDIFF_RETURN_IF_ERROR(Send(request));
  return Receive(response);
}

Status SimpleClient::Send(const WireRequest& request) {
  if (!fd_.valid()) return Status::FailedPrecondition("client not connected");
  const std::string encoded = EncodeRequest(request);
  return WriteAll(fd_.get(), encoded.data(), encoded.size());
}

Status SimpleClient::SendRaw(const std::string& bytes) {
  if (!fd_.valid()) return Status::FailedPrecondition("client not connected");
  return WriteAll(fd_.get(), bytes.data(), bytes.size());
}

Status SimpleClient::Receive(WireResponse* response) {
  if (!fd_.valid()) return Status::FailedPrecondition("client not connected");
  for (;;) {
    Status error = Status::Ok();
    const DecodeResult result = decoder_.NextResponse(response, &error);
    if (result == DecodeResult::kFrame) return Status::Ok();
    if (result != DecodeResult::kNeedMore) return error;

    char buf[16 * 1024];
    const ssize_t n = ::read(fd_.get(), buf, sizeof buf);
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::Unavailable("connection closed while awaiting response");
    }
    if (errno == EINTR) continue;
    return Status::Unavailable("read failed while awaiting response");
  }
}

Status SimpleClient::Ping() {
  WireRequest request;
  request.opcode = Opcode::kPing;
  request.request_id = next_request_id_++;
  WireResponse response;
  TREEDIFF_RETURN_IF_ERROR(Call(request, &response));
  if (!response.ok()) return Status(response.code(), response.payload);
  return Status::Ok();
}

Status SimpleClient::Diff(const std::string& old_doc,
                          const std::string& new_doc, uint8_t format,
                          WireResponse* response, const std::string& tenant,
                          uint32_t deadline_ms) {
  WireRequest request;
  request.opcode = Opcode::kDiff;
  request.format = format;
  request.request_id = next_request_id_++;
  request.deadline_ms = deadline_ms;
  request.tenant = tenant;
  request.old_doc = old_doc;
  request.new_doc = new_doc;
  return Call(request, response);
}

Status SimpleClient::Open(const std::string& doc_id, const std::string& doc,
                          uint8_t format, WireResponse* response,
                          uint32_t replicas) {
  WireRequest request;
  request.opcode = Opcode::kOpen;
  request.format = format;
  request.request_id = next_request_id_++;
  request.doc_id = doc_id;
  request.old_doc = doc;
  request.replicas = replicas;
  return Call(request, response);
}

Status SimpleClient::Commit(const std::string& doc_id, const std::string& doc,
                            uint8_t format, WireResponse* response) {
  WireRequest request;
  request.opcode = Opcode::kCommit;
  request.format = format;
  request.request_id = next_request_id_++;
  request.doc_id = doc_id;
  request.old_doc = doc;
  return Call(request, response);
}

Status SimpleClient::Vdiff(const std::string& doc_id, int32_t from_version,
                           int32_t to_version, WireResponse* response,
                           const std::string& tenant) {
  WireRequest request;
  request.opcode = Opcode::kVdiff;
  request.request_id = next_request_id_++;
  request.tenant = tenant;
  request.doc_id = doc_id;
  request.from_version = from_version;
  request.to_version = to_version;
  return Call(request, response);
}

Status SimpleClient::CallForText(Opcode opcode, std::string* text) {
  WireRequest request;
  request.opcode = opcode;
  request.request_id = next_request_id_++;
  WireResponse response;
  TREEDIFF_RETURN_IF_ERROR(Call(request, &response));
  if (!response.ok()) return Status(response.code(), response.payload);
  *text = std::move(response.payload);
  return Status::Ok();
}

Status SimpleClient::Metrics(std::string* text) {
  return CallForText(Opcode::kMetrics, text);
}

Status SimpleClient::StatusText(std::string* text) {
  return CallForText(Opcode::kStatus, text);
}

}  // namespace net
}  // namespace treediff
