#include "net/frontend.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "util/io.h"

namespace treediff {
namespace net {

namespace {

/// Maps a wire format byte (already validated by the decoder) to the
/// service's enum.
DiffRequest::Format ToFormat(uint8_t wire_format) {
  return wire_format == kFormatXml ? DiffRequest::Format::kXml
                                   : DiffRequest::Format::kSexpr;
}

constexpr size_t kMaxDocIdLen = 128;

bool DocIdChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

/// Accepts a doc id that is safe as a file-name component: 1 to
/// kMaxDocIdLen bytes of [A-Za-z0-9._-], not starting with '.'.
Status ValidateDocId(const std::string& doc_id) {
  bool ok = !doc_id.empty() && doc_id.size() <= kMaxDocIdLen &&
            doc_id[0] != '.';
  for (const char c : doc_id) ok = ok && DocIdChar(c);
  if (ok) return Status::Ok();
  return Status::InvalidArgument(
      "bad doc id \"" + doc_id.substr(0, kMaxDocIdLen) + "\": want 1-" +
      std::to_string(kMaxDocIdLen) +
      " bytes of [A-Za-z0-9._-], not starting with '.'");
}

/// Builds the response for a finished diff (error responses included).
WireResponse FromDiffResponse(const WireRequest& request,
                              const DiffResponse& diff) {
  if (!diff.status.ok()) return Frontend::ErrorResponse(request, diff.status);
  WireResponse response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  response.rung = static_cast<uint8_t>(diff.rung);
  response.value = static_cast<uint32_t>(diff.operations);
  response.aux = static_cast<uint32_t>(diff.pruned_subtrees);
  if (diff.degraded) response.flags |= kRespFlagDegraded;
  if (diff.shed_degraded) response.flags |= kRespFlagShedDegraded;
  if (diff.cache_hit_old) response.flags |= kRespFlagCacheOld;
  if (diff.cache_hit_new) response.flags |= kRespFlagCacheNew;
  if (diff.matching_cache_hit) response.flags |= kRespFlagMatchCache;
  if (diff.chain_log_hit) response.flags |= kRespFlagChainLog;
  response.payload = diff.script;
  return response;
}

}  // namespace

WireResponse Frontend::ErrorResponse(const WireRequest& request,
                                     const Status& status) {
  WireResponse response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  response.status = static_cast<uint8_t>(status.code());
  response.payload = status.message();
  return response;
}

void Frontend::Execute(WireRequest request, Done done) {
  switch (request.opcode) {
    case Opcode::kPing: {
      WireResponse response;
      response.opcode = Opcode::kPing;
      response.request_id = request.request_id;
      done(std::move(response));
      return;
    }

    case Opcode::kDiff:
    case Opcode::kVdiff: {
      DiffRequest diff;
      diff.format = ToFormat(request.format);
      if (request.opcode == Opcode::kDiff) {
        diff.old_doc = std::move(request.old_doc);
        diff.new_doc = std::move(request.new_doc);
      } else {
        diff.doc_id = std::move(request.doc_id);
        diff.from_version = request.from_version;
        diff.to_version = request.to_version;
      }
      diff.deadline_seconds =
          static_cast<double>(request.deadline_ms) / 1000.0;
      diff.want_script_text = (request.flags & kFlagNoScript) == 0;
      // The correlation fields the completion needs; the documents were
      // moved out above and are not copied again.
      WireRequest header;
      header.opcode = request.opcode;
      header.request_id = request.request_id;
      auto done_ptr = std::make_shared<Done>(std::move(done));
      service_->Submit(std::move(diff),
                       [header, done_ptr](DiffResponse response) {
                         (*done_ptr)(FromDiffResponse(header, response));
                       });
      return;
    }

    case Opcode::kOpen:
    case Opcode::kCommit:
    case Opcode::kMetrics:
    case Opcode::kStatus:
      ExecuteControl(std::move(request), std::move(done));
      return;
  }
  // Unreachable: the decoder validated the opcode.
  done(ErrorResponse(request, Status::Internal("unhandled opcode")));
}

StatusOr<int> Frontend::Open(const WireRequest& request) {
  // Zero replicas is an in-memory group of one; otherwise every replica
  // gets a log, and the id becomes part of its file name: vet it before
  // any path exists.
  std::vector<ReplicaConfig> configs(request.replicas);
  if (!configs.empty()) {
    TREEDIFF_RETURN_IF_ERROR(ValidateDocId(request.doc_id));
  }
  for (size_t r = 0; r < configs.size(); ++r) {
    configs[r].path = store_dir_ + "/" + request.doc_id + ".r" +
                      std::to_string(r) + ".log";
  }
  // Logs left by an earlier server are recovered, not refused: a durable
  // store outlives the process that created it. Recovery finds the replica
  // that led last (a breaker promotion may have moved it off replica 0).
  const bool exists = std::any_of(
      configs.begin(), configs.end(), [](const ReplicaConfig& config) {
        return Env::Default()->FileExists(config.path);
      });
  if (exists) {
    return service_->RecoverStore(request.doc_id, request.old_doc,
                                  std::move(configs), AckMode::kLeaderOnly,
                                  ToFormat(request.format));
  }
  TREEDIFF_RETURN_IF_ERROR(service_->CreateStore(
      request.doc_id, request.old_doc, std::move(configs),
      AckMode::kLeaderOnly, ToFormat(request.format)));
  return 0;
}

std::string Frontend::RenderStatus() {
  std::ostringstream out;
  for (const DiffService::StoreStatus& s : service_->StoreStatuses()) {
    out << "store=" << s.doc_id << " versions=" << s.versions
        << " durable=" << (s.durable ? 1 : 0)
        << " health=" << StoreHealthName(s.health)
        << " failures=" << s.consecutive_failures
        << " retries=" << s.faults.transient_retries
        << " rotations=" << s.faults.rotations
        << " scrubs=" << s.faults.scrubs << "\n";
    if (!s.durable) continue;
    out << "REPL doc=" << s.doc_id << " epoch=" << s.repl_epoch
        << " primary=" << s.repl_primary;
    for (const ReplicaStatus& r : s.replicas) {
      out << " r" << r.index << "=" << ReplicaRoleName(r.role)
          << ":lag=" << r.lag_bytes;
    }
    out << "\n";
  }
  return out.str();
}

void Frontend::ExecuteControl(WireRequest req, Done done_fn) {
  // Shared, not moved into the closure: if TrySubmit declines, the shed
  // path below still needs both the request (for correlation fields) and
  // the callback (which must fire exactly once).
  auto state = std::make_shared<std::pair<WireRequest, Done>>(
      std::move(req), std::move(done_fn));
  auto task = [this, state]() {
    const WireRequest& request = state->first;
    WireResponse response;
    response.opcode = request.opcode;
    response.request_id = request.request_id;
    Status status = Status::Ok();
    switch (request.opcode) {
      case Opcode::kOpen: {
        const StatusOr<int> head = Open(request);
        status = head.status();
        if (head.ok()) response.value = static_cast<uint32_t>(*head);
        break;
      }
      case Opcode::kCommit: {
        const StatusOr<int> version = service_->CommitVersion(
            request.doc_id, request.old_doc, ToFormat(request.format));
        status = version.status();
        if (version.ok()) response.value = static_cast<uint32_t>(*version);
        break;
      }
      case Opcode::kMetrics:
        response.payload = service_->metrics().PrometheusExposition();
        break;
      case Opcode::kStatus:
        response.payload = RenderStatus();
        break;
      default:
        status = Status::Internal("bad control opcode");
        break;
    }
    state->second(status.ok() ? std::move(response)
                              : ErrorResponse(request, status));
  };
  if (!control_pool_->TrySubmit(std::move(task))) {
    (state->second)(ErrorResponse(
        state->first,
        Status::ResourceExhausted("control queue full: request shed")));
  }
}

}  // namespace net
}  // namespace treediff
