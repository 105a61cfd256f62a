#ifndef TREEDIFF_NET_FRONTEND_H_
#define TREEDIFF_NET_FRONTEND_H_

#include <functional>
#include <string>
#include <utility>

#include "net/wire.h"
#include "service/diff_service.h"
#include "util/thread_pool.h"

namespace treediff {
namespace net {

/// Executes decoded wire requests against a DiffService — the one place
/// opcode semantics live. The epoll server (net/server.h) is its only
/// caller; every serving verb is a wire opcode.
///
/// Diff work rides the service's own async Submit path (its worker pool);
/// control operations (open/commit/metrics/status) run on the small control
/// pool passed in, so a slow store commit never blocks an event-loop thread.
/// `done` is invoked exactly once per Execute, on a service worker, a
/// control-pool thread, or inline (ping; shed at admission; pool rejected).
class Frontend {
 public:
  using Done = std::function<void(WireResponse)>;

  /// Both pointers are borrowed and must outlive the frontend. A kOpen
  /// with n replicas keeps its logs at `store_dir`/<doc_id>.r<i>.log, and
  /// recovers the group when any of those logs is already there.
  Frontend(DiffService* service, ThreadPool* control_pool,
           std::string store_dir)
      : service_(service),
        control_pool_(control_pool),
        store_dir_(std::move(store_dir)) {}

  void Execute(WireRequest request, Done done);

  /// An error response echoing the request's correlation fields.
  static WireResponse ErrorResponse(const WireRequest& request,
                                    const Status& status);

 private:
  void ExecuteControl(WireRequest request, Done done);
  /// Creates or recovers the store; returns its head version.
  StatusOr<int> Open(const WireRequest& request);
  std::string RenderStatus();

  DiffService* service_;
  ThreadPool* control_pool_;
  std::string store_dir_;
};

}  // namespace net
}  // namespace treediff

#endif  // TREEDIFF_NET_FRONTEND_H_
