// Shape-aware bounded admission queue: groups pending requests by
// ShapeClass and forms dispatch batches. The one queue of the serving
// layer, driven by GemmServer::run's single-threaded event loop.
//
// Design points (all load-bearing for the serve report's determinism):
//  * Bounded queue: admit() refuses requests once `queue_capacity` are
//    pending — the service's backpressure signal. The caller turns a
//    refusal into a RejectedQueueFull response instead of queueing
//    unboundedly.
//  * Deterministic selection: group_views() orders groups by head
//    priority (descending), then earliest arrival, then lowest request id.
//    Within a group requests leave in FIFO order. No wall-clock input
//    anywhere, so a replayed workload forms the identical batch sequence.
//  * Deadline enforcement at dispatch: requests whose deadline has passed
//    by the simulated clock are skimmed off into `expired` rather than
//    dispatched, charging the batch only for live work.
//  * pop_from() takes FIFO from one group, skims expired requests into
//    `expired` without counting them against the batch, and caps the take
//    at min(max_batch, max(max_take, 1)).
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "serve/request.hpp"

namespace gemmtune::serve {

/// A formed batch: same-shape-class requests served by one dispatch.
struct PendingBatch {
  ShapeClass shape;
  std::vector<GemmRequest> requests;
};

/// One pending group as seen by the dispatcher: its shape class, the
/// request at its head, and how many live requests queue behind it.
struct GroupView {
  ShapeClass shape;
  GemmRequest head;
  std::size_t size = 0;
};

class BatchQueue {
 public:
  BatchQueue(int max_batch, int queue_capacity);

  /// Admits a request; false when the depth bound is hit (backpressure).
  bool admit(const GemmRequest& r);

  std::size_t depth() const { return depth_; }
  std::size_t peak_depth() const { return peak_depth_; }
  bool empty() const { return depth_ == 0; }

  /// Skims deadline-expired requests off every group head into `expired`
  /// and returns the remaining groups in dispatch-priority order. The
  /// caller walks this list and decides, per group, whether a device is
  /// worth dispatching to now or the group should wait for a better
  /// device to free up.
  std::vector<GroupView> group_views(double clock,
                                     std::vector<GemmRequest>& expired);

  /// Pops up to `max_take` (>= 1) live requests of `shape` in FIFO order
  /// as one batch; requests past their deadline at `clock` are appended to
  /// `expired` without counting against the batch. Returns nullopt when
  /// the group has no live request left.
  std::optional<PendingBatch> pop_from(const ShapeClass& shape, double clock,
                                       std::size_t max_take,
                                       std::vector<GemmRequest>& expired);

 private:
  /// Pops expired requests off the front of `q`, releasing their depth.
  void skim_expired(std::deque<GemmRequest>& q, double clock,
                    std::vector<GemmRequest>& expired);

  std::map<ShapeClass, std::deque<GemmRequest>> groups_;
  std::size_t max_batch_;
  std::size_t capacity_;
  std::size_t depth_ = 0;
  std::size_t peak_depth_ = 0;
};

}  // namespace gemmtune::serve
