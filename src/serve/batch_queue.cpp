#include "serve/batch_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gemmtune::serve {

BatchQueue::BatchQueue(int max_batch, int queue_capacity)
    : max_batch_(static_cast<std::size_t>(max_batch)),
      capacity_(static_cast<std::size_t>(queue_capacity)) {
  check(max_batch >= 1, "BatchQueue: max_batch must be >= 1");
  check(queue_capacity >= 1, "BatchQueue: queue_capacity must be >= 1");
}

bool BatchQueue::admit(const GemmRequest& r) {
  if (depth_ >= capacity_) return false;
  peak_depth_ = std::max(peak_depth_, ++depth_);
  groups_[ShapeClass::of(r)].push_back(r);
  return true;
}

void BatchQueue::skim_expired(std::deque<GemmRequest>& q, double clock,
                              std::vector<GemmRequest>& expired) {
  while (!q.empty() && q.front().expired_at(clock)) {
    expired.push_back(q.front());
    q.pop_front();
    --depth_;
  }
}

std::vector<GroupView> BatchQueue::group_views(
    double clock, std::vector<GemmRequest>& expired) {
  std::vector<GroupView> views;
  for (auto it = groups_.begin(); it != groups_.end();) {
    skim_expired(it->second, clock, expired);
    if (it->second.empty()) {
      it = groups_.erase(it);
      continue;
    }
    views.push_back({it->first, it->second.front(), it->second.size()});
    ++it;
  }
  // Dispatch order. Head ids are unique across groups, so this is a total
  // order.
  std::sort(views.begin(), views.end(),
            [](const GroupView& a, const GroupView& b) {
              if (a.head.priority != b.head.priority)
                return a.head.priority > b.head.priority;
              if (a.head.arrival_seconds != b.head.arrival_seconds)
                return a.head.arrival_seconds < b.head.arrival_seconds;
              return a.head.id < b.head.id;
            });
  return views;
}

std::optional<PendingBatch> BatchQueue::pop_from(
    const ShapeClass& shape, double clock, std::size_t max_take,
    std::vector<GemmRequest>& expired) {
  const auto it = groups_.find(shape);
  if (it == groups_.end()) return std::nullopt;
  auto& q = it->second;
  const std::size_t limit =
      std::min(max_batch_, std::max<std::size_t>(max_take, 1));
  PendingBatch batch{shape, {}};
  while (!q.empty() && batch.requests.size() < limit) {
    if (q.front().expired_at(clock))
      expired.push_back(q.front());
    else
      batch.requests.push_back(q.front());
    q.pop_front();
    --depth_;
  }
  if (q.empty()) groups_.erase(it);
  if (batch.requests.empty()) return std::nullopt;
  return batch;
}

}  // namespace gemmtune::serve
