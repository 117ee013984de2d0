#include "serve/sharded_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gemmtune::serve {

ShardedQueue::ShardedQueue(int shards, int max_batch, int queue_capacity)
    : max_batch_(max_batch),
      capacity_(static_cast<std::size_t>(queue_capacity)) {
  check(shards >= 1, "ShardedQueue: shards must be >= 1");
  check(max_batch_ >= 1, "ShardedQueue: max_batch must be >= 1");
  check(queue_capacity >= 1, "ShardedQueue: queue_capacity must be >= 1");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::size_t ShardedQueue::shard_of(const ShapeClass& s) const {
  return static_cast<std::size_t>(shape_class_hash(s) % shards_.size());
}

bool ShardedQueue::admit(const GemmRequest& r) {
  // Reserve a depth slot first (the global capacity check), then insert
  // under the owning shard's lock. The reservation makes the admission
  // decision a pure function of the arrival sequence — it cannot depend on
  // which shard the request hashes to.
  std::size_t d = depth_.load(std::memory_order_relaxed);
  for (;;) {
    if (d >= capacity_) return false;
    if (depth_.compare_exchange_weak(d, d + 1, std::memory_order_relaxed))
      break;
  }
  std::size_t peak = peak_depth_.load(std::memory_order_relaxed);
  while (peak < d + 1 &&
         !peak_depth_.compare_exchange_weak(peak, d + 1,
                                            std::memory_order_relaxed)) {
  }
  Shard& sh = *shards_[shard_of(ShapeClass::of(r))];
  std::lock_guard<std::mutex> lock(sh.mu);
  sh.groups[ShapeClass::of(r)].push_back(r);
  return true;
}

void ShardedQueue::release(std::size_t n) {
  if (n > 0) depth_.fetch_sub(n, std::memory_order_relaxed);
}

void ShardedQueue::skim_expired(std::deque<GemmRequest>& q, double clock,
                                std::vector<GemmRequest>& expired) {
  std::size_t dropped = 0;
  while (!q.empty() && q.front().expired_at(clock)) {
    expired.push_back(q.front());
    q.pop_front();
    ++dropped;
  }
  release(dropped);
}

std::vector<GroupView> ShardedQueue::group_views(
    double clock, std::vector<GemmRequest>& expired) {
  std::vector<GroupView> views;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->groups.begin(); it != shard->groups.end();) {
      skim_expired(it->second, clock, expired);
      if (it->second.empty()) {
        it = shard->groups.erase(it);
        continue;
      }
      views.push_back({it->first, it->second.front(), it->second.size()});
      ++it;
    }
  }
  // Dispatch order. Head ids are unique across groups, so this is a total
  // order — the merge is independent of the shard walk above.
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

std::optional<PendingBatch> ShardedQueue::pop_from(
    const ShapeClass& shape, double clock, std::size_t max_take,
    std::vector<GemmRequest>& expired) {
  Shard& sh = *shards_[shard_of(shape)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.groups.find(shape);
  if (it == sh.groups.end()) return std::nullopt;
  auto& q = it->second;
  const std::size_t limit =
      std::min(static_cast<std::size_t>(max_batch_),
               std::max<std::size_t>(max_take, 1));
  PendingBatch batch{shape, {}};
  std::size_t popped = 0;
  while (!q.empty() && batch.requests.size() < limit) {
    if (q.front().expired_at(clock))
      expired.push_back(q.front());
    else
      batch.requests.push_back(q.front());
    q.pop_front();
    ++popped;
  }
  if (q.empty()) sh.groups.erase(it);
  release(popped);
  if (batch.requests.empty()) return std::nullopt;
  return batch;
}

}  // namespace gemmtune::serve
