#pragma once
// The solve service's pending queue: requests admitted but not yet
// dispatched, bucketed by system size n so a bucket coalesces into one
// batched solve. It owns the pending count, the pending device bytes and
// the admission sequence numbers, and keeps them exact on every change.
// `Item` must carry `n` (the bucket key), `enqueue_tp`, `deadline_tp` and
// `seq` (stamped by push). Not synchronized: the service's mutex is.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

namespace tda::service {

template <typename Item>
class PendingQueue {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;
  /// Device-resident bytes one queued system of size n will need.
  using Footprint = std::size_t (*)(std::size_t n);

  explicit PendingQueue(Footprint footprint) : footprint_(footprint) {}

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  void push(Item item) {
    item.seq = next_seq_++;
    const std::size_t n = item.n;
    buckets_[n].push_back(std::move(item));
    grow(n);
  }

  /// Bucket keys holding requests, ascending.
  [[nodiscard]] std::vector<std::size_t> shapes() const {
    std::vector<std::size_t> out;
    for (const auto& kv : buckets_) out.push_back(kv.first);
    return out;
  }
  [[nodiscard]] std::size_t size(std::size_t n) const {
    const auto it = buckets_.find(n);
    return it == buckets_.end() ? 0 : it->second.size();
  }
  /// The oldest request of bucket n. Requires size(n) > 0.
  [[nodiscard]] const Item& front(std::size_t n) const {
    return buckets_.at(n).front();
  }

  /// Removes up to k requests from the front of bucket n, oldest first.
  std::vector<Item> take(std::size_t n, std::size_t k) {
    const auto it = buckets_.find(n);
    if (it == buckets_.end()) return {};
    auto& dq = it->second;
    const auto end =
        dq.begin() + static_cast<std::ptrdiff_t>(std::min(k, dq.size()));
    std::vector<Item> out(std::make_move_iterator(dq.begin()),
                          std::make_move_iterator(end));
    dq.erase(dq.begin(), end);
    shrink(it, out.size());
    return out;
  }

  /// Removes the globally oldest request (lowest sequence number).
  std::optional<Item> shed_oldest() {
    const auto oldest = std::min_element(
        buckets_.begin(), buckets_.end(), [](const auto& x, const auto& y) {
          return x.second.front().seq < y.second.front().seq;
        });
    if (oldest == buckets_.end()) return std::nullopt;
    std::optional<Item> victim(std::move(oldest->second.front()));
    oldest->second.pop_front();
    shrink(oldest, 1);
    return victim;
  }

  /// Removes every request whose deadline is at or before `now`.
  std::vector<Item> expire(TimePoint now) {
    std::vector<Item> out;
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      auto& dq = it->second;
      const std::size_t before = out.size();
      for (auto p = dq.begin(); p != dq.end();) {
        if (p->deadline_tp <= now) {
          out.push_back(std::move(*p));
          p = dq.erase(p);
        } else {
          ++p;
        }
      }
      it = shrink(it, out.size() - before);
    }
    return out;
  }

  /// Puts taken requests back at the front of their buckets, in their
  /// original order and with their sequence numbers.
  void requeue_front(std::vector<Item> items) {
    for (auto it = items.rbegin(); it != items.rend(); ++it) {
      const std::size_t n = it->n;
      buckets_[n].push_front(std::move(*it));
      grow(n);
    }
  }

  /// Earliest instant a trigger can fire: a bucket's oldest request
  /// reaching `interval` of age, or any deadline. max() when empty.
  [[nodiscard]] TimePoint next_wake(Clock::duration interval) const {
    TimePoint wake = TimePoint::max();
    for (const auto& [n, dq] : buckets_) {
      wake = std::min(wake, dq.front().enqueue_tp + interval);
      for (const auto& p : dq) wake = std::min(wake, p.deadline_tp);
    }
    return wake;
  }

 private:
  using Buckets = std::map<std::size_t, std::deque<Item>>;

  void grow(std::size_t n) {
    ++count_;
    bytes_ += footprint_(n);
  }
  /// Accounts k requests removed from `it`; erases the bucket once empty
  /// (no bucket is ever empty) and returns the next one.
  typename Buckets::iterator shrink(typename Buckets::iterator it,
                                    std::size_t k) {
    count_ -= k;
    bytes_ -= k * footprint_(it->first);
    return it->second.empty() ? buckets_.erase(it) : std::next(it);
  }

  Footprint footprint_;
  Buckets buckets_;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tda::service
