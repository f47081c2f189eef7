#include "common/buffer_pool.hpp"

#include <cstdlib>
#include <cstring>
#include <new>

#include "common/alloc_stats.hpp"
#include "common/aligned_buffer.hpp"
#include "common/cli.hpp"

namespace tda {

void PoolBlock::reset() {
  if (pool_ != nullptr) pool_->release(data_, capacity_);
  pool_ = nullptr;
  data_ = nullptr;
  capacity_ = 0;
}

BufferPool& BufferPool::global() {
  static BufferPool* pool = [] {
    auto* p = new BufferPool();
    p->set_poison(env_flag("TDA_POOL_POISON"));
    return p;
  }();
  return *pool;
}

BufferPool::BufferPool(std::size_t max_cached_bytes)
    : max_cached_bytes_(max_cached_bytes) {}

BufferPool::~BufferPool() { trim(); }

std::size_t BufferPool::size_class(std::size_t bytes) {
  constexpr std::size_t kClass = 4096;
  if (bytes == 0) return 0;
  return (bytes + kClass - 1) / kClass * kClass;
}

PoolBlock BufferPool::acquire(std::size_t bytes) {
  if (bytes == 0) return {};
  const std::size_t cls = size_class(bytes);
  std::byte* data = nullptr;
  bool fill_poison = false;
  {
    std::lock_guard lk(mu_);
    ++stats_.acquires;
    auto it = free_.find(cls);
    if (it != free_.end() && !it->second.empty()) {
      data = it->second.back();
      it->second.pop_back();
      stats_.cached_bytes -= cls;
      --stats_.cached_buffers;
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    stats_.outstanding_bytes += cls;
    fill_poison = poison_;
  }
  if (data == nullptr) {
    void* p = std::aligned_alloc(kCacheLineBytes, cls);
    if (p == nullptr) throw std::bad_alloc{};
    note_host_alloc();
    data = static_cast<std::byte*>(p);
  }
  if (fill_poison) std::memset(data, 0xFF, cls);
  return PoolBlock(this, data, cls);
}

void BufferPool::release(std::byte* data, std::size_t capacity) {
  if (data == nullptr) return;
  {
    std::lock_guard lk(mu_);
    ++stats_.releases;
    stats_.outstanding_bytes -= capacity;
    if (stats_.cached_bytes + capacity <= max_cached_bytes_) {
      free_[capacity].push_back(data);
      stats_.cached_bytes += capacity;
      ++stats_.cached_buffers;
      return;
    }
    ++stats_.evictions;
  }
  std::free(data);
}

void BufferPool::trim() {
  std::unordered_map<std::size_t, std::vector<std::byte*>> doomed;
  {
    std::lock_guard lk(mu_);
    doomed.swap(free_);
    stats_.cached_bytes = 0;
    stats_.cached_buffers = 0;
  }
  for (auto& [cls, list] : doomed) {
    for (std::byte* p : list) std::free(p);
  }
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

void BufferPool::set_poison(bool on) {
  std::lock_guard lk(mu_);
  poison_ = on;
}

bool BufferPool::poison() const {
  std::lock_guard lk(mu_);
  return poison_;
}

}  // namespace tda
