#pragma once
// Pooled host-buffer allocator (docs/PERFORMANCE.md).
//
// The service hot path used to pay malloc + zero-fill for the 9·m·n
// device-batch arrays of EVERY coalesced solve. The pool keeps released
// buffers on free-lists keyed by size class (bytes rounded up to 4 KiB),
// so repeated flushes of the same shape reuse one warm slab instead.
//
// Scope: the pool replaces only the HOST allocation underneath
// device-side buffers. Device *budget* accounting is unchanged — a
// kernels::DeviceBatch still claims its logical 9·m·n·sizeof(T)
// footprint through gpusim::MemoryTracker before acquiring its slab, so
// OOM/chunking behavior is byte-for-byte what it was (ROBUSTNESS.md).
//
// Pooled memory is returned dirty by design (re-zeroing would restore
// the churn this kills); acquirers that need cleared memory clear it
// themselves. TDA_POOL_POISON=1 fills every acquired block with 0xFF
// (a NaN pattern for float/double) so tests can prove the solve
// pipeline fully overwrites what it reads. Cached idle bytes are capped
// at kDefaultMaxCachedBytes (512 MiB).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace tda {

class BufferPool;

/// RAII handle to one pooled allocation: returns the memory to its pool
/// on destruction. Movable, not copyable; a default-constructed handle
/// owns nothing. The pool must outlive its blocks (the global pool is
/// immortal).
class PoolBlock {
 public:
  PoolBlock() = default;
  ~PoolBlock() { reset(); }

  PoolBlock(PoolBlock&& other) noexcept
      : pool_(other.pool_), data_(other.data_), capacity_(other.capacity_) {
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  PoolBlock& operator=(PoolBlock&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.pool_ = nullptr;
      other.data_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }
  PoolBlock(const PoolBlock&) = delete;
  PoolBlock& operator=(const PoolBlock&) = delete;

  [[nodiscard]] std::byte* data() const { return data_; }
  /// Usable bytes (the size class, >= the requested size).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] explicit operator bool() const { return data_ != nullptr; }

  void reset();

 private:
  friend class BufferPool;
  PoolBlock(BufferPool* pool, std::byte* data, std::size_t capacity)
      : pool_(pool), data_(data), capacity_(capacity) {}

  BufferPool* pool_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Thread-safe free-list allocator keyed by size class.
class BufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t hits = 0;       ///< served from a free-list
    std::uint64_t misses = 0;     ///< fresh aligned_alloc
    std::uint64_t releases = 0;
    std::uint64_t evictions = 0;  ///< freed on release (cache full)
    std::size_t cached_bytes = 0;
    std::size_t cached_buffers = 0;
    std::size_t outstanding_bytes = 0;  ///< live PoolBlock capacity

    /// hits / acquires; 0 before the first acquire.
    [[nodiscard]] double hit_rate() const {
      return acquires > 0 ? static_cast<double>(hits) /
                                static_cast<double>(acquires)
                          : 0.0;
    }
  };

  /// The process-wide pool (TDA_POOL_POISON configured; intentionally
  /// immortal so teardown order cannot strand blocks).
  static BufferPool& global();

  /// Caps cached (idle) bytes; 0 caches nothing (every release frees).
  explicit BufferPool(std::size_t max_cached_bytes = kDefaultMaxCachedBytes);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A 64-byte-aligned block of at least `bytes` (contents dirty unless
  /// poison is on). bytes == 0 returns an empty handle.
  PoolBlock acquire(std::size_t bytes);

  /// Frees every cached buffer.
  void trim();

  [[nodiscard]] Stats stats() const;

  /// Fill acquired blocks with 0xFF (test instrumentation).
  void set_poison(bool on);
  [[nodiscard]] bool poison() const;

  /// Size class of a request: bytes rounded up to a 4 KiB multiple.
  [[nodiscard]] static std::size_t size_class(std::size_t bytes);

  static constexpr std::size_t kDefaultMaxCachedBytes =
      std::size_t{512} * 1024 * 1024;

 private:
  friend class PoolBlock;
  void release(std::byte* data, std::size_t capacity);

  mutable std::mutex mu_;
  std::unordered_map<std::size_t, std::vector<std::byte*>> free_;
  const std::size_t max_cached_bytes_;
  bool poison_ = false;
  Stats stats_;
};

}  // namespace tda
