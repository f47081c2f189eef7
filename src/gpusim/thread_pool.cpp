#include "gpusim/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.hpp"
#include "common/cli.hpp"

namespace tda::gpusim {

namespace {
/// Set while the thread is executing a pool job: a reentrant run()
/// from inside a job executes inline instead of deadlocking on itself.
thread_local bool t_in_pool_job = false;

/// TDA_PIN=1 requests best-effort CPU affinity for the worker lanes:
/// lane k is pinned to CPU (k mod ncpu), which keeps each lane's bump
/// arena and scratch chunks on the NUMA node that first touched them
/// and stops the scheduler migrating lanes mid-launch. Off by default;
/// a no-op (never an error) on platforms without pthread affinity.
bool pin_from_env() { return env_flag("TDA_PIN"); }

void pin_lane_to_cpu(std::thread& t, std::size_t lane) {
#if defined(__linux__)
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(lane % ncpu), &set);
  // Best effort: failure (cgroup restrictions, exotic kernels) leaves
  // the thread unpinned, which is exactly the TDA_PIN=0 behaviour.
  (void)pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)lane;
#endif
}
}  // namespace

// ---------------------------------------------------------------- scratch

EngineScratch& EngineScratch::local() {
  static thread_local EngineScratch scratch;
  return scratch;
}

std::byte* EngineScratch::shared_arena(std::size_t bytes) {
  if (shared_.size() < bytes) shared_.resize(bytes);
  return shared_.data();
}

void* EngineScratch::scratch_alloc(std::size_t bytes, std::size_t align) {
  TDA_REQUIRE(align >= 1 && align <= kCacheLineBytes,
              "scratch alignment out of range");
  for (; cursor_ < chunks_.size(); ++cursor_) {
    Chunk& c = chunks_[cursor_];
    const std::size_t off = (c.used + align - 1) / align * align;
    if (off + bytes <= c.buf.size()) {
      c.used = off + bytes;
      return c.buf.data() + off;
    }
  }
  // No chunk fits: append one (chunks at least double, so steady state
  // settles after a handful of launches and never allocates again).
  constexpr std::size_t kMinChunk = 64 * 1024;
  std::size_t cap = std::max(bytes, kMinChunk);
  if (!chunks_.empty()) cap = std::max(cap, 2 * chunks_.back().buf.size());
  Chunk c;
  c.buf.resize(cap);
  c.used = bytes;
  chunks_.push_back(std::move(c));
  cursor_ = chunks_.size() - 1;
  return chunks_.back().buf.data();
}

void EngineScratch::reset_scratch() {
  for (Chunk& c : chunks_) c.used = 0;
  cursor_ = 0;
}

std::size_t EngineScratch::scratch_capacity() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.buf.size();
  return total;
}

// ------------------------------------------------------------------- pool

int ThreadPool::lanes_from_env() {
  if (const char* env = std::getenv("TDA_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  // Intentionally leaked: service workers may still hold launches during
  // static destruction; a leaked pool sidesteps teardown ordering.
  static ThreadPool* pool = new ThreadPool(lanes_from_env());
  return *pool;
}

ThreadPool::ThreadPool(int lanes) { spawn(lanes); }

ThreadPool::~ThreadPool() { stop_workers(); }

int ThreadPool::lanes() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(threads_.size()) + 1;
}

int ThreadPool::workers() const {
  std::lock_guard lk(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::spawn(int lanes) {
  lanes = std::max(1, lanes);
  std::lock_guard lk(mu_);
  TDA_REQUIRE(threads_.empty(), "pool already has workers");
  lane_counters_.clear();
  for (int i = 0; i < lanes; ++i) {
    lane_counters_.push_back(std::make_unique<LaneCounters>());
  }
  const bool pin = pin_from_env();
  for (int i = 0; i < lanes - 1; ++i) {
    threads_.emplace_back([this, lane = static_cast<std::size_t>(i) + 1] {
      worker_loop(lane);
    });
    if (pin) {
      pin_lane_to_cpu(threads_.back(), static_cast<std::size_t>(i) + 1);
    }
  }
}

void ThreadPool::stop_workers() {
  std::vector<std::thread> doomed;
  {
    std::lock_guard lk(mu_);
    stop_ = true;
    doomed.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : doomed) {
    if (t.joinable()) t.join();
  }
  std::lock_guard lk(mu_);
  stop_ = false;
}

void ThreadPool::resize(int lanes) {
  {
    std::lock_guard lk(mu_);
    TDA_REQUIRE(jobs_.empty(), "cannot resize the pool mid-launch");
  }
  stop_workers();
  spawn(lanes);
}

void ThreadPool::run(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (workers() == 0 || count == 1 || t_in_pool_job) {
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    LaneCounters* caller = nullptr;
    {
      std::lock_guard lk(mu_);
      if (!lane_counters_.empty()) caller = lane_counters_[0].get();
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn(0, count);
    if (caller != nullptr) {
      const auto dt = std::chrono::steady_clock::now() - t0;
      caller->chunks.fetch_add(1, std::memory_order_relaxed);
      caller->busy_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                  .count()),
          std::memory_order_relaxed);
    }
    return;
  }
  parallel_runs_.fetch_add(1, std::memory_order_relaxed);

  auto job = std::make_shared<Job>();
  job->count = count;
  job->fn = &fn;
  // Chunks several times smaller than a lane's even share: blocks have
  // uneven cost (ragged tails, uneven stage-1 coverage), so finer grains
  // re-balance — while slot-ordered reduction keeps results exact.
  const std::size_t nlanes = static_cast<std::size_t>(lanes());
  job->chunk = std::max<std::size_t>(1, count / (nlanes * 8));
  LaneCounters* caller = nullptr;
  {
    std::lock_guard lk(mu_);
    jobs_.push_back(job);
    if (!lane_counters_.empty()) caller = lane_counters_[0].get();
  }
  cv_.notify_all();

  participate(*job, caller);

  std::unique_lock lk(job->m);
  job->done_cv.wait(lk, [&] {
    return job->next.load(std::memory_order_acquire) >= job->count &&
           job->running.load(std::memory_order_acquire) == 0;
  });
  lk.unlock();
  remove_job(job);
}

void ThreadPool::participate(Job& job, LaneCounters* counters) {
  const bool was_in_job = t_in_pool_job;
  t_in_pool_job = true;
  job.running.fetch_add(1, std::memory_order_acq_rel);
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_acq_rel);
    if (begin >= job.count) break;
    const std::size_t end = std::min(job.count, begin + job.chunk);
    const auto t0 = std::chrono::steady_clock::now();
    (*job.fn)(begin, end);
    if (counters != nullptr) {
      const auto dt = std::chrono::steady_clock::now() - t0;
      counters->chunks.fetch_add(1, std::memory_order_relaxed);
      counters->busy_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                  .count()),
          std::memory_order_relaxed);
    }
  }
  if (job.running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last lane out wakes the owner; the lock pairs with the owner's
    // predicate check so the notify cannot be missed.
    std::lock_guard lk(job.m);
    job.done_cv.notify_all();
  }
  t_in_pool_job = was_in_job;
}

void ThreadPool::remove_job(const std::shared_ptr<Job>& job) {
  std::lock_guard lk(mu_);
  auto it = std::find(jobs_.begin(), jobs_.end(), job);
  if (it != jobs_.end()) jobs_.erase(it);
}

void ThreadPool::worker_loop(std::size_t lane) {
  LaneCounters* counters = nullptr;
  {
    std::lock_guard lk(mu_);
    if (lane < lane_counters_.size()) {
      counters = lane_counters_[lane].get();
    }
  }
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
      if (stop_) return;
      job = jobs_.front();
      if (job->next.load(std::memory_order_acquire) >= job->count) {
        // Exhausted but not yet removed by its owner: skip it so the
        // queue cannot wedge on a drained job.
        jobs_.pop_front();
        continue;
      }
    }
    participate(*job, counters);
  }
}

std::vector<ThreadPool::LaneStats> ThreadPool::lane_stats() const {
  std::lock_guard lk(mu_);
  std::vector<LaneStats> out;
  out.reserve(lane_counters_.size());
  for (const auto& c : lane_counters_) {
    LaneStats s;
    s.chunks = c->chunks.load(std::memory_order_relaxed);
    s.busy_ms =
        static_cast<double>(c->busy_ns.load(std::memory_order_relaxed)) /
        1e6;
    out.push_back(s);
  }
  return out;
}

}  // namespace tda::gpusim
