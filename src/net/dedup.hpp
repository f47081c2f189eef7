#pragma once
// Per-tenant idempotency dedup cache (docs/NET.md, docs/ROBUSTNESS.md).
//
// A v2 client mints an idempotency key per logical request and reuses
// it verbatim when it resends after a reconnect. The front door runs
// every keyed Solve through this cache so a resend whose original is
// still executing joins it as a waiter, and a resend whose original
// already finished gets the cached result — the device never executes
// the same key twice. Entries are scoped (tenant, key): one tenant can
// never observe another tenant's cached solution, even on key collision.
//
// The cache is bounded two ways: completed entries expire after a TTL,
// and total retained result bytes are capped with oldest-completed-first
// eviction. An evicted key that is resent re-executes (correct, just no
// longer deduplicated); `evictions` makes that visible.
//
// Single-threaded by design — the front door's poll thread owns it, the
// same way it owns the DRR lanes. No locks.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace tda::net {

struct DedupConfig {
  double ttl_ms = 30'000.0;          ///< completed-entry lifetime
  std::size_t max_bytes = 16 << 20;  ///< cap on retained result bytes
  std::size_t max_entries = 4096;    ///< cap on total entries
};

struct DedupStats {
  std::uint64_t inserts = 0;      ///< fresh keys that began tracking
  std::uint64_t hits = 0;         ///< resends served from a completed entry
  std::uint64_t joins = 0;        ///< resends attached to an in-flight entry
  std::uint64_t evictions = 0;    ///< completed entries dropped (TTL or cap)
  std::uint64_t duplicate_executions = 0;  ///< executions of an already-
                                           ///< executed key (must stay 0)
  std::uint64_t mismatches = 0;   ///< key reused for a different payload
  std::size_t bytes = 0;          ///< retained result bytes right now
  std::size_t entries = 0;        ///< live entries right now
};

/// Bucket hash of a (tenant, key) slot. The client picks the key, so the
/// tenant id is mixed in too. Exposed for tests.
inline std::uint64_t dedup_key_hash(std::uint64_t tenant_id,
                                    std::uint64_t key) {
  return mix64(key + kSplitMixGamma * tenant_id);
}

/// Resp is whatever the owner wants replayed to a duplicate requester
/// (the front door stores the full solve response). Waiter identifies a
/// parked duplicate request awaiting the in-flight original.
template <typename Resp>
class DedupCache {
 public:
  struct Waiter {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
  };

  enum class State {
    Fresh,     ///< never seen; caller should execute (entry now in-flight)
    InFlight,  ///< original still executing; park as a waiter
    Completed, ///< result cached; replay it
    Mismatch,  ///< key known but for a *different* payload — reject
  };

  explicit DedupCache(DedupConfig cfg = {}) : cfg_(cfg) {}

  /// Looks up (tenant, key) and inserts an in-flight entry on a miss.
  /// `payload_hash` fingerprints the request bytes: a resend must be
  /// byte-identical to its original, so a known key whose stored hash
  /// differs returns Mismatch (the front door answers KeyReuse) — a
  /// client bug must not be laundered into a silent wrong replay.
  State begin(std::uint64_t tenant_id, std::uint64_t key,
              std::uint64_t payload_hash, double now_ms) {
    sweep(now_ms);
    auto [it, inserted] = entries_.try_emplace(Key{tenant_id, key});
    if (inserted) {
      ++stats_.inserts;
      it->second.payload_hash = payload_hash;
      stats_.entries = entries_.size();
      return State::Fresh;
    }
    if (it->second.payload_hash != payload_hash) {
      ++stats_.mismatches;
      return State::Mismatch;
    }
    if (it->second.completed) {
      ++stats_.hits;
      return State::Completed;
    }
    ++stats_.joins;
    return State::InFlight;
  }

  /// Parks a duplicate request on the in-flight entry.
  void add_waiter(std::uint64_t tenant_id, std::uint64_t key, Waiter w) {
    auto it = entries_.find(Key{tenant_id, key});
    if (it != entries_.end() && !it->second.completed)
      it->second.waiters.push_back(w);
  }

  /// Records that the key's work was actually submitted for execution.
  /// Returns the number of *prior* executions — any nonzero return is a
  /// dedup bug and is tallied in duplicate_executions.
  std::uint64_t mark_executed(std::uint64_t tenant_id, std::uint64_t key) {
    auto it = entries_.find(Key{tenant_id, key});
    if (it == entries_.end()) return 0;
    const std::uint64_t prior = it->second.executions++;
    if (prior > 0) ++stats_.duplicate_executions;
    return prior;
  }

  /// Detaches and returns the waiters parked on (tenant, key) without
  /// changing the entry's state — the owner encodes the response for
  /// each recipient first, then calls complete() or abandon().
  std::vector<Waiter> take_waiters(std::uint64_t tenant_id,
                                   std::uint64_t key) {
    auto it = entries_.find(Key{tenant_id, key});
    if (it == entries_.end()) return {};
    std::vector<Waiter> waiters = std::move(it->second.waiters);
    it->second.waiters.clear();
    return waiters;
  }

  /// Transitions in-flight → completed and returns the parked waiters
  /// (the caller replays `resp` to each). `bytes` is the retained size
  /// charged against the cap.
  std::vector<Waiter> complete(std::uint64_t tenant_id, std::uint64_t key,
                               Resp resp, std::size_t bytes,
                               double now_ms) {
    auto it = entries_.find(Key{tenant_id, key});
    if (it == entries_.end()) return {};
    Entry& e = it->second;
    std::vector<Waiter> waiters = std::move(e.waiters);
    e.waiters.clear();
    e.resp = std::move(resp);
    e.bytes = bytes;
    e.completed = true;
    e.completed_at_ms = now_ms;
    stats_.bytes += bytes;
    fifo_.push_back(it->first);
    shrink_to_caps();
    stats_.entries = entries_.size();
    return waiters;
  }

  /// Drops a tracked key without caching anything — used when admission
  /// rejects the request or the outcome is retryable (shed/timeout), so
  /// a client retry legitimately re-executes. Returns the waiters that
  /// were parked on it (they receive the same terminal error).
  std::vector<Waiter> abandon(std::uint64_t tenant_id, std::uint64_t key) {
    auto it = entries_.find(Key{tenant_id, key});
    if (it == entries_.end()) return {};
    std::vector<Waiter> waiters = std::move(it->second.waiters);
    if (it->second.completed) stats_.bytes -= it->second.bytes;
    entries_.erase(it);
    stats_.entries = entries_.size();
    return waiters;
  }

  /// Completed result for (tenant, key), or nullptr.
  const Resp* lookup(std::uint64_t tenant_id, std::uint64_t key) const {
    auto it = entries_.find(Key{tenant_id, key});
    if (it == entries_.end() || !it->second.completed) return nullptr;
    return &it->second.resp;
  }

  /// Expires completed entries older than the TTL.
  void sweep(double now_ms) {
    while (!fifo_.empty()) {
      auto it = entries_.find(fifo_.front());
      if (it == entries_.end() || !it->second.completed) {
        fifo_.pop_front();  // stale fifo ref (abandoned/evicted earlier)
        continue;
      }
      if (now_ms - it->second.completed_at_ms < cfg_.ttl_ms) break;
      evict(it);
    }
    stats_.entries = entries_.size();
  }

  /// Visits every completed entry (snapshot export). `fn` receives
  /// (tenant_id, key, payload_hash, resp, bytes). Iteration order is
  /// unspecified; the snapshot writer sorts.
  template <typename Fn>
  void for_each_completed(Fn&& fn) const {
    for (const auto& [k, e] : entries_) {
      if (e.completed) fn(k.tenant_id, k.key, e.payload_hash, e.resp,
                          e.bytes);
    }
  }

  /// Inserts a completed entry wholesale (snapshot import on restart).
  /// The entry behaves exactly like one that completed at `now_ms`:
  /// executions counts 1 so a post-restart re-execution of the key
  /// would tally as a duplicate. Existing keys are left untouched.
  void seed_completed(std::uint64_t tenant_id, std::uint64_t key,
                      std::uint64_t payload_hash, Resp resp,
                      std::size_t bytes, double now_ms) {
    auto [it, inserted] = entries_.try_emplace(Key{tenant_id, key});
    if (!inserted) return;
    Entry& e = it->second;
    e.resp = std::move(resp);
    e.payload_hash = payload_hash;
    e.bytes = bytes;
    e.executions = 1;
    e.completed = true;
    e.completed_at_ms = now_ms;
    stats_.bytes += bytes;
    stats_.entries = entries_.size();
    fifo_.push_back(it->first);
    shrink_to_caps();
  }

  const DedupStats& stats() const { return stats_; }

 private:
  struct Key {
    std::uint64_t tenant_id = 0;
    std::uint64_t key = 0;
    bool operator==(const Key& o) const {
      return tenant_id == o.tenant_id && key == o.key;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(dedup_key_hash(k.tenant_id, k.key));
    }
  };
  struct Entry {
    Resp resp{};
    std::vector<Waiter> waiters;
    std::size_t bytes = 0;
    std::uint64_t executions = 0;
    std::uint64_t payload_hash = 0;
    double completed_at_ms = 0.0;
    bool completed = false;
  };

  using Map = std::unordered_map<Key, Entry, KeyHash>;

  void evict(typename Map::iterator it) {
    stats_.bytes -= it->second.bytes;
    ++stats_.evictions;
    entries_.erase(it);
    if (!fifo_.empty()) fifo_.pop_front();
  }

  /// Oldest-completed-first eviction down to the byte/entry caps.
  /// In-flight entries are never evicted — they pin no result bytes and
  /// dropping one would orphan its waiters.
  void shrink_to_caps() {
    while ((stats_.bytes > cfg_.max_bytes ||
            entries_.size() > cfg_.max_entries) &&
           !fifo_.empty()) {
      auto it = entries_.find(fifo_.front());
      if (it == entries_.end() || !it->second.completed) {
        fifo_.pop_front();
        continue;
      }
      evict(it);
    }
  }

  DedupConfig cfg_;
  Map entries_;
  std::deque<Key> fifo_;  ///< completion order, oldest first
  DedupStats stats_;
};

}  // namespace tda::net
