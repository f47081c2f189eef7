#pragma once
// Persistent store for tuned switch points, keyed by
// (device, precision, workload shape) — the paper's "save those results
// for future runs". Plain text, one record per line.
//
// Thread-safe: every member takes an internal mutex, so one cache can be
// shared by concurrent solver workers (the solve service shares a single
// cache across all its devices). Saves are atomic
// (common/durable_file.hpp), so a reader never observes a half-written
// cache and a failed save keeps the previous file. save_merged()
// additionally folds in records that another process/instance has
// persisted since we loaded, keeping multiple writers of one cache_path
// from clobbering each other.

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "solver/switch_points.hpp"

namespace tda::tuning {

/// One cached tuning record.
struct CacheEntry {
  solver::SwitchPoints points;
  double tuned_ms = 0.0;  ///< best simulated time observed while tuning
};

class TuningCache {
 public:
  /// Builds the canonical cache key.
  static std::string make_key(const std::string& device_name,
                              std::size_t elem_bytes, std::size_t m,
                              std::size_t n);

  [[nodiscard]] std::optional<CacheEntry> find(const std::string& key) const;
  void store(const std::string& key, const CacheEntry& entry);
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Snapshot of every record (copy; callers need no lock discipline).
  [[nodiscard]] std::map<std::string, CacheEntry> snapshot() const;

  /// Serialisation. load() merges into the current contents and returns
  /// the number of records read (0 for a missing file). save() replaces
  /// the file atomically (temp file + rename).
  ///
  /// The on-disk format carries a version + FNV-1a checksum header; a
  /// file whose header or checksum fails verification is rejected WHOLE
  /// (no partial cache — the tuner falls back to re-tuning), while
  /// individual malformed records of an intact file are counted,
  /// log-warned and skipped. Legacy v1 files load without a checksum.
  std::size_t load(const std::string& path);
  bool save(const std::string& path) const;

  /// Atomic save that first merges records already on disk: keys we hold
  /// win, keys only the file holds are kept. This is what lets two
  /// solvers pointed at the same cache_path both persist their tunings.
  bool save_merged(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, CacheEntry> entries_;
};

}  // namespace tda::tuning
