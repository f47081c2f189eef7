#pragma once
// Plain-data image of everything the server must remember across a
// process boundary: tenant registry + quota state, the completed half
// of the per-tenant dedup cache (with payload hashes, so a resend under
// a reused key can be told apart from a replay), AIMD window state, and
// the dedup counters whose continuity the exactly-once gate asserts
// across generations. ops::save_snapshot/load_snapshot (snapshot.hpp)
// serialize this struct; net::FrontDoor::export_state/import_state
// convert it to and from live poll-thread state.
//
// Everything is stored dtype-erased (solutions as doubles — float
// narrows losslessly back, since every float is exactly representable
// as a double), so one snapshot format serves both instantiations.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/tenant.hpp"

namespace tda::ops {

/// One tenant's persisted registry row: static config, tombstone, usage
/// counters, and the poll-thread AIMD window.
struct TenantState {
  net::TenantConfig cfg;
  bool disabled = false;
  double aimd_limit = 0.0;  ///< 0 = leave the lane's window at default
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
};

/// One completed dedup entry: enough of the SolveResponse to replay the
/// exact wire reply to a reconnecting client's byte-identical resend.
struct DedupEntryState {
  std::string tenant;  ///< registry name (pointers don't survive exec)
  std::uint64_t key = 0;
  std::uint64_t payload_hash = 0;
  int status = 0;  ///< service::SolveStatus as int
  std::string error;
  std::string device;
  std::vector<double> x;
  double solve_ms = 0.0;
  double wait_ms = 0.0;
  std::uint64_t batch_systems = 0;
  std::uint64_t retries = 0;
  std::uint64_t chunks = 0;
  bool fallback_used = false;
};

/// Dedup counters persisted so "duplicate_executions == 0 across the
/// generation boundary" is checkable from the new generation alone.
struct DedupStatsState {
  std::uint64_t inserts = 0;
  std::uint64_t hits = 0;
  std::uint64_t joins = 0;
  std::uint64_t evictions = 0;
  std::uint64_t duplicate_executions = 0;
};

/// The whole snapshot. `saved_unix_ms` is data, not metadata: load
/// preserves it, so save -> load -> save is byte-stable.
struct ServerState {
  std::uint64_t generation = 1;
  double saved_unix_ms = 0.0;
  DedupStatsState dedup_stats;
  std::vector<TenantState> tenants;
  std::vector<DedupEntryState> entries;
};

}  // namespace tda::ops
