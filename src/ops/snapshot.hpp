#pragma once
// Versioned, checksummed, crash-safe serialization of ops::ServerState,
// sealed and saved through common/durable_file.hpp like the v2 tuning
// cache. Any version/checksum/parse failure rejects the whole file: a
// damaged snapshot falls back to cold start, never to a half-restored
// registry.
//
// The format is line-based text: doubles are printed as C99 hex floats
// (%a), which round-trip exactly and make save -> load -> save
// byte-stable; strings are %-escaped; tenants and dedup entries are
// written in sorted order so serialization is a pure function of the
// state. docs/OPERATIONS.md documents the grammar.

#include <string>

#include "ops/state.hpp"

namespace tda::ops {

/// Header prefix of the current snapshot format. The 16 hex digits
/// after "checksum=" are FNV-1a-64 over every byte after the header
/// line's newline.
inline constexpr char kSnapshotHeader[] =
    "# tridiag_ops snapshot v1 checksum=";

/// Serializes `state` to the exact bytes save_snapshot would write
/// (header included). Exposed for the byte-stability property test.
std::string serialize_snapshot(const ServerState& state);

/// Parses snapshot bytes. Returns true and fills `out` only when the
/// header, checksum and every record parse; any damage rejects the
/// whole file and leaves `out` untouched. `why` (optional) gets a
/// one-line diagnostic on failure.
bool parse_snapshot(const std::string& bytes, ServerState* out,
                    std::string* why = nullptr);

/// Writes atomically (replace_file_atomic). Returns false, with `path`
/// untouched and no temp file left, when any step fails.
bool save_snapshot(const std::string& path, const ServerState& state,
                   std::string* why = nullptr);

/// Loads `path`. A missing file, a short read, or any parse/checksum
/// failure returns false with `out` untouched — the caller cold-starts.
/// The faults::Site::CacheCorrupt hook (TDA_FAULTS cache_corrupt=...)
/// can flip bits between disk and the parser, same as the tuning cache.
bool load_snapshot(const std::string& path, ServerState* out,
                   std::string* why = nullptr);

}  // namespace tda::ops
