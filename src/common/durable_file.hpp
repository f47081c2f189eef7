#pragma once
// Checksummed, atomically replaced files, shared by the v2 tuning cache
// and the ops snapshot. A sealed file is
// `header + %016llx(FNV-1a-64(body)) + '\n' + body`; any damaged byte
// fails verification and the caller rejects the whole file. A failed or
// interrupted save leaves the previous file in place.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/hash.hpp"

namespace tda {

/// One sealed-file format: the header line up to and including
/// "checksum=", and the FNV-1a-64 start state of its checksum.
struct SealedFormat {
  std::string_view header;
  std::uint64_t fnv_basis = kFnv64Basis;
};

/// `v` as exactly 16 lowercase hex digits: the checksum's spelling, and
/// that of 64-bit keys inside record bodies.
std::string fmt_hex64(std::uint64_t v);

/// Parses exactly 16 hex digits (either case); false on anything else.
bool parse_hex64(std::string_view digits, std::uint64_t* out);

/// The exact file bytes for `body` in format `fmt`.
std::string seal(const SealedFormat& fmt, std::string_view body);

/// Checks the header and checksum of `bytes`. Returns the body (a view
/// into `bytes`) when both hold; otherwise nullopt, with a one-line
/// reason in `why` when given.
std::optional<std::string_view> verify_sealed(const SealedFormat& fmt,
                                              std::string_view bytes,
                                              std::string* why = nullptr);

/// Replaces `path` with `bytes` through a unique temp file and a rename.
/// Returns false, removes the temp file and leaves `path` untouched
/// when opening, writing, closing or renaming fails.
bool replace_file_atomic(const std::string& path, std::string_view bytes,
                         std::string* why = nullptr);

}  // namespace tda
