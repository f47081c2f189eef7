#pragma once
// Wire protocol of the solver front door (docs/NET.md).
//
// Frames are length-prefixed little-endian binary with a fixed 24-byte
// header:
//
//   offset  size  field
//        0     4  magic        0x50414454 ("TDAP")
//        4     2  version      1 or 2 (negotiated per connection)
//        6     2  type         FrameType
//        8     8  request_id   caller-chosen correlation id
//       16     4  payload_len  bytes following the header
//       20     4  checksum     FNV-1a-32 over header[0,20) + payload
//
// Version negotiation rides the handshake: Hello carries the client's
// highest supported version in the (formerly reserved) u16 after the
// token length, HelloOk echoes the negotiated version in the same
// slot. Legacy peers wrote 0 there, so 0 parses as "v1". Control
// frames (Hello/HelloOk/Goodbye) always use header version 1 so the
// handshake itself predates the negotiation it performs; only Solve
// (and the responses to a v2 Solve) use header version 2.
//
// v2 Solve payloads extend v1 with an absolute wall-clock deadline
// (milliseconds since the unix epoch; 0 = none) and a client-minted
// idempotency key (0 = none) that lets the server deduplicate
// reconnect-and-resend retries instead of re-executing them.
//
// The checksum rule (common/le_codec.hpp) changes on any single flipped
// byte in the covered range — the fuzz harness leans on that to assert
// "no mutated frame is ever accepted".
//
// decode_frame is strictly bounds-checked and allocation-free: it
// either needs more bytes, yields a view into the caller's buffer, or
// rejects the stream as corrupt (at which point the connection is
// unrecoverable — framing is lost). Payload parsers (parse_solve, ...)
// validate exact lengths before allocating anything.
//
// Dtype width is carried per Solve frame (4 = f32, 8 = f64); a server
// instantiated for one T rejects the other with ErrorCode::Dtype
// instead of guessing.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tda::net {

inline constexpr std::uint32_t kMagic = 0x50414454u;  // "TDAP" on the wire
inline constexpr std::uint16_t kVersion = 1;
/// Highest protocol version this build speaks (see negotiation notes
/// above). decode_frame accepts headers in [1, kMaxVersion].
inline constexpr std::uint16_t kVersion2 = 2;
inline constexpr std::uint16_t kMaxVersion = kVersion2;
inline constexpr std::size_t kHeaderSize = 24;
/// Hard ceiling a decoder enforces even when the caller passes a larger
/// limit — no payload_len may imply a buffer this large.
inline constexpr std::size_t kAbsoluteMaxPayload =
    std::size_t{1} << 30;  // 1 GiB

enum class FrameType : std::uint16_t {
  Hello = 1,    ///< client -> server: tenant auth token
  HelloOk = 2,  ///< server -> client: resolved tenant name
  Solve = 3,    ///< client -> server: one tridiagonal system
  SolveOk = 4,  ///< server -> client: solution
  SolveErr = 5, ///< server -> client: typed rejection / failure
  Goodbye = 6,  ///< either way: orderly close (empty payload)
};

/// Typed error codes carried by SolveErr frames.
enum class ErrorCode : std::uint16_t {
  None = 0,
  BadFrame = 1,      ///< malformed/corrupt frame; connection closes after
  AuthRequired = 2,  ///< Solve before a successful Hello
  AuthFailed = 3,    ///< Hello token matched no tenant
  Dtype = 4,         ///< dtype width does not match the server's T
  TooLarge = 5,      ///< n exceeds the server's per-request limit
  QuotaInflight = 6, ///< tenant at max in-flight systems
  QuotaBytes = 7,    ///< tenant at max in-flight decoded bytes
  QuotaRate = 8,     ///< tenant over requests_per_sec
  Draining = 9,      ///< server is draining; request not accepted
  Rejected = 10,     ///< service admission refused (queue/memory)
  Shed = 11,         ///< evicted by service backpressure
  TimedOut = 12,     ///< deadline lapsed before/while solving
  Failed = 13,       ///< the solve itself failed
  Singular = 14,     ///< system is numerically singular
  NonFinite = 15,    ///< system carried NaN/Inf coefficients
  Internal = 16,     ///< anything else
  DeadlineExpired = 17,  ///< absolute deadline already lapsed on arrival
  KeyReuse = 18,     ///< idempotency key reused for a different payload
};
inline constexpr std::size_t kErrorCodes = 19;  ///< one past the largest

/// Version the server agrees to speak given a Hello advertisement.
/// Legacy clients wrote 0 in the slot; both 0 and 1 negotiate to v1,
/// anything newer clamps to the highest version this build knows.
[[nodiscard]] constexpr std::uint16_t negotiate_version(
    std::uint16_t advertised) {
  if (advertised <= kVersion) return kVersion;
  return advertised < kMaxVersion ? advertised : kMaxVersion;
}

/// Wall-clock "now" as milliseconds since the unix epoch — the time
/// base of v2 absolute deadlines. Both ends of a connection are
/// assumed clock-synced to well under typical deadline budgets.
double unix_now_ms();

const char* to_string(FrameType t);
const char* to_string(ErrorCode c);

/// One decoded frame: a non-owning view into the receive buffer.
struct FrameView {
  FrameType type = FrameType::Goodbye;
  std::uint16_t version = kVersion;  ///< header version the peer sent
  std::uint64_t request_id = 0;
  std::string_view payload;
};

enum class DecodeStatus {
  NeedMore,  ///< buffer holds a frame prefix; read more bytes
  Ok,        ///< `frame` is valid; drop `consumed` bytes from the buffer
  Corrupt,   ///< framing is broken; close the connection
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::NeedMore;
  std::size_t consumed = 0;   ///< valid only when status == Ok
  FrameView frame;            ///< valid only when status == Ok
  const char* error = "";     ///< reason when status == Corrupt
};

/// Decodes the first frame of `buf` without allocating. `max_payload`
/// caps payload_len (clamped to kAbsoluteMaxPayload); anything larger
/// is Corrupt — the decoder never asks the caller to buffer unbounded
/// bytes on the say-so of an unauthenticated length field.
DecodeResult decode_frame(std::string_view buf, std::size_t max_payload);

// --- payload shapes -----------------------------------------------------

struct HelloFrame {
  std::string token;
  /// Highest protocol version the client speaks; 0 = legacy v1 client
  /// that predates negotiation.
  std::uint16_t advertised_version = 0;
  /// Client wall clock (unix ms) when the Hello was sent; rides an
  /// optional trailing f64 so legacy frames (without it) still parse.
  /// 0 / absent = client did not stamp one.
  double client_unix_ms = 0.0;
  bool has_timestamp = false;
};

struct HelloOkFrame {
  std::string tenant;
  /// Version the server agreed to; 0 = legacy v1 server.
  std::uint16_t negotiated_version = 0;
  /// Server wall clock (unix ms) when the HelloOk was sent — same
  /// optional trailing f64 as HelloFrame, letting the client estimate
  /// the clock offset from its own send/receive times.
  double server_unix_ms = 0.0;
  bool has_timestamp = false;
};

/// Solve payload, v1: u8 dtype_size, u8+u16 reserved, u32 n,
/// f64 deadline_ms (relative budget), then diagonals a,b,c and rhs d —
/// 4*n values of dtype_size bytes each.
///
/// v2 inserts f64 deadline_unix_ms (absolute, ms since unix epoch;
/// replaces the relative field) and u64 idem_key between the deadline
/// and the diagonals.
template <typename T>
struct SolveFrame {
  std::uint32_t n = 0;
  std::uint16_t version = kVersion;  ///< wire version this parsed from
  double deadline_ms = 0.0;       ///< v1 relative budget (0 = none)
  double deadline_unix_ms = 0.0;  ///< v2 absolute deadline (0 = none)
  std::uint64_t idem_key = 0;     ///< v2 idempotency key (0 = none)
  std::vector<T> a, b, c, d;
};

/// SolveOk payload: u8 dtype_size, u8 flags (bit0 = fallback_used),
/// u16 reserved, u32 n, u64 trace_id, f64 solve_ms, f64 wait_ms, then
/// n solution values.
template <typename T>
struct SolveOkFrame {
  std::uint32_t n = 0;
  std::uint64_t trace_id = 0;
  double solve_ms = 0.0;
  double wait_ms = 0.0;
  bool fallback_used = false;
  std::vector<T> x;
};

struct SolveErrFrame {
  ErrorCode code = ErrorCode::None;
  std::string message;
};

// --- encoders (append a complete frame to `out`) ------------------------

/// `client_unix_ms` != 0 appends the optional timestamp (see
/// HelloFrame) that lets the server estimate this connection's clock
/// skew and clamp implausible absolute deadlines.
void encode_hello(std::string& out, std::string_view token,
                  std::uint16_t advertised_version = kMaxVersion,
                  double client_unix_ms = 0.0);
void encode_hello_ok(std::string& out, std::string_view tenant,
                     std::uint16_t negotiated_version = 0,
                     double server_unix_ms = 0.0);
void encode_goodbye(std::string& out);
void encode_solve_err(std::string& out, std::uint64_t request_id,
                      ErrorCode code, std::string_view message,
                      std::uint16_t wire_version = kVersion);

template <typename T>
void encode_solve(std::string& out, std::uint64_t request_id,
                  const std::vector<T>& a, const std::vector<T>& b,
                  const std::vector<T>& c, const std::vector<T>& d,
                  double deadline_ms);

/// v2 Solve: absolute unix-epoch deadline (0 = none) + idempotency key
/// (0 = none). The frame header carries version 2.
template <typename T>
void encode_solve_v2(std::string& out, std::uint64_t request_id,
                     const std::vector<T>& a, const std::vector<T>& b,
                     const std::vector<T>& c, const std::vector<T>& d,
                     double deadline_unix_ms, std::uint64_t idem_key);

template <typename T>
void encode_solve_ok(std::string& out, std::uint64_t request_id,
                     const std::vector<T>& x, std::uint64_t trace_id,
                     double solve_ms, double wait_ms, bool fallback_used,
                     std::uint16_t wire_version = kVersion);

// --- payload parsers (nullopt on any shape violation) -------------------

std::optional<HelloFrame> parse_hello(std::string_view payload);
std::optional<HelloOkFrame> parse_hello_ok(std::string_view payload);
std::optional<SolveErrFrame> parse_solve_err(std::string_view payload);

/// Peeks the dtype width of a Solve payload (0 when too short).
std::uint8_t solve_dtype(std::string_view payload);

/// Parses a Solve payload at the given wire version (taken from the
/// frame header). The one-argument form parses v1 — existing callers
/// and tests keep their meaning.
template <typename T>
std::optional<SolveFrame<T>> parse_solve(std::string_view payload,
                                         std::uint16_t version);

template <typename T>
std::optional<SolveFrame<T>> parse_solve(std::string_view payload) {
  return parse_solve<T>(payload, kVersion);
}

template <typename T>
std::optional<SolveOkFrame<T>> parse_solve_ok(std::string_view payload);

/// Per-request decoded-payload bytes a Solve of size n pins on the
/// server (the four diagonals) — what tenant byte quotas account.
template <typename T>
[[nodiscard]] constexpr std::size_t solve_bytes(std::size_t n) {
  return 4 * n * sizeof(T);
}

}  // namespace tda::net
