#include "net/protocol.hpp"

#include <chrono>
#include <cstring>

#include "common/le_codec.hpp"

namespace tda::net {

namespace {

using namespace le;

template <typename T>
void put_values(std::string& out, const std::vector<T>& v) {
  const std::size_t bytes = v.size() * sizeof(T);
  const std::size_t at = out.size();
  out.resize(at + bytes);
  if (bytes > 0) std::memcpy(out.data() + at, v.data(), bytes);
}

template <typename T>
std::vector<T> get_values(std::string_view b, std::size_t at,
                          std::size_t count) {
  std::vector<T> out(count);
  if (count > 0) std::memcpy(out.data(), b.data() + at, count * sizeof(T));
  return out;
}

/// Offset of the checksum field = length of the header prefix it covers.
constexpr std::size_t kChecksumAt = 20;

/// Appends a header + payload, the checksum covering the 20 header
/// bytes before it and the payload.
void append_frame(std::string& out, FrameType type,
                  std::uint64_t request_id, std::string_view payload,
                  std::uint16_t version = kVersion) {
  const std::size_t head = out.size();
  put_u32(out, kMagic);
  put_u16(out, version);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, request_id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, frame_checksum(std::string_view(out).substr(head, kChecksumAt),
                              payload));
  out.append(payload);
}

bool known_type(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(FrameType::Hello) &&
         t <= static_cast<std::uint16_t>(FrameType::Goodbye);
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "hello";
    case FrameType::HelloOk: return "hello_ok";
    case FrameType::Solve: return "solve";
    case FrameType::SolveOk: return "solve_ok";
    case FrameType::SolveErr: return "solve_err";
    case FrameType::Goodbye: return "goodbye";
  }
  return "?";
}

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::None: return "none";
    case ErrorCode::BadFrame: return "bad_frame";
    case ErrorCode::AuthRequired: return "auth_required";
    case ErrorCode::AuthFailed: return "auth_failed";
    case ErrorCode::Dtype: return "dtype";
    case ErrorCode::TooLarge: return "too_large";
    case ErrorCode::QuotaInflight: return "quota_inflight";
    case ErrorCode::QuotaBytes: return "quota_bytes";
    case ErrorCode::QuotaRate: return "quota_rate";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::Rejected: return "rejected";
    case ErrorCode::Shed: return "shed";
    case ErrorCode::TimedOut: return "timed_out";
    case ErrorCode::Failed: return "failed";
    case ErrorCode::Singular: return "singular";
    case ErrorCode::NonFinite: return "nonfinite";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::DeadlineExpired: return "deadline_expired";
    case ErrorCode::KeyReuse: return "key_reuse";
  }
  return "?";
}

double unix_now_ms() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

DecodeResult decode_frame(std::string_view buf, std::size_t max_payload) {
  DecodeResult r;
  if (buf.size() < kHeaderSize) {
    // Reject a hopeless prefix early: a wrong magic can never grow into
    // a valid frame, and flagging it now keeps a garbage-spewing peer
    // from pinning buffer space while we "wait for more".
    if (!buf.empty() && buf.size() >= 4 && get_u32(buf, 0) != kMagic) {
      r.status = DecodeStatus::Corrupt;
      r.error = "bad magic";
      return r;
    }
    r.status = DecodeStatus::NeedMore;
    return r;
  }
  if (get_u32(buf, 0) != kMagic) {
    r.status = DecodeStatus::Corrupt;
    r.error = "bad magic";
    return r;
  }
  const std::uint16_t version = get_u16(buf, 4);
  if (version < kVersion || version > kMaxVersion) {
    r.status = DecodeStatus::Corrupt;
    r.error = "unsupported version";
    return r;
  }
  const std::uint16_t type = get_u16(buf, 6);
  if (!known_type(type)) {
    r.status = DecodeStatus::Corrupt;
    r.error = "unknown frame type";
    return r;
  }
  const std::size_t payload_len = get_u32(buf, 16);
  const std::size_t cap = max_payload < kAbsoluteMaxPayload
                              ? max_payload
                              : kAbsoluteMaxPayload;
  if (payload_len > cap) {
    r.status = DecodeStatus::Corrupt;
    r.error = "payload too large";
    return r;
  }
  if (buf.size() < kHeaderSize + payload_len) {
    r.status = DecodeStatus::NeedMore;
    return r;
  }
  const std::string_view payload = buf.substr(kHeaderSize, payload_len);
  if (frame_checksum(buf.substr(0, kChecksumAt), payload) !=
      get_u32(buf, kChecksumAt)) {
    r.status = DecodeStatus::Corrupt;
    r.error = "checksum mismatch";
    return r;
  }
  r.status = DecodeStatus::Ok;
  r.consumed = kHeaderSize + payload_len;
  r.frame.type = static_cast<FrameType>(type);
  r.frame.version = version;
  r.frame.request_id = get_u64(buf, 8);
  r.frame.payload = payload;
  return r;
}

void encode_hello(std::string& out, std::string_view token,
                  std::uint16_t advertised_version,
                  double client_unix_ms) {
  std::string payload;
  put_u16(payload, static_cast<std::uint16_t>(token.size()));
  put_u16(payload, advertised_version);
  payload.append(token);
  if (client_unix_ms != 0.0) put_f64(payload, client_unix_ms);
  append_frame(out, FrameType::Hello, 0, payload);
}

void encode_hello_ok(std::string& out, std::string_view tenant,
                     std::uint16_t negotiated_version,
                     double server_unix_ms) {
  std::string payload;
  put_u16(payload, static_cast<std::uint16_t>(tenant.size()));
  put_u16(payload, negotiated_version);
  payload.append(tenant);
  if (server_unix_ms != 0.0) put_f64(payload, server_unix_ms);
  append_frame(out, FrameType::HelloOk, 0, payload);
}

void encode_goodbye(std::string& out) {
  append_frame(out, FrameType::Goodbye, 0, {});
}

void encode_solve_err(std::string& out, std::uint64_t request_id,
                      ErrorCode code, std::string_view message,
                      std::uint16_t wire_version) {
  std::string payload;
  put_u16(payload, static_cast<std::uint16_t>(code));
  put_u16(payload, 0);
  put_u32(payload, static_cast<std::uint32_t>(message.size()));
  payload.append(message);
  append_frame(out, FrameType::SolveErr, request_id, payload, wire_version);
}

template <typename T>
void encode_solve(std::string& out, std::uint64_t request_id,
                  const std::vector<T>& a, const std::vector<T>& b,
                  const std::vector<T>& c, const std::vector<T>& d,
                  double deadline_ms) {
  std::string payload;
  payload.reserve(16 + 4 * b.size() * sizeof(T));
  payload.push_back(static_cast<char>(sizeof(T)));
  payload.push_back(0);
  put_u16(payload, 0);
  put_u32(payload, static_cast<std::uint32_t>(b.size()));
  put_f64(payload, deadline_ms);
  put_values(payload, a);
  put_values(payload, b);
  put_values(payload, c);
  put_values(payload, d);
  append_frame(out, FrameType::Solve, request_id, payload);
}

template <typename T>
void encode_solve_v2(std::string& out, std::uint64_t request_id,
                     const std::vector<T>& a, const std::vector<T>& b,
                     const std::vector<T>& c, const std::vector<T>& d,
                     double deadline_unix_ms, std::uint64_t idem_key) {
  std::string payload;
  payload.reserve(24 + 4 * b.size() * sizeof(T));
  payload.push_back(static_cast<char>(sizeof(T)));
  payload.push_back(0);
  put_u16(payload, 0);
  put_u32(payload, static_cast<std::uint32_t>(b.size()));
  put_f64(payload, deadline_unix_ms);
  put_u64(payload, idem_key);
  put_values(payload, a);
  put_values(payload, b);
  put_values(payload, c);
  put_values(payload, d);
  append_frame(out, FrameType::Solve, request_id, payload, kVersion2);
}

template <typename T>
void encode_solve_ok(std::string& out, std::uint64_t request_id,
                     const std::vector<T>& x, std::uint64_t trace_id,
                     double solve_ms, double wait_ms, bool fallback_used,
                     std::uint16_t wire_version) {
  std::string payload;
  payload.reserve(32 + x.size() * sizeof(T));
  payload.push_back(static_cast<char>(sizeof(T)));
  payload.push_back(fallback_used ? 1 : 0);
  put_u16(payload, 0);
  put_u32(payload, static_cast<std::uint32_t>(x.size()));
  put_u64(payload, trace_id);
  put_f64(payload, solve_ms);
  put_f64(payload, wait_ms);
  put_values(payload, x);
  append_frame(out, FrameType::SolveOk, request_id, payload, wire_version);
}

std::optional<HelloFrame> parse_hello(std::string_view payload) {
  if (payload.size() < 4) return std::nullopt;
  const std::size_t len = get_u16(payload, 0);
  // Exactly the base shape, or base + the optional trailing f64
  // timestamp; anything else is malformed.
  if (payload.size() != 4 + len && payload.size() != 4 + len + 8)
    return std::nullopt;
  HelloFrame f;
  f.advertised_version = get_u16(payload, 2);
  f.token.assign(payload.substr(4, len));
  if (payload.size() == 4 + len + 8) {
    f.client_unix_ms = get_f64(payload, 4 + len);
    f.has_timestamp = true;
  }
  return f;
}

std::optional<HelloOkFrame> parse_hello_ok(std::string_view payload) {
  if (payload.size() < 4) return std::nullopt;
  const std::size_t len = get_u16(payload, 0);
  if (payload.size() != 4 + len && payload.size() != 4 + len + 8)
    return std::nullopt;
  HelloOkFrame f;
  f.negotiated_version = get_u16(payload, 2);
  f.tenant.assign(payload.substr(4, len));
  if (payload.size() == 4 + len + 8) {
    f.server_unix_ms = get_f64(payload, 4 + len);
    f.has_timestamp = true;
  }
  return f;
}

std::optional<SolveErrFrame> parse_solve_err(std::string_view payload) {
  if (payload.size() < 8) return std::nullopt;
  const std::size_t len = get_u32(payload, 4);
  if (payload.size() != 8 + len) return std::nullopt;
  SolveErrFrame f;
  f.code = static_cast<ErrorCode>(get_u16(payload, 0));
  f.message.assign(payload.substr(8, len));
  return f;
}

std::uint8_t solve_dtype(std::string_view payload) {
  if (payload.empty()) return 0;
  return static_cast<std::uint8_t>(payload[0]);
}

template <typename T>
std::optional<SolveFrame<T>> parse_solve(std::string_view payload,
                                         std::uint16_t version) {
  if (version < kVersion || version > kMaxVersion) return std::nullopt;
  const std::size_t prefix = version >= kVersion2 ? 24 : 16;
  if (payload.size() < prefix) return std::nullopt;
  if (static_cast<std::uint8_t>(payload[0]) != sizeof(T))
    return std::nullopt;
  const std::uint32_t n = get_u32(payload, 4);
  if (n == 0) return std::nullopt;
  const std::size_t want =
      prefix + 4 * static_cast<std::size_t>(n) * sizeof(T);
  if (payload.size() != want) return std::nullopt;
  SolveFrame<T> f;
  f.n = n;
  f.version = version;
  if (version >= kVersion2) {
    f.deadline_unix_ms = get_f64(payload, 8);
    f.idem_key = get_u64(payload, 16);
  } else {
    f.deadline_ms = get_f64(payload, 8);
  }
  std::size_t at = prefix;
  const std::size_t stride = static_cast<std::size_t>(n) * sizeof(T);
  f.a = get_values<T>(payload, at, n);
  at += stride;
  f.b = get_values<T>(payload, at, n);
  at += stride;
  f.c = get_values<T>(payload, at, n);
  at += stride;
  f.d = get_values<T>(payload, at, n);
  return f;
}

template <typename T>
std::optional<SolveOkFrame<T>> parse_solve_ok(std::string_view payload) {
  if (payload.size() < 32) return std::nullopt;
  if (static_cast<std::uint8_t>(payload[0]) != sizeof(T))
    return std::nullopt;
  const std::uint32_t n = get_u32(payload, 4);
  const std::size_t want = 32 + static_cast<std::size_t>(n) * sizeof(T);
  if (payload.size() != want) return std::nullopt;
  SolveOkFrame<T> f;
  f.n = n;
  f.fallback_used = (static_cast<std::uint8_t>(payload[1]) & 1u) != 0;
  f.trace_id = get_u64(payload, 8);
  f.solve_ms = get_f64(payload, 16);
  f.wait_ms = get_f64(payload, 24);
  f.x = get_values<T>(payload, 32, n);
  return f;
}

template void encode_solve<float>(std::string&, std::uint64_t,
                                  const std::vector<float>&,
                                  const std::vector<float>&,
                                  const std::vector<float>&,
                                  const std::vector<float>&, double);
template void encode_solve<double>(std::string&, std::uint64_t,
                                   const std::vector<double>&,
                                   const std::vector<double>&,
                                   const std::vector<double>&,
                                   const std::vector<double>&, double);
template void encode_solve_v2<float>(std::string&, std::uint64_t,
                                     const std::vector<float>&,
                                     const std::vector<float>&,
                                     const std::vector<float>&,
                                     const std::vector<float>&, double,
                                     std::uint64_t);
template void encode_solve_v2<double>(std::string&, std::uint64_t,
                                      const std::vector<double>&,
                                      const std::vector<double>&,
                                      const std::vector<double>&,
                                      const std::vector<double>&, double,
                                      std::uint64_t);
template void encode_solve_ok<float>(std::string&, std::uint64_t,
                                     const std::vector<float>&,
                                     std::uint64_t, double, double, bool,
                                     std::uint16_t);
template void encode_solve_ok<double>(std::string&, std::uint64_t,
                                      const std::vector<double>&,
                                      std::uint64_t, double, double, bool,
                                      std::uint16_t);
template std::optional<SolveFrame<float>> parse_solve<float>(
    std::string_view, std::uint16_t);
template std::optional<SolveFrame<double>> parse_solve<double>(
    std::string_view, std::uint16_t);
template std::optional<SolveOkFrame<float>> parse_solve_ok<float>(
    std::string_view);
template std::optional<SolveOkFrame<double>> parse_solve_ok<double>(
    std::string_view);

}  // namespace tda::net
