#pragma once
// Client side of the wire protocol (docs/NET.md). Blocking I/O over one
// connection: connect() runs the Hello handshake, solve() is the
// one-shot convenience, and run_window() is the windowed driver: up to
// W requests in flight, one callback per answer, which settles or
// resends it. send_solve() and recv_result() are the primitives
// underneath, for callers that pipeline by hand.
//
// Resilience (opt-in via set_retry): when connect() or a transport
// read/write fails, recover() — the only reconnect path — retries with
// exponential backoff + decorrelated jitter, re-runs the Hello
// handshake, and resends every request that was sent but not yet
// answered — byte-identical, so a v2 resend carries the same
// idempotency key and the same absolute deadline (the budget shrinks
// across retries by construction; the server rejects what expired).
// The server's dedup cache turns those resends into replays rather
// than re-executions.
//
// connect() advertises protocol v2; wire_version() reports what the
// server agreed to (a legacy server answers 0 → v1, and the client
// falls back to v1 Solve frames automatically).
//
// Not thread-safe; one Client per thread.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace tda::net {

/// Automatic-recovery policy. max_attempts == 0 (the default) keeps the
/// legacy fail-fast behavior: any transport failure surfaces to the
/// caller immediately.
struct RetryPolicy {
  int max_attempts = 0;         ///< reconnect attempts per failure
  double base_backoff_ms = 1.0;
  double max_backoff_ms = 250.0;
  std::uint64_t seed = 1;       ///< decorrelated-jitter stream
};

struct ClientStats {
  std::uint64_t reconnects = 0;  ///< handshakes completed by a retry
  std::uint64_t resends = 0;     ///< unacknowledged frames resent
  std::uint64_t gave_up = 0;     ///< recoveries that exhausted attempts
};

/// Outcome of one wire solve. code == ErrorCode::None means x holds the
/// solution; anything else is the server's typed reject/failure, with
/// `error` carrying its diagnostic.
template <typename T>
struct WireResult {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::None;
  std::string error;
  std::vector<T> x;
  std::uint64_t trace_id = 0;
  double solve_ms = 0.0;
  double wait_ms = 0.0;
  bool fallback_used = false;

  [[nodiscard]] bool ok() const { return code == ErrorCode::None; }
};

/// One request for run_window(): the system, a relative deadline budget
/// (0 = none) and an idempotency key (0 = unkeyed).
template <typename T>
struct WindowRequest {
  std::vector<T> a, b, c, d;
  double deadline_ms = 0.0;
  std::uint64_t idem_key = 0;
};

/// What run_window()'s callback does with an answer.
enum class Verdict { Settle, Resend };

/// run_window()'s tally. settled + lost == total; `error` is the
/// transport failure that ended the run early ("" when none did).
struct WindowOutcome {
  std::size_t settled = 0;
  std::size_t lost = 0;
  std::string error;
};

class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Connects to "host:port" or "unix:/path" and, when `token` is
  /// non-empty, authenticates with a Hello. With a retry policy set, a
  /// failure other than a malformed spec retries under its backoff
  /// (auth refusals too: net_corrupt can mangle a token). False on
  /// connect, handshake, or auth failure, *err holding the first
  /// attempt's cause.
  bool connect(const std::string& spec, const std::string& token,
               std::string* err);

  [[nodiscard]] bool connected() const { return fd_.valid(); }

  /// Tenant name the server acknowledged in HelloOk ("" before auth).
  [[nodiscard]] const std::string& tenant() const { return tenant_; }

  /// Protocol version negotiated with the server (1 until a Hello says
  /// otherwise — anonymous connections stay v1-framed but the server
  /// accepts v2 Solve frames regardless).
  [[nodiscard]] std::uint16_t wire_version() const { return wire_version_; }

  /// Enables automatic reconnect + resend (see header comment).
  void set_retry(RetryPolicy policy) { retry_ = policy; }

  [[nodiscard]] const ClientStats& stats() const { return stats_; }

  /// Mints a session-unique idempotency key (random nonce + counter).
  std::uint64_t mint_key();

  /// Sends Goodbye (best effort) and closes the socket.
  void close();

  /// Sends one Solve frame without waiting. Pick distinct request ids;
  /// responses may come back in any order.
  template <typename Tv>
  bool send_solve(std::uint64_t request_id, const std::vector<Tv>& a,
                  const std::vector<Tv>& b, const std::vector<Tv>& c,
                  const std::vector<Tv>& d, double deadline_ms,
                  std::string* err) {
    std::string out;
    encode_solve<Tv>(out, request_id, a, b, c, d, deadline_ms);
    return send_tracked(request_id, std::move(out), err);
  }

  /// v2 send: relative deadline budget (anchored to the wall clock at
  /// this first send — resends keep the original absolute instant, so
  /// the budget shrinks across retries; negative values craft an
  /// already-expired deadline for testing) plus an idempotency key
  /// (use mint_key(); 0 = unkeyed). Falls back to a v1 frame when the
  /// server only speaks v1.
  template <typename Tv>
  bool send_solve2(std::uint64_t request_id, const std::vector<Tv>& a,
                   const std::vector<Tv>& b, const std::vector<Tv>& c,
                   const std::vector<Tv>& d, double deadline_ms,
                   std::uint64_t idem_key, std::string* err) {
    std::string out;
    if (wire_version_ >= kVersion2) {
      const double deadline_unix =
          deadline_ms != 0.0 ? unix_now_ms() + deadline_ms : 0.0;
      encode_solve_v2<Tv>(out, request_id, a, b, c, d, deadline_unix,
                          idem_key);
    } else {
      encode_solve<Tv>(out, request_id, a, b, c, d,
                       deadline_ms > 0.0 ? deadline_ms : 0.0);
    }
    return send_tracked(request_id, std::move(out), err);
  }

  /// Blocks for the next SolveOk/SolveErr frame. False on transport
  /// failure or server Goodbye (mid-drain close) — *err says which.
  /// With a retry policy set, transport failures trigger reconnect +
  /// resend of everything unanswered, and the wait continues.
  template <typename Tv>
  bool recv_result(WireResult<Tv>& out, std::string* err) {
    FrameType type{};
    std::uint64_t rid = 0;
    std::string payload;
    for (;;) {
      if (!next_frame(type, rid, payload, err)) {
        if (!recover(err)) return false;
        continue;
      }
      if (type == FrameType::SolveOk) {
        const auto ok = parse_solve_ok<Tv>(payload);
        if (!ok) {
          if (err != nullptr) *err = "unparsable SolveOk payload";
          return false;
        }
        out.request_id = rid;
        out.code = ErrorCode::None;
        out.error.clear();
        out.x = std::move(ok->x);
        out.trace_id = ok->trace_id;
        out.solve_ms = ok->solve_ms;
        out.wait_ms = ok->wait_ms;
        out.fallback_used = ok->fallback_used;
        outstanding_.erase(rid);
        return true;
      }
      if (type == FrameType::SolveErr) {
        const auto e = parse_solve_err(payload);
        if (!e) {
          if (err != nullptr) *err = "unparsable SolveErr payload";
          return false;
        }
        out.request_id = rid;
        out.code = e->code;
        out.error = e->message;
        out.x.clear();
        out.trace_id = 0;
        outstanding_.erase(rid);
        return true;
      }
      if (type == FrameType::Goodbye) {
        if (err != nullptr) *err = "server said goodbye";
        close_fd();
        if (!recover(err)) return false;
        continue;
      }
      // HelloOk after the handshake window etc.: skip.
    }
  }

  /// One-shot blocking solve.
  template <typename Tv>
  WireResult<Tv> solve(const std::vector<Tv>& a, const std::vector<Tv>& b,
                       const std::vector<Tv>& c, const std::vector<Tv>& d,
                       double deadline_ms = 0.0) {
    WireResult<Tv> r;
    std::string err;
    const std::uint64_t rid = ++next_id_;
    if (!send_solve<Tv>(rid, a, b, c, d, deadline_ms, &err) ||
        !recv_result<Tv>(r, &err)) {
      r.code = ErrorCode::Internal;
      r.error = err.empty() ? "transport failure" : err;
      return r;
    }
    return r;
  }

  /// The windowed driver: sends requests next(0) .. next(total - 1)
  /// through send_solve2, keeping up to `window` unanswered. Each answer
  /// to a live request goes to on_result(i, request, result): Settle
  /// retires request i, Resend sends it again under the same request id.
  /// Transport failures recover only through the retry policy; once that
  /// gives up (or none is set) the run ends and the unsettled are lost.
  template <typename Tv, typename Next, typename OnResult>
  WindowOutcome run_window(std::size_t window, std::size_t total,
                           Next&& next, OnResult&& on_result) {
    // request id -> (index, request)
    std::map<std::uint64_t, std::pair<std::size_t, WindowRequest<Tv>>> live;
    std::size_t launched = 0;
    WindowOutcome out;
    std::string err;
    const auto send = [&](std::uint64_t rid, const WindowRequest<Tv>& q) {
      return send_solve2<Tv>(rid, q.a, q.b, q.c, q.d, q.deadline_ms,
                             q.idem_key, &err);
    };
    bool alive = true;
    while (launched < total || !live.empty()) {
      while (alive && launched < total &&
             (live.empty() || live.size() < window)) {
        const std::uint64_t rid = ++next_id_;
        const auto& slot = live[rid] = {launched, next(launched)};
        ++launched;
        alive = send(rid, slot.second);
      }
      WireResult<Tv> r;
      if (!alive || !recv_result<Tv>(r, &err)) {
        out.error = err;
        break;
      }
      const auto it = live.find(r.request_id);
      if (it == live.end()) continue;  // id 0 (a connection reject)
      auto& [index, req] = it->second;
      if (on_result(index, req, r) == Verdict::Resend) {
        alive = send(r.request_id, req);
      } else {
        live.erase(it);
        ++out.settled;
      }
    }
    out.lost = total - out.settled;
    return out;
  }

 private:
  bool send_bytes(const std::string& bytes, std::string* err);
  /// Tracks the frame for post-reconnect resend (when retry is on),
  /// then sends it — recovering once if the send itself fails.
  bool send_tracked(std::uint64_t request_id, std::string bytes,
                    std::string* err);
  /// Reads until one full frame decodes; copies its payload out.
  bool next_frame(FrameType& type, std::uint64_t& request_id,
                  std::string& payload, std::string* err);
  /// Reconnect + re-Hello + resend outstanding, with decorrelated-
  /// jitter backoff. False when retry is off or attempts run out.
  bool recover(std::string* err);
  bool do_connect(std::string* err);
  void close_fd();

  Fd fd_;
  std::string rbuf_;
  std::string tenant_;
  std::uint64_t next_id_ = 0;
  std::uint16_t wire_version_ = kVersion;
  std::string spec_, token_;  ///< connect() target, for recover()
  RetryPolicy retry_;
  ClientStats stats_;
  double prev_backoff_ms_ = 0.0;
  std::uint64_t jitter_state_ = 0;
  std::uint64_t key_nonce_ = 0;
  std::uint64_t key_counter_ = 0;
  /// request id -> encoded frame, sent but not yet answered. Only
  /// populated when retry is enabled.
  std::map<std::uint64_t, std::string> outstanding_;
};

}  // namespace tda::net
