#include "net/client.hpp"

#include <chrono>
#include <random>
#include <thread>

#include "common/rng.hpp"

namespace tda::net {

bool Client::connect(const std::string& spec, const std::string& token,
                     std::string* err) {
  close();
  spec_ = spec;
  token_ = token;
  outstanding_.clear();
  prev_backoff_ms_ = 0.0;
  std::string first;
  if (do_connect(&first)) return true;
  if (parse_endpoint(spec_) && recover(nullptr)) return true;
  if (err != nullptr) *err = first;
  return false;
}

bool Client::do_connect(std::string* err) {
  const auto ep = parse_endpoint(spec_);
  if (!ep) {
    if (err != nullptr) *err = "bad endpoint spec: " + spec_;
    return false;
  }
  fd_ = connect_endpoint(*ep, err);
  if (!fd_.valid()) return false;
  rbuf_.clear();
  tenant_.clear();
  wire_version_ = kVersion;
  if (token_.empty()) return true;

  std::string hello;
  // The wall-clock stamp lets the server estimate this connection's
  // clock skew and clamp implausible absolute deadlines
  // (docs/OPERATIONS.md); a server predating it ignores the extra f64.
  encode_hello(hello, token_, kMaxVersion, unix_now_ms());
  if (!send_bytes(hello, err)) return false;
  FrameType type{};
  std::uint64_t rid = 0;
  std::string payload;
  if (!next_frame(type, rid, payload, err)) return false;
  if (type == FrameType::HelloOk) {
    const auto ok = parse_hello_ok(payload);
    if (!ok) {
      if (err != nullptr) *err = "unparsable HelloOk";
      close_fd();
      return false;
    }
    tenant_ = ok->tenant;
    // A legacy server leaves the slot 0 → v1.
    wire_version_ = ok->negotiated_version >= kVersion2 ? kVersion2
                                                        : kVersion;
    return true;
  }
  if (type == FrameType::SolveErr) {
    const auto e = parse_solve_err(payload);
    if (err != nullptr) {
      *err = e ? "auth rejected: " + e->message : "auth rejected";
    }
  } else if (err != nullptr) {
    *err = "unexpected handshake frame";
  }
  close_fd();
  return false;
}

std::uint64_t Client::mint_key() {
  if (key_nonce_ == 0) {
    std::random_device rd;
    key_nonce_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    if (key_nonce_ == 0) key_nonce_ = 1;
  }
  return key_nonce_ ^ ++key_counter_;
}

bool Client::recover(std::string* err) {
  if (retry_.max_attempts <= 0) return false;
  // Independent jitter streams desynchronize even clients that failed
  // on the same instant, so a reconnect wave spreads instead of
  // stampeding.
  if (jitter_state_ == 0) jitter_state_ = retry_.seed | 1;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    prev_backoff_ms_ =
        decorrelated_backoff_ms(retry_.base_backoff_ms, prev_backoff_ms_,
                                retry_.max_backoff_ms, jitter_state_);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(prev_backoff_ms_));
    std::string connect_err;
    if (!do_connect(&connect_err)) continue;
    ++stats_.reconnects;
    // Resend everything unanswered, byte-identical: same request ids,
    // same idempotency keys, same absolute deadlines.
    bool all_sent = true;
    for (const auto& [rid, bytes] : outstanding_) {
      if (!send_bytes(bytes, nullptr)) {
        all_sent = false;
        break;
      }
      ++stats_.resends;
    }
    if (all_sent) {
      prev_backoff_ms_ = 0.0;
      return true;
    }
  }
  ++stats_.gave_up;
  if (err != nullptr) *err = "recovery exhausted retry attempts";
  return false;
}

bool Client::send_tracked(std::uint64_t request_id, std::string bytes,
                          std::string* err) {
  if (retry_.max_attempts > 0) {
    outstanding_[request_id] = bytes;
    if (send_bytes(bytes, err)) return true;
    // recover() resends the whole outstanding window, including this
    // frame — success means it is on the wire.
    if (recover(err)) return true;
    outstanding_.erase(request_id);
    return false;
  }
  return send_bytes(bytes, err);
}

void Client::close() {
  if (!fd_.valid()) return;
  std::string bye;
  encode_goodbye(bye);
  (void)write_all(fd_.get(), bye.data(), bye.size());
  close_fd();
}

void Client::close_fd() {
  fd_.reset();
  rbuf_.clear();
}

bool Client::send_bytes(const std::string& bytes, std::string* err) {
  if (!fd_.valid()) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  if (!write_all(fd_.get(), bytes.data(), bytes.size())) {
    if (err != nullptr) *err = "send failed (connection lost)";
    close_fd();
    return false;
  }
  return true;
}

bool Client::next_frame(FrameType& type, std::uint64_t& request_id,
                        std::string& payload, std::string* err) {
  if (!fd_.valid()) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  char tmp[16384];
  for (;;) {
    const DecodeResult r = decode_frame(rbuf_, kAbsoluteMaxPayload);
    if (r.status == DecodeStatus::Ok) {
      type = r.frame.type;
      request_id = r.frame.request_id;
      payload.assign(r.frame.payload);
      rbuf_.erase(0, r.consumed);
      return true;
    }
    if (r.status == DecodeStatus::Corrupt) {
      if (err != nullptr) {
        *err = std::string("corrupt frame from server: ") + r.error;
      }
      close_fd();
      return false;
    }
    const long n = read_some(fd_.get(), tmp, sizeof(tmp));
    if (n == 0) {
      if (err != nullptr) *err = "connection closed by server";
      close_fd();
      return false;
    }
    if (n < 0 && n != -2) {
      if (err != nullptr) *err = "read failed (connection lost)";
      close_fd();
      return false;
    }
    if (n > 0) rbuf_.append(tmp, static_cast<std::size_t>(n));
    // n == -2 (EAGAIN) cannot happen on a blocking socket; loop anyway.
  }
}

}  // namespace tda::net
