#pragma once
// Seeded network-chaos proxy (docs/ROBUSTNESS.md).
//
// Sits between a net::Client and a FrontDoor as a byte relay and
// misbehaves on purpose: latency spikes, partial writes (a frame
// delivered in two installments with a pause in between), mid-frame
// resets (a prefix of a chunk is forwarded, then both sides are torn
// down — the receiver is left holding half a frame), and outright
// connection drops. Every decision comes from a splitmix64 stream
// seeded per (proxy seed, connection, direction), so a failing run
// replays exactly.
//
// The proxy is deliberately dumb — it never parses frames. Chaos that
// happens to land on a frame boundary is indistinguishable from a
// benign close; chaos that lands inside one exercises the decoder's
// NeedMore/Corrupt paths and the client's reconnect + idempotent
// resend machinery. The exactly-once bench (`bench_service --chaos`)
// drives correctness assertions through it.
//
// Threading: one accept thread plus two relay threads per connection
// (blocking I/O). stop() shuts every socket down and joins everything,
// so the proxy is safe to run under TSan.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/socket.hpp"

namespace tda::net {

struct ChaosConfig {
  std::uint64_t seed = 1;     ///< replayable decision stream
  double drop_rate = 0.0;     ///< P(chunk): close both sides, chunk lost
  double reset_rate = 0.0;    ///< P(chunk): forward a partial prefix,
                              ///< then close — a mid-frame tear
  double latency_rate = 0.0;  ///< P(chunk): stall before forwarding
  double latency_ms = 5.0;    ///< stall duration
  double partial_rate = 0.0;  ///< P(chunk): deliver in two installments
  double partial_delay_ms = 0.5;  ///< pause between the installments
  std::size_t max_chunk = 16 << 10;  ///< relay read size
};

struct ChaosCounters {
  std::uint64_t connections = 0;
  std::uint64_t drops = 0;
  std::uint64_t resets = 0;
  std::uint64_t latency_injections = 0;
  std::uint64_t partial_writes = 0;
  std::uint64_t bytes_up = 0;    ///< client -> server
  std::uint64_t bytes_down = 0;  ///< server -> client
};

class ChaosProxy {
 public:
  ChaosProxy(std::string listen_spec, std::string upstream_spec,
             ChaosConfig cfg)
      : listen_spec_(std::move(listen_spec)),
        upstream_spec_(std::move(upstream_spec)),
        cfg_(cfg) {}

  ~ChaosProxy() { stop(); }
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  bool start(std::string* err) {
    auto lep = parse_endpoint(listen_spec_);
    auto uep = parse_endpoint(upstream_spec_);
    if (!lep || !uep) {
      if (err) *err = "chaos proxy: bad endpoint spec";
      return false;
    }
    upstream_ = *uep;
    listener_ = listen_endpoint(*lep, 64, err);
    if (!listener_.valid()) return false;
    tcp_port_ = lep->is_unix ? 0 : bound_port(listener_.get());
    stop_.store(false, std::memory_order_relaxed);
    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
  }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    // Wake accept() and wait for accept_loop to leave before the fd it
    // reads is closed; links it accepted meanwhile are torn down below.
    if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& link : links_) link->tear_down();
    }
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads.swap(threads_);
    }
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
    std::lock_guard<std::mutex> lock(mu_);
    links_.clear();
  }

  /// Chaos on/off at runtime (off = transparent relay). The bench
  /// measures its clean baseline and its chaos phase through the same
  /// proxy so the relay overhead cancels out of the comparison.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  [[nodiscard]] ChaosCounters counters() const {
    ChaosCounters c;
    c.connections = connections_.load(std::memory_order_relaxed);
    c.drops = drops_.load(std::memory_order_relaxed);
    c.resets = resets_.load(std::memory_order_relaxed);
    c.latency_injections = latency_.load(std::memory_order_relaxed);
    c.partial_writes = partials_.load(std::memory_order_relaxed);
    c.bytes_up = bytes_up_.load(std::memory_order_relaxed);
    c.bytes_down = bytes_down_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  /// One proxied connection: the accepted (downstream) fd and its
  /// upstream pair. tear_down() shuts both so relay threads unblock.
  struct Link {
    Fd down;
    Fd up;
    std::atomic<bool> dead{false};

    void tear_down() {
      if (!dead.exchange(true, std::memory_order_relaxed)) {
        if (down.valid()) ::shutdown(down.get(), SHUT_RDWR);
        if (up.valid()) ::shutdown(up.get(), SHUT_RDWR);
      }
    }
  };

  void accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd < 0) {
        if (stop_.load(std::memory_order_relaxed)) return;
        continue;
      }
      std::string err;
      Fd up = connect_endpoint(upstream_, &err);
      if (!up.valid()) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
        continue;
      }
      auto link = std::make_shared<Link>();
      link->down = Fd(fd);
      link->up = std::move(up);
      const std::uint64_t conn_id =
          connections_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      links_.push_back(link);
      threads_.emplace_back([this, link, conn_id] {
        relay(*link, link->down.get(), link->up.get(),
              cfg_.seed ^ (conn_id * 2 + 1), &bytes_up_);
        link->tear_down();
      });
      threads_.emplace_back([this, link, conn_id] {
        relay(*link, link->up.get(), link->down.get(),
              cfg_.seed ^ (conn_id * 2 + 2), &bytes_down_);
        link->tear_down();
      });
    }
  }

  void relay(Link& link, int from, int to, std::uint64_t rng,
             std::atomic<std::uint64_t>* bytes) {
    std::vector<char> buf(cfg_.max_chunk);
    while (!stop_.load(std::memory_order_relaxed) &&
           !link.dead.load(std::memory_order_relaxed)) {
      const long got = read_some(from, buf.data(), buf.size());
      if (got <= 0) return;  // EOF or error: peer (or tear_down) closed
      const auto len = static_cast<std::size_t>(got);
      if (enabled_.load(std::memory_order_relaxed)) {
        if (unit_double(splitmix64(rng)) < cfg_.drop_rate) {
          drops_.fetch_add(1, std::memory_order_relaxed);
          link.tear_down();
          return;
        }
        if (unit_double(splitmix64(rng)) < cfg_.reset_rate) {
          // Mid-frame tear: forward part of the chunk, then kill the
          // connection. len == 1 still forwards 1 byte then dies, which
          // is the worst case (a lone header byte).
          resets_.fetch_add(1, std::memory_order_relaxed);
          const std::size_t cut = 1 + splitmix64(rng) % len;
          write_all(to, buf.data(), cut);
          link.tear_down();
          return;
        }
        if (unit_double(splitmix64(rng)) < cfg_.latency_rate) {
          latency_.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(cfg_.latency_ms));
        }
        if (len > 1 && unit_double(splitmix64(rng)) < cfg_.partial_rate) {
          partials_.fetch_add(1, std::memory_order_relaxed);
          const std::size_t cut = 1 + splitmix64(rng) % (len - 1);
          if (!write_all(to, buf.data(), cut)) return;
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              cfg_.partial_delay_ms));
          if (!write_all(to, buf.data() + cut, len - cut)) return;
          bytes->fetch_add(len, std::memory_order_relaxed);
          continue;
        }
      }
      if (!write_all(to, buf.data(), len)) return;
      bytes->fetch_add(len, std::memory_order_relaxed);
    }
  }

  std::string listen_spec_;
  std::string upstream_spec_;
  ChaosConfig cfg_;
  Endpoint upstream_;
  Fd listener_;
  std::uint16_t tcp_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> enabled_{true};

  std::mutex mu_;
  std::vector<std::shared_ptr<Link>> links_;
  std::vector<std::thread> threads_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> latency_{0};
  std::atomic<std::uint64_t> partials_{0};
  std::atomic<std::uint64_t> bytes_up_{0};
  std::atomic<std::uint64_t> bytes_down_{0};
};

}  // namespace tda::net
