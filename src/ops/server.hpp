#pragma once
// ops::Server — the zero-downtime operations shell around a
// SolveService + FrontDoor pair (docs/OPERATIONS.md).
//
// It owns the three legs of the tentpole:
//
//   * crash-safe persistence: a background thread writes the ops
//     snapshot (tenants, quotas, AIMD windows, completed dedup entries
//     + payload hashes, dedup counters) every snapshot_interval_ms, on
//     SIGHUP, on admin `snapshot`/`drain`, and at shutdown. State is
//     exported on the front door's poll thread (via post()) but
//     serialized and written off it, so a large snapshot never stalls
//     the data plane.
//
//   * live reconfiguration: a unix-domain admin socket (admin.hpp)
//     accepts health/ready/stats/reload/drain/snapshot/handoff. Every
//     mutation of poll-thread-owned state funnels through
//     FrontDoor::post, so reconfiguration is race-free without adding
//     a single lock to the hot path.
//
//   * hot restart: `handoff` forks and execs the configured next
//     generation, passes the listening sockets over a socketpair via
//     SCM_RIGHTS (fdpass.hpp), waits for the child's ready ack, then
//     drains. Both generations accept from the same kernel queue
//     during the overlap, so no connect attempt is ever refused; the
//     snapshot the child loads makes byte-identical resends of
//     pre-restart work land as replays, not re-executions.
//
// Signals: SIGTERM requests an orderly drain (the owner's main loop
// polls should_exit()), SIGHUP requests an immediate snapshot +
// telemetry flush. Handlers only store to atomics.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/front_door.hpp"
#include "ops/admin.hpp"
#include "ops/fdpass.hpp"
#include "ops/snapshot.hpp"
#include "ops/state.hpp"
#include "service/solve_service.hpp"
#include "telemetry/metrics.hpp"

namespace tda::ops {

namespace detail {
// Async-signal-safe flags; installed once per process.
inline std::atomic<int> g_sigterm{0};
inline std::atomic<int> g_sighup{0};
inline void on_sigterm(int) { g_sigterm.store(1, std::memory_order_relaxed); }
inline void on_sighup(int) { g_sighup.store(1, std::memory_order_relaxed); }
}  // namespace detail

struct OpsConfig {
  /// Unix path of the admin control socket. Empty = no admin server.
  std::string admin_path;
  /// Snapshot file. Empty = no persistence (drain still works).
  std::string snapshot_path;
  /// Periodic snapshot cadence; <= 0 writes only on signals, admin
  /// commands and shutdown.
  double snapshot_interval_ms = 0.0;
  /// This process's generation number (1 on cold start; a hot-restarted
  /// child runs at parent + 1).
  std::uint64_t generation = 1;
  /// Command line exec'd as the next generation on `handoff`
  /// (argv[0] = binary). The server appends --handoff-fd=<N> and
  /// --generation=<g+1>. Empty disables handoff.
  std::vector<std::string> handoff_argv;
};

/// How long `handoff` waits for the child's ready ack before declaring
/// the handoff failed.
inline constexpr int kHandoffAckTimeoutMs = 20'000;

/// Child-side half of the handoff: receive the listener fds sent by the
/// previous generation over `handoff_fd`. The tag byte says which
/// listeners were passed: 't' tcp, 'u' unix, 'b' both (tcp first).
/// Returns false (fds closed) on any receive error.
inline bool receive_handoff(int handoff_fd, int* tcp_fd, int* unix_fd) {
  *tcp_fd = -1;
  *unix_fd = -1;
  std::vector<int> fds;
  char tag = 0;
  if (!recv_fds(handoff_fd, 2, &fds, &tag)) return false;
  if (tag == 't' && fds.size() == 1) {
    *tcp_fd = fds[0];
    return true;
  }
  if (tag == 'u' && fds.size() == 1) {
    *unix_fd = fds[0];
    return true;
  }
  if (tag == 'b' && fds.size() == 2) {
    *tcp_fd = fds[0];
    *unix_fd = fds[1];
    return true;
  }
  for (const int fd : fds) ::close(fd);
  return false;
}

/// Child-side ready ack: call once the new generation is accepting.
/// The parent blocks its drain on this byte.
inline bool ack_handoff(int handoff_fd) {
  const char r = 'R';
  for (;;) {
    const long n = ::write(handoff_fd, &r, 1);
    if (n == 1) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

template <typename T>
class Server {
 public:
  Server(service::SolveService<T>& svc, net::FrontDoor<T>& door,
         OpsConfig cfg)
      : svc_(svc), door_(door), cfg_(std::move(cfg)) {}

  ~Server() { shutdown(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads the snapshot (if configured and present) into the front
  /// door: tenants, AIMD windows, completed dedup entries. Call before
  /// door.start(). A missing/damaged snapshot is a clean cold start —
  /// false is returned with `why` set, but the server is fine to run.
  bool load(std::string* why = nullptr) {
    if (cfg_.snapshot_path.empty()) return true;
    ServerState st;
    if (!load_snapshot(cfg_.snapshot_path, &st, why)) return false;
    door_.import_state(st);
    baseline_ = st.dedup_stats;
    loaded_ = true;
    return true;
  }

  /// Persisted-generation dedup counters (zero on cold start). Admin
  /// `stats` adds these to the live cache's, so exactly-once is
  /// checkable across the restart boundary from the new process alone.
  [[nodiscard]] const DedupStatsState& baseline() const {
    return baseline_;
  }
  [[nodiscard]] bool loaded_from_snapshot() const { return loaded_; }

  /// Starts the admin socket and the snapshot/housekeeping thread and
  /// installs the SIGTERM/SIGHUP handlers. Call after door.start().
  bool start(std::string* err) {
    struct sigaction sa = {};
    sa.sa_handler = detail::on_sigterm;
    ::sigaction(SIGTERM, &sa, nullptr);
    sa.sa_handler = detail::on_sighup;
    ::sigaction(SIGHUP, &sa, nullptr);
    if (!cfg_.admin_path.empty()) {
      const bool ok = admin_.start(
          cfg_.admin_path,
          [this](AdminCmd cmd, const std::string& payload) {
            return handle(cmd, payload);
          },
          err);
      if (!ok) return false;
    }
    stop_.store(false, std::memory_order_relaxed);
    housekeeper_ = std::thread([this] { housekeep(); });
    return true;
  }

  /// True once SIGTERM or an admin `drain` asked for an orderly exit.
  /// The owning main loop polls this, then runs its shutdown sequence.
  [[nodiscard]] bool should_exit() const {
    return exit_requested_.load(std::memory_order_relaxed) ||
           detail::g_sigterm.load(std::memory_order_relaxed) != 0;
  }

  /// Writes a snapshot now (state exported on the poll thread, file
  /// written on the calling thread). No-op (true) when persistence is
  /// off or the snapshot file was handed to the next generation.
  bool save_now(std::string* why = nullptr) {
    if (cfg_.snapshot_path.empty()) return true;
    if (handed_off_.load(std::memory_order_relaxed)) return true;
    ServerState st;
    st.generation = cfg_.generation;
    st.saved_unix_ms = net::unix_now_ms();
    std::promise<void> exported;
    door_.post([this, &st, &exported] {
      door_.export_state(st);
      exported.set_value();
    });
    exported.get_future().wait();
    st.dedup_stats.inserts += baseline_.inserts;
    st.dedup_stats.hits += baseline_.hits;
    st.dedup_stats.joins += baseline_.joins;
    st.dedup_stats.evictions += baseline_.evictions;
    st.dedup_stats.duplicate_executions += baseline_.duplicate_executions;
    const bool ok = save_snapshot(cfg_.snapshot_path, st, why);
    series(ok ? snapshots_ok_ : snapshots_fail_, "ops.snapshots",
           {"result", ok ? "ok" : "fail"})
        .add();
    if (ok) {
      last_snapshot_ms_.store(net::unix_now_ms(),
                              std::memory_order_relaxed);
    }
    return ok;
  }

  /// Milliseconds since the last successful snapshot; < 0 = never.
  [[nodiscard]] double snapshot_age_ms() const {
    const double at = last_snapshot_ms_.load(std::memory_order_relaxed);
    if (at <= 0.0) return -1.0;
    return net::unix_now_ms() - at;
  }

  [[nodiscard]] double uptime_s() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - started_)
        .count();
  }

  /// Final snapshot, admin-socket teardown, telemetry flush. Safe to
  /// call before or after door.shutdown() (post() degrades to inline
  /// execution once the poll thread is gone). Idempotent.
  void shutdown() {
    if (stopped_.exchange(true)) return;
    stop_.store(true, std::memory_order_relaxed);
    if (housekeeper_.joinable()) housekeeper_.join();
    std::string why;
    (void)save_now(&why);
    admin_.stop();
    // The ordering half of the flush fix: telemetry export files are
    // rewritten as part of every orderly exit path, not just object
    // destruction — a SIGTERM'd process leaves current numbers behind.
    svc_.flush_exports();
  }

 private:
  /// A copy of `slot`, registered as `family`{generation[,extra]} on its
  /// first use.
  template <typename Handle>
  Handle series(Handle& slot, std::string_view family,
                std::pair<std::string_view, std::string_view> extra = {}) {
    std::lock_guard lk(series_mu_);
    if (slot) return slot;
    const std::string gen = std::to_string(cfg_.generation);
    const std::string key =
        extra.first.empty()
            ? telemetry::labeled(family, {{"generation", gen}})
            : telemetry::labeled(family, {{"generation", gen}, extra});
    auto& mx = svc_.telemetry().metrics;
    if constexpr (std::is_same_v<Handle, telemetry::Gauge>) {
      slot = mx.gauge_handle(key);
    } else {
      slot = mx.counter_handle(key);
    }
    return slot;
  }

  /// Admin dispatch — runs on the admin thread. Anything touching
  /// poll-thread state goes through door_.post with a future.
  std::pair<bool, std::string> handle(AdminCmd cmd,
                                      const std::string& payload) {
    series(admin_commands_[cmd], "ops.admin_commands",
           {"cmd", to_string(cmd)})
        .add();
    switch (cmd) {
      case AdminCmd::Health:
        return {true, "ok\n"};
      case AdminCmd::Ready: {
        const bool ready = !door_.draining() && !should_exit();
        return {true, std::string("ready=") + (ready ? "1" : "0") + "\n"};
      }
      case AdminCmd::Stats:
        return {true, stats_text()};
      case AdminCmd::Reload:
        return reload(payload);
      case AdminCmd::Snapshot: {
        std::string why;
        if (!save_now(&why)) return {false, "snapshot failed: " + why};
        return {true, "snapshot=ok\n"};
      }
      case AdminCmd::Drain:
        exit_requested_.store(true, std::memory_order_relaxed);
        return {true, "draining=1\n"};
      case AdminCmd::Handoff:
        return handoff();
      case AdminCmd::Ok:
      case AdminCmd::Err:
        break;
    }
    return {false, "unknown command"};
  }

  std::string stats_text() {
    const net::FrontDoorCounters c = door_.counters();
    std::ostringstream out;
    out << "generation=" << cfg_.generation << "\n";
    out << "pid=" << ::getpid() << "\n";
    out << "uptime_s=" << uptime_s() << "\n";
    const double age = snapshot_age_ms();
    out << "snapshot_age_ms=" << age << "\n";
    out << "loaded_from_snapshot=" << (loaded_ ? 1 : 0) << "\n";
    out << "draining=" << (door_.draining() ? 1 : 0) << "\n";
    out << "net.connections=" << c.connections << "\n";
    out << "net.responses_sent=" << c.responses_sent << "\n";
    out << "net.requests_admitted=" << c.requests_admitted << "\n";
    out << "net.requests_rejected=" << c.requests_rejected << "\n";
    out << "net.dedup_hits=" << c.dedup_hits + baseline_.hits << "\n";
    out << "net.dedup_joins=" << c.dedup_joins + baseline_.joins << "\n";
    // The exactly-once proof line: live cache + persisted baseline.
    out << "net.duplicate_executions="
        << c.duplicate_executions + baseline_.duplicate_executions
        << "\n";
    out << "net.key_reuse=" << c.key_reuse << "\n";
    out << "net.deadline_skew_clamped=" << c.deadline_skew_clamped
        << "\n";
    for (const auto& row : door_.tenants().rows()) {
      const std::string p = "tenant." + row.cfg.name + ".";
      out << p << "requests_per_sec=" << row.cfg.requests_per_sec << "\n";
      out << p << "weight=" << row.cfg.weight << "\n";
      out << p << "max_inflight=" << row.cfg.max_inflight << "\n";
      out << p << "max_inflight_bytes=" << row.cfg.max_inflight_bytes
          << "\n";
      out << p << "default_deadline_ms=" << row.cfg.default_deadline_ms
          << "\n";
      out << p << "disabled=" << (row.disabled ? 1 : 0) << "\n";
      out << p << "admitted=" << row.admitted << "\n";
      out << p << "rejected=" << row.rejected << "\n";
    }
    return out.str();
  }

  /// `reload` grammar: one key=value per line. `tenant=NAME` opens a
  /// tenant scope; subsequent tenant keys (token, weight, max_inflight,
  /// max_inflight_bytes, requests_per_sec, burst, default_deadline_ms,
  /// disabled) apply to it — an unknown NAME is registered fresh.
  /// Global keys: service.default_deadline_ms, engine_threads,
  /// codel_target_ms, codel_interval_ms, aimd_min, aimd_backoff,
  /// max_clock_skew_ms, snapshot_interval_ms. Everything is parsed and
  /// checked before anything is committed, and the commit runs on the
  /// poll thread: a reload applies whole or not at all, and a
  /// connection never observes a half-applied tenant row.
  std::pair<bool, std::string> reload(const std::string& payload) {
    std::vector<std::pair<std::string, std::string>> kvs;
    std::istringstream in(payload);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        return {false, "bad line (want key=value): " + line};
      }
      kvs.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    if (kvs.empty()) return {false, "empty reload"};

    std::promise<std::pair<bool, std::string>> done;
    auto fut = done.get_future();
    door_.post([this, kvs = std::move(kvs), &done] {
      done.set_value(apply_reload(kvs));
    });
    return fut.get();
  }

  /// Runs on the poll thread. Every key is first checked into staged
  /// copies; nothing is committed until all of them pass, so a rejected
  /// reload changes nothing — not even the registration of a tenant it
  /// named.
  std::pair<bool, std::string> apply_reload(
      const std::vector<std::pair<std::string, std::string>>& kvs) {
    net::TenantRegistry& reg = door_.tenants();
    struct Staged {
      net::TenantConfig cfg;
      bool fresh = false;  ///< not registered yet
      std::optional<bool> disabled;
    };
    std::vector<Staged> tenants;  // in first-mention order
    std::optional<std::size_t> scope;  // index into `tenants`; none = global
    net::FrontDoorConfig door = door_.config_mutable();
    std::optional<double> service_deadline_ms, engine_threads, snapshot_ms;
    std::size_t applied = 0;
    for (const auto& [key, val] : kvs) {
      char* end = nullptr;
      const double num = std::strtod(val.c_str(), &end);
      const bool numeric = end != nullptr && *end == '\0' && !val.empty();
      if (key == "tenant") {
        scope.reset();
        if (val.empty()) continue;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
          if (tenants[i].cfg.name == val) scope = i;
        }
        if (!scope) {
          Staged t;
          if (const net::Tenant* live = reg.find(val)) {
            t.cfg = live->cfg;
          } else {
            t.cfg.name = val;
            t.fresh = true;
          }
          scope = tenants.size();
          tenants.push_back(std::move(t));
        }
        continue;
      }
      if (scope) {
        Staged& t = tenants[*scope];
        net::TenantConfig& cfg = t.cfg;
        if (key == "token") {
          cfg.token = val;
        } else if (!numeric) {
          return {false, "non-numeric value for " + key + ": " + val};
        } else if (key == "weight") {
          cfg.weight = num;
        } else if (key == "max_inflight") {
          cfg.max_inflight = static_cast<std::size_t>(num);
        } else if (key == "max_inflight_bytes") {
          cfg.max_inflight_bytes = static_cast<std::size_t>(num);
        } else if (key == "requests_per_sec") {
          cfg.requests_per_sec = num;
          cfg.burst = 0.0;  // re-derive the bucket depth from the rate
        } else if (key == "burst") {
          cfg.burst = num;
        } else if (key == "default_deadline_ms") {
          cfg.default_deadline_ms = num;
        } else if (key == "disabled") {
          t.disabled = num != 0.0;
        } else {
          return {false, "unknown tenant key: " + key};
        }
        ++applied;
        continue;
      }
      if (!numeric) {
        return {false, "non-numeric value for " + key + ": " + val};
      }
      if (key == "service.default_deadline_ms") {
        service_deadline_ms = num;
      } else if (key == "engine_threads") {
        engine_threads = num;
      } else if (key == "codel_target_ms") {
        door.codel_target_ms = num;
      } else if (key == "codel_interval_ms") {
        door.codel_interval_ms = num;
      } else if (key == "aimd_min") {
        door.aimd_min = num;
      } else if (key == "aimd_backoff") {
        door.aimd_backoff = num;
      } else if (key == "max_clock_skew_ms") {
        door.max_clock_skew_ms = num;
      } else if (key == "snapshot_interval_ms") {
        snapshot_ms = num;
      } else {
        return {false, "unknown key: " + key};
      }
      ++applied;
    }
    // Every key passed: commit.
    for (const auto& t : tenants) {
      if (t.fresh) {
        reg.add(t.cfg);
      } else {
        reg.update(t.cfg.name, t.cfg);
      }
      if (t.disabled) reg.disable(t.cfg.name, *t.disabled);
    }
    door_.config_mutable() = door;
    if (service_deadline_ms) svc_.set_default_deadline_ms(*service_deadline_ms);
    if (engine_threads) {
      svc_.resize_engine_threads(static_cast<int>(*engine_threads));
    }
    if (snapshot_ms) {
      snapshot_interval_override_ms_.store(*snapshot_ms,
                                           std::memory_order_relaxed);
    }
    return {true, "applied=" + std::to_string(applied) + "\n"};
  }

  /// Hot restart, parent side. Snapshot -> socketpair -> fork/exec the
  /// next generation -> SCM_RIGHTS the listeners -> await its ready
  /// ack -> disown the snapshot file and unix path -> request drain.
  std::pair<bool, std::string> handoff() {
    if (cfg_.handoff_argv.empty()) {
      return {false, "handoff not configured"};
    }
    std::string why;
    if (!save_now(&why)) return {false, "pre-handoff snapshot: " + why};

    int sp[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0) {
      return {false, "socketpair failed"};
    }
    std::vector<std::string> argv = cfg_.handoff_argv;
    argv.push_back("--handoff-fd=" + std::to_string(sp[1]));
    argv.push_back("--generation=" +
                   std::to_string(cfg_.generation + 1));
    // Built before fork: between fork and exec only async-signal-safe
    // calls are allowed in a threaded process (no allocation).
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (auto& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sp[0]);
      ::close(sp[1]);
      return {false, "fork failed"};
    }
    if (pid == 0) {
      // Child: keep sp[1] across exec (socketpair fds have no
      // CLOEXEC); drop the parent's end.
      ::close(sp[0]);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);  // exec failed; the parent times out on the ack
    }
    ::close(sp[1]);
    const int tcp_fd = door_.tcp_listener_fd();
    const int unix_fd = door_.unix_listener_fd();
    std::vector<int> fds;
    char tag = 0;
    if (tcp_fd >= 0 && unix_fd >= 0) {
      fds = {tcp_fd, unix_fd};
      tag = 'b';
    } else if (tcp_fd >= 0) {
      fds = {tcp_fd};
      tag = 't';
    } else if (unix_fd >= 0) {
      fds = {unix_fd};
      tag = 'u';
    } else {
      ::close(sp[0]);
      return {false, "no listeners to hand off"};
    }
    if (!send_fds(sp[0], fds, tag)) {
      ::close(sp[0]);
      return {false, "sending listeners failed"};
    }
    if (!await_ack(sp[0])) {
      ::close(sp[0]);
      return {false, "next generation never acked"};
    }
    ::close(sp[0]);
    // From here the child owns the unix path and the snapshot file:
    // our drain must neither unlink the one nor overwrite the other.
    door_.suppress_unlink();
    handed_off_.store(true, std::memory_order_relaxed);
    exit_requested_.store(true, std::memory_order_relaxed);
    return {true, "pid=" + std::to_string(pid) + "\n"};
  }

  bool await_ack(int fd) {
    struct pollfd p = {fd, POLLIN, 0};
    if (::poll(&p, 1, kHandoffAckTimeoutMs) <= 0) return false;
    char b = 0;
    return ::read(fd, &b, 1) == 1 && b == 'R';
  }

  /// Snapshot cadence + signal handling + ops gauges, off every hot
  /// path. 100ms tick.
  void housekeep() {
    double last_periodic_ms = 0.0;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (detail::g_sighup.exchange(0, std::memory_order_relaxed) != 0) {
        std::string why;
        (void)save_now(&why);
        svc_.flush_exports();
      }
      const double override_ms =
          snapshot_interval_override_ms_.load(std::memory_order_relaxed);
      const double interval = override_ms > 0.0
                                  ? override_ms
                                  : cfg_.snapshot_interval_ms;
      if (interval > 0.0) {
        const double now = net::unix_now_ms();
        if (now - last_periodic_ms >= interval) {
          last_periodic_ms = now;
          std::string why;
          (void)save_now(&why);
        }
      }
      series(uptime_s_, "ops.uptime_s").set(uptime_s());
      const double age = snapshot_age_ms();
      if (age >= 0.0) {
        series(snapshot_age_s_, "ops.snapshot_age_s").set(age / 1000.0);
      }
    }
  }

  service::SolveService<T>& svc_;
  net::FrontDoor<T>& door_;
  OpsConfig cfg_;

  AdminServer admin_;
  std::thread housekeeper_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> exit_requested_{false};
  std::atomic<bool> handed_off_{false};
  std::atomic<double> last_snapshot_ms_{0.0};
  std::atomic<double> snapshot_interval_override_ms_{0.0};
  DedupStatsState baseline_;
  bool loaded_ = false;

  /// The ops.* series (see series()). Snapshots are saved from the admin,
  /// housekeeping and shutdown threads, hence the lock.
  std::mutex series_mu_;
  telemetry::Counter snapshots_ok_, snapshots_fail_;
  std::map<AdminCmd, telemetry::Counter> admin_commands_;
  telemetry::Gauge uptime_s_, snapshot_age_s_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace tda::ops
