#pragma once
// FrontDoor — the wire-protocol server in front of SolveService
// (docs/NET.md).
//
// One poll-based event thread owns every connection: it accepts from a
// TCP and/or unix-domain listener, reads frames into per-connection
// buffers, authenticates tenants (Hello; a Solve before it is refused
// with AuthRequired), enforces tenant quotas at admission with typed
// SolveErr rejects, and queues admitted requests into per-tenant
// deficit-round-robin lanes. The pump drains lanes into
// SolveService::submit (callback form) while the service-side in-flight
// window has room; the service's own shape-bucketed coalescer then
// merges same-shape systems across tenants into single ragged solves.
//
// An admitted request travels as one Ticket (admission -> lane ->
// service -> completion callback) and every way it can end — served, a
// lane deadline expiry, a CoDel shed, its connection closing while it
// waits in a lane — goes through settle(), once.
//
// Completions arrive on service worker threads. The callback parks the
// ticket and response on a mutex-guarded queue and writes one byte to
// the wake pipe — it never touches the service or the poll thread's
// state, so the service-mutex -> completions-mutex lock order is the
// only one that exists. The poll thread swaps the queue out under the
// lock and does all socket work unlocked.
//
// Flow control:
//   * slow consumers: a connection whose write buffer passes
//     kWriteBufferLimit stops being read (POLLIN off) until it drains
//     below half the limit — one stalled reader cannot balloon memory
//     or starve the loop;
//   * idle timeout: a connection with no traffic and nothing in flight
//     for idle_timeout_ms is closed;
//   * partial-frame stall: a connection holding an incomplete frame
//     with no new byte for kPartialFrameStallMs gets a typed BadFrame
//     and is closed, whatever idle_timeout_ms says;
//   * drain: begin_drain() stops accepting connections, answers new
//     Solve frames with ErrorCode::Draining, lets everything already
//     admitted finish through the service, flushes write buffers (for
//     at most kDrainFlushTimeoutMs), says Goodbye, closes every
//     connection and only then lets shutdown() return — a client
//     mid-stream at drain time gets its completed response or a typed
//     Draining frame, never a silent close.
//
// Faults (TDA_FAULTS): net_drop closes a connection mid-read; bytes
// read while net_corrupt fires are bit-flipped before decoding, which
// the checksum turns into a BadFrame reject + close. Both are counted.
//
// Reliability layer (protocol v2, docs/ROBUSTNESS.md):
//   * deadlines: v2 Solve frames carry an absolute unix-epoch deadline
//     (v1 relative budgets and per-tenant defaults are folded into the
//     same absolute form at arrival). Expired-on-arrival requests are
//     rejected with DeadlineExpired before admission; requests whose
//     deadline lapses while parked in a lane are rejected at the pump,
//     before any device dispatch. What survives enters the service with
//     its remaining relative budget.
//   * idempotency: keyed Solves run through a per-tenant dedup cache.
//     A resend of a completed request replays the cached result; a
//     resend of one still executing parks as a waiter on it. The device
//     never executes the same (tenant, key) twice while the entry
//     lives — net.duplicate_executions counts violations (stays 0).
//   * overload (net/overload.hpp): CoDel queue-age shedding per lane
//     and a per-tenant AIMD window on the service keep goodput from
//     collapsing when offered load is a multiple of capacity.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "faults/faults.hpp"
#include "net/dedup.hpp"
#include "net/overload.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/tenant.hpp"
#include "ops/state.hpp"
#include "service/solve_service.hpp"
#include "telemetry/metrics.hpp"

namespace tda::net {

/// Per-request equation cap (ErrorCode::TooLarge beyond it).
inline constexpr std::size_t kMaxSystems = std::size_t{1} << 22;
/// Decoder payload cap; larger length prefixes are Corrupt.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{256} << 20;
/// Write-buffer high-water mark: past it the connection stops being
/// read until the buffer drains below half of it.
inline constexpr std::size_t kWriteBufferLimit = std::size_t{4} << 20;
/// DRR quantum in equations per weight unit per round.
inline constexpr double kDrrQuantum = 1024.0;
/// A connection that has held an incomplete frame this long without a
/// new byte is refused with a typed BadFrame and closed: a corrupted
/// length prefix, or a peer that stopped mid-frame, never waits forever.
inline constexpr double kPartialFrameStallMs = 5000.0;
/// During drain, force-close connections whose write buffers have not
/// flushed after this long (a consumer that stopped reading cannot
/// hold shutdown hostage). Completion callbacks are always awaited.
inline constexpr double kDrainFlushTimeoutMs = 5000.0;

/// Listener, connection and clock-skew settings, plus the overload
/// knobs (max_service_inflight, codel_*, aimd_*) inherited from
/// OverloadConfig.
struct FrontDoorConfig : OverloadConfig {
  /// TCP listen spec ("127.0.0.1:0" for an ephemeral port); empty = no
  /// TCP listener.
  std::string tcp;
  /// Unix-domain socket path; empty = no unix listener. At least one
  /// listener must be configured.
  std::string unix_path;

  /// Close connections idle (no traffic, nothing in flight) this long.
  /// 0 disables.
  double idle_timeout_ms = 0.0;
  /// Poll timeout (ms) — the cadence of idle/timeout housekeeping.
  double poll_interval_ms = 10.0;

  /// Clock-skew guard (docs/OPERATIONS.md): a Hello that carries the
  /// client's wall clock yields a per-connection skew estimate
  /// (arrival time minus client stamp, so it overestimates by one-way
  /// latency — the threshold absorbs that). When |skew| exceeds this,
  /// the connection's *absolute* v2 deadlines are untrusted and
  /// replaced with the tenant's default budget instead of rejecting
  /// everything as expired (or accepting everything forever).
  /// <= 0 disables the clamp.
  double max_clock_skew_ms = 2000.0;

  /// Listener fds inherited from a previous server generation over the
  /// hot-restart handoff socket (docs/OPERATIONS.md). >= 0 adopts the
  /// fd instead of binding `tcp` / `unix_path` — both generations then
  /// share one kernel accept queue, so no connect is ever refused
  /// during the switchover.
  int inherited_tcp_fd = -1;
  int inherited_unix_fd = -1;
};

/// Monotonic counters of the front door (snapshot via counters()). All
/// but the five dedup fields are read from the service registry's net.*
/// counters, so a door's totals and its exported metrics are one
/// accounting (two doors on one service would share them).
struct FrontDoorCounters {
  std::uint64_t connections = 0;      ///< accepted
  std::uint64_t closed = 0;           ///< closed (any reason)
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bad_frames = 0;       ///< corrupt/unparsable frames
  std::uint64_t auth_failures = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_rejected = 0; ///< typed rejects incl. quota/drain
  std::uint64_t responses_sent = 0;
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t idle_closes = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_corruptions = 0;
  std::uint64_t dedup_hits = 0;       ///< resends served from cache
  std::uint64_t dedup_joins = 0;      ///< resends parked on in-flight work
  std::uint64_t dedup_evictions = 0;  ///< cache TTL/cap evictions
  std::uint64_t duplicate_executions = 0;  ///< keyed work executed twice
                                           ///< (exactly-once proof: 0)
  std::uint64_t deadline_expired_arrival = 0;  ///< expired before admission
  std::uint64_t deadline_expired_queued = 0;   ///< expired in a lane
  std::uint64_t shed_codel = 0;       ///< queue-age sheds
  std::uint64_t aimd_throttles = 0;   ///< pump passes blocked by a window
  std::uint64_t key_reuse = 0;        ///< idem key reused, different payload
  std::uint64_t deadline_skew_clamped = 0;  ///< absolute deadlines replaced
                                            ///< on skewed connections
};

template <typename T>
class FrontDoor {
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

 public:
  FrontDoor(service::SolveService<T>& svc, FrontDoorConfig cfg)
      : svc_(svc),
        cfg_(std::move(cfg)),
        lanes_(kDrrQuantum),
        overload_(cfg_, metrics()) {
    for (const TotalRow& row : kTotalRows) {
      totals_.*row.handle = metrics().counter_handle(row.metric);
    }
  }

  ~FrontDoor() { shutdown(); }

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Registers a tenant. Call before start().
  void add_tenant(TenantConfig cfg) { tenants_.add(std::move(cfg)); }

  [[nodiscard]] TenantRegistry& tenants() { return tenants_; }

  /// Opens the listeners and starts the poll thread. False (with *err
  /// set) when no listener could be opened.
  bool start(std::string* err) {
    if (running_) return true;
    if (cfg_.tcp.empty() && cfg_.unix_path.empty() &&
        cfg_.inherited_tcp_fd < 0 && cfg_.inherited_unix_fd < 0) {
      if (err != nullptr) *err = "front door has no listener configured";
      return false;
    }
    if (cfg_.inherited_tcp_fd >= 0) {
      // Hot restart: adopt the previous generation's listener instead
      // of binding — both generations then accept from one queue.
      tcp_listener_ = Fd(cfg_.inherited_tcp_fd);
      tcp_port_ = bound_port(tcp_listener_.get());
      set_nonblocking(tcp_listener_.get());
    } else if (!cfg_.tcp.empty()) {
      const auto ep = parse_endpoint(cfg_.tcp);
      if (!ep || ep->is_unix) {
        if (err != nullptr) *err = "bad tcp listen spec: " + cfg_.tcp;
        return false;
      }
      tcp_listener_ = listen_endpoint(*ep, 64, err);
      if (!tcp_listener_.valid()) return false;
      tcp_port_ = bound_port(tcp_listener_.get());
      set_nonblocking(tcp_listener_.get());
    }
    if (cfg_.inherited_unix_fd >= 0) {
      // Adopting means *not* re-binding cfg_.unix_path — the path on
      // disk already names this very socket; unlinking it here (as
      // listen_endpoint would) would cut off the shared accept queue.
      unix_listener_ = Fd(cfg_.inherited_unix_fd);
      set_nonblocking(unix_listener_.get());
    } else if (!cfg_.unix_path.empty()) {
      Endpoint ep;
      ep.is_unix = true;
      ep.path = cfg_.unix_path;
      unix_listener_ = listen_endpoint(ep, 64, err);
      if (!unix_listener_.valid()) return false;
      set_nonblocking(unix_listener_.get());
    }
    int fds[2];
    if (::pipe(fds) != 0) {
      if (err != nullptr) *err = "wake pipe failed";
      return false;
    }
    wake_rd_ = Fd(fds[0]);
    wake_wr_ = Fd(fds[1]);
    set_nonblocking(wake_rd_.get());
    set_nonblocking(wake_wr_.get());
    {
      // post() reads running_ under tasks_mu_ from the admin thread.
      std::lock_guard lk(tasks_mu_);
      running_ = true;
    }
    thread_ = std::thread([this] { loop(); });
    return true;
  }

  /// The TCP port actually bound (resolves an ephemeral ":0" spec).
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  /// Starts the graceful drain without waiting: stops accepting, new
  /// Solve frames answer Draining, admitted work keeps flowing.
  void begin_drain() {
    draining_.store(true, std::memory_order_relaxed);
    wake();
  }

  /// Drains and stops: waits for every admitted request's completion to
  /// be delivered (or its connection's flush window to lapse), closes
  /// all sockets and joins the poll thread. Idempotent.
  void shutdown() {
    if (!running_) return;
    begin_drain();
    if (thread_.joinable()) thread_.join();
    {
      std::lock_guard lk(tasks_mu_);
      running_ = false;
    }
    // Tasks that slipped in after the loop exited still get answered —
    // a promise parked on one must never deadlock a clean shutdown.
    run_tasks();
    tcp_listener_.reset();
    unix_listener_.reset();
    wake_rd_.reset();
    wake_wr_.reset();
    if (!cfg_.unix_path.empty() && unlink_on_shutdown_) {
      ::unlink(cfg_.unix_path.c_str());
    }
  }

  [[nodiscard]] FrontDoorCounters counters() const {
    FrontDoorCounters c;
    for (const TotalRow& row : kTotalRows) {
      if (row.field != nullptr) {
        c.*row.field =
            static_cast<std::uint64_t>((totals_.*row.handle).value());
      }
    }
    c.dedup_hits = dedup_mirror_.hits.load(std::memory_order_relaxed);
    c.dedup_joins = dedup_mirror_.joins.load(std::memory_order_relaxed);
    c.dedup_evictions =
        dedup_mirror_.evictions.load(std::memory_order_relaxed);
    c.duplicate_executions =
        dedup_mirror_.duplicate_executions.load(std::memory_order_relaxed);
    c.key_reuse = dedup_mirror_.key_reuse.load(std::memory_order_relaxed);
    return c;
  }

  /// Admitted-but-unanswered systems inside the service window.
  [[nodiscard]] std::size_t service_inflight() const {
    return service_inflight_.load(std::memory_order_relaxed);
  }

  // --- zero-downtime operations surface (src/ops, docs/OPERATIONS.md) ---

  /// Runs `fn` on the poll thread at its next iteration. This is the
  /// only way code off the poll thread may touch poll-thread-owned
  /// state (dedup cache, lanes, AIMD windows, connections): the admin
  /// socket and the snapshot writer both funnel through here. Tasks
  /// posted after shutdown() has joined the thread run inline on the
  /// caller (the poll thread is gone, so there is nothing to race).
  void post(std::function<void()> fn) {
    bool inline_run = false;
    {
      std::lock_guard lk(tasks_mu_);
      if (running_) {
        tasks_.push_back(std::move(fn));
      } else {
        inline_run = true;  // no poll thread, so nothing to race
      }
    }
    if (inline_run) {
      fn();
      return;
    }
    wake();
  }

  /// Copies everything restart-persistent into `out`: tenant registry
  /// rows (config + usage + AIMD window) and the completed dedup
  /// entries with their payload hashes. Poll-thread state is read
  /// directly, so call this *on* the poll thread (via post()) while
  /// running, or from the owning thread after shutdown.
  void export_state(ops::ServerState& out) {
    out.tenants.clear();
    out.entries.clear();
    for (auto& row : tenants_.rows()) {
      ops::TenantState ts;
      ts.cfg = std::move(row.cfg);
      ts.disabled = row.disabled;
      ts.admitted = row.admitted;
      ts.rejected = row.rejected;
      Tenant* t = tenants_.find(ts.cfg.name);
      if (t != nullptr) ts.aimd_limit = t->overload.window;
      out.tenants.push_back(std::move(ts));
    }
    // Dedup keys are scoped by Tenant* — map each back to its name so
    // the next generation (different addresses) can re-scope them.
    std::map<std::uint64_t, std::string> names;
    for (const auto& ts : out.tenants) {
      names[tenant_id(tenants_.find(ts.cfg.name))] = ts.cfg.name;
    }
    dedup_.for_each_completed([&](std::uint64_t tid, std::uint64_t key,
                                  std::uint64_t payload_hash,
                                  const service::SolveResponse<T>& resp,
                                  std::size_t /*bytes*/) {
      auto it = names.find(tid);
      if (it == names.end()) return;  // dead-tenant entry
      ops::DedupEntryState e;
      e.tenant = it->second;
      e.key = key;
      e.payload_hash = payload_hash;
      e.status = static_cast<int>(resp.status);
      e.error = resp.error;
      e.device = resp.device;
      e.x.assign(resp.x.begin(), resp.x.end());
      e.solve_ms = resp.solve_ms;
      e.wait_ms = resp.wait_ms;
      e.batch_systems = resp.batch_systems;
      e.retries = resp.retries;
      e.chunks = resp.chunks;
      e.fallback_used = resp.fallback_used;
      out.entries.push_back(std::move(e));
    });
    const DedupStats& s = dedup_.stats();
    out.dedup_stats.inserts = s.inserts;
    out.dedup_stats.hits = s.hits;
    out.dedup_stats.joins = s.joins;
    out.dedup_stats.evictions = s.evictions;
    out.dedup_stats.duplicate_executions = s.duplicate_executions;
  }

  /// Rebuilds live state from a snapshot: tenants are added or updated
  /// in place (never removed — pointers must stay stable), AIMD windows
  /// restored, and completed dedup entries seeded so a byte-identical
  /// resend of pre-restart work replays instead of re-executing. Call
  /// before start() — it touches poll-thread state without the thread.
  void import_state(const ops::ServerState& st) {
    for (const auto& ts : st.tenants) {
      const std::string& name = ts.cfg.name;
      if (tenants_.find(name) == nullptr) {
        tenants_.add(ts.cfg);
      } else {
        tenants_.update(name, ts.cfg);
      }
      tenants_.disable(name, ts.disabled);
      Tenant* t = tenants_.find(name);
      if (t != nullptr) {
        t->overload.window = ts.aimd_limit;
        t->admitted = ts.admitted;
        t->rejected = ts.rejected;
      }
    }
    for (const auto& e : st.entries) {
      Tenant* t = tenants_.find(e.tenant);
      if (t == nullptr) continue;
      service::SolveResponse<T> resp;
      resp.status = static_cast<service::SolveStatus>(e.status);
      resp.error = e.error;
      resp.device = e.device;
      resp.x.assign(e.x.begin(), e.x.end());
      resp.solve_ms = e.solve_ms;
      resp.wait_ms = e.wait_ms;
      resp.batch_systems = e.batch_systems;
      resp.retries = e.retries;
      resp.chunks = e.chunks;
      resp.fallback_used = e.fallback_used;
      const std::size_t bytes = resp.x.size() * sizeof(T) + 128;
      dedup_.seed_completed(tenant_id(t), e.key, e.payload_hash,
                            std::move(resp), bytes, mono_ms());
    }
    sync_dedup_counters();
  }

  /// Raw listener fds, for SCM_RIGHTS handoff to the next generation
  /// (sendmsg duplicates them into the receiver, so this generation
  /// keeps accepting until its own drain closes its copies). -1 = no
  /// such listener.
  [[nodiscard]] int tcp_listener_fd() const { return tcp_listener_.get(); }
  [[nodiscard]] int unix_listener_fd() const {
    return unix_listener_.get();
  }

  /// After a handoff the unix socket path belongs to the *next*
  /// generation — this generation's shutdown must not unlink it out
  /// from under the shared listener.
  void suppress_unlink() { unlink_on_shutdown_ = false; }

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Live-tunable knobs (CoDel target/interval, AIMD floor/backoff,
  /// clock-skew threshold...). The poll thread reads cfg_ locklessly,
  /// so mutate ONLY from the poll thread — i.e. inside a post()ed
  /// closure. Listener/path fields must not change after start().
  [[nodiscard]] FrontDoorConfig& config_mutable() { return cfg_; }

 private:
  struct Conn {
    Fd fd;
    std::uint64_t id = 0;
    std::string rbuf, wbuf;
    Tenant* tenant = nullptr;
    TimePoint last_rx{};
    std::size_t inflight = 0;  ///< admitted requests not yet answered
    std::uint16_t wire_version = kVersion;  ///< negotiated via Hello
    double skew_ms = 0.0;      ///< server clock minus client clock (est.)
    bool skew_known = false;   ///< Hello carried a client timestamp
    bool paused = false;       ///< POLLIN off (write-buffer high water)
    bool closing = false;      ///< flush wbuf, then close
  };

  /// One admitted request, from admission to settle(): who gets the
  /// reply, whom its quota charge belongs to, and its dedup key.
  struct Ticket {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    Tenant* tenant = nullptr;
    std::size_t bytes = 0;       ///< quota charge (decoded payload)
    std::uint64_t idem_key = 0;  ///< 0 = unkeyed
  };

  /// A ticket parked in its tenant's DRR lane with its payload.
  struct Queued {
    Ticket ticket;
    double deadline_unix_ms = 0.0;  ///< absolute; 0 = none
    double enqueue_s = 0.0;         ///< now_s() at lane entry (CoDel)
    SolveFrame<T> frame;
  };

  /// A ticket's service response on its way from a worker callback to
  /// the poll thread, which settles it.
  struct Done {
    Ticket ticket;
    service::SolveResponse<T> resp;
  };

  /// How an admitted request ended. Served carries the service's
  /// response; the door answers every other ending itself with the
  /// typed error kEndings names for it.
  enum class Outcome { Served, Expired, Shed, Dropped };
  struct Ending {
    ErrorCode code;
    std::string_view msg;
  };
  static constexpr Ending kEndings[] = {
      {ErrorCode::None, ""},
      {ErrorCode::DeadlineExpired, "deadline expired in queue"},
      {ErrorCode::Shed, "shed: queue age over target"},
      {ErrorCode::Internal, "original request aborted with its connection"},
  };

  void wake() {
    if (wake_wr_.valid()) {
      const char b = 1;
      (void)::write(wake_wr_.get(), &b, 1);
    }
  }

  /// Executes every posted closure. Runs on the poll thread while it
  /// lives; shutdown() calls it once more after the join for stragglers.
  void run_tasks() {
    std::vector<std::function<void()>> batch;
    {
      std::lock_guard lk(tasks_mu_);
      batch.swap(tasks_);
    }
    for (auto& fn : batch) fn();
  }

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  telemetry::MetricsRegistry& metrics() {
    return svc_.telemetry().metrics;
  }

  void send_frame(Conn& conn, std::string bytes) {
    totals_.frames_tx.add();
    totals_.bytes_tx.add(static_cast<double>(bytes.size()));
    conn.wbuf.append(bytes);
    maybe_pause(conn);
  }

  void send_err(Conn& conn, std::uint64_t request_id, ErrorCode code,
                std::string_view msg) {
    std::string out;
    encode_solve_err(out, request_id, code, msg);
    send_frame(conn, std::move(out));
  }

  /// Every typed reject of a request: counted in requests_rejected and
  /// net.rejects{tenant,reason}, then sent. The one reject before auth
  /// is AuthRequired, counted in the door's tenant "-" row.
  void reject(Conn& conn, Tenant* tenant, std::uint64_t request_id,
              ErrorCode code, std::string_view msg) {
    totals_.requests_rejected.add();
    count(tenant != nullptr
              ? tenant->series.rejects[static_cast<std::size_t>(code)]
              : preauth_rejects_,
          "net.rejects", tenant, {"reason", to_string(code)});
    send_err(conn, request_id, code, msg);
  }

  void maybe_pause(Conn& conn) {
    if (!conn.paused && conn.wbuf.size() > kWriteBufferLimit) {
      conn.paused = true;
      totals_.backpressure_pauses.add();
    }
  }

  /// Resuming restarts the stall clock: while paused the door did not
  /// read, so the peer's silence says nothing about a partial frame.
  void maybe_resume(Conn& conn) {
    if (conn.paused && conn.wbuf.size() < kWriteBufferLimit / 2) {
      conn.paused = false;
      conn.last_rx = Clock::now();
    }
  }

  void close_conn(std::uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conns_.erase(it);
    totals_.closed.add();
    metrics().set("net.connections_now",
                  static_cast<double>(conns_.size()));
    // Requests still parked in lanes die with the connection. Requests
    // already inside the service settle later and find it gone.
    lanes_.drop_if(
        [id](const Queued& q) { return q.ticket.conn_id == id; },
        [this](const Queued& q) { settle(q.ticket, Outcome::Dropped); });
  }

  void accept_from(Fd& listener) {
    if (!listener.valid()) return;
    for (;;) {
      const int fd = ::accept(listener.get(), nullptr, nullptr);
      if (fd < 0) return;
      if (draining_.load(std::memory_order_relaxed)) {
        // Too late: an orderly Goodbye tells the client why.
        std::string out;
        encode_goodbye(out);
        (void)write_all(fd, out.data(), out.size());
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      Conn conn;
      conn.fd = Fd(fd);
      conn.id = next_conn_id_++;
      conn.last_rx = Clock::now();
      totals_.connections.add();
      metrics().set("net.connections_now",
                    static_cast<double>(conns_.size() + 1));
      conns_.emplace(conn.id, std::move(conn));
    }
  }

  void handle_hello(Conn& conn, const FrameView& frame) {
    const auto hello = parse_hello(frame.payload);
    if (!hello) {
      bad_frame(conn, "unparsable hello");
      return;
    }
    Tenant* t = tenants_.authenticate(hello->token);
    if (t == nullptr) {
      totals_.auth_failures.add();
      send_err(conn, frame.request_id, ErrorCode::AuthFailed,
               "unknown tenant token");
      conn.closing = true;
      return;
    }
    conn.tenant = t;
    conn.wire_version = negotiate_version(hello->advertised_version);
    if (hello->has_timestamp) {
      // Arrival minus the client's send stamp = clock skew plus one-way
      // network delay; the clamp threshold is orders of magnitude above
      // sane RTTs, so the delay term is noise.
      conn.skew_ms = unix_now_ms() - hello->client_unix_ms;
      conn.skew_known = true;
    }
    std::string out;
    encode_hello_ok(out, t->cfg.name, conn.wire_version, unix_now_ms());
    send_frame(conn, std::move(out));
  }

  static std::uint64_t tenant_id(const Tenant* t) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(t));
  }

  [[nodiscard]] double mono_ms() const { return now_s() * 1000.0; }

  /// Adds one to `series`: `family`{tenant[,extra]} (tenant "-" for
  /// nullptr), registered on its first use.
  void count(telemetry::Counter& series, std::string_view family,
             const Tenant* t,
             std::pair<std::string_view, std::string_view> extra = {}) {
    if (!series) {
      const std::string_view name =
          t != nullptr ? std::string_view(t->cfg.name) : "-";
      series = metrics().counter_handle(
          extra.first.empty()
              ? telemetry::labeled(family, {{"tenant", name}})
              : telemetry::labeled(family, {{"tenant", name}, extra}));
    }
    series.add();
  }


  void sync_dedup_counters() {
    const DedupStats& s = dedup_.stats();
    constexpr auto kRelaxed = std::memory_order_relaxed;
    dedup_mirror_.hits.store(s.hits, kRelaxed);
    dedup_mirror_.joins.store(s.joins, kRelaxed);
    dedup_mirror_.evictions.store(s.evictions, kRelaxed);
    dedup_mirror_.duplicate_executions.store(s.duplicate_executions,
                                             kRelaxed);
    dedup_mirror_.key_reuse.store(s.mismatches, kRelaxed);
  }

  void handle_solve(Conn& conn, const FrameView& frame) {
    Tenant* tenant = conn.tenant;
    if (tenant == nullptr) {
      reject(conn, tenant, frame.request_id, ErrorCode::AuthRequired,
             "hello first");
      return;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      reject(conn, tenant, frame.request_id, ErrorCode::Draining,
             "server is draining");
      return;
    }
    const std::uint8_t width = solve_dtype(frame.payload);
    if (width != 0 && width != sizeof(T)) {
      reject(conn, tenant, frame.request_id, ErrorCode::Dtype,
             sizeof(T) == 4 ? "server dtype is f32" : "server dtype is f64");
      return;
    }
    auto solve = parse_solve<T>(frame.payload, frame.version);
    if (!solve) {
      bad_frame(conn, "unparsable solve payload");
      return;
    }
    if (solve->n > kMaxSystems) {
      reject(conn, tenant, frame.request_id, ErrorCode::TooLarge,
             "n exceeds server limit");
      return;
    }

    // Clock-skew guard: a connection whose Hello stamp put its clock
    // more than max_clock_skew_ms from ours cannot be trusted to mint
    // absolute deadlines — an hour-slow client would have every request
    // "expire" on arrival, an hour-fast one would never expire. Its
    // absolute deadline is discarded so the tenant's default relative
    // budget applies below (relative budgets don't care about skew).
    if (cfg_.max_clock_skew_ms > 0.0 && conn.skew_known &&
        solve->deadline_unix_ms > 0.0 &&
        std::abs(conn.skew_ms) > cfg_.max_clock_skew_ms) {
      solve->deadline_unix_ms = 0.0;
      totals_.deadline_skew_clamped.add();
      count(tenant->series.skew_clamped, "net.deadline_skew_clamped",
            tenant);
    }

    // Fold every deadline form into one absolute unix-epoch instant:
    // v2 frames carry it directly, v1 budgets are anchored at arrival,
    // and a frame with no deadline inherits the tenant's default.
    double deadline_unix = solve->deadline_unix_ms;
    if (deadline_unix <= 0.0 && solve->deadline_ms > 0.0) {
      deadline_unix = unix_now_ms() + solve->deadline_ms;
    }
    if (deadline_unix <= 0.0 && tenant->cfg.default_deadline_ms > 0.0) {
      deadline_unix = unix_now_ms() + tenant->cfg.default_deadline_ms;
    }

    // Idempotent resends never reach admission: a completed original
    // replays from the cache, an in-flight one adopts this request as
    // a waiter. Both paths touch no quota and no device.
    const std::uint64_t tid = tenant_id(tenant);
    if (solve->idem_key != 0) {
      using State =
          typename DedupCache<service::SolveResponse<T>>::State;
      // The payload fingerprint rides the dedup entry (and the ops
      // snapshot): a resend must be byte-identical to its original, so
      // a reused key with a different payload is a client bug answered
      // with KeyReuse, never a silent wrong replay.
      const std::uint64_t payload_hash =
          fnv1a64(frame.payload, kFnv64LegacyBasis);
      const State state =
          dedup_.begin(tid, solve->idem_key, payload_hash, mono_ms());
      sync_dedup_counters();
      if (state == State::Mismatch) {
        reject(conn, tenant, frame.request_id, ErrorCode::KeyReuse,
               "idempotency key reused for a different payload");
        return;
      }
      if (state == State::Completed) {
        count(tenant->series.dedup_hits, "net.dedup_hits", tenant);
        std::string out;
        encode_response(frame.request_id,
                        *dedup_.lookup(tid, solve->idem_key), out,
                        conn.wire_version);
        send_frame(conn, std::move(out));
        return;
      }
      if (state == State::InFlight) {
        dedup_.add_waiter(tid, solve->idem_key,
                          {conn.id, frame.request_id});
        count(tenant->series.dedup_joins, "net.dedup_joins", tenant);
        ++conn.inflight;  // a response will be replayed on completion
        return;
      }
    }

    // Refused before admission (expired on arrival, or over a quota):
    // the fresh dedup entry, if any, is abandoned so a later retry may
    // legitimately execute. Nothing can have joined it yet.
    const auto forget_key = [&] {
      if (solve->idem_key != 0) dedup_.abandon(tid, solve->idem_key);
    };

    // Expired on arrival: typed reject before any quota charge or
    // device dispatch.
    if (deadline_unix > 0.0 && unix_now_ms() >= deadline_unix) {
      forget_key();
      totals_.deadline_expired_arrival.add();
      count(tenant->series.expired_arrival, "net.deadline_expired", tenant,
            {"where", "arrival"});
      reject(conn, tenant, frame.request_id, ErrorCode::DeadlineExpired,
             "deadline expired before admission");
      return;
    }

    const std::size_t bytes = solve_bytes<T>(solve->n);
    const Admission verdict = tenants_.admit(*tenant, 1, bytes, now_s());
    if (verdict != Admission::Ok) {
      forget_key();
      const ErrorCode code =
          verdict == Admission::QuotaInflight ? ErrorCode::QuotaInflight
          : verdict == Admission::QuotaBytes  ? ErrorCode::QuotaBytes
                                              : ErrorCode::QuotaRate;
      reject(conn, tenant, frame.request_id, code, to_string(verdict));
      return;
    }
    totals_.requests_admitted.add();
    count(tenant->series.requests, "net.requests", tenant);
    publish_inflight_bytes();
    Queued q;
    q.ticket = {conn.id, frame.request_id, tenant, bytes, solve->idem_key};
    q.deadline_unix_ms = deadline_unix;
    q.enqueue_s = now_s();
    q.frame = std::move(*solve);
    const double cost = static_cast<double>(q.frame.n);
    ++conn.inflight;
    lanes_.enqueue(tenant, std::move(q), cost);
  }

  void bad_frame(Conn& conn, std::string_view why) {
    totals_.bad_frames.add();
    send_err(conn, 0, ErrorCode::BadFrame, why);
    conn.closing = true;
  }

  void handle_frame(Conn& conn, const FrameView& frame) {
    totals_.frames_rx.add();
    switch (frame.type) {
      case FrameType::Hello:
        handle_hello(conn, frame);
        return;
      case FrameType::Solve:
        handle_solve(conn, frame);
        return;
      case FrameType::Goodbye:
        conn.closing = true;
        return;
      case FrameType::HelloOk:
      case FrameType::SolveOk:
      case FrameType::SolveErr:
        bad_frame(conn, "server-only frame from client");
        return;
    }
    bad_frame(conn, "unknown frame type");
  }

  /// Reads everything available from a connection; returns false when
  /// the connection should be closed (EOF, error, injected drop, or a
  /// corrupt stream).
  bool read_conn(Conn& conn) {
    auto& inj = faults::FaultInjector::global();
    char tmp[16384];
    for (;;) {
      const long n = read_some(conn.fd.get(), tmp, sizeof(tmp));
      if (n == -2) break;    // drained
      if (n <= 0) return false;
      conn.last_rx = Clock::now();
      totals_.bytes_rx.add(static_cast<double>(n));
      if (inj.fire(faults::Site::NetDrop)) {
        totals_.injected_drops.add();
        return false;
      }
      std::string chunk(tmp, static_cast<std::size_t>(n));
      if (inj.fire(faults::Site::NetCorrupt)) {
        totals_.injected_corruptions.add();
        faults::corrupt_bytes(chunk, inj.config().seed ^ conn.id, 3);
      }
      conn.rbuf.append(chunk);
      if (static_cast<std::size_t>(n) < sizeof(tmp)) break;
    }
    while (!conn.closing) {
      const DecodeResult r = decode_frame(conn.rbuf, kMaxPayloadBytes);
      if (r.status == DecodeStatus::NeedMore) break;
      if (r.status == DecodeStatus::Corrupt) {
        bad_frame(conn, r.error);
        break;
      }
      handle_frame(conn, r.frame);
      conn.rbuf.erase(0, r.consumed);
    }
    return true;
  }

  /// Flushes a connection's write buffer; false = close it.
  bool write_conn(Conn& conn) {
    while (!conn.wbuf.empty()) {
      const long n =
          write_some(conn.fd.get(), conn.wbuf.data(), conn.wbuf.size());
      if (n == -2) break;  // kernel buffer full; POLLOUT will retry
      if (n < 0) return false;
      conn.wbuf.erase(0, static_cast<std::size_t>(n));
    }
    maybe_resume(conn);
    if (conn.closing && conn.wbuf.empty()) return false;
    return true;
  }

  /// Moves lane heads into the service while the in-flight window has
  /// room. Lanes whose tenant is at its AIMD window pass their turn;
  /// dequeued heads whose deadline lapsed in the lane or whose queue
  /// age trips CoDel are settled with a typed error right here —
  /// before any device dispatch. The completion callback runs on a
  /// worker thread (or inline for admission rejects): it parks the
  /// response and wakes the poll loop — nothing else.
  void pump() {
    while (service_inflight_.load(std::memory_order_relaxed) <
           cfg_.max_service_inflight) {
      Queued q;
      if (!lanes_.dequeue_if(q, [this](Tenant* t) {
            return overload_.eligible(t->overload);
          })) {
        if (!lanes_.empty()) totals_.aimd_throttles.add();
        break;
      }
      Tenant& tenant = *q.ticket.tenant;
      const double now = now_s();
      if (q.deadline_unix_ms > 0.0 &&
          unix_now_ms() >= q.deadline_unix_ms) {
        totals_.deadline_expired_queued.add();
        count(tenant.series.expired_queued, "net.deadline_expired", &tenant,
              {"where", "queued"});
        settle(q.ticket, Outcome::Expired);
        continue;
      }
      const double sojourn_ms = (now - q.enqueue_s) * 1000.0;
      if (overload_.should_shed(tenant.overload, sojourn_ms, now)) {
        totals_.shed_codel.add();
        count(tenant.series.shed_codel, "net.shed_codel", &tenant);
        settle(q.ticket, Outcome::Shed);
        continue;
      }
      service_inflight_.fetch_add(1, std::memory_order_relaxed);
      overload_.submitted(tenant.overload);
      if (q.ticket.idem_key != 0) {
        // The exactly-once proof point: a keyed request enters the
        // device path at most once while its entry is tracked.
        const std::uint64_t prior =
            dedup_.mark_executed(tenant_id(&tenant), q.ticket.idem_key);
        if (prior > 0) {
          sync_dedup_counters();
          totals_.duplicate_executions.add();
        }
      }
      service::SolveRequest<T> req;
      req.a = std::move(q.frame.a);
      req.b = std::move(q.frame.b);
      req.c = std::move(q.frame.c);
      req.d = std::move(q.frame.d);
      // Remaining budget, re-derived from the absolute deadline at
      // submit time: lane wait has already been spent.
      if (q.deadline_unix_ms > 0.0) {
        req.deadline_ms = q.deadline_unix_ms - unix_now_ms();
        if (req.deadline_ms < 0.01) req.deadline_ms = 0.01;
      }
      req.tenant = tenant.cfg.name;
      svc_.submit(std::move(req), [this, ticket = q.ticket](
                                      service::SolveResponse<T> resp) {
        {
          std::lock_guard lk(done_mu_);
          done_.push_back(Done{ticket, std::move(resp)});
        }
        wake();
      });
    }
  }

  /// Shed, TimedOut and Rejected say "try again later": they signal
  /// congestion to AIMD and are never cached, so a keyed retry
  /// re-executes. Every other status is a deterministic verdict.
  static bool retryable(service::SolveStatus status) {
    using service::SolveStatus;
    return status == SolveStatus::Shed || status == SolveStatus::TimedOut ||
           status == SolveStatus::Rejected;
  }

  void publish_inflight_bytes() {
    metrics().set("net.inflight_bytes_now",
                  static_cast<double>(tenants_.inflight_bytes()));
  }

  /// The one end of every admitted request. Returns its tenant charge
  /// and (when served) its service-window slot; feeds AIMD — congested
  /// on a shed or a retryable service outcome, grown on any other
  /// service outcome; answers the original requester, then any dedup
  /// waiters on its key, on whichever connections are still open; and
  /// caches a deterministic verdict or un-tracks the key.
  void settle(const Ticket& t, Outcome how,
              service::SolveResponse<T> resp = {}) {
    Tenant& tenant = *t.tenant;
    const bool served = how == Outcome::Served;
    const bool retry = served && retryable(resp.status);
    tenants_.release(tenant, 1, t.bytes);
    publish_inflight_bytes();
    if (served) {
      service_inflight_.fetch_sub(1, std::memory_order_relaxed);
      overload_.finished(tenant.overload);
    }
    if (how == Outcome::Shed || retry) {
      overload_.congested(tenant.overload, tenant.cfg.name);
    } else if (served) {
      overload_.completed(tenant.overload, tenant.cfg.name);
    }

    const Ending& end = kEndings[static_cast<int>(how)];
    const auto answer = [&](std::uint64_t conn_id, std::uint64_t request_id,
                            bool original) {
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) return;
      Conn& conn = it->second;
      if (conn.inflight > 0) --conn.inflight;
      if (served) {
        std::string out;
        encode_response(request_id, resp, out, conn.wire_version);
        send_frame(conn, std::move(out));
      } else if (original) {
        reject(conn, &tenant, request_id, end.code, end.msg);
      } else {
        send_err(conn, request_id, end.code, end.msg);
      }
    };
    if (served) totals_.responses_sent.add();
    answer(t.conn_id, t.request_id, true);
    if (t.idem_key == 0) return;

    const std::uint64_t tid = tenant_id(&tenant);
    const bool cache = served && !retry;
    for (const auto& w : cache ? dedup_.take_waiters(tid, t.idem_key)
                               : dedup_.abandon(tid, t.idem_key)) {
      answer(w.conn_id, w.request_id, false);
    }
    if (cache) {
      const std::size_t retained = resp.x.size() * sizeof(T) + 128;
      dedup_.complete(tid, t.idem_key, std::move(resp), retained,
                      mono_ms());
    }
    sync_dedup_counters();
    metrics().set("net.dedup_bytes_now",
                  static_cast<double>(dedup_.stats().bytes));
  }

  void encode_response(std::uint64_t request_id,
                       const service::SolveResponse<T>& resp,
                       std::string& out,
                       std::uint16_t wire_version = kVersion) {
    using service::SolveStatus;
    switch (resp.status) {
      case SolveStatus::Ok:
        encode_solve_ok(out, request_id, resp.x, resp.trace_id,
                        resp.solve_ms, resp.wait_ms, resp.fallback_used,
                        wire_version);
        return;
      case SolveStatus::Rejected:
        // A service-side reject during our drain IS the drain from the
        // client's point of view.
        encode_solve_err(out, request_id,
                         draining_.load(std::memory_order_relaxed)
                             ? ErrorCode::Draining
                             : ErrorCode::Rejected,
                         resp.error.empty() ? "service rejected"
                                            : resp.error,
                         wire_version);
        return;
      case SolveStatus::Shed:
        encode_solve_err(out, request_id, ErrorCode::Shed,
                         "shed by backpressure", wire_version);
        return;
      case SolveStatus::TimedOut:
        encode_solve_err(out, request_id, ErrorCode::TimedOut,
                         "deadline lapsed", wire_version);
        return;
      case SolveStatus::Failed:
        encode_solve_err(out, request_id, ErrorCode::Failed, resp.error,
                         wire_version);
        return;
      case SolveStatus::Singular:
        encode_solve_err(out, request_id, ErrorCode::Singular,
                         resp.error, wire_version);
        return;
      case SolveStatus::NonFinite:
        encode_solve_err(out, request_id, ErrorCode::NonFinite,
                         resp.error, wire_version);
        return;
    }
    encode_solve_err(out, request_id, ErrorCode::Internal,
                     "unknown status", wire_version);
  }

  /// Settles every parked service response.
  void drain_done() {
    std::vector<Done> batch;
    {
      std::lock_guard lk(done_mu_);
      batch.swap(done_);
    }
    for (auto& d : batch) settle(d.ticket, Outcome::Served, std::move(d.resp));
  }

  /// Closes idle connections (when idle_timeout_ms is set) and refuses
  /// stalled partial frames (always). A paused connection is exempt
  /// from the stall rule — the door itself stopped reading it — and
  /// maybe_resume() restarts its clock.
  void sweep_idle(TimePoint now) {
    const auto ms = [](double v) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(v));
    };
    const auto stall = ms(kPartialFrameStallMs);
    const auto limit = ms(cfg_.idle_timeout_ms);
    std::vector<std::uint64_t> victims;
    for (auto& [id, conn] : conns_) {
      const auto quiet = now - conn.last_rx;
      if (!conn.rbuf.empty() && !conn.closing && !conn.paused &&
          quiet > stall) {
        bad_frame(conn, "partial frame stalled");
      } else if (cfg_.idle_timeout_ms > 0.0 && conn.inflight == 0 &&
                 conn.wbuf.empty() && quiet > limit) {
        victims.push_back(id);
      }
    }
    for (const auto id : victims) {
      totals_.idle_closes.add();
      close_conn(id);
    }
  }

  void loop() {
    TimePoint drain_started{};
    for (;;) {
      const bool draining = draining_.load(std::memory_order_relaxed);
      if (draining && drain_started == TimePoint{}) {
        drain_started = Clock::now();
        tcp_listener_.reset();
        unix_listener_.reset();
      }

      run_tasks();
      drain_done();
      pump();

      if (draining) {
        const bool callbacks_pending =
            service_inflight_.load(std::memory_order_relaxed) > 0 ||
            !lanes_.empty();
        bool flushing = false;
        for (auto& [id, conn] : conns_) {
          if (!conn.wbuf.empty()) flushing = true;
        }
        const bool flush_expired =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      drain_started)
                .count() > kDrainFlushTimeoutMs;
        if (!callbacks_pending && (!flushing || flush_expired)) {
          // Every response is out (or its consumer has forfeited its
          // flush window): say Goodbye, close and stop.
          while (!conns_.empty()) {
            auto& [id, conn] = *conns_.begin();
            encode_goodbye(conn.wbuf);
            (void)write_conn(conn);
            close_conn(id);
          }
          return;
        }
      }

      std::vector<pollfd> fds;
      std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = infra)
      const auto add_fd = [&](int fd, short events, std::uint64_t id) {
        fds.push_back(pollfd{fd, events, 0});
        fd_conn.push_back(id);
      };
      add_fd(wake_rd_.get(), POLLIN, 0);
      if (tcp_listener_.valid()) add_fd(tcp_listener_.get(), POLLIN, 0);
      if (unix_listener_.valid())
        add_fd(unix_listener_.get(), POLLIN, 0);
      for (auto& [id, conn] : conns_) {
        short events = 0;
        if (!conn.paused && !conn.closing) events |= POLLIN;
        if (!conn.wbuf.empty()) events |= POLLOUT;
        if (events == 0) events = POLLERR;
        add_fd(conn.fd.get(), events, id);
      }

      const int timeout =
          static_cast<int>(cfg_.poll_interval_ms < 1.0
                               ? 1
                               : cfg_.poll_interval_ms);
      (void)::poll(fds.data(), fds.size(), timeout);

      // Drain the wake pipe.
      if ((fds[0].revents & POLLIN) != 0) {
        char sink[256];
        while (::read(wake_rd_.get(), sink, sizeof(sink)) > 0) {
        }
      }
      accept_from(tcp_listener_);
      accept_from(unix_listener_);

      std::vector<std::uint64_t> dead;
      for (std::size_t i = 0; i < fds.size(); ++i) {
        const std::uint64_t id = fd_conn[i];
        if (id == 0) continue;
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        Conn& conn = it->second;
        bool alive = true;
        if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (fds[i].revents & POLLIN) == 0) {
          // Half-close with pending output still flushes below; a hard
          // error drops the connection.
          if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) alive = false;
        }
        if (alive && (fds[i].revents & POLLIN) != 0) {
          alive = read_conn(conn);
        }
        if (alive && ((fds[i].revents & POLLOUT) != 0 || conn.closing)) {
          alive = write_conn(conn);
        }
        if (!alive) dead.push_back(id);
      }
      for (const auto id : dead) close_conn(id);
      sweep_idle(Clock::now());
    }
  }

  service::SolveService<T>& svc_;
  FrontDoorConfig cfg_;
  TenantRegistry tenants_;

  Fd tcp_listener_, unix_listener_, wake_rd_, wake_wr_;
  std::uint16_t tcp_port_ = 0;
  bool running_ = false;
  std::thread thread_;
  std::atomic<bool> draining_{false};
  const TimePoint epoch_ = Clock::now();

  // --- poll-thread-owned state ---
  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  DrrScheduler<Queued> lanes_;
  /// Idempotency cache, bounded by the DedupConfig defaults.
  DedupCache<service::SolveResponse<T>> dedup_;
  Overload overload_;
  /// net.rejects{tenant="-",reason="auth_required"}, on first use.
  telemetry::Counter preauth_rejects_;

  // --- shared with worker callbacks ---
  std::atomic<std::size_t> service_inflight_{0};
  std::mutex done_mu_;
  std::vector<Done> done_;

  // --- ops surface (admin / snapshot threads -> poll thread) ---
  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;
  bool unlink_on_shutdown_ = true;  ///< false after a listener handoff

  /// The unlabeled net.* totals, one service-registry counter slot each.
  struct Totals {
    telemetry::Counter connections, closed, frames_rx, frames_tx, bytes_rx,
        bytes_tx, bad_frames, auth_failures, requests_admitted,
        requests_rejected, responses_sent, backpressure_pauses, idle_closes,
        injected_drops, injected_corruptions, deadline_expired_arrival,
        deadline_expired_queued, shed_codel, aimd_throttles,
        deadline_skew_clamped, duplicate_executions;
  };

  /// Which metric each total exports as, and which FrontDoorCounters
  /// field it backs (nullptr: exported only — duplicate_executions is
  /// read from the dedup mirror, which the ops snapshot persists).
  struct TotalRow {
    telemetry::Counter Totals::*handle;
    const char* metric;
    std::uint64_t FrontDoorCounters::*field;
  };
  static constexpr TotalRow kTotalRows[] = {
      {&Totals::connections, "net.connections",
       &FrontDoorCounters::connections},
      {&Totals::closed, "net.closed", &FrontDoorCounters::closed},
      {&Totals::frames_rx, "net.frames_rx", &FrontDoorCounters::frames_rx},
      {&Totals::frames_tx, "net.frames_tx", &FrontDoorCounters::frames_tx},
      {&Totals::bytes_rx, "net.bytes_rx", &FrontDoorCounters::bytes_rx},
      {&Totals::bytes_tx, "net.bytes_tx", &FrontDoorCounters::bytes_tx},
      {&Totals::bad_frames, "net.bad_frames", &FrontDoorCounters::bad_frames},
      {&Totals::auth_failures, "net.auth_failed",
       &FrontDoorCounters::auth_failures},
      {&Totals::requests_admitted, "net.requests_admitted",
       &FrontDoorCounters::requests_admitted},
      {&Totals::requests_rejected, "net.requests_rejected",
       &FrontDoorCounters::requests_rejected},
      {&Totals::responses_sent, "net.responses",
       &FrontDoorCounters::responses_sent},
      {&Totals::backpressure_pauses, "net.backpressure_pauses",
       &FrontDoorCounters::backpressure_pauses},
      {&Totals::idle_closes, "net.idle_closed",
       &FrontDoorCounters::idle_closes},
      {&Totals::injected_drops, "net.faults.drop",
       &FrontDoorCounters::injected_drops},
      {&Totals::injected_corruptions, "net.faults.corrupt",
       &FrontDoorCounters::injected_corruptions},
      {&Totals::deadline_expired_arrival, "net.deadline_expired_arrival",
       &FrontDoorCounters::deadline_expired_arrival},
      {&Totals::deadline_expired_queued, "net.deadline_expired_queued",
       &FrontDoorCounters::deadline_expired_queued},
      {&Totals::shed_codel, "net.codel_sheds",
       &FrontDoorCounters::shed_codel},
      {&Totals::aimd_throttles, "net.aimd_throttles",
       &FrontDoorCounters::aimd_throttles},
      {&Totals::deadline_skew_clamped, "net.skew_clamps",
       &FrontDoorCounters::deadline_skew_clamped},
      {&Totals::duplicate_executions, "net.duplicate_executions", nullptr},
  };

  Totals totals_;

  /// DedupStats mirror: the poll thread stores, counters() loads.
  struct DedupMirror {
    std::atomic<std::uint64_t> hits{0}, joins{0}, evictions{0},
        duplicate_executions{0}, key_reuse{0};
  };
  DedupMirror dedup_mirror_;
};

}  // namespace tda::net
