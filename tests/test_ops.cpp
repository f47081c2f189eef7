// Zero-downtime operations tests (docs/OPERATIONS.md): snapshot
// round-trip + whole-file rejection of damage, admin protocol framing
// and server, SCM_RIGHTS fd passing, dedup seeding, and the front-door
// export/import + ops::Server end-to-end paths (live reload, snapshot,
// exactly-once replay across a simulated generation boundary).

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "golden_hex.hpp"
#include "gpusim/device.hpp"
#include "net/client.hpp"
#include "net/dedup.hpp"
#include "net/front_door.hpp"
#include "net/protocol.hpp"
#include "ops/admin.hpp"
#include "ops/fdpass.hpp"
#include "ops/server.hpp"
#include "ops/snapshot.hpp"
#include "ops/state.hpp"
#include "service/solve_service.hpp"
#include "tuning/cache.hpp"

using namespace tda;
using namespace tda::ops;

namespace {

std::string unique_path(const char* tag, const char* ext) {
  static std::atomic<int> counter{0};
  return "/tmp/tda_ops_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ext;
}

/// A small but fully-populated state: two tenants (one disabled, one
/// with awkward characters in the token), two dedup entries spanning
/// both status kinds, nonzero counters everywhere.
ServerState sample_state() {
  ServerState st;
  st.generation = 3;
  st.saved_unix_ms = 1754650000123.25;
  st.dedup_stats = {101, 42, 7, 3, 0};

  TenantState a;
  a.name = "alpha";
  a.token = "se cret%with\tweird\nbytes";
  a.weight = 2.5;
  a.max_inflight = 64;
  a.max_inflight_bytes = 1 << 20;
  a.requests_per_sec = 12.5;
  a.burst = 25.0;
  a.default_deadline_ms = 150.0;
  a.aimd_limit = 17.5;
  a.admitted = 9001;
  a.rejected = 17;
  st.tenants.push_back(a);

  TenantState b;
  b.name = "beta";
  b.token = "tb";
  b.disabled = true;
  st.tenants.push_back(b);

  DedupEntryState e1;
  e1.tenant = "alpha";
  e1.key = 0xDEADBEEFCAFE1234ULL;
  e1.payload_hash = 0x0123456789ABCDEFULL;
  e1.status = 0;
  e1.device = "GTX 280";
  e1.x = {1.0, -2.5, 3.141592653589793, 1e-300, -0.0};
  e1.solve_ms = 0.125;
  e1.wait_ms = 3.5;
  e1.batch_systems = 8;
  e1.retries = 1;
  e1.chunks = 2;
  e1.fallback_used = true;
  st.entries.push_back(e1);

  DedupEntryState e2;
  e2.tenant = "beta";
  e2.key = 1;
  e2.payload_hash = 2;
  e2.status = 5;  // some error status
  e2.error = "singular %pivot\nat row 3";
  st.entries.push_back(e2);
  return st;
}

void expect_states_equal(const ServerState& a, const ServerState& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.saved_unix_ms, b.saved_unix_ms);
  EXPECT_EQ(a.dedup_stats.inserts, b.dedup_stats.inserts);
  EXPECT_EQ(a.dedup_stats.hits, b.dedup_stats.hits);
  EXPECT_EQ(a.dedup_stats.joins, b.dedup_stats.joins);
  EXPECT_EQ(a.dedup_stats.evictions, b.dedup_stats.evictions);
  EXPECT_EQ(a.dedup_stats.duplicate_executions,
            b.dedup_stats.duplicate_executions);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const TenantState& x = a.tenants[i];
    const TenantState& y = b.tenants[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.token, y.token);
    EXPECT_EQ(x.weight, y.weight);
    EXPECT_EQ(x.max_inflight, y.max_inflight);
    EXPECT_EQ(x.max_inflight_bytes, y.max_inflight_bytes);
    EXPECT_EQ(x.requests_per_sec, y.requests_per_sec);
    EXPECT_EQ(x.burst, y.burst);
    EXPECT_EQ(x.default_deadline_ms, y.default_deadline_ms);
    EXPECT_EQ(x.disabled, y.disabled);
    EXPECT_EQ(x.aimd_limit, y.aimd_limit);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.rejected, y.rejected);
  }
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const DedupEntryState& x = a.entries[i];
    const DedupEntryState& y = b.entries[i];
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.payload_hash, y.payload_hash);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.error, y.error);
    EXPECT_EQ(x.device, y.device);
    EXPECT_EQ(x.x, y.x);
    EXPECT_EQ(x.solve_ms, y.solve_ms);
    EXPECT_EQ(x.wait_ms, y.wait_ms);
    EXPECT_EQ(x.batch_systems, y.batch_systems);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.chunks, y.chunks);
    EXPECT_EQ(x.fallback_used, y.fallback_used);
  }
}

struct System {
  std::vector<double> a, b, c, d;
};

System diag_dominant(std::size_t n, unsigned seed) {
  System s;
  s.a.resize(n);
  s.b.resize(n);
  s.c.resize(n);
  s.d.resize(n);
  std::uint64_t state = seed * 2654435761u + 1;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((state >> 33) & 0xFFFF) / 65535.0 - 0.5;
  };
  for (std::size_t i = 0; i < n; ++i) {
    s.a[i] = (i == 0) ? 0.0 : next();
    s.c[i] = (i == n - 1) ? 0.0 : next();
    s.b[i] = (std::abs(s.a[i]) + std::abs(s.c[i])) * 2.0 + 0.5;
    s.d[i] = next();
  }
  return s;
}

/// Service + front door + two tenants, same shape as test_net's
/// fixture, with configurable socket and front-door config.
struct OpsFixture {
  explicit OpsFixture(net::FrontDoorConfig fcfg = {}) {
    service::ServiceConfig scfg;
    scfg.flush_systems = 8;
    scfg.flush_interval_ms = 0.5;
    svc = std::make_unique<service::SolveService<double>>(
        std::vector<gpusim::DeviceSpec>{gpusim::device_registry().back()},
        scfg);
    sock = unique_path("door", ".sock");
    fcfg.unix_path = sock;
    fcfg.poll_interval_ms = 2.0;
    door = std::make_unique<net::FrontDoor<double>>(*svc, fcfg);
    net::TenantConfig a;
    a.name = "alpha";
    a.token = "ta";
    a.weight = 2.0;
    door->add_tenant(a);
    net::TenantConfig b;
    b.name = "beta";
    b.token = "tb";
    door->add_tenant(b);
  }

  ~OpsFixture() {
    door->shutdown();
    svc->shutdown();
  }

  bool start() {
    std::string err;
    const bool ok = door->start(&err);
    EXPECT_TRUE(ok) << err;
    return ok;
  }

  std::string sock;
  std::unique_ptr<service::SolveService<double>> svc;
  std::unique_ptr<net::FrontDoor<double>> door;
};

}  // namespace

// ---------------------------------------------------------------- snapshot

TEST(OpsSnapshot, SerializeParseRoundTrip) {
  const ServerState st = sample_state();
  const std::string bytes = serialize_snapshot(st);
  EXPECT_EQ(bytes.rfind(kSnapshotHeader, 0), 0u);
  ServerState back;
  std::string why;
  ASSERT_TRUE(parse_snapshot(bytes, &back, &why)) << why;
  expect_states_equal(st, back);
}

TEST(OpsSnapshot, SaveLoadSaveIsByteStable) {
  const std::string path = unique_path("stable", ".snap");
  const ServerState st = sample_state();
  std::string why;
  ASSERT_TRUE(save_snapshot(path, st, &why)) << why;
  ServerState loaded;
  ASSERT_TRUE(load_snapshot(path, &loaded, &why)) << why;
  // The property the format was designed for: serialization is a pure
  // function of the state, and every field (hex-float doubles included)
  // round-trips exactly.
  EXPECT_EQ(serialize_snapshot(st), serialize_snapshot(loaded));
  ::unlink(path.c_str());
}

TEST(OpsSnapshot, TruncationRejectsWholeFile) {
  const std::string bytes = serialize_snapshot(sample_state());
  // Cut at every interesting boundary: inside the header, at record
  // edges, one byte short of complete.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{10}, bytes.size() / 4,
        bytes.size() / 2, bytes.size() - 1}) {
    ServerState out;
    out.generation = 99;  // canary: a failed parse must not touch out
    std::string why;
    EXPECT_FALSE(parse_snapshot(bytes.substr(0, cut), &out, &why))
        << "cut at " << cut;
    EXPECT_EQ(out.generation, 99u) << "out mutated on cut at " << cut;
  }
}

TEST(OpsSnapshot, BitFlipAnywhereRejectsWholeFile) {
  const std::string bytes = serialize_snapshot(sample_state());
  // Flip a bit in every 7th byte (covering header, checksum digits,
  // tenant records, entry records) — the checksum must catch each one.
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    if (mutated == bytes) continue;
    ServerState out;
    EXPECT_FALSE(parse_snapshot(mutated, &out, nullptr))
        << "flip at byte " << i;
  }
}

TEST(OpsSnapshot, WrongVersionRejected) {
  std::string bytes = serialize_snapshot(sample_state());
  const std::size_t v = bytes.find("v1");
  ASSERT_NE(v, std::string::npos);
  bytes[v + 1] = '2';
  ServerState out;
  std::string why;
  EXPECT_FALSE(parse_snapshot(bytes, &out, &why));
  EXPECT_FALSE(why.empty());
}

TEST(OpsSnapshot, MissingFileIsCleanColdStart) {
  ServerState out;
  std::string why;
  EXPECT_FALSE(load_snapshot(unique_path("missing", ".snap"), &out, &why));
  EXPECT_FALSE(why.empty());
}

TEST(OpsSnapshot, TruncatedFileOnDiskRejected) {
  const std::string path = unique_path("trunc", ".snap");
  std::string why;
  ASSERT_TRUE(save_snapshot(path, sample_state(), &why)) << why;
  const std::string bytes = serialize_snapshot(sample_state());
  FILE* f = ::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ::fwrite(bytes.data(), 1, bytes.size() / 2, f);
  ::fclose(f);
  ServerState out;
  EXPECT_FALSE(load_snapshot(path, &out, &why));
  ::unlink(path.c_str());
}

TEST(OpsSnapshot, CacheCorruptFaultSiteCoversLoad) {
  const std::string path = unique_path("faulted", ".snap");
  std::string why;
  ASSERT_TRUE(save_snapshot(path, sample_state(), &why)) << why;
  faults::FaultConfig cfg;
  cfg.rate_of(faults::Site::CacheCorrupt) = 1.0;
  faults::ScopedFaultConfig scoped(cfg);
  // Bytes are flipped between disk and the parser; the checksum must
  // reject the whole file, i.e. a corrupt snapshot is a cold start,
  // never a half-restored registry.
  ServerState out;
  EXPECT_FALSE(load_snapshot(path, &out, &why));
  ::unlink(path.c_str());
}

TEST(OpsSnapshot, SaveIsAtomicReplacement) {
  const std::string path = unique_path("atomic", ".snap");
  ServerState st = sample_state();
  std::string why;
  ASSERT_TRUE(save_snapshot(path, st, &why)) << why;
  st.generation = 4;
  ASSERT_TRUE(save_snapshot(path, st, &why)) << why;
  ServerState out;
  ASSERT_TRUE(load_snapshot(path, &out, &why)) << why;
  EXPECT_EQ(out.generation, 4u);
  ::unlink(path.c_str());
}

TEST(OpsSnapshot, GoldenBytesArePinned) {
  // One tenant and one dedup entry, pinned byte for byte. Recorded
  // before the checksum and durable write moved to common/; never edit
  // the expected bytes to make a change pass — a diff here means every
  // snapshot on disk stops loading.
  ServerState st;
  st.generation = 7;
  st.saved_unix_ms = 1754650000123.25;
  st.dedup_stats = {5, 4, 3, 2, 0};
  TenantState t;
  t.name = "alpha";
  t.token = "tok en";
  t.weight = 1.5;
  t.max_inflight = 8;
  t.max_inflight_bytes = 4096;
  t.requests_per_sec = 10.0;
  t.burst = 20.0;
  t.default_deadline_ms = 100.0;
  t.aimd_limit = 6.0;
  t.admitted = 12;
  t.rejected = 1;
  st.tenants.push_back(t);
  DedupEntryState e;
  e.tenant = "alpha";
  e.key = 0xDEADBEEFCAFE1234ULL;
  e.payload_hash = 0x0123456789ABCDEFULL;
  e.device = "GTX 280";
  e.x = {1.0, -2.5};
  e.solve_ms = 0.125;
  e.wait_ms = 3.5;
  e.batch_systems = 8;
  e.retries = 1;
  e.chunks = 2;
  st.entries.push_back(e);

  const std::string bytes = serialize_snapshot(st);
  EXPECT_EQ(golden::to_hex(bytes),
            "2320747269646961675f6f707320736e617073686f7420763120636865636b73"
            "756d3d633166376535373061306162613233640a6d6574610937093078312e39"
            "38383934613361666234702b34300a7374617473093509340933093209300a74"
            "656e616e7409616c70686109746f6b253230656e093078312e38702b30093809"
            "34303936093078312e34702b33093078312e34702b34093078312e39702b3609"
            "30093078312e38702b3209313209310a656e74727909616c7068610964656164"
            "6265656663616665313233340930313233343536373839616263646566093009"
            "3009307831702d33093078312e63702b31093809310932094754582532303238"
            "3009093209307831702b30092d3078312e34702b310a");
  ServerState back;
  std::string why;
  ASSERT_TRUE(parse_snapshot(bytes, &back, &why)) << why;
  expect_states_equal(st, back);
}

// ------------------------------------------------------------ durable save

namespace {

/// Lowers RLIMIT_FSIZE for one scope, with SIGXFSZ ignored so a write
/// past the limit fails with EFBIG instead of killing the process.
/// Restores both on exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &old_);
    rlimit lowered = old_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit old_{};
  void (*old_handler_)(int) = SIG_DFL;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(DurableSave, FailedWriteKeepsPreviousFile) {
  namespace fs = std::filesystem;
  const fs::path dir = unique_path("fsize", "");
  fs::create_directory(dir);
  const std::string cache_path = (dir / "cache.txt").string();
  const std::string snap_path = (dir / "state.snap").string();

  tuning::TuningCache cache;
  tuning::CacheEntry e;
  e.tuned_ms = 1.5;
  cache.store(tuning::TuningCache::make_key("dev", 4, 1, 64), e);
  ServerState st = sample_state();
  std::string why;
  ASSERT_TRUE(cache.save(cache_path));
  ASSERT_TRUE(save_snapshot(snap_path, st, &why)) << why;
  const std::string cache_before = slurp(cache_path);
  const std::string snap_before = slurp(snap_path);

  // The next saves are larger than either limit below.
  for (std::size_t m = 2; m <= 12; ++m) {
    cache.store(tuning::TuningCache::make_key("dev", 4, m, 64), e);
  }
  st.generation = 4;

  for (const rlim_t limit : {rlim_t{64}, rlim_t{256}}) {
    bool cache_saved = true;
    bool snap_saved = true;
    {
      FileSizeLimit cap(limit);
      cache_saved = cache.save(cache_path);
      snap_saved = save_snapshot(snap_path, st, &why);
    }
    EXPECT_FALSE(cache_saved) << "limit " << limit;
    EXPECT_FALSE(snap_saved) << "limit " << limit;
    EXPECT_EQ(slurp(cache_path), cache_before) << "limit " << limit;
    EXPECT_EQ(slurp(snap_path), snap_before) << "limit " << limit;
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_EQ(entry.path().filename().string().find(".tmp"),
                std::string::npos)
          << "leftover " << entry.path() << " at limit " << limit;
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------------- admin

TEST(OpsAdmin, ReloadFrameGoldenBytes) {
  // TDAO frame bytes, pinned before the byte helpers and checksum moved
  // to common/; a diff here breaks every deployed admin client.
  std::string buf;
  encode_admin(buf, AdminCmd::Reload, "tenant=alpha\nweight=3\n");
  EXPECT_EQ(golden::to_hex(buf),
            "5444414f01000400160000006757de01"
            "74656e616e743d616c7068610a7765696768743d330a");
}


TEST(OpsAdmin, FrameCodecRoundTripAndChecksumRejection) {
  std::string buf;
  encode_admin(buf, AdminCmd::Reload, "tenant=alpha\nweight=3\n");
  ASSERT_GE(buf.size(), kAdminHeaderSize);

  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  ASSERT_EQ(::write(sp[0], buf.data(), buf.size()),
            static_cast<long>(buf.size()));
  AdminFrame frame;
  std::string err;
  ASSERT_TRUE(read_admin_frame(sp[1], &frame, &err)) << err;
  EXPECT_EQ(frame.cmd, AdminCmd::Reload);
  EXPECT_EQ(frame.payload, "tenant=alpha\nweight=3\n");

  // Flip one payload byte: the checksum must reject the frame.
  std::string bad = buf;
  bad.back() = static_cast<char>(bad.back() ^ 0x01);
  ASSERT_EQ(::write(sp[0], bad.data(), bad.size()),
            static_cast<long>(bad.size()));
  EXPECT_FALSE(read_admin_frame(sp[1], &frame, &err));
  ::close(sp[0]);
  ::close(sp[1]);
}

TEST(OpsAdmin, DataPlaneMagicRejectedAtHeader) {
  // A data-plane client that dials the admin socket by mistake: the
  // TDAP magic differs from TDAO, so the very first header is refused.
  std::string buf;
  net::encode_hello(buf, "tok");
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  ASSERT_EQ(::write(sp[0], buf.data(), buf.size()),
            static_cast<long>(buf.size()));
  AdminFrame frame;
  std::string err;
  EXPECT_FALSE(read_admin_frame(sp[1], &frame, &err));
  ::close(sp[0]);
  ::close(sp[1]);
}

TEST(OpsAdmin, ServerRoundTripOkAndErr) {
  const std::string path = unique_path("admin", ".sock");
  AdminServer server;
  std::string err;
  ASSERT_TRUE(server.start(
      path,
      [](AdminCmd cmd, const std::string& payload)
          -> std::pair<bool, std::string> {
        if (cmd == AdminCmd::Health) return {true, "ok\n"};
        if (cmd == AdminCmd::Reload) return {true, "echo:" + payload};
        return {false, "nope"};
      },
      &err))
      << err;

  std::string reply;
  EXPECT_TRUE(
      admin_request(path, AdminCmd::Health, "", &reply, &err))
      << err;
  EXPECT_EQ(reply, "ok\n");
  EXPECT_TRUE(
      admin_request(path, AdminCmd::Reload, "k=v\n", &reply, &err));
  EXPECT_EQ(reply, "echo:k=v\n");
  EXPECT_FALSE(
      admin_request(path, AdminCmd::Drain, "", &reply, &err));
  EXPECT_EQ(reply, "nope");
  server.stop();
  EXPECT_FALSE(
      admin_request(path, AdminCmd::Health, "", &reply, &err));
}

// ------------------------------------------------------------------ fdpass

TEST(OpsFdPass, DescriptorSurvivesTransfer) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);

  ASSERT_TRUE(send_fds(sp[0], {pipe_fds[0]}, 'u'));
  std::vector<int> got;
  char tag = 0;
  ASSERT_TRUE(recv_fds(sp[1], 2, &got, &tag));
  EXPECT_EQ(tag, 'u');
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0], pipe_fds[0]);  // dup'd by the kernel, not aliased

  // The received descriptor reads what the original write end wrote.
  ASSERT_EQ(::write(pipe_fds[1], "hi", 2), 2);
  char buf[4] = {};
  EXPECT_EQ(::read(got[0], buf, sizeof(buf)), 2);
  EXPECT_EQ(std::string(buf, 2), "hi");

  ::close(got[0]);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
  ::close(sp[0]);
  ::close(sp[1]);
}

TEST(OpsFdPass, HandoffTagsRoundTrip) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  int p1[2], p2[2];
  ASSERT_EQ(::pipe(p1), 0);
  ASSERT_EQ(::pipe(p2), 0);
  ASSERT_TRUE(send_fds(sp[0], {p1[0], p2[0]}, 'b'));
  int tcp_fd = -1, unix_fd = -1;
  ASSERT_TRUE(receive_handoff(sp[1], &tcp_fd, &unix_fd));
  EXPECT_GE(tcp_fd, 0);
  EXPECT_GE(unix_fd, 0);
  EXPECT_TRUE(ack_handoff(sp[1]));
  char b = 0;
  EXPECT_EQ(::read(sp[0], &b, 1), 1);
  EXPECT_EQ(b, 'R');
  for (const int fd : {tcp_fd, unix_fd, p1[0], p1[1], p2[0], p2[1],
                       sp[0], sp[1]}) {
    ::close(fd);
  }
}

// ------------------------------------------------------------------- dedup

TEST(OpsDedup, SeededEntryReplaysAndDetectsReuse) {
  net::DedupCache<int> cache;
  cache.seed_completed(1, 42, 0xAB, 777, 16, 0.0);

  // Byte-identical resend: replay.
  EXPECT_EQ(cache.begin(1, 42, 0xAB, 1.0),
            net::DedupCache<int>::State::Completed);
  ASSERT_NE(cache.lookup(1, 42), nullptr);
  EXPECT_EQ(*cache.lookup(1, 42), 777);

  // Same key, different payload: a client bug, not a replay.
  EXPECT_EQ(cache.begin(1, 42, 0xCD, 1.0),
            net::DedupCache<int>::State::Mismatch);
  EXPECT_EQ(cache.stats().mismatches, 1u);

  // The seed counts as the one allowed execution: re-executing the key
  // after restart would be the exactly-once violation the gate hunts.
  EXPECT_EQ(cache.mark_executed(1, 42), 1u);
  EXPECT_EQ(cache.stats().duplicate_executions, 1u);

  // Seeding an existing key is a no-op (live state wins).
  cache.seed_completed(1, 42, 0xEE, 888, 16, 0.0);
  EXPECT_EQ(*cache.lookup(1, 42), 777);
}

TEST(OpsDedup, ExportVisitsOnlyCompleted) {
  net::DedupCache<int> cache;
  cache.seed_completed(1, 10, 0xA, 100, 8, 0.0);
  EXPECT_EQ(cache.begin(1, 11, 0xB, 0.0),
            net::DedupCache<int>::State::Fresh);  // in-flight, no resp
  std::size_t seen = 0;
  cache.for_each_completed(
      [&](std::uint64_t tenant, std::uint64_t key, std::uint64_t hash,
          const int& resp, std::size_t bytes) {
        ++seen;
        EXPECT_EQ(tenant, 1u);
        EXPECT_EQ(key, 10u);
        EXPECT_EQ(hash, 0xAu);
        EXPECT_EQ(resp, 100);
        EXPECT_EQ(bytes, 8u);
      });
  EXPECT_EQ(seen, 1u);
}

// -------------------------------------------------------- door export/import

TEST(OpsDoor, ExportImportRoundTripPreservesTenantsAndWindows) {
  ServerState st = sample_state();
  st.entries.clear();  // entry replay is covered end-to-end below

  OpsFixture f2;
  f2.door->import_state(st);

  ServerState out;
  f2.door->export_state(out);  // door not started: runs inline

  // import adds/updates rather than replaces: the fixture's own
  // "alpha"/"beta" rows were overwritten by the snapshot's.
  ASSERT_EQ(out.tenants.size(), 2u);
  const auto find = [&](const std::string& name) -> const TenantState* {
    for (const auto& t : out.tenants) {
      if (t.name == name) return &t;
    }
    return nullptr;
  };
  const TenantState* a = find("alpha");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->token, st.tenants[0].token);
  EXPECT_EQ(a->weight, 2.5);
  EXPECT_EQ(a->requests_per_sec, 12.5);
  EXPECT_EQ(a->default_deadline_ms, 150.0);
  EXPECT_EQ(a->aimd_limit, 17.5);
  EXPECT_EQ(a->admitted, 9001u);
  EXPECT_EQ(a->rejected, 17u);
  const TenantState* b = find("beta");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->disabled);
}

// -------------------------------------------------------------- ops::Server

TEST(OpsServer, AdminHealthReadyReloadSnapshot) {
  OpsFixture f;
  ASSERT_TRUE(f.start());
  OpsConfig ocfg;
  ocfg.admin_path = unique_path("adm", ".sock");
  ocfg.snapshot_path = unique_path("srv", ".snap");
  ocfg.generation = 1;
  Server<double> srv(*f.svc, *f.door, ocfg);
  std::string err;
  ASSERT_TRUE(srv.start(&err)) << err;

  std::string reply;
  EXPECT_TRUE(
      admin_request(ocfg.admin_path, AdminCmd::Health, "", &reply, &err))
      << err;
  EXPECT_EQ(reply, "ok\n");
  EXPECT_TRUE(
      admin_request(ocfg.admin_path, AdminCmd::Ready, "", &reply, &err));
  EXPECT_EQ(reply, "ready=1\n");

  // Live reload: change alpha's quota and deadline, register a brand
  // new tenant — all applied on the poll thread, no restart.
  EXPECT_TRUE(admin_request(ocfg.admin_path, AdminCmd::Reload,
                            "tenant=alpha\nrequests_per_sec=7\n"
                            "default_deadline_ms=250\n"
                            "tenant=gamma\ntoken=tg\nweight=4\n",
                            &reply, &err))
      << reply;
  EXPECT_EQ(reply, "applied=4\n");  // tenant= scope lines don't count

  EXPECT_TRUE(
      admin_request(ocfg.admin_path, AdminCmd::Stats, "", &reply, &err));
  EXPECT_NE(reply.find("generation=1\n"), std::string::npos);
  EXPECT_NE(reply.find("tenant.alpha.requests_per_sec=7\n"),
            std::string::npos);
  EXPECT_NE(reply.find("tenant.alpha.default_deadline_ms=250\n"),
            std::string::npos);
  EXPECT_NE(reply.find("tenant.gamma.weight=4\n"), std::string::npos);
  EXPECT_NE(reply.find("net.duplicate_executions=0\n"),
            std::string::npos);

  // Bad reloads are rejected whole, with a diagnostic: neither the keys
  // before the bad one nor the registration of an unknown tenant land.
  EXPECT_FALSE(admin_request(ocfg.admin_path, AdminCmd::Reload,
                             "tenant=alpha\nbogus_key=1\n", &reply,
                             &err));
  EXPECT_NE(reply.find("unknown tenant key"), std::string::npos);
  EXPECT_FALSE(admin_request(ocfg.admin_path, AdminCmd::Reload,
                             "tenant=alpha\nweight=9\nbogus_key=1\n",
                             &reply, &err));
  EXPECT_NE(reply.find("unknown tenant key"), std::string::npos);
  EXPECT_FALSE(admin_request(ocfg.admin_path, AdminCmd::Reload,
                             "tenant=delta\nweight=2\nbogus_key=1\n",
                             &reply, &err));
  EXPECT_NE(reply.find("unknown tenant key"), std::string::npos);
  EXPECT_TRUE(
      admin_request(ocfg.admin_path, AdminCmd::Stats, "", &reply, &err));
  EXPECT_NE(reply.find("tenant.alpha.weight=2\n"), std::string::npos);
  EXPECT_EQ(reply.find("tenant.delta."), std::string::npos);

  // Snapshot-on-demand writes the file; ready flips after drain.
  EXPECT_TRUE(admin_request(ocfg.admin_path, AdminCmd::Snapshot, "",
                            &reply, &err))
      << reply;
  EXPECT_GE(srv.snapshot_age_ms(), 0.0);
  ServerState snap;
  std::string why;
  ASSERT_TRUE(load_snapshot(ocfg.snapshot_path, &snap, &why)) << why;
  EXPECT_EQ(snap.generation, 1u);

  EXPECT_FALSE(srv.should_exit());
  EXPECT_TRUE(
      admin_request(ocfg.admin_path, AdminCmd::Drain, "", &reply, &err));
  EXPECT_TRUE(srv.should_exit());
  EXPECT_TRUE(
      admin_request(ocfg.admin_path, AdminCmd::Ready, "", &reply, &err));
  EXPECT_EQ(reply, "ready=0\n");

  srv.shutdown();
  ::unlink(ocfg.snapshot_path.c_str());
}

TEST(OpsServer, ExactlyOnceReplayAcrossGenerations) {
  const std::string snap_path = unique_path("gen", ".snap");
  const System sys = diag_dominant(64, 5);
  const std::uint64_t key = 0x5EED5EED5EEDULL;
  std::vector<double> gen1_x;

  {  // Generation 1: solve one keyed request, snapshot, "crash".
    OpsFixture f;
    ASSERT_TRUE(f.start());
    OpsConfig ocfg;
    ocfg.snapshot_path = snap_path;
    ocfg.generation = 1;
    Server<double> srv(*f.svc, *f.door, ocfg);

    net::Client client;
    std::string err;
    ASSERT_TRUE(client.connect("unix:" + f.sock, "ta", &err)) << err;
    ASSERT_TRUE(
        client.send_solve2(1, sys.a, sys.b, sys.c, sys.d, 0.0, key, &err))
        << err;
    net::WireResult<double> res;
    ASSERT_TRUE(client.recv_result(res, &err)) << err;
    ASSERT_TRUE(res.ok()) << res.error;
    gen1_x = res.x;

    std::string why;
    ASSERT_TRUE(srv.save_now(&why)) << why;
    srv.shutdown();
  }

  {  // Generation 2: load the snapshot; a byte-identical resend of the
     // same key must replay the cached result, not re-execute.
    OpsFixture f;
    OpsConfig ocfg;
    ocfg.snapshot_path = snap_path;
    ocfg.admin_path = unique_path("adm2", ".sock");
    ocfg.generation = 2;
    Server<double> srv(*f.svc, *f.door, ocfg);
    std::string why;
    ASSERT_TRUE(srv.load(&why)) << why;
    EXPECT_TRUE(srv.loaded_from_snapshot());
    ASSERT_TRUE(f.start());
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    net::Client client;
    ASSERT_TRUE(client.connect("unix:" + f.sock, "ta", &err)) << err;
    ASSERT_TRUE(
        client.send_solve2(2, sys.a, sys.b, sys.c, sys.d, 0.0, key, &err))
        << err;
    net::WireResult<double> res;
    ASSERT_TRUE(client.recv_result(res, &err)) << err;
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.x, gen1_x);  // the exact gen-1 solution, bit for bit

    // Same key with a different right-hand side: reuse, not replay.
    System other = sys;
    other.d[0] += 1.0;
    ASSERT_TRUE(client.send_solve2(3, other.a, other.b, other.c, other.d,
                                   0.0, key, &err))
        << err;
    ASSERT_TRUE(client.recv_result(res, &err)) << err;
    EXPECT_EQ(res.code, net::ErrorCode::KeyReuse) << res.error;

    std::string reply;
    ASSERT_TRUE(admin_request(ocfg.admin_path, AdminCmd::Stats, "",
                              &reply, &err))
        << err;
    EXPECT_NE(reply.find("generation=2\n"), std::string::npos);
    EXPECT_NE(reply.find("loaded_from_snapshot=1\n"), std::string::npos);
    EXPECT_NE(reply.find("net.dedup_hits=1\n"), std::string::npos);
    EXPECT_NE(reply.find("net.duplicate_executions=0\n"),
              std::string::npos);
    EXPECT_NE(reply.find("net.key_reuse=1\n"), std::string::npos);
    srv.shutdown();
  }
  ::unlink(snap_path.c_str());
}
