// Wire protocol, tenant QoS, and front-door end-to-end tests
// (docs/NET.md). The protocol sections are pure unit tests; the E2E
// sections stand up a real FrontDoor over unix/TCP sockets and drive it
// with net::Client.

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/le_codec.hpp"
#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "golden_hex.hpp"
#include "gpusim/device.hpp"
#include "net/chaos_proxy.hpp"
#include "net/client.hpp"
#include "net/dedup.hpp"
#include "net/front_door.hpp"
#include "net/overload.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/tenant.hpp"
#include "ops/state.hpp"
#include "service/solve_service.hpp"
#include "telemetry/metrics.hpp"

using namespace tda;
using namespace tda::net;

namespace {

std::string unique_sock(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/tda_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
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

double residual(const System& s, const std::vector<double>& x) {
  double worst = 0.0;
  const std::size_t n = s.b.size();
  if (x.size() != n) return 1e30;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = s.b[i] * x[i] - s.d[i];
    if (i > 0) acc += s.a[i] * x[i - 1];
    if (i + 1 < n) acc += s.c[i] * x[i + 1];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

/// Reads raw frames off a socket fd — for tests that emulate a legacy
/// (pre-net::Client) peer byte-for-byte.
bool read_frame(int fd, std::string& buf, FrameType& type,
                std::string& payload, std::uint16_t* version = nullptr) {
  char tmp[4096];
  for (;;) {
    const auto r = decode_frame(buf, 1 << 20);
    if (r.status == DecodeStatus::Ok) {
      type = r.frame.type;
      payload.assign(r.frame.payload);
      if (version != nullptr) *version = r.frame.version;
      buf.erase(0, r.consumed);
      return true;
    }
    if (r.status == DecodeStatus::Corrupt) return false;
    const long n = read_some(fd, tmp, sizeof(tmp));
    if (n <= 0 && n != -2) return false;
    if (n > 0) buf.append(tmp, static_cast<std::size_t>(n));
  }
}

/// A service + front door on a unix socket with two tenants
/// ("alpha"/"beta", tokens "ta"/"tb").
struct DoorFixture {
  explicit DoorFixture(FrontDoorConfig fcfg = {},
                       service::ServiceConfig scfg = {}) {
    scfg.flush_systems = 8;
    scfg.flush_interval_ms = 0.5;
    svc = std::make_unique<service::SolveService<double>>(
        std::vector<gpusim::DeviceSpec>{gpusim::device_registry().back()},
        scfg);
    svc->telemetry().tracer.enable();
    sock = unique_sock("door");
    fcfg.unix_path = sock;
    fcfg.poll_interval_ms = 2.0;
    door = std::make_unique<FrontDoor<double>>(*svc, fcfg);
    TenantConfig a;
    a.name = "alpha";
    a.token = "ta";
    a.weight = 2.0;
    door->add_tenant(a);
    TenantConfig b;
    b.name = "beta";
    b.token = "tb";
    door->add_tenant(b);
  }

  ~DoorFixture() {
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
  std::unique_ptr<FrontDoor<double>> door;
};

/// A door on a unix socket over a service whose coalescer holds a lone
/// request for `flush_ms` (it flushes early only at 8 systems), with
/// one tenant "alpha" (token "ta").
struct HeldDoor {
  HeldDoor(double flush_ms, std::size_t max_service_inflight) {
    service::ServiceConfig scfg;
    scfg.flush_systems = 8;
    scfg.flush_interval_ms = flush_ms;
    svc = std::make_unique<service::SolveService<double>>(
        std::vector<gpusim::DeviceSpec>{gpusim::device_registry().back()},
        scfg);
    sock = unique_sock("held");
    FrontDoorConfig fcfg;
    fcfg.unix_path = sock;
    fcfg.poll_interval_ms = 2.0;
    fcfg.max_service_inflight = max_service_inflight;
    door = std::make_unique<FrontDoor<double>>(*svc, fcfg);
    TenantConfig a;
    a.name = "alpha";
    a.token = "ta";
    door->add_tenant(a);
  }

  ~HeldDoor() {
    door->shutdown();
    svc->shutdown();
  }

  bool start() {
    std::string err;
    const bool ok = door->start(&err);
    EXPECT_TRUE(ok) << err;
    return ok;
  }

  /// alpha's admitted-but-unsettled systems (the registry charge).
  std::size_t alpha_inflight() const {
    return door->tenants().usage().at(0).inflight_systems;
  }

  std::string sock;
  std::unique_ptr<service::SolveService<double>> svc;
  std::unique_ptr<FrontDoor<double>> door;
};

/// Polls `done` every millisecond for up to five seconds.
template <typename Pred>
bool eventually(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- protocol

TEST(NetProtocol, ChecksumChangesOnAnyByteFlip) {
  std::string frame;
  encode_hello(frame, "secret-token");
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string mutated = frame;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    const auto r = decode_frame(mutated, 1 << 20);
    EXPECT_NE(r.status, DecodeStatus::Ok) << "flip at byte " << i;
  }
}

TEST(NetProtocol, HelloRoundTrip) {
  std::string buf;
  encode_hello(buf, "tok-123");
  const auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.consumed, buf.size());
  EXPECT_EQ(r.frame.type, FrameType::Hello);
  const auto hello = parse_hello(r.frame.payload);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->token, "tok-123");
}

TEST(NetProtocol, HelloOkAndGoodbyeRoundTrip) {
  std::string buf;
  encode_hello_ok(buf, "tenant-x");
  encode_goodbye(buf);
  auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.frame.type, FrameType::HelloOk);
  const auto ok = parse_hello_ok(r.frame.payload);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->tenant, "tenant-x");
  buf.erase(0, r.consumed);
  r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.frame.type, FrameType::Goodbye);
  EXPECT_TRUE(r.frame.payload.empty());
}

TEST(NetProtocol, SolveErrRoundTrip) {
  std::string buf;
  encode_solve_err(buf, 77, ErrorCode::QuotaRate, "slow down");
  const auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.frame.request_id, 77u);
  const auto e = parse_solve_err(r.frame.payload);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::QuotaRate);
  EXPECT_EQ(e->message, "slow down");
}

template <typename T>
void solve_round_trip() {
  const std::vector<T> a{0, 1, 2, 3}, b{5, 6, 7, 8}, c{1, 2, 3, 0},
      d{4, 3, 2, 1};
  std::string buf;
  encode_solve<T>(buf, 42, a, b, c, d, 12.5);
  const auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.frame.type, FrameType::Solve);
  EXPECT_EQ(r.frame.request_id, 42u);
  EXPECT_EQ(solve_dtype(r.frame.payload), sizeof(T));
  const auto f = parse_solve<T>(r.frame.payload);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->n, 4u);
  EXPECT_DOUBLE_EQ(f->deadline_ms, 12.5);
  EXPECT_EQ(f->a, a);
  EXPECT_EQ(f->b, b);
  EXPECT_EQ(f->c, c);
  EXPECT_EQ(f->d, d);
}

TEST(NetProtocol, SolveRoundTripF32) { solve_round_trip<float>(); }
TEST(NetProtocol, SolveRoundTripF64) { solve_round_trip<double>(); }

template <typename T>
void solve_ok_round_trip() {
  const std::vector<T> x{1, 2, 3};
  std::string buf;
  encode_solve_ok<T>(buf, 9, x, 0xABCD, 1.5, 0.25, true);
  const auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  const auto f = parse_solve_ok<T>(r.frame.payload);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->x, x);
  EXPECT_EQ(f->trace_id, 0xABCDu);
  EXPECT_DOUBLE_EQ(f->solve_ms, 1.5);
  EXPECT_DOUBLE_EQ(f->wait_ms, 0.25);
  EXPECT_TRUE(f->fallback_used);
}

TEST(NetProtocol, SolveOkRoundTripF32) { solve_ok_round_trip<float>(); }
TEST(NetProtocol, SolveOkRoundTripF64) { solve_ok_round_trip<double>(); }

TEST(NetProtocol, EveryPrefixNeedsMore) {
  std::string buf;
  encode_solve<double>(buf, 1, {0, 1}, {3, 3}, {1, 0}, {1, 1}, 0.0);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const auto r = decode_frame(std::string_view(buf).substr(0, len),
                                1 << 20);
    EXPECT_EQ(r.status, DecodeStatus::NeedMore) << "prefix " << len;
  }
  EXPECT_EQ(decode_frame(buf, 1 << 20).status, DecodeStatus::Ok);
}

TEST(NetProtocol, BadMagicRejectsEarly) {
  // Garbage is rejected as soon as 4 bytes arrive — it cannot pin
  // buffer space pretending to be a frame prefix.
  const auto r = decode_frame(std::string("junk"), 1 << 20);
  EXPECT_EQ(r.status, DecodeStatus::Corrupt);
}

TEST(NetProtocol, CorruptHeaderVariants) {
  std::string good;
  encode_hello(good, "t");

  std::string bad = good;
  bad[4] = 9;  // version
  EXPECT_EQ(decode_frame(bad, 1 << 20).status, DecodeStatus::Corrupt);

  bad = good;
  bad[6] = 99;  // frame type
  EXPECT_EQ(decode_frame(bad, 1 << 20).status, DecodeStatus::Corrupt);

  bad = good;
  bad[20] = static_cast<char>(bad[20] ^ 1);  // checksum
  EXPECT_EQ(decode_frame(bad, 1 << 20).status, DecodeStatus::Corrupt);
}

TEST(NetProtocol, OversizedPayloadLenIsCorruptNotNeedMore) {
  std::string good;
  encode_hello(good, "t");
  // Rewrite payload_len to something absurd; checksum no longer matters
  // because the length check fires first.
  good[16] = static_cast<char>(0xFF);
  good[17] = static_cast<char>(0xFF);
  good[18] = static_cast<char>(0xFF);
  good[19] = static_cast<char>(0x7F);
  const auto r = decode_frame(good, 1 << 20);
  EXPECT_EQ(r.status, DecodeStatus::Corrupt);
}

TEST(NetProtocol, ParseSolveShapeViolations) {
  std::string buf;
  encode_solve<double>(buf, 1, {0, 1}, {3, 3}, {1, 0}, {1, 1}, 0.0);
  const auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  const std::string payload(r.frame.payload);

  // Wrong dtype for the parser's T.
  EXPECT_FALSE(parse_solve<float>(payload).has_value());
  // Truncated and padded payloads: exact-size check refuses both.
  EXPECT_FALSE(
      parse_solve<double>(std::string_view(payload).substr(0, payload.size() - 1))
          .has_value());
  EXPECT_FALSE(parse_solve<double>(payload + "x").has_value());
  // n = 0.
  std::string zero = payload;
  zero[4] = zero[5] = zero[6] = zero[7] = 0;
  EXPECT_FALSE(
      parse_solve<double>(std::string_view(zero).substr(0, 16)).has_value());
}

// ------------------------------------------------------- golden bytes
//
// Exact wire bytes of one frame of every type, pinned as hex. These were
// recorded before the byte helpers and checksum moved to common/, and
// must never be edited to make a change pass: a diff here is a wire
// incompatibility with every deployed peer.

namespace {

using tda::golden::to_hex;

/// The frame matches its pinned bytes and decodes back as exactly one
/// frame of the given type.
void expect_golden_frame(const std::string& frame, FrameType type,
                         const std::string& want_hex) {
  EXPECT_EQ(to_hex(frame), want_hex) << to_string(type);
  const auto r = decode_frame(frame, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok) << to_string(type);
  EXPECT_EQ(r.consumed, frame.size());
  EXPECT_EQ(r.frame.type, type);
}

template <typename T>
void encode_golden_solve(std::string& out, bool v2) {
  const std::vector<T> a{0, 1}, b{4, 4}, c{1, 0}, d{1, 2};
  if (v2) {
    encode_solve_v2<T>(out, 13, a, b, c, d, 1754650001000.0,
                       0xFEEDFACECAFEBEEFull);
  } else {
    encode_solve<T>(out, 11, a, b, c, d, 12.5);
  }
}

}  // namespace

TEST(NetGolden, ControlFrameBytesArePinned) {
  std::string f;
  encode_hello(f, "token-0", kVersion2, 1754650000123.5);
  expect_golden_frame(f, FrameType::Hello,
                      "5444415001000100000000000000000013000000e3bcad10"
                      "07000200746f6b656e2d3000b8afa394887942");
  f.clear();
  encode_hello_ok(f, "alpha", kVersion2, 1754650000456.25);
  expect_golden_frame(f, FrameType::HelloOk,
                      "5444415001000200000000000000000011000000254f9638"
                      "05000200616c7068610084c4a394887942");
  f.clear();
  encode_goodbye(f);
  expect_golden_frame(f, FrameType::Goodbye,
                      "5444415001000600000000000000000000000000e3a049ec");
  f.clear();
  encode_solve_err(f, 0x0102030405060708ull, ErrorCode::KeyReuse,
                   "key reused", kVersion2);
  expect_golden_frame(f, FrameType::SolveErr,
                      "54444150020005000807060504030201120000008ca423ef"
                      "120000000a0000006b657920726575736564");
}

TEST(NetGolden, SolveV1FrameBytesArePinned) {
  std::string f;
  encode_golden_solve<float>(f, false);
  expect_golden_frame(f, FrameType::Solve,
                      "54444150010003000b0000000000000030000000fb5a3494"
                      "04000000020000000000000000002940000000000000803f0000804000008040"
                      "0000803f000000000000803f00000040");
  f.clear();
  encode_golden_solve<double>(f, false);
  expect_golden_frame(f, FrameType::Solve,
                      "54444150010003000b0000000000000050000000ef3a9fdc"
                      "080000000200000000000000000029400000000000000000000000000000f03f"
                      "00000000000010400000000000001040000000000000f03f0000000000000000"
                      "000000000000f03f0000000000000040");
}

TEST(NetGolden, SolveV2FrameBytesArePinned) {
  std::string f;
  encode_golden_solve<float>(f, true);
  expect_golden_frame(f, FrameType::Solve,
                      "54444150020003000d000000000000003800000039b3ac84"
                      "04000000020000000080e6a394887942efbefecacefaedfe000000000000803f"
                      "00008040000080400000803f000000000000803f00000040");
  f.clear();
  encode_golden_solve<double>(f, true);
  expect_golden_frame(f, FrameType::Solve,
                      "54444150020003000d0000000000000058000000c587bf91"
                      "08000000020000000080e6a394887942efbefecacefaedfe0000000000000000"
                      "000000000000f03f00000000000010400000000000001040000000000000f03f"
                      "0000000000000000000000000000f03f0000000000000040");
}

TEST(NetGolden, SolveOkFrameBytesArePinned) {
  std::string f;
  encode_solve_ok<float>(f, 21, {0.25f, -1.5f}, 0xABCDEFull, 0.5, 1.25,
                         true);
  expect_golden_frame(f, FrameType::SolveOk,
                      "54444150010004001500000000000000280000005563ef7d"
                      "0401000002000000efcdab0000000000000000000000e03f000000000000f43f"
                      "0000803e0000c0bf");
  f.clear();
  encode_solve_ok<double>(f, 22, {0.25, -1.5}, 0xABCDEFull, 0.5, 1.25,
                          false, kVersion2);
  expect_golden_frame(f, FrameType::SolveOk,
                      "544441500200040016000000000000003000000065036be3"
                      "0800000002000000efcdab0000000000000000000000e03f000000000000f43f"
                      "000000000000d03f000000000000f8bf");
}

TEST(NetGolden, HashKnownAnswers) {
  // Published FNV-1a test vectors, plus the continuation form the frame
  // checksum uses (header prefix, then payload).
  EXPECT_EQ(fnv1a32(""), 0x811C9DC5u);
  EXPECT_EQ(fnv1a32("a"), 0xE40C292Cu);
  EXPECT_EQ(fnv1a32("foobar"), 0xBF9CF968u);
  EXPECT_EQ(fnv1a32("bar", fnv1a32("foo")), 0xBF9CF968u);
  // The 64-bit Solve-payload fingerprint, which ops snapshots persist,
  // starts from 1469598103934665603 rather than the published basis.
  EXPECT_EQ(fnv1a64("", kFnv64LegacyBasis), 0x14650FB0739D0383ull);
  EXPECT_EQ(fnv1a64("a", kFnv64LegacyBasis), 0x44BD8AD473CD9906ull);
  EXPECT_EQ(fnv1a64("foobar", kFnv64LegacyBasis), 0x88FAD7C0A8FF07F2ull);
  // The published basis, which the tuning-cache checksum uses.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ull);

  // SplitMix64 from state 0 (Vigna's reference outputs).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(splitmix64(state), 0x06C45D188009454Full);

  // Dedup bucket hash of (tenant, key).
  EXPECT_EQ(dedup_key_hash(0, 0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(dedup_key_hash(1, 0xDEADBEEFull), 0xDE586A3141A10922ull);
  EXPECT_EQ(dedup_key_hash(7, ~0ull), 0x405DA438A39E8064ull);
}

// ---------------------------------------------------------------- sockets

TEST(NetSocket, ParseEndpointCases) {
  auto ep = parse_endpoint("127.0.0.1:8080");
  ASSERT_TRUE(ep.has_value());
  EXPECT_FALSE(ep->is_unix);
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 8080);

  ep = parse_endpoint("localhost:0");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->port, 0);

  ep = parse_endpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(ep.has_value());
  EXPECT_TRUE(ep->is_unix);
  EXPECT_EQ(ep->path, "/tmp/x.sock");

  EXPECT_FALSE(parse_endpoint("").has_value());
  EXPECT_FALSE(parse_endpoint("noport").has_value());
  EXPECT_FALSE(parse_endpoint("host:").has_value());
  EXPECT_FALSE(parse_endpoint("host:abc").has_value());
  EXPECT_FALSE(parse_endpoint("host:70000").has_value());
  EXPECT_FALSE(parse_endpoint("unix:").has_value());
}

// ---------------------------------------------------------------- tenants

TEST(NetTenant, TokenBucketDeterministic) {
  TokenBucket b(2.0, 2.0);  // 2/s, burst 2
  EXPECT_TRUE(b.try_take(0.0));
  EXPECT_TRUE(b.try_take(0.0));
  EXPECT_FALSE(b.try_take(0.0));
  EXPECT_FALSE(b.try_take(0.4));   // 0.8 tokens accrued
  EXPECT_TRUE(b.try_take(0.5));    // 1.0 accrued
  EXPECT_FALSE(b.try_take(0.5));
  TokenBucket unlimited(0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.try_take(0.0));
}

TEST(NetTenant, RegistryAuthAndQuotas) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "t";
  cfg.token = "tok";
  cfg.max_inflight = 2;
  cfg.max_inflight_bytes = 1000;
  cfg.requests_per_sec = 1.0;
  cfg.burst = 10.0;
  reg.add(cfg);

  EXPECT_EQ(reg.authenticate("wrong"), nullptr);
  Tenant* t = reg.authenticate("tok");
  ASSERT_NE(t, nullptr);

  EXPECT_EQ(reg.admit(*t, 1, 100, 0.0), Admission::Ok);
  EXPECT_EQ(reg.admit(*t, 1, 100, 0.0), Admission::Ok);
  EXPECT_EQ(reg.admit(*t, 1, 100, 0.0), Admission::QuotaInflight);
  reg.release(*t, 1, 100);
  // All-or-nothing: the bytes check fires before any charge.
  EXPECT_EQ(reg.admit(*t, 1, 950, 0.0), Admission::QuotaBytes);
  EXPECT_EQ(t->inflight_systems, 1u);
  EXPECT_EQ(reg.admit(*t, 1, 100, 0.0), Admission::Ok);
  reg.release(*t, 2, 200);

  // Burn the rate bucket: three successful admissions above consumed
  // three of the burst-10 tokens (rejections charge nothing), so seven
  // remain.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(reg.admit(*t, 1, 1, 0.0), Admission::Ok) << i;
    reg.release(*t, 1, 1);
  }
  EXPECT_EQ(reg.admit(*t, 1, 1, 0.0), Admission::QuotaRate);

  const auto usage = reg.usage();
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].name, "t");
  EXPECT_GT(usage[0].rejected, 0u);
}

TEST(NetTenant, DrrWeightedFairness) {
  TenantRegistry reg;
  TenantConfig a;
  a.name = "heavy";
  a.token = "a";
  a.weight = 2.0;
  reg.add(a);
  TenantConfig b;
  b.name = "light";
  b.token = "b";
  b.weight = 1.0;
  reg.add(b);
  Tenant* ta = reg.authenticate("a");
  Tenant* tb = reg.authenticate("b");

  DrrScheduler<int> sched(1.0);
  for (int i = 0; i < 30; ++i) {
    sched.enqueue(ta, 1, 1.0);
    sched.enqueue(tb, 2, 1.0);
  }
  // With equal unit costs and weights 2:1 the service order must give
  // the heavy tenant exactly twice the slots in every window.
  int heavy = 0, light = 0;
  int item = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(sched.dequeue(item));
    (item == 1 ? heavy : light) += 1;
  }
  EXPECT_EQ(heavy, 20);
  EXPECT_EQ(light, 10);
}

TEST(NetTenant, DrrExpensiveHeadAccumulatesNotUnderpays) {
  TenantRegistry reg;
  TenantConfig a;
  a.name = "big";
  a.token = "a";
  reg.add(a);
  TenantConfig b;
  b.name = "small";
  b.token = "b";
  reg.add(b);
  Tenant* ta = reg.authenticate("a");
  Tenant* tb = reg.authenticate("b");

  DrrScheduler<int> sched(1.0);
  sched.enqueue(ta, 100, 10.0);  // one expensive item
  for (int i = 0; i < 15; ++i) sched.enqueue(tb, 1, 1.0);

  // The cost-10 head must wait ~10 sweeps while the unit-cost lane keeps
  // flowing — per-equation fairness, not per-item.
  int item = 0;
  int before_big = 0;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(sched.dequeue(item));
    if (item == 100) break;
    ++before_big;
  }
  EXPECT_GE(before_big, 8);
  EXPECT_LE(before_big, 12);
}

TEST(NetTenant, DrrDropIf) {
  TenantRegistry reg;
  TenantConfig a;
  a.name = "t";
  a.token = "a";
  reg.add(a);
  Tenant* ta = reg.authenticate("a");

  DrrScheduler<int> sched(4.0);
  for (int i = 0; i < 10; ++i) sched.enqueue(ta, i, 1.0);
  int dropped = 0;
  sched.drop_if([](int v) { return v % 2 == 0; },
                [&dropped](int) { ++dropped; });
  EXPECT_EQ(dropped, 5);
  EXPECT_EQ(sched.size(), 5u);
  int item = 0;
  int served = 0;
  while (sched.dequeue(item)) {
    EXPECT_EQ(item % 2, 1);
    ++served;
  }
  EXPECT_EQ(served, 5);
}

// ------------------------------------------------------------------- E2E

TEST(NetDoor, UnixSolveRoundTripWithTenantLabels) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  EXPECT_EQ(client.tenant(), "alpha");

  for (const std::size_t n : {33u, 64u, 200u}) {
    const auto sys = diag_dominant(n, static_cast<unsigned>(n));
    const auto r = client.solve<double>(sys.a, sys.b, sys.c, sys.d);
    ASSERT_TRUE(r.ok()) << to_string(r.code) << " " << r.error;
    EXPECT_LT(residual(sys, r.x), 1e-8);
    EXPECT_NE(r.trace_id, 0u);
  }
  client.close();

  // The tenant label must show up on the latency histogram and the
  // front-door request counter.
  std::uint64_t labeled_count = 0;
  for (const auto& [name, snap] : fx.svc->telemetry().metrics.histograms()) {
    if (name.find("service.request_latency_ms{") == 0 &&
        name.find("tenant=\"alpha\"") != std::string::npos) {
      labeled_count += snap.count;  // keys split by shape bucket
    }
  }
  EXPECT_GE(labeled_count, 3u);
  EXPECT_GE(fx.svc->telemetry().metrics.counter(
                telemetry::labeled("net.requests", {{"tenant", "alpha"}})),
            3.0);

  const auto c = fx.door->counters();
  EXPECT_EQ(c.connections, 1u);
  EXPECT_GE(c.frames_rx, 4u);  // hello + 3 solves (+ goodbye)
  EXPECT_GE(c.responses_sent, 3u);
  EXPECT_EQ(c.bad_frames, 0u);
}

// Each handle-backed FrontDoorCounters field is its unlabeled net.*
// registry counter.
TEST(NetDoor, CountersMatchRegistry) {
  DoorFixture fx;
  auto& mx = fx.svc->telemetry().metrics;
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  const auto sys = diag_dominant(64, 5);
  ASSERT_TRUE(client.solve<double>(sys.a, sys.b, sys.c, sys.d).ok());
  ASSERT_TRUE(client.solve<double>(sys.a, sys.b, sys.c, sys.d).ok());
  const std::vector<float> v{1, 2, 3, 4};
  ASSERT_TRUE(client.send_solve<float>(9, v, v, v, v, 0.0, &err)) << err;
  WireResult<float> wrong;
  ASSERT_TRUE(client.recv_result<float>(wrong, &err)) << err;
  EXPECT_EQ(wrong.code, ErrorCode::Dtype);
  client.close();
  Client bad;
  EXPECT_FALSE(bad.connect("unix:" + fx.sock, "nope", &err));
  fx.door->shutdown();  // the poll thread is joined: totals are final

  const auto c = fx.door->counters();
  EXPECT_EQ(c.connections, 2u);
  EXPECT_EQ(c.requests_admitted, 2u);
  EXPECT_EQ(c.requests_rejected, 1u);
  EXPECT_EQ(c.responses_sent, 2u);
  EXPECT_EQ(c.auth_failures, 1u);

  const std::pair<const char*, std::uint64_t> fields[] = {
      {"net.connections", c.connections},
      {"net.closed", c.closed},
      {"net.frames_rx", c.frames_rx},
      {"net.frames_tx", c.frames_tx},
      {"net.bytes_rx", c.bytes_rx},
      {"net.bytes_tx", c.bytes_tx},
      {"net.bad_frames", c.bad_frames},
      {"net.auth_failed", c.auth_failures},
      {"net.requests_admitted", c.requests_admitted},
      {"net.requests_rejected", c.requests_rejected},
      {"net.responses", c.responses_sent},
      {"net.backpressure_pauses", c.backpressure_pauses},
      {"net.idle_closed", c.idle_closes},
      {"net.faults.drop", c.injected_drops},
      {"net.faults.corrupt", c.injected_corruptions},
      {"net.deadline_expired_arrival", c.deadline_expired_arrival},
      {"net.deadline_expired_queued", c.deadline_expired_queued},
      {"net.codel_sheds", c.shed_codel},
      {"net.aimd_throttles", c.aimd_throttles},
      {"net.skew_clamps", c.deadline_skew_clamped},
      {"net.duplicate_executions", c.duplicate_executions},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_EQ(mx.counter(name), static_cast<double>(value)) << name;
  }
}

// Metrics always record, so every label value must come from a bounded
// set (tenant, reason, shape bucket, outcome, worker, lane,
// generation): a second identical round of traffic, with typed rejects
// and a failed auth, adds no counter, gauge or histogram key.
TEST(NetDoor, AlwaysOnMetricsStayBounded) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());
  auto& mx = fx.svc->telemetry().metrics;

  const auto round = [&] {
    for (const char* token : {"ta", "tb"}) {
      Client client;
      std::string err;
      ASSERT_TRUE(client.connect("unix:" + fx.sock, token, &err)) << err;
      for (const std::size_t n : {33u, 64u, 200u}) {
        const auto sys = diag_dominant(n, static_cast<unsigned>(n));
        ASSERT_TRUE(client.solve<double>(sys.a, sys.b, sys.c, sys.d).ok());
      }
      const std::vector<float> v{1, 2, 3, 4};
      ASSERT_TRUE(client.send_solve<float>(9, v, v, v, v, 0.0, &err))
          << err;
      WireResult<float> wrong;
      ASSERT_TRUE(client.recv_result<float>(wrong, &err)) << err;
      EXPECT_EQ(wrong.code, ErrorCode::Dtype);
    }
    Client bad;
    std::string err;
    EXPECT_FALSE(bad.connect("unix:" + fx.sock, "nope", &err));
    // Every connection's close is counted before the keys are read.
    ASSERT_TRUE(eventually([&] {
      const auto c = fx.door->counters();
      return c.closed == c.connections;
    }));
    fx.svc->publish_gauges();
  };
  const auto keys = [&mx] {
    std::set<std::string> out;
    for (const auto& [k, v] : mx.counters()) out.insert("counter " + k);
    for (const auto& [k, v] : mx.gauges()) out.insert("gauge " + k);
    for (const auto& [k, v] : mx.histograms()) out.insert("histogram " + k);
    return out;
  };

  round();
  const std::set<std::string> first = keys();
  EXPECT_GT(mx.counter(telemetry::labeled(
                "net.rejects", {{"tenant", "beta"}, {"reason", "dtype"}})),
            0.0);
  round();
  EXPECT_EQ(keys(), first);
}

TEST(NetDoor, TcpSolveRoundTrip) {
  FrontDoorConfig fcfg;
  fcfg.tcp = "127.0.0.1:0";
  DoorFixture fx(fcfg);
  ASSERT_TRUE(fx.start());
  ASSERT_NE(fx.door->tcp_port(), 0);

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect(
      "127.0.0.1:" + std::to_string(fx.door->tcp_port()), "tb", &err))
      << err;
  EXPECT_EQ(client.tenant(), "beta");
  const auto sys = diag_dominant(128, 7);
  const auto r = client.solve<double>(sys.a, sys.b, sys.c, sys.d);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_LT(residual(sys, r.x), 1e-8);
}

TEST(NetDoor, AuthFailedAndAuthRequired) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());

  Client bad;
  std::string err;
  EXPECT_FALSE(bad.connect("unix:" + fx.sock, "nope", &err));
  EXPECT_NE(err.find("auth"), std::string::npos) << err;

  // No Hello at all: the Solve is refused with AuthRequired.
  Client anon;
  ASSERT_TRUE(anon.connect("unix:" + fx.sock, "", &err)) << err;
  const auto sys = diag_dominant(32, 1);
  const auto r = anon.solve<double>(sys.a, sys.b, sys.c, sys.d);
  EXPECT_EQ(r.code, ErrorCode::AuthRequired);
}

// Under a retry policy a refused connect still says why, and a
// malformed endpoint spec is not retried at all.
TEST(NetDoor, RetriedConnectKeepsFirstCause) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());
  Client client;
  client.set_retry({.max_attempts = 2, .base_backoff_ms = 0.5,
                    .max_backoff_ms = 1.0, .seed = 1});
  std::string err;
  EXPECT_FALSE(client.connect("unix:" + fx.sock, "nope", &err));
  EXPECT_NE(err.find("auth rejected"), std::string::npos) << err;
  EXPECT_EQ(client.stats().gave_up, 1u);
  EXPECT_FALSE(client.connect("no-port-here", "ta", &err));
  EXPECT_EQ(err, "bad endpoint spec: no-port-here");
  EXPECT_EQ(client.stats().gave_up, 1u);  // not retried
}

TEST(NetDoor, DtypeMismatchRejected) {
  DoorFixture fx;  // server is instantiated for double
  ASSERT_TRUE(fx.start());
  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  const std::vector<float> v{1, 2, 3, 4};
  ASSERT_TRUE(client.send_solve<float>(1, v, v, v, v, 0.0, &err)) << err;
  WireResult<float> r;
  ASSERT_TRUE(client.recv_result<float>(r, &err)) << err;
  EXPECT_EQ(r.code, ErrorCode::Dtype);
}

TEST(NetDoor, RateQuotaRejectsWithTypedFrame) {
  DoorFixture fx;
  TenantConfig limited;
  limited.name = "limited";
  limited.token = "tl";
  limited.requests_per_sec = 0.001;  // refills ~never within the test
  limited.burst = 2.0;
  fx.door->add_tenant(limited);
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "tl", &err)) << err;
  const auto sys = diag_dominant(32, 5);
  int ok = 0, rate_rejected = 0;
  for (int i = 0; i < 5; ++i) {
    const auto r = client.solve<double>(sys.a, sys.b, sys.c, sys.d);
    if (r.ok()) ++ok;
    if (r.code == ErrorCode::QuotaRate) ++rate_rejected;
  }
  EXPECT_EQ(ok, 2);            // the burst
  EXPECT_EQ(rate_rejected, 3); // everything past it, typed
}

TEST(NetDoor, InflightQuotaRejects) {
  DoorFixture fx;
  TenantConfig tiny;
  tiny.name = "tiny";
  tiny.token = "tt";
  tiny.max_inflight = 1;
  fx.door->add_tenant(tiny);
  // Stall the workers so the first request is still in flight when the
  // second arrives.
  faults::FaultConfig fc;
  fc.rate_of(faults::Site::WorkerStall) = 1.0;
  fc.stall_ms = 120.0;
  faults::ScopedFaultConfig scoped(fc);
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "tt", &err)) << err;
  const auto sys = diag_dominant(48, 9);
  ASSERT_TRUE(client.send_solve<double>(1, sys.a, sys.b, sys.c, sys.d, 0.0,
                                        &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(client.send_solve<double>(2, sys.a, sys.b, sys.c, sys.d, 0.0,
                                        &err));
  WireResult<double> first, second;
  ASSERT_TRUE(client.recv_result<double>(first, &err)) << err;
  ASSERT_TRUE(client.recv_result<double>(second, &err)) << err;
  // Arrival order: the quota reject answers immediately, the stalled
  // solve later.
  EXPECT_EQ(first.request_id, 2u);
  EXPECT_EQ(first.code, ErrorCode::QuotaInflight);
  EXPECT_EQ(second.request_id, 1u);
  EXPECT_TRUE(second.ok()) << second.error;
}

TEST(NetDoor, DrainMidStreamAnswersNeverSilentlyCloses) {
  DoorFixture fx;
  faults::FaultConfig fc;
  fc.rate_of(faults::Site::WorkerStall) = 1.0;
  fc.stall_ms = 150.0;
  faults::ScopedFaultConfig scoped(fc);
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  const auto sys = diag_dominant(64, 11);
  // Request 1 gets admitted and stalls inside a worker.
  ASSERT_TRUE(client.send_solve<double>(1, sys.a, sys.b, sys.c, sys.d, 0.0,
                                        &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  fx.door->begin_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Request 2 arrives mid-drain: it must get a typed Draining frame.
  ASSERT_TRUE(client.send_solve<double>(2, sys.a, sys.b, sys.c, sys.d, 0.0,
                                        &err));

  WireResult<double> r2, r1;
  ASSERT_TRUE(client.recv_result<double>(r2, &err)) << err;
  EXPECT_EQ(r2.request_id, 2u);
  EXPECT_EQ(r2.code, ErrorCode::Draining);
  // Request 1 was already in flight: it completes normally.
  ASSERT_TRUE(client.recv_result<double>(r1, &err)) << err;
  EXPECT_EQ(r1.request_id, 1u);
  ASSERT_TRUE(r1.ok()) << to_string(r1.code) << " " << r1.error;
  EXPECT_LT(residual(sys, r1.x), 1e-8);
  // The orderly close: Goodbye, not a dead socket.
  WireResult<double> r3;
  EXPECT_FALSE(client.recv_result<double>(r3, &err));
  EXPECT_NE(err.find("goodbye"), std::string::npos) << err;

  fx.door->shutdown();
}

TEST(NetDoor, InjectedCorruptionRejectedByChecksum) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());
  faults::FaultConfig fc;
  fc.seed = 42;
  fc.rate_of(faults::Site::NetCorrupt) = 1.0;
  faults::ScopedFaultConfig scoped(fc);

  Client client;
  std::string err;
  // Every received chunk is corrupted, so the handshake comes back as a
  // typed BadFrame reject — the decoder never accepts flipped bytes.
  EXPECT_FALSE(client.connect("unix:" + fx.sock, "ta", &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(fx.door->counters().injected_corruptions, 1u);
  EXPECT_GE(fx.door->counters().bad_frames, 1u);
}

TEST(NetDoor, InjectedDropClosesConnection) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());
  faults::FaultConfig fc;
  fc.seed = 7;
  fc.rate_of(faults::Site::NetDrop) = 1.0;
  faults::ScopedFaultConfig scoped(fc);

  Client client;
  std::string err;
  EXPECT_FALSE(client.connect("unix:" + fx.sock, "ta", &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(fx.door->counters().injected_drops, 1u);
}

TEST(NetDoor, IdleConnectionsAreReaped) {
  FrontDoorConfig fcfg;
  fcfg.idle_timeout_ms = 40.0;
  DoorFixture fx(fcfg);
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  WireResult<double> r;
  EXPECT_FALSE(client.recv_result<double>(r, &err));
  EXPECT_GE(fx.door->counters().idle_closes, 1u);
}

TEST(NetDoor, CrossTenantSameShapeStillCoalesces) {
  FrontDoorConfig fcfg;
  fcfg.max_service_inflight = 64;
  service::ServiceConfig scfg;
  scfg.flush_systems = 16;
  scfg.flush_interval_ms = 5.0;  // wide window so the batch fills
  DoorFixture fx(fcfg, scfg);
  ASSERT_TRUE(fx.start());

  constexpr int kPerTenant = 8;
  auto run_tenant = [&](const char* token) {
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("unix:" + fx.sock, token, &err)) << err;
    const auto sys = diag_dominant(96, 21);
    for (int i = 0; i < kPerTenant; ++i) {
      ASSERT_TRUE(client.send_solve<double>(
          static_cast<std::uint64_t>(i + 1), sys.a, sys.b, sys.c, sys.d,
          0.0, &err));
    }
    for (int i = 0; i < kPerTenant; ++i) {
      WireResult<double> r;
      ASSERT_TRUE(client.recv_result<double>(r, &err)) << err;
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_LT(residual(sys, r.x), 1e-8);
    }
  };
  std::thread ta([&] { run_tenant("ta"); });
  std::thread tb([&] { run_tenant("tb"); });
  ta.join();
  tb.join();

  // Same shape from two tenants must merge into shared batches: fewer
  // flushes than systems proves cross-tenant coalescing survived QoS.
  const auto c = fx.svc->counters();
  EXPECT_EQ(c.completed, 2u * kPerTenant);
  EXPECT_LT(c.flushes, 2u * kPerTenant);
  EXPECT_GT(c.max_batch_systems, 1u);
}

// Two requests wait in the lane behind one held in the service when
// their connection closes: dropping them must return their bytes to
// the gauge, not only to the tenant charge.
TEST(NetDoor, LaneDropOnCloseReturnsInflightBytes) {
  HeldDoor fx(10'000.0, 1);
  ASSERT_TRUE(fx.start());
  {
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
    const auto sys = diag_dominant(64, 13);
    for (std::uint64_t rid = 1; rid <= 3; ++rid) {
      ASSERT_TRUE(client.send_solve<double>(rid, sys.a, sys.b, sys.c,
                                            sys.d, 0.0, &err))
          << err;
    }
    ASSERT_TRUE(eventually([&] {
      return fx.door->service_inflight() == 1 && fx.alpha_inflight() == 3;
    }));
    client.close();
  }
  ASSERT_TRUE(eventually([&] { return fx.alpha_inflight() == 1; }));
  fx.svc->shutdown();  // the drain flushes the held request
  ASSERT_TRUE(eventually([&] {
    return fx.alpha_inflight() == 0 && fx.door->service_inflight() == 0;
  }));
  fx.door->shutdown();
  EXPECT_EQ(fx.svc->telemetry().metrics.gauge("net.inflight_bytes_now"),
            0.0);
}

// A corrupted payload_len leaves the decoder waiting for bytes that
// never come. The door must refuse that frame with a typed BadFrame and
// close the connection within kPartialFrameStallMs plus one poll.
TEST(NetDoor, StalledPartialFrameGetsTypedClose) {
  HeldDoor fx(1.0, 4);
  ASSERT_TRUE(fx.start());
  const auto ep = parse_endpoint("unix:" + fx.sock);
  ASSERT_TRUE(ep.has_value());
  std::string err;
  Fd fd = connect_endpoint(*ep, &err);
  ASSERT_TRUE(fd.valid()) << err;

  const auto sys = diag_dominant(64, 17);
  std::string frame;
  encode_solve<double>(frame, 1, sys.a, sys.b, sys.c, sys.d, 0.0);
  std::string inflated;
  le::put_u32(inflated, le::get_u32(frame, 16) + 4096);
  frame.replace(16, 4, inflated);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(write_all(fd.get(), frame.data(), frame.size()));

  // HeldDoor polls every 2 ms; 100 ms covers a loaded scheduler.
  const int budget_ms = static_cast<int>(kPartialFrameStallMs) + 2 + 100;
  pollfd p{fd.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&p, 1, budget_ms), 1) << "no reply to a stalled frame";
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_GE(waited_ms, kPartialFrameStallMs);
  std::string rbuf, payload;
  FrameType type{};
  ASSERT_TRUE(read_frame(fd.get(), rbuf, type, payload));
  ASSERT_EQ(type, FrameType::SolveErr);
  const auto e = parse_solve_err(payload);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::BadFrame) << e->message;
  ASSERT_EQ(::poll(&p, 1, budget_ms), 1);
  char tmp[64];
  EXPECT_EQ(read_some(fd.get(), tmp, sizeof(tmp)), 0);  // closed
  EXPECT_EQ(fx.door->counters().bad_frames, 1u);
}

// A connection paused for backpressure is not read, so its silence
// says nothing. A slow reader that leaves a frame half-sent while the
// door holds more than kWriteBufferLimit of its replies must still be
// served once it drains them: resuming restarts the stall clock.
TEST(NetDoor, PausedPartialFrameSurvivesResume) {
  HeldDoor fx(1.0, 4);
  ASSERT_TRUE(fx.start());
  const auto ep = parse_endpoint("unix:" + fx.sock);
  ASSERT_TRUE(ep.has_value());
  std::string err;
  Fd fd = connect_endpoint(*ep, &err);
  ASSERT_TRUE(fd.valid()) << err;
  std::string rbuf, payload;
  FrameType type{};
  std::string hello;
  encode_hello(hello, "ta");
  ASSERT_TRUE(write_all(fd.get(), hello.data(), hello.size()));
  ASSERT_TRUE(read_frame(fd.get(), rbuf, type, payload));
  ASSERT_EQ(type, FrameType::HelloOk);

  // 12 replies of 512 KiB overflow the write buffer plus the kernel's.
  // One key: a single solve answers them all (the rest are dedup joins
  // and replays), so the pause does not wait on solver speed.
  constexpr std::size_t kRequests = 12;
  constexpr std::uint64_t kKey = 0x5eed;
  const auto sys = diag_dominant(std::size_t{1} << 16, 29);
  std::string last;
  encode_solve_v2<double>(last, kRequests + 1, sys.a, sys.b, sys.c, sys.d,
                          0.0, kKey);
  const auto paused = [&] {
    return fx.door->counters().backpressure_pauses >= 1;
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::size_t sent = 0;  // bytes of `last` written; read after the join
  std::atomic<bool> writes_ok{true};
  std::thread writer([&] {
    for (std::size_t i = 1; i <= kRequests; ++i) {
      std::string frame;
      encode_solve_v2<double>(frame, i, sys.a, sys.b, sys.c, sys.d, 0.0,
                              kKey);
      if (!write_all(fd.get(), frame.data(), frame.size())) {
        writes_ok = false;
        return;
      }
    }
    // Half of the last frame, then a byte at a time until the door
    // pauses: a partial frame sits in its read buffer when it stops
    // reading, however long the replies took to pile up.
    sent = last.size() / 2;
    if (!write_all(fd.get(), last.data(), sent)) writes_ok = false;
    while (writes_ok && !paused() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (!write_all(fd.get(), last.data() + sent, 1)) writes_ok = false;
      ++sent;
    }
  });

  while (!paused() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(paused());
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      kPartialFrameStallMs + 200.0));
  std::size_t served = 0;
  while (served < kRequests && read_frame(fd.get(), rbuf, type, payload) &&
         type == FrameType::SolveOk) {
    ++served;
  }
  if (served < kRequests) {
    // Read on so the door can flush, close, and fail the blocked writer.
    char tmp[1 << 16];
    while (read_some(fd.get(), tmp, sizeof(tmp)) > 0) {
    }
  }
  writer.join();
  ASSERT_EQ(served, kRequests);
  ASSERT_TRUE(writes_ok.load());
  ASSERT_TRUE(write_all(fd.get(), last.data() + sent, last.size() - sent))
      << "the door closed the resumed connection";
  ASSERT_TRUE(read_frame(fd.get(), rbuf, type, payload));
  EXPECT_EQ(type, FrameType::SolveOk);
  EXPECT_EQ(fx.door->counters().bad_frames, 0u);
}

TEST(NetDoor, DrainClosesZeroConnectionsGauge) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());
  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  fx.door->shutdown();  // the client is still connected

  const auto c = fx.door->counters();
  EXPECT_EQ(c.connections, 1u);
  EXPECT_EQ(c.closed, c.connections);
  EXPECT_EQ(fx.svc->telemetry().metrics.gauge("net.connections_now"), 0.0);
}

// One timeout cuts alpha's AIMD window; completions then grow it back,
// and the gauge must follow every step, not only the cut.
TEST(NetDoor, AimdGaugeFollowsWindowRecovery) {
  HeldDoor fx(30.0, 256);
  ASSERT_TRUE(fx.start());
  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  const auto sys = diag_dominant(64, 19);
  // A 3 ms budget against a 30 ms coalescing window times out.
  ASSERT_TRUE(client.send_solve<double>(1, sys.a, sys.b, sys.c, sys.d, 3.0,
                                        &err))
      << err;
  WireResult<double> timed_out;
  ASSERT_TRUE(client.recv_result<double>(timed_out, &err)) << err;
  EXPECT_EQ(timed_out.code, ErrorCode::TimedOut)
      << to_string(timed_out.code) << " " << timed_out.error;
  for (std::uint64_t rid = 2; rid <= 11; ++rid) {
    ASSERT_TRUE(client.send_solve<double>(rid, sys.a, sys.b, sys.c, sys.d,
                                          0.0, &err))
        << err;
  }
  for (int i = 0; i < 10; ++i) {
    WireResult<double> r;
    ASSERT_TRUE(client.recv_result<double>(r, &err)) << err;
    ASSERT_TRUE(r.ok()) << to_string(r.code) << " " << r.error;
  }
  fx.door->shutdown();  // the poll thread is joined: its state is final

  ops::ServerState st;
  fx.door->export_state(st);
  ASSERT_EQ(st.tenants.size(), 1u);
  const double window = st.tenants[0].aimd_limit;
  EXPECT_GT(window, 256.0 * 0.7);  // cut once, then grown
  EXPECT_LT(window, 256.0);
  EXPECT_EQ(fx.svc->telemetry().metrics.gauge(
                telemetry::labeled("net.aimd_limit", {{"tenant", "alpha"}})),
            window);
}

// ------------------------------------------------------- protocol v2

TEST(NetProtocolV2, NegotiateVersionClamps) {
  EXPECT_EQ(negotiate_version(0), kVersion);   // legacy slot
  EXPECT_EQ(negotiate_version(1), kVersion);
  EXPECT_EQ(negotiate_version(2), kVersion2);
  EXPECT_EQ(negotiate_version(7), kMaxVersion);  // future client clamps
}

TEST(NetProtocolV2, HandshakeCarriesVersionsInReservedSlot) {
  std::string buf;
  encode_hello(buf, "tok", 2);
  auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.frame.version, kVersion);  // control frames stay v1-framed
  auto hello = parse_hello(r.frame.payload);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->advertised_version, 2);

  // A legacy Hello left the slot zeroed — that must still parse as 0.
  buf.clear();
  encode_hello(buf, "tok", 0);
  r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  hello = parse_hello(r.frame.payload);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->advertised_version, 0);

  buf.clear();
  encode_hello_ok(buf, "alpha", kVersion2);
  r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  const auto ok = parse_hello_ok(r.frame.payload);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->tenant, "alpha");
  EXPECT_EQ(ok->negotiated_version, kVersion2);
}

TEST(NetProtocolV2, SolveV2RoundTripAndCrossVersionRejection) {
  const auto sys = diag_dominant(48, 11);
  std::string buf;
  encode_solve_v2<double>(buf, 42, sys.a, sys.b, sys.c, sys.d, 1234.5,
                          0xDEADBEEFCAFEull);
  const auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  EXPECT_EQ(r.frame.version, kVersion2);
  EXPECT_EQ(r.frame.request_id, 42u);

  const auto v2 = parse_solve<double>(r.frame.payload, kVersion2);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->n, 48u);
  EXPECT_EQ(v2->version, kVersion2);
  EXPECT_DOUBLE_EQ(v2->deadline_unix_ms, 1234.5);
  EXPECT_EQ(v2->idem_key, 0xDEADBEEFCAFEull);
  EXPECT_EQ(v2->a, sys.a);
  EXPECT_EQ(v2->d, sys.d);

  // The v2 payload is 8 bytes longer than v1's for the same n: parsing
  // it at the wrong version must fail the exact-length check, never
  // misread the idem key as sample data.
  EXPECT_FALSE(parse_solve<double>(r.frame.payload, kVersion).has_value());
  std::string v1buf;
  encode_solve<double>(v1buf, 1, sys.a, sys.b, sys.c, sys.d, 5.0);
  const auto rv1 = decode_frame(v1buf, 1 << 20);
  ASSERT_EQ(rv1.status, DecodeStatus::Ok);
  EXPECT_FALSE(parse_solve<double>(rv1.frame.payload, kVersion2).has_value());
}

// ------------------------------------------------------------- dedup

TEST(NetDedup, LifecycleHitJoinWaitersAndDuplicateTally) {
  DedupCache<int> cache;
  using State = DedupCache<int>::State;

  EXPECT_EQ(cache.begin(1, 10, 0, 0.0), State::Fresh);
  EXPECT_EQ(cache.begin(1, 10, 0, 0.0), State::InFlight);
  cache.add_waiter(1, 10, {7, 99});
  EXPECT_EQ(cache.mark_executed(1, 10), 0u);
  EXPECT_EQ(cache.mark_executed(1, 10), 1u);  // a dedup bug, tallied
  EXPECT_EQ(cache.stats().duplicate_executions, 1u);

  auto waiters = cache.take_waiters(1, 10);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].conn_id, 7u);
  EXPECT_EQ(waiters[0].request_id, 99u);

  cache.complete(1, 10, 42, 100, 0.0);
  EXPECT_EQ(cache.begin(1, 10, 0, 1.0), State::Completed);
  const int* hit = cache.lookup(1, 10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().joins, 1u);

  // abandon() forgets the key entirely; the next attempt is fresh.
  cache.abandon(1, 10);
  EXPECT_EQ(cache.begin(1, 10, 0, 1.0), State::Fresh);
}

TEST(NetDedup, TenantScopingEvictionAndTtl) {
  DedupConfig cfg;
  cfg.ttl_ms = 100.0;
  cfg.max_entries = 2;
  DedupCache<int> cache(cfg);
  using State = DedupCache<int>::State;

  // Same key under two tenants: two independent entries.
  EXPECT_EQ(cache.begin(1, 10, 0, 0.0), State::Fresh);
  cache.complete(1, 10, 41, 50, 0.0);
  EXPECT_EQ(cache.begin(2, 10, 0, 1.0), State::Fresh);
  cache.complete(2, 10, 42, 50, 1.0);
  ASSERT_NE(cache.lookup(2, 10), nullptr);
  EXPECT_EQ(*cache.lookup(2, 10), 42);

  // The entry cap is 2: a third completion evicts the oldest completed
  // entry, and an evicted key simply re-executes next time.
  EXPECT_EQ(cache.begin(1, 11, 0, 2.0), State::Fresh);
  cache.complete(1, 11, 43, 50, 2.0);
  EXPECT_EQ(cache.lookup(1, 10), nullptr);
  EXPECT_NE(cache.lookup(2, 10), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.begin(1, 10, 0, 3.0), State::Fresh);
  cache.abandon(1, 10);

  // TTL: everything completed more than ttl_ms ago is swept.
  cache.sweep(500.0);
  EXPECT_EQ(cache.lookup(2, 10), nullptr);
  EXPECT_EQ(cache.lookup(1, 11), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// --------------------------------------------------- overload control

TEST(NetTenant, DrrDequeueIfParksIneligibleLaneWithoutLosingItsTurn) {
  TenantRegistry reg;
  TenantConfig a;
  a.name = "parked";
  a.token = "a";
  reg.add(a);
  TenantConfig b;
  b.name = "open";
  b.token = "b";
  reg.add(b);
  Tenant* ta = reg.authenticate("a");
  Tenant* tb = reg.authenticate("b");

  DrrScheduler<int> sched(1.0);
  for (int i = 0; i < 4; ++i) {
    sched.enqueue(ta, 1, 1.0);
    sched.enqueue(tb, 2, 1.0);
  }

  // With ta's lane ineligible (an AIMD window at zero), dequeue_if must
  // serve only tb and then report "nothing eligible" — ta's items stay
  // queued, not dropped.
  int item = 0;
  int open_served = 0;
  while (sched.dequeue_if(item, [&](Tenant* t) { return t != ta; })) {
    EXPECT_EQ(item, 2);
    ++open_served;
  }
  EXPECT_EQ(open_served, 4);
  EXPECT_EQ(sched.size(), 4u);

  // Window reopens: the parked lane drains in full.
  int parked_served = 0;
  while (sched.dequeue_if(item, [](Tenant*) { return true; })) {
    EXPECT_EQ(item, 1);
    ++parked_served;
  }
  EXPECT_EQ(parked_served, 4);
  EXPECT_EQ(sched.size(), 0u);
}

// ------------------------------------------------------------ v2 E2E

TEST(NetDoorV2, LegacyV1ClientInteroperates) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());

  // Emulate a pre-negotiation client byte-for-byte: Hello with a zeroed
  // version slot, then a v1 Solve frame.
  const auto ep = parse_endpoint("unix:" + fx.sock);
  ASSERT_TRUE(ep.has_value());
  std::string err;
  Fd fd = connect_endpoint(*ep, &err);
  ASSERT_TRUE(fd.valid()) << err;

  std::string hello;
  encode_hello(hello, "ta", 0);
  ASSERT_TRUE(write_all(fd.get(), hello.data(), hello.size()));
  std::string rbuf, payload;
  FrameType type{};
  std::uint16_t ver = 0;
  ASSERT_TRUE(read_frame(fd.get(), rbuf, type, payload, &ver));
  ASSERT_EQ(type, FrameType::HelloOk);
  const auto ok = parse_hello_ok(payload);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->tenant, "alpha");
  EXPECT_EQ(ok->negotiated_version, kVersion);  // downgraded, not refused

  const auto sys = diag_dominant(64, 3);
  std::string solve;
  encode_solve<double>(solve, 5, sys.a, sys.b, sys.c, sys.d, 0.0);
  ASSERT_TRUE(write_all(fd.get(), solve.data(), solve.size()));
  ASSERT_TRUE(read_frame(fd.get(), rbuf, type, payload, &ver));
  ASSERT_EQ(type, FrameType::SolveOk);
  EXPECT_EQ(ver, kVersion);  // responses stay v1-framed on this conn
  const auto res = parse_solve_ok<double>(payload);
  ASSERT_TRUE(res.has_value());
  EXPECT_LT(residual(sys, res->x), 1e-8);
}

TEST(NetDoorV2, KeyedResendReplaysWithoutReexecution) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  EXPECT_EQ(client.wire_version(), kVersion2);

  const auto sys = diag_dominant(64, 17);
  const std::uint64_t key = client.mint_key();
  ASSERT_NE(key, 0u);
  ASSERT_TRUE(client.send_solve2<double>(1, sys.a, sys.b, sys.c, sys.d,
                                         0.0, key, &err))
      << err;
  WireResult<double> first;
  ASSERT_TRUE(client.recv_result<double>(first, &err)) << err;
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_LT(residual(sys, first.x), 1e-8);

  // A resend under the same key — what the client does after a dropped
  // SolveOk — replays the cached result; the device never runs twice.
  ASSERT_TRUE(client.send_solve2<double>(2, sys.a, sys.b, sys.c, sys.d,
                                         0.0, key, &err))
      << err;
  WireResult<double> replay;
  ASSERT_TRUE(client.recv_result<double>(replay, &err)) << err;
  EXPECT_EQ(replay.request_id, 2u);  // answered under the new rid
  ASSERT_TRUE(replay.ok()) << replay.error;
  EXPECT_EQ(replay.x, first.x);

  const auto c = fx.door->counters();
  EXPECT_GE(c.dedup_hits, 1u);
  EXPECT_EQ(c.duplicate_executions, 0u);
  EXPECT_EQ(fx.svc->counters().completed, 1u);  // one device execution
}

TEST(NetDoorV2, ExpiredOnArrivalRejectedBeforeTheService) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;

  const auto sys = diag_dominant(32, 5);
  // Negative budget crafts an absolute deadline already in the past.
  ASSERT_TRUE(client.send_solve2<double>(1, sys.a, sys.b, sys.c, sys.d,
                                         -50.0, client.mint_key(), &err))
      << err;
  WireResult<double> r;
  ASSERT_TRUE(client.recv_result<double>(r, &err)) << err;
  EXPECT_EQ(r.code, ErrorCode::DeadlineExpired)
      << to_string(r.code) << " " << r.error;

  EXPECT_EQ(fx.door->counters().deadline_expired_arrival, 1u);
  EXPECT_EQ(fx.svc->counters().submitted, 0u);  // never touched a device
}

TEST(NetDoorV2, TenantDefaultDeadlineApplies) {
  DoorFixture fx;
  TenantConfig timed;
  timed.name = "timed";
  timed.token = "tt";
  timed.default_deadline_ms = 0.0005;  // lapses before any dispatch
  fx.door->add_tenant(timed);
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "tt", &err)) << err;

  // A v1-style Solve with NO deadline of its own: the tenant default
  // must be folded in by the door and expire the request.
  const auto sys = diag_dominant(32, 9);
  ASSERT_TRUE(client.send_solve<double>(1, sys.a, sys.b, sys.c, sys.d,
                                        0.0, &err))
      << err;
  WireResult<double> r;
  ASSERT_TRUE(client.recv_result<double>(r, &err)) << err;
  EXPECT_EQ(r.code, ErrorCode::DeadlineExpired)
      << to_string(r.code) << " " << r.error;
  const auto c = fx.door->counters();
  EXPECT_GE(c.deadline_expired_arrival + c.deadline_expired_queued, 1u);
}

// ---------------------------------------------------------- clock skew

TEST(NetProtocol, HelloTimestampRidesOptionalTail) {
  // Stamped Hello/HelloOk round-trip the f64; legacy frames without it
  // still parse (has_timestamp = false, value 0).
  std::string buf;
  encode_hello(buf, "tok", kMaxVersion, 1754650000123.5);
  auto r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  auto hello = parse_hello(r.frame.payload);
  ASSERT_TRUE(hello.has_value());
  EXPECT_TRUE(hello->has_timestamp);
  EXPECT_DOUBLE_EQ(hello->client_unix_ms, 1754650000123.5);

  buf.clear();
  encode_hello(buf, "tok");
  r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  hello = parse_hello(r.frame.payload);
  ASSERT_TRUE(hello.has_value());
  EXPECT_FALSE(hello->has_timestamp);
  EXPECT_EQ(hello->client_unix_ms, 0.0);

  buf.clear();
  encode_hello_ok(buf, "alpha", kVersion2, 42.0);
  r = decode_frame(buf, 1 << 20);
  ASSERT_EQ(r.status, DecodeStatus::Ok);
  const auto ok = parse_hello_ok(r.frame.payload);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->has_timestamp);
  EXPECT_DOUBLE_EQ(ok->server_unix_ms, 42.0);
}

TEST(NetDoorV2, SkewedClockDeadlineClampedToTenantDefault) {
  FrontDoorConfig fcfg;
  fcfg.max_clock_skew_ms = 500.0;
  DoorFixture fx(fcfg);
  TenantConfig skewed;
  skewed.name = "skewed";
  skewed.token = "ts";
  skewed.default_deadline_ms = 5000.0;
  fx.door->add_tenant(skewed);
  ASSERT_TRUE(fx.start());

  // A client whose clock runs 10 s slow, emulated byte-for-byte: the
  // Hello timestamp reveals the skew, so the absolute deadline it mints
  // (8 s "in the future" by its clock, expired by ours) must be
  // discarded in favour of the tenant's default budget — the request
  // solves instead of dying DeadlineExpired on arrival.
  const auto ep = parse_endpoint("unix:" + fx.sock);
  ASSERT_TRUE(ep.has_value());
  std::string err;
  Fd fd = connect_endpoint(*ep, &err);
  ASSERT_TRUE(fd.valid()) << err;
  const double skewed_now = unix_now_ms() - 10'000.0;
  std::string hello;
  encode_hello(hello, "ts", kMaxVersion, skewed_now);
  ASSERT_TRUE(write_all(fd.get(), hello.data(), hello.size()));
  std::string rbuf, payload;
  FrameType type{};
  ASSERT_TRUE(read_frame(fd.get(), rbuf, type, payload));
  ASSERT_EQ(type, FrameType::HelloOk);
  const auto ok = parse_hello_ok(payload);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->has_timestamp);  // server stamps its clock back

  const auto sys = diag_dominant(64, 21);
  std::string solve;
  encode_solve_v2<double>(solve, 7, sys.a, sys.b, sys.c, sys.d,
                          skewed_now + 8'000.0, 0);
  ASSERT_TRUE(write_all(fd.get(), solve.data(), solve.size()));
  ASSERT_TRUE(read_frame(fd.get(), rbuf, type, payload));
  ASSERT_EQ(type, FrameType::SolveOk)
      << (type == FrameType::SolveErr ? parse_solve_err(payload)->message
                                      : "");
  const auto res = parse_solve_ok<double>(payload);
  ASSERT_TRUE(res.has_value());
  EXPECT_LT(residual(sys, res->x), 1e-8);
  EXPECT_EQ(fx.door->counters().deadline_skew_clamped, 1u);
}

TEST(NetDoorV2, AccurateClockKeepsAbsoluteDeadlines) {
  // Same wire traffic but with an honest Hello timestamp: no clamping,
  // so a genuinely expired absolute deadline is still rejected.
  FrontDoorConfig fcfg;
  fcfg.max_clock_skew_ms = 500.0;
  DoorFixture fx(fcfg);
  ASSERT_TRUE(fx.start());

  Client client;  // net::Client stamps its real clock in the Hello
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  const auto sys = diag_dominant(32, 4);
  ASSERT_TRUE(client.send_solve2<double>(1, sys.a, sys.b, sys.c, sys.d,
                                         -50.0, 0, &err))
      << err;
  WireResult<double> r;
  ASSERT_TRUE(client.recv_result<double>(r, &err)) << err;
  EXPECT_EQ(r.code, ErrorCode::DeadlineExpired)
      << to_string(r.code) << " " << r.error;
  EXPECT_EQ(fx.door->counters().deadline_skew_clamped, 0u);
}

TEST(NetDoorV2, ReusedKeyWithDifferentPayloadRejected) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("unix:" + fx.sock, "ta", &err)) << err;
  const auto sys = diag_dominant(64, 31);
  const std::uint64_t key = client.mint_key();
  ASSERT_TRUE(client.send_solve2<double>(1, sys.a, sys.b, sys.c, sys.d,
                                         0.0, key, &err))
      << err;
  WireResult<double> first;
  ASSERT_TRUE(client.recv_result<double>(first, &err)) << err;
  ASSERT_TRUE(first.ok()) << first.error;

  // The same key fronting different bytes is a client bug; answering
  // with the cached result would silently hand back the wrong solution.
  auto other = sys;
  other.d[0] += 1.0;
  ASSERT_TRUE(client.send_solve2<double>(2, other.a, other.b, other.c,
                                         other.d, 0.0, key, &err))
      << err;
  WireResult<double> r;
  ASSERT_TRUE(client.recv_result<double>(r, &err)) << err;
  EXPECT_EQ(r.code, ErrorCode::KeyReuse)
      << to_string(r.code) << " " << r.error;
  EXPECT_EQ(fx.door->counters().key_reuse, 1u);
  EXPECT_EQ(fx.svc->counters().completed, 1u);  // never re-executed
}

// ------------------------------------------------------- chaos proxy

TEST(NetChaosProxy, TransparentRelayAndDropToggle) {
  DoorFixture fx;
  ASSERT_TRUE(fx.start());

  const std::string psock = unique_sock("chaosproxy");
  ChaosConfig ccfg;
  ccfg.seed = 9;
  ccfg.drop_rate = 1.0;  // armed but dormant until set_enabled(true)
  ChaosProxy proxy("unix:" + psock, "unix:" + fx.sock, ccfg);
  proxy.set_enabled(false);
  std::string err;
  ASSERT_TRUE(proxy.start(&err)) << err;

  // Disabled: a byte-transparent relay — a full solve round-trips.
  Client client;
  ASSERT_TRUE(client.connect("unix:" + psock, "ta", &err)) << err;
  const auto sys = diag_dominant(64, 29);
  const auto r = client.solve<double>(sys.a, sys.b, sys.c, sys.d);
  ASSERT_TRUE(r.ok()) << to_string(r.code) << " " << r.error;
  EXPECT_LT(residual(sys, r.x), 1e-8);
  const auto c0 = proxy.counters();
  EXPECT_GE(c0.connections, 1u);
  EXPECT_GT(c0.bytes_up, 0u);
  EXPECT_GT(c0.bytes_down, 0u);
  EXPECT_EQ(c0.drops, 0u);
  client.close();

  // Enabled with drop_rate 1: the first relayed chunk (the Hello) is
  // swallowed and both sides are torn down, so the handshake dies.
  proxy.set_enabled(true);
  Client doomed;
  EXPECT_FALSE(doomed.connect("unix:" + psock, "ta", &err));
  EXPECT_GE(proxy.counters().drops, 1u);

  // And off again: transparent once more.
  proxy.set_enabled(false);
  Client again;
  ASSERT_TRUE(again.connect("unix:" + psock, "ta", &err)) << err;
  again.close();
  proxy.stop();
  ::unlink(psock.c_str());
}

// ----------------------------------------------------------- overload unit

namespace {

/// One lane under the default overload knobs, explicit time.
struct OverloadRig {
  double gauge() const {
    return mx.gauge(
        telemetry::labeled("net.aimd_limit", {{"tenant", "alpha"}}));
  }

  OverloadConfig cfg;
  telemetry::MetricsRegistry mx;
  Overload ov{cfg, mx};
  LaneOverload lane;
};

}  // namespace

TEST(NetOverload, CodelSojournUnderTargetResetsEpisode) {
  OverloadRig r;  // target 5 ms, interval 100 ms
  EXPECT_FALSE(r.ov.should_shed(r.lane, 10.0, 1.0));   // episode starts
  EXPECT_FALSE(r.ov.should_shed(r.lane, 10.0, 1.05));
  EXPECT_FALSE(r.ov.should_shed(r.lane, 1.0, 1.06));   // under: reset
  EXPECT_EQ(r.lane.first_above_s, 0.0);
  EXPECT_FALSE(r.ov.should_shed(r.lane, 10.0, 1.07));  // episode restarts
  // 120 ms after the first episode began, but 50 ms into this one.
  EXPECT_FALSE(r.ov.should_shed(r.lane, 10.0, 1.12));
}

TEST(NetOverload, CodelOverTargetShorterThanIntervalNeverSheds) {
  OverloadRig r;
  for (int ms = 0; ms < 100; ++ms) {
    EXPECT_FALSE(r.ov.should_shed(r.lane, 50.0, 1.0 + ms * 0.00099)) << ms;
  }
  EXPECT_FALSE(r.lane.dropping);
}

TEST(NetOverload, CodelShedsAfterIntervalThenPacesBySqrtCount) {
  OverloadRig r;
  EXPECT_FALSE(r.ov.should_shed(r.lane, 10.0, 1.0));
  EXPECT_TRUE(r.ov.should_shed(r.lane, 10.0, 1.25));  // a full interval
  EXPECT_EQ(r.lane.drop_count, 1u);
  EXPECT_EQ(r.lane.drop_next_s, 1.25 + 0.1);
  for (std::uint64_t count = 2; count <= 4; ++count) {
    const double next = r.lane.drop_next_s;
    EXPECT_FALSE(r.ov.should_shed(r.lane, 10.0, next - 1e-6));
    EXPECT_TRUE(r.ov.should_shed(r.lane, 10.0, next));
    EXPECT_EQ(r.lane.drop_count, count);
    EXPECT_EQ(r.lane.drop_next_s,
              next + 0.1 / std::sqrt(static_cast<double>(count)));
  }
}

TEST(NetOverload, CodelNonPositiveTargetDisables) {
  for (const double target : {0.0, -1.0}) {
    OverloadRig r;
    r.cfg.codel_target_ms = target;
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(r.ov.should_shed(r.lane, 1e6, 1.0 + i * 0.5));
    }
  }
}

TEST(NetOverload, AimdUninitialisedWindowReadsAsServiceCap) {
  OverloadRig r;
  r.cfg.max_service_inflight = 8;
  EXPECT_EQ(r.lane.window, 0.0);
  EXPECT_EQ(r.ov.limit(r.lane), 8.0);
  r.cfg.max_service_inflight = 12;  // follows a reload
  EXPECT_EQ(r.ov.limit(r.lane), 12.0);
}

TEST(NetOverload, AimdCutMultipliesByBackoffFlooredAtMin) {
  OverloadRig r;
  r.cfg.max_service_inflight = 8;
  r.cfg.aimd_backoff = 0.5;
  r.cfg.aimd_min = 3.0;
  r.ov.congested(r.lane, "alpha");
  EXPECT_EQ(r.ov.limit(r.lane), 4.0);
  EXPECT_EQ(r.gauge(), 4.0);
  r.ov.congested(r.lane, "alpha");
  EXPECT_EQ(r.ov.limit(r.lane), 3.0);  // 2 floored at aimd_min
  r.ov.congested(r.lane, "alpha");
  EXPECT_EQ(r.ov.limit(r.lane), 3.0);
  EXPECT_EQ(r.gauge(), 3.0);
}

TEST(NetOverload, AimdGrowthAddsReciprocalCappedAtServiceCap) {
  OverloadRig r;
  r.cfg.max_service_inflight = 8;
  r.cfg.aimd_backoff = 0.5;
  r.ov.congested(r.lane, "alpha");  // 8 -> 4
  r.ov.completed(r.lane, "alpha");
  EXPECT_EQ(r.ov.limit(r.lane), 4.25);
  EXPECT_EQ(r.gauge(), 4.25);
  for (int i = 0; i < 100; ++i) {
    r.ov.completed(r.lane, "alpha");
    EXPECT_EQ(r.gauge(), r.ov.limit(r.lane));
  }
  EXPECT_EQ(r.ov.limit(r.lane), 8.0);  // capped, never past the cap
}

TEST(NetOverload, AimdLaneAtItsWindowIsIneligible) {
  OverloadRig r;
  r.cfg.max_service_inflight = 8;
  r.cfg.aimd_backoff = 0.25;
  r.ov.congested(r.lane, "alpha");  // window 2
  EXPECT_TRUE(r.ov.eligible(r.lane));
  r.ov.submitted(r.lane);
  EXPECT_TRUE(r.ov.eligible(r.lane));
  r.ov.submitted(r.lane);
  EXPECT_FALSE(r.ov.eligible(r.lane));
  r.ov.finished(r.lane);
  EXPECT_TRUE(r.ov.eligible(r.lane));
}
