// Protocol fuzz harness (docs/NET.md): deterministic seeded mutation of
// valid frames — bit flips, truncations, extensions, splices — driven
// through decode_frame and the payload parsers. The contract under
// test:
//
//   * the decoder never crashes or over-reads (ASan/UBSan enforce this
//     in the sanitize CI job, which runs the full ctest suite);
//   * a mutant is only ever accepted when the bytes the decoder
//     consumed are literally a valid original frame prefix-intact —
//     "zero accepted-corrupt frames". The FNV-1a checksum makes this
//     provable: every hash step is a bijection of the state, so any
//     single corrupted byte in the covered range changes the sum;
//   * NeedMore is returned only while the declared bytes have not all
//     arrived, so a mutant never leaves a connection waiting on a
//     frame that is already complete.
//
// Everything is seeded; a failure reproduces from the iteration index.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/le_codec.hpp"
#include "net/dedup.hpp"
#include "net/protocol.hpp"

using namespace tda::net;

namespace {

/// splitmix64 — tiny, seeded, good enough to steer mutations.
class FuzzRng {
 public:
  explicit FuzzRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

std::vector<std::string> build_corpus() {
  std::vector<std::string> corpus;
  {
    std::string f;
    encode_hello(f, "tenant-token-abcdef");
    corpus.push_back(f);
  }
  {
    std::string f;
    encode_hello_ok(f, "alpha");
    corpus.push_back(f);
  }
  {
    std::string f;
    encode_goodbye(f);
    corpus.push_back(f);
  }
  {
    std::string f;
    encode_solve_err(f, 31337, ErrorCode::QuotaRate, "over the limit");
    corpus.push_back(f);
  }
  for (const std::size_t n : {1u, 7u, 64u}) {
    std::vector<float> vf(n, 1.5f);
    std::vector<double> vd(n, 2.5);
    std::string f;
    encode_solve<float>(f, 11, vf, vf, vf, vf, 4.0);
    corpus.push_back(f);
    f.clear();
    encode_solve<double>(f, 12, vd, vd, vd, vd, 0.0);
    corpus.push_back(f);
    f.clear();
    encode_solve_ok<float>(f, 13, vf, 0x1234, 1.0, 0.5, false);
    corpus.push_back(f);
    f.clear();
    encode_solve_ok<double>(f, 14, vd, 0x5678, 2.0, 0.25, true);
    corpus.push_back(f);
    f.clear();
    encode_solve_v2<float>(f, 15, vf, vf, vf, vf, 1.7e12, 0xA5A5A5A5ull);
    corpus.push_back(f);
    f.clear();
    encode_solve_v2<double>(f, 16, vd, vd, vd, vd, 0.0, 0x5A5A5A5Aull);
    corpus.push_back(f);
  }
  return corpus;
}

std::string mutate(const std::string& original, FuzzRng& rng) {
  std::string m = original;
  switch (rng.below(4)) {
    case 0: {  // flip 1..8 bits
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t i = 0; i < flips && !m.empty(); ++i) {
        const std::size_t at = rng.below(m.size());
        m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
      }
      break;
    }
    case 1:  // truncate
      m.resize(rng.below(m.size() + 1));
      break;
    case 2: {  // extend with junk
      const std::size_t extra = 1 + rng.below(64);
      for (std::size_t i = 0; i < extra; ++i) {
        m.push_back(static_cast<char>(rng.next() & 0xFF));
      }
      break;
    }
    default: {  // splice: overwrite a random run with random bytes
      if (!m.empty()) {
        const std::size_t at = rng.below(m.size());
        const std::size_t len =
            1 + rng.below(std::min<std::size_t>(m.size() - at, 16));
        for (std::size_t i = 0; i < len; ++i) {
          m[at + i] = static_cast<char>(rng.next() & 0xFF);
        }
      }
      break;
    }
  }
  return m;
}

/// Feeds a payload through every parser; none may crash (bounds checks
/// are the assertion — ASan turns an over-read into a test failure).
void exercise_parsers(const std::string& payload) {
  (void)parse_hello(payload);
  (void)parse_hello_ok(payload);
  (void)parse_solve_err(payload);
  (void)solve_dtype(payload);
  (void)parse_solve<float>(payload);
  (void)parse_solve<double>(payload);
  (void)parse_solve<float>(payload, kVersion2);
  (void)parse_solve<double>(payload, kVersion2);
  (void)parse_solve_ok<float>(payload);
  (void)parse_solve_ok<double>(payload);
}

}  // namespace

TEST(NetFuzz, TenThousandMutatedFramesNeverAcceptedCorrupt) {
  const auto corpus = build_corpus();
  FuzzRng rng(0xF00DFACEu);
  constexpr int kIterations = 12000;
  int accepted_intact = 0, rejected = 0, need_more = 0;

  for (int i = 0; i < kIterations; ++i) {
    const std::string& original = corpus[rng.below(corpus.size())];
    const std::string m = mutate(original, rng);
    const DecodeResult r = decode_frame(m, std::size_t{1} << 20);
    switch (r.status) {
      case DecodeStatus::Ok: {
        // Acceptance is only legal when the consumed bytes are exactly
        // the original frame (mutations past the frame end are the next
        // frame's problem, not corruption of this one).
        ASSERT_EQ(r.consumed, original.size()) << "iteration " << i;
        ASSERT_LE(r.consumed, m.size()) << "iteration " << i;
        ASSERT_EQ(m.compare(0, r.consumed, original), 0)
            << "iteration " << i << ": decoder accepted corrupted bytes";
        exercise_parsers(std::string(r.frame.payload));
        ++accepted_intact;
        break;
      }
      case DecodeStatus::Corrupt:
        ++rejected;
        break;
      case DecodeStatus::NeedMore:
        // NeedMore only means "the declared bytes are not here yet":
        // less than a header, or less than header + its payload_len.
        // Any other wait would hold a connection open on a frame that
        // can never complete.
        if (m.size() >= kHeaderSize) {
          ASSERT_LT(m.size(), kHeaderSize + tda::le::get_u32(m, 16))
              << "iteration " << i << ": NeedMore on a complete frame";
        }
        ++need_more;
        break;
    }
  }
  // Sanity on the mix: extensions leave the frame intact (~1/4 of
  // mutations), truncations mostly NeedMore, flips/splices mostly
  // Corrupt. All three classes must actually occur.
  EXPECT_GT(accepted_intact, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 4);
  EXPECT_GT(need_more, kIterations / 20);
}

TEST(NetFuzz, RandomGarbageNeverDecodesAndParsersNeverOverRead) {
  FuzzRng rng(0xDEADBEEFu);
  for (int i = 0; i < 4000; ++i) {
    std::string junk(rng.below(512), '\0');
    for (auto& ch : junk) ch = static_cast<char>(rng.next() & 0xFF);
    const DecodeResult r = decode_frame(junk, std::size_t{1} << 20);
    // A random 4-byte magic + matching checksum is a ~2^-64 accident;
    // treat acceptance as a bug outright.
    ASSERT_NE(r.status, DecodeStatus::Ok) << "iteration " << i;
    exercise_parsers(junk);
  }
}

TEST(NetFuzz, StreamReassemblySurvivesArbitraryChunking) {
  // A valid multi-frame stream fed one random-sized chunk at a time
  // must produce exactly the original frames — the NeedMore path never
  // loses sync.
  const auto corpus = build_corpus();
  std::string stream;
  for (const auto& f : corpus) stream += f;
  FuzzRng rng(0xC0FFEEu);
  for (int round = 0; round < 50; ++round) {
    std::string rbuf;
    std::size_t fed = 0, decoded = 0;
    while (decoded < corpus.size()) {
      const DecodeResult r = decode_frame(rbuf, std::size_t{1} << 20);
      if (r.status == DecodeStatus::Ok) {
        ASSERT_EQ(rbuf.compare(0, r.consumed, corpus[decoded]), 0);
        rbuf.erase(0, r.consumed);
        ++decoded;
        continue;
      }
      ASSERT_EQ(r.status, DecodeStatus::NeedMore);
      ASSERT_LT(fed, stream.size());
      const std::size_t chunk =
          std::min(stream.size() - fed, 1 + rng.below(97));
      rbuf.append(stream, fed, chunk);
      fed += chunk;
    }
  }
}

TEST(NetFuzzV2, MutatedDeadlineOrKeyFieldsNeverDecode) {
  // The v2 reliability fields — absolute deadline and idempotency key —
  // sit at payload offsets [8, 24). A flipped bit anywhere in them must
  // fail the frame checksum: a corrupted deadline silently shifted into
  // the future, or a corrupted key colliding with another request's
  // cache entry, would be a correctness hole rather than a parse error.
  std::vector<double> vd(16, 2.5);
  std::string frame;
  encode_solve_v2<double>(frame, 7, vd, vd, vd, vd, 1.6e12, 0x0123456789ull);
  for (std::size_t off = kHeaderSize + 8; off < kHeaderSize + 24; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string m = frame;
      m[off] = static_cast<char>(m[off] ^ (1 << bit));
      const DecodeResult r = decode_frame(m, std::size_t{1} << 20);
      EXPECT_NE(r.status, DecodeStatus::Ok)
          << "payload byte " << off - kHeaderSize << " bit " << bit;
    }
  }
}

TEST(NetFuzzV2, VersionFlipsNeverReinterpretAcrossVersions) {
  // A v2 frame whose header version byte is rewritten to 1 (or a v1
  // frame rewritten to 2) must be rejected by the checksum, never
  // parsed under the wrong layout — the version field is covered.
  std::vector<double> vd(8, 1.25);
  std::string v2;
  encode_solve_v2<double>(v2, 1, vd, vd, vd, vd, 9.9e11, 42);
  std::string v1;
  encode_solve<double>(v1, 1, vd, vd, vd, vd, 3.0);
  for (std::string* f : {&v2, &v1}) {
    for (int claim = 0; claim <= 3; ++claim) {
      std::string m = *f;
      if (static_cast<unsigned char>(m[4]) == claim) continue;
      m[4] = static_cast<char>(claim);
      const DecodeResult r = decode_frame(m, std::size_t{1} << 20);
      EXPECT_NE(r.status, DecodeStatus::Ok) << "claimed version " << claim;
    }
  }
}

TEST(NetFuzzV2, NegotiationDowngradeRoundTripsThroughHandshakeFrames) {
  // Whatever a peer advertises — legacy 0, current, or from the future
  // — the negotiated result survives an encode/parse round trip of both
  // handshake frames and is a version this build actually speaks.
  for (const std::uint16_t adv :
       {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{2},
        std::uint16_t{7}, std::uint16_t{0xFFFF}}) {
    std::string hello;
    encode_hello(hello, "tok", adv);
    auto hr = decode_frame(hello, 1 << 20);
    ASSERT_EQ(hr.status, DecodeStatus::Ok);
    const auto h = parse_hello(hr.frame.payload);
    ASSERT_TRUE(h.has_value());
    ASSERT_EQ(h->advertised_version, adv);

    const std::uint16_t negotiated = negotiate_version(h->advertised_version);
    ASSERT_GE(negotiated, kVersion);
    ASSERT_LE(negotiated, kMaxVersion);
    // Negotiation is idempotent: agreeing on a version and re-offering
    // it negotiates to itself.
    ASSERT_EQ(negotiate_version(negotiated), negotiated);

    std::string ok;
    encode_hello_ok(ok, "tenant", negotiated);
    auto orr = decode_frame(ok, 1 << 20);
    ASSERT_EQ(orr.status, DecodeStatus::Ok);
    const auto o = parse_hello_ok(orr.frame.payload);
    ASSERT_TRUE(o.has_value());
    ASSERT_EQ(o->negotiated_version, negotiated);
  }
}

TEST(NetFuzzV2, DedupCacheStormNeverServesAWrongKeyedResult) {
  // Random storm of begins/completes/abandons/sweeps across a handful
  // of tenants and a small key space, with caps tight enough to force
  // constant eviction. The invariant: a lookup or Completed begin only
  // ever exposes the response completed under exactly that
  // (tenant, key) — eviction may forget results, never mix them up.
  struct Tagged {
    std::uint64_t tenant = 0;
    std::uint64_t key = 0;
    std::uint64_t nonce = 0;
  };
  DedupConfig cfg;
  cfg.ttl_ms = 40.0;
  // Entry cap above the key space (in-flight entries are un-evictable
  // and dominate the storm); the byte cap is what bites, keeping only a
  // handful of completed results alive at a time.
  cfg.max_entries = 120;
  cfg.max_bytes = 512;
  DedupCache<Tagged> cache(cfg);
  using State = DedupCache<Tagged>::State;

  FuzzRng rng(0xB0A710ADu);
  double now = 0.0;
  std::uint64_t nonce = 0;
  // Keys whose "execution" is still running — resolved (completed or
  // abandoned) by later iterations, the way drain_done resolves work
  // the pump marked executed earlier.
  // The canonical payload fingerprint for a (tenant, key): every
  // well-behaved resend in the storm carries exactly this hash.
  const auto hash_of = [](std::uint64_t tenant, std::uint64_t key) {
    return tenant ^ (key << 32) ^ 0x9E3779B97F4A7C15ull;
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending;
  const auto pop_pending = [&] {
    const std::size_t at = rng.below(pending.size());
    const auto tk = pending[at];
    pending[at] = pending.back();
    pending.pop_back();
    return tk;
  };
  for (int i = 0; i < 20000; ++i) {
    now += 0.25;
    const auto check = [&](const Tagged& got, std::uint64_t tenant,
                           std::uint64_t key) {
      ASSERT_EQ(got.tenant, tenant) << "iteration " << i;
      ASSERT_EQ(got.key, key) << "iteration " << i;
    };
    switch (rng.below(10)) {
      case 0:
        cache.sweep(now);
        break;
      case 1: {  // an execution finishes with a cacheable result
        if (pending.empty()) break;
        const auto [t, k] = pop_pending();
        cache.complete(t, k, Tagged{t, k, ++nonce}, 32 + rng.below(64),
                       now);
        // The fresh completion may already have been evicted under the
        // tight caps — losing a result is legal, mislabeling one isn't.
        if (const Tagged* hit = cache.lookup(t, k)) check(*hit, t, k);
        break;
      }
      case 2: {  // an execution ends retryable → the key is forgotten
        if (pending.empty()) break;
        const auto [t, k] = pop_pending();
        (void)cache.abandon(t, k);
        break;
      }
      case 3: {  // a corrupted resend: same key, different payload
        const std::uint64_t tenant = 1 + rng.below(4);
        const std::uint64_t key = 1 + rng.below(24);
        const State st =
            cache.begin(tenant, key, ~hash_of(tenant, key), now);
        // An existing key must answer Mismatch (KeyReuse on the wire),
        // never serve the original payload's result for foreign bytes.
        // A miss inserts the foreign hash as a legitimate first use —
        // abandon it so the canonical sends keep their key space.
        if (st == State::Fresh) (void)cache.abandon(tenant, key);
        break;
      }
      default: {  // a (re)send arrives, byte-identical to the original
        const std::uint64_t tenant = 1 + rng.below(4);
        const std::uint64_t key = 1 + rng.below(24);
        const State st =
            cache.begin(tenant, key, hash_of(tenant, key), now);
        ASSERT_NE(st, State::Mismatch)
            << "iteration " << i << ": canonical payload misjudged";
        if (st == State::Completed) {
          const Tagged* hit = cache.lookup(tenant, key);
          ASSERT_NE(hit, nullptr) << "iteration " << i;
          check(*hit, tenant, key);
          break;
        }
        if (st == State::InFlight) {
          // A resend overtaking its original: parks, never executes.
          cache.add_waiter(tenant, key, {rng.next(), rng.next()});
          break;
        }
        // Fresh: execute exactly once.
        ASSERT_EQ(cache.mark_executed(tenant, key), 0u)
            << "iteration " << i << ": fresh key was already executed";
        pending.emplace_back(tenant, key);
        break;
      }
    }
    // The whole key space is 4 tenants x 24 keys.
    ASSERT_LE(cache.stats().entries, 4u * 24u) << "iteration " << i;
  }
  // The storm must actually have exercised the interesting paths.
  const auto& st = cache.stats();
  EXPECT_GT(st.hits, 100u);
  EXPECT_GT(st.joins, 100u);
  EXPECT_GT(st.evictions, 100u);
  EXPECT_GT(st.mismatches, 100u);
  EXPECT_EQ(st.duplicate_executions, 0u);
}
