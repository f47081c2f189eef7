#include "ops/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/durable_file.hpp"
#include "faults/faults.hpp"

namespace tda::ops {

namespace {

constexpr SealedFormat kFormat{kSnapshotHeader, kFnv64LegacyBasis};

/// %-escapes bytes that would break the tab/newline framing (or an
/// unescape pass): anything outside printable ASCII, '%' itself, tab,
/// space. Deterministic, so escaped output is byte-stable.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (c > 32 && c < 127 && c != '%') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out.append(buf);
    }
  }
  return out;
}

bool unescape(const std::string& s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out->push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) return false;
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

/// C99 hex-float formatting: exact round trip, one canonical spelling
/// per value on a given platform — the property the byte-stability
/// test leans on.
std::string fmt_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

bool parse_f64(const std::string& tok, double* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(tok.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_u64(const std::string& tok, std::uint64_t* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(tok.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

bool fail(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

}  // namespace

std::string serialize_snapshot(const ServerState& state) {
  std::string body;
  body += "meta\t" + fmt_u64(state.generation) + "\t" +
          fmt_f64(state.saved_unix_ms) + "\n";
  const auto& ds = state.dedup_stats;
  body += "stats\t" + fmt_u64(ds.inserts) + "\t" + fmt_u64(ds.hits) + "\t" +
          fmt_u64(ds.joins) + "\t" + fmt_u64(ds.evictions) + "\t" +
          fmt_u64(ds.duplicate_executions) + "\n";

  std::vector<const TenantState*> tenants;
  tenants.reserve(state.tenants.size());
  for (const auto& t : state.tenants) tenants.push_back(&t);
  std::sort(tenants.begin(), tenants.end(),
            [](const TenantState* a, const TenantState* b) {
              return a->cfg.name < b->cfg.name;
            });
  for (const TenantState* t : tenants) {
    const net::TenantConfig& c = t->cfg;
    body += "tenant\t" + escape(c.name) + "\t" + escape(c.token) + "\t" +
            fmt_f64(c.weight) + "\t" + fmt_u64(c.max_inflight) + "\t" +
            fmt_u64(c.max_inflight_bytes) + "\t" +
            fmt_f64(c.requests_per_sec) + "\t" + fmt_f64(c.burst) + "\t" +
            fmt_f64(c.default_deadline_ms) + "\t" +
            (t->disabled ? "1" : "0") + "\t" + fmt_f64(t->aimd_limit) +
            "\t" + fmt_u64(t->admitted) + "\t" + fmt_u64(t->rejected) + "\n";
  }

  std::vector<const DedupEntryState*> entries;
  entries.reserve(state.entries.size());
  for (const auto& e : state.entries) entries.push_back(&e);
  std::sort(entries.begin(), entries.end(),
            [](const DedupEntryState* a, const DedupEntryState* b) {
              if (a->tenant != b->tenant) return a->tenant < b->tenant;
              return a->key < b->key;
            });
  for (const DedupEntryState* e : entries) {
    body += "entry\t" + escape(e->tenant) + "\t" + fmt_hex64(e->key) + "\t" +
            fmt_hex64(e->payload_hash) + "\t" +
            std::to_string(e->status) + "\t" +
            (e->fallback_used ? "1" : "0") + "\t" + fmt_f64(e->solve_ms) +
            "\t" + fmt_f64(e->wait_ms) + "\t" + fmt_u64(e->batch_systems) +
            "\t" + fmt_u64(e->retries) + "\t" + fmt_u64(e->chunks) + "\t" +
            escape(e->device) + "\t" + escape(e->error) + "\t" +
            fmt_u64(e->x.size());
    for (const double v : e->x) {
      body += '\t';
      body += fmt_f64(v);
    }
    body += "\n";
  }

  return seal(kFormat, body);
}

bool parse_snapshot(const std::string& bytes, ServerState* out,
                    std::string* why) {
  const auto body = verify_sealed(kFormat, bytes, why);
  if (!body) return false;

  ServerState scratch;
  bool saw_meta = false;
  std::istringstream in{std::string(*body)};
  std::string line;
  while (std::getline(in, line)) {
    const auto f = split_tabs(line);
    if (f[0] == "meta") {
      if (f.size() != 3 || !parse_u64(f[1], &scratch.generation) ||
          !parse_f64(f[2], &scratch.saved_unix_ms)) {
        return fail(why, "bad meta record");
      }
      saw_meta = true;
    } else if (f[0] == "stats") {
      auto& ds = scratch.dedup_stats;
      if (f.size() != 6 || !parse_u64(f[1], &ds.inserts) ||
          !parse_u64(f[2], &ds.hits) || !parse_u64(f[3], &ds.joins) ||
          !parse_u64(f[4], &ds.evictions) ||
          !parse_u64(f[5], &ds.duplicate_executions)) {
        return fail(why, "bad stats record");
      }
    } else if (f[0] == "tenant") {
      TenantState t;
      net::TenantConfig& c = t.cfg;
      std::uint64_t max_if = 0, max_ib = 0, adm = 0, rej = 0;
      if (f.size() != 13 || !unescape(f[1], &c.name) ||
          !unescape(f[2], &c.token) || !parse_f64(f[3], &c.weight) ||
          !parse_u64(f[4], &max_if) || !parse_u64(f[5], &max_ib) ||
          !parse_f64(f[6], &c.requests_per_sec) ||
          !parse_f64(f[7], &c.burst) ||
          !parse_f64(f[8], &c.default_deadline_ms) ||
          (f[9] != "0" && f[9] != "1") ||
          !parse_f64(f[10], &t.aimd_limit) || !parse_u64(f[11], &adm) ||
          !parse_u64(f[12], &rej)) {
        return fail(why, "bad tenant record");
      }
      c.max_inflight = static_cast<std::size_t>(max_if);
      c.max_inflight_bytes = static_cast<std::size_t>(max_ib);
      t.disabled = f[9] == "1";
      t.admitted = adm;
      t.rejected = rej;
      scratch.tenants.push_back(std::move(t));
    } else if (f[0] == "entry") {
      DedupEntryState e;
      std::uint64_t status = 0, n = 0;
      if (f.size() < 14 || !unescape(f[1], &e.tenant) ||
          !parse_hex64(f[2], &e.key) ||
          !parse_hex64(f[3], &e.payload_hash) ||
          !parse_u64(f[4], &status) || (f[5] != "0" && f[5] != "1") ||
          !parse_f64(f[6], &e.solve_ms) || !parse_f64(f[7], &e.wait_ms) ||
          !parse_u64(f[8], &e.batch_systems) ||
          !parse_u64(f[9], &e.retries) || !parse_u64(f[10], &e.chunks) ||
          !unescape(f[11], &e.device) || !unescape(f[12], &e.error) ||
          !parse_u64(f[13], &n) || f.size() != 14 + n) {
        return fail(why, "bad entry record");
      }
      e.status = static_cast<int>(status);
      e.fallback_used = f[5] == "1";
      e.x.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (!parse_f64(f[14 + i], &e.x[i])) {
          return fail(why, "bad entry solution value");
        }
      }
      scratch.entries.push_back(std::move(e));
    } else {
      return fail(why, "unknown record kind: " + f[0]);
    }
  }
  if (!saw_meta) return fail(why, "missing meta record");
  *out = std::move(scratch);
  return true;
}

bool save_snapshot(const std::string& path, const ServerState& state,
                   std::string* why) {
  return replace_file_atomic(path, serialize_snapshot(state), why);
}

bool load_snapshot(const std::string& path, ServerState* out,
                   std::string* why) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(why, "cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Same corruption hook as the tuning cache: lets tests and TDA_FAULTS
  // flip bits between disk and parser to prove whole-file rejection.
  auto& inj = faults::FaultInjector::global();
  if (inj.fire(faults::Site::CacheCorrupt)) {
    faults::corrupt_bytes(bytes, inj.config().seed, 4);
  }
  return parse_snapshot(bytes, out, why);
}

}  // namespace tda::ops
