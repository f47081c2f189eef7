#include "tuning/cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/durable_file.hpp"
#include "common/log.hpp"
#include "faults/faults.hpp"

namespace tda::tuning {

namespace {
/// Serialises the read-merge-rename window of save_merged across every
/// cache instance in this process, so two solvers sharing a cache_path
/// cannot lose each other's freshly merged records. (Cross-process
/// writers still race on that window; each still produces a complete,
/// parseable file thanks to the atomic rename.)
std::mutex& file_mutex() {
  static std::mutex mu;
  return mu;
}

// v1: bare header, no integrity check (still readable).
// v2: sealed (common/durable_file.hpp): the header carries an FNV-1a
// checksum of everything after the header line, so any flipped bit
// rejects the whole file, falling back to re-tuning rather than solving
// with corrupted switch points.
constexpr std::string_view kHeaderV1 = "# tridiag_autotune tuning cache v1";
constexpr SealedFormat kFormatV2{
    "# tridiag_autotune tuning cache v2 checksum="};

/// Positive-integer field with explicit rejection of negatives,
/// non-numbers and fractions (istream would happily wrap "-3" into a
/// size_t).
bool parse_count(std::istream& in, std::size_t& out) {
  double v = 0.0;
  if (!(in >> v)) return false;
  if (!std::isfinite(v) || v < 1.0 || v != std::floor(v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Parses a cache file into `out`. Returns the number of records read,
/// or nullopt when the header or checksum rejects the whole file.
/// Malformed records of an intact file are counted, log-warned and
/// skipped.
std::optional<std::size_t> parse(std::string_view contents,
                                 std::map<std::string, CacheEntry>& out) {
  const std::string_view header = contents.substr(0, contents.find('\n'));
  std::optional<std::string_view> records;
  std::string why;
  if (header == kHeaderV1) {
    // Legacy file: readable, but carries no integrity check.
    records = contents.substr(std::min(header.size() + 1, contents.size()));
  } else if (header.starts_with(kFormatV2.header)) {
    records = verify_sealed(kFormatV2, contents, &why);
  } else {
    why = "unrecognized header '" + std::string(header) + "'";
  }
  if (!records) {
    if (!contents.empty()) {
      TDA_WARN("tuning cache: " << why
                                << " — ignoring the whole file (will "
                                   "re-tune)");
    }
    return std::nullopt;
  }

  std::size_t loaded = 0, skipped = 0;
  std::istringstream body{std::string(*records)};
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty() || line[0] == '#') continue;
    // key \t stage1 stage3 thomas variant layout ms
    // Records written before layout was a tuner dimension omit the
    // layout token; the token after `variant` is then the ms itself, so
    // peek at it and default those records to system-major.
    std::istringstream ls(line);
    std::string key, variant, tok;
    CacheEntry e;
    bool ok = static_cast<bool>(std::getline(ls, key, '\t')) &&
              !key.empty() &&
              parse_count(ls, e.points.stage1_target_systems) &&
              parse_count(ls, e.points.stage3_system_size) &&
              parse_count(ls, e.points.thomas_switch) &&
              static_cast<bool>(ls >> variant >> tok) &&
              (variant == "coalesced" || variant == "strided");
    if (ok) {
      if (tok == "system" || tok == "element") {
        e.points.layout = (tok == "element")
                              ? tridiag::BatchLayout::ElementMajor
                              : tridiag::BatchLayout::SystemMajor;
        ok = static_cast<bool>(ls >> e.tuned_ms);
      } else {
        char* end = nullptr;
        e.tuned_ms = std::strtod(tok.c_str(), &end);
        ok = end != nullptr && *end == '\0';
      }
      ok = ok && std::isfinite(e.tuned_ms) && e.tuned_ms >= 0.0;
    }
    if (!ok) {
      ++skipped;
      continue;
    }
    e.points.variant = (variant == "coalesced")
                           ? kernels::LoadVariant::Coalesced
                           : kernels::LoadVariant::Strided;
    out[key] = e;
    ++loaded;
  }
  if (skipped > 0) {
    TDA_WARN("tuning cache: skipped " << skipped << " malformed record(s)");
  }
  return loaded;
}

bool write_atomic(const std::string& path,
                  const std::map<std::string, CacheEntry>& entries) {
  std::ostringstream payload;
  for (const auto& [key, e] : entries) {
    payload << key << '\t' << e.points.stage1_target_systems << ' '
        << e.points.stage3_system_size << ' ' << e.points.thomas_switch
        << ' ' << kernels::to_string(e.points.variant) << ' '
        << tridiag::to_string(e.points.layout) << ' ' << e.tuned_ms
        << '\n';
  }
  std::string why;
  if (!replace_file_atomic(path, seal(kFormatV2, payload.str()), &why)) {
    TDA_WARN("tuning cache: save failed (" << why << ")");
    return false;
  }
  return true;
}
}  // namespace

std::string TuningCache::make_key(const std::string& device_name,
                                  std::size_t elem_bytes, std::size_t m,
                                  std::size_t n) {
  std::ostringstream os;
  os << device_name << "|fp" << elem_bytes * 8 << "|" << m << "x" << n;
  return os.str();
}

std::optional<CacheEntry> TuningCache::find(const std::string& key) const {
  std::lock_guard lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void TuningCache::store(const std::string& key, const CacheEntry& entry) {
  std::lock_guard lk(mu_);
  entries_[key] = entry;
}

std::size_t TuningCache::size() const {
  std::lock_guard lk(mu_);
  return entries_.size();
}

void TuningCache::clear() {
  std::lock_guard lk(mu_);
  entries_.clear();
}

std::map<std::string, CacheEntry> TuningCache::snapshot() const {
  std::lock_guard lk(mu_);
  return entries_;
}

std::size_t TuningCache::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::string contents{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  // Injection point: the CacheCorrupt site flips bits between disk and
  // parser, exercising the checksum rejection below.
  auto& inj = faults::FaultInjector::global();
  if (inj.fire(faults::Site::CacheCorrupt)) {
    faults::corrupt_bytes(contents, inj.config().seed, 8);
    TDA_WARN("faults: corrupted tuning-cache bytes before parsing");
  }
  // Parse into a scratch map: a file that fails the header/checksum
  // check must not leave a partial cache behind.
  std::map<std::string, CacheEntry> parsed;
  const std::optional<std::size_t> loaded = parse(contents, parsed);
  if (!loaded) return 0;
  std::lock_guard lk(mu_);
  for (auto& [key, e] : parsed) entries_[key] = e;
  return *loaded;
}

bool TuningCache::save(const std::string& path) const {
  std::lock_guard lk(mu_);
  return write_atomic(path, entries_);
}

bool TuningCache::save_merged(const std::string& path) const {
  std::lock_guard file_lk(file_mutex());
  std::map<std::string, CacheEntry> merged;
  if (std::ifstream in(path); in) {
    const std::string contents{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
    parse(contents, merged);
  }
  {
    std::lock_guard lk(mu_);
    for (const auto& [key, e] : entries_) merged[key] = e;
  }
  return write_atomic(path, merged);
}

}  // namespace tda::tuning
