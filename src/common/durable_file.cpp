#include "common/durable_file.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace tda {

namespace {

constexpr std::size_t kDigits = 16;

bool fail(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

}  // namespace

std::string fmt_hex64(std::uint64_t v) {
  char buf[kDigits + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return {buf, kDigits};
}

bool parse_hex64(std::string_view digits, std::uint64_t* out) {
  if (digits.size() != kDigits) return false;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, *out, 16);
  return ec == std::errc{} && ptr == end;
}

std::string seal(const SealedFormat& fmt, std::string_view body) {
  std::string out(fmt.header);
  out += fmt_hex64(fnv1a64(body, fmt.fnv_basis));
  out += '\n';
  out += body;
  return out;
}

std::optional<std::string_view> verify_sealed(const SealedFormat& fmt,
                                              std::string_view bytes,
                                              std::string* why) {
  const std::size_t h = fmt.header.size();
  std::uint64_t want = 0;
  if (bytes.size() < h + kDigits + 1 || bytes.substr(0, h) != fmt.header) {
    fail(why, "bad or missing header");
  } else if (!parse_hex64(bytes.substr(h, kDigits), &want) ||
             bytes[h + kDigits] != '\n') {
    fail(why, "unparsable header checksum");
  } else if (const auto body = bytes.substr(h + kDigits + 1);
             fnv1a64(body, fmt.fnv_basis) != want) {
    fail(why, "checksum mismatch");
  } else {
    return body;
  }
  return std::nullopt;
}

bool replace_file_atomic(const std::string& path, std::string_view bytes,
                         std::string* why) {
  // Unique per call and per process: concurrent saves to one path each
  // stage their own file, and every rename lands a whole one.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // close() flushes the buffered tail; a failed flush or close sets
  // failbit, and only a clean close proves the bytes reached the file.
  out.close();
  if (out.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return fail(why, "save to " + path + " failed: " + std::strerror(err));
  }
  return true;
}

}  // namespace tda
