#include "ops/admin.hpp"

#include <string_view>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/le_codec.hpp"

namespace tda::ops {

namespace {

using namespace le;

/// Offset of the checksum field = length of the header prefix it covers.
constexpr std::size_t kChecksumAt = 12;

/// Blocking full read; false on EOF/error.
bool read_exact(int fd, char* buf, std::size_t len) {
  while (len > 0) {
    const long n = net::read_some(fd, buf, len);
    if (n <= 0) return false;
    buf += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool fail(std::string* err, const char* msg) {
  if (err != nullptr) *err = msg;
  return false;
}

}  // namespace

const char* to_string(AdminCmd c) {
  switch (c) {
    case AdminCmd::Health: return "health";
    case AdminCmd::Ready: return "ready";
    case AdminCmd::Stats: return "stats";
    case AdminCmd::Reload: return "reload";
    case AdminCmd::Drain: return "drain";
    case AdminCmd::Handoff: return "handoff";
    case AdminCmd::Snapshot: return "snapshot";
    case AdminCmd::Ok: return "ok";
    case AdminCmd::Err: return "err";
  }
  return "unknown";
}

void encode_admin(std::string& out, AdminCmd cmd,
                  const std::string& payload) {
  const std::size_t at = out.size();
  put_u32(out, kAdminMagic);
  put_u16(out, kAdminVersion);
  put_u16(out, static_cast<std::uint16_t>(cmd));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, frame_checksum(std::string_view(out).substr(at, kChecksumAt),
                              payload));
  out += payload;
}

bool read_admin_frame(int fd, AdminFrame* out, std::string* err) {
  char buf[kAdminHeaderSize];
  if (!read_exact(fd, buf, sizeof(buf)))
    return fail(err, "admin: short header read");
  const std::string_view header(buf, sizeof(buf));
  if (get_u32(header, 0) != kAdminMagic) return fail(err, "admin: bad magic");
  if (get_u16(header, 4) != kAdminVersion)
    return fail(err, "admin: unsupported version");
  const std::uint16_t cmd = get_u16(header, 6);
  const std::uint32_t len = get_u32(header, 8);
  if (len > kAdminMaxPayload) return fail(err, "admin: oversized payload");
  std::string payload(len, '\0');
  if (len > 0 && !read_exact(fd, payload.data(), len))
    return fail(err, "admin: short payload read");
  if (frame_checksum(header.substr(0, kChecksumAt), payload) !=
      get_u32(header, kChecksumAt)) {
    return fail(err, "admin: checksum mismatch");
  }
  out->cmd = static_cast<AdminCmd>(cmd);
  out->payload = std::move(payload);
  return true;
}

bool admin_request(const std::string& path, AdminCmd cmd,
                   const std::string& payload, std::string* reply,
                   std::string* err) {
  net::Endpoint ep;
  ep.is_unix = true;
  ep.path = path;
  net::Fd fd = net::connect_endpoint(ep, err);
  if (!fd.valid()) return false;
  std::string out;
  encode_admin(out, cmd, payload);
  if (!net::write_all(fd.get(), out.data(), out.size()))
    return fail(err, "admin: send failed");
  AdminFrame resp;
  if (!read_admin_frame(fd.get(), &resp, err)) return false;
  if (reply != nullptr) *reply = resp.payload;
  return resp.cmd == AdminCmd::Ok;
}

bool AdminServer::start(const std::string& path, Handler handler,
                        std::string* err) {
  if (running_.load()) return fail(err, "admin: already running");
  net::Endpoint ep;
  ep.is_unix = true;
  ep.path = path;
  listener_ = net::listen_endpoint(ep, 16, err);
  if (!listener_.valid()) return false;
  path_ = path;
  handler_ = std::move(handler);
  running_.store(true);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void AdminServer::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  listener_.reset();
  if (!path_.empty()) ::unlink(path_.c_str());
}

void AdminServer::loop() {
  while (running_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listener_.get();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 50);
    if (rc <= 0) continue;
    net::Fd conn(::accept(listener_.get(), nullptr, nullptr));
    if (!conn.valid()) continue;
    AdminFrame frame;
    std::string err;
    std::string out;
    if (!read_admin_frame(conn.get(), &frame, &err)) {
      encode_admin(out, AdminCmd::Err, err);
      (void)net::write_all(conn.get(), out.data(), out.size());
      continue;
    }
    std::pair<bool, std::string> result{false, "no handler"};
    if (handler_) result = handler_(frame.cmd, frame.payload);
    encode_admin(out, result.first ? AdminCmd::Ok : AdminCmd::Err,
                 result.second);
    (void)net::write_all(conn.get(), out.data(), out.size());
  }
}

}  // namespace tda::ops
