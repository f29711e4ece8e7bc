#include "svc/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/retry.hpp"

namespace repro::svc {

namespace {

constexpr int kListenBacklog = 64;

std::string errno_text(const char* call) {
  return std::string(call) + ": " + std::strerror(errno);
}

}  // namespace

repro::Result<SocketAddress> socket_address(
    const std::filesystem::path& socket_path, const std::string& host,
    std::uint16_t port) {
  SocketAddress address;
  if (!socket_path.empty()) {
    auto& un = reinterpret_cast<sockaddr_un&>(address.storage);
    address.name = socket_path.string();
    if (address.name.size() >= sizeof(un.sun_path)) {
      return repro::invalid_argument("socket path too long: " + address.name);
    }
    un.sun_family = AF_UNIX;
    std::memcpy(un.sun_path, address.name.c_str(), address.name.size() + 1);
    address.length = sizeof(sockaddr_un);
    return address;
  }
  auto& in = reinterpret_cast<sockaddr_in&>(address.storage);
  if (::inet_pton(AF_INET, host.c_str(), &in.sin_addr) != 1) {
    return repro::invalid_argument("not an IPv4 address: " + host);
  }
  in.sin_family = AF_INET;
  in.sin_port = htons(port);
  address.length = sizeof(sockaddr_in);
  address.name = host + ":" + std::to_string(port);
  return address;
}

repro::Status Listener::open(const std::filesystem::path& socket_path,
                             const std::string& host, std::uint16_t port) {
  REPRO_ASSIGN_OR_RETURN(const SocketAddress address,
                         socket_address(socket_path, host, port));
  fd_ = ::socket(address.storage.ss_family,
                 SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return repro::internal_error(errno_text("socket"));
  if (socket_path.empty()) {
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    // A stale socket file from a crashed daemon blocks bind; remove it.
    std::error_code ec;
    std::filesystem::remove(socket_path, ec);
  }
  if (::bind(fd_, address.get(), address.length) != 0) {
    return repro::internal_error("bind(" + address.name +
                                 "): " + std::strerror(errno));
  }
  path_ = socket_path;
  if (::listen(fd_, kListenBacklog) != 0) {
    return repro::internal_error(errno_text("listen"));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (socket_path.empty() &&
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  return repro::Status::ok();
}

void Listener::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    path_.clear();
  }
}

std::string peer_name(const sockaddr_storage& addr) {
  if (addr.ss_family == AF_INET) {
    const auto& in = reinterpret_cast<const sockaddr_in&>(addr);
    char buf[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &in.sin_addr, buf, sizeof(buf));
    return std::string("tcp:") + buf + ":" + std::to_string(ntohs(in.sin_port));
  }
  return "unix";
}

repro::Status send_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return repro::unavailable("send: no progress");
    if (io::errno_is_interrupt(errno)) continue;
    return repro::unavailable(std::string("send: ") + std::strerror(errno));
  }
  return repro::Status::ok();
}

}  // namespace repro::svc
