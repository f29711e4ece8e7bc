#include "svc/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>

#include <cerrno>
#include <cstring>

#include "io/retry.hpp"

namespace repro::svc {

repro::Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 ||
      ::fcntl(fd, F_SETFD, FD_CLOEXEC) < 0) {
    return repro::internal_error(std::string("fcntl: ") +
                                 std::strerror(errno));
  }
  return repro::Status::ok();
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
