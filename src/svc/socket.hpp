// Socket plumbing shared by the daemon (server.cpp), the router, the client
// and the CLI's metrics listener, so every endpoint resolves, binds and
// connects one way, every socket gets the same flags and every access log
// the same peer format. Linux only: sockets are created non-blocking and
// close-on-exec in one call, and sends use MSG_NOSIGNAL.
#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>

#include "common/status.hpp"

namespace repro::svc {

/// A resolved stream-socket address: a unix-domain path or an IPv4
/// host:port.
struct SocketAddress {
  sockaddr_storage storage{};
  socklen_t length = 0;
  /// The path, or "host:port" — for error messages.
  std::string name;

  [[nodiscard]] const sockaddr* get() const noexcept {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

/// Resolves the endpoint every option struct names: the unix-domain
/// `socket_path` when it is non-empty, else TCP `host`:`port`. A path too
/// long for sun_path, or a host that is not an IPv4 literal, is
/// INVALID_ARGUMENT.
repro::Result<SocketAddress> socket_address(
    const std::filesystem::path& socket_path, const std::string& host,
    std::uint16_t port);

/// A listening stream socket, non-blocking and close-on-exec. It owns its
/// fd and, when it is a unix-domain listener, the socket file it bound:
/// close() (or destruction) closes the one and removes the other.
class Listener {
 public:
  Listener() = default;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener() { close(); }

  /// Binds and listens on socket_address(socket_path, host, port). A stale
  /// socket file at a unix path is removed first; TCP sets SO_REUSEADDR.
  repro::Status open(const std::filesystem::path& socket_path,
                     const std::string& host, std::uint16_t port);

  /// Stops listening. port() keeps reporting the port that was bound.
  void close() noexcept;

  /// The listening fd; -1 before open() and after close().
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Bound TCP port (0 for a unix-domain listener).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::filesystem::path path_;  ///< the socket file this listener bound
};

/// Access-log peer identity (`repro.svc.access` v1, docs/FORMATS.md):
/// "tcp:<ip>:<port>" for TCP peers, "unix" for unix-domain peers
/// (anonymous by design).
std::string peer_name(const sockaddr_storage& addr);

/// Blocking send of the whole buffer with MSG_NOSIGNAL; EINTR is retried.
/// A zero-byte send is an error (errno would be stale).
repro::Status send_all(int fd, std::span<const std::uint8_t> data);

}  // namespace repro::svc
