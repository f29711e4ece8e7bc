// Socket plumbing shared by the daemon (server.cpp), the router, the client
// and the CLI's metrics listener, so every socket gets the same flags and
// every access log the same peer format.
#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <span>
#include <string>

#include "common/status.hpp"

// Platforms without MSG_NOSIGNAL (macOS) rely on a process-wide SIGPIPE
// ignore (install_signal_handlers); where the flag exists it turns a
// vanished peer into a plain EPIPE error instead of a fatal signal.
#if !defined(MSG_NOSIGNAL)
#define MSG_NOSIGNAL 0
#endif

namespace repro::svc {

/// O_NONBLOCK plus FD_CLOEXEC, so no listener or connection leaks into a
/// child across exec.
repro::Status set_nonblocking(int fd);

/// Access-log peer identity (`repro.svc.access` v1, docs/FORMATS.md):
/// "tcp:<ip>:<port>" for TCP peers, "unix" for unix-domain peers
/// (anonymous by design).
std::string peer_name(const sockaddr_storage& addr);

/// Blocking send of the whole buffer with MSG_NOSIGNAL; EINTR is retried.
/// A zero-byte send is an error (errno would be stale).
repro::Status send_all(int fd, std::span<const std::uint8_t> data);

}  // namespace repro::svc
