// Small socket helpers for the daemon tier: listener setup, atomic
// snapshot files and the one-shot plaintext HTTP exchange used by the
// ingest engine (ingest/node.hpp) behind both daemons, plus the full
// blocking sends and the stream dialer the agent's upstream ForwardLink
// uses. Nothing here owns an event loop — see common/poll_loop.hpp for
// that half of the daemon plumbing.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace bpsio::net {

/// Full blocking send; false on any error. MSG_NOSIGNAL, EINTR-retrying.
bool send_all(int fd, const char* data, std::size_t size);

/// Write `text` to `path` atomically (tmp file + rename) so a concurrent
/// reader never sees a torn snapshot.
bool write_file_atomic(const std::string& path, const std::string& text);

/// Bind + listen a nonblocking, close-on-exec Unix stream socket at `path`,
/// replacing a stale socket file from a dead daemon. Returns the fd, or -1
/// on failure (path too long, bind/listen error).
int bind_unix_listener(const std::string& path, int backlog);

/// Bind + listen a nonblocking, close-on-exec TCP socket on 127.0.0.1:port
/// (0 = ephemeral). On success returns the fd and stores the bound port in
/// *bound_port; returns -1 on failure.
int bind_loopback_listener(int port, int backlog, int* bound_port);

/// Connect a blocking stream socket to `target`: "host:port" dials TCP
/// (numeric IPv4 host), anything else is a Unix-domain socket path. Returns
/// the connected fd or -1.
int connect_stream(const std::string& target);

/// Answer one tiny plaintext HTTP exchange on `fd` and close it. GET
/// /metrics (or /) answers metrics_body(); GET /healthz answers "ok";
/// anything else is a 404. Blocking with a 2 s receive timeout — responses
/// are a few kilobytes to a local scraper.
void serve_plain_http(int fd, const std::function<std::string()>& metrics_body);

}  // namespace bpsio::net
