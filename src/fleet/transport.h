// Fleet transport abstraction (DESIGN.md §13).
//
// The coordinator/agent protocol is pure request/response over JSON documents, so
// the wire is abstracted behind two tiny interfaces and an address scheme. One
// stream-socket backend serves two address families:
//
//   "uds:<path>"  Unix-domain socket — the low-latency local endpoint
//                 tsvd_fleet defaults to.
//
//   "tcp:<host>:<port>[?backlog=N]"
//                 TCP — the endpoint that leaves the machine (DESIGN.md §14).
//                 The host may be a name, an IPv4 literal, or a bracketed IPv6
//                 literal; an empty host binds the wildcard address (server)
//                 and means 127.0.0.1 (client). SO_REUSEADDR on the listener,
//                 TCP_NODELAY on every connection.
//
// Both speak length-prefixed frames (wire.h): a 4-byte big-endian length, then
// that many bytes of compact JSON. A truncated message is a detectable short
// read, and the 64 MiB length guard turns a garbage prefix into a closed
// connection instead of an allocation — before any hello or auth check runs.
// The server runs one thread per accepted connection; a torn frame, a lying
// length, or any socket error costs only that connection, and an unparseable
// payload is answered with a framed {"type":"error"}.
//
// Clients retry connection establishment — agents may start before the coordinator
// listens — but a Call on an established exchange fails rather than retries, so a
// lost coordinator surfaces as an error the caller's retry policy can act on
// (agents re-send idempotently under nonces; see protocol.h). Every transport
// error string names the failing endpoint and carries the errno cause.
//
// A third, in-memory client (MakeInProcessClient) serves agent threads that share
// the coordinator's process: RunCampaign is a coordinator driving such agents.
//
// For deterministic network-fault injection around any client backend, see
// chaos_transport.h.
#ifndef SRC_FLEET_TRANSPORT_H_
#define SRC_FLEET_TRANSPORT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/campaign/json.h"

namespace tsvd::fleet {

// Server-side request handler. Invoked on a transport service thread (possibly
// several concurrently); must be thread-safe and return the response document.
using RequestHandler = std::function<campaign::Json(const campaign::Json& request)>;

class TransportServer {
 public:
  virtual ~TransportServer() = default;

  // Starts serving. Returns false (with `error` set) when the endpoint cannot be
  // created. Handler invocations may begin before Start returns.
  virtual bool Start(RequestHandler handler, std::string* error) = 0;

  // Stops accepting, severs live exchanges, and joins every service thread. No
  // handler invocation is in flight after Stop returns. Idempotent.
  virtual void Stop() = 0;
};

class TransportClient {
 public:
  virtual ~TransportClient() = default;

  // One request/response exchange. Establishes the connection lazily, retrying up
  // to `connect_timeout_ms` (the coordinator may not be listening yet). Returns
  // false with `error` set on failure; the next Call starts a fresh connection.
  virtual bool Call(const campaign::Json& request, campaign::Json* response,
                    std::string* error) = 0;

  virtual void set_connect_timeout_ms(int ms) = 0;
};

// Factories keyed by the address scheme ("uds:" | "tcp:"). Return null with
// `error` set for an unknown scheme or an unusable address.
std::unique_ptr<TransportServer> MakeTransportServer(const std::string& address,
                                                     std::string* error);
std::unique_ptr<TransportClient> MakeTransportClient(const std::string& address,
                                                     std::string* error);

// The in-memory transport, for an agent thread in the coordinator's own process:
// each Call hands the request document to `handler` on the calling thread — no
// socket, no frame, no JSON text — and never fails.
std::unique_ptr<TransportClient> MakeInProcessClient(RequestHandler handler);

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_TRANSPORT_H_
