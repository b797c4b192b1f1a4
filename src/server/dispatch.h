#ifndef CDBTUNE_SERVER_DISPATCH_H_
#define CDBTUNE_SERVER_DISPATCH_H_

#include <cstdint>
#include <string>

#include "server/tuning_server.h"

namespace cdbtune::server {

namespace net {
class TcpServer;
}  // namespace net

/// Point-in-time telemetry of the TCP front end, scraped by the STATUS verb
/// so an operator can see its connection and back-pressure state.
struct TransportStats {
  /// Connections currently open (accepted and not yet closed).
  size_t connections = 0;
  /// Total connections accepted since start.
  uint64_t accepted = 0;
  /// Requests (or whole connections) turned away with the typed BUSY shed
  /// path — dispatch queue full or the connection budget exhausted.
  uint64_t shed_busy = 0;
  /// Read-pause transitions: how often a connection's reads paused behind
  /// its in-flight request.
  uint64_t read_pauses = 0;
  /// Connections dropped for overflowing their bounded send queue (the
  /// slow-consumer / slow-loris shed path).
  uint64_t sendq_drops = 0;
  /// Frames decoded from / encoded to the wire.
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
};

/// Outcome of one dispatched request: the response payload (the "OK ..." /
/// "ERR ..." grammar of protocol.h) plus whether the request asked the
/// daemon to shut down — the transport decides what shutting down means
/// (the TCP front end unblocks WaitForShutdown; an in-process caller just
/// stops issuing requests).
struct DispatchResult {
  std::string response;
  bool shutdown = false;
};

/// The transport-agnostic command dispatcher: the TCP front end hands its
/// decoded request payloads here, and in-process callers use it directly,
/// so the verb set, argument grammar, and server semantics exist exactly
/// once. Thread-safe for concurrent Dispatch once serving starts;
/// RegisterTransport is wiring-time only (before the front end's Start()).
///
/// Verbs:
///   PING
///   OPEN   [engine=sim|mini] [workload=sysbench_rw|...] [seed=N] [steps=N]
///          [ram_gb=X] [disk_gb=X] [rows=N] [stress_s=X]
///   STEP   id=N [n=K]           — K tuning steps (default 1)
///   ROUND  [n=K]                — K concurrent all-session rounds
///   TRAIN  n=K                  — merge experiences + K gradient steps
///   STATUS [id=N]               — one session, or a summary of all plus
///                                 the TCP front end's connection and
///                                 back-pressure telemetry (TransportStats)
///   BEST_CONFIG id=N            — knobs differing from the engine default
///   CLOSE  id=N                 — finish session, deploy best config
///   SAVE   path=P               — atomic full-state checkpoint at P
///   RESTORE path=P              — rebuild the server from a checkpoint
///                                 (falls back past torn generations)
///   REBUILD [actor_hidden=128-96-64] [critic_embed=N]
///           [critic_hidden=256-64] [seed=N] [train=K]
///                               — warm-start a reshaped agent from the
///                                 experience pool (Table 6, live)
///   SHUTDOWN
class Dispatcher {
 public:
  explicit Dispatcher(TuningServer* server) : server_(server) {}

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Sets the front end whose telemetry STATUS reports. Call before serving
  /// starts (the pointer is read without a lock afterwards).
  void RegisterTransport(const net::TcpServer* tcp) { tcp_ = tcp; }

  /// Executes one request payload and returns the response + shutdown flag.
  DispatchResult Dispatch(const std::string& request) const;

  TuningServer& server() const { return *server_; }

 private:
  TuningServer* server_;  // Not owned.
  const net::TcpServer* tcp_ = nullptr;  // Not owned; null until set.
};

}  // namespace cdbtune::server

#endif  // CDBTUNE_SERVER_DISPATCH_H_
