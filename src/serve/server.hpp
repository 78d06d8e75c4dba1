#pragma once
// `adhocsim serve`: a long-running campaign daemon on a local AF_UNIX
// stream socket. Clients connect, send one JSON request per line, and
// read JSONL responses; several clients may be connected at once (one
// handler thread per connection; the shared ResultCache and the
// campaign engine are thread-safe).
//
// Response lines, per request type (keys sorted within each line):
//
//   submit ->
//     {"cache_version":"V","campaign":"fig2","points":P,"request":"r-1",
//      "runs":N,"seeds":S,"type":"submit_start"}
//     {"event":...}                 engine telemetry for cache misses,
//                                   streamed live (campaign/telemetry.hpp
//                                   schema — lines with an "event" key)
//     {"cached":0|1,"params":{...},"point":p,"record":{...},"run":i,
//      "seed":s,"type":"run"}       one per run, expansion order; "record"
//                                   embeds the record_json payload verbatim,
//                                   so apart from the "cached" flag the
//                                   line is byte-identical warm vs cold.
//                                   Run/scorecard lines deliberately carry
//                                   NO request id — they are byte-stable
//                                   artifacts, and only control lines may
//                                   vary per request.
//     {"bench":"serve_fig2","scorecard":"<json-escaped fidelity doc>",
//      "type":"scorecard"}          unescaping yields the exact
//                                   Scorecard::to_json() bytes
//     {"cache_hits":H,"cache_misses":M,"deduped":D,"errors":E,"ok":K,
//      "request":"r-1","type":"submit_end","wall_ms":W}
//   stats    -> {"cache":{"bytes":...,"entries":...,"evictions":...,
//                "hits":...,"invalidated":...,"misses":...,"stores":...},
//                "serve":{"journey_dropped":J,"trace_dropped":T},
//                "type":"stats","version":"V"}
//                ("serve": cumulative observability-loss counters —
//                TraceSink ring drops and journey-record ring overwrites)
//   metrics  -> {"format":"json","metrics":{...},"request":"r-2",
//                "type":"metrics"}  "metrics" embeds the raw
//                                   ServiceMetrics::snapshot_json object
//             | {"format":"prometheus","request":"r-2",
//                "text":"<json-escaped exposition>","type":"metrics"}
//                when the request carries {"format":"prometheus"}
//   debug    -> {"flight":"<json-escaped flight-recorder JSONL dump>",
//                "request":"r-3","type":"debug"}
//   ping     -> {"type":"pong","version":"V"}
//   shutdown -> {"type":"bye"} and the daemon exits its accept loop
//   (errors) -> {"message":"...","request":"r-4","type":"error"}
//
// Every request line gets an id ("r-N") and a trace; the submit_start,
// submit_end, metrics, debug and error lines always carry that id.
//
// Malformed requests produce an error line and keep the connection
// open; a submit that throws mid-expansion reports the error the same
// way. The daemon never trusts request content beyond parsing it — an
// unknown grid is an error line, not a crash.
//
// Shutdown drains: after the accept loop exits, run() waits up to
// shutdown_grace_ms for in-flight requests to finish, then force-closes
// the stragglers' sockets (their handlers record a flight-recorder
// error entry). Every finished request lands in the flight recorder, so
// a SIGTERM'd daemon's dump accounts for all request ids it served.

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/mutex.hpp"
#include "obs/svc/log.hpp"
#include "obs/svc/telemetry.hpp"
#include "serve/service.hpp"

namespace adhoc::serve {

struct ServerConfig {
  std::string socket_path;  ///< AF_UNIX path; unlinked on close
  ServiceConfig service;
  obs::svc::Logger* log = nullptr;  ///< optional daemon log (not owned)
  /// Shared request telemetry (ids, phase histograms, flight recorder).
  /// Required: the Server constructor throws std::invalid_argument when
  /// it is null. Not owned. The server points its service's metrics at
  /// telemetry->metrics, so engine counters land in the same registry
  /// whatever service.metrics says.
  obs::svc::ServiceTelemetry* telemetry = nullptr;
  /// How long run() waits for in-flight requests after the accept loop
  /// exits before force-closing their connections.
  unsigned shutdown_grace_ms = 5000;
};

class Server {
 public:
  /// Throws std::invalid_argument when cfg.telemetry is null.
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on cfg.socket_path (replacing a stale socket file).
  /// Throws std::runtime_error on failure, naming the path.
  void start();

  /// Accept connections until stop() or a shutdown request; drains (or
  /// after shutdown_grace_ms force-closes) in-flight requests, then
  /// joins all connection handlers before returning. Requires start().
  void run();

  /// Wake the accept loop (callable from any thread, including
  /// connection handlers and signal handlers — it only writes one byte
  /// to a pipe).
  void stop();

 private:
  void handle_connection(int fd);
  /// Returns false when the connection should close (shutdown request).
  bool handle_line(int fd, const std::string& line, obs::svc::RequestTrace& trace);
  void handle_submit(int fd, const report::JsonValue& doc, obs::svc::RequestTrace& trace);
  void log_info(const std::string& text, const std::string& request_id = "");

  ServerConfig cfg_;
  CampaignService service_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  /// Ranked below every other lock: the drain path logs (kServiceLog)
  /// while holding it.
  conc::Mutex conn_mutex_{conc::LockRank::kServeConnections, "serve.connections"};
  /// Connections currently serving a request. run() waits on conn_cv_
  /// for this to empty during shutdown.
  std::set<int> active_fds_ GUARDED_BY(conn_mutex_);
  conc::CondVar conn_cv_;
};

}  // namespace adhoc::serve
