#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "cache/code_version.hpp"
#include "campaign/telemetry.hpp"
#include "experiments/campaigns.hpp"
#include "obs/json.hpp"
#include "obs/svc/clock.hpp"

namespace adhoc::serve {

namespace {

using obs::svc::Phase;
using obs::svc::PhaseScope;
using obs::svc::RequestTrace;

/// Write `line` + '\n' fully. MSG_NOSIGNAL: a vanished client surfaces
/// as an error return, not SIGPIPE. Returns false once the peer is gone.
bool write_line(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// write_line, attributing the time to the trace's stream phase.
bool send_line(int fd, const std::string& line, RequestTrace& trace) {
  const PhaseScope scope{&trace, Phase::kStream};
  return write_line(fd, line);
}

/// Minimal streambuf over a socket fd so campaign::JsonlSink can stream
/// engine telemetry lines straight to the client while a submit runs.
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {}

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    const char c = static_cast<char>(ch);
    return write_all(&c, 1) ? ch : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return write_all(s, n) ? n : 0;
  }

 private:
  bool write_all(const char* s, std::streamsize n) {
    std::size_t off = 0;
    const auto size = static_cast<std::size_t>(n);
    while (off < size) {
      const ssize_t w = ::send(fd_, s + off, size - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(w);
    }
    return true;
  }
  int fd_;
};

/// `{"message":"...","request":"r-N","type":"error"}`.
std::string error_line(const std::string& message, const RequestTrace& trace) {
  return R"({"message":")" + obs::json_escape(message) + R"(","request":")" +
         obs::json_escape(trace.id()) + R"(","type":"error"})";
}

/// The service config a server runs: engine counters land in the
/// server's telemetry registry. Throws when no telemetry is wired.
ServiceConfig service_config(const ServerConfig& cfg) {
  if (cfg.telemetry == nullptr) {
    throw std::invalid_argument("serve: ServerConfig::telemetry is null");
  }
  ServiceConfig sc = cfg.service;
  sc.metrics = &cfg.telemetry->metrics;
  return sc;
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), service_(service_config(cfg_)) {
  cfg_.telemetry->metrics.set_gauge("serve", "connections_in_flight", 0.0);
}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(cfg_.socket_path.c_str());
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.empty() || cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path empty or too long: '" + cfg_.socket_path + "'");
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(), cfg_.socket_path.size() + 1);

  if (::pipe(stop_pipe_) != 0) {
    throw std::runtime_error(std::string{"serve: pipe: "} + std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string{"serve: socket: "} + std::strerror(errno));
  }
  ::unlink(cfg_.socket_path.c_str());  // replace a stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    throw std::runtime_error("serve: cannot listen on '" + cfg_.socket_path +
                             "': " + std::strerror(errno));
  }
  log_info("listening on " + cfg_.socket_path);
}

void Server::run() {
  if (listen_fd_ < 0) throw std::runtime_error("serve: run() before start()");
  std::vector<std::thread> handlers;
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int r = ::poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // stop() requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    handlers.emplace_back([this, fd] { handle_connection(fd); });
  }
  // Drain: give open connections shutdown_grace_ms to finish, then
  // force-close the stragglers so blocked handlers unwind (each still
  // records its in-flight request in the flight recorder on the way
  // out).
  {
    conc::MutexLock lock{conn_mutex_};
    // REQUIRES on the predicate: CondVar::wait_for holds the lock
    // across every pred() call, but the analysis cannot see through
    // the template — the attribute keeps the lambda body checked.
    const bool drained =
        conn_cv_.wait_for(lock, std::chrono::milliseconds(cfg_.shutdown_grace_ms),
                          [this]() REQUIRES(conn_mutex_) { return active_fds_.empty(); });
    if (!drained) {
      for (const int cfd : active_fds_) ::shutdown(cfd, SHUT_RDWR);
      log_info("shutdown grace elapsed; force-closed " +
               std::to_string(active_fds_.size()) + " connection(s)");
    }
  }
  for (std::thread& t : handlers) t.join();
  log_info("stopped");
}

void Server::stop() {
  const char wake = 'x';
  // Best-effort wake; the accept loop exits on the first byte. One
  // write() on a pre-opened pipe — async-signal-safe, so SIGTERM
  // handlers may call this directly.
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &wake, 1);
}

void Server::handle_connection(int fd) {
  {
    const conc::MutexLock lock{conn_mutex_};
    active_fds_.insert(fd);
  }
  obs::svc::ServiceTelemetry& telemetry = *cfg_.telemetry;
  telemetry.metrics.add_gauge("serve", "connections_in_flight", 1.0);

  std::string buffer;
  char chunk[4096];
  bool open = true;
  // accept phase = idle-on-socket time before each request line lands.
  std::uint64_t wait_begin_ns = obs::svc::steady_ns();
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      RequestTrace trace{telemetry.mint_request_id(), "unknown"};
      const std::uint64_t now = obs::svc::steady_ns();
      trace.add_ns(Phase::kAccept, now > wait_begin_ns ? now - wait_begin_ns : 0);
      try {
        if (!handle_line(fd, line, trace)) {
          open = false;  // shutdown: reply sent, accept loop woken
        }
      } catch (const std::exception& e) {
        trace.fail(e.what());
        send_line(fd, error_line(e.what(), trace), trace);
        log_info(std::string{"request failed: "} + e.what(), trace.id());
      }
      telemetry.finish_request(trace);
      wait_begin_ns = obs::svc::steady_ns();
      if (!open) break;
    }
    buffer.erase(0, start);
  }
  ::close(fd);

  telemetry.metrics.add_gauge("serve", "connections_in_flight", -1.0);
  {
    const conc::MutexLock lock{conn_mutex_};
    active_fds_.erase(fd);
  }
  conn_cv_.notify_all();
}

bool Server::handle_line(int fd, const std::string& line, RequestTrace& trace) {
  trace.start(Phase::kParse);
  const auto doc = report::JsonValue::parse(line);
  const auto* type = doc.find("type");
  if (type == nullptr || !type->is_string()) {
    trace.stop(Phase::kParse);
    trace.fail("request has no \"type\" member");
    send_line(fd, error_line("request has no \"type\" member", trace), trace);
    return true;
  }
  trace.set_verb(type->str());
  trace.stop(Phase::kParse);
  const std::string& version =
      cfg_.service.cache != nullptr ? cfg_.service.cache->version() : cache::code_version();
  if (type->str() == "submit") {
    handle_submit(fd, doc, trace);
  } else if (type->str() == "stats") {
    std::string out = R"({"cache":{)";
    if (cfg_.service.cache != nullptr) {
      const auto s = cfg_.service.cache->stats();
      out += R"("bytes":)" + std::to_string(s.bytes) + R"(,"entries":)" +
             std::to_string(s.entries) + R"(,"evictions":)" + std::to_string(s.evictions) +
             R"(,"hits":)" + std::to_string(s.hits) + R"(,"invalidated":)" +
             std::to_string(s.invalidated) + R"(,"misses":)" + std::to_string(s.misses) +
             R"(,"stores":)" + std::to_string(s.stores);
    }
    const auto total = [this](const char* name) {
      const double v = cfg_.telemetry->metrics.value("serve", name);
      return std::to_string(static_cast<std::uint64_t>(v));
    };
    out += R"(},"serve":{"journey_dropped":)" + total("journey_dropped_total") +
           R"(,"trace_dropped":)" + total("trace_dropped_total") +
           R"(},"type":"stats","version":")" + obs::json_escape(version) + R"("})";
    send_line(fd, out, trace);
  } else if (type->str() == "metrics") {
    const auto* format = doc.find("format");
    const std::string fmt =
        format != nullptr && format->is_string() ? format->str() : std::string{"json"};
    std::string out;
    {
      const PhaseScope serialize_scope{&trace, Phase::kSerialize};
      if (fmt == "json") {
        out = R"({"format":"json","metrics":)" + cfg_.telemetry->metrics.snapshot_json();
      } else if (fmt == "prometheus") {
        out = R"({"format":"prometheus","text":")" +
              obs::json_escape(cfg_.telemetry->metrics.prometheus_text()) + '"';
      } else {
        send_line(fd, error_line("unknown metrics format '" + fmt + "' (expected json|prometheus)",
                                 trace),
                  trace);
        return true;
      }
      out += R"(,"request":")" + obs::json_escape(trace.id()) + R"(","type":"metrics"})";
    }
    send_line(fd, out, trace);
  } else if (type->str() == "debug") {
    std::string out;
    {
      const PhaseScope serialize_scope{&trace, Phase::kSerialize};
      out = R"({"flight":")" +
            obs::json_escape(cfg_.telemetry->recorder.to_jsonl(obs::svc::unix_ms())) +
            R"(","request":")" + obs::json_escape(trace.id()) + R"(","type":"debug"})";
    }
    send_line(fd, out, trace);
  } else if (type->str() == "ping") {
    send_line(fd, R"({"type":"pong","version":")" + obs::json_escape(version) + R"("})", trace);
  } else if (type->str() == "shutdown") {
    send_line(fd, R"({"type":"bye"})", trace);
    log_info("shutdown requested", trace.id());
    stop();
    return false;
  } else {
    send_line(fd, error_line("unknown request type '" + type->str() + "'", trace), trace);
    trace.fail("unknown request type '" + type->str() + "'");
  }
  return true;
}

void Server::handle_submit(int fd, const report::JsonValue& doc, RequestTrace& trace) {
  trace.start(Phase::kParse);
  const SubmitRequest req = parse_submit_request(doc);
  const auto cfg = req.to_config();
  // Resolve the plan up front: an unknown grid becomes an error line
  // before any start record, and the start record can announce the
  // expansion size.
  const auto plan = experiments::campaign_by_name(req.grid, cfg, req.probes).plan;
  trace.stop(Phase::kParse);
  const std::string& version =
      cfg_.service.cache != nullptr ? cfg_.service.cache->version() : cache::code_version();
  send_line(fd,
            R"({"cache_version":")" + obs::json_escape(version) + R"(","campaign":")" +
                obs::json_escape(plan.name) + R"(","points":)" +
                std::to_string(plan.grid.points()) + R"(,"request":")" +
                obs::json_escape(trace.id()) + R"(","runs":)" + std::to_string(plan.total_runs()) +
                R"(,"seeds":)" + std::to_string(plan.seeds.size()) + R"(,"type":"submit_start"})",
            trace);

  FdStreambuf telemetry_buf{fd};
  std::ostream telemetry_out{&telemetry_buf};
  campaign::JsonlSink telemetry{telemetry_out};
  const SubmitOutcome outcome = service_.submit(req, &telemetry, &trace);

  // Assemble every response line first (serialize), then stream. Run
  // and scorecard lines are byte-stable artifacts shared warm vs cold —
  // they must never carry the request id (see server.hpp).
  std::vector<std::string> lines;
  {
    const PhaseScope serialize_scope{&trace, Phase::kSerialize};
    lines.reserve(outcome.result.runs.size() + 2);
    for (std::size_t i = 0; i < outcome.result.runs.size(); ++i) {
      const auto& spec = outcome.result.runs[i].spec;
      lines.push_back(R"({"cached":)" + std::string{outcome.cached[i] ? "1" : "0"} +
                      R"(,"params":)" + obs::json_object(spec.params) + R"(,"point":)" +
                      std::to_string(spec.point_index) + R"(,"record":)" + outcome.payloads[i] +
                      R"(,"run":)" + std::to_string(spec.run_index) + R"(,"seed":)" +
                      std::to_string(spec.seed) + R"(,"type":"run"})");
    }
    lines.push_back(R"({"bench":")" + obs::json_escape(outcome.bench) + R"(","scorecard":")" +
                    obs::json_escape(outcome.scorecard_json) + R"(","type":"scorecard"})");
    lines.push_back(R"({"cache_hits":)" + std::to_string(outcome.cache_hits) +
                    R"(,"cache_misses":)" + std::to_string(outcome.cache_misses) +
                    R"(,"deduped":)" + std::to_string(outcome.result.deduped) +
                    R"(,"errors":)" + std::to_string(outcome.result.error_count()) +
                    R"(,"ok":)" + std::to_string(outcome.result.ok_count()) +
                    R"(,"request":")" + obs::json_escape(trace.id()) +
                    R"(","type":"submit_end","wall_ms":)" +
                    obs::json_number(outcome.result.wall_seconds * 1e3) + "}");
  }
  {
    const PhaseScope stream_scope{&trace, Phase::kStream};
    for (const std::string& out_line : lines) {
      if (!write_line(fd, out_line)) break;
    }
  }
  log_info("submit " + req.grid + ": " + std::to_string(outcome.cache_hits) + " hits, " +
               std::to_string(outcome.cache_misses) + " misses, " +
               std::to_string(outcome.result.error_count()) + " errors",
           trace.id());
}

void Server::log_info(const std::string& text, const std::string& request_id) {
  if (cfg_.log != nullptr) cfg_.log->info(text, request_id);
}

}  // namespace adhoc::serve
