#include "obs/introspect.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "support/json.hpp"
#include "support/net.hpp"

namespace rtsp::obs {

Progress& Progress::instance() {
  static Progress progress;
  return progress;
}

void Progress::set_stage(const std::string& stage) {
  std::lock_guard<std::mutex> lock(mutex_);
  stage_ = stage;
}

std::string Progress::stage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stage_;
}

Progress::View Progress::view() const {
  View v;
  v.stage = stage();
  v.has_incumbent = has_incumbent_.load(std::memory_order_relaxed);
  v.incumbent_cost = incumbent_cost_.load(std::memory_order_relaxed);
  v.incumbent_dummies = incumbent_dummies_.load(std::memory_order_relaxed);
  v.has_bound = has_bound_.load(std::memory_order_relaxed);
  v.lower_bound = lower_bound_.load(std::memory_order_relaxed);
  v.ticks_spent = ticks_spent_.load(std::memory_order_relaxed);
  v.ticks_budget = ticks_budget_.load(std::memory_order_relaxed);
  v.exec_tick = exec_tick_.load(std::memory_order_relaxed);
  return v;
}

std::string Progress::to_json() const {
  const View v = view();
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.key("stage").value(v.stage);
  if (v.has_incumbent) {
    j.key("incumbent").begin_object();
    j.key("cost").value(v.incumbent_cost);
    j.key("dummy_transfers").value(v.incumbent_dummies);
    j.end_object();
  } else {
    j.key("incumbent").null();
  }
  if (v.has_bound) {
    j.key("lower_bound").value(v.lower_bound);
    if (v.has_incumbent && v.lower_bound > 0) {
      j.key("gap").value(
          static_cast<double>(v.incumbent_cost - v.lower_bound) /
          static_cast<double>(v.lower_bound));
    }
  } else {
    j.key("lower_bound").null();
  }
  j.key("ticks").begin_object();
  j.key("spent").value(v.ticks_spent);
  j.key("budget").value(v.ticks_budget);
  j.end_object();
  j.key("exec_tick").value(v.exec_tick);
  const Logger& logger = Logger::instance();
  j.key("log_records").value(logger.records_emitted());
  j.end_object();
  return out.str();
}

void Progress::reset() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stage_.clear();
  }
  has_incumbent_.store(false, std::memory_order_relaxed);
  incumbent_cost_.store(0, std::memory_order_relaxed);
  incumbent_dummies_.store(0, std::memory_order_relaxed);
  has_bound_.store(false, std::memory_order_relaxed);
  lower_bound_.store(0, std::memory_order_relaxed);
  ticks_spent_.store(0, std::memory_order_relaxed);
  ticks_budget_.store(0, std::memory_order_relaxed);
  exec_tick_.store(0, std::memory_order_relaxed);
}

std::string introspect_metrics_body() {
  std::ostringstream out;
  write_metrics_prometheus(out, MetricsRegistry::instance().snapshot());
  return out.str();
}

std::string introspect_healthz_body() {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.key("status").value("ok");
  j.key("stage").value(Progress::instance().stage());
  j.end_object();
  return out.str();
}

std::string introspect_logz_body(std::size_t n) {
  std::string out = log_header_json();
  out += '\n';
  for (const LogRecord& record : Logger::instance().tail(n)) {
    out += log_record_to_json(record);
    out += '\n';
  }
  return out;
}

namespace {

constexpr int kAcceptPollMs = 100;
constexpr std::size_t kMaxRequestBytes = 16 * 1024;

const char* reason_for(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return status >= 500 ? "Internal Server Error" : "Unknown";
  }
}

std::string make_response(int status, const char* reason,
                          const std::string& content_type,
                          const std::string& body,
                          const char* extra_header = nullptr) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ' + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n";
  if (extra_header != nullptr) {
    out += extra_header;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

/// The one query parameter any endpoint understands: "n=K" on /logz.
std::size_t parse_logz_count(std::string_view query) {
  constexpr std::size_t kDefault = 100;
  if (query.rfind("n=", 0) != 0) return kDefault;
  std::size_t n = 0;
  bool any = false;
  for (const char c : query.substr(2)) {
    if (c < '0' || c > '9') return kDefault;
    n = n * 10 + static_cast<std::size_t>(c - '0');
    any = true;
    if (n > 1'000'000) break;
  }
  return any ? n : kDefault;
}

std::string handle_request(const std::string& request, std::string body,
                           const HttpRouteHandler& route) {
  const std::size_t line_end = request.find("\r\n");
  const std::string_view line(request.data(),
                              line_end == std::string::npos ? request.size()
                                                            : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 <= sp1) {
    return make_response(400, "Bad Request", "text/plain; charset=utf-8",
                         "malformed request line\n");
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view query;
  if (const std::size_t qmark = target.find('?');
      qmark != std::string_view::npos) {
    query = target.substr(qmark + 1);
    target = target.substr(0, qmark);
  }
  if (route) {
    HttpRouteRequest req;
    req.method = std::string(method);
    req.target = std::string(target);
    req.query = std::string(query);
    req.body = std::move(body);
    HttpRouteReply reply;
    bool handled = false;
    try {
      handled = route(req, reply);
    } catch (const std::exception& e) {
      return make_response(500, "Internal Server Error",
                           "text/plain; charset=utf-8",
                           std::string(e.what()) + "\n");
    }
    if (handled) {
      std::string extra;
      if (!reply.retry_after.empty()) {
        extra = "Retry-After: " + reply.retry_after;
      }
      return make_response(reply.status, reason_for(reply.status),
                           reply.content_type, reply.body,
                           extra.empty() ? nullptr : extra.c_str());
    }
  }
  if (method != "GET") {
    return make_response(405, "Method Not Allowed",
                         "text/plain; charset=utf-8", "only GET is served\n",
                         "Allow: GET");
  }
  if (target == "/metrics") {
    return make_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         introspect_metrics_body());
  }
  if (target == "/healthz") {
    return make_response(200, "OK", "application/json",
                         introspect_healthz_body());
  }
  if (target == "/progress") {
    return make_response(200, "OK", "application/json",
                         Progress::instance().to_json());
  }
  if (target == "/logz") {
    return make_response(200, "OK", "application/x-ndjson",
                         introspect_logz_body(parse_logz_count(query)));
  }
  return make_response(404, "Not Found", "text/plain; charset=utf-8",
                       "unknown endpoint; try /metrics /healthz /progress "
                       "/logz?n=K\n");
}

}  // namespace

struct IntrospectServer::Impl {
  net::TcpListener listener;
  int request_timeout_ms = 2000;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  HttpRouteHandler route;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> served{0};
  std::thread acceptor;
  std::vector<std::thread> handlers;
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<net::Socket> queue;

  void accept_loop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      net::Socket conn = listener.accept(kAcceptPollMs);
      if (!conn.valid()) continue;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        queue.push_back(std::move(conn));
      }
      queue_cv.notify_one();
    }
  }

  void handler_loop() {
    for (;;) {
      net::Socket conn;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) || !queue.empty();
        });
        if (queue.empty()) return;  // stopping and drained
        conn = std::move(queue.front());
        queue.pop_front();
      }
      std::string request;
      if (conn.read_until(request, "\r\n\r\n", kMaxRequestBytes,
                          request_timeout_ms)) {
        // Split off anything past the header block; that prefix plus a
        // Content-Length-bounded read is the request body.
        std::string body;
        const std::size_t head_end = request.find("\r\n\r\n");
        if (head_end != std::string::npos) {
          body = request.substr(head_end + 4);
          request.resize(head_end + 4);
        }
        const long long declared = net::find_content_length(request);
        bool ok = true;
        if (declared > static_cast<long long>(max_body_bytes)) {
          conn.write_all(make_response(413, "Payload Too Large",
                                       "text/plain; charset=utf-8",
                                       "request body too large\n"));
          ok = false;
        } else if (declared > 0 &&
                   body.size() < static_cast<std::size_t>(declared)) {
          // Same overall deadline again for the body read: a stalled peer
          // holds this handler for at most 2x request_timeout_ms total.
          ok = conn.read_exact(body, static_cast<std::size_t>(declared),
                               request_timeout_ms);
        }
        if (ok) {
          if (declared >= 0 &&
              body.size() > static_cast<std::size_t>(declared)) {
            body.resize(static_cast<std::size_t>(declared));
          }
          const std::string response = handle_request(request, std::move(body), route);
          // Counted before the write: a client may see the whole response
          // and read requests_served() before this thread runs again.
          served.fetch_add(1, std::memory_order_relaxed);
          conn.write_all(response);
        }
      }
      conn.close();
    }
  }
};

IntrospectServer::IntrospectServer(const IntrospectOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->request_timeout_ms =
      options.request_timeout_ms > 0 ? options.request_timeout_ms : 2000;
  impl_->max_body_bytes = options.max_body_bytes;
  impl_->route = options.route;
  impl_->listener.listen(options.host, options.port);
  const std::size_t threads =
      options.handler_threads > 0 ? options.handler_threads : 1;
  impl_->acceptor = std::thread([this] { impl_->accept_loop(); });
  impl_->handlers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    impl_->handlers.emplace_back([this] { impl_->handler_loop(); });
  }
}

IntrospectServer::~IntrospectServer() { stop(); }

std::uint16_t IntrospectServer::port() const { return impl_->listener.port(); }

std::uint64_t IntrospectServer::requests_served() const {
  return impl_->served.load(std::memory_order_relaxed);
}

void IntrospectServer::stop() {
  if (impl_ == nullptr || impl_->stopping.exchange(true)) return;
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  impl_->queue_cv.notify_all();
  for (std::thread& t : impl_->handlers) {
    if (t.joinable()) t.join();
  }
  impl_->listener.close();
}

}  // namespace rtsp::obs
