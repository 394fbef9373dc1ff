#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <variant>

#include "support/error.hpp"

namespace npad::serve {

using rt::ArrayVal;
using rt::Value;

// ----------------------------------------------------- value <-> JSON ------

namespace {

const char* elem_name(ir::ScalarType t) {
  switch (t) {
    case ir::ScalarType::F64: return "f64";
    case ir::ScalarType::I64: return "i64";
    case ir::ScalarType::Bool: return "bool";
  }
  return "?";
}

bool parse_elem(const std::string& s, ir::ScalarType* out) {
  if (s == "f64") { *out = ir::ScalarType::F64; return true; }
  if (s == "i64") { *out = ir::ScalarType::I64; return true; }
  if (s == "bool") { *out = ir::ScalarType::Bool; return true; }
  return false;
}

} // namespace

Json value_to_json(const Value& v, bool full) {
  if (std::holds_alternative<double>(v)) return Json::number(std::get<double>(v));
  if (std::holds_alternative<int64_t>(v)) {
    Json j = Json::object();
    j.set("elem", Json::string("i64"));
    j.set("value", Json::number(static_cast<double>(std::get<int64_t>(v))));
    return j;
  }
  if (std::holds_alternative<bool>(v)) return Json::boolean(std::get<bool>(v));
  if (rt::is_acc(v)) {
    Json j = Json::object();
    j.set("elem", Json::string("acc"));
    return j;
  }
  const ArrayVal& a = rt::as_array(v);
  Json j = Json::object();
  j.set("elem", Json::string(elem_name(a.elem)));
  Json shape = Json::array();
  for (int64_t d : a.shape) shape.push(Json::number(static_cast<double>(d)));
  j.set("shape", std::move(shape));
  const int64_t n = a.elems();
  if (full) {
    Json data = Json::array();
    data.arr.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) data.push(Json::number(a.get_f64(i)));
    j.set("data", std::move(data));
  } else {
    double l2 = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double x = a.get_f64(i);
      l2 += x * x;
    }
    j.set("l2", Json::number(std::sqrt(l2)));
    Json head = Json::array();
    for (int64_t i = 0; i < std::min<int64_t>(n, 8); ++i) {
      head.push(Json::number(a.get_f64(i)));
    }
    j.set("head", std::move(head));
  }
  return j;
}

Value value_from_json(const Json& j) {
  if (j.kind == Json::Kind::Num) return j.num;
  if (j.kind == Json::Kind::Bool) return j.b;
  if (j.kind == Json::Kind::Obj) {
    ir::ScalarType elem = ir::ScalarType::F64;
    if (const Json* e = j.get("elem")) {
      if (!e->is_str() || !parse_elem(e->str, &elem)) {
        throw TypeError("args: bad \"elem\" (want f64|i64|bool)");
      }
    }
    if (const Json* val = j.get("value")) {  // typed scalar
      if (!val->is_num() && val->kind != Json::Kind::Bool) {
        throw TypeError("args: scalar \"value\" must be a number or boolean");
      }
      const double x = val->is_num() ? val->num : (val->b ? 1.0 : 0.0);
      switch (elem) {
        case ir::ScalarType::F64: return x;
        case ir::ScalarType::I64: return static_cast<int64_t>(x);
        case ir::ScalarType::Bool: return x != 0.0;
      }
    }
    const Json* shape = j.get("shape");
    const Json* data = j.get("data");
    if (!shape || !shape->is_arr() || !data || !data->is_arr()) {
      throw TypeError("args: array values need \"shape\" and \"data\" lists");
    }
    std::vector<int64_t> shp;
    int64_t n = 1;
    for (const Json& d : shape->arr) {
      if (!d.is_num() || d.num < 0) throw TypeError("args: bad shape entry");
      shp.push_back(d.as_i64());
      n *= d.as_i64();
    }
    if (static_cast<int64_t>(data->arr.size()) != n) {
      throw ShapeError("args: data length " + std::to_string(data->arr.size()) +
                       " does not match shape product " + std::to_string(n));
    }
    ArrayVal a = ArrayVal::alloc(elem, std::move(shp));
    for (int64_t i = 0; i < n; ++i) {
      const Json& d = data->arr[static_cast<size_t>(i)];
      if (!d.is_num() && d.kind != Json::Kind::Bool) {
        throw TypeError("args: array data must be numeric");
      }
      const double x = d.is_num() ? d.num : (d.b ? 1.0 : 0.0);
      rt::store_scalar(a, i, x);
    }
    return a;
  }
  throw TypeError("args: unsupported JSON value for an argument");
}

// ------------------------------------------------------------ raw sockets --

namespace {

void set_recv_timeout(int fd, int ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool send_all(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// One HTTP message (request or response): start line, headers and a
// Content-Length body.
struct HttpMessage {
  std::string start_line;
  std::vector<std::pair<std::string, std::string>> headers;  // lower-case keys
  std::string body;

  std::string header(const std::string& key) const {
    for (const auto& [k, v] : headers) {
      if (k == key) return v;
    }
    return "";
  }
};

enum class ReadResult {
  Ok,
  Closed,      // EOF, timeout or an oversized header block
  TooLarge,    // Content-Length above max_body; the body is left unread
  BadFraming,  // the body's extent is unknown (see body_length); left unread
};

// The body length a header block declares: 0 without Content-Length. False
// when the framing is malformed — a Content-Length that is empty or not all
// digits, two differing Content-Lengths, or any Transfer-Encoding — since
// reading on would take part of the body as the next request. An
// out-of-range length saturates (and then exceeds any body cap).
bool body_length(const HttpMessage& m, size_t& n) {
  const std::string* cl = nullptr;
  for (const auto& [k, v] : m.headers) {
    if (k == "transfer-encoding") return false;
    if (k != "content-length") continue;
    if (cl != nullptr && *cl != v) return false;
    cl = &v;
  }
  n = 0;
  if (cl == nullptr) return true;
  if (cl->empty()) return false;
  for (const char c : *cl) {
    if (c < '0' || c > '9') return false;
    n = n > (SIZE_MAX - 9) / 10 ? SIZE_MAX : n * 10 + static_cast<size_t>(c - '0');
  }
  return true;
}

// Reads one HTTP message off `fd`, keeping any pipelined tail in `buf`.
ReadResult read_message(int fd, std::string& buf, HttpMessage* out, size_t max_body) {
  // Accumulate until the blank line.
  size_t header_end = std::string::npos;
  for (;;) {
    header_end = buf.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    if (buf.size() > (64u << 10)) return ReadResult::Closed;  // oversized header block
    char chunk[4096];
    const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
    if (r <= 0) return ReadResult::Closed;
    buf.append(chunk, static_cast<size_t>(r));
  }
  const std::string head = buf.substr(0, header_end);
  size_t line_start = 0;
  bool first = true;
  out->headers.clear();
  while (line_start <= head.size()) {
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(line_start, line_end - line_start);
    if (first) {
      out->start_line = line;
      first = false;
    } else if (!line.empty()) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string k = line.substr(0, colon);
        std::transform(k.begin(), k.end(), k.begin(),
                       [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
        size_t vs = colon + 1, ve = line.size();
        while (vs < ve && (line[vs] == ' ' || line[vs] == '\t')) ++vs;
        while (ve > vs && (line[ve - 1] == ' ' || line[ve - 1] == '\t')) --ve;
        out->headers.emplace_back(std::move(k), line.substr(vs, ve - vs));
      }
    }
    if (line_end == head.size()) break;
    line_start = line_end + 2;
  }

  size_t content_length = 0;
  if (!body_length(*out, content_length)) return ReadResult::BadFraming;
  if (content_length > max_body) return ReadResult::TooLarge;

  const size_t body_start = header_end + 4;
  while (buf.size() - body_start < content_length) {
    char chunk[8192];
    const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
    if (r <= 0) return ReadResult::Closed;
    buf.append(chunk, static_cast<size_t>(r));
  }
  out->body = buf.substr(body_start, content_length);
  buf.erase(0, body_start + content_length);  // keep any pipelined tail
  return ReadResult::Ok;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// HTTP status of a typed npad error: the client's fault (400), a resource
// the server lacks right now — a stopped batcher, a failed allocation —
// (503), or a server fault (500).
int status_of(const std::string& kind) {
  if (kind == "TypeError" || kind == "ShapeError") return 400;
  if (kind == "ResourceError") return 503;
  return 500;
}

bool send_response(int fd, int status, const std::string& body, bool close_conn) {
  const std::string resp =
      "HTTP/1.1 " + std::to_string(status) + " " + status_text(status) +
      "\r\nContent-Type: application/json\r\nContent-Length: " + std::to_string(body.size()) +
      (close_conn ? "\r\nConnection: close" : "\r\nConnection: keep-alive") + "\r\n\r\n" +
      body;
  return send_all(fd, resp.data(), resp.size());
}

} // namespace

// ---------------------------------------------------------------- server ---

HttpServer::HttpServer(Batcher& batcher, HttpOptions opts)
    : batcher_(batcher), opts_(std::move(opts)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw ResourceError("http: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ResourceError("http: bad listen address '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ResourceError("http: bind to " + opts_.host + ":" + std::to_string(opts_.port) +
                        " failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, opts_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ResourceError("http: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (started_ || listen_fd_ < 0) return;
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void HttpServer::stop() {
  if (stopping_.exchange(true)) return;
  // Wake the blocked accept() first; close only after the accept thread has
  // joined so it can never race a recycled fd number.
  const int lfd = listen_fd_.load();
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (lfd >= 0) {
    ::close(lfd);
    listen_fd_.store(-1);
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard lk(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) t.join();
}

void HttpServer::reap_finished_locked() {
  for (std::thread::id id : finished_ids_) {
    for (auto it = conn_threads_.begin(); it != conn_threads_.end(); ++it) {
      if (it->get_id() == id) {
        it->join();
        conn_threads_.erase(it);
        break;
      }
    }
  }
  finished_ids_.clear();
}

void HttpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      continue;  // transient accept failure
    }
    std::lock_guard lk(conn_mu_);
    reap_finished_locked();
    if (stopping_.load() || conn_threads_.size() >= opts_.max_connections) {
      ::close(fd);
      if (stopping_.load()) return;
      continue;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void HttpServer::serve_connection(int fd) {
  set_recv_timeout(fd, opts_.recv_timeout_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::string buf;
  for (;;) {
    HttpMessage msg;
    const ReadResult rr = read_message(fd, buf, &msg, opts_.max_body);
    if (rr == ReadResult::TooLarge || rr == ReadResult::BadFraming) {
      // Answer before closing, then drain what the client already sent:
      // closing on unread data would reset the connection and could drop
      // the answer before the client reads it.
      if (rr == ReadResult::TooLarge) {
        send_response(fd, 413, R"({"ok":false,"error":"request body too large"})", true);
      } else {
        send_response(fd, 400, R"({"ok":false,"error":"malformed request framing"})", true);
      }
      ::shutdown(fd, SHUT_WR);
      char chunk[8192];
      size_t drained = 0;
      while (drained < opts_.max_body) {
        const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
        if (r <= 0) break;
        drained += static_cast<size_t>(r);
      }
      break;
    }
    if (rr != ReadResult::Ok) break;
    // "METHOD /path HTTP/1.1"
    std::string method, path;
    {
      const size_t sp1 = msg.start_line.find(' ');
      const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                  : msg.start_line.find(' ', sp1 + 1);
      if (sp2 == std::string::npos) break;
      method = msg.start_line.substr(0, sp1);
      path = msg.start_line.substr(sp1 + 1, sp2 - sp1 - 1);
      if (const size_t q = path.find('?'); q != std::string::npos) path.resize(q);
    }
    const bool close_conn = msg.header("connection") == "close";
    auto [status, body] = handle(method, path, msg.body);
    if (!send_response(fd, status, body, close_conn)) break;
    if (close_conn) break;
  }
  ::close(fd);
  std::lock_guard lk(conn_mu_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd), conn_fds_.end());
  finished_ids_.push_back(std::this_thread::get_id());
}

std::pair<int, std::string> HttpServer::handle(const std::string& method,
                                               const std::string& path,
                                               const std::string& body) {
  try {
    if (path == "/healthz") {
      Json j = Json::object();
      j.set("ok", Json::boolean(true));
      return {200, j.dump()};
    }
    if (path == "/v1/programs" && method == "GET") {
      Json j = Json::object();
      Json progs = Json::array();
      for (const std::string& name : Registry::global().names()) {
        auto entry = Registry::global().find(name);
        if (!entry) continue;
        Json p = Json::object();
        p.set("name", Json::string(name));
        p.set("jacobian_kind", Json::string(entry->jacobian_kind));
        Json modes = Json::array();
        modes.push(Json::string("objective"));
        modes.push(Json::string("jacobian"));
        p.set("modes", std::move(modes));
        Json size = Json::object();
        for (const auto& [k, v] : entry->default_size) {
          size.set(k, Json::number(static_cast<double>(v)));
        }
        p.set("default_size", std::move(size));
        progs.push(std::move(p));
      }
      j.set("programs", std::move(progs));
      return {200, j.dump()};
    }
    if (path == "/v1/stats" && method == "GET") {
      Json j = Json::object();
      for (const auto& [k, v] : batcher_.stats().counters()) {
        j.set(k, Json::number(static_cast<double>(v)));
      }
      for (const auto& [k, v] : batcher_.interp().stats().counters()) {
        j.set(k, Json::number(static_cast<double>(v)));
      }
      return {200, j.dump()};
    }
    if (path == "/v1/run") {
      if (method != "POST") return {405, R"({"ok":false,"error":"POST required"})"};
      return handle_run(body);
    }
    return {404, R"({"ok":false,"error":"no such route"})"};
  } catch (const npad::Error& e) {
    Json j = Json::object();
    j.set("ok", Json::boolean(false));
    j.set("error_kind", Json::string(e.kind()));
    j.set("error", Json::string(e.what()));
    return {status_of(e.kind()), j.dump()};
  } catch (const std::exception& e) {
    Json j = Json::object();
    j.set("ok", Json::boolean(false));
    j.set("error", Json::string(e.what()));
    return {500, j.dump()};
  }
}

std::pair<int, std::string> HttpServer::handle_run(const std::string& body) {
  const Json req = Json::parse(body);
  const Json* prog_j = req.get("program");
  if (!prog_j || !prog_j->is_str()) throw TypeError("run: missing \"program\"");

  Request r;
  r.program = prog_j->str;
  if (const Json* m = req.get("mode")) {
    if (!m->is_str() || !parse_mode(m->str, &r.mode)) {
      throw TypeError("run: bad \"mode\" (want objective|jacobian)");
    }
  }
  bool full = false;
  if (const Json* ret = req.get("return")) {
    if (ret->is_str() && ret->str == "full") full = true;
  }

  if (const Json* args_j = req.get("args")) {
    if (!args_j->is_arr()) throw TypeError("run: \"args\" must be a list");
    for (const Json& a : args_j->arr) r.args.push_back(value_from_json(a));
  } else {
    auto entry = Registry::global().find(r.program);
    if (!entry) throw TypeError("unknown program '" + r.program + "'");
    uint64_t seed = 0;
    if (const Json* s = req.get("seed"); s && s->is_num()) {
      seed = static_cast<uint64_t>(s->num);
    }
    SizeMap size;
    if (const Json* sz = req.get("size"); sz && sz->is_obj()) {
      for (const auto& [k, v] : sz->obj) {
        if (v.is_num()) size[k] = v.as_i64();
      }
    }
    r.args = entry->make_args(r.mode, seed, size);
  }

  const std::string program = r.program;
  const Mode mode = r.mode;
  Response resp = batcher_.execute(std::move(r));

  Json j = Json::object();
  j.set("ok", Json::boolean(resp.ok()));
  j.set("program", Json::string(program));
  j.set("mode", Json::string(mode_name(mode)));
  j.set("batch_size", Json::number(resp.batch_size));
  j.set("queue_wait_ms", Json::number(resp.queue_wait_ms));
  j.set("exec_ms", Json::number(resp.exec_ms));
  if (resp.ok()) {
    Json results = Json::array();
    for (const Value& v : resp.results) results.push(value_to_json(v, full));
    j.set("results", std::move(results));
    return {200, j.dump()};
  }
  j.set("error_kind", Json::string(resp.error_kind));
  j.set("error", Json::string(resp.error));
  return {status_of(resp.error_kind), j.dump()};
}

// ---------------------------------------------------------------- client ---

HttpClient::HttpClient(std::string host, int port) : host_(std::move(host)), port_(port) {}

HttpClient::~HttpClient() { close_fd(); }

void HttpClient::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void HttpClient::ensure_connected() {
  if (fd_ >= 0) return;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw ResourceError("http client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    close_fd();
    throw ResourceError("http client: bad address '" + host_ + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close_fd();
    throw ResourceError("http client: connect to " + host_ + ":" + std::to_string(port_) +
                        " failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  set_recv_timeout(fd_, 30000);
}

int HttpClient::request_once(const std::string& method, const std::string& path,
                             const std::string& body, std::string* resp_body) {
  ensure_connected();
  std::string msg = method + " " + path + " HTTP/1.1\r\nHost: " + host_ +
                    "\r\nContent-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n\r\n" + body;
  if (!send_all(fd_, msg.data(), msg.size())) {
    close_fd();
    throw ResourceError("http client: send failed");
  }
  HttpMessage resp;
  std::string buf;
  if (read_message(fd_, buf, &resp, 64u << 20) != ReadResult::Ok) {
    close_fd();
    throw ResourceError("http client: read failed (connection closed?)");
  }
  if (resp.header("connection") == "close") close_fd();
  if (resp_body) *resp_body = std::move(resp.body);
  // "HTTP/1.1 200 OK"
  const size_t sp = resp.start_line.find(' ');
  if (sp == std::string::npos) throw ResourceError("http client: malformed status line");
  return std::atoi(resp.start_line.c_str() + sp + 1);
}

int HttpClient::request(const std::string& method, const std::string& path,
                        const std::string& body, std::string* resp_body) {
  try {
    return request_once(method, path, body, resp_body);
  } catch (const npad::Error&) {
    // Server may have dropped an idle keep-alive connection: retry once on a
    // fresh socket.
    close_fd();
    return request_once(method, path, body, resp_body);
  }
}

int HttpClient::get(const std::string& path, std::string* resp_body) {
  return request("GET", path, "", resp_body);
}

int HttpClient::post(const std::string& path, const std::string& body,
                     std::string* resp_body) {
  return request("POST", path, body, resp_body);
}

} // namespace npad::serve
