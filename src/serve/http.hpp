#pragma once

// Dependency-free blocking-socket HTTP/1.1 front-end for the batcher, plus
// the matching minimal client used by the load-generator bench and the CI
// smoke. One thread per accepted connection (keep-alive), requests decode to
// serve::Request, responses encode Response + per-request stats as JSON.
//
// Routes:
//   GET  /healthz      -> {"ok": true}
//   GET  /v1/programs  -> registered programs, modes, default sizes
//   GET  /v1/stats     -> ServeStats + InterpStats counters
//   POST /v1/run       -> {"program", "mode"?, "seed"?, "size"?, "args"?,
//                          "return": "summary"|"full"}
//
// Typed errors map to statuses: TypeError/ShapeError 400 (the client's
// request), ResourceError 503 (a stopped batcher, a failed allocation), any
// other 500. A body whose Content-Length exceeds max_body gets 413 and the
// connection closes. So does malformed framing, with 400: a Content-Length
// that is empty or not all digits, two differing Content-Lengths, or any
// Transfer-Encoding (chunked bodies are not supported).
//
// Request arguments are either synthesized server-side from (seed, size) via
// the registry's deterministic generators, or supplied inline in "args":
// numbers are f64 scalars, {"elem": "i64", "value": n} typed scalars, and
// {"shape": [...], "data": [...], "elem": "f64"|"i64"|"bool"} arrays.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/json.hpp"

namespace npad::serve {

struct HttpOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0: ephemeral, read back with port()
  int backlog = 128;
  int recv_timeout_ms = 10000;   // per-read socket timeout
  size_t max_body = 8u << 20;    // request body cap
  size_t max_connections = 256;  // concurrent connection-handler threads
};

class HttpServer {
public:
  // Binds and listens immediately (throws npad::ResourceError on failure);
  // start() begins accepting.
  HttpServer(Batcher& batcher, HttpOptions opts = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  void start();
  void stop();  // closes the listener and every live connection, joins

  int port() const { return port_; }

private:
  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_locked();  // joins handler threads that have exited
  // Routing: returns (status, body). Never throws.
  std::pair<int, std::string> handle(const std::string& method, const std::string& path,
                                     const std::string& body);
  std::pair<int, std::string> handle_run(const std::string& body);

  Batcher& batcher_;
  HttpOptions opts_;
  // Atomic: stop() tears the listener down while accept_loop() reads it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::thread::id> finished_ids_;  // exited handlers awaiting join
  std::vector<int> conn_fds_;
  bool started_ = false;
};

// Blocking keep-alive HTTP/1.1 client. Methods throw npad::ResourceError on
// connect/IO failures (after one transparent reconnect attempt).
class HttpClient {
public:
  HttpClient(std::string host, int port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Returns the HTTP status code; *resp_body receives the response body.
  int get(const std::string& path, std::string* resp_body);
  int post(const std::string& path, const std::string& body, std::string* resp_body);

private:
  int request(const std::string& method, const std::string& path, const std::string& body,
              std::string* resp_body);
  int request_once(const std::string& method, const std::string& path,
                   const std::string& body, std::string* resp_body);
  void ensure_connected();
  void close_fd();

  std::string host_;
  int port_;
  int fd_ = -1;
};

// ------------------------------------------------- value <-> JSON encoding --

// "full" array encoding: {"elem","shape","data"}; scalars encode as numbers
// (f64/i64) or booleans. "summary" replaces array data with l2 norm + head.
Json value_to_json(const rt::Value& v, bool full);
rt::Value value_from_json(const Json& j);

} // namespace npad::serve
