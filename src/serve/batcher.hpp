#pragma once

// Cross-request batching executor. Clients submit objective/jacobian
// requests for registered programs and get a future<Response>; worker
// threads group compatible requests (same program, mode and argument
// shapes), hold a group open for batchmates only while another launch is
// in flight (see Window semantics), and execute the group as ONE stacked
// outer-map launch through rt::Interp::run_batched (runtime/batch.hpp).
// Results are de-stacked per request, and errors are isolated per request: a
// failing stacked launch falls back to per-request execution so the typed
// npad::Error lands on the request that caused it and its batchmates still
// succeed.
//
// Window semantics (work-conserving): a worker that takes a group while no
// other launch is in flight launches it at once, with every request of that
// key already queued — batching never delays work an idle executor could
// start. While at least one other worker is executing, the group is held
// open up to window_us from its FIRST enqueue and launches early when it
// reaches max_batch, when every in-flight launch finishes, or on stop().
// A one-worker batcher therefore never holds a group, and a lone
// closed-loop client pays no window; window_us=0 disables holding
// altogether.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/interp.hpp"
#include "serve/registry.hpp"

namespace npad::serve {

struct Request {
  std::string program;
  Mode mode = Mode::Objective;
  std::vector<rt::Value> args;
};

struct Response {
  std::vector<rt::Value> results;
  std::string error_kind;  // empty <=> success ("TypeError", "KernelError", ...)
  std::string error;       // full message incl. IR context trace
  int batch_size = 0;      // size of the executed group this request rode in
  double queue_wait_ms = 0.0;  // enqueue -> batch execution start
  double exec_ms = 0.0;        // execution time of the whole group

  bool ok() const { return error_kind.empty(); }
};

// InterpStats-style counters for the serving layer (atomics; counters() maps
// into bench JSON / the /v1/stats endpoint).
struct ServeStats {
  std::atomic<uint64_t> requests{0};           // submitted requests
  std::atomic<uint64_t> responses_ok{0};
  std::atomic<uint64_t> responses_error{0};
  std::atomic<uint64_t> rejected{0};           // failed validation at submit
  std::atomic<uint64_t> batches{0};            // executed groups (any size)
  std::atomic<uint64_t> stacked_batches{0};    // groups run as one stacked launch (B>1)
  std::atomic<uint64_t> stacked_requests{0};   // requests that rode a stacked launch
  std::atomic<uint64_t> single_requests{0};    // pass-through single executions
  std::atomic<uint64_t> fallback_requests{0};  // per-request re-runs after a stacked error
  std::atomic<uint64_t> max_batch{0};          // largest group observed
  std::atomic<uint64_t> queue_wait_us{0};      // summed per-request queue wait
  std::atomic<uint64_t> exec_us{0};            // summed per-group execution time

  std::map<std::string, uint64_t> counters() const {
    return {
        {"serve_requests", requests.load()},
        {"serve_responses_ok", responses_ok.load()},
        {"serve_responses_error", responses_error.load()},
        {"serve_rejected", rejected.load()},
        {"serve_batches", batches.load()},
        {"serve_stacked_batches", stacked_batches.load()},
        {"serve_stacked_requests", stacked_requests.load()},
        {"serve_single_requests", single_requests.load()},
        {"serve_fallback_requests", fallback_requests.load()},
        {"serve_max_batch", max_batch.load()},
        {"serve_queue_wait_us", queue_wait_us.load()},
        {"serve_exec_us", exec_us.load()},
    };
  }
};

struct BatcherOptions {
  int max_batch = 16;      // N: largest stacked group
  int64_t window_us = 1000;  // longest hold from a group's first enqueue
  int workers = 2;         // batch-executing worker threads
  bool start = true;       // false: construct paused; call start() explicitly
  rt::InterpOptions interp;
};

class Batcher {
public:
  explicit Batcher(BatcherOptions opts = {});
  ~Batcher();
  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  void start();
  // Signals workers, drains the queue (remaining requests still execute),
  // joins. Requests submitted after stop() are rejected with ResourceError.
  void stop();

  // Never throws npad errors: validation or execution failures come back as
  // an error Response through the future.
  std::future<Response> submit(Request r);

  // submit + get.
  Response execute(Request r) { return submit(std::move(r)).get(); }

  const ServeStats& stats() const { return stats_; }
  const rt::Interp& interp() const { return interp_; }
  const BatcherOptions& options() const { return opts_; }

private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request req;
    std::shared_ptr<const ProgramEntry> entry;
    std::promise<Response> prom;
    Clock::time_point t_enq;
    std::string key;  // grouping key: program | mode | arg signature
  };

  void worker_loop();
  // Moves up to (max_batch - batch.size()) queued requests with `key` into
  // `batch`. Caller holds mu_.
  void take_matching_locked(std::vector<Pending>& batch, const std::string& key);
  void exec_batch(std::vector<Pending> batch);

  BatcherOptions opts_;
  rt::Interp interp_;
  ServeStats stats_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  uint64_t submit_seq_ = 0;  // bumped per enqueue; wakes window waiters
  int busy_ = 0;             // workers inside exec_batch; holds last while > 0
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool stop_ = false;
};

} // namespace npad::serve
