// Closed-loop load generator for the gradient-serving front-end.
//
// Default mode stands up an in-process server (Batcher + HttpServer on an
// ephemeral port), drives it with 1, 8 and 64 concurrent closed-loop HTTP
// clients for NPAD_SERVE_BENCH_MS per level (default 1000), and reports
// p50/p99/mean request latency and requests/sec — then writes
// BENCH_serving.json with the latency rows plus the serve + interpreter
// counters (batch sizes, stacked launches, per-request launch counts).
//
// Batching is work-conserving: a lone closed-loop client finds every worker
// idle and its request launches at once, so c1 measures the bare request
// path (HTTP, JSON, one launch). Under 8 and 64 clients, requests that
// arrive while a launch is in flight ride max_batch-sized groups that
// execute as ONE stacked launch each.
//
// Aux modes for the CI smoke:
//   bench_serving --ping host:port      exit 0 iff GET /healthz answers ok
//   bench_serving --connect host:port   drive an EXTERNAL server (no JSON)
//
// Not a google-benchmark binary: a closed-loop multi-client driver measures
// its own wall-clock percentiles; it only shares common.hpp's JSON writer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/batcher.hpp"
#include "serve/http.hpp"
#include "serve/registry.hpp"
#include "support/error.hpp"

namespace {

using namespace npad;
using npad::bench::Measurement;

using Clock = std::chrono::steady_clock;

int64_t bench_ms() {
  if (const char* e = std::getenv("NPAD_SERVE_BENCH_MS")) {
    const int64_t v = std::atoll(e);
    if (v > 0) return v;
  }
  return 1000;
}

// Small gmm request: the batching economics (window amortization), not the
// objective's FLOPs, are what this bench measures.
std::string request_body(uint64_t seed) {
  // ~3:1 objective:jacobian mix.
  const char* mode = (seed % 4 == 3) ? "jacobian" : "objective";
  return "{\"program\":\"gmm\",\"mode\":\"" + std::string(mode) +
         "\",\"seed\":" + std::to_string(seed) +
         ",\"size\":{\"n\":16,\"d\":2,\"k\":3},\"return\":\"summary\"}";
}

struct LoadResult {
  std::vector<double> latencies_ms;  // sorted
  uint64_t requests = 0;
  uint64_t errors = 0;
  double elapsed_s = 0.0;
  double req_per_s = 0.0;
};

// `clients` closed-loop threads, each with its own keep-alive connection,
// hammering POST /v1/run for `duration_ms`.
LoadResult run_load(const std::string& host, int port, int clients, int64_t duration_ms) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
  std::vector<uint64_t> errs(static_cast<size_t>(clients), 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::HttpClient cli(host, port);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto deadline = Clock::now() + std::chrono::milliseconds(duration_ms);
        uint64_t seed = static_cast<uint64_t>(c) * 1000003;
        std::string resp;
        while (Clock::now() < deadline) {
          const std::string body = request_body(seed++);
          const auto t0 = Clock::now();
          const int status = cli.post("/v1/run", body, &resp);
          const auto t1 = Clock::now();
          lat[static_cast<size_t>(c)].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          if (status != 200 || resp.find("\"ok\":true") == std::string::npos) {
            ++errs[static_cast<size_t>(c)];
          }
        }
      } catch (const npad::Error& e) {
        std::fprintf(stderr, "client %d: %s\n", c, e.what());
        ++errs[static_cast<size_t>(c)];
      }
    });
  }
  const auto t_start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const auto t_end = Clock::now();

  LoadResult r;
  for (int c = 0; c < clients; ++c) {
    r.latencies_ms.insert(r.latencies_ms.end(), lat[static_cast<size_t>(c)].begin(),
                          lat[static_cast<size_t>(c)].end());
    r.errors += errs[static_cast<size_t>(c)];
  }
  std::sort(r.latencies_ms.begin(), r.latencies_ms.end());
  r.requests = r.latencies_ms.size();
  r.elapsed_s = std::chrono::duration<double>(t_end - t_start).count();
  r.req_per_s = r.elapsed_s > 0 ? static_cast<double>(r.requests) / r.elapsed_s : 0.0;
  return r;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t i = std::min(sorted.size() - 1,
                            static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[i];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Sample stddev across per-request latencies — the real spread of the
// measured distribution, not a repetition artifact.
double sample_stddev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

Measurement row(double value_ms, uint64_t n, double stddev_ms = 0.0) {
  Measurement m;
  m.mean_ms = value_ms;
  m.stddev_ms = stddev_ms;
  m.iterations = static_cast<int64_t>(n);
  return m;
}

// Returns the per-level req/s keyed by client count; fills rows/counters.
std::map<int, double> drive(const std::string& host, int port,
                            std::map<std::string, Measurement>* rows,
                            std::map<std::string, uint64_t>* counters) {
  const int64_t dur = bench_ms();
  std::map<int, double> rates;
  for (int clients : {1, 8, 64}) {
    const LoadResult r = run_load(host, port, clients, dur);
    if (r.requests == 0 || r.errors > 0) {
      std::fprintf(stderr, "c%d: %llu requests, %llu errors — serving bench failed\n",
                   clients, static_cast<unsigned long long>(r.requests),
                   static_cast<unsigned long long>(r.errors));
      std::exit(1);
    }
    const double p50 = percentile(r.latencies_ms, 0.50);
    const double p99 = percentile(r.latencies_ms, 0.99);
    std::printf("c%-3d %8llu req in %.2fs  %9.1f req/s  p50 %7.3f ms  p99 %7.3f ms  mean %7.3f ms\n",
                clients, static_cast<unsigned long long>(r.requests), r.elapsed_s,
                r.req_per_s, p50, p99, mean(r.latencies_ms));
    rates[clients] = r.req_per_s;
    const std::string pre = "serve_c" + std::to_string(clients);
    if (rows) {
      const double sd = sample_stddev(r.latencies_ms);
      (*rows)[pre + "/latency_p50_ms"] = row(p50, r.requests, sd);
      (*rows)[pre + "/latency_p99_ms"] = row(p99, r.requests, sd);
      (*rows)[pre + "/latency_mean_ms"] = row(mean(r.latencies_ms), r.requests, sd);
    }
    if (counters) {
      (*counters)[pre + "_requests"] = r.requests;
      (*counters)[pre + "_req_per_s"] = static_cast<uint64_t>(r.req_per_s);
    }
  }
  return rates;
}

bool split_hostport(const char* arg, std::string* host, int* port) {
  const char* colon = std::strrchr(arg, ':');
  if (!colon) return false;
  *host = std::string(arg, colon);
  *port = std::atoi(colon + 1);
  return *port > 0;
}

} // namespace

int main(int argc, char** argv) {
  std::string host;
  int port = 0;

  if (argc >= 3 && std::string(argv[1]) == "--ping") {
    if (!split_hostport(argv[2], &host, &port)) return 2;
    try {
      npad::serve::HttpClient cli(host, port);
      std::string body;
      return (cli.get("/healthz", &body) == 200 &&
              body.find("\"ok\":true") != std::string::npos)
                 ? 0
                 : 1;
    } catch (const npad::Error&) {
      return 1;
    }
  }

  if (argc >= 3 && std::string(argv[1]) == "--connect") {
    // External-server mode (CI smoke against a real npad_serve process):
    // drive the load levels, print the table, no JSON (the counters live in
    // the server process).
    if (!split_hostport(argv[2], &host, &port)) return 2;
    const auto rates = drive(host, port, nullptr, nullptr);
    std::printf("speedup c64 vs c1: %.2fx\n", rates.at(64) / rates.at(1));
    return 0;
  }

  // In-process mode: ephemeral server, load levels, BENCH_serving.json.
  npad::serve::register_builtin_programs();
  npad::serve::BatcherOptions bo;  // defaults: max_batch=16, window_us=1000, workers=2
  npad::serve::Batcher batcher(bo);
  npad::serve::HttpOptions ho;
  ho.port = 0;
  npad::serve::HttpServer server(batcher, ho);
  server.start();
  std::printf("in-process server on 127.0.0.1:%d (max_batch=%d window_us=%lld workers=%d)\n",
              server.port(), bo.max_batch, static_cast<long long>(bo.window_us), bo.workers);

  // Warm the program/kernel/batched-prog caches before measuring.
  {
    npad::serve::HttpClient warm("127.0.0.1", server.port());
    std::string resp;
    for (uint64_t s = 0; s < 8; ++s) warm.post("/v1/run", request_body(s), &resp);
  }

  std::map<std::string, Measurement> rows;
  std::map<std::string, uint64_t> counters;
  const auto rates = drive("127.0.0.1", server.port(), &rows, &counters);
  const double speedup = rates.at(64) / rates.at(1);
  std::printf("speedup c64 vs c1: %.2fx (acceptance floor: 3x)\n", speedup);
  counters["serving_speedup_c64_vs_c1_x100"] = static_cast<uint64_t>(speedup * 100.0);

  for (const auto& [k, v] : batcher.stats().counters()) counters[k] = v;
  for (const auto& [k, v] : batcher.interp().stats().counters()) counters[k] = v;
  npad::bench::write_bench_json("serving", rows, counters);

  server.stop();
  batcher.stop();
  return 0;
}
