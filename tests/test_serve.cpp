// Differential batching suite for the serving layer (src/serve/).
//
// The batcher's contract is that batching is an *execution strategy*, not a
// semantic change: with parallelism off, a batch of K heterogeneous requests
// executed through the stacked outer-map launch must be bit-exact against
// the same K requests run sequentially one-at-a-time on a plain interpreter.
// The suite checks that for every registered program, in both modes, across
// the batch-size edge cases K in {1, N-1, N, 2N+3}, plus mixed
// objective/jacobian batches, the empty-window pass-through path, per-request
// error isolation, and the batch-size/launch counters.
//
// Pattern: construct the batcher paused (start=false) with a single worker,
// submit all K requests, then start() — the worker drains the queue into
// groups of up to max_batch, so the grouping is deterministic and the
// counters can be asserted exactly.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"
#include "serve/batcher.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "support/error.hpp"

namespace {

using namespace npad;
using namespace npad::serve;
using rt::Value;

// Small workload dimensions so the full program x mode x K sweep stays fast
// (the batching semantics do not depend on the array extents).
SizeMap small_size(const std::string& name) {
  if (name == "gmm") return {{"n", 16}, {"d", 2}, {"k", 3}};
  if (name == "lstm") return {{"bs", 1}, {"n", 2}, {"d", 4}, {"h", 4}};
  if (name == "kmeans") return {{"n", 32}, {"d", 2}, {"k", 4}};
  if (name == "ba") return {{"cams", 2}, {"pts", 8}, {"obs", 8}};
  if (name == "hand") return {{"bones", 3}, {"verts", 8}};
  if (name == "mc_transport") return {{"nuclides", 2}, {"grid", 8}, {"lookups", 16}};
  return {};
}

uint64_t bits_of(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Bit-exact fingerprint of a result set: scalars as raw bits, arrays as
// shape + per-element bits (same idiom as test_fault.cpp).
std::vector<uint64_t> fingerprint(const std::vector<Value>& vals) {
  std::vector<uint64_t> fp;
  for (const auto& v : vals) {
    if (std::holds_alternative<double>(v)) {
      fp.push_back(bits_of(std::get<double>(v)));
    } else if (std::holds_alternative<int64_t>(v)) {
      fp.push_back(static_cast<uint64_t>(std::get<int64_t>(v)));
    } else if (std::holds_alternative<bool>(v)) {
      fp.push_back(std::get<bool>(v) ? 1 : 0);
    } else if (rt::is_array(v)) {
      const rt::ArrayVal& a = rt::as_array(v);
      for (int64_t s : a.shape) fp.push_back(static_cast<uint64_t>(s));
      const int64_t ne = a.elems();
      for (int64_t i = 0; i < ne; ++i) {
        if (a.elem == ir::ScalarType::F64) {
          fp.push_back(bits_of(a.get_f64(i)));
        } else {
          fp.push_back(static_cast<uint64_t>(a.get_i64(i)));
        }
      }
    }
  }
  return fp;
}

BatcherOptions test_opts(int max_batch, int64_t window_us) {
  BatcherOptions o;
  o.max_batch = max_batch;
  o.window_us = window_us;
  o.workers = 1;
  o.start = false;
  o.interp.parallel = false;  // bit-exactness is asserted with parallelism off
  return o;
}

// Runs K same-(program, mode, size) requests with distinct seeds through a
// paused batcher, compares each response bit-exact against a sequential
// interpreter with identical options, and returns the responses.
std::vector<Response> run_differential(const std::string& program, Mode mode, int K,
                                       const BatcherOptions& opts) {
  auto entry = Registry::global().find(program);
  if (entry == nullptr) {
    ADD_FAILURE() << "program not registered: " << program;
    return {};
  }
  const SizeMap size = small_size(program);

  Batcher batcher(opts);
  std::vector<std::future<Response>> futs;
  futs.reserve(static_cast<size_t>(K));
  for (int i = 0; i < K; ++i) {
    Request r;
    r.program = program;
    r.mode = mode;
    r.args = entry->make_args(mode, 1000 + static_cast<uint64_t>(i), size);
    futs.push_back(batcher.submit(std::move(r)));
  }
  batcher.start();

  rt::Interp ref(opts.interp);
  std::vector<Response> resps;
  for (int i = 0; i < K; ++i) {
    Response resp = futs[static_cast<size_t>(i)].get();
    EXPECT_TRUE(resp.ok()) << program << "/" << mode_name(mode) << " req " << i << ": "
                           << resp.error_kind << ": " << resp.error;
    // make_args is deterministic in (mode, seed, size): regenerate the same
    // request arguments for the sequential reference run.
    const auto args = entry->make_args(mode, 1000 + static_cast<uint64_t>(i), size);
    const auto expect = ref.run(entry->prog(mode), args);
    EXPECT_EQ(fingerprint(resp.results), fingerprint(expect))
        << program << "/" << mode_name(mode) << " req " << i
        << ": batched result diverged from the sequential run (K=" << K << ")";
    resps.push_back(std::move(resp));
  }
  return resps;
}

// ------------------------------------------------- the differential sweep --

class ServeDifferential : public ::testing::Test {
protected:
  static void SetUpTestSuite() { register_builtin_programs(); }
};

// Every registered program, both modes, K in {1, N-1, N, 2N+3} with N=4.
TEST_F(ServeDifferential, EveryProgramEveryModeEveryEdgeK) {
  constexpr int N = 4;
  for (const auto& name : Registry::global().names()) {
    for (Mode mode : {Mode::Objective, Mode::Jacobian}) {
      for (int K : {1, N - 1, N, 2 * N + 3}) {
        SCOPED_TRACE(name + "/" + mode_name(mode) + " K=" + std::to_string(K));
        run_differential(name, mode, K, test_opts(N, /*window_us=*/5000));
      }
    }
  }
}

// Batch-size and launch counters, asserted exactly on the deterministic
// paused-submit grouping (single worker drains the queue in FIFO order, so
// K=11 with N=4 must group as 4, 4, 3).
TEST_F(ServeDifferential, CountersSingleRequest) {
  BatcherOptions o = test_opts(4, 5000);
  Batcher b(o);
  auto entry = Registry::global().find("gmm");
  ASSERT_NE(entry, nullptr);
  Request r{"gmm", Mode::Objective, entry->make_args(Mode::Objective, 7, small_size("gmm"))};
  auto fut = b.submit(std::move(r));
  b.start();
  Response resp = fut.get();
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.batch_size, 1);
  EXPECT_EQ(b.stats().single_requests.load(), 1u);
  EXPECT_EQ(b.stats().stacked_batches.load(), 0u);
  EXPECT_EQ(b.stats().batches.load(), 1u);
  EXPECT_EQ(b.interp().stats().batched_prog_runs.load(), 0u);
}

TEST_F(ServeDifferential, CountersPartialAndFullAndSpillBatches) {
  struct Case {
    int K;
    std::vector<int> group_sizes;
  };
  for (const Case& c : {Case{3, {3}}, Case{4, {4}}, Case{11, {4, 4, 3}}}) {
    SCOPED_TRACE("K=" + std::to_string(c.K));
    BatcherOptions o = test_opts(4, 5000);
    Batcher b(o);
    auto entry = Registry::global().find("gmm");
    ASSERT_NE(entry, nullptr);
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < c.K; ++i) {
      Request r{"gmm", Mode::Objective,
                entry->make_args(Mode::Objective, static_cast<uint64_t>(i), small_size("gmm"))};
      futs.push_back(b.submit(std::move(r)));
    }
    b.start();
    std::vector<int> batch_sizes;
    for (auto& f : futs) {
      Response resp = f.get();
      ASSERT_TRUE(resp.ok()) << resp.error;
      batch_sizes.push_back(resp.batch_size);
    }
    // FIFO grouping: the first group_sizes[0] responses rode the first batch, etc.
    size_t at = 0;
    for (int gs : c.group_sizes) {
      for (int i = 0; i < gs; ++i, ++at) {
        EXPECT_EQ(batch_sizes[at], gs) << "response " << at;
      }
    }
    const auto& st = b.stats();
    EXPECT_EQ(st.requests.load(), static_cast<uint64_t>(c.K));
    EXPECT_EQ(st.responses_ok.load(), static_cast<uint64_t>(c.K));
    EXPECT_EQ(st.batches.load(), c.group_sizes.size());
    EXPECT_EQ(st.stacked_batches.load(), c.group_sizes.size());
    EXPECT_EQ(st.stacked_requests.load(), static_cast<uint64_t>(c.K));
    EXPECT_EQ(st.single_requests.load(), 0u);
    EXPECT_EQ(st.fallback_requests.load(), 0u);
    EXPECT_EQ(st.max_batch.load(),
              static_cast<uint64_t>(*std::max_element(c.group_sizes.begin(),
                                                      c.group_sizes.end())));
    // One run_batched launch per stacked group.
    EXPECT_EQ(b.interp().stats().batched_prog_runs.load(), c.group_sizes.size());
    EXPECT_EQ(b.interp().stats().batched_prog_requests.load(),
              static_cast<uint64_t>(c.K));
  }
}

// Mixed objective/jacobian submissions group by (program, mode) key: each
// mode forms its own stacked batch and both stay bit-exact.
TEST_F(ServeDifferential, MixedModeBatchesGroupSeparately) {
  BatcherOptions o = test_opts(8, 5000);
  Batcher b(o);
  auto entry = Registry::global().find("gmm");
  ASSERT_NE(entry, nullptr);
  const SizeMap size = small_size("gmm");
  std::vector<std::future<Response>> futs;
  std::vector<Mode> modes;
  for (int i = 0; i < 6; ++i) {
    const Mode m = (i % 2 == 0) ? Mode::Objective : Mode::Jacobian;
    modes.push_back(m);
    Request r{"gmm", m, entry->make_args(m, static_cast<uint64_t>(i), size)};
    futs.push_back(b.submit(std::move(r)));
  }
  b.start();
  rt::Interp ref(o.interp);
  for (size_t i = 0; i < futs.size(); ++i) {
    Response resp = futs[i].get();
    ASSERT_TRUE(resp.ok()) << "req " << i << ": " << resp.error;
    EXPECT_EQ(resp.batch_size, 3) << "req " << i;
    const auto args = entry->make_args(modes[i], static_cast<uint64_t>(i), size);
    EXPECT_EQ(fingerprint(resp.results), fingerprint(ref.run(entry->prog(modes[i]), args)))
        << "req " << i;
  }
  EXPECT_EQ(b.stats().stacked_batches.load(), 2u);
  EXPECT_EQ(b.stats().stacked_requests.load(), 6u);
}

// window_us=0 disables collection: a lone request passes straight through as
// a single execution without waiting for batchmates.
TEST_F(ServeDifferential, EmptyWindowSingleRequestPassThrough) {
  BatcherOptions o = test_opts(16, /*window_us=*/0);
  o.start = true;
  Batcher b(o);
  auto entry = Registry::global().find("kmeans");
  ASSERT_NE(entry, nullptr);
  const SizeMap size = small_size("kmeans");
  for (int i = 0; i < 3; ++i) {
    Response resp = b.execute(
        {"kmeans", Mode::Objective, entry->make_args(Mode::Objective, 50u + i, size)});
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.batch_size, 1);
    rt::Interp ref(o.interp);
    const auto args = entry->make_args(Mode::Objective, 50u + i, size);
    EXPECT_EQ(fingerprint(resp.results),
              fingerprint(ref.run(entry->prog(Mode::Objective), args)));
  }
  EXPECT_EQ(b.stats().single_requests.load(), 3u);
  EXPECT_EQ(b.stats().stacked_batches.load(), 0u);
}

// Unknown programs and arity/shape mismatches are rejected at submit with a
// typed error Response (the future still resolves; nothing is enqueued).
TEST_F(ServeDifferential, ValidationRejectsBadRequests) {
  BatcherOptions o = test_opts(4, 0);
  o.start = true;
  Batcher b(o);
  Response r1 = b.execute({"no_such_program", Mode::Objective, {}});
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.error_kind, "TypeError");

  auto entry = Registry::global().find("gmm");
  ASSERT_NE(entry, nullptr);
  auto args = entry->make_args(Mode::Objective, 1, small_size("gmm"));
  args.pop_back();  // wrong arity
  Response r2 = b.execute({"gmm", Mode::Objective, std::move(args)});
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.error_kind, "TypeError");
  EXPECT_EQ(b.stats().rejected.load(), 2u);
}

// ------------------------------------------------------- error isolation --
//
// A custom program whose failure is data-dependent: xs[i] with a per-request
// index argument. One poisoned request in a stacked batch must get the typed
// ShapeError while its batchmates still succeed bit-exact (the batcher falls
// back to per-request execution when the stacked launch fails).

void register_index_probe_once() {
  static const bool done = [] {
    ir::ProgBuilder pb("serve_index_probe");
    ir::Var xs = pb.param("xs", ir::arr_f64(1));
    ir::Var i = pb.param("i", ir::i64());
    ir::Builder& bb = pb.body();
    ir::Var elt = bb.index(xs, {ir::Atom(i)});
    ir::Prog p = pb.finish({ir::Atom(elt)});
    ir::typecheck(p);
    ProgramEntry e;
    e.name = "serve_index_probe";
    e.objective = p;
    e.jacobian = p;  // unused by this suite; any valid program will do
    e.default_size = {{"n", 4}};
    e.make_args = [](Mode, uint64_t seed, const SizeMap&) {
      std::vector<Value> args;
      args.push_back(rt::make_f64_array({0.5, 1.5, 2.5, 3.5}, {4}));
      args.push_back(static_cast<int64_t>(seed % 4));
      return args;
    };
    Registry::global().add(std::move(e));
    return true;
  }();
  (void)done;
}

TEST_F(ServeDifferential, StackedErrorIsolatedToTheFaultyRequest) {
  register_index_probe_once();
  BatcherOptions o = test_opts(4, 5000);
  Batcher b(o);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.program = "serve_index_probe";
    r.args.push_back(rt::make_f64_array({0.5, 1.5, 2.5, 3.5}, {4}));
    // Request 2 indexes out of bounds; the others are valid.
    r.args.push_back(static_cast<int64_t>(i == 2 ? 99 : i));
    futs.push_back(b.submit(std::move(r)));
  }
  b.start();
  for (int i = 0; i < 4; ++i) {
    Response resp = futs[static_cast<size_t>(i)].get();
    if (i == 2) {
      EXPECT_FALSE(resp.ok());
      EXPECT_EQ(resp.error_kind, "ShapeError") << resp.error;
      EXPECT_NE(resp.error.find("out of bounds"), std::string::npos) << resp.error;
    } else {
      ASSERT_TRUE(resp.ok()) << "req " << i << ": " << resp.error;
      ASSERT_EQ(resp.results.size(), 1u);
      EXPECT_EQ(std::get<double>(resp.results[0]), 0.5 + i);
    }
  }
  const auto& st = b.stats();
  EXPECT_EQ(st.fallback_requests.load(), 4u);  // whole group re-ran individually
  EXPECT_EQ(st.stacked_batches.load(), 0u);    // the stacked launch did not succeed
  EXPECT_EQ(st.responses_ok.load(), 3u);
  EXPECT_EQ(st.responses_error.load(), 1u);
}

// ------------------------------------------------------- HTTP round-trip --

TEST_F(ServeDifferential, HttpRoundTripMatchesSequentialRun) {
  register_index_probe_once();
  BatcherOptions bo = test_opts(4, 0);
  bo.start = true;
  Batcher b(bo);
  HttpOptions ho;
  ho.port = 0;  // ephemeral
  HttpServer server(b, ho);
  server.start();
  ASSERT_GT(server.port(), 0);

  HttpClient client("127.0.0.1", server.port());
  std::string body;
  EXPECT_EQ(client.get("/healthz", &body), 200);
  EXPECT_NE(body.find("\"ok\":true"), std::string::npos) << body;

  EXPECT_EQ(client.get("/v1/programs", &body), 200);
  EXPECT_NE(body.find("\"gmm\""), std::string::npos) << body;

  // Server-side synthesized args (seed path): the objective value must match
  // a local sequential run on the same deterministic arguments bit-exact
  // (the %.17g encoding round-trips doubles exactly).
  EXPECT_EQ(client.post("/v1/run",
                        "{\"program\":\"gmm\",\"seed\":42,"
                        "\"size\":{\"n\":16,\"d\":2,\"k\":3}}",
                        &body),
            200);
  Json resp = Json::parse(body);
  ASSERT_NE(resp.get("ok"), nullptr) << body;
  EXPECT_TRUE(resp.get("ok")->b) << body;
  ASSERT_NE(resp.get("results"), nullptr) << body;
  ASSERT_EQ(resp.get("results")->arr.size(), 1u);
  auto entry = Registry::global().find("gmm");
  rt::Interp ref(bo.interp);
  const auto args = entry->make_args(Mode::Objective, 42, small_size("gmm"));
  const auto expect = ref.run(entry->prog(Mode::Objective), args);
  EXPECT_EQ(bits_of(resp.get("results")->arr[0].num),
            bits_of(std::get<double>(expect[0])));

  // Inline args round-trip through the JSON value encoding.
  EXPECT_EQ(client.post("/v1/run",
                        "{\"program\":\"serve_index_probe\",\"args\":["
                        "{\"shape\":[4],\"data\":[0.5,1.5,2.5,3.5]},"
                        "{\"elem\":\"i64\",\"value\":3}]}",
                        &body),
            200);
  Json r2 = Json::parse(body);
  ASSERT_NE(r2.get("results"), nullptr) << body;
  EXPECT_EQ(r2.get("results")->arr[0].num, 3.5);

  // Bad requests surface as HTTP 400 with the typed error kind.
  EXPECT_EQ(client.post("/v1/run", "{\"program\":\"no_such\"}", &body), 400);
  EXPECT_NE(body.find("TypeError"), std::string::npos) << body;
  EXPECT_EQ(client.post("/v1/run", "not json", &body), 400);

  EXPECT_EQ(client.get("/v1/stats", &body), 200);
  EXPECT_NE(body.find("serve_requests"), std::string::npos) << body;

  server.stop();
  b.stop();
}

// Typed statuses: a body over max_body is answered 413 before the server
// closes the connection, and a stopped batcher's ResourceError is 503.
TEST_F(ServeDifferential, HttpOversizedBodyIs413AndStoppedBatcherIs503) {
  BatcherOptions bo = test_opts(4, 0);
  bo.start = true;
  Batcher b(bo);
  HttpOptions ho;
  ho.port = 0;
  ho.max_body = 1024;
  HttpServer server(b, ho);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const std::string run = R"({"program":"gmm","seed":3,"size":{"n":16,"d":2,"k":3}})";
  std::string body;

  EXPECT_EQ(client.post("/v1/run", run + std::string(4 * ho.max_body, ' '), &body), 413);
  EXPECT_NE(body.find("too large"), std::string::npos) << body;
  // The same client reconnects and is served normally.
  EXPECT_EQ(client.post("/v1/run", run, &body), 200) << body;

  b.stop();
  EXPECT_EQ(client.post("/v1/run", run, &body), 503) << body;
  EXPECT_NE(body.find("ResourceError"), std::string::npos) << body;
  EXPECT_EQ(client.get("/healthz", &body), 200);
  server.stop();
}

// Sends `raw` on a fresh connection to 127.0.0.1:`port` and returns every
// byte the server answers until it closes (or a 5 s read timeout expires).
std::string raw_exchange(int port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string got;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(raw.size())) {
    char chunk[4096];
    for (ssize_t r; (r = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
      got.append(chunk, static_cast<size_t>(r));
    }
  }
  ::close(fd);
  return got;
}

// Malformed request framing — a Content-Length that is empty, not all
// digits or given twice with different values, or any Transfer-Encoding —
// is answered 400 and the connection closes: the body's extent is unknown,
// so no request, and in particular no request smuggled inside the body,
// reaches the batcher.
TEST_F(ServeDifferential, HttpMalformedFramingIs400AndNothingIsDispatched) {
  BatcherOptions bo = test_opts(4, 0);
  bo.start = true;
  Batcher b(bo);
  HttpOptions ho;
  ho.port = 0;
  HttpServer server(b, ho);
  server.start();
  const std::string run = R"({"program":"gmm","seed":3,"size":{"n":16,"d":2,"k":3}})";
  const std::string len = std::to_string(run.size());
  const std::string post = "POST /v1/run HTTP/1.1\r\nHost: t\r\n";
  // A complete, valid request: read as the next message if the framing
  // were taken as a zero-length body.
  const std::string smuggled = post + "Content-Length: " + len + "\r\n\r\n" + run;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"non-digit", post + "Content-Length: abc\r\n\r\n" + smuggled},
      {"empty", post + "Content-Length:\r\n\r\n" + smuggled},
      {"digit prefix", post + "Content-Length: " + len + "x\r\n\r\n" + run},
      {"conflicting duplicates",
       post + "Content-Length: " + len + "\r\nContent-Length: 0\r\n\r\n" + run},
      {"transfer-encoding",
       post + "Transfer-Encoding: chunked\r\nContent-Length: " + len + "\r\n\r\n" + run},
  };
  for (const auto& [what, raw] : cases) {
    const std::string got = raw_exchange(server.port(), raw);
    EXPECT_EQ(got.rfind("HTTP/1.1 400", 0), 0u) << what << ": " << got;
    EXPECT_NE(got.find("malformed request framing"), std::string::npos) << what << ": " << got;
    EXPECT_EQ(got.find("HTTP/1.1", 1), std::string::npos) << what << ": one answer only";
  }
  EXPECT_EQ(b.stats().requests.load(), 0u);

  // Identical duplicates and surrounding whitespace are well-formed.
  const std::string ok = raw_exchange(
      server.port(), post + "Connection: close\r\nContent-Length: " + len +
                         " \r\ncontent-length:\t" + len + "\r\n\r\n" + run);
  EXPECT_EQ(ok.rfind("HTTP/1.1 200", 0), 0u) << ok;
  EXPECT_EQ(b.stats().requests.load(), 1u);
  server.stop();
  b.stop();
}

} // namespace
