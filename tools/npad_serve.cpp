// npad_serve: gradient-serving HTTP front-end. Registers the built-in
// AD-compiled programs, stands up the cross-request batcher and the
// blocking-socket HTTP server, and runs until SIGINT/SIGTERM.
//
//   ./npad_serve [--host A] [--port P] [--max-batch N] [--window-us U]
//                [--workers W]
//
// --window-us is the longest a group is held open for batchmates, and a
// group is held only while another worker is executing: an idle server
// launches every request at once. See src/serve/README.md for the API and
// batching semantics.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/batcher.hpp"
#include "serve/http.hpp"
#include "serve/registry.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host A] [--port P] [--max-batch N] [--window-us U]\n"
               "          [--workers W]\n"
               "  --window-us U  hold a group for batchmates up to U us, only while\n"
               "                 another worker is executing (default 1000)\n",
               argv0);
  std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
  npad::serve::BatcherOptions bopts;
  npad::serve::HttpOptions hopts;
  hopts.host = "127.0.0.1";
  hopts.port = 8080;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--host") hopts.host = next();
    else if (a == "--port") hopts.port = std::atoi(next());
    else if (a == "--max-batch") bopts.max_batch = std::atoi(next());
    else if (a == "--window-us") bopts.window_us = std::atoll(next());
    else if (a == "--workers") bopts.workers = std::atoi(next());
    else usage(argv[0]);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::fprintf(stderr, "npad_serve: compiling registered programs...\n");
  npad::serve::register_builtin_programs();
  std::string names;
  for (const auto& n : npad::serve::Registry::global().names()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  std::fprintf(stderr, "npad_serve: programs: %s\n", names.c_str());

  npad::serve::Batcher batcher(bopts);
  npad::serve::HttpServer server(batcher, hopts);
  server.start();
  std::fprintf(stderr,
               "npad_serve: listening on %s:%d (max_batch=%d window_us=%lld workers=%d)\n",
               hopts.host.c_str(), server.port(), bopts.max_batch,
               static_cast<long long>(bopts.window_us), bopts.workers);
  std::fflush(stderr);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "npad_serve: shutting down\n");
  server.stop();
  batcher.stop();
  return 0;
}
