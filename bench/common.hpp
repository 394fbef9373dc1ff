#pragma once

// Shared harness for the paper-table benchmark binaries. Each binary
// registers its measurements as google-benchmark benchmarks, runs them under
// a collecting reporter, and then prints the corresponding paper table with
// the paper's published value next to the measured one.
//
// NPAD_SCALE (environment, default 1) multiplies the workload sizes; all
// shipped defaults are laptop-scale (the runtime substrate is an interpreter
// standing in for the paper's GPU backend — see src/runtime/README.md).
//
// Besides the human-readable tables, each binary writes BENCH_<name>.json
// (benchmark timings + interpreter stats counters) for cross-PR tracking.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/buffer_pool.hpp"
#include "support/table.hpp"

namespace npad::bench {

// The program serving runs (serve/registry.cpp's recipe): opt::optimize, then
// typecheck. Differentiate before optimizing — the AD passes reject fused
// forms.
inline ir::Prog serving_artifact(const ir::Prog& p) {
  ir::Prog q = opt::optimize(p);
  ir::typecheck(q);
  return q;
}

struct Measurement {
  double mean_ms = 0.0;
  double stddev_ms = 0.0;  // sample stddev across repetition means
  int64_t iterations = 0;  // total iterations summed over repetitions
  // Accumulation state across repetitions (per-iteration ms of each rep).
  double sum_ms = 0.0;
  double sumsq_ms = 0.0;
  int64_t samples = 0;
};

class Collector : public benchmark::BenchmarkReporter {
public:
  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      if (run.error_occurred) continue;
      // Aggregate rows (mean/median/stddev/cv) are derived from the same
      // repetition runs we already fold in below; skip them so they do not
      // double-count.
      if (run.run_type == Run::RT_Aggregate) continue;
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      // Strip decoration suffixes like "/min_time:0.050".
      std::string name = run.benchmark_name();
      if (auto pos = name.find("/min_time"); pos != std::string::npos) name.resize(pos);
      if (auto pos = name.find("/repeats"); pos != std::string::npos) name.resize(pos);
      auto& m = runs_[name];
      const double per_iter_ms = 1e3 * run.real_accumulated_time / iters;
      m.sum_ms += per_iter_ms;
      m.sumsq_ms += per_iter_ms * per_iter_ms;
      m.samples += 1;
      m.iterations += run.iterations;
      m.mean_ms = m.sum_ms / static_cast<double>(m.samples);
      // Sample stddev over repetition means; 0 until a second repetition
      // lands (the default repetition count below guarantees one does).
      m.stddev_ms =
          m.samples > 1
              ? std::sqrt(std::max(0.0, (m.sumsq_ms - m.sum_ms * m.sum_ms /
                                                          static_cast<double>(m.samples)) /
                                            static_cast<double>(m.samples - 1)))
              : 0.0;
    }
  }

  double ms(const std::string& name) const {
    auto it = runs_.find(name);
    return it == runs_.end() ? 0.0 : it->second.mean_ms;
  }

  const std::map<std::string, Measurement>& runs() const { return runs_; }

private:
  std::map<std::string, Measurement> runs_;
};

inline int64_t scale_factor() {
  if (const char* e = std::getenv("NPAD_SCALE")) {
    const int64_t v = std::atoll(e);
    if (v > 0) return v;
  }
  return 1;
}

// Runs all registered benchmarks and returns the collected timings. A
// caller-provided --benchmark_repetitions always wins; otherwise every
// benchmark runs `default_repetitions` repetitions: that is what makes the
// reported stddev real (sample stddev across repetition means) and floors
// the reported iteration count, so slow entries stop showing up as
// unrepeatable "n: 1" points in the BENCH JSON trajectory.
inline Collector run_benchmarks(int argc, char** argv, int default_repetitions = 3) {
  std::vector<char*> args(argv, argv + argc);
  bool has_reps = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_repetitions", 0) == 0) has_reps = true;
  static std::string reps_flag;
  if (!has_reps && default_repetitions > 0) {
    reps_flag = "--benchmark_repetitions=" + std::to_string(default_repetitions);
    args.push_back(reps_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  Collector c;
  benchmark::RunSpecifiedBenchmarks(&c);
  return c;
}

inline std::string ratio(double num, double den, int prec = 2) {
  if (den <= 0) return "-";
  return support::Table::fmt(num / den, prec) + "x";
}

// Writes BENCH_<name>.json next to the human-readable table so the perf
// trajectory is machine-trackable across PRs: per-benchmark mean/stddev/
// iteration counts plus any runtime counters (e.g. rt::InterpStats::counters).
// Buffer-pool live-footprint counters are always included, so a leak
// regression (outstanding buffers surviving a run) shows up in the
// trajectory, not just in the fault-injection tests.
inline void write_bench_json(const std::string& name,
                             const std::map<std::string, Measurement>& rows,
                             std::map<std::string, uint64_t> counters = {}) {
  const rt::BufferPool::Counters pc = rt::BufferPool::global().stats();
  counters["pool_outstanding_bytes"] = pc.outstanding_bytes;
  counters["pool_outstanding_buffers"] = pc.outstanding_buffers;
  counters["pool_retained_bytes"] = pc.retained_bytes;
  auto esc = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::ofstream os("BENCH_" + name + ".json");
  os << "{\n  \"benchmark\": \"" << esc(name) << "\",\n";
  os << "  \"scale\": " << scale_factor() << ",\n";
  os << "  \"results\": [";
  bool first = true;
  for (const auto& [bname, m] : rows) {
    os << (first ? "" : ",") << "\n    {\"name\": \"" << esc(bname) << "\", \"n\": "
       << m.iterations << ", \"mean_ms\": " << m.mean_ms << ", \"stddev\": " << m.stddev_ms
       << "}";
    first = false;
  }
  os << "\n  ],\n  \"counters\": {";
  first = true;
  for (const auto& [cname, v] : counters) {
    os << (first ? "" : ",") << "\n    \"" << esc(cname) << "\": " << v;
    first = false;
  }
  os << "\n  }\n}\n";
}

inline void write_bench_json(const std::string& name, const Collector& col,
                             std::map<std::string, uint64_t> counters = {}) {
  write_bench_json(name, col.runs(), std::move(counters));
}

} // namespace npad::bench
