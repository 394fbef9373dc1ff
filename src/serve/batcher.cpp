#include "serve/batcher.hpp"

#include <algorithm>
#include <variant>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace npad::serve {

using rt::Value;

namespace {

char scalar_char(ir::ScalarType t) {
  switch (t) {
    case ir::ScalarType::F64: return 'f';
    case ir::ScalarType::I64: return 'i';
    case ir::ScalarType::Bool: return 'b';
  }
  return '?';
}

// Validates `args` against the program's parameter list (rt::check_args)
// and builds the grouping key: requests stack only when program, mode and
// every argument signature (including concrete shapes) agree, so a shape
// mismatch forms its own group instead of poisoning a batch.
std::string validate_and_key(const ProgramEntry& entry, const Request& r) {
  const ir::Prog& prog = entry.prog(r.mode);
  rt::check_args(prog, r.args);
  std::string key = entry.name;
  key += r.mode == Mode::Objective ? "|o" : "|j";
  for (size_t i = 0; i < r.args.size(); ++i) {
    const ir::Type& t = prog.fn.params[i].type;
    key += '|';
    key += scalar_char(t.elem);
    if (t.rank == 0) continue;
    for (int64_t d : rt::as_array(r.args[i]).shape) {
      key += 'x';
      key += std::to_string(d);
    }
  }
  return key;
}

} // namespace

Batcher::Batcher(BatcherOptions opts) : opts_(opts), interp_(opts.interp) {
  if (opts_.max_batch < 1) opts_.max_batch = 1;
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.start) start();
}

Batcher::~Batcher() { stop(); }

void Batcher::start() {
  std::lock_guard lk(mu_);
  if (started_ || stop_) return;
  started_ = true;
  threads_.reserve(static_cast<size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void Batcher::stop() {
  {
    std::lock_guard lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  // Never-started batcher (or a race straggler): reject what is left.
  std::deque<Pending> leftovers;
  {
    std::lock_guard lk(mu_);
    leftovers.swap(queue_);
  }
  for (auto& p : leftovers) {
    Response resp;
    resp.error_kind = "ResourceError";
    resp.error = "ResourceError: batcher stopped before the request executed";
    stats_.responses_error.fetch_add(1, std::memory_order_relaxed);
    p.prom.set_value(std::move(resp));
  }
}

std::future<Response> Batcher::submit(Request r) {
  std::promise<Response> prom;
  std::future<Response> fut = prom.get_future();
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  try {
    NPAD_FAULT_SITE("serve.enqueue", FaultKind::Alloc);
    auto entry = Registry::global().find(r.program);
    if (!entry) throw TypeError("unknown program '" + r.program + "'");
    Pending p;
    p.key = validate_and_key(*entry, r);
    p.entry = std::move(entry);
    p.req = std::move(r);
    p.t_enq = Clock::now();
    {
      std::lock_guard lk(mu_);
      if (stop_) throw ResourceError("batcher is stopped");
      p.prom = std::move(prom);
      queue_.push_back(std::move(p));
      ++submit_seq_;
    }
    cv_.notify_all();
  } catch (const npad::Error& e) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    stats_.responses_error.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.error_kind = e.kind();
    resp.error = e.what();
    prom.set_value(std::move(resp));
  }
  return fut;
}

void Batcher::take_matching_locked(std::vector<Pending>& batch, const std::string& key) {
  for (auto it = queue_.begin();
       it != queue_.end() && static_cast<int>(batch.size()) < opts_.max_batch;) {
    if (it->key == key) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void Batcher::worker_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    std::vector<Pending> batch;
    const std::string key = queue_.front().key;
    const Clock::time_point first_enq = queue_.front().t_enq;
    take_matching_locked(batch, key);
    if (opts_.window_us > 0) {
      // Work-conserving hold: wait for batchmates only while another launch
      // is in flight. The hold ends when the group fills, the window (from
      // its FIRST request's enqueue) expires, every in-flight launch
      // finishes, or stop() is called. Waits also wake on each submit, so
      // other workers freely drain non-matching groups in the meantime.
      const auto deadline = first_enq + std::chrono::microseconds(opts_.window_us);
      while (static_cast<int>(batch.size()) < opts_.max_batch && busy_ > 0 && !stop_) {
        const uint64_t seq = submit_seq_;
        if (!cv_.wait_until(lk, deadline,
                            [&] { return stop_ || busy_ == 0 || submit_seq_ != seq; })) {
          break;  // window expired
        }
        take_matching_locked(batch, key);
      }
    }
    ++busy_;
    lk.unlock();
    exec_batch(std::move(batch));
    lk.lock();
    if (--busy_ == 0) cv_.notify_all();  // release every holder
  }
}

void Batcher::exec_batch(std::vector<Pending> batch) {
  const int b = static_cast<int>(batch.size());
  if (b == 0) return;
  const Clock::time_point t_start = Clock::now();

  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev_max = stats_.max_batch.load(std::memory_order_relaxed);
  while (static_cast<uint64_t>(b) > prev_max &&
         !stats_.max_batch.compare_exchange_weak(prev_max, static_cast<uint64_t>(b),
                                                 std::memory_order_relaxed)) {
  }

  std::vector<Response> resps(static_cast<size_t>(b));
  uint64_t wait_us_total = 0;
  for (int i = 0; i < b; ++i) {
    const auto wait =
        std::chrono::duration_cast<std::chrono::microseconds>(t_start - batch[i].t_enq);
    resps[i].queue_wait_ms = static_cast<double>(wait.count()) / 1e3;
    resps[i].batch_size = b;
    wait_us_total += static_cast<uint64_t>(wait.count());
  }
  stats_.queue_wait_us.fetch_add(wait_us_total, std::memory_order_relaxed);

  const ProgramEntry& entry = *batch[0].entry;
  const ir::Prog& prog = entry.prog(batch[0].req.mode);

  auto fail = [&](int i, const npad::Error& err) {
    resps[i].results.clear();
    resps[i].error_kind = err.kind();
    resps[i].error = err.what();
  };

  if (b == 1) {
    stats_.single_requests.fetch_add(static_cast<uint64_t>(b), std::memory_order_relaxed);
    for (int i = 0; i < b; ++i) {
      try {
        resps[i].results = interp_.run(prog, batch[i].req.args);
      } catch (const npad::Error& err) {
        fail(i, err);
      }
    }
  } else {
    std::vector<std::vector<Value>> argsv;
    argsv.reserve(static_cast<size_t>(b));
    for (auto& p : batch) argsv.push_back(std::move(p.req.args));

    bool stacked_ok = false;
    std::vector<std::vector<Value>> outs;
    std::string batch_err_kind, batch_err;
    try {
      outs = interp_.run_batched(prog, argsv);
      stacked_ok = true;
    } catch (const npad::Error& err) {
      batch_err_kind = err.kind();
      batch_err = err.what();
    }

    if (stacked_ok) {
      stats_.stacked_batches.fetch_add(1, std::memory_order_relaxed);
      stats_.stacked_requests.fetch_add(static_cast<uint64_t>(b), std::memory_order_relaxed);
      for (int i = 0; i < b; ++i) {
        try {
          // Per-request de-stacking failure point: an injected fault here
          // must hit THIS request only, never its batchmates.
          NPAD_FAULT_SITE("serve.batch_exec", FaultKind::Chunk);
          resps[i].results = std::move(outs[static_cast<size_t>(i)]);
        } catch (const npad::Error& err) {
          fail(i, err);
        }
      }
    } else {
      // A stacked failure cannot be attributed to one request: re-run each
      // request alone so the typed error lands on the request that caused it
      // and its batchmates still succeed (bit-exact, same interpreter).
      stats_.fallback_requests.fetch_add(static_cast<uint64_t>(b), std::memory_order_relaxed);
      for (int i = 0; i < b; ++i) {
        try {
          resps[i].results = interp_.run(prog, argsv[static_cast<size_t>(i)]);
        } catch (const npad::Error& err) {
          fail(i, err);
        }
      }
    }
  }

  const auto exec =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t_start);
  stats_.exec_us.fetch_add(static_cast<uint64_t>(exec.count()), std::memory_order_relaxed);
  for (int i = 0; i < b; ++i) {
    resps[i].exec_ms = static_cast<double>(exec.count()) / 1e3;
    if (resps[i].ok()) {
      stats_.responses_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.responses_error.fetch_add(1, std::memory_order_relaxed);
    }
    batch[i].prom.set_value(std::move(resps[i]));
  }
}

} // namespace npad::serve
