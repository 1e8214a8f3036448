// `e2e app`: the application side of spill_report and live_fleet, and the
// bare-syscall floor (the same op stream run without the capture preload).
//
// Each thread replays its own zoo dlrm plan (4 KiB embedding gathers plus
// 256 KiB checkpoint writes, think time 0) against its own page-cached file,
// tiled over and over: a closed loop, one call in flight per thread, for a
// fixed number of calls per thread (--ops; --max-ms caps
// the wall time). The main thread observes what is visible downstream at a fixed
// cadence: record count in the spill files (spill_report) or the collector's
// bpsio_records_total (live_fleet).
#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "common.hpp"
#include "trace/serialize.hpp"
#include "workload/zoo/zoo.hpp"

namespace e2e {
namespace {

namespace zoo = bpsio::workload::zoo;
using bpsio::workload::AppOp;

struct Op {
  bool write = false;
  std::uint64_t offset = 0;
  std::size_t size = 0;
  std::uint64_t blocks = 0;
};

struct Worker {
  std::vector<Op> ops;
  std::vector<char> buf;
  int fd = -1;
  Histogram hist;
  std::vector<Completion> events;
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  std::uint64_t calls = 0;
  std::uint64_t blocks = 0;
  std::uint64_t failed = 0;
  std::int64_t first_start = 0;
  std::int64_t last_end = 0;
};

constexpr std::uint64_t kEventEvery = 64;

void run_worker(Worker& w, std::uint64_t budget, std::int64_t deadline, bool traced) {
  std::size_t i = 0;
  std::uint64_t pending = 0;
  std::int64_t t1 = 0;
  w.first_start = now_ns();
  for (;;) {
    const Op& op = w.ops[i];
    if (++i == w.ops.size()) i = 0;
    const std::int64_t t0 = now_ns();
    const ssize_t got =
        op.write ? ::pwrite(w.fd, w.buf.data(), op.size, static_cast<off_t>(op.offset))
                 : ::pread(w.fd, w.buf.data(), op.size, static_cast<off_t>(op.offset));
    t1 = now_ns();
    if (got != static_cast<ssize_t>(op.size)) ++w.failed;
    w.hist.add(static_cast<std::uint64_t>(t1 - t0));
    ++w.calls;
    w.blocks += op.blocks;
    if (traced) w.spans.emplace_back(t0, t1);
    if (++pending == kEventEvery) {
      w.events.push_back({t1, pending});
      pending = 0;
    }
    if (w.calls == budget || t1 >= deadline) break;
  }
  if (pending > 0) w.events.push_back({t1, pending});
  w.last_end = t1;
}

std::uint64_t spilled_records(const std::string& dir) {
  std::uint64_t total = 0;
  for (const std::string& path : trace_files(dir)) {
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) continue;
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size > sizeof(bpsio::trace::TraceHeader)) {
      total += (size - sizeof(bpsio::trace::TraceHeader)) /
               sizeof(bpsio::trace::IoRecord);
    }
  }
  return total;
}

}  // namespace

int run_app(const Flags& flags) {
  const std::string dir = flags.str("dir", ".");
  const auto threads = static_cast<std::size_t>(flags.num("threads", 2));
  const auto budget = static_cast<std::uint64_t>(flags.num("ops", 1'000'000));
  const std::int64_t run_ns = flags.num("max-ms", 60'000) * 1'000'000;
  const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  const std::string observe = flags.str("observe", "none");
  const std::string spill_dir = flags.str("spill-dir");
  const int port = static_cast<int>(flags.num("port", 0));
  const std::int64_t cadence_ns = flags.num("cadence-us", 5000) * 1000;
  const std::int64_t settle_ns = flags.num("settle-ms", 10000) * 1'000'000;
  const std::string spans_path = flags.str("spans");
  const bool traced = !spans_path.empty();

  // --- set-up: plans, files, buffers, histograms -------------------------
  std::vector<Worker> workers(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    zoo::ZooParams params;
    params.scale = 0.25;  // 4 KiB gathers, 256 KiB checkpoint chunks
    params.processes = 1;
    params.seed = seed * 1000 + t;
    params.think_scale = 0;
    const auto plan = zoo::build_plan("dlrm", params);
    if (!plan.ok()) {
      std::fprintf(stderr, "e2e app: %s\n", plan.error().to_string().c_str());
      return 2;
    }
    Worker& w = workers[t];
    std::size_t max_size = 0;
    for (const AppOp& op : plan->ops[0]) {
      if (op.kind != AppOp::Kind::read && op.kind != AppOp::Kind::write) continue;
      w.ops.push_back({op.kind == AppOp::Kind::write, op.offset,
                       static_cast<std::size_t>(op.size),
                       (op.size + bpsio::kDefaultBlockSize - 1) /
                           bpsio::kDefaultBlockSize});
      max_size = std::max(max_size, static_cast<std::size_t>(op.size));
    }
    w.buf.assign(max_size, 'x');
    const std::string path = dir + "/data." + std::to_string(t);
    w.fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (w.fd < 0 || w.ops.empty()) {
      std::fprintf(stderr, "e2e app: cannot open %s\n", path.c_str());
      return 2;
    }
    w.events.reserve(std::size_t{1} << 18);
    if (traced) w.spans.reserve(budget);
  }

  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  bool quit = false;
  std::int64_t deadline = 0;
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> pool;
  for (Worker& w : workers) {
    pool.emplace_back([&, traced] {
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return go; });
        if (quit) return;
      }
      run_worker(w, budget, deadline, traced);
      done.fetch_add(1);
    });
  }

  std::cout << "ready" << std::endl;
  std::string command;
  std::getline(std::cin, command);
  if (command != "go") {
    {
      std::lock_guard lock(mu);
      go = true;
      quit = true;  // anything but "go", or end of input: no I/O at all
    }
    cv.notify_all();
    for (std::thread& t : pool) t.join();
    return 0;
  }

  // --- measured phase -----------------------------------------------------
  const std::int64_t t_go = now_ns();
  {
    std::lock_guard lock(mu);
    deadline = t_go + run_ns;
    go = true;
  }
  cv.notify_all();

  std::vector<Observation> observations;
  std::int64_t all_visible_at = 0;
  std::uint64_t last_visible = 0;
  std::uint64_t failed_observations = 0;
  if (observe != "none") {
    std::int64_t next = t_go + cadence_ns;
    std::int64_t done_at = 0;
    for (;;) {
      timespec ts{next / 1'000'000'000, next % 1'000'000'000};
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      std::uint64_t visible = 0;
      bool ok = true;
      if (observe == "spill") {
        visible = spilled_records(spill_dir);
      } else {
        const auto body = scrape(port);
        const auto v = body ? metric_value(*body, "bpsio_records_total",
                                           "tenant=\"all\"")
                            : std::nullopt;
        ok = v.has_value();
        if (ok) visible = static_cast<std::uint64_t>(*v);
      }
      const std::int64_t t = now_ns();
      if (ok) {
        observations.push_back({t, visible});
        last_visible = visible;
      } else {
        ++failed_observations;
      }
      if (done.load() == workers.size()) {
        if (done_at == 0) done_at = t;
        std::uint64_t total = 0;
        for (const Worker& w : workers) total += w.calls;
        if (visible >= total) {
          all_visible_at = t;
          break;
        }
        if (t - done_at > settle_ns) break;
      }
      // Once the load is done, poll every millisecond so the moment every record
      // became visible is not rounded up to the cadence.
      const std::int64_t step =
          done_at > 0 ? std::min<std::int64_t>(cadence_ns, 1'000'000) : cadence_ns;
      next = std::max(next + step, now_ns());
    }
  }
  for (std::thread& t : pool) t.join();

  // --- results ------------------------------------------------------------
  Histogram hist;
  std::vector<Completion> events;
  std::uint64_t calls = 0, blocks = 0, failed = 0;
  std::int64_t first = workers[0].first_start, last = workers[0].last_end;
  for (Worker& w : workers) {
    hist.merge(w.hist);
    events.insert(events.end(), w.events.begin(), w.events.end());
    calls += w.calls;
    blocks += w.blocks;
    failed += w.failed;
    first = std::min(first, w.first_start);
    last = std::max(last, w.last_end);
    ::close(w.fd);
  }
  JsonLine out;
  out.put("calls", calls);
  out.put("records", calls);
  out.put("blocks", blocks);
  out.put("failed_calls", failed);
  out.put("failed_records", failed);
  out.put("load_s", static_cast<double>(last - first) / 1e9);
  out.put("app_io_per_s", static_cast<double>(calls) * 1e9 /
                              static_cast<double>(last - first));
  out.put("app_io_samples", hist.count());
  out.put("app_io_p50_ns", static_cast<double>(hist.percentile(0.50)));
  out.put("app_io_p99_ns", static_cast<double>(hist.percentile(0.99)));
  out.put_bool("app_io_p99_reportable", reportable(0.99, hist.count()));
  if (observe != "none") {
    LagResult lag = visible_lags(events, observations);
    out.put("observations", static_cast<std::uint64_t>(observations.size()));
    out.put("failed_observations", failed_observations);
    out.put("over_count", lag.over_count);
    out.put("last_visible", last_visible);
    out.put("lag_samples", static_cast<std::uint64_t>(lag.lags_ns.size()));
    if (!lag.lags_ns.empty()) {
      out.put_bool("lag_p99_reportable", reportable(0.99, lag.lags_ns.size()));
      out.put("visible_lag_p50_ms",
              static_cast<double>(percentile_of(lag.lags_ns, 0.50)) / 1e6);
      out.put("visible_lag_p99_ms",
              static_cast<double>(percentile_of(lag.lags_ns, 0.99)) / 1e6);
    }
    if (all_visible_at > 0) {
      out.put("pipeline_records_per_s", static_cast<double>(calls) * 1e9 /
                                            static_cast<double>(all_visible_at - first));
    }
  }
  if (traced) {
    // One span per wrapped call, (start_ns, end_ns) pairs, thread after
    // thread; the call spans have no children, so self time = duration.
    const int fd = open_unrecorded(spans_path);
    bool ok = fd >= 0;
    for (const Worker& w : workers) {
      ok = ok && write_all(fd, w.spans.data(), w.spans.size() * sizeof w.spans[0]);
    }
    if (fd >= 0) ::close(fd);
    out.put_bool("spans_written", ok);
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace e2e
