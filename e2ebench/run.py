#!/usr/bin/env python3
"""End-to-end BPS-capture benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload spill_report --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --selftest

Builds bpsio and the benchmark's helper binary under .bench_build/ (or
$CARGO_TARGET_DIR), drives the real deployment processes, checks their
outputs, and prints one JSON result object as the last line of stdout.
With --trace 0 it repeats fixed-work rounds for --seconds and reports each
end-to-end metric aggregated over them; with --trace 1 it runs one
round, a traced round of the same seed plus its replay ledger, the
bare-syscall floor and the memory-bandwidth ceiling, and reports the
per-layer metrics.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spill_report", "live_fleet", "collector_fanin")
APP_THREADS = 2
# An invocation runs rounds. Each round sets the workload up afresh (new
# daemons, new generator), runs a fixed amount of work, checks it and runs
# REPORT_PASSES bpsio_report passes. After WARMUP_ROUNDS untimed rounds, rounds
# repeat for --seconds (at least MIN_ROUNDS of them); the end-to-end metrics
# aggregate the measured rounds (Run.rounds), so one slow process or a few
# noisy seconds of the host move single samples, not the result.
WARMUP_ROUNDS = 1
MIN_ROUNDS = 5
REPORT_PASSES = 5
DATA_FILE_BYTES = 1 << 20  # >= the dlrm plan's file span at scale 0.25
SPILL_CADENCE_US = 500     # spill observer: >= 10 samples beyond p99 per round
# /metrics scrapes. A render copies every window under the shard and fleet
# locks, which stalls ingest, so frequent scrapes lower the throughput being
# measured. Timed rounds scrape every 500 ms and, once the load is done, every
# millisecond until all records are visible; the traced invocation adds a
# freshness round scraping every 50 ms for the visible-lag percentiles and
# that throughput cost.
HTTP_CADENCE_US = 500000
FRESHNESS_CADENCE_US = 50000
# Work per round: calls per application thread, and records across all
# fan-in connections. The work is fixed, not the time, so every round of a
# seed sees identical inputs; on one CPU of a 4-vCPU Xeon (pin_to_one_cpu)
# a round's load takes about 2 s on the capture workloads.
APP_CALLS_PER_ROUND = {"spill_report": 750_000, "live_fleet": 600_000}
FANIN_RECORDS_PER_ROUND = 3_000_000
FANIN_LEDGER_PASSES = 8    # tile passes per connection the ledger replays
SETTLE_MS = 20000          # how long to wait for records to become visible
RECORD_BYTES = 32
BPSIO_TARGETS = ["bpsio_capture", "bpsio_report", "bpsio_agentd", "bpsio_collectord",
                 "bpsio_workload", "bpsio_agent", "bpsio_collector"]
# Stages whose ceiling is one pass of 32-byte records over memory.
MEMORY_STAGES = ["trace.spill_append", "trace.frame_encode", "trace.read", "trace.merge",
                 "metrics.overlap", "trace.frame_decode", "metrics.window_add",
                 "metrics.window_evict", "agent.aggregate", "agent.forward",
                 "collector.ingest"]


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


# CPUs this benchmark may use, read before pin_to_one_cpu() narrows them.
CPUS = sorted(os.sched_getaffinity(0))


def nproc():
    return len(CPUS)


def cmake_cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build():
    """Builds bpsio (daemons, report, capture preload, libraries) and then
    the benchmark package against it. Incremental after the first run."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no bpsio source tree next to e2ebench/")
    base = build_root()
    bp, be = os.path.join(base, "bpsio"), os.path.join(base, "e2e")
    jobs = str(max(1, min(nproc(), 8)))

    def run(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(bp, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", bp, "-DBPSIO_BUILD_TESTS=OFF",
             "-DBPSIO_BUILD_BENCH=OFF", "-DBPSIO_BUILD_EXAMPLES=OFF"])
    run(["cmake", "--build", bp, "-j", jobs, "--target"] + BPSIO_TARGETS)
    if not os.path.isfile(os.path.join(be, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", be, "-DBPSIO_BUILD=" + bp,
             "-DCMAKE_BUILD_TYPE=" + cmake_cache_value(bp, "CMAKE_BUILD_TYPE")])
    run(["cmake", "--build", be, "-j", jobs])
    return {
        "bpsio_build": bp,
        "e2e_build": be,
        "e2e": os.path.join(be, "bpsio_e2e"),
        "preload": os.path.join(bp, "src", "capture", "libbpsio_capture.so"),
        "report": os.path.join(bp, "tools", "bpsio_report"),
        "agentd": os.path.join(bp, "tools", "bpsio_agentd"),
        "collectord": os.path.join(bp, "tools", "bpsio_collectord"),
    }


class Procs:
    """Every child process, so none outlives the benchmark; children are
    reaped with wait4() to collect their rusage."""

    def __init__(self):
        self.live = []

    def spawn(self, args, cwd, **kw):
        p = subprocess.Popen(args, cwd=cwd, **kw)
        self.live.append(p)
        return p

    def reap(self, p, timeout_s):
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                break
            if time.monotonic() > deadline:
                p.kill()
                pid, status, ru = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
                self.live.remove(p)
                raise BenchError("%s did not exit in time" % os.path.basename(p.args[0]))
            time.sleep(0.002)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(p)
        for stream in (p.stdin, p.stdout, p.stderr):
            if stream is not None:
                stream.close()
        return ru

    def kill_all(self):
        for p in list(self.live):
            try:
                p.kill()
                os.wait4(p.pid, 0)
            except OSError:
                pass
        self.live.clear()


def rss_mb(ru):
    return ru.ru_maxrss / 1024.0


def wait_port(path, proc):
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError("%s exited during start-up" % os.path.basename(proc.args[0]))
        try:
            with open(path) as f:
                return int(f.read().strip())
        except (OSError, ValueError):
            time.sleep(0.001)
    raise BenchError("no port file " + path)


def scrape(port):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    text = b"".join(chunks).decode()
    body = text.split("\r\n\r\n", 1)[1]
    values = {}
    for line in body.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    return values


def last_json(text):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError("no JSON result from helper")
    return json.loads(lines[-1])


class Run:
    """One workload invocation: rounds of set-up, load, gates and report passes."""

    def __init__(self, bins, procs, workload, seed, seconds, root):
        self.bins, self.procs = bins, procs
        self.workload, self.seed = workload, seed
        self.seconds = seconds
        self.max_ms = int(seconds * 6000)
        self.root = root
        self.cores = nproc()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rep = 0
        self.freshness = False

    # -- correctness bookkeeping -------------------------------------------
    def gate(self, ok, what, missing=1):
        if not ok:
            self.failures.append(what)
            self.failed += max(1, int(missing))

    # -- helpers ------------------------------------------------------------
    def e2e(self, sub, *flags, cwd=None):
        out = subprocess.run([self.bins["e2e"], sub] + list(flags), cwd=cwd or self.root,
                             stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=170)
        return last_json(out.stdout)

    def start_daemon(self, args, cwd, name):
        logf = open(os.path.join(cwd, name + ".log"), "w")
        p = self.procs.spawn(args, cwd, stdin=subprocess.DEVNULL, stdout=logf, stderr=logf)
        logf.close()
        return p, wait_port(os.path.join(cwd, name + ".port"), p)

    def stop_daemon(self, p):
        p.send_signal(signal.SIGTERM)
        ru = self.procs.reap(p, 120)
        if p.returncode != 0:
            self.gate(False, "%s exited with %d" % (os.path.basename(p.args[0]), p.returncode))
        return ru

    def start_gen(self, args, cwd, env=None):
        p = self.procs.spawn(args, cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=sys.stderr, env=env, text=True)
        if p.stdout.readline().strip() != "ready":
            raise BenchError("load generator failed during set-up")
        return p

    def finish_gen(self, p):
        p.stdin.write("go\n")
        p.stdin.flush()
        out = p.stdout.read()
        self.procs.reap(p, 60)
        if p.returncode != 0:
            raise BenchError("load generator exited with %d" % p.returncode)
        log("load generator: " + out.strip().splitlines()[-1])
        return last_json(out)

    def cadence_us(self):
        if self.workload == "spill_report":
            return SPILL_CADENCE_US
        return HTTP_CADENCE_US if not self.freshness else FRESHNESS_CADENCE_US

    # -- set-up ---------------------------------------------------------------
    def setup(self, spans=None):
        """Brings up the workload's processes until the load generator
        reports ready. Returns (state, seconds taken)."""
        self.rep += 1
        d = os.path.join(self.root, "rep%d" % self.rep)
        os.makedirs(d)
        t0 = time.monotonic()
        st = {"dir": d, "daemons": []}
        common = ["--max-ms=%d" % self.max_ms, "--seed=%d" % self.seed,
                  "--cadence-us=%d" % self.cadence_us(), "--settle-ms=%d" % SETTLE_MS]
        if spans:
            common.append("--spans=" + spans)
        if self.workload == "collector_fanin":
            col, port = self.start_daemon(
                [self.bins["collectord"], "--socket=collector.sock", "--http-port=0",
                 "--port-file=collector.port", "--io-threads=%d" % max(1, self.cores // 2),
                 "--drain=drain.bpstrace", "--spool-dir=spool"], d, "collector")
            st.update(collector=col, collector_port=port, daemons=[col])
            st["gen"] = self.start_gen(
                [self.bins["e2e"], "fanin", "--socket=collector.sock", "--conns=%d" % self.cores,
                 "--frames=%d" % self.fanin_frames(), "--port=%d" % port] + common, d)
            return st, time.monotonic() - t0
        for t in range(APP_THREADS):
            with open(os.path.join(d, "data.%d" % t), "wb") as f:
                f.write(b"x" * DATA_FILE_BYTES)
        env = dict(os.environ, LD_PRELOAD=self.bins["preload"])
        app = self.app_args()
        if self.workload == "spill_report":
            os.makedirs(os.path.join(d, "spill"))
            env["BPSIO_CAPTURE_DIR"] = "spill"
            st["gen"] = self.start_gen(app + ["--observe=spill", "--spill-dir=spill"] + common,
                                       d, env)
        else:
            os.makedirs(os.path.join(d, "fallback"))
            col, cport = self.start_daemon(
                [self.bins["collectord"], "--socket=collector.sock", "--http-port=0",
                 "--port-file=collector.port", "--io-threads=1", "--drain=drain.bpstrace",
                 "--spool-dir=spool"], d, "collector")
            agent, aport = self.start_daemon(
                [self.bins["agentd"], "--socket=agent.sock", "--http-port=0",
                 "--port-file=agent.port", "--forward=collector.sock", "--forward-tenant=app"],
                d, "agent")
            st.update(collector=col, collector_port=cport, agent=agent, agent_port=aport,
                      daemons=[agent, col])
            env["BPSIO_CAPTURE_SOCKET"] = "agent.sock"
            env["BPSIO_CAPTURE_DIR"] = "fallback"  # any record landing here failed
            st["gen"] = self.start_gen(app + ["--observe=http", "--port=%d" % cport] + common,
                                       d, env)
        return st, time.monotonic() - t0

    def fanin_frames(self):
        """Frames per fan-in connection (512 records each) in one round."""
        return FANIN_RECORDS_PER_ROUND // 512 // self.cores

    def app_args(self):
        calls = APP_CALLS_PER_ROUND[self.workload]
        return [self.bins["e2e"], "app", "--dir=.", "--threads=%d" % APP_THREADS,
                "--ops=%d" % calls]

    # -- a timed round -----------------------------------------------------------
    def report_passes(self, cwd, target, want_records, want_blocks, want_t_ns):
        rates, rss = [], 0.0
        for i in range(REPORT_PASSES):
            t0 = time.monotonic()
            p = self.procs.spawn([self.bins["report"], "--csv", target], cwd,
                                 stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
            out = p.stdout.read()
            ru = self.procs.reap(p, 120)
            wall = time.monotonic() - t0
            rss = max(rss, rss_mb(ru))
            header, row = out.strip().splitlines()[-2:]
            rec = dict(zip(header.split(","), row.split(",")))
            records = int(rec["records"])
            if i == 0:
                self.gate(p.returncode == 0 and records == want_records,
                          "bpsio_report records %d != %d" % (records, want_records),
                          abs(records - want_records))
                self.gate(int(rec["B"]) == want_blocks,
                          "bpsio_report B %s != %d" % (rec["B"], want_blocks))
                # The CSV prints T in seconds with 6 decimals.
                self.gate(abs(float(rec["T_s"]) * 1e9 - want_t_ns) <= 501,
                          "bpsio_report T %s s != overlap_time_paper %d ns"
                          % (rec["T_s"], want_t_ns))
            rates.append(records / wall)
        return rates, rss

    def check_trace(self, path, cwd):
        chk = self.e2e("check", "--path=" + path, cwd=cwd)
        self.gate(chk["ok"], "unreadable trace %s: %s" % (path, chk["error"]))
        return chk

    def timed(self, st):
        """Runs the load, then every correctness gate and the report passes.
        Returns (generator result, metrics, daemon figures); the metric
        report_records_per_s is the list of the round's pass rates."""
        d = st["dir"]
        t0 = time.monotonic()
        res = self.load(st)
        t_load = time.monotonic() - t0
        records = res["records"]
        daemons = {}
        if self.workload == "spill_report":
            target = "spill"
        else:
            target = "drain.bpstrace"
            col = scrape(st["collector_port"])
            daemons["collector_frames"] = col["bpsio_frames_total"]
            self.gate(col['bpsio_records_total{tenant="all"}'] == records,
                      "collector records_total %s != %d" % (col['bpsio_records_total{tenant="all"}'], records),
                      records - col['bpsio_records_total{tenant="all"}'])
            self.gate(col['bpsio_blocks_total{tenant="all"}'] == res["blocks"],
                      "collector blocks_total differs from the plan")
            if self.workload == "collector_fanin":
                for key, want in res.items():
                    if key.startswith("tenant.") and key.endswith(".records"):
                        name = key[len("tenant."):-len(".records")]
                        label = '{tenant="%s"}' % name
                        self.gate(col.get("bpsio_records_total" + label) == want and
                                  col.get("bpsio_blocks_total" + label) == res["tenant.%s.blocks" % name],
                                  "tenant %s totals differ from what was sent" % name)
            else:
                fb = self.check_trace("fallback", d)
                self.gate(fb["records"] == 0, "%d records fell back to spill" % fb["records"],
                          fb["records"])
                agent = scrape(st["agent_port"])
                daemons["agent_records"] = agent["bpsio_records_total"]
                daemons["agent_frames"] = agent["bpsio_frames_total"]
                ru = self.stop_daemon(st["agent"])
                daemons["agent_ru"] = ru
            daemons["collector_ru"] = self.stop_daemon(st["collector"])
        chk = self.check_trace(target, d)
        self.gate(chk["records"] == records and chk["blocks"] == res["blocks"],
                  "%s holds %d records / %d blocks, plan %d / %d"
                  % (target, chk["records"], chk["blocks"], records, res["blocks"]),
                  abs(chk["records"] - records))
        t_checked = time.monotonic() - t0
        report_rates, report_rss = self.report_passes(d, target, chk["records"], chk["blocks"],
                                                     chk["t_paper_ns"])
        log("round %d: load %.2f s, gates %.2f s, report passes %.2f s (%s records/s)"
            % (self.rep, t_load, t_checked - t_load, time.monotonic() - t0 - t_checked,
               " ".join("%.4g" % r for r in report_rates)))
        daemons["report_rss_mb"] = report_rss
        sut_rss = max([report_rss] + [rss_mb(daemons[k]) for k in ("agent_ru", "collector_ru")
                                      if k in daemons])
        metrics = {
            "app_io_per_s": res["app_io_per_s"],
            "report_records_per_s": report_rates,
            "pipeline_records_per_s": res.get("pipeline_records_per_s", 0.0),
            "sut_peak_rss_mb": sut_rss,
        }
        return res, metrics, daemons

    def load(self, st):
        """Runs the measured load and the generator-side gates."""
        res = self.finish_gen(st["gen"])
        records = res["records"]
        self.attempted += records
        self.gate(res["failed_calls"] == 0, "%d failed calls" % res["failed_calls"],
                  res["failed_records"])
        self.gate(res.get("last_visible") == records,
                  "only %s of %d records became visible" % (res.get("last_visible"), records),
                  records - res.get("last_visible", 0))
        self.gate(res.get("over_count") == 0, "observer saw more records than completed")
        return res

    def one_round(self):
        st, setup_s = self.setup()
        _, metrics, _ = self.timed(st)
        shutil.rmtree(st["dir"], ignore_errors=True)
        metrics["setup_s"] = setup_s
        return metrics

    def rounds(self):
        """The warm-up and measured rounds. Returns, over the measured
        rounds (every report pass, for report_records_per_s), the mean of
        each throughput and the median of set-up time and memory. A round's
        throughput is often bimodal: live_fleet's pipeline ran at 0.47 or
        0.59 M records/s, with the mix of the two changing from run to run.
        A median jumps between the modes as the mix crosses one half; a mean
        moves with the mix. Over 10 seeds the mean had the smaller quartile
        spread on 5 of the 6 workload-throughput pairs."""
        for _ in range(WARMUP_ROUNDS):
            self.one_round()
        samples = {}
        deadline = time.monotonic() + self.seconds
        measured = 0
        while measured < MIN_ROUNDS or time.monotonic() < deadline:
            for name, value in self.one_round().items():
                samples.setdefault(name, []).extend(
                    value if isinstance(value, list) else [value])
            measured += 1
        log("%d measured rounds" % measured)
        return {name: (statistics.mean if name.endswith("_per_s") else statistics.median)(values)
                for name, values in samples.items()}

    def traced(self):
        """A traced run of the same seed, then its replay ledger."""
        st, _ = self.setup(spans="call_spans.bin")
        d = st["dir"]
        res = self.load(st)
        self.gate(res.get("spans_written") is True and
                  os.path.getsize(os.path.join(d, "call_spans.bin")) == 16 * res["calls"],
                  "call spans were not written out")
        for p in st["daemons"]:
            self.stop_daemon(p)
        spans_dir = os.path.join(build_root(), "trace-" + self.workload)
        os.makedirs(spans_dir, exist_ok=True)
        flags = ["--workload=" + self.workload, "--work-dir=.",
                 "--workers=%d" % max(1, self.cores // 2),
                 "--spans-out=" + os.path.join(spans_dir, "ledger_spans.jsonl")]
        if self.workload == "spill_report":
            flags.append("--input=spill")
        elif self.workload == "live_fleet":
            flags.append("--input=drain.bpstrace")
        else:
            flags += ["--seed=%d" % self.seed, "--conns=%d" % self.cores,
                      "--passes=%d" % max(1, min(FANIN_LEDGER_PASSES,
                                                     self.fanin_frames() // 128))]
        # The replay runs in one process; it gets every CPU back so the
        # N-worker ingest it times can run in parallel.
        out = subprocess.run([self.bins["e2e"], "ledger"] + flags, cwd=d,
                             stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=170,
                             preexec_fn=lambda: os.sched_setaffinity(0, CPUS))
        ledger = last_json(out.stdout)
        self.gate(ledger["checks_ok"], "ledger: " + ledger["check_failures"])
        self.gate(ledger["ledger.records"] > 0, "ledger replayed no records")
        shutil.rmtree(d, ignore_errors=True)
        return res, ledger

    def freshness_run(self):
        """An untraced round again with the observer scraping every 50 ms."""
        self.freshness = True
        st, _ = self.setup()
        res = self.load(st)
        for p in st["daemons"]:
            self.stop_daemon(p)
        shutil.rmtree(st["dir"], ignore_errors=True)
        self.freshness = False
        return res

    def floor(self):
        """The same op stream without the capture preload."""
        self.rep += 1
        d = os.path.join(self.root, "rep%d" % self.rep)
        os.makedirs(d)
        for t in range(APP_THREADS):
            with open(os.path.join(d, "data.%d" % t), "wb") as f:
                f.write(b"x" * DATA_FILE_BYTES)
        gen = self.start_gen(self.app_args() + ["--max-ms=%d" % self.max_ms,
                                                "--seed=%d" % self.seed], d)
        res = self.finish_gen(gen)
        self.gate(res["failed_calls"] == 0, "floor run: %d failed calls" % res["failed_calls"],
                  res["failed_records"])
        shutil.rmtree(d, ignore_errors=True)
        return res


def per_layer(run, res, daemons, traced_res, ledger, floor_res, fresh_res, membw):
    capture = run.workload != "collector_fanin"
    spill = run.workload == "spill_report"

    def npr(stage):
        return float(ledger.get(stage + ".ns_per_rec", 0.0))

    m = {}
    call_p50 = traced_res["app_io_p50_ns"] if capture else 0.0
    floor_p50 = floor_res["app_io_p50_ns"] if capture else 0.0
    m["capture.call_p50_ns"] = call_p50
    m["capture.call_p99_ns"] = traced_res["app_io_p99_ns"] if capture else 0.0
    m["capture.floor_p50_ns"] = floor_p50
    m["capture.overhead_ns"] = call_p50 - floor_p50
    m["capture.records"] = traced_res["records"] if capture else 0
    for stage in MEMORY_STAGES:
        m[stage + ".ns_per_rec"] = npr(stage)
    m["metrics.overlap.runs_per_rec"] = ledger["metrics.overlap.runs_per_rec"] if spill else 0.0
    m["agent.render_us"] = ledger.get("agent.render.self_ns", 0) / 1000.0
    m["collector.render_us"] = ledger.get("collector.render.self_ns", 0) / 1000.0
    m["collector.ingest.speedup"] = ledger["collector.ingest.speedup"] if not spill else 0.0
    for name in ("agent", "collector"):
        ru = daemons.get(name + "_ru")
        recs = daemons.get("agent_records") if name == "agent" else res["records"]
        frames = daemons.get(name + "_frames")
        m[name + ".cpu_ns_per_rec"] = (ru.ru_utime + ru.ru_stime) * 1e9 / recs if ru else 0.0
        m[name + ".ctx_switches"] = ru.ru_nvcsw + ru.ru_nivcsw if ru else 0
        m[name + ".records_per_frame"] = recs / frames if ru and frames else 0.0
        m[name + ".peak_rss_mb"] = rss_mb(ru) if ru else 0.0
    m["report.peak_rss_mb"] = daemons["report_rss_mb"]
    bw = membw["mem_bw_gbps"]
    m["ceiling.mem_bw_gbps"] = bw
    m["ceiling.array_mb"] = membw["array_mb"]
    m["ceiling.llc_mb"] = membw["llc_mb"]
    m["capture.roof_frac"] = floor_p50 / call_p50 if call_p50 else 0.0
    for stage in MEMORY_STAGES:
        # Ceiling: one pass of the stage's records at memory bandwidth.
        m[stage + ".roof_frac"] = (RECORD_BYTES / bw) / npr(stage) if npr(stage) else 0.0
    m["trace_overhead_ratio"] = traced_res["app_io_per_s"] / res["app_io_per_s"]
    m["ledger.unattributed_frac"] = ledger["ledger.unattributed_frac"]
    m["visible_lag_p50_ms"] = fresh_res.get("visible_lag_p50_ms", 0.0)
    m["visible_lag_p99_ms"] = fresh_res.get("visible_lag_p99_ms", 0.0)
    m["visible_lag.samples"] = fresh_res.get("lag_samples", 0)
    # Pipeline throughput while scraped every 50 ms, against the untraced round.
    m["visible_lag.pipeline_ratio"] = (fresh_res.get("pipeline_records_per_s", 0.0) /
                                       res["pipeline_records_per_s"])
    m["app_io_p50_ns"] = res["app_io_p50_ns"]
    m["app_io_p99_ns"] = res["app_io_p99_ns"]
    m["app_io.samples"] = res["app_io_samples"]
    m["failed_ratio"] = run.failed / max(1, run.attempted)
    return m


def print_ledger(run, ledger, m):
    print("ledger (%s, %d records replayed): stage self time, rate, share of the "
          "memory-bandwidth ceiling (%.2f GB/s)"
          % (run.workload, ledger["ledger.records"], m["ceiling.mem_bw_gbps"]))
    stages = sorted(k[:-len(".self_ns")] for k in ledger if k.endswith(".self_ns"))
    for stage in stages:
        ns = ledger[stage + ".self_ns"]
        npr = ledger[stage + ".ns_per_rec"]
        roof = m.get(stage + ".roof_frac")
        print("  %-28s %10.3f ms %12.2f ns/rec %s" % (
            stage, ns / 1e6, npr, "roof_frac %.4f" % roof if roof else ""))
    print("  %-28s %10.3f ms" % ("sum of stages", ledger["ledger.stage_sum_ns"] / 1e6))
    print("  %-28s %10.3f ms" % ("traced wall", ledger["ledger.wall_ns"] / 1e6))
    print("  %-28s %10.3f ms (%.4f of wall)" % ("unattributed", ledger["ledger.unattributed_ns"] / 1e6,
                                                 ledger["ledger.unattributed_frac"]))
    print("  trace_overhead_ratio %.4f (traced / untraced app_io_per_s)" % m["trace_overhead_ratio"])
    if run.workload != "collector_fanin":
        print("  capture call p50 %.0f ns vs bare-syscall floor %.0f ns: roof_frac %.4f"
              % (m["capture.call_p50_ns"], m["capture.floor_p50_ns"], m["capture.roof_frac"]))


def pin_to_one_cpu():
    """Runs this script and every process it starts on one CPU. Spread over
    the vCPUs, a socket pipeline's throughput depends on how fast the host
    wakes an idle vCPU for each hand-off, and it flips between modes up to
    1.8x apart with the host's load; on one CPU every hand-off is a context
    switch, and throughput is the pipeline's CPU cost per record."""
    os.sched_setaffinity(0, {CPUS[-1]})


def provenance(bins, args, cpu_model):
    sha = os.environ.get("BPSIO_GIT_SHA") or os.environ.get("GITHUB_SHA")
    if not sha and os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        sha = out.stdout.strip()
    return {"git_sha": sha or "unknown",
            "build_type": cmake_cache_value(bins["bpsio_build"], "CMAKE_BUILD_TYPE"),
            "cpu_model": cpu_model, "nproc": nproc(), "kernel": os.uname().release,
            "seed": args.seed, "workload": args.workload, "trace": args.trace}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build, then run the benchmark's own unit tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bins = build()
    if args.selftest:
        return subprocess.run(["ctest", "--test-dir", bins["e2e_build"],
                               "--output-on-failure"]).returncode
    pin_to_one_cpu()

    def on_alarm(signum, frame):
        raise BenchError("run exceeded its time limit")
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(175)

    procs = Procs()
    root = os.path.join(build_root(), "run-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(root)
    try:
        run = Run(bins, procs, args.workload, args.seed, args.seconds, root)
        membw = run.e2e("membw", "--passes=%d" % (7 if args.trace else 0))
        print(json.dumps({"provenance": provenance(bins, args, membw["cpu_model"])}))
        if args.trace == 0:
            out_metrics = run.rounds()
        else:
            st, _ = run.setup()
            res, metrics, daemons = run.timed(st)
            shutil.rmtree(st["dir"], ignore_errors=True)
            traced_res, ledger = run.traced()
            floor_res = run.floor() if args.workload != "collector_fanin" else None
            fresh_res = res if args.workload == "spill_report" else run.freshness_run()
            out_metrics = per_layer(run, res, daemons, traced_res, ledger, floor_res, fresh_res,
                                    membw)
            print_ledger(run, ledger, out_metrics)
        signal.alarm(0)
        if run.failures:
            log("correctness gates failed: " + "; ".join(run.failures))
        result = {
            "correct": not run.failures and run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in out_metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        signal.alarm(0)
        procs.kill_all()
        shutil.rmtree(root, ignore_errors=True)


def unit_of(name):
    for suffix, unit in ((".ns_per_rec", "ns"), ("_ns_per_rec", "ns"), ("_per_s", "1/s"),
                         ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_gbps", "GB/s")):
        if name.endswith(suffix):
            return unit
    return "count" if name.endswith(("records", "samples", "switches")) else "ratio"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log("run.py: %s" % e)
        sys.exit(2)
