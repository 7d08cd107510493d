#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for pals.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each one exists):
  paper_report  pals_reproduce: Tables 1-3 and Figures 2-10 of the paper
  sweep_grid    pals_sweep --lint over a dense seed-drawn grid (504 cells)
  serve_whatif  pals_serve answering a closed-loop client over its socket

The first run in a checkout builds the program (pinned Release) and the
benchmark's helper into .bench_build/. --trace 0 runs the shipped CLIs
untraced and prints the end-to-end metrics; --trace 1 runs the helper's
traced driver and prints the per-layer metrics. The last stdout line is
one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import fcntl
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import model

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM_BUILD = BUILD / "pals"
HELPER_BUILD = BUILD / "layers"
TOOLS = PROGRAM_BUILD / "tools"
HELPER = HELPER_BUILD / "pals_layers"

# Load shape, fixed across runs and hosts (the reference host has 4 CPUs).
SWEEP_JOBS = 4          # pals_sweep worker threads
SERVE_JOBS = 2          # pals_serve worker threads
CONNECTIONS = 2         # closed-loop client connections
PLAIN_REPEATS = 5       # 5 x 384 plain queries + 192 override queries a round

CHILD_TIMEOUT = 170


def die(message):
    print("benchmark: " + message, file=sys.stderr)
    sys.exit(1)


# --- build ----------------------------------------------------------------

def build():
    """Configure and build once per checkout; returns the build info."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("no pals source tree at %s" % ROOT)
    BUILD.mkdir(exist_ok=True)
    stamp = BUILD / "build.json"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if stamp.is_file() and HELPER.is_file():
            return json.loads(stamp.read_text())
        log = open(BUILD / "build.log", "w")
        ncpu = str(os.cpu_count() or 1)
        steps = [
            ["cmake", "-S", str(ROOT), "-B", str(PROGRAM_BUILD),
             "-DCMAKE_BUILD_TYPE=Release", "-DPALS_SANITIZE=",
             "-DPALS_WERROR=OFF", "-DPALS_CLANG_TIDY=OFF"],
            ["cmake", "--build", str(PROGRAM_BUILD), "-j", ncpu, "--target",
             "pals_reproduce", "pals_sweep", "pals_serve_tool"],
            ["cmake", "-S", str(HERE), "-B", str(HELPER_BUILD),
             "-DCMAKE_BUILD_TYPE=Release", "-DPALS_ROOT=" + str(ROOT),
             "-DPALS_BUILD=" + str(PROGRAM_BUILD)],
            ["cmake", "--build", str(HELPER_BUILD), "-j", ncpu],
        ]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.close()
                tail = (BUILD / "build.log").read_text()[-3000:]
                die("build step failed: %s\n%s" % (" ".join(step), tail))
        log.close()
        cache = {}
        for line in (PROGRAM_BUILD / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value
        compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
        info = {"compiler": version,
                "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
                "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                          cache.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip()}
        stamp.write_text(json.dumps(info))
        return info


# --- child processes ------------------------------------------------------

def reap(proc, timeout):
    """Wait for a child, killing it after `timeout` seconds; returns its
    exit code and its own rusage."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(cmd, out_path, timeout=CHILD_TIMEOUT):
    """Run a program to completion; return (exit code, seconds, peak RSS MB)
    with the peak taken from the child's own rusage."""
    with open(out_path, "w") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        code, usage = reap(proc, timeout)
        seconds = time.perf_counter() - started
    return code, seconds, usage.ru_maxrss / 1024.0


def helper_facts(specs, work):
    out = work / "facts.jsonl"
    code, _, _ = run_child([str(HELPER), "facts"] + specs, out)
    if code != 0:
        die("pals_layers facts failed:\n" + out.read_text()[-2000:])
    facts = {}
    for line in out.read_text().splitlines():
        record = json.loads(line)
        facts[record["workload"]] = record["compute"]
    return facts


def grid_text(grid):
    return "".join("%s = %s\n" % (k, ", ".join(str(x) for x in grid[k]))
                   for k in ("workloads", "gear_sets", "algorithms",
                             "controllers", "betas"))


# The cell every workload's set-up answers once per instance: the serve
# warm-up query, and the one-cell grid of the batch set-up.
SETUP_CELL = {"gear_set": "uniform-6", "algorithm": "max",
              "controller": "static", "beta": 0.5}


def cold_setup(instances, work, flags):
    """The program's cold set-up of a batch workload: a fresh pals_sweep
    process that generates each instance's trace, replays its baseline and
    answers SETUP_CELL, as the serve workload's daemon launch and warm-up
    pass do. Returns its wall time from process start to exit."""
    grid = dict({k + "s": [v] for k, v in SETUP_CELL.items()},
                workloads=instances)
    grid_path = work / "setup.grid"
    grid_path.write_text(grid_text(grid))
    out = work / "setup.csv"
    code, seconds, _ = run_child(
        [str(TOOLS / "pals_sweep"), "--grid=" + str(grid_path), "--quiet",
         "--out=" + str(out)] + flags, work / "setup.log")
    if code != 0 or len(out.read_text().splitlines()) != 1 + len(instances):
        die("set-up sweep failed:\n" + (work / "setup.log").read_text()[-2000:])
    return seconds


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def repeat_jobs(seconds, work, output_name, command):
    """Run one batch job after another until `seconds` of job time have
    passed (at least one job). Returns [(exit code, seconds, peak RSS MB,
    output text or None)]."""
    jobs = []
    while not jobs or sum(j[1] for j in jobs) < seconds:
        out = work / (output_name % len(jobs))
        code, wall, rss = run_child(command(out), work / "job.log")
        text = out.read_text() if code == 0 and out.exists() else None
        jobs.append((code, wall, rss, text))
    return jobs


def batch_result(jobs, rows_per_job, setup_s, validate):
    """Check the first good output (every other must equal it) and turn the
    jobs into the end-to-end metrics. A batch job delivers all of its rows
    when it ends, so each row's latency is its job's wall time."""
    ok = [j for j in jobs if j[0] == 0]
    fails = []
    if not ok:
        fails.append("every job failed, exit code %d" % jobs[0][0])
    else:
        first = ok[0][3]
        if any(j[3] != first for j in ok):
            fails.append("outputs differ between jobs")
        fails += validate(first)
    return finish(fails, attempted=rows_per_job * len(jobs),
                  failed=rows_per_job * (len(jobs) - len(ok)),
                  job_s=[j[1] for j in ok], ops=rows_per_job * len(ok),
                  busy_s=sum(j[1] for j in ok),
                  latencies_ms=[j[1] * 1000.0 for j in ok for _ in range(rows_per_job)],
                  setup_s=setup_s, rss=[j[2] for j in jobs])


# --- paper_report ---------------------------------------------------------

FIG2_INSTANCES = ["BT-MZ-32", "CG-64", "SPECFEM3D-96", "PEPC-128", "WRF-128"]
TABLE3_INSTANCES = list(model.PAPER_TABLE3)


def report_expected():
    """(section title prefix, [(instance, variant, cell)]) in report order,
    derived from the paper's figure definitions."""
    def cell(gear_set, algorithm="max", beta=0.5, sf=0.2, ratio=1.5):
        return {"gear_set": gear_set, "algorithm": algorithm,
                "controller": "static", "beta": beta,
                "static_fraction": sf, "activity_ratio": ratio}
    t3 = TABLE3_INSTANCES
    sections = [
        # Table 3 rows are baseline replays: no gear assignment to model.
        ("Table 3", [(i, None, cell("reference", "none")) for i in t3]),
        ("Figure 2", [(i, g, cell(g)) for i in FIG2_INSTANCES for g in
                      ["continuous-unlimited", "continuous-limited"] +
                      ["uniform-%d" % n for n in range(2, 16)]]),
        ("Figure 3", [(i, g, cell(g)) for i in t3 for g in
                      ("continuous-unlimited", "uniform-2", "uniform-6")]),
        ("Figure 4", [(i, "exponential-%d" % n, cell("exponential-%d" % n))
                      for i in t3 for n in range(3, 8)]),
        ("Figure 5", [(i, "beta=%.1f" % b, cell("uniform-6", beta=b))
                      for i in t3 for b in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]),
        ("Figure 6", [(i, "static=%d%%" % p, cell("uniform-6", sf=p / 100.0))
                      for i in t3 for p in range(0, 100, 10)]),
        ("Figure 7", [(i, "ratio=%.2f" % r, cell("uniform-6", ratio=r))
                      for i in t3 for r in (1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)]),
        ("Figure 8", [(i, "overclock+%d%%" % p, cell("overclock+%d" % p, "avg"))
                      for i in t3 for p in (10, 20)]),
        ("Figure 9", [(i, "uniform-6+2.6GHz", cell("avg-discrete", "avg"))
                      for i in t3]),
        ("Figure 10", [(i, v, cell(g, a)) for i in t3 for v, g, a in
                       (("MAX uniform-6", "uniform-6", "max"),
                        ("AVG uniform-6+2.6GHz", "avg-discrete", "avg"))]),
    ]
    return sections


def parse_report(text):
    """Markdown report -> {section prefix: [row dict]} (fractions)."""
    sections = {}
    current = None
    for line in text.splitlines():
        if line.startswith("### "):
            title = line[4:]
            current = title.split(":")[0]
            sections[current] = []
        elif line.startswith("| ") and current is not None and "%" in line:
            cols = [c.strip() for c in line.strip("|").split("|")]
            if len(cols) != 8:
                continue
            pct = [float(c.rstrip("%")) / 100.0 for c in cols[2:]]
            sections[current].append({
                "instance": cols[0], "variant": cols[1], "lb": pct[0],
                "pe": pct[1], "energy": pct[2], "time": pct[3]})
    return sections


def report_rows(text):
    """Attach each parsed row to its cell; returns (rows, failures)."""
    parsed = parse_report(text)
    rows, fails = [], []
    for prefix, expected in report_expected():
        got = parsed.get(prefix, [])
        fails += model.check_count(len(got), len(expected), prefix + " rows")
        want = {(i, v): c for i, v, c in expected}
        for r in got:
            key = (r["instance"], None if prefix == "Table 3" else r["variant"])
            if key not in want:
                fails.append("%s: unexpected row %s" % (prefix, key))
                continue
            row = dict(r, section=prefix, **want[key])
            rows.append(row)
    return rows, fails


H_REPORT = 0.005 / 100.0   # two decimals of a percentage


REPORT_ROWS = sum(len(e) for _, e in report_expected())


def workload_paper_report(args, work):
    facts = helper_facts(TABLE3_INSTANCES, work)
    setup_s = cold_setup(TABLE3_INSTANCES, work, ["--jobs=1"])
    jobs = repeat_jobs(args.seconds, work, "report%d.md", lambda out: [
        str(TOOLS / "pals_reproduce"), "--output=" + str(out)])

    def validate(text):
        rows, fails = report_rows(text)
        table3 = [r for r in rows if r["section"] == "Table 3"]
        checks = {
            "table3_vs_paper": lambda rs: model.check_table3(
                [r for r in rs if r["section"] == "Table 3"], H_REPORT),
            "eq4_load_balance": lambda rs: model.check_lb(rs, facts, H_REPORT),
            "max_energy_model": lambda rs: model.check_max_energy(rs, facts, H_REPORT),
            "max_time_floor": lambda rs: model.check_time_floor(rs, H_REPORT),
            "row_count": lambda rs: model.check_count(
                len(rs), REPORT_ROWS, "report rows"),
        }
        if table3:
            print("table3 max gap vs paper: %.2f pp" % model.table3_max_gap_pp(table3))
        return fails + run_checks(checks, rows, perturbations(rows, "report"))

    return batch_result(jobs, REPORT_ROWS, setup_s, validate)


# --- sweep_grid -----------------------------------------------------------

def sweep_inputs(seed):
    rng = random.Random("sweep_grid:%d" % seed)
    lb = lambda lo, hi: round(rng.uniform(lo, hi), 3)
    workloads = [
        "cg:256:%.3f:6" % lb(0.88, 0.97), "mg:256:%.3f:6" % lb(0.86, 0.95),
        "wrf:128:%.3f:6" % lb(0.86, 0.95), "pepc:128:%.3f:6" % lb(0.70, 0.82),
        "bt-mz:64:%.3f:6" % lb(0.35, 0.50), "amr-drift:64:%.3f:48" % lb(0.60, 0.80),
    ]
    # The gear sets are fixed: their sizes set the per-cell cost of the
    # controller cells, and the run-to-run spread must come from the host,
    # not from the draw.
    gear_sets = ["uniform-6", "uniform-10", "exponential-3", "exponential-5",
                 "exponential-7", "continuous-unlimited", "avg-discrete"]
    betas = sorted(rng.sample([0.3, 0.4, 0.5, 0.6, 0.7, 0.8], 3))
    return {"workloads": workloads, "gear_sets": gear_sets,
            "algorithms": ["max", "avg"], "controllers": ["static", "slack"],
            "betas": betas}


def grid_cells(grid):
    """Canonical order: workload, gear set, algorithm, controller, beta."""
    return [{"workload": w, "gear_set": g, "algorithm": a, "controller": c,
             "beta": b, "static_fraction": 0.2, "activity_ratio": 1.5}
            for w in grid["workloads"] for g in grid["gear_sets"]
            for a in grid["algorithms"] for c in grid["controllers"]
            for b in grid["betas"]]


def variant_label(cell):
    label = "" if cell["controller"] == "static" else cell["controller"] + " "
    label += "AVG " if cell["algorithm"] == "avg" else ""
    label += cell["gear_set"]
    if cell["beta"] != 0.5:
        label += " beta=%.2f" % cell["beta"]
    return label


def parse_csv_rows(text, cells):
    """Result CSV (canonical order) -> (rows, failures)."""
    lines = text.splitlines()[1:]
    fails = model.check_count(len(lines), len(cells), "CSV lines")
    rows = []
    for line, cell in zip(lines, cells):
        f = line.split(",")
        want = (cell["workload"], variant_label(cell))
        if (f[0], f[1]) != want:
            fails.append("row %s does not match cell %s" % (f[:2], want))
        rows.append(dict(cell, instance=f[0], variant=f[1], lb=float(f[2]),
                         pe=float(f[3]), energy=float(f[4]), time=float(f[5])))
    return rows, fails


H_CSV = 0.5e-6   # six decimals


def workload_sweep_grid(args, work):
    grid = sweep_inputs(args.seed)
    grid_path = work / "dense.grid"
    grid_path.write_text(grid_text(grid))
    cells = grid_cells(grid)
    facts = helper_facts(grid["workloads"], work)
    flags = ["--jobs=%d" % SWEEP_JOBS, "--lint"]
    setup_s = cold_setup(grid["workloads"], work, flags)
    jobs = repeat_jobs(args.seconds, work, "sweep%d.csv", lambda out: [
        str(TOOLS / "pals_sweep"), "--grid=" + str(grid_path), "--quiet",
        "--out=" + str(out)] + flags)

    def validate(text):
        rows, fails = parse_csv_rows(text, cells)
        checks = {
            "eq4_load_balance": lambda rs: model.check_lb(rs, facts, H_CSV),
            "max_energy_model": lambda rs: model.check_max_energy(rs, facts, H_CSV),
            "max_time_floor": lambda rs: model.check_time_floor(rs, H_CSV),
            "row_count": lambda rs: model.check_count(
                len(rs), len(cells), "sweep rows"),
        }
        return fails + run_checks(checks, rows, perturbations(rows, "sweep"))

    return batch_result(jobs, len(cells), setup_s, validate)


# --- serve_whatif ---------------------------------------------------------

SERVE_INSTANCES = ["CG-32", "MG-32", "IS-32", "WRF-32", "BT-MZ-32", "CG-64"]
PLATFORM_OVERRIDES = [{"bandwidth": 1.25e8}, {"latency": 2.5e-5}, {"buses": 4}]


def serve_inputs(seed):
    """Seeded query stream. Every plain cell of the query grid occurs
    PLAIN_REPEATS times and every cell of the override grid once per
    platform override, so each round does the same work and misses the
    warm cache equally often (once per instance and override); the seed
    draws the two inline instances' load balance, the betas and the order."""
    rng = random.Random("serve_whatif:%d" % seed)
    instances = SERVE_INSTANCES + [
        "amr-drift:16:%.3f:48" % round(rng.uniform(0.6, 0.8), 3),
        "pepc:64:%.3f:10" % round(rng.uniform(0.72, 0.8), 3)]
    axes = {
        "gear_sets": ["uniform-6", "exponential-5", "avg-discrete",
                      "continuous-limited"],
        "algorithms": ["max", "avg"],
        "controllers": ["static", "dynamic_max"],
        "betas": sorted(rng.sample([0.3, 0.4, 0.5, 0.6, 0.7], 3)),
    }
    override_axes = dict(axes, controllers=["static"], betas=[axes["betas"][0]])
    queries = [dict(c, platform=None) for c in grid_cells(
        dict(axes, workloads=instances))] * PLAIN_REPEATS
    queries += [dict(c, platform=o) for o in range(len(PLATFORM_OVERRIDES))
                for c in grid_cells(dict(override_axes, workloads=instances))]
    rng.shuffle(queries)
    warmup = [dict(SETUP_CELL, workload=i, platform=None) for i in instances]
    return instances, axes, override_axes, warmup, queries


def query_line(q, qid):
    request = {"schema": "pals-serve-v1", "id": qid, "workload": q["workload"],
               "gear_set": q["gear_set"], "algorithm": q["algorithm"],
               "controller": q["controller"], "beta": q["beta"]}
    if q["platform"] is not None:
        request["platform"] = PLATFORM_OVERRIDES[q["platform"]]
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


def socket_path(work):
    path = work / "pals.sock"
    rel = os.path.relpath(path)
    return rel if len(rel) < len(str(path)) else str(path)


class Daemon:
    def __init__(self, work, index):
        self.work = work
        self.sock = socket_path(work)
        ready = work / "ready"
        if ready.exists():
            ready.unlink()
        self.log = open(work / ("serve%d.log" % index), "w")
        self.proc = subprocess.Popen(
            [str(TOOLS / "pals_serve"), "--socket=" + self.sock,
             "--ready-file=" + str(ready), "--jobs=%d" % SERVE_JOBS, "--quiet"],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.rss_mb = 0.0
        deadline = time.monotonic() + 60
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                die("pals_serve did not become ready")
            time.sleep(0.001)

    def stop(self):
        """Drain the daemon and reap it; returns its peak RSS in MB."""
        if self.proc.returncode is None:
            try:
                client = Client(self.sock)
                client.ask(b'{"schema":"pals-serve-v1","kind":"shutdown"}\n')
                client.close()
            except OSError:
                self.proc.terminate()
            _, usage = reap(self.proc, 30)
            self.rss_mb = usage.ru_maxrss / 1024.0
            self.log.close()
        return self.rss_mb


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(CHILD_TIMEOUT)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def ask(self, line):
        self.sock.sendall(line)
        return self.reader.readline()

    def close(self):
        self.reader.close()
        self.sock.close()


def closed_loop(path, lines, connections):
    """Each connection sends its next query only after the previous answer.
    Returns (responses, round-trip seconds, wall seconds)."""
    responses = [None] * len(lines)
    rtts = [0.0] * len(lines)

    def worker(k):
        client = Client(path)
        try:
            for i in range(k, len(lines), connections):
                t0 = time.perf_counter()
                responses[i] = client.ask(lines[i])
                rtts[i] = time.perf_counter() - t0
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(connections)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses, rtts, time.perf_counter() - started


def serve_reference(work, instances, axes, override_axes):
    """Rows of one pals_sweep --jobs=1 run per platform (outside the timed
    region): {(platform index or None, instance, variant): csv line}."""
    reference = {}
    for o in [None] + list(range(len(PLATFORM_OVERRIDES))):
        a = axes if o is None else override_axes
        grid = dict(a, workloads=instances)
        tag = "plain" if o is None else "override%d" % o
        grid_path = work / (tag + ".grid")
        grid_path.write_text(grid_text(grid))
        out = work / (tag + ".csv")
        cmd = [str(TOOLS / "pals_sweep"), "--grid=" + str(grid_path), "--jobs=1",
               "--quiet", "--out=" + str(out)]
        if o is not None:
            cfg = work / (tag + ".cfg")
            cfg.write_text("".join(
                "%s = %r\n" % kv for kv in PLATFORM_OVERRIDES[o].items()))
            cmd.append("--config=" + str(cfg))
        code, _, _ = run_child(cmd, work / (tag + ".log"))
        if code != 0:
            return None
        for line in out.read_text().splitlines()[1:]:
            f = line.split(",")
            reference[(o, f[0], f[1])] = line
    return reference


def served_rows(responses, queries):
    """Decode ok responses; returns ([(query, csv)], error count)."""
    rows, errors = [], 0
    for resp, q in zip(responses, queries):
        try:
            r = json.loads(resp)
        except (TypeError, ValueError):
            errors += 1
            continue
        if r.get("status") != "ok":
            errors += 1
            continue
        rows.append((q, r["csv"], r["elapsed_ms"]))
    return rows, errors


def serve_checks(reference, n_sent):
    def identical(rows):
        fails = []
        for q, csv, _ in rows:
            key = (q["platform"], q["workload"], variant_label(q))
            if reference.get(key) != csv:
                fails.append("served row differs from pals_sweep --jobs=1: %s" % (key,))
        return fails[:5]
    return {
        "served_equals_batch": identical,
        "response_count": lambda rows: model.check_count(
            len(rows), n_sent, "served rows"),
    }


def workload_serve_whatif(args, work):
    instances, axes, override_axes, warmup, queries = serve_inputs(args.seed)
    warm_lines = [query_line(q, "w%d" % i) for i, q in enumerate(warmup)]
    lines = [query_line(q, "q%d" % i) for i, q in enumerate(queries)]
    rounds = []
    # Set-up: daemon launch through the ready file and the answered
    # warm-up pass (trace generation and the cold baseline replays).
    started = time.perf_counter()
    daemon = Daemon(work, 0)
    try:
        closed_loop(daemon.sock, warm_lines, 1)
        setup_s = time.perf_counter() - started
        measured = 0.0
        while True:
            responses, rtts, wall = closed_loop(daemon.sock, lines, CONNECTIONS)
            rss = daemon.stop()
            rounds.append((responses, rtts, wall, rss))
            measured += wall
            if measured >= args.seconds:
                break
            daemon = Daemon(work, len(rounds))
            closed_loop(daemon.sock, warm_lines, 1)
    finally:
        daemon.stop()
    reference = serve_reference(work, instances, axes, override_axes)
    fails = ["reference pals_sweep failed"] if reference is None else []
    all_rows, errors = [], 0
    for responses, _, _, _ in rounds:
        rows, e = served_rows(responses, queries)
        all_rows += rows
        errors += e
    if reference is not None:
        checks = serve_checks(reference, len(queries) * len(rounds))
        fails += run_checks(checks, all_rows, perturbations(all_rows, "serve"))
    return finish(fails, attempted=len(queries) * len(rounds), failed=errors,
                  job_s=[w for _, _, w, _ in rounds],
                  ops=len(queries) * len(rounds) - errors,
                  busy_s=sum(w for _, _, w, _ in rounds),
                  latencies_ms=[t * 1000.0 for _, rtts, _, _ in rounds for t in rtts],
                  setup_s=setup_s, rss=[r for _, _, _, r in rounds])


# --- checks and results ---------------------------------------------------

def perturbations(rows, kind):
    """One copy of the output per check, each with one value changed so
    that the check must reject it."""
    if not rows:
        return {}
    if kind == "serve":
        q, csv, ms = rows[0]
        bad = csv[:-1] + ("0" if csv[-1] != "0" else "1")
        return {"served_equals_batch": [(q, bad, ms)] + rows[1:],
                "response_count": rows[1:]}

    def with_row(i, **change):
        copy = list(rows)
        copy[i] = dict(rows[i], **change)
        return copy

    def first(pred):
        return next(i for i, r in enumerate(rows) if pred(r))

    energy_row = first(lambda r: r["algorithm"] == "max" and
                       r["controller"] == "static" and
                       model.gear_set(r["gear_set"])[0] is not None)
    time_row = first(lambda r: r["algorithm"] == "max" and
                     not model.gear_set(r["gear_set"])[1])
    out = {
        "eq4_load_balance": with_row(0, lb=rows[0]["lb"] + 0.001),
        "max_energy_model": with_row(
            energy_row, energy=rows[energy_row]["energy"] + 0.001),
        "max_time_floor": with_row(time_row, time=0.999),
        "row_count": rows[1:],
    }
    if kind == "report":
        t3 = first(lambda r: r["section"] == "Table 3")
        out["table3_vs_paper"] = with_row(
            t3, pe=model.PAPER_TABLE3[rows[t3]["instance"]][1] / 100.0 + 0.006)
    return out


def run_checks(checks, rows, perturbed):
    """Run every check on the real output (must pass) and on its perturbed
    copy (must fail). Returns the failures."""
    fails = []
    for name, check in checks.items():
        found = check(rows)
        fails += found
        print("check %-20s %s" % (name, "ok" if not found else "FAILED"))
        if name in perturbed and not check(perturbed[name]):
            fails.append("check %s accepted a perturbed output" % name)
    return fails


def finish(fails, attempted, failed, job_s, ops, busy_s, latencies_ms,
           setup_s, rss):
    for f in fails[:20]:
        print("FAIL " + f)
    metrics = {}
    if job_s and latencies_ms:
        metrics = {
            "job_s": (statistics.median(job_s), "s"),
            "ops_per_s": (ops / busy_s, "1/s"),
            "op_p50_ms": (percentile(latencies_ms, 50), "ms"),
            "op_p99_ms": (percentile(latencies_ms, 99), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(rss), "MB"),
        }
    return not fails, attempted, failed, metrics


# --- traced run -----------------------------------------------------------

LADDER = [64, 256, 1024]


def trace_plan(args, work):
    plan = {"workload": args.workload, "iterations": 10, "ladder": LADDER}
    if args.workload == "paper_report":
        plan["instances"] = TABLE3_INSTANCES
        cells = [{"workload": i, "gear_set": g, "algorithm": a,
                  "controller": "static", "beta": 0.5, "platform": None}
                 for i in TABLE3_INSTANCES for g, a in
                 (("uniform-6", "max"), ("exponential-5", "max"),
                  ("continuous-unlimited", "max"), ("avg-discrete", "avg"))]
        # The report runs no online controller; one cell per instance
        # still times that layer on the report's traces.
        cells += [{"workload": i, "gear_set": "uniform-6", "algorithm": "max",
                   "controller": "dynamic_max", "beta": 0.5, "platform": None}
                  for i in TABLE3_INSTANCES]
        plan["cells"] = cells
        plan["queries"] = [query_line(c, "c%d" % i).decode().strip()
                           for i, c in enumerate(cells)]
    elif args.workload == "sweep_grid":
        grid = sweep_inputs(args.seed)
        grid_path = work / "dense.grid"
        grid_path.write_text(grid_text(grid))
        cells = [dict(c, platform=None) for c in grid_cells(grid)]
        plan.update(instances=grid["workloads"], grid=str(grid_path),
                    jobs=SWEEP_JOBS, cells=cells[::8])
        plan["queries"] = [query_line(c, "c%d" % i).decode().strip()
                           for i, c in enumerate(cells[::21])]
    else:
        instances, _, _, warmup, queries = serve_inputs(args.seed)
        plan["instances"] = instances
        plan["cells"] = [q for q in queries if q["platform"] is None][:64]
        plan["queries"] = [query_line(q, "w%d" % i).decode().strip()
                           for i, q in enumerate(warmup)] + [
            query_line(q, "q%d" % i).decode().strip() for i, q in enumerate(queries)]
    return plan


def self_times(spans):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        s["self"] = (s["end"] - s["start"]) - sum(
            c["end"] - c["start"] for c in children.get(s["id"], []))
    return spans


def workload_trace(args, work):
    plan = trace_plan(args, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    spans_path = work / "spans.jsonl"
    code, _, _ = run_child(
        [str(HELPER), "trace", str(plan_path), str(spans_path)],
        work / "layers.log")
    if code != 0:
        print((work / "layers.log").read_text()[-2000:])
        return False, 1, 1, {}
    records = [json.loads(l) for l in spans_path.read_text().splitlines()]
    counters = records[-1]["counters"]
    spans = self_times(records[:-1])

    # Repeated cells (op "cell-N/rK") count once, at their fastest.
    fastest = {}
    for s in spans:
        base = s["op"].split("/r")[0] if "/r" in s["op"] else s["id"]
        key = (s["name"], base)
        fastest[key] = min(fastest.get(key, s["self"]), s["self"])

    def total(name):
        return sum(v for (n, _), v in fastest.items() if n == name)

    def mean(name):
        xs = [v for (n, _), v in fastest.items() if n == name]
        return sum(xs) / len(xs)

    # Transport: the same queries over the daemon's socket, round trip
    # minus the server-side elapsed time each response reports.
    daemon = Daemon(work, 0)
    try:
        sample = [(q + "\n").encode() for q in plan["queries"]]
        responses, rtts, _ = closed_loop(daemon.sock, sample, 1)
    finally:
        daemon_rss = daemon.stop()
    transport = []
    for resp, rtt in zip(responses, rtts):
        r = json.loads(resp)
        if r.get("status") != "ok":
            print("FAIL served query: " + resp.decode().strip())
            return False, len(sample), 1, {}
        transport.append(rtt * 1000.0 - r["elapsed_ms"])

    if args.workload == "paper_report":
        replays = counters["analysis.figure_replays"] / counters["analysis.figure_rows"]
    elif args.workload == "sweep_grid":
        replays = counters["analysis.sweep_replays"] / counters["analysis.sweep_rows"]
    else:
        replays = counters["serve.replays"] / counters["serve.queries"]
    replay_s = total("replay.baseline") + total("replay.scaled")
    metrics = {
        "replay.baseline_s": (total("replay.baseline"), "s"),
        "replay.scaled_s": (total("replay.scaled"), "s"),
        "replay.events": (counters["replay.events"], "count"),
        "replay.ns_per_event": (replay_s / counters["replay.events"] * 1e9, "ns"),
        "trace.validate_s": (total("trace.validate"), "s"),
        "trace.rescale_s": (total("trace.rescale"), "s"),
        "core.assign_s": (total("core.assign"), "s"),
        "core.controller_s": (total("core.controller"), "s"),
        "core.pipeline_s": (total("core.pipeline"), "s"),
        "core.pipeline_self_s": (counters["core.pipeline_self_s"], "s"),
        "power.energy_s": (total("power.energy"), "s"),
        "analysis.bounds_s": (total("analysis.bounds"), "s"),
        "analysis.render_s": (total("analysis.render"), "s"),
        "analysis.replays_per_row": (replays, "count"),
        "workloads.build_s": (total("workloads.build"), "s"),
        "workloads.events": (counters["workloads.events"], "count"),
        "lint.trace_s": (total("lint.trace"), "s"),
        "serve.parse_us": (mean("serve.parse") * 1e6, "us"),
        "serve.execute_ms": (mean("serve.execute") * 1e3, "ms"),
        "serve.render_us": (mean("serve.render") * 1e6, "us"),
        "serve.transport_ms": (statistics.median(transport), "ms"),
        "serve.cache_hit_ratio": (counters["serve.cache_hits"] / (
            counters["serve.cache_hits"] + counters["serve.cache_misses"]), "ratio"),
        "host.peak_rss_mb": (max(counters["host.peak_rss_mb"], daemon_rss), "MB"),
        "traced.job_s": (next(s["end"] - s["start"] for s in spans
                              if s["name"] == "job"), "s"),
    }
    for r in LADDER:
        metrics["replay.ns_per_event.r%d" % r] = (
            total("ladder.r%d" % r) / counters["ladder.events.r%d" % r] * 1e9, "ns")
    for k, v in sorted(counters.items()):
        if k.startswith("host.peak_rss_mb."):
            print("slice %s peak RSS %.1f MB" % (k.rsplit(".", 1)[1], v))
    attempted = len(plan["cells"]) + len(plan["queries"]) + len(plan["instances"])
    return True, attempted, 0, metrics


# --- main -----------------------------------------------------------------

WORKLOADS = {
    "paper_report": workload_paper_report,
    "sweep_grid": workload_sweep_grid,
    "serve_whatif": workload_serve_whatif,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    info = build()
    print("build: %s, CMAKE_BUILD_TYPE=%s, flags: %s" % (
        info["compiler"], info["build_type"], info["flags"]))
    work = BUILD / "work" / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            correct, attempted, failed, metrics = workload_trace(args, work)
        else:
            correct, attempted, failed, metrics = WORKLOADS[args.workload](
                args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
