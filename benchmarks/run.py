"""End-to-end and per-layer benchmark of the eigenfid sweep pipeline.

    python3 benchmarks/run.py --workload scaling --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --trace 1
    python3 benchmarks/run.py --record-reference

Run it from the root of a checkout. The untraced mode (--trace 0) runs the
workload's CLI sweeps as child processes (`python -m eigenfid.cli` with
PYTHONPATH=src), or the domain evaluations in one child process, and reports
the end-to-end metrics, with each time scaled to a reference machine speed
by calibrations around it. The traced mode (--trace 1) runs the same work
in process at --jobs 1 with spans around each layer's public functions and
reports the per-layer metrics. Both modes check every output. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit status is 0 only when every check passed.
README.md next to this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict

import workloads
from child import CAL_REF_S, calibrate, paced

perf = time.perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_DIR_NAME = ".bench_work"

# A domain evaluation that reaches this limit is a hang. The slowest
# evaluation that terminates (binomial, F=0.5, n-bar=1e5, which then fails
# its normalization check) takes about 0.25 s, so a slowdown of the machine
# alone cannot turn a terminating evaluation into a hang.
EVAL_LIMIT_S = 1.0
# A CLI sweep takes about a second; one that runs for this long is killed.
CLI_LIMIT_S = 60.0
# share of a domain run spent on --version probes, half before the child and
# half after it, with at least DOMAIN_MIN_PROBES on each side
DOMAIN_PROBE_SHARE = 0.15
DOMAIN_MIN_PROBES = 3
FLOAT_RTOL, FLOAT_ATOL = 1e-9, 1e-12
BRACKET_TOL = 1e-10
BRACKET = ("eigenerror_bound_lower", "eigenerror_exact", "eigenerror_bound_upper")
UNCHECKED_COLUMNS = ("runtime_ms",)
# outcomes that are benchmark failures; a domain hang or typed error is not
# one, it is the constructor behaviour the domain workload measures
FAILED = ("failed", "failed check")

# the gated metrics; the report also prints sweep_s, eval_ms, eval_p90_ms,
# rows_per_s and failed_share (README.md says why those are not gated)
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# traced name -> the stats reported for it
_TRACED = {
    "jcdrive.poisson_drive": ("calls", "self_s", "failed"),
    "jcdrive.binomial_drive": ("calls", "self_s", "failed"),
    "jcdrive.build_channel_exact": ("calls", "self_s"),
    "channel.QubitChannel": ("constructions", "self_s"),
    "channel.compose": ("calls", "self_s"),
    "channel.concatenate": ("calls", "self_s"),
    "channel.channel_eigenerror_bounds": ("calls", "self_s"),
    "channel.mc_channel_eigenfidelity": ("calls", "self_s"),
    "haar.sample_amplitudes": ("calls", "self_s"),
    "experiments.run": ("self_s",),
    "experiments.write_csv": ("self_s",),
    "experiments.write_sidecar": ("self_s",),
    "serialize.load_sweep_config": ("self_s",),
    "cli.main": ("self_s",),
    "domain.evaluate": ("self_s",),
}
# per-call amounts summed into counters: counter -> traced names
_AMOUNTS = {
    "jcdrive.drive_points": ("jcdrive.poisson_drive", "jcdrive.binomial_drive"),
    "haar.samples": ("haar.sample_amplitudes",),
    "experiments.rows": ("experiments.run",),
    "experiments.csv_bytes": ("experiments.write_csv",),
}
_UNITS = {"calls": "count", "constructions": "count", "failed": "count", "self_s": "s"}
PER_LAYER = {f"{name}.{stat}": _UNITS[stat] for name, stats in _TRACED.items() for stat in stats}
PER_LAYER.update({
    "jcdrive.drive_points": "count",
    "haar.samples": "count",
    "experiments.rows": "count",
    "experiments.csv_bytes": "B",
    "experiments.pool_efficiency": "ratio",
    "cli.import_s": "s",
    "trace.compute_s": "s",
    "trace.untraced_compute_s": "s",
    "trace.overhead_share": "ratio",
})


class SetupError(Exception):
    """The checkout cannot run the benchmark (no eigenfid sources)."""


# ---------------------------------------------------------------------------
# set-up

def import_library(root: str):
    """Import eigenfid from ROOT/src, never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eigenfid", "cli.py")):
        raise SetupError(f"no eigenfid sources under {src}")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, src)
    import eigenfid
    from eigenfid import serialize

    if not os.path.abspath(eigenfid.__file__).startswith(src + os.sep):
        raise SetupError(f"eigenfid imported from {eigenfid.__file__}, not {src}")
    return eigenfid, serialize


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               EIGENFID_LOG="warn")
    return env


def _git_commit(root: str):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, eigenfid, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": "1",
        "eigenfid": eigenfid.__version__,
        "commit": _git_commit(root),
        "seed": seed,
    }


def write_sweeps(work: str, workload: str, seed: int, serialize, tag: str) -> list[dict]:
    """Write the workload's configs into WORK and validate each one."""
    sweeps = workloads.sweeps(workload, seed)
    for sw in sweeps:
        stem = os.path.join(work, f"{tag}-{workload}-{sw['name']}")
        sw["config_path"] = stem + ".json"
        sw["output"] = stem + ".csv"
        with open(sw["config_path"], "w", encoding="utf-8") as fh:
            json.dump(sw["config"], fh)
        serialize.load_sweep_config(sw["config_path"], expected_mode=sw["mode"])
    return sweeps


# ---------------------------------------------------------------------------
# child processes

def spawn(argv: list, env: dict, limit: float, log_path: str, cwd: str,
          cpu: int | None = None) -> tuple:
    """Run argv to completion: (exit code, wall seconds, max RSS in KiB).

    The child gets its own process group, which is killed at the limit or
    when this process is told to stop. Max RSS comes from os.wait4 and
    covers the child and the children it waited for (a sweep's pool
    workers). CPU, when given, pins the child to that CPU.
    """
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                os.killpg(proc.pid, signal.SIGKILL)

    allowed = os.sched_getaffinity(0)
    with open(log_path, "wb") as log:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # the child inherits it
        try:
            t0 = perf()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    cwd=cwd, start_new_session=True)
        finally:
            os.sched_setaffinity(0, allowed)
        timer = threading.Timer(limit, kill)
        timer.daemon = True
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            timer.cancel()
            kill()
            os.waitpid(proc.pid, 0)
            raise
        wall = perf() - t0
        with lock:
            reaped = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def calibration(cpus: list) -> float:
    """Mean calibrate() time with this process pinned to each of CPUS in turn."""
    allowed = os.sched_getaffinity(0)
    try:
        total = 0.0
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            total += calibrate()
    finally:
        os.sched_setaffinity(0, allowed)
    return total / len(cpus)


def scaled_spawn(ctx: "Context", argv: list, log_path: str, cpu: int | None) -> tuple:
    """spawn() between two calibrations on the child's CPU (on both CPUs when
    the child is not pinned): (exit code, wall s, scale, max RSS KiB), where
    wall * scale is the wall time at the reference speed."""
    cpus = [cpu] if cpu is not None else ctx.cpu_pair
    before = calibration(cpus)
    code, wall, rss = spawn(argv, ctx.env, CLI_LIMIT_S, log_path, ctx.root, cpu)
    return code, wall, CAL_REF_S / ((before + calibration(cpus)) / 2), rss


def _tail(path: str, lines: int = 3) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def run_child(ctx: "Context", job: dict, limit: float) -> tuple:
    """Run benchmarks/child.py on JOB: (result dict or None, max RSS KiB, problem)."""
    job_path = os.path.join(ctx.work, "job.json")
    result_path = os.path.join(ctx.work, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    log = os.path.join(ctx.work, "child.log")
    code, _, rss = spawn([sys.executable, os.path.join(BENCH_DIR, "child.py"), job_path,
                          result_path], ctx.env, limit, log, ctx.root)
    if code != 0:
        return None, rss, f"child exited with {code}: {_tail(log)}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), rss, None


# ---------------------------------------------------------------------------
# output checks

def read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_sweep(sweep: dict) -> tuple[list, list, list]:
    """Row count, sidecar and eigenerror bracket of one sweep's output."""
    header, rows = read_csv(sweep["output"])
    problems = []
    if len(rows) != sweep["rows"]:
        problems.append(f"{len(rows)} CSV rows, grid has {sweep['rows']}")
    with open(sweep["output"] + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if sidecar.get("row_count") != len(rows):
        problems.append(f"sidecar row_count {sidecar.get('row_count')} != {len(rows)} rows")
    if sidecar.get("columns") != header:
        problems.append("sidecar columns differ from the CSV header")
    missing = [c for c in BRACKET if c not in header]
    if missing:
        return header, rows, problems + [f"missing columns {missing}"]
    idx = [header.index(c) for c in BRACKET]
    for i, row in enumerate(rows):
        lo, ex, hi = (float(row[k]) for k in idx)
        if not all(map(math.isfinite, (lo, ex, hi))) or not (
                lo - BRACKET_TOL <= ex <= hi + BRACKET_TOL):
            problems.append(f"row {i}: eigenerror {ex} outside [{lo}, {hi}]")
            break
    return header, rows, problems


def deterministic(header: list, rows: list) -> list:
    keep = [k for k, c in enumerate(header) if c not in UNCHECKED_COLUMNS]
    return [[header[k] for k in keep]] + [[row[k] for k in keep] for row in rows]


def _same_cell(a: str, b: str) -> bool:
    try:
        return math.isclose(float(a), float(b), rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
    except ValueError:
        return a == b


def compare_reference(header: list, rows: list, ref_path: str) -> list:
    """Compare by column name; columns the reference lacks are ignored."""
    ref_header, ref_rows = read_csv(ref_path)
    if len(ref_rows) != len(rows):
        return [f"{len(rows)} rows, reference {os.path.basename(ref_path)} has {len(ref_rows)}"]
    shared = [(header.index(c), j, c) for j, c in enumerate(ref_header) if c in header]
    lost = [c for c in BRACKET if c not in header]
    if lost:
        return [f"columns {lost} of the reference are missing"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for k, j, name in shared:
            if not _same_cell(row[k], ref[j]):
                return [f"row {i} {name}: {row[k]} differs from reference {ref[j]}"]
    return []


def reference_path(workload: str, sweep: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.{sweep}.csv")


def load_domain_reference() -> list:
    with open(os.path.join(REFERENCE_DIR, "domain.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [[[r["kind"], float(r["nbar"]), float(r["fano"]) if r["fano"] else None,
              float(r["tau"])], float(r["lower"]), float(r["upper"])] for r in rows]


def check_domain_reference(reference: list, evaluated: list) -> list:
    for (point, lo, hi), (_, outcome, _, got_lo, got_hi) in zip(reference, evaluated):
        if outcome != "ok":
            return [f"reference point {point} now ends in {outcome}"]
        for want, got in ((lo, got_lo), (hi, got_hi)):
            if not math.isclose(want, got, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
                return [f"reference point {point}: {got} differs from {want}"]
    return []


def check_eval(outcome: str, lo: float, hi: float) -> str | None:
    """Problem with one domain evaluation, or None."""
    if outcome.startswith("untyped:"):
        return f"untyped exception {outcome[8:]}"
    if outcome == "ok" and not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        return f"bracket [{lo}, {hi}] is not finite and ordered"
    return None


# ---------------------------------------------------------------------------
# workloads

class Context:
    def __init__(self, root: str, work: str, serialize, seed: int, seconds: float):
        self.root, self.work, self.serialize = root, work, serialize
        self.seed, self.seconds = seed, seconds
        self.env = child_env(root)
        self.cli = [sys.executable, "-m", "eigenfid.cli"]
        cpus = sorted(os.sched_getaffinity(0))
        self.cpu_pair = (cpus * 2)[:2]


class Tally:
    """Samples and failures of one workload's run."""

    def __init__(self, name: str):
        self.name = name
        self.setup_s: list[float] = []
        self.latency_ms: list[float] = []
        self.rows = 0
        self.busy_s = 0.0
        self.rss_kib = 0
        self.scales: list[float] = []  # reference speed / measured speed, per timing
        self.attempted = 0  # operations and set-up probes
        self.failed = 0  # checks that failed and unexpected errors
        self.outcomes: Counter = Counter()  # per operation: "ok" or how it failed
        self.problems: list[str] = []
        self.layers: dict = {}  # per-layer metrics of a traced run
        self.notes: list[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def operation(self, outcome: str, latency_ms: float = 0.0, seconds: float = 0.0,
                  rows: int = 0) -> None:
        """One sweep or domain evaluation; only successful ones add rows and busy time."""
        self.attempted += 1
        self.failed += outcome in FAILED
        self.outcomes[outcome] += 1
        self.latency_ms.append(latency_ms)
        if outcome == "ok":
            self.rows += rows
            self.busy_s += seconds

    def metrics(self) -> dict:
        return {
            "setup_s": statistics.median(self.setup_s),
            "latency_ms": statistics.median(self.latency_ms),
            "rows_per_s": self.rows / self.busy_s if self.busy_s else 0.0,
            "peak_rss_mb": self.rss_kib / 1024.0,
            "ok_share": self.outcomes["ok"] / sum(self.outcomes.values()),
        }


def setup_probe(ctx: Context, tally: Tally) -> None:
    """One `eigenfid --version` from spawn to exit (interpreter, imports,
    parser), pinned to each CPU of the pair in turn, at the reference speed."""
    log = os.path.join(ctx.work, "probe.log")
    cpu = ctx.cpu_pair[len(tally.setup_s) % 2]
    code, wall, scale, rss = scaled_spawn(ctx, ctx.cli + ["--version"], log, cpu)
    tally.attempted += 1
    tally.rss_kib = max(tally.rss_kib, rss)
    tally.setup_s.append(wall * scale)
    tally.scales.append(scale)
    with open(log, encoding="utf-8", errors="replace") as fh:
        if code != 0 or not fh.read().startswith("eigenfid "):
            tally.failed += 1
            tally.problem(f"--version exited with {code}: {_tail(log)}")


def run_sweep(ctx: Context, sw: dict, cpu: int | None = None) -> tuple:
    """One CLI invocation of a sweep: scaled_spawn()'s result plus the log path."""
    log = os.path.join(ctx.work, "sweep.log")
    argv = ctx.cli + [sw["mode"], "--config", sw["config_path"], "-o", sw["output"]]
    return scaled_spawn(ctx, argv + sw["flags"], log, cpu) + (log,)


def reference_check(ctx: Context, workload: str, tally: Tally) -> None:
    """Untimed: run the default seed's sweeps once and compare with the reference."""
    for sw in write_sweeps(ctx.work, workload, workloads.DEFAULT_SEED, ctx.serialize, "ref"):
        code, _, _, _, log = run_sweep(ctx, sw)
        if code != 0:
            tally.problem(f"reference sweep {sw['name']} exited with {code}: {_tail(log)}")
            continue
        header, rows, problems = check_sweep(sw)
        problems += compare_reference(header, rows, reference_path(workload, sw["name"]))
        for p in problems:
            tally.problem(f"reference sweep {sw['name']}: {p}")


class CliWorkload:
    """Closed loop, one client: sweeps and --version probes, one after another."""

    def __init__(self, ctx: Context, name: str):
        self.ctx, self.tally = ctx, Tally(name)
        reference_check(ctx, name, self.tally)
        self.sweeps = write_sweeps(ctx.work, name, ctx.seed, ctx.serialize, "run")
        self.first_output: dict = {}
        self.rounds = 0
        self.invocations = 0

    def round(self) -> None:
        """Each sweep once, each followed by a set-up probe; order alternates."""
        order = self.sweeps if self.rounds % 2 == 0 else self.sweeps[::-1]
        for sw in order:
            self.sweep(sw)
            setup_probe(self.ctx, self.tally)
        self.rounds += 1

    def sweep(self, sw: dict) -> None:
        ctx, tally = self.ctx, self.tally
        if os.path.exists(sw["output"]):
            os.unlink(sw["output"])
        # a single-process sweep runs on each CPU in turn (see setup_probe);
        # a sweep with a process pool needs them all
        cpu = None if "--jobs" in sw["flags"] else ctx.cpu_pair[self.invocations % 2]
        self.invocations += 1
        code, wall, scale, rss, log = run_sweep(ctx, sw, cpu)
        tally.rss_kib = max(tally.rss_kib, rss)
        tally.scales.append(scale)
        rows: list = []
        problems = [f"exit status {code}: {_tail(log)}"] if code != 0 else []
        if not problems:
            header, rows, problems = check_sweep(sw)
            snapshot = deterministic(header, rows)
            if self.first_output.setdefault(sw["name"], snapshot) != snapshot:
                problems.append("output differs from this run's first invocation")
        for p in problems:
            tally.problem(f"{sw['name']}: {p}")
        tally.operation("failed" if problems else "ok", wall * scale * 1e3, wall * scale,
                        len(rows))


def domain_job(mode: str, seconds: float, seed: int, reference=True) -> dict:
    return {"mode": mode, "seconds": seconds, "limit": EVAL_LIMIT_S,
            "points": workloads.domain_points(seed), "sweeps": [],
            "reference": load_domain_reference() if reference else []}


def record_evals(tally: Tally, evals: list, times: list | None = None) -> None:
    """Domain evaluations into TALLY; failures count at the limit.

    TIMES, when given, holds the re-timings of each successful point at
    the reference speed, and the point's latency is their median.
    """
    for i, (outcome, seconds, lo, hi) in enumerate(evals):
        problem = check_eval(outcome, lo, hi)
        if problem:
            tally.problem(problem)
            outcome = "failed check"
        if outcome == "ok" and times:
            seconds = statistics.median(times[i])
            tally.attempted += len(times[i])
        tally.operation(outcome, (seconds if outcome == "ok" else EVAL_LIMIT_S) * 1e3,
                        seconds, 1)


def run_domain(ctx: Context) -> Tally:
    tally = Tally("domain")
    start = perf()
    probe_s = DOMAIN_PROBE_SHARE / 2 * ctx.seconds
    while len(tally.setup_s) < DOMAIN_MIN_PROBES or perf() - start < probe_s:
        setup_probe(ctx, tally)
    job = domain_job("domain", (1 - DOMAIN_PROBE_SHARE) * ctx.seconds, ctx.seed)
    result, rss, problem = run_child(ctx, job, ctx.seconds + 120)
    tally.rss_kib = max(tally.rss_kib, rss)
    while len(tally.setup_s) < 2 * DOMAIN_MIN_PROBES or perf() - start < ctx.seconds:
        setup_probe(ctx, tally)
    if problem:
        tally.problem(problem)
        return tally
    for p in check_domain_reference(job["reference"], result["reference"]):
        tally.problem(p)
    for i, outcome in result["changed"]:
        tally.problem(f"point {job['points'][i]} ended in {outcome} when re-timed")
    record_evals(tally, result["first"], result["times"])
    tally.scales += result["scales"]
    return tally


# ---------------------------------------------------------------------------
# traced run

def run_traced(ctx: Context, name: str) -> Tally:
    tally = Tally(name)
    if name == "domain":
        job = domain_job("trace", ctx.seconds, ctx.seed)
    else:
        reference_check(ctx, name, tally)
        job = {"mode": "trace", "seconds": ctx.seconds, "limit": EVAL_LIMIT_S, "points": [],
               "reference": [],
               "sweeps": write_sweeps(ctx.work, name, ctx.seed, ctx.serialize, "trace")}
    result, _, problem = run_child(ctx, job, ctx.seconds + 150)
    if problem:
        tally.problem(problem)
        return tally
    if name == "domain":
        for p in check_domain_reference(job["reference"], result["reference"]):
            tally.problem(p)
        record_evals(tally, result["outcomes"])
    else:
        for code in result["outcomes"]:
            tally.operation("ok" if code == 0 else "failed")
            if code != 0:
                tally.problem(f"in-process sweep exited with {code}")
        for sw in job["sweeps"]:
            for p in check_sweep(sw)[2]:
                tally.problem(f"{sw['name']}: {p}")
    tally.layers, tally.notes = layer_metrics(result)
    return tally


def layer_metrics(result: dict) -> tuple[dict, list]:
    """Per-layer metrics of the fastest traced pass, plus the tracing overhead."""
    spans = result["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, run, failed, amount in spans:
        if parent >= 0:
            child_s[parent] += end - start
    per_pass = []
    for p in result["passes"]:
        first, last = p["runs"]
        calls, self_s, failed = Counter(), defaultdict(float), Counter()
        amounts = Counter()
        compute = run_s = 0.0
        for i, (name, start, end, parent, run, bad, amount) in enumerate(spans):
            if not first <= run < last:
                continue
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
            failed[name] += bad
            amounts[name] += amount
            if parent < 0:
                compute += end - start
            if name == "experiments.run":
                run_s += end - start
        m = {}
        for name, stats in _TRACED.items():
            for stat in stats:
                m[f"{name}.{stat}"] = self_s[name] if stat == "self_s" else (
                    failed[name] if stat == "failed" else calls[name])
        for counter, names in _AMOUNTS.items():
            m[counter] = sum(amounts[n] for n in names)
        parallel = p["pool_jobs2_s"]
        m["experiments.pool_efficiency"] = (
            run_s / (2 * parallel) if parallel else 0.0)
        m["trace.compute_s"] = compute
        m["trace.untraced_compute_s"] = p["untraced_s"]
        per_pass.append(m)
    # counts and self times all come from the fastest traced pass, so they
    # add up to its compute time; the fastest, because the development VM
    # slows down from outside for seconds at a time
    out = dict(min(per_pass, key=lambda m: m["trace.compute_s"]))
    notes = [f"{key} differs between passes: {[m[key] for m in per_pass]}"
             for key, unit in PER_LAYER.items()
             if unit in ("count", "B") and len({m.get(key) for m in per_pass}) > 1]
    out["trace.untraced_compute_s"] = min(m["trace.untraced_compute_s"] for m in per_pass)
    out["experiments.pool_efficiency"] = statistics.median(
        m["experiments.pool_efficiency"] for m in per_pass)
    out["cli.import_s"] = result["import_s"]
    out["trace.overhead_share"] = out["trace.compute_s"] / out["trace.untraced_compute_s"] - 1.0
    return {k: out[k] for k in PER_LAYER}, notes


# ---------------------------------------------------------------------------
# reports

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_untraced(tally: Tally) -> dict:
    m = tally.metrics()
    n_ops = len(tally.latency_ms)
    lines = [
        ("setup_s", m["setup_s"], "s", len(tally.setup_s)),
        ("latency_ms", m["latency_ms"], "ms", n_ops),
        ("rows_per_s", m["rows_per_s"], "rows/s", tally.outcomes["ok"]),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", tally.attempted),
        ("ok_share", m["ok_share"], "ratio", n_ops),
    ]
    if tally.name == "domain":
        p90 = statistics.quantiles(tally.latency_ms, n=10)[-1]
        tail = sum(v >= p90 for v in tally.latency_ms)
        lines += [("eval_ms", m["latency_ms"], "ms", n_ops),
                  ("eval_p90_ms", p90, "ms", f"{n_ops}, {tail} at or beyond p90")]
    else:
        lines.insert(1, ("sweep_s", m["latency_ms"] / 1e3, "s", n_ops))
    lines.append(("machine_speed", statistics.median(tally.scales), "ratio", len(tally.scales)))
    failed = sorted((k, v) for k, v in tally.outcomes.items() if k != "ok")
    lines.append(("failed_share", 1.0 - m["ok_share"], "ratio",
                  f"{n_ops}; " + (", ".join(f"{k} {v}" for k, v in failed) or "none")))
    for name, value, unit, n in lines:
        print(f"{tally.name:12s} {name:14s} {_fmt(value):>12s} {unit:7s} n={n}")
    return m


def report_traced(tally: Tally) -> dict:
    layers = tally.layers
    for key, unit in PER_LAYER.items():
        print(f"{tally.name:12s} {key:40s} {_fmt(layers[key]):>12s} {unit}")
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    print(f"{tally.name:12s} self times sum to {_fmt(self_sum)} s of "
          f"{_fmt(layers['trace.compute_s'])} s traced compute")
    for note in tally.notes:
        print(f"{tally.name:12s} note: {note}")
    return layers


# ---------------------------------------------------------------------------
# reference recording

def record_reference(ctx: Context) -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in workloads.CLI_WORKLOADS:
        for sw in write_sweeps(ctx.work, workload, workloads.DEFAULT_SEED, ctx.serialize, "ref"):
            code, _, _, _, log = run_sweep(ctx, sw)
            if code != 0:
                print(f"{workload}/{sw['name']} failed: {_tail(log)}", file=sys.stderr)
                return 1
            header, rows = read_csv(sw["output"])
            with open(reference_path(workload, sw["name"]), "w", newline="",
                      encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(deterministic(header, rows))
    job = domain_job("domain", 0, workloads.DEFAULT_SEED, reference=False)
    result, _, problem = run_child(ctx, job, 600)
    if problem:
        print(problem, file=sys.stderr)
        return 1
    with open(os.path.join(REFERENCE_DIR, "domain.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "nbar", "fano", "tau", "lower", "upper"])
        for (kind, nbar, fano, tau), (outcome, _, lo, hi) in zip(job["points"],
                                                                  result["first"]):
            if outcome == "ok":
                writer.writerow([kind, repr(nbar), "" if fano is None else repr(fano),
                                 repr(tau), repr(lo), repr(hi)])
    print(f"wrote reference files to {REFERENCE_DIR}")
    return 0


# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference/ from the default seed and exit")
    return parser.parse_args(argv)


def execute(ctx: Context, names: list, trace: bool) -> list[Tally]:
    if trace:
        return [run_traced(ctx, name) for name in names]
    cli = [CliWorkload(ctx, name) for name in names if name != "domain"]
    # CLI workloads run interleaved, one round each in turn, so that a slow
    # spell of the machine falls on all of them alike
    for _ in paced(ctx.seconds * len(cli)) if cli else ():
        for w in cli:
            w.round()
    tallies = [w.tally for w in cli]
    if "domain" in names:
        tallies.append(run_domain(ctx))
    return tallies


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)  # spawn() then kills the running child
    root = os.getcwd()
    try:
        eigenfid, serialize = import_library(root)
    except (SetupError, ImportError) as exc:
        print(f"benchmark: cannot run here: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR_NAME), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR_NAME))
    try:
        ctx = Context(root, work, serialize, args.seed, args.seconds)
        if args.record_reference:
            return record_reference(ctx)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        print(f"# eigenfid benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, {'traced' if args.trace else 'untraced'}")
        print("env " + json.dumps(environment(root, eigenfid, args.seed)))
        tallies = execute(ctx, names, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    units = PER_LAYER if args.trace else END_TO_END
    for tally in tallies:
        # a workload whose child process failed has problems but no samples
        if tally.layers if args.trace else tally.latency_ms:
            m = report_traced(tally) if args.trace else report_untraced(tally)
            prefix = f"{tally.name}." if len(tallies) > 1 else ""
            metrics.update({prefix + k: {"value": m[k], "unit": units[k]} for k in units})
        for p in tally.problems:
            print(f"{tally.name:12s} CHECK FAILED: {p}")
    correct = not any(t.problems for t in tallies)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
