"""In-process half of the benchmark: runs in a child process with src/ on PYTHONPATH.

    python3 benchmarks/child.py JOB.json RESULT.json

JOB.json has a "mode":

- "domain": evaluate each seeded domain point (drive -> build_channel_exact
  -> channel_eigenerror_bounds) once, each evaluation bounded by a SIGALRM
  time limit, and re-time the points that succeeded until "seconds" have
  elapsed.
- "trace": alternate an untraced and a traced pass over the workload's work
  (in-process CLI sweeps at --jobs 1, or domain evaluations) until
  "seconds" have elapsed. Spans are recorded by wrapping the library's
  public functions at the names through which cli, experiments and channel
  call them; they stay in memory and go to RESULT.json at the end.

The parent (run.py) turns RESULT.json into metrics.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import signal
import sys
import time
from dataclasses import replace

perf = time.perf_counter
RETIME_EVERY = 10  # points of the first domain pass between re-timing passes


class TimeLimit(Exception):
    """Raised by the SIGALRM handler when an evaluation reaches its limit."""


def _on_alarm(signum, frame):
    raise TimeLimit()


# calibrate() on the development VM while it runs at full speed
CAL_REF_S = 3.0e-3


def calibrate() -> float:
    """Seconds taken by a fixed CPU-bound job that runs no eigenfid code.

    It measures how fast the machine is at this moment on this process's
    CPU. A time multiplied by CAL_REF_S / calibrate() is the time the same
    work takes at the reference speed.
    """
    import numpy as np  # late, so that run.py sets OPENBLAS_NUM_THREADS first

    m = np.eye(4) + 0.1
    t0 = perf()
    total = 0
    for i in range(30000):
        total += i * i % 7
    for _ in range(100):
        np.linalg.eigvalsh(m)
    return perf() - t0


def paced(budget: float):
    """Yield pass numbers: the first always, then while one more pass as long
    as the last one still ends within BUDGET seconds of the first's start."""
    start = mark = perf()
    n = 0
    while True:
        now = perf()
        if n and now - start + (now - mark) > budget:
            return
        mark = now
        yield n
        n += 1


def evaluate(point, limit: float, jcdrive, channel, errors) -> tuple:
    """One domain evaluation: (outcome, seconds, lower, upper).

    outcome is "ok", "hang" (time limit reached), the class name of a typed
    EigenfidError, or "untyped:<class>" for any other exception. The library
    functions are looked up on their modules at call time, so the tracer's
    wrappers apply when they are installed.
    """
    kind, nbar, fano, tau = point
    lo = hi = math.nan
    t0 = perf()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if kind == "poisson":
                drive = jcdrive.poisson_drive(nbar)
            else:
                drive = jcdrive.binomial_drive(nbar, fano * nbar)
            ch = jcdrive.build_channel_exact(drive, jcdrive.JCConfig(tau=tau))
            lo, hi = channel.channel_eigenerror_bounds(ch)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "ok"
    except TimeLimit:
        outcome = "hang"
    except errors.EigenfidError as exc:
        outcome = type(exc).__name__
    except Exception as exc:  # recorded as an unexpected failure, never fatal
        outcome = f"untyped:{type(exc).__name__}"
    return outcome, perf() - t0, lo, hi


class Tracer:
    """Span recorder. A span is [name, start, end, parent, run, failed, amount].

    parent is the index of the enclosing span (-1 for a root), run the id of
    the root invocation it belongs to, amount a per-call count such as the
    support size of a returned drive.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = None
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, amount=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.run is None:
                return original(*args, **kwargs)
            return self.call(name, original, args, kwargs, amount)

        setattr(owner, attr, wrapper)

    def call(self, name: str, fn, args=(), kwargs=None, amount=None):
        span = [name, perf(), 0.0, self._stack[-1] if self._stack else -1,
                self.run, True, 0]
        depth = len(self._stack)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
            span[5] = False
            if amount is not None:
                span[6] = amount(args, result)
            return result
        finally:
            span[2] = perf()
            del self._stack[depth:]

    def root(self, run: int, name: str, fn, *args):
        self.run = run
        self._stack.clear()
        try:
            return self.call(name, fn, args)
        finally:
            self.run = None


def _drive_points(args, drive) -> int:
    return len(drive.coefficients)


def install(tracer: Tracer, modules) -> None:
    """Wrap every traced public function at the name its caller uses."""
    cli, experiments, channel, haar, serialize, jcdrive = modules
    for module in (experiments, jcdrive):
        tracer.wrap(module, "poisson_drive", "jcdrive.poisson_drive", _drive_points)
        tracer.wrap(module, "binomial_drive", "jcdrive.binomial_drive", _drive_points)
        tracer.wrap(module, "build_channel_exact", "jcdrive.build_channel_exact")
    for module in (experiments, channel):
        tracer.wrap(module, "channel_eigenerror_bounds", "channel.channel_eigenerror_bounds")
    tracer.wrap(experiments, "concatenate", "channel.concatenate")
    tracer.wrap(experiments, "mc_channel_eigenfidelity", "channel.mc_channel_eigenfidelity")
    tracer.wrap(channel, "compose", "channel.compose")
    tracer.wrap(channel.QubitChannel, "__init__", "channel.QubitChannel")
    tracer.wrap(haar.SeededSampler, "sample_amplitudes", "haar.sample_amplitudes",
                lambda args, result: len(result))
    tracer.wrap(cli, "run", "experiments.run", lambda args, result: len(result.rows))
    tracer.wrap(cli, "write_csv", "experiments.write_csv",
                lambda args, result: os.path.getsize(args[1]))
    tracer.wrap(cli, "write_sidecar", "experiments.write_sidecar")
    tracer.wrap(serialize, "load_sweep_config", "serialize.load_sweep_config")


def _cli_argv(sweep: dict) -> list:
    """The sweep's CLI arguments, at --jobs 1."""
    flags = list(sweep["flags"])
    if "--jobs" in flags:
        flags[flags.index("--jobs") + 1] = "1"
    else:
        flags += ["--jobs", "1"]
    return [sweep["mode"], "--config", sweep["config_path"], "-o", sweep["output"]] + flags


def _cli_main(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_domain(job: dict, libs) -> dict:
    """Evaluate every point once, re-timing the successes all along.

    Outcomes are deterministic, so the first evaluation settles them: a
    hang is not run again (the parent counts it at the limit). The points
    that succeeded take milliseconds; they are timed again after every
    RETIME_EVERY points of the first pass and then pass after pass until
    "seconds" have elapsed, so each one's timings spread over the whole run.
    Each re-timing pass runs between two calibrations on its CPU, and its
    times are scaled to the reference speed. A re-timed point whose result
    changes is reported in "changed".
    """
    jcdrive, channel, errors = libs
    limit, points = job["limit"], job["points"]
    first: list = []
    times: list = [[] for _ in points]
    changed: list = []
    scales: list = []
    cpus = os.sched_getaffinity(0)
    next_cpu = itertools.cycle(sorted(cpus))

    def retime() -> None:
        # each pass on the next CPU, so that a CPU slowed from outside for a
        # whole run cannot set every timing of a point
        os.sched_setaffinity(0, {next(next_cpu)})
        before = calibrate()
        taken = {}
        for i, (outcome, _, lo, hi) in enumerate(first):
            if outcome == "ok":
                again = evaluate(points[i], limit, jcdrive, channel, errors)
                taken[i] = again[1]
                if (again[0], again[2], again[3]) != (outcome, lo, hi):
                    changed.append([i, again[0]])
        scale = CAL_REF_S / ((before + calibrate()) / 2)
        scales.append(scale)
        for i, seconds in taken.items():
            times[i].append(seconds * scale)

    start = perf()
    for i, point in enumerate(points):
        first.append(list(evaluate(point, limit, jcdrive, channel, errors)))
        if (i + 1) % RETIME_EVERY == 0:
            retime()
    for _ in paced(job["seconds"] - (perf() - start)):
        retime()
    os.sched_setaffinity(0, cpus)
    return {"first": first, "times": times, "changed": changed, "scales": scales}


def run_trace(job: dict, modules, import_s: float) -> dict:
    cli, experiments, channel, haar, serialize, jcdrive, errors = modules
    tracer = Tracer()
    install(tracer, modules[:-1])
    limit = job["limit"]
    sweeps = job["sweeps"]

    if sweeps:
        def work():
            return [(_cli_main, cli, _cli_argv(s)) for s in sweeps]
        root_name = "cli.main"
    else:
        def work():
            return [(evaluate, p, limit, jcdrive, channel, errors) for p in job["points"]]
        root_name = "domain.evaluate"

    passes = []
    outcomes = []
    runs = [0]

    def untraced_pass() -> float:
        total = 0.0
        for fn, *args in work():
            t0 = perf()
            fn(*args)
            total += perf() - t0
        return total

    def traced_pass() -> list:
        first = runs[0]
        for fn, *args in work():
            outcomes.append(tracer.root(runs[0], root_name, fn, *args))
            runs[0] += 1
        return [first, runs[0]]

    def pool_pass() -> float:
        total = 0.0
        for s in sweeps:
            config = serialize.load_sweep_config(s["config_path"], expected_mode=s["mode"])
            flags = s["flags"]
            mc = int(flags[flags.index("--mc-samples") + 1]) if "--mc-samples" in flags else 0
            t0 = perf()
            experiments.run(replace(config, jobs=2, mc_samples=mc))
            total += perf() - t0
        return total

    if sweeps:
        untraced_pass()  # warm-up, so first-call costs fall on neither side
    for n in paced(job["seconds"]):
        # the side that runs first alternates, so drift cancels
        if n % 2 == 0:
            untraced_s, traced = untraced_pass(), traced_pass()
        else:
            traced, untraced_s = traced_pass(), untraced_pass()
        passes.append({"runs": traced, "untraced_s": untraced_s, "pool_jobs2_s": pool_pass()})
    return {"import_s": import_s, "passes": passes, "spans": tracer.spans,
            "outcomes": outcomes}


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = perf()
    import eigenfid.cli as cli
    import_s = perf() - t0
    from eigenfid import channel, errors, experiments, haar, jcdrive, serialize

    # reference points first: untimed, and before the tracer is installed
    reference = [[point, *evaluate(point, job["limit"], jcdrive, channel, errors)]
                 for point, _, _ in job["reference"]]
    if job["mode"] == "domain":
        result = run_domain(job, (jcdrive, channel, errors))
    else:
        result = run_trace(job, (cli, experiments, channel, haar, serialize, jcdrive, errors),
                           import_s)
    result["reference"] = reference
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
