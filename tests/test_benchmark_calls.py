"""The benchmark's domain evaluation still calls the library as it is.

benchmarks/child.py builds drives, a `JCConfig` and the exact channel
through their public signatures. Tier-1 never runs the benchmark, so a
signature change would show only as `correct: false` in its report. This
test evaluates every point of benchmarks/reference/domain.csv as the
benchmark does and checks the results against that file. It only reads
benchmarks/.
"""

from __future__ import annotations

import importlib
import signal
from pathlib import Path

from eigenfid import channel, errors, jcdrive

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_domain_reference_point_evaluates_to_its_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCHMARKS))  # run.py imports child and workloads
    child = importlib.import_module("child")
    run = importlib.import_module("run")
    reference = run.load_domain_reference()
    assert reference
    previous = signal.signal(signal.SIGALRM, child._on_alarm)
    try:
        evaluated = [[point, *child.evaluate(point, run.EVAL_LIMIT_S, jcdrive, channel, errors)]
                     for point, _, _ in reference]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert run.check_domain_reference(reference, evaluated) == []
