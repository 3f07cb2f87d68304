"""The library names that the benchmark tracer wraps exist and are callable.

benchmarks/child.py wraps library functions at the names through which the
CLI and the sweep call them. Tier-1 never runs the tracer, so a cleanup that
removed one of those names would break `benchmarks/run.py --trace 1` unseen.
This test only reads benchmarks/child.py.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from eigenfid import channel, cli, experiments, haar, jcdrive, serialize

_CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"


class _RecordingTracer:
    """Records each wrap call and wraps nothing."""

    def __init__(self):
        self.wrapped: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, amount=None) -> None:
        self.wrapped.append((owner, attr, name))


def _child():
    spec = importlib.util.spec_from_file_location("benchmark_child", _CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_and_is_callable():
    tracer = _RecordingTracer()
    _child().install(tracer, (cli, experiments, channel, haar, serialize, jcdrive))
    assert tracer.wrapped
    missing = [f"{owner.__name__}.{attr} (span {name})" for owner, attr, name in tracer.wrapped
               if not callable(getattr(owner, attr, None))]
    assert not missing
