"""The benchmark still calls the library as it is.

benchmarks/child.py builds drives, a `JCConfig` and the exact channel
through their public signatures, and benchmarks/workloads.py writes the
sweep documents its CLI workloads run. Tier-1 never runs the benchmark, so
a signature change or a stricter config loader would show only as
`correct: false` or `run_failed` in its report. These tests evaluate every
point of benchmarks/reference/domain.csv as the benchmark does and check
the results against that file, load every CLI sweep document through the
sweep loader, and replay each default-seed CLI sweep against its reference
CSV as the benchmark's reference check does. They only read benchmarks/.
"""

from __future__ import annotations

import importlib
import math
import signal
from dataclasses import replace
from pathlib import Path

from eigenfid import channel, errors, experiments, jcdrive, serialize
from eigenfid.cli import _build_parser

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


def _config(sweep: dict) -> experiments.SweepConfig:
    """The sweep document loaded, with the invocation's flags as the CLI applies them."""
    config = serialize.sweep_config_from_dict(sweep["config"], sweep["mode"])
    args = _build_parser().parse_args([sweep["mode"], "--config", "-", *sweep["flags"]])
    flags = {k: getattr(args, k) for k in ("seed", "jobs", "mc_samples")}
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def test_every_cli_sweep_document_loads_with_its_grid(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCHMARKS))
    workloads = importlib.import_module("workloads")
    for workload in workloads.CLI_WORKLOADS:
        for sweep in workloads.sweeps(workload, workloads.DEFAULT_SEED):
            config = _config(sweep)
            axes = experiments._MODES[config.mode].axes
            assert math.prod(len(experiments._axis(config, a)) for a in axes) == sweep["rows"]


def test_every_cli_sweep_replays_its_reference(monkeypatch, tmp_path):
    # the rows do not depend on jobs, so the sweeps run in this process
    monkeypatch.syspath_prepend(str(_BENCHMARKS))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    for workload in workloads.CLI_WORKLOADS:
        for sweep in workloads.sweeps(workload, workloads.DEFAULT_SEED):
            path = str(tmp_path / f"{workload}.{sweep['name']}.csv")
            experiments.write_csv(experiments.run(replace(_config(sweep), jobs=1)), path)
            header, rows = run.read_csv(path)
            assert run.compare_reference(header, rows,
                                         run.reference_path(workload, sweep["name"])) == []
