"""Sweep runners for eigenerror scaling, gate concatenation, and budget splits.

The three modes are one computation on different grids. Every row builds a
drive, the exact drive-induced channel, its C-fold concatenation and the
deterministic eigenerror bracket derived from the Haar-averaged output
purity: lower edge S_bar/2, upper edge S_bar, with the closed-form
asymptotic law alongside. Scaling is a single gate (C = 1), concat repeats
a gate C times with fresh drives, and split runs C gates at nbar/C each. A
mode only chooses its grid axes, its leading columns, and how a grid point
becomes the drive, tau and C of its row. The reported eigenerror column is
the deterministic lower edge; Monte Carlo estimates of the true channel
eigenerror are opt-in via mc_samples and carried in extra columns.

Grid points are independent, so jobs > 1 evaluates them in a process pool;
row order is always the grid order, never completion order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from ._version import __version__
from .channel import channel_eigenerror_bounds, concatenate, mc_channel_eigenfidelity
from .errors import BudgetTooSmall, UnsupportedParameters
from .haar import SeededSampler
from .jcdrive import (
    JCConfig,
    asymptotic_eigenerror_lower_bound,
    binomial_drive,
    build_channel_exact,
    poisson_drive,
)

logger = logging.getLogger("eigenfid.experiments")

SPLIT_CONVENTIONS = ("physical", "per_pulse")
BOUND_SANDWICH_TOL = 1e-10
VERSION_STRING = f"eigenfid-{__version__}"


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for one sweep run."""

    mode: str
    drive_kind: str = "poisson"
    nbar_grid: tuple = ()
    fano_grid: tuple = ()
    tau_grid: tuple = ()
    concat_grid: tuple = ()
    seed: int = 0
    output: str | None = None
    mc_samples: int = 0
    jobs: int = 1
    split_convention: str = "physical"
    binomial_mode: str = "moment_matched"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise UnsupportedParameters(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.drive_kind not in ("poisson", "binomial"):
            raise UnsupportedParameters(
                f"sweeps support poisson or binomial drives, got {self.drive_kind!r}"
            )
        if self.split_convention not in SPLIT_CONVENTIONS:
            raise UnsupportedParameters(
                f"split convention must be one of {SPLIT_CONVENTIONS}, "
                f"got {self.split_convention!r}"
            )
        if self.binomial_mode not in ("moment_matched", "paper_literal"):
            raise UnsupportedParameters(f"unknown binomial mode {self.binomial_mode!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise UnsupportedParameters("seed must fit in an unsigned 64-bit integer")
        if self.mc_samples < 0 or self.mc_samples == 1:
            raise UnsupportedParameters(
                "mc_samples must be 0 (off) or at least 2 for a standard error"
            )
        if self.jobs < 1:
            raise UnsupportedParameters("jobs must be at least 1")
        object.__setattr__(self, "nbar_grid", tuple(float(v) for v in self.nbar_grid))
        object.__setattr__(self, "fano_grid", tuple(float(v) for v in self.fano_grid))
        object.__setattr__(self, "tau_grid", tuple(float(v) for v in self.tau_grid))
        given = tuple(self.concat_grid)
        counts = tuple(int(v) for v in given)
        if counts != given:
            raise UnsupportedParameters(f"concatenation counts must be integers, got {given}")
        object.__setattr__(self, "concat_grid", counts)
        for name in _MODES[self.mode].axes:
            if not _axis(self, name):
                raise UnsupportedParameters(f"{name} must be non-empty for mode {self.mode!r}")
        if any(c < 1 for c in self.concat_grid):
            raise UnsupportedParameters("concatenation counts must be positive")
        if self.mode == "split" and self.drive_kind != "poisson":
            raise UnsupportedParameters("split mode uses coherent (poisson) drives")


@dataclass(frozen=True)
class SweepResult:
    """Ordered rows plus their column names and the config that produced them."""

    columns: tuple
    rows: tuple
    config: SweepConfig
    version: str = VERSION_STRING

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise UnsupportedParameters("row length does not match column count")
        idx = {name: k for k, name in enumerate(self.columns)}
        for row in self.rows:
            lo = row[idx["eigenerror_bound_lower"]]
            ex = row[idx["eigenerror_exact"]]
            hi = row[idx["eigenerror_bound_upper"]]
            if not (lo - BOUND_SANDWICH_TOL <= ex <= hi + BOUND_SANDWICH_TOL):
                raise UnsupportedParameters(
                    f"eigenerror {ex} escapes its bracket [{lo}, {hi}]"
                )

    def column(self, name: str) -> tuple:
        k = self.columns.index(name)
        return tuple(row[k] for row in self.rows)


# ---------------------------------------------------------------------------
# row evaluation (module-level so process pools can pickle the work)
#
# A mode's head turns one grid point into the row's leading cells and the
# gate it describes: (cells, drive, tau, C, asymptote). Every row then runs
# the same tail: exact channel, C-fold concatenation, purity bracket.

def _drive(config: SweepConfig, nbar: float, fano):
    if config.drive_kind == "poisson":
        return poisson_drive(nbar)
    return binomial_drive(nbar, fano * nbar, mode=config.binomial_mode)


def _asymptote(config: SweepConfig, nbar: float, fano, tau: float) -> float:
    variance = nbar if config.drive_kind == "poisson" else fano * nbar
    return asymptotic_eigenerror_lower_bound(config.drive_kind, nbar, variance, tau)


def _scaling_head(config: SweepConfig, nbar: float, fano, tau: float) -> tuple:
    drive = _drive(config, nbar, fano)
    cells = (config.drive_kind, nbar, drive.variance / drive.mean, tau)
    return cells, drive, tau, 1, _asymptote(config, nbar, fano, tau)


def _concat_head(config: SweepConfig, nbar: float, fano, count: int, tau: float) -> tuple:
    drive = _drive(config, nbar, fano)
    cells = (config.drive_kind, nbar, drive.variance / drive.mean, count, tau, count * tau)
    return cells, drive, tau, count, _asymptote(config, nbar, fano, tau)


def _split_head(config: SweepConfig, nbar_total: float, tau_total: float, count: int) -> tuple:
    sub_nbar = nbar_total / count
    if sub_nbar < 1:
        raise BudgetTooSmall(
            f"splitting {nbar_total} photons over {count} gates leaves "
            f"{sub_nbar} per gate; need at least 1"
        )
    if config.split_convention == "physical":
        # same physical duration t split C ways, re-reduced by the sub-gate's
        # own mean photon number: tau_sub = g sqrt(nbar/C) (t/C)
        sub_tau = tau_total * count ** -1.5
    else:
        # per_pulse: the printed tau/C applied at the sub-gate's nbar/C
        sub_tau = tau_total / count
    cells = (config.drive_kind, nbar_total, count, config.split_convention, sub_nbar,
             sub_tau, count * sub_nbar)
    return (cells, _drive(config, sub_nbar, None), sub_tau, count,
            _asymptote(config, sub_nbar, None, sub_tau))


class _Mode(NamedTuple):
    axes: tuple      # SweepConfig grid fields, in product order
    columns: tuple   # leading columns, the cells a head returns
    head: Callable


_MODES = {
    "scaling": _Mode(("nbar_grid", "fano_grid", "tau_grid"),
                     ("drive_kind", "nbar", "fano", "tau"), _scaling_head),
    "concat": _Mode(("nbar_grid", "fano_grid", "concat_grid", "tau_grid"),
                    ("drive_kind", "nbar", "fano", "concatenations", "tau", "total_tau"),
                    _concat_head),
    "split": _Mode(("nbar_grid", "tau_grid", "concat_grid"),
                   ("drive_kind", "nbar_total", "concatenations", "convention", "sub_nbar",
                    "sub_tau", "energy_total"), _split_head),
}
MODES = tuple(_MODES)
_TAIL_COLUMNS = ("eigenerror_exact", "eigenerror_bound_lower", "eigenerror_bound_upper",
                 "asymptote", "runtime_ms")
_MC_COLUMNS = ("eigenerror_mc", "eigenerror_mc_stderr")


def _axis(config: SweepConfig, name: str) -> tuple:
    # a Poisson drive has no Fano factor to sweep: one point, whatever fano_grid holds
    if name == "fano_grid" and config.drive_kind == "poisson":
        return (None,)
    return getattr(config, name)


def _evaluate(work: tuple) -> tuple:
    config, index, point = work
    t0 = time.perf_counter()
    cells, drive, tau, count, asymptote = _MODES[config.mode].head(config, *point)
    ch = concatenate(build_channel_exact(drive, JCConfig(tau=tau)), count)
    lo, hi = channel_eigenerror_bounds(ch)
    mc = ()
    if config.mc_samples:
        mean, err = mc_channel_eigenfidelity(ch, SeededSampler(config.seed, 2).child(index),
                                             config.mc_samples)
        mc = (1.0 - mean, err)
    ms = (time.perf_counter() - t0) * 1e3
    return cells + (lo, lo, hi, asymptote, ms) + mc


def run(config: SweepConfig) -> SweepResult:
    """One row per point of the mode's grid, in product order of its axes."""
    mode = _MODES[config.mode]
    grid = itertools.product(*(_axis(config, name) for name in mode.axes))
    work = [(config, i, point) for i, point in enumerate(grid)]
    if config.jobs > 1 and len(work) > 1:
        chunk = max(1, len(work) // (4 * config.jobs))
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_evaluate, work, chunksize=chunk))
    else:
        rows = [_evaluate(w) for w in work]
    logger.info("%s sweep finished: %d rows", config.mode, len(rows))
    columns = mode.columns + _TAIL_COLUMNS + (_MC_COLUMNS if config.mc_samples else ())
    return SweepResult(columns=columns, rows=tuple(rows), config=config)


def _run_mode(config: SweepConfig, mode: str) -> SweepResult:
    if config.mode != mode:
        raise UnsupportedParameters(f"run_{mode} needs mode {mode!r}, got {config.mode!r}")
    return run(config)


def run_scaling(config: SweepConfig) -> SweepResult:
    """One row per (nbar, fano, tau) grid point: a single gate, C = 1."""
    return _run_mode(config, "scaling")


def run_concat(config: SweepConfig) -> SweepResult:
    """Repeated gate applications, each with a freshly prepared drive.

    The C-fold map is channel composition of the single-use channel; rows
    cover the (nbar, fano, C, tau) product. Fixed-budget comparisons at
    constant C*tau come from selecting rows with matching total_tau.
    """
    return _run_mode(config, "concat")


def run_split(config: SweepConfig) -> SweepResult:
    """Fixed photon budget nbar split across C coherent sub-gates at nbar/C.

    The sub-gate reduced time follows config.split_convention: 'physical'
    re-reduces the C-th of the physical duration by the sub-gate's own mean
    photon number (tau C^{-3/2}); 'per_pulse' uses tau/C directly. The
    energy_total column is the total mean photon number C * sub_nbar, the
    drive energy in units of one carrier photon; it equals nbar_total, up to
    rounding, for every C.
    """
    return _run_mode(config, "split")


# ---------------------------------------------------------------------------
# output

def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return f"{value:.11e}"
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path so that the file appears whole or not at all.

    The text goes to a temporary file in the destination directory, which is
    renamed into place; the temporary file is removed if anything fails.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eigenfid-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_csv(result: SweepResult, path: str) -> None:
    """Write rows as UTF-8 CSV with 12-significant-digit scientific floats, atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_format_cell(v) for v in row])
    _atomic_write(path, buf.getvalue())


def sidecar_dict(result: SweepResult) -> dict:
    return {
        "schema": 1,
        "version": result.version,
        "config": asdict(result.config),
        "columns": list(result.columns),
        "row_count": len(result.rows),
    }


def write_sidecar(result: SweepResult, path: str) -> None:
    """JSON sidecar with the full config and version string, written atomically."""
    _atomic_write(path, _json_text(sidecar_dict(result)))
