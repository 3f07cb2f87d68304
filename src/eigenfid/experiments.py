"""Sweep runners for eigenerror scaling, gate concatenation, and budget splits.

Each runner walks a parameter grid, builds the exact drive-induced channel at
every point, and records the deterministic eigenerror bracket derived from
the Haar-averaged output purity: lower edge S_bar/2, upper edge S_bar, with
the closed-form asymptotic law alongside. The reported eigenerror column is
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

from ._version import __version__
from .channel import (
    QubitChannel,
    channel_eigenerror_bounds,
    concatenate,
    mc_channel_eigenfidelity,
)
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

MODES = ("scaling", "concat", "split")
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
        if self.mode not in MODES:
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
        if self.mc_samples < 0:
            raise UnsupportedParameters("mc_samples must be nonnegative")
        if self.jobs < 1:
            raise UnsupportedParameters("jobs must be at least 1")
        object.__setattr__(self, "nbar_grid", tuple(float(v) for v in self.nbar_grid))
        object.__setattr__(self, "fano_grid", tuple(float(v) for v in self.fano_grid))
        object.__setattr__(self, "tau_grid", tuple(float(v) for v in self.tau_grid))
        object.__setattr__(self, "concat_grid", tuple(int(v) for v in self.concat_grid))
        need = ["nbar_grid", "tau_grid"]
        if self.mode in ("concat", "split"):
            need.append("concat_grid")
        if self.drive_kind == "binomial":
            need.append("fano_grid")
        for name in need:
            if not getattr(self, name):
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

def _row_sampler(config: SweepConfig, index: int) -> SeededSampler:
    return SeededSampler(config.seed, 2).child(index)


def _mc_cells(config: SweepConfig, index: int, channel: QubitChannel) -> tuple:
    if config.mc_samples <= 0:
        return ()
    mean, err = mc_channel_eigenfidelity(channel, _row_sampler(config, index),
                                         config.mc_samples)
    return (1.0 - mean, err)


def _make_drive(config: SweepConfig, nbar: float, fano):
    if config.drive_kind == "poisson":
        return poisson_drive(nbar)
    return binomial_drive(nbar, fano * nbar, mode=config.binomial_mode)


def _asymptote(config: SweepConfig, nbar: float, fano, tau: float) -> float:
    variance = nbar if config.drive_kind == "poisson" else fano * nbar
    return asymptotic_eigenerror_lower_bound(config.drive_kind, nbar, variance, tau)


def _scaling_row(config: SweepConfig, index: int, params: tuple) -> tuple:
    nbar, fano, tau = params
    t0 = time.perf_counter()
    drive = _make_drive(config, nbar, fano)
    ch = build_channel_exact(drive, JCConfig(tau=tau))
    lo, hi = channel_eigenerror_bounds(ch)
    mc = _mc_cells(config, index, ch)
    ms = (time.perf_counter() - t0) * 1e3
    return (config.drive_kind, nbar, drive.variance / drive.mean, tau,
            lo, lo, hi, _asymptote(config, nbar, fano, tau), ms) + mc


def _concat_row(config: SweepConfig, index: int, params: tuple) -> tuple:
    nbar, fano, count, tau = params
    t0 = time.perf_counter()
    drive = _make_drive(config, nbar, fano)
    single = build_channel_exact(drive, JCConfig(tau=tau))
    ch = concatenate(single, count)
    lo, hi = channel_eigenerror_bounds(ch)
    mc = _mc_cells(config, index, ch)
    ms = (time.perf_counter() - t0) * 1e3
    return (config.drive_kind, nbar, drive.variance / drive.mean, count, tau,
            count * tau, lo, lo, hi, _asymptote(config, nbar, fano, tau), ms) + mc


def _split_row(config: SweepConfig, index: int, params: tuple) -> tuple:
    nbar_total, tau_total, count = params
    t0 = time.perf_counter()
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
    drive = poisson_drive(sub_nbar)
    single = build_channel_exact(drive, JCConfig(tau=sub_tau))
    ch = concatenate(single, count)
    lo, hi = channel_eigenerror_bounds(ch)
    asym = asymptotic_eigenerror_lower_bound("poisson", sub_nbar, sub_nbar, sub_tau)
    mc = _mc_cells(config, index, ch)
    ms = (time.perf_counter() - t0) * 1e3
    return ("poisson", nbar_total, count, config.split_convention, sub_nbar,
            sub_tau, count * sub_nbar, lo, lo, hi, asym, ms) + mc


_ROW_BUILDERS = {"scaling": _scaling_row, "concat": _concat_row, "split": _split_row}


def _evaluate(work: tuple) -> tuple:
    config, index, params = work
    return _ROW_BUILDERS[config.mode](config, index, params)


def _run_grid(config: SweepConfig, params_list: list, columns: tuple) -> SweepResult:
    work = [(config, i, p) for i, p in enumerate(params_list)]
    if config.jobs > 1 and len(work) > 1:
        chunk = max(1, len(work) // (4 * config.jobs))
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_evaluate, work, chunksize=chunk))
    else:
        rows = [_evaluate(w) for w in work]
    logger.info("%s sweep finished: %d rows", config.mode, len(rows))
    return SweepResult(columns=columns, rows=tuple(rows), config=config)


def _mc_columns(config: SweepConfig) -> tuple:
    return ("eigenerror_mc", "eigenerror_mc_stderr") if config.mc_samples > 0 else ()


def _fanos(config: SweepConfig) -> tuple:
    return config.fano_grid if config.drive_kind == "binomial" else (None,)


def run_scaling(config: SweepConfig) -> SweepResult:
    """One row per (nbar, fano, tau) grid point."""
    if config.mode != "scaling":
        raise UnsupportedParameters(f"run_scaling needs mode 'scaling', got {config.mode!r}")
    params = list(itertools.product(config.nbar_grid, _fanos(config), config.tau_grid))
    columns = ("drive_kind", "nbar", "fano", "tau", "eigenerror_exact",
               "eigenerror_bound_lower", "eigenerror_bound_upper", "asymptote",
               "runtime_ms") + _mc_columns(config)
    return _run_grid(config, params, columns)


def run_concat(config: SweepConfig) -> SweepResult:
    """Repeated gate applications, each with a freshly prepared drive.

    The C-fold map is channel composition of the single-use channel; rows
    cover the (nbar, fano, C, tau) product. Fixed-budget comparisons at
    constant C*tau come from selecting rows with matching total_tau.
    """
    if config.mode != "concat":
        raise UnsupportedParameters(f"run_concat needs mode 'concat', got {config.mode!r}")
    params = list(itertools.product(config.nbar_grid, _fanos(config),
                                    config.concat_grid, config.tau_grid))
    columns = ("drive_kind", "nbar", "fano", "concatenations", "tau", "total_tau",
               "eigenerror_exact", "eigenerror_bound_lower", "eigenerror_bound_upper",
               "asymptote", "runtime_ms") + _mc_columns(config)
    return _run_grid(config, params, columns)


def run_split(config: SweepConfig) -> SweepResult:
    """Fixed photon budget nbar split across C coherent sub-gates.

    The sub-gate reduced time follows config.split_convention: 'physical'
    re-reduces the C-th of the physical duration by the sub-gate's own mean
    photon number (tau C^{-3/2}); 'per_pulse' uses tau/C directly. The
    energy_total column is the total mean photon number C * sub_nbar, the
    drive energy in units of one carrier photon; it equals nbar_total, up to
    rounding, for every C.
    """
    if config.mode != "split":
        raise UnsupportedParameters(f"run_split needs mode 'split', got {config.mode!r}")
    params = list(itertools.product(config.nbar_grid, config.tau_grid,
                                    config.concat_grid))
    columns = ("drive_kind", "nbar_total", "concatenations", "convention",
               "sub_nbar", "sub_tau", "energy_total", "eigenerror_exact",
               "eigenerror_bound_lower", "eigenerror_bound_upper", "asymptote",
               "runtime_ms") + _mc_columns(config)
    return _run_grid(config, params, columns)


def run(config: SweepConfig) -> SweepResult:
    """Dispatch on config.mode."""
    return {"scaling": run_scaling, "concat": run_concat, "split": run_split}[config.mode](config)


# ---------------------------------------------------------------------------
# output

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
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
