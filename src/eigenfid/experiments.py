"""Sweep runners for eigenerror scaling, gate concatenation, and budget splits.

The three modes are one computation on different grids. Every row takes
a drive, the exact drive-induced channel, its C-fold concatenation and the
deterministic eigenerror bracket derived from the Haar-averaged output
purity: lower edge S_bar/2, upper edge S_bar, with the closed-form
asymptotic law alongside. Scaling is a single gate (C = 1), concat repeats
a gate C times with fresh drives, and split runs C gates at nbar/C each. A
mode only chooses its grid axes, its leading columns, and how a grid point
becomes the drive, tau and C of its row. The reported eigenerror column is
the deterministic lower edge; Monte Carlo estimates of the true channel
eigenerror are opt-in via mc_samples and carried in extra columns.

A drive depends only on (nbar, fano), so the grid points that share one
form a work unit: one drive, one batched pass and one stacked check for its
channels at all its tau values, and one matrix power, check and purity per
C. A row's runtime_ms is its share of its unit's wall time. Units are
independent, so a Monte Carlo sweep with jobs > 1 evaluates them in a
process pool; row order is always the grid order, never completion order.
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
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from ._domain import EXACT, choice, integer, real, sequence
from ._version import __version__
from .channel import QubitChannel, _powers, _purities, mc_channel_eigenfidelity
from .errors import BudgetTooSmall, SchemaError, UnsupportedParameters
from .haar import _SEED_MAX, MAX_SAMPLES, SeededSampler
from .jcdrive import (
    _MOMENT_KINDS,
    MAX_POISSON_MEAN,
    _binomial_support,
    _exact_transfers,
    asymptotic_eigenerror_lower_bound,
    binomial_drive,
    poisson_drive,
)
from .channel import channel_eigenerror_bounds, concatenate  # noqa: F401  for benchmarks/child.py
from .jcdrive import build_channel_exact  # noqa: F401  benchmarks/child.py traces this name

logger = logging.getLogger("eigenfid.experiments")

SPLIT_CONVENTIONS = ("physical", "per_pulse")
BOUND_SANDWICH_TOL = 1e-10
VERSION_STRING = f"eigenfid-{__version__}"


def _sample_count(value, path: str) -> int:
    n = integer(value, path, SchemaError, 0, MAX_SAMPLES, strict=True)
    if n == 1:
        raise SchemaError(path, "must be 0 (off), or at least 2 for a standard error, got 1")
    return n


def _output(value, path: str):
    if value is not None and not isinstance(value, str):
        raise SchemaError(path, f"expected a string or null, got {type(value).__name__}")
    return value


# field -> check of a value at its JSON pointer; grids apply the rule to each
# entry. Counts are exact integers; means and reduced times have the
# library's domains
_SCALAR_RULES = {
    "seed": lambda v, path: integer(v, path, SchemaError, 0, _SEED_MAX, strict=True),
    "mc_samples": _sample_count,
    "jobs": lambda v, path: integer(v, path, SchemaError, 1, strict=True),
    "output": _output,
}
_GRID_RULES = {
    "nbar_grid": lambda v, path: real(v, path, SchemaError, 0, EXACT, lo_open=True),
    "fano_grid": lambda v, path: real(v, path, SchemaError, 0, 1, lo_open=True),
    "tau_grid": lambda v, path: real(v, path, SchemaError, 0, EXACT),
    "concat_grid": lambda v, path: integer(v, path, SchemaError, 1, strict=True),
}


def _drive_rule(kind: str, nbar: float, fano, taus, path: str) -> None:
    """SchemaError at path unless a sweep's drive (kind, nbar, fano) exists and takes taus."""
    if kind == "binomial":
        try:
            _binomial_support(nbar, fano * nbar)
        except UnsupportedParameters as exc:
            raise SchemaError(path, f"no binomial drive at nbar={nbar}: {exc}") from None
    elif nbar > MAX_POISSON_MEAN:
        raise SchemaError(path, f"a poisson drive's mean must be at most {MAX_POISSON_MEAN:g}, "
                                f"got {nbar!r}")
    # a tiny mean's drive is trimmed to the vacuum, whose mean 0 reduces no tau > 0
    elif any(taus) and nbar < 1 and poisson_drive(nbar).n_max == 0:
        raise SchemaError(path, f"the poisson drive at mean {nbar!r} keeps only the vacuum, "
                                "which takes no tau > 0")


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for one sweep run.

    Construction checks every field against the sweep domain and raises
    SchemaError with the field's JSON pointer (/nbar_grid/1, /drive/kind);
    it is the only place that knows which configs are legal, a split budget
    of less than one photon a gate included (BudgetTooSmall, /concat_grid/j).
    Grids become tuples of floats (counts: ints), so a config that constructs
    runs unless a binomial drive's weights fail. A tau_grid left unset is
    [pi/2] in split mode and empty otherwise.
    """

    mode: str
    drive_kind: str = "poisson"
    nbar_grid: tuple = ()
    fano_grid: tuple = ()
    tau_grid: tuple | None = None
    concat_grid: tuple = ()
    seed: int = 0
    output: str | None = None
    mc_samples: int = 0
    jobs: int = 1
    split_convention: str = "physical"

    def __post_init__(self):
        choice(self.mode, MODES, "/mode", SchemaError)
        choice(self.drive_kind, _MOMENT_KINDS, "/drive/kind", SchemaError)
        if self.mode == "split" and self.drive_kind != "poisson":
            raise SchemaError("/drive/kind", "split mode uses coherent (poisson) drives")
        choice(self.split_convention, SPLIT_CONVENTIONS, "/split_convention", SchemaError)
        if self.mode != "split" and self.split_convention != "physical":
            raise SchemaError("/split_convention", f"mode {self.mode!r} does not read it")
        if self.tau_grid is None:
            object.__setattr__(self, "tau_grid", (math.pi / 2,) if self.mode == "split" else ())
        for name, rule in _SCALAR_RULES.items():
            object.__setattr__(self, name, rule(getattr(self, name), f"/{name}"))
        for name, rule in _GRID_RULES.items():
            values = sequence(getattr(self, name), f"/{name}", SchemaError)
            if name == "fano_grid" and values and self.drive_kind == "poisson":
                raise SchemaError("/fano_grid", "poisson drives have no Fano factor to sweep")
            if values and name not in _MODES[self.mode].axes:
                raise SchemaError(f"/{name}", f"mode {self.mode!r} does not sweep it")
            object.__setattr__(self, name, tuple(
                rule(v, f"/{name}/{i}") for i, v in enumerate(values)))
        for name in _MODES[self.mode].axes:
            if not _axis(self, name):
                raise SchemaError(f"/{name}", f"must be non-empty for mode {self.mode!r}")
        # every drive the grid builds passes the drive rule; split drives its
        # C gates at nbar / C each, with at least one photon per gate
        if self.mode == "split":
            for (i, nbar), (j, count) in itertools.product(enumerate(self.nbar_grid),
                                                           enumerate(self.concat_grid)):
                _drive_rule("poisson", nbar / count, None, self.tau_grid, f"/nbar_grid/{i}")
                if nbar / count < 1:
                    raise BudgetTooSmall(f"/concat_grid/{j}", f"splitting {nbar} photons over "
                                         f"{count} gates leaves {nbar / count} per gate; "
                                         "need at least 1")
        else:  # a bad drive is blamed on its fano, or on its nbar when it has none
            for (i, nbar), (j, fano) in itertools.product(enumerate(self.nbar_grid),
                                                          enumerate(_axis(self, "fano_grid"))):
                _drive_rule(self.drive_kind, nbar, fano, self.tau_grid,
                            f"/nbar_grid/{i}" if fano is None else f"/fano_grid/{j}")


@dataclass(frozen=True)
class SweepResult:
    """Ordered rows plus their column names and the config that produced them."""

    columns: tuple
    rows: tuple
    config: SweepConfig
    version: ClassVar[str] = VERSION_STRING

    def __post_init__(self):
        object.__setattr__(self, "columns", sequence(self.columns, "columns"))
        object.__setattr__(self, "rows", tuple(sequence(row, "each row")
                                               for row in sequence(self.rows, "rows")))
        if not all(isinstance(name, str) for name in self.columns):
            raise UnsupportedParameters("column names must be strings")
        idx = {name: k for k, name in enumerate(self.columns)}
        bracket = [idx.get(name) for name in
                   ("eigenerror_bound_lower", "eigenerror_exact", "eigenerror_bound_upper")]
        if self.rows and None in bracket:
            raise UnsupportedParameters("rows need the eigenerror and its bracket columns")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise UnsupportedParameters("row length does not match column count")
            lo, ex, hi = cells = tuple(row[k] for k in bracket)
            try:
                if any(isinstance(c, (bool, np.bool_)) for c in cells):
                    raise TypeError  # a bool is not a number, though it compares as one
                inside = lo - BOUND_SANDWICH_TOL <= ex <= hi + BOUND_SANDWICH_TOL
            except (TypeError, ValueError):  # a cell that is not a number
                raise UnsupportedParameters(
                    f"eigenerror and bracket cells must be numbers, got {lo, ex, hi}") from None
            if not inside:
                raise UnsupportedParameters(
                    f"eigenerror {ex} escapes its bracket [{lo}, {hi}]"
                )

    def column(self, name: str) -> tuple:
        k = self.columns.index(choice(name, self.columns, "column name"))
        return tuple(row[k] for row in self.rows)


# ---------------------------------------------------------------------------
# row evaluation (module-level so process pools can pickle the work)
#
# A mode's drive key names the (nbar, fano) of the drive a grid point's
# gates use; its head turns the point into the row's leading cells and the
# gate it describes: (cells, tau, C). Every row then runs the same tail:
# C-fold concatenation of its channel, purity bracket, asymptote at (key, tau).

def _drive(config: SweepConfig, nbar: float, fano):
    if config.drive_kind == "poisson":
        return poisson_drive(nbar)
    return binomial_drive(nbar, fano * nbar)


def _asymptote(config: SweepConfig, nbar: float, fano, tau: float) -> float:
    variance = nbar if config.drive_kind == "poisson" else fano * nbar
    return asymptotic_eigenerror_lower_bound(config.drive_kind, nbar, variance, tau)


def _own_drive(config: SweepConfig, nbar: float, fano, *rest) -> tuple:
    return nbar, fano


def _scaling_head(config: SweepConfig, drive, nbar: float, fano, tau: float) -> tuple:
    cells = (config.drive_kind, nbar, drive.fano, tau)
    return cells, tau, 1


def _concat_head(config: SweepConfig, drive, nbar: float, fano, count: int,
                 tau: float) -> tuple:
    cells = (config.drive_kind, nbar, drive.fano, count, tau, count * tau)
    return cells, tau, count


def _split_drive(config: SweepConfig, nbar_total: float, tau_total: float,
                 count: int) -> tuple:
    return nbar_total / count, None


def _split_head(config: SweepConfig, drive, nbar_total: float, tau_total: float,
                count: int) -> tuple:
    sub_nbar = nbar_total / count
    if config.split_convention == "physical":
        # same physical duration t split C ways, re-reduced by the sub-gate's
        # own mean photon number: tau_sub = g sqrt(nbar/C) (t/C)
        sub_tau = tau_total * count ** -1.5
    else:
        # per_pulse: the printed tau/C applied at the sub-gate's nbar/C
        sub_tau = tau_total / count
    cells = (config.drive_kind, nbar_total, count, config.split_convention, sub_nbar,
             sub_tau, count * sub_nbar)
    return cells, sub_tau, count


class _Mode(NamedTuple):
    axes: tuple      # SweepConfig grid fields, in product order
    columns: tuple   # leading columns, the cells a head returns
    drive_key: Callable  # (config, *point) -> (nbar, fano) of the point's drive
    head: Callable   # (config, drive, *point) -> (cells, tau, C)


_MODES = {
    "scaling": _Mode(("nbar_grid", "fano_grid", "tau_grid"),
                     ("drive_kind", "nbar", "fano", "tau"), _own_drive, _scaling_head),
    "concat": _Mode(("nbar_grid", "fano_grid", "concat_grid", "tau_grid"),
                    ("drive_kind", "nbar", "fano", "concatenations", "tau", "total_tau"),
                    _own_drive, _concat_head),
    "split": _Mode(("nbar_grid", "tau_grid", "concat_grid"),
                   ("drive_kind", "nbar_total", "concatenations", "convention", "sub_nbar",
                    "sub_tau", "energy_total"), _split_drive, _split_head),
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


def _evaluate(work: tuple) -> list:
    """(grid index, row) for each point of one work unit; its wall time is shared out."""
    config, key, points = work
    t0 = time.perf_counter()
    head = _MODES[config.mode].head
    drive = _drive(config, *key)
    gates = [head(config, drive, *point) for _, point in points]
    column = {tau: k for k, tau in enumerate(dict.fromkeys(gate[1] for gate in gates))}
    base, base_residual = _exact_transfers(drive, list(column))
    # row i draws from child(i). Built only for Monte Carlo sweeps: the first
    # sampler loads numpy.random, about 15 ms and 5 MB
    sampler = SeededSampler(config.seed, 2) if config.mc_samples else None
    rows = [None] * len(points)
    for count in dict.fromkeys(gate[2] for gate in gates):
        members = [i for i, gate in enumerate(gates) if gate[2] == count]
        ks = [column[gates[i][1]] for i in members]
        s, slack, residual = _powers(base[ks], base_residual[ks], count)
        s_bar = 1.0 - _purities(s)
        for j, (i, lo, hi) in enumerate(zip(members, (s_bar / 2.0).tolist(), s_bar.tolist())):
            (index, _), (cells, tau, _) = points[i], gates[i]
            mc = ()
            if sampler:
                ch = QubitChannel._trusted(s[j], float(slack[j]), residual[j])
                mean, err = mc_channel_eigenfidelity(ch, sampler.child(index), config.mc_samples)
                mc = (1.0 - mean, err)
            rows[i] = (index, cells + (lo, lo, hi, _asymptote(config, *key, tau)), mc)
    ms = (time.perf_counter() - t0) * 1e3 / len(rows)
    return [(index, lead + (ms,) + mc) for index, lead, mc in rows]


def run(config: SweepConfig) -> SweepResult:
    """One row per point of the mode's grid, in product order of its axes."""
    mode = _MODES[config.mode]
    grid = itertools.product(*(_axis(config, name) for name in mode.axes))
    units: dict = {}  # drive key -> [(grid index, point)], in grid order
    for i, point in enumerate(grid):
        units.setdefault(mode.drive_key(config, *point), []).append((i, point))
    work = [(config, key, points) for key, points in units.items()]
    # at most one worker per unit: a pool forks all its workers at the first submit
    jobs = min(config.jobs, len(work))
    if jobs > 1 and config.mc_samples:
        from concurrent.futures import ProcessPoolExecutor  # costly import, only pools pay it

        chunk = max(1, len(work) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_evaluate, work, chunksize=chunk))
    else:
        done = [_evaluate(w) for w in work]
    rows = [None] * sum(len(points) for points in units.values())
    for i, row in itertools.chain.from_iterable(done):
        rows[i] = row
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

def _format_column(values: tuple) -> list:
    """A CSV column's cells as text: floats as "{:.11e}" (which writes inf and
    nan as str does), anything else as str. A column of one kind is formatted
    in one map call; only a mixed column is dispatched cell by cell."""
    floats = [issubclass(t, float) for t in set(map(type, values))]
    if all(floats):
        return list(map("{:.11e}".format, values))
    if not any(floats):
        return list(map(str, values))
    return [f"{v:.11e}" if isinstance(v, float) else str(v) for v in values]


def _atomic_write(path: str, text: str) -> None:
    """Write text to path so that the file appears whole or not at all.

    The text goes to a temporary file in the destination directory, which is
    renamed into place; the temporary file is removed if anything fails, and
    an OSError names path.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise UnsupportedParameters(f"output path must be a string or path, got {path!r}")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eigenfid-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # name the caller's path, never the temporary file's
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_csv(result: SweepResult, path: str) -> None:
    """Write rows as UTF-8 CSV with 12-significant-digit scientific floats, atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(result.columns)
    writer.writerows(zip(*map(_format_column, zip(*result.rows))))
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
