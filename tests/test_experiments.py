"""Sweep runners: grids, determinism, bounds bookkeeping, CSV output."""

from __future__ import annotations

import csv
import glob
import itertools
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from eigenfid import (
    JCConfig,
    QubitChannel,
    SeededSampler,
    SweepConfig,
    SweepResult,
    asymptotic_eigenerror_lower_bound,
    binomial_drive,
    build_channel_exact,
    channel_eigenerror_bounds,
    concatenate,
    mc_channel_eigenfidelity,
    poisson_drive,
    run_concat,
    run_scaling,
    run_split,
    write_csv,
    write_sidecar,
)
import eigenfid
from eigenfid import experiments
from eigenfid.experiments import VERSION_STRING, run, sidecar_dict
from eigenfid.haar import MAX_SAMPLES
from eigenfid.serialize import dump_object
from eigenfid.errors import (
    BudgetTooSmall,
    NonHermitianInput,
    SchemaError,
    UnsupportedParameters,
)

PI = math.pi


def _scaling_config(**kw):
    base = dict(mode="scaling", nbar_grid=(25.0,), tau_grid=(PI / 2,), seed=7)
    base.update(kw)
    return SweepConfig(**base)


# ---------------------------------------------------------------------------
# config validation

class TestSweepConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="walk"),
            dict(drive_kind="thermal"),
            dict(split_convention="thirds"),
            dict(seed=-1),
            dict(mc_samples=-5),
            dict(jobs=0),
            dict(nbar_grid=()),
            dict(tau_grid=()),
            dict(mc_samples=1),
            dict(nbar_grid=(math.nan,)),
            dict(nbar_grid=(math.inf,)),
            dict(tau_grid=(math.nan,)),
            dict(tau_grid=(math.inf,)),
            dict(drive_kind="binomial", fano_grid=(math.nan,)),
            dict(drive_kind="binomial", fano_grid=(math.inf,)),
            dict(mode="concat", concat_grid=(math.nan,)),
            dict(mode="concat", concat_grid=(math.inf,)),
            dict(nbar_grid=(-3.0,)),
            dict(tau_grid=(-1.0,)),
            dict(drive_kind="binomial", fano_grid=(1.5,)),
            dict(seed=1.5),
            dict(jobs=1.5),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(**kw)

    @pytest.mark.parametrize("kw,path", [
        (dict(nbar_grid=(25.0, math.nan)), "/nbar_grid/1"),
        (dict(mode="concat", concat_grid=(2, math.inf)), "/concat_grid/1"),
        (dict(tau_grid=(-1.0,)), "/tau_grid/0"),
        (dict(drive_kind="binomial", fano_grid=(0.2, 1.5)), "/fano_grid/1"),
        (dict(mode="concat", concat_grid=(True,)), "/concat_grid/0"),
        (dict(drive_kind="binomial"), "/fano_grid"),
        (dict(drive_kind="thermal"), "/drive/kind"),
        (dict(seed=2 ** 64), "/seed"),
        (dict(jobs=1.5), "/jobs"),
        (dict(nbar_grid=25.0), "/nbar_grid"),
        (dict(nbar_grid=(10 ** 400,)), "/nbar_grid/0"),
        (dict(mc_samples=MAX_SAMPLES + 1), "/mc_samples"),
        (dict(mc_samples=2 ** 60), "/mc_samples"),
        (dict(mc_samples=10 ** 29), "/mc_samples"),
        # counts are exact integers: an integral float is not one
        (dict(mode="concat", concat_grid=(2.0,)), "/concat_grid/0"),
        (dict(jobs=2.0), "/jobs"),
        (dict(seed=3.0), "/seed"),
        (dict(mc_samples=100.0), "/mc_samples"),
        (dict(output=5), "/output"),
        (dict(output=Path("out.csv")), "/output"),
        # a choice is a string; an array would answer == elementwise
        (dict(mode=np.array(["scaling"])), "/mode"),
        (dict(drive_kind=np.array(["poisson"])), "/drive/kind"),
        (dict(split_convention=np.array(["physical"])), "/split_convention"),
    ])
    def test_errors_carry_the_field_pointer(self, kw, path):
        with pytest.raises(SchemaError) as excinfo:
            _scaling_config(**kw)
        assert excinfo.value.path == path

    def test_poisson_drive_takes_no_fano_grid(self):
        with pytest.raises(SchemaError) as excinfo:
            _scaling_config(fano_grid=(0.3,))
        assert excinfo.value.path == "/fano_grid"

    @pytest.mark.parametrize("kw, path", [
        (dict(concat_grid=(7,)), "/concat_grid"),
        (dict(drive_kind="binomial", fano_grid=(0.2,), concat_grid=(1, 2)), "/concat_grid"),
        (dict(mode="split", concat_grid=(2,), fano_grid=(0.2,)), "/fano_grid"),
    ])
    def test_rejects_a_grid_the_mode_never_reads(self, kw, path):
        with pytest.raises(SchemaError) as excinfo:
            _scaling_config(**kw)
        assert excinfo.value.path == path

    @pytest.mark.parametrize("mode, extra", [("scaling", {}), ("concat", {"concat_grid": (2,)})])
    def test_rejects_a_split_convention_the_mode_never_reads(self, mode, extra):
        with pytest.raises(SchemaError, match="does not read it") as excinfo:
            _scaling_config(mode=mode, split_convention="per_pulse", **extra)
        assert excinfo.value.path == "/split_convention"

    @pytest.mark.parametrize("mode, convention", [("scaling", "physical"),
                                                  ("split", "physical"), ("split", "per_pulse")])
    def test_split_convention_builds_where_it_is_read_or_default(self, mode, convention):
        extra = {"concat_grid": (1, 2)} if mode == "split" else {}
        cfg = _scaling_config(mode=mode, split_convention=convention, **extra)
        assert cfg.split_convention == convention

    def test_concat_mode_needs_counts(self):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(mode="concat")

    def test_binomial_needs_fano_grid(self):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(drive_kind="binomial")

    @pytest.mark.parametrize("nbar_grid, fano_grid, path, nbar", [
        # at nbar = 100 the width is 132; at nbar = 10 it is 13.2, which run meets second
        ((100.0, 10.0), (0.33,), "/fano_grid/0", "10.0"),
        ((100.0, 10.0), (0.25, 0.33), "/fano_grid/1", "10.0"),
        # width 41, shift 10.25 - 20.5
        ((10.25,), (1.0,), "/fano_grid/0", "10.25"),
    ])
    def test_a_binomial_pair_that_no_drive_has_fails_at_its_fano(self, nbar_grid, fano_grid,
                                                                 path, nbar):
        with pytest.raises(SchemaError, match=f"nbar={nbar}: ") as excinfo:
            _scaling_config(drive_kind="binomial", nbar_grid=nbar_grid, fano_grid=fano_grid)
        assert excinfo.value.path == path

    def test_the_clipped_mass_of_a_binomial_pair_is_checked_at_run_time(self):
        # width 40 centered on 10: 3.4e-4 of the mass lies below level 0
        cfg = _scaling_config(drive_kind="binomial", nbar_grid=(10.0,), fano_grid=(1.0,))
        with pytest.raises(UnsupportedParameters, match="negative photon numbers"):
            run(cfg)

    def test_counts_must_be_positive(self):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(mode="concat", concat_grid=(0,))

    def test_split_mode_is_coherent_only(self):
        with pytest.raises(UnsupportedParameters):
            SweepConfig(mode="split", drive_kind="binomial", nbar_grid=(64.0,),
                        fano_grid=(0.2,), tau_grid=(PI / 2,), concat_grid=(1, 2))

    def test_grids_are_coerced(self):
        cfg = SweepConfig(mode="concat", nbar_grid=[25], tau_grid=[1],
                          concat_grid=[np.int64(2)])
        assert cfg.nbar_grid == (25.0,)
        assert cfg.tau_grid == (1.0,)
        assert cfg.concat_grid == (2,)
        assert type(cfg.concat_grid[0]) is int

    def test_integral_scalars_become_ints(self):
        cfg = _scaling_config(seed=np.uint64(5), jobs=np.int32(2))
        assert (cfg.seed, cfg.jobs) == (5, 2)
        assert type(cfg.seed) is int and type(cfg.jobs) is int

    def test_non_integral_counts_rejected(self):
        with pytest.raises(UnsupportedParameters):
            SweepConfig(mode="concat", nbar_grid=(25.0,), tau_grid=(1.0,),
                        concat_grid=(1.5,))


_BRACKET = ("eigenerror_bound_lower", "eigenerror_exact", "eigenerror_bound_upper")


class TestSweepResult:
    def test_rejects_ragged_rows(self):
        cfg = _scaling_config()
        with pytest.raises(UnsupportedParameters):
            SweepResult(columns=("eigenerror_bound_lower", "eigenerror_exact",
                                 "eigenerror_bound_upper"),
                        rows=((0.1, 0.1),), config=cfg)

    def test_rejects_error_outside_bracket(self):
        cfg = _scaling_config()
        with pytest.raises(UnsupportedParameters):
            SweepResult(columns=("eigenerror_bound_lower", "eigenerror_exact",
                                 "eigenerror_bound_upper"),
                        rows=((0.1, 0.5, 0.2),), config=cfg)

    @pytest.mark.parametrize("row", [("a", "b", "c"), (0.1, None, 0.2), (0.1, 0.15, 0.2j),
                                     (0.1, np.array([0.1, 0.15]), 0.2), (False, 0.0, True),
                                     (0.0, np.False_, 0.1)])
    def test_rejects_bracket_cells_that_are_not_numbers(self, row):
        with pytest.raises(UnsupportedParameters, match="must be numbers"):
            SweepResult(columns=("eigenerror_bound_lower", "eigenerror_exact",
                                 "eigenerror_bound_upper"),
                        rows=(row,), config=_scaling_config())

    @pytest.mark.parametrize("columns,rows,text", [
        ({"eigenerror_bound_lower", "eigenerror_exact", "eigenerror_bound_upper"}, (),
         "columns must be a list, tuple, range or 1-D array, got set"),
        (_BRACKET, {(0.1, 0.15, 0.2)}, "rows must be a list, tuple, range or 1-D array, got set"),
        (_BRACKET, ({0.1: 0, 0.15: 1, 0.2: 2},),
         "each row must be a list, tuple, range or 1-D array, got dict"),
        ((1, 2, 3), (), "column names must be strings"),
    ])
    def test_columns_and_rows_are_ordered_sequences(self, columns, rows, text):
        with pytest.raises(UnsupportedParameters, match=f"^{text}$"):
            SweepResult(columns=columns, rows=rows, config=_scaling_config())

    def test_rows_keep_their_cells(self):
        row = np.array([0.1, 0.15, 0.2])
        res = SweepResult(columns=list(_BRACKET), rows=[row], config=_scaling_config())
        assert res.columns == _BRACKET
        assert res.rows == ((0.1, 0.15, 0.2),)
        assert type(res.rows[0][0]) is np.float64

    def test_the_version_is_the_package_version(self):
        res = SweepResult(columns=_BRACKET, rows=(), config=_scaling_config())
        assert res.version == VERSION_STRING
        assert [f.name for f in fields(SweepResult)] == ["columns", "rows", "config"]

    def test_column_lookup(self):
        cfg = _scaling_config()
        res = SweepResult(columns=("eigenerror_bound_lower", "eigenerror_exact",
                                   "eigenerror_bound_upper"),
                          rows=((0.1, 0.15, 0.2), (0.3, 0.35, 0.4)), config=cfg)
        assert res.column("eigenerror_exact") == (0.15, 0.35)


# ---------------------------------------------------------------------------
# scaling sweeps

class TestRunScaling:
    def test_frozen_gate_has_no_error(self):
        res = run_scaling(_scaling_config(tau_grid=(0.0,)))
        assert res.column("eigenerror_exact") == (0.0,)

    def test_bracket_and_reported_value(self):
        res = run_scaling(_scaling_config(nbar_grid=(25.0, 50.0), tau_grid=(PI / 4, PI / 2)))
        lo = res.column("eigenerror_bound_lower")
        ex = res.column("eigenerror_exact")
        hi = res.column("eigenerror_bound_upper")
        assert ex == lo
        assert all(a <= b <= c for a, b, c in zip(lo, ex, hi))

    def test_rows_match_direct_channel_build(self):
        res = run_scaling(_scaling_config(nbar_grid=(30.0,), tau_grid=(1.1,)))
        chan = build_channel_exact(poisson_drive(30.0), JCConfig(tau=1.1))
        lo, hi = channel_eigenerror_bounds(chan)
        assert res.column("eigenerror_exact") == (lo,)
        assert res.column("eigenerror_bound_upper") == (hi,)

    def test_asymptote_column(self):
        res = run_scaling(_scaling_config(nbar_grid=(100.0, 400.0), tau_grid=(PI / 2,)))
        expect = tuple(
            asymptotic_eigenerror_lower_bound("poisson", n, n, PI / 2)
            for n in (100.0, 400.0)
        )
        assert res.column("asymptote") == expect

    def test_binomial_grid_and_fano_column(self):
        res = run_scaling(_scaling_config(drive_kind="binomial",
                                          nbar_grid=(25.0,), fano_grid=(0.2, 0.4),
                                          tau_grid=(PI / 2,)))
        assert len(res.rows) == 2
        got = res.column("fano")
        assert abs(got[0] - 0.2) < 1e-12 and abs(got[1] - 0.4) < 1e-12
        assert res.column("drive_kind") == ("binomial", "binomial")

    def test_grid_order_is_product_order(self):
        res = run_scaling(_scaling_config(nbar_grid=(10.0, 20.0), tau_grid=(0.5, 1.0)))
        assert res.column("nbar") == (10.0, 10.0, 20.0, 20.0)
        assert res.column("tau") == (0.5, 1.0, 0.5, 1.0)

    def test_wrong_mode_rejected(self):
        cfg = SweepConfig(mode="concat", nbar_grid=(25.0,), tau_grid=(1.0,),
                          concat_grid=(2,))
        with pytest.raises(UnsupportedParameters):
            run_scaling(cfg)

    def test_dispatch_helper(self):
        cfg = _scaling_config()
        a, b = run(cfg), run_scaling(cfg)
        assert a.columns == b.columns
        assert a.column("eigenerror_exact") == b.column("eigenerror_exact")


# ---------------------------------------------------------------------------
# concatenation sweeps

class TestRunConcat:
    def test_single_application_matches_scaling(self):
        for drive in (dict(), dict(drive_kind="binomial", fano_grid=(0.2,))):
            concat = run_concat(SweepConfig(mode="concat", nbar_grid=(25.0,),
                                            tau_grid=(PI / 2,), concat_grid=(1,), seed=3,
                                            **drive))
            scaling = run_scaling(_scaling_config(nbar_grid=(25.0,), tau_grid=(PI / 2,),
                                                  **drive))
            for name in ("fano", "eigenerror_exact", "eigenerror_bound_upper", "asymptote"):
                assert concat.column(name) == scaling.column(name)

    def test_total_tau_column(self):
        res = run_concat(SweepConfig(mode="concat", nbar_grid=(25.0,),
                                     tau_grid=(0.4,), concat_grid=(1, 2, 4)))
        np.testing.assert_allclose(res.column("total_tau"), [0.4, 0.8, 1.6], atol=1e-15)

    def test_error_grows_with_repetitions(self):
        res = run_concat(SweepConfig(mode="concat", drive_kind="binomial",
                                     nbar_grid=(25.0,), fano_grid=(0.2,),
                                     tau_grid=(PI / 4, PI / 2), concat_grid=(1, 2, 4)))
        for tau in (PI / 4, PI / 2):
            errs = [row[res.columns.index("eigenerror_exact")]
                    for row in res.rows
                    if row[res.columns.index("tau")] == tau]
            assert len(errs) == 3
            assert all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("count", [2 ** 40, 2 ** 53])
    def test_a_power_that_fails_its_check_names_the_count(self, count):
        # the n-bar = 25 channel passes; its power's rounding breaks the trace
        cfg = SweepConfig(mode="concat", nbar_grid=(25.0,), tau_grid=(1.0,),
                          concat_grid=(1, count))
        with pytest.raises(NonHermitianInput,
                           match=rf"^{count}-fold power: trace preservation broken"):
            run(cfg)


# ---------------------------------------------------------------------------
# budget splits

class TestRunSplit:
    def _config(self, convention, counts=(1, 2, 4, 8)):
        return SweepConfig(mode="split", nbar_grid=(64.0,), tau_grid=(PI / 2,),
                           concat_grid=counts, split_convention=convention)

    def test_physical_sub_times(self):
        res = run_split(self._config("physical"))
        expect = tuple(PI / 2 * c ** -1.5 for c in (1, 2, 4, 8))
        assert res.column("sub_tau") == expect

    def test_per_pulse_sub_times(self):
        res = run_split(self._config("per_pulse"))
        expect = tuple(PI / 2 / c for c in (1, 2, 4, 8))
        assert res.column("sub_tau") == expect

    def test_energy_budget_is_constant(self):
        for convention in ("physical", "per_pulse"):
            res = run_split(self._config(convention))
            assert res.column("energy_total") == (64.0,) * 4
            assert res.column("sub_nbar") == (64.0, 32.0, 16.0, 8.0)

    def test_unsplit_gate_matches_direct_build(self):
        res = run_split(self._config("physical", counts=(1,)))
        chan = build_channel_exact(poisson_drive(64.0), JCConfig(tau=PI / 2))
        lo, _ = channel_eigenerror_bounds(chan)
        assert res.column("eigenerror_exact") == (lo,)

    def test_conventions_agree_without_splitting(self):
        a = run_split(self._config("physical", counts=(1,)))
        b = run_split(self._config("per_pulse", counts=(1,)))
        assert a.column("eigenerror_exact") == b.column("eigenerror_exact")

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            run_split(SweepConfig(mode="split", nbar_grid=(4.0,), tau_grid=(PI / 2,),
                                  concat_grid=(8,)))


# ---------------------------------------------------------------------------
# work units: grid points that share a drive

def _counting_poisson_drive(monkeypatch) -> list:
    calls = []

    def counting(nbar, *args, **kwargs):
        calls.append(nbar)
        return poisson_drive(nbar, *args, **kwargs)

    monkeypatch.setattr(experiments, "poisson_drive", counting)
    return calls


class TestWorkUnits:
    def test_scaling_builds_each_drive_once(self, monkeypatch):
        calls = _counting_poisson_drive(monkeypatch)
        nbars = tuple(float(v) for v in np.geomspace(10.0, 1e3, 24))
        taus = tuple(float(v) for v in np.linspace(0.1, PI, 16))
        res = run(SweepConfig(mode="scaling", nbar_grid=nbars, tau_grid=taus))
        assert len(res.rows) == 24 * 16
        assert calls == list(nbars)

    def test_split_rows_share_a_drive_per_sub_nbar(self, monkeypatch):
        calls = _counting_poisson_drive(monkeypatch)
        res = run(SweepConfig(mode="split", nbar_grid=(64.0, 128.0), tau_grid=(0.5, PI / 2),
                              concat_grid=(1, 2, 4)))
        assert len(res.rows) == 12
        assert sorted(calls) == [16.0, 32.0, 64.0, 128.0]

    def test_rows_match_one_row_at_a_time(self):
        cfg = SweepConfig(mode="concat", drive_kind="binomial", nbar_grid=(25.0, 100.0),
                          fano_grid=(0.2,), tau_grid=(0.3, PI / 2), concat_grid=(1, 3))
        res = run(cfg)
        k = res.columns.index("runtime_ms")
        for i, point in enumerate(res.rows):
            nbar, count, tau = point[1], point[3], point[4]
            one = run(SweepConfig(mode="concat", drive_kind="binomial", nbar_grid=(nbar,),
                                  fano_grid=(0.2,), tau_grid=(tau,), concat_grid=(count,)))
            assert one.rows[0][:k] == point[:k]

    @pytest.mark.parametrize("cfg", [
        dict(mode="scaling", nbar_grid=(10.0, 60.0, 300.0), tau_grid=(0.0, 0.4, PI / 2, 3.0)),
        dict(mode="scaling", drive_kind="binomial", nbar_grid=(25.0, 100.0),
             fano_grid=(0.2, 0.5), tau_grid=(0.3, PI / 2)),
        dict(mode="concat", drive_kind="binomial", nbar_grid=(25.0, 100.0), fano_grid=(0.2,),
             tau_grid=(0.3, PI / 2), concat_grid=(1, 2, 5, 16)),
        dict(mode="concat", nbar_grid=(40.0,), tau_grid=(0.3, 1.0), concat_grid=(3, 1, 3)),
        dict(mode="split", nbar_grid=(64.0, 128.0), tau_grid=(0.5, PI / 2),
             concat_grid=(1, 2, 4, 8)),
    ], ids=["scaling-poisson", "scaling-binomial", "concat-binomial", "concat-repeats", "split"])
    def test_cells_equal_a_per_row_recomputation(self, cfg):
        # each row alone: build_channel_exact -> concatenate -> channel_eigenerror_bounds
        res = run(SweepConfig(**cfg))
        idx = {name: k for k, name in enumerate(res.columns)}
        fanos = cfg.get("fano_grid", (None,))
        if cfg["mode"] == "split":
            points = [(row[idx["sub_nbar"]], None) for row in res.rows]
        else:
            repeats = len(cfg["tau_grid"]) * len(cfg.get("concat_grid", (1,)))
            points = [p for p in itertools.product(cfg["nbar_grid"], fanos)
                      for _ in range(repeats)]
        assert len(points) == len(res.rows)
        for (nbar, fano), row in zip(points, res.rows):
            drive = poisson_drive(nbar) if fano is None else binomial_drive(nbar, fano * nbar)
            tau = row[idx["sub_tau" if cfg["mode"] == "split" else "tau"]]
            count = row[idx["concatenations"]] if "concatenations" in idx else 1
            lo, hi = channel_eigenerror_bounds(
                concatenate(build_channel_exact(drive, JCConfig(tau=tau)), count))
            assert row[idx["eigenerror_exact"]] == lo
            assert row[idx["eigenerror_bound_lower"]] == lo
            assert row[idx["eigenerror_bound_upper"]] == hi

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of each pool that run starts, with the pool mapped in process."""
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return started

    def test_a_pool_starts_only_for_monte_carlo(self, pool_sizes):
        cfg = SweepConfig(mode="concat", nbar_grid=(25.0, 60.0, 100.0),
                          tau_grid=(0.5, PI / 2), concat_grid=(1, 3))
        serial = TestDeterminism._strip_runtime(run(cfg))
        parallel = TestDeterminism._strip_runtime(run(replace(cfg, jobs=2)))
        assert pool_sizes == []
        assert repr(parallel) == repr(serial)
        run(replace(cfg, jobs=2, mc_samples=20))
        assert pool_sizes == [2]

    def test_a_pool_has_at_most_one_worker_per_unit(self, pool_sizes):
        # two drives, so two units: a pool forks all its workers at once,
        # and a larger one would leave the rest idle
        cfg = SweepConfig(mode="concat", nbar_grid=(25.0, 60.0), tau_grid=(0.5, PI / 2),
                          concat_grid=(1, 3), seed=4, mc_samples=20)
        serial = run(cfg)
        parallel = run(replace(cfg, jobs=10 ** 6))
        assert pool_sizes == [2]
        assert TestDeterminism._strip_runtime(parallel) == TestDeterminism._strip_runtime(serial)

    def test_runtime_is_the_unit_time_shared_by_its_rows(self):
        res = run(_scaling_config(nbar_grid=(25.0, 50.0), tau_grid=(0.5, 1.0, 1.5)))
        times = res.column("runtime_ms")
        assert all(t > 0 for t in times)
        assert times[0] == times[1] == times[2]
        assert times[3] == times[4] == times[5]

    def test_parallel_split_matches_serial(self):
        cfg = SweepConfig(mode="split", nbar_grid=(64.0, 256.0), tau_grid=(0.5, PI / 2),
                          concat_grid=(1, 2, 4, 8), seed=3, mc_samples=200)
        a = run(cfg)
        b = run(replace(cfg, jobs=2))
        assert TestDeterminism._strip_runtime(a) == TestDeterminism._strip_runtime(b)


class TestMonteCarloDraws:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_row_i_draws_from_child_i_of_the_config_seed(self, jobs):
        res = run(SweepConfig(mode="concat", nbar_grid=(25.0, 60.0), tau_grid=(PI / 4, PI / 2),
                              concat_grid=(1, 3), seed=9, mc_samples=300, jobs=jobs))
        idx = {n: k for k, n in enumerate(res.columns)}
        base = SeededSampler(9, 2)
        for i, row in enumerate(res.rows):
            gate = build_channel_exact(poisson_drive(row[idx["nbar"]]),
                                       JCConfig(tau=row[idx["tau"]]))
            mean, err = mc_channel_eigenfidelity(concatenate(gate, row[idx["concatenations"]]),
                                                 base.child(i), 300)
            assert row[idx["eigenerror_mc"]] == 1.0 - mean
            assert row[idx["eigenerror_mc_stderr"]] == err

    def test_a_sweep_without_monte_carlo_never_loads_numpy_random(self):
        # loading numpy.random costs a CLI process about 15 ms and 5 MB
        code = ("import sys\n"
                "from eigenfid import SweepConfig, run\n"
                "run(SweepConfig(mode='concat', nbar_grid=(25.0, 60.0), tau_grid=(1.0,),"
                " concat_grid=(1, 2)))\n"
                "print('numpy.random' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(eigenfid.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# column contract

_BRACKET_COLUMNS = ("eigenerror_exact", "eigenerror_bound_lower", "eigenerror_bound_upper",
                    "asymptote", "runtime_ms")


class TestColumns:
    CONFIGS = {
        "scaling": dict(mode="scaling", nbar_grid=(25.0,), tau_grid=(PI / 2,)),
        "concat": dict(mode="concat", nbar_grid=(25.0,), tau_grid=(PI / 2,),
                       concat_grid=(2,)),
        "split": dict(mode="split", nbar_grid=(25.0,), tau_grid=(PI / 2,),
                      concat_grid=(2,)),
    }
    LEADING = {
        "scaling": ("drive_kind", "nbar", "fano", "tau"),
        "concat": ("drive_kind", "nbar", "fano", "concatenations", "tau", "total_tau"),
        "split": ("drive_kind", "nbar_total", "concatenations", "convention", "sub_nbar",
                  "sub_tau", "energy_total"),
    }

    @pytest.mark.parametrize("mode", ["scaling", "concat", "split"])
    @pytest.mark.parametrize("mc_samples", [0, 50])
    def test_column_order(self, mode, mc_samples):
        res = run(SweepConfig(**self.CONFIGS[mode], mc_samples=mc_samples))
        mc = ("eigenerror_mc", "eigenerror_mc_stderr") if mc_samples else ()
        assert res.columns == self.LEADING[mode] + _BRACKET_COLUMNS + mc
        assert all(len(row) == len(res.columns) for row in res.rows)


# ---------------------------------------------------------------------------
# determinism and Monte Carlo columns

class TestDeterminism:
    CFG = dict(mode="scaling", nbar_grid=(25.0, 50.0), tau_grid=(PI / 4, PI / 2),
               seed=11, mc_samples=400)

    @staticmethod
    def _strip_runtime(res):
        k = res.columns.index("runtime_ms")
        return [tuple(v for i, v in enumerate(row) if i != k) for row in res.rows]

    def test_repeat_runs_identical_up_to_runtime(self):
        a = run_scaling(SweepConfig(**self.CFG))
        b = run_scaling(SweepConfig(**self.CFG))
        assert self._strip_runtime(a) == self._strip_runtime(b)

    def test_parallel_matches_serial(self):
        a = run_scaling(SweepConfig(**self.CFG))
        b = run_scaling(SweepConfig(**{**self.CFG, "jobs": 2}))
        assert self._strip_runtime(a) == self._strip_runtime(b)

    def test_mc_estimate_lands_in_bracket(self):
        res = run_scaling(SweepConfig(mode="scaling", nbar_grid=(25.0,),
                                      tau_grid=(PI / 4, PI / 2), seed=5,
                                      mc_samples=2000))
        for row in res.rows:
            idx = {n: k for k, n in enumerate(res.columns)}
            mc = row[idx["eigenerror_mc"]]
            err = row[idx["eigenerror_mc_stderr"]]
            assert row[idx["eigenerror_bound_lower"]] - 3 * err <= mc
            assert mc <= row[idx["eigenerror_bound_upper"]] + 3 * err

    def test_mc_columns_absent_by_default(self):
        res = run_scaling(_scaling_config())
        assert "eigenerror_mc" not in res.columns


# ---------------------------------------------------------------------------
# persistence

class TestOutput:
    def test_csv_round_trip(self, tmp_path):
        res = run_scaling(_scaling_config(nbar_grid=(25.0, 50.0), tau_grid=(PI / 2,)))
        path = tmp_path / "sweep.csv"
        write_csv(res, str(path))
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert tuple(header) == res.columns
        assert len(rows) == len(res.rows)
        for got, want in zip(rows, res.rows):
            for cell, value in zip(got, want):
                if isinstance(value, float):
                    assert abs(float(cell) - value) <= 1e-11 * max(1.0, abs(value))
                else:
                    assert cell == str(value)

    def test_csv_uses_full_precision_scientific(self, tmp_path):
        res = run_scaling(_scaling_config())
        path = tmp_path / "sweep.csv"
        write_csv(res, str(path))
        text = path.read_text()
        value = res.column("eigenerror_exact")[0]
        assert f"{value:.11e}" in text

    def test_concat_counts_written_as_integers(self, tmp_path):
        res = run_concat(SweepConfig(mode="concat", nbar_grid=(25.0,),
                                     tau_grid=(0.5,), concat_grid=(2,)))
        path = tmp_path / "sweep.csv"
        write_csv(res, str(path))
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            row = next(reader)
        assert row[header.index("concatenations")] == "2"

    def test_no_temp_files_left_behind(self, tmp_path):
        res = run_scaling(_scaling_config())
        write_csv(res, str(tmp_path / "sweep.csv"))
        write_sidecar(res, str(tmp_path / "sweep.csv.json"))
        dump_object(QubitChannel.identity(), str(tmp_path / "channel.json"))
        assert glob.glob(str(tmp_path / ".eigenfid-*")) == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        res = run_scaling(_scaling_config())
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write_csv(res, str(target))
        assert glob.glob(str(tmp_path / ".eigenfid-*")) == []

    def test_overwrite_is_atomic_and_clean(self, tmp_path):
        res = run_scaling(_scaling_config())
        path = tmp_path / "sweep.csv"
        write_csv(res, str(path))
        first = path.read_text()
        write_csv(res, str(path))
        assert path.read_text() == first

    def test_sidecar_contents(self, tmp_path):
        import json

        cfg = _scaling_config(seed=99)
        res = run_scaling(cfg)
        d = sidecar_dict(res)
        assert d["schema"] == 1
        assert d["version"] == VERSION_STRING
        assert d["version"].startswith("eigenfid-")
        assert d["config"]["seed"] == 99
        assert d["config"]["mode"] == "scaling"
        assert d["columns"] == list(res.columns)
        assert d["row_count"] == len(res.rows)

        path = tmp_path / "sweep.csv.json"
        write_sidecar(res, str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(d))
