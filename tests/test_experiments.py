"""Sweep runners: grids, determinism, bounds bookkeeping, CSV output."""

from __future__ import annotations

import csv
import glob
import math
import os

import numpy as np
import pytest

from eigenfid import (
    JCConfig,
    QubitChannel,
    SweepConfig,
    SweepResult,
    asymptotic_eigenerror_lower_bound,
    binomial_drive,
    build_channel_exact,
    channel_eigenerror_bounds,
    poisson_drive,
    run_concat,
    run_scaling,
    run_split,
    write_csv,
    write_sidecar,
)
from eigenfid.experiments import VERSION_STRING, run, sidecar_dict
from eigenfid.serialize import dump_object
from eigenfid.errors import BudgetTooSmall, UnsupportedParameters

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
            dict(binomial_mode="exactish"),
            dict(seed=-1),
            dict(mc_samples=-5),
            dict(jobs=0),
            dict(nbar_grid=()),
            dict(tau_grid=()),
            dict(mc_samples=1),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(**kw)

    def test_concat_mode_needs_counts(self):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(mode="concat")

    def test_binomial_needs_fano_grid(self):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(drive_kind="binomial")

    def test_counts_must_be_positive(self):
        with pytest.raises(UnsupportedParameters):
            _scaling_config(mode="concat", concat_grid=(0,))

    def test_split_mode_is_coherent_only(self):
        with pytest.raises(UnsupportedParameters):
            SweepConfig(mode="split", drive_kind="binomial", nbar_grid=(64.0,),
                        fano_grid=(0.2,), tau_grid=(PI / 2,), concat_grid=(1, 2))

    def test_grids_are_coerced(self):
        cfg = SweepConfig(mode="concat", nbar_grid=[25], tau_grid=[1],
                          concat_grid=[2.0])
        assert cfg.nbar_grid == (25.0,)
        assert cfg.tau_grid == (1.0,)
        assert cfg.concat_grid == (2,)
        assert isinstance(cfg.concat_grid[0], int)

    def test_non_integral_counts_rejected(self):
        with pytest.raises(UnsupportedParameters):
            SweepConfig(mode="concat", nbar_grid=(25.0,), tau_grid=(1.0,),
                        concat_grid=(1.5,))


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
