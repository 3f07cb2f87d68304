"""End-to-end checks for the command-line front end.

Most tests drive ``eigenfid.cli.main`` in-process and read the captured
streams; one smoke test runs the ``eigenfid`` console-script launcher
declared in ``pyproject.toml`` in a separate process, against the tree
under test.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenfid
from eigenfid import serialize
from eigenfid.channel import QubitChannel
from eigenfid.cli import main
from eigenfid.densmat import DensityMatrix
from eigenfid.qsl import qsl_eigenerror_bound


def _report(text: str) -> dict[str, str]:
    """Parse ``key value`` diagnostic lines into a dict."""
    pairs = (line.split(" ", 1) for line in text.splitlines() if line)
    return dict(pairs)


def _write_config(path, **overrides):
    doc = {
        "schema": 1,
        "mode": "scaling",
        "drive": {"kind": "poisson", "nbar": 25.0},
        "nbar_grid": [25.0, 50.0],
        "tau_grid": [math.pi / 4, math.pi / 2],
        "seed": 11,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def _read_rows(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _drop_column(rows: list[list[str]], name: str) -> list[list[str]]:
    skip = rows[0].index(name)
    return [[cell for i, cell in enumerate(row) if i != skip] for row in rows]


class TestBasics:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == f"eigenfid {eigenfid.__version__}"

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "bounds-check" in capsys.readouterr().out

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err != ""


class TestQsl:
    def test_prints_the_floor_in_scientific_notation(self, capsys):
        theta, nbar = math.pi / 2, 1000.0
        assert main(["qsl", "--theta", repr(theta), "--nbar", repr(nbar)]) == 0
        line = capsys.readouterr().out.strip()
        assert line == f"{qsl_eigenerror_bound(theta, nbar):.11e}"

    def test_value_matches_the_closed_form(self, capsys):
        theta, nbar = 1.2, 400.0
        assert main(["qsl", "--theta", repr(theta), "--nbar", repr(nbar)]) == 0
        value = float(capsys.readouterr().out)
        expected = (theta**2 + math.sin(theta) ** 2) / (6.0 * nbar)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nbar", ["0", "-3.0"])
    def test_nonpositive_photon_number_is_a_config_error(self, capsys, nbar):
        assert main(["qsl", "--theta", "1.0", "--nbar", nbar]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_flag_is_a_usage_error(self, capsys):
        assert main(["qsl", "--theta", "1.0"]) == 2

    def test_a_bad_angle_is_named_as_a_rotation_angle(self, capsys):
        assert main(["qsl", "--theta", "1e308", "--nbar", "10"]) == 2
        err = capsys.readouterr().err
        assert "config error: rotation angle must be in [-2**53, 2**53], got 1e+308" in err


class TestBoundsCheck:
    def test_random_states_pass_all_three_suites(self, capsys):
        assert main(["bounds-check", "--trials", "200", "--seed", "7"]) == 0
        assert capsys.readouterr().out.strip() == "prop1 OK prop2 OK thm1 OK"

    def test_higher_dimensions_pass_too(self, capsys):
        argv = ["bounds-check", "--dim", "5", "--trials", "60", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "prop1 OK prop2 OK thm1 OK"

    # one broken quantity per check: the overlap of prop1, the Schatten norm
    # of prop2, and each of thm1's two brackets
    @pytest.mark.parametrize("name,broken,line", [
        ("fidelity_to_pure", lambda rho, phi: 2.0, "prop1 FAIL prop2 OK thm1 OK"),
        ("schatten_norm", lambda rho, p: 0.0, "prop1 OK prop2 FAIL thm1 OK"),
        ("eigenfidelity_bounds", lambda rho: (2.0, 3.0), "prop1 OK prop2 OK thm1 FAIL"),
        ("linear_entropy", lambda rho: 5.0, "prop1 OK prop2 OK thm1 FAIL"),
    ])
    def test_a_failed_suite_prints_fail_and_exits_one(self, capsys, monkeypatch, name, broken,
                                                      line):
        monkeypatch.setattr(f"eigenfid.cli.{name}", broken)
        assert main(["bounds-check", "--trials", "5", "--seed", "7"]) == 1
        assert capsys.readouterr().out.strip() == line

    @pytest.mark.parametrize("argv", [
        ["bounds-check", "--dim", "1"],
        ["bounds-check", "--trials", "0"],
        ["bounds-check", "--seed", "-1"],
        ["bounds-check", "--seed", str(2**64)],
    ])
    def test_bad_arguments_exit_two(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"config error: {argv[1]} must be in [" in err


class TestInspect:
    def _state_file(self, tmp_path, rho: np.ndarray) -> str:
        path = tmp_path / "state.json"
        serialize.dump_object(DensityMatrix(rho), str(path))
        return str(path)

    def _channel_file(self, tmp_path, channel: QubitChannel) -> str:
        path = tmp_path / "channel.json"
        serialize.dump_object(channel, str(path))
        return str(path)

    def test_maximally_mixed_state_report(self, capsys, tmp_path):
        path = self._state_file(tmp_path, np.eye(2) / 2)
        assert main(["inspect", path]) == 0
        report = _report(capsys.readouterr().out)
        assert report["type"] == "state"
        assert report["dim"] == "2"
        assert float(report["eigenfidelity"]) == pytest.approx(0.5)
        assert float(report["eigenerror"]) == pytest.approx(0.5)
        assert float(report["purity"]) == pytest.approx(0.5)
        assert float(report["linear_entropy"]) == pytest.approx(0.5)
        assert float(report["thm1_lower"]) == pytest.approx(0.5)
        assert float(report["thm1_upper"]) == pytest.approx(0.75)

    def test_values_use_eleven_digit_scientific_notation(self, capsys, tmp_path):
        path = self._state_file(tmp_path, np.eye(2) / 2)
        main(["inspect", path])
        assert "eigenfidelity 5.00000000000e-01" in capsys.readouterr().out

    def test_depolarizing_channel_report(self, capsys, tmp_path):
        path = self._channel_file(tmp_path, QubitChannel.depolarizing())
        assert main(["inspect", path]) == 0
        report = _report(capsys.readouterr().out)
        assert report["type"] == "channel"
        assert float(report["gamma_bar"]) == pytest.approx(0.5)
        assert float(report["cor1_lower"]) == pytest.approx(0.5)
        assert float(report["cor1_upper"]) == pytest.approx(0.75)
        assert float(report["tp_residual"]) <= 1e-12
        assert float(report["cp_residual"]) <= 1e-12

    def test_identity_channel_bounds_are_tight(self, capsys, tmp_path):
        path = self._channel_file(tmp_path, QubitChannel.identity())
        assert main(["inspect", path]) == 0
        report = _report(capsys.readouterr().out)
        assert float(report["gamma_bar"]) == pytest.approx(1.0)
        assert float(report["cor1_lower"]) == pytest.approx(1.0)
        assert float(report["cor1_upper"]) == pytest.approx(1.0)

    def test_dump_round_trip_preserves_diagnostics(self, capsys, tmp_path):
        source = self._state_file(tmp_path, np.array([[0.75, 0.25],
                                                      [0.25, 0.25]]))
        copy = tmp_path / "copy.json"
        assert main(["inspect", source, "--dump", str(copy)]) == 0
        first = capsys.readouterr().out.splitlines()
        assert first[-1] == f"dumped {copy}"
        assert main(["inspect", str(copy)]) == 0
        second = capsys.readouterr().out.splitlines()
        assert first[:-1] == second

    def test_dump_into_missing_directory_exits_one(self, capsys, tmp_path):
        source = self._state_file(tmp_path, np.eye(2) / 2)
        target = tmp_path / "no_such_dir" / "out.json"
        assert main(["inspect", source, "--dump", str(target)]) == 1
        assert capsys.readouterr().err != ""

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["inspect", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_reports_the_root_pointer(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["inspect", str(path)]) == 2
        assert "/: invalid JSON" in capsys.readouterr().err

    def test_unknown_type_reports_the_type_pointer(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"schema": 1, "type": "gadget"}))
        assert main(["inspect", str(path)]) == 2
        assert "/type" in capsys.readouterr().err

    def test_an_entry_past_the_float_range_is_a_config_error(self, capsys, tmp_path):
        # 10**400 is valid JSON, and a 401-digit integer has no float
        path = tmp_path / "huge_entry.json"
        path.write_text(json.dumps({"schema": 1, "type": "state",
                                    "matrix": [[[10 ** 400, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [0.0, 0.0]]]}))
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("eigenfid: config error: /matrix/0/0/0: ")
        assert "Traceback" not in err

    def test_non_positive_state_is_rejected(self, capsys, tmp_path):
        matrix = [[[0.75, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.25, 0.0]]]
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps({"schema": 1, "type": "state",
                                    "matrix": matrix}))
        assert main(["inspect", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestSweepRuns:
    def test_scaling_writes_csv_and_sidecar(self, capsys, tmp_path):
        csv = tmp_path / "run.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(csv))
        assert main(["scaling", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert f"wrote 4 rows to {csv}" in out
        assert f"sidecar {csv}.json" in out
        sidecar = json.loads((tmp_path / "run.csv.json").read_text())
        header = _read_rows(csv)[0]
        assert sidecar["schema"] == 1
        assert sidecar["version"] == f"eigenfid-{eigenfid.__version__}"
        assert sidecar["row_count"] == 4
        assert sidecar["columns"] == header
        assert sidecar["config"]["mode"] == "scaling"
        assert sidecar["config"]["seed"] == 11

    def test_output_into_missing_directory_exits_one(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        target = tmp_path / "no_such_dir" / "out.csv"
        assert main(["scaling", "--config", cfg, "-o", str(target)]) == 1
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_write_error_names_the_output_path(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        target = tmp_path / "missing" / "dir" / "x.csv"
        assert main(["scaling", "--config", cfg, "-o", str(target)]) == 1
        err = capsys.readouterr().err
        assert str(target) in err
        assert ".tmp" not in err

    def test_seed_override_lands_in_the_sidecar(self, capsys, tmp_path):
        csv = tmp_path / "run.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(csv))
        assert main(["scaling", "--config", cfg, "--seed", "99"]) == 0
        sidecar = json.loads((tmp_path / "run.csv.json").read_text())
        assert sidecar["config"]["seed"] == 99

    def test_output_flag_overrides_the_config(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json",
                            output=str(tmp_path / "ignored.csv"))
        chosen = tmp_path / "chosen.csv"
        assert main(["scaling", "--config", cfg, "-o", str(chosen)]) == 0
        assert chosen.exists()
        assert not (tmp_path / "ignored.csv").exists()

    def test_sidecar_suffix_never_clobbers_the_config(self, capsys, tmp_path):
        # config run.json and output run.csv in one directory: the sidecar
        # must land at run.csv.json, leaving the config byte-identical
        cfg_path = tmp_path / "run.json"
        csv = tmp_path / "run.csv"
        cfg = _write_config(cfg_path, output=str(csv))
        before = cfg_path.read_bytes()
        assert main(["scaling", "--config", cfg]) == 0
        assert (tmp_path / "run.csv.json").exists()
        assert cfg_path.read_bytes() == before

    def test_repeat_runs_agree_modulo_runtime(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(first))
        assert main(["scaling", "--config", cfg]) == 0
        assert main(["scaling", "--config", cfg, "-o", str(second)]) == 0
        rows_a = _drop_column(_read_rows(first), "runtime_ms")
        rows_b = _drop_column(_read_rows(second), "runtime_ms")
        assert rows_a == rows_b

    def test_parallel_jobs_match_serial_rows(self, capsys, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(serial))
        assert main(["scaling", "--config", cfg]) == 0
        assert main(["scaling", "--config", cfg, "--jobs", "2",
                     "-o", str(parallel)]) == 0
        rows_s = _drop_column(_read_rows(serial), "runtime_ms")
        rows_p = _drop_column(_read_rows(parallel), "runtime_ms")
        assert rows_s == rows_p

    def test_mc_samples_flag_adds_estimate_columns(self, capsys, tmp_path):
        csv = tmp_path / "mc.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(csv),
                            nbar_grid=[25.0], tau_grid=[1.0])
        assert main(["scaling", "--config", cfg, "--mc-samples", "64"]) == 0
        header = _read_rows(csv)[0]
        assert "eigenerror_mc" in header
        assert "eigenerror_mc_stderr" in header

    def test_single_mc_sample_is_a_config_error(self, capsys, tmp_path):
        csv = tmp_path / "mc.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(csv))
        assert main(["scaling", "--config", cfg, "--mc-samples", "1"]) == 2
        assert "mc_samples" in capsys.readouterr().err
        assert not csv.exists()

    def test_mc_sample_count_past_an_index_is_a_config_error(self, capsys, tmp_path):
        csv = tmp_path / "mc.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(csv))
        assert main(["scaling", "--config", cfg, "--mc-samples", str(10 ** 29)]) == 2
        err = capsys.readouterr().err
        assert "config error: /mc_samples" in err and "Traceback" not in err
        assert not csv.exists()

    def test_mc_sample_count_numpy_cannot_size_is_a_config_error(self, capsys, tmp_path):
        # 2**62 values of 8 B each are past any array numpy can size
        csv = tmp_path / "mc.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(csv),
                            nbar_grid=[25.0], tau_grid=[1.0])
        assert main(["scaling", "--config", cfg, "--mc-samples", str(2 ** 62)]) == 2
        err = capsys.readouterr().err
        assert "config error: /mc_samples" in err and "Traceback" not in err
        assert not csv.exists()

    def test_a_run_out_of_memory_exits_one_on_one_line(self, capsys, monkeypatch, tmp_path):
        def exhausted(config):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr("eigenfid.cli.run", exhausted)
        csv = tmp_path / "mc.csv"
        cfg = _write_config(tmp_path / "cfg.json", output=str(csv))
        assert main(["scaling", "--config", cfg, "--mc-samples", "64"]) == 1
        err = capsys.readouterr().err
        assert err == "eigenfid: MemoryError: Unable to allocate 8.00 EiB for an array\n"
        assert not csv.exists()

    def test_mode_mismatch_is_a_config_error(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json",
                            output=str(tmp_path / "x.csv"))
        assert main(["concat", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "/mode" in err
        assert "scaling" in err and "concat" in err

    @pytest.mark.parametrize("mode", ["moment_matched", "paper_literal"])
    def test_a_binomial_mode_is_an_unknown_field(self, capsys, tmp_path, mode):
        # one binomial rule: the paper's drive at (nbar, V) is the sweep's at (nbar - V, V/2)
        cfg = _write_config(tmp_path / "cfg.json", drive={"kind": "binomial", "nbar": 20.0},
                            fano_grid=[0.125], binomial_mode=mode,
                            output=str(tmp_path / "x.csv"))
        assert main(["scaling", "--config", cfg]) == 2
        assert "config error: /binomial_mode: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_a_binomial_pair_that_no_drive_has_exits_two(self, capsys, tmp_path):
        # nbar = 100 has a drive at this Fano factor, nbar = 10 none (width 13.2)
        cfg = _write_config(tmp_path / "cfg.json", drive={"kind": "binomial"},
                            nbar_grid=[100.0, 10.0], fano_grid=[0.33],
                            output=str(tmp_path / "x.csv"))
        assert main(["scaling", "--config", cfg]) == 2
        assert "config error: /fano_grid/0: no binomial drive at nbar=10.0" in \
            capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_file_exits_two(self, capsys, tmp_path):
        assert main(["scaling", "--config", str(tmp_path / "gone.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_output_everywhere_exits_two(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["scaling", "--config", cfg]) == 2
        assert "/output" in capsys.readouterr().err

    def test_null_output_means_no_output(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", output=None)
        assert main(["scaling", "--config", cfg]) == 2
        assert "/output: no output path" in capsys.readouterr().err
        chosen = tmp_path / "chosen.csv"
        assert main(["scaling", "--config", cfg, "-o", str(chosen)]) == 0
        assert chosen.exists()

    def test_budget_too_small_exits_one_without_partial_files(self, capsys,
                                                              tmp_path):
        csv = tmp_path / "split.csv"
        cfg_doc = {"schema": 1, "mode": "split",
                   "drive": {"kind": "poisson", "nbar": 4.0},
                   "concat_grid": [8], "seed": 1, "output": str(csv)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(["split", "--config", str(cfg)]) == 1
        assert "BudgetTooSmall" in capsys.readouterr().err
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "cfg.json"]
        assert leftovers == []

    def test_split_run_succeeds_with_enough_photons(self, capsys, tmp_path):
        csv = tmp_path / "split.csv"
        cfg_doc = {"schema": 1, "mode": "split",
                   "drive": {"kind": "poisson", "nbar": 64.0},
                   "concat_grid": [1, 2], "seed": 5, "output": str(csv),
                   "split_convention": "per_pulse"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(["split", "--config", str(cfg)]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out


class TestLoggingEnvironment:
    def test_debug_level_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENFID_LOG", "debug")
        assert main(["qsl", "--theta", "1.0", "--nbar", "50"]) == 0

    def test_unknown_level_falls_back_to_warn(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENFID_LOG", "bogus")
        assert main(["qsl", "--theta", "1.0", "--nbar", "50"]) == 0
        assert float(capsys.readouterr().out) > 0


class TestConsoleScript:
    def test_installed_entry_point_reports_version(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        src = Path(eigenfid.__file__).resolve().parents[1]
        with open(src.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        # The launcher the PyPA entry-points specification prescribes for
        # a ``module:attr`` console script, run against the tree under test.
        module, attr = scripts["eigenfid"].split(":")
        launcher = tmp_path / "eigenfid"
        launcher.write_text(
            f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, str(launcher), "--version"],
                              cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"eigenfid {eigenfid.__version__}"
