"""JSON documents: sweep configs, drive specs, states, channels."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import random_channel
from eigenfid import DensityMatrix, QubitChannel, SweepConfig, random_density_matrix
from eigenfid.errors import NonHermitianInput, SchemaError, UnsupportedParameters
from eigenfid.serialize import (
    channel_from_dict,
    channel_to_dict,
    decode_matrix,
    drive_from_spec,
    dump_object,
    encode_matrix,
    load_object,
    load_sweep_config,
    object_from_dict,
    state_from_dict,
    state_to_dict,
    sweep_config_from_dict,
)


def _minimal_config(**overrides) -> dict:
    doc = {
        "schema": 1,
        "mode": "scaling",
        "drive": {"kind": "poisson", "nbar": 25.0},
        "tau_grid": [1.5],
    }
    doc.update(overrides)
    return doc


def _path_of(excinfo) -> str:
    return excinfo.value.path


# ---------------------------------------------------------------------------
# sweep configs

class TestSweepConfigDocument:
    def test_minimal_document(self):
        cfg = sweep_config_from_dict(_minimal_config())
        assert cfg.mode == "scaling"
        assert cfg.drive_kind == "poisson"
        assert cfg.nbar_grid == (25.0,)
        assert cfg.tau_grid == (1.5,)
        assert cfg.seed == 0

    def test_full_document(self):
        doc = {
            "schema": 1,
            "mode": "concat",
            "drive": {"kind": "binomial"},
            "nbar_grid": [25, 50],
            "fano_grid": [0.2, 0.5],
            "tau_grid": [0.5, 1.0],
            "concat_grid": [1, 2, 4],
            "seed": 42,
            "output": "runs/out.csv",
            "mc_samples": 1000,
            "jobs": 3,
        }
        cfg = sweep_config_from_dict(doc)
        assert cfg.nbar_grid == (25.0, 50.0)
        assert cfg.fano_grid == (0.2, 0.5)
        assert cfg.concat_grid == (1, 2, 4)
        assert cfg.seed == 42
        assert cfg.output == "runs/out.csv"
        assert cfg.mc_samples == 1000
        assert cfg.jobs == 3

    def test_grid_wins_over_drive_scalar(self):
        doc = _minimal_config(nbar_grid=[100, 200])
        assert sweep_config_from_dict(doc).nbar_grid == (100.0, 200.0)

    def test_split_defaults_to_quarter_rotation(self):
        doc = {
            "schema": 1,
            "mode": "split",
            "drive": {"kind": "poisson", "nbar": 64.0},
            "concat_grid": [1, 2, 4, 8],
        }
        cfg = sweep_config_from_dict(doc)
        assert cfg.tau_grid == (math.pi / 2,)

    def test_mode_can_come_from_subcommand(self):
        doc = _minimal_config()
        del doc["mode"]
        cfg = sweep_config_from_dict(doc, expected_mode="scaling")
        assert cfg.mode == "scaling"

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.pop("schema"), "/schema"),
            (lambda d: d.update(schema=2), "/schema"),
            # a bool is not a number, and a version is an exact integer
            (lambda d: d.update(schema=True), "/schema"),
            (lambda d: d.update(schema=1.0), "/schema"),
            (lambda d: d.update(extra=1), "/extra"),
            (lambda d: d["drive"].update(flavor="x"), "/drive/flavor"),
            (lambda d: d.pop("mode"), "/mode"),
            (lambda d: d.pop("drive"), "/drive"),
            (lambda d: d["drive"].pop("kind"), "/drive/kind"),
            (lambda d: d["drive"].update(kind="fock"), "/drive/kind"),
            # fields of standalone drive documents that a sweep never reads
            (lambda d: d["drive"].update(N=3), "/drive/N"),
            (lambda d: d["drive"].update(coeffs=[[1.0, 0.0]]), "/drive/coeffs"),
            (lambda d: d["drive"].pop("nbar"), "/nbar_grid"),
            (lambda d: d.update(nbar_grid=[25.0, -1.0]), "/nbar_grid/1"),
            (lambda d: d.update(nbar_grid=["x"]), "/nbar_grid/0"),
            (lambda d: d.update(tau_grid=[0.5, -0.5]), "/tau_grid/1"),
            (lambda d: d.pop("tau_grid"), "/tau_grid"),
            (lambda d: d.update(seed="zero"), "/seed"),
            (lambda d: d.update(jobs=1.5), "/jobs"),
            (lambda d: d.update(split_convention="thirds"), "/split_convention"),
            (lambda d: d.update(split_convention="per_pulse"), "/split_convention"),
            (lambda d: d.update(binomial_mode="weird"), "/binomial_mode"),
        ],
    )
    def test_pointer_paths(self, mutate, path):
        doc = _minimal_config()
        mutate(doc)
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == path

    @pytest.mark.parametrize("mode", ["moment_matched", "paper_literal"])
    def test_a_binomial_mode_is_an_unknown_field(self, mode):
        doc = _minimal_config(drive={"kind": "binomial", "nbar": 20.0, "fano": 0.125},
                              binomial_mode=mode)
        with pytest.raises(SchemaError, match="unknown field") as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == "/binomial_mode"

    def test_unknown_mode_hits_config_validation(self):
        with pytest.raises(UnsupportedParameters):
            sweep_config_from_dict(_minimal_config(mode="drift"))

    def test_mode_mismatch_names_both_sides(self):
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(_minimal_config(), expected_mode="concat")
        assert _path_of(excinfo) == "/mode"
        assert "scaling" in str(excinfo.value) and "concat" in str(excinfo.value)

    def test_concat_mode_requires_counts(self):
        doc = _minimal_config(mode="concat")
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == "/concat_grid"

    @pytest.mark.parametrize("bad,where", [
        ([0], "/concat_grid/0"),
        ([1.5], "/concat_grid/0"),
        ([], "/concat_grid"),
    ])
    def test_concat_grid_validation(self, bad, where):
        doc = _minimal_config(mode="concat", concat_grid=bad)
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == where

    def test_binomial_fano_range(self):
        doc = _minimal_config()
        doc["drive"] = {"kind": "binomial", "nbar": 25.0}
        doc["fano_grid"] = [1.5]
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == "/fano_grid/0"

    def test_binomial_needs_fano(self):
        doc = _minimal_config()
        doc["drive"] = {"kind": "binomial", "nbar": 25.0}
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == "/fano_grid"

    def test_rejects_a_grid_the_mode_never_reads(self):
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(_minimal_config(concat_grid=[7]))
        assert _path_of(excinfo) == "/concat_grid"

    def test_poisson_sweep_rejects_a_fano_grid(self):
        doc = _minimal_config(fano_grid=[0.3])
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == "/fano_grid"

    def test_poisson_sweep_rejects_the_fano_shorthand(self):
        # drive.fano is a one-point fano_grid, so it is refused the same way
        doc = _minimal_config()
        doc["drive"]["fano"] = 0.3
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == "/fano_grid"

    def test_counts_must_be_json_integers(self):
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(_minimal_config(seed=2.0))
        assert _path_of(excinfo) == "/seed"

    def test_booleans_are_not_numbers(self):
        doc = _minimal_config(nbar_grid=[True])
        with pytest.raises(SchemaError) as excinfo:
            sweep_config_from_dict(doc)
        assert _path_of(excinfo) == "/nbar_grid/0"

    def test_file_loading(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_minimal_config()))
        assert load_sweep_config(str(path)).nbar_grid == (25.0,)

    def test_invalid_json_points_at_document_root(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError) as excinfo:
            load_sweep_config(str(path))
        assert _path_of(excinfo) == "/"


# ---------------------------------------------------------------------------
# one rule set: a field value means the same in Python and in JSON

_ABSENT = object()
_PARITY_BASES = {
    "scaling": {"mode": "scaling", "drive_kind": "poisson", "nbar_grid": [25.0],
                "tau_grid": [1.5]},
    "concat": {"mode": "concat", "drive_kind": "poisson", "nbar_grid": [25.0],
               "tau_grid": [1.5], "concat_grid": [2]},
    "split": {"mode": "split", "drive_kind": "poisson", "nbar_grid": [64.0],
              "tau_grid": [1.0], "concat_grid": [1, 2]},
}
# (base, field, value); _ABSENT leaves the field out
_PARITY_CASES = [
    *[("scaling", field, value) for field in ("seed", "jobs", "mc_samples")
      for value in (2.0, True, "3", None, 3, 1.5)],
    *[("concat", "concat_grid", value) for value in ([3.0], [True], ["3"], [3], [2, 4.0])],
    *[("scaling", "output", value) for value in (5, True, None, "out.csv", ["out.csv"])],
    ("split", "tau_grid", _ABSENT),
    ("split", "tau_grid", None),
    *[("scaling", "nbar_grid", value) for value in ("25", {"25": 1}, 25.0, None, [[25.0]])],
    ("split", "tau_grid", []),
    ("scaling", "tau_grid", _ABSENT),
    ("scaling", "fano_grid", [0.5]),
    ("scaling", "drive_kind", "Poisson"),
    ("scaling", "split_convention", 5),
    # a convention other than the default outside split mode is a knob that does nothing
    *[(base, "split_convention", value) for base in ("scaling", "concat", "split")
      for value in ("physical", "per_pulse")],
]


def _outcome(build) -> tuple:
    """The config's fields, or the pointer of the SchemaError it raises."""
    try:
        return "accepted", dataclasses.asdict(build())
    except SchemaError as exc:
        return "rejected", exc.path


def _json_config(fields: dict) -> SweepConfig:
    doc = {key: value for key, value in fields.items() if key != "drive_kind"}
    doc.update(schema=1, drive={"kind": fields["drive_kind"]})
    return sweep_config_from_dict(json.loads(json.dumps(doc)))


class TestOneRuleSet:
    @pytest.mark.parametrize("base,field,value", _PARITY_CASES,
                             ids=[f"{b}-{f}-{'absent' if v is _ABSENT else repr(v)}"
                                  for b, f, v in _PARITY_CASES])
    def test_python_and_json_configs_agree(self, base, field, value):
        fields = dict(_PARITY_BASES[base])
        if value is _ABSENT:
            del fields[field]
        else:
            fields[field] = value
        assert _outcome(lambda: SweepConfig(**fields)) == _outcome(lambda: _json_config(fields))

    @pytest.mark.parametrize("kind, nbar, fano", [("poisson", 2e8, None),
                                                  ("binomial", 10.0, 0.33),
                                                  ("binomial", 10.25, 1.0)])
    def test_a_sweep_and_a_drive_document_reject_a_drive_alike(self, kind, nbar, fano):
        fields = {} if fano is None else {"fano": fano}
        with pytest.raises(SchemaError) as sweep:
            SweepConfig(mode="scaling", drive_kind=kind, nbar_grid=(nbar,),
                        fano_grid=tuple(fields.values()), tau_grid=(1.0,))
        with pytest.raises(SchemaError) as drive:
            drive_from_spec({"kind": kind, "nbar": nbar, **fields})
        field = "nbar" if fano is None else "fano"
        assert (sweep.value.path, drive.value.path) == (f"/{field}_grid/0", f"/drive/{field}")
        assert str(sweep.value)[len(sweep.value.path):] == str(drive.value)[len(drive.value.path):]

    def test_the_table_sees_both_outcomes(self):
        # a table whose values all pass, or all fail, would compare nothing
        outcomes = {_outcome(lambda: SweepConfig(**{**_PARITY_BASES[base], field: value}))[0]
                    for base, field, value in _PARITY_CASES if value is not _ABSENT}
        assert outcomes == {"accepted", "rejected"}


# ---------------------------------------------------------------------------
# drive specs

class TestDriveSpec:
    def test_poisson(self):
        drive = drive_from_spec({"kind": "poisson", "nbar": 9.0})
        assert drive.kind == "poisson"
        assert abs(drive.mean - 9.0) < 1e-9

    def test_a_poisson_mean_trimmed_to_the_vacuum_loads_the_vacuum_drive(self):
        # a sweep config rejects this mean when it has a tau > 0; a drive has no tau
        drive = drive_from_spec({"kind": "poisson", "nbar": 1e-300})
        assert (drive.kind, drive.n_min, drive.n_max, drive.mean) == ("poisson", 0, 0, 0.0)

    def test_binomial_uses_fano_times_mean(self):
        drive = drive_from_spec({"kind": "binomial", "nbar": 25.0, "fano": 0.2})
        assert abs(drive.variance - 5.0) < 1e-9

    def test_fock(self):
        drive = drive_from_spec({"kind": "fock", "N": 4})
        assert drive.kind == "fock" and drive.mean == 4.0

    def test_custom(self):
        drive = drive_from_spec({"kind": "custom",
                                 "coeffs": [[1.0, 0.0], [0.0, 1.0]]})
        assert drive.kind == "custom"
        assert abs(drive.coefficients[1] / drive.coefficients[0] - 1.0j) < 1e-12

    @pytest.mark.parametrize(
        "spec,path",
        [
            ({"kind": "thermal"}, "/drive/kind"),
            ({"nbar": 4.0}, "/drive/kind"),
            ({"kind": "poisson"}, "/drive/nbar"),
            ({"kind": "binomial", "nbar": 25.0}, "/drive/fano"),
            ({"kind": "fock"}, "/drive/N"),
            ({"kind": "fock", "N": 2.5}, "/drive/N"),
            ({"kind": "custom"}, "/drive/coeffs"),
            ({"kind": "custom", "coeffs": [[1.0]]}, "/drive/coeffs/0"),
            ({"kind": "custom", "coeffs": [[1.0, "x"]]}, "/drive/coeffs/0/1"),
            ({"kind": "poisson", "nbar": 4.0, "shape": 1}, "/drive/shape"),
            ({"kind": ["poisson"], "nbar": 9.0}, "/drive/kind"),
            ({"kind": "Poisson", "nbar": 9.0}, "/drive/kind"),
            # nbar and fano take the sweep's rules, and a Poisson drive no fano
            *[({"kind": kind, "nbar": nbar, **fano}, "/drive/nbar")
              for kind, fano in (("poisson", {}), ("binomial", {"fano": 0.5}))
              for nbar in (0.0, -4.0, math.nan, math.inf, 2.0 ** 54, True, "9")],
            *[({"kind": "binomial", "nbar": 10.0, "fano": fano}, "/drive/fano")
              for fano in (0.0, -0.5, 1.5, math.nan, True, "0.5")],
            ({"kind": "poisson", "nbar": 9.0, "fano": 0.5}, "/drive/fano"),
            ({"kind": "poisson", "nbar": 9.0, "fano": 1.0}, "/drive/fano"),
            ({"kind": "fock", "N": -1}, "/drive/N"),
            ({"kind": "fock", "N": 4.0}, "/drive/N"),
            ({"kind": "fock", "N": True}, "/drive/N"),
            ({"kind": "fock", "N": 2 ** 60}, "/drive/N"),
            *[({"kind": kind, "nbar": 9.0}, "/drive/kind") for kind in ("", None, 1, True)],
            # no binomial drive: width 13.2, and width 41 with shift -10.25
            ({"kind": "binomial", "nbar": 10.0, "fano": 0.33}, "/drive/fano"),
            ({"kind": "binomial", "nbar": 10.25, "fano": 1.0}, "/drive/fano"),
            # past the largest mean a poisson drive takes
            ({"kind": "poisson", "nbar": 2e8}, "/drive/nbar"),
        ],
    )
    def test_pointer_paths(self, spec, path):
        with pytest.raises(SchemaError) as excinfo:
            drive_from_spec(spec)
        assert _path_of(excinfo) == path

    def test_clipped_mass_fails_at_the_fano(self):
        # width 40 centered on 10: 3.4e-4 of the mass lies below level 0,
        # which only the built weights show
        with pytest.raises(SchemaError, match="nbar=10.0: .*negative photon numbers") as excinfo:
            drive_from_spec({"kind": "binomial", "nbar": 10.0, "fano": 1.0})
        assert _path_of(excinfo) == "/drive/fano"


# ---------------------------------------------------------------------------
# matrices, states, channels

class TestMatrixCodec:
    def test_round_trip_is_exact(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        doc = json.loads(json.dumps(encode_matrix(m)))
        np.testing.assert_array_equal(decode_matrix(doc, "/m"), m)

    @pytest.mark.parametrize(
        "doc,path",
        [
            ([], "/m"),
            ([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "/m/1"),
            ([[[1.0]]], "/m/0/0"),
            ([[[1.0, "i"]]], "/m/0/0/1"),
            ([["oops"]], "/m/0/0"),
        ],
    )
    def test_pointer_paths(self, doc, path):
        with pytest.raises(SchemaError) as excinfo:
            decode_matrix(doc, "/m")
        assert _path_of(excinfo) == path

    @pytest.mark.parametrize(
        "cell,suffix",
        [
            ("oops", ""),
            ([1.0], ""),
            ([1.0, 0.0, 0.0], ""),
            ([None, 0.0], "/0"),
            ([0.0, "i"], "/1"),
            ([0.0, True], "/1"),
            ([math.inf, 0.0], "/0"),
        ],
    )
    def test_pairs_parse_like_custom_drive_coefficients(self, cell, suffix):
        with pytest.raises(SchemaError) as in_matrix:
            decode_matrix([[cell]], "/m")
        with pytest.raises(SchemaError) as in_drive:
            drive_from_spec({"kind": "custom", "coeffs": [cell]})
        assert _path_of(in_matrix) == "/m/0/0" + suffix
        assert _path_of(in_drive) == "/drive/coeffs/0" + suffix
        message = str(in_matrix.value).removeprefix(_path_of(in_matrix))
        assert str(in_drive.value).removeprefix(_path_of(in_drive)) == message


class TestStateDocument:
    def test_round_trip_is_exact(self, rng):
        rho = random_density_matrix(rng, 3)
        doc = json.loads(json.dumps(state_to_dict(rho)))
        back = state_from_dict(doc)
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_rejects_unknown_field(self):
        doc = state_to_dict(DensityMatrix.maximally_mixed(2))
        doc["label"] = "x"
        with pytest.raises(SchemaError) as excinfo:
            state_from_dict(doc)
        assert _path_of(excinfo) == "/label"

    def test_rejects_non_square(self):
        doc = {"schema": 1, "type": "state",
               "matrix": [[[0.5, 0.0], [0.5, 0.0]]]}
        with pytest.raises(SchemaError) as excinfo:
            state_from_dict(doc)
        assert _path_of(excinfo) == "/matrix"

    def test_physical_validation_still_applies(self):
        doc = {"schema": 1, "type": "state",
               "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]}
        with pytest.raises(NonHermitianInput):
            state_from_dict(doc)


class TestChannelDocument:
    def test_round_trip_is_exact(self, rng):
        chan = random_channel(rng)
        doc = json.loads(json.dumps(channel_to_dict(chan)))
        back = channel_from_dict(doc)
        for a, b in zip(back.images(), chan.images()):
            np.testing.assert_array_equal(a, b)

    def test_missing_image(self, rng):
        doc = channel_to_dict(random_channel(rng))
        del doc["images"]["E10"]
        with pytest.raises(SchemaError) as excinfo:
            channel_from_dict(doc)
        assert _path_of(excinfo) == "/images/E10"

    def test_wrong_image_shape(self, rng):
        doc = channel_to_dict(random_channel(rng))
        doc["images"]["E00"] = [[[1.0, 0.0]]]
        with pytest.raises(SchemaError) as excinfo:
            channel_from_dict(doc)
        assert _path_of(excinfo) == "/images/E00"


class TestObjectDocuments:
    def test_dispatch_on_type(self, rng):
        rho = random_density_matrix(rng, 2)
        chan = random_channel(rng)
        assert isinstance(object_from_dict(state_to_dict(rho)), DensityMatrix)
        assert isinstance(object_from_dict(channel_to_dict(chan)), QubitChannel)

    def test_unknown_type(self):
        with pytest.raises(SchemaError) as excinfo:
            object_from_dict({"schema": 1, "type": "gate"})
        assert _path_of(excinfo) == "/type"

    @pytest.mark.parametrize("kind", ["State", ["state"], None, 1])
    def test_the_type_is_a_listed_string(self, kind):
        with pytest.raises(SchemaError, match=r"^/type: must be one of \('state', 'channel'\)"):
            object_from_dict({"schema": 1, "type": kind})

    def test_non_object(self):
        with pytest.raises(SchemaError) as excinfo:
            object_from_dict([1, 2, 3])
        assert _path_of(excinfo) == "/"

    def test_file_round_trip(self, tmp_path, rng):
        rho = random_density_matrix(rng, 2)
        chan = random_channel(rng)
        state_path = tmp_path / "state.json"
        chan_path = tmp_path / "chan.json"
        dump_object(rho, str(state_path))
        dump_object(chan, str(chan_path))
        back_state = load_object(str(state_path))
        back_chan = load_object(str(chan_path))
        np.testing.assert_array_equal(back_state.matrix, rho.matrix)
        for a, b in zip(back_chan.images(), chan.images()):
            np.testing.assert_array_equal(a, b)

    def test_dump_rejects_foreign_objects(self, tmp_path):
        with pytest.raises(SchemaError):
            dump_object({"not": "serializable"}, str(tmp_path / "x.json"))

    def test_error_string_carries_pointer(self):
        err = SchemaError("/drive/kind", "unknown drive kind")
        assert str(err) == "/drive/kind: unknown drive kind"
        assert err.path == "/drive/kind"
