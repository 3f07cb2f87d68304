"""Versioned JSON formats: sweep configs, states, channels, drive specs.

Every document carries a top-level `"schema": 1`; unknown fields are
rejected. Validation failures raise SchemaError with a JSON-pointer-style
path to the offending field, which the CLI surfaces verbatim.

Complex matrices are encoded entrywise as [re, im] pairs; Python's JSON
writer emits shortest round-trip float literals, so a dump/load cycle is
exact.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from ._domain import choice, integer, real
from .channel import _IMAGES, QubitChannel
from .densmat import DensityMatrix
from .errors import SchemaError, UnsupportedParameters
from .experiments import (
    _GRID_RULES,
    SweepConfig,
    _atomic_write,
    _drive_rule,
    _json_text,
)
from .jcdrive import (
    _DRIVE_KINDS,
    DriveDistribution,
    binomial_drive,
    custom_drive,
    fock_drive,
    poisson_drive,
)

SCHEMA_VERSION = 1

# a sweep document holds SweepConfig's fields, with the drive kind inside "drive"
_SWEEP_KEYS = {f.name for f in fields(SweepConfig)} - {"drive_kind"} | {"schema", "drive"}
# N and coeffs describe one standalone drive, which no sweep reads
_SWEEP_DRIVE_KEYS = {"kind", "nbar", "fano"}
_DRIVE_KEYS = _SWEEP_DRIVE_KEYS | {"N", "coeffs"}
_STATE_KEYS = {"schema", "type", "matrix"}
_CHANNEL_KEYS = {"schema", "type", "images"}


def _fail(path: str, message: str):
    raise SchemaError(path, message)


def _check_object(data, allowed: set, path: str) -> dict:
    if not isinstance(data, dict):
        _fail(path, f"expected an object, got {type(data).__name__}")
    for key in data:
        if key not in allowed:
            _fail(f"{path}/{key}", "unknown field")
    return data


def _check_schema(data: dict):
    if "schema" not in data:
        _fail("/schema", "missing required field")
    if integer(data["schema"], "/schema", SchemaError, strict=True) != SCHEMA_VERSION:
        _fail("/schema", f"expected {SCHEMA_VERSION}, got {data['schema']!r}")


def _complex(cell, path: str) -> complex:
    if (not isinstance(cell, list)) or len(cell) != 2:
        _fail(path, "expected an [re, im] pair")
    return complex(real(cell[0], f"{path}/0", SchemaError), real(cell[1], f"{path}/1", SchemaError))


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# complex matrices

def encode_matrix(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def decode_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list):
            _fail(f"{path}/{i}", "expected an array of [re, im] entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}/{i}", f"expected {width} entries, got {len(row)}")
        rows.append([_complex(cell, f"{path}/{i}/{j}") for j, cell in enumerate(row)])
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# sweep configs

def sweep_config_from_dict(data: dict, expected_mode: str | None = None) -> SweepConfig:
    """Read a sweep document; SweepConfig checks every value it carries.

    The loader handles only what is particular to JSON: the schema version,
    unknown keys, the subcommand's mode and the drive object with its
    one-point nbar/fano shorthands. Every other field is passed through as
    it is.
    """
    _check_object(data, _SWEEP_KEYS, "")
    _check_schema(data)

    mode = data.get("mode", expected_mode)
    if mode is None:
        _fail("/mode", "missing required field")
    if expected_mode is not None and mode != expected_mode:
        _fail("/mode", f"config says {mode!r} but the subcommand is {expected_mode!r}")

    if "drive" not in data:
        _fail("/drive", "missing required field")
    drive = _check_object(data["drive"], _SWEEP_DRIVE_KEYS, "/drive")
    if "kind" not in drive:
        _fail("/drive/kind", "missing required field")

    kwargs = {key: value for key, value in data.items() if key not in ("schema", "drive")}
    kwargs.update(mode=mode, drive_kind=drive["kind"])
    for key in ("nbar", "fano"):
        if key in drive:
            kwargs.setdefault(f"{key}_grid", (drive[key],))
    return SweepConfig(**kwargs)


def load_sweep_config(path: str, expected_mode: str | None = None) -> SweepConfig:
    return sweep_config_from_dict(_load_json(path), expected_mode=expected_mode)


# ---------------------------------------------------------------------------
# drives

def drive_from_spec(spec: dict) -> DriveDistribution:
    path = "/drive"
    spec = _check_object(spec, _DRIVE_KEYS, path)
    if "kind" not in spec:
        _fail(f"{path}/kind", "missing required field")
    kind = choice(spec["kind"], _DRIVE_KINDS, f"{path}/kind", SchemaError)
    if kind == "poisson":
        if "nbar" not in spec:
            _fail(f"{path}/nbar", "missing: poisson drives need a mean")
        if "fano" in spec:
            _fail(f"{path}/fano", "poisson drives have no Fano factor")
        nbar = _GRID_RULES["nbar_grid"](spec["nbar"], f"{path}/nbar")
        _drive_rule(kind, nbar, None, (), f"{path}/nbar")  # a drive has no tau: the vacuum loads
        return poisson_drive(nbar)
    if kind == "binomial":
        for key in ("nbar", "fano"):
            if key not in spec:
                _fail(f"{path}/{key}", "missing: binomial drives need nbar and fano")
        nbar = _GRID_RULES["nbar_grid"](spec["nbar"], f"{path}/nbar")
        fano = _GRID_RULES["fano_grid"](spec["fano"], f"{path}/fano")
        _drive_rule(kind, nbar, fano, (), f"{path}/fano")
        try:
            return binomial_drive(nbar, fano * nbar)
        except UnsupportedParameters as exc:  # rules that need the weights: the clipped mass
            raise SchemaError(f"{path}/fano", f"no binomial drive at nbar={nbar}: {exc}") from None
    if kind == "fock":
        if "N" not in spec:
            _fail(f"{path}/N", "missing: fock drives need a photon number")
        return fock_drive(integer(spec["N"], f"{path}/N", SchemaError, strict=True))
    if "coeffs" not in spec:
        _fail(f"{path}/coeffs", "missing: custom drives need coefficients")
    raw = spec["coeffs"]
    if not isinstance(raw, list) or not raw:
        _fail(f"{path}/coeffs", "expected a non-empty array of [re, im] pairs")
    return custom_drive(np.array([_complex(cell, f"{path}/coeffs/{i}")
                                  for i, cell in enumerate(raw)]))


# ---------------------------------------------------------------------------
# states and channels

def state_to_dict(rho: DensityMatrix) -> dict:
    return {"schema": SCHEMA_VERSION, "type": "state",
            "matrix": encode_matrix(rho.matrix)}


def channel_to_dict(channel: QubitChannel) -> dict:
    return {"schema": SCHEMA_VERSION, "type": "channel",
            "images": {name: encode_matrix(getattr(channel, name))
                       for name in _IMAGES}}


def state_from_dict(data: dict) -> DensityMatrix:
    _check_object(data, _STATE_KEYS, "")
    _check_schema(data)
    if "matrix" not in data:
        _fail("/matrix", "missing required field")
    m = decode_matrix(data["matrix"], "/matrix")
    if m.shape[0] != m.shape[1]:
        _fail("/matrix", f"expected a square matrix, got shape {m.shape}")
    return DensityMatrix(m)


def channel_from_dict(data: dict) -> QubitChannel:
    _check_object(data, _CHANNEL_KEYS, "")
    _check_schema(data)
    if "images" not in data:
        _fail("/images", "missing required field")
    images = _check_object(data["images"], set(_IMAGES), "/images")
    decoded = {}
    for name in _IMAGES:
        if name not in images:
            _fail(f"/images/{name}", "missing required field")
        m = decode_matrix(images[name], f"/images/{name}")
        if m.shape != (2, 2):
            _fail(f"/images/{name}", f"expected a 2x2 matrix, got shape {m.shape}")
        decoded[name] = m
    return QubitChannel(decoded["E00"], decoded["E01"], decoded["E10"], decoded["E11"])


def object_from_dict(data: dict):
    if not isinstance(data, dict):
        _fail("/", f"expected an object, got {type(data).__name__}")
    if choice(data.get("type"), ("state", "channel"), "/type", SchemaError) == "state":
        return state_from_dict(data)
    return channel_from_dict(data)


def load_object(path: str):
    """Read a state or channel document; returns DensityMatrix or QubitChannel."""
    return object_from_dict(_load_json(path))


def dump_object(obj, path: str) -> None:
    """Write a state or channel document atomically."""
    if isinstance(obj, DensityMatrix):
        payload = state_to_dict(obj)
    elif isinstance(obj, QubitChannel):
        payload = channel_to_dict(obj)
    else:
        raise SchemaError("/", f"cannot serialize {type(obj).__name__}")
    _atomic_write(path, _json_text(payload))
