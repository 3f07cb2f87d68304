"""Command-line front end.

Exit codes: 0 on success, 2 for configuration problems (bad flags, schema
violations, unreadable files) with a diagnostic naming the offending field,
1 for failures inside a run: numerical errors, or output that cannot be
written. Output files are written atomically,
so a failed run never leaves a partial CSV behind.

Logging verbosity comes from the EIGENFID_LOG environment variable
(error | warn | info | debug; default warn).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import serialize
from ._domain import integer
from ._version import __version__
from .channel import (
    QubitChannel,
    average_purity,
    channel_eigenfidelity_bounds,
    cp_residual,
    tp_residual,
)
from .densmat import (
    DensityMatrix,
    PureState,
    eigenfidelity,
    eigenfidelity_bounds,
    fidelity_to_pure,
    linear_entropy,
    purity,
    schatten_norm,
)
from .errors import EigenfidError, SchemaError
from .experiments import MODES, run, write_csv, write_sidecar
from .haar import _SEED_MAX, random_density_matrix
from .qsl import qsl_eigenerror_bound

logger = logging.getLogger("eigenfid.cli")

_SWEEP_HELP = {
    "scaling": "eigenerror scaling sweep over photon numbers and times",
    "concat": "repeated gate applications with fresh drives",
    "split": "fixed photon budget split across shorter sub-gates",
}

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging() -> None:
    name = os.environ.get("EIGENFID_LOG", "warn").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("eigenfid").setLevel(level)
    if name and name not in _LOG_LEVELS:
        logger.warning("unknown EIGENFID_LOG value %r; using 'warn'", name)


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenfid",
        description="Eigenfidelity bounds and drive-qubit gate experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"eigenfid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in MODES:
        sp = sub.add_parser(name, help=_SWEEP_HELP[name])
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="JSON sweep configuration")
        sp.add_argument("--seed", type=int, metavar="U64",
                        help="override the config seed")
        sp.add_argument("--jobs", type=int, metavar="N",
                        help="parallel workers for Monte Carlo sweeps, at most one per drive "
                             "(default from config, 1)")
        sp.add_argument("--mc-samples", dest="mc_samples", type=int, metavar="N",
                        help="enable Monte Carlo eigenerror columns")
        sp.add_argument("-o", "--output", metavar="PATH",
                        help="CSV destination (overrides config)")

    bc = sub.add_parser("bounds-check",
                        help="run the eigenfidelity bound suites on random states")
    bc.add_argument("--dim", type=int, default=2, metavar="D")
    bc.add_argument("--trials", type=int, default=1000, metavar="N")
    bc.add_argument("--seed", type=int, default=0, metavar="U64")

    q = sub.add_parser("qsl", help="leading-order asymptotic eigenerror law for a rotation")
    q.add_argument("--theta", type=float, required=True, metavar="RAD")
    q.add_argument("--nbar", type=float, required=True, metavar="N")

    ins = sub.add_parser("inspect", help="report diagnostics for a state or channel file")
    ins.add_argument("file", metavar="PATH")
    ins.add_argument("--dump", metavar="PATH",
                     help="re-serialize the parsed object to PATH")
    return parser


# ---------------------------------------------------------------------------
# subcommands

def _run_sweep(args: argparse.Namespace) -> int:
    try:
        config = serialize.load_sweep_config(args.config, expected_mode=args.command)
        flags = {name: getattr(args, name) for name in ("seed", "jobs", "mc_samples", "output")}
        config = replace(config, **{k: v for k, v in flags.items() if v is not None})
        if not config.output:
            raise SchemaError("/output", "no output path: set it in the config or pass -o")
    except (EigenfidError, OSError, ValueError) as exc:
        print(f"eigenfid: config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run(config)
        write_csv(result, config.output)
        sidecar = _sidecar_path(config.output)
        write_sidecar(result, sidecar)
    # a sample count within MAX_SAMPLES can still exceed the machine's memory
    except (EigenfidError, OSError, MemoryError) as exc:
        print(f"eigenfid: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(result.rows)} rows to {config.output} "
          f"(sidecar {sidecar})")
    return 0


def _sidecar_path(output: str) -> str:
    # appended suffix, never a swapped extension: a swapped extension could
    # collide with the config file the sweep was launched from
    return output + ".json"


def _bounds_check(args: argparse.Namespace) -> int:
    try:
        dim = integer(args.dim, "--dim", lo=2)
        trials = integer(args.trials, "--trials", lo=1)
        seed = integer(args.seed, "--seed", hi=_SEED_MAX)
    except EigenfidError as exc:
        print(f"eigenfid: config error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(seed)
    margin = 1e-10
    ok_overlap = ok_norms = ok_purity = True
    for _ in range(trials):
        rho = random_density_matrix(rng, dim)
        r = eigenfidelity(rho)

        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi = PureState(z / np.linalg.norm(z))
        if fidelity_to_pure(rho, phi) > r + margin:
            ok_overlap = False

        for p in (2.0, 3.0, 64.0):
            norm = schatten_norm(rho, p)
            lower = max(norm / dim ** (1.0 / p), norm ** (p / (p - 1.0)))
            if not (lower - margin <= r <= norm + margin):
                ok_norms = False

        lo, hi = eigenfidelity_bounds(rho)
        if not (lo - margin <= r <= hi + margin):
            ok_purity = False
        s_lin = linear_entropy(rho)
        eps = 1.0 - r
        if not (s_lin / 2 - margin <= eps <= s_lin + margin):
            ok_purity = False

    def word(ok: bool) -> str:
        return "OK" if ok else "FAIL"

    print(f"prop1 {word(ok_overlap)} prop2 {word(ok_norms)} thm1 {word(ok_purity)}")
    return 0 if (ok_overlap and ok_norms and ok_purity) else 1


def _qsl(args: argparse.Namespace) -> int:
    try:
        value = qsl_eigenerror_bound(args.theta, args.nbar)
    except EigenfidError as exc:
        print(f"eigenfid: config error: {exc}", file=sys.stderr)
        return 2
    print(_fmt(value))
    return 0


def _state_report(rho: DensityMatrix) -> list[str]:
    r = eigenfidelity(rho)
    lo, hi = eigenfidelity_bounds(rho)
    return [
        "type state",
        f"dim {rho.dim}",
        f"eigenfidelity {_fmt(r)}",
        f"eigenerror {_fmt(1.0 - r)}",
        f"purity {_fmt(purity(rho))}",
        f"linear_entropy {_fmt(linear_entropy(rho))}",
        f"thm1_lower {_fmt(lo)}",
        f"thm1_upper {_fmt(hi)}",
    ]


def _channel_report(channel: QubitChannel) -> list[str]:
    lo, hi = channel_eigenfidelity_bounds(channel)
    return [
        "type channel",
        f"gamma_bar {_fmt(average_purity(channel))}",
        f"cor1_lower {_fmt(lo)}",
        f"cor1_upper {_fmt(hi)}",
        f"tp_residual {_fmt(tp_residual(channel))}",
        f"cp_residual {_fmt(cp_residual(channel))}",
    ]


def _inspect(args: argparse.Namespace) -> int:
    try:
        obj = serialize.load_object(args.file)
    except (EigenfidError, OSError, ValueError) as exc:
        print(f"eigenfid: config error: {exc}", file=sys.stderr)
        return 2
    lines = _state_report(obj) if isinstance(obj, DensityMatrix) else _channel_report(obj)
    for line in lines:
        print(line)
    if args.dump:
        try:
            serialize.dump_object(obj, args.dump)
        except (EigenfidError, OSError) as exc:
            print(f"eigenfid: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        print(f"dumped {args.dump}")
    return 0


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        **dict.fromkeys(MODES, _run_sweep),
        "bounds-check": _bounds_check,
        "qsl": _qsl,
        "inspect": _inspect,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
