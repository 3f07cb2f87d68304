"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed, built on the
standard library's string-seeded Mersenne twister, so the same seed gives
the same configs and domain points on every machine and Python version.
Grids are stratified: a range is cut into equal slices (in log space for
photon numbers) and each slice gets one jittered value. Every seed then
covers each range evenly, which keeps the work per run, and the share of
points in the regions where the drive constructors fail, nearly the same
from seed to seed.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1
CLI_WORKLOADS = ("scaling", "concat", "mc-parallel")
WORKLOADS = CLI_WORKLOADS + ("domain",)

# domain: a point is one drive -> channel -> bracket evaluation
DOMAIN_POINTS = 120
DOMAIN_FANOS = (0.1, 0.25, 0.5)
# smallest n-bar step for which 4*F*nbar and nbar - 2*F*nbar are integers,
# so every generated binomial point is a valid input
_FANO_STEP = {0.1: 2.5, 0.25: 2.0, 0.5: 0.5}


def _rng(seed: int, *labels: str) -> random.Random:
    return random.Random(":".join((str(seed),) + labels))


def _stratified(rng: random.Random, count: int) -> list[float]:
    """count values in [0, 1), one uniformly placed in each of count slices."""
    return [(k + rng.random()) / count for k in range(count)]


def log_uniform(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    return [lo * (hi / lo) ** u for u in _stratified(rng, count)]


def tau_grid(rng: random.Random, count: int) -> list[float]:
    """count reduced times in (0, pi], one per slice."""
    return [math.pi * (k + 1 - rng.random()) / count for k in range(count)]


def snap(values: list[float], step: float) -> list[float]:
    """Round ascending values to multiples of step, keeping them distinct."""
    out: list[float] = []
    for v in values:
        s = max(step, round(v / step) * step)
        if out and s <= out[-1]:
            s = out[-1] + step
        out.append(s)
    return out


def _config(rng: random.Random, mode: str, kind: str, **grids) -> dict:
    doc = {"schema": 1, "mode": mode, "drive": {"kind": kind},
           "seed": rng.randrange(2 ** 32), "mc_samples": 0, "jobs": 1}
    doc.update(grids)
    return doc


def sweeps(workload: str, seed: int) -> list[dict]:
    """The CLI sweeps of one workload.

    Each entry has a name, the subcommand, the JSON config and the extra
    flags of the invocation. The grids stay in the regime the README and
    the acceptance tests use (n-bar <= 1e3, binomial width 4*F*n-bar <= 800),
    because a sweep aborts on its first bad point.
    """
    if workload == "scaling":
        rp, rb = _rng(seed, workload, "poisson"), _rng(seed, workload, "binomial")
        return [
            _sweep("poisson", _config(
                rp, "scaling", "poisson",
                nbar_grid=log_uniform(rp, 24, 10.0, 1e3), tau_grid=tau_grid(rp, 16))),
            _sweep("binomial", _config(
                rb, "scaling", "binomial", fano_grid=[0.1],
                nbar_grid=snap(log_uniform(rb, 24, 10.0, 1e3), _FANO_STEP[0.1]),
                tau_grid=tau_grid(rb, 16))),
        ]
    if workload == "concat":
        rc, rs = _rng(seed, workload, "concat"), _rng(seed, workload, "split")
        return [
            _sweep("concat", _config(
                rc, "concat", "binomial", nbar_grid=[25.0, 100.0], fano_grid=[0.2],
                concat_grid=[2 ** k for k in range(7)], tau_grid=tau_grid(rc, 8))),
            _sweep("split", _config(
                rs, "split", "poisson", nbar_grid=[64.0, 256.0, 1024.0],
                concat_grid=[2 ** k for k in range(6)], tau_grid=tau_grid(rs, 8))),
        ]
    if workload == "mc-parallel":
        rm = _rng(seed, workload, "mc")
        return [
            _sweep("mc", _config(
                rm, "concat", "poisson", nbar_grid=log_uniform(rm, 8, 10.0, 1e3),
                concat_grid=[1, 4], tau_grid=tau_grid(rm, 8)),
                ["--mc-samples", "20000", "--jobs", "2"]),
        ]
    raise ValueError(f"{workload!r} has no CLI sweeps")


def _sweep(name: str, config: dict, flags: list | None = None) -> dict:
    return {"name": name, "mode": config["mode"], "config": config,
            "flags": list(flags or []), "rows": grid_size(config)}


def grid_size(config: dict) -> int:
    size = len(config["nbar_grid"]) * len(config["tau_grid"])
    size *= len(config.get("fano_grid") or [None])
    return size * len(config.get("concat_grid") or [None])


def domain_points(seed: int, count: int = DOMAIN_POINTS) -> list[list]:
    """(kind, nbar, fano, tau) points with n-bar log-uniform in [10, 1e5].

    Poisson points alternate with binomial points, and the binomial points
    cycle through DOMAIN_FANOS. Each kind (and each Fano factor) gets its
    own stratified n-bar set, shuffled so slow and failing points are spread
    over the pass instead of bunched at its end. Each Fano factor's set ends
    at n-bar = 1e5 itself: the widest drive sets the peak memory of the run,
    and pinning it keeps that the same for every seed.
    """
    rng = _rng(seed, "domain")
    n_poisson = (count + 1) // 2
    per_fano = [len(range(k, count // 2, len(DOMAIN_FANOS)))
                for k in range(len(DOMAIN_FANOS))]
    pools = {"poisson": log_uniform(rng, n_poisson, 10.0, 1e5)}
    for fano, n in zip(DOMAIN_FANOS, per_fano):
        pools[fano] = snap(log_uniform(rng, n - 1, 10.0, 1e5) + [1e5], _FANO_STEP[fano])
    for pool in pools.values():
        rng.shuffle(pool)
    taus = [math.pi * (1.0 - rng.random()) for _ in range(count)]
    points = []
    for i in range(count):
        if i % 2 == 0:
            points.append(["poisson", pools["poisson"].pop(), None, taus[i]])
        else:
            fano = DOMAIN_FANOS[(i // 2) % len(DOMAIN_FANOS)]
            points.append(["binomial", pools[fano].pop(), fano, taus[i]])
    return points
