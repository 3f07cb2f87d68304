from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

import oracles
from eigenfid import QubitChannel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def random_channel(rng: np.random.Generator) -> QubitChannel:
    """Random CPTP qubit channel built from an independent Stinespring oracle."""
    e00, e01, e10, e11 = oracles.random_cptp_images(rng)
    return QubitChannel(e00, e01, e10, e11)


@pytest.fixture
def time_limit():
    """time_limit(seconds) is a context manager that fails the test with
    TimeoutError once its block has run for that long (SIGALRM), so a loop
    that never ends fails in seconds instead of stalling the suite."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after the {seconds} s time limit")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
