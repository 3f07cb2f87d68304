"""Argument domains: real, integer, array, choice and sequence checks.

Every numeric scalar argument of the public surface goes through real or
integer, every array argument through array, every string choice through
choice and every sequence of entries through sequence. Each takes the error
class to raise and the subject its message names; for a SchemaError the
subject is the field's JSON pointer. A bool is never a number here, and NaN
is outside every domain. An array's message names its dtype or shape, never
its entries, and a wrong shape raises DimensionMismatch whatever the
caller's class.
"""

from __future__ import annotations

import math
import numbers
from typing import NoReturn

import numpy as np

from .errors import DimensionMismatch, SchemaError, UnsupportedParameters

# every integer of at most this magnitude is exact as a float; the default
# ceiling of integer arguments, and the ceiling of means, times and angles
EXACT = 2 ** 53
_NAMED = {EXACT: "2**53", -EXACT: "-2**53"}
_SHAPES = {(None,): "a nonempty vector", (None, None): "a nonempty square matrix"}


def real(value, what: str, error: type = UnsupportedParameters, lo: float = -math.inf,
         hi: float = math.inf, *, lo_open: bool = False, finite: bool = True) -> float:
    """value as a float in [lo, hi], or (lo, hi] with lo_open; finite unless finite is False.

    An integer too large for a float is taken as the infinity of its sign,
    so it fails where an infinity does.
    """
    number = value
    # a float is let through first: the numbers.Real check alone takes ~0.7 us
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            _fail(error, what, "a real number", _shown(value))
        try:
            number = float(value)
        except OverflowError:
            number = math.inf if value > 0 else -math.inf
    # written so that NaN fails it
    if (lo < number if lo_open else lo <= number) and number <= hi \
            and (not finite or math.isfinite(number)):
        return number
    if hi == math.inf and lo == 0:
        domain = ("positive" if lo_open else "nonnegative") + (" and finite" if finite else "")
    elif hi == math.inf and lo == -math.inf:
        domain = "finite" if finite else "a number"
    else:
        domain = f"in {'(' if lo_open else '['}{_NAMED.get(lo, lo)}, {_NAMED.get(hi, hi)}]"
    _fail(error, what, domain, _shown(value))


def integer(value, what: str, error: type = UnsupportedParameters, lo: float = 0,
            hi: float = EXACT, *, slack: float = 0.0, strict: bool = False) -> int:
    """value as an int in [lo, hi].

    An integer type (a numpy integer, not a bool) is converted. Unless
    strict, so is a real number within slack of an integer, rounded to it:
    binomial widths and shifts are products of the caller's numbers.
    """
    given = value
    if type(value) is not int:  # an int skips the numbers checks
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            value = int(value)
        elif strict or isinstance(value, bool) or not isinstance(value, numbers.Real):
            _fail(error, what, "an integer" if strict else "a number", _shown(given))
        elif math.isfinite(value) and abs(value - round(value)) <= slack:
            value = int(round(value))
        else:
            _fail(error, what, "an integer", _shown(given))
    if lo <= value <= hi:
        return value
    _fail(error, what, f"in [{_NAMED.get(lo, lo)}, {_NAMED.get(hi, hi)}]", _shown(given))


def array(value, what: str, error: type = UnsupportedParameters, *, dtype=complex,
          shape: tuple, finite: bool = True) -> np.ndarray:
    """value as an array of dtype and shape; finite unless finite is False.

    dtype is complex, float (a complex array fails) or None: a float64 or
    complex128 array is then kept and other numbers become the one of the two
    that holds them. An array already of the returned dtype is not copied.
    shape gives each axis length, or None for a nonzero length every None
    axis shares: (None,) is a nonempty vector and (None, None) a nonempty
    square matrix. Ragged nesting, strings, objects and bools are not arrays
    of numbers.
    """
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        _fail(error, what, "an array of numbers", "a ragged sequence")
    kind = a.dtype.kind
    if kind not in "iufc" or (kind == "c" and dtype is float):
        domain = "an array of real numbers" if dtype is float else "an array of numbers"
        _fail(error, what, domain, f"dtype {a.dtype}")
    a = np.asarray(a, dtype=dtype or (complex if kind == "c" else float))
    free = a.shape[shape.index(None)] if None in shape and a.ndim == len(shape) else None
    if free == 0 or a.shape != tuple(free if n is None else n for n in shape):
        _fail(DimensionMismatch, what, _SHAPES.get(shape, f"of shape {shape}"),
              f"shape {a.shape}")
    if finite and not np.isfinite(a).all():
        _fail(error, what, "finite", "a non-finite entry")
    return a


def choice(value, allowed: tuple, what: str, error: type = UnsupportedParameters) -> str:
    """value, a str in allowed; anything else fails, so an array never reaches ==."""
    if isinstance(value, str) and value in allowed:
        return value
    _fail(error, what, f"one of {allowed}", _shown(value))


def sequence(value, what: str, error: type = UnsupportedParameters) -> tuple:
    """The entries of a list, tuple, range or 1-D ndarray, in order, as a tuple.

    A string, bytes, mapping, set, iterator, scalar or None fails, as does an
    ndarray of another rank: their entries are characters, keys, unordered,
    used up once read, or not there.
    """
    if isinstance(value, (tuple, list, range)) or (isinstance(value, np.ndarray)
                                                   and value.ndim == 1):
        return tuple(value)
    _fail(error, what, "a list, tuple, range or 1-D array",
          f"shape {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__)


def _shown(value) -> str:
    # an integer past the float range is named, not printed: str() of one
    # with more than 4300 digits raises
    return ("an integer too large for a float"
            if isinstance(value, int) and value.bit_length() > 1024 else repr(value))


def _fail(error: type, what: str, domain: str, shown: str) -> NoReturn:
    text = f"must be {domain}, got {shown}"
    if issubclass(error, SchemaError):
        raise error(what, text)
    raise error(f"{what} {text}")
