"""Argument domains: the five checks of eigenfid._domain, and the contract
that every public callable meets for every scalar, array, string-choice and
sequence parameter.

The contract: each value of a fixed adversarial vocabulary, put in place of
one scalar or array argument of an otherwise valid call, gives a result or an
EigenfidError, within a time limit and with warnings raised as errors; in
place of a number, NaN, a bool, a string or None gives an EigenfidError. In
place of a string choice, anything but a listed string gives an
EigenfidError, and so does anything but a list, tuple, range or 1-D array in
place of a sequence. The callables come from eigenfid.__all__, so a new
public name fails the coverage test until it has valid arguments here.
"""

from __future__ import annotations

import inspect
import math
import numbers
import warnings

import numpy as np
import pytest

import eigenfid
from eigenfid import (
    DensityMatrix,
    EnergyBasis,
    HamiltonianMoments,
    JCConfig,
    PureState,
    QubitChannel,
    RotationTarget,
    SeededSampler,
    SweepConfig,
    TargetGate,
    build_channel_exact,
    choi_matrix,
    f_matrices,
    poisson_drive,
    run,
)
from eigenfid._domain import EXACT, array, choice, integer, real, sequence
from eigenfid.errors import (
    DimensionMismatch,
    EigenfidError,
    InvalidMean,
    SchemaError,
    UnsupportedParameters,
)

# ---------------------------------------------------------------------------
# the real check


class TestReal:
    def test_a_float_is_returned_as_it_is(self):
        x = 2.5
        assert real(x, "x") is x

    @pytest.mark.parametrize("value", [3, np.float64(3.0), np.int32(3), np.float32(3.0)])
    def test_other_reals_become_floats(self, value):
        assert (type(real(value, "x")), real(value, "x")) == (float, 3.0)

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, 1j, [1.0]])
    def test_a_value_that_is_not_a_real_number_fails(self, value):
        with pytest.raises(UnsupportedParameters, match=r"^x must be a real number, got "):
            real(value, "x")

    @pytest.mark.parametrize("finite", [True, False])
    def test_nan_fails_every_domain(self, finite):
        for value in (math.nan, np.float64("nan")):
            with pytest.raises(UnsupportedParameters):
                real(value, "x", finite=finite)

    def test_infinities_need_finite_off_and_an_open_bound(self):
        assert real(math.inf, "x", finite=False) == math.inf
        assert real(-math.inf, "x", finite=False) == -math.inf
        for kwargs in ({}, {"finite": False, "hi": EXACT}):
            with pytest.raises(UnsupportedParameters):
                real(math.inf, "x", **kwargs)

    def test_an_integer_past_the_float_range_is_an_infinity(self):
        assert real(10 ** 400, "x", finite=False) == math.inf
        assert real(-10 ** 400, "x", finite=False) == -math.inf
        with pytest.raises(UnsupportedParameters, match="too large for a float"):
            real(10 ** 400, "x")

    def test_bounds(self):
        assert real(0, "x", lo=0) == 0.0
        assert real(1.0, "x", lo=0, hi=1) == 1.0
        for value, kwargs in [(0, {"lo": 0, "lo_open": True}), (1.5, {"hi": 1}),
                              (-1e-300, {"lo": 0}), (EXACT * 2.0, {"hi": EXACT})]:
            with pytest.raises(UnsupportedParameters):
                real(value, "x", **kwargs)

    @pytest.mark.parametrize("kwargs,domain", [
        ({}, "finite"),
        ({"finite": False}, "a number"),
        ({"lo": 0, "lo_open": True}, "positive and finite"),
        ({"lo": 0}, "nonnegative and finite"),
        ({"lo": 0, "lo_open": True, "finite": False}, "positive"),
        ({"lo": 0, "hi": EXACT, "lo_open": True}, "in (0, 2**53]"),
        ({"lo": -EXACT, "hi": EXACT}, "in [-2**53, 2**53]"),
    ])
    def test_the_message_names_the_subject_and_its_domain(self, kwargs, domain):
        with pytest.raises(InvalidMean) as excinfo:
            real(math.nan, "mean photon number", InvalidMean, **kwargs)
        assert str(excinfo.value) == f"mean photon number must be {domain}, got nan"


# ---------------------------------------------------------------------------
# the integer check


class TestInteger:
    def test_an_int_is_returned_as_it_is(self):
        n = 12345
        assert integer(n, "n") is n

    @pytest.mark.parametrize("value", [np.int64(7), np.uint8(7), 7.0, np.float64(7.0)])
    def test_integral_values_become_ints(self, value):
        assert (type(integer(value, "n")), integer(value, "n")) == (int, 7)

    @pytest.mark.parametrize("value", [7.0, np.float64(7.0), True, 2.5])
    def test_strict_takes_integer_types_only(self, value):
        assert integer(np.int16(7), "n", strict=True) == 7
        with pytest.raises(UnsupportedParameters, match="^n must be an integer, got "):
            integer(value, "n", strict=True)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "3", None, 3j])
    def test_a_value_that_is_not_a_number_fails(self, value):
        with pytest.raises(UnsupportedParameters, match="^n must be a number, got "):
            integer(value, "n")

    @pytest.mark.parametrize("value", [2.5, 2.0000000001, math.nan, math.inf, -math.inf])
    def test_a_fraction_or_non_finite_value_fails(self, value):
        with pytest.raises(UnsupportedParameters, match="^n must be an integer, got "):
            integer(value, "n")

    def test_slack_rounds_to_the_nearest_integer(self):
        assert integer(4 * (0.7 * 45), "width", slack=1e-9) == 126
        with pytest.raises(UnsupportedParameters):
            integer(4 * (0.7 * 45), "width")

    def test_the_default_range_is_zero_to_two_to_the_53(self):
        assert integer(EXACT, "n") == EXACT
        assert integer(float(EXACT), "n") == EXACT
        for value in (EXACT + 1, -1, 1e308, 2 ** 70):
            with pytest.raises(UnsupportedParameters, match=r"must be in \[0, 2\*\*53\]"):
                integer(value, "n")

    def test_wider_ranges(self):
        assert integer(2 ** 64 - 1, "seed", lo=0, hi=2 ** 64 - 1) == 2 ** 64 - 1
        assert integer(-5, "shift", lo=-EXACT) == -5
        assert integer(10 ** 400, "k", lo=-math.inf, hi=math.inf) == 10 ** 400

    def test_a_huge_integer_is_named_not_printed(self):
        # str() of an int past 4300 digits raises; the message must not
        for value in (10 ** 400, 10 ** 5000):
            with pytest.raises(UnsupportedParameters) as excinfo:
                integer(value, "n")
            assert str(excinfo.value) == (
                "n must be in [0, 2**53], got an integer too large for a float")

    def test_a_schema_error_gets_the_pointer_as_its_path(self):
        with pytest.raises(SchemaError) as excinfo:
            integer(2.5, "/concat_grid/1", SchemaError, 1)
        assert excinfo.value.path == "/concat_grid/1"
        assert str(excinfo.value) == "/concat_grid/1: must be an integer, got 2.5"
        with pytest.raises(SchemaError) as excinfo:
            real("x", "/nbar_grid/0", SchemaError)
        assert excinfo.value.path == "/nbar_grid/0"


# ---------------------------------------------------------------------------
# the array check


class TestArray:
    def test_an_array_of_the_dtype_is_returned_as_it_is(self):
        for a, dtype in [(np.eye(2, dtype=complex), complex), (np.eye(2), float),
                         (np.eye(2), None), (np.eye(2, dtype=complex), None)]:
            assert array(a, "x", dtype=dtype, shape=(2, 2)) is a

    @pytest.mark.parametrize("value,dtype,expected", [
        ([1, 2], complex, np.complex128), (np.float32([1, 2]), float, np.float64),
        (np.int8([1, 2]), None, np.float64), (np.complex64([1, 2]), None, np.complex128),
        (np.uint64([1, 2]), None, np.float64),
    ])
    def test_other_numbers_are_converted(self, value, dtype, expected):
        a = array(value, "x", dtype=dtype, shape=(None,))
        assert (a.dtype, a.tolist()) == (expected, [1, 2])

    @pytest.mark.parametrize("value,got", [
        ("ab", "dtype <U2"), (["a", "b"], "dtype <U1"), ([[1, 0], [0]], "a ragged sequence"),
        (None, "dtype object"), ({}, "dtype object"), (np.array([1.0], dtype=object),
                                                       "dtype object"),
        ([True, False], "dtype bool"), (np.array([b"1"]), "dtype |S1"),
    ])
    def test_a_value_that_is_not_an_array_of_numbers_fails(self, value, got):
        with pytest.raises(InvalidMean) as excinfo:
            array(value, "x", InvalidMean, shape=(None,))
        assert str(excinfo.value) == f"x must be an array of numbers, got {got}"

    def test_complex_entries_fail_where_reals_are_expected(self):
        with pytest.raises(InvalidMean, match=r"^x must be an array of real numbers, got "
                                              r"dtype complex128$"):
            array([0.0, 1j], "x", InvalidMean, dtype=float, shape=(None,))

    @pytest.mark.parametrize("value,shape,domain", [
        (np.array(1.0), (None,), "a nonempty vector"),
        ([], (None,), "a nonempty vector"),
        (np.eye(2), (None,), "a nonempty vector"),
        (np.zeros((0, 0)), (None, None), "a nonempty square matrix"),
        (np.ones((2, 3)), (None, None), "a nonempty square matrix"),
        (np.ones((2, 2, 2)), (None, None), "a nonempty square matrix"),
        (np.ones(4), (2, 2), "of shape (2, 2)"),
        (np.ones(3), (2,), "of shape (2,)"),
    ])
    def test_a_wrong_or_empty_shape_is_a_dimension_mismatch(self, value, shape, domain):
        with pytest.raises(DimensionMismatch) as excinfo:
            array(value, "x", InvalidMean, shape=shape)
        assert str(excinfo.value) == f"x must be {domain}, got shape {np.shape(value)}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_entries_are_finite_unless_finite_is_false(self, bad):
        with pytest.raises(InvalidMean, match="^x must be finite, got a non-finite entry$"):
            array([1.0, bad], "x", InvalidMean, shape=(2,))
        a = array([1.0, bad], "x", dtype=float, shape=(2,), finite=False)
        assert a.tobytes() == np.array([1.0, bad]).tobytes()

    def test_a_schema_error_gets_the_subject_as_its_path(self):
        with pytest.raises(SchemaError) as excinfo:
            array("ab", "/matrix", SchemaError, shape=(None,))
        assert excinfo.value.path == "/matrix"


# ---------------------------------------------------------------------------
# the choice check


class TestChoice:
    def test_a_listed_string_is_returned_as_it_is(self):
        kind = "binomial"
        assert choice(kind, ("poisson", "binomial"), "kind") is kind

    @pytest.mark.parametrize("value,shown", [
        ("Poisson", "'Poisson'"), ("", "''"), (None, "None"), (1, "1"), (True, "True"),
        (b"poisson", "b'poisson'"), (["poisson"], "['poisson']"),
        (np.array(["poisson"]), "array(['poisson'], dtype='<U7')"),
        (np.array(["poisson", "x"]), "array(['poisson', 'x'], dtype='<U7')"),
    ])
    def test_anything_else_fails_and_no_array_reaches_eq(self, value, shown):
        with pytest.raises(InvalidMean) as excinfo:
            choice(value, ("poisson", "binomial"), "kind", InvalidMean)
        assert str(excinfo.value) == f"kind must be one of ('poisson', 'binomial'), got {shown}"

    def test_a_schema_error_gets_the_pointer_as_its_path(self):
        with pytest.raises(SchemaError) as excinfo:
            choice("walk", ("scaling",), "/mode", SchemaError)
        assert excinfo.value.path == "/mode"
        assert str(excinfo.value) == "/mode: must be one of ('scaling',), got 'walk'"


# ---------------------------------------------------------------------------
# the sequence check


class TestSequence:
    @pytest.mark.parametrize("value,entries", [
        ((1.0, "a"), (1.0, "a")), ([3, 1, 2], (3, 1, 2)), (range(3), (0, 1, 2)),
        (np.array([2.0, 1.0]), (2.0, 1.0)), ([], ()), (np.empty(0), ()),
        ([[1.0]], ([1.0],)),
    ])
    def test_entries_come_back_in_order(self, value, entries):
        got = sequence(value, "grid")
        assert (type(got), got) == (tuple, entries)

    def test_a_tuple_is_returned_as_it_is(self):
        grid = (1.0, 2.0)
        assert sequence(grid, "grid") is grid

    @pytest.mark.parametrize("value,got", [
        ("12", "str"), (b"12", "bytes"), ({1.0: "a"}, "dict"), ({1.0}, "set"),
        (frozenset({1.0}), "frozenset"), ((x for x in [1.0]), "generator"),
        (iter([1.0]), "list_iterator"), (1.0, "float"), (np.float64(1.0), "float64"),
        (None, "NoneType"), (np.array(1.0), "shape ()"), (np.ones((2, 2)), "shape (2, 2)"),
    ])
    def test_anything_else_fails(self, value, got):
        with pytest.raises(InvalidMean) as excinfo:
            sequence(value, "grid", InvalidMean)
        assert str(excinfo.value) == f"grid must be a list, tuple, range or 1-D array, got {got}"

    def test_a_schema_error_gets_the_pointer_as_its_path(self):
        with pytest.raises(SchemaError) as excinfo:
            sequence({1.0}, "/nbar_grid", SchemaError)
        assert excinfo.value.path == "/nbar_grid"


# ---------------------------------------------------------------------------
# the public surface

def test_all_holds_no_module():
    modules = [name for name in eigenfid.__all__ if inspect.ismodule(getattr(eigenfid, name))]
    assert modules == []


def test_a_star_import_binds_no_module():
    namespace: dict = {}
    exec("from eigenfid import *", namespace)
    assert not [name for name, value in namespace.items() if inspect.ismodule(value)]


# one value of each kind that has escaped a check: NaN, infinities, a float
# and integers past 2**53 and past the float range, zero, a negative, a
# fraction, a bool, a string, None and a numpy NaN
VOCABULARY = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1e308": 1e308,
    "10**400": 10 ** 400, "2**70": 2 ** 70, "-1": -1, "0": 0, "2.5": 2.5, "True": True,
    "'1'": "1", "None": None, "np.float64(nan)": np.float64("nan"),
}


def _call(*args, **kwargs) -> tuple:
    return args, kwargs


def _channel() -> QubitChannel:
    return build_channel_exact(poisson_drive(9.0), JCConfig(tau=1.0))


def _state() -> DensityMatrix:
    return DensityMatrix.diagonal([0.75, 0.25])


def _config(mode: str = "scaling", **grids) -> SweepConfig:
    return SweepConfig(mode=mode, nbar_grid=(16.0,), tau_grid=(1.0,), **grids)


def _two_level() -> EnergyBasis:
    return EnergyBasis.computational([0.0, 1.0])


_ERROR_NAMES = [name for name in eigenfid.__all__
                if isinstance(getattr(eigenfid, name), type)
                and issubclass(getattr(eigenfid, name), EigenfidError)]

# every public callable -> its valid arguments (a fresh call builds them);
# valid means stay small, so every drive is quick
VALID = {
    **{name: lambda: _call("message") for name in _ERROR_NAMES},
    "SchemaError": lambda: _call("/nbar_grid/0", "message"),
    # channel
    "ChoiMatrix": lambda: _call(choi_matrix(QubitChannel.identity(), TargetGate.x()).entries),
    "QubitChannel": lambda: _call(*QubitChannel.identity().images(), cp_slack=1e-8),
    "TargetGate": lambda: _call(np.eye(2)),
    "a_matrix": lambda: _call(),
    "apply": lambda: _call(_channel(), _state()),
    "average_gate_fidelity": lambda: _call(_channel(), TargetGate.x()),
    "average_purity": lambda: _call(_channel()),
    "channel_eigenerror_bounds": lambda: _call(_channel()),
    "channel_eigenfidelity_bounds": lambda: _call(_channel()),
    "choi_matrix": lambda: _call(_channel(), TargetGate.x()),
    "compose": lambda: _call(_channel(), _channel()),
    "concatenate": lambda: _call(_channel(), 3),
    "cp_residual": lambda: _call(_channel()),
    "tp_residual": lambda: _call(_channel()),
    "mc_average_purity": lambda: _call(_channel(), SeededSampler(1, 2), 16),
    "mc_channel_eigenfidelity": lambda: _call(_channel(), SeededSampler(1, 2), 16),
    "mc_gate_fidelity": lambda: _call(_channel(), TargetGate.x(), SeededSampler(1, 2), 16),
    # densmat
    "DensityMatrix": lambda: _call(np.eye(2) / 2),
    "EnergyBasis": lambda: _call(np.array([0.0, 1.0]), np.eye(2)),
    "PureState": lambda: _call(np.array([1.0, 0.0])),
    "closest_pure_state": lambda: _call(_state()),
    "effective_temperature": lambda: _call(_state(), _two_level()),
    "eigendecompose": lambda: _call(_state()),
    "eigenerror": lambda: _call(_state()),
    "eigenfidelity": lambda: _call(_state()),
    "eigenfidelity_bounds": lambda: _call(_state()),
    "fidelity_to_pure": lambda: _call(_state(), PureState(np.array([1.0, 0.0]))),
    "linear_entropy": lambda: _call(_state()),
    "passive_state": lambda: _call(_state(), _two_level()),
    "purity": lambda: _call(_state()),
    "schatten_norm": lambda: _call(_state(), 3.0),
    # experiments (file names are relative: the test runs in a temporary directory)
    "SweepConfig": lambda: _call(mode="scaling", nbar_grid=(16.0,), tau_grid=(1.0,)),
    "SweepResult": lambda: (lambda r: _call(r.columns, r.rows, r.config))(
        run(_config())),
    "run": lambda: _call(_config()),
    "run_scaling": lambda: _call(_config()),
    "run_concat": lambda: _call(_config("concat", concat_grid=(2,))),
    "run_split": lambda: _call(_config("split", concat_grid=(2,))),
    "write_csv": lambda: _call(run(_config()), "out.csv"),
    "write_sidecar": lambda: _call(run(_config()), "out.json"),
    # haar
    "SeededSampler": lambda: _call(1, 2),
    "mc_average": lambda: _call(lambda state: 1.0, SeededSampler(1, 2), 4),
    "random_density_matrix": lambda: _call(np.random.default_rng(1), 2),
    "sample_pure": lambda: _call(SeededSampler(1, 2)),
    # jcdrive
    "DriveDistribution": lambda: _call("custom", [0.5 ** 0.5] * 2, 1),
    "FMatrixSet": lambda: (lambda f: _call(f.F00, f.F01, f.F10, f.F11))(
        f_matrices(4, 0.3, 4.0, poisson_drive(4.0))),
    "JCConfig": lambda: _call(tau=1.0),
    "asymptotic_eigenerror_lower_bound": lambda: _call("binomial", 25.0, 5.0, 1.0),
    "binomial_drive": lambda: _call(25.0, 5.0, mode="moment_matched"),
    "build_channel_exact": lambda: _call(poisson_drive(9.0), JCConfig(tau=1.0)),
    "build_channel_taylor2": lambda: _call(100.0, 100.0, "poisson", JCConfig(tau=1.0)),
    "build_channels_exact": lambda: _call(poisson_drive(9.0), (0.5, 1.0)),
    "custom_drive": lambda: _call([1.0, 1.0], n_min=2),
    "f_matrices": lambda: _call(4, 0.3, 4.0, poisson_drive(4.0)),
    "fock_drive": lambda: _call(3),
    "poisson_drive": lambda: _call(25.0, tail_tol=1e-12),
    # qsl
    "HamiltonianMoments": lambda: _call(1.0, 0.5),
    "RotationTarget": lambda: _call(1.0),
    "bipartite_angle_check": lambda: _call(1.0, 0.9),
    "jc_moments": lambda: _call(poisson_drive(9.0), PureState(np.array([1.0, 1.0]) / 2 ** 0.5),
                                measure_from_ground=True),
    "ml_time": lambda: _call(RotationTarget(1.0), HamiltonianMoments(2.0, 1.0)),
    "mt_time": lambda: _call(RotationTarget(1.0), HamiltonianMoments(2.0, 1.0)),
    "phase_aligned_qubit": lambda: _call(poisson_drive(9.0)),
    "qsl_eigenerror_bound": lambda: _call(1.0, 25.0),
    "required_mean_photons": lambda: _call(1.0, 1e-3),
    "small_angle_eigenerror_bound": lambda: _call(0.1, 25.0),
}

# public methods with scalar or array parameters -> (method of a fresh owner, valid arguments);
# a function whose branches check different parameters adds a call for each further branch
METHODS = {
    "asymptotic_eigenerror_lower_bound(poisson)": lambda: (
        eigenfid.asymptotic_eigenerror_lower_bound, _call("poisson", 25.0, 25.0, 1.0)),
    "DensityMatrix.diagonal": lambda: (DensityMatrix.diagonal, _call([0.75, 0.25])),
    "EnergyBasis.computational": lambda: (EnergyBasis.computational, _call([0.0, 1.0])),
    "PureState.from_vector": lambda: (PureState.from_vector, _call([3.0, 4.0j])),
    "QubitChannel.from_unitary": lambda: (QubitChannel.from_unitary,
                                          _call(np.array([[0.0, 1.0], [1.0, 0.0]]))),
    "DensityMatrix.maximally_mixed": lambda: (DensityMatrix.maximally_mixed, _call(2)),
    "JCConfig.interaction_time": lambda: (JCConfig(tau=1.0).interaction_time, _call(25.0)),
    "QubitChannel.from_images": lambda: (
        QubitChannel.from_images, _call(np.diag([1.0, 0.0]), np.zeros((2, 2)),
                                        np.diag([0.0, 1.0]), cp_slack=1e-8)),
    "SeededSampler.child": lambda: (SeededSampler(1, 2).child, _call(3)),
    "SeededSampler.sample_amplitudes": lambda: (SeededSampler(1, 2).sample_amplitudes,
                                                _call(4)),
    "SeededSampler.bloch_blocks": lambda: (SeededSampler(1, 2).bloch_blocks, _call(4)),
    "SweepResult.column": lambda: (run(_config()).column, _call("tau")),
}


def _public_callables() -> list:
    return [name for name in eigenfid.__all__ if callable(getattr(eigenfid, name))]


def _valid_call(name: str) -> tuple:
    """(callable, inspect.BoundArguments) of a fresh valid call."""
    if name in METHODS:
        function, (args, kwargs) = METHODS[name]()
    else:
        function, (args, kwargs) = getattr(eigenfid, name), VALID[name]()
    try:
        signature = inspect.signature(function)
    except ValueError:  # an exception class: it takes any *args
        return function, None, (args, kwargs)
    return function, signature.bind(*args, **kwargs), (args, kwargs)


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (numbers.Number, str))


def _parameters(name: str, kind) -> list:
    """Parameters of the call whose valid value, given or default, is of the kind."""
    function, bound, _ = _valid_call(name)
    if bound is None:
        return []
    return [p.name for p in inspect.signature(function).parameters.values()
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            and kind(bound.arguments.get(p.name, p.default))]


def _scalar_parameters(name: str) -> list:
    return _parameters(name, _is_scalar)


def _array_parameters(name: str) -> list:
    return _parameters(name, lambda value: isinstance(value, (np.ndarray, list, tuple)))


def _outcome(function, args, kwargs, time_limit) -> str:
    """"result", "typed" for an EigenfidError, or what else the call raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            with time_limit(2):
                result = function(*args, **kwargs)
                if inspect.isgenerator(result):
                    for _ in result:
                        pass
        except EigenfidError:
            return "typed"
        except Exception as exc:  # a warning raised as an error counts too
            return f"{type(exc).__name__}: {str(exc)[:200]}"
    return "result"


def test_every_public_callable_has_valid_arguments():
    assert set(_public_callables()) == set(VALID)


def _escapes(name: str, parameters: list, vocabulary: dict, time_limit,
             allowed: tuple = ("result", "typed")) -> list:
    """Each (parameter, value) put in place of the valid argument whose
    outcome is not allowed: by default, that neither gives a result nor
    raises an EigenfidError; a value is built from the valid argument it
    replaces."""
    escapes = []
    for parameter in parameters:
        for label, make in vocabulary.items():
            function, bound, _ = _valid_call(name)
            bound.apply_defaults()
            bound.arguments[parameter] = make(bound.arguments[parameter])
            outcome = _outcome(function, bound.args, bound.kwargs, time_limit)
            if outcome not in allowed:
                escapes.append(f"{parameter}={label}: {outcome}")
    return escapes


@pytest.mark.parametrize("name", [*VALID, *METHODS])
def test_scalar_arguments_give_a_result_or_a_typed_error(name, time_limit, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    function, _, (args, kwargs) = _valid_call(name)
    assert _outcome(function, args, kwargs, time_limit) == "result"
    vocabulary = {label: lambda valid, value=value: value for label, value in VOCABULARY.items()}
    escapes = _escapes(name, _scalar_parameters(name), vocabulary, time_limit)
    assert not escapes, "\n".join(escapes)


# values that no number parameter takes: NaN is in no domain, and a bool, a
# string or None is not a number
NOT_NUMBERS = {"nan": math.nan, "np.float64(nan)": np.float64("nan"), "True": True,
               "'1'": "1", "None": None}


def _number_parameters(name: str) -> list:
    return _parameters(name, lambda value: isinstance(value, numbers.Real)
                       and not isinstance(value, bool))


@pytest.mark.parametrize("name", [name for name in [*VALID, *METHODS] if _number_parameters(name)])
def test_number_parameters_reject_what_is_not_a_number(name, time_limit, tmp_path,
                                                       monkeypatch):
    # a branch that never reads a parameter must still check it
    monkeypatch.chdir(tmp_path)
    vocabulary = {label: lambda valid, value=value: value for label, value in NOT_NUMBERS.items()}
    escapes = _escapes(name, _number_parameters(name), vocabulary, time_limit, ("typed",))
    assert not escapes, "\n".join(escapes)


# one array value of each kind that has escaped a check, built from the valid
# argument it replaces: strings, ragged nesting, None, objects, bools, a 0-d,
# an empty, a 0x0 and a 3-d array, entries that are all NaN, all infinite or
# complex, and a dict. The entries keep the valid shape where the check under
# test comes after the shape check.
ARRAY_VOCABULARY = {
    "'ab'": lambda valid: "ab",
    "['a', 'b']": lambda valid: ["a", "b"],
    "[[1, 0], [0]]": lambda valid: [[1, 0], [0]],
    "None": lambda valid: None,
    "object array": lambda valid: np.array(valid, dtype=object),
    "bool array": lambda valid: np.ones(np.shape(valid), dtype=bool),
    "0-d array": lambda valid: np.array(1.0),
    "[]": lambda valid: [],
    "np.zeros((0, 0))": lambda valid: np.zeros((0, 0)),
    "3-d array": lambda valid: np.ones((2, 2, 2)),
    "all-NaN": lambda valid: np.full(np.shape(valid), math.nan),
    "all-inf": lambda valid: np.full(np.shape(valid), math.inf),
    "complex": lambda valid: np.full(np.shape(valid), 0.5 + 0.5j),
    "{}": lambda valid: {},
}


@pytest.mark.parametrize("name", [name for name in [*VALID, *METHODS] if _array_parameters(name)])
def test_array_arguments_give_a_result_or_a_typed_error(name, time_limit, tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    escapes = _escapes(name, _array_parameters(name), ARRAY_VOCABULARY, time_limit)
    assert not escapes, "\n".join(escapes)


def test_the_contract_sees_the_scalar_parameters():
    # a table entry whose scalars went unseen would test nothing
    assert _scalar_parameters("poisson_drive") == ["nbar", "tail_tol"]
    assert _scalar_parameters("SweepConfig") == [
        "mode", "drive_kind", "seed", "output", "mc_samples", "jobs", "split_convention",
        "binomial_mode"]
    assert _scalar_parameters("concatenate") == ["count"]
    assert _scalar_parameters("jc_moments") == ["measure_from_ground"]
    assert _scalar_parameters("asymptotic_eigenerror_lower_bound(poisson)") == [
        "kind", "nbar", "variance", "tau"]
    assert _scalar_parameters("InvalidMean") == []


@pytest.mark.parametrize("build", [PureState, PureState.from_vector, DensityMatrix.diagonal,
                                   eigenfid.custom_drive])
def test_a_bool_array_is_not_an_array_of_numbers(build):
    with pytest.raises(EigenfidError, match="numbers, got dtype bool$"):
        build(np.array([True, False]))


def test_the_contract_sees_the_array_parameters():
    assert _array_parameters("QubitChannel") == ["E00", "E01", "E10", "E11"]
    assert _array_parameters("QubitChannel.from_images") == ["e00", "e01", "e11"]
    assert _array_parameters("EnergyBasis") == ["levels", "basis"]
    assert _array_parameters("custom_drive") == ["coefficients"]
    assert _array_parameters("DensityMatrix.diagonal") == ["populations"]
    assert _array_parameters("poisson_drive") == []


# string-choice parameters are the string-valued ones, less these free-text ones
FREE_TEXT = {"SchemaError": ["path", "message"], "write_csv": ["path"],
             "write_sidecar": ["path"]}


def _choice_parameters(name: str) -> list:
    return [p for p in _parameters(name, lambda value: isinstance(value, str))
            if p not in FREE_TEXT.get(name, ())]


def _sequence_parameters(name: str) -> list:
    return _parameters(name, lambda value: isinstance(value, (list, tuple, range))
                       or (isinstance(value, np.ndarray) and value.ndim == 1))


# values that no string choice takes, built from the valid choice: the same
# word in other case, the empty string, None, a number, a bool, bytes, and
# the valid word inside a list or a one- or two-element array
CHOICE_VOCABULARY = {
    "other case": lambda valid: valid.upper(),
    "''": lambda valid: "",
    "None": lambda valid: None,
    "1": lambda valid: 1,
    "True": lambda valid: True,
    "bytes": lambda valid: valid.encode(),
    "[valid]": lambda valid: [valid],
    "np.array([valid])": lambda valid: np.array([valid]),
    "np.array([valid, valid])": lambda valid: np.array([valid, valid]),
}


@pytest.mark.parametrize("name", [name for name in [*VALID, *METHODS] if _choice_parameters(name)])
def test_choice_arguments_take_only_a_listed_string(name, time_limit, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    escapes = _escapes(name, _choice_parameters(name), CHOICE_VOCABULARY, time_limit,
                       ("typed",))
    assert not escapes, "\n".join(escapes)


# values that are no sequence, built from the valid one: its entries as a
# set, as dict keys or from a generator, a string and a 2-D array
SEQUENCE_VOCABULARY = {
    "set": lambda valid: set(valid),
    "dict": lambda valid: dict.fromkeys(valid),
    "generator": lambda valid: (entry for entry in valid),
    "'12'": lambda valid: "12",
    "2-D array": lambda valid: np.ones((2, 2)),
}


@pytest.mark.parametrize("name", [name for name in [*VALID, *METHODS]
                                  if _sequence_parameters(name)])
def test_sequence_arguments_take_only_an_ordered_sequence(name, time_limit, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    escapes = _escapes(name, _sequence_parameters(name), SEQUENCE_VOCABULARY, time_limit,
                       ("typed",))
    assert not escapes, "\n".join(escapes)


def test_the_contract_sees_the_choice_and_sequence_parameters():
    assert _choice_parameters("binomial_drive") == ["mode"]
    for name in ("build_channel_taylor2", "asymptotic_eigenerror_lower_bound",
                 "asymptotic_eigenerror_lower_bound(poisson)", "DriveDistribution"):
        assert _choice_parameters(name) == ["kind"]
    assert _choice_parameters("SweepConfig") == [
        "mode", "drive_kind", "split_convention", "binomial_mode"]
    assert _choice_parameters("SweepResult.column") == ["name"]
    assert _choice_parameters("write_csv") == []
    assert _sequence_parameters("SweepConfig") == [
        "nbar_grid", "fano_grid", "tau_grid", "concat_grid"]
    assert _sequence_parameters("build_channels_exact") == ["taus"]
    assert _sequence_parameters("SweepResult") == ["columns", "rows"]


def test_a_count_past_two_to_the_53_is_named_as_the_count():
    with pytest.raises(DimensionMismatch, match=r"^count must be in \[1, 2\*\*53\], got 2361"):
        eigenfid.concatenate(_channel(), 2 ** 71)

