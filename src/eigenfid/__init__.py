"""Fidelity ceilings of mixed states and the gates that produce them.

The eigenfidelity of a state is its largest eigenvalue: the best overlap any
pure target can have with it, no matter which target. This package computes
eigenfidelity and its purity-based bounds for states and qubit channels,
builds the exact channels induced by driving a qubit with a quantized field,
and runs the scaling, concatenation, and budget-splitting experiments that
connect gate error to the energy in the drive.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .channel import (
    ChoiMatrix,
    QubitChannel,
    TargetGate,
    a_matrix,
    apply,
    average_gate_fidelity,
    average_purity,
    channel_eigenerror_bounds,
    channel_eigenfidelity_bounds,
    choi_matrix,
    compose,
    concatenate,
    cp_residual,
    mc_average_purity,
    mc_channel_eigenfidelity,
    mc_gate_fidelity,
    tp_residual,
)
from .densmat import (
    DensityMatrix,
    EnergyBasis,
    PureState,
    closest_pure_state,
    effective_temperature,
    eigendecompose,
    eigenerror,
    eigenfidelity,
    eigenfidelity_bounds,
    fidelity_to_pure,
    linear_entropy,
    passive_state,
    purity,
    schatten_norm,
)
from .errors import (
    ApproximationDomain,
    BudgetTooSmall,
    CPViolation,
    DimensionMismatch,
    EigenfidError,
    InvalidDimension,
    InvalidMean,
    InvalidOrder,
    NonHermitianInput,
    NonpositiveMeanEnergy,
    SchemaError,
    TruncationError,
    UnsupportedParameters,
)
from .experiments import (
    SweepConfig,
    SweepResult,
    run,
    run_concat,
    run_scaling,
    run_split,
    write_csv,
    write_sidecar,
)
from .haar import SeededSampler, mc_average, random_density_matrix, sample_pure
from .jcdrive import (
    DriveDistribution,
    FMatrixSet,
    JCConfig,
    asymptotic_eigenerror_lower_bound,
    binomial_drive,
    build_channel_exact,
    build_channel_taylor2,
    build_channels_exact,
    custom_drive,
    f_matrices,
    fock_drive,
    poisson_drive,
)
from .qsl import (
    HamiltonianMoments,
    RotationTarget,
    bipartite_angle_check,
    jc_moments,
    ml_time,
    mt_time,
    phase_aligned_qubit,
    qsl_eigenerror_bound,
    required_mean_photons,
    small_angle_eigenerror_bound,
)

# the imported public names: importing a submodule binds it here too (channel,
# jcdrive, ...), and a star import must not bind a module over such a name
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
