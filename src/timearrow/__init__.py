"""Discrete model of dynamically emergent time ordering.

Unitary evolution on an energy half-line, its forward quasi-affine map into
the positive Hardy subspace, the Lyapunov operator with monotonically
decaying expectation curves, the square-root transform to an irreversible
contraction-semigroup picture, and the past/future projection family with
its temporal-ordering operator — all on one FFT-backed finite grid with
exact lattice-time shift algebra.
"""

from ._config import DEFAULT_CONFIG, ConfigError, load_config, validate_config
from .evolution import (
    OffLatticeTimeError,
    OffLatticeWarning,
    kernel_witness,
    lattice_index,
    toeplitz_step,
    unitary_evolve,
)
from .hardy import (
    guard_band_leakage,
    hardy_embed,
    hardy_part,
    hardy_project,
    hardy_project_oracle,
    rational_hardy,
)
from .lambda_transform import (
    IrreversibleModel,
    build_model,
    intertwining_residual,
    z_adjoint,
    z_evolve,
    z_matrix,
)
from .lyapunov import (
    TrajectoryReport,
    apply_omega,
    build_m_f,
    build_omega,
    lyapunov_curve,
)
from .ordering import (
    ProjectionFamily,
    assemble_T,
    correspondence_check,
    future_projection,
    irreversible_matrix_element,
    projection_rank,
    spectral_measure,
)
from .selftest import CheckResult, run_all
from .spaces import (
    GridSpec,
    LinOp,
    Space,
    SpaceMismatchError,
    StateVector,
    embed,
    identity_op,
    inner,
    make_grid,
    norm,
    restrict,
    zero_state,
)
from .states import compact_profile_state, random_guarded_state, smooth_oracle_state

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # configuration
    "ConfigError",
    "DEFAULT_CONFIG",
    "load_config",
    "validate_config",
    # grids, spaces, states
    "GridSpec",
    "LinOp",
    "Space",
    "SpaceMismatchError",
    "StateVector",
    "embed",
    "identity_op",
    "inner",
    "make_grid",
    "norm",
    "restrict",
    "zero_state",
    # Hardy subspace machinery
    "guard_band_leakage",
    "hardy_embed",
    "hardy_part",
    "hardy_project",
    "hardy_project_oracle",
    "rational_hardy",
    # evolution and the compressed semigroup
    "OffLatticeTimeError",
    "OffLatticeWarning",
    "kernel_witness",
    "lattice_index",
    "toeplitz_step",
    "unitary_evolve",
    # forward map and Lyapunov operator
    "TrajectoryReport",
    "apply_omega",
    "build_m_f",
    "build_omega",
    "lyapunov_curve",
    # square-root transform and contraction semigroup
    "IrreversibleModel",
    "build_model",
    "intertwining_residual",
    "z_adjoint",
    "z_evolve",
    "z_matrix",
    # ordering operator and projections
    "ProjectionFamily",
    "assemble_T",
    "correspondence_check",
    "future_projection",
    "irreversible_matrix_element",
    "projection_rank",
    "spectral_measure",
    # test-state families and acceptance checks
    "CheckResult",
    "compact_profile_state",
    "random_guarded_state",
    "run_all",
    "smooth_oracle_state",
]
