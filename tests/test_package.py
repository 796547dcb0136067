"""The package's public names are its modules' ``__all__``, stated once."""

import importlib

import timearrow

MODULES = ("_config", "spaces", "hardy", "evolution", "lyapunov",
           "lambda_transform", "ordering", "states", "selftest")

# every name the package exported before it derived __all__ from its modules
EARLIER = {
    "__version__",
    "ConfigError", "DEFAULT_CONFIG", "load_config", "validate_config",
    "GridSpec", "LinOp", "Space", "SpaceMismatchError", "StateVector", "embed",
    "identity_op", "inner", "make_grid", "norm", "restrict", "zero_state",
    "guard_band_leakage", "hardy_embed", "hardy_part", "hardy_project",
    "hardy_project_oracle", "rational_hardy",
    "OffLatticeTimeError", "OffLatticeWarning", "kernel_witness", "lattice_index",
    "toeplitz_step", "unitary_evolve",
    "TrajectoryReport", "apply_omega", "build_m_f", "build_omega", "lyapunov_curve",
    "IrreversibleModel", "build_model", "intertwining_residual", "z_adjoint",
    "z_evolve", "z_matrix",
    "ProjectionFamily", "assemble_T", "correspondence_check", "future_projection",
    "irreversible_matrix_element", "projection_rank", "spectral_measure",
    "CheckResult", "compact_profile_state", "random_guarded_state", "run_all",
    "smooth_oracle_state",
}


def test_all_is_the_modules_all():
    modules = [importlib.import_module(f"timearrow.{name}") for name in MODULES]
    assert timearrow.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(timearrow.__all__)) == len(timearrow.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(timearrow, name) is getattr(module, name), name


# earlier names with no caller in the package, moved into the tests' oracles
MOVED = {"inner", "zero_state", "restrict"}

# earlier names deleted with their behaviour
REMOVED = {"OffLatticeWarning"}


def test_all_keeps_every_earlier_name():
    assert len(EARLIER) == 52
    assert set(timearrow.__all__) - EARLIER == {
        "ProlateOp", "peak_memory_estimate", "CHECKS", "refinement_series"}
    assert EARLIER - MOVED - REMOVED <= set(timearrow.__all__)
    assert not (MOVED | REMOVED) & set(timearrow.__all__)
    assert "cli" not in timearrow.__all__
