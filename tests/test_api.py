"""The public surface of the package: any change to it is deliberate."""

import types

import belldyn

PUBLIC_NAMES = {
    # correlations
    "CorrelationReport", "bell_quantifiers", "c_vector_of_spectrum", "closest_classical_bd",
    "closest_product", "closest_separable_bd", "closest_separable_spectrum",
    "correlation_c_vector", "quantifier_report",
    # dynamics
    "BELL_RESIDUAL_TOL", "BELL_VECTORS", "ancilla_evolve", "bell_spectrum_of",
    "bell_spectrum_to_density", "branch_unitary", "evolve_bell_spectrum", "mixing_fraction",
    "single_qubit_map", "two_qubit_map", "validate_spectrum",
    # linalg
    "dephase_in_basis", "partial_trace", "relative_entropy", "tensor", "trace_distance",
    "von_neumann_entropy",
    # nonmarkov
    "NonMarkovTrace", "ancilla_entanglement", "composition_violation", "detect_death_revival",
    "detect_frozen_intervals", "detect_switching_times", "nonmarkovianity_measure",
    # oracle
    "OracleResult", "oracle_closest_classical", "oracle_closest_product",
    "oracle_closest_separable_bd",
}


def test_public_names_are_pinned():
    # submodules become attributes once imported; they are not exports
    exported = {name for name, value in vars(belldyn).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
