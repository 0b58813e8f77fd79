"""Correlation dynamics of two noninteracting qubits driven by local
classical random external fields: closed-form Bell-diagonal evolution,
correlation quantifiers in bits, brute-force certification oracles and
non-Markovianity diagnostics."""

from .correlations import (
    CorrelationReport,
    bell_quantifiers,
    c_vector_of_spectrum,
    closest_classical_bd,
    closest_product,
    closest_separable_bd,
    closest_separable_spectrum,
    correlation_c_vector,
    quantifier_report,
)
from .dynamics import (
    BELL_RESIDUAL_TOL,
    BELL_VECTORS,
    ancilla_evolve,
    bell_spectrum_of,
    bell_spectrum_to_density,
    branch_unitary,
    evolve_bell_spectrum,
    mixing_fraction,
    single_qubit_map,
    two_qubit_map,
    validate_spectrum,
)
from .linalg import (
    dephase_in_basis,
    partial_trace,
    relative_entropy,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .nonmarkov import (
    NonMarkovTrace,
    ancilla_entanglement,
    composition_violation,
    detect_death_revival,
    detect_frozen_intervals,
    detect_switching_times,
    nonmarkovianity_measure,
)
from .oracle import (
    OracleResult,
    oracle_closest_classical,
    oracle_closest_product,
    oracle_closest_separable_bd,
)

__version__ = "0.1.0"
