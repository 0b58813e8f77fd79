"""Correlation dynamics of two noninteracting qubits driven by local
classical random external fields: closed-form Bell-diagonal evolution,
correlation quantifiers in bits, brute-force certification oracles and
non-Markovianity diagnostics. The matrix primitives stay in
`belldyn.linalg` and the Bell-basis internals in `belldyn.dynamics`. The
matrix route that cross-checks the closed forms, `quantifier_report` with
its `CorrelationReport`, stays in `belldyn.correlations`."""

from .correlations import (
    bell_quantifiers,
    c_vector_of_spectrum,
    closest_classical_bd,
    closest_product,
    closest_separable_spectrum,
)
from .dynamics import (
    BELL_RESIDUAL_TOL,
    ancilla_evolve,
    bell_spectrum_of,
    bell_spectrum_to_density,
    branch_unitary,
    evolve_bell_spectrum,
    mixing_fraction,
    single_qubit_map,
    two_qubit_map,
)
from .nonmarkov import (
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
