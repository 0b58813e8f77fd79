import math

import numpy as np
import pytest

from belldyn.correlations import closest_product, quantifier_report
from belldyn.dynamics import bell_spectrum_of
from belldyn.linalg import check_density
from belldyn.oracle import oracle_closest_classical, oracle_closest_product

from matrix_reference import (
    H09,
    dephase_in_basis,
    random_density,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)

BELL_2P = np.zeros((4, 4), dtype=complex)
BELL_2P[np.ix_([0, 3], [0, 3])] = 0.5  # (|00>+|11>)/sqrt(2) projector


def test_check_hermitian_rejects_bad_matrices():
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density(np.array([[0, 1], [0, 0]], dtype=complex))
    for bad in (math.nan, math.inf):
        m = np.eye(4) / 4
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_density(m)
    with pytest.raises(ValueError):
        check_density(np.eye(3))


def test_state_checks_reject_bad_traces_and_eigenvalues():
    with pytest.raises(ValueError, match="^state trace is 2.0, expected 1$"):
        check_density(np.eye(2))
    with pytest.raises(ValueError, match="^state has negative eigenvalue -5.000e-01$"):
        check_density(np.diag([1.5, -0.5]))


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12
    assert abs(von_neumann_entropy(np.diag([0.9, 0.1])) - H09) < 1e-5


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert abs(von_neumann_entropy(q @ rho @ q.conj().T) - von_neumann_entropy(rho)) < 1e-10


def test_relative_entropy_examples():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 4)
    assert relative_entropy(rho, rho) < 1e-12
    assert abs(relative_entropy(rho, np.eye(4) / 4) - (2 - von_neumann_entropy(rho))) < 1e-10
    assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf


def test_relative_entropy_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        val = relative_entropy(rho, sigma)
        assert val >= 0.0
        if trace_distance(rho, sigma) >= 1e-8:
            assert val > 0.0
        assert relative_entropy(rho, rho) < 1e-12


def test_closest_product_returns_product_states_unchanged():
    # the product of the two marginals inverts the tensor product
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        assert np.max(np.abs(closest_product(rho) - rho)) < 1e-12


def test_dephase_examples():
    comp = (0.0, 0.0, 0.0, 0.0)
    diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.allclose(dephase_in_basis(diag, comp), diag)

    expect = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert np.allclose(dephase_in_basis(BELL_2P, comp), expect)

    one_minus = np.zeros((4, 4), dtype=complex)
    one_minus[np.ix_([1, 2], [1, 2])] = [[0.5, -0.5], [-0.5, 0.5]]
    one_plus = np.zeros((4, 4), dtype=complex)
    one_plus[np.ix_([1, 2], [1, 2])] = 0.5
    rho = 0.9 * one_plus + 0.1 * one_minus
    assert np.allclose(dephase_in_basis(rho, comp), np.diag([0, 0.5, 0.5, 0]))


def test_dephase_is_trace_preserving():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density(rng, 4)
        angles = rng.uniform(0, math.pi, size=4)
        out = dephase_in_basis(rho, angles)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_trace_distance_examples():
    rng = np.random.default_rng(19)
    rho = random_density(rng, 4)
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-12
    a = np.diag([0.9, 0.1, 0.0, 0.0])
    b = np.diag([0.45, 0.05, 0.05, 0.45])
    assert abs(trace_distance(a, b) - 0.5) < 1e-12


#: every public entry point that takes one two-qubit state
TWO_QUBIT_ENTRY_POINTS = {
    "bell_spectrum_of": bell_spectrum_of,
    "closest_product": closest_product,
    "quantifier_report": quantifier_report,
    "oracle_closest_classical": lambda rho: oracle_closest_classical([rho]),
    "oracle_closest_product": lambda rho: oracle_closest_product([rho]),
}


@pytest.mark.parametrize("name", sorted(TWO_QUBIT_ENTRY_POINTS))
def test_two_qubit_entry_points_reject_a_valid_qubit_state(name):
    # a valid 2x2 density matrix passes check_density but is no two-qubit state
    qubit = check_density(np.array([[0.7, 0.1], [0.1, 0.3]]))
    with pytest.raises(ValueError, match=f"^{name} expects a 4x4 state$"):
        TWO_QUBIT_ENTRY_POINTS[name](qubit)
