"""Property-based checks of the invariants of the Bell-diagonal dynamics and
of the classical oracle's objective."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from belldyn.correlations import (  # noqa: E402
    bell_quantifiers,
    c_vector_of_spectrum,
    quantifier_report,
)
from belldyn.dynamics import (  # noqa: E402
    bell_spectrum_of,
    bell_spectrum_to_density,
    evolve_bell_spectrum,
    two_qubit_map,
    validate_spectrum,
)
from belldyn.linalg import trace_distance  # noqa: E402
from belldyn.nonmarkov import (  # noqa: E402
    CONVENTIONS,
    composition_violation,
    detect_switching_times,
    nonmarkovianity_measure,
)
from belldyn.oracle import _dephased_entropy, _directions, _pauli_data  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# Integer weights give spectra whose entries are 0 or at least 1/4000, so
# the matrix route's support cutoff (1e-12) never drops a weight; pure and
# degenerate spectra are included.
spectra = st.lists(st.integers(0, 1000), min_size=4, max_size=4).filter(any).map(
    lambda w: np.array(w, dtype=float) / sum(w)
)
taus = st.floats(0.0, 4.0 * math.pi, allow_nan=False)


def _density(entries):
    g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# Bell-diagonal states and general states g g^+ / Tr of every rank
states = st.one_of(
    spectra.map(bell_spectrum_to_density),
    st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)
    .filter(lambda w: sum(x * x for x in w) > 1e-3).map(_density),
)


@PROPERTY_SETTINGS
@given(spectra, taus)
def test_kernel_matches_the_matrix_route(lam0, tau):
    lam = evolve_bell_spectrum(lam0, tau)
    rep = quantifier_report(bell_spectrum_to_density(lam))
    for got, want in zip(bell_quantifiers(lam), (rep.T, rep.D, rep.C, rep.E)):
        assert abs(float(got) - want) < 1e-12


@PROPERTY_SETTINGS
@given(st.lists(spectra, min_size=2, max_size=20))
def test_each_row_of_a_stack_gets_the_bits_of_a_one_state_call(rows):
    # verify certifies chunks of any size, down to one state, while the
    # trajectory commands print whole stacks, c-vectors included: a library
    # call on one spectrum must see the same bits
    stack = bell_quantifiers(np.array(rows))
    c_stack = c_vector_of_spectrum(np.array(rows))
    for k, lam in enumerate(rows):
        alone = bell_quantifiers(lam)
        assert all(got[k] == want for got, want in zip(stack, alone)), lam
        assert np.array_equal(c_stack[k], c_vector_of_spectrum(lam)), lam


@PROPERTY_SETTINGS
@given(states, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi),
       st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
def test_dephased_entropy_is_even_in_each_local_direction(rho, th_a, ph_a, th_b, ph_b):
    # u -> -u on one qubit flips alpha (or beta) and kappa, which only permutes
    # the four outcome probabilities: the classical oracle's hemisphere grid
    # relies on it
    a_vec, b_vec, corr = _pauli_data(rho)
    ua, ub = _directions(th_a, ph_a), _directions(th_b, ph_b)
    alpha, beta, kappa = ua @ a_vec, ub @ b_vec, ua @ corr @ ub
    h = _dephased_entropy(alpha, beta, kappa)
    assert abs(_dephased_entropy(-alpha, beta, -kappa) - h) < 1e-15
    assert abs(_dephased_entropy(alpha, -beta, -kappa) - h) < 1e-15


@PROPERTY_SETTINGS
@given(spectra, st.lists(taus, min_size=1, max_size=5))
def test_grid_evolution_is_the_bell_diagonal_of_the_channel(lam0, tau_list):
    grid = np.array(tau_list)
    evolved = evolve_bell_spectrum(lam0, grid)
    rho0 = bell_spectrum_to_density(lam0)
    for k, tau in enumerate(grid):
        lam, residual = bell_spectrum_of(two_qubit_map(rho0, tau))
        assert residual < 1e-12
        assert np.max(np.abs(evolved[k] - lam)) < 1e-12


@PROPERTY_SETTINGS
@given(spectra, taus, taus)
def test_composition_witness_is_the_trace_distance_of_the_two_states(lam0, t1, t2):
    t1, t2 = sorted((t1, t2))
    direct = evolve_bell_spectrum(lam0, t2)
    restarted = evolve_bell_spectrum(evolve_bell_spectrum(lam0, t1), t2 - t1)
    want = trace_distance(bell_spectrum_to_density(direct), bell_spectrum_to_density(restarted))
    assert abs(composition_violation(lam0, t1, t2) - want) < 1e-12


@PROPERTY_SETTINGS
@given(states)
def test_bell_spectrum_of_returns_a_checked_spectrum(rho):
    lam, _ = bell_spectrum_of(rho)
    assert np.array_equal(validate_spectrum(lam), lam)


@PROPERTY_SETTINGS
@given(spectra, st.floats(0.1, 4.0 * math.pi), st.integers(2, 60))
def test_total_is_discord_plus_classical_and_entanglement_is_below_discord(lam0, tau_max, n):
    lam = evolve_bell_spectrum(lam0, np.linspace(0.0, tau_max, n + 1))
    t, d, c, e = bell_quantifiers(lam)
    assert np.max(np.abs(t - (d + c))) < 1e-12
    assert np.all(e <= d + 1e-12)
    assert np.all((d >= 0) & (c >= 0) & (e >= 0))


@PROPERTY_SETTINGS
@given(spectra, st.floats(0.1, 4.0 * math.pi), st.integers(2, 200))
def test_classical_correlations_are_frozen_wherever_c2_dominates(lam0, tau_max, n):
    # the c-vector evolves as ((1 - 2f) c1, c2, (1 - 2f) c3), so wherever |c2|
    # is the largest entry C = 1 - h((1 + |c2|) / 2) takes one value.
    # detect_frozen_intervals is not held to report each such run inside one
    # interval: its greedy scan can start one point early and then drop the
    # run's first point (lam0 = (0.0996, 0.2737, 0.2988, 0.3279),
    # tau_max = 3.0946, n = 165 loses point 20 of the run 20..64).
    lam = evolve_bell_spectrum(lam0, np.linspace(0.0, tau_max, n + 1))
    c = np.abs(c_vector_of_spectrum(lam))
    assert np.max(np.abs(c[:, 1] - c[0, 1])) < 1e-14
    dominant = c[:, 1] >= np.maximum(c[:, 0], c[:, 2])
    if np.any(dominant):
        assert np.ptp(bell_quantifiers(lam)[2][dominant]) < 1e-12


@PROPERTY_SETTINGS
@given(st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=80), st.sampled_from(CONVENTIONS))
def test_accumulated_non_markovianity_never_decreases(steps, convention):
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    trace = nonmarkovianity_measure(grid, convention)
    assert trace.i_e[0] == 0.0
    assert np.all(np.diff(trace.i_e) >= 0.0)


def _second_label(lam0, tau):
    return np.argsort(-evolve_bell_spectrum(lam0, tau), axis=-1, kind="stable")[..., 1]


# Weights up to 100 keep distinct crossings at least ~1e-5 apart in f, so a
# 1e-7 step to either side of a switch crosses no other crossing.
small_spectra = st.lists(st.integers(0, 100), min_size=4, max_size=4).filter(any).map(
    lambda w: np.array(w, dtype=float) / sum(w)
)


@PROPERTY_SETTINGS
@given(small_spectra, st.floats(0.1, 7.0))
def test_switching_times_are_exactly_the_label_changes(lam0, tau_max):
    times = detect_switching_times(lam0, tau_max)
    assert times == sorted(times) and all(0.0 < t <= tau_max for t in times)
    for t in times:
        assert _second_label(lam0, t - 1e-7) != _second_label(lam0, t + 1e-7)
    # Between consecutive times the label is constant. Points within 1e-9 of
    # a returned time or of k pi/4 are left out: labels tie there, and f only
    # touches 0 or 1/2 at k pi/4, so a tie there is not a switch.
    marks = np.concatenate([np.arange(0.0, tau_max + 1.0, math.pi / 4), times])
    grid = np.linspace(0.0, tau_max, 20001)
    grid = grid[np.min(np.abs(grid[:, None] - marks), axis=1) > 1e-9]
    labels = _second_label(lam0, grid)
    segment = np.searchsorted(np.asarray(times), grid)
    for k in np.unique(segment):
        assert np.unique(labels[segment == k]).size == 1
