"""Property-based checks of the invariants of the Bell-diagonal dynamics, of
the classical oracle's objective, and the optimality certificates of the two
convex families, product and separable."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from belldyn.correlations import (  # noqa: E402
    bell_quantifiers,
    c_vector_of_spectrum,
    closest_product,
    closest_separable_spectrum,
    quantifier_report,
)
from belldyn.dynamics import (  # noqa: E402
    bell_spectrum_of,
    bell_spectrum_to_density,
    evolve_bell_spectrum,
    mixing_fraction,
    two_qubit_map,
    validate_spectrum,
)
from belldyn.nonmarkov import (  # noqa: E402
    CONVENTIONS,
    FROZEN_TOL,
    composition_violation,
    detect_frozen_intervals,
    detect_switching_times,
    nonmarkovianity_measure,
)
from belldyn.linalg import PAULI  # noqa: E402
from belldyn.oracle import (  # noqa: E402
    _dephased_entropy,
    _directions,
    _pauli_data,
    oracle_closest_product,
    oracle_closest_separable_bd,
)

from matrix_reference import trace_distance, von_neumann_entropy  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# Integer weights give spectra whose entries are 0 or at least 1/4000, so
# the matrix route's support cutoff (1e-12) never drops a weight; pure and
# degenerate spectra are included.
spectra = st.lists(st.integers(0, 1000), min_size=4, max_size=4).filter(any).map(
    lambda w: np.array(w, dtype=float) / sum(w)
)
taus = st.floats(0.0, 4.0 * math.pi, allow_nan=False)
# tau = 0, or a tau whose mixing fraction is at least 1/4000, so that the
# evolved entries of `spectra` stay 0 or at least 1/4000^2 = 6.25e-8. Near
# k pi/2 they reach 1e-12, where the matrix route's cutoff moves E by 1e-11
# (test_correlations' sparse spectra hold that gap to its own bound).
kernel_taus = st.one_of(st.just(0.0), taus.filter(lambda t: mixing_fraction(t) >= 1 / 4000))


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
@given(spectra, kernel_taus)
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
    # interval: a scan that starts before the run can take its first points
    # and end inside it. A discarded short scan restarts one point later, so
    # it does not drop the run's first point (test_nonmarkov's example).
    lam = evolve_bell_spectrum(lam0, np.linspace(0.0, tau_max, n + 1))
    c = np.abs(c_vector_of_spectrum(lam))
    assert np.max(np.abs(c[:, 1] - c[0, 1])) < 1e-14
    dominant = c[:, 1] >= np.maximum(c[:, 0], c[:, 2])
    if np.any(dominant):
        assert np.ptp(bell_quantifiers(lam)[2][dominant]) < 1e-12


def _quantifier_column(lam0, tau_max, n, k):
    return bell_quantifiers(evolve_bell_spectrum(lam0, np.linspace(0.0, tau_max, n + 1)))[k]


# series with plateaus and jumps at the scale of FROZEN_TOL, and the T, D, C
# and E columns of trajectories
frozen_series = st.one_of(
    st.lists(st.one_of(st.floats(0.0, 3e-6), st.floats(-1.0, 1.0)), min_size=2, max_size=80),
    st.builds(_quantifier_column, spectra, st.floats(0.1, 4.0 * math.pi), st.integers(2, 200),
              st.integers(0, 3)),
)


@PROPERTY_SETTINGS
@given(frozen_series)
def test_frozen_intervals_are_ordered_disjoint_and_frozen(values):
    # what the greedy scan guarantees; it does not guarantee maximal intervals
    v = np.asarray(values, dtype=float)
    grid = np.linspace(0.0, 1.0, v.size)
    last = -1
    for start, end in detect_frozen_intervals(grid, v):
        i, j = np.searchsorted(grid, [start, end])
        assert (grid[i], grid[j]) == (start, end)
        assert last < i and j - i + 1 >= 3
        run = v[i:j + 1]
        assert np.max(np.abs(run - np.mean(run))) <= FROZEN_TOL + 1e-12
        last = j


@PROPERTY_SETTINGS
@given(st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=80), st.sampled_from(CONVENTIONS))
def test_accumulated_non_markovianity_never_decreases(steps, convention):
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    _, i_e = nonmarkovianity_measure(grid, convention)
    assert i_e[0] == 0.0
    assert np.all(np.diff(i_e) >= 0.0)


# T, D, C and E depend on tau only through f = sin^2(2 tau) / 2, which rises
# from 0 to 1/2 on [0, pi/4] and falls back on [pi/4, pi/2]. The paper ties
# each revival to a growing non-Markovianity quantifier: if none of them
# rises while f rises, each can revive only while f falls, which is exactly
# where the rhp measure grows.
quarter_grids = st.one_of(
    st.integers(2, 2001).map(lambda n: np.linspace(0.0, math.pi / 4, n)),
    st.lists(st.floats(0.0, math.pi / 4), min_size=2, max_size=200).map(np.sort),
)


@PROPERTY_SETTINGS
@given(spectra, quarter_grids)
def test_no_quantifier_rises_while_the_mixing_fraction_rises(lam0, grid):
    # 1,200 Dirichlet spectra on 4,001 points rose by at most 2.2e-16 (T),
    # 5.0e-15 (D), 1.2e-14 (C, on the pure Bell state) and 0 (E)
    rises = np.diff(bell_quantifiers(evolve_bell_spectrum(lam0, grid)), axis=1)
    assert np.max(rises) <= 1e-13


@PROPERTY_SETTINGS
@given(st.floats(0.1, 4.0 * math.pi), st.lists(st.floats(0.0, 1.0), max_size=200))
def test_rhp_measure_grows_only_while_the_mixing_fraction_falls(tau_max, fractions):
    # the grid holds every k pi/4 up to tau_max, so no step straddles one; f
    # falls on the steps from an odd multiple of pi/4 to the next mark
    marks = np.arange(int(tau_max // (math.pi / 4)) + 1) * (math.pi / 4)
    grid = np.unique(np.concatenate([marks, np.multiply(fractions, tau_max), [tau_max]]))
    _, i_e = nonmarkovianity_measure(grid)
    quarter = np.searchsorted(marks, grid[:-1], side="right") - 1
    assert np.all(quarter[np.diff(i_e) > 0] % 2 == 1)


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


@PROPERTY_SETTINGS
@given(st.one_of(spectra, small_spectra), taus)
# nearly pure: lam = (0, 6e-41, 1 - 6e-41, 0), whose closest separable
# state must still hold lam's support, or the gap is infinite
@example(np.array([0.0, 0.0, 1.0, 0.0]), 5.55413911477054e-21)
def test_closest_separable_spectrum_is_certified_optimal(lam0, tau):
    # S(lam || q) is convex in q, so its Frank-Wolfe gap over the separable
    # slice (q in the simplex, each q_i <= 1/2) bounds q's excess over the
    # minimum. With r_i = lam_i / q_i the gradient is -r / ln 2, and the
    # slice's vertices put 1/2 on two slots: g = (max_{i<j} (r_i + r_j)/2 - 1)
    # / ln 2. The closed form reads at most 6.4e-16 bits on Dirichlet
    # spectra; spreading the spare half evenly reads a median of 0.29.
    lam = evolve_bell_spectrum(lam0, tau)
    q = closest_separable_spectrum(lam)
    assert np.all(q >= 0.0) and np.all(q <= 0.5 + 1e-12)
    assert abs(q.sum() - 1.0) <= 1e-12
    assert _separable_gap(lam, q) <= 1e-14


def _separable_gap(lam, q):
    r = np.divide(lam, q, out=np.zeros(4), where=lam > 0)
    i, j = np.triu_indices(4, 1)
    return (np.max(r[i] + r[j]) / 2.0 - 1.0) / math.log(2)


# S(rho || pA x pB) = -S(rho) + c(aA, rA) + c(aB, rB) in the Bloch vectors a
# of rho's marginals and r of pA and pB, with
#     c(a, r) = -(1/2 ln((1 - |r|^2)/4) + atanh|r| a.r/|r|) / ln 2,
# convex in r on the unit ball. The ball's support function gives the
# Frank-Wolfe gap g = sum_X (grad c_X . r_X + |grad c_X|). Pure marginals,
# |a| = 1, put the minimizer on the sphere, where c is singular: they are
# left out.
def _marginal_blochs(rho):
    q = np.asarray(rho).reshape(2, 2, 2, 2)
    return [np.einsum("kij,ji->k", PAULI, np.einsum(s, q)).real for s in ("abcb->ac", "abad->bd")]


def _cross_entropy(a, r):
    n = math.sqrt(r @ r)
    along = a @ r / n if n > 0.0 else 0.0
    return -(0.5 * math.log((1.0 - n * n) / 4.0) + math.atanh(n) * along) / math.log(2)


def _cross_entropy_gradient(a, r):
    n = math.sqrt(r @ r)
    if n == 0.0:
        return -a / math.log(2)
    u = r / n
    along = a @ u
    return -((along - n) / (1.0 - n * n) * u + math.atanh(n) / n * (a - along * u)) / math.log(2)


def _product_gap(rho, sigma):
    gap = 0.0
    for a, r in zip(_marginal_blochs(rho), _marginal_blochs(sigma)):
        grad = _cross_entropy_gradient(a, r)
        gap += grad @ r + math.sqrt(grad @ grad)
    return gap


def _certificate_draws():
    # Dirichlet Bell spectra, flat to sparse, and general states g g^dag / Tr
    # of rank 2-4 whose marginals are not pure
    rng = np.random.default_rng(12)
    lams = [rng.dirichlet([alpha] * 4) for alpha in (1.0, 0.3, 0.05) for _ in range(60)]
    general = []
    for rank in (2, 3, 4):
        for _ in range(30):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T
            general.append(rho / np.trace(rho).real)
    states = [bell_spectrum_to_density(lam) for lam in lams] + general
    return lams, [rho for rho in states
                  if max(math.sqrt(a @ a) for a in _marginal_blochs(rho)) <= 1.0 - 1e-9]


def test_closest_product_is_certified_optimal():
    # the closed form reads at most about 1e-15 bits; I/4 in its place reads
    # (|aA| + |aB|) / ln 2, the gradient -a / ln 2 at r = 0
    _, states = _certificate_draws()
    assert len(states) == 270
    for rho in states:
        assert _product_gap(rho, closest_product(rho)) <= 1e-13
        wrong = sum(math.sqrt(a @ a) for a in _marginal_blochs(rho)) / math.log(2)
        assert abs(_product_gap(rho, np.eye(4) / 4.0) - wrong) <= 1e-12


def test_oracle_minimizers_meet_the_lower_bounds():
    # convexity: f(x) - g(x) <= min f for every feasible x, so at each
    # oracle's minimizer f - g stays below the closed form. g itself is first
    # order there (medians about 5e-9 bits separable, 0 product, and up to
    # 1e-3), too loose to stand in for the 1e-12 gates.
    lams, states = _certificate_draws()
    for rho, res in zip(states, oracle_closest_product(states)):
        s_rho = von_neumann_entropy(rho)
        pairs = zip(_marginal_blochs(rho), _marginal_blochs(res.minimizer))
        f = -s_rho + sum(_cross_entropy(a, r) for a, r in pairs)
        assert abs(f - res.value) <= 1e-9  # f is the oracle's objective
        t = von_neumann_entropy(closest_product(rho)) - s_rho  # S(rho_A) + S(rho_B) - S(rho)
        assert f - _product_gap(rho, res.minimizer) <= t + 1e-13
    e = bell_quantifiers(np.array(lams))[3]
    for lam, e_lam, res in zip(lams, e, oracle_closest_separable_bd(lams)):
        q = bell_spectrum_of(res.minimizer)[0]
        pos = lam > 0
        f = float(np.sum(lam[pos] * np.log2(lam[pos] / q[pos])))
        assert abs(f - res.value) <= 1e-9
        assert f - _separable_gap(lam, q) <= e_lam + 1e-13
