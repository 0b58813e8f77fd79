import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belldyn.correlations import BELL_C_VECTORS, bell_quantifiers, closest_classical_bd
from belldyn.dynamics import bell_spectrum_to_density, evolve_bell_spectrum
from belldyn.linalg import (
    PAULI,
    _clamp_residue,
    _product_basis,
    _relative_entropy_stack,
    _support_rule,
    _xlog2,
)
from belldyn.nonmarkov import detect_switching_times
from belldyn.oracle import (
    _MIN_WIDTH,
    _SECOND_START_BITS,
    GRID_POINTS_PER_ANGLE,
    REFINEMENT_ITERATIONS,
    REFINEMENT_SHRINK,
    _classical_values,
    _dephased_entropy,
    _direction_grid,
    _directions,
    _arc_length_steps,
    _dot3,
    _grid_starts,
    _offsets,
    _pauli_data,
    _product_states,
    _product_values,
    _refine,
    _stencil,
    oracle_closest_classical,
    oracle_closest_product,
    oracle_closest_separable_bd,
)

from matrix_reference import (
    DEATH_HI,
    DEATH_LO,
    H09,
    LAM_FIG,
    dephase_in_basis,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)

GRID_TOL = 1e-3


def analytic_values(lam):
    t, d, _, e = bell_quantifiers(lam)
    return float(d), float(e), float(t)


def test_classical_on_classical_input():
    chi = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert oracle_closest_classical([chi])[0].value < 1e-9


def test_classical_on_fig_state():
    res = oracle_closest_classical([bell_spectrum_to_density(LAM_FIG)])[0]
    assert abs(res.value - (1 - H09)) < GRID_TOL
    assert trace_distance(res.minimizer, np.diag([0, 0.5, 0.5, 0])) < 1e-6


def test_classical_on_maximally_mixed():
    assert oracle_closest_classical([np.eye(4) / 4])[0].value < 1e-9


def test_separable_examples():
    res = oracle_closest_separable_bd([[0.4, 0.3, 0.2, 0.1]])[0]
    assert res.value < 1e-9
    res = oracle_closest_separable_bd([LAM_FIG])[0]
    assert abs(res.value - (1 - H09)) < GRID_TOL
    res = oracle_closest_separable_bd([[1.0, 0.0, 0.0, 0.0]])[0]
    assert abs(res.value - 1.0) < GRID_TOL


def test_product_examples():
    rho01 = np.zeros((4, 4), dtype=complex)
    rho01[1, 1] = 1.0
    assert oracle_closest_product([rho01])[0].value < 1e-9

    res = oracle_closest_product([bell_spectrum_to_density(LAM_FIG)])[0]
    assert abs(res.value - (2 - H09)) < GRID_TOL
    assert trace_distance(res.minimizer, np.eye(4) / 4) < 1e-2

    bell = bell_spectrum_to_density([0, 0, 1, 0])
    assert abs(oracle_closest_product([bell])[0].value - 2.0) < GRID_TOL


def test_product_on_mixed_product_state():
    a = np.diag([0.75, 0.25]).astype(complex)
    b = np.diag([0.4, 0.6]).astype(complex)
    res = oracle_closest_product([np.kron(a, b)])[0]
    assert res.value < 1e-9


def test_each_oracle_of_no_states_is_empty():
    # empty lists and empty numpy stacks alike: a (0, 4, 4) state stack and a
    # (0, 4) spectrum stack
    for states in ([], np.empty((0, 4, 4), dtype=complex)):
        assert oracle_closest_classical(states) == []
        assert oracle_closest_product(states) == []
    for spectra in ([], np.empty((0, 4))):
        assert oracle_closest_separable_bd(spectra) == []


def test_each_oracle_is_deterministic():
    rho = bell_spectrum_to_density([0.55, 0.3, 0.1, 0.05])
    for call in (
        lambda: oracle_closest_classical([rho])[0],
        lambda: oracle_closest_separable_bd([np.array([0.55, 0.3, 0.1, 0.05])])[0],
        lambda: oracle_closest_product([rho])[0],
    ):
        r1, r2 = call(), call()
        assert r1.value == r2.value
        assert r1.evaluations == r2.evaluations
        assert np.array_equal(r1.minimizer, r2.minimizer)
        assert np.array_equal(r1.history, r2.history)


def test_history_is_monotone():
    rho = bell_spectrum_to_density([0.7, 0.2, 0.06, 0.04])
    for res in (
        oracle_closest_classical([rho])[0],
        oracle_closest_separable_bd([[0.7, 0.2, 0.06, 0.04]])[0],
        oracle_closest_product([rho])[0],
    ):
        assert np.all(np.diff(res.history) <= 0.0)
        assert res.value <= res.history[0]
        assert res.evaluations > 0


def test_two_sided_certification_on_random_states():
    rng = np.random.default_rng(123)
    for _ in range(12):
        lam = rng.dirichlet(np.ones(4))
        rho = bell_spectrum_to_density(lam)
        d, e, t = analytic_values(lam)
        oc = oracle_closest_classical([rho])[0].value
        os_ = oracle_closest_separable_bd([lam])[0].value
        op = oracle_closest_product([rho])[0].value
        # the search may only match or beat the analytic candidate...
        assert oc <= d + 1e-9 and os_ <= e + 1e-9 and op <= t + 1e-9
        # ...and the analytic candidate must survive the grid resolution
        assert d <= oc + GRID_TOL and e <= os_ + GRID_TOL and t <= op + GRID_TOL


def test_classical_objective_matches_matrix_route():
    # the fast Bloch-form objective must equal S(rho || dephase(rho, basis))
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        quad = np.array([
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
        ])
        a_vec, b_vec, corr = _pauli_data(rho)
        fast = _classical_values(a_vec, b_vec, corr, _directions(quad[None, 0], quad[None, 1]),
                                 _directions(quad[None, 2], quad[None, 3]),
                                 von_neumann_entropy(rho))[0, 0]
        slow = relative_entropy(rho, dephase_in_basis(rho, quad))
        assert abs(fast - slow) < 1e-10


def test_stencil_objective_matches_matrix_route_on_every_offset(monkeypatch):
    # the refinement scores its 80 offsets on 9 A and 9 B directions per
    # search; each gathered value must be S(rho || dephase(rho, candidate)),
    # also for general states (a_vec != 0) and for a search on a pole
    from belldyn import oracle

    rng = np.random.default_rng(19)
    states = [_general_state(rng, 4) for _ in range(3)]
    assert min(np.linalg.norm(_pauli_data(rho)[0]) for rho in states) > 0.05
    real, seen = oracle._refine, []

    def spy(starts, evaluate, *args, **kwargs):
        seen.append(evaluate)
        return real(starts, evaluate, *args, **kwargs)

    monkeypatch.setattr(oracle, "_refine", spy)
    oracle_closest_classical(states)
    [evaluate] = seen
    x = np.array([[0.0, 1.3, 2.0, 4.0], [0.7, 0.2, 0.0, 0.0], [2.9, 5.9, 1.1, 3.3]])
    quads = x[:, None, :] + _arc_length_steps(x, np.array([0.3, 1e-3, 0.05]))[:, None, :] * _offsets(4)
    got = evaluate(quads, np.arange(3))
    assert got.shape == (3, 80)
    for rho, row, vals in zip(states, quads, got):
        for quad, val in zip(row, vals):
            assert abs(val - relative_entropy(rho, dephase_in_basis(rho, quad))) < 1e-10


def test_stencil_maps_pair_the_9_moves_of_each_qubit():
    # offset k is the pair (A move ia[k], B move ib[k]); the rows ka and kb of
    # the (qubit, move) map pick one offset per move of each qubit
    ia, ib, (ka, kb) = _stencil()
    off = _offsets(4)
    assert sorted(zip(ia, ib)) == [(i, j) for i in range(9) for j in range(9) if (i, j) != (4, 4)]
    for i in range(9):
        assert ia[ka[i]] == ib[kb[i]] == i
        assert np.all(off[ia == i, :2] == off[ka[i], :2])
        assert np.all(off[ib == i, 2:] == off[kb[i], 2:])


N = GRID_POINTS_PER_ANGLE
# the spectra at the edges of the Bell simplex that the golden file pins
EDGE_SPECTRA = ([0.9, 0.1, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25],
                [0.5, 0.5, 0.0, 0.0])


def _ball_points(rng, count):
    # count Bloch vectors each at r = 0, at r = 1 and inside the ball
    u = rng.normal(size=(count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.concatenate([0.0 * u, u, rng.uniform(0.0, 0.99, size=(count, 1)) * u])


def test_product_objective_matches_matrix_route():
    # the Bloch-form objective of the product search must equal
    # S(rho || pA x pB) from the eigendecomposition of pA x pB, with the same
    # +inf pattern, on every pairing of r = 0, r = 1 and inner points of the
    # two balls
    rng = np.random.default_rng(29)
    states = [_general_state(rng, rank) for rank in (4, 3, 2)]
    states += [bell_spectrum_to_density(lam) for lam in ([0.4, 0.3, 0.2, 0.1], *EDGE_SPECTRA)]
    va, vb = _ball_points(rng, 8), _ball_points(rng, 8)
    pairs = np.concatenate([np.repeat(va, len(vb), axis=0), np.tile(vb, (len(va), 1))], axis=1)
    seen_inf = seen_finite = 0
    for rho in states:
        a_vec, b_vec, corr = _pauli_data(rho)
        s_rho = von_neumann_entropy(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fast = _product_values(a_vec, b_vec, corr, pairs, s_rho)
        slow = _relative_entropy_stack(rho, _product_states(pairs), s_rho)
        finite = np.isfinite(slow)
        assert np.array_equal(np.isfinite(fast), finite)
        assert np.max(np.abs(fast[finite] - slow[finite])) < 1e-10
        seen_inf, seen_finite = seen_inf + np.sum(~finite), seen_finite + np.sum(finite)
    assert seen_inf > 0 and seen_finite > 0


def _full_direction_grid():
    # theta, phi and unit vector of each (k, j) of the full n x n grid
    th, ph = np.meshgrid(np.linspace(0.0, math.pi, N),
                         np.linspace(0.0, 2.0 * math.pi, N, endpoint=False), indexing="ij")
    u = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    return th, ph, u


def _general_state(rng, rank):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _kept(k, j):
    # (k, j) of the full grid -> (row of the hemisphere grid, sign): a row
    # with theta > pi/2 is the antipode of (n - 1 - k, j + n/2), and the pole
    # is kept once, at phi = 0
    sign = 1.0
    if k >= N // 2:
        k, j, sign = N - 1 - k, (j + N // 2) % N, -1.0
    return (0 if k == 0 else 1 + (k - 1) * N + j), sign


def test_hemisphere_grid_covers_every_direction_of_the_full_grid():
    th, ph, u = _direction_grid()
    full_th, full_ph, full_u = _full_direction_grid()
    # a subset of the full grid, angle for angle, not a new grid
    rows = [(0, 0)] + [(k, j) for k in range(1, N // 2) for j in range(N)]
    assert len(u) == len(rows) == 265
    assert np.array_equal(th, [full_th[r] for r in rows])
    assert np.array_equal(ph, [full_ph[r] for r in rows])
    hit = np.zeros(len(u), dtype=bool)
    for k in range(N):
        for j in range(N):
            i, sign = _kept(k, j)
            assert np.max(np.abs(full_u[k, j] - sign * u[i])) < 1e-15, (k, j)
            hit[i] = True
    assert hit.all()  # the map is onto: no kept direction stands for none


def test_hemisphere_grid_directions_are_distinct_up_to_sign():
    _, _, u = _direction_grid()
    cos = u @ u.T
    np.fill_diagonal(cos, 0.0)
    # the closest pair, next to the pole, is about 0.036 rad apart
    assert np.max(np.abs(cos)) < 1.0 - 1e-4


def test_hemisphere_grid_minimum_equals_the_full_grid_minimum():
    rng = np.random.default_rng(11)
    states = [bell_spectrum_to_density(rng.dirichlet(np.ones(4))) for _ in range(16)]
    states += [bell_spectrum_to_density(lam) for lam in EDGE_SPECTRA]
    states += [_general_state(rng, rank) for rank in (4, 3, 2, 1)]
    _, _, u = _direction_grid()
    full_u = _full_direction_grid()[2].reshape(-1, 3)
    for rho in states:
        a_vec, b_vec, corr = _pauli_data(rho)
        s_rho = von_neumann_entropy(rho)
        full = _dephased_entropy((full_u @ a_vec)[:, None], (full_u @ b_vec)[None, :],
                                 full_u @ corr @ full_u.T) - s_rho
        hemi = _classical_values(a_vec, b_vec, corr, u, u, s_rho)
        assert abs(hemi.min() - full.min()) < 1e-15


def test_classical_evaluations_count_the_hemisphere_grid():
    # 265^2 grid pairs and one pattern per refinement step; the history holds
    # the lead value, each start's value and one per step. The figure state's
    # second start scores far above its first and is not refined; the seed-852
    # state's is
    for rho, starts in ((bell_spectrum_to_density(LAM_FIG), 1),
                        (_general_state(np.random.default_rng(852), 2), 2)):
        res = oracle_closest_classical([rho])[0]
        steps = len(res.history) - 1 - starts
        assert steps > 0
        assert res.evaluations == 265 ** 2 + steps * len(_offsets(4))


# states on which the floored grid must give the full grid's starts: sparse
# and flat Bell spectra, general states of each rank, the golden edge spectra,
# tied grids (every cell or whole rings of cells at the minimum), and near
# ties across rows: mixtures (1 - x) rho1 + x rho2 of pairs of seeded rank-4
# states at the x where the grid's first least cell moves to another row.
# There the two cells differ by at most 4.4e-16 bits; with numpy 2.4 a
# float32 screen's best row was not the exact one's on each
TIED_SPECTRA = ([0.25, 0.25, 0.25, 0.25], [0.4, 0.2, 0.2, 0.2], [1.0, 0.0, 0.0, 0.0])
ROW_CROSSINGS = {1: "0x1.742d37bd5c314p-4", 6: "0x1.29660eaff02ebp-4",
                 15: "0x1.2e2ac84f92af8p-3", 21: "0x1.c709a0de5406fp-6"}


def _start_survey():
    rng = np.random.default_rng(61)
    states = [bell_spectrum_to_density(rng.dirichlet(np.full(4, a))) for a in (1.0, 0.05)
              for _ in range(24)]
    states += [_general_state(rng, rank) for rank in (1, 2, 3, 4) for _ in range(12)]
    states += [bell_spectrum_to_density(lam) for lam in (*EDGE_SPECTRA, *TIED_SPECTRA)]
    rng = np.random.default_rng(7)
    pairs = [(_general_state(rng, 4), _general_state(rng, 4))
             for _ in range(max(ROW_CROSSINGS) + 1)]
    for k, x in ROW_CROSSINGS.items():
        x = float.fromhex(x)
        states.append((1.0 - x) * pairs[k][0] + x * pairs[k][1])
    return states


def test_floored_grid_starts_keep_every_bit_of_the_full_grid():
    # each start is the first least eligible cell of the full exact grid in
    # row-major order, and its value bit for bit, from the exact scoring of
    # the rows that the floor does not rule out: the first of every cell,
    # the second of the cells over 60 degrees from the first on a qubit,
    # refined exactly when it scores within _SECOND_START_BITS of the first
    _, _, u = _direction_grid()
    nears = 0
    for n, rho in enumerate(_start_survey()):
        a_vec, b_vec, corr = _pauli_data(rho)
        s_rho = von_neumann_entropy(rho)
        grid = _classical_values(a_vec, b_vec, corr, u, u, s_rho)
        eligible = np.ones(grid.shape, dtype=bool)
        want = []
        for start in ("first", "second"):
            masked = np.where(eligible, grid, np.inf)
            ia, ib = np.unravel_index(int(np.argmin(masked)), grid.shape)
            want.append((int(ia), int(ib), float(grid[ia, ib]).hex()))
            far_a, far_b = np.abs(u @ u[ia]) <= 0.5, np.abs(u @ u[ib]) <= 0.5
            eligible = far_a[:, None] | far_b[None, :]
        near = float.fromhex(want[1][2]) - float.fromhex(want[0][2]) <= _SECOND_START_BITS
        got = [(ia, ib, value.hex()) for ia, ib, value in _grid_starts(u, a_vec, b_vec, corr, s_rho)]
        assert got == want[:1 + near], n
        nears += near
    assert nears == 20  # of the 107 states refine a second start


def test_floor_scores_few_rows_exactly(monkeypatch):
    from belldyn import oracle

    _, _, u = _direction_grid()
    real, real_least, scored, per_start = oracle._dephased_entropy, oracle._least_cell, [], []

    def rescored(alpha, *args):
        scored.append(len(alpha))
        return real(alpha, *args)

    def least(*args):
        scored.clear()
        found = real_least(*args)
        per_start.append(sum(scored))
        return found

    def rows(lam):
        # the rows the first start scores exactly
        a_vec, b_vec, corr = _pauli_data(bell_spectrum_to_density(lam))
        per_start.clear()
        _grid_starts(u, a_vec, b_vec, corr, 0.0)
        return per_start[0]

    monkeypatch.setattr(oracle, "_dephased_entropy", rescored)
    monkeypatch.setattr(oracle, "_least_cell", least)

    # the figure state is scored exactly on at most 2 of the 265 rows; on a
    # fully tied grid the floor meets every row's exact minimum, so every
    # row is scored, which is the exact grid
    assert rows(LAM_FIG) <= 2
    assert rows(TIED_SPECTRA[0]) == len(u) == 265


# general states g g^dagger / Tr with g a 4 x rank complex Gaussian, drawn in
# order from each recipe's numpy seed, and the least classical value found
# for each by the oracle when it refined two random restarts as well as the
# grid start, over restart seeds 0-7. The seed-852 rank-2 state has two
# basins 1.03e-3 bits apart, and half of those seeds missed the lower one
SURVEY = pathlib.Path(__file__).parent / "data" / "general_survey.json"


def test_classical_oracle_meets_the_general_survey():
    states, reference = [], []
    for recipe in json.loads(SURVEY.read_text(encoding="utf-8"))["recipes"]:
        rng = np.random.default_rng(recipe["seed"])
        states += [_general_state(rng, recipe["rank"]) for _ in range(recipe["count"])]
        reference += [float.fromhex(v) for v in recipe["classical"]]
    assert len(states) == len(reference) == 161
    got = [res.value for res in oracle_closest_classical(states)]
    missed = [(n, v - ref) for n, (v, ref) in enumerate(zip(got, reference)) if v > ref + 1e-12]
    assert missed == []


def test_oracle_confirms_fresh_classical_construction_after_switch():
    # past the switching time the dominant-direction construction must be
    # the one the brute force finds, not the evolved initial construction
    tau = 0.5 * math.asin(math.sqrt(0.4))  # f = 0.2
    lam_t = evolve_bell_spectrum(LAM_FIG, tau)
    rho_t = bell_spectrum_to_density(lam_t)
    res = oracle_closest_classical([rho_t])[0]
    d_fresh = relative_entropy(rho_t, closest_classical_bd(lam_t))
    assert abs(res.value - d_fresh) < GRID_TOL
    assert res.value < (1 - H09) - 0.2  # well below the evolved-chi distance


def test_separable_oracle_value_matches_matrix_route():
    rng = np.random.default_rng(9)
    for _ in range(5):
        lam = rng.dirichlet(np.ones(4))
        res = oracle_closest_separable_bd([lam])[0]
        direct = relative_entropy(bell_spectrum_to_density(lam), res.minimizer)
        assert abs(res.value - direct) < 1e-9


def _sequential_refine(starts, evaluate, offsets, project=None, steps_of=None):
    # one search after the other, as `_refine` ran before its lockstep form;
    # also returns the number of steps each start took
    best_x, best = starts[0][0], starts[0][1]
    trace, evals, steps = [best], 0, []
    for x0, value0, width0 in starts:
        x, value, width = np.asarray(x0, dtype=float), float(value0), float(width0)
        trace.append(value)
        n = 0
        while n < REFINEMENT_ITERATIONS and width >= _MIN_WIDTH:
            step = width if steps_of is None else steps_of(x[None], np.array([width]))[0]
            cand = x[None, :] + step * offsets
            if project is not None:
                cand = project(cand)
            vals = evaluate(cand)
            evals += len(cand)
            j = int(np.argmin(vals))
            if vals[j] < value:
                value, x = float(vals[j]), cand[j].copy()
            else:
                width *= REFINEMENT_SHRINK
            trace.append(value)
            n += 1
        steps.append(n)
        if value < best:
            best_x, best = x, value
    return best_x, best, evals, np.minimum.accumulate(trace), steps


def test_lockstep_refine_matches_one_search_after_another():
    wells = np.array([[0.5, -0.25], [-0.75, 1.0], [2.0, 2.0]])
    depth = np.array([0.0, 0.0, 1.0])

    def evaluate(cand):
        # three quadratic wells: two of depth 0 (a tie) and one of depth 1
        d2 = np.sum((cand[:, None, :] - wells[None]) ** 2, axis=2)
        return np.min(d2 + depth, axis=1)

    def rows(cand, _owner):
        # all starts search one state; score the candidate stack row by row
        return evaluate(cand.reshape(-1, cand.shape[-1])).reshape(cand.shape[:-1])

    def start(x, width):
        x = np.array(x)
        return x, float(evaluate(x[None])[0]), width

    scenarios = {
        # converges to the depth-1 well, then to a depth-0 well in fewer
        # steps; the second start wins
        "different_steps": [start([2.2, 1.9], 0.5), start([0.5, -0.25], 1e-9)],
        # far from every well with a small width: runs out of iterations
        "iteration_cap": [start([40.0, -30.0], 1e-3), start([2.1, 2.0], 0.25)],
        # a start value below every candidate never improves and only shrinks
        "never_improves": [(np.array([0.0, 0.0]), -1.0, 0.5), start([1.0, 1.0], 0.5)],
        # two starts settle in different wells of equal depth: the earlier wins
        "tie": [start([2.0, 2.5], 0.5), start([0.25, -0.25], 0.25),
                start([-0.75, 0.75], 0.25)],
        # widths that fall below _MIN_WIDTH inside a pass of shrink levels:
        # at a well's bottom with widths 3e-13 and exactly _MIN_WIDTH, and
        # 1.5e-13 off it with width 3e-13, which moves at its second level
        "min_width_inside_pass": [start([0.5, -0.25], 3e-13), start([0.5, -0.25], _MIN_WIDTH),
                                  start([0.5 + 1.5e-13, -0.25], 3e-13)],
        # 190 diagonal moves of 2**-10 onto a well's bottom, then shrinks
        # until the step cap cuts a pass short
        "cap_inside_pass": [start([0.5 + 190 * 2.0 ** -10, -0.25 + 190 * 2.0 ** -10], 2.0 ** -10),
                            start([2.1, 2.0], 0.25)],
        # 1/8 above a well's bottom with width 1/4: the first level's best,
        # 1/8 below it, equals the value exactly and is no move; the second
        # level reaches the bottom
        "level_tie": [start([0.5, -0.125], 0.25)],
    }
    def stretched(x, width):
        # a per-coordinate step that depends on the point, as the classical
        # search's arc-length phi step does
        w = width[:, None]
        return w / np.maximum(np.abs(np.sin(x)), w)

    steps_seen, stretched_seen = {}, {}
    for name, starts in scenarios.items():
        for project in (None, lambda c: np.clip(c, -1.0, 1.5)):
            for steps_of in (None, stretched):
                want = _sequential_refine(starts, evaluate, _offsets(2), project, steps_of)
                [got] = _refine(starts, rows, _offsets(2), project, owner=[0] * len(starts),
                                steps_of=steps_of)
                assert np.array_equal(got[0], want[0]), name
                assert got[1] == want[1] and got[2] == want[2], name
                assert np.array_equal(got[3], want[3]), name
                if project is None:
                    (stretched_seen if steps_of else steps_seen)[name] = want
    # the scenarios exercise what their names say
    assert len(set(steps_seen["different_steps"][4])) == 2
    assert REFINEMENT_ITERATIONS in steps_seen["iteration_cap"][4]
    assert steps_seen["never_improves"][1] == -1.0
    tie = steps_seen["tie"]
    assert tie[1] == 0.0 and np.array_equal(tie[0], wells[0])
    # two shrinks; one, as the second level is below _MIN_WIDTH; a move at
    # the second level, then one shrink
    assert steps_seen["min_width_inside_pass"][4] == [2, 1, 3]
    # the last move is step 190, so the shrinks after it run 2 + 4 levels
    # and then 4 of the 8 the pass would score
    capped = steps_seen["cap_inside_pass"]
    assert capped[4][0] == REFINEMENT_ITERATIONS
    assert np.flatnonzero(np.diff(capped[3][1:REFINEMENT_ITERATIONS + 2]))[-1] + 1 == 190
    # a tie taken as a move would reach the bottom one step later
    assert list(steps_seen["level_tie"][3][1:4]) == [0.015625, 0.015625, 0.0]
    # the step hook changes the searches
    assert any(stretched_seen[name][2] != steps_seen[name][2] for name in scenarios)


def test_lockstep_refine_of_many_states_matches_each_state_alone():
    # each state is the three-well landscape shifted by its own offset; the
    # states' searches take different numbers of steps, one hits the cap and
    # one ties between wells, and they are interleaved in the start list
    wells = np.array([[0.5, -0.25], [-0.75, 1.0], [2.0, 2.0]])
    depth = np.array([0.0, 0.0, 1.0])
    shift = np.array([[0.0, 0.0], [0.3, -0.1], [-1.0, 2.0]])

    def landscape(cand, s):
        d2 = np.sum((cand[..., None, :] - (wells + s[..., None, :])) ** 2, axis=-1)
        return np.min(d2 + depth, axis=-1)

    def start(state, x, width):
        x = np.array(x) + shift[state]
        return x, float(landscape(x, shift[state])), width

    per_state = [
        [start(0, [2.2, 1.9], 0.5), start(0, [0.5, -0.25], 1e-9)],
        [start(1, [40.0, -30.0], 1e-3), start(1, [2.1, 2.0], 0.25)],
        [start(2, [2.0, 2.5], 0.5), start(2, [0.25, -0.25], 0.25),
         start(2, [-0.75, 0.75], 0.25)],
    ]
    order = [(2, 0), (0, 0), (1, 0), (2, 1), (1, 1), (0, 1), (2, 2)]
    starts = [per_state[s][k] for s, k in order]
    owner = [s for s, _ in order]
    project = lambda c: np.clip(c, -1.0, 1.5)  # noqa: E731
    for proj in (None, project):
        got = _refine(starts, lambda c, o: landscape(c, shift[o][:, None, :]), _offsets(2),
                      proj, owner=owner)
        assert len(got) == len(per_state)
        for s, mine in enumerate(per_state):
            want = _sequential_refine(mine, lambda c, s=s: landscape(c, shift[s]), _offsets(2),
                                      proj)
            assert np.array_equal(got[s][0], want[0]) and got[s][1] == want[1], s
            assert got[s][2] == want[2] and np.array_equal(got[s][3], want[3]), s

    # in one pass, state 0's search falls below _MIN_WIDTH and state 2's
    # reaches the step cap, each after 190 diagonal moves onto a well's
    # bottom and three passes of shrinks, while state 1's runs on
    per_state = [
        [start(0, [0.5 + 190 * 2.0 ** -37, -0.25 + 190 * 2.0 ** -37], 2.0 ** -37)],
        [start(1, [40.0, -30.0], 1e-3)],
        [start(2, [0.5 + 190 * 2.0 ** -10, -0.25 + 190 * 2.0 ** -10], 2.0 ** -10)],
    ]
    passes = []

    def evaluate(cand, owner):
        passes.append(set(owner.tolist()))
        return landscape(cand, shift[owner][:, None, :])

    got = _refine([mine[0] for mine in per_state[::-1]], evaluate, _offsets(2), owner=[2, 1, 0])
    last = [max(k for k, states in enumerate(passes) if s in states) for s in range(3)]
    assert last == [192, len(passes) - 1, 192] and len(passes) == REFINEMENT_ITERATIONS
    for s, mine in enumerate(per_state):
        want = _sequential_refine(mine, lambda c, s=s: landscape(c, shift[s]), _offsets(2))
        assert want[4] == [[197], [REFINEMENT_ITERATIONS], [REFINEMENT_ITERATIONS]][s]
        assert np.array_equal(got[s][0], want[0]) and got[s][1] == want[1], s
        assert got[s][2] == want[2] and np.array_equal(got[s][3], want[3]), s


def _sequential_oracle_refine(starts, evaluate, offsets, project=None, *, owner, steps_of=None):
    # `_refine`'s interface, each state's starts searched one after another
    # and step by step by `_sequential_refine`
    out = []
    for state in range(max(owner) + 1):
        mine = [s for s, o in zip(starts, owner) if o == state]
        one = lambda cand, state=state: evaluate(cand[None], np.array([state]))[0]  # noqa: E731
        x, value, evals, history, _ = _sequential_refine(mine, one, offsets, project, steps_of)
        out.append((np.array(x), value, evals, history))
    return out


def test_capped_product_search_matches_a_sequential_search(monkeypatch):
    # a rank-1 state whose product search stops at the step cap (ROADMAP
    # item 8): the passes must give the step-by-step search's every bit
    from belldyn import oracle

    r = np.random.default_rng(1)
    for _ in range(98):
        g = r.normal(size=(4, 1)) + 1j * r.normal(size=(4, 1))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    [got] = oracle_closest_product([rho])
    monkeypatch.setattr(oracle, "_refine", _sequential_oracle_refine)
    [want] = oracle_closest_product([rho])
    assert got.evaluations == want.evaluations == 1 + 12 * REFINEMENT_ITERATIONS
    assert len(got.history) == REFINEMENT_ITERATIONS + 2
    assert np.array_equal(got.minimizer, want.minimizer) and got.value == want.value
    assert np.array_equal(got.history, want.history)


def test_product_search_on_the_figure_state_takes_few_passes(monkeypatch):
    # on a Bell-diagonal state the search never leaves the centre: its 44
    # shrinks from width 1 take passes of 2, 4, 8, 16 and 14 levels, so
    # the centre and the refinement make 6 objective calls (45 step by step)
    from belldyn import oracle

    calls = []
    real = oracle._product_values

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_product_values", counted)
    [res] = oracle_closest_product([bell_spectrum_to_density(LAM_FIG)])
    assert len(calls) <= 8
    assert res.evaluations == 1 + 12 * 44


def test_cached_grids_are_read_only():
    # only the classical search builds cached grid work; the separable and
    # product searches start from their family's centre
    oracle_closest_classical([np.eye(4) / 4])
    for build in (_direction_grid, _stencil):
        assert build.cache_info().currsize == 1
        for arr in build():
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 0


def test_grid_caches_are_built_lazily():
    code = (
        "import belldyn.cli\n"
        "from belldyn import oracle\n"
        "print([f.cache_info().currsize for f in "
        "(oracle._direction_grid, oracle._stencil)])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[0, 0]"


def test_arc_length_phi_step_turns_a_direction_by_about_the_width():
    # a pure phi step turns the direction by 2 sin(theta) sin(dphi / 2): with
    # dphi = w / sin(theta) that is w to within 4%, next to a pole as well
    w = 1e-3
    for theta in (2e-3, 0.05, 1.0, math.pi / 2, math.pi - 2e-3):
        quads = np.array([[theta, 0.3, math.pi - theta, 5.0]])
        step = _arc_length_steps(quads, np.array([w]))[0]
        assert step[0] == step[2] == w
        for k in (1, 3):
            turn = 2.0 * math.sin(quads[0, k - 1]) * math.sin(step[k] / 2.0)
            assert 0.95 * w < turn <= w, (theta, k)
    # on the pole itself a phi step cannot turn the direction: it is capped at 1
    assert np.array_equal(_arc_length_steps(np.zeros((1, 4)), np.array([w])),
                          [[w, 1.0, w, 1.0]])


def test_classical_oracle_reaches_d_on_near_mixed_states():
    # near the maximally mixed state the objective is nearly flat, so a stop
    # rule with a fixed decrease constant would end short of D; the pattern
    # search must still reach it
    rng = np.random.default_rng(31)
    spectra = [(1.0 - p) / 4.0 + p * rng.dirichlet(np.ones(4))
               for p in (0.03, 0.01) for _ in range(16)]
    found = oracle_closest_classical([bell_spectrum_to_density(lam) for lam in spectra])
    d = bell_quantifiers(np.array(spectra))[1]
    assert np.max(np.abs(np.array([r.value for r in found]) - d)) < 1e-14


def test_separable_oracle_meets_e_from_the_centre_of_the_slice():
    # the search starts at q = 1/4 with no grid; S(rho || sigma) is convex on
    # the convex slice, so it reaches E = 1 - h(lam_max) (0 for lam_max <= 1/2)
    # from there, on sparse and flat spectra, at the lam_max = 1/2 boundary,
    # near pure states and on a spectrum whose closest q4 is 0
    rng = np.random.default_rng(41)
    spectra = [rng.dirichlet(np.full(4, a)) for a in (0.05, 1.0) for _ in range(150)]
    for top in [0.5 + s * 10.0 ** -k for k in range(1, 16) for s in (1, -1)]:
        spectra.append(np.array([top, *rng.dirichlet(np.ones(3)) * (1.0 - top)]))
    for d in np.geomspace(1e-12, 1e-2, 20):
        spectra.append(np.array([1.0 - d, *rng.dirichlet(np.ones(3)) * d]))
    spectra.append(np.array([0.0002, 0.5496, 0.4502, 0.0]))
    found = oracle_closest_separable_bd(spectra)
    gap = np.array([r.value for r in found]) - bell_quantifiers(np.array(spectra))[3]
    assert np.max(-gap) <= 1e-14 and np.max(gap) < 1e-12
    for res in found:
        assert len(res.history) - 2 < REFINEMENT_ITERATIONS  # stopped by its width
        assert res.evaluations == 1 + (len(res.history) - 2) * len(_offsets(3)) <= 5000


# The three kernels as they were written before they evaluated in place,
# with np.clip, np.stack and a list of the four (s, t) terms; the in-place
# forms must keep every bit of them.
_REF_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _ref_dephased_entropy(alpha, beta, kappa):
    h = 0.0
    for s, t in _REF_SIGNS:
        h = h - _xlog2(np.clip((1.0 + s * alpha + t * beta + s * t * kappa) / 4.0, 0.0, 1.0))
    return h


def _ref_directions(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _ref_product_values(a_vec, b_vec, corr, params, s_rho):
    va, vb = params[..., :3], params[..., 3:]
    ra, rb = np.sqrt(_dot3(va, va)), np.sqrt(_dot3(vb, vb))
    na = va / np.where(ra > 0.0, ra, 1.0)[..., None]
    nb = vb / np.where(rb > 0.0, rb, 1.0)[..., None]
    alpha, beta = _dot3(na, a_vec), _dot3(nb, b_vec)
    kappa = _dot3(na, _dot3(corr, nb[..., None, :]))
    w = np.stack([(1.0 + s * ra) * (1.0 + t * rb) / 4.0 for s, t in _REF_SIGNS], axis=-1)
    overlap = np.stack([1.0 + s * alpha + t * beta + s * t * kappa for s, t in _REF_SIGNS], axis=-1)
    return _support_rule(w, overlap / 4.0, s_rho)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dephased_entropy_keeps_every_bit_of_the_clip_form():
    rng = np.random.default_rng(53)
    _, _, u = _direction_grid()
    cases = []
    for rho in [_general_state(rng, rank) for rank in (4, 2, 1)]:
        a_vec, b_vec, corr = _pauli_data(rho)
        # a 24-row chunk of the grid, (24, 1) x (1, 265)
        cases.append(((u[:N] @ a_vec)[:, None], (u @ b_vec)[None, :], u[:N] @ corr @ u.T))
    # the stencil, (n, 9, 1) x (n, 1, 9)
    ua, ub = (_directions(rng.uniform(0, math.pi, (12, 9)), rng.uniform(0, 2 * math.pi, (12, 9)))
              for _ in range(2))
    a_vec, b_vec, corr = _pauli_data(_general_state(rng, 3))
    cases.append(((ua @ a_vec)[..., None], (ub @ b_vec)[:, None, :], ua @ corr @ np.swapaxes(ub, 1, 2)))
    # alpha, beta and kappa a few ulps from 1, as for a pure product state
    # seen along its own Bloch vectors: some outcomes round above 1 or below 0
    ones = 1.0 + np.arange(-4, 5) * 2.0**-52
    alpha, beta, kappa = ones[:, None], ones[None, :], ones[:, None] * ones[None, :]
    cases.append((alpha, beta, kappa))
    raw = [(1.0 + s * alpha + t * beta + s * t * kappa) / 4.0 for s, t in _REF_SIGNS]
    assert min(p.min() for p in raw) < 0.0 and max(p.max() for p in raw) > 1.0
    # 0-d scalars, and alpha = beta = kappa = 1, where every term is 0
    cases += [(0.3, -0.2, 0.1), (np.float64(0.9), np.float64(0.8), np.float64(0.75)),
              (1.0, 1.0, 1.0), (np.ones((2, 1)), np.ones((1, 3)), np.ones((2, 3)))]
    # a stack of 2 x 2 blocks, one per state: (n, 2, 1) x (n, 1, 2)
    data = [_pauli_data(_general_state(rng, rank)) for rank in (4, 3, 2, 1, 2)]
    a_vec, b_vec, corr = (np.array(x) for x in zip(*data))
    ur = _directions(rng.uniform(0, math.pi, (2, 2)), rng.uniform(0, 2 * math.pi, (2, 2)))
    alpha, beta = np.matmul(ur[:, 0], a_vec[..., None]), np.matmul(ur[:, 1], b_vec[..., None])
    cases.append((alpha, np.swapaxes(beta, -1, -2), ur[:, 0] @ corr @ ur[:, 1].T))
    assert [np.shape(x) for x in cases[-1]] == [(5, 2, 1), (5, 1, 2), (5, 2, 2)]
    # 0-d alpha and beta against an array kappa
    cases.append((0.3, np.float64(-0.2), rng.uniform(-1, 1, (3, 4))))
    # NaN inputs: every outcome they reach is NaN, whose term _xlog2 scores +0.0
    nan = math.nan
    cases += [(np.array([[nan], [0.2], [0.1]]), np.array([[0.3, nan]]), rng.uniform(-0.5, 0.5, (3, 2))),
              (nan, nan, nan), (0.1, 0.2, np.array([nan, 0.3]))]
    for alpha, beta, kappa in cases:
        _assert_same_bits(_dephased_entropy(alpha, beta, kappa),
                          _ref_dephased_entropy(alpha, beta, kappa))
    # h starts at +0.0, so 0.0 - 0.0 - ... stays +0.0
    assert float(_dephased_entropy(1.0, 1.0, 1.0)).hex() == "0x0.0p+0"
    assert float(_dephased_entropy(nan, 0.2, 0.1)).hex() == "0x0.0p+0"
    assert _dephased_entropy(0.1, 0.2, np.array([nan, 0.3]))[0].hex() == "0x0.0p+0"


def test_refine_candidates_keep_every_bit_of_the_plain_stack():
    # _refine builds its candidates with the coordinate axis outermost; each
    # step's (search, offset, coordinate) stack must be x + step * offset of
    # the plain broadcast, bit for bit. A pass-through steps_of records x and
    # step (the width itself where the oracle passes no steps_of); the
    # closures run inside their own loop pass.
    rng = np.random.default_rng(67)
    axes = np.concatenate([np.eye(6), -np.eye(6)])
    for offsets, steps_of in ((_offsets(4), _arc_length_steps), (_offsets(3), None), (axes, None)):
        assert offsets.shape in ((80, 4), (26, 3), (12, 6))
        dim, seen = offsets.shape[1], []
        target = rng.uniform(0.0, 3.0, (3, dim))

        def record(x, width):
            step = width[:, None] if steps_of is None else steps_of(x, width)
            seen.append((x.copy(), step))
            return step

        def evaluate(cand, owner):
            x, step = seen[-1]
            _assert_same_bits(cand, x[:, None, :] + step[:, None, :] * offsets)
            return np.sum((cand - target[owner, None, :]) ** 2, axis=-1)

        x0 = rng.uniform(0.0, 3.0, (6, dim))
        starts = [(x, float(np.sum((x - target[i // 2]) ** 2)), w)
                  for i, (x, w) in enumerate(zip(x0, (1.0, 0.25, 1e-3, 0.7, 1e-6, 0.5)))]
        _refine(starts, evaluate, offsets, owner=[0, 0, 1, 1, 2, 2], steps_of=record)
        # the searches stop at different steps, so later steps gather a subset
        assert len(seen) > 40 and min(len(x) for x, _ in seen) < len(starts)


def test_directions_keep_every_bit_of_the_stack_form():
    rng = np.random.default_rng(59)
    th, ph, u = _direction_grid()
    _assert_same_bits(u, _ref_directions(th, ph))
    for shape in ((12, 9), (2, 2), ()):  # stencil, a small block, one scalar
        theta, phi = rng.uniform(0, math.pi, shape), rng.uniform(0, 2 * math.pi, shape)
        _assert_same_bits(_directions(theta, phi), _ref_directions(theta, phi))
    _assert_same_bits(_directions(0.4, 5.0), _ref_directions(0.4, 5.0))


def _ref_product_basis(angles):
    ta, pa, tb, pb = (float(x) for x in angles)
    local = []
    for theta, phi in ((ta, pa), (tb, pb)):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        e = complex(math.cos(phi), math.sin(phi))
        local.append(np.array([[c, -s], [e * s, e * c]], dtype=complex))
    return np.kron(*local)


def test_dephase_keeps_every_bit_of_the_kron_form():
    # the product basis as one broadcast product, against np.kron of the two
    # local bases; and dephase_in_basis against the route built on np.kron
    rng = np.random.default_rng(73)
    states = [_general_state(rng, rank) for rank in (4, 3, 2, 1)]
    states += [bell_spectrum_to_density(lam) for lam in EDGE_SPECTRA]
    quads = [rng.uniform(-2 * math.pi, 2 * math.pi, 4) for _ in range(40)]
    quads += [(0, 0, 0, 0), (math.pi, 0.0, math.pi / 2, math.pi), [1e-300, -0.0, 3.0, 7.5]]
    for angles in quads:
        b = _ref_product_basis(angles)
        assert _product_basis(angles).tobytes() == b.tobytes()
        for rho in states:
            a = np.asarray(rho, dtype=complex)
            p = np.clip(np.real(np.einsum("ik,ij,jk->k", b.conj(), a, b)), 0.0, None)
            assert dephase_in_basis(rho, angles).tobytes() == ((b * p) @ b.conj().T).tobytes()


def _ref_separable_evaluate(lam):
    # the separable objective as it was written with np.errstate, which hid
    # the 0 * inf of each dropped term
    def evaluate(cand, owner):
        q = np.concatenate([cand, 1.0 - cand.sum(axis=-1, keepdims=True)], axis=-1)
        feasible = np.all((q >= 0.0) & (q <= 0.5), axis=-1)
        log_q = np.where(q < 1e-15, -math.inf, np.log2(np.where(q > 0.0, q, 1.0)))
        lam_o = lam[owner, None]
        pos = lam_o > 0.0
        with np.errstate(invalid="ignore"):
            terms = np.where(pos, lam_o * (np.log2(np.where(pos, lam_o, 1.0)) - log_q), 0.0)
        values = ((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + terms[..., 3]
        return _clamp_residue(np.where(feasible, values, math.inf))

    return evaluate


def test_separable_objective_keeps_every_bit_with_no_floating_point_error(monkeypatch):
    # spectra with exact zeros meet candidates with q_i < 1e-15 (log2 q_i =
    # -inf): the objective masks log2 lam - log2 q before the multiply, so it
    # forms no 0 * inf and needs no errstate. The closest separable state of
    # the third spectrum has q4 = 0
    from belldyn import oracle

    lam = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0002, 0.5496, 0.4502, 0.0]])
    real, seen = oracle._refine, []

    def spy(starts, evaluate, *args, **kwargs):
        seen.append(evaluate)
        return real(starts, evaluate, *args, **kwargs)

    monkeypatch.setattr(oracle, "_refine", spy)
    with np.errstate(all="raise"):
        found = oracle_closest_separable_bd(list(lam))
    [evaluate] = seen
    ref = _ref_separable_evaluate(lam)
    # the whole search, step by step, as the errstate form runs it
    owner = np.arange(len(lam))
    centre = ref(np.full((len(lam), 1, 3), 0.25), owner)[:, 0]
    want = real([(np.full(3, 0.25), float(v), 0.25) for v in centre], ref, _offsets(3),
                lambda cand: np.clip(cand, 0.0, 0.5), owner=owner)
    for res, (x, value, evals, history) in zip(found, want):
        assert res.value.hex() == float(_clamp_residue(value)).hex()
        assert res.evaluations == 1 + evals
        assert res.history.tobytes() == history.tobytes()
        assert res.minimizer.tobytes() == bell_spectrum_to_density(np.append(x, 1.0 - x.sum())).tobytes()
    assert 1.0 - want[2][0].sum() == 0.0  # q4 = 0
    # candidates at and past the slice's facets, with exact zeros and with
    # coefficients below 1e-15, against every spectrum
    points = np.concatenate([np.random.default_rng(79).uniform(-0.1, 0.6, (50, 3)),
                             [[0.5, 0.5, 0.0], [0.0, 0.0, 0.5], [1e-16, 0.5, 0.25],
                              [0.25, 0.25, 0.25], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]])
    cand = np.repeat(points[None], len(lam), axis=0)
    with np.errstate(all="raise"):
        got = evaluate(cand, owner)
    assert np.isinf(got).any() and np.isfinite(got).any()
    _assert_same_bits(got, ref(cand, owner))


def test_product_values_keep_every_bit_of_the_list_and_stack_form():
    rng = np.random.default_rng(61)
    states = [_general_state(rng, rank) for rank in (4, 3, 2, 1)]
    states += [bell_spectrum_to_density(lam) for lam in EDGE_SPECTRA]
    a_vec, b_vec, corr = (np.array(x)[:, None] for x in zip(*map(_pauli_data, states)))
    s_rho = np.array([von_neumann_entropy(rho) for rho in states])[:, None]
    va, vb = _ball_points(rng, 4), _ball_points(rng, 4)
    cands = np.concatenate([np.repeat(va, len(vb), axis=0), np.tile(vb, (len(va), 1))], axis=1)
    stencil = cands[None, :12] + 0.1 * np.concatenate([np.eye(6), -np.eye(6)])
    stencil = np.repeat(stencil, len(states), axis=0)
    # (n, 1) data against (m, 6) points; the refinement, one (12, 6) stencil
    # per state; and one state's data alone
    args = [(a_vec, b_vec, corr, cands, s_rho), (a_vec, b_vec, corr, stencil, s_rho),
            (a_vec[0, 0], b_vec[0, 0], corr[0, 0], cands, s_rho[0, 0])]
    seen_inf = 0
    for arg in args:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _product_values(*arg)
        _assert_same_bits(got, _ref_product_values(*arg))
        seen_inf += np.sum(np.isinf(got))
    assert seen_inf > 0


def test_product_oracle_meets_mutual_information_from_the_centre():
    # T = I(A:B) = S(rhoA) + S(rhoB) - S(rho) for every state (the closest
    # product state is rhoA x rhoB), so general states test this oracle too
    rng = np.random.default_rng(43)
    states = [_general_state(rng, rank) for rank in (2, 3, 4) for _ in range(20)]
    states += [bell_spectrum_to_density(lam) for lam in EDGE_SPECTRA]
    found = oracle_closest_product(states)
    for rho, res in zip(states, found):
        r = rho.reshape(2, 2, 2, 2)
        rho_a, rho_b = np.einsum("ajbj->ab", r), np.einsum("jajb->ab", r)
        mutual = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho)
        assert abs(res.value - mutual) < 1e-12
        steps = len(res.history) - 2
        assert steps < REFINEMENT_ITERATIONS  # stopped by its width
        assert res.evaluations == 1 + steps * 12  # the centre, then 12 axis moves a step


# The figure trajectory's features: each switching time, criterion 4's death
# boundaries, tau = pi/4 and tau = k pi/2, and 1e-9 to either side of each.
# The spectrum depends on tau only through f, of period pi/2, so one period
# holds them all.
FEATURE_TAUS = sorted(
    tau + d
    for tau in (0.0, math.pi / 4, math.pi / 2, DEATH_LO, DEATH_HI,
                *detect_switching_times(LAM_FIG, math.pi / 2))
    for d in (-1e-9, 0.0, 1e-9) if tau + d >= 0.0
)


def _spectrum(head, weights, order):
    # the head entries and the rest of the unit mass split by weights, in order
    head = np.asarray(head, dtype=float)
    rest = np.asarray(weights, dtype=float) / np.sum(weights) * (1.0 - head.sum())
    return np.concatenate([head, rest])[list(order)]


def _weights(n):
    # zeros included, so that a closest state may sit on a face q_i = 0
    return st.lists(st.integers(0, 1000), min_size=n, max_size=n).filter(any)


_orders = st.permutations(range(4))
_powers = st.integers(1, 15).map(lambda k: 10.0 ** -k)
_signs = st.sampled_from((1.0, -1.0))


@st.composite
def _tied_c_vectors(draw):
    # |c_i| = |c_j| +- 10^-k, inside the octahedron sum |c_k| <= 1, which the
    # Bell tetrahedron contains
    a = draw(st.floats(0.0, 0.44))
    b = a + draw(_signs) * draw(_powers) if a > 0.1 else a + draw(_powers)
    c = np.array([a, b, draw(st.floats(0.0, 1.0)) * (1.0 - a - b)])
    c = c[list(draw(st.permutations(range(3))))] * draw(st.tuples(_signs, _signs, _signs))
    return (1.0 + BELL_C_VECTORS @ c) / 4.0


@st.composite
def _face_spectra(draw):
    # pure, rank-2 and rank-3 spectra: the faces of the Bell simplex
    rank = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 1000), min_size=rank, max_size=rank))
    return _spectrum([], weights + [0] * (4 - rank), draw(_orders))


edge_spectra = st.one_of(
    # sparse spectra
    st.integers(0, 2**32 - 1).map(lambda s: np.random.default_rng(s).dirichlet(np.full(4, 0.05))),
    # one or two entries in (0, 1e-15)
    st.integers(1, 2).flatmap(lambda n: st.builds(
        _spectrum, st.lists(st.floats(0.0, 1e-15, exclude_min=True), min_size=n, max_size=n),
        _weights(4 - n), _orders)),
    # lam_max = 1/2 +- 10^-k
    st.builds(lambda sign, p, w, order: _spectrum([0.5 + sign * p], w, order),
              _signs, _powers, _weights(3), _orders),
    _tied_c_vectors(),
    _face_spectra(),
)


@example([evolve_bell_spectrum(LAM_FIG, tau) for tau in FEATURE_TAUS])
@settings(max_examples=15, deadline=None)
@given(st.lists(edge_spectra, min_size=1, max_size=8))
def test_each_oracle_meets_its_closed_form_on_edge_spectra(spectra):
    # the CI gate's 1e-12 bits, on the spectra where the searches are
    # hardest, one batch per draw. The known worst case is the separable
    # family's where two coefficients lie in (0, 1e-15), below the smallest
    # q its scoring admits: 6.6e-14 bits at tau = k pi/2 +- 1e-9, and
    # 3.3e-13 at (2e-45, 1/2, 1/2, 2e-45)
    rhos = [bell_spectrum_to_density(lam) for lam in spectra]
    t, d, _, e = bell_quantifiers(np.array(spectra))
    # the separable search fixes q4 by normalization, not as a coordinate,
    # so its cheap family also meets each spectrum with every entry once in
    # the fourth place; E does not depend on the order
    rotated = [np.roll(lam, k) for lam in spectra for k in range(4)]
    found = {
        "classical": (oracle_closest_classical(rhos), spectra, d),
        "separable": (oracle_closest_separable_bd(rotated), rotated, np.repeat(e, 4)),
        "product": (oracle_closest_product(rhos), spectra, t),
    }
    for family, (results, drawn, want) in found.items():
        gap = np.abs(np.array([r.value for r in results]) - want)
        k = int(np.argmax(gap))
        assert gap[k] < 1e-12, (family, drawn[k].tolist(), gap[k])


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _x_state(az, cx, cz):
    # (I x I + az Z x I + cx X x X + cz Z x Z) / 4, a state when
    # sqrt(az^2 + cx^2) <= 1 - |cz|. Its B marginal is 0, so w = s C^T ua and
    # the floor meets the pole row's exact minimum; the first start is the
    # pole, and on rows near it w turns over 60 degrees from that start's B
    # direction, where the second start's floor must keep the plain |w|
    eye = np.eye(2)
    return (np.eye(4) + az * np.kron(PAULI[2], eye) + cx * np.kron(PAULI[0], PAULI[0])
            + cz * np.kron(PAULI[2], PAULI[2])) / 4.0


@st.composite
def _floor_states(draw):
    # general states of ranks 1-4; product states with |rA| = |rB| = 1, rA
    # drawn or a grid direction, so that a weight 1 + s alpha is 0; near-pure
    # mixtures 0.999 pA x pB + 0.001 m with |rA| = 1 - 10^-k; Bell-diagonal
    # edge spectra; and the X states above
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("general", "pure product", "near-pure", "edge", "x")))
    if kind == "general":
        return _general_state(rng, draw(st.integers(1, 4)))
    if kind == "edge":
        return bell_spectrum_to_density(draw(edge_spectra))
    if kind == "x":
        return _x_state(draw(st.floats(0.3, 0.7)), draw(st.floats(0.2, 0.5)), draw(st.floats(0.0, 0.1)))
    ra = draw(st.one_of(st.just(None), st.integers(0, 264)))
    ra = _unit(rng) if ra is None else _direction_grid()[2][ra]
    if kind == "pure product":
        return _product_states(np.concatenate([ra, _unit(rng)])[None])[0]
    ra = ra * (1.0 - 10.0 ** -draw(st.integers(1, 12)))
    pair = _product_states(np.concatenate([ra, rng.uniform(0.0, 1.0) * _unit(rng)])[None])[0]
    return 0.999 * pair + 0.001 * _general_state(rng, 4)


@example(_x_state(0.6, 0.5, 0.1))
@settings(max_examples=100, deadline=None)
@given(_floor_states())
def test_row_floors_stay_below_each_rows_exact_minimum(rho):
    # the floor of each row may not exceed the row's exact minimum: the plain
    # form over every column, the second start's over its eligible columns
    # (its restricted form on the rows within 60 degrees of the first start's
    # A direction). The worst seen is 7.1e-15 bits, far inside the slack
    from belldyn import oracle

    _, _, u = _direction_grid()
    a_vec, b_vec, corr = _pauli_data(rho)
    s_rho = von_neumann_entropy(rho)
    real, floors = oracle._row_floors, []

    def kept(*args):
        floors.append(real(*args))
        return floors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_row_floors", kept)
        (ia, ib, _), *_ = _grid_starts(u, a_vec, b_vec, corr, s_rho)
    grid = _classical_values(a_vec, b_vec, corr, u, u, s_rho)
    far_a, far_b = np.abs(u @ u[ia]) <= 0.5, np.abs(u @ u[ib]) <= 0.5
    eligible = np.where(far_a[:, None] | far_b, grid, np.inf).min(axis=1)
    assert len(floors) == 2
    assert np.max(floors[0] - grid.min(axis=1)) <= 1e-12
    assert np.max(floors[1] - eligible) <= 1e-12
