import math
import subprocess
import sys

import numpy as np
import pytest

from belldyn.correlations import bell_quantifiers, closest_classical_bd
from belldyn.dynamics import bell_spectrum_to_density, evolve_bell_spectrum
from belldyn.linalg import dephase_in_basis, relative_entropy, trace_distance, von_neumann_entropy
from belldyn.oracle import (
    _MIN_WIDTH,
    GRID_POINTS_PER_ANGLE,
    REFINEMENT_ITERATIONS,
    REFINEMENT_SHRINK,
    _classical_values_grid,
    _dephased_entropy,
    _direction_grid,
    _arc_length_steps,
    _offsets,
    _pauli_data,
    _product_grid,
    _refine,
    _simplex_grid,
    oracle_closest_classical,
    oracle_closest_product,
    oracle_closest_separable_bd,
)

LAM_FIG = np.array([0.9, 0.1, 0.0, 0.0])
H09 = 0.4689955935892812
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
    assert oracle_closest_classical([]) == []
    assert oracle_closest_separable_bd([]) == []
    assert oracle_closest_product([]) == []


def test_deterministic_given_seed():
    rho = bell_spectrum_to_density([0.55, 0.3, 0.1, 0.05])
    for call in (
        lambda: oracle_closest_classical([rho], seed=42)[0],
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
    from belldyn.oracle import _classical_values_quads

    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        quad = np.array([
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
        ])
        a_vec, b_vec, corr = _pauli_data(rho)
        fast = _classical_values_quads(a_vec, b_vec, corr, quad[None, :],
                                       von_neumann_entropy(rho))[0]
        slow = relative_entropy(rho, dephase_in_basis(rho, quad))
        assert abs(fast - slow) < 1e-10


N = GRID_POINTS_PER_ANGLE
# the spectra at the edges of the Bell simplex that the golden file pins
EDGE_SPECTRA = ([0.9, 0.1, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25],
                [0.5, 0.5, 0.0, 0.0])


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
        hemi = _classical_values_grid(a_vec, b_vec, corr, u, s_rho)
        assert abs(hemi.min() - full.min()) < 1e-15


def test_classical_evaluations_count_the_hemisphere_grid():
    # 265^2 grid pairs, the two restarts and one pattern per refinement step;
    # the history holds the lead value, each start's value and one per step
    for rho in (bell_spectrum_to_density(LAM_FIG), _general_state(np.random.default_rng(5), 4)):
        res = oracle_closest_classical([rho], seed=3)[0]
        steps = len(res.history) - 4
        assert steps > 0
        assert res.evaluations == 265 ** 2 + 2 + steps * len(_offsets(4))


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


def test_cached_grids_are_read_only():
    # the maximally mixed state scores 0 at its grid start, so the separable
    # and product searches never move and hand a cached row back as their
    # best point
    oracle_closest_classical([np.eye(4) / 4])
    oracle_closest_separable_bd([[0.25, 0.25, 0.25, 0.25]])
    oracle_closest_product([np.eye(4) / 4])
    for build in (_direction_grid, _simplex_grid, _product_grid):
        assert build.cache_info().currsize == 1
        for arr in build():
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 0


def test_grid_caches_are_built_lazily():
    code = (
        "import belldyn.cli\n"
        "from belldyn import oracle\n"
        "print([f.cache_info().currsize for f in "
        "(oracle._direction_grid, oracle._simplex_grid, oracle._product_grid)])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[0, 0, 0]"


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
