import math
import subprocess
import sys

import numpy as np
import pytest

from belldyn.correlations import (
    binary_entropy,
    closest_classical_bd,
    closest_separable_bd,
)
from belldyn.dynamics import bell_spectrum_to_density, evolve_bell_spectrum
from belldyn.linalg import dephase_in_basis, relative_entropy, trace_distance, von_neumann_entropy
from belldyn.oracle import (
    _MIN_WIDTH,
    REFINEMENT_ITERATIONS,
    REFINEMENT_SHRINK,
    _direction_grid,
    _offsets,
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
    rho = bell_spectrum_to_density(lam)
    s_rho = von_neumann_entropy(rho)
    d = von_neumann_entropy(closest_classical_bd(lam)) - s_rho
    lam_max = float(np.max(lam))
    e = 1.0 - binary_entropy(lam_max) if lam_max > 0.5 + 1e-12 else 0.0
    t = 2.0 - s_rho
    return d, e, t


def test_classical_on_classical_input():
    chi = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert oracle_closest_classical(chi).value < 1e-9


def test_classical_on_fig_state():
    res = oracle_closest_classical(bell_spectrum_to_density(LAM_FIG))
    assert abs(res.value - (1 - H09)) < GRID_TOL
    assert trace_distance(res.minimizer, np.diag([0, 0.5, 0.5, 0])) < 1e-6


def test_classical_on_maximally_mixed():
    assert oracle_closest_classical(np.eye(4) / 4).value < 1e-9


def test_separable_examples():
    res = oracle_closest_separable_bd([0.4, 0.3, 0.2, 0.1])
    assert res.value < 1e-9
    res = oracle_closest_separable_bd(LAM_FIG)
    assert abs(res.value - (1 - H09)) < GRID_TOL
    res = oracle_closest_separable_bd([1.0, 0.0, 0.0, 0.0])
    assert abs(res.value - 1.0) < GRID_TOL


def test_product_examples():
    rho01 = np.zeros((4, 4), dtype=complex)
    rho01[1, 1] = 1.0
    assert oracle_closest_product(rho01).value < 1e-9

    res = oracle_closest_product(bell_spectrum_to_density(LAM_FIG))
    assert abs(res.value - (2 - H09)) < GRID_TOL
    assert trace_distance(res.minimizer, np.eye(4) / 4) < 1e-2

    bell = bell_spectrum_to_density([0, 0, 1, 0])
    assert abs(oracle_closest_product(bell).value - 2.0) < GRID_TOL


def test_product_on_mixed_product_state():
    a = np.diag([0.75, 0.25]).astype(complex)
    b = np.diag([0.4, 0.6]).astype(complex)
    res = oracle_closest_product(np.kron(a, b))
    assert res.value < 1e-9


def test_deterministic_given_seed():
    rho = bell_spectrum_to_density([0.55, 0.3, 0.1, 0.05])
    for call in (
        lambda: oracle_closest_classical(rho, seed=42),
        lambda: oracle_closest_separable_bd(np.array([0.55, 0.3, 0.1, 0.05])),
        lambda: oracle_closest_product(rho),
    ):
        r1, r2 = call(), call()
        assert r1.value == r2.value
        assert r1.evaluations == r2.evaluations
        assert np.array_equal(r1.minimizer, r2.minimizer)
        assert np.array_equal(r1.history, r2.history)


def test_history_is_monotone():
    rho = bell_spectrum_to_density([0.7, 0.2, 0.06, 0.04])
    for res in (
        oracle_closest_classical(rho),
        oracle_closest_separable_bd([0.7, 0.2, 0.06, 0.04]),
        oracle_closest_product(rho),
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
        oc = oracle_closest_classical(rho).value
        os_ = oracle_closest_separable_bd(lam).value
        op = oracle_closest_product(rho).value
        # the search may only match or beat the analytic candidate...
        assert oc <= d + 1e-9 and os_ <= e + 1e-9 and op <= t + 1e-9
        # ...and the analytic candidate must survive the grid resolution
        assert d <= oc + GRID_TOL and e <= os_ + GRID_TOL and t <= op + GRID_TOL


def test_classical_objective_matches_matrix_route():
    # the fast Bloch-form objective must equal S(rho || dephase(rho, basis))
    rng = np.random.default_rng(7)
    from belldyn.oracle import _classical_values_quads, _pauli_data

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


def test_oracle_confirms_fresh_classical_construction_after_switch():
    # past the switching time the dominant-direction construction must be
    # the one the brute force finds, not the evolved initial construction
    tau = 0.5 * math.asin(math.sqrt(0.4))  # f = 0.2
    lam_t = evolve_bell_spectrum(LAM_FIG, tau)
    rho_t = bell_spectrum_to_density(lam_t)
    res = oracle_closest_classical(rho_t)
    d_fresh = relative_entropy(rho_t, closest_classical_bd(lam_t))
    assert abs(res.value - d_fresh) < GRID_TOL
    assert res.value < (1 - H09) - 0.2  # well below the evolved-chi distance


def test_separable_oracle_value_matches_matrix_route():
    rng = np.random.default_rng(9)
    for _ in range(5):
        lam = rng.dirichlet(np.ones(4))
        res = oracle_closest_separable_bd(lam)
        direct = relative_entropy(bell_spectrum_to_density(lam), res.minimizer)
        assert abs(res.value - direct) < 1e-9


def _sequential_refine(starts, evaluate, offsets, project=None):
    # one search after the other, as `_refine` ran before its lockstep form;
    # also returns the number of steps each start took
    best_x, best = starts[0][0], starts[0][1]
    trace, evals, steps = [best], 0, []
    for x0, value0, width0 in starts:
        x, value, width = np.asarray(x0, dtype=float), float(value0), float(width0)
        trace.append(value)
        n = 0
        while n < REFINEMENT_ITERATIONS and width >= _MIN_WIDTH:
            cand = x[None, :] + width * offsets
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
    steps_seen = {}
    for name, starts in scenarios.items():
        for project in (None, lambda c: np.clip(c, -1.0, 1.5)):
            want = _sequential_refine(starts, evaluate, _offsets(2), project)
            got = _refine(starts, evaluate, _offsets(2), project)
            assert np.array_equal(got[0], want[0]), name
            assert got[1] == want[1] and got[2] == want[2], name
            assert np.array_equal(got[3], want[3]), name
            if project is None:
                steps_seen[name] = want
    # the scenarios exercise what their names say
    assert len(set(steps_seen["different_steps"][4])) == 2
    assert REFINEMENT_ITERATIONS in steps_seen["iteration_cap"][4]
    assert steps_seen["never_improves"][1] == -1.0
    tie = steps_seen["tie"]
    assert tie[1] == 0.0 and np.array_equal(tie[0], wells[0])


def test_cached_grids_are_read_only():
    # the maximally mixed state scores 0 at its grid start, so the separable
    # and product searches never move and hand a cached row back as their
    # best point
    oracle_closest_classical(np.eye(4) / 4)
    oracle_closest_separable_bd([0.25, 0.25, 0.25, 0.25])
    oracle_closest_product(np.eye(4) / 4)
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
