"""Brute-force relative-entropy minimizers over closest-state families.

These searches are deliberately independent of the closed-form closest
states in `belldyn.correlations`: they grid the relevant family, refine
the best cell with a shrinking pattern search, and report the minimum
found. They exist to certify the analytic formulas, so they never assume
them.

Three families are covered:

* classical states (diagonal in some product basis): for a fixed basis
  the optimal diagonal is the dephased diagonal of rho, so the search
  space is exactly the four local Bloch angles;
* separable Bell-diagonal states (all coefficients <= 1/2), searched on
  the simplex grid;
* product states, parametrized by two Bloch vectors of norm <= 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from .dynamics import bell_spectrum_to_density, validate_spectrum
from .linalg import (
    PAULI,
    _clamp_residue,
    _relative_entropy_stack,
    _relative_entropy_tail,
    _xlog2,
    check_density,
    dephase_in_basis,
    von_neumann_entropy,
)

# Search resolution: grids of ~1e-3 bits, which the refinement then
# polishes to machine precision inside the located basin.
GRID_POINTS_PER_ANGLE = 24
REFINEMENT_ITERATIONS = 200
REFINEMENT_SHRINK = 0.5
SIMPLEX_GRID_STEP = 0.01
_MIN_WIDTH = 1e-13


@dataclass(frozen=True)
class OracleResult:
    """Best state found, its relative-entropy distance in bits, the number
    of objective evaluations, and the best-so-far value per refinement
    iteration (non-increasing)."""

    minimizer: np.ndarray
    value: float
    evaluations: int
    history: np.ndarray


def _offsets(dim: int, axes_only: bool = False) -> np.ndarray:
    if axes_only:
        eye = np.eye(dim)
        return np.concatenate([eye, -eye])
    rows = [r for r in _iterproduct((-1.0, 0.0, 1.0), repeat=dim) if any(r)]
    return np.array(rows)


def _refine(starts, evaluate, offsets, project=None):
    """Shrinking pattern search from each (x0, value0, width0) start.

    Each search moves to its best candidate whenever that improves, and
    otherwise shrinks its pattern width. The searches run in lockstep, one
    `evaluate` call per step on the stacked candidates of those still
    running; the objectives are row-independent, so each ends as if run
    alone. Returns the best point and value over all starts, the number of
    objective evaluations, and the best-so-far value after each step
    (non-increasing), led by the first start's value.
    """
    xs = [np.asarray(x0, dtype=float) for x0, _, _ in starts]
    values = [float(value0) for _, value0, _ in starts]
    widths = [float(width0) for _, _, width0 in starts]
    traces = [[value] for value in values]
    evals, m = 0, len(offsets)
    for _ in range(REFINEMENT_ITERATIONS):
        active = [i for i, width in enumerate(widths) if width >= _MIN_WIDTH]
        if not active:
            break
        cand = np.concatenate([xs[i][None, :] + widths[i] * offsets for i in active])
        if project is not None:
            cand = project(cand)
        vals = evaluate(cand).reshape(len(active), m)
        evals += len(cand)
        for k, (i, j) in enumerate(zip(active, np.argmin(vals, axis=1))):
            if vals[k, j] < values[i]:
                values[i], xs[i] = float(vals[k, j]), cand[k * m + j].copy()
            else:
                widths[i] *= REFINEMENT_SHRINK
            traces[i].append(values[i])
    best_x, best = starts[0][0], starts[0][1]
    for x, value in zip(xs, values):
        if value < best:
            best_x, best = x, value
    history = [starts[0][1]] + [value for trace in traces for value in trace]
    return best_x, best, evals, np.minimum.accumulate(history)


def _frozen(*arrays):
    # state-independent grid work is cached per process; an oracle may hand
    # a grid row back as its best point, so no caller may write to it
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


# ---------------------------------------------------------------------------
# closest classical state

def _pauli_data(rho):
    # Bloch representation rho = (I x I + aA.sigma x I + I x aB.sigma
    # + sum_kl C_kl sigma_k x sigma_l) / 4; the dephased diagonal in any
    # product basis depends only on (aA, aB, C).
    r = rho.reshape(2, 2, 2, 2)
    eye = np.eye(2, dtype=complex)
    a_vec = np.real(np.einsum("abcd,kca,db->k", r, PAULI, eye))
    b_vec = np.real(np.einsum("abcd,ca,kdb->k", r, eye, PAULI))
    corr = np.real(np.einsum("abcd,kca,ldb->kl", r, PAULI, PAULI))
    return a_vec, b_vec, corr


def _directions(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _dephased_entropy(alpha, beta, kappa):
    # Shannon entropy of the four outcome probabilities
    # (1 + s alpha + t beta + s t kappa) / 4 of the dephased diagonal
    h = 0.0
    for s, t in _SIGNS:
        h = h - _xlog2(np.clip((1.0 + s * alpha + t * beta + s * t * kappa) / 4.0, 0.0, 1.0))
    return h


@functools.cache
def _direction_grid():
    # (theta, phi) of each grid direction and its unit vector
    n = GRID_POINTS_PER_ANGLE
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    th, ph = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    return _frozen(th, ph, _directions(th, ph))


def _classical_values_grid(a_vec, b_vec, corr, u, s_rho):
    # all pairs of grid directions, in row blocks whose temporaries fit in cache
    alpha = u @ a_vec
    beta = u @ b_vec
    kappa = u @ corr @ u.T
    out = np.empty_like(kappa)
    for r in range(0, len(u), GRID_POINTS_PER_ANGLE):
        rows = slice(r, r + GRID_POINTS_PER_ANGLE)
        out[rows] = _dephased_entropy(alpha[rows, None], beta[None, :], kappa[rows]) - s_rho
    return out


def _classical_values_quads(a_vec, b_vec, corr, quads, s_rho):
    ua = _directions(quads[:, 0], quads[:, 1])
    ub = _directions(quads[:, 2], quads[:, 3])
    alpha = ua @ a_vec
    beta = ub @ b_vec
    kappa = np.einsum("ni,ij,nj->n", ua, corr, ub)
    return _dephased_entropy(alpha, beta, kappa) - s_rho


def oracle_closest_classical(rho, seed: int = 0) -> OracleResult:
    """Minimize S(rho || chi) over classical states chi.

    For each product basis the optimal classical diagonal equals the
    dephased diagonal of rho, so only the four local angles are searched:
    a full coarse grid, then pattern refinement from the best cell and
    from two random restarts drawn from `seed`.
    """
    a = check_density(rho)
    if a.shape != (4, 4):
        raise ValueError("oracle_closest_classical expects a 4x4 state")
    a_vec, b_vec, corr = _pauli_data(a)
    s_rho = von_neumann_entropy(a)

    th, ph, u = _direction_grid()
    grid = _classical_values_grid(a_vec, b_vec, corr, u, s_rho)
    ia, ib = np.unravel_index(int(np.argmin(grid)), grid.shape)
    grid_x = np.array([th[ia], ph[ia], th[ib], ph[ib]])

    def evaluate(quads):
        return _classical_values_quads(a_vec, b_vec, corr, quads, s_rho)

    width0 = max(math.pi / (GRID_POINTS_PER_ANGLE - 1), 2.0 * math.pi / GRID_POINTS_PER_ANGLE)
    rng = np.random.default_rng(seed)
    spans = (math.pi, 2.0 * math.pi, math.pi, 2.0 * math.pi)
    restarts = np.array([[rng.uniform(0.0, hi) for hi in spans] for _ in range(2)])
    starts = [(grid_x, float(grid[ia, ib]), width0)]
    starts += [(x, float(v), math.pi / 4.0) for x, v in zip(restarts, evaluate(restarts))]

    x, value, evals, history = _refine(starts, evaluate, _offsets(4))
    return OracleResult(
        minimizer=dephase_in_basis(a, x),
        value=float(_clamp_residue(value)),
        evaluations=grid.size + len(restarts) + evals,
        history=history,
    )


# ---------------------------------------------------------------------------
# closest separable Bell-diagonal state

def _separable_values(lam, log_q):
    # Bell-diagonal pairs commute, so S(rho || sigma) = sum_i lam_i log2(lam_i / q_i)
    vals = np.zeros(len(log_q))
    for i, li in enumerate(lam):
        if li > 0.0:
            vals = vals + li * (np.log2(li) - log_q[:, i])
    return vals


def _simplex_log_q(q3):
    # q3: (N, 3) points over the first three coefficients, the fourth fixed
    # by normalization. Returns log2 of the clipped q, -inf where q < 1e-15
    # (sigma misses rho's support: +inf away), and which rows are separable.
    q4 = 1.0 - q3.sum(axis=1)
    q = np.column_stack([q3, q4])
    feasible = np.all((q > -1e-12) & (q < 0.5 + 1e-12), axis=1)
    q = np.clip(q, 0.0, 0.5)
    return np.where(q < 1e-15, -math.inf, np.log2(np.where(q > 0.0, q, 1.0))), feasible


@functools.cache
def _simplex_grid():
    # the simplex grid over (q1, q2, q3), its separable rows and their log2 q
    axis = np.linspace(0.0, 0.5, int(round(0.5 / SIMPLEX_GRID_STEP)) + 1)
    q3 = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    log_q, feasible = _simplex_log_q(q3)
    return _frozen(q3, np.flatnonzero(feasible), log_q[feasible])


def oracle_closest_separable_bd(lam) -> OracleResult:
    """Minimize S(rho || sigma) over Bell-diagonal sigma with all
    coefficients <= 1/2 (the separable slice of the Bell simplex), by
    simplex-grid enumeration plus pattern refinement."""
    a = validate_spectrum(lam).reshape(4)

    # only the separable rows are scored: the others are +inf, and the row
    # (1/4, 1/4, 1/4) is finite, so the first minimum lies among them
    q3, rows, log_q = _simplex_grid()
    vals = _clamp_residue(_separable_values(a, log_q))
    k = int(np.argmin(vals))

    def evaluate(cand):
        log_q, feasible = _simplex_log_q(cand)
        return _clamp_residue(np.where(feasible, _separable_values(a, log_q), math.inf))

    def project(cand):
        return np.clip(cand, 0.0, 0.5)

    start = (q3[rows[k]], float(vals[k]), SIMPLEX_GRID_STEP)
    x, value, evals, history = _refine([start], evaluate, _offsets(3), project)

    q4 = max(0.0, 1.0 - float(x.sum()))
    q = np.append(np.clip(x, 0.0, 0.5), q4)
    return OracleResult(
        minimizer=bell_spectrum_to_density(q / q.sum()),
        value=float(_clamp_residue(value)),
        evaluations=len(q3) + evals,
        history=history,
    )


# ---------------------------------------------------------------------------
# closest product state

def _bloch_states(vecs):
    # (N, 3) Bloch vectors -> stack of (I + v.sigma) / 2
    n = len(vecs)
    out = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    out += np.einsum("nk,kij->nij", vecs, PAULI)
    return out / 2.0


def _product_states(params):
    qa = _bloch_states(params[:, :3])
    qb = _bloch_states(params[:, 3:])
    n = len(params)
    return np.einsum("nab,ncd->nacbd", qa, qb).reshape(n, 4, 4)


@functools.cache
def _product_grid():
    # lattice points in both Bloch balls and the eigendecompositions of their
    # product states; a sixth of the per-angle resolution, odd so the lattice
    # holds 0: 5 points per axis
    axis = np.linspace(-1.0, 1.0, GRID_POINTS_PER_ANGLE // 6 + 1)
    pts = np.stack(np.meshgrid(*([axis] * 6), indexing="ij"), axis=-1).reshape(-1, 6)
    pts = pts[np.all(np.linalg.norm(pts.reshape(-1, 2, 3), axis=2) <= 1.0 + 1e-12, axis=1)]
    return _frozen(pts, *np.linalg.eigh(_product_states(pts)))


def oracle_closest_product(rho) -> OracleResult:
    """Minimize S(rho || pA x pB) over product states.

    The six Bloch components are gridded on a coarse Cartesian lattice
    restricted to the unit balls (the full per-angle resolution would be
    astronomically large in six dimensions), then refined with an
    axis-aligned pattern search projected back into the balls.
    """
    a = check_density(rho)
    if a.shape != (4, 4):
        raise ValueError("oracle_closest_product expects a 4x4 state")
    s_rho = von_neumann_entropy(a)

    def evaluate(cand):
        return _relative_entropy_stack(a, _product_states(cand), s_rho)

    def project(cand):
        out = cand.copy()
        for sl in (slice(0, 3), slice(3, 6)):
            norms = np.linalg.norm(out[:, sl], axis=1)
            scale = np.where(norms > 1.0, norms, 1.0)
            out[:, sl] /= scale[:, None]
        return out

    pts, w, v = _product_grid()
    vals = _relative_entropy_tail(a, w, v, s_rho)
    j = int(np.argmin(vals))
    start = (pts[j], float(vals[j]), 2.0 / (GRID_POINTS_PER_ANGLE // 6))  # the lattice step
    x, value, evals, history = _refine([start], evaluate, _offsets(6, axes_only=True), project)
    return OracleResult(
        minimizer=_product_states(x[None, :])[0],
        value=float(_clamp_residue(value)),
        evaluations=len(pts) + evals,
        history=history,
    )
