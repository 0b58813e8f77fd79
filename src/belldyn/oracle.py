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

import math
from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from .dynamics import bell_spectrum_to_density, validate_spectrum
from .linalg import (
    PAULI,
    _clamp_residue,
    _relative_entropy_stack,
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
    otherwise shrinks its pattern width. Returns the best point and value
    over all starts, the number of objective evaluations, and the
    best-so-far value after each step (non-increasing), led by the first
    start's value.
    """
    best_x, best = starts[0][0], starts[0][1]
    trace = [best]
    evals = 0
    for x0, value0, width0 in starts:
        x, value, width = np.asarray(x0, dtype=float), float(value0), float(width0)
        trace.append(value)
        for _ in range(REFINEMENT_ITERATIONS):
            if width < _MIN_WIDTH:
                break
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
        if value < best:
            best_x, best = x, value
    return best_x, best, evals, np.minimum.accumulate(trace)


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


def _classical_values_grid(a_vec, b_vec, corr, ua, ub, s_rho):
    alpha = ua @ a_vec
    beta = ub @ b_vec
    kappa = ua @ corr @ ub.T
    return _dephased_entropy(alpha[:, None], beta[None, :], kappa) - s_rho


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

    n = GRID_POINTS_PER_ANGLE
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    th, ph = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    u = _directions(th, ph)

    grid = _classical_values_grid(a_vec, b_vec, corr, u, u, s_rho)
    evaluations = grid.size
    ia, ib = np.unravel_index(int(np.argmin(grid)), grid.shape)
    grid_x = np.array([th[ia], ph[ia], th[ib], ph[ib]])

    def evaluate(quads):
        return _classical_values_quads(a_vec, b_vec, corr, quads, s_rho)

    width0 = max(math.pi / (n - 1), 2.0 * math.pi / n)
    rng = np.random.default_rng(seed)
    starts = [(grid_x, float(grid[ia, ib]), width0)]
    for _ in range(2):
        x = np.array([
            rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi),
        ])
        evaluations += 1
        starts.append((x, float(evaluate(x[None, :])[0]), math.pi / 4.0))

    x, value, evals, history = _refine(starts, evaluate, _offsets(4))
    return OracleResult(
        minimizer=dephase_in_basis(a, x),
        value=float(_clamp_residue(value)),
        evaluations=evaluations + evals,
        history=history,
    )


# ---------------------------------------------------------------------------
# closest separable Bell-diagonal state

def _separable_values(lam, q3):
    # q3: (N, 3) grid over the first three coefficients; the fourth is fixed
    # by normalization. Bell-diagonal pairs commute, so
    # S(rho || sigma) = sum_i lam_i log2(lam_i / q_i).
    q4 = 1.0 - q3.sum(axis=1)
    q = np.column_stack([q3, q4])
    feasible = np.all((q > -1e-12) & (q < 0.5 + 1e-12), axis=1)
    q = np.clip(q, 0.0, 0.5)
    vals = np.zeros(len(q))
    for i, li in enumerate(lam):
        if li <= 0.0:
            continue
        qi = q[:, i]
        with np.errstate(divide="ignore"):
            term = li * (np.log2(li) - np.log2(np.where(qi > 0.0, qi, 1.0)))
        vals = vals + np.where(qi < 1e-15, math.inf, term)
    return _clamp_residue(np.where(feasible, vals, math.inf))


def oracle_closest_separable_bd(lam) -> OracleResult:
    """Minimize S(rho || sigma) over Bell-diagonal sigma with all
    coefficients <= 1/2 (the separable slice of the Bell simplex), by
    simplex-grid enumeration plus pattern refinement."""
    a = validate_spectrum(lam).reshape(4)

    axis = np.linspace(0.0, 0.5, int(round(0.5 / SIMPLEX_GRID_STEP)) + 1)
    q3 = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = _separable_values(a, q3)
    j = int(np.argmin(vals))

    def evaluate(cand):
        return _separable_values(a, cand)

    def project(cand):
        return np.clip(cand, 0.0, 0.5)

    start = (q3[j], float(vals[j]), SIMPLEX_GRID_STEP)
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

    # a sixth of the per-angle resolution, odd so the lattice holds 0: 5
    n6 = GRID_POINTS_PER_ANGLE // 6 + 1
    axis = np.linspace(-1.0, 1.0, n6)
    pts = np.stack(np.meshgrid(*([axis] * 6), indexing="ij"), axis=-1).reshape(-1, 6)
    ok = (np.linalg.norm(pts[:, :3], axis=1) <= 1.0 + 1e-12) & (
        np.linalg.norm(pts[:, 3:], axis=1) <= 1.0 + 1e-12
    )
    pts = pts[ok]

    def evaluate(cand):
        return _relative_entropy_stack(a, _product_states(cand), s_rho)

    def project(cand):
        out = cand.copy()
        for sl in (slice(0, 3), slice(3, 6)):
            norms = np.linalg.norm(out[:, sl], axis=1)
            scale = np.where(norms > 1.0, norms, 1.0)
            out[:, sl] /= scale[:, None]
        return out

    vals = evaluate(pts)
    j = int(np.argmin(vals))
    start = (pts[j], float(vals[j]), 2.0 / (n6 - 1))
    x, value, evals, history = _refine([start], evaluate, _offsets(6, axes_only=True), project)
    return OracleResult(
        minimizer=_product_states(x[None, :])[0],
        value=float(_clamp_residue(value)),
        evaluations=len(pts) + evals,
        history=history,
    )
