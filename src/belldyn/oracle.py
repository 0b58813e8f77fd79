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
    SUPPORT_CUTOFF,
    SUPPORT_OVERLAP_TOL,
    _xlog2,
    check_density,
    dephase_in_basis,
    von_neumann_entropy,
)

_MIN_WIDTH = 1e-13


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the brute-force searches.

    The defaults give ~1e-3-bit grid resolution, which the refinement
    then polishes to machine precision inside the located basin.
    """

    coarse_grid_points_per_angle: int = 24
    refinement_iterations: int = 200
    refinement_shrink: float = 0.5
    simplex_grid_step: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.coarse_grid_points_per_angle < 2:
            raise ValueError("coarse_grid_points_per_angle must be >= 2")
        if self.refinement_iterations < 1:
            raise ValueError("refinement_iterations must be positive")
        if not 0.0 < self.refinement_shrink < 1.0:
            raise ValueError("refinement_shrink must be in (0, 1)")
        if not 0.0 < self.simplex_grid_step <= 0.5:
            raise ValueError("simplex_grid_step must be in (0, 0.5]")


@dataclass(frozen=True)
class OracleResult:
    """Best state found, its relative-entropy distance in bits, the number
    of objective evaluations, and the best-so-far value per refinement
    iteration (non-increasing)."""

    minimizer: np.ndarray
    value: float
    evaluations: int
    history: np.ndarray


def _clamp(v: float) -> float:
    return 0.0 if -1e-9 < v < 0.0 else v


def _offsets(dim: int, axes_only: bool = False) -> np.ndarray:
    if axes_only:
        eye = np.eye(dim)
        return np.concatenate([eye, -eye])
    rows = [r for r in _iterproduct((-1.0, 0.0, 1.0), repeat=dim) if any(r)]
    return np.array(rows)


def _pattern_search(x0, value0, width0, evaluate, offsets, cfg, project=None):
    """Shrinking pattern search; returns (x, value, history, evaluations).

    Moves to the best candidate whenever it improves, otherwise shrinks
    the pattern width; the best value is non-increasing by construction.
    """
    x = np.asarray(x0, dtype=float)
    best = float(value0)
    width = float(width0)
    history = [best]
    evals = 0
    for _ in range(cfg.refinement_iterations):
        if width < _MIN_WIDTH:
            break
        cand = x[None, :] + width * offsets
        if project is not None:
            cand = project(cand)
        vals = evaluate(cand)
        evals += len(cand)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best = float(vals[j])
            x = cand[j].copy()
        else:
            width *= cfg.refinement_shrink
        history.append(best)
    return x, best, history, evals


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


def oracle_closest_classical(rho, cfg: SearchConfig | None = None) -> OracleResult:
    """Minimize S(rho || chi) over classical states chi.

    For each product basis the optimal classical diagonal equals the
    dephased diagonal of rho, so only the four local angles are searched:
    a full coarse grid, then pattern refinement from the best cell and
    from a couple of seeded random restarts.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    a = check_density(rho)
    if a.shape != (4, 4):
        raise ValueError("oracle_closest_classical expects a 4x4 state")
    a_vec, b_vec, corr = _pauli_data(a)
    s_rho = von_neumann_entropy(a)

    n = cfg.coarse_grid_points_per_angle
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    th, ph = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    u = _directions(th, ph)

    grid = _classical_values_grid(a_vec, b_vec, corr, u, u, s_rho)
    evaluations = grid.size
    ia, ib = np.unravel_index(int(np.argmin(grid)), grid.shape)
    best_x = np.array([th[ia], ph[ia], th[ib], ph[ib]])
    best_val = float(grid[ia, ib])
    history = [best_val]

    def evaluate(quads):
        return _classical_values_quads(a_vec, b_vec, corr, quads, s_rho)

    offsets = _offsets(4)
    width0 = max(math.pi / (n - 1), 2.0 * math.pi / n)
    rng = np.random.default_rng(cfg.seed)
    starts = [(best_x, best_val, width0)]
    for _ in range(2):
        x = np.array([
            rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi),
        ])
        v = float(evaluate(x[None, :])[0])
        evaluations += 1
        starts.append((x, v, math.pi / 4.0))

    for x0, v0, w0 in starts:
        x, val, hist, ev = _pattern_search(x0, v0, w0, evaluate, offsets, cfg)
        evaluations += ev
        for h in hist:
            history.append(min(history[-1], h))
        if val < best_val:
            best_val, best_x = val, x

    return OracleResult(
        minimizer=dephase_in_basis(a, best_x),
        value=_clamp(best_val),
        evaluations=evaluations,
        history=np.array(history),
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
    vals = np.where(feasible, vals, math.inf)
    return np.where((vals > -1e-9) & (vals < 0.0), 0.0, vals)


def oracle_closest_separable_bd(lam, cfg: SearchConfig | None = None) -> OracleResult:
    """Minimize S(rho || sigma) over Bell-diagonal sigma with all
    coefficients <= 1/2 (the separable slice of the Bell simplex), by
    simplex-grid enumeration plus pattern refinement."""
    cfg = cfg if cfg is not None else SearchConfig()
    a = validate_spectrum(lam).reshape(4)

    m = int(round(0.5 / cfg.simplex_grid_step)) + 1
    axis = np.linspace(0.0, 0.5, m)
    q3 = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = _separable_values(a, q3)
    evaluations = len(q3)
    j = int(np.argmin(vals))
    best_x, best_val = q3[j].copy(), float(vals[j])
    history = [best_val]

    def evaluate(cand):
        return _separable_values(a, cand)

    def project(cand):
        return np.clip(cand, 0.0, 0.5)

    x, val, hist, ev = _pattern_search(
        best_x, best_val, cfg.simplex_grid_step, evaluate, _offsets(3), cfg, project
    )
    evaluations += ev
    for h in hist:
        history.append(min(history[-1], h))

    q4 = max(0.0, 1.0 - float(x.sum()))
    q = np.append(np.clip(x, 0.0, 0.5), q4)
    q = q / q.sum()
    return OracleResult(
        minimizer=bell_spectrum_to_density(q),
        value=_clamp(val),
        evaluations=evaluations,
        history=np.array(history),
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


def _rel_entropy_stack(rho, sigmas, s_rho):
    w, v = np.linalg.eigh(sigmas)
    overlap = np.clip(np.real(np.einsum("nik,ij,njk->nk", v.conj(), rho, v)), 0.0, None)
    small = w < SUPPORT_CUTOFF
    bad = np.any(small & (overlap > SUPPORT_OVERLAP_TOL), axis=1)
    logs = np.log2(np.where(small, 1.0, w))
    vals = -np.sum(np.where(small, 0.0, overlap * logs), axis=1) - s_rho
    vals = np.where(bad, math.inf, vals)
    return np.where((vals > -1e-9) & (vals < 0.0), 0.0, vals)


def oracle_closest_product(rho, cfg: SearchConfig | None = None) -> OracleResult:
    """Minimize S(rho || pA x pB) over product states.

    The six Bloch components are gridded on a coarse Cartesian lattice
    restricted to the unit balls (the full per-angle resolution would be
    astronomically large in six dimensions), then refined with an
    axis-aligned pattern search projected back into the balls.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    a = check_density(rho)
    if a.shape != (4, 4):
        raise ValueError("oracle_closest_product expects a 4x4 state")
    s_rho = von_neumann_entropy(a)

    n6 = max(3, cfg.coarse_grid_points_per_angle // 6)
    if n6 % 2 == 0:
        n6 += 1
    axis = np.linspace(-1.0, 1.0, n6)
    pts = np.stack(np.meshgrid(*([axis] * 6), indexing="ij"), axis=-1).reshape(-1, 6)
    ok = (np.linalg.norm(pts[:, :3], axis=1) <= 1.0 + 1e-12) & (
        np.linalg.norm(pts[:, 3:], axis=1) <= 1.0 + 1e-12
    )
    pts = pts[ok]

    vals = _rel_entropy_stack(a, _product_states(pts), s_rho)
    evaluations = len(pts)
    j = int(np.argmin(vals))
    best_x, best_val = pts[j].copy(), float(vals[j])
    history = [best_val]

    def evaluate(cand):
        return _rel_entropy_stack(a, _product_states(cand), s_rho)

    def project(cand):
        out = cand.copy()
        for sl in (slice(0, 3), slice(3, 6)):
            norms = np.linalg.norm(out[:, sl], axis=1)
            scale = np.where(norms > 1.0, norms, 1.0)
            out[:, sl] /= scale[:, None]
        return out

    width0 = 2.0 / (n6 - 1)
    x, val, hist, ev = _pattern_search(
        best_x, best_val, width0, evaluate, _offsets(6, axes_only=True), cfg, project
    )
    evaluations += ev
    for h in hist:
        history.append(min(history[-1], h))

    return OracleResult(
        minimizer=_product_states(x[None, :])[0],
        value=_clamp(val),
        evaluations=evaluations,
        history=np.array(history),
    )
