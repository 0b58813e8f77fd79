"""Brute-force relative-entropy minimizers over closest-state families.

These searches are deliberately independent of the closed-form closest
states in `belldyn.correlations`: they grid the relevant family, refine
the best cell with a shrinking pattern search, and report the minimum
found. They exist to certify the analytic formulas, so they never assume
them.

Three families are covered:

* classical states (diagonal in some product basis): for a fixed basis
  the optimal diagonal is the dephased diagonal of rho, so the search
  space is exactly the four local Bloch angles; u and -u define the same
  basis, so the grid holds one hemisphere of directions per qubit, and the
  refinement steps each phi by arc length (width / max(|sin theta|,
  width)), so that a search near a pole still moves by its width;
* separable Bell-diagonal states (all coefficients <= 1/2), searched on
  the simplex grid;
* product states, parametrized by two Bloch vectors of norm <= 1.

Each oracle takes a list of states and returns one `OracleResult` per
state; all the states' refinements run in lockstep, and each state's
result is the one it would get alone.
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
    _entropy,
    _relative_entropy_stack,
    _relative_entropy_tail,
    _xlog2,
    check_two_qubit_state,
    dephase_in_basis,
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


def _refine(starts, evaluate, offsets, project=None, *, owner, steps_of=None):
    """Shrinking pattern search from each (x0, value0, width0) start.

    Start i searches state owner[i]. Each search moves to its best candidate
    x + offset * step whenever that improves, and otherwise shrinks its
    pattern width; the (search, coordinate) steps are steps_of(x, width) of
    the running searches, by default the width in every coordinate. All
    searches run in lockstep, one `evaluate(cand, owner)` call per step on
    the (search, offset, coordinate) stack of those still running and the
    state of each; the objectives are row-independent, so each search ends
    as if run alone. Returns per state the best point and value over its
    starts (the earliest wins a tie), the number of objective evaluations,
    and the best-so-far value after each step (non-increasing), led by its
    first start's value.
    """
    owner = np.asarray(owner, dtype=int)
    x = np.array([x0 for x0, _, _ in starts], dtype=float)
    value = np.array([value0 for _, value0, _ in starts], dtype=float)
    width = np.array([width0 for _, _, width0 in starts], dtype=float)
    steps = np.zeros(len(starts), dtype=int)
    values = [value.copy()]  # every search's value after each step
    for _ in range(REFINEMENT_ITERATIONS):
        active = np.flatnonzero(width >= _MIN_WIDTH)
        if not len(active):
            break
        step = width[active, None] if steps_of is None else steps_of(x[active], width[active])
        cand = x[active, None, :] + step[:, None, :] * offsets
        if project is not None:
            cand = project(cand)
        vals = evaluate(cand, owner[active])
        j = np.argmin(vals, axis=1)
        best = vals[np.arange(len(active)), j]
        better = best < value[active]
        value[active[better]] = best[better]
        x[active[better]] = cand[better, j[better]]
        width[active[~better]] *= REFINEMENT_SHRINK
        steps[active] += 1
        values.append(value.copy())
    values = np.array(values)
    out = []
    for state in range(owner.max(initial=-1) + 1):
        mine = np.flatnonzero(owner == state)
        best_i, best = mine[0], starts[mine[0]][1]
        for i in mine:
            if value[i] < best:
                best_i, best = i, value[i]
        history = [[starts[mine[0]][1]]] + [values[:steps[i] + 1, i] for i in mine]
        out.append((x[best_i].copy(), float(best), int(steps[mine].sum()) * len(offsets),
                    np.minimum.accumulate(np.concatenate(history))))
    return out


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


def _arc_length_steps(quads, width):
    # steps of (theta_a, phi_a, theta_b, phi_b): a phi step of
    # w / max(|sin theta|, w) turns the direction by about w on the sphere,
    # so searches near a pole keep moving by the pattern width
    step = np.repeat(width[:, None], 4, axis=1)
    step[:, 1::2] = step[:, 1::2] / np.maximum(np.abs(np.sin(quads[:, 0::2])), step[:, 1::2])
    return step


@functools.cache
def _direction_grid():
    # (theta, phi) and unit vector of one direction of each antipodal pair of
    # the n x n grid (u and -u give one basis): theta < pi/2, the pole once
    n = GRID_POINTS_PER_ANGLE
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    th, ph = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    keep = (th < math.pi / 2.0) & ((th > 0.0) | (ph == 0.0))
    return _frozen(th[keep], ph[keep], _directions(th[keep], ph[keep]))


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
    # quads (..., n, 4) with one state's data per leading index. alpha and
    # beta use matmul, the BLAS kernel of the grid's `u @ a_vec`: an einsum
    # rounds differently once a_vec != 0
    ua = _directions(quads[..., 0], quads[..., 1])
    ub = _directions(quads[..., 2], quads[..., 3])
    alpha = np.matmul(ua, a_vec[..., None])[..., 0]
    beta = np.matmul(ub, b_vec[..., None])[..., 0]
    kappa = np.einsum("...ni,...ij,...nj->...n", ua, corr, ub)
    return _dephased_entropy(alpha, beta, kappa) - s_rho


def oracle_closest_classical(rhos, seed: int = 0) -> list[OracleResult]:
    """Minimize S(rho || chi) over classical states chi, for each state rho
    of `rhos`; returns one result per state.

    For each product basis the optimal classical diagonal equals the
    dephased diagonal of rho, so only the four local angles are searched:
    a full coarse grid, then pattern refinement from the best cell and
    from two random restarts drawn from `seed`. Every state gets the same
    restarts, and all refinements run in lockstep.
    """
    states = [check_two_qubit_state(rho, "oracle_closest_classical") for rho in rhos]
    if not states:
        return []
    a_vec, b_vec, corr = (np.array(x) for x in zip(*map(_pauli_data, states)))
    s_rho = np.array([_entropy(a) for a in states])

    def evaluate(quads, owner):
        return _classical_values_quads(a_vec[owner], b_vec[owner], corr[owner], quads,
                                       s_rho[owner, None])

    th, ph, u = _direction_grid()
    width0 = max(math.pi / (GRID_POINTS_PER_ANGLE - 1), 2.0 * math.pi / GRID_POINTS_PER_ANGLE)
    rng = np.random.default_rng(seed)
    spans = (math.pi, 2.0 * math.pi, math.pi, 2.0 * math.pi)
    restarts = np.array([[rng.uniform(0.0, hi) for hi in spans] for _ in range(2)])
    everyone = np.arange(len(states))
    restart_values = evaluate(np.broadcast_to(restarts, (len(states),) + restarts.shape), everyone)
    starts = []
    for k in everyone:
        grid = _classical_values_grid(a_vec[k], b_vec[k], corr[k], u, s_rho[k])
        ia, ib = np.unravel_index(int(np.argmin(grid)), grid.shape)
        starts.append((np.array([th[ia], ph[ia], th[ib], ph[ib]]), float(grid[ia, ib]), width0))
        starts += [(x, float(v), math.pi / 4.0) for x, v in zip(restarts, restart_values[k])]

    found = _refine(starts, evaluate, _offsets(4), owner=np.repeat(everyone, 3),
                    steps_of=_arc_length_steps)
    return [
        OracleResult(
            minimizer=dephase_in_basis(a, x),
            value=float(_clamp_residue(value)),
            evaluations=len(u) ** 2 + len(restarts) + evals,
            history=history,
        )
        for a, (x, value, evals, history) in zip(states, found)
    ]


# ---------------------------------------------------------------------------
# closest separable Bell-diagonal state

def _separable_values(lam, log_q):
    # Bell-diagonal pairs commute, so S(rho || sigma) = sum_i lam_i log2(lam_i / q_i)
    # over lam_i > 0; lam is one spectrum, or one per leading index of log_q
    pos = lam > 0.0
    log_lam = np.log2(np.where(pos, lam, 1.0))
    vals = np.zeros(log_q.shape[:-1])
    with np.errstate(invalid="ignore"):  # 0 * inf in the dropped terms
        for i in range(4):
            vals = vals + np.where(pos[..., i], lam[..., i] * (log_lam[..., i] - log_q[..., i]), 0.0)
    return vals


def _simplex_log_q(q3):
    # q3: (..., 3) points over the first three coefficients, the fourth fixed
    # by normalization. Returns log2 of the clipped q, -inf where q < 1e-15
    # (sigma misses rho's support: +inf away), and which points are separable.
    q = np.concatenate([q3, 1.0 - q3.sum(axis=-1, keepdims=True)], axis=-1)
    feasible = np.all((q > -1e-12) & (q < 0.5 + 1e-12), axis=-1)
    q = np.clip(q, 0.0, 0.5)
    return np.where(q < 1e-15, -math.inf, np.log2(np.where(q > 0.0, q, 1.0))), feasible


@functools.cache
def _simplex_grid():
    # the simplex grid over (q1, q2, q3), its separable rows and their log2 q
    axis = np.linspace(0.0, 0.5, int(round(0.5 / SIMPLEX_GRID_STEP)) + 1)
    q3 = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    log_q, feasible = _simplex_log_q(q3)
    return _frozen(q3, np.flatnonzero(feasible), log_q[feasible])


def oracle_closest_separable_bd(lams) -> list[OracleResult]:
    """Minimize S(rho || sigma) over Bell-diagonal sigma with all
    coefficients <= 1/2 (the separable slice of the Bell simplex), for the
    Bell-diagonal rho of each spectrum of `lams`, by simplex-grid
    enumeration plus pattern refinement; returns one result per spectrum.
    All refinements run in lockstep."""
    lam = np.array([validate_spectrum(x).reshape(4) for x in lams])

    # only the separable rows are scored: the others are +inf, and the row
    # (1/4, 1/4, 1/4) is finite, so the first minimum lies among them
    q3, rows, log_q = _simplex_grid()
    starts = []
    for a in lam:
        vals = _clamp_residue(_separable_values(a, log_q))
        k = int(np.argmin(vals))
        starts.append((q3[rows[k]], float(vals[k]), SIMPLEX_GRID_STEP))

    def evaluate(cand, owner):
        log_q, feasible = _simplex_log_q(cand)
        return _clamp_residue(np.where(feasible, _separable_values(lam[owner, None], log_q), math.inf))

    def project(cand):
        return np.clip(cand, 0.0, 0.5)

    found = _refine(starts, evaluate, _offsets(3), project, owner=range(len(lam)))
    out = []
    for x, value, evals, history in found:
        q = np.append(np.clip(x, 0.0, 0.5), max(0.0, 1.0 - float(x.sum())))
        out.append(OracleResult(
            minimizer=bell_spectrum_to_density(q / q.sum()),
            value=float(_clamp_residue(value)),
            evaluations=len(q3) + evals,
            history=history,
        ))
    return out


# ---------------------------------------------------------------------------
# closest product state

def _bloch_states(vecs):
    # (N, 3) Bloch vectors -> stack of (I + v.sigma) / 2
    n = len(vecs)
    out = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    out += np.einsum("nk,kij->nij", vecs, PAULI)
    return out / 2.0


def _product_states(params):
    # (..., 6) parameters -> (..., 4, 4) product states
    flat = params.reshape(-1, 6)
    qa = _bloch_states(flat[:, :3])
    qb = _bloch_states(flat[:, 3:])
    return np.einsum("nab,ncd->nacbd", qa, qb).reshape(params.shape[:-1] + (4, 4))


@functools.cache
def _product_grid():
    # lattice points in both Bloch balls and the eigendecompositions of their
    # product states; a sixth of the per-angle resolution, odd so the lattice
    # holds 0: 5 points per axis
    axis = np.linspace(-1.0, 1.0, GRID_POINTS_PER_ANGLE // 6 + 1)
    pts = np.stack(np.meshgrid(*([axis] * 6), indexing="ij"), axis=-1).reshape(-1, 6)
    pts = pts[np.all(np.linalg.norm(pts.reshape(-1, 2, 3), axis=2) <= 1.0 + 1e-12, axis=1)]
    return _frozen(pts, *np.linalg.eigh(_product_states(pts)))


def oracle_closest_product(rhos) -> list[OracleResult]:
    """Minimize S(rho || pA x pB) over product states, for each state rho
    of `rhos`; returns one result per state.

    The six Bloch components are gridded on a coarse Cartesian lattice
    restricted to the unit balls (the full per-angle resolution would be
    astronomically large in six dimensions), then refined with an
    axis-aligned pattern search projected back into the balls. All
    refinements run in lockstep.
    """
    states = [check_two_qubit_state(rho, "oracle_closest_product") for rho in rhos]
    rho = np.array(states)
    s_rho = np.array([_entropy(a) for a in states])

    def evaluate(cand, owner):
        return _relative_entropy_stack(rho[owner, None], _product_states(cand), s_rho[owner, None])

    def project(cand):
        out = cand.copy()
        for sl in (slice(0, 3), slice(3, 6)):
            norms = np.linalg.norm(out[..., sl], axis=-1)
            scale = np.where(norms > 1.0, norms, 1.0)
            out[..., sl] /= scale[..., None]
        return out

    pts, w, v = _product_grid()
    starts = []
    for a, s in zip(states, s_rho):
        vals = _relative_entropy_tail(a, w, v, s)
        j = int(np.argmin(vals))
        starts.append((pts[j], float(vals[j]), 2.0 / (GRID_POINTS_PER_ANGLE // 6)))  # the lattice step

    found = _refine(starts, evaluate, _offsets(6, axes_only=True), project, owner=range(len(rho)))
    return [
        OracleResult(
            minimizer=_product_states(x[None, :])[0],
            value=float(_clamp_residue(value)),
            evaluations=len(pts) + evals,
            history=history,
        )
        for x, value, evals, history in found
    ]
