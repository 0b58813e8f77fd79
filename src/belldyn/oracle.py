"""Brute-force relative-entropy minimizers over closest-state families.

These searches are deliberately independent of the closed-form closest
states in `belldyn.correlations`: they run a shrinking pattern search from
the best cells of a coarse grid (classical) or from the centre of the family
(separable and product), and report the minimum found. They exist to
certify the analytic formulas, so they never assume them.

Three families are covered:

* classical states (diagonal in some product basis): for a fixed basis
  the optimal diagonal is the dephased diagonal of rho, so the search
  space is exactly the four local Bloch angles; u and -u define the same
  basis, so the grid holds one hemisphere of directions per qubit, and the
  refinement steps each phi by arc length (width / max(|sin theta|,
  width)), so that a search near a pole still moves by its width, and
  scores its 80 offsets on the 9 + 9 directions they take per qubit. Each
  start is the first least eligible grid cell (of all, then of those over 60
  degrees from the first start on a qubit), found by scoring only the rows
  that a lower bound per row does not rule out, so the full grid's, bit for
  bit;
* separable Bell-diagonal states (all coefficients <= 1/2), searched from
  the centre of that convex slice, on which S(rho || sigma) is convex, so
  with no grid;
* product states, parametrized by two Bloch vectors of norm <= 1, searched
  from the centre of both balls, on which S(rho || pA x pB) is convex, so
  with no grid, and scored from sigma's closed-form eigenpairs and rho's
  Bloch data, with no 4 x 4 eigensolve.

Each oracle takes a list of states and returns one `OracleResult` per
state. All the states' refinements run in lockstep passes, each scoring
the next few shrink levels of every running search in one objective call,
and each state's result, its `evaluations` included, is the one a
step-by-step search of that state alone would give. numpy's per-call
overhead is what a pass costs, so what no pass changes (index maps, sign
stacks, each spectrum's log2 lam) is built once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from .dynamics import _bell_density, validate_spectrum
from .linalg import (PAULI, _check_density, _clamp_residue, _dephase, _spectral_entropy,
                     _support_rule, _xlog2)

# Search resolution: a classical grid of ~1e-3 bits, which the refinement then
# polishes to machine precision inside the located basin.
GRID_POINTS_PER_ANGLE = 24
REFINEMENT_ITERATIONS = 200
REFINEMENT_SHRINK = 0.5
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


def _offsets(dim: int) -> np.ndarray:
    rows = [r for r in _iterproduct((-1.0, 0.0, 1.0), repeat=dim) if any(r)]
    return np.array(rows)


def _refine(starts, evaluate, offsets, project=None, *, owner, steps_of=None):
    """Shrinking pattern search from each (x0, value0, width0) start.

    Start i searches state owner[i]. Each search moves to its best candidate
    x + offset * step whenever that improves, and otherwise shrinks its
    pattern width; the (search, coordinate) steps are steps_of(x, width) of
    the running searches, by default the width in every coordinate. A
    search stops after REFINEMENT_ITERATIONS steps or once its width falls
    below _MIN_WIDTH.

    A step that improves nothing leaves x where it is, so the next steps'
    widths are known in advance: width * REFINEMENT_SHRINK**k after k
    shrinks, the same bits as k halvings. So the searches run in lockstep
    passes, one `evaluate(cand, owner)` call per pass on the (row, offset,
    coordinate) stack, whose rows are the next d levels k = 0 .. d - 1 of
    every search still running, each with its state. A search takes its
    first level that improves, as k shrinks and one move, and drops the
    levels after it; with none it has made d shrinks. Its depth d is 2
    after a move and doubles after a pass without one, capped by its steps
    left and by its levels of width >= _MIN_WIDTH. The objectives are
    row-independent, so each search ends as if run alone, step by step.

    Only the candidate stack, its objective call and one argmin per pass
    run in numpy. The per-search bookkeeping (levels, first improving
    level, shrink or move) works on a few to a few dozen searches, where a
    plain loop over Python lists costs less than numpy's per-call overhead.

    Returns per state the best point and value over its starts (the
    earliest wins a tie), the number of objective evaluations of that
    step-by-step search (len(offsets) per step, levels scored only in
    advance not counted), and the best-so-far value after each step
    (non-increasing), led by its first start's value.
    """
    owner = np.asarray(owner, dtype=int)
    x = np.array([x0 for x0, _, _ in starts], dtype=float)
    width = [float(width0) for _, _, width0 in starts]
    steps = [0] * len(starts)
    depth = [2] * len(starts)
    # each search's value after each of its steps, led by its start value
    trace = [[float(value0)] for _, value0, _ in starts]
    moves = offsets.T.copy()  # (coordinate, offset), contiguous for the broadcast below
    running = range(len(starts))
    while True:
        # (search, its first row, its levels, the width below its last
        # level) of each running search, then the row's search and width
        passing, search, levels = [], [], []
        for i in running:
            w, n, d = width[i], 0, min(depth[i], REFINEMENT_ITERATIONS - steps[i])
            while n < d and w >= _MIN_WIDTH:
                levels.append(w)
                w *= REFINEMENT_SHRINK
                n += 1
            if n:
                passing.append((i, len(search), n, w))
                search += [i] * n
        if not passing:
            break
        search = np.array(search)
        xs, ws = x[search], np.array(levels)
        step = ws[:, None] if steps_of is None else steps_of(xs, ws)
        # the coordinate axis outermost, as numpy broadcasts over a last axis
        # of len(offsets) faster than over one of len(x)
        cand = (xs[:, :, None] + step[:, :, None] * moves).swapaxes(1, 2)
        if project is not None:
            cand = project(cand)
        vals = evaluate(cand, owner[search])
        j = vals.argmin(axis=1)
        best = vals[np.arange(len(search)), j].tolist()
        moved, rows = [], []
        for i, row, n, w in passing:
            value, k = trace[i][-1], 0
            while k < n and not best[row + k] < value:  # the first improving level
                k += 1
            trace[i] += [value] * k
            if k < n:  # k shrinks and a move
                trace[i].append(best[row + k])
                width[i], steps[i], depth[i] = levels[row + k], steps[i] + k + 1, 2
                moved.append(i)
                rows.append(row + k)
            else:  # n shrinks
                width[i], steps[i], depth[i] = w, steps[i] + n, 2 * depth[i]
        if moved:
            x[moved] = cand[rows, j[rows]]
        running = [i for i, _, _, _ in passing]
    out = []
    for state in range(owner.max(initial=-1) + 1):
        mine = np.flatnonzero(owner == state).tolist()
        best_i = min(mine, key=lambda i: trace[i][-1])
        history = [trace[mine[0]][:1]] + [trace[i] for i in mine]
        out.append((x[best_i].copy(), trace[best_i][-1],
                    sum(steps[i] for i in mine) * len(offsets),
                    np.minimum.accumulate(np.concatenate(history))))
    return out


def _frozen(*arrays):
    # state-independent grid work is cached per process, so no caller may
    # write to it
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _checked(rhos, caller):
    # each state checked once: the arrays, S(rho) from the check's eigenvalues,
    # and their stacked Bloch data (aA, aB, C), for any number of states
    checked = [_check_density(rho, caller=caller) for rho in rhos]
    states = [a for a, _ in checked]
    bloch = _pauli_data(np.array(states).reshape(-1, 4, 4))
    return states, np.array([_spectral_entropy(w) for _, w in checked]), bloch


def _refine_from_centre(centre, width, evaluate, offsets, project, count):
    # count searches of a convex family, each scored at and started from the
    # set's centre, with width its distance to the boundary
    everyone = np.arange(count)
    values = evaluate(np.tile(centre, (count, 1, 1)), everyone)[:, 0].tolist()
    return _refine([(centre, v, width) for v in values], evaluate, offsets, project, owner=everyone)


def _results(found, minimizer, base):
    # one OracleResult per state of _refine's tuples, minimizer(k, x) the state at
    # state k's best point x, base the evaluations before refinement (grid or centre)
    return [OracleResult(minimizer(k, x), float(_clamp_residue(value)), base + evals, history)
            for k, (x, value, evals, history) in enumerate(found)]


# ---------------------------------------------------------------------------
# closest classical state

def _pauli_data(rho):
    # Bloch representation rho = (I x I + aA.sigma x I + I x aB.sigma
    # + sum_kl C_kl sigma_k x sigma_l) / 4 of one state or an (n, 4, 4)
    # stack, each state's (aA, aB, C) the same bits either way; the dephased
    # diagonal in any product basis depends only on (aA, aB, C).
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    eye = np.eye(2, dtype=complex)
    a_vec = np.real(np.einsum("...abcd,kca,db->...k", r, PAULI, eye))
    b_vec = np.real(np.einsum("...abcd,ca,kdb->...k", r, eye, PAULI))
    corr = np.real(np.einsum("...abcd,kca,ldb->...kl", r, PAULI, PAULI))
    return a_vec, b_vec, corr


def _directions(theta, phi):
    st = np.sin(theta)
    out = np.empty(np.shape(st) + (3,))
    np.multiply(st, np.cos(phi), out=out[..., 0])
    np.multiply(st, np.sin(phi), out=out[..., 1])
    np.cos(theta, out=out[..., 2])
    return out


def _dot3(x, y):
    # x . y over a last axis of 3 as elementwise sums, the same bits for a lone
    # state as for a stack, which a stacked matmul need not give
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


_SIGNS = np.array(((1, 1), (1, -1), (-1, 1), (-1, -1)), dtype=float)  # rows (s, t)
_ANGLES = np.array([[[0, 1]], [[2, 3]]])  # (qubit, 1, (theta, phi)) columns of a quad


@functools.cache
def _sign_stacks(ndim):
    # s, t and s t on a leading axis of 4, against inputs of up to ndim axes
    s, t = _SIGNS.T.reshape((2, 4) + (1,) * ndim)
    return _frozen(s, t, s * t)


def _dephased_entropy(alpha, beta, kappa):
    # Shannon entropy of the four outcome probabilities
    # (1 + s alpha + t beta + s t kappa) / 4 of the dephased diagonal, formed
    # as one (4, ...) stack, clipped to [0, 1] and summed. The bits are those
    # of the loop 0.0 - x0 - x1 - x2 - x3 over the terms x = p log2 p: the sum
    # over the leading axis adds ((x0 + x1) + x2) + x3, each term is +0.0 or
    # negative, negation is exact, and (-a) - b = -(a + b) under round-to-nearest
    s, t, st = _sign_stacks(max(np.ndim(alpha), np.ndim(beta), np.ndim(kappa)))
    p = ((1.0 + s * alpha) + t * beta) + st * kappa
    p /= 4.0
    return 0.0 - _xlog2(p.clip(0.0, 1.0, out=p)).sum(axis=0)


def _arc_length_steps(quads, width):
    # steps of (theta_a, phi_a, theta_b, phi_b): a phi step of
    # w / max(|sin theta|, w) turns the direction by about w on the sphere,
    # so searches near a pole keep moving by the pattern width
    step = width[:, None].repeat(4, axis=1)
    step[:, 1::2] /= np.maximum(np.abs(np.sin(quads[:, 0::2])), width[:, None])
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


def _classical_terms(a_vec, b_vec, corr, ua, ub):
    # alpha = ua.aA (..., m, 1), beta = ub.aB (..., 1, n) and kappa = ua.C.ub
    # (..., m, n) of A directions ua (..., m, 3) and B directions ub (..., n, 3),
    # with one state's data per leading index
    alpha = np.matmul(ua, a_vec[..., None])
    beta = np.matmul(ub, b_vec[..., None]).swapaxes(-1, -2)
    kappa = ua @ corr @ ub.swapaxes(-1, -2)
    return alpha, beta, kappa


def _classical_values(a_vec, b_vec, corr, ua, ub, s_rho):
    # the exact classical objective of the refinement (the grid's rows are
    # scored from the same terms): all (..., m, n) pairs of A directions ua
    # and B directions ub
    return _dephased_entropy(*_classical_terms(a_vec, b_vec, corr, ua, ub)) - s_rho


# A row is scored unless its floor exceeds the least value so far by more
# than this. The floor undercuts a row's exact objective only by rounding
# (under 1e-14 bits) and, where an accepted state's outcome probabilities
# (eigenvalues >= -1e-10, trace within 1e-10) clip at 0, by a few 1e-10 bits
_FLOOR_SLACK_BITS = 1e-8
# pattern search finds only its start's basin, so the second start (over 60
# degrees from the first on a qubit) is refined when within this of the first
_SECOND_START_BITS = 3e-2
_S = np.array([[1.0], [-1.0]])  # the A outcome s = +-1 on a leading axis


def _row_floors(alpha, reach, s_rho):
    # a lower bound on the classical objective of each row's cells, from its
    # alpha = ua.aA in [-1, 1] and reach (s, row) >= |w.ub| over its B
    # directions ub, w = aB + s C^T ua. By the chain rule H(X, Y) = H(X) +
    # sum_s P(X = s) H(Y | X = s), with P(X = s) = (1 + s alpha) / 2, where
    # given X = s the B outcome has bias w.ub / (1 + s alpha); the binary
    # entropy h((1 + x) / 2) falls with |x|, and a weight 0 drops its term
    weight = 1.0 + _S * alpha  # 2 P(X = s)
    x = np.concatenate([alpha[None], np.minimum(reach / np.where(weight > 0.0, weight, 1.0), 1.0)])
    h = -(_xlog2(0.5 + 0.5 * x) + _xlog2(0.5 - 0.5 * x))
    return h[0] + 0.5 * (weight[0] * h[1] + weight[1] * h[2]) - s_rho


def _least_cell(alpha, beta, kappa, s_rho, floor, cap=math.inf, far=None):
    # the first least eligible cell (ia, ib) of one state's grid in row-major
    # order and its exact value, bit for bit, if that is at most cap (else a
    # value above cap, maybe inf): every cell, or with far (direction, qubit)
    # those with far[ia, 0] or far[ib, 1]. Rows are scored in ascending order
    # of their floor, the least alone, then GRID_POINTS_PER_ANGLE at a time
    # (temporaries that fit in cache), while within _FLOOR_SLACK_BITS of cap
    # and of the least value so far
    order = floor.argsort(kind="stable")
    best, done = (math.inf, 0, 0), 0  # (value, ia, ib), least in that order
    while True:
        end = min(int(floor[order].searchsorted(min(cap, best[0]) + _FLOOR_SLACK_BITS, side="right")),
                  done + (GRID_POINTS_PER_ANGLE if done else 1))
        if end <= done:
            return best[1], best[2], best[0]
        part = order[done:end]
        values = _dephased_entropy(alpha[part], beta, kappa[part]) - s_rho
        if far is not None:
            values = np.where(far[part, :1] | far[:, 1], values, math.inf)
        cols = values.argmin(axis=1)
        best = min(best, *zip(values[np.arange(len(part)), cols].tolist(), part.tolist(), cols.tolist()))
        done = end


def _grid_starts(u, a_vec, b_vec, corr, s_rho):
    # the cells (ia, ib, exact value) one state's refinement starts from: the
    # grid's first least cell, and the first least over 60 degrees from it on
    # a qubit if that scores within _SECOND_START_BITS of it
    terms = _classical_terms(a_vec, b_vec, corr, u, u)
    alpha = terms[0][:, 0].clip(-1.0, 1.0)
    w = b_vec + _S[:, :, None] * (u @ corr)  # (s, row, 3)
    reach = np.sqrt(_dot3(w, w))  # tight on Bell-diagonal states
    first = _least_cell(*terms, s_rho, _row_floors(alpha, reach, s_rho))
    far = np.abs(u @ u[list(first[:2])].T) <= 0.5  # (direction, qubit): over 60 degrees off
    # rows within 60 degrees of the first's A direction keep the ub with
    # |ub.ub1| <= 1/2, where |w.ub| <= |w_par| / 2 + (sqrt 3 / 2) |w_perp|
    # once |w_par| > |w| / 2
    ub1 = u[first[1]]
    par = _dot3(w, ub1)
    perp = w - par[..., None] * ub1
    reach = np.where(far[:, 0] | (2.0 * np.abs(par) <= reach), reach,
                     0.5 * np.abs(par) + math.sqrt(0.75) * np.sqrt(_dot3(perp, perp)))
    second = _least_cell(*terms, s_rho, _row_floors(alpha, reach, s_rho),
                         first[2] + _SECOND_START_BITS, far)
    return [first, second] if second[2] - first[2] <= _SECOND_START_BITS else [first]


@functools.cache
def _stencil():
    # _offsets(4) moves each qubit's angles in 9 ways: offset k pairs A move
    # ia[k] with B move ib[k], and offset by_move[q, i] makes qubit q (A, B) move i
    off = (_offsets(4) + 1.0).astype(int)
    ia, ib = 3 * off[:, 0] + off[:, 1], 3 * off[:, 2] + off[:, 3]
    return _frozen(ia, ib, np.array([np.unique(m, return_index=True)[1] for m in (ia, ib)]))


def oracle_closest_classical(rhos) -> list[OracleResult]:
    """Minimize S(rho || chi) over classical states chi, for each state rho
    of `rhos`; returns one result per state.

    For each product basis the optimal classical diagonal equals the
    dephased diagonal of rho, so only the four local angles are searched:
    a full coarse grid, then pattern refinement from its best cell and from
    its best cell over 60 degrees from that on a qubit, if that one scores
    near the first. All refinements run in lockstep. Every grid cell counts
    as an evaluation: the rows not scored exactly are ruled out by a floor.
    """
    states, s_rho, (a_vec, b_vec, corr) = _checked(rhos, "oracle_closest_classical")

    def evaluate(quads, owner):
        # the (search, 80, 4) stencil, scored on 9 A and 9 B directions from one gather
        ia, ib, by_move = _stencil()
        angles = quads[:, by_move[:, :, None], _ANGLES]
        u = _directions(angles[..., 0], angles[..., 1])
        return _classical_values(a_vec[owner], b_vec[owner], corr[owner], u[:, 0], u[:, 1],
                                 s_rho[owner, None, None])[:, ia, ib]

    th, ph, u = _direction_grid()
    width0 = max(math.pi / (GRID_POINTS_PER_ANGLE - 1), 2.0 * math.pi / GRID_POINTS_PER_ANGLE)
    starts, owner = [], []
    for k in range(len(states)):
        for ia, ib, value in _grid_starts(u, a_vec[k], b_vec[k], corr[k], s_rho[k]):
            starts.append((np.array([th[ia], ph[ia], th[ib], ph[ib]]), value, width0))
            owner.append(k)

    found = _refine(starts, evaluate, _offsets(4), owner=owner, steps_of=_arc_length_steps)
    return _results(found, lambda k, x: _dephase(states[k], x), len(u) ** 2)


# ---------------------------------------------------------------------------
# closest separable Bell-diagonal state

def _simplex_log_q(q3):
    # q3: (..., 3) points over the first three coefficients, the fourth fixed
    # by normalization. Returns log2 q, -inf where q < 1e-15 (sigma misses
    # rho's support: +inf away), and which points are separable, 0 <= q <= 1/2
    q = np.concatenate([q3, 1.0 - q3.sum(axis=-1, keepdims=True)], axis=-1)
    feasible = ((q >= 0.0) & (q <= 0.5)).all(axis=-1)
    return np.where(q < 1e-15, -math.inf, np.log2(np.where(q > 0.0, q, 1.0))), feasible


def oracle_closest_separable_bd(lams) -> list[OracleResult]:
    """Minimize S(rho || sigma) over Bell-diagonal sigma with all
    coefficients <= 1/2 (the separable slice of the Bell simplex), for the
    Bell-diagonal rho of each spectrum of `lams`, by pattern refinement from
    the slice's centre; returns one result per spectrum. All refinements
    run in lockstep.

    S(rho || sigma) is convex in sigma and the slice is convex, so every
    local minimum is global; the 26 moves include every edge direction of
    the slice (+-e_i and +-(e_i - e_j)), so a search is not stuck on a facet.
    """
    lam = np.array([validate_spectrum(x).reshape(4) for x in lams]).reshape(-1, 4)
    pos = lam > 0.0
    log_lam = np.log2(np.where(pos, lam, 1.0))

    def evaluate(cand, owner):
        # S(rho || sigma) = sum over lam_i > 0 of lam_i log2(lam_i / q_i), as Bell-diagonal
        # pairs commute; masked before the multiply (0 * inf is NaN), summed in order
        log_q, feasible = _simplex_log_q(cand)
        terms = lam[owner, None] * np.where(pos[owner, None], log_lam[owner, None] - log_q, 0.0)
        return _clamp_residue(np.where(feasible, terms.sum(axis=-1), math.inf))

    def project(cand):
        return cand.clip(0.0, 0.5)

    # the centre q = 1/4 with width 1/4, its distance to each facet q_i = 1/2
    found = _refine_from_centre(np.full(3, 0.25), 0.25, evaluate, _offsets(3), project, len(lam))
    return _results(found, lambda _, x: _bell_density(np.append(x, 1.0 - x.sum())), 1)


# ---------------------------------------------------------------------------
# closest product state

def _product_states(params):
    # (..., 6) Bloch vectors of pA and pB -> (..., 4, 4) product states
    q = np.eye(2, dtype=complex) + np.einsum("nk,kij->nij", params.reshape(-1, 3), PAULI)
    q = q.reshape(-1, 2, 2, 2) / 2.0
    return np.einsum("nab,ncd->nacbd", q[:, 0], q[:, 1]).reshape(params.shape[:-1] + (4, 4))


def _product_values(a_vec, b_vec, corr, params, s_rho):
    # S(rho || pA x pB) for (..., 6) Bloch vectors of pA and pB, rho's Bloch
    # data broadcast against their leading axes: sigma's eigenvalues
    # (1 + s rA)(1 + t rB) / 4 have the projectors (I + s nA.sigma) / 2 x
    # (I + t nB.sigma) / 2, on which rho weighs (1 + s nA.a + t nB.b
    # + s t nA.C.nB) / 4, n = 0 where r = 0
    va, vb = params[..., :3], params[..., 3:]
    ra, rb = np.sqrt(_dot3(va, va)), np.sqrt(_dot3(vb, vb))
    na = va / np.where(ra > 0.0, ra, 1.0)[..., None]
    nb = vb / np.where(rb > 0.0, rb, 1.0)[..., None]
    alpha, beta = _dot3(na, a_vec), _dot3(nb, b_vec)
    kappa = _dot3(na, _dot3(corr, nb[..., None, :]))  # nA.C.nB
    s, t = _SIGNS.T  # the four (s, t) on a last axis
    w = (1.0 + s * ra[..., None]) * (1.0 + t * rb[..., None]) / 4.0
    overlap = 1.0 + s * alpha[..., None] + t * beta[..., None] + s * t * kappa[..., None]
    return _support_rule(w, overlap / 4.0, s_rho)


def oracle_closest_product(rhos) -> list[OracleResult]:
    """Minimize S(rho || pA x pB) over product states, for each state rho
    of `rhos`; returns one result per state.

    S(rho || pA x pB) = -S(rho) - Tr rhoA log pA - Tr rhoB log pB is
    convex in the two Bloch vectors, on a product of balls, so every local
    minimum is global: an axis-aligned pattern search from the centre
    rA = rB = 0 (the state I/4), projected back into the balls, needs no
    grid. All refinements run in lockstep.
    """
    states, s_rho, (a_vec, b_vec, corr) = _checked(rhos, "oracle_closest_product")

    def evaluate(cand, owner):
        return _product_values(a_vec[owner, None], b_vec[owner, None], corr[owner, None], cand,
                               s_rho[owner, None])

    def project(cand):
        # each Bloch vector of norm > 1 scaled back onto its sphere
        v = cand.reshape(cand.shape[:-1] + (2, 3))
        norms = np.sqrt(_dot3(v, v))
        return (v / np.where(norms > 1.0, norms, 1.0)[..., None]).reshape(cand.shape)

    # the centre rA = rB = 0 (the state I/4) with width 1, its distance to
    # each ball's surface
    axes = np.concatenate([np.eye(6), -np.eye(6)])
    found = _refine_from_centre(np.zeros(6), 1.0, evaluate, axes, project, len(states))
    return _results(found, lambda _, x: _product_states(x[None, :])[0], 1)
