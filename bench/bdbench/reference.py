"""Independent closed forms the benchmark checks the program against.

Nothing here imports belldyn. Bell labels follow the program's order
1+, 1-, 2+, 2-, with |1±> = (|01> ± |10>)/√2 and |2±> = (|00> ± |11>)/√2.
All entropies are in bits.
"""

from __future__ import annotations

import math

import numpy as np

#: c_k = <B| σk⊗σk |B> for the four Bell states, rows in label order.
#: |Ψ+> = |1+>: (1, 1, -1); |Ψ-> = |1->: (-1, -1, -1);
#: |Φ+> = |2+>: (1, -1, 1); |Φ-> = |2->: (-1, 1, 1).
C_OF_BELL = np.array([
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
    [1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
])

_R = 1.0 / math.sqrt(2.0)
#: Bell vectors in the computational basis |00>, |01>, |10>, |11>, as columns.
BELL_COLUMNS = np.array([
    [0.0, 0.0, _R, _R],
    [_R, _R, 0.0, 0.0],
    [_R, -_R, 0.0, 0.0],
    [0.0, 0.0, _R, -_R],
])

#: ½·asin√0.2: where the second-largest coefficient of (0.9, 0.1, 0, 0) switches.
TAU_SWITCH = 0.5 * math.asin(math.sqrt(0.2))
#: Entanglement of (0.9, 0.1, 0, 0) is zero on [DEATH_LO, DEATH_HI] mod π/2.
DEATH_LO = 0.5 * math.asin(math.sqrt(8.0 / 9.0))
DEATH_HI = (math.pi - math.asin(math.sqrt(8.0 / 9.0))) / 2.0


def xlog2x(p):
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def shannon(p, axis=-1):
    return -np.sum(xlog2x(p), axis=axis)


def h2(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return -(xlog2x(x) + xlog2x(1.0 - x))


def mixing(tau):
    return np.sin(2.0 * np.asarray(tau, dtype=float)) ** 2 / 2.0


def spectra(lam0, tau):
    """Evolved Bell spectra on a grid: λ(τ) = (1-f) λ0 + f λ0[partner],
    partners (1+, 2-) and (1-, 2+)."""
    lam0 = np.asarray(lam0, dtype=float)
    f = mixing(tau)[..., None]
    return (1.0 - f) * lam0 + f * lam0[::-1]


def quantifiers(lam):
    """T, D, C, E of Bell-diagonal states with spectra lam (..., 4)."""
    lam = np.asarray(lam, dtype=float)
    c = lam @ C_OF_BELL
    t = 2.0 - shannon(lam)
    cl = 1.0 - h2((1.0 + np.max(np.abs(c), axis=-1)) / 2.0)
    lmax = np.max(lam, axis=-1)
    e = np.where(lmax > 0.5, 1.0 - h2(lmax), 0.0)
    return {"T": t, "D": t - cl, "C": cl, "E": e}


def trajectory(lam0, tau, g=1.0):
    """Every trajectory column the program writes, keyed by name."""
    tau = np.asarray(tau, dtype=float)
    lam = spectra(lam0, tau)
    cols = {"tau": tau}
    if g != 1.0:
        cols["t"] = tau / g
    cols["f"] = mixing(tau)
    for k, name in enumerate(("lambda_1p", "lambda_1m", "lambda_2p", "lambda_2m")):
        cols[name] = lam[:, k]
    c = lam @ C_OF_BELL
    for k in range(3):
        cols[f"c{k + 1}"] = c[:, k]
    cols.update(quantifiers(lam))
    return cols


def ancilla(tau, convention):
    """E_anc and I_E of the ancilla protocol on an ascending grid from 0."""
    tau = np.asarray(tau, dtype=float)
    p = np.maximum(np.cos(tau) ** 2, np.sin(tau) ** 2)
    e = np.where(p > 0.5, 1.0 - h2(p), 0.0)
    d = np.diff(e)
    inc = 2.0 * np.clip(d, 0.0, None) if convention == "rhp" else np.abs(d) - d
    return e, np.concatenate([[0.0], np.cumsum(inc)])


def bell_matrix(lam):
    """4x4 Bell-diagonal density matrix as [[re, im], ...] rows."""
    rho = (BELL_COLUMNS * np.asarray(lam, dtype=float)) @ BELL_COLUMNS.T
    return [[[float(x), 0.0] for x in row] for row in rho]


def figure_events():
    """Switching times and death windows of (0.9, 0.1, 0, 0) on [0, π]."""
    h = math.pi / 2.0
    switching = [TAU_SWITCH, h - TAU_SWITCH, h + TAU_SWITCH, math.pi - TAU_SWITCH]
    deaths = [(DEATH_LO, DEATH_HI), (h + DEATH_LO, h + DEATH_HI)]
    return switching, deaths
