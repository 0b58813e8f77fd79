"""Dense complex matrix primitives for 2x2 and 4x4 Hermitian operators.

All entropic quantities are in bits (log base 2). Functions are pure,
operate on plain numpy arrays and validate their inputs against the
tolerances below.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
SUPPORT_CUTOFF = 1e-12
SUPPORT_OVERLAP_TOL = 1e-8

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def _as_square(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"{name} must be 2x2 or 4x4, got shape {a.shape}")
    return a


def check_hermitian(m, name="matrix"):
    """Validate Hermiticity within HERMITICITY_TOL and return the array as complex."""
    a = _as_square(m, name)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = float(np.abs(a - a.conj().T).max())
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return a


def _check_density(rho, name="state", caller=None):
    # check_density, also returning the eigenvalues of rho; with a caller,
    # rho must be 4x4 as well, and the shape error names the caller
    a = check_hermitian(rho, name=name)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace is {tr!r}, expected 1")
    w = np.linalg.eigvalsh(a)
    if float(w.min()) < -EIGENVALUE_TOL:
        raise ValueError(f"{name} has negative eigenvalue {w.min():.3e}")
    if caller is not None and a.shape != (4, 4):
        raise ValueError(f"{caller} expects a 4x4 state")
    return a, w


def check_density(rho, name="state"):
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite."""
    return _check_density(rho, name)[0]


def _xlog2(p):
    """Elementwise p log2 p with 0 log 0 := 0, and +0.0 for p < 0 and NaN too,
    as q = 1 there; the one entropy kernel. Callers clip and sum themselves."""
    p = np.asarray(p, dtype=float)
    q = np.where(p > 0, p, 1.0)
    return q * np.log2(q)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum_k w_k log2 w_k in bits, with 0 log 0 := 0.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything more negative
    is rejected.
    """
    a = check_hermitian(rho, name="state")
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace is {tr!r}, expected 1")
    return _entropy(a)


def _entropy(a):
    # von_neumann_entropy of checked or built Hermitian unit-trace arrays: a float
    # for one, a list for a stack; one eigvalsh runs LAPACK on each matrix alike
    w = np.linalg.eigvalsh(a)
    if float(w.min()) < -1e-8:
        raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
    return _spectral_entropy(w).tolist()


def _spectral_entropy(w):
    # -sum w log2 w over the last axis of eigenvalues w, clipped at 0
    return -np.sum(_xlog2(w.clip(0.0, None)), axis=-1)


def _clamp_residue(x):
    """Set rounding residues of a distance in (-1e-9, 0) to 0, elementwise."""
    return np.where((x > -1e-9) & (x < 0.0), 0.0, x)


def _relative_entropy_stack(rho, sigmas, s_rho):
    """S(rho || sigma) in bits for each sigma of an (..., d, d) stack, given
    s_rho = S(rho); rho and s_rho broadcast against the stack's leading
    axes. Inputs are not validated. +inf where sigma's support misses rho
    (see `relative_entropy`)."""
    w, v = np.linalg.eigh(sigmas)
    return _support_rule(w, np.real(np.einsum("...ik,...ij,...jk->...k", v.conj(), rho, v)), s_rho)


def _support_rule(w, overlap, s_rho):
    # -sum_k overlap_k log2 w_k - s_rho over a last axis of sigma's
    # eigenvalues w and rho's weights on their projectors: overlaps clipped
    # at 0, eigenvalues below SUPPORT_CUTOFF cut, and +inf where a cut one
    # carries more than SUPPORT_OVERLAP_TOL of rho
    overlap = overlap.clip(0.0, None)
    small = w < SUPPORT_CUTOFF
    bad = (small & (overlap > SUPPORT_OVERLAP_TOL)).any(axis=-1)
    logs = np.log2(np.where(small, 1.0, w))
    vals = -np.where(small, 0.0, overlap * logs).sum(axis=-1) - s_rho
    return _clamp_residue(np.where(bad, math.inf, vals))


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = -Tr(rho log2 sigma) - S(rho), in bits.

    Returns +inf when the support of rho is not contained in the support
    of sigma (sigma eigenvalue below the support cutoff carrying more
    than SUPPORT_OVERLAP_TOL of rho's weight).
    """
    r = check_density(rho, name="rho")
    s = check_density(sigma, name="sigma")
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    return float(_relative_entropy_stack(r, s[None], _entropy(r))[0])


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators, qubit-A-major ordering |ab>."""
    x = np.asarray(a, dtype=complex)
    y = np.asarray(b, dtype=complex)
    if x.shape != (2, 2) or y.shape != (2, 2):
        raise ValueError(f"tensor expects two 2x2 factors, got {x.shape} and {y.shape}")
    return np.kron(x, y)


def _marginal(a, keep) -> np.ndarray:
    # the marginal of subsystem keep, "A" or "B", of a checked 4x4 complex array
    return np.einsum("abcb->ac" if keep == "A" else "abad->bd", a.reshape(2, 2, 2, 2))


def dephase_in_basis(rho, angles) -> np.ndarray:
    """Zero all off-diagonal elements of rho in the product basis |a_i b_j>
    of local Bloch angles (thetaA, phiA, thetaB, phiB). On each qubit, basis
    vector 0 points along (sin t cos p, sin t sin p, cos t) and vector 1 is
    its orthogonal partner."""
    return _dephase(_check_density(rho, caller="dephase_in_basis")[0], angles)


def _dephase(a, angles):
    # dephase_in_basis of a checked 4x4 complex array
    b = _product_basis(angles)
    p = np.einsum("ik,ij,jk->k", b.conj(), a, b).real.clip(0.0, None)
    return (b * p) @ b.conj().T


def _product_basis(angles):
    # the columns |a_i b_j> of dephase_in_basis: np.kron's bits, as one broadcast product
    ta, pa, tb, pb = (float(x) for x in angles)
    local = []
    for theta, phi in ((ta, pa), (tb, pb)):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        e = complex(math.cos(phi), math.sin(phi))
        local.append([[c, -s], [e * s, e * c]])
    qa, qb = np.array(local, dtype=complex)
    return (qa[:, None, :, None] * qb[:, None, :]).reshape(4, 4)


def trace_distance(rho, sigma) -> float:
    """(1/2) sum of |eigenvalues| of rho - sigma, for Hermitian rho and sigma."""
    r = check_hermitian(rho, "rho")
    s = check_hermitian(sigma, "sigma")
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    w = np.linalg.eigvalsh(r - s)
    return float(0.5 * np.sum(np.abs(w)))
