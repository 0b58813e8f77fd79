"""Dense complex matrix primitives for 2x2 and 4x4 Hermitian operators.

All entropic quantities are in bits (log base 2). Functions are pure and
operate on plain numpy arrays. The public ones validate their inputs
against the tolerances below; the private kernels take checked arrays.
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


def _check_density(rho, name="state", caller=None):
    # check_density, also returning the eigenvalues of rho; with a caller,
    # rho must be 4x4 as well, and the shape error names the caller
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"{name} must be 2x2 or 4x4, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = float(np.abs(a - a.conj().T).max())
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
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
    (see `_support_rule`)."""
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


def _dephase(a, angles):
    # zero the off-diagonal elements of a checked 4x4 complex array in the
    # product basis |a_i b_j> of local Bloch angles (thetaA, phiA, thetaB,
    # phiB). On each qubit, basis vector 0 points along (sin t cos p,
    # sin t sin p, cos t) and vector 1 is its orthogonal partner
    b = _product_basis(angles)
    p = np.einsum("ik,ij,jk->k", b.conj(), a, b).real.clip(0.0, None)
    return (b * p) @ b.conj().T


def _product_basis(angles):
    # the columns |a_i b_j> of _dephase: np.kron's bits, as one broadcast product
    ta, pa, tb, pb = (float(x) for x in angles)
    local = []
    for theta, phi in ((ta, pa), (tb, pb)):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        e = complex(math.cos(phi), math.sin(phi))
        local.append([[c, -s], [e * s, e * c]])
    qa, qb = np.array(local, dtype=complex)
    return (qa[:, None, :, None] * qb[:, None, :]).reshape(4, 4)
