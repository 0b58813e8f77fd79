"""Generic matrix functions the tests use as references, in bits.

Unchecked math on valid states, built on the library's private kernels.
Each function reads its input as complex first, as `check_density` does,
so a value has the bits the library computes from the same state.
"""

import numpy as np

from belldyn.correlations import _CORRELATORS
from belldyn.linalg import _dephase, _relative_entropy_stack, _spectral_entropy


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum_k w_k log2 w_k, with 0 log 0 := 0."""
    return float(_spectral_entropy(np.linalg.eigvalsh(np.asarray(rho, dtype=complex))))


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = -Tr(rho log2 sigma) - S(rho); +inf where the support
    of rho is not contained in the support of sigma."""
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    return float(_relative_entropy_stack(r, s[None], _spectral_entropy(np.linalg.eigvalsh(r)))[0])


def trace_distance(rho, sigma) -> float:
    """(1/2) sum of |eigenvalues| of rho - sigma."""
    d = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(d))))


def dephase_in_basis(rho, angles) -> np.ndarray:
    """rho with its off-diagonal elements zeroed in the product basis of
    local Bloch angles (thetaA, phiA, thetaB, phiB)."""
    return _dephase(np.asarray(rho, dtype=complex), angles)


def correlation_c_vector(rho) -> np.ndarray:
    """(c1, c2, c3) with c_k = Tr[rho (sigma_k x sigma_k)]."""
    a = np.asarray(rho, dtype=complex)
    return np.array([float(np.trace(a @ s).real) for s in _CORRELATORS])
