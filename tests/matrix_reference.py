"""What the test modules share: the figure state's constants, random
states, and generic matrix functions used as references, in bits.

The matrix functions are unchecked math on valid states, built on the
library's private kernels. Each reads its input as complex first, as
`check_density` does, so a value has the bits the library computes from
the same state.
"""

import math

import numpy as np

from belldyn.correlations import _CORRELATORS
from belldyn.dynamics import BELL_VECTORS
from belldyn.linalg import _dephase, _relative_entropy_stack, _spectral_entropy

#: the paper's figure state, read-only so that no test changes it for another
LAM_FIG = np.array([0.9, 0.1, 0.0, 0.0])
LAM_FIG.setflags(write=False)
H09 = 0.4689955935892812  # binary entropy of 0.9 in bits
TAU_SWITCH = 0.5 * math.asin(math.sqrt(0.2))  # f = 0.1 crossing, ~0.2318
#: the figure state's entanglement-death window: E = 0 where f >= 4/9
DEATH_LO = 0.5 * math.asin(math.sqrt(8.0 / 9.0))  # ~0.6155
DEATH_HI = (math.pi - math.asin(math.sqrt(8.0 / 9.0))) / 2.0  # ~0.9553


def random_density(rng, dim):
    """g g^dag / Tr, with g a complex Gaussian dim x dim matrix drawn from rng."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def bell_projector(k):
    """Projector onto the Bell basis column k, in `BELL_VECTORS`' order."""
    v = BELL_VECTORS[:, k]
    return np.outer(v, v.conj())


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
