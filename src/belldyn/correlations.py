"""Correlation quantifiers for two-qubit states, in bits.

Total correlations T, discord D, classical correlations C and
entanglement E are relative-entropy distances to the closest product,
classical and separable states. For Bell-diagonal states all four closest
states are known in closed form and the quantifiers depend on the Bell
spectrum alone: `bell_quantifiers` evaluates them on whole stacks of
spectra. `quantifier_report` is the matrix route for one such state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BELL_RESIDUAL_TOL,
    _bell_density,
    _bell_diagonal,
    validate_spectrum,
)
from .linalg import (
    PAULI,
    _check_density,
    _clamp_residue,
    _relative_entropy_stack,
    _spectral_entropy,
    _xlog2,
)

#: c-vector of each Bell basis state, rows ordered (1+, 1-, 2+, 2-).
BELL_C_VECTORS = np.array([
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
    [1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
])

#: the correlators sigma_k x sigma_k, k = 1, 2, 3
_CORRELATORS = np.array([np.kron(p, p) for p in PAULI])


def _c_vectors(a):
    # einsum, not matmul: BLAS rounds a lone spectrum and a stack differently
    return np.einsum("...i,ij->...j", a, BELL_C_VECTORS)


def c_vector_of_spectrum(lam) -> np.ndarray:
    """c-vector of the Bell-diagonal state with spectrum lam; a stack of
    spectra (..., 4) gives a stack of c-vectors (..., 3)."""
    return _c_vectors(validate_spectrum(lam))


def closest_product(rho) -> np.ndarray:
    """Tensor product of the two marginals, the relative-entropy-closest
    product state. Equals I/4 for every Bell-diagonal input."""
    return _product_state(_check_density(rho, caller="closest_product")[0])


def _product_state(a) -> np.ndarray:
    # closest_product of a checked state: its marginals' product, with np.kron's bits
    q = a.reshape(2, 2, 2, 2)
    x, y = np.einsum("abcb->ac", q), np.einsum("abad->bd", q)
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(4, 4)


def closest_classical_bd(lam) -> np.ndarray:
    """Closest classical state to a Bell-diagonal state.

    Keeps only the dominant correlation direction:
    chi = (I + c_m sigma_m x sigma_m) / 4 with m = argmax_k |c_k|, ties
    broken toward the smallest index (D and C depend only on |c_m|).
    """
    c = c_vector_of_spectrum(lam).reshape(3)
    m = int(np.argmax(np.abs(c)))
    return (np.eye(4, dtype=complex) + c[m] * _CORRELATORS[m]) / 4.0


def closest_separable_spectrum(lam) -> np.ndarray:
    """Bell spectrum of the closest separable state.

    Separable inputs (largest coefficient <= 1/2) are returned unchanged.
    Otherwise the dominant coefficient is capped at 1/2 and the remaining
    three are rescaled to lam_j / (2 (1 - lam_max)), however small their sum.
    For a pure Bell state the rescaling is degenerate and the spare half is
    put on the lowest non-dominant slot; the distance does not depend on that
    choice.
    """
    a = validate_spectrum(lam).reshape(4)
    m = int(np.argmax(a))
    lmax = float(a[m])
    if lmax <= 0.5 + 1e-12:
        return a.copy()
    # summed, not 1 - lmax: the cancellation in 1 - lmax would break the
    # 1e-12 normalization of the result for nearly pure inputs
    rest = float(a[np.arange(4) != m].sum())
    if rest == 0.0:
        out = np.zeros(4)
        out[0 if m != 0 else 1] = 0.5
    else:
        out = a / (2.0 * rest)
    out[m] = 0.5
    return out


def bell_quantifiers(lam):
    """T, D, C and E in bits of Bell-diagonal states, from their spectra.

    `lam` is one spectrum of shape (4,) or a stack of shape (..., 4),
    validated once; each quantifier comes back with shape lam.shape[:-1].
    With H the Shannon entropy, h the binary entropy and c the c-vector:

        T = 2 - H(lam),  C = 1 - h((1 + max|c_k|) / 2),  D = T - C,
        E = 1 - h(lam_max) if lam_max > 1/2, else 0.

    Rounding residues of D and E in (-1e-9, 0) are clamped to 0.
    `quantifier_report` reaches them through 4 x 4 eigensolves of the
    closest states, whose eigenvalues carry an absolute error of about
    1e-13: it agrees to within 3.5e-11 bits over 3,000 Dirichlet(0.05)
    spectra, the gap in E on spectra with entries near 1e-12.
    """
    a = validate_spectrum(lam)
    return _quantifiers(a, _c_vectors(a))


def _quantifiers(a, cvec):
    # bell_quantifiers of a checked stack a with its c-vectors cvec
    t = 2.0 + _xlog2(a).sum(axis=-1)  # 2 - H(lam)
    # pairwise over the columns: numpy reduces along a short last axis slowly
    ac = np.abs(cvec)
    cmax = np.maximum(np.maximum(ac[..., 0], ac[..., 1]), ac[..., 2])
    lmax = np.maximum(np.maximum(a[..., 0], a[..., 1]), np.maximum(a[..., 2], a[..., 3]))
    p = np.array([(1.0 + cmax) / 2.0, lmax])
    h = -(_xlog2(p) + _xlog2(1.0 - p))
    c = 1.0 - h[0]
    d = t - c
    e = np.where(lmax > 0.5, 1.0 - h[1], 0.0)
    return t, _clamp_residue(d), c, _clamp_residue(e)


@dataclass(frozen=True)
class CorrelationReport:
    """T, D, C and E of a Bell-diagonal state in bits, and its closest states."""

    T: float
    D: float
    C: float
    E: float
    product_state: np.ndarray
    classical_state: np.ndarray
    separable_state: np.ndarray


def quantifier_report(rho) -> CorrelationReport:
    """Compute T, D, C, E and the closest-state certificates.

    T = S(pi) - S(rho), D = S(chi) - S(rho), C = S(pi_chi) - S(chi) and
    E = S(rho || sigma), with the closed-form closest states of the Bell
    spectrum. rho is checked once and must be Bell-diagonal: Bell-basis
    residual below BELL_RESIDUAL_TOL.
    """
    a, w = _check_density(rho, caller="quantifier_report")
    lam, off = _bell_diagonal(a)
    if off >= BELL_RESIDUAL_TOL:
        raise ValueError(f"quantifier_report expects a Bell-diagonal state, residual {off:.3e}")
    pi = _product_state(a)
    chi = closest_classical_bd(lam)
    sig = _bell_density(closest_separable_spectrum(lam))
    s_rho = float(_spectral_entropy(w))  # the check's eigenvalues of rho
    stack = np.stack([pi, chi, _product_state(chi)])
    s_pi, s_chi, s_pi_chi = _spectral_entropy(np.linalg.eigvalsh(stack)).tolist()
    e = float(_relative_entropy_stack(a, sig[None], s_rho)[0])
    return CorrelationReport(s_pi - s_rho, s_chi - s_rho, s_pi_chi - s_chi, e, pi, chi, sig)
