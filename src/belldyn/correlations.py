"""Correlation quantifiers for two-qubit states, in bits.

Total correlations T, discord D, classical correlations C and
entanglement E are relative-entropy distances to the closest product,
classical and separable states. For Bell-diagonal states all four closest
states are known in closed form and the quantifiers depend on the Bell
spectrum alone: `bell_quantifiers` evaluates them on whole stacks of
spectra. `quantifier_report` is the general matrix route: it builds the
closest states, and falls back to the brute-force search of
`belldyn.oracle` for states that are not Bell-diagonal (where E is only
witnessed via the partial transpose).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BELL_RESIDUAL_TOL,
    bell_spectrum_of,
    bell_spectrum_to_density,
    validate_spectrum,
)
from .linalg import (
    PAULI,
    _clamp_residue,
    _relative_entropy_stack,
    _xlog2,
    check_two_qubit_state,
    partial_trace,
    tensor,
    von_neumann_entropy,
)
from .oracle import oracle_closest_classical

#: c-vector of each Bell basis state, rows ordered (1+, 1-, 2+, 2-).
BELL_C_VECTORS = np.array([
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
    [1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
])


def correlation_c_vector(rho) -> np.ndarray:
    """(c1, c2, c3) with c_k = Tr[rho (sigma_k x sigma_k)]."""
    a = check_two_qubit_state(rho, "correlation_c_vector")
    return np.array([float(np.trace(a @ tensor(p, p)).real) for p in PAULI])


def _c_vectors(a):
    # einsum, not matmul: BLAS rounds a lone spectrum and a stack differently
    return np.einsum("...i,ij->...j", a, BELL_C_VECTORS)


def c_vector_of_spectrum(lam) -> np.ndarray:
    """c-vector of the Bell-diagonal state with spectrum lam; a stack of
    spectra (..., 4) gives a stack of c-vectors (..., 3)."""
    return _c_vectors(validate_spectrum(lam))


def spectrum_of_c_vector(c) -> np.ndarray:
    """Inverse of c_vector_of_spectrum: lam_s = (1 + c(s).c) / 4."""
    v = np.asarray(c, dtype=float).reshape(-1)
    if v.size != 3:
        raise ValueError("c-vector needs 3 entries")
    return (1.0 + BELL_C_VECTORS @ v) / 4.0


def closest_product(rho) -> np.ndarray:
    """Tensor product of the two marginals, the relative-entropy-closest
    product state. Equals I/4 for every Bell-diagonal input."""
    a = check_two_qubit_state(rho, "closest_product")
    return tensor(partial_trace(a, "A"), partial_trace(a, "B"))


def closest_classical_bd(lam) -> np.ndarray:
    """Closest classical state to a Bell-diagonal state.

    Keeps only the dominant correlation direction:
    chi = (I + c_m sigma_m x sigma_m) / 4 with m = argmax_k |c_k|, ties
    broken toward the smallest index (D and C depend only on |c_m|).
    """
    c = c_vector_of_spectrum(lam).reshape(3)
    m = int(np.argmax(np.abs(c)))
    p = PAULI[m]
    return (np.eye(4, dtype=complex) + c[m] * tensor(p, p)) / 4.0


def closest_separable_spectrum(lam) -> np.ndarray:
    """Bell spectrum of the closest separable state.

    Separable inputs (largest coefficient <= 1/2) are returned unchanged.
    Otherwise the dominant coefficient is capped at 1/2 and the remaining
    three are rescaled to lam_j / (2 (1 - lam_max)). For a pure Bell state
    the rescaling is degenerate and the spare half is put on the lowest
    non-dominant slot; the distance does not depend on that choice.
    """
    a = validate_spectrum(lam).reshape(4)
    m = int(np.argmax(a))
    lmax = float(a[m])
    if lmax <= 0.5 + 1e-12:
        return a.copy()
    # summed, not 1 - lmax: the cancellation in 1 - lmax would break the
    # 1e-12 normalization of the result for nearly pure inputs
    rest = float(np.sum(np.delete(a, m)))
    out = np.zeros(4)
    if rest < 1e-15:
        out[m] = 0.5
        out[0 if m != 0 else 1] = 0.5
    else:
        out = a / (2.0 * rest)
        out[m] = 0.5
    return out


def closest_separable_bd(lam) -> np.ndarray:
    """Closest separable state to a Bell-diagonal state, as a matrix."""
    return bell_spectrum_to_density(closest_separable_spectrum(lam))


def bell_quantifiers(lam):
    """T, D, C and E in bits of Bell-diagonal states, from their spectra.

    `lam` is one spectrum of shape (4,) or a stack of shape (..., 4),
    validated once; each quantifier comes back with shape lam.shape[:-1].
    With H the Shannon entropy, h the binary entropy and c the c-vector:

        T = 2 - H(lam),  C = 1 - h((1 + max|c_k|) / 2),  D = T - C,
        E = 1 - h(lam_max) if lam_max > 1/2, else 0.

    Rounding residues of D and E in (-1e-9, 0) are clamped to 0.
    `quantifier_report` gives the same values through the closest states.
    """
    a = validate_spectrum(lam)
    t = 2.0 + np.sum(_xlog2(a), axis=-1)  # 2 - H(lam)
    cmax = np.max(np.abs(_c_vectors(a)), axis=-1)
    lmax = np.max(a, axis=-1)
    p = np.stack([(1.0 + cmax) / 2.0, lmax])
    h = -(_xlog2(p) + _xlog2(1.0 - p))
    c = 1.0 - h[0]
    d = t - c
    e = np.where(lmax > 0.5, 1.0 - h[1], 0.0)
    return t, _clamp_residue(d), c, _clamp_residue(e)


def negativity(rho) -> float:
    """Sum of |negative eigenvalues| of the partial transpose; a PPT
    entanglement witness valid for any two-qubit state."""
    a = check_two_qubit_state(rho, "negativity")
    pt = a.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    w = np.linalg.eigvalsh(pt)
    return float(-w[w < 0].sum())


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation quantifiers of a two-qubit state, in bits.

    E and separable_state are None when the input is not Bell-diagonal;
    in that case entanglement is only witnessed by `negativity`.
    """

    T: float
    D: float
    C: float
    E: float | None
    product_state: np.ndarray
    classical_state: np.ndarray
    separable_state: np.ndarray | None
    bell_diagonal: bool
    negativity: float


def quantifier_report(rho) -> CorrelationReport:
    """Compute T, D, C, E and the closest-state certificates.

    T = S(pi) - S(rho), D = S(chi) - S(rho), C = S(pi_chi) - S(chi) and
    E = S(rho || sigma). Bell-diagonal inputs (Bell-basis residual below
    BELL_RESIDUAL_TOL) use the closed-form closest states; anything else
    gets chi from the brute-force classical search, no E value, and the
    PPT witness.
    """
    a = check_two_qubit_state(rho, "quantifier_report")
    lam, residual = bell_spectrum_of(a)
    s_rho = von_neumann_entropy(a)
    pi = closest_product(a)
    t = von_neumann_entropy(pi) - s_rho
    neg = negativity(a)

    bell_diagonal = residual < BELL_RESIDUAL_TOL
    e = sig = None
    if bell_diagonal:
        lam = np.clip(lam, 0.0, None)
        lam = validate_spectrum(lam / lam.sum())
        chi = closest_classical_bd(lam)
        sig = closest_separable_bd(lam)
        e = float(_relative_entropy_stack(a, sig[None], s_rho)[0])
    else:
        chi = oracle_closest_classical(a).minimizer
    s_chi = von_neumann_entropy(chi)
    d = s_chi - s_rho
    c = von_neumann_entropy(closest_product(chi)) - s_chi
    return CorrelationReport(t, d, c, e, pi, chi, sig, bell_diagonal, neg)
