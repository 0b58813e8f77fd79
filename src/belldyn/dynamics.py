"""Random-external-field channels for one and two qubits.

Each local field has fixed amplitude and a phase that is 0 or pi with
probability 1/2, so the channel is an equal-weight mixture of unitary
branches. The dynamics depends on the coupling g and time t only through
the dimensionless combination tau = g*t.

Basis conventions: the single-qubit computational ordering is {|0>, |1>}
and the two-qubit ordering is |00>, |01>, |10>, |11> (qubit A major).
`branch_unitary` reports the branch evolution in the {|1>, |0>} ordering
(the form in which it is usually quoted); the channels conjugate by the
basis swap once, so every state passed in or out of this module uses the
computational ordering.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _check_density, check_density, tensor

BRANCH_PHASES = (0.0, math.pi)

#: Bell basis columns in the order |1+>, |1->, |2+>, |2->, where
#: |1±> = (|01> ± |10>)/sqrt(2) and |2±> = (|00> ± |11>)/sqrt(2).
_S = 1.0 / math.sqrt(2.0)
BELL_VECTORS = np.array([
    [0, 0, _S, _S],
    [_S, _S, 0, 0],
    [_S, -_S, 0, 0],
    [0, 0, _S, -_S],
], dtype=complex)
_BELL_DAGGER = BELL_VECTORS.conj().T  # built once, the same Fortran-ordered view

BELL_RESIDUAL_TOL = 1e-8

#: largest tau whose 2*tau is still finite
_TAU_LIMIT = np.finfo(float).max / 2

#: the basis swap |0> <-> |1> between the two single-qubit orderings
_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def validate_spectrum(lam) -> np.ndarray:
    """Validate Bell-basis probability vectors (lam_1+, lam_1-, lam_2+, lam_2-).

    A one-dimensional input is one spectrum of shape (4,); a stack of
    spectra has shape (..., 4). Entries must be finite, at least -1e-12 and
    sum to 1 within 1e-12 along the last axis; they are returned clipped
    at 0. Functions of one state reshape the result to (4,), which rejects
    stacks.
    """
    a = np.asarray(lam, dtype=float)
    if a.ndim < 2:
        a = a.reshape(-1)
    if a.shape[-1] != 4:
        raise ValueError(f"Bell spectrum needs 4 entries, got {a.shape[-1]}")
    if not np.isfinite(a).all():
        raise ValueError("Bell spectrum has non-finite entries")
    if a.min() < -1e-12:
        raise ValueError(f"Bell spectrum has negative entry {a.min():.3e}")
    total = np.asarray(a.sum(axis=-1))
    off = abs(total - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"Bell spectrum sums to {float(total[off][0])!r}, expected 1")
    return a.clip(0.0, None)


def _checked_tau(tau) -> np.ndarray:
    # the one tau rule of the library: tau in [0, _TAU_LIMIT]
    t = np.asarray(tau, dtype=float)
    if not ((t >= 0.0) & (t <= _TAU_LIMIT)).all():  # NaN fails too
        raise ValueError(f"tau must be finite and non-negative, at most {_TAU_LIMIT:.3e}")
    return t


def mixing_fraction(tau):
    """Branch mixing fraction f = sin^2(2 tau) / 2, in [0, 1/2].

    tau must lie in [0, max float / 2], so that 2 tau does not overflow.
    A scalar tau gives a float, an array of tau an array of the same shape.
    """
    f = np.sin(2.0 * _checked_tau(tau)) ** 2 / 2.0
    return float(f) if f.ndim == 0 else f


def _phase_sign(phase) -> float:
    p = float(phase)
    if abs(p) < 1e-12:
        return 1.0
    if abs(p - math.pi) < 1e-12:
        return -1.0
    raise ValueError(f"branch phase must be 0 or pi, got {p!r}")


def branch_unitary(phase, tau) -> np.ndarray:
    """Branch time-evolution operator in the {|1>, |0>} ordering:

        [[cos tau, -e^{-i phase} sin tau],
         [e^{i phase} sin tau, cos tau]]

    Only the two model phases 0 and pi are accepted, and tau obeys
    `mixing_fraction`'s bound, [0, max float / 2].
    """
    e = _phase_sign(phase)
    t = float(_checked_tau(tau))
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -e * s], [e * s, c]], dtype=complex)


def _comp_branches(tau) -> list:
    # the branch unitaries in the computational {|0>, |1>} ordering
    return [_SWAP @ branch_unitary(p, tau) @ _SWAP for p in BRANCH_PHASES]


def _branch_average(rho, name, ops) -> np.ndarray:
    # equal-weight average of w rho w^dag over the branch operators ops
    a = check_density(rho)
    d = len(ops[0])
    if a.shape != (d, d):
        raise ValueError(f"{name} expects a {d}x{d} state")
    return sum(w @ a @ w.conj().T for w in ops) / len(ops)


def single_qubit_map(rho, tau) -> np.ndarray:
    """Equal-weight average of the two branch evolutions of a qubit state."""
    return _branch_average(rho, "single_qubit_map", _comp_branches(tau))


def two_qubit_map(rho, tau) -> np.ndarray:
    """Four-branch average (1/4) sum_ij (U_i x U_j) rho (U_i x U_j)^dag."""
    u = _comp_branches(tau)
    return _branch_average(rho, "two_qubit_map", [tensor(ua, ub) for ua in u for ub in u])


def ancilla_evolve(rho, tau) -> np.ndarray:
    """Evolve only qubit B of a two-qubit state, qubit A acting as a
    noise-isolated ancilla: (1/2) sum_i (I x U_i) rho (I x U_i)^dag."""
    eye = np.eye(2, dtype=complex)
    return _branch_average(rho, "ancilla_evolve", [tensor(eye, u) for u in _comp_branches(tau)])


def evolve_bell_spectrum(lam, tau) -> np.ndarray:
    """Closed-form evolution of a Bell-diagonal spectrum:

        lam_i(tau) = (1 - f) lam_i(0) + f lam_partner(i)(0)

    with f = mixing_fraction(tau) and partner pairs (1+,2-), (1-,2+), which
    in the label order is index reversal. This is the package's one
    evolution formula: an array of tau gives the spectra on the whole grid,
    shape tau.shape + (4,).
    """
    return _evolve(validate_spectrum(lam), mixing_fraction(tau))


def _evolve(a, f):
    # evolve_bell_spectrum of a checked spectrum (or stack) a at mixing fractions f
    f = np.asarray(f)[..., None]
    return (1.0 - f) * a + f * a[..., ::-1]


def bell_spectrum_to_density(lam) -> np.ndarray:
    """Assemble the Bell-diagonal density matrix with the given spectrum."""
    return _bell_density(validate_spectrum(lam).reshape(4))


def _bell_density(a) -> np.ndarray:
    # bell_spectrum_to_density of a checked spectrum of shape (4,)
    return (BELL_VECTORS * a) @ _BELL_DAGGER


def bell_spectrum_of(rho):
    """Bell-basis diagonal of a two-qubit state and the off-diagonal residual.

    Returns (lam, residual). lam is the diagonal clipped at 0, renormalized
    and checked by `validate_spectrum`, so it is a spectrum for every valid
    state. residual is the max-abs off-diagonal element in the Bell basis:
    lam describes the state only when residual < BELL_RESIDUAL_TOL, which
    callers must check.
    """
    return _bell_diagonal(_check_density(rho, caller="bell_spectrum_of")[0])


def _bell_diagonal(a):
    # bell_spectrum_of of a checked 4x4 complex array
    m = _BELL_DAGGER @ a @ BELL_VECTORS
    diag = m.diagonal()
    lam = diag.real.clip(0.0, None)
    residual = float(np.abs(m - np.diag(diag)).max())
    return validate_spectrum(lam / lam.sum()), residual
