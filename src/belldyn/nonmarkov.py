"""Non-Markovianity diagnostics and trajectory-feature detectors.

The memory quantifier accumulates changes of the entanglement between the
evolving qubit and a noise-isolated ancilla prepared with it in a
maximally entangled state. Two accumulation conventions are provided,
named as the CLI's ``--convention`` names them:

* ``rhp`` (default): the increase-counting form of Rivas, Huelga and
  Plenio; each grid step adds 2*max(dE, 0), so only entanglement
  revivals count and purely decaying segments give 0;
* ``literal``: each step adds |dE| - dE, the integral-minus-variation
  form taken verbatim, which instead accumulates during decay.

The two are mirror images: literal counts the falls of E the way rhp
counts its rises, since |dE| - dE = 2*max(-dE, 0). Both are
non-decreasing and start at zero.
"""

from __future__ import annotations

import math

import numpy as np

from .correlations import bell_quantifiers
from .dynamics import _checked_grid, _checked_tau, evolve_bell_spectrum, validate_spectrum

CONVENTIONS = ("rhp", "literal")
FROZEN_TOL = 1e-6
DEATH_THRESHOLD = 1e-12
# most periods of pi/2 that detect_switching_times unfolds, so that a huge
# tau_max cannot allocate gigabytes
_MAX_PERIODS = 10**5


def ancilla_entanglement(tau):
    """Entanglement E(tau) of the ancilla protocol, in bits.

    The evolved ancilla pair is cos^2(tau) |2+><2+| + sin^2(tau) |1-><1-|,
    so E is `bell_quantifiers`' E of the spectrum (0, sin^2, cos^2, 0):
    1 - h(max(cos^2 tau, sin^2 tau)) when the max exceeds 1/2 and 0
    otherwise. Accepts scalars or arrays; tau obeys `mixing_fraction`'s
    bound, [0, max float / 2].
    """
    t = _checked_tau(tau)
    zero = np.zeros_like(t)
    e = bell_quantifiers(np.stack([zero, np.sin(t) ** 2, np.cos(t) ** 2, zero], axis=-1))[3]
    return float(e) if e.ndim == 0 else e


def nonmarkovianity_measure(tau_grid, convention: str = "rhp"):
    """Accumulate the non-Markovianity quantifier along an ascending grid
    starting at tau = 0. Returns the arrays (e_anc, i_e): the ancilla
    entanglement and the accumulated quantifier at each grid point. See the
    module docstring for the two conventions."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    g = _checked_grid(tau_grid)
    if g[0] > 1e-12:
        raise ValueError("tau grid must start at 0")
    e = ancilla_entanglement(g)
    d = np.diff(e)
    inc = 2.0 * np.clip(d if convention == "rhp" else -d, 0.0, None)
    return e, np.concatenate([[0.0], np.cumsum(inc)])


def composition_violation(lam0, tau1, tau2) -> float:
    """Trace distance between direct evolution to tau2 and evolution
    restarted from the tau1 state; nonzero values witness failure of the
    two-step composition law. Both states are Bell-diagonal, so they commute
    and the distance is (1/2) sum |direct - restarted| over the spectra."""
    return _composition(lam0, tau1, tau2)[2]


def _composition(lam0, tau1, tau2):
    # (direct spectrum, restarted spectrum, their trace distance)
    t1, t2 = _checked_tau([tau1, tau2]).tolist()
    if not t1 <= t2:
        raise ValueError("need tau1 <= tau2")
    lam = validate_spectrum(lam0).reshape(4)
    direct = evolve_bell_spectrum(lam, t2)
    restarted = evolve_bell_spectrum(evolve_bell_spectrum(lam, t1), t2 - t1)
    return direct, restarted, 0.5 * float(np.sum(np.abs(direct - restarted)))


def _checked_series(tau_grid, values):
    # the input rule of the sampled-series detectors: a tau grid and as many
    # finite values
    g = _checked_grid(tau_grid)
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size != g.size:
        raise ValueError("values and tau grid must have equal length")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return g, v


def detect_frozen_intervals(tau_grid, values):
    """Disjoint intervals where the series stays within FROZEN_TOL of its
    interval mean at every grid point, found by a greedy left-to-right scan.

    A scan starts at a grid point and takes the following points while all
    points taken stay within FROZEN_TOL of their mean. A scan of 3 or more
    points is an interval, and the point that broke it starts the next scan;
    a shorter scan is discarded, and the next scan starts at its second
    point, so a discarded scan never hides the first point of a run. An
    interval still need not be maximal: a scan can end inside a frozen run.
    Returns a list of (start_tau, end_tau) pairs in ascending order."""
    g, v = _checked_series(tau_grid, values)
    v = v.tolist()  # Python floats: the same IEEE arithmetic, without numpy scalars
    out = []
    i = 0
    n = len(v)
    while i < n:
        total = v[i]
        lo = hi = v[i]
        j = i + 1
        while j < n:
            total_new = total + v[j]
            lo_new = min(lo, v[j])
            hi_new = max(hi, v[j])
            mean = total_new / (j - i + 1)
            if hi_new - mean < FROZEN_TOL and mean - lo_new < FROZEN_TOL:
                total, lo, hi = total_new, lo_new, hi_new
                j += 1
            else:
                break
        if j - i >= 3:
            out.append((float(g[i]), float(g[j - 1])))
        i = j if j - i >= 3 else i + 1
    return out


def detect_switching_times(lam0, tau_max):
    """Times in (0, tau_max] where the Bell label of the second-largest
    coefficient changes, in closed form.

    Every coefficient is linear in f = mixing_fraction(tau), so each pair
    of labels crosses at most once in f, at one linear solve; a crossing
    is a switch when the second-largest label differs on its two sides. A
    switch at f* = f(theta) recurs at k pi/2 + theta and (k+1) pi/2 - theta.
    f only touches 0 and 1/2 (at tau = k pi/4) without crossing them, so a
    tie there, such as two partners meeting at tau = pi/4, is no switch;
    neither is a permanent tie (e.g. the maximally mixed spectrum).
    """
    lam = validate_spectrum(lam0).reshape(4)
    if not _checked_tau(tau_max) > 0.0:
        raise ValueError("tau_max must be positive")
    periods = int(tau_max // (math.pi / 2)) + 1
    if periods > _MAX_PERIODS:
        raise ValueError(f"tau_max spans more than {_MAX_PERIODS} periods of pi/2")
    i, j = np.triu_indices(4, 1)
    half = evolve_bell_spectrum(lam, math.pi / 4)  # the spectrum at f = 1/2
    g0, g1 = lam[i] - lam[j], half[i] - half[j]  # gaps of each pair at f = 0, 1/2
    inside = g0 * g1 < 0  # the gap changes sign strictly inside (0, 1/2)
    roots = np.unique(0.5 * g0[inside] / (g0[inside] - g1[inside]))
    ends = np.concatenate([[0.0], roots, [0.5]])
    mid = 0.5 * np.arcsin(np.sqrt(ends[:-1] + ends[1:]))  # tau at each midpoint f
    second = np.argsort(-evolve_bell_spectrum(lam, mid), axis=1, kind="stable")[:, 1]
    theta = 0.5 * np.arcsin(np.sqrt(2.0 * roots[second[1:] != second[:-1]]))
    k = np.arange(periods)[:, None] * (math.pi / 2)
    times = np.concatenate([k + theta, k + math.pi / 2 - theta], axis=None)
    return sorted(times[(times > 0.0) & (times <= tau_max)].tolist())


def detect_death_revival(tau_grid, e_values, refine=None):
    """Maximal intervals where the entanglement series is <= DEATH_THRESHOLD.

    If `refine` is a callable E(tau) with finite values, each interior
    boundary is sharpened between its bracketing grid points by a safeguarded
    secant on sqrt(E): it is the first sample within 1e-15 of DEATH_THRESHOLD,
    where E is rounding noise, or else the midpoint of a bracket narrower than
    1e-12, or one that floating point cannot split, whose ends lie on opposite
    sides of DEATH_THRESHOLD.
    Returns a list of (start_tau, end_tau) pairs."""
    g, e = _checked_series(tau_grid, e_values)
    # each dead run i..stop-1 starts and stops at an edge of the padded mask
    edges = np.flatnonzero(np.diff(e <= DEATH_THRESHOLD, prepend=False, append=False))
    out = []
    for i, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
        start, end = float(g[i]), float(g[stop - 1])
        if refine is not None:
            if i > 0:
                start = _sharpen_boundary(refine, g, e, i - 1, -1)
            if stop < e.size:
                end = _sharpen_boundary(refine, g, e, stop, 1)
        out.append((start, end))
    return out


def _sharpen_boundary(fn, g, e, k, out):
    # The crossing between the alive grid point k and the dead point k - out
    # (Dekker's and Brent's bracketed secant). E rises quadratically from its
    # zero, so a step takes the zero of sqrt(E) - sqrt(DEATH_THRESHOLD) through
    # the two latest samples with E > 0, alive or dead, the series' own at
    # first; it bisects if that guess is not strictly inside the bracket or the
    # bracket has not halved over the last two steps. Within 1e-15 of the
    # threshold E is rounding noise, so the first sample there is the boundary
    # (Brent's rule: stop once |f| is down to the noise level of f).
    root = math.sqrt(DEATH_THRESHOLD)
    near = [(float(g[m]), math.sqrt(e[m]) - root) for m in (k + out, k, k - out)
            if 0 <= m < e.size and e[m] > 0][-2:]
    alive, dead = float(g[k]), float(g[k - out])
    widths = [math.inf, math.inf, abs(alive - dead)]
    while widths[-1] >= 1e-12:
        x = 0.5 * (alive + dead)
        if len(near) == 2 and widths[-1] <= 0.5 * widths[-3]:
            (t1, s1), (t2, s2) = near
            guess = t2 - s2 * (t2 - t1) / (s2 - s1) if s1 != s2 else x
            if min(alive, dead) < guess < max(alive, dead):
                x = guess
        if x in (alive, dead):
            break  # floating point cannot split the bracket
        v = float(fn(x))
        if not math.isfinite(v):
            raise ValueError(f"refine returned {v} at tau = {x!r}; it must be finite")
        if abs(v - DEATH_THRESHOLD) <= 1e-15:
            return x
        if v > 0:
            near = [near[-1], (x, math.sqrt(v) - root)]
        alive, dead = (x, dead) if v > DEATH_THRESHOLD else (alive, x)
        widths.append(abs(alive - dead))
    return 0.5 * (alive + dead)
