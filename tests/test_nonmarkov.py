import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldyn.correlations import bell_quantifiers, quantifier_report
from belldyn.dynamics import (
    BELL_VECTORS,
    ancilla_evolve,
    bell_spectrum_to_density,
    evolve_bell_spectrum,
)
from belldyn.nonmarkov import (
    DEATH_THRESHOLD,
    ancilla_entanglement,
    composition_violation,
    detect_death_revival,
    detect_frozen_intervals,
    detect_switching_times,
    nonmarkovianity_measure,
)

LAM_FIG = np.array([0.9, 0.1, 0.0, 0.0])
TAU_SWITCH = 0.5 * math.asin(math.sqrt(0.2))  # f = 0.1 crossing, ~0.2318
DEATH_LO = 0.5 * math.asin(math.sqrt(8.0 / 9.0))  # ~0.6155
DEATH_HI = (math.pi - math.asin(math.sqrt(8.0 / 9.0))) / 2.0  # ~0.9553


def test_ancilla_entanglement_examples():
    assert ancilla_entanglement(0.0) == 1.0
    assert ancilla_entanglement(math.pi / 4) == 0.0
    assert abs(ancilla_entanglement(math.pi / 2) - 1.0) < 1e-12


def test_ancilla_entanglement_matches_report():
    bell_2p = np.outer(BELL_VECTORS[:, 2], BELL_VECTORS[:, 2].conj())
    for tau in np.linspace(0, math.pi, 25):
        rep = quantifier_report(ancilla_evolve(bell_2p, tau))
        assert abs(ancilla_entanglement(tau) - rep.E) < 1e-10


def test_measure_increase_counting():
    tr = nonmarkovianity_measure(np.linspace(0, math.pi / 4, 1001))
    assert tr.i_e[-1] == 0.0
    tr = nonmarkovianity_measure(np.linspace(0, math.pi / 2, 2001))
    assert abs(tr.i_e[-1] - 2.0) < 1e-3


def test_measure_literal():
    tr = nonmarkovianity_measure(np.linspace(0, math.pi / 4, 1001), "literal")
    assert abs(tr.i_e[-1] - 2.0) < 1e-3


def test_measure_monotone_and_zero_start():
    grid = np.linspace(0, 2.2, 2201)
    for convention in ("rhp", "literal"):
        tr = nonmarkovianity_measure(grid, convention)
        assert tr.i_e[0] == 0.0
        assert np.all(np.diff(tr.i_e) >= 0.0)


def test_measure_zero_on_decay_segment():
    grid = np.linspace(0, math.pi / 4, 500)
    tr = nonmarkovianity_measure(grid)
    assert np.all(tr.i_e == 0.0)


def test_measure_grid_halving_convergence():
    coarse = nonmarkovianity_measure(np.linspace(0, math.pi / 2, 1572))
    fine = nonmarkovianity_measure(np.linspace(0, math.pi / 2, 3143))
    assert abs(coarse.i_e[-1] - fine.i_e[-1]) < 1e-3


def test_measure_rejects_bad_grid():
    with pytest.raises(ValueError):
        nonmarkovianity_measure([0.0, 0.2, 0.1])
    with pytest.raises(ValueError):
        nonmarkovianity_measure([0.5, 0.6, 0.7])
    with pytest.raises(ValueError):
        nonmarkovianity_measure(np.linspace(0, 1, 100), "bogus")


def test_composition_examples():
    assert composition_violation(LAM_FIG, 0.4, 0.4) == 0.0
    mixed = np.full(4, 0.25)
    for t1, t2 in ((0.2, 0.9), (0.5, 1.7)):
        assert composition_violation(mixed, t1, t2) < 1e-12
    assert abs(composition_violation(LAM_FIG, math.pi / 4, math.pi / 2) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        composition_violation(LAM_FIG, 0.9, 0.4)


def test_frozen_intervals_constant_series():
    grid = np.linspace(0, 1, 101)
    out = detect_frozen_intervals(grid, np.full(101, 0.37))
    assert out == [(0.0, 1.0)]


def _quantifier_series(tau_grid):
    from belldyn.dynamics import evolve_bell_spectrum

    d, c = [], []
    for tau in tau_grid:
        rep = quantifier_report(bell_spectrum_to_density(evolve_bell_spectrum(LAM_FIG, tau)))
        d.append(rep.D)
        c.append(rep.C)
    return np.array(d), np.array(c)


def test_frozen_intervals_of_the_fig_trajectory():
    grid = np.linspace(0, math.pi / 2, 1001)
    d_series, c_series = _quantifier_series(grid)
    d_frozen = detect_frozen_intervals(grid, d_series)
    c_frozen = detect_frozen_intervals(grid, c_series)
    step = grid[1] - grid[0]

    containing = [iv for iv in d_frozen if iv[0] <= 0.01 and iv[1] >= 0.22]
    assert len(containing) == 1
    assert abs(containing[0][1] - TAU_SWITCH) <= 2 * step

    containing_c = [iv for iv in c_frozen if iv[0] <= 0.25 and iv[1] >= 1.33]
    assert len(containing_c) == 1
    assert abs(containing_c[0][0] - TAU_SWITCH) <= 2 * step


def test_switching_times():
    assert detect_switching_times(np.full(4, 0.25), math.pi / 2) == []
    times = detect_switching_times(LAM_FIG, math.pi / 2)
    assert len(times) == 2  # f crosses 0.1 on the way up and down
    assert abs(times[0] - TAU_SWITCH) < 1e-9
    assert abs(times[1] - (math.pi / 2 - TAU_SWITCH)) < 1e-9
    times2 = detect_switching_times([0.9, 0.0, 0.1, 0.0], math.pi / 2)
    assert abs(times2[0] - TAU_SWITCH) < 1e-9


@pytest.mark.parametrize("lam0", [
    [0.1, 0.0, 0.0, 0.9],  # partners meet at f = 1/2 (tau = pi/4) without crossing
    [1.0, 0.0, 0.0, 0.0],  # three labels tied at f = 0 (tau = k pi/2)
    [0.4, 0.3, 0.0, 0.3],  # a tie at f = 0 and partners meeting at f = 1/2
])
def test_switching_times_ignore_ties_where_f_only_touches(lam0):
    assert detect_switching_times(lam0, math.pi) == []


def test_switching_times_of_the_figure_state_are_exact():
    times = detect_switching_times(LAM_FIG, math.pi)
    want = [TAU_SWITCH, math.pi / 2 - TAU_SWITCH, math.pi / 2 + TAU_SWITCH, math.pi - TAU_SWITCH]
    assert len(times) == 4
    assert max(abs(t - w) for t, w in zip(times, want)) < 1e-15
    assert detect_switching_times(LAM_FIG, TAU_SWITCH) == [TAU_SWITCH]
    for tau_max in (math.inf, 0.0):
        with pytest.raises(ValueError):
            detect_switching_times(LAM_FIG, tau_max)


def test_death_revival_ancilla_point():
    grid = np.linspace(0, math.pi / 2, 2001)
    out = detect_death_revival(grid, ancilla_entanglement(grid))
    assert len(out) == 1
    start, end = out[0]
    step = grid[1] - grid[0]
    assert abs(start - math.pi / 4) <= step and abs(end - math.pi / 4) <= step
    assert end - start <= 2 * step


def test_death_revival_two_qubit_window():
    from belldyn.dynamics import evolve_bell_spectrum

    grid = np.linspace(0, math.pi / 2, 2001)
    e = np.array([
        quantifier_report(bell_spectrum_to_density(evolve_bell_spectrum(LAM_FIG, t))).E
        for t in grid
    ])

    def closed_form(tau):
        lam_max = 0.9 * (1 - math.sin(2 * tau) ** 2 / 2)
        if lam_max <= 0.5:
            return 0.0
        return 1.0 + lam_max * math.log2(lam_max) + (1 - lam_max) * math.log2(1 - lam_max)

    out = detect_death_revival(grid, e, refine=closed_form)
    assert len(out) == 1
    start, end = out[0]
    assert abs(start - DEATH_LO) < 1e-3
    assert abs(end - DEATH_HI) < 1e-3


def test_death_revival_zero_series():
    grid = np.linspace(0, 2, 201)
    out = detect_death_revival(grid, np.zeros(201))
    assert out == [(0.0, 2.0)]


def _bisect_reference(fn, lo, hi, rising):
    # the bisection that sharpened the death boundaries before the secant;
    # rising: fn <= DEATH_THRESHOLD at lo and > DEATH_THRESHOLD at hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (fn(mid) <= DEATH_THRESHOLD) == rising:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


class _Recording:
    """E(tau) that records each tau it is called at, and each value."""

    def __init__(self, fn):
        self.fn, self.taus, self.values = fn, [], []

    def __call__(self, tau):
        self.taus.append(tau)
        self.values.append(self.fn(tau))
        return self.values[-1]


def _report_e(lam):
    """E(tau) of the trajectory from lam, through quantifier_report."""
    return lambda tau: quantifier_report(bell_spectrum_to_density(evolve_bell_spectrum(lam, tau))).E


def _interior_boundaries(grid, windows):
    return [t for window in windows for t in window if t not in (grid[0], grid[-1])]


def _boundary_calls(grid, boundaries, taus):
    # the refine calls in each boundary's grid cell
    calls = np.bincount(np.searchsorted(grid, taus), minlength=grid.size)
    return [int(calls[np.searchsorted(grid, b)]) for b in boundaries]


def _against_bisection(grid, e, fn):
    """Each interior boundary of the refined detector with its calls, the
    reference bisection's boundary and calls in the same grid cell, and
    whether E rises there."""
    found = _Recording(fn)
    got = _interior_boundaries(grid, detect_death_revival(grid, e, refine=found))
    calls = np.bincount(np.searchsorted(grid, found.taus), minlength=grid.size)
    dead = np.asarray(e) <= DEATH_THRESHOLD
    out = []
    for k, b in zip(np.flatnonzero(dead[1:] != dead[:-1]), got, strict=True):
        ref = _Recording(fn)
        want = _bisect_reference(ref, grid[k], grid[k + 1], bool(dead[k]))
        assert grid[k] < b < grid[k + 1]
        out.append((b, int(calls[k + 1]), want, len(ref.taus), bool(dead[k])))
    return out


def test_secant_takes_at_most_12_refine_calls_on_the_figure_trajectory():
    # 124 quantifier_report calls with the bisection; the secant through alive
    # samples alone took 54, and 53 on the benchmark's 12-digit series; a walk
    # through E's rounding band after the two-sided secant took 25
    grid = np.linspace(0.0, math.pi, 2001)
    exact = bell_quantifiers(evolve_bell_spectrum(LAM_FIG, grid))[3]
    for e in (exact, [float("%.12g" % x) for x in exact]):
        refine = _Recording(_report_e(LAM_FIG))
        windows = detect_death_revival(grid, e, refine=refine)
        assert len(_interior_boundaries(grid, windows)) == 4
        assert len(refine.taus) <= 12
        assert abs(windows[0][0] - DEATH_LO) < 2e-6 and abs(windows[0][1] - DEATH_HI) < 2e-6


def _survey():
    """The figure state and 40 Dirichlet(0.5) spectra on the figure3 grid:
    each spectrum with its interior death boundaries and its refine calls."""
    grid = np.linspace(0.0, math.pi, 2001)
    out = []
    for lam in [LAM_FIG, *np.random.default_rng(5).dirichlet([0.5] * 4, size=40)]:
        refine = _Recording(_report_e(lam))
        e = bell_quantifiers(evolve_bell_spectrum(lam, grid))[3]
        out.append((lam, _interior_boundaries(grid, detect_death_revival(grid, e, refine=refine)), refine))
    return grid, out


def test_survey_boundaries_split_the_rounding_band_in_fewer_calls():
    # the secant through alive samples alone took 2,509 refine calls here, and
    # at most 35 for one boundary; a walk through E's rounding band after the
    # two-sided secant took 1,396, and at most 32
    grid, survey = _survey()
    total = boundaries = 0
    for _, found, refine in survey:
        # each boundary is a sample within 1e-15 of the threshold, or the
        # midpoint of two neighbouring samples less than 1e-12 apart and on
        # opposite sides of it
        values = np.asarray(refine.values)
        in_band = {t for t, v in zip(refine.taus, values) if abs(v - DEATH_THRESHOLD) <= 1e-15}
        samples = sorted(zip(refine.taus, values > DEATH_THRESHOLD))
        split = {0.5 * (a + b) for (a, alive_a), (b, alive_b) in zip(samples, samples[1:])
                 if b - a < 1e-12 and alive_a != alive_b}
        assert set(found) <= in_band | split
        assert max(_boundary_calls(grid, found, refine.taus), default=0) <= 8
        total += len(refine.taus)
        boundaries += len(found)
    assert boundaries >= 100
    assert total <= 500


def _exact_crossings(lam, tau_max):
    # the taus where the exact E of the trajectory from lam crosses
    # DEATH_THRESHOLD. Near lam_max = 1/2, E = 1 - h(lam_max) is
    # 2 (lam_max - 1/2)^2 / ln 2, so it crosses at lam_star (within 4e-17 of
    # a 40-digit solve). Only the largest label can reach lam_star: it falls
    # linearly in f toward its partner's value and meets lam_star at f_star.
    lam_star = 0.5 + math.sqrt(math.log(2) * DEATH_THRESHOLD / 2)
    top = int(np.argmax(lam))
    if lam[top] <= lam_star:
        return np.empty(0)
    f_star = (lam[top] - lam_star) / (lam[top] - lam[3 - top])
    theta = 0.5 * math.asin(math.sqrt(2.0 * f_star))
    k = np.arange(int(tau_max // (math.pi / 2)) + 2) * (math.pi / 2)
    return np.concatenate([k - theta, k + theta])


def test_death_boundaries_meet_the_exact_crossing():
    # every interior boundary of the survey, and of the figure trajectory's
    # 12-digit series, lies within 2e-8 of the exact 1e-12 crossing: E's
    # rounding band sets the limit at shallow crossings (1.3e-8 at most here)
    grid, survey = _survey()
    exact = bell_quantifiers(evolve_bell_spectrum(LAM_FIG, grid))[3]
    csv = [float("%.12g" % x) for x in exact]
    fig = _interior_boundaries(grid, detect_death_revival(grid, csv, refine=_report_e(LAM_FIG)))
    boundaries = 0
    for lam, found, _ in [*survey, (LAM_FIG, fig, None)]:
        crossings = _exact_crossings(lam, grid[-1])
        for b in found:
            assert np.min(np.abs(crossings - b)) < 2e-8
        boundaries += len(found)
    assert boundaries >= 100


@settings(max_examples=40, deadline=None)
@given(top=st.floats(0.501, 0.999), partner=st.floats(0.0, 0.9), split=st.floats(0.0, 1.0),
       at=st.integers(0, 3))
def test_secant_boundaries_agree_with_bisection(top, partner, split, at):
    # lam_max = top; its partner (index 3 - at) keeps lam + lam_partner below
    # 1, so each death window is wide and each alive stretch too
    rest = 1.0 - top
    lam = np.zeros(4)
    lam[at], lam[3 - at] = top, partner * rest
    others = [m for m in range(4) if m not in (at, 3 - at)]
    lam[others] = rest * (1 - partner) * np.array([split, 1 - split])

    def closed_form(tau):
        return float(bell_quantifiers(evolve_bell_spectrum(lam, tau))[3])

    grid = np.linspace(0.0, math.pi, 401)
    e = bell_quantifiers(evolve_bell_spectrum(lam, grid))[3]
    for b, calls, want, ref_calls, rising in _against_bisection(grid, e, closed_form):
        assert abs(b - want) < 1e-8
        assert calls <= 2 * ref_calls
        alive = 1e-7 if rising else -1e-7
        assert closed_form(b + alive) > DEATH_THRESHOLD
        assert closed_form(b - alive) <= DEATH_THRESHOLD


def test_secant_meets_a_linear_crossing():
    # E linear in tau, so sqrt(E) is not: the safeguard still brackets it
    def linear(tau):
        return max(0.0, 1e-3 * (abs(tau - 0.5) - 0.137))

    grid = np.linspace(0.0, 1.0, 11)
    found = _against_bisection(grid, [linear(t) for t in grid], linear)
    crossings = (0.5 - (0.137 + 1e-9), 0.5 + (0.137 + 1e-9))
    assert len(found) == 2
    for (b, calls, _, ref_calls, _), crossing in zip(found, crossings):
        assert abs(b - crossing) < 1e-12
        assert calls <= 2 * ref_calls


def test_secant_stops_on_a_bracket_floating_point_cannot_split():
    # ulp(1e4) = 1.8e-12 exceeds the 1e-12 stop; the bisection spent its
    # 80 steps here, where the same crossing at tau ~ 3.3 takes 40
    crossing = 1e4 + 3.3

    def late(tau):
        return max(0.0, 1e-3 * (tau - crossing))

    grid = np.linspace(1e4, 1e4 + 10.0, 11)
    refine = _Recording(late)
    windows = detect_death_revival(grid, [late(t) for t in grid], refine=refine)
    assert len(windows) == 1 and windows[0][0] == grid[0]
    assert abs(windows[0][1] - (crossing + 1e-9)) <= 2 * np.spacing(crossing)
    assert len(refine.taus) <= 40


def test_a_shallow_crossing_costs_no_more_calls_than_bisection():
    # at this shallow crossing (tau ~ 1.837) E's rounding band is wide: a walk
    # of 8 steps of 0.9e-12 at each landing in the band took 67 calls there,
    # the secant through alive samples alone 35, the bisection 33, and the
    # stop at the first sample in the band takes 9
    lam = np.array([0.5372209363055083, 0.0, 0.21416446179395043, 0.2486146019005413])

    def closed_form(tau):
        return float(bell_quantifiers(evolve_bell_spectrum(lam, tau))[3])

    grid = np.linspace(0.0, math.pi, 401)
    e = bell_quantifiers(evolve_bell_spectrum(lam, grid))[3]
    found = _against_bisection(grid, e, closed_form)
    assert len(found) == 4
    for _, calls, _, ref_calls, _ in found:
        assert calls <= ref_calls


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_refine_must_return_finite_values(bad):
    grid = np.linspace(0.0, 1.0, 11)
    e = np.where(grid < 0.55, 0.0, grid - 0.55)
    with pytest.raises(ValueError, match="^refine returned "):
        detect_death_revival(grid, e, refine=lambda tau: bad)


DETECTORS = {"frozen": detect_frozen_intervals, "death_revival": detect_death_revival}


@pytest.mark.parametrize("grid, values, message", [
    ([0.0], [0.0], "grid needs at least 2 points"),
    ([0.0, 2.0, 1.0], [0.0] * 3, "grid must be strictly ascending"),
    ([0.0, 1.0, 3.0], [0.0] * 3, "grid must be uniform"),
    ([0.0, 1.0, 2.0], [0.0] * 2, "values and tau grid must have equal length"),
    ([0.0, 1.0, 2.0], [0.0, math.inf, 0.0], "values must be finite"),
    # NaN fails every step comparison of the grid, wherever it sits
    ([0.0, math.nan, 2.0, 3.0], [0.0] * 4, "grid must be strictly ascending"),
    ([math.nan] * 4, [0.0] * 4, "grid must be strictly ascending"),
    ([0.0, 1.0, 2.0, math.nan], [0.0] * 4, "grid must be strictly ascending"),
    ([0.0, 1.0, 2.0, 3.0], [math.nan] * 4, "values must be finite"),
    # a NaN would split an E series' death window or warn in the frozen scan
    ([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, math.nan, 0.0], "values must be finite"),
    ([0.0, 1.0, 2.0, 3.0], [0.5, 0.5, math.nan, 0.5], "values must be finite"),
], ids=["one-point", "descending", "non-uniform", "length", "inf-value", "nan-in-grid",
        "all-nan-grid", "nan-last", "all-nan-values", "nan-in-e", "nan-in-frozen"])
@pytest.mark.parametrize("detector", sorted(DETECTORS))
def test_series_detectors_share_one_input_rule(detector, grid, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DETECTORS[detector](grid, values)


#: float.hex of each detector's intervals on the figure trajectory (the
#: figure3 grid, 2,001 points over [0, pi]); frozen D and C are the greedy
#: scan, E is the death detector refined through quantifier_report;
#: ``python tests/test_nonmarkov.py`` prints the current values
DETECTOR_PIN = {
    "D": [("0x0.0p+0", "0x1.d8e5ccfa424a6p-3"),
          ("0x1.860f6596b1743p-1", "0x1.87ab2bf21a2b5p-1"),
          ("0x1.88790f1fce86ep-1", "0x1.8ee8288d71635p-1"),
          ("0x1.8fb60bbb25beep-1", "0x1.9af8783b02c0ap-1"),
          ("0x1.9bc65b68b71c3p-1", "0x1.9d6221c41fd35p-1"),
          ("0x1.5702fba4fa884p+0", "0x1.cd3c6ee38b1adp+0"),
          ("0x1.2a93b407cdc5dp+1", "0x1.2afaa59ea7f39p+1"),
          ("0x1.2b2e1e6a150a8p+1", "0x1.2cc9e4c57dc19p+1"),
          ("0x1.2cfd5d90ead88p+1", "0x1.2fcdf8b0e218fp+1"),
          ("0x1.3001717c4f2fdp+1", "0x1.30686313295d9p+1"),
          ("0x1.749158749eacep+1", "0x1.921fb54442d18p+1")],
    "C": [("0x1.dc1d59b113b89p-3", "0x1.569c0a0e205a7p+0"),
          ("0x1.cda3607a6548ap+0", "0x1.745ddfa931960p+1")],
    "E": [("0x1.3b20051c82eb5p-1", "0x1.e91f656b3f303p-1"),
          ("0x1.17d7dbe94f4ffp+1", "0x1.4357b3fd1b851p+1")],
}


def _detector_intervals():
    # float.hex of each detector's intervals, in DETECTOR_PIN's layout, and
    # the refine calls of each interior death boundary
    grid = np.linspace(0.0, math.pi, 2001)
    _, d, c, e = bell_quantifiers(evolve_bell_spectrum(LAM_FIG, grid))
    refine = _Recording(_report_e(LAM_FIG))
    found = {
        "D": detect_frozen_intervals(grid, d),
        "C": detect_frozen_intervals(grid, c),
        "E": detect_death_revival(grid, e, refine=refine),
    }
    calls = _boundary_calls(grid, _interior_boundaries(grid, found["E"]), refine.taus)
    return {k: [(a.hex(), b.hex()) for a, b in v] for k, v in found.items()}, calls


def test_detector_bits_are_pinned():
    assert _detector_intervals()[0] == DETECTOR_PIN


if __name__ == "__main__":
    # prints the current DETECTOR_PIN, for a reviewed re-capture, and the
    # refine calls each interior E boundary took, in the pin's order
    pin, calls = _detector_intervals()
    print(json.dumps(pin, indent=1))
    print("refine calls per E boundary:", calls)
