import math

import numpy as np
import pytest

from belldyn.correlations import quantifier_report
from belldyn.dynamics import BELL_VECTORS, ancilla_evolve, bell_spectrum_to_density
from belldyn.nonmarkov import (
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
    with pytest.raises(ValueError):
        detect_switching_times(LAM_FIG, math.inf)


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
