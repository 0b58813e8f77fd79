"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import hashlib
import json
import math

import numpy as np

from belldyn.cli import main
from belldyn.correlations import (
    c_vector_of_spectrum,
    closest_classical_bd,
    quantifier_report,
)
from belldyn.dynamics import (
    BELL_VECTORS,
    ancilla_evolve,
    bell_spectrum_of,
    bell_spectrum_to_density,
    evolve_bell_spectrum,
    two_qubit_map,
)
from belldyn.linalg import relative_entropy, trace_distance
from belldyn.nonmarkov import (
    ancilla_entanglement,
    composition_violation,
    detect_frozen_intervals,
    nonmarkovianity_measure,
)

LAM_FIG = np.array([0.9, 0.1, 0.0, 0.0])
H09 = 0.4689955935892812
TAU_SWITCH = 0.5 * math.asin(math.sqrt(0.2))
DEATH_LO = 0.5 * math.asin(math.sqrt(8.0 / 9.0))
DEATH_HI = (math.pi - math.asin(math.sqrt(8.0 / 9.0))) / 2.0
#: sha256 of the `verify --n 100 --seed 0` report, captured when the
#: analytic side became the printed kernel `bell_quantifiers`, and again when
#: the product oracle began to score its candidates in Bloch form (only the
#: product family's worst state and gap moved: 2.9e-15 -> 4.4e-16 bits), and
#: again when the separable oracle began to search from the slice's centre
#: with exact bounds (only the separable family's worst state and gap moved:
#: 5.0e-16 -> 3.0e-16 bits), and again when the classical oracle dropped its
#: seeded random restarts (only the classical family's worst state and gap
#: moved: 8.9e-16 -> 1.0e-15 bits)
VERIFY_N100_SHA256 = "c1eb04b91df7520532cba299fec4f1b3e32da27f7bbc2434424b3f049557acca"


def _run(number, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}", flush=True)


def report_at(lam0, tau):
    return quantifier_report(bell_spectrum_to_density(evolve_bell_spectrum(lam0, tau)))


def test_criterion_1_initial_values():
    def body():
        rep = report_at(LAM_FIG, 0.0)
        assert abs(rep.T - 1.5310) < 1e-3
        assert abs(rep.D - 0.5310) < 1e-3
        assert abs(rep.C - 1.0000) < 1e-3
        assert abs(rep.E - 0.5310) < 1e-3

    _run(1, "initial values T=1.5310 D=0.5310 C=1.0000 E=0.5310 (tol 1e-3)", body)


def test_criterion_2_discord_zeros():
    def body():
        for n in (1, 2, 3):
            tau = (2 * n - 1) * math.pi / 4
            assert abs(report_at(LAM_FIG, tau).D) < 1e-9

    _run(2, "discord vanishes at tau_n=(2n-1)pi/4, n=1..3 (tol 1e-9)", body)


def test_criterion_3_frozen_transition_structure():
    def body():
        grid = np.linspace(0.0, math.pi / 2, 2001)
        step = grid[1] - grid[0]
        d = np.empty_like(grid)
        c = np.empty_like(grid)
        for k, tau in enumerate(grid):
            rep = report_at(LAM_FIG, tau)
            d[k], c[k] = rep.D, rep.C

        d_window = (grid >= 0.01) & (grid <= 0.22)
        assert np.max(np.abs(d[d_window] - 0.5310)) < 1e-3
        assert np.max(d[d_window]) - np.min(d[d_window]) < 1e-6

        c_window = (grid >= 0.25) & (grid <= 1.33)
        assert np.max(np.abs(c[c_window] - 0.5310)) < 1e-3
        assert np.max(c[c_window]) - np.min(c[c_window]) < 1e-6

        d_frozen = detect_frozen_intervals(grid, d)
        c_frozen = detect_frozen_intervals(grid, c)
        d_iv = next(iv for iv in d_frozen if iv[0] <= 0.01 and iv[1] >= 0.22)
        c_iv = next(iv for iv in c_frozen if iv[0] <= 0.25 and iv[1] >= 1.33)
        assert abs(d_iv[1] - TAU_SWITCH) <= step
        assert abs(c_iv[0] - TAU_SWITCH) <= step

    _run(3, "D frozen on [0.01,0.22], C frozen on [0.25,1.33], shared "
            "boundary at tau=0.2318 within one grid step", body)


def test_criterion_4_entanglement_death_window():
    def body():
        grid = np.linspace(0.0, math.pi, 4001)
        for tau in grid:
            e = report_at(LAM_FIG, tau).E
            pos = tau % (math.pi / 2)
            in_window = DEATH_LO - 1e-3 <= pos <= DEATH_HI + 1e-3
            strictly_inside = DEATH_LO + 1e-3 <= pos <= DEATH_HI - 1e-3
            if strictly_inside:
                assert e <= 1e-12
            elif not in_window:
                assert e > 1e-12

    _run(4, "E = 0 exactly on tau in [0.6155, 0.9553] (+-1e-3) per half "
            "period and E > 0 outside", body)


def test_criterion_5_ancilla_protocol():
    def body():
        bell_2p = np.outer(BELL_VECTORS[:, 2], BELL_VECTORS[:, 2].conj())
        bell_1m = np.outer(BELL_VECTORS[:, 1], BELL_VECTORS[:, 1].conj())
        for tau in np.linspace(0.0, math.pi, 100):
            out = ancilla_evolve(bell_2p, tau)
            expect = math.cos(tau) ** 2 * bell_2p + math.sin(tau) ** 2 * bell_1m
            assert np.max(np.abs(out - expect)) < 1e-12

    _run(5, "ancilla channel output matches cos^2 |2+><2+| + sin^2 |1-><1-| "
            "within 1e-12 on a 100-point grid", body)


def test_criterion_6_nonmarkovianity():
    def body():
        grid = np.linspace(0.0, math.pi / 2, 2001)
        trace = nonmarkovianity_measure(grid, "rhp")
        assert np.all(trace.i_e[grid <= math.pi / 4 + 1e-12] == 0.0)
        assert abs(trace.i_e[-1] - 2.0) < 1e-3

        # positive increments only where the two-qubit entanglement revives:
        # inside [pi/4, pi/2] modulo the half period
        wide = np.linspace(0.0, math.pi, 4001)
        tr = nonmarkovianity_measure(wide, "rhp")
        inc = np.diff(tr.i_e)
        step = wide[1] - wide[0]
        for k in np.nonzero(inc > 0)[0]:
            pos = wide[k + 1] % (math.pi / 2)
            assert math.pi / 4 - step <= pos or pos <= step
            assert pos <= math.pi / 2

        revival = (wide >= DEATH_HI + 1e-3) & (wide <= math.pi / 2 - 1e-3)
        e2q = np.array([report_at(LAM_FIG, t).E for t in wide[revival]])
        assert np.all(np.diff(e2q) > 0)
        lo = np.searchsorted(wide, DEATH_HI + 1e-3)
        hi = np.searchsorted(wide, math.pi / 2 - 1e-3)
        assert np.all(inc[lo:hi] > 0)

    _run(6, "increase-counting I_E = 0 up to pi/4, I_E(pi/2) = 2 (tol 1e-3), "
            "increments only where entanglement revives", body)


def test_criterion_7_composition_violation():
    def body():
        d = composition_violation(LAM_FIG, math.pi / 4, math.pi / 2)
        assert abs(d - 0.5) < 1e-12
        mixed = np.full(4, 0.25)
        assert composition_violation(mixed, math.pi / 4, math.pi / 2) < 1e-12

    _run(7, "composition-law violation 0.5 (tol 1e-12) for the figure state, "
            "0 for the maximally mixed state", body)


def test_criterion_8_property_suites():
    def body():
        rng = np.random.default_rng(2024)
        stable_direction = switched_direction = stable_argmax = 0
        for _ in range(1000):
            lam0 = rng.dirichlet(np.ones(4))
            tau = rng.uniform(0.0, 2.0 * math.pi)
            rho0 = bell_spectrum_to_density(lam0)

            # fast path vs the four-branch ensemble, and Bell closure
            evolved = two_qubit_map(rho0, tau)
            lam_ens, residual = bell_spectrum_of(evolved)
            lam_t = evolve_bell_spectrum(lam0, tau)
            assert residual < 1e-12
            assert np.max(np.abs(lam_t - lam_ens)) < 1e-12

            # monotonicity bounds
            rep0 = quantifier_report(rho0)
            rep = quantifier_report(bell_spectrum_to_density(lam_t))
            assert rep.T <= rep0.T + 1e-9
            assert rep.D <= rep0.D + 1e-9
            assert rep.C <= rep0.C + 1e-9
            assert rep.E <= rep0.E + 1e-9

            # argmax stability on its domain of validity (always holds for
            # entangled states, whose dominant pair carries more than 1/2)
            m = int(np.argmax(lam0))
            if lam0[m] + lam0[3 - m] >= 0.5:
                stable_argmax += 1
                assert lam_t[m] >= lam_t.max() - 1e-12

            # classical-state commutation while the dominant correlation
            # direction is unswitched; otherwise the fresh construction may
            # only improve
            c0 = np.abs(c_vector_of_spectrum(lam0))
            ct = np.abs(c_vector_of_spectrum(lam_t))
            m0 = int(np.argmax(c0))
            chi_new = closest_classical_bd(lam_t)
            chi_evolved = two_qubit_map(closest_classical_bd(lam0), tau)
            if ct[m0] > np.max(np.delete(ct, m0)) + 1e-9:
                stable_direction += 1
                assert trace_distance(chi_new, chi_evolved) < 1e-10
            else:
                switched_direction += 1
                rho_t = bell_spectrum_to_density(lam_t)
                assert relative_entropy(rho_t, chi_new) <= (
                    relative_entropy(rho_t, chi_evolved) + 1e-12
                )

        assert stable_argmax > 600
        assert stable_direction > 400 and switched_direction > 50

        # data-processing inequality on random full-rank pairs
        for _ in range(300):
            g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g1 @ g1.conj().T
            rho /= np.trace(rho).real
            sig = g2 @ g2.conj().T
            sig /= np.trace(sig).real
            tau = rng.uniform(0.0, 2.0 * math.pi)
            assert relative_entropy(
                two_qubit_map(rho, tau), two_qubit_map(sig, tau)
            ) <= relative_entropy(rho, sig) + 1e-9

    _run(8, "1000-state property suite: monotone bounds, Bell closure, fast "
            "path, data processing, argmax stability and chi-commutation on "
            "their domains", body)


def test_criterion_9_oracle_certification(tmp_path):
    def body():
        out = tmp_path / "verify.json"
        code = main(["verify", "--n", "100", "--seed", "0", "--output", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_N100_SHA256
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["passed"] is True and data["n"] == 100
        for family in ("classical", "separable", "product"):
            assert data["families"][family]["max_discrepancy_bits"] < 1e-3

        # the separable oracle certifies the 1 - h(lam_max) closed form
        rng = np.random.default_rng(5)
        from belldyn.oracle import oracle_closest_separable_bd

        checked = 0
        while checked < 10:
            lam = rng.dirichlet(np.ones(4))
            if lam.max() <= 0.5 + 1e-12:
                continue
            checked += 1
            found = oracle_closest_separable_bd([lam])[0].value
            p = float(lam.max())
            h = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
            assert abs(found - (1.0 - h)) < 1e-3

    _run(9, "verify exits 0 on 100 seeded states with all closest-state "
            "families within 1e-3 bits; REE closed form certified", body)
