import hashlib
import math

import numpy as np
import pytest

from belldyn.correlations import (
    bell_quantifiers,
    c_vector_of_spectrum,
    closest_classical_bd,
    closest_product,
    closest_separable_spectrum,
    quantifier_report,
)
from belldyn.dynamics import (
    BELL_RESIDUAL_TOL,
    bell_spectrum_of,
    bell_spectrum_to_density,
    evolve_bell_spectrum,
    two_qubit_map,
)
from belldyn.oracle import oracle_closest_classical

from matrix_reference import (
    H09,
    LAM_FIG,
    bell_projector,
    correlation_c_vector,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)


def h(x):
    """Binary entropy in bits, zero at both endpoints."""
    return -sum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0.0)


def test_binary_entropy():
    # the binary entropy lives in bell_quantifiers: C = 1 - h((1 + max|c_k|)/2)
    # and E = 1 - h(lam_max); a pure Bell state has p = 1, so h(1) = h(0) = 0
    t, d, c, e = bell_quantifiers([1.0, 0.0, 0.0, 0.0])
    assert float(c) == 1.0 and float(e) == 1.0
    # I/4 has c = 0, so p = 1/2 and h(1/2) = 1 exactly
    assert float(bell_quantifiers(np.full(4, 0.25))[2]) == 0.0
    assert abs((1.0 - float(bell_quantifiers(LAM_FIG)[3])) - 0.46900) < 1e-5
    for x in (0.55, 0.75, 0.9, 0.999):
        lam = [x, 1.0 - x, 0.0, 0.0]
        assert abs(float(bell_quantifiers(lam)[3]) - (1.0 - h(x))) < 1e-15
    with pytest.raises(ValueError):
        bell_quantifiers([1.2, -0.2, 0.0, 0.0])


def test_c_vector_examples():
    assert np.allclose(correlation_c_vector(np.eye(4) / 4), [0, 0, 0])
    assert np.allclose(correlation_c_vector(bell_projector(0)), [1, 1, -1])
    rho = 0.9 * bell_projector(0) + 0.1 * bell_projector(1)
    assert np.allclose(correlation_c_vector(rho), [0.8, 0.8, -1.0], atol=1e-12)


def test_c_vector_bell_references():
    refs = {0: (1, 1, -1), 1: (-1, -1, -1), 2: (1, -1, 1), 3: (-1, 1, 1)}
    for k, ref in refs.items():
        assert np.allclose(correlation_c_vector(bell_projector(k)), ref)


def test_c_vector_spectrum_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = rng.dirichlet(np.ones(4))
        c = c_vector_of_spectrum(lam)
        assert np.max(np.abs(correlation_c_vector(bell_spectrum_to_density(lam)) - c)) < 1e-12


def test_closest_product_examples():
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho = bell_spectrum_to_density(rng.dirichlet(np.ones(4)))
        assert np.max(np.abs(closest_product(rho) - np.eye(4) / 4)) < 1e-12
    rho01 = np.zeros((4, 4), dtype=complex)
    rho01[1, 1] = 1.0
    assert np.allclose(closest_product(rho01), rho01)
    mix = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert np.allclose(closest_product(mix), np.eye(4) / 4)


def test_closest_classical_examples():
    chi = closest_classical_bd(LAM_FIG)
    assert np.allclose(chi, np.diag([0, 0.5, 0.5, 0]), atol=1e-12)
    assert np.allclose(closest_classical_bd([0.25, 0.25, 0.25, 0.25]), np.eye(4) / 4)
    lam = np.array([0.45, 0.05, 0.05, 0.45])
    assert np.allclose(closest_classical_bd(lam), bell_spectrum_to_density(lam), atol=1e-12)


def test_closest_separable_examples():
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.allclose(closest_separable_spectrum(lam), lam)
    assert np.allclose(closest_separable_spectrum(LAM_FIG), [0.5, 0.5, 0, 0])
    assert np.allclose(closest_separable_spectrum([1.0, 0, 0, 0]), [0.5, 0.5, 0, 0])
    sig = bell_spectrum_to_density(closest_separable_spectrum(LAM_FIG))
    lam_sig, residual = bell_spectrum_of(sig)
    assert residual < 1e-14 and np.allclose(lam_sig, [0.5, 0.5, 0, 0])


def test_closest_separable_of_nearly_pure_states():
    # pure Bell states evolved to just off tau = k*pi/2 keep a dominant
    # coefficient within 1e-9..1e-2 of 1; the rescaled rest must still sum
    # to 1/2 and E must equal the closed form
    for i in range(4):
        for k in (1, 2, 3):
            for d in np.geomspace(1e-9, 1e-2, 12):
                for tau in (k * math.pi / 2 - d, k * math.pi / 2 + d):
                    lam = evolve_bell_spectrum(np.eye(4)[i], tau)
                    sig = closest_separable_spectrum(lam)
                    assert abs(sig.sum() - 1.0) < 1e-12 and sig.max() <= 0.5 + 1e-12
                    rep = quantifier_report(bell_spectrum_to_density(lam))
                    assert abs(rep.E - (1.0 - h(float(lam.max())))) < 1e-12


def test_bell_quantifiers_closed_forms():
    t, d, c, e = bell_quantifiers(LAM_FIG)
    assert abs(t - (2 - H09)) < 1e-12
    assert abs(d - (1 - H09)) < 1e-12
    assert abs(c - 1.0) < 1e-12
    assert abs(e - (1 - H09)) < 1e-12 and abs(e - (1 - h(0.9))) < 1e-12
    mixed = [float(x) for x in bell_quantifiers(np.full(4, 0.25))]
    assert mixed == [0.0, 0.0, 0.0, 0.0] and math.copysign(1.0, mixed[2]) == 1.0  # C = +0.0
    assert [float(x) for x in bell_quantifiers([1.0, 0, 0, 0])] == [2.0, 1.0, 1.0, 1.0]
    # E vanishes exactly at the separability edge lam_max = 1/2
    for lam in ([0.5, 0.5, 0.0, 0.0], [0.5, 0.25, 0.125, 0.125]):
        assert float(bell_quantifiers(lam)[3]) == 0.0
    # the frozen-to-oscillating fixed point tau = pi/4 has zero discord and
    # the rounding residue is clamped to exactly 0
    t, d, c, e = bell_quantifiers(evolve_bell_spectrum(LAM_FIG, math.pi / 4))
    assert d == 0.0 and e == 0.0


def test_bell_quantifiers_on_a_stack_match_the_report():
    rng = np.random.default_rng(5)
    lam = rng.dirichlet(np.ones(4), size=(3, 5))
    out = bell_quantifiers(lam)
    assert all(x.shape == (3, 5) for x in out)
    for idx in np.ndindex(3, 5):
        rep = quantifier_report(bell_spectrum_to_density(lam[idx]))
        for got, want in zip(out, (rep.T, rep.D, rep.C, rep.E)):
            assert abs(got[idx] - want) < 1e-12
    with pytest.raises(ValueError):
        bell_quantifiers([0.5, 0.5, math.nan, 0.0])
    with pytest.raises(ValueError):
        bell_quantifiers(np.ones((2, 3)) / 3)


def test_report_meets_the_closed_forms_on_sparse_spectra():
    # the report's eigensolves carry an absolute error of about 1e-13 on the
    # eigenvalues; on spectra with entries near 1e-12 that moves E by up to
    # 3.5e-11 bits, which must stay well inside 1e-10. The second extra row is
    # (0, 0, 1/6, 5/6) evolved to tau = 1e-6, with entries of 1.7e-12 and
    # 3.3e-13: E is 1.33e-11 bits off there
    rng = np.random.default_rng(0)
    extra = np.array([[2.8e-13, 0.419, 4.8e-10, 0.581],
                      evolve_bell_spectrum([0.0, 0.0, 1 / 6, 5 / 6], 1e-6)])
    lams = np.vstack([rng.dirichlet(np.full(4, 0.05), size=3000),
                      extra / extra.sum(axis=1, keepdims=True)])
    closed = np.stack(bell_quantifiers(lams), axis=-1)
    for lam, want in zip(lams, closed):
        rep = quantifier_report(bell_spectrum_to_density(lam))
        assert np.max(np.abs(np.array([rep.T, rep.D, rep.C, rep.E]) - want)) <= 1e-10, lam


def test_entanglement_threshold():
    rng = np.random.default_rng(2)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(4))
        rho = bell_spectrum_to_density(lam)
        e = relative_entropy(rho, bell_spectrum_to_density(closest_separable_spectrum(lam)))
        if lam.max() > 0.5 + 1e-12:
            assert e > 0.0
        else:
            assert e < 1e-12


def test_entanglement_closed_form_two_ways():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(4))
        if lam.max() <= 0.5:
            continue
        sig = bell_spectrum_to_density(closest_separable_spectrum(lam))
        via_rel = relative_entropy(bell_spectrum_to_density(lam), sig)
        closed = 1.0 - h(float(lam.max()))
        assert abs(via_rel - closed) < 1e-10


def test_report_fig_initial_values():
    rep = quantifier_report(bell_spectrum_to_density(LAM_FIG))
    assert abs(rep.T - (2 - H09)) < 1e-12
    assert abs(rep.D - (1 - H09)) < 1e-12
    assert abs(rep.C - 1.0) < 1e-12
    assert abs(rep.E - (1 - H09)) < 1e-10
    assert np.allclose(rep.product_state, np.eye(4) / 4)


def test_report_maximally_mixed():
    rep = quantifier_report(np.eye(4) / 4)
    for v in (rep.T, rep.D, rep.C, rep.E):
        assert abs(v) < 1e-12


def test_report_discord_zero_state():
    lam = np.array([0.45, 0.05, 0.05, 0.45])
    rep = quantifier_report(bell_spectrum_to_density(lam))
    s_rho = H09 + 1.0
    assert abs(rep.D) < 1e-12
    assert rep.E == 0.0
    assert abs(rep.T - (2 - s_rho)) < 1e-12
    assert abs(rep.C - (2 - s_rho)) < 1e-12


def test_report_additivity_and_bounds():
    rng = np.random.default_rng(4)
    for _ in range(50):
        lam = rng.dirichlet(np.ones(4))
        rep = quantifier_report(bell_spectrum_to_density(lam))
        assert rep.T >= -1e-9 and rep.D >= -1e-9 and rep.C >= -1e-9 and rep.E >= -1e-9
        assert abs(rep.T - (rep.D + rep.C)) < 1e-9


def test_monotonicity_under_the_channel():
    rng = np.random.default_rng(5)
    for _ in range(150):
        lam0 = rng.dirichlet(np.ones(4))
        rep0 = quantifier_report(bell_spectrum_to_density(lam0))
        tau = rng.uniform(0, 2 * math.pi)
        rep = quantifier_report(bell_spectrum_to_density(evolve_bell_spectrum(lam0, tau)))
        assert rep.T <= rep0.T + 1e-9
        assert rep.D <= rep0.D + 1e-9
        assert rep.C <= rep0.C + 1e-9
        assert rep.E <= rep0.E + 1e-9


def test_classical_state_commutes_while_direction_is_stable():
    # chi of the evolved state equals the evolved chi as long as the
    # dominant correlation direction has not switched; after a switch the
    # fresh construction is strictly at least as close
    rng = np.random.default_rng(6)
    stable = switched = 0
    for _ in range(200):
        lam0 = rng.dirichlet(np.ones(4))
        tau = rng.uniform(0, 2 * math.pi)
        lam_t = evolve_bell_spectrum(lam0, tau)
        c0 = np.abs(c_vector_of_spectrum(lam0))
        ct = np.abs(c_vector_of_spectrum(lam_t))
        m0 = int(np.argmax(c0))
        chi_new = closest_classical_bd(lam_t)
        chi_evolved = two_qubit_map(closest_classical_bd(lam0), tau)
        if ct[m0] > np.max(np.delete(ct, m0)) + 1e-9:
            stable += 1
            assert trace_distance(chi_new, chi_evolved) < 1e-10
        else:
            switched += 1
            rho_t = bell_spectrum_to_density(lam_t)
            d_new = relative_entropy(rho_t, chi_new)
            d_evolved = relative_entropy(rho_t, chi_evolved)
            assert d_new <= d_evolved + 1e-12
    assert stable > 50 and switched > 10


def test_classical_state_commutation_breaks_at_the_switch():
    # pinned counterexample: past the switching time (f > 0.1) the fresh
    # construction keeps the c2 direction and is strictly closer than the
    # evolved initial classical state
    tau = 0.5 * math.asin(math.sqrt(0.4))  # f = 0.2
    lam_t = evolve_bell_spectrum(LAM_FIG, tau)
    rho_t = bell_spectrum_to_density(lam_t)
    chi_new = closest_classical_bd(lam_t)
    chi_evolved = two_qubit_map(closest_classical_bd(LAM_FIG), tau)
    d_new = relative_entropy(rho_t, chi_new)
    d_evolved = relative_entropy(rho_t, chi_evolved)
    assert trace_distance(chi_new, chi_evolved) > 0.05
    assert d_new < d_evolved - 0.2
    assert abs(d_new - (1 + h(0.9) - von_neumann_entropy(rho_t))) < 1e-12


def test_report_total_correlation_local_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ub, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(ua, ub)
        rot = u @ rho @ u.conj().T
        t_direct = von_neumann_entropy(closest_product(rho)) - von_neumann_entropy(rho)
        t_rot = von_neumann_entropy(closest_product(rot)) - von_neumann_entropy(rot)
        assert abs(t_direct - t_rot) < 1e-10


def _rotated(rho, seed):
    rng = np.random.default_rng(seed)
    ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    ub, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u = np.kron(ua, ub)
    return u @ rho @ u.conj().T


def test_report_oracle_path_for_rotated_states():
    # local rotations leave T, D and C invariant; the rotated state leaves
    # the Bell-diagonal class, so its D and C come from the classical search
    lam = np.array([0.6, 0.25, 0.1, 0.05])
    rho = bell_spectrum_to_density(lam)
    analytic = quantifier_report(rho)
    rot = _rotated(rho, 8)
    chi = oracle_closest_classical([rot])[0].minimizer
    s_rot, s_chi = von_neumann_entropy(rot), von_neumann_entropy(chi)
    assert abs((s_chi - s_rot) - analytic.D) < 2e-3
    assert abs((von_neumann_entropy(closest_product(chi)) - s_chi) - analytic.C) < 2e-3
    assert abs((von_neumann_entropy(closest_product(rot)) - s_rot) - analytic.T) < 1e-9


def test_report_rejects_a_rotated_state():
    rot = _rotated(bell_spectrum_to_density([0.6, 0.25, 0.1, 0.05]), 8)
    assert bell_spectrum_of(rot)[1] >= BELL_RESIDUAL_TOL
    with pytest.raises(ValueError, match="^quantifier_report expects a Bell-diagonal state"):
        quantifier_report(rot)


#: spectra with tied coefficients or tied |c_k|: I/4, a rank-2 edge state,
#: a double and a triple tie of max|c_k|, and a zero-discord state
TIE_SPECTRA = (
    [0.25, 0.25, 0.25, 0.25],
    [0.5, 0.5, 0.0, 0.0],
    [0.5, 0.25, 0.25, 0.0],
    [0.7, 0.1, 0.1, 0.1],
    [0.45, 0.05, 0.05, 0.45],
    [0.3, 0.3, 0.2, 0.2],
)

#: sha256 over the reports of `_pinned_spectra`, captured when every
#: closest-state matrix was still built through the public, checking entry
#: points; an optimisation of the report must keep these bits
REPORT_SHA256 = "ffaf170896aa860323a778c5387ad87cddaec24ee62fac493f01d44218ffd7c9"


def _pinned_spectra():
    rng = np.random.default_rng(20)
    yield from rng.dirichlet(np.ones(4), size=300)
    yield from evolve_bell_spectrum(LAM_FIG, np.linspace(0.0, math.pi, 301))
    yield np.array([1.0, 0.0, 0.0, 0.0])
    yield from (np.array(lam) for lam in TIE_SPECTRA)


def test_report_bits_are_pinned():
    digest = hashlib.sha256()
    for lam in _pinned_spectra():
        rep = quantifier_report(bell_spectrum_to_density(lam))
        for q in (rep.T, rep.D, rep.C, rep.E):
            digest.update(float(q).hex().encode())
        for m in (rep.product_state, rep.classical_state, rep.separable_state):
            digest.update(m.tobytes())
    assert digest.hexdigest() == REPORT_SHA256


def test_report_checks_its_input_once(monkeypatch):
    # the report validates rho once and builds the rest itself: one
    # eigensolve checks rho and gives S(rho), one takes the entropies of the
    # stack (pi, chi, chi's marginal product) and one decomposes sigma, where
    # the per-function route made 15 calls; rho is decomposed once
    calls = []

    def counted(solver):
        def wrapper(a, *args, **kwargs):
            calls.append((solver.__name__, len(a) if np.ndim(a) == 3 else 1))
            return solver(a, *args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    quantifier_report(bell_spectrum_to_density(evolve_bell_spectrum(LAM_FIG, 0.3)))
    assert len(calls) <= 3 and sum(n for _, n in calls) <= 5, calls
