import math

import numpy as np
import pytest

from belldyn.dynamics import (
    ancilla_evolve,
    bell_spectrum_of,
    bell_spectrum_to_density,
    branch_unitary,
    evolve_bell_spectrum,
    mixing_fraction,
    single_qubit_map,
    two_qubit_map,
    validate_spectrum,
)

from matrix_reference import (
    LAM_FIG,
    bell_projector,
    random_density,
    relative_entropy,
    trace_distance,
)


def test_branch_unitary_examples():
    for phase in (0.0, math.pi):
        assert np.allclose(branch_unitary(phase, 0.0), np.eye(2))
    assert np.allclose(branch_unitary(0.0, math.pi / 2), [[0, -1], [1, 0]], atol=1e-12)
    r = math.sqrt(2) / 2
    assert np.allclose(branch_unitary(math.pi, math.pi / 4), [[r, r], [-r, r]], atol=1e-12)


def test_branch_unitary_is_unitary():
    for phase in (0.0, math.pi):
        for tau in np.linspace(0, 2 * math.pi, 17):
            u = branch_unitary(phase, tau)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


# the phase rule: within 1e-12 of 0 or pi, and checked before tau
@pytest.mark.parametrize("phase", [
    pytest.param(math.pi / 2, id="pi/2"),
    pytest.param(2e-12, id="2e-12"),
    pytest.param(-2e-12, id="-2e-12"),
    pytest.param(math.pi + 2e-12, id="pi+2e-12"),
    pytest.param(math.pi - 2e-12, id="pi-2e-12"),
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
])
def test_branch_unitary_rejects_other_phases(phase):
    for tau in (1.0, -1.0):
        with pytest.raises(ValueError, match=r"^branch phase must be 0 or pi, got "):
            branch_unitary(phase, tau)


@pytest.mark.parametrize("phase, exact", [
    pytest.param(5e-13, 0.0, id="5e-13"),
    pytest.param(-5e-13, 0.0, id="-5e-13"),
    pytest.param(math.pi + 5e-13, math.pi, id="pi+5e-13"),
    pytest.param(math.pi - 5e-13, math.pi, id="pi-5e-13"),
])
def test_branch_unitary_accepts_phases_within_the_band(phase, exact):
    for tau in (0.0, 0.3, math.pi / 2, 1e5):
        assert branch_unitary(phase, tau).tobytes() == branch_unitary(exact, tau).tobytes()


def test_mixing_fraction():
    assert mixing_fraction(0.0) == 0.0
    assert abs(mixing_fraction(math.pi / 4) - 0.5) < 1e-15
    assert abs(mixing_fraction(math.pi / 8) - 0.25) < 1e-15
    with pytest.raises(ValueError):
        mixing_fraction(-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mixing_fraction(bad)
    with pytest.raises(ValueError):
        mixing_fraction([0.1, math.nan])


def test_single_qubit_map_examples():
    eye = np.eye(2) / 2
    for tau in (0.0, 0.3, 1.2):
        assert np.allclose(single_qubit_map(eye, tau), eye)
    tau = 0.7
    out = single_qubit_map(np.diag([1.0, 0.0]), tau)
    assert np.allclose(out, np.diag([math.cos(tau) ** 2, math.sin(tau) ** 2]), atol=1e-14)
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    assert np.allclose(single_qubit_map(rho, 0.0), rho)


def test_two_qubit_map_examples():
    assert np.allclose(two_qubit_map(np.eye(4) / 4, 0.9), np.eye(4) / 4)
    out = two_qubit_map(bell_spectrum_to_density(LAM_FIG), math.pi / 4)
    lam, residual = bell_spectrum_of(out)
    assert residual < 1e-12
    assert np.allclose(lam, [0.45, 0.05, 0.05, 0.45], atol=1e-12)


def test_two_qubit_map_period_on_bell_diagonal():
    # the half period tau = pi/2 is an identity on the Bell-diagonal class
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho = bell_spectrum_to_density(rng.dirichlet(np.ones(4)))
        assert np.max(np.abs(two_qubit_map(rho, math.pi / 2) - rho)) < 1e-12


def test_two_qubit_map_half_period_is_a_flip_for_general_states():
    # outside the Bell-diagonal class tau = pi/2 conjugates by the global
    # flip: |00><00| goes to |11><11|, not to itself
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    rho11 = np.zeros((4, 4), dtype=complex)
    rho11[3, 3] = 1.0
    assert np.max(np.abs(two_qubit_map(rho00, math.pi / 2) - rho11)) < 1e-12


def test_two_qubit_map_full_period_for_any_state():
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density(rng, 4)
        assert np.max(np.abs(two_qubit_map(rho, math.pi) - rho)) < 1e-12


def test_channel_outputs_are_states():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = random_density(rng, 4)
        tau = rng.uniform(0, 2 * math.pi)
        out = two_qubit_map(rho, tau)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-10
        out2 = single_qubit_map(random_density(rng, 2), tau)
        assert abs(np.trace(out2).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out2).min() > -1e-10


def test_bell_diagonal_closure():
    rng = np.random.default_rng(4)
    for _ in range(30):
        rho = bell_spectrum_to_density(rng.dirichlet(np.ones(4)))
        _, residual = bell_spectrum_of(two_qubit_map(rho, rng.uniform(0, 2 * math.pi)))
        assert residual < 1e-12


def test_fast_path_matches_four_branch_ensemble():
    rng = np.random.default_rng(5)
    for _ in range(200):
        lam0 = rng.dirichlet(np.ones(4))
        tau = rng.uniform(0, 2 * math.pi)
        fast = evolve_bell_spectrum(lam0, tau)
        ens, residual = bell_spectrum_of(two_qubit_map(bell_spectrum_to_density(lam0), tau))
        assert residual < 1e-12
        assert np.max(np.abs(fast - ens)) < 1e-12


def test_evolve_bell_spectrum_examples():
    lam0 = np.array([0.3, 0.3, 0.2, 0.2])
    assert np.allclose(evolve_bell_spectrum(lam0, 0.0), lam0)
    assert np.allclose(evolve_bell_spectrum(LAM_FIG, math.pi / 4), [0.45, 0.05, 0.05, 0.45])
    mixed = np.full(4, 0.25)
    for tau in (0.1, 0.9, 2.3):
        assert np.allclose(evolve_bell_spectrum(mixed, tau), mixed)


def test_argmax_stability_in_its_domain():
    # the dominant label survives for all tau exactly when its partner
    # pair holds at least half of the weight (always true above 1/2)
    rng = np.random.default_rng(6)
    grid = np.linspace(0, math.pi / 2, 101)
    checked = 0
    for _ in range(300):
        lam0 = rng.dirichlet(np.ones(4))
        m = int(np.argmax(lam0))
        if lam0[m] + lam0[3 - m] < 0.5:
            continue
        checked += 1
        for tau in grid:
            lam = evolve_bell_spectrum(lam0, tau)
            assert lam[m] >= lam.max() - 1e-12
    assert checked > 100


def test_argmax_can_switch_outside_the_domain():
    # pinned counterexample: dominant pair holds only 0.4 of the weight
    lam0 = np.array([0.4, 0.35, 0.25, 0.0])
    lam = evolve_bell_spectrum(lam0, math.pi / 4)
    assert np.allclose(lam, [0.2, 0.3, 0.3, 0.2])
    assert int(np.argmax(lam)) != int(np.argmax(lam0))


def test_data_processing_inequality():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        tau = rng.uniform(0, 2 * math.pi)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(two_qubit_map(rho, tau), two_qubit_map(sigma, tau))
        assert after <= before + 1e-9


def test_bell_spectrum_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = rng.dirichlet(np.ones(4))
        back, residual = bell_spectrum_of(bell_spectrum_to_density(lam))
        assert residual < 1e-14
        assert np.max(np.abs(back - lam)) < 1e-14


def test_bell_spectrum_examples():
    assert np.allclose(bell_spectrum_to_density([1, 0, 0, 0]), bell_projector(0))
    lam, residual = bell_spectrum_of(np.eye(4) / 4)
    assert np.allclose(lam, 0.25) and residual < 1e-15
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    lam, residual = bell_spectrum_of(rho00)
    assert np.allclose(lam, [0, 0, 0.5, 0.5])
    assert abs(residual - 0.5) < 1e-12  # |2+><2-| coherence


def test_ancilla_evolve_examples():
    rng = np.random.default_rng(9)
    for tau in rng.uniform(0, 2 * math.pi, 8):
        out = ancilla_evolve(bell_projector(2), tau)
        expect = math.cos(tau) ** 2 * bell_projector(2) + math.sin(tau) ** 2 * bell_projector(1)
        assert np.max(np.abs(out - expect)) < 1e-12
    assert np.allclose(ancilla_evolve(np.eye(4) / 4, 1.1), np.eye(4) / 4)
    rho = random_density(rng, 4)
    assert np.allclose(ancilla_evolve(rho, 0.0), rho)


@pytest.mark.parametrize("call", [
    lambda: two_qubit_map(np.eye(4) / 4, math.nan),
    lambda: single_qubit_map(np.eye(2) / 2, math.nan),
    lambda: branch_unitary(0.0, math.nan),
    lambda: ancilla_evolve(np.eye(4) / 4, math.inf),
    lambda: two_qubit_map(np.eye(4) / 4, -1.0),
], ids=["two-qubit-nan", "single-qubit-nan", "branch-nan", "ancilla-inf", "two-qubit-negative"])
def test_channels_obey_the_tau_rule(call):
    # the branch unitaries take mixing_fraction's tau rule, so no channel
    # returns NaN or accepts a negative tau
    with pytest.raises(ValueError, match="^tau must be finite and non-negative"):
        call()


def test_channels_reject_a_state_of_the_wrong_size():
    with pytest.raises(ValueError, match="^single_qubit_map expects a 2x2 state$"):
        single_qubit_map(np.eye(4) / 4, 0.3)
    for name, channel in (("two_qubit_map", two_qubit_map), ("ancilla_evolve", ancilla_evolve)):
        with pytest.raises(ValueError, match=f"^{name} expects a 4x4 state$"):
            channel(np.eye(2) / 2, 0.3)


def test_validate_spectrum():
    with pytest.raises(ValueError):
        validate_spectrum([0.5, 0.5, 0.1, -0.1])
    with pytest.raises(ValueError):
        validate_spectrum([0.5, 0.5, 0.5, 0.5])
    out = validate_spectrum([0.25, 0.25, 0.25, 0.25])
    assert out.shape == (4,)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            validate_spectrum([bad, 0.5, 0.5, 0.0])
    stack = validate_spectrum([[0.25] * 4, [1.0, 0.0, 0.0, -1e-13]])
    assert stack.shape == (2, 4) and stack.min() == 0.0
    with pytest.raises(ValueError, match="sums to"):
        validate_spectrum([[0.25] * 4, [0.5, 0.5, 0.5, 0.0]])
    # functions of one state reject a stack, even a 4x4 one
    with pytest.raises(ValueError):
        bell_spectrum_to_density(np.full((4, 4), 0.25))


@pytest.mark.parametrize("lam", [
    np.array([0.4, 0.3, 0.2, 0.1]),
    np.array([[0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25]]),
], ids=["one", "stack"])
def test_validate_spectrum_returns_a_new_array(lam):
    before = lam.copy()
    out = validate_spectrum(lam)
    assert np.array_equal(out, lam)
    out[...] = 7.0
    assert np.array_equal(lam, before)


def test_evolution_on_a_grid_matches_pointwise_evolution():
    rng = np.random.default_rng(9)
    lam0 = rng.dirichlet(np.ones(4))
    grid = np.linspace(0.0, 2 * math.pi, 101)
    spectra = evolve_bell_spectrum(lam0, grid)
    assert spectra.shape == (101, 4)
    f = mixing_fraction(grid)
    for k, tau in enumerate(grid):
        assert np.array_equal(spectra[k], evolve_bell_spectrum(lam0, tau))
        assert f[k] == mixing_fraction(float(tau))
    assert evolve_bell_spectrum(lam0, grid.reshape(101, 1)).shape == (101, 1, 4)


def test_composition_example_states():
    # periodicity vs the fixed point reached at tau = pi/4
    direct = evolve_bell_spectrum(LAM_FIG, math.pi / 2)
    stuck = evolve_bell_spectrum(evolve_bell_spectrum(LAM_FIG, math.pi / 4), math.pi / 4)
    assert np.allclose(direct, LAM_FIG, atol=1e-12)
    assert np.allclose(stuck, [0.45, 0.05, 0.05, 0.45], atol=1e-12)
    d = trace_distance(bell_spectrum_to_density(direct), bell_spectrum_to_density(stuck))
    assert abs(d - 0.5) < 1e-12
