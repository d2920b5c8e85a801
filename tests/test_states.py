"""State constructors: W states, vacuum damping, atom-photon entanglement."""

import math

import numpy as np
import pytest

from types import SimpleNamespace

from oracles import amplitude_damping_kraus, apply_channel_everywhere, validate_state, w_vector
from wbell.qmat import negativity
from wbell.states import ExcitationState, atom_photon_state, damped_w_state, w_state

ATOL = 1e-12
CHANNEL_ATOL = 1e-12


def test_w_vector_support_and_norm():
    for n in range(1, 7):
        v = w_vector(n)
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=ATOL)
        support = np.flatnonzero(np.abs(v) > 0.0)
        assert [int(i) for i in support] == sorted(1 << k for k in range(n))
        np.testing.assert_allclose(v[support], 1.0 / math.sqrt(n), atol=ATOL)


def test_w_state_is_valid_pure_state():
    for n in (2, 3, 5):
        st = w_state(n)
        validate_state(st)
        assert st.n_parties == n
        np.testing.assert_allclose(st.rho @ st.rho, st.rho, atol=1e-10)


def test_damped_w_state_equals_per_mode_amplitude_damping():
    """Mixing with vacuum must agree with damping every mode of the pure W."""
    kraus_cache = {}
    for n in (2, 3, 4):
        pure = w_state(n).rho
        for eta in (0.0, 0.35, 0.8, 1.0):
            kraus = kraus_cache.setdefault(eta, amplitude_damping_kraus(eta))
            expected = apply_channel_everywhere(pure, kraus, n)
            got = damped_w_state(n, eta)
            validate_state(got)
            np.testing.assert_allclose(got.rho, expected, atol=CHANNEL_ATOL)


def test_damped_w_state_rejects_bad_eta():
    with pytest.raises(ValueError):
        damped_w_state(3, 1.2)
    with pytest.raises(ValueError):
        damped_w_state(3, -0.01)


def test_atom_photon_state_pure_at_full_coupling():
    st = atom_photon_state(-0.7, 1.0, 2)
    validate_state(st)
    assert st.n_parties == 3
    np.testing.assert_allclose(st.rho @ st.rho, st.rho, atol=1e-10)
    # Atom excited and no photon: amplitude cos(theta) at index 100 (binary).
    np.testing.assert_allclose(st.rho[4, 4], math.cos(0.7) ** 2, atol=ATOL)


def test_atom_photon_state_vacuum_weight_tracks_coupling():
    theta, eta_c = -0.6, 0.55
    st = atom_photon_state(theta, eta_c, 3)
    validate_state(st)
    # The uncoupled branch parks (1 - eta_c) sin^2(theta) on |g, vac>.
    assert st.rho[0, 0].real == pytest.approx((1.0 - eta_c) * math.sin(theta) ** 2, abs=ATOL)
    # The coherent branch keeps the photon amplitude scaled by sqrt(eta_c);
    # |e, vac> sits at index 8 and the first W_3 component at index 4.
    assert st.rho[8, 4].real == pytest.approx(
        math.cos(theta) * math.sqrt(eta_c) * math.sin(theta) / math.sqrt(3.0), abs=ATOL)


def test_atom_photon_negativity_is_sin_two_theta_at_full_coupling():
    for theta in (-0.2, -0.7252, -1.2):
        st = atom_photon_state(theta, 1.0, 2)
        assert negativity(st.rho, 0) == pytest.approx(abs(math.sin(2.0 * theta)), abs=1e-10)


def test_atom_photon_state_theta_zero_is_product():
    st = atom_photon_state(0.0, 0.7, 2)
    assert negativity(st.rho, 0) == pytest.approx(0.0, abs=1e-10)


def test_validate_rejects_broken_states():
    good = w_state(2)
    with pytest.raises(ValueError):
        validate_state(SimpleNamespace(n_parties=3, rho=good.rho))
    with pytest.raises(ValueError):
        validate_state(SimpleNamespace(n_parties=2, rho=0.5 * good.rho))
    skew = good.rho.copy()
    skew[0, 1] = 0.3
    with pytest.raises(ValueError):
        validate_state(SimpleNamespace(n_parties=2, rho=skew))


def test_dense_states_expand_the_excitation_description_bit_for_bit():
    """The dense matrices equal the direct outer-product constructions
    entry for entry, so the dense path sees the very matrices it always saw."""
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        v = w_vector(n)
        np.testing.assert_array_equal(w_state(n).rho, np.outer(v, v.conj()))
        for eta in (0.0, 1.0, 0.35, *rng.uniform(0.0, 1.0, 4)):
            rho = float(eta) * np.outer(v, v.conj())
            rho[0, 0] += 1.0 - float(eta)
            np.testing.assert_array_equal(damped_w_state(n, float(eta)).rho, rho)
        for theta in (0.0, -0.7, -1.2, *rng.uniform(-math.pi / 2.0, 0.0, 3)):
            for eta_c in (1.0, 0.0, 0.55, *rng.uniform(0.0, 1.0, 2)):
                theta, eta_c = float(theta), float(eta_c)
                c, s = math.cos(theta), math.sin(theta)
                coupled = np.zeros(2 ** (n + 1), dtype=complex)
                coupled[1 << n] = c
                coupled[: 2 ** n] += math.sqrt(eta_c) * s * v
                rho = np.outer(coupled, coupled.conj())
                rho[0, 0] += (1.0 - eta_c) * s * s
                st = atom_photon_state(theta, eta_c, n)
                assert st.n_parties == n + 1
                np.testing.assert_array_equal(st.rho, rho)


def test_excitation_description_of_each_state():
    st = damped_w_state(4, 0.25)
    assert (st.n_parties, st.w_vac, st.w_psi) == (4, 0.75, 0.25)
    np.testing.assert_array_equal(st.beta, np.full(4, 0.5))
    at = atom_photon_state(-0.6, 0.64, 3)
    assert at.n_parties == 4 and at.w_psi == 1.0
    assert at.w_vac == pytest.approx(0.36 * math.sin(0.6) ** 2, abs=ATOL)
    np.testing.assert_allclose(at.beta, [math.cos(0.6)] + [-0.8 * math.sin(0.6) / math.sqrt(3)] * 3,
                               atol=ATOL)
    # A general description: trace w_psi |beta|^2 + w_vac.
    general = ExcitationState(np.array([0.6j, 0.8]), w_vac=0.5, w_psi=0.5)
    validate_state(general)
    # Party 1, the last, owns the least significant bit.
    assert general.rho[2, 1] == pytest.approx(0.5 * 0.6j * 0.8, abs=ATOL)
    # The weights are keyword-only, so a leading vacuum amplitude is refused.
    with pytest.raises(TypeError, match="positional"):
        ExcitationState(0.0, np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        w_state(0)
    with pytest.raises(ValueError):
        atom_photon_state(0.3, 1.5, 2)
