"""Measurement models: axes, efficiency POVMs, and the device families."""

import math

import numpy as np
import pytest

import wbell.measure as measure
from oracles import (
    amplitude_damping_kraus,
    assert_valid_povm,
    dephasing_kraus,
    eigenvector_down,
    eigenvector_up,
    fock_noclick_block,
    outer_efficiency_elements,
    outer_projectors,
)
from wbell.measure import (
    EQUATOR,
    POVM,
    BlochAxis,
    X_AXIS,
    Z_AXIS,
    FAMILIES,
    efficiency_povm,
    family_povm,
)

FOCK_ATOL = 1e-10
OPERATOR_ATOL = 1e-12
FAMILY_ATOL = 1e-15
N_RANDOM = 40


def test_z_axis_eigenvectors():
    np.testing.assert_allclose(eigenvector_down(Z_AXIS), [1.0, 0.0], atol=OPERATOR_ATOL)
    # Global phase is irrelevant; compare through the overlap.
    up = eigenvector_up(Z_AXIS)
    assert abs(up @ np.array([0.0, 1.0])) == pytest.approx(1.0, abs=OPERATOR_ATOL)


def test_x_axis_eigenvectors():
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(eigenvector_down(X_AXIS), [s, s], atol=OPERATOR_ATOL)


def test_axis_projectors_are_orthogonal_resolution():
    rng = np.random.default_rng(23)
    for _ in range(N_RANDOM):
        axis = BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        p_down, p_up = efficiency_povm(axis, 1.0, 1.0).elements
        np.testing.assert_allclose(p_down + p_up, np.eye(2), atol=OPERATOR_ATOL)
        np.testing.assert_allclose(p_down @ p_up, np.zeros((2, 2)), atol=OPERATOR_ATOL)
        np.testing.assert_allclose(p_down @ p_down, p_down, atol=OPERATOR_ATOL)


def random_axes(rng):
    """Random axes over the whole sphere, azimuth nonzero, and the poles and
    equator at azimuth 0."""
    axes = [BlochAxis(rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 2 * math.pi))
            for _ in range(N_RANDOM)]
    return axes + [Z_AXIS, X_AXIS, BlochAxis(math.pi, 0.0), BlochAxis(EQUATOR, 1.3)]


def test_closed_form_projectors_and_elements_equal_the_outer_product_oracle():
    """The closed-form entries agree with outer products of the eigenvectors
    to FAMILY_ATOL, and form valid POVMs."""
    rng = np.random.default_rng(31)
    for axis in random_axes(rng):
        for got, ref in zip(efficiency_povm(axis, 1.0, 1.0).elements, outer_projectors(axis)):
            np.testing.assert_allclose(got, ref, atol=FAMILY_ATOL, rtol=0.0, err_msg=str(axis))
        assert_valid_povm(efficiency_povm(axis, 1.0, 1.0).elements)
        eta_up, eta_down = rng.uniform(), rng.uniform()
        got = measure._efficiency_elements(axis.polar, axis.azimuth, eta_up, eta_down)
        for a, b in zip(got, outer_efficiency_elements(axis, eta_up, eta_down)):
            np.testing.assert_allclose(a, b, atol=FAMILY_ATOL, rtol=0.0, err_msg=str(axis))
        assert_valid_povm(got)


def test_every_family_element_equals_the_outer_product_oracle(monkeypatch):
    """Every FAMILIES entry, built once as it is and once with the axis
    elements swapped for the outer-product oracle, agrees to FAMILY_ATOL."""
    rng = np.random.default_rng(37)
    draws = [(family, float(rng.uniform()), float(rng.uniform(-3.0, 3.0)))
             for family in FAMILIES for _ in range(25)]
    draws += [(family, eff, 0.0) for family in FAMILIES for eff in (0.0, 1.0)]
    got = [FAMILIES[family][1](eff, aux) for family, eff, aux in draws]
    monkeypatch.setattr(measure, "_efficiency_elements",
                        lambda polar, azimuth, eta_up, eta_down: outer_efficiency_elements(
                            BlochAxis(polar, azimuth), eta_up, eta_down))
    for (family, eff, aux), elements in zip(draws, got):
        ref = FAMILIES[family][1](eff, aux)
        assert len(elements) == len(ref) == FAMILIES[family][0]
        for a, b in zip(elements, ref):
            np.testing.assert_allclose(a, b, atol=FAMILY_ATOL, rtol=0.0,
                                       err_msg=f"{family} {eff} {aux}")
        assert_valid_povm(elements)


def test_equatorial_axis_direction():
    # The observable p_down - p_up of the axis is n . sigma.
    p_down, p_up = efficiency_povm(BlochAxis(EQUATOR, 0.3), 1.0, 1.0).elements
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    np.testing.assert_allclose(p_down - p_up, math.cos(0.3) * sigma_x + math.sin(0.3) * sigma_y,
                               atol=OPERATOR_ATOL)


def test_efficiency_povm_random_draws_are_valid():
    rng = np.random.default_rng(29)
    for _ in range(N_RANDOM):
        axis = BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        povm = efficiency_povm(axis, rng.uniform(), rng.uniform())
        assert_valid_povm(povm.elements)


def test_efficiency_povm_unit_is_projective():
    povm = efficiency_povm(Z_AXIS, 1.0, 1.0)
    assert povm.n_outcomes == 2
    m_down, m_up = povm.elements
    np.testing.assert_allclose(m_up, [[0, 0], [0, 1]], atol=OPERATOR_ATOL)
    np.testing.assert_allclose(m_down - m_up, np.diag([1.0, -1.0]), atol=OPERATOR_ATOL)


def test_spd_convention_vacuum_never_clicks():
    m_up = efficiency_povm(Z_AXIS, 0.4, 1.0).elements[1]
    vac = np.array([1.0, 0.0])
    assert vac @ m_up @ vac == pytest.approx(0.0, abs=OPERATOR_ATOL)
    one = np.array([0.0, 1.0])
    assert (one @ m_up @ one).real == pytest.approx(0.4, abs=OPERATOR_ATOL)


def test_efficiency_povm_rejects_out_of_range():
    with pytest.raises(ValueError):
        efficiency_povm(Z_AXIS, 1.2, 1.0)
    with pytest.raises(ValueError):
        efficiency_povm(Z_AXIS, 0.5, -0.1)


def test_two_outcome_povm_validation():
    with pytest.raises(ValueError):
        POVM((np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        POVM((-0.5 * np.eye(2), 1.5 * np.eye(2)))
    with pytest.raises(ValueError):
        POVM((0.4 * np.eye(2), 0.5 * np.eye(2)))
    with pytest.raises(ValueError, match="^two-level: "):
        POVM((0.4 * np.eye(2), 0.5 * np.eye(2)), "two-level")
    assert POVM((0.4 * np.eye(2), 0.6 * np.eye(2))).n_outcomes == 2


def test_homodyne_ideal_correctness_constant():
    correct = 0.5 * (1.0 + math.sqrt(2.0 / math.pi))
    m_down = family_povm("homodyne", 1.0, 0.0).elements[0]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert (plus @ m_down @ plus).real == pytest.approx(correct, abs=1e-12)


def test_homodyne_matches_symmetric_efficiency_model():
    for phi in (0.0, 1.1):
        for eta in (0.2, 0.77, 1.0):
            e = 0.5 * (1.0 + math.sqrt(2.0 * eta / math.pi))
            expected = efficiency_povm(BlochAxis(EQUATOR, phi), e, e)
            got = family_povm("homodyne", eta, phi)
            np.testing.assert_allclose(got.elements[1], expected.elements[1], atol=OPERATOR_ATOL)


def test_homodyne_zero_efficiency_is_coin_flip():
    povm = family_povm("homodyne", 0.0, 0.4)
    np.testing.assert_allclose(povm.elements[1], 0.5 * np.eye(2), atol=OPERATOR_ATOL)


def test_displaced_noclick_matches_fock_oracle():
    """The closed-form no-click element against the truncated-Fock construction."""
    for alpha in np.linspace(-3.0, 3.0, 13):
        for eta in (0.3, 0.7, 1.0):
            oracle = fock_noclick_block(float(alpha), eta)
            got = family_povm("displaced", eta, float(alpha)).elements[1]
            np.testing.assert_allclose(got, oracle, atol=FOCK_ATOL)


def test_displaced_povm_is_valid_over_parameter_grid():
    for alpha in np.linspace(-2.5, 2.5, 11):
        for eta in (0.1, 0.5, 0.9, 1.0):
            assert_valid_povm(family_povm("displaced", eta, float(alpha)).elements)


def test_displaced_click_statistics_at_reference_point():
    # At alpha = -1, eta = 1 the +x eigenstate always clicks and the -x
    # eigenstate stays silent with probability 2/e.
    noclick = family_povm("displaced", 1.0, -1.0).elements[1]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert (plus @ noclick @ plus).real == pytest.approx(0.0, abs=1e-12)
    assert (minus @ noclick @ minus).real == pytest.approx(2.0 / math.e, abs=1e-12)


def test_displaced_rejects_bad_efficiency():
    with pytest.raises(ValueError):
        family_povm("displaced", 1.01, 0.5)


def test_family_povm_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown measurement family 'pnr'"):
        family_povm("pnr", 0.5)


def test_every_builder_rejects_a_probability_outside_the_unit_interval():
    """The builders check their scalar inputs, NaN included, before any
    element is built, and name the input in the message."""
    builders = [
        ("eta_up", lambda p: efficiency_povm(Z_AXIS, p, 1.0)),
        ("eta_down", lambda p: efficiency_povm(Z_AXIS, 1.0, p)),
    ] + [("eff", lambda p, family=family: family_povm(family, p, 0.5)) for family in FAMILIES]
    for name, build in builders:
        for bad in (-1e-9, 1.0 + 1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name}="):
                build(bad)
        for good in (0.0, 1.0):
            build(good)


def test_lossy_threeoutcome_structure():
    povm = family_povm("lossy3_x", 0.6)
    assert povm.n_outcomes == 3
    assert_valid_povm(povm.elements)
    p_down, p_up = efficiency_povm(X_AXIS, 1.0, 1.0).elements
    m_plus, m_minus, m_noclick = povm.elements
    np.testing.assert_allclose(m_plus, 0.6 * p_down, atol=OPERATOR_ATOL)
    np.testing.assert_allclose(m_minus, 0.6 * p_up, atol=OPERATOR_ATOL)
    np.testing.assert_allclose(m_noclick, 0.4 * np.eye(2), atol=OPERATOR_ATOL)


def test_three_outcome_povm_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        POVM((0.5 * eye, 0.5 * eye, 0.5 * eye))


def test_symmetric_error_equals_amplitude_damped_projectors():
    """Measuring x after amplitude damping is the symmetric two-efficiency model."""
    p_down, p_up = efficiency_povm(X_AXIS, 1.0, 1.0).elements
    for eta in (0.0, 0.3, 0.75, 1.0):
        e = 0.5 * (1.0 + math.sqrt(eta))
        povm = efficiency_povm(X_AXIS, e, e)
        for proj, element in zip((p_down, p_up), povm.elements):
            heisenberg = sum(k.conj().T @ proj @ k for k in amplitude_damping_kraus(eta))
            np.testing.assert_allclose(element, heisenberg, atol=OPERATOR_ATOL)


def test_symmetric_error_equals_dephased_projectors():
    """The same device arises from phase damping that scales coherences by 2e-1."""
    p_down, p_up = efficiency_povm(X_AXIS, 1.0, 1.0).elements
    for e in (0.5, 0.8, 1.0):
        scale = 2.0 * e - 1.0
        povm = efficiency_povm(X_AXIS, e, e)
        for proj, element in zip((p_down, p_up), povm.elements):
            heisenberg = sum(k.conj().T @ proj @ k for k in dephasing_kraus(scale))
            np.testing.assert_allclose(element, heisenberg, atol=OPERATOR_ATOL)
