"""Bell functionals: Cabello, WWWZB aggregate, Mermin-3, CHSH."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wbell.bell import (
    BellResult,
    VIOLATION_GUARD,
    cabello_value,
    chsh_value,
    mermin3_value,
    wwwzb_symmetric,
    wwwzb_value,
)
from wbell.cli import PRESETS
from wbell.dist import (
    JointDistribution, MeasurementAssignment, Symmetric, _transfers, joint_distribution)
from wbell.measure import EQUATOR, FAMILIES, BlochAxis, X_AXIS, Z_AXIS, efficiency_povm
from wbell.search import fix_parameter, resolve_values, violation_margin
from wbell.states import damped_w_state, w_state

from oracles import (
    brute_force_distribution,
    cabello_loop_value,
    full_correlators,
    nonlocal_content_lower_bound,
)

CLOSED_FORM_ATOL = 1e-10
LHV_GUARD = 1e-12


def ideal_distribution(state, n):
    z = efficiency_povm(Z_AXIS, 1.0, 1.0)
    x = efficiency_povm(X_AXIS, 1.0, 1.0)
    return joint_distribution(state, MeasurementAssignment.uniform(z, x, n))


def deterministic_distribution(n, strategy):
    """strategy[k] = (outcome under setting 0, outcome under setting 1)."""
    table = np.zeros((2,) * n + (2,) * n)
    for settings in itertools.product(range(2), repeat=n):
        outcomes = tuple(strategy[k][settings[k]] for k in range(n))
        table[settings + outcomes] = 1.0
    return JointDistribution(n, 2, table)


def all_deterministic_strategies(n):
    per_party = list(itertools.product(range(2), repeat=2))
    return itertools.product(per_party, repeat=n)


def test_cabello_w_state_closed_form():
    for n in range(3, 9):
        got = cabello_value(ideal_distribution(w_state(n), n))
        expected = 1.0 - n / 2.0 ** (n - 1)
        assert got.value == pytest.approx(expected, abs=CLOSED_FORM_ATOL)
        assert got.local_bound == 0.0 and got.algebraic_max == 1.0
        assert got.violated


def test_cabello_vacuum_closed_form():
    for n in range(3, 9):
        got = cabello_value(ideal_distribution(damped_w_state(n, 0.0), n))
        expected = 1.0 - 0.25 * n * (n - 1) - 2.0 ** (1 - n)
        assert got.value == pytest.approx(expected, abs=CLOSED_FORM_ATOL)
        assert not got.violated


def test_cabello_asymptotically_saturates_algebraic_max():
    got = cabello_value(ideal_distribution(w_state(10), 10))
    assert got.value >= 0.98


def test_cabello_nonpositive_on_every_deterministic_strategy():
    for n in (3, 4):
        worst = -np.inf
        for strategy in all_deterministic_strategies(n):
            value = cabello_value(deterministic_distribution(n, strategy)).value
            worst = max(worst, value)
        assert worst <= LHV_GUARD


def test_cabello_value_equals_the_entry_loop_bit_for_bit():
    """The flat-index read adds the same terms in the same order as the
    tuple-index loop, so the values agree exactly on any table."""
    rng = np.random.default_rng(41)
    for n in range(3, 9):
        for _ in range(5):
            p = JointDistribution(n, 2, rng.uniform(size=(2,) * (2 * n)))
            assert cabello_value(p).value == cabello_loop_value(p), n
        p = ideal_distribution(w_state(n), n)
        assert cabello_value(p).value == cabello_loop_value(p), n


def test_cabello_rejects_two_parties():
    with pytest.raises(ValueError):
        cabello_value(ideal_distribution(w_state(2), 2))


def test_wwwzb_deterministic_strategies_give_exactly_one():
    for n in (2, 3):
        for strategy in all_deterministic_strategies(n):
            c = full_correlators(deterministic_distribution(n, strategy))
            assert wwwzb_value(c).value == 1.0


def test_wwwzb_mixture_of_strategies_stays_bounded():
    rng = np.random.default_rng(43)
    strategies = list(all_deterministic_strategies(3))
    for _ in range(20):
        weights = rng.dirichlet(np.ones(6))
        picks = rng.choice(len(strategies), size=6, replace=False)
        table = sum(w * deterministic_distribution(3, strategies[i]).table
                    for w, i in zip(weights, picks))
        c = full_correlators(JointDistribution(3, 2, table))
        assert wwwzb_value(c).value <= 1.0 + 1e-9


def ghz_distribution():
    """GHZ lies outside the single-excitation span, so its table comes from
    the Kronecker brute force."""
    v = np.zeros(8)
    v[0] = v[7] = 1.0 / math.sqrt(2.0)
    y = efficiency_povm(BlochAxis(math.pi / 2, math.pi / 2), 1.0, 1.0)
    xbar = efficiency_povm(BlochAxis(EQUATOR, math.pi), 1.0, 1.0)
    table = brute_force_distribution(np.outer(v, v).astype(complex),
                                     [(y.elements, xbar.elements)] * 3)
    p = JointDistribution(3, 2, table)
    p.validate()
    return p


def test_mermin3_ghz_reaches_algebraic_max():
    got = mermin3_value(full_correlators(ghz_distribution()))
    assert got.value == pytest.approx(4.0, abs=1e-10)
    assert got.local_bound == 2.0 and got.algebraic_max == 4.0


def test_wwwzb_ghz_reaches_algebraic_max():
    got = wwwzb_value(full_correlators(ghz_distribution()))
    assert got.value == pytest.approx(2.0, abs=1e-10)
    assert got.algebraic_max == pytest.approx(2.0)


def test_mermin3_needs_three_parties():
    with pytest.raises(ValueError):
        mermin3_value(full_correlators(ideal_distribution(w_state(2), 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: cabello_value(JointDistribution(3, 3, np.full((2,) * 3 + (3,) * 3, 1.0 / 27.0))),
     "the inequality is defined for two-outcome scenarios"),
    (lambda: chsh_value(np.zeros((2, 2, 2))), "CHSH is a two-party functional"),
], ids=["cabello-three-outcomes", "chsh-three-parties"])
def test_a_functional_refuses_a_table_of_another_scenario(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_chsh_tsirelson_from_correlator_table():
    s = 1.0 / math.sqrt(2.0)
    xi = np.array([[s, s], [s, -s]])
    got = chsh_value(xi)
    assert got.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert got.violated


def test_chsh_minus_position_is_scanned():
    # The minus sign can sit on any of the four correlators.
    for i, j in itertools.product(range(2), repeat=2):
        xi = np.ones((2, 2))
        xi[i, j] = -1.0
        assert chsh_value(xi).value == pytest.approx(4.0)


def test_chsh_quantum_route_on_w2():
    # W_2 is maximally entangled; x-z plane axes at the standard angles
    # reach the Tsirelson bound.
    atom = (efficiency_povm(BlochAxis(0.0, 0.0), 1.0, 1.0),
            efficiency_povm(BlochAxis(math.pi / 2, 0.0), 1.0, 1.0))
    b0 = efficiency_povm(BlochAxis(3.0 * math.pi / 4.0, 0.0), 1.0, 1.0)
    b1 = efficiency_povm(BlochAxis(math.pi / 4.0, 0.0), 1.0, 1.0)
    p = joint_distribution(w_state(2), MeasurementAssignment((atom, (b0, b1))))
    got = chsh_value(full_correlators(p))
    assert got.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("n", [3, 10, 100, 1030])
def test_wwwzb_closed_form_stays_exact_on_fractions(n):
    """fig2's closed form on the exact values of its float inputs, the
    devices' elements and the W state's amplitude 1/sqrt(N), returns a
    Fraction within 1e-12 of the float margin, up to the most parties wwwzb
    takes. At azimuth 0 every element is real."""
    eta_z, eta_x = 0.6, 0.95
    spec = fix_parameter(fix_parameter(PRESETS["fig2"].build(n), "eta_z", eta_z), "eta_x", eta_x)

    def exact(entry):
        assert complex(entry).imag == 0.0
        return Fraction(complex(entry).real)

    pair = [[[[exact(m) for m in row] for row in element]
             for element in FAMILIES[family][1](eta, 0.0)]
            for family, eta in (("spd", eta_z), ("sym", eta_x))]
    other = _transfers(pair, Fraction(1.0 / math.sqrt(n)))
    margin = wwwzb_symmetric(Symmetric(other, other, n - 1, (Fraction(0), Fraction(1)))) - 1
    assert isinstance(margin, Fraction)
    assert abs(margin - Fraction(violation_margin(spec, resolve_values(spec)))) <= 1e-12


def test_violation_guard():
    assert not BellResult.make(2.0 + VIOLATION_GUARD / 2.0, 2.0, 4.0).violated
    assert BellResult.make(2.0 + 1e-6, 2.0, 4.0).violated


def test_nonlocal_content_lower_bound_formula():
    r = BellResult.make(3.0, 2.0, 4.0)
    assert nonlocal_content_lower_bound(r) == pytest.approx(0.5)
    assert nonlocal_content_lower_bound(BellResult.make(1.0, 2.0, 4.0)) == 0.0
    assert nonlocal_content_lower_bound(BellResult.make(9.0, 2.0, 4.0)) == 1.0
    with pytest.raises(ValueError):
        nonlocal_content_lower_bound(BellResult.make(1.0, 1.0, 1.0))
