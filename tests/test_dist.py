"""Joint outcome distributions, correlators, and their serialization."""

import math
from itertools import product

import numpy as np
import pytest

from oracles import (
    brute_force_correlators,
    brute_force_distribution,
    dense_distribution,
    excitation_correlators,
    full_correlators,
    symmetric_form,
)
from wbell.dist import (
    ONE,
    JointDistribution,
    MeasurementAssignment,
    joint_distribution,
    power,
    table,
    times,
)
from wbell.measure import (
    BlochAxis,
    X_AXIS,
    Z_AXIS,
    efficiency_povm,
    family_povm,
)
from wbell.states import ExcitationState, damped_w_state, w_state

BRUTE_ATOL = 1e-12
TABLE_ATOL = 1e-15
AD_EQUIV_ATOL = 1e-11


def ideal_assignment(n):
    z = efficiency_povm(Z_AXIS, 1.0, 1.0)
    x = efficiency_povm(X_AXIS, 1.0, 1.0)
    return MeasurementAssignment.uniform(z, x, n)


def test_w3_all_z_block():
    """Measuring W3 in the z basis finds exactly one excitation, uniformly."""
    p = joint_distribution(w_state(3), ideal_assignment(3))
    block = p.table[0, 0, 0]
    expected = np.zeros((2, 2, 2))
    for k in range(3):
        idx = [0, 0, 0]
        idx[k] = 1
        expected[tuple(idx)] = 1.0 / 3.0
    np.testing.assert_allclose(block, expected, atol=BRUTE_ATOL)


def test_joint_distribution_matches_brute_force_two_outcome():
    for n in (2, 3):
        st = damped_w_state(n, 0.7)
        z = efficiency_povm(Z_AXIS, 0.8, 1.0)
        x = family_povm("homodyne", 0.9, 0.4)
        p = joint_distribution(st, MeasurementAssignment.uniform(z, x, n))
        p.validate()
        parties = [(z.elements, x.elements)] * n
        expected = brute_force_distribution(st.rho, parties)
        np.testing.assert_allclose(p.table, expected, atol=BRUTE_ATOL)


def test_joint_distribution_matches_brute_force_three_outcome():
    st = w_state(3)
    z3 = family_povm("lossy3_z", 0.75)
    x3 = family_povm("lossy3_x", 0.6)
    p = joint_distribution(st, MeasurementAssignment.uniform(z3, x3, 3))
    p.validate()
    parties = [(z3.elements, x3.elements)] * 3
    expected = brute_force_distribution(st.rho, parties)
    np.testing.assert_allclose(p.table, expected, atol=BRUTE_ATOL)


def test_joint_distribution_with_atom_party():
    """Party 0 gets its own measurement pair; the photons share theirs."""
    from wbell.states import atom_photon_state

    st = atom_photon_state(-0.7, 0.9, 2)
    atom = (efficiency_povm(Z_AXIS, 1.0, 1.0),
            efficiency_povm(BlochAxis(math.pi / 2, 0.0), 1.0, 1.0))
    z = efficiency_povm(Z_AXIS, 0.8, 1.0)
    x = family_povm("homodyne", 1.0)
    p = joint_distribution(st, MeasurementAssignment((atom, (z, x), (z, x))))
    p.validate()
    parties = [(atom[0].elements, atom[1].elements)] + [(z.elements, x.elements)] * 2
    expected = brute_force_distribution(st.rho, parties)
    np.testing.assert_allclose(p.table, expected, atol=BRUTE_ATOL)


def test_distribution_is_nonsignalling_on_random_draws():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        z = efficiency_povm(BlochAxis(rng.uniform(0, math.pi), 0.0),
                            rng.uniform(), rng.uniform())
        x = efficiency_povm(BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                            rng.uniform(), rng.uniform())
        p = joint_distribution(w_state(n), MeasurementAssignment.uniform(z, x, n))
        p.validate()  # includes normalization and non-signalling checks


def test_validate_rejects_signalling_table():
    table = np.zeros((2, 2, 2, 2))
    # Party 1's marginal depends on party 0's setting: signalling.
    table[0, :, 0, 0] = 1.0
    table[1, :, 0, 1] = 1.0
    with pytest.raises(ValueError):
        JointDistribution(2, 2, table).validate()


def test_validate_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        table = np.full((2, 2), 0.5)
        table[1, 0] = bad
        with pytest.raises(ValueError):
            JointDistribution(1, 2, table).validate()
    with pytest.raises(ValueError):
        JointDistribution.from_text("0 0 0.5\n0 1 0.5\n1 0 nan\n1 1 0.5\n")


@pytest.mark.parametrize("call, message", [
    (lambda: MeasurementAssignment(()), "assignment needs at least one party"),
    (lambda: MeasurementAssignment(((efficiency_povm(Z_AXIS, 1.0, 1.0),),)),
     "each party needs exactly two settings"),
    (lambda: MeasurementAssignment(ideal_assignment(1).parties
                                   + ((family_povm("lossy3_z", 0.9),) * 2,)),
     "mixed outcome cardinalities in one assignment"),
    (lambda: JointDistribution(2, 2, np.full((2, 2), 0.5)).validate(),
     "table shape does not match scenario"),
    (lambda: joint_distribution(w_state(3), ideal_assignment(2)),
     "assignment has 2 parties, state has 3"),
], ids=["assignment-no-party", "assignment-one-setting", "assignment-mixed-outcomes",
        "validate-shape", "joint-party-count"])
def test_an_inconsistent_scenario_is_refused_by_its_own_check(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_full_correlators_against_observable_trace():
    n = 3
    st = damped_w_state(n, 0.85)
    z = efficiency_povm(Z_AXIS, 0.9, 1.0)
    x = family_povm("homodyne", 0.8, 0.2)
    p = joint_distribution(st, MeasurementAssignment.uniform(z, x, n))
    xi = full_correlators(p)
    for s_flat in range(2 ** n):
        settings = tuple((s_flat >> (n - 1 - k)) & 1 for k in range(n))
        op = np.eye(1, dtype=complex)
        for k in range(n):
            m_0, m_1 = (x if settings[k] else z).elements
            op = np.kron(op, m_0 - m_1)
        expected = np.trace(st.rho @ op).real
        assert xi[settings] == pytest.approx(expected, abs=1e-12)


def test_w3_all_z_correlator_is_minus_one():
    p = joint_distribution(w_state(3), ideal_assignment(3))
    assert full_correlators(p)[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_serialization_round_trip_is_lossless():
    p = joint_distribution(damped_w_state(3, 0.6180339887498949),
                           ideal_assignment(3))
    text = p.to_text()
    q = JointDistribution.from_text(text)
    assert q.n_parties == p.n_parties and q.n_outcomes == p.n_outcomes
    np.testing.assert_array_equal(q.table, p.table)
    assert q.to_text() == text


def test_from_text_rejects_malformed_input():
    p = joint_distribution(w_state(2), ideal_assignment(2))
    text = p.to_text()
    with pytest.raises(ValueError):
        JointDistribution.from_text(text + "0.5\n")
    with pytest.raises(ValueError):
        JointDistribution.from_text("")
    with pytest.raises(ValueError):
        JointDistribution.from_text("0 0 0.5\n0 1 0.5\n2 0 0.5\n2 1 0.5\n")


@pytest.mark.parametrize("edit", [
    lambda text: "\n" + text.replace("\n", "\n\n"),
    lambda text: "# two parties, ideal devices\n" + text.replace("\n", "  # entry\n", 1),
    lambda text: text + "   \n# end\n",
], ids=["blank-lines", "comments", "trailing"])
def test_from_text_skips_blank_lines_and_comments(edit):
    text = joint_distribution(w_state(2), ideal_assignment(2)).to_text()
    assert JointDistribution.from_text(edit(text)).to_text() == text


def test_from_text_refuses_a_repeated_pair():
    """A second line for one (settings, outcomes) pair is refused, not
    silently kept in place of the first, even when the count still fits."""
    with pytest.raises(ValueError, match="twice"):
        JointDistribution.from_text("0 0 0.9\n0 1 0.5\n1 0 0.5\n1 1 0.5\n0 0 0.5\n")
    text = joint_distribution(w_state(2), ideal_assignment(2)).to_text()
    first = text.splitlines()[0]
    with pytest.raises(ValueError, match="twice"):
        JointDistribution.from_text(text + first + "\n")


def test_povm_error_model_equals_channel_on_state():
    """Detector inefficiency commutes between the state and the POVM.

    Damping every mode of the W state and measuring ideally must equal
    measuring the pure state with the matching error POVMs: the z side uses
    the bare-efficiency counter, the x side the symmetric model at
    (1 + sqrt(eta)) / 2.
    """
    for n in (2, 3):
        for eta in (0.3, 0.8):
            damped = joint_distribution(damped_w_state(n, eta), ideal_assignment(n))
            e = 0.5 * (1.0 + math.sqrt(eta))
            z = efficiency_povm(Z_AXIS, eta, 1.0)
            x = efficiency_povm(X_AXIS, e, e)
            modelled = joint_distribution(
                w_state(n), MeasurementAssignment.uniform(z, x, n))
            np.testing.assert_allclose(modelled.table, damped.table, atol=AD_EQUIV_ATOL)


def random_two_outcome_elements(rng):
    """Elements (M_0, M_1) of a random two-outcome qubit POVM."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = a @ a.conj().T
    m0 = h / np.linalg.eigvalsh(h).max()
    return m0, np.eye(2) - m0


def random_elements(rng, n_outcomes):
    """Elements of a random qubit POVM with ``n_outcomes`` outcomes."""
    if n_outcomes == 2:
        return random_two_outcome_elements(rng)
    hs = [a @ a.conj().T for a in (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                                   for _ in range(n_outcomes - 1))]
    scale = np.linalg.eigvalsh(sum(hs)).max()
    ms = [h / scale for h in hs]
    return tuple(ms) + (np.eye(2) - sum(ms),)


def vacuum_weight(rng, draw: int) -> float:
    """w_vac of the ``draw``-th state: 0 (the pure state, as in the W state),
    then 1 (w_psi 0, the vacuum), then uniform in (0, 1)."""
    return (0.0, 1.0)[draw] if draw < 2 else float(rng.uniform(0.0, 1.0))


def random_excitation_state(rng, n, draw: int):
    """Unequal complex beta, with the vacuum weight of ``vacuum_weight``."""
    beta = rng.normal(size=n) + 1j * rng.normal(size=n)
    w_vac = vacuum_weight(rng, draw)
    return ExcitationState(beta / np.linalg.norm(beta), w_vac=w_vac, w_psi=1.0 - w_vac)


def test_table_equals_the_dense_oracle_and_the_brute_force():
    """Random complex states, the pure state and the vacuum among them, and a
    different random POVM pair per party, at two and three outcomes: the
    transfer-product table equals the dense site-tensor contraction to
    TABLE_ATOL, and so does the Kronecker brute force up to five parties."""
    rng = np.random.default_rng(24)
    for n_outcomes, sizes in ((2, range(1, 7)), (3, range(1, 5))):
        for n in sizes:
            for draw in (n % 2, 2):  # the pure state or the vacuum, then a mixture
                state = random_excitation_state(rng, n, draw)
                parties = [(random_elements(rng, n_outcomes), random_elements(rng, n_outcomes))
                           for _ in range(n)]
                got = table(state, parties)
                assert (got.n_parties, got.n_outcomes) == (n, n_outcomes)
                assert got.table.shape == (2,) * n + (n_outcomes,) * n
                dense = dense_distribution(state, parties).table
                np.testing.assert_allclose(got.table, dense, atol=TABLE_ATOL, rtol=0.0)
                if n <= 5:
                    brute = brute_force_distribution(state.rho, parties)
                    np.testing.assert_allclose(got.table, brute, atol=TABLE_ATOL, rtol=0.0)


def test_excitation_correlators_match_the_dense_contraction():
    """Complex beta, the pure state, the vacuum and vacuum admixtures, and
    unstructured devices: the transfer-matrix contraction agrees with the
    (4,)^N site tensor, and with the Kronecker brute force at small N."""
    rng = np.random.default_rng(21)
    for n in range(1, 8):
        for draw in range(4):
            state = random_excitation_state(rng, n, draw)
            parties = [(random_two_outcome_elements(rng), random_two_outcome_elements(rng))
                       for _ in range(n)]
            got = excitation_correlators(state, parties)
            assert got.shape == (2,) * n
            dense = full_correlators(dense_distribution(state, parties))
            np.testing.assert_allclose(got, dense, atol=BRUTE_ATOL, rtol=0.0)
            if n <= 4:
                brute = brute_force_correlators(state.rho, parties)
                np.testing.assert_allclose(got, brute, atol=BRUTE_ATOL, rtol=0.0)


def transfer_matrix(t):
    """The 4x4 matrix aI + bX + cY + dXY of a transfer (a, b, c, d)."""
    x, y = np.zeros((4, 4)), np.zeros((4, 4))
    x[0, 1] = x[2, 3] = y[0, 2] = y[1, 3] = 1.0
    a, b, c, d = t
    return a * np.eye(4) + b * x + c * y + d * (x @ y)


def test_transfer_products_and_powers_equal_the_matrices():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p, q, r = (tuple(complex(*rng.normal(size=2) * 0.6) for _ in range(4)) for _ in range(3))
        np.testing.assert_allclose(transfer_matrix(times(p, q, r)),
                                   transfer_matrix(p) @ transfer_matrix(q) @ transfer_matrix(r),
                                   atol=1e-12, rtol=0.0)
        np.testing.assert_allclose(transfer_matrix(times(p, q)), transfer_matrix(times(q, p)),
                                   atol=1e-12, rtol=0.0)
        for base in (p, (0.0,) + p[1:]):
            for m in range(12):
                np.testing.assert_allclose(transfer_matrix(power(base, m)),
                                           np.linalg.matrix_power(transfer_matrix(base), m),
                                           atol=1e-12, rtol=0.0)
    assert power(p, 0) == ONE


def test_symmetric_entries_and_correlators_equal_the_general_contractions():
    """Complex amplitudes, the pure state, the vacuum or a vacuum admixture,
    and unstructured devices, party 0 with its own amplitude and devices:
    every correlator and table entry read from the Symmetric form, by party
    0's setting and outcome and by how many of the others hold each element,
    equals the oracle's correlators and the dense table."""
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        beta = np.array([complex(rng.normal(), rng.normal())] +
                        [complex(rng.normal(), rng.normal())] * (n - 1))
        w_vac = vacuum_weight(rng, n % 3)
        state = ExcitationState(beta / np.linalg.norm(beta), w_vac=w_vac, w_psi=1.0 - w_vac)
        first, other = ((random_two_outcome_elements(rng), random_two_outcome_elements(rng))
                        for _ in range(2))
        parties = [first] + [other] * (n - 1)
        sym = symmetric_form(state, first, other)
        assert sym.n == n - 1
        xi = excitation_correlators(state, parties)
        dense = dense_distribution(state, parties).table
        observable = [[tuple(np.subtract(*outcomes)) for outcomes in pair]
                      for pair in (sym.first, sym.other)]
        for s in product((0, 1), repeat=n):
            ones = sum(s[1:])
            others = times(power(observable[1][0], n - 1 - ones), power(observable[1][1], ones))
            assert abs(sym.expectation(observable[0][s[0]], others) - xi[s]) < BRUTE_ATOL
            for o in product((0, 1), repeat=n):
                held = [(k, j) for k in (0, 1) for j in (0, 1)]
                counts = [sum(1 for sk, ok in zip(s[1:], o[1:]) if (sk, ok) == kj) for kj in held]
                others = times(ONE, *(power(sym.other[k][j], c)
                                      for (k, j), c in zip(held, counts)))
                got = sym.expectation(sym.first[s[0]][o[0]], others)
                assert abs(got - dense[s + o]) < BRUTE_ATOL, (n, s, o)
