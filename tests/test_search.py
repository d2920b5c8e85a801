"""Scenario specs, the margin optimizer, and threshold bisection."""

import ast
import concurrent.futures
import gc
import io
import json
import math
import os
import pickle
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wbell.bell as bell
import wbell.search as search
from wbell.bell import (
    VIOLATION_GUARD,
    BellResult,
    cabello_symmetric,
    cabello_value,
    chsh_symmetric,
    chsh_value,
    is_violation,
    mermin3_symmetric,
    mermin3_value,
    wwwzb_symmetric,
    wwwzb_value,
)
from wbell.cli import PRESETS, _scenario_from_keys, dispatch, parse_config
import wbell.dist as dist
from wbell.dist import JointDistribution, MeasurementAssignment, joint_distribution
from wbell.measure import (
    EQUATOR,
    POVM,
    X_AXIS,
    Z_AXIS,
    FAMILIES,
    BlochAxis,
    efficiency_povm,
    family_povm,
)
from wbell.polytope import LP_MAX_PARTIES, ContentResult, nonlocal_content
from wbell.search import (
    BISECTION_ATOL,
    CRITERIA,
    BracketError,
    MeasSpec,
    ParamSpec,
    ScenarioSpec,
    criterion_result,
    critical_efficiency,
    fix_parameter,
    free_parameters,
    has_violation,
    optimize_free_parameters,
    region_boundary,
    resolve_values,
    scenario_distribution,
    violation_margin,
)
from wbell.states import ExcitationState, atom_photon_state, damped_w_state, w_state

from oracles import (
    assert_valid_povm,
    brute_force_correlators,
    brute_force_distribution,
    damping_threshold,
    dense_distribution,
    excitation_correlators,
    eigenvector_down,
    eigenvector_up,
    full_correlators,
    plain_bisection,
    scipy_simplex,
    scipy_sobol,
    symmetric_form,
)

OPERATOR_ATOL = 1e-12
MARGIN_ATOL = 1e-9


def cabello_spd_spec(n=3, eta_z="eta_z", eta_x=1.0):
    params = {}
    if isinstance(eta_z, str):
        params[eta_z] = ParamSpec.free(0.01, 1.0)
    return ScenarioSpec(
        name="test", n_parties=n, criterion="cabello",
        photon_z=MeasSpec("spd", eta_z),
        photon_x=MeasSpec("sym", eta_x, 0.0),
        params=params,
    )


def table_spec(criterion, n, k):
    """A criterion on n parties with k-outcome devices and literal efficiencies."""
    z, x = ("spd", "sym") if k == 2 else ("lossy3_z", "lossy3_x")
    return ScenarioSpec(name="t", n_parties=n, criterion=criterion,
                        photon_z=MeasSpec(z, 1.0), photon_x=MeasSpec(x, 1.0, 0.0))


def damping_spec(n=3):
    """Both settings derive from one amplitude-damping efficiency."""
    return ScenarioSpec(
        name="test-ad", n_parties=n, criterion="cabello",
        photon_z=MeasSpec("spd", "eta"),
        photon_x=MeasSpec("ad_x", "eta", 0.0),
        params={"eta": ParamSpec.free(0.01, 1.0)},
    )


class TestParamSpec:
    def test_free_and_fixed(self):
        p = ParamSpec.free(0.0, 1.0)
        assert p.is_free
        q = ParamSpec.fixed(0.3)
        assert not q.is_free and q.value == 0.3

    def test_rejections(self):
        with pytest.raises(ValueError):
            ParamSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            ParamSpec(0.0, math.inf)
        with pytest.raises(ValueError):
            ParamSpec(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            ParamSpec.free(0.5, 0.5)


class TestMeasSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            MeasSpec("heterodyne", 1.0)

    def test_flip_needs_two_outcomes(self):
        with pytest.raises(ValueError):
            MeasSpec("lossy3_z", 1.0, flip=True)

    def test_references(self):
        ms = MeasSpec("homodyne", "eta_hom", "phi")
        assert ms.references() == {"eta_hom", "phi"}
        assert MeasSpec("spd", 0.8).references() == set()


class TestScenarioSpec:
    def test_criterion_outcome_mismatches(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=3, criterion="lp3",
                         photon_z=MeasSpec("spd", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0))
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=3, criterion="cabello",
                         photon_z=MeasSpec("lossy3_z", 1.0),
                         photon_x=MeasSpec("lossy3_x", 1.0, 0.0))
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=3, criterion="cabello",
                         photon_z=MeasSpec("lossy3_z", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0))
        # Every row of the table: its outcome count is accepted, the other
        # one rejected.
        for criterion, rule in CRITERIA.items():
            table_spec(criterion, rule.min_parties, rule.n_outcomes)
            with pytest.raises(ValueError, match="outcome"):
                table_spec(criterion, rule.min_parties, 5 - rule.n_outcomes)

    def test_party_count_rules(self):
        with pytest.raises(ValueError):
            cabello_spd_spec(n=2)
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=4, criterion="mermin3",
                         photon_z=MeasSpec("spd", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0))
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=3, criterion="chsh",
                         photon_z=MeasSpec("spd", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0))
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=6, criterion="lp2",
                         photon_z=MeasSpec("spd", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0))
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=5, criterion="lp3",
                         photon_z=MeasSpec("lossy3_z", 1.0),
                         photon_x=MeasSpec("lossy3_x", 1.0, 0.0))
        # Every row of the table: both edges of its party range accepted,
        # one beyond each edge rejected.
        for criterion, rule in CRITERIA.items():
            k = rule.n_outcomes
            table_spec(criterion, rule.min_parties, k)
            with pytest.raises(ValueError, match="parties"):
                table_spec(criterion, rule.min_parties - 1, k)
            if rule.max_parties is None:
                table_spec(criterion, rule.min_parties + 6, k)
            else:
                table_spec(criterion, rule.max_parties, k)
                with pytest.raises(ValueError, match="parties"):
                    table_spec(criterion, rule.max_parties + 1, k)

    @pytest.mark.parametrize("k", sorted(LP_MAX_PARTIES))
    def test_lp_rows_cap_where_the_lp_does(self, k):
        rows = [rule for rule in CRITERIA.values() if rule.lp and rule.n_outcomes == k]
        assert [rule.max_parties for rule in rows] == [LP_MAX_PARTIES[k]]
        for n, accepted in ((LP_MAX_PARTIES[k], True), (LP_MAX_PARTIES[k] + 1, False)):
            noise = JointDistribution(n, k, np.full((2,) * n + (k,) * n, float(k) ** -n))
            if accepted:
                assert nonlocal_content(noise).local_weight == pytest.approx(1.0)
            else:
                with pytest.raises(ValueError, match="capped"):
                    nonlocal_content(noise)

    def test_efficiencies_are_checked_by_device_role(self):
        def spec(z_eff, params, x_aux=0.0):
            return ScenarioSpec(name="t", n_parties=3, criterion="cabello",
                                photon_z=MeasSpec("spd", z_eff),
                                photon_x=MeasSpec("homodyne", 1.0, x_aux), params=params)

        # A parameter read as an efficiency is range-checked whatever its name.
        with pytest.raises(ValueError, match="efficiency 'gain'"):
            spec("gain", {"gain": ParamSpec.free(0.0, 2.0)})
        with pytest.raises(ValueError, match="efficiency"):
            fix_parameter(spec("gain", {"gain": ParamSpec(0.0, 2.0, 0.5)}), "gain", 1.5)
        for literal in (-0.1, 1.2, math.nan):
            with pytest.raises(ValueError, match="efficiency"):
                spec(literal, {})
        # An eta-named parameter that no device reads as an efficiency is not.
        spec(1.0, {"eta_phase": ParamSpec.free(0.0, 2.0 * math.pi)}, x_aux="eta_phase")
        # With an atom, eta_c and eta_atom are efficiencies too.
        atom = PRESETS["fig4-homodyne"].spec
        for name in ("eta_c", "eta_atom"):
            with pytest.raises(ValueError, match=f"efficiency '{name}'"):
                fix_parameter(atom, name, 1.2)
            fix_parameter(atom, name, 0.5)

    def test_parameter_bookkeeping(self):
        with pytest.raises(ValueError, match="without a spec"):
            ScenarioSpec(name="t", n_parties=3, criterion="cabello",
                         photon_z=MeasSpec("spd", "eta"),
                         photon_x=MeasSpec("sym", 1.0, 0.0))
        with pytest.raises(ValueError, match="never referenced"):
            ScenarioSpec(name="t", n_parties=3, criterion="cabello",
                         photon_z=MeasSpec("spd", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0),
                         params={"eta": ParamSpec.free(0.0, 1.0)})
        with pytest.raises(TypeError):
            ScenarioSpec(name="t", n_parties=3, criterion="cabello",
                         photon_z=MeasSpec("spd", "eta"),
                         photon_x=MeasSpec("sym", 1.0, 0.0),
                         params={"eta": 0.5})

    def test_atom_scenarios_require_their_parameters(self):
        with pytest.raises(ValueError, match="without a spec"):
            ScenarioSpec(name="t", n_parties=3, criterion="cabello", atom=True,
                         photon_z=MeasSpec("spd", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0))

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", n_parties=3, criterion="steering",
                         photon_z=MeasSpec("spd", 1.0),
                         photon_x=MeasSpec("sym", 1.0, 0.0))


def test_free_parameters_sorted_and_fixed_excluded():
    spec = ScenarioSpec(
        name="t", n_parties=3, criterion="cabello",
        photon_z=MeasSpec("spd", "zeta"),
        photon_x=MeasSpec("sym", "alpha", "phi"),
        params={"zeta": ParamSpec.free(0.0, 1.0),
                "alpha": ParamSpec.free(0.0, 1.0),
                "phi": ParamSpec.fixed(0.0)},
    )
    assert free_parameters(spec) == ("alpha", "zeta")


def test_fix_parameter():
    spec = cabello_spd_spec()
    fixed = fix_parameter(spec, "eta_z", 0.9)
    assert free_parameters(fixed) == ()
    assert fixed.params["eta_z"].value == 0.9
    with pytest.raises(KeyError):
        fix_parameter(spec, "nope", 0.5)


@pytest.fixture
def margin_calls(monkeypatch):
    """The margin evaluations made while a test runs."""
    calls, margin = [], search.violation_margin

    def counting_margin(*args):
        calls.append(args)
        return margin(*args)

    monkeypatch.setattr(search, "violation_margin", counting_margin)
    return calls


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools requested while a test runs.
    The pool may start all of its workers at once; this fake one records
    the request and maps in this process."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return requested


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_pin_outside_the_declared_range_is_refused_before_any_evaluation(
        margin_calls, pools, jobs):
    """Every pin on a free parameter reaches one range check, with the
    message the CLI prints: a library pin, a bracket end, and a region's
    grid value or bracket end, whatever the job count."""
    fig2 = PRESETS["fig2"].spec  # eta_z free on [0, 1], eta_x free on [0.5, 1]
    refused = [
        lambda: fix_parameter(fig2, "eta_x", 0.2),
        lambda: critical_efficiency(fig2, "eta_x", (0.2, 1.0), n_starts=2),
        lambda: critical_efficiency(fig2, "eta_x", (1.0, 0.2), n_starts=2),
        lambda: region_boundary(fig2, "eta_x", "eta_z", [0.6, 0.2], (0.1, 1.0),
                                n_starts=2, jobs=jobs),
        lambda: region_boundary(fig2, "eta_z", "eta_x", [0.5, 0.6], (0.2, 1.0),
                                n_starts=2, jobs=jobs),
    ]
    for case, call in enumerate(refused):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "eta_x = 0.2 lies outside its declared range [0.5, 1]", case
    assert margin_calls == [] and pools == []
    # A fixed parameter's pin is checked as an efficiency only.
    atom = PRESETS["fig4-homodyne"].spec
    assert fix_parameter(atom, "eta_c", 0.65).params["eta_c"].value == 0.65


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_pin_is_named_before_any_evaluation(margin_calls, pools, value):
    """A NaN or infinite pin, bracket end or grid end is refused with the
    parameter's name, not by ParamSpec's "parameter bounds must be finite"."""
    fig2 = PRESETS["fig2"].spec
    for name, call in (
            ("eta_z", lambda: fix_parameter(fig2, "eta_z", value)),
            ("eta_c", lambda: fix_parameter(PRESETS["fig4-homodyne"].spec, "eta_c", value)),
            ("eta_z", lambda: critical_efficiency(fig2, "eta_z", (value, 1.0), n_starts=2)),
            ("eta_z", lambda: critical_efficiency(fig2, "eta_z", (0.0, value), n_starts=2)),
            ("eta_z", lambda: region_boundary(fig2, "eta_z", "eta_x", [value, 1.0], (0.5, 1.0),
                                              n_starts=2, jobs=2)),
            ("eta_z", lambda: region_boundary(fig2, "eta_x", "eta_z", [0.6, 1.0], (0.0, value),
                                              n_starts=2))):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} = {value:g} is not a finite number"
    assert margin_calls == [] and pools == []


@pytest.mark.parametrize("jobs", [0, -5])
def test_fewer_than_one_worker_is_refused_before_any_pin_or_row(margin_calls, pools, jobs):
    """The CLI's worker-count rule holds for library calls too, and comes
    before the pin checks: the grid value 0.2 lies outside eta_x's range."""
    fig2 = PRESETS["fig2"].spec
    for xs in ([0.6, 1.0], [0.2]):
        with pytest.raises(ValueError, match="^worker count must be at least 1$"):
            region_boundary(fig2, "eta_x", "eta_z", xs, (0.1, 1.0), n_starts=2, jobs=jobs)
    assert margin_calls == [] and pools == []


def test_a_grid_on_the_bisected_parameter_is_refused_before_any_pin_or_row(margin_calls, pools):
    """Each row's bisection would overwrite its grid pin, so every row would
    print the same threshold. The rule comes after the worker count and
    before the pin checks: the grid value 0.2 lies outside eta_x's range."""
    fig2 = PRESETS["fig2"].spec
    for xs in ([0.6, 1.0], [0.2]):
        with pytest.raises(ValueError, match="^the grid and the bisection both vary 'eta_x'$"):
            region_boundary(fig2, "eta_x", "eta_x", xs, (0.5, 1.0), n_starts=2, jobs=2)
    with pytest.raises(ValueError, match="^worker count must be at least 1$"):
        region_boundary(fig2, "eta_x", "eta_x", [0.6, 1.0], (0.5, 1.0), n_starts=2, jobs=0)
    assert margin_calls == [] and pools == []


@pytest.mark.parametrize("n_starts", [0, -1])
def test_fewer_than_one_start_is_refused_before_any_evaluation(margin_calls, n_starts):
    """No start would evaluate nothing: has_violation would say "not
    violated" and critical_efficiency "satisfied on the whole bracket"."""
    spec = damping_spec()
    for call in (lambda: has_violation(spec, n_starts),
                 lambda: optimize_free_parameters(spec, n_starts),
                 lambda: critical_efficiency(spec, "eta", (0.5, 1.0), n_starts=n_starts)):
        with pytest.raises(ValueError, match="n_starts must be at least 1"):
            call()
    assert margin_calls == []


def test_resolve_values():
    spec = cabello_spd_spec()
    assert resolve_values(spec, {"eta_z": 0.7}) == {"eta_z": 0.7}
    # Every caller passes the names of free_parameters(spec); a missing one
    # still fails at its lookup.
    with pytest.raises(KeyError):
        resolve_values(spec)


class TestBuildPhotonPovm:
    def test_spd_is_one_sided_z(self):
        elements = composed_elements(MeasSpec("spd", 0.8), {})
        ref = efficiency_povm(Z_AXIS, 0.8, 1.0)
        for a, b in zip(elements, ref.elements):
            np.testing.assert_allclose(a, b, atol=OPERATOR_ATOL)

    def test_sym_uses_equatorial_axis(self):
        elements = composed_elements(MeasSpec("sym", "e", "phi"), {"e": 0.7, "phi": 0.4})
        ref = efficiency_povm(BlochAxis(EQUATOR, 0.4), 0.7, 0.7)
        for a, b in zip(elements, ref.elements):
            np.testing.assert_allclose(a, b, atol=OPERATOR_ATOL)

    def test_ad_x_symmetric_error_rate(self):
        eta = 0.6
        elements = composed_elements(MeasSpec("ad_x", eta, 0.0), {})
        e = 0.5 * (1.0 + math.sqrt(eta))
        ref = efficiency_povm(X_AXIS, e, e)
        for a, b in zip(elements, ref.elements):
            np.testing.assert_allclose(a, b, atol=OPERATOR_ATOL)

    def test_flip_swaps_elements(self):
        plain = composed_elements(MeasSpec("sym", 0.7, 0.0), {})
        flipped = composed_elements(MeasSpec("sym", 0.7, 0.0, flip=True), {})
        np.testing.assert_allclose(plain[0], flipped[1],
                                   atol=OPERATOR_ATOL)

    def test_displaced_response_keeps_eigenstate_statistics(self):
        plus = eigenvector_down(X_AXIS)
        minus = eigenvector_up(X_AXIS)
        for alpha in (-1.7, -0.3, 0.4, 0.9, 2.0):
            for eta in (0.4, 0.85, 1.0):
                r_down, r_up = composed_elements(MeasSpec("displaced_response", eta, alpha), {})
                exact_up = family_povm("displaced", eta, alpha).elements[1]
                got_up = (minus.conj() @ r_up @ minus).real
                got_down = (plus.conj() @ r_down @ plus).real
                assert got_up == pytest.approx(
                    (minus.conj() @ exact_up @ minus).real, abs=OPERATOR_ATOL)
                assert got_down == pytest.approx(
                    1.0 - (plus.conj() @ exact_up @ plus).real, abs=OPERATOR_ATOL)

    def test_lossy3_families(self):
        elements = composed_elements(MeasSpec("lossy3_z", 0.75), {})
        assert len(elements) == 3
        down, _ = efficiency_povm(Z_AXIS, 1.0, 1.0).elements
        np.testing.assert_allclose(elements[0], 0.75 * down,
                                   atol=OPERATOR_ATOL)


def test_scenario_distribution_places_atom_first():
    values = {"theta": -0.6, "eta_c": 0.9, "eta_atom": 0.95,
              "a_polar_0": 0.3, "a_polar_1": 1.8}
    spec = ScenarioSpec(
        name="t", n_parties=3, criterion="cabello", atom=True,
        photon_z=MeasSpec("spd", 0.8),
        photon_x=MeasSpec("sym", 0.7, 0.1),
        params={k: ParamSpec.fixed(v) for k, v in values.items()},
    )
    got = scenario_distribution(spec, resolve_values(spec))
    atom_pair = tuple(
        efficiency_povm(BlochAxis(values[f"a_polar_{s}"], 0.0), 0.95, 1.0)
        for s in range(2))
    ref = joint_distribution(
        atom_photon_state(-0.6, 0.9, 2),
        MeasurementAssignment((atom_pair,) + ((
            efficiency_povm(Z_AXIS, 0.8, 1.0),
            efficiency_povm(BlochAxis(EQUATOR, 0.1), 0.7, 0.7)),) * 2))
    np.testing.assert_allclose(got.table, ref.table, atol=OPERATOR_ATOL)


def test_criterion_result_dispatch():
    spec = cabello_spd_spec(eta_z=1.0)
    p = scenario_distribution(spec, {})
    photon = composed_parties(spec, {})[0]
    sym = symmetric_form(w_state(3), photon, photon)
    for criterion in ("cabello", "wwwzb", "mermin3"):
        assert isinstance(criterion_result(criterion, sym), BellResult)
    assert isinstance(criterion_result("lp2", p), ContentResult)


def test_margin_invariant_under_common_azimuth():
    """A shared x-setting azimuth is a global z rotation, so the single
    excitation state cannot see it."""
    spec = ScenarioSpec(
        name="t", n_parties=3, criterion="cabello",
        photon_z=MeasSpec("spd", 0.9),
        photon_x=MeasSpec("sym", 0.95, "phi"),
        params={"phi": ParamSpec.free(-math.pi, math.pi)},
    )
    base = violation_margin(spec, {"phi": 0.0})
    for phi in (-2.2, -0.5, 0.9, math.pi):
        assert violation_margin(spec, {"phi": phi}) == pytest.approx(
            base, abs=1e-12)


def test_margin_symmetric_in_displacement_sign():
    for family in ("displaced", "displaced_response"):
        spec = ScenarioSpec(
            name="t", n_parties=3, criterion="cabello",
            photon_z=MeasSpec("spd", 0.9),
            photon_x=MeasSpec(family, 0.9, "alpha"),
            params={"alpha": ParamSpec.free(-2.0, 2.0)},
        )
        for a in (0.05, 0.3, 0.8, 1.4, 1.9):
            assert violation_margin(spec, {"alpha": a}) == pytest.approx(
                violation_margin(spec, {"alpha": -a}), abs=1e-12)


def test_margin_varies_smoothly_along_efficiency():
    spec = cabello_spd_spec()
    etas = np.linspace(0.45, 1.0, 81)
    margins = np.array([violation_margin(spec, {"eta_z": float(e)}) for e in etas])
    steps = np.abs(np.diff(margins))
    assert steps.max() <= 10.0 * np.median(steps) + 1e-9
    assert margins[-1] > 0.0 > margins[0]


def test_optimizer_without_free_parameters_is_one_evaluation():
    spec = cabello_spd_spec(eta_z=0.95)
    res = optimize_free_parameters(spec)
    assert res.margin == violation_margin(spec, {})
    assert res.params == {}


def test_optimizer_reaches_tsirelson_margin():
    spec = ScenarioSpec(
        name="t", n_parties=2, criterion="chsh", atom=True,
        photon_z=MeasSpec("spd", 1.0),
        photon_x=MeasSpec("sym", 1.0, 0.0),
        params={
            "theta": ParamSpec.free(-math.pi / 2, -1e-3),
            "eta_c": ParamSpec.fixed(1.0),
            "eta_atom": ParamSpec.fixed(1.0),
            "a_polar_0": ParamSpec.free(0.0, math.pi),
            "a_polar_1": ParamSpec.free(0.0, math.pi),
        },
    )
    res = optimize_free_parameters(spec, n_starts=8)
    assert res.margin == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=MARGIN_ATOL)
    assert res.params["theta"] == pytest.approx(-math.pi / 4, abs=1e-4)


def test_optimizer_is_bitwise_deterministic():
    spec = ScenarioSpec(
        name="t", n_parties=3, criterion="cabello",
        photon_z=MeasSpec("spd", 0.9),
        photon_x=MeasSpec("sym", "eta_x", 0.0),
        params={"eta_x": ParamSpec.free(0.5, 1.0)},
    )
    first = optimize_free_parameters(spec, n_starts=8)
    second = optimize_free_parameters(spec, n_starts=8)
    assert first.margin == second.margin
    assert first.params == second.params


def test_has_violation_matches_margin_sign():
    assert has_violation(fix_parameter(damping_spec(), "eta", 0.8))
    assert not has_violation(fix_parameter(damping_spec(), "eta", 0.7))


@pytest.mark.parametrize("free", [False, True])
def test_has_violation_needs_margin_above_guard(monkeypatch, free):
    """One verdict rule: has_violation, at the start points and after the
    simplex, calls a margin a violation only where BellResult does."""
    spec = damping_spec() if free else fix_parameter(damping_spec(), "eta", 0.9)
    for margin, verdict in ((0.5 * VIOLATION_GUARD, False), (2.0 * VIOLATION_GUARD, True)):
        monkeypatch.setattr(search, "violation_margin", lambda spec, values: margin)
        assert has_violation(spec, n_starts=2) is verdict
        assert BellResult.make(1.0 + margin, 1.0, 2.0).violated is verdict


def pinned_preset(name, n, **pins):
    spec = PRESETS[name].build(n)
    for param, value in pins.items():
        spec = fix_parameter(spec, param, value)
    return spec


# Presets pinned about 0.05 below and above their thresholds, which at
# atol 0.02 read the same at 2 and 4 starts but for fig3: fig4-homodyne 0.961
# and fig4-displacement 0.914 at eta_c = 0.65, cabello-displacement 0.867,
# fig3 N=3 0.592 at 2 starts and 0.577 at 4.
VERDICT_CASES = [
    pinned_preset("fig4-homodyne", 2, eta_c=0.65, eta_spd=0.91),
    pinned_preset("fig4-homodyne", 2, eta_c=0.65, eta_spd=1.0),
    pinned_preset("fig4-displacement", 2, eta_c=0.65, eta_spd=0.86),
    pinned_preset("fig4-displacement", 2, eta_c=0.65, eta_spd=0.96),
    pinned_preset("cabello-displacement", 3, eta_spd=0.82),
    pinned_preset("cabello-displacement", 3, eta_spd=0.92),
    pinned_preset("fig3", 3, eta_spd=0.53),
    pinned_preset("fig3", 3, eta_spd=0.65),
]


@pytest.mark.parametrize("n_starts", [2, 4])
def test_a_verdict_that_stops_at_its_first_witness_matches_the_full_runs(n_starts):
    verdicts = []
    for spec in VERDICT_CASES:
        verdict = has_violation(spec, n_starts)
        assert verdict == is_violation(optimize_free_parameters(spec, n_starts).margin), spec.name
        verdicts.append(verdict)
    assert verdicts == [False, True] * 4


def test_a_simplex_run_of_a_verdict_stops_at_its_first_witness(monkeypatch):
    """No raw start of this violated point is a violation, so the verdict
    comes from a simplex run, and it takes fewer margins than the raw scan
    plus the same runs carried to their ends."""
    spec, n_starts = VERDICT_CASES[1], 2
    calls, margin = [], search.violation_margin

    def counting_margin(spec, values):
        calls.append(values)
        return margin(spec, values)

    monkeypatch.setattr(search, "violation_margin", counting_margin)
    names, starts = free_parameters(spec), search._start_points(spec, n_starts)
    raw = [margin(spec, resolve_values(spec, dict(zip(names, x0)))) for x0 in starts]
    assert not any(is_violation(m) for m in raw)
    assert has_violation(spec, n_starts)
    stopped = len(calls)
    calls.clear()
    for idx in np.argsort(np.array(raw), kind="stable")[::-1]:
        if is_violation(search._minimize_from(spec, starts[idx])[0]):
            break
    assert stopped < n_starts + len(calls)


def negative_margin(spec):
    """A search's objective on the free values in ``free_parameters(spec)`` order."""
    names = free_parameters(spec)
    return lambda x: -violation_margin(spec, resolve_values(spec, dict(zip(names, x))))


def free_box(spec):
    return [(spec.params[n].lo, spec.params[n].hi) for n in free_parameters(spec)]


def test_a_simplex_run_evaluates_each_margin_once(monkeypatch):
    """A run's margin calls equal scipy's nfev on the same run: it returns its
    best vertex, which lies in the box, with minus scipy's fun as its margin,
    and evaluates no margin again."""
    calls, margin = [], search.violation_margin

    def counting_margin(spec, values):
        calls.append(values)
        return margin(spec, values)

    for spec in (VERDICT_CASES[0], VERDICT_CASES[4], PRESETS["fig3"].build(3)):
        names, starts = free_parameters(spec), search._start_points(spec, 4)
        box = free_box(spec)
        nfevs = []
        for x0 in starts:
            res = scipy_simplex(negative_margin(spec), x0, box,
                                search.SIMPLEX_XATOL, search.SIMPLEX_FATOL)
            nfevs.append(res.nfev)
            with monkeypatch.context() as m:
                m.setattr(search, "violation_margin", counting_margin)
                calls.clear()
                best, x = search._minimize_from(spec, x0)
            assert len(calls) == res.nfev, spec.name
            assert best == -res.fun and x == res.x.tolist()
            assert all(lo <= v <= hi for v, (lo, hi) in zip(x, box))
            assert best == margin(spec, resolve_values(spec, dict(zip(names, x))))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(search, "violation_margin", counting_margin)
            optimize_free_parameters(spec, n_starts=4)
        assert len(calls) == sum(nfevs)


def bits(points):
    return [[float(v).hex() for v in p] for p in points]


def assert_simplex_is_scipys(func, x0, box):
    """The simplex evaluates scipy's points bit for bit and in scipy's order,
    and returns scipy's fun and x, or raises the same _Witness after the same
    points. Returns scipy's result, or None after a witness."""
    runs = []
    for minimize in (lambda f: search._simplex(f, list(x0), box),
                     lambda f: scipy_simplex(f, x0, box, search.SIMPLEX_XATOL,
                                             search.SIMPLEX_FATOL)):
        seen = []

        def recorded(x):
            seen.append(list(x))
            return func(list(x))

        try:
            runs.append((seen, minimize(recorded)))
        except search._Witness:
            runs.append((seen, None))
    (ours, result), (theirs, res) = runs
    assert bits(ours) == bits(theirs)
    assert (result is None) == (res is None)
    if res is not None:
        assert len(theirs) == res.nfev
        assert bits([[result[0]], result[1]]) == bits([[res.fun], res.x])
    return res


SIMPLEX_SPECS = VERDICT_CASES + [
    PRESETS["fig3"].build(3), PRESETS["fig4-homodyne"].build(2),
    PRESETS["fig4-displacement"].build(2), PRESETS["chsh-homodyne"].build(2),
    PRESETS["chsh-displacement"].build(2), PRESETS["fig2"].build(3),
    PRESETS["cabello-displacement"].build(3),
]


@pytest.mark.parametrize("spec", SIMPLEX_SPECS, ids=lambda s: f"{s.name}-{s.n_parties}")
def test_the_simplex_takes_scipys_steps_on_the_margins(spec):
    starts = search._start_points(spec, 4)
    for x0 in starts[:3]:
        assert_simplex_is_scipys(negative_margin(spec), x0, free_box(spec))


def test_the_simplex_takes_scipys_steps_to_a_witness():
    """has_violation's objective raises _Witness at its first violation:
    both simplexes raise it after the same points, from two of these four
    starts; the other two end without one."""
    spec = VERDICT_CASES[1]
    starts = search._start_points(spec, 4)
    objective = negative_margin(spec)

    def witnessing(x):
        f = objective(x)
        if is_violation(-f):
            raise search._Witness
        return f

    results = [assert_simplex_is_scipys(witnessing, x0, free_box(spec))
               for x0 in starts]
    assert [res is None for res in results] == [False, True, False, True]


def rosenbrock(x):
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x, x[1:]))


@pytest.mark.parametrize("func, x0, box", [
    (lambda x: 1.0, [0.3] * 5, [(0.0, 1.0)] * 5),  # every vertex ties
    (lambda x: float(math.floor(3 * x[0]) + math.floor(2 * x[1])), [0.2, 0.7, 0.1],
     [(0.0, 1.0)] * 3),  # flat steps
    (lambda x: sum((v - 0.3) ** 2 for v in x), [1.0, 0.5, 1.0],
     [(0.0, 1.0)] * 3),  # on the upper bound: the first simplex is reflected
    (lambda x: sum((v - 0.3) ** 2 for v in x), [0.0, 0.5, 0.0],
     [(-1.0, 1.0)] * 3),  # zero coordinates take the absolute step
    (sum, [0.0, 0.5, -0.0],
     [(-0.0, 1.0), (0.0, 1.0), (-0.0, 1.0)]),  # clipped onto signed zeros
    (lambda x: (x[0] - 0.2) ** 2, [0.9], [(0.0, 1.0)]),
], ids=["constant-5d", "step", "upper-bound", "zero-coordinate", "signed-zero", "1d"])
def test_the_simplex_takes_scipys_steps_on_edge_cases(func, x0, box):
    assert_simplex_is_scipys(func, x0, box)


def test_the_simplex_stops_at_its_cap_inside_a_shrink(monkeypatch):
    """With tolerances no run meets, a run spends its 200 N evaluations and
    the cap falls inside a shrink, which leaves a moved vertex unevaluated.
    In 5-D Rosenbrock scipy's final simplex keeps such a vertex with the
    value of the vertex it replaced. A constant in 4-D shrinks at every step,
    which takes N + 2 evaluations after the N + 1 of the first simplex:
    800 = 5 + 6 * 132 + 3 ends inside a shrink of tied vertices."""
    monkeypatch.setattr(search, "SIMPLEX_XATOL", 1e-300)
    monkeypatch.setattr(search, "SIMPLEX_FATOL", 1e-300)
    res = assert_simplex_is_scipys(rosenbrock, [-0.8, 0.9, 0.2, -0.8, -0.8], [(-2.0, 2.0)] * 5)
    assert res.nfev == 1000
    assert any(rosenbrock(x.tolist()) != f for x, f in zip(*res.final_simplex))
    assert assert_simplex_is_scipys(lambda x: 1.0, [0.3] * 4, [(0.0, 1.0)] * 4).nfev == 800


@pytest.mark.parametrize("d", range(1, 10))
def test_start_points_are_scipys_sobol_points(d):
    for n in [*range(1, 65), 1024]:
        assert search._sobol(d, n) == scipy_sobol(d, n).tolist(), (d, n)


def test_the_sobol_table_covers_the_most_free_parameters_a_spec_can_have():
    """Four device references and the five atom parameters, all free."""
    spec = ScenarioSpec(
        name="most-free", n_parties=2, criterion="chsh", atom=True,
        photon_z=MeasSpec("homodyne", "eta_z", "phase_z"),
        photon_x=MeasSpec("homodyne", "eta_x", "phase_x"),
        params={p: ParamSpec.free(0.0, 1.0) for p in
                ("eta_z", "eta_x", "phase_z", "phase_x", *search._ATOM_PARAMS)})
    names, starts = free_parameters(spec), search._start_points(spec, 8)
    assert len(names) == len(search._SOBOL_INIT) + 1 == 9
    assert starts == scipy_sobol(9, 8).tolist()


def test_rounding_noise_does_not_decide_the_bisection():
    # The shared-loss threshold at N=3 is exactly 3/4, where the margin is
    # zero up to rounding; that point must count as not violated.
    spec = damping_spec(3)
    at_root = fix_parameter(spec, "eta", 0.75)
    assert abs(violation_margin(at_root, {"eta": 0.75})) < VIOLATION_GUARD
    assert not has_violation(at_root)
    assert critical_efficiency(spec, "eta", (0.5, 1.0), atol=0.01) > 0.75


def test_bisection_finds_damping_threshold():
    for n in (3, 4, 5):
        root = critical_efficiency(damping_spec(n), "eta", (0.5, 0.99))
        assert root == pytest.approx(damping_threshold(n), abs=2.0 * BISECTION_ATOL)
    spec = damping_spec(3)
    root = critical_efficiency(spec, "eta", (0.5, 0.95))
    assert has_violation(fix_parameter(spec, "eta", root + 5e-4))
    assert not has_violation(fix_parameter(spec, "eta", root - 5e-4))


def test_bisection_bracket_errors():
    spec = damping_spec(3)
    with pytest.raises(BracketError) as err:
        critical_efficiency(spec, "eta", (0.8, 1.0))
    assert err.value.kind == "always"
    with pytest.raises(BracketError) as err:
        critical_efficiency(spec, "eta", (0.3, 0.5))
    assert err.value.kind == "never"
    with pytest.raises(ValueError):
        critical_efficiency(spec, "eta", (0.9, 0.9))
    for atol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            critical_efficiency(spec, "eta", (0.5, 0.99), atol=atol)


def test_bisection_stops_where_no_float_lies_between_the_ends(monkeypatch):
    """An atol below the float spacing at the root cannot be met; the
    bisection stops once the midpoint equals an end, after about as many
    steps as the mantissa has bits, and still returns the boundary. The
    pinned spec has no free parameter, so each verdict is one margin."""
    calls, margin = [], search.violation_margin

    def counting_margin(*args, **kwargs):
        calls.append(args)
        if len(calls) > 200:
            raise AssertionError("the bisection does not stop")
        return margin(*args, **kwargs)

    monkeypatch.setattr(search, "violation_margin", counting_margin)
    spec = damping_spec(3)
    for atol in (1e-17, 1e-300, 5e-324):
        calls.clear()
        root = critical_efficiency(spec, "eta", (0.5, 1.0), atol=atol)
        assert len(calls) <= 2 + 60, (atol, len(calls))
        # The verdict needs a margin above VIOLATION_GUARD, just past 3/4.
        assert 0.75 < root < 0.75 + 1e-8
    # An atol above the spacing ends on the width test: 2 ends + 13 steps.
    calls.clear()
    critical_efficiency(spec, "eta", (0.5, 1.0), atol=1e-4)
    assert len(calls) == 2 + 13


def chsh_theta_spec(**pins):
    """chsh-homodyne with the atom's angles pinned: violated for theta
    between about -1.353 and -0.218."""
    return pinned_preset("chsh-homodyne", 2, a_polar_0=3.8, a_polar_1=2.5, **pins)


CHSH_LO_VIOLATED = (-0.785, -0.001)  # a theta bracket whose violated end is lo

# (spec, param, bracket, atol, starts): the damping scheme, whose pinned spec
# has no free parameter, the search-small thresholds, and chsh-homodyne's
# theta with phi_x pinned (no free parameter; violated at lo, then at hi)
# and free.
ORACLE_BISECTIONS = [
    (damping_spec(3), "eta", (0.5, 1.0), BISECTION_ATOL, search.DEFAULT_STARTS),
    (PRESETS["cabello-displacement"].build(3), "eta_spd", (0.0, 1.0), BISECTION_ATOL, 4),
] + [(pinned_preset(preset, 2, eta_c=eta_c), "eta_spd", (0.5, 1.0), 0.02, 2)
     for eta_c in (0.65, 0.8) for preset in ("fig4-homodyne", "fig4-displacement")] + [
    (chsh_theta_spec(phi_x=math.pi), "theta", CHSH_LO_VIOLATED, 1e-3, 2),
    (chsh_theta_spec(phi_x=math.pi), "theta", (-1.5, -0.785), 1e-3, 2),
    (chsh_theta_spec(), "theta", CHSH_LO_VIOLATED, 1e-3, 2),
]


@pytest.mark.parametrize("spec, param, bracket, atol, n_starts", ORACLE_BISECTIONS,
                         ids=lambda v: getattr(v, "name", None))
def test_the_certified_bisection_returns_the_plain_bisections_float(
        spec, param, bracket, atol, n_starts):
    assert critical_efficiency(spec, param, bracket, atol, n_starts) == plain_bisection(
        spec, param, bracket, atol, n_starts)


@pytest.mark.parametrize("spec, bracket, atol, n_starts", [
    (PRESETS["cabello-displacement"].build(3), (0.0, 1.0), 0.01, 4),
    (pinned_preset("fig4-homodyne", 2, eta_c=0.8), (0.5, 1.0), 0.02, 2),
    (pinned_preset("fig4-displacement", 2, eta_c=0.65), (0.5, 1.0), 0.02, 2),
    (PRESETS["fig3"].build(3), (0.05, 1.0), 0.001, 4),
], ids=lambda v: getattr(v, "name", None))
def test_final_checks_vouch_for_every_provisional_verdict(monkeypatch, spec, bracket,
                                                           atol, n_starts):
    """With every warm step forced to miss, each verdict between the ends is
    a provisional "not violated", and only the final checks and the
    top-down recovery decide the threshold: still the plain bisection's."""
    misses = []
    monkeypatch.setattr(search, "_warm_witness", lambda spec, x0: misses.append(x0))
    got = critical_efficiency(spec, "eta_spd", bracket, atol, n_starts)
    assert misses
    assert got == plain_bisection(spec, "eta_spd", bracket, atol, n_starts)


def test_recoveries_below_a_violated_lo_keep_lo_violated(monkeypatch):
    """With every capped run forced to miss, each step below hi is a
    provisional miss, and each recovery that finds a witness makes its point
    the violated end and the miss before it the other end."""
    spec, bracket = chsh_theta_spec(), CHSH_LO_VIOLATED
    assert has_violation(fix_parameter(spec, "theta", bracket[0]), 2)
    monkeypatch.setattr(search, "_warm_witness", lambda spec, x0: None)
    assert critical_efficiency(spec, "theta", bracket, 1e-3, 2) == plain_bisection(
        spec, "theta", bracket, 1e-3, 2)


@pytest.mark.parametrize("theta", [-0.5, -0.1])
def test_a_capped_run_with_no_free_parameter_is_one_margin(margin_calls, theta):
    """_simplex reads a cap of 0 (20 margins times no parameter) as its
    default, so the run is its one evaluation and the verdict is the full
    check's: a witness at theta = -0.5, none at -0.1."""
    spec = chsh_theta_spec(phi_x=math.pi, theta=theta)
    witness = search._warm_witness(spec, [])
    assert len(margin_calls) == 1
    assert witness == search._find_witness(spec, 2) == ([] if theta == -0.5 else None)


@pytest.fixture
def full_checks(monkeypatch):
    """(eta_spd, whether a witness was found) of each full check."""
    checks, find = [], search._find_witness

    def counting_find(spec, n_starts):
        witness = find(spec, n_starts)
        checks.append((spec.params["eta_spd"].value, witness is not None))
        return witness

    monkeypatch.setattr(search, "_find_witness", counting_find)
    return checks


# fig4-homodyne at eta_c = 0.65 is violated above eta_spd ~0.961.
FIG4_065 = pinned_preset("fig4-homodyne", 2, eta_c=0.65)
ALWAYS_FIG4_065 = "criterion is violated on the whole bracket [0.98, 1] of 'eta_spd'"


def test_a_warm_witness_at_lo_ends_the_bisection_with_no_full_check_there(full_checks):
    with pytest.raises(BracketError) as err:
        critical_efficiency(FIG4_065, "eta_spd", (0.98, 1.0), 0.005, 2)
    assert (err.value.kind, str(err.value)) == ("always", ALWAYS_FIG4_065)
    assert full_checks == [(1.0, True)]


def test_a_recovery_that_pops_down_to_a_violated_lo_says_always(monkeypatch, full_checks):
    """With every warm run forced to miss, lo and each step are provisional;
    the recovery finds a witness at each, and only lo's full check, the last,
    shows the whole bracket violated. The message names the first bracket,
    as when a full check at lo came first."""
    monkeypatch.setattr(search, "_warm_witness", lambda spec, x0: None)
    with pytest.raises(BracketError) as err:
        critical_efficiency(FIG4_065, "eta_spd", (0.98, 1.0), 0.005, 2)
    assert (err.value.kind, str(err.value)) == ("always", ALWAYS_FIG4_065)
    assert (0.98, True) in full_checks and all(found for _, found in full_checks)


def test_a_threshold_pays_for_one_witness_free_full_check(full_checks):
    """hi's witness seeds a warm run at lo, so the certifying check at the
    last provisional point is the only full check that finds no witness."""
    assert critical_efficiency(FIG4_065, "eta_spd", (0.5, 1.0), 0.02, 2) == 0.9609375
    assert [value for value, found in full_checks if not found] == [0.953125]


@pytest.mark.parametrize("preset, n, want", [("garbarino3", 3, 0.0027771),
                                             ("fig5", 4, 2.0 / 3.0)])
def test_an_lp_threshold_does_not_stop_at_the_flat_local_region(preset, n, want):
    """The full start set at every step missed the thin violating band: the
    garbarino3 N=3 bisection read 0.0313, about 11 times its grid-scan
    value, and fig5 N=4 read 0.66702. The certified bisection finds the
    band, with warm runs from the newest witness and its final checks."""
    param, bracket = PRESETS[preset].threshold
    assert abs(critical_efficiency(PRESETS[preset].build(n), param, bracket) - want) < 1e-4


def two_efficiency_spec():
    return ScenarioSpec(
        name="t", n_parties=3, criterion="cabello",
        photon_z=MeasSpec("spd", "eta_z"),
        photon_x=MeasSpec("sym", "eta_x", 0.0),
        params={"eta_z": ParamSpec.free(0.01, 1.0),
                "eta_x": ParamSpec.free(0.01, 1.0)},
    )


def test_region_boundary_rows_do_not_depend_on_jobs():
    xs = [0.92, 0.96, 1.0]
    serial = region_boundary(two_efficiency_spec(), "eta_x", "eta_z", xs, (0.3, 1.0), jobs=1)
    parallel = region_boundary(two_efficiency_spec(), "eta_x", "eta_z", xs, (0.3, 1.0), jobs=2)
    assert serial.points == parallel.points
    assert all(status == "ok" for _, _, status in serial.points)


def test_region_boundary_starts_no_more_workers_than_rows(monkeypatch, pools):
    """The pool may start all of its workers at once, so a large job count
    on a short grid asks for one worker per row, or per CPU when there are
    fewer; one CPU, or a CPU count the system does not report, runs the rows
    in this process with no pool."""
    curves = []
    for cpus, jobs, expected in ((8, 1, []), (8, 10 ** 6, [3]), (8, 4, [3]), (8, 2, [2]),
                                 (2, 10 ** 6, [2]), (1, 10 ** 6, []), (None, 10 ** 6, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        curves.append(region_boundary(two_efficiency_spec(), "eta_x", "eta_z",
                                      [0.92, 0.96, 1.0], (0.3, 1.0), atol=0.01, jobs=jobs))
        assert pools == expected, (cpus, jobs)
    assert all(curve.points == curves[0].points for curve in curves)


def test_region_boundary_records_bracket_failures():
    curve = region_boundary(two_efficiency_spec(), "eta_x", "eta_z", [0.2], (0.3, 1.0))
    (x, y, status), = curve.points
    assert x == 0.2 and math.isnan(y) and status == "never"
    with pytest.raises(KeyError):
        region_boundary(two_efficiency_spec(), "bogus", "eta_z", [0.5], (0.3, 1.0))


def test_threshold_curve_csv_format():
    curve = region_boundary(two_efficiency_spec(), "eta_x", "eta_z", [1.0], (0.3, 1.0))
    text = curve.to_csv()
    lines = text.splitlines()
    assert lines[0] == "eta_x,eta_z,status"
    assert lines[1].startswith("1,0.") and lines[1].endswith(",ok")
    assert text.endswith("\n")
    value = float(lines[1].split(",")[1])
    assert value == pytest.approx(curve.points[0][1], abs=1e-9)


# The scenario path builds devices from the element functions of
# measure.FAMILIES and contracts the table unchecked. These tests pin it to
# the checked public path, bit for bit, and to closed forms written out here,
# and pin that it runs no check per evaluation.

FAMILY_ATOL = 1e-15


def composed_elements(ms, values):
    """One device's elements from its measure.FAMILIES element function."""
    def read(ref):
        return 0.0 if ref is None else values[ref] if isinstance(ref, str) else float(ref)

    elements = FAMILIES[ms.family][1](read(ms.eff), read(ms.aux))
    return elements[::-1] if ms.flip else elements


def composed_parties(spec, values):
    """Each party's (setting 0, setting 1) elements, the atom first, composed
    from measure.FAMILIES and search.atom_elements, not from the compiled spec."""
    photon = (composed_elements(spec.photon_z, values), composed_elements(spec.photon_x, values))
    first = search.atom_elements(values) if spec.atom else photon
    return [first] + [photon] * (spec.n_parties - 1)


def public_photon_povm(ms, values):
    """The checked public object behind one MeasSpec."""
    eff = values[ms.eff] if isinstance(ms.eff, str) else float(ms.eff)
    aux = values[ms.aux] if isinstance(ms.aux, str) else float(ms.aux or 0.0)
    povm = family_povm(ms.family, eff, aux)
    return POVM(povm.elements[::-1], povm.label) if ms.flip else povm


def closed_form_elements(family, eff, aux):
    """Each family's elements in outcome order, written out from the
    eigenprojectors of its axis: (+1, -1) of sigma_z, or of the equatorial
    cos(aux) sigma_x + sin(aux) sigma_y."""
    z_plus, z_minus = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    phase = np.exp(1j * aux)
    eq_plus = 0.5 * np.array([[1.0, np.conj(phase)], [phase, 1.0]])
    eq_minus = np.eye(2) - eq_plus

    def symmetric(e, plus=eq_plus, minus=eq_minus):
        return e * plus + (1.0 - e) * minus, e * minus + (1.0 - e) * plus

    def no_click(a):
        """The displaced counter's no-click element, Fock basis."""
        return math.exp(-eff * a * a) * np.array(
            [[1.0, eff * a], [eff * a, eff * eff * a * a + 1.0 - eff]])

    if family == "spd":
        return z_plus + (1.0 - eff) * z_minus, eff * z_minus
    if family == "sym":
        return symmetric(eff)
    if family == "homodyne":
        return symmetric(0.5 * (1.0 + math.sqrt(2.0 * eff / math.pi)))
    if family == "ad_x":
        return symmetric(0.5 * (1.0 + math.sqrt(eff)))
    if family == "displaced":
        return np.eye(2) - no_click(aux), no_click(aux)
    if family == "displaced_response":
        # The x eigenstates keep the displaced counter's click statistics.
        x_plus = 0.5 * np.ones((2, 2))
        x_minus = np.eye(2) - x_plus
        up = min(max(np.trace(x_minus @ no_click(aux)).real, 0.0), 1.0)
        down = min(max(1.0 - np.trace(x_plus @ no_click(aux)).real, 0.0), 1.0)
        return down * x_plus + (1.0 - up) * x_minus, up * x_minus + (1.0 - down) * x_plus
    plus, minus = (z_plus, z_minus) if family == "lossy3_z" else (eq_plus, eq_minus)
    return eff * plus, eff * minus, (1.0 - eff) * np.eye(2)


def test_family_elements_equal_the_public_builders_bit_for_bit():
    """For every family of measure.FAMILIES, its elements equal
    family_povm's bit for bit, and a closed form within FAMILY_ATOL."""
    rng = np.random.default_rng(11)
    assert set(FAMILIES) == {"spd", "sym", "homodyne", "displaced", "displaced_response",
                             "ad_x", "lossy3_z", "lossy3_x"}
    for family, (k, _) in FAMILIES.items():
        for flip in ((False, True) if k == 2 else (False,)):
            for _ in range(25):
                eff = float(rng.uniform(0.0, 1.0))
                aux = float(rng.uniform(-5.0, 5.0) if family.startswith("displaced")
                            else rng.uniform(0.0, 2.0 * math.pi))
                ms = MeasSpec(family, eff, aux, flip)
                trusted = composed_elements(ms, {})
                public = public_photon_povm(ms, {}).elements
                closed = closed_form_elements(family, eff, aux)
                if flip:
                    closed = closed[::-1]
                assert len(trusted) == len(public) == len(closed) == k
                for a, b, c in zip(trusted, public, closed):
                    np.testing.assert_array_equal(a, b)
                    np.testing.assert_allclose(a, c, atol=FAMILY_ATOL, rtol=0.0,
                                               err_msg=f"{family} {eff} {aux}")
                assert_valid_povm(trusted)
    for _ in range(25):
        values = {"eta_atom": float(rng.uniform(0.0, 1.0)),
                  "a_polar_0": float(rng.uniform(0.0, 2.0 * math.pi)),
                  "a_polar_1": float(rng.uniform(0.0, 2.0 * math.pi))}
        for s, trusted in enumerate(search.atom_elements(values)):
            public = efficiency_povm(BlochAxis(values[f"a_polar_{s}"], 0.0),
                                     values["eta_atom"], 1.0).elements
            for a, b in zip(trusted, public):
                np.testing.assert_array_equal(a, b)
            assert_valid_povm(trusted)


def random_in_box_values(spec, rng):
    return resolve_values(spec, {name: float(rng.uniform(spec.params[name].lo,
                                                         spec.params[name].hi))
                                 for name in free_parameters(spec)})


def test_scenario_tables_equal_the_checked_path_bit_for_bit():
    rng = np.random.default_rng(12)
    for name, preset in PRESETS.items():
        rule = CRITERIA[preset.spec.criterion]
        for n in (preset.spec.n_parties, preset.spec.n_parties + 1):
            if rule.max_parties is not None and n > rule.max_parties:
                continue
            spec = preset.build(n)
            for _ in range(3):
                values = random_in_box_values(spec, rng)
                photon = (public_photon_povm(spec.photon_z, values),
                          public_photon_povm(spec.photon_x, values))
                if spec.atom:
                    atom = tuple(efficiency_povm(BlochAxis(values[f"a_polar_{s}"], 0.0),
                                                 values["eta_atom"], 1.0) for s in range(2))
                    assignment = MeasurementAssignment((atom,) + (photon,) * (n - 1))
                else:
                    assignment = MeasurementAssignment.uniform(*photon, n)
                checked = joint_distribution(search.scenario_state(spec, values), assignment)
                trusted = scenario_distribution(spec, values)
                assert (trusted.n_parties, trusted.n_outcomes) == (n, rule.n_outcomes)
                np.testing.assert_array_equal(trusted.table, checked.table, err_msg=name)
                trusted.validate()


def test_scenario_tables_equal_the_dense_oracle_and_the_brute_force():
    """Every preset at every size from 1 to 6 it builds, the atom presets
    with a coupling below 1: the transfer-product table equals the dense
    site-tensor contraction to 1e-15, and so does the Kronecker brute force
    up to four parties."""
    rng = np.random.default_rng(18)
    for name, preset in PRESETS.items():
        rule = CRITERIA[preset.spec.criterion]
        fewest = max(rule.min_parties, 2 if preset.spec.atom else 1)
        for n in range(fewest, min(rule.max_parties or 6, 6) + 1):
            spec = preset.build(n)
            if spec.atom:
                spec = fix_parameter(spec, "eta_c", float(rng.uniform(0.0, 1.0)))
            values = random_in_box_values(spec, rng)
            state = search.scenario_state(spec, values)
            parties = composed_parties(spec, values)
            got = scenario_distribution(spec, values).table
            np.testing.assert_allclose(got, dense_distribution(state, parties).table,
                                       atol=1e-15, rtol=0.0, err_msg=f"{name} N={n}")
            if n <= 4:
                np.testing.assert_allclose(got, brute_force_distribution(state.rho, parties),
                                           atol=1e-15, rtol=0.0, err_msg=f"{name} N={n}")


def test_a_margin_evaluation_runs_no_device_or_table_check(monkeypatch):
    import wbell.measure as measure

    counts = {"elements": 0, "probabilities": 0, "validate": 0}
    check_elements, validate = measure._check_elements, JointDistribution.validate
    check_probability = measure._check_probability

    def counting_check(*args):
        counts["elements"] += 1
        return check_elements(*args)

    def counting_probability(**values):
        counts["probabilities"] += 1
        return check_probability(**values)

    def counting_validate(self):
        counts["validate"] += 1
        return validate(self)

    monkeypatch.setattr(measure, "_check_elements", counting_check)
    monkeypatch.setattr(measure, "_check_probability", counting_probability)
    monkeypatch.setattr(JointDistribution, "validate", counting_validate)
    rng = np.random.default_rng(13)
    for name, preset in PRESETS.items():
        spec = preset.spec
        counts.update(elements=0, probabilities=0, validate=0)
        violation_margin(spec, random_in_box_values(spec, rng))
        lp = CRITERIA[spec.criterion].lp
        assert counts == {"elements": 0, "probabilities": 0, "validate": 1 if lp else 0}, name
    # The counters see the public checks, so the zeros above are real.
    counts.update(elements=0, probabilities=0, validate=0)
    z, x = efficiency_povm(Z_AXIS, 0.9, 1.0), efficiency_povm(X_AXIS, 0.9, 0.9)
    joint_distribution(w_state(2), MeasurementAssignment.uniform(z, x, 2))
    assert counts == {"elements": 2, "probabilities": 2, "validate": 1}


# Closed-form criteria read the transfers of the single-excitation state,
# every photonic party on one device pair and one amplitude. These tests pin
# each symmetric evaluator to the general forms, the oracle's transfer-matrix
# correlators and the oracle's dense table read by the public functionals;
# pin the oracle's correlators to the checked table, the dense oracle and the
# Kronecker brute force; and pin that a margin evaluation builds no dense
# state.

CORRELATOR_ATOL = 1e-12
SYMMETRIC_ATOL = 1e-12

# The public functional that gives each closed form in general, and whether
# it reads the (2,)*N full correlators rather than the table.
GENERAL_FORMS = {"cabello": (cabello_value, False), "wwwzb": (wwwzb_value, True),
                 "mermin3": (mermin3_value, True), "chsh": (chsh_value, True)}


def checked_assignment(spec, values):
    """The checked public POVMs of a scenario, the atom first."""
    photon = (public_photon_povm(spec.photon_z, values),
              public_photon_povm(spec.photon_x, values))
    if not spec.atom:
        return MeasurementAssignment.uniform(*photon, spec.n_parties)
    atom = tuple(efficiency_povm(BlochAxis(values[f"a_polar_{s}"], 0.0),
                                 values["eta_atom"], 1.0) for s in range(2))
    return MeasurementAssignment((atom,) + (photon,) * (spec.n_parties - 1))


def closed_form_cases(rng):
    """(label, spec, values, state) over every closed-form preset from its
    fewest parties to 8, and fig3 at 10, with random in-box values, a
    coupling below 1 and a flipped device in some draws, state None for the
    scenario's own; then explicit spd/sym scenarios of every closed-form
    criterion on W, vacuum and damped W states."""
    for name, preset in PRESETS.items():
        rule = CRITERIA[preset.spec.criterion]
        if rule.lp:
            continue
        fewest = max(rule.min_parties, 2 if preset.spec.atom else 1)
        sizes = list(range(fewest, min(rule.max_parties or 8, 8) + 1))
        if name == "fig3":
            sizes.append(10)
        for n in sizes:
            for draw in range(3):
                spec = preset.build(n)
                if spec.atom and draw > 0:
                    spec = fix_parameter(spec, "eta_c", float(rng.uniform(0.0, 1.0)))
                if draw == 2:
                    spec = replace(spec, photon_x=replace(spec.photon_x, flip=True))
                yield f"{name} N={n} draw {draw}", spec, random_in_box_values(spec, rng), None
    for criterion, rule in CRITERIA.items():
        if rule.lp:
            continue
        for n in range(rule.min_parties, min(rule.max_parties or 8, 8) + 1):
            for eta in (1.0, 0.0, float(rng.uniform(0.0, 1.0))):
                x = MeasSpec("sym", float(rng.uniform(0.0, 1.0)),
                             float(rng.uniform(0.0, 2.0 * math.pi)), bool(rng.integers(2)))
                spec = ScenarioSpec("custom", n, criterion,
                                    MeasSpec("spd", float(rng.uniform(0.0, 1.0))), x)
                yield f"explicit {criterion} N={n} eta={eta}", spec, {}, damped_w_state(n, eta)


def test_correlators_equal_the_checked_dense_path():
    """The oracle's transfer-matrix correlators of every full-correlator case
    equal those of the checked table and of the dense oracle under the
    checked devices, and the Kronecker brute force at small N."""
    rng = np.random.default_rng(14)
    for label, spec, values, state in closed_form_cases(rng):
        if not GENERAL_FORMS[spec.criterion][1]:
            continue
        source = search.scenario_state(spec, values) if state is None else state
        got = excitation_correlators(source, composed_parties(spec, values))
        assignment = checked_assignment(spec, values)
        elements = [[p.elements for p in pair] for pair in assignment.parties]
        for checked in (joint_distribution(source, assignment),
                        dense_distribution(source, elements)):
            np.testing.assert_allclose(got, full_correlators(checked), atol=CORRELATOR_ATOL,
                                       rtol=0.0, err_msg=label)
        if spec.n_parties <= 4:
            brute = brute_force_correlators(source.rho, elements)
            np.testing.assert_allclose(got, brute, atol=CORRELATOR_ATOL, rtol=0.0,
                                       err_msg=label)


def test_symmetric_evaluators_equal_the_general_forms():
    """Every closed-form value, of the criterion's symmetric evaluator on the
    Symmetric form built here (and of scenario_result on the scenario's own
    state), equals within SYMMETRIC_ATOL its public functional on the
    oracle's dense table and, for a full-correlator criterion, on the
    oracle's correlators."""
    rng = np.random.default_rng(16)
    for label, spec, values, state in closed_form_cases(rng):
        functional, correlators = GENERAL_FORMS[spec.criterion]
        source = search.scenario_state(spec, values) if state is None else state
        parties = composed_parties(spec, values)
        table = dense_distribution(source, parties)
        if correlators:
            general = [full_correlators(table), excitation_correlators(source, parties)]
        else:
            general = [table]
        sym = symmetric_form(source, parties[0], parties[-1])
        results = [criterion_result(spec.criterion, sym)]
        if state is None:
            results.append(search.scenario_result(spec, values))
        for got in results:
            for data in general:
                want = functional(data)
                assert abs(got.value - want.value) <= SYMMETRIC_ATOL, (label, got, want)
                assert (got.local_bound, got.algebraic_max) == (want.local_bound,
                                                                want.algebraic_max)


def test_the_vacuum_result_equals_the_general_forms_on_the_dense_vacuum():
    """scenario_result(..., vacuum=True) of every closed-form case, atom
    presets included, equals within SYMMETRIC_ATOL the public functional on
    the oracle's dense table of the vacuum under the same devices; an LP
    criterion reads the scenario's own state only."""
    rng = np.random.default_rng(30)
    for label, spec, values, _ in closed_form_cases(rng):
        functional, correlators = GENERAL_FORMS[spec.criterion]
        table = dense_distribution(damped_w_state(spec.n_parties, 0.0),
                                   composed_parties(spec, values))
        want = functional(full_correlators(table) if correlators else table)
        got = search.scenario_result(spec, values, vacuum=True)
        assert abs(got.value - want.value) <= SYMMETRIC_ATOL, (label, got, want)
        assert (got.local_bound, got.algebraic_max) == (want.local_bound, want.algebraic_max)
    for name in ("fig5", "garbarino3"):
        spec = PRESETS[name].spec
        with pytest.raises(ValueError, match="vacuum"):
            search.scenario_result(spec, random_in_box_values(spec, rng), vacuum=True)


def test_public_functionals_evaluate_unequal_photon_amplitudes():
    """The dense table and the public functionals evaluate a state whose
    photonic parties have unequal amplitudes, which no Symmetric form holds."""
    beta = np.array([0.6, 0.5, 0.3])
    state = ExcitationState(beta / np.linalg.norm(beta))
    spd, sym = efficiency_povm(Z_AXIS, 0.9, 1.0), efficiency_povm(X_AXIS, 0.8, 0.8)
    table = joint_distribution(state, MeasurementAssignment.uniform(spd, sym, 3))
    for criterion in ("cabello", "wwwzb", "mermin3"):
        functional, correlators = GENERAL_FORMS[criterion]
        assert math.isfinite(functional(full_correlators(table) if correlators else table).value)


def test_a_correlator_margin_builds_no_dense_state(monkeypatch):
    """No margin, closed form or LP, and no scenario table reads the dense
    ``ExcitationState.rho``."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense path was taken")

    monkeypatch.setattr(ExcitationState, "rho", property(refuse))
    rng = np.random.default_rng(15)
    for name, preset in PRESETS.items():
        rule = CRITERIA[preset.spec.criterion]
        if rule.lp:
            sizes = (preset.spec.n_parties, rule.max_parties)
        elif rule.max_parties is None or rule.max_parties >= 40:
            sizes = (8, 40)
        else:
            sizes = (preset.spec.n_parties,)
        for n in sizes:
            spec = preset.build(n)
            values = random_in_box_values(spec, rng)
            margin = violation_margin(spec, values)
            assert math.isfinite(margin), (name, n)
            if n <= 8:
                scenario_distribution(spec, values).validate()
    # The refusals are real: negativity, the one reader of rho, trips them.
    with pytest.raises(AssertionError):
        dispatch(["negativity", "--theta", "-0.7", "--n", "3"])


def test_every_search_span_of_the_bench_tracer_resolves():
    """bench/tracer.py wraps names of wbell.search by attribute, and a name
    it cannot find leaves its span, and the per-layer metric it feeds, at
    zero: each one must exist. The table is read, not imported."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    table = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SPANS")
    spans = [(name, attr) for name, module, attr, _ in table if module == "wbell.search"]
    assert spans
    for name, attr in spans:
        assert callable(getattr(search, attr, None)), name


# A spec compiles its closed-form margin once (search._compile): its pinned
# devices and, without an atom, its amplitudes are built then, and a margin
# builds no ExcitationState and no BellResult. These tests pin that margin,
# bit for bit, to the one composed from the public pieces, and pin what a
# compiled spec keeps and for how long.

SYMMETRIC_EVALUATORS = {"cabello": cabello_symmetric, "wwwzb": wwwzb_symmetric,
                        "mermin3": mermin3_symmetric, "chsh": chsh_symmetric}


def composed_margin(spec, values):
    """The closed-form margin from public pieces: scenario_state, each
    device's FAMILIES element function, the Symmetric form built by
    oracles.symmetric_form, the symmetric evaluator and the local bound of
    the criterion's row."""
    parties = composed_parties(spec, values)
    sym = symmetric_form(search.scenario_state(spec, values), parties[0], parties[-1])
    return SYMMETRIC_EVALUATORS[spec.criterion](sym) - CRITERIA[spec.criterion].local_bound


def config_spec(criterion, n):
    """A photonic scenario read from config text, both devices literal."""
    text = (f"scenario.name = literal\nscenario.n_parties = {n}\n"
            f"scenario.criterion = {criterion}\n"
            "photon_z.family = spd\nphoton_z.eff = 0.83\n"
            "photon_x.family = sym\nphoton_x.eff = 0.91\nphoton_x.aux = 0.4\n"
            "photon_x.flip = true\n")
    return _scenario_from_keys(parse_config(text)[2])


def compiled_margin_cases():
    """(label, spec) over every closed-form preset from its fewest parties
    to 8 (fig3 also at 10), each also with a flipped x device and with its
    threshold parameter pinned; and each closed-form criterion from config
    text with literal devices, which then have no free parameter."""
    for name, preset in PRESETS.items():
        rule = CRITERIA[preset.spec.criterion]
        if rule.lp:
            continue
        fewest = max(rule.min_parties, 2 if preset.spec.atom else 1)
        sizes = list(range(fewest, min(rule.max_parties or 8, 8) + 1))
        if name == "fig3":
            sizes.append(10)
        param, (lo, hi) = preset.threshold
        for n in sizes:
            spec = preset.build(n)
            yield f"{name} N={n}", spec
            yield f"{name} N={n} flipped", replace(
                spec, photon_x=replace(spec.photon_x, flip=not spec.photon_x.flip))
            yield f"{name} N={n} {param} pinned", fix_parameter(spec, param, 0.5 * (lo + hi))
    for criterion, rule in CRITERIA.items():
        if not rule.lp:
            for n in sorted({rule.min_parties, min(rule.max_parties or 8, 8)}):
                yield f"config {criterion} N={n}", config_spec(criterion, n)


def test_compiled_margin_equals_the_public_composition_bit_for_bit():
    rng = np.random.default_rng(27)
    for label, spec in compiled_margin_cases():
        for _ in range(500 if free_parameters(spec) else 1):
            values = random_in_box_values(spec, rng)
            got, want = violation_margin(spec, values), composed_margin(spec, values)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
                label, values, got, want)
        # A reported result reads the margin's own Symmetric form.
        r = search.scenario_result(spec, values)
        assert r.value - r.local_bound == violation_margin(spec, values), label


def test_wwwzb_loop_equals_its_transfer_products_bit_for_bit():
    """wwwzb_symmetric writes out times and Symmetric.expectation; its sum
    equals the one those functions give, in the same order."""
    rng = np.random.default_rng(28)
    for label, spec in compiled_margin_cases():
        if spec.criterion != "wwwzb":
            continue
        for _ in range(50 if free_parameters(spec) else 1):
            values = random_in_box_values(spec, rng)
            parties = composed_parties(spec, values)
            sym = symmetric_form(search.scenario_state(spec, values), parties[0], parties[-1])
            first_even, first_odd = bell._harmonics(sym.first)
            even, odd = bell._harmonics(sym.other)
            want = 0.0
            for w in range(sym.n + 1):
                others = dist.times(dist.power(even, sym.n - w), dist.power(odd, w))
                want += math.comb(sym.n, w) * (abs(sym.expectation(first_even, others))
                                               + abs(sym.expectation(first_odd, others)))
            assert wwwzb_symmetric(sym) == want, (label, values)


def test_an_overflowing_literal_device_is_still_one_line(tmp_path):
    """A literal displacement of 1e200 is built once, when the spec
    compiles; its NaN elements still end the run in the finite check."""
    path = tmp_path / "overflow.cfg"
    path.write_text("scenario.name = t\nscenario.n_parties = 3\nscenario.criterion = cabello\n"
                    "photon_z.family = spd\nphoton_z.eff = 0.9\n"
                    "photon_x.family = displaced\nphoton_x.eff = 0.9\nphoton_x.aux = 1e200\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(["bell", "--config", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "wbell: error: t: cabello value nan is not finite at {}\n")


def test_a_pinned_device_is_built_once_per_spec(monkeypatch):
    """A whole multi-start search on one spec builds its pinned counter once;
    a free counter is built at every margin."""
    built, margins = [], []
    outcomes, spd = FAMILIES["spd"]
    monkeypatch.setitem(FAMILIES, "spd", (outcomes, lambda eff, aux: built.append(eff)
                                          or spd(eff, aux)))
    margin = search.violation_margin
    monkeypatch.setattr(search, "violation_margin",
                        lambda spec, values: margins.append(values) or margin(spec, values))
    free = PRESETS["fig4-homodyne"].build(2)
    optimize_free_parameters(fix_parameter(free, "eta_spd", 0.9), n_starts=4)
    assert built == [0.9] and len(margins) > 100
    built.clear()
    margins.clear()
    optimize_free_parameters(free, n_starts=1)
    assert len(built) == len(margins) > 10


def test_a_new_spec_compiles_afresh():
    """fix_parameter and dataclasses.replace give specs of their own, so a
    pin compiled into one spec never leaks into the next."""
    spec = PRESETS["cabello-homodyne"].build(3)
    at_half = fix_parameter(spec, "eta_spd", 0.5)
    half = violation_margin(at_half, resolve_values(at_half))
    repinned = fix_parameter(at_half, "eta_spd", 0.8)
    replaced = replace(at_half, params={"eta_spd": ParamSpec.fixed(0.8)})
    fresh = fix_parameter(PRESETS["cabello-homodyne"].build(3), "eta_spd", 0.8)
    want = violation_margin(fresh, resolve_values(fresh))
    assert want != half
    for other in (repinned, replaced):
        assert violation_margin(other, resolve_values(other)) == want
    assert violation_margin(at_half, resolve_values(at_half)) == half
    larger = replace(at_half, n_parties=4)
    assert violation_margin(larger, resolve_values(larger)) != half


def test_a_compiled_spec_still_pickles():
    """region --jobs sends pickled specs to its workers: a spec that has
    evaluated margins pickles to an equal spec, which compiles its own."""
    for name in ("fig3", "fig1", "fig5"):
        spec = PRESETS[name].spec
        values = random_in_box_values(spec, np.random.default_rng(5))
        margin = violation_margin(spec, values)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy is not spec
        assert violation_margin(copy, values) == margin


def value_bits(values):
    return [(name, type(v).__name__, float(v).hex()) for name, v in values.items()]


def test_the_compiled_box_is_the_declared_one_as_floats():
    """A spec compiles its search box once. For every preset at its default
    N, as built and with its first free parameter pinned, the box holds the
    declared (lo, hi) of free_parameters(spec) as floats, and a point's values
    are resolve_values' bit for bit, key order included. Integer bounds
    therefore search as floats: optimize_free_parameters reports float
    params, which print as they do with float bounds."""
    rng = np.random.default_rng(31)
    for name, preset in PRESETS.items():
        first = free_parameters(preset.spec)[0]
        declared = preset.spec.params[first]
        for spec in (preset.spec, fix_parameter(preset.spec, first,
                                                0.5 * (declared.lo + declared.hi))):
            names = free_parameters(spec)
            box, values = spec._compiled[3:]
            assert box == tuple((spec.params[n].lo, spec.params[n].hi) for n in names), name
            assert all(type(end) is float for pair in box for end in pair), name
            points = [[lo for lo, _ in box], [hi for _, hi in box]]
            points += [[float(rng.uniform(lo, hi)) for lo, hi in box] for _ in range(3)]
            for x in points:
                want = resolve_values(spec, dict(zip(names, x)))
                assert value_bits(values(x)) == value_bits(want), (name, x)
    printed = []
    for lo, hi in ((0, 1), (0.0, 1.0)):
        spec = ScenarioSpec("integer-bounds", 3, "cabello", MeasSpec("spd", "eta_z"),
                            MeasSpec("sym", "eta_x"),
                            params={"eta_z": ParamSpec(lo, hi), "eta_x": ParamSpec(lo, hi)})
        params = optimize_free_parameters(spec, n_starts=4).params
        assert all(type(v) is float for v in params.values()), params
        printed.append(json.dumps(params))
    assert printed[0] == printed[1] == '{"eta_z": 1.0, "eta_x": 0.0}'


def test_a_spec_is_freed_with_its_last_reference():
    """What a spec compiles refers no more to the spec, so a spec that has
    evaluated a margin (one per bisection step) dies at its last reference,
    not at the next cyclic collection: an atom, a photonic and an LP spec."""
    rng, alive = np.random.default_rng(29), []
    gc.disable()
    try:
        for name, pinned in (("fig3", True), ("cabello-homodyne", False), ("fig5", True)):
            preset = PRESETS[name]
            spec = preset.build(preset.spec.n_parties)  # not the spec the preset holds
            if pinned:
                param, (lo, hi) = preset.threshold
                spec = fix_parameter(spec, param, 0.5 * (lo + hi))
            violation_margin(spec, random_in_box_values(spec, rng))
            ref = weakref.ref(spec)
            del spec
            if ref() is not None:
                alive.append(name)
    finally:
        gc.enable()
    assert alive == []
