"""End-to-end acceptance checks.

Every test prints one summary line per criterion (run ``pytest -s`` to see
them all at once). The whole file takes a few minutes; the heavyweight
pieces are the 20x20 locality grids and the atom-photon threshold ladders.

One sub-check is a known miss and is kept as a strict xfail rather than
widened into a pass: the optimal atom-photon mixing angle for the
three-party homodyne scheme lands at -0.725 rad, just outside the quoted
window -0.78 +/- 0.05. The matching quoted negativity 0.993 equals
|sin(2 theta)| at -0.725, not at -0.78, so the computed angle is kept and
the window assertion fails honestly. README's acceptance section tells the
same story.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from wbell.bell import cabello_value, wwwzb_value
from wbell.cli import PRESETS
from wbell.dist import JointDistribution, MeasurementAssignment, joint_distribution
from wbell.measure import X_AXIS, Z_AXIS, efficiency_povm, family_povm
from wbell.polytope import nonlocal_content
from wbell.qmat import negativity
from wbell.search import (
    critical_efficiency,
    fix_parameter,
    has_violation,
    optimize_free_parameters,
    scenario_distribution,
)
from wbell.states import atom_photon_state, damped_w_state, w_state

from oracles import (
    damping_threshold,
    enumerate_vertices,
    fock_noclick_block,
    full_correlators,
    nonlocal_content_lower_bound,
)

CLOSED_FORM_ATOL = 1e-10
THRESHOLD_ATOL = 1e-3
PERCENT_POINT = 0.01
THETA_WINDOW = (-0.78 - 0.05, -0.78 + 0.05)
NEGATIVITY_WINDOW = (0.993 - 0.005, 0.993 + 0.005)


def report(criterion, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n{criterion}: {'PASS' if ok else 'FAIL'}{tail}")


def ideal_distribution(n):
    z = efficiency_povm(Z_AXIS, 1.0, 1.0)
    x = efficiency_povm(X_AXIS, 1.0, 1.0)
    return joint_distribution(w_state(n), MeasurementAssignment.uniform(z, x, n))


@functools.lru_cache(maxsize=None)
def fig3_threshold(n):
    spec = PRESETS["fig3"].build(n)
    return critical_efficiency(spec, "eta_spd", (0.05, 1.0), n_starts=8)


@functools.lru_cache(maxsize=None)
def fig3_optimum_at_threshold(n):
    """Full parameter assignment just above the critical efficiency."""
    spec = PRESETS["fig3"].build(n)
    pinned = fix_parameter(spec, "eta_spd", fig3_threshold(n) + 5e-4)
    return optimize_free_parameters(pinned, n_starts=16)


def test_ac1_closed_form_bell_values():
    t0 = time.time()
    failures = []
    for n in range(3, 9):
        z = efficiency_povm(Z_AXIS, 1.0, 1.0)
        x = efficiency_povm(X_AXIS, 1.0, 1.0)
        assignment = MeasurementAssignment.uniform(z, x, n)
        ideal = cabello_value(joint_distribution(w_state(n), assignment)).value
        vacuum = cabello_value(
            joint_distribution(damped_w_state(n, 0.0), assignment)).value
        want_ideal = 1.0 - n / 2.0 ** (n - 1)
        want_vacuum = 1.0 - n * (n - 1) / 4.0 - 2.0 ** (1 - n)
        if abs(ideal - want_ideal) > CLOSED_FORM_ATOL:
            failures.append(f"ideal N={n}")
        if abs(vacuum - want_vacuum) > CLOSED_FORM_ATOL:
            failures.append(f"vacuum N={n}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 1.0
    report("AC1 closed-form single-excitation Bell values", ok,
           f"{elapsed:.2f}s" if ok else "; ".join(failures) or f"{elapsed:.2f}s")
    assert not failures
    assert elapsed < 1.0


def test_ac2_common_loss_threshold_closed_form():
    worst = 0.0
    for n in range(3, 9):
        spec = PRESETS["cabello-ad"].build(n)
        root = critical_efficiency(spec, "eta", (0.5, 0.99))
        worst = max(worst, abs(root - damping_threshold(n)))
    ok = worst <= THRESHOLD_ATOL
    report("AC2 shared-loss critical efficiency vs closed form, N=3..8", ok,
           f"max deviation {worst:.1e}")
    assert worst <= THRESHOLD_ATOL


def test_ac3_published_thresholds():
    checks = []

    spec = PRESETS["cabello-homodyne"].build(3)
    hom = critical_efficiency(spec, "eta_spd", (0.0, 1.0))
    checks.append(("homodyne N=3", abs(hom - 0.863) <= PERCENT_POINT))

    spec = PRESETS["cabello-displacement"].build(3)
    disp = critical_efficiency(spec, "eta_spd", (0.0, 1.0), n_starts=8)
    checks.append(("displacement N=3", abs(disp - 0.864) <= PERCENT_POINT))

    www = {n: critical_efficiency(PRESETS["wwwzb-homodyne"].build(n),
                                  "eta_spd", (0.1, 1.0))
           for n in range(3, 8)}
    checks.append(("full-correlator best near 85%",
                   abs(www[4] - 0.85) <= PERCENT_POINT))
    checks.append(("full-correlator best at N=4",
                   www[4] <= min(www.values()) + 1e-6))

    two = fig3_threshold(2)
    checks.append(("atom-photon N=2 near 37%", abs(two - 0.37) <= PERCENT_POINT))
    theta2 = fig3_optimum_at_threshold(2).params["theta"]
    checks.append(("atom-photon N=2 weakly entangled", -0.15 < theta2 < 0.0))

    three = fig3_threshold(3)
    checks.append(("atom-photon N=3 near 55%",
                   abs(three - 0.55) <= PERCENT_POINT))
    theta3 = fig3_optimum_at_threshold(3).params["theta"]
    neg = negativity(atom_photon_state(theta3, 1.0, 2).rho, 0)
    checks.append(("negativity at the optimal angle",
                   NEGATIVITY_WINDOW[0] <= neg <= NEGATIVITY_WINDOW[1]))

    bad = [name for name, ok in checks if not ok]
    report("AC3 single-photon and atom-photon thresholds",
           not bad,
           "; ".join(bad) if bad
           else f"theta window checked separately, angle {theta3:.4f}")
    assert not bad


@pytest.mark.xfail(
    strict=True,
    reason="the computed optimal angle is -0.725 rad, outside the quoted "
           "-0.78 +/- 0.05 window; the quoted negativity 0.993 matches "
           "|sin(2 theta)| at -0.725, so the computed angle is kept")
def test_ac3_theta_window():
    theta = fig3_optimum_at_threshold(3).params["theta"]
    report("AC3 quoted angle window for the three-party optimum",
           THETA_WINDOW[0] <= theta <= THETA_WINDOW[1],
           f"computed {theta:.4f}, window [{THETA_WINDOW[0]:.2f}, "
           f"{THETA_WINDOW[1]:.2f}]")
    assert THETA_WINDOW[0] <= theta <= THETA_WINDOW[1]


def test_ac4_two_party_scheme_values_and_crossover():
    checks = []
    hom = optimize_free_parameters(PRESETS["chsh-homodyne"].build(2),
                                   n_starts=16).margin + 2.0
    disp = optimize_free_parameters(PRESETS["chsh-displacement"].build(2),
                                    n_starts=16).margin + 2.0
    checks.append(("homodyne value 2.56", abs(hom - 2.56) <= 0.01))
    checks.append(("displacement value 2.64", abs(disp - 2.64) <= 0.01))

    def threshold(name, eta_c):
        spec = fix_parameter(PRESETS[name].build(2), "eta_c", eta_c)
        return critical_efficiency(spec, "eta_spd", (0.05, 1.0), n_starts=8)

    low_h, low_d = threshold("fig4-homodyne", 0.65), threshold("fig4-displacement", 0.65)
    high_h, high_d = threshold("fig4-homodyne", 0.8), threshold("fig4-displacement", 0.8)
    checks.append(("displacement ahead at 65% coupling", low_d < low_h))
    checks.append(("homodyne ahead at 80% coupling", high_h < high_d))

    bad = [name for name, ok in checks if not ok]
    report("AC4 two-party scheme values and lossy-device crossover",
           not bad,
           "; ".join(bad) if bad
           else f"values {hom:.4f}/{disp:.4f}, thresholds "
                f"{low_h:.3f}/{low_d:.3f} and {high_h:.3f}/{high_d:.3f}")
    assert not bad


def classification_grid(n):
    """(disagreements, excluded) for the 20x20 detector-quality grid."""
    spec = PRESETS["fig5"].build(n)
    disagreements = excluded = 0
    for eta_z in np.linspace(0.0, 1.0, 20):
        for eta_x in np.linspace(0.5, 1.0, 20):
            p = scenario_distribution(
                spec, {"eta_z": float(eta_z), "eta_x": float(eta_x)})
            w = wwwzb_value(full_correlators(p)).value
            if abs(w - 1.0) < 1e-6:
                excluded += 1
                continue
            lp_nonlocal = nonlocal_content(p).nonlocal_content > 1e-6
            if lp_nonlocal != (w > 1.0):
                disagreements += 1
    return disagreements, excluded


def test_ac5_polytope_consistency():
    checks = []
    for n in (3, 4):
        disagreements, excluded = classification_grid(n)
        checks.append((f"N={n} grid agreement ({excluded} near-boundary "
                       f"points excluded)", disagreements == 0))

    spec5 = fix_parameter(PRESETS["fig5"].build(5), "eta_x", 1.0)
    critical = critical_efficiency(spec5, "eta_z", (0.2, 0.6))
    checks.append(("N=5 critical eta_z near 1/3", abs(critical - 0.33) <= 0.02))

    p = scenario_distribution(PRESETS["fig5"].build(5),
                              {"eta_z": 7.0 / 19.0, "eta_x": 1.0})
    w = wwwzb_value(full_correlators(p)).value
    q = nonlocal_content(p).nonlocal_content
    checks.append(("N=5 point beyond the full-correlator region",
                   w <= 1.0 and q > 1e-6))

    bad = [name for name, ok in checks if not ok]
    report("AC5 locality LP vs full-correlator classification", not bad,
           "; ".join(bad) if bad else f"N=5 critical eta_z {critical:.4f}")
    assert not bad


def test_ac6_three_outcome_boundary_line():
    checks = []
    for n, etas in ((3, (0.55, 0.75, 0.9, 0.97)), (4, (0.6, 0.8, 0.95))):
        worst = 0.0
        for eta_z in etas:
            spec = fix_parameter(PRESETS["garbarino3"].build(n), "eta_z", eta_z)
            root = critical_efficiency(spec, "eta_x", (0.01, 1.0))
            worst = max(worst, abs(root - 2.0 * (1.0 - eta_z)))
        checks.append((f"N={n} boundary on the line (worst {worst:.1e})",
                       worst <= 0.01))
        spec = PRESETS["garbarino3"].build(n)
        spec = fix_parameter(spec, "eta_z", 1.0 - 1e-4)
        spec = fix_parameter(spec, "eta_x", 0.01)
        checks.append((f"N={n} violation at eta_x=0.01", has_violation(spec)))

    bad = [name for name, ok in checks if not ok]
    report("AC6 loss-flagging three-outcome boundary", not bad,
           "; ".join(bad) if bad else "eta_x = 2(1 - eta_z) on all samples")
    assert not bad


def test_ac7_oracle_and_property_suites():
    t0 = time.time()
    checks = []

    worst = 0.0
    for alpha in (-1.5, -0.4, 0.6, 1.8):
        for eta in (0.35, 0.8, 1.0):
            got = family_povm("displaced", eta, alpha).elements[1]
            worst = max(worst, np.max(np.abs(got - fock_noclick_block(alpha, eta))))
    checks.append(("displaced counter vs truncated-mode oracle", worst <= 1e-10))

    eta = 0.7
    e = 0.5 * (1.0 + math.sqrt(eta))
    lossy = joint_distribution(
        w_state(3),
        MeasurementAssignment.uniform(
            efficiency_povm(Z_AXIS, eta, 1.0),
            efficiency_povm(X_AXIS, e, e), 3))
    damped = joint_distribution(
        damped_w_state(3, eta),
        MeasurementAssignment.uniform(
            efficiency_povm(Z_AXIS, 1.0, 1.0),
            efficiency_povm(X_AXIS, 1.0, 1.0), 3))
    checks.append(("measurement-error model equals damped state",
                   np.max(np.abs(lossy.table - damped.table)) <= 1e-11))

    lhv_ok = True
    det_ok = True
    for n in (3, 4):
        for vertex in enumerate_vertices(n, 2):
            p = JointDistribution(n, 2, vertex.table(2))
            if cabello_value(p).value > 1e-12:
                lhv_ok = False
            if wwwzb_value(full_correlators(p)).value != 1.0:
                det_ok = False
    checks.append(("single-excitation criterion on all deterministic "
                   "strategies", lhv_ok))
    checks.append(("full-correlator aggregate is exactly 1 on them", det_ok))

    bound_ok = True
    for n, eta_z in itertools.product((3, 4), (0.85, 1.0)):
        p = scenario_distribution(PRESETS["fig5"].build(n),
                                  {"eta_z": eta_z, "eta_x": 1.0})
        lower = nonlocal_content_lower_bound(cabello_value(p))
        if nonlocal_content(p).nonlocal_content < lower - 1e-7:
            bound_ok = False
    checks.append(("content dominates the linear lower bound", bound_ok))

    elapsed = time.time() - t0
    bad = [name for name, ok in checks if not ok]
    ok = not bad and elapsed < 60.0
    report("AC7 oracle and property spot checks", ok,
           "; ".join(bad) if bad else f"{elapsed:.1f}s")
    assert not bad
    assert elapsed < 60.0


def test_ac8_threshold_orderings():
    fig1 = []
    for n in range(3, 9):
        spec = fix_parameter(PRESETS["fig1"].build(n), "eta_z", 1.0)
        fig1.append(critical_efficiency(spec, "eta_x", (0.5, 1.0)))
    fig1_ok = all(a < b for a, b in zip(fig1, fig1[1:]))

    fig3 = [fig3_threshold(n) for n in (2, 4, 6, 8)]
    fig3_ok = all(a < b for a, b in zip(fig3, fig3[1:]))

    report("AC8 thresholds ordered upward in the mode count",
           fig1_ok and fig3_ok,
           f"fig1 {', '.join(f'{v:.3f}' for v in fig1)}; "
           f"fig3 {', '.join(f'{v:.3f}' for v in fig3)}")
    assert fig1_ok
    assert fig3_ok
