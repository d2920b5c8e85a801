"""The benchmark's checks accept right outputs and reject wrong ones.

Right outputs are built from ``reference``; each wrong one moves a single
number by a little more than its check allows. Run with
``python -m pytest bench`` from the repository root; wbell is not imported.
"""

import math

import pytest

import harness
import reference as ref
import workloads


def invocation(workload, prefix):
    matches = [inv for inv in workload.invocations if inv.label.startswith(prefix)]
    assert len(matches) == 1, prefix
    return matches[0]


def threshold_output(preset, n, param, value, extra=None):
    params = dict(extra or {}, **{param: value})
    out = {"command": "threshold", "scenario": preset, "n_parties": n, "param": param,
           "threshold": value, "params_at_threshold": params}
    if preset not in ("garbarino3", "fig5"):
        v, bound = ref.bell_value(preset, n, params)
        out["margin_at_threshold"] = v - bound
    return out


def bell_output(preset, n, params, value_shift=0.0):
    value, bound = ref.bell_value(preset, n, params)
    return {"command": "bell", "scenario": preset, "n_parties": n, "params": params,
            "value": value + value_shift, "margin": value - bound + value_shift}


def content_output(preset, n, params, weight_shift=0.0):
    rho, parties, _ = ref.scenario(preset, n, params)
    w = ref.local_weight(n, len(parties[0][0]), ref.distribution(rho, parties))
    w += weight_shift
    return {"command": "content", "scenario": preset, "n_parties": n,
            "local_weight": w, "nonlocal_content": 1.0 - w}


@pytest.fixture
def dense():
    return workloads.build("dense-large-n", 0, "work")


@pytest.fixture
def lp(tmp_path):
    return workloads.build("lp-content", 7, str(tmp_path))


def test_threshold_moved_by_two_points_is_rejected(dense, lp):
    check = invocation(dense, "threshold --preset cabello-ad --n 6").check
    right = ref.damping_threshold(6)
    assert check(threshold_output("cabello-ad", 6, "eta", right)) == []
    assert check(threshold_output("cabello-ad", 6, "eta", right + 0.02))

    check = invocation(lp, "threshold --preset garbarino3 --n 4").check
    extra = {"eta_z": 0.8}
    assert check(threshold_output("garbarino3", 4, "eta_x", 0.4, extra)) == []
    assert check(threshold_output("garbarino3", 4, "eta_x", 0.42, extra))

    small = workloads.build("search-small", 0, "work")
    check = invocation(small, "threshold --preset cabello-homodyne").check
    right = ref.HOMODYNE_THRESHOLD_N3
    assert check(threshold_output("cabello-homodyne", 3, "eta_spd", right)) == []
    assert check(threshold_output("cabello-homodyne", 3, "eta_spd", right + 0.02))


def test_threshold_with_a_wrong_margin_is_rejected(dense):
    check = invocation(dense, "threshold --preset fig1 --n 6").check
    out = threshold_output("fig1", 6, "eta_x", 0.9, {"eta_z": 1.0})
    assert check(out) == []
    out["margin_at_threshold"] += 1e-6
    assert check(out)


def test_value_off_by_a_millionth_is_rejected(dense):
    params = {"theta": -0.6, "eta_c": 1.0, "eta_atom": 1.0, "a_polar_0": 0.4,
              "a_polar_1": 2.1, "eta_spd": 0.8, "eta_hom": 1.0, "phi_x": 0.3}
    check = invocation(dense, "bell --preset fig3 --n 7").check
    assert check(bell_output("fig3", 7, params)) == []
    assert check(bell_output("fig3", 7, params, value_shift=1e-6))

    check = invocation(dense, "bell --inequality cabello --n 8 --ideal").check
    out = {"command": "bell", "scenario": "custom", "n_parties": 8,
           "value": ref.cabello_ideal(8)}
    assert check(out) == []
    out["value"] += 1e-6
    assert check(out)


def test_published_chsh_value_is_enforced():
    small = workloads.build("search-small", 0, "work")
    check = invocation(small, "bell --preset chsh-homodyne").check
    params = {"theta": -math.pi / 4, "eta_c": 1.0, "eta_atom": 1.0, "a_polar_0": 0.0,
              "a_polar_1": math.pi / 2, "eta_spd": 1.0, "eta_hom": 1.0, "phi_x": 0.0}
    problems = check(bell_output("chsh-homodyne", 2, params))
    assert problems and all("published" in p for p in problems)


def test_local_weight_off_by_a_millionth_is_rejected(lp, tmp_path):
    for preset in ("fig5", "garbarino3"):
        p = lp.draws[f"content {preset}"][0]
        check = invocation(lp, f"content --preset {preset} --n 3 --set eta_z={p['eta_z']} ").check
        assert check(content_output(preset, 3, p)) == []
        assert check(content_output(preset, 3, p, weight_shift=1e-6))

    p = lp.draws["dist-file garbarino3"]
    rho, parties, _ = ref.scenario("garbarino3", 3, p)
    table = ref.distribution(rho, parties)
    path = tmp_path / "garbarino3.dist"
    path.write_text("".join(f"{s} {o} {v!r}\n" for (s, o), v in table.items()))
    check = invocation(lp, f"content --dist-file {path}").check
    w = ref.local_weight(3, 3, table)
    assert check({"n_parties": 3, "n_outcomes": 3, "local_weight": w}) == []
    assert check({"n_parties": 3, "n_outcomes": 3, "local_weight": w + 1e-6})


def test_dumped_table_must_match_the_reference(lp, tmp_path):
    p = lp.draws["dist-file fig5"]
    check = invocation(lp, f"content --preset fig5 --n 3 --set eta_z={p['eta_z']} "
                           f"--set eta_x={p['eta_x']} --dump-dist").check
    rho, parties, _ = ref.scenario("fig5", 3, p)
    table = ref.distribution(rho, parties)
    text = "".join(f"{s} {o} {v!r}\n" for (s, o), v in table.items())
    assert check(text) == []
    first = next(iter(table))
    table[first] += 1e-6
    assert check("".join(f"{s} {o} {v!r}\n" for (s, o), v in table.items()))


def test_fig1_thresholds_out_of_order_are_rejected(dense):
    (labels, cross), = dense.cross_checks
    assert len(labels) == 3
    assert cross([{"threshold": t} for t in (0.90, 0.91, 0.92)]) == []
    assert cross([{"threshold": t} for t in (0.90, 0.92, 0.91)])
    assert cross([{"threshold": t} for t in (0.90, 0.90, 0.92)])


def test_swapped_crossover_is_rejected():
    small = workloads.build("search-small", 0, "work")
    (labels, cross), = small.cross_checks
    assert [label.split()[2] for label in labels] == [
        "fig4-homodyne", "fig4-displacement", "fig4-homodyne", "fig4-displacement"]
    right = (0.966, 0.915, 0.662, 0.744)
    assert cross([{"threshold": t} for t in right]) == []
    assert cross([{"threshold": t} for t in (0.915, 0.966, 0.662, 0.744)])
    assert cross([{"threshold": t} for t in (0.966, 0.915, 0.744, 0.662)])


def test_region_rows_off_the_line_are_rejected(lp):
    check = invocation(lp, "region --preset garbarino3").check
    xs = [0.5 + 0.0625 * i for i in range(9)]
    rows = [(x, ref.garbarino3_line(x) + 3e-5, "ok") for x in xs]
    rows[0] = (0.5, math.nan, "never")
    assert check(rows) == []
    moved = list(rows)
    moved[4] = (xs[4], ref.garbarino3_line(xs[4]) + 0.02, "ok")
    assert check(moved)
    stray = list(rows)
    stray[4] = (xs[4], math.nan, "never")
    assert check(stray)


def test_malformed_dist_file_counts_as_failed_until_reported_in_one_line(lp):
    bad = lp.invocations[-1]
    assert bad.expect_rc == 1 and "settings-digit-2" in bad.label

    def escapes(argv):
        raise IndexError("index 2 is out of bounds for axis 0 with size 2")

    def traceback_then_exit(argv):
        import sys
        print("Traceback (most recent call last):\nIndexError: 2", file=sys.stderr)
        return 1

    def one_line(argv):
        import sys
        print("wbell: error: settings digit 2 in distribution text", file=sys.stderr)
        return 1

    def accepted(argv):
        return 0

    assert "IndexError" in harness.failure(bad, harness.invoke(escapes, bad.argv))
    assert harness.failure(bad, harness.invoke(traceback_then_exit, bad.argv))
    assert harness.failure(bad, harness.invoke(accepted, bad.argv))
    assert harness.failure(bad, harness.invoke(one_line, bad.argv)) is None


def test_cross_checks_skip_failed_outputs():
    small = workloads.build("search-small", 0, "work")

    def broken(argv):
        return 2

    outcomes, probes = harness.run_round(broken, small.invocations, lambda: 0.05)
    assert len(probes) == len(outcomes) + 1
    failures, problems = harness.check_round(small, outcomes)
    assert len(failures) == len(small.invocations)
    assert problems == []


def test_seed_draws_the_lp_points_and_nothing_else(tmp_path):
    a = workloads.build("lp-content", 3, str(tmp_path))
    b = workloads.build("lp-content", 3, str(tmp_path))
    c = workloads.build("lp-content", 4, str(tmp_path))
    assert [i.argv for i in a.invocations] == [i.argv for i in b.invocations]
    assert [i.argv for i in a.invocations] != [i.argv for i in c.invocations]
    assert len(a.invocations) == len(c.invocations)
    for name in ("search-small", "dense-large-n"):
        assert ([i.argv for i in workloads.build(name, 1, "w").invocations]
                == [i.argv for i in workloads.build(name, 2, "w").invocations])
