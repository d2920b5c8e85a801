"""LHV polytope membership and the EPR2 decomposition LP."""

import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import scipy.optimize

import wbell.polytope
import wbell.search
from oracles import enumerate_vertices, enumerated_local_weight, nonlocal_content_lower_bound
from wbell.bell import cabello_value, is_violation
from wbell.cli import PRESETS, dispatch
from wbell.dist import JointDistribution, MeasurementAssignment, joint_distribution
from wbell.measure import X_AXIS, Z_AXIS, efficiency_povm, family_povm
from wbell.polytope import (
    FACE_GAP,
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    LPError,
    _certify,
    _orbit_matrix,
    _party_classes,
    nonlocal_content,
    reusing_faces,
    solve_lp,
)
from wbell.search import (
    BracketError,
    critical_efficiency,
    fix_parameter,
    has_violation,
    optimize_free_parameters,
    scenario_distribution,
)
from wbell.states import damped_w_state, w_state

LP_ATOL = 1e-8
LOCAL_WEIGHT_TOL = 1e-8


def is_local(p):
    """True when the local weight reaches 1 - LOCAL_WEIGHT_TOL."""
    return nonlocal_content(p).local_weight >= 1.0 - LOCAL_WEIGHT_TOL


def ideal_distribution(n):
    z = efficiency_povm(Z_AXIS, 1.0, 1.0)
    x = efficiency_povm(X_AXIS, 1.0, 1.0)
    return joint_distribution(w_state(n), MeasurementAssignment.uniform(z, x, n))


def pr_box():
    """Maximally nonlocal two-party box: outcomes satisfy a XOR b = s.t."""
    table = np.zeros((2, 2, 2, 2))
    for s, t, a, b in itertools.product(range(2), repeat=4):
        if (a ^ b) == (s & t):
            table[s, t, a, b] = 0.5
    return JointDistribution(2, 2, table)


def test_vertex_counts():
    assert len(enumerate_vertices(2, 2)) == 16
    assert len(enumerate_vertices(3, 2)) == 64
    assert len(enumerate_vertices(3, 3)) == 729


def test_vertex_distribution_is_deterministic_and_valid():
    for vertex in enumerate_vertices(2, 2):
        dist = JointDistribution(2, 2, vertex.table(2))
        dist.validate()
        assert set(np.unique(dist.table)) <= {0.0, 1.0}


def test_vertices_have_zero_content():
    for vertex in enumerate_vertices(2, 2):
        dist = JointDistribution(2, 2, vertex.table(2))
        res = nonlocal_content(dist)
        assert res.nonlocal_content == pytest.approx(0.0, abs=LP_ATOL)
        assert is_local(dist)


def test_pr_box_content_is_one():
    res = nonlocal_content(pr_box())
    assert res.nonlocal_content == pytest.approx(1.0, abs=LP_ATOL)
    assert not is_local(pr_box())


def test_uniform_noise_is_local():
    table = np.full((2, 2, 2, 2), 0.25)
    res = nonlocal_content(JointDistribution(2, 2, table))
    assert res.local_weight == pytest.approx(1.0, abs=LP_ATOL)


def test_content_decomposition_weights_are_consistent():
    res = nonlocal_content(ideal_distribution(3))
    assert 0.0 < res.nonlocal_content < 1.0
    assert res.local_weight + res.nonlocal_content == pytest.approx(1.0, abs=1e-12)
    # The certificate is the optimal local mixture; its weights sum to the
    # local weight and every piece is nonnegative.
    assert res.certificate.min() >= -1e-12
    assert res.certificate.sum() == pytest.approx(res.local_weight, abs=LP_ATOL)


def test_content_dominates_linear_lower_bound():
    for n in (3, 4):
        p = ideal_distribution(n)
        lower = nonlocal_content_lower_bound(cabello_value(p))
        assert nonlocal_content(p).nonlocal_content >= lower - 1e-7


def test_content_is_convex_in_the_distribution():
    p = ideal_distribution(3)
    vertex = JointDistribution(3, 2, enumerate_vertices(3, 2)[17].table(2))
    nc_p = nonlocal_content(p).nonlocal_content
    for lam in (0.25, 0.5, 0.75):
        mixed = JointDistribution(3, 2, lam * p.table + (1.0 - lam) * vertex.table)
        nc_mix = nonlocal_content(mixed).nonlocal_content
        assert nc_mix <= lam * nc_p + 1e-8


def test_content_caps_on_party_count():
    with pytest.raises(ValueError):
        nonlocal_content(ideal_distribution(6))
    table = np.full((2,) * 5 + (3,) * 5, 1.0 / 3.0 ** 5)
    with pytest.raises(ValueError):
        nonlocal_content(JointDistribution(5, 3, table))
    table4 = np.full((2, 2, 4, 4), 1.0 / 16.0)
    with pytest.raises(ValueError):
        nonlocal_content(JointDistribution(2, 4, table4))


def test_solve_lp_calls_linprog_through_the_module_global(monkeypatch):
    """The benchmark tracer wraps ``polytope.linprog`` in the module's
    globals, reads the matrix from the ``A_ub`` keyword and the iteration
    count from ``nit``: solve_lp must honour all three."""
    p = ideal_distribution(3)
    expected = nonlocal_content(p).nonlocal_content
    calls, forward = [], wbell.polytope.linprog

    def recording(*args, **kwargs):
        result = forward(*args, **kwargs)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(wbell.polytope, "linprog", recording)
    assert [nonlocal_content(p).nonlocal_content for _ in range(2)] == [expected] * 2
    assert len(calls) == 2
    for kwargs, result in calls:
        assert kwargs["A_ub"].shape[0] == len(kwargs["b_ub"])
        assert isinstance(result.nit, int) and result.nit >= 0


def test_solve_lp_simple_problem():
    # max x + y subject to x + y <= 1 and x, y >= 0.
    value, x, y = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx([1.0], abs=1e-12)   # the row's dual, with sign y >= 0


def test_solve_lp_infeasible():
    # No content LP is infeasible (b >= 0 admits x = 0); any HiGHS failure is an LPError.
    with pytest.raises(LPError, match="infeasible"):
        solve_lp(np.array([[1.0]]), np.array([-1.0]))


def test_solve_lp_unbounded():
    # No content LP is unbounded (every column has a positive entry).
    with pytest.raises(LPError, match="unbounded"):
        solve_lp(np.zeros((1, 1)), np.array([1.0]))


def preset_table(preset, n, eta_z, eta_x):
    spec = PRESETS[preset].build(n)
    return scenario_distribution(spec, {"eta_z": eta_z, "eta_x": eta_x})


def w_with_devices(etas, n_outcomes=2):
    """W state, party i measuring with efficiency etas[i] on both settings."""
    if n_outcomes == 2:
        pairs = tuple((efficiency_povm(Z_AXIS, e, 1.0), efficiency_povm(X_AXIS, e, e))
                      for e in etas)
    else:
        pairs = tuple((family_povm("lossy3_z", e), family_povm("lossy3_x", e))
                      for e in etas)
    return joint_distribution(w_state(len(etas)), MeasurementAssignment(pairs))


def vertex_mixture(n, k, seed, with_w=0.0):
    """A seeded convex mixture of five vertices, optionally with the ideal W table."""
    rng = np.random.default_rng(seed)
    vertices = enumerate_vertices(n, k)
    picks = rng.choice(len(vertices), size=5, replace=False)
    weights = rng.dirichlet(np.ones(5))
    table = sum(w * vertices[i].table(k) for w, i in zip(weights, picks))
    if with_w:
        table = with_w * ideal_distribution(n).table + (1.0 - with_w) * table
    return JointDistribution(n, k, table)


def spread_certificate(certificate, classes, k):
    """Orbit weights spread evenly over each orbit's vertices, indexed like
    ``enumerate_vertices``."""
    n = sum(len(members) for members in classes)
    orbit_index = [{o: i for i, o in enumerate(
        itertools.combinations_with_replacement(range(k * k), len(members)))}
        for members in classes]
    q = np.zeros((k * k) ** n)
    for v, strategies in enumerate(itertools.product(range(k * k), repeat=n)):
        col, share = 0, 1.0
        for members, index in zip(classes, orbit_index):
            chosen = tuple(strategies[i] for i in members)
            col = col * len(index) + index[tuple(sorted(chosen))]
            share /= len(set(itertools.permutations(chosen)))
        q[v] = certificate[col] * share
    return q


SYMMETRIC = ((0, 1, 2),)
ATOM_LIKE_3, ATOM_LIKE_4 = ((0,), (1, 2)), ((0,), (1, 2, 3))
SINGLETONS_3 = ((0,), (1,), (2,))

# (id, table builder, expected party classes, expected side of the boundary)
ORACLE_CASES = [
    ("fig5-n3-nonlocal", lambda: preset_table("fig5", 3, 0.9, 0.9), SYMMETRIC, True),
    ("fig5-n3-local", lambda: preset_table("fig5", 3, 0.5, 1.0), SYMMETRIC, False),
    ("fig5-n4-nonlocal", lambda: preset_table("fig5", 4, 0.9, 0.9), ((0, 1, 2, 3),), True),
    ("fig5-n4-local", lambda: preset_table("fig5", 4, 0.3, 1.0), ((0, 1, 2, 3),), False),
    ("fig5-n5-nonlocal", lambda: preset_table("fig5", 5, 0.9, 0.9), ((0, 1, 2, 3, 4),), True),
    ("fig5-n5-local", lambda: preset_table("fig5", 5, 0.3, 1.0), ((0, 1, 2, 3, 4),), False),
    ("garbarino3-n3-nonlocal", lambda: preset_table("garbarino3", 3, 0.9, 0.5),
     SYMMETRIC, True),
    ("garbarino3-n3-local", lambda: preset_table("garbarino3", 3, 0.75, 0.2),
     SYMMETRIC, False),
    ("garbarino3-n4-nonlocal", lambda: preset_table("garbarino3", 4, 0.9, 0.5),
     ((0, 1, 2, 3),), True),
    ("garbarino3-n4-local", lambda: preset_table("garbarino3", 4, 0.8, 0.3),
     ((0, 1, 2, 3),), False),
    ("party0-differs-n3", lambda: w_with_devices((0.8, 0.95, 0.95)), ATOM_LIKE_3, None),
    ("party0-differs-n4", lambda: w_with_devices((0.85, 0.95, 0.95, 0.95)), ATOM_LIKE_4, None),
    ("party1-differs-n3", lambda: w_with_devices((0.95, 0.8, 0.95)), ((0, 2), (1,)), None),
    ("party0-differs-n3-k3", lambda: w_with_devices((0.8, 0.95, 0.95), 3), ATOM_LIKE_3, None),
    ("all-differ-n3", lambda: w_with_devices((0.99, 0.95, 0.9)), SINGLETONS_3, None),
    ("all-differ-n3-k3", lambda: w_with_devices((0.99, 0.95, 0.9), 3), SINGLETONS_3, None),
    ("vertex-mixture-n3", lambda: vertex_mixture(3, 2, seed=1), SINGLETONS_3, False),
    ("vertex-mixture-n2-k3", lambda: vertex_mixture(2, 3, seed=2), ((0,), (1,)), False),
    ("w-and-vertices-n3", lambda: vertex_mixture(3, 2, seed=3, with_w=0.8), SINGLETONS_3, None),
]


@pytest.mark.parametrize("build, classes, nonlocal_side",
                         [case[1:] for case in ORACLE_CASES],
                         ids=[case[0] for case in ORACLE_CASES])
def test_orbit_lp_matches_enumerated_strategies(build, classes, nonlocal_side):
    p = build()
    n, k = p.n_parties, p.n_outcomes
    assert _party_classes(p.table, n) == classes
    res = nonlocal_content(p)
    weight, a = enumerated_local_weight(p.table, n, k)
    assert res.local_weight == pytest.approx(min(1.0, weight), abs=1e-9)
    if nonlocal_side is not None:
        assert (res.nonlocal_content > 1e-3) == nonlocal_side
    # Spread over the vertices, the orbit weights are a local decomposition
    # of the table as given, not only of its symmetrized version.
    q = spread_certificate(res.certificate, classes, k)
    assert q.min() >= -FEASIBILITY_TOL
    assert np.max(a @ q - p.table.reshape(-1)) <= FEASIBILITY_TOL
    assert q.sum() == pytest.approx(res.local_weight, abs=1e-9)


@pytest.mark.parametrize("c, k", [(1, 2), (1, 3), (2, 3), (3, 2), (4, 2)])
def test_orbit_matrix_averages_vertex_tables(c, k):
    m, row_of = _orbit_matrix(c, k)
    m = m.toarray()
    events = list(itertools.combinations_with_replacement(range(2 * k), c))
    orbits = list(itertools.combinations_with_replacement(range(k * k), c))
    assert m.shape == (len(events), len(orbits))
    tables = {v.outcomes: v.table(k) for v in enumerate_vertices(c, k)}
    strategy = list(itertools.product(range(k), repeat=2))
    for col, orbit in enumerate(orbits):
        members = {tuple(strategy[t] for t in perm) for perm in itertools.permutations(orbit)}
        for row, event in enumerate(events):
            index = tuple(e // k for e in event) + tuple(e % k for e in event)
            expected = np.mean([tables[v][index] for v in members])
            assert m[row, col] == pytest.approx(expected, abs=1e-15)
    for ordered in itertools.product(range(2 * k), repeat=c):
        assert events[row_of[ordered]] == tuple(sorted(ordered))


def test_orbit_reduction_sizes():
    # A silent fall back to the full LP would show here as (k^2)^N weights.
    assert len(nonlocal_content(preset_table("garbarino3", 4, 0.9, 0.5)).certificate) == 495
    assert len(nonlocal_content(preset_table("fig5", 5, 0.9, 0.9)).certificate) == 56
    assert len(nonlocal_content(w_with_devices((0.99, 0.95, 0.9))).certificate) == 4 ** 3
    assert len(nonlocal_content(w_with_devices((0.99, 0.95, 0.9), 3)).certificate) == 9 ** 3


def test_orbit_cache_does_not_change_results():
    p = preset_table("garbarino3", 3, 0.9, 0.5)
    _orbit_matrix.cache_clear()
    cold = nonlocal_content(p)
    warm = nonlocal_content(p)
    _orbit_matrix.cache_clear()
    again = nonlocal_content(p)
    for res in (warm, again):
        assert res.local_weight == cold.local_weight
        assert res.nonlocal_content == cold.nonlocal_content
        assert res.certificate.tobytes() == cold.certificate.tobytes()


# The bisections whose LPs the face tests cover: (preset, N, pinned
# parameter and its value, bisected parameter), each over the bracket (0.01, 1).
BISECTIONS = [("fig5", n, "eta_x", 1.0, "eta_z") for n in (3, 4, 5)] + [
    ("garbarino3", n, "eta_z", 0.8, "eta_x") for n in (3, 4)]


def bisection_threshold(preset, n, pinned, value, param):
    spec = fix_parameter(PRESETS[preset].build(n), pinned, value)
    return critical_efficiency(spec, param, (0.01, 1.0))


def recording_face_solves(monkeypatch):
    """Wrap ``_solve_on_faces``; returns the list of (faces, a, b, found) it
    records, one per LP inside a reusing_faces block."""
    seen, resolve = [], wbell.polytope._solve_on_faces

    def recording(faces, a, b):
        found = resolve(faces, a, b)
        seen.append((faces, a, b, found))
        return found

    monkeypatch.setattr(wbell.polytope, "_solve_on_faces", recording)
    return seen


@pytest.mark.parametrize("preset, n, pinned, value, param", BISECTIONS)
def test_a_face_resolve_equals_a_fresh_lp(monkeypatch, preset, n, pinned, value, param):
    seen = recording_face_solves(monkeypatch)
    threshold = bisection_threshold(preset, n, pinned, value, param)
    hits = [(a, b, found) for _, a, b, found in seen if found is not None]
    for a, b, (value_on_face, q) in hits:
        fresh, _, _ = solve_lp(a, b)
        assert abs(min(1.0, max(0.0, value_on_face)) - min(1.0, max(0.0, fresh))) <= 1e-12
        assert q.min() >= 0.0 and q.sum() == value_on_face
    if (preset, n) == ("garbarino3", 3):
        assert 3 * len(hits) >= len(seen) > 0
    monkeypatch.setattr(wbell.polytope, "_solve_on_faces", lambda faces, a, b: None)
    assert bisection_threshold(preset, n, pinned, value, param) == threshold


def counting_highs(monkeypatch):
    """Count the HiGHS solves of ``solve_lp``."""
    calls, solve = [], wbell.polytope.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(wbell.polytope, "solve_lp", counting)
    return calls


def drop_every_other_row(face, other):
    rows, cols, block, y = face
    return rows[::2], cols, block[::2], y


def y_of_another_structure(face, other):
    rows, cols, block, _ = face
    return rows, cols, block, other[3]


@pytest.mark.parametrize("spoil, other_table", [
    (drop_every_other_row, None),
    (y_of_another_structure, lambda: w_with_devices((0.8, 0.95, 0.95), 3)),
    (y_of_another_structure, lambda: preset_table("garbarino3", 4, 0.8, 0.5)),
    ("nnls at its iteration cap", None),
], ids=["rows-dropped", "y-of-two-classes", "y-of-four-parties", "nnls-raises"])
def test_a_bad_face_is_a_miss_never_a_wrong_answer(monkeypatch, spoil, other_table):
    """The face of eta_x = 0.45 is optimal again at 0.41 (a hit when left
    alone); spoiled, it falls back to HiGHS with HiGHS's value."""
    first = preset_table("garbarino3", 3, 0.8, 0.45)
    second = preset_table("garbarino3", 3, 0.8, 0.41)
    fresh = nonlocal_content(second)
    key = (_party_classes(second.table, 3), 3)
    other_faces = ()
    if other_table is not None:
        with reusing_faces(np.inf):
            nonlocal_content(other_table())
            ((other_faces, _),) = wbell.polytope._memory.get()[1].values()
    if spoil == "nnls at its iteration cap":
        def capped(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")
        monkeypatch.setattr(scipy.optimize, "nnls", capped)
    highs = counting_highs(monkeypatch)
    with reusing_faces(np.inf):
        nonlocal_content(first)
        lps = wbell.polytope._memory.get()[1]
        if callable(spoil):
            faces, duals = lps[key]
            lps[key] = (tuple(spoil(face, other_faces[-1] if other_faces else None)
                              for face in faces), duals)
        res = nonlocal_content(second)
    assert len(highs) == 2
    assert abs(res.local_weight - fresh.local_weight) <= 1e-12
    assert res.certificate.tobytes() == fresh.certificate.tobytes()


def test_the_unspoiled_face_of_the_bad_face_cases_is_a_hit(monkeypatch):
    highs = counting_highs(monkeypatch)
    with reusing_faces(np.inf):
        nonlocal_content(preset_table("garbarino3", 3, 0.8, 0.45))
        res = nonlocal_content(preset_table("garbarino3", 3, 0.8, 0.41))
    assert len(highs) == 1
    fresh = nonlocal_content(preset_table("garbarino3", 3, 0.8, 0.41))
    assert abs(res.local_weight - fresh.local_weight) <= 1e-12


def test_a_dist_file_of_other_classes_never_reads_a_one_class_face(monkeypatch, tmp_path):
    """Party 0 differs, so the file's classes are {0}, {1, 2}: a one-class
    face solved just before it in the same block is not offered to it."""
    path = tmp_path / "party0.dist"
    path.write_text(w_with_devices((0.8, 0.95, 0.95), 3).to_text())

    def content():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch(["content", "--dist-file", str(path)])
        return code, out.getvalue(), err.getvalue()

    alone = content()
    seen = recording_face_solves(monkeypatch)
    with reusing_faces(np.inf):
        nonlocal_content(preset_table("garbarino3", 3, 0.8, 0.45))
        assert content() == alone
    (_, one_class, _, _), (faces, a, _, found) = seen
    assert one_class.shape[0] != a.shape[0]
    assert faces == () and found is None


def test_faces_do_not_leak_across_threshold_calls(monkeypatch):
    """Faces live for one critical_efficiency call: a threshold is the same
    called twice, and after an unrelated LP threshold, and no call starts
    with a face."""
    seen = recording_face_solves(monkeypatch)
    case = ("garbarino3", 3, "eta_z", 0.8, "eta_x")
    first = bisection_threshold(*case)
    assert seen[0][0] == () and wbell.polytope._memory.get() is None
    del seen[:]
    assert bisection_threshold(*case) == first
    assert seen[0][0] == ()
    bisection_threshold("fig5", 3, "eta_x", 1.0, "eta_z")
    del seen[:]
    assert bisection_threshold(*case) == first
    assert seen[0][0] == ()


@pytest.mark.parametrize("bracket, kind", [((0.01, 1.0), None), ((0.9, 1.0), "always"),
                                           ((0.01, 0.1), "never")])
def test_the_memory_lives_for_one_bisection_whether_it_returns_or_raises(
        monkeypatch, bracket, kind):
    """critical_efficiency opens the memory at the spec's lp_tol for every
    content it makes, and it is closed after the call returns and after it
    raises BracketError."""
    levels, content = [], wbell.search.nonlocal_content

    def recording(p):
        memory = wbell.polytope._memory.get()
        levels.append(None if memory is None else memory[0])
        return content(p)

    monkeypatch.setattr(wbell.search, "nonlocal_content", recording)
    spec = fix_parameter(PRESETS["fig5"].build(3), "eta_x", 1.0)
    if kind is None:
        critical_efficiency(spec, "eta_z", bracket, atol=0.05)
    else:
        with pytest.raises(BracketError) as err:
            critical_efficiency(spec, "eta_z", bracket)
        assert err.value.kind == kind
    assert levels and set(levels) == {spec.lp_tol}
    assert wbell.polytope._memory.get() is None


def test_outside_a_bisection_every_content_is_one_highs_solve(monkeypatch):
    """has_violation and optimize_free_parameters open no memory: each of
    their contents is one solve_lp, with no pool decision and no face."""
    highs = counting_highs(monkeypatch)
    seen = recording_face_solves(monkeypatch)
    contents, content = [], wbell.search.nonlocal_content

    def counting(p):
        contents.append(p)
        return content(p)

    monkeypatch.setattr(wbell.search, "nonlocal_content", counting)
    spec = fix_parameter(PRESETS["fig5"].build(3), "eta_x", 1.0)
    assert has_violation(spec, n_starts=4)
    optimize_free_parameters(spec, n_starts=1)
    assert len(contents) == len(highs) > 1 and seen == []
    assert wbell.polytope._memory.get() is None


def test_a_face_resolve_calls_no_linprog_and_highs_feeds_the_tracer(monkeypatch):
    """Within a bisection every HiGHS solve is one ``solve_lp`` call and one
    ``linprog`` call whose result carries ``nit``; a face hit calls neither."""
    calls, forward = [], wbell.polytope.linprog

    def recording(*args, **kwargs):
        result = forward(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(wbell.polytope, "linprog", recording)
    highs = counting_highs(monkeypatch)
    seen = recording_face_solves(monkeypatch)
    bisection_threshold("garbarino3", 3, "eta_z", 0.8, "eta_x")
    hits = sum(found is not None for *_, found in seen)
    assert hits > 0
    assert len(calls) == len(highs) == len(seen) - hits
    assert all(isinstance(result.nit, int) and result.nit >= 0 for result in calls)


def test_a_stale_face_is_a_miss(monkeypatch):
    """garbarino3 N=4 at eta_z = 1: the face of eta_x = 0.5 fits eta_x =
    0.00189208984375 within a HiGHS solve's relative gap, but its duals'
    bound lies 1.8e-9 above the fit, which reads content 1.19e-8 where the
    LP reads 1.014e-8: "violated" at lp_tol 1e-8 where the LP is not. Only
    a gap within FACE_GAP is a hit."""
    first = preset_table("garbarino3", 4, 1.0, 0.5)
    second = preset_table("garbarino3", 4, 1.0, 0.00189208984375)
    fresh = nonlocal_content(second)
    seen = recording_face_solves(monkeypatch)
    highs = counting_highs(monkeypatch)
    with reusing_faces(np.inf):
        nonlocal_content(first)
        res = nonlocal_content(second)
    (faces, a, b, found) = seen[-1]
    assert found is None and len(highs) == 2
    assert res.certificate.tobytes() == fresh.certificate.tobytes()
    rows, cols, block, y = faces[-1]
    q = np.zeros(a.shape[1])
    q[cols] = scipy.optimize.nnls(block, b[rows])[0]
    _certify(a, b, q, float(q.sum()), y, OPTIMALITY_TOL * (1.0 + q.sum()))  # a HiGHS solve's gap
    assert FACE_GAP < b @ y - q.sum() < 1e-8
    assert is_violation(1.0 - q.sum() - 1e-8) and not is_violation(fresh.nonlocal_content - 1e-8)


def random_fig5(rng):
    return preset_table("fig5", 3, rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))


def random_garbarino3(rng):
    return preset_table("garbarino3", 3, rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0))


def random_two_classes(rng):
    """Tables of w_with_devices((0.8, 0.95, 0.95), 3)'s structure."""
    eta = rng.uniform(0.8, 1.0)
    return w_with_devices((rng.uniform(0.7, 1.0), eta, eta), 3)


@pytest.mark.parametrize("draw", [random_fig5, random_garbarino3, random_two_classes])
def test_pooled_duals_are_feasible_and_bound_the_content_from_below(monkeypatch, draw):
    """Every pooled y has y >= 0 and A^T y >= 1 exactly, so 1 - b.y is a
    lower bound on the content of every table of the matrix: checked
    against the LP over all (k^2)^N strategies at fresh random points."""
    rng = np.random.default_rng(20)
    highs = counting_highs(monkeypatch)
    with reusing_faces(np.inf):
        for _ in range(6):
            nonlocal_content(draw(rng))
        lps = wbell.polytope._memory.get()[1]
        ((_, duals),) = lps.values()
        assert len(duals) == len(highs) > 1
        assert duals.min() >= 0.0 and (highs[-1][0].T @ duals.T).min() >= 1.0
        level = wbell.polytope._memory.set((-np.inf, lps))   # every content is the best bound
        try:
            for _ in range(4):
                p = draw(rng)
                bound = nonlocal_content(p).nonlocal_content
                weight, _ = enumerated_local_weight(p.table, p.n_parties, p.n_outcomes)
                assert bound <= 1.0 - min(1.0, weight) + 1e-12
        finally:
            wbell.polytope._memory.reset(level)


def recording_pooled_verdicts(monkeypatch):
    """The (table, result) of every content inside a reusing_faces block
    that reached no face re-solve, so that the pool decided it."""
    seen, pooled, content = recording_face_solves(monkeypatch), [], wbell.search.nonlocal_content

    def recording(p):
        before = len(seen)
        res = content(p)
        if len(seen) == before and wbell.polytope._memory.get() is not None:
            pooled.append((p, res))
        return res

    monkeypatch.setattr(wbell.search, "nonlocal_content", recording)
    return pooled


@pytest.mark.parametrize("preset, n, pinned, value, param, bracket, atol, want", [
    ("garbarino3", 4, "eta_z", 0.8, "eta_x", (0.01, 1.0), 0.01, None),
    ("garbarino3", 3, "eta_z", 0.75, "eta_x", (0.01, 1.0), 1e-4, None),
    ("fig5", 5, "eta_x", 1.0, "eta_z", (0.2, 0.6), 1e-4, None),
    ("garbarino3", 4, "eta_z", 1.0, "eta_x", (0.0, 1.0), 1e-4, 0.001922607421875),
], ids=["garbarino3-4", "garbarino3-3", "fig5-5", "garbarino3-4-row-eta_z-1"])
def test_a_pooled_verdict_is_the_verdict_of_a_fresh_lp(monkeypatch, preset, n, pinned, value,
                                                      param, bracket, atol, want):
    """The lp-content bisections and the region row whose stale faces once
    moved it: each content the pool decides is "violated" by a fresh LP
    too. (A bound may exceed HiGHS's content by HiGHS's own error: 1.7e-10
    at eta_x = 0.00390625 of the last row.)"""
    pooled = recording_pooled_verdicts(monkeypatch)
    spec = fix_parameter(PRESETS[preset].build(n), pinned, value)
    threshold = critical_efficiency(spec, param, bracket, atol)
    assert pooled and (want is None or threshold == want)
    for p, _ in pooled:
        fresh = nonlocal_content(p)
        assert is_violation(fresh.nonlocal_content - spec.lp_tol)


def test_the_lp_content_region_makes_at_most_40_highs_solves(monkeypatch):
    """The lp-content region: every pooled verdict of its nine rows agrees
    with a fresh LP, at no more than 40 HiGHS solves (60 with faces alone),
    and two workers print the same bytes."""
    pooled = recording_pooled_verdicts(monkeypatch)
    highs = counting_highs(monkeypatch)
    argv = ["region", "--preset", "garbarino3", "--n", "3", "--grid", "9"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert dispatch(argv + ["--jobs", "1"]) == 0
    assert 0 < len(highs) <= 40 and pooled
    for p, _ in pooled:
        assert is_violation(nonlocal_content(p).nonlocal_content - 1e-8)
    parallel = io.StringIO()
    with redirect_stdout(parallel):
        assert dispatch(argv + ["--jobs", "2"]) == 0
    assert parallel.getvalue() == out.getvalue()
