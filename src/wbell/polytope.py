"""The EPR2 decomposition LP over local deterministic strategies.

The nonlocal content of a distribution P is 1 minus the largest weight w such
that P - w P_L is a valid (sub-normalized, non-signalling) remainder for some
local distribution P_L. Maximizing sum(q) subject to sum_l q_l D_l(o|s) <=
P(o|s), q >= 0 over the deterministic vertices D_l solves it exactly.

The LP is solved over party-permutation orbits (Bancal, Gisin and Pironio,
J. Phys. A 43, 385303 (2010)). Parties form a class when swapping any two of
them moves no table entry by more than SYMMETRY_TOL: one class for the
photonic presets, {0} and {1..N-1} with an atom, singletons for a table with
no symmetry. Averaging an optimal mixture over the permutations within each
class keeps it optimal, so the LP needs one variable per vertex orbit and one
row per row orbit. Its matrix is the Kronecker product of one orbit block per
class. A row's bound is the smallest table entry in its row orbit, so
spreading each orbit's weight evenly over its vertices is a local
decomposition of the table as given, however slightly asymmetric it is; the
optimum moves from the full LP's only by that asymmetry. With singleton
classes the LP is the full one, its rows reordered.

Inside ``reusing_faces(lp_tol)``, the LP memory of one bisection, every
content is a witness test at level ``lp_tol``: only ``critical_efficiency``
opens it. Per LP matrix it pools the duals of every HiGHS solve, scaled to
y >= 0, A^T y >= 1: by weak duality each is a symmetric Bell inequality,
content >= 1 - b.y for every bound vector b. A content whose best pooled
bound alone is a violation at ``lp_tol`` is that bound. Else the LP is
re-solved on the last optimal faces, the NNLS fit of an earlier optimum's
tight rows over its support, accepted when feasible (``_certify``) and
within FACE_GAP of its duals' bound; else, as always outside, HiGHS runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import numpy as np

from .bell import is_violation
from .dist import JointDistribution

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-8
SYMMETRY_TOL = 1e-12
FACE_TOL = 1e-12   # support weight, dual and slack that put a column or row on a face
FACE_GAP = 1e-12   # duality gap of an accepted face re-solve, far below any verdict's margin
FACES_TRIED = 2
_memory: ContextVar = ContextVar("memory", default=None)  # (lp_tol, {(classes, k): (faces, duals)})

# Most parties the LP takes, by outcome count: its size grows as (k^2)^N.
LP_MAX_PARTIES = {2: 5, 3: 4}


class LPError(RuntimeError):
    """The linear program failed to solve to the required certificates."""


@dataclass(frozen=True)
class ContentResult:
    """EPR2 split of a distribution into local weight and nonlocal content."""

    local_weight: float
    nonlocal_content: float
    certificate: np.ndarray


def _party_classes(table: np.ndarray, n_parties: int) -> tuple:
    """Parties grouped so that swapping two of one class moves no entry by
    more than SYMMETRY_TOL; classes in order of their first party.

    Each class member is tested against the class's first party: those
    transpositions generate every permutation of the class.
    """
    n = n_parties
    classes, placed = [], set()
    for first in range(n):
        if first in placed:
            continue
        members = [first]
        for other in range(first + 1, n):
            if other in placed:
                continue
            axes = list(range(2 * n))
            axes[first], axes[other] = other, first
            axes[n + first], axes[n + other] = n + other, n + first
            if np.abs(table - table.transpose(axes)).max() <= SYMMETRY_TOL:
                members.append(other)
        placed.update(members)
        classes.append(tuple(members))
    return tuple(classes)


@lru_cache(maxsize=16)
def _orbit_matrix(n_parties: int, n_outcomes: int) -> tuple:
    """Orbit LP block of one class of c = ``n_parties`` interchangeable
    parties with k = ``n_outcomes`` outcomes.

    Returns ``(m, row_of)``. Local events are e = s*k + o and per-party
    strategies t = a0*k + a1 (the outcome for setting 0, then setting 1).
    Row orbits are the multisets of c events and vertex orbits the multisets
    of c strategies, each in ``combinations_with_replacement`` order.
    ``m[R, O]`` is the share of the c! orderings under which the strategies
    of O produce the events of R, which is D(r) averaged over the vertices
    of O for any ordered r in R. ``row_of``, shape (2k,)*c, maps every
    ordered event tuple to its row orbit. ``m`` is sparse (CSC); the arrays
    of both are read-only, as every caller shares them.
    """
    import scipy.sparse as sp
    c, k = n_parties, n_outcomes
    events = np.array(list(combinations_with_replacement(range(2 * k), c)))
    strategies = np.array(list(combinations_with_replacement(range(k * k), c)))
    setting, outcome = np.divmod(np.arange(2 * k), k)
    outcomes_of = np.array(list(product(range(k), repeat=2)))
    produces = outcomes_of[:, setting].T == outcome[:, None]    # [event, strategy]
    m = np.zeros((len(events), len(strategies)))
    for order in permutations(range(c)):
        hit = np.ones(m.shape, dtype=bool)
        for slot, source in enumerate(order):
            hit &= produces[events[:, slot, None], strategies[:, source]]
        m += hit
    m /= factorial(c)
    # Nondecreasing tuples in lexicographic order have increasing radix codes.
    radix = (2 * k) ** np.arange(c - 1, -1, -1)
    ordered = np.array(list(product(range(2 * k), repeat=c)))
    row_of = np.searchsorted(events @ radix, np.sort(ordered, axis=1) @ radix)
    row_of = row_of.reshape((2 * k,) * c)
    m = sp.csc_matrix(m)
    for cached in (m.data, m.indices, m.indptr, row_of):
        cached.flags.writeable = False
    return m, row_of


def linprog(*args, **kwargs):
    from scipy.optimize import linprog  # on the first LP; bench/tracer.py wraps this name
    return linprog(*args, **kwargs)


def _certify(a_ub, b_ub: np.ndarray, x: np.ndarray, value: float, y, gap: float) -> None:
    """Raise LPError unless x is feasible within FEASIBILITY_TOL and the dual
    value b_ub . y of duals y is within ``gap`` of ``value``."""
    worst = float((a_ub @ x - b_ub).max(initial=0.0))
    lowest = float(x.min(initial=0.0))
    if worst > FEASIBILITY_TOL or lowest < -FEASIBILITY_TOL:
        raise LPError(f"solution violates feasibility (residual {worst:g}, "
                      f"lowest variable {lowest:g})")
    dual_value = float(b_ub @ y)
    if abs(dual_value - value) > gap:
        raise LPError(f"duality gap {dual_value - value:g} exceeds tolerance")


def solve_lp(a_ub, b_ub: np.ndarray):
    """Maximize sum(x) subject to a_ub x <= b_ub and x >= 0 with HiGHS.

    Returns (value, x, y), y the row duals, certified by ``_certify``:
    primal feasibility within FEASIBILITY_TOL and a weak-duality gap within
    OPTIMALITY_TOL (relative to the value's scale).
    Every HiGHS failure raises LPError.
    """
    b_ub = np.asarray(b_ub, dtype=float)
    # The certificate is stricter than the HiGHS defaults (1e-7), so the
    # solver is asked for more accuracy than it would normally deliver.
    res = linprog(-np.ones(a_ub.shape[1]), A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise LPError(res.message)
    x = np.asarray(res.x, dtype=float)
    value = float(-res.fun)
    y = -np.asarray(res.ineqlin.marginals, dtype=float)
    _certify(a_ub, b_ub, x, value, y, OPTIMALITY_TOL * (1.0 + abs(value)))
    return value, x, y


@contextmanager
def reusing_faces(lp_tol: float):
    """The LP memory of one bisection, opened only by ``critical_efficiency``:
    every content in the block is a witness test at level ``lp_tol``, decided
    by the pooled duals, then a face re-solve, then HiGHS, in that order."""
    token = _memory.set((lp_tol, {}))
    try:
        yield
    finally:
        _memory.reset(token)


def _solve_on_faces(faces: tuple, a, b: np.ndarray):
    """(value, q) of the first face, newest first, whose NNLS point passes
    ``_certify`` with the face's duals at FACE_GAP; None when none does."""
    from scipy.optimize import nnls
    for rows, cols, block, y in reversed(faces):
        q = np.zeros(a.shape[1])
        try:
            q[cols] = nnls(block, b[rows])[0]
            _certify(a, b, q, float(q.sum()), y, FACE_GAP)
        except (RuntimeError, ValueError):
            continue    # a refused certificate, nnls at its iteration cap, a y of another shape
        return float(q.sum()), q
    return None


def nonlocal_content(p: JointDistribution) -> ContentResult:
    """Exact EPR2 nonlocal content of a two-setting distribution.

    ``certificate`` holds the optimal weight of each vertex orbit; the
    weights sum to ``local_weight``. Its index runs over the party classes
    (in order of their first party) as a Kronecker product, and within a
    class of c parties over the multisets of c per-party strategies
    (a0, a1), in ``combinations_with_replacement`` order of a0*k + a1. An
    orbit's weight belongs in equal parts to each of its vertices; with
    singleton classes the index runs over all (k^2)^N deterministic
    strategies, lexicographic in the per-party pairs (a0, a1). Inside
    ``reusing_faces``, a content the pooled duals decide is their bound,
    and ``certificate`` is the deciding y, one weight per row orbit.

    Scope caps (LP size): N <= LP_MAX_PARTIES[k].
    """
    import scipy.sparse as sp
    p.validate()
    n, k = p.n_parties, p.n_outcomes
    if k not in LP_MAX_PARTIES:
        raise ValueError("content is implemented for 2 or 3 outcomes")
    if n > LP_MAX_PARTIES[k]:
        raise ValueError(f"{k}-outcome content is capped at {LP_MAX_PARTIES[k]} parties")
    classes = _party_classes(p.table, n)
    a, row_of = None, np.zeros((), dtype=np.int64)
    for members in classes:
        m, class_row_of = _orbit_matrix(len(members), k)
        a = m if a is None else sp.kron(a, m, format="csc")
        row_of = np.add.outer(row_of * m.shape[0], class_row_of)
    order = [party for members in classes for party in members]
    entries = p.table.transpose([axis for i in order for axis in (i, n + i)])
    b = np.full(a.shape[0], np.inf)
    np.minimum.at(b, row_of.reshape(-1), np.clip(entries.reshape(-1), 0.0, None))
    memory, found = _memory.get(), None
    if memory is not None:
        lp_tol, lps = memory
        faces, duals = lps.get((classes, k), ((), None))
        if duals is not None:
            y = duals[(duals @ b).argmin()]
            if is_violation((1.0 - float(b @ y)) - lp_tol):
                return ContentResult(float(b @ y), 1.0 - float(b @ y), y)
        found = _solve_on_faces(faces, a, b)
    if found is None:
        value, q, y = solve_lp(a, b)
        if memory is not None:
            cols = np.flatnonzero(q > FACE_TOL)
            rows = np.flatnonzero((y > FACE_TOL) | (b - a @ q <= FACE_TOL))
            face = (rows, cols, a[:, cols].toarray()[rows], y)
            y = np.clip(y, 0.0, None)
            y /= min(1.0, float((a.T @ y).min()))
            lps[classes, k] = ((faces + (face,))[-FACES_TRIED:],
                               y[None] if duals is None else np.vstack((duals, y)))
    else:
        value, q = found
    local_weight = float(min(1.0, max(0.0, value)))
    return ContentResult(local_weight, 1.0 - local_weight, q)
