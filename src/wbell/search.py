"""Scenario descriptions, free-parameter optimization, and threshold scans.

A :class:`ScenarioSpec` names a complete experiment: party count, the Bell
criterion to evaluate, the measurement family behind each photonic setting,
an optional atom party, and a table of named parameters (detector
efficiencies, displacement amplitudes, preparation angles). Parameters with a
pinned value are fixed; the rest are free and get optimized away whenever a
margin is requested, so thresholds always refer to the best measurement the
scheme allows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .bell import (
    WWWZB_MAX_PARTIES,
    BellResult,
    _observables,
    cabello_symmetric,
    chsh_symmetric,
    is_violation,
    mermin3_symmetric,
    wwwzb_symmetric,
)
from .dist import JointDistribution, Symmetric, _transfers, table
from .measure import FAMILIES, _efficiency_elements
from .polytope import LP_MAX_PARTIES, nonlocal_content, reusing_faces
from .states import ExcitationState, atom_photon_amplitudes, atom_photon_state, w_state

DEFAULT_STARTS = 32
SIMPLEX_XATOL = 1e-6
SIMPLEX_FATOL = 1e-10
WARM_EVALS_PER_PARAM = 20  # the cap of a bisection step's one simplex run
BISECTION_ATOL = 1e-4

_ATOM_PARAMS = ("theta", "eta_c", "eta_atom", "a_polar_0", "a_polar_1")
_ANGLES = _ATOM_PARAMS[3:]


class Criterion(NamedTuple):
    """A criterion's outcome count and party range (``max_parties`` None: no
    cap), and ``evaluate``, which maps a :class:`~wbell.dist.Symmetric`
    scenario to the value, violated above ``local_bound`` and at most
    ``algebraic_max(n)`` with n parties besides party 0; or, when ``lp`` is
    set, a JointDistribution to a ContentResult."""

    n_outcomes: int
    min_parties: int
    max_parties: Optional[int]
    evaluate: Callable
    lp: bool = False
    local_bound: float = 0.0
    algebraic_max: Optional[Callable] = None


# Every rule about a criterion lives in this table. The LP evaluators look
# up nonlocal_content in this module's globals when called, so that wrapping
# it here wraps every evaluation.
CRITERIA = {
    "cabello": Criterion(2, 3, None, cabello_symmetric, False, 0.0, lambda n: 1.0),
    "wwwzb": Criterion(2, 1, WWWZB_MAX_PARTIES, wwwzb_symmetric, False, 1.0,
                       lambda n: 2.0 ** (n / 2.0)),
    "mermin3": Criterion(2, 3, 3, mermin3_symmetric, False, 2.0, lambda n: 4.0),
    "chsh": Criterion(2, 2, 2, chsh_symmetric, False, 2.0, lambda n: 4.0),
    "lp2": Criterion(2, 1, LP_MAX_PARTIES[2], lambda p: nonlocal_content(p), lp=True),
    "lp3": Criterion(3, 1, LP_MAX_PARTIES[3], lambda p: nonlocal_content(p), lp=True),
}


class BracketError(RuntimeError):
    """A threshold scan found the same verdict at both bracket ends.

    ``kind`` is "always" when the criterion is violated across the whole
    bracket and "never" when it is violated nowhere on it.
    """

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class ParamSpec:
    """Named scalar parameter: free on [lo, hi], or fixed when value is set."""

    lo: float
    hi: float
    value: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("parameter bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("parameter bounds are reversed")
        if self.value is None:
            if self.lo == self.hi:
                raise ValueError("a free parameter needs lo < hi")
        elif not self.lo <= self.value <= self.hi:
            raise ValueError("fixed value lies outside its bounds")

    @property
    def is_free(self) -> bool:
        return self.value is None

    @classmethod
    def fixed(cls, value: float) -> "ParamSpec":
        return cls(value, value, value)

    @classmethod
    def free(cls, lo: float, hi: float) -> "ParamSpec":
        return cls(lo, hi, None)


@dataclass(frozen=True)
class MeasSpec:
    """One measurement device: a family plus its efficiency and auxiliary knob.

    ``eff`` and ``aux`` are either literals or names referring to scenario
    parameters; ``measure.FAMILIES`` says what ``aux`` means to each family.
    ``flip`` swaps the two outcome labels of a binary device.
    """

    family: str
    eff: Union[str, float]
    aux: Union[str, float, None] = None
    flip: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown measurement family {self.family!r}")
        if self.flip and self.n_outcomes != 2:
            raise ValueError("flip applies to two-outcome devices only")

    @property
    def n_outcomes(self) -> int:
        return FAMILIES[self.family][0]

    def references(self) -> set:
        return {r for r in (self.eff, self.aux) if isinstance(r, str)}


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one Bell experiment to evaluate or scan."""

    name: str
    n_parties: int
    criterion: str
    photon_z: MeasSpec
    photon_x: MeasSpec
    atom: bool = False
    params: dict = field(default_factory=dict)
    lp_tol: float = 1e-8

    def __post_init__(self):
        rule = CRITERIA.get(self.criterion)
        if rule is None:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        n, fewest, most = self.n_parties, rule.min_parties, rule.max_parties
        if n < fewest or (most is not None and n > most):
            allowed = (f"{fewest} or more" if most is None else
                       f"{fewest}" if fewest == most else f"{fewest} to {most}")
            raise ValueError(f"{self.criterion} takes {allowed} parties, got {n}")
        # A NaN lp_tol makes every margin NaN, which no search can rank; a
        # negative one calls every local point violated.
        if not (math.isfinite(self.lp_tol) and self.lp_tol >= 0.0):
            raise ValueError(f"lp_tol must be finite and non-negative, got {self.lp_tol!r}")
        k = self.photon_z.n_outcomes
        if self.photon_x.n_outcomes != k:
            raise ValueError("both settings must share one outcome count")
        if k != rule.n_outcomes:
            raise ValueError(f"{self.criterion} needs {rule.n_outcomes}-outcome families")
        if self.atom and n < 2:
            raise ValueError("an atom scenario needs at least one photon party")
        if self.atom and k != 2:
            raise ValueError("atom scenarios use two-outcome photon devices")
        referenced = self.photon_z.references() | self.photon_x.references()
        if self.atom:
            referenced |= set(_ATOM_PARAMS)
        missing = referenced - set(self.params)
        if missing:
            raise ValueError(f"parameters without a spec: {sorted(missing)}")
        dangling = set(self.params) - referenced
        if dangling:
            raise ValueError(f"parameters never referenced: {sorted(dangling)}")
        for pname, pspec in self.params.items():
            if not isinstance(pspec, ParamSpec):
                raise TypeError(f"parameter {pname!r} is not a ParamSpec")
        # Whatever a device reads as an efficiency, literal or parameter
        # range, must lie in [0, 1]; pins arrive here through fix_parameter.
        efficiencies = [("photon_z", self.photon_z.eff), ("photon_x", self.photon_x.eff)]
        if self.atom:
            efficiencies += [("coupling", "eta_c"), ("atom", "eta_atom")]
        for role, ref in efficiencies:
            lo, hi = ((self.params[ref].lo, self.params[ref].hi) if isinstance(ref, str)
                      else (ref, ref))
            if not (0.0 <= lo and hi <= 1.0):
                raise ValueError(f"efficiency {ref!r} ({role}) must stay within [0, 1]")
        for role, ms in (("photon_z", self.photon_z), ("photon_x", self.photon_x)):
            if not (ms.aux is None or isinstance(ms.aux, str) or math.isfinite(ms.aux)):
                raise ValueError(f"{role}.aux must be finite, got {ms.aux!r}")

    @cached_property
    def _compiled(self) -> _Compiled:
        return _compile(self)

    def __getstate__(self) -> dict:  # closures do not pickle; a copy compiles anew
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


@dataclass(frozen=True)
class SearchResult:
    """Best margin found and the full parameter assignment that achieves it."""

    margin: float
    params: dict


@dataclass(frozen=True)
class ThresholdCurve:
    """Critical-value curve y*(x) from a grid scan, with per-point status."""

    x_name: str
    y_name: str
    points: tuple

    def to_csv(self) -> str:
        lines = [f"{self.x_name},{self.y_name},status"]
        for x, y, status in self.points:
            lines.append(f"{x:.10g},{y:.10g},{status}")
        return "\n".join(lines) + "\n"


def free_parameters(spec: ScenarioSpec) -> tuple:
    """Free parameter names in sorted order (the optimizer's axes).

    Sorting makes the axis order, and with it every downstream number, a
    function of the parameter names alone rather than of dict insertion
    history, so equal specs search identically.
    """
    return tuple(sorted(n for n, p in spec.params.items() if p.is_free))


def fix_parameter(spec: ScenarioSpec, name: str, value: float) -> ScenarioSpec:
    """Pin one parameter, a free one only within its declared range: the one
    check of every pin, from a flag, a config, a bracket or grid end or a
    library call. A value must be finite, and ScenarioSpec checks an
    efficiency pin before the range."""
    declared = spec.params.get(name)
    if declared is None:
        raise KeyError(f"scenario has no parameter {name!r}")
    value, params = float(value), dict(spec.params)
    if not math.isfinite(value):
        raise ValueError(f"{name} = {value:g} is not a finite number")
    params[name] = ParamSpec.fixed(value)
    pinned = replace(spec, params=params)
    if declared.is_free and not declared.lo <= value <= declared.hi:
        raise ValueError(f"{name} = {value:g} lies outside its declared range "
                         f"[{declared.lo:g}, {declared.hi:g}]")
    return pinned


def resolve_values(spec: ScenarioSpec, free_values: Optional[dict] = None) -> dict:
    """Fixed parameter values merged with the free ones of ``free_parameters(spec)``."""
    free_values = free_values or {}
    return {name: float(free_values[name] if pspec.is_free else pspec.value)
            for name, pspec in spec.params.items()}


def _device(ms: MeasSpec, spec: ScenarioSpec) -> Callable:
    """The map from the values to one photonic device's POVM elements, in
    outcome order, the family and any literal read here; a device whose
    parameters ``spec`` pins is built here, once."""
    build, flip = FAMILIES[ms.family][1], ms.flip
    eff, aux = (itemgetter(ref) if isinstance(ref, str)
                else (lambda values, x=0.0 if ref is None else float(ref): x)
                for ref in (ms.eff, ms.aux))

    def elements(values):
        built = build(eff(values), aux(values))
        return built[::-1] if flip else built

    if any(spec.params[ref].is_free for ref in ms.references()):
        return elements
    built = elements({ref: float(spec.params[ref].value) for ref in ms.references()})
    return lambda values: built


def atom_elements(values: dict) -> tuple:
    """The atom's (setting 0, setting 1) POVM elements, in outcome order."""
    eta = values["eta_atom"]
    return (_efficiency_elements(values["a_polar_0"], 0.0, eta, 1.0),
            _efficiency_elements(values["a_polar_1"], 0.0, eta, 1.0))


def scenario_state(spec: ScenarioSpec, values: dict) -> ExcitationState:
    if spec.atom:
        return atom_photon_state(values["theta"], values["eta_c"], spec.n_parties - 1)
    return w_state(spec.n_parties)


def scenario_distribution(spec: ScenarioSpec, values: dict) -> JointDistribution:
    """The scenario's table, unchecked: an overflowing device's NaNs pass the spec's checks."""
    return table(scenario_state(spec, values), spec._compiled.parties(values))


def criterion_result(criterion: str, data: Union[Symmetric, JointDistribution]):
    """Apply one named criterion to what it reads: a closed form to a
    Symmetric scenario, an LP criterion to a JointDistribution; ScenarioSpec
    checked the name."""
    rule = CRITERIA[criterion]
    if rule.lp:
        return rule.evaluate(data)
    return BellResult.make(rule.evaluate(data), rule.local_bound, rule.algebraic_max(data.n))


_Compiled = NamedTuple("_Compiled", [("symmetric", Callable), ("parties", Callable),
    ("box", tuple), ("values", Callable), ("objective", Optional[Callable])])


def _compile(spec: ScenarioSpec) -> _Compiled:
    """The spec's maps from the values to the ``symmetric`` scenario of
    scenario_state's state and to the ``parties``' elements; the search ``box``,
    the (lo, hi) floats of ``free_parameters(spec)``; ``values``, the map from a
    point of the box to its values, a copy of one template of resolve_values;
    and a search ``objective``, or None. A CHSH atom's two angles, each over a
    full turn, leave the box: ``values`` fills them in and the objective is the
    margin there. No field refers to the spec, which is freed with its last
    reference. Pinned devices are built once; a margin builds no
    ExcitationState or BellResult."""
    name, criterion, atom, n = spec.name, spec.criterion, spec.atom, spec.n_parties - 1
    z, x, rule = _device(spec.photon_z, spec), _device(spec.photon_x, spec), CRITERIA[criterion]
    w_beta = 1.0 / math.sqrt(n + 1)  # w_state's
    names = free_parameters(spec)
    turns = [(float(spec.params[a].lo), float(spec.params[a].hi)) for a in _ANGLES] if atom else []
    reduced = criterion == "chsh" and atom and all(hi - lo >= 2.0 * math.pi for lo, hi in turns)
    axes = tuple(p for p in names if not (reduced and p in _ANGLES))
    box = tuple((float(spec.params[p].lo), float(spec.params[p].hi)) for p in axes)
    template = resolve_values(spec, dict.fromkeys(names, 0.0))

    def best_angles(values) -> float:
        """The CHSH value at the atom's best angles, written into ``values``.
        The atom's observable is (1 - eta)I + eta(cos a Z + sin a X), so the
        correlator at photon setting t is p_t + q_t cos a + r_t sin a. Of
        _chsh's choices, negating (0, 0) or (0, 1) gives atom setting 0 -D or
        D and setting 1 S, the difference and sum of the two (p, q, r); the
        other two mirror them. A choice's best is |P| + hypot(Q0, R0) +
        hypot(Q1, R1), each angle at atan2(sign(P) R, sign(P) Q)."""
        c, b, w_vac = atom_photon_amplitudes(values["theta"], values["eta_c"], n)
        sym, eta, cc = Symmetric(None, None, n, (w_vac, 1.0)), values["eta_atom"], c * c
        ops = ((1.0 - eta, (1.0, 0.0, 0.0, cc)), (eta, (1.0, 0.0, 0.0, -cc)),
               (eta, (0.0, c, c, 0.0)))
        (p0, q0, r0), (p1, q1, r1) = [[k * sym.expectation(op, t) for k, op in ops]
                                      for t in _observables(_transfers((z(values), x(values)), b))]
        s, d = (p0 + p1, q0 + q1, r0 + r1), (p0 - p1, q0 - q1, r0 - r1)
        minus, plus = s[0] - d[0], s[0] + d[0]
        top, tau = (minus, -1.0) if abs(minus) >= abs(plus) else (plus, 1.0)
        sign = -1.0 if top < 0.0 else 1.0
        for angle, (lo, hi), k, (_, q, r) in zip(_ANGLES, turns, (sign * tau, sign), (d, s)):
            values[angle] = min(hi, lo + (math.atan2(k * r, k * q) - lo) % (2.0 * math.pi))
        return abs(top) + math.hypot(s[1], s[2]) + math.hypot(d[1], d[2])

    def merge(point) -> dict:
        out = dict(template)
        out.update(zip(axes, point))
        if reduced:
            best_angles(out)
        return out

    def objective(point) -> float:
        values = dict(template)
        values.update(zip(axes, point))
        return _finite(name, criterion, best_angles(values), values) - rule.local_bound

    def parties(values) -> list:
        photon = z(values), x(values)
        return [atom_elements(values) if atom else photon] + [photon] * n

    def symmetric(values) -> Symmetric:
        if atom:  # atom_photon_state's amplitudes and weights, w_psi 1
            c, b, w_vac = atom_photon_amplitudes(values["theta"], values["eta_c"], n)
            other = _transfers((z(values), x(values)), b)
            return Symmetric(_transfers(atom_elements(values), c), other, n, (w_vac, 1.0))
        other = _transfers((z(values), x(values)), w_beta)  # party 0's are the others'
        return Symmetric(other, other, n, (0.0, 1.0))

    return _Compiled(symmetric, parties, box, merge, objective if reduced else None)


def _finite(name: str, criterion: str, value: float, values: dict) -> float:
    """The one guard of the unchecked path: a device that overflows gives NaN elements."""
    if not math.isfinite(value):
        raise ValueError(f"{name}: {criterion} value {value} is not finite at {values}")
    return value


def scenario_result(spec: ScenarioSpec, values: dict, vacuum: bool = False):
    """Evaluate the scenario's criterion: a BellResult or a ContentResult.

    A closed form reads the compiled Symmetric scenario, the one its margin
    reads; with ``vacuum`` the same devices measure the vacuum instead, every
    party in |0>. An LP criterion reads :func:`scenario_distribution`'s table
    of the scenario's own state. A device that overflows gives NaN elements,
    which an LP criterion rejects in the table and :func:`_finite` in a
    closed form. A pinned device is built from the pin.
    """
    if CRITERIA[spec.criterion].lp:
        if vacuum:
            raise ValueError(f"{spec.criterion} reads the scenario's own state, not the vacuum")
        return criterion_result(spec.criterion, scenario_distribution(spec, values))
    sym = spec._compiled.symmetric(values)
    if vacuum:  # only the channel in which no party is excited reaches the state
        sym = sym._replace(boundary=(1.0, 0.0))
    r = criterion_result(spec.criterion, sym)
    _finite(spec.name, spec.criterion, r.value, values)
    return r


def violation_margin(spec: ScenarioSpec, values: dict) -> float:
    """Positive exactly when the criterion certifies nonlocality."""
    rule = CRITERIA[spec.criterion]
    if rule.lp:
        return scenario_result(spec, values).nonlocal_content - spec.lp_tol
    value = rule.evaluate(spec._compiled.symmetric(values))
    return _finite(spec.name, spec.criterion, value, values) - rule.local_bound


_SOBOL_BITS = 30
# Joe and Kuo's primitive polynomials and initial direction numbers for
# dimensions 2 to 9 (SIAM J. Sci. Comput. 30, 2635, 2008): a ScenarioSpec has
# at most nine free parameters, four device references and five atom ones.
_SOBOL_INIT = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
               (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
               (41, (1, 1, 5, 5, 5)))


def _sobol(d: int, n: int) -> list:
    """The first ``n`` unscrambled Sobol points of [0, 1)^d in Gray-code
    order, the points of ``scipy.stats.qmc.Sobol(d, scramble=False)``."""
    if n > 1 << _SOBOL_BITS:  # checked before any point is built, as scipy does
        raise ValueError(f"at most 2**{_SOBOL_BITS} distinct start points, got {n}")
    directions = [[1 << (_SOBOL_BITS - 1 - j) for j in range(_SOBOL_BITS)]]
    for poly, init in _SOBOL_INIT[:d - 1]:
        s, m = len(init), list(init)
        for j in range(s, _SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        directions.append([mj << (_SOBOL_BITS - 1 - j) for j, mj in enumerate(m)])
    q, points = [0] * d, [[0.0] * d]
    for i in range(n - 1):
        bit = (~i & (i + 1)).bit_length() - 1  # the lowest zero bit of i
        q = [qj ^ v[bit] for qj, v in zip(q, directions)]
        points.append([qj / (1 << _SOBOL_BITS) for qj in q])
    return points[:n]


def _start_points(spec: ScenarioSpec, n_starts: int) -> list:
    """Deterministic low-discrepancy starts inside the compiled box; ``[[]]`` if it has no axis."""
    if n_starts < 1:  # with no start, a search evaluates nothing and finds nothing
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    box = spec._compiled.box
    return [[lo + u * (hi - lo) for u, (lo, hi) in zip(p, box)]
            for p in _sobol(len(box), n_starts)] if box else [[]]


class _Stop(Exception):
    """Ends a simplex run: at its cap, or with the (value, point) that ``stop`` accepted."""


def _sorted_simplex(sim: list, fsim: list) -> tuple:
    """Vertices in ``np.argsort(fsim)`` order: any sort agrees on distinct
    values, and numpy's own, not stable from four elements up, orders ties."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    if not all(fsim[i] < fsim[j] for i, j in zip(order, order[1:])):
        order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _simplex(func: Callable, x0: list, box: list, maxfev: Optional[int] = None,
             stop: Optional[Callable] = None) -> tuple:
    """The best value and vertex of a bounded Nelder-Mead run minimizing
    ``func`` over the box of (lo, hi) pairs, lo < hi: scipy 1.17's
    ``minimize(method="Nelder-Mead", bounds=...)`` step for step, capped at
    ``maxfev`` evaluations (more than n), by default (None or 0) scipy's
    200 n. With no axis (n = 0) the run is its one evaluation. With ``stop``,
    it ends at the first value that ``stop`` accepts, first vertices included,
    and returns it and its point. A run never drops its best vertex, so for a
    ``stop`` that accepts every value below one it accepts, a run would have
    ended at an accepted value anyway: stopping only saves evaluations."""
    n = len(x0)
    nfev, maxfev = 0, maxfev or 200 * max(n, 1)  # scipy's iteration cap (200 n) never binds first

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Stop
        nfev += 1
        value = func(x)
        if stop is not None and stop(value):
            raise _Stop(value, x)
        return value

    def clip(x):  # np.clip, signed zeros included
        return [(v if v < hi else hi) if v > lo else lo for v, (lo, hi) in zip(x, box)]

    sim = [clip(x0)]
    for k, c in enumerate(sim[0]):  # steps of 5%, or 0.00025 from 0, reflected into the box
        y = sim[0][:k] + [(1 + 0.05) * c if c != 0 else 0.00025] + sim[0][k + 1:]
        sim.append(clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(y, box)]))
    try:  # the first simplex, sorted twice as scipy does: the cap is above n, only a stop ends it
        sim, fsim = _sorted_simplex(*_sorted_simplex(sim, [f(x) for x in sim]))
        while nfev < maxfev:
            # fsim is sorted, NaN last, so fsim[-1] - fsim[0] is its largest |fsim[0] - v|
            if fsim[-1] - fsim[0] <= SIMPLEX_FATOL and all(
                    abs(a - b) <= SIMPLEX_XATOL for x in sim[1:] for a, b in zip(x, sim[0])):
                break
            xbar = sim[0]
            for x in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            xr = clip([2 * a - b for a, b in zip(xbar, sim[-1])])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip([3 * a - 2 * b for a, b in zip(xbar, sim[-1])])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = clip([1.5 * a - 0.5 * b if outside else 0.5 * a + 0.5 * b
                           for a, b in zip(xbar, sim[-1])])
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex; the cap may cut it short
                    for j in range(1, n + 1):
                        sim[j] = clip([a + 0.5 * (b - a) for a, b in zip(sim[0], sim[j])])
                        fsim[j] = f(sim[j])
            sim, fsim = _sorted_simplex(sim, fsim)
    except _Stop as end:
        if end.args:
            return end.args
        sim, fsim = _sorted_simplex(sim, fsim)
    # scipy reports np.min(fsim): NaN if any value is, and NaN sorts last
    return fsim[0] if fsim[-1] == fsim[-1] else fsim[-1], sim[0]


def _objective(spec: ScenarioSpec) -> Callable:
    """A search's map from a point of the compiled box to its margin: the
    compiled objective, or else violation_margin at the point's values."""
    compiled = spec._compiled
    return compiled.objective or (lambda x: violation_margin(spec, compiled.values(x)))


def _minimize_from(spec: ScenarioSpec, x0: list, stop_at_witness: bool = False,
                   maxfev: Optional[int] = None) -> tuple:
    """One bounded Nelder-Mead run from ``x0`` in the compiled box (``maxfev``:
    see :func:`_simplex`): its best margin and point. With ``stop_at_witness``
    it ends at its first margin above the guard (a witness) and returns it."""
    margin = _objective(spec)
    # The best vertex lies in the box, and minus its value is its margin.
    fun, x = _simplex(lambda x: -margin(x), x0, spec._compiled.box, maxfev,
                      (lambda f: is_violation(-f)) if stop_at_witness else None)
    return -fun, x


def optimize_free_parameters(spec: ScenarioSpec, n_starts: int = DEFAULT_STARTS) -> SearchResult:
    """Maximize the violation margin over all free parameters.

    Multi-start Nelder-Mead from an unscrambled Sobol sequence, the first best
    run winning ties, so repeated calls give bit-identical results. With no
    free parameters the one start is ``[]`` and its run a single evaluation.
    """
    margin, x = max((_minimize_from(spec, x0) for x0 in _start_points(spec, n_starts)),
                    key=itemgetter(0))
    return SearchResult(margin, spec._compiled.values(x))


def _find_witness(spec: ScenarioSpec, n_starts: int) -> Optional[list]:
    """A point of free values whose margin is above the guard (``[]`` with
    no free parameter), or None. The raw margins at the start points are
    scanned first, then simplex runs from the most promising starts, each
    ending at its first witness, so the common violated case returns quickly."""
    starts, objective = _start_points(spec, n_starts), _objective(spec)
    raw = []
    for x0 in starts:
        m = objective(x0)
        if is_violation(m):
            return x0
        raw.append(m)
    if not spec._compiled.box:  # the one start's margin was the verdict; a run would repeat it
        return None
    for idx in np.argsort(np.array(raw), kind="stable")[::-1]:
        margin, x = _minimize_from(spec, starts[idx], stop_at_witness=True)
        if is_violation(margin):
            return x
    return None


def has_violation(spec: ScenarioSpec, n_starts: int = DEFAULT_STARTS) -> bool:
    """The sign of the optimized margin: whether :func:`_find_witness` finds one."""
    return _find_witness(spec, n_starts) is not None


def _warm_witness(spec: ScenarioSpec, x0: list) -> Optional[list]:
    """The witness that ends one simplex run from ``x0`` of at most
    ``WARM_EVALS_PER_PARAM`` margins per axis of the compiled box, or None.
    With no axis, the run is one margin and gives :func:`_find_witness`'s verdict."""
    margin, x = _minimize_from(spec, x0, True, WARM_EVALS_PER_PARAM * len(spec._compiled.box))
    return x if is_violation(margin) else None


def critical_efficiency(spec: ScenarioSpec, param: str, bracket: tuple,
                        atol: float = BISECTION_ATOL,
                        n_starts: int = DEFAULT_STARTS) -> float:
    """Bisect ``param`` for the point where the optimized margin changes sign.

    Raises :class:`BracketError` when both bracket ends agree (kind "always"
    or "never"). The returned midpoint is within ``atol`` of the boundary, or
    as close as floats allow when ``atol`` is below their spacing there.

    ``hi`` gets the full start set (:func:`_find_witness`); with a witness
    there ``lo`` gets one capped run from it (:func:`_warm_witness`), else
    the full start set too. Each step makes a capped run from the newest
    witness, whose miss is provisional while a parameter is free. Once the
    bracket is narrow, the newest provisional miss gets the full start set:
    no witness there vouches for every miss (the verdict is monotone in
    ``param``), and a witness resumes the bisection, or at ``lo`` raises."""
    lo, hi = float(bracket[0]), float(bracket[1])
    # Both ends are pinned, and so checked, before either is evaluated.
    lo_spec, hi_spec = fix_parameter(spec, param, lo), fix_parameter(spec, param, hi)
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if not (math.isfinite(atol) and atol > 0.0):
        raise ValueError("atol must be finite and positive")

    def whole_bracket(violated: bool) -> BracketError:
        return BracketError(f"criterion is {'violated' if violated else 'satisfied'} on the "
                            f"whole bracket [{lo:g}, {hi:g}] of {param!r}",
                            "always" if violated else "never")

    with reusing_faces(spec.lp_tol):  # every content of the bisection is a witness test
        hi_witness = _find_witness(hi_spec, n_starts)
        lo_witness = (_find_witness(lo_spec, n_starts) if hi_witness is None
                      else _warm_witness(lo_spec, hi_witness))
        if (lo_witness is None) == (hi_witness is None):
            raise whole_bracket(lo_witness is not None)
        exact = not lo_spec._compiled.box  # no free parameter: no miss is provisional
        if lo_witness is not None:
            viol, witness, other, checked, misses = lo, lo_witness, hi, hi, []
        else:  # lo's capped run: a provisional miss unless exact
            viol, witness, other = hi, hi_witness, lo
            checked, misses = (lo, []) if exact else (None, [lo])
        while True:
            mid = 0.5 * (viol + other)
            if abs(other - viol) > atol and mid != viol and mid != other:
                found = _warm_witness(fix_parameter(spec, param, mid), witness)
                if found is not None:
                    viol, witness = mid, found
                else:
                    other = mid
                    if not exact:
                        misses.append(mid)
            elif not misses:
                return mid
            else:  # the newest provisional miss is ``other``
                point = misses.pop()
                found = _find_witness(fix_parameter(spec, param, point), n_starts)
                if found is None:  # it vouches for every older miss too
                    misses.clear()
                elif not misses and checked is None:  # popped down to lo, violated too
                    raise whole_bracket(True)
                else:
                    viol, witness, other = point, found, misses[-1] if misses else checked


def _boundary_point(task):
    fixed, x, y_name, bracket, atol, n_starts = task
    try:
        y = critical_efficiency(fixed, y_name, bracket, atol=atol, n_starts=n_starts)
        return float(x), float(y), "ok"
    except BracketError as err:
        return float(x), float("nan"), err.kind


def region_boundary(spec: ScenarioSpec, x_name: str, y_name: str,
                    x_values, y_bracket: tuple,
                    atol: float = BISECTION_ATOL,
                    n_starts: int = DEFAULT_STARTS,
                    jobs: int = 1) -> ThresholdCurve:
    """Critical ``y_name`` value over a grid of ``x_name`` values.

    Grid points are independent, so they parallelize across up to ``jobs``
    processes, no more than rows or CPUs; the row order never depends on it.
    """
    if jobs < 1:
        raise ValueError("worker count must be at least 1")
    if x_name == y_name:  # every row's bisection would overwrite its grid pin
        raise ValueError(f"the grid and the bisection both vary {x_name!r}")
    # Every pin is checked before any row runs, the grid's ends first, so a
    # grid that leaves the declared range is named by its end.
    x_values = [float(x) for x in x_values]
    ends = [(x_name, x) for x in x_values[:1] + x_values[-1:]]
    for name, value in ends + [(y_name, y) for y in y_bracket]:
        fix_parameter(spec, name, value)
    tasks = [(fix_parameter(spec, x_name, x), x, y_name, tuple(y_bracket),
              atol, n_starts) for x in x_values]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)  # a pool may start all at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = tuple(pool.map(_boundary_point, tasks))
    else:
        points = tuple(_boundary_point(t) for t in tasks)
    return ThresholdCurve(x_name, y_name, points)
