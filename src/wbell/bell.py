"""Bell inequality functionals on joint distributions and full correlators.

Settings convention: setting 0 is the z-type measurement and setting 1 the
x-type one. Outcome 0 carries correlator value +1. The full-correlator
functionals read xi(s), an array of shape (2,)*N indexed by the settings bits.

Each ``*_symmetric`` evaluator gives the same value, as a float, from the
transfers of a :class:`~wbell.dist.Symmetric` scenario, reading only the
distinct entries or correlators with their multiplicities, in O(N) scalar
work; ``wbell.search.CRITERIA`` holds its bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import JointDistribution, Symmetric, power, times

VIOLATION_GUARD = 1e-9

# wwwzb_symmetric weighs its terms by C(N - 1, w), which is a float up to
# N - 1 = 1029.
WWWZB_MAX_PARTIES = 1030


def is_violation(margin: float) -> bool:
    """The one verdict rule: a margin certifies nonlocality only above
    VIOLATION_GUARD, so rounding noise on a flat boundary never does."""
    return bool(margin > VIOLATION_GUARD)


@dataclass(frozen=True)
class BellResult:
    """Value of a Bell functional with its local and algebraic ceilings."""

    value: float
    local_bound: float
    algebraic_max: float
    violated: bool

    @classmethod
    def make(cls, value: float, local_bound: float, algebraic_max: float) -> "BellResult":
        return cls(float(value), float(local_bound), float(algebraic_max),
                   is_violation(value - local_bound))


def cabello_value(p: JointDistribution) -> BellResult:
    """Single-excitation inequality with local bound 0 and algebraic max 1.

    value = P(all 0 | all z) + sum_i P(only i fires | all z)
          - sum_{i != j} P(outcome 1 at i, 0 elsewhere | x at i and j, z elsewhere)
          - P(all 0 | all x) - P(all 1 | all x).

    The positive terms are probabilities of mutually exclusive events under
    the all-z setting, so 1 bounds the value over every distribution.
    """
    n = p.n_parties
    if p.n_outcomes != 2:
        raise ValueError("the inequality is defined for two-outcome scenarios")
    if n < 3:
        raise ValueError("the inequality needs at least three parties")
    # Flat table indices (settings bits, then outcome bits, party 0 first)
    # of the terms in the order of the formula above.
    bit = [1 << (n - 1 - i) for i in range(n)]
    ones = (1 << n) - 1
    plus = [0] + bit
    minus = [(bit[i] | bit[j]) << n | bit[i] for i in range(n) for j in range(n) if j != i]
    terms = p.table.reshape(-1)[plus + minus + [ones << n, ones << n | ones]].tolist()
    # Added one term at a time in that order, so that the value does not
    # depend on how numpy or sum() would group the terms.
    value = terms[0]
    for term in terms[1:len(plus)]:
        value += term
    for term in terms[len(plus):]:
        value -= term
    return BellResult.make(value, 0.0, 1.0)


def _harmonic_transform(xi: np.ndarray) -> np.ndarray:
    """xi_hat(r) = 2^-N sum_s (-1)^(r.s) xi(s)."""
    t = np.array(xi, dtype=float)
    n = t.ndim
    for ax in range(n):
        # Axis ax as the middle axis of a (2^ax, 2, 2^(n-ax-1)) view.
        v = t.reshape(2 ** ax, 2, -1)
        t = np.empty_like(v)
        t[:, 0] = v[:, 0] + v[:, 1]
        t[:, 1] = v[:, 0] - v[:, 1]
    return t.reshape(np.shape(xi)) / 2.0 ** n


def wwwzb_value(xi: np.ndarray) -> BellResult:
    """Aggregate full-correlator criterion: sum_r |xi_hat(r)| with local bound 1.

    Every local deterministic strategy evaluates to exactly 1, and any
    violation of a full-correlator Bell inequality for two settings per party
    pushes the sum above 1. The algebraic_max 2^((N-1)/2) recorded here is the
    quantum ceiling, reported for information only; it is not a bound over all
    non-signalling distributions, so it must not feed the nonlocal-content
    lower bound.
    """
    n = xi.ndim
    value = float(np.abs(_harmonic_transform(xi)).sum())
    return BellResult.make(value, 1.0, 2.0 ** ((n - 1) / 2.0))


def mermin3_value(xi: np.ndarray) -> BellResult:
    """Three-party Mermin combination xi(001) + xi(010) + xi(100) - xi(111).

    Local bound 2, algebraic max 4. The sign convention is fixed so that the
    value reaches 4 on (|000> + |111>)/sqrt(2) with setting 0 measuring
    sigma_y and setting 1 the equatorial axis at azimuth pi.
    """
    if xi.ndim != 3:
        raise ValueError("this functional is specific to three parties")
    return BellResult.make(_mermin3(xi.reshape(-1).tolist()), 2.0, 4.0)


def chsh_value(xi: np.ndarray) -> BellResult:
    """Best CHSH combination over the eight sign/setting relabelings."""
    if xi.ndim != 2:
        raise ValueError("CHSH is a two-party functional")
    return BellResult.make(_chsh(xi.reshape(-1).tolist()), 2.0, 4.0)


# The two functionals on a flat list of correlators, the settings bits
# read as a binary number, party 0's the most significant.

def _mermin3(xi: list) -> float:
    return xi[1] + xi[2] + xi[4] - xi[7]


def _chsh(xi: list) -> float:
    total = sum(xi)
    return max([abs(total - 2.0 * x) for x in xi])


def _observables(pair) -> list:
    """Transfers of A = M_0 - M_1 per setting, from those of the elements."""
    return [(p0 - q0, p1 - q1, p2 - q2, p3 - q3)
            for (p0, p1, p2, p3), (q0, q1, q2, q3) in pair]


def _correlators_by_weight(sym: Symmetric) -> list:
    """xi[s][w]: the full correlator at party 0's setting s with w of the
    others at setting 1, the rest at setting 0."""
    first, (z, x) = _observables(sym.first), _observables(sym.other)
    n = sym.n
    others = [times(power(z, n - w), power(x, w)) for w in range(n + 1)]
    return [[sym.expectation(a, t) for t in others] for a in first]


def mermin3_symmetric(sym: Symmetric) -> float:
    # xi(s0 s1 s2) is xi[s0][s1 + s2].
    (a0, a1, a2), (b0, b1, b2) = _correlators_by_weight(sym)
    return _mermin3([a0, a1, a1, a2, b0, b1, b1, b2])


def chsh_symmetric(sym: Symmetric) -> float:
    # xi(s0 s1) is xi[s0][s1].
    xi = _correlators_by_weight(sym)
    return _chsh(xi[0] + xi[1])


def _harmonics(pair) -> tuple:
    """U(0) = (T_0 + T_1)/2 and U(1) = (T_0 - T_1)/2 of a party's observable
    transfers T_s."""
    t0, t1 = _observables(pair)
    return (tuple((p + q) / 2 for p, q in zip(t0, t1)),
            tuple((p - q) / 2 for p, q in zip(t0, t1)))


def wwwzb_symmetric(sym: Symmetric) -> float:
    """``wwwzb_value`` from 2(n + 1) harmonics: xi_hat(r) is the expectation of
    the product of U(r_k) over the parties, so it depends only on party 0's
    bit and on the weight w of the others' bits, which C(n, w) strings share.
    The loop writes out ``times`` and ``Symmetric.expectation``, operation for
    operation."""
    (a0, b0, c0, d0), (a1, b1, c1, d1) = _harmonics(sym.first)
    even, odd = _harmonics(sym.other)
    w0, w3 = sym.boundary
    n, value = sym.n, 0
    for w in range(n + 1):
        e, f, g, h = power(even, n - w)
        if w:  # times by power(odd, w)
            p, q, r, s = power(odd, w)
            e, f, g, h = e * p, e * q + f * p, e * r + g * p, e * s + h * p + f * r + g * q
        value += math.comb(n, w) * (
            abs((a0 * e * w0 + (a0 * h + d0 * e + b0 * g + c0 * f) * w3).real)
            + abs((a1 * e * w0 + (a1 * h + d1 * e + b1 * g + c1 * f) * w3).real))
    return value


def cabello_symmetric(sym: Symmetric) -> float:
    """``cabello_value`` from eight entries with their multiplicities: by
    whether party 0 is the one that fires or measures x, and how many of the
    n others do."""
    (f_z0, f_z1), (f_x0, f_x1) = sym.first
    (z0, z1), (x0, x1) = sym.other
    n, p = sym.n, sym.expectation
    rest = power(z0, n - 1)
    all_z0 = times(z0, rest)
    value = (p(f_z0, all_z0) + p(f_z1, all_z0) + n * p(f_z0, times(z1, rest))
             - n * p(f_x1, times(x0, rest)) - n * p(f_x0, times(x1, rest))
             - n * (n - 1) * p(f_z0, times(x1, x0, power(z0, n - 2)))
             - p(f_x0, power(x0, n)) - p(f_x1, power(x1, n)))
    return value

