"""Bell inequality functionals on joint distributions and full correlators.

Settings convention: setting 0 is the z-type measurement and setting 1 the
x-type one. Outcome 0 carries correlator value +1. The full-correlator
functionals read xi(s), an array of shape (2,)*N indexed by the settings bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import JointDistribution

VIOLATION_GUARD = 1e-9


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


@lru_cache(maxsize=None)
def _cabello_indices(n: int) -> tuple:
    """Flat table indices (settings bits, then outcome bits, party 0 first) of
    cabello's terms in the order of its formula, read-only, and how many of
    them come first with a plus sign."""
    bit = [1 << (n - 1 - i) for i in range(n)]
    ones = (1 << n) - 1
    plus = [0] + bit
    minus = [(bit[i] | bit[j]) << n | bit[i] for i in range(n) for j in range(n) if j != i]
    indices = np.array(plus + minus + [ones << n, ones << n | ones])
    indices.flags.writeable = False
    return indices, len(plus)


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
    indices, n_plus = _cabello_indices(n)
    terms = p.table.reshape(-1)[indices].tolist()
    # Added one term at a time in the order of the formula above, so that
    # the value does not depend on how numpy or sum() would group the terms.
    value = terms[0]
    for term in terms[1:n_plus]:
        value += term
    for term in terms[n_plus:]:
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
    value = float(xi[0, 0, 1] + xi[0, 1, 0] + xi[1, 0, 0] - xi[1, 1, 1])
    return BellResult.make(value, 2.0, 4.0)


def chsh_value(xi: np.ndarray) -> BellResult:
    """Best CHSH combination over the eight sign/setting relabelings."""
    if xi.ndim != 2:
        raise ValueError("CHSH is a two-party functional")
    xi = xi.reshape(-1)
    total = xi.sum()
    value = float(max(abs(total - 2.0 * xi[k]) for k in range(4)))
    return BellResult.make(value, 2.0, 4.0)

