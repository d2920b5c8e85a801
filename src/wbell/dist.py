"""Joint outcome distributions, and the transfer algebra of single-excitation
states, for N parties with two settings each.

A scenario assigns each party a pair of POVMs (setting 0, setting 1; for the
photonic presets setting 0 is the z-type and setting 1 the x-type device).
In the single-excitation subspace Tr[rho (x)_k O_k] is a product of one
commuting transfer per party, four scalars each (see ``times``), closed by
the state's two weights. ``joint_distribution`` and ``table`` broadcast
that product into the full table P(o|s) = Tr[rho (x)_k M_{o_k|s_k}] of an
:class:`ExcitationState`, indexed by the settings bits then the outcome
digits. The closed-form criteria need no table: when every party but the
first shares one device pair and one amplitude (:class:`Symmetric`) an entry
or correlator depends only on the first party's operator and on how many of
the others hold each of theirs, and costs O(1) scalar work through ``power``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .states import ExcitationState

ENTRY_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
NONSIGNALLING_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementAssignment:
    """Per-party (setting 0, setting 1) POVM pairs, uniform outcome cardinality."""

    parties: tuple

    def __post_init__(self):
        if len(self.parties) == 0:
            raise ValueError("assignment needs at least one party")
        cards = set()
        for pair in self.parties:
            if len(pair) != 2:
                raise ValueError("each party needs exactly two settings")
            cards.update(p.n_outcomes for p in pair)
        if len(cards) != 1:
            raise ValueError("mixed outcome cardinalities in one assignment")

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    @classmethod
    def uniform(cls, setting0, setting1, n_parties: int) -> "MeasurementAssignment":
        """Every party measures the same two devices."""
        return cls(tuple((setting0, setting1) for _ in range(n_parties)))


@dataclass(frozen=True)
class JointDistribution:
    """Dense conditional table, shape (2,)*N + (n_outcomes,)*N."""

    n_parties: int
    n_outcomes: int
    table: np.ndarray

    def validate(self) -> None:
        n, k = self.n_parties, self.n_outcomes
        if self.table.shape != (2,) * n + (k,) * n:
            raise ValueError("table shape does not match scenario")
        # Negated so that NaN, which fails every comparison, is rejected too.
        if not (self.table.min() >= -ENTRY_TOL and self.table.max() <= 1.0 + ENTRY_TOL):
            raise ValueError("probabilities outside [0, 1]")
        sums = self.table.reshape((2,) * n + (k ** n,)).sum(axis=-1)
        if np.abs(sums - 1.0).max() > NORMALIZATION_TOL:
            raise ValueError("a settings block is not normalized")
        for party in range(n):
            marg = self.table.sum(axis=n + party)
            if np.abs(np.diff(marg, axis=party)).max() > NONSIGNALLING_TOL:
                raise ValueError(f"marginal of the others depends on party {party}'s setting")

    def to_text(self) -> str:
        """One line per (settings, outcomes) pair, probability at 17 significant digits."""
        n, k = self.n_parties, self.n_outcomes
        lines = []
        for s in product(range(2), repeat=n):
            for o in product(range(k), repeat=n):
                ss = "".join(map(str, s))
                oo = "".join(map(str, o))
                lines.append(f"{ss} {oo} {self.table[s + o]:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "JointDistribution":
        entries = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed distribution line: {raw!r}")
            if set(parts[0]) - {"0", "1"}:
                raise ValueError(f"settings digits must be 0 or 1: {raw!r}")
            if set(parts[1]) - set("0123456789"):
                raise ValueError(f"outcome digits must be 0 to 9: {raw!r}")
            if (parts[0], parts[1]) in entries:
                raise ValueError(f"distribution text lists {parts[0]} {parts[1]} twice")
            try:
                entries[(parts[0], parts[1])] = float(parts[2])
            except ValueError:
                raise ValueError(f"probability must be a number: {raw!r}") from None
        if not entries:
            raise ValueError("empty distribution text")
        n = len(next(iter(entries))[0])
        k = max(int(d) for _, o in entries for d in o) + 1
        if len(entries) != 2 ** n * k ** n:
            raise ValueError("distribution text does not list every (settings, outcomes) pair")
        probabilities = np.empty((2,) * n + (k,) * n, dtype=float)
        for (ss, oo), p in entries.items():
            if len(ss) != n or len(oo) != n:
                raise ValueError("inconsistent string lengths in distribution text")
            probabilities[tuple(int(c) for c in ss + oo)] = p
        dist = cls(n, k, probabilities)
        dist.validate()
        return dist


def joint_distribution(state: ExcitationState, assignment: MeasurementAssignment) -> JointDistribution:
    """Full table of outcome probabilities for every settings string."""
    n = state.n_parties
    if assignment.n_parties != n:
        raise ValueError(f"assignment has {assignment.n_parties} parties, state has {n}")
    dist = table(state, [[povm.elements for povm in pair] for pair in assignment.parties])
    dist.validate()
    return dist


# The transfer algebra. Expanding rho = w_psi |psi><psi| + w_vac |vac><vac|
# over psi's components, Tr[rho (x)_k O_k] is a product of per-party 4x4
# transfer matrices over four channels: 0 nothing placed, 1 the bra's
# excitation placed (a factor beta_k^* O_k[1, 0]), 2 the ket's (a factor
# beta_k O_k[0, 1]), 3 both. A party where neither is placed contributes
# O_k[0, 0], and one that takes both |beta_k|^2 O_k[1, 1]. psi has no vacuum
# amplitude, so only channels 0 and 3 close: 0 with w_vac, 3 with w_psi.
# Each matrix is aI + bX + cY + dXY with X = E01 + E23 and Y = E02 + E13, so
# X^2 = Y^2 = 0 and XY = YX = E03: the matrices commute, a 4-tuple
# (a, b, c, d) stands for one, and the row (1, 0, 0, 0) times it is the tuple.

ONE = (1.0, 0.0, 0.0, 0.0)


def times(*factors) -> tuple:
    """Product of transfers: four multiply-adds per factor but ONE, which
    changes no entry and is skipped."""
    a, b, c, d = factors[0]
    for factor in factors[1:]:
        if factor is not ONE:
            e, f, g, h = factor
            a, b, c, d = a * e, a * f + b * e, a * g + c * e, a * h + d * e + b * g + c * f
    return a, b, c, d


def power(t, m: int) -> tuple:
    """t^m = (a^m, m a^(m-1) b, m a^(m-1) c, m a^(m-1) d + m (m-1) a^(m-2) b c)."""
    if m < 2:
        return t if m else ONE
    a, b, c, d = t
    lower = a ** (m - 2)
    upper = lower * a
    top = m * upper
    return upper * a, top * b, top * c, top * d + m * (m - 1) * lower * b * c


class Symmetric(NamedTuple):
    """A single-excitation state under two-setting devices, every party but
    the first sharing one device pair and one amplitude: ``first[s][o]`` and
    ``other[s][o]`` are the transfers of the element of outcome o under
    setting s, of party 0 and of each of the ``n`` others, and ``boundary``,
    the state's (w_vac, w_psi), closes a product of transfers."""

    first: list
    other: list
    n: int
    boundary: tuple

    def expectation(self, first, others) -> float:
        """Tr[rho (x)_k O_k] when party 0's operator has the transfer
        ``first`` and the others' operators multiply to ``others``."""
        a, b, c, d = first
        e, f, g, h = others
        w0, w3 = self.boundary
        return (a * e * w0 + (a * h + d * e + b * g + c * f) * w3).real


def _transfers(pair, beta) -> list:
    """The transfers [s][o] of the elements ``pair[s][o]`` at a party of
    amplitude ``beta``."""
    conj = beta.conjugate()
    both = (conj * beta).real
    return [[(m00, conj * m10, beta * m01, both * m11) for (m00, m01), (m10, m11) in elements]
            for elements in pair]


def table(state: ExcitationState, parties) -> JointDistribution:
    """The table of ``joint_distribution``, unchecked; ``parties[j][s]`` holds party
    j's POVM elements for setting s. Its transfers lie along axes j and N + j, so
    ``times`` broadcasts them; the last party's act on the boundary first."""
    n, k = len(parties), len(parties[0][0])
    placed = []
    for j, pair in enumerate(parties):
        shape = [4] + [1] * (2 * n)
        shape[1 + j], shape[1 + n + j] = 2, k
        placed.append(np.moveaxis(np.array(_transfers(pair, state.beta.item(j))), -1, 0)
                      .reshape(shape))
    *rest, (a, b, c, d) = placed
    e, f, g, h = times(*rest) if rest else ONE
    w0, w3 = state.w_vac, state.w_psi
    entries = e * (a * w0 + d * w3) + f * (c * w3) + g * (b * w3) + h * (a * w3)
    return JointDistribution(n, k, np.ascontiguousarray(entries.real))
