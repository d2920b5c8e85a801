"""Qubit measurement models with detection errors, as explicit POVMs.

Outcome convention used throughout the project: Bell outcome 0 carries
correlator value +1 and is associated with the +1 eigenstate of the measured
axis; outcome 1 carries value -1. A :class:`POVM` holds its elements in
outcome order, (down, up) for a binary device on an axis: the "up" element
weights the -1 eigenstate, which for the z axis is the excited / one-photon
state |1> (the state a photon counter fires on).

``FAMILIES`` is the one table of photonic devices. Its element functions
give each element as a 2x2 nested tuple of Python scalars, which the
scenario path in ``wbell.search``, whose inputs ``ScenarioSpec`` already
checked, reads directly. ``family_povm`` and ``efficiency_povm`` check their
scalar inputs, and :class:`POVM` converts the elements to arrays and checks
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import hermitian_eigenvalues, is_hermitian

POVM_TOL = 1e-10


@dataclass(frozen=True)
class BlochAxis:
    """Measurement axis on the Bloch sphere (observable n . sigma)."""

    polar: float
    azimuth: float = 0.0

    def projectors(self) -> tuple:
        """(down, up) projectors onto the +1 / -1 eigenstates, as arrays: a
        perfect detector's elements."""
        elements = _efficiency_elements(self.polar, self.azimuth, 1.0, 1.0)
        return tuple(np.array(m) for m in elements)


EQUATOR = math.pi / 2.0
Z_AXIS = BlochAxis(0.0, 0.0)
X_AXIS = BlochAxis(EQUATOR, 0.0)


def equatorial_axis(phi: float) -> BlochAxis:
    """Equatorial axis cos(phi) sigma_x + sin(phi) sigma_y."""
    return BlochAxis(EQUATOR, phi)


def _check_elements(label: str, *elements: np.ndarray) -> None:
    for m in elements:
        if m.shape != (2, 2) or not is_hermitian(m):
            raise ValueError(f"{label}: POVM elements must be 2x2 Hermitian")
        if hermitian_eigenvalues(m)[0] < -POVM_TOL:
            raise ValueError(f"{label}: POVM element has a negative eigenvalue")
    if np.abs(sum(elements) - np.eye(2)).max() > POVM_TOL:
        raise ValueError(f"{label}: POVM elements do not sum to the identity")


def _check_probability(**values: float) -> None:
    for name, p in values.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} outside [0, 1]")


@dataclass(frozen=True)
class POVM:
    """Checked measurement: 2x2 elements, one per outcome in Bell outcome
    order, Hermitian and positive and summing to the identity. Elements given
    as nested sequences are stored as complex arrays."""

    elements: tuple
    label: str = ""

    def __post_init__(self):
        elements = tuple(np.asarray(m, dtype=complex) for m in self.elements)
        object.__setattr__(self, "elements", elements)
        _check_elements(self.label or "POVM", *elements)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def _efficiency_elements(polar: float, azimuth: float, eta_up: float, eta_down: float) -> tuple:
    """(M_down, M_up) with M_down = eta_down P_down + (1 - eta_up) P_up and its
    complement M_up = I - M_down = eta_up P_up + (1 - eta_down) P_down, on the
    axis BlochAxis(polar, azimuth), written out entry by entry.

    With c = cos(polar/2), s = sin(polar/2) and o = c s e^(-i azimuth), the
    projectors are P_down = [[c^2, o], [o*, s^2]] and P_up = [[s^2, -o], [-o*, c^2]].
    """
    half = polar / 2.0
    c, s = math.cos(half), math.sin(half)
    miss_up = 1.0 - eta_up
    scale = (eta_down - miss_up) * c * s  # M_down[0, 1] = (eta_down - miss_up) o
    off = complex(scale * math.cos(azimuth), -scale * math.sin(azimuth))
    off_c = off.conjugate()
    c2, s2 = c * c, s * s
    down0, down1 = eta_down * c2 + miss_up * s2, eta_down * s2 + miss_up * c2
    return ((down0, off), (off_c, down1)), ((1.0 - down0, -off), (-off_c, 1.0 - down1))


def efficiency_povm(axis: BlochAxis, eta_up: float, eta_down: float) -> POVM:
    """Two-efficiency error model for a binary measurement along ``axis``.

    M_up = eta_up P_up + (1 - eta_down) P_down and
    M_down = eta_down P_down + (1 - eta_up) P_up, with P_up / P_down the axis
    eigenprojectors. eta_up (eta_down) is the probability that the up (down)
    eigenstate produces the up (down) outcome. With eta_down = 1 on the z axis
    this is a photon counter of efficiency eta_up: vacuum never clicks.
    """
    _check_probability(eta_up=eta_up, eta_down=eta_down)
    return POVM(_efficiency_elements(axis.polar, axis.azimuth, eta_up, eta_down), "efficiency")


def _homodyne_elements(eff: float, aux: float) -> tuple:
    """Sign-binned quadrature at phase ``aux``, approximating an equatorial Pauli.

    Binning identifies the equatorial eigenstates correctly with probability
    (1 + sqrt(2 eff / pi)) / 2, symmetric in both outcomes; ``eff`` is the
    homodyne detection efficiency.
    """
    e = 0.5 * (1.0 + math.sqrt(2.0 * eff / math.pi))
    return _efficiency_elements(EQUATOR, aux, e, e)


def _displaced_elements(eff: float, aux: float) -> tuple:
    """Displacement followed by a photon counter, binned as an x measurement.

    In the {|0>, |1>} Fock basis the no-click element is

        E0 = exp(-eta a^2) [[1, eta a], [eta a, eta^2 a^2 + 1 - eta]]

    with a = ``aux`` the (real) displacement amplitude and eta = ``eff`` the
    counter efficiency. A click maps to Bell outcome 0 and no-click to outcome
    1: at a = -1 and eta = 1 the +1 eigenstate of sigma_x always clicks,
    while the -1 eigenstate stays silent with probability 2/e.
    """
    a, eta = float(aux), float(eff)
    pref = math.exp(-eta * a * a)
    # In Python floats: where eta^2 a^2 overflows, pref is 0 and the entry
    # becomes NaN, for the finite check to reject, with no warning.
    off = pref * (eta * a)
    last = pref * (eta * eta * a * a + 1.0 - eta)
    return ((1.0 - pref, -off), (-off, 1.0 - last)), ((pref, off), (off, last))


def _displaced_response_elements(eff: float, aux: float) -> tuple:
    """Diagonal response model of displacement followed by on/off detection.

    Keeps only the per-eigenstate click statistics of the displaced counter:
    the x eigenstates respond with probabilities read off the exact no-click
    element, and the POVM is rebuilt as a two-efficiency error model on the x
    axis. Unlike "displaced" this drops the coherence between the two
    eigenstates, which is how threshold studies usually tabulate the device.
    """
    damp = math.exp(-eff * aux * aux)
    try:
        up = 0.5 * damp * ((1.0 - eff * aux) ** 2 + 1.0 - eff)
        down = 1.0 - 0.5 * damp * ((1.0 + eff * aux) ** 2 + 1.0 - eff)
    except OverflowError:
        # (eff aux)^2 beyond float range: NaN elements, which the finite
        # check on the criterion value rejects.
        nan = ((math.nan, math.nan), (math.nan, math.nan))
        return nan, nan
    up = min(max(up, 0.0), 1.0)
    down = min(max(down, 0.0), 1.0)
    return _efficiency_elements(EQUATOR, 0.0, up, down)


def _ad_x_elements(eff: float, aux: float) -> tuple:
    """Equatorial measurement after amplitude damping of transmission ``eff``:
    the symmetric model at (1 + sqrt(eff)) / 2."""
    sym_eff = 0.5 * (1.0 + math.sqrt(eff))
    return _efficiency_elements(EQUATOR, aux, sym_eff, sym_eff)


def _lossy3_elements(polar: float, azimuth: float, eta: float) -> tuple:
    """Projective measurement along BlochAxis(polar, azimuth) that fails to
    fire with prob 1 - eta; outcomes +1 eigenstate, -1 eigenstate, no click."""
    miss = 1.0 - eta
    down, up = (tuple(tuple(eta * v for v in row) for row in p)
                for p in _efficiency_elements(polar, azimuth, 1.0, 1.0))
    return down, up, ((miss, 0.0), (0.0, miss))


# The one table of photonic devices: family -> (outcome count, its elements
# in outcome order, as nested tuples, from the efficiency ``eff`` and the
# knob ``aux``), built unchecked. ``aux`` is the azimuth of "sym",
# "homodyne", "ad_x" and "lossy3_x", the displacement amplitude of
# "displaced" and "displaced_response", and unused by "spd" and "lossy3_z".
FAMILIES = {
    "spd": (2, lambda eff, aux: _efficiency_elements(0.0, 0.0, eff, 1.0)),
    "sym": (2, lambda eff, aux: _efficiency_elements(EQUATOR, aux, eff, eff)),
    "homodyne": (2, _homodyne_elements),
    "displaced": (2, _displaced_elements),
    "displaced_response": (2, _displaced_response_elements),
    "ad_x": (2, _ad_x_elements),
    "lossy3_z": (3, lambda eff, aux: _lossy3_elements(0.0, 0.0, eff)),
    "lossy3_x": (3, lambda eff, aux: _lossy3_elements(EQUATOR, aux, eff)),
}


def family_povm(family: str, eff: float, aux: float = 0.0) -> POVM:
    """The checked device of one ``FAMILIES`` entry: ``eff`` must lie in
    [0, 1], and :class:`POVM` checks the elements."""
    if family not in FAMILIES:
        raise ValueError(f"unknown measurement family {family!r}")
    _check_probability(eff=eff)
    return POVM(FAMILIES[family][1](eff, aux), family)
