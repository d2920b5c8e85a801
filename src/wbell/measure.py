"""Qubit measurement models with detection errors, as explicit POVMs.

Outcome convention used throughout the project: Bell outcome 0 carries
correlator value +1 and is associated with the +1 eigenstate of the measured
axis; outcome 1 carries value -1. A ``TwoOutcomePOVM`` therefore exposes its
elements in outcome order ``(m_down, m_up)``: the "up" element weights the -1
eigenstate, which for the z axis is the excited / one-photon state |1> (the
state a photon counter fires on).

Each ``*_povm`` builder checks the elements that its ``_*_elements`` function
returns in outcome order; the scenario path in ``wbell.search``, whose inputs
are already checked, calls the latter directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import hermitian_eigenvalues, is_hermitian

POVM_TOL = 1e-10

HOMODYNE_IDEAL_CORRECT = 0.5 * (1.0 + math.sqrt(2.0 / math.pi))


@dataclass(frozen=True)
class BlochAxis:
    """Measurement axis on the Bloch sphere (observable n . sigma)."""

    polar: float
    azimuth: float = 0.0

    def direction(self) -> tuple[float, float, float]:
        sp = math.sin(self.polar)
        return (sp * math.cos(self.azimuth), sp * math.sin(self.azimuth), math.cos(self.polar))

    def eigenvector_down(self) -> np.ndarray:
        """The +1 eigenstate of n . sigma (outcome 0)."""
        half = self.polar / 2.0
        return np.array([math.cos(half), math.sin(half) * np.exp(1j * self.azimuth)], dtype=complex)

    def eigenvector_up(self) -> np.ndarray:
        """The -1 eigenstate of n . sigma (outcome 1)."""
        half = self.polar / 2.0
        return np.array([math.sin(half), -math.cos(half) * np.exp(1j * self.azimuth)], dtype=complex)

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(down, up) projectors onto the +1 / -1 eigenstates."""
        d = self.eigenvector_down()
        u = self.eigenvector_up()
        return np.outer(d, d.conj()), np.outer(u, u.conj())


Z_AXIS = BlochAxis(0.0, 0.0)
X_AXIS = BlochAxis(math.pi / 2.0, 0.0)


def equatorial_axis(phi: float) -> BlochAxis:
    """Equatorial axis cos(phi) sigma_x + sin(phi) sigma_y."""
    return BlochAxis(math.pi / 2.0, phi)


def _check_elements(label: str, *elements: np.ndarray) -> None:
    for m in elements:
        if m.shape != (2, 2) or not is_hermitian(m, POVM_TOL):
            raise ValueError(f"{label}: POVM elements must be 2x2 Hermitian")
        if hermitian_eigenvalues(m)[0] < -POVM_TOL:
            raise ValueError(f"{label}: POVM element has a negative eigenvalue")
    if np.abs(sum(elements) - np.eye(2)).max() > POVM_TOL:
        raise ValueError(f"{label}: POVM elements do not sum to the identity")


@dataclass(frozen=True)
class TwoOutcomePOVM:
    """Binary measurement {m_up, m_down} with m_up + m_down = I.

    ``m_up`` is the element weighting the -1 eigenstate of the measured axis
    and maps to Bell outcome 1; ``m_down`` maps to outcome 0 (value +1).
    """

    m_up: np.ndarray
    m_down: np.ndarray
    label: str = ""

    def __post_init__(self):
        _check_elements(self.label or "TwoOutcomePOVM", self.m_up, self.m_down)

    @property
    def n_outcomes(self) -> int:
        return 2

    def elements(self) -> tuple[np.ndarray, ...]:
        """Elements in Bell outcome order (outcome 0, outcome 1)."""
        return (self.m_down, self.m_up)

    def observable(self) -> np.ndarray:
        """The +/-1 valued observable sum_o (-1)^o M_o = m_down - m_up."""
        return self.m_down - self.m_up

    def flipped(self) -> "TwoOutcomePOVM":
        """Same device with the outcome labels swapped."""
        return TwoOutcomePOVM(self.m_down, self.m_up, self.label + "/flip")


@dataclass(frozen=True)
class ThreeOutcomePOVM:
    """Lossy projective measurement keeping no-click as a third outcome.

    Outcome order: 0 -> m_plus (+1 eigenstate), 1 -> m_minus, 2 -> m_noclick.
    """

    m_plus: np.ndarray
    m_minus: np.ndarray
    m_noclick: np.ndarray
    label: str = ""

    def __post_init__(self):
        _check_elements(self.label or "ThreeOutcomePOVM", *self.elements())

    @property
    def n_outcomes(self) -> int:
        return 3

    def elements(self) -> tuple[np.ndarray, ...]:
        return (self.m_plus, self.m_minus, self.m_noclick)


def _efficiency_elements(axis: BlochAxis, eta_up: float, eta_down: float) -> tuple:
    for name, eta in (("eta_up", eta_up), ("eta_down", eta_down)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{name}={eta} outside [0, 1]")
    p_down, p_up = axis.projectors()
    return (eta_down * p_down + (1.0 - eta_up) * p_up,
            eta_up * p_up + (1.0 - eta_down) * p_down)


def efficiency_povm(axis: BlochAxis, eta_up: float, eta_down: float, label: str = "") -> TwoOutcomePOVM:
    """Two-efficiency error model for a binary measurement along ``axis``.

    M_up = eta_up P_up + (1 - eta_down) P_down and
    M_down = eta_down P_down + (1 - eta_up) P_up, with P_up / P_down the axis
    eigenprojectors. eta_up (eta_down) is the probability that the up (down)
    eigenstate produces the up (down) outcome. With eta_down = 1 on the z axis
    this is a photon counter of efficiency eta_up: vacuum never clicks.
    """
    m_down, m_up = _efficiency_elements(axis, eta_up, eta_down)
    return TwoOutcomePOVM(m_up, m_down, label or "efficiency")


def _homodyne_elements(phi: float, eta_hom: float) -> tuple:
    if not 0.0 <= eta_hom <= 1.0:
        raise ValueError(f"eta_hom={eta_hom} outside [0, 1]")
    e = 0.5 * (1.0 + math.sqrt(2.0 * eta_hom / math.pi))
    return _efficiency_elements(equatorial_axis(phi), e, e)


def homodyne_povm(phi: float, eta_hom: float, label: str = "homodyne") -> TwoOutcomePOVM:
    """Sign-binned quadrature measurement approximating an equatorial Pauli.

    Binning the quadrature at phase phi identifies the equatorial eigenstates
    correctly with probability (1 + sqrt(2 eta_hom / pi)) / 2, symmetric in
    both outcomes; eta_hom is the homodyne detection efficiency.
    """
    m_down, m_up = _homodyne_elements(phi, eta_hom)
    return TwoOutcomePOVM(m_up, m_down, label)


def _displaced_spd_elements(alpha: float, eta_spd: float) -> tuple:
    if not 0.0 <= eta_spd <= 1.0:
        raise ValueError(f"eta_spd={eta_spd} outside [0, 1]")
    a, eta = float(alpha), float(eta_spd)
    pref = math.exp(-eta * a * a)
    # Scaled in Python floats: where eta^2 a^2 overflows, pref is 0 and the
    # entry becomes NaN, for the finite check to reject, with no warning.
    off = pref * (eta * a)
    e0 = np.array([[pref, off], [off, pref * (eta * eta * a * a + 1.0 - eta)]], dtype=complex)
    return np.eye(2) - e0, e0


def displaced_spd_povm(alpha: float, eta_spd: float, label: str = "displaced-spd") -> TwoOutcomePOVM:
    """Displacement followed by a photon counter, binned as an x measurement.

    In the {|0>, |1>} Fock basis the no-click element is

        E0 = exp(-eta a^2) [[1, eta a], [eta a, eta^2 a^2 + 1 - eta]]

    with a = alpha the (real) displacement amplitude and eta = eta_spd the
    counter efficiency. A click maps to Bell outcome 0 and no-click to outcome
    1: at alpha = -1 and eta = 1 the +1 eigenstate of sigma_x always clicks,
    while the -1 eigenstate stays silent with probability 2/e.
    """
    click, noclick = _displaced_spd_elements(alpha, eta_spd)
    return TwoOutcomePOVM(noclick, click, label)


def _lossy_threeoutcome_elements(axis: BlochAxis, eta: float) -> tuple:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    p_down, p_up = axis.projectors()
    return eta * p_down, eta * p_up, (1.0 - eta) * np.eye(2)


def lossy_threeoutcome_povm(axis: BlochAxis, eta: float, label: str = "lossy3") -> ThreeOutcomePOVM:
    """Projective measurement along ``axis`` that fails to fire with prob 1 - eta."""
    return ThreeOutcomePOVM(*_lossy_threeoutcome_elements(axis, eta), label)
