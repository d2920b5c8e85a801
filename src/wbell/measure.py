"""Qubit measurement models with detection errors, as explicit POVMs.

Outcome convention used throughout the project: Bell outcome 0 carries
correlator value +1 and is associated with the +1 eigenstate of the measured
axis; outcome 1 carries value -1. A :class:`POVM` holds its elements in
outcome order, (down, up) for a binary device on an axis: the "up" element
weights the -1 eigenstate, which for the z axis is the excited / one-photon
state |1> (the state a photon counter fires on).

Each ``*_povm`` builder checks its scalar inputs and the elements that its
``_*_elements`` function returns in outcome order; the scenario path in
``wbell.search``, whose inputs are already checked, calls the latter directly.
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


def _check_probability(**values: float) -> None:
    for name, p in values.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} outside [0, 1]")


@dataclass(frozen=True)
class POVM:
    """Checked measurement: 2x2 elements, one per outcome in Bell outcome
    order, Hermitian and positive and summing to the identity."""

    elements: tuple
    label: str = ""

    def __post_init__(self):
        _check_elements(self.label or "POVM", *self.elements)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def _efficiency_elements(axis: BlochAxis, eta_up: float, eta_down: float) -> tuple:
    p_down, p_up = axis.projectors()
    return (eta_down * p_down + (1.0 - eta_up) * p_up,
            eta_up * p_up + (1.0 - eta_down) * p_down)


def efficiency_povm(axis: BlochAxis, eta_up: float, eta_down: float, label: str = "") -> POVM:
    """Two-efficiency error model for a binary measurement along ``axis``.

    M_up = eta_up P_up + (1 - eta_down) P_down and
    M_down = eta_down P_down + (1 - eta_up) P_up, with P_up / P_down the axis
    eigenprojectors. eta_up (eta_down) is the probability that the up (down)
    eigenstate produces the up (down) outcome. With eta_down = 1 on the z axis
    this is a photon counter of efficiency eta_up: vacuum never clicks.
    """
    _check_probability(eta_up=eta_up, eta_down=eta_down)
    return POVM(_efficiency_elements(axis, eta_up, eta_down), label or "efficiency")


def _homodyne_elements(phi: float, eta_hom: float) -> tuple:
    e = 0.5 * (1.0 + math.sqrt(2.0 * eta_hom / math.pi))
    return _efficiency_elements(equatorial_axis(phi), e, e)


def homodyne_povm(phi: float, eta_hom: float, label: str = "homodyne") -> POVM:
    """Sign-binned quadrature measurement approximating an equatorial Pauli.

    Binning the quadrature at phase phi identifies the equatorial eigenstates
    correctly with probability (1 + sqrt(2 eta_hom / pi)) / 2, symmetric in
    both outcomes; eta_hom is the homodyne detection efficiency.
    """
    _check_probability(eta_hom=eta_hom)
    return POVM(_homodyne_elements(phi, eta_hom), label)


def _displaced_spd_elements(alpha: float, eta_spd: float) -> tuple:
    a, eta = float(alpha), float(eta_spd)
    pref = math.exp(-eta * a * a)
    # Scaled in Python floats: where eta^2 a^2 overflows, pref is 0 and the
    # entry becomes NaN, for the finite check to reject, with no warning.
    off = pref * (eta * a)
    e0 = np.array([[pref, off], [off, pref * (eta * eta * a * a + 1.0 - eta)]], dtype=complex)
    return np.eye(2) - e0, e0


def displaced_spd_povm(alpha: float, eta_spd: float, label: str = "displaced-spd") -> POVM:
    """Displacement followed by a photon counter, binned as an x measurement.

    In the {|0>, |1>} Fock basis the no-click element is

        E0 = exp(-eta a^2) [[1, eta a], [eta a, eta^2 a^2 + 1 - eta]]

    with a = alpha the (real) displacement amplitude and eta = eta_spd the
    counter efficiency. A click maps to Bell outcome 0 and no-click to outcome
    1: at alpha = -1 and eta = 1 the +1 eigenstate of sigma_x always clicks,
    while the -1 eigenstate stays silent with probability 2/e.
    """
    _check_probability(eta_spd=eta_spd)
    return POVM(_displaced_spd_elements(alpha, eta_spd), label)


def _lossy_threeoutcome_elements(axis: BlochAxis, eta: float) -> tuple:
    p_down, p_up = axis.projectors()
    return eta * p_down, eta * p_up, (1.0 - eta) * np.eye(2)


def lossy_threeoutcome_povm(axis: BlochAxis, eta: float, label: str = "lossy3") -> POVM:
    """Projective measurement along ``axis`` that fails to fire with prob
    1 - eta; outcomes +1 eigenstate, -1 eigenstate, no click."""
    _check_probability(eta=eta)
    return POVM(_lossy_threeoutcome_elements(axis, eta), label)
