"""Single-excitation (W type) states.

Party 0 may be an atom entangled with the photonic modes; all other parties
are photonic modes in the {vacuum |0>, one photon |1>} subspace. Basis index
convention: party 0 owns the most significant bit of the register index.

Every state built here mixes the vacuum with a pure state in the span of the
N states |e_k> in which party k alone is excited: :class:`ExcitationState`
holds its amplitudes and the two weights. Its ``rho`` is the dense 2^N x 2^N
matrix, which only ``negativity`` reads.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ExcitationState:
    """w_psi |psi><psi| + w_vac |vac><vac|, psi = sum_k beta_k |e_k>.

    ``beta`` holds one amplitude per party, party 0 first. ``rho`` expands
    the description into the dense density matrix, on first use.
    """

    beta: np.ndarray
    _: KW_ONLY
    w_vac: float = 0.0
    w_psi: float = 1.0

    @property
    def n_parties(self) -> int:
        return len(self.beta)

    @cached_property
    def rho(self) -> np.ndarray:
        n = self.n_parties
        psi = np.zeros(2 ** n, dtype=complex)
        for k, b in enumerate(self.beta):
            psi[1 << (n - 1 - k)] = b
        rho = np.outer(psi, psi.conj())
        rho *= self.w_psi
        rho[0, 0] += self.w_vac
        return rho


def w_state(n_parties: int) -> ExcitationState:
    """Pure W state of ``n_parties`` photonic modes."""
    return damped_w_state(n_parties, 1.0)


def damped_w_state(n_parties: int, eta: float) -> ExcitationState:
    """W state mixed with vacuum: eta |W><W| + (1 - eta) |vac><vac|.

    Identical to sending each mode of the W state through an amplitude
    damping channel with survival probability eta.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"survival probability {eta} outside [0, 1]")
    if n_parties < 1:
        raise ValueError("need at least one party")
    return ExcitationState(np.full(n_parties, 1.0 / math.sqrt(n_parties)),
                           w_vac=1.0 - eta, w_psi=eta)


def atom_photon_state(theta: float, eta_c: float, n_modes: int) -> ExcitationState:
    """Atom entangled with a shared photonic excitation, with lossy coupling.

    The target state is cos(theta)|e>|vac> + sin(theta)|g>|W_modes>, with the
    atomic levels encoded as |e> -> |1>, |g> -> |0> on party 0. A coupling
    efficiency eta_c < 1 leaves the photon unemitted with probability
    (1 - eta_c) sin^2(theta), producing an incoherent mixture of the coupled
    branch (photon amplitude scaled by the positive root sqrt(eta_c)) and
    |g>|vac>.
    """
    if n_modes < 1:
        raise ValueError("need at least one photonic mode")
    if not 0.0 <= eta_c <= 1.0:
        raise ValueError(f"coupling efficiency {eta_c} outside [0, 1]")
    c, b, w_vac = atom_photon_amplitudes(theta, eta_c, n_modes)
    beta = np.full(n_modes + 1, b)
    beta[0] = c
    return ExcitationState(beta, w_vac=w_vac)


def atom_photon_amplitudes(theta: float, eta_c: float, n_modes: int) -> tuple:
    """The atom's amplitude, each mode's and the vacuum weight of
    ``atom_photon_state``, as floats; unchecked."""
    c, s = math.cos(theta), math.sin(theta)
    return c, math.sqrt(eta_c) * s * (1.0 / math.sqrt(n_modes)), (1.0 - eta_c) * s * s
