"""Single-excitation (W type) states as density matrices.

Party 0 may be an atom entangled with the photonic modes; all other parties
are photonic modes in the {vacuum |0>, one photon |1>} subspace. Basis index
convention: party 0 owns the most significant bit of the register index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateDensity:
    """Density matrix of an ``n_parties`` qubit register.

    ``atom_flag`` marks party 0 as atomic (informational; the numerics treat
    every party as a qubit).
    """

    n_parties: int
    rho: np.ndarray
    atom_flag: bool = False


def w_vector(n_parties: int) -> np.ndarray:
    """State vector of the single excitation shared evenly over n parties."""
    if n_parties < 1:
        raise ValueError("need at least one party")
    v = np.zeros(2 ** n_parties, dtype=complex)
    amp = 1.0 / math.sqrt(n_parties)
    for k in range(n_parties):
        v[1 << (n_parties - 1 - k)] = amp
    return v


def w_state(n_parties: int) -> StateDensity:
    """Pure W state of ``n_parties`` photonic modes."""
    v = w_vector(n_parties)
    return StateDensity(n_parties, np.outer(v, v.conj()))


def damped_w_state(n_parties: int, eta: float) -> StateDensity:
    """W state mixed with vacuum: eta |W><W| + (1 - eta) |vac><vac|.

    Identical to sending each mode of the W state through an amplitude
    damping channel with survival probability eta.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"survival probability {eta} outside [0, 1]")
    d = 2 ** n_parties
    v = w_vector(n_parties)
    rho = eta * np.outer(v, v.conj())
    rho[0, 0] += 1.0 - eta
    assert rho.shape == (d, d)
    return StateDensity(n_parties, rho)


def atom_photon_state(theta: float, eta_c: float, n_modes: int) -> StateDensity:
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
    n = n_modes + 1
    d = 2 ** n
    c, s = math.cos(theta), math.sin(theta)
    coupled = np.zeros(d, dtype=complex)
    coupled[1 << (n - 1)] = c
    coupled[: 2 ** n_modes] += math.sqrt(eta_c) * s * w_vector(n_modes)
    rho = np.outer(coupled, coupled.conj())
    rho[0, 0] += (1.0 - eta_c) * s * s
    return StateDensity(n, rho, atom_flag=True)
