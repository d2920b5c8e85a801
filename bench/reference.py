"""Independent references for the benchmark's output checks.

Nothing here imports wbell. Every quantity is rebuilt the slow, obvious way
from the physics: kets as explicit vectors, POVM elements from n . sigma
eigenprojectors, probabilities and correlators as traces against full
Kronecker products, the displaced counter from a truncated Fock space, and
the EPR2 local weight from an LP over explicitly enumerated deterministic
strategies. Party 0 owns the most significant bit of every register index;
outcome 0 carries correlator value +1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import linprog

FOCK_CUTOFF = 40

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# States


def ket(bits) -> np.ndarray:
    """Computational basis vector; bits[0] is party 0."""
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int("".join(str(b) for b in bits), 2)] = 1.0
    return v


def w_ket(n: int) -> np.ndarray:
    """One excitation spread evenly over n modes."""
    v = np.zeros(2 ** n, dtype=complex)
    for k in range(n):
        v += ket([1 if j == k else 0 for j in range(n)])
    return v / math.sqrt(n)


def w_rho(n: int) -> np.ndarray:
    v = w_ket(n)
    return np.outer(v, v.conj())


def vacuum_rho(n: int) -> np.ndarray:
    v = ket([0] * n)
    return np.outer(v, v.conj())


def atom_photon_rho(theta: float, eta_c: float, n_modes: int) -> np.ndarray:
    """cos(theta)|e>|vac> + sqrt(eta_c) sin(theta)|g>|W>, plus the photon
    that never left the emitter, (1 - eta_c) sin^2(theta) |g>|vac>."""
    excited = np.kron(ket([1]), ket([0] * n_modes))
    coupled = (math.cos(theta) * excited
               + math.sqrt(eta_c) * math.sin(theta) * np.kron(ket([0]), w_ket(n_modes)))
    ground = np.kron(ket([0]), ket([0] * n_modes))
    return (np.outer(coupled, coupled.conj())
            + (1.0 - eta_c) * math.sin(theta) ** 2 * np.outer(ground, ground.conj()))


# ---------------------------------------------------------------------------
# Devices: tuples of POVM elements in outcome order


def eigenprojectors(polar: float, azimuth: float = 0.0) -> tuple:
    """(+1, -1) eigenprojectors of n . sigma."""
    n_sigma = (math.sin(polar) * math.cos(azimuth) * SIGMA_X
               + math.sin(polar) * math.sin(azimuth) * SIGMA_Y
               + math.cos(polar) * SIGMA_Z)
    return (I2 + n_sigma) / 2.0, (I2 - n_sigma) / 2.0


def binary_device(polar: float, azimuth: float, eta_minus: float, eta_plus: float) -> tuple:
    """Each eigenstate gives its own outcome with the stated probability:
    the +1 eigenstate outcome 0 with eta_plus, the -1 eigenstate outcome 1
    with eta_minus."""
    plus, minus = eigenprojectors(polar, azimuth)
    return (eta_plus * plus + (1.0 - eta_minus) * minus,
            eta_minus * minus + (1.0 - eta_plus) * plus)


def counter(eta: float) -> tuple:
    """Photon counter on the z axis: one photon clicks (outcome 1) with
    probability eta, vacuum never clicks."""
    return binary_device(0.0, 0.0, eta, 1.0)


def symmetric_x(eta: float, phi: float = 0.0) -> tuple:
    return binary_device(math.pi / 2.0, phi, eta, eta)


def homodyne(phi: float, eta_hom: float) -> tuple:
    """Sign-binned quadrature: right with probability (1 + sqrt(2 eta/pi))/2."""
    right = 0.5 * (1.0 + math.sqrt(2.0 * eta_hom / math.pi))
    return symmetric_x(right, phi)


def displaced_noclick_block(alpha: float, eta: float) -> np.ndarray:
    """{|0>, |1>} block of D(alpha) [sum_n (1-eta)^n |n><n|] D(alpha)^dag."""
    a = np.diag(np.sqrt(np.arange(1, FOCK_CUTOFF + 1)), 1)
    d = expm(alpha * (a.T - a))
    noclick = np.diag((1.0 - eta) ** np.arange(FOCK_CUTOFF + 1))
    return (d @ noclick @ d.T)[:2, :2]


def displaced_response(alpha: float, eta: float) -> tuple:
    """Displaced counter kept only as per-eigenstate click statistics on the
    x axis: the +1 eigenstate clicks (outcome 0), the -1 eigenstate stays
    silent (outcome 1)."""
    e0 = displaced_noclick_block(alpha, eta)
    plus, minus = eigenprojectors(math.pi / 2.0, 0.0)
    silent_minus = float(np.trace(minus @ e0).real)
    click_plus = 1.0 - float(np.trace(plus @ e0).real)
    clip = lambda x: min(max(x, 0.0), 1.0)  # noqa: E731
    return binary_device(math.pi / 2.0, 0.0, clip(silent_minus), clip(click_plus))


def atom_device(polar: float, eta_atom: float) -> tuple:
    """Atomic readout along a polar axis in the x-z plane; the -1 eigenstate
    is seen with probability eta_atom, the +1 eigenstate always."""
    return binary_device(polar, 0.0, eta_atom, 1.0)


def lossy_three(polar: float, azimuth: float, eta: float) -> tuple:
    """Projective measurement that reports 'no click' (outcome 2) with
    probability 1 - eta whatever the state."""
    plus, minus = eigenprojectors(polar, azimuth)
    return (eta * plus, eta * minus, (1.0 - eta) * I2)


# ---------------------------------------------------------------------------
# Scenarios: the state and the per-party (setting 0, setting 1) devices


def scenario(preset: str, n: int, p: dict) -> tuple:
    """(rho, parties, criterion) for one preset with every parameter given."""
    photonic = {
        "fig1": ("cabello", lambda: counter(p["eta_z"]), lambda: symmetric_x(p["eta_x"])),
        "fig5": ("lp2", lambda: counter(p["eta_z"]), lambda: symmetric_x(p["eta_x"])),
        "garbarino3": ("lp3", lambda: lossy_three(0.0, 0.0, p["eta_z"]),
                       lambda: lossy_three(math.pi / 2.0, 0.0, p["eta_x"])),
        "cabello-homodyne": ("cabello", lambda: counter(p["eta_spd"]),
                             lambda: homodyne(0.0, 1.0)),
        "cabello-displacement": ("cabello", lambda: counter(p["eta_spd"]),
                                 lambda: displaced_response(p["alpha"], p["eta_spd"])),
        "cabello-ad": ("cabello", lambda: counter(p["eta"]),
                       lambda: symmetric_x(0.5 * (1.0 + math.sqrt(p["eta"])))),
    }
    atomic = {
        "fig3": ("wwwzb", "homodyne"),
        "fig4-homodyne": ("chsh", "homodyne"),
        "chsh-homodyne": ("chsh", "homodyne"),
        "fig4-displacement": ("chsh", "displacement"),
        "chsh-displacement": ("chsh", "displacement"),
    }
    if preset in photonic:
        criterion, z, x = photonic[preset]
        return w_rho(n), [(z(), x())] * n, criterion
    criterion, readout = atomic[preset]
    rho = atom_photon_rho(p["theta"], p["eta_c"], n - 1)
    atom = (atom_device(p["a_polar_0"], p["eta_atom"]),
            atom_device(p["a_polar_1"], p["eta_atom"]))
    x = (homodyne(p["phi_x"], p["eta_hom"]) if readout == "homodyne"
         else displaced_response(p["alpha"], p["eta_spd"]))
    return rho, [atom] + [(counter(p["eta_spd"]), x)] * (n - 1), criterion


def expectation(rho: np.ndarray, op: np.ndarray) -> float:
    """Tr[rho op] = sum_ij rho_ij op_ji."""
    return float(np.sum(rho * op.T).real)


def probability(rho: np.ndarray, parties, settings, outcomes) -> float:
    op = np.eye(1, dtype=complex)
    for pair, s, o in zip(parties, settings, outcomes):
        op = np.kron(op, pair[s][o])
    return expectation(rho, op)


def correlator(rho: np.ndarray, parties, settings) -> float:
    """xi(s) = Tr[rho (x)_k (M_0 - M_1)] for two-outcome devices."""
    op = np.eye(1, dtype=complex)
    for pair, s in zip(parties, settings):
        op = np.kron(op, pair[s][0] - pair[s][1])
    return expectation(rho, op)


def distribution(rho: np.ndarray, parties) -> dict:
    """Every P(o|s), keyed by (settings string, outcomes string)."""
    n, k = len(parties), len(parties[0][0])
    return {("".join(map(str, s)), "".join(map(str, o))): probability(rho, parties, s, o)
            for s in itertools.product(range(2), repeat=n)
            for o in itertools.product(range(k), repeat=n)}


# ---------------------------------------------------------------------------
# Bell functionals: (value, local bound)


def cabello(rho: np.ndarray, parties) -> tuple:
    n = len(parties)
    z, x = (0,) * n, (1,) * n
    one_at = lambda i: tuple(1 if k == i else 0 for k in range(n))  # noqa: E731
    value = probability(rho, parties, z, (0,) * n)
    value += sum(probability(rho, parties, z, one_at(i)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if i != j:
                s = tuple(1 if k in (i, j) else 0 for k in range(n))
                value -= probability(rho, parties, s, one_at(i))
    value -= probability(rho, parties, x, (0,) * n)
    value -= probability(rho, parties, x, (1,) * n)
    return value, 0.0


def full_correlator_sum(rho: np.ndarray, parties) -> tuple:
    """sum_r |2^-N sum_s (-1)^(r.s) xi(s)|, local bound 1."""
    n = len(parties)
    settings = list(itertools.product(range(2), repeat=n))
    xi = {s: correlator(rho, parties, s) for s in settings}
    total = 0.0
    for r in settings:
        signed = sum((-1) ** sum(a * b for a, b in zip(r, s)) * xi[s] for s in settings)
        total += abs(signed) / 2 ** n
    return total, 1.0


def chsh(rho: np.ndarray, parties) -> tuple:
    """Largest |E00 + E01 + E10 + E11 - 2 E_st| over the four choices of the
    negated term, local bound 2."""
    xi = [correlator(rho, parties, s) for s in itertools.product(range(2), repeat=2)]
    return max(abs(sum(xi) - 2.0 * xi[k]) for k in range(4)), 2.0


FUNCTIONALS = {"cabello": cabello, "wwwzb": full_correlator_sum, "chsh": chsh}


def bell_value(preset: str, n: int, params: dict) -> tuple:
    rho, parties, criterion = scenario(preset, n, params)
    return FUNCTIONALS[criterion](rho, parties)


def ideal_cabello(n: int, state: str) -> float:
    """Perfect detectors on the W state or on vacuum."""
    rho = vacuum_rho(n) if state == "vacuum" else w_rho(n)
    return cabello(rho, [(counter(1.0), symmetric_x(1.0))] * n)[0]


# ---------------------------------------------------------------------------
# Closed forms and published figures


def cabello_ideal(n: int) -> float:
    return 1.0 - n / 2.0 ** (n - 1)


def cabello_vacuum(n: int) -> float:
    return 1.0 - n * (n - 1) / 4.0 - 2.0 ** (1 - n)


def damping_threshold(n: int) -> float:
    """Shared loss eta mixes the W state with vacuum, eta W + (1 - eta) vac,
    so the value is linear in eta; its root lies between the two closed
    forms above."""
    w, vac = cabello_ideal(n), cabello_vacuum(n)
    return -vac / (w - vac)


HOMODYNE_THRESHOLD_N3 = 1.5 - 2.0 / math.pi
PUBLISHED_THRESHOLDS_N3 = {"cabello-homodyne": 0.863, "cabello-displacement": 0.864}
PUBLISHED_CHSH = {"chsh-homodyne": 2.56, "chsh-displacement": 2.64}
FIG5_N5_THRESHOLD = 1.0 / 3.0


def garbarino3_line(eta_z: float) -> float:
    """Three-outcome locality boundary eta_x = 2 (1 - eta_z)."""
    return 2.0 * (1.0 - eta_z)


# ---------------------------------------------------------------------------
# EPR2 local weight and negativity


def parse_distribution(text: str) -> tuple:
    """(n, k, {(settings, outcomes): p}) from 'settings outcomes p' lines."""
    table = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            s, o, p = line.split()
            table[(s, o)] = float(p)
    n = len(next(iter(table))[0])
    k = 1 + max(int(d) for _, o in table for d in o)
    return n, k, table


def local_weight(n: int, k: int, table: dict) -> float:
    """max sum(q) subject to sum_l q_l D_l(o|s) <= P(o|s), q >= 0, over every
    deterministic strategy l (one outcome per party and setting)."""
    rows = {}
    for s in itertools.product(range(2), repeat=n):
        for o in itertools.product(range(k), repeat=n):
            rows[(s, o)] = len(rows)
    per_party = list(itertools.product(range(k), repeat=2))
    strategies = list(itertools.product(per_party, repeat=n))
    r_idx, c_idx = [], []
    for col, strategy in enumerate(strategies):
        for s in itertools.product(range(2), repeat=n):
            o = tuple(strategy[party][s[party]] for party in range(n))
            r_idx.append(rows[(s, o)])
            c_idx.append(col)
    a = sp.csr_matrix((np.ones(len(r_idx)), (r_idx, c_idx)),
                      shape=(len(rows), len(strategies)))
    b = np.zeros(len(rows))
    for (s, o), i in rows.items():
        b[i] = max(table["".join(map(str, s)), "".join(map(str, o))], 0.0)
    res = linprog(-np.ones(len(strategies)), A_ub=a, b_ub=b, bounds=(0.0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return min(1.0, max(0.0, -res.fun))


def negativity(rho: np.ndarray, n_left: int, n_right: int) -> float:
    """Twice the magnitude of the negative spectrum of the partial transpose
    over the first n_left qubits, built entry by entry."""
    dl, dr = 2 ** n_left, 2 ** n_right
    pt = np.zeros_like(rho)
    for i, j, a, b in itertools.product(range(dl), range(dr), range(dl), range(dr)):
        pt[a * dr + j, i * dr + b] = rho[i * dr + j, a * dr + b]
    evs = np.linalg.eigvalsh(pt)
    return float(-2.0 * evs[evs < 0.0].sum())
