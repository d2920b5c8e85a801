"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: dense Kronecker
loops, the dense density matrix contracted as a site tensor, scipy matrix
exponentials, explicit Kraus sums, scipy's own Nelder-Mead and Sobol points.
Agreement between these and the fast package routines is what the oracle
tests assert.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import expm
from scipy.optimize import Bounds, linprog, minimize
from scipy.stats import qmc

from wbell.dist import JointDistribution, Symmetric, _transfers
from wbell.search import fix_parameter, has_violation

FOCK_CUTOFF = 40
VERTEX_CAP = 10 ** 6
OPERATOR_ATOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def tensor_product(factors) -> np.ndarray:
    """Kronecker product of square matrices, leftmost factor most significant."""
    if len(factors) == 0:
        raise ValueError("tensor_product needs at least one factor")
    out = None
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError("tensor_product factors must be square matrices")
        out = f if out is None else np.kron(out, f)
    return out


def assert_valid_povm(elements):
    """Hermitian, positive semidefinite 2x2 elements that sum to the identity."""
    total = np.zeros((2, 2), dtype=complex)
    for m in map(np.asarray, elements):
        np.testing.assert_allclose(m, m.conj().T, atol=OPERATOR_ATOL)
        assert np.linalg.eigvalsh(m).min() > -1e-10
        total = total + m
    np.testing.assert_allclose(total, np.eye(2), atol=OPERATOR_ATOL)


def eigenvector_down(axis) -> np.ndarray:
    """The +1 eigenstate (cos(polar/2), sin(polar/2) e^(i azimuth)) of a
    BlochAxis's n . sigma (outcome 0)."""
    half = axis.polar / 2.0
    return np.array([math.cos(half), math.sin(half) * np.exp(1j * axis.azimuth)], dtype=complex)


def eigenvector_up(axis) -> np.ndarray:
    """The -1 eigenstate of a BlochAxis's n . sigma (outcome 1)."""
    half = axis.polar / 2.0
    return np.array([math.sin(half), -math.cos(half) * np.exp(1j * axis.azimuth)], dtype=complex)


def outer_projectors(axis) -> tuple:
    """(down, up) projectors of a BlochAxis as outer products of its eigenvectors."""
    d, u = eigenvector_down(axis), eigenvector_up(axis)
    return np.outer(d, d.conj()), np.outer(u, u.conj())


def outer_efficiency_elements(axis, eta_up: float, eta_down: float) -> tuple:
    """The two-efficiency elements eta_down P_down + (1 - eta_up) P_up and
    eta_up P_up + (1 - eta_down) P_down, from ``outer_projectors``."""
    p_down, p_up = outer_projectors(axis)
    return (eta_down * p_down + (1.0 - eta_up) * p_up,
            eta_up * p_up + (1.0 - eta_down) * p_down)


def cabello_loop_value(p) -> float:
    """The cabello functional of a two-outcome JointDistribution, read entry
    by entry with tuple indices in the order of its formula."""
    n, t = p.n_parties, p.table
    all_z, all_x, zeros = (0,) * n, (1,) * n, (0,) * n
    value = float(t[all_z + zeros])
    for i in range(n):
        value += t[all_z + tuple(1 if k == i else 0 for k in range(n))]
    for i in range(n):
        e_i = tuple(1 if k == i else 0 for k in range(n))
        for j in range(n):
            if j != i:
                value -= t[tuple(1 if k in (i, j) else 0 for k in range(n)) + e_i]
    value -= t[all_x + zeros]
    value -= t[all_x + (1,) * n]
    return float(value)


def validate_state(state, check_psd: bool = True) -> None:
    """Raise ValueError unless ``state.rho`` is a density matrix of its parties."""
    d = 2 ** state.n_parties
    rho = state.rho
    if rho.shape != (d, d):
        raise ValueError(f"rho shape {rho.shape} does not match {state.n_parties} parties")
    if abs(complex(np.trace(rho)) - 1.0) > TRACE_TOL:
        raise ValueError("state trace is not 1")
    if np.abs(rho - rho.conj().T).max() > 1e-12:
        raise ValueError("state is not Hermitian")
    if check_psd and np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() < -PSD_TOL:
        raise ValueError("state has a negative eigenvalue")


def nonlocal_content_lower_bound(r) -> float:
    """EPR2 lower bound (value - local) / (algebraic - local), clipped to [0, 1].

    Only meaningful when ``algebraic_max`` bounds the functional over all
    non-signalling distributions (true for the linear functionals cabello,
    mermin3 and chsh).
    """
    span = r.algebraic_max - r.local_bound
    if span <= 1e-12:
        raise ValueError("degenerate functional: algebraic max equals the local bound")
    return float(min(1.0, max(0.0, (r.value - r.local_bound) / span)))


@dataclass(frozen=True)
class LocalVertex:
    """Deterministic local strategy: one outcome per (party, setting)."""

    outcomes: tuple

    @property
    def n_parties(self) -> int:
        return len(self.outcomes)

    def table(self, n_outcomes: int) -> np.ndarray:
        """Dense deterministic distribution, shape (2,)*N + (n_outcomes,)*N."""
        n = self.n_parties
        t = np.zeros((2,) * n + (n_outcomes,) * n)
        for s in product(range(2), repeat=n):
            o = tuple(self.outcomes[k][s[k]] for k in range(n))
            t[s + o] = 1.0
        return t


def enumerate_vertices(n_parties: int, n_outcomes: int) -> list:
    """All (n_outcomes^2)^N deterministic strategies, lexicographic order."""
    if n_parties < 1:
        raise ValueError("need at least one party")
    if n_outcomes < 2:
        raise ValueError("need at least two outcomes")
    count = (n_outcomes ** 2) ** n_parties
    if count > VERTEX_CAP:
        raise ValueError(f"vertex count {count} exceeds the cap {VERTEX_CAP}")
    per_party = list(product(range(n_outcomes), repeat=2))
    return [LocalVertex(choice) for choice in product(per_party, repeat=n_parties)]


def w_vector(n_parties: int) -> np.ndarray:
    """State vector of the single excitation shared evenly over n parties,
    party 0 on the most significant bit."""
    if n_parties < 1:
        raise ValueError("need at least one party")
    v = np.zeros(2 ** n_parties, dtype=complex)
    amp = 1.0 / math.sqrt(n_parties)
    for k in range(n_parties):
        v[1 << (n_parties - 1 - k)] = amp
    return v


def amplitude_damping_kraus(eta: float):
    """Kraus pair for one-qubit amplitude damping that keeps |1> with
    probability eta (decay probability 1 - eta)."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(eta)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(1.0 - eta)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def dephasing_kraus(scale: float):
    """Kraus pair for phase damping that multiplies coherences by scale."""
    k0 = np.sqrt(0.5 * (1.0 + scale)) * np.eye(2, dtype=complex)
    k1 = np.sqrt(0.5 * (1.0 - scale)) * np.diag([1.0, -1.0]).astype(complex)
    return [k0, k1]


def apply_channel(rho: np.ndarray, kraus, site: int, n_sites: int) -> np.ndarray:
    """Apply a one-qubit channel to one site of an n-qubit density matrix."""
    out = np.zeros_like(rho, dtype=complex)
    for k in kraus:
        factors = [np.eye(2, dtype=complex)] * n_sites
        factors[site] = k
        full = tensor_product(factors)
        out += full @ rho @ full.conj().T
    return out


def apply_channel_everywhere(rho: np.ndarray, kraus, n_sites: int) -> np.ndarray:
    for site in range(n_sites):
        rho = apply_channel(rho, kraus, site, n_sites)
    return rho


def fock_noclick_block(alpha: float, eta: float, n_max: int = FOCK_CUTOFF) -> np.ndarray:
    """No-click element of a displaced on/off detector, from first principles.

    Build D(alpha) = exp(alpha (a^dag - a)) in a truncated number basis, wrap
    the lossy no-click operator sum_n (1-eta)^n |n><n| as D N D^dag, and
    return the {|0>, |1>} block.
    """
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    d = expm(alpha * (a.T - a))
    noclick = np.diag((1.0 - eta) ** np.arange(n_max + 1))
    return (d @ noclick @ d.T)[:2, :2]


def brute_force_distribution(rho: np.ndarray, party_settings) -> np.ndarray:
    """Outcome table from nothing but kron products and trace loops.

    party_settings[k][s] is the tuple of POVM elements (one per outcome) of
    party k under setting s. Returns an array of shape
    (2,)*n + (n_outcomes,)*n indexed by settings then outcomes.
    """
    n = len(party_settings)
    n_out = len(party_settings[0][0])
    table = np.zeros((2,) * n + (n_out,) * n)
    for s_flat in range(2 ** n):
        settings = [(s_flat >> (n - 1 - k)) & 1 for k in range(n)]
        for o_flat in range(n_out ** n):
            rem, outcomes = o_flat, []
            for _ in range(n):
                rem, o = divmod(rem, n_out)
                outcomes.append(o)
            outcomes = outcomes[::-1]
            op = tensor_product([party_settings[k][settings[k]][outcomes[k]]
                                 for k in range(n)])
            table[tuple(settings) + tuple(outcomes)] = np.trace(rho @ op).real
    return table


def site_tensor(rho: np.ndarray, n: int) -> np.ndarray:
    """Reshape rho[i_vec, j_vec] into a (4,)*n tensor with axis order (i_k, j_k)."""
    t = rho.reshape((2,) * (2 * n))
    order = [ax for k in range(n) for ax in (k, n + k)]
    return t.transpose(order).reshape((4,) * n)


def dense_distribution(state, parties):
    """The JointDistribution of an ExcitationState from its dense
    2^N x 2^N ``rho``, contracted party by party as a (4,)^N site tensor.

    ``parties[k][s]`` holds party k's POVM elements for setting s, in
    outcome order. Any state and any devices; unchecked.
    """
    n = state.n_parties
    k = len(parties[0][0])
    t = site_tensor(state.rho, n)
    for pair in parties:
        g = np.empty((2, k, 4), dtype=complex)
        for s in (0, 1):
            for o, el in enumerate(pair[s]):
                g[s, o] = np.asarray(el).T.reshape(4)
        t = np.tensordot(t, g, axes=([0], [2]))
    order = [2 * k_ for k_ in range(n)] + [2 * k_ + 1 for k_ in range(n)]
    return JointDistribution(n, k, np.ascontiguousarray(t.transpose(order).real))


def brute_force_correlators(rho: np.ndarray, party_settings) -> np.ndarray:
    """Full correlators xi(s) = sum_o (-1)^(sum_k o_k) P(o|s) of the
    two-outcome ``brute_force_distribution``, shape (2,)*n."""
    n = len(party_settings)
    table = brute_force_distribution(rho, party_settings).reshape(2 ** n, 2 ** n)
    parity = np.array([(-1.0) ** bin(o).count("1") for o in range(2 ** n)])
    return (table @ parity).reshape((2,) * n)


def excitation_correlators(state, parties) -> np.ndarray:
    """The full correlators xi(s) of an ExcitationState under two-outcome
    devices, shape (2,)*N, from a product of per-party 4x4 transfer matrices.

    ``parties[k][s]`` holds party k's POVM elements for setting s. Each
    party may have its own devices and amplitude. Expanding
    rho = w_psi |psi><psi| + w_vac |vac><vac| over psi's components, xi(s) is
    a product over parties of transfer matrices over four channels: 0 nothing
    placed, 1 the bra's excitation placed (a factor beta_k^* A_k[1, 0]), 2 the
    ket's (a factor beta_k A_k[0, 1]), 3 both. A party where neither is
    placed contributes A_k[0, 0], and one that takes both |beta_k|^2 A_k[1, 1].
    psi has no vacuum amplitude, so the boundary vector closes channel 0 with
    w_vac, channel 3 with w_psi and channels 1 and 2 with zero.
    """
    n = state.n_parties
    obs = np.array([[np.subtract(el[0], el[1]) for el in pair] for pair in parties])
    beta = np.asarray(state.beta)[:, None]
    transfer = np.zeros((n, 2, 4, 4), dtype=complex)
    diagonal = np.arange(4)
    transfer[..., diagonal, diagonal] = obs[..., 0, 0, None]
    transfer[..., 0, 1] = transfer[..., 2, 3] = beta.conj() * obs[..., 1, 0]
    transfer[..., 0, 2] = transfer[..., 1, 3] = beta * obs[..., 0, 1]
    transfer[..., 0, 3] = (beta.conj() * beta) * obs[..., 1, 1]
    # Row r holds the channel amplitudes of one settings string of the
    # parties placed so far, party by party from the last; the newest
    # party's setting is the most significant bit.
    rows = np.empty((2 ** n, 4), dtype=complex)
    rows[0] = (1.0, 0.0, 0.0, 0.0)
    m = 1
    for k in range(n - 1, -1, -1):
        rows[m:2 * m] = rows[:m] @ transfer[k, 1]
        rows[:m] = rows[:m] @ transfer[k, 0]
        m *= 2
    boundary = np.array([state.w_vac, 0.0, 0.0, state.w_psi])
    return (rows @ boundary).real.reshape((2,) * n)


def symmetric_form(state, first, other) -> Symmetric:
    """The wbell.dist.Symmetric form of an ExcitationState, built from its
    public fields and dist._transfers rather than by the compiled spec: party
    0 measures the (setting 0, setting 1) elements ``first`` with amplitude
    ``beta[0]``, and every other party ``other`` with amplitude ``beta[-1]``."""
    beta = state.beta
    return Symmetric(_transfers(first, beta.item(0)), _transfers(other, beta.item(-1)),
                     len(beta) - 1, (state.w_vac, state.w_psi))


def full_correlators(p) -> np.ndarray:
    """xi(s) = sum_o (-1)^(sum_k o_k) P(o|s) of a two-outcome
    JointDistribution, outcome 0 valued +1, shape (2,)*n."""
    if p.n_outcomes != 2:
        raise ValueError("full correlators are defined for two-outcome scenarios")
    n = p.n_parties
    flat = p.table.reshape(2 ** n, 2 ** n)
    parity = np.array([(-1.0) ** bin(i).count("1") for i in range(2 ** n)])
    return (flat @ parity).reshape((2,) * n)


def damping_threshold(n: int) -> float:
    """Closed-form critical efficiency of the symmetric damping scheme."""
    return (8.0 - 2.0 ** (n + 2) + 2.0 ** n * n * (n - 1)) / (
        (n - 1) * (2.0 ** n * n - 8.0))


def enumerated_local_weight(table: np.ndarray, n: int, k: int):
    """EPR2 local weight over all (k^2)^n deterministic strategies.

    One dense column per vertex, ``enumerate_vertices(n, k)[i].table(k)``
    flattened, and plain ``linprog`` with tightened tolerances. Returns the
    weight and the dense matrix, rows in the order of ``table.reshape(-1)``.
    """
    a = np.stack([v.table(k).reshape(-1) for v in enumerate_vertices(n, k)], axis=1)
    res = linprog(-np.ones(a.shape[1]), A_ub=a, b_ub=table.reshape(-1),
                  bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(res.message)
    return -res.fun, a


def scipy_simplex(func, x0, box, xatol: float, fatol: float):
    """scipy's bounded Nelder-Mead minimizing ``func``, which takes a list of
    floats, over the box of (lo, hi) pairs: its OptimizeResult."""
    lo, hi = zip(*box)
    return minimize(lambda x: func(x.tolist()), np.array(x0, dtype=float),
                    method="Nelder-Mead", bounds=Bounds(lo, hi),
                    options={"xatol": xatol, "fatol": fatol})


def scipy_sobol(d: int, n: int) -> np.ndarray:
    """The first ``n`` unscrambled Sobol points of [0, 1)^d, as scipy draws
    them; its warning that ``n`` is not a power of two is silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return qmc.Sobol(d, scramble=False).random(n)


def plain_bisection(spec, param: str, bracket, atol: float, n_starts: int) -> float:
    """The critical ``param`` by plain bisection: a full-start
    ``has_violation`` at both bracket ends, which must disagree, and at
    every midpoint."""

    def violated(value):
        return has_violation(fix_parameter(spec, param, value), n_starts)

    lo, hi = float(bracket[0]), float(bracket[1])
    lo_viol = violated(lo)
    assert lo_viol != violated(hi), "both bracket ends agree"
    while hi - lo > atol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if violated(mid) == lo_viol:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
