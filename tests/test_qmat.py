"""Dense-operator helpers: products, partial transpose, negativity."""

import numpy as np
import pytest

from wbell.qmat import (
    dag,
    hermitian_eigenvalues,
    is_hermitian,
    n_qubits_of,
    negativity,
    partial_transpose,
)

from oracles import tensor_product

ATOL = 1e-12
N_RANDOM = 25


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_dag_is_conjugate_transpose():
    m = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    np.testing.assert_array_equal(dag(m), m.conj().T)


def test_tensor_product_matches_kron_chain():
    rng = np.random.default_rng(7)
    for _ in range(N_RANDOM):
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3)]
        expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
        np.testing.assert_allclose(tensor_product(mats), expected, atol=ATOL)


def test_tensor_product_single_factor():
    m = np.diag([1.0, 2.0])
    np.testing.assert_array_equal(tensor_product([m]), m)


def test_is_hermitian():
    assert is_hermitian(np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_a_non_square_array_is_not_hermitian(shape):
    assert is_hermitian(np.zeros(shape)) is False


def test_hermitian_eigenvalues_sorted_and_real():
    rng = np.random.default_rng(11)
    for _ in range(N_RANDOM):
        rho = random_density(rng, 4)
        evs = hermitian_eigenvalues(rho)
        assert evs.dtype == float
        assert np.all(np.diff(evs) >= 0.0)
        np.testing.assert_allclose(evs.sum(), 1.0, atol=1e-10)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_n_qubits_of():
    assert n_qubits_of(2) == 1
    assert n_qubits_of(16) == 4
    for bad in (1, 3, 12):
        with pytest.raises(ValueError):
            n_qubits_of(bad)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(3)
    for _ in range(N_RANDOM):
        rho = random_density(rng, 8)
        pt = partial_transpose(rho, 2, 4)
        np.testing.assert_allclose(partial_transpose(pt, 2, 4), rho, atol=ATOL)
        np.testing.assert_allclose(np.trace(pt), np.trace(rho), atol=ATOL)


def test_partial_transpose_of_product_is_product():
    rng = np.random.default_rng(5)
    a = random_density(rng, 2)
    b = random_density(rng, 4)
    expected = np.kron(a.T, b)
    np.testing.assert_allclose(partial_transpose(np.kron(a, b), 2, 4), expected, atol=ATOL)


@pytest.mark.parametrize("shape, dims", [((4, 4), (2, 3)), ((6, 4), (2, 3)), ((6,), (2, 3))])
def test_partial_transpose_refuses_a_mismatched_shape(shape, dims):
    with pytest.raises(ValueError, match=r"^operator shape \(.*\) does not match 2x3$"):
        partial_transpose(np.zeros(shape), *dims)


def test_negativity_bell_pair_is_one():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    assert negativity(rho, 0) == pytest.approx(1.0, abs=1e-12)


def test_negativity_product_state_is_zero():
    rng = np.random.default_rng(13)
    for _ in range(N_RANDOM):
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        assert negativity(rho, 0) == pytest.approx(0.0, abs=1e-9)


def test_negativity_pure_two_qubit_matches_schmidt_formula():
    # For cos(t)|00> + sin(t)|11> the negativity is |sin 2t|.
    rng = np.random.default_rng(17)
    for _ in range(N_RANDOM):
        t = rng.uniform(0.0, np.pi)
        psi = np.zeros(4)
        psi[0], psi[3] = np.cos(t), np.sin(t)
        rho = np.outer(psi, psi)
        assert negativity(rho, 0) == pytest.approx(abs(np.sin(2.0 * t)), abs=1e-10)


def test_negativity_local_unitary_invariance():
    rng = np.random.default_rng(19)
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    for _ in range(5):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = np.linalg.qr(h)[0]
        full = np.kron(u, np.eye(2))
        rotated = full @ rho @ full.conj().T
        assert negativity(rotated, 0) == pytest.approx(1.0, abs=1e-10)


def test_negativity_cut_range_checked():
    rho = np.eye(4) / 4.0
    with pytest.raises(ValueError):
        negativity(rho, 1)
    with pytest.raises(ValueError):
        negativity(np.eye(4) / 2.0, 0)
