"""Canonical Hermitian bases and the Choi/superoperator plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opcal import channels as ch
from opcal.basis import diagonal_basis, from_coords, hermitian_basis, to_coords


def _random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def _random_kraus(d, n, seed):
    rng = np.random.default_rng(seed)
    ks = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(n)
    ]
    norm = np.sqrt(sum(np.linalg.norm(k) ** 2 for k in ks))
    return [k / norm for k in ks]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal(d):
    basis = hermitian_basis(d)
    assert basis.shape == (d * d, d, d)
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert_allclose(gram, np.eye(d * d), atol=1e-12)
    for b in basis:
        assert_allclose(b, b.conj().T, atol=1e-14)
    # identity direction comes first
    assert_allclose(basis[0], np.eye(d) / np.sqrt(d), atol=1e-14)


@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_coords_round_trip(d, seed):
    m = _random_hermitian(d, seed)
    basis = hermitian_basis(d)
    c = to_coords(m, basis)
    assert c.dtype == np.float64
    assert_allclose(from_coords(c, basis), m, atol=1e-12)


def test_diagonal_basis():
    basis = diagonal_basis(3)
    assert basis.shape == (3, 3, 3)
    assert_allclose(sum(basis), np.eye(3), atol=1e-14)


@given(d=st.integers(2, 3), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kraus_super_choi_consistency(d, n, seed):
    ks = _random_kraus(d, n, seed)
    sup = ch.kraus_to_super(ks)
    choi = ch.kraus_to_choi_matrix(ks)
    assert_allclose(ch.choi_to_super(choi), sup, atol=1e-12)
    assert_allclose(ch.super_to_choi(sup), choi, atol=1e-12)
    rho = _random_hermitian(d, seed + 1)
    direct = sum(k @ rho @ k.conj().T for k in ks)
    assert_allclose(ch.apply_super(sup, rho), direct, atol=1e-12)


@given(d=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dual_super_is_heisenberg(d, seed):
    ks = _random_kraus(d, 2, seed)
    sup = ch.kraus_to_super(ks)
    rho = _random_hermitian(d, seed + 1)
    e = _random_hermitian(d, seed + 2)
    lhs = np.trace(e @ ch.apply_super(sup, rho))
    rhs = np.trace(ch.apply_super(ch.dual_super(sup), e) @ rho)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_effect_of_choi_is_kraus_sum():
    ks = _random_kraus(3, 2, 7)
    choi = ch.kraus_to_choi_matrix(ks)
    expected = sum(k.conj().T @ k for k in ks)
    assert_allclose(ch.effect_of_choi(choi), expected, atol=1e-12)


def test_partial_trace_of_product():
    rng = np.random.default_rng(3)
    a = _random_hermitian(2, 1)
    b = _random_hermitian(3, 2)
    joint = np.kron(a, b)
    assert_allclose(ch.partial_trace(joint, (2, 3), 0), a * np.trace(b), atol=1e-12)
    assert_allclose(ch.partial_trace(joint, (2, 3), 1), b * np.trace(a), atol=1e-12)


def test_swap_matrix():
    s = ch.swap_matrix(2)
    a = _random_hermitian(2, 1)
    b = _random_hermitian(2, 2)
    assert_allclose(s @ np.kron(a, b) @ s, np.kron(b, a), atol=1e-13)


def test_trace_distance():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert ch.trace_distance(p0, p1) == pytest.approx(1.0)
    assert ch.trace_distance(p0, np.eye(2) / 2) == pytest.approx(0.5)


def test_herm_sqrt():
    m = _random_hermitian(3, 5)
    m = m @ m  # PSD
    r = ch.herm_sqrt(m)
    assert_allclose(r @ r, m, atol=1e-10)


def test_apply_local_super_on_products():
    ks = _random_kraus(2, 2, 11)
    sup = ch.kraus_to_super(ks)
    a = _random_hermitian(2, 1)
    b = _random_hermitian(2, 2)
    joint = np.kron(a, b)
    out1 = ch.apply_local_super(sup, joint, 1, 2)
    assert_allclose(out1, np.kron(ch.apply_super(sup, a), b), atol=1e-12)
    out2 = ch.apply_local_super(sup, joint, 2, 2)
    assert_allclose(out2, np.kron(a, ch.apply_super(sup, b)), atol=1e-12)
