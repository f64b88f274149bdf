"""Canonical Hermitian bases and the Choi/superoperator plumbing."""

import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opcal import channels as ch
from opcal import core, infodim
from opcal import quantum as qm
from opcal.basis import (
    diagonal_basis,
    from_coords,
    hermitian_basis,
    matrix_rank,
    packed_product_coords,
    projector_coords,
    to_coords,
)
from opcal.core import Theory
from opcal.tolerances import CP_TOL, RANK_RCOND
from reference import coordinate_rank_inputs, kraus_to_super, measured, real_view, spectrum_psd, svd_rank


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
    assert_allclose(gram, np.eye(d * d), atol=1e-12, rtol=0)
    for b in basis:
        assert_allclose(b, b.conj().T, atol=1e-14, rtol=0)
    # the projectors |i><i| come first, so the classical basis is a
    # prefix; then, for each j < k row-major, the symmetric and the
    # antisymmetric element of (j, k)
    assert np.array_equal(basis[:d], np.eye(d)[:, None, :] * np.eye(d)[:, :, None])
    assert np.array_equal(diagonal_basis(d), basis[:d])
    j, k = np.triu_indices(d, 1)
    unit = np.zeros((len(j), d, d))
    unit[np.arange(len(j)), j, k] = 1.0
    flip = unit.swapaxes(-1, -2)
    assert_allclose(basis[d::2], (unit + flip) / np.sqrt(2.0), rtol=0, atol=1e-15)
    assert_allclose(basis[d + 1 :: 2], -1j * (unit - flip) / np.sqrt(2.0), rtol=0, atol=1e-15)


def _dense_coords(m, basis):
    # the definition: Re Tr[B_a M] against the dense basis stack
    return np.einsum("aij,...ji->...a", basis, m).real


@given(
    n=st.integers(1, 25),
    lead=st.sampled_from([(), (3,), (2, 2)]),
    diagonal=st.booleans(),
    transposed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_coords_match_dense_oracle(n, lead, diagonal, transposed, seed):
    basis = diagonal_basis(n) if diagonal else hermitian_basis(n)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((*lead, n, n)) + 1j * rng.standard_normal((*lead, n, n))
    if transposed:
        m = np.swapaxes(m, -1, -2)  # a non-contiguous input
    k = len(basis)
    got = to_coords(m, k)
    assert got.shape == (*lead, k) and got.dtype == np.float64
    assert_allclose(got, _dense_coords(m, basis), rtol=0, atol=1e-12)
    assert_allclose(to_coords(m.real, k), _dense_coords(m.real, basis), atol=1e-12, rtol=0)
    c = rng.standard_normal((*lead, k))
    back = from_coords(c, n)
    assert back.shape == (*lead, n, n)
    assert_allclose(back, np.einsum("...a,aij->...ij", c, basis), rtol=0, atol=1e-12)
    # round trips: coordinates exactly, matrices up to the Hermitian part
    # (the whole matrix on the diagonal basis is its real diagonal)
    assert_allclose(to_coords(back, k), c, rtol=0, atol=1e-12)
    herm = (m + np.swapaxes(m, -1, -2).conj()) / 2
    if diagonal:
        herm = herm * np.eye(n)
    assert_allclose(from_coords(got, n), herm, rtol=0, atol=1e-12)


def test_real_view_is_the_coordinate_map():
    # the real views of an orthonormal Hermitian basis have orthonormal
    # rows and take the real view of any matrix to its coordinates
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 9):
        for basis in (hermitian_basis(n), diagonal_basis(n)):
            v = real_view(basis)
            assert_allclose(v @ v.T, np.eye(len(basis)), atol=1e-14, rtol=0)
            m = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
            assert_allclose(real_view(m) @ v.T, to_coords(m, len(basis)), atol=1e-12, rtol=0)
    b = hermitian_basis(4)
    assert np.shares_memory(real_view(b), b)  # no copy of the basis


def _hermitian_stack(rng, lead, n):
    g = rng.standard_normal((*lead, n, n)) + 1j * rng.standard_normal((*lead, n, n))
    return g + np.swapaxes(g, -1, -2).conj()


@given(
    d1=st.integers(1, 4),
    d2=st.integers(1, 4),
    k1=st.integers(1, 5),
    k2=st.integers(1, 5),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_packed_product_coords_are_the_packed_coords_of_the_krons(d1, d2, k1, k2, diagonal, seed):
    rng = np.random.default_rng(seed)
    a, b = _hermitian_stack(rng, (k1,), d1), _hermitian_stack(rng, (k2,), d2)
    n = d1 * d2
    k = n if diagonal else n * n
    krons = np.array([np.kron(x, y) for x in a for y in b])
    got = packed_product_coords(a, b, k)
    assert got.shape == (k1 * k2, k) and got.dtype == np.float64
    assert_allclose(got, to_coords(krons, k), rtol=0, atol=1e-14 * np.abs(krons).max())


def _projectors(v):
    return np.einsum("ai,aj->aij", v, v.conj())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 16, 25])
@pytest.mark.parametrize("diagonal", [False, True], ids=["hermitian", "diagonal"])
def test_projector_coords_are_the_coords_of_the_spanning_states(n, diagonal):
    # the spanning states of both backends at n and, read as Kraus
    # operators of the d-level maps at n = d^2, the projectors of every
    # spanning vector: the same bits as the coordinates of the formed
    # projectors
    k = n if diagonal else n * n
    v = core.spanning_vectors(n)[:k]
    got = projector_coords(v, k)
    assert got.shape == (k, k) and got.dtype == np.float64
    assert np.array_equal(got, to_coords(_projectors(v), k))


@given(
    m=st.integers(1, 6),
    n=st.integers(1, 7),
    diagonal=st.booleans(),
    scale=st.sampled_from([1.0, 1e-100, 1e100]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_projector_coords_are_the_coords_of_the_projectors(m, n, diagonal, scale, seed):
    rng = np.random.default_rng(seed)
    v = scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    k = n if diagonal else n * n
    got = projector_coords(v, k)
    assert got.shape == (m, k) and got.dtype == np.float64
    want = to_coords(_projectors(v), k)
    assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(v)) ** 2)


# ---------------------------------------------------------------------------
# ranks: the full-rank certificate never answers other than the
# singular values would


def _orthonormal_columns(rng, n, k, complex_):
    g = rng.standard_normal((n, k))
    if complex_:
        g = g + 1j * rng.standard_normal((n, k))
    return np.linalg.qr(g)[0]


@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    complex_=st.booleans(),
    smallest=st.sampled_from([None, 1e-4, 1e-9, 1e-10 * (1 - 1e-3), 1e-10 * (1 + 1e-3), 1e-12]),
    zeros=st.integers(0, 3),
    scale=st.sampled_from([1.0, 1e-150, 1e150]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_matrix_rank_matches_the_singular_values(rows, cols, complex_, smallest, zeros, scale, seed):
    # m = U diag(s) V^dag with sigma_max 1, a chosen smallest nonzero
    # singular value and some exact zeros, at an overall scale
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    nonzero = k - min(zeros, k - 1)
    s = np.sort(rng.uniform(0.1, 1.0, k))[::-1]
    s[0] = 1.0
    if smallest is not None and nonzero > 1:
        s[nonzero - 1] = smallest
    s[nonzero:] = 0.0
    u = _orthonormal_columns(rng, rows, k, complex_)
    v = _orthonormal_columns(rng, cols, k, complex_)
    m = scale * (u * s) @ v.conj().T
    assert matrix_rank(m) == svd_rank(m)
    if scale == 1.0:  # the construction is what the test says it is
        assert svd_rank(m) == np.sum(s > RANK_RCOND)


def test_matrix_rank_of_empty_matrices():
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert matrix_rank(np.zeros(shape)) == svd_rank(np.zeros(shape)) == 0


def _ranked_matrices(monkeypatch, run):
    """Every matrix that infodim hands to matrix_rank while run() runs."""
    ranked, rank = [], infodim.matrix_rank

    def recording_rank(m):
        ranked.append(np.array(m))
        return rank(m)

    monkeypatch.setattr(infodim, "matrix_rank", recording_rank)
    run()
    return ranked


@pytest.mark.parametrize("backend", ["quantum", "classical"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_matrix_rank_matches_the_singular_values_on_every_table_matrix(monkeypatch, d, backend):
    th = Theory(backend, d)
    obs = infodim.ic_observable(th)

    def run():
        infodim.dim_identities(d, backend, measured)
        infodim.check_local_observability(obs, obs)

    ranked = _ranked_matrices(monkeypatch, run)
    assert len(ranked) == 5  # four in the table, one local observability
    for m, coords in zip(ranked, coordinate_rank_inputs(d, backend), strict=True):
        assert matrix_rank(m) == svd_rank(m), m.shape
        # the rows of each family have the singular values of to_coords
        # of the family built whole, its kron products formed
        sv, want = (np.linalg.svd(x, compute_uv=False) for x in (m, coords))
        assert_allclose(sv, want, rtol=0, atol=1e-12 * want[0])


def test_matrix_rank_of_non_finite_and_extreme_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # numpy's Cholesky factors a NaN Gram without raising, so only
        # the finiteness test leaves this to the SVD, which raises
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            matrix_rank(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        # the SVD of an inf entry returns NaN singular values, which no
        # cutoff would count, so the rank raises as for a NaN entry
        with pytest.raises(np.linalg.LinAlgError, match="singular values are not finite"):
            matrix_rank(np.diag([np.inf, 1.0]))
        # a Gram that overflows to inf, or underflows to zero
        for scale in (1e200, 1e-200):
            assert matrix_rank(np.diag([1.0, 2.0, 3.0]) * scale) == 3
        assert matrix_rank(np.ones((3, 5)) * 1e200) == 1


# ---------------------------------------------------------------------------
# positivity: the Cholesky certificate never answers other than the
# spectrum would


@given(
    n=st.integers(1, 25),
    lead=st.sampled_from([(), (1,), (4,), (2, 3)]),
    low=st.sampled_from([0.0, 1e-14, -1e-14, -CP_TOL * (1 - 1e-3), -CP_TOL * (1 + 1e-3), -1e-3, -1.0]),
    zeros=st.integers(0, 3),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_is_psd_matches_the_spectrum(n, lead, low, zeros, hermitian, seed):
    # Hermitian parts U diag(w) U^dag with eigenvalues in [0.1, 1], some
    # exact zeros (rank-deficient, as the Choi matrix of the identity
    # channel is) and the smallest at low; a non-Hermitian input adds
    # an anti-Hermitian part, which leaves the Hermitian part as it is
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((*lead, n, n)) + 1j * rng.standard_normal((*lead, n, n))
    u = np.linalg.qr(g)[0]
    w = rng.uniform(0.1, 1.0, (*lead, 1, n))
    w[..., :zeros] = 0.0
    w[..., 0] = low
    m = (u * w) @ u.conj().swapaxes(-1, -2)
    if not hermitian:
        m = m + (g - g.conj().swapaxes(-1, -2))
    with mock.patch.object(ch, "min_eig", wraps=ch.min_eig) as spectrum:
        got = ch.is_psd(m)
    want = spectrum_psd(m, CP_TOL)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
    if low >= -1e-14:  # far inside the cone: the factor decides
        assert spectrum.call_count == 0


def test_is_psd_of_a_stack_with_one_map_that_is_not_cp():
    choi = qm.random_cp(3, 4, n=5).choi
    choi[2] = core.identity(core.quantum(3)).choi - 1e-3 * np.eye(9)
    want = [True, True, False, True, True]
    assert ch.is_psd(choi).tolist() == spectrum_psd(choi, CP_TOL).tolist() == want
    assert not ch.is_psd(choi[2]) and not spectrum_psd(choi[2], CP_TOL)


def _outcome(decide, m):
    try:
        return repr(decide(m))
    except Exception as exc:  # the class of the error is the outcome
        return type(exc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)])
@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 2), (2, 0)])
def test_is_psd_of_non_finite_entries(value, entry):
    # numpy's cholesky reads only the lower triangle and factors a NaN
    # matrix without raising, and eigvalsh reads finite eigenvalues off
    # a NaN diagonal; an entry in either triangle, alone or in a stack,
    # has no spectrum, so both decisions raise
    m = np.stack([np.eye(3, dtype=complex)] * 2)
    m[1][entry] = value
    with np.errstate(all="ignore"):
        for x in (m, m[1]):
            assert _outcome(ch.is_psd, x) == _outcome(lambda y: spectrum_psd(y, CP_TOL), x) == np.linalg.LinAlgError
            assert _outcome(ch.min_eig, x) == np.linalg.LinAlgError


@given(d=st.integers(2, 3), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kraus_super_choi_consistency(d, n, seed):
    ks = _random_kraus(d, n, seed)
    sup = kraus_to_super(ks)
    choi = ch.kraus_to_choi_matrix(ks)
    assert_allclose(ch.choi_to_super(choi), sup, atol=1e-12, rtol=0)
    assert_allclose(ch.super_to_choi(sup), choi, atol=1e-12, rtol=0)
    rho = _random_hermitian(d, seed + 1)
    direct = sum(k @ rho @ k.conj().T for k in ks)
    assert_allclose(ch.apply_super(sup, rho), direct, atol=1e-12, rtol=0)


@given(d=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dual_super_is_heisenberg(d, seed):
    ks = _random_kraus(d, 2, seed)
    sup = kraus_to_super(ks)
    rho = _random_hermitian(d, seed + 1)
    e = _random_hermitian(d, seed + 2)
    lhs = np.trace(e @ ch.apply_super(sup, rho))
    rhs = np.trace(ch.apply_super(ch.dual_super(sup), e) @ rho)
    assert_allclose(lhs, rhs, atol=1e-12, rtol=0)


def test_effect_of_choi_is_kraus_sum():
    ks = _random_kraus(3, 2, 7)
    choi = ch.kraus_to_choi_matrix(ks)
    expected = sum(k.conj().T @ k for k in ks)
    assert_allclose(ch.effect_of_choi(choi), expected, atol=1e-12, rtol=0)


def test_partial_trace_of_product():
    # the part on each slot of a kron(a, b), and of each matrix of a stack
    for d in (2, 3):
        a = _random_hermitian(d, 1)
        b = _random_hermitian(d, 2)
        joint = np.kron(a, b)
        assert_allclose(ch.partial_trace(joint, 1), a * np.trace(b), atol=1e-12, rtol=0)
        assert_allclose(ch.partial_trace(joint, 2), b * np.trace(a), atol=1e-12, rtol=0)
        assert_allclose(ch.partial_trace(np.array([joint, 2 * joint]), 2)[1], 2 * b * np.trace(a), atol=1e-12, rtol=0)
    with pytest.raises(ValueError):
        ch.partial_trace(joint, 0)


def test_kron_matches_numpy_on_stacks():
    # bit for bit against np.kron: two stacks pairwise, and a stack
    # against one matrix on either side
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    b = rng.standard_normal((2, 2, 2))
    assert np.array_equal(ch.kron(a, b), [np.kron(x, y) for x, y in zip(a, b)])
    assert np.array_equal(ch.kron(a, b[0]), [np.kron(x, b[0]) for x in a])
    assert np.array_equal(ch.kron(b[0], a), [np.kron(b[0], x) for x in a])


def test_swap():
    # S m S for each matrix of a stack, bit for bit, S |i j> = |j i>
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 5):
        s = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                s[j * d + i, i * d + j] = 1.0
        m = rng.standard_normal((2, 3, d * d, d * d)) + 1j * rng.standard_normal((2, 3, d * d, d * d))
        assert np.array_equal(ch.swap(m), s @ m @ s)
        a = _random_hermitian(d, 1)
        b = _random_hermitian(d, 2)
        assert_allclose(ch.swap(np.kron(a, b)), np.kron(b, a), atol=1e-13, rtol=0)


def test_trace_distance():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert ch.trace_distance(p0, p1) == pytest.approx(1.0)
    assert ch.trace_distance(p0, np.eye(2) / 2) == pytest.approx(0.5)


@pytest.mark.parametrize("d", [2, 3])
def test_apply_local_super_matches_kraus_on_stacks(d):
    # a stack of superoperators applied to an entangled and to a product
    # joint matrix, against (K x I) J (K x I)^dag and (I x K) J (I x K)^dag
    rng = np.random.default_rng(d)
    kraus = [_random_kraus(d, 2, 100 * d + i) for i in range(3)]
    sups = np.array([kraus_to_super(ks) for ks in kraus])
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    eye = np.eye(d)
    joints = (g @ g.conj().T, np.kron(_random_hermitian(d, 1), _random_hermitian(d, 2)))
    for joint, slot in itertools.product(joints, (1, 2)):
        got = ch.apply_local_super(sups, joint, slot)
        assert got.shape == (3, d * d, d * d)
        for ks, out in zip(kraus, got):
            lifted = [np.kron(k, eye) if slot == 1 else np.kron(eye, k) for k in ks]
            want = sum(k @ joint @ k.conj().T for k in lifted)
            assert_allclose(out, want, atol=1e-12, rtol=0)
        # one superoperator without a stack axis
        assert_allclose(ch.apply_local_super(sups[0], joint, slot), got[0], atol=1e-14, rtol=0)
