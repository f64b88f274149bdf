"""Canonical Hermitian operator bases and real coordinates.

The quantum backend uses the orthonormal basis made of the normalized
identity I/sqrt(d) followed by the generalized Gell-Mann matrices scaled
to unit Hilbert-Schmidt norm, so Tr[B_a B_b] = delta_ab.  The classical
backend uses the diagonal projectors |i><i|.  Every real coordinate
vector in the toolkit refers to one of these bases.

Coordinates are computed in closed form from the structure of the
basis, never against its dense stack.  In the Gell-Mann basis the
first n coordinates of an n x n matrix M are one real n x n transform
of Re diag(M); each later element touches one pair of off-diagonal
entries, so its coordinate is sqrt(1/2) Re(M[j,k] + M[k,j]) (symmetric)
or sqrt(1/2) Im(M[k,j] - M[j,k]) (antisymmetric).  In the diagonal
basis the coordinates are Re diag(M).  from_coords is the matching
scatter.

Both bases are Hermitian and orthonormal, so the coordinate map is also
a real dot product with the basis: coordinate a of M is
real_view(B_a) . real_view(M), where real_view lays the real and
imaginary parts of the entries out as one real vector.  Stacking the
views of the basis gives a matrix V with orthonormal rows, with
coords = V @ real_view(M) and real_view(M) = V.T @ coords for Hermitian
M, which lets a fixed linear map on coordinates be folded into one
operator on the entries themselves (gns.TransposeSolver).
"""

from functools import lru_cache

import numpy as np


def gellmann(j, k, d):
    """Generalized Gell-Mann matrix of dimension d (Tr[g^2] = 2).

    j > k: symmetric, j < k: antisymmetric (imaginary), j == k < d:
    diagonal, j == k == d: identity.
    """
    g = np.zeros((d, d), dtype=complex)
    if j > k:
        g[j, k] = 1.0
        g[k, j] = 1.0
    elif j < k:
        g[j, k] = -1.0j
        g[k, j] = 1.0j
    elif j < d - 1 or d == 1:
        m = j + 1
        diag = np.zeros(d)
        diag[:m] = 1.0
        diag[m] = -m
        g = np.diag(np.sqrt(2.0 / (m * (m + 1))) * diag).astype(complex)
    else:
        g = np.eye(d, dtype=complex)
    return g


@lru_cache(maxsize=None)
def hermitian_basis(d):
    """Orthonormal Hermitian basis of d x d matrices, identity first.

    Returns an array of shape (d*d, d, d) with Tr[B_a B_b] = delta_ab.
    The antisymmetric (imaginary) elements are the ones that pick up a
    sign under matrix transposition.
    """
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d - 1):
        mats.append(gellmann(j, j, d) / np.sqrt(2.0))
    for j in range(d):
        for k in range(j + 1, d):
            mats.append(gellmann(k, j, d) / np.sqrt(2.0))  # symmetric
    for j in range(d):
        for k in range(j + 1, d):
            mats.append(gellmann(j, k, d) / np.sqrt(2.0))  # antisymmetric
    arr = np.array(mats)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def diagonal_basis(d):
    """Classical effect basis: the projectors |i><i| (shape (d, d, d))."""
    arr = np.array([np.diag(np.eye(d)[i]).astype(complex) for i in range(d)])
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _gellmann_layout(n):
    """(diag, entries) of hermitian_basis(n): the real n x n transform
    taking Re diag(M) to the first n coordinates, and the flat indices
    of the diagonal, upper (j < k) and lower (k, j) entries that the
    coordinates read, in basis order."""
    diag = np.zeros((n, n))
    diag[0] = 1.0 / np.sqrt(n)
    for m in range(1, n):
        diag[m, :m] = 1.0
        diag[m, m] = -m
        diag[m] /= np.sqrt(m * (m + 1))
    j, k = np.triu_indices(n, 1)
    entries = np.concatenate([np.arange(n) * (n + 1), j * n + k, k * n + j])
    diag.setflags(write=False)
    entries.setflags(write=False)
    return diag, entries


def _is_diagonal_basis(basis, n):
    # the two bases coincide at n = 1
    return len(basis) == n


def to_coords(matrix, basis):
    """Real coordinates Re Tr[B_a M] of a matrix in an orthonormal
    basis (the coordinates of its Hermitian part); a stack of matrices
    (..., n, n) gives a stack of coordinate vectors."""
    m = np.asarray(matrix)
    *lead, n, _ = m.shape
    if _is_diagonal_basis(basis, n):
        return np.ascontiguousarray(np.diagonal(m, axis1=-2, axis2=-1).real)
    diag, entries = _gellmann_layout(n)
    picked = m.reshape(*lead, n * n)[..., entries]
    p = (n * n - n) // 2
    upper, lower = picked[..., n : n + p], picked[..., n + p :]
    out = np.empty((*lead, n * n))
    out[..., :n] = picked[..., :n].real @ diag.T
    np.add(upper.real, lower.real, out=out[..., n : n + p])
    np.subtract(lower.imag, upper.imag, out=out[..., n + p :])
    out[..., n:] *= np.sqrt(0.5)
    return out


def from_coords(coords, basis):
    """Matrix with the given real coordinates; a stack of coordinate
    vectors (..., len(basis)) gives a stack of matrices."""
    c = np.asarray(coords, dtype=float)
    *lead, _ = c.shape
    n = basis.shape[-1]
    out = np.zeros((*lead, n * n), dtype=complex)
    if _is_diagonal_basis(basis, n):
        out[..., :: n + 1] = c
        return out.reshape(*lead, n, n)
    diag, entries = _gellmann_layout(n)
    p = (n * n - n) // 2
    sym = np.sqrt(0.5) * c[..., n : n + p]
    anti = np.sqrt(0.5) * c[..., n + p :]
    out[..., entries[:n]] = c[..., :n] @ diag
    out[..., entries[n : n + p]] = sym - 1j * anti
    out[..., entries[n + p :]] = sym + 1j * anti
    return out.reshape(*lead, n, n)


def real_view(matrix):
    """Real and imaginary parts of the entries of a complex matrix, or
    of each of a stack (..., n, n), as one real vector (..., 2 n^2),
    interleaved; no copy for a C-contiguous complex array."""
    m = np.ascontiguousarray(matrix, dtype=complex)
    return m.reshape(*m.shape[:-2], -1).view(np.float64)


RANK_RCOND = 1e-10


def singular_value_rank(sv):
    """Number of the (descending, nonempty) singular values above
    RANK_RCOND * sigma_max, so the decision is scale-free (0 when all
    are zero)."""
    return int(np.sum(sv > RANK_RCOND * sv[0]))


def matrix_rank(m):
    """Rank by singular values with a relative cutoff of RANK_RCOND *
    sigma_max (0 for an empty or zero matrix)."""
    m = np.asarray(m)
    if m.size == 0:
        return 0
    return singular_value_rank(np.linalg.svd(m, compute_uv=False))
