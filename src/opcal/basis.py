"""Canonical Hermitian operator bases and real coordinates.

The quantum backend uses the orthonormal basis made of the normalized
identity I/sqrt(d) followed by the generalized Gell-Mann matrices scaled
to unit Hilbert-Schmidt norm, so Tr[B_a B_b] = delta_ab.  The classical
backend uses the diagonal projectors |i><i|.  Every real coordinate
vector in the toolkit refers to one of these bases.
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


def _flat(basis):
    return basis.reshape(len(basis), -1)


def to_coords(matrix, basis):
    """Real coordinates Tr[B_a M] of a Hermitian matrix in an orthonormal
    basis; a stack of matrices (..., n, n) gives a stack of coordinate
    vectors."""
    m = np.swapaxes(np.asarray(matrix), -1, -2)
    return np.ascontiguousarray((m.reshape(*m.shape[:-2], -1) @ _flat(basis).T).real)


def from_coords(coords, basis):
    """Matrix with the given real coordinates."""
    out = np.asarray(coords, dtype=float) @ _flat(basis)
    return out.reshape(basis.shape[1:])


RANK_RCOND = 1e-10


def matrix_rank(m):
    """Rank by singular values with a relative cutoff of RANK_RCOND *
    sigma_max, so the decision is scale-free (0 for an empty or zero
    matrix)."""
    m = np.asarray(m)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > RANK_RCOND * sv[0]))
