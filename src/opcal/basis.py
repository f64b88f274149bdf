"""Canonical Hermitian operator bases and real coordinates.

The quantum backend uses the orthonormal matrix-unit basis of n x n
Hermitian matrices: the projectors |i><i|, then for each upper entry
j < k, row-major, (|j><k| + |k><j|)/sqrt2 and -i(|j><k| - |k><j|)/sqrt2,
so Tr[B_a B_b] = delta_ab.  The classical backend uses its first n
elements, the diagonal projectors.  Every real coordinate vector in the
toolkit refers to one of these bases; every quantity a check reports is
basis-free, so the choice is bookkeeping.

The coordinates Re Tr[B_a M] of an n x n matrix are Re M[i, i], then
sqrt(1/2) Re(M[j, k] + M[k, j]) and sqrt(1/2) Im(M[k, j] - M[j, k]) for
each j < k: two real gathers from the matrix's interleaved real and
imaginary parts, one of the diagonal and upper entries, scaled by
(1, sqrt(1/2), -sqrt(1/2)), and one of the lower entries added to it.
from_coords is the matching scatter, packed_product_coords gives
the coordinates of a stack of Hermitian kron products from the
factors, without forming the products, and projector_coords those of
the projectors v v^dag from the vectors.  The maps read only sizes:
to_coords, packed_product_coords and projector_coords take the number
k of coordinates (n * n, or n on the diagonal basis), from_coords the
matrix size n, and none of them builds a basis.
"""

from functools import lru_cache

import numpy as np

from .tolerances import RANK_CERT, RANK_RCOND


@lru_cache(maxsize=None)
def _layout(n):
    """(entries, upper, lower, scale) of the matrix-unit basis of n x n
    matrices: the flat indices of the diagonal, then of the upper
    triangle j < k, row-major; the indices, into a matrix's interleaved
    real and imaginary parts, of the real part of each diagonal entry
    and of both parts of each upper entry, in basis order, with the
    factor each coordinate reads it by; and the indices of both parts
    of each lower entry (k, j), in the same order, each read by
    sqrt(1/2)."""
    j, k = np.triu_indices(n, 1)
    entries = np.concatenate([np.arange(n) * (n + 1), j * n + k])

    def both_parts(flat):
        return np.stack([2 * flat, 2 * flat + 1], axis=-1).ravel()

    upper = np.concatenate([2 * entries[:n], both_parts(entries[n:])])
    lower = both_parts(k * n + j)
    scale = np.concatenate([np.ones(n), np.tile([np.sqrt(0.5), -np.sqrt(0.5)], len(j))])
    for a in (entries, upper, lower, scale):
        a.setflags(write=False)
    return entries, upper, lower, scale


@lru_cache(maxsize=None)
def hermitian_basis(n):
    """Orthonormal Hermitian basis of n x n matrices, shape (n*n, n, n),
    read-only: |i><i|, then for each upper entry j < k, row-major, the
    symmetric (|j><k| + |k><j|)/sqrt2 and the antisymmetric (imaginary;
    it picks up a sign under transposition) -i(|j><k| - |k><j|)/sqrt2."""
    out = from_coords(np.eye(n * n), n)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def diagonal_basis(d):
    """Classical effect basis: the projectors |i><i| (shape (d, d, d)),
    read-only, the first d elements of hermitian_basis(d), built without
    it."""
    out = from_coords(np.eye(d), d)
    out.setflags(write=False)
    return out


def to_coords(matrix, k):
    """The first k real coordinates Re Tr[B_a M] of an n x n matrix in
    the matrix-unit basis (the coordinates of its Hermitian part): k is
    n * n for hermitian_basis(n) and n for diagonal_basis(n).  A stack
    of matrices (..., n, n) gives a stack of coordinate vectors."""
    m = np.ascontiguousarray(matrix, dtype=complex)
    *lead, n, _ = m.shape
    _, upper, lower, scale = _layout(n)
    flat = m.reshape(*lead, n * n).view(np.float64)
    out = np.take(flat, upper[:k], axis=-1)
    if k > n:  # the diagonal basis reads the diagonal as it is
        out *= scale
        lower_parts = np.take(flat, lower, axis=-1)
        lower_parts *= np.sqrt(0.5)
        out[..., n:] += lower_parts
    return out


def from_coords(coords, n):
    """The n x n matrix with the given real coordinates, the first k of
    the matrix-unit basis for k the length of the last axis (n * n or
    n); a stack of coordinate vectors (..., k) gives a stack of
    matrices.  The size is n, not k, because k = n * n can also be the
    diagonal basis of n * n x n * n matrices."""
    c = np.asarray(coords, dtype=float)
    *lead, k = c.shape
    _, upper, lower, scale = _layout(n)
    out = np.zeros((*lead, n * n), dtype=complex)
    flat = out.view(np.float64)
    flat[..., upper[:k]] = c * scale[:k]
    flat[..., lower[: k - n]] = np.sqrt(0.5) * c[..., n:]
    return out.reshape(*lead, n, n)


def packed_product_coords(a, b, k):
    """to_coords(..., k) of every kron(a_i, b_j), i-major, for two
    stacks of Hermitian matrices (k1, d1, d1) and (k2, d2, d2), with k
    the number of coordinates of a d1 d2 x d1 d2 matrix.  Each diagonal
    or upper entry of a product, at row i1 d2 + i2 and column
    j1 d2 + j2, is a[i1, j1] b[i2, j2], and its lower entry is the
    conjugate; each is written straight into its columns of the rows,
    and the stack of kron products is never formed."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (k1, d1, _), (k2, d2, _) = a.shape, b.shape
    n = d1 * d2
    entries = _layout(n)[0][:k]  # the diagonal basis reads the diagonal alone
    row, col = np.divmod(entries, n)
    (i1, i2), (j1, j2) = np.divmod(row, d2), np.divmod(col, d2)
    left = a.reshape(k1, 1, d1 * d1)[..., i1 * d1 + j1]
    right = b.reshape(1, k2, d2 * d2)[..., i2 * d2 + j2]
    out = np.empty((k1, k2, k))
    out[..., :n] = (left[..., :n] * right[..., :n]).real
    # sqrt2 conj(a b) = sqrt2 (Re, -Im) of each upper entry (none on the
    # diagonal basis), written as one complex number over its two columns
    np.multiply(left[..., n:].conj(), right[..., n:].conj(), out=out[..., n:].view(complex))
    out[..., n:] *= np.sqrt(2.0)
    return out.reshape(k1 * k2, -1)


def projector_coords(v, k):
    """to_coords(..., k) of every projector v v^dag, for the rows v of
    an (m, n) array, with k the number of coordinates of an n x n
    matrix.  The diagonal entries are |v_i|^2, and each upper entry
    j < l is v_j conj(v_l); each row j of the triangle is written
    straight into its columns, and the projectors are never formed."""
    v = np.asarray(v, dtype=complex)
    m, n = v.shape
    out = np.empty((m, k))
    out[:, :n] = (v * v.conj()).real
    if k > n:  # the diagonal basis reads the diagonal alone
        # sqrt2 conj(v_j conj(v_l)) = sqrt2 (Re, -Im) of each upper
        # entry, written as one complex number over its two columns
        upper = out[:, n:].view(complex)
        start = 0
        for j in range(n - 1):
            stop = start + n - 1 - j
            np.multiply(v[:, j, None].conj(), v[:, j + 1 :], out=upper[:, start:stop])
            start = stop
        out[:, n:] *= np.sqrt(2.0)
    return out


def singular_value_rank(sv):
    """Number of the (descending, nonempty) singular values above
    RANK_RCOND * sigma_max, so the decision is scale-free (0 when all
    are zero)."""
    return int(np.sum(sv > RANK_RCOND * sv[0]))


def _certifies_full_rank(m):
    """Whether the Gram matrix G on the smaller side of m, shifted down
    by RANK_CERT * Tr G in place, has a finite Cholesky factor.  If it
    has, lambda_min(G) >= (RANK_CERT - (k + n + 1) u) Tr G, with u the
    float64 unit roundoff, n the size of G and k the inner dimension of
    its product (Higham, Thm 10.3).  A Gram that overflows reads inf or
    NaN, and numpy's cholesky factors a NaN matrix without raising, so
    only the finiteness test keeps either from being certified."""
    mh = m.conj().T  # a view for real m: conj() returns m itself
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ mh if m.shape[0] <= m.shape[1] else mh @ m
        gram.flat[:: len(gram) + 1] -= RANK_CERT * np.trace(gram).real
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
    return bool(np.isfinite(factor).all())


def matrix_rank(m):
    """Number of singular values above RANK_RCOND * sigma_max (0 for an
    empty or zero matrix), with no SVD where the rank is certified full.

    The certificate applies to a float64 or complex128 matrix, whose
    roundoff its bound assumes.  At n = k = 625 (d = 5) it gives
    sigma_min > 3e-6 sigma_max, and an SVD computes every singular
    value to about n u sigma_max, so it would count all min(m.shape)
    of them.  Any other matrix, rank-deficient, close to it, too large
    or small for its Gram, or not finite, goes to the SVD, which raises
    on a NaN entry and returns NaN singular values for an inf entry; a
    matrix with either has no rank, so both raise."""
    m = np.asarray(m)
    if m.size == 0:
        return 0
    if m.ndim == 2 and m.dtype in (np.float64, np.complex128) and _certifies_full_rank(m):
        return min(m.shape)
    sv = np.linalg.svd(m, compute_uv=False)
    if not np.isfinite(sv).all():
        raise np.linalg.LinAlgError("singular values are not finite")
    return singular_value_rank(sv)
