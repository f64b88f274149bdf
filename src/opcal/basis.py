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

A rank needs only the inner products of a family, not its coordinates
in a fixed basis.  packed_coords gives rows with the same inner
products from one real gather of a Hermitian stack's diagonal and upper
triangle, and packed_product_coords gives those of a stack of kron
products from the factors, without forming the products.
"""

from functools import lru_cache

import numpy as np

from .tolerances import RANK_CERT, RANK_RCOND


@lru_cache(maxsize=None)
def hermitian_basis(n):
    """Orthonormal Hermitian basis of n x n matrices, identity first.

    Returns an array of shape (n*n, n, n) with Tr[B_a B_b] = delta_ab:
    I/sqrt(n), then the generalized Gell-Mann matrices, diagonal,
    symmetric and antisymmetric (imaginary; these pick up a sign under
    transposition), scaled to unit norm and scattered onto the entries
    that `_gellmann_layout` lists.
    """
    _, entries = _gellmann_layout(n)
    diag, upper, lower = np.split(entries, [n, (n * n + n) // 2])
    sym, anti = np.split(np.arange(n, n * n), 2)
    m, col = np.arange(1, n)[:, None], np.arange(n)
    out = np.zeros((n * n, n * n), dtype=complex)
    out[0, diag] = 1.0
    # m ones, then -m, scaled to Tr[g^2] = 2
    out[1:n, diag] = np.sqrt(2.0 / (m * (m + 1))) * np.where(col < m, 1.0, np.where(col == m, -m, 0.0))
    out[sym, upper] = out[sym, lower] = 1.0
    out[anti, upper], out[anti, lower] = -1.0j, 1.0j
    out /= np.where(np.arange(n * n) == 0, np.sqrt(n), np.sqrt(2.0))[:, None]
    out = out.reshape(n * n, n, n)
    out.setflags(write=False)
    return out


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


@lru_cache(maxsize=None)
def _packed_layout(n):
    """(entries, gather, scale) of packed_coords on n x n matrices and
    the full basis: the flat indices of the entries it reads (the
    diagonal, then the upper triangle j < k, row-major), the indices of
    the real numbers it takes from a matrix's interleaved real and
    imaginary parts (the real part of each diagonal entry, then both
    parts of each upper one), and the factor each is scaled by."""
    j, k = np.triu_indices(n, 1)
    upper = j * n + k
    entries = np.concatenate([np.arange(n) * (n + 1), upper])
    gather = np.concatenate([2 * entries[:n], np.stack([2 * upper, 2 * upper + 1], axis=-1).ravel()])
    scale = np.concatenate([np.ones(n), np.tile([np.sqrt(2.0), -np.sqrt(2.0)], len(j))])
    for a in (entries, gather, scale):
        a.setflags(write=False)
    return entries, gather, scale


def packed_coords(matrices, basis):
    """Real rows of a Hermitian matrix, or of each of a stack (..., n,
    n), with the inner products of the matrices: on the diagonal basis
    the coordinates Re diag(M); on the full basis Re M[i, i], then
    sqrt2 Re M[j, k] and -sqrt2 Im M[j, k] for each entry of the upper
    triangle j < k, read from the stack's memory in one real gather.

    These are the Gell-Mann coordinates of to_coords with the diagonal
    block left unrotated and the off-diagonal pairs interleaved, an
    orthogonal change of coordinates, so a stack has the same Gram
    matrix, singular values and rank either way.  Only the diagonal and
    the upper triangle are read: the input must be Hermitian, or the
    rows are those of a different matrix."""
    n = np.shape(matrices)[-1]
    if _is_diagonal_basis(basis, n):
        return to_coords(matrices, basis)
    m = np.ascontiguousarray(matrices, dtype=complex)
    _, gather, scale = _packed_layout(n)
    out = np.take(m.reshape(*m.shape[:-2], n * n).view(np.float64), gather, axis=-1)
    out *= scale
    return out


def packed_product_coords(a, b, basis):
    """packed_coords of every kron(a_i, b_j), i-major, for two stacks
    of Hermitian matrices (k1, d1, d1) and (k2, d2, d2), with basis
    the basis of the d1 d2 x d1 d2 matrices.  Each entry that
    packed_coords reads, at row i1 d2 + i2 and column j1 d2 + j2, is
    the product a[i1, j1] b[i2, j2]; each is written straight into its
    columns of the rows, and the stack of kron products is never
    formed."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (k1, d1, _), (k2, d2, _) = a.shape, b.shape
    n = d1 * d2
    entries, _, _ = _packed_layout(n)
    if _is_diagonal_basis(basis, n):
        entries = entries[:n]  # Re diag(M): to_coords on this basis
    row, col = np.divmod(entries, n)
    (i1, i2), (j1, j2) = np.divmod(row, d2), np.divmod(col, d2)
    left = a.reshape(k1, 1, d1 * d1)[..., i1 * d1 + j1]
    right = b.reshape(1, k2, d2 * d2)[..., i2 * d2 + j2]
    out = np.empty((k1, k2, 2 * len(entries) - n))
    out[..., :n] = (left[..., :n] * right[..., :n]).real
    # sqrt2 conj(a b) = sqrt2 (Re, -Im) of each upper entry (none on the
    # diagonal basis), written as one complex number over its two columns
    np.multiply(left[..., n:].conj(), right[..., n:].conj(), out=out[..., n:].view(complex))
    out[..., n:] *= np.sqrt(2.0)
    return out.reshape(k1 * k2, -1)


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
