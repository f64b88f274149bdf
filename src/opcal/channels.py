"""Low-level encodings of linear maps on matrix space.

Conventions (row-major / C-order vec throughout):

* ``vec(X) = X.reshape(-1)`` so ``vec(A X B) = (A kron B^T) vec(X)``.
* superoperator ``S``: ``vec(T(X)) = S @ vec(X)``; for Kraus operators
  {K} one has ``S = sum_k K kron conj(K)``.
* Choi matrix ``C[(i,a),(j,b)] = T(|i><j|)_{ab}`` (input index first);
  for Kraus {K}: ``C = sum_k vec(K^T) vec(K^T)^dag``.  The map is
  completely positive iff C is positive semidefinite, and the dual of
  the unit effect is ``T^*(I) = Tr_out C``.
* realignment ``R[(p, q), (r, s)] = M[(p, r), (q, s)]`` of a joint
  d^2 x d^2 matrix M (`realign`): the local actions of a map with
  superoperator S realign to products, ``(S kron I) M -> S R`` on
  slot 1 and ``(I kron S) M -> R S^T`` on slot 2.  `apply_local_super`
  is this identity, and the faithful state's calibration and transpose
  rest on it.  This module alone splits a joint matrix into its four
  d-indices.
"""

import math

import numpy as np

from .tolerances import CP_TOL


def kraus_to_choi_matrix(kraus):
    """Choi matrix of the Kraus operators along the axis before the last
    two; axes before that are a stack, one map per element."""
    ks = np.asarray(kraus, dtype=complex)
    *lead, r, d, _ = ks.shape
    w = ks.swapaxes(-1, -2).reshape(*lead, r, d * d)  # the vec(K^T)
    return w.swapaxes(-1, -2) @ w.conj()


def _reindex(m, perm):
    """Permute the four d-indices of a d^2 x d^2 matrix, or of each
    matrix in a stack (..., d^2, d^2)."""
    *lead, n, _ = m.shape
    d, k = math.isqrt(n), len(lead)
    return m.reshape(*lead, d, d, d, d).transpose(*range(k), *(k + p for p in perm)).reshape(*lead, n, n)


def choi_to_super(choi):
    return _reindex(choi, (1, 3, 0, 2))


def super_to_choi(sup):
    return _reindex(sup, (2, 0, 3, 1))


def realign(m):
    """R[(p, q), (r, s)] = m[(p, r), (q, s)] (of each matrix of a stack):
    the operator-Schmidt realignment, m = sum R[(p, q), (r, s)]
    |p><q| kron |r><s|.  An involution."""
    return _reindex(m, (0, 2, 1, 3))


def apply_super(sup, matrix):
    """S applied to a d x d matrix; a stack of superoperators and a
    stack of matrices (broadcasting leading axes) give a stack."""
    *lead, d, _ = matrix.shape
    return (sup @ matrix.reshape(*lead, d * d, 1)).reshape(*lead, d, d)


def dual_super(sup):
    """Heisenberg dual: Tr[E T(X)] = Tr[T^*(E) X] for Hermitian E, X
    (of each superoperator of a stack)."""
    return sup.conj().swapaxes(-1, -2)


def effect_of_choi(choi):
    """T^*(I) = sum K^dag K, the dual of the unit effect (of each map of
    a stack of Choi matrices).

    The raw output-trace of C is the transpose (input indices label the
    bra side), so it is transposed back: Tr[effect_of_choi(C) @ rho]
    equals the trace of the map applied to rho.
    """
    return np.swapaxes(partial_trace(choi, 1), -1, -2)


def _twice_hermitian_part(m):
    """m^dag + m (of each matrix of a stack) in one new buffer."""
    h = np.swapaxes(m, -1, -2).copy()
    np.conjugate(h, out=h)
    h += m
    return h


def min_eig(m):
    """Smallest eigenvalue of the Hermitian part of m (of each matrix of
    a stack), formed in one buffer: m^dag + m, halved in place.  A
    NaN or inf entry anywhere raises LinAlgError, as in
    basis.matrix_rank: eigvalsh reads one triangle only, and a NaN on
    the diagonal may come back as finite eigenvalues."""
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("matrix entries are not finite")
    h = _twice_hermitian_part(m)
    h *= 0.5
    return np.linalg.eigvalsh(h)[..., 0]


def is_psd(m):
    """min_eig(m) >= -CP_TOL, with no spectrum where one Cholesky factor
    certifies it.  For H the Hermitian part, u the unit roundoff, n x n
    matrices and t = CP_TOL, forming A = 2H + t I and factoring it
    (L L^dag = A + dA, |dA| <= gamma_(n+1) |L| |L^dag|, Higham, Thm 10.3)
    err by at most (n + 3) u |tr A| in 2-norm.  A stack whose factors
    have finite diagonals and (n + 3) u |tr A| <= t/2 thus has
    lambda_min(H) >= -3 t/4, where eigvalsh, whose error is of order
    n u ||H||, reads above -t too; any other stack goes to min_eig.
    numpy's cholesky reads only the lower triangle and the real part of
    the diagonal, and factors NaN without raising; a NaN or inf in m
    reaches the lower triangle of A or the imaginary part of tr A, which
    is 0 for finite m."""
    a = _twice_hermitian_part(m)
    n = a.shape[-1]
    diag = a.reshape(*a.shape[:-2], n * n)[..., :: n + 1]  # a view
    diag += CP_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (n + 3) * (np.finfo(a.dtype).eps / 2) * np.abs(diag.sum(axis=-1))
        try:
            finite = np.isfinite(np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1)).all(axis=-1)
        except np.linalg.LinAlgError:
            finite = False
    certified = finite & (bound <= CP_TOL / 2)
    return certified if certified.all() else min_eig(m) >= -CP_TOL


def partial_trace(matrix, slot):
    """The part on slot 1 or 2 of a d^2 x d^2 matrix, or of each matrix
    of a stack, with the other slot traced out."""
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    *lead, n, _ = matrix.shape
    d = math.isqrt(n)
    return np.einsum("...iaja->...ij" if slot == 1 else "...aiaj->...ij", matrix.reshape(*lead, d, d, d, d))


def kron(a, b):
    """a kron b, or that of each pair of two stacks (leading axes
    broadcast): K[(i, k), (j, l)] = a[i, j] b[k, l]."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, m, p, n, q = out.shape
    return out.reshape(*lead, m * p, n * q)


def swap(m):
    """S m S, S the unitary swapping the two factors of C^d tensor C^d:
    the d^2 x d^2 matrix m, or each matrix of a stack, with its two
    subsystems exchanged."""
    return _reindex(m, (1, 0, 3, 2))


def apply_local_super(sup, joint, slot):
    """Apply a single-system superoperator to one slot of a joint
    d^2 x d^2 matrix (the other slot untouched), as one product in the
    realigned frame.  Either may be a stack (..., d^2, d^2); leading
    axes broadcast."""
    if slot == 1:
        return realign(sup @ realign(joint))
    if slot == 2:
        return realign(realign(joint) @ np.swapaxes(sup, -1, -2))
    raise ValueError("slot must be 1 or 2")


def trace_distance(a, b):
    ev = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(ev)))


def herm_sqrt(m):
    """Square root of a PSD Hermitian matrix, or of each of a stack
    (eigenvalues clipped at 0)."""
    w, v = np.linalg.eigh(np.asarray(m))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
