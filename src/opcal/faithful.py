"""Faithfulness of joint states and the bilinear-form machinery.

A joint state Phi (a State of quantum(d^2)) defines a real bilinear
form on generalized effects, whose matrix F in the canonical Hermitian
basis (`form_matrix`) has the singular values of the realigned state:
Phi is preparationally faithful exactly when F is invertible, the
condition for full dynamical rank, and every preparation witness is
read off F.  Diagonalizing F, symmetric for a symmetric Phi, splits
the effect space into positive and negative principal axes; the sign
flip of the negative axes is the involution used downstream as complex
conjugation, and the absolute value of the form is the strictly
positive scalar product.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import channels as ch
from .basis import from_coords, hermitian_basis, to_coords
from .core import Effect, Transformation, _per_element, quantum
from .errors import ConeViolation, DegenerateSplit, NotFaithful
from .quantum import part_dim
from .tolerances import CP_TOL, SYMMETRY_TOL, WITNESS_RESID, ZERO_CUTOFF


def is_symmetric(phi):
    """Phi(A, B) = Phi(B, A): invariance under swapping the subsystems,
    to SYMMETRY_TOL in every entry."""
    return bool(np.max(np.abs(ch.swap(phi.matrix) - phi.matrix)) <= SYMMETRY_TOL)


def local_action_matrix(phi):
    """R[(p, q), (r, s)] = Phi[(p, r), (q, s)], the realignment of Phi,
    which is the matrix of the slot-1 local action on realigned Choi
    matrices.  Write A~[(a, b), (i, j)] = C[(i, a), (j, b)] for the Choi
    matrix C of A (its superoperator, `channels.choi_to_super`); then
    (A, I) Phi realigns to A~ R and (I, A) Phi to R A~^T.  The action
    A~ -> A~ R has R's singular values, each d^2 times, so its rank is
    d^2 rank(R), and nothing of size d^8 is formed."""
    return ch.realign(phi.matrix)


def form_matrix(realigned):
    """F[a, b] = Phi(B_a, B_b) = Tr[Phi (B_a kron B_b)], the bilinear
    form on the elements B_a of hermitian_basis(d), from the realigned
    state R (`local_action_matrix`): F = Re(Bt R Bt^T), where row a of
    Bt is vec(B_a^T).  Bt is unitary, so F has R's singular values: the
    form is invertible (Phi is preparationally faithful) exactly when
    the local action has full rank d^4 (Phi is dynamically faithful)."""
    n = realigned.shape[0]
    bt = hermitian_basis(isqrt(n)).swapaxes(-1, -2).reshape(n, n)
    return (bt @ realigned @ bt.T).real


def prepare_witness(form, target):
    """Local transformation on slot 1 whose conditioned local state on
    slot 2 is the target, with its success probability, on the state of
    bilinear form `form` (`form_matrix`).

    The slot-2 marginal of (T, I) Phi is Tr_1[(E kron I) Phi] for the
    effect E of T, with coordinates F^T e, so the witness is the
    measure-and-prepare map rho -> Tr[E rho] I/d (Choi matrix
    E^T kron I/d, the least-norm one of effect E) for the minimum-norm
    e = (F^T)^+ t; its residual is certified to WITNESS_RESID and its
    probability is the trace of the fitted marginal.  A CP witness
    (E >= 0) is rescaled to a physical map; on the maximally entangled
    state that gives p = 1 / (d lambda_max(target)).

    A stack of targets takes one pseudo-inverse; the first element in
    stack order whose residual fails raises NotFaithful, and the stack
    is generalized if any witness is not CP."""
    d = target.theory.d
    t = to_coords(target.matrix, d * d)
    e = t @ np.linalg.pinv(form, rcond=d * d * np.finfo(float).eps)  # rows (F^T)^+ t, cut as lstsq cuts
    fitted = e @ form
    resid = np.linalg.norm(fitted - t, axis=-1)
    failed = resid[resid > WITNESS_RESID]
    if failed.size:
        raise NotFaithful(f"no local witness at residual {failed[0]}")
    # the trace of the marginal: of the basis, only the d projectors |i><i| have one
    prob = fitted[..., :d].sum(axis=-1)
    effect = from_coords(e, d)
    cp = ch.is_psd(effect / d, CP_TOL)
    # rescale each CP witness to a physical (trace-nonincreasing) map
    top = np.where(cp, np.linalg.eigvalsh(effect)[..., -1], 1.0)
    lam = np.minimum(np.where(cp, 1.0 / top, 1.0), 1.0)
    # C[(i, a), (j, b)] = lam E[j, i] delta_ab / d
    scaled = (lam / d)[..., None, None] * effect.swapaxes(-1, -2)
    choi = (scaled[..., :, None, :, None] * np.eye(d)[:, None, :]).reshape(*e.shape[:-1], d * d, d * d)
    witness = Transformation(quantum(d), choi, generalized=not cp.all())
    return witness, _per_element(lam * prob)


# ---------------------------------------------------------------------------
# spectral split


@dataclass(frozen=True)
class SpectralSplit:
    """Sign decomposition of the bilinear form in the canonical basis."""

    d: int
    p_plus: np.ndarray
    p_minus: np.ndarray
    signature: tuple
    gram_abs: np.ndarray

    @property
    def sigma_matrix(self):
        return self.p_plus - self.p_minus

    def flip(self, m):
        """The sign flip of the negative principal axes, applied to the
        canonical-basis coordinates of the matrix m."""
        return from_coords(self.sigma_matrix @ to_coords(m, self.d**2), self.d)


def spectral_split(phi):
    """Diagonalize the bilinear form F of phi (`form_matrix`), made
    exactly symmetric; eigenvalues at the zero cutoff raise rather than
    being assigned a sign (strict positivity failing means the input is
    not faithful)."""
    if not is_symmetric(phi):
        raise NotFaithful("spectral split needs a symmetric joint state")
    form = form_matrix(local_action_matrix(phi))
    w, v = np.linalg.eigh((form + form.T) / 2.0)
    if np.min(np.abs(w)) <= ZERO_CUTOFF:
        raise DegenerateSplit(
            f"bilinear-form eigenvalue {np.min(np.abs(w))} at the zero cutoff"
        )
    pos = v[:, w > 0]
    neg = v[:, w < 0]
    p_plus = pos @ pos.T
    p_minus = neg @ neg.T
    gram_abs = (v * np.abs(w)) @ v.T
    return SpectralSplit(
        d=part_dim(phi),
        p_plus=p_plus,
        p_minus=p_minus,
        signature=(int(pos.shape[1]), int(neg.shape[1])),
        gram_abs=(gram_abs + gram_abs.T) / 2.0,
    )


def sigma(split, e):
    """Involution on effects: sign flip of the negative principal axes
    (matrix transposition for the maximally entangled split).  Raises
    if a physical input is mapped outside the physical cone."""
    out = split.flip(e.matrix)
    result = Effect(e.theory, out, e.generalized)
    if not e.generalized and e.is_physical() and not result.is_physical():
        raise ConeViolation("involution left the physical effect cone")
    return result


def conjugate_transformation(t):
    """Extension of the involution to transformations: entrywise Choi
    conjugation in the computational basis, sending Kraus {K} to
    {conj(K)} (composition-preserving, squares to the identity)."""
    return Transformation(t.theory, t.choi.conj(), t.generalized)
