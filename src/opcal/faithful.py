"""Faithfulness of joint states and the bilinear-form machinery.

A joint state Phi (a State of quantum(d^2)) defines a real bilinear
form on generalized effects, whose matrix F in the canonical Hermitian
basis (`form_matrix`) has the singular values of the realigned state:
Phi is preparationally faithful exactly when F is invertible, the
condition for full dynamical rank.  One SVD of F calibrates the
apparatus (`Calibration`): the rank, every preparation witness, the
transpose and the split are read off it.  For a symmetric Phi the
split (`spectral_split`) divides the effect space into positive and
negative principal axes; the sign flip of the negative axes is the
involution used downstream as complex conjugation.

The absolute value |F| of the form is a strictly positive scalar
product, the one `faithful.abs_gram` checks.  Every `gns.*` and
`born.*` check reads another, the GNS Gram matrix G of
`gns.gns_space`.  On the isotropic states (1 - p)|Omega><Omega| + p I/d^2
the two are inverse up to d^2, G = (d^2 |F|)^-1 to 1e-14 for p <= 0.99
(d = 2-4), so they coincide at p = 0 alone; a symmetrized mixture
0.7|Omega><Omega| + 0.3 (rho + S rho S)/2 misses that relation by 5e-2
to 0.2.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import channels as ch
from .basis import from_coords, hermitian_basis, singular_value_rank, to_coords
from .core import Effect, Transformation, _per_element, quantum
from .errors import ConeViolation, DegenerateSplit, NotFaithful
from .quantum import part_dim
from .tolerances import PINV_RCOND, SYMMETRY_TOL, WITNESS_RESID, ZERO_CUTOFF


def is_symmetric(phi):
    """Phi(A, B) = Phi(B, A): invariance under swapping the subsystems,
    to SYMMETRY_TOL in every entry."""
    return bool(np.max(np.abs(ch.swap(phi.matrix) - phi.matrix)) <= SYMMETRY_TOL)


def local_action_matrix(phi):
    """R[(p, q), (r, s)] = Phi[(p, r), (q, s)], the realignment of Phi
    (`channels.realign`), in whose frame the local actions of a map with
    superoperator A~ (`channels.choi_to_super`) are A~ R on slot 1 and
    R A~^T on slot 2 (the `channels` module docstring).  The action
    A~ -> A~ R has R's singular values, each d^2 times, so its rank is
    d^2 rank(R), and nothing of size d^8 is formed."""
    return ch.realign(phi.matrix)


def _basis_rows(d):
    return hermitian_basis(d).swapaxes(-1, -2).reshape(d * d, d * d)


def form_matrix(realigned):
    """F[a, b] = Phi(B_a, B_b) = Tr[Phi (B_a kron B_b)], the bilinear
    form on the elements B_a of hermitian_basis(d), from the realigned
    state R (`local_action_matrix`): F = Re(Bt R Bt^T), where row a of
    Bt is vec(B_a^T).  Bt is unitary, so F has R's singular values: the
    form is invertible (Phi is preparationally faithful) exactly when
    the local action has full rank d^4 (Phi is dynamically faithful)."""
    bt = _basis_rows(isqrt(realigned.shape[0]))
    return (bt @ realigned @ bt.T).real


class Calibration:
    """The apparatus calibrated by the joint state Phi: its realignment
    R (`local_action_matrix`), its bilinear form F (`form_matrix`) and
    one SVD F = U S V^T.  R = Bt^dag F conj(Bt) has the same singular
    values, so each cut below is a cut of S: the dynamical rank
    d^2 rank(F) at RANK_RCOND; the witnesses' F^+ at d^2 eps, as lstsq
    cuts; and, at PINV_RCOND, the transpose solver's R^+ = Bt^T F^+ Bt
    and `cokernel`, the rows U[:, r:]^T Bt spanning the complement of
    R's range (none for a faithful state).  `spectral_split` reads the
    polar factors of F.  Whether Phi is symmetric (`is_symmetric`) is
    decided here once, for the symmetry check, the split and the GNS
    space."""

    def __init__(self, phi):
        self.phi, self.d = phi, part_dim(phi)
        self.symmetric = is_symmetric(phi)
        self.realigned = local_action_matrix(phi)
        self.form = form_matrix(self.realigned)
        self.u, self.s, self.vt = np.linalg.svd(self.form)
        self.rank = self.d**2 * singular_value_rank(self.s)
        self.form_pinv = self.pinv(self.d**2 * np.finfo(float).eps)
        bt = _basis_rows(self.d)
        self.realigned_pinv = bt.T @ self.pinv(PINV_RCOND) @ bt
        self.cokernel = self.u[:, self.s <= PINV_RCOND * self.s[0]].T @ bt

    def pinv(self, rcond):
        """F^+ without the singular values at or below rcond sigma_max."""
        kept = self.s > rcond * self.s[0]
        return (self.vt[kept].T / self.s[kept]) @ self.u[:, kept].T


def prepare_witness(calibration, target):
    """Local transformation on slot 1 whose conditioned local state on
    slot 2 is the target, with its success probability, on the
    calibrated state (`Calibration`).

    The slot-2 marginal of (T, I) Phi is Tr_1[(E kron I) Phi] for the
    effect E of T, with coordinates F^T e, so the witness is the
    measure-and-prepare map rho -> Tr[E rho] I/d (Choi matrix
    E^T kron I/d, the least-norm one of effect E) for the minimum-norm
    e = (F^T)^+ t, read off the calibration's F^+; its residual is
    certified to WITNESS_RESID and its probability is the trace of the
    fitted marginal.  A CP witness (E >= 0) is rescaled to a physical
    map; on the maximally entangled state that gives
    p = 1 / (d lambda_max(target)).

    A stack of targets is solved at once; the first element in stack
    order whose residual fails raises NotFaithful, and the stack is
    generalized if any witness is not CP."""
    d = target.theory.d
    t = to_coords(target.matrix, d * d)
    e = t @ calibration.form_pinv  # rows (F^T)^+ t
    fitted = e @ calibration.form
    resid = np.linalg.norm(fitted - t, axis=-1)
    failed = resid[resid > WITNESS_RESID]
    if failed.size:
        raise NotFaithful(f"no local witness at residual {failed[0]}")
    # the trace of the marginal: of the basis, only the d projectors |i><i| have one
    prob = fitted[..., :d].sum(axis=-1)
    effect = from_coords(e, d)
    cp = ch.is_psd(effect / d)
    # rescale each CP witness to a physical (trace-nonincreasing) map
    top = np.where(cp, np.linalg.eigvalsh(effect)[..., -1], 1.0)
    lam = np.minimum(np.where(cp, 1.0 / top, 1.0), 1.0)
    # C[(i, a), (j, b)] = lam E[j, i] delta_ab / d
    choi = ch.kron((lam / d)[..., None, None] * effect.swapaxes(-1, -2), np.eye(d))
    witness = Transformation(quantum(d), choi, generalized=not cp.all())
    return witness, _per_element(lam * prob)


# ---------------------------------------------------------------------------
# spectral split


@dataclass(frozen=True)
class SpectralSplit:
    """Sign decomposition of the bilinear form in the canonical basis: the
    involution sigma = p+ - p-, the signature (dim p+, dim p-) and |F|."""

    sigma_matrix: np.ndarray
    signature: tuple
    gram_abs: np.ndarray


def spectral_split(calibration):
    """Split the calibrated form F of a symmetric phi by its polar
    factors: F = U S V^T = V W V^T, so sigma = U V^T = V sign(W) V^T
    flips the negative principal axes, Tr sigma = dim p+ - dim p-
    (p+- = (I +- sigma) / 2), and |F| = V S V^T; both are made exactly
    symmetric.  A singular value at the zero cutoff raises rather than
    being assigned a sign (the input is not faithful)."""
    if not calibration.symmetric:
        raise NotFaithful("spectral split needs a symmetric joint state")
    u, s, vt = calibration.u, calibration.s, calibration.vt
    if s[-1] <= ZERO_CUTOFF:
        raise DegenerateSplit(f"bilinear-form eigenvalue {s[-1]} at the zero cutoff")
    sigma_matrix, gram_abs = u @ vt, (vt.T * s) @ vt
    plus = round((s.size + np.trace(sigma_matrix)) / 2.0)
    return SpectralSplit(
        sigma_matrix=(sigma_matrix + sigma_matrix.T) / 2.0,
        signature=(plus, s.size - plus),
        gram_abs=(gram_abs + gram_abs.T) / 2.0,
    )


def sigma(split, e):
    """Involution on effects: sign flip of the negative principal axes
    (matrix transposition for the maximally entangled split).  Raises
    if a physical input is mapped outside the physical cone."""
    out = from_coords(split.sigma_matrix @ to_coords(e.matrix, e.theory.d**2), e.theory.d)
    result = Effect(e.theory, out, e.generalized)
    if not e.generalized and e.is_physical() and not result.is_physical():
        raise ConeViolation("involution left the physical effect cone")
    return result


def conjugate_transformation(t):
    """Extension of the involution to transformations: entrywise Choi
    conjugation in the computational basis, sending Kraus {K} to
    {conj(K)} (composition-preserving, squares to the identity)."""
    return Transformation(t.theory, t.choi.conj(), t.generalized)
