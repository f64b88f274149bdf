"""Faithfulness of joint states and the bilinear-form machinery.

A symmetric joint state Phi (a State of quantum(d^2)) defines a real
symmetric bilinear form on generalized effects.  Diagonalizing its
Gram matrix in the canonical Hermitian basis splits the effect space
into positive and negative principal axes; the sign flip of the
negative axes is the involution used downstream as complex
conjugation, and the absolute value of the form is the strictly
positive scalar product.
"""

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .basis import from_coords, hermitian_basis, to_coords
from .core import Effect, State, Transformation, _per_element, quantum
from .errors import ConeViolation, DegenerateSplit, NotFaithful
from .quantum import apply_local, kraus_to_choi, max_entangled, part_dim
from .tolerances import CANONICAL_TOL, CP_TOL, SYMMETRY_TOL, WITNESS_RESID, ZERO_CUTOFF


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


def _is_max_entangled(phi):
    return bool(np.max(np.abs(phi.matrix - max_entangled(part_dim(phi)).matrix)) <= CANONICAL_TOL)


@dataclass(frozen=True)
class WitnessSystem:
    """The preparation-witness system of one joint state, built once.

    For the maximally entangled state the witness has a closed form and
    `m` and `pinv` are None.  Otherwise `m` takes the Choi coordinates of
    a local transformation on slot 1 to the canonical-basis coordinates
    of the slot-2 marginal of its conditioned weight, and `pinv` is its
    pseudo-inverse at the cutoff of `np.linalg.lstsq`, so `pinv @ t` is
    the minimum-norm least-squares solution."""

    phi: State
    canonical: bool
    m: np.ndarray
    pinv: np.ndarray


def witness_system(phi):
    """Build the witness system of phi.  The slot-2 marginal of (T, I)
    Phi is M(C)[x, y] = sum_ija C[(i, a), (j, a)] Phi[(i, x), (j, y)] for
    the Choi matrix C of T, so its coordinate on a basis element b is
    Tr[b M(C)] = Tr[C (M*(b) kron I)], with the adjoint
    M*(b)[j, i] = sum_xy b[y, x] Phi[(i, x), (j, y)].  Row a of m is
    therefore to_coords of M*(b_a) kron I, for the d^2 elements b_a of
    hermitian_basis(d), and no basis of Choi matrices is built."""
    if _is_max_entangled(phi):
        return WitnessSystem(phi, canonical=True, m=None, pinv=None)
    d = part_dim(phi)
    adjoint = np.einsum("ayx,ixjy->aji", hermitian_basis(d), phi.matrix.reshape(d, d, d, d))
    rows = np.einsum("aji,xy->ajxiy", adjoint, np.eye(d)).reshape(d * d, d * d, d * d)
    m = to_coords(rows, d**4)
    pinv = np.linalg.pinv(m, rcond=np.finfo(float).eps * max(m.shape))
    return WitnessSystem(phi, canonical=False, m=m, pinv=pinv)


def prepare_witness(system, target):
    """Local transformation on slot 1 whose conditioned local state on
    slot 2 is the target, with its success probability.

    For the maximally entangled state the witness is the pure map
    rho -> X rho X^dag with X = sqrt(d p) (target^T)^(1/2) and the
    largest physical probability p = 1 / (d lambda_max(target)).  For
    other faithful states a generalized witness is the minimum-norm
    solution of the system's marginal equations; the residual is
    certified to WITNESS_RESID.

    A stack of targets gives the stack of their witnesses and an array
    of probabilities, from one solve.  Each element's residual and
    probability are held to their own bounds, and the first element in
    stack order that fails either raises NotFaithful.  A witness that
    is CP is rescaled to a physical map; the stack is generalized if
    any witness is not.
    """
    phi = system.phi
    d = part_dim(phi)
    rho = target.matrix
    if system.canonical:
        p = 1.0 / (d * np.linalg.eigvalsh(rho)[..., -1])
        x = np.sqrt(d * p)[..., None, None] * ch.herm_sqrt(rho.swapaxes(-1, -2))
        return kraus_to_choi(quantum(d), x[..., None, :, :]), _per_element(p)
    target_coords = to_coords(rho, d * d)
    x = target_coords @ system.pinv.T
    resid = np.linalg.norm(x @ system.m.T - target_coords, axis=-1)
    choi = from_coords(x, d * d)
    prob = apply_local(phi, Transformation(quantum(d), choi, generalized=True), 1).total
    failed = np.flatnonzero((resid > WITNESS_RESID) | (prob <= WITNESS_RESID))
    if failed.size:
        i = np.unravel_index(failed[0], resid.shape)
        if resid[i] > WITNESS_RESID:
            raise NotFaithful(f"no local witness at residual {resid[i]}")
        raise NotFaithful("witness occurs with vanishing probability")
    cp = ch.is_psd(choi, CP_TOL)
    # rescale each CP witness to a physical (trace-nonincreasing) map
    top = np.where(cp, np.linalg.eigvalsh(ch.effect_of_choi(choi))[..., -1], 1.0)
    lam = np.minimum(np.where(cp, 1.0 / top, 1.0), 1.0)
    witness = Transformation(quantum(d), lam[..., None, None] * choi, generalized=not cp.all())
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
    gram: np.ndarray
    gram_abs: np.ndarray

    @property
    def sigma_matrix(self):
        return self.p_plus - self.p_minus

    def flip(self, m):
        """The sign flip of the negative principal axes, applied to the
        canonical-basis coordinates of the matrix m."""
        return from_coords(self.sigma_matrix @ to_coords(m, self.d**2), self.d)


def spectral_split(phi):
    """Diagonalize the Gram matrix of the bilinear form; eigenvalues at
    the zero cutoff raise rather than being assigned a sign (strict
    positivity failing means the input is not faithful)."""
    if not is_symmetric(phi):
        raise NotFaithful("spectral split needs a symmetric joint state")
    d = part_dim(phi)
    basis = hermitian_basis(d)
    # gram[a, b] = Tr[Phi (B_a kron B_b)], the bilinear form on the basis
    phi4 = phi.matrix.reshape(d, d, d, d)  # [x1, x2, y1, y2]
    gram = np.einsum("xuyv,ayx,bvu->ab", phi4, basis, basis, optimize=True).real
    gram = (gram + gram.T) / 2.0
    w, v = np.linalg.eigh(gram)
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
        d=d,
        p_plus=p_plus,
        p_minus=p_minus,
        signature=(int(pos.shape[1]), int(neg.shape[1])),
        gram=gram,
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
