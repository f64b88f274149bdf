"""Operational transpose, conjugate, adjoint, scalar product, and the
GNS representation built on a symmetric faithful bipartite state.

The transposed transformation A' is the unique generalized map on the
second subsystem reproducing the local action of A on the first over
the faithful state; the adjoint composes it with the involution.  The
scalar product between generalized effects turns the effect space into
a complex Hilbert space on which left composition acts as a matrix
algebra satisfying the C*-identity.

The GNS coordinates are orthonormal for that scalar product: its Gram
matrix G is whitened once, where `gns_space` builds it, so the adjoint
is represented by the matrix transpose, the C*-norm is the spectral
norm and a Born probability is a dot product, and no map solves with G.

Every map here also takes a stack of transformations, effects or states
(`core.stack`: the matrices carry leading axes) and acts on each
element, so a sampled check applies each map once to all its samples.
"""

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .basis import hermitian_basis, to_coords
from .core import Effect, Transformation, compose, pair, quantum, stack
from .errors import NotFaithful
from .faithful import conjugate_transformation, prepare_witness
from .quantum import local_state
from .tolerances import GRAM_FLOOR, TRANSPOSE_RESID


class TransposeSolver:
    """Solves (A, I) Phi = (I, A') Phi on a calibrated state
    (`faithful.Calibration`); uniqueness requires the state to be
    dynamically faithful, and every solve certifies its residual
    instead of silently accepting a rank-deficient system.

    Realigned, the equation is one d^2 x d^2 matrix identity.  With R
    the realignment of Phi (`faithful.local_action_matrix`) and A~ the
    superoperator of A, the realigned-frame identity of `channels`
    reads A~ R = R A'~^T, so A'~^T = R^+ A~ R: a
    similarity by R where R is invertible (R = I/d on the maximally
    entangled state).  The part of A~ R outside the range of R is the
    residual.  R, R^+ and the complement of R's range are read off the
    calibration, so a transpose is two d^2 x d^2 products per map
    (three where R is rank-deficient), for one map or a whole stack at
    once."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.phi, self.d = calibration.phi, calibration.d

    def transpose(self, t):
        """The transpose of t, or of each map of a stack.  Each
        element's residual is held to TRANSPOSE_RESID relative to
        max(|A~ R|, 1); the first element in stack order that fails it
        raises NotFaithful."""
        cal = self.calibration
        n = cal.realigned.shape[0]
        # A~ R, one product for a whole stack
        action = (t.super.reshape(-1, n) @ cal.realigned).reshape(-1, n, n)
        if cal.cokernel.size:  # an R of full rank leaves no residual
            resid = np.linalg.norm(cal.cokernel @ action, axis=(-2, -1))
            bound = TRANSPOSE_RESID * np.maximum(np.linalg.norm(action, axis=(-2, -1)), 1.0)
            failed = np.flatnonzero(resid > bound)
            if failed.size:
                raise NotFaithful(f"transpose system residual {resid[failed[0]]} (state not faithful)")
        # A'~ = (R^+ A~ R)^T, whose Choi matrix is the realignment of R^+ A~ R
        choi = ch.realign(cal.realigned_pinv @ action).reshape(t.choi.shape)
        return Transformation(quantum(self.d), choi, generalized=True)


def adjoint_map(solver, t):
    """A-dagger = conjugate of the transpose; for quantum Kraus {K} on
    the maximally entangled state this is the Heisenberg dual {K^dag}."""
    return conjugate_transformation(solver.transpose(t))


def jordan_lift(e):
    """Canonical generalized transformation with a given effect:
    rho -> (E rho + rho E) / 2.  Linear in E, Hermiticity-preserving,
    and its action on the identity also equals E."""
    eye, m = np.eye(e.theory.d), e.matrix
    sup = 0.5 * (ch.kron(m, eye) + ch.kron(eye, m.conj()))
    return Transformation(e.theory, ch.super_to_choi(sup), generalized=True)


def _inner_tt(solver, t1, t2):
    """Scalar product between transformations: Phi|_2(t1^dag after t2)
    (stacks pair elementwise)."""
    a = compose(adjoint_map(solver, t1), t2)
    rho2 = local_state(solver.phi, 2)
    return pair(rho2, Effect(rho2.theory, a.effect().matrix, generalized=True))


@dataclass(frozen=True)
class GnsSpace:
    """The effect Hilbert space carried by a faithful state, in
    coordinates orthonormal for its scalar product: its transpose
    solver, the Gram matrix G of the scalar product in the canonical
    Hermitian basis, and the factors of the pairing with the lifted
    basis, whitened by G^-1/2 where they are built.  With S_T the
    superoperator of a map T, lift j pairs with T as Re(E-bar_j S_T
    a-bar), where row j of E-bar is vec(conj E_j), E_j the effect of
    the adjoint of lift j, `state` (a-bar) is vec(conj rho2^T) and
    column k of Q-bar is lift k applied to a-bar.  G is Re(E-bar
    Q-bar); `effects` holds G^-1/2 E-bar and `lifted` Q-bar G^-1/2, so
    Re(effects lifted) is the identity and no later map applies G."""

    solver: TransposeSolver
    gram: np.ndarray
    effects: np.ndarray
    state: np.ndarray
    lifted: np.ndarray

    @property
    def d(self):
        return self.solver.d

    @property
    def dim(self):
        return self.d * self.d


def gns_space(solver):
    """Build the GNS data of the solver's state, whitened into
    orthonormal coordinates; requires a symmetric faithful state with a
    strictly positive scalar product (positive definite Gram)."""
    phi = solver.phi
    if not solver.calibration.symmetric:
        raise NotFaithful("GNS construction needs a symmetric joint state")
    d, n = solver.d, solver.d**2
    lifts = jordan_lift(Effect(quantum(d), hermitian_basis(d), generalized=True))
    # Phi|_2(adj_j after T) = Tr[E_j T(rho2)], and sum_ab conj(X)_ab Y_ab
    # = Tr[X^dag Y], so the pairing is Re(vec(conj E_j) . S_T vec(conj rho2^T))
    effects = adjoint_map(solver, lifts).effect().matrix.conj().reshape(n, n)
    state = local_state(phi, 2).matrix.T.conj().reshape(n)
    lifted = (lifts.super @ state).T
    gram = (effects @ lifted).real
    gram = (gram + gram.T) / 2.0
    w, v = np.linalg.eigh(gram)
    if w[0] <= GRAM_FLOOR:
        raise NotFaithful("scalar product is not strictly positive")
    isqrt = (v / np.sqrt(w)) @ v.T
    return GnsSpace(solver=solver, gram=gram, effects=isqrt @ effects, state=state, lifted=lifted @ isqrt)


def scalar_product(space, b, a):
    """<B|A> between generalized effects; sesquilinear (conjugation on
    the left entry) on complex coordinate combinations."""
    # complex coordinates Tr[B_k M]: the real coordinates of M and of -iM
    re_b, im_b, re_a, im_a = to_coords(np.array([b.matrix, -1j * b.matrix, a.matrix, -1j * a.matrix]), space.dim)
    cb, ca = re_b + 1j * im_b, re_a + 1j * im_a
    return complex(np.conj(cb) @ space.gram @ ca)


def transformation_coords(space, t):
    """Orthonormal GNS-vector coordinates of a transformation, its
    pairings with the whitened lifted basis (two transformations share
    a vector iff their difference has zero norm).  The leading axes of
    a stack are kept: two matrix products for the whole stack."""
    return ((t.super @ space.state) @ space.effects.T).real


def gns_rep(space, t):
    """Matrix of left composition pi(A)|B> = |A after B| in orthonormal
    coordinates, Re(effects S_A lifted); a homomorphism with
    pi(identity) = identity, and pi(A-dagger) is the transpose of
    pi(A)."""
    return (space.effects @ t.super @ space.lifted).real


def gns_norm(space, t):
    """Operator norm of the GNS matrix with respect to the scalar
    product, which the orthonormal coordinates make its largest
    singular value (the C*-algebra norm; distinct from the Banach
    transformation norm of the statistical calculus)."""
    return np.linalg.svd(gns_rep(space, t), compute_uv=False)[..., 0]


def cstar_check(space, t):
    """(||A-dagger after A||, ||A||^2) in the GNS norm; the C*-identity
    asserts they coincide.  Both sides come from one representation of
    the stack (A-dagger after A, A)."""
    adj = adjoint_map(space.solver, t)
    lhs, norm = gns_norm(space, stack([compose(adj, t), t]))
    return lhs, norm**2


# ---------------------------------------------------------------------------
# Born rule


def state_rep(space, omega):
    """GNS vector representing a state: the adjoint of its preparation
    witness, normalized by the witness probability.

    The transpose alone represents the involution-twisted state; the
    adjoint (conjugate of the transpose) makes the pairing reproduce
    the statistics exactly, consistently with the involution insertion
    in the transformation representation below.

    A stack of states takes one witness solve and one adjoint for them
    all.
    """
    witness, prob = prepare_witness(space.solver.calibration, omega)
    return transformation_coords(space, adjoint_map(space.solver, witness)) / np.expand_dims(prob, -1)


def effect_rep(space, e):
    """GNS vector representing an effect: its lift's transpose."""
    return transformation_coords(space, space.solver.transpose(jordan_lift(e)))


def born_pair(space, omega, a):
    """Probability of effect a in state omega, computed purely from the
    scalar-product representation: the dot product of the two
    orthonormal vectors."""
    return np.sum(effect_rep(space, a) * state_rep(space, omega), axis=-1)


def born_triple(space, omega, b, t):
    """omega(B after A) via <B'| pi(A^sigma) |pi(omega)>."""
    vec_b = effect_rep(space, b)
    op = gns_rep(space, conjugate_transformation(t))
    vec_w = state_rep(space, omega)
    return np.sum(vec_b * (op @ vec_w[..., None])[..., 0], axis=-1)
