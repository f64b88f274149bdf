"""Operational transpose, conjugate, adjoint, scalar product, and the
GNS representation built on a symmetric faithful bipartite state.

The transposed transformation A' is the unique generalized map on the
second subsystem reproducing the local action of A on the first over
the faithful state; the adjoint composes it with the involution.  The
scalar product between generalized effects turns the effect space into
a complex Hilbert space on which left composition acts as a matrix
algebra satisfying the C*-identity.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import channels as ch
from .basis import hermitian_basis, real_view, to_coords
from .core import Effect, Transformation, compose, pair, quantum
from .errors import NotFaithful
from .faithful import (
    _choi_basis,
    conjugate_transformation,
    is_symmetric,
    local_action_matrix,
    prepare_witness,
    witness_system,
)
from .quantum import local_state

TRANSPOSE_RESID = 1e-10


class TransposeSolver:
    """Solves (A, I) Phi = (I, A') Phi; uniqueness requires the state
    to be dynamically faithful, and every solve certifies its residual
    instead of silently accepting a rank-deficient system.  The solver
    also holds the state's preparation-witness system.

    The local action matrices l1, l2 of the two slots act on Choi
    coordinates.  The Choi basis is Hermitian and orthonormal, so the
    real views of its elements, stacked as the rows of V (`view`, no
    copy of the cached basis), take the real view of a Choi matrix to
    its coordinates, and V.T maps them back.  On the first transpose
    the solver folds the whole solve into one operator on real views,
    forward = pinv(l2) l1 V, and the residual into check = Q.T l1 V, Q
    an orthonormal basis of the complement of the range of l2 (empty
    for a faithful state).  A transpose is then forward @ real_view(A),
    mapped back to a real view by V.T, with no coordinate conversion;
    l1, l2 and pinv(l2) are not kept."""

    def __init__(self, phi):
        self.phi = phi
        self.d = phi.d
        self.view = real_view(_choi_basis(phi.d))
        self.witness = witness_system(phi)

    @cached_property
    def _maps(self):
        """(forward, check); the pseudo-inverse is cut at 1e-12
        sigma_max, as np.linalg.pinv cuts it.  l2 is factored before l1
        is built, and u is dropped before the operators are formed, so
        the build needs little more memory than the factorization."""
        u, s, vh = np.linalg.svd(local_action_matrix(self.phi, slot=2))
        r = int(np.sum(s > 1e-12 * s[0]))
        m = u.T @ local_action_matrix(self.phi, slot=1)  # l1 in the basis u
        del u
        return ((vh[:r].T / s[:r]) @ m[:r]) @ self.view, m[r:] @ self.view

    def transpose(self, t):
        forward, check = self._maps
        a = real_view(t.choi)
        resid = float(np.linalg.norm(check @ a))
        # the residual bound is relative to max(|l1 V a|, 1), so the
        # right side is needed only above the absolute bound
        if resid > TRANSPOSE_RESID:
            rhs = local_action_matrix(self.phi, slot=1) @ (self.view @ a)
            if resid > TRANSPOSE_RESID * max(float(np.linalg.norm(rhs)), 1.0):
                raise NotFaithful(
                    f"transpose system residual {resid} (state not faithful)"
                )
        n = self.d * self.d
        choi = (self.view.T @ (forward @ a)).view(complex).reshape(n, n)
        return Transformation(quantum(self.d), choi, generalized=True)


def adjoint_map(solver, t):
    """A-dagger = conjugate of the transpose; for quantum Kraus {K} on
    the maximally entangled state this is the Heisenberg dual {K^dag}."""
    return conjugate_transformation(solver.transpose(t))


def jordan_lift(e):
    """Canonical generalized transformation with a given effect:
    rho -> (E rho + rho E) / 2.  Linear in E, Hermiticity-preserving,
    and its action on the identity also equals E."""
    d = e.theory.d
    eye = np.eye(d)
    sup = 0.5 * (np.kron(e.matrix, eye) + np.kron(eye, e.matrix.conj()))
    return Transformation(e.theory, ch.super_to_choi(sup), generalized=True)


def _inner_tt(solver, t1, t2):
    """Scalar product between transformations: Phi|_2(t1^dag after t2)."""
    a = compose(adjoint_map(solver, t1), t2)
    rho2 = local_state(solver.phi, 2)
    return pair(rho2, Effect(rho2.theory, a.effect().matrix, generalized=True))


@dataclass(frozen=True)
class GnsSpace:
    """The effect Hilbert space carried by a faithful state: its
    transpose solver, the Gram matrix of the scalar product in the
    canonical Hermitian basis with its square root and inverse square
    root, the pairing matrix taking the real view of a Choi matrix to
    the transformation's pairings with the lifted basis (the scalar
    product is linear in its right entry, so all downstream vectors
    come from one matrix-vector product), and the superoperators of the
    lifted basis, which gns_rep composes with."""

    solver: TransposeSolver
    gram: np.ndarray
    gram_sqrt: np.ndarray
    gram_isqrt: np.ndarray
    pairing: np.ndarray
    lift_supers: np.ndarray

    @property
    def phi(self):
        return self.solver.phi

    @property
    def d(self):
        return self.solver.d

    @property
    def dim(self):
        return self.d * self.d


def gns_space(solver):
    """Build the GNS data of the solver's state; requires a symmetric
    faithful state with a strictly positive scalar product (positive
    definite Gram)."""
    phi = solver.phi
    if not is_symmetric(phi):
        raise NotFaithful("GNS construction needs a symmetric joint state")
    d = phi.d
    basis = hermitian_basis(d)
    th = quantum(d)
    lifts = tuple(jordan_lift(Effect(th, b, generalized=True)) for b in basis)
    lift_chois = np.array([lift.choi for lift in lifts])
    # Pairing of lift k with the map T of Choi matrix C:
    # Phi|_2(adj_k after T) = Tr[rho2 T^*(E_k)] = Tr[C (rho2^T kron E_k)],
    # E_k the effect of adj_k.  The kron is Hermitian, so the trace is
    # the real dot product of the real views of the kron and of C.
    rho2 = local_state(phi, 2).matrix
    effects = [adjoint_map(solver, lift).effect().matrix for lift in lifts]
    pairing = real_view(np.array([np.kron(rho2.T, e) for e in effects]))
    gram = pairing @ real_view(lift_chois).T
    gram = (gram + gram.T) / 2.0
    w, v = np.linalg.eigh(gram)
    if w[0] <= 1e-12:
        raise NotFaithful("scalar product is not strictly positive")
    return GnsSpace(
        solver=solver,
        gram=gram,
        gram_sqrt=(v * np.sqrt(w)) @ v.T,
        gram_isqrt=(v / np.sqrt(w)) @ v.T,
        pairing=pairing,
        lift_supers=ch.choi_to_super(lift_chois),
    )


def scalar_product(space, b, a):
    """<B|A> between generalized effects; sesquilinear (conjugation on
    the left entry) on complex coordinate combinations."""
    # complex coordinates Tr[B_k M]: the real coordinates of M and of -iM
    re_b, im_b, re_a, im_a = to_coords(
        np.array([b.matrix, -1j * b.matrix, a.matrix, -1j * a.matrix]),
        hermitian_basis(space.d),
    )
    cb, ca = re_b + 1j * im_b, re_a + 1j * im_a
    return complex(np.conj(cb) @ space.gram @ ca)


def transformation_coords(space, t):
    """GNS-vector coordinates of a transformation, from its pairings
    with the canonical lifted basis (two transformations share a vector
    iff their difference has zero norm)."""
    return np.linalg.solve(space.gram, space.pairing @ real_view(t.choi))


def gns_rep(space, t):
    """Matrix of left composition pi(A)|B> = |A after B| in canonical
    coordinates; a homomorphism with pi(identity) = identity."""
    composites = ch.super_to_choi(t.super @ space.lift_supers)  # t after each lift
    cols = space.pairing @ real_view(composites).T
    return np.linalg.solve(space.gram, cols)


def gns_norm(space, t):
    """Operator norm of the GNS matrix with respect to the scalar
    product, ||G^1/2 pi(t) G^-1/2||_2 (the C*-algebra norm; distinct
    from the Banach transformation norm of the statistical calculus)."""
    rep = space.gram_sqrt @ gns_rep(space, t) @ space.gram_isqrt
    return float(np.linalg.svd(rep, compute_uv=False)[0])


def cstar_check(space, t):
    """(||A-dagger after A||, ||A||^2) in the GNS norm; the C*-identity
    asserts they coincide."""
    adj = adjoint_map(space.solver, t)
    lhs = gns_norm(space, compose(adj, t))
    rhs = gns_norm(space, t) ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# Born rule


def state_rep(space, omega):
    """GNS vector representing a state: the adjoint of its preparation
    witness, normalized by the witness probability.

    The transpose alone represents the involution-twisted state; the
    adjoint (conjugate of the transpose) makes the pairing reproduce
    the statistics exactly, consistently with the involution insertion
    in the transformation representation below.
    """
    witness, p = prepare_witness(space.solver.witness, omega)
    adj = adjoint_map(space.solver, witness)
    return transformation_coords(space, adj) / p


def effect_rep(space, e):
    """GNS vector representing an effect: its lift's transpose."""
    return transformation_coords(space, space.solver.transpose(jordan_lift(e)))


def born_pair(space, omega, a):
    """Probability of effect a in state omega, computed purely from the
    scalar-product representation."""
    vec_a = effect_rep(space, a)
    vec_w = state_rep(space, omega)
    return float(np.real(np.conj(vec_a) @ space.gram @ vec_w))


def born_triple(space, omega, b, t):
    """omega(B after A) via <B'| pi(A^sigma) |pi(omega)>."""
    vec_b = effect_rep(space, b)
    op = gns_rep(space, conjugate_transformation(t))
    vec_w = state_rep(space, omega)
    return float(np.real(np.conj(vec_b) @ space.gram @ (op @ vec_w)))
