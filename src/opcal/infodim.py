"""Informational completeness, discriminability, and the dimension
identities relating affine, informational and effect-space dimensions.

Every rank is of a Hermitian family's coordinates, from
basis.to_coords (or packed_product_coords for kron products, and
projector_coords for the projectors of a family of vectors), which
have the inner products of its matrices, so the rank is that of the
family.  Ranks are decided by basis.matrix_rank, scale-free: a full
rank is certified by one Cholesky factor of the Gram matrix shifted
down by RANK_CERT times its trace, and any rank that certificate
cannot show is counted in singular values above RANK_RCOND *
sigma_max.  The certificate only answers where the singular values
would count the same, so a rank never depends on which of the two
decided it.

The theory-level measurements (affine_state_dimension,
informational_dimension, effect_space_dimension,
transformation_affine_dimension) depend on the theory alone.  A run
takes each at most once, through the per-run store of
`cli.RunContext.measure`, which dim_identities reads too; nothing here
keeps a result between calls.
"""

import numpy as np

from . import channels as ch
from .basis import (
    diagonal_basis,
    hermitian_basis,
    matrix_rank,
    packed_product_coords,
    projector_coords,
    to_coords,
)
from .core import Effect, Observable, Theory, quantum, spanning_vectors
from .errors import NotIC, WitnessFailed
from .quantum import kraus_to_choi
from .tolerances import DISCRIMINATION_RESID, EXPAND_RESID, RESOLVED_EIG


def ic_rank(obs):
    """Dimension of the span of the observable's effects."""
    return matrix_rank(to_coords(obs.effects.matrix, obs.theory.effect_dim))


def is_informationally_complete(obs):
    return ic_rank(obs) == obs.theory.effect_dim


def is_minimal_ic(obs):
    """Informationally complete with linearly independent effects."""
    return is_informationally_complete(obs) and len(obs) == obs.theory.effect_dim


def ic_expand(effect, obs):
    """Coefficients c_i with effect = sum_i c_i l_i, unique for minimal
    IC observables and minimum-norm otherwise, and the residual of the
    expansion, at most EXPAND_RESID."""
    if not is_informationally_complete(obs):
        raise NotIC("observable does not span the effect space")
    rows = obs.effects.coords
    c, *_ = np.linalg.lstsq(rows.T, effect.coords, rcond=None)
    resid = float(np.linalg.norm(rows.T @ c - effect.coords))
    if resid > EXPAND_RESID:
        raise NotIC(f"expansion residual {resid} above {EXPAND_RESID}")
    return c, resid


def is_resolved(e):
    """Predictable (eigenvalues 0 and 1) with a single pure state of
    certain occurrence, to RESOLVED_EIG in the eigenvalues: one bool
    per effect of a stack, from one eigvalsh."""
    ev = np.linalg.eigvalsh(e.matrix)
    one = np.abs(ev - 1.0) <= RESOLVED_EIG
    return (np.abs(ev[..., 0]) <= RESOLVED_EIG) & one[..., -1] & (one.sum(axis=-1) == 1)


# ---------------------------------------------------------------------------
# reference observables


def minimal_ic_povm(d):
    """A minimal informationally complete observable at any dimension:
    d^2 - 1 effects (I + eps B_a) / d^2 over a traceless family, the
    basis elements after |0><0| less their trace parts, after the
    completing effect I - sum_a (I + eps B_a) / d^2."""
    basis = hermitian_basis(d)[1:]
    traceless = basis - np.trace(basis, axis1=-2, axis2=-1)[:, None, None] * np.eye(d) / d
    n = d * d
    # keep both (I + eps B_a)/n and the completing effect positive
    total = np.sum(traceless, axis=0)
    eps = min(1.0 / (2.0 * d), 0.9 / float(np.linalg.norm(total, 2)))
    effs = (np.eye(d) + eps * traceless) / n
    return Observable(Effect(quantum(d), np.concatenate([[np.eye(d) - effs.sum(axis=0)], effs])))


def ic_observable(theory):
    """The backend's minimal informationally complete observable: the
    vertex projectors |i><i| on the classical simplex, minimal_ic_povm
    on the quantum backend."""
    if theory.backend == "classical":
        return Observable(Effect(theory, diagonal_basis(theory.d)))
    return minimal_ic_povm(theory.d)


# ---------------------------------------------------------------------------
# informational dimension


def informational_dimension(theory):
    """Maximal cardinality of a perfectly discriminable set of states,
    verified constructively, and the witness's pairing residual.

    The witness is the d basis states |i><i|, the projectors of the
    first d spanning vectors (the first d spanning states on both
    backends, built alone), and the effects of a predictable
    and resolved discriminating observable, the basis projectors (one
    stack, which passes an Observable's completeness test): their
    pairing must be the delta matrix.  One more state is impossible:
    each discriminating effect needs unit norm so unit trace at least,
    and the traces must sum to the trace d of the unit effect."""
    d = theory.d
    basis = diagonal_basis(d)
    v = spanning_vectors(d)[:d]
    states = np.einsum("ai,aj->aij", v, v.conj())
    effects = Observable(Effect(theory, basis)).effects
    # Tr[w l] for every (state, effect) at once
    gram = np.tensordot(states, basis, axes=([1, 2], [2, 1])).real
    resid = float(np.max(np.abs(gram - np.eye(d))))
    if resid > DISCRIMINATION_RESID:
        raise WitnessFailed("discrimination witness failed the delta check")
    if not np.all(is_resolved(effects)):
        raise WitnessFailed("discriminating effects are not predictable and resolved")
    return len(states), resid


def affine_state_dimension(theory):
    """Affine dimension of the state set, measured as the rank of the
    differences of a spanning family: the coordinates of the spanning
    states, read off their vectors, without forming the states."""
    k = theory.effect_dim
    rows = projector_coords(spanning_vectors(theory.d)[:k], k)
    rows[1:] -= rows[0]
    return matrix_rank(rows[1:])


def effect_space_dimension(theory):
    """Linear dimension of the generalized-effect space, measured from
    the span of the physical effects (I + B_a) / 2, one per basis
    element B_a shifted into the cone."""
    return matrix_rank(to_coords((np.eye(theory.d) + theory.basis()) / 2.0, theory.effect_dim))


def transformation_affine_dimension(theory):
    """Affine dimension of the convex set of physical transformations,
    from a deterministic spanning family of maps built by the
    transformation layer: rho -> K rho K^dag for the spanning vectors
    of C^(d^2) read as d x d Kraus operators K (unit Frobenius norm, so
    contractions), of which the classical backend keeps the d^2 vertex
    maps |i><j|, as spanning_states keeps the vertex states.  The zero
    map is a transformation too, so the affine dimension is the rank of
    their Choi coordinates."""
    d = theory.d
    th12 = Theory(theory.backend, d * d)
    kraus = spanning_vectors(d * d)[: th12.effect_dim]
    maps = kraus_to_choi(theory, kraus.reshape(-1, 1, d, d))
    rows = to_coords(maps.choi, th12.effect_dim)
    del maps  # freed before the rank, which allocates its own Gram matrix
    return matrix_rank(rows)


# ---------------------------------------------------------------------------
# composite-system checks


def check_local_observability(obs1, obs2):
    """Pairwise products of two local minimal IC observables span the
    bipartite effect space of their backend (rank (d1 d2)^2 for quantum,
    d1 d2 for classical)."""
    d1, d2 = obs1.theory.d, obs2.theory.d
    th12 = Theory(obs1.theory.backend, d1 * d2)
    rank = matrix_rank(packed_product_coords(obs1.effects.matrix, obs2.effects.matrix, th12.effect_dim))
    return rank == th12.effect_dim, rank


def weyl_operators(d):
    """The d^2 displacements X^m Z^n, m-major, with X|k> = |k+1> and
    Z|k> = w^k |k> (w = exp(2 pi i / d)), from the closed form
    (X^m Z^n)[j, k] = w^(n k) [j = k + m mod d]."""
    m, n, j, k = np.ogrid[:d, :d, :d, :d]
    w = np.exp(2j * np.pi * (n * k % d) / d) * ((j - k - m) % d == 0)
    return w.reshape(d * d, d, d)


def generic_ancilla_state(d):
    """Full-rank ancilla preparation with nonzero overlap on every
    displacement direction, so the induced marginal observable is
    informationally complete.  (The maximally mixed ancilla would
    induce the trivial observable.)"""
    w = weyl_operators(d)[1:]
    wd = w.conj().swapaxes(-1, -2)
    k = np.arange(len(w))
    # both Hermitian combinations, so the overlap with w itself is
    # nonzero even when w + w^dag vanishes (e.g. anti-Hermitian w)
    m = np.eye(d) + np.einsum("k,kij->ij", 0.2 / (k + 2.0), w + wd)
    m = m + 1j * np.einsum("k,kij->ij", 0.1 / (k + 3.0), w - wd)
    ev = np.linalg.eigvalsh(m)
    m = m + (abs(min(ev[0], 0.0)) + 0.05) * np.eye(d)
    return m / np.trace(m)


def bell_basis_observable(d):
    """Discriminating observable on system + ancilla: the d^2 rank-one
    projectors onto (I x U_mn)|Omega>, whose vectors are vec(U_mn^T)/sqrt(d)."""
    v = weyl_operators(d).swapaxes(-1, -2).reshape(d * d, d * d) / np.sqrt(d)
    projs = np.einsum("ai,aj->aij", v, v.conj())
    return Observable(Effect(quantum(d * d), projs))


def check_bell_ic(d):
    """A joint discriminating observable plus the generic ancilla
    preparation induces a minimal IC observable on the system."""
    joint = bell_basis_observable(d).effects.matrix
    margs = ch.partial_trace(np.kron(np.eye(d), generic_ancilla_state(d)) @ joint, 1)
    return is_minimal_ic(Observable(Effect(quantum(d), margs)))


# ---------------------------------------------------------------------------
# the identity table


def dim_identities(d, backend, measure):
    """Measure every dimension entering the identity table of a system
    and its composite with a copy of itself: each row's name mapped to
    its (lhs, rhs), which holds when the two are equal.

    Each of the six measurements is measure(f, theory), f the function
    of this module as bound when it is measured.  A run's context
    passes its per-run store (`cli.RunContext.measure`), so a dimension
    that another check of the run has measured is read, not measured
    again."""
    th1, th12 = Theory(backend, d), Theory(backend, d * d)
    adm1 = measure(affine_state_dimension, th1)
    idim1, _ = measure(informational_dimension, th1)
    dim_pr = measure(effect_space_dimension, th1)
    adm12 = measure(affine_state_dimension, th12)
    idim12, _ = measure(informational_dimension, th12)
    adm_t = measure(transformation_affine_dimension, th1)
    return {
        "D2": (dim_pr, adm1 + 1),
        "D3": (adm12, adm1**2 + 2 * adm1),
        "D4": (adm1, idim12 - 1),
        "D34": (adm12, idim12**2 - 1),
        "D34'": (adm1, idim1**2 - 1),
        "tensor": (idim12, idim1**2),
        "T": (adm_t, adm12 + 1),
        "P": (dim_pr, idim1**2),
    }
