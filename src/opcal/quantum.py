"""Quantum and classical backends: density matrices, CP maps in Choi
form, joint states, local actions, and seeded samplers.

Sampling distributions: states are Hilbert-Schmidt (normalized Wishart
G G^dag / Tr), CP maps Wishart Choi matrices rescaled to be
trace-nonincreasing.  Every sampler is sampler(d, seed, n=None): it
draws from the seed (or Generator) with one generator call per array,
the arrays of n samples stacked along a new leading axis, and builds
the stack of n objects in one pass; with n None it draws and builds one
object.  So the same seed gives the same samples bit for bit.
"""

import math

import numpy as np

from . import channels as ch
from .basis import diagonal_basis
from .core import Effect, Experiment, State, Transformation, Weight, classical, quantum
from .errors import DimensionMismatch


# ---------------------------------------------------------------------------
# joint states: states of quantum(d^2)


def part_dim(joint):
    """The dimension d of each part of a joint state or weight of
    quantum(d^2)."""
    d = math.isqrt(joint.theory.d)
    if d * d != joint.theory.d:
        raise DimensionMismatch(f"{joint.theory} is not the joint theory of two equal parts")
    return d


def max_entangled(d):
    """|Omega><Omega| with |Omega> = d^(-1/2) sum_i |ii>."""
    if d < 2:
        raise ValueError("need d >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return State(quantum(d * d), np.outer(v, v.conj()))


def local_state(joint, n):
    """Local state of slot n: the joint paired with a transformation on
    that slot and identity elsewhere (partial trace over the other)."""
    d = part_dim(joint)
    return Weight(quantum(d), ch.partial_trace(joint.matrix, n)).normalize()


def apply_local(joint, t, slot):
    """Local action (A, I) or (I, A) on a joint weight, unnormalized."""
    d = part_dim(joint)
    if t.theory.d != d:
        raise DimensionMismatch(f"transformation dimension {t.theory.d} != joint slot {d}")
    out = ch.apply_local_super(t.super, joint.matrix, slot)
    return Weight(joint.theory, out, t.generalized or joint.generalized)


def condition_local(joint, t, slot):
    w = apply_local(joint, t, slot)
    return w.total, w.normalize()


def signaling_residual(joint, experiment):
    """Largest entry by which the deterministic sum of a local
    experiment on slot 1 changes the local state of slot 2 (zero for a
    theory without signaling).  A stack of joint states and an
    experiment whose branches are stacks (as `random_experiment` builds
    from stacked draws) give the largest over the stack.  An incomplete
    experiment, which would report a spurious violation, cannot reach
    it: an Experiment is complete (to COMPLETENESS_TOL) once built."""
    after = apply_local(joint, experiment.deterministic_sum(), 1)
    lhs = ch.partial_trace(after.matrix, 2)
    return float(np.max(np.abs(lhs - local_state(joint, 2).matrix)))


# ---------------------------------------------------------------------------
# CP map plumbing


def kraus_to_choi(theory, kraus):
    """Transformation of the Kraus operators (a stack of them, one map
    per element, when they carry leading axes, as in
    `channels.kraus_to_choi_matrix`)."""
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.shape[-2:] != (theory.d, theory.d):
        raise DimensionMismatch("Kraus operators must be d x d")
    return Transformation(theory, ch.kraus_to_choi_matrix(kraus))


def projector_map(theory, p):
    """rho -> P rho P for a projector (or any single Kraus operator) P."""
    return kraus_to_choi(theory, [p])


def projective_experiment(theory):
    """Experiment with branches P_i . P_i over the computational basis:
    one Kraus operator per branch, the projectors of diagonal_basis."""
    return Experiment(kraus_to_choi(theory, diagonal_basis(theory.d)[:, None]))


# ---------------------------------------------------------------------------
# samplers


def _size(n, *shape):
    """The shape of one sample's array, or of n stacked along a new
    leading axis."""
    return shape if n is None else (n, *shape)


def _gaussian(rng, n, *shape):
    """Complex Gaussian entries: one call for the real parts, then one
    for the imaginary parts."""
    size = _size(n, *shape)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _dagger(g):
    return np.swapaxes(g.conj(), -1, -2)


def _per_matrix(x):
    """A scalar per matrix (an array over a stack), shaped to divide it."""
    return np.asarray(x)[..., None, None]


def random_state(d, seed, n=None):
    """Hilbert-Schmidt measure via a normalized Wishart matrix."""
    g = _gaussian(np.random.default_rng(seed), n, d, d)
    m = g @ _dagger(g)
    return Weight(quantum(d), m).normalize()


def random_effect(d, seed, n=None):
    """Physical effect 0 <= E <= I (Wishart rescaled by its top eigenvalue)."""
    rng = np.random.default_rng(seed)
    g = _gaussian(rng, n, d, d)
    m = g @ _dagger(g)
    top = np.linalg.eigvalsh(m)[..., -1]
    return Effect(quantum(d), m / _per_matrix(top) * _per_matrix(rng.uniform(0.2, 1.0, n)))


def random_generalized_effect(d, seed, n=None):
    g = _gaussian(np.random.default_rng(seed), n, d, d)
    return Effect(quantum(d), (g + _dagger(g)) / 2.0, generalized=True)


def _trace_preserving(d, g):
    """The factor g of a Choi matrix g g^dag made trace preserving: every
    Kraus operator K becomes K R, R = (sum K^dag K)^{-1/2}, which on the
    Choi matrix is the congruence by R^T kron I, so on its factor one
    product by R^T on the first tensor index."""
    *lead, _, r = g.shape
    rows = g.reshape(*lead, d, d * r)
    # rows rows^dag is the output trace of g g^dag, the transpose of
    # sum K^dag K, so its inverse square root is R^T
    rt = np.linalg.inv(ch.herm_sqrt(rows @ _dagger(rows)))
    return (rt @ rows).reshape(*lead, d * d, r)


def random_cp(d, seed, n=None):
    """CP map from a Wishart Choi rescaled to trace-nonincreasing."""
    rng = np.random.default_rng(seed)
    g = _gaussian(rng, n, d * d, d * d)
    c = g @ _dagger(g)
    top = np.linalg.eigvalsh(ch.effect_of_choi(c))[..., -1]
    return Transformation(quantum(d), c / _per_matrix(top * rng.uniform(1.0, 2.0, n)))


def random_experiment(d, seed, n=None):
    """Random instrument: the three Kraus pieces of a trace-preserving
    CP map of Choi rank three, i.e. the rank-one terms w v v^dag of its
    eigendecomposition, in ascending order of w.  The Choi matrix is
    h h^dag for a d^2 x 3 factor h, so the pairs are its left singular
    vectors and squared singular values."""
    h = _trace_preserving(d, _gaussian(np.random.default_rng(seed), n, d * d, 3))
    v, s, _ = np.linalg.svd(h, full_matrices=False)
    v, w = v[..., ::-1], s[..., ::-1] ** 2
    branches = np.einsum("...ik,...jk->...kij", v * w[..., None, :], v.conj())
    return Experiment(Transformation(quantum(d), np.moveaxis(branches, -3, 0)))


def random_kraus_contraction(d, seed, n=None):
    """rho -> K rho K^dag for a Gaussian K scaled to operator norm 1/1.1."""
    k = _gaussian(np.random.default_rng(seed), n, d, d)
    k = k / (_per_matrix(np.linalg.norm(k, 2, axis=(-2, -1))) * 1.1)
    # one Kraus operator per map: the Kraus axis before the last two
    return kraus_to_choi(quantum(d), k[..., None, :, :])


# ---------------------------------------------------------------------------
# classical (diagonal) backend helpers


def _diag(v):
    """The diagonal matrix of a vector, or of each of a stack of them
    (along the last axis)."""
    i = np.arange(v.shape[-1])
    out = np.zeros(v.shape + i.shape, dtype=complex)
    out[..., i, i] = v
    return out


def classical_state(probs):
    p = np.asarray(probs, dtype=float)
    return State(classical(p.shape[-1]), _diag(p))


def classical_effect(values):
    v = np.asarray(values, dtype=float)
    return Effect(classical(v.shape[-1]), _diag(v))


def classical_map(matrix):
    """Physical transformation from a (sub)stochastic matrix M[i, j] (or
    a stack of them), acting on outcome vectors; encoded with Kraus
    sqrt(M_ij) |i><j| so the shared Choi machinery applies."""
    m = np.asarray(matrix, dtype=float)
    # Choi entry [(j, i), (j, i)] is M[i, j]
    flat = np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], -1)
    return Transformation(classical(m.shape[-1]), _diag(flat))


def random_classical_state(d, seed, n=None):
    return classical_state(np.random.default_rng(seed).dirichlet(np.ones(d), size=n))


def random_classical_effect(d, seed, n=None):
    return classical_effect(np.random.default_rng(seed).uniform(0.0, 1.0, _size(n, d)))


def random_classical_map(d, seed, n=None):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, _size(n, d, d))
    scale = np.max(np.sum(m, axis=-2), axis=-1) * rng.uniform(1.0, 1.5, n)
    return classical_map(m / _per_matrix(scale))
