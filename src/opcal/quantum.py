"""Quantum and classical backends: density matrices, CP maps in Choi
form, bipartite states, local actions, and seeded samplers.

Sampling distributions: states are Hilbert-Schmidt (normalized Wishart
G G^dag / Tr), pure states Haar (normalized complex Gaussian), CP maps
Wishart Choi matrices rescaled to be trace-nonincreasing.  Every
sampler takes an explicit seed (or a Generator) so suites reproduce
bit-for-bit.
"""

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .core import (
    PROB_TOL,
    Effect,
    Experiment,
    State,
    Transformation,
    classical,
    quantum,
)
from .errors import DimensionMismatch, ZeroProbability


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


# ---------------------------------------------------------------------------
# bipartite states


@dataclass(frozen=True)
class BipartiteWeight:
    """Unnormalized joint weight of two identical d-dimensional systems
    (or a stack of them, along leading axes of the matrix)."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        if self.matrix.shape[-2:] != (self.d**2, self.d**2):
            raise DimensionMismatch(
                f"joint matrix must be {self.d**2} x {self.d**2}"
            )

    @property
    def total(self):
        return self.matrix.trace(axis1=-2, axis2=-1).real

    def normalize(self, tol=PROB_TOL):
        """The joint state of each weight; a stack with any weight at or
        below the cutoff raises."""
        t = self.total
        if (t <= tol).any():
            raise ZeroProbability(f"joint weight {np.min(t)} below cutoff {tol}")
        return BipartiteState(self.d, self.matrix / t[..., None, None])


@dataclass(frozen=True)
class BipartiteState(BipartiteWeight):
    def __post_init__(self):
        super().__post_init__()
        if (np.abs(self.matrix.trace(axis1=-2, axis2=-1) - 1.0) > 1e-9).any():
            raise ValueError("joint state must have unit trace")

    @property
    def theory(self):
        return quantum(self.d)


def max_entangled(d):
    """|Omega><Omega| with |Omega> = d^(-1/2) sum_i |ii>."""
    if d < 2:
        raise ValueError("need d >= 2")
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0 / np.sqrt(d)
    return BipartiteState(d, np.outer(v, v.conj()))


def product_state(w1, w2):
    m1 = w1.matrix if hasattr(w1, "matrix") else np.asarray(w1)
    m2 = w2.matrix if hasattr(w2, "matrix") else np.asarray(w2)
    return BipartiteState(m1.shape[0], np.kron(m1, m2))


def local_state(joint, n):
    """Local state of slot n: the joint paired with a transformation on
    that slot and identity elsewhere (partial trace over the other)."""
    keep = 0 if n == 1 else 1
    rho = ch.partial_trace(joint.matrix, (joint.d, joint.d), keep)
    return State(quantum(joint.d), rho / rho.trace(axis1=-2, axis2=-1).real[..., None, None])


def apply_local(joint, t, slot):
    """Local action (A, I) or (I, A) on a joint weight, unnormalized."""
    if t.theory.d != joint.d:
        raise DimensionMismatch(
            f"transformation dimension {t.theory.d} != joint slot {joint.d}"
        )
    out = ch.apply_local_super(t.super, joint.matrix, slot, joint.d)
    return BipartiteWeight(joint.d, out)


def condition_local(joint, t, slot, tol=PROB_TOL):
    w = apply_local(joint, t, slot)
    return w.total, w.normalize(tol)


def signaling_residual(joint, experiment, tol=PROB_TOL):
    """Largest entry by which the deterministic sum of a local
    experiment on slot 1 changes the local state of slot 2 (zero for a
    theory without signaling).  A stack of joint states and an
    experiment whose branches are stacks (`core.stack` of experiments)
    give the largest over the stack.  Raises if the experiment is
    incomplete rather than reporting a spurious violation."""
    experiment.check_complete(tol)
    after = apply_local(joint, experiment.deterministic_sum(), 1)
    lhs = ch.partial_trace(after.matrix, (joint.d, joint.d), 1)
    return float(np.max(np.abs(lhs - local_state(joint, 2).matrix)))


def no_signaling_check(joint, experiment, tol=PROB_TOL):
    """The deterministic sum of a local experiment on slot 1 leaves the
    local state of slot 2 unchanged, to tol in every entry."""
    return signaling_residual(joint, experiment, tol) <= tol


# ---------------------------------------------------------------------------
# CP map plumbing


def kraus_to_choi(theory, kraus, generalized=False):
    """Transformation of the Kraus operators (a stack of them, one map
    per element, when they carry leading axes, as in
    `channels.kraus_to_choi_matrix`)."""
    if any(np.shape(k)[-2:] != (theory.d, theory.d) for k in kraus):
        raise DimensionMismatch("Kraus operators must be d x d")
    return Transformation(theory, ch.kraus_to_choi_matrix(kraus), generalized)


def projector_map(theory, p):
    """rho -> P rho P for a projector (or any single Kraus operator) P."""
    return kraus_to_choi(theory, [p])


def projective_experiment(theory):
    """Experiment with branches P_i . P_i over the computational basis."""
    d = theory.d
    branches = [projector_map(theory, np.diag(np.eye(d)[i])) for i in range(d)]
    return Experiment(tuple(branches))


# ---------------------------------------------------------------------------
# samplers


def random_pure(d, seed):
    rng = _rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_unitary(d, seed):
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d, seed):
    """Hilbert-Schmidt measure via a normalized Wishart matrix."""
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return State(quantum(d), m / np.real(np.trace(m)))

def random_joint_state(d, seed):
    inner = random_state(d * d, seed)
    return BipartiteState(d, inner.matrix)


def random_effect(d, seed):
    """Physical effect 0 <= E <= I (Wishart rescaled by its top eigenvalue)."""
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return Effect(quantum(d), m / np.linalg.eigvalsh(m)[-1] * rng.uniform(0.2, 1.0))


def random_generalized_effect(d, seed):
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Effect(quantum(d), (g + g.conj().T) / 2.0, generalized=True)


def random_cp(d, seed, trace_preserving=False, rank=None):
    """CP map from a Wishart Choi rescaled to trace-nonincreasing (or
    projected to trace-preserving)."""
    rng = _rng(seed)
    k = rank or d * d
    g = rng.standard_normal((d * d, k)) + 1j * rng.standard_normal((d * d, k))
    c = g @ g.conj().T
    e = ch.effect_of_choi(c)
    if trace_preserving:
        # every Kraus operator K becomes K R, R = (sum K^dag K)^{-1/2},
        # so the dual unit is the identity; on the Choi matrix that is
        # the congruence by R^T kron I
        rt = np.linalg.inv(ch.herm_sqrt(e)).T
        c = np.einsum("ik,kalb,jl->iajb", rt, c.reshape(d, d, d, d), rt.conj())
        return Transformation(quantum(d), c.reshape(d * d, d * d))
    c = c / (np.linalg.eigvalsh(e)[-1] * float(rng.uniform(1.0, 2.0)))
    return Transformation(quantum(d), c)


def random_experiment(d, seed):
    """Random instrument: the three Kraus pieces of a trace-preserving
    CP map, i.e. the rank-one terms w v v^dag of its Choi matrix."""
    rng = _rng(seed)
    tp = random_cp(d, rng, trace_preserving=True, rank=3)
    w, v = np.linalg.eigh(tp.choi)
    keep = w > 1e-12
    branches = np.einsum("ik,jk->kij", v[:, keep] * w[keep], v[:, keep].conj())
    return Experiment(tuple(Transformation(quantum(d), c) for c in branches))


# ---------------------------------------------------------------------------
# classical (diagonal) backend helpers


def classical_state(probs):
    p = np.asarray(probs, dtype=float)
    return State(classical(len(p)), np.diag(p).astype(complex))


def classical_effect(values, generalized=False):
    v = np.asarray(values, dtype=float)
    return Effect(classical(len(v)), np.diag(v).astype(complex), generalized)


def classical_map(matrix, generalized=False):
    """Transformation from a (sub)stochastic matrix M[i, j], acting on
    outcome vectors; encoded with Kraus sqrt(M_ij) |i><j| so the shared
    Choi machinery applies."""
    m = np.asarray(matrix, dtype=float)
    # Choi entry [(j, i), (j, i)] is M[i, j]
    c = np.diag(m.T.reshape(-1)).astype(complex)
    return Transformation(classical(m.shape[0]), c, generalized)


def random_classical_state(d, seed):
    rng = _rng(seed)
    return classical_state(rng.dirichlet(np.ones(d)))


def random_classical_map(d, seed):
    rng = _rng(seed)
    m = rng.uniform(0.0, 1.0, (d, d))
    m /= np.max(np.sum(m, axis=0)) * float(rng.uniform(1.0, 1.5))
    return classical_map(m)
