"""Quantum and classical backends: density matrices, CP maps in Choi
form, bipartite states, local actions, and seeded samplers.

Sampling distributions: states are Hilbert-Schmidt (normalized Wishart
G G^dag / Tr), CP maps Wishart Choi matrices rescaled to be
trace-nonincreasing.  Every sampler takes an explicit seed (or a
Generator) so suites reproduce bit-for-bit.  A sampler's recipe lists
the rng calls of one sample; `_execute` makes the calls of n samples,
each run of consecutive Gaussian calls as one call, and returns their
raw output stacked over samples (`Draws`).  Given Draws in place of a
seed a sampler only builds, and the build is stack-aware: draws
stacked over samples build the stack of objects in one pass, each
element equal to its own scalar call.  `checks._draw` runs the recipes
of a check's samplers as one and builds once per stack.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import channels as ch
from .core import Effect, Experiment, State, Transformation, classical, quantum
from .errors import DimensionMismatch, ZeroProbability
from .tolerances import PROB_TOL, UNIT_TRACE


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

    def normalize(self):
        """The joint state of each weight; a stack with any weight at or
        below PROB_TOL raises."""
        t = self.total
        if (t <= PROB_TOL).any():
            raise ZeroProbability(f"joint weight {np.min(t)} below cutoff {PROB_TOL}")
        return BipartiteState(self.d, self.matrix / t[..., None, None])


@dataclass(frozen=True)
class BipartiteState(BipartiteWeight):
    def __post_init__(self):
        super().__post_init__()
        if (np.abs(self.matrix.trace(axis1=-2, axis2=-1) - 1.0) > UNIT_TRACE).any():
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


def condition_local(joint, t, slot):
    w = apply_local(joint, t, slot)
    return w.total, w.normalize()


def signaling_residual(joint, experiment):
    """Largest entry by which the deterministic sum of a local
    experiment on slot 1 changes the local state of slot 2 (zero for a
    theory without signaling).  A stack of joint states and an
    experiment whose branches are stacks (as `random_experiment` builds
    from stacked draws) give the largest over the stack.  Raises if the
    experiment is incomplete rather than reporting a spurious
    violation (at COMPLETENESS_TOL, `Experiment.check_complete`)."""
    experiment.check_complete()
    after = apply_local(joint, experiment.deterministic_sum(), 1)
    lhs = ch.partial_trace(after.matrix, (joint.d, joint.d), 1)
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
    """Experiment with branches P_i . P_i over the computational basis."""
    d = theory.d
    branches = [projector_map(theory, np.diag(np.eye(d)[i])) for i in range(d)]
    return Experiment(tuple(branches))


# ---------------------------------------------------------------------------
# samplers


class Draws(tuple):
    """The raw output of a sampler's rng calls, one array (or float) per
    call in call order: for one sample, or stacked over samples along a
    new leading axis."""


# The rng calls of one sample, by sampler (its recipe): each entry is a
# Generator method's name and its arguments.  A complex Gaussian is two
# calls, its real part first.


def _gaussian_recipe(d):
    return (("standard_normal", (d, d)),) * 2


def _effect_recipe(d):
    return (*_gaussian_recipe(d), ("uniform", 0.2, 1.0))


def _cp_recipe(d, trace_preserving=False, rank=None):
    g = (("standard_normal", (d * d, rank or d * d)),) * 2
    return g if trace_preserving else (*g, ("uniform", 1.0, 2.0))


def _experiment_recipe(d):
    return _cp_recipe(d, trace_preserving=True, rank=3)


def _classical_state_recipe(d):
    return (("dirichlet", (1.0,) * d),)


def _classical_effect_recipe(d):
    return (("uniform", 0.0, 1.0, d),)


def _classical_map_recipe(d):
    return (("uniform", 0.0, 1.0, (d, d)), ("uniform", 1.0, 1.5))


def _execute(rng, recipe, n):
    """The Draws of n samples of a recipe, stacked over samples: the
    same values, and the same generator state after, as making the
    recipe's calls sample by sample.  A Generator keeps no state
    between calls but its bit generator, so each run of consecutive
    `standard_normal` calls, across sample boundaries too, is one call
    into one buffer; the other calls run one by one in their turn."""
    sizes = [math.prod(args[0]) if name == "standard_normal" else 0 for name, *args in recipe]
    ends, per_sample = list(accumulate(sizes)), sum(sizes)
    gauss = np.empty(n * per_sample)
    # each call that is not Gaussian, bound to rng, after the Gaussians
    # that its sample draws before it
    others = [
        (end, getattr(rng, name), args, []) for (name, *args), size, end in zip(recipe, sizes, ends) if not size
    ]
    drawn = 0
    for sample in range(n):
        for end, call, args, column in others:
            stop = sample * per_sample + end
            if stop > drawn:
                rng.standard_normal(out=gauss[drawn:stop])
                drawn = stop
            column.append(call(*args))
    if drawn < gauss.size:
        rng.standard_normal(out=gauss[drawn:])
    gauss, columns = gauss.reshape(n, per_sample), iter([column for *_, column in others])
    return Draws(
        gauss[:, end - size : end].reshape(n, *args[0]) if size else np.array(next(columns))
        for (name, *args), size, end in zip(recipe, sizes, ends)
    )


def _draws(seed, recipe):
    """What a sampler builds from: `seed` itself when it is Draws (one
    sample's or a stack's), else one sample of the recipe drawn from
    the seed or Generator (`default_rng` returns a Generator
    unaltered)."""
    if isinstance(seed, Draws):
        return seed
    return Draws(x[0] for x in _execute(np.random.default_rng(seed), recipe, 1))


def _complex(re, im):
    return re + 1j * im


def _dagger(g):
    return np.swapaxes(g.conj(), -1, -2)


def _per_matrix(x):
    """A scalar per matrix (an array over a stack), shaped to divide it."""
    return np.asarray(x)[..., None, None]


def random_state(d, seed):
    """Hilbert-Schmidt measure via a normalized Wishart matrix."""
    g = _complex(*_draws(seed, _gaussian_recipe(d)))
    m = g @ _dagger(g)
    return State(quantum(d), m / _per_matrix(m.trace(axis1=-2, axis2=-1).real))


def random_joint_state(d, seed):
    return BipartiteState(d, random_state(d * d, seed).matrix)


def random_effect(d, seed):
    """Physical effect 0 <= E <= I (Wishart rescaled by its top eigenvalue)."""
    re, im, u = _draws(seed, _effect_recipe(d))
    g = _complex(re, im)
    m = g @ _dagger(g)
    top = np.linalg.eigvalsh(m)[..., -1]
    return Effect(quantum(d), m / _per_matrix(top) * _per_matrix(u))


def random_generalized_effect(d, seed):
    g = _complex(*_draws(seed, _gaussian_recipe(d)))
    return Effect(quantum(d), (g + _dagger(g)) / 2.0, generalized=True)


def random_cp(d, seed, trace_preserving=False):
    """CP map from a Wishart Choi rescaled to trace-nonincreasing (or
    projected to trace-preserving)."""
    re, im, *scale = _draws(seed, _cp_recipe(d, trace_preserving))
    g = _complex(re, im)
    c = g @ _dagger(g)
    e = ch.effect_of_choi(c)
    if trace_preserving:
        # every Kraus operator K becomes K R, R = (sum K^dag K)^{-1/2},
        # so the dual unit is the identity; on the Choi matrix that is
        # the congruence by R^T kron I
        rt = np.swapaxes(np.linalg.inv(ch.herm_sqrt(e)), -1, -2)
        lead = c.shape[:-2]
        c = np.einsum(
            "...ik,...kalb,...jl->...iajb", rt, c.reshape(*lead, d, d, d, d), rt.conj()
        )
        return Transformation(quantum(d), c.reshape(*lead, d * d, d * d))
    top = np.linalg.eigvalsh(e)[..., -1]
    return Transformation(quantum(d), c / _per_matrix(top * scale[0]))


def random_experiment(d, seed):
    """Random instrument: the three Kraus pieces of a trace-preserving
    CP map, i.e. the rank-one terms w v v^dag of its rank-three Choi
    matrix (its three largest eigenpairs, in ascending order)."""
    tp = random_cp(d, _draws(seed, _experiment_recipe(d)), trace_preserving=True)
    w, v = np.linalg.eigh(tp.choi)
    w, v = w[..., -3:], v[..., -3:]
    branches = np.einsum("...ik,...jk->...kij", v * w[..., None, :], v.conj())
    return Experiment(tuple(Transformation(quantum(d), c) for c in np.moveaxis(branches, -3, 0)))


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


def classical_effect(values, generalized=False):
    v = np.asarray(values, dtype=float)
    return Effect(classical(v.shape[-1]), _diag(v), generalized)


def classical_map(matrix, generalized=False):
    """Transformation from a (sub)stochastic matrix M[i, j] (or a stack
    of them), acting on outcome vectors; encoded with Kraus
    sqrt(M_ij) |i><j| so the shared Choi machinery applies."""
    m = np.asarray(matrix, dtype=float)
    # Choi entry [(j, i), (j, i)] is M[i, j]
    flat = np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], -1)
    return Transformation(classical(m.shape[-1]), _diag(flat), generalized)


def random_classical_state(d, seed):
    (p,) = _draws(seed, _classical_state_recipe(d))
    return classical_state(p)


def random_classical_map(d, seed):
    m, u = _draws(seed, _classical_map_recipe(d))
    scale = np.max(np.sum(m, axis=-2), axis=-1) * u
    return classical_map(m / _per_matrix(scale))
