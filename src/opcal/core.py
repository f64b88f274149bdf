"""Backend-agnostic calculus of states, effects and transformations.

A :class:`Theory` fixes the backend ("quantum" at Hilbert dimension d,
or "classical" as its diagonal restriction) and with it the real linear
space of generalized effects.  States are normalized nonnegative
functionals on effects, transformations act on states by Bayes
conditioning, and three supremum norms (effect, weight, transformation)
give the spaces their Banach structure.

A stack of objects of one kind (`stack`) is one object whose matrix
carries leading axes; pairing, totals, composition, effects and the
Heisenberg action act on it elementwise, as the gns maps do.  The last
two axes are d x d (d^2 x d^2 for a Choi matrix), checked when built.
A joint state of two d-dimensional systems is a State of quantum(d^2).
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import channels as ch
from .basis import diagonal_basis, hermitian_basis, to_coords
from .errors import (
    BackendMismatch,
    CompletenessError,
    DimensionMismatch,
    NoClosedForm,
    NotCoexistent,
    ZeroProbability,
)
from .tolerances import COMPLETENESS_TOL, PROB_TOL, UNIT_TRACE

BACKENDS = ("quantum", "classical")


@dataclass(frozen=True)
class Theory:
    """A finite-dimensional backend: quantum at dimension d, or the
    classical (diagonal) restriction with d outcomes."""

    backend: str
    d: int

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def effect_dim(self):
        """Dimension of the generalized-effect space: the d^2 Hermitian
        matrices, or the d diagonal ones."""
        return self.d * self.d if self.backend == "quantum" else self.d

    def basis(self):
        if self.backend == "quantum":
            return hermitian_basis(self.d)
        return diagonal_basis(self.d)


def quantum(d):
    return Theory("quantum", d)


def classical(d):
    return Theory("classical", d)


def _check_same(a, b):
    if a.theory != b.theory:
        raise BackendMismatch(f"{a.theory} vs {b.theory}")


def _as_matrix(m, n):
    """m as a complex array of shape (..., n, n), or DimensionMismatch."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (n, n):
        raise DimensionMismatch(f"matrix of shape {m.shape} is not (..., {n}, {n})")
    return m


@dataclass(frozen=True)
class Effect:
    """An informational equivalence class of transformations, stored as
    a Hermitian matrix.  Physical effects satisfy 0 <= E <= I."""

    theory: Theory
    matrix: np.ndarray
    generalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, self.theory.d))

    @property
    def coords(self):
        return to_coords(self.matrix, self.theory.effect_dim)

    def is_physical(self, tol=PROB_TOL):
        ev = np.linalg.eigvalsh(self.matrix)
        return bool(ev[0] >= -tol and ev[-1] <= 1.0 + tol)


@dataclass(frozen=True)
class Weight:
    """Unnormalized state: a nonnegative bounded functional on effects,
    stored as a PSD matrix (generalized weights may be indefinite)."""

    theory: Theory
    matrix: np.ndarray
    generalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, self.theory.d))

    @property
    def total(self):
        """Pairing with the unit effect (one per weight of a stack)."""
        return self.matrix.trace(axis1=-2, axis2=-1).real

    def normalize(self):
        """The state of each weight; a stack with any weight at or
        below PROB_TOL raises."""
        t = self.total
        if (t <= PROB_TOL).any():
            raise ZeroProbability(f"total weight {np.min(t)} below cutoff {PROB_TOL}")
        return State(self.theory, self.matrix / t[..., None, None])


@dataclass(frozen=True)
class State(Weight):
    """Normalized weight: the unit effect occurs with probability one."""

    def __post_init__(self):
        super().__post_init__()
        if (np.abs(self.matrix.trace(axis1=-2, axis2=-1) - 1.0) > UNIT_TRACE).any():
            raise ValueError("state must have unit total weight")


@dataclass(frozen=True)
class Transformation:
    """A linear map on states/effects, encoded by its Choi matrix.

    Physical transformations are completely positive and
    trace-nonincreasing; generalized ones only Hermiticity-preserving
    (Hermitian Choi).
    """

    theory: Theory
    choi: np.ndarray
    generalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "choi", _as_matrix(self.choi, self.theory.d**2))

    @property
    def super(self):
        return ch.choi_to_super(self.choi)

    def effect(self):
        """The informational equivalence class: dual of the unit effect."""
        return Effect(self.theory, ch.effect_of_choi(self.choi), self.generalized)

    def __call__(self, matrix):
        """Schrodinger action on a (density) matrix."""
        return ch.apply_super(self.super, np.asarray(matrix, dtype=complex))


def identity(theory):
    """The identity map in its backend's encoding: the Kraus operator I,
    or on the classical backend the vertex maps |i><i| (`Theory.basis`),
    whose Choi matrix is diagonal."""
    kraus = [np.eye(theory.d)] if theory.backend == "quantum" else theory.basis()
    return Transformation(theory, ch.kraus_to_choi_matrix(kraus))


@dataclass(frozen=True)
class Observable:
    """A complete set of effects: one stacked Effect whose leading axis
    is the outcomes (an outcome may itself be a stack), summing to the
    unit effect, to COMPLETENESS_TOL in the largest entry, or
    CompletenessError when it is built."""

    effects: Effect

    def __post_init__(self):
        total = self.effects.matrix.sum(axis=0)
        if np.max(np.abs(total - np.eye(self.theory.d))) > COMPLETENESS_TOL:
            raise CompletenessError("effects do not sum to the unit effect")

    @property
    def theory(self):
        return self.effects.theory

    def __len__(self):
        return len(self.effects.matrix)


@dataclass(frozen=True)
class Experiment:
    """A set of transformation branches {A_j}: one stacked
    Transformation whose leading axis is the branches (a branch may
    itself be a stack).  Their effects form an Observable, so an
    incomplete experiment raises CompletenessError when it is built."""

    branches: Transformation

    def __post_init__(self):
        self.observable()

    def deterministic_sum(self):
        return Transformation(self.branches.theory, self.branches.choi.sum(axis=0))

    def observable(self):
        return Observable(self.branches.effect())


# ---------------------------------------------------------------------------
# pairing, conditioning, composition


def pair(state, effect):
    """Probability of the effect in the given state (unclamped for
    generalized inputs); stacks broadcast against each other."""
    _check_same(state, effect)
    p = np.einsum("...ij,...ji->...", state.matrix, effect.matrix).real
    if not (state.generalized or effect.generalized):
        near = (p >= -PROB_TOL) & (p <= 1.0 + PROB_TOL)
        p = np.where(near, np.minimum(np.maximum(p, 0.0), 1.0), p)[()]
    return p


def act(t, state):
    """Linear action of a transformation on a state; the result is the
    unnormalized conditioned weight."""
    _check_same(t, state)
    out = t(state.matrix)
    return Weight(t.theory, out, t.generalized or state.generalized)


def condition(state, t):
    """Bayes conditioning: (probability, conditional state), one of each
    per element of a stack; a stack with any probability at or below
    PROB_TOL raises."""
    w = act(t, state)
    return w.total, w.normalize()


def evolve_effect(e, t):
    """Heisenberg-picture chaining: the effect of B compose A for
    effect B and transformation A."""
    _check_same(e, t)
    out = ch.apply_super(ch.dual_super(t.super), e.matrix)
    return Effect(e.theory, out, e.generalized or t.generalized)


def compose(a, b):
    """a after b (apply b first)."""
    _check_same(a, b)
    s = a.super @ b.super
    return Transformation(a.theory, ch.super_to_choi(s), a.generalized or b.generalized)


def stack(items):
    """Objects of one kind and theory (states, weights, effects or
    transformations, single or stacked alike) as one object of that
    kind whose matrix has a new leading axis over the items, in order."""
    first = items[0]
    key = "choi" if isinstance(first, Transformation) else "matrix"
    matrices = np.array([getattr(x, key) for x in items])
    return replace(first, **{key: matrices, "generalized": any(x.generalized for x in items)})


def unstack(stacked):
    """The objects along the first leading axis of a stack."""
    key = "choi" if isinstance(stacked, Transformation) else "matrix"
    return tuple(replace(stacked, **{key: m}) for m in getattr(stacked, key))


def scale(lam, a):
    """Rescaled transformation: same dynamics, probability times lam."""
    if not a.generalized and not 0.0 <= lam <= 1.0:
        raise ValueError("physical scaling requires 0 <= lam <= 1")
    return Transformation(a.theory, lam * a.choi, a.generalized)


def coexistent(a, b):
    """Two physical transformations can occur in one experiment iff
    their sum is a contraction (to PROB_TOL)."""
    _check_same(a, b)
    s = Transformation(a.theory, a.choi + b.choi)
    return trans_norm(s) <= 1.0 + PROB_TOL


def add(a, b):
    """Coarse-grained transformation "a or b".  Two physical branches
    must be coexistent, or NotCoexistent; a generalized one adds freely."""
    _check_same(a, b)
    generalized = a.generalized or b.generalized
    if not generalized and not coexistent(a, b):
        raise NotCoexistent("branches would exceed unit probability")
    return Transformation(a.theory, a.choi + b.choi, generalized)


# ---------------------------------------------------------------------------
# norms


def _per_element(values):
    """A float for a single object, an array for a stack."""
    return float(values) if values.ndim == 0 else values


def effect_norm(e):
    """Supremum of |omega(E)| over states: the largest |eigenvalue|
    (the largest |entry| on the diagonal classical backend); one per
    effect of a stack."""
    return _per_element(np.max(np.abs(np.linalg.eigvalsh(e.matrix)), axis=-1))


def weight_norm(w):
    """Supremum of |w(E)| over the unit ball of generalized effects
    (one per weight of a stack).

    The ball is {E Hermitian, ||E||_inf <= 1}, so the norm is the trace
    norm; on the classical backend the ball is the hypercube
    |e_i| <= 1 and the trace norm is the l1 norm of the outcome vector.
    """
    return _per_element(np.sum(np.abs(np.linalg.eigvalsh(w.matrix)), axis=-1))


def trans_norm(t):
    """Operator norm sup over unit-ball effects B of ||B after t||, the
    induced trace norm over pure inputs, sup_psi ||t(psi)||_1, in its
    closed form for a CP map: the top eigenvalue of its dual unit effect.
    A map that is not CP (to CP_TOL) raises NoClosedForm.

    A stack gives one norm per map, from one CP test of all Choi
    matrices (`channels.is_psd`) and one eigvalsh of all dual units; a
    stack with any map that is not CP raises.
    """
    choi = t.choi.reshape(-1, *t.choi.shape[-2:])
    if not ch.is_psd(choi).all():
        raise NoClosedForm("trans_norm of a map that is not CP")
    norms = np.linalg.eigvalsh(ch.effect_of_choi(choi))[:, -1]
    return _per_element(norms.reshape(t.choi.shape[:-2]))


# ---------------------------------------------------------------------------
# equivalences


@lru_cache(maxsize=None)
def spanning_vectors(n):
    """The n^2 unit vectors |i>, (|i>+|j>)/sqrt2, (|i>+i|j>)/sqrt2 of
    C^n (i < j, row-major), in that order, as the rows of one read-only
    array: their projectors span the n x n Hermitian matrices."""
    out = np.zeros((n * n, n), dtype=complex)
    out[:n] = np.eye(n)
    i, j = np.triu_indices(n, 1)
    rows = n + 2 * np.arange(len(i))
    s = 1 / np.sqrt(2)
    out[rows, i] = out[rows, j] = out[rows + 1, i] = s
    out[rows + 1, j] = 1j * s
    out.flags.writeable = False  # every caller shares this one array
    return out


@lru_cache(maxsize=None)
def spanning_states(theory):
    """A fixed informationally complete family of states, as one stack;
    equality of pairings on it decides equality on all states.

    The projectors of spanning_vectors(d), of which the classical
    backend keeps the d vertices |i><i| (one state per basis element on
    both backends).
    """
    v = spanning_vectors(theory.d)[: theory.effect_dim]
    states = np.einsum("ai,aj->aij", v, v.conj())
    states.flags.writeable = False  # every caller shares this one array
    return State(theory, states)


def informational_equiv(a, b):
    """Equal occurrence probability in every state (to PROB_TOL), paired
    on the whole spanning family at once."""
    _check_same(a, b)
    states = spanning_states(a.theory)
    return bool(np.all(np.abs(pair(states, a.effect()) - pair(states, b.effect())) <= PROB_TOL))


def dynamical_equiv(a, b):
    """Equal conditional states wherever both probabilities exceed
    PROB_TOL, with each map applied to the whole spanning family once."""
    _check_same(a, b)
    states = spanning_states(a.theory)
    wa, wb = act(a, states), act(b, states)
    pa, pb = wa.total, wb.total
    keep = (pa > PROB_TOL) & (pb > PROB_TOL)
    ra = wa.matrix[keep] / pa[keep, None, None]
    rb = wb.matrix[keep] / pb[keep, None, None]
    return not np.any(np.abs(ra - rb) > PROB_TOL)
