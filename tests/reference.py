"""Reference objects and predicates that only the tests use: the qubit
reference observables, the predictability test of an effect, the
physicality test of a map, the loop-built oracles of the fixed families
(spanning vectors, Weyl displacements, generic ancilla, Bell projectors,
the minimal IC observable, the projective experiment, the maximally
entangled state), the Kraus superoperator, the involution on states, the
positivity decision by the spectrum alone, the rank by singular values
alone, the real view of a complex matrix and the coordinates of every
whole family a rank reads, the local action of either slot built index
by index and the faithfulness predicates on its rank, the Choi-basis
construction of the witness equations, the einsum of the bilinear form,
the least-squares and closed-form preparation witnesses, the transpose
by a complex SVD of the realigned state and the spectral split by eigh
of the form (the oracles of the one calibration), the direct measurement
that a dimension table takes and the pass predicates of the table, the
spanning family as separate states and the two equivalences decided on
it one state at a time, product states, the samplers: unitaries, and
one-sample-at-a-time formulas that the stack-aware samplers must
reproduce from the same draws, the catalogue of joint states (every
family of joint states the tests build, one row each, picked by name as
a State or as a spec), the GNS maps folded onto the real views of Choi
matrices, and the watchers of a run: the functions a module defines, a
recorder of what a run calls, and a Generator that records what it
draws."""

import math
import os
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest

import opcal
from opcal import channels as ch
from opcal import quantum as qm
from opcal import basis, cli, core, gns, infodim
from opcal.basis import from_coords, hermitian_basis, matrix_rank, singular_value_rank, to_coords
from opcal.core import (
    Effect,
    Experiment,
    Observable,
    State,
    Theory,
    Transformation,
    act,
    classical,
    pair,
    quantum,
)
from opcal.errors import ConeViolation, DegenerateSplit, NotFaithful
from opcal.faithful import is_symmetric
from opcal.quantum import apply_local, kraus_to_choi, local_state, part_dim, projector_map
from opcal.tolerances import PINV_RCOND, PROB_TOL, TRANSPOSE_RESID, ZERO_CUTOFF
from verify_all import isotropic_phi

# ---------------------------------------------------------------------------
# reference observables


def sic_povm_qubit():
    """Tetrahedron POVM: four subnormalized projectors along the
    tetrahedral Bloch directions; minimal informationally complete."""
    th = quantum(2)
    dirs = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    effs = [
        Effect(th, (np.eye(2) + n[0] * sx + n[1] * sy + n[2] * sz) / 4.0)
        for n in dirs
    ]
    return Observable(core.stack(effs))


def pauli_povm_qubit():
    """Six-outcome observable from the +-x, +-y, +-z projectors, each
    weighted by 1/3; informationally complete but not minimal."""
    th = quantum(2)
    vs = [
        np.array([1, 1]) / np.sqrt(2),
        np.array([1, -1]) / np.sqrt(2),
        np.array([1, 1j]) / np.sqrt(2),
        np.array([1, -1j]) / np.sqrt(2),
        np.array([1, 0]),
        np.array([0, 1]),
    ]
    effs = [Effect(th, np.outer(v, np.conj(v)) / 3.0) for v in vs]
    return Observable(core.stack(effs))


def is_predictable(e, tol=1e-9):
    """Occurs with certainty on some state and never on another (the
    spectrum of a classical effect is its diagonal)."""
    ev = np.linalg.eigvalsh(e.matrix)
    return bool(abs(ev[-1] - 1.0) <= tol and abs(ev[0]) <= tol)


def is_physical_map(t, tol=1e-9):
    """Completely positive (`spectrum_psd` of the Choi matrix) and
    trace-nonincreasing (its effect at most I), each to tol."""
    return spectrum_psd(t.choi, tol) and bool(np.linalg.eigvalsh(t.effect().matrix)[-1] <= 1.0 + tol)


# ---------------------------------------------------------------------------
# fixed families, one element at a time: the oracles of the closed
# forms and stacked builds in opcal.core, opcal.infodim and opcal.quantum


def spanning_vectors(n):
    """The spanning vectors of C^n from a generator, in the order of
    core.spanning_vectors."""
    eye = np.eye(n)
    yield from eye.astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            yield (eye[i] + eye[j]) / np.sqrt(2)
            yield (eye[i] + 1j * eye[j]) / np.sqrt(2)


def spanning_states(theory):
    """The spanning family as separate states, one projector per
    spanning vector: the tuple core.spanning_states returned before it
    returned one stack."""
    vectors = list(spanning_vectors(theory.d))[: theory.effect_dim]
    return tuple(State(theory, np.outer(v, v.conj())) for v in vectors)


def informational_equiv(a, b):
    """core.informational_equiv, one spanning state at a time."""
    ea, eb = a.effect(), b.effect()
    return all(abs(pair(w, ea) - pair(w, eb)) <= PROB_TOL for w in spanning_states(a.theory))


def dynamical_equiv(a, b):
    """core.dynamical_equiv, one spanning state at a time."""
    for w in spanning_states(a.theory):
        pa, pb = act(a, w).total, act(b, w).total
        if pa > PROB_TOL and pb > PROB_TOL:
            if np.max(np.abs(a(w.matrix) / pa - b(w.matrix) / pb)) > PROB_TOL:
                return False
    return True


def weyl(d, m, n):
    """The displacement X^m Z^n through matrix powers."""
    x = np.roll(np.eye(d), 1, axis=0).astype(complex)
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    return np.linalg.matrix_power(x, m) @ np.linalg.matrix_power(z, n)


def generic_ancilla_state(d):
    """infodim.generic_ancilla_state, one displacement at a time."""
    m = np.eye(d, dtype=complex)
    for k, (a, b) in enumerate(
        (a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)
    ):
        w = weyl(d, a, b)
        m = m + (0.2 / (k + 2.0)) * (w + w.conj().T)
        m = m + (0.1 / (k + 3.0)) * 1j * (w - w.conj().T)
    ev = np.linalg.eigvalsh(m)
    m = m + (abs(min(ev[0], 0.0)) + 0.05) * np.eye(d)
    return m / np.trace(m)


def bell_projectors(d):
    """The effects of infodim.bell_basis_observable, one projector onto
    (I x U_mn)|Omega> at a time."""
    v0 = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v0[i * d + i] = 1.0 / np.sqrt(d)
    out = []
    for m in range(d):
        for n in range(d):
            v = np.kron(np.eye(d), weyl(d, m, n)) @ v0
            out.append(np.outer(v, v.conj()))
    return np.array(out)


def minimal_ic_povm(d):
    """infodim.minimal_ic_povm one effect at a time: each (I + eps B_a)/d^2
    added to a running sum, and the completing effect I - sum put first."""
    th = quantum(d)
    basis = hermitian_basis(d)[1:]
    traceless = basis - np.trace(basis, axis1=-2, axis2=-1)[:, None, None] * np.eye(d) / d
    n = d * d
    total = np.sum(traceless, axis=0)
    eps = min(1.0 / (2.0 * d), 0.9 / float(np.linalg.norm(total, 2)))
    effs = []
    rest = np.zeros((d, d), dtype=complex)
    for b in traceless:
        m = (np.eye(d) + eps * b) / n
        effs.append(Effect(th, m))
        rest += m
    effs.insert(0, Effect(th, np.eye(d) - rest))
    return Observable(core.stack(effs))


def projective_experiment(theory):
    """quantum.projective_experiment one branch P_i . P_i at a time."""
    d = theory.d
    branches = [projector_map(theory, np.diag(np.eye(d)[i])) for i in range(d)]
    return Experiment(core.stack(branches))


def max_entangled(d):
    """quantum.max_entangled with |Omega> written one entry |ii> at a time."""
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0 / np.sqrt(d)
    return State(quantum(d * d), np.outer(v, v.conj()))


# ---------------------------------------------------------------------------
# maps and states


def kraus_to_super(kraus):
    """Superoperator sum_k K kron conj(K) of Kraus operators."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d = ks[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        s += np.kron(k, k.conj())
    return s


def state_sigma(split, omega, tol=1e-9):
    """Involution on states, omega^sigma(A) = omega(sigma(A))."""
    d = omega.theory.d
    out = from_coords(split.sigma_matrix @ to_coords(omega.matrix, d * d), d)
    if ch.min_eig(out) < -tol:
        raise ConeViolation("involution left the state cone")
    return State(omega.theory, out / np.real(np.trace(out)))


# ---------------------------------------------------------------------------
# the rank by singular values alone: the oracle of basis.matrix_rank,
# which certifies a full rank without them


def spectrum_psd(m, tol):
    """The positivity decision by the spectrum alone: no eigenvalue of
    the Hermitian part of m (of each matrix of a stack) below -tol.  A
    matrix with a NaN or inf entry has no spectrum: LinAlgError."""
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("matrix entries are not finite")
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0)[..., 0] >= -tol


def svd_rank(m):
    """Number of singular values above RANK_RCOND * sigma_max (0 when
    empty): what basis.matrix_rank returns, however it decides."""
    m = np.asarray(m)
    if m.size == 0:
        return 0
    return singular_value_rank(np.linalg.svd(m, compute_uv=False))


def real_view(matrix):
    """Real and imaginary parts of the entries of a complex matrix, or
    of each of a stack (..., n, n), as one real vector (..., 2 n^2),
    interleaved; no copy for a C-contiguous complex array."""
    m = np.ascontiguousarray(matrix, dtype=complex)
    return m.reshape(*m.shape[:-2], -1).view(np.float64)


def coordinate_rank_inputs(d, backend):
    """The five matrices that infodim ranks for the dimension table of
    (backend, d) and for local observability of its IC observable, in
    that order, as coordinates by to_coords of each whole family (the
    kron products formed first): the state differences at d, the
    effects (I + B_a)/2, the state differences at d^2, the Choi
    matrices of the T family and the kron products of the IC effects."""
    th1, th12 = Theory(backend, d), Theory(backend, d * d)

    def differences(th):
        coords = to_coords(core.spanning_states(th).matrix, th.effect_dim)
        return coords[1:] - coords[0]

    kraus = core.spanning_vectors(d * d)[: th12.effect_dim].reshape(-1, 1, d, d)
    effects = infodim.ic_observable(th1).effects.matrix
    prods = np.einsum("aij,bkl->abikjl", effects, effects).reshape(-1, d * d, d * d)
    return [
        differences(th1),
        to_coords((np.eye(d) + th1.basis()) / 2.0, th1.effect_dim),
        differences(th12),
        to_coords(kraus_to_choi(th1, kraus).choi, th12.effect_dim),
        to_coords(prods, th12.effect_dim),
    ]


# ---------------------------------------------------------------------------
# local action and faithfulness


def local_action_oracle(phi, slot):
    """Matrix of A -> (A, I) Phi (slot 1) or (I, A) Phi (slot 2) on
    Choi coordinates, built as every Choi basis element C_k contracted
    with that slot of Phi index by index,
    (A, I) Phi[(a, x), (b, y)] = sum_ij C[(i, a), (j, b)] Phi[(i, x), (j, y)],
    then converted to coordinates."""
    d = part_dim(phi)
    cb = hermitian_basis(d * d).reshape(-1, d, d, d, d)
    spec = "kiajb,ixjy->kaxby" if slot == 1 else "kiajb,xiyj->kxayb"
    out = np.einsum(spec, cb, phi.matrix.reshape(d, d, d, d))
    return to_coords(out.reshape(-1, d * d, d * d), d**4).T


def choi_basis_witness_matrix(phi):
    """The matrix m of the preparation-witness equations built over the
    Choi basis: m takes the Choi coordinates of a local transformation
    on slot 1 to the coordinates of the slot-2 marginal of its
    conditioned weight.  That marginal depends on T only through
    r[i, j] = Tr T(|i><j|), the raw output trace of its Choi matrix, so
    column k is the coordinates of the contraction of Phi with the
    output traces of Choi basis element k."""
    d = part_dim(phi)
    cb = hermitian_basis(d * d)
    r = np.einsum("kiaja->kij", cb.reshape(-1, d, d, d, d))
    marginals = np.einsum("kij,ixjy->kxy", r, phi.matrix.reshape(d, d, d, d))
    return to_coords(marginals, d * d).T


def einsum_form(phi):
    """F[a, b] = Tr[Phi (B_a kron B_b)] over hermitian_basis(d), as one
    einsum of Phi with two copies of the basis: the oracle of
    faithful.form_matrix."""
    d = part_dim(phi)
    basis = hermitian_basis(d)
    phi4 = phi.matrix.reshape(d, d, d, d)  # [x1, x2, y1, y2]
    return np.einsum("xuyv,ayx,bvu->ab", phi4, basis, basis, optimize=True).real


def lstsq_witness(phi, target):
    """The minimum-norm least-squares solution over Choi coordinates of
    the witness equations m x = t (m = choi_basis_witness_matrix), a
    d^4-column solve for one target, rescaled to a physical map where it
    is CP as faithful.prepare_witness rescales: (Choi matrix,
    probability)."""
    d = part_dim(phi)
    x, *_ = np.linalg.lstsq(choi_basis_witness_matrix(phi), to_coords(target.matrix, d * d), rcond=None)
    choi = from_coords(x, d * d)
    prob = apply_local(phi, Transformation(quantum(d), choi, generalized=True), 1).total
    if spectrum_psd(choi, 1e-10):
        lam = min(1.0 / float(np.linalg.eigvalsh(ch.effect_of_choi(choi))[-1]), 1.0)
        return lam * choi, lam * prob
    return choi, prob


def closed_form_witness(target):
    """The pure witness on the maximally entangled state: rho -> X rho
    X^dag with X = sqrt(d p) (target^T)^(1/2), which steers slot 2 to the
    target with the largest physical probability p = 1 / (d
    lambda_max(target)): (Transformation, p)."""
    d = target.theory.d
    p = 1.0 / (d * float(np.linalg.eigvalsh(target.matrix)[-1]))
    x = np.sqrt(d * p) * ch.herm_sqrt(target.matrix.T)
    return kraus_to_choi(quantum(d), [x]), p


def svd_transpose(phi, t):
    """The transpose of t, or of each map of a stack, by a complex SVD
    of the realigned state R of its own, the oracle of the calibrated
    transpose: A'~^T = R^+ A~ R with R^+ cut at PINV_RCOND sigma_max(R),
    and NotFaithful where the part of A~ R outside R's range exceeds
    TRANSPOSE_RESID max(|A~ R|, 1)."""
    d = part_dim(phi)
    realigned = ch.realign(phi.matrix)
    u, s, vh = np.linalg.svd(realigned)
    r = int(np.sum(s > PINV_RCOND * s[0]))
    pinv = (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T
    action = (ch.choi_to_super(t.choi).reshape(-1, d * d) @ realigned).reshape(-1, d * d, d * d)
    resid = np.linalg.norm(u[:, r:].conj().T @ action, axis=(-2, -1))
    if np.any(resid > TRANSPOSE_RESID * np.maximum(np.linalg.norm(action, axis=(-2, -1)), 1.0)):
        raise NotFaithful("transpose system residual")
    return Transformation(quantum(d), ch.realign(pinv @ action).reshape(t.choi.shape), generalized=True)


def eigh_split(phi):
    """(signature, sigma, |F|) by eigh of the symmetrized form of phi
    (einsum_form), the oracle of faithful.spectral_split: NotFaithful
    for a phi that is not symmetric and DegenerateSplit for an
    eigenvalue at the zero cutoff, as the split raises."""
    if not is_symmetric(phi):
        raise NotFaithful("spectral split needs a symmetric joint state")
    form = einsum_form(phi)
    w, v = np.linalg.eigh((form + form.T) / 2.0)
    if np.min(np.abs(w)) <= ZERO_CUTOFF:
        raise DegenerateSplit("bilinear-form eigenvalue at the zero cutoff")
    pos, neg = v[:, w > 0], v[:, w < 0]
    return (pos.shape[1], neg.shape[1]), pos @ pos.T - neg @ neg.T, (v * np.abs(w)) @ v.T


def is_dynamically_faithful(phi):
    """The local action A -> (A, I) Phi has trivial kernel on
    generalized transformations (full rank d^4)."""
    return matrix_rank(local_action_oracle(phi, 1)) == part_dim(phi)**4


def is_preparationally_faithful(phi):
    """Every joint state is reachable as a local generalized
    transformation acting on Phi with nonzero probability: the local
    action map is surjective onto the joint weight space."""
    m = local_action_oracle(phi, 1)
    return matrix_rank(m) == part_dim(phi)**4


# ---------------------------------------------------------------------------
# dimension tables


def measured(measurement, theory):
    """Take a theory-level measurement directly, with no store: the
    measure argument of infodim.dim_identities outside a run."""
    return measurement(theory)


def passes(table, name):
    """Whether the named identity of a dimension table holds."""
    lhs, rhs = table[name]
    return lhs == rhs


def all_pass(table):
    """Whether every identity of a dimension table holds."""
    return all(lhs == rhs for lhs, rhs in table.values())


# ---------------------------------------------------------------------------
# states and samplers


def product_state(w1, w2):
    m1 = w1.matrix if hasattr(w1, "matrix") else np.asarray(w1)
    m2 = w2.matrix if hasattr(w2, "matrix") else np.asarray(w2)
    return State(quantum(m1.shape[0] ** 2), np.kron(m1, m2))


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# the catalogue of joint states: each family the tests build is one row,
# the function of its parameters that builds its d^2 x d^2 matrix


def _pure_product(d):
    plus = np.full(d, 1.0 / np.sqrt(d))
    return np.kron(np.diag(np.eye(d)[0]), np.outer(plus, plus))


def _symmetrized_mixture(d, seed):
    rho = qm.random_state(d * d, seed).matrix
    return (rho + ch.swap(rho)) / 2.0


def _pure_complex(d, seed):
    w = random_unitary(d, seed)
    p = np.random.default_rng(seed).dirichlet(np.ones(d))
    f = (w * np.sqrt(p)) @ w.T
    v = ((f + f.T) / 2.0).reshape(-1)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def _schmidt_rank(d, k, seed):
    rng = np.random.default_rng(seed)
    n = d * d
    # the Helmert rows as diagonal matrices, then the off-diagonal
    # elements of the basis: n - 1 orthonormal traceless matrices
    m, col = np.arange(1, d)[:, None], np.arange(d)
    helmert = np.where(col < m, 1.0, np.where(col == m, -m, 0.0)) / np.sqrt(m * (m + 1))
    traceless = np.concatenate([helmert[:, None, :] * np.eye(d), hermitian_basis(d)[d:]])
    x, y = (
        np.einsum("am,aij->mij", np.linalg.qr(rng.standard_normal((n - 1, k - 1)))[0], traceless)
        for _ in range(2)
    )
    terms = np.einsum("m,mab,mcd->acbd", rng.uniform(1.0, 2.0, k - 1), x, y).reshape(n, n)
    scale = np.linalg.norm(terms, 2) if k > 1 else 1.0
    return np.eye(n) / n + rng.uniform(0.5, 1.0) / (n * scale) * terms


def _nonsymmetric(d):
    rho = np.kron(np.diag(np.arange(1.0, d + 1)), np.diag(np.arange(d, 0.0, -1)))
    return 0.8 * qm.max_entangled(d).matrix + 0.2 * rho / np.trace(rho)


def _swap_perturbed_isotropic():
    a = np.kron(np.diag([1.0, 0.0, -1.0]), np.eye(3))
    return isotropic_phi(3, 0.2) + 1e-13 * (a - ch.swap(a))


JOINT_STATES = {
    # (d): |Omega><Omega|, the state a run calibrates on by default
    "canonical": lambda d: qm.max_entangled(d).matrix,
    # (d, p): (1 - p)|Omega><Omega| + p I/d^2
    "isotropic": isotropic_phi,
    # (d): I/d^2, as the product of the two maximally mixed parts
    "maximally-mixed": lambda d: np.kron(np.eye(d) / d, np.eye(d) / d),
    # (d): |0><0| (x) |+><+|, operator-Schmidt rank 1, local action rank d^2
    "pure-product": _pure_product,
    # (d, seed): (rho + S rho S) / 2 for a random joint state rho
    "mixture": _symmetrized_mixture,
    # (d, seed): |F>><<F| with F = W diag(sqrt p) W^T, W a complex
    # unitary: faithful, symmetric, not real
    "pure-complex": _pure_complex,
    # (d, k, seed): I/d^2 + c sum_m s_m X_m (x) Y_m over k - 1 pairs of orthonormal
    # traceless Hermitian X_m, Y_m, s_m in [1, 2], c small enough to keep it
    # PSD: operator-Schmidt rank k, R has the singular values 1/d and c s_m
    "schmidt-rank": _schmidt_rank,
    # (d): 0.8 |Omega><Omega| + 0.2 diag(1..d) (x) diag(d..1) / trace:
    # faithful, not symmetric
    "nonsymmetric": _nonsymmetric,
    # (): 0.8 |Omega><Omega| + 0.2 diag(0.7, 0.3) (x) diag(0.4, 0.6) at
    # d = 2: faithful, not symmetric
    "nonsymmetric-golden": lambda: 0.8 * qm.max_entangled(2).matrix + 0.2 * np.kron(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])),
    # (): isotropic d = 3, p = 0.2 plus 1e-13 (A - S A S), A = diag(1, 0,
    # -1) (x) I: symmetric to is_symmetric's 1e-12, not bit for bit
    "swap-perturbed-isotropic": _swap_perturbed_isotropic,
    # (d, seed): quantum.random_state of C^(d^2), not symmetric
    "random-joint": lambda d, seed: qm.random_state(d * d, seed).matrix,
}


def joint(name, *args):
    """The row name at args as a State of quantum(d^2)."""
    m = JOINT_STATES[name](*args)
    return State(quantum(len(m)), m)


def joint_spec(name, *args):
    """The row name at args as a validated spec: phi its matrix, or no
    override for the canonical row."""
    m = JOINT_STATES[name](*args)
    return cli.validate_spec(cli.TheorySpec(d=math.isqrt(len(m)), phi_override=None if name == "canonical" else m))


def joint_params(selection):
    """pytest params of {id: (row name, *args)}, each the build of its State."""
    return [pytest.param(partial(joint, *row), id=id) for id, row in selection.items()]


# The samplers one sample at a time, each drawing from its rng and
# building from 2-d arrays: the oracles of the stack-aware samplers of
# opcal.quantum and opcal.checks, which make the same rng calls with a
# leading sample axis and build, from each sample's slice of the draws,
# the same matrices: bit for bit, except that the trace-preserving
# congruence is an einsum here and the experiment's branches come from
# an eigh of the Choi matrix, where the samplers take one matrix
# product and the SVD of its factor (equal to rounding).


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sample_state(d, rng):
    g = _gaussian(rng, (d, d))
    m = g @ g.conj().T
    return State(quantum(d), m / np.real(np.trace(m)))


def sample_joint_state(d, rng):
    return sample_state(d * d, rng)


def sample_effect(d, rng):
    g = _gaussian(rng, (d, d))
    m = g @ g.conj().T
    return Effect(quantum(d), m / np.linalg.eigvalsh(m)[-1] * rng.uniform(0.2, 1.0))


def sample_generalized_effect(d, rng):
    g = _gaussian(rng, (d, d))
    return Effect(quantum(d), (g + g.conj().T) / 2.0, generalized=True)


def sample_cp(d, rng, trace_preserving=False, rank=None):
    g = _gaussian(rng, (d * d, rank or d * d))
    c = g @ g.conj().T
    e = ch.effect_of_choi(c)
    if trace_preserving:
        rt = np.linalg.inv(ch.herm_sqrt(e)).T
        c = np.einsum("ik,kalb,jl->iajb", rt, c.reshape(d, d, d, d), rt.conj())
        return Transformation(quantum(d), c.reshape(d * d, d * d))
    c = c / (np.linalg.eigvalsh(e)[-1] * float(rng.uniform(1.0, 2.0)))
    return Transformation(quantum(d), c)


def sample_experiment(d, rng):
    tp = sample_cp(d, rng, trace_preserving=True, rank=3)
    w, v = np.linalg.eigh(tp.choi)
    keep = w > 1e-12
    branches = np.einsum("ik,jk->kij", v[:, keep] * w[keep], v[:, keep].conj())
    return Experiment(Transformation(quantum(d), branches))


def sample_kraus_contraction(d, rng):
    k = _gaussian(rng, (d, d))
    k = k / (np.linalg.norm(k, 2) * 1.1)
    return Transformation(quantum(d), ch.kraus_to_choi_matrix([k]))


def sample_classical_state(d, rng):
    p = rng.dirichlet(np.ones(d))
    return State(classical(d), np.diag(p).astype(complex))


def sample_classical_effect(d, rng):
    return Effect(classical(d), np.diag(rng.uniform(0.0, 1.0, d)).astype(complex))


def sample_classical_map(d, rng):
    m = rng.uniform(0.0, 1.0, (d, d))
    m /= np.max(np.sum(m, axis=0)) * float(rng.uniform(1.0, 1.5))
    return Transformation(classical(d), np.diag(m.T.reshape(-1)).astype(complex))


# ---------------------------------------------------------------------------
# the GNS maps folded onto real views of Choi matrices


def folded_gns(solver):
    """(gram, pairing, composed_pairing): the GNS maps of the solver's
    state as operators on the real views of Choi matrices, the oracle
    of the factored maps of `gns.GnsSpace`.  Row k of the pairing is the
    real view of kron(rho2^T, E_k), E_k the effect of the adjoint of
    lift k, and the composition with each lifted basis element is
    folded into it by one contraction."""
    phi = solver.phi
    d = part_dim(phi)
    lifts = gns.jordan_lift(Effect(quantum(d), hermitian_basis(d), generalized=True))
    # Pairing of lift k with the map T of Choi matrix C:
    # Phi|_2(adj_k after T) = Tr[rho2 T^*(E_k)] = Tr[C (rho2^T kron E_k)],
    # E_k the effect of adj_k.  The kron is Hermitian, so the trace is
    # the real dot product of the real views of the kron and of C.
    rho2 = local_state(phi, 2).matrix
    effects = gns.adjoint_map(solver, lifts).effect().matrix
    krons = np.array([np.kron(rho2.T, e) for e in effects])
    pairing = real_view(krons)
    gram = pairing @ real_view(lifts.choi).T
    gram = (gram + gram.T) / 2.0
    # Column k of gns_rep(T) pairs T after lift k, whose Choi matrix is
    # sum_mn L_k[(i,m),(x,n)] C[(m,a),(n,b)].  So pairing j of it is
    # Re sum C[(m,a),(n,b)] W_jk[m,a,n,b], with W_jk the contraction of
    # conj(kron_j)[(i,a),(x,b)] and L_k[(i,m),(x,n)] over i and x: the
    # real dot product of the real views of C and of conj(W_jk), which
    # contracts kron_j with conj(L_k).
    n = d * d
    conj_w = np.einsum(
        "jiaxb,kimxn->jkmanb",
        krons.reshape(n, d, d, d, d),
        lifts.choi.conj().reshape(n, d, d, d, d),
        optimize=True,
    )
    return gram, pairing, real_view(conj_w.reshape(n * n, n, n))


def folded_transformation_coords(folded, t):
    """gns.transformation_coords through the folded pairing."""
    gram, pairing, _ = folded
    lead = t.choi.shape[:-2]
    pairings = real_view(t.choi).reshape(-1, pairing.shape[-1]) @ pairing.T
    return np.linalg.solve(gram, pairings.T).T.reshape(*lead, -1)


def folded_gns_rep(folded, t):
    """gns.gns_rep through the folded composed pairing."""
    gram, _, composed_pairing = folded
    n = len(gram)
    cols = real_view(t.choi) @ composed_pairing.T
    return np.linalg.solve(gram, cols.reshape(*cols.shape[:-1], n, n))


# ---------------------------------------------------------------------------
# what a run calls, and what it draws


_SRC = os.path.dirname(opcal.__file__) + os.sep
_LINALG = os.path.dirname(np.linalg.__file__) + os.sep


def defined_functions(path):
    """(file, qualified name) of every function and method of a module,
    nested ones included, as its code objects name them."""
    todo, found = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        if not code.co_name.startswith("<"):  # the module, lambdas, comprehensions
            found.add((code.co_filename, code.co_qualname))
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return found


def _name(code):
    """module.qualname of a function of src/opcal."""
    return f"{os.path.basename(code.co_filename).removesuffix('.py')}.{code.co_qualname}"


def record(run, args=()):
    """(run(), Counter) of what run called, read by one profile hook, so
    constructors and methods count wherever they are bound: each call of
    a function of src/opcal as "module.qualname"; each numpy.linalg
    function that one calls as "module.qualname->function"; and each
    call of a name in args also as "module.qualname(<repr of its first
    parameter>)".  The caches of basis and core are cleared first, so a
    cached build counts once per distinct argument."""
    for module in (basis, core):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls = Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(_SRC):
            name = _name(code)
            calls[name] += 1
            if name in args:
                calls[f"{name}({frame.f_locals[code.co_varnames[0]]!r})"] += 1
        elif (
            code.co_filename.startswith(_LINALG)
            and hasattr(np.linalg, code.co_name)
            and frame.f_back.f_code.co_filename.startswith(_SRC)
        ):
            calls[f"{_name(frame.f_back.f_code)}->{code.co_name}"] += 1

    sys.setprofile(hook)
    try:
        return run(), calls
    finally:
        sys.setprofile(None)


_default_rng = np.random.default_rng


class Recording:
    """A Generator that keeps each call's method name and output."""

    def __init__(self, seed):
        self._rng, self.calls = _default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, out))
            return out

        return call


@pytest.fixture
def fake_generators(monkeypatch):
    """np.random.default_rng makes a Recording of an int seed, and
    returns any other argument unaltered, as it returns a Generator; the
    fixture's value lists the Recordings made, in order."""
    made = []

    def default_rng(seed):
        if not isinstance(seed, int):
            return seed
        made.append(Recording(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made
