"""The paper's claims as checks: the samplers that draw a check's
random inputs, one function per claim, and the registry `CHECKS` that
names each claim, its tolerance, the backends it applies to and the
samples it draws.

A check takes the run's context (`cli.RunContext`: the spec and the
objects the checks share), its tolerance and the samples its row
declares, one stack per sampler, and returns (holds, values).  A check
draws nothing itself: the runner draws its samples, so it runs as well
on chosen ones.  A theory-level dimension is read through the context
(`ctx.measure`, `ctx.dims`), which takes each measurement once per run.
"""

from dataclasses import replace

import numpy as np

from . import channels as ch
from . import core, faithful, gns, infodim
from . import quantum as qm
from .core import BACKENDS
from .errors import ZeroProbability
from .tolerances import ACTION_TOL, DEFAULT_TOL, EXACT_TOL, PROB_TOL

QUANTUM = ("quantum",)
SAMPLES = 25  # per sampled check, in tests too; the acceptance gate draws 100 in its own loops


# Each sampler is sampler(spec, rng, n): n samples as one stack, or
# one sample when n is None.  The first three follow the spec's
# backend, the others are quantum.  Each looks its qm sampler up when it
# runs, so a rebound qm name (a layer tracer's wrapper, say) is the one
# called.


def _classical(spec):
    return spec.backend == "classical"


def _sample_state(spec, rng, n):
    return (qm.random_classical_state if _classical(spec) else qm.random_state)(spec.d, rng, n)


def _sample_map(spec, rng, n):
    return (qm.random_classical_map if _classical(spec) else qm.random_cp)(spec.d, rng, n)


def _sample_effect(spec, rng, n):
    return (qm.random_classical_effect if _classical(spec) else qm.random_effect)(spec.d, rng, n)


def _sample_generalized_effect(spec, rng, n):
    return qm.random_generalized_effect(spec.d, rng, n)


def _sample_joint_state(spec, rng, n):
    return qm.random_state(spec.d**2, rng, n)


def _sample_experiment(spec, rng, n):
    return qm.random_experiment(spec.d, rng, n)


def _sample_kraus_contraction(spec, rng, n):
    return qm.random_kraus_contraction(spec.d, rng, n)


# -- core


def _check_conditioning(ctx, tol):
    d = ctx.spec.d
    th = ctx.spec.theory()
    state = core.State(th, np.eye(d) / d)
    p0 = np.diag(np.eye(d)[0])
    p, cond = core.condition(state, qm.projector_map(th, p0))
    resid = float(np.max(np.abs(cond.matrix - p0)))
    ok = abs(p - 1.0 / d) <= tol and resid <= tol
    return ok, {"probability": p, "state_residual": resid}


def _check_equivalence(ctx, tol):
    spec = ctx.spec
    th = spec.theory()
    d = spec.d
    if spec.backend == "classical":
        perm = np.roll(np.eye(d), 1, axis=0)
        t = qm.classical_map(perm)
    else:
        u = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        t = qm.kraus_to_choi(th, [u])
    same_effect = core.informational_equiv(t, core.identity(th))
    same_dynamics = core.dynamical_equiv(t, core.identity(th))
    ok = same_effect and not same_dynamics
    return ok, {"same_effect": float(same_effect), "same_dynamics": float(same_dynamics)}


def _check_completeness(ctx, tol):
    obs = qm.projective_experiment(ctx.spec.theory()).observable()
    resid = float(np.max(np.abs(obs.effects.matrix.sum(axis=0) - np.eye(ctx.spec.d))))
    return resid <= tol, {"unit_residual": resid, "branches": float(len(obs))}


def _check_zero_probability(ctx, tol):
    th = ctx.spec.theory()
    state = core.State(th, np.diag(np.eye(th.d)[0]))
    branch = qm.projector_map(th, np.diag(np.eye(th.d)[1]))
    try:
        core.condition(state, branch)
    except ZeroProbability:
        return True, {}
    return False, {}


# -- norms


def _check_effect_norm(ctx, tol, w, e):
    norm = core.effect_norm(e)
    worst = max(0.0, float(np.max(np.abs(core.pair(w, e)) - norm)), float(np.max(norm - 1.0)))
    return worst <= tol, {"max_violation": worst}


def _check_weight_norm(ctx, tol, t, w):
    w = core.act(t, w)
    norm = core.weight_norm(w)
    # physical maps never increase the weight norm beyond 1
    worst = max(0.0, float(np.max(w.total - norm)), float(np.max(norm - 1.0)))
    return worst <= tol, {"max_violation": worst}


def _check_submultiplicative(ctx, tol, a, b):
    lhs = core.trans_norm(core.compose(b, a))
    worst = float(np.max(lhs - core.trans_norm(b) * core.trans_norm(a)))
    return worst <= tol, {"max_violation": worst}


def _check_contraction(ctx, tol, t):
    worst = float(np.max(core.trans_norm(t) - 1.0))
    return worst <= tol, {"max_violation": worst}


def _check_coexistence(ctx, tol):
    ident = core.identity(ctx.spec.theory())
    half, big = core.scale(0.5, ident), core.scale(0.7, ident)
    # add raises NotCoexistent unless half and half are coexistent
    sum_norm = core.trans_norm(core.add(half, half))
    ok = not core.coexistent(big, big) and abs(sum_norm - 1.0) <= tol
    return ok, {"sum_norm": sum_norm}


# -- infodim


def _check_minimal_ic(ctx, tol):
    obs = ctx.ic
    rank = infodim.ic_rank(obs)
    ok = rank == len(obs) == obs.theory.effect_dim
    return ok, {"rank": float(rank), "outcomes": float(len(obs))}


def _check_ic_expand(ctx, tol, e):
    _, resid = infodim.ic_expand(e, ctx.ic)
    return resid <= tol, {"residual": resid}


def _check_idim(ctx, tol):
    idim, resid = ctx.measure(infodim.informational_dimension, ctx.spec.theory())
    return idim == ctx.spec.d and resid <= tol, {"idim": float(idim), "pairing_residual": resid}


def _check_local_observability(ctx, tol):
    ok, rank = infodim.check_local_observability(ctx.ic, ctx.ic)
    return ok, {"rank": float(rank)}


def _check_bell_ic(ctx, tol):
    spec = ctx.spec
    th2 = core.Theory(spec.backend, spec.d * spec.d)
    idim2, _ = ctx.measure(infodim.informational_dimension, th2)
    if spec.backend == "classical":
        # classical analogue: copying onto an ancilla and reading both
        # never exceeds the simplex dimension, so idim(S x S) = d^2
        return idim2 == spec.d * spec.d, {"idim2": float(idim2)}
    # the dimension count adm(S) = idim(S x S) - 1
    adm = ctx.measure(infodim.affine_state_dimension, spec.theory())
    return infodim.check_bell_ic(spec.d) and adm == idim2 - 1, {}


# -- table1


def _table_row(table, row):
    """(holds, values) of one row of a dimension table."""
    lhs, rhs = table[row]
    return lhs == rhs, {"lhs": float(lhs), "rhs": float(rhs)}


def _table_check(row):
    return lambda ctx, tol: _table_row(ctx.dims, row)


def _check_classical_violation(ctx, tol):
    # the row D34' of the classical table, from the only two dimensions
    # it reads, so a quantum run builds no classical table
    th = core.classical(ctx.spec.d)
    adm = ctx.measure(infodim.affine_state_dimension, th)
    idim, _ = ctx.measure(infodim.informational_dimension, th)
    lhs, rhs = adm, idim**2 - 1
    return lhs != rhs, {"lhs": float(lhs), "rhs": float(rhs)}


# -- faithful


def _check_symmetric(ctx, tol):
    return ctx.calibration.symmetric, {}


def _check_dynamical(ctx, tol):
    rank, full = ctx.calibration.rank, ctx.spec.d**4
    return rank == full, {"rank": float(rank), "full_rank": float(full)}


def _check_preparational(ctx, tol, target):
    if ctx.calibration.rank != ctx.spec.d**4:
        return False, {}
    witness, p = faithful.prepare_witness(ctx.calibration, target)
    _, cond = qm.condition_local(ctx.phi, witness, 1)
    worst = float(np.max(np.abs(qm.local_state(cond, 2).matrix - target.matrix)))
    pmin = float(np.min(p))
    return worst <= tol and pmin > 0, {"max_residual": worst, "min_probability": pmin}


def _check_signature(ctx, tol):
    split = ctx.split
    d = ctx.spec.d
    want = (d * d - d * (d - 1) // 2, d * (d - 1) // 2)
    ok = split.signature == want
    return ok, {"plus": float(split.signature[0]), "minus": float(split.signature[1])}


def _check_abs_gram(ctx, tol):
    spec = ctx.spec
    low = float(np.linalg.eigvalsh(ctx.split.gram_abs)[0])
    if spec.phi_override is None:
        ok = abs(low - 1.0 / spec.d) <= tol
    else:
        ok = low > tol
    return ok, {"min_eig": low, "expected": 1.0 / spec.d}


def _check_involution(ctx, tol):
    s = ctx.split.sigma_matrix
    resid = float(np.max(np.abs(s @ s - np.eye(s.shape[0]))))
    return resid <= tol, {"square_residual": resid}


# -- gns


def _check_transpose_residual(ctx, tol, t):
    lhs = qm.apply_local(ctx.phi, t, 1).matrix
    rhs = qm.apply_local(ctx.phi, ctx.solver.transpose(t), 2).matrix
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst <= tol, {"max_residual": worst}


def _check_transpose_axioms(ctx, tol, a, b):
    solver = ctx.solver
    th = core.quantum(ctx.spec.d)
    s = core.Transformation(th, a.choi + 0.25 * b.choi, generalized=True)
    ba, ta, tb, ts = core.unstack(solver.transpose(core.stack([core.compose(b, a), a, b, s])))
    ident = core.identity(th)
    residuals = (
        # (b after a)' = a' after b'
        ba.choi - core.compose(ta, tb).choi,
        # involution: a'' = a
        solver.transpose(ta).choi - a.choi,
        # linearity
        ts.choi - (ta.choi + 0.25 * tb.choi),
        solver.transpose(ident).choi - ident.choi,
    )
    worst = max(float(np.max(np.abs(r))) for r in residuals)
    return worst <= tol, {"max_residual": worst}


def _check_kraus_transpose(ctx, tol, t):
    spec = ctx.spec
    if spec.phi_override is not None:
        return True, {}  # closed form is specific to the canonical state
    # the Choi matrix of {K^T} is that of {K} with its two factors swapped
    worst = float(np.max(np.abs(ctx.solver.transpose(t).choi - ch.swap(t.choi))))
    return worst <= tol, {"max_residual": worst}


def _check_adjoint_pairing(ctx, tol, a, b, c):
    solver = ctx.space.solver
    b, c = gns.jordan_lift(b), gns.jordan_lift(c)
    adj = gns.adjoint_map(solver, a)
    # <b | a after c> against <adj after b | c>, as one stack of pairs
    lhs, rhs = gns._inner_tt(
        solver,
        core.stack([b, core.compose(adj, b)]),
        core.stack([core.compose(a, c), c]),
    )
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst <= tol, {"max_residual": worst}


def _check_homomorphism(ctx, tol, a, b):
    space = ctx.space
    ident = core.identity(core.quantum(ctx.spec.d))
    rep_ab, rep_a, rep_b = gns.gns_rep(space, core.stack([core.compose(a, b), a, b]))
    worst = max(
        float(np.max(np.abs(rep_ab - rep_a @ rep_b))),
        float(np.max(np.abs(gns.gns_rep(space, ident) - np.eye(space.dim)))),
    )
    return worst <= tol, {"max_residual": worst}


def _check_adjoint_rep(ctx, tol, a):
    space = ctx.space
    rep, got = gns.gns_rep(space, core.stack([a, gns.adjoint_map(space.solver, a)]))
    worst = float(np.max(np.abs(got - np.swapaxes(rep, -1, -2))))
    return worst <= tol, {"max_residual": worst}


def _check_cstar(ctx, tol, a):
    lhs, rhs = gns.cstar_check(ctx.space, a)
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst <= tol, {"max_residual": worst}


# -- born


def _check_born_pair(ctx, tol):
    d = ctx.spec.d
    states = core.spanning_states(core.quantum(d))
    # every (effect, state) pair at once: the effects on their own axis
    effects = replace(ctx.ic.effects, matrix=ctx.ic.effects.matrix[:, None])
    born = gns.born_pair(ctx.space, states, effects)
    worst = float(np.max(np.abs(born - core.pair(states, effects))))
    return worst <= tol, {"max_residual": worst}


def _check_born_triple(ctx, tol, w, b, t):
    lhs = gns.born_triple(ctx.space, w, b, t)
    rhs = core.pair(w, core.evolve_effect(b, t))
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst <= tol, {"max_residual": worst}


def _check_no_signaling(ctx, tol, joint, exp):
    spec = ctx.spec
    worst = qm.signaling_residual(joint, exp)
    # conditioning witness: a selective branch changes the far state
    phi = qm.max_entangled(spec.d)
    p0 = np.zeros((spec.d, spec.d))
    p0[0, 0] = 1.0
    branch = qm.projector_map(core.quantum(spec.d), p0)
    _, cond = qm.condition_local(phi, branch, 1)
    dist = ch.trace_distance(
        qm.local_state(cond, 2).matrix, qm.local_state(phi, 2).matrix
    )
    return worst <= tol and dist > 0.1, {"max_violation": worst, "witness_distance": dist}


# ---------------------------------------------------------------------------
# check registry

# One row per check: (name, detail, tolerance, backends, fn, draws).
# The suite is the name's prefix, run order is table order, and the
# tolerance, the same for every spec, bounds only what the check
# reports: the checks that tell objects apart by a cutoff take PROB_TOL.
# draws is () or (n, sampler, ...): the runner calls fn(ctx, tol, *stacks)
# on n samples of each sampler, drawn in that order from one Generator
# (one sample of each when n is None).
CHECKS = (
    ("core.conditioning", "Bayes conditioning on a projector branch", DEFAULT_TOL, BACKENDS, _check_conditioning, ()),
    ("core.equivalence", "deterministic rotation shares effects with identity but not dynamics", PROB_TOL, BACKENDS, _check_equivalence, ()),
    ("core.completeness", "experiment branch probabilities sum to one", DEFAULT_TOL, BACKENDS, _check_completeness, ()),
    ("core.zero_probability", "conditioning on an impossible outcome is rejected", DEFAULT_TOL, BACKENDS, _check_zero_probability, ()),
    ("norms.effect_bound", "probabilities are bounded by the effect norm", DEFAULT_TOL, BACKENDS, _check_effect_norm, (SAMPLES, _sample_state, _sample_effect)),
    ("norms.weight_bound", "weights of physical branches stay in the unit ball", DEFAULT_TOL, BACKENDS, _check_weight_norm, (SAMPLES, _sample_map, _sample_state)),
    ("norms.submultiplicative", "transformation norm is submultiplicative", DEFAULT_TOL, BACKENDS, _check_submultiplicative, (SAMPLES, _sample_map, _sample_map)),
    ("norms.contraction", "physical transformations are contractions", DEFAULT_TOL, BACKENDS, _check_contraction, (SAMPLES, _sample_map)),
    ("norms.coexistence", "coexistence is contraction of the sum", PROB_TOL, BACKENDS, _check_coexistence, ()),
    ("infodim.minimal_ic", "a minimal informationally complete observable exists", DEFAULT_TOL, BACKENDS, _check_minimal_ic, ()),
    ("infodim.expand", "effects expand over an informationally complete observable", DEFAULT_TOL, BACKENDS, _check_ic_expand, (None, _sample_effect)),
    ("infodim.idim", "maximal perfectly discriminable set has the expected size", DEFAULT_TOL, BACKENDS, _check_idim, ()),
    ("infodim.local_observability", "products of local observables span the joint effects", DEFAULT_TOL, BACKENDS, _check_local_observability, ()),
    ("infodim.bell_ic", "a joint discriminating observable induces a minimal IC one", DEFAULT_TOL, BACKENDS, _check_bell_ic, ()),
    ("table1.D2", "effect-space dimension equals affine state dimension plus one", 0.0, BACKENDS, _table_check("D2"), ()),
    ("table1.D3", "affine dimension of a composite from the parts", 0.0, BACKENDS, _table_check("D3"), ()),
    ("table1.D4", "affine dimension from the doubled informational dimension", 0.0, BACKENDS, _table_check("D4"), ()),
    ("table1.D34", "doubled-system affine dimension from its informational dimension", 0.0, BACKENDS, _table_check("D34"), ()),
    ("table1.D34'", "affine dimension equals squared informational dimension minus one", 0.0, BACKENDS, _table_check("D34'"), ()),
    ("table1.tensor", "informational dimension is multiplicative under composition", 0.0, BACKENDS, _table_check("tensor"), ()),
    ("table1.T", "transformation affine dimension from the doubled system", 0.0, BACKENDS, _table_check("T"), ()),
    ("table1.P", "effect-space dimension equals squared informational dimension", 0.0, BACKENDS, _table_check("P"), ()),
    ("table1.classical_violation", "the diagonal restriction violates the squared-dimension identity", 0.0, QUANTUM, _check_classical_violation, ()),
    ("faithful.symmetric", "joint state is invariant under swapping the parts", DEFAULT_TOL, QUANTUM, _check_symmetric, ()),
    ("faithful.dynamical", "local action determines the transformation uniquely", DEFAULT_TOL, QUANTUM, _check_dynamical, ()),
    ("faithful.preparational", "every state is reachable by a local witness", DEFAULT_TOL, QUANTUM, _check_preparational, (5, _sample_state)),
    ("faithful.signature", "bilinear form has the expected sign signature", DEFAULT_TOL, QUANTUM, _check_signature, ()),
    ("faithful.abs_gram", "absolute form is strictly positive with the expected floor", EXACT_TOL, QUANTUM, _check_abs_gram, ()),
    ("faithful.involution", "the sign-flip involution squares to the identity", EXACT_TOL, QUANTUM, _check_involution, ()),
    ("gns.transpose_residual", "local action of a map equals its transpose on the other part", ACTION_TOL, QUANTUM, _check_transpose_residual, (SAMPLES, _sample_map)),
    ("gns.transpose_axioms", "transposition is linear, reverses composition, and squares to one", EXACT_TOL, QUANTUM, _check_transpose_axioms, (5, _sample_map, _sample_map)),
    ("gns.kraus_transpose", "transposition acts entrywise on Kraus operators", ACTION_TOL, QUANTUM, _check_kraus_transpose, (5, _sample_kraus_contraction)),
    ("gns.adjoint_pairing", "the adjoint moves across the scalar product", DEFAULT_TOL, QUANTUM, _check_adjoint_pairing, (SAMPLES, _sample_map, _sample_generalized_effect, _sample_generalized_effect)),
    ("gns.homomorphism", "the representation preserves composition and the identity", EXACT_TOL, QUANTUM, _check_homomorphism, (5, _sample_map, _sample_map)),
    ("gns.adjoint_rep", "the adjoint map is represented by the matrix adjoint", EXACT_TOL, QUANTUM, _check_adjoint_rep, (5, _sample_map)),
    ("gns.cstar", "norm of the adjoint composite equals the squared norm", DEFAULT_TOL, QUANTUM, _check_cstar, (SAMPLES, _sample_map)),
    ("born.pair", "scalar-product pairing reproduces all probabilities", DEFAULT_TOL, QUANTUM, _check_born_pair, ()),
    ("born.triple", "three-term form reproduces transformed probabilities", DEFAULT_TOL, QUANTUM, _check_born_triple, (SAMPLES, _sample_state, _sample_effect, _sample_map)),
    ("born.no_signaling", "deterministic far experiments leave the local state fixed", DEFAULT_TOL, QUANTUM, _check_no_signaling, (SAMPLES, _sample_joint_state, _sample_experiment)),
)
SUITES = tuple(dict.fromkeys(name.split(".")[0] for name, *_ in CHECKS))
