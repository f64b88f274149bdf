"""Stacks of samples: each sampler draws its stack in one generator
call per array and builds, from each sample's slice of those draws,
the same matrices as the one-sample formulas; every stack-aware map
equals its per-element calls; and each sampled check holds, and reports
what its per-sample loop reports on the same samples."""

import re
from dataclasses import replace

import numpy as np
import pytest

from opcal import channels as ch
from opcal import checks, cli, core, faithful, gns, infodim
from opcal import quantum as qm
from opcal.errors import NoClosedForm, NotFaithful, ZeroProbability
from opcal.tolerances import PROB_TOL
import reference
from reference import Recording, joint, joint_spec

# the specs on which gns.kraus_transpose applies, and then the others
CANONICAL = {f"quantum-d{d}": joint_spec("canonical", d) for d in (2, 3)}
SPECS = {**CANONICAL, "isotropic-d3-p0.2": joint_spec("isotropic", 3, 0.2)}
CLASSICAL = {
    "classical-d3": cli.TheorySpec(backend="classical", d=3),
    "classical-d4": cli.TheorySpec(backend="classical", d=4),
}


# ---------------------------------------------------------------------------
# the per-sample check bodies that the stacked checks replaced, each
# taking the samples that the stacked check drew, one at a time, in the
# order of its samplers


def _adjoint_pairing_per_sample(ctx, samples, tol):
    solver = ctx.space.solver
    worst = 0.0
    for _ in range(checks.SAMPLES):
        a = next(samples)
        b = gns.jordan_lift(next(samples))
        c = gns.jordan_lift(next(samples))
        lhs = gns._inner_tt(solver, b, core.compose(a, c))
        adj = gns.adjoint_map(solver, a)
        rhs = gns._inner_tt(solver, core.compose(adj, b), c)
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"max_residual": worst}


def _born_triple_per_sample(ctx, samples, tol):
    space = ctx.space
    worst = 0.0
    for _ in range(checks.SAMPLES):
        w, b, t = next(samples), next(samples), next(samples)
        lhs = gns.born_triple(space, w, b, t)
        rhs = core.pair(w, core.evolve_effect(b, t))
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"max_residual": worst}


def _effect_norm_per_sample(ctx, samples, tol):
    worst = 0.0
    for _ in range(checks.SAMPLES):
        w, e = next(samples), next(samples)
        p = core.pair(w, e)
        norm = core.effect_norm(e)
        worst = max(worst, abs(p) - norm, norm - 1.0)
    return worst <= tol, {"max_violation": worst}


def _weight_norm_per_sample(ctx, samples, tol):
    worst = 0.0
    for _ in range(checks.SAMPLES):
        t, w = next(samples), next(samples)
        w = core.act(t, w)
        norm = core.weight_norm(w)
        worst = max(worst, w.total - norm, norm - 1.0)
    return worst <= tol, {"max_violation": worst}


def _submultiplicative_per_sample(ctx, samples, tol):
    worst = -np.inf
    for _ in range(checks.SAMPLES):
        a, b = next(samples), next(samples)
        lhs = core.trans_norm(core.compose(b, a))
        rhs = core.trans_norm(b) * core.trans_norm(a)
        worst = max(worst, lhs - rhs)
    return worst <= tol, {"max_violation": float(worst)}


def _contraction_per_sample(ctx, samples, tol):
    worst = -np.inf
    for _ in range(checks.SAMPLES):
        worst = max(worst, core.trans_norm(next(samples)) - 1.0)
    return worst <= tol, {"max_violation": float(worst)}


def _preparational_per_sample(ctx, samples, tol):
    spec = ctx.spec
    phi = ctx.phi
    if ctx.calibration.rank != spec.d**4:
        return False, {}
    worst, pmin = 0.0, np.inf
    for _ in range(5):
        target = next(samples)
        witness, p = faithful.prepare_witness(ctx.calibration, target)
        _, cond = qm.condition_local(phi, witness, 1)
        out = qm.local_state(cond, 2).matrix
        worst = max(worst, float(np.max(np.abs(out - target.matrix))))
        pmin = min(pmin, p)
    return worst <= tol and pmin > 0, {"max_residual": worst, "min_probability": pmin}


def _no_signaling_per_sample(ctx, samples, tol):
    # the residual of each sample on its own, as signaling_residual takes it
    spec = ctx.spec
    worst = 0.0
    for _ in range(checks.SAMPLES):
        joint, exp = next(samples), next(samples)
        after = qm.apply_local(joint, exp.deterministic_sum(), 1)
        lhs = ch.partial_trace(after.matrix, 2)
        worst = max(worst, float(np.max(np.abs(lhs - qm.local_state(joint, 2).matrix))))
    phi = qm.max_entangled(spec.d)
    p0 = np.zeros((spec.d, spec.d))
    p0[0, 0] = 1.0
    branch = qm.projector_map(core.quantum(spec.d), p0)
    _, cond = qm.condition_local(phi, branch, 1)
    dist = ch.trace_distance(qm.local_state(cond, 2).matrix, qm.local_state(phi, 2).matrix)
    return worst <= tol and dist > 0.1, {"max_violation": worst, "witness_distance": dist}


def _transpose_residual_per_sample(ctx, samples, tol):
    worst = 0.0
    for _ in range(checks.SAMPLES):
        t = next(samples)
        lhs = qm.apply_local(ctx.phi, t, 1).matrix
        rhs = qm.apply_local(ctx.phi, ctx.solver.transpose(t), 2).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= tol, {"max_residual": worst}


def _kraus_transpose_per_sample(ctx, samples, tol):
    if ctx.spec.phi_override is not None:
        return True, {}
    worst = 0.0
    for _ in range(5):
        t = next(samples)
        worst = max(worst, float(np.max(np.abs(ctx.solver.transpose(t).choi - ch.swap(t.choi)))))
    return worst <= tol, {"max_residual": worst}


def _cstar_per_sample(ctx, samples, tol):
    worst = 0.0
    for _ in range(checks.SAMPLES):
        lhs, rhs = gns.cstar_check(ctx.space, next(samples))
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"max_residual": worst}


def _drawn(out):
    if isinstance(out, core.Experiment):
        return out.branches.choi
    return out.choi if hasattr(out, "choi") else out.matrix


def _elements(stack):
    """The objects of a sampler's stack, one per sample (an experiment's
    branches are stacked branchwise)."""
    if isinstance(stack, core.Experiment):
        return [core.Experiment(replace(stack.branches, choi=c)) for c in stack.branches.choi.swapaxes(0, 1)]
    return core.unstack(stack)


ROWS = {row[0]: row for row in checks.CHECKS}


def _run_stacked(ctx, name, tol):
    """Run a check's row as the runner does, at tolerance tol; return its
    result and the objects drawn for it, sample by sample and, within a
    sample, in the order of its samplers."""
    _, detail, _, _, fn, draws = ROWS[name]
    drawn = []

    def recording(ctx, tol, *stacks):
        drawn.extend(x for sample in zip(*map(_elements, stacks)) for x in sample)
        return fn(ctx, tol, *stacks)

    result = cli._run_check(ctx, name, detail, tol, recording, draws)
    assert result.status != "error", result.error
    return result.status == "pass", result.values, drawn


# (id, check, per-sample body, configurations, bound): the check runs at
# its row's tolerance, as cli.run_suite runs it, or at the tighter bound
# given here
ORACLES = (
    ("adjoint_pairing", "gns.adjoint_pairing", _adjoint_pairing_per_sample, SPECS, 1e-12),
    ("born_triple", "born.triple", _born_triple_per_sample, SPECS, 1e-10),
    ("effect_bound", "norms.effect_bound", _effect_norm_per_sample, {**SPECS, **CLASSICAL}, None),
    ("weight_bound", "norms.weight_bound", _weight_norm_per_sample, {**SPECS, **CLASSICAL}, 1e-12),
    ("submultiplicative", "norms.submultiplicative", _submultiplicative_per_sample, {**SPECS, **CLASSICAL}, None),
    ("contraction", "norms.contraction", _contraction_per_sample, {**SPECS, **CLASSICAL}, None),
    ("preparational", "faithful.preparational", _preparational_per_sample, SPECS, None),
    ("no_signaling", "born.no_signaling", _no_signaling_per_sample, SPECS, None),
    ("transpose_residual", "gns.transpose_residual", _transpose_residual_per_sample, SPECS, None),
    ("kraus_transpose", "gns.kraus_transpose", _kraus_transpose_per_sample, CANONICAL, None),
    ("cstar", "gns.cstar", _cstar_per_sample, SPECS, None),
)


@pytest.mark.parametrize(
    "name, per_sample, spec, bound",
    [
        pytest.param(name, per_sample, specs[config], bound, id=f"{short}-{config}")
        for short, name, per_sample, specs, bound in ORACLES
        for config in specs
    ],
)
def test_stacked_check_matches_per_sample_oracle(name, per_sample, spec, bound):
    # the claim holds at seeds 1-3; and the per-sample loop on the
    # samples the stacked check drew, one at a time, reports what the
    # stacked check reports, and takes them all
    _, _, tol, _, _, (n, *samplers) = ROWS[name]
    tol = tol if bound is None else min(bound, tol)
    for seed in (1, 2, 3):
        ctx = cli.RunContext(replace(spec, seed=seed))
        ok, values, drawn = _run_stacked(ctx, name, tol)
        assert ok, values
        assert len(drawn) == n * len(samplers)
        samples = iter(drawn)
        want_ok, want = per_sample(ctx, samples, tol)
        assert next(samples, None) is None
        assert ok == want_ok
        assert values.keys() == want.keys()
        for key in want:
            assert abs(values[key] - want[key]) <= 1e-13, key


# ---------------------------------------------------------------------------
# the samplers: one generator call per array, built per stack


class _Slice:
    """Replays sample i of recorded calls: call k must name the method
    of recorded call k, and returns element i of its output."""

    def __init__(self, calls, i):
        self._calls, self._i = iter(calls), i

    def __getattr__(self, name):
        def call(*args, **kwargs):
            recorded, out = next(self._calls)
            assert recorded == name
            return out[self._i]

        return call

    def exhausted(self):
        return next(self._calls, None) is None


SAMPLER_SPECS = {
    "quantum-d2": cli.TheorySpec(d=2),
    "quantum-d3": cli.TheorySpec(d=3),
    "quantum-d4": cli.TheorySpec(d=4),
    "isotropic-d3-p0.2": SPECS["isotropic-d3-p0.2"],
    "classical-d2": cli.TheorySpec(backend="classical", d=2),
    **CLASSICAL,
}
# checks sampler -> its one-sample oracle on each backend, and the
# number of arrays (generator calls) that it draws
SAMPLE_ORACLES = {
    "state": {"quantum": (reference.sample_state, 2), "classical": (reference.sample_classical_state, 1)},
    "map": {"quantum": (reference.sample_cp, 3), "classical": (reference.sample_classical_map, 2)},
    "effect": {"quantum": (reference.sample_effect, 3), "classical": (reference.sample_classical_effect, 1)},
    "generalized_effect": {"quantum": (reference.sample_generalized_effect, 2)},
    "joint_state": {"quantum": (reference.sample_joint_state, 2)},
    "experiment": {"quantum": (reference.sample_experiment, 2)},
    "kraus_contraction": {"quantum": (reference.sample_kraus_contraction, 2)},
}
# the oracle's experiment branches come from an eigh, not an SVD
ORACLE_ATOL = {"experiment": 1e-12}


@pytest.mark.parametrize("config", SAMPLER_SPECS)
def test_samplers_match_one_sample_oracles(fake_generators, config):
    spec = SAMPLER_SPECS[config]
    for seed in (1, 2, 3):
        for kind, oracles in SAMPLE_ORACLES.items():
            if spec.backend not in oracles:
                continue
            oracle, arrays = oracles[spec.backend]
            sampler = getattr(checks, f"_sample_{kind}")
            rng = Recording(seed)
            stack = _elements(sampler(spec, rng, checks.SAMPLES))
            # one call per array, each drawing every sample
            assert len(rng.calls) == arrays, kind
            assert all(len(out) == checks.SAMPLES for _, out in rng.calls), kind
            assert len(stack) == checks.SAMPLES
            for i, got in enumerate(stack):
                # sample i's slices of the same draws build the same
                # object, through the sampler and through its oracle
                one, ref = _Slice(rng.calls, i), _Slice(rng.calls, i)
                assert np.array_equal(_drawn(got), _drawn(sampler(spec, one, None))), kind
                want = oracle(spec.d, ref)
                assert one.exhausted() and ref.exhausted()
                assert type(got) is type(want), kind
                want = _drawn(want)
                if kind in ORACLE_ATOL:
                    assert np.max(np.abs(_drawn(got) - want)) <= ORACLE_ATOL[kind], kind
                else:
                    assert np.array_equal(_drawn(got), want), kind


@pytest.mark.parametrize(
    "config", ["quantum-d2", "quantum-d3", "quantum-d4", "classical-d3", "classical-d4"]
)
def test_every_draw_of_a_run_is_one_call_per_array(fake_generators, config):
    # every draw of the rows that an `all` run runs makes one generator
    # call per array, each of them drawing all n samples (one sample's
    # arrays when n is None), in the order given
    spec = SAMPLER_SPECS[config]
    calls = dict.fromkeys(draws for *_, backends, _, draws in checks.CHECKS if draws and spec.backend in backends)
    assert len(calls) == (5 if spec.backend == "classical" else 12)
    for n, *samplers in calls:
        rng = Recording(1)
        stacks = [sampler(spec, rng, n) for sampler in samplers]
        kinds = [sampler.__name__.removeprefix("_sample_") for sampler in samplers]
        assert len(rng.calls) == sum(SAMPLE_ORACLES[k][spec.backend][1] for k in kinds)
        if n is not None:
            assert all(len(out) == n for _, out in rng.calls)
            assert [len(_elements(s)) for s in stacks] == [n] * len(samplers)
        want_rng = np.random.default_rng(1)
        for sampler, stack in zip(samplers, stacks):
            assert np.array_equal(_drawn(stack), _drawn(sampler(spec, want_rng, n)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_samplers_on_a_seed_match_one_sample_oracles(d):
    # with n None a sampler makes one sample's calls, as the oracles do
    ref = reference
    for seed in (1, 2, 3):
        rng = lambda: np.random.default_rng(seed)  # noqa: E731
        pairs = (
            (qm.random_state(d, seed), ref.sample_state(d, rng()), 0.0),
            (qm.random_state(d * d, seed), ref.sample_joint_state(d, rng()), 0.0),
            (qm.random_effect(d, seed), ref.sample_effect(d, rng()), 0.0),
            (qm.random_generalized_effect(d, seed), ref.sample_generalized_effect(d, rng()), 0.0),
            (qm.random_cp(d, seed), ref.sample_cp(d, rng()), 0.0),
            (qm.random_experiment(d, seed), ref.sample_experiment(d, rng()), 1e-12),
            (qm.random_kraus_contraction(d, seed), ref.sample_kraus_contraction(d, rng()), 0.0),
            (qm.random_classical_state(d, seed), ref.sample_classical_state(d, rng()), 0.0),
            (qm.random_classical_effect(d, seed), ref.sample_classical_effect(d, rng()), 0.0),
            (qm.random_classical_map(d, seed), ref.sample_classical_map(d, rng()), 0.0),
        )
        for got, want, atol in pairs:
            assert type(got) is type(want)
            assert _drawn(got).shape == _drawn(want).shape
            assert np.max(np.abs(_drawn(got) - _drawn(want)), initial=0.0) <= atol
        assert len(qm.random_experiment(d, seed).branches.choi) == 3


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_preserving_paths_match_the_einsum_and_eigh_oracles(d):
    # the experiment's product by R^T on its Choi factor against the
    # einsum congruence, and the SVD of the rank-three factor against
    # the eigh of its Choi matrix, on the same draws; the branches sum
    # to the trace-preserving Choi matrix they split
    worst = 0.0
    for seed in range(10):
        rng = lambda: np.random.default_rng(seed)  # noqa: E731
        exp, want = qm.random_experiment(d, seed), reference.sample_experiment(d, rng())
        whole = reference.sample_cp(d, rng(), trace_preserving=True, rank=3).choi
        total = exp.deterministic_sum()
        assert np.max(np.abs(total.effect().matrix - np.eye(d))) <= 1e-12
        worst = max(worst, np.max(np.abs(_drawn(exp) - _drawn(want))))
        worst = max(worst, np.max(np.abs(total.choi - whole)))
    assert worst <= 1e-12


def test_classical_constructors_on_stacks_match_per_element():
    rng = np.random.default_rng(13)
    inputs = (
        (qm.classical_state, rng.dirichlet(np.ones(3), size=(2, 2))),
        (qm.classical_effect, rng.uniform(0.0, 1.0, (2, 2, 3))),
        (qm.classical_map, rng.uniform(0.0, 1.0, (2, 2, 3, 3)) / 3.0),
    )
    for build, stacked in inputs:
        got = build(stacked)
        assert got.theory == core.classical(3)
        flat = stacked.reshape(4, *stacked.shape[2:])
        want = [_drawn(build(x)) for x in flat]
        _close(_drawn(got).reshape(4, *want[0].shape), want, atol=0.0)
    p = inputs[0][1][0, 0]
    assert np.array_equal(qm.classical_state(p).matrix, np.diag(p))


def test_weight_normalize_and_condition_on_stacks():
    th = core.quantum(2)
    eye = np.eye(2)
    states = core.Weight(th, np.array([eye / 2, eye / 4])).normalize()
    _close(states.matrix, [eye / 2, eye / 2], atol=0.0)
    s = core.State(th, eye / 2)
    p, cond = core.condition(core.stack([s, s]), core.identity(th))
    _close(p, [1.0, 1.0], atol=0.0)
    _close(cond.matrix, [eye / 2, eye / 2], atol=0.0)
    # a stack with any weight at or below the cutoff raises, naming the
    # smallest
    with pytest.raises(ZeroProbability, match=r"total weight 2e-10 below"):
        core.Weight(th, np.array([eye * 4e-10, eye / 2, eye * 1e-10])).normalize()
    branch = qm.projector_map(th, np.diag([0.0, 1.0]))
    up = core.State(th, np.diag([1.0, 0.0]))
    with pytest.raises(ZeroProbability, match=r"total weight 0\.0 below"):
        core.condition(core.stack([s, up]), branch)


# ---------------------------------------------------------------------------
# each map on a stack against its per-element calls


SPACES = {}


def _space(config):
    if config not in SPACES:
        SPACES[config] = gns.gns_space(gns.TransposeSolver(faithful.Calibration(SPECS[config].phi())))
    return SPACES[config]


def _close(stacked, singles, atol=1e-12):
    got = np.asarray(stacked)
    want = np.array([np.asarray(x) for x in singles])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= atol


N = 4


def _samples(d, seed):
    rng = np.random.default_rng(seed)
    return {
        "maps": [qm.random_cp(d, rng) for _ in range(N)],
        "states": [qm.random_state(d, rng) for _ in range(N)],
        "effects": [qm.random_effect(d, rng) for _ in range(N)],
        "generalized": [qm.random_generalized_effect(d, rng) for _ in range(N)],
    }


@pytest.mark.parametrize("config", SPECS)
def test_gns_maps_on_stacks_match_per_element(config):
    space = _space(config)
    solver = space.solver
    s = _samples(space.d, 7)
    maps, states, effects = s["maps"], s["states"], s["effects"]
    stack = core.stack(maps)
    chois = lambda ts: [t.choi for t in ts]  # noqa: E731

    _close(solver.transpose(stack).choi, chois(solver.transpose(t) for t in maps))
    _close(gns.adjoint_map(solver, stack).choi, chois(gns.adjoint_map(solver, t) for t in maps))
    lifts = [gns.jordan_lift(e) for e in s["generalized"]]
    _close(gns.jordan_lift(core.stack(s["generalized"])).choi, chois(lifts))
    _close(
        gns._inner_tt(solver, core.stack(lifts), stack),
        [gns._inner_tt(solver, b, t) for b, t in zip(lifts, maps)],
    )
    _close(gns.transformation_coords(space, stack), [gns.transformation_coords(space, t) for t in maps])
    _close(gns.gns_rep(space, stack), [gns.gns_rep(space, t) for t in maps])
    _close(gns.gns_norm(space, stack), [gns.gns_norm(space, t) for t in maps])
    lhs, rhs = gns.cstar_check(space, stack)
    _close(np.array([lhs, rhs]).T, [gns.cstar_check(space, t) for t in maps])
    _close(gns.state_rep(space, core.stack(states)), [gns.state_rep(space, w) for w in states])
    _close(gns.effect_rep(space, core.stack(effects)), [gns.effect_rep(space, e) for e in effects])
    _close(
        gns.born_pair(space, core.stack(states), core.stack(effects)),
        [gns.born_pair(space, w, e) for w, e in zip(states, effects)],
    )
    _close(
        gns.born_triple(space, core.stack(states), core.stack(effects), stack),
        [gns.born_triple(space, w, e, t) for w, e, t in zip(states, effects, maps)],
    )


@pytest.mark.parametrize("config", SPECS)
def test_transpose_takes_any_leading_axes(config):
    solver = _space(config).solver
    maps = _samples(solver.d, 8)["maps"]
    nested = core.stack([core.stack(maps[:2]), core.stack(maps[2:])])
    got = solver.transpose(nested).choi
    assert got.shape == (2, 2) + maps[0].choi.shape
    _close(got.reshape(N, *got.shape[2:]), [solver.transpose(t).choi for t in maps])


@pytest.mark.parametrize("d", [2, 3])
def test_lower_layers_on_stacks_match_per_element(d):
    s = _samples(d, 9)
    maps, states, effects = s["maps"], s["states"], s["effects"]
    stack, ws, es = core.stack(maps), core.stack(states), core.stack(effects)
    _close(ch.effect_of_choi(stack.choi), [ch.effect_of_choi(t.choi) for t in maps])
    _close(ch.dual_super(stack.super), [ch.dual_super(t.super) for t in maps])
    _close(ch.apply_super(stack.super, ws.matrix), [t(w.matrix) for t, w in zip(maps, states)])
    _close(core.pair(ws, es), [core.pair(w, e) for w, e in zip(states, effects)])
    _close(ws.total, [w.total for w in states])
    _close(core.compose(stack, stack).choi, [core.compose(t, t).choi for t in maps])
    _close(
        core.evolve_effect(es, stack).matrix,
        [core.evolve_effect(e, t).matrix for e, t in zip(effects, maps)],
    )
    phi = qm.max_entangled(d)
    for slot in (1, 2):
        _close(
            qm.apply_local(phi, stack, slot).matrix,
            [qm.apply_local(phi, t, slot).matrix for t in maps],
        )
    _close([t.choi for t in core.unstack(stack)], [t.choi for t in maps], atol=0.0)


# ---------------------------------------------------------------------------
# a state that is not faithful


def _residual(err):
    return float(re.search(r"residual (\S+)", str(err.value)).group(1))


def test_stacked_transpose_requires_faithful():
    solver = gns.TransposeSolver(faithful.Calibration(joint("maximally-mixed", 2)))
    first, second = qm.random_cp(2, 0), qm.random_cp(2, 1)
    # the zero map solves the system on any state; the first element in
    # stack order that does not is the one named
    zero = core.Transformation(core.quantum(2), np.zeros((4, 4)))
    stack = core.stack([zero, first, second])
    with pytest.raises(NotFaithful) as stacked:
        solver.transpose(stack)
    with pytest.raises(NotFaithful) as single:
        solver.transpose(first)
    assert _residual(stacked) == pytest.approx(_residual(single), rel=1e-12)


# ---------------------------------------------------------------------------
# the norms, local actions and preparation witnesses on stacks


def test_trans_norm_on_a_mixed_stack_matches_per_element():
    # classical maps: CP, zero, CP and CP
    a, b, c = (qm.random_classical_map(3, seed) for seed in (3, 4, 5))
    zero = core.Transformation(a.theory, np.zeros((9, 9)))
    maps = [a, zero, b, c]
    got = core.trans_norm(core.stack(maps))
    want = [core.trans_norm(t) for t in maps]
    assert all(type(x) is float for x in want)
    assert want[1] == 0.0
    _close(got, want, atol=0.0)
    nested = core.trans_norm(core.stack([core.stack(maps[:2]), core.stack(maps[2:])]))
    _close(nested.reshape(-1), want, atol=0.0)
    # a map that is not CP has no closed form, alone or in a stack: a
    # signed classical map, and a quantum difference of CP maps
    signed = np.diag(np.random.default_rng(5).uniform(-1.0, 1.0, 9))
    signed = core.Transformation(a.theory, signed, generalized=True)
    assert not ch.is_psd(signed.choi)
    p, q = qm.random_cp(2, 3), qm.random_cp(2, 4)
    non_cp = core.Transformation(p.theory, p.choi - q.choi, generalized=True)
    for t in (signed, core.stack([a, signed, b]), non_cp, core.stack([p, non_cp, q])):
        with pytest.raises(NoClosedForm):
            core.trans_norm(t)


@pytest.mark.parametrize("d", [2, 3])
def test_norms_on_stacks_match_per_element(d):
    s = _samples(d, 10)
    states, effects = s["states"], s["effects"] + s["generalized"]
    weights = [core.act(t, w) for t, w in zip(s["maps"], states)]
    assert type(core.effect_norm(effects[0])) is float
    assert type(core.weight_norm(weights[0])) is float
    _close(core.effect_norm(core.stack(effects)), [core.effect_norm(e) for e in effects])
    _close(core.weight_norm(core.stack(weights)), [core.weight_norm(w) for w in weights])
    cs = [checks._sample_effect(CLASSICAL["classical-d3"], np.random.default_rng(i), None) for i in range(3)]
    _close(core.effect_norm(core.stack(cs)), [core.effect_norm(e) for e in cs])


@pytest.mark.parametrize("d", [2, 3])
def test_local_action_on_joint_stacks_matches_per_element(d):
    rng = np.random.default_rng(d)
    joints = [qm.random_state(d * d, rng) for _ in range(N)]
    maps = _samples(d, 11)["maps"]
    sups = np.array([t.super for t in maps])
    stacked = core.stack(joints).matrix
    for slot in (1, 2):
        # one map on every joint, and map i on joint i
        _close(
            ch.apply_local_super(sups[0], stacked, slot),
            [ch.apply_local_super(sups[0], j.matrix, slot) for j in joints],
        )
        _close(
            ch.apply_local_super(sups, stacked, slot),
            [ch.apply_local_super(s, j.matrix, slot) for s, j in zip(sups, joints)],
        )
    _close(
        qm.local_state(core.stack(joints), 2).matrix,
        [qm.local_state(j, 2).matrix for j in joints],
    )
    weights = qm.apply_local(core.stack(joints), core.stack(maps), 1)
    _close(
        weights.normalize().matrix,
        [qm.apply_local(j, t, 1).normalize().matrix for j, t in zip(joints, maps)],
    )


def test_joint_stacks_reject_any_bad_element():
    ok = qm.max_entangled(2).matrix
    with pytest.raises(ValueError, match="state must have unit total weight"):
        core.State(core.quantum(4), np.array([ok, 2 * ok]))
    with pytest.raises(ZeroProbability):
        core.Weight(core.quantum(4), np.array([ok, 0 * ok])).normalize()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_builds_match_the_loop_builds(d):
    # exactly: every report's bytes rest on these builds
    _close(infodim.minimal_ic_povm(d).effects.matrix, reference.minimal_ic_povm(d).effects.matrix, atol=0.0)
    for th in (core.quantum(d), core.classical(d)):
        _close(qm.projective_experiment(th).branches.choi, reference.projective_experiment(th).branches.choi, atol=0.0)
    _close(qm.max_entangled(d).matrix, reference.max_entangled(d).matrix, atol=0.0)
    for n in (None, 25):
        exp = qm.random_experiment(d, d, n)
        branches = core.unstack(exp.branches)
        _close(exp.observable().effects.matrix, [b.effect().matrix for b in branches], atol=0.0)
        _close(exp.deterministic_sum().choi, sum(b.choi for b in branches), atol=0.0)


def test_every_observable_and_experiment_of_a_report_is_one_stack():
    # the outcome or branch axis first, then any stack axes, then the matrix
    observables = [(infodim.bell_basis_observable(d), (d * d,) * 3) for d in (2, 3, 4, 5)]
    experiments = []
    for d in (2, 3, 4, 5):
        for th in (core.quantum(d), core.classical(d)):
            observables.append((infodim.ic_observable(th), (th.effect_dim, d, d)))
            experiments.append((qm.projective_experiment(th), (d, d * d, d * d)))
        experiments.append((qm.random_experiment(d, 1), (3, d * d, d * d)))
        experiments.append((qm.random_experiment(d, 1, 25), (3, 25, d * d, d * d)))
    for exp, shape in experiments:
        assert type(exp.branches) is core.Transformation
        assert exp.branches.choi.shape == shape
        observables.append((exp.observable(), (*shape[:-2], exp.branches.theory.d, exp.branches.theory.d)))
    for obs, shape in observables:
        assert type(obs.effects) is core.Effect
        assert obs.effects.matrix.shape == shape
        assert len(obs) == shape[0]


@pytest.mark.parametrize("config", SPECS)
def test_prepare_witness_on_stacks_matches_per_element(config):
    solver = _space(config).solver
    states = _samples(solver.d, 12)["states"]
    witness, probs = faithful.prepare_witness(solver.calibration, core.stack(states))
    singles = [faithful.prepare_witness(solver.calibration, w) for w in states]
    assert all(type(p) is float for _, p in singles)
    _close(witness.choi, [t.choi for t, _ in singles])
    _close(probs, [p for _, p in singles])
    assert witness.generalized == any(t.generalized for t, _ in singles)


def test_stacked_witness_requires_faithful():
    mixed = core.State(core.quantum(2), np.eye(2) / 2)
    calibration = faithful.Calibration(joint("maximally-mixed", 2))
    first, second = qm.random_state(2, 0), qm.random_state(2, 1)
    # the maximally mixed target is reachable on the product state; the
    # first element in stack order that is not is the one named
    with pytest.raises(NotFaithful) as stacked:
        faithful.prepare_witness(calibration, core.stack([mixed, first, second]))
    with pytest.raises(NotFaithful) as single:
        faithful.prepare_witness(calibration, first)
    assert _residual(stacked) == pytest.approx(_residual(single), rel=1e-12)
    faithful.prepare_witness(calibration, mixed)


# ---------------------------------------------------------------------------
# the spanning family as one stack, and the equivalences decided on it


@pytest.mark.parametrize("backend", core.BACKENDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_spanning_states_unstack_to_the_separate_states(backend, d):
    th = core.Theory(backend, d)
    # one cached array that every caller shares, so no caller may write it
    assert not core.spanning_states(th).matrix.flags.writeable
    got, want = core.unstack(core.spanning_states(th)), reference.spanning_states(th)
    assert len(got) == len(want) == th.effect_dim
    for g, w in zip(got, want):
        assert (type(g), g.theory, g.generalized) == (type(w), w.theory, w.generalized)
        assert g.matrix.dtype == w.matrix.dtype and g.matrix.shape == w.matrix.shape
        assert g.matrix.tobytes() == w.matrix.tobytes()


def _hermitian_shift(th, eps):
    """The Choi matrix of rho -> eps Tr(rho) Z, Z = diag(1, -1, 0, ...):
    it moves no probability, and every conditional state by eps in its
    largest entry (diagonal, so classical maps stay classical)."""
    z = np.zeros(th.d)
    z[:2] = (1.0, -1.0)
    sup = np.outer(np.diag(z).reshape(-1), np.eye(th.d).reshape(-1)).astype(complex)
    return eps * ch.super_to_choi(sup)


def _equivalence_pairs(backend, d):
    """(a, b, informationally, dynamically equivalent, or None where
    only the oracle decides)."""
    th = core.Theory(backend, d)
    sample = qm.random_classical_map if backend == "classical" else qm.random_cp
    maps = core.unstack(sample(d, 20 + d, 6))
    ident = core.identity(th)
    pairs = [(a, b, None, None) for a, b in zip(maps[::2], maps[1::2])]
    pairs += [(a, a, True, True) for a in maps[:2]]
    # same conditional states, half the probability
    pairs += [(a, core.scale(0.5, a), False, True) for a in maps[:2]]
    # the masked branch: b sends |1> to |0>, where a = P0 . P0 has
    # probability 0; on every other spanning state both leave |0><0|
    e0, e1 = np.eye(d)[0], np.eye(d)[1]
    a = qm.projector_map(th, np.outer(e0, e0))
    b = qm.kraus_to_choi(th, [np.outer(e0, e0), np.outer(e0, e1)])
    pairs.append((a, b, False, True))
    # the same with a leak of probability 1e-12 (below PROB_TOL) on |1>,
    # whose conditional state |1><1| only the mask leaves out
    leak = qm.kraus_to_choi(th, [np.outer(e0, e0), 1e-6 * np.outer(e1, e1)])
    pairs.append((leak, b, False, True))
    # against the identity it differs on (|0>+|1>)/sqrt2; the classical
    # family is the vertices alone, where every other state is masked
    pairs.append((a, ident, False, backend == "classical"))
    for factor, holds in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
        eps = factor * PROB_TOL
        # every probability moves by eps
        shifted = core.Transformation(th, (1 + eps) * ident.choi, generalized=True)
        pairs.append((ident, shifted, holds, True))
        # every conditional state moves by eps, no probability does
        moved = core.Transformation(th, ident.choi + _hermitian_shift(th, eps), generalized=True)
        pairs.append((ident, moved, True, holds))
    return pairs


@pytest.mark.parametrize("backend", core.BACKENDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_equivalences_on_the_stack_match_the_per_state_oracles(backend, d):
    for a, b, info, dyn in _equivalence_pairs(backend, d):
        got = (core.informational_equiv(a, b), core.dynamical_equiv(a, b))
        assert got == (reference.informational_equiv(a, b), reference.dynamical_equiv(a, b))
        assert all(type(x) is bool for x in got)
        for want, value in zip((info, dyn), got):
            assert want is None or value == want
