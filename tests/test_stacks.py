"""Stacks of samples: the samplers draw their samples' rng calls in the
fewest generator calls and build per stack the same matrices, bit for
bit, as the one-sample formulas they replaced; every stack-aware map
equals its per-element calls; and the stacked checks draw the same
samples, in the same order, as the per-sample loops they replaced."""

import re
from dataclasses import replace

import numpy as np
import pytest

from opcal import channels as ch
from opcal import checks, cli, core, faithful, gns
from opcal import quantum as qm
from opcal.errors import NotFaithful, ZeroProbability
import reference
from reference import product_state


def _isotropic(d, p):
    omega = qm.max_entangled(d).matrix
    phi = (1.0 - p) * omega + p * np.eye(d * d) / d**2
    return cli.validate_spec(cli.TheorySpec(d=d, phi_override=phi))


SPECS = {
    "quantum-d2": cli.TheorySpec(d=2),
    "quantum-d3": cli.TheorySpec(d=3),
    "isotropic-d3-p0.2": _isotropic(3, 0.2),
}
CLASSICAL = {
    "classical-d3": cli.TheorySpec(backend="classical", d=3),
    "classical-d4": cli.TheorySpec(backend="classical", d=4),
}
# the specs on which gns.kraus_transpose applies
CANONICAL = {name: spec for name, spec in SPECS.items() if spec.phi_override is None}


# ---------------------------------------------------------------------------
# the per-sample check bodies that the stacked checks replaced


def _adjoint_pairing_per_sample(ctx, rng, tol):
    spec = ctx.spec
    solver = ctx.space.solver
    worst = 0.0
    for _ in range(checks.SAMPLES):
        a = qm.random_cp(spec.d, rng)
        b = gns.jordan_lift(qm.random_generalized_effect(spec.d, rng))
        c = gns.jordan_lift(qm.random_generalized_effect(spec.d, rng))
        lhs = gns._inner_tt(solver, b, core.compose(a, c))
        adj = gns.adjoint_map(solver, a)
        rhs = gns._inner_tt(solver, core.compose(adj, b), c)
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"max_residual": worst}


def _born_triple_per_sample(ctx, rng, tol):
    spec = ctx.spec
    space = ctx.space
    worst = 0.0
    for _ in range(checks.SAMPLES):
        w = qm.random_state(spec.d, rng)
        b = qm.random_effect(spec.d, rng)
        t = qm.random_cp(spec.d, rng)
        lhs = gns.born_triple(space, w, b, t)
        rhs = core.pair(w, core.evolve_effect(b, t))
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"max_residual": worst}


def _effect_norm_per_sample(ctx, rng, tol):
    spec = ctx.spec
    worst = 0.0
    for _ in range(checks.SAMPLES):
        w = checks._sample_state(spec, rng)
        e = checks._sample_effect(spec, rng)
        p = core.pair(w, e)
        norm = core.effect_norm(e)
        worst = max(worst, abs(p) - norm, norm - 1.0)
    return worst <= tol, {"max_violation": worst}


def _weight_norm_per_sample(ctx, rng, tol):
    spec = ctx.spec
    worst = 0.0
    for _ in range(checks.SAMPLES):
        w = core.act(checks._sample_map(spec, rng), checks._sample_state(spec, rng))
        norm = core.weight_norm(w)
        worst = max(worst, w.total - norm, norm - 1.0)
    return worst <= tol, {"max_violation": worst}


def _submultiplicative_per_sample(ctx, rng, tol):
    spec = ctx.spec
    worst = -np.inf
    for _ in range(checks.SAMPLES):
        a = checks._sample_map(spec, rng)
        b = checks._sample_map(spec, rng)
        lhs = core.trans_norm(core.compose(b, a))
        rhs = core.trans_norm(b) * core.trans_norm(a)
        worst = max(worst, lhs - rhs)
    return worst <= tol, {"max_violation": float(worst)}


def _contraction_per_sample(ctx, rng, tol):
    spec = ctx.spec
    worst = -np.inf
    for _ in range(checks.SAMPLES):
        worst = max(worst, core.trans_norm(checks._sample_map(spec, rng)) - 1.0)
    return worst <= tol, {"max_violation": float(worst)}


def _preparational_per_sample(ctx, rng, tol):
    spec = ctx.spec
    phi = ctx.phi
    if ctx.solver.rank != spec.d**4:
        return False, {}
    system = ctx.solver.witness
    worst, pmin = 0.0, np.inf
    for _ in range(5):
        target = qm.random_state(spec.d, rng)
        witness, p = faithful.prepare_witness(system, target)
        _, cond = qm.condition_local(phi, witness, 1)
        out = qm.local_state(cond, 2).matrix
        worst = max(worst, float(np.max(np.abs(out - target.matrix))))
        pmin = min(pmin, p)
    return worst <= tol and pmin > 0, {"max_residual": worst, "min_probability": pmin}


def _no_signaling_per_sample(ctx, rng, tol):
    # the residual of each sample on its own, as signaling_residual takes it
    spec = ctx.spec
    worst = 0.0
    for _ in range(checks.SAMPLES):
        joint = qm.random_joint_state(spec.d, rng)
        exp = qm.random_experiment(spec.d, rng)
        exp.check_complete()
        after = qm.apply_local(joint, exp.deterministic_sum(), 1)
        lhs = ch.partial_trace(after.matrix, (joint.d, joint.d), 1)
        worst = max(worst, float(np.max(np.abs(lhs - qm.local_state(joint, 2).matrix))))
    phi = qm.max_entangled(spec.d)
    p0 = np.zeros((spec.d, spec.d))
    p0[0, 0] = 1.0
    branch = qm.projector_map(core.quantum(spec.d), p0)
    _, cond = qm.condition_local(phi, branch, 1)
    dist = ch.trace_distance(qm.local_state(cond, 2).matrix, qm.local_state(phi, 2).matrix)
    return worst <= tol and dist > 0.1, {"max_violation": worst, "witness_distance": dist}


def _transpose_residual_per_sample(ctx, rng, tol):
    worst = 0.0
    for _ in range(checks.SAMPLES):
        t = qm.random_cp(ctx.spec.d, rng)
        lhs = qm.apply_local(ctx.phi, t, 1).matrix
        rhs = qm.apply_local(ctx.phi, ctx.solver.transpose(t), 2).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= tol, {"max_residual": worst}


def _kraus_transpose_per_sample(ctx, rng, tol):
    if ctx.spec.phi_override is not None:
        return True, {}
    worst = 0.0
    for _ in range(5):
        t = reference.sample_kraus_contraction(ctx.spec.d, rng)
        worst = max(worst, float(np.max(np.abs(ctx.solver.transpose(t).choi - ch.swap(t.choi)))))
    return worst <= tol, {"max_residual": worst}


def _cstar_per_sample(ctx, rng, tol):
    worst = 0.0
    for _ in range(checks.SAMPLES):
        lhs, rhs = gns.cstar_check(ctx.space, qm.random_cp(ctx.spec.d, rng))
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"max_residual": worst}


SAMPLERS = (
    "random_cp",
    "random_state",
    "random_effect",
    "random_generalized_effect",
    "random_classical_state",
    "random_classical_map",
    "classical_effect",
    "random_joint_state",
    "random_experiment",
)


def _drawn(out):
    if isinstance(out, core.Experiment):
        return np.array([b.choi for b in out.branches])
    return out.choi if hasattr(out, "choi") else out.matrix


def _unstacked(out):
    """The matrices of each sample of a stack, as `_drawn` gives them."""
    if isinstance(out, core.Experiment):
        return list(np.stack([b.choi for b in out.branches], axis=1))
    return list(_drawn(out))


def _run_recording_draws(monkeypatch, ctx, name, fn, stacked):
    """Run a check body on its own rng; return its result and the
    matrices it drew, sample by sample in call order.  A stacked body's
    are read off the stacks checks._draw returns; a per-sample body's are
    what its outermost sampler calls returned."""
    draws = []

    def recording_draw(draw):
        def wrapped(*args):
            stacks = draw(*args)
            draws.extend(x for sample in zip(*map(_unstacked, stacks)) for x in sample)
            return stacks

        return wrapped

    depth = [0]

    def recording(sampler):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                out = sampler(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                draws.append(_drawn(out))
            return out

        return wrapped

    with monkeypatch.context() as patch:
        if stacked:
            patch.setattr(checks, "_draw", recording_draw(checks._draw))
        else:
            for sampler in SAMPLERS:
                patch.setattr(qm, sampler, recording(getattr(qm, sampler)))
            patch.setattr(reference, "sample_kraus_contraction", recording(reference.sample_kraus_contraction))
        rng = np.random.default_rng(cli.check_seed(ctx.spec.seed, name))
        ok, values = fn(ctx, rng, ctx.spec.tol)
    return ok, values, draws


# (id, check, stacked body, per-sample body, configurations, draws per
# run)
ORACLES = (
    ("adjoint_pairing", "gns.adjoint_pairing", checks._check_adjoint_pairing, _adjoint_pairing_per_sample, SPECS, 3 * checks.SAMPLES),
    ("born_triple", "born.triple", checks._check_born_triple, _born_triple_per_sample, SPECS, 3 * checks.SAMPLES),
    ("effect_bound", "norms.effect_bound", checks._check_effect_norm, _effect_norm_per_sample, {**SPECS, **CLASSICAL}, 2 * checks.SAMPLES),
    ("weight_bound", "norms.weight_bound", checks._check_weight_norm, _weight_norm_per_sample, {**SPECS, **CLASSICAL}, 2 * checks.SAMPLES),
    ("submultiplicative", "norms.submultiplicative", checks._check_submultiplicative, _submultiplicative_per_sample, {**SPECS, **CLASSICAL}, 2 * checks.SAMPLES),
    ("contraction", "norms.contraction", checks._check_contraction, _contraction_per_sample, {**SPECS, **CLASSICAL}, checks.SAMPLES),
    ("preparational", "faithful.preparational", checks._check_preparational, _preparational_per_sample, SPECS, 5),
    ("no_signaling", "born.no_signaling", checks._check_no_signaling, _no_signaling_per_sample, SPECS, 2 * checks.SAMPLES),
    ("transpose_residual", "gns.transpose_residual", checks._check_transpose_residual, _transpose_residual_per_sample, SPECS, checks.SAMPLES),
    ("kraus_transpose", "gns.kraus_transpose", checks._check_kraus_transpose, _kraus_transpose_per_sample, CANONICAL, 5),
    ("cstar", "gns.cstar", checks._check_cstar, _cstar_per_sample, SPECS, checks.SAMPLES),
)


@pytest.mark.parametrize(
    "name, stacked, per_sample, spec, n_draws",
    [
        pytest.param(name, stacked, per_sample, specs[config], n, id=f"{short}-{config}")
        for short, name, stacked, per_sample, specs, n in ORACLES
        for config in specs
    ],
)
def test_stacked_check_matches_per_sample_oracle(monkeypatch, name, stacked, per_sample, spec, n_draws):
    for seed in (1, 2, 3):
        ctx = cli.RunContext(replace(spec, seed=seed))
        ok, values, draws = _run_recording_draws(monkeypatch, ctx, name, stacked, True)
        want_ok, want, want_draws = _run_recording_draws(monkeypatch, ctx, name, per_sample, False)
        assert ok == want_ok
        assert values.keys() == want.keys()
        for key in want:
            assert abs(values[key] - want[key]) <= 1e-13, key
        assert len(draws) == len(want_draws) == n_draws
        for got, expected in zip(draws, want_draws):
            assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# the samplers: drawn per sample, built per stack


SAMPLER_SPECS = {
    "quantum-d2": cli.TheorySpec(d=2),
    "quantum-d3": cli.TheorySpec(d=3),
    "quantum-d4": cli.TheorySpec(d=4),
    "isotropic-d3-p0.2": SPECS["isotropic-d3-p0.2"],
    **CLASSICAL,
}
# cli sampler -> its one-sample oracle on each backend
SAMPLE_ORACLES = {
    "state": {"quantum": reference.sample_state, "classical": reference.sample_classical_state},
    "map": {"quantum": reference.sample_cp, "classical": reference.sample_classical_map},
    "effect": {"quantum": reference.sample_effect, "classical": reference.sample_classical_effect},
    "generalized_effect": {"quantum": reference.sample_generalized_effect},
    "joint_state": {"quantum": reference.sample_joint_state},
    "experiment": {"quantum": reference.sample_experiment},
    "kraus_contraction": {"quantum": reference.sample_kraus_contraction},
}
# every sampler alone, and interleaved as the checks draw them
# (gns.adjoint_pairing, born.triple, born.no_signaling; the norms checks)
DRAW_ORDERS = {
    "quantum": [(k,) for k in SAMPLE_ORACLES]
    + [("map", "generalized_effect", "generalized_effect"), ("state", "effect", "map"), ("joint_state", "experiment")],
    "classical": [("state",), ("map",), ("effect",), ("state", "effect"), ("map", "state"), ("map", "map")],
}


@pytest.mark.parametrize("config", SAMPLER_SPECS)
def test_samplers_match_one_sample_oracles(config):
    for seed in (1, 2, 3):
        spec = replace(SAMPLER_SPECS[config], seed=seed)
        ctx = cli.RunContext(spec)
        for order in DRAW_ORDERS[spec.backend]:
            samplers = [getattr(checks, f"_sample_{k}") for k in order]
            oracles = [SAMPLE_ORACLES[k][spec.backend] for k in order]
            # one stack per sampler
            rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            stacks = checks._draw(ctx, rng, checks.SAMPLES, *samplers)
            got = [x for sample in zip(*map(_unstacked, stacks)) for x in sample]
            want = [_drawn(oracle(spec.d, want_rng)) for _ in range(checks.SAMPLES) for oracle in oracles]
            assert len(got) == len(want) == checks.SAMPLES * len(order)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), order
            assert rng.bit_generator.state == want_rng.bit_generator.state
            # one sample per call
            rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for sampler, oracle in zip(samplers, oracles):
                assert np.array_equal(_drawn(sampler(spec, rng)), _drawn(oracle(spec.d, want_rng)))
            assert rng.bit_generator.state == want_rng.bit_generator.state


def _draw_calls(monkeypatch, spec):
    """The distinct (samplers, n) that the checks of one `all` run pass
    to checks._draw, in run order."""
    seen = {}
    draw = checks._draw

    def recording(ctx, rng, n, *samplers):
        seen[samplers, n] = None
        return draw(ctx, rng, n, *samplers)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_draw", recording)
        cli.run_suite(spec, "all")
    return list(seen)


@pytest.mark.parametrize(
    "config", ["quantum-d2", "quantum-d3", "quantum-d4", "classical-d3", "classical-d4"]
)
def test_executor_matches_one_call_per_recipe_entry(monkeypatch, config):
    # every run of Gaussian calls merged into one call yields the values
    # of one call per recipe entry, and leaves the generator in the same
    # state; the classical recipes hold no Gaussian call
    spec = SAMPLER_SPECS[config]
    calls = _draw_calls(monkeypatch, spec)
    assert len(calls) == (4 if spec.backend == "classical" else 11)
    for samplers, n in calls:
        recipe = sum((sampler.recipe(spec) for sampler in samplers), ())
        for count in (n, 1):
            for seed in (1, 2):
                rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = qm._execute(rng, recipe, count)
                want = reference.execute(want_rng, recipe, count)
                assert len(got) == len(want) == len(recipe)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and np.array_equal(g, w), recipe
                assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 4])
def test_samplers_on_a_seed_match_one_sample_oracles(d):
    ref = reference
    for seed in (1, 2, 3):
        rng = lambda: np.random.default_rng(seed)  # noqa: E731
        pairs = (
            (qm.random_state(d, seed), ref.sample_state(d, rng())),
            (qm.random_joint_state(d, seed), ref.sample_joint_state(d, rng())),
            (qm.random_effect(d, seed), ref.sample_effect(d, rng())),
            (qm.random_generalized_effect(d, seed), ref.sample_generalized_effect(d, rng())),
            (qm.random_cp(d, seed), ref.sample_cp(d, rng())),
            (qm.random_cp(d, seed, trace_preserving=True), ref.sample_cp(d, rng(), trace_preserving=True)),
            (qm.random_experiment(d, seed), ref.sample_experiment(d, rng())),
            (qm.random_classical_state(d, seed), ref.sample_classical_state(d, rng())),
            (qm.random_classical_map(d, seed), ref.sample_classical_map(d, rng())),
        )
        for got, want in pairs:
            assert type(got) is type(want)
            assert np.array_equal(_drawn(got), _drawn(want))
        assert len(qm.random_experiment(d, seed).branches) == 3


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
    with pytest.raises(ZeroProbability, match=r"outcome probability 0\.0 below"):
        core.condition(core.stack([s, up]), branch)


# ---------------------------------------------------------------------------
# each map on a stack against its per-element calls


SPACES = {}


def _space(config):
    if config not in SPACES:
        SPACES[config] = gns.gns_space(gns.TransposeSolver(SPECS[config].phi()))
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
    psd = [w.matrix for w in states]
    _close(ch.herm_sqrt(np.array(psd)), [ch.herm_sqrt(m) for m in psd])
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


def test_stacked_state_checks_every_element():
    th = core.quantum(2)
    ok = np.eye(2) / 2
    with pytest.raises(ValueError):
        core.State(th, np.array([ok, 2 * ok]))


# ---------------------------------------------------------------------------
# a state that is not faithful


def _residual(err):
    return float(re.search(r"residual (\S+)", str(err.value)).group(1))


def test_stacked_transpose_requires_faithful():
    mixed = core.State(core.quantum(2), np.eye(2) / 2)
    solver = gns.TransposeSolver(product_state(mixed, mixed))
    first, second = qm.random_cp(2, 0), qm.random_cp(2, 1)
    # the zero map solves the system on any state; the first element in
    # stack order that does not is the one named
    stack = core.stack([core.zero_map(core.quantum(2)), first, second])
    with pytest.raises(NotFaithful) as stacked:
        solver.transpose(stack)
    with pytest.raises(NotFaithful) as single:
        solver.transpose(first)
    assert _residual(stacked) == pytest.approx(_residual(single), rel=1e-12)


# ---------------------------------------------------------------------------
# the norms, local actions and preparation witnesses on stacks


def test_trans_norm_on_a_mixed_stack_matches_per_element():
    th = core.quantum(2)
    a, b = qm.random_cp(2, 3), qm.random_cp(2, 4)
    non_cp = core.Transformation(th, a.choi - b.choi, generalized=True)
    maps = [a, core.zero_map(th), non_cp, b]
    got = core.trans_norm(core.stack(maps))
    want = [core.trans_norm(t) for t in maps]
    assert all(type(x) is float for x in want)
    assert want[1] == 0.0 and want[2] > 0.0
    _close(got, want, atol=0.0)
    nested = core.trans_norm(core.stack([core.stack(maps[:2]), core.stack(maps[2:])]))
    _close(nested.reshape(-1), want, atol=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_norms_on_stacks_match_per_element(d):
    s = _samples(d, 10)
    states, effects = s["states"], s["effects"] + s["generalized"]
    weights = [core.act(t, w) for t, w in zip(s["maps"], states)]
    assert type(core.effect_norm(effects[0])) is float
    assert type(core.weight_norm(weights[0])) is float
    _close(core.effect_norm(core.stack(effects)), [core.effect_norm(e) for e in effects])
    _close(core.weight_norm(core.stack(weights)), [core.weight_norm(w) for w in weights])
    cs = [checks._sample_effect(CLASSICAL["classical-d3"], np.random.default_rng(i)) for i in range(3)]
    _close(core.effect_norm(core.stack(cs)), [core.effect_norm(e) for e in cs])


@pytest.mark.parametrize("d", [2, 3])
def test_local_action_on_joint_stacks_matches_per_element(d):
    rng = np.random.default_rng(d)
    joints = [qm.random_joint_state(d, rng) for _ in range(N)]
    maps = _samples(d, 11)["maps"]
    sups = np.array([t.super for t in maps])
    stacked = core.stack(joints).matrix
    for slot in (1, 2):
        # one map on every joint, and map i on joint i
        _close(
            ch.apply_local_super(sups[0], stacked, slot, d),
            [ch.apply_local_super(sups[0], j.matrix, slot, d) for j in joints],
        )
        _close(
            ch.apply_local_super(sups, stacked, slot, d),
            [ch.apply_local_super(s, j.matrix, slot, d) for s, j in zip(sups, joints)],
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
    with pytest.raises(ValueError, match="unit trace"):
        qm.BipartiteState(2, np.array([ok, 2 * ok]))
    with pytest.raises(ZeroProbability):
        qm.BipartiteWeight(2, np.array([ok, 0 * ok])).normalize()


def test_experiments_stack_branchwise():
    # stacked draws build one experiment whose branch k is the stack of
    # every sample's branch k
    draws = qm._execute(np.random.default_rng(0), qm._experiment_recipe(2), 3)
    exps = [qm.random_experiment(2, qm.Draws(x[i] for x in draws)) for i in range(3)]
    stacked = qm.random_experiment(2, draws)
    assert len(stacked.branches) == len(exps[0].branches) == 3
    for k, branch in enumerate(stacked.branches):
        _close(branch.choi, [e.branches[k].choi for e in exps], atol=0.0)


@pytest.mark.parametrize("config", SPECS)
def test_prepare_witness_on_stacks_matches_per_element(config):
    system = _space(config).solver.witness
    states = _samples(system.phi.d, 12)["states"]
    witness, probs = faithful.prepare_witness(system, core.stack(states))
    singles = [faithful.prepare_witness(system, w) for w in states]
    assert all(type(p) is float for _, p in singles)
    _close(witness.choi, [t.choi for t, _ in singles])
    _close(probs, [p for _, p in singles])
    assert witness.generalized == any(t.generalized for t, _ in singles)


def test_stacked_witness_requires_faithful():
    mixed = core.State(core.quantum(2), np.eye(2) / 2)
    system = faithful.witness_system(product_state(mixed, mixed))
    first, second = qm.random_state(2, 0), qm.random_state(2, 1)
    # the maximally mixed target is reachable on the product state; the
    # first element in stack order that is not is the one named
    with pytest.raises(NotFaithful) as stacked:
        faithful.prepare_witness(system, core.stack([mixed, first, second]))
    with pytest.raises(NotFaithful) as single:
        faithful.prepare_witness(system, first)
    assert _residual(stacked) == pytest.approx(_residual(single), rel=1e-12)
    faithful.prepare_witness(system, mixed)
