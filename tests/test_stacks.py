"""Stacks of samples: every stack-aware map equals its per-element
calls, and the stacked gns/born checks draw the same samples, in the
same order, as the per-sample loops they replaced."""

import re
from dataclasses import replace

import numpy as np
import pytest

from opcal import channels as ch
from opcal import cli, core, gns
from opcal import quantum as qm
from opcal.errors import NotFaithful


def _isotropic(d, p):
    omega = qm.max_entangled(d).matrix
    phi = (1.0 - p) * omega + p * np.eye(d * d) / d**2
    return cli.validate_spec(cli.TheorySpec(d=d, phi_override=phi))


SPECS = {
    "quantum-d2": cli.TheorySpec(d=2),
    "quantum-d3": cli.TheorySpec(d=3),
    "isotropic-d3-p0.2": _isotropic(3, 0.2),
}


# ---------------------------------------------------------------------------
# the per-sample check bodies that the stacked checks replaced


def _adjoint_pairing_per_sample(ctx, rng, tol):
    spec = ctx.spec
    solver = ctx.space.solver
    worst = 0.0
    for _ in range(cli.SAMPLES):
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
    for _ in range(cli.SAMPLES):
        w = qm.random_state(spec.d, rng)
        b = qm.random_effect(spec.d, rng)
        t = qm.random_cp(spec.d, rng)
        lhs = gns.born_triple(space, w, b, t)
        rhs = core.pair(w, core.evolve_effect(b, t))
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"max_residual": worst}


SAMPLERS = ("random_cp", "random_state", "random_effect", "random_generalized_effect")


def _run_recording_draws(monkeypatch, ctx, name, fn):
    """Run a check body on its own rng; return its result and the
    matrices its samplers returned, in call order."""
    draws = []

    def recording(sampler):
        def wrapped(*args, **kwargs):
            out = sampler(*args, **kwargs)
            draws.append(out.choi if hasattr(out, "choi") else out.matrix)
            return out

        return wrapped

    with monkeypatch.context() as patch:
        for sampler in SAMPLERS:
            patch.setattr(qm, sampler, recording(getattr(qm, sampler)))
        rng = np.random.default_rng(cli.check_seed(ctx.spec.seed, name))
        ok, values = fn(ctx, rng, ctx.spec.tol)
    return ok, values, draws


@pytest.mark.parametrize("config", SPECS)
@pytest.mark.parametrize(
    "name, stacked, per_sample",
    [
        ("gns.adjoint_pairing", cli._check_adjoint_pairing, _adjoint_pairing_per_sample),
        ("born.triple", cli._check_born_triple, _born_triple_per_sample),
    ],
    ids=["adjoint_pairing", "born_triple"],
)
def test_stacked_check_matches_per_sample_oracle(monkeypatch, config, name, stacked, per_sample):
    for seed in (1, 2, 3):
        ctx = cli.RunContext(replace(SPECS[config], seed=seed))
        ok, values, draws = _run_recording_draws(monkeypatch, ctx, name, stacked)
        want_ok, want, want_draws = _run_recording_draws(monkeypatch, ctx, name, per_sample)
        assert ok == want_ok
        assert abs(values["max_residual"] - want["max_residual"]) <= 1e-13
        assert len(draws) == len(want_draws) == 3 * cli.SAMPLES
        for got, expected in zip(draws, want_draws):
            assert np.array_equal(got, expected)


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
    solver = gns.TransposeSolver(qm.product_state(mixed, mixed))
    first, second = qm.random_cp(2, 0), qm.random_cp(2, 1)
    # the zero map solves the system on any state; the first element in
    # stack order that does not is the one named
    stack = core.stack([core.zero_map(core.quantum(2)), first, second])
    with pytest.raises(NotFaithful) as stacked:
        solver.transpose(stack)
    with pytest.raises(NotFaithful) as single:
        solver.transpose(first)
    assert _residual(stacked) == pytest.approx(_residual(single), rel=1e-12)
