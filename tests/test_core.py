"""States, effects, transformations, conditioning, and the three norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opcal import cli, core
from opcal import quantum as qm
from opcal.basis import to_coords
from opcal.errors import BackendMismatch, CompletenessError, NoClosedForm, NotCoexistent, ZeroProbability
from reference import spanning_vectors

SZ = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def test_theory_validation():
    with pytest.raises(ValueError):
        core.Theory("foo", 2)
    with pytest.raises(ValueError):
        core.Theory("quantum", 0)
    assert core.quantum(3).effect_dim == 9
    assert core.classical(3).effect_dim == 3


@pytest.mark.parametrize("backend", ["quantum", "classical"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_effect_dim_is_the_size_of_the_basis(backend, d):
    th = core.Theory(backend, d)
    assert th.effect_dim == len(th.basis())


def test_condition_projector_oracle():
    th = core.quantum(2)
    mixed = core.State(th, np.eye(2) / 2)
    p, cond = core.condition(mixed, qm.projector_map(th, P0))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert_allclose(cond.matrix, P0, atol=1e-12, rtol=0)


def test_zero_probability_raises():
    th = core.quantum(2)
    pure0 = core.State(th, P0)
    with pytest.raises(ZeroProbability):
        core.condition(pure0, qm.projector_map(th, P1))


def test_pair_matches_action():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = qm.random_cp(2, rng)
        w = qm.random_state(2, rng)
        assert core.pair(w, t.effect()) == pytest.approx(
            core.act(t, w).total, abs=1e-12
        )


def test_backend_mismatch():
    w = qm.random_state(2, 0)
    e = qm.classical_effect([1.0, 0.0])
    with pytest.raises(BackendMismatch):
        core.pair(w, e)


def test_unitary_informationally_but_not_dynamically_trivial():
    th = core.quantum(2)
    t = qm.kraus_to_choi(th, [SZ])
    assert core.informational_equiv(t, core.identity(th))
    assert not core.dynamical_equiv(t, core.identity(th))
    assert core.dynamical_equiv(t, t)


@pytest.mark.parametrize("backend", core.BACKENDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_identity_fixes_the_spanning_states(backend, d):
    th = core.Theory(backend, d)
    states = core.spanning_states(th)
    assert np.array_equal(core.act(core.identity(th), states).matrix, states.matrix)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_a_classical_run_builds_only_diagonal_objects(monkeypatch, d):
    # the classical backend is the diagonal restriction of the quantum
    # one, so every state, weight, effect and transformation that a
    # classical run builds, constructors hooked, is classical and diagonal
    built = []
    for cls in (core.Weight, core.Effect, core.Transformation):

        def post_init(self, init=cls.__post_init__):
            init(self)
            built.append(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)
    cli.run_suite(cli.TheorySpec(backend="classical", d=d), "all")
    assert {type(x) for x in built} == {core.State, core.Weight, core.Effect, core.Transformation}
    for x in built:
        m = x.choi if isinstance(x, core.Transformation) else x.matrix
        off = m[..., ~np.eye(m.shape[-1], dtype=bool)]
        assert x.theory.backend == "classical" and not off.any(), (type(x).__name__, x.theory)


def test_experiment_completeness():
    th = core.quantum(2)
    exp = qm.projective_experiment(th)
    obs = exp.observable()
    assert len(obs) == 2
    with pytest.raises(CompletenessError):
        core.Experiment(core.Transformation(th, exp.branches.choi[:1]))
    # a branch short by 5e-8: the experiment and its observable are held
    # to one cutoff and raise one error, when each is built
    short = exp.branches.choi.copy()
    short[0] *= 1 - 5e-8
    with pytest.raises(CompletenessError):
        core.Experiment(core.Transformation(th, short))
    with pytest.raises(CompletenessError):
        core.Observable(core.Transformation(th, short).effect())
    # a stack of experiments is checked sample by sample: one sample's
    # first branch short by 5e-8 (at least 1.2e-8 off the unit effect)
    stacked = qm.random_experiment(2, 7, 3)
    core.Experiment(stacked.branches)
    short = stacked.branches.choi.copy()
    short[0, 1] *= 1 - 5e-8
    with pytest.raises(CompletenessError):
        core.Experiment(core.Transformation(th, short))


def test_evolve_effect_is_heisenberg():
    rng = np.random.default_rng(9)
    for _ in range(10):
        t = qm.random_cp(2, rng)
        e = qm.random_effect(2, rng)
        w = qm.random_state(2, rng)
        lhs = core.pair(w, core.evolve_effect(e, t))
        rhs = float(np.real(np.trace(e.matrix @ t(w.matrix))))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_compose_order():
    th = core.quantum(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    flip = qm.kraus_to_choi(th, [sx])
    keep0 = qm.projector_map(th, P0)
    # keep0 after flip: |0> -> |1> -> annihilated
    t = core.compose(keep0, flip)
    assert core.act(t, core.State(th, P0)).total == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# norms


def test_effect_norm_oracles():
    th = core.quantum(2)
    assert core.effect_norm(core.Effect(th, SZ, generalized=True)) == pytest.approx(1.0)
    assert core.effect_norm(core.Effect(th, 0.3 * np.eye(2))) == pytest.approx(0.3)
    signed = core.Effect(core.classical(2), np.diag([0.2, -0.9]), generalized=True)
    assert core.effect_norm(signed) == pytest.approx(0.9)
    # classical effects: the largest |entry| of the outcome vector
    rng = np.random.default_rng(103)
    for d in (2, 3, 4, 5):
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, d)
            e = core.Effect(core.classical(d), np.diag(v), generalized=True)
            assert core.effect_norm(e) == np.max(np.abs(v))


def test_weight_norm_is_trace_norm():
    th = core.quantum(2)
    m = np.diag([0.7, -0.2]).astype(complex)
    w = core.Weight(th, m, generalized=True)
    assert core.weight_norm(w) == pytest.approx(0.9)
    wc = core.Weight(core.classical(3), np.diag([0.5, -0.25, 0.1]), generalized=True)
    assert core.weight_norm(wc) == pytest.approx(0.85)
    # classical weights: the l1 norm of the outcome vector
    rng = np.random.default_rng(112)
    for d in (2, 3, 4, 5):
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, d)
            wc = core.Weight(core.classical(d), np.diag(v), generalized=True)
            assert core.weight_norm(wc) == pytest.approx(np.sum(np.abs(v)), abs=1e-12)


def test_trans_norm_cp_exact():
    th = core.quantum(2)
    assert core.trans_norm(core.identity(th)) == pytest.approx(1.0, abs=1e-12)
    assert core.trans_norm(core.scale(0.6, core.identity(th))) == pytest.approx(
        0.6, abs=1e-12
    )
    assert core.trans_norm(core.Transformation(th, np.zeros((4, 4)))) == 0.0
    # an experiment's deterministic sum is trace preserving
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert core.trans_norm(
            qm.random_experiment(2, rng).deterministic_sum()
        ) == pytest.approx(1.0, abs=1e-10)


def test_trans_norm_generalized_oracle():
    # t(rho) = Z rho Z - rho is neither CP nor diagonal in its Choi
    # matrix, so no closed form gives its norm
    th = core.quantum(2)
    tz = qm.kraus_to_choi(th, [SZ])
    t = core.Transformation(
        th, tz.choi - core.identity(th).choi, generalized=True
    )
    with pytest.raises(NoClosedForm):
        core.trans_norm(t)


def test_classical_trans_norm():
    m = np.array([[0.5, 0.1], [0.2, 0.3]])
    t = qm.classical_map(m)
    assert core.trans_norm(t) == pytest.approx(0.7)
    # substochastic matrices: the largest column sum; a signed
    # (generalized) one is not CP, so no closed form gives its norm
    rng = np.random.default_rng(162)
    for d in (2, 3, 4, 5):
        for _ in range(10):
            t = qm.random_classical_map(d, rng)
            m = np.real(np.diag(t.choi)).reshape(d, d).T  # m[i, j] at j*d + i
            want = np.max(np.sum(np.abs(m), axis=0))
            assert core.trans_norm(t) == pytest.approx(want, abs=1e-12)
            signed = np.diag(rng.uniform(-1.0, 1.0, d * d))
            signed[0, 0] = -0.5  # at least one negative Choi eigenvalue
            with pytest.raises(NoClosedForm):
                core.trans_norm(core.Transformation(t.theory, signed, generalized=True))


def test_coexistence_and_add():
    th = core.quantum(2)
    half = core.scale(0.5, core.identity(th))
    big = core.scale(0.7, core.identity(th))
    assert core.coexistent(half, half)
    assert not core.coexistent(big, big)
    total = core.add(half, half)
    assert core.trans_norm(total) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotCoexistent):
        core.add(big, big)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_probabilities_in_range(seed):
    rng = np.random.default_rng(seed)
    w = qm.random_state(3, rng)
    e = qm.random_effect(3, rng)
    p = core.pair(w, e)
    assert 0.0 <= p <= 1.0


def test_spanning_states_are_ic():
    for d in (2, 3):
        th = core.quantum(d)
        rows = np.array([to_coords(w.matrix, d * d) for w in core.unstack(core.spanning_states(th))])
        assert np.linalg.matrix_rank(rows) == d * d


@pytest.mark.parametrize("n", range(1, 7))
def test_spanning_vectors_match_the_generator(n):
    assert np.array_equal(core.spanning_vectors(n), np.array(list(spanning_vectors(n))))
