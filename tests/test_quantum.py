"""Joint states, local actions, no-signaling, and seeded samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opcal import channels as ch
from opcal import core, infodim
from opcal import quantum as qm
from opcal.errors import CompletenessError, DimensionMismatch
import reference
from reference import is_physical_map, product_state, random_unitary


@pytest.mark.parametrize("d", [2, 3])
def test_max_entangled_marginals(d):
    phi = qm.max_entangled(d)
    assert phi.total == pytest.approx(1.0)
    for slot in (1, 2):
        assert_allclose(qm.local_state(phi, slot).matrix, np.eye(d) / d, atol=1e-12, rtol=0)
    # purity
    assert np.real(np.trace(phi.matrix @ phi.matrix)) == pytest.approx(1.0)


def test_product_state_local_action():
    rng = np.random.default_rng(2)
    a = qm.random_state(2, rng)
    b = qm.random_state(2, rng)
    joint = product_state(a, b)
    t = qm.random_cp(2, rng)
    out = qm.apply_local(joint, t, 1)
    assert_allclose(out.matrix, np.kron(t(a.matrix), b.matrix), atol=1e-12, rtol=0)
    out2 = qm.apply_local(joint, t, 2)
    assert_allclose(out2.matrix, np.kron(a.matrix, t(b.matrix)), atol=1e-12, rtol=0)


@pytest.mark.parametrize("which", ["max_entangled", "isotropic", "random"])
@pytest.mark.parametrize("d", [2, 3])
def test_a_joint_state_is_a_state(d, which):
    rows = {
        "max_entangled": ("canonical", d),
        "isotropic": ("isotropic", d, 0.2),
        "random": ("random-joint", d, 10 + d),
    }
    phi = reference.joint(*rows[which])
    joint = core.quantum(d * d)
    assert phi.theory == joint and qm.part_dim(phi) == d
    # a local effect paired with the joint state is the effect paired
    # with that slot's local state
    eye = np.eye(d)
    for e in core.unstack(qm.random_effect(d, 7, 5)):
        p1 = core.pair(phi, core.Effect(joint, np.kron(e.matrix, eye)))
        p2 = core.pair(phi, core.Effect(joint, np.kron(eye, e.matrix)))
        assert p1 == pytest.approx(core.pair(qm.local_state(phi, 1), e), abs=1e-12)
        assert p2 == pytest.approx(core.pair(qm.local_state(phi, 2), e), abs=1e-12)
    # the joint discriminating observable is an observable of the same theory
    probs = core.pair(phi, infodim.bell_basis_observable(d).effects)
    assert probs.shape == (d * d,) and probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_objects_check_their_shape_against_their_theory(d):
    joint = core.quantum(d * d)
    for build in (
        lambda: core.State(joint, np.eye(d) / d),
        lambda: core.Weight(joint, np.ones(d * d)),
        lambda: core.Effect(joint, np.eye(d)),
        lambda: core.Transformation(joint, np.eye(d * d)),
        lambda: core.Transformation(core.quantum(d), np.eye(d)),
        lambda: core.State(core.quantum(d + 1), np.eye(d) / d),
    ):
        with pytest.raises(DimensionMismatch):
            build()
    phi = qm.max_entangled(d)
    assert core.stack([phi, phi]).matrix.shape == (2, d * d, d * d)
    assert core.Effect(joint, np.array([np.eye(d * d)] * 3)).matrix.shape == (3, d * d, d * d)
    choi = np.array([np.eye(d**4)] * 2)
    assert core.Transformation(joint, choi).effect().matrix.shape == (2, d * d, d * d)


def test_joint_operations_reject_a_bad_slot_or_joint_theory():
    phi = qm.max_entangled(2)
    for slot in (0, 3):
        with pytest.raises(ValueError, match="slot must be 1 or 2"):
            qm.local_state(phi, slot)
        with pytest.raises(ValueError, match="slot must be 1 or 2"):
            qm.apply_local(phi, qm.random_cp(2, 0), slot)
    # a theory whose dimension is not a square has no two equal parts
    with pytest.raises(DimensionMismatch):
        qm.local_state(qm.random_state(5, 0), 1)


def test_apply_local_dimension_check():
    phi = qm.max_entangled(2)
    with pytest.raises(DimensionMismatch):
        qm.apply_local(phi, qm.random_cp(3, 0), 1)


def test_kraus_to_choi_rejects_wrong_shapes():
    th = core.quantum(2)
    with pytest.raises(DimensionMismatch):
        qm.kraus_to_choi(th, [np.eye(3), np.eye(3)])
    with pytest.raises(DimensionMismatch):
        qm.kraus_to_choi(th, np.zeros((5, 1, 3, 3)))


def test_condition_local_steering():
    # conditioning half of the singlet-type state steers the far part
    phi = qm.max_entangled(2)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p, cond = qm.condition_local(phi, qm.projector_map(core.quantum(2), p0), 1)
    assert p == pytest.approx(0.5, abs=1e-12)
    far = qm.local_state(cond, 2).matrix
    assert_allclose(far, p0, atol=1e-12, rtol=0)
    assert ch.trace_distance(far, qm.local_state(phi, 2).matrix) == pytest.approx(0.5)


def test_no_signaling_rejects_incomplete():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    # the incomplete experiment cannot be built, so it never reaches
    # signaling_residual to report a spurious violation
    with pytest.raises(CompletenessError):
        core.Experiment(qm.projector_map(core.quantum(2), p0))


# ---------------------------------------------------------------------------
# samplers


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_sampled_states_physical(seed, d):
    w = qm.random_state(d, seed)
    ev = np.linalg.eigvalsh(w.matrix)
    assert ev[0] >= -1e-12
    assert np.real(np.trace(w.matrix)) == pytest.approx(1.0)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_sampled_effects_physical(seed, d):
    e = qm.random_effect(d, seed)
    assert e.is_physical(1e-12)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_sampled_maps_physical(seed, d):
    t = qm.random_cp(d, seed)
    assert is_physical_map(t)
    tp = qm.random_experiment(d, seed).deterministic_sum()
    assert_allclose(tp.effect().matrix, np.eye(d), atol=1e-9, rtol=0)


def test_random_unitary_is_unitary():
    u = random_unitary(3, 5)
    assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12, rtol=0)


def test_random_experiment_complete():
    exp = qm.random_experiment(2, 11)
    assert all(is_physical_map(b) for b in core.unstack(exp.branches))


# ---------------------------------------------------------------------------
# classical backend


def test_classical_map_action():
    m = np.array([[0.5, 1.0], [0.5, 0.0]])
    t = qm.classical_map(m)
    w = qm.classical_state([1.0, 0.0])
    out = core.act(t, w)
    assert_allclose(np.real(np.diag(out.matrix)), [0.5, 0.5], atol=1e-12, rtol=0)
    assert is_physical_map(t)


def test_classical_sampler_valid():
    rng = np.random.default_rng(8)
    for _ in range(10):
        w = qm.random_classical_state(3, rng)
        assert np.real(np.trace(w.matrix)) == pytest.approx(1.0)
        t = qm.random_classical_map(3, rng)
        assert is_physical_map(t)
