"""Informational completeness, discriminability, and the dimension
identity table."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from opcal import channels as ch
from opcal import cli, core, infodim
from opcal import quantum as qm
from opcal.basis import matrix_rank
from opcal.errors import NotIC
from reference import (
    bell_projectors,
    generic_ancilla_state,
    is_predictable,
    measured,
    passes,
    pauli_povm_qubit,
    record,
    sic_povm_qubit,
    weyl,
)


def test_sic_qubit_minimal_ic():
    obs = sic_povm_qubit()
    assert len(obs) == 4
    assert all(e.is_physical(1e-12) for e in core.unstack(obs.effects))
    assert infodim.ic_rank(obs) == 4
    assert infodim.is_minimal_ic(obs)


def test_sic_expand_identity_oracle():
    # each tetrahedron effect has trace 1/2, so I = 1*E1 + ... + 1*E4
    obs = sic_povm_qubit()
    e = core.Effect(core.quantum(2), np.eye(2))
    c, _ = infodim.ic_expand(e, obs)
    assert_allclose(c, np.ones(4), atol=1e-12, rtol=0)


def test_pauli_povm_ic_not_minimal():
    obs = pauli_povm_qubit()
    assert len(obs) == 6
    assert infodim.is_informationally_complete(obs)
    assert not infodim.is_minimal_ic(obs)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_minimal_ic_povm_general(d):
    obs = infodim.minimal_ic_povm(d)
    assert len(obs) == d * d
    assert all(e.is_physical(1e-12) for e in core.unstack(obs.effects))
    assert infodim.is_minimal_ic(obs)


def test_ic_expand_rejects_non_ic():
    th = core.quantum(2)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    obs = core.Observable(core.Effect(th, np.array([p0, p1])))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(NotIC):
        infodim.ic_expand(core.Effect(th, sx, generalized=True), obs)


def test_predictable_and_resolved():
    th = core.quantum(2)
    p0 = core.Effect(th, np.diag([1.0, 0.0]).astype(complex))
    assert is_predictable(p0)
    assert infodim.is_resolved(p0)
    assert is_predictable(core.Effect(th, np.eye(2))) is False
    half = core.Effect(th, np.diag([0.5, 0.0]).astype(complex))
    assert not is_predictable(half)
    p01 = core.Effect(core.quantum(3), np.diag([1.0, 1.0, 0.0]).astype(complex))
    assert is_predictable(p01)
    assert not infodim.is_resolved(p01)


@pytest.mark.parametrize("backend", core.BACKENDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_informational_dimension(backend, d):
    assert infodim.informational_dimension(core.Theory(backend, d)) == (d, 0.0)


def _traced_peak(measurement, theory):
    """The measurement's value and the peak of the memory it traced,
    with the spanning families uncached, so the peak counts them."""
    core.spanning_vectors.cache_clear()
    core.spanning_states.cache_clear()
    tracemalloc.start()
    try:
        value = measurement(theory)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def test_informational_dimension_memory():
    # the witness needs d basis states and the d diagonal projector
    # effects, not the d^2 spanning states (1 MB at d = 16) nor d Choi
    # matrices of size d^2 x d^2 (18 MB)
    value, peak = _traced_peak(infodim.informational_dimension, core.quantum(16))
    assert value == (16, 0.0)
    assert peak < 5e5


def test_affine_state_dimension_memory():
    # the coordinates of the d^2 spanning states are read off their
    # vectors: the rows (0.5 MB at d = 16) and the rank's Gram matrix and
    # Cholesky factor, not the stack of states as well (1 MB)
    value, peak = _traced_peak(infodim.affine_state_dimension, core.quantum(16))
    assert value == 255
    assert peak < 2.0e6


@pytest.mark.parametrize("d", [2, 3, 4])
def test_all_run_forms_no_joint_spanning_states(d):
    # the composite system's state dimensions come from its spanning
    # vectors: no module asks for the d^4 spanning states of C^(d^2)
    name = "core.spanning_states"
    passed, calls = record(lambda: cli.run_suite(cli.TheorySpec(d=d), "all").all_pass(), args={name})
    assert passed is True
    assert calls[name] == calls[f"{name}({core.quantum(d)!r})"] == 1


@pytest.mark.parametrize("d", [2, 3])
def test_affine_dimensions(d):
    assert infodim.affine_state_dimension(core.quantum(d)) == d * d - 1
    assert infodim.affine_state_dimension(core.classical(d)) == d - 1


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_effect_space_dimension_ranks_physical_effects(d):
    # the basis elements shifted into the cone, (I + B_a) / 2
    for th in (core.quantum(d), core.classical(d)):
        effects = (np.eye(d) + th.basis()) / 2.0
        assert all(core.Effect(th, e).is_physical() for e in effects)
        assert infodim.effect_space_dimension(th) == th.effect_dim


def test_transformation_affine_dimension_oracle():
    assert infodim.transformation_affine_dimension(core.quantum(2)) == 16
    assert infodim.transformation_affine_dimension(core.quantum(3)) == 81
    assert infodim.transformation_affine_dimension(core.classical(2)) == 4
    assert infodim.transformation_affine_dimension(core.classical(3)) == 9


def test_table_state_rows_measure_the_projector_coordinates(monkeypatch):
    # coordinates that drop the antisymmetric (imaginary) parts leave the
    # spanning states of C^n n (n + 1) / 2 dimensions, so adm(d) reads
    # 2 and adm(d^2) 9 at d = 2: every row that reads either moves
    encode = infodim.projector_coords

    def symmetric_only(v, k):
        c = encode(v, k)
        c[:, v.shape[1] + 1 :: 2] = 0.0
        return c

    monkeypatch.setattr(infodim, "projector_coords", symmetric_only)
    assert infodim.dim_identities(2, "quantum", measured) == {
        "D2": (4, 3),
        "D3": (9, 8),
        "D4": (2, 3),
        "D34": (9, 15),
        "D34'": (2, 3),
        "tensor": (4, 4),
        "T": (16, 10),
        "P": (4, 4),
    }


def test_table_T_measures_the_choi_encoding(monkeypatch):
    # an encoding that drops the imaginary parts leaves only the real
    # symmetric Choi matrices, d^2 (d^2 + 1) / 2 of the d^4 dimensions
    encode = ch.kraus_to_choi_matrix
    monkeypatch.setattr(ch, "kraus_to_choi_matrix", lambda kraus: encode(kraus).real)
    assert infodim.dim_identities(2, "quantum", measured)["T"] == (10, 16)


def test_local_observability():
    obs2, obs3 = infodim.minimal_ic_povm(2), infodim.minimal_ic_povm(3)
    ok, rank = infodim.check_local_observability(obs2, obs2)
    assert ok and rank == 16
    ok, rank = infodim.check_local_observability(obs2, obs3)
    assert ok and rank == 36


def test_local_observability_classical():
    # the backend comes from the observables: rank d1 d2 on the simplex
    obs = infodim.ic_observable(core.classical(3))
    assert infodim.check_local_observability(obs, obs) == (True, 9)


@pytest.mark.parametrize(
    "backend, d", [("quantum", 2), ("quantum", 3), ("quantum", 4), ("classical", 3), ("classical", 4)]
)
def test_stacked_coordinates_keep_ranks_and_expansions(backend, d):
    # reference: one Effect and one coordinate vector per effect
    if backend == "classical":
        obs = infodim.ic_observable(core.classical(d))
        effect = qm.classical_effect(np.linspace(0.1, 0.9, d))
    else:
        obs = infodim.minimal_ic_povm(d)
        effect = qm.random_effect(d, np.random.default_rng(d))
    effects = core.unstack(obs.effects)
    rows = np.array([e.coords for e in effects])
    th12 = core.Theory(backend, d * d)
    prods = [core.Effect(th12, np.kron(a.matrix, b.matrix)) for a in effects for b in effects]
    rank12 = matrix_rank(np.array([e.coords for e in prods]))
    assert infodim.ic_rank(obs) == matrix_rank(rows) == len(obs)
    assert infodim.check_local_observability(obs, obs) == (True, rank12)
    # ic_expand takes the coordinates of all effects in one call, which
    # rounds differently in the last bit from one call per effect
    stacked = obs.effects.coords
    assert np.max(np.abs(stacked - rows)) <= 1e-15
    got = infodim.ic_expand(effect, obs)[0]
    assert np.array_equal(got, np.linalg.lstsq(stacked.T, effect.coords, rcond=None)[0])
    want, *_ = np.linalg.lstsq(rows.T, effect.coords, rcond=None)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_families_match_the_loop_builds(d):
    want = np.array([weyl(d, m, n) for m in range(d) for n in range(d)])
    assert np.max(np.abs(infodim.weyl_operators(d) - want)) <= 1e-15
    assert np.max(np.abs(infodim.generic_ancilla_state(d) - generic_ancilla_state(d))) <= 1e-15
    effects = infodim.bell_basis_observable(d).effects.matrix
    assert np.max(np.abs(effects - bell_projectors(d))) <= 1e-15
    assert infodim.check_bell_ic(d)


def test_is_resolved_on_a_stack():
    th = core.quantum(3)
    diag = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]
    e = core.Effect(th, np.array([np.diag(x) for x in diag]))
    assert infodim.is_resolved(e).tolist() == [True, False, False, False]


def test_bell_ic_trivial_ancilla_fails(monkeypatch):
    # the maximally mixed ancilla induces effects proportional to the
    # identity, which cannot be informationally complete
    monkeypatch.setattr(infodim, "generic_ancilla_state", lambda d: np.eye(d) / d)
    assert not infodim.check_bell_ic(2)


def test_generic_ancilla_is_state():
    for d in (2, 3):
        m = infodim.generic_ancilla_state(d)
        assert np.trace(m) == pytest.approx(1.0)
        assert np.linalg.eigvalsh(m)[0] > 0


def test_bell_basis_observable_complete():
    obs = infodim.bell_basis_observable(2)
    total = sum(e.matrix for e in core.unstack(obs.effects))
    assert_allclose(total, np.eye(4), atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# identity table


@pytest.mark.parametrize("d", [2, 3])
def test_classical_violates_squared_identity(d):
    report = infodim.dim_identities(d, "classical", measured)
    assert not passes(report, "D34'")
    assert not passes(report, "D4")
    assert not passes(report, "D34")
    # the linear identities still hold on the simplex
    assert passes(report, "D2")
    assert passes(report, "D3")
    assert passes(report, "tensor")
