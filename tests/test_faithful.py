"""Faithful bipartite states, the bilinear form, and the involution."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opcal import channels as ch
from opcal import core, faithful, gns
from opcal import quantum as qm
from opcal.basis import hermitian_basis, matrix_rank, to_coords
from opcal.errors import DegenerateSplit, NotFaithful
from opcal.tolerances import WITNESS_RESID
from reference import (
    choi_basis_witness_matrix,
    closed_form_witness,
    eigh_split,
    einsum_form,
    is_dynamically_faithful,
    is_physical_map,
    is_preparationally_faithful,
    joint,
    joint_params,
    lstsq_witness,
    product_state,
    state_sigma,
    svd_rank,
    svd_transpose,
)


@pytest.mark.parametrize("d", [2, 3])
def test_product_state_not_faithful(d):
    phi = joint("maximally-mixed", d)
    assert faithful.is_symmetric(phi)
    assert not is_dynamically_faithful(phi)
    assert not is_preparationally_faithful(phi)


# ---------------------------------------------------------------------------
# the bilinear form and the preparation witness


def _form(phi):
    return faithful.form_matrix(faithful.local_action_matrix(phi))


def test_prepare_witness_pure_oracle(phi2):
    # steering the canonical state to |0><0| succeeds with p = 1/2
    target = core.State(core.quantum(2), np.diag([1.0, 0.0]).astype(complex))
    witness, p = faithful.prepare_witness(faithful.Calibration(phi2), target)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert is_physical_map(witness)
    prob, cond = qm.condition_local(phi2, witness, 1)
    assert prob == pytest.approx(p, abs=1e-12)
    assert_allclose(qm.local_state(cond, 2).matrix, target.matrix, atol=1e-12, rtol=0)


@pytest.mark.parametrize("d", [2, 3])
def test_prepare_witness_random_targets(d, phi2, phi3, rng):
    phi = phi2 if d == 2 else phi3
    calibration = faithful.Calibration(phi)
    for _ in range(10):
        target = qm.random_state(d, rng)
        witness, p = faithful.prepare_witness(calibration, target)
        assert 0 < p <= 1 + 1e-12
        prob, cond = qm.condition_local(phi, witness, 1)
        assert prob == pytest.approx(p, abs=1e-9)
        assert_allclose(qm.local_state(cond, 2).matrix, target.matrix, atol=1e-9, rtol=0)


def _marginal_matrix_by_form(phi):
    # the witness equations read off the form: the marginal of a map
    # with effect E has coordinates F^T e, for each Choi basis element
    d = qm.part_dim(phi)
    effects = ch.effect_of_choi(hermitian_basis(d * d))
    return _form(phi).T @ to_coords(effects, d * d).T


@pytest.mark.parametrize("make", joint_params({
    **{f"isotropic-d{d}-p{p}": ("isotropic", d, p) for d in (2, 3) for p in (0.2, 0.6)},
    "isotropic-d4-p0.3": ("isotropic", 4, 0.3),
    **{f"mixture-d{d}-seed{seed}": ("mixture", d, seed) for d in (2, 3, 4) for seed in (0, 1)},
}))
def test_witness_system_matches_the_choi_basis_build(make):
    # the equations through the form against the columns from the
    # output traces of the whole Choi basis
    phi = make()
    assert is_dynamically_faithful(phi)
    assert_allclose(_marginal_matrix_by_form(phi), choi_basis_witness_matrix(phi), rtol=0, atol=1e-14)


def test_canonical_form_is_the_transpose_over_d(phi2, phi3):
    # on |Omega><Omega|, Phi(A, B) = Tr[A B^T] / d: in the basis the
    # transpose fixes |i><i| and the symmetric elements and negates the
    # antisymmetric ones, so F is that sign pattern over d
    for d, phi in ((2, phi2), (3, phi3)):
        signs = [1.0] * d + [1.0, -1.0] * (d * (d - 1) // 2)
        assert_allclose(_form(phi), np.diag(signs) / d, rtol=0, atol=1e-15)


@st.composite
def _faithful_states(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["canonical", "isotropic", "mixture", "nonsymmetric"]))
    if kind == "canonical":
        return kind, joint("canonical", d)
    if kind == "isotropic":
        return kind, joint("isotropic", d, draw(st.floats(0.0, 0.9)))
    if kind == "mixture":
        # a symmetric mixture with at least half of |Omega><Omega|: the two
        # solves agree to about cond(F) eps, and cond(F) reaches 4e3 at
        # weights near 0.2, where they differ by 5e-10
        w = draw(st.floats(0.5, 1.0))
        rho = joint("mixture", d, draw(st.integers(0, 2**32 - 1))).matrix
        return kind, core.State(core.quantum(d * d), w * joint("canonical", d).matrix + (1.0 - w) * rho)
    return kind, joint("nonsymmetric", d)


@given(state=_faithful_states(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_witness_is_the_least_squares_witness(state, seed):
    kind, phi = state
    d = qm.part_dim(phi)
    target = qm.random_state(d, seed)
    witness, prob = faithful.prepare_witness(faithful.Calibration(phi), target)
    choi, want = lstsq_witness(phi, target)
    assert_allclose(witness.choi, choi, rtol=0, atol=1e-12)
    assert prob == pytest.approx(want, abs=1e-12)
    if kind == "canonical":
        # the probability of the pure closed-form witness, 1 / (d lambda_max)
        _, p = closed_form_witness(target)
        assert prob == pytest.approx(p, abs=1e-12)
        assert not witness.generalized


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_form_is_the_realigned_state_in_the_basis(d):
    omega, mixed = joint("canonical", d), joint("maximally-mixed", d)
    states = [
        omega,
        joint("isotropic", d, 0.3),
        joint("random-joint", d, d),
        mixed,
        product_state(qm.random_state(d, 1), qm.random_state(d, 2)),
        # isotropic at p = 0.5 through the I/d^2 row, which differs from eye/d^2 at d = 5
        core.State(omega.theory, 0.5 * omega.matrix + 0.5 * mixed.matrix),
    ]
    for phi in states:
        realigned = faithful.local_action_matrix(phi)
        form = faithful.form_matrix(realigned)
        assert_allclose(form, einsum_form(phi), rtol=0, atol=1e-15)
        assert_allclose(
            np.linalg.svd(form, compute_uv=False), np.linalg.svd(realigned, compute_uv=False), rtol=0, atol=1e-14
        )
        calibration = faithful.Calibration(phi)
        assert_allclose(calibration.form, form, rtol=0, atol=0)
        assert d * d * matrix_rank(form) == calibration.rank


@st.composite
def _calibrated_states(draw):
    """(kind, phi): the canonical state, an isotropic one, a
    rank-deficient product state (symmetric when both parts are one
    state) or a random joint state, which is not symmetric, at d = 2-4."""
    d = draw(st.sampled_from([2, 3, 4]))
    kind = draw(st.sampled_from(["canonical", "isotropic", "product", "random"]))
    seed = draw(st.integers(0, 2**31))
    if kind == "canonical":
        return kind, joint("canonical", d)
    if kind == "isotropic":
        return kind, joint("isotropic", d, draw(st.floats(0.0, 0.99)))
    if kind == "product":
        part = qm.random_state(d, seed)
        return kind, product_state(part, part if draw(st.booleans()) else qm.random_state(d, seed + 1))
    return kind, joint("random-joint", d, seed)


def _same_raise(expected, got):
    """expected() and got() both raise the same class of
    (NotFaithful, DegenerateSplit), or neither raises: (want, have)."""
    try:
        want = expected()
    except (NotFaithful, DegenerateSplit) as exc:
        with pytest.raises(type(exc)):
            got()
        return None, None
    return want, got()


@given(state=_calibrated_states(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(state=("random", joint("random-joint", 4, 23015)), seed=3)  # witness entries up to 930 at cond 2e4
@example(state=("isotropic", joint("isotropic", 2, 0.6)), seed=0)
@example(state=("isotropic", joint("isotropic", 3, 0.2)), seed=0)
@example(state=("isotropic", joint("isotropic", 4, 0.3)), seed=0)
def test_calibration_matches_the_separate_factorizations(state, seed):
    # the one SVD of F against a complex SVD of R for the rank and the
    # transpose, eigh of the symmetrized F for the split and the Choi-basis
    # least squares for the witness: the same rank, signature and
    # raises, and values that agree to rounding scaled by cond(F) and,
    # for the matrices, by their largest entry
    kind, phi = state
    d = qm.part_dim(phi)
    calibration = faithful.Calibration(phi)
    s = np.linalg.svd(einsum_form(phi), compute_uv=False)
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    assert calibration.rank == d * d * svd_rank(ch.realign(phi.matrix))
    want, split = _same_raise(lambda: eigh_split(phi), lambda: faithful.spectral_split(calibration))
    if want is not None:
        signature, sigma_matrix, gram_abs = want
        assert split.signature == signature
        assert np.max(np.abs(split.sigma_matrix - sigma_matrix)) <= 1e-14 * cond
        assert np.max(np.abs(split.gram_abs - gram_abs)) <= 1e-14 * s[0]
    rng = np.random.default_rng(seed)
    maps = qm.random_cp(d, rng, n=3)
    solver = gns.TransposeSolver(calibration)
    want, got = _same_raise(lambda: svd_transpose(phi, maps), lambda: solver.transpose(maps))
    if want is not None:
        assert np.max(np.abs(got.choi - want.choi)) <= 1e-14 * cond * np.max(np.abs(want.choi))
    target = qm.random_state(d, rng)
    m, t = choi_basis_witness_matrix(phi), to_coords(target.matrix, d * d)
    x, *_ = np.linalg.lstsq(m, t, rcond=None)
    if np.linalg.norm(m @ x - t) > WITNESS_RESID:
        with pytest.raises(NotFaithful):
            faithful.prepare_witness(calibration, target)
        return
    witness, prob = faithful.prepare_witness(calibration, target)
    choi, want_prob = lstsq_witness(phi, target)
    assert np.max(np.abs(witness.choi - choi)) <= 1e-14 * cond * np.max(np.abs(choi))
    assert abs(prob - want_prob) <= 1e-13 * cond


# ---------------------------------------------------------------------------
# spectral split and involution


@pytest.mark.parametrize("d", [2, 3])
def test_involution_is_transpose_for_maxent(d, phi2, phi3, rng):
    split = faithful.spectral_split(faithful.Calibration(phi2 if d == 2 else phi3))
    for _ in range(10):
        e = qm.random_generalized_effect(d, rng)
        assert_allclose(faithful.sigma(split, e).matrix, e.matrix.T, atol=1e-12, rtol=0)


def test_sigma_preserves_physical_cone(phi2, rng):
    split = faithful.spectral_split(faithful.Calibration(phi2))
    for _ in range(10):
        e = qm.random_effect(2, rng)
        assert faithful.sigma(split, e).is_physical(1e-12)
        w = qm.random_state(2, rng)
        out = state_sigma(split, w)
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12


def test_conjugate_transformation_involutive(rng):
    t = qm.random_cp(2, rng)
    back = faithful.conjugate_transformation(faithful.conjugate_transformation(t))
    assert_allclose(back.choi, t.choi, atol=1e-14, rtol=0)
    # conjugation preserves composition
    s = qm.random_cp(2, rng)
    lhs = faithful.conjugate_transformation(core.compose(t, s)).choi
    rhs = core.compose(
        faithful.conjugate_transformation(t), faithful.conjugate_transformation(s)
    ).choi
    assert_allclose(lhs, rhs, atol=1e-13, rtol=0)


def test_state_involution_consistency(phi2, rng):
    # omega^sigma(A) = omega(sigma(A)) for physical inputs
    split = faithful.spectral_split(faithful.Calibration(phi2))
    for _ in range(10):
        w = qm.random_state(2, rng)
        e = qm.random_effect(2, rng)
        lhs = core.pair(state_sigma(split, w), e)
        rhs = core.pair(w, faithful.sigma(split, e))
        assert lhs == pytest.approx(rhs, abs=1e-12)
