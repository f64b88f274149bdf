"""Transpose, conjugate, adjoint, scalar product, representation, and
the two pairing identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import opcal
from opcal import channels as ch
from opcal import cli, core, faithful, gns
from opcal.basis import from_coords, hermitian_basis, matrix_rank, to_coords
from opcal import quantum as qm
from opcal.errors import NotFaithful
from opcal.tolerances import ACTION_TOL, PINV_RCOND, TRANSPOSE_RESID
import reference
from reference import joint, local_action_oracle


def test_transpose_is_kraus_transpose(phi2, rng):
    th = core.quantum(2)
    for _ in range(10):
        k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        k /= np.linalg.norm(k, 2) * 1.1
        t = qm.kraus_to_choi(th, [k])
        got = gns.TransposeSolver(faithful.Calibration(phi2)).transpose(t)
        want = qm.kraus_to_choi(th, [k.T])
        assert_allclose(got.choi, want.choi, atol=1e-12, rtol=0)


LOCAL_ACTION_STATES = reference.joint_params({
    **{f"canonical-d{d}": ("canonical", d) for d in (2, 3, 4, 5)},
    "isotropic-d3": ("isotropic", 3, 0.2),
    "mixture-d2": ("mixture", 2, 5),
    "mixture-d3": ("mixture", 3, 6),
    "pure-complex-d3": ("pure-complex", 3, 7),
    "pure-complex-d4": ("pure-complex", 4, 0),
    "product-d2": ("maximally-mixed", 2),
    "pure-product-d3": ("pure-product", 3),
    "nonsymmetric-d2": ("nonsymmetric", 2),
    "nonsymmetric-d3": ("nonsymmetric", 3),
    "nonsymmetric-golden-d2": ("nonsymmetric-golden",),
    **{f"random-joint-d{d}": ("random-joint", d, 8) for d in (2, 3)},
})
STATE_PARAMS = pytest.mark.parametrize("make", LOCAL_ACTION_STATES)


def _realign(m, d):
    """[(p, r), (q, s)] -> [(p, q), (r, s)] of each d^2 x d^2 matrix of a
    stack (an involution)."""
    return m.reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(m.shape)


@STATE_PARAMS
def test_solver_local_actions_are_the_slot_builds(make):
    # the realigned action of each Choi basis element, A~ R on slot 1
    # and R A~^T on slot 2, against the superoperator build of that
    # slot; the solver's rank is the rank of the slot-1 oracle and d^2
    # times the rank of R, also on the states that are not symmetric
    phi = make()
    d = qm.part_dim(phi)
    cb = hermitian_basis(d * d)
    sup = ch.choi_to_super(cb)
    r = faithful.local_action_matrix(phi)
    want1 = local_action_oracle(phi, 1)
    got1 = to_coords(_realign(sup @ r, d), d**4).T
    got2 = to_coords(_realign(r @ sup.swapaxes(-1, -2), d), d**4).T
    assert np.max(np.abs(got1 - want1)) <= 1e-15
    assert np.max(np.abs(got2 - local_action_oracle(phi, 2))) <= 1e-15
    assert faithful.Calibration(phi).rank == matrix_rank(want1) == d * d * matrix_rank(r)


def _oracle_transposes(phi, maps):
    """The transpose of each map as the least-squares solve of the
    oracle system l2 x = l1 a in Choi coordinates, with the solver's cut;
    None where the residual exceeds the solver's bound."""
    l1, l2 = (local_action_oracle(phi, slot) for slot in (1, 2))
    pinv = np.linalg.pinv(l2, rcond=PINV_RCOND)
    out = []
    for t in maps:
        rhs = l1 @ to_coords(t.choi, qm.part_dim(phi)**4)
        x = pinv @ rhs
        ok = np.linalg.norm(l2 @ x - rhs) <= TRANSPOSE_RESID * max(np.linalg.norm(rhs), 1.0)
        out.append(from_coords(x, qm.part_dim(phi)**2) if ok else None)
    return out


def _defining_residual(phi, t, choi):
    """|(A, I) Phi - (I, A') Phi| / |(A, I) Phi| for A' of Choi matrix choi."""
    lhs = qm.apply_local(phi, t, 1).matrix
    tp = core.Transformation(t.theory, choi, generalized=True)
    return np.linalg.norm(lhs - qm.apply_local(phi, tp, 2).matrix) / np.linalg.norm(lhs)


@STATE_PARAMS
def test_folded_transpose_is_the_coordinate_solve(make, rng):
    # the similarity R^+ A~ R against the plain solve in Choi
    # coordinates; both reject the maps of a state whose action is
    # rank-deficient, and where the two differ beyond rounding the
    # similarity solves the defining equation no worse (pure-complex-d4,
    # cond(R) = 449)
    phi = make()
    solver = gns.TransposeSolver(faithful.Calibration(phi))
    maps = [qm.random_cp(qm.part_dim(phi), rng) for _ in range(10)]
    for t, want in zip(maps, _oracle_transposes(phi, maps)):
        if want is None:
            with pytest.raises(NotFaithful):
                solver.transpose(t)
            continue
        got = solver.transpose(t).choi
        if np.max(np.abs(got - want)) > 1e-13:
            assert _defining_residual(phi, t, got) <= _defining_residual(phi, t, want)


@given(
    case=st.sampled_from([2, 3]).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, d * d), st.integers(0, 2**32 - 1))
    )
)
@settings(max_examples=40, deadline=None)
def test_local_action_rank_is_d2_times_the_schmidt_rank(case):
    d, k, seed = case
    phi = joint("schmidt-rank", d, k, seed)
    solver = gns.TransposeSolver(faithful.Calibration(phi))
    assert matrix_rank(faithful.local_action_matrix(phi)) == k
    assert solver.calibration.rank == matrix_rank(local_action_oracle(phi, 1)) == d * d * k
    g = np.random.default_rng(seed).standard_normal((2, d * d, d * d))
    t = core.Transformation(core.quantum(d), g[0] + g[0].T + 1j * (g[1] - g[1].T), generalized=True)
    if k < d * d:
        with pytest.raises(NotFaithful):
            solver.transpose(t)
        return
    lhs = qm.apply_local(phi, t, 1).matrix
    rhs = qm.apply_local(phi, solver.transpose(t), 2).matrix
    assert np.linalg.norm(lhs - rhs) <= ACTION_TOL * np.linalg.norm(lhs)


def test_adjoint_is_heisenberg_dual(phi2, rng):
    # on the canonical state, Kraus {K} maps to Kraus {K^dag}
    th = core.quantum(2)
    for _ in range(10):
        k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        k /= np.linalg.norm(k, 2) * 1.1
        t = qm.kraus_to_choi(th, [k])
        got = gns.adjoint_map(gns.TransposeSolver(faithful.Calibration(phi2)), t)
        want = qm.kraus_to_choi(th, [k.conj().T])
        assert_allclose(got.choi, want.choi, atol=1e-12, rtol=0)


def test_jordan_lift_effect():
    rng = np.random.default_rng(1)
    e = qm.random_effect(2, rng)
    lifted = gns.jordan_lift(e)
    assert_allclose(lifted.effect().matrix, e.matrix, atol=1e-12, rtol=0)
    # linear in the effect
    f = qm.random_effect(2, rng)
    both = gns.jordan_lift(core.Effect(e.theory, e.matrix + f.matrix, generalized=True))
    assert_allclose(both.choi, gns.jordan_lift(e).choi + gns.jordan_lift(f).choi, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# scalar product and representation


def test_scalar_product_oracle(space2, rng):
    # <E|F> = Tr[E F] / d on the canonical state
    for _ in range(10):
        e = qm.random_generalized_effect(2, rng)
        f = qm.random_generalized_effect(2, rng)
        got = gns.scalar_product(space2, e, f)
        want = np.trace(e.matrix @ f.matrix) / 2.0
        assert abs(got - want) < 1e-12


def test_scalar_product_is_sesquilinear(space2, rng):
    # complex multiples of effects: conjugate-linear on the left entry,
    # linear on the right
    th = core.quantum(2)
    for _ in range(5):
        e = qm.random_generalized_effect(2, rng)
        f = qm.random_generalized_effect(2, rng)
        base = gns.scalar_product(space2, e, f)
        assert abs(base.imag) < 1e-12
        left = gns.scalar_product(space2, core.Effect(th, 1j * e.matrix), f)
        right = gns.scalar_product(space2, e, core.Effect(th, 1j * f.matrix))
        assert abs(left - (-1j) * base) < 1e-12
        assert abs(right - 1j * base) < 1e-12


def test_cstar_identity_oracle(space2):
    # the rescaled identity has representation 0.6 * I: both sides 0.36
    t = core.scale(0.6, core.identity(core.quantum(2)))
    lhs, rhs = gns.cstar_check(space2, t)
    assert lhs == pytest.approx(0.36, abs=1e-12)
    assert rhs == pytest.approx(0.36, abs=1e-12)


def test_zero_norm_ideal(space2):
    # the commutator map rho -> i[Z, rho] has zero dual unit, hence a
    # null GNS vector, yet a nonzero representation
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2)
    sup = 1j * (np.kron(z, eye) - np.kron(eye, z.conj()))
    t = core.Transformation(
        core.quantum(2), ch.super_to_choi(sup), generalized=True
    )
    assert np.max(np.abs(t.effect().matrix)) < 1e-12
    vec = gns.transformation_coords(space2, t)
    assert np.max(np.abs(vec)) < 1e-12
    assert gns.gns_norm(space2, t) > 0.1


# ---------------------------------------------------------------------------
# the pairing identities


def test_born_pair_random(space2, rng):
    for _ in range(20):
        w = qm.random_state(2, rng)
        e = qm.random_effect(2, rng)
        assert gns.born_pair(space2, w, e) == pytest.approx(
            core.pair(w, e), abs=1e-10
        )


def test_state_rep_normalization(space2, rng):
    # pairing the state vector with the lifted unit effect returns 1
    unit = core.Effect(core.quantum(2), np.eye(2))
    for _ in range(5):
        w = qm.random_state(2, rng)
        assert gns.born_pair(space2, w, unit) == pytest.approx(1.0, abs=1e-10)


FACTORED_STATES = reference.joint_params({
    **{f"canonical-d{d}": ("canonical", d) for d in (2, 3, 4, 5)},
    **{f"isotropic-d{d}": ("isotropic", d, 0.2) for d in (2, 3, 4, 5)},
    "nonsymmetric-d2": ("nonsymmetric-golden",),
    "swap-perturbed-isotropic-d3": ("swap-perturbed-isotropic",),
})


@pytest.mark.parametrize("make", FACTORED_STATES)
def test_factored_maps_match_the_folded_operator(make):
    # the Gram matrix, transformation_coords and gns_rep from the
    # whitened superoperator factors against the folded operator on
    # real views, for one map, a stack of CP maps and a stack of
    # arbitrary complex Choi matrices with two leading axes.  The
    # oracle's coordinates c and matrices rep are in the canonical
    # basis, so they are compared as G^1/2 c and G^1/2 rep G^-1/2.  The
    # pairing identities hold on any faithful state, so the
    # non-symmetric one, which gns_space rejects, is compared with the
    # calibration's symmetry flag overridden.
    phi = make()
    d = qm.part_dim(phi)
    calibration = faithful.Calibration(phi)
    if not calibration.symmetric:
        with pytest.raises(NotFaithful, match="symmetric"):
            gns.gns_space(gns.TransposeSolver(calibration))
        calibration.symmetric = True
    solver = gns.TransposeSolver(calibration)
    space = gns.gns_space(solver)
    folded = reference.folded_gns(solver)
    assert np.max(np.abs(space.gram - folded[0])) <= 1e-13
    w, v = np.linalg.eigh(folded[0])
    sqrt, isqrt = (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T
    rng = np.random.default_rng(d)
    cp = qm.random_cp(d, d, n=4)
    complex_ = rng.standard_normal((2, 3, d * d, d * d)) + 1j * rng.standard_normal((2, 3, d * d, d * d))
    for t in (
        core.Transformation(core.quantum(d), cp.choi[0]),
        cp,
        core.Transformation(core.quantum(d), complex_, generalized=True),
    ):
        coords = gns.transformation_coords(space, t)
        rep = gns.gns_rep(space, t)
        assert coords.shape == (*t.choi.shape[:-2], d * d)
        assert rep.shape == (*t.choi.shape[:-2], d * d, d * d)
        assert np.max(np.abs(coords - reference.folded_transformation_coords(folded, t) @ sqrt)) <= 1e-13
        assert np.max(np.abs(rep - sqrt @ reference.folded_gns_rep(folded, t) @ isqrt)) <= 1e-13


ORTHONORMAL_STATES = reference.joint_params({
    **{f"canonical-d{d}": ("canonical", d) for d in (2, 3, 4)},
    "isotropic-d2-p0.6": ("isotropic", 2, 0.6),
    "isotropic-d3-p0.2": ("isotropic", 3, 0.2),
})


@pytest.mark.parametrize("make", ORTHONORMAL_STATES)
def test_gns_coordinates_are_orthonormal(make):
    # the coordinates of the lifted basis have the Gram matrix G as
    # their dot products, so every vector and matrix is written in a
    # basis orthonormal for the scalar product: pi keeps the identity
    # and represents the adjoint by the matrix transpose, also where G
    # is not a multiple of the identity
    phi = make()
    d = qm.part_dim(phi)
    th = core.quantum(d)
    space = gns.gns_space(gns.TransposeSolver(faithful.Calibration(phi)))
    lifts = gns.jordan_lift(core.Effect(th, hermitian_basis(d), generalized=True))
    coords = gns.transformation_coords(space, lifts)
    assert np.max(np.abs(coords @ coords.T - space.gram)) <= 1e-12
    assert np.max(np.abs(gns.gns_rep(space, core.identity(th)) - np.eye(d * d))) <= 1e-12
    a = qm.random_cp(d, d, n=10)
    rep, adj = gns.gns_rep(space, core.stack([a, gns.adjoint_map(space.solver, a)]))
    assert np.max(np.abs(adj - np.swapaxes(rep, -1, -2))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_scalar_products_meet_on_the_canonical_state(d):
    # |F|, which faithful.abs_gram checks, and the GNS Gram matrix G, which
    # the other gns.* and born.* checks read, are inverse up to d^2 on the
    # isotropic family, G = (d^2 |F|)^-1: one matrix on |Omega><Omega|,
    # about half of |F| apart at p = 0.2 and further apart as p grows.  A
    # symmetrized mixture misses the relation.
    def grams(phi):
        calibration = faithful.Calibration(phi)
        gram = gns.gns_space(gns.TransposeSolver(calibration)).gram
        return gram, faithful.spectral_split(calibration).gram_abs

    def miss(gram, gram_abs):
        return np.max(np.abs(gram @ (d * d * gram_abs) - np.eye(d * d)))

    for p in (0.0, 0.2, 0.5, 0.9, 0.99):
        gram, gram_abs = grams(joint("isotropic", d, p))
        assert miss(gram, gram_abs) <= 1e-13
        apart = np.linalg.norm(gram - gram_abs) / np.linalg.norm(gram_abs)
        assert apart <= 1e-14 if p == 0.0 else apart >= 0.4
    mixture = 0.7 * joint("canonical", d).matrix + 0.3 * joint("mixture", d, 0).matrix
    assert miss(*grams(core.State(core.quantum(d * d), mixture))) > 1e-2


def test_gns_space_rejects_unfaithful():
    with pytest.raises(NotFaithful, match="transpose system residual"):
        gns.gns_space(gns.TransposeSolver(faithful.Calibration(joint("maximally-mixed", 2))))


def test_calibrated_maps_convert_no_coordinates(monkeypatch):
    # transpose, gns_rep and transformation_coords act on Choi matrices
    # or their superoperators: a d=2 `all` run makes no coordinate
    # conversion inside them, though it converts elsewhere
    inside = [0]
    calls = {"outside": 0, "inside": 0, "maps": 0}

    def entering(fn):
        # one map per transformation of the stack it is applied to
        def wrapped(*args, **kwargs):
            calls["maps"] += args[-1].choi[..., 0, 0].size
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapped

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls["inside" if inside[0] else "outside"] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("to_coords", "from_coords"):
        for module in vars(opcal).values():
            if hasattr(module, name) and getattr(module, "__name__", "").startswith("opcal."):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    monkeypatch.setattr(gns.TransposeSolver, "transpose", entering(gns.TransposeSolver.transpose))
    monkeypatch.setattr(gns, "gns_rep", entering(gns.gns_rep))
    monkeypatch.setattr(gns, "transformation_coords", entering(gns.transformation_coords))
    assert cli.run_suite(cli.TheorySpec(d=2), "all").all_pass()
    assert calls["inside"] == 0
    assert calls["maps"] > 100 and calls["outside"] > 0
