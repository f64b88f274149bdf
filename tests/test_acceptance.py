"""Acceptance gate: the ten release criteria, each emitting one
pass/fail line.  Tolerances are pinned here and must not be loosened."""

import numpy as np

from opcal import basis
from opcal import channels as ch
from opcal import cli, core, faithful, gns, infodim
from opcal import quantum as qm
from reference import (
    all_pass,
    is_dynamically_faithful,
    is_preparationally_faithful,
    local_action_oracle,
    measured,
    passes,
    product_state,
)

SY = np.array([[0, -1j], [1j, 0]])


def _verdict(capsys, label, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_dimension_table(capsys):
    rows2 = infodim.dim_identities(2, "quantum", measured)
    ok = (
        rows2["D2"] == (4, 4)
        and rows2["D34'"] == (3, 3)
        and rows2["P"] == (4, 4)
        and rows2["D3"] == (15, 15)
        and rows2["tensor"] == (4, 4)
        and rows2["D4"] == (3, 3)
        and rows2["T"] == (16, 16)
        and all_pass(rows2)
    )
    rows3 = infodim.dim_identities(3, "quantum", measured)
    ok = ok and rows3["D34'"] == (8, 8) and rows3["D3"] == (80, 80)
    _verdict(capsys, "1 dimension-identity table (d=2,3, exact integers)", ok)


def test_criterion_2_classical_negative_control(capsys):
    ok = True
    for d in (2, 3):
        r = infodim.dim_identities(d, "classical", measured)
        lhs, rhs = r["D34'"]
        # adm = idim - 1 on the simplex, far from idim^2 - 1
        ok = ok and lhs == d - 1 and rhs == d * d - 1 and not passes(r, "D34'")
    _verdict(capsys, "2 classical backend violates the squared identity", ok)


def test_criterion_3_faithfulness(capsys):
    ok = True
    for d in (2, 3):
        phi = qm.max_entangled(d)
        ok = ok and faithful.is_symmetric(phi)
        rank = basis.matrix_rank(local_action_oracle(phi, 1))
        calibration = faithful.Calibration(phi)
        ok = ok and calibration.rank == rank == d**4
        ok = ok and is_dynamically_faithful(phi)
        ok = ok and is_preparationally_faithful(phi)
        rng = np.random.default_rng(300 + d)
        for _ in range(10):
            target = qm.random_state(d, rng)
            witness, p = faithful.prepare_witness(calibration, target)
            _, cond = qm.condition_local(phi, witness, 1)
            resid = np.max(np.abs(qm.local_state(cond, 2).matrix - target.matrix))
            ok = ok and resid < 1e-9 and p > 0
        mixed = core.State(core.quantum(d), np.eye(d) / d)
        prod = product_state(mixed, mixed)
        ok = ok and not is_dynamically_faithful(prod)
        ok = ok and not is_preparationally_faithful(prod)
    _verdict(capsys, "3 canonical state faithful, product states not (d=2,3)", ok)


def test_criterion_4_spectral_split(capsys):
    split2 = faithful.spectral_split(faithful.Calibration(qm.max_entangled(2)))
    ok = split2.signature == (3, 1)
    basis = core.quantum(2).basis()
    idx = [i for i, b in enumerate(basis) if np.allclose(b, SY / np.sqrt(2))]
    e = np.zeros(4)
    e[idx[0]] = 1.0
    ok = ok and np.max(np.abs((np.eye(4) - split2.sigma_matrix) / 2.0 - np.outer(e, e))) < 1e-12
    for d in (2, 3):
        split = faithful.spectral_split(faithful.Calibration(qm.max_entangled(d)))
        low = np.linalg.eigvalsh(split.gram_abs)[0]
        ok = ok and abs(low - 1.0 / d) <= 1e-12
        s = split.sigma_matrix
        ok = ok and np.max(np.abs(s @ s - np.eye(d * d))) <= 1e-12
    _verdict(capsys, "4 spectral split: signature, Gram floor 1/d, involution", ok)


def test_criterion_5_transpose(capsys):
    phi = qm.max_entangled(2)
    solver = gns.TransposeSolver(faithful.Calibration(phi))
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(100):
        t = qm.random_cp(2, rng)
        tp = solver.transpose(t)
        lhs = qm.apply_local(phi, t, 1).matrix
        rhs = qm.apply_local(phi, tp, 2).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst < 1e-10
    # axioms: identity fixed, composition reversed, involutive, linear
    th = core.quantum(2)
    axiom = 0.0
    ident = core.identity(th)
    axiom = max(axiom, np.max(np.abs(solver.transpose(ident).choi - ident.choi)))
    for _ in range(20):
        a = qm.random_cp(2, rng)
        b = qm.random_cp(2, rng)
        axiom = max(
            axiom,
            np.max(
                np.abs(
                    solver.transpose(core.compose(b, a)).choi
                    - core.compose(solver.transpose(a), solver.transpose(b)).choi
                )
            ),
        )
        axiom = max(
            axiom, np.max(np.abs(solver.transpose(solver.transpose(a)).choi - a.choi))
        )
        lin = solver.transpose(
            core.Transformation(th, a.choi + 0.5 * b.choi, generalized=True)
        ).choi - (solver.transpose(a).choi + 0.5 * solver.transpose(b).choi)
        axiom = max(axiom, np.max(np.abs(lin)))
    ok = ok and axiom <= 1e-12
    # Kraus transposition on the canonical state
    kworst = 0.0
    for _ in range(20):
        k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        k /= np.linalg.norm(k, 2) * 1.1
        got = solver.transpose(qm.kraus_to_choi(th, [k])).choi
        kworst = max(kworst, np.max(np.abs(got - qm.kraus_to_choi(th, [k.T]).choi)))
    ok = ok and kworst < 1e-10
    _verdict(capsys, "5 transpose: 100-map residual, axioms, Kraus form", ok)


def test_criterion_6_adjoint_gns(capsys, space2):
    solver = space2.solver
    rng = np.random.default_rng(600)
    # adjoint pairing identity on 100 random triples
    worst = 0.0
    for _ in range(100):
        a = qm.random_cp(2, rng)
        b = gns.jordan_lift(qm.random_generalized_effect(2, rng))
        c = gns.jordan_lift(qm.random_generalized_effect(2, rng))
        lhs = gns._inner_tt(solver, b, core.compose(a, c))
        adj = gns.adjoint_map(solver, a)
        rhs = gns._inner_tt(solver, core.compose(adj, b), c)
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-9
    # homomorphism and adjoint representation
    hom = 0.0
    for _ in range(20):
        a = qm.random_cp(2, rng)
        b = qm.random_cp(2, rng)
        hom = max(
            hom,
            np.max(
                np.abs(
                    gns.gns_rep(space2, core.compose(a, b))
                    - gns.gns_rep(space2, a) @ gns.gns_rep(space2, b)
                )
            ),
        )
        adj = gns.adjoint_map(solver, a)
        hom = max(
            hom,
            np.max(np.abs(gns.gns_rep(space2, adj) - gns.gns_rep(space2, a).conj().T)),
        )
    ok = ok and hom <= 1e-12
    cworst = 0.0
    for _ in range(100):
        lhs, rhs = gns.cstar_check(space2, qm.random_cp(2, rng))
        cworst = max(cworst, abs(lhs - rhs))
    ok = ok and cworst <= 1e-9
    _verdict(capsys, "6 adjoint pairing, homomorphism, adjoint rep, C*-identity", ok)


def test_criterion_7_born_rule(capsys, space2, space3):
    ok = True
    for d, space in ((2, space2), (3, space3)):
        th = core.quantum(d)
        worst = 0.0
        for w in core.unstack(core.spanning_states(th)):
            for e in core.unstack(infodim.minimal_ic_povm(d).effects):
                worst = max(worst, abs(gns.born_pair(space, w, e) - core.pair(w, e)))
        ok = ok and worst <= 1e-9
    rng = np.random.default_rng(700)
    worst3 = 0.0
    for _ in range(100):
        w = qm.random_state(2, rng)
        b = qm.random_effect(2, rng)
        t = qm.random_cp(2, rng)
        lhs = gns.born_triple(space2, w, b, t)
        rhs = core.pair(w, core.evolve_effect(b, t))
        worst3 = max(worst3, abs(lhs - rhs))
    ok = ok and worst3 <= 1e-9
    _verdict(capsys, "7 pairing identity on IC spanning sets and 100 triples", ok)


def test_criterion_8_banach(capsys):
    rng = np.random.default_rng(800)
    ok = True
    for _ in range(100):
        a = qm.random_cp(2, rng)
        b = qm.random_cp(2, rng)
        na, nb = core.trans_norm(a), core.trans_norm(b)
        ok = ok and core.trans_norm(core.compose(b, a)) <= na * nb + 1e-9
        ok = ok and na <= 1.0 + 1e-9 and nb <= 1.0 + 1e-9
        # norm-sum bound implies coexistence; unit-overflow forbids it
        lam = float(rng.uniform(0.1, 0.45))
        ok = ok and core.coexistent(core.scale(lam, a), core.scale(lam, b))
    th = core.quantum(2)
    ok = ok and not core.coexistent(
        core.scale(0.7, core.identity(th)), core.scale(0.7, core.identity(th))
    )
    # experiment branches are pairwise coexistent by construction
    branches = core.unstack(qm.random_experiment(2, 801).branches)
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            ok = ok and core.coexistent(branches[i], branches[j])
    _verdict(capsys, "8 Banach: submultiplicative, contraction, coexistence", ok)


def test_criterion_9_no_signaling(capsys):
    rng = np.random.default_rng(900)
    ok = True
    for _ in range(100):
        joint = qm.random_state(4, rng)
        exp = qm.random_experiment(2, rng)
        ok = ok and qm.signaling_residual(joint, exp) <= 1e-9
    # selective conditioning does change the far state
    phi = qm.max_entangled(2)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    _, cond = qm.condition_local(phi, qm.projector_map(core.quantum(2), p0), 1)
    dist = ch.trace_distance(
        qm.local_state(cond, 2).matrix, qm.local_state(phi, 2).matrix
    )
    ok = ok and dist > 0.1
    _verdict(capsys, "9 no-signaling on 100 joints; conditioning witness moves", ok)


def test_criterion_10_determinism(capsys):
    spec = cli.TheorySpec(backend="quantum", d=2, seed=42)
    first = cli.emit_report(cli.run_suite(spec, "all"), "structured")
    second = cli.emit_report(cli.run_suite(spec, "all"), "structured")
    ok = first == second and "status = fail" not in first
    text1 = cli.emit_report(cli.run_suite(spec, "all"), "text")
    text2 = cli.emit_report(cli.run_suite(spec, "all"), "text")
    ok = ok and text1 == text2
    _verdict(capsys, "10 byte-identical reports for suite all, seed 42", ok)
