"""Reference objects and predicates that only the tests use: the qubit
reference observables, the Kraus superoperator, the joint bilinear form
and its absolute value, the involution on states, and the pass
predicates of a dimension table."""

import numpy as np

from opcal import channels as ch
from opcal.basis import hermitian_basis, to_coords
from opcal.core import Effect, Observable, State, quantum
from opcal.errors import ConeViolation

# ---------------------------------------------------------------------------
# reference observables


def sic_povm_qubit():
    """Tetrahedron POVM: four subnormalized projectors along the
    tetrahedral Bloch directions; minimal informationally complete."""
    th = quantum(2)
    dirs = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    effs = [
        Effect(th, (np.eye(2) + n[0] * sx + n[1] * sy + n[2] * sz) / 4.0)
        for n in dirs
    ]
    return Observable(tuple(effs))


def pauli_povm_qubit():
    """Six-outcome observable from the +-x, +-y, +-z projectors, each
    weighted by 1/3; informationally complete but not minimal."""
    th = quantum(2)
    vs = [
        np.array([1, 1]) / np.sqrt(2),
        np.array([1, -1]) / np.sqrt(2),
        np.array([1, 1j]) / np.sqrt(2),
        np.array([1, -1j]) / np.sqrt(2),
        np.array([1, 0]),
        np.array([0, 1]),
    ]
    effs = [Effect(th, np.outer(v, np.conj(v)) / 3.0) for v in vs]
    return Observable(tuple(effs))


# ---------------------------------------------------------------------------
# maps and forms


def kraus_to_super(kraus):
    """Superoperator sum_k K kron conj(K) of Kraus operators."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d = ks[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        s += np.kron(k, k.conj())
    return s


def bilinear_form(phi, a, b):
    """Joint pairing Phi(A, B) with effect A on slot 1 and B on slot 2."""
    m = np.kron(a.matrix, b.matrix)
    return float(np.real(np.trace(phi.matrix @ m)))


def abs_form(split, a, b):
    """|Phi|(A, B), the strictly positive scalar product on effects."""
    ca = to_coords(a.matrix, hermitian_basis(split.d))
    cb = to_coords(b.matrix, hermitian_basis(split.d))
    return float(ca @ split.gram_abs @ cb)


def state_sigma(split, omega, tol=1e-9):
    """Involution on states, omega^sigma(A) = omega(sigma(A))."""
    out = split.flip(omega.matrix)
    if ch.min_eig(out) < -tol:
        raise ConeViolation("involution left the state cone")
    return State(omega.theory, out / np.real(np.trace(out)))


# ---------------------------------------------------------------------------
# dimension tables


def passes(report, name):
    """Whether the named identity of a dimension table holds."""
    return report.row(name)[2]


def all_pass(report):
    """Whether every identity of a dimension table holds."""
    return all(ok for _, _, _, ok in report.rows)
