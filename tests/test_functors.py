"""Tests for scalar extension/restriction and the internal constructions."""

import dataclasses

import numpy as np
import pytest

from qreduce import sampling
from qreduce.algebra import StarAlgebra, classify_irreducible
from qreduce.errors import (
    DimensionError,
    DoesNotCommute,
    StructureError,
)
from qreduce.functors import (
    SplitSpace,
    extend_from_plus,
    internal_complexify,
    internal_quaternionify,
    real_subspace_and_left_mult,
    restrict_to_plus,
    split_plus_minus,
)
from qreduce.qlinalg import (
    QMatrix,
    QVector,
    classify_operator,
    commutator_residual,
    inner,
    operator_norm,
)
from qreduce.quat import (
    E1,
    E2,
    Quaternion,
    UNIT_E1,
    symplectic_join,
    symplectic_split,
)

E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def complex_flags(mat: np.ndarray, tol: float = 1e-10) -> dict:
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    adj = mat.conj().T
    scale = max(1.0, np.linalg.norm(mat))
    return {
        "selfadjoint": np.linalg.norm(mat - adj) <= tol * scale,
        "antiselfadjoint": np.linalg.norm(mat + adj) <= tol * scale,
        "unitary": np.linalg.norm(adj @ mat - np.eye(n)) <= tol * scale**2,
        "normal": np.linalg.norm(mat @ adj - adj @ mat) <= tol * scale**2,
        "projection": (np.linalg.norm(mat @ mat - mat) <= tol * scale**2
                       and np.linalg.norm(mat - adj) <= tol * scale),
    }


# ---------------------------------------------------------------------------
# scalar extension: QMatrix.from_real and QMatrix.from_complex


def test_extend_real_rotation_preserves_flags():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lifted = QMatrix.from_real(rot)
    flags = classify_operator(lifted)
    assert flags.antiselfadjoint and flags.unitary
    assert operator_norm(lifted) == pytest.approx(np.linalg.norm(rot, 2))


def test_extend_identity_and_composition():
    ident = np.eye(3)
    as_h = QMatrix.from_real(ident)
    assert (as_h - QMatrix.identity(3)).frob() == 0.0
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 3))
    via_c = QMatrix.from_complex(t.astype(complex))
    direct = QMatrix.from_real(t)
    np.testing.assert_array_equal(via_c.data, direct.data)


def test_extension_ledger_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        t = rng.standard_normal((n, n))
        lifted = QMatrix.from_real(t)
        assert operator_norm(lifted) == pytest.approx(
            np.linalg.norm(t, 2), abs=1e-9)
        np.testing.assert_allclose(lifted.H.data, QMatrix.from_real(t.T).data)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lifted_c = QMatrix.from_complex(c)
        assert operator_norm(lifted_c) == pytest.approx(
            np.linalg.norm(c, 2), abs=1e-9)
        np.testing.assert_allclose(
            lifted_c.H.data, QMatrix.from_complex(c.conj().T).data,
            atol=1e-14)


def test_extension_flag_ledger():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = 0.5 * (c + c.conj().T)
        for mat in (herm, c - c.conj().T, herm @ herm):
            want = complex_flags(mat)
            got = dataclasses.asdict(
                classify_operator(QMatrix.from_complex(mat)))
            assert got == want


# ---------------------------------------------------------------------------
# split_plus_minus


def test_split_diagonal_j():
    n = 3
    j = QMatrix.diag([E1] * n)
    space = split_plus_minus(j, UNIT_E1)
    assert space.n == n
    # the standard basis lies in H+, so the extracted basis spans it
    for m in range(n):
        v1, v2 = components(QMatrix.identity(n).column(m), space)
        assert np.linalg.norm(v2) <= 1e-12
        assert np.linalg.norm(v1) == pytest.approx(1.0)


def test_split_rejects_bad_j():
    with pytest.raises(StructureError):
        split_plus_minus(QMatrix.identity(2), UNIT_E1)


def test_split_j_map_lands_in_minus():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        j = sampling.anti_unit(rng, n)
        unit = sampling.imaginary_unit(rng)
        space = split_plus_minus(j, unit)
        jq = space.frame.j.as_quaternion()
        iq = space.frame.i.as_quaternion()
        for b in space.plus_basis():
            assert ((j @ b) - b * iq).norm() <= 1e-10
            flipped = b * jq
            assert ((j @ flipped) + flipped * iq).norm() <= 1e-10
        # orthonormality of the basis
        for a in range(n):
            for c in range(n):
                want = Quaternion(1.0 if a == c else 0.0)
                got = inner(space.plus_basis()[a], space.plus_basis()[c])
                assert abs(got - want) <= 1e-10


def test_split_unitary_conjugation_moves_basis():
    rng = np.random.default_rng(4)
    n = 3
    j = QMatrix.diag([E1] * n)
    u = sampling.unitary(rng, n)
    moved = u @ j @ u.H
    space = split_plus_minus(moved, UNIT_E1)
    assert space.n == n
    # U maps the old plus space onto the new one
    old = split_plus_minus(j, UNIT_E1)
    iq = space.frame.i.as_quaternion()
    for b in old.plus_basis():
        w = u @ b
        assert ((moved @ w) - w * iq).norm() <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_split_basis_is_a_function_of_j(n):
    """J and (J U) U* differ by rounding only, so their plus bases agree:
    the basis is picked from the columns of P+, a function of (J, i)."""
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        j = sampling.anti_unit(rng, n)
        u = sampling.unitary(rng, n)
        unit = sampling.imaginary_unit(rng)
        basis = split_plus_minus(j, unit).basis
        moved = split_plus_minus((j @ u) @ u.H, unit).basis
        assert np.abs(basis.data - moved.data).max() <= 1e-12


def components(v: QVector, space: SplitSpace) -> tuple[np.ndarray, np.ndarray]:
    """Plus-basis coordinates (v1, v2), v = sum_m b_m v1_m + sum_m b_m v2_m * j.

    The same basis-then-frame split that `restrict_to_plus` applies to
    operators, here on a vector.
    """
    return symplectic_split((space.basis.H @ v).data, space.frame)


def from_components(v1: np.ndarray, v2: np.ndarray,
                    space: SplitSpace) -> QVector:
    """Inverse of :func:`components`, as `extend_from_plus` lifts operators."""
    return space.basis @ QVector(symplectic_join(v1, v2, space.frame))


def test_components_basis_vectors_and_roundtrip():
    rng = np.random.default_rng(5)
    n = 3
    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, UNIT_E1)
    b0 = space.plus_basis()[0]
    v1, v2 = components(b0, space)
    np.testing.assert_allclose(v1, np.eye(n)[0], atol=1e-12)
    np.testing.assert_allclose(v2, 0, atol=1e-12)
    flipped = b0 * space.frame.j.as_quaternion()
    v1, v2 = components(flipped, space)
    np.testing.assert_allclose(v1, 0, atol=1e-12)
    np.testing.assert_allclose(v2, np.eye(n)[0], atol=1e-12)
    for _ in range(30):
        v = sampling.qvector(rng, n)
        v1, v2 = components(v, space)
        assert (from_components(v1, v2, space) - v).norm() <= 1e-10


@pytest.mark.parametrize("n", [1, 3, 8])
def test_components_roundtrip_random_axis(n):
    rng = np.random.default_rng(60 + n)
    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, sampling.imaginary_unit(rng))
    i_dir, j_dir, k_dir = (space.frame.i.direction, space.frame.j.direction,
                           space.frame.k.direction)
    for _ in range(10):
        v = sampling.qvector(rng, n)
        v1, v2 = components(v, space)
        assert v1.shape == v2.shape == (n,)
        # entrywise reference: coordinates of <b_m, v> along the frame
        coords = (space.basis.H @ v).data
        np.testing.assert_allclose(v1, coords[:, 0] + 1j * (coords[:, 1:] @ i_dir),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(v2, coords[:, 1:] @ j_dir
                                   + 1j * (coords[:, 1:] @ k_dir),
                                   rtol=0, atol=1e-14)
        assert (from_components(v1, v2, space) - v).norm() <= 1e-12 * v.norm()
        c = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        w1, w2 = components(from_components(c[0], c[1], space), space)
        assert np.linalg.norm(np.concatenate([w1 - c[0], w2 - c[1]])) \
            <= 1e-12 * np.linalg.norm(c)


def test_restrict_j_gives_scalar_i():
    rng = np.random.default_rng(6)
    n = 3
    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, UNIT_E1)
    got = restrict_to_plus(j, space)
    np.testing.assert_allclose(got, 1j * np.eye(n), atol=1e-10)
    np.testing.assert_allclose(
        restrict_to_plus(QMatrix.identity(n), space), np.eye(n), atol=1e-12)


def test_restrict_extend_roundtrips():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        j = sampling.anti_unit(rng, n)
        space = split_plus_minus(j, sampling.imaginary_unit(rng))
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lifted = extend_from_plus(mat, space)
        assert (lifted @ j - j @ lifted).frob() <= 1e-10 * max(1.0, lifted.frob())
        np.testing.assert_allclose(restrict_to_plus(lifted, space), mat,
                                   atol=1e-10 * max(1.0, np.linalg.norm(mat)))
        # reverse composition is the identity on commuting operators
        back = extend_from_plus(restrict_to_plus(lifted, space), space)
        assert (back - lifted).frob() <= 1e-10 * max(1.0, lifted.frob())
        # norm and flag agreement
        assert operator_norm(lifted) == pytest.approx(
            np.linalg.norm(mat, 2), abs=1e-9)
        herm = 0.5 * (mat + mat.conj().T)
        lifted_h = extend_from_plus(herm, space)
        assert classify_operator(lifted_h, tol=1e-9).selfadjoint
        assert dataclasses.asdict(classify_operator(
            lifted_h, tol=1e-9)) == complex_flags(herm, tol=1e-9)


def test_restrict_requires_commutation():
    rng = np.random.default_rng(8)
    n = 3
    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, UNIT_E1)
    with pytest.raises(DoesNotCommute):
        restrict_to_plus(sampling.qmatrix(rng, n), space)
    # the squared entries overflow at this scale; the guard fires anyway
    with pytest.raises(DoesNotCommute):
        restrict_to_plus(sampling.qmatrix(rng, n) * 1e200, space)


def test_restrict_requires_commutation_at_small_scale():
    """The commutation guard is relative at every scale: 1e-11 X and
    1e-300 X are rejected like X, for an X that does not commute with J."""
    rng = np.random.default_rng(8)
    n = 3
    space = split_plus_minus(sampling.anti_unit(rng, n), UNIT_E1)
    x = sampling.qmatrix(rng, n)
    for scale in (1e-11, 1e-300):
        with pytest.raises(DoesNotCommute):
            restrict_to_plus(x * scale, space)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_stacked_restriction_and_extension_match_member_calls(n):
    """A stack of J-commuting members at scales 1e-300, 1 and 1e200
    restricts and extends to exactly what member-by-member calls give."""
    rng = np.random.default_rng(70 + n)
    space = split_plus_minus(sampling.anti_unit(rng, n),
                             sampling.imaginary_unit(rng))
    members = [extend_from_plus(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)), space) * c
               for c in (1e-300, 1.0, 1e200)]
    restricted = restrict_to_plus(np.stack([t.data for t in members]), space)
    assert restricted.shape == (3, n, n)
    for got, t in zip(restricted, members):
        np.testing.assert_array_equal(got, restrict_to_plus(t, space))
    extended = extend_from_plus(restricted, space)
    assert extended.shape == (3, n, n, 4)
    for got, mat in zip(extended, restricted):
        np.testing.assert_array_equal(got, extend_from_plus(mat, space).data)


def test_stacked_guard_reports_the_failing_member_undiluted():
    """One 1e-11 X that does not commute with J, among commuting members
    at 1 and 1e200, raises with its own relative residual and its index,
    not with a residual diluted by the stack's largest member."""
    rng = np.random.default_rng(75)
    n = 3
    space = split_plus_minus(sampling.anti_unit(rng, n), UNIT_E1)
    good = [extend_from_plus(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)), space)
            for _ in range(2)]
    x = sampling.qmatrix(rng, n) * 1e-11
    stack = np.stack([good[0].data, x.data, good[1].data * 1e200])
    with pytest.raises(DoesNotCommute, match="operator 1 does not") as info:
        restrict_to_plus(stack, space)
    assert info.value.residual > 1e-2
    assert info.value.residual == pytest.approx(
        commutator_residual(space.J, x), rel=1e-12)


def test_stacked_guard_rejects_a_nan_member():
    rng = np.random.default_rng(76)
    n = 2
    space = split_plus_minus(sampling.anti_unit(rng, n), UNIT_E1)
    stack = np.stack([QMatrix.identity(n).data] * 3)
    stack[2, 0, 1, 2] = np.nan
    with pytest.raises(DoesNotCommute, match="operator 2 does not"):
        restrict_to_plus(stack, space)


def test_complex_op_roundtrip_through_quaternions():
    # i*I on C^2 lifts to diag(e1, e1); restricting through its own split
    # space recovers i*I
    mat = 1j * np.eye(2)
    lifted = QMatrix.from_complex(mat)
    np.testing.assert_allclose(lifted.data, QMatrix.diag([E1, E1]).data)
    space = split_plus_minus(lifted, UNIT_E1)
    np.testing.assert_allclose(restrict_to_plus(lifted, space), mat, atol=1e-10)


def test_split_space_json_roundtrip():
    rng = np.random.default_rng(9)
    j = sampling.anti_unit(rng, 2)
    space = split_plus_minus(j, sampling.imaginary_unit(rng))
    clone = SplitSpace.from_json(space.to_json())
    np.testing.assert_allclose(clone.J.data, space.J.data)
    np.testing.assert_allclose(clone.basis.data, space.basis.data)


# ---------------------------------------------------------------------------
# internal constructions


def test_internal_complexify_rotation():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    theta = 0.7321
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    report = internal_complexify([rot], j)
    assert report.dim == 1
    np.testing.assert_allclose(report.basis[:, 0], [1.0, 0.0])
    assert report.matrices[0][0, 0] == pytest.approx(np.exp(1j * theta))


def test_internal_complexify_block_and_invariants():
    rng = np.random.default_rng(10)
    n = 4
    block = np.kron(np.eye(n // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    # polynomials in block commute with it
    commuting = [np.eye(n) + 0.3 * block, block @ block + 0.1 * block]
    report = internal_complexify(commuting, block)
    assert report.dim == 2
    # v and Jv are orthogonal, and the induced norm matches the real norm
    for _ in range(100):
        v = rng.standard_normal(n)
        assert abs(v @ (block @ v)) <= 1e-12 * (v @ v)
        assert report.inner(v, v).real == pytest.approx(v @ v)
        assert report.inner(v, v).imag == pytest.approx(0.0, abs=1e-12)


def test_internal_complexify_matrix_represents_action():
    rng = np.random.default_rng(11)
    n = 6
    # random antisymmetric orthogonal J via exponent trick
    import scipy.linalg
    skew = rng.standard_normal((n, n))
    skew = skew - skew.T
    w = scipy.linalg.expm(skew)
    base = np.kron(np.eye(n // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    j = w @ base @ w.T
    t = 0.5 * np.eye(n) + 0.25 * j  # commutes with j
    report = internal_complexify([t], j)
    mat = report.matrices[0]
    for m in range(report.dim):
        vm = report.basis[:, m]
        image = t @ vm
        # a * v = Re(a) v + Im(a) J v on the complexified space
        rebuilt = sum(mat[k, m].real * report.basis[:, k]
                      + mat[k, m].imag * (j @ report.basis[:, k])
                      for k in range(report.dim))
        np.testing.assert_allclose(image, rebuilt, atol=1e-10)


def test_internal_complexify_basis_orthonormal_for_near_aligned_j():
    """J = W blockdiag(R, R) W^T with W a rotation by theta = 1e-7 in the
    (e2, e3) plane, R the rotation by pi/2: the part of e2 orthogonal to
    (e1, J e1) has norm about theta, and the basis must not divide the
    rounding of J by it."""
    theta = 1e-7
    c, s = np.cos(theta), np.sin(theta)
    w = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, c, -s, 0.0],
                  [0.0, s, c, 0.0], [0.0, 0.0, 0.0, 1.0]])
    j = w @ np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])) @ w.T
    v = internal_complexify([], j).basis
    b = np.concatenate([v, j @ v], axis=1)
    assert np.linalg.norm(b.T @ b - np.eye(4)) <= 1e-14


def test_internal_complexify_errors():
    with pytest.raises(DimensionError):
        internal_complexify([], np.zeros((3, 3)))
    j = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(DoesNotCommute):
        internal_complexify([np.diag([1.0, 2.0, 3.0, 4.0])], j)
    # the guard compares a relative residual of the binary-scaled operator,
    # so it still fires where |[T, J]| and |T| would both overflow, and on
    # a NaN
    with pytest.raises(DoesNotCommute):
        internal_complexify([1e200 * np.diag([1.0, 2.0, 3.0, 4.0])], j)
    with pytest.raises(DoesNotCommute):
        internal_complexify([np.full((4, 4), np.nan)], j)
    with pytest.raises(StructureError):
        internal_complexify([], np.full((4, 4), np.nan))


def left_mult_matrices():
    """Real 4x4 matrices of left multiplication by e1 and e2 on (w,x,y,z)."""
    i_op = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    j_op = np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    return i_op, j_op


def test_internal_quaternionify_r4():
    i_op, j_op = left_mult_matrices()
    report = internal_quaternionify([np.eye(4)], i_op, j_op)
    assert report.dim == 1
    v = report.basis[:, 0]
    tuple_mat = np.stack([v, i_op @ v, j_op @ v, j_op @ (i_op @ v)], axis=1)
    np.testing.assert_allclose(tuple_mat.T @ tuple_mat, np.eye(4), atol=1e-12)
    assert abs(report.inner(v, v) - Quaternion(1.0)) <= 1e-12


def test_internal_quaternionify_n8_and_norm():
    rng = np.random.default_rng(12)
    i4, j4 = left_mult_matrices()
    i_op, j_op = np.kron(np.eye(2), i4), np.kron(np.eye(2), j4)
    report = internal_quaternionify([np.eye(8), 2.0 * np.eye(8)], i_op, j_op)
    assert report.dim == 2
    for _ in range(50):
        v = rng.standard_normal(8)
        q = report.inner(v, v)
        assert q.w == pytest.approx(v @ v)
        assert np.linalg.norm(q.vec) <= 1e-11 * (v @ v)


def test_internal_quaternionify_right_action_consistency():
    i_op, j_op = left_mult_matrices()
    report = internal_quaternionify([], i_op, j_op)
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = rng.standard_normal(4)
        a = sampling.quaternion(rng)
        # compatibility: <v, u*a> = <v, u> a, with the right action
        # u*a = a0 u + a1 I u + a2 J u + a3 J I u
        u = rng.standard_normal(4)
        u_a = (a.w * u + a.x * (i_op @ u) + a.y * (j_op @ u)
               + a.z * (j_op @ (i_op @ u)))
        got = report.inner(v, u_a)
        want = report.inner(v, u) * a
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_internal_quaternionify_errors():
    i_op, j_op = left_mult_matrices()
    with pytest.raises(DimensionError):
        internal_quaternionify([], i_op[:3, :3], j_op[:3, :3])
    with pytest.raises(StructureError):
        internal_quaternionify([], i_op, i_op)
    with pytest.raises(DoesNotCommute):
        internal_quaternionify([np.diag([1.0, 2, 3, 4])], i_op, j_op)
    with pytest.raises(DoesNotCommute):
        internal_quaternionify([1e200 * np.diag([1.0, 2, 3, 4])], i_op, j_op)
    with pytest.raises(StructureError):
        internal_quaternionify([], np.full((4, 4), np.nan), j_op)



# ---------------------------------------------------------------------------
# real subspace and left multiplication


def test_left_mult_scalar_case():
    i_op = QMatrix.diag([E1])
    j_op = QMatrix.diag([E2])
    left = real_subspace_and_left_mult(i_op, j_op)
    assert left.n == 1
    b = left.real_basis.column(0)
    # H_R is the real axis: the basis vector is +-1
    assert abs(abs(b.data[0, 0]) - 1.0) <= 1e-12
    for q in (E1, E2, E3, Quaternion(0.5, -1, 2, 0.25)):
        got = left.mat(q)
        np.testing.assert_allclose(got.data, QMatrix.diag([q]).data, atol=1e-12)


def test_left_mult_identity_and_homomorphism():
    rng = np.random.default_rng(16)
    n = 2
    w = sampling.unitary(rng, n)
    i_op = w @ QMatrix.diag([E1] * n) @ w.H
    j_op = w @ QMatrix.diag([E2] * n) @ w.H
    left = real_subspace_and_left_mult(i_op, j_op)
    ident = left.mat(Quaternion(1.0))
    assert (ident - QMatrix.identity(n)).frob() <= 1e-10
    for _ in range(40):
        a, b = sampling.quaternion(rng), sampling.quaternion(rng)
        lhs = left.mat(a) @ left.mat(b)
        rhs = left.mat(a * b)
        assert (lhs - rhs).frob() <= 1e-10 * max(1.0, abs(a) * abs(b))
    m_i, m_j, m_k = left.unit_mats()
    assert (m_i - i_op).frob() <= 1e-9
    assert (m_j - j_op).frob() <= 1e-9
    assert (m_k - i_op @ j_op).frob() <= 1e-9


def test_left_mult_structure_errors():
    with pytest.raises(StructureError):
        real_subspace_and_left_mult(QMatrix.identity(2), QMatrix.diag([E2, E2]))
    with pytest.raises(StructureError):
        real_subspace_and_left_mult(QMatrix.diag([E1, E1]), QMatrix.diag([E1, E1]))
    with pytest.raises(StructureError):                    # NaN operator
        real_subspace_and_left_mult(
            QMatrix(np.full((2, 2, 4), np.nan)), QMatrix.diag([E2, E2]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_real_basis_is_a_function_of_the_pair(n):
    """(I, J) and ((I U) U*, (J U) U*) differ by rounding only, so their
    H_R bases agree."""
    rng = np.random.default_rng(50 + n)
    for _ in range(5):
        w = sampling.unitary(rng, n)
        i_op = w @ QMatrix.diag([E1] * n) @ w.H
        j_op = w @ QMatrix.diag([E2] * n) @ w.H
        u = sampling.unitary(rng, n)
        basis = real_subspace_and_left_mult(i_op, j_op).real_basis
        moved = real_subspace_and_left_mult((i_op @ u) @ u.H,
                                            (j_op @ u) @ u.H).real_basis
        assert np.abs(basis.data - moved.data).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_left_multiplication_exactly_on_real_induced_systems(n):
    """The classifier's (I, J) of a real-induced plant gives a left
    multiplication with M_i = I and M_j = J, and a complex-induced plant
    has no I; both hold after conjugation by a unitary and with the
    generators scaled by 1e-12 and 1e12."""
    rng = np.random.default_rng(70 + n)
    real_gens, _, _ = sampling.plant_real_induced(rng, n)
    complex_gens, _ = sampling.plant_complex_induced(rng, n)
    u = sampling.unitary(rng, n)
    for move in (lambda g: g, lambda g: u @ g @ u.H, lambda g: g * 1e-12,
                 lambda g: g * 1e12):
        verdict = classify_irreducible(StarAlgebra([move(g)
                                                    for g in real_gens]))
        assert verdict.kind == "RealInduced"
        m_i, m_j, _ = real_subspace_and_left_mult(verdict.I,
                                                  verdict.J).unit_mats()
        assert (m_i - verdict.I).frob() <= 1e-12
        assert (m_j - verdict.J).frob() <= 1e-12
        verdict = classify_irreducible(StarAlgebra([move(g)
                                                    for g in complex_gens]))
        assert verdict.kind == "ComplexInduced"
        assert verdict.I is None
