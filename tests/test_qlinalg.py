"""Tests for the quaternionic matrix layer.

The scalar Quaternion class provides the independent slow path: matrix
products, inner products and adjoints are re-derived entrywise with
scalar arithmetic and compared against the vectorized implementations.
"""

import numpy as np
import pytest
import scipy.linalg

from qreduce import sampling
from qreduce.errors import (
    DimensionError,
    NotAntiSelfAdjoint,
    NotInImage,
    StructureError,
)
from qreduce.qlinalg import (
    QMatrix,
    QVector,
    block_symmetry_residual,
    classify_operator,
    commutator_norm,
    complex_embed,
    complex_unembed,
    expm_antihermitian,
    expm_antiselfadjoint,
    inner,
    operator_norm,
    polar_antiselfadjoint,
    spectral_projections,
)
from qreduce.quat import (
    E1,
    E2,
    Quaternion,
    STANDARD_FRAME,
    conj4,
    frame_complete,
    mul4,
)


def slow_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Entrywise scalar-quaternion oracle for the matrix product."""
    n = a.n
    data = np.zeros((n, n, 4))
    for m in range(n):
        for k in range(n):
            acc = Quaternion()
            for l in range(n):
                acc = acc + (Quaternion.from_array(a.data[m, l])
                             * Quaternion.from_array(b.data[l, k]))
            data[m, k] = acc.as_array()
    return QMatrix(data)


def slow_inner(v: QVector, u: QVector) -> Quaternion:
    acc = Quaternion()
    for m in range(v.n):
        acc = acc + (Quaternion.from_array(v.data[m]).conjugate()
                     * Quaternion.from_array(u.data[m]))
    return acc


def real_embedding(t: QMatrix) -> np.ndarray:
    """4n x 4n real representation: each entry q becomes the matrix of left
    multiplication by q on (w, x, y, z) coordinates."""
    n = t.n
    out = np.zeros((4 * n, 4 * n))
    for m in range(n):
        for k in range(n):
            w, x, y, z = t.data[m, k]
            out[4 * m:4 * m + 4, 4 * k:4 * k + 4] = [
                [w, -x, -y, -z],
                [x, w, -z, y],
                [y, z, w, -x],
                [z, -y, x, w],
            ]
    return out


def test_matmul_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        a, b = sampling.qmatrix(rng, n), sampling.qmatrix(rng, n)
        fast = a @ b
        slow = slow_matmul(a, b)
        np.testing.assert_allclose(fast.data, slow.data, atol=1e-12)


def test_inner_values_and_sesquilinearity():
    v = QVector(np.stack([Quaternion(1).as_array(), E1.as_array()]))
    u = QVector(np.stack([E2.as_array(), Quaternion(1).as_array()]))
    assert abs(inner(v, u) - (E2 - E1)) <= 1e-12

    rng = np.random.default_rng(1)
    for _ in range(50):
        v, u = sampling.qvector(rng, 3), sampling.qvector(rng, 3)
        assert abs(inner(v, u) - slow_inner(v, u)) <= 1e-12
        a, b = sampling.quaternion(rng), sampling.quaternion(rng)
        lhs = inner(v * a, u * b)
        rhs = (a.conjugate() * inner(v, u)) * b
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    with pytest.raises(DimensionError):
        inner(sampling.qvector(rng, 2), sampling.qvector(rng, 3))


def test_orthonormal_basis_inner():
    for m in range(3):
        for k in range(3):
            got = inner(QMatrix.identity(3).column(m),
                        QMatrix.identity(3).column(k))
            assert abs(got - Quaternion(1.0 if m == k else 0.0)) <= 1e-12


def test_right_linearity_of_matrix_action():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        t = sampling.qmatrix(rng, n)
        v = sampling.qvector(rng, n)
        a = sampling.quaternion(rng)
        lhs = t @ (v * a)
        rhs = (t @ v) * a
        bound = 1e-11 * (1.0 + t.frob() * v.norm() * abs(a))
        assert (lhs - rhs).norm() <= bound


def test_adjoint_involution_and_pairing():
    rng = np.random.default_rng(3)
    t = QMatrix.diag([E1, E1])
    assert (t.H + t).frob() == 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        t = sampling.qmatrix(rng, n)
        np.testing.assert_allclose(t.H.H.data, t.data)
        v, u = sampling.qvector(rng, n), sampling.qvector(rng, n)
        lhs = inner(t.H @ v, u)
        rhs = inner(v, t @ u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_embed_is_star_homomorphism():
    rng = np.random.default_rng(4)
    frames = [STANDARD_FRAME, frame_complete(sampling.imaginary_unit(rng))]
    for frame in frames:
        for _ in range(40):
            n = int(rng.integers(1, 5))
            a, b = sampling.qmatrix(rng, n), sampling.qmatrix(rng, n)
            ca, cb = complex_embed(a, frame), complex_embed(b, frame)
            prod_direct = complex_embed(a @ b, frame)
            assert np.linalg.norm(prod_direct - ca @ cb) <= 1e-11 * max(
                1.0, np.linalg.norm(ca) * np.linalg.norm(cb))
            np.testing.assert_allclose(complex_embed(a.H, frame), ca.conj().T,
                                       atol=1e-13)
            np.testing.assert_allclose(
                complex_embed(a + b, frame), ca + cb, atol=1e-13)
    np.testing.assert_allclose(complex_embed(QMatrix.identity(3)), np.eye(6),
                               atol=1e-15)


def test_embed_scalar_j():
    t = QMatrix.diag([E2])
    np.testing.assert_allclose(complex_embed(t), [[0, 1], [-1, 0]], atol=1e-15)
    back = complex_unembed(np.array([[0, 1], [-1, 0]], dtype=complex))
    np.testing.assert_allclose(back.data, t.data, atol=1e-15)


def test_embed_stack_matches_single():
    rng = np.random.default_rng(41)
    frame = frame_complete(sampling.imaginary_unit(rng))
    mats = [sampling.qmatrix(rng, 3) for _ in range(5)]
    stacked = complex_embed(np.stack([m.data for m in mats]), frame)
    assert stacked.shape == (5, 6, 6)
    for m, chi in zip(mats, stacked):
        np.testing.assert_array_equal(chi, complex_embed(m, frame))


def test_unembed_roundtrip_and_rejection():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        t = sampling.qmatrix(rng, n)
        back = complex_unembed(complex_embed(t))
        np.testing.assert_allclose(back.data, t.data, atol=1e-12)
    with pytest.raises(NotInImage):
        complex_unembed(np.array([[1, 0], [0, 2]], dtype=complex))
    # the residual is relative and taken on the exactly scaled matrix, so
    # the test holds where squared entries overflow, and a NaN fails it
    t = sampling.qmatrix(rng, 2) * 1e200
    back = complex_unembed(complex_embed(t))
    np.testing.assert_allclose(back.data, t.data, rtol=1e-12)
    with pytest.raises(NotInImage):
        complex_unembed(np.array([[1, 0], [0, 2]], dtype=complex) * 1e200)
    with pytest.raises(NotInImage):
        complex_unembed(np.full((2, 2), np.nan, dtype=complex))
    assert block_symmetry_residual(np.eye(4, dtype=complex)) == 0.0


def test_unembed_rejects_at_every_scale():
    """The block-symmetry test is relative to the matrix at every scale, so
    a random complex matrix far from the image is rejected at 1e-11 and
    1e-300 as at scale 1."""
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for scale in (1.0, 1e-11, 1e-300):
        with pytest.raises(NotInImage):
            complex_unembed(mat * scale)


def test_operator_norm():
    assert operator_norm(QMatrix.identity(4)) == pytest.approx(1.0)
    q = Quaternion(1, 2, -2, 0)  # |q| = 3
    assert operator_norm(QMatrix.diag([q, q])) == pytest.approx(3.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = sampling.qmatrix(rng, 3)
        f1 = frame_complete(sampling.imaginary_unit(rng))
        f2 = frame_complete(sampling.imaginary_unit(rng))
        n1 = np.linalg.norm(complex_embed(t, f1), 2)
        n2 = np.linalg.norm(complex_embed(t, f2), 2)
        assert abs(n1 - n2) <= 1e-11 * max(1.0, n1)


def test_classify_operator_flags():
    flags = classify_operator(QMatrix.identity(3))
    assert flags.selfadjoint and flags.unitary and flags.normal and flags.projection
    assert not flags.antiselfadjoint

    flags = classify_operator(QMatrix.diag([E1, E1, E1]))
    assert flags.antiselfadjoint and flags.unitary and flags.normal
    assert not flags.selfadjoint and not flags.projection

    rng = np.random.default_rng(8)
    v = sampling.unit_qvector(rng, 3)
    flags = classify_operator(
        QMatrix(mul4(v.data[:, None, :], conj4(v.data)[None, :, :])))
    assert flags.selfadjoint and flags.normal and flags.projection
    assert not flags.unitary


def test_spectral_projections_partition_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        t = sampling.selfadjoint(rng, n)
        pairs = spectral_projections(t)
        total = QMatrix.zeros(n)
        rebuilt = QMatrix.zeros(n)
        for lam, proj in pairs:
            flags = classify_operator(proj, tol=1e-8)
            assert flags.projection
            total = total + proj
            rebuilt = rebuilt + proj * lam
        assert (total - QMatrix.identity(n)).frob() <= 1e-8
        assert (rebuilt - t).frob() <= 1e-7 * max(1.0, t.frob())


def test_spectral_projections_unembed_as_complex_unembed():
    """The projections are unembedded as one stack, with the entries that
    complex_unembed gives each one, on simple and repeated spectra; the
    stacked block-symmetry residual is the residual of each matrix."""
    rng = np.random.default_rng(18)
    for n in (1, 3, 8):
        u = sampling.unitary(rng, n)
        repeated = QMatrix.diag([Quaternion(float(k % 2), 0.0, 0.0, 0.0)
                                 for k in range(n)])
        for t in (sampling.selfadjoint(rng, n), u @ repeated @ u.H):
            chi = complex_embed(t)
            vals, vecs = np.linalg.eigh(0.5 * (chi + chi.conj().T))
            cuts = np.flatnonzero(np.diff(vals) > 1e-7 * np.abs(vals).max()) + 1
            blocks = [b @ b.conj().T for b in np.split(vecs, cuts, axis=1)]
            pairs = spectral_projections(t)
            assert len(pairs) == len(blocks)
            for (_, proj), block in zip(pairs, blocks):
                np.testing.assert_array_equal(
                    proj.data, complex_unembed(block, tol=1e-7).data)
            stacked = block_symmetry_residual(np.stack(blocks))
            np.testing.assert_allclose(
                stacked, [block_symmetry_residual(b) for b in blocks],
                rtol=1e-12, atol=1e-30)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectral_projections_invariant_under_scaling():
    """The clusters are cut relative to the spectrum, so a scaled operator
    has the same projections, not one projection below unit scale."""
    rng = np.random.default_rng(17)
    t = sampling.selfadjoint(rng, 3)
    expected = spectral_projections(t)
    assert len(expected) == 3
    for c in (1e-8, 1e-150, 1e150):
        got = spectral_projections(t * c)
        assert len(got) == len(expected), c
        for (lam, proj), (lam_1, proj_1) in zip(got, expected):
            assert abs(lam / c - lam_1) <= 1e-12 * abs(lam_1), c
            assert (proj - proj_1).frob() <= 1e-10, c


def test_polar_antiselfadjoint_diagonal_example():
    a = QMatrix.diag([E1 * 2.0, E2 * 3.0])
    j, m = polar_antiselfadjoint(a)
    np.testing.assert_allclose(m.data, QMatrix.diag(
        [Quaternion(2.0), Quaternion(3.0)]).data, atol=1e-9)
    np.testing.assert_allclose(j.data, QMatrix.diag([E1, E2]).data, atol=1e-9)


def test_polar_antiselfadjoint_postconditions_random():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        a = sampling.antiselfadjoint(rng, n)
        j, m = polar_antiselfadjoint(a)
        ident = QMatrix.identity(n)
        scale = max(1.0, a.frob())
        assert (j @ m - a).frob() <= 1e-9 * scale
        assert (m - m.H).frob() <= 1e-9 * scale
        assert (j.H + j).frob() <= 1e-9
        assert (j @ j + ident).frob() <= 1e-9
        assert (j.H @ j - ident).frob() <= 1e-9
        assert commutator_norm(j, m) <= 1e-9 * scale
        # positive semidefinite modulus
        vals = np.linalg.eigvalsh(complex_embed(m))
        assert vals.min() >= -1e-9 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polar_antiselfadjoint_invariant_under_scaling():
    """J is the sign of the spectrum and the kernel is cut relative to it,
    so J(cA) = J(A) and J |cA| = cA at every scale c."""
    rng = np.random.default_rng(18)
    a = sampling.antiselfadjoint(rng, 3)
    j, _ = polar_antiselfadjoint(a)
    for c in (1e-11, 1e-150, 1e150):
        jc, mc = polar_antiselfadjoint(a * c)
        assert (jc - j).frob() <= 1e-12, c
        # compared at unit scale: a squared entry of c A under- or overflows
        assert ((jc @ mc - a * c) * (1.0 / c)).frob() <= 1e-12 * a.frob(), c


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polar_antiselfadjoint_covariant_under_conjugation():
    """On an invertible A, J is the sign of the spectrum: a unitary
    conjugation moves it with A, and no scale c changes it."""
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 4, 8):
        for _ in range(4):
            a = sampling.antiselfadjoint(rng, n)
            u = sampling.unitary(rng, n)
            j, _ = polar_antiselfadjoint(a)
            conjugated = u @ a @ u.H
            for c in (1e-150, 1.0, 1e150):
                jc, _ = polar_antiselfadjoint(conjugated * c)
                assert (jc - u @ j @ u.H).frob() <= 1e-12, (n, c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polar_antiselfadjoint_raises_on_a_kernel():
    """J is not unique on a singular A, so every kernel dimension raises,
    named in the message, at every scale and after a conjugation."""
    rng = np.random.default_rng(20)
    for n in (2, 3, 4, 8):
        units = [sampling.imaginary_unit(rng).as_quaternion() * (1.0 + m)
                 for m in range(n)]
        u = sampling.unitary(rng, n)
        for k in range(1, n + 1):
            a = u @ QMatrix.diag(units[k:] + [Quaternion()] * k) @ u.H
            a = (a - a.H) * 0.5
            for c in (1e-150, 1.0, 1e150):
                with pytest.raises(StructureError,
                                   match=f"quaternionic dimension {k},"):
                    polar_antiselfadjoint(a * c)


def test_polar_invertible_reproduces_input():
    rng = np.random.default_rng(13)
    units = [sampling.imaginary_unit(rng).as_quaternion() for _ in range(3)]
    a = QMatrix.diag([u * (1.0 + k) for k, u in enumerate(units)])
    j, m = polar_antiselfadjoint(a)
    assert (j @ m - a).frob() <= 1e-9 * a.frob()


def test_polar_rejects_non_antiselfadjoint():
    with pytest.raises(NotAntiSelfAdjoint):
        polar_antiselfadjoint(QMatrix.identity(2))
    with pytest.raises(NotAntiSelfAdjoint):           # |A| overflows
        polar_antiselfadjoint(QMatrix.identity(2) * 1e200)
    with pytest.raises(NotAntiSelfAdjoint):           # relative below 1 too
        polar_antiselfadjoint(QMatrix.identity(2) * 1e-11)
    with pytest.raises(NotAntiSelfAdjoint):
        polar_antiselfadjoint(QMatrix(np.full((2, 2, 4), np.nan)))


def _antihermitian_cases(rng, n):
    """A random anti-Hermitian matrix, chi of a random anti-selfadjoint
    quaternionic one (spectrum in pairs +-i lam), and chi of a scalar
    imaginary unit (two eigenvalues, each n-fold)."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    unit = sampling.imaginary_unit(rng).as_quaternion()
    return [0.5 * (raw - raw.conj().T),
            complex_embed(sampling.antiselfadjoint(rng, n)),
            complex_embed(QMatrix.scalar(n, unit))]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_expm_antihermitian_matches_scipy_oracle(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        for m in _antihermitian_cases(rng, n):
            for t in (1e-3, 0.5, 1.0, 7.0, 50.0):
                tm = t * m
                u = expm_antihermitian(tm)
                scale = max(1.0, np.linalg.norm(tm, 2))
                assert np.linalg.norm(u - scipy.linalg.expm(tm)) \
                    <= 1e-12 * scale
                assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) \
                    <= 1e-13


def test_expm_antiselfadjoint_matches_scipy_oracle():
    rng = np.random.default_rng(48)
    for n in (1, 2, 4, 8):
        a = sampling.antiselfadjoint(rng, n)
        got = complex_embed(expm_antiselfadjoint(a))
        oracle = scipy.linalg.expm(complex_embed(a))
        assert np.linalg.norm(got - oracle) <= 1e-12 * max(1.0, a.frob())


def test_expm_rejects_non_antiselfadjoint():
    with pytest.raises(StructureError):
        expm_antiselfadjoint(QMatrix.identity(2))
    with pytest.raises(StructureError):               # |A| overflows
        expm_antiselfadjoint(QMatrix.identity(2) * 1e200)
    with pytest.raises(StructureError):
        expm_antiselfadjoint(QMatrix(np.full((2, 2, 4), np.nan)))


def test_json_roundtrips():
    rng = np.random.default_rng(16)
    t = sampling.qmatrix(rng, 3)
    np.testing.assert_allclose(QMatrix.from_json(t.to_json()).data, t.data)
    v = sampling.qvector(rng, 3)
    np.testing.assert_allclose(QVector.from_json(v.to_json()).data, v.data)
