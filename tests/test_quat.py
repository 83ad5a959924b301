"""Unit and property tests for the scalar quaternion layer."""

import ast
from pathlib import Path

import numpy as np
import pytest

import qreduce
from qreduce.errors import StructureError
from qreduce.quat import (
    E1,
    E2,
    QTENSOR,
    Frame,
    ImaginaryUnit,
    Quaternion,
    STANDARD_FRAME,
    UNIT_E2,
    conj4,
    frame_complete,
    from_frame,
    matmul4,
    mul4,
    sphere_representative,
    symplectic_join,
    symplectic_split,
    to_frame,
)

ONE = Quaternion(1.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def hamilton_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Hamilton product written out term by term, broadcasting over
    leading axes: an independent reference for the structure-tensor kernel."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion matrix product as a sum of reference entry products."""
    return hamilton_reference(a[..., :, :, None, :],
                              b[..., None, :, :, :]).sum(axis=-3)


def random_quaternion(rng) -> Quaternion:
    return Quaternion.from_array(rng.standard_normal(4))


def random_unit(rng) -> ImaginaryUnit:
    return ImaginaryUnit.from_vector(rng.standard_normal(3))


def test_unit_multiplication_table():
    assert abs(E1 * E2 - E3) <= 1e-12
    assert abs(E2 * E3 - E1) <= 1e-12
    assert abs(E3 * E1 - E2) <= 1e-12
    assert abs(E2 * E1 + E3) <= 1e-12
    for e in (E1, E2, E3):
        assert abs(e * e + ONE) <= 1e-12


def test_identity_element():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = random_quaternion(rng)
        assert abs(ONE * q - q) <= 1e-12
        assert abs(q * ONE - q) <= 1e-12


def test_multiplicative_norm():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        p = Quaternion.from_array(rng.standard_normal(4))
        q = Quaternion.from_array(rng.standard_normal(4))
        lhs = abs(p * q)
        rhs = abs(p) * abs(q)
        assert abs(lhs - rhs) <= 1e-12 * rhs + 1e-300


def test_conjugation_reverses_products():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p, q = random_quaternion(rng), random_quaternion(rng)
        assert abs((p * q).conjugate()
                   - q.conjugate() * p.conjugate()) <= 1e-12


def test_conj_and_norm_values():
    assert abs((ONE + E1).conjugate() - (ONE - E1)) <= 1e-12
    assert abs(Quaternion(1, 1, 1, 1)) == pytest.approx(2.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        q = random_quaternion(rng)
        prod = q.conjugate() * q
        assert prod.w == pytest.approx(abs(q) ** 2)
        assert np.linalg.norm(prod.vec) < 1e-12 * max(1.0, prod.w)


def test_associativity():
    rng = np.random.default_rng(19)
    for _ in range(200):
        a, b, c = (random_quaternion(rng) for _ in range(3))
        assert abs((a * b) * c - a * (b * c)) <= 1e-11


def test_vectorized_kernel_matches_scalar():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    prod = mul4(a, b)
    for row_a, row_b, row_p in zip(a, b, prod):
        expected = Quaternion.from_array(row_a) * Quaternion.from_array(row_b)
        np.testing.assert_allclose(row_p, expected.as_array(), atol=1e-13)
        np.testing.assert_allclose(row_p, hamilton_reference(row_a, row_b),
                                   atol=1e-13)
    np.testing.assert_allclose(conj4(a)[:, 0], a[:, 0])
    np.testing.assert_allclose(conj4(a)[:, 1:], -a[:, 1:])


def test_structure_tensor_is_the_hamilton_table():
    eye = np.eye(4)
    np.testing.assert_array_equal(mul4(eye[:, None], eye[None, :]), QTENSOR)
    np.testing.assert_array_equal(
        hamilton_reference(eye[:, None], eye[None, :]), QTENSOR)
    assert not QTENSOR.flags.writeable


def relative_error(got: np.ndarray, ref: np.ndarray, a: np.ndarray,
                   b: np.ndarray, terms: int) -> float:
    """Largest deviation over the rounding scale of a sum of `terms`
    quaternion products of entries of a and b."""
    assert got.shape == ref.shape
    scale = terms * np.abs(a).max() * np.abs(b).max()
    return float(np.abs(got - ref).max()) / scale


@pytest.mark.parametrize("c", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_kernel_matches_reference_on_package_shapes(n, c):
    """mul4 and matmul4 against the term-by-term reference on every shape
    the package multiplies, at tiny, unit and huge scales."""
    rng = np.random.default_rng(29 + n)

    def draw(*shape):
        return c * rng.standard_normal(shape + (4,))

    products = [((), ()), ((n,), ()), ((n, 1), (1, n))]
    for shape_a, shape_b in products:
        a, b = draw(*shape_a), draw(*shape_b)
        assert relative_error(mul4(a, b), hamilton_reference(a, b),
                              a, b, 1) <= 1e-15
    matmuls = [((n, n), (n, n)), ((n, n), (n, 1)), ((n, n), (n, 2 * n)),
               ((3, 1, n, n), (1, 5, n, n))]
    for shape_a, shape_b in matmuls:
        a, b = draw(*shape_a), draw(*shape_b)
        assert relative_error(matmul4(a, b), matmul_reference(a, b),
                              a, b, n) <= 1e-15


def test_hamilton_table_assigned_only_in_quat():
    """The product convention is written once: no module but `quat` assigns
    a structure tensor or spells out a 4x4 table of numbers."""
    def is_table(node):
        rows = getattr(node, "elts", None)
        return (isinstance(node, (ast.List, ast.Tuple)) and len(rows) == 4
                and all(isinstance(row, (ast.List, ast.Tuple))
                        and len(row.elts) == 4 for row in rows))

    src = Path(qreduce.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "quat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            targets = getattr(node, "targets", None) or [
                getattr(node, "target", None)]
            names = [sub.id for target in targets if target is not None
                     for sub in ast.walk(target) if isinstance(sub, ast.Name)]
            offenders += [(path.name, name) for name in names
                          if "tensor" in name.lower()]
            if is_table(node):
                offenders.append((path.name, node.lineno))
    assert offenders == []


def test_symplectic_split_example():
    q = Quaternion(1, 2, 3, 4)
    z1, z2 = symplectic_split(q, STANDARD_FRAME)
    assert z1 == pytest.approx(1 + 2j)
    assert z2 == pytest.approx(3 + 4j)
    # reconstruction via quaternion products: z1 + z2 * j
    jq = STANDARD_FRAME.j.as_quaternion()
    rebuilt = (Quaternion(z1.real) + STANDARD_FRAME.i.as_quaternion() * z1.imag
               + (Quaternion(z2.real) + STANDARD_FRAME.i.as_quaternion() * z2.imag) * jq)
    assert abs(rebuilt - q) <= 1e-14


def test_symplectic_split_degenerate_cases():
    z1, z2 = symplectic_split(Quaternion(2.5), STANDARD_FRAME)
    assert z1 == 2.5 and z2 == 0
    z1, z2 = symplectic_split(E2, STANDARD_FRAME)
    assert z1 == 0 and z2 == 1


def test_symplectic_roundtrip_random_frames():
    rng = np.random.default_rng(29)
    for _ in range(10_000):
        q = Quaternion.from_array(rng.standard_normal(4))
        f = frame_complete(random_unit(rng))
        z1, z2 = symplectic_split(q, f)
        assert abs(symplectic_join(z1, z2, f) - q) <= 1e-14


@pytest.mark.parametrize("shape", [(4,), (5, 4), (3, 5, 5, 4)])
def test_frame_coordinates_roundtrip_random_frames(shape):
    rng = np.random.default_rng(43)
    for _ in range(200):
        f = frame_complete(random_unit(rng))
        a = rng.standard_normal(shape)
        for back in (from_frame(to_frame(a, f), f), to_frame(from_frame(a, f), f)):
            assert back.shape == shape
            assert np.all(np.linalg.norm(back - a, axis=-1)
                          <= 1e-15 * np.linalg.norm(a, axis=-1))


def test_frame_coordinates_are_inner_products_with_axes():
    rng = np.random.default_rng(47)
    f = frame_complete(random_unit(rng))
    a = rng.standard_normal((6, 4))
    c = to_frame(a, f)
    np.testing.assert_array_equal(c[:, 0], a[:, 0])
    for m, axis in enumerate((f.i, f.j, f.k), start=1):
        np.testing.assert_allclose(c[:, m], a[:, 1:] @ axis.direction,
                                   rtol=0, atol=1e-15 * np.abs(a).max())


def test_standard_frame_coordinates_are_exact():
    rng = np.random.default_rng(53)
    for shape in [(4,), (5, 4), (3, 5, 5, 4)]:
        a = rng.standard_normal(shape)
        assert to_frame(a, STANDARD_FRAME).tobytes() == a.tobytes()
        assert from_frame(a, STANDARD_FRAME).tobytes() == a.tobytes()


def test_symplectic_split_of_arrays_matches_scalar_split():
    rng = np.random.default_rng(59)
    f = frame_complete(random_unit(rng))
    a = rng.standard_normal((3, 5, 4))
    z1, z2 = symplectic_split(a, f)
    assert z1.shape == z2.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        w1, w2 = symplectic_split(Quaternion.from_array(a[idx]), f)
        assert abs(z1[idx] - w1) <= 1e-15 * np.linalg.norm(a[idx], axis=-1)
        assert abs(z2[idx] - w2) <= 1e-15 * np.linalg.norm(a[idx], axis=-1)
    back = symplectic_join(z1, z2, f)
    assert back.shape == a.shape
    assert np.all(np.linalg.norm(back - a, axis=-1)
                  <= 1e-15 * np.linalg.norm(a, axis=-1))


def test_frame_rotation_used_only_in_quat():
    """The frame convention lives in `quat`: every other module reaches
    frame coordinates through to_frame/from_frame or the symplectic split."""
    src = Path(qreduce.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "quat.py" and ".rotation()" in path.read_text()]
    assert offenders == []


def test_frame_complete_standard_axis():
    f = frame_complete(ImaginaryUnit(np.array([1.0, 0, 0])))
    np.testing.assert_allclose(f.j.direction, [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(f.k.direction, [0, 0, 1], atol=1e-15)


def test_frame_complete_anticommutation():
    rng = np.random.default_rng(31)
    units = [UNIT_E2] + [random_unit(rng) for _ in range(200)]
    for unit in units:
        f = frame_complete(unit)
        iq, jq = f.i.as_quaternion(), f.j.as_quaternion()
        anti = iq * jq + jq * iq
        assert abs(anti) <= 1e-14
        assert abs(iq * jq - f.k.as_quaternion()) <= 1e-14
        assert abs(float(f.i.direction @ f.j.direction)) <= 1e-12


def test_invalid_frame_rejected():
    with pytest.raises(StructureError):
        Frame(ImaginaryUnit(np.array([1.0, 0, 0])),
              ImaginaryUnit(np.array([1.0, 0, 0])),
              ImaginaryUnit(np.array([0.0, 0, 1])))


def test_sphere_representative_examples():
    q = Quaternion(2, 0, 3, 0)
    rep = sphere_representative(q, ImaginaryUnit(np.array([1.0, 0, 0])))
    assert abs(rep - Quaternion(2, 3, 0, 0)) <= 1e-12
    assert abs(sphere_representative(Quaternion(-4.0), UNIT_E2)
               - Quaternion(-4.0)) <= 1e-12
    rep = sphere_representative(Quaternion(0, 1, 1, 1),
                                ImaginaryUnit(np.array([1.0, 0, 0])))
    assert abs(rep - Quaternion(0, np.sqrt(3), 0, 0)) <= 1e-12


def test_sphere_representative_similarity_invariance():
    rng = np.random.default_rng(37)
    unit = random_unit(rng)
    for _ in range(300):
        q = random_quaternion(rng)
        h = random_quaternion(rng)
        h = h * (1.0 / abs(h))
        conjugated = h * q * h.conjugate()
        a = sphere_representative(conjugated, unit)
        b = sphere_representative(q, unit)
        assert abs(a - b) <= 1e-12


def test_json_roundtrip():
    q = Quaternion(1, -2, 3.5, 0.25)
    assert abs(Quaternion.from_json(q.to_json()) - q) <= 1e-12
    f = frame_complete(ImaginaryUnit.from_vector([0.3, -1.2, 0.4]))
    g = Frame.from_json(f.to_json())
    np.testing.assert_allclose(g.rotation(), f.rotation(), atol=1e-15)
