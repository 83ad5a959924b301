"""Unit and property tests for the scalar quaternion layer."""

from pathlib import Path

import numpy as np
import pytest

import qreduce
from qreduce.errors import StructureError
from qreduce.quat import (
    E1,
    E2,
    E3,
    ONE,
    Frame,
    ImaginaryUnit,
    Quaternion,
    STANDARD_FRAME,
    UNIT_E2,
    conj4,
    frame_complete,
    from_frame,
    mul4,
    norm4,
    sphere_representative,
    symplectic_join,
    symplectic_split,
    to_frame,
)


def random_quaternion(rng) -> Quaternion:
    return Quaternion.from_array(rng.standard_normal(4))


def random_unit(rng) -> ImaginaryUnit:
    return ImaginaryUnit.from_vector(rng.standard_normal(3))


def test_unit_multiplication_table():
    assert (E1 * E2).is_close(E3)
    assert (E2 * E3).is_close(E1)
    assert (E3 * E1).is_close(E2)
    assert (E2 * E1).is_close(-E3)
    for e in (E1, E2, E3):
        assert (e * e).is_close(-ONE)


def test_identity_element():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = random_quaternion(rng)
        assert (ONE * q).is_close(q)
        assert (q * ONE).is_close(q)


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
        assert (p * q).conjugate().is_close(q.conjugate() * p.conjugate(),
                                            tol=1e-12)


def test_conj_and_norm_values():
    assert (ONE + E1).conjugate().is_close(ONE - E1)
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
        assert ((a * b) * c).is_close(a * (b * c), tol=1e-11)


def test_vectorized_kernel_matches_scalar():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    prod = mul4(a, b)
    for row_a, row_b, row_p in zip(a, b, prod):
        expected = Quaternion.from_array(row_a) * Quaternion.from_array(row_b)
        np.testing.assert_allclose(row_p, expected.as_array(), atol=1e-13)
    np.testing.assert_allclose(conj4(a)[:, 0], a[:, 0])
    np.testing.assert_allclose(conj4(a)[:, 1:], -a[:, 1:])
    np.testing.assert_allclose(norm4(a), [abs(Quaternion.from_array(r)) for r in a])


def test_symplectic_split_example():
    q = Quaternion(1, 2, 3, 4)
    z1, z2 = symplectic_split(q, STANDARD_FRAME)
    assert z1 == pytest.approx(1 + 2j)
    assert z2 == pytest.approx(3 + 4j)
    # reconstruction via quaternion products: z1 + z2 * j
    jq = STANDARD_FRAME.j.as_quaternion()
    rebuilt = (Quaternion(z1.real) + STANDARD_FRAME.i.as_quaternion() * z1.imag
               + (Quaternion(z2.real) + STANDARD_FRAME.i.as_quaternion() * z2.imag) * jq)
    assert rebuilt.is_close(q, tol=1e-14)


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
        assert symplectic_join(z1, z2, f).is_close(q, tol=1e-14)


@pytest.mark.parametrize("shape", [(4,), (5, 4), (3, 5, 5, 4)])
def test_frame_coordinates_roundtrip_random_frames(shape):
    rng = np.random.default_rng(43)
    for _ in range(200):
        f = frame_complete(random_unit(rng))
        a = rng.standard_normal(shape)
        for back in (from_frame(to_frame(a, f), f), to_frame(from_frame(a, f), f)):
            assert back.shape == shape
            assert np.all(norm4(back - a) <= 1e-15 * norm4(a))


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
        assert abs(z1[idx] - w1) <= 1e-15 * norm4(a[idx])
        assert abs(z2[idx] - w2) <= 1e-15 * norm4(a[idx])
    back = symplectic_join(z1, z2, f)
    assert back.shape == a.shape
    assert np.all(norm4(back - a) <= 1e-15 * norm4(a))


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
        assert (iq * jq).is_close(f.k.as_quaternion(), tol=1e-14)
        assert abs(float(f.i.direction @ f.j.direction)) <= 1e-12


def test_invalid_frame_rejected():
    with pytest.raises(StructureError):
        Frame(ImaginaryUnit(np.array([1.0, 0, 0])),
              ImaginaryUnit(np.array([1.0, 0, 0])),
              ImaginaryUnit(np.array([0.0, 0, 1])))


def test_sphere_representative_examples():
    q = Quaternion(2, 0, 3, 0)
    rep = sphere_representative(q, ImaginaryUnit(np.array([1.0, 0, 0])))
    assert rep.is_close(Quaternion(2, 3, 0, 0))
    assert sphere_representative(Quaternion(-4.0), UNIT_E2).is_close(Quaternion(-4.0))
    rep = sphere_representative(Quaternion(0, 1, 1, 1),
                                ImaginaryUnit(np.array([1.0, 0, 0])))
    assert rep.is_close(Quaternion(0, np.sqrt(3), 0, 0), tol=1e-12)


def test_sphere_representative_similarity_invariance():
    rng = np.random.default_rng(37)
    unit = random_unit(rng)
    for _ in range(300):
        q = random_quaternion(rng)
        h = random_quaternion(rng)
        h = h * (1.0 / abs(h))
        conjugated = h * q * h.inverse()
        a = sphere_representative(conjugated, unit)
        b = sphere_representative(q, unit)
        assert a.is_close(b, tol=1e-12)


def test_json_roundtrip():
    q = Quaternion(1, -2, 3.5, 0.25)
    assert Quaternion.from_json(q.to_json()).is_close(q)
    f = frame_complete(ImaginaryUnit.from_vector([0.3, -1.2, 0.4]))
    g = Frame.from_json(f.to_json())
    np.testing.assert_allclose(g.rotation(), f.rotation(), atol=1e-15)
