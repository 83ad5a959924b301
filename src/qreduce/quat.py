"""Quaternion scalars, imaginary units, and symplectic frames.

Sign convention, fixed here once for the whole package: the generating
units satisfy e1*e2 = +e3 (right-handed Hamilton product).  A quaternion
is stored as the four real coefficients (w, x, y, z) of (1, e1, e2, e3).

The product table is written once, as the structure tensor `QTENSOR`
with e_a e_b = sum_c QTENSOR[a, b, c] e_c, and every product in the
package contracts against it.  Vectorized helpers operate on float arrays
whose last axis has length 4; they are the computational backbone of the
matrix layer.  Coordinates along a frame, and with them the
symplectic split q = z1 + z2*j, are computed only by `to_frame` and
`from_frame`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructureError

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])

# The Hamilton table: e_a e_b = sign * e_(a xor b), with the sign below
# (rows a, columns b, units ordered 1, e1, e2, e3), so e1 e2 = +e3.
QTENSOR = np.zeros((4, 4, 4))
_A, _B = np.indices((4, 4))
QTENSOR[_A, _B, _A ^ _B] = [[1, 1, 1, 1],
                            [1, -1, 1, -1],
                            [1, -1, -1, 1],
                            [1, 1, -1, -1]]
QTENSOR.flags.writeable = False
# (a_a b_b) pairs -> product components, and an entry a -> its left-regular
# 4x4 block L[c, b] = sum_a a_a QTENSOR[a, b, c], flattened row-major.
_PAIR_TO_PRODUCT = QTENSOR.reshape(16, 4)
_ENTRY_TO_LEFT = QTENSOR.transpose(0, 2, 1).reshape(4, 16)


# ---------------------------------------------------------------------------
# vectorized kernel: arrays of shape (..., 4)

def mul4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of component arrays, broadcasting over leading axes."""
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (16,)) @ _PAIR_TO_PRODUCT


def conj4(a: np.ndarray) -> np.ndarray:
    return a * _CONJ_SIGNS


def matmul4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of quaternion-entry arrays.

    `a` has shape (..., m, n, 4) and `b` shape (..., n, k, 4); entries
    multiply on the left of the column factor, matching the action of a
    right-linear operator on column vectors.  The product is one real
    matmul: `a` as its (4m, 4n) matrix of left-regular 4x4 blocks times
    `b` as a (4n, k) matrix.
    """
    *lead_a, m, n, _ = a.shape
    *lead_b, _, k, _ = b.shape
    left = (a @ _ENTRY_TO_LEFT).reshape(*lead_a, m, n, 4, 4)
    left = left.swapaxes(-3, -2).reshape(*lead_a, 4 * m, 4 * n)
    cols = b.swapaxes(-2, -1).reshape(*lead_b, 4 * n, k)
    prod = left @ cols
    return prod.reshape(*prod.shape[:-2], m, 4, k).swapaxes(-2, -1)


# ---------------------------------------------------------------------------
# scalar quaternions


@dataclass(frozen=True)
class Quaternion:
    """Element of the real division algebra spanned by (1, e1, e2, e3)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = np.asarray(a, dtype=float).reshape(4)
        return cls(float(w), float(x), float(y), float(z))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @property
    def vec(self) -> np.ndarray:
        """Imaginary part as a 3-vector."""
        return np.array([self.x, self.y, self.z])

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __abs__(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion.from_array(mul4(self.as_array(), other.as_array()))
        return Quaternion(self.w * other, self.x * other,
                          self.y * other, self.z * other)

    def __rmul__(self, other):
        # only reached for real scalars; quaternion*quaternion uses __mul__
        return Quaternion(self.w * other, self.x * other,
                          self.y * other, self.z * other)

    def to_json(self) -> list:
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_json(cls, payload) -> "Quaternion":
        return cls.from_array(payload)


E1 = Quaternion(0.0, 1.0, 0.0, 0.0)
E2 = Quaternion(0.0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# imaginary units and frames


@dataclass(frozen=True)
class ImaginaryUnit:
    """Purely imaginary quaternion of modulus one, stored as its 3-direction."""

    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float).reshape(3).copy()
        n = float(np.linalg.norm(d))
        if not abs(n - 1.0) <= 1e-12:      # also rejects NaN and inf
            raise StructureError(f"imaginary unit direction has norm {n!r}")
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)

    @classmethod
    def from_vector(cls, v) -> "ImaginaryUnit":
        """Normalize an arbitrary nonzero finite 3-vector into a unit.

        The vector is first scaled by the power of two that puts its
        largest entry in [1/2, 1), as qlinalg.binary_scaled does, so its
        norm neither overflows nor underflows; the scaling is exact, so
        it leaves the direction of a normal-range vector unchanged."""
        v = np.asarray(v, dtype=float).reshape(3)
        peak = float(np.abs(v).max())
        if not 0.0 < peak < math.inf:      # also rejects NaN
            raise StructureError(f"vector with largest |entry| {peak!r} has "
                                 f"no direction")
        v = np.ldexp(v, -math.frexp(peak)[1])
        return cls(v / np.linalg.norm(v))

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, *self.direction)

    def to_json(self) -> list:
        return list(self.direction)


UNIT_E1 = ImaginaryUnit(np.array([1.0, 0.0, 0.0]))
UNIT_E2 = ImaginaryUnit(np.array([0.0, 1.0, 0.0]))
UNIT_E3 = ImaginaryUnit(np.array([0.0, 0.0, 1.0]))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, component by component: the
    products and differences of np.cross, without its broadcasting
    set-up, which costs more than the arithmetic on one pair."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


@dataclass(frozen=True)
class Frame:
    """Ordered orthonormal imaginary triple (i, j, k) with k = i*j.

    A frame fixes the symplectic decomposition q = z1 + z2*j with
    z1, z2 in the complex plane spanned by (1, i).
    """

    i: ImaginaryUnit
    j: ImaginaryUnit
    k: ImaginaryUnit

    def __post_init__(self):
        if abs(float(self.i.direction @ self.j.direction)) > 1e-12:
            raise StructureError("frame axes i and j are not orthogonal")
        k_expected = _cross(self.i.direction, self.j.direction)
        if np.linalg.norm(self.k.direction - k_expected) > 1e-12:
            raise StructureError("frame axis k is not the product i*j")

    @classmethod
    def standard(cls) -> "Frame":
        return cls(UNIT_E1, UNIT_E2, UNIT_E3)

    @classmethod
    def from_ij(cls, i: ImaginaryUnit, j: ImaginaryUnit) -> "Frame":
        k = ImaginaryUnit(_cross(i.direction, j.direction))
        return cls(i, j, k)

    def rotation(self) -> np.ndarray:
        """3x3 matrix whose rows are the frame directions."""
        return np.stack([self.i.direction, self.j.direction, self.k.direction])

    def to_json(self) -> dict:
        return {"i": self.i.to_json(), "j": self.j.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "Frame":
        return cls.from_ij(ImaginaryUnit.from_vector(payload["i"]),
                           ImaginaryUnit.from_vector(payload["j"]))


STANDARD_FRAME = Frame.standard()


def frame_complete(i: ImaginaryUnit) -> Frame:
    """Deterministically complete a unit into a full frame.

    The second axis is the coordinate axis least aligned with i, projected
    onto the orthogonal complement of i and normalized; the rule makes
    frames reproducible across runs.
    """
    d = i.direction
    axis = int(np.argmin(np.abs(d)))
    e = np.zeros(3)
    e[axis] = 1.0
    j_vec = e - (e @ d) * d
    j = ImaginaryUnit.from_vector(j_vec)
    return Frame.from_ij(i, j)


def to_frame(a: np.ndarray, frame: Frame) -> np.ndarray:
    """Coordinates (w, <v,i>, <v,j>, <v,k>) along the frame of component
    arrays of shape (..., 4); the inverse of :func:`from_frame`."""
    a = np.asarray(a, dtype=float)
    return np.concatenate([a[..., :1], a[..., 1:] @ frame.rotation().T],
                          axis=-1)


def from_frame(c: np.ndarray, frame: Frame) -> np.ndarray:
    """Component arrays of shape (..., 4) from their frame coordinates."""
    c = np.asarray(c, dtype=float)
    return np.concatenate([c[..., :1], c[..., 1:] @ frame.rotation()],
                          axis=-1)


def symplectic_split(q: Quaternion | np.ndarray, frame: Frame):
    """Decompose q = z1 + z2*j with z1, z2 in the complex plane of frame.i.

    A Quaternion splits into two complex numbers, a (..., 4) component
    array into two complex arrays of shape (...).
    """
    scalar = isinstance(q, Quaternion)
    z = to_frame(q.as_array() if scalar else q, frame).view(complex)
    if scalar:
        return complex(z[0]), complex(z[1])
    return z[..., 0], z[..., 1]


def symplectic_join(z1: complex | np.ndarray, z2: complex | np.ndarray,
                    frame: Frame) -> Quaternion | np.ndarray:
    """Inverse of :func:`symplectic_split`: complex numbers join into a
    Quaternion, complex arrays into a (..., 4) component array."""
    pairs = np.stack([np.asarray(z1, dtype=complex),
                      np.asarray(z2, dtype=complex)], axis=-1)
    a = from_frame(pairs.view(float), frame)
    return Quaternion.from_array(a) if a.ndim == 1 else a


def sphere_representative(q: Quaternion, i: ImaginaryUnit) -> Quaternion:
    """Canonical representative q0 + i*|Im q| of the similarity class of q.

    The class {h q h^-1 : |h| = 1} is a 2-sphere for non-real q; its unique
    point in the closed upper half of the complex plane of i is returned.
    """
    im = float(np.linalg.norm(q.vec))
    return Quaternion(q.w, *(im * i.direction))
