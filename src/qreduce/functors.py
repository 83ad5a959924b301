"""Scalar extension and restriction between real, complex and quaternionic
carriers.

Two families of constructions live here.  Restriction and extension
move J-commuting quaternionic operators to complex ones on the component
space and back (reading a real or complex matrix as a quaternionic one is
`QMatrix.from_real`/`from_complex`); internal constructions keep a real
space and install a richer scalar action from structural operators (an
anti-selfadjoint unitary J, or an anticommuting pair I, J).  The bridge
between a quaternionic space and its complex component space is the
splitting

    H = H+ (+) H+ * j,    H+ = {v : Jv = v*i},

computed here with an explicit orthonormal basis so every downstream
statement becomes a matrix identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DoesNotCommute,
    InternalInconsistency,
    StructureError,
)
from .qlinalg import (DEFAULT_TOL, QMatrix, QVector, commutator_residual,
                      relative_residual)
from .quat import (
    Frame,
    ImaginaryUnit,
    Quaternion,
    STANDARD_FRAME,
    frame_complete,
    matmul4,
    mul4,
    symplectic_join,
    symplectic_split,
)
from .report import max_residual

RANK_TOL = 1e-10


def _check_anti_unitary(j: QMatrix, what: str = "J") -> None:
    ident = QMatrix.identity(j.n)
    anti = (j + j.H).frob()
    gram = (j.H @ j - ident).frob()
    if (not anti <= DEFAULT_TOL * max(1.0, j.frob())
            or not gram <= DEFAULT_TOL * max(1.0, j.frob() ** 2)):
        raise StructureError(
            f"{what} must be unitary and anti-selfadjoint "
            f"(residuals {anti:.2e}, {gram:.2e})")


# ---------------------------------------------------------------------------
# J-induced splitting of a quaternionic space


@dataclass(frozen=True)
class SplitSpace:
    """Orthonormal complex basis of H+ for a compatible pair (J, i).

    `basis` holds the basis vectors as the columns of a QMatrix, so that
    restriction and extension are three-factor matrix products.
    """

    J: QMatrix
    frame: Frame
    basis: QMatrix

    @property
    def n(self) -> int:
        return self.J.n

    @property
    def i(self) -> ImaginaryUnit:
        return self.frame.i

    def plus_basis(self) -> list[QVector]:
        return [self.basis.column(m) for m in range(self.n)]

    def to_json(self) -> dict:
        return {
            "J": self.J.to_json(),
            "i": self.i.to_json(),
            "plus_basis": [b.to_json() for b in self.plus_basis()],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SplitSpace":
        j = QMatrix.from_json(payload["J"])
        frame = frame_complete(ImaginaryUnit.from_vector(payload["i"]))
        cols = [QVector.from_json(b) for b in payload["plus_basis"]]
        data = np.stack([c.data for c in cols], axis=1)
        return cls(j, frame, QMatrix(data))


def plus_projector_apply(j: QMatrix, v: QVector, frame: Frame) -> QVector:
    """P+ v = (v - (Jv) * i) / 2, the projector onto {v : Jv = v*i}."""
    return (v - (j @ v) * frame.i.as_quaternion()) * 0.5


def _range_basis(cands: np.ndarray, rank: int, what: str) -> np.ndarray:
    """The `rank` leading left singular vectors of `cands`, an orthonormal
    basis of its range when its rank is `rank`: the number of singular
    values above RANK_TOL times the largest.  The candidates are an
    orthogonal projector applied to a reordered orthonormal basis, so
    their nonzero singular values are 1; they are not Hermitian, so the
    basis needs the SVD, not `eigh`."""
    u, sigma, _ = np.linalg.svd(cands)
    found = int(np.sum(sigma > RANK_TOL * max(sigma[0], 1e-300)))
    if found != rank:
        raise StructureError(f"{what} {found}, expected {rank}")
    return u[:, :rank]


def split_plus_minus(j: QMatrix, i: ImaginaryUnit) -> SplitSpace:
    """Compute an orthonormal basis of H+ for the pair (J, i).

    The projector P+ is applied to the 2n candidates {delta_m, delta_m*j};
    the leading left singular vectors of the candidates over the plane of
    i then give n orthonormal columns.  Complex-linear combinations stay
    inside H+, so the result is an orthonormal basis of H+ both over the
    plane of i and quaternionically.
    """
    _check_anti_unitary(j)
    n = j.n
    frame = frame_complete(i)
    iq = frame.i.as_quaternion().as_array()
    # columns delta_0, delta_0*j, delta_1, delta_1*j, ...
    m = np.arange(n)
    cands = np.zeros((n, 2 * n, 4))
    cands[m, 2 * m, 0] = 1.0
    cands[m, 2 * m + 1] = frame.j.as_quaternion().as_array()
    cands = (cands - mul4(matmul4(j.data, cands), iq)) * 0.5
    # coordinates (v1, conj(v2)) of v = v1 + v2*j are complex-linear for
    # the right action of the plane of i and isometric for its inner product
    v1, v2 = symplectic_split(cands, frame)
    q = _range_basis(np.concatenate([v1, v2.conj()]), n,
                     "plus space has complex dimension")
    basis = symplectic_join(q[:n], q[n:].conj(), frame)
    defect = matmul4(j.data, basis) - mul4(basis, iq)
    worst = float(np.linalg.norm(defect, axis=(0, 2)).max())
    if not worst <= 1e-9:
        raise InternalInconsistency(
            f"plus-basis defect {worst:.2e}; J is too far from the required "
            "structure")
    return SplitSpace(j, frame, QMatrix(basis))


def restrict_to_plus(t: QMatrix, space: SplitSpace,
                     tol: float = 1e-9) -> np.ndarray:
    """Complex matrix of a J-commuting operator in the plus basis."""
    res = commutator_residual(space.J, t)
    if not res <= tol:
        raise DoesNotCommute(res)
    coeff = space.basis.H @ t @ space.basis
    return symplectic_split(coeff.data, space.frame)[0]


def extend_from_plus(mat: np.ndarray, space: SplitSpace) -> QMatrix:
    """Unique right-linear operator agreeing with `mat` on the plus basis."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (space.n, space.n):
        raise DimensionError(
            f"expected ({space.n}, {space.n}) matrix, got {mat.shape}")
    lift = QMatrix.from_complex(mat, space.frame)
    return space.basis @ lift @ space.basis.H


# ---------------------------------------------------------------------------
# internal complexification


@dataclass(frozen=True)
class ComplexifiedSpace:
    """Result of installing a J-induced complex structure on R^n."""

    dim: int
    basis: np.ndarray          # n x dim, columns v_m
    J: np.ndarray
    matrices: list[np.ndarray]

    def inner(self, v: np.ndarray, u: np.ndarray) -> complex:
        return complex(v @ u - 1j * (v @ (self.J @ u)))


def _orthonormal_tuples(n: int, maps: list[np.ndarray]) -> np.ndarray:
    """Greedy basis v_m such that (v_m, A v_m, ...) over `maps` is a real
    orthonormal family; returns the v_m as columns.  Each v_m is the
    standard vector with the largest part orthogonal to the family so far,
    normalised; that part has norm at least sqrt(1 - k/n) with k vectors
    in the family, so no rounding error is divided by a small norm."""
    accum = np.zeros((n, 0))
    picks = []
    for _ in range(n // (len(maps) + 1)):
        rest = np.eye(n) - accum @ accum.T
        norms = np.linalg.norm(rest, axis=0)
        m = int(np.argmax(norms))
        v = rest[:, m] / norms[m]
        picks.append(v)
        accum = np.concatenate(
            [accum, np.stack([v] + [a @ v for a in maps], axis=1)], axis=1)
    return np.stack(picks, axis=1)


def internal_complexify(reals: list[np.ndarray],
                        j: np.ndarray) -> ComplexifiedSpace:
    """Turn R^n with an anti-selfadjoint orthogonal J into C^(n/2).

    Every listed operator must commute with J; its complex matrix in the
    returned basis represents the same operator on the complexified space.
    """
    j = np.asarray(j, dtype=float)
    n = j.shape[0]
    if n % 2:
        raise DimensionError("internal complexification needs even dimension")
    scale = max(1.0, np.linalg.norm(j))
    if (not np.linalg.norm(j + j.T) <= DEFAULT_TOL * scale
            or not np.linalg.norm(j @ j.T - np.eye(n)) <= DEFAULT_TOL * n):
        raise StructureError("J must be orthogonal and antisymmetric")
    mats = [np.asarray(t, dtype=float) for t in reals]
    for t in mats:
        res = relative_residual(lambda x: x @ j - j @ x, t)
        if not res <= DEFAULT_TOL:
            raise DoesNotCommute(res)
    basis = _orthonormal_tuples(n, [j])
    out = [basis.T @ t @ basis - 1j * (basis.T @ j @ t @ basis) for t in mats]
    return ComplexifiedSpace(n // 2, basis, j, out)


# ---------------------------------------------------------------------------
# internal quaternionification


@dataclass(frozen=True)
class QuaternionifiedSpace:
    """Result of installing an (I, J)-induced quaternionic structure on R^n."""

    dim: int
    basis: np.ndarray          # n x dim
    I: np.ndarray
    J: np.ndarray
    matrices: list[QMatrix]

    def inner(self, v: np.ndarray, u: np.ndarray) -> Quaternion:
        ji = self.J @ self.I
        return Quaternion.from_array([v @ u, -(v @ (self.I @ u)),
                                      -(v @ (self.J @ u)), -(v @ (ji @ u))])


def internal_quaternionify(reals: list[np.ndarray], i_op: np.ndarray,
                           j_op: np.ndarray) -> QuaternionifiedSpace:
    """Turn R^n with an anticommuting anti-selfadjoint orthogonal pair (I, J)
    into H^(n/4).

    The right action is v*a = a0 v + a1 I v + a2 J v + a3 J I v for
    a = a0 + a1 e1 + a2 e2 + a3 e3.
    """
    i_op = np.asarray(i_op, dtype=float)
    j_op = np.asarray(j_op, dtype=float)
    n = i_op.shape[0]
    if n % 4:
        raise DimensionError(
            "internal quaternionification needs dimension divisible by 4")
    for name, op in (("I", i_op), ("J", j_op)):
        scale = max(1.0, np.linalg.norm(op))
        if (not np.linalg.norm(op + op.T) <= DEFAULT_TOL * scale
                or not np.linalg.norm(op @ op.T - np.eye(n)) <= DEFAULT_TOL * n):
            raise StructureError(f"{name} must be orthogonal and antisymmetric")
    if not np.linalg.norm(i_op @ j_op + j_op @ i_op) <= DEFAULT_TOL * n:
        raise StructureError("I and J must anticommute")
    mats = [np.asarray(t, dtype=float) for t in reals]
    for t in mats:
        for op in (i_op, j_op):
            res = relative_residual(lambda x: x @ op - op @ x, t)
            if not res <= DEFAULT_TOL:
                raise DoesNotCommute(res)
    ji = j_op @ i_op
    basis = _orthonormal_tuples(n, [i_op, j_op, ji])
    out = []
    for t in mats:
        parts = [basis.T @ t @ basis] + [-(basis.T @ op @ t @ basis)
                                         for op in (i_op, j_op, ji)]
        out.append(QMatrix(np.stack(parts, axis=-1)))
    return QuaternionifiedSpace(n // 4, basis, i_op, j_op, out)


# ---------------------------------------------------------------------------
# real subspace and left multiplication from an (I, J) pair


@dataclass(frozen=True)
class LeftMultiplication:
    """Left scalar action generated by an orthonormal basis of the real
    subspace H_R = {v : Iv = v*i, Jv = v*j}.

    M_a v = sum_l b_l * a * <b_l, v>; the map a -> M_a is a unital algebra
    homomorphism and every M_a is right-linear.
    """

    real_basis: QMatrix        # columns form the basis of H_R
    frame: Frame

    @property
    def n(self) -> int:
        return self.real_basis.n

    def mat(self, a: Quaternion) -> QMatrix:
        b = self.real_basis
        return b @ QMatrix.scalar(self.n, a) @ b.H

    def unit_mats(self) -> tuple[QMatrix, QMatrix, QMatrix]:
        return (self.mat(self.frame.i.as_quaternion()),
                self.mat(self.frame.j.as_quaternion()),
                self.mat(self.frame.k.as_quaternion()))


def real_subspace_and_left_mult(i_op: QMatrix, j_op: QMatrix,
                                frame: Frame = STANDARD_FRAME
                                ) -> LeftMultiplication:
    """Extract H_R from an anticommuting pair of anti-selfadjoint unitaries
    and build the left multiplication it generates.

    The recovered action satisfies M_i = I, M_j = J and M_k = I J within
    1e-9 (M is a homomorphism, so the unit along k is the product of the
    units along i and j).
    """
    _check_anti_unitary(i_op, "I")
    _check_anti_unitary(j_op, "J")
    n = i_op.n
    anti = (i_op @ j_op + j_op @ i_op).frob()
    if not anti <= DEFAULT_TOL * max(1.0, i_op.frob() * j_op.frob()):
        raise StructureError(f"I and J must anticommute (residual {anti:.2e})")

    iq, jq, kq = (u.as_quaternion().as_array()
                  for u in (frame.i, frame.j, frame.k))
    # columns delta_m * u for m = 0..n-1 and u in (1, i, j, k), projected
    # onto H_R by (v - (Iv) i - (Jv) j + (JIv) k) / 4
    m = np.arange(n)
    cands = np.zeros((n, 4 * n, 4))
    for col, unit in enumerate((np.array([1.0, 0.0, 0.0, 0.0]), iq, jq, kq)):
        cands[m, 4 * m + col] = unit
    i_cands = matmul4(i_op.data, cands)
    cands = (cands - mul4(i_cands, iq) - mul4(matmul4(j_op.data, cands), jq)
             + mul4(matmul4(j_op.data, i_cands), kq)) * 0.25
    coords = np.moveaxis(cands, 1, -1).reshape(4 * n, 4 * n)
    q = _range_basis(coords, n, "real subspace has dimension")
    cols = np.moveaxis(q.reshape(n, 4, n), -1, 1)
    left = LeftMultiplication(QMatrix(cols), frame)

    m_i, m_j, m_k = left.unit_mats()
    worst = max_residual((m_i - i_op).frob(), (m_j - j_op).frob(),
                         (m_k - i_op @ j_op).frob())
    if not worst <= 1e-9 * max(1.0, i_op.frob()):
        raise InternalInconsistency(
            f"left multiplication defect {worst:.2e}")
    return left
