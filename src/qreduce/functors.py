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
from .qlinalg import (DEFAULT_TOL, QMatrix, QVector, binary_scaled,
                      member_norms, relative_residual)
from .quat import (
    Frame,
    ImaginaryUnit,
    Quaternion,
    frame_complete,
    matmul4,
    mul4,
    symplectic_join,
    symplectic_split,
)
from .report import max_residual


def _check_anti_unitary(j: QMatrix, what: str = "J") -> None:
    ident = QMatrix.identity(j.n)
    anti = (j + j.H).frob()
    gram = (j.H @ j - ident).frob()
    if (not anti <= DEFAULT_TOL * max(1.0, j.frob())
            or not gram <= DEFAULT_TOL * max(1.0, j.frob() ** 2)):
        raise StructureError(
            f"{what} must be unitary and anti-selfadjoint "
            f"(residuals {anti:.2e}, {gram:.2e})")


def _check_pair(i_op: QMatrix, j_op: QMatrix) -> None:
    """Raise StructureError unless I and J are anti-selfadjoint unitaries
    that anticommute, |IJ + JI| <= DEFAULT_TOL max(1, |I| |J|)."""
    _check_anti_unitary(i_op, "I")
    _check_anti_unitary(j_op, "J")
    anti = (i_op @ j_op + j_op @ i_op).frob()
    if not anti <= DEFAULT_TOL * max(1.0, i_op.frob() * j_op.frob()):
        raise StructureError(f"I and J must anticommute (residual {anti:.2e})")


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


def _pivoted_basis(cands: np.ndarray, count: int, maps=()) -> np.ndarray:
    """`count` orthonormal columns v_m picked from the real or complex
    columns of `cands`, with (v_m, A v_m, ...) over `maps` one orthonormal
    family: each v_m is the largest candidate, normalised, and its tuple is
    then projected off every candidate.

    Each caller's candidates are an orthogonal projector of rank r applied
    to m orthonormal vectors, so after j picks the largest has norm at
    least sqrt((r - j (len(maps) + 1)) / m).  No cut decides anything, and
    the basis is a function of the projector: of (J, i) for H+, of (I, J)
    for H_R (the first of two equal norms wins)."""
    picks = []
    for _ in range(count):
        norms = np.linalg.norm(cands, axis=0)
        m = int(np.argmax(norms))
        v = cands[:, m] / norms[m]
        picks.append(v)
        family = np.stack([v] + [a @ v for a in maps], axis=1)
        cands = cands - family @ (family.conj().T @ cands)
    return np.stack(picks, axis=1)


def split_plus_minus(j: QMatrix, i: ImaginaryUnit) -> SplitSpace:
    """Compute an orthonormal basis of H+ for the pair (J, i).

    The projector P+ is applied to the 2n candidates {delta_m, delta_m*j},
    and `_pivoted_basis` picks n of them and orthonormalises them over the
    plane of i, so the basis is a function of (J, i).  Complex-linear
    combinations stay inside H+, so the result is an orthonormal basis of
    H+ both over the plane of i and quaternionically.
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
    q = _pivoted_basis(np.concatenate([v1, v2.conj()]), n)
    basis = symplectic_join(q[:n], q[n:].conj(), frame)
    defect = matmul4(j.data, basis) - mul4(basis, iq)
    worst = float(np.linalg.norm(defect, axis=(0, 2)).max())
    if not worst <= 1e-9:
        raise InternalInconsistency(
            f"plus-basis defect {worst:.2e}; J is too far from the required "
            "structure")
    return SplitSpace(j, frame, QMatrix(basis))


def require_j_commuting(j: QMatrix, stack: np.ndarray, tol: float,
                        what: str) -> None:
    """Raise DoesNotCommute, naming `what` and its index, for the first
    member t of a (k, n, n, 4) stack with |[J, t]| > tol |t| or a NaN.  Each
    member is binary-scaled by its own peak: a test relative at any scale."""
    x = binary_scaled(stack)
    res = member_norms(matmul4(j.data, x) - matmul4(x, j.data)) / np.maximum(
        member_norms(x), np.finfo(float).tiny)
    for idx in np.flatnonzero(~(res <= tol))[:1]:
        raise DoesNotCommute(float(res[idx]), f"{what} {idx} does not commute "
                             f"with J (relative residual {res[idx]:.2e})")


def restrict_to_plus(t: QMatrix | np.ndarray, space: SplitSpace,
                     tol: float = 1e-9) -> np.ndarray:
    """Complex matrix in the plus basis of a J-commuting operator: (n, n)
    for a QMatrix, (k, n, n) for a (k, n, n, 4) component stack, with each
    member's commutation with J guarded by require_j_commuting."""
    data = t.data if isinstance(t, QMatrix) else np.asarray(t, dtype=float)
    require_j_commuting(space.J, data[None] if data.ndim == 3 else data, tol,
                        "operator")
    coeff = matmul4(matmul4(space.basis.H.data, data), space.basis.data)
    return symplectic_split(coeff, space.frame)[0]


def extend_from_plus(mat: np.ndarray,
                     space: SplitSpace) -> QMatrix | np.ndarray:
    """Unique right-linear operator agreeing with `mat` on the plus basis:
    a QMatrix for one (n, n) complex matrix, a (k, n, n, 4) component stack
    for a (k, n, n) stack."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (space.n, space.n):
        raise DimensionError(
            f"expected ({space.n}, {space.n}) matrices, got {mat.shape}")
    lift = symplectic_join(mat, np.zeros_like(mat), space.frame)
    data = matmul4(matmul4(space.basis.data, lift), space.basis.H.data)
    return QMatrix(data) if mat.ndim == 2 else data


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
    _check_anti_unitary(QMatrix.from_real(j))
    mats = [np.asarray(t, dtype=float) for t in reals]
    for t in mats:
        res = relative_residual(lambda x: x @ j - j @ x, t)
        if not res <= DEFAULT_TOL:
            raise DoesNotCommute(res)
    basis = _pivoted_basis(np.eye(n), n // 2, [j])
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
    _check_pair(QMatrix.from_real(i_op), QMatrix.from_real(j_op))
    mats = [np.asarray(t, dtype=float) for t in reals]
    for t in mats:
        for op in (i_op, j_op):
            res = relative_residual(lambda x: x @ op - op @ x, t)
            if not res <= DEFAULT_TOL:
                raise DoesNotCommute(res)
    ji = j_op @ i_op
    basis = _pivoted_basis(np.eye(n), n // 4, [i_op, j_op, ji])
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
    subspace H_R = {v : Iv = v*e1, Jv = v*e2}.

    M_a v = sum_l b_l * a * <b_l, v>; the map a -> M_a is a unital algebra
    homomorphism and every M_a is right-linear.
    """

    real_basis: QMatrix        # columns form the basis of H_R

    @property
    def n(self) -> int:
        return self.real_basis.n

    def mat(self, a: Quaternion) -> QMatrix:
        b = self.real_basis
        return b @ QMatrix.scalar(self.n, a) @ b.H

    def unit_mats(self) -> tuple[QMatrix, QMatrix, QMatrix]:
        """M_a for a = e1, e2, e3."""
        return tuple(self.mat(Quaternion.from_array(unit))
                     for unit in np.eye(4)[1:])


def real_subspace_and_left_mult(i_op: QMatrix,
                                j_op: QMatrix) -> LeftMultiplication:
    """Extract H_R from an anticommuting pair of anti-selfadjoint unitaries
    and build the left multiplication it generates.

    The recovered action satisfies M_e1 = I, M_e2 = J and M_e3 = I J within
    1e-9 (M is a homomorphism, so the unit along e3 is the product of the
    units along e1 and e2).
    """
    _check_pair(i_op, j_op)
    n = i_op.n

    units = np.eye(4)
    _, iq, jq, kq = units
    # columns delta_m * u for m = 0..n-1 and u in (1, e1, e2, e3), projected
    # onto H_R by (v - (Iv) e1 - (Jv) e2 + (JIv) e3) / 4
    m = np.arange(n)
    cands = np.zeros((n, 4 * n, 4))
    for col, unit in enumerate(units):
        cands[m, 4 * m + col] = unit
    i_cands = matmul4(i_op.data, cands)
    cands = (cands - mul4(i_cands, iq) - mul4(matmul4(j_op.data, cands), jq)
             + mul4(matmul4(j_op.data, i_cands), kq)) * 0.25
    coords = np.moveaxis(cands, 1, -1).reshape(4 * n, 4 * n)
    q = _pivoted_basis(coords, n)
    cols = np.moveaxis(q.reshape(n, 4, n), -1, 1)
    left = LeftMultiplication(QMatrix(cols))

    m_i, m_j, m_k = left.unit_mats()
    worst = max_residual((m_i - i_op).frob(), (m_j - j_op).frob(),
                         (m_k - i_op @ j_op).frob())
    if not worst <= 1e-9 * max(1.0, i_op.frob()):
        raise InternalInconsistency(
            f"left multiplication defect {worst:.2e}")
    return left
