"""Quaternionic vectors and right-linear operators as matrices.

A matrix acts on column vectors by left entrywise multiplication,
(Tv)_m = sum_n T[m,n] * v[n], which is right-linear: T(v*a) = (Tv)*a.
Spectral work is routed through the complex embedding

    chi(T) = [[T1, T2], [-conj(T2), conj(T1)]],   T = T1 + T2*j entrywise,

an injective *-homomorphism into the 2n x 2n complex matrices; mature
complex eigensolvers then do the heavy lifting.  The corresponding
vector embedding is psi(v) = (v1; -conj(v2)), for which
chi(T) psi(v) = psi(Tv) and <psi(v), psi(u)> is the complex part of <v, u>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotAntiSelfAdjoint,
    NotInImage,
)
from .quat import (
    Frame,
    Quaternion,
    STANDARD_FRAME,
    conj4,
    matmul4,
    mul4,
    symplectic_join,
    symplectic_split,
)

DEFAULT_TOL = 1e-10
CLUSTER_TOL = 1e-7


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


class QVector:
    """Column vector with quaternion entries, stored as an (n, 4) array."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != 4:
            raise DimensionError(f"expected (n, 4) component array, got {data.shape}")
        self.data = _freeze(data.copy())

    @classmethod
    def from_complex(cls, c: np.ndarray, frame: Frame = STANDARD_FRAME) -> "QVector":
        """Lift complex coordinates into the plane of frame.i."""
        c = np.asarray(c, dtype=complex).reshape(-1)
        return cls(symplectic_join(c, np.zeros_like(c), frame))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def __add__(self, other: "QVector") -> "QVector":
        return QVector(self.data + other.data)

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector(self.data - other.data)

    def __neg__(self) -> "QVector":
        return QVector(-self.data)

    def __mul__(self, a) -> "QVector":
        """Right scalar multiplication v * a (entrywise v[m] * a)."""
        if isinstance(a, Quaternion):
            return QVector(mul4(self.data, a.as_array()))
        return QVector(self.data * float(a))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def to_json(self) -> list:
        return self.data.tolist()

    @classmethod
    def from_json(cls, payload) -> "QVector":
        return cls(np.asarray(payload, dtype=float))

    def __repr__(self) -> str:
        return f"QVector(n={self.n})"


class QMatrix:
    """Square matrix with quaternion entries, stored as an (n, n, 4) array."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3 or data.shape[0] != data.shape[1] or data.shape[2] != 4:
            raise DimensionError(f"expected (n, n, 4) component array, got {data.shape}")
        self.data = _freeze(data.copy())

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return cls(np.zeros((n, n, 4)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        data = np.zeros((n, n, 4))
        data[np.arange(n), np.arange(n), 0] = 1.0
        return cls(data)

    @classmethod
    def diag(cls, entries) -> "QMatrix":
        n = len(entries)
        data = np.zeros((n, n, 4))
        for m, q in enumerate(entries):
            data[m, m] = q.as_array()
        return cls(data)

    @classmethod
    def from_real(cls, mat: np.ndarray) -> "QMatrix":
        mat = np.asarray(mat, dtype=float)
        n = mat.shape[0]
        data = np.zeros((n, n, 4))
        data[:, :, 0] = mat
        return cls(data)

    @classmethod
    def from_complex(cls, mat: np.ndarray, frame: Frame = STANDARD_FRAME) -> "QMatrix":
        """Lift a complex matrix into the plane of frame.i."""
        mat = np.asarray(mat, dtype=complex)
        return cls(symplectic_join(mat, np.zeros_like(mat), frame))

    @classmethod
    def scalar(cls, n: int, q: Quaternion) -> "QMatrix":
        """q times the identity (left entrywise multiplication by q)."""
        data = np.zeros((n, n, 4))
        data[np.arange(n), np.arange(n)] = q.as_array()
        return cls(data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.data + other.data)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.data - other.data)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.data)

    def __mul__(self, a: float) -> "QMatrix":
        return QMatrix(self.data * float(a))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, QMatrix):
            return QMatrix(matmul4(self.data, other.data))
        if isinstance(other, QVector):
            return QVector(matmul4(self.data, other.data[:, None, :])[:, 0, :])
        return NotImplemented

    @property
    def H(self) -> "QMatrix":
        """Adjoint: conjugate transpose."""
        return QMatrix(conj4(np.swapaxes(self.data, 0, 1)))

    def trace(self) -> Quaternion:
        return Quaternion.from_array(self.data.diagonal(axis1=0, axis2=1).sum(axis=1))

    def frob(self) -> float:
        return float(np.linalg.norm(self.data))

    def column(self, k: int) -> QVector:
        return QVector(self.data[:, k, :])

    def to_json(self) -> dict:
        return {"n": self.n, "entries": self.data.tolist()}

    @classmethod
    def from_json(cls, payload: dict) -> "QMatrix":
        data = np.asarray(payload["entries"], dtype=float)
        if data.shape[0] != payload["n"]:
            raise DimensionError("declared size does not match entry array")
        return cls(data)

    def __repr__(self) -> str:
        return f"QMatrix(n={self.n})"


# ---------------------------------------------------------------------------
# basic operations


def inner(v: QVector, u: QVector) -> Quaternion:
    """Quaternionic scalar product, conjugate-linear in the first slot:
    <v, u> = sum_m conj(v[m]) * u[m]."""
    if v.n != u.n:
        raise DimensionError(f"length mismatch {v.n} != {u.n}")
    return Quaternion.from_array(mul4(conj4(v.data), u.data).sum(axis=0))


def outer(u: QVector, v: QVector) -> QMatrix:
    """Rank-one right-linear operator w -> u * <v, w>."""
    return QMatrix(mul4(u.data[:, None, :], conj4(v.data)[None, :, :]))


def commutator_norm(a: QMatrix, b: QMatrix) -> float:
    return (a @ b - b @ a).frob()


def binary_scaled(data: np.ndarray) -> np.ndarray:
    """Each matrix of a (..., n, n, 4) array times the power of two that
    puts its largest entry in [1/2, 1), so that a Frobenius norm of it
    neither overflows nor underflows.  The scaling is exact in the normal
    range, and a zero matrix stays zero."""
    peak = np.abs(data).max(axis=(-3, -2, -1), keepdims=True, initial=0.0)
    return np.ldexp(data, -np.frexp(peak)[1])


def member_norms(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each member of a (k, ...) stack, k = 0 too."""
    return np.linalg.norm(
        stack.reshape(len(stack), int(np.prod(stack.shape[1:]))), axis=1)


def relative_residual(residual, t: np.ndarray) -> float:
    """|residual(t)| / |t| for a map `residual` linear in t (or the norm of
    such a map), t a real or complex matrix or a quaternionic component
    array, with Frobenius norms.

    Both norms are taken of t scaled by the power of two that puts its
    largest entry in [1/2, 1) (as in binary_scaled): the scaling is exact
    and cancels, so the quotient is the same at every scale of t and
    neither norm overflows or underflows.  A zero t gives 0, and a guard
    `not relative_residual(...) <= tol` fires on a NaN."""
    t = np.asarray(t)
    exponent = np.frexp(np.abs(t).max(initial=0.0))[1]
    scaled = np.ldexp(t.real, -exponent)
    if np.iscomplexobj(t):
        scaled = scaled + 1j * np.ldexp(t.imag, -exponent)
    return float(np.linalg.norm(residual(scaled))) / max(
        float(np.linalg.norm(scaled)), np.finfo(float).tiny)


def commutator_residual(op: QMatrix, t: QMatrix) -> float:
    """|[op, t]| / |t|, the same at every scale of t (see
    relative_residual)."""
    return relative_residual(
        lambda x: matmul4(op.data, x) - matmul4(x, op.data), t.data)


# ---------------------------------------------------------------------------
# complex embedding


def complex_embed(t: QMatrix | np.ndarray,
                  frame: Frame = STANDARD_FRAME) -> np.ndarray:
    """Embed into the 2n x 2n complex matrices via the entrywise split
    T = T1 + T2*j along the frame.  A component array of shape
    (..., n, n, 4) embeds as a stack of shape (..., 2n, 2n)."""
    t1, t2 = symplectic_split(t.data if isinstance(t, QMatrix) else t, frame)
    return np.block([[t1, t2], [-t2.conj(), t1.conj()]])


def block_symmetry_residual(mat: np.ndarray) -> float | np.ndarray:
    """Frobenius distance of a 2n x 2n complex matrix from the image of the
    embedding (the set with block form [[A, B], [-conj(B), conj(A)]]), or
    that of each matrix of a (k, 2n, 2n) stack."""
    n2 = mat.shape[-1]
    if mat.ndim not in (2, 3) or mat.shape[-2] != n2 or n2 % 2:
        raise DimensionError(f"expected even square matrix, got {mat.shape}")
    n = n2 // 2
    a, b = mat[..., :n, :n], mat[..., :n, n:]
    c, d = mat[..., n:, :n], mat[..., n:, n:]
    residual = np.sqrt(np.linalg.norm(c + b.conj(), axis=(-2, -1)) ** 2
                       + np.linalg.norm(d - a.conj(), axis=(-2, -1)) ** 2
                       ) / np.sqrt(2.0)
    return float(residual) if mat.ndim == 2 else residual


def _unembedded_data(mat: np.ndarray, frame: Frame) -> np.ndarray:
    """Component array of the quaternionic matrix whose embedding has the
    symmetric part of the blocks of mat, a 2n x 2n complex matrix or a
    (k, 2n, 2n) stack of them, so roundoff-level violations of the block
    symmetry are averaged away."""
    n = mat.shape[-1] // 2
    t1 = 0.5 * (mat[..., :n, :n] + mat[..., n:, n:].conj())
    t2 = 0.5 * (mat[..., :n, n:] - mat[..., n:, :n].conj())
    return symplectic_join(t1, t2, frame)


def complex_unembed(mat: np.ndarray, frame: Frame = STANDARD_FRAME,
                    tol: float = DEFAULT_TOL) -> QMatrix:
    """Left inverse of :func:`complex_embed`.

    Raises NotInImage when the block symmetry is violated beyond
    tol * |mat|, a test relative to mat at every scale (see
    relative_residual); the symmetric part of the blocks is used for the
    reconstruction (see _unembedded_data).
    """
    mat = np.asarray(mat, dtype=complex)
    residual = relative_residual(block_symmetry_residual, mat)
    if not residual <= tol:
        raise NotInImage(residual)
    return QMatrix(_unembedded_data(mat, frame))


def embed_vector(v: QVector, frame: Frame = STANDARD_FRAME) -> np.ndarray:
    """psi(v) = (v1; -conj(v2)) in C^(2n) for the split v = v1 + v2*j;
    satisfies chi(T) psi(v) = psi(Tv)."""
    v1, v2 = symplectic_split(v.data, frame)
    return np.concatenate([v1, -v2.conj()])


def unembed_vector(c: np.ndarray, frame: Frame = STANDARD_FRAME) -> QVector:
    """Inverse of :func:`embed_vector`."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    n = c.size // 2
    return QVector(symplectic_join(c[:n], -c[n:].conj(), frame))


def complex_matrix_to_json(mat: np.ndarray) -> dict:
    """Wire format for embedded matrices: size plus real/imaginary parts."""
    mat = np.asarray(mat, dtype=complex)
    return {"n2": int(mat.shape[0]), "re": mat.real.tolist(),
            "im": mat.imag.tolist()}


# ---------------------------------------------------------------------------
# norms, flags, spectra


def operator_norm(t: QMatrix) -> float:
    """Largest singular value; frame-independent because the embedding is a
    unitary-compatible *-homomorphism."""
    return float(np.linalg.norm(complex_embed(t), 2))


@dataclass(frozen=True)
class OperatorFlags:
    selfadjoint: bool
    antiselfadjoint: bool
    unitary: bool
    normal: bool
    projection: bool


def classify_operator(t: QMatrix, tol: float = DEFAULT_TOL) -> OperatorFlags:
    """Boolean structure flags from Frobenius residuals, relative to the
    operator scale."""
    adj = t.H
    scale = max(1.0, t.frob())
    sq_scale = max(1.0, scale * scale)
    ident = QMatrix.identity(t.n)
    sym = (t - adj).frob()
    anti = (t + adj).frob()
    gram = (adj @ t - ident).frob()
    comm = (t @ adj - adj @ t).frob()
    idem = (t @ t - t).frob()
    return OperatorFlags(
        selfadjoint=sym <= tol * scale,
        antiselfadjoint=anti <= tol * scale,
        unitary=gram <= tol * sq_scale,
        normal=comm <= tol * sq_scale,
        projection=(idem <= tol * sq_scale) and (sym <= tol * scale),
    )


def spectral_projections(t: QMatrix) -> list[tuple[float, QMatrix]]:
    """Eigensphere projections of a selfadjoint operator.

    Returns (eigenvalue, projection) pairs in ascending order; the
    projections are mutually orthogonal and sum to the identity.  The
    sorted spectrum of the one `eigh` of chi(t) is split where a gap
    exceeds CLUSTER_TOL times its largest modulus, a cut relative to the
    spectrum itself, so the clusters are the same at every scale of t.
    The projections are unembedded together, as :func:`complex_unembed`
    would one at a time: each must lie within 1e-7 of the image of the
    embedding relative to its own norm, which is at least 1 whatever the
    scale of t.
    """
    chi = complex_embed(t)
    vals, vecs = np.linalg.eigh(0.5 * (chi + chi.conj().T))
    cuts = np.flatnonzero(
        np.diff(vals) > CLUSTER_TOL * np.abs(vals).max(initial=0.0)) + 1
    projs = np.stack([block @ block.conj().T
                      for block in np.split(vecs, cuts, axis=1)])
    residual = float(np.max(block_symmetry_residual(projs)
                            / np.linalg.norm(projs, axis=(1, 2))))
    if not residual <= 1e-7:
        raise NotInImage(residual)
    return [(float(block_vals.mean()), QMatrix(data))
            for block_vals, data in zip(
                np.split(vals, cuts), _unembedded_data(projs, STANDARD_FRAME))]


# ---------------------------------------------------------------------------
# anti-selfadjoint operators: the guard, the polar decomposition


def require_antiselfadjoint(a: QMatrix, what: str) -> None:
    """Raise NotAntiSelfAdjoint unless |A + A*| <= DEFAULT_TOL |A|, a test
    relative to A at every scale (see relative_residual).  A zero A passes;
    a NaN or an infinite entry fails."""
    res = relative_residual(lambda x: x + conj4(np.swapaxes(x, 0, 1)),
                            a.data)
    if not res <= DEFAULT_TOL:
        raise NotAntiSelfAdjoint(
            f"{what} must be anti-selfadjoint (relative residual {res:.2e})")


def polar_antiselfadjoint(a: QMatrix, frame: Frame = STANDARD_FRAME
                          ) -> tuple[QMatrix, QMatrix]:
    """Factor A = J * M with M = |A| positive and J a unitary anti-selfadjoint
    square root of -I commuting with M.

    Both factors are read off the one `eigh` of chi(A)/i = V diag(lam) V*:
    M = V diag(|lam|) V*, and on the range of A, J = V diag(i sign lam) V*
    is the sign of the spectrum, the factor that A = J M forces there.  An
    eigenvalue is in the kernel when |lam| <= DEFAULT_TOL max |lam|, a cut
    relative to the spectrum, so J is the same at every scale of A.  On the
    kernel, with projector P, J is right multiplication by frame.i on an
    orthonormal basis B picked from P column by column: each pick is the
    column of (I - BB*)P of largest norm, at least sqrt((k - j)/n) after j
    of the k picks, so no second cut decides anything.  J is therefore a
    function of A and the frame, unitary with J^2 = -I.
    """
    require_antiselfadjoint(a, "polar decomposition input")
    chi = complex_embed(a, frame)
    vals, vecs = np.linalg.eigh((chi - chi.conj().T) / 2j)
    kernel = np.abs(vals) <= DEFAULT_TOL * np.abs(vals).max(initial=0.0)
    modulus = complex_unembed((vecs * np.abs(vals)) @ vecs.conj().T, frame,
                              tol=1e-8)
    ranged = vecs[:, ~kernel]
    j_op = complex_unembed((ranged * (1j * np.sign(vals[~kernel])))
                           @ ranged.conj().T, frame, tol=1e-8)
    if kernel.any():
        rest = complex_unembed(vecs[:, kernel] @ vecs[:, kernel].conj().T,
                               frame, tol=1e-8)
        iq = frame.i.as_quaternion()
        for _ in range(int(kernel.sum()) // 2):
            col = rest.column(int(np.argmax(
                np.linalg.norm(rest.data, axis=(0, 2)))))
            b = col * (1.0 / col.norm())
            rest = rest - outer(b, b) @ rest
            j_op = j_op + outer(b * iq, b)
    return j_op, modulus


# ---------------------------------------------------------------------------
# spectral decomposition of anti-selfadjoint operators (shared by dynamics)


def expm_antihermitian(m: np.ndarray) -> np.ndarray:
    """exp(M) for an anti-Hermitian complex matrix M.

    With iM = V diag(lam) V* from `eigh`, exp(M) = V diag(e^(-i lam)) V*,
    which is unitary up to rounding at any norm of M.  `eigh` reads one
    triangle only, so it is handed the Hermitian part of iM, which is iM
    itself for anti-Hermitian input; callers check that M is
    anti-Hermitian."""
    vals, vecs = np.linalg.eigh(0.5j * (m - m.conj().T))
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def expm_antiselfadjoint(a: QMatrix) -> QMatrix:
    """exp(A) for anti-selfadjoint A, via the complex embedding.

    Raises NotAntiSelfAdjoint when A is not anti-selfadjoint (see
    require_antiselfadjoint)."""
    require_antiselfadjoint(a, "exponent")
    return complex_unembed(expm_antihermitian(complex_embed(a)), tol=1e-8)
