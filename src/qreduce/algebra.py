"""Finite-dimensional *-algebras of quaternionic operators.

The commutant is computed as a real-linear nullspace problem: matrices
vectorize to R^(4n^2), each generator G contributes the real matrix of
T -> GT - TG, and the commutant is the joint nullspace of the stacked
constraint.  The generators are closed under the adjoint, and T commutes
with them iff T* does, so the nullspace splits into a selfadjoint and a
skew part.  In orthonormal selfadjoint/skew coordinates the constraint's
Gram matrix is block-diagonal, with blocks of 2n^2 - n and 2n^2 + n
coordinates, and the two blocks are solved apart.  Since
ad_G*(T) = -(ad_G(T*))* and T -> T* is +-1 on those coordinates, G* adds
exactly G's own diagonal blocks, so the constraint is built from one
generator per adjoint pair, weighted sqrt 2, and the identity adds none.
Each block is found in two steps.  One symmetric eigendecomposition of
the block's Gram matrix settles every direction whose singular value lies
far above the cutoff.  The block restricted to the few remaining
candidate directions then decides them.  The cutoff is relative to the largest singular value over
both blocks, which is that of the whole constraint, so every direction
is decided by the rule an SVD of the whole constraint would apply.
The bicommutant and the center are commutants too.  Irreducibility and
the R/C/H trichotomy are read off the nullspace dimensions of the two
blocks, so the nullspace rule is the only decision behind them: the
algebra is irreducible iff the selfadjoint part of its commutant is R I,
and the kind is the dimension of the skew part (0, 1 or 3).
The generated algebra, which cross-checks the bicommutant, is closed
from its newest rows: each round multiplies only the rows the previous
round added.
The reduction of complex-induced systems is layered on top.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DoesNotCommute,
    InternalInconsistency,
    NotComplexInduced,
    StructureError,
)
from .functors import (
    SplitSpace,
    extend_from_plus,
    plus_projector_apply,
    restrict_to_plus,
    split_plus_minus,
)
from .qlinalg import (
    QMatrix,
    QVector,
    binary_scaled,
    commutator_residual,
    complex_matrix_to_json,
    outer,
    spectral_projections,
)
from .quat import QTENSOR, ImaginaryUnit, conj4, matmul4
from .report import Check, max_residual

SV_CUTOFF = 1e-9
MEMBERSHIP_TOL = 1e-8


def vec(t: QMatrix) -> np.ndarray:
    return t.data.reshape(-1)


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal real basis (under the trace form) of a subspace of the
    n x n quaternionic matrices, held as the rows of one array.  A
    commutant records how many of its rows, the first ones, are
    selfadjoint; the rest are skew."""

    mat: np.ndarray            # dim_r x 4n^2, orthonormal rows
    selfadjoint: int | None = None

    @property
    def dim_r(self) -> int:
        return self.mat.shape[0]

    @property
    def stack(self) -> np.ndarray:
        """The basis as a (dim_r, n, n, 4) component array."""
        n = math.isqrt(self.mat.shape[1] // 4)
        return self.mat.reshape(-1, n, n, 4)

    def membership_residual(self, t: QMatrix) -> float:
        """Relative least-squares distance of t from the spanned subspace."""
        x = vec(t)
        scale = max(1.0, float(np.linalg.norm(x)))
        return float(np.linalg.norm(x - self.mat.T @ (self.mat @ x))) / scale


@functools.lru_cache(maxsize=None)
def _adjoint_coordinates(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Orthonormal basis of the n x n quaternionic matrices adapted to the
    adjoint: first the 2n^2 - n selfadjoint elements, then the 2n^2 + n
    skew ones.  Element i is w[i, 0] E(terms[i, 0]) + w[i, 1] E(terms[i, 1]),
    where E(p, q, d) is the matrix unit E_pq e_d: a diagonal entry (its
    second term repeats the first with weight 0) or a mirrored pair of
    off-diagonal entries with weights 1/sqrt 2 and +-1/sqrt 2.

    Returns (terms, w, split): terms of shape (4n^2, 2, 3), w of shape
    (4n^2, 2) and the number of selfadjoint elements.  Read-only, cached
    per n."""
    conj = (1.0, -1.0, -1.0, -1.0)               # e_d* = conj[d] e_d
    half = math.sqrt(0.5)
    elements = []
    for sign in (1.0, -1.0):                     # X* = sign X
        elements += [(((m, m, d), (m, m, d)), (1.0, 0.0))
                     for m in range(n) for d in range(4) if conj[d] == sign]
        elements += [(((m, k, d), (k, m, d)), (half, sign * conj[d] * half))
                     for m in range(n) for k in range(m + 1, n)
                     for d in range(4)]
    terms = np.array([t for t, _ in elements])
    w = np.array([x for _, x in elements])
    terms.flags.writeable = False
    w.flags.writeable = False
    return terms, w, 2 * n * n - n


def _commutator_constraint(gens: np.ndarray) -> list[np.ndarray]:
    """Real matrix of T -> (G T - T G for each G) for a (k, n, n, 4) stack
    of generators, with T in the coordinates of :func:`_adjoint_coordinates`
    and the image vectorized as a (k, n, n, 4) stack: its two column
    blocks, (k 4n^2, 2n^2 - n) on selfadjoint T and (k 4n^2, 2n^2 + n) on
    skew T.  Built in one pass from the Hamilton structure tensor, as
    transposed views of one row-major array, the layout that
    block^T block reads fastest."""
    k, n = gens.shape[0], gens.shape[1]
    terms, w, split = _adjoint_coordinates(n)
    # left[p, d, g, m] = G[m, p] e_d and right[q, d, g, l] = e_d G[q, l]
    left = np.einsum("adc,gmpa->pdgmc", QTENSOR, gens)
    right = np.einsum("dbc,gqlb->qdglc", QTENSOR, gens)
    out = np.zeros((4 * n * n, k, n, n, 4))
    rows = np.arange(4 * n * n)
    for t in range(2):
        p, q, d = terms[:, t].T
        wt = w[:, t, None, None, None]
        # G E_pq e_d: column q holds G[:, p] e_d
        out[rows, :, :, q] += wt * left[p, d]
        # E_pq e_d G: row p holds e_d G[q, :]
        out[rows, :, p, :] -= wt * right[q, d]
    out = out.reshape(4 * n * n, k * 4 * n * n)
    return [out[:split].T, out[split:].T]


def _from_adjoint_coordinates(parts: list[np.ndarray], n: int) -> np.ndarray:
    """Rows of coordinates along the selfadjoint and along the skew
    elements of :func:`_adjoint_coordinates`, as one array of vectorized
    matrices, selfadjoint rows first.  Each entry is one coordinate times
    one weight, so the rows are exactly selfadjoint or exactly skew."""
    terms, w, split = _adjoint_coordinates(n)
    out = np.zeros((sum(map(len, parts)), n, n, 4))
    first = 0
    for coords, cols in zip(parts, (slice(None, split), slice(split, None))):
        rows = slice(first, first + len(coords))
        for t in range(2):
            p, q, d = terms[cols, t].T
            out[rows, p, q, d] += coords * w[cols, t]
        first += len(coords)
    return out.reshape(len(out), 4 * n * n)


def _nullspace_rows(blocks: list[np.ndarray], cutoff: float,
                    scale: float) -> list[np.ndarray]:
    """Orthonormal rows spanning the nullspace of each of the column
    blocks of one constraint [B_1, ..., B_r] whose blocks are mutually
    orthogonal, B_i^T B_j = 0, so that the constraint's singular values
    are those of its blocks taken together.

    A direction counts as null when its singular value is at most
    cutoff * max(top, scale), where top is the largest singular value of
    the whole constraint (the largest over the blocks) and scale the
    generator magnitude, so that a constraint that is numerically zero
    (scalar generators) yields the full space.  One threshold serves every
    block, so the rule is that of the whole constraint.

    Screen: one eigh of each block's Gram matrix B_i^T B_i.  An
    eigenvalue above sqrt(cutoff) * max(top, scale)^2, i.e. a singular
    value above cutoff^(1/4) times that reference, is settled as rank.
    The Gram's rounding (about eps * top^2) lies far below the screen, so
    it never decides a singular value near the threshold, and a screened
    direction tilts the candidate eigenvectors by at most about
    eps / sqrt(cutoff).  (A screen at cutoff * ref^2 would allow a tilt of
    eps / cutoff, enough to move the identity out of a commutant by 1e-7
    and to flip an irreducibility verdict.)

    Decide: a block restricted to its candidate eigenvectors has a
    Frobenius norm that bounds each of its singular values, so a norm
    within the threshold makes every candidate null; otherwise an SVD of
    the small restricted block applies the threshold.  That block is
    padded with zero rows when it is wide, because the economy SVD returns
    only as many right singular vectors as there are rows."""
    grams = [np.linalg.eigh(block.T @ block) for block in blocks]
    top = float(np.sqrt(max(max(evals[-1], 0.0) for evals, _ in grams)))
    ref = max(top, scale)
    threshold = cutoff * ref
    null = []
    for block, (evals, evecs) in zip(blocks, grams):
        candidates = evecs[:, evals <= np.sqrt(cutoff) * ref * ref]
        restricted = block @ candidates
        if np.linalg.norm(restricted) <= threshold:
            null.append(candidates.T)
            continue
        rows, cols = restricted.shape
        if rows < cols:
            restricted = np.concatenate(
                [restricted, np.zeros((cols - rows, cols))])
        _, svals, vh = np.linalg.svd(restricted, full_matrices=False)
        rank = int(np.sum(svals > threshold))
        null.append(vh[rank:] @ candidates.T)
    return null


def _unit_scaled(mats: np.ndarray) -> np.ndarray:
    """Each nonzero matrix of a (k, n, n, 4) stack at unit Frobenius norm,
    after an exact binary scaling, so that the norm is finite and nonzero
    at any scale; a zero matrix stays zero."""
    mats = binary_scaled(mats)
    n = mats.shape[1]
    norms = np.linalg.norm(mats.reshape(len(mats), 4 * n * n), axis=1)
    return mats / np.where(norms > 0.0, norms, 1.0)[:, None, None, None]


def _commutant_of(mats: np.ndarray) -> CommutantBasis:
    """Commutant (S u S*)' of a (k, n, n, 4) stack S of matrices of about
    unit Frobenius norm (the weighted generators; the commutant basis; both
    together), on which a cutoff relative to max(top, 1) is relative.

    T is in (S u S*)' iff T* is, since [G, T]* = -[G*, T*], so the
    commutant is its selfadjoint part plus its skew part.  In
    selfadjoint/skew coordinates T -> T* is +-1, and ad_G*(T) =
    -(ad_G(T*))*, so ad_G* has the same two diagonal Gram blocks as ad_G;
    those blocks are all that is read.  The two blocks of
    :func:`_commutator_constraint` are decided separately by
    :func:`_nullspace_rows` under the one threshold of the whole
    constraint.  The rows come out selfadjoint first, then skew."""
    parts = _nullspace_rows(_commutator_constraint(mats), SV_CUTOFF, 1.0)
    return CommutantBasis(_from_adjoint_coordinates(parts, mats.shape[1]),
                          selfadjoint=len(parts[0]))


class StarAlgebra:
    """Unital *-algebra presented by a finite generating set.

    The generator list is closed under the adjoint and always contains the
    identity; the commutant basis is computed on first use and cached.

    The commutant's constraint holds one generator per adjoint pair: each
    input generator at unit Frobenius norm (the commutant of c G is that of
    G), weighted sqrt 2 when it is not selfadjoint.  Its two Gram blocks are
    then those of the whole unit-scaled list, identity and adjoints
    included (see :func:`_commutant_of`), with half the rows.
    """

    def __init__(self, generators: list[QMatrix], n: int | None = None):
        if n is None:
            if not generators:
                raise ValueError("need generators or an explicit dimension")
            n = generators[0].n
        self.n = n
        gens = [QMatrix.identity(n)]
        scaled, weights = [], []
        for g in generators:
            if g.n != n:
                raise ValueError("generators have mixed dimensions")
            gens.append(g)
            s = binary_scaled(g.data)
            paired = (np.linalg.norm(s - conj4(np.swapaxes(s, 0, 1)))
                      > 1e-14 * np.linalg.norm(s))
            if paired:
                gens.append(g.H)
            scaled.append(s)
            weights.append(math.sqrt(2.0) if paired else 1.0)
        self.generators = gens
        self._constraint = (_unit_scaled(np.reshape(scaled, (-1, n, n, 4)))
                            * np.reshape(weights, (-1, 1, 1, 1)))
        self._commutant: CommutantBasis | None = None
        self._bicommutant: CommutantBasis | None = None

    def commutant_basis(self) -> CommutantBasis:
        if self._commutant is None:
            self._commutant = _commutant_of(self._constraint)
        return self._commutant

    def bicommutant_basis(self) -> CommutantBasis:
        if self._bicommutant is None:
            self._bicommutant = _commutant_of(self.commutant_basis().stack)
        return self._bicommutant

    def to_json(self) -> dict:
        return {"n": self.n, "generators": [g.to_json() for g in self.generators]}

    @classmethod
    def from_json(cls, payload: dict) -> "StarAlgebra":
        gens = [QMatrix.from_json(g) for g in payload["generators"]]
        return cls(gens, n=payload["n"])


def commutant(algebra: StarAlgebra) -> CommutantBasis:
    return algebra.commutant_basis()


def bicommutant(algebra: StarAlgebra) -> CommutantBasis:
    return algebra.bicommutant_basis()


def center(algebra: StarAlgebra) -> CommutantBasis:
    """The intersection of the commutant A' and the bicommutant A'': the
    commutant of the generators together with the commutant basis, since
    what commutes with the generators lies in A' and what commutes with A'
    lies in A''."""
    return _commutant_of(np.concatenate(
        [algebra._constraint, algebra.commutant_basis().stack]))


def _row_span(stack: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal rows spanning the rows of stack, keeping the singular
    values above SV_CUTOFF * max(top, scale), top the largest, as in
    :func:`_nullspace_rows`.  A stack whose Frobenius norm, which bounds
    every singular value, is within SV_CUTOFF * scale has no such row, and
    no SVD is taken."""
    if np.linalg.norm(stack) <= SV_CUTOFF * scale:
        return stack[:0]
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[svals > SV_CUTOFF * max(svals[0], scale)]


def generated_algebra(algebra: StarAlgebra) -> CommutantBasis:
    """Real span of the unital *-algebra generated by the generators.

    The generated algebra does not depend on scale, so the generators
    (which include the identity and are closed under the adjoint) are
    first put at unit Frobenius norm.  Krylov-style closure from their
    orthonormal span: if the span V grew by the rows N, the words one
    letter longer add only the products G N, so each round left-multiplies
    only the rows the previous round added by every generator but the
    identity, projects the products twice off V and adds the new
    directions of the residual, at a cutoff relative to unit scale.  The
    span of all words is reached once a round adds none; every round
    before that one raises the rank, so at most 4n^2 rounds are needed.
    """
    n = algebra.n
    gens = _unit_scaled(np.stack([g.data for g in algebra.generators]))
    rows = _row_span(gens.reshape(len(gens), -1), 1.0)
    newest = rows
    for _ in range(4 * n * n):
        rest = matmul4(gens[1:, None], newest.reshape(1, -1, n, n, 4))
        rest = rest.reshape(-1, 4 * n * n)
        for _ in range(2):
            rest = rest - (rest @ rows.T) @ rows
        newest = _row_span(rest, 1.0)
        if not len(newest):
            return CommutantBasis(rows)
        rows = np.concatenate([rows, newest])
    raise InternalInconsistency(
        f"generated algebra did not close within {4 * n * n} rounds")


def subspace_gap(a: CommutantBasis, b: CommutantBasis) -> float:
    """Largest distance of a basis row of either subspace from the other."""
    return max_residual(*(
        float(np.linalg.norm(x - (x @ y.T) @ y, axis=1).max(initial=0.0))
        for x, y in ((a.mat, b.mat), (b.mat, a.mat))))


# ---------------------------------------------------------------------------
# irreducibility and classification


def is_irreducible(algebra: StarAlgebra) -> bool:
    """True iff every projection in the commutant is trivial.

    A nontrivial commutant projection is selfadjoint and not scalar, and a
    nonscalar selfadjoint commutant element has nontrivial spectral
    projections, which lie in the commutant.  So the algebra is irreducible
    iff the selfadjoint part of the commutant is R I, a dimension that the
    nullspace rule of the commutant decides.
    """
    return algebra.commutant_basis().selfadjoint == 1


def reducibility_witness(algebra: StarAlgebra) -> QMatrix | None:
    """A nontrivial commutant projection: a spectral projection of the
    selfadjoint commutant row farthest from the line of I; None for an
    irreducible algebra.  The selfadjoint rows are orthonormal and span I,
    so with s of them the squared norms of their traceless parts sum to
    s - 1, and the chosen row's is at least (s - 1) / s.  A nonscalar
    selfadjoint row has at least two eigenspheres, so its first projection
    is neither 0 nor I."""
    if is_irreducible(algebra):
        return None
    comm = algebra.commutant_basis()
    n = algebra.n
    sym = comm.mat[:comm.selfadjoint]
    identity = vec(QMatrix.identity(n)) / math.sqrt(n)
    row = sym[np.argmin(np.abs(sym @ identity))]
    return spectral_projections(QMatrix(row.reshape(n, n, 4)))[0][1]


def _fix_sign(j: QMatrix) -> QMatrix:
    """Deterministic sign: first significantly nonzero vectorized entry > 0."""
    x = vec(j)
    nz = np.flatnonzero(np.abs(x) > 1e-8 * max(1.0, float(np.abs(x).max())))
    if nz.size and x[nz[0]] < 0:
        return -j
    return j


@dataclass(frozen=True)
class Classification:
    """Trichotomy verdict for an irreducible algebra, with the recovered
    structural operators."""

    kind: str                       # ProperQuaternionic | ComplexInduced | RealInduced
    commutant_dim: int
    J: QMatrix | None = None
    I: QMatrix | None = None
    K: QMatrix | None = None

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind, "commutant_dim": self.commutant_dim}
        for name, op in (("J", self.J), ("I", self.I), ("K", self.K)):
            if op is not None:
                payload[name] = op.to_json()
        return payload


_KINDS = {0: "ProperQuaternionic", 1: "ComplexInduced", 3: "RealInduced"}


def classify_irreducible(algebra: StarAlgebra) -> Classification:
    """Kind from the dimension of the commutant's skew part: 0, 1 or 3.

    The commutant of an irreducible algebra is R, C or H: R I plus the
    skew rows of the commutant basis.  An anti-selfadjoint unitary has
    trace-form norm sqrt(n), so J is sqrt(n) times the one skew row; for H
    two orthonormal skew rows give the anticommuting I and J, and K = I J.
    Any other dimension, or a recovered unit that fails U^2 = -I or
    anticommutation, raises.
    """
    if not is_irreducible(algebra):
        raise StructureError("algebra is reducible; classification needs "
                             "an irreducible input")
    comm = algebra.commutant_basis()
    skew = comm.mat[comm.selfadjoint:]
    kind = _KINDS.get(len(skew))
    if kind is None:
        raise InternalInconsistency(
            f"irreducible commutant has a skew part of dimension "
            f"{len(skew)}, expected 0, 1 or 3")
    n = algebra.n
    units = [_fix_sign(QMatrix(math.sqrt(n) * row.reshape(n, n, 4)))
             for row in skew[:2]]
    ident = QMatrix.identity(n)
    residual = max_residual(*((u @ u + ident).frob() for u in units))
    if len(units) == 2:
        residual = max_residual(
            residual, (units[0] @ units[1] + units[1] @ units[0]).frob())
    if not residual <= MEMBERSHIP_TOL * math.sqrt(n):
        raise InternalInconsistency(
            f"recovered units fail U^2 = -I or anticommutation "
            f"(residual {residual:.2e})")
    if len(units) == 2:
        i_unit, j_unit = units
        return Classification(kind, comm.dim_r, J=j_unit, I=i_unit,
                              K=i_unit @ j_unit)
    return Classification(kind, comm.dim_r, J=units[0] if units else None)


# ---------------------------------------------------------------------------
# reduction of a complex-induced system to its component space


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of reducing a complex-induced system to the plus space."""

    classification: Classification
    split: SplitSpace
    restricted_generators: list[np.ndarray]
    restricted_evolution: list[np.ndarray]
    checks: list[Check]

    def to_json(self) -> dict:
        return {
            "classification": self.classification.to_json(),
            "split_space": self.split.to_json(),
            "restricted_generators": [complex_matrix_to_json(m)
                                      for m in self.restricted_generators],
            "restricted_evolution": [complex_matrix_to_json(m)
                                     for m in self.restricted_evolution],
        }


def _projection_samples(algebra: StarAlgebra) -> list[QMatrix]:
    samples = [QMatrix.identity(algebra.n)]
    for g in algebra.generators[1:]:
        # the projections of g are those of its exactly scaled copy, on
        # which the tests below are relative to the size of g at any scale;
        # a generator with no selfadjoint part adds none
        sym = QMatrix(binary_scaled(g.data))
        sym = (sym + sym.H) * 0.5
        if sym.frob() <= 1e-12:
            continue
        for _, proj in spectral_projections(sym):
            samples.append(proj)
    return samples


def _ray_representative(e: QMatrix, space: SplitSpace,
                        probe: QVector) -> QVector | None:
    """Vector in range(E) that lies in the plus space, if recoverable."""
    u = e @ probe
    for candidate in (u, u * space.frame.j.as_quaternion()):
        w = plus_projector_apply(space.J, candidate, space.frame)
        nrm = w.norm()
        if nrm > 1e-6:
            return w * (1.0 / nrm)
    return None


def reduce_system(algebra: StarAlgebra, evolution: list[QMatrix],
                  i: ImaginaryUnit, seed: int = 0) -> ReductionReport:
    """Reduce a complex-induced quaternionic system to its component space.

    Certifies, with one named check per item:
      (a) every sampled lattice projection is the extension of its
          restriction, so its range splits as K (+) K*j;
      (b) quaternionic and restricted complex ranks agree;
      (c) sampled rank-one lattice projections contain a representative
          vector in the plus space;
      (d) evolution restricts to a unitary on the plus space, extends back
          to the original operator, and preserves the plus space.
    """
    classification = classify_irreducible(algebra)
    if classification.kind != "ComplexInduced":
        raise NotComplexInduced(
            f"classification is {classification.kind}; reduction needs a "
            "compatible J")
    j = classification.J
    for idx, u in enumerate(evolution):
        res = commutator_residual(j, u)
        if not res <= 1e-9:
            raise DoesNotCommute(res, f"evolution operator {idx} does not "
                                 f"commute with J (relative residual "
                                 f"{res:.2e})")
    space = split_plus_minus(j, i)
    n = algebra.n
    rng = np.random.default_rng(seed)
    checks: list[Check] = []

    restricted_gens = [restrict_to_plus(g, space, tol=1e-8)
                       for g in algebra.generators]

    # (a) + (b): projections are extensions of their restrictions
    worst_ext = 0.0
    worst_rank = 0.0
    for e in _projection_samples(algebra):
        restricted = restrict_to_plus(e, space, tol=1e-7)
        rebuilt = extend_from_plus(restricted, space)
        worst_ext = max_residual(worst_ext, (rebuilt - e).frob())
        rank_h = e.trace().w
        rank_c = float(np.trace(restricted).real)
        worst_rank = max_residual(worst_rank, abs(rank_h - rank_c))
    checks.append(Check("projection_extension", worst_ext, 1e-8))
    checks.append(Check("projection_rank_match", worst_rank, 1e-8))

    # (c) rank-one lattice projections have plus-space representatives
    worst_ray = 0.0
    iq = space.frame.i.as_quaternion()
    for _ in range(8):
        coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = space.basis @ QVector.from_complex(coords, space.frame)
        w = w * (1.0 / w.norm())
        e = outer(w, w)
        probe = QVector(rng.standard_normal((n, 4)))
        rep = _ray_representative(e, space, probe)
        if rep is None:
            worst_ray = max_residual(worst_ray, 1.0)
            continue
        in_plus = ((space.J @ rep) - rep * iq).norm()
        in_range = ((e @ rep) - rep).norm()
        spans_ray = (outer(rep, rep) - e).frob()
        worst_ray = max_residual(worst_ray, in_plus, in_range, spans_ray)
    checks.append(Check("ray_representative", worst_ray, 1e-8))

    # (d) evolution restricts to a unitary and extends back
    restricted_evo = []
    worst_unitary = 0.0
    worst_roundtrip = 0.0
    worst_invariance = 0.0
    for u in evolution:
        restricted = restrict_to_plus(u, space, tol=1e-8)
        restricted_evo.append(restricted)
        gram = restricted.conj().T @ restricted - np.eye(n)
        worst_unitary = max_residual(worst_unitary,
                                     float(np.linalg.norm(gram)))
        rebuilt = extend_from_plus(restricted, space)
        worst_roundtrip = max_residual(worst_roundtrip,
                                       (rebuilt - u).frob())
        coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = space.basis @ QVector.from_complex(coords, space.frame)
        v = v * (1.0 / v.norm())
        moved = u @ v
        worst_invariance = max_residual(
            worst_invariance, ((space.J @ moved) - moved * iq).norm())
    checks.append(Check("evolution_restriction_unitary", worst_unitary, 1e-9))
    checks.append(Check("evolution_roundtrip", worst_roundtrip, 1e-9))
    checks.append(Check("evolution_plus_invariance", worst_invariance,
                        1e-8))

    return ReductionReport(classification, space, restricted_gens,
                           restricted_evo, checks)
