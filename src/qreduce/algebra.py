"""Finite-dimensional *-algebras of quaternionic operators.

The commutant is computed as a real-linear nullspace problem: matrices
vectorize to R^(4n^2), each generator G contributes the real matrix of
T -> GT - TG, and the commutant is the joint nullspace of the stacked
constraint.  The nullspace is found in two steps.  One symmetric
eigendecomposition of the 4n^2 x 4n^2 Gram matrix settles every direction
whose singular value lies far above the cutoff.  The constraint restricted
to the few remaining candidate directions then decides them with the same
relative cutoff that an SVD of the whole constraint would apply.
Everything else (bicommutant, center, irreducibility, the R/C/H trichotomy
of irreducible algebras and the reduction of complex-induced systems to
their component space) is layered on top of that one primitive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DoesNotCommute,
    InternalInconsistency,
    NormalizationError,
    NotComplexInduced,
    NotInScalarCommutant,
    StructureError,
    ZeroProbability,
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
    classify_operator,
    complex_embed,
    complex_matrix_to_json,
    is_unitary,
    outer,
    spectral_projections,
)
from .quat import QTENSOR, ImaginaryUnit, conj4, matmul4
from .report import Check

SV_CUTOFF = 1e-9
MEMBERSHIP_TOL = 1e-8
GAP_CUTOFF = 1e-7


def vec(t: QMatrix) -> np.ndarray:
    return t.data.reshape(-1)


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal real basis (under the trace form) of a subspace of the
    n x n quaternionic matrices, held as the rows of one array."""

    mat: np.ndarray            # dim_r x 4n^2, orthonormal rows

    @property
    def dim_r(self) -> int:
        return self.mat.shape[0]

    @property
    def stack(self) -> np.ndarray:
        """The basis as a (dim_r, n, n, 4) component array."""
        n = math.isqrt(self.mat.shape[1] // 4)
        return self.mat.reshape(-1, n, n, 4)

    @property
    def basis(self) -> list[QMatrix]:
        return [QMatrix(b) for b in self.stack]

    def membership_residual(self, t: QMatrix) -> float:
        """Relative least-squares distance of t from the spanned subspace."""
        x = vec(t)
        scale = max(1.0, float(np.linalg.norm(x)))
        return float(np.linalg.norm(x - self.mat.T @ (self.mat @ x))) / scale

    def contains(self, t: QMatrix, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership_residual(t) <= tol


def _commutator_constraint(gens: np.ndarray) -> np.ndarray:
    """Stacked real matrices of T -> G T - T G on vectorized T for a
    (k, n, n, 4) stack of generators: shape (k 4n^2, 4n^2), built in one
    pass from the Hamilton structure tensor."""
    k, n = gens.shape[0], gens.shape[1]
    out = np.zeros((k, n, n, 4, n, n, 4))
    diag = np.arange(n)
    # (G T)[m, l] = sum_p G[m, p] T[p, l]
    out[:, :, diag, :, :, diag, :] = np.einsum(
        "abc,gmpa->gmcpb", QTENSOR, gens)
    # (T G)[m, l] = sum_p T[m, p] G[p, l]
    out[:, diag, :, :, diag, :, :] -= np.einsum(
        "abc,gplb->glcpa", QTENSOR, gens)
    return out.reshape(k * 4 * n * n, 4 * n * n)


def _nullspace_rows(constraint: np.ndarray, cutoff: float,
                    scale: float) -> np.ndarray:
    """Orthonormal rows spanning the nullspace of constraint.

    A direction counts as null when its singular value is at most
    cutoff * max(top, scale), where top is the largest singular value and
    scale the generator magnitude, so that a constraint that is
    numerically zero (scalar generators) yields the full space.

    Screen: one eigh of the Gram matrix constraint^T constraint.  An
    eigenvalue above sqrt(cutoff) * max(top, scale)^2, i.e. a singular
    value above cutoff^(1/4) times that reference, is settled as rank.
    The Gram's rounding (about eps * top^2) lies far below the screen, so
    it never decides a singular value near the threshold, and a screened
    direction tilts the candidate eigenvectors by at most about
    eps / sqrt(cutoff).  (A screen at cutoff * ref^2 would allow a tilt of
    eps / cutoff, enough to move the identity out of a commutant by 1e-7
    and to flip an irreducibility verdict.)

    Decide: the constraint restricted to the candidate eigenvectors has a
    Frobenius norm that bounds each of its singular values, so a norm
    within the threshold makes every candidate null; otherwise an SVD of
    the small restricted block applies the threshold.  That block is
    padded with zero rows when it is wide, because the economy SVD returns
    only as many right singular vectors as there are rows."""
    evals, evecs = np.linalg.eigh(constraint.T @ constraint)
    top = float(np.sqrt(max(evals[-1], 0.0)))
    ref = max(top, scale)
    threshold = cutoff * ref
    candidates = evecs[:, evals <= np.sqrt(cutoff) * ref * ref]
    block = constraint @ candidates
    if np.linalg.norm(block) <= threshold:
        return candidates.T
    rows, cols = block.shape
    if rows < cols:
        block = np.concatenate([block, np.zeros((cols - rows, cols))])
    _, svals, vh = np.linalg.svd(block, full_matrices=False)
    rank = int(np.sum(svals > threshold))
    return vh[rank:] @ candidates.T


def _commutant_of(mats: np.ndarray) -> CommutantBasis:
    """Commutant of a (k, n, n, 4) stack of matrices.

    The commutant of c G is that of G, so each nonzero matrix is scaled to
    unit Frobenius norm first and the cutoff is relative at every scale."""
    norms = np.linalg.norm(mats.reshape(len(mats), -1), axis=1)
    unit = mats / np.where(norms > 0.0, norms, 1.0)[:, None, None, None]
    return CommutantBasis(_nullspace_rows(_commutator_constraint(unit),
                                          SV_CUTOFF, 1.0))


class StarAlgebra:
    """Unital *-algebra presented by a finite generating set.

    The generator list is closed under the adjoint and always contains the
    identity; the commutant basis is computed on first use and cached.
    """

    def __init__(self, generators: list[QMatrix], n: int | None = None):
        if n is None:
            if not generators:
                raise ValueError("need generators or an explicit dimension")
            n = generators[0].n
        self.n = n
        gens = [QMatrix.identity(n)]
        for g in generators:
            if g.n != n:
                raise ValueError("generators have mixed dimensions")
            gens.append(g)
            if (g - g.H).frob() > 1e-14 * max(1.0, g.frob()):
                gens.append(g.H)
        self.generators = gens
        self._commutant: CommutantBasis | None = None
        self._bicommutant: CommutantBasis | None = None

    def commutant_basis(self) -> CommutantBasis:
        if self._commutant is None:
            self._commutant = _commutant_of(
                np.stack([g.data for g in self.generators]))
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
    """Intersection of the algebra (bicommutant) with its commutant."""
    comm = algebra.commutant_basis()
    bicomm = algebra.bicommutant_basis()
    eye = np.eye(comm.mat.shape[1])
    complement = ((eye - comm.mat.T @ comm.mat)
                  + (eye - bicomm.mat.T @ bicomm.mat))
    vals, vecs = np.linalg.eigh(complement)
    return CommutantBasis(vecs[:, vals < SV_CUTOFF].T)


def _row_span(stack: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of stack, dropping singular values
    below SV_CUTOFF relative to the largest."""
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[svals > SV_CUTOFF * svals[0]]


def generated_algebra(algebra: StarAlgebra) -> CommutantBasis:
    """Real span of the unital *-algebra generated by the generators.

    Krylov-style closure: starting from the span of the generators (which
    include the identity and are closed under the adjoint), each round
    left-multiplies the current orthonormal spanning set by the generators
    and re-orthonormalises.  The span of all words in the generators is
    reached once a round adds no rank.  Every round before that one raises
    the rank, so at most 4n^2 rounds are needed.
    """
    n = algebra.n
    gens = np.stack([g.data for g in algebra.generators])
    rows = _row_span(gens.reshape(len(gens), -1))
    for _ in range(4 * n * n):
        products = matmul4(gens[:, None], rows.reshape(1, -1, n, n, 4))
        new_rows = _row_span(
            np.concatenate([rows, products.reshape(-1, 4 * n * n)]))
        if new_rows.shape[0] == rows.shape[0]:
            return CommutantBasis(new_rows)
        rows = new_rows
    raise InternalInconsistency(
        f"generated algebra did not close within {4 * n * n} rounds")


def subspace_gap(a: CommutantBasis, b: CommutantBasis) -> float:
    """Largest distance of a basis row of either subspace from the other."""
    return max(float(np.linalg.norm(x - (x @ y.T) @ y, axis=1).max(initial=0.0))
               for x, y in ((a.mat, b.mat), (b.mat, a.mat)))


# ---------------------------------------------------------------------------
# irreducibility and classification


def _spread_exceeds(stack: np.ndarray) -> np.ndarray:
    """For each (n, n, 4) component array in stack: whether its selfadjoint
    part has a spectral spread beyond GAP_CUTOFF times max(1, its norm)."""
    sym = 0.5 * (stack + conj4(np.swapaxes(stack, -3, -2)))
    vals = np.linalg.eigvalsh(complex_embed(sym))
    scale = np.maximum(1.0, np.linalg.norm(sym.reshape(len(sym), -1), axis=1))
    return vals[:, -1] - vals[:, 0] > GAP_CUTOFF * scale


def is_irreducible(algebra: StarAlgebra) -> bool:
    """True iff every projection in the commutant is trivial.

    A nontrivial commutant projection P = sum_k c_k b_k over the basis b_k
    is its own selfadjoint part, so it is scalar unless some b_k has a
    selfadjoint part with separated eigenspheres; such a part in turn
    yields a nontrivial invariant projection.  The basis is therefore
    scanned, as one batch, for a spectral spread beyond GAP_CUTOFF.
    """
    return not _spread_exceeds(algebra.commutant_basis().stack).any()


def reducibility_witness(algebra: StarAlgebra) -> QMatrix | None:
    """A nontrivial commutant projection, taken from the basis elements that
    the :func:`is_irreducible` scan flags; None for an irreducible algebra."""
    basis = algebra.commutant_basis().stack
    ident = QMatrix.identity(algebra.n)
    for b in basis[_spread_exceeds(basis)]:
        b = QMatrix(b)
        for _, p in spectral_projections((b + b.H) * 0.5):
            if p.frob() > 0.5 and (p - ident).frob() > 0.5:
                return p
    return None


def extract_anti_unit(t: QMatrix, tol: float = 1e-8
                      ) -> tuple[float, float, QMatrix | None]:
    """Split an element of a scalar commutant as T = a I + b J.

    T must have scalar selfadjoint part and scalar squared skew part; the
    recovered J (absent when the skew part vanishes) is unitary and
    anti-selfadjoint with J^2 = -I.
    """
    n = t.n
    ident = QMatrix.identity(n)
    scale = max(1.0, t.frob())
    a = t.trace().w / n
    sym = (t + t.H) * 0.5
    res_sym = (sym - ident * a).frob()
    skew = (t - t.H) * 0.5
    skew_sq = skew @ skew
    c = skew_sq.trace().w / n
    res_sq = (skew_sq - ident * c).frob()
    if res_sym > tol * scale or res_sq > tol * scale * scale:
        raise NotInScalarCommutant(max(res_sym, res_sq))
    if c > 1e-10 * scale * scale:
        raise NotInScalarCommutant(c, "skew part squares to a positive scalar")
    if abs(c) <= 1e-10 * scale * scale:
        return a, 0.0, None
    b = float(np.sqrt(-c))
    j = skew * (1.0 / b)
    recon = (t - ident * a - j * b).frob()
    if recon > tol * scale:
        raise NotInScalarCommutant(recon)
    return a, b, j


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


def classify_irreducible(algebra: StarAlgebra,
                         tol: float = 1e-8) -> Classification:
    """Branch on the real dimension of the commutant: 1, 2 or 4.

    Dimension 2 recovers the up-to-sign unique compatible J; dimension 4
    recovers an anticommuting triple (I, J, K = I J).  Any other dimension
    signals a tolerance failure and raises.
    """
    if not is_irreducible(algebra):
        raise StructureError("algebra is reducible; classification needs "
                             "an irreducible input")
    comm = algebra.commutant_basis()
    dim = comm.dim_r
    if dim == 1:
        return Classification("ProperQuaternionic", 1)
    if dim == 2:
        skews = [(b - b.H) * 0.5 for b in comm.basis]
        best = max(skews, key=lambda s: s.frob())
        _, b_coeff, j = extract_anti_unit(best, tol)
        if j is None or b_coeff == 0.0:
            raise InternalInconsistency(
                "two-dimensional commutant without an anti-selfadjoint unit")
        return Classification("ComplexInduced", 2, J=_fix_sign(j))
    if dim == 4:
        n = algebra.n
        skews = sorted(((b - b.H) * 0.5 for b in comm.basis),
                       key=lambda s: -s.frob())
        _, _, first = extract_anti_unit(skews[0], tol)
        if first is None:
            raise InternalInconsistency("commutant skew part is degenerate")
        second = None
        for cand in skews[1:]:
            anti = cand @ first + first @ cand
            c = anti.trace().w / n
            if (anti - QMatrix.identity(n) * c).frob() > tol * max(
                    1.0, cand.frob()):
                raise InternalInconsistency(
                    "anticommutator with the first unit is not scalar")
            reduced = cand + first * (0.5 * c)
            if reduced.frob() > 1e-6:
                second = reduced
                break
        if second is None:
            raise InternalInconsistency(
                "could not find a second independent anti-selfadjoint unit")
        _, _, j_unit = extract_anti_unit(second, tol)
        i_unit = _fix_sign(first)
        j_unit = _fix_sign(j_unit)
        anti = (i_unit @ j_unit + j_unit @ i_unit).frob()
        if anti > tol * max(1.0, i_unit.frob() * j_unit.frob()):
            raise InternalInconsistency(
                f"recovered units fail to anticommute (residual {anti:.2e})")
        k_unit = i_unit @ j_unit
        return Classification("RealInduced", 4, J=j_unit, I=i_unit, K=k_unit)
    raise InternalInconsistency(
        f"irreducible commutant has real dimension {dim}, expected 1, 2 or 4")


# ---------------------------------------------------------------------------
# symmetries and states


def induce_symmetry(u: QMatrix, e: QMatrix, tol: float = 1e-10) -> QMatrix:
    """Conjugate a projection by a unitary: the lattice automorphism action."""
    if not is_unitary(u, tol):
        raise StructureError("symmetry operator must be unitary")
    if not classify_operator(e, tol).projection:
        raise StructureError("can only transport projections")
    return u @ e @ u.H


def same_symmetry(u: QMatrix, u_prime: QMatrix, algebra: StarAlgebra,
                  tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether two unitaries induce the same lattice automorphism: their
    relative unitary must lie in the center."""
    for op in (u, u_prime):
        if not is_unitary(op):
            raise StructureError("symmetry operators must be unitary")
    relative = u_prime @ u.H
    return center(algebra).membership_residual(relative) <= tol


@dataclass(frozen=True)
class StateFunctional:
    """Pure state as a probability assignment E -> |E v|^2 over projections."""

    vector: QVector

    def __post_init__(self):
        nrm = self.vector.norm()
        if abs(nrm - 1.0) > 1e-10:
            raise NormalizationError(f"state vector has norm {nrm!r}")

    def prob(self, e: QMatrix) -> float:
        return (e @ self.vector).norm() ** 2


def lueders_update(mu: StateFunctional, f: QMatrix,
                   tol: float = 1e-10) -> StateFunctional:
    """Post-measurement state after finding the proposition f true."""
    if not classify_operator(f, tol).projection:
        raise StructureError("conditioning event must be a projection")
    p = mu.prob(f)
    if p <= 1e-12:
        raise ZeroProbability(f"conditioning on probability {p!r}")
    new_vec = f @ mu.vector
    return StateFunctional(new_vec * (1.0 / new_vec.norm()))


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "classification": self.classification.to_json(),
            "split_space": self.split.to_json(),
            "restricted_generators": [complex_matrix_to_json(m)
                                      for m in self.restricted_generators],
            "restricted_evolution": [complex_matrix_to_json(m)
                                     for m in self.restricted_evolution],
            "checks": [c.to_json() for c in self.checks],
        }


def _projection_samples(algebra: StarAlgebra) -> list[QMatrix]:
    samples = [QMatrix.identity(algebra.n)]
    for g in algebra.generators[1:]:
        sym = (g + g.H) * 0.5
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
                  i: ImaginaryUnit, tol: float = 1e-8,
                  seed: int = 0) -> ReductionReport:
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
        res = (u @ j - j @ u).frob()
        if res > 1e-9 * max(1.0, u.frob()):
            raise DoesNotCommute(res, f"evolution operator {idx} does not "
                                 f"commute with J (residual {res:.2e})")
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
        worst_ext = max(worst_ext, (rebuilt - e).frob())
        rank_h = e.trace().w
        rank_c = float(np.trace(restricted).real)
        worst_rank = max(worst_rank, abs(rank_h - rank_c))
    checks.append(Check("projection_extension", worst_ext, tol))
    checks.append(Check("projection_rank_match", worst_rank, 0.5))

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
            worst_ray = max(worst_ray, 1.0)
            continue
        in_plus = ((space.J @ rep) - rep * iq).norm()
        in_range = ((e @ rep) - rep).norm()
        spans_ray = (outer(rep, rep) - e).frob()
        worst_ray = max(worst_ray, in_plus, in_range, spans_ray)
    checks.append(Check("ray_representative", worst_ray, tol))

    # (d) evolution restricts to a unitary and extends back
    restricted_evo = []
    worst_unitary = 0.0
    worst_roundtrip = 0.0
    worst_invariance = 0.0
    for u in evolution:
        restricted = restrict_to_plus(u, space, tol=1e-8)
        restricted_evo.append(restricted)
        gram = restricted.conj().T @ restricted - np.eye(n)
        worst_unitary = max(worst_unitary, float(np.linalg.norm(gram)))
        rebuilt = extend_from_plus(restricted, space)
        worst_roundtrip = max(worst_roundtrip, (rebuilt - u).frob())
        coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = space.basis @ QVector.from_complex(coords, space.frame)
        v = v * (1.0 / v.norm())
        moved = u @ v
        worst_invariance = max(
            worst_invariance, ((space.J @ moved) - moved * iq).norm())
    checks.append(Check("evolution_restriction_unitary", worst_unitary, 1e-9))
    checks.append(Check("evolution_roundtrip", worst_roundtrip, 1e-9))
    checks.append(Check("evolution_plus_invariance", worst_invariance, tol))

    return ReductionReport(classification, space, restricted_gens,
                           restricted_evo, checks)
