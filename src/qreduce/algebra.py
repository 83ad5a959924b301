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
From n = DIAGONAL_SCREEN_MIN_N on, the two blocks are first rotated into
the eigenbasis of one selfadjoint element H of the algebra, a fixed
combination of the generators' selfadjoint parts and their g* g.  Every
commutant element commutes with H; when H's eigenspheres are simple and
well apart, it is diagonal there, so the nullspace is proposed from the
n selfadjoint and 3n skew diagonal coordinates alone.  The proposal is
kept only when two checks prove that its dimension is the one the SVD rule
gives: a Frobenius bound (at least that many singular values lie within
the threshold) and one Cholesky factorisation per block (at most that
many lie below a screen far above it).  A degenerate H (the bicommutant of
an irreducible algebra has H ~ I) or a failed check runs the eigh screen
on the same blocks, whose singular values the rotation does not change.
The bicommutant and the center are commutants too.  Irreducibility and
the R/C/H trichotomy are read off the nullspace dimensions of the two
blocks, so the nullspace rule is the only decision behind them: the
algebra is irreducible iff the selfadjoint part of its commutant is R I,
and the kind is the dimension of the skew part (0, 1 or 3).  The witness
and J or (I, J, K) come from projections of fixed matrices onto those
parts, which no choice of orthonormal rows moves.
The generated algebra, which cross-checks the bicommutant, is closed
from its newest rows: each round multiplies only the rows the previous
round added, and it stops once its span is the whole space.
The reduction of complex-induced systems is layered on top.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInconsistency,
    NotComplexInduced,
    StructureError,
)
from .functors import (
    SplitSpace,
    extend_from_plus,
    require_j_commuting,
    restrict_to_plus,
    split_plus_minus,
)
from .qlinalg import (
    QMatrix,
    binary_scaled,
    complex_matrix_to_json,
    member_norms,
    relative_residual,
    spectral_projections,
)
from .quat import (QTENSOR, ImaginaryUnit, conj4, matmul4, mul4,
                   symplectic_join)
from .report import Check, max_residual

SV_CUTOFF = 1e-9
MEMBERSHIP_TOL = 1e-8
# From this n on, the commutant is proposed in the eigenbasis of one
# selfadjoint element of the algebra (see _commutant_of).  Mean time of one
# commutant solve over a proper, a complex-induced and a real-induced
# plant, median of nine repeats, on 2 shared Xeon cores at one OpenBLAS
# thread, three runs: at n = 5, 1.25-2.1 ms with the eigenbasis against
# 1.05-1.65 ms without; at n = 6, 1.6-1.9 ms against 2.3-3.7 ms; at n = 8,
# 2.85-2.9 ms against 6.3-7.9 ms.  Each run was slower with the eigenbasis
# at n = 5 and faster at n = 6: below n = 6 its eigensphere projections
# and certificate cost more than the two small Gram eigendecompositions
# they replace.
DIAGONAL_SCREEN_MIN_N = 6


def vec(t: QMatrix) -> np.ndarray:
    return t.data.reshape(-1)


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal real basis (under the trace form) of a subspace of the
    n x n quaternionic matrices, as the rows of one array; any such rows
    serve, since it is read through :func:`_project`.  A commutant counts
    its selfadjoint rows, the first ones; the rest are skew."""

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
        """Least-squares distance of t from the spanned subspace relative
        to |t|, the same at every scale of t (see relative_residual)."""
        return relative_residual(lambda x: x - _project(self.mat, x), vec(t))


def _project(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x, one vectorized matrix or a batch of
    them as rows, onto the span of the orthonormal rows.  The projector
    rows^T rows is the same for every orthonormal basis of that span."""
    return (x @ rows.T) @ rows


def _probes(n: int) -> np.ndarray:
    """Two fixed vectorized n x n matrices in closed form, entry m of probe
    k being cos((0.7 + 0.1 k) m + 1): the commutant artifacts are their
    projections, so they are functions of the input alone."""
    return np.cos(np.outer([0.7, 0.8], np.arange(4 * n * n)) + 1.0)


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


def _nullspace_rows(blocks: list[np.ndarray], cutoff: float, scale: float,
                    support: list[int] | None) -> list[np.ndarray]:
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

    Certified proposal, when support is given: the nullspace of block i is
    expected to lie in its first support[i] coordinates, and is proposed
    from there.  The Gram block G_i = B_i^T B_i restricted to those
    coordinates has one small eigh; its eigenvectors Q_i with eigenvalue at
    most t = sqrt(cutoff) * ref_hi^2 are the proposal, where ref_hi^2 =
    max(scale^2, largest row sum of |G_i| over the blocks) >= top^2 by
    Gershgorin.  Q_i is accepted when both checks hold for every block:
      1. |B_i Q_i|_F <= cutoff * ref_lo, with ref_lo = max(scale, largest
         restricted singular value) <= max(top, scale).  The Frobenius norm
         bounds |B_i x| on span Q_i, so at least c_i = rank Q_i singular
         values lie at or below the threshold.
      2. A Cholesky factorisation of G_i + ref_hi^2 Q_i Q_i^T - t I
         succeeds.  A positive semidefinite term of rank c_i lowers no
         eigenvalue below the (c_i + 1)-th smallest of G_i, so at most c_i
         singular values lie below sqrt(t), which is above the threshold.
         The rounding of the Gram and of the factorisation (about 1e-13
         ref_hi^2) lies far below t.
    The count is then exactly the rule's, and no singular value lies
    between the threshold and sqrt(t).  If a check fails, or support is
    None, the blocks are solved as follows.

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
    grams = [block.T @ block for block in blocks]
    if support is not None:
        small = [np.linalg.eigh(gram[:s, :s])
                 for gram, s in zip(grams, support)]
        ref_lo = max(scale, math.sqrt(max(max(evals[-1], 0.0)
                                          for evals, _ in small)))
        ref_hi2 = max(scale * scale, max(float(np.abs(gram).sum(axis=1).max())
                                         for gram in grams))
        lift = math.sqrt(cutoff) * ref_hi2
        null = []
        for block, gram, s, (evals, evecs) in zip(blocks, grams, support,
                                                  small):
            proposal = evecs[:, evals <= lift]
            if np.linalg.norm(block[:, :s] @ proposal) > cutoff * ref_lo:
                break
            lifted = gram - lift * np.eye(len(gram))
            lifted[:s, :s] += ref_hi2 * (proposal @ proposal.T)
            try:
                np.linalg.cholesky(lifted)
            except np.linalg.LinAlgError:
                break
            rows = np.zeros((proposal.shape[1], len(gram)))
            rows[:, :s] = proposal.T
            null.append(rows)
        else:
            return null
    grams = [np.linalg.eigh(gram) for gram in grams]
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
    norms = member_norms(mats)
    return mats / np.where(norms > 0.0, norms, 1.0)[:, None, None, None]


def _eigenframe(mats: np.ndarray) -> np.ndarray | None:
    """Eigenbasis U of one selfadjoint element H of the *-algebra generated
    by a (k, n, n, 4) stack S, as an (n, n, 4) unitary whose column m spans
    H's m-th eigensphere; None when H is degenerate.

    H = sum_g w_g ((g + g*) / 2 + g* g / 4) with the fixed weights
    w_g = 1 / (1 + position of g), so a set of skew generators still gives
    a nonzero H.  For matrices of Frobenius norm at most sqrt 2 the map
    x -> x + x^2 / 4 is injective on their spectrum, so a single
    selfadjoint generator gives an H as generic as itself.  H is degenerate
    unless it has n eigenspheres, each one-dimensional, with consecutive
    eigenvalues at least sqrt(SV_CUTOFF) * max |lambda| apart; the columns
    are then exact to about eps / sqrt(SV_CUTOFF).  Column m is the
    largest column of the m-th rank-one projection, normalised, so U is a
    function of H."""
    n = mats.shape[1]
    adj = conj4(np.swapaxes(mats, 1, 2))
    terms = 0.5 * (mats + adj) + 0.25 * matmul4(adj, mats)
    h = np.einsum("k,knmd->nmd", 1.0 / np.arange(1, len(mats) + 1), terms)
    pairs = spectral_projections(QMatrix(h))
    vals = np.array([val for val, _ in pairs])
    if (len(pairs) < n or np.diff(vals).min(initial=np.inf)
            < math.sqrt(SV_CUTOFF) * np.abs(vals).max(initial=0.0)):
        return None
    columns = []
    for _, proj in pairs:
        column = proj.data[:, np.argmax(np.diagonal(proj.data[..., 0]))]
        columns.append(column / np.linalg.norm(column))
    return np.stack(columns, axis=1)


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
    constraint.  The rows come out selfadjoint first, then skew.

    From n = DIAGONAL_SCREEN_MIN_N on, the constraint is built for U* S U,
    with U the eigenbasis of one selfadjoint H of the algebra
    (:func:`_eigenframe`).  Every commutant element commutes with H, so in
    that frame it is diagonal: the nullspace is proposed from the n
    selfadjoint and 3n skew diagonal coordinates, which lead their blocks,
    and certified (see :func:`_nullspace_rows`).  The conjugation is
    orthogonal on the coordinates, so the singular values, the threshold
    and every decision are those of S itself, and a failed certificate
    falls back to the screen on the same blocks.  The rows are rotated
    back and symmetrised, so they stay exactly selfadjoint or exactly
    skew."""
    n = mats.shape[1]
    frame = _eigenframe(mats) if n >= DIAGONAL_SCREEN_MIN_N else None
    if frame is None:
        parts = _nullspace_rows(_commutator_constraint(mats), SV_CUTOFF, 1.0,
                                None)
        rows = _from_adjoint_coordinates(parts, n)
    else:
        frame_h = conj4(np.swapaxes(frame, 0, 1))
        parts = _nullspace_rows(
            _commutator_constraint(matmul4(matmul4(frame_h, mats), frame)),
            SV_CUTOFF, 1.0, [n, 3 * n])
        rows = _from_adjoint_coordinates(parts, n).reshape(-1, n, n, 4)
        rows = matmul4(matmul4(frame, rows), frame_h)
        half = np.where(np.arange(len(rows)) < len(parts[0]), 0.5, -0.5)
        rows = 0.5 * rows + half[:, None, None, None] * conj4(
            np.swapaxes(rows, 1, 2))
        rows = rows.reshape(len(rows), 4 * n * n)
    return CommutantBasis(rows, selfadjoint=len(parts[0]))


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
    span of all words is reached once a round adds none, or once the span
    is the whole space of 4n^2 dimensions, where no round can add one;
    every round before that one raises the rank, so at most 4n^2 rounds
    are needed.
    """
    n = algebra.n
    gens = _unit_scaled(np.stack([g.data for g in algebra.generators]))
    rows = _row_span(gens.reshape(len(gens), -1), 1.0)
    newest = rows
    for _ in range(4 * n * n):
        if len(rows) == 4 * n * n:
            return CommutantBasis(rows)
        rest = matmul4(gens[1:, None], newest.reshape(1, -1, n, n, 4))
        rest = rest.reshape(-1, 4 * n * n)
        for _ in range(2):
            rest = rest - _project(rows, rest)
        newest = _row_span(rest, 1.0)
        if not len(newest):
            return CommutantBasis(rows)
        rows = np.concatenate([rows, newest])
    raise InternalInconsistency(
        f"generated algebra did not close within {4 * n * n} rounds")


def subspace_gap(a: CommutantBasis, b: CommutantBasis) -> float:
    """Largest distance of a basis row of either subspace from the other."""
    return max_residual(*(
        float(np.linalg.norm(x - _project(y, x), axis=1).max(initial=0.0))
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
    """A nontrivial commutant projection, None for an irreducible algebra:
    the first spectral projection of X, the first probe projected onto the
    selfadjoint commutant, a *-algebra that holds X's spectral projections.
    Its eigenspheres are cut relative to X, so an X that is a multiple of I
    to rounding has one eigensphere, I, and raises instead."""
    if is_irreducible(algebra):
        return None
    comm = algebra.commutant_basis()
    n = algebra.n
    x = _project(comm.mat[:comm.selfadjoint], _probes(n)[0])
    pairs = spectral_projections(QMatrix(x.reshape(n, n, 4)))
    if len(pairs) < 2:
        raise InternalInconsistency(
            "the probe's selfadjoint commutant part has one eigensphere")
    return pairs[0][1]


@dataclass(frozen=True)
class Classification:
    """Trichotomy verdict for an irreducible algebra, with the recovered
    structural operators, functions of the input alone."""

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

    The commutant of an irreducible algebra is R, C or H: R I plus its
    skew part.  J, or I and then J, is a probe projected onto that part,
    made orthogonal to the earlier unit under the trace form and scaled
    to sqrt(n), the norm of an anti-selfadjoint unitary; for H orthogonal
    skew units anticommute, and K = I J.  Any other dimension, or a unit
    that fails U^2 = -I or anticommutation (a zero one does), raises.
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
    units: list[QMatrix] = []
    for probe in _probes(n)[:min(len(skew), 2)]:
        u = _project(skew, probe)
        for prev in map(vec, units):
            u = u - (u @ prev) / n * prev
        units.append(QMatrix(
            math.sqrt(n) * _unit_scaled(u.reshape(1, n, n, 4))[0]))
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
        return Classification(kind, comm.dim_r, J=units[1], I=units[0],
                              K=units[0] @ units[1])
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


def _projection_samples(algebra: StarAlgebra) -> np.ndarray:
    """The identity and the spectral projections of the selfadjoint parts
    of the generators binary-scaled (so relative to each at any scale), as
    one (k, n, n, 4) stack; a zero part adds none.  g and g* have
    bit-identical scaled parts, so each distinct part is decomposed once:
    one set of projections per adjoint pair."""
    n = algebra.n
    scaled = binary_scaled(np.reshape(
        [g.data for g in algebra.generators[1:]], (-1, n, n, 4)))
    parts = 0.5 * (scaled + conj4(np.swapaxes(scaled, 1, 2)))
    samples = [QMatrix.identity(n).data]
    for part in {part.tobytes(): part for part in parts}.values():
        if np.linalg.norm(part) > 1e-12:
            samples += [proj.data for _, proj in
                        spectral_projections(QMatrix(part))]
    return np.stack(samples)


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
    Each certificate runs on one (k, n, n, 4) stack, each member guarded
    relative to its own norm, and each check takes the worst member.
    """
    classification = classify_irreducible(algebra)
    if classification.kind != "ComplexInduced":
        raise NotComplexInduced(
            f"classification is {classification.kind}; reduction needs a "
            "compatible J")
    j = classification.J
    n = algebra.n
    evo = np.reshape([u.data for u in evolution], (len(evolution), n, n, 4))
    require_j_commuting(j, evo, 1e-9, "evolution operator")
    space = split_plus_minus(j, i)
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal(n) + 1j * rng.standard_normal(n),
              rng.standard_normal((n, 1, 4))) for _ in range(8)]
    coords = np.reshape([c for c, _ in draws] + [
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in evolution], (-1, n))
    # unit plus-space vectors: 8 for the rays, one per evolution operator
    unit = matmul4(space.basis.data, symplectic_join(
        coords, np.zeros_like(coords), space.frame)[..., None, :])
    unit = unit * (1.0 / member_norms(unit))[:, None, None, None]
    iq = space.frame.i.as_quaternion().as_array()
    checks: list[Check] = []

    restricted_gens = list(restrict_to_plus(
        np.stack([g.data for g in algebra.generators]), space, tol=1e-8))

    # (a) + (b): projections are extensions of their restrictions
    samples = _projection_samples(algebra)
    restricted = restrict_to_plus(samples, space, tol=1e-7)
    rebuilt = extend_from_plus(restricted, space)
    rank_gap = (np.trace(samples[..., 0], axis1=1, axis2=2)
                - np.trace(restricted, axis1=1, axis2=2).real)
    checks.append(Check("projection_extension",
                        max_residual(*member_norms(rebuilt - samples)), 1e-8))
    checks.append(Check("projection_rank_match",
                        max_residual(*np.abs(rank_gap)), 1e-8))

    # (c) rank-one lattice projections E = w w* have plus-space
    # representatives: P+ v = (v - (Jv) i) / 2 of v = E p, or of (E p) j
    # when that is at most 1e-6, normalised; a ray with neither counts 1
    rays = mul4(unit[:8], conj4(np.swapaxes(unit[:8], 1, 2)))
    u = matmul4(rays, np.array([p for _, p in draws]))
    cands = np.stack([u, mul4(u, space.frame.j.as_quaternion().as_array())],
                     axis=1)
    cands = (cands - mul4(matmul4(j.data, cands), iq)) * 0.5
    sizes = np.linalg.norm(cands.reshape(8, 2, -1), axis=2)
    found, pick = (sizes > 1e-6).any(axis=1), np.argmax(sizes > 1e-6, axis=1)
    rep = cands[np.arange(8), pick] * (1.0 / np.where(
        found, sizes[np.arange(8), pick], 1.0))[:, None, None, None]
    in_plus = member_norms(matmul4(j.data, rep) - mul4(rep, iq))
    in_range = member_norms(matmul4(rays, rep) - rep)
    spans_ray = member_norms(mul4(rep, conj4(np.swapaxes(rep, 1, 2))) - rays)
    checks.append(Check("ray_representative", max_residual(*np.where(
        found, np.maximum(np.maximum(in_plus, in_range), spans_ray), 1.0)),
        1e-8))

    # (d) evolution restricts to a unitary and extends back
    restricted_evo = restrict_to_plus(evo, space, tol=1e-8)
    gram = np.swapaxes(restricted_evo.conj(), 1, 2) @ restricted_evo
    rebuilt = extend_from_plus(restricted_evo, space)
    moved = matmul4(evo, unit[8:])
    checks.append(Check("evolution_restriction_unitary",
                        max_residual(*member_norms(gram - np.eye(n))), 1e-9))
    checks.append(Check("evolution_roundtrip",
                        max_residual(*member_norms(rebuilt - evo)), 1e-9))
    checks.append(Check("evolution_plus_invariance", max_residual(
        *member_norms(matmul4(j.data, moved) - mul4(moved, iq))), 1e-8))

    return ReductionReport(classification, space, restricted_gens,
                           list(restricted_evo), checks)
