"""Tests for commutants, the trichotomy classification and the reduction
pipeline.

The commutant implementation is cross-checked against an independent
nullspace oracle that assembles the constraint matrix by brute-force
application of T -> [G, T] to every basis matrix.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from qreduce import algebra as algebra_module, sampling
from qreduce.algebra import (
    DIAGONAL_SCREEN_MIN_N,
    MEMBERSHIP_TOL,
    SV_CUTOFF,
    CommutantBasis,
    StarAlgebra,
    _adjoint_coordinates,
    _commutant_of,
    _commutator_constraint,
    _from_adjoint_coordinates,
    _nullspace_rows,
    _projection_samples,
    _unit_scaled,
    center,
    classify_irreducible,
    generated_algebra,
    is_irreducible,
    reduce_system,
    reducibility_witness,
    subspace_gap,
    vec,
)
from qreduce.errors import (
    DoesNotCommute,
    InternalInconsistency,
    NotComplexInduced,
    StructureError,
)
from qreduce.functors import restrict_to_plus
from qreduce.qlinalg import (
    QMatrix,
    classify_operator,
    complex_embed,
    expm_antiselfadjoint,
    spectral_projections,
)
from qreduce.quat import QTENSOR, UNIT_E1, conj4, matmul4


def matrix_units(n: int) -> list[QMatrix]:
    """All quaternionic matrix units E_mk * e_c."""
    units = []
    for m in range(n):
        for k in range(n):
            for c in range(4):
                data = np.zeros((n, n, 4))
                data[m, k, c] = 1.0
                units.append(QMatrix(data))
    return units


def oracle_commutant(gens: list[QMatrix], n: int) -> np.ndarray:
    """Brute-force nullspace of T -> [G, T] assembled column by column."""
    dim = 4 * n * n
    blocks = []
    for g in gens:
        cols = []
        for basis_mat in matrix_units(n):
            image = g @ basis_mat - basis_mat @ g
            cols.append(vec(image))
        blocks.append(np.stack(cols, axis=1))
    constraint = np.concatenate(blocks)
    null = scipy.linalg.null_space(constraint, rcond=1e-9)
    return null.T  # rows span the commutant


def left_mult_matrix(g: QMatrix) -> np.ndarray:
    """Reference real (4n^2, 4n^2) matrix of T -> G T on vectorized T."""
    n = g.n
    gl = np.einsum("abc,mna->mcnb", QTENSOR, g.data)
    full = np.einsum("mcnb,kl->mkcnlb", gl, np.eye(n))
    return full.reshape(4 * n * n, 4 * n * n)


def right_mult_matrix(g: QMatrix) -> np.ndarray:
    """Reference real (4n^2, 4n^2) matrix of T -> T G on vectorized T."""
    n = g.n
    gr = np.einsum("abc,nkb->kcna", QTENSOR, g.data)
    full = np.einsum("kcna,ml->mkclna", gr, np.eye(n))
    return full.reshape(4 * n * n, 4 * n * n)


def test_mult_matrices_match_direct_products():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        g = sampling.qmatrix(rng, n)
        t = sampling.qmatrix(rng, n)
        np.testing.assert_allclose(
            left_mult_matrix(g) @ vec(t), vec(g @ t), atol=1e-12)
        np.testing.assert_allclose(
            right_mult_matrix(g) @ vec(t), vec(t @ g), atol=1e-12)


def pairwise_closure(algebra: StarAlgebra) -> CommutantBasis:
    """Reference closure: multiply every pair of spanning rows until the
    span stops growing."""
    n = algebra.n
    stack = np.stack([vec(g) for g in algebra.generators])
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    rows = vh[svals > SV_CUTOFF * svals[0]]
    while True:
        mats = rows.reshape(-1, n, n, 4)
        products = matmul4(mats[:, None], mats[None, :]).reshape(-1, 4 * n * n)
        _, svals, vh = np.linalg.svd(np.concatenate([rows, products]),
                                     full_matrices=False)
        new_rows = vh[svals > SV_CUTOFF * svals[0]]
        if new_rows.shape[0] == rows.shape[0]:
            return CommutantBasis(new_rows)
        rows = new_rows


def loop_is_irreducible(algebra: StarAlgebra, cutoff: float = 1e-7,
                        samples: int = 32, seed: int = 0) -> bool:
    """Reference scan: one candidate at a time, early exit on a spread."""
    comm = algebra.commutant_basis()
    basis = [QMatrix(b) for b in comm.stack]
    candidates = [(b + b.H) * 0.5 for b in basis]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        coeffs = rng.standard_normal(comm.dim_r)
        mix = QMatrix.zeros(algebra.n)
        for c, b in zip(coeffs, basis):
            mix = mix + b * float(c)
        candidates.append((mix + mix.H) * 0.5)
    for cand in candidates:
        chi = complex_embed(cand)
        vals = np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))
        if vals[-1] - vals[0] > cutoff * max(1.0, cand.frob()):
            return False
    return True


def svd_nullspace_rows(constraint: np.ndarray, cutoff: float,
                       scale: float) -> tuple[np.ndarray, float]:
    """Reference rule: economy SVD of the whole constraint, dropping singular
    values at most cutoff * max(top, scale).  Returns the null rows and top,
    the largest singular value."""
    rows, cols = constraint.shape
    if rows < cols:
        constraint = np.concatenate([constraint, np.zeros((cols - rows, cols))])
    _, svals, vh = np.linalg.svd(constraint, full_matrices=False)
    threshold = cutoff * max(svals[0], scale)
    return vh[int(np.sum(svals > threshold)):], svals[0]


def unit_norm(mats: list[QMatrix]) -> list[QMatrix]:
    """Each nonzero matrix scaled to unit Frobenius norm."""
    return [g * (1.0 / g.frob()) if g.frob() > 0.0 else g for g in mats]


def reference_constraint(mats: list[QMatrix]) -> np.ndarray:
    """Per-generator blocks of T -> G T - T G on vectorized T, stacked."""
    return np.concatenate(
        [left_mult_matrix(g) - right_mult_matrix(g) for g in mats])


def svd_commutant(mats: list[QMatrix]) -> CommutantBasis:
    """Reference commutant: per-generator constraint blocks of the unit-norm
    matrices, SVD rule at scale 1."""
    return CommutantBasis(svd_nullspace_rows(
        reference_constraint(unit_norm(mats)), SV_CUTOFF, 1.0)[0])


def adjoint_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The selfadjoint and the skew rows of the adjoint-adapted basis, as
    vectorized matrices."""
    split = _adjoint_coordinates(n)[2]
    eye = np.eye(4 * n * n)
    basis = _from_adjoint_coordinates(
        [eye[:split, :split], eye[split:, split:]], n)
    return basis[:split], basis[split:]


def row_space_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal row sets."""
    return max(np.linalg.norm(a - (a @ b.T) @ b, 2),
               np.linalg.norm(b - (b @ a.T) @ a, 2))


THRESHOLD = SV_CUTOFF           # top singular value 1, scale below it
SCREEN = SV_CUTOFF ** 0.25      # singular values above this are screened


@pytest.mark.parametrize("near", [
    [],                                  # exact zeros only
    [0.5 * THRESHOLD],                   # null, just below the threshold
    [1.5 * THRESHOLD],                   # rank, just above the threshold
    [1e3 * THRESHOLD],                   # rank, inside the candidate band
    [1.5 * np.sqrt(SV_CUTOFF)],          # rank, inside the candidate band
    [1.5 * SCREEN],                      # rank, settled by the screen
    [1.5 * SCREEN, 1.5 * np.sqrt(SV_CUTOFF), 1e3 * THRESHOLD,
     1.5 * THRESHOLD, 0.5 * THRESHOLD],
])
def test_nullspace_rows_matches_svd_rule(near):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(44)
    cols, zeros = 48, 6
    bulk = np.concatenate([[1.0], rng.uniform(0.1, 1.0, cols - zeros
                                              - len(near) - 1)])
    svals = np.concatenate([bulk, near, np.zeros(zeros)])
    u = np.linalg.qr(rng.standard_normal((3 * cols, cols)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    constraint = (u * svals) @ v.T
    (rows,) = _nullspace_rows([constraint], SV_CUTOFF, 0.5, None)
    reference, _ = svd_nullspace_rows(constraint, SV_CUTOFF, 0.5)
    assert rows.shape == reference.shape
    assert rows.shape[0] == int(np.sum(svals <= THRESHOLD))
    np.testing.assert_allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-12)
    assert np.linalg.norm(constraint @ rows.T, 2) <= THRESHOLD
    # A null space is determined only up to eps over its distance from the
    # kept spectrum (top = 1).  Kept singular values inside the screen are
    # split off by an SVD, to eps / gap; screened ones by the Gram
    # eigenvectors, whose rounding is eps * top^2, to eps / gap^2.  With no
    # kept value near the threshold the bound is below 1e-11.
    kept = svals[svals > THRESHOLD]
    candidate_gap = kept[kept <= SCREEN].min(initial=np.inf) - max(
        svals[svals <= THRESHOLD])
    screened_gap = kept[kept > SCREEN].min()
    bound = 100 * eps * (1.0 / candidate_gap + 1.0 / screened_gap ** 2)
    assert row_space_gap(rows, reference) <= bound


def test_nullspace_rows_shares_one_threshold_across_blocks():
    """Two mutually orthogonal column blocks, the second with a top far
    below the first's: the threshold comes from the whole constraint, so
    a singular value that the second block alone would keep is null."""
    rng = np.random.default_rng(50)
    cols = (12, 10)
    svals = (np.concatenate([[1.0], rng.uniform(0.1, 1.0, 9), [0.0, 0.0]]),
             np.concatenate([[1e-3], rng.uniform(1e-5, 1e-3, 6),
                             [0.5 * THRESHOLD, 0.0, 0.0]]))
    u = np.linalg.qr(rng.standard_normal((60, sum(cols))))[0]
    blocks = [(u[:, :cols[0]] * svals[0])
              @ np.linalg.qr(rng.standard_normal((cols[0], cols[0])))[0].T,
              (u[:, cols[0]:] * svals[1])
              @ np.linalg.qr(rng.standard_normal((cols[1], cols[1])))[0].T]
    scale = 1e-6
    rows = _nullspace_rows(blocks, SV_CUTOFF, scale, None)
    assert [len(r) for r in rows] == [2, 3]
    assert len(_nullspace_rows(blocks[1:], SV_CUTOFF, scale, None)[0]) == 2
    joined = np.zeros((5, sum(cols)))
    joined[:2, :cols[0]] = rows[0]
    joined[2:, cols[0]:] = rows[1]
    reference, _ = svd_nullspace_rows(np.concatenate(blocks, axis=1),
                                      SV_CUTOFF, scale)
    assert row_space_gap(joined, reference) <= 1e-10


def test_commutant_matches_svd_rule_on_planted_algebras():
    rng = np.random.default_rng(45)
    for n in (2, 3, 4, 8):
        algebras = [StarAlgebra(sampling.plant_proper(rng, n)),
                    StarAlgebra(sampling.plant_complex_induced(rng, n)[0]),
                    StarAlgebra(sampling.plant_real_induced(rng, n)[0])]
        if n % 2 == 0:
            algebras.append(block_diagonal_algebra(rng, n // 2))
        for algebra in algebras:
            comm = algebra.commutant_basis()
            bicomm = algebra.bicommutant_basis()
            ref_comm = svd_commutant(algebra.generators)
            ref_bicomm = svd_commutant([QMatrix(b) for b in ref_comm.stack])
            assert comm.dim_r == ref_comm.dim_r
            assert bicomm.dim_r == ref_bicomm.dim_r
            assert subspace_gap(comm, ref_comm) <= 1e-12
            assert subspace_gap(bicomm, ref_bicomm) <= 1e-12


def test_commutant_rows_are_selfadjoint_or_skew():
    """The commutant, bicommutant and center come out of the adjoint split
    as selfadjoint rows followed by skew rows."""
    rng = np.random.default_rng(48)
    for n in (2, 3, 4, 8):
        algebras = [StarAlgebra(sampling.plant_proper(rng, n)),
                    StarAlgebra(sampling.plant_complex_induced(rng, n)[0]),
                    StarAlgebra(sampling.plant_real_induced(rng, n)[0])]
        if n % 2 == 0:
            algebras.append(block_diagonal_algebra(rng, n // 2))
        for algebra in algebras:
            for basis in (algebra.commutant_basis(),
                          algebra.bicommutant_basis(), center(algebra)):
                stack = basis.stack
                adj = conj4(np.swapaxes(stack, 1, 2))
                sym = np.linalg.norm((stack - adj).reshape(len(stack), -1),
                                     axis=1) <= 1e-14
                skew = np.linalg.norm((stack + adj).reshape(len(stack), -1),
                                      axis=1) <= 1e-14
                assert np.all(sym | skew)
                assert list(sym) == sorted(sym, reverse=True), "skew last"
                assert basis.selfadjoint == np.sum(sym)


def test_commutant_of_is_commutant_of_star_closure():
    """For a stack that is not *-closed, _commutant_of returns (S u S*)':
    a non-normal generator commutes with itself but not with its adjoint,
    so it lies in S' and not in the result."""
    rng = np.random.default_rng(49)
    for n in (2, 3, 4):
        g = sampling.qmatrix(rng, n)
        assert (g @ g.H - g.H @ g).frob() > 1e-3
        result = _commutant_of(g.data[None])
        reference = svd_commutant([g, g.H])
        assert result.dim_r == reference.dim_r
        assert subspace_gap(result, reference) <= 1e-12
        assert svd_commutant([g]).membership_residual(g) <= MEMBERSHIP_TOL
        assert result.membership_residual(g) > MEMBERSHIP_TOL


@pytest.mark.parametrize("half", [2, 4])
def test_near_reducible_algebra_matches_svd_rule(half, monkeypatch):
    """A block-diagonal algebra coupled by eps: the coupling lifts one
    singular value of the constraint in proportion to eps, so sweeping eps
    moves it across the threshold, the candidate band and the screen.  The
    commutant dimension and the irreducibility verdict follow the SVD rule,
    and the identity stays in the commutant.  At n = 8 the sweep sees both
    outcomes of the eigenframe solve: certified where the lifted value
    lies far from the threshold, and the fallback near it."""
    rng = np.random.default_rng(46 + half)
    n = 2 * half
    blocks = block_diagonal_algebra(rng, half).generators[1:]
    coupling = np.zeros((n, n, 4))
    coupling[:half, half:] = rng.standard_normal((half, half, 4))
    coupling = QMatrix(coupling)

    def coupled(eps):
        algebra = StarAlgebra([blocks[0] + coupling * eps] + blocks[1:])
        return (algebra, reference_constraint(unit_norm(algebra.generators)),
                1.0)

    _, constraint, scale = coupled(1e-6)
    svals = np.linalg.svd(constraint, compute_uv=False)
    ref = max(svals[0], scale)
    lifted = svals[svals > 1e-12 * svals[0]][-1] / 1e-6   # per unit eps
    sweep = [10.0 ** -k for k in range(1, 13)] + [
        factor * cut * ref / lifted for factor in (0.5, 1.5)
        for cut in (SV_CUTOFF, np.sqrt(SV_CUTOFF), SV_CUTOFF ** 0.25)]
    identity = vec(QMatrix.identity(n))
    outcomes = set()
    for eps in sweep:
        algebra, constraint, scale = coupled(eps)
        comm, certified = eigenframe_outcome(
            monkeypatch, algebra.commutant_basis)
        outcomes.add(certified)
        rows = comm.mat
        reference, top = svd_nullspace_rows(constraint, SV_CUTOFF, scale)
        assert rows.shape == reference.shape, eps
        assert is_irreducible(algebra) is (len(rows) == 1), eps
        assert (np.linalg.norm(constraint @ rows.T, 2)
                <= SV_CUTOFF * max(top, scale)), eps
        outside = identity - rows.T @ (rows @ identity)
        assert np.linalg.norm(outside) <= 1e-10, eps
    assert outcomes == ({True, False} if n >= DIAGONAL_SCREEN_MIN_N
                        else {False})


def eigenframe_outcome(monkeypatch, solve):
    """solve() for one commutant, and whether it was certified in the
    eigenframe: then no eigh of a whole Gram block (2n^2 - n columns or
    more) runs, only the restricted ones (n and 3n) and that of H."""
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    try:
        result = solve()
    finally:
        monkeypatch.undo()
    n = math.isqrt(result.mat.shape[1] // 4)
    return result, max(sizes, default=0) < 2 * n * n - n


def eigh_path(mats: np.ndarray) -> CommutantBasis:
    """The commutant of a stack by the Gram eigh screen alone, in the
    input frame."""
    parts = _nullspace_rows(_commutator_constraint(mats), SV_CUTOFF, 1.0,
                            None)
    return CommutantBasis(_from_adjoint_coordinates(parts, mats.shape[1]),
                          selfadjoint=len(parts[0]))


def assert_exactly_selfadjoint_or_skew(basis: CommutantBasis):
    stack = basis.stack
    adj = conj4(np.swapaxes(stack, 1, 2))
    np.testing.assert_array_equal(adj[:basis.selfadjoint],
                                  stack[:basis.selfadjoint])
    np.testing.assert_array_equal(adj[basis.selfadjoint:],
                                  -stack[basis.selfadjoint:])
    np.testing.assert_allclose(basis.mat @ basis.mat.T, np.eye(basis.dim_r),
                               rtol=0, atol=1e-14)


def planted_generator_sets(rng, n: int) -> list[list[QMatrix]]:
    """Proper, complex-induced, real-induced and block-diagonal (blocks of
    n // 2 and n - n // 2) generator pairs."""
    half = n // 2
    reducible = []
    for _ in range(2):
        data = np.zeros((n, n, 4))
        data[:half, :half] = rng.standard_normal((half, half, 4))
        data[half:, half:] = rng.standard_normal((n - half, n - half, 4))
        reducible.append(QMatrix(data))
    return [sampling.plant_proper(rng, n),
            sampling.plant_complex_induced(rng, n)[0],
            sampling.plant_real_induced(rng, n)[0], reducible]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_eigenframe_solve_certifies_planted_algebras(n, monkeypatch):
    """From DIAGONAL_SCREEN_MIN_N on, every planted kind is certified in
    the eigenframe, with the dimension and selfadjoint count of the eigh
    path and the same subspace, also for generators scaled by 10^+-150 and
    conjugated by a unitary; the rows are orthonormal and exactly
    selfadjoint or exactly skew."""
    assert n >= DIAGONAL_SCREEN_MIN_N
    rng = np.random.default_rng(70 + n)
    u = sampling.unitary(rng, n)
    for gens in planted_generator_sets(rng, n):
        for variant in (gens, [g * 1e150 for g in gens],
                        [g * 1e-150 for g in gens],
                        [u @ g @ u.H for g in gens]):
            constraint = StarAlgebra(variant)._constraint
            basis, certified = eigenframe_outcome(
                monkeypatch, lambda: _commutant_of(constraint))
            reference = eigh_path(constraint)
            assert certified
            assert (basis.dim_r, basis.selfadjoint) == (
                reference.dim_r, reference.selfadjoint)
            assert subspace_gap(basis, reference) <= 1e-12
            assert_exactly_selfadjoint_or_skew(basis)


def test_eigenframe_solve_falls_back_on_a_degenerate_element(monkeypatch):
    """Where the algebra's H has a repeated eigensphere, today's eigh path
    answers, unrotated: the bicommutant of a complex-induced algebra (H is
    a multiple of I), a block-diagonal algebra with two equal blocks, and
    the algebra with no generator."""
    rng = np.random.default_rng(73)
    complex_induced = StarAlgebra(sampling.plant_complex_induced(rng, 8)[0])
    block = rng.standard_normal((2, 4, 4, 4))
    doubled = np.zeros((2, 8, 8, 4))
    doubled[:, :4, :4] = doubled[:, 4:, 4:] = block
    stacks = [complex_induced.commutant_basis().stack,
              StarAlgebra([QMatrix(g) for g in doubled])._constraint,
              StarAlgebra([], n=8)._constraint]
    for stack in stacks:
        basis, certified = eigenframe_outcome(
            monkeypatch, lambda: _commutant_of(stack))
        assert not certified
        reference = eigh_path(stack)
        np.testing.assert_array_equal(basis.mat, reference.mat)
        assert basis.selfadjoint == reference.selfadjoint
    # M_8(C); M_2(R) on two copies of one irreducible block; everything
    assert [len(eigh_path(stack).mat) for stack in stacks] == [128, 4, 256]


def test_eigenframe_solve_takes_skew_generators(monkeypatch):
    """Skew generators have no selfadjoint part; their g* g terms still
    give a generic H, so the solve is certified."""
    rng = np.random.default_rng(74)
    algebra = StarAlgebra([sampling.antiselfadjoint(rng, 8)
                           for _ in range(2)])
    basis, certified = eigenframe_outcome(monkeypatch,
                                          algebra.commutant_basis)
    reference = eigh_path(algebra._constraint)
    assert certified
    assert (basis.dim_r, basis.selfadjoint) == (1, 1)
    assert subspace_gap(basis, reference) <= 1e-12
    assert_exactly_selfadjoint_or_skew(basis)


def test_batched_constraint_matches_per_generator_blocks():
    """The two column blocks are the per-generator constraint on the
    selfadjoint and on the skew basis elements, to the rounding of a
    two-term sum."""
    rng = np.random.default_rng(47)
    for n in (1, 2, 3):
        gens = [sampling.qmatrix(rng, n) for _ in range(3)]
        per_generator = reference_constraint(gens)
        batched = _commutator_constraint(np.stack([g.data for g in gens]))
        assert len(batched) == 2
        for block, basis in zip(batched, adjoint_basis(n)):
            np.testing.assert_allclose(block, per_generator @ basis.T,
                                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_half_constraint_has_the_gram_blocks_of_the_closed_list(n):
    """The commutant's constraint holds one generator per adjoint pair,
    non-selfadjoint ones weighted sqrt 2.  Its two Gram blocks are those of
    the unit-scaled *-closed list, identity and adjoints included, so the
    threshold and every decision are those of the whole list."""
    rng = np.random.default_rng(60 + n)
    g = sampling.qmatrix(rng, n)
    h = sampling.qmatrix(rng, n)
    algebra = StarAlgebra([(g + g.H) * 0.5, (h - h.H) * 0.5, g * 1e-3, h])
    assert len(algebra._constraint) == 4
    assert len(algebra.generators) == 8
    closed = _unit_scaled(np.stack([x.data for x in algebra.generators]))
    for half, full in zip(_commutator_constraint(algebra._constraint),
                          _commutator_constraint(closed)):
        gram = full.T @ full
        assert (np.linalg.norm(half.T @ half - gram)
                <= 1e-13 * np.linalg.norm(gram))


def test_commutant_survives_json_roundtrip():
    """The JSON generator list repeats the identity and the adjoints, which
    then enter the constraint too; the commutant is the same."""
    rng = np.random.default_rng(61)
    for gens in (sampling.plant_proper(rng, 3),
                 sampling.plant_complex_induced(rng, 3)[0],
                 sampling.plant_real_induced(rng, 3)[0]):
        algebra = StarAlgebra(gens)
        again = StarAlgebra.from_json(algebra.to_json())
        assert len(again.generators) > len(algebra.generators)
        first, second = algebra.commutant_basis(), again.commutant_basis()
        assert (second.dim_r, second.selfadjoint) == (
            first.dim_r, first.selfadjoint)
        assert subspace_gap(first, second) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_adjoint_coordinates_are_orthonormal_and_split(n):
    """2n^2 - n selfadjoint rows, then 2n^2 + n skew rows, together an
    orthonormal basis under the trace form."""
    sym, skew = adjoint_basis(n)
    assert (len(sym), len(skew)) == (2 * n * n - n, 2 * n * n + n)
    basis = np.concatenate([sym, skew])
    np.testing.assert_allclose(basis @ basis.T, np.eye(4 * n * n),
                               atol=1e-15)
    for rows, sign in ((sym, 1.0), (skew, -1.0)):
        stack = rows.reshape(-1, n, n, 4)
        np.testing.assert_array_equal(
            conj4(np.swapaxes(stack, 1, 2)), sign * stack)
    assert _adjoint_coordinates(n) is _adjoint_coordinates(n)
    assert not _adjoint_coordinates(n)[0].flags.writeable


def test_nullspace_rows_of_wide_constraint():
    rng = np.random.default_rng(40)
    # rank-3 constraint on R^8 whose nullspace is the last five coordinates
    constraint = np.zeros((3, 8))
    constraint[:, :3] = rng.standard_normal((3, 3))
    (rows,) = _nullspace_rows([constraint], SV_CUTOFF, 1.0, None)
    assert rows.shape == (5, 8)
    np.testing.assert_allclose(rows @ rows.T, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(rows[:, :3], 0.0, atol=1e-12)
    # a numerically zero wide constraint leaves the whole space
    (rows,) = _nullspace_rows([np.zeros((2, 6))], SV_CUTOFF, 1.0, None)
    assert rows.shape == (6, 6)


def test_commutant_of_matrix_units_is_scalar():
    n = 2
    algebra = StarAlgebra(matrix_units(n))
    comm = algebra.commutant_basis()
    assert comm.dim_r == 1
    only = QMatrix(comm.stack[0])
    ident = QMatrix.identity(n)
    scaled = ident * (only.trace().w / n)
    assert (only - scaled).frob() <= 1e-10


def test_commutant_of_identity_is_everything():
    """The identity, and no generator at all, leave every matrix in the
    commutant."""
    for algebra, n in ((StarAlgebra([QMatrix.identity(2)]), 2),
                       (StarAlgebra([], n=3), 3)):
        assert algebra.commutant_basis().dim_r == 4 * n * n


def test_commutant_matches_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        algebra = StarAlgebra(sampling.plant_proper(rng, n))
        fast = algebra.commutant_basis()
        slow_rows = oracle_commutant(algebra.generators, n)
        assert fast.dim_r == slow_rows.shape[0]
        slow = CommutantBasis(slow_rows)
        assert subspace_gap(fast, slow) <= 1e-8


def test_commutant_elements_commute_and_are_star_closed():
    rng = np.random.default_rng(2)
    gens, planted_j = sampling.plant_complex_induced(rng, 3)
    algebra = StarAlgebra(gens)
    comm = algebra.commutant_basis()
    assert comm.dim_r == 2
    assert comm.membership_residual(QMatrix.identity(3)) <= MEMBERSHIP_TOL
    assert comm.membership_residual(planted_j) <= MEMBERSHIP_TOL
    basis = [QMatrix(b) for b in comm.stack]
    for b in basis:
        for g in algebra.generators:
            assert (b @ g - g @ b).frob() <= 1e-9 * max(1.0, g.frob())
        assert comm.membership_residual(b.H) <= MEMBERSHIP_TOL
    # product closure, spot check
    assert comm.membership_residual(basis[0] @ basis[1]) <= MEMBERSHIP_TOL


def test_membership_residual_is_relative_at_every_scale():
    """A non-member of a planted commutant reads the same residual at
    1e-11 and 1e-300 of its scale; a residual divided by max(1, |X|) fell
    below MEMBERSHIP_TOL there."""
    rng = np.random.default_rng(2)
    gens, _ = sampling.plant_complex_induced(rng, 3)
    comm = StarAlgebra(gens).commutant_basis()
    x = sampling.qmatrix(rng, 3)
    base = comm.membership_residual(x)
    assert base > MEMBERSHIP_TOL
    for scale in (1e-11, 1e-300):
        assert comm.membership_residual(x * scale) == pytest.approx(
            base, rel=1e-12)


def test_commutant_idempotent_beyond_first_application():
    rng = np.random.default_rng(3)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    algebra = StarAlgebra(gens)
    first = algebra.commutant_basis()
    second = StarAlgebra([QMatrix(b) for b in first.stack], n=2)
    third = StarAlgebra([QMatrix(b) for b in second.commutant_basis().stack],
                        n=2).commutant_basis()
    assert subspace_gap(first, third) <= 1e-8


def test_bicommutant_full_and_membership():
    rng = np.random.default_rng(4)
    n = 2
    algebra = StarAlgebra(sampling.plant_proper(rng, n))
    bi = algebra.bicommutant_basis()
    assert bi.dim_r == 4 * n * n
    for g in algebra.generators:
        assert bi.membership_residual(g) <= 1e-9


def test_bicommutant_equals_generated_algebra():
    rng = np.random.default_rng(5)
    algebras = [block_diagonal_algebra(rng, 2)]
    for n in (2, 3, 4):
        for planted in (sampling.plant_proper(rng, n),
                        sampling.plant_complex_induced(rng, n)[0],
                        sampling.plant_real_induced(rng, n)[0]):
            algebras.append(StarAlgebra(planted))
    # n = 8 takes the most closure rounds: 5 -> 16 -> 64 -> 171 new rows
    # for a proper system
    algebras.append(StarAlgebra(sampling.plant_proper(rng, 8)))
    algebras.append(StarAlgebra(sampling.plant_complex_induced(rng, 8)[0]))
    for algebra in algebras:
        bi = algebra.bicommutant_basis()
        gen = generated_algebra(algebra)
        assert gen.dim_r == bi.dim_r
        assert subspace_gap(gen, bi) <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generated_algebra_invariant_under_generator_scaling():
    """The algebra generated by c G is that of G at every scale, also
    where c G is tiny or huge next to the identity the closure adds."""
    gens, _ = sampling.plant_complex_induced(np.random.default_rng(4), 3)
    expected = generated_algebra(StarAlgebra(gens))
    assert expected.dim_r == 18
    for c in (1e-200, 1e-150, 1e150, 1e200):
        got = generated_algebra(StarAlgebra([g * c for g in gens]))
        assert got.dim_r == expected.dim_r, c
        assert subspace_gap(got, expected) <= 1e-12, c


def test_generated_algebra_matches_pairwise_closure():
    rng = np.random.default_rng(42)
    algebras = [block_diagonal_algebra(rng, 2)]
    for n in (2, 3, 4):
        algebras.append(StarAlgebra(sampling.plant_proper(rng, n)))
        algebras.append(StarAlgebra(sampling.plant_complex_induced(rng, n)[0]))
        algebras.append(StarAlgebra(sampling.plant_real_induced(rng, n)[0]))
    for algebra in algebras:
        fast = generated_algebra(algebra)
        reference = pairwise_closure(algebra)
        assert fast.dim_r == reference.dim_r
        assert subspace_gap(fast, reference) <= 1e-10


def test_generated_algebra_stops_when_the_span_is_full(monkeypatch):
    """On a proper plant the closure returns once its span has all 4n^2
    dimensions: every _row_span call adds rows, and the round it skips
    would have added none, so the basis is the one a closure run until an
    empty round returns."""
    n = 3
    algebra = StarAlgebra(sampling.plant_proper(np.random.default_rng(75), n))
    spans = []
    row_span = algebra_module._row_span

    def spy(stack, scale):
        spans.append(row_span(stack, scale))
        return spans[-1]

    monkeypatch.setattr(algebra_module, "_row_span", spy)
    basis = generated_algebra(algebra)
    monkeypatch.undo()
    assert basis.dim_r == 4 * n * n
    assert all(len(rows) for rows in spans)
    np.testing.assert_array_equal(basis.mat, np.concatenate(spans))
    gens = _unit_scaled(np.stack([g.data for g in algebra.generators]))
    skipped = matmul4(gens[1:, None], spans[-1].reshape(1, -1, n, n, 4))
    skipped = skipped.reshape(-1, 4 * n * n)
    for _ in range(2):
        skipped = skipped - (skipped @ basis.mat.T) @ basis.mat
    assert len(row_span(skipped, 1.0)) == 0
    assert subspace_gap(basis, pairwise_closure(algebra)) <= 1e-10


def test_center_full_algebra():
    rng = np.random.default_rng(6)
    algebra = StarAlgebra(sampling.plant_proper(rng, 2))
    z = center(algebra)
    assert z.dim_r == 1
    assert z.membership_residual(QMatrix.identity(2)) <= MEMBERSHIP_TOL


def test_center_complex_induced():
    rng = np.random.default_rng(7)
    gens, planted_j = sampling.plant_complex_induced(rng, 2)
    z = center(StarAlgebra(gens))
    assert z.dim_r == 2
    assert z.membership_residual(planted_j) <= MEMBERSHIP_TOL
    assert z.membership_residual(QMatrix.identity(2)) <= MEMBERSHIP_TOL


def block_diagonal_algebra(rng, half: int) -> StarAlgebra:
    """Reducible: generators leave the first `half` coordinates invariant."""
    n = 2 * half
    gens = []
    for _ in range(2):
        data = np.zeros((n, n, 4))
        data[:half, :half] = rng.standard_normal((half, half, 4))
        data[half:, half:] = rng.standard_normal((half, half, 4))
        gens.append(QMatrix(data))
    return StarAlgebra(gens)


def test_center_block_diagonal_contains_block_projections():
    rng = np.random.default_rng(8)
    algebra = block_diagonal_algebra(rng, 2)
    z = center(algebra)
    proj = np.zeros((4, 4, 4))
    proj[0, 0, 0] = proj[1, 1, 0] = 1.0
    assert z.membership_residual(QMatrix(proj)) <= MEMBERSHIP_TOL


def test_is_irreducible():
    rng = np.random.default_rng(9)
    assert is_irreducible(StarAlgebra(sampling.plant_proper(rng, 2)))
    assert not is_irreducible(block_diagonal_algebra(rng, 2))
    gens, _ = sampling.plant_complex_induced(rng, 3)
    assert is_irreducible(StarAlgebra(gens))
    gens, _, _ = sampling.plant_real_induced(rng, 2)
    assert is_irreducible(StarAlgebra(gens))


def irreducibility_cases() -> list[tuple[StarAlgebra, bool]]:
    """Block-diagonal (reducible) and planted (irreducible) algebras."""
    rng = np.random.default_rng(43)
    cases = [(block_diagonal_algebra(rng, half), False) for half in (1, 2, 3)]
    for n in (2, 3, 4):
        cases.append((StarAlgebra(sampling.plant_proper(rng, n)), True))
        cases.append((StarAlgebra(sampling.plant_complex_induced(rng, n)[0]),
                      True))
        cases.append((StarAlgebra(sampling.plant_real_induced(rng, n)[0]),
                      True))
    return cases


def test_is_irreducible_matches_loop_reference():
    for algebra, expected in irreducibility_cases():
        assert loop_is_irreducible(algebra) is expected
        assert is_irreducible(algebra) is expected


def coupled_sweep() -> list[list[QMatrix]]:
    """Generators of block-diagonal algebras whose blocks are coupled by
    eps from 1e-1 to 1e-14."""
    sweep = []
    rng = np.random.default_rng(44)
    for half in (1, 2, 3):
        n = 2 * half
        blocks = block_diagonal_algebra(rng, half).generators[1:]
        coupling = np.zeros((n, n, 4))
        coupling[:half, half:] = rng.standard_normal((half, half, 4))
        sweep += [[blocks[0] + QMatrix(coupling) * 10.0 ** -k] + blocks[1:]
                  for k in range(1, 15)]
    return sweep


def assert_invariant_projection(p: QMatrix, algebra: StarAlgebra):
    """p is a nontrivial orthogonal projection that commutes with every
    generator: P^2 = P, P = P*, 0 < tr P < n and [P, G] small relative to
    G."""
    assert (p @ p - p).frob() <= 1e-9
    assert (p - p.H).frob() <= 1e-9
    assert 0.5 < p.trace().w < algebra.n - 0.5
    for g in algebra.generators:
        assert (p @ g - g @ p).frob() <= 1e-8 * g.frob()


def test_witness_exists_iff_reducible():
    """The verdict and the witness come from one commutant: planted cases
    and the coupled sweep.  Every witness is a nontrivial invariant
    projection."""
    algebras = [algebra for algebra, _ in irreducibility_cases()]
    algebras += [StarAlgebra(gens) for gens in coupled_sweep()]
    verdicts = set()
    for algebra in algebras:
        irreducible = is_irreducible(algebra)
        verdicts.add(irreducible)
        witness = reducibility_witness(algebra)
        assert (witness is None) is irreducible
        if witness is not None:
            assert_invariant_projection(witness, algebra)
    assert verdicts == {True, False}


def commutant_artifacts(algebra: StarAlgebra) -> dict[str, np.ndarray]:
    """The witness of a reducible algebra, or the J, I and K that
    classify_irreducible recovers, as component arrays by name."""
    if not is_irreducible(algebra):
        return {"witness": reducibility_witness(algebra).data}
    verdict = classify_irreducible(algebra)
    return {name: op.data for name, op in (
        ("J", verdict.J), ("I", verdict.I), ("K", verdict.K))
        if op is not None}


def assert_same_artifacts(first: dict, second: dict, tol: float):
    assert first.keys() == second.keys()
    for name in first:
        assert np.linalg.norm(first[name] - second[name]) <= tol, name


def test_witness_ignores_a_selfadjoint_row_on_the_identity():
    """The commutant rows may be any orthonormal basis of each block, one
    selfadjoint row I / sqrt(n) itself, whose only spectral projection is
    I.  The witness and J, I and K are projections of fixed matrices, so
    they do not move when either block of rows is rotated."""
    rng = np.random.default_rng(10)
    for half in (1, 2, 3):
        algebra = block_diagonal_algebra(rng, half)
        expected = reducibility_witness(algebra)
        comm = algebra.commutant_basis()
        sym = comm.mat[:comm.selfadjoint]
        identity = vec(QMatrix.identity(algebra.n)) / np.sqrt(algebra.n)
        coords = np.column_stack([sym @ identity, rng.standard_normal(
            (len(sym), len(sym) - 1))])
        rotation, _ = np.linalg.qr(coords)
        rotated = rotation.T @ sym
        assert np.linalg.norm(np.abs(rotated[0] @ identity) - 1.0) <= 1e-12
        algebra._commutant = CommutantBasis(
            np.concatenate([rotated, comm.mat[comm.selfadjoint:]]),
            selfadjoint=comm.selfadjoint)
        witness = reducibility_witness(algebra)
        assert_invariant_projection(witness, algebra)
        assert (witness - expected).frob() <= 1e-12
    for n in (2, 3, 4, 8):
        for gens in planted_generator_sets(rng, n)[1:]:
            algebra = StarAlgebra(gens)
            expected = commutant_artifacts(algebra)
            comm = algebra.commutant_basis()
            blocks = [comm.mat[:comm.selfadjoint], comm.mat[comm.selfadjoint:]]
            rotations = [np.linalg.qr(rng.standard_normal((len(b), len(b))))[0]
                         for b in blocks]
            algebra._commutant = CommutantBasis(
                np.concatenate([q.T @ b for q, b in zip(rotations, blocks)]),
                selfadjoint=comm.selfadjoint)
            assert_same_artifacts(commutant_artifacts(algebra), expected,
                                  1e-12)


def test_artifacts_agree_across_the_two_commutant_paths(monkeypatch):
    """At n = 8 the commutant is certified in the eigenframe; with
    DIAGONAL_SCREEN_MIN_N raised past 8 the eigh screen solves it, another
    orthonormal basis of the same subspace.  Both give the same witness
    and the same J, I and K."""
    rng = np.random.default_rng(76)
    for gens in planted_generator_sets(rng, 8)[1:]:
        fast = StarAlgebra(gens)
        _, certified = eigenframe_outcome(monkeypatch, fast.commutant_basis)
        assert certified
        monkeypatch.setattr(algebra_module, "DIAGONAL_SCREEN_MIN_N", 9)
        slow = StarAlgebra(gens)
        assert_same_artifacts(commutant_artifacts(fast),
                              commutant_artifacts(slow), 1e-11)
        assert subspace_gap(fast.commutant_basis(),
                            slow.commutant_basis()) <= 1e-12
        monkeypatch.undo()


def test_witness_raises_on_a_probe_with_no_traceless_part(monkeypatch):
    """With the identity as the probe, its projection onto the selfadjoint
    commutant is I, which has one eigensphere: the witness raises rather
    than return I or a projection of rounding noise."""
    monkeypatch.setattr(algebra_module, "_probes", lambda n: np.tile(
        vec(QMatrix.identity(n)), (2, 1)))
    algebra = block_diagonal_algebra(np.random.default_rng(11), 2)
    assert not is_irreducible(algebra)
    with pytest.raises(InternalInconsistency, match="one eigensphere"):
        reducibility_witness(algebra)


@pytest.mark.parametrize("plant", ["complex", "real"])
def test_classify_raises_on_a_probe_with_no_skew_part(monkeypatch, plant):
    """A zero probe projects to a zero unit, which stays zero rather than
    NaN and fails U^2 = -I: classify_irreducible raises."""
    monkeypatch.setattr(algebra_module, "_probes",
                        lambda n: np.zeros((2, 4 * n * n)))
    rng = np.random.default_rng(12)
    gens = (sampling.plant_complex_induced(rng, 3)[0] if plant == "complex"
            else sampling.plant_real_induced(rng, 3)[0])
    with pytest.raises(InternalInconsistency, match="U\\^2 = -I"):
        classify_irreducible(StarAlgebra(gens))


def svd_split_ranks(algebra: StarAlgebra) -> tuple[int, int]:
    """Reference rule: (traceless selfadjoint, skew) ranks of the
    commutant from SVDs of the projections of its orthonormal basis onto
    the traceless selfadjoint and onto the skew matrices, cut at 1/2.  The
    commutant is a *-algebra that contains I, so both projections restrict
    orthogonal ones and their singular values are 0 or 1."""
    stack = algebra.commutant_basis().stack
    adj = conj4(np.swapaxes(stack, 1, 2))
    identity = vec(QMatrix.identity(algebra.n)) / np.sqrt(algebra.n)
    sym = 0.5 * (stack + adj).reshape(len(stack), -1)
    sym -= np.outer(sym @ identity, identity)
    skew = 0.5 * (stack - adj).reshape(len(stack), -1)
    return tuple(int(np.sum(np.linalg.svd(part, compute_uv=False) > 0.5))
                 for part in (sym, skew))


def split_ranks(algebra: StarAlgebra) -> tuple[int, int]:
    """(traceless selfadjoint, skew) dimensions of the commutant, read off
    its selfadjoint-first rows."""
    comm = algebra.commutant_basis()
    return comm.selfadjoint - 1, comm.dim_r - comm.selfadjoint


def direct_sum(a: QMatrix, b: QMatrix) -> QMatrix:
    data = np.zeros((a.n + b.n, a.n + b.n, 4))
    data[:a.n, :a.n], data[a.n:, a.n:] = a.data, b.data
    return QMatrix(data)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_ranks_on_planted_direct_sums(n):
    """(traceless selfadjoint, skew) ranks of the commutant of a planted
    direct sum: those of M2(R), M2(C), M2(H), C + R and R + R, less the
    identity."""
    rng = np.random.default_rng(60 + n)
    proper = sampling.plant_proper(rng, n)
    other = sampling.plant_proper(rng, n)
    cplx = sampling.plant_complex_induced(rng, n)[0]
    real = sampling.plant_real_induced(rng, n)[0]
    cases = [(proper, proper, (2, 1)), (cplx, cplx, (3, 4)),
             (real, real, (5, 10)), (cplx, proper, (1, 1)),
             (proper, other, (1, 0))]
    for first, second, expected in cases:
        algebra = StarAlgebra([direct_sum(a, b)
                               for a, b in zip(first, second)])
        assert split_ranks(algebra) == expected
        assert algebra.commutant_basis().dim_r == 1 + sum(expected)
        assert not is_irreducible(algebra)
        assert reducibility_witness(algebra) is not None


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_adjoint_split_matches_svd_rule(c):
    """At every scale the commutant's selfadjoint-first rows give the
    split ranks of the SVD reference rule, each row is exactly selfadjoint
    or exactly skew, and I lies in the span of the selfadjoint rows."""
    for gens in coupled_sweep():
        algebra = StarAlgebra([g * c for g in gens])
        comm = algebra.commutant_basis()
        assert svd_split_ranks(algebra) == split_ranks(algebra)
        adj = conj4(np.swapaxes(comm.stack, 1, 2))
        sym = comm.selfadjoint
        assert np.array_equal(comm.stack[:sym], adj[:sym])
        assert np.array_equal(comm.stack[sym:], -adj[sym:])
        identity = vec(QMatrix.identity(algebra.n)) / np.sqrt(algebra.n)
        rows = comm.mat[:sym]
        assert np.linalg.norm(identity - (rows @ identity) @ rows) <= 1e-10


def test_generator_list_is_star_closed_at_any_scale():
    """A generator's adjoint is added unless the generator is selfadjoint
    relative to its own norm, so tiny generators keep the list *-closed."""
    rng = np.random.default_rng(59)
    for n in (2, 3):
        gens, _ = sampling.plant_complex_induced(rng, n)
        algebra = StarAlgebra([g * 1e-15 for g in gens])
        assert len(algebra.generators) == 5
        for g in algebra.generators:
            assert any(np.array_equal(g.H.data, h.data)
                       for h in algebra.generators)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_verdicts_invariant_under_generator_scaling(n):
    """The commutant of c G is that of G: planted proper, complex-induced
    and real-induced algebras keep their commutant dimension,
    irreducibility and kind when every generator is scaled by c."""
    rng = np.random.default_rng(48 + n)
    plants = [sampling.plant_proper(rng, n),
              sampling.plant_complex_induced(rng, n)[0],
              sampling.plant_real_induced(rng, n)[0]]
    for gens in plants:
        algebra = StarAlgebra(gens)
        expected = (algebra.commutant_basis().dim_r, is_irreducible(algebra),
                    classify_irreducible(algebra).kind)
        for c in (1e-200, 1e-160, 1e-12, 1e-10, 1.0, 1e10, 1e12, 1e160,
                  1e200):
            scaled = StarAlgebra([g * c for g in gens])
            verdict = (scaled.commutant_basis().dim_r, is_irreducible(scaled),
                       classify_irreducible(scaled).kind)
            assert verdict == expected, (c, verdict, expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projection_samples_invariant_under_generator_scaling():
    """reduce_system samples the spectral projections of the generators'
    selfadjoint parts, and they are those of G at every scale c, not the
    identity alone where the parts are small or their norms overflow."""
    rng = np.random.default_rng(57)
    gens, _ = sampling.plant_complex_induced(rng, 3)
    expected = _projection_samples(StarAlgebra(gens))
    assert len(expected) > 1
    for c in (1e-200, 1e-13, 1e200):
        got = _projection_samples(StarAlgebra([g * c for g in gens]))
        assert len(got) == len(expected), c
        for p, q in zip(got, expected):
            assert np.linalg.norm(p - q) <= 1e-9, c


def test_projection_samples_one_set_per_adjoint_pair():
    """The samples are pairwise distinct: the identity, then the
    projections of each input generator's selfadjoint part once, although
    the generator list holds g and g*, whose parts are equal."""
    rng = np.random.default_rng(58)
    n = 3
    gens, _ = sampling.plant_complex_induced(rng, n)
    samples = _projection_samples(StarAlgebra(gens))
    expected = [QMatrix.identity(n)] + [
        proj for g in gens
        for _, proj in spectral_projections((g + g.H) * 0.5)]
    assert len(samples) == len(expected) == 1 + 2 * n
    for a in range(len(samples)):
        for b in range(a):
            assert np.linalg.norm(samples[a] - samples[b]) > 0.5
    for proj in expected:
        assert min(np.linalg.norm(s - proj.data) for s in samples) <= 1e-9


def test_algebra_draws_random_numbers_only_in_reduce_system():
    """Commutant, irreducibility and classification verdicts are seed-free:
    only the sampled reduction certificates may touch an RNG."""
    tree = ast.parse(Path(algebra_module.__file__).read_text())
    offenders = set()
    for node in tree.body:
        if getattr(node, "name", None) == "reduce_system":
            continue
        for sub in ast.walk(node):
            names = [getattr(sub, "id", None), getattr(sub, "attr", None),
                     getattr(sub, "arg", None)]
            names += [alias.name for alias in getattr(sub, "names", [])
                      if isinstance(alias, ast.alias)]
            offenders.update(name for name in names if name and any(
                word in name.lower() for word in ("random", "rng", "seed")))
    assert offenders == set()


def test_spectral_calls_only_in_decision_helpers():
    """Every rank or spectral decision of the package is made in one of
    five functions, so each decision has one place to report its margin
    from: the commutant and generated-algebra ranks (`algebra`), the
    eigensphere clusters and the polar kernel cut (`qlinalg`), and the
    exponential, which decides nothing but needs the spectrum.  The
    plus-space and real-subspace bases of `functors` are pivoted picks
    and decide nothing."""
    allowed = {"_nullspace_rows", "_row_span", "spectral_projections",
               "polar_antiselfadjoint", "expm_antihermitian"}
    offenders = set()
    for path in Path(algebra_module.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", None) in allowed:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and getattr(
                        sub.func, "attr", getattr(sub.func, "id", None)) in {
                        "svd", "eigh", "eigvalsh", "eig"}:
                    offenders.add((path.stem, getattr(node, "name", None)))
    assert offenders == set()


def test_reducibility_witness_is_invariant_projection():
    rng = np.random.default_rng(10)
    algebra = block_diagonal_algebra(rng, 2)
    witness = reducibility_witness(algebra)
    assert witness is not None
    flags = classify_operator(witness, tol=1e-7)
    assert flags.projection
    for g in algebra.generators:
        assert (witness @ g - g @ witness).frob() <= 1e-7 * max(1.0, g.frob())


def test_classify_proper():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        verdict = classify_irreducible(StarAlgebra(sampling.plant_proper(rng, n)))
        assert verdict.kind == "ProperQuaternionic"
        assert verdict.commutant_dim == 1


def test_classify_complex_induced_recovers_j():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        gens, planted_j = sampling.plant_complex_induced(rng, n)
        verdict = classify_irreducible(StarAlgebra(gens))
        assert verdict.kind == "ComplexInduced"
        assert verdict.commutant_dim == 2
        dist = min((verdict.J - planted_j).frob(),
                   (verdict.J + planted_j).frob())
        assert dist <= 1e-7
        for g in gens:
            assert (verdict.J @ g - g @ verdict.J).frob() <= 1e-8


def test_classify_real_induced_recovers_triple():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        gens, planted_i, planted_j = sampling.plant_real_induced(rng, n)
        verdict = classify_irreducible(StarAlgebra(gens))
        assert verdict.kind == "RealInduced"
        assert verdict.commutant_dim == 4
        ident = QMatrix.identity(n)
        ops = [verdict.I, verdict.J, verdict.K]
        for op in ops:
            assert (op + op.H).frob() <= 1e-7
            assert (op @ op + ident).frob() <= 1e-7
        for a in range(3):
            for b in range(a + 1, 3):
                anti = ops[a] @ ops[b] + ops[b] @ ops[a]
                assert anti.frob() <= 1e-7
        assert (verdict.K - verdict.I @ verdict.J).frob() <= 1e-9
        # recovered span matches the planted one
        comm = StarAlgebra(gens).commutant_basis()
        for planted in (planted_i, planted_j):
            assert comm.membership_residual(planted) <= 1e-8


def test_classify_rejects_reducible():
    rng = np.random.default_rng(15)
    with pytest.raises(StructureError):
        classify_irreducible(block_diagonal_algebra(rng, 2))


def test_classification_json():
    rng = np.random.default_rng(16)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    verdict = classify_irreducible(StarAlgebra(gens))
    payload = verdict.to_json()
    assert payload["kind"] == "ComplexInduced"
    assert payload["commutant_dim"] == 2
    assert "J" in payload and "I" not in payload


def evolution_from(gens: list[QMatrix], times=(0.5, 1.0)) -> list[QMatrix]:
    h = (gens[0] - gens[0].H) * 0.5
    return [expm_antiselfadjoint(h * float(-t)) for t in times]


def test_reduce_system_planted_roundtrip():
    rng = np.random.default_rng(22)
    for n in (2, 4):
        gens, planted_j = sampling.plant_complex_induced(rng, n)
        algebra = StarAlgebra(gens)
        evolution = evolution_from(gens)
        report = reduce_system(algebra, evolution, UNIT_E1)
        assert all(c.passed for c in report.checks), [
            c for c in report.checks if not c.passed]
        assert report.classification.kind == "ComplexInduced"
        assert len(report.restricted_evolution) == len(evolution)
        for mat in report.restricted_generators:
            assert mat.shape == (n, n)


def test_reduce_system_restriction_matches_complex_exponential():
    rng = np.random.default_rng(23)
    n = 2
    gens, _ = sampling.plant_complex_induced(rng, n)
    algebra = StarAlgebra(gens)
    h = (gens[0] - gens[0].H) * 0.5
    u = expm_antiselfadjoint(h * -1.0)
    report = reduce_system(algebra, [u], UNIT_E1)
    assert all(c.passed for c in report.checks)
    space = report.split
    oracle = scipy.linalg.expm(-restrict_to_plus(h, space))
    np.testing.assert_allclose(report.restricted_evolution[0], oracle,
                               atol=1e-9)


def test_reduce_system_identity_rank():
    rng = np.random.default_rng(24)
    gens, _ = sampling.plant_complex_induced(rng, 3)
    algebra = StarAlgebra(gens)
    report = reduce_system(algebra, [], UNIT_E1)
    names = [c.name for c in report.checks]
    assert "projection_rank_match" in names
    assert all(c.passed for c in report.checks)


def test_reduce_system_guards():
    rng = np.random.default_rng(25)
    proper = StarAlgebra(sampling.plant_proper(rng, 2))
    with pytest.raises(NotComplexInduced):
        reduce_system(proper, [], UNIT_E1)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    algebra = StarAlgebra(gens)
    with pytest.raises(DoesNotCommute):
        reduce_system(algebra, [sampling.unitary(rng, 2)], UNIT_E1)
    # a squared entry of this evolution overflows; the guard fires anyway
    with pytest.raises(DoesNotCommute):
        reduce_system(algebra, [sampling.unitary(rng, 2) * 1e200], UNIT_E1)


def test_reduce_system_names_the_evolution_operator_that_does_not_commute():
    rng = np.random.default_rng(28)
    gens, _ = sampling.plant_complex_induced(rng, 3)
    evolution = [evolution_from(gens)[0], sampling.unitary(rng, 3)]
    with pytest.raises(DoesNotCommute,
                       match="evolution operator 1 does not commute with J"):
        reduce_system(StarAlgebra(gens), evolution, UNIT_E1)


def test_star_algebra_json_roundtrip():
    rng = np.random.default_rng(26)
    algebra = StarAlgebra(sampling.plant_proper(rng, 2))
    clone = StarAlgebra.from_json(algebra.to_json())
    assert clone.n == algebra.n
    assert clone.commutant_basis().dim_r == algebra.commutant_basis().dim_r
