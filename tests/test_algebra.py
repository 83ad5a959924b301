"""Tests for commutants, the trichotomy classification, states, symmetries
and the reduction pipeline.

The commutant implementation is cross-checked against an independent
nullspace oracle that assembles the constraint matrix by brute-force
application of T -> [G, T] to every basis matrix.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from qreduce import algebra as algebra_module, sampling
from qreduce.algebra import (
    GAP_CUTOFF,
    SV_CUTOFF,
    CommutantBasis,
    StarAlgebra,
    _commutator_constraint,
    _nullspace_rows,
    StateFunctional,
    bicommutant,
    center,
    classify_irreducible,
    commutant,
    extract_anti_unit,
    generated_algebra,
    induce_symmetry,
    is_irreducible,
    lueders_update,
    reduce_system,
    reducibility_witness,
    same_symmetry,
    subspace_gap,
    vec,
)
from qreduce.errors import (
    DoesNotCommute,
    NotComplexInduced,
    NotInScalarCommutant,
    StructureError,
    ZeroProbability,
)
from qreduce.functors import restrict_to_plus
from qreduce.qlinalg import (
    QMatrix,
    classify_operator,
    complex_embed,
    expm_antiselfadjoint,
    outer,
    spectral_projections,
)
from qreduce.quat import QTENSOR, UNIT_E1, matmul4


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


def loop_is_irreducible(algebra: StarAlgebra, cutoff: float = GAP_CUTOFF,
                        samples: int = 32, seed: int = 0) -> bool:
    """Reference scan: one candidate at a time, early exit on a spread."""
    comm = algebra.commutant_basis()
    candidates = [(b + b.H) * 0.5 for b in comm.basis]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        coeffs = rng.standard_normal(comm.dim_r)
        mix = QMatrix.zeros(algebra.n)
        for c, b in zip(coeffs, comm.basis):
            mix = mix + b * float(c)
        candidates.append((mix + mix.H) * 0.5)
    for cand in candidates:
        chi = complex_embed(cand)
        vals = np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))
        if vals[-1] - vals[0] > cutoff * max(1.0, cand.frob()):
            return False
    return True


def svd_nullspace_rows(constraint: np.ndarray, cutoff: float,
                       scale: float) -> np.ndarray:
    """Reference rule: economy SVD of the whole constraint, dropping singular
    values at most cutoff * max(top, scale)."""
    rows, cols = constraint.shape
    if rows < cols:
        constraint = np.concatenate([constraint, np.zeros((cols - rows, cols))])
    _, svals, vh = np.linalg.svd(constraint, full_matrices=False)
    threshold = cutoff * max(svals[0], scale)
    return vh[int(np.sum(svals > threshold)):]


def unit_norm(mats: list[QMatrix]) -> list[QMatrix]:
    """Each nonzero matrix scaled to unit Frobenius norm."""
    return [g * (1.0 / g.frob()) if g.frob() > 0.0 else g for g in mats]


def svd_commutant(mats: list[QMatrix]) -> CommutantBasis:
    """Reference commutant: per-generator constraint blocks of the unit-norm
    matrices, SVD rule at scale 1."""
    constraint = np.concatenate(
        [left_mult_matrix(g) - right_mult_matrix(g) for g in unit_norm(mats)])
    return CommutantBasis(svd_nullspace_rows(constraint, SV_CUTOFF, 1.0))


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
    rows = _nullspace_rows(constraint, SV_CUTOFF, 0.5)
    reference = svd_nullspace_rows(constraint, SV_CUTOFF, 0.5)
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


def test_commutant_matches_svd_rule_on_planted_algebras():
    rng = np.random.default_rng(45)
    for n in (2, 3, 4, 8):
        algebras = [StarAlgebra(sampling.plant_proper(rng, n)),
                    StarAlgebra(sampling.plant_complex_induced(rng, n)[0]),
                    StarAlgebra(sampling.plant_real_induced(rng, n)[0])]
        if n % 2 == 0:
            algebras.append(block_diagonal_algebra(rng, n // 2))
        for algebra in algebras:
            comm = commutant(algebra)
            bicomm = bicommutant(algebra)
            ref_comm = svd_commutant(algebra.generators)
            ref_bicomm = svd_commutant(ref_comm.basis)
            assert comm.dim_r == ref_comm.dim_r
            assert bicomm.dim_r == ref_bicomm.dim_r
            assert subspace_gap(comm, ref_comm) <= 1e-12
            assert subspace_gap(bicomm, ref_bicomm) <= 1e-12


@pytest.mark.parametrize("half", [2, 4])
def test_near_reducible_algebra_matches_svd_rule(half):
    """A block-diagonal algebra coupled by eps: the coupling lifts one
    singular value of the constraint in proportion to eps, so sweeping eps
    moves it across the threshold, the candidate band and the screen.  The
    commutant dimension and the irreducibility verdict follow the SVD rule,
    and the identity stays in the commutant."""
    rng = np.random.default_rng(46 + half)
    n = 2 * half
    blocks = block_diagonal_algebra(rng, half).generators[1:]
    coupling = np.zeros((n, n, 4))
    coupling[:half, half:] = rng.standard_normal((half, half, 4))
    coupling = QMatrix(coupling)

    def coupled(eps):
        algebra = StarAlgebra([blocks[0] + coupling * eps] + blocks[1:])
        gens = np.stack([g.data for g in unit_norm(algebra.generators)])
        return algebra, _commutator_constraint(gens), 1.0

    _, constraint, scale = coupled(1e-6)
    svals = np.linalg.svd(constraint, compute_uv=False)
    ref = max(svals[0], scale)
    lifted = svals[svals > 1e-12 * svals[0]][-1] / 1e-6   # per unit eps
    sweep = [10.0 ** -k for k in range(1, 13)] + [
        factor * cut * ref / lifted for factor in (0.5, 1.5)
        for cut in (SV_CUTOFF, np.sqrt(SV_CUTOFF), SV_CUTOFF ** 0.25)]
    identity = vec(QMatrix.identity(n))
    for eps in sweep:
        algebra, constraint, scale = coupled(eps)
        rows = algebra.commutant_basis().mat
        reference = svd_nullspace_rows(constraint, SV_CUTOFF, scale)
        assert rows.shape == reference.shape, eps
        assert is_irreducible(algebra) is (len(rows) == 1), eps
        top = np.linalg.norm(constraint, 2)
        assert (np.linalg.norm(constraint @ rows.T, 2)
                <= SV_CUTOFF * max(top, scale)), eps
        outside = identity - rows.T @ (rows @ identity)
        assert np.linalg.norm(outside) <= 1e-10, eps


def test_batched_constraint_matches_per_generator_blocks():
    rng = np.random.default_rng(47)
    for n in (1, 2, 3):
        gens = [sampling.qmatrix(rng, n) for _ in range(3)]
        per_generator = np.concatenate(
            [left_mult_matrix(g) - right_mult_matrix(g) for g in gens])
        batched = _commutator_constraint(np.stack([g.data for g in gens]))
        np.testing.assert_array_equal(batched, per_generator)


def test_nullspace_rows_of_wide_constraint():
    rng = np.random.default_rng(40)
    # rank-3 constraint on R^8 whose nullspace is the last five coordinates
    constraint = np.zeros((3, 8))
    constraint[:, :3] = rng.standard_normal((3, 3))
    rows = _nullspace_rows(constraint, SV_CUTOFF, 1.0)
    assert rows.shape == (5, 8)
    np.testing.assert_allclose(rows @ rows.T, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(rows[:, :3], 0.0, atol=1e-12)
    # a numerically zero wide constraint leaves the whole space
    assert _nullspace_rows(np.zeros((2, 6)), SV_CUTOFF, 1.0).shape == (6, 6)


def test_commutant_of_matrix_units_is_scalar():
    n = 2
    algebra = StarAlgebra(matrix_units(n))
    comm = commutant(algebra)
    assert comm.dim_r == 1
    only = comm.basis[0]
    ident = QMatrix.identity(n)
    scaled = ident * (only.trace().w / n)
    assert (only - scaled).frob() <= 1e-10


def test_commutant_of_identity_is_everything():
    n = 2
    algebra = StarAlgebra([QMatrix.identity(n)])
    assert commutant(algebra).dim_r == 4 * n * n


def test_commutant_matches_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        algebra = StarAlgebra(sampling.plant_proper(rng, n))
        fast = commutant(algebra)
        slow_rows = oracle_commutant(algebra.generators, n)
        assert fast.dim_r == slow_rows.shape[0]
        slow = CommutantBasis(slow_rows)
        assert subspace_gap(fast, slow) <= 1e-8


def test_commutant_elements_commute_and_are_star_closed():
    rng = np.random.default_rng(2)
    gens, planted_j = sampling.plant_complex_induced(rng, 3)
    algebra = StarAlgebra(gens)
    comm = commutant(algebra)
    assert comm.dim_r == 2
    assert comm.contains(QMatrix.identity(3))
    assert comm.contains(planted_j)
    for b in comm.basis:
        for g in algebra.generators:
            assert (b @ g - g @ b).frob() <= 1e-9 * max(1.0, g.frob())
        assert comm.contains(b.H)
    # product closure, spot check
    assert comm.contains(comm.basis[0] @ comm.basis[1])


def test_commutant_idempotent_beyond_first_application():
    rng = np.random.default_rng(3)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    algebra = StarAlgebra(gens)
    first = commutant(algebra)
    second = StarAlgebra(first.basis, n=2)
    third = commutant(StarAlgebra(commutant(second).basis, n=2))
    assert subspace_gap(first, third) <= 1e-8


def test_bicommutant_full_and_membership():
    rng = np.random.default_rng(4)
    n = 2
    algebra = StarAlgebra(sampling.plant_proper(rng, n))
    bi = bicommutant(algebra)
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
    for algebra in algebras:
        bi = bicommutant(algebra)
        gen = generated_algebra(algebra)
        assert gen.dim_r == bi.dim_r
        assert subspace_gap(gen, bi) <= 1e-8


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


def test_center_full_algebra():
    rng = np.random.default_rng(6)
    algebra = StarAlgebra(sampling.plant_proper(rng, 2))
    z = center(algebra)
    assert z.dim_r == 1
    assert z.contains(QMatrix.identity(2))


def test_center_complex_induced():
    rng = np.random.default_rng(7)
    gens, planted_j = sampling.plant_complex_induced(rng, 2)
    z = center(StarAlgebra(gens))
    assert z.dim_r == 2
    assert z.contains(planted_j)
    assert z.contains(QMatrix.identity(2))


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
    assert z.contains(QMatrix(proj))


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


def test_witness_exists_iff_reducible():
    """The verdict and the witness come from one scan of the commutant
    basis: planted cases, and block-diagonal algebras whose blocks are
    coupled by eps from 1e-1 to 1e-14."""
    algebras = [algebra for algebra, _ in irreducibility_cases()]
    rng = np.random.default_rng(44)
    for half in (1, 2, 3):
        n = 2 * half
        blocks = block_diagonal_algebra(rng, half).generators[1:]
        coupling = np.zeros((n, n, 4))
        coupling[:half, half:] = rng.standard_normal((half, half, 4))
        algebras += [StarAlgebra([blocks[0] + QMatrix(coupling) * 10.0 ** -k]
                                 + blocks[1:]) for k in range(1, 15)]
    verdicts = set()
    for algebra in algebras:
        irreducible = is_irreducible(algebra)
        verdicts.add(irreducible)
        assert (reducibility_witness(algebra) is None) is irreducible
    assert verdicts == {True, False}


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
        expected = (commutant(algebra).dim_r, is_irreducible(algebra),
                    classify_irreducible(algebra).kind)
        for c in (1e-12, 1e-10, 1.0, 1e10, 1e12):
            scaled = StarAlgebra([g * c for g in gens])
            verdict = (commutant(scaled).dim_r, is_irreducible(scaled),
                       classify_irreducible(scaled).kind)
            assert verdict == expected, (c, verdict, expected)


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


def test_reducibility_witness_is_invariant_projection():
    rng = np.random.default_rng(10)
    algebra = block_diagonal_algebra(rng, 2)
    witness = reducibility_witness(algebra)
    assert witness is not None
    flags = classify_operator(witness, tol=1e-7)
    assert flags.projection
    for g in algebra.generators:
        assert (witness @ g - g @ witness).frob() <= 1e-7 * max(1.0, g.frob())


def test_extract_anti_unit_cases():
    n = 3
    ident = QMatrix.identity(n)
    a, b, j = extract_anti_unit(ident * 5.0)
    assert a == pytest.approx(5.0) and b == 0.0 and j is None
    a, b, j = extract_anti_unit(ident * -1.0)
    assert a == pytest.approx(-1.0) and j is None

    rng = np.random.default_rng(11)
    planted = sampling.anti_unit(rng, n)
    a, b, j = extract_anti_unit(ident * 2.0 + planted * 3.0)
    assert a == pytest.approx(2.0, abs=1e-9)
    assert b == pytest.approx(3.0, abs=1e-9)
    assert (j - planted).frob() <= 1e-8
    assert (j @ j + ident).frob() <= 1e-8
    assert (j + j.H).frob() <= 1e-8

    with pytest.raises(NotInScalarCommutant):
        extract_anti_unit(sampling.qmatrix(rng, n))


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
        comm = commutant(StarAlgebra(gens))
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


def test_induce_symmetry():
    rng = np.random.default_rng(17)
    n = 3
    e = sampling.projection(rng, n, 1)
    assert (induce_symmetry(QMatrix.identity(n), e) - e).frob() <= 1e-12
    u = sampling.unitary(rng, n)
    v = sampling.unit_qvector(rng, n)
    moved = induce_symmetry(u, outer(v, v))
    target = u @ v
    assert (moved - outer(target, target)).frob() <= 1e-9
    assert classify_operator(moved, tol=1e-9).projection
    assert moved.trace().w == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(StructureError):
        induce_symmetry(sampling.qmatrix(rng, n), e)
    with pytest.raises(StructureError):
        induce_symmetry(u, sampling.qmatrix(rng, n))


def test_induce_symmetry_lattice_law_commuting_meet():
    rng = np.random.default_rng(18)
    n = 3
    t = sampling.selfadjoint(rng, n)
    pairs = spectral_projections(t)
    if len(pairs) < 2:
        pytest.skip("degenerate spectrum")
    e = pairs[0][1] + pairs[1][1]
    f = pairs[0][1]
    u = sampling.unitary(rng, n)
    lhs = induce_symmetry(u, e @ f)          # meet of commuting projections
    rhs = induce_symmetry(u, e) @ induce_symmetry(u, f)
    assert (lhs - rhs).frob() <= 1e-9


def test_same_symmetry():
    rng = np.random.default_rng(19)
    n = 2
    full = StarAlgebra(sampling.plant_proper(rng, n))
    u = sampling.unitary(rng, n)
    assert same_symmetry(u, -u, full)
    gens, planted_j = sampling.plant_complex_induced(rng, n)
    induced = StarAlgebra(gens)
    u2 = expm_antiselfadjoint((gens[0] - gens[0].H) * 0.5)
    assert same_symmetry(u2, planted_j @ u2, induced)
    v, w = sampling.unitary(rng, n), sampling.unitary(rng, n)
    assert not same_symmetry(v, w, full)


def test_state_functional_and_lueders():
    rng = np.random.default_rng(20)
    n = 3
    mu = StateFunctional(sampling.unit_qvector(rng, n))
    ident = QMatrix.identity(n)
    assert mu.prob(ident) == pytest.approx(1.0)
    after = lueders_update(mu, ident)
    assert (after.vector - mu.vector).norm() <= 1e-12

    f = sampling.projection(rng, n, 2)
    fixed = f @ mu.vector
    fixed = StateFunctional(fixed * (1.0 / fixed.norm()))
    again = lueders_update(fixed, f)
    assert (again.vector - fixed.vector).norm() <= 1e-10

    post = lueders_update(mu, f)
    assert post.prob(f) == pytest.approx(1.0, abs=1e-10)
    # conditional probabilities follow the compression formula
    e = sampling.projection(rng, n, 1)
    direct = post.prob(e)
    compressed = (e @ (f @ mu.vector)).norm() ** 2 / mu.prob(f)
    assert direct == pytest.approx(compressed, abs=1e-10)

    orth = (ident - f) @ mu.vector
    orth = StateFunctional(orth * (1.0 / orth.norm()))
    with pytest.raises(ZeroProbability):
        lueders_update(orth, f)


def test_state_sigma_additivity():
    rng = np.random.default_rng(21)
    n = 4
    mu = StateFunctional(sampling.unit_qvector(rng, n))
    pairs = spectral_projections(sampling.selfadjoint(rng, n))
    total = sum(mu.prob(p) for _, p in pairs)
    assert total == pytest.approx(1.0, abs=1e-10)
    merged = QMatrix.zeros(n)
    for _, p in pairs:
        merged = merged + p
    assert mu.prob(merged) == pytest.approx(total, abs=1e-10)


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
        assert report.passed, [c for c in report.checks if not c.passed]
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
    assert report.passed
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
    assert report.passed


def test_reduce_system_guards():
    rng = np.random.default_rng(25)
    proper = StarAlgebra(sampling.plant_proper(rng, 2))
    with pytest.raises(NotComplexInduced):
        reduce_system(proper, [], UNIT_E1)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    algebra = StarAlgebra(gens)
    with pytest.raises(DoesNotCommute):
        reduce_system(algebra, [sampling.unitary(rng, 2)], UNIT_E1)


def test_star_algebra_json_roundtrip():
    rng = np.random.default_rng(26)
    algebra = StarAlgebra(sampling.plant_proper(rng, 2))
    clone = StarAlgebra.from_json(algebra.to_json())
    assert clone.n == algebra.n
    assert commutant(clone).dim_r == commutant(algebra).dim_r
