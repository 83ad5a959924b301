"""Registered property suites driven by the CLI `verify` command and by the
acceptance tests.

Every property takes a SeedSequence (trial seeds derive from it, so a
fixed master seed reproduces the run bit for bit), the list of
quaternionic dimensions to exercise and a trial count; it returns a list
of named checks at their unscaled tolerances (the CLI applies --tol).

The properties that loop over dims are built by `_per_dim` from a trial
function, which draws one trial at one dimension and returns its checks.
`_per_dim` aggregates those checks per dimension and applies the one rule
of this module: a residual takes its maximum over trials, so a passing
check certifies every trial, and a check with tolerance 0 is a count of
failures, so counts add.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import sampling
from .algebra import (
    StarAlgebra,
    classify_irreducible,
    generated_algebra,
    reduce_system,
    subspace_gap,
)
from .dynamics import transition_probs
from .functors import (
    extend_from_plus,
    internal_complexify,
    internal_quaternionify,
    real_subspace_and_left_mult,
    restrict_to_plus,
    split_plus_minus,
)
from .qlinalg import (
    QMatrix,
    QVector,
    classify_operator,
    commutator_norm,
    commutator_residual,
    complex_embed,
    expm_antihermitian,
    expm_antiselfadjoint,
    operator_norm,
    polar_antiselfadjoint,
    relative_residual,
)
from .quat import (
    QTENSOR,
    Quaternion,
    frame_complete,
    matmul4,
    sphere_representative,
    symplectic_join,
    symplectic_split,
)
from .report import Check, max_residual

DEFAULT_DIMS = (2, 3, 4)


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.default_rng(seed_seq)


def _dim_rng(seed_seq: np.random.SeedSequence, n: int) -> np.random.Generator:
    """Stream for dimension n: it depends on the property's seed and on n
    only, not on which other dims were requested or in what order."""
    return np.random.default_rng(np.random.SeedSequence(
        seed_seq.entropy, spawn_key=(*seed_seq.spawn_key, n)))


def _aggregate(name: str, runs: list[Check]) -> Check:
    """One check from the same-named checks of every trial, by the rule of
    the module docstring; a NaN residual in any trial stays NaN and fails."""
    tolerance = runs[0].tolerance
    residuals = [check.residual for check in runs]
    if tolerance == 0:
        return Check(name, sum(residuals), 0.0)
    return Check(name, max_residual(*residuals), tolerance)


def _per_dim(trial, count=lambda trials: trials):
    """Property that runs `trial(rng, n, index)` count(trials) times at each
    n in dims, on the stream of that n, and reports each check it returned
    aggregated and suffixed `_n{n}`, in the order the names first appeared.
    A dimension whose trials return nothing reports nothing."""
    def prop(seed_seq, dims, trials):
        checks = []
        for n in dims:
            rng = _dim_rng(seed_seq, n)
            runs: dict[str, list[Check]] = {}
            for index in range(count(trials)):
                for check in trial(rng, n, index):
                    runs.setdefault(check.name, []).append(check)
            checks += [_aggregate(f"{name}_n{n}", group)
                       for name, group in runs.items()]
        return checks
    return prop


def _sparse(trials: int) -> int:
    """Trial count of the two costliest per-dimension properties."""
    return max(2, trials // 20)


# ---------------------------------------------------------------------------
# module invariants


def prop_quat_invariants(seed_seq, dims, trials):
    rng = _rng(seed_seq)
    count = max(trials, 100)
    worst_norm = 0.0
    worst_split = 0.0
    worst_sphere = 0.0
    worst_frame = 0.0
    for _ in range(count):
        p = sampling.quaternion(rng)
        q = sampling.quaternion(rng)
        worst_norm = max_residual(worst_norm,
                                  abs(abs(p * q) - abs(p) * abs(q))
                                  / max(abs(p) * abs(q), 1e-300))
        frame = frame_complete(sampling.imaginary_unit(rng))
        z1, z2 = symplectic_split(q, frame)
        worst_split = max_residual(worst_split,
                                   abs(symplectic_join(z1, z2, frame) - q))
        h = sampling.unit_quaternion(rng)
        unit = sampling.imaginary_unit(rng)
        moved = sphere_representative(h * q * h.conjugate(), unit)
        plain = sphere_representative(q, unit)
        worst_sphere = max_residual(worst_sphere, abs(moved - plain))
        iq, jq = frame.i.as_quaternion(), frame.j.as_quaternion()
        worst_frame = max_residual(worst_frame, abs(iq * jq + jq * iq))
    return [
        Check("quat_multiplicative_norm", worst_norm, 1e-12),
        Check("quat_split_roundtrip", worst_split, 1e-14),
        Check("quat_sphere_invariance", worst_sphere, 1e-12),
        Check("quat_frame_anticommute", worst_frame, 1e-14),
    ]


def prop_qlinalg_invariants(seed_seq, dims, trials):
    rng = _rng(seed_seq)
    count = max(trials, 100)
    worst_rlin = 0.0
    worst_hom = 0.0
    worst_adj = 0.0
    for _ in range(count):
        n = int(rng.choice(dims))
        t = sampling.qmatrix(rng, n)
        v = sampling.qvector(rng, n)
        a = sampling.quaternion(rng)
        gap = ((t @ (v * a)) - (t @ v) * a).norm()
        worst_rlin = max_residual(worst_rlin,
                                  gap / (1.0 + t.frob() * v.norm() * abs(a)))
        s = sampling.qmatrix(rng, n)
        frame = frame_complete(sampling.imaginary_unit(rng))
        ct, cs = complex_embed(t, frame), complex_embed(s, frame)
        hom = np.linalg.norm(complex_embed(t @ s, frame) - ct @ cs)
        worst_hom = max_residual(
            worst_hom,
            hom / max(1.0, np.linalg.norm(ct) * np.linalg.norm(cs)))
        adj = np.linalg.norm(complex_embed(t.H, frame) - ct.conj().T)
        worst_adj = max_residual(worst_adj,
                                 adj / max(1.0, np.linalg.norm(ct)))
    return [
        Check("qlinalg_right_linearity", worst_rlin, 1e-11),
        Check("qlinalg_embed_homomorphism", worst_hom, 1e-11),
        Check("qlinalg_embed_adjoint", worst_adj, 1e-12),
    ]


# ---------------------------------------------------------------------------
# criterion 1: functor ledger


def _structured_complex(rng, n, kind):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == 0:
        return raw
    if kind == 1:
        return 0.5 * (raw + raw.conj().T)
    if kind == 2:
        return 0.5 * (raw - raw.conj().T)
    if kind == 3:
        return expm_antihermitian(0.5 * (raw - raw.conj().T))
    q, _ = np.linalg.qr(raw)
    cols = q[:, : max(1, n // 2)]
    return cols @ cols.conj().T


def _complex_flags(mat, tol):
    # Independent complex-side reference that functor_flags checks
    # classify_operator against; calling classify_operator here would make
    # that check compare the function with itself.
    n = mat.shape[0]
    adj = mat.conj().T
    scale = max(1.0, np.linalg.norm(mat))
    return (
        np.linalg.norm(mat - adj) <= tol * scale,
        np.linalg.norm(mat + adj) <= tol * scale,
        np.linalg.norm(adj @ mat - np.eye(n)) <= tol * scale**2,
        np.linalg.norm(mat @ adj - adj @ mat) <= tol * scale**2,
        (np.linalg.norm(mat @ mat - mat) <= tol * scale**2
         and np.linalg.norm(mat - adj) <= tol * scale),
    )


def _flag_mismatch(lifted, mat) -> int:
    """1 if classify_operator's flags of lifted differ from the complex
    reference flags of mat, else 0."""
    got = classify_operator(lifted, tol=1e-9)
    return int((got.selfadjoint, got.antiselfadjoint, got.unitary,
                got.normal, got.projection) != _complex_flags(mat, 1e-9))


def _functor_trial(rng, n, index):
    mat = _structured_complex(rng, n, index % 5)
    if index % 2 == 0:
        mat = mat.real + 0.0j   # exercise the real route too
    frame = frame_complete(sampling.imaginary_unit(rng))
    lifted = QMatrix.from_complex(mat, frame)
    norm_gap = abs(operator_norm(lifted) - np.linalg.norm(mat, 2))
    adj_gap = (lifted.H - QMatrix.from_complex(mat.conj().T, frame)).frob()
    mismatches = _flag_mismatch(lifted, mat)
    # restriction route: lift through a planted splitting
    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, sampling.imaginary_unit(rng))
    lifted2 = extend_from_plus(mat, space)
    back = restrict_to_plus(lifted2, space)
    norm_gap = max_residual(
        norm_gap, abs(operator_norm(lifted2) - np.linalg.norm(mat, 2)))
    mismatches += _flag_mismatch(lifted2, back)
    return [
        Check("functor_norm", norm_gap, 1e-9),
        Check("functor_adjoint", adj_gap, 1e-9),
        Check("functor_flags", float(mismatches), 0.0),
    ]


prop_functor_ledger = _per_dim(_functor_trial)


# ---------------------------------------------------------------------------
# criterion 2: splitting


def _splitting_trial(rng, n, index):
    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, sampling.imaginary_unit(rng))
    if space.n != n or len(space.plus_basis()) != n:
        return [Check("split_dimension", 1.0, 0.0)]
    iq = space.frame.i.as_quaternion()
    jq = space.frame.j.as_quaternion()
    flipped = [b * jq for b in space.plus_basis()]
    jmap = max_residual(*(((j @ f) + f * iq).norm() for f in flipped))
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    back = restrict_to_plus(extend_from_plus(mat, space), space)
    roundtrip = np.linalg.norm(back - mat) / max(1.0, np.linalg.norm(mat))
    return [
        Check("split_dimension", 0.0, 0.0),
        Check("split_jmap_minus", jmap, 1e-10),
        Check("split_roundtrip", roundtrip, 1e-10),
    ]


prop_splitting = _per_dim(_splitting_trial)


# ---------------------------------------------------------------------------
# criterion 3: internal constructions


def _random_orthogonal(rng, n):
    skew = rng.standard_normal((n, n))
    skew = skew - skew.T
    return expm_antihermitian(0.3 * skew).real


def _left_unit_pair(n):
    """Left multiplication by e1 and by e2 on R^n = H^(n/4)."""
    eye = np.eye(n // 4)
    return np.kron(eye, QTENSOR[1].T), np.kron(eye, QTENSOR[2].T)


def prop_internal_constructions(seed_seq, dims, trials):
    rng = _rng(seed_seq)
    tol = 1e-10
    count = max(trials // 5, 10)
    dim_failures = 0
    worst_c_inner = 0.0
    worst_q_inner = 0.0
    for n in (4, 8):
        base = np.kron(np.eye(n // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
        for _ in range(count):
            w = _random_orthogonal(rng, n)
            j = w @ base @ w.T
            ops = [w @ (np.eye(n) * rng.uniform(0.5, 2.0)) @ w.T + 0.2 * j]
            report = internal_complexify(ops, j)
            if report.dim != n // 2:
                dim_failures += 1
                continue
            v = rng.standard_normal(n)
            u = rng.standard_normal(n)
            direct = report.inner(v, u)
            coords_v = np.array([report.inner(report.basis[:, m], v)
                                 for m in range(report.dim)])
            coords_u = np.array([report.inner(report.basis[:, m], u)
                                 for m in range(report.dim)])
            via_coords = np.vdot(coords_v, coords_u)
            worst_c_inner = max_residual(worst_c_inner,
                                         abs(direct - via_coords))

        i_base, j_base = _left_unit_pair(n)
        for _ in range(count):
            w = _random_orthogonal(rng, n)
            i_op, j_op = w @ i_base @ w.T, w @ j_base @ w.T
            report = internal_quaternionify([np.eye(n)], i_op, j_op)
            if report.dim != n // 4:
                dim_failures += 1
                continue
            v = rng.standard_normal(n)
            u = rng.standard_normal(n)
            direct = report.inner(v, u)
            coords_v = [report.inner(report.basis[:, m], v)
                        for m in range(report.dim)]
            coords_u = [report.inner(report.basis[:, m], u)
                        for m in range(report.dim)]
            via = Quaternion()
            for a, b in zip(coords_v, coords_u):
                via = via + a.conjugate() * b
            worst_q_inner = max_residual(worst_q_inner, abs(direct - via))
    return [
        Check("internal_dimension_ledger", float(dim_failures), 0.0),
        Check("internal_complexify_inner", worst_c_inner, tol),
        Check("internal_quaternionify_inner", worst_q_inner, tol),
    ]


# ---------------------------------------------------------------------------
# criterion 4: trichotomy


def _planted_verdict(gens, commutant_dim, kind):
    """classify_irreducible's verdict on a planted system, or None when the
    commutant dimension or the kind differs from the planted one."""
    algebra = StarAlgebra(gens)
    if algebra.commutant_basis().dim_r != commutant_dim:
        return None
    verdict = classify_irreducible(algebra)
    return verdict if verdict.kind == kind else None


def _trichotomy_trial(rng, n, index):
    failures = 0
    gap_j = gap_ijk = 0.0
    if _planted_verdict(sampling.plant_proper(rng, n), 1,
                        "ProperQuaternionic") is None:
        failures += 1
    gens, planted_j = sampling.plant_complex_induced(rng, n)
    verdict = _planted_verdict(gens, 2, "ComplexInduced")
    if verdict is None:
        failures += 1
    else:
        gap_j = min((verdict.J - planted_j).frob(),
                    (verdict.J + planted_j).frob())
    gens, _, _ = sampling.plant_real_induced(rng, n)
    verdict = _planted_verdict(gens, 4, "RealInduced")
    if verdict is None:
        failures += 1
    else:
        ops = [verdict.I, verdict.J, verdict.K]
        gap_ijk = max_residual(*((ops[a] @ ops[b] + ops[b] @ ops[a]).frob()
                                 for a, b in ((0, 1), (0, 2), (1, 2))))
    return [
        Check("trichotomy_dims", float(failures), 0.0),
        Check("trichotomy_recover_j", gap_j, 1e-7),
        Check("trichotomy_recover_ijk", gap_ijk, 1e-7),
    ]


prop_trichotomy = _per_dim(_trichotomy_trial)


# ---------------------------------------------------------------------------
# criterion 5: bicommutant


def _bicommutant_trial(rng, n, index):
    gap = member = 0.0
    for gens in (sampling.plant_proper(rng, n),
                 sampling.plant_complex_induced(rng, n)[0]):
        algebra = StarAlgebra(gens)
        bi = algebra.bicommutant_basis()
        gap = max_residual(gap, subspace_gap(bi, generated_algebra(algebra)))
        member = max_residual(member, *(bi.membership_residual(g)
                                        for g in algebra.generators))
    return [
        Check("bicommutant_vs_generated", gap, 1e-8),
        Check("bicommutant_membership", member, 1e-8),
    ]


prop_bicommutant = _per_dim(_bicommutant_trial, count=_sparse)


# ---------------------------------------------------------------------------
# criterion 6: reduction certificates


def _reduction_trial(rng, n, index):
    gens, _ = sampling.plant_complex_induced(rng, n)
    h = (gens[0] - gens[0].H) * 0.5
    evolution = [expm_antiselfadjoint(h * float(-t)) for t in (0.5, 1.0)]
    report = reduce_system(StarAlgebra(gens), evolution,
                           sampling.imaginary_unit(rng), seed=index)
    return [replace(check, name=f"reduce_{check.name}")
            for check in report.checks]


prop_reduction = _per_dim(_reduction_trial, count=_sparse)


# ---------------------------------------------------------------------------
# criterion 7: transition probabilities


def prop_adler_probabilities(seed_seq, dims, trials):
    rng = _rng(seed_seq)
    tol = 1e-12
    n = max(dims)
    v = sampling.unit_qvector(rng, n)
    frame = frame_complete(sampling.imaginary_unit(rng))
    flipped = v * frame.j.as_quaternion()
    p_c, p_s, p_h = transition_probs(v, flipped, frame)
    pair_residual = max_residual(abs(p_c), abs(p_s - 1.0), abs(p_h - 1.0))

    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, sampling.imaginary_unit(rng))
    worst_ps = 0.0
    worst_eq = 0.0
    count = max(trials, 100)
    for _ in range(count):
        coords = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        a = space.basis @ QVector.from_complex(coords[0], space.frame)
        b = space.basis @ QVector.from_complex(coords[1], space.frame)
        a = a * (1.0 / a.norm())
        b = b * (1.0 / b.norm())
        p_c, p_s, p_h = transition_probs(a, b, space.frame)
        worst_ps = max_residual(worst_ps, p_s)
        worst_eq = max_residual(worst_eq, abs(p_h - p_c))
    return [
        Check("adler_orthogonal_pair", pair_residual, tol),
        Check("adler_plus_space_symplectic", worst_ps, tol),
        Check("adler_plus_space_equality", worst_eq, tol),
    ]


# ---------------------------------------------------------------------------
# criterion 8: polar decomposition


def _polar_trial(rng, n, index):
    tol = 1e-9
    a = sampling.antiselfadjoint(rng, n)
    j, m = polar_antiselfadjoint(a)
    scale = max(1.0, a.frob())
    return [
        Check("polar_reconstruct", (j @ m - a).frob() / scale, tol),
        Check("polar_modulus_selfadjoint", (m - m.H).frob() / scale, tol),
        Check("polar_unit_antiselfadjoint", (j + j.H).frob(), tol),
        Check("polar_unit_square", (j @ j + QMatrix.identity(n)).frob(), tol),
        Check("polar_factors_commute", commutator_norm(j, m) / scale, tol),
    ]


prop_polar = _per_dim(_polar_trial)


# ---------------------------------------------------------------------------
# criterion 9: a left multiplication exactly on real-induced systems


def _left_multiplication_trial(rng, n, index):
    """The paper's closing argument on irreducible systems: a compatible
    left multiplication is an embedding of H into the commutant, so one
    exists iff the kind is RealInduced.  The classifier's (I, J) of a
    real-induced plant gives one that commutes with the generators and
    makes them real matrices on H_R; a complex-induced plant has a J but
    no anticommuting partner, so it has none."""
    misses = 0
    commutes = real = 0.0
    gens, _, _ = sampling.plant_real_induced(rng, n)
    verdict = _planted_verdict(gens, 4, "RealInduced")
    if verdict is None:
        misses += 1
    else:
        left = real_subspace_and_left_mult(verdict.I, verdict.J)
        m_a = left.mat(sampling.quaternion(rng))
        commutes = max_residual(*(commutator_residual(m_a, g) for g in gens))
        b, b_h = left.real_basis.data, left.real_basis.H.data
        real = max_residual(*(relative_residual(
            lambda x: matmul4(matmul4(b_h, x), b)[..., 1:], g.data)
            for g in gens))
    gens, _ = sampling.plant_complex_induced(rng, n)
    if _planted_verdict(gens, 2, "ComplexInduced") is None:
        misses += 1
    return [
        Check("left_mult_commutes", commutes, 1e-10),
        Check("left_mult_real_restriction", real, 1e-10),
        Check("left_mult_rule", float(misses), 0.0),
    ]


prop_left_multiplication = _per_dim(_left_multiplication_trial,
                                    count=lambda trials: 1)


# ---------------------------------------------------------------------------
# registry and runner

PROPERTIES = [
    ("quat_invariants", prop_quat_invariants),
    ("qlinalg_invariants", prop_qlinalg_invariants),
    ("functor_ledger", prop_functor_ledger),
    ("splitting", prop_splitting),
    ("internal_constructions", prop_internal_constructions),
    ("trichotomy", prop_trichotomy),
    ("bicommutant", prop_bicommutant),
    ("reduction_certificates", prop_reduction),
    ("adler_probabilities", prop_adler_probabilities),
    ("polar_decomposition", prop_polar),
    ("left_multiplication", prop_left_multiplication),
]


def run_verify(seed: int, dims=DEFAULT_DIMS,
               trials: int = 100) -> list[tuple[str, list[Check]]]:
    """Run every registered property in registry order.  A property that
    produces no checks for the requested dims reports one failing
    `no_checks` check."""
    dims = tuple(int(d) for d in dims)
    child_seeds = np.random.SeedSequence(seed).spawn(len(PROPERTIES))
    return [(name, func(child, dims, trials)
             or [Check("no_checks", 1.0, 0.0)])
            for (name, func), child in zip(PROPERTIES, child_seeds)]
