"""Registered property suites driven by the CLI `verify` command and by the
acceptance tests.

Every property takes a SeedSequence (trial seeds derive from it, per
dimension where a property loops over dims, so a fixed master seed
reproduces the run bit for bit), the list of quaternionic
dimensions to exercise, a trial count and a tolerance scale; it returns a
list of named checks.  Residuals aggregate as maxima over trials, so a
passing check certifies every trial.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from . import sampling
from .algebra import (
    StarAlgebra,
    bicommutant,
    classify_irreducible,
    commutant,
    generated_algebra,
    reduce_system,
    subspace_gap,
)
from .dynamics import counitary_demo, transition_probs
from .functors import (
    extend_from_plus,
    extend_scalars,
    internal_complexify,
    internal_quaternionify,
    restrict_to_plus,
    split_plus_minus,
)
from .qlinalg import (
    QMatrix,
    QVector,
    classify_operator,
    commutator_norm,
    complex_embed,
    expm_antiselfadjoint,
    operator_norm,
    polar_antiselfadjoint,
)
from .quat import (
    QTENSOR,
    Quaternion,
    frame_complete,
    sphere_representative,
    symplectic_join,
    symplectic_split,
)
from .report import Check

DEFAULT_DIMS = (2, 3, 4)


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.default_rng(seed_seq)


def _dim_rng(seed_seq: np.random.SeedSequence, n: int) -> np.random.Generator:
    """Stream for dimension n: it depends on the property's seed and on n
    only, not on which other dims were requested or in what order."""
    return np.random.default_rng(np.random.SeedSequence(
        seed_seq.entropy, spawn_key=(*seed_seq.spawn_key, n)))


# ---------------------------------------------------------------------------
# module invariants


def prop_quat_invariants(seed_seq, dims, trials, tol_scale):
    rng = _rng(seed_seq)
    count = max(trials, 100)
    worst_norm = 0.0
    worst_split = 0.0
    worst_sphere = 0.0
    worst_frame = 0.0
    for _ in range(count):
        p = sampling.quaternion(rng)
        q = sampling.quaternion(rng)
        worst_norm = max(worst_norm,
                         abs(abs(p * q) - abs(p) * abs(q))
                         / max(abs(p) * abs(q), 1e-300))
        frame = frame_complete(sampling.imaginary_unit(rng))
        z1, z2 = symplectic_split(q, frame)
        worst_split = max(worst_split,
                          abs(symplectic_join(z1, z2, frame) - q))
        h = sampling.unit_quaternion(rng)
        unit = sampling.imaginary_unit(rng)
        moved = sphere_representative(h * q * h.conjugate(), unit)
        plain = sphere_representative(q, unit)
        worst_sphere = max(worst_sphere, abs(moved - plain))
        iq, jq = frame.i.as_quaternion(), frame.j.as_quaternion()
        worst_frame = max(worst_frame, abs(iq * jq + jq * iq))
    return [
        Check("quat_multiplicative_norm", worst_norm, 1e-12 * tol_scale),
        Check("quat_split_roundtrip", worst_split, 1e-14 * tol_scale),
        Check("quat_sphere_invariance", worst_sphere, 1e-12 * tol_scale),
        Check("quat_frame_anticommute", worst_frame, 1e-14 * tol_scale),
    ]


def prop_qlinalg_invariants(seed_seq, dims, trials, tol_scale):
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
        worst_rlin = max(worst_rlin,
                         gap / (1.0 + t.frob() * v.norm() * abs(a)))
        s = sampling.qmatrix(rng, n)
        frame = frame_complete(sampling.imaginary_unit(rng))
        ct, cs = complex_embed(t, frame), complex_embed(s, frame)
        hom = np.linalg.norm(complex_embed(t @ s, frame) - ct @ cs)
        worst_hom = max(worst_hom,
                        hom / max(1.0, np.linalg.norm(ct) * np.linalg.norm(cs)))
        adj = np.linalg.norm(complex_embed(t.H, frame) - ct.conj().T)
        worst_adj = max(worst_adj, adj / max(1.0, np.linalg.norm(ct)))
    return [
        Check("qlinalg_right_linearity", worst_rlin, 1e-11 * tol_scale),
        Check("qlinalg_embed_homomorphism", worst_hom, 1e-11 * tol_scale),
        Check("qlinalg_embed_adjoint", worst_adj, 1e-12 * tol_scale),
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
        return scipy.linalg.expm(0.5 * (raw - raw.conj().T))
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


def prop_functor_ledger(seed_seq, dims, trials, tol_scale):
    checks = []
    tol = 1e-9 * tol_scale
    for n in dims:
        rng = _dim_rng(seed_seq, n)
        worst_norm = 0.0
        worst_adjoint = 0.0
        flag_mismatches = 0
        for trial in range(trials):
            kind = trial % 5
            mat = _structured_complex(rng, n, kind)
            if trial % 2 == 0:
                mat = mat.real + 0.0j   # exercise the real route too
            frame = frame_complete(sampling.imaginary_unit(rng))
            lifted = extend_scalars(mat, "quaternion", frame)
            worst_norm = max(worst_norm,
                             abs(operator_norm(lifted) - np.linalg.norm(mat, 2)))
            adj_gap = (lifted.H - extend_scalars(mat.conj().T, "quaternion",
                                                 frame)).frob()
            worst_adjoint = max(worst_adjoint, adj_gap)
            got = classify_operator(lifted, tol=1e-9)
            want = _complex_flags(mat, 1e-9)
            if (got.selfadjoint, got.antiselfadjoint, got.unitary,
                    got.normal, got.projection) != want:
                flag_mismatches += 1
            # restriction route: lift through a planted splitting
            j = sampling.anti_unit(rng, n)
            space = split_plus_minus(j, sampling.imaginary_unit(rng))
            lifted2 = extend_from_plus(mat, space)
            back = restrict_to_plus(lifted2, space)
            worst_norm = max(worst_norm,
                             abs(operator_norm(lifted2) - np.linalg.norm(mat, 2)))
            got2 = classify_operator(lifted2, tol=1e-9)
            want2 = _complex_flags(back, 1e-9)
            if (got2.selfadjoint, got2.antiselfadjoint, got2.unitary,
                    got2.normal, got2.projection) != want2:
                flag_mismatches += 1
        checks.append(Check(f"functor_norm_n{n}", worst_norm, tol))
        checks.append(Check(f"functor_adjoint_n{n}", worst_adjoint, tol))
        checks.append(Check(f"functor_flags_n{n}", float(flag_mismatches), 0.5))
    return checks


# ---------------------------------------------------------------------------
# criterion 2: splitting


def prop_splitting(seed_seq, dims, trials, tol_scale):
    checks = []
    tol = 1e-10 * tol_scale
    for n in dims:
        rng = _dim_rng(seed_seq, n)
        dim_failures = 0
        worst_jmap = 0.0
        worst_roundtrip = 0.0
        for _ in range(trials):
            j = sampling.anti_unit(rng, n)
            unit = sampling.imaginary_unit(rng)
            space = split_plus_minus(j, unit)
            if space.n != n or len(space.plus_basis()) != n:
                dim_failures += 1
                continue
            iq = space.frame.i.as_quaternion()
            jq = space.frame.j.as_quaternion()
            for b in space.plus_basis():
                flipped = b * jq
                worst_jmap = max(worst_jmap,
                                 ((j @ flipped) + flipped * iq).norm())
            mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            back = restrict_to_plus(extend_from_plus(mat, space), space)
            worst_roundtrip = max(
                worst_roundtrip,
                np.linalg.norm(back - mat) / max(1.0, np.linalg.norm(mat)))
        checks.append(Check(f"split_dimension_n{n}", float(dim_failures), 0.5))
        checks.append(Check(f"split_jmap_minus_n{n}", worst_jmap, tol))
        checks.append(Check(f"split_roundtrip_n{n}", worst_roundtrip, tol))
    return checks


# ---------------------------------------------------------------------------
# criterion 3: internal constructions


def _random_orthogonal(rng, n):
    skew = rng.standard_normal((n, n))
    skew = skew - skew.T
    return scipy.linalg.expm(0.3 * skew)


def _left_unit_pair(n):
    """Left multiplication by e1 and by e2 on R^n = H^(n/4)."""
    eye = np.eye(n // 4)
    return np.kron(eye, QTENSOR[1].T), np.kron(eye, QTENSOR[2].T)


def prop_internal_constructions(seed_seq, dims, trials, tol_scale):
    rng = _rng(seed_seq)
    tol = 1e-10 * tol_scale
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
            worst_c_inner = max(worst_c_inner, abs(direct - via_coords))

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
            worst_q_inner = max(worst_q_inner, abs(direct - via))
    return [
        Check("internal_dimension_ledger", float(dim_failures), 0.5),
        Check("internal_complexify_inner", worst_c_inner, tol),
        Check("internal_quaternionify_inner", worst_q_inner, tol),
    ]


# ---------------------------------------------------------------------------
# criterion 4: trichotomy


def prop_trichotomy(seed_seq, dims, trials, tol_scale):
    checks = []
    tol = 1e-7 * tol_scale
    usable = [n for n in dims if n >= 2]
    for n in usable:
        rng = _dim_rng(seed_seq, n)
        dim_failures = 0
        worst_j = 0.0
        worst_ijk = 0.0
        for _ in range(trials):
            proper = StarAlgebra(sampling.plant_proper(rng, n))
            if commutant(proper).dim_r != 1:
                dim_failures += 1
            elif classify_irreducible(proper).kind != "ProperQuaternionic":
                dim_failures += 1

            gens, planted_j = sampling.plant_complex_induced(rng, n)
            algebra = StarAlgebra(gens)
            if commutant(algebra).dim_r != 2:
                dim_failures += 1
            else:
                verdict = classify_irreducible(algebra)
                if verdict.kind != "ComplexInduced":
                    dim_failures += 1
                else:
                    worst_j = max(worst_j,
                                  min((verdict.J - planted_j).frob(),
                                      (verdict.J + planted_j).frob()))

            gens, _, _ = sampling.plant_real_induced(rng, n)
            algebra = StarAlgebra(gens)
            if commutant(algebra).dim_r != 4:
                dim_failures += 1
            else:
                verdict = classify_irreducible(algebra)
                if verdict.kind != "RealInduced":
                    dim_failures += 1
                else:
                    ops = [verdict.I, verdict.J, verdict.K]
                    for a in range(3):
                        for b in range(a + 1, 3):
                            anti = (ops[a] @ ops[b] + ops[b] @ ops[a]).frob()
                            worst_ijk = max(worst_ijk, anti)
        checks.append(Check(f"trichotomy_dims_n{n}", float(dim_failures), 0.5))
        checks.append(Check(f"trichotomy_recover_j_n{n}", worst_j, tol))
        checks.append(Check(f"trichotomy_recover_ijk_n{n}", worst_ijk, tol))
    return checks


# ---------------------------------------------------------------------------
# criterion 5: bicommutant


def prop_bicommutant(seed_seq, dims, trials, tol_scale):
    checks = []
    tol = 1e-8 * tol_scale
    count = max(2, trials // 20)
    for n in dims:
        rng = _dim_rng(seed_seq, n)
        worst_gap = 0.0
        worst_member = 0.0
        for _ in range(count):
            for gens in (sampling.plant_proper(rng, n),
                         sampling.plant_complex_induced(rng, n)[0]):
                algebra = StarAlgebra(gens)
                bi = bicommutant(algebra)
                gen_span = generated_algebra(algebra)
                worst_gap = max(worst_gap, subspace_gap(bi, gen_span))
                for g in algebra.generators:
                    worst_member = max(worst_member, bi.membership_residual(g))
        checks.append(Check(f"bicommutant_vs_generated_n{n}", worst_gap, tol))
        checks.append(Check(f"bicommutant_membership_n{n}", worst_member, tol))
    return checks


# ---------------------------------------------------------------------------
# criterion 6: reduction certificates


def prop_reduction(seed_seq, dims, trials, tol_scale):
    checks = []
    count = max(2, trials // 20)
    for n in dims:
        rng = _dim_rng(seed_seq, n)
        worst: dict[str, Check] = {}
        for trial in range(count):
            gens, _ = sampling.plant_complex_induced(rng, n)
            algebra = StarAlgebra(gens)
            h = (gens[0] - gens[0].H) * 0.5
            evolution = [expm_antiselfadjoint(h * float(-t)) for t in (0.5, 1.0)]
            report = reduce_system(algebra, evolution,
                                   sampling.imaginary_unit(rng), seed=trial)
            for check in report.checks:
                prev = worst.get(check.name)
                if prev is None or check.residual > prev.residual:
                    worst[check.name] = check
        for name, check in worst.items():
            checks.append(Check(f"reduce_{name}_n{n}", check.residual,
                                check.tolerance).scaled(tol_scale))
    return checks


# ---------------------------------------------------------------------------
# criterion 7: transition probabilities


def prop_adler_probabilities(seed_seq, dims, trials, tol_scale):
    rng = _rng(seed_seq)
    tol = 1e-12 * tol_scale
    n = max(dims)
    v = sampling.unit_qvector(rng, n)
    frame = frame_complete(sampling.imaginary_unit(rng))
    flipped = v * frame.j.as_quaternion()
    p_c, p_s, p_h = transition_probs(v, flipped, frame)
    pair_residual = max(abs(p_c), abs(p_s - 1.0), abs(p_h - 1.0))

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
        worst_ps = max(worst_ps, p_s)
        worst_eq = max(worst_eq, abs(p_h - p_c))
    return [
        Check("adler_orthogonal_pair", pair_residual, tol),
        Check("adler_plus_space_symplectic", worst_ps, tol),
        Check("adler_plus_space_equality", worst_eq, tol),
    ]


# ---------------------------------------------------------------------------
# criterion 8: polar decomposition


def prop_polar(seed_seq, dims, trials, tol_scale):
    checks = []
    tol = 1e-9 * tol_scale
    for n in dims:
        rng = _dim_rng(seed_seq, n)
        worst = {"reconstruct": 0.0, "modulus_selfadjoint": 0.0,
                 "unit_antiselfadjoint": 0.0, "unit_square": 0.0,
                 "factors_commute": 0.0}
        ident = QMatrix.identity(n)
        for _ in range(trials):
            a = sampling.antiselfadjoint(rng, n)
            j, m = polar_antiselfadjoint(a)
            scale = max(1.0, a.frob())
            worst["reconstruct"] = max(worst["reconstruct"],
                                       (j @ m - a).frob() / scale)
            worst["modulus_selfadjoint"] = max(worst["modulus_selfadjoint"],
                                               (m - m.H).frob() / scale)
            worst["unit_antiselfadjoint"] = max(worst["unit_antiselfadjoint"],
                                                (j + j.H).frob())
            worst["unit_square"] = max(worst["unit_square"],
                                       (j @ j + ident).frob())
            worst["factors_commute"] = max(worst["factors_commute"],
                                           commutator_norm(j, m) / scale)
        for name, residual in worst.items():
            checks.append(Check(f"polar_{name}_n{n}", residual, tol))
    return checks


# ---------------------------------------------------------------------------
# criterion 9: co-unitary non-uniqueness


def prop_counitary(seed_seq, dims, trials, tol_scale):
    rng = _rng(seed_seq)
    n = max(dims)
    hq = sampling.unit_quaternion(rng)
    u1 = sampling.unitary(rng, n)
    u2 = sampling.unitary(rng, n)
    report = counitary_demo(hq, [QMatrix.identity(n), u1, -u1, u2],
                            trials=max(4, trials // 10), seed=7)
    separation = report.central_distances[1, 3]
    return [
        Check("counitary_rmqq", report.max_rmqq_residual, 1e-10 * tol_scale),
        Check("counitary_sign_degeneracy", report.central_distances[1, 2],
              1e-10 * tol_scale),
        Check("counitary_separation", max(0.0, 0.1 - separation), 0.0),
    ]


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
    ("counitary", prop_counitary),
]


def run_verify(seed: int, dims=DEFAULT_DIMS, trials: int = 100,
               tol_scale: float = 1.0) -> list[tuple[str, list[Check]]]:
    """Run every registered property in registry order.  A property that
    produces no checks for the requested dims reports one failing
    `no_checks` check."""
    dims = tuple(int(d) for d in dims)
    child_seeds = np.random.SeedSequence(seed).spawn(len(PROPERTIES))
    return [(name, func(child, dims, trials, tol_scale)
             or [Check("no_checks", 1.0, 0.5)])
            for (name, func), child in zip(PROPERTIES, child_seeds)]
