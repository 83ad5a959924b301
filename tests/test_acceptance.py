"""Acceptance suite: one test per criterion, each pinned to a fixed
scale, tolerance and runtime budget, printing one pass/fail line each.

All criteria run through the registered property suites in
qreduce.verify with a fixed master seed, so `qreduce verify` exercises
exactly the same code paths.
"""

import time

import numpy as np

from qreduce import verify

SEED = 20240817


def run_criterion(label, func, dims, trials, budget_s):
    seq = np.random.SeedSequence(SEED)
    start = time.perf_counter()
    checks = func(seq, dims, trials)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks)
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {label}: {len(checks)} checks, {elapsed:.2f}s "
          f"(budget {budget_s}s)")
    for c in checks:
        if not c.passed:
            print(f"    FAILED {c.name}: residual={c.residual:.3e} "
                  f"tol={c.tolerance:.1e}")
    assert ok, f"{label}: failed checks " + ", ".join(
        c.name for c in checks if not c.passed)
    assert elapsed < budget_s, f"{label}: {elapsed:.1f}s over budget {budget_s}s"
    return checks


def test_criterion_1_functor_ledger():
    """Extension and restriction preserve norm, adjoint and the five
    structure flags at 1e-9, 200 operators per dimension 2..4."""
    run_criterion("criterion 1: functor ledger", verify.prop_functor_ledger,
                  (2, 3, 4), 200, budget_s=10.0)


def test_criterion_2_splitting():
    """100 random (J, i) splittings per dimension: complex dimension n,
    j-map lands in the minus space (1e-10), restrict/extend round-trip
    (1e-10)."""
    run_criterion("criterion 2: splitting", verify.prop_splitting,
                  (2, 3, 4), 100, budget_s=5.0)


def test_criterion_3_internal_constructions():
    """Internal complexification halves and internal quaternionification
    quarters the dimension (n = 4, 8); inner products match the defining
    formulas at 1e-10."""
    run_criterion("criterion 3: internal constructions",
                  verify.prop_internal_constructions, (2, 3, 4), 100,
                  budget_s=5.0)


def test_criterion_4_trichotomy():
    """50 plant-and-recover trials per branch and dimension: commutant
    dimensions exactly {1, 2, 4}, J recovered up to sign at 1e-7, the
    recovered triple anticommutes at 1e-7."""
    run_criterion("criterion 4: trichotomy", verify.prop_trichotomy,
                  (2, 3, 4), 50, budget_s=60.0)


def test_criterion_5_bicommutant():
    """Bicommutant coincides with the generated algebra as a real
    subspace; mutual membership residuals at 1e-8."""
    run_criterion("criterion 5: bicommutant", verify.prop_bicommutant,
                  (2, 3, 4), 100, budget_s=20.0)


def test_criterion_6_reduction_certificates():
    """All reduction certificates pass on planted complex-induced systems
    (n = 2, 4) at 1e-8, including plus-space invariance of the evolution."""
    checks = run_criterion("criterion 6: reduction certificates",
                           verify.prop_reduction, (2, 4), 100, budget_s=10.0)
    names = " ".join(c.name for c in checks)
    for marker in ("projection_extension", "projection_rank_match",
                   "ray_representative", "evolution_plus_invariance"):
        assert marker in names


def test_criterion_7_adler_probabilities():
    """(v, v*j) scores (0, 1, 1) at 1e-12; on the plus space the
    symplectic probability vanishes for 1000 random pairs at 1e-12."""
    run_criterion("criterion 7: transition probabilities",
                  verify.prop_adler_probabilities, (2, 3, 4), 1000,
                  budget_s=2.0)


def test_criterion_8_polar_decomposition():
    """100 random anti-selfadjoint operators per dimension factor as
    J |A| with all five postcondition identities at 1e-9."""
    run_criterion("criterion 8: polar decomposition", verify.prop_polar,
                  (2, 3, 4), 100, budget_s=5.0)


def test_criterion_9_left_multiplication():
    """A compatible left multiplication exists exactly on real-induced
    systems: the classifier's (I, J) of a real-induced plant gives one that
    commutes with the generators and restricts them to real matrices at
    1e-10, and a complex-induced plant has no I."""
    run_criterion("criterion 9: left multiplication",
                  verify.prop_left_multiplication, (2, 3, 4), 100,
                  budget_s=2.0)


def test_full_verify_is_deterministic_and_green():
    """The CLI-facing runner reproduces itself bit for bit and passes."""
    first = verify.run_verify(SEED, (2, 3), trials=25)
    second = verify.run_verify(SEED, (2, 3), trials=25)
    flat1 = [(n, c.name, c.residual) for n, cs in first for c in cs]
    flat2 = [(n, c.name, c.residual) for n, cs in second for c in cs]
    assert flat1 == flat2
    assert all(c.passed for _, cs in first for c in cs)
