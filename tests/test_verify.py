"""Tests of the per-dimension trial driver of `verify`."""

import math

import numpy as np
import pytest

from qreduce import verify
from qreduce.report import Check


def _fake_trial(rng, n, index):
    if n == 1:
        return []
    return [Check("r", float(index), 1.0), Check("c", 1.0, 0.0)]


def test_per_dim_aggregates_max_and_counts():
    prop = verify._per_dim(_fake_trial)
    checks = prop(np.random.SeedSequence(0), (1, 3), 4)
    assert checks == [Check("r_n3", 3.0, 1.0), Check("c_n3", 4.0, 0.0)]


def test_per_dim_count_sets_trials_per_dimension():
    prop = verify._per_dim(_fake_trial, count=verify._sparse)
    assert prop(np.random.SeedSequence(0), (2,), 100) == [
        Check("r_n2", 4.0, 1.0), Check("c_n2", 5.0, 0.0)]
    counts = prop(np.random.SeedSequence(0), (2,), 1)[1]
    assert counts == Check("c_n2", 2.0, 0.0)


def test_per_dim_nan_residual_fails():
    def trial(rng, n, index):
        return [Check("r", math.nan if index == 1 else 0.0, 1.0)]

    (check,) = verify._per_dim(trial)(np.random.SeedSequence(0), (2,), 3)
    assert math.isnan(check.residual) and not check.passed


@pytest.mark.parametrize("name", ["functor_ledger", "splitting", "trichotomy",
                                  "bicommutant", "reduction_certificates",
                                  "polar_decomposition"])
def test_per_dim_properties_suffix_every_check(name):
    prop = dict(verify.PROPERTIES)[name]
    checks = prop(np.random.SeedSequence(3), (2, 3), 2)
    assert checks
    bases = {2: [], 3: []}
    for check in checks:
        base, _, n = check.name.rpartition("_n")
        assert n in ("2", "3"), check.name
        bases[int(n)].append(base)
    assert bases[2] == bases[3]
