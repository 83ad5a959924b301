"""Tests for evolution, polar factors and transition probabilities."""

import numpy as np
import pytest

from qreduce import sampling
from qreduce.dynamics import (
    Hamiltonian,
    evolve,
    transition_probs,
)
from qreduce.errors import NormalizationError, StructureError
from qreduce.functors import split_plus_minus
from qreduce.qlinalg import QMatrix, QVector, commutator_norm, expm_antiselfadjoint
from qreduce.quat import E1, E2, Quaternion, UNIT_E1


def test_hamiltonian_requires_antiselfadjoint():
    with pytest.raises(StructureError):
        Hamiltonian(QMatrix.identity(2))
    with pytest.raises(StructureError):
        Hamiltonian(QMatrix.identity(2) * 1e200)


def test_evolve_zero_hamiltonian():
    rng = np.random.default_rng(0)
    h = Hamiltonian(QMatrix.zeros(3))
    v = sampling.qvector(rng, 3)
    for t in (0.0, 0.7, -2.5):
        assert (evolve(h, v, t) - v).norm() <= 1e-12


def test_evolve_scalar_closed_form():
    h = Hamiltonian(QMatrix.diag([E1]))
    v = QVector(Quaternion(1.0).as_array()[None, :])
    for t in (0.3, 1.2, -0.8):
        got = evolve(h, v, t)
        want = Quaternion(np.cos(t)) - E1 * np.sin(t)
        assert abs(Quaternion.from_array(got.data[0]) - want) <= 1e-12


def test_evolve_unitarity_and_group_law():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        h = Hamiltonian(sampling.antiselfadjoint(rng, n))
        v = sampling.qvector(rng, n)
        s, t = rng.uniform(-10, 10, size=2)
        assert abs(evolve(h, v, t).norm() - v.norm()) <= 1e-9 * max(1.0, v.norm())
        two_step = evolve(h, evolve(h, v, s), t)
        one_step = evolve(h, v, s + t)
        assert (two_step - one_step).norm() <= 1e-9 * max(1.0, v.norm())


def test_evolution_operator_matches_vector_path():
    rng = np.random.default_rng(2)
    n = 3
    h = Hamiltonian(sampling.antiselfadjoint(rng, n))
    u = expm_antiselfadjoint(h.mat * -0.9)
    v = sampling.qvector(rng, n)
    assert ((u @ v) - evolve(h, v, 0.9)).norm() <= 1e-10


def test_polar_factors_commute():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = Hamiltonian(sampling.antiselfadjoint(rng, 3))
        j_factor, modulus = h.polar_factors()
        assert (j_factor @ modulus - h.mat).frob() <= 1e-9 * max(1.0, h.mat.frob())
        assert commutator_norm(j_factor, modulus) <= 1e-9 * max(1.0, h.mat.frob())


def test_transition_probs_identities():
    rng = np.random.default_rng(10)
    v = sampling.unit_qvector(rng, 4)
    p_c, p_s, p_h = transition_probs(v, v)
    assert p_c == pytest.approx(1.0, abs=1e-12)
    assert p_s == pytest.approx(0.0, abs=1e-12)
    assert p_h == pytest.approx(1.0, abs=1e-12)

    flipped = v * E2
    p_c, p_s, p_h = transition_probs(v, flipped)
    assert p_c == pytest.approx(0.0, abs=1e-12)
    assert p_s == pytest.approx(1.0, abs=1e-12)
    assert p_h == pytest.approx(1.0, abs=1e-12)

    for _ in range(200):
        u = sampling.unit_qvector(rng, 4)
        w = sampling.unit_qvector(rng, 4)
        p_c, p_s, p_h = transition_probs(u, w)
        assert abs(p_h - (p_c + p_s)) <= 1e-12

    with pytest.raises(NormalizationError):
        transition_probs(v * 2.0, v)
    with pytest.raises(NormalizationError):
        transition_probs(v * np.nan, v)


def test_transition_probs_agree_on_plus_space():
    rng = np.random.default_rng(11)
    n = 3
    j = sampling.anti_unit(rng, n)
    space = split_plus_minus(j, UNIT_E1)
    for _ in range(200):
        coords = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        v = space.basis @ QVector.from_complex(coords[0], space.frame)
        u = space.basis @ QVector.from_complex(coords[1], space.frame)
        v = v * (1.0 / v.norm())
        u = u * (1.0 / u.norm())
        p_c, p_s, p_h = transition_probs(v, u, space.frame)
        assert p_s <= 1e-12
        assert abs(p_h - p_c) <= 1e-12
