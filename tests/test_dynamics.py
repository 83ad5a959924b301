"""Tests for the flow of anti-selfadjoint generators and transition
probabilities."""

import numpy as np
import pytest

from qreduce import sampling
from qreduce.dynamics import evolution_trace, transition_probs
from qreduce.errors import NormalizationError, StructureError
from qreduce.functors import split_plus_minus
from qreduce.qlinalg import QMatrix, QVector, expm_antiselfadjoint
from qreduce.quat import E1, E2, Quaternion, UNIT_E1


def _flow(h, v, t):
    return expm_antiselfadjoint(h * -t) @ v


def test_hamiltonian_requires_antiselfadjoint():
    v = QVector(np.ones((2, 4)))
    with pytest.raises(StructureError):
        evolution_trace(QMatrix.identity(2), v, [0.5])
    with pytest.raises(StructureError):
        evolution_trace(QMatrix.identity(2) * 1e200, v, [0.5])


def test_evolve_zero_hamiltonian():
    rng = np.random.default_rng(0)
    v = sampling.qvector(rng, 3)
    trace = evolution_trace(QMatrix.zeros(3), v, (0.0, 0.7, -2.5))
    assert trace["t"] == [0.0, 0.7, -2.5]
    for state in trace["states"]:
        assert (QVector.from_json(state) - v).norm() <= 1e-12


def test_evolve_scalar_closed_form():
    h = QMatrix.diag([E1])
    v = QVector(Quaternion(1.0).as_array()[None, :])
    for t in (0.3, 1.2, -0.8):
        got = _flow(h, v, t)
        want = Quaternion(np.cos(t)) - E1 * np.sin(t)
        assert abs(Quaternion.from_array(got.data[0]) - want) <= 1e-12


def test_evolve_unitarity_and_group_law():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        h = sampling.antiselfadjoint(rng, n)
        v = sampling.qvector(rng, n)
        s, t = rng.uniform(-10, 10, size=2)
        assert abs(_flow(h, v, t).norm() - v.norm()) <= 1e-9 * max(1.0, v.norm())
        two_step = _flow(h, _flow(h, v, s), t)
        one_step = _flow(h, v, s + t)
        assert (two_step - one_step).norm() <= 1e-9 * max(1.0, v.norm())


def test_evolution_operator_matches_vector_path():
    """The trace samples exp(-t H) v, and its norms are the states'."""
    rng = np.random.default_rng(2)
    n = 3
    h = sampling.antiselfadjoint(rng, n)
    v = sampling.qvector(rng, n)
    trace = evolution_trace(h, v, [0.9, -0.4])
    for t, state, norm in zip(trace["t"], trace["states"], trace["norms"]):
        u = expm_antiselfadjoint(h * -t)
        assert ((u @ v) - QVector.from_json(state)).norm() <= 1e-10
        assert norm == QVector.from_json(state).norm()


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
