"""Tests for evolution, symplectic components, block propagation and the
co-unitary construction."""

import numpy as np
import pytest
import scipy.linalg

from qreduce import sampling
from qreduce.dynamics import (
    Hamiltonian,
    assemble_hamiltonian,
    counitary_demo,
    evolution_operator,
    evolve,
    hamiltonian_block,
    hamiltonian_components,
    quaternionic_phase,
    standard_left_mult,
    symplectic_components,
    transition_probs,
    wave_reconstruct,
)
from qreduce.errors import NormalizationError, StructureError
from qreduce.functors import real_subspace_and_left_mult, split_plus_minus
from qreduce.qlinalg import QMatrix, QVector, commutator_norm
from qreduce.quat import (
    E1,
    E2,
    Quaternion,
    STANDARD_FRAME,
    UNIT_E1,
    frame_complete,
)


def test_hamiltonian_requires_antiselfadjoint():
    with pytest.raises(StructureError):
        Hamiltonian(QMatrix.identity(2))


def test_evolve_zero_hamiltonian():
    rng = np.random.default_rng(0)
    h = Hamiltonian(QMatrix.zeros(3))
    v = sampling.qvector(rng, 3)
    for t in (0.0, 0.7, -2.5):
        assert (evolve(h, v, t) - v).norm() <= 1e-12


def test_evolve_scalar_closed_form():
    h = Hamiltonian(QMatrix.diag([E1]))
    v = QVector.from_quaternions([Quaternion(1.0)])
    for t in (0.3, 1.2, -0.8):
        got = evolve(h, v, t)
        want = Quaternion(np.cos(t)) - E1 * np.sin(t)
        assert abs(got.entry(0) - want) <= 1e-12


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
    u = evolution_operator(h, 0.9)
    v = sampling.qvector(rng, n)
    assert ((u @ v) - evolve(h, v, 0.9)).norm() <= 1e-10


def test_polar_factors_commute():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = Hamiltonian(sampling.antiselfadjoint(rng, 3))
        j_factor, modulus = h.polar_factors()
        assert (j_factor @ modulus - h.mat).frob() <= 1e-9 * max(1.0, h.mat.frob())
        assert commutator_norm(j_factor, modulus) <= 1e-9 * max(1.0, h.mat.frob())


def test_symplectic_components_scalar_example():
    left = standard_left_mult(1)
    v = QVector.from_quaternions([Quaternion(1, 2, 3, 4)])
    wave = symplectic_components(v, STANDARD_FRAME, left)
    assert wave.f1[0] == pytest.approx(1 + 2j)
    assert wave.f2[0] == pytest.approx(3 - 4j)
    back = wave_reconstruct(wave, STANDARD_FRAME, left)
    assert (back - v).norm() <= 1e-13


def test_symplectic_components_pure_complex_vector():
    left = standard_left_mult(3)
    coords = np.array([1 + 2j, -0.5j, 3.0])
    v = QVector.from_complex(coords, STANDARD_FRAME)
    wave = symplectic_components(v, STANDARD_FRAME, left)
    np.testing.assert_allclose(wave.f1, coords, atol=1e-13)
    np.testing.assert_allclose(wave.f2, 0, atol=1e-13)


def test_symplectic_components_roundtrip_general_left_mult():
    rng = np.random.default_rng(4)
    n = 2
    frame = frame_complete(sampling.imaginary_unit(rng))
    w = sampling.unitary(rng, n)
    i_op = w @ QMatrix.scalar(n, frame.i.as_quaternion()) @ w.H
    j_op = w @ QMatrix.scalar(n, frame.j.as_quaternion()) @ w.H
    left = real_subspace_and_left_mult(i_op, j_op, frame)
    for _ in range(30):
        v = sampling.qvector(rng, n)
        wave = symplectic_components(v, frame, left)
        assert (wave_reconstruct(wave, frame, left) - v).norm() <= 1e-11


def test_symplectic_components_frame_mismatch():
    left = standard_left_mult(2)
    other = frame_complete(sampling.imaginary_unit(np.random.default_rng(5)))
    with pytest.raises(StructureError):
        symplectic_components(QVector.zeros(2), other, left)


def random_component_quadruple(rng, n):
    h0 = rng.standard_normal((n, n))
    h0 = h0 - h0.T
    rest = []
    for _ in range(3):
        h = rng.standard_normal((n, n))
        rest.append(h + h.T)
    return (h0, *rest)


def test_assemble_and_disassemble_components():
    rng = np.random.default_rng(6)
    n = 3
    parts = random_component_quadruple(rng, n)
    mat = assemble_hamiltonian(*parts)
    back = hamiltonian_components(mat)
    for got, want in zip(back, parts):
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_assemble_rejects_non_antiselfadjoint():
    n = 2
    with pytest.raises(StructureError):
        assemble_hamiltonian(np.eye(n), np.zeros((n, n)), np.zeros((n, n)),
                             np.zeros((n, n)))


def test_block_real_case_is_diagonal():
    rng = np.random.default_rng(7)
    n = 3
    h0 = rng.standard_normal((n, n))
    h0 = h0 - h0.T
    zeros = np.zeros((n, n))
    block = -hamiltonian_block(h0, zeros, zeros, zeros)
    np.testing.assert_allclose(block[:n, :n], h0, atol=1e-14)
    np.testing.assert_allclose(block[n:, n:], h0, atol=1e-14)
    np.testing.assert_allclose(block[:n, n:], 0, atol=1e-14)
    np.testing.assert_allclose(block[n:, :n], 0, atol=1e-14)


def test_block_antihermitian_iff_assembled_antiselfadjoint():
    rng = np.random.default_rng(8)
    n = 2
    parts = random_component_quadruple(rng, n)
    block = hamiltonian_block(*parts)
    assert np.linalg.norm(block + block.conj().T) <= 1e-10 * max(
        1.0, np.linalg.norm(block))


def test_block_propagation_matches_evolution():
    rng = np.random.default_rng(9)
    n = 3
    parts = random_component_quadruple(rng, n)
    mat = assemble_hamiltonian(*parts)
    h = Hamiltonian(mat)
    left = standard_left_mult(n)
    block = hamiltonian_block(*parts)
    for _ in range(10):
        v = sampling.qvector(rng, n)
        t = float(rng.uniform(-2, 2))
        wave0 = symplectic_components(v, STANDARD_FRAME, left)
        stacked = np.concatenate([wave0.f1, wave0.f2])
        propagated = scipy.linalg.expm(t * block) @ stacked
        evolved = evolve(h, v, t)
        wave_t = symplectic_components(evolved, STANDARD_FRAME, left)
        got = np.concatenate([wave_t.f1, wave_t.f2])
        assert np.linalg.norm(got - propagated) <= 1e-8 * max(1.0, v.norm())


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


def test_quaternionic_phase_constant_and_closed_forms():
    dt = 1e-3
    const = [Quaternion(1.0)] * 10
    for h in quaternionic_phase(const, dt):
        assert abs(h) <= 1e-12

    ts = np.arange(50) * dt
    for unit in (E1, E2):
        samples = [Quaternion(np.cos(t)) + unit * np.sin(t) for t in ts]
        phases = quaternionic_phase(samples, dt)
        for h in phases:
            assert abs(h - unit) <= 2 * dt
            assert abs(h.w) <= 5 * dt


def test_quaternionic_phase_guards():
    with pytest.raises(NormalizationError):
        quaternionic_phase([Quaternion(2.0), Quaternion(2.0)], 0.1)
    far = [Quaternion(1.0), E1]
    with pytest.raises(ValueError):
        quaternionic_phase(far, 0.1)


def test_counitary_identity_candidate():
    rng = np.random.default_rng(12)
    hq = sampling.unit_quaternion(rng)
    report = counitary_demo(hq, [QMatrix.identity(2)])
    assert report.max_rmqq_residual <= 1e-10
    assert (report.candidates[0] - QMatrix.identity(2)).frob() == 0.0


def test_counitary_sign_pair_coincides_centrally():
    rng = np.random.default_rng(13)
    u = sampling.unitary(rng, 2)
    report = counitary_demo(sampling.unit_quaternion(rng), [u, -u])
    assert report.max_rmqq_residual <= 1e-10
    assert report.central_distances[0, 1] <= 1e-12
    assert report.distances[0, 1] == pytest.approx(2.0, abs=1e-9)


def test_counitary_independent_unitaries_disagree():
    rng = np.random.default_rng(14)
    u1, u2 = sampling.unitary(rng, 3), sampling.unitary(rng, 3)
    report = counitary_demo(sampling.unit_quaternion(rng), [u1, u2])
    assert report.max_rmqq_residual <= 1e-10
    assert report.central_distances[0, 1] >= 0.1


def test_counitary_guards():
    rng = np.random.default_rng(15)
    with pytest.raises(NormalizationError):
        counitary_demo(Quaternion(2.0), [QMatrix.identity(2)])
    with pytest.raises(StructureError):
        counitary_demo(sampling.unit_quaternion(rng), [sampling.qmatrix(rng, 2)])
