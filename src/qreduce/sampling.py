"""Seeded random instances: quaternions, vectors, operators, structures.

Every routine takes an explicit numpy Generator so that callers control
reproducibility end to end.
"""
from __future__ import annotations

import numpy as np

from .qlinalg import QMatrix, QVector, expm_antiselfadjoint
from .quat import ImaginaryUnit, Quaternion


def quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion.from_array(rng.standard_normal(4))


def unit_quaternion(rng: np.random.Generator) -> Quaternion:
    q = quaternion(rng)
    while abs(q) < 1e-8:
        q = quaternion(rng)
    return q * (1.0 / abs(q))


def imaginary_unit(rng: np.random.Generator) -> ImaginaryUnit:
    v = rng.standard_normal(3)
    while np.linalg.norm(v) < 1e-8:
        v = rng.standard_normal(3)
    return ImaginaryUnit.from_vector(v)


def qvector(rng: np.random.Generator, n: int) -> QVector:
    return QVector(rng.standard_normal((n, 4)))


def unit_qvector(rng: np.random.Generator, n: int) -> QVector:
    v = qvector(rng, n)
    return v * (1.0 / v.norm())


def qmatrix(rng: np.random.Generator, n: int) -> QMatrix:
    return QMatrix(rng.standard_normal((n, n, 4)))


def selfadjoint(rng: np.random.Generator, n: int) -> QMatrix:
    t = qmatrix(rng, n)
    return (t + t.H) * 0.5


def antiselfadjoint(rng: np.random.Generator, n: int) -> QMatrix:
    t = qmatrix(rng, n)
    return (t - t.H) * 0.5


def unitary(rng: np.random.Generator, n: int) -> QMatrix:
    """Haar-ish unitary as the exponential of a random anti-selfadjoint."""
    return expm_antiselfadjoint(antiselfadjoint(rng, n))


def anti_unit(rng: np.random.Generator, n: int) -> QMatrix:
    """Random unitary anti-selfadjoint J with J^2 = -I: a conjugated diagonal
    of imaginary units."""
    units = [imaginary_unit(rng).as_quaternion() for _ in range(n)]
    w = unitary(rng, n)
    return w @ QMatrix.diag(units) @ w.H


# ---------------------------------------------------------------------------
# planted algebras for the trichotomy


def plant_proper(rng: np.random.Generator, n: int) -> list[QMatrix]:
    """Generators whose algebra is generically all bounded operators."""
    return [qmatrix(rng, n), qmatrix(rng, n)]


def plant_complex_induced(rng: np.random.Generator, n: int
                          ) -> tuple[list[QMatrix], QMatrix]:
    """Extensions of generic complex matrices along a hidden J; returns the
    generators together with the planted J."""
    from .functors import extend_from_plus, split_plus_minus

    unit = imaginary_unit(rng)
    w = unitary(rng, n)
    j = w @ QMatrix.scalar(n, unit.as_quaternion()) @ w.H
    space = split_plus_minus(j, unit)
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2)]
    return [QMatrix(g) for g in extend_from_plus(mats, space)], j


def plant_real_induced(rng: np.random.Generator, n: int
                       ) -> tuple[list[QMatrix], QMatrix, QMatrix]:
    """Conjugated generic real matrices; returns the generators together
    with the planted pair (I, J) of the hidden left multiplication."""
    from .quat import E1, E2

    w = unitary(rng, n)
    gens = [w @ QMatrix.from_real(rng.standard_normal((n, n))) @ w.H
            for _ in range(2)]
    i_op = w @ QMatrix.scalar(n, E1) @ w.H
    j_op = w @ QMatrix.scalar(n, E2) @ w.H
    return gens, i_op, j_op
