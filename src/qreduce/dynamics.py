"""Dynamics of anti-selfadjoint Hamiltonians, the component-space
comparison of transition probabilities and co-unitary transformations.

The flow is f(t) = exp(-t H) v for an anti-selfadjoint H, computed through
the complex embedding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, StructureError
from .qlinalg import (
    QMatrix,
    QVector,
    complex_embed,
    embed_vector,
    expm_antihermitian,
    inner,
    is_unitary,
    operator_norm,
    polar_antiselfadjoint,
    relative_residual,
    unembed_vector,
)
from .quat import Frame, Quaternion, STANDARD_FRAME, symplectic_split
from .report import max_residual

ANTI_TOL = 1e-10


@dataclass(frozen=True)
class Hamiltonian:
    """Anti-selfadjoint generator of a unitary one-parameter group."""

    mat: QMatrix
    frame: Frame = STANDARD_FRAME

    def __post_init__(self):
        res = relative_residual(lambda h: h + h.H, self.mat)
        if not res <= ANTI_TOL:
            raise StructureError(f"Hamiltonian must be anti-selfadjoint "
                                 f"(relative residual {res:.2e})")

    @property
    def n(self) -> int:
        return self.mat.n

    def polar_factors(self) -> tuple[QMatrix, QMatrix]:
        """Unitary anti-selfadjoint factor and modulus, H = J_H |H|."""
        return polar_antiselfadjoint(self.mat, self.frame)


def evolve(h: Hamiltonian, v: QVector, t: float) -> QVector:
    """f(t) = exp(-t H) v, computed through the complex embedding."""
    propagator = expm_antihermitian(-t * complex_embed(h.mat, h.frame))
    return unembed_vector(propagator @ embed_vector(v, h.frame), h.frame)


def evolution_trace(h: Hamiltonian, v: QVector, times) -> dict:
    """Sampled trajectory in the wire format {"t", "states", "norms"}."""
    states = [evolve(h, v, float(t)) for t in times]
    return {
        "t": [float(t) for t in times],
        "states": [s.to_json() for s in states],
        "norms": [s.norm() for s in states],
    }


# ---------------------------------------------------------------------------
# transition probabilities


def transition_probs(v: QVector, u: QVector,
                     frame: Frame = STANDARD_FRAME) -> tuple[float, float, float]:
    """Complex, symplectic and quaternionic transition probabilities.

    pH = |<v,u>|^2 decomposes exactly as pC + pS; on a component space the
    symplectic part vanishes, which is how the complex and quaternionic
    statistics coincide there.
    """
    for w in (v, u):
        if not abs(w.norm() - 1.0) <= 1e-10:
            raise NormalizationError(f"vector has norm {w.norm()!r}")
    q = inner(v, u)
    z1, z2 = symplectic_split(q, frame)
    p_complex = abs(z1) ** 2
    p_symplectic = abs(z2) ** 2
    p_quaternionic = abs(q) ** 2
    return p_complex, p_symplectic, p_quaternionic


# ---------------------------------------------------------------------------
# co-unitary transformations


@dataclass(frozen=True)
class CounitaryReport:
    """Co-unitary compatibility residuals and the distances between the
    induced left-action candidates for a family of unitaries.

    Every unitary U yields a co-unitary map v -> (Uv) * h^-1 for the inner
    automorphism of h, and the induced candidate left action is U itself;
    large central distances between candidates show the construction does
    not single out a left multiplication.
    """

    rmqq_residuals: list[float]
    distances: np.ndarray          # raw operator-norm distances
    central_distances: np.ndarray  # distances modulo the central sign

    @property
    def max_rmqq_residual(self) -> float:
        return max_residual(*self.rmqq_residuals)


def counitary_demo(hq: Quaternion, u_list: list[QMatrix], trials: int = 8,
                   seed: int = 0) -> CounitaryReport:
    """Verify the co-unitary identities and compare induced left actions.

    For phi(x) = h x h^-1 and each unitary U, the map U_phi(v) = (Uv)*h^-1
    satisfies U_phi(v*a) = U_phi(v)*phi(a) and <U_phi v, U_phi u> =
    phi(<v, u>); the candidates it induces are the U themselves, compared
    pairwise in operator norm, both raw and modulo the central sign.
    """
    if not abs(abs(hq) - 1.0) <= 1e-10:
        raise NormalizationError("automorphism phase must be a unit quaternion")
    for u in u_list:
        if not is_unitary(u):
            raise StructureError("co-unitary construction needs unitaries")
    h_inv = hq.conjugate()

    def phi(a: Quaternion) -> Quaternion:
        return hq * a * h_inv

    rng = np.random.default_rng(seed)
    residuals = []
    for u in u_list:
        worst = 0.0
        n = u.n
        for _ in range(trials):
            v = QVector(rng.standard_normal((n, 4)))
            w = QVector(rng.standard_normal((n, 4)))
            a = Quaternion.from_array(rng.standard_normal(4))
            lhs = (u @ (v * a)) * h_inv
            rhs = ((u @ v) * h_inv) * phi(a)
            worst = max_residual(worst, (lhs - rhs).norm())
            got = inner((u @ v) * h_inv, (u @ w) * h_inv)
            want = phi(inner(v, w))
            worst = max_residual(worst, abs(got - want))
        residuals.append(worst)

    m = len(u_list)
    distances = np.zeros((m, m))
    central = np.zeros((m, m))
    for a_idx in range(m):
        for b_idx in range(a_idx + 1, m):
            diff = operator_norm(u_list[a_idx] - u_list[b_idx])
            summed = operator_norm(u_list[a_idx] + u_list[b_idx])
            distances[a_idx, b_idx] = distances[b_idx, a_idx] = diff
            central[a_idx, b_idx] = central[b_idx, a_idx] = min(diff, summed)
    return CounitaryReport(residuals, distances, central)
