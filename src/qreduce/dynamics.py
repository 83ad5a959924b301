"""Dynamics of anti-selfadjoint Hamiltonians and the component-space
comparison of transition probabilities.

The flow is f(t) = exp(-t H) v for an anti-selfadjoint H, computed through
the complex embedding.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NormalizationError
from .qlinalg import (
    QMatrix,
    QVector,
    complex_embed,
    embed_vector,
    expm_antihermitian,
    inner,
    polar_antiselfadjoint,
    require_antiselfadjoint,
    unembed_vector,
)
from .quat import Frame, STANDARD_FRAME, symplectic_split


@dataclass(frozen=True)
class Hamiltonian:
    """Anti-selfadjoint generator of a unitary one-parameter group."""

    mat: QMatrix
    frame: Frame = STANDARD_FRAME

    def __post_init__(self):
        require_antiselfadjoint(self.mat, "Hamiltonian")

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
