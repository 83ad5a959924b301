"""Dynamics of anti-selfadjoint generators and the component-space
comparison of transition probabilities.

The flow of an anti-selfadjoint H is f(t) = exp(-t H) v, the one
exponential `expm_antiselfadjoint(H * -t)` applied to v.
"""
from __future__ import annotations

from .errors import NormalizationError
from .qlinalg import QMatrix, QVector, expm_antiselfadjoint, inner
from .quat import Frame, STANDARD_FRAME, symplectic_split


def evolution_trace(h: QMatrix, v: QVector, times) -> dict:
    """Trajectory exp(-t H) v of the anti-selfadjoint H sampled at `times`,
    in the wire format {"t", "states", "norms"}."""
    states = [expm_antiselfadjoint(h * -float(t)) @ v for t in times]
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
