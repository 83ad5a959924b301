"""Dynamics of anti-selfadjoint Hamiltonians and the component-space
comparison of transition probabilities.

Conventions.  The flow is f(t) = exp(-t H) v for an anti-selfadjoint H.
Wave functions split against a left multiplication as f = F1 + j*F2
(left factor j), which is the mirror of the right-factor split used by
the functor layer; the two differ by a conjugation of the second
component.  The 2x2-block complex matrix built from the real components
of H is defined so that it generates the SAME flow as -H; its negative
is the bare block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NormalizationError, StructureError
from .functors import LeftMultiplication
from .qlinalg import (
    QMatrix,
    QVector,
    complex_embed,
    embed_vector,
    expm_antiselfadjoint,
    inner,
    is_unitary,
    operator_norm,
    polar_antiselfadjoint,
    unembed_vector,
)
from .quat import (
    Frame,
    Quaternion,
    STANDARD_FRAME,
    from_frame,
    symplectic_join,
    symplectic_split,
    to_frame,
)

ANTI_TOL = 1e-10
ASSEMBLY_TOL = 1e-9


@dataclass(frozen=True)
class Hamiltonian:
    """Anti-selfadjoint generator of a unitary one-parameter group."""

    mat: QMatrix
    frame: Frame = STANDARD_FRAME

    def __post_init__(self):
        res = (self.mat + self.mat.H).frob()
        if res > ANTI_TOL * max(1.0, self.mat.frob()):
            raise StructureError(
                f"Hamiltonian must be anti-selfadjoint (residual {res:.2e})")

    @property
    def n(self) -> int:
        return self.mat.n

    def polar_factors(self) -> tuple[QMatrix, QMatrix]:
        """Unitary anti-selfadjoint factor and modulus, H = J_H |H|."""
        return polar_antiselfadjoint(self.mat, self.frame)


def evolve(h: Hamiltonian, v: QVector, t: float) -> QVector:
    """f(t) = exp(-t H) v, computed through the complex embedding."""
    propagator = scipy.linalg.expm(-t * complex_embed(h.mat, h.frame))
    return unembed_vector(propagator @ embed_vector(v, h.frame), h.frame)


def evolution_operator(h: Hamiltonian, t: float) -> QMatrix:
    """exp(-t H) as a quaternionic matrix."""
    return expm_antiselfadjoint(h.mat * -t, h.frame)


def evolution_trace(h: Hamiltonian, v: QVector, times) -> dict:
    """Sampled trajectory in the wire format {"t", "states", "norms"}."""
    states = [evolve(h, v, float(t)) for t in times]
    return {
        "t": [float(t) for t in times],
        "states": [s.to_json() for s in states],
        "norms": [s.norm() for s in states],
    }


# ---------------------------------------------------------------------------
# symplectic components of wave functions


@dataclass(frozen=True)
class SymplecticWave:
    """Complex component pair of a wave function, f = F1 + j*F2."""

    f1: np.ndarray
    f2: np.ndarray


def _check_left_mult(left: LeftMultiplication, frame: Frame) -> None:
    if (np.linalg.norm(left.frame.i.direction - frame.i.direction) > 1e-12
            or np.linalg.norm(left.frame.j.direction - frame.j.direction) > 1e-12):
        raise StructureError("left multiplication frame does not match")


def standard_left_mult(n: int, frame: Frame = STANDARD_FRAME) -> LeftMultiplication:
    """Left multiplication whose real basis is the standard basis: the
    action is entrywise left multiplication by the scalar."""
    return LeftMultiplication(QMatrix.identity(n), frame)


def symplectic_components(v: QVector, frame: Frame,
                          left: LeftMultiplication) -> SymplecticWave:
    """Split v over the real basis of the left multiplication.

    With real component vectors f0..f3 of v (so v = f0 + M_i f1 + M_j f2
    + M_k f3), the wave components are F1 = f0 + i f1 and F2 = f2 - i f3.
    """
    _check_left_mult(left, frame)
    z1, z2 = symplectic_split((left.real_basis.H @ v).data, frame)
    return SymplecticWave(z1, z2.conj())


def wave_reconstruct(wave: SymplecticWave, frame: Frame,
                     left: LeftMultiplication) -> QVector:
    """Rebuild the vector as F1 + j*F2 through the left multiplication."""
    _check_left_mult(left, frame)
    coords = symplectic_join(wave.f1, np.conj(wave.f2), frame)
    return left.real_basis @ QVector(coords)


# ---------------------------------------------------------------------------
# the 2x2-block complex Hamiltonian


def assemble_hamiltonian(h0: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                         h3: np.ndarray,
                         frame: Frame = STANDARD_FRAME) -> QMatrix:
    """Quaternionic matrix with entries h0 + h1*i + h2*j + h3*k along the
    frame; raises unless the result is anti-selfadjoint."""
    parts = [np.asarray(h, dtype=float) for h in (h0, h1, h2, h3)]
    mat = QMatrix(from_frame(np.stack(parts, axis=-1), frame))
    res = (mat + mat.H).frob()
    if res > ASSEMBLY_TOL * max(1.0, mat.frob()):
        raise StructureError(
            f"assembled Hamiltonian is not anti-selfadjoint (residual {res:.2e})")
    return mat


def hamiltonian_components(mat: QMatrix, frame: Frame = STANDARD_FRAME
                           ) -> tuple[np.ndarray, ...]:
    """Real component matrices of a quaternionic matrix along the frame."""
    return tuple(np.moveaxis(to_frame(mat.data, frame), -1, 0))


def hamiltonian_block(h0: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                      h3: np.ndarray,
                      frame: Frame = STANDARD_FRAME) -> np.ndarray:
    """Complex block matrix propagating the component pair (F1, F2).

    The wave equation for f carries a minus sign, so the returned block
    generates the same flow as -H: exp(t * block) applied to (F1, F2)
    tracks exp(-t H) applied to f.
    """
    assemble_hamiltonian(h0, h1, h2, h3, frame)  # structural validation
    b1 = np.asarray(h0, dtype=float) + 1j * np.asarray(h1, dtype=float)
    b2 = np.asarray(h2, dtype=float) - 1j * np.asarray(h3, dtype=float)
    return -np.block([[b1, -b2.conj()], [b2, b1.conj()]])


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
        if abs(w.norm() - 1.0) > 1e-10:
            raise NormalizationError(f"vector has norm {w.norm()!r}")
    q = inner(v, u)
    z1, z2 = symplectic_split(q, frame)
    p_complex = abs(z1) ** 2
    p_symplectic = abs(z2) ** 2
    p_quaternionic = abs(q) ** 2
    return p_complex, p_symplectic, p_quaternionic


# ---------------------------------------------------------------------------
# quaternionic phases


def quaternionic_phase(samples: list[Quaternion], dt: float) -> list[Quaternion]:
    """Finite-difference phase generator h(t_k) = conj(w_k)(w_{k+1}-w_k)/dt.

    For an exact unit phase curve this is purely imaginary up to O(dt);
    the real part of each returned value is bounded by |step|^2 / (2 dt).
    """
    for w in samples:
        if abs(abs(w) - 1.0) > 1e-9:
            raise NormalizationError("phase samples must be unit quaternions")
    out = []
    for a, b in zip(samples, samples[1:]):
        step = b - a
        if abs(step) > 0.1:
            raise ValueError("consecutive phase samples too far apart to "
                             "resolve the derivative")
        out.append(a.conjugate() * step * (1.0 / dt))
    return out


# ---------------------------------------------------------------------------
# co-unitary transformations


@dataclass(frozen=True)
class CounitaryReport:
    """Co-unitary compatibility residuals and the induced left-action
    candidates for a family of unitaries.

    Every unitary U yields a co-unitary map v -> (Uv) * h^-1 for the inner
    automorphism of h, and the induced candidate left action is U itself;
    large central distances between candidates show the construction does
    not single out a left multiplication.
    """

    phase: Quaternion
    rmqq_residuals: list[float]
    candidates: list[QMatrix]
    distances: np.ndarray          # raw operator-norm distances
    central_distances: np.ndarray  # distances modulo the central sign

    @property
    def max_rmqq_residual(self) -> float:
        return max(self.rmqq_residuals) if self.rmqq_residuals else 0.0


def counitary_demo(hq: Quaternion, u_list: list[QMatrix], trials: int = 8,
                   seed: int = 0) -> CounitaryReport:
    """Verify the co-unitary identities and compare induced left actions.

    For phi(x) = h x h^-1 and each unitary U, the map U_phi(v) = (Uv)*h^-1
    satisfies U_phi(v*a) = U_phi(v)*phi(a) and <U_phi v, U_phi u> =
    phi(<v, u>); the candidates it induces are the U themselves, compared
    pairwise in operator norm, both raw and modulo the central sign.
    """
    if abs(abs(hq) - 1.0) > 1e-10:
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
            worst = max(worst, (lhs - rhs).norm())
            got = inner((u @ v) * h_inv, (u @ w) * h_inv)
            want = phi(inner(v, w))
            worst = max(worst, abs(got - want))
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
    return CounitaryReport(hq, residuals, list(u_list), distances, central)
