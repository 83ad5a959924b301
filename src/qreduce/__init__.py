"""Finite-dimensional quaternionic linear algebra and its reduction to
complex component systems.

The package is organized in layers: scalar quaternions and frames
(`quat`), vectors and right-linear matrices with their complex embedding
(`qlinalg`), scalar extension/restriction functors (`functors`),
operator *-algebras with commutant classification (`algebra`),
Hamiltonian dynamics and transition probabilities (`dynamics`), and a
CLI (`cli`) driving the registered verification suites (`verify`).
"""

__version__ = "0.1.0"

from .quat import (  # noqa: F401
    E1,
    E2,
    E3,
    Frame,
    ImaginaryUnit,
    ONE,
    Quaternion,
    STANDARD_FRAME,
    UNIT_E1,
    UNIT_E2,
    UNIT_E3,
    frame_complete,
    from_frame,
    sphere_representative,
    symplectic_join,
    symplectic_split,
    to_frame,
)
from .qlinalg import (  # noqa: F401
    QMatrix,
    QVector,
    adjoint,
    classify_operator,
    complex_embed,
    complex_unembed,
    inner,
    operator_norm,
    outer,
    polar_antiselfadjoint,
    s_eigenspheres,
)
from .functors import (  # noqa: F401
    Conjugation,
    LeftMultiplication,
    SplitSpace,
    components,
    conjugation_from_basis,
    extend_from_plus,
    extend_scalars,
    internal_complexify,
    internal_quaternionify,
    real_subspace_and_left_mult,
    restrict_to_plus,
    split_plus_minus,
)
from .algebra import (  # noqa: F401
    Classification,
    CommutantBasis,
    StarAlgebra,
    StateFunctional,
    bicommutant,
    center,
    classify_irreducible,
    commutant,
    induce_symmetry,
    is_irreducible,
    lueders_update,
    reduce_system,
    same_symmetry,
)
from .dynamics import (  # noqa: F401
    Hamiltonian,
    SymplecticWave,
    counitary_demo,
    evolve,
    hamiltonian_block,
    quaternionic_phase,
    symplectic_components,
    transition_probs,
)
