"""Finite-dimensional quaternionic linear algebra and its reduction to
complex component systems.

The package is one pipeline: scalar quaternions and frames (`quat`) feed
right-linear matrices and their complex embedding (`qlinalg`); the
commutant of an operator *-algebra, a real-linear nullspace, gives the
R/C/H verdict (`algebra`); the H+ splitting and restriction (`functors`)
reduce a complex-induced system to its component space, and a
real-induced one carries a left multiplication built from its (I, J).
The flow of an anti-selfadjoint generator and transition probabilities
(`dynamics`) back the `demo` command and a `verify` property; the CLI
(`cli`) drives the registered verification suites (`verify`).
"""

__version__ = "0.1.0"

from .quat import (  # noqa: F401
    E1,
    E2,
    Frame,
    ImaginaryUnit,
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
    classify_operator,
    complex_embed,
    complex_unembed,
    inner,
    operator_norm,
    polar_antiselfadjoint,
)
from .functors import (  # noqa: F401
    LeftMultiplication,
    SplitSpace,
    extend_from_plus,
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
    center,
    classify_irreducible,
    is_irreducible,
    reduce_system,
)
from .dynamics import transition_probs  # noqa: F401
