"""Exact fixed-point invariants of n-valued maps on tori and circles.

The package models an n-valued self-map of T^q by its affine lift-factor
system, derives the deck homomorphism into (Z^q)^n x| Sigma_n, and
computes Reidemeister numbers, fixed point classes with indices, and
Nielsen numbers in exact arithmetic.  A brute-force union-find oracle
certifies the engine on finite windows, and a token-sliding planner
witnesses the junction rearrangement argument on graphs.
"""

from .intlinalg import (
    INFINITE,
    InfiniteIndexError,
    Sublattice,
    coset_representatives,
    hermite_normal_form,
    is_infinite,
    lattice_contains,
    lattice_from_generators,
    lattice_index,
)
from .semidirect import (
    DimensionMismatchError,
    Permutation,
    SemidirectElement,
)
from .liftsystems import (
    AffineLiftFactor,
    AmbiguousLiftError,
    CollisionError,
    LiftSystem,
    LiftSystemError,
    NotCommutingError,
    NotEquivariantError,
    PsiData,
    RowsNotCongruentError,
    lift_system,
    make_circle,
    make_linear,
    make_split,
    psi_of,
    validate,
)
from .reidemeister import (
    ReidemeisterReport,
    SigmaClassReport,
    reidemeister_number,
    sigma_classes,
)
from .fixedpoints import (
    FixedPointClass,
    InfiniteClassesError,
    NielsenReport,
    NonIntegralResultError,
    SingularLinearPartError,
    TooManyClassesError,
    fixed_point_classes,
    index_uniformity,
    nielsen_linear_formula,
    nielsen_number,
)
from .oracle import (
    BudgetExceededError,
    OracleConfig,
    brute_classes,
    brute_fixed_points,
    oracle_check,
)
from .planner import (
    CollisionDetectedError,
    IllegalMoveError,
    Move,
    MoveSchedule,
    NoEssentialVertexError,
    PlannerStuckError,
    PlanResult,
    TokenGraph,
    plan,
    simulate,
    validate_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
