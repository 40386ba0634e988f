"""Refined multi-point first-order expansions and the error bounds they sharpen.

The package has four layers:

- expansion: m-point derivative-averaged expansions with two-sided remainder
  enclosures that shrink like 1/(2m) relative to the classical ones;
- interp1d: consequences for linear interpolation on an interval, including
  the convex exponential family on which the mixed bound provably wins; the
  interval is the simplex layer's one-element mesh, measured through it;
- simplex: barycentric interpolation on simplices and meshes (a simplex is
  a one-element mesh), with the half-constant corrected interpolant, the
  one InterpBounds formula for the interpolation bounds at a size h, and
  the mesh-savings arithmetic that inverts it; MeshInterpolant stores pi*_h
  as P2 vertex and edge-midpoint values;
- fem: P1/P2 elliptic model problems, one error report per solve against
  the a-priori bound chains; FemSolution shares MeshInterpolant's evaluation.

The cli module exposes all of it as reproducible CSV studies.

Only the fem layer needs scipy, and it is loaded the first time it is used:
by `import reftaylor.fem`, by any fem name taken from the package (such as
`reftaylor.assemble_and_solve`), or by the `fem` command.
Importing the package, the cli or the other layers leaves scipy unloaded.
"""

from .fields import (
    Box,
    DomainError,
    ScalarField,
    sampled_derivative_norms,
)
from .expansion import (
    CLOSED,
    OPEN,
    ExpansionReport,
    SegmentBounds,
    estimate_segment_bounds,
    expansion_weights,
    refined_expansion,
    remainder_integral,
    summation_identity_check,
    taylor_first_order,
)
from .interp1d import (
    BoundComparison,
    ClassPParams,
    Interval,
    class_p_field,
    class_p_lower_envelope,
    class_p_sup_norms,
    compare_bounds,
    rate_for_beta,
)
from .simplex import (
    GeometryError,
    InterpBounds,
    MeshInterpolant,
    Simplex,
    Triangulation,
    mesh_savings,
    uniform_mesh,
)
from .registry import (
    FieldEntry,
    UnknownFieldError,
    known_names,
    lookup,
    registry,
)

__version__ = "0.1.0"

# The FEM layer needs scipy, which takes longer to import than everything
# else together, so its names load on first access (PEP 562).
_FEM_NAMES = frozenset({
    "EllipticProblem",
    "EstimateReport",
    "FemSolution",
    "SolverError",
    "assemble_and_solve",
    "estimate_report",
    "h1_seminorm_error",
    "l2_norm_error",
    "sine_problem",
})


def __getattr__(name):
    if name in _FEM_NAMES:
        from . import fem
        return getattr(fem, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _FEM_NAMES)
