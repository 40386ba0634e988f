"""Refined multi-point first-order expansions and the error bounds they sharpen.

The package has four layers:

- expansion: m-point derivative-averaged expansions with two-sided remainder
  enclosures that shrink like 1/(2m) relative to the classical ones;
- interp1d: consequences for linear interpolation on an interval, including
  the convex exponential family on which the mixed bound provably wins;
- simplex: barycentric interpolation on simplices and meshes, with the
  half-constant corrected interpolant;
- fem: P1/P2 elliptic model problems, quasi-optimality gap measurements and
  the mesh-savings arithmetic.

The cli module exposes all of it as reproducible CSV studies.
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
    WeightFamily,
    estimate_segment_bounds,
    expansion_weights,
    phi,
    phi_prime,
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
    linear_interpolant,
    rate_for_beta,
)
from .simplex import (
    GeometryError,
    InterpBounds,
    MeshInterpolant,
    Simplex,
    Triangulation,
    barycentric,
    face_jumps,
    global_interp,
    interp_error_bounds,
    pi_interp,
    pi_star_interp,
    read_mesh_text,
    uniform_mesh,
    write_mesh_text,
)
from .fem import (
    EllipticProblem,
    EstimateReport,
    FemSolution,
    SolverError,
    assemble_and_solve,
    cea_gap,
    estimate_report,
    h1_seminorm_error,
    l2_norm_error,
    mesh_savings,
    poincare_constant,
    sine_problem,
)
from .registry import (
    FieldEntry,
    UnknownFieldError,
    known_names,
    lookup,
    registry,
    registry_selftest,
)

__version__ = "0.1.0"
