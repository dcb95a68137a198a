"""Solver suite for the degenerate two-point boundary-value ODE systems of
conformally compact Einstein metrics with homogeneous spherical infinity.

Subpackages: systems (pointwise residual/constraint evaluators), series
(endpoint expansions), solver (collocation + damped Newton), continuation
(parameter sweeps and curvature-event bisection), geometry (metric
reconstruction and curvature), verification (invariant checks), config /
exports / cli (run configuration and bit-stable output).
"""

__version__ = "0.1.0"

from .systems import (  # noqa: F401
    GBERGER,
    SU,
    BoundaryData,
    DomainError,
    InfeasibleStateError,
    StateVector,
    SystemKind,
    UsageError,
    family,
    upsilon,
    y1prime_closed_form_gb,
)

from .series import (  # noqa: F401
    NonlocalParams,
    SeriesCoefficients,
    evaluate_series,
    fg_series_origin,
    series_infinity,
)

from .solver import (  # noqa: F401
    Mesh,
    SolutionProfile,
    SolveOptions,
    SolveReport,
    assemble_collocation,
    make_mesh,
    newton_solve,
    refine_mesh,
    seed_profile,
    solve_bvp,
)

from .geometry import (  # noqa: F401
    CurvatureSample,
    CurvatureSamples,
    MetricProfile,
    curvature_samples,
    gauss_tangential,
    k0_bounds_check,
    radial_sectional,
    reconstruct_metric,
    ricci_su,
    riemann_from_structure,
    slice_sectional,
    weyl_mixed_n3,
)

from .continuation import (  # noqa: F401
    ContinuationTrace,
    EventRecord,
    SweepPlan,
    bisect_event,
    detect_curvature_event,
    sweep,
)

from .verification import (  # noqa: F401
    CheckRecord,
    VariationLedger,
    VerificationReport,
    run_verification,
    uniqueness_diagnostic,
)

from .config import ParseError, RunConfig, parse_config  # noqa: F401
