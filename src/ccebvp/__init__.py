"""Solver suite for the degenerate two-point boundary-value ODE systems of
conformally compact Einstein metrics with homogeneous spherical infinity.

The API is the modules, each imported by name; the package itself holds
only __version__.  Modules: systems (pointwise residual/constraint
evaluators), series (endpoint expansions), solver (collocation + damped
Newton), continuation (parameter sweeps and curvature-event bisection),
geometry (metric reconstruction and curvature), verification (invariant
checks), config / exports / cli (run configuration and bit-stable output).
"""

__version__ = "0.1.0"
