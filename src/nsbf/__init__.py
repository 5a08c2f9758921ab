"""Spectral-parameter-uniform solution representations for the 1-D
Schrodinger equation -u'' + q u = omega^2 u, and a Dirichlet eigenvalue
solver built on them.

The package constructs two Bessel-series representations of the solution
with u(0) = 1, u'(0) = i omega: a plain one, entire in omega, and an
omega-improved one whose truncation error decays like 1/omega^2 uniformly
on the interval.  Both are assembled from formal powers of the potential
by recursive integration on a uniform grid.
"""

from .bessel import spherical_j_sequence, spherical_j_table
from .coefficients import (
    AlphaTable,
    BetaTable,
    LegendreCoeffs,
    accuracy_indicators,
    alpha_recurrence,
    alpha_seed,
    beta_coeffs,
    build_alpha_table,
    legendre_coeffs,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    ExpressionEvalError,
    ExpressionSyntaxError,
    GridError,
    LimitError,
    NearVanishingError,
    NsbfError,
    OracleError,
    RangeExhaustedError,
    UnsupportedIntervalError,
    ZeroOmegaError,
)
from .expr import evaluate as eval_expression
from .expr import parse as parse_expression
from .formal_powers import (
    FormalPowersTable,
    formal_powers,
    formal_powers_nonvanishing,
    spps_eval,
)
from .grid import (
    Grid,
    SampledFunction,
    derivative,
    indefinite_integral,
    make_grid,
    sample,
    solve_homogeneous,
)
from .solution import (
    SolutionModel,
    build_model,
    char_values,
    epsN_surrogate,
    error_envelope,
    eval_auto,
    eval_uN,
    eval_uN_tilde,
    sine_solution,
)
from .spectral import (
    EigProblem,
    EigResult,
    asymptotic_eigenvalue,
    char_function,
    find_eigenvalues,
)

__version__ = "0.1.0"
