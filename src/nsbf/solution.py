"""Assembly and evaluation of the two truncated solution representations.

A ``SolutionModel`` bundles everything the evaluators need: the sampled
potential with its running integrals, the formal powers, and both
coefficient tables.  From it, ``eval_uN_tilde`` evaluates the plain
Bessel-series representation (entire in omega),

    u(omega, x) ~= e^{i omega x} + 2 sum_{n=0}^{N} i^n beta_n(x) j_n(omega x),

and ``eval_uN`` the omega-improved one,

    u(omega, x) ~= e^{i omega x} (1 + Q/(2 i omega) + (q/4 - Q^2/8)/omega^2)
                   - q(0) e^{-i omega x} / (4 omega^2)
                   - (2/omega^2) sum_{n=0}^{N+2} i^n alpha_n(x) j_n(omega x),

whose truncation error decays like 1/omega^2 uniformly on the interval.
The factor 2 on the Bessel sums pairs them with coefficient tables
normalized as Fourier-Legendre coefficients of the underlying kernels
(beta_0 = (phi_0 - 1)/2 and so on); that pairing is fixed by u(0, x) = f0
and is verified against the independent integrator in the tests.

``eval_auto`` dispatches on |omega|: the improved form above an omega
switch (default 1), the plain form below it, and the power series at
omega = 0 exactly.  ``char_values`` evaluates the characteristic function
s(omega, b) = Im u_N(omega, b)/omega, with its omega-derivative, for a whole
array of real omegas at once.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from . import expr as expr_mod
from .bessel import spherical_j_sequence, spherical_j_table
from .coefficients import (
    AlphaTable,
    BetaTable,
    beta_coeffs,
    build_alpha_table,
    legendre_coeffs,
)
from .errors import LimitError, NearVanishingError, ZeroOmegaError
from .formal_powers import (
    FormalPowersTable,
    formal_powers,
    formal_powers_nonvanishing,
    spps_eval,
)
from .grid import (
    PIPELINE_CDTYPE,
    PIPELINE_DTYPE,
    Grid,
    SampledFunction,
    indefinite_integral,
    make_grid,
    sample,
    solve_homogeneous,
)

__all__ = [
    "SolutionModel",
    "build_model",
    "eval_uN_tilde",
    "eval_uN",
    "eval_auto",
    "sine_solution",
    "char_values",
    "epsN_surrogate",
    "error_envelope",
]

#: alpha rows kept beyond N+2 for the truncation-error surrogate
EXTRA_ROWS = 8

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SolutionModel:
    """Immutable bundle from which u_N(omega, x) is evaluated for any omega.

    The coefficient tables extend ``EXTRA_ROWS`` beyond what the truncated
    sums use, so the same model serves the error surrogate and can be
    re-truncated downward with :meth:`with_truncation` at no cost.
    """

    grid: Grid
    q: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    Q2: np.ndarray = field(repr=False)
    q0: complex
    powers: FormalPowersTable = field(repr=False)
    beta: BetaTable = field(repr=False)
    alpha: AlphaTable = field(repr=False)
    N: int
    omega_switch: float = 1.0
    # float64/complex128 copies of the hot arrays, for the evaluators
    _beta_c: np.ndarray = field(repr=False, default=None)
    _alpha_c: np.ndarray = field(repr=False, default=None)
    _ipow: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.alpha.n_max < self.N + 2:
            raise ValueError(
                f"alpha table has rows to {self.alpha.n_max}, need N+2 = "
                f"{self.N + 2}"
            )
        if self.beta.n_max < self.N:
            raise ValueError(
                f"beta table has rows to {self.beta.n_max}, need N = {self.N}"
            )
        if self._beta_c is None:
            object.__setattr__(
                self, "_beta_c", np.asarray(self.beta.beta, dtype=complex)
            )
            object.__setattr__(
                self, "_alpha_c", np.asarray(self.alpha.alpha, dtype=complex)
            )
            object.__setattr__(
                self,
                "_ipow",
                1j ** np.arange(self.alpha.n_max + 1),
            )

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.q)

    def with_truncation(self, N: int) -> "SolutionModel":
        """A view of the same tables truncated at a smaller N."""
        if not 0 <= N <= self.N:
            raise ValueError(f"N must be in [0, {self.N}], got {N}")
        return replace(self, N=N)


QInput = Union[str, expr_mod.Expression, np.ndarray, SampledFunction]


def _sample_potential(q_input: QInput, grid: Grid) -> SampledFunction:
    if isinstance(q_input, SampledFunction):
        if q_input.grid.M != grid.M or q_input.grid.b != grid.b:
            raise ValueError("sampled potential grid does not match (b, M)")
        return q_input
    if isinstance(q_input, str):
        q_input = expr_mod.parse(q_input)
    if isinstance(
        q_input, (expr_mod.Num, expr_mod.Const, expr_mod.Var, expr_mod.Unary,
                  expr_mod.Binary, expr_mod.Call)
    ):
        tree = q_input
        return sample(grid, lambda x: expr_mod.evaluate(tree, x))
    if callable(q_input):
        return sample(grid, q_input)
    values = np.asarray(q_input)
    if values.ndim != 1 or values.size != grid.M + 1:
        raise ValueError(
            f"tabulated potential needs {grid.M + 1} samples, got "
            f"{values.size}"
        )
    dtype = PIPELINE_CDTYPE if np.iscomplexobj(values) else PIPELINE_DTYPE
    return SampledFunction(grid, values.astype(dtype))


def build_model(
    q_input: QInput,
    b: float,
    M: int = 1998,
    N: int = 25,
    omega_switch: float = 1.0,
) -> SolutionModel:
    """Run the full coefficient pipeline and return an evaluation model.

    q_input may be an expression string, a parsed expression, a callable,
    an array of M+1 samples, or a SampledFunction on the matching grid.
    The homogeneous solutions come from Picard iteration; if the primary
    one vanishes somewhere on the grid the nonvanishing fallback route is
    used automatically (always possible for real q).
    """
    if N > 60:
        raise LimitError(
            f"truncation N={N} exceeds the cap 60; higher orders carry no "
            "trustworthy digits in double precision"
        )
    grid = make_grid(b, M)
    q = _sample_potential(q_input, grid)
    Q = indefinite_integral(q)
    Q2 = indefinite_integral(SampledFunction(grid, q.values * q.values))
    f0, f1 = solve_homogeneous(q)

    k_max = N + EXTRA_ROWS
    try:
        powers = formal_powers(f0, k_max)
    except NearVanishingError:
        powers = formal_powers_nonvanishing(f0, f1, k_max)

    leg = legendre_coeffs(k_max)
    beta = beta_coeffs(powers, leg, k_max)
    alpha = build_alpha_table(q, Q, powers, beta, N + 2 + EXTRA_ROWS)
    return SolutionModel(
        grid, np.asarray(q.values), np.asarray(Q.values),
        np.asarray(Q2.values), complex(q.values[0]), powers, beta, alpha,
        N, omega_switch,
    )


def _bessel_sum(model: SolutionModel, table: np.ndarray, n_top: int,
                omega: complex, x_index: int) -> complex:
    """sum_{n=0}^{n_top} i^n c_n(x_j) j_n(omega x_j)."""
    x = float(model.grid.nodes[x_index])
    z = omega * x
    if isinstance(z, complex) and z.imag == 0.0:
        z = z.real
    jn = spherical_j_sequence(n_top, z)
    col = table[: n_top + 1, x_index]
    return complex(np.dot(model._ipow[: n_top + 1] * col, jn))


def eval_uN_tilde(model: SolutionModel, omega: complex, x_index: int) -> complex:
    """Plain truncated representation; entire in omega (omega = 0 is fine)."""
    x = float(model.grid.nodes[x_index])
    s = _bessel_sum(model, model._beta_c, model.N, omega, x_index)
    return cmath.exp(1j * omega * x) + 2.0 * s


def eval_uN(model: SolutionModel, omega: complex, x_index: int) -> complex:
    """Omega-improved truncated representation; requires omega != 0.

    Supports any nonzero complex omega; the -omega solution is obtained by
    passing -omega (plain sign substitution, valid for complex q too).
    """
    if omega == 0:
        raise ZeroOmegaError("the improved representation divides by omega^2")
    x = float(model.grid.nodes[x_index])
    q = complex(model.q[x_index])
    Q = complex(model.Q[x_index])
    q0 = model.q0
    w2 = omega * omega
    core = q / 4.0 - Q * Q / 8.0
    s = _bessel_sum(model, model._alpha_c, model.N + 2, omega, x_index)
    return (
        cmath.exp(1j * omega * x) * (1.0 + Q / (2j * omega) + core / w2)
        - q0 * cmath.exp(-1j * omega * x) / (4.0 * w2)
        - 2.0 * s / w2
    )


def eval_auto(model: SolutionModel, omega: complex, x_index: int) -> complex:
    """Dispatch: improved form for |omega| >= switch, plain form below,
    power series exactly at omega = 0."""
    a = abs(omega)
    if a == 0.0:
        return spps_eval(model.powers, 0.0, x_index, model.powers.k_max)
    if a >= model.omega_switch:
        return eval_uN(model, omega, x_index)
    return eval_uN_tilde(model, omega, x_index)


def sine_solution(
    model: SolutionModel,
    omega: complex,
    x_index: int,
    representation: str = "improved",
):
    """The initial-value sine combination s(omega, x).

    s = (u(omega, x) - u(-omega, x)) / (2 i omega): it vanishes at x = 0
    with unit slope, and its zeros in omega at x = b are the Dirichlet
    eigenvalue roots.  For real q and real omega this reduces to
    Im u(omega, x)/omega, which is what gets evaluated then (one series
    evaluation instead of two).

    representation: "improved" uses the omega-improved form, "plain" the
    entire Bessel series.
    """
    if omega == 0:
        raise ZeroOmegaError("sine_solution divides by omega")
    if representation == "improved":
        evaluate = eval_uN
    elif representation == "plain":
        evaluate = eval_uN_tilde
    else:
        raise ValueError(f"unknown representation {representation!r}")
    real_case = (
        not model.is_complex
        and not (isinstance(omega, complex) and omega.imag != 0.0)
    )
    if real_case:
        return evaluate(model, float(omega), x_index).imag / float(omega)
    return (
        evaluate(model, omega, x_index) - evaluate(model, -omega, x_index)
    ) / (2j * omega)


def char_values(
    model: SolutionModel,
    omegas: np.ndarray,
    representation: str = "improved",
    derivative: bool = False,
):
    """s(omega, b) = Im u_N(omega, b)/omega for an array of real omegas > 0.

    The batched form of ``sine_solution`` at x = b for a real potential:
    one Bessel table for all omegas, and one real matrix product with the
    imaginary part of the coefficient column i^n c_n(b) (with j_n real,
    only that part reaches Im u_N).  With ``derivative=True`` it returns
    (s, ds/domega), using j_n'(z) = j_{n-1}(z) - (n+1) j_n(z)/z (DLMF
    10.51.2) and j_0' = -j_1.
    """
    if model.is_complex:
        raise ValueError("char_values needs a real potential")
    if representation == "improved":
        table, n_top = model._alpha_c, model.N + 2
    elif representation == "plain":
        table, n_top = model._beta_c, model.N
    else:
        raise ValueError(f"unknown representation {representation!r}")
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1 or not np.all(w > 0):
        raise ValueError("char_values needs a 1-D array of omega > 0")
    M = model.grid.M
    x = float(model.grid.nodes[M])
    z = w * x
    jn = spherical_j_table(n_top, z)
    c = np.ascontiguousarray(
        (model._ipow[: n_top + 1] * table[: n_top + 1, M]).imag
    )
    S = c @ jn[: n_top + 1]
    sin, cos = np.sin(z), np.cos(z)
    if representation == "plain":
        im_u = sin + 2.0 * S
    else:
        q = float(model.q[M])
        Q = float(model.Q[M])
        q0 = model.q0.real
        w2 = w * w
        core = q / 4.0 - Q * Q / 8.0
        im_u = (
            sin * (1.0 + core / w2) - cos * Q / (2.0 * w)
            + q0 * sin / (4.0 * w2) - 2.0 * S / w2
        )
    s = im_u / w
    if not derivative:
        return s
    # sum c_n x j_n'(omega x), without forming the j_n' table
    n1 = np.arange(2, n_top + 2)
    dS = x * (
        c[1:] @ jn[:n_top] - c[0] * jn[1]
        - ((n1 * c[1:]) @ jn[1 : n_top + 1]) / z
    )
    if representation == "plain":
        d_im_u = x * cos + 2.0 * dS
    else:
        w3 = w2 * w
        d_im_u = (
            x * cos * (1.0 + core / w2) - 2.0 * core * sin / w3
            + x * sin * Q / (2.0 * w) + cos * Q / (2.0 * w2)
            + q0 * (x * cos / (4.0 * w2) - sin / (2.0 * w3))
            - 2.0 * dS / w2 + 4.0 * S / w3
        )
    return s, (d_im_u - s) / w


def epsN_surrogate(model: SolutionModel) -> np.ndarray:
    """Computable tail estimate of the kernel truncation error, per node.

    eps_hat_N(x) = sqrt( (2/x) sum_{n=N+3}^{N+2+E} |alpha_n(x)|^2/(2n+1) ),

    the Parseval norm of the first E = ``EXTRA_ROWS`` neglected expansion
    rows.
    It is lower-biased by construction (a finite chunk of the tail); rows
    that fell below the coefficient noise floor contribute that floor
    instead, since the surrogate cannot see beneath it.
    """
    grid = model.grid
    x = np.asarray(grid.nodes, dtype=float)
    acc = np.zeros(grid.M + 1)
    for n in range(model.N + 3, model.N + 3 + EXTRA_ROWS):
        mag = np.maximum(
            np.abs(np.asarray(model.alpha.alpha[n], dtype=complex)),
            np.asarray(model.alpha.noise_floor[n], dtype=float),
        )
        acc += mag**2 / (2 * n + 1)
    out = np.zeros(grid.M + 1)
    out[1:] = np.sqrt(2.0 * acc[1:] / x[1:])
    return out


def error_envelope(
    model: SolutionModel,
    omega: complex,
    x_index: int,
    eps: np.ndarray | None = None,
) -> float:
    """Truncation-error envelope for the improved representation.

    eps_hat_N(x) * sqrt(sinh(2 a x)/a) / |omega|^2 with a = |Im omega|,
    evaluated as exp(a x) sqrt(-expm1(-4 a x)/(2 a)) so that sinh does
    not overflow before the product does; the real-omega limit sqrt(2x)
    applies for a < 1e-8.

    Raises
    ------
    LimitError
        If the envelope itself exceeds the float64 range.
    """
    if omega == 0:
        raise ZeroOmegaError("error envelope divides by omega^2")
    if eps is None:
        eps = epsN_surrogate(model)
    x = float(model.grid.nodes[x_index])
    a = abs(omega.imag) if isinstance(omega, complex) else 0.0
    scale = float(eps[x_index]) / abs(omega) ** 2
    if a < 1e-8:
        return scale * math.sqrt(2.0 * x)
    scale *= math.sqrt(-math.expm1(-4.0 * a * x) / (2.0 * a))
    if scale == 0.0:
        return 0.0
    log_env = a * x + math.log(scale)
    if log_env >= _LOG_FLOAT_MAX:
        raise LimitError(
            f"error envelope exp({log_env:.4g}) overflows float64 at "
            f"omega={omega}, x={x:.6g}"
        )
    if a * x < _LOG_FLOAT_MAX:
        return scale * math.exp(a * x)
    return math.exp(log_env)
