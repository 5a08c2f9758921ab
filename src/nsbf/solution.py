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

``eval_auto`` dispatches on |omega|: the improved form from |omega| = 1
(``SolutionModel.omega_switch``) on, the plain form below it, omega = 0
included, where it reads 1 + 2 beta_0 = f0.  ``char_values`` evaluates
the characteristic function s(omega, b) = Im u_N(omega, b)/omega and its
omega-derivative for a whole array of real omegas at once.

Both formulas are assembled once, in ``_assemble``.  Two front ends feed
it.  ``_evaluate`` is the scalar kernel behind ``eval_uN``, ``eval_uN_tilde``,
``eval_auto`` and ``sine_solution``: it reads x, Q and q at the node from
Python numbers that the model makes once, takes the Bessel sum from
``spherical_j_sum`` over the node's coefficient row and works in Python
arithmetic, with no numpy call past reading that row.  ``_series`` serves
``char_values``: a 1-D array of real omegas, Bessel values from
``spherical_j_table``, s = Im u_N/omega and its omega-derivative.  The
public scalar entries read a numpy scalar omega as the Python float or
complex of its value, so a float32 or complex64 omega is evaluated in
double precision.  Both forms grow like e^{|Im omega| x}, and the improved
one divides by omega^2: each kernel refuses (``_refuse``) a value that is
not finite and, for the improved form, an omega^2 that is not.  Below
|omega| = 1 the improved form's 1/omega^2 terms cancel, and each kernel
also refuses it where their rounding bound reaches the value
(``_digits_lost``).

The scalar kernel does not keep the bits of the straightforward
evaluation (``np.dot`` over ``spherical_j_sequence``) that
``tests/crosschecks.py`` holds: the sum is added in the order the
recurrence reaches the terms.  The tests hold it to the rounding bound of
the sum; a per-node number is still the value that reading the
extended-precision array at the call rounds to, and the terms are still
combined by the same operations in the same order.
"""

from __future__ import annotations

import cmath
import copy
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Union

import numpy as np

from . import expr as expr_mod
from .bessel import _python, spherical_j_sum, spherical_j_table
from .coefficients import (
    EXTRA_ROWS,
    TRUNCATION_CAP,
    AlphaTable,
    BetaTable,
    alpha_tail,
    beta_coeffs,
    build_alpha_table,
    legendre_coeffs,
)
from .errors import (
    ExpressionEvalError,
    GridError,
    LimitError,
    NearVanishingError,
    ZeroOmegaError,
)
from .formal_powers import (
    FormalPowersTable,
    formal_powers,
    formal_powers_nonvanishing,
)
from .grid import (
    Grid,
    indefinite_integral,
    make_grid,
    sample,
    solve_homogeneous,
)

# not called here, but bound: the benchmark's tracer (perfbench/spans.py)
# wraps them by this module's names
from .bessel import spherical_j_sequence
from .formal_powers import spps_eval

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

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SolutionModel:
    """Immutable bundle from which u_N(omega, x) is evaluated for any omega.

    The tables hold what the truncated sums use: ``beta`` rows 0..N with
    their flags, ``alpha`` rows 0..N+2, both with their noise floors, and
    the formal powers to k = N (to k = 1 at N = 0, for alpha's closed-form
    rows).  :meth:`with_truncation` re-truncates downward at no cost.

    The error surrogate also reads the ``EXTRA_ROWS`` alpha rows past N+2.
    ``build_model`` leaves them out and keeps its build state instead; the
    first ``epsN_surrogate`` call on the model or on any of its views
    resumes the build for them, once, and drops that state.  Evaluation
    (``eval_*``, ``char_values``, the spectrum) never builds them.
    """

    grid: Grid
    q: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    q0: complex
    powers: FormalPowersTable = field(repr=False)
    beta: BetaTable = field(repr=False)
    alpha: AlphaTable = field(repr=False)
    N: int
    #: |omega| from which ``eval_auto`` takes the improved form
    omega_switch: ClassVar[float] = 1.0
    # set once: sine_solution and char_values read it at every call
    is_complex: bool = field(init=False)
    # x, Q and q at each node as Python floats (complexes for a complex q):
    # the scalar kernel reads one of each per evaluation
    _x: list = field(init=False, repr=False)
    _Q: list = field(init=False, repr=False)
    _q: list = field(init=False, repr=False)
    # i^n c_n(x_j) in complex128, one contiguous row per node j
    _beta_c: np.ndarray = field(init=False, repr=False)
    _alpha_c: np.ndarray = field(init=False, repr=False)
    # the surrogate's alpha rows N+3..N+2+EXTRA_ROWS and their floors, once
    # made: a list that with_truncation's shallow copy shares, so the model
    # and all its views make them once
    _tail: list = field(init=False, repr=False, default_factory=list)

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
        for name, c in (("_beta_c", self.beta.beta),
                        ("_alpha_c", self.alpha.alpha)):
            # rounded once to complex128; i^n is 1, i, -1 or -i, so the
            # product is exact, the same as rounding the extended product
            ipow = 1j ** np.arange(len(c))
            c64 = c.astype(complex if np.iscomplexobj(c) else float)
            out = np.empty(c.shape[::-1], dtype=complex)
            object.__setattr__(self, name, np.multiply(ipow, c64.T, out=out))
        object.__setattr__(self, "is_complex", np.iscomplexobj(self.q))
        num = complex if self.is_complex else float
        object.__setattr__(self, "_x", self.grid.nodes.astype(float).tolist())
        object.__setattr__(self, "_Q", self.Q.astype(num).tolist())
        object.__setattr__(self, "_q", self.q.astype(num).tolist())

    def with_truncation(self, N: int) -> "SolutionModel":
        """A view of the same tables truncated at a smaller N.

        A shallow copy, so the complex128 copies, the per-node Python
        numbers and the surrogate's tail rows are shared too; a smaller N
        passes the table-extent checks that this model passed.
        """
        if not 0 <= N <= self.N:
            raise ValueError(f"N must be in [0, {self.N}], got {N}")
        view = copy.copy(self)
        object.__setattr__(view, "N", N)
        return view


QInput = Union[str, Callable[[np.ndarray], np.ndarray], np.ndarray]


def _sample_potential(q_input: QInput, grid: Grid) -> np.ndarray:
    if isinstance(q_input, str):
        tree = expr_mod.parse(q_input)
        q = sample(grid, lambda x: expr_mod.evaluate(tree, x))
    elif callable(q_input):
        q = sample(grid, q_input)
    else:
        values = np.asarray(q_input)
        if values.ndim != 1 or values.size != grid.M + 1:
            raise ValueError(
                f"tabulated potential needs {grid.M + 1} samples, got "
                f"{values.size}"
            )
        q = sample(grid, lambda x: values)
    bad = ~np.isfinite(q)
    if bad.any():
        x = float(grid.nodes[np.argmax(bad)])
        raise ExpressionEvalError(f"potential is not finite at x={x!r}")
    return q


def build_model(
    q_input: QInput,
    b: float,
    M: int = 1998,
    N: int = 25,
) -> SolutionModel:
    """Run the full coefficient pipeline and return an evaluation model.

    q_input may be an expression string, a callable mapping an ndarray of
    nodes (float64) to an array of q values, or an array of M+1 samples.
    The homogeneous solution f0 comes from Picard iteration; if it
    vanishes somewhere on the grid, f1 is iterated too and the nonvanishing
    fallback route is used automatically (always possible for real q).

    The model's tables stop at what the truncated sums use (see
    ``SolutionModel``): each row reads only lower rows, so it has the bits
    a larger build gives it.  The build state is kept on the tables, and
    the first ``epsN_surrogate`` call resumes it for the ``EXTRA_ROWS``
    alpha rows past N+2; evaluation never does.
    """
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    if N > TRUNCATION_CAP:
        raise LimitError(
            f"truncation N={N} exceeds the cap {TRUNCATION_CAP}; higher orders "
            "carry no trustworthy digits in double precision"
        )
    grid = make_grid(b, M)
    # the build forms x^2 in float64 and x^(N + EXTRA_ROWS) in the nodes'
    # dtype at every node, and divides by them: neither may underflow at the
    # first node or overflow at the last, which the logarithms tell without
    # forming either power
    first, last = grid.nodes[1], grid.nodes[-1]
    for k, dtype in ((2, float), (N + EXTRA_ROWS, first.dtype)):
        info = np.finfo(dtype)
        if k * np.log(first) < np.log(info.tiny):
            raise GridError(f"b={b} is too small for M={M} and N={N}: a power "
                            f"of the first node x={float(first)!r} underflows")
        if k * np.log(last) > np.log(info.max):
            raise GridError(f"b={b} is too large for M={M} and N={N}: a power "
                            f"of the last node x={float(last)!r} overflows")
    q = _sample_potential(q_input, grid)
    Q = indefinite_integral(grid, q)
    f0 = solve_homogeneous(grid, q, 1.0)

    # the closed-form alpha rows 0..3 read phi_0 and phi_1
    k_max = max(N, 1)
    try:
        powers = formal_powers(grid, f0, k_max)
    except NearVanishingError:
        f1 = solve_homogeneous(grid, q, grid.nodes)
        powers = formal_powers_nonvanishing(grid, f0, f1, k_max)

    beta = beta_coeffs(powers, legendre_coeffs(N))
    alpha = build_alpha_table(q, Q, powers, beta, N + 2)
    return SolutionModel(grid, q, Q, complex(q[0]), powers, beta, alpha, N)


def _table_dot(c: np.ndarray, jn: np.ndarray) -> np.ndarray:
    # sum_n c_n jn[n, k] for real jn: one real product on the (re, im)
    # pairs of c, read back as complex.  numpy multiplies a single column
    # by another BLAS route, whose sums round otherwise, so it is taken as
    # the first of two and keeps the bits it has in any wider batch
    if jn.shape[1] == 1:
        return _table_dot(c, np.repeat(jn, 2, axis=1))[:1]
    return (jn.T @ c.view(float).reshape(-1, 2)).view(complex)[:, 0]


def _improved(representation: str) -> bool:
    if representation not in ("improved", "plain"):
        raise ValueError(f"unknown representation {representation!r}")
    return representation == "improved"


def _assemble(model: SolutionModel, omega, x_index: int, improved: bool,
              e, em, S, dS=None):
    """u_N(omega, x_j) from e = e^{i omega x}, em = e^{-i omega x} and
    S = sum_n i^n c_n(x) j_n(omega x); with dS = dS/domega, also du_N/domega.

    Both representations are

        u = a e^{i omega x} - p e^{-i omega x}/(4 d) - k S/d,

    plain (c = beta): a = 1, p = 0, k = -2, d = 1, so u = e^{i omega x} + 2S;
    improved (c = alpha): a = 1 + Q/(2 i omega) + (q/4 - Q^2/8)/omega^2,
    p = q(0), k = 2, d = omega^2.  Each term is divided by d last, so the
    plain form rounds exactly as e^{i omega x} + 2S.  omega is a Python
    scalar or an array of real omegas, and so are e, em, S and dS.
    """
    if improved:
        Q = model._Q[x_index]
        core = model._q[x_index] / 4.0 - Q * Q / 8.0
        d = omega * omega
        a = 1.0 + Q / (2j * omega) + core / d
        p, k = model.q0, 2.0
    else:
        a, p, k, d = 1.0, 0.0, -2.0, 1.0
    t_p = p * em / (4.0 * d)
    t_k = k * S / d
    u = e * a - t_p - t_k
    if dS is None:
        return u
    # da/domega and (dd/domega)/d: zero for the plain form
    da, dd_d = 0.0, 0.0
    if improved:
        da, dd_d = -Q / (2j * d) - 2.0 * core / (d * omega), 2.0 / omega
    x = model._x[x_index]
    du = e * (1j * x * a + da) + 1j * x * t_p + (t_p + t_k) * dd_d - k * dS / d
    return u, du


_FORMS = ("the plain representation", "the improved representation")
_PHASE_LOST = ("|Re omega| x reaches 2^52 at x={}: the rounded omega x "
               "keeps no correct digit of the phase")


def _refuse(omega, what):
    """ZeroOmegaError at omega = 0, else LimitError: ``what`` is not finite.
    What divides by omega^2 is refused where omega^2 overflows too, as its
    1/omega^2 terms would drop out unseen."""
    if omega == 0:
        raise ZeroOmegaError(f"{what} divides by omega^2")
    raise LimitError(f"{what} leaves the float64 range at omega={omega}")


def _digits_lost(model: SolutionModel, omega, x_index: int, S, size,
                 e=1.0, em=1.0):
    """Whether the improved form's rounding bound at |omega| < 1 reaches
    ``size``, the size of what is returned.

    Its terms grow like 1/omega and 1/omega^2 as omega -> 0 and cancel to
    u, so they bound its rounding error by eps (|e| (|Q|/(2|omega|)
    + |q/4 - Q^2/8|/|omega|^2) + (|em| |q(0)|/4 + 2|S|)/|omega|^2), with
    e, em = e^{+-i omega x} (1 on real omega).  omega, S and size are
    Python scalars or arrays of real omegas.

    For u the size is |u|.  For s = Im u/omega it is min(1, |omega| x)
    |u|, the envelope of |Im u| (sin(omega x) for q = 0), not |Im u|
    itself: Im u vanishes at every root of s, where that would refuse
    the points that close in on an eigenvalue below omega = 1.
    """
    Q = model._Q[x_index]
    core = model._q[x_index] / 4.0 - Q * Q / 8.0
    ae, aem, w = abs(e), abs(em), abs(omega)
    # the bound times |omega|: where its last division by |omega| would
    # overflow, so would u's 1/omega^2 terms, and u was refused already
    return _EPS * (0.5 * ae * abs(Q) + (ae * abs(core) + 0.25 * aem * abs(model.q0)
                                       + 2.0 * abs(S)) / w) >= size * w


def _no_digit(omega):
    raise LimitError(f"the improved representation keeps no correct digit "
                     f"at omega={omega}: its 1/omega^2 terms cancel in "
                     "float64 (the plain one holds there)")


def _evaluate(model: SolutionModel, omega, x_index: int, improved: bool,
              sine: bool = False):
    """u_N(omega, x_j) at a Python scalar omega, real or complex, refused
    where not finite (a Python float error counts as such), from
    |Re omega| x = 2^52 on, where rounding omega x moves the phase by up
    to half a radian, and for the improved form where its rounding bound
    reaches the size of what is returned (``_digits_lost``), u or, with
    ``sine``, Im u/omega."""
    table, n_top = ((model._alpha_c, model.N + 2) if improved
                    else (model._beta_c, model.N))
    x = model._x[x_index]
    if abs(omega.real) * x >= 2.0**52:
        raise LimitError(_PHASE_LOST.format(x))
    try:
        # a Python number, so the rest rounds in Python's arithmetic
        z = omega * x
        S = spherical_j_sum(table[x_index, : n_top + 1].tolist(), z)
        e, em = cmath.exp(1j * z), cmath.exp(-1j * z)
        u = _assemble(model, omega, x_index, improved, e, em, S)
    except (ZeroDivisionError, OverflowError):
        u = math.nan
    if not cmath.isfinite(u) or improved and not cmath.isfinite(omega * omega):
        _refuse(omega, _FORMS[improved])
    if improved and abs(omega) < 1.0 and not (sine and x == 0.0):
        # s(omega, 0) = 0 comes out exactly: every term is real at x = 0
        size = abs(u) * min(1.0, abs(omega) * x) if sine else abs(u)
        if _digits_lost(model, omega, x_index, S, size, e, em):
            _no_digit(omega)
    return u


def _series(model: SolutionModel, omega: np.ndarray, x_index: int,
            improved: bool):
    """(s, ds/domega) at x_j for a real potential and a 1-D ndarray of real
    omega > 0, where s = Im u_N(omega, x_j)/omega (see ``_assemble``).

    The omega-derivative uses x j_n'(omega x) with
    j_n'(z) = j_{n-1}(z) - (n+1) j_n(z)/z (DLMF 10.51.2) and j_0' = -j_1.
    It refuses as ``_evaluate`` does, at the first omega where s or ds is
    not finite, or at the largest if the improved form's omega^2 is not,
    or at the first where the improved form keeps no digit of s.
    """
    table, n_top = ((model._alpha_c, model.N + 2) if improved
                    else (model._beta_c, model.N))
    x = model._x[x_index]
    top = float(omega.max())
    if top * x >= 2.0**52:
        raise LimitError(_PHASE_LOST.format(x))
    with np.errstate(all="ignore"):
        z = omega * x
        jn = spherical_j_table(max(n_top, 1), z)  # j_0' = -j_1 needs j_1
        e = np.empty(z.shape, dtype=complex)
        np.cos(z, out=e.real)
        np.sin(z, out=e.imag)
        col = table[x_index, : n_top + 1]
        S = _table_dot(col, jn[: n_top + 1])
        n1 = np.arange(2, n_top + 2)
        dS = x * (
            _table_dot(col[1:], jn[:n_top]) - col[0] * jn[1]
            - _table_dot(n1 * col[1:], jn[1 : n_top + 1]) / z
        )
        u, du = _assemble(model, omega, x_index, improved, e, e.conj(), S, dS)
        s = u.imag / omega
        ds = (du.imag - s) / omega
    ok = np.isfinite(s) & np.isfinite(ds)
    if not ok.all() or improved and not math.isfinite(top * top):
        _refuse(float(omega[~ok][0]) if not ok.all() else top, _FORMS[improved])
    if improved and float(omega.min()) < 1.0:
        small = omega < 1.0
        w = omega[small]
        lost = _digits_lost(model, w, x_index, S[small],
                            np.abs(u[small]) * np.minimum(1.0, w * x))
        if lost.any():
            _no_digit(float(w[lost][0]))
    return s, ds


def eval_uN_tilde(model: SolutionModel, omega: complex, x_index: int) -> complex:
    """Plain truncated representation; entire in omega (omega = 0 is fine);
    LimitError where it is not finite."""
    return _evaluate(model, _python(omega), x_index, False)


def eval_uN(model: SolutionModel, omega: complex, x_index: int) -> complex:
    """Omega-improved truncated representation at any complex omega where
    it and omega^2 are finite (else ZeroOmegaError at 0, LimitError
    elsewhere; see ``_evaluate``); pass -omega for the -omega solution
    (plain sign substitution, valid for complex q too)."""
    return _evaluate(model, _python(omega), x_index, True)


def eval_auto(model: SolutionModel, omega: complex, x_index: int) -> complex:
    """Dispatch: improved form for |omega| >= ``model.omega_switch`` (1),
    plain form below, omega = 0 included (the plain form is entire)."""
    omega = _python(omega)
    a = math.hypot(omega.real, omega.imag)  # abs() raises past float64
    return _evaluate(model, omega, x_index, a >= model.omega_switch)


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
    entire Bessel series.  Either is refused where u or s is not finite:
    the difference of two finite u, over an omega below 1, can overflow.
    """
    omega = _python(omega)
    if omega == 0:
        raise ZeroOmegaError("sine_solution divides by omega")
    improved = _improved(representation)
    if model.is_complex or (isinstance(omega, complex) and omega.imag != 0.0):
        s = (_evaluate(model, omega, x_index, improved)
             - _evaluate(model, -omega, x_index, improved)) / (2j * omega)
    else:
        w = float(omega.real)
        s = _evaluate(model, w, x_index, improved, sine=True).imag / w
    if cmath.isfinite(s):
        return s
    _refuse(omega, _FORMS[improved])


def char_values(
    model: SolutionModel, omegas: np.ndarray, representation: str = "improved"
):
    """(s, ds/domega) at x = b for an array of real omegas > 0, where
    s(omega, b) = Im u_N(omega, b)/omega; either form refuses them unless
    finite at each, as ``eval_uN`` does (see ``_series``).

    The batched form of ``sine_solution`` at x = b for a real potential:
    one Bessel table for all omegas, the derivative from that of u_N.
    """
    if model.is_complex:
        raise ValueError("char_values needs a real potential")
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1 or not np.all(w > 0):
        raise ValueError("char_values needs a 1-D array of omega > 0")
    return _series(model, w, model.grid.M, _improved(representation))


def _surrogate_row(model: SolutionModel, n: int):
    """alpha row n and its noise floor, for n <= N + 2 + EXTRA_ROWS of the
    build.

    Rows to N+2 are the model's own.  Past them is the build's tail, which
    the first call that needs it makes by resuming the build (formal
    powers, then beta, then alpha) from where ``build_model`` stopped it,
    once for the model and all its views; its rows have the bits of a
    build to N + EXTRA_ROWS.
    """
    top = model.alpha.n_max
    if n <= top:
        return model.alpha.alpha[n], model.alpha.noise_floor[n]
    if not model._tail:
        k_max = model.beta.n_max + EXTRA_ROWS
        model._tail.extend(alpha_tail(
            model.alpha, model.powers.dev_ratio_to(k_max),
            legendre_coeffs(k_max)))
    alpha, floor = model._tail
    return alpha[n - top - 1], floor[n - top - 1]


def epsN_surrogate(model: SolutionModel) -> np.ndarray:
    """Computable tail estimate of the kernel truncation error, per node.

    eps_hat_N(x) = sqrt( (2/x) sum_{n=N+3}^{N+2+E} |alpha_n(x)|^2/(2n+1) ),

    the Parseval norm of the first E = ``EXTRA_ROWS`` neglected expansion
    rows.
    It is lower-biased by construction (a finite chunk of the tail); rows
    that fell below the coefficient noise floor contribute that floor
    instead, since the surrogate cannot see beneath it.

    Rows past the model's alpha table come from the build's tail, which
    the first call on the model or on any of its ``with_truncation`` views
    makes by resuming the build; later calls reuse it.
    """
    grid = model.grid
    x = np.asarray(grid.nodes, dtype=float)
    acc = np.zeros(grid.M + 1)
    for n in range(model.N + 3, model.N + 3 + EXTRA_ROWS):
        alpha, floor = _surrogate_row(model, n)
        mag = np.maximum(
            np.abs(np.asarray(alpha, dtype=complex)),
            np.asarray(floor, dtype=float),
        )
        acc += mag**2 / (2 * n + 1)
    out = np.zeros(grid.M + 1)
    out[1:] = np.sqrt(2.0 * acc[1:] / x[1:])
    return out


def error_envelope(
    model: SolutionModel,
    omega: complex,
    x_index: int,
    eps: np.ndarray,
) -> float:
    """Truncation-error envelope for the improved representation, from
    ``eps = epsN_surrogate(model)``.

    eps_hat_N(x) * sqrt(sinh(2 a x)/a) / |omega|^2 with a = |Im omega|,
    evaluated as exp(a x) sqrt(-expm1(-4 a x)/(2 a)) so that sinh does
    not overflow before the product does; the real-omega limit sqrt(2x)
    applies for a < 1e-8.

    Raises
    ------
    LimitError
        If the envelope or omega^2 leaves the float64 range; at omega = 0,
        ZeroOmegaError.
    """
    omega = _python(omega)
    x = model._x[x_index]
    a = abs(omega.imag) if isinstance(omega, complex) else 0.0
    try:
        scale = float(eps[x_index]) / abs(omega) ** 2
        if a < 1e-8:
            value = scale * math.sqrt(2.0 * x)
        else:
            scale *= math.sqrt(-math.expm1(-4.0 * a * x) / (2.0 * a))
            if scale == 0.0:
                value = 0.0
            elif a * x < _LOG_FLOAT_MAX:
                value = scale * math.exp(a * x)
            else:
                value = math.exp(a * x + math.log(scale))
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if math.isfinite(value) and cmath.isfinite(omega * omega):
        return value
    _refuse(omega, "the error envelope")
