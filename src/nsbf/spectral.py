"""Dirichlet eigenvalue solver on [0, b].

Eigenvalues are the squares of the positive zeros of the characteristic
function s(omega, b), the sine-type solution evaluated at the right
endpoint.  The solver works in three batched stages, each one
``char_values`` call over many omegas at once:

* scan: s on an omega grid of step h_scan, one call per bounded scan
  window, brackets every sign change (windows continue until enough are
  found or the range ends);
* refine: safeguarded Newton on all brackets together, from the secant
  point of each, with the analytic ds/domega; a step that leaves its
  bracket or fails to halve falls back to bisection, and a root stops
  when its step is at most BRACKET_TOL * max(1, omega);
* certify: s at omega -+ BRACKET_TOL * max(1, omega) / 2 must change
  sign, which makes that the reported bracket width; a root that shows
  no sign change there keeps bisecting its bracket down to the
  tolerance.

Results are indexed from 1 in increasing order.  ``char_function`` stays
the scalar entry point.  ``asymptotic_eigenvalue`` gives the large-index
estimate on any interval, for comparison with the computed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RangeExhaustedError
from .solution import SolutionModel, char_values, sine_solution

__all__ = [
    "EigProblem",
    "EigResult",
    "char_function",
    "find_eigenvalues",
    "asymptotic_eigenvalue",
]

#: bisection terminates at a bracket width of 1e-13 * max(1, omega)
BRACKET_TOL = 1e-13


@dataclass(frozen=True)
class EigProblem:
    """A Dirichlet eigenvalue problem over a scan range in omega.

    omega_lo defaults to the scan step.  The scan ends at omega_hi, or
    with omega_hi left None at a limit set by the asymptotic spacing and
    the requested count (see ``find_eigenvalues``).
    """

    model: SolutionModel
    omega_lo: float | None = None
    omega_hi: float | None = None
    representation: str = "improved"

    def __post_init__(self):
        if self.model.is_complex:
            raise ConfigError(
                "eigenvalue problems require a real-valued potential"
            )
        lo = self.omega_lo if self.omega_lo is not None else self.h_scan
        if not lo > 0:
            raise ConfigError(f"omega_lo must be positive, got {lo}")
        object.__setattr__(self, "omega_lo", lo)
        if self.omega_hi is not None and self.omega_hi <= lo:
            raise ConfigError("omega_hi must exceed omega_lo")

    @property
    def h_scan(self) -> float:
        """Scan step pi/(4b): a quarter of the asymptotic root spacing."""
        return math.pi / (4.0 * self.model.grid.b)


@dataclass(frozen=True)
class EigResult:
    """One computed eigenvalue with refinement diagnostics."""

    index: int
    omega: float
    lam: float
    residual: float
    bracket_width: float


def char_function(
    model: SolutionModel, omega: float, representation: str = "improved"
) -> float:
    """s(omega, b): the Dirichlet shooting function, real for real q."""
    return sine_solution(model, float(omega), model.grid.M, representation)


def asymptotic_eigenvalue(n: int, Qb: float, b: float) -> float:
    """Large-index eigenvalue estimate (n pi/b + Qb/(2 pi n))^2 on [0, b].

    It expands to the classical lam_n = (n pi/b)^2 + Qb/b + O(n^-2), with
    Qb = int_0^b q (Poeschel and Trubowitz, *Inverse Spectral Theory*,
    1987).  At b = pi it reads (n + Qb/(2 pi n))^2, since pi/pi is 1.0.
    """
    if n < 1 or not b > 0:
        raise ValueError(f"need n >= 1 and b > 0, got n={n}, b={b}")
    return (n * (math.pi / b) + Qb / (2.0 * math.pi * n)) ** 2


def _shrink(bracket, i, w, s):
    """Move the ends of brackets ``i`` in to the points ``w`` by the sign
    of ``s`` there; points outside a bracket leave it as it is."""
    lo, hi, s_lo, s_hi = bracket
    left = np.sign(s) == np.sign(s_lo[i])
    to_lo = left & (w > lo[i])
    to_hi = ~left & (w < hi[i])
    lo[i[to_lo]], s_lo[i[to_lo]] = w[to_lo], s[to_lo]
    hi[i[to_hi]], s_hi[i[to_hi]] = w[to_hi], s[to_hi]


def _refine(problem: EigProblem, lo, hi, s_lo, s_hi):
    """Refine every bracket at once: (omega, residual, bracket width).

    Safeguarded Newton from the secant point: a step that leaves its
    bracket or is not at most half the previous step (a step that is not
    finite is neither) is replaced by bisection, and every evaluation moves
    a bracket end in.
    A root stops once its step is at most BRACKET_TOL * max(1, omega), and
    is then certified by a sign change across omega -+ half that width.
    A root without one there keeps bisecting its bracket down to the
    tolerance.  A degenerate bracket lo = hi (an exact zero found by the
    scan) is returned as it is, with width 0.
    """
    model, rep = problem.model, problem.representation
    bracket = lo, hi, s_lo, s_hi = [
        np.array(a, dtype=float) for a in (lo, hi, s_lo, s_hi)
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = hi - s_hi * (hi - lo) / (s_hi - s_lo)
    omega = np.where((omega >= lo) & (omega <= hi), omega, 0.5 * (lo + hi))
    last_step = hi - lo
    newton = np.ones(len(lo), dtype=bool)
    todo = np.arange(len(lo))
    while todo.size:
        w = omega[todo]
        s, ds = char_values(model, w, rep, derivative=True)
        _shrink(bracket, todo, w, s)
        exact = todo[s == 0.0]
        lo[exact] = hi[exact]
        lo_t, hi_t = lo[todo], hi[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -s / ds
        tol = BRACKET_TOL * np.maximum(1.0, w)
        closed = hi_t - lo_t <= tol
        # a step below the spacing of floats may leave w where it is
        settled = newton[todo] & ~closed & (np.abs(step) <= tol)
        take = (
            newton[todo] & (np.abs(step) <= 0.5 * last_step[todo])
            & (w + step >= lo_t) & (w + step <= hi_t)
        )
        nxt = np.where(
            settled, np.clip(w + step, lo_t, hi_t),
            np.where(take, w + step, 0.5 * (lo_t + hi_t)),
        )
        omega[todo] = nxt
        last_step[todo] = np.abs(nxt - w)
        certify = todo[settled]
        todo = todo[~closed & ~settled]
        if certify.size:
            half = 0.5 * BRACKET_TOL * np.maximum(1.0, omega[certify])
            a, c = omega[certify] - half, omega[certify] + half
            s_a, s_c = np.split(
                char_values(model, np.concatenate([a, c]), rep), 2
            )
            ok = np.sign(s_a) * np.sign(s_c) <= 0
            done = certify[ok]
            lo[done], hi[done] = a[ok], c[ok]
            s_lo[done], s_hi[done] = s_a[ok], s_c[ok]
            again = certify[~ok]
            _shrink(bracket, again, a[~ok], s_a[~ok])
            _shrink(bracket, again, c[~ok], s_c[~ok])
            newton[again] = False
            omega[again] = 0.5 * (lo[again] + hi[again])
            todo = np.concatenate([todo, again])
    residual = np.abs(char_values(model, omega, rep))
    return omega, residual, hi - lo


def find_eigenvalues(problem: EigProblem, count: int) -> list[EigResult]:
    """The lowest ``count`` Dirichlet eigenvalues lam_n = omega_n^2.

    Scans upward from omega_lo with step h_scan for sign changes of the
    characteristic function, one window at a time, and refines each
    bracket.  The first window spans (count + 2) pi/b, each later one
    max(5, roots still missing + 2) pi/b (pi/b is the asymptotic root
    spacing), so a batch stays small whatever the range.  The scan stops
    at omega_hi, or with omega_hi unset at omega_lo + 10 (count + 2) pi/b.

    Raises
    ------
    RangeExhaustedError
        If the scan range is exhausted first.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    model = problem.model
    b = model.grid.b
    h = problem.h_scan
    limit = (
        problem.omega_hi
        if problem.omega_hi is not None
        else problem.omega_lo + 10.0 * (count + 2) * math.pi / b
    )
    hi_target = min(limit, problem.omega_lo + (count + 2) * math.pi / b)

    brackets = []  # per scan window: rows lo, hi, s_lo, s_hi
    n_found = 0
    lo_edge = problem.omega_lo
    while True:
        n_cells = max(1, int(math.ceil((hi_target - lo_edge) / h)))
        omegas = lo_edge + h * np.arange(n_cells + 1)
        values = char_values(model, omegas, problem.representation)
        s0, s1 = values[:-1], values[1:]
        exact = s0 == 0.0
        change = ~exact & ((s0 < 0) != (s1 < 0))
        cells = np.flatnonzero(exact | change)[: count - n_found]
        # an exact zero at a scan point is its own degenerate bracket
        at = exact[cells]
        brackets.append(np.stack([
            omegas[cells], np.where(at, omegas[cells], omegas[cells + 1]),
            s0[cells], np.where(at, s0[cells], s1[cells]),
        ]))
        n_found += cells.size
        if n_found >= count:
            break
        if hi_target >= limit:
            raise RangeExhaustedError(
                f"found {n_found} of {count} sign changes in "
                f"[{problem.omega_lo:.6g}, {limit:.6g}]"
            )
        lo_edge = omegas[-1]
        hi_target = min(
            limit, lo_edge + max(5, count - n_found + 2) * math.pi / b
        )

    omega, residual, width = _refine(
        problem, *np.concatenate(brackets, axis=1)
    )
    return [
        EigResult(k, w, w * w, r, d)
        for k, (w, r, d) in enumerate(
            zip(omega.tolist(), residual.tolist(), width.tolist()), start=1
        )
    ]
