"""Dirichlet eigenvalue solver on [0, b].

Eigenvalues are the squares of the positive zeros of the characteristic
function s(omega, b), the sine-type solution evaluated at the right
endpoint.  The solver works in three stages, batched over many omegas:

* scan: s and ds/domega on an omega grid of step h_scan from h_scan, one
  ``char_values`` call per window of at most SCAN_WINDOW points, brackets
  every sign change;
* refine: safeguarded Newton on all brackets of a window together, from
  the root of the cubic Hermite interpolant through each bracket's ends;
  a step that leaves its bracket or fails to halve falls back to
  bisection, and a root stops when its step is at most
  BRACKET_TOL * max(1, omega);
* certify: s at omega -+ BRACKET_TOL * max(1, omega) / 2, each end one
  spacing of omega inward, must change sign, which makes the reported
  bracket width at most that tolerance; a root that shows no sign change
  there keeps bisecting its bracket down to the tolerance.

Refine and certify share one ``char_values`` call per pass, which also
gives each finished root its residual: about five calls a window in all.
Results are indexed from 1 in increasing order.  ``char_function`` stays
the scalar entry point.  ``asymptotic_eigenvalue`` gives the large-index
estimate on any interval, for comparison with the computed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
#: most scan points in one window; a count up to 460 (1,849 points) is one
SCAN_WINDOW = 4096


@dataclass(frozen=True)
class EigProblem:
    """A Dirichlet eigenvalue problem: a model of real q and the
    representation of s(omega, b) to solve with."""

    model: SolutionModel
    representation: str = "improved"

    def __post_init__(self):
        if self.model.is_complex:
            raise ConfigError(
                "eigenvalue problems require a real-valued potential"
            )

    @property
    def h_scan(self) -> float:
        """Scan step pi/(4b): a quarter of the asymptotic root spacing."""
        return math.pi / (4.0 * self.model.grid.b)


class EigResult(NamedTuple):
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
    of ``s`` there; points not strictly inside a bracket leave it as it
    is, so lo <= hi holds."""
    lo, hi, s_lo, s_hi = bracket
    left = np.sign(s) == np.sign(s_lo[i])
    inside = (w > lo[i]) & (w < hi[i])
    to_lo = left & inside
    to_hi = ~left & inside
    lo[i[to_lo]], s_lo[i[to_lo]] = w[to_lo], s[to_lo]
    hi[i[to_hi]], s_hi[i[to_hi]] = w[to_hi], s[to_hi]


def _hermite_root(lo, hi, s_lo, s_hi, ds_lo, ds_hi):
    """A root in [lo, hi] of the cubic Hermite interpolant of s through
    both bracket ends: four Newton steps on it from the secant point, or
    the midpoint where they end outside the bracket or at nan."""
    h = hi - lo
    f0, f1, d0, d1 = s_lo, s_hi, h * ds_lo, h * ds_hi
    # p(t) = f0 + d0 t + c2 t^2 + c3 t^3 with p(1) = f1, p'(1) = d1
    c2 = 3.0 * (f1 - f0) - 2.0 * d0 - d1
    c3 = 2.0 * (f0 - f1) + d0 + d1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = f0 / (f0 - f1)
        for _ in range(4):
            p = f0 + t * (d0 + t * (c2 + t * c3))
            t = t - p / (d0 + t * (2.0 * c2 + 3.0 * t * c3))
    return np.where((t >= 0.0) & (t <= 1.0), lo + t * h, 0.5 * (lo + hi))


def _refine(problem: EigProblem, lo, hi, s_lo, s_hi, ds_lo, ds_hi):
    """Refine every bracket at once: (omega, residual, bracket width).

    Safeguarded Newton from the root of the cubic Hermite interpolant
    through both bracket ends: a step that leaves its bracket or is not at
    most half the previous step (a step that is not finite is neither) is
    replaced by bisection, and every evaluation moves a bracket end in.
    A root stops once its step is at most BRACKET_TOL * max(1, omega), and
    is then certified by a sign change across omega -+ half that width,
    its ends one spacing of omega inward so that their rounding leaves
    the bracket no wider.
    A root without one there keeps bisecting its bracket down to the
    tolerance.  A degenerate bracket lo = hi (an exact zero found by the
    scan) is returned as it is, with width 0.

    Each pass is one ``char_values`` call: the Newton points of the open
    roots, then omega - half, omega + half and omega of the roots that
    settled in the previous pass (certificate and residual), then omega of
    those that closed by bisection (residual).
    """
    model, rep = problem.model, problem.representation
    bracket = lo, hi, s_lo, s_hi = [
        np.array(a, dtype=float) for a in (lo, hi, s_lo, s_hi)
    ]
    omega = _hermite_root(lo, hi, s_lo, s_hi, ds_lo, ds_hi)
    residual = np.zeros(len(lo))
    last_step = hi - lo
    newton = np.ones(len(lo), dtype=bool)
    todo = np.arange(len(lo))
    certify = closed = todo[:0]
    while todo.size or certify.size or closed.size:
        w_cert = omega[certify]
        # each end is rounded by at most one spacing of omega, so ends one
        # spacing inside keep the bracket within the tolerance
        half = 0.5 * BRACKET_TOL * np.maximum(1.0, w_cert) - np.spacing(w_cert)
        a, c = w_cert - half, w_cert + half
        w = omega[todo]
        s, ds = char_values(
            model, np.concatenate([w, a, c, w_cert, omega[closed]]), rep
        )
        s, s_a, s_c, s_w, s_closed = np.split(
            s, np.cumsum([todo.size, certify.size, certify.size,
                          certify.size])
        )
        ds = ds[: todo.size]
        residual[closed] = np.abs(s_closed)
        residual[certify] = np.abs(s_w)

        _shrink(bracket, todo, w, s)
        exact = todo[s == 0.0]
        lo[exact] = hi[exact]
        lo_t, hi_t = lo[todo], hi[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -s / ds
        tol = BRACKET_TOL * np.maximum(1.0, w)
        narrow = hi_t - lo_t <= tol
        # a step below the spacing of floats may leave w where it is
        settled = newton[todo] & ~narrow & (np.abs(step) <= tol)
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

        ok = np.sign(s_a) * np.sign(s_c) <= 0
        done = certify[ok]
        lo[done], hi[done] = a[ok], c[ok]
        s_lo[done], s_hi[done] = s_a[ok], s_c[ok]
        again = certify[~ok]
        _shrink(bracket, again, a[~ok], s_a[~ok])
        _shrink(bracket, again, c[~ok], s_c[~ok])
        newton[again] = False
        omega[again] = 0.5 * (lo[again] + hi[again])

        certify, closed = todo[settled], todo[narrow]
        todo = np.concatenate([todo[~narrow & ~settled], again])
    return omega, residual, hi - lo


def find_eigenvalues(problem: EigProblem, count: int) -> list[EigResult]:
    """The lowest ``count`` Dirichlet eigenvalues lam_n = omega_n^2 with
    omega_n >= h_scan.

    Scans upward from h_scan with step h_scan for sign changes of the
    characteristic function, one window at a time, and refines each
    window's brackets before the next.  The first window spans
    (count + 2) pi/b, each later one max(5, roots still missing + 2) pi/b
    (pi/b is the asymptotic root spacing), and none holds more than
    SCAN_WINDOW points, so a batch stays small whatever the count.  The
    scan ends at h_scan + 10 (count + 2) pi/b.

    Raises
    ------
    RangeExhaustedError
        If the scan range ends first.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    model = problem.model
    b = model.grid.b
    h = problem.h_scan
    limit = h + 10.0 * (count + 2) * math.pi / b
    hi_target = min(limit, h + (count + 2) * math.pi / b)

    results = []
    lo_edge = h
    while True:
        n_cells = max(1, int(math.ceil((hi_target - lo_edge) / h)))
        omegas = lo_edge + h * np.arange(min(n_cells, SCAN_WINDOW - 1) + 1)
        values, slopes = char_values(model, omegas, problem.representation)
        s0, s1 = values[:-1], values[1:]
        exact = s0 == 0.0
        # a zero at the right end is the next cell's exact zero
        change = ~exact & (s1 != 0.0) & ((s0 < 0) != (s1 < 0))
        cells = np.flatnonzero(exact | change)[: count - len(results)]
        if cells.size:
            # an exact zero at a scan point is its own degenerate bracket
            end = cells + ~exact[cells]
            omega, residual, width = _refine(
                problem, omegas[cells], omegas[end], values[cells],
                values[end], slopes[cells], slopes[end],
            )
            index = range(len(results) + 1, len(results) + omega.size + 1)
            results += map(EigResult._make, zip(
                index, omega.tolist(), (omega * omega).tolist(),
                residual.tolist(), width.tolist(),
            ))
        if len(results) >= count:
            return results
        # a capped window stops short of hi_target, so it cannot end the range
        if n_cells < SCAN_WINDOW and hi_target >= limit:
            raise RangeExhaustedError(
                f"found {len(results)} of {count} sign changes in "
                f"[{h:.6g}, {limit:.6g}]"
            )
        lo_edge = omegas[-1]
        hi_target = min(
            limit, lo_edge + max(5, count - len(results) + 2) * math.pi / b
        )
