"""Dirichlet eigenvalue solver on [0, b].

Eigenvalues are the squares of the positive zeros of the characteristic
function s(omega, b), the sine-type solution evaluated at the right
endpoint.  The solver works in three stages, batched over many omegas:

* scan: s and ds/domega on an omega grid of step h_scan from h_scan, one
  ``char_values`` call per window of at most SCAN_WINDOW points, brackets
  every sign change;
* refine: safeguarded Newton on all brackets of a window together, from
  the root of the degree-7 Hermite interpolant of s through the four scan
  points around each bracket; a step that leaves its bracket or fails to
  halve the previous Newton step falls back to bisection;
* certify: a Newton point w whose previous step was small enough
  (CERTIFY_STEP) is evaluated together with w -+ BRACKET_TOL * max(1, w)
  / 2, each end one spacing of w inward.  Where s changes sign across
  them the root is done at w, with a bracket no wider than that
  tolerance; elsewhere the two values move its bracket in and Newton goes
  on.  A bracket that bisection narrows to the tolerance closes its root.

Refine and certify share one ``char_values`` call per pass, which also
gives each finished root its residual |s(omega)|: typically two calls a
window after its scan, the second certifying every root.
Results are indexed from 1 in increasing order.  ``char_function`` stays
the scalar entry point.  ``asymptotic_eigenvalue`` gives the large-index
estimate on any interval, for comparison with the computed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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

#: a root's bracket is at most 1e-13 * max(1, omega) wide
BRACKET_TOL = 1e-13
#: most scan points in one window; a count up to 460 (1,849 points) is one
SCAN_WINDOW = 4096
#: a Newton point w gets its certificate pair in its own pass when the step
#: to it was at most CERTIFY_STEP sqrt(BRACKET_TOL max(1, w)): Newton's
#: error after a step d is about K d^2, so w is then predicted within half
#: the tolerance for K up to about 1/(2 CERTIFY_STEP^2).  A seed-1 round
#: of the benchmark's spectrum workload evaluates s per root 8.037 times at
#: each of 1, 2, 3, 4, 5, 6 and 10, every request in three calls, and 8.041
#: times at 0.3, where 32 of its 56 requests take a fourth call
CERTIFY_STEP = 5.0
#: the inverse of the conditions p(k) = s_k, p'(k) = s'_k (k = 0..3) on the
#: coefficients c_i of t^i in a degree-7 polynomial p, exact in 108ths; the
#: interleaved rows 2i + 1, (i + 1) c_{i+1}, are those of p', so that one
#: Horner pass evaluates p and p'
_SEPTIC = np.array([
    [108, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 108, 0, 0, 0],
    [-873, 0, 729, 144, -396, -972, -486, -36],
    [1691, 972, -2187, -476, 579, 2592, 1539, 120],
    [-1410, -1620, 2430, 600, -432, -2619, -1836, -153],
    [602, 999, -1242, -359, 174, 1269, 1026, 93],
    [-129, -270, 297, 102, -36, -297, -270, -27],
    [11, 27, -27, -11, 3, 27, 27, 3],
]) / 108
_SEPTIC = np.stack([_SEPTIC, np.roll(np.arange(8)[:, None] * _SEPTIC, -1, 0)],
                   axis=1).reshape(16, 8)


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
    """One computed eigenvalue with refinement diagnostics.

    ``lo`` and ``hi`` are the ends of the root's final bracket: s(omega, b)
    has opposite signs there, or vanishes at one of them, so the root's
    certificate can be checked from the result.  omega lies in the bracket
    but need not be its centre.  ``bracket_width`` is hi - lo.
    """

    index: int
    omega: float
    lam: float
    residual: float
    bracket_width: float
    lo: float
    hi: float


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


def _seed(scan, h, cells, lo, hi):
    """A point of each bracket [lo, hi]: the root in scan cell ``cells`` of
    the degree-7 Hermite interpolant of s through the four points of
    ``scan`` (rows s and h ds/domega, step h) centred on the cell, or
    shifted inward at its ends, by three Newton steps from the secant
    point; clipped into the bracket, a nan to lo."""
    n, k = scan.shape[1], cells.size
    start = np.minimum(np.maximum(cells - 1, 0), n - 4)
    cell = cells - start
    # the four values, then the four slopes, of each stencil
    f = scan.take(start + (np.arange(4) + [[0], [n]]).reshape(8, 1))
    # row i: the coefficients of t^i in p of every cell, then in p'
    c = (_SEPTIC @ f).reshape(8, 2 * k)
    s0, s1 = scan[0][cells], scan[0][cells + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cell + s0 / (s0 - s1)
        for _ in range(3):
            tt = np.concatenate([t, t])
            p = c[7]
            for c_i in c[6::-1]:
                p = p * tt + c_i
            t = t - p[:k] / p[k:]
    return np.fmin(np.fmax(lo + h * (t - cell), lo), hi)


def _refine(problem: EigProblem, omega, lo, hi, s_lo, s_hi):
    """Refine every bracket at once from its seed ``omega`` (overwritten):
    (omega, residual, lo, hi), with [lo, hi] the final bracket.

    Safeguarded Newton from the seed: a step that leaves its bracket or is
    not at most half the previous Newton step (a step that is not finite
    is neither) is replaced by bisection, and every evaluation moves a
    bracket end in.  A bisection halves the bracket, so the Newton step
    after it need only stay inside.
    A Newton point w whose previous step was at most CERTIFY_STEP
    sqrt(BRACKET_TOL max(1, w)) is evaluated together with w -+ half that
    tolerance, its ends one spacing of w inward so that their rounding
    leaves the bracket no wider.  Where s changes sign across them the
    root is done at omega = w with that bracket; elsewhere they move its
    bracket in like any other point, and Newton goes on.  A root whose
    bracket narrows to the tolerance otherwise is closed where it stands.
    A degenerate bracket lo = hi (an exact zero found by the scan) is
    returned as it is.

    Each pass is one ``char_values`` call: the Newton points of the open
    roots with the certificate pairs of some, then omega of the roots
    closed in the previous pass (residual).
    """
    model, rep = problem.model, problem.representation
    bracket = lo, hi, s_lo, s_hi = [
        np.array(a, dtype=float) for a in (lo, hi, s_lo, s_hi)
    ]
    residual = np.zeros(len(lo))
    last_step = hi - lo
    todo, closed = np.flatnonzero(lo < hi), np.flatnonzero(lo == hi)
    while todo.size or closed.size:
        w = omega[todo]
        tol = BRACKET_TOL * np.maximum(1.0, w)
        near = last_step[todo] <= CERTIFY_STEP * np.sqrt(tol)
        pair, w_pair = todo[near], w[near]
        # each end is rounded by at most one spacing of w, so ends one
        # spacing inside keep the bracket within the tolerance
        half = 0.5 * tol[near] - np.spacing(w_pair)
        a, c = w_pair - half, w_pair + half
        s, ds = char_values(
            model, np.concatenate([w, a, c, omega[closed]]), rep
        )
        s, s_a, s_c, s_closed = np.split(
            s, np.cumsum([todo.size, pair.size, pair.size])
        )
        ds = ds[: todo.size]
        residual[closed] = np.abs(s_closed)
        residual[todo] = np.abs(s)

        _shrink(bracket, todo, w, s)
        exact = todo[s == 0.0]
        lo[exact] = hi[exact]
        _shrink(bracket, pair, a, s_a)
        _shrink(bracket, pair, c, s_c)
        ok = np.sign(s_a) * np.sign(s_c) <= 0
        lo[pair[ok]], hi[pair[ok]] = a[ok], c[ok]
        done = np.zeros(todo.size, dtype=bool)
        done[near] = ok

        lo_t, hi_t = lo[todo], hi[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -s / ds
        take = (
            (np.abs(step) <= 0.5 * last_step[todo])
            & (w + step >= lo_t) & (w + step <= hi_t)
        )
        nxt = np.where(take, w + step, 0.5 * (lo_t + hi_t))
        omega[todo] = np.where(done, w, nxt)
        last_step[todo] = np.where(take, np.abs(nxt - w), np.inf)
        narrow = hi_t - lo_t <= tol
        closed, todo = todo[narrow & ~done], todo[~narrow]
    return omega, residual, lo, hi


def find_eigenvalues(problem: EigProblem, count: int) -> list[EigResult]:
    """The lowest ``count`` Dirichlet eigenvalues lam_n = omega_n^2 with
    omega_n >= h_scan.

    Scans upward from h_scan with step h_scan for sign changes of the
    characteristic function, one window at a time, and refines each
    window's brackets before the next.  The first window spans
    (count + 2) pi/b, each later one max(5, roots still missing + 2) pi/b
    (pi/b is the asymptotic root spacing), and none holds more than
    SCAN_WINDOW points, so a batch stays small whatever the count.  The
    scan ends at h_scan + 10 (count + 2) pi/b.  Seeds may use the previous
    window's last three points: the last window can hold as few as two.

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
    back = np.empty((2, 0))
    while True:
        n_cells = max(1, int(math.ceil((hi_target - lo_edge) / h)))
        omegas = lo_edge + h * np.arange(min(n_cells, SCAN_WINDOW - 1) + 1)
        values, slopes = char_values(model, omegas, problem.representation)
        scan = np.concatenate([back, [values, h * slopes]], axis=1)
        s0, s1 = values[:-1], values[1:]
        exact = s0 == 0.0
        # a zero at the right end is the next cell's exact zero
        change = ~exact & (s1 != 0.0) & ((s0 < 0) != (s1 < 0))
        cells = np.flatnonzero(exact | change)[: count - len(results)]
        if cells.size:
            # an exact zero at a scan point is its own degenerate bracket
            end = cells + ~exact[cells]
            lo, hi = omegas[cells], omegas[end]
            seed = _seed(scan, h, cells + back.shape[1], lo, hi)
            omega, residual, lo, hi = _refine(
                problem, seed, lo, hi, values[cells], values[end]
            )
            index = range(len(results) + 1, len(results) + omega.size + 1)
            results += map(tuple.__new__, repeat(EigResult), zip(
                index, omega.tolist(), (omega * omega).tolist(),
                residual.tolist(), (hi - lo).tolist(), lo.tolist(),
                hi.tolist(),
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
        back = scan[:, -4:-1]
        hi_target = min(
            limit, lo_edge + max(5, count - len(results) + 2) * math.pi / b
        )
