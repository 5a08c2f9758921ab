"""Reference values made apart from the nsbf series code.

Nothing here imports nsbf.  The references are closed forms:

* constant potentials q = c (real, negative or complex): trigonometric
  closed forms through ``cmath``;
* the family q = c/(x+a)^2, which holds Paine's potential 1/(x+0.1)^2:
  with t = x + a and nu = sqrt(c + 1/4), the functions sqrt(t) H_nu(omega t)
  (Hankel functions of both kinds, from ``scipy.special``) solve the
  equation, and the Dirichlet eigenvalues are the squared zeros of the
  Bessel cross product J_nu(k a) Y_nu(k (b+a)) - Y_nu(k a) J_nu(k (b+a));
* q = exp(x) on [0, pi]: a sine-basis Rayleigh-Ritz matrix whose entries
  have the closed form int_0^pi e^x cos(m x) dx = (e^pi (-1)^m - 1)/(1+m^2).

The eigenvalue tables do not depend on the benchmark seed and are stored in
``tables/eigenvalues.json``; ``python3 perfbench/refs.py --write-table``
remakes that file.  The seeded references (values of u and s at seeded
points) are made by ``python3 perfbench/refs.py --workload W --seed S``,
which prints them as JSON; the benchmark runs it as a child process, so
that reference work enters neither the set-up time nor the peak memory of
the measured process.
"""

from __future__ import annotations

import os

# one BLAS thread, so that the Rayleigh-Ritz eigenvalues round the same way
# on every machine the table is remade on
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from scipy import optimize, special  # noqa: E402

import plan  # noqa: E402  (the benchmark's plans; imports no nsbf code)

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tables",
                          "eigenvalues.json")
#: eigenvalues stored per potential; the spectrum workload asks for at most this
TABLE_COUNT = 460
#: Rayleigh-Ritz basis size for exp(x); its float64 round-off on lambda_460 is
#: about eps * 1500^2, i.e. a few 1e-10
RR_MODES = 1500


# --- constant potentials -----------------------------------------------------

def constant_u(c: complex, omega: complex, x: float) -> complex:
    """u(omega, x) for q = c with u(0) = 1, u'(0) = i omega."""
    k = cmath.sqrt(omega * omega - c)
    if abs(k * x) < 1e-8:
        return 1.0 + 1j * omega * x
    return cmath.cos(k * x) + 1j * omega * cmath.sin(k * x) / k


def constant_eigenvalues(c: float, count: int) -> list[float]:
    """Dirichlet eigenvalues n^2 + c on [0, pi]."""
    return [n * n + c for n in range(1, count + 1)]


# --- the c/(x+a)^2 family ------------------------------------------------------

def _hankel_pair(nu: float, omega: np.ndarray, t: np.ndarray):
    """sqrt(t) H_nu^(1,2)(omega t) and their t-derivatives."""
    z = omega * t
    rt = np.sqrt(t)
    h1 = special.hankel1(nu, z)
    h2 = special.hankel2(nu, z)
    d1 = h1 / (2.0 * rt) + rt * omega * special.h1vp(nu, z)
    d2 = h2 / (2.0 * rt) + rt * omega * special.h2vp(nu, z)
    return rt * h1, rt * h2, d1, d2


def inverse_square_solution(c: float, a: float, omegas, xs, u0, du0) -> np.ndarray:
    """Solution of -u'' + c/(x+a)^2 u = omega^2 u at (omegas[i], xs[i]).

    u0, du0 give u(0) and u'(0), one per pair (broadcast).  Complex omega
    with Re omega > 0 is allowed.
    """
    nu = math.sqrt(c + 0.25)
    omegas = np.asarray(omegas, dtype=complex)
    xs = np.asarray(xs, dtype=float)
    u0 = np.broadcast_to(np.asarray(u0, dtype=complex), omegas.shape)
    du0 = np.broadcast_to(np.asarray(du0, dtype=complex), omegas.shape)
    f1, f2, g1, g2 = _hankel_pair(nu, omegas, np.full(omegas.shape, a))
    det = f1 * g2 - f2 * g1
    A = (u0 * g2 - f2 * du0) / det
    B = (f1 * du0 - g1 * u0) / det
    h1, h2, _, _ = _hankel_pair(nu, omegas, xs + a)
    return A * h1 + B * h2


def inverse_square_u(c: float, a: float, omegas, xs) -> np.ndarray:
    """u(omega, x) with u(0) = 1, u'(0) = i omega."""
    omegas = np.asarray(omegas, dtype=complex)
    return inverse_square_solution(c, a, omegas, xs, 1.0, 1j * omegas)


def inverse_square_s(c: float, a: float, lams, b: float) -> np.ndarray:
    """s(lam, b) = u(b) with u(0) = 0, u'(0) = 1, for lam > 0."""
    lams = np.asarray(lams, dtype=float)
    u = inverse_square_solution(c, a, np.sqrt(lams), np.full(lams.shape, b), 0.0, 1.0)
    return u.real


def inverse_square_eigenvalues(c: float, a: float, b: float, count: int) -> list[float]:
    """The first ``count`` Dirichlet eigenvalues, all positive for c > 0."""
    nu = math.sqrt(c + 0.25)
    B = b + a

    def cross(k):
        return (special.jv(nu, k * a) * special.yv(nu, k * B)
                - special.yv(nu, k * a) * special.jv(nu, k * B))

    # zeros in k are spaced about pi/b apart; a step of a tenth of that
    # cannot skip one
    step = 0.1 * math.pi / b
    k_hi = (count + 5) * math.pi / b + 10.0
    ks = np.arange(step, k_hi, step)
    v = cross(ks)
    roots = []
    for i in np.nonzero(np.sign(v[:-1]) != np.sign(v[1:]))[0]:
        k = optimize.brentq(cross, ks[i], ks[i + 1], xtol=1e-15, maxiter=200)
        roots.append(k * k)
        if len(roots) == count:
            break
    if len(roots) < count:
        raise RuntimeError(f"found {len(roots)} of {count} cross-product zeros")
    return roots


# --- exp(x) on [0, pi] ---------------------------------------------------------

def exp_eigenvalues(count: int, modes: int = RR_MODES) -> list[float]:
    """Rayleigh-Ritz eigenvalues of -u'' + e^x u in the basis sin(k x)."""
    k = np.arange(1, modes + 1)

    def cos_moment(m):
        return (math.exp(math.pi) * np.where(m % 2 == 0, 1.0, -1.0) - 1.0) / (1.0 + m * m)

    J, K = np.meshgrid(k, k, indexing="ij")
    H = (cos_moment(J - K) - cos_moment(J + K)) / math.pi + np.diag(k.astype(float) ** 2)
    return [float(v) for v in np.linalg.eigvalsh(H)[:count]]


# --- stored table ----------------------------------------------------------------

def make_table(count: int = TABLE_COUNT) -> dict:
    return {
        "count": count,
        "exp": exp_eigenvalues(count),
        "paine": inverse_square_eigenvalues(1.0, 0.1, math.pi, count),
        "neg09": constant_eigenvalues(-0.9, count),
        "neg3": constant_eigenvalues(-3.0, count),
    }


def load_table() -> dict:
    with open(TABLE_PATH) as fh:
        return json.load(fh)


# --- seeded references -------------------------------------------------------------

def _u_reference(kind: str, params: dict, omegas, xs) -> np.ndarray:
    if kind == "constant":
        c = complex(*params["c"])
        return np.array([constant_u(c, complex(w), float(x)) for w, x in zip(omegas, xs)])
    return inverse_square_u(params["c"], params["a"], omegas, xs)


def seeded_references(workload: str, seed: int) -> dict:
    """References for every check point of one round of ``workload``."""
    requests = plan.make_round(workload, seed)
    out = {}
    for key, (kind, params, omegas, xs) in plan.solution_points(workload, requests).items():
        u = _u_reference(kind, params, [complex(*w) for w in omegas], xs)
        out[key] = [[float(v.real), float(v.imag)] for v in u]
    # characteristic-function points come only from the inverse-square family
    for key, (_, params, lams, b) in plan.char_points(workload, requests).items():
        out[key] = [float(v) for v in inverse_square_s(params["c"], params["a"], lams, b)]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write-table", action="store_true",
                   help="remake tables/eigenvalues.json")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    args = p.parse_args(argv)
    if args.write_table:
        os.makedirs(os.path.dirname(TABLE_PATH), exist_ok=True)
        with open(TABLE_PATH, "w") as fh:
            json.dump(make_table(), fh, indent=0)
            fh.write("\n")
        return 0
    if args.workload is None or args.seed is None:
        p.error("give --write-table, or --workload and --seed")
    json.dump(seeded_references(args.workload, args.seed), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
