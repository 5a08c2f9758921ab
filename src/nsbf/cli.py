"""Command-line front end.

Four subcommands over a shared configuration:

* ``coeffs``  dump the coefficient tables (CSV or JSON)
* ``solve``   evaluate u(omega, x) with its error envelope
* ``eigs``    Dirichlet eigenvalues on [0, b]
* ``bench``   compare both representations against the reference integrator

Configuration may come from a JSON file (``--config``, schema 1) with any
field overridable on the command line; flags win.  The fields of
``RunConfig`` declare the options: each field name is its config key and
the ``dest`` of its flag.  Potentials are either expression text
(``--potential``) or a tabulated two/three-column file
(``--potential-file``, header ``# tabulated-potential v1``); tabulated
input is resampled onto the working grid by local degree-6 interpolation
when the grids differ, and that is flagged in the output metadata.

Exit codes: 0 success, 2 config/parse errors, 3 evaluation errors,
4 spectral errors, 5 reference-oracle failure: the ``exit_code`` of each
error class.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import expr as expr_mod
from . import oracle
from .coefficients import accuracy_indicators
from .errors import ConfigError, NsbfError
from .grid import make_grid
from .solution import (
    SolutionModel,
    build_model,
    error_envelope,
    epsN_surrogate,
    eval_auto,
    eval_uN,
    eval_uN_tilde,
)
from .spectral import EigProblem, find_eigenvalues

__all__ = ["RunConfig", "main", "cmd_coeffs", "cmd_solve", "cmd_eigs", "cmd_bench"]

CONFIG_SCHEMA = 1
BENCH_TRUNCATIONS = (5, 15, 25)


@dataclass
class RunConfig:
    """Resolved run configuration (config file merged with flags)."""

    potential: str | None = None
    potential_file: str | None = None
    b: float = math.pi
    M: int = 1998
    N: int = 25
    format: str = "csv"
    representation: str = "auto"
    omega: list = field(default_factory=list)
    x: list = field(default_factory=list)
    count: int | None = None
    reference: str | None = None
    resampled: bool = field(default=False, init=False)

    def validate(self):
        if (self.potential is None) == (self.potential_file is None):
            raise ConfigError(
                "exactly one of --potential / --potential-file is required"
            )
        if not 0.0 < self.b < math.inf:
            raise ConfigError(f"b must be positive and finite, got {self.b}")
        if self.N < 0:
            raise ConfigError(f"N must be >= 0, got {self.N}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.representation not in ("auto", "improved", "plain"):
            raise ConfigError(f"unknown representation {self.representation!r}")
        for text in self.omega:
            if not cmath.isfinite(_parse_omega(str(text))):
                raise ConfigError(f"omega must be finite, got {text!r}")
        for value in self.x:
            try:
                x = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"cannot parse x value {value!r}") from None
            if not 0.0 <= x <= self.b:
                raise ConfigError(f"x={value!r} lies outside [0, b={self.b}]")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")


def _fits(value, annotation) -> bool:
    """Whether a JSON value has a field's annotated type; an int fits a
    float field, a bool fits nothing."""
    allowed = typing.get_args(annotation) or (annotation,)
    if float in allowed:
        allowed += (int,)
    return isinstance(value, allowed) and not isinstance(value, bool)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if raw.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"config schema must be {CONFIG_SCHEMA}, got {raw.get('schema')!r}"
        )
    hints = typing.get_type_hints(RunConfig)
    options = {f.name for f in fields(RunConfig) if f.init}
    out = {}
    for key, value in raw.items():
        if key == "schema":
            continue
        if key not in options:
            raise ConfigError(f"unknown config field {key!r}")
        if not _fits(value, hints[key]):
            kind = getattr(hints[key], "__name__", hints[key])
            raise ConfigError(
                f"config field {key!r} must be {kind}, got {value!r}"
            )
        out[key] = value
    return out


def _read_potential_table(path: str):
    """Parse a tabulated potential file: x, q(x) [, Im q(x)]."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read potential file {path}: {exc}") from exc
    if not lines or lines[0].strip() != "# tabulated-potential v1":
        raise ConfigError(
            f"{path}: missing '# tabulated-potential v1' header"
        )
    xs, vals = [], []
    for i, line in enumerate(lines[1:], start=2):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise ConfigError(f"{path}:{i}: expected 2 or 3 columns")
        try:
            x, re = float(parts[0]), float(parts[1])
            im = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: {exc}") from exc
        if not all(map(math.isfinite, (x, re, im))):
            raise ConfigError(f"{path}:{i}: x and q must be finite")
        xs.append(x)
        vals.append(re + 1j * im if im != 0.0 else re)
    xs = np.asarray(xs, dtype=float)
    if len(xs) < 7 or xs[0] != 0.0:
        # the degree-6 resampling stencil spans 7 rows
        raise ConfigError(f"{path}: need at least 7 samples starting at x=0")
    steps = np.diff(xs)
    if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
        raise ConfigError(f"{path}: x column must be uniform and increasing")
    return xs, np.array(vals)


def _interp6(x_src: np.ndarray, v_src: np.ndarray, x_tgt: np.ndarray) -> np.ndarray:
    """Local degree-6 Lagrange interpolation from one uniform grid to
    arbitrary targets inside its span."""
    h = x_src[1] - x_src[0]
    x = np.asarray(x_tgt, dtype=float)
    j0 = np.minimum(np.maximum(np.rint(x / h).astype(int) - 3, 0), len(x_src) - 7)
    j = j0[:, None] + np.arange(7)
    nodes = x_src[j]
    # ratios[:, k, m] = (x - x_m) / (x_k - x_m), 1 where m == k; the weights
    # take them in increasing m and the terms add in increasing k, the order
    # of the scalar Lagrange formula, which np.prod and np.sum do not promise
    diag = np.arange(7)
    den = nodes[:, :, None] - nodes[:, None, :]
    den[:, diag, diag] = 1.0
    ratios = (x[:, None] - nodes)[:, None, :] / den
    ratios[:, diag, diag] = 1.0
    w = 1.0
    for m in range(7):
        w = w * ratios[:, :, m]
    terms = w * v_src[j]
    acc = 0.0
    for k in range(7):
        acc = acc + terms[:, k]
    return np.asarray(acc, dtype=v_src.dtype)


def _resolve_potential(cfg: RunConfig):
    """Returns (q_input for build_model, q callable, description).

    The callable maps an ndarray of x to an array of q(x), as the oracle
    samples it; for expression text it is also what build_model samples.
    """
    if cfg.potential is not None:
        tree = expr_mod.parse(cfg.potential)
        q = lambda x: expr_mod.evaluate(tree, x)
        return q, q, cfg.potential
    xs, vals = _read_potential_table(cfg.potential_file)
    b_file = float(xs[-1])
    if cfg.b > b_file + 1e-12:
        raise ConfigError(
            f"requested b={cfg.b} exceeds tabulated span {b_file}"
        )
    target = np.asarray(make_grid(cfg.b, cfg.M).nodes, dtype=float)
    if len(xs) == cfg.M + 1 and abs(b_file - cfg.b) <= 1e-12 * cfg.b:
        samples = vals
    else:
        samples = _interp6(xs, vals, target)
        cfg.resampled = True
    return (samples, lambda x: _interp6(xs, vals, x),
            f"tabulated:{cfg.potential_file}")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _fmt_array(a) -> list[str]:
    """``_fmt`` over every value of a float array, flattened in C order,
    as one string-formatting operation."""
    a = np.asarray(a, dtype=float).ravel()
    if not (a.any() or np.signbit(a).any()):
        return ["0"] * a.size  # all +0.0: the imaginary part of a real table
    values = a.tolist()
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _cells(rows: list) -> list[list[str]]:
    return [[_fmt(v) for v in row] for row in rows]


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)`` for a document whose
    ``rows`` are lists of strings.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder, so
    the rows go through the C encoder in one call, its item separator the
    indentation of a cell, and are spliced in as text.  A newline inside a
    JSON string is escaped, so the row breaks are the only "],<newline>"
    and the top-level "rows" key is unique.
    """
    text = json.dumps({**doc, "rows": []}, indent=1, sort_keys=True)
    rows = json.dumps(doc["rows"], separators=(",\n   ", ": "))
    rows = rows[2:-2].replace("],\n   [", "\n  ],\n  [\n   ")
    return text.replace('\n "rows": []', f'\n "rows": [\n  [\n   {rows}\n  ]\n ]', 1)


def _emit(cfg: RunConfig, command: str, metadata: dict, columns: list,
          cells: list, summary: list | None = None, out=None):
    """Write a table whose cells are already formatted strings."""
    out = out or sys.stdout
    if cfg.format == "json":
        doc = {
            "schema": CONFIG_SCHEMA,
            "command": command,
            "metadata": metadata,
            "columns": columns,
            "rows": cells,
        }
        if summary:
            doc["summary"] = summary
        out.write(_json_text(doc) + "\n")
        return
    out.write(f"# nsbf {command}\n")
    for key in sorted(metadata):
        out.write(f"# {key}: {metadata[key]}\n")
    out.write(",".join(columns) + "\n")
    out.writelines(",".join(row) + "\n" for row in cells)
    for line in summary or []:
        out.write(f"# {line}\n")


def _metadata(cfg: RunConfig, desc: str, model: SolutionModel) -> dict:
    """The run's settings, and the accuracy indicators eps1/eps2 at b."""
    eps1, eps2 = accuracy_indicators(model.q, model.Q, model.alpha, model.N)
    md = {
        "generated": datetime.now(timezone.utc).isoformat(),
        "potential": desc,
        "b": _fmt(cfg.b),
        "M": cfg.M,
        "N": cfg.N,
        "eps1_at_b": _fmt(eps1[-1]),
        "eps2_at_b": _fmt(eps2[-1]),
    }
    if cfg.resampled:
        md["resampled"] = "true"
    return md


def _build(cfg: RunConfig):
    q_input, q_callable, desc = _resolve_potential(cfg)
    return build_model(q_input, cfg.b, cfg.M, cfg.N), q_callable, desc


def cmd_coeffs(cfg: RunConfig, out=None) -> int:
    """Dump beta/alpha tables: columns x, n, beta_re, beta_im, alpha_re,
    alpha_im (beta blank past its top row)."""
    model, _, desc = _build(cfg)
    md = _metadata(cfg, desc, model)
    md["beta_rows"] = model.N + 1
    md["alpha_rows"] = model.N + 3
    md["beta_cancellation_flags"] = int(
        np.sum(model.beta.flags[: model.N + 1])
    )
    # alpha_n reads beta_{n-2}, and rows 0-3 are closed forms
    md["alpha_cancellation_flags"] = int(
        np.sum(model.beta.flags[2 : model.N + 1])
    )
    # one row per (n, node), n-major; beta is blank past row N
    nodes = model.grid.M + 1
    n_alpha, n_beta = model.N + 3, model.N + 1
    alpha = np.asarray(model.alpha.alpha[:n_alpha], dtype=complex)
    beta = np.asarray(model.beta.beta[:n_beta], dtype=complex)
    blank = [""] * ((n_alpha - n_beta) * nodes)
    cells = list(zip(
        _fmt_array(model.grid.nodes) * n_alpha,
        list(map(str, np.repeat(np.arange(n_alpha), nodes).tolist())),
        _fmt_array(beta.real) + blank,
        _fmt_array(beta.imag) + blank,
        _fmt_array(alpha.real),
        _fmt_array(alpha.imag),
    ))
    _emit(cfg, "coeffs", md,
          ["x", "n", "beta_re", "beta_im", "alpha_re", "alpha_im"],
          cells, out=out)
    return 0


def _parse_omega(text: str) -> complex:
    try:
        val = complex(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse omega value {text!r}") from exc
    return val.real if val.imag == 0.0 else val


def cmd_solve(cfg: RunConfig, out=None) -> int:
    """Evaluate the solution at each (omega, x) pair of the request."""
    if not cfg.omega:
        raise ConfigError("solve needs at least one --omega")
    if not cfg.x:
        raise ConfigError("solve needs at least one --x")
    model, _, desc = _build(cfg)
    eps = None  # the surrogate, made for the first envelope
    evaluator = {
        "auto": eval_auto,
        "improved": eval_uN,
        "plain": eval_uN_tilde,
    }[cfg.representation]
    rows = []
    for w_text in cfg.omega:
        w = _parse_omega(str(w_text))
        for x_req in cfg.x:
            x_req = float(x_req)
            j = model.grid.nearest_index(x_req)
            u = evaluator(model, w, j)
            # the envelope bounds the improved form only: blank elsewhere
            improved = cfg.representation == "improved" or (
                cfg.representation == "auto" and abs(w) >= model.omega_switch
            )
            env = ""
            if improved:
                if eps is None:
                    eps = epsN_surrogate(model)
                env = error_envelope(model, w, j, eps)
            rows.append((w_text, float(model.grid.nodes[j]), u.real, u.imag, env))
    md = _metadata(cfg, desc, model)
    md["representation"] = cfg.representation
    _emit(cfg, "solve", md, ["omega", "x", "re_u", "im_u", "envelope"],
          _cells(rows), out=out)
    return 0


def cmd_eigs(cfg: RunConfig, out=None) -> int:
    """Dirichlet eigenvalue table, lowest `count` indices."""
    model, _, desc = _build(cfg)
    rep = "improved" if cfg.representation == "auto" else cfg.representation
    results = find_eigenvalues(EigProblem(model, representation=rep), cfg.count)
    Qb = float(np.asarray(model.Q, dtype=complex)[-1].real)
    # the classical lam_n = (n pi/b)^2 + Q(b)/b + O(n^-2), exact for a
    # constant q; the squared form of ``asymptotic_eigenvalue`` adds
    # Q(b)^2/(4 pi^2 n^2), which is far off at low n
    rows = [[r.index, r.lam, r.omega, r.residual,
             (r.index * (math.pi / cfg.b)) ** 2 + Qb / cfg.b] for r in results]
    md = _metadata(cfg, desc, model)
    md["representation"] = rep
    md["count"] = cfg.count
    _emit(cfg, "eigs", md, ["n", "lambda", "omega", "residual", "asymptotic"],
          _cells(rows), out=out)
    return 0


def _load_reference(path: str, count: int) -> np.ndarray:
    try:
        vals = []
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                vals.append(float(line.split(",")[-1]))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read reference file {path}: {exc}") from exc
    if len(vals) < count:
        raise ConfigError(
            f"reference file has {len(vals)} eigenvalues, need {count}"
        )
    return np.asarray(vals[:count])


def cmd_bench(cfg: RunConfig, out=None) -> int:
    """Per-index eigenvalue errors for both representations at several N.

    The truncations are those of BENCH_TRUNCATIONS below N, and N itself.
    The reference eigenvalues come from the built-in integrator (seeded by
    the improved run at N) or from ``--reference``.
    """
    count = cfg.count
    truncations = [n for n in BENCH_TRUNCATIONS if n < cfg.N] + [cfg.N]
    model, q_callable, desc = _build(cfg)

    runs: dict[tuple[str, int], np.ndarray] = {}
    for trunc in truncations:
        sub = model.with_truncation(trunc)
        for rep in ("improved", "plain"):
            problem = EigProblem(sub, representation=rep)
            res = find_eigenvalues(problem, count)
            runs[(rep, trunc)] = np.array([r.lam for r in res])

    if cfg.reference:
        lam_ref = _load_reference(cfg.reference, count)
        ref_desc = cfg.reference
    else:
        seeds = runs[("improved", cfg.N)]
        lam_ref = oracle.eigenvalues_reference(q_callable, cfg.b, seeds)
        ref_desc = "built-in adaptive integrator"

    columns = ["n", "lambda_ref"]
    keys = []
    for rep in ("plain", "improved"):
        for trunc in truncations:
            columns.append(f"err_{rep}_N{trunc}")
            keys.append((rep, trunc))
    rows = []
    for i in range(count):
        row = [i + 1, lam_ref[i]]
        row.extend(abs(runs[key][i] - lam_ref[i]) for key in keys)
        rows.append(row)

    summary = []
    for rep, trunc in keys:
        errs = np.abs(runs[(rep, trunc)] - lam_ref)
        summary.append(
            f"summary {rep} N={trunc}: max={float(np.max(errs)):.6e} "
            f"median={float(np.median(errs)):.6e}"
        )
    md = _metadata(cfg, desc, model)
    md["reference"] = ref_desc
    md["count"] = count
    _emit(cfg, "bench", md, columns, _cells(rows), summary, out=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsbf",
        description="Solution representations and Dirichlet eigenvalues "
        "for -u'' + q u = omega^2 u on [0, b]",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("coeffs", "dump coefficient tables"),
        ("solve", "evaluate u(omega, x)"),
        ("eigs", "compute Dirichlet eigenvalues"),
        ("bench", "compare both representations against the reference"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON config file (schema 1)")
        p.add_argument("--potential", help="potential expression q(x)")
        p.add_argument("--potential-file", help="tabulated potential path")
        p.add_argument("--b", type=float, help="interval endpoint (default pi)")
        p.add_argument("--M", type=int, help="grid subintervals (default 1998)")
        p.add_argument("--N", type=int, help="series truncation (default 25)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        if name == "solve":
            p.add_argument("--omega", action="append", default=None,
                           help="spectral parameter (repeatable)")
            p.add_argument("--x", action="append", type=float, default=None,
                           help="evaluation point in [0, b] (repeatable)")
            p.add_argument("--representation",
                           choices=("auto", "improved", "plain"),
                           help="which representation to evaluate")
        if name == "eigs":
            p.add_argument("--count", type=int, help="number of eigenvalues")
            p.add_argument("--representation",
                           choices=("improved", "plain"),
                           help="characteristic-function representation")
        if name == "bench":
            p.add_argument("--count", type=int, help="eigenvalue count (default 460)")
            p.add_argument("--reference", help="reference eigenvalue file")
    return parser


def _merge_config(args) -> RunConfig:
    values = load_config(args.config) if args.config else {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    cfg = RunConfig(**values)
    if cfg.count is None:
        cfg.count = 460 if args.command == "bench" else 10
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "coeffs": cmd_coeffs,
        "solve": cmd_solve,
        "eigs": cmd_eigs,
        "bench": cmd_bench,
    }[args.command]
    try:
        cfg = _merge_config(args)
        return handler(cfg)
    except NsbfError as exc:
        print(f"nsbf {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
