import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsbf
from nsbf import build_model, cli, make_grid, oracle, spectral
from nsbf.cli import RunConfig, _resolve_potential, main
from nsbf.grid import _M_CAP

from conftest import HOSTILE_NESTINGS

PI = math.pi
#: the directory that holds the nsbf package, for child processes
SRC = os.path.dirname(os.path.dirname(nsbf.__file__))


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def run_cli_stderr(args):
    """Exit code and stderr; an argparse rejection counts as its exit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(args)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


FAST = ["--M", "102", "--N", "4"]


class TestSolveCommand:
    def test_free_particle_value(self):
        rc, out = run_cli(
            ["solve", "--potential", "0", "--omega", "2",
             "--x", str(PI / 2), "--M", "600", "--N", "8"]
        )
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["omega", "x", "re_u", "im_u", "envelope"]
        re_u, im_u = float(rows[0][2]), float(rows[0][3])
        assert re_u == pytest.approx(-1.0, abs=1e-14)
        assert im_u == pytest.approx(0.0, abs=1e-14)

    def test_constant_potential_closed_form(self):
        rc, out = run_cli(
            ["solve", "--potential", "1", "--omega", "50",
             "--x", str(PI), "--N", "25"]
        )
        assert rc == 0
        _, rows = data_rows(out)
        wp = math.sqrt(50.0**2 - 1.0)
        x = float(rows[0][1])
        exact = math.cos(wp * x) + 1j * 50.0 * math.sin(wp * x) / wp
        got = float(rows[0][2]) + 1j * float(rows[0][3])
        assert abs(got - exact) < 1e-10

    def test_large_imaginary_omega_envelope_finite(self):
        # sinh(2 Im(omega) x) overflows here; the envelope itself does not
        rc, out = run_cli(
            ["solve", "--potential", "exp(x)", "--omega", "200+120j",
             "--x", "3"]
        )
        assert rc == 0
        _, rows = data_rows(out)
        env = float(rows[0][4])
        assert math.isfinite(env) and env > 0.0

    def test_zero_omega_improved_is_exit_3(self):
        rc, _ = run_cli(
            ["solve", "--potential", "0", "--omega", "0", "--x", "1",
             "--representation", "improved", *FAST]
        )
        assert rc == 3

    def test_zero_omega_auto_falls_back(self):
        rc, out = run_cli(
            ["solve", "--potential", "1", "--omega", "0", "--x", "1", *FAST]
        )
        assert rc == 0
        _, rows = data_rows(out)
        x = float(rows[0][1])
        assert float(rows[0][2]) == pytest.approx(math.cosh(x), rel=1e-8)

    @pytest.mark.parametrize("rep, omega, has_envelope", [
        ("plain", "841.65", False),
        ("auto", "0.5", False),
        ("improved", "0.5", True),
        ("auto", "841.65", True),
    ])
    def test_envelope_only_for_the_improved_form(self, monkeypatch, rep,
                                                 omega, has_envelope):
        # the surrogate, which builds the model's rows past N+2, is made
        # only for an envelope
        calls = []
        surrogate = cli.epsN_surrogate
        monkeypatch.setattr(cli, "epsN_surrogate",
                            lambda model: calls.append(1) or surrogate(model))
        rc, out = run_cli(
            ["solve", "--potential=-1.5", "--omega", omega, "--x", "0.0425",
             "--representation", rep]
        )
        assert rc == 0
        assert len(calls) == has_envelope
        _, rows = data_rows(out)
        if has_envelope:
            env = float(rows[0][4])
            assert math.isfinite(env) and env > 0.0
        else:
            assert rows[0][4] == ""

    @pytest.mark.parametrize("rep", ["auto", "plain"])
    def test_omega_past_the_phase_limit_exit_3(self, rep):
        # omega x = 3e200: the rounded product keeps no digit of the phase
        rc, err = run_cli_stderr(
            ["solve", "--potential", "0", "--omega", "1e200", "--x", "3",
             "--representation", rep, *FAST]
        )
        assert rc == 3
        assert len(err.strip().splitlines()) == 1

    def test_malformed_potential_exit_2(self):
        rc, _ = run_cli(["solve", "--potential", "exp(", "--omega", "1",
                         "--x", "1", *FAST])
        assert rc == 2

    def test_missing_potential_exit_2(self):
        rc, _ = run_cli(["solve", "--omega", "1", "--x", "1"])
        assert rc == 2


class TestEigsCommand:
    def test_free_particle_squares(self):
        rc, out = run_cli(
            ["eigs", "--potential", "0", "--count", "5", "--M", "600",
             "--N", "8"]
        )
        assert rc == 0
        _, rows = data_rows(out)
        lams = [float(r[1]) for r in rows]
        assert lams == pytest.approx([1.0, 4.0, 9.0, 16.0, 25.0], abs=1e-11)

    def test_constant_potential(self):
        rc, out = run_cli(
            ["eigs", "--potential", "1", "--count", "3", "--M", "600",
             "--N", "15"]
        )
        assert rc == 0
        _, rows = data_rows(out)
        lams = [float(r[1]) for r in rows]
        assert lams == pytest.approx([2.0, 5.0, 10.0], abs=1e-10)

    def test_root_at_a_scan_point_printed_once(self):
        # q = -3: s(omega, pi) is exactly 0 at the scan point omega = 1,
        # whose cell to the left used to count it a second time
        rc, out = run_cli(["eigs", "--potential=-3", "--count", "3"])
        assert rc == 0
        _, rows = data_rows(out)
        lams = [float(r[1]) for r in rows]
        assert lams == pytest.approx([1.0, 6.0, 13.0], rel=1e-12)

    def test_asymptotic_column_exact_for_a_constant(self):
        # (n pi/b)^2 + Q(b)/b is lambda_n for constant q at every n, the
        # missed lambda_1 = -2 of q = -3 included; the squared form
        # (n pi/b + Q(b)/(2 pi n))^2 read 0.25, 1.5625 and 6.25 here
        rc, out = run_cli(["eigs", "--potential=-3", "--count", "3"])
        assert rc == 0
        _, rows = data_rows(out)
        asym = [float(r[4]) for r in rows]
        assert asym == pytest.approx([-2.0, 1.0, 6.0], rel=1e-12)

    def test_asymptotic_column_for_every_b(self):
        # (n pi/b)^2 + Q(b)/b is within 5e-10 of lambda_200 at b = 2 (the
        # squared form of asymptotic_eigenvalue within 2.6e-5)
        rc, out = run_cli(["eigs", "--potential", "exp(x)", "--b", "2",
                           "--count", "200"])
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["n", "lambda", "omega", "residual", "asymptotic"]
        lam, asym = float(rows[-1][1]), float(rows[-1][4])
        assert abs(asym - lam) <= 1e-4

    @pytest.mark.parametrize("potential", ["20", "-0.9"])
    def test_correct_spectrum_leaves_stderr_empty(self, potential):
        # in a child process, where nothing captures logging or warnings
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "nsbf.cli",
             "eigs", f"--potential={potential}", "--count", "3"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("potential, above", [("70", True),
                                                  ("exp(x)", False)])
    def test_metadata_states_eps1_at_b(self, potential, above):
        # N = 25 cannot resolve q = 70 on [0, pi]: its lambda_1 reads
        # 66.74 for 71
        rc, out = run_cli(["eigs", "--potential", potential, "--count", "3",
                           "--format", "json"])
        assert rc == 0
        eps1 = float(json.loads(out)["metadata"]["eps1_at_b"])
        assert eps1 > 1e6 if above else eps1 < 1e-4

    def test_range_exhaustion_exit_4(self, monkeypatch):
        # a characteristic function without a sign change scans to the end
        def no_sign_change(model, omegas, rep, _shared=False):
            return np.ones(len(omegas)), np.zeros(len(omegas))

        monkeypatch.setattr(spectral, "char_values", no_sign_change)
        rc, err = run_cli_stderr(["eigs", "--potential", "0", "--count", "10",
                                  "--M", "600", "--N", "8"])
        assert rc == 4
        assert "found 0 of 10 sign changes" in err


#: the README's exit code of each error class, and a command raising it;
#: a (module, attribute, value) patch makes the failure where no input does
ERROR_COMMANDS = {
    "ConfigError": (2, ["eigs", "--potential", "0", "--count", "0"], None),
    "GridError": (2, ["eigs", "--potential", "0", "--M", "100"], None),
    "ExpressionSyntaxError": (2, ["eigs", "--potential", "1+"], None),
    "ExpressionEvalError": (3, ["eigs", "--potential", "1/x"], None),
    "ConvergenceError": (
        3, ["eigs", "--potential", "1", "--b", "1e20", "--count", "2"], None),
    "NearVanishingError": (
        3, ["eigs", "--potential", "-1", *FAST, "--count", "2"],
        ("formal_powers", "F_COMBINED_MIN", 1e300)),
    "LimitError": (
        3, ["solve", "--potential", "0", "--omega", "1e200", "--x", "3"], None),
    "ZeroOmegaError": (
        3, ["solve", "--potential", "0", "--omega", "0", "--x", "1",
            "--representation", "improved"], None),
    "RangeExhaustedError": (
        4, ["eigs", "--potential", "0", "--count", "10", "--M", "600",
            "--N", "8"], ("spectral", "char_values",
                          lambda model, w, rep, _shared=False: (
                              np.ones(len(w)), np.zeros(len(w))))),
    "OracleError": (
        5, ["bench", "--potential", "0", "--count", "5", "--M", "600",
            "--N", "8"], ("oracle", "MAX_SWEEPS", 0)),
}


def test_error_classes_cover_the_documented_codes():
    subclasses = {name for name, cls in vars(nsbf.errors).items()
                  if isinstance(cls, type) and issubclass(cls, nsbf.NsbfError)
                  and cls is not nsbf.NsbfError}
    assert subclasses == set(ERROR_COMMANDS)
    assert nsbf.NsbfError.exit_code == 3


@pytest.mark.parametrize("name", ERROR_COMMANDS)
def test_each_error_class_exits_with_its_code(monkeypatch, name):
    code, argv, patch = ERROR_COMMANDS[name]
    cls = getattr(nsbf.errors, name)
    if patch is not None:
        module, attr, value = patch
        monkeypatch.setattr(getattr(nsbf, module), attr, value)
    raised = []
    original = cls.__init__

    def recording(self, *args, **kwargs):
        raised.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", recording)
    rc, err = run_cli_stderr(argv)
    assert raised and raised[-1] is cls
    assert cls.exit_code == rc == code
    assert len(err.splitlines()) == 1 and err.startswith(f"nsbf {argv[0]}: ")


@pytest.mark.parametrize("command, args", [
    ("coeffs", []),
    ("solve", ["--omega", "2", "--x", "1"]),
    ("eigs", ["--count", "2"]),
    ("bench", ["--count", "2"]),
])
def test_every_command_states_eps_at_b(command, args):
    rc, out = run_cli([command, "--potential", "0", *FAST, "--format", "json",
                       *args])
    assert rc == 0
    md = json.loads(out)["metadata"]
    assert float(md["eps1_at_b"]) >= 0.0 and float(md["eps2_at_b"]) >= 0.0


class TestCoeffsCommand:
    def test_row_count_rule(self):
        # alpha rows 0..N+2, beta rows 0..N
        rc, out = run_cli(
            ["coeffs", "--potential", "exp(x)", *FAST, "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["metadata"]["alpha_rows"] == 7
        assert doc["metadata"]["beta_rows"] == 5
        assert "eps1_at_b" in doc["metadata"]
        blanks = [r for r in doc["rows"] if r[2] == ""]
        assert len(blanks) == 2 * 103  # two alpha-only rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_data_rows_match_scalar_formatting(self, fmt):
        rc, out = run_cli(
            ["coeffs", "--potential", "exp(x)", "--M", "66", "--N", "4",
             "--format", fmt]
        )
        assert rc == 0
        rows = json.loads(out)["rows"] if fmt == "json" else data_rows(out)[1]
        model = build_model("exp(x)", PI, 66, 4)
        expected = []
        for n in range(7):
            for j in range(67):
                x = float(model.grid.nodes[j])
                a = complex(model.alpha.alpha[n, j])
                b = complex(model.beta.beta[n, j]) if n <= 4 else None
                b_cells = ["", ""] if b is None else [f"{b.real:.17g}", f"{b.imag:.17g}"]
                expected.append([f"{x:.17g}", str(n), *b_cells,
                                 f"{a.real:.17g}", f"{a.imag:.17g}"])
        assert rows == expected

    @pytest.mark.parametrize("args", [
        ["coeffs", "--potential", "exp(x)", "--M", "66", "--N", "4"],
        ["eigs", "--potential", "exp(x)", "--count", "3", *FAST],
    ])
    def test_json_bytes_match_indenting_encoder(self, args):
        rc, out = run_cli([*args, "--format", "json"])
        assert rc == 0
        assert out == json.dumps(json.loads(out), indent=1, sort_keys=True) + "\n"

    def test_zero_potential_all_zero(self):
        rc, out = run_cli(["coeffs", "--potential", "0", *FAST])
        assert rc == 0
        _, rows = data_rows(out)
        for r in rows:
            assert float(r[4]) == 0.0
            if r[2]:
                assert float(r[2]) == 0.0


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "schema": 1, "potential": "0", "M": 102, "N": 4,
            "omega": ["3"], "x": [1.0],
        }))
        rc, out = run_cli(["solve", "--config", str(cfg), "--omega", "2"])
        assert rc == 0
        _, rows = data_rows(out)
        assert rows[0][0] == "2"  # flag wins over config

    def test_bad_schema_exit_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schema": 2, "potential": "0"}))
        rc, _ = run_cli(["solve", "--config", str(cfg), "--omega", "1",
                         "--x", "1"])
        assert rc == 2

    def test_unknown_field_exit_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schema": 1, "potential": "0",
                                   "bogus": 1}))
        rc, _ = run_cli(["solve", "--config", str(cfg), "--omega", "1",
                         "--x", "1"])
        assert rc == 2

    def test_deterministic_data_rows(self):
        args = ["solve", "--potential", "exp(x)", "--omega", "2.5",
                "--x", "1.0", "--x", "2.0", *FAST]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert data_rows(out1) == data_rows(out2)

    @pytest.mark.parametrize(
        "extra",
        [{"M": "600"}, {"threads": 2}, {"omega": ["abc"]}, {"x": ["abc"]},
         {"x": [[1.0]]}, {"count": 2.5}, {"b": True}, {"format": "xml"},
         {"representation": "both"}],
        ids=["M-string", "threads", "omega-item", "x-item", "x-nested",
             "count-float", "b-bool", "format-choice", "representation-choice"],
    )
    def test_bad_config_value_one_line_exit_2(self, tmp_path, extra):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"schema": 1, "omega": ["1"], "x": [1.0], **extra}
        ))
        rc, err = run_cli_stderr(
            ["solve", "--config", str(cfg), "--potential", "0", *FAST]
        )
        assert rc == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"), ("{", "cannot read config"),
        ("[1]", "must hold a JSON object"),
    ], ids=["missing", "not-json", "not-object"])
    def test_unreadable_config_one_line_exit_2(self, tmp_path, text, message):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        rc, err = run_cli_stderr(["solve", "--config", str(cfg), "--potential",
                                  "0", "--omega", "1", "--x", "1", *FAST])
        assert rc == 2
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"schema": 1, "b": 3, "omega": [2], "x": [1]}
        ))
        rc, _ = run_cli(["solve", "--config", str(cfg), "--potential", "0",
                         *FAST])
        assert rc == 0


class TestHostileInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["eigs", "--count", "0"],
            ["eigs", "--count", "-3"],
            ["solve", "--omega", "inf", "--x", "1"],
            ["solve", "--omega", "1e400", "--x", "1"],
            ["solve", "--omega", "1", "--x", "nan"],
            ["solve", "--omega", "1", "--x", "3.2"],
            ["solve", "--omega", "1", "--x", "-0.5"],
            ["solve", "--omega", "1", "--x", "1", "--N", "-1"],
            ["solve", "--omega", "1", "--x", "1", "--b", "inf"],
            ["solve", "--x", "1"],
            ["solve", "--omega", "1"],
        ],
        ids=["count-0", "count-negative", "omega-inf", "omega-overflow",
             "x-nan", "x-beyond-b", "x-negative", "N-negative",
             "b-inf", "omega-missing", "x-missing"],
    )
    def test_exit_2_without_traceback(self, args):
        command, rest = args[0], args[1:]
        rc, err = run_cli_stderr([command, "--potential", "0", *FAST, *rest])
        assert rc == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [("--omega-lo", "10"),
                                             ("--omega-hi", "3")],
                             ids=["--omega-lo", "--omega-hi"])
    def test_scan_range_flags_exit_2_without_traceback(self, flag, value):
        # the scan always starts at pi/(4b): no option moves it
        rc, err = run_cli_stderr(["eigs", "--potential", "0", *FAST,
                                  flag, value])
        assert rc == 2
        assert "Traceback" not in err
        assert f"unrecognized arguments: {flag}" in err

    def test_scan_range_config_field_exit_2_without_traceback(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"schema": 1, "omega_lo": 10.0}))
        rc, err = run_cli_stderr(["eigs", "--config", str(cfg),
                                  "--potential", "0", *FAST])
        assert rc == 2
        assert "Traceback" not in err
        assert err.strip().splitlines() == [
            "nsbf eigs: unknown config field 'omega_lo'"
        ]

    @pytest.mark.parametrize("potential", HOSTILE_NESTINGS.values(),
                             ids=HOSTILE_NESTINGS)
    def test_deep_nesting_exit_2_without_traceback(self, potential):
        rc, err = run_cli_stderr(["solve", f"--potential={potential}",
                                  "--omega", "1", "--x", "1", *FAST])
        assert rc == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("omega, rep", [
        ("1e300", "auto"), ("1e300+1j", "auto"),
        ("1.7e308+1.7e308j", "auto"), ("1e-200", "improved"),
    ])
    def test_omega_squared_out_of_range_exit_3_without_traceback(self, omega,
                                                                 rep):
        rc, err = run_cli_stderr(["solve", "--potential", "x", "--omega", omega,
                                  "--x", "1", "--representation", rep, *FAST])
        assert rc == 3
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_plain_form_overflow_exit_3_without_traceback(self):
        # the plain form's Bessel sum overflows at |Im omega| x = 699
        rc, err = run_cli_stderr(["solve", "--potential=-1.5", "--omega",
                                  "1+444500j", "--x", "0.0016",
                                  "--representation", "plain"])
        assert rc == 3
        assert err.startswith("nsbf solve: the plain representation leaves")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("b", ["1e-160", "1e-300"])
    def test_tiny_b_exit_2_without_warning(self, b):
        # x_1^2 (1e-160) and x_1^k (1e-300) underflow: refused before the
        # build, which used to warn from the coefficients or formal powers
        rc, err = run_cli_stderr(["eigs", "--potential", "1", "--b", b,
                                  "--count", "2"])
        assert rc == 2
        assert "too small" in err
        assert len(err.strip().splitlines()) == 1

    def test_diverging_picard_iteration_exit_3_one_line(self):
        rc, err = run_cli_stderr(["eigs", "--potential=-10000", "--count", "3"])
        assert rc == 3
        assert "did not converge in 200 iterations" in err
        assert len(err.strip().splitlines()) == 1

    def test_M_past_the_cap_exit_2_one_line(self):
        # an unbounded M used to end in numpy's allocation traceback
        rc, err = run_cli_stderr(["solve", "--potential", "exp(x)", "--omega",
                                  "5", "--x", "1", "--M", str(_M_CAP + 6)])
        assert rc == 2
        assert "Traceback" not in err
        assert f"at most {_M_CAP}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("b", ["1e153", "1e160"])
    def test_large_b_exit_2_without_warning(self, b):
        # x_M^33 (1e153) and x_M^2 (1e160) overflow: refused before the
        # build, which used to warn or end in an OverflowError traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = run_cli_stderr(["eigs", "--potential", "0", "--b", b,
                                      "--count", "3"])
        assert rc == 2
        assert "too large" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("potential", ["x^-1", "x^(-0.5)"])
    def test_zero_to_negative_power_exit_3_without_traceback(self, potential):
        rc, err = run_cli_stderr(["eigs", "--potential", potential,
                                  "--count", "3"])
        assert rc == 3
        assert "Traceback" not in err
        assert "at x=0.0" in err


#: every option of RunConfig as its flag, plus --config
FLAGS = ["--config"] + [
    "--" + f.name.replace("_", "-") for f in fields(RunConfig) if f.init
]
HOSTILE = ("0", "-1", "nan", "inf", "1e400", "abc", "", "3+4j", "600", "66",
           "x^-1")
#: bench solves with the reference integrator for every root, so counts
#: stay at most 3 to keep each example short
COUNTS = tuple(t for t in HOSTILE if t not in ("600", "66")) + ("3",)


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(("coeffs", "solve", "eigs", "bench")))
    argv = [command, "--M", "66", "--potential", draw(st.sampled_from(HOSTILE))]
    if command == "solve":
        argv += ["--omega", draw(st.sampled_from(HOSTILE)),
                 "--x", draw(st.sampled_from(HOSTILE))]
    if command in ("eigs", "bench"):
        argv += ["--count", draw(st.sampled_from(COUNTS))]
    for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=4)):
        values = COUNTS if flag == "--count" else HOSTILE
        argv += [flag, draw(st.sampled_from(values))]
    return argv


@given(hostile_argv())
@settings(max_examples=60, deadline=None)
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    rc, err = run_cli_stderr(argv)
    assert rc in (0, 2, 3, 4, 5)
    assert "Traceback" not in err


class TestTabulatedPotential:
    def _write_table(self, path, n, b=PI, complex_part=False):
        xs = np.linspace(0.0, b, n)
        with open(path, "w") as fh:
            fh.write("# tabulated-potential v1\n")
            for x in xs:
                if complex_part:
                    fh.write(f"{x:.17g} {math.exp(x):.17g} 0.1\n")
                else:
                    fh.write(f"{x:.17g} {math.exp(x):.17g}\n")

    def test_matching_grid(self, tmp_path):
        path = tmp_path / "pot.txt"
        self._write_table(path, 103)
        rc, out = run_cli(
            ["eigs", "--potential-file", str(path), "--count", "1", *FAST]
        )
        assert rc == 0
        assert "# resampled" not in out
        _, rows = data_rows(out)
        # plumbing check at deliberately coarse N=4; accuracy is covered
        # by the expression-potential suites
        assert float(rows[0][1]) == pytest.approx(4.8967, abs=0.05)

    def test_resampled_grid_flagged(self, tmp_path):
        path = tmp_path / "pot.txt"
        self._write_table(path, 401)
        rc, out = run_cli(
            ["eigs", "--potential-file", str(path), "--count", "1", *FAST]
        )
        assert rc == 0
        assert "# resampled: true" in out

    def test_resampling_exact_for_degree_six_polynomial(self, tmp_path):
        def p(x):
            return (1.0 + x - 0.5 * x**2 + 0.3 * x**3 - 0.2 * x**4
                    + 0.05 * x**5 - 0.01 * x**6)

        path = tmp_path / "pot.txt"
        xs = np.linspace(0.0, PI, 401)
        path.write_text("# tabulated-potential v1\n"
                        + "".join(f"{x!r} {p(x)!r}\n" for x in xs.tolist()))
        cfg = RunConfig(potential_file=str(path), M=102)
        samples, q, _ = _resolve_potential(cfg)
        assert cfg.resampled
        nodes = np.asarray(make_grid(PI, 102).nodes, dtype=float)
        exact = p(nodes)
        assert np.max(np.abs(np.asarray(samples, dtype=float) - exact)) <= 1e-12
        probe = np.array([0.0, 0.123, 1.7, PI])
        assert np.max(np.abs(q(probe) - p(probe))) <= 1e-12

    def test_missing_header_exit_2(self, tmp_path):
        path = tmp_path / "pot.txt"
        path.write_text("0 1\n1 2\n")
        rc, _ = run_cli(
            ["eigs", "--potential-file", str(path), "--count", "1", *FAST]
        )
        assert rc == 2

    @pytest.mark.parametrize("rows, message", [
        (["0 1", "1 2", "2 3"], "need at least 7 samples"),
        ([f"{k} 1" for k in range(6)], "need at least 7 samples"),
        ([f"{k} 1" for k in range(8)] + ["nan 1", "9 1"], ":10: x and q"),
        ([f"{k} 1" for k in range(8)] + ["8 inf", "9 1"], ":10: x and q"),
        ([f"{k} 1" for k in range(8)] + ["8 1 0 0"], ":10: expected 2 or 3"),
        ([f"{k} 1" for k in range(8)] + ["8 abc"], ":10: could not convert"),
        ([f"{k} 1" for k in range(8)] + ["8.5 1"], "uniform and increasing"),
        ([f"{k / 10} 1" for k in range(8)], "exceeds tabulated span"),
    ], ids=["3-rows", "6-rows", "nan-x", "inf-q", "4-columns", "not-a-number",
            "non-uniform-x", "span-below-b"])
    def test_bad_table_exit_2_one_line(self, tmp_path, rows, message):
        path = tmp_path / "pot.txt"
        path.write_text("# tabulated-potential v1\n" + "\n".join(rows) + "\n")
        rc, err = run_cli_stderr(["eigs", "--potential-file", str(path),
                                  "--b", "1", "--count", "1", *FAST])
        assert rc == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert message in err

    def test_unreadable_table_exit_2_one_line(self, tmp_path):
        rc, err = run_cli_stderr(["eigs", "--potential-file",
                                  str(tmp_path / "missing" / "q.txt"),
                                  "--count", "3"])
        assert rc == 2
        assert "cannot read potential file" in err
        assert len(err.strip().splitlines()) == 1

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pot.txt"
        self._write_table(path, 103)
        head, rest = path.read_text().split("\n", 1)
        path.write_text(f"{head}\n# a comment line\n\n{rest}")
        rc, out = run_cli(
            ["eigs", "--potential-file", str(path), "--count", "1", *FAST]
        )
        assert rc == 0
        assert float(data_rows(out)[1][0][1]) == pytest.approx(4.8967, abs=0.05)

    def test_complex_tabulated_eigs_rejected(self, tmp_path):
        path = tmp_path / "pot.txt"
        self._write_table(path, 103, complex_part=True)
        rc, _ = run_cli(
            ["eigs", "--potential-file", str(path), "--count", "1", *FAST]
        )
        assert rc == 2

    def test_complex_tabulated_solve_works(self, tmp_path):
        path = tmp_path / "pot.txt"
        self._write_table(path, 103, complex_part=True)
        rc, out = run_cli(
            ["solve", "--potential-file", str(path), "--omega", "5",
             "--x", "1.0", *FAST]
        )
        assert rc == 0
        _, rows = data_rows(out)
        assert float(rows[0][3]) != 0.0


class TestBenchCommand:
    def test_zero_potential_roundoff_errors(self):
        rc, out = run_cli(
            ["bench", "--potential", "0", "--count", "5", "--M", "600",
             "--N", "8"]
        )
        assert rc == 0
        header, rows = data_rows(out)
        err_cols = [i for i, c in enumerate(header) if c.startswith("err_")]
        for r in rows:
            for i in err_cols:
                assert float(r[i]) <= 1e-10

    def test_truncations_end_at_the_built_N(self):
        # N = 8 reports the truncation below it and N itself, and the
        # reference integrator is seeded from improved N = 8, not N = 5
        rc, out = run_cli(
            ["bench", "--potential", "exp(x)", "--count", "5", "--M", "600",
             "--N", "8"]
        )
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["n", "lambda_ref", "err_plain_N5", "err_plain_N8",
                          "err_improved_N5", "err_improved_N8"]
        assert len(rows) == 5

    def test_stalled_reference_exits_5(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SWEEPS", 0)
        rc, _ = run_cli(
            ["bench", "--potential", "0", "--count", "5", "--M", "600",
             "--N", "8"]
        )
        assert rc == 5

    def test_reference_file(self, tmp_path):
        # a comment-only line and a blank line are skipped
        ref = tmp_path / "ref.csv"
        ref.write_text("# n, lambda\n\n"
                       + "".join(f"{n},{n*n}\n" for n in range(1, 6)))
        rc, out = run_cli(
            ["bench", "--potential", "0", "--count", "5", "--M", "600",
             "--N", "8", "--reference", str(ref)]
        )
        assert rc == 0
        assert "summary" in out

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read reference file"),
        ("1,1\nn,abc\n", "cannot read reference file"),
        ("1,1\n", "has 1 eigenvalues, need 2"),
    ], ids=["missing", "not-a-number", "too-short"])
    def test_bad_reference_file_one_line_exit_2(self, tmp_path, text, message):
        ref = tmp_path / "ref.csv"
        if text is not None:
            ref.write_text(text)
        rc, err = run_cli_stderr(["bench", "--potential", "0", "--count", "2",
                                  *FAST, "--reference", str(ref)])
        assert rc == 2
        assert message in err
        assert len(err.strip().splitlines()) == 1
