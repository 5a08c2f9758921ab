import contextlib
import io
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsbf import build_model
from nsbf.cli import RunConfig, main

PI = math.pi


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

    def test_asymptotic_column_present_only_for_pi(self):
        rc, out = run_cli(
            ["eigs", "--potential", "0", "--count", "2", "--M", "600",
             "--N", "8"]
        )
        header, _ = data_rows(out)
        assert "asymptotic" in header
        rc, out = run_cli(
            ["eigs", "--potential", "0", "--b", "2.0", "--count", "2",
             "--M", "600", "--N", "8"]
        )
        header, _ = data_rows(out)
        assert "asymptotic" not in header

    def test_range_exhaustion_exit_4(self):
        rc, _ = run_cli(
            ["eigs", "--potential", "0", "--count", "10", "--omega-lo",
             "0.5", "--omega-hi", "3.0", "--M", "600", "--N", "8"]
        )
        assert rc == 4


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
         {"x": [[1.0]]}, {"count": 2.5}, {"b": True}],
        ids=["M-string", "threads", "omega-item", "x-item", "x-nested",
             "count-float", "b-bool"],
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
            ["solve", "--omega", "1", "--x", "1", "--omega-switch", "nan"],
            ["solve", "--omega", "1", "--x", "1", "--b", "inf"],
            ["eigs", "--count", "2", "--omega-hi", "nan"],
        ],
        ids=["count-0", "count-negative", "omega-inf", "omega-overflow",
             "x-nan", "x-beyond-b", "x-negative", "N-negative",
             "omega-switch-nan", "b-inf", "omega-hi-nan"],
    )
    def test_exit_2_without_traceback(self, args):
        command, rest = args[0], args[1:]
        rc, err = run_cli_stderr([command, "--potential", "0", *FAST, *rest])
        assert rc == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


#: every option of RunConfig as its flag, plus --config
FLAGS = ["--config"] + [
    "--" + f.name.replace("_", "-") for f in fields(RunConfig) if f.init
]
HOSTILE = ("0", "-1", "nan", "inf", "1e400", "abc", "", "3+4j", "600", "66")
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

    def test_missing_header_exit_2(self, tmp_path):
        path = tmp_path / "pot.txt"
        path.write_text("0 1\n1 2\n")
        rc, _ = run_cli(
            ["eigs", "--potential-file", str(path), "--count", "1", *FAST]
        )
        assert rc == 2

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

    def test_reference_file(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("".join(f"{n},{n*n}\n" for n in range(1, 6)))
        rc, out = run_cli(
            ["bench", "--potential", "0", "--count", "5", "--M", "600",
             "--N", "8", "--reference", str(ref)]
        )
        assert rc == 0
        assert "summary" in out
