import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import cuspdeform
from cuspdeform import bending, cli, figure8, heisenberg
from cuspdeform.cli import main, parse_angle, schema_path
from cuspdeform.scalars import Angle

SCHEMA = json.load(open(schema_path()))
GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestAngleParsing:
    def test_pi_fractions(self):
        assert parse_angle("2/3pi") == Angle.pi_times(Fraction(2, 3))
        assert parse_angle("pi") == Angle.pi_times(1)
        assert parse_angle("-pi") == Angle.pi_times(-1)
        assert parse_angle("-1/2pi") == Angle.pi_times(Fraction(-1, 2))

    def test_radians(self):
        a = parse_angle("0.7")
        assert not a.is_pi_rational and a.value == 0.7


class TestVerifyCommand:
    def test_figure8_report(self):
        code, out, _ = run(["verify", "figure8", "--alpha", "0.5"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["family"] == "figure8" and doc["pass"]

    def test_figure8_exact(self):
        code, out, _ = run(["verify", "figure8", "--u-exact"])
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] is None

    def test_bianchi_exact(self):
        code, out, _ = run(["verify", "bianchi", "--d", "2",
                            "--target", "su31", "--u-exact"])
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_bianchi_so41(self):
        code, out, _ = run(["verify", "bianchi", "--d", "7",
                            "--target", "so41", "--theta", "1.0"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["cusp"]["verdict"] == "nondiscrete-Z2-rational"

    @pytest.mark.parametrize("argv, check", [
        (["--d", "2", "--target", "su31", "--alpha=0.0001"], "stableLetterParabolic"),
        (["--d", "7", "--target", "so41", "--theta=0.0005"],
         "stableLetterElliptoParabolic"),
    ])
    def test_indeterminate_letter_is_a_failed_report(self, argv, check):
        # a stable-letter class too close to call is a failing check that
        # carries its margin, in a full report, not a usage error
        code, out, err = run(["verify", "bianchi", *argv])
        assert code == 1 and err == ""
        got = json.loads(out)
        jsonschema.validate(got, SCHEMA)
        assert got["classU"] == "indeterminate" and got["pass"] is False
        assert not got["checks"][check]["pass"]
        assert "margin" in got["checks"][check]["info"]

    def test_not_squarefree_is_usage_error(self):
        code, _, err = run(["verify", "bianchi", "--d", "4"])
        assert code == 2 and "squarefree" in err

    def test_bad_flag_exits_2(self):
        code, _, _ = run(["verify", "nosuchfamily"])
        assert code == 2

    def test_word_file(self, tmp_path):
        wf = tmp_path / "words.txt"
        wf.write_text("# extras\nm^2\nm^1.n^1.m^1.n^1\n")
        code, out, _ = run(["verify", "figure8", "--u-exact",
                            "--words", str(wf)])
        assert code == 0
        doc = json.loads(out)
        assert "m^2" in doc["traces"]
        assert "m^1.n^1.m^1.n^1" in doc["traces"]


    def test_family_built_once(self, monkeypatch):
        calls = []
        build = figure8.build_family
        monkeypatch.setattr(figure8, "build_family", lambda *args, **kwargs:
                            calls.append(args) or build(*args, **kwargs))
        for argv, built in ((["--u-exact"], [(None,)]),
                            (["--alpha", "0.5"], [(None,), (0.5,)])):  # symbolic, then numeric
            calls.clear()
            code, _, _ = run(["verify", "figure8", *argv])
            assert code == 0
            assert [tuple(a if a is None else a.value for a in c) for c in calls] == built


    @pytest.mark.parametrize("argv", [
        ["--d", "2", "--target", "su31", "--u-exact"],
        ["--d", "7", "--target", "su31", "--alpha", "1/3pi"],
    ])
    def test_lattice_built_once(self, monkeypatch, argv):
        calls = []
        build = bending.bianchi_lattice_su31
        monkeypatch.setattr(bending, "bianchi_lattice_su31", lambda *args:
                            calls.append(args) or build(*args))
        code, _, _ = run(["verify", "bianchi", *argv])
        assert code == 0 and len(calls) == 1


class TestNegativeValues:
    """A leading-minus value reads the same after a space as after '='."""

    @pytest.mark.parametrize("argv, option, value", [
        (["verify", "figure8"], "--alpha", "-1/2pi"),
        (["verify", "figure8"], "--alpha", "-pi"),
        (["verify", "figure8"], "--alpha", "-0.5"),
        (["verify", "bianchi", "--d", "7"], "--alpha", "-1/3pi"),
        (["verify", "bianchi", "--d", "7", "--target", "so41"], "--theta", "-1e-1"),
        (["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0"],
         "--pythagorean", "-1/3"),
        (["sweep", "figure8", "--end", "1e-6", "--count", "5"], "--start", "-1e-6"),
        (["sweep", "bianchi", "--start=-3.0", "--count", "5"], "--end", "-1e-1"),
        (["orbit", "--d", "2", "--radius", "3"], "--alpha", "-1/3pi"),
        (["orbit", "--d", "7", "--target", "so41", "--radius", "3"], "--theta", "-1.0"),
    ])
    def test_space_spelling_matches_equals_spelling(self, argv, option, value):
        spaced = run([*argv, option, value])
        assert spaced == run([*argv, f"{option}={value}"])
        assert spaced[0] in (0, 1) and spaced[2] == ""

    def test_option_still_needs_a_value(self):
        code, out, err = run(["verify", "figure8", "--alpha", "--tol", "1e-9"])
        assert code == 2 and out == "" and "expected one argument" in err


class TestSweepCommand:
    def test_figure8_sweep_arcs(self):
        code, out, _ = run(["sweep", "figure8", "--start", "-3.0",
                            "--end", "3.0", "--count", "120"])
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0].startswith("alpha,")
        for line in lines[1:]:
            alpha, p, q = line.split(",")[:3]
            if abs(float(alpha)) < 2 * math.pi / 3:
                assert (p, q) == ("3", "1")
            else:
                assert (p, q) == ("2", "2")

    def test_single_point_grid(self):
        code, out, _ = run(["sweep", "bianchi", "--d", "2", "--target", "so41",
                            "--start", "1.0", "--end", "1.2", "--count", "1"])
        assert code == 0
        assert len(out.strip().split("\r\n")) == 2

    def test_so41_sweep_constant_class(self):
        code, out, _ = run(["sweep", "bianchi", "--d", "2", "--target", "so41",
                            "--start", "0.1", "--end", "3.0", "--count", "24"])
        assert code == 0
        for line in out.strip().split("\r\n")[1:]:
            assert line.split(",")[1] == "elliptic(boundary)"

    def test_bad_count(self):
        code, _, _ = run(["sweep", "figure8", "--start", "0",
                          "--end", "1", "--count", "0"])
        assert code == 2

    @pytest.mark.parametrize("argv, module, builder", [
        (["figure8", "--start=-3.0", "--end", "3.0", "--count", "60"],
         figure8, "form_matrix"),
        (["bianchi", "--d", "7", "--target", "so41", "--start", "0.1", "--end", "3.0",
          "--count", "12"], bending, "bianchi_lattice_so41"),
        (["bianchi", "--d", "7", "--target", "su31", "--start", "0.1", "--end", "3.0",
          "--count", "12"], bending, "bianchi_lattice_su31"),
    ])
    def test_exact_data_built_once(self, monkeypatch, argv, module, builder):
        calls = []
        build = getattr(module, builder)
        monkeypatch.setattr(module, builder, lambda *args:
                            calls.append(args) or build(*args))
        code, _, _ = run(["sweep", *argv])
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["bianchi", "--d", "43", "--target", "su31",
         "--start=-3e-6", "--end", "3e-6"],
        ["figure8", "--start", repr(math.pi / 2 - 6e-5),
         "--end", repr(math.pi / 2 + 6e-5)],
    ])
    def test_indeterminate_margin_is_a_number(self, argv):
        code, out, _ = run(["sweep", *argv, "--count", "7"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\r\n")[1:]]
        indeterminate = [r for r in rows if "indeterminate" in r]
        assert indeterminate
        for r in rows:
            assert (r[-1] != "") == (r in indeterminate)
            if r[-1]:
                assert float(r[-1]) < 10


class TestOrbitCommand:
    def test_row_count_and_gap(self):
        code, out, _ = run(["orbit", "--d", "2", "--alpha", "1/3pi",
                            "--radius", "20"])
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "m,n,re_z1,im_z1,re_z2,im_z2,v"
        assert len([l for l in lines[1:] if not l.startswith("#")]) == 41 * 41
        assert lines[-1].startswith("# gap: ")
        assert float(lines[-1].split(":")[1]) > 0.1

    def test_radius_zero_single_row(self):
        code, out, _ = run(["orbit", "--d", "2", "--alpha", "1/3pi",
                            "--radius", "0"])
        assert code == 0
        rows = [l for l in out.strip().split("\r\n")[1:] if not l.startswith("#")]
        assert len(rows) == 1

    def test_so41_orbit(self):
        code, out, _ = run(["orbit", "--d", "7", "--target", "so41",
                            "--theta", "1.0", "--radius", "10"])
        assert code == 0
        assert len(out.strip().split("\r\n")) >= 21 * 21 + 1

    def test_radius_cap(self):
        code, _, _ = run(["orbit", "--d", "2", "--alpha", "1/3pi",
                          "--radius", "51"])
        assert code == 2

    def test_su31_orbit_builds_no_family(self, monkeypatch):
        calls = []
        for module in (cli, bending):
            monkeypatch.setattr(module, "bianchi_family", lambda *args, **kwargs:
                                calls.append(args))
        code, _, _ = run(["orbit", "--d", "15", "--alpha", "0.7", "--radius", "3"])
        assert code == 0 and calls == []

    # Generated before the integer-numerator exact kernel landed.  The
    # README verify/sweep commands, the acceptance CLI_COMMANDS and one
    # pi-rational verify; the sweep det column pins the summation order.
    @pytest.mark.parametrize("name, argv", [
        ("orbit_d2_alpha_1-3pi_r20.csv",
         ["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "20"]),
        ("orbit_d7_so41_theta_1.0_r20.csv",
         ["orbit", "--d", "7", "--target", "so41", "--theta", "1.0", "--radius", "20"]),
        ("verify_figure8_alpha_1-5pi.json", ["verify", "figure8", "--alpha=1/5pi"]),
        ("verify_figure8_u-exact_words.json",
         ["verify", "figure8", "--u-exact", "--words", str(GOLDEN / "extra_words.txt")]),
        ("verify_bianchi_d2_su31_u-exact.json",
         ["verify", "bianchi", "--d", "2", "--target", "su31", "--u-exact"]),
        ("verify_bianchi_d7_so41_theta_1.0_pyth_1-2.json",
         ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0",
          "--pythagorean", "1/2"]),
        ("sweep_figure8_-3_3_360.csv",
         ["sweep", "figure8", "--start", "-3.0", "--end", "3.0", "--count", "360"]),
        ("sweep_bianchi_d2_so41_0.1_3.0_36.csv",
         ["sweep", "bianchi", "--d", "2", "--target", "so41",
          "--start", "0.1", "--end", "3.0", "--count", "36"]),
        ("verify_figure8_alpha_0.5.json", ["verify", "figure8", "--alpha", "0.5"]),
        ("verify_figure8_u-exact.json", ["verify", "figure8", "--u-exact"]),
        ("verify_bianchi_d7_so41_theta_1.0_pyth_1-2.json",   # 1/2 is the default
         ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0"]),
        ("sweep_figure8_-3_3_60.csv",
         ["sweep", "figure8", "--start", "-3.0", "--end", "3.0", "--count", "60"]),
        ("sweep_bianchi_d2_so41_0.1_3.0_12.csv",
         ["sweep", "bianchi", "--d", "2", "--target", "so41",
          "--start", "0.1", "--end", "3.0", "--count", "12"]),
        ("orbit_d2_alpha_1-3pi_r8.csv",
         ["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "8"]),
        # Generated before the orbit layer was batched: no gap line at
        # radius 0, a skew cusp at a raw angle, a pi-rational so41 bend.
        ("orbit_d2_alpha_1-3pi_r0.csv",
         ["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "0"]),
        ("orbit_d15_alpha_0.7_r10.csv",
         ["orbit", "--d", "15", "--alpha", "0.7", "--radius", "10"]),
        ("orbit_d5_so41_theta_1-3pi_r10.csv",
         ["orbit", "--d", "5", "--target", "so41", "--theta=1/3pi", "--radius", "10"]),
    ])
    def test_golden_output(self, name, argv):
        code, out, _ = run(argv)
        assert code == 0
        assert out == (GOLDEN / name).read_bytes().decode()

    def test_orbit_enumerated_once(self, monkeypatch):
        calls = []
        enumerate_orbit = heisenberg.orbit_points
        for module in (cli, heisenberg):
            monkeypatch.setattr(module, "orbit_points", lambda *args:
                                calls.append(args) or enumerate_orbit(*args))
        code, _, _ = run(["orbit", "--d", "2", "--alpha", "1/3pi",
                          "--radius", "3"])
        assert code == 0 and len(calls) == 1


class TestClassifyCommand:
    def test_translation(self, tmp_path):
        from cuspdeform.heisenberg import HeisPoint, translation_matrix
        g = translation_matrix(HeisPoint((0.5, 0.1), 0.7))
        doc = {"entries": [[[z.real, z.imag] for z in row] for row in g]}
        f = tmp_path / "mat.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(["classify", "--matrix", str(f)])
        assert code == 0
        got = json.loads(out)
        jsonschema.validate(got, SCHEMA)
        assert got["class"] == "parabolic(unipotent-step3)"

    def test_non_isometry_reports_error(self, tmp_path):
        f = tmp_path / "mat.json"
        f.write_text(json.dumps({"entries": [[2, 0], [0, 1]]}))
        code, out, _ = run(["classify", "--matrix", str(f)])
        assert code == 1
        assert json.loads(out)["class"] is None

    def test_explicit_form_file_with_convention(self, tmp_path):
        import numpy as np

        from cuspdeform.figure8 import build_family
        fam = build_family(Angle.pi_fraction(1, 5))

        def dump(arr):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(arr)]

        mat_f = tmp_path / "longitude.json"
        mat_f.write_text(json.dumps({"entries": dump(fam.longitude())}))
        form_f = tmp_path / "form.json"
        form_f.write_text(json.dumps({"entries": dump(fam.form.array()),
                                      "convention": "transpose-conj"}))
        code, out, _ = run(["classify", "--matrix", str(mat_f),
                            "--form", str(form_f)])
        assert code == 0
        assert json.loads(out)["class"] == "parabolic(ellipto-parabolic)"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify", "figure8", "--alpha", "0.5"],
        ["verify", "bianchi", "--d", "2", "--u-exact"],
        ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0"],
        ["sweep", "figure8", "--start", "-1.0", "--end", "1.0", "--count", "25"],
        ["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "6"],
    ])
    def test_byte_identical_reruns(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second

    def test_output_file_matches_stdout(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(["verify", "figure8", "--alpha", "0.5",
                            "--output", str(path)])
        assert code == 0 and out == ""
        _, stdout, _ = run(["verify", "figure8", "--alpha", "0.5"])
        assert path.read_text() == stdout


class TestEnvTolerance:
    def test_env_var_sets_default(self, monkeypatch):
        from cuspdeform.cli import make_parser
        monkeypatch.setenv("CUSPDEFORM_TOL", "1e-7")
        args = make_parser().parse_args(["verify", "figure8"])
        assert args.tol == 1e-7
        monkeypatch.delenv("CUSPDEFORM_TOL")
        args = make_parser().parse_args(["verify", "figure8"])
        assert args.tol == 1e-9


class TestParserCache:
    def test_tree_built_once_per_environment(self, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        monkeypatch.setenv("CUSPDEFORM_TOL", "2.5e-9")  # no other test uses it
        argv = ["sweep", "figure8", "--start", "0.5", "--end", "0.5", "--count", "1"]
        assert run(argv)[0] == 0
        assert built  # the first call under this value builds the tree
        n_built = len(built)
        assert run(argv)[0] == 0
        assert len(built) == n_built
        assert cli.make_parser().parse_args(["verify", "figure8"]).tol == 2.5e-9
        monkeypatch.setenv("CUSPDEFORM_TOL", "3.5e-9")
        assert cli.make_parser().parse_args(["verify", "figure8"]).tol == 3.5e-9
        monkeypatch.setenv("CUSPDEFORM_TOL", "2.5e-9")
        n_built = len(built)
        assert cli.make_parser().parse_args(["verify", "figure8"]).tol == 2.5e-9
        assert len(built) == n_built

    def test_malformed_value_rejected_on_every_call(self, monkeypatch):
        monkeypatch.setenv("CUSPDEFORM_TOL", "-2.5e-9")
        for _ in range(2):
            code, out, err = run(["sweep", "figure8", "--start", "0", "--end", "1",
                                  "--count", "3"])
            assert code == 2 and out == ""
            assert err.startswith("usage error: CUSPDEFORM_TOL") and err.count("\n") == 1


class TestClassifyShape:
    def test_non_square_matrix_is_a_usage_error(self, tmp_path):
        f = tmp_path / "mat.json"
        f.write_text(json.dumps({"entries": [[1, 0, 0], [0, 1, 0]]}))
        code, out, err = run(["classify", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err == "usage error: matrices must be square, got shape (2, 3)\n"


class TestBadInput:
    """Malformed input ends in exit 2 and one `usage error:` line (or
    argparse's own message, before any computation), never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--matrix", "/nonexistent/matrix.json"],
        ["verify", "figure8", "--u-exact", "--words", "/nonexistent/words.txt"],
        ["verify", "figure8", "--alpha", "1/0pi"],
        ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0",
         "--pythagorean", "1/0"],
    ])
    def test_usage_error_line(self, argv):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [{"rows": [[1]]}, [[1]]])
    def test_matrix_file_without_entries(self, tmp_path, doc):
        f = tmp_path / "mat.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(["classify", "--matrix", str(f)])
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and "'entries'" in err

    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf", "0"])
    def test_bad_env_tolerance(self, monkeypatch, value):
        monkeypatch.setenv("CUSPDEFORM_TOL", value)
        code, out, err = run(["verify", "figure8", "--u-exact"])
        assert code == 2 and out == ""
        assert err.startswith("usage error: CUSPDEFORM_TOL") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "0", "abc"])
    @pytest.mark.parametrize("command", [
        ["verify", "figure8", "--alpha", "0.5"],
        ["sweep", "figure8", "--start", "0", "--end", "1", "--count", "3"],
        ["classify", "--matrix", "/nonexistent/matrix.json"],
    ])
    def test_bad_tol_rejected_at_parse_time(self, monkeypatch, command, value):
        monkeypatch.setattr(cli, "figure8_report", None)  # never reached
        code, out, err = run([*command, f"--tol={value}"])
        assert code == 2 and out == ""
        assert "argument --tol" in err and "usage error" not in err

    def test_good_tol_still_accepted(self):
        code, out, _ = run(["verify", "figure8", "--alpha", "0.5", "--tol", "1e-9"])
        assert code == 0
        assert out == (GOLDEN / "verify_figure8_alpha_0.5.json").read_bytes().decode()


class TestRuntimeDependencies:
    def test_import_loads_neither_scipy_nor_jsonschema(self):
        src = str(Path(cuspdeform.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, cuspdeform; "
                "print(sorted({'scipy', 'jsonschema'} & "
                "{m.split('.')[0] for m in sys.modules}))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
