import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import cuspdeform
from cuspdeform import bending, cli, figure8, heisenberg, matrices, scalars, words
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
        (["--d", "1000000000039", "--target", "su31", "--alpha=1.0"],
         "stableLetterParabolic"),
        (["--d", "10000019", "--target", "so41", "--theta=1.0"],
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

    def test_so41_letter_near_zero_is_elliptic(self):
        # for an orthogonal cusp the bent so41 letter is exactly elliptic
        # at every theta != 0, also within the scatter radius of theta = 0
        code, out, err = run(["verify", "bianchi", "--d", "5", "--target", "so41",
                              "--theta=0.002"])
        assert (code, err) == (0, "")
        got = json.loads(out)
        assert got["classU"] == "elliptic(boundary)" and got["pass"] is True
        assert got["checks"]["stableLetterElliptic"] == {"info": "elliptic(boundary)",
                                                         "pass": True}

    def test_not_squarefree_is_usage_error(self):
        code, _, err = run(["verify", "bianchi", "--d", "4"])
        assert code == 2 and "squarefree" in err

    def test_bad_flag_exits_2(self):
        code, _, _ = run(["verify", "nosuchfamily"])
        assert code == 2

    @pytest.mark.parametrize("value, want", [("1e17", [2, 2]), ("1e200", [3, 1])])
    def test_huge_raw_angle_meets_its_arc(self, value, want):
        # the arc places a raw angle by the reduction its cos and sin use
        code, out, _ = run(["verify", "figure8", f"--alpha={value}"])
        doc = json.loads(out)
        assert code == 0 and doc["pass"]
        assert doc["signature"] == want + [0]
        assert doc["checks"]["signatureArc"] == {"pass": True, "info": f"expected {tuple(want)}"}

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
        # the exact family only: the angle is the sweep's one-point step
        calls = []
        build = figure8.build_family
        monkeypatch.setattr(figure8, "build_family", lambda *args, **kwargs:
                            calls.append(args) or build(*args, **kwargs))
        for argv in (["--u-exact"], ["--alpha", "0.5"]):
            calls.clear()
            code, _, _ = run(["verify", "figure8", *argv])
            assert code == 0
            assert calls == [(None,)]

    @pytest.mark.parametrize("argv", [["--u-exact"], ["--alpha", "1/5pi"]])
    def test_exact_identities_decided_once(self, monkeypatch, argv):
        # the construction's form invariance of m and n and its relator
        # are the only ones; the report records their verdicts
        preserved, relators = [], []
        form_preserved = matrices.form_preserved
        for module in (matrices, words, figure8, bending):
            if hasattr(module, "form_preserved"):
                monkeypatch.setattr(module, "form_preserved", lambda *args:
                                    preserved.append(args) or form_preserved(*args))
        relator = words.builtin_presentation("figure8").relators[0]
        evaluate = words.Rep.evaluate
        monkeypatch.setattr(words.Rep, "evaluate", lambda rep, w: (
            relators.append(rep.is_exact) if w == relator else None) or evaluate(rep, w))
        code, out, _ = run(["verify", "figure8", *argv])
        assert code == 0 and json.loads(out)["checks"]["relation"]["pass"]
        assert len(preserved) == 2
        assert relators.count(True) == 1

    @pytest.mark.parametrize("argv, exact_relators", [
        (["verify", "figure8", "--alpha=1/5pi"], 1),
        (["verify", "figure8", "--alpha=-2.5"], 1),
        (["sweep", "figure8", "--start=-3.0", "--end=3.0", "--count=130"], 0),
    ])
    def test_numeric_step_decides_no_identity(self, monkeypatch, argv, exact_relators):
        # an angle is evaluated and classified: no numeric form is checked
        # for hermitianness, and the relator is evaluated over exact images
        # only, by the report's construction (a sweep states no identity)
        hermitian, relators = [], []
        monkeypatch.setattr(matrices, "hermitian_failures", lambda J: hermitian.append(J))
        relator = words.builtin_presentation("figure8").relators[0]
        evaluate = words.Rep.evaluate
        monkeypatch.setattr(words.Rep, "evaluate", lambda rep, w: (
            relators.append(rep.is_exact) if w == relator else None) or evaluate(rep, w))
        code, _, _ = run(argv)
        assert code == 0
        assert hermitian == []
        assert relators == [True] * exact_relators


    @pytest.mark.parametrize("argv", [
        ["--d", "2", "--target", "su31", "--u-exact"],
        ["--d", "7", "--target", "su31", "--alpha", "1/3pi"],
        ["--d", "7", "--target", "so41", "--theta=1.0", "--pythagorean=1/2"],
    ])
    def test_lattice_built_once(self, monkeypatch, argv):
        # so41 embeds the su31 lattice into its one family
        calls = []
        build = bending.bianchi_lattice_su31
        monkeypatch.setattr(bending, "bianchi_lattice_su31", lambda *args:
                            calls.append(args) or build(*args))
        code, _, _ = run(["verify", "bianchi", *argv])
        assert code == 0 and len(calls) == 1

    def test_exact_products_per_report(self, monkeypatch):
        # each generator power and word prefix is multiplied out once,
        # and a trace forms only the diagonal of its last product
        calls = []
        matmul = matrices.Mat.__matmul__
        monkeypatch.setattr(matrices.Mat, "__matmul__", lambda A, B:
                            calls.append(A.n) or matmul(A, B))
        code, _, _ = run(["verify", "figure8", "--u-exact"])
        assert code == 0 and len(calls) <= 31

    def test_form_lifted_once(self, monkeypatch):
        # the Laurent Siegel form, lifted into the ext ring for the exact
        # invariance check of every generator
        lifts, inside = [], []
        preserved, ext = matrices.form_preserved, matrices.Mat.ext

        def counting_preserved(*args):
            inside.append(True)
            try:
                return preserved(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(words, "form_preserved", counting_preserved)
        monkeypatch.setattr(matrices.Mat, "ext", classmethod(lambda cls, rows, d: (
            lifts.append(d) if inside else None) or ext(rows, d)))
        code, _, _ = run(["verify", "bianchi", "--d", "7", "--target", "su31", "--u-exact"])
        assert code == 0 and lifts == [7]

    @pytest.mark.parametrize("argv", [
        ["figure8", "--u-exact"],
        ["bianchi", "--d", "7", "--target", "su31", "--u-exact"],
    ])
    def test_warm_report_decides_nothing_again(self, monkeypatch, argv):
        # a second report in the process reads the decisions of the shared
        # family: no exact product, invariance check or lattice build
        first = run(["verify", *argv])
        products, preserved, lattices = [], [], []
        matmul, trace_of_product = matrices.Mat.__matmul__, words._trace_of_product
        monkeypatch.setattr(matrices.Mat, "__matmul__", lambda A, B:
                            products.append(A.n) or matmul(A, B))
        monkeypatch.setattr(words, "_trace_of_product", lambda A, B:
                            products.append(A.n) or trace_of_product(A, B))
        form_preserved = matrices.form_preserved
        for module in (matrices, words, figure8, bending):
            if hasattr(module, "form_preserved"):
                monkeypatch.setattr(module, "form_preserved", lambda *args:
                                    preserved.append(args) or form_preserved(*args))
        build = bending.bianchi_lattice_su31
        monkeypatch.setattr(bending, "bianchi_lattice_su31", lambda *args:
                            lattices.append(args) or build(*args))
        assert run(["verify", *argv]) == first and first[0] == 0
        assert products == preserved == lattices == []

    def test_faulty_family_report_leaves_the_shared_one(self, monkeypatch):
        # a report over a replaced family decides on that family; the next
        # plain report still decides on the shared one, and passes
        argv = ["verify", "bianchi", "--d", "2", "--target", "su31", "--u-exact"]
        shared = bending.bianchi_family(2, "su31")
        faulty = dataclasses.replace(shared, unbent_u=shared.images["a"])
        monkeypatch.setattr(bending, "bianchi_family", lambda *args, **kwargs: faulty)
        code, out, _ = run(argv)
        assert code == 1 and not json.loads(out)["checks"]["latticeAtOne"]["pass"]
        monkeypatch.undo()
        code, out, _ = run(argv)
        assert code == 0
        assert out == (GOLDEN / "verify_bianchi_d2_su31_u-exact.json").read_bytes().decode()

    def test_large_d_reduces_each_radicand_once(self, monkeypatch):
        seen = []
        reduce = scalars._squarefree
        reduce.cache_clear()
        for module in (scalars, bending):
            monkeypatch.setattr(module, "_squarefree", lambda k:
                                seen.append(k) or reduce(k))
        code, out, _ = run(["verify", "bianchi", "--d", "1000000000039", "--target",
                            "so41", "--theta=1.0"])
        assert code in (0, 1) and json.loads(out)["d"] == 1000000000039
        assert reduce.cache_info().misses == len(set(seen)) < len(seen)

    @pytest.mark.parametrize("argv, det_callers", [
        (["bianchi", "--d", "7", "--target", "so41", "--theta=1.0", "--pythagorean=1/2"], []),
        (["figure8", "--u-exact"], ["identities", "identities"]),
    ])
    def test_det_only_for_determinant_checks(self, monkeypatch, argv, det_callers):
        # the exact inverses (two per report) take no determinant: only
        # the longitudeDet and detIdentity checks of figure8, decided by
        # its family's identities, call det
        callers, inverses = [], []
        det, inverse = matrices.Mat.det, matrices.Mat.inverse
        monkeypatch.setattr(matrices.Mat, "det", lambda m: callers.append(
            sys._getframe(1).f_code.co_name) or det(m))
        monkeypatch.setattr(matrices.Mat, "inverse", lambda m: inverses.append(m.n)
                            or inverse(m))
        code, _, _ = run(["verify", *argv])
        assert code == 0
        assert callers == det_callers and len(inverses) == 2


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
          "--count", "12"], bending, "bianchi_lattice_su31"),
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

    @pytest.mark.parametrize("argv, digest", [
        (["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "50"],
         "b55e90ab13b47a23a6d715e1d3a54b8b1141448362aff71e3430324751ced097"),
        (["orbit", "--d", "7", "--target", "so41", "--theta=1.0", "--radius", "50"],
         "b1f131d863949726570f621d650f615fad3086d25bf456e821d44858e4243287"),
        # a skew su31 cusp at a raw angle, an orthogonal so41 one at a
        # negative raw angle
        (["orbit", "--d", "15", "--alpha=0.7", "--radius", "50"],
         "65d58098f8482e25dce78eb98e13f32472bf9ea6ef837783fcaa94f007000bfd"),
        (["orbit", "--d", "6", "--target", "so41", "--theta=-2.5", "--radius", "50"],
         "76fc7f4b7f8541e13734324a2ed12e3e2838df41fcfd166619e80eb8fbe225a6"),
    ])
    def test_radius_50_digest(self, argv, digest):
        # SHA-256 of the whole dump (10201 rows and the gap line)
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_su31_orbit_builds_no_family(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bending, "bianchi_family", lambda *args, **kwargs:
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
        ("verify_bianchi_d7_so41_theta_1.0_pyth_1-2.json",   # the slope is unused
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
        # Generated before sweeps became columns: an su31 sweep of more
        # than two blocks
        ("sweep_bianchi_d7_su31_-3_3_600.csv",
         ["sweep", "bianchi", "--d", "7", "--target", "su31", "--start=-3.0", "--end=3.0",
          "--count", "600"]),
    ])
    def test_golden_output(self, name, argv):
        code, out, _ = run(argv)
        assert code == 0
        assert out == (GOLDEN / name).read_bytes().decode()

    # Generated before the Bianchi suites shared their exact and
    # stable-letter steps: a skew cusp at an angle, a d without a
    # presentation, an orthogonal half turn, the undeformed so41 letter
    # and the su31 letter near alpha = 0 (regenerated since: exactly
    # ellipto-parabolic there, exit 0).
    @pytest.mark.parametrize("name, argv, want", [
        ("verify_bianchi_d7_su31_alpha_2-5pi.json",
         ["verify", "bianchi", "--d", "7", "--target", "su31", "--alpha=2/5pi"], 0),
        ("verify_bianchi_d15_su31_u-exact.json",
         ["verify", "bianchi", "--d", "15", "--target", "su31", "--u-exact"], 0),
        ("verify_bianchi_d5_so41_theta_1-1pi_pyth_2-3.json",
         ["verify", "bianchi", "--d", "5", "--target", "so41", "--theta=1/1pi",
          "--pythagorean=2/3"], 0),
        ("verify_bianchi_d11_so41_theta_0_pyth_-3-5.json",
         ["verify", "bianchi", "--d", "11", "--target", "so41", "--theta=0",
          "--pythagorean=-3/5"], 0),
        ("verify_bianchi_d2_su31_alpha_0.0001.json",
         ["verify", "bianchi", "--d", "2", "--target", "su31", "--alpha=0.0001"], 0),
    ])
    def test_bianchi_report_golden(self, name, argv, want):
        code, out, err = run(argv)
        assert (code, err) == (want, "")
        assert out == (GOLDEN / name).read_bytes().decode()

    def test_orbit_enumerated_once(self, monkeypatch):
        calls = []
        enumerate_orbit = heisenberg.orbit_points
        monkeypatch.setattr(heisenberg, "orbit_points", lambda *args:
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

    def test_so41_report_ignores_slope(self):
        # the exact checks run at symbolic u: a slope must parse, and
        # changes no byte
        argv = ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta=1.0"]
        want = run(argv)
        assert want[0] == 0
        for slope in ["1/2", "-3/5", "2/3"]:
            assert run([*argv, f"--pythagorean={slope}"]) == want

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

    def test_ragged_rows_are_a_usage_error(self, tmp_path):
        f = tmp_path / "mat.json"
        f.write_text(json.dumps({"entries": [[1, 0], [0]]}))
        code, out, err = run(["classify", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err == (f"usage error: {f}: the rows of 'entries' must all have "
                       "the same length\n")

    def test_non_square_form_is_a_usage_error(self, tmp_path):
        mat, form = tmp_path / "mat.json", tmp_path / "form.json"
        mat.write_text(json.dumps({"entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        form.write_text(json.dumps({"entries": [[1, 0, 0], [0, 1, 0]]}))
        code, out, err = run(["classify", "--matrix", str(mat), "--form", str(form)])
        assert (code, out) == (2, "")
        assert err == "usage error: form matrix must be square, got shape (2, 3)\n"

    def test_form_of_another_size_is_a_usage_error(self, tmp_path):
        mat, form = tmp_path / "mat.json", tmp_path / "form.json"
        mat.write_text(json.dumps({"entries": [[2, 0, 0, 0], [0, 1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 0.5]]}))
        form.write_text(json.dumps({"entries": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}))
        code, out, err = run(["classify", "--matrix", str(mat), "--form", str(form)])
        assert (code, out) == (2, "")
        assert err == ("usage error: form of shape (3, 3) for matrices of shape "
                       "(4, 4)\n")


class TestBadInput:
    """Malformed input ends in exit 2 and one `usage error:` line (or
    argparse's own message, before any computation), never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--matrix", "/nonexistent/matrix.json"],
        ["verify", "figure8", "--u-exact", "--words", "/nonexistent/words.txt"],
        ["verify", "figure8", "--alpha", "1/0pi"],
        ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0",
         "--pythagorean", "1/0"],
        # --alpha is parsed whenever it is given, also when --u-exact drops it
        ["verify", "figure8", "--u-exact", "--alpha=foo"],
        ["verify", "bianchi", "--d", "2", "--target", "su31", "--u-exact", "--alpha=foo"],
        # so are --theta and --pythagorean, also where the target drops them
        ["verify", "bianchi", "--d", "2", "--target", "su31", "--u-exact", "--theta=foo"],
        ["verify", "figure8", "--u-exact", "--theta=foo"],
        ["verify", "bianchi", "--d", "2", "--target", "su31", "--u-exact",
         "--pythagorean=1/0"],
        ["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "1", "--theta=foo"],
        ["orbit", "--d", "2", "--target", "so41", "--theta", "1.0", "--radius", "1",
         "--alpha=foo"],
    ])
    def test_usage_error_line(self, argv):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_word_with_foreign_symbol(self, tmp_path):
        wf = tmp_path / "words.txt"
        wf.write_text("m^2\nq^1\n")
        assert run(["verify", "figure8", "--u-exact", "--words", str(wf)]) == (
            2, "", f"usage error: {wf}: word q^1 uses symbols not in the presentation: q\n")

    @pytest.mark.parametrize("word, factor", [
        ("m^x", "m^x"), ("m^", "m^"), ("m^^2", "m^^2"), ("^2", "^2"),
        ("m^1.5", "5"), ("m n", "m n"),
    ])
    def test_malformed_word(self, tmp_path, word, factor):
        wf = tmp_path / "words.txt"
        wf.write_text(f"m^2\n# comment\n{word}\n")
        assert run(["verify", "figure8", "--u-exact", "--words", str(wf)]) == (
            2, "", f"usage error: {wf}: line 3: factor {factor!r} of word {word!r} is "
                   f"not a symbol with an optional integer exponent, like n^-2\n")

    @pytest.mark.parametrize("value", ["1e308", "-1e308"])
    def test_angle_whose_powers_overflow(self, value):
        # the family needs u^k for |k| <= 2, and alpha * k overflows
        code, out, err = run(["verify", "figure8", f"--alpha={value}"])
        assert code == 2 and out == ""
        assert err == (f"usage error: angle {float(value)!r} is too large: the power "
                       f"u^-2 needs {float(value)!r} * -2, which overflows a float\n")

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


class TestUsageMessages:
    """Every argument check of a subcommand, message pinned byte for byte,
    checks taken in their order (a bad d before a missing angle, --count
    before d, d before --radius before the angle)."""

    NOT_SQUAREFREE = "usage error: d={} is not a squarefree positive integer\n"
    NO_FAMILY = ("usage error: d={} has no modular-surface bending family "
                 "(its deformations are classified separately)\n")

    @pytest.mark.parametrize("argv, err", [
        (["verify", "bianchi", "--d", "4"], NOT_SQUAREFREE.format(4)),
        (["verify", "bianchi", "--d", "0"], NOT_SQUAREFREE.format(0)),
        (["verify", "bianchi", "--d", "3"], NO_FAMILY.format(3)),
        (["verify", "bianchi", "--d", "1"], NO_FAMILY.format(1)),
        (["verify", "bianchi", "--d", "4", "--target", "so41"], NOT_SQUAREFREE.format(4)),
        (["verify", "bianchi", "--d", "7", "--target", "so41"],
         "usage error: so41 verification needs --theta\n"),
        (["sweep", "figure8", "--start", "0", "--end", "1", "--count", "0"],
         "usage error: --count must be >= 1\n"),
        (["sweep", "bianchi", "--d", "4", "--start", "0", "--end", "1", "--count", "0"],
         "usage error: --count must be >= 1\n"),
        (["sweep", "bianchi", "--d", "9", "--start", "0", "--end", "1", "--count", "3"],
         NOT_SQUAREFREE.format(9)),
        (["orbit", "--d", "8", "--radius", "51"], NOT_SQUAREFREE.format(8)),
        (["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "51"],
         "usage error: --radius must be in [0, 50]\n"),
        (["orbit", "--d", "2", "--alpha", "1/3pi", "--radius=-1"],
         "usage error: --radius must be in [0, 50]\n"),
        (["orbit", "--d", "2", "--target", "so41", "--radius", "60"],
         "usage error: --radius must be in [0, 50]\n"),
        (["orbit", "--d", "2"], "usage error: su31 orbit needs --alpha\n"),
        (["orbit", "--d", "2", "--target", "so41"],
         "usage error: so41 orbit needs --theta\n"),
    ])
    def test_message(self, argv, err):
        assert run(argv) == (2, "", err)


class TestClassifyInputs:
    """Matrix files that once ended in a traceback: malformed entries are
    a usage error; a finite matrix whose norm squared overflows gets a
    report, and never passes the form test on an overflowed scale."""

    @pytest.mark.parametrize("entries", [
        [1, 2, 3], [],
        # entries are non-bool numbers or pairs of exactly two of them
        [["1", 0], [0, 1]],
        [[True, 0], [0, 1]],
        [[[1, 0, 5], 0], [0, 1]],
        [[[1], 0], [0, 1]],
        [[[1, None], 0], [0, 1]],
        [[10 ** 400, 0], [0, 1]],
    ])
    def test_malformed_entries(self, tmp_path, entries):
        f = tmp_path / "mat.json"
        f.write_text(json.dumps({"entries": entries}))
        code, out, err = run(["classify", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("diag", [[1e300, 1, 1, 1e-300], [1e200] * 4])
    def test_huge_entries(self, tmp_path, diag):
        f = tmp_path / "mat.json"
        f.write_text(json.dumps({"entries": [[x if i == j else 0 for j in range(4)]
                                             for i, x in enumerate(diag)]}))
        code, out, err = run(["classify", "--matrix", str(f)])
        assert code in (0, 1) and err == ""
        got = json.loads(out)
        jsonschema.validate(got, SCHEMA)
        assert got["class"] != "identity"


    def test_no_warning_on_stderr(self, tmp_path):
        # the rank margin of a zero singular value under a huge threshold
        # overflows to inf, which is decisive and no warning
        f = tmp_path / "mat.json"
        diag = [1e150, 1, 1, 1e-150]
        f.write_text(json.dumps({"entries": [[x if i == j else 0 for j in range(4)]
                                             for i, x in enumerate(diag)]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["classify", "--matrix", str(f)])
        assert code in (0, 1) and err == ""
        assert [str(w.message) for w in caught] == []
        jsonschema.validate(json.loads(out), SCHEMA)


class TestIndeterminateText:
    """An indeterminate message prints "< 10" after its margin only where
    the margin is below that factor: a clustering failure carries the
    rank margin, which can clear the factor."""

    MARGIN = re.compile(r"\(margin ([^ )]+)( < 10)?\)")

    @pytest.mark.parametrize("argv, margin", [
        (["classify", "--matrix", "diag.json"], "33.3"),
        (["verify", "bianchi", "--d", "1000000000039", "--target", "su31", "--alpha=1.0"],
         "125"),
    ])
    def test_margin_above_the_factor(self, tmp_path, monkeypatch, argv, margin):
        diag = [1e7, 1, 1, 1e-7]
        (tmp_path / "diag.json").write_text(json.dumps(
            {"entries": [[x if i == j else 0 for j in range(4)] for i, x in enumerate(diag)]}))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv)
        assert code == 1 and err == ""
        found = self.MARGIN.findall(out)
        assert found == [(margin, "")]
        assert "eigenvalue clustering never reached consistent multiplicities " \
            f"(margin {margin})" in out

    @pytest.mark.parametrize("margin, text", [
        (3.0, "x (margin 3 < 10)"), (9.99, "x (margin 9.99 < 10)"),
        (9.9996, "x (margin 10)"), (10.0, "x (margin 10)"), (125.0, "x (margin 125)"),
        (math.inf, "x (margin inf)"), (math.nan, "x (margin nan)")])
    def test_message_text(self, margin, text):
        assert str(matrices.IndeterminateError("x", margin)) == text

    @pytest.mark.parametrize("margin", [3.0, 125.0, math.inf])
    def test_survives_pickle_and_copy(self, margin):
        # an indeterminate verdict can cross a process boundary
        exc = matrices.IndeterminateError("x", margin)
        for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
            assert type(clone) is matrices.IndeterminateError
            assert (str(clone), clone.margin, clone.args) == (str(exc), margin, exc.args)

    def test_margin_below_the_factor(self):
        code, out, _ = run(["verify", "bianchi", "--d", "10000019", "--target", "so41",
                            "--theta=1.0"])
        assert code == 1
        found = self.MARGIN.findall(out)
        assert found and all(below and float(m) < 10 for m, below in found)


def fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code argv...`` in a new interpreter that imports this
    package's source; stdout and stderr are kept as bytes."""
    src = str(Path(cuspdeform.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True)


class TestSweepMemory:
    """A sweep's memory is bounded by its block, not by its grid."""

    @staticmethod
    def _peak_kb(count: int, output) -> int:
        code = ("import resource, sys; from cuspdeform.cli import main; rc = main(sys.argv[1:]); "
                "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        proc = fresh_python(code, "sweep", "figure8", "--start=-3.0", "--end=3.0",
                            "--count", str(count), "--output", str(output))
        rc, peak = proc.stdout.split()
        assert (proc.returncode, rc, proc.stderr) == (0, b"0", b"")
        return int(peak)

    def test_large_grid_peak(self, tmp_path):
        # ru_maxrss is in KiB; in a fresh interpreter each, a 20,000-point
        # sweep peaks about 10 MB above a 30-point one with blocks of 256,
        # and 33 MB above it with blocks of 4096
        small = self._peak_kb(30, tmp_path / "small.csv")
        large = self._peak_kb(20000, tmp_path / "large.csv")
        assert len((tmp_path / "large.csv").read_bytes().splitlines()) > 19000
        assert large - small < 25 * 1024


# the command line with numpy made unimportable
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                 "from cuspdeform.cli import main; sys.exit(main(sys.argv[1:]))")


class TestRuntimeDependencies:
    def test_import_loads_neither_scipy_nor_jsonschema(self):
        # the whole runtime, every submodule and the command line, is loaded
        code = ("import sys, cuspdeform, cuspdeform.cli; "
                "[getattr(cuspdeform, n) for n in cuspdeform.__all__]; "
                "print(sorted({'scipy', 'jsonschema'} & "
                "{m.split('.')[0] for m in sys.modules}))")
        proc = fresh_python(code)
        assert proc.returncode == 0 and proc.stdout.strip() == b"[]"

    def test_import_loads_no_numpy(self):
        code = "import sys, cuspdeform; print('numpy' in sys.modules)"
        proc = fresh_python(code)
        assert proc.returncode == 0 and proc.stdout.strip() == b"False"

    @pytest.mark.parametrize("argv, name", [
        (["verify", "figure8", "--u-exact"], "verify_figure8_u-exact.json"),
        (["verify", "figure8", "--u-exact", "--words", str(GOLDEN / "extra_words.txt")],
         "verify_figure8_u-exact_words.json"),
    ])
    def test_exact_report_without_numpy(self, argv, name):
        # the exact verdicts rest on no floating point
        proc = fresh_python(WITHOUT_NUMPY, *argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (GOLDEN / name).read_bytes()

    def test_numeric_report_needs_numpy(self):
        # the block above is real: a report at an angle computes floats
        proc = fresh_python(WITHOUT_NUMPY, "verify", "figure8", "--alpha", "1/5pi")
        assert proc.returncode != 0 and b"import of numpy halted" in proc.stderr
