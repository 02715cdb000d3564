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
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cuspdeform
from cuspdeform import bending, cli, figure8, heisenberg, matrices, scalars, words
from cuspdeform.cli import main, parse_angle, schema_path
from cuspdeform.scalars import Angle

SCHEMA = json.load(open(schema_path()))
GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent


def _golden_commands() -> list[tuple[str, list[str], int, str]]:
    """The rows of ``golden/commands.txt``, each (golden file, argv, exit
    code, mark), in the file's order; a path in argv is relative to ROOT."""
    rows = []
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, code, mark, *argv = line.split()
            rows.append((name, argv, int(code), mark))
    return rows


GOLDEN_COMMANDS = _golden_commands()

json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-(2 ** 130), 2 ** 130),
                        st.floats(), st.floats().map(np.float64), st.text(),
                        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
json_trees = st.recursive(json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=8), kids, max_size=4)), max_leaves=24)


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

    def test_form_never_lifted(self, monkeypatch):
        # the Laurent Siegel form is a permutation matrix of ones: the exact
        # invariance check of every ext-ring generator reindexes, and lifts
        # nothing into the ext ring
        lifts, inside = [], []
        preserved, ext = matrices.form_preserved, matrices.Mat.ext

        def counting_preserved(*args):
            counting_preserved.calls += 1
            inside.append(True)
            try:
                return preserved(*args)
            finally:
                inside.pop()

        counting_preserved.calls = 0
        monkeypatch.setattr(words, "form_preserved", counting_preserved)
        monkeypatch.setattr(matrices.Mat, "ext", classmethod(lambda cls, rows, d: (
            lifts.append(d) if inside else None) or ext(rows, d)))
        code, _, _ = run(["verify", "bianchi", "--d", "7", "--target", "su31", "--u-exact"])
        assert code == 0 and lifts == [] and counting_preserved.calls

    @pytest.mark.parametrize("argv", [
        ["figure8", "--u-exact"],
        ["bianchi", "--d", "7", "--target", "su31", "--u-exact"],
    ])
    def test_warm_report_decides_nothing_again(self, monkeypatch, argv):
        # a second report in the process reads the decisions of the shared
        # family: no exact product, invariance check or lattice build
        first = run(["verify", *argv])
        products, preserved, lattices = [], [], []
        matmul, inverse = matrices.Mat.__matmul__, matrices.Mat.inverse
        monkeypatch.setattr(matrices.Mat, "__matmul__", lambda A, B:
                            products.append(A.n) or matmul(A, B))
        monkeypatch.setattr(matrices.Mat, "inverse", lambda A:
                            products.append(A.n) or inverse(A))
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

    @pytest.fixture
    def sample_steps(self, monkeypatch):
        # each letter step and span probe of a su31 report
        calls = []
        step, probe = bending._letter_classes, bending.algebra_dimension
        monkeypatch.setattr(bending, "_letter_classes", lambda fam, powers, tol:
                            calls.append("step") or step(fam, powers, tol))
        monkeypatch.setattr(bending, "algebra_dimension", lambda *args, **kwargs:
                            calls.append("probe") or probe(*args, **kwargs))
        return calls

    def test_warm_symbolic_su31_report_is_golden(self, sample_steps):
        # the second report reads the letter class and the span probe the
        # family kept, and prints the golden bytes
        argv = ["verify", "bianchi", "--d", "15", "--target", "su31", "--u-exact"]
        golden = (GOLDEN / "verify_bianchi_d15_su31_u-exact.json").read_text()
        assert run(argv) == (0, golden, "") and sample_steps == ["step", "probe"]
        sample_steps.clear()
        assert run(argv) == (0, golden, "") and sample_steps == []

    @pytest.mark.parametrize("d, tol", [(7, "1e-8"), (2, "1e-15")])
    def test_other_tol_prints_what_a_fresh_process_prints(self, sample_steps, d, tol):
        # d = 2 at 1e-15: the probe is too close to call, and exits 2
        argv = ["verify", "bianchi", "--d", str(d), "--target", "su31", "--u-exact"]
        assert run(argv)[0] == 0
        sample_steps.clear()
        first = run([*argv, "--tol", tol])
        assert sample_steps == ["step", "probe"]
        assert run([*argv, "--tol", tol]) == first and sample_steps == ["step", "probe"]
        proc = fresh_python(WITH_NUMPY, *argv, "--tol", tol)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == first
        assert first[0] == (0 if d == 7 else 2)

    @pytest.mark.parametrize("alpha", ["--alpha=1/5pi", "--alpha=2/5pi", "--alpha=0.7",
                                       "--alpha=0"])
    def test_alpha_report_steps_each_time(self, sample_steps, alpha):
        argv = ["verify", "bianchi", "--d", "7", "--target", "su31"]
        run([*argv, "--u-exact"])
        sample_steps.clear()
        first = run([*argv, alpha])
        assert run([*argv, alpha]) == first and first[0] == 0
        assert sample_steps == ["step", "probe"] * 2

    def test_kept_probe_error_prints_the_same(self, monkeypatch):
        def too_close(*args, **kwargs):
            raise matrices.IndeterminateError("algebra span rank decision too close", 4.5)

        monkeypatch.setattr(bending, "algebra_dimension", too_close)
        argv = ["verify", "bianchi", "--d", "6", "--target", "su31", "--u-exact"]
        first = run(argv)
        assert first == (2, "", "usage error: algebra span rank decision too close "
                                "(margin 4.5 < 10)\n")
        assert run(argv) == first

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
        # the exact inverses take no determinant: only the longitudeDet and
        # detIdentity checks of figure8, decided by its family's
        # identities, call det.  The so41 report inverts nothing: its
        # Siegel form of ones is its own inverse, and its generator
        # inverses are form adjoints; figure8 inverts m and n
        inverted = {"bianchi": [], "figure8": [4, 4]}[argv[0]]
        callers, inverses = [], []
        det, inverse = matrices.Mat.det, matrices.Mat.inverse
        monkeypatch.setattr(matrices.Mat, "det", lambda m: callers.append(
            sys._getframe(1).f_code.co_name) or det(m))
        monkeypatch.setattr(matrices.Mat, "inverse", lambda m: inverses.append(m.n)
                            or inverse(m))
        code, _, _ = run(["verify", *argv])
        assert code == 0
        assert callers == det_callers and inverses == inverted


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("family", [["figure8"], ["bianchi", "--d", "2", "--target", "so41"]])
    def test_non_finite_exclusion_radius_is_a_usage_error(self, monkeypatch, family, value):
        # it once dropped every figure-eight row, exit 0; a Bianchi sweep
        # does not use it, but a given option must parse
        monkeypatch.setattr(cli, "figure8_columns", None)  # never reached
        code, out, err = run(["sweep", *family, "--start=-1", "--end=1", "--count", "5",
                              f"--exclude-radius={value}"])
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: argument --exclude-radius: exclusion radius must be finite, got '{value}'\n")

    def test_exclusion_radius_not_above_zero_keeps_every_row(self):
        # 2.1 lies within the default 0.01 of the transition at 2pi/3; a
        # negative radius is read as zero, so it moves no arc: 2.1 and
        # above stay on the (2,2) arc, unclassified
        argv = ["sweep", "figure8", "--start=2.0", "--end=2.2", "--count", "5"]
        grid = ["2.0", "2.05", "2.1", "2.1500000000000004", "2.2"]

        def alphas(out):
            return [line.split(",")[0] for line in out.split("\r\n")[1:-1]]

        assert alphas(run(argv)[1]) == grid[:2] + grid[3:]
        zero = run([*argv, "--exclude-radius=0"])
        assert zero[0] == 0 and zero[2] == "" and alphas(zero[1]) == grid
        assert [line.split(",")[1:6] for line in zero[1].split("\r\n")[3:-1]] == [
            ["2", "2", "0", "", ""]] * 3
        for radius in ("-0.5", "-1e300"):
            assert run([*argv, f"--exclude-radius={radius}"]) == zero

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

    @pytest.mark.parametrize("start, end", [
        (math.pi / 2 - 6e-5, math.pi / 2 + 6e-5), (-6e-4, 6e-4)], ids=["half-pi", "zero"])
    def test_raw_figure8_rows_are_exact(self, start, end):
        # the rows near the float pi/2 and near 0 that the numeric
        # classifier left indeterminate: a raw angle is never exceptional,
        # so each classified row reads the exact classes, with no margin
        code, out, _ = run(["sweep", "figure8", f"--start={start!r}", f"--end={end!r}",
                            "--count", "7"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\r\n")[1:]]
        classified = [r for r in rows if abs(float(r[0])) > 1e-12]
        assert len(rows) == 7 and len(classified) >= 6
        for r in rows:
            assert r[-1] == ""
            assert r[4:6] == (["parabolic(unipotent-step3)", "parabolic(ellipto-parabolic)"]
                              if r in classified else ["", ""])


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
        # where the gap sweep's column bounds prune most differently: a
        # pi-rational so41 orbit dense with near-duplicate rows, and an
        # orthogonal su31 one whose Z columns tie along each row, so that
        # t tells the points apart
        (["orbit", "--d", "5", "--target", "so41", "--theta=1/3pi", "--radius", "50"],
         "6c424042f24e30d91e4772b8b2ac4a2e987731a6cbcbd295ea581cf64db9b100"),
        (["orbit", "--d", "2", "--alpha=-2.5", "--radius", "50"],
         "c2e5e57569b70aaad7145e264168bc816d3273ee9d4deac6a9f5e4a57f3a9121"),
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

    # each row keeps the test id pytest gives a (name, argv) pair
    @pytest.mark.parametrize("name, argv, want", [
        pytest.param(name, argv, want, id=f"{name}-argv{k}") for k, (name, argv, want) in
        enumerate(row[:3] for row in GOLDEN_COMMANDS if row[3] != "report")])
    def test_golden_output(self, monkeypatch, name, argv, want):
        monkeypatch.chdir(ROOT)
        code, out, _ = run(argv)
        assert code == want
        assert out == (GOLDEN / name).read_bytes().decode()

    @pytest.mark.parametrize("name, argv, want",
                             [row[:3] for row in GOLDEN_COMMANDS if row[3] == "report"])
    def test_bianchi_report_golden(self, name, argv, want):
        code, out, err = run(argv)
        assert (code, err) == (want, "")
        assert out == (GOLDEN / name).read_bytes().decode()

    def test_every_golden_has_a_command(self):
        # a file no command names is an input of one (a word list)
        inputs = {Path(arg).name for _, argv, _, _ in GOLDEN_COMMANDS for arg in argv
                  if (ROOT / arg).parent == GOLDEN}
        outputs = {p.name for p in GOLDEN.iterdir()} - inputs - {"commands.txt"}
        assert outputs == {name for name, _, _, _ in GOLDEN_COMMANDS}
        assert {mark for _, _, _, mark in GOLDEN_COMMANDS} == {"-", "numpy-free", "report"}

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


    def test_identities_of_many_sizes_keep_a_bounded_eye(self, tmp_path):
        # the size of a classify --matrix input sets the shared identity's
        matrices.eye.cache_clear()
        for n in range(2, 30):
            f = tmp_path / f"eye{n}.json"
            f.write_text(json.dumps({"entries": [[int(i == j) for j in range(n)]
                                                 for i in range(n)]}))
            code, out, _ = run(["classify", "--matrix", str(f)])
            assert (code, json.loads(out)["class"]) == (0, "identity")
        info = matrices.eye.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize


class TestSharedObjects:
    """Reports share what depends only on d, a form size or a presentation
    name (the ext-ring constants, the Siegel forms, the lattices and the
    presentations) within a process, and print what a cold process prints."""

    CASES = [
        ("verify_bianchi_d7_su31_alpha_2-5pi.json",
         ["verify", "bianchi", "--d", "7", "--target", "su31", "--alpha=2/5pi"]),
        ("verify_bianchi_d7_so41_theta_1.0_pyth_1-2.json",
         ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0",
          "--pythagorean", "1/2"]),
        ("verify_bianchi_d2_su31_u-exact.json",
         ["verify", "bianchi", "--d", "2", "--target", "su31", "--u-exact"]),
        ("sweep_bianchi_d2_so41_0.1_3.0_12.csv",
         ["sweep", "bianchi", "--d", "2", "--target", "so41", "--start", "0.1",
          "--end", "3.0", "--count", "12"]),
    ]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0)])
    def test_both_targets_of_one_d_in_either_order(self, tmp_path, order):
        # both targets of d = 7 and of d = 2, each order, with a classify
        # of a 4 x 4 and a 5 x 5 matrix (whose default forms are the
        # families' Siegel forms, built anew) before the first report and
        # after each one
        from cuspdeform.heisenberg import HeisPoint, translation_matrix
        classify = []
        for k, g in enumerate((translation_matrix(HeisPoint((0.5, 0.1), 0.7)),
                               bending.bianchi_family(5, "so41", theta=Angle.radians(1.0))
                               .images["u"])):
            f = tmp_path / f"m{k}.json"
            f.write_text(json.dumps({"entries": [[[z.real, z.imag] for z in row]
                                                 for row in g.tolist()]}))
            classify.append(["classify", "--matrix", str(f)])
        cold = [run(argv) for argv in classify]
        assert [c[0] for c in cold] == [0, 0]
        for k in order:
            name, argv = self.CASES[k]
            assert run(argv) == (0, (GOLDEN / name).read_bytes().decode(), "")
            assert [run(argv) for argv in classify] == cold


class TestJsonText:
    """``_json_text`` writes what ``json.dumps(.., indent=2, sort_keys=True)``
    writes, and a newline."""

    @staticmethod
    def dumps(obj) -> str:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_golden_reports(self, name):
        text = (GOLDEN / name).read_bytes().decode()
        report = json.loads(text)
        assert cli._json_text(report) == self.dumps(report) == text

    @given(json_trees)
    @settings(max_examples=300, deadline=None)
    def test_trees(self, tree):
        assert cli._json_text(tree) == self.dumps(tree)

    def test_edge_values(self):
        tree = {"": [0.0, -0.0, math.inf, -math.inf, math.nan, 10 ** 40, -(10 ** 40), True,
                     False, None, [], {}, (), (1, [2]), np.float64(0.1), np.float64(-0.0),
                     "\x00\x1f\x7f\u00e9\u2028\U0001f600\"\\/"]}
        assert cli._json_text(tree) == self.dumps(tree)

    @pytest.mark.parametrize("value", [{1, 2}, object(), 1j, np.int64(3), b"x", np.bool_(True)])
    def test_unsupported_value_raises_as_json_does(self, value):
        with pytest.raises(TypeError) as ours:
            cli._json_text({"a": [value]})
        with pytest.raises(TypeError) as theirs:
            self.dumps({"a": [value]})
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            cli._json_text({"a": {key: 1}})


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


def fresh_python(code: str, *argv: str, cwd=None) -> subprocess.CompletedProcess:
    """``python -c code argv...`` in a new interpreter that imports this
    package's source, in ``cwd`` if given; stdout and stderr are kept as
    bytes."""
    src = str(Path(cuspdeform.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
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


# the command line in a fresh interpreter
WITH_NUMPY = "import sys; from cuspdeform.cli import main; sys.exit(main(sys.argv[1:]))"

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

    # the golden rows marked numpy-free, by name, each with the test id
    # pytest gives an (argv, name) pair
    @pytest.mark.parametrize("argv, name, want", [
        pytest.param(argv, name, want, id=f"argv{k}-{name}") for k, (name, argv, want) in
        enumerate(sorted(row[:3] for row in GOLDEN_COMMANDS if row[3] == "numpy-free"))])
    def test_exact_report_without_numpy(self, argv, name, want):
        # the exact verdicts rest on no floating point
        proc = fresh_python(WITHOUT_NUMPY, *argv, cwd=ROOT)
        assert (proc.returncode, proc.stderr) == (want, b"")
        assert proc.stdout == (GOLDEN / name).read_bytes()

    def test_numeric_report_needs_numpy(self):
        # the block above is real: a report at an angle computes floats
        proc = fresh_python(WITHOUT_NUMPY, "verify", "figure8", "--alpha", "1/5pi")
        assert proc.returncode != 0 and b"import of numpy halted" in proc.stderr
