import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cuspdeform.figure8 import (ARC_TRANSITIONS, L_WORD, TRACE_WITNESS_WORDS,
                                build_family, det_form_closed, det_form_laurent,
                                expected_arc, figure8_report, figure8_sweep,
                                form_matrix, generator_m,
                                longitude_matrix, parabolicity_report,
                                signature_sweep, trace_integrality_check)
from cuspdeform.isometry import (ELLIPTO_PARABOLIC, Parabolic,
                                 UNIPOTENT_STEP2, UNIPOTENT_STEP3)
from cuspdeform.matrices import GeometryError, herm_signature
from cuspdeform.scalars import Angle, LaurentPoly
from cuspdeform.words import Word

HALF = Fraction(1, 2)


class TestBuildFamily:
    def test_hyperbolic_point_column(self):
        # u = 1: last column of the m image is (-1/2, 1/2, 1, 1)
        fam = build_family(Angle.zero())
        col = fam.M[:, 3]
        assert np.allclose(col, [-0.5, 0.5, 1.0, 1.0])
        assert np.abs(fam.M.imag).max() == 0  # real at the lattice
        assert np.abs(np.asarray(fam.form.mat).imag).max() < 1e-15

    def test_symbolic_traces(self):
        fam = build_family(None)
        assert fam.rep.trace(Word.parse("m.n")) == LaurentPoly.u() + 6

    def test_longitude_entry(self):
        # (1,3) entry of the longitude image is -1 - conj(u)^2
        L = build_family(None).longitude()
        assert L[0, 2] == LaurentPoly({0: -1, -2: -1})

    def test_longitude_transcription(self):
        assert build_family(None).longitude() == longitude_matrix()

    def test_symbolic_family_is_shared_and_read_only(self):
        fam = build_family(None)
        assert build_family(None) is fam
        for field in ("alpha", "M", "form", "rep", "relation", "identities"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fam, field, None)
        with pytest.raises(TypeError):
            fam.rep.images["m"] = fam.N

    @pytest.mark.parametrize("name", ["relation", "identities", "generic_classes",
                                      "witness_texts", "denominators"])
    def test_numeric_family_refuses_exact_decisions(self, name):
        # the exact decisions are the symbolic family's; a numeric family
        # names it instead of failing on an array
        fam = build_family(Angle.radians(0.3))
        with pytest.raises(TypeError, match=r"build_family\(None\)"):
            getattr(fam, name)
        with pytest.raises(TypeError, match=name):
            getattr(fam, name)  # refused again: nothing was cached
        assert getattr(build_family(None), name) is not None

    def test_entry_denominators(self):
        fam = build_family(None)
        assert fam.M.max_denominator() == 2
        assert fam.N.max_denominator() == 1
        assert fam.form.mat.max_denominator() == 2


class TestDeterminantLaw:
    def test_transition_zeros(self):
        assert det_form_closed(Angle.pi_fraction(2, 3)) == 0.0
        assert det_form_closed(Angle.pi_fraction(1, 1)) == 0.0

    def test_closed_form_vs_direct(self):
        # two independent evaluations across a grid
        J = form_matrix()
        for k in range(-10, 11):
            alpha = Angle.radians(0.31 * k)
            direct = np.linalg.det(J.evaluate(alpha)).real
            closed = det_form_closed(alpha)
            assert abs(direct - closed) <= 1e-9 * max(1.0, abs(closed))

    def test_exact_expansion(self):
        assert form_matrix().det() == det_form_laurent()


class TestSignatureSweep:
    def test_inner_and_outer_points(self):
        rows = signature_sweep([Angle.pi_fraction(1, 4),
                                Angle.pi_fraction(3, 4),
                                Angle.zero()])
        got = {round(r.alpha, 6): r.signature.as_tuple() for r in rows}
        assert got[round(math.pi / 4, 6)] == (3, 1, 0)
        assert got[round(3 * math.pi / 4, 6)] == (2, 2, 0)
        assert got[0.0] == (3, 1, 0)

    def test_exclusion_zone_skipped(self):
        rows = signature_sweep([Angle.pi_fraction(2, 3)], exclusion=0.05)
        assert rows == []

    def test_full_grid_trichotomy(self):
        alphas = [Angle.radians(-math.pi + (2 * math.pi) * k / 239)
                  for k in range(240)]
        rows = signature_sweep(alphas, exclusion=0.02)
        for r in rows:
            assert r.signature.as_tuple() == r.expected + (0,)


class TestSweepSymmetry:
    def test_sweep_symmetric_in_alpha(self):
        # alpha and -alpha give complex-conjugate representations: the
        # signature, the classes and whether a margin is printed agree at
        # mirrored grid points, across both arcs, the transitions and the
        # rows near alpha = 0, whose raw-angle classes are exact
        half = [1.05 * math.pi * k / 3150 for k in range(1, 3151)]
        rows = figure8_sweep([-x for x in reversed(half)] + [0.0] + half)
        assert len(rows) == 6225
        assert {r.classes for r in rows} == {
            None, ("parabolic(unipotent-step3)", "parabolic(ellipto-parabolic)")}
        for row, mirror in zip(rows, reversed(rows)):
            assert row.alpha == -mirror.alpha
            assert (row.signature, row.classes, row.margin is None) == \
                (mirror.signature, mirror.classes, mirror.margin is None)


class TestArcTransitions:
    SMALL_PI_FRACTIONS = sorted({Fraction(p, q) for q in range(1, 13)
                                 for p in range(-2 * q, 2 * q + 1)})

    def test_every_small_pi_fraction_meets_its_arc(self):
        # the signatureArc check of verify figure8 at every p/q pi, q <= 12
        J = form_matrix()
        for f in self.SMALL_PI_FRACTIONS:
            alpha = Angle.pi_times(f)
            want = expected_arc(alpha, 0.0)
            assert (want is None) == (f % 2 in ARC_TRANSITIONS), f
            if want is not None:
                sig = herm_signature(J.evaluate(alpha))
                assert sig.as_tuple() == want + (0,), f

    def test_four_thirds_pi_reports_like_two_thirds_pi(self):
        # 4pi/3 lies one ulp outside the inner arc in floating point, and
        # 8pi/3, 10pi/3, 14pi/3 one ulp inside it; each is a transition
        # +-2pi/3 and must read like it
        for sign in (1, -1):
            near = figure8_report(Angle.pi_times(Fraction(2 * sign, 3)))
            for far in (4, 8, 10, 14):
                rep = figure8_report(Angle.pi_times(Fraction(far * sign, 3)))
                assert "signatureArc" not in rep["checks"]
                assert all(c["pass"] for c in rep["checks"].values())
                assert {k: v for k, v in rep.items() if k != "alpha"} == \
                    {k: v for k, v in near.items() if k != "alpha"}

    @pytest.mark.parametrize("f", [Fraction(2, 3), Fraction(8, 3), Fraction(-8, 3)])
    def test_parabolicity_report_rejects_transitions(self, f):
        with pytest.raises(GeometryError, match="only on the"):
            parabolicity_report(Angle.pi_times(f))


class TestParabolicity:
    def test_generic_inner_point(self):
        rep = parabolicity_report(Angle.pi_fraction(1, 5))
        assert rep["classes"]["m"] == Parabolic(UNIPOTENT_STEP3)
        assert rep["classes"]["l"] == Parabolic(ELLIPTO_PARABOLIC)
        u = Angle.pi_fraction(1, 5).exp_i()
        spec = {round(abs(v - u), 6): (alg, geo) for v, alg, geo in rep["l_spectrum"]}
        assert spec[0.0] == (3, 2)  # u with multiplicity three, defective

    def test_undeformed_point(self):
        rep = parabolicity_report(Angle.zero())
        assert isinstance(rep["classes"]["m"], Parabolic)
        assert isinstance(rep["classes"]["l"], Parabolic)

    def test_merged_spectrum_at_quarter_turn(self):
        # u = i: conj(u)^3 = u, one defective cluster; still parabolic
        rep = parabolicity_report(Angle.pi_fraction(1, 2))
        assert rep["classes"]["l"] == Parabolic(UNIPOTENT_STEP2)
        (value, alg, geo), = rep["l_spectrum"]
        assert alg == 4 and geo < 4
        assert abs(value - 1j) < 1e-9

    def test_outer_arc_rejected(self):
        with pytest.raises(GeometryError):
            parabolicity_report(Angle.pi_fraction(3, 4))

    def test_peripheral_parabolic_on_full_circle_grid(self):
        # both peripheral images stay parabolic at every parameter on a
        # 720-point circle grid away from the undeformed point
        from cuspdeform.figure8 import generator_m, longitude_matrix as _L
        M_exact, L_exact = generator_m(), _L()
        J_exact = form_matrix()
        from cuspdeform.matrices import HermForm, TRANSPOSE_CONJ
        from cuspdeform.isometry import classify as _classify
        for k in range(720):
            a = -math.pi + 2 * math.pi * (k + 0.5) / 720
            alpha = Angle.radians(a)
            form = HermForm(J_exact.evaluate(alpha), TRANSPOSE_CONJ)
            cm = _classify(M_exact.evaluate(alpha), form)
            cl = _classify(L_exact.evaluate(alpha), form)
            assert isinstance(cm, Parabolic), (a, cm)
            assert isinstance(cl, Parabolic), (a, cl)


class TestTraces:
    def test_printed_values(self):
        u, ub = LaurentPoly.u(), LaurentPoly.u(-1)
        want = [LaurentPoly.const(4), LaurentPoly.const(4), u + 6,
                LaurentPoly.const(3), u * 3 + 9, ub + 3,
                LaurentPoly.const(3), ub + 6, ub + 6]
        rows = trace_integrality_check()
        assert [r["trace"] for r in rows] == want
        assert all(r["integral"] for r in rows)

    def test_square_of_unipotent(self):
        fam = build_family(None)
        assert fam.rep.trace(Word.parse("m^2")) == LaurentPoly.const(4)

    def test_extra_words_appended(self):
        rows = trace_integrality_check([Word.parse("m^2")])
        assert len(rows) == len(TRACE_WITNESS_WORDS) + 1
        assert rows[-1]["trace"] == LaurentPoly.const(4)

    def test_empty_extra_list(self):
        assert len(trace_integrality_check([])) == len(TRACE_WITNESS_WORDS)

    def test_longitude_times_meridian_integral(self):
        fam = build_family(None)
        tr = fam.rep.trace(L_WORD * Word.gen("m"))
        assert tr.is_integral()


class TestReport:
    def test_symbolic_report_passes(self):
        rep = figure8_report(None)
        assert all(c["pass"] for c in rep["checks"].values())
        assert rep["alpha"] is None and rep["signature"] is None
        json.dumps(rep)  # JSON-ready

    def test_numeric_report(self):
        rep = figure8_report(Angle.pi_fraction(1, 5))
        assert rep["signature"] == [3, 1, 0]
        assert rep["classes"]["m"] == "parabolic(unipotent-step3)"
        assert rep["classes"]["l"] == "parabolic(ellipto-parabolic)"
        assert all(c["pass"] for c in rep["checks"].values())

    def test_outer_arc_report(self):
        rep = figure8_report(Angle.pi_fraction(3, 4))
        assert rep["signature"] == [2, 2, 0]
        assert rep["classes"] is None  # excluded from parabolicity claims

    def test_special_point_annotation(self):
        rep = figure8_report(Angle.pi_fraction(1, 2))
        assert rep["specialPoint"] == {"is": True, "discreteImage": True}
        rep2 = figure8_report(Angle.pi_fraction(1, 5))
        assert rep2["specialPoint"]["is"] is False

    def test_special_points_are_the_small_orders(self):
        # the orders n of u with phi(n) <= 2, against the hand-written
        # table of multiples of pi that they replace
        table = {f % 2 for f in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2),
                                 Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3),
                                 Fraction(-2, 3))}
        fracs = {Fraction(p, q) for q in range(1, 61) for p in range(-2 * q + 1, 2 * q)}
        fracs |= {Fraction(p, q) for p, q in ((7, 3), (-13, 6), (5, 2), (9, 4), (-4, 1))}
        for f in sorted(fracs):
            special = figure8_report(Angle.pi_times(f))["specialPoint"]
            assert special["is"] is (f % 2 in table), f
            assert (special["discreteImage"] is None) is not special["is"], f
        assert figure8_report(Angle.radians(math.pi / 2))["specialPoint"]["is"] is False

    @pytest.mark.parametrize("den", [10 ** 4, 10 ** 6, 10 ** 7])
    def test_small_pi_rational_angles_are_decided(self, den):
        # the longitude is the exact one evaluated, so its numeric class
        # near 0 is decided: the generic classes, which hold at every
        # order of u but 1, 2 and 4
        rep = figure8_report(Angle.pi_fraction(1, den))
        assert rep["classes"] == {"m": "parabolic(unipotent-step3)",
                                  "l": "parabolic(ellipto-parabolic)"}
        assert rep["checks"]["peripheralParabolic"] == {"pass": True, "info": ""}
        assert rep["pass"] is True

    @pytest.mark.xfail(strict=True, reason=(
        "the numeric class of the longitude at a pi-rational angle near pi/2, where "
        "u has order 2*10**6 or 2*10**7, none of L's exceptional orders 1, 2 and 4, "
        "reads parabolic(unipotent-step3)"))
    @pytest.mark.parametrize("frac", [Fraction(499999, 10 ** 6), Fraction(-499999, 10 ** 6),
                                      Fraction(4999999, 10 ** 7)])
    def test_near_quarter_turn_longitude(self, frac):
        assert figure8_report(Angle.pi_times(frac))["classes"]["l"] == (
            "parabolic(ellipto-parabolic)")
