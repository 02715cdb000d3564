"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line, with every tolerance pinned.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

from cuspdeform.bending import algebra_dimension, bianchi_family
from cuspdeform.cli import main as cli_main
from cuspdeform.figure8 import (L_WORD, build_family, det_form_closed,
                                form_matrix, longitude_matrix,
                                trace_integrality_check)
from cuspdeform.heisenberg import (CuspParams, HeisPoint, RS1Class,
                                   RS1Element, orbit_point,
                                   orbit_point_via_matrices, rs1_classify,
                                   rs1_probe)
from cuspdeform.isometry import (ELLIPTO_PARABOLIC, Elliptic, Parabolic,
                                 classify)
from cuspdeform.matrices import eigen, form_preserved, herm_signature, siegel_form
from cuspdeform.scalars import Angle, ExtScalar, LaurentPoly, Surd
from cuspdeform.words import Word, builtin_presentation, check_relations

INNER = 2 * math.pi / 3


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_exact_relations():
    t0 = time.perf_counter()
    fam = build_family(None)
    rel8 = check_relations(fam.rep, builtin_presentation("figure8"))
    ok = rel8[0].exact is True
    count = 1
    for d in (2, 7, 11):
        bf = bianchi_family(d, "su31")
        for r in check_relations(bf.rep(), bf.presentation):
            ok = ok and r.exact and r.projective
            count += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(1, ok, f"{count} relators exact at symbolic u in {elapsed:.2f}s")


def test_criterion_2_exact_form_invariance(pythagorean_so41):
    t0 = time.perf_counter()
    fam = build_family(None)
    ok = form_preserved(fam.M, fam.form) and form_preserved(fam.N, fam.form)
    count = 2
    for d in (2, 7, 11):
        bf = bianchi_family(d, "su31")
        for g in bf.images.values():
            ok = ok and form_preserved(g, bf.form)
            count += 1
        for g in pythagorean_so41(d, Fraction(1, 2)).values():
            ok = ok and form_preserved(g, siegel_form(5))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(2, ok, f"{count} generators preserve their forms exactly "
                  f"in {elapsed:.2f}s")


def test_criterion_3_determinant_law():
    t0 = time.perf_counter()
    J = form_matrix()
    worst = 0.0
    for k in range(1000):
        alpha = Angle.radians(-math.pi + 2 * math.pi * (k + 0.5) / 1000)
        direct = float(np.linalg.det(J.evaluate(alpha)).real)
        closed = det_form_closed(alpha)
        worst = max(worst, abs(direct - closed) / max(abs(closed), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 2.0
    report(3, ok, f"1000-point grid, worst relative error {worst:.2e} "
                  f"in {elapsed:.2f}s")


def test_criterion_4_signature_trichotomy():
    J = form_matrix()
    checked = 0
    bad = 0
    for k in range(720):
        a = -math.pi + 2 * math.pi * (k + 0.5) / 720
        mag = abs(a)
        if mag < INNER - 0.01:
            want = (3, 1, 0)
        elif INNER + 0.01 < mag < math.pi - 0.01:
            want = (2, 2, 0)
        else:
            continue
        sig = herm_signature(J.evaluate(Angle.radians(a)), tol=1e-9)
        checked += 1
        if sig.as_tuple() != want:
            bad += 1
    report(4, bad == 0, f"{checked} grid points classified, {bad} mismatches")


def test_criterion_5_trace_identities():
    u, ub = LaurentPoly.u(), LaurentPoly.u(-1)
    want = [LaurentPoly.const(4), LaurentPoly.const(4), u + 6,
            LaurentPoly.const(3), u * 3 + 9, ub + 3,
            LaurentPoly.const(3), ub + 6, ub + 6]
    rows = trace_integrality_check()
    ok = [r["trace"] for r in rows] == want
    ok = ok and all(r["integral"] for r in rows)
    fam = build_family(None)
    ok = ok and fam.rep.trace(L_WORD * Word.gen("m")).is_integral()
    for d in (2, 7, 11):
        bf = bianchi_family(d, "su31")
        ok = ok and bf.images["u"].trace() == ExtScalar.from_laurent(u + 3, d)
    report(5, ok, "9 printed traces exact, longitude*meridian integral, "
                  "stable-letter trace 3+u for d in {2,7,11}")


def _inner_arc_grid(count: int = 72):
    edge = 0.99 * INNER
    pts = np.linspace(-edge, edge, count + 1)
    return [a for a in pts if abs(a) > 1e-3]


def test_criterion_6_classification_laws():
    grid = _inner_arc_grid()
    assert len(grid) == 72
    su31 = {d: bianchi_family(d, "su31") for d in (2, 7)}
    bad: list[str] = []
    for a in grid:
        alpha = Angle.radians(a)
        fam = build_family(alpha)
        u = alpha.exp_i()
        cm = classify(fam.M, fam.form, tol=1e-9)
        if cm != Parabolic("unipotent-step3"):
            bad.append(f"m at {a:.3f}: {cm}")
        L = fam.longitude()
        cl = classify(L, fam.form, tol=1e-9)
        if not isinstance(cl, Parabolic):
            bad.append(f"l at {a:.3f}: {cl}")
        if abs(u ** 4 - 1) > 1e-6:
            if cl != Parabolic(ELLIPTO_PARABOLIC):
                bad.append(f"l subtype at {a:.3f}: {cl}")
            clusters = {round(abs(c.value - u), 6): (c.alg, c.geo)
                        for c in eigen(L, tol=1e-9).clusters}
            if clusters.get(0.0, (0, 0))[0] != 3:
                bad.append(f"l spectrum at {a:.3f}: {clusters}")
        for d, bf in su31.items():
            cu = classify(bf.numeric_images(alpha)["u"], bf.form.numeric(),
                          tol=1e-9)
            if not isinstance(cu, Parabolic):
                bad.append(f"bianchi d={d} at {a:.3f}: {cu}")
    for k in range(1, 37):
        theta = Angle.pi_fraction(k, 36)
        c2 = classify(bianchi_family(2, "so41", theta=theta).images["u"],
                      bianchi_family(2, "so41", theta=theta).form.numeric(),
                      tol=1e-9)
        if not isinstance(c2, Elliptic):
            bad.append(f"so41 d=2 at {k}pi/36: {c2}")
        c7 = classify(bianchi_family(7, "so41", theta=theta).images["u"],
                      bianchi_family(7, "so41", theta=theta).form.numeric(),
                      tol=1e-9)
        if c7 != Parabolic(ELLIPTO_PARABOLIC):
            bad.append(f"so41 d=7 at {k}pi/36: {c7}")
    report(6, not bad, f"72-point inner arc + 36-point rotation grid, "
                       f"{len(bad)} deviations" + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_7_orbit_oracle_equivalence():
    t0 = time.perf_counter()
    a, b1, b2 = Surd(1, 2), Surd(0), Surd(-1, 4)
    a7, b17, b27 = Surd(1, 2), Surd(Fraction(1, 2), 2), Surd(Fraction(-1, 2), 14)
    p0 = HeisPoint((0.3 + 0.4j, 0.2 - 0.1j), 0.5)
    worst = 0.0
    for j in range(1, 13):
        alpha = Angle.pi_times(Fraction(2 * j, 13))
        for params in (CuspParams(a, b1, b2, alpha),
                       CuspParams(a7, b17, b27, alpha)):
            for m in range(-20, 21, 4):
                for n in range(-20, 21, 4):
                    got = orbit_point(params, m, n, p0)
                    ora = orbit_point_via_matrices(params, m, n, p0)
                    dev = max(abs(x - y) for x, y in zip(got.z, ora.z))
                    dev = max(dev, abs(got.t - ora.t))
                    worst = max(worst, dev)
    # full |m|,|n| <= 20 box on one parameter set
    alpha = Angle.pi_times(Fraction(2, 13))
    params = CuspParams(a, b1, b2, alpha)
    for m in range(-20, 21):
        for n in range(-20, 21):
            got = orbit_point(params, m, n, p0)
            ora = orbit_point_via_matrices(params, m, n, p0)
            dev = max(abs(x - y) for x, y in zip(got.z, ora.z))
            worst = max(worst, dev, abs(got.t - ora.t))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(7, ok, f"12 circle points x 2 cusp types, max deviation {worst:.2e} "
                  f"in {elapsed:.2f}s")


def _random_rs1_instance(rng: random.Random, case: int):
    # The first lemma case holds for every angle, so its instances draw
    # pi-rational angles: with an irrational angle on top of an
    # irrational ratio, witnessing non-discreteness needs simultaneous
    # Diophantine approximation in both coordinates, far beyond a 10^4
    # element brute-force budget (Dirichlet only gives ~2pi/sqrt(N)).
    radicands = [1, 2, 3, 5]
    qa = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    ka = rng.choice(radicands)
    a = Surd(qa, ka)
    if case == 0:  # irrational ratio
        kb = rng.choice([k for k in radicands if k != ka])
        b = Surd(Fraction(rng.randint(1, 4), rng.randint(1, 3)), kb)
        theta = Angle.pi_times(Fraction(rng.randint(1, 5), rng.randint(2, 6)))
    else:
        ratio = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        b = Surd(qa * ratio, ka)
        if case == 1:  # rational ratio, pi-rational angle
            theta = Angle.pi_times(Fraction(rng.randint(1, 11),
                                            rng.randint(2, 12)))
        else:          # rational ratio, angle off pi-rationals
            theta = Angle.radians(rng.uniform(0.3, 2.8))
    return RS1Element(a, Angle.zero()), RS1Element(b, theta)


def test_criterion_8_rs1_trichotomy():
    T = RS1Element(Surd(1), Angle.zero())
    ok = rs1_classify(T, RS1Element(Surd(1, 2), Angle.zero())) \
        == RS1Class.NONDISCRETE_Z2
    ok = ok and rs1_classify(T, RS1Element(Surd(1), Angle.pi_fraction(1, 2))) \
        == RS1Class.DISCRETE_NON_Z2
    ok = ok and rs1_classify(T, RS1Element(Surd(1), Angle.radians(1.0))) \
        == RS1Class.NONDISCRETE_Z2_RATIONAL
    rng = random.Random(20260809)
    eps = 1e-2
    agreements = 0
    for k in range(20):
        Tk, Uk = _random_rs1_instance(rng, k % 3)
        verdict = rs1_classify(Tk, Uk)
        gap = rs1_probe(Tk, Uk, n_elements=10000)
        agrees = (gap < eps) != verdict.is_discrete
        agreements += agrees
        ok = ok and agrees
    report(8, ok, f"three exact cases + probe agreement on {agreements}/20 "
                  f"randomized instances (eps={eps}, 10^4 elements)")


def test_criterion_9_longitude_transcription():
    fam = build_family(None)
    ok = fam.longitude() == longitude_matrix()
    report(9, ok, "longitude image equals the printed matrix, exact Laurent "
                  "equality in all 16 entries")


def test_criterion_10_burnside_probe():
    bf = bianchi_family(2, "su31")
    gens = list(bf.numeric_images(Angle.pi_fraction(1, 2)).values())
    dim_b, margin_b = algebra_dimension(gens, tol=1e-9, return_margin=True)
    fam = build_family(Angle.zero())
    dim_f, margin_f = algebra_dimension([fam.M, fam.N], tol=1e-9,
                                        return_margin=True)
    ok = dim_b == 16 and dim_f == 16 and margin_b >= 10 and margin_f >= 10
    report(10, ok, f"algebra dimensions {dim_b}/{dim_f}, "
                   f"margins {margin_b:.2e}/{margin_f:.2e}")


CLI_COMMANDS = [
    ["verify", "figure8", "--alpha", "0.5"],
    ["verify", "figure8", "--u-exact"],
    ["verify", "bianchi", "--d", "2", "--target", "su31", "--u-exact"],
    ["verify", "bianchi", "--d", "7", "--target", "so41", "--theta", "1.0"],
    ["sweep", "figure8", "--start", "-3.0", "--end", "3.0", "--count", "60"],
    ["sweep", "bianchi", "--d", "2", "--target", "so41",
     "--start", "0.1", "--end", "3.0", "--count", "12"],
    ["orbit", "--d", "2", "--alpha", "1/3pi", "--radius", "8"],
]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_11_cli_determinism(tmp_path):
    import json

    from cuspdeform.heisenberg import HeisPoint, translation_matrix
    g = translation_matrix(HeisPoint((0.5, 0.25j), 0.75))
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(json.dumps(
        {"entries": [[[z.real, z.imag] for z in row] for row in g]}))
    commands = CLI_COMMANDS + [["classify", "--matrix", str(mat_file)]]
    ok = True
    for argv in commands:
        first = _run_cli(argv)
        second = _run_cli(argv)
        ok = ok and first == second and first[0] == 0
    report(11, ok, f"{len(commands)} commands re-run byte-identically "
                   "with exit code 0")
