"""Exact rank over Q(u) (``Mat.rank``) and the exact generic classes it
gives (``classify_generic``), against independent eliminations, sympy
and the numeric classifier."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cuspdeform
from cuspdeform import exact
from cuspdeform.exact import (ELLIPTO_PARABOLIC, UNIPOTENT_STEP2, UNIPOTENT_STEP3,
                              GenericClass, Jordan, Mat, TRANSPOSE_CONJ, classify_generic)
from cuspdeform.figure8 import L_WORD, build_family, figure8_columns
from cuspdeform.isometry import CLASSES, Parabolic, classify_columns
from cuspdeform.matrices import UnitPowers
from cuspdeform.scalars import ExtScalar, LaurentPoly
from cuspdeform.words import Rep

u = LaurentPoly.u

# wide enough for every matrix drawn below: the tests check that it is
# wider than the certified width, so by the lemma of ``Mat.rank`` the
# rank at u = 2^WIDE is the rank over Q(u) as well
WIDE = 2048


def fraction_rank(rows) -> int:
    """The rank of a matrix of Fractions, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def value(p: LaurentPoly, x: Fraction) -> Fraction:
    return sum((c * x ** k for k, c in p.items()), Fraction(0))


def rank_at(M: Mat, x: Fraction) -> int:
    """The rank of M at u = x, over Q."""
    return fraction_rank([[value(e, x) for e in r] for r in M.rows])


def minus(A: Mat, root: LaurentPoly) -> Mat:
    return A - Mat.diagonal([root] * A.n)


def power_ranks(A: Mat, root: LaurentPoly, count: int) -> list[int]:
    N = minus(A, root)
    return [(N ** j).rank() for j in range(1, count + 1)]


@st.composite
def laurent_polys(draw, terms=4, exponents=4, coefficient=9):
    size = draw(st.integers(min_value=0, max_value=terms))
    return LaurentPoly({draw(st.integers(-exponents, exponents)):
                        Fraction(draw(st.integers(-coefficient, coefficient)),
                                 draw(st.integers(1, coefficient)))
                        for _ in range(size)})


@st.composite
def deficient_mats(draw):
    """A 1x1 to 5x5 laurent matrix whose rows are combinations, with
    Laurent coefficients, of ``r`` drawn rows (so its rank is at most r),
    in a drawn order; r = n gives the drawn rows themselves."""
    n = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=0, max_value=n))
    base = [[draw(laurent_polys()) for _ in range(n)] for _ in range(r)]
    rows = list(base)
    for _ in range(n - r):
        coef = [draw(laurent_polys(terms=2, exponents=2, coefficient=3)) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coef, base)), LaurentPoly.zero())
                     for j in range(n)])
    order = draw(st.permutations(range(n)))
    return Mat.laurent([rows[i] for i in order]), r


class TestRank:
    def test_figure8_ranks(self):
        # ROADMAP item 1: rank (m - I)^j = 2, 1, 0; rank (L - uI)^j = 2, 1
        # and rank (L - u^-3 I) = 3 over Q(u)
        sym = build_family(None)
        L = sym.longitude()
        assert power_ranks(sym.M, LaurentPoly.one(), 3) == [2, 1, 0]
        assert power_ranks(L, u(), 2) == [2, 1]
        assert power_ranks(L, u(-3), 1) == [3]
        assert sym.M.rank() == L.rank() == 4

    def test_ranks_drop_only_at_the_exceptional_points(self):
        # at u = -1, (m - I)^2 = 0 and (L + I)^2 = 0; at u = 1, L - I has
        # ranks 2, 1, 0: rank never rises under specialisation
        sym = build_family(None)
        L = sym.longitude()
        m1 = minus(sym.M, LaurentPoly.one())
        assert [rank_at(m1 ** j, Fraction(-1)) for j in (1, 2)] == [2, 0]
        assert [rank_at(minus(L, LaurentPoly.const(-1)) ** j, Fraction(-1))
                for j in (1, 2)] == [2, 0]
        assert [rank_at(minus(L, LaurentPoly.one()) ** j, Fraction(1))
                for j in (1, 2, 3)] == [2, 1, 0]

    @settings(max_examples=150, deadline=None)
    @given(deficient_mats())
    def test_against_fraction_elimination(self, drawn):
        M, r = drawn
        assert exact._rank_width(M) < WIDE
        rank = M.rank()
        assert rank == rank_at(M, Fraction(2) ** WIDE)
        assert rank <= r
        # a specialisation never raises the rank
        for x in (Fraction(1), Fraction(-1), Fraction(3, 2)):
            assert rank_at(M, x) <= rank

    @settings(max_examples=60, deadline=None)
    @given(deficient_mats(), laurent_polys(), st.data())
    def test_unchanged_by_row_operations(self, drawn, coef, data):
        M, _ = drawn
        if M.n < 2:
            return
        i, j = data.draw(st.permutations(range(M.n)))[:2]
        rows = [list(r) for r in M.rows]
        rows[i] = [a + coef * b for a, b in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], rows[i]
        assert Mat.laurent(rows).rank() == M.rank()

    @pytest.mark.parametrize("k", [1, 2, 7, 31, 32, 63, 64, 65, 200])
    def test_the_width_is_tight(self, k):
        # u - 2^k has l1 norm 2^k + 1, so the certified width is k + 1;
        # at a width one bit short, u = 2^k would be a root
        M = Mat.laurent([[u() - 2 ** k]])
        assert exact._rank_width(M) == k + 1
        assert M.rank() == 1

    def test_zero_and_constant_matrices(self):
        assert Mat.laurent([[0, 0], [0, 0]]).rank() == 0
        assert Mat.laurent([[1, 2], [2, 4]]).rank() == 1
        assert Mat.identity(5).rank() == 5

    def test_ext_ring_is_refused(self):
        with pytest.raises(TypeError):
            Mat.ext([[ExtScalar.sqrt2(7)]], 7).rank()

    def test_against_sympy(self):
        S = pytest.importorskip("sympy")
        DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
        x = S.Symbol("u")
        K = S.QQ.frac_field(x)

        def dm(A):
            return DomainMatrix([[K.from_sympy(sum(
                (S.Rational(c.numerator, c.denominator) * x ** k for k, c in e.items()),
                S.Integer(0))) for e in r] for r in A.rows], (A.n, A.n), K)

        sym = build_family(None)
        L = sym.longitude()
        cases = [sym.M, L]
        for A, root in ((sym.M, LaurentPoly.one()), (L, u()), (L, u(-3))):
            N = minus(A, root)
            cases += [N, N @ N, N @ N @ N]
        r = random.Random(3901)
        for _ in range(12):
            n = r.randint(1, 4)
            base = [[LaurentPoly({r.randint(-3, 3): r.randint(-5, 5)
                                  for _ in range(r.randint(0, 3))}) for _ in range(n)]
                    for _ in range(r.randint(0, n))]
            rows = base + [[sum((LaurentPoly.const(r.randint(-2, 2)) * u(r.randint(-1, 1))
                                 * b[j] for b in base), LaurentPoly.zero())
                            for j in range(n)] for _ in range(n - len(base))]
            cases.append(Mat.laurent(rows))
        for A in cases:
            assert A.rank() == dm(A).rank()
        # the characteristic polynomials split as classify_generic reads them
        for A in (sym.M, L):
            coeffs = dm(A).charpoly()  # highest first
            want = S.Integer(1)
            for e in classify_generic(A).eigenvalues:
                want *= (S.Symbol("x") - e.sign * x ** e.exponent) ** e.multiplicity
            want = S.Poly(S.expand(want), S.Symbol("x"))
            assert [S.simplify(K.to_sympy(c) - w) for c, w in
                    zip(coeffs, want.all_coeffs())] == [0] * (A.n + 1)


class TestClassifyGeneric:
    def test_figure8_classes_and_certificate(self):
        sym = build_family(None)
        m, L = sym.generic_classes
        assert m == GenericClass(UNIPOTENT_STEP3, (Jordan(1, 0, 4, (2, 1, 0), m.eigenvalues[0].widths),))
        assert L.subtype == ELLIPTO_PARABOLIC
        assert [(e.sign, e.exponent, e.multiplicity, e.ranks) for e in L.eigenvalues] == [
            (1, -3, 1, (3,)), (1, 1, 3, (2, 1))]
        # each rank was eliminated at the certified width of its power
        for A, c in ((sym.M, m), (sym.longitude(), L)):
            for e in c.eigenvalues:
                N = minus(A, LaurentPoly({e.exponent: e.sign}))
                assert list(e.widths) == [exact._rank_width(N ** j)
                                          for j in range(1, len(e.ranks) + 1)]

    @pytest.mark.parametrize("rows, subtype", [
        # -u^2 times a vertical Heisenberg translation: (A + u^2 I)^2 = 0
        ([[-u(2), 0, 0, u(3)], [0, -u(2), 0, 0], [0, 0, -u(2), 0], [0, 0, 0, -u(2)]],
         UNIPOTENT_STEP2),
        # a horizontal translation: one Jordan block of size 3
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], UNIPOTENT_STEP3),
        # a block of size 2 at u, and u^-1 simple
        ([[u(), 1, 0], [0, u(), 0], [0, 0, u(-1)]], ELLIPTO_PARABOLIC),
        # diagonalisable: no nontrivial block
        ([[u(), 0, 0], [0, u(-1), 0], [0, 0, 1]], None),
        ([[-1, 0], [0, -1]], None),
        # a block of size 4: no unipotent step
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], None),
        # x^2 - 2 does not split into factors x - c u^k, nor does x^2 - u
        ([[0, 1], [2, 0]], None),
        ([[0, 1], [u(), 0]], None),
        # the root 0
        ([[0, 1], [0, 0]], None),
    ])
    def test_rules(self, rows, subtype):
        assert classify_generic(Mat.laurent(rows)).subtype == subtype

    def test_unsplit_has_no_eigenvalues(self):
        assert classify_generic(Mat.laurent([[0, 1], [2, 0]])).eigenvalues == ()

    def test_ext_ring_is_refused(self):
        with pytest.raises(TypeError):
            classify_generic(Mat.ext([[ExtScalar.sqrt2(7)]], 7))

    def test_numeric_classifier_agrees_at_raw_angles(self):
        # 240 seeded raw angles on the inner arc, outside the sweep's
        # default exclusion zone, each at least 0.01 from 0 and +-pi/2 (the
        # exceptional points of L): wherever classify_columns decides, it
        # gives the exact classes, which the sweep prints
        rng = random.Random(3911)
        points = []
        while len(points) < 240:
            a = rng.choice((1, -1)) * rng.uniform(0.01, 2 * math.pi / 3 - 0.02)
            if abs(abs(a) - math.pi / 2) >= 0.01:
                points.append(a)
        sym = build_family(None)
        want = [CLASSES.index(Parabolic(c.subtype)) for c in sym.generic_classes]
        powers = UnitPowers(points)
        J = sym.form.mat.evaluate_stack(powers)
        M, N = sym.M.evaluate_stack(powers), sym.N.evaluate_stack(powers)
        L = Rep({"m": M, "n": N}).evaluate(L_WORD)
        found = classify_columns(np.stack((M, L), axis=1).reshape(-1, 4, 4),
                                 np.repeat(J, 2, axis=0), TRANSPOSE_CONJ)
        code = found.code.reshape(-1, 2)
        decided = (code >= 0).all(axis=1)
        assert decided.sum() >= 200
        assert (code[decided] == want).all()
        assert figure8_columns(points).classes.tolist() == [want] * len(points)


SRC = str(Path(cuspdeform.__file__).parent.parent)


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)


class TestFreshProcess:
    def test_exact_layer_without_numpy(self):
        proc = _fresh(
            "import sys; sys.modules['numpy'] = None\n"
            "from cuspdeform.figure8 import build_family\n"
            "sym = build_family(None)\n"
            "print([(c.subtype, [e.ranks for e in c.eigenvalues]) for c in sym.generic_classes])\n"
            "print(sym.M.rank(), sym.longitude().rank())")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "[('unipotent-step3', [(2, 1, 0)]), "
            "('ellipto-parabolic', [(3,), (2, 1)])]", "4 4"]

    # the generic classes are decided once per process, by the first
    # raw-angle classification, and never by the symbolic report
    @pytest.mark.parametrize("argv, calls", [
        (["verify", "figure8", "--u-exact"], 0),
        (["verify", "figure8", "--alpha=1/5pi"], 0),
        (["verify", "figure8", "--alpha", "0.5"], 2),
        (["sweep", "figure8", "--start=-3.0", "--end=3.0", "--count", "720"], 2),
    ])
    def test_decided_once_per_process(self, argv, calls):
        proc = _fresh(
            "import io, contextlib\n"
            "from cuspdeform import figure8\n"
            "from cuspdeform.cli import main\n"
            "calls, real = [], figure8.classify_generic\n"
            "figure8.classify_generic = lambda A: calls.append(A) or real(A)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            f"    assert main({argv!r}) == 0\n"
            "print(len(calls))")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{calls}\n"
