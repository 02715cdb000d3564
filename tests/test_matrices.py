import contextlib
import dataclasses
import io
import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from cuspdeform.bending import (_bianchi_hnn, bend_hnn, bianchi_family,
                                bianchi_lattice_su31, embed_so41, embed_so41_q,
                                so41_centralizer, so41_centralizer_q)
from cuspdeform.figure8 import (L_WORD, Fig8Family, build_family, det_form_closed, form_matrix, generator_m,
                                generator_n, longitude_matrix)
from cuspdeform import exact
from cuspdeform.matrices import (CONJ_TRANSPOSE, GeometryError, HermForm, Mat,
                                 TRANSPOSE_CONJ, UnitPowers,
                                 eigen, form_defect,
                                 form_preserved, herm_signature, hermitian_failures,
                                 siegel_form)
from cuspdeform.words import Rep, builtin_presentation
from cuspdeform.heisenberg import dilation_matrix
from cuspdeform.isometry import classify
from cuspdeform.scalars import Angle, ExtScalar, LaurentPoly, _squarefree

rng = np.random.default_rng(20260809)


def random_siegel_isometry(n=4, scale=0.4):
    """exp(J A) with A anti-hermitian preserves the Siegel form exactly."""
    J = siegel_form(n).array().real
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = scale * (B - B.conj().T)
    return expm(J @ A)


class TestMatBasics:
    def test_identity_det(self):
        assert Mat.identity(4).det() == LaurentPoly.one()

    def test_exact_inverse(self):
        M = Mat.laurent([[1, LaurentPoly.u()], [0, 1]])
        assert (M @ M.inverse()).is_identity()

    def test_pow_negative(self):
        M = Mat.laurent([[LaurentPoly.u(), 0], [0, 1]])
        assert (M ** -2)[0, 0] == LaurentPoly.u(-2)

    def test_scalar_detection(self):
        u = LaurentPoly.u()
        assert Mat.diagonal([u, u, u]).is_scalar() == u
        assert Mat.diagonal([u, u, LaurentPoly.one()]).is_scalar() is None


class TestDeterminant:
    def test_form_det_vanishes_at_transition(self):
        # the factor (2 cos a + 1)^3 kills the determinant at 2pi/3
        J = form_matrix().evaluate(Angle.pi_fraction(2, 3))
        assert abs(np.linalg.det(J)) < 1e-9

    def test_form_det_vanishes_at_pi(self):
        J = form_matrix().evaluate(Angle.pi_fraction(1, 1))
        assert abs(np.linalg.det(J)) < 1e-9

    def test_two_oracle_agreement_at_zero(self):
        # closed form at a=0 against a direct numeric determinant
        direct = np.linalg.det(form_matrix().evaluate(Angle.zero())).real
        assert det_form_closed(Angle.zero()) == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx(-432.0)  # -4*(2^2)*(3^3)

    def test_exact_numeric_det_agree(self):
        J = form_matrix()
        exact = J.det()
        for k in range(1, 8):
            alpha = Angle.pi_fraction(k, 9)
            num = np.linalg.det(J.evaluate(alpha))
            assert abs(exact.eval_unit(alpha) - num) <= 1e-9 * max(1, abs(num))


class TestSignature:
    def test_diag_signature(self):
        sig = herm_signature(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert sig.as_tuple() == (3, 1, 0)

    def test_form_signatures_on_both_arcs(self):
        J = form_matrix()
        assert herm_signature(J.evaluate(Angle.zero())).as_tuple() == (3, 1, 0)
        assert herm_signature(J.evaluate(Angle.pi_fraction(3, 4))).as_tuple() == (2, 2, 0)

    def test_congruence_invariance(self):
        J = form_matrix().evaluate(Angle.pi_fraction(1, 5))
        base = herm_signature(J, tol=1e-9)
        for _ in range(10):
            while True:
                P = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                if (np.linalg.norm(P, 2) <= 10
                        and np.linalg.norm(np.linalg.inv(P), 2) <= 10):
                    break
            sig = herm_signature(P.conj().T @ J @ P, tol=1e-9)
            assert sig == base

    def test_rejects_non_hermitian(self):
        with pytest.raises(GeometryError):
            herm_signature(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_symbolic_form(self):
        with pytest.raises(TypeError):
            herm_signature(HermForm(form_matrix(), TRANSPOSE_CONJ))


class TestEigen:
    def test_identity(self):
        data = eigen(np.eye(4))
        assert len(data.clusters) == 1
        assert data.clusters[0].alg == 4 and data.clusters[0].geo == 4

    def test_dilation_spectrum(self):
        # diag(2, 1, 1, 1/2) in the 4x4 Siegel model
        data = eigen(dilation_matrix(2.0, 2))
        spec = sorted((round(c.value.real, 6), c.alg) for c in data.clusters)
        assert spec == [(0.5, 1), (1.0, 2), (2.0, 1)]

    def test_longitude_merged_cluster_at_quarter_turn(self):
        # at u = i the spectrum {u,u,u,conj(u)^3} collapses to one cluster
        L = longitude_matrix().evaluate(Angle.pi_fraction(1, 2))
        data = eigen(L)
        assert len(data.clusters) == 1
        cl = data.clusters[0]
        assert cl.alg == 4 and cl.geo < 4
        assert cl.value == pytest.approx(1j, abs=1e-9)

    def test_eigen_product_matches_det(self):
        A = random_siegel_isometry()
        data = eigen(A)
        prod = 1.0 + 0j
        for c in data.clusters:
            prod *= c.value ** c.alg
        det = np.linalg.det(A)
        assert abs(prod - det) <= 1e-8 * abs(det)


class TestFormDefect:
    def test_identity_defect_zero(self):
        assert form_defect(np.eye(4), siegel_form(4)) == 0.0

    def test_exact_invariance_figure8(self):
        from cuspdeform.figure8 import generator_m, generator_n
        form = HermForm(form_matrix(), TRANSPOSE_CONJ)
        assert form_preserved(generator_m(), form)
        assert form_preserved(generator_n(), form)

    def test_exact_invariance_bianchi_bent(self):
        from cuspdeform.bending import bianchi_family
        fam = bianchi_family(2, "su31")
        assert form_preserved(fam.images["u"], fam.form)

    def test_random_isometry_defect(self):
        g = random_siegel_isometry()
        assert form_defect(g, siegel_form(4)) < 1e-10

    def test_perturbation_shows_up(self):
        g = random_siegel_isometry()
        g[1, 2] += 1e-3
        assert form_defect(g, siegel_form(4)) > 1e-4


def exact_form_in(form, g):
    """The exact form matrix over g's ring."""
    J = form.mat
    return Mat.ext(J.rows, g.d) if g.ring == "ext" and J.ring == "laurent" else J


def full_decision(g, form):
    """The invariance decision from the whole product g* J g (or
    g^T J conj(g)) against J."""
    J = exact_form_in(form, g)
    if form.convention == TRANSPOSE_CONJ:
        return g.transpose() @ J @ g.star() == J
    return g.star_transpose() @ J @ g == J


def _invariance_cases():
    """(generator, form, preserved): every generator of the figure-eight
    family and of the Bianchi families at a few d, in both conventions."""
    cases = []
    fig8 = build_family(None)
    for g in (fig8.M, fig8.N):
        cases.append((g, fig8.form, True))
        cases.append((g, HermForm(fig8.form.mat), None))  # the other convention
    for d in (2, 7, 15):
        for target in ("su31", "so41"):
            fam = bianchi_family(d, target)
            for g in fam.images.values():
                for convention in (CONJ_TRANSPOSE, TRANSPOSE_CONJ):
                    cases.append((g, siegel_form(fam.form.n, convention), True))
    return cases


INVARIANCE_CASES = _invariance_cases()


def _exponents(e):
    parts = [e] if isinstance(e, LaurentPoly) else e.c
    return [k for p in parts for k in p._n]


class TestUpperTriangleInvariance:
    """``form_preserved`` forms the product's upper triangle only: its
    decision is the whole product's."""

    @pytest.mark.parametrize("k", range(len(INVARIANCE_CASES)))
    def test_family_generators(self, k):
        g, form, preserved = INVARIANCE_CASES[k]
        assert form_preserved(g, form) == full_decision(g, form)
        if preserved is not None:
            assert form_preserved(g, form) is preserved

    @given(st.integers(0, len(INVARIANCE_CASES) - 1), st.integers(0, 24),
           st.fractions().filter(bool), st.integers(0, 3), st.booleans(),
           st.integers(-2, 2), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_single_entry_perturbations(self, k, at, c, part, near, shift, far):
        g, form, _ = INVARIANCE_CASES[k]
        n = g.n
        i, j = divmod(at % (n * n), n)
        # past twice the exponents of g and J, the perturbation leaves
        # terms in the product that nothing cancels: it is not preserved
        top = sum(max(abs(x) for r in m.rows for e in r for x in _exponents(e))
                  for m in (g, form.mat))
        power = LaurentPoly.u(shift if near else (2 * top + far) * (-1) ** far) * c
        delta = power if g.ring == "laurent" else \
            ExtScalar(g.d, *[power if m == part else 0 for m in range(4)])
        rows = [list(r) for r in g.rows]
        rows[i][j] = rows[i][j] + delta
        h = Mat(rows, g.ring, g.d)
        assert form_preserved(h, form) == full_decision(h, form)
        if not near:
            assert not form_preserved(h, form)


def random_laurent(rng, terms=2):
    return LaurentPoly({int(k): Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                        for k in rng.integers(-2, 3, size=terms)})


def random_unit_mat(rng, n, d=None):
    """L * D * U with unitriangular L, U and a diagonal of units, so the
    determinant is a unit and the exact inverse exists."""
    def entry():
        p = random_laurent(rng)
        if d is None:
            return p
        return ExtScalar(d, p, 0, 0, random_laurent(rng, 1))

    ring = "laurent" if d is None else "ext"
    lower = Mat([[entry() if i > j else int(i == j) for j in range(n)]
                 for i in range(n)], ring, d)
    upper = Mat([[entry() if i < j else int(i == j) for j in range(n)]
                 for i in range(n)], ring, d)
    diag = Mat.diagonal([LaurentPoly({int(k): Fraction(int(s), 2)})
                         for k, s in zip(rng.integers(-2, 3, size=n),
                                         rng.choice([-3, -1, 1, 2], size=n))],
                        ring, d)
    return lower @ diag @ upper


def leibniz_det(A: Mat):
    """The reference determinant: the sum over all permutations p of
    sign(p) times the product of the entries (i, p(i)), which shares no
    step with ``Mat.det``."""
    n = A.n
    acc = A._zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = A._one()
        for i, j in enumerate(perm):
            term = term * A.rows[i][j]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def cofactor_inverse(A: Mat) -> Mat:
    """The reference inverse: the adjugate of n^2 cofactor determinants,
    divided by the determinant (which must be a ring unit), all of them
    Leibniz determinants."""
    n = A.n
    det_inv = leibniz_det(A).inverse()
    if n == 1:
        return Mat([[det_inv]], A.ring, A.d)
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[A.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            m = leibniz_det(Mat(sub, A.ring, A.d))
            cof[i][j] = m if (i + j) % 2 == 0 else -m
    return Mat([[cof[j][i] * det_inv for j in range(n)] for i in range(n)], A.ring, A.d)


def reference_matmul(A: Mat, B: Mat) -> Mat:
    """The product as one ``acc = acc + a * b`` loop per entry over its
    pairs of nonzero factors: the sum an exact product reproduces, value
    and term order alike."""
    cols = [{k: b for k, b in enumerate(c) if not b.is_zero} for c in zip(*B.rows)]
    out = []
    for r in A.rows:
        terms = [(k, a) for k, a in enumerate(r) if not a.is_zero]
        row = []
        for col in cols:
            acc = None
            for k, a in terms:
                b = col.get(k)
                if b is not None:
                    t = a * b
                    acc = t if acc is None else acc + t
            row.append(A._zero() if acc is None else acc)
        out.append(row)
    return Mat(out, A.ring, A.d)


def term_order(e):
    """The denominator and numerator terms, in order, of a ring element
    (per component for the ext ring): what fixes its evaluated bits."""
    if isinstance(e, LaurentPoly):
        return e._d, list(e._n.items())
    return [term_order(p) for p in e.c]


def terms_of(M: Mat):
    return [[term_order(e) for e in r] for r in M.rows]


@st.composite
def cancelling_mat_pairs(draw):
    """Two n x n matrices over one ring whose entries come from a small
    pool of polynomials (mixed denominators, exponents in [-2, 2]), their
    negatives and zero, so that the sums of products often cancel."""
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.sampled_from([None, 2, 6, 7]))
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    pool = [random_laurent(r, int(r.integers(1, 4))) for _ in range(3)]
    pool += [-p for p in pool] + [LaurentPoly.zero()]

    def entry():
        if d is None:
            return pool[int(r.integers(len(pool)))]
        return ExtScalar(d, *(pool[int(r.integers(len(pool)))] for _ in range(4)))

    ring = "laurent" if d is None else "ext"
    return tuple(Mat([[entry() for _ in range(n)] for _ in range(n)], ring, d)
                 for _ in range(2))


class TestExactProduct:
    @given(cancelling_mat_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop_term_for_term(self, AB):
        A, B = AB
        got, want = A @ B, reference_matmul(A, B)
        assert got == want and terms_of(got) == terms_of(want)


@st.composite
def det_mats(draw):
    """A 1x1 to 5x5 matrix over Q[u,u^-1] or, for d in {2, 6, 7}, over
    Q(sqrt2, sqrt d) tensor Q[u,u^-1], with entries of up to two terms
    (some zero, some of mixed denominators)."""
    n = draw(st.integers(min_value=1, max_value=5))
    d = draw(st.sampled_from([None, 2, 6, 7]))
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))

    def poly():
        return random_laurent(r, int(r.integers(0, 3)))

    def entry():
        return poly() if d is None else ExtScalar(d, *(poly() for _ in range(4)))

    return Mat([[entry() for _ in range(n)] for _ in range(n)],
               "laurent" if d is None else "ext", d)


class TestDeterminantAgainstLeibniz:
    @given(det_mats())
    @settings(max_examples=60, deadline=None)
    def test_det_is_the_permutation_sum(self, A):
        assert A.det() == leibniz_det(A)


@st.composite
def mat_chains(draw):
    """1 to 6 n x n matrices over one ring: entries of up to four terms
    with exponents in [-6, 6] and denominators up to 9, some zero; some
    factors all zero, some strictly upper triangular (nilpotent)."""
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.sampled_from([None, None, 2, 6, 7]))
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))

    def poly():
        size = int(r.integers(0, 5))
        return LaurentPoly({int(k): Fraction(int(p), int(q)) for k, p, q in
                            zip(r.integers(-6, 7, size), r.integers(-9, 10, size),
                                r.integers(1, 10, size))})

    def entry():
        return poly() if d is None else ExtScalar(d, *(poly() for _ in range(4)))

    def factor(kind):
        return Mat([[0 if kind == "zero" or (kind == "nilpotent" and i >= j) else entry()
                     for j in range(n)] for i in range(n)], "laurent" if d is None else "ext", d)

    kinds = draw(st.lists(st.sampled_from(["dense"] * 4 + ["zero", "nilpotent"]),
                          min_size=1, max_size=6))
    return [factor(kind) for kind in kinds]


class TestChain:
    """``exact.chain`` and ``exact.chain_trace`` against the left-to-right
    ``Mat @`` fold."""

    @given(mat_chains())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_mat_fold(self, factors):
        want = factors[0]
        for f in factors[1:]:
            want = want @ f
        got = exact.chain(factors)
        assert got == want
        if got.ring == "ext":
            # the fold itself, term for term
            assert terms_of(got) == terms_of(want)
        else:
            # decoded: the fold's terms, in ascending exponent order
            assert terms_of(got) == [[(e._d, sorted(e._n.items())) for e in r]
                                     for r in want.rows]
        trace = exact.chain_trace(factors)
        assert trace == want.trace()
        assert term_order(trace) == term_order(got.trace())

    def test_mixed_rings_and_sizes_are_refused(self):
        A = Mat.laurent([[1, 0], [0, LaurentPoly.u()]])
        for other in (Mat.identity(2, "ext", 2), Mat.identity(3)):
            for factors in ([A, other], [other, A]):
                with pytest.raises(ValueError, match="incompatible"):
                    exact.chain(factors)
                with pytest.raises(ValueError, match="incompatible"):
                    exact.chain_trace(factors)


FORM_OF_ONES_DS = (2, 5, 7, 11, 15, 43)


@st.composite
def forms_of_ones(draw):
    """(g, form): a Bianchi generator moved onto a random permutation form
    of ones and times one of its diagonal isometries, in either convention.

    P^T J P is a symmetric permutation matrix of ones for every
    permutation P, and P^T g P preserves it.  A diagonal D preserves it
    where D_kk = c u^a, D_ll = u^a / c on each pair (k, l) it swaps and
    D_kk = u^a on each point it fixes; g preserves J under g^T J conj(g)
    = J exactly when star(g) preserves it under g* J g = J."""
    d, target = draw(st.sampled_from([(2, "su31"), (7, "so41"), (15, "su31")]))
    fam = bianchi_family(d, target)
    g = fam.images[draw(st.sampled_from(sorted(fam.images)))]
    n = g.n
    perm = draw(st.permutations(range(n)))
    P = Mat([[int(j == perm[i]) for j in range(n)] for i in range(n)], "ext", d)
    J = P.transpose() @ Mat.ext(fam.form.mat.rows, d) @ P
    cols = [r.index(next(e for e in r if not e.is_zero)) for r in J.rows]
    diag = [None] * n
    for k, l in enumerate(cols):
        if diag[k] is None:
            a = LaurentPoly.u(draw(st.integers(-2, 2)))
            c = draw(st.sampled_from([1, 2, Fraction(-1, 3)])) if k != l else 1
            diag[k], diag[l] = a * c, a * Fraction(1, c)
    g = P.transpose() @ g @ P @ Mat.diagonal(diag, "ext", d)
    convention = draw(st.sampled_from([CONJ_TRANSPOSE, TRANSPOSE_CONJ]))
    if convention == TRANSPOSE_CONJ:
        g = g.star()
    form = HermForm(J if draw(st.booleans()) else
                    Mat.laurent([[int(not e.is_zero) for e in r] for r in J.rows]), convention)
    return g, form


class TestProductsByFormsOfOnes:
    """A Siegel form is a symmetric permutation matrix of ones: it is its
    own inverse and its own star in every ring, so the form adjoint and
    the invariance check reindex, and no other form has an adjoint."""

    @pytest.mark.parametrize("convention", [CONJ_TRANSPOSE, TRANSPOSE_CONJ])
    @pytest.mark.parametrize("d, target", [(d, t) for d in FORM_OF_ONES_DS
                                           for t in ("su31", "so41")])
    def test_siegel_forms(self, d, target, convention):
        fam = bianchi_family(d, target)
        form = siegel_form(fam.form.n, convention)
        K = Mat.ext(form.mat.rows, d)
        assert K.star() == K == K.transpose()
        for g in fam.images.values():
            assert form_preserved(g, form)  # in either convention
            got, want = form._adjoint(g), K @ g.star_transpose() @ K
            assert got == g.inverse() == want and terms_of(got) == terms_of(want)

    @given(forms_of_ones(), st.integers(0, 24), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_reindexing_is_the_general_product(self, case, at, far, part):
        g, form = case
        assert form._ones is not None
        assert form_preserved(g, form) and full_decision(g, form)
        assert form._adjoint(g) == g.inverse()
        # a term past twice the exponents of g is left uncancelled
        n = g.n
        i, j = divmod(at % (n * n), n)
        top = max(abs(x) for r in g.rows for e in r for x in _exponents(e))
        power = LaurentPoly.u((2 * top + far) * (-1) ** far)
        rows = [list(r) for r in g.rows]
        rows[i][j] = rows[i][j] + ExtScalar(g.d, *[power if m == part else 0
                                                  for m in range(4)])
        h = Mat(rows, g.ring, g.d)
        assert not form_preserved(h, form) and not full_decision(h, form)

    def test_a_unit_other_than_one_keeps_the_multiply(self, monkeypatch):
        # D* J D for D = Diag(u, 1, 1, 1): u and u^-1 in the corners, units
        # but not one; the conjugated generators preserve it, each check
        # multiplies by it once, and their inverses go to Mat.inverse, with
        # the values of the form adjoint K^-1 h* K
        fam = bianchi_family(7, "su31")
        D = Mat.diagonal([LaurentPoly.u(), 1, 1, 1], "ext", 7)
        D_inv = Mat.diagonal([LaurentPoly.u(-1), 1, 1, 1], "ext", 7)
        K = D.star_transpose() @ Mat.ext(fam.form.mat.rows, 7) @ D
        form = HermForm(K)
        assert form._ones is None
        bent = {sym: D_inv @ g @ D for sym, g in fam.images.items()}
        products, inverted = [], []
        matmul, inverse = Mat.__matmul__, Mat.inverse
        monkeypatch.setattr(Mat, "__matmul__", lambda A, B: products.append(B) or matmul(A, B))
        rep = Rep(bent, form)
        assert products == [K] * 3
        monkeypatch.setattr(Mat, "inverse", lambda A: inverted.append(A) or inverse(A))
        for sym, h in bent.items():
            assert form._adjoint(h) is None
            got = rep._power(sym, -1)
            assert got == inverse(K) @ h.star_transpose() @ K
            assert (got @ h).is_identity()
        assert inverted == list(bent.values())

    def test_a_product_of_the_wrong_size_is_refused(self):
        with pytest.raises(ValueError, match="incompatible"):
            form_preserved(Mat.identity(3), siegel_form(4))
        with pytest.raises(ValueError, match="incompatible"):
            form_preserved(Mat.identity(3), HermForm(Mat.diagonal([2, 1, 1, 1])))


class TestSharedSiegelForms:
    def test_one_form_per_size_and_convention(self):
        form = siegel_form(4)
        assert siegel_form(4, CONJ_TRANSPOSE) is form is bianchi_family(7, "su31").form
        assert siegel_form(4, TRANSPOSE_CONJ) is not form
        assert bianchi_family(7, "so41").form is siegel_form(5)
        assert bianchi_family(7, "so41", theta=Angle.radians(1.0)).form is siegel_form(5)
        assert not form.array().flags.writeable
        bound = exact._siegel_form.cache_info().maxsize
        for size in range(1, bound + 4):
            siegel_form(size)
        assert exact._siegel_form.cache_info().currsize == bound

    def test_classify_of_any_size_keeps_the_shared_forms(self, tmp_path):
        # classify --matrix builds the form of its input's size outside the
        # shared cache, so ten sizes push out neither the su31 nor the so41
        # families' form, and the next family gets the same one
        from cuspdeform.cli import main
        forms = {target: bianchi_family(7, target).form for target in ("su31", "so41")}
        for n in range(6, 16):
            f = tmp_path / f"eye{n}.json"
            f.write_text(json.dumps({"entries": np.eye(n).tolist()}))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["classify", "--matrix", str(f)]) == 0
        assert bianchi_family(7, "su31").form is siegel_form(4) is forms["su31"]
        assert bianchi_family(7, "so41").form is siegel_form(5) is forms["so41"]
        assert bianchi_family(11, "su31").form is forms["su31"]
        assert bianchi_family(11, "so41").form is forms["so41"]

    def test_reports_at_many_d_leave_the_shared_form_as_it_was(self):
        # a shared form meets every d of the process, and keeps nothing
        # of any: its slots hold what they held after its first report
        from cuspdeform.cli import main
        form = siegel_form(4)
        assert not hasattr(form, "__dict__")
        tags = [d for d in range(2, 200) if _squarefree(d)[0] == 1 and d != 3][:70]
        before = None
        for d in tags:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["verify", "bianchi", "--d", str(d), "--target", "su31",
                             "--u-exact"]) in (0, 1)
            after = {slot: getattr(form, slot) for slot in type(form).__slots__}
            assert after == (before or after)
            before = after
        assert len(tags) == 70 and type(form).__slots__ == ("mat", "convention", "_array",
                                                            "_ones")


class TestFaddeevLeVerrierInverse:
    @given(st.integers(min_value=1, max_value=5), st.sampled_from([None, 2, 6, 7]),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_cofactor_adjugate(self, n, d, seed):
        A = random_unit_mat(np.random.default_rng(seed), n, d)
        inv = A.inverse()
        assert inv == cofactor_inverse(A)
        assert (A @ inv).is_identity()
        coeffs, _ = A._charpoly_adjugate()
        assert coeffs[n] == A._one() and coeffs[0] * (-1) ** n == leibniz_det(A)

    @pytest.mark.parametrize("rows, ring, d, message", [
        ([[1 + LaurentPoly.u()]], "laurent", None, "1 + u"),
        ([[2, LaurentPoly.u()], [1, 1]], "laurent", None, "2 - u"),
        ([[1, ExtScalar.sqrtd(7)], [ExtScalar.sqrtd(7), LaurentPoly.u()]], "ext", 7,
         "2401 - 1372*u + 294*u^2 - 28*u^3 + u^4"),
    ])
    def test_singular_raises_like_the_determinant(self, rows, ring, d, message):
        # the norm of the ext determinant u - 7 is (u - 7)^4
        A = Mat(rows, ring, d)
        want = f"{message} is not a unit of Q[u,u^-1]"
        with pytest.raises(ZeroDivisionError) as exc:
            A.det().inverse()
        assert str(exc.value) == want
        with pytest.raises(ZeroDivisionError) as exc:
            A.inverse()
        assert str(exc.value) == want


class TestExactMatAgainstSympy:
    """Products, powers, determinants, characteristic polynomials and
    inverses of small exact matrices against sympy (an independent
    computer-algebra oracle).

    sympy computes in Q[r, s, u, v] with sqrt2 = r, sqrt d = s and
    u^-1 = v, and values are compared by their normal forms modulo
    r^2 - 2, s^2 - d, u v - 1: a Groebner basis, since the leading
    monomials are coprime, so equal values have equal normal forms."""

    @pytest.fixture(autouse=True)
    def _sympy(self):
        self.S = pytest.importorskip("sympy")
        self.DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

    def _ring(self, d):
        R, self.r, self.s, self.u, self.v = self.S.ring("r s u v", self.S.QQ)
        self.basis = (R.one, self.r, self.s, self.r * self.s)
        self.G = [self.r ** 2 - 2, self.s ** 2 - (d or 1), self.u * self.v - 1]
        self.K = R.to_domain()

    def _laurent(self, p):
        return sum(((self.u ** k if k >= 0 else self.v ** -k)
                    * self.S.QQ(c.numerator, c.denominator) for k, c in p.items()),
                   self.K.zero)

    def _entry(self, e):
        if isinstance(e, LaurentPoly):
            return self._laurent(e)
        return sum((self._laurent(p) * x for p, x in zip(e.c, self.basis)), self.K.zero)

    def _dm(self, M):
        return self.DomainMatrix([[self._entry(e) for e in row] for row in M.rows],
                                 (M.n, M.n), self.K)

    def _nf(self, X):
        return [[e.rem(self.G) for e in row] for row in X.to_list()]

    @pytest.mark.parametrize("n, d, seed", [(2, None, 1), (3, None, 2), (4, None, 3),
                                            (5, None, 8), (2, 7, 4), (3, 7, 5),
                                            (5, 7, 9), (2, 2, 6), (3, 2, 10), (2, 6, 7)])
    def test_matmul_det_inverse(self, n, d, seed):
        r = np.random.default_rng(seed)
        A = random_unit_mat(r, n, d)
        B = random_unit_mat(r, n, d)
        self._ring(d)
        SA, SB = self._dm(A), self._dm(B)
        assert self._nf(self._dm(A @ B)) == self._nf(SA * SB)
        assert self._nf(SA * self._dm(A.inverse())) == self._nf(self.DomainMatrix.eye(n, self.K))
        assert self._nf(self._dm(A ** 2)) == self._nf(SA * SA)
        want = [c.rem(self.G) for c in reversed(SA.charpoly())]  # c_0 first
        coeffs, _ = A._charpoly_adjugate()
        assert [self._entry(c).rem(self.G) for c in coeffs] == want
        assert self._entry(A.det()).rem(self.G) == (-1) ** n * want[0]


block_angle = st.one_of(
    st.just(Angle.zero()),
    st.fractions(min_value=-4, max_value=4, max_denominator=12).map(Angle.pi_times),
    st.floats(min_value=-10, max_value=10, allow_nan=False).map(Angle.radians))
eval_angles = st.one_of(st.none(), block_angle)
# a block of 1 to 70 angles: raw, pi-rational and zero angles mixed
block_angles = st.lists(block_angle, min_size=1, max_size=70)


@st.composite
def exact_mats(draw):
    """A random 1x1 to 4x4 matrix over Q[u,u^-1] or, for d in {2, 6, 7},
    over Q(sqrt2, sqrt d) tensor Q[u,u^-1]; entries have up to five
    terms with exponents in [-6, 6], some of them zero."""
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.sampled_from([None, 2, 6, 7]))
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))

    def poly():
        size = int(r.integers(0, 6))
        return LaurentPoly({int(k): Fraction(int(p), int(q)) for k, p, q in
                            zip(r.integers(-6, 7, size), r.integers(-9, 10, size),
                                r.integers(1, 10, size))})

    def entry():
        return poly() if d is None else ExtScalar(d, *(poly() for _ in range(4)))

    return Mat([[entry() for _ in range(n)] for _ in range(n)],
               "laurent" if d is None else "ext", d)


def entrywise(M: Mat, alpha: Angle) -> np.ndarray:
    """M at u = e^{i alpha} by each entry's own eval_unit."""
    return np.array([[e.eval_unit(alpha) for e in row] for row in M.rows], dtype=complex)


def _numeric_family(alpha: Angle, M_exact: Mat, N_exact: Mat, form: HermForm) -> Fig8Family:
    """The figure-eight family at one angle, built per point with the
    generators evaluated entrywise (its ``rep`` checks form invariance)."""
    M, N = entrywise(M_exact, alpha), entrywise(N_exact, alpha)
    return Fig8Family(alpha, M, N, form)


class TestCompiledEvaluate:
    """Mat.evaluate and Mat.evaluate_stack reuse one evaluation plan per
    matrix; their output is the entrywise eval_unit bit for bit (no
    tolerance)."""

    @settings(max_examples=200, deadline=None)
    @given(exact_mats(), st.lists(eval_angles, min_size=1, max_size=3))
    def test_bit_identical_to_entrywise_eval_unit(self, M, alphas):
        for alpha in alphas:  # the plan built at the first angle serves the rest
            want = entrywise(M, alpha if alpha is not None else Angle.zero())
            got = M.evaluate(alpha)
            assert (got == want).all()
            assert got.tobytes() == want.tobytes()  # signed zeros too

    @settings(max_examples=150, deadline=None)
    @given(exact_mats(), block_angles)
    def test_stack_bit_identical_to_entrywise_eval_unit(self, M, angles):
        want = np.stack([entrywise(M, a) for a in angles])
        got = M.evaluate_stack(UnitPowers(angles))
        assert got.shape == (len(angles), M.n, M.n)
        assert (got == want).all()
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(block_angles)
    def test_stacked_word_products_match_per_point(self, angles):
        # the figure-eight relator and longitude over stacks of M and N,
        # against Rep.evaluate at each point and the per-point family;
        # the block's longitude, the exact one evaluated, against its
        # entrywise eval_unit
        M_exact, N_exact, J_exact = generator_m(), generator_n(), form_matrix()
        L_exact = build_family(None).longitude()
        relator = builtin_presentation("figure8").relators[0]
        powers = UnitPowers(angles)
        M, N = M_exact.evaluate_stack(powers), N_exact.evaluate_stack(powers)
        stacked = Rep({"m": M, "n": N})
        J = J_exact.evaluate_stack(powers)
        stacked_L = stacked.evaluate(L_WORD)
        block_L = L_exact.evaluate_stack(powers)
        # dense images too, whose products round differently in another order
        X = np.random.default_rng(len(angles)).normal(size=(2, 4, 4, 2)) @ [1, 1j]
        dense = Rep({"m": M @ (X[0] + 4 * np.eye(4)), "n": N @ (X[1] + 4 * np.eye(4))})
        for k, a in enumerate(angles):
            rep = Rep({"m": M_exact.evaluate(a), "n": N_exact.evaluate(a)})
            rep_dense = Rep({sym: g[k] for sym, g in dense.images.items()})
            for w in (relator, L_WORD):
                assert stacked.evaluate(w)[k].tobytes() == rep.evaluate(w).tobytes()
                assert dense.evaluate(w)[k].tobytes() == rep_dense.evaluate(w).tobytes()
            form = HermForm(entrywise(J_exact, a), TRANSPOSE_CONJ)
            assert J[k].tobytes() == form.array().tobytes()
            fam = _numeric_family(a, M_exact, N_exact, form)
            assert M[k].tobytes() == fam.M.tobytes()
            assert N[k].tobytes() == fam.N.tobytes()
            assert stacked_L[k].tobytes() == fam.longitude().tobytes()
            assert block_L[k].tobytes() == entrywise(L_exact, a).tobytes()
        assert len(M) == len(N) == len(stacked_L) == len(block_L) == len(angles)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 5, 6, 7, 11, 15, 43]), st.booleans(), block_angles)
    def test_stacked_so41_letter_matches_bend_hnn(self, d, dense, thetas):
        # the sweep's block of so41 letters is, bit for bit, the letter
        # that bend_hnn gives at symbolic u, evaluated at each angle
        lattice = {k: embed_so41_q(g) for k, g in bianchi_lattice_su31(d).items()}
        data = _bianchi_hnn(lattice, lambda _: so41_centralizer_q(d), None)
        if dense:  # a letter with more terms per entry, which round differently
            data = dataclasses.replace(
                data, stable_image=lattice["u"] @ lattice["a"] @ lattice["u"] @ lattice["t"])
        U = bend_hnn(data, None)["u"]
        if not dense:
            assert U == bianchi_family(d, "so41").images["u"]
        want = np.stack([U.evaluate(theta) for theta in thetas])
        assert U.evaluate_stack(UnitPowers(thetas)).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 5, 6, 7, 11, 15, 43]), block_angle)
    def test_so41_family_letter_matches_bend_hnn(self, d, theta):
        # the family at an angle is the real-basis lattice, evaluated,
        # with its stable letter rotated by R_34(theta)
        lattice = {k: embed_so41(g).evaluate() for k, g in bianchi_lattice_su31(d).items()}
        data = _bianchi_hnn(lattice, so41_centralizer, Angle.zero())
        fam = bianchi_family(d, "so41", theta=theta)
        want = bend_hnn(data, theta)
        assert list(fam.images) == list(want)
        for sym, g in fam.images.items():
            assert g.tobytes() == want[sym].tobytes()
        assert fam.images["u"].tobytes() == (so41_centralizer(theta) @ lattice["u"]).tobytes()


class TestHermitianFailures:
    def test_stack_check_matches_hermform(self):
        J = siegel_form(4).array()
        bad = J.copy()
        bad[0, 1] = 1e-6
        stack = np.stack([J, bad, np.full((4, 4), np.inf), J * 1e13, bad * 1e7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hermitian_failures(stack)
        for row, failure in zip(stack, got):
            try:
                HermForm(row)
            except GeometryError as exc:
                assert (type(failure), str(failure)) == (GeometryError, str(exc))
            else:
                assert failure is None
        assert [f is None for f in got] == [True, False, False, True, False]


class TestHermFormArray:
    def test_exact_form_evaluated_once(self, monkeypatch):
        form = siegel_form(5)
        calls = []
        real = Mat.evaluate
        monkeypatch.setattr(Mat, "evaluate",
                            lambda self, *args: calls.append(1) or real(self, *args))
        first, second = form.array(), form.array()
        assert len(calls) == 1
        assert second is first and not first.flags.writeable
        assert (first == real(form.mat)).all()

    def test_u_dependent_form_needs_an_angle(self):
        # the knot form J(u) depends on u: read at u = 1 it would check a
        # bent generator against J(1) instead of its own J(alpha)
        alpha = Angle.radians(0.5)
        M, form = build_family(alpha).M, build_family(None).form
        for call in (lambda: form_defect(M, form), lambda: classify(M, form),
                     lambda: herm_signature(form)):
            with pytest.raises(TypeError, match=r"form\.numeric\(alpha\)"):
                call()
        at_alpha = form.numeric(alpha)
        assert form_defect(M, at_alpha) < 1e-12
        assert classify(M, at_alpha).kind == "parabolic"

    def test_numeric_form_is_its_matrix(self):
        J = siegel_form(4).array().copy()
        assert HermForm(J).array() is J and J.flags.writeable

    def test_u0_needs_no_exact_angle_arithmetic(self, monkeypatch):
        # u^0 is 1+0j outright; the other powers of a pi-rational angle
        # come from the exact angle arithmetic, those of a raw angle never
        seen = []
        real = Angle.times
        monkeypatch.setattr(Angle, "times", lambda self, k: seen.append(k) or real(self, k))
        M = Mat.laurent([[1, LaurentPoly.u()], [LaurentPoly.u(-2), 3]])
        got = M.evaluate(Angle.pi_fraction(1, 5))
        assert sorted(seen) == [-2, 1] and got[0, 0] == 1 and got[1, 1] == 3
        seen.clear()
        raw = Angle.radians(0.7)
        got = M.evaluate(raw)
        assert seen == [] and got[0, 0] == 1 and got[1, 1] == 3
        assert (got[0, 1], got[1, 0]) == (real(raw, 1).exp_i(), real(raw, -2).exp_i())
