import dataclasses
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from cuspdeform import bending
from cuspdeform.bending import (_so41_bend_data, _so41_letters, bend_hnn,
                                bianchi_family, bianchi_lattice_so41)
from cuspdeform.figure8 import (L_WORD, Fig8Family, _numeric_families,
                                build_family, det_form_closed, form_matrix, generator_m,
                                generator_n, longitude_matrix)
from cuspdeform.matrices import (GeometryError, HermForm, Mat,
                                 TRANSPOSE_CONJ, UnitPowers, _trace_of_product,
                                 eigen, form_defect,
                                 form_preserved, herm_signature, hermitian_failures,
                                 siegel_form)
from cuspdeform.tolerances import CONSTRUCTION_TOL
from cuspdeform.words import Rep, Word, builtin_presentation
from cuspdeform.heisenberg import dilation_matrix
from cuspdeform.isometry import classify
from cuspdeform.scalars import Angle, ExtScalar, LaurentPoly

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


def cofactor_inverse(A: Mat) -> Mat:
    """The reference inverse: the adjugate of n^2 cofactor determinants,
    divided by the determinant (which must be a ring unit)."""
    n = A.n
    det_inv = A.det().inverse()
    if n == 1:
        return Mat([[det_inv]], A.ring, A.d)
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[A.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            m = Mat(sub, A.ring, A.d).det()
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

    @given(cancelling_mat_pairs())
    @settings(max_examples=150, deadline=None)
    def test_trace_only_product_is_the_trace(self, AB):
        A, B = AB
        got, want = _trace_of_product(A, B), (A @ B).trace()
        assert got == want and term_order(got) == term_order(want)


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
        assert coeffs[n] == A._one() and coeffs[0] * (-1) ** n == A.det()

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


def _numeric_family(alpha: Angle, M_exact: Mat, N_exact: Mat, form: HermForm,
                    relator: Word) -> Fig8Family:
    """The figure-eight family at one angle, built per point with the
    generators evaluated entrywise: form invariance (by ``Rep``), then
    the defining relation."""
    M, N = entrywise(M_exact, alpha), entrywise(N_exact, alpha)
    rep = Rep({"m": M, "n": N}, form)
    defect = float(np.abs(rep.evaluate(relator) - np.eye(4)).max())
    if defect > CONSTRUCTION_TOL:
        raise AssertionError(
            f"internal error: defining relation defect {defect:.3g} at alpha")
    return Fig8Family(alpha, M, N, form, rep)


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
        # against Rep.evaluate at each point, and the block family
        # against the per-point reference (same checks, same failures)
        M_exact, N_exact, J_exact = generator_m(), generator_n(), form_matrix()
        relator = builtin_presentation("figure8").relators[0]
        powers = UnitPowers(angles)
        M, N = M_exact.evaluate_stack(powers), N_exact.evaluate_stack(powers)
        stacked = Rep({"m": M, "n": N})
        J = J_exact.evaluate_stack(powers)
        fam_M, fam_N, fam_L, failure = _numeric_families(powers, M_exact, N_exact, J,
                                                         relator)
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
            try:
                fam = _numeric_family(a, M_exact, N_exact, form, relator)
            except (AssertionError, GeometryError) as exc:
                assert (len(fam_M), type(failure), str(failure)) == (k, type(exc), str(exc))
                break
            assert fam_M[k].tobytes() == fam.M.tobytes()
            assert fam_N[k].tobytes() == fam.N.tobytes()
            assert fam_L[k].tobytes() == fam.longitude().tobytes()
        else:
            assert (len(fam_M), len(fam_N), failure) == (len(angles), len(angles), None)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 5, 6, 7, 11, 15, 43]), st.booleans(), block_angles)
    def test_stacked_so41_letter_matches_bend_hnn(self, d, dense, thetas):
        data = _so41_bend_data(bianchi_lattice_so41(d))
        if dense:  # a stable letter whose products round differently in another order
            X = np.random.default_rng(d).normal(size=(5, 5, 2)) @ [1, 1j]
            data = dataclasses.replace(data, stable_image=X)
        letters, failure = _so41_letters(data, thetas)
        assert failure is None
        want = np.stack([bend_hnn(data, theta)["u"] for theta in thetas])
        assert letters.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 5, 6, 7, 11, 15, 43]), st.booleans(), block_angle)
    def test_so41_family_letter_matches_bend_hnn(self, d, dense, theta):
        data = _so41_bend_data(bianchi_lattice_so41(d))
        if dense:  # a stable letter whose products round differently in another order
            X = np.random.default_rng(d).normal(size=(5, 5, 2)) @ [1, 1j]
            data = dataclasses.replace(data, stable_image=X)
        with mock.patch.object(bending, "_so41_bend_data", lambda _: data):
            fam = bianchi_family(d, "so41", theta=theta)
        want = bend_hnn(data, theta)
        assert list(fam.images) == list(want)
        for sym, g in fam.images.items():
            assert g.tobytes() == want[sym].tobytes()


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
