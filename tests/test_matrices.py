from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from cuspdeform.figure8 import det_form_closed, form_matrix, longitude_matrix
from cuspdeform.matrices import (GeometryError, HermForm, Mat,
                                 TRANSPOSE_CONJ, eigen, form_defect,
                                 form_preserved, herm_signature, siegel_form)
from cuspdeform.heisenberg import dilation_matrix
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


class TestExactMatAgainstSympy:
    """Products, powers, determinants and inverses of small exact
    matrices against sympy (an independent computer-algebra oracle)."""

    @pytest.fixture(autouse=True)
    def _sympy(self):
        self.S = pytest.importorskip("sympy")
        self.u = self.S.Symbol("u")

    def _laurent(self, p):
        return sum((self.S.Rational(v.numerator, v.denominator) * self.u ** k
                    for k, v in p.items()), self.S.Integer(0))

    def _entry(self, e):
        if isinstance(e, LaurentPoly):
            return self._laurent(e)
        radicals = (1, self.S.sqrt(2), self.S.sqrt(e.d), self.S.sqrt(2 * e.d))
        return sum((self._laurent(p) * r for p, r in zip(e.c, radicals)),
                   self.S.Integer(0))

    def _sym(self, M):
        return self.S.Matrix([[self._entry(e) for e in row] for row in M.rows])

    def _same(self, A, B):
        return (A - B).applyfunc(self.S.expand) == self.S.zeros(*A.shape)

    @staticmethod
    def _random_laurent(rng, terms=2):
        return LaurentPoly({int(k): Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                            for k in rng.integers(-2, 3, size=terms)})

    def _random_unit_mat(self, rng, n, d=None):
        """L * D * U with unitriangular L, U and a diagonal of units, so
        the determinant is a unit and the exact inverse exists."""
        def entry():
            p = self._random_laurent(rng)
            if d is None:
                return p
            return ExtScalar(d, p, 0, 0, self._random_laurent(rng, 1))

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

    @pytest.mark.parametrize("n, d, seed", [(2, None, 1), (3, None, 2), (4, None, 3),
                                            (2, 7, 4), (3, 7, 5), (2, 2, 6), (2, 6, 7)])
    def test_matmul_det_inverse(self, n, d, seed):
        r = np.random.default_rng(seed)
        A = self._random_unit_mat(r, n, d)
        B = self._random_unit_mat(r, n, d)
        SA, SB = self._sym(A), self._sym(B)
        assert self._same(self._sym(A @ B), SA * SB)
        assert self.S.expand(self._entry(A.det()) - SA.det(method="berkowitz")) == 0
        assert self._same(SA * self._sym(A.inverse()), self.S.eye(n))
        assert self._same(self._sym(A ** 2), SA * SA)
