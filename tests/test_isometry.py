import numpy as np
import pytest
from scipy.linalg import expm

from cuspdeform.bending import bianchi_family
from cuspdeform.figure8 import build_family, longitude_matrix
from cuspdeform.heisenberg import (HeisPoint, dilation_matrix,
                                   rotation_matrix, translation_matrix)
from cuspdeform.isometry import (ELLIPTO_PARABOLIC, Elliptic, Identity,
                                 Loxodromic, Parabolic, UNIPOTENT_STEP2,
                                 UNIPOTENT_STEP3, classify, elliptic_boundary,
                                 parabolic_subtype)
from cuspdeform.matrices import (CONJ_TRANSPOSE, GeometryError, HermForm,
                                 IndeterminateError, siegel_form)
from cuspdeform.scalars import Angle

SIEGEL4 = siegel_form(4)
rng = np.random.default_rng(20260809)


def isometry_of(J, scale=0.3):
    """exp(J^-1 A), A anti-hermitian: preserves a hermitian J in the
    conj-transpose convention."""
    n = J.shape[0]
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = scale * (B - B.conj().T)
    return expm(np.linalg.inv(J) @ A)


class TestClassify:
    def test_translation_parabolic(self):
        g = translation_matrix(HeisPoint((0.7, -0.2), 0.9))
        assert isinstance(classify(g, SIEGEL4), Parabolic)

    def test_dilation_loxodromic(self):
        # spectrum {2, 1, 1, 1/2}: exactly two eigenvalues off the circle
        assert isinstance(classify(dilation_matrix(2.0, 2), SIEGEL4), Loxodromic)

    def test_longitude_ellipto_parabolic(self):
        fam = build_family(Angle.pi_fraction(1, 5))
        assert classify(fam.longitude(), fam.form) == Parabolic(ELLIPTO_PARABOLIC)

    def test_bent_so41_elliptic(self):
        fam = bianchi_family(2, "so41", theta=Angle.pi_fraction(1, 3))
        cls = classify(fam.images["u"], fam.form.numeric())
        assert isinstance(cls, Elliptic)

    def test_identity_detection(self):
        assert isinstance(classify(np.eye(4), SIEGEL4), Identity)
        assert isinstance(classify(1j * np.eye(4), SIEGEL4), Identity)

    def test_rejects_non_isometry(self):
        with pytest.raises(GeometryError):
            classify(np.diag([2.0, 1.0, 1.0, 1.0]), SIEGEL4)

    def test_marginal_unit_norm_is_indeterminate(self):
        from cuspdeform.matrices import IndeterminateError
        # a dilation 5x(tolerance) off the identity: the unit-norm
        # decision may not be guessed either way
        g = dilation_matrix(1.0 + 5e-9, 2)
        with pytest.raises(IndeterminateError) as exc:
            classify(g, SIEGEL4, tol=1e-9)
        assert exc.value.margin < 10

    def test_scalar_invariance(self):
        g = translation_matrix(HeisPoint((0.3, 0.1), -0.4))
        base = classify(g, SIEGEL4)
        for phase in (1j, np.exp(0.7j), -1.0):
            assert classify(phase * g, SIEGEL4) == base

    def test_siegel_conjugation_invariance(self):
        samples = [
            dilation_matrix(3.0, 2),
            translation_matrix(HeisPoint((1.0, 0.5), 0.0)),
            rotation_matrix(np.diag([np.exp(0.4j), 1.0])),
        ]
        for g in samples:
            base = classify(g, SIEGEL4)
            for _ in range(5):
                h = isometry_of(SIEGEL4.array())
                got = classify(h @ g @ np.linalg.inv(h), SIEGEL4, tol=1e-8)
                assert got == base

    def test_transpose_conj_conjugation_invariance(self):
        # transposing g^T J conj(g) = J gives g* conj(J) g = conj(J):
        # transpose-conj isometries of J are conj-transpose isometries
        # of conj(J), which is how the conjugators are generated here
        fam = build_family(Angle.pi_fraction(1, 5))
        J = fam.form.array()
        for A in (fam.M, fam.longitude()):
            base = classify(A, fam.form, tol=1e-8)
            for _ in range(4):
                g = isometry_of(J.conj())
                got = classify(g @ A @ np.linalg.inv(g), fam.form, tol=1e-8)
                assert got == base


class TestParabolicSubtype:
    def test_vertical_translation_step2(self):
        g = translation_matrix(HeisPoint((0, 0), 1.3))
        assert parabolic_subtype(g) == UNIPOTENT_STEP2

    def test_horizontal_translation_step3(self):
        g = translation_matrix(HeisPoint((1.0, 0.5), 0))
        assert parabolic_subtype(g) == UNIPOTENT_STEP3

    def test_bent_bianchi_ellipto(self):
        fam = bianchi_family(2, "su31")
        U = fam.numeric_images(Angle.pi_fraction(1, 2))["u"]
        assert parabolic_subtype(U) == ELLIPTO_PARABOLIC

    def test_longitude_at_quarter_turn_is_unipotent_times_scalar(self):
        # merged cluster {i x4}: the isometry is a vertical translation
        L = longitude_matrix().evaluate(Angle.pi_fraction(1, 2))
        assert parabolic_subtype(L) == UNIPOTENT_STEP2

    def test_conjugated_unipotent_keeps_subtype(self):
        g = translation_matrix(HeisPoint((1.0, 0.5), 0))
        for _ in range(4):
            h = isometry_of(SIEGEL4.array())
            assert parabolic_subtype(h @ g @ np.linalg.inv(h), tol=1e-8) \
                == UNIPOTENT_STEP3

    def test_overflowed_nilpotent_threshold_decides_nothing(self):
        # (A - I)^2 is out of float range, and so is its threshold: no
        # unipotent step is read off an infinite comparison
        A = np.eye(4) + np.triu(np.full((4, 4), 1e160), 1)
        with np.errstate(all="ignore"), pytest.raises(IndeterminateError):
            parabolic_subtype(A)


class TestEllipticBoundary:
    def test_heisenberg_rotation_fixes_infinity(self):
        g = rotation_matrix(np.diag([np.exp(0.4j), 1.0]))
        assert isinstance(classify(g, SIEGEL4), Elliptic)
        assert elliptic_boundary(g, SIEGEL4) is True

    def test_identity_is_boundary(self):
        assert elliptic_boundary(np.eye(4), SIEGEL4) is True

    def test_generic_ball_elliptic_is_single_point(self):
        # diagonal form of signature (3,1); distinct phases make the
        # coordinate axes the eigenvectors, none of them null
        Jb = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        J = HermForm(Jb, CONJ_TRANSPOSE)
        A = np.diag(np.exp(1j * np.array([0.3, 0.9, 1.7, 2.4])))
        assert elliptic_boundary(A, J) is False
        ball = isometry_of(Jb)
        conj = ball @ A @ np.linalg.inv(ball)
        assert elliptic_boundary(conj, J, tol=1e-8) is False
        assert classify(conj, J, tol=1e-8) == Elliptic(boundary=False)

    def test_modular_involution_is_boundary_elliptic(self):
        fam = bianchi_family(2, "su31")
        A1 = fam.numeric_images(Angle.zero())["a"]
        assert classify(A1, SIEGEL4) == Elliptic(boundary=True)


class TestPartition:
    def test_classes_stable_under_tolerance_perturbation(self):
        # one class per built-in matrix, unchanged when the tolerance
        # moves by a factor of ten either way
        fam8 = build_family(Angle.pi_fraction(1, 5))
        fam_b = bianchi_family(2, "su31")
        fam_s2 = bianchi_family(2, "so41", theta=Angle.pi_fraction(1, 3))
        fam_s7 = bianchi_family(7, "so41", theta=Angle.radians(1.0))
        cases = [
            (fam8.M, fam8.form),
            (fam8.longitude(), fam8.form),
            (fam_b.numeric_images(Angle.pi_fraction(1, 5))["u"],
             fam_b.form.numeric()),
            (fam_s2.images["u"], fam_s2.form.numeric()),
            (fam_s7.images["u"], fam_s7.form.numeric()),
        ]
        for A, form in cases:
            got = {str(classify(A, form, tol=t))
                   for t in (1e-10, 1e-9, 1e-8)}
            assert len(got) == 1, got
