import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from cuspdeform import bending, scalars
from cuspdeform.bending import (ALGEBRA_PROBE_ANGLE, BendDataAmalgam,
                                BendDataHNN, algebra_dimension, bend_amalgam,
                                bend_hnn, bianchi_family,
                                bianchi_lattice_su31, centralizer,
                                cusp_matrix_T, cusp_matrix_U, cusp_surds,
                                pythagorean_pair, so41_centralizer,
                                su31_centralizer, validate_bianchi_d,
                                verify_bianchi_so41, verify_bianchi_su31)
from cuspdeform.heisenberg import dilation_matrix
from cuspdeform.matrices import (GeometryError, Mat, form_preserved,
                                 siegel_form)
from cuspdeform.scalars import Angle, ExtScalar, LaurentPoly, Surd


class TestCentralizers:
    def test_su31_at_one(self):
        assert np.array_equal(su31_centralizer(Angle.zero()), np.eye(4))

    def test_so41_half_turn(self):
        want = np.diag([1.0, 1.0, -1.0, -1.0, 1.0])
        assert np.abs(so41_centralizer(Angle.pi_fraction(1, 1)) - want).max() == 0

    def test_dispatcher(self):
        assert centralizer("su31", Angle.pi_fraction(1, 2))[2, 2] \
            == pytest.approx(1j)
        assert centralizer("so41", Angle.zero()).shape == (5, 5)

    def test_exact_commutes_with_modular_generators(self):
        for d in (2, 7):
            lat = bianchi_lattice_su31(d)
            from cuspdeform.bending import su31_centralizer_exact
            Z = su31_centralizer_exact(d)
            for sym in ("a", "t"):
                assert Z @ lat[sym] == lat[sym] @ Z

    def test_pythagorean_pairs(self):
        c, s = pythagorean_pair(Fraction(1, 2))
        assert (c, s) == (Fraction(3, 5), Fraction(4, 5))
        assert c * c + s * s == 1


class TestBendOperators:
    def test_hnn_zero_parameter_is_base(self):
        lat = bianchi_lattice_su31(2)
        data = BendDataHNN(
            base={k: v for k, v in lat.items() if k != "u"},
            stable="u", stable_image=lat["u"],
            centralizer=lambda th: Mat.ext(
                np.eye(4, dtype=int).tolist(), 2) if th is None else None,
            edge_gens=("a", "t"), zero_param=None)
        images = bend_hnn(data, None)
        assert images["u"] == lat["u"]
        assert images["a"] == lat["a"]

    def test_hnn_rejects_noncentralizing(self):
        lat = bianchi_lattice_su31(2)
        bad = Mat.ext(np.diag([1, 2, 1, 1]).tolist(), 2)  # breaks 'a' and 't'
        data = BendDataHNN(
            base={k: v for k, v in lat.items() if k != "u"},
            stable="u", stable_image=lat["u"],
            centralizer=lambda t: Mat.identity(4, "ext", 2) if t == 0 else bad,
            edge_gens=("a", "t"))
        with pytest.raises(GeometryError):
            bend_hnn(data, 1)

    def test_zero_parameter_must_give_identity(self):
        # exact: every component of every entry is read at u = 1, so u and
        # 2 - u on the diagonal pass, a sqrt2 part or an off-diagonal u not
        lat = bianchi_lattice_su31(2)
        u = LaurentPoly.u()
        bent = [[u, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2 - u, 0], [0, 0, 0, 1]]
        surd = [[1, Surd(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        off = [[1, u, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        for rows, ok in ((bent, True), (surd, False), (off, False)):
            g = Mat.ext(rows, 2)
            make = lambda: BendDataHNN(
                base={"a": lat["a"]}, stable="u", stable_image=lat["u"],
                centralizer=lambda _: g, edge_gens=("a",), zero_param=None)
            if ok:
                make()
            else:
                with pytest.raises(GeometryError, match="identity at the zero parameter"):
                    make()
        # numeric: within STRUCTURE_TOL of the identity
        for eps, ok in ((1e-13, True), (1e-11, False)):
            make = lambda: BendDataAmalgam(
                left={"x": np.eye(4)}, right={"y": np.eye(4)},
                centralizer=lambda _: np.eye(4) + eps, edge_gens=())
            if ok:
                make()
            else:
                with pytest.raises(GeometryError, match="identity at the zero parameter"):
                    make()

    def test_amalgam_toy_instance(self):
        # two loxodromic cyclic factors amalgamated trivially; the axis
        # is moved off the centralizer's fixed line so bending acts
        from cuspdeform.heisenberg import HeisPoint, translation_matrix
        T = translation_matrix(HeisPoint((1.0, 1.0), 0.0))
        g = T @ dilation_matrix(2.0, 2) @ np.linalg.inv(T)
        data = BendDataAmalgam(
            left={"x": g}, right={"y": g},
            centralizer=lambda t: np.asarray(su31_centralizer(t)),
            edge_gens=(), zero_param=Angle.zero())
        bent = bend_amalgam(data, Angle.pi_fraction(1, 3))
        assert np.array_equal(bent["x"], g)
        assert np.abs(bent["y"] - g).max() > 0.1
        undeformed = bend_amalgam(data, Angle.zero())
        assert np.abs(undeformed["y"] - g).max() < 1e-12

    def test_amalgam_edge_gen_fixed(self):
        # the edge image commutes with the centralizer, so it stays put
        rot = np.diag([1.0, 1.0, np.exp(0.4j), 1.0])
        data = BendDataAmalgam(
            left={"delta": rot}, right={"delta": rot, "y": dilation_matrix(2.0, 2)},
            centralizer=lambda t: np.asarray(su31_centralizer(t)),
            edge_gens=("delta",), zero_param=Angle.zero())
        bent = bend_amalgam(data, Angle.pi_fraction(2, 5))
        assert np.array_equal(bent["delta"], rot)


class TestBianchiMatrices:
    def test_bent_matrix_entries_mod12(self):
        # d = 2: sqrt(2d) = 2, so row one reads (1, 0, 2, -2)
        fam = bianchi_family(2, "su31")
        U = fam.images["u"]
        assert U[0, 2] == ExtScalar.rational(2, 2)
        assert U[0, 3] == ExtScalar.rational(-2, 2)
        assert U[2, 2] == ExtScalar.from_laurent(LaurentPoly.u(), 2)
        assert U[2, 3] == ExtScalar.from_laurent(LaurentPoly.u() * -2, 2)

    def test_bent_matrix_entries_mod3(self):
        # d = 7: row one is (1, -sqrt2/2, sqrt14/2, -2) since (d+1)/4 = 2
        fam = bianchi_family(7, "su31")
        U = fam.images["u"]
        assert U[0, 1] == ExtScalar.from_surd(Surd(Fraction(-1, 2), 2), 7)
        assert U[0, 2] == ExtScalar.from_surd(Surd(Fraction(1, 2), 14), 7)
        assert U[0, 3] == ExtScalar.rational(-2, 7)
        assert U[2, 3] == ExtScalar(7, 0, 0, 0, LaurentPoly.u() * Fraction(-1, 2))

    def test_bent_equals_centralizer_times_lattice(self):
        from cuspdeform.bending import su31_centralizer_exact
        for d in (2, 5, 7, 11):
            lat = bianchi_lattice_su31(d)
            fam = bianchi_family(d, "su31")
            assert fam.images["u"] == su31_centralizer_exact(d) @ lat["u"]

    def test_so41_bent_rows(self):
        # rows 3-4 of the bent so41 generator carry the rotation block
        # times sqrt(2d)
        fam = bianchi_family(2, "so41", theta=Angle.pi_fraction(1, 3))
        U = np.asarray(fam.images["u"])
        c, s = 0.5, math.sqrt(3) / 2
        assert U[2, 2] == pytest.approx(c)
        assert U[3, 2] == pytest.approx(s)
        assert U[2, 4] == pytest.approx(-c * 2.0)  # sqrt(2d) = 2 at d = 2
        assert U[3, 4] == pytest.approx(-s * 2.0)

    def test_invalid_d(self):
        for d in (0, 4, 12):
            with pytest.raises(ValueError):
                validate_bianchi_d(d)
        for d in (1, 3):
            with pytest.raises(ValueError):
                bianchi_family(d, "su31")

    def test_squarefree_rule_against_trial_division(self):
        for d in range(-5, 3001):
            if d < 1 or not is_squarefree(d):
                want = f"d={d} is not a squarefree positive integer"
            elif d in (1, 3):
                want = (f"d={d} has no modular-surface bending family "
                        "(its deformations are classified separately)")
            else:
                validate_bianchi_d(d)
                continue
            with pytest.raises(ValueError) as err:
                validate_bianchi_d(d)
            assert str(err.value) == want

    def test_families_without_presentation(self):
        for d in (5, 6, 13):
            fam = bianchi_family(d, "su31")
            assert not fam.has_presentation
            rep = fam.rep()  # exact form invariance still holds
            assert fam.images["u"].trace() \
                == ExtScalar.from_laurent(LaurentPoly.u() + 3, d)


def printed_cusp_generators(d: int) -> tuple[Mat, Mat]:
    """The cusp generators T and U of the Bi(d) lattice as printed, one
    matrix each for the 1,2 mod 4 and the 3 mod 4 classes: the
    transcription reference for the lattice built from its cusp data."""
    s2 = Surd(1, 2)
    T = Mat.ext([[1, -s2, 0, -1],
                 [0, 1, 0, s2],
                 [0, 0, 1, 0],
                 [0, 0, 0, 1]], d)
    if d % 4 in (1, 2):
        s2d = Surd(1, 2 * d)
        U = Mat.ext([[1, 0, s2d, -d],
                     [0, 1, 0, 0],
                     [0, 0, 1, -s2d],
                     [0, 0, 0, 1]], d)
    else:
        h2 = Surd(Fraction(1, 2), 2)
        h2d = Surd(Fraction(1, 2), 2 * d)
        U = Mat.ext([[1, -h2, h2d, Fraction(-(d + 1), 4)],
                     [0, 1, 0, h2],
                     [0, 0, 1, -h2d],
                     [0, 0, 0, 1]], d)
    return T, U


def is_squarefree(d: int) -> bool:
    """Trial division by every p with p^2 <= d: the reference predicate
    for ``validate_bianchi_d``."""
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


class TestCuspData:
    @pytest.mark.parametrize("d", [2, 5, 6, 7, 10, 11, 13, 14, 15, 19, 43])
    def test_parameters_reproduce_lattice_generators(self, d):
        T, U = printed_cusp_generators(d)
        a, b1, b2 = cusp_surds(d)
        lat = bianchi_lattice_su31(d)
        assert cusp_matrix_T(a, d) == lat["t"] == T
        assert cusp_matrix_U(b1, b2, d) == lat["u"] == U
        assert np.array_equal(lat["t"].evaluate(), T.evaluate())
        assert np.array_equal(lat["u"].evaluate(), U.evaluate())

    def test_large_d_reduces_no_radicand_product(self, monkeypatch):
        # a Surd product b2 * b2 reduces (2d)^2 by trial division up to d
        seen = []
        real = scalars._squarefree
        monkeypatch.setattr(scalars, "_squarefree", lambda k: seen.append(k) or real(k))
        d = 100000007
        T, U = printed_cusp_generators(d)
        lat = bianchi_lattice_su31(d)
        assert (lat["t"], lat["u"]) == (T, U)
        assert max(seen) <= 2 * d

    def test_cusp_surds_against_trial_division(self):
        # b2 comes from the parity of the validated d, not from reducing 2d
        for d in range(2, 1001):
            if d == 3 or not is_squarefree(d):
                continue
            a, b1, b2 = cusp_surds(d)
            if d % 4 in (1, 2):
                want = (Surd(1, 2), Surd(0), Surd(-1, 2 * d))
            else:
                want = (Surd(1, 2), Surd(Fraction(1, 2), 2), Surd(Fraction(-1, 2), 2 * d))
            assert [(x.q, x.k) for x in (a, b1, b2)] == [(x.q, x.k) for x in want], d
            assert all(type(x.q) is Fraction for x in (a, b1, b2))

    def test_large_d_reduces_only_d(self, monkeypatch):
        # a report at a 13-digit d misses the radicand memo for d alone:
        # 2d is not reduced again after validate_bianchi_d reduced d
        missed = []
        real = scalars._squarefree.__wrapped__
        memo = functools.lru_cache(maxsize=256)(
            lambda k: missed.append(k) or real(k))
        monkeypatch.setattr(scalars, "_squarefree", memo)
        monkeypatch.setattr(bending, "_squarefree", memo)
        d = 1000000000039
        report = verify_bianchi_so41(d, Angle.radians(1.0))
        assert report["d"] == d and report["checks"] and missed == [d]

    def test_orthogonality_by_class(self):
        assert cusp_surds(2)[1].is_zero
        assert cusp_surds(5)[1].is_zero
        assert not cusp_surds(7)[1].is_zero
        assert not cusp_surds(11)[1].is_zero

    def test_cusp_params_wire_into_orbits(self):
        fam = bianchi_family(2, "su31")
        params = fam.cusp_params(Angle.pi_fraction(1, 3))
        assert float(params.a) == pytest.approx(math.sqrt(2))
        assert params.orthogonal


class TestAlgebraDimension:
    def test_identity_alone(self):
        assert algebra_dimension([np.eye(4)]) == 1

    def test_bianchi_generators_full(self):
        fam = bianchi_family(2, "su31")
        gens = list(fam.numeric_images(Angle.pi_fraction(1, 2)).values())
        dim, margin = algebra_dimension(gens, return_margin=True)
        assert dim == 16 and margin >= 10

    def test_figure8_generators_full(self):
        from cuspdeform.figure8 import build_family
        fam = build_family(Angle.zero())
        dim, margin = algebra_dimension([fam.M, fam.N], return_margin=True)
        assert dim == 16 and margin >= 10

    def test_commutative_span_small(self):
        g = np.diag([2.0, 1.0, 1.0, 0.5]).astype(complex)
        assert algebra_dimension([g]) == 3  # I, g, g^2 then saturation

    def test_too_many_generators(self):
        with pytest.raises(ValueError):
            algebra_dimension([np.eye(2)] * 9)


class TestVerifySU31:
    @pytest.mark.parametrize("d", [2, 7, 11])
    def test_symbolic_pass(self, d):
        rep = verify_bianchi_su31(d)
        assert rep["pass"]
        assert rep["traceU"] == "3 + u"
        assert all(r["exact"] and r["projective"] for r in rep["relations"])
        assert rep["algebraDim"] == 16
        assert rep["classSampleAlpha"] == ALGEBRA_PROBE_ANGLE.value

    def test_numeric_parameter(self):
        rep = verify_bianchi_su31(2, Angle.pi_fraction(1, 3))
        assert rep["pass"]
        assert rep["classU"] == "parabolic(ellipto-parabolic)"
        assert rep["cusp"]["verdict"] == "strongly-parabolic-preserving"

    def test_nonorthogonal_verdict(self):
        rep = verify_bianchi_su31(7, Angle.pi_fraction(1, 2))
        assert rep["pass"]
        assert rep["cusp"]["verdict"] == "parabolic-preserving"

    def test_d_without_presentation(self):
        rep = verify_bianchi_su31(5, Angle.pi_fraction(1, 3))
        assert rep["relations"] is None
        assert rep["pass"]


class TestVerifySO41:
    def test_orthogonal_elliptic(self):
        rep = verify_bianchi_so41(2, Angle.pi_fraction(1, 3))
        assert rep["pass"]
        assert rep["classU"].startswith("elliptic")
        assert "not parabolic-preserving" in rep["cusp"]["verdict"]

    def test_nonorthogonal_elliptoparabolic(self):
        rep = verify_bianchi_so41(7, Angle.radians(1.0))
        assert rep["pass"]
        assert rep["classU"] == "parabolic(ellipto-parabolic)"
        assert rep["cusp"]["verdict"] == "nondiscrete-Z2-rational"

    def test_nonorthogonal_rational_angle_discrete(self):
        rep = verify_bianchi_so41(7, Angle.pi_fraction(1, 2))
        assert rep["cusp"]["verdict"] == "discrete-nonZ2"

    def test_undeformed(self):
        rep = verify_bianchi_so41(2, Angle.zero())
        assert rep["pass"]
        assert "unipotent" in rep["classU"]
        assert rep["cusp"]["verdict"] == "undeformed-lattice-cusp"

    @pytest.mark.parametrize("d", [2, 7, 11])
    def test_exact_relations_at_pythagorean_point(self, d):
        rep = verify_bianchi_so41(d, Angle.radians(0.5),
                                  pythagorean=Fraction(2, 3))
        assert all(r["exact"] for r in rep["relations"])

    def test_so41_form_preserved_exactly(self):
        fam = bianchi_family(11, "so41", pythagorean=Fraction(1, 3))
        J5 = siegel_form(5)
        for g in fam.images.values():
            assert form_preserved(g, J5)
