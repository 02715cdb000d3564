import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuspdeform.heisenberg import (CuspParams, GeometryError, HeisPoint,
                                   RS1Class, RS1Element, bent_cusp_U,
                                   boundary_action, box_distance,
                                   cusp_translation_T, cusp_translation_U,
                                   dilation_matrix, heis_mul, orbit_center,
                                   orbit_gap, orbit_gap_probe, orbit_point,
                                   orbit_point_via_matrices, orbit_points,
                                   rotation_matrix, rs1_classify, rs1_probe,
                                   shift_point, translation_matrix,
                                   unshift_point, write_orbit_csv)
from cuspdeform.heisenberg import _rs1_gap
from cuspdeform.scalars import Angle, Surd

complexes = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                               allow_nan=False, allow_infinity=False)


@st.composite
def points(draw, k=2):
    z = tuple(draw(complexes) for _ in range(k))
    return HeisPoint(z, draw(st.floats(-3, 3)))


@st.composite
def tied_clouds(draw, width):
    """2-60 rows of `width` floats: one column takes at most two values,
    and up to five rows are exact duplicates of others."""
    row = st.lists(st.floats(-3, 3), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=2, max_size=55))
    col = draw(st.integers(0, width - 1))
    pool = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=2))
    for i, r in enumerate(rows):
        r[col] = pool[i % len(pool)]
    dups = draw(st.lists(st.integers(0, len(rows) - 1), max_size=5))
    return rows + [list(rows[i]) for i in dups]


def brute_min(points, dist, dup_tol):
    ds = (dist(p, q) for p, q in itertools.combinations(points, 2))
    return min((d for d in ds if d > dup_tol), default=math.inf)


def same_gap(got, want):
    return got == want or math.isclose(got, want, rel_tol=1e-12)


D2_PARAMS = CuspParams(Surd(1, 2), Surd(0), Surd(-1, 4), Angle.pi_fraction(1, 3))
D7_PARAMS = CuspParams(Surd(1, 2), Surd(Fraction(1, 2), 2),
                       Surd(Fraction(-1, 2), 14), Angle.radians(0.9))


class TestGroupLaw:
    def test_center(self):
        p = heis_mul(HeisPoint((0, 0), 1.5), HeisPoint((0, 0), -0.5))
        assert p.approx_equal(HeisPoint((0, 0), 1.0))

    def test_twist_term(self):
        # (i,0),(1,0): twist 2 Im(i * conj(1)) = 2
        p = heis_mul(HeisPoint((1j, 0), 0), HeisPoint((1, 0), 0))
        assert p.approx_equal(HeisPoint((1 + 1j, 0), 2.0))

    def test_inverse(self):
        p = HeisPoint((0.3 + 0.2j, -1j), 0.7)
        assert heis_mul(p, p.inverse()).approx_equal(HeisPoint.origin(2))

    @given(points(), points(), points())
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, p, q, r):
        a = heis_mul(heis_mul(p, q), r)
        b = heis_mul(p, heis_mul(q, r))
        assert a.approx_equal(b, tol=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            heis_mul(HeisPoint((0,), 0), HeisPoint((0, 0), 0))


class TestStabilizerMatrices:
    def test_vertical_translation_entry(self):
        g = translation_matrix(HeisPoint((0, 0), 0.8))
        assert g[0, 3] == pytest.approx(0.4j)

    def test_dilation_identity(self):
        assert np.array_equal(dilation_matrix(1.0, 2), np.eye(4))

    def test_translations_realize_group_law(self):
        p, q = HeisPoint((0.4 - 0.1j, 1j), 0.3), HeisPoint((-1, 0.2j), -0.9)
        lhs = translation_matrix(p) @ translation_matrix(q)
        rhs = translation_matrix(heis_mul(p, q))
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_all_preserve_siegel_form(self):
        from cuspdeform.matrices import form_defect, siegel_form
        J = siegel_form(4)
        mats = [translation_matrix(HeisPoint((0.5, -1j), 2.0)),
                rotation_matrix(np.diag([np.exp(0.3j), np.exp(-1.1j)])),
                dilation_matrix(2.5, 2)]
        for g in mats:
            assert form_defect(g, J) < 1e-12

    def test_rotation_requires_unitary(self):
        with pytest.raises(GeometryError):
            rotation_matrix(np.diag([2.0, 1.0]))

    def test_dilation_requires_positive(self):
        with pytest.raises(GeometryError):
            dilation_matrix(-1.0, 2)


class TestBoundaryAction:
    def test_translation_moves_origin(self):
        p = HeisPoint((0.7 + 0.1j, -0.4j), 1.3)
        img = boundary_action(translation_matrix(p), HeisPoint.origin(2))
        assert img.approx_equal(p)

    def test_dilation_action(self):
        p = HeisPoint((0.5, 1j), 0.8)
        img = boundary_action(dilation_matrix(3.0, 2), p)
        assert img.approx_equal(HeisPoint((1.5, 3j), 9 * 0.8))

    def test_rotation_action(self):
        U = np.diag([np.exp(0.4j), np.exp(-0.9j)])
        p = HeisPoint((0.5, 1j), 0.8)
        img = boundary_action(rotation_matrix(U), p)
        want = HeisPoint(tuple(U @ np.array(p.z)), 0.8)
        assert img.approx_equal(want)

    def test_action_is_homomorphic_on_words(self):
        rng = np.random.default_rng(5)
        gens = [translation_matrix(HeisPoint((0.3, -0.2j), 0.5)),
                rotation_matrix(np.diag([np.exp(0.7j), 1.0])),
                dilation_matrix(1.7, 2)]
        p = HeisPoint((0.1 - 0.2j, 0.3), -0.7)
        for _ in range(10):
            word = [gens[i] for i in rng.integers(0, 3, size=6)]
            g = np.eye(4, dtype=complex)
            q = p
            for h in reversed(word):
                q = boundary_action(h, q)
            for h in word:
                g = g @ h
            assert boundary_action(g, p).approx_equal(q, tol=1e-10)

    def test_rejects_nonstabilizing(self):
        from cuspdeform.bending import bianchi_family
        A1 = bianchi_family(2, "su31").numeric_images(Angle.zero())["a"]
        with pytest.raises(GeometryError):
            boundary_action(A1, HeisPoint.origin(2))


class TestOrbit:
    def test_zero_word_is_identity(self):
        p0 = HeisPoint((0.2j, 1.0), 0.4)
        assert orbit_point(D2_PARAMS, 0, 0, p0).approx_equal(p0)

    def test_orbit_of_origin_matches_witness(self):
        # b1 = 0: (m a, 0, -2 n b2 Im(center)); nonzero for (m,n) != 0
        c = orbit_center(D2_PARAMS)
        got = orbit_point(D2_PARAMS, 3, 5, HeisPoint.origin(2))
        assert got.z[0] == pytest.approx(3 * math.sqrt(2))
        assert got.z[1] == pytest.approx(0)
        assert got.t == pytest.approx(-2 * 5 * (-2.0) * c.imag)

    @pytest.mark.parametrize("params", [D2_PARAMS, D7_PARAMS])
    def test_closed_form_matches_matrices(self, params):
        p0 = HeisPoint((0.3 + 0.4j, 0.2 - 0.1j), 0.5)
        for m in (-7, -1, 0, 2, 6):
            for n in (-6, -2, 0, 1, 5):
                a = orbit_point(params, m, n, p0)
                b = orbit_point_via_matrices(params, m, n, p0)
                assert a.approx_equal(b, tol=1e-9)

    def test_shift_roundtrip(self):
        p = HeisPoint((0.1, 0.2 - 0.3j), 0.9)
        back = unshift_point(shift_point(p, D2_PARAMS), D2_PARAMS)
        assert back.approx_equal(p, tol=1e-12)

    def test_undeformed_parameter_rejected(self):
        params = CuspParams(Surd(1, 2), Surd(0), Surd(-1, 4), Angle.zero())
        with pytest.raises(GeometryError):
            orbit_point(params, 1, 1, HeisPoint.origin(2))

    def test_faithfulness_witness_exhaustive(self):
        # T^m U^n fixes the origin only at m = n = 0 (|m|,|n| <= 30)
        origin = HeisPoint.origin(2)
        for m in range(-30, 31):
            for n in range(-30, 31):
                if m == 0 and n == 0:
                    continue
                got = orbit_point(D2_PARAMS, m, n, origin)
                dist = box_distance(got, origin)
                assert dist > 1e-9, (m, n)


class TestGapProbe:
    def test_undeformed_lattice_gap(self):
        params = CuspParams(Surd(1, 2), Surd(0), Surd(-1, 4),
                            Angle.pi_fraction(1, 3))
        gT = cusp_translation_T(params)
        gU = cusp_translation_U(params)  # undeformed generators
        gap = orbit_gap_probe(gT, gU, HeisPoint.origin(2), 8)
        assert gap == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_deformed_orthogonal_cusp_keeps_gap(self):
        gT = cusp_translation_T(D2_PARAMS)
        gU = bent_cusp_U(D2_PARAMS)
        gaps = [orbit_gap_probe(gT, gU, HeisPoint.origin(2), R) for R in (10, 20)]
        assert all(g > 0.1 for g in gaps)
        assert gaps[1] >= gaps[0] * 0.999  # bounded below, not shrinking

    def test_nonorthogonal_so41_cusp_gap_shrinks(self):
        from cuspdeform.bending import bianchi_family
        fam = bianchi_family(7, "so41", theta=Angle.radians(1.0))
        gT = np.asarray(fam.images["t"], dtype=complex)
        gU = np.asarray(fam.images["u"], dtype=complex)
        gaps = [orbit_gap_probe(gT, gU, HeisPoint.origin(3), R)
                for R in (10, 20, 40)]
        assert gaps[2] < gaps[0]
        assert gaps[2] < 0.05

    def test_radius_cap(self):
        with pytest.raises(GeometryError):
            orbit_points(np.eye(4), np.eye(4), HeisPoint.origin(2), 51)


class TestClosestPair:
    """Both probes' sort-and-sweep kernel against all pairs."""

    @pytest.mark.parametrize("k", [2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_orbit_gap_matches_all_pairs(self, k, data):
        if k == 2:  # complex hyperbolic: (z1, z2, t)
            rows = data.draw(tied_clouds(5))
            pts = [HeisPoint((complex(a, b), complex(c, d)), t)
                   for a, b, c, d, t in rows]
        else:       # real hyperbolic: real Z, t = 0
            rows = data.draw(tied_clouds(3))
            pts = [HeisPoint(r, 0.0) for r in rows]
        dup_tol = data.draw(st.sampled_from([0.0, 1e-9, 0.25]))
        got = orbit_gap([(0, 0, p) for p in pts], dup_tol)
        assert type(got) is float
        assert same_gap(got, brute_min(pts, box_distance, dup_tol))

    @settings(max_examples=60, deadline=None)
    @given(tied_clouds(2))
    def test_rs1_gap_matches_all_pairs(self, rows):
        x, ang = np.array(rows).T

        def box(p, q):
            arc = abs(math.remainder(p[1] - q[1], 2 * math.pi))
            return max(abs(p[0] - q[0]), arc)
        got = _rs1_gap(x, ang)
        assert type(got) is float
        assert same_gap(got, brute_min(rows, box, 0.0))


class TestRS1:
    def test_trichotomy_cases(self):
        T = RS1Element(Surd(1), Angle.zero())
        assert rs1_classify(T, RS1Element(Surd(1, 2), Angle.zero())) \
            == RS1Class.NONDISCRETE_Z2
        assert rs1_classify(T, RS1Element(Surd(1), Angle.pi_fraction(1, 2))) \
            == RS1Class.DISCRETE_NON_Z2
        assert rs1_classify(T, RS1Element(Surd(1), Angle.radians(1.0))) \
            == RS1Class.NONDISCRETE_Z2_RATIONAL

    def test_requires_exact_translation(self):
        with pytest.raises(TypeError):
            RS1Element(1.4142, Angle.zero())  # type: ignore[arg-type]

    def test_zero_translation_rejected(self):
        with pytest.raises(GeometryError):
            RS1Element(Surd(0), Angle.zero())

    def test_probe_agrees_on_three_cases(self):
        T = RS1Element(Surd(1), Angle.zero())
        eps = 1e-2
        gaps = [rs1_probe(T, RS1Element(Surd(1, 2), Angle.radians(0.7)), 10000),
                rs1_probe(T, RS1Element(Surd(1), Angle.pi_fraction(1, 2)), 10000),
                rs1_probe(T, RS1Element(Surd(1), Angle.radians(1.0)), 10000)]
        assert gaps[0] < eps
        assert gaps[1] >= eps
        assert gaps[2] < eps
        assert all(type(gap) is float for gap in gaps)


class TestCsv:
    def test_header_and_gap_comment(self):
        gT = cusp_translation_T(D2_PARAMS)
        gU = bent_cusp_U(D2_PARAMS)
        pts = orbit_points(gT, gU, HeisPoint.origin(2), 2)
        buf = io.StringIO()
        write_orbit_csv(buf, pts, gap=0.25)
        lines = buf.getvalue().split("\r\n")
        assert lines[0] == "m,n,re_z1,im_z1,re_z2,im_z2,v"
        assert lines[-2] == "# gap: 0.25"
        assert len(pts) == 25

    def test_so41_packing(self):
        from cuspdeform.heisenberg import pack_csv_coords
        vals = pack_csv_coords(HeisPoint((1.0, 2.0, 3.0), 0.0))
        assert vals == (1.0, 0.0, 2.0, 3.0, 0.0)
