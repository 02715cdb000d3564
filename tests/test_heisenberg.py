import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cuspdeform.heisenberg import (CuspParams, GeometryError, HeisPoint,
                                   RS1Class, RS1Element, bent_cusp_U,
                                   boundary_action, box_distance,
                                   cusp_translation_T, cusp_translation_U,
                                   dilation_matrix, heis_mul, orbit_center,
                                   orbit_gap, orbit_gap_probe, orbit_point,
                                   orbit_point_via_matrices, orbit_points,
                                   rotation_matrix, rs1_classify, rs1_probe,
                                   shift_point, standard_lift,
                                   translation_matrix, unshift_point,
                                   write_orbit_csv)
from cuspdeform.heisenberg import _rs1_gap
from cuspdeform.bending import bianchi_family, cusp_surds
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


def rs1_reference(T, U, n_elements):
    """rs1_probe with its Fraction-keyed dedupe, one element at a time."""
    def key(m, n):
        a, b = T.translation, U.translation
        if a.k == b.k:
            trans = ((m * a.q + n * b.q, a.k),)
        else:
            trans = ((m * a.q, a.k), (n * b.q, b.k))
        th = U.angle
        return trans, ((th.pi_frac * n) % 2 if th.pi_frac is not None else ("raw", n))
    a, b, theta = T.translation.value, U.translation.value, U.angle.value
    pts = {}
    for n in range(n_elements):
        m = -round(n * b / a)
        pts.setdefault(key(m, n), (m * a + n * b,
                                   math.remainder(n * theta, 2 * math.pi)))
    x, ang = np.array(list(pts.values())).reshape(-1, 2).T
    return _rs1_gap(x, ang)


@st.composite
def rs1_generators(draw):
    """(T, U) in the three trichotomy cases.  Numerators reach 2^62 and
    multiples of 2^64: integer keys in int64 would wrap, and collide."""
    size = (st.integers(1, 12) | st.integers(2 ** 40, 2 ** 62)
            | st.integers(1, 12).map(lambda k: k << 64))
    case = draw(st.sampled_from(["irrational", "pi-rational", "raw"]))
    radicands = [1, 2, 3, 5]
    qa = Fraction(draw(size), draw(size)) * draw(st.sampled_from([1, -1]))
    ka = draw(st.sampled_from(radicands))
    if case == "irrational":
        kb = draw(st.sampled_from([k for k in radicands if k != ka]))
        qb = Fraction(draw(size), draw(size))
    else:
        kb = ka
        qb = qa * Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6)))
    if case == "raw":
        theta = Angle.radians(draw(st.floats(-3.1, 3.1).filter(lambda x: x != 0)))
    else:
        theta = Angle.pi_times(Fraction(draw(st.integers(-24, 24)),
                                        draw(st.integers(1, 12))))
    return RS1Element(Surd(qa, ka), Angle.zero()), RS1Element(Surd(qb, kb), theta)


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

    @settings(max_examples=150, deadline=None)
    @given(gens=rs1_generators(), n_elements=st.integers(0, 600))
    @example(gens=(RS1Element(Surd(1 << 64), Angle.zero()),  # A, B = 0 mod 2^64
                   RS1Element(Surd(Fraction(3 << 64, 7)), Angle.pi_fraction(1, 3))),
             n_elements=300)
    @example(gens=(RS1Element(Surd(Fraction(5 << 64, 3), 2), Angle.zero()),
                   RS1Element(Surd(Fraction(2 << 64, 3), 2), Angle.pi_fraction(1, 4))),
             n_elements=300)
    def test_probe_matches_fraction_keyed_reference(self, gens, n_elements):
        T, U = gens
        got = rs1_probe(T, U, n_elements)
        assert type(got) is float
        assert got.hex() == rs1_reference(T, U, n_elements).hex()

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


def act_one(g, p, tol=1e-10):
    """boundary_action one point at a time: the matrix-vector product and
    the three checks on Python scalars."""
    v = g @ standard_lift(p)
    col = g[:, 0]
    if np.abs(col[1:]).max() > tol * max(np.abs(col).max(), 1.0):
        raise GeometryError("matrix does not fix the point at infinity")
    if abs(v[-1]) < 1e-14:
        raise GeometryError("image escaped the Heisenberg chart")
    v = v / v[-1]
    z = tuple(v[1:-1])
    zz = sum(abs(w) ** 2 for w in z)
    if abs(v[0].real + zz / 2) > tol * max(1.0, zz):
        raise GeometryError("image is not a boundary point (height drifted)")
    return HeisPoint(z, 2.0 * v[0].imag)


def orbit_reference(gT, gU, p0, radius):
    """orbit_points as one act_one call per point."""
    gT_inv, gU_inv = np.linalg.inv(gT), np.linalg.inv(gU)
    un = {0: p0}
    for n in range(1, radius + 1):
        un[n] = act_one(gU, un[n - 1])
        un[-n] = act_one(gU_inv, un[-(n - 1)])
    span = range(-radius, radius + 1)
    return [(m, n, act_one(np.linalg.matrix_power(gT if m >= 0 else gT_inv, abs(m)),
                           un[n]))
            for m in span for n in span]


def orbit_arrays(pts):
    """The (m, n) words, Z and t of an orbit, as arrays."""
    return (np.array([(m, n) for m, n, _ in pts]).reshape(-1, 2),
            np.array([p.z for _, _, p in pts], dtype=complex),
            np.array([p.t for _, _, p in pts]))


@st.composite
def orbit_angles(draw):
    kind = draw(st.sampled_from(["raw", "pi", "near-zero"]))
    if kind == "pi":
        return Angle.pi_times(Fraction(draw(st.integers(-24, 24)),
                                       draw(st.integers(1, 12))))
    if kind == "near-zero":
        return Angle.radians(draw(st.sampled_from([-1, 1]))
                             * 10.0 ** draw(st.integers(-13, -3)))
    return Angle.radians(draw(st.floats(-3.1, 3.1).filter(lambda x: x != 0)))


class TestBatchedOrbit:
    """orbit_points (one matrix product per T^m) against one boundary
    action per point, compared bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(target=st.sampled_from(["su31", "so41"]),
           d=st.sampled_from([2, 5, 6, 7, 11, 15, 19]),
           angle=orbit_angles(), radius=st.integers(0, 12))
    def test_matches_per_point_actions(self, target, d, angle, radius):
        if target == "su31":
            params = CuspParams(*cusp_surds(d), angle)
            gT, gU = cusp_translation_T(params), bent_cusp_U(params)
            p0 = HeisPoint.origin(2)
        else:
            fam = bianchi_family(d, "so41", theta=angle)
            gT = np.asarray(fam.images["t"], dtype=complex)
            gU = np.asarray(fam.images["u"], dtype=complex)
            p0 = HeisPoint.origin(3)
        got = orbit_points(gT, gU, p0, radius)
        want = orbit_reference(gT, gU, p0, radius)
        for a, b in zip(orbit_arrays(got), orbit_arrays(want)):
            assert a.shape == b.shape and np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()  # signed zeros too
        for _, _, p in got:
            assert type(p.t) is float and all(type(w) is complex for w in p.z)

    def test_single_point_action_unchanged(self):
        g = bent_cusp_U(D7_PARAMS)
        p = HeisPoint((0.3 + 0.4j, 0.2 - 0.1j), 0.5)
        for _ in range(20):
            q = boundary_action(g, p)
            assert q == act_one(g, p)
            p = q

    @pytest.mark.parametrize("gT, message", [
        (np.array([[0, 0, 0, -1], [0, -1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0]]),
         "does not fix the point at infinity"),
        (np.diag([2.0, 1.0, 1.0, 1.0]), "height drifted"),
        (np.eye(4)[[0, 1, 3, 2]], "escaped the Heisenberg chart"),
    ])
    def test_checks_still_raise(self, gT, message):
        # U translates along z1: every U^n p0 has z2 = 0, so every image
        # under the swap of the last two coordinates escapes, and every
        # one with n != 0 (Z != 0) drifts under the first-coordinate scaling
        gU = cusp_translation_T(D2_PARAMS)
        with pytest.raises(GeometryError, match=message):
            orbit_points(gT.astype(complex), gU, HeisPoint.origin(2), 3)
        with pytest.raises(GeometryError, match=message):
            orbit_reference(gT.astype(complex), gU, HeisPoint.origin(2), 3)

    @pytest.mark.parametrize("radius, message", [
        (6, "height drifted"),
        (5, "does not fix the point at infinity"),
        (2, "height drifted"),
    ])
    def test_first_failing_power_decides(self, radius, message):
        # T swaps infinity with the origin (up to sign) and acts on Z by
        # W = [[i, 1-i], [0, 1]], a non-unitary matrix of order 4: T^m does
        # not fix infinity for odd m, drifts the height for m = 2 mod 4
        # and is the identity for m = 0 mod 4.  The first failing m (-radius)
        # decides the message, even where a later m fails an earlier check.
        gT = np.zeros((4, 4), dtype=complex)
        gT[0, 3], gT[3, 0] = -1, 1
        gT[1:3, 1:3] = [[1j, 1 - 1j], [0, 1]]
        gU = cusp_translation_U(D7_PARAMS)  # U^n p0 has z1, z2 != 0 for n != 0
        assert np.allclose(np.linalg.matrix_power(gT, 4), np.eye(4))
        with pytest.raises(GeometryError, match=message):
            orbit_points(gT, gU, HeisPoint.origin(2), radius)
        with pytest.raises(GeometryError, match=message):
            orbit_reference(gT, gU, HeisPoint.origin(2), radius)

    def test_rows_read_like_a_list(self):
        pts = orbit_points(cusp_translation_T(D2_PARAMS), bent_cusp_U(D2_PARAMS),
                           HeisPoint.origin(2), 3)
        rows = list(pts)
        assert len(pts) == len(rows) == 49
        assert [pts[i] for i in range(-49, 49)] == rows + rows
        assert pts[3:40:5] == rows[3:40:5] and pts[::-1] == rows[::-1]
        assert [(m, n) for m, n, _ in rows] == list(itertools.product(range(-3, 4), repeat=2))
        with pytest.raises(IndexError):
            pts[49]


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

    @pytest.mark.parametrize("z, t", [((1.0, 2.0 + 1e-300j, 3.0), 0.0),
                                      ((1.0j, 2.0, 3.0), 0.0),
                                      ((1.0, 2.0, 3.0), 0.5)])
    def test_so41_packing_refuses_complex_points(self, z, t):
        from cuspdeform.heisenberg import pack_csv_coords
        p = HeisPoint(z, t)
        with pytest.raises(GeometryError, match="needs real Z and t = 0"):
            pack_csv_coords(p)
        with pytest.raises(GeometryError, match="needs real Z and t = 0"):
            write_orbit_csv(io.StringIO(), [(0, 0, HeisPoint.origin(3)), (0, 1, p)])

    @pytest.mark.parametrize("target", ["su31", "so41"])
    def test_row_list_input_matches_columns(self, target):
        if target == "su31":
            gT, gU = cusp_translation_T(D2_PARAMS), bent_cusp_U(D2_PARAMS)
            p0 = HeisPoint.origin(2)
        else:
            fam = bianchi_family(7, "so41", theta=Angle.radians(1.0))
            gT = np.asarray(fam.images["t"], dtype=complex)
            gU = np.asarray(fam.images["u"], dtype=complex)
            p0 = HeisPoint.origin(3)
        pts = orbit_points(gT, gU, p0, 6)
        rows = list(pts)
        gap = orbit_gap(pts)
        assert orbit_gap(rows).hex() == gap.hex()
        dumps = []
        for given in (pts, rows, iter(rows)):
            buf = io.StringIO()
            write_orbit_csv(buf, given, gap=gap)
            dumps.append(buf.getvalue())
        assert dumps[1] == dumps[0] and dumps[2] == dumps[0]
        from cuspdeform.heisenberg import pack_csv_coords
        per_row = "".join("%s,%s,%r,%r,%r,%r,%r\r\n" % ((m, n) + pack_csv_coords(p))
                          for m, n, p in rows)
        assert dumps[0].split("\r\n", 1)[1].startswith(per_row)

    def test_empty_rows(self):
        buf = io.StringIO()
        write_orbit_csv(buf, [])
        assert buf.getvalue() == "m,n,re_z1,im_z1,re_z2,im_z2,v\r\n"
        assert orbit_gap([]) == math.inf
