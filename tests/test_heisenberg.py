import io
import itertools
import math
import warnings
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
from cuspdeform import heisenberg
from cuspdeform.heisenberg import _rs1_gap, pack_csv_coords
from cuspdeform.bending import bianchi_family, cusp_surds
from cuspdeform.scalars import Angle, Surd
from cuspdeform.tolerances import DUP_TOL

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


@st.composite
def t_only_clouds(draw):
    """2-40 rows (z1, z2, t) with one Z for all and distinct t: only the
    vertical coordinate tells the points apart."""
    z = (draw(complexes), draw(complexes))
    ts = draw(st.lists(st.floats(-3, 3), min_size=2, max_size=40, unique=True))
    return [HeisPoint(z, t) for t in ts]


@st.composite
def on_bound_clouds(draw, k):
    """Clouds whose gap g sits exactly on the bound of one column, met
    after a pair one ulp farther apart has set the best distance.

    Every coordinate is dyadic, so each distance is exact.  The sort
    column (re z1, the key with the most distinct values) holds 0 and
    next(g), a pair at distance next(g) one place apart; then, at 40,
    three rows one place apart in sort order: the outer two differ by g
    in one other key column (|dkey| = g) or, for k = 2, by g^2 in t
    (|dt| = g^2), the middle one is far from both.  Filler rows, 100
    apart far out along the sort column, end the cloud: every distance
    that can be the gap is that of one coordinate, which box_distance and
    the numpy metric round alike."""
    g = draw(st.integers(2 ** 19, 2 ** 20 - 1)) / 2 ** draw(st.integers(16, 22))
    shift = draw(st.integers(-8, 8)) / 4
    where = draw(st.sampled_from(["t", "key"] if k == 2 else ["key"]))
    col = draw(st.integers(1, 2 * k - 1 if k == 2 else k - 1))

    def row(x, dkey=0.0, t=0.0):
        r = [x, 0.0, 0.0, 0.0] if k == 2 else [x, 0.0, 0.0]
        r[col] += dkey
        if k == 2:
            return HeisPoint((complex(r[0], r[2]), complex(r[1], r[3])), t + shift)
        return HeisPoint(r, 0.0)
    lo, hi = (row(40.0), row(40.0, dkey=g)) if where == "key" else \
        (row(40.0), row(40.0, t=g * g))
    far = row(40.0, dkey=1000.0) if k == 3 or where == "key" else row(40.0, t=1000.0)
    filler = [row(1e4 + 100.0 * i, dkey=v) for i, v in
              enumerate(draw(st.lists(st.floats(-3, 3), max_size=10)))]
    return [row(0.0), row(math.nextafter(g, math.inf)), lo, far, hi] + filler


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
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_orbit_gap_matches_all_pairs(self, k, data):
        """Tied clouds, clouds that only t tells apart (k = 2; t is 0 for
        k = 3), and clouds whose gap sits exactly on a column bound; the
        last are dyadic, so their gap must come out exactly."""
        cloud = data.draw(st.sampled_from(["tied", "t-only", "on-bound"] if k == 2
                                          else ["tied", "on-bound"]))
        if cloud == "t-only":
            pts = data.draw(t_only_clouds())
        elif cloud == "on-bound":
            pts = data.draw(on_bound_clouds(k))
        elif k == 2:  # complex hyperbolic: (z1, z2, t)
            rows = data.draw(tied_clouds(5))
            pts = [HeisPoint((complex(a, b), complex(c, d)), t)
                   for a, b, c, d, t in rows]
        else:       # real hyperbolic: real Z, t = 0
            rows = data.draw(tied_clouds(3))
            pts = [HeisPoint(r, 0.0) for r in rows]
        dup_tol = data.draw(st.sampled_from([0.0, 1e-9, 0.25]))
        got = orbit_gap([(0, 0, p) for p in pts], dup_tol)
        want = brute_min(pts, box_distance, dup_tol)
        assert type(got) is float
        assert got == want if cloud == "on-bound" else same_gap(got, want)

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

    # A Z gap of 1.025e-160 squares to a subnormal rounded down, so the
    # distance computed for it falls below the key gap by about 1e-4.
    SUBNORMAL_SQUARE_GAP = 1.0249999999999998e-160

    @staticmethod
    def measured_pairs(rows, dup_tol, monkeypatch):
        """orbit_gap of the (m, n, point) rows, and the pairs (i, j) of
        row indices that its sweep passed to dist."""
        seen = set()
        closest_pair = heisenberg._closest_pair

        def spy(keys, cols, dist, dup_tol, key_reach, bounds):
            def counted(p, q):
                seen.update(zip(p[-1].astype(int).tolist(), q[-1].astype(int).tolist()))
                return dist(p[:-1], q[:-1])
            return closest_pair(keys, [*cols, np.arange(len(keys), dtype=float)], counted,
                                dup_tol, key_reach, bounds)
        monkeypatch.setattr(heisenberg, "_closest_pair", spy)
        return orbit_gap(rows, dup_tol), seen

    def test_orbit_sweep_measures_a_pair_whose_square_is_subnormal(self, monkeypatch):
        """With dup_tol = 0, the minimum pair (rows 0 and 2) is 1.025e-160
        apart in Re z1, the sort column, and 5e-324 in t; its distance is
        computed about 1e-4 below that key gap.  A pair with the same
        distance (rows 3 and 4, tied in Re z1) sets the best distance at
        offset 1, and row 1 (far in Im z2) puts the minimum pair at offset
        2, where only the absolute term of the reach keeps it near."""
        x = self.SUBNORMAL_SQUARE_GAP
        rows = [(0, 0, HeisPoint(z, t)) for z, t in [
            ((0, 0), 0.0), ((x / 2, 1j), 0.0), ((x, 0), 5e-324),
            ((1.0, 0), 0.0), ((1.0, x), 0.0)]]
        gap, seen = self.measured_pairs(rows, 0.0, monkeypatch)
        assert gap < x * (1 - 1e-5)
        assert gap == orbit_gap(rows[:1] + rows[2:3], 0.0) == orbit_gap(rows[3:], 0.0)
        assert {(0, 1), (1, 2), (2, 3), (3, 4)} <= seen
        assert (0, 2) in seen

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e-150, 1e-150) | st.floats(-4, 4), min_size=4, max_size=4),
           st.floats(0, 1e-300))
    @example([SUBNORMAL_SQUARE_GAP, 0.0, 0.0, 0.0], 5e-324)
    def test_orbit_reach_bounds_every_key_gap(self, parts, dt):
        """Each key gap (Re or Im of a Z coordinate) of a pair is at most
        _orbit_reach of the distance that orbit_gap computes for it, also
        where that distance is below the gap: a square that is subnormal."""
        z = (complex(parts[0], parts[1]), complex(parts[2], parts[3]))
        p, q = HeisPoint((0, 0), 0.0), HeisPoint(z, dt)
        d = orbit_gap([(0, 0, p), (0, 0, q)], 0.0)
        assert max(map(abs, parts)) <= heisenberg._orbit_reach(d)


def cusp_generators(target, d, angle):
    """(gT, gU, p0) of the orbit command for a Bianchi cusp."""
    if target == "su31":
        params = CuspParams(*cusp_surds(d), angle)
        return cusp_translation_T(params), bent_cusp_U(params), HeisPoint.origin(2)
    fam = bianchi_family(d, "so41", theta=angle)
    return (np.asarray(fam.images["t"], dtype=complex),
            np.asarray(fam.images["u"], dtype=complex), HeisPoint.origin(3))


class TestGapOracle:
    """Both gap probes against the gather sweep of conftest, bit for bit."""

    @pytest.mark.parametrize("d, target, angle", [
        (7, "su31", Angle.radians(0.7)), (2, "su31", Angle.pi_fraction(1, 3)),
        (7, "so41", Angle.radians(1.0)), (5, "so41", Angle.pi_fraction(1, 3))])
    def test_radius_50_orbits(self, d, target, angle, gather_orbit_gap):
        pts = orbit_points(*cusp_generators(target, d, angle), 50)
        assert orbit_gap(pts).hex() == gather_orbit_gap(pts.Z, pts.t, DUP_TOL).hex()

    @pytest.mark.parametrize("U", [RS1Element(Surd(1, 2), Angle.radians(0.7)),
                                   RS1Element(Surd(1), Angle.pi_fraction(1, 2)),
                                   RS1Element(Surd(1), Angle.radians(1.0))])
    def test_rs1_probe_at_10_4(self, U, gather_rs1_gap, monkeypatch):
        seen = []

        def spy(x, ang):
            seen.append((x, ang))
            return _rs1_gap(x, ang)
        monkeypatch.setattr(heisenberg, "_rs1_gap", spy)
        gap = rs1_probe(RS1Element(Surd(1), Angle.zero()), U, 10000)
        (x, ang), = seen
        assert gap.hex() == gather_rs1_gap(x, ang).hex()

    @staticmethod
    def all_pairs_rs1_gap(x, ang):
        """The minimum positive box distance over every pair, each with the
        bits of the kernel's elementwise metric."""
        i, j = np.triu_indices(len(x), 1)
        d = np.fmod(np.abs(ang[i] - ang[j]), 2 * math.pi)
        d = np.maximum(np.abs(x[i] - x[j]), np.minimum(d, 2 * math.pi - d))
        d = d[d > 0]
        return float(d.min()) if d.size else math.inf

    def test_rs1_gap_where_the_sort_column_overshoots_the_arc(self):
        # near the quarter turn, cos is the sort column, and the rounded
        # cos gap of the pair (a, b) exceeds its computed arc; a pair
        # (c, c) at x distance between the two is found first, one offset
        # nearer, and the pair (a, b) is two offsets apart, with a far
        # point between them
        a = float.fromhex("0x1.921fb5643b7bbp+0")
        b = float.fromhex("0x1.921fb5645aa27p+0")
        arc, gap = b - a, abs(math.cos(a) - math.cos(b))
        c = math.pi / 2 - 1e-3
        x = np.array([0.0, 0.0, 1.0, 0.0, (arc + gap) / 2])
        ang = np.array([a, b, (a + b) / 2, c, c])
        assert arc < x[-1] < gap
        assert _rs1_gap(x, ang) == self.all_pairs_rs1_gap(x, ang) == arc

    @given(st.integers(0, 2 ** 32), st.sampled_from([1, -1]), st.floats(-12, -4),
           st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_rs1_gap_near_quarter_turns_is_the_all_pairs_minimum(self, seed, side, scale,
                                                                 xs):
        # angles within 10^scale of a quarter turn, where cos or sin is the
        # sort column, and a few x values, many of them tied
        r = np.random.default_rng(seed)
        ang = side * math.pi / 2 + 10.0 ** scale * r.standard_normal(80)
        x = r.integers(0, xs, 80) * 10.0 ** (scale + r.integers(-1, 2))
        got = _rs1_gap(x, ang)
        assert got.hex() == self.all_pairs_rs1_gap(x, ang).hex()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("cloud", ["tied", "untied", "clustered"])
    def test_clouds_take_both_paths(self, k, cloud, gather_orbit_gap, monkeypatch):
        """The bounds run on contiguous slices of the stacked columns at
        the offsets where at least a quarter of the pairs are near in the
        sort column, and on the gathered candidates at the others; dist
        sees only the pairs that pass them, on slices where every pair
        does.  The spy records what the kernel did: each 2-D abs, which
        only the stacked pass takes, tells its offset by its width, and
        each row carries its index, so that a dist call tells its offset,
        and whether it ran on slices (views) or gathers.  The test replays
        the sweep, with the key reach that orbit_gap passes: at every
        offset, dist saw no pair outside a bound of the best distance so
        far and missed no pair within that distance.  A tied cloud (every
        key column takes four values, and some rows are duplicates) and an
        untied one take both passes at more than one offset each; a
        clustered one (30 close rows, the rest far apart along the sort
        column) finds its gap on gathered candidates, past the first
        offset."""
        rng = np.random.default_rng(k)
        size = 1200
        if cloud == "tied":
            Z = rng.integers(0, 4, (size, k)) + 1j * rng.integers(0, 4, (size, k))
        else:
            Z = rng.normal(size=(size, k)) + 1j * rng.normal(size=(size, k))
        t = rng.normal(size=size)
        if cloud == "tied":
            Z[:20], t[:20] = Z[20:40], t[20:40]
        if cloud == "clustered":
            Z *= 1e-3
            t *= 1e-6
            Z[30:, 0] += 10.0 * np.arange(1, size - 29)
        calls = {}  # offset -> (rows i, rows j, distances, on slices) of its dist call
        stacked = set()  # the offsets of the stacked bound pass
        key_reaches = []  # the key reach that orbit_gap passes
        closest_pair = heisenberg._closest_pair

        class NumpySpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def abs(self, x):
                if x.ndim == 2:
                    stacked.add(size - x.shape[1])
                return np.abs(x)

        def spy(keys, cols, dist, dup_tol, key_reach, bounds):
            key_reaches.append(key_reach)
            def counted(p, q):
                d = dist(p[:-1], q[:-1])
                i, j = p[-1].astype(int), q[-1].astype(int)
                offset, = set((pos[j] - pos[i]).tolist())
                assert offset not in calls
                calls[offset] = i, j, d, p[-1].base is not None
                return d
            monkeypatch.setattr(heisenberg, "np", NumpySpy())
            try:
                return closest_pair(keys, [*cols, np.arange(len(keys), dtype=float)],
                                    counted, dup_tol, key_reach, bounds)
            finally:
                monkeypatch.setattr(heisenberg, "np", np)
        keys = np.column_stack([Z.real, Z.imag])
        col = max(range(2 * k), key=lambda c: np.unique(keys[:, c]).size)
        order = np.argsort(keys[:, col], kind="stable")
        pos = np.argsort(order)
        monkeypatch.setattr(heisenberg, "_closest_pair", spy)
        rows = [(0, 0, HeisPoint(z, v)) for z, v in zip(Z.tolist(), t.tolist())]
        gap = orbit_gap(rows)
        assert gap.hex() == gather_orbit_gap(Z, t, DUP_TOL).hex()

        def box(i, j):  # the metric of orbit_gap
            dz2 = sum(np.abs(Z[i, c] - Z[j, c]) ** 2 for c in range(k))
            return np.maximum(np.sqrt(dz2), np.sqrt(np.abs(t[i] - t[j])))
        s = keys[order, col]
        key_reach, = key_reaches
        best, near_count = math.inf, {}
        for offset in range(1, size):
            near = np.flatnonzero(s[offset:] - s[:-offset] <= key_reach(best))
            if not near.size:
                break
            near_count[offset] = near.size
            i, j = order[near], order[near + offset]
            within = box(i, j) <= best
            seen_i, seen_j, d, _ = calls.get(offset, (i[:0], j[:0], np.empty(0), False))
            assert set(zip(i[within].tolist(), j[within].tolist())) \
                <= set(zip(seen_i.tolist(), seen_j.tolist()))
            reach = best * (1 + 2.0 ** -40) + 2.0 ** -40
            assert (np.abs(keys[seen_j] - keys[seen_i]) <= reach).all()
            assert (np.sqrt(np.abs(t[seen_j] - t[seen_i])) <= reach).all()
            d = d[d > DUP_TOL]
            if d.size:
                best = min(best, float(d.min()))
        assert set(calls) <= set(near_count) and best == gap
        assert stacked == {o for o, n in near_count.items() if 4 * n >= size - o}
        assert all(on_slices == (len(i) == size - o)
                   for o, (i, _, _, on_slices) in calls.items())
        assert calls[1][3]  # no bound is known at the first offset
        if cloud == "clustered":
            found = min(o for o, (_, _, d, _) in calls.items() if (d == gap).any())
            assert found > 1 and found not in stacked
        else:
            assert 1 < len(stacked) < len(near_count) - 1

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

    @staticmethod
    def half_turn_gens(A, q):
        """T = (A, 0) and U = (A // 2 + 1, pi/q): elements coincide, and the
        translations m A + n B of the closest returns reach about A/2."""
        return (RS1Element(Surd(A), Angle.zero()),
                RS1Element(Surd(A // 2 + 1), Angle.pi_fraction(1, q)))

    @staticmethod
    def largest_key(T, U, n_elements):
        """The largest |(m A + n B) 2q + (p n mod 2q)| over the elements,
        in Python ints (T, U of integral translations)."""
        A, B = T.translation.q.numerator, U.translation.q.numerator
        a, b = T.translation.value, U.translation.value
        p, q = U.angle.pi_frac.numerator, U.angle.pi_frac.denominator
        return max((abs((-round(n * b / a) * A + n * B) * 2 * q + p * n % (2 * q))
                    for n in range(n_elements)), default=0)

    @pytest.mark.parametrize("case", [
        "translations of 2^64", "translations of 2^64, no elements", "no elements",
        "bound just below 2^63", "bound just above 2^63",
        "keys just below 2^63", "keys just above 2^63", "A = 2^63 - 1, keys above 2^63"])
    def test_dedupe_on_both_sides_of_the_int64_bound(self, case):
        """The integer keys of the dedupe are int64 only where a bound on
        every value that forms them is below 2^63, and exact Python ints
        otherwise.  The bound cases (7 elements, pi/3) sit 26 below and 40
        above 2^63; the key cases (300 elements, a half turn) reach keys
        3501 below, 299 above and 297 above 2^63."""
        two64 = Fraction(1 << 64)
        T, U, n_elements = {
            "translations of 2^64": (RS1Element(Surd(two64 / 5), Angle.zero()),
                                     RS1Element(Surd(two64 * 3 / 10), Angle.pi_fraction(1, 2)),
                                     500),
            "translations of 2^64, no elements": (RS1Element(Surd(two64 / 5), Angle.zero()),
                                                  RS1Element(Surd(two64), Angle.pi_fraction(1, 2)),
                                                  0),
            "no elements": (RS1Element(Surd(1), Angle.zero()),
                            RS1Element(Surd(Fraction(1, 2)), Angle.pi_fraction(1, 2)), 0),
            "bound just below 2^63": (*self.half_turn_gens(204963823041217239, 3), 7),
            "bound just above 2^63": (*self.half_turn_gens(204963823041217240, 3), 7),
            "keys just below 2^63": (*self.half_turn_gens(2 ** 63 - 4096, 1), 300),
            "keys just above 2^63": (*self.half_turn_gens(2 ** 63 + 1, 1), 300),
            "A = 2^63 - 1, keys above 2^63": (*self.half_turn_gens(2 ** 63 - 1, 1), 300),
        }[case]
        if "keys" in case:
            assert (self.largest_key(T, U, n_elements) < 2 ** 63) == ("below" in case)
        assert rs1_probe(T, U, n_elements).hex() == rs1_reference(T, U, n_elements).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
    @example([5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e300, -1e300])
    def test_array_remainder_is_math_remainder(self, vs):
        y = 2 * math.pi
        got = heisenberg._remainder(np.array(vs), y).tolist()
        assert [g.hex() for g in got] == [math.remainder(v, y).hex() for v in vs]

    def test_array_remainder_at_zeros_multiples_and_ties(self):
        """Signed zeros, exact multiples of 2 pi, and exact half-multiples
        (ties, which round the quotient to even) of both parities."""
        y = 2 * math.pi
        multiples = [v for v in (k * y * 2.0 ** e for k in range(-7, 8) for e in range(60))
                     if (Fraction(v) / Fraction(y)).denominator == 1]
        ties = [(k, v) for k, v in ((k, (2 * k + 1) * y / 2) for k in range(-8, 8))
                if Fraction(v) / Fraction(y) == Fraction(2 * k + 1, 2)]
        assert len(multiples) > 500 and {k % 2 for k, _ in ties} == {0, 1}
        vs = [0.0, -0.0, *multiples, *(v for _, v in ties)]
        got = heisenberg._remainder(np.array(vs), y).tolist()
        assert [g.hex() for g in got] == [math.remainder(v, y).hex() for v in vs]

    @pytest.mark.parametrize("v", [math.inf, -math.inf])
    def test_array_remainder_raises_where_math_remainder_does(self, v):
        """An infinite entry raises ValueError, as math.remainder does (a
        nan passes through as nan); so does rs1_probe where n * theta
        overflows a raw angle."""
        y = 2 * math.pi
        with pytest.raises(ValueError):
            math.remainder(v, y)
        with pytest.raises(ValueError):
            heisenberg._remainder(np.array([1.0, v, 2.0]), y)
        assert math.isnan(heisenberg._remainder(np.array([math.nan]), y)[0])
        assert math.isnan(math.remainder(math.nan, y))
        T = RS1Element(Surd(1), Angle.zero())
        U = RS1Element(Surd(1, 2), Angle.radians(math.copysign(1e305, v)))
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            rs1_probe(T, U, 10000)

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


def stack_kernel_reference(gT, gU, p0, radius):
    """The (Z, t) columns of orbit_points, with each U^n p0 from the stack
    kernel _boundary_images on one matrix and one lift, re-lifted through
    a HeisPoint, and each T^m from np.linalg.matrix_power."""
    gT_inv, gU_inv = np.linalg.inv(gT), np.linalg.inv(gU)
    un = {0: p0}
    for n in range(1, radius + 1):
        for k, g in ((n, gU), (-n, gU_inv)):
            prev = standard_lift(un[k - 1 if k > 0 else k + 1])
            Z, t = heisenberg._boundary_images(np.asarray(g, dtype=complex)[None], prev[None])
            un[k] = HeisPoint(Z[0, 0], t[0, 0])
    span = range(-radius, radius + 1)
    G = np.array([np.linalg.matrix_power(gT if m >= 0 else gT_inv, abs(m)) for m in span],
                 dtype=complex)
    Z, t = heisenberg._boundary_images(G, np.array([standard_lift(un[n]) for n in span]))
    return Z.reshape(-1, Z.shape[-1]), t.reshape(-1)


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
        gT, gU, p0 = cusp_generators(target, d, angle)
        got = orbit_points(gT, gU, p0, radius)
        want = orbit_reference(gT, gU, p0, radius)
        for a, b in zip(orbit_arrays(got), orbit_arrays(want)):
            assert a.shape == b.shape and np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()  # signed zeros too
        for _, _, p in got:
            assert type(p.t) is float and all(type(w) is complex for w in p.z)

    @pytest.mark.parametrize("target, d", [("su31", 15), ("su31", 2), ("so41", 6), ("so41", 7)])
    @pytest.mark.parametrize("angle", [Angle.radians(0.7), Angle.radians(-2.5),
                                       Angle.pi_fraction(1, 3), Angle.pi_fraction(-5, 7),
                                       Angle.radians(3e-9), Angle.radians(-1e-13)],
                             ids=["raw", "raw-negative", "pi", "pi-negative",
                                  "near-zero", "near-zero-negative"])
    def test_radius_50_matches_stack_kernel(self, target, d, angle):
        gT, gU, p0 = cusp_generators(target, d, angle)
        pts = orbit_points(gT, gU, p0, 50)
        Z, t = stack_kernel_reference(gT, gU, p0, 50)
        assert pts.Z.tobytes() == Z.tobytes() and pts.t.tobytes() == t.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(target=st.sampled_from(["su31", "so41"]),
           d=st.sampled_from([2, 5, 6, 7, 11, 15, 19]),
           angle=orbit_angles(), radius=st.integers(13, 50))
    def test_long_range_matches_stack_kernel(self, target, d, angle, radius):
        gT, gU, p0 = cusp_generators(target, d, angle)
        pts = orbit_points(gT, gU, p0, radius)
        Z, t = stack_kernel_reference(gT, gU, p0, radius)
        assert pts.Z.tobytes() == Z.tobytes() and pts.t.tobytes() == t.tobytes()

    @pytest.mark.parametrize("target, d, angle", [
        ("su31", 15, Angle.radians(0.7)), ("su31", 7, Angle.pi_fraction(2, 5)),
        ("so41", 6, Angle.radians(-2.5)), ("so41", 11, Angle.radians(1e-7))])
    def test_powers_match_matrix_power(self, target, d, angle):
        gT, _, _ = cusp_generators(target, d, angle)
        for a in (gT, np.linalg.inv(gT)):
            powers = heisenberg._matrix_powers(a, 50)
            assert len(powers) == 51
            for k, got in enumerate(powers):
                want = np.linalg.matrix_power(a, k)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k
        assert [p.tobytes() for p in heisenberg._matrix_powers(gT, 2)] == \
               [np.linalg.matrix_power(gT, k).tobytes() for k in range(3)]

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

    # Bent generators that fail the checks of the U-chain.  Each fixes
    # infinity except SWAP (an involution, so its inverse does not either);
    # the others act on (z2, 1) of a lift by [[0, 1], [1, 1]] or its
    # inverse [[-1, 1], [1, 0]].  From the origin, DRIFT maps the lift
    # (0, 0, 0, 1) to (0, 0, 1, 1), off the boundary, and ESCAPE maps it to
    # (0, 0, 1, 0), out of the chart; each is the other's inverse.  PASS is
    # DRIFT with the height corrected, so its first image (0, 1; 0) is a
    # boundary point, but its inverse escapes at n = 1 and PASS itself
    # drifts at n = 2.
    SWAP = np.array([[0, 0, 0, -1], [0, -1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0]], dtype=complex)
    DRIFT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]], dtype=complex)
    ESCAPE = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 1], [0, 0, 1, 0]], dtype=complex)
    PASS = np.array([[1, 0, 0, -0.5], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]], dtype=complex)
    # PASS with z1 = 1.5e154 added to its first image, which is still a
    # boundary point, but whose standard lift overflows: |z1|^2 > 1.8e308
    HUGE = np.array([[1, 0, 0, -0.75e154 * 1.5e154], [0, 1, 0, 1.5e154], [0, 0, 0, 1],
                     [0, 0, 1, 1]], dtype=complex)

    @pytest.mark.parametrize("gU, radii, message", [
        (SWAP, [1, 2, 50], "does not fix the point at infinity"),
        # forward step 1 is checked before backward step 1, which fails
        # the other way
        (ESCAPE, [1, 2, 50], "escaped the Heisenberg chart"),
        (DRIFT, [1, 2, 50], "height drifted"),
        # backward step 1 is checked before forward step 2
        (PASS, [1, 2, 50], "escaped the Heisenberg chart"),
        # and a point is lifted when the next step reads it, so the
        # overflow of the first forward lift comes after backward step 1
        (HUGE, [1, 2, 50], "escaped the Heisenberg chart"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar power")
    def test_chain_failures(self, gU, radii, message):
        gT = cusp_translation_T(D2_PARAMS)
        p0 = HeisPoint.origin(2)
        for radius in radii:
            with pytest.raises(GeometryError, match=message):
                orbit_points(gT, gU, p0, radius)
            with pytest.raises(GeometryError, match=message):
                orbit_reference(gT, gU, p0, radius)
        # no step at radius 0, so nothing of gU is checked
        assert len(orbit_points(gT, gU, p0, 0)) == 1

    # A dilation that fixes infinity, (x, z, 1) -> (lam x, z, 1 / lam), from
    # a point far out.  At lam = 1e10 the first quotient overflows, which
    # its guard keeps silent, and the next lift raises OverflowError.  At
    # lam = 1e3 no quotient overflows, but the second product does, and
    # warns (numpy 2: overflow, then invalid value, in matmul) as a product
    # outside the quotient's guard does, before the OverflowError.
    @pytest.mark.parametrize("lam, z", [(1e10, 1e147), (1e3, 1e150)])
    def test_chain_warns_as_its_single_steps(self, lam, z):
        gU = np.diag([lam, 1, 1, 1 / lam]).astype(complex)
        gT = cusp_translation_T(D2_PARAMS)
        p0 = HeisPoint((z, 0), 0.0)

        def steps():
            gU_inv = np.linalg.inv(gU)
            un = {0: p0}
            for n in range(1, 4):
                un[n] = boundary_action(gU, un[n - 1])
                un[-n] = boundary_action(gU_inv, un[1 - n])

        def outcome(run, action):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises((OverflowError, RuntimeWarning)) as raised:
                    run()
            return raised.type, [str(w.message) for w in caught]

        for action in ("always", "error"):
            want = outcome(steps, action)
            assert outcome(lambda: orbit_points(gT, gU, p0, 3), action) == want
        if lam == 1e10:
            assert want == (OverflowError, [])

    def test_chain_failure_messages_of_single_steps(self):
        p0 = HeisPoint.origin(2)
        with pytest.raises(GeometryError, match="does not fix the point at infinity"):
            boundary_action(self.SWAP, p0)
        with pytest.raises(GeometryError, match="escaped the Heisenberg chart"):
            boundary_action(self.ESCAPE, p0)
        with pytest.raises(GeometryError, match="height drifted"):
            boundary_action(self.DRIFT, p0)
        assert boundary_action(self.PASS, p0) == HeisPoint((0, 1), 0.0)
        with pytest.raises(GeometryError, match="height drifted"):
            boundary_action(self.PASS, HeisPoint((0, 1), 0.0))
        with pytest.raises(GeometryError, match="escaped the Heisenberg chart"):
            boundary_action(np.linalg.inv(self.PASS), p0)
        with pytest.raises(GeometryError, match="point dimension does not match"):
            boundary_action(self.PASS, HeisPoint.origin(3))
        with pytest.raises(OverflowError):
            standard_lift(boundary_action(self.HUGE, p0))

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


# Subnormals, signed zeros and magnitudes up to 1e300.
csv_floats = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])
              | st.floats(-1e300, 1e300))


@st.composite
def repeated_orbit_rows(draw):
    """Up to 30 rows (m, n, point) of boundary dimension 2 or 3; each CSV
    column draws its values from a pool of at most three, so the rows
    repeat them heavily."""
    k = draw(st.sampled_from([2, 3]))
    pools = [draw(st.lists(csv_floats, min_size=1, max_size=3)) for _ in range(5 if k == 2 else 3)]
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        c = [draw(st.sampled_from(pool)) for pool in pools]
        if k == 2:
            p = HeisPoint((complex(c[0], c[1]), complex(c[2], c[3])), c[4])
        else:  # a signed zero in Im Z and t packs as 0.0
            zero = st.sampled_from([0.0, -0.0])
            p = HeisPoint([complex(x, draw(zero)) for x in c], draw(zero))
        rows.append((draw(st.integers(-50, 50)), draw(st.integers(-50, 50)), p))
    return rows


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
        vals = pack_csv_coords(HeisPoint((1.0, 2.0, 3.0), 0.0))
        assert vals == (1.0, 0.0, 2.0, 3.0, 0.0)

    @pytest.mark.parametrize("z, t", [((1.0, 2.0 + 1e-300j, 3.0), 0.0),
                                      ((1.0j, 2.0, 3.0), 0.0),
                                      ((1.0, 2.0, 3.0), 0.5)])
    def test_so41_packing_refuses_complex_points(self, z, t):
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
        per_row = "".join("%s,%s,%r,%r,%r,%r,%r\r\n" % ((m, n) + pack_csv_coords(p))
                          for m, n, p in rows)
        assert dumps[0].split("\r\n", 1)[1].startswith(per_row)

    @settings(max_examples=150, deadline=None)
    @given(repeated_orbit_rows())
    @example([])
    @example([(0, 0, HeisPoint((0j, 0j), 0.0)),       # a memo keyed by value
              (0, 1, HeisPoint((complex(-0.0, -0.0), 0j), -0.0)),  # gives both
              (1, 0, HeisPoint((0j, complex(-0.0, 0.0)), 0.0))])   # one repr
    def test_bytes_match_per_row_reference(self, rows):
        buf = io.StringIO()
        write_orbit_csv(buf, rows)
        per_row = "".join("%s,%s,%r,%r,%r,%r,%r\r\n" % ((m, n) + pack_csv_coords(p))
                          for m, n, p in rows)
        assert buf.getvalue() == "m,n,re_z1,im_z1,re_z2,im_z2,v\r\n" + per_row

    def test_empty_rows(self):
        buf = io.StringIO()
        write_orbit_csv(buf, [])
        assert buf.getvalue() == "m,n,re_z1,im_z1,re_z2,im_z2,v\r\n"
        assert orbit_gap([]) == math.inf
