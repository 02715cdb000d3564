"""Siegel-model boundary geometry.

The punctured boundary of complex hyperbolic n-space is the generalized
Heisenberg group C^{n-1} x R with product

    (Z1, t1) . (Z2, t2) = (Z1 + Z2, t1 + t2 + 2 Im(Z1 Z2*)).

This module provides the group law, the point-at-infinity stabilizer
generators (translations, rotations, dilations) and their boundary
actions, the deformed-cusp orbit in closed form together with its
matrix-action oracle, the R x S^1 discreteness trichotomy on exact
inputs, and an empirical orbit-gap probe.

Real hyperbolic boundaries are the special case of real Z and t = 0;
the same matrices and actions apply verbatim.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

import numpy as np

from .matrices import GeometryError
from .scalars import Angle, Surd
from .tolerances import BOUNDARY_TOL, CHART_ESCAPE, DUP_TOL, POINT_TOL, STRUCTURE_TOL

RealLike = Union[float, int, Fraction, Surd]


def _as_float(x: RealLike) -> float:
    if isinstance(x, Surd):
        return x.value
    return float(x)


@dataclass(frozen=True)
class HeisPoint:
    """A point (Z, t) of the generalized Heisenberg group."""

    z: tuple[complex, ...]
    t: float

    def __init__(self, z: Sequence[complex], t: float):
        object.__setattr__(self, "z", tuple(complex(w) for w in z))
        object.__setattr__(self, "t", float(t))

    @classmethod
    def origin(cls, k: int = 2) -> "HeisPoint":
        return cls((0,) * k, 0.0)

    def __mul__(self, other: "HeisPoint") -> "HeisPoint":
        if len(self.z) != len(other.z):
            raise GeometryError("Heisenberg points of different dimensions")
        twist = 2.0 * sum((a * b.conjugate()).imag for a, b in zip(self.z, other.z))
        return HeisPoint(tuple(a + b for a, b in zip(self.z, other.z)),
                         self.t + other.t + twist)

    def inverse(self) -> "HeisPoint":
        return HeisPoint(tuple(-a for a in self.z), -self.t)

    def approx_equal(self, other: "HeisPoint", tol: float = POINT_TOL) -> bool:
        return (len(self.z) == len(other.z)
                and max(abs(a - b) for a, b in zip(self.z, other.z)) <= tol
                and abs(self.t - other.t) <= tol)


def heis_mul(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    return p * q


def box_distance(p: HeisPoint, q: HeisPoint) -> float:
    """Homogeneous box quasi-metric max(|dZ|, |dt|^(1/2))."""
    dz = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(p.z, q.z)))
    return max(dz, math.sqrt(abs(p.t - q.t)))


def _closest_pair(keys: np.ndarray, cols: Sequence[np.ndarray], dist,
                  dup_tol: float) -> float:
    """Minimum dist(p, q) > dup_tol over pairs of points (math.inf if none).

    The points are the rows of the columns `cols`; dist maps two lists of
    such columns, p and q, to the distances of the paired rows.  Every
    column of keys must bound the metric from below: |keys[i, c] -
    keys[j, c]| is at most the distance of rows i and j.  The rows are
    sorted along the key column with the most distinct values, and rows
    k places apart are compared for k = 1, 2, ... until every key gap at
    offset k exceeds the best distance so far (Shamos-Hoey sort-and-sweep).

    The sweep reads copies of the columns put in sort order once.  At an
    offset where at least a quarter of the pairs are candidates (a sort
    column of few distinct values, as in an so41 orbit), dist runs on the
    contiguous slices c[:-k] and c[k:] and is masked after; at the others,
    on the gathered candidates.  dist is elementwise, so either way every
    distance has the bits it has for its pair alone.
    """
    col = max(range(keys.shape[1]), key=lambda c: np.unique(keys[:, c]).size)
    order = np.argsort(keys[:, col], kind="stable")
    s = keys[order, col]
    cols = [c[order] for c in cols]
    best = math.inf
    for k in range(1, len(s)):
        near = s[k:] - s[:-k] <= best
        count = np.count_nonzero(near)
        if not count:
            break
        if 4 * count < near.size:
            i = np.flatnonzero(near)
            d = dist([c[i] for c in cols], [c[i + k] for c in cols])
        else:
            d = dist([c[:-k] for c in cols], [c[k:] for c in cols])[near]
        d = d[d > dup_tol]
        if d.size:
            best = min(best, float(d.min()))
    return best


# ---------------------------------------------------------------------------
# Stabilizer of the point at infinity
# ---------------------------------------------------------------------------

def translation_matrix(p: HeisPoint) -> np.ndarray:
    """Heisenberg translation by (Z, t) as a Siegel-model matrix."""
    k = len(p.z)
    z = np.array(p.z, dtype=complex)
    g = np.eye(k + 2, dtype=complex)
    g[0, 1:k + 1] = -z.conj()
    g[1:k + 1, k + 1] = z
    g[0, k + 1] = -(np.vdot(z, z).real - 1j * p.t) / 2
    return g


def rotation_matrix(U: np.ndarray) -> np.ndarray:
    """Heisenberg rotation by a unitary U acting on the Z factor."""
    U = np.asarray(U, dtype=complex)
    k = U.shape[0]
    if np.abs(U.conj().T @ U - np.eye(k)).max() > STRUCTURE_TOL:
        raise GeometryError(f"rotation block is not unitary within {STRUCTURE_TOL:g}")
    g = np.eye(k + 2, dtype=complex)
    g[1:k + 1, 1:k + 1] = U
    return g


def dilation_matrix(r: float, k: int = 2) -> np.ndarray:
    """Heisenberg dilation (Z, t) -> (rZ, r^2 t)."""
    if not r > 0:
        raise GeometryError("dilation factor must be positive")
    g = np.eye(k + 2, dtype=complex)
    g[0, 0] = r
    g[k + 1, k + 1] = 1.0 / r
    return g


def standard_lift(p: HeisPoint, height: float = 0.0) -> np.ndarray:
    """The standard lift ((-|Z|^2 - u + it)/2, Z, 1) at horospherical
    height u (0 on the boundary)."""
    return _lift(p.z, p.t, height)


def _lift(z: Sequence[complex], t: float, height: float = 0.0) -> np.ndarray:
    """standard_lift of the point (z, t), given as Python complex and float."""
    zz = sum(abs(w) ** 2 for w in z)
    return np.array([(-zz - height + 1j * t) / 2, *z, 1.0], dtype=complex)


def boundary_action(g: np.ndarray, p: HeisPoint) -> HeisPoint:
    """Projective action of a p_infinity-stabilizing matrix on the
    punctured boundary, in Heisenberg coordinates: one matrix-vector
    step on the standard lift of p."""
    g = np.asarray(g, dtype=complex)
    return HeisPoint(*_act(g, standard_lift(p), _unfixed(g[None])[0]))


def _unfixed(G: np.ndarray) -> np.ndarray:
    """Which matrices of the stack G (s, k+2, k+2) move the point at
    infinity: their first column is not along e_0 within BOUNDARY_TOL."""
    col = np.abs(G[:, :, 0])
    return col[:, 1:].max(axis=1) > BOUNDARY_TOL * np.maximum(col.max(axis=1), 1.0)


def _act(g: np.ndarray, lift: np.ndarray, unfixed: bool) -> tuple[list[complex], float]:
    """Heisenberg coordinates (Z, t), as Python complex and float, of the
    image of one boundary point under g (complex), given its standard lift
    and the fixed-point test of g (_unfixed).

    The one-point case of _boundary_images, with the same bits: the
    product g @ lift divided by its last entry, and the same checks in the
    same order, here on Python scalars.
    """
    if len(lift) != g.shape[-1]:
        raise GeometryError("point dimension does not match the matrix")
    v = g @ lift
    if unfixed:
        raise GeometryError("matrix does not fix the point at infinity")
    if abs(v[-1]) < CHART_ESCAPE:
        raise GeometryError("image escaped the Heisenberg chart")
    with np.errstate(all="ignore"):   # as in _boundary_images: the quotient may overflow
        v = (v / v[-1]).tolist()
    z = v[1:-1]
    zz = sum(a * a for a in map(abs, z))   # numpy's ** 2 is a * a, Python's is pow
    if abs(v[0].real + zz / 2) > BOUNDARY_TOL * max(1.0, zz):
        raise GeometryError("image is not a boundary point (height drifted)")
    return z, 2.0 * v[0].imag


def _boundary_images(G: np.ndarray, lifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Heisenberg coordinates, Z of shape (s, N, k) and t of shape (s, N),
    of the images under each matrix of the stack G (s, k+2, k+2) of the
    boundary points whose standard lifts are the N rows of `lifts`.

    Every matrix must fix the point at infinity; every image must stay in
    the chart and on the boundary (height drift within BOUNDARY_TOL).  The
    checks run over the whole stack and raise what one matrix at a time
    would: the first failing check of the first failing matrix.  One
    broadcast product serves all; a single row is the matrix-vector
    product g @ lift.
    """
    if lifts.shape[1] != G.shape[-1]:
        raise GeometryError("point dimension does not match the matrix")
    unfixed = _unfixed(G)
    V = lifts @ G.transpose(0, 2, 1)
    escaped = (np.abs(V[:, :, -1]) < CHART_ESCAPE).any(axis=1)
    with np.errstate(all="ignore"):
        V /= V[:, :, -1:]   # an escaped image's quotient is never read
        Z = V[:, :, 1:-1]
        zz = (np.abs(Z) ** 2).sum(axis=2)
        drifted = (np.abs(V[:, :, 0].real + zz / 2)
                   > BOUNDARY_TOL * np.maximum(1.0, zz)).any(axis=1)
    failed = unfixed | escaped | drifted
    if failed.any():
        i = failed.argmax()
        raise GeometryError("matrix does not fix the point at infinity" if unfixed[i]
                            else "image escaped the Heisenberg chart" if escaped[i]
                            else "image is not a boundary point (height drifted)")
    return Z, 2.0 * V[:, :, 0].imag


# ---------------------------------------------------------------------------
# Deformed cusp groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuspParams:
    """Normalized cusp data: T translates by (a, 0), U by (b1, b2), and
    the deformation multiplies the b2-direction by u on the circle."""

    a: RealLike
    b1: RealLike
    b2: RealLike
    u: Angle

    def __post_init__(self):
        if _as_float(self.a) == 0.0:
            raise GeometryError("cusp parameter a must be nonzero")
        if _as_float(self.b2) == 0.0:
            raise GeometryError("cusp parameter b2 must be nonzero")

    @property
    def orthogonal(self) -> bool:
        return _as_float(self.b1) == 0.0


def cusp_translation_T(params: CuspParams) -> np.ndarray:
    return translation_matrix(HeisPoint((_as_float(params.a), 0.0), 0.0))


def cusp_translation_U(params: CuspParams) -> np.ndarray:
    return translation_matrix(
        HeisPoint((_as_float(params.b1), _as_float(params.b2)), 0.0))


def bent_cusp_U(params: CuspParams) -> np.ndarray:
    """The deformed generator: Diag(1,1,u,1) times the U translation."""
    g = cusp_translation_U(params)
    u = params.u.exp_i()
    g[2, :] = u * g[2, :]
    return g


def orbit_center(params: CuspParams) -> complex:
    """Center u*b2/(1-u) of the rotation that the bent generator
    induces on the second boundary coordinate (undefined at u = 1)."""
    if params.u.is_zero_mod_2pi():
        raise GeometryError("undeformed parameter: the rotation center is undefined")
    u = params.u.exp_i()
    return u * _as_float(params.b2) / (1.0 - u)


def shift_point(p: HeisPoint, params: CuspParams) -> HeisPoint:
    """Raw boundary coordinates -> rotation-centered coordinates."""
    c = orbit_center(params)
    return HeisPoint((p.z[0], p.z[1] - c), p.t)


def unshift_point(p: HeisPoint, params: CuspParams) -> HeisPoint:
    c = orbit_center(params)
    return HeisPoint((p.z[0], p.z[1] + c), p.t)


def orbit_point(params: CuspParams, m: int, n: int, p0: HeisPoint) -> HeisPoint:
    """Closed form for T^m (bent U)^n applied to p0, everything in the
    shifted coordinates (z1, z2 - center, v).

    The vertical increment follows the matrices: a Heisenberg
    translation by real (Z, 0) adds -2 Im(Z . conj(W)) to the vertical
    coordinate (the matrix-action oracle pins the sign).  For n >= 0
    the increment carries the partial rotation sum over u^j z2';
    negative n uses the inverse generator, extending that sum by
    -sum_{j=n}^{-1}.  The faithfulness witness -2 n b2 Im(center) is
    nonzero for every n != 0 away from the half turn.
    """
    if params.u.is_zero_mod_2pi():
        raise GeometryError("closed-form orbit needs u != 1")
    a = _as_float(params.a)
    b1 = _as_float(params.b1)
    b2 = _as_float(params.b2)
    u = params.u.exp_i()
    c_u = orbit_center(params)
    z1, z2 = p0.z
    if n >= 0:
        rot_sum = sum((u ** j * z2).imag for j in range(n))
    else:
        rot_sum = -sum((u ** j * z2).imag for j in range(n, 0))
    z1_new = z1 + m * a + n * b1
    z2_new = u ** n * z2
    v_new = (p0.t - 2.0 * (m * a + n * b1) * z1.imag
             - 2.0 * n * b2 * c_u.imag - 2.0 * b2 * rot_sum)
    return HeisPoint((z1_new, z2_new), v_new)


def orbit_point_via_matrices(params: CuspParams, m: int, n: int,
                             p0: HeisPoint) -> HeisPoint:
    """Independent oracle: apply the explicit matrices T^m (bent U)^n to
    the unshifted point and shift back."""
    g = (np.linalg.matrix_power(cusp_translation_T(params), m)
         @ np.linalg.matrix_power(bent_cusp_U(params), n))
    return shift_point(boundary_action(g, unshift_point(p0, params)), params)


# ---------------------------------------------------------------------------
# The R x S^1 trichotomy
# ---------------------------------------------------------------------------

class RS1Class(Enum):
    NONDISCRETE_Z2 = "nondiscrete-Z2"
    DISCRETE_NON_Z2 = "discrete-nonZ2"
    NONDISCRETE_Z2_RATIONAL = "nondiscrete-Z2-rational"

    def __str__(self) -> str:
        return self.value

    @property
    def is_discrete(self) -> bool:
        return self is RS1Class.DISCRETE_NON_Z2


@dataclass(frozen=True)
class RS1Element:
    """An element (translation, angle) of R x S^1 with exact data."""

    translation: Surd
    angle: Angle

    def __post_init__(self):
        if not isinstance(self.translation, Surd):
            raise TypeError("translation must be an exact Surd; rationality of "
                            "ratios is undecidable from floats -- use the "
                            "sampling probe for raw data")
        if self.translation.is_zero:
            raise GeometryError("translation part must be nonzero")


def rs1_classify(T: RS1Element, U: RS1Element) -> RS1Class:
    """Exact trichotomy for the subgroup generated by T=(a,0), U=(b,theta)
    of R x S^1:

    * a/b irrational:  non-discrete, isomorphic to Z^2;
    * a/b rational and theta a rational multiple of pi:  discrete, not Z^2;
    * a/b rational and theta irrational in pi:  non-discrete, still Z^2.
    """
    if not T.angle.is_zero_mod_2pi():
        raise GeometryError("normalize so the first generator is (a, 0)")
    ratio = T.translation.ratio(U.translation)
    if ratio is None:
        return RS1Class.NONDISCRETE_Z2
    if U.angle.is_pi_rational:
        return RS1Class.DISCRETE_NON_Z2
    return RS1Class.NONDISCRETE_Z2_RATIONAL


def rs1_probe(T: RS1Element, U: RS1Element, n_elements: int = 10000) -> float:
    """Density probe: the exact minimum positive pairwise distance
    (box metric max(|dx|, arc)) among n_elements group elements T^m U^n,
    with m chosen as the closest return of the translation part.

    A value well below the discreteness scale is evidence (not proof)
    of non-discreteness; coincident elements are removed exactly first.
    """
    a = T.translation.value
    b = U.translation.value
    n = np.arange(max(n_elements, 0))
    m = 0.0 - np.rint(n * b / a)  # an integral float, never -0.0
    keep = _distinct_elements(m, n, T, U)
    x = (m * a + n * b)[keep]
    ang = np.array([math.remainder(v, 2 * math.pi)
                    for v in (n[keep] * U.angle.value).tolist()])
    return _rs1_gap(x, ang)


def _distinct_elements(m: np.ndarray, n: np.ndarray, T: RS1Element,
                       U: RS1Element) -> np.ndarray | slice:
    """Indices of the first occurrence, in n order, of each distinct
    element T^m U^n (m[i], n[i] integral; T = (a, 0), U = (b, theta)).

    Elements can coincide only when a/b is rational (a.k == b.k) and the
    angle is a rational multiple of pi; otherwise n is determined by the
    sqrt(b.k) part of the translation or by the raw angle.  When they
    can, T^m U^n is the integer pair (m A + n B, p n mod 2q), where
    a.q = A/D, b.q = B/D and theta = (p/q) pi, kept exact in Python ints.
    """
    a, b, theta = T.translation, U.translation, U.angle
    if a.k != b.k or theta.pi_frac is None:
        return slice(None)
    den = math.lcm(a.q.denominator, b.q.denominator)
    A = a.q.numerator * (den // a.q.denominator)
    B = b.q.numerator * (den // b.q.denominator)
    p, two_q = theta.pi_frac.numerator, 2 * theta.pi_frac.denominator
    first: dict[tuple[int, int], int] = {}
    for i, (mi, ni) in enumerate(zip(m.tolist(), n.tolist())):
        first.setdefault((int(mi) * A + ni * B, p * ni % two_q), i)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def _rs1_gap(x: np.ndarray, ang: np.ndarray) -> float:
    """Minimum positive box distance max(|dx|, arc) among points (x, angle);
    the arc is at least the chord, so x, cos and sin all bound it below."""
    def dist(p, q):
        d = np.fmod(np.abs(p[1] - q[1]), 2 * math.pi)
        return np.maximum(np.abs(p[0] - q[0]), np.minimum(d, 2 * math.pi - d))
    keys = np.column_stack([x, np.cos(ang), np.sin(ang)])
    return _closest_pair(keys, [x, ang], dist, 0.0)


# ---------------------------------------------------------------------------
# Orbit enumeration, gap probe, CSV dumps
# ---------------------------------------------------------------------------

MAX_ORBIT_RADIUS = 50


class _OrbitColumns(Sequence):
    """(m, n, point) rows kept as columns: the words m and n (lists of
    int), Z of shape (N, k), complex, and t of shape (N,), float.

    Indexing and iteration give the rows as tuples (m, n, HeisPoint) with
    the bits of the columns, each point built only when it is read.
    """

    __slots__ = ("m", "n", "Z", "t")

    def __init__(self, m: list[int], n: list[int], Z: np.ndarray, t: np.ndarray):
        self.m, self.n, self.Z, self.t = m, n, Z, t

    def __len__(self) -> int:
        return len(self.m)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self.m[i], self.n[i], HeisPoint(self.Z[i].tolist(), float(self.t[i]))


def _orbit_columns(rows: Iterable[tuple[int, int, HeisPoint]]) -> _OrbitColumns:
    """The columns of (m, n, point) rows: those of orbit_points as they
    are, any other rows read once."""
    if isinstance(rows, _OrbitColumns):
        return rows
    rows = list(rows)
    Z = (np.array([p.z for _, _, p in rows], dtype=complex) if rows
         else np.empty((0, 2), dtype=complex))
    return _OrbitColumns([m for m, _, _ in rows], [n for _, n, _ in rows], Z,
                         np.array([p.t for _, _, p in rows], dtype=float))


def _matrix_powers(a: np.ndarray, top: int) -> list[np.ndarray]:
    """a^0, ..., a^top, each with the bits of np.linalg.matrix_power(a, k).

    That function multiplies a^3 as (a @ a) @ a, and any other k > 0 over
    the bits of k from the lowest: it squares a along the way and
    multiplies each square whose bit is set into the result.  Here the
    squares are shared by all k, and so is each partial result, keyed by
    the low bits of k it covers: a^0..a^top take about top products.
    """
    a = np.asanyarray(a)
    powers = [np.eye(a.shape[-1], dtype=a.dtype)]
    squares = [a]
    partial: dict[int, np.ndarray] = {}
    for k in range(1, top + 1):
        low, result = 0, None
        for j in range(k.bit_length()):
            if j == len(squares):
                squares.append(squares[-1] @ squares[-1])
            if k >> j & 1:
                low |= 1 << j
                if low not in partial:
                    partial[low] = squares[j] if result is None else result @ squares[j]
                result = partial[low]
        powers.append(squares[1] @ a if k == 3 else result)
    return powers


def orbit_points(gT: np.ndarray, gU: np.ndarray, p0: HeisPoint,
                 radius: int) -> Sequence[tuple[int, int, HeisPoint]]:
    """All points T^m U^n p0 with |m|, |n| <= radius (deterministic (m, n)
    lexicographic order), as a read-only sequence of (m, n, HeisPoint).

    The U^n p0 come one matrix-vector step at a time (the step of
    boundary_action, forward step n before backward step n), each kept as
    its standard lift; the 2 radius + 1 powers T^m, as
    np.linalg.matrix_power rounds them, then act on all of those lifts in
    one broadcast product, every image passing the checks of
    boundary_action.  For the Bianchi cusp translations the product
    rounds as one boundary_action per point does (the tests compare the
    two bit for bit).
    """
    if radius < 0 or radius > MAX_ORBIT_RADIUS:
        raise GeometryError(f"word radius must be in [0, {MAX_ORBIT_RADIUS}]")
    gU_inv = np.linalg.inv(gU)
    gT_inv = np.linalg.inv(gT)
    gs = np.array([gU, gU_inv], dtype=complex)
    steps = list(zip((1, -1), gs, _unfixed(gs)))
    lifts = {0: standard_lift(p0)}
    # A point is lifted when the next step reads it, as boundary_action
    # would lift it: a lift that overflows raises after the other
    # direction's step of the same n.
    images = {}
    for n in range(1, radius + 1):
        for sign, g, g_unfixed in steps:
            prev = sign * (n - 1)
            if prev not in lifts:
                lifts[prev] = _lift(*images[prev])
            images[sign * n] = _act(g, lifts[prev], g_unfixed)
    for n in (-radius, radius):
        if n not in lifts:
            lifts[n] = _lift(*images[n])
    ns = range(-radius, radius + 1)
    G = np.array(_matrix_powers(gT_inv, radius)[:0:-1] + _matrix_powers(gT, radius),
                 dtype=complex)
    Z, t = _boundary_images(G, np.array([lifts[n] for n in ns]))
    return _OrbitColumns([m for m in ns for _ in ns], list(ns) * len(ns),
                         Z.reshape(-1, Z.shape[-1]), t.reshape(-1))


def orbit_gap(pts: Sequence[tuple[int, int, HeisPoint]],
              dup_tol: float = DUP_TOL) -> float:
    """Minimum positive pairwise box distance among the (m, n, point) rows
    of orbit_points; pairs closer than dup_tol count as coincident (and
    are excluded, so the reported gap is the positive one)."""
    cols = _orbit_columns(pts)
    Z, t = cols.Z, cols.t
    k = Z.shape[1]

    def dist(p, q):  # p, q: the Z columns, then t
        dz2 = sum(np.abs(p[c] - q[c]) ** 2 for c in range(k))
        return np.maximum(np.sqrt(dz2), np.sqrt(np.abs(p[k] - q[k])))
    return _closest_pair(np.column_stack([Z.real, Z.imag]), [*Z.T, t], dist, dup_tol)


def orbit_gap_probe(gT: np.ndarray, gU: np.ndarray, p0: HeisPoint,
                    radius: int, dup_tol: float = DUP_TOL) -> float:
    """orbit_gap of the orbit points of word radius `radius`."""
    return orbit_gap(orbit_points(gT, gU, p0, radius), dup_tol)


def _csv_columns(cols: _OrbitColumns) -> list[np.ndarray]:
    """The float CSV columns (re_z1, im_z1, re_z2, im_z2, v) of orbit
    columns, packed as pack_csv_coords says."""
    Z, t = cols.Z, cols.t
    k = Z.shape[1]
    if k not in (2, 3):
        raise GeometryError("CSV schema covers boundary dimensions 2 and 3 only")
    if k == 3 and (Z.imag.any() or t.any()):
        raise GeometryError("a real-hyperbolic boundary point needs real Z and t = 0")
    if k == 2:
        return [Z[:, 0].real, Z[:, 0].imag, Z[:, 1].real, Z[:, 1].imag, t]
    zero = np.zeros(len(t))
    return [Z[:, 0].real, zero, Z[:, 1].real, Z[:, 2].real, zero]


def _csv_rows(cols: _OrbitColumns):
    """The CSV rows (m, n, re_z1, im_z1, re_z2, im_z2, v) of orbit columns,
    each coordinate already formatted as the repr of its float.

    An orbit repeats its coordinates (a column of a radius-50 orbit holds
    at most a few thousand distinct values in 10201 rows), so each column
    formats each distinct value once and gathers the strings.  Values are
    told apart by their bits, not compared as floats, so that -0.0 and
    0.0 keep their own repr: every row prints what %r of its float does.
    """
    def formatted(c: np.ndarray) -> list[str]:
        bits, inverse = np.unique(c.view(np.int64), return_inverse=True)
        reprs = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        return reprs[inverse].tolist()
    return zip(cols.m, cols.n, *map(formatted, _csv_columns(cols)))


def pack_csv_coords(p: HeisPoint) -> tuple[float, float, float, float, float]:
    """Map a boundary point to the fixed CSV columns (z1, z2, v).

    Complex-hyperbolic points (len(Z)=2) pass through; real-hyperbolic
    points (len(Z)=3, real Z, t=0) pack as z1 = x, z2 = y + iz, v = 0.
    """
    return tuple(c.item() for c in _csv_columns(_orbit_columns([(0, 0, p)])))


def write_orbit_csv(fp, rows: Iterable[tuple[int, int, HeisPoint]],
                    gap: float | None = None) -> None:
    """RFC-4180 dump with mandatory header and an optional trailing gap
    comment (the one place comments are allowed)."""
    cols = _orbit_columns(rows)
    fp.write("m,n,re_z1,im_z1,re_z2,im_z2,v\r\n")
    fp.write("".join(["%s,%s,%s,%s,%s,%s,%s\r\n" % row for row in _csv_rows(cols)]))
    if gap is not None:
        fp.write(f"# gap: {gap!r}\r\n")
