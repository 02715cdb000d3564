"""Test oracles built another way than the code they check.

The real-basis so41 family at an exact rational point of the circle is
an oracle for ``bianchi_family(d, "so41")``, which is exact at symbolic
u in the basis of ``embed_so41_q``.  This one is exact at a point that
is not a root of unity, in the other basis, and is built only through
the public bending operators.

The gather sweep is an oracle for the closest-pair kernel of the orbit
and R x S^1 gap probes, which reads sorted copies of the point columns:
it sorts an index instead, and gathers the candidate pairs of every
offset through it.

The per-matrix unipotent decision, the per-angle power table and the
per-point arc rule are oracles for the classifier's array decision, for
``UnitPowers``, which builds its table one exponent column at a time,
and for the figure-eight sweep's arc codes: they are the loops these ran
as before, one matrix, one (angle, exponent) or one point at a time.

The left-to-right ``Mat @`` product of a word's generator powers, each
formed by ``Mat.__pow__``, is an oracle for ``Rep``'s exact word images,
which multiply packed integers.

Every test starts with no shared symbolic family built
and none of the objects they share (``cold_families``)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cuspdeform import bending, exact, figure8, scalars, words
from cuspdeform.bending import BendDataHNN, bend_hnn, bianchi_lattice_su31, embed_so41
from cuspdeform.figure8 import ARC_TRANSITIONS, INNER_ARC_BOUND
from cuspdeform.heisenberg import _key_reach
from cuspdeform.matrices import Mat, eye
from cuspdeform.scalars import Angle


@pytest.fixture(autouse=True)
def cold_families():
    """Each test starts with no shared family built, and none of the
    objects that families share (the ext-ring constants, the Siegel
    forms, the lattices and the presentations), so a test that counts
    the work of one build sees a cold one."""
    caches = (figure8._symbolic_family, bending._shared_family, bending._real_so41_lattice,
              bending.bianchi_lattice_su31, exact._siegel_form, scalars._ext_rational,
              words.builtin_presentation)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _pythagorean_pair(s) -> tuple[Fraction, Fraction]:
    """(cos, sin) of 2 atan(s), exactly: ((1-s^2)/(1+s^2), 2s/(1+s^2))."""
    s = Fraction(s)
    den = 1 + s * s
    return ((1 - s * s) / den, 2 * s / den)


def _pythagorean_so41(d: int, s) -> dict[str, Mat]:
    """The images of Bi(d) bent into SO(4,1) by the exact rotation R_34
    of slope s, in the real basis of ``embed_so41``."""
    def rotation(cos_sin):
        c, s = cos_sin
        return Mat.ext([[1, 0, 0, 0, 0],
                        [0, 1, 0, 0, 0],
                        [0, 0, c, -s, 0],
                        [0, 0, s, c, 0],
                        [0, 0, 0, 0, 1]], d)

    lattice = {k: embed_so41(g) for k, g in bianchi_lattice_su31(d).items()}
    data = BendDataHNN(base={k: g for k, g in lattice.items() if k != "u"},
                       stable="u", stable_image=lattice["u"], centralizer=rotation,
                       edge_gens=("a", "t"), zero_param=(Fraction(1), Fraction(0)))
    return bend_hnn(data, _pythagorean_pair(s))


@pytest.fixture
def pythagorean_pair():
    return _pythagorean_pair


@pytest.fixture
def pythagorean_so41():
    return _pythagorean_so41


def _gather_closest_pair(keys, dist, dup_tol: float) -> float:
    """Minimum dist(i, j) > dup_tol over pairs of rows (math.inf if none),
    by sort-and-sweep along the key column with the most distinct values,
    until every gap in it at offset k exceeds the best distance widened
    past rounding (``_key_reach``); dist maps two index arrays to the
    distances of the paired rows, which are gathered at every offset k."""
    col = max(range(keys.shape[1]), key=lambda c: np.unique(keys[:, c]).size)
    order = np.argsort(keys[:, col], kind="stable")
    s = keys[order, col]
    best = math.inf
    for k in range(1, len(s)):
        near = s[k:] - s[:-k] <= _key_reach(best)
        if not near.any():
            break
        d = dist(order[:-k][near], order[k:][near])
        d = d[d > dup_tol]
        if d.size:
            best = min(best, float(d.min()))
    return best


def _gather_orbit_gap(Z, t, dup_tol: float) -> float:
    """The orbit gap of points with coordinates Z (N, k) and t (N,)."""
    def dist(i, j):
        dz2 = sum(np.abs(Z[i, c] - Z[j, c]) ** 2 for c in range(Z.shape[1]))
        return np.maximum(np.sqrt(dz2), np.sqrt(np.abs(t[i] - t[j])))
    return _gather_closest_pair(np.column_stack([Z.real, Z.imag]), dist, dup_tol)


def _gather_rs1_gap(x, ang) -> float:
    """The R x S^1 gap of the points (x, angle)."""
    def dist(i, j):
        d = np.fmod(np.abs(ang[i] - ang[j]), 2 * math.pi)
        return np.maximum(np.abs(x[i] - x[j]), np.minimum(d, 2 * math.pi - d))
    keys = np.column_stack([x, np.cos(ang), np.sin(ang)])
    return _gather_closest_pair(keys, dist, 0.0)


@pytest.fixture
def gather_orbit_gap():
    return _gather_orbit_gap


@pytest.fixture
def gather_rs1_gap():
    return _gather_rs1_gap


def _mat_chain(images, w) -> Mat:
    """The exact image of the word w under the generator images: the
    left-to-right ``Mat @`` product of its factors' powers ``g ** e``."""
    g = next(iter(images.values()))
    out = None
    for sym, e in w.factors:
        p = images[sym] ** e
        out = p if out is None else out @ p
    return Mat.identity(g.n, g.ring, g.d) if out is None else out


@pytest.fixture(scope="session")
def mat_chain():
    return _mat_chain


def _square(x: float) -> float:
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _loop_unipotent_subtypes(S, tol: float) -> tuple[list, list[complex]]:
    """The unipotent step of each matrix of a stack (None: neither the
    square nor the cube of S[k]/lambda - I vanishes, or lambda = trace/n
    is zero), decided one matrix at a time, and the lambdas."""
    n = S.shape[-1]
    lams = [complex(t) / n for t in S.trace(axis1=1, axis2=2).tolist()]
    rows = [k for k, lam in enumerate(lams) if lam != 0]
    out = [None] * len(S)
    if not rows:
        return out, lams
    N = S[rows] / np.array([lams[k] for k in rows])[:, None, None] - eye(n)
    N2 = N @ N
    sq = np.abs(N2).max(axis=(1, 2)).tolist()
    cb = np.abs(N2 @ N).max(axis=(1, 2)).tolist()
    norms = np.maximum(np.abs(N).max(axis=(1, 2)), 1e-300).tolist()
    for k, norm, sq_k, cb_k in zip(rows, norms, sq, cb):
        s2 = max(_square(norm), 1.0)
        if sq_k <= tol * s2 < math.inf:
            out[k] = "unipotent-step2"
        elif cb_k <= tol * s2 * max(norm, 1.0) < math.inf:
            out[k] = "unipotent-step3"
    return out, lams


def _angle_power_table(angles, exponents) -> list[list[complex]]:
    """u^k at each angle (rows) and exponent (columns), one entry at a
    time, angle after angle; an infinite x * k raises the ValueError
    that names the first such (angle, exponent)."""
    try:
        return [[1 + 0j if k == 0 else
                 a.times(k).exp_i() if a.raw is None else
                 complex(math.cos(a.raw * k), math.sin(a.raw * k))
                 for k in exponents] for a in angles]
    except ValueError:
        x, k = next((a.raw, k) for a in angles for k in exponents
                    if a.raw is not None and math.isinf(a.raw * k))
        raise ValueError(f"angle {x!r} is too large: the power u^{k} needs "
                         f"{x!r} * {k}, which overflows a float") from None


@pytest.fixture(scope="session")
def loop_unipotent_subtypes():
    return _loop_unipotent_subtypes


@pytest.fixture(scope="session")
def angle_power_table():
    return _angle_power_table


def _point_expected_arc(alpha, exclusion: float):
    """The signature the figure-eight arc dictates at one point, or None
    in an exclusion zone, decided by comparisons on Python floats; an
    exclusion of zero or less is zero."""
    exclusion = max(exclusion, 0.0)
    if isinstance(alpha, Angle):
        if alpha.is_pi_rational:
            f = alpha.pi_frac % 2
            if f in ARC_TRANSITIONS:
                return None
            want = ((3, 1) if f < ARC_TRANSITIONS[0] or f > ARC_TRANSITIONS[2]
                    else (2, 2))
            if exclusion <= 0 or _point_expected_arc(alpha.value, exclusion) == want:
                return want
            return None
        alpha = alpha.value
    a = abs(alpha)
    if a > math.pi:
        a = abs(math.atan2(math.sin(alpha), math.cos(alpha)))
    if a < INNER_ARC_BOUND - exclusion:
        return (3, 1)
    if INNER_ARC_BOUND + exclusion < a < math.pi - exclusion:
        return (2, 2)
    return None


@pytest.fixture(scope="session")
def point_expected_arc():
    return _point_expected_arc
