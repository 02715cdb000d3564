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

Every test starts with no shared symbolic family built
(``cold_families``)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cuspdeform import bending, figure8
from cuspdeform.bending import BendDataHNN, bend_hnn, bianchi_lattice_su31, embed_so41
from cuspdeform.matrices import Mat


@pytest.fixture(autouse=True)
def cold_families():
    """Each test starts with no shared family built, so a test that
    counts the work of one build sees a cold one."""
    caches = (figure8._symbolic_family, bending._shared_family, bending._real_so41_lattice)
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
    by sort-and-sweep along the key column with the most distinct values;
    dist maps two index arrays to the distances of the paired rows, which
    are gathered at every offset k."""
    col = max(range(keys.shape[1]), key=lambda c: np.unique(keys[:, c]).size)
    order = np.argsort(keys[:, col], kind="stable")
    s = keys[order, col]
    best = math.inf
    for k in range(1, len(s)):
        near = s[k:] - s[:-k] <= best
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
