"""The real-basis so41 family at an exact rational point of the circle:
a test oracle for ``bianchi_family(d, "so41")``, which is exact at
symbolic u in the basis of ``embed_so41_q``.  This one is exact at a
point that is not a root of unity, in the other basis, and is built
only through the public bending operators.  Every test starts with no
shared symbolic family built (``cold_families``)."""

from fractions import Fraction

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
