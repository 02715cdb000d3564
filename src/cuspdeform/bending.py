"""Bending deformations: the generic amalgam/HNN operators, the explicit
one-parameter centralizer groups, and the fully instantiated Bianchi
families into SU(3,1) and SO(4,1).

The Bianchi group for a squarefree d >= 2 (d != 3; d=1,3 are excluded
throughout) embeds in the Siegel model of SO(3,1) with the modular
subgroup <a, t> acting on a totally geodesic plane.  Bending along that
plane composes the stable letter u of the HNN splitting with a path in
the centralizer of the modular subgroup:

* in U(3,1) the centralizer is Diag(1, 1, u, 1), u on the unit circle;
* in SO(4,1) it is the rotation R_34(theta) of the extra coordinate
  pair, which is Diag(1, 1, u, 1/u, 1) with u = e^{i theta} in the basis
  of ``embed_so41_q``; both families are exact at symbolic u.

All lattice and bent matrices are exact over Q(sqrt2, sqrt d) tensor
Q[u, u^-1]; none are normalized to determinant one, so classification
downstream is scalar-invariant by design.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .heisenberg import CuspParams, RS1Element, rs1_classify
from .isometry import (VERDICT_TEXTS, IsoClass, Verdicts, classify_columns, grid_blocks,
                       sweep_codes)
from .matrices import (CONJ_TRANSPOSE, GeometryError, HermForm, IndeterminateError,
                       Mat, UnitPowers, siegel_form, unwrap)
from .scalars import Angle, ExtScalar, LaurentPoly, Surd, _squarefree
from .tolerances import DECISION_TOL, INDETERMINATE_FACTOR, NORM_FLOOR, STRUCTURE_TOL
from .words import (Presentation, RelationResult, Rep, builtin_presentation,
                    check_relations, record_check)

MatLike = Union[Mat, np.ndarray]

ALGEBRA_PROBE_ANGLE = Angle.pi_fraction(1, 5)  # sample angle for symbolic runs
PRESENTED_D = (2, 7, 11)


def validate_bianchi_d(d: int) -> None:
    if d < 1 or _squarefree(d)[0] != 1:
        raise ValueError(f"d={d} is not a squarefree positive integer")
    if d in (1, 3):
        raise ValueError(f"d={d} has no modular-surface bending family "
                         "(its deformations are classified separately)")


# ---------------------------------------------------------------------------
# Centralizers
# ---------------------------------------------------------------------------

def su31_centralizer(u) -> MatLike:
    """Diag(1, 1, u, 1) at a numeric u: an Angle or a complex number.
    The exact matrix at symbolic u is ``su31_centralizer_exact(d)``."""
    if isinstance(u, Angle):
        u = u.exp_i()
    return np.diag([1.0, 1.0, complex(u), 1.0])


def su31_centralizer_exact(d: int) -> Mat:
    return Mat.ext([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, LaurentPoly.u(), 0],
                    [0, 0, 0, 1]], d)


def so41_centralizer(theta: Angle) -> np.ndarray:
    """The rotation R_34(theta)."""
    c, s = theta.cos(), theta.sin()
    g = np.eye(5)
    g[2:4, 2:4] = [[c, -s], [s, c]]
    return g


def so41_centralizer_q(d: int) -> Mat:
    """R_34(theta) at symbolic u = e^{i theta}, in the basis of
    ``embed_so41_q``: Diag(1, 1, u, 1/u, 1)."""
    return Mat.diagonal([1, 1, LaurentPoly.u(), LaurentPoly.u(-1), 1], "ext", d)


def centralizer(target: str, param) -> MatLike:
    """Dispatcher over the two ambient groups."""
    if target == "su31":
        return su31_centralizer(param)
    if target == "so41":
        return so41_centralizer(param)
    raise ValueError(f"unknown target {target!r}")


# ---------------------------------------------------------------------------
# Generic bending operators
# ---------------------------------------------------------------------------

def _commutes(g: MatLike, h: MatLike) -> bool:
    """Whether g and h commute: exactly for two Mats, else within
    STRUCTURE_TOL times the product of their largest entries (at least 1)."""
    if isinstance(g, Mat) and isinstance(h, Mat):
        return g @ h == h @ g
    g, h = np.asarray(g, dtype=complex), np.asarray(h, dtype=complex)
    scale = float(np.abs(g).max() * np.abs(h).max())
    return float(np.abs(g @ h - h @ g).max()) <= STRUCTURE_TOL * max(1.0, scale)


def _at_u_one(g: Mat) -> list[list[list[Fraction]]]:
    """Every component of every entry of an exact matrix at u = 1, exactly."""
    parts = lambda e: [e] if isinstance(e, LaurentPoly) else e.c
    return [[[p.sum_coeffs() for p in parts(e)] for e in row] for row in g.rows]


def _check_zero_param(centralizer: Callable[[object], MatLike], zero_param) -> None:
    """The centralizer factory must give the identity at the zero
    parameter: a Mat exactly after the substitution u = 1 (the zero
    parameter of a symbolically bent family), a numeric matrix within
    STRUCTURE_TOL."""
    g = centralizer(zero_param)
    if isinstance(g, Mat):
        ok = all(parts == [int(i == j)] + [0] * (len(parts) - 1)
                 for i, row in enumerate(_at_u_one(g)) for j, parts in enumerate(row))
    else:
        g = np.asarray(g, dtype=complex)
        ok = float(np.abs(g - np.eye(g.shape[0])).max()) <= STRUCTURE_TOL
    if not ok:
        raise GeometryError("centralizer factory must give the identity "
                            "at the zero parameter")


@dataclass
class BendDataHNN:
    """HNN bending data: a base representation, the stable-letter symbol
    and image, a parameter -> centralizer-element factory, and the edge
    subgroup generators the factory must centralize."""

    base: Mapping[str, MatLike]
    stable: str
    stable_image: MatLike
    centralizer: Callable[[object], MatLike]
    edge_gens: Sequence[str]
    zero_param: object = 0

    def __post_init__(self):
        if self.stable in self.base:
            raise ValueError("stable letter must not appear in the base rep")
        missing = [s for s in self.edge_gens if s not in self.base]
        if missing:
            raise ValueError(f"edge generators {missing} missing from the base rep")
        _check_zero_param(self.centralizer, self.zero_param)


def _commute_error(sym: str) -> GeometryError:
    return GeometryError(f"centralizer element fails to commute with edge generator {sym!r}")


def bend_hnn(data: BendDataHNN, t) -> dict[str, MatLike]:
    """The bent representation: base generators fixed, stable letter
    composed with the centralizer element at parameter t."""
    g = data.centralizer(t)
    for sym in data.edge_gens:
        if not _commutes(g, data.base[sym]):
            raise _commute_error(sym)
    images = dict(data.base)
    images[data.stable] = (g @ data.stable_image
                           if isinstance(g, Mat) else
                           np.asarray(g) @ np.asarray(data.stable_image))
    return images


@dataclass
class BendDataAmalgam:
    """Amalgam bending data: the two factor representations (agreeing on
    the shared edge symbols) and the centralizer factory."""

    left: Mapping[str, MatLike]
    right: Mapping[str, MatLike]
    centralizer: Callable[[object], MatLike]
    edge_gens: Sequence[str]
    zero_param: object = 0

    def __post_init__(self):
        for sym in self.edge_gens:
            if sym not in self.left or sym not in self.right:
                raise ValueError(f"edge generator {sym!r} must lie in both factors")
            l, r = self.left[sym], self.right[sym]
            same = (l == r) if isinstance(l, Mat) else np.array_equal(l, r)
            if not same:
                raise ValueError(f"factor reps disagree on edge generator {sym!r}")
        _check_zero_param(self.centralizer, self.zero_param)


def bend_amalgam(data: BendDataAmalgam, t) -> dict[str, MatLike]:
    """Left factor fixed, right factor conjugated by the centralizer
    element; well-defined because the edge images are centralized."""
    g = data.centralizer(t)
    for sym in data.edge_gens:
        if not _commutes(g, data.left[sym]):
            raise _commute_error(sym)
    if isinstance(g, Mat):
        g_inv = g.inverse()
        conj = lambda h: g @ h @ g_inv
    else:
        g = np.asarray(g, dtype=complex)
        g_inv = np.linalg.inv(g)
        conj = lambda h: g @ np.asarray(h, dtype=complex) @ g_inv
    images: dict[str, MatLike] = dict(data.left)
    for sym, h in data.right.items():
        if sym not in data.edge_gens:
            images[sym] = conj(h)
    return images


# ---------------------------------------------------------------------------
# The Bianchi lattices in the Siegel models
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)  # as many d as the shared families
def bianchi_lattice_su31(d: int) -> Mapping[str, Mat]:
    """The lattice embedding: a, t generate the modular subgroup, u is
    the extra cusp translation (the stable letter of the splitting).
    T and U are the cusp translations of ``cusp_surds(d)``.  Built once
    per d and process, as a read-only mapping that both targets share."""
    a, b1, b2 = cusp_surds(d)
    A = Mat.ext([[0, 0, 0, -1],
                 [0, -1, 0, 0],
                 [0, 0, 1, 0],
                 [-1, 0, 0, 0]], d)
    return MappingProxyType({"a": A, "t": cusp_matrix_T(a, d), "u": cusp_matrix_U(b1, b2, d)})


def embed_so41(g: Mat) -> Mat:
    """Embed a 4x4 Siegel-model matrix into SO(4,1) by adding a fixed
    fourth spatial coordinate (span position 4 of 5)."""
    rows = [[None] * 5 for _ in range(5)]
    src = (0, 1, 2, 4)
    for i in range(5):
        for j in range(5):
            if i in src and j in src:
                rows[i][j] = g[src.index(i), src.index(j)]
            else:
                rows[i][j] = 1 if i == j == 3 else 0
    return Mat.ext(rows, g.d)


def embed_so41_q(g: Mat) -> Mat:
    """``embed_so41(g)`` in the basis where R_34(theta) is Diag(u, 1/u):
    conjugated as Q* h Q by Q = [[1, 1], [-i, i]]/sqrt2 on span
    coordinates 2 and 3.  h fixes coordinate 3, so no i enters: row and
    column 2 of h become rows and columns 2 and 3 over sqrt2, and its
    entry z = h[2, 2] the block [[z+1, z-1], [z-1, z+1]]/2.  Q is
    unitary on an identity block of the Siegel form, so the form stays."""
    h = embed_so41(g)
    rows = [list(row) for row in h.rows]
    r = ExtScalar(g.d, 0, Fraction(1, 2))  # 1/sqrt2
    for k in (0, 1, 4):
        rows[k][2] = rows[k][3] = h[k, 2] * r
        rows[2][k] = rows[3][k] = h[2, k] * r
    rows[2][2] = rows[3][3] = (h[2, 2] + 1) / 2
    rows[2][3] = rows[3][2] = (h[2, 2] - 1) / 2
    return Mat.ext(rows, g.d)


def cusp_surds(d: int) -> tuple[Surd, Surd, Surd]:
    """The normalized cusp data (a, b1, b2) of the lattice: T translates
    by (a, 0), U by (b1, b2).  U is orthogonal to T (b1 = 0) exactly
    when d is 1 or 2 mod 4."""
    validate_bianchi_d(d)
    # d is squarefree, so 2d is too for odd d, and sqrt(2d) = 2 sqrt(d/2) for even d
    b2 = Surd._reduced(Fraction(-1), 2 * d) if d % 2 else Surd._reduced(Fraction(-2), d // 2)
    a = Surd._reduced(Fraction(1), 2)
    if d % 4 in (1, 2):
        return (a, Surd._reduced(Fraction(0), 1), b2)
    return (a, a / 2, b2 / 2)


def _square(x: Surd) -> Fraction:
    """x^2 = q^2 k, without the Surd product, which reduces k^2 by trial
    division: up to the largest prime factor of k, i.e. d for prime d."""
    return x.q * x.q * x.k


def cusp_matrix_T(a: Surd, d: int) -> Mat:
    """The normalized cusp translation by (a, 0) as an exact matrix."""
    rows = [[1, -a, 0, -_square(a) / 2],
            [0, 1, 0, a],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]
    return Mat.ext(rows, d)


def cusp_matrix_U(b1: Surd, b2: Surd, d: int) -> Mat:
    norm2 = _square(b1) + _square(b2)
    rows = [[1, -b1, -b2, -norm2 / 2],
            [0, 1, 0, b1],
            [0, 0, 1, b2],
            [0, 0, 0, 1]]
    return Mat.ext(rows, d)


# ---------------------------------------------------------------------------
# Instantiated families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BianchiFamily:
    """One bending family, read-only: exact generator images (the stable letter
    already bent), the ambient form and the cusp data; it keeps each decision below."""

    d: int
    target: str
    param: Angle | None    # None: symbolic u
    images: Mapping[str, MatLike]
    form: HermForm
    presentation: Presentation | None
    unbent_u: MatLike | None = None  # the stable letter's lattice image

    @property
    def has_presentation(self) -> bool:
        return self.presentation is not None

    def rep(self) -> Rep:
        return self._rep

    @functools.cached_property
    def _rep(self) -> Rep:  # validated: every generator preserves the form
        return Rep(self.images, self.form)

    @functools.cached_property
    def relations(self) -> tuple[RelationResult, ...] | None:
        return tuple(check_relations(self.rep(), self.presentation)) if self.presentation else None

    @functools.cached_property
    def letter_checks(self) -> tuple[ExtScalar, bool, bool]:
        """su31: the letter's trace, if it is 3 + u, and if u = 1 gives the lattice."""
        trace = self.images["u"].trace()
        return (trace, trace == ExtScalar.from_laurent(LaurentPoly.u() + 3, self.d),
                _at_u_one(self.images["u"]) == _at_u_one(self.unbent_u))

    def sample_decisions(self, tol: float) -> "SampleDecisions":
        """su31 at symbolic u: the letter class and the span probe at
        ``ALGEBRA_PROBE_ANGLE``, decided once per tol, and kept."""
        kept = self._samples
        if tol not in kept:
            kept[tol] = _sample_decisions(self, ALGEBRA_PROBE_ANGLE, tol)
        return kept[tol]

    @functools.cached_property
    def _samples(self) -> dict[float, "SampleDecisions"]:
        return {}

    def numeric_images(self, alpha: Angle | None = None) -> dict[str, np.ndarray]:
        out = {}
        for sym, g in self.images.items():
            out[sym] = g.evaluate(alpha) if isinstance(g, Mat) else np.asarray(g)
        return out

    def cusp_params(self, alpha: Angle) -> CuspParams:
        a, b1, b2 = cusp_surds(self.d)
        return CuspParams(a, b1, b2, alpha)


def bianchi_family(d: int, target: str = "su31", *,
                   theta: Angle | None = None) -> BianchiFamily:
    """Construct the bending family for Bi(d).

    Without theta, the parameter stays symbolic (evaluate with
    numeric_images), and the family is shared per (d, target) and
    process: su31 is bent by Diag(1, 1, u, 1); so41 by Diag(1, 1, u,
    1/u, 1), which is R_34(theta), u = e^{i theta}, in the basis of
    ``embed_so41_q``.  A numeric so41 theta bends the lattice in the real
    basis of ``embed_so41``, which is built once per d and read-only.
    """
    if theta is None:
        return _shared_family(d, target)
    if target != "so41":
        raise ValueError(f"theta bends only the so41 target, not {target!r}")
    data = _bianchi_hnn(_real_so41_lattice(d), so41_centralizer, Angle.zero())
    return BianchiFamily(d, target, theta, MappingProxyType(bend_hnn(data, theta)),
                         siegel_form(5, CONJ_TRANSPOSE), _presentation(d), data.stable_image)


def _presentation(d: int) -> Presentation | None:
    return builtin_presentation("bianchi", d) if d in PRESENTED_D else None


@functools.lru_cache(maxsize=64)  # room for both targets of a few dozen d
def _shared_family(d: int, target: str) -> BianchiFamily:
    validate_bianchi_d(d)
    if target not in ("su31", "so41"):
        raise ValueError(f"unknown target {target!r}")
    lattice = bianchi_lattice_su31(d)
    if target == "su31":
        bend = su31_centralizer_exact(d)
    else:
        lattice = {k: embed_so41_q(g) for k, g in lattice.items()}
        bend = so41_centralizer_q(d)
    # the factory runs for the zero-parameter check and for the bending:
    # both read the one centralizer built here
    data = _bianchi_hnn(lattice, lambda _: bend, None)
    form = siegel_form(4 if target == "su31" else 5, CONJ_TRANSPOSE)
    return BianchiFamily(d, target, None, MappingProxyType(bend_hnn(data, None)), form,
                         _presentation(d), data.stable_image)


@functools.lru_cache(maxsize=64)
def _real_so41_lattice(d: int) -> Mapping[str, np.ndarray]:
    lattice = {k: embed_so41(g).evaluate() for k, g in bianchi_lattice_su31(d).items()}
    for g in lattice.values():
        g.flags.writeable = False
    return MappingProxyType(lattice)


def _bianchi_hnn(lattice: Mapping[str, MatLike], centralizer: Callable[[object], MatLike],
                 zero_param) -> BendDataHNN:
    """The HNN splitting of Bi(d) over the modular subgroup <a, t>: the
    stable letter u of the lattice bent by the centralizer factory."""
    return BendDataHNN(base={k: v for k, v in lattice.items() if k != "u"},
                       stable="u", stable_image=lattice["u"], centralizer=centralizer,
                       edge_gens=("a", "t"), zero_param=zero_param)


@dataclass(frozen=True)
class BianchiSweepRow:
    """The class of the bent stable letter at one grid point
    ("indeterminate", with ``margin``, when too close to call)."""

    param: float
    class_u: str
    margin: float | None = None


class BianchiSweep(NamedTuple):
    """A Bianchi sweep as columns, one entry per grid point: the grid
    value ``param``, the letter's sweep verdict ``code`` (an index into
    ``isometry.VERDICT_TEXTS``) and the ``margin`` of each indeterminate
    point, by its index."""

    param: list
    code: np.ndarray
    margin: dict[int, float]

    def rows(self) -> list[BianchiSweepRow]:
        """The columns as one ``BianchiSweepRow`` per grid point."""
        return [BianchiSweepRow(param, VERDICT_TEXTS[code], self.margin.get(k))
                for k, (param, code) in enumerate(zip(self.param, self.code.tolist()))]


def bianchi_sweep(d: int, target: str, params: Iterable[Angle | float],
                  tol: float = DECISION_TOL) -> list[BianchiSweepRow]:
    """Class of the bent stable letter across a parameter grid (a float
    is an angle in radians): the deformation angle alpha for su31, the
    bending angle theta for so41.  The row view of ``bianchi_columns``."""
    return bianchi_columns(d, target, params, tol).rows()


def bianchi_columns(d: int, target: str, params: Iterable[Angle | float],
                    tol: float = DECISION_TOL) -> BianchiSweep:
    """``bianchi_sweep`` as columns.

    The family is built once, at symbolic u, for either target.  Each
    block of points (``isometry.SWEEP_BLOCK``) is one ``_letter_classes``
    step; the first failure in grid order is the one raised.
    """
    fam = bianchi_family(d, target)
    param: list = []
    codes = [np.zeros(0, dtype=int)]
    margins: dict[int, float] = {}
    for powers, values in grid_blocks(params):
        code, found = sweep_codes(_letter_classes(fam, powers, tol)[1])
        margins.update((len(param) + k, m) for k, m in found.items())
        param += values
        codes.append(code[:, 0])
    return BianchiSweep(param, np.concatenate(codes), margins)


def _letter_classes(fam: BianchiFamily, powers: UnitPowers,
                    tol: float) -> tuple[np.ndarray, Verdicts]:
    """The one evaluation and classification of a Bianchi family's bent
    stable letter: its stack at a block of angles and, in one stacked
    pass against the family's form, its classes as columns."""
    U = fam.images["u"].evaluate_stack(powers)
    return U, classify_columns(U, fam.form.array()[None], fam.form.convention, tol)


# ---------------------------------------------------------------------------
# Burnside probe
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a contiguous complex vector, bit for bit: its
    own formula for that case, without its argument handling."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def algebra_dimension(gens: Sequence[np.ndarray], tol: float = DECISION_TOL,
                      return_margin: bool = False):
    """Dimension of the matrix algebra generated by the given matrices,
    by breadth-first span saturation with a numerical rank oracle.

    Equals n^2 exactly when the matrices act irreducibly.  A rank
    decision within INDETERMINATE_FACTOR of the threshold raises
    IndeterminateError.

    For a full-rank span the margin is set by rounding, not by the
    algebra: it is tol / r for the residual r, about 1e-16, that the
    Gram-Schmidt passes leave of a candidate already in the span
    (9.46e+06 in the d = 2 su31 report).  r depends on the summation
    order of BLAS ``zdotc`` behind ``np.vdot``, and the report goldens
    print the margin, so the loop keeps its candidates, their order and
    every arithmetic operation although the probe takes a few
    milliseconds of a su31 report (1.7 ms for d = 2, the least
    process CPU time of 400 runs on a 2-core x86-64 host, Python 3.11,
    numpy 2.4).  It sheds only call overhead: the norm is ``_norm``, and
    each Gram-Schmidt step updates the candidate in place, bit for bit
    ``w - vdot(q, w) * q`` on fresh arrays (the product keeps its
    operand order: numpy's complex multiply may fuse, and q * c then
    rounds differently).  A symbolic su31 report runs it once per family
    and tol (the family keeps its result); a report at an angle, every
    time.  An exact span that would replace this margin is ROADMAP item 3.
    """
    if not gens or len(gens) > 8:
        raise ValueError("between 1 and 8 generators")
    mats = [np.asarray(g, dtype=complex) for g in gens]
    n = mats[0].shape[0]
    if n > 6:
        raise ValueError("probe supports dimension <= 6")

    basis_vecs: list[np.ndarray] = []
    margin = math.inf

    def try_add(mat: np.ndarray) -> bool:
        nonlocal margin
        v = mat.reshape(-1)
        nv = _norm(v)
        if nv == 0.0:
            return False
        w = v / nv
        c, step = np.empty((), dtype=complex), np.empty_like(w)
        for q in basis_vecs * 2:  # a second pass for orthogonality stability
            # w = w - vdot(q, w) * q in place: numpy multiplies by a 0-d
            # array faster than by the scalar vdot returns, with its bits
            c[()] = np.vdot(q, w)
            np.subtract(w, np.multiply(c, q, step), w)
        r = _norm(w)
        margin = min(margin, (r / tol) if r > tol else (tol / max(r, NORM_FLOOR)))
        if r > tol:
            basis_vecs.append(w / r)
            return True
        return False

    frontier: list[np.ndarray] = []
    eye = np.eye(n, dtype=complex)
    if try_add(eye):
        frontier.append(eye)
    while frontier and len(basis_vecs) < n * n:
        nxt = []
        for b in frontier:
            for g in mats:
                prod = b @ g
                if try_add(prod):
                    nxt.append(prod)
        frontier = nxt
    if margin < INDETERMINATE_FACTOR:
        raise IndeterminateError("algebra span rank decision too close", margin)
    dim = len(basis_vecs)
    return (dim, margin) if return_margin else dim


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _exact_checks(checks: dict, fam: BianchiFamily, form_info: str,
                  law: str) -> list[dict] | None:
    """Record the family's exact decisions: form invariance, which its
    ``rep`` validates, and the relations of a presented d (``law`` ends
    their info).  Returns the relation rows, None without a presentation."""
    fam.rep()  # raises unless every generator preserves the form exactly
    record_check(checks, "formInvariance", True, form_info)
    if fam.relations is None:
        return None
    record_check(checks, "relations", all(r.passed for r in fam.relations),
                 f"{len(fam.relations)} relators{law}")
    return [r.as_dict() for r in fam.relations]


def _letter_class(result) -> tuple[IsoClass | None, str, str]:
    """A report's letter verdict from its ``_letter_classes`` entry: the
    class (None when too close to call), its ``classU`` text and its
    check info.  Any other error is raised."""
    if isinstance(result, IndeterminateError):
        return None, "indeterminate", f"indeterminate, {result}"
    cls = unwrap(result)
    return cls, str(cls), str(cls)


class SampleDecisions(NamedTuple):
    """A su31 report's decisions at one angle: the letter verdict of
    ``_letter_class``, and the span probe's dimension and margin, or the
    message and margin of the IndeterminateError it raised (``dim`` None)."""

    letter: tuple[IsoClass | None, str, str]
    dim: int | None
    margin: float
    error: str | None = None

    def span(self) -> tuple[int, float]:
        """The probe's ``(dim, margin)``; a kept error is raised afresh."""
        if self.error is not None:
            raise IndeterminateError(self.error, self.margin)
        return self.dim, self.margin


def _sample_decisions(fam: BianchiFamily, sample: Angle, tol: float) -> SampleDecisions:
    """The su31 letter class at ``sample``, from its one-point
    ``_letter_classes`` step, and the Burnside probe on a, t and that
    letter, all three evaluated on one block.  A letter error other than
    IndeterminateError is raised."""
    powers = UnitPowers([sample])
    (U,), verdicts = _letter_classes(fam, powers, tol)
    letter = _letter_class(verdicts.results()[0])
    gens = [fam.images["a"].evaluate_stack(powers)[0],
            fam.images["t"].evaluate_stack(powers)[0], U]
    try:
        dim, margin = algebra_dimension(gens, tol=tol, return_margin=True)
    except IndeterminateError as exc:
        return SampleDecisions(letter, None, exc.margin, exc.message)
    return SampleDecisions(letter, dim, margin)


def _report(fam: BianchiFamily, param: float | None, relations: list[dict] | None,
            checks: dict, surds: tuple[Surd, Surd, Surd], verdict: str, *,
            trace_u: str | None, class_u: str, algebra_dim: int | None) -> dict:
    """The report of a Bianchi family: the keys both targets share, in
    their order, with the cusp block of ``cusp_surds`` and its verdict."""
    a, b1, b2 = surds
    return {"family": "bianchi", "d": fam.d, "target": fam.target, "param": param,
            "relations": relations, "traceU": trace_u, "classU": class_u,
            "cusp": {"a": a.value, "b1": b1.value, "b2": b2.value,
                     "orthogonal": b1.is_zero, "verdict": verdict},
            "algebraDim": algebra_dim, "checks": checks,
            "pass": all(c["pass"] for c in checks.values())}


def verify_bianchi_su31(d: int, alpha: Angle | None = None,
                        tol: float = DECISION_TOL) -> dict:
    """Verification report for the SU(3,1) bending family of Bi(d).

    Exact at symbolic u: relations (projective law, d in {2,7,11}),
    form invariance of every generator, the stable-letter trace 3+u,
    and the bent matrix against its lattice value at u=1.  At a numeric
    parameter (or the fixed sample angle for symbolic runs): the
    stable-letter classification and the Burnside irreducibility probe.
    A symbolic report reads these two from the shared family, which
    decides them once per tol (``BianchiFamily.sample_decisions``); a
    report at alpha decides them afresh.
    """
    fam = bianchi_family(d, "su31")
    checks: dict[str, dict] = {}
    relations = _exact_checks(checks, fam, "all generators preserve the Siegel form exactly",
                              ", projective law")

    trace_u, trace_ok, at_one = fam.letter_checks
    record_check(checks, "traceStableLetter", trace_ok, "3 + u separates parameters")
    record_check(checks, "latticeAtOne", at_one, "bent generator reduces to the lattice at u=1")

    a, b1, b2 = cusp_surds(d)
    orthogonal = b1.is_zero
    record_check(checks, "cuspOrthogonality", orthogonal == (d % 4 in (1, 2)),
                 "orthogonal cusp exactly in the 1,2 mod 4 classes")

    if alpha is None:
        sample, decided = ALGEBRA_PROBE_ANGLE, fam.sample_decisions(tol)
    else:
        sample, decided = alpha, _sample_decisions(fam, alpha, tol)
    cls, class_u, info = decided.letter
    if cls is None or not sample.is_zero_mod_2pi():
        record_check(checks, "stableLetterParabolic",
                     cls is not None and cls.kind == "parabolic",
                     f"class at sample angle: {info}")

    dim, margin = decided.span()
    record_check(checks, "irreducible", dim == 16,
                 f"matrix algebra dimension {dim}, margin {margin:.3g}")

    verdict = ("strongly-parabolic-preserving" if orthogonal
               else "parabolic-preserving")
    report = _report(fam, None if alpha is None else alpha.value, relations, checks,
                     (a, b1, b2), verdict, trace_u=str(trace_u), class_u=class_u,
                     algebra_dim=dim)
    if alpha is None:
        report["classSampleAlpha"] = ALGEBRA_PROBE_ANGLE.value
    return report


def verify_bianchi_so41(d: int, theta: Angle, *, tol: float = DECISION_TOL) -> dict:
    """Verification report for the SO(4,1) bending family of Bi(d).

    The family is built once, at symbolic u.  Exact there, so for every
    theta at once: form invariance of every generator and the relations
    (d in {2,7,11}).  Its letter, evaluated at theta, is classified, and
    the cusp-group verdict is taken at theta.  The deformed stable
    letter is elliptic when the cusp is orthogonal (b1 = 0) and
    ellipto-parabolic otherwise; in the latter case the R x S^1
    trichotomy decides discreteness of the cusp image.
    """
    fam = bianchi_family(d, "so41")
    checks: dict[str, dict] = {}
    relations = _exact_checks(checks, fam, "all generators preserve the Siegel form exactly "
                              "at symbolic u", " at symbolic u")
    a, b1, b2 = cusp_surds(d)
    cls, class_u, info = _letter_class(
        _letter_classes(fam, UnitPowers([theta]), tol)[1].results()[0])
    kind = cls.kind if cls is not None else None
    if theta.is_zero_mod_2pi():
        record_check(checks, "undeformedUnipotent",
                     kind == "parabolic" and "unipotent" in class_u, info)
        verdict = "undeformed-lattice-cusp"
    elif b1.is_zero:
        record_check(checks, "stableLetterElliptic", kind == "elliptic", info)
        verdict = "elliptic-generator (not parabolic-preserving)"
    else:
        record_check(checks, "stableLetterElliptoParabolic",
                     class_u == "parabolic(ellipto-parabolic)", info)
        rs1 = rs1_classify(RS1Element(a, Angle.zero()), RS1Element(b1, theta))
        verdict = str(rs1)
        record_check(checks, "cuspTrichotomy", True, f"rs1 verdict: {rs1}")

    is_strong_angle = theta.is_pi_rational and theta.pi_frac % 1 == 0
    record_check(checks, "stronglyParabolicOnlyAtHalfTurns", True,
                 "strongly parabolic-preserving only at theta in {0, pi}"
                 + (" (this theta qualifies)" if is_strong_angle else ""))
    return _report(fam, theta.value, relations, checks, (a, b1, b2), verdict,
                   trace_u=None, class_u=class_u, algebra_dim=None)
