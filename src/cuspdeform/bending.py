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
  pair.

All lattice and bent matrices are exact over Q(sqrt2, sqrt d) tensor
Q[u, u^-1]; none are normalized to determinant one, so classification
downstream is scalar-invariant by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .heisenberg import CuspParams, RS1Element, rs1_classify
from .isometry import IsoClass, classify, classify_stack, grid_blocks, sweep_verdict
from .matrices import (CONJ_TRANSPOSE, GeometryError, HermForm,
                       IndeterminateError, Mat, UnitPowers, siegel_form)
from .scalars import Angle, ExtScalar, LaurentPoly, Surd, _squarefree
from .tolerances import (DECISION_TOL, INDETERMINATE_FACTOR, LATTICE_AT_ONE_TOL,
                         NORM_FLOOR, STRUCTURE_TOL)
from .words import (Presentation, Rep, builtin_presentation, check_relations,
                    record_check)

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
    return so41_centralizers([theta])[0]


def so41_centralizers(thetas: Sequence[Angle]) -> np.ndarray:
    """The rotation R_34(theta) at each angle of a block, as a stack."""
    c = [theta.cos() for theta in thetas]
    s = [theta.sin() for theta in thetas]
    g = np.tile(np.eye(5), (len(c), 1, 1))
    g[:, 2, 2] = c
    g[:, 2, 3] = [-x for x in s]
    g[:, 3, 2] = s
    g[:, 3, 3] = c
    return g


def pythagorean_pair(s: Fraction) -> tuple[Fraction, Fraction]:
    """Exact point on the circle: ((1-s^2)/(1+s^2), 2s/(1+s^2))."""
    s = Fraction(s)
    den = 1 + s * s
    return ((1 - s * s) / den, 2 * s / den)


def so41_centralizer_exact(d: int, cos_sin: tuple[Fraction, Fraction]) -> Mat:
    c, s = cos_sin
    if c * c + s * s != 1:
        raise ValueError("exact rotation needs cos^2 + sin^2 = 1 exactly")
    return Mat.ext([[1, 0, 0, 0, 0],
                    [0, 1, 0, 0, 0],
                    [0, 0, c, -s, 0],
                    [0, 0, s, c, 0],
                    [0, 0, 0, 0, 1]], d)


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
    if isinstance(g, Mat) and isinstance(h, Mat):
        return g @ h == h @ g
    return _commuting(np.asarray(g)[None], h)[0]


def _commuting(G: np.ndarray, h: MatLike) -> list[bool]:
    """Whether each matrix of a stack (K, n, n) commutes with h, within
    STRUCTURE_TOL times the product of their largest entries (at least 1)."""
    G = np.asarray(G, dtype=complex)
    h = np.asarray(h, dtype=complex)
    scales = (np.abs(G).max(axis=(1, 2)) * np.abs(h).max()).tolist()
    defects = np.abs(G @ h - h @ G).max(axis=(1, 2)).tolist()
    return [defect <= STRUCTURE_TOL * max(1.0, scale)
            for defect, scale in zip(defects, scales)]


def _check_zero_param(centralizer: Callable[[object], MatLike], zero_param) -> None:
    """The centralizer factory must give the identity at the zero
    parameter: a Mat exactly after the substitution u = 1 (the zero
    parameter of a symbolically bent family), a numeric matrix within
    STRUCTURE_TOL."""
    g = centralizer(zero_param)
    if isinstance(g, Mat):  # every component of every entry, at u = 1
        parts = lambda e: [e] if isinstance(e, LaurentPoly) else e.c
        ok = all(p.sum_coeffs() == int(i == j and k == 0)
                 for i in range(g.n) for j in range(g.n)
                 for k, p in enumerate(parts(g[i, j])))
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

def bianchi_lattice_su31(d: int) -> dict[str, Mat]:
    """The lattice embedding: a, t generate the modular subgroup, u is
    the extra cusp translation (the stable letter of the splitting).
    T and U are the cusp translations of ``cusp_surds(d)``."""
    a, b1, b2 = cusp_surds(d)
    A = Mat.ext([[0, 0, 0, -1],
                 [0, -1, 0, 0],
                 [0, 0, 1, 0],
                 [-1, 0, 0, 0]], d)
    return {"a": A, "t": cusp_matrix_T(a, d), "u": cusp_matrix_U(b1, b2, d)}


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


def bianchi_lattice_so41(d: int) -> dict[str, Mat]:
    return {sym: embed_so41(g) for sym, g in bianchi_lattice_su31(d).items()}


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


def cusp_matrix_T(a: Surd, d: int, size: int = 4) -> Mat:
    """The normalized cusp translation by (a, 0) as an exact matrix."""
    rows = [[1, -a, 0, -_square(a) / 2],
            [0, 1, 0, a],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]
    g = Mat.ext(rows, d)
    return embed_so41(g) if size == 5 else g


def cusp_matrix_U(b1: Surd, b2: Surd, d: int, size: int = 4) -> Mat:
    norm2 = _square(b1) + _square(b2)
    rows = [[1, -b1, -b2, -norm2 / 2],
            [0, 1, 0, b1],
            [0, 0, 1, b2],
            [0, 0, 0, 1]]
    g = Mat.ext(rows, d)
    return embed_so41(g) if size == 5 else g


# ---------------------------------------------------------------------------
# Instantiated families
# ---------------------------------------------------------------------------

@dataclass
class BianchiFamily:
    """One bending family: exact generator images (the stable letter
    already bent), the ambient form, and the cusp data."""

    d: int
    target: str
    param: object          # None (symbolic u), Angle, or (cos, sin) Fractions
    images: dict[str, MatLike]
    form: HermForm
    presentation: Presentation | None
    unbent_u: MatLike | None = None  # the stable letter's lattice image

    @property
    def has_presentation(self) -> bool:
        return self.presentation is not None

    def rep(self) -> Rep:
        return Rep(self.images, self.form)

    def numeric_images(self, alpha: Angle | None = None) -> dict[str, np.ndarray]:
        out = {}
        for sym, g in self.images.items():
            out[sym] = g.evaluate(alpha) if isinstance(g, Mat) else np.asarray(g)
        return out

    def cusp_params(self, alpha: Angle) -> CuspParams:
        a, b1, b2 = cusp_surds(self.d)
        return CuspParams(a, b1, b2, alpha)


def bianchi_family(d: int, target: str = "su31", *,
                   theta: Angle | None = None,
                   pythagorean: Fraction | None = None) -> BianchiFamily:
    """Construct the bending family for Bi(d).

    su31: the parameter stays symbolic (evaluate with numeric_images).
    so41: pass either a numeric angle theta or an exact Pythagorean
    slope s (cos, sin = (1-s^2)/(1+s^2), 2s/(1+s^2)).
    """
    return _bianchi_family(d, target, theta, pythagorean, None)


def _bianchi_family(d: int, target: str, theta: Angle | None, pythagorean: Fraction | None,
                    so41_lattice: dict[str, Mat] | None) -> BianchiFamily:
    """``bianchi_family``, on ``bianchi_lattice_so41(d)`` when the caller
    has built it already (``so41_lattice``), else on a new one."""
    validate_bianchi_d(d)
    pres = builtin_presentation("bianchi", d) if d in PRESENTED_D else None
    if target == "su31":
        param = None  # symbolic u; its zero parameter None stands for u = 1
        data = _bianchi_hnn(bianchi_lattice_su31(d),
                            lambda _: su31_centralizer_exact(d), None)
        images = bend_hnn(data, param)
    elif target == "so41":
        if theta is None and pythagorean is None:
            raise ValueError("so41 family needs either theta or a pythagorean slope")
        lattice = bianchi_lattice_so41(d) if so41_lattice is None else so41_lattice
        if pythagorean is not None:
            param = pythagorean_pair(pythagorean)
            data = _bianchi_hnn(lattice, lambda p: so41_centralizer_exact(d, p),
                                (Fraction(1), Fraction(0)))
            images = bend_hnn(data, param)
        else:
            param, data = theta, _so41_bend_data(lattice)
            U, failure = _so41_letters(data, [theta])
            if failure is not None:
                raise failure
            images = {**data.base, data.stable: U[0]}
    else:
        raise ValueError(f"unknown target {target!r}")
    form = siegel_form(4 if target == "su31" else 5, CONJ_TRANSPOSE)
    return BianchiFamily(d, target, param, images, form, pres, data.stable_image)


def _so41_letters(data: BendDataHNN, thetas: Sequence[Angle]
                  ) -> tuple[np.ndarray, GeometryError | None]:
    """``bend_hnn(data, theta)["u"]`` at each angle of a block, as one
    stack: the rotations, their commute checks with the edge generators
    and the products with the stable letter.  Returns the letters and
    None; or, at the first angle whose rotation fails to commute, the
    letters of the earlier angles and the error ``bend_hnn`` raises."""
    G = so41_centralizers(thetas)
    stop, failure = len(G), None
    for sym in data.edge_gens:  # the first failing angle, then symbol
        for k, ok in enumerate(_commuting(G[:stop], data.base[sym])):
            if not ok:
                stop, failure = k, _commute_error(sym)
                break
    return G[:stop] @ np.asarray(data.stable_image), failure


def _bianchi_hnn(lattice: Mapping[str, MatLike], centralizer: Callable[[object], MatLike],
                 zero_param) -> BendDataHNN:
    """The HNN splitting of Bi(d) over the modular subgroup <a, t>: the
    stable letter u of the lattice bent by the centralizer factory."""
    return BendDataHNN(base={k: v for k, v in lattice.items() if k != "u"},
                       stable="u", stable_image=lattice["u"], centralizer=centralizer,
                       edge_gens=("a", "t"), zero_param=zero_param)


def _so41_bend_data(lattice: Mapping[str, Mat]) -> BendDataHNN:
    """HNN data of the numeric so41 bending: the exact so41 lattice
    evaluated once, bent by the rotation R_34(theta) at any angle theta."""
    return _bianchi_hnn({k: v.evaluate() for k, v in lattice.items()},
                        so41_centralizer, Angle.zero())


@dataclass(frozen=True)
class BianchiSweepRow:
    """The class of the bent stable letter at one grid point
    ("indeterminate", with ``margin``, when too close to call)."""

    param: float
    class_u: str
    margin: float | None = None


def bianchi_sweep(d: int, target: str, params: Iterable[Angle | float],
                  tol: float = DECISION_TOL) -> list[BianchiSweepRow]:
    """Class of the bent stable letter across a parameter grid (a float
    is an angle in radians): the deformation angle alpha for su31, the
    bending angle theta for so41.

    The family is built once.  Per block of points
    (``isometry.SWEEP_BLOCK``), su31 evaluates only the bent letter, as
    one stack; so41 only composes the rotations with the numeric lattice
    letter, still checking that each commutes with the edge generators.
    Each block of letters is classified in one stacked pass; the first
    failure in grid order is the one raised.
    """
    if target == "su31":
        fam = bianchi_family(d, "su31")
        letters = lambda angles: (fam.images["u"].evaluate_stack(UnitPowers(angles)), None)
        form = fam.form
    elif target == "so41":
        data = _so41_bend_data(bianchi_lattice_so41(d))
        letters = lambda angles: _so41_letters(data, angles)
        form = siegel_form(5, CONJ_TRANSPOSE)
    else:
        raise ValueError(f"unknown target {target!r}")

    rows = []
    for angles, values, failure in grid_blocks(params):
        U, exc = letters(angles)
        if exc is not None:  # at an earlier point than the grid's failure
            failure = exc
        if len(U):
            results = classify_stack(U, form, tol=tol)
            for value, result in zip(values, results):
                rows.append(BianchiSweepRow(value, *sweep_verdict(result)))
        if failure is not None:
            raise failure
    return rows


# ---------------------------------------------------------------------------
# Burnside probe
# ---------------------------------------------------------------------------

def algebra_dimension(gens: Sequence[np.ndarray], tol: float = DECISION_TOL,
                      return_margin: bool = False):
    """Dimension of the matrix algebra generated by the given matrices,
    by breadth-first span saturation with a numerical rank oracle.

    Equals n^2 exactly when the matrices act irreducibly.  A rank
    decision within INDETERMINATE_FACTOR of the threshold raises
    IndeterminateError.
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
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return False
        w = v / nv
        for q in basis_vecs:
            w = w - np.vdot(q, w) * q
        for q in basis_vecs:  # second pass for orthogonality stability
            w = w - np.vdot(q, w) * q
        r = float(np.linalg.norm(w))
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
    """Record what the exact family decides: form invariance, which its
    construction validated, and the relations of a presented d (``law``
    ends their info).  Returns the relation rows, None without a
    presentation."""
    rep = fam.rep()  # construction validates exact form invariance
    record_check(checks, "formInvariance", True, form_info)
    if not fam.has_presentation:
        return None
    results = check_relations(rep, fam.presentation)
    record_check(checks, "relations", all(r.passed for r in results),
                 f"{len(results)} relators{law}")
    return [r.as_dict() for r in results]


def _letter_class(U: np.ndarray, form: HermForm,
                  tol: float) -> tuple[IsoClass | None, str, str]:
    """The stable letter's class (None when too close to call), its
    ``classU`` text and its check info."""
    try:
        cls = classify(U, form, tol=tol)
    except IndeterminateError as exc:
        return None, "indeterminate", f"indeterminate, {exc}"
    return cls, str(cls), str(cls)


def verify_bianchi_su31(d: int, alpha: Angle | None = None,
                        tol: float = DECISION_TOL) -> dict:
    """Verification report for the SU(3,1) bending family of Bi(d).

    Exact at symbolic u: relations (projective law, d in {2,7,11}),
    form invariance of every generator, the stable-letter trace 3+u,
    and the bent matrix against its lattice value at u=1.  At a numeric
    parameter (or the fixed sample angle for symbolic runs): the
    stable-letter classification and the Burnside irreducibility probe.
    """
    fam = bianchi_family(d, "su31")
    checks: dict[str, dict] = {}
    relations = _exact_checks(checks, fam, "all generators preserve the Siegel form exactly",
                              ", projective law")

    trace_u = fam.images["u"].trace()
    want = LaurentPoly.u() + 3
    trace_ok = trace_u == ExtScalar.from_laurent(want, d)
    record_check(checks, "traceStableLetter", trace_ok, "3 + u separates parameters")

    at_one = fam.images["u"].evaluate(Angle.zero())
    lattice_u = fam.unbent_u.evaluate()
    record_check(checks, "latticeAtOne",
                 bool(np.abs(at_one - lattice_u).max() < LATTICE_AT_ONE_TOL),
                 "bent generator reduces to the lattice at u=1")

    a, b1, b2 = cusp_surds(d)
    orthogonal = b1.is_zero
    record_check(checks, "cuspOrthogonality", orthogonal == (d % 4 in (1, 2)),
                 "orthogonal cusp exactly in the 1,2 mod 4 classes")

    sample = alpha if alpha is not None else ALGEBRA_PROBE_ANGLE
    num = fam.numeric_images(sample)
    cls, class_u, info = _letter_class(num["u"], fam.form, tol)
    if cls is None or not sample.is_zero_mod_2pi():
        record_check(checks, "stableLetterParabolic",
                     cls is not None and cls.kind == "parabolic",
                     f"class at sample angle: {info}")

    dim, margin = algebra_dimension(list(num.values()), tol=tol, return_margin=True)
    record_check(checks, "irreducible", dim == 16,
                 f"matrix algebra dimension {dim}, margin {margin:.3g}")

    verdict = ("strongly-parabolic-preserving" if orthogonal
               else "parabolic-preserving")
    report = {
        "family": "bianchi",
        "d": d,
        "target": "su31",
        "param": None if alpha is None else alpha.value,
        "relations": relations,
        "traceU": str(trace_u),
        "classU": class_u,
        "cusp": {
            "a": a.value, "b1": b1.value, "b2": b2.value,
            "orthogonal": orthogonal,
            "verdict": verdict,
        },
        "algebraDim": dim,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }
    if alpha is None:
        report["classSampleAlpha"] = ALGEBRA_PROBE_ANGLE.value
    return report


def verify_bianchi_so41(d: int, theta: Angle,
                        pythagorean: Fraction | None = Fraction(1, 2),
                        tol: float = DECISION_TOL) -> dict:
    """Verification report for the SO(4,1) bending family of Bi(d).

    Exact checks run at a rational point of the circle (the Pythagorean
    slope); classification and the cusp-group verdict run at theta.
    The deformed stable letter is elliptic when the cusp is orthogonal
    (b1 = 0) and ellipto-parabolic otherwise; in the latter case the
    R x S^1 trichotomy decides discreteness of the cusp image.
    """
    checks: dict[str, dict] = {}
    relations = None
    lattice = bianchi_lattice_so41(d)  # for the exact family and the one at theta
    if pythagorean is not None:
        relations = _exact_checks(
            checks, _bianchi_family(d, "so41", None, pythagorean, lattice),
            f"generators preserve 2 x1 x5 + y^2 + z^2 + w^2 exactly (slope {pythagorean})",
            " at the exact rotation")

    fam = _bianchi_family(d, "so41", theta, None, lattice)
    a, b1, b2 = cusp_surds(d)
    cls, class_u, info = _letter_class(fam.images["u"], fam.form, tol)
    kind = cls.kind if cls is not None else None
    if theta.is_zero_mod_2pi():
        record_check(checks, "undeformedUnipotent",
                     kind == "parabolic" and "unipotent" in class_u, info)
    elif b1.is_zero:
        record_check(checks, "stableLetterElliptic", kind == "elliptic", info)
    else:
        record_check(checks, "stableLetterElliptoParabolic",
                     class_u == "parabolic(ellipto-parabolic)", info)

    verdict: str
    if theta.is_zero_mod_2pi():
        verdict = "undeformed-lattice-cusp"
    elif b1.is_zero:
        verdict = "elliptic-generator (not parabolic-preserving)"
    else:
        rs1 = rs1_classify(RS1Element(a, Angle.zero()), RS1Element(b1, theta))
        verdict = str(rs1)
        record_check(checks, "cuspTrichotomy", True, f"rs1 verdict: {rs1}")

    is_strong_angle = theta.is_pi_rational and theta.pi_frac % 1 == 0
    record_check(checks, "stronglyParabolicOnlyAtHalfTurns", True,
                 "strongly parabolic-preserving only at theta in {0, pi}"
                 + (" (this theta qualifies)" if is_strong_angle else ""))

    report = {
        "family": "bianchi",
        "d": d,
        "target": "so41",
        "param": theta.value,
        "relations": relations,
        "traceU": None,
        "classU": class_u,
        "cusp": {
            "a": a.value, "b1": b1.value, "b2": b2.value,
            "orthogonal": b1.is_zero,
            "verdict": verdict,
        },
        "algebraDim": None,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }
    return report
