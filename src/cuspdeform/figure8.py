"""The one-parameter deformation family of the figure-eight knot group.

The group is <m, n | m w = w n>, w = [n, m^-1].  The family sends m, n
to explicit 4x4 matrices M, N over Z[u, u^-1, 1/2]; on the unit circle
u = e^{i alpha} the image preserves a u-dependent Hermitian form J of
signature (3,1) for |alpha| < 2pi/3 and (2,2) on the outer arcs.  At
u = 1 the family is the holonomy of the complete hyperbolic structure.

The peripheral subgroup is generated by m together with the longitude
l = n m^-1 n^-1 m^2 n^-1 m^-1 n; its image has spectrum {u, u, u,
conj(u)^3} and stays non-diagonalizable, hence parabolic, throughout
the inner arc.  Traces of group elements land in Z[u, u^-1], which is
what makes the images discrete at the special roots of unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .isometry import (IndeterminateError, Parabolic, classify, classify_stack,
                       evaluate_blocks, sweep_verdict)
from .matrices import (GeometryError, HermForm, Mat, Signature,
                       TRANSPOSE_CONJ, eigen, form_preserved, herm_signature,
                       signatures)
from .scalars import Angle, LaurentPoly
from .words import (COMMUTATOR_CONVENTION, Rep, Word,
                    builtin_presentation, check_relations)

_u = LaurentPoly.u
_c = LaurentPoly.const
_half = Fraction(1, 2)

M_WORD = Word.gen("m")
L_WORD = Word.parse("n.m^-1.n^-1.m^2.n^-1.m^-1.n")

# the nine trace-witness words shipped with the family
TRACE_WITNESS_WORDS = (
    Word.parse("m"),
    Word.parse("n"),
    Word.parse("m.n"),
    Word.parse("m.n^-1"),
    Word.parse("m.n.m"),
    Word.parse("m.n^-1.m"),
    Word.parse("m.n.m^-1.n^-1"),
    Word.parse("m.n.m.n^-1"),
    Word.parse("m.n^-1.m.n"),
)

SPECIAL_DISCRETE_FRACTIONS = (
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2),
    Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3),
)

INNER_ARC_BOUND = 2 * math.pi / 3


def generator_m() -> Mat:
    u = _u()
    return Mat.laurent([
        [1, 0, 1, u / 2 - 1],
        [0, 1, 1, u / 2],
        [0, 0, 1, (u + 1) / 2],
        [0, 0, 0, 1],
    ])


def generator_n() -> Mat:
    ub = _u(-1)
    return Mat.laurent([
        [1, 0, 0, 0],
        [(ub + 1) * 2, 1, 0, 0],
        [2, 1, 1, 0],
        [1, 1, 0, 1],
    ])


def form_matrix() -> Mat:
    u, ub = _u(), _u(-1)
    uu = u + ub
    return Mat.laurent([
        [1 + uu / 2, -1 - uu / 2, 1 + u, -3 - uu * 2 - ub ** 2],
        [-1 - uu / 2, 1 + uu / 2, -1 - u, 1 + u],
        [1 + ub, -1 - ub, 4 + uu * 2, -4 - uu * 2],
        [-3 - uu * 2 - u ** 2, 1 + ub, -4 - uu * 2, 4 + uu * 2],
    ])


def longitude_matrix() -> Mat:
    """The longitude image, transcribed entry-by-entry (the build is
    cross-checked against evaluating the longitude word)."""
    u, ub = _u(), _u(-1)
    ub2, ub3 = _u(-2), _u(-3)
    return Mat.laurent([
        [(u - 1 - ub - ub2) / 2, (u + 1 + ub + ub2) / 2,
         -1 - ub2, (u * 5 + 6 + ub * 2 + ub2 * 3) / 2],
        [(u - 1 - ub - ub2 - ub3 * 2) / 2, (u + 1 + ub + ub2 + ub3 * 2) / 2,
         1 - ub * 2 + ub2 - ub3 * 2, (u * 7 + 4 + ub * 10 + ub2 + ub3 * 6) / 2],
        [0, 0, u, 0],
        [0, 0, 0, u],
    ])


def det_form_laurent() -> LaurentPoly:
    """The determinant of the form as an exact Laurent polynomial."""
    out = _c(-96)
    for k, coef in ((1, -83), (2, -53), (3, -24), (4, -7), (5, -1)):
        out = out + _u(k) * coef + _u(-k) * coef
    return out


def det_form_closed(alpha: Angle) -> float:
    """Closed form -4 (cos a + 1)^2 (2 cos a + 1)^3 of the form
    determinant."""
    c = alpha.cos()
    return -4.0 * (c + 1.0) ** 2 * (2.0 * c + 1.0) ** 3


@dataclass(frozen=True)
class Fig8Family:
    """The family at one parameter value (symbolic when alpha is None)."""

    alpha: Angle | None
    M: Mat | np.ndarray
    N: Mat | np.ndarray
    form: HermForm
    rep: Rep

    def longitude(self):
        return self.rep.evaluate(L_WORD)


def build_family(alpha: Angle | None = None, tol: float = 1e-10) -> Fig8Family:
    """Construct the family symbolically (alpha=None) or at a unit
    parameter; the defining invariants (relation, form invariance) are
    verified at construction and a failure is a transcription bug."""
    M_exact, N_exact, J_exact = generator_m(), generator_n(), form_matrix()
    relator = builtin_presentation("figure8").relators[0]
    if alpha is None:
        form = HermForm(J_exact, TRANSPOSE_CONJ)
        rep = Rep({"m": M_exact, "n": N_exact}, form)  # validates invariance
        if not rep.evaluate(relator).is_identity():
            raise AssertionError("internal error: defining relation failed symbolically")
        return Fig8Family(None, M_exact, N_exact, form, rep)
    form = HermForm(J_exact.evaluate(alpha), TRANSPOSE_CONJ)
    return _numeric_family(alpha, M_exact, N_exact, form, relator, tol)


def _numeric_family(alpha: Angle, M_exact: Mat, N_exact: Mat, form: HermForm,
                    relator: Word, tol: float = 1e-10) -> Fig8Family:
    """The family at alpha from the exact generators and the form
    already evaluated there; form invariance and the defining relation
    are checked as in ``build_family``."""
    M = M_exact.evaluate(alpha)
    N = N_exact.evaluate(alpha)
    rep = Rep({"m": M, "n": N}, form, form_tol=tol)
    defect = float(np.abs(rep.evaluate(relator) - np.eye(4)).max())
    if defect > tol:
        raise AssertionError(
            f"internal error: defining relation defect {defect:.3g} at alpha")
    return Fig8Family(alpha, M, N, form, rep)


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One grid point of a figure-eight sweep.  ``classes`` holds the
    classes of m and the longitude, computed on the signature-(3,1) arc
    away from alpha = 0 (both "indeterminate", with ``margin``, when a
    decision was too close to call)."""

    alpha: float
    signature: Signature
    expected: tuple[int, int]
    det_value: float
    classes: tuple[str, str] | None = None
    margin: float | None = None

    @property
    def on_arc(self) -> bool:
        return self.signature.as_tuple() == self.expected + (0,)


ARC_TRANSITIONS = (Fraction(2, 3), Fraction(1), Fraction(4, 3))  # multiples of pi, mod 2


def expected_arc(alpha: Angle | float, exclusion: float) -> tuple[int, int] | None:
    """The signature the arc dictates, or None inside an exclusion zone
    around the transition angles +-2pi/3 and +-pi.  A float is an angle
    in radians.  A pi-rational angle is placed by its exact multiple of
    pi, so a transition never gets an expectation from rounding."""
    if isinstance(alpha, Angle):
        if alpha.is_pi_rational:
            f = alpha.pi_frac % 2
            if f in ARC_TRANSITIONS:
                return None
            want = ((3, 1) if f < ARC_TRANSITIONS[0] or f > ARC_TRANSITIONS[2]
                    else (2, 2))
            if exclusion <= 0 or expected_arc(alpha.value, exclusion) == want:
                return want
            return None
        alpha = alpha.value
    a = abs(math.remainder(alpha, 2 * math.pi))
    if a < INNER_ARC_BOUND - exclusion:
        return (3, 1)
    if INNER_ARC_BOUND + exclusion < a < math.pi - exclusion:
        return (2, 2)
    return None


def figure8_sweep(alphas: Iterable[Angle | float], exclusion: float = 0.01,
                  tol: float = 1e-9) -> list[SweepRow]:
    """Signature and determinant of the form across a parameter grid
    (a float is an angle in radians), skipping the exclusion zones, plus
    the peripheral classes on the signature-(3,1) arc away from 0.  A
    signature off its arc is reported in its row (``on_arc``).

    The exact generators and form are built once.  At each point the
    form is evaluated once and, on the arc, the numeric family, which
    still checks form invariance and the defining relation.  Per block
    of points (``isometry.SWEEP_BLOCK``) one eigvalsh and one det call
    give the signatures and determinants, and one stacked
    classification the peripheral classes.  The first failure in grid
    order is the one raised.
    """
    M_exact, N_exact, J_exact = generator_m(), generator_n(), form_matrix()
    relator = builtin_presentation("figure8").relators[0]

    def evaluate(x):
        alpha, value = (x, x.value) if isinstance(x, Angle) else (Angle.radians(x), x)
        want = expected_arc(alpha, exclusion)
        if want is None:
            return None
        form = HermForm(J_exact.evaluate(alpha), TRANSPOSE_CONJ)
        pair = None
        if want == (3, 1) and abs(value) > 1e-12:
            fam = _numeric_family(alpha, M_exact, N_exact, form, relator)
            pair = (fam.M, fam.longitude())
        return value, want, form, pair

    rows = []
    for points, failure in evaluate_blocks(alphas, evaluate):
        points = [p for p in points if p is not None]
        if points:
            J = np.stack([form.mat for _, _, form, _ in points])
            dets = np.linalg.det(J).real.tolist()
            arc = [p for p in points if p[3] is not None]
            results = classify_stack(np.stack([A for p in arc for A in p[3]]),
                                     [p[2] for p in arc for _ in p[3]],
                                     tol=tol) if arc else []
            pairs = iter(zip(results[0::2], results[1::2]))
            for (value, want, _, pair), sig, det in zip(points, signatures(J, tol), dets):
                classes = margin = None
                if pair is not None:
                    result_m, result_l = next(pairs)
                    class_m, margin = sweep_verdict(result_m)
                    if margin is None:  # the longitude's class counts only then
                        class_l, margin = sweep_verdict(result_l)
                    classes = ((class_m, class_l) if margin is None
                               else ("indeterminate", "indeterminate"))
                rows.append(SweepRow(value, sig, want, det, classes, margin))
        if failure is not None:
            raise failure
    return rows


def signature_sweep(alphas: Iterable[Angle | float], exclusion: float = 0.01,
                    tol: float = 1e-9) -> list[SweepRow]:
    """``figure8_sweep`` with a positive exclusion radius, where a
    signature off its arc raises."""
    if exclusion <= 0:
        raise ValueError("exclusion radius must be positive")
    rows = figure8_sweep(alphas, exclusion, tol)
    for r in rows:
        if not r.on_arc:
            raise GeometryError(
                f"signature {r.signature} at alpha={r.alpha!r}, expected {r.expected}")
    return rows


def parabolicity_report(alpha: Angle, tol: float = 1e-9) -> dict:
    """Classes of the peripheral generators on the signature-(3,1) arc,
    plus the longitude spectrum clusters."""
    a = abs(math.remainder(alpha.value, 2 * math.pi))
    if not a < INNER_ARC_BOUND:
        raise GeometryError("peripheral classification is stated only on the "
                            "|alpha| < 2pi/3 arc")
    return _parabolicity(build_family(alpha), tol)


def _parabolicity(fam: Fig8Family, tol: float) -> dict:
    L = fam.longitude()
    classes = {
        "m": classify(fam.M, fam.form, tol=tol),
        "l": classify(L, fam.form, tol=tol),
    }
    spectrum = [(cl.value, cl.alg, cl.geo) for cl in eigen(L, tol=tol).clusters]
    return {"classes": classes, "l_spectrum": spectrum, "alpha": fam.alpha.value}


def trace_integrality_check(extra_words: Sequence[Word] = ()) -> list[dict]:
    """Exact traces of the built-in witness words (plus user words) with
    their Z[u, u^-1]-membership verdicts."""
    return _trace_rows(build_family(None), extra_words)


def _trace_rows(fam: Fig8Family, extra_words: Sequence[Word]) -> list[dict]:
    out = []
    for w in tuple(TRACE_WITNESS_WORDS) + tuple(extra_words):
        tr = fam.rep.trace(w)
        out.append({"word": str(w), "trace": tr, "integral": tr.is_integral()})
    return out


def _is_special_point(alpha: Angle) -> bool:
    if not alpha.is_pi_rational:
        return False
    return (alpha.pi_frac % 2) in tuple(f % 2 for f in SPECIAL_DISCRETE_FRACTIONS)


def figure8_report(alpha: Angle | None = None,
                   extra_words: Sequence[Word] = (),
                   tol: float = 1e-9) -> dict:
    """Full verification report (JSON-ready dict).

    Exact checks (relation, form invariance, longitude transcription,
    determinant identity, trace integrality, peripheral commutativity)
    always run symbolically; a numeric parameter adds the signature,
    classification and determinant-law rows at that angle.
    """
    sym = build_family(None)
    pres = builtin_presentation("figure8")
    checks: dict[str, dict] = {}

    def record(name: str, ok: bool, info: str = "") -> None:
        checks[name] = {"pass": bool(ok), "info": info}

    rel = check_relations(sym.rep, pres)[0]
    record("relation", bool(rel.exact), f"relator {rel.relator}")
    record("formInvarianceM", form_preserved(sym.M, sym.form))
    record("formInvarianceN", form_preserved(sym.N, sym.form))

    L = sym.longitude()
    record("longitudeTranscription", L == longitude_matrix())
    record("longitudeDet", L.det() == LaurentPoly.one())
    record("detIdentity", sym.form.mat.det() == det_form_laurent())

    record("peripheralCommute", sym.M @ L == L @ sym.M)

    tr_mn = sym.rep.trace(Word.parse("m.n"))
    record("separatingTrace", tr_mn == LaurentPoly.u() + 6,
           "trace of the m*n image is 6+u, injective on the circle")

    traces = {}
    all_integral = True
    for row in _trace_rows(sym, extra_words):
        traces[row["word"]] = str(row["trace"])
        all_integral = all_integral and row["integral"]
    record("traceIntegrality", all_integral)

    report: dict = {
        "family": "figure8",
        "alpha": None if alpha is None else alpha.value,
        "signature": None,
        "classes": None,
        "traces": traces,
        "checks": checks,
        "commutatorConvention": COMMUTATOR_CONVENTION,
        "entryDenominators": {
            "M": sym.M.max_denominator(),
            "N": sym.N.max_denominator(),
            "J": sym.form.mat.max_denominator(),
            "L": L.max_denominator(),
        },
    }

    if alpha is not None:
        fam = build_family(alpha)
        sig = herm_signature(fam.form, tol=tol)
        report["signature"] = list(sig.as_tuple())
        want = expected_arc(alpha, 0.0)
        if want is not None:
            record("signatureArc", (sig.plus, sig.minus) == want and sig.zero == 0,
                   f"expected {want}")
        closed = det_form_closed(alpha)
        direct = float(np.linalg.det(fam.form.array()).real)
        rel_err = abs(closed - direct) / max(abs(closed), 1.0)
        record("detClosedForm", rel_err <= 1e-9, f"relative error {rel_err:.3g}")

        a = abs(math.remainder(alpha.value, 2 * math.pi))
        if a < INNER_ARC_BOUND and not alpha.is_zero_mod_2pi():
            try:
                rep = _parabolicity(fam, tol)
                cls = rep["classes"]
                report["classes"] = {k: str(v) for k, v in cls.items()}
                record("peripheralParabolic",
                       all(isinstance(v, Parabolic) for v in cls.values()))
            except IndeterminateError as exc:
                report["classes"] = {"m": "indeterminate", "l": "indeterminate"}
                record("peripheralParabolic", False, str(exc))
        elif alpha.is_zero_mod_2pi():
            cls = {
                "m": classify(fam.M, fam.form, tol=tol),
                "l": classify(fam.longitude(), fam.form, tol=tol),
            }
            report["classes"] = {k: str(v) for k, v in cls.items()}
            record("peripheralParabolic",
                   all(isinstance(v, Parabolic) for v in cls.values()),
                   "undeformed lattice cusp")

        special = _is_special_point(alpha)
        report["specialPoint"] = {
            "is": special,
            "discreteImage": bool(all_integral) if special else None,
        }
    return report
