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

The exact family and its exact checks import no numpy; the functions
that compute at an angle import the numeric layer when they run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .exact import (GenericClass, GeometryError, HermForm, IndeterminateError, Mat,
                    TRANSPOSE_CONJ, classify_generic)
from .scalars import Angle, LaurentPoly
from .tolerances import DECISION_TOL, LAW_TOL, SWEEP_ZERO_ANGLE
from .words import (COMMUTATOR_CONVENTION, Rep, Word, builtin_presentation,
                    record_check)

if TYPE_CHECKING:
    import numpy as np

    from .isometry import Verdicts
    from .matrices import Signature, UnitPowers

_u = LaurentPoly.u
_c = LaurentPoly.const

L_WORD = Word.parse("n.m^-1.n^-1.m^2.n^-1.m^-1.n")
RELATOR = builtin_presentation("figure8").relators[0]

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


def _exact_decision(method):
    """A cached exact decision, which a numeric family refuses."""
    @functools.wraps(method)
    def decide(self):
        if not isinstance(self.M, Mat):
            raise TypeError(f"{method.__name__} is an exact decision: use build_family(None)")
        return method(self)
    return functools.cached_property(decide)


@dataclass(frozen=True)
class Fig8Family:
    """The family at one parameter value (symbolic when alpha is None);
    each exact decision below is made on first use and kept on it."""

    alpha: Angle | None
    M: Mat | np.ndarray
    N: Mat | np.ndarray
    form: HermForm

    @functools.cached_property
    def rep(self) -> Rep:  # validated: both generators preserve the form
        return Rep(MappingProxyType({"m": self.M, "n": self.N}), self.form)

    @_exact_decision
    def relation(self) -> bool:
        return self.rep.evaluate(RELATOR).is_identity()

    def longitude(self):
        return self._longitude

    @functools.cached_property
    def _longitude(self):
        return self.rep.evaluate(L_WORD)

    @_exact_decision
    def identities(self) -> tuple[tuple[str, bool], ...]:
        L = self.longitude()
        return (("longitudeTranscription", L == longitude_matrix()),
                ("longitudeDet", L.det() == LaurentPoly.one()),
                ("detIdentity", self.form.mat.det() == det_form_laurent()),
                ("peripheralCommute", self.M @ L == L @ self.M))

    @_exact_decision
    def generic_classes(self) -> tuple[GenericClass, GenericClass]:
        """The exact classes of m and the longitude at every raw angle
        (``classify_generic``; the symbolic family only)."""
        return classify_generic(self.M), classify_generic(self.longitude())

    @functools.cached_property
    def witness_traces(self) -> tuple[LaurentPoly, ...]:
        return tuple(map(self.rep.trace, TRACE_WITNESS_WORDS))

    @_exact_decision
    def witness_texts(self) -> tuple[tuple[str, str, bool], ...]:
        """Each witness word and its trace as text, and whether the trace
        is integral: the report's rows."""
        return _trace_texts(TRACE_WITNESS_WORDS, self.witness_traces)

    @_exact_decision
    def denominators(self) -> tuple[tuple[str, int], ...]:
        """The largest entry denominator of M, N, the form and the longitude."""
        return (("M", self.M.max_denominator()), ("N", self.N.max_denominator()),
                ("J", self.form.mat.max_denominator()),
                ("L", self.longitude().max_denominator()))


@functools.lru_cache(maxsize=1)
def _symbolic_family() -> Fig8Family:
    return Fig8Family(None, generator_m(), generator_n(),
                      HermForm(form_matrix(), TRANSPOSE_CONJ))


def build_family(alpha: Angle | None = None) -> Fig8Family:
    """The family symbolically (alpha=None: one shared, read-only instance
    per process) or at a unit parameter: that family evaluated, once its
    relation and form invariance hold exactly (else a transcription bug)."""
    sym = _symbolic_family()
    if alpha is None:
        return sym
    if not sym.relation:
        raise AssertionError("internal error: defining relation failed symbolically")
    return Fig8Family(alpha, sym.M.evaluate(alpha), sym.N.evaluate(alpha),
                      HermForm(sym.form.mat.evaluate(alpha), TRANSPOSE_CONJ))


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One grid point of a figure-eight sweep.  ``classes`` holds the
    classes of m and the longitude, computed on the signature-(3,1) arc
    away from alpha = 0 (both "indeterminate", with ``margin``, when a
    numeric decision at a pi-rational angle was too close to call)."""

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
ARCS = ((3, 1), (2, 2))  # the signature each arc dictates, by its code


def expected_arc(alpha: Angle | float, exclusion: float) -> tuple[int, int] | None:
    """The signature the arc dictates, or None inside an exclusion zone
    around the transition angles +-2pi/3 and +-pi.  A float is an angle
    in radians.  The one-point case of ``_arc_codes``."""
    code = int(_arc_codes([alpha], [alpha.value if isinstance(alpha, Angle) else alpha],
                          exclusion)[0])
    return ARCS[code] if code >= 0 else None


def _arc_codes(angles: Sequence[Angle | float], values: Sequence[float],
               exclusion: float) -> np.ndarray:
    """``expected_arc`` of every point of a block (``values[j]`` is the
    value of ``angles[j]``), as its code in ARCS, -1 for None.

    A raw angle past pi is reduced as ``math.cos`` and ``math.sin``
    reduce it, the reduction behind the matrices' entries.  A
    pi-rational angle is placed by its exact multiple of pi, so a
    transition never gets an expectation from rounding; with a positive
    exclusion, its value must also lie outside the zones.  An exclusion
    of zero or less is read as zero: the arcs never move."""
    import numpy as np
    a = np.abs(np.array(values, dtype=float))
    far = (a > math.pi).nonzero()[0].tolist()
    if far:
        x = [values[j] for j in far]
        a[far] = np.abs(list(map(math.atan2, map(math.sin, x), map(math.cos, x))))
    r = max(exclusion, 0.0)
    codes = np.where(a < INNER_ARC_BOUND - r, 0, np.where(
        (INNER_ARC_BOUND + r < a) & (a < math.pi - r), 1, -1))
    for j, alpha in enumerate(angles):
        if isinstance(alpha, Angle) and alpha.is_pi_rational:
            f = alpha.pi_frac % 2
            want = 0 if f < ARC_TRANSITIONS[0] or f > ARC_TRANSITIONS[2] else 1
            codes[j] = (want if f not in ARC_TRANSITIONS and (exclusion <= 0 or codes[j] == want)
                        else -1)
    return codes


class Fig8Sweep(NamedTuple):
    """A figure-eight sweep as columns, one entry per grid point kept:
    the grid value ``alpha``; the form's signature counts ``sig`` (an
    (N, 3) array, see ``signature_counts``); the ``arc`` code (its
    signature in ARCS); the form's ``det``; the ``classes`` of m and the
    longitude (an (N, 2) array of sweep verdict codes, see
    ``isometry.VERDICT_TEXTS``, -1 where not classified); and the
    ``margin`` of each indeterminate row, by its index."""

    alpha: list
    sig: np.ndarray
    arc: np.ndarray
    det: list[float]
    classes: np.ndarray
    margin: dict[int, float]

    def off_arc(self) -> np.ndarray:
        """Whether each row's signature is off its arc."""
        import numpy as np
        want = np.array([(*sig, 0) for sig in ARCS])
        return (self.sig != want[self.arc]).any(axis=1)

    def rows(self) -> list[SweepRow]:
        """The columns as one ``SweepRow`` per grid point kept."""
        from .isometry import VERDICT_TEXTS
        from .matrices import Signature
        sigs = list(map(tuple, self.sig.tolist()))
        signature = {counts: Signature(*counts) for counts in set(sigs)}
        classes = [None if m < 0 else (VERDICT_TEXTS[m], VERDICT_TEXTS[l])
                   for m, l in self.classes.tolist()]
        return [SweepRow(alpha, signature[counts], ARCS[arc], det, pair, self.margin.get(k))
                for k, (alpha, counts, arc, det, pair) in enumerate(
                    zip(self.alpha, sigs, self.arc.tolist(), self.det, classes))]


def figure8_sweep(alphas: Iterable[Angle | float], exclusion: float = 0.01,
                  tol: float = DECISION_TOL) -> list[SweepRow]:
    """Signature and determinant of the form across a parameter grid
    (a float is an angle in radians), skipping the exclusion zones, plus
    the peripheral classes on the signature-(3,1) arc away from 0.  A
    signature off its arc is reported in its row (``on_arc``).  The row
    view of ``figure8_columns``."""
    return figure8_columns(alphas, exclusion, tol).rows()


def figure8_columns(alphas: Iterable[Angle | float], exclusion: float = 0.01,
                    tol: float = DECISION_TOL) -> Fig8Sweep:
    """``figure8_sweep`` as columns.

    The kept points of each block (``isometry.SWEEP_BLOCK``) are one
    ``_evaluate_block`` step of the symbolic family.  The first failure
    in grid order is the one raised.
    """
    import numpy as np
    from .isometry import grid_blocks, sweep_codes
    sym = build_family(None)
    alpha: list = []
    parts = []
    margins: dict[int, float] = {}
    for powers, values in grid_blocks(alphas):
        arc = _arc_codes(powers.points, values, exclusion)
        kept = (arc >= 0).nonzero()[0].tolist()
        arc = arc[kept]
        x = [values[j] for j in kept]
        block = _evaluate_block(
            sym, powers.take(kept),
            (arc == 0) & (np.abs(np.array(x, dtype=float)) > SWEEP_ZERO_ANGLE), tol)
        codes, found = sweep_codes(block.verdicts, 2)
        classes = np.full((len(kept), 2), -1)
        classes[block.arc] = codes
        margins.update((len(alpha) + int(block.arc[j]), m) for j, m in found.items())
        alpha += x
        parts.append((block.sig, arc, block.det, classes))
    sig, arc, det, classes = (np.concatenate(part) for part in zip(
        (np.zeros((0, 3), dtype=int), np.zeros(0, dtype=int), np.zeros(0),
         np.zeros((0, 2), dtype=int)), *parts))
    return Fig8Sweep(alpha, sig, arc, det.tolist(), classes, margins)


class _Block(NamedTuple):
    """The columns of ``_evaluate_block``: per angle the form's signature
    counts and determinant; the angles classified (``arc``), and the
    results for m and the longitude at each in turn."""

    sig: np.ndarray
    det: np.ndarray
    arc: np.ndarray
    verdicts: Verdicts


def _evaluate_block(sym: Fig8Family, powers: UnitPowers,
                    classify_at: Sequence[bool], tol: float) -> _Block:
    """The symbolic family at a block of angles, as stacks, deciding no
    identity: one eigvalsh and one det call on the form, and the classes
    of m and the longitude at the angles ``classify_at`` marks.  A raw
    angle (not ``powers.exact``), where u is no exceptional point of an
    exact class, takes the family's exact classes (``generic_classes``),
    decided once; the generators preserve the form exactly there too.
    The exact angles take one classify_columns call on the exact m and
    longitude, evaluated there."""
    import numpy as np
    from .isometry import CLASSES, Parabolic, Verdicts, classify_columns
    from .matrices import signature_counts
    J = sym.form.mat.evaluate_stack(powers)
    arc = np.flatnonzero(classify_at)
    raw = ~np.array(powers.exact, dtype=bool)[arc]
    verdicts = Verdicts(np.full(2 * len(arc), -1), {})
    if raw.any():
        verdicts.code.reshape(-1, 2)[raw] = [
            CLASSES.index(Parabolic(c.subtype)) for c in sym.generic_classes]
    exact = arc[~raw]
    if exact.size:
        at = powers.take(exact)
        M, L = sym.M.evaluate_stack(at), sym.longitude().evaluate_stack(at)
        # M and the longitude of each angle, in turn, against its form
        S = np.stack((M, L), axis=1).reshape(-1, 4, 4)
        found = classify_columns(S, np.repeat(J[exact], 2, axis=0), TRANSPOSE_CONJ, tol)
        where = np.flatnonzero(np.repeat(~raw, 2))
        verdicts.code[where] = found.code
        verdicts.errors.update((int(where[k]), e) for k, e in found.errors.items())
    return _Block(signature_counts(J, tol), np.linalg.det(J).real, arc, verdicts)


def signature_sweep(alphas: Iterable[Angle | float], exclusion: float = 0.01,
                    tol: float = DECISION_TOL) -> list[SweepRow]:
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


def parabolicity_report(alpha: Angle, tol: float = DECISION_TOL) -> dict:
    """Classes of the peripheral generators on the signature-(3,1) arc,
    plus the longitude spectrum clusters."""
    from .matrices import UnitPowers, eigen, unwrap
    if expected_arc(alpha, 0.0) != (3, 1):
        raise GeometryError("peripheral classification is stated only on the "
                            "|alpha| < 2pi/3 arc")
    sym, powers = build_family(None), UnitPowers([alpha])
    block = _evaluate_block(sym, powers, [True], tol)
    result_m, result_l = block.verdicts.results()
    classes = {"m": unwrap(result_m), "l": unwrap(result_l)}
    L = sym.longitude().evaluate_stack(powers)[0]
    spectrum = [(cl.value, cl.alg, cl.geo) for cl in eigen(L, tol=tol).clusters]
    return {"classes": classes, "l_spectrum": spectrum, "alpha": alpha.value}


def trace_integrality_check(extra_words: Sequence[Word] = ()) -> list[dict]:
    """Exact traces of the built-in witness words (plus user words) with
    their Z[u, u^-1]-membership verdicts."""
    return _trace_rows(build_family(None), extra_words)


def _trace_rows(sym: Fig8Family, extra_words: Sequence[Word]) -> list[dict]:
    traces = sym.witness_traces + tuple(map(sym.rep.trace, extra_words))
    return [{"word": str(w), "trace": tr, "integral": tr.is_integral()}
            for w, tr in zip((*TRACE_WITNESS_WORDS, *extra_words), traces)]


def _trace_texts(words: Sequence[Word], traces: Sequence[LaurentPoly]
                 ) -> tuple[tuple[str, str, bool], ...]:
    return tuple((str(w), str(tr), tr.is_integral()) for w, tr in zip(words, traces))


def figure8_report(alpha: Angle | None = None,
                   extra_words: Sequence[Word] = (),
                   tol: float = DECISION_TOL) -> dict:
    """Full verification report (JSON-ready dict); ``pass`` says whether
    every check passed.

    The exact checks are decisions of the shared symbolic family (its
    ``rep`` raises without form invariance); only user words are traced
    per report.  A numeric parameter adds the signature, classification
    and determinant-law rows at that angle, from the sweep's block step.
    """
    sym = build_family(None)
    checks: dict[str, dict] = {}
    record_check(checks, "relation", sym.relation, f"relator {RELATOR}")
    record_check(checks, "formInvarianceM", True)
    record_check(checks, "formInvarianceN", True)
    for name, ok in sym.identities:
        record_check(checks, name, ok)

    record_check(checks, "separatingTrace",
                 sym.witness_traces[TRACE_WITNESS_WORDS.index(Word.parse("m.n"))] == _u() + 6,
                 "trace of the m*n image is 6+u, injective on the circle")
    rows = sym.witness_texts + _trace_texts(extra_words, list(map(sym.rep.trace, extra_words)))
    traces = {word: trace for word, trace, _ in rows}
    all_integral = all(integral for _, _, integral in rows)
    record_check(checks, "traceIntegrality", all_integral)

    report: dict = {
        "family": "figure8",
        "alpha": None if alpha is None else alpha.value,
        "signature": None,
        "classes": None,
        "traces": traces,
        "checks": checks,
        "commutatorConvention": COMMUTATOR_CONVENTION,
        "entryDenominators": dict(sym.denominators),
    }

    if alpha is not None:
        from .isometry import Parabolic
        from .matrices import UnitPowers, unwrap
        want = expected_arc(alpha, 0.0)
        block = _evaluate_block(sym, UnitPowers([alpha]), [want == (3, 1)], tol)
        sig = block.sig[0].tolist()
        report["signature"] = sig
        if want is not None:
            record_check(checks, "signatureArc", tuple(sig) == want + (0,),
                         f"expected {want}")
        closed = det_form_closed(alpha)
        rel_err = abs(closed - float(block.det[0])) / max(abs(closed), 1.0)
        record_check(checks, "detClosedForm", rel_err <= LAW_TOL,
                     f"relative error {rel_err:.3g}")

        if len(block.arc):
            try:
                result_m, result_l = block.verdicts.results()
                cls = {"m": unwrap(result_m), "l": unwrap(result_l)}
                report["classes"] = {k: str(v) for k, v in cls.items()}
                record_check(checks, "peripheralParabolic",
                             all(isinstance(v, Parabolic) for v in cls.values()),
                             "undeformed lattice cusp" if alpha.is_zero_mod_2pi() else "")
            except IndeterminateError as exc:
                report["classes"] = {"m": "indeterminate", "l": "indeterminate"}
                record_check(checks, "peripheralParabolic", False, str(exc))

        # u has order (pi_frac / 2).denominator: these are the n with phi(n) <= 2
        special = alpha.is_pi_rational and (alpha.pi_frac / 2).denominator in {1, 2, 3, 4, 6}
        report["specialPoint"] = {
            "is": special,
            "discreteImage": all_integral if special else None,
        }
    report["pass"] = all(c["pass"] for c in checks.values())
    return report
