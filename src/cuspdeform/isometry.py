"""Classification of form-preserving matrices into isometry types.

The trichotomy for a matrix A preserving a signature-(n,1) form:

* elliptic    <=> A diagonalizable, all eigenvalues of unit norm;
* loxodromic  <=> A diagonalizable, exactly two eigenvalues off the
  unit circle (the remaining n-1 on it);
* parabolic   <=> A not diagonalizable (all eigenvalues then unit).

Parabolics refine into unipotent (single unit eigenvalue lambda, with
(A/lambda - I)^2 or ^3 vanishing: 2-step "vertical" or 3-step
"horizontal" Heisenberg translations) and ellipto-parabolic (several
eigenvalue clusters, no unipotent lift).  Elliptics refine by whether
some fixed direction is form-null ("boundary elliptic").

Every decision near a threshold surfaces as IndeterminateError instead
of a silent guess; diagonalizability is discontinuous and honest margins
matter near the undeformed parameter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .exact import ELLIPTO_PARABOLIC, UNIPOTENT_STEP2, UNIPOTENT_STEP3
from .matrices import (CONJ_TRANSPOSE, NON_FINITE, EigenColumns, GeometryError,
                       HermForm, IndeterminateError, UnitPowers, eigen_columns, eye,
                       finite_rows, form_defects, moduli, row_means, shifted, unwrap)
from .scalars import Angle
from .tolerances import DECISION_TOL, INDETERMINATE_FACTOR, NORM_FLOOR

SWEEP_BLOCK = 256
"""Grid points a sweep evaluates as one stack and classifies in one
stacked pass.  Larger blocks save numpy call overhead: against 64, a
block of 256 cut a warm 720-point figure-eight sweep by 15% and a
180-point so41 sweep by 14%, and 1024 cut a 360-point su31 sweep by 19%
(x86-64 Linux, Python 3.11, numpy 2.4, one BLAS thread).  The block
also bounds a sweep's memory: there, a 20,000-point figure-eight sweep
peaks 10.4 MB above a 30-point one at 256, and 32.7 MB above it at
4096.  The figure-eight figures date from when a raw-angle sweep still
classified every point numerically; its raw angles now take the
family's exact classes, and only its exact angles are classified per
block."""


class IsoClass:
    """Base class of the classification tags."""

    kind = "unknown"

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Identity(IsoClass):
    kind = "identity"


@dataclass(frozen=True)
class Elliptic(IsoClass):
    boundary: bool
    kind = "elliptic"

    def __str__(self) -> str:
        where = "boundary" if self.boundary else "single-point"
        return f"elliptic({where})"


@dataclass(frozen=True)
class Parabolic(IsoClass):
    subtype: str
    kind = "parabolic"

    def __str__(self) -> str:
        return f"parabolic({self.subtype})"


@dataclass(frozen=True)
class Loxodromic(IsoClass):
    kind = "loxodromic"


CLASSES: tuple[IsoClass, ...] = (
    Identity(), Loxodromic(), Elliptic(False), Elliptic(True), Parabolic(UNIPOTENT_STEP2),
    Parabolic(UNIPOTENT_STEP3), Parabolic(ELLIPTO_PARABOLIC))
"""The classes ``classify_columns`` decides, each at its code: its index here."""
_IDENTITY, _LOXODROMIC, _ELLIPTIC, _STEP2, _STEP3, _ELLIPTO = 0, 1, 2, 4, 5, 6

INDETERMINATE = len(CLASSES)
"""The code of a sweep verdict too close to call."""
VERDICT_TEXTS = (*map(str, CLASSES), "indeterminate")
"""The text of each sweep verdict, by its code."""


class Verdicts(NamedTuple):
    """The classes of a stack of matrices as columns: per matrix its
    class ``code`` (an index into CLASSES), or -1 where ``classify``
    raises, with the error in ``errors`` under the matrix's index."""

    code: np.ndarray
    errors: dict[int, GeometryError]

    def results(self) -> list[IsoClass | GeometryError]:
        """The ``classify_stack`` entries: a class or an error per matrix."""
        return [CLASSES[c] if c >= 0 else self.errors[k]
                for k, c in enumerate(self.code.tolist())]


def _take(S: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """The rows of a stack given by increasing indices (S itself if all)."""
    return S if len(rows) == len(S) else S[rows]


def _inf_norms(S: np.ndarray) -> np.ndarray:
    """Max-entry norm of each matrix of a nonempty stack, floored at NORM_FLOOR."""
    return np.maximum(np.abs(S).max(axis=(1, 2)), NORM_FLOOR)


def _square(x: float) -> float:
    """x ** 2 (whose last bit can differ from x * x's), or inf where
    that overflows."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _squares(x: np.ndarray) -> np.ndarray:
    """``_square`` of every entry, with its bits."""
    return np.array(list(map(_square, x.tolist())), dtype=float)


def parabolic_subtype(A: np.ndarray, tol: float = DECISION_TOL) -> str:
    """Subtype of a (previously classified) parabolic matrix.

    A matrix with a single unit eigenvalue lambda is lambda times a
    unipotent, and then lambda = trace(A)/n exactly; that value is
    computed stably even when the eigenvalue scatter of a Jordan block
    defeats clustering, so the nilpotency test runs on A/lambda - I
    first.  Step 2 iff the square vanishes within tol, step 3 iff the
    cube does; otherwise several genuine clusters mean no unipotent
    lift (ellipto-parabolic).
    """
    step = int(_unipotent_subtypes(np.asarray(A, dtype=complex)[None], tol)[0])
    if step >= 0:
        return CLASSES[step].subtype
    if len(_one_row(A, tol)[1].row) > 1:
        return ELLIPTO_PARABOLIC
    raise _no_unipotent_lift()


def _one_row(A: np.ndarray, tol: float) -> tuple[np.ndarray, EigenColumns]:
    """A as a one-matrix stack, with its eigen columns; raises what
    ``eigen`` raises for A."""
    S = np.asarray(A, dtype=complex)[None]
    if not finite_rows(S)[0]:
        raise GeometryError(NON_FINITE)
    cols = eigen_columns(S, tol)
    if cols.failed[0]:
        raise cols.failure(0)
    return S, cols


def _unipotent_subtypes(S: np.ndarray, tol: float) -> np.ndarray:
    """The unipotent step of each matrix of a stack, read off the
    powers of S[k]/lambda - I with lambda = trace/n: the code of its
    Parabolic class, or -1 where neither the square nor the cube
    vanishes, or the trace is zero."""
    n = S.shape[-1]
    lams = _trace_means(S)
    out = np.full(len(S), -1)
    rows = (lams != 0).nonzero()[0]
    if not rows.size:
        return out
    N = _take(S, rows) / _take(lams, rows)[:, None, None] - eye(n)
    N2 = N @ N
    sq = np.abs(N2).max(axis=(1, 2))
    cb = np.abs(N2 @ N).max(axis=(1, 2))
    norms = _inf_norms(N)
    with np.errstate(over="ignore", invalid="ignore"):
        thr2 = tol * np.maximum(_squares(norms), 1.0)
        thr3 = thr2 * np.maximum(norms, 1.0)
        # a threshold that overflowed decides nothing
        step2 = (sq <= thr2) & (thr2 < math.inf)
        step3 = ~step2 & (cb <= thr3) & (thr3 < math.inf)
    out[rows[step2]] = _STEP2
    out[rows[step3]] = _STEP3
    return out


def _trace_means(S: np.ndarray) -> np.ndarray:
    """trace / n of each matrix of a stack (N, n, n), as Python divides
    a complex by an int (numpy's complex division rounds otherwise)."""
    return np.array(list(map(operator.truediv, S.trace(axis1=1, axis2=2).tolist(),
                             itertools.repeat(S.shape[-1]))), dtype=complex)


def _no_unipotent_lift() -> IndeterminateError:
    """The error of a parabolic with one eigenvalue cluster and no
    unipotent lift."""
    return IndeterminateError("one-cluster parabolic with no vanishing nilpotent power", 1.0)


def elliptic_boundary(A: np.ndarray, form: HermForm, tol: float = DECISION_TOL) -> bool:
    """Whether some fixed direction of an elliptic matrix is form-null,
    i.e. the isometry fixes a boundary point.

    Checked per eigenvalue cluster on the whole eigenspace: the space
    contains a null vector iff its Gram matrix is not definite.
    """
    S, cols = _one_row(A, tol)
    return bool(_elliptic_boundaries(S, cols, form.array()[None], form.convention, tol)[0])


def _elliptic_boundaries(S: np.ndarray, cols: EigenColumns, J: np.ndarray,
                         convention: str, tol: float) -> np.ndarray:
    """``elliptic_boundary`` of every matrix of a stack from its eigen
    columns, against a stack of one form matrix, or of one per matrix.
    One singular-value call yields the kernel of S[k] - lambda I for
    every (matrix, cluster) pair; the Gram matrices of the kernels of
    one dimension go through one eigvalsh call."""
    out = np.zeros(len(S), dtype=bool)
    rows = cols.row
    if not rows.size:
        return out
    n = S.shape[-1]
    _, sv, vh = np.linalg.svd(shifted(S[rows], cols.value))
    thr = tol * cols.norm[rows]
    # singular values come largest first: a kernel is the trailing columns
    dims = np.sum(sv <= thr[:, None], axis=1)
    V = np.swapaxes(vh.conj(), 1, 2)
    for d in sorted(set(dims.tolist()) - {0}):
        pairs = np.flatnonzero(dims == d)
        basis = V[pairs][:, :, n - d:]
        Jp = J if len(J) == 1 else J[rows[pairs]]
        if convention == CONJ_TRANSPOSE:
            gram = np.swapaxes(basis.conj(), 1, 2) @ Jp @ basis
        else:
            gram = np.swapaxes(basis, 1, 2) @ Jp @ basis.conj()
        gev = np.linalg.eigvalsh((gram + np.swapaxes(gram.conj(), 1, 2)) / 2)
        size = np.abs(gev)
        scale = np.maximum(size.max(axis=1), 1.0)
        # indefinite: the null cone meets the eigenspace; degenerate: an
        # eigenvector itself is null
        null = (((gev[:, 0] < -tol * scale) & (gev[:, -1] > tol * scale))
                | (size.min(axis=1) <= tol * scale))
        out[rows[pairs[null]]] = True
    return out


def classify(A: np.ndarray, form: HermForm, tol: float = DECISION_TOL) -> IsoClass:
    """Classify a form-preserving matrix; scalar-multiple invariant.

    Raises GeometryError if A fails to preserve the form within tol (on
    the natural scale), IndeterminateError if a rank or unit-norm
    decision lands within INDETERMINATE_FACTOR of its threshold.  The
    one-matrix case of ``classify_stack``.
    """
    return unwrap(classify_stack(np.asarray(A, dtype=complex)[None], form, tol)[0])


def _form_matrix(form: HermForm | Sequence[HermForm]) -> tuple[np.ndarray, str]:
    """The stack of the form matrices (one, or one per matrix) and their
    common convention."""
    if isinstance(form, HermForm):
        return form.array()[None], form.convention
    conventions = {f.convention for f in form}
    if len(conventions) != 1:
        raise ValueError("the forms of a stack must share one convention")
    return np.stack([f.array() for f in form]), conventions.pop()


def classify_stack(S: np.ndarray, form: HermForm | Sequence[HermForm],
                   tol: float = DECISION_TOL) -> list[IsoClass | GeometryError]:
    """``classify`` of every matrix of a stack (N, n, n), against one
    form or a list of one form per matrix (sharing a convention).

    Entry k is the class of S[k] or the GeometryError (possibly an
    IndeterminateError) that ``classify`` raises for it.  Each step runs
    as one numpy call over the matrices it still has to decide: the
    finiteness check, the form defect, the identity test, the
    eigenstructure, the unipotent powers and the boundary-elliptic
    kernels.  The decisions on their results, with their thresholds and
    margins per matrix, are array operations (``classify_columns``).
    """
    S = _square_stack(S)
    if len(S) == 0:
        return []
    J, convention = _form_matrix(form)
    return classify_columns(S, J, convention, tol).results()


def _square_stack(S: np.ndarray) -> np.ndarray:
    """S as a complex array, checked to be a stack (N, n, n)."""
    S = np.asarray(S, dtype=complex)
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise ValueError(f"matrices must be square, got shape {S.shape[1:]}")
    return S


def classify_columns(S: np.ndarray, J: np.ndarray, convention: str,
                     tol: float = DECISION_TOL) -> Verdicts:
    """``classify_stack`` against hermitian form matrices given as a
    stack J (one for all matrices, or one per matrix) under one
    convention, as columns: a class code per matrix, and an error
    object only for a matrix that ``classify`` rejects.

    Each step decides, by array operations over the matrices still
    undecided, which of them it settles, and writes their codes.  The
    eigen clusters pass from step to step as columns (``EigenColumns``)."""
    S = _square_stack(S)
    out = Verdicts(np.full(len(S), -1), {})
    code, errors = out
    if len(S) == 0:
        return out
    n = S.shape[-1]
    if len(J) not in (1, len(S)):
        raise ValueError(f"{len(J)} forms for {len(S)} matrices")
    if J.shape[1:] != (n, n):
        raise ValueError(f"form of shape {J.shape[1:]} for matrices of shape {(n, n)}")

    finite = np.isfinite(S).all(axis=(1, 2))
    for k in (~finite).nonzero()[0].tolist():
        errors[k] = GeometryError(NON_FINITE)
    live = finite.nonzero()[0]
    if not live.size:
        return out
    A = _take(S, live)
    Jl = J if len(J) == 1 else _take(J, live)

    # form invariance, on the natural scale
    norms = _inf_norms(A)
    defects = np.array(form_defects(A, Jl, convention))
    scales = np.fmax(1.0, _squares(norms) * _inf_norms(Jl))
    ranged = np.isfinite(defects) & np.isfinite(scales)
    kept = ranged & ~(defects > tol * scales)
    for k, defect, scale, ok in zip(live[~kept].tolist(), defects[~kept].tolist(),
                                    scales[~kept].tolist(), ranged[~kept].tolist()):
        errors[k] = GeometryError(
            f"matrix does not preserve the form: defect {defect:.3g} "
            f"exceeds {tol:.3g} * {scale:.3g}" if ok else
            f"form test out of float range: defect {defect:.3g}, scale {scale:.3g}")
    rows = kept.nonzero()[0]
    if not rows.size:
        return out
    A, live, norms = _take(A, rows), live[rows], norms[rows]

    # scalar multiples of the identity are the identity isometry
    lam0 = row_means(np.diagonal(A, axis1=1, axis2=2))
    offsets = np.abs(A - lam0[:, None, None] * eye(n)).max(axis=(1, 2))
    identity = (lam0 != 0) & (offsets <= tol * norms)
    code[live[identity]] = _IDENTITY
    rows = (~identity).nonzero()[0]
    if not rows.size:
        return out
    A, live = _take(A, rows), live[rows]

    cols = eigen_columns(A, tol=tol)
    undecided = cols.failed | (cols.margin < INDETERMINATE_FACTOR)
    for j in undecided.nonzero()[0].tolist():
        errors[int(live[j])] = cols.failure(j) if cols.failed[j] else IndeterminateError(
            "diagonalizability decision too close to call", cols.margin[j])
    rows = (~undecided).nonzero()[0]
    if not rows.size:
        return out
    A, live, cols = _take(A, rows), live[rows], cols.take(rows)

    # unit-norm test per cluster, on the clusters eigen_columns settled
    # on, with its own margin; the first cluster of a matrix that is too
    # close to call names its eigenvalue
    counts = cols.counts()
    first = counts.cumsum() - counts
    dev = np.abs(moduli(cols.value) - 1.0)
    unit = dev <= tol
    with np.errstate(over="ignore"):
        margin = np.where(unit, tol / np.maximum(dev, NORM_FLOOR), dev / tol)
    decided = np.ones(len(A), dtype=bool)
    close = (margin < INDETERMINATE_FACTOR).nonzero()[0]
    if close.size:
        named = close[np.diff(cols.row[close], prepend=-1) != 0]
        decided[cols.row[named]] = False
        for k, value, m in zip(live[cols.row[named]].tolist(), cols.value[named].tolist(),
                               margin[named].tolist()):
            errors[k] = IndeterminateError(
                f"eigenvalue {value:.6g} too close to the unit-norm threshold", m)
    parabolic = decided & np.logical_or.reduceat(cols.geo != cols.alg, first)
    nonunit = np.add.reduceat(np.where(unit, 0, cols.alg), first)
    diagonal = decided & ~parabolic
    code[live[diagonal & (nonunit == 2)]] = _LOXODROMIC
    other = diagonal & (nonunit != 0) & (nonunit != 2)
    for k, count in zip(live[other].tolist(), nonunit[other].tolist()):
        errors[k] = GeometryError(
            f"spectrum with {count} non-unit eigenvalues is "
            "incompatible with a rank-one form isometry")

    rows = parabolic.nonzero()[0]
    if rows.size:
        steps = _unipotent_subtypes(_take(A, rows), tol)
        # no unipotent lift: ellipto-parabolic with several clusters
        steps[(steps < 0) & (counts[rows] > 1)] = _ELLIPTO
        code[live[rows]] = steps
        for k in live[rows[steps < 0]].tolist():
            errors[k] = _no_unipotent_lift()
    rows = (diagonal & (nonunit == 0)).nonzero()[0]
    if rows.size:
        ks = live[rows]
        code[ks] = _ELLIPTIC + _elliptic_boundaries(
            _take(A, rows), cols.take(rows), J if len(J) == 1 else J[ks], convention, tol)
    return out


def grid_blocks(points: Iterable[Angle | float]
                ) -> Iterator[tuple[UnitPowers, list]]:
    """Walk a sweep grid (a float is an angle in radians) in blocks of
    SWEEP_BLOCK points, yielding each block, as ``UnitPowers``, and the
    values of its points.  At the first point that is no angle (or whose
    iteration raised), the block's earlier points come first, and the
    exception is raised when the sweep asks for the next block: by then
    the sweep has evaluated and classified every earlier point, so the
    failure raised is the first one in grid order."""
    angles: list = []
    values: list = []
    try:
        for x in points:
            if isinstance(x, Angle):
                angles.append(x)
                values.append(x.value)
            elif math.isfinite(x):  # what Angle.radians checks, and raises
                angles.append(float(x))
                values.append(x)
            else:
                raise ValueError("angle must be finite")
            if len(angles) == SWEEP_BLOCK:
                yield UnitPowers(angles), values
                angles, values = [], []
    except Exception:
        if angles:
            yield UnitPowers(angles), values
        raise
    if angles:
        yield UnitPowers(angles), values


def sweep_codes(verdicts: Verdicts, width: int = 1) -> tuple[np.ndarray, dict[int, float]]:
    """The sweep verdicts of a stack of ``width`` matrices per grid
    point, point after point: the (points, width) array of their class
    codes, INDETERMINATE throughout a point whose first error is an
    IndeterminateError, and the margin of that error by the point's
    index.  Any other error is raised, the first in stack order; an
    error after an indeterminate one of its point is not read."""
    code = verdicts.code.reshape(-1, width)
    margins: dict[int, float] = {}
    for k in sorted(verdicts.errors):
        point = k // width
        if point not in margins:
            error = verdicts.errors[k]
            if not isinstance(error, IndeterminateError):
                raise error
            margins[point] = error.margin
    if margins:
        code = code.copy()
        code[list(margins)] = INDETERMINATE
    return code, margins
