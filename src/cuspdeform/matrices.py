"""The numeric linear algebra that the isometry classifier consumes:
the powers of u at a block of angles, signatures, clustered
eigenstructure and form defects.

Numeric matrices are plain numpy complex arrays.  The exact matrices and
forms live in ``exact``, which imports no numpy; their names are bound
here as well.  ``Mat.evaluate_stack`` maps an exact matrix to the stack
of its values at a block of angles u = e^{i alpha}, through
``UnitPowers``; ``Mat.evaluate`` is its one-angle case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# the exact layer, bound here too, so that every name this module defined
# before the split resolves to the same object
from .exact import (_CONVENTIONS, CONJ_TRANSPOSE, TRANSPOSE_CONJ, GeometryError, HermForm,
                    IndeterminateError, Mat, _promote, form_preserved, siegel_form)
from .scalars import Angle
from .tolerances import (CLUSTER_RTOL, CLUSTER_RTOL_CEILING, DECISION_TOL, NORM_FLOOR,
                         STRUCTURE_TOL)


class UnitPowers:
    """A block of angles, and the powers u^k = e^{i k alpha} at each,
    computed once per (angle, exponent) and shared by every matrix
    evaluated on the block.  ``points`` is the block as given: each an
    Angle, or a float, a finite angle in radians as ``Angle.radians``
    reads it.  ``exact[j]`` says whether point j is a multiple of pi or a
    raw zero, the exact zero of ``Angle.radians``; at a raw point u is
    transcendental (Hermite-Lindemann)."""

    __slots__ = ("points", "exact", "_raw", "_columns")

    def __init__(self, points: Sequence[Angle | float]):
        self.points = list(points)
        raw = [a.raw if isinstance(a, Angle) else a for a in self.points]
        self.exact = [not x for x in raw]
        self._raw = [x or 0.0 for x in raw]
        self._columns: dict[int, np.ndarray] = {}

    def table(self, exponents: Sequence[int]) -> np.ndarray:
        """The (K, len(exponents)) complex array of the powers.

        Each is ``alpha.times(k).exp_i()``, the power ``eval_unit``
        takes, with the same bits.  The missing columns are built one
        exponent after the other, by the same IEEE products and libm
        calls for every raw angle x: x*k is never 0 when k is not, so
        u^k is cos(x*k) + i sin(x*k) without the exact angle arithmetic;
        u^0 is the 1+0j that ``eval_unit`` gives, and only the exact
        angles take ``times(k).exp_i()``."""
        missing = [k for k in exponents if k not in self._columns]
        if missing:
            size = len(self.points)
            xs = [x * k for k in missing for x in self._raw]
            try:
                flat = list(map(complex, map(math.cos, xs), map(math.sin, xs)))
            except ValueError:  # math.cos of an infinite x * k
                x, k = next((x, k) for x in self._raw for k in missing if math.isinf(x * k))
                raise ValueError(f"angle {x!r} is too large: the power u^{k} needs "
                                 f"{x!r} * {k}, which overflows a float") from None
            exact = [j for j, e in enumerate(self.exact) if e]
            for i, k in enumerate(missing):
                if k == 0:
                    flat[i * size:(i + 1) * size] = [1 + 0j] * size
                    continue
                for j in exact:
                    a = self.points[j]
                    flat[i * size + j] = a.times(k).exp_i() if isinstance(a, Angle) else 1 + 0j
            values = np.array(flat, dtype=complex).reshape(len(missing), size)
            for i, k in enumerate(missing):
                self._columns[k] = values[i]
        if not exponents:
            return np.zeros((len(self.points), 0), dtype=complex)
        return np.stack([self._columns[k] for k in exponents], axis=1)

    def take(self, rows: Sequence[int]) -> "UnitPowers":
        """The powers at the angles of the given rows."""
        out = UnitPowers([self.points[j] for j in rows])
        out._columns = {k: col[rows] for k, col in self._columns.items()}
        return out


NON_FINITE_FORM = "form matrix has non-finite entries"
NOT_HERMITIAN = f"form matrix is not hermitian within {STRUCTURE_TOL:g}"


def hermitian_failures(J: np.ndarray) -> list[GeometryError | None]:
    """The GeometryError that ``HermForm`` raises for each numeric form
    matrix of a stack (K, n, n), or None where it is a form: finite and
    hermitian within STRUCTURE_TOL of its largest entry (at least 1)."""
    finite = finite_rows(J)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
        scales = np.abs(J).max(axis=(1, 2)).tolist()
        defects = np.abs(J - np.swapaxes(J.conj(), 1, 2)).max(axis=(1, 2)).tolist()
    out: list[GeometryError | None] = []
    for ok, scale, defect in zip(finite, scales, defects):
        if not ok:
            out.append(GeometryError(NON_FINITE_FORM))
        elif defect > STRUCTURE_TOL * max(scale, 1.0):
            out.append(GeometryError(NOT_HERMITIAN))
        else:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# Signatures and eigenstructure (numeric)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    plus: int
    minus: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.plus, self.minus, self.zero)

    def __str__(self) -> str:
        return f"({self.plus},{self.minus},{self.zero})"


def herm_signature(form: HermForm | np.ndarray, tol: float = DECISION_TOL) -> Signature:
    """Counts of eigenvalues above tol, below -tol, within [-tol, tol]."""
    if not isinstance(form, HermForm):
        form = HermForm(form)  # validates hermitianness
    return signatures(form.array()[None], tol)[0]


def signatures(J: np.ndarray, tol: float = DECISION_TOL) -> list[Signature]:
    """``herm_signature`` of every hermitian matrix of a stack (N, n, n):
    the per-matrix view of ``signature_counts``."""
    return [Signature(*counts) for counts in signature_counts(J, tol).tolist()]


def signature_counts(J: np.ndarray, tol: float = DECISION_TOL) -> np.ndarray:
    """The signatures of a stack (N, n, n) of hermitian matrices as an
    (N, 3) array: per matrix, the counts of eigenvalues above tol, below
    -tol and within [-tol, tol], from one eigvalsh call."""
    ev = np.linalg.eigvalsh(J)
    plus, minus = np.sum(ev > tol, axis=-1), np.sum(ev < -tol, axis=-1)
    return np.stack([plus, minus, ev.shape[-1] - plus - minus], axis=-1)


@dataclass(frozen=True)
class EigenCluster:
    value: complex
    alg: int
    geo: int


@dataclass(frozen=True)
class EigenData:
    clusters: tuple[EigenCluster, ...]
    rank_margin: float  # decisiveness of the worst rank decision, >= 1
    norm: float  # spectral norm of the matrix; rank thresholds are tol * norm

    @property
    def n(self) -> int:
        return sum(c.alg for c in self.clusters)


NON_FINITE = "matrix has non-finite entries"
CLUSTERING_FAILED = "eigenvalue clustering never reached consistent multiplicities"


def finite_rows(S: np.ndarray) -> list[bool]:
    """Whether each matrix of a stack (N, n, n) has finite entries only."""
    return np.isfinite(S).all(axis=(1, 2)).tolist()


@functools.lru_cache(maxsize=8)  # a few sizes: classify --matrix input sets n
def eye(n: int) -> np.ndarray:
    """The n x n identity (float, read-only, shared)."""
    out = np.eye(n)
    out.flags.writeable = False
    return out


def shifted(S: np.ndarray, lams: Sequence[complex]) -> np.ndarray:
    """The stack S[k] - lams[k] I."""
    return S - np.array(lams, dtype=complex)[:, None, None] * eye(S.shape[-1])


def row_means(X: np.ndarray) -> np.ndarray:
    """The mean of each row of a 2-d array, by np.mean's own arithmetic
    (a sum reduction, then one division) without its Python wrapper: each
    row gets the bits np.mean gives that row alone."""
    return np.add.reduce(X, axis=1) / X.shape[1]


def moduli(z: np.ndarray) -> np.ndarray:
    """|z| of every entry, bit for bit Python's ``abs`` of a complex
    (np.abs is not: its complex modulus can differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def chain_groups(values: np.ndarray, radius: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy chain-linked grouping of every row of a (P, m) complex
    array, within a radius per row.

    A row's entries are taken in (real, imag) order (a stable sort), and
    each joins the first-created group that holds an entry within the
    radius of it, or starts a group: joining needs closeness to any
    member, so a symmetric Jordan scatter around one true value stays
    together.  NaN entries, the padding of shorter rows, sort last and
    are close to nothing, so each is a group of its own.

    The i-th entry in sorted order joins the group whose first member
    is label_i = min(i, min{label_j : j < i, |s_i - s_j| <= r}).  That
    is the least entry reachable from i by a descending chain of close
    entries, so every row's labels come from a few boolean squarings of
    the (P, m, m) reachability matrices instead of a pass per entry.

    Returns the groups, row after row and in order of creation within a
    row, as ``members`` (flat indices into ``values`` of each group's
    entries in sorted order, one group after the other), ``sizes`` and
    ``rows`` (the row of each group)."""
    P, m = values.shape
    base = np.arange(0, P * m, m)[:, None]
    flat = np.lexsort((values.imag, values.real)) + base
    s = values.ravel()[flat]
    with np.errstate(invalid="ignore"):  # inf - inf: close to nothing
        close = moduli(s[:, :, None] - s[:, None, :]) <= radius[:, None, None]
    step = np.arange(m)[:, None] - np.arange(m)  # i - j
    # reach[p, i, j]: j is i, or an earlier close entry (one link); the
    # boolean squarings extend it to chains of up to m - 1 links
    reach = (close & (step > 0)) | (step == 0)
    for _ in range(max(m - 2, 0).bit_length()):
        reach = reach @ reach
    key = (reach.argmax(axis=2) + base).ravel()  # the least reachable entry
    sizes = np.bincount(key, minlength=P * m)
    first = sizes.nonzero()[0]
    return flat.ravel()[np.argsort(key, kind="stable")], sizes[first], first // m


class EigenColumns(NamedTuple):
    """The clustered eigenstructure of a stack of N matrices as columns:
    one entry per cluster, matrix after matrix and in cluster order
    within a matrix (``row`` is the matrix, then ``value``, ``alg``,
    ``geo``), and per matrix its rank ``margin``, spectral ``norm`` and
    whether clustering ``failed`` (such a matrix has no clusters)."""

    row: np.ndarray
    value: np.ndarray
    alg: np.ndarray
    geo: np.ndarray
    margin: np.ndarray
    norm: np.ndarray
    failed: np.ndarray

    def counts(self) -> np.ndarray:
        """The number of clusters of each matrix."""
        return np.bincount(self.row, minlength=len(self.norm))

    def failure(self, k: int) -> IndeterminateError:
        """The error of matrix k, whose clustering failed."""
        return IndeterminateError(CLUSTERING_FAILED, self.margin[k])

    def take(self, rows: np.ndarray) -> "EigenColumns":
        """The columns of the matrices given by increasing indices."""
        if len(rows) == len(self.norm):
            return self
        keep = np.zeros(len(self.norm), dtype=bool)
        keep[rows] = True
        mine = keep[self.row]
        return EigenColumns((np.cumsum(keep) - 1)[self.row[mine]], self.value[mine],
                            self.alg[mine], self.geo[mine], self.margin[rows],
                            self.norm[rows], self.failed[rows])


def unwrap(result):
    """A result of a stacked routine: raise it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def eigen(A: np.ndarray, tol: float = DECISION_TOL) -> EigenData:
    """Clustered spectrum with algebraic and geometric multiplicities.

    Geometric multiplicity of a cluster is n - rank(A - lambda I), with
    rank read off singular values at threshold tol * ||A||.  The margin
    records how decisively every singular value cleared (or missed) that
    threshold; classify() turns margins below INDETERMINATE_FACTOR into
    an explicit indeterminate outcome rather than a guess.

    Computed eigenvalues of a defective matrix scatter like eps^(1/k)
    around the true value, which can exceed the base clustering radius
    CLUSTER_RTOL.  Whenever the multiplicities come out inconsistent (a
    cluster with geo < 1 or geo > alg) the radius escalates by 10x, up to
    CLUSTER_RTOL_CEILING, before the result is declared indeterminate.

    The one-matrix case of ``eigen_stack``.
    """
    S = np.asarray(A, dtype=complex)[None]
    if not finite_rows(S)[0]:
        raise GeometryError(NON_FINITE)
    return unwrap(eigen_stack(S, tol)[0])


def eigen_stack(S: np.ndarray,
                tol: float = DECISION_TOL) -> list[EigenData | IndeterminateError]:
    """``eigen`` of every matrix of a stack (N, n, n) of finite matrices:
    entry k is the EigenData of S[k] or the IndeterminateError that
    ``eigen`` raises for it.

    The per-matrix view of ``eigen_columns``, which computes the whole
    stack in one columnar pass: one eigvals and one norm call, then per
    clustering radius one ``chain_groups`` call over every spectrum still
    undecided, one ``row_means`` call per cluster size and one
    singular-value call, with the ranks, margins and consistency tests
    as array operations."""
    cols = eigen_columns(S, tol)
    ends = cols.counts().cumsum().tolist()
    clusters = list(map(EigenCluster, cols.value.tolist(), cols.alg.tolist(),
                        cols.geo.tolist()))
    return [cols.failure(k) if failed else
            EigenData(tuple(clusters[start:end]), margin, norm)
            for k, (start, end, margin, norm, failed) in enumerate(zip(
                [0] + ends, ends, cols.margin.tolist(), cols.norm.tolist(),
                cols.failed.tolist()))]


def eigen_columns(S: np.ndarray, tol: float = DECISION_TOL) -> EigenColumns:
    """The eigenstructure of every matrix of a stack (N, n, n) of finite
    matrices, as columns: what ``eigen`` decides, without an object per
    matrix or per cluster.

    One eigvals call and one singular-value call (the spectral norms)
    serve the stack.  Each clustering radius then costs one
    ``chain_groups`` call over the spectra of the matrices whose
    multiplicities are still inconsistent, one ``row_means`` call per
    cluster size for the centres (each the mean of its members in sorted
    order), and one singular-value call over every (matrix, centre) pair;
    the ranks, margins and consistency tests are array operations.
    """
    S = np.asarray(S, dtype=complex)
    N, n = len(S), S.shape[-1]
    margin, failed = np.ones(N), np.zeros(N, dtype=bool)
    none = np.zeros(0, dtype=np.intp)
    empty = (none, np.zeros(0, dtype=complex), none, none)
    if N == 0:
        return EigenColumns(*empty, margin, np.zeros(0), failed)
    ev = np.linalg.eigvals(S)
    norms = np.maximum(np.linalg.svd(S, compute_uv=False)[:, 0], NORM_FLOOR)
    thr = tol * norms
    scale = np.maximum(np.abs(ev).max(axis=1), 1.0)
    parts = []
    pending = np.arange(N)
    rtol = CLUSTER_RTOL
    while pending.size and rtol <= CLUSTER_RTOL_CEILING:
        spectra = ev[pending]
        members, alg, local = chain_groups(spectra, rtol * scale[pending])
        rows = pending[local]
        values = spectra.ravel()[members]
        starts = alg.cumsum() - alg
        lams = np.empty(len(alg), dtype=complex)
        for size in set(alg.tolist()):
            g = (alg == size).nonzero()[0]
            lams[g] = row_means(values[starts[g][:, None] + np.arange(size)])
        sv = np.linalg.svd(shifted(S[rows], lams), compute_uv=False)
        t = thr[rows][:, None]
        above = sv > t
        geo = n - above.sum(axis=1)
        # the ratio is s / thr above the threshold, thr / max(s, NORM_FLOOR)
        # below it; fmin ignores a NaN ratio
        with np.errstate(over="ignore"):  # an infinite ratio is decisive
            ratios = (np.where(above, sv, t)
                      / np.where(above, t, np.maximum(sv, NORM_FLOOR)))
        worst = np.fmin.reduce(ratios, axis=1, initial=np.inf)
        counts = np.bincount(local, minlength=len(pending))
        first = counts.cumsum() - counts  # each matrix's first cluster
        margin[pending] = np.minimum.reduceat(worst, first)
        retry = np.logical_or.reduceat((geo < 1) | (geo > alg), first)
        done = ~retry[local]
        parts.append((rows[done], lams[done], alg[done], geo[done]))
        pending = pending[retry]
        rtol *= 10.0
    failed[pending] = True
    row, value, alg, geo = (np.concatenate(part) for part in zip(empty, *parts))
    order = np.argsort(row, kind="stable")  # the matrices settled at different radii
    return EigenColumns(row[order], value[order], alg[order], geo[order], margin, norms,
                        failed)


# ---------------------------------------------------------------------------
# Form invariance
# ---------------------------------------------------------------------------

def form_defect(g: np.ndarray, form: HermForm) -> float:
    """Max-entry absolute deviation of g from preserving the form."""
    return form_defects(np.asarray(g, dtype=complex)[None], form.array(),
                        form.convention)[0]


def form_defects(S: np.ndarray, J: np.ndarray, convention: str) -> list[float]:
    """``form_defect`` of every matrix of a stack (N, n, n) against the
    form matrix J (one for all, or a stack of one per matrix).  A product
    out of float range gives an infinite or NaN defect, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if convention == CONJ_TRANSPOSE:
            defect = np.swapaxes(S.conj(), 1, 2) @ J @ S - J  # g* J g - J
        else:
            defect = np.swapaxes(S, 1, 2) @ J @ S.conj() - J  # g^T J conj(g) - J
    return np.abs(defect).max(axis=(1, 2)).tolist()

