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

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .matrices import (CONJ_TRANSPOSE, NON_FINITE, EigenCluster, EigenData,
                       GeometryError, HermForm, IndeterminateError, eigen,
                       eigen_stack, eye, finite_rows, form_defects,
                       row_means, shifted, unwrap)
from .scalars import Angle
from .tolerances import DECISION_TOL, INDETERMINATE_FACTOR, NORM_FLOOR

SWEEP_BLOCK = 64
"""Grid points a sweep evaluates as one stack and classifies in one
stacked pass: larger blocks save little numpy call overhead and cost
memory."""

UNIPOTENT_STEP2 = "unipotent-step2"
UNIPOTENT_STEP3 = "unipotent-step3"
ELLIPTO_PARABOLIC = "ellipto-parabolic"


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


def _take(S: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """The rows of a stack given by increasing indices (S itself if all)."""
    return S if len(rows) == len(S) else S[rows]


def _inf_norms(S: np.ndarray) -> list[float]:
    """Max-entry norm of each matrix of a nonempty stack, floored at NORM_FLOOR."""
    return [max(v, NORM_FLOOR) for v in np.abs(S).max(axis=(1, 2)).tolist()]


def _square(x: float) -> float:
    """x ** 2 (whose last bit can differ from x * x's), or inf where
    that overflows."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _merge_defective(S: np.ndarray, datas: Sequence[EigenData], tol: float):
    """Repair eigenvalue-scatter artifacts: computed eigenvalues of a
    defective matrix spread by ~eps^(1/k), which can fake several
    nearby clusters.  Clusters closer than the scatter radius are
    merged when the merged center really is a (defective) eigenvalue
    (kernel nonempty there); if the merged center carries no kernel the
    nearby clusters were genuinely distinct and stay split.

    Runs on a stack with the eigenstructure of each matrix; one
    singular-value call serves every merge candidate of the stack.
    """
    n = S.shape[-1]
    spread = 4.0 * float(np.finfo(float).eps) ** (1.0 / n)
    grouped = []
    for data in datas:
        suspect = spread * max(max(abs(c.value) for c in data.clusters), 1.0)
        groups: list[list] = []
        for c in sorted(data.clusters, key=lambda c: (c.value.real, c.value.imag)):
            for g in groups:
                if any(abs(c.value - w.value) <= suspect for w in g):
                    g.append(c)
                    break
            else:
                groups.append([c])
        grouped.append(groups)
    cands = [(k, g) for k, groups in enumerate(grouped) for g in groups if len(g) > 1]
    if cands:
        rows = [k for k, _ in cands]
        algs = [sum(c.alg for c in g) for _, g in cands]
        lams = [sum(c.value * c.alg for c in g) / alg for (_, g), alg in zip(cands, algs)]
        sv = np.linalg.svd(shifted(S[rows], lams), compute_uv=False)
        thr = np.array([tol * datas[k].norm for k in rows])[:, None]
        geos = (n - np.sum(sv > thr, axis=1)).tolist()
        centres = iter(zip(lams, algs, geos))
    out = []
    for groups in grouped:
        merged = []
        for g in groups:
            if len(g) == 1:
                merged.append(g[0])
                continue
            lam, alg, geo = next(centres)
            if geo == 0:
                merged.extend(g)  # no kernel at the center: genuinely distinct
            else:
                merged.append(EigenCluster(lam, alg, geo))
        out.append(merged)
    return out


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
    S = np.asarray(A, dtype=complex)[None]
    subtype = _unipotent_subtypes(S, tol)[0]
    if subtype is None:
        data = eigen(S[0], tol=tol)
        subtype = unwrap(_cluster_subtype(_merge_defective(S, [data], tol)[0]))
    return subtype


def _unipotent_subtypes(S: np.ndarray, tol: float) -> list[str | None]:
    """The unipotent step of each matrix of a stack, read off the
    powers of S[k]/lambda - I with lambda = trace/n (None: neither the
    square nor the cube vanishes, or the trace is zero)."""
    n = S.shape[-1]
    lams = [complex(t) / n for t in S.trace(axis1=1, axis2=2).tolist()]
    rows = [k for k, lam in enumerate(lams) if lam != 0]
    out: list[str | None] = [None] * len(S)
    if not rows:
        return out
    N = _take(S, rows) / np.array([lams[k] for k in rows])[:, None, None] - eye(n)
    N2 = N @ N
    sq = np.abs(N2).max(axis=(1, 2)).tolist()
    cb = np.abs(N2 @ N).max(axis=(1, 2)).tolist()
    for k, norm, sq_k, cb_k in zip(rows, _inf_norms(N), sq, cb):
        s2 = max(_square(norm), 1.0)
        # a threshold that overflowed decides nothing
        if sq_k <= tol * s2 < math.inf:
            out[k] = UNIPOTENT_STEP2
        elif cb_k <= tol * s2 * max(norm, 1.0) < math.inf:
            out[k] = UNIPOTENT_STEP3
    return out


def _cluster_subtype(clusters) -> str | IndeterminateError:
    """The subtype of a parabolic with no unipotent lift."""
    if len(clusters) > 1:
        return ELLIPTO_PARABOLIC
    return IndeterminateError(
        "one-cluster parabolic with no vanishing nilpotent power", 1.0)


def elliptic_boundary(A: np.ndarray, form: HermForm, tol: float = DECISION_TOL) -> bool:
    """Whether some fixed direction of an elliptic matrix is form-null,
    i.e. the isometry fixes a boundary point.

    Checked per eigenvalue cluster on the whole eigenspace: the space
    contains a null vector iff its Gram matrix is not definite.
    """
    S = np.asarray(A, dtype=complex)[None]
    data = eigen(S[0], tol=tol)
    return _elliptic_boundaries(S, [data], form.array()[None], form.convention, tol)[0]


def _elliptic_boundaries(S: np.ndarray, datas: Sequence[EigenData], J: np.ndarray,
                         convention: str, tol: float) -> list[bool]:
    """``elliptic_boundary`` of every matrix of a stack from its computed
    eigenstructure, against a stack of one form matrix, or of one per
    matrix.  One singular-value call yields the kernel of S[k] - lambda I
    for every (matrix, cluster) pair; the Gram matrices of the kernels of
    one dimension go through one eigvalsh call."""
    rows = [k for k, data in enumerate(datas) for _ in data.clusters]
    out = [False] * len(S)
    if not rows:
        return out
    n = S.shape[-1]
    lams = [c.value for data in datas for c in data.clusters]
    _, sv, vh = np.linalg.svd(shifted(S[rows], lams))
    thr = tol * np.array([datas[k].norm for k in rows])
    # singular values come largest first: a kernel is the trailing columns
    dims = np.sum(sv <= thr[:, None], axis=1).tolist()
    V = np.swapaxes(vh.conj(), 1, 2)
    for d in sorted(set(dims) - {0}):
        pairs = [j for j, dim in enumerate(dims) if dim == d]
        basis = V[pairs][:, :, n - d:]
        Jp = J if len(J) == 1 else J[[rows[j] for j in pairs]]
        if convention == CONJ_TRANSPOSE:
            gram = np.swapaxes(basis.conj(), 1, 2) @ Jp @ basis
        else:
            gram = np.swapaxes(basis, 1, 2) @ Jp @ basis.conj()
        gev = np.linalg.eigvalsh((gram + np.swapaxes(gram.conj(), 1, 2)) / 2)
        size = np.abs(gev)
        for j, lo, hi, top, bottom in zip(pairs, gev[:, 0].tolist(), gev[:, -1].tolist(),
                                          size.max(axis=1).tolist(),
                                          size.min(axis=1).tolist()):
            scale = max(top, 1.0)
            if lo < -tol * scale and hi > tol * scale:
                out[rows[j]] = True  # indefinite: null cone meets the eigenspace
            elif bottom <= tol * scale:
                out[rows[j]] = True  # degenerate: an eigenvector itself is null
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
    eigenstructure, the merge of scatter artifacts, the unipotent powers
    and the boundary-elliptic kernels.  The decisions on their results,
    with their thresholds and margins, are made per matrix.
    """
    S = _square_stack(S)
    if len(S) == 0:
        return []
    J, convention = _form_matrix(form)
    return classify_against(S, J, convention, tol)


def _square_stack(S: np.ndarray) -> np.ndarray:
    """S as a complex array, checked to be a stack (N, n, n)."""
    S = np.asarray(S, dtype=complex)
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise ValueError(f"matrices must be square, got shape {S.shape[1:]}")
    return S


def classify_against(S: np.ndarray, J: np.ndarray, convention: str,
                     tol: float = DECISION_TOL) -> list[IsoClass | GeometryError]:
    """``classify_stack`` against hermitian form matrices given as a
    stack J (one for all matrices, or one per matrix) under one
    convention."""
    S = _square_stack(S)
    out: list = [None] * len(S)
    if len(S) == 0:
        return out
    n = S.shape[-1]
    if len(J) not in (1, len(S)):
        raise ValueError(f"{len(J)} forms for {len(S)} matrices")
    if J.shape[1:] != (n, n):
        raise ValueError(f"form of shape {J.shape[1:]} for matrices of shape {(n, n)}")

    live = []
    for k, finite in enumerate(finite_rows(S)):
        if finite:
            live.append(k)
        else:
            out[k] = GeometryError(NON_FINITE)
    if not live:
        return out
    A = _take(S, live)
    Jl = J if len(J) == 1 else _take(J, live)

    # form invariance, on the natural scale
    norms = _inf_norms(A)
    form_norms = _inf_norms(Jl)
    rows = []
    for j, defect in enumerate(form_defects(A, Jl, convention)):
        scale = max(1.0, _square(norms[j]) * form_norms[j if len(Jl) > 1 else 0])
        if not (math.isfinite(defect) and math.isfinite(scale)):
            out[live[j]] = GeometryError(
                f"form test out of float range: defect {defect:.3g}, scale {scale:.3g}")
        elif defect > tol * scale:
            out[live[j]] = GeometryError(
                f"matrix does not preserve the form: defect {defect:.3g} "
                f"exceeds {tol:.3g} * {scale:.3g}")
        else:
            rows.append(j)
    if not rows:
        return out
    A, live, norms = _take(A, rows), [live[j] for j in rows], [norms[j] for j in rows]

    # scalar multiples of the identity are the identity isometry
    lam0 = row_means(np.diagonal(A, axis1=1, axis2=2))
    offsets = np.abs(A - lam0[:, None, None] * eye(n)).max(axis=(1, 2))
    rows = []
    for j, (lam, offset) in enumerate(zip(lam0.tolist(), offsets.tolist())):
        if lam != 0 and offset <= tol * norms[j]:
            out[live[j]] = Identity()
        else:
            rows.append(j)
    if not rows:
        return out
    A, live = _take(A, rows), [live[j] for j in rows]

    datas = eigen_stack(A, tol=tol)
    rows = []
    for j, data in enumerate(datas):
        if isinstance(data, IndeterminateError):
            out[live[j]] = data
        elif data.rank_margin < INDETERMINATE_FACTOR:
            out[live[j]] = IndeterminateError(
                "diagonalizability decision too close to call", data.rank_margin)
        else:
            rows.append(j)
    if not rows:
        return out
    A, live, datas = _take(A, rows), [live[j] for j in rows], [datas[j] for j in rows]

    parabolic, elliptic = [], []
    for j, clusters in enumerate(_merge_defective(A, datas, tol)):
        # unit-norm test per cluster, with its own margin
        nonunit_alg = 0
        for cl in clusters:
            dev = abs(abs(cl.value) - 1.0)
            if dev <= tol:
                margin = tol / max(dev, NORM_FLOOR)
            else:
                nonunit_alg += cl.alg
                margin = dev / tol
            if margin < INDETERMINATE_FACTOR:
                out[live[j]] = IndeterminateError(
                    f"eigenvalue {cl.value:.6g} too close to the unit-norm threshold",
                    margin)
                break
        else:
            if not all(c.geo == c.alg for c in clusters):
                parabolic.append((j, clusters))
            elif nonunit_alg == 0:
                elliptic.append(j)
            elif nonunit_alg == 2:
                out[live[j]] = Loxodromic()
            else:
                out[live[j]] = GeometryError(
                    f"spectrum with {nonunit_alg} non-unit eigenvalues is "
                    "incompatible with a rank-one form isometry")

    if parabolic:
        rows = [j for j, _ in parabolic]
        subtypes = _unipotent_subtypes(_take(A, rows), tol)
        for (j, clusters), subtype in zip(parabolic, subtypes):
            subtype = subtype or _cluster_subtype(clusters)
            out[live[j]] = (subtype if isinstance(subtype, Exception)
                            else Parabolic(subtype))
    if elliptic:
        rows = [live[j] for j in elliptic]
        boundary = _elliptic_boundaries(_take(A, elliptic), [datas[j] for j in elliptic],
                                        J if len(J) == 1 else J[rows], convention, tol)
        for k, b in zip(rows, boundary):
            out[k] = Elliptic(b)
    return out


def grid_blocks(points: Iterable[Angle | float]
                ) -> Iterator[tuple[list[Angle], list, Exception | None]]:
    """Walk a sweep grid (a float is an angle in radians) in blocks of
    SWEEP_BLOCK points.  Yields, per block, the angles, their values and
    None; or, at the first point that is no angle (or whose iteration
    raised), the block's earlier points and that exception, and stops.
    A sweep evaluates and classifies the block's points first and raises
    the exception only if none of them failed, so the failure raised is
    the first one in grid order."""
    angles: list[Angle] = []
    values: list = []
    try:
        for x in points:
            angle, value = (x, x.value) if isinstance(x, Angle) else (Angle.radians(x), x)
            angles.append(angle)
            values.append(value)
            if len(angles) == SWEEP_BLOCK:
                yield angles, values, None
                angles, values = [], []
    except Exception as exc:
        yield angles, values, exc
        return
    if angles:
        yield angles, values, None


def sweep_verdict(result) -> tuple[str, float | None]:
    """A sweep cell from a ``classify_stack`` entry: the class, or
    "indeterminate" with its margin.  Any other error is raised."""
    if isinstance(result, IndeterminateError):
        return "indeterminate", result.margin
    return str(unwrap(result)), None
