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

from dataclasses import dataclass

import numpy as np

from .matrices import (EigenData, GeometryError, HermForm, IndeterminateError,
                       eigen, eigenvectors_for, form_defect)

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


def _norm(A: np.ndarray) -> float:
    return max(float(np.abs(A).max()), 1e-300)


def _merge_defective(A: np.ndarray, clusters, tol: float):
    """Repair eigenvalue-scatter artifacts: computed eigenvalues of a
    defective matrix spread by ~eps^(1/k), which can fake several
    nearby clusters.  Clusters closer than the scatter radius are
    merged when the merged center really is a (defective) eigenvalue
    (kernel nonempty there); if the merged center carries no kernel the
    nearby clusters were genuinely distinct and stay split.
    """
    from .matrices import EigenCluster

    n = A.shape[0]
    vscale = max(max(abs(c.value) for c in clusters), 1.0)
    suspect = 4.0 * float(np.finfo(float).eps) ** (1.0 / n) * vscale
    groups: list[list] = []
    for c in sorted(clusters, key=lambda c: (c.value.real, c.value.imag)):
        for g in groups:
            if any(abs(c.value - w.value) <= suspect for w in g):
                g.append(c)
                break
        else:
            groups.append([c])
    if all(len(g) == 1 for g in groups):
        return [g[0] for g in groups]
    thr = tol * max(float(np.linalg.norm(A, 2)), 1e-300)
    out = []
    for g in groups:
        if len(g) == 1:
            out.append(g[0])
            continue
        alg = sum(c.alg for c in g)
        lam = sum(c.value * c.alg for c in g) / alg
        sv = np.linalg.svd(A - lam * np.eye(n), compute_uv=False)
        geo = n - int(np.sum(sv > thr))
        if geo == 0:
            out.extend(g)  # no kernel at the center: genuinely distinct
        else:
            out.append(EigenCluster(lam, alg, geo))
    return out


def parabolic_subtype(A: np.ndarray, tol: float = 1e-9,
                      cluster_rtol: float = 1e-7) -> str:
    """Subtype of a (previously classified) parabolic matrix.

    A matrix with a single unit eigenvalue lambda is lambda times a
    unipotent, and then lambda = trace(A)/n exactly; that value is
    computed stably even when the eigenvalue scatter of a Jordan block
    defeats clustering, so the nilpotency test runs on A/lambda - I
    first.  Step 2 iff the square vanishes within tol, step 3 iff the
    cube does; otherwise several genuine clusters mean no unipotent
    lift (ellipto-parabolic).
    """
    A = np.asarray(A, dtype=complex)
    return _parabolic_subtype(A, None, tol, cluster_rtol)


def _parabolic_subtype(A: np.ndarray, clusters: list | None, tol: float,
                       cluster_rtol: float) -> str:
    """``parabolic_subtype`` reusing the merged eigenvalue ``clusters``
    of A when the caller has them (None: computed here if needed)."""
    n = A.shape[0]
    lam = complex(np.trace(A)) / n
    if lam != 0:
        N = A / lam - np.eye(n)
        s2 = max(_norm(N) ** 2, 1.0)
        sq = float(np.abs(N @ N).max())
        cb = float(np.abs(N @ N @ N).max())
        if sq <= tol * s2:
            return UNIPOTENT_STEP2
        if cb <= tol * s2 * max(_norm(N), 1.0):
            return UNIPOTENT_STEP3
    if clusters is None:
        data = eigen(A, tol=tol, cluster_rtol=cluster_rtol)
        clusters = _merge_defective(A, data.clusters, tol)
    if len(clusters) > 1:
        return ELLIPTO_PARABOLIC
    raise IndeterminateError(
        "one-cluster parabolic with no vanishing nilpotent power", 1.0)


def elliptic_boundary(A: np.ndarray, form: HermForm, tol: float = 1e-9,
                      cluster_rtol: float = 1e-7) -> bool:
    """Whether some fixed direction of an elliptic matrix is form-null,
    i.e. the isometry fixes a boundary point.

    Checked per eigenvalue cluster on the whole eigenspace: the space
    contains a null vector iff its Gram matrix is not definite.
    """
    A = np.asarray(A, dtype=complex)
    return _elliptic_boundary(A, eigen(A, tol=tol, cluster_rtol=cluster_rtol),
                              form, tol)


def _elliptic_boundary(A: np.ndarray, data: EigenData, form: HermForm,
                       tol: float) -> bool:
    """``elliptic_boundary`` on the already computed eigenstructure of A."""
    J = form.array()
    for cl in data.clusters:
        basis = eigenvectors_for(A, cl.value, tol=tol)
        if basis.shape[1] == 0:
            continue
        if form.convention == "conj-transpose":
            gram = basis.conj().T @ J @ basis
        else:
            gram = basis.T @ J @ basis.conj()
        gev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        scale = max(float(np.abs(gev).max()), 1.0)
        if gev.min() < -tol * scale and gev.max() > tol * scale:
            return True  # indefinite: null cone meets the eigenspace
        if float(np.abs(gev).min()) <= tol * scale:
            return True  # degenerate: an eigenvector itself is null
    return False


def classify(A: np.ndarray, form: HermForm, tol: float = 1e-9,
             cluster_rtol: float = 1e-7) -> IsoClass:
    """Classify a form-preserving matrix; scalar-multiple invariant.

    Raises GeometryError if A fails to preserve the form within tol (on
    the natural scale), IndeterminateError if a rank or unit-norm
    decision lands within 10x of its threshold.
    """
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise GeometryError("matrix has non-finite entries")
    n = A.shape[0]
    J = form.array()
    scale = max(1.0, _norm(A) ** 2 * _norm(J))
    defect = form_defect(A, form)
    if defect > tol * scale:
        raise GeometryError(
            f"matrix does not preserve the form: defect {defect:.3g} "
            f"exceeds {tol:.3g} * {scale:.3g}")

    # scalar multiples of the identity are the identity isometry
    diag = np.diagonal(A)
    lam0 = complex(np.mean(diag))
    if lam0 != 0 and float(np.abs(A - lam0 * np.eye(n)).max()) <= tol * _norm(A):
        return Identity()

    data = eigen(A, tol=tol, cluster_rtol=cluster_rtol)
    if data.rank_margin < 10:
        raise IndeterminateError("diagonalizability decision too close to call",
                                 data.rank_margin)
    clusters = _merge_defective(A, data.clusters, tol)

    # unit-norm test per cluster, with its own margin
    unit_alg = 0
    nonunit_alg = 0
    for cl in clusters:
        dev = abs(abs(cl.value) - 1.0)
        if dev <= tol:
            unit_alg += cl.alg
            margin = tol / max(dev, 1e-300)
        else:
            nonunit_alg += cl.alg
            margin = dev / tol
        if margin < 10:
            raise IndeterminateError(
                f"eigenvalue {cl.value:.6g} too close to the unit-norm threshold",
                margin)

    if not all(c.geo == c.alg for c in clusters):
        return Parabolic(_parabolic_subtype(A, clusters, tol, cluster_rtol))
    if nonunit_alg == 0:
        return Elliptic(_elliptic_boundary(A, data, form, tol))
    if nonunit_alg == 2:
        return Loxodromic()
    raise GeometryError(
        f"spectrum with {nonunit_alg} non-unit eigenvalues is incompatible "
        "with a rank-one form isometry")
