"""Stacked classification against the per-matrix reference.

``reference_classify`` below is the per-matrix classifier the package
ran before classification moved onto stacks of matrices.  The stacked
code must reproduce it row by row: the class, or the exception type and
message, and the margin bit for bit.
"""

import contextlib
import io
import math
from collections import namedtuple
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cuspdeform import bending, cli, figure8
from cuspdeform.bending import bianchi_family, bianchi_sweep
from cuspdeform.figure8 import build_family, figure8_sweep
from cuspdeform.heisenberg import (HeisPoint, dilation_matrix,
                                   rotation_matrix, translation_matrix)
from cuspdeform.isometry import (ELLIPTO_PARABOLIC, UNIPOTENT_STEP2,
                                 UNIPOTENT_STEP3, Elliptic, Identity,
                                 Loxodromic, Parabolic, SWEEP_BLOCK,
                                 classify, classify_stack, elliptic_boundary,
                                 parabolic_subtype)
from cuspdeform.matrices import (CONJ_TRANSPOSE, TRANSPOSE_CONJ, GeometryError,
                                 HermForm, IndeterminateError, eigen,
                                 eigen_stack, form_defect, siegel_form)
from cuspdeform.scalars import Angle

# ---------------------------------------------------------------------------
# The per-matrix reference
# ---------------------------------------------------------------------------

Cluster = namedtuple("Cluster", "value alg geo")
Eigen = namedtuple("Eigen", "clusters rank_margin")


def _ref_norm(A):
    return max(float(np.abs(A).max()), 1e-300)


def _ref_cluster_eigenvalues(ev, rtol):
    scale = max(float(np.abs(ev).max()), 1.0)
    groups = []
    for lam in sorted(ev, key=lambda z: (z.real, z.imag)):
        for g in groups:
            if any(abs(lam - w) <= rtol * scale for w in g):
                g.append(complex(lam))
                break
        else:
            groups.append([complex(lam)])
    return groups


def reference_eigen(A, tol=1e-9, cluster_rtol=1e-7):
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise GeometryError("matrix has non-finite entries")
    n = A.shape[0]
    ev = np.linalg.eigvals(A)
    norm = max(float(np.linalg.norm(A, 2)), 1e-300)
    thr = tol * norm
    rtol = cluster_rtol
    last = None
    while rtol <= 1.1e-3:
        clusters = []
        worst = float("inf")
        for group in _ref_cluster_eigenvalues(ev, rtol):
            lam = complex(np.mean(group))
            sv = np.linalg.svd(A - lam * np.eye(n), compute_uv=False)
            rank = int(np.sum(sv > thr))
            for s in sv:
                ratio = (s / thr) if s > thr else (thr / max(s, 1e-300))
                worst = min(worst, ratio)
            clusters.append(Cluster(lam, len(group), n - rank))
        last = Eigen(tuple(clusters), worst)
        if all(1 <= c.geo <= c.alg for c in clusters):
            return last
        rtol *= 10.0
    raise IndeterminateError(
        "eigenvalue clustering never reached consistent multiplicities",
        last.rank_margin if last is not None else 1.0)


def _ref_eigenvectors_for(A, lam, tol):
    n = A.shape[0]
    norm = max(float(np.linalg.norm(A, 2)), 1e-300)
    _, sv, vh = np.linalg.svd(A - lam * np.eye(n))
    keep = sv <= tol * norm
    return vh.conj().T[:, keep]


def _ref_form_defect(g, form):
    J = form.array()
    if form.convention == CONJ_TRANSPOSE:
        D = g.conj().T @ J @ g - J
    else:
        D = g.T @ J @ g.conj() - J
    return float(np.abs(D).max())


def _ref_merge_defective(A, clusters, tol):
    n = A.shape[0]
    vscale = max(max(abs(c.value) for c in clusters), 1.0)
    suspect = 4.0 * float(np.finfo(float).eps) ** (1.0 / n) * vscale
    groups = []
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
            out.extend(g)
        else:
            out.append(Cluster(lam, alg, geo))
    return out


def _ref_parabolic_subtype(A, clusters, tol, cluster_rtol):
    n = A.shape[0]
    lam = complex(np.trace(A)) / n
    if lam != 0:
        N = A / lam - np.eye(n)
        s2 = max(_ref_norm(N) ** 2, 1.0)
        sq = float(np.abs(N @ N).max())
        cb = float(np.abs(N @ N @ N).max())
        if sq <= tol * s2:
            return UNIPOTENT_STEP2
        if cb <= tol * s2 * max(_ref_norm(N), 1.0):
            return UNIPOTENT_STEP3
    if clusters is None:
        data = reference_eigen(A, tol=tol, cluster_rtol=cluster_rtol)
        clusters = _ref_merge_defective(A, data.clusters, tol)
    if len(clusters) > 1:
        return ELLIPTO_PARABOLIC
    raise IndeterminateError(
        "one-cluster parabolic with no vanishing nilpotent power", 1.0)


def _ref_elliptic_boundary(A, data, form, tol):
    J = form.array()
    for cl in data.clusters:
        basis = _ref_eigenvectors_for(A, cl.value, tol)
        if basis.shape[1] == 0:
            continue
        if form.convention == CONJ_TRANSPOSE:
            gram = basis.conj().T @ J @ basis
        else:
            gram = basis.T @ J @ basis.conj()
        gev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        scale = max(float(np.abs(gev).max()), 1.0)
        if gev.min() < -tol * scale and gev.max() > tol * scale:
            return True
        if float(np.abs(gev).min()) <= tol * scale:
            return True
    return False


def reference_classify(A, form, tol=1e-9, cluster_rtol=1e-7):
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise GeometryError("matrix has non-finite entries")
    n = A.shape[0]
    J = form.array()
    scale = max(1.0, _ref_norm(A) ** 2 * _ref_norm(J))
    defect = _ref_form_defect(A, form)
    if defect > tol * scale:
        raise GeometryError(
            f"matrix does not preserve the form: defect {defect:.3g} "
            f"exceeds {tol:.3g} * {scale:.3g}")
    lam0 = complex(np.mean(np.diagonal(A)))
    if lam0 != 0 and float(np.abs(A - lam0 * np.eye(n)).max()) <= tol * _ref_norm(A):
        return Identity()
    data = reference_eigen(A, tol=tol, cluster_rtol=cluster_rtol)
    if data.rank_margin < 10:
        raise IndeterminateError("diagonalizability decision too close to call",
                                 data.rank_margin)
    clusters = _ref_merge_defective(A, data.clusters, tol)
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
        return Parabolic(_ref_parabolic_subtype(A, clusters, tol, cluster_rtol))
    if nonunit_alg == 0:
        return Elliptic(_ref_elliptic_boundary(A, data, form, tol))
    if nonunit_alg == 2:
        return Loxodromic()
    raise GeometryError(
        f"spectrum with {nonunit_alg} non-unit eigenvalues is incompatible "
        "with a rank-one form isometry")


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def outcome(result):
    """A class, or an error with its type, message and margin bits."""
    if isinstance(result, Exception):
        margin = getattr(result, "margin", None)
        return (type(result).__name__, str(result),
                None if margin is None else float(margin).hex())
    return ("class", str(result), None)


def bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def eigen_outcome(result):
    """Clusters with their value bits, and the margin bits (or the error)."""
    if isinstance(result, Exception):
        return outcome(result)
    return ([(bits(c.value), c.alg, c.geo) for c in result.clusters],
            float(result.rank_margin).hex())


def reference_outcome(A, form, tol):
    try:
        return outcome(reference_classify(A, form, tol=tol))
    except GeometryError as exc:
        return outcome(exc)


def siegel_isometry(J, rng, scale):
    """exp(J^-1 X), X anti-hermitian: preserves the hermitian J (real
    here, so in both conventions)."""
    n = J.shape[0]
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return expm(np.linalg.inv(J) @ (scale * (B - B.conj().T)))


def construction(kind, size, rng):
    """A Siegel-model stabilizer of infinity of a known class."""
    k = size - 2

    def unit():
        return np.exp(1j * rng.uniform(0.3, 2.8) * rng.choice((-1, 1)))

    def rotation():
        return rotation_matrix(np.diag([unit() for _ in range(k)]))

    t = rng.uniform(0.4, 2.0) * rng.choice((-1, 1))
    if kind == "vertical":
        return translation_matrix(HeisPoint((0,) * k, t))
    if kind == "horizontal":
        z = rng.normal(size=k) + 1j * rng.normal(size=k)
        return translation_matrix(HeisPoint(tuple(z), t))
    if kind == "rotation":
        return rotation()
    if kind == "screw":
        return translation_matrix(HeisPoint((0,) * k, t)) @ rotation()
    if kind == "dilation":
        r = rng.uniform(1.4, 3.0) ** rng.choice((-1, 1))
        return dilation_matrix(r, k) @ rotation()
    raise ValueError(kind)


KINDS = ("vertical", "horizontal", "rotation", "screw", "dilation",
         "ball-rotation", "near-unit-dilation", "small-translation",
         "large-dilation", "so41-small-theta", "non-isometry", "non-finite",
         "scalar", "zero")


def make_row(kind, size, rng):
    if kind in ("vertical", "horizontal", "rotation", "screw", "dilation"):
        A = construction(kind, size, rng)
        if rng.random() < 0.5:  # conjugate off the standard position
            h = siegel_isometry(siegel_form(size).array(), rng, 0.3)
            A = h @ A @ np.linalg.inv(h)
        return A
    if kind == "ball-rotation":  # fixes an interior point only
        # Q^T J Q = diag(1, ..., 1, -1) for the Siegel form J
        Q = np.eye(size)
        Q[0, 0] = Q[0, -1] = Q[-1, 0] = 2 ** -0.5
        Q[-1, -1] = -(2 ** -0.5)
        D = np.diag(np.exp(1j * rng.uniform(-3.0, 3.0, size=size)))
        return Q @ D @ Q.T
    if kind == "near-unit-dilation":  # the unit-norm decision near its threshold
        return dilation_matrix(1.0 + rng.uniform(1.0, 40.0) * 1e-9, size - 2)
    if kind == "small-translation":  # rank decisions near their thresholds
        k = size - 2
        z = (rng.normal(size=k) + 1j * rng.normal(size=k)) * 10.0 ** rng.uniform(-9, -3)
        return translation_matrix(HeisPoint(tuple(z), 10.0 ** rng.uniform(-9, -3)))
    if kind == "large-dilation":  # a norm far from the others in the stack
        return dilation_matrix(10.0 ** rng.uniform(2, 6), size - 2) @ construction(
            "rotation", size, rng)
    if kind == "so41-small-theta":  # near the undeformed letter
        if size != 5:
            return construction("vertical", size, rng)
        return so41_letter(int(rng.choice((2, 5, 7))),
                           float(rng.choice((1e-4, 1e-3, 2e-3, 5e-3, 3e-2))))
    if kind == "non-isometry":
        return np.diag([2.0] + [1.0] * (size - 1)).astype(complex)
    if kind == "non-finite":
        A = construction("vertical", size, rng)
        A[int(rng.integers(size)), int(rng.integers(size))] = float(
            rng.choice((np.nan, np.inf, -np.inf)))
        return A
    if kind == "scalar":
        return np.exp(1j * rng.uniform(-3, 3)) * np.eye(size, dtype=complex)
    if kind == "zero":
        return np.zeros((size, size), dtype=complex)
    raise ValueError(kind)


@lru_cache(maxsize=None)
def so41_letter(d, theta):
    fam = bianchi_family(d, "so41", theta=Angle.radians(theta))
    return np.asarray(fam.images["u"], dtype=complex)


def form_of(size, convention):
    return HermForm(siegel_form(size).array(), convention)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestStackEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from((4, 5)),
           convention=st.sampled_from((CONJ_TRANSPOSE, TRANSPOSE_CONJ)),
           kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
           tol=st.sampled_from((1e-10, 1e-9, 1e-8)))
    def test_row_by_row(self, seed, size, convention, kinds, tol):
        rng = np.random.default_rng(seed)
        S = np.stack([make_row(kind, size, rng) for kind in kinds])
        form = form_of(size, convention)
        got = [outcome(r) for r in classify_stack(S, form, tol=tol)]
        want = [reference_outcome(A, form, tol) for A in S]
        assert got == want
        assert [outcome(_try(classify, A, form, tol)) for A in S] == want
        finite = [k for k in range(len(S)) if np.all(np.isfinite(S[k]))]
        assert [eigen_outcome(r) for r in eigen_stack(S[finite], tol)] == [
            eigen_outcome(_try(reference_eigen, S[k], tol)) for k in finite]

    def test_every_outcome_occurs(self):
        # the rows the strategy draws reach every outcome of the reference
        rng = np.random.default_rng(7)
        seen = set()
        for size in (4, 5):
            form = form_of(size, CONJ_TRANSPOSE)
            for kind in KINDS:
                for _ in range(6):
                    A = make_row(kind, size, rng)
                    kind_of, text, _ = reference_outcome(A, form, 1e-9)
                    seen.add(text if kind_of == "class" else kind_of)
        assert seen == {"IndeterminateError", "GeometryError", "identity",
                        "elliptic(boundary)", "elliptic(single-point)",
                        "parabolic(unipotent-step2)", "parabolic(unipotent-step3)",
                        "parabolic(ellipto-parabolic)", "loxodromic"}

    def test_per_row_forms(self):
        # figure-eight matrices, each against the form at its own angle
        fams = [build_family(Angle.radians(a)) for a in (0.3, -0.5, 1.1, 1e-7)]
        S = np.stack([A for f in fams for A in (f.M, f.longitude())])
        forms = [f.form for f in fams for _ in range(2)]
        got = [outcome(r) for r in classify_stack(S, forms)]
        want = [reference_outcome(A, form, 1e-9) for A, form in zip(S, forms)]
        assert got == want

    def test_per_row_conjugated_forms(self):
        # row k preserves P_k* J P_k, a form of its own
        rng = np.random.default_rng(5)
        rows, forms = [], []
        for kind in ("ball-rotation", "rotation", "screw", "dilation") * 6:
            P = np.eye(4) + 0.7 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            J = siegel_form(4).array()
            rows.append(np.linalg.inv(P) @ make_row(kind, 4, rng) @ P)
            forms.append(HermForm(P.conj().T @ J @ P, CONJ_TRANSPOSE))
        got = [outcome(r) for r in classify_stack(np.stack(rows), forms, tol=1e-8)]
        want = [reference_outcome(A, form, 1e-8) for A, form in zip(rows, forms)]
        assert got == want
        assert {"elliptic(boundary)", "elliptic(single-point)"} <= {w[1] for w in want}

    def test_two_models_per_row(self):
        # Siegel-model rows against the Siegel form, ball-model rows (a
        # diagonal unitary fixes the centre) against diag(1, 1, 1, -1):
        # each row's eigenvectors are null for one of the forms only
        rng = np.random.default_rng(8)
        ball = HermForm(np.diag([1.0, 1.0, 1.0, -1.0]), CONJ_TRANSPOSE)
        rows, forms = [], []
        for kind in ("rotation", "dilation", "screw", "vertical") * 3:
            rows.append(make_row(kind, 4, rng))
            forms.append(form_of(4, CONJ_TRANSPOSE))
            rows.append(np.diag(np.exp(1j * rng.uniform(-3.0, 3.0, size=4))))
            forms.append(ball)
        got = [outcome(r) for r in classify_stack(np.stack(rows), forms)]
        want = [reference_outcome(A, form, 1e-9) for A, form in zip(rows, forms)]
        assert got == want
        assert want[1::2] == [("class", "elliptic(single-point)", None)] * 12

    def test_norms_stay_with_their_rows(self):
        # merges and kernels of the so41 letter near theta = 0 decide on
        # singular values of order theta^2, next to a row of norm 10^6
        rng = np.random.default_rng(4)
        rows = [make_row("large-dilation", 5, rng)]
        rows += [so41_letter(d, theta) for d in (2, 5, 7)
                 for theta in (1e-4, 1e-3, 2e-3, 5e-3, 3e-2)]
        for tol in (1e-10, 1e-9, 1e-8):
            form = form_of(5, CONJ_TRANSPOSE)
            got = [outcome(r) for r in classify_stack(np.stack(rows), form, tol=tol)]
            assert got == [reference_outcome(A, form, tol) for A in rows]
        # an elliptic of norm 7e3 (a rotation conjugated by a long
        # translation), then ball rotations whose positive and negative
        # eigenvalues lie 1e-6 apart: a kernel threshold scaled by the
        # first row would join their eigenspaces into one indefinite kernel
        far = translation_matrix(HeisPoint((100, 50j), 3.0))
        rows = [far @ construction("rotation", 4, rng) @ np.linalg.inv(far)]
        forms = [form_of(4, CONJ_TRANSPOSE)]
        ball = HermForm(np.diag([1.0, 1.0, 1.0, -1.0]), CONJ_TRANSPOSE)
        for phase in rng.uniform(-3.0, 3.0, size=6):
            rows.append(np.diag(np.exp(1j * (phase + np.array([1e-6, 1.0, 2.0, 0.0])))))
            forms.append(ball)
        got = [outcome(r) for r in classify_stack(np.stack(rows), forms)]
        want = [reference_outcome(A, form, 1e-9) for A, form in zip(rows, forms)]
        assert got == want
        assert want == [("class", "elliptic(boundary)", None)] + \
            [("class", "elliptic(single-point)", None)] * 6

    def test_large_tolerance(self):
        # tol >= 1 lets even the zero matrix past the form check
        rng = np.random.default_rng(3)
        for tol in (0.5, 2.0):
            S = np.stack([make_row(kind, 4, rng) for kind in KINDS])
            form = form_of(4, CONJ_TRANSPOSE)
            got = [outcome(r) for r in classify_stack(S, form, tol=tol)]
            assert got == [reference_outcome(A, form, tol) for A in S]

    def test_malformed_stacks_rejected(self):
        S = np.stack([np.eye(4), np.eye(4)]).astype(complex)
        with pytest.raises(ValueError, match="one convention"):
            classify_stack(S, [form_of(4, CONJ_TRANSPOSE), form_of(4, TRANSPOSE_CONJ)])
        with pytest.raises(ValueError, match="3 forms for 2 matrices"):
            classify_stack(S, [form_of(4, CONJ_TRANSPOSE)] * 3)
        with pytest.raises(ValueError, match="must be square"):
            classify(np.ones((3, 4)), siegel_form(4))
        with pytest.raises(ValueError, match="must be square"):
            classify_stack(np.ones((4, 4)), siegel_form(4))

    def test_empty_stack(self):
        assert classify_stack(np.zeros((0, 4, 4), dtype=complex), siegel_form(4)) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite rows
    def test_one_row_helpers(self):
        rng = np.random.default_rng(11)
        for size in (4, 5):
            form = siegel_form(size)
            for kind in KINDS:
                for _ in range(3):
                    A = make_row(kind, size, rng)
                    assert outcome(_try(parabolic_subtype, A)) == \
                        outcome(_try(_ref_parabolic_subtype, A, None, 1e-9, 1e-7))
                    want = _try(reference_eigen, A)
                    assert eigen_outcome(_try(eigen, A)) == eigen_outcome(want)
                    if not isinstance(want, Exception):
                        assert elliptic_boundary(A, form) == \
                            _ref_elliptic_boundary(A, want, form, 1e-9)
                    assert form_defect(A, form).hex() == _ref_form_defect(A, form).hex()


def _try(fn, *args):
    try:
        return fn(*args)
    except GeometryError as exc:
        return exc


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _grid(start, end, count):
    step = (end - start) / (count - 1)
    return [start + k * step for k in range(count)]


class TestSweepBlocks:
    """The sweeps evaluate and classify per block; a failure is raised
    only after every earlier point is known not to fail."""

    GRID = _grid(0.1, 1.9, 2 * SWEEP_BLOCK + 10)  # on the (3,1) arc

    @pytest.mark.parametrize("broken, raising, expected", [
        (5, 40, GeometryError),            # one block, classify error first
        (40, 5, AssertionError),           # one block, evaluation error first
        (3, SWEEP_BLOCK + 2, GeometryError),
        (SWEEP_BLOCK + 2, 3, AssertionError),
        (SWEEP_BLOCK - 1, SWEEP_BLOCK, GeometryError),
    ])
    def test_figure8_first_failure_in_grid_order(self, monkeypatch, broken, raising,
                                                  expected):
        real = figure8._numeric_families
        grid = self.GRID

        def families(powers, *args, **kwargs):
            M, N, L, failure = real(powers, *args, **kwargs)
            values = [a.value for a in powers.angles][:len(M)]
            if grid[broken] in values:  # no longer preserves the form
                M = M.copy()
                M[values.index(grid[broken])] *= 2
            if grid[raising] in values:
                k = values.index(grid[raising])
                M, N, L = M[:k], N[:k], L[:k]
                failure = AssertionError("internal error: defining relation defect")
            return M, N, L, failure

        monkeypatch.setattr(figure8, "_numeric_families", families)
        with pytest.raises(expected) as exc:
            figure8_sweep(grid)
        assert type(exc.value) is expected

    @pytest.mark.parametrize("broken, raising, expected", [
        (7, 30, GeometryError),
        (30, 7, ValueError),
        (SWEEP_BLOCK + 1, 2, ValueError),
        (2, SWEEP_BLOCK + 1, GeometryError),
    ])
    def test_bianchi_first_failure_in_grid_order(self, monkeypatch, broken, raising,
                                                 expected):
        real = bending._so41_letters
        grid = self.GRID

        def letters(data, thetas):
            U, failure = real(data, thetas)
            values = [theta.value for theta in thetas][:len(U)]
            if grid[broken] in values:
                U = U.copy()
                U[values.index(grid[broken])] *= 2
            if grid[raising] in values:
                U = U[:values.index(grid[raising])]
                failure = ValueError("bending angle rejected")
            return U, failure

        monkeypatch.setattr(bending, "_so41_letters", letters)
        with pytest.raises(expected) as exc:
            bianchi_sweep(2, "so41", grid)
        assert type(exc.value) is expected

    def test_unbroken_grid_still_sweeps(self):
        rows = figure8_sweep(self.GRID)
        assert len(rows) == len(self.GRID)
        assert all(r.classes == ("parabolic(unipotent-step3)",
                                 "parabolic(ellipto-parabolic)") for r in rows)

    @pytest.mark.parametrize("argv", [
        ["sweep", "figure8", "--start", "-3.0", "--end", "3.0", "--count", "720"],
        ["sweep", "bianchi", "--d", "7", "--start", "-3.0", "--end", "3.0",
         "--count", "720"],
        ["sweep", "bianchi", "--d", "5", "--target", "so41", "--start", "-3.0",
         "--end", "3.0", "--count", "720"],
    ])
    def test_one_eigvals_call_per_block(self, monkeypatch, argv):
        calls = []
        real = np.linalg.eigvals

        def counting(a):
            calls.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue().count("parabolic") + out.getvalue().count("elliptic") > 0
        assert 0 < len(calls) <= math.ceil(720 / SWEEP_BLOCK)
