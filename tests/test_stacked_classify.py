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
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cuspdeform import cli, figure8, isometry
from cuspdeform.bending import bianchi_family, bianchi_sweep
from cuspdeform.figure8 import build_family, figure8_sweep
from cuspdeform.heisenberg import (HeisPoint, dilation_matrix,
                                   rotation_matrix, translation_matrix)
from cuspdeform.isometry import (CLASSES, ELLIPTO_PARABOLIC, UNIPOTENT_STEP2,
                                 UNIPOTENT_STEP3, Elliptic, Identity,
                                 Loxodromic, Parabolic, SWEEP_BLOCK,
                                 _trace_means, _unipotent_subtypes, classify,
                                 classify_stack, elliptic_boundary, parabolic_subtype)
from cuspdeform import matrices
from cuspdeform.matrices import (CONJ_TRANSPOSE, TRANSPOSE_CONJ, GeometryError,
                                 HermForm, IndeterminateError, Mat, UnitPowers,
                                 chain_groups, eigen, eigen_stack, form_defect,
                                 siegel_form)
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
        clusters = reference_eigen(A, tol=tol, cluster_rtol=cluster_rtol).clusters
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
    clusters = data.clusters
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
        # kernels of the so41 letter near theta = 0 decide on
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
# The grouping kernel, on adversarial spectra
# ---------------------------------------------------------------------------

def _kernel_groups(values, radius):
    """``chain_groups`` of each row, as lists of member values."""
    values = np.asarray(values, dtype=complex)
    members, sizes, rows = chain_groups(values, np.asarray(radius, dtype=float))
    flat = values.ravel()[members].tolist()
    out = [[] for _ in range(len(values))]
    at = 0
    for size, row in zip(sizes.tolist(), rows.tolist()):
        out[row].append(flat[at:at + size])
        at += size
    return out


def _group_bits(groups):
    return [[bits(z) for z in g] for g in groups]


def adversarial_spectra(r):
    """Spectra (n = 2 ... 6) that stress the greedy union at clustering
    radius r about values of modulus at most 1."""
    z = complex
    return {
        # equal real parts: the imaginary part orders them
        "real-ties": [z(1, 0.5 * r), z(1, -0.5 * r), z(1, 0), z(1, 2 * r), z(1, 1.2 * r)],
        # signed zeros tie with each other, stably, and keep their signs
        "signed-zeros": [z(0.0, 0.0), z(-0.0, 0.0), z(0.0, -0.0), z(-0.0, -0.0),
                         z(0.5 * r, -0.0)],
        "signed-zero-parts": [z(-0.0, 0.3 * r), z(0.0, 0.3 * r), z(0.2 * r, -0.0),
                              z(-0.0, -0.0)],
        # the last is within reach of both earlier groups: it joins the
        # first-created one
        "two-reaches": [z(0, 0), z(0, 1.5 * r), z(0.1 * r, 0.75 * r)],
        "two-reaches-reversed": [z(0.1 * r, 0.75 * r), z(0, 1.5 * r), z(0, 0)],
        # a chain whose ends lie far apart
        "chain": [z(1 + k * 0.9 * r, 0.1 * r * (-1) ** k) for k in (3, 0, 4, 1, 5, 2)],
        # a Jordan-like scatter around 1 and an interleaved second group
        "scatter": [1 + 0.6 * r * np.exp(2j * np.pi * k / 3) for k in range(3)]
                   + [z(1 + 0.3 * r, 5 * r), z(1 - 0.3 * r, 5.5 * r)],
        "pair": [z(1, 0), z(1 + r, 0)],
        "apart": [z(-1, 0), z(1, 0), z(0, 1), z(0, -1), z(0.6, 0.8), z(0.6, -0.8)],
    }


class TestGroupingKernel:
    """``chain_groups`` against the per-matrix greedy union of the
    reference, ``_ref_cluster_eigenvalues``, bit for bit."""

    @pytest.mark.parametrize("name", sorted(adversarial_spectra(1e-3)))
    def test_adversarial_rows(self, name):
        values = adversarial_spectra(1e-3)[name]
        scale = max(float(np.abs(np.array(values)).max()), 1.0)
        want = _group_bits(_ref_cluster_eigenvalues(np.array(values), 1e-3))
        assert _group_bits(_kernel_groups([values], [1e-3 * scale])[0]) == want

    def test_two_reaches_joins_the_first_group(self):
        a, b, c = adversarial_spectra(1e-3)["two-reaches"]
        assert _kernel_groups([[a, b, c]], [1e-3]) == [[[a, c], [b]]]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
           rows=st.integers(1, 9))
    def test_random_stacks_with_a_radius_per_row(self, seed, n, rows):
        # clouds around a few centres, at spreads about the radius, with
        # exact repeats and signed zeros; every row has its own radius
        rng = np.random.default_rng(seed)
        rtols = (10.0 ** rng.uniform(-4, -1, size=rows)).tolist()
        stack, radius = [], []
        for rtol in rtols:
            centres = rng.choice([0j, 1 + 0j, complex(-0.0, 1), complex(-0.0, -0.0)],
                                 size=rng.integers(1, 3))
            row = [complex(rng.choice(centres) + rtol * complex(*rng.normal(size=2))
                           * rng.choice((0.0, 0.3, 0.7, 1.5)))
                   for _ in range(n)]
            if rng.random() < 0.3:
                row[-1] = row[0]
            stack.append(row)
            radius.append(rtol * max(float(np.abs(np.array(row)).max()), 1.0))
        got = _kernel_groups(stack, radius)
        assert [_group_bits(groups) for groups in got] == [
            _group_bits(_ref_cluster_eigenvalues(np.array(row), rtol))
            for row, rtol in zip(stack, rtols)]

    def test_distance_at_the_radius(self):
        # pairs whose distance np.abs rounds off Python's abs: at either
        # value as the radius, they join exactly when the reference says
        rng = np.random.default_rng(3)
        pairs = []
        while len(pairs) < 20:
            a, b = (complex(*rng.uniform(-0.7, 0.7, size=2)) for _ in range(2))
            if float(np.abs(np.complex128(a - b))) != abs(a - b):
                pairs.append((a, b))
        for a, b in pairs:
            for r in (abs(a - b), float(np.abs(np.complex128(a - b)))):
                want = _ref_cluster_eigenvalues(np.array([a, b]), r)  # scale 1
                assert _group_bits(_kernel_groups([[a, b]], [r])[0]) == _group_bits(want)

    def test_moduli_are_python_abs(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=2000) * np.exp(rng.uniform(-30, 30, size=2000)) \
            + 1j * rng.normal(size=2000)
        assert [x.hex() for x in matrices.moduli(z).tolist()] == \
            [abs(w).hex() for w in z.tolist()]

    def test_nan_padding_stands_alone(self):
        nan = complex(np.nan, np.nan)
        got = _kernel_groups([[1 + 0j, nan, 1 + 1e-9j], [nan, nan, 2 + 0j]], [1e-3, 1e-3])
        assert [[len(g) for g in row] for row in got] == [[2, 1], [1, 1, 1]]
        assert got[0][0] == [1 + 0j, 1 + 1e-9j] and got[1][0] == [2 + 0j]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_eigen_of_adversarial_diagonals(self, n):
        # the eigenvalues of a diagonal matrix are its diagonal: the
        # adversarial spectra reach the clustering of eigen_stack as they
        # are, at its first radius 1e-7
        rows = [values[:n] for values in adversarial_spectra(1e-7).values()
                if len(values) >= n]
        S = np.stack([np.diag(np.array(v, dtype=complex)) for v in rows])
        assert [eigen_outcome(r) for r in eigen_stack(S)] == [
            eigen_outcome(_try(reference_eigen, A)) for A in S]

    def test_rows_escalate_to_different_radii(self):
        # the figure-eight m is consistent at the first radius and the
        # longitude at alpha = 0.3 only at the second; a diagonal pair
        # closer than the radius never gets a kernel at its centre and
        # exhausts the radii; every row keeps to its own
        fam = build_family(Angle.radians(0.3))
        for n, rows in ((4, [fam.longitude(), fam.M]),
                        (5, [so41_letter(7, 3e-2)])):
            rows = rows + [np.diag([1.0, 1.0 + 5e-8] + [2.0] * (n - 2)).astype(complex)]
            S = np.stack(rows + rows[::-1])
            assert [eigen_outcome(r) for r in eigen_stack(S)] == [
                eigen_outcome(_try(reference_eigen, A)) for A in S]
            radii = [_stop_radius(A) for A in rows]
            assert len(set(radii)) == len(radii)
            assert radii[-1] is None


def _stop_radius(A, tol=1e-9):
    """The clustering radius at which ``reference_eigen`` stops, or None."""
    n = A.shape[0]
    ev = np.linalg.eigvals(A)
    thr = tol * max(float(np.linalg.norm(A, 2)), 1e-300)
    rtol = 1e-7
    while rtol <= 1.1e-3:
        geos = [(len(g), n - int(np.sum(np.linalg.svd(
            A - complex(np.mean(g)) * np.eye(n), compute_uv=False) > thr)))
            for g in _ref_cluster_eigenvalues(ev, rtol)]
        if all(1 <= geo <= alg for alg, geo in geos):
            return rtol
        rtol *= 10.0
    return None


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _grid(start, end, count):
    step = (end - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _values_of(points):
    """The values of angles (a float is its own value)."""
    return [a.value if isinstance(a, Angle) else a for a in points]


def _values(powers):
    """The values of a block's points."""
    return _values_of(powers.points)


class TestSweepBlocks:
    """The sweeps evaluate and classify per block; a failure is raised
    only after every earlier point is known not to fail.  The boundary
    cases sit at multiples of BLOCK, which the tests that use them set as
    the block size (``blocks``); TestBlockSizeInvariance covers the
    default.  A figure-eight sweep classifies a raw angle exactly, with no
    numeric family to break, so its grid is pi-rational."""

    BLOCK = 64
    GRID = _grid(0.1, 1.9, 2 * BLOCK + 10)  # on the (3,1) arc
    PI_GRID = [Angle.pi_times(Fraction(k, 300)) for k in range(1, 2 * BLOCK + 11)]

    @classmethod
    def _grid_of(cls, kind):
        return cls.PI_GRID if kind == "figure8" else cls.GRID

    @pytest.fixture
    def blocks(self, monkeypatch):
        monkeypatch.setattr(isometry, "SWEEP_BLOCK", self.BLOCK)

    @pytest.mark.parametrize("broken, raising, expected", [
        (5, 40, GeometryError),            # one block, classify error first
        (40, 5, ValueError),               # one block, the grid's error first
        (3, BLOCK + 2, GeometryError),
        (BLOCK + 2, 3, ValueError),
        (BLOCK - 1, BLOCK, GeometryError),
    ])
    def test_figure8_first_failure_in_grid_order(self, monkeypatch, blocks, broken, raising,
                                                  expected):
        # m stops preserving the form at grid[broken], and grid[raising]
        # is no angle
        _, sweep = self._spy_blocks(monkeypatch, "figure8", broken)
        grid = list(self.PI_GRID)
        grid[raising] = math.nan
        with pytest.raises(expected) as exc:
            sweep(grid)
        assert type(exc.value) is expected

    @pytest.mark.parametrize("broken, raising, expected", [
        (7, 30, GeometryError),
        (30, 7, ValueError),
        (BLOCK + 1, 2, ValueError),
        (2, BLOCK + 1, GeometryError),
    ])
    def test_bianchi_first_failure_in_grid_order(self, monkeypatch, blocks, broken, raising,
                                                 expected):
        # the letter stops preserving the form at grid[broken], and
        # grid[raising] is no angle
        real = Mat.evaluate_stack
        grid = list(self.GRID)
        grid[raising] = math.nan
        bad = grid[broken]

        def evaluate_stack(mat, powers):
            U = real(mat, powers)
            values = _values(powers)
            if mat.n == 5 and bad in values:
                U = U.copy()
                U[values.index(bad)] *= 2
            return U

        monkeypatch.setattr(Mat, "evaluate_stack", evaluate_stack)
        with pytest.raises(expected) as exc:
            bianchi_sweep(2, "so41", grid)
        assert type(exc.value) is expected

    @staticmethod
    def _iterating(grid, raising):
        """The grid as an iterator that raises RuntimeError when asked
        for point ``raising``."""
        for k, x in enumerate(grid):
            if k == raising:
                raise RuntimeError(f"grid source failed before point {k}")
            yield x

    @staticmethod
    def _spy_blocks(monkeypatch, kind, broken):
        """Record the values of every block a sweep evaluates and, unless
        ``broken`` is None, break the form at point ``broken`` of the
        kind's grid."""
        seen = []
        bad = None if broken is None else _values_of(TestSweepBlocks._grid_of(kind))[broken]
        if kind == "figure8":
            broken_mat, sweep = build_family(None).M, figure8_sweep
        else:
            broken_mat = bianchi_family(2, kind).images["u"]
            sweep = partial(bianchi_sweep, 2, kind)
        real = Mat.evaluate_stack

        def evaluate_stack(mat, powers):
            U = real(mat, powers)
            if mat is broken_mat:
                values = _values(powers)
                seen.extend(values)
                if bad in values:
                    U[values.index(bad)] *= 2
            return U

        monkeypatch.setattr(Mat, "evaluate_stack", evaluate_stack)
        return seen, sweep

    @pytest.mark.parametrize("kind", ["figure8", "su31", "so41"])
    @pytest.mark.parametrize("raising", [0, BLOCK, BLOCK + 6])
    def test_grid_iterator_raising(self, monkeypatch, blocks, kind, raising):
        # the grid's own error, raised after every earlier point is swept
        seen, sweep = self._spy_blocks(monkeypatch, kind, None)
        grid = self._grid_of(kind)
        with pytest.raises(RuntimeError) as exc:
            sweep(self._iterating(grid, raising))
        assert type(exc.value) is RuntimeError
        assert str(exc.value) == f"grid source failed before point {raising}"
        assert seen == _values_of(grid[:raising])

    @pytest.mark.parametrize("kind", ["figure8", "su31", "so41"])
    @pytest.mark.parametrize("broken, raising, expected", [
        (3, BLOCK, GeometryError),
        (BLOCK + 2, BLOCK + 6, GeometryError),
        (BLOCK + 8, BLOCK + 6, RuntimeError),
    ])
    def test_earlier_classification_error_wins(self, monkeypatch, blocks, kind, broken,
                                               raising, expected):
        _, sweep = self._spy_blocks(monkeypatch, kind, broken)
        with pytest.raises(expected) as exc:
            sweep(self._iterating(self._grid_of(kind), raising))
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
        # per block: one eigvals call, and singular-value calls for the
        # norms, one per clustering radius reached and one for the
        # elliptic kernels: no numpy call per matrix.  A raw figure-eight
        # sweep takes its classes from the exact family and makes none
        events = []

        def counting(name, real):
            def call(*args, **kwargs):
                events.append(name)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(matrices, "chain_groups",
                            counting("radius", matrices.chain_groups))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue().count("parabolic") + out.getvalue().count("elliptic") > 0
        if argv[1] == "figure8":
            assert events == []
            return
        assert events[0] == "eigvals"
        blocks = "".join(e[0] for e in events).split("e")[1:]
        assert 0 < len(blocks) <= math.ceil(720 / SWEEP_BLOCK)
        for block in blocks:
            radii = block.count("r")
            assert 1 <= radii <= 5
            assert block.count("s") <= 1 + radii + 1


# ---------------------------------------------------------------------------
# Array decisions against the loops they replaced
# ---------------------------------------------------------------------------

@st.composite
def unipotent_stacks(draw):
    """A stack of 1 to 12 matrices lam (I + N) + E of size 4 or 5: N a
    step-2 or step-3 nilpotent, or dense, at a scale up to past 1e154,
    where the square of the norm overflows; lam of any size, down to one
    whose quotient overflows; E a perturbation near the thresholds.
    Some rows have a trace of exactly zero."""
    n = draw(st.sampled_from([4, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["step2", "step3", "dense", "zero-trace"]))
        N = np.zeros((n, n), dtype=complex)
        if kind == "step2":
            N[0, n - 1] = 1.0
        elif kind == "step3":
            N[0, 1] = N[1, 2] = 1.0
        else:
            N = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        N *= 10.0 ** draw(st.sampled_from([0.0, 3.0, 153.5, 154.0, 154.2, 160.0]))
        lam = complex(*rng.normal(size=2)) * 10.0 ** draw(st.sampled_from([0.0, -8.0, 8.0, -300.0]))
        A = lam * (np.eye(n) + N)
        A = A + 10.0 ** draw(st.sampled_from([-16.0, -12.0, -8.0, -4.0])) * rng.normal(size=(n, n))
        if kind == "zero-trace":
            A[n - 1, n - 1] = -sum(A[j, j] for j in range(n - 1))
        rows.append(A)
    return np.stack(rows)


class TestColumnsEqualLoops:
    """The array decisions give, bit for bit, what the per-matrix and
    per-angle loops they replaced gave (the oracles of conftest)."""

    @settings(max_examples=300, deadline=None)
    @given(unipotent_stacks(), st.sampled_from([1e-9, 1e-6, 1e-3]))
    def test_unipotent_subtypes(self, loop_unipotent_subtypes, S, tol):
        with np.errstate(all="ignore"):
            want, lams = loop_unipotent_subtypes(S, tol)
            got = _unipotent_subtypes(S, tol).tolist()
        assert [CLASSES[c].subtype if c >= 0 else None for c in got] == want
        assert [(z.real.hex(), z.imag.hex()) for z in _trace_means(S).tolist()] == [
            (z.real.hex(), z.imag.hex()) for z in lams]

    def test_zero_traces_and_overflowing_norms_occur(self, loop_unipotent_subtypes):
        # the strategy's edge rows, one of each
        N = np.zeros((4, 4))
        N[0, 1] = N[1, 2] = 1e154  # step 3, whose square of the norm overflows
        S = np.stack([np.diag([1.0, -1.0, 2.0, -2.0]).astype(complex),
                      np.eye(4) + N, np.eye(4) + N / 1e154])
        assert loop_unipotent_subtypes(S, 1e-9)[0] == [None, None, "unipotent-step3"]
        assert _unipotent_subtypes(S, 1e-9).tolist() == [-1, -1, CLASSES.index(
            Parabolic(UNIPOTENT_STEP3))]

    block_point = st.one_of(
        st.sampled_from([0.0, -0.0, 1e300, -1.7e308, 5e-324]),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.fractions(min_value=-4, max_value=4, max_denominator=12).map(Angle.pi_times),
        st.floats(min_value=-10, max_value=10, allow_nan=False).map(Angle.radians))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(block_point, min_size=1, max_size=40),
           st.lists(st.integers(-6, 6), max_size=8), st.integers(0, 8))
    def test_power_table(self, angle_power_table, points, exponents, first):
        # a float is a grid point, read as Angle.radians reads it; the
        # table may be asked for some exponents before the rest
        angles = [a if isinstance(a, Angle) else Angle.radians(a) for a in points]
        try:
            want = [[(z.real.hex(), z.imag.hex()) for z in row]
                    for row in angle_power_table(angles, exponents)]
        except ValueError as exc:
            want = str(exc)
        powers = UnitPowers(points)
        try:
            powers.table(exponents[:first])
            got = powers.table(exponents)
            assert got.shape == (len(points), len(exponents))
            got = [[(z.real.hex(), z.imag.hex()) for z in row] for row in got.tolist()]
        except ValueError as exc:
            got = str(exc)
        assert got == want

    arc_point = st.one_of(
        st.floats(min_value=-1e13, max_value=1e13, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 2 * math.pi / 3, math.pi, -math.pi, 2.0944, 3.1416]),
        st.floats(min_value=-10, max_value=10).map(Angle.radians),
        st.fractions(min_value=-8, max_value=8, max_denominator=30).map(Angle.pi_times))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(arc_point, min_size=1, max_size=30),
           st.sampled_from([0.0, 0.01, 1e-9, 0.5, 3.0, -0.01, -1.0]))
    def test_arc_codes(self, point_expected_arc, points, exclusion):
        # a wide exclusion covers all; a negative one is zero
        values = [a.value if isinstance(a, Angle) else a for a in points]
        codes = figure8._arc_codes(points, values, exclusion).tolist()
        assert [figure8.ARCS[c] if c >= 0 else None for c in codes] == [
            point_expected_arc(a, exclusion) for a in points]

    def test_raw_zero_is_exact(self):
        # a raw zero is the exact zero, as Angle.radians(0.0) and
        # Angle.times read it: its powers are the exact zero's, with the
        # bits of the power eval_unit takes (1+0j, also for k < 0)
        points = [Angle(None, 0.0), Angle(None, -0.0), 0.0, -0.0, Angle.zero(),
                  Angle.radians(0.5), 0.5, Angle.pi_fraction(1, 3), 5e-324]
        powers = UnitPowers(points)
        assert powers.exact == [True] * 5 + [False, False, True, False]
        assert powers.take([7, 0, 5]).exact == [True, True, False]
        exponents = [-3, -1, 0, 1, 2]
        got = [[(z.real.hex(), z.imag.hex()) for z in row]
               for row in powers.table(exponents).tolist()]
        want = [[(z.real.hex(), z.imag.hex()) for z in
                 ((a if isinstance(a, Angle) else Angle.radians(a)).times(k).exp_i()
                  for k in exponents)] for a in points]
        assert got == want
        assert got[0] == got[4] == [("0x1.0000000000000p+0", "0x0.0p+0")] * len(exponents)

    def test_overflow_names_the_first_angle(self, angle_power_table):
        points = [0.5, Angle.pi_fraction(1, 3), 1e308, -1.5e308]
        with pytest.raises(ValueError) as want:
            angle_power_table([a if isinstance(a, Angle) else Angle.radians(a)
                               for a in points], [1, -3, 2])
        with pytest.raises(ValueError) as got:
            UnitPowers(points).table([1, -3, 2])
        assert str(got.value) == str(want.value) == (
            "angle 1e+308 is too large: the power u^-3 needs 1e+308 * -3, "
            "which overflows a float")


# ---------------------------------------------------------------------------
# Block size
# ---------------------------------------------------------------------------

class TestBlockSizeInvariance:
    """A sweep's rows, its CSV and the first failure it raises do not
    depend on how many points a block holds."""

    SIZES = (1, 7, 64, SWEEP_BLOCK)

    @staticmethod
    def _each_size(monkeypatch, fn):
        out = []
        for size in TestBlockSizeInvariance.SIZES:
            monkeypatch.setattr(isometry, "SWEEP_BLOCK", size)
            out.append(fn())
        return out

    @pytest.mark.parametrize("argv", [
        # indeterminate rows near alpha = 0
        ["figure8", "--start=-1e-6", "--end=1e-6", "--count", "201"],
        ["figure8", "--start=-3.0", "--end=3.0", "--count", "150"],
        ["bianchi", "--d", "2", "--target", "su31", "--start=-1e-6", "--end=1e-6",
         "--count", "101"],
        ["bianchi", "--d", "7", "--target", "su31", "--start=-3.0", "--end=3.0",
         "--count", "90"],
        # across theta = pi, orthogonal and skew cusps
        ["bianchi", "--d", "5", "--target", "so41", "--start=3.0", "--end=3.3",
         "--count", "90"],
        ["bianchi", "--d", "15", "--target", "so41", "--start=3.0", "--end=3.3",
         "--count", "90"],
        ["bianchi", "--d", "7", "--target", "so41", "--start=-1e-6", "--end=1e-6",
         "--count", "101"],
    ])
    def test_csv_bytes(self, monkeypatch, argv):
        def sweep():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(["sweep", *argv])
            return code, out.getvalue()
        outs = self._each_size(monkeypatch, sweep)
        assert "indeterminate" in outs[0][1] or "1e-06" not in argv[-3]
        assert outs == [outs[0]] * len(outs)

    @pytest.mark.parametrize("sweep", [
        lambda grid: figure8_sweep(grid),
        lambda grid: bianchi_sweep(2, "su31", grid),
        lambda grid: bianchi_sweep(7, "su31", grid),
        lambda grid: bianchi_sweep(5, "so41", grid),
        lambda grid: bianchi_sweep(15, "so41", grid),
    ])
    def test_rows(self, monkeypatch, sweep):
        grid = _grid(-1e-6, 1e-6, 41) + _grid(2.9, 3.4, 40) + [Angle.pi_fraction(1, 3), 0.0]
        rows = self._each_size(monkeypatch, lambda: sweep(grid))
        assert rows == [rows[0]] * len(rows)

    @pytest.mark.parametrize("kind", ["figure8", "su31", "so41"])
    @pytest.mark.parametrize("bad, raising", [(40, 100), (100, 40), (70, 71), (250, 260),
                                              (260, 250)])
    def test_first_failure(self, monkeypatch, kind, bad, raising):
        # grid[bad] is no angle, and the grid's iterator raises when asked
        # for point ``raising``: the same first error at every block size
        grid = _grid(0.1, 1.9, 270)
        grid[bad] = math.nan

        def points():
            for k, x in enumerate(grid):
                if k == raising:
                    raise RuntimeError(f"grid source failed before point {k}")
                yield x

        def sweep():
            with pytest.raises(Exception) as exc:
                if kind == "figure8":
                    figure8_sweep(points())
                else:
                    bianchi_sweep(7, kind, points())
            return type(exc.value), str(exc.value)
        errors = self._each_size(monkeypatch, sweep)
        assert errors[0][0] is (ValueError if bad < raising else RuntimeError)
        assert errors == [errors[0]] * len(errors)
