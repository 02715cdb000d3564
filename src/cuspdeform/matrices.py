"""Dense square matrices over the exact backends, plus the numeric
linear algebra (signatures, eigenstructure, form defects) that the
isometry classifier consumes.

Exact matrices are ``Mat`` (entries all LaurentPoly or all ExtScalar);
numeric matrices are plain numpy complex arrays.  ``Mat.evaluate`` maps
one to the other at u = e^{i alpha}.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import Angle, ExtScalar, LaurentPoly, Surd, power


class GeometryError(ValueError):
    """A precondition of a geometric operation failed."""


class IndeterminateError(GeometryError):
    """A numerical decision fell within 10x of its threshold; the caller
    must not trust a guess."""

    def __init__(self, message: str, margin: float):
        super().__init__(f"{message} (margin {margin:.3g} < 10)")
        self.margin = float(margin)


def _promote(entry, ring: str, d: int | None):
    if ring == "laurent":
        if isinstance(entry, LaurentPoly):
            return entry
        if isinstance(entry, (int, Fraction)):
            return LaurentPoly.const(entry)
    else:
        if isinstance(entry, ExtScalar):
            if entry.d != d:
                raise ValueError("mixed extension tags in one matrix")
            return entry
        if isinstance(entry, LaurentPoly):
            return ExtScalar.from_laurent(entry, d)  # type: ignore[arg-type]
        if isinstance(entry, Surd):
            return ExtScalar.from_surd(entry, d)  # type: ignore[arg-type]
        if isinstance(entry, (int, Fraction)):
            return ExtScalar.rational(entry, d)  # type: ignore[arg-type]
    raise TypeError(f"cannot promote {entry!r} into {ring} ring")


class Mat:
    """Immutable dense square matrix over one exact scalar ring."""

    __slots__ = ("n", "rows", "ring", "d", "_plan")

    def __init__(self, rows: Sequence[Sequence], ring: str, d: int | None = None):
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square, dimension >= 1")
        if ring not in ("laurent", "ext"):
            raise ValueError(f"unknown ring {ring!r}")
        if ring == "ext" and d is None:
            raise ValueError("ext ring needs the extension tag d")
        self.n = n
        self.ring = ring
        self.d = d
        self.rows = tuple(tuple(_promote(e, ring, d) for e in r) for r in rows)
        self._plan = None

    @classmethod
    def laurent(cls, rows: Sequence[Sequence]) -> "Mat":
        return cls(rows, "laurent")

    @classmethod
    def ext(cls, rows: Sequence[Sequence], d: int) -> "Mat":
        return cls(rows, "ext", d)

    @classmethod
    def identity(cls, n: int, ring: str = "laurent", d: int | None = None) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], ring, d)

    @classmethod
    def diagonal(cls, diag: Sequence, ring: str = "laurent", d: int | None = None) -> "Mat":
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], ring, d)

    def _zero(self):
        return LaurentPoly.zero() if self.ring == "laurent" else ExtScalar.zero(self.d)

    def _like(self, rows) -> "Mat":
        """A matrix over this one's ring from ring-operation results,
        which are in the ring already: no shape check, no promotion."""
        m = object.__new__(Mat)
        m.n = len(rows)
        m.ring = self.ring
        m.d = self.d
        m.rows = tuple(map(tuple, rows))
        m._plan = None
        return m

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.ring == other.ring and self.d == other.d and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ring, self.d, self.rows))

    def __add__(self, other: "Mat") -> "Mat":
        self._compat(other)
        return self._like([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._compat(other)
        return self._like([[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return self._like([[-a for a in r] for r in self.rows])

    def _compat(self, other: "Mat") -> None:
        if not isinstance(other, Mat) or other.n != self.n \
                or other.ring != self.ring or other.d != self.d:
            raise ValueError("incompatible matrices")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._compat(other)
        # Zero entries are skipped: their products add nothing, and a sum
        # started at its first nonzero term is the same exact value.
        cols = [{k: b for k, b in enumerate(c) if not b.is_zero}
                for c in zip(*other.rows)]
        zero = self._zero()
        out = []
        for r in self.rows:
            terms = [(k, a) for k, a in enumerate(r) if not a.is_zero]
            row = []
            for col in cols:
                acc = None
                for k, a in terms:
                    b = col.get(k)
                    if b is not None:
                        t = a * b
                        acc = t if acc is None else acc + t
                row.append(zero if acc is None else acc)
            out.append(row)
        return self._like(out)

    def scale(self, s) -> "Mat":
        return Mat([[a * s for a in r] for r in self.rows], self.ring, self.d)

    def transpose(self) -> "Mat":
        return self._like(list(zip(*self.rows)))

    def star(self) -> "Mat":
        """Entrywise u -> u^-1 (no transpose)."""
        return self._like([[e.star() for e in r] for r in self.rows])

    def star_transpose(self) -> "Mat":
        return self.star().transpose()

    def trace(self):
        acc = self._zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_identity(self) -> bool:
        one = (LaurentPoly.one() if self.ring == "laurent" else ExtScalar.one(self.d))
        for i in range(self.n):
            for j in range(self.n):
                want = one if i == j else self._zero()
                if self.rows[i][j] != want:
                    return False
        return True

    def is_scalar(self):
        """Return the scalar s if self == s*Id, else None."""
        s = self.rows[0][0]
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    if self.rows[i][j] != s:
                        return None
                elif not self.rows[i][j].is_zero:
                    return None
        return s

    def det(self):
        """Exact determinant by cofactor expansion with column-subset
        memoization (fine for the n <= 6 sizes this package meets)."""
        n = self.n
        rows = self.rows
        memo: dict[int, object] = {}

        def minor(mask: int):
            # determinant of rows r.. using the columns present in mask,
            # where r = n - popcount(mask)
            if mask in memo:
                return memo[mask]
            cols = [j for j in range(n) if mask & (1 << j)]
            r = n - len(cols)
            if not cols:
                one = (LaurentPoly.one() if self.ring == "laurent"
                       else ExtScalar.one(self.d))
                return one
            acc = self._zero()
            sign = 1
            for idx, j in enumerate(cols):
                e = rows[r][j]
                if not e.is_zero:
                    sub = minor(mask & ~(1 << j))
                    term = e * sub
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign
            memo[mask] = acc
            return acc

        return minor((1 << n) - 1)

    def inverse(self) -> "Mat":
        """Exact inverse via adjugate / det; det must be a ring unit."""
        n = self.n
        det = self.det()
        det_inv = det.inverse()
        if n == 1:
            return self._like([[det_inv]])
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                sub = [[self.rows[r][c] for c in range(n) if c != j]
                       for r in range(n) if r != i]
                m = self._like(sub).det()
                cof[i][j] = m if (i + j) % 2 == 0 else -m
        adj_rows = [[cof[j][i] * det_inv for j in range(n)] for i in range(n)]
        return self._like(adj_rows)

    def __pow__(self, k: int) -> "Mat":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, lambda: Mat.identity(self.n, self.ring, self.d),
                     operator.matmul)

    def max_denominator(self) -> int:
        return max(e.max_denominator() for r in self.rows for e in r)

    def is_u_free(self) -> bool:
        """True when no entry involves the deformation parameter."""
        for r in self.rows:
            for e in r:
                if isinstance(e, LaurentPoly):
                    if not e.is_constant:
                        return False
                else:
                    if not all(p.is_constant for p in e.c):
                        return False
        return True

    def evaluate(self, alpha: Angle | None = None) -> np.ndarray:
        """Numeric matrix at u = e^{i alpha} (alpha may be omitted for
        constant matrices).

        Bit for bit the entrywise ``eval_unit``: each power u^k is
        ``alpha.times(k).exp_i()``, computed once per call instead of
        once per term, and every entry is summed in the same order with
        the same operations.
        """
        if self._plan is None:
            self._plan = self._compile()
        exponents, terms, surds = self._plan
        a = alpha if alpha is not None else Angle.zero()
        powers = {k: a.times(k).exp_i() for k in exponents}

        def poly(entry) -> complex:
            total = 0j
            for k, c in entry:
                total += c * powers[k]
            return total

        if surds is None:
            return np.array([[poly(e) for e in r] for r in terms], dtype=complex)
        s2, sd, s2d = surds
        return np.array([[poly(c0) + poly(c1) * s2 + poly(c2) * sd + poly(c3) * s2d
                          for c0, c1, c2, c3 in r] for r in terms], dtype=complex)

    def _compile(self):
        """The evaluation plan: every exponent that occurs, each entry's
        ``(k, coefficient)`` terms in ``LaurentPoly`` order (per
        component for the ext ring) and, for the ext ring, the surd
        factors sqrt 2, sqrt d, sqrt 2d."""
        exponents: set[int] = set()

        def terms(p: LaurentPoly) -> tuple:
            out = tuple(p.unit_terms())
            exponents.update(k for k, _ in out)
            return out

        if self.ring == "laurent":
            plan = tuple(tuple(terms(e) for e in r) for r in self.rows)
            return exponents, plan, None
        plan = tuple(tuple(tuple(terms(p) for p in e.c) for e in r) for r in self.rows)
        d = self.d
        return exponents, plan, (math.sqrt(2), math.sqrt(d), math.sqrt(2 * d))

    def __repr__(self) -> str:
        body = "\n ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"Mat({self.ring}, n={self.n})[\n {body}\n]"


# ---------------------------------------------------------------------------
# Hermitian forms
# ---------------------------------------------------------------------------

CONJ_TRANSPOSE = "conj-transpose"      # invariance  g* J g  = J   (Siegel models)
TRANSPOSE_CONJ = "transpose-conj"      # invariance  g^T J conj(g) = J

_CONVENTIONS = (CONJ_TRANSPOSE, TRANSPOSE_CONJ)


def _as_numeric(J) -> np.ndarray:
    if isinstance(J, Mat):
        return J.evaluate()
    return np.asarray(J, dtype=complex)


class HermForm:
    """A Hermitian form together with its invariance convention.

    Hermitianness (J* = J) is verified at construction: exactly for Mat
    input, to 1e-12 (relative) for numeric input.
    """

    __slots__ = ("mat", "convention")

    def __init__(self, J, convention: str = CONJ_TRANSPOSE):
        if convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if isinstance(J, Mat):
            if J.star_transpose() != J:
                raise GeometryError("form matrix is not hermitian (exact check)")
        else:
            J = np.asarray(J, dtype=complex)
            if not np.all(np.isfinite(J)):
                raise GeometryError("form matrix has non-finite entries")
            scale = max(np.abs(J).max(), 1.0)
            if np.abs(J - J.conj().T).max() > 1e-12 * scale:
                raise GeometryError("form matrix is not hermitian within 1e-12")
        self.mat = J
        self.convention = convention

    @property
    def n(self) -> int:
        return self.mat.n if isinstance(self.mat, Mat) else self.mat.shape[0]

    @property
    def is_exact(self) -> bool:
        return isinstance(self.mat, Mat)

    def numeric(self, alpha: Angle | None = None) -> "HermForm":
        if isinstance(self.mat, Mat):
            return HermForm(self.mat.evaluate(alpha), self.convention)
        return self

    def array(self) -> np.ndarray:
        return _as_numeric(self.mat)

    def pair(self, x: np.ndarray, y: np.ndarray) -> complex:
        """The sesquilinear pairing <x, y> in this form's convention."""
        J = self.array()
        if self.convention == CONJ_TRANSPOSE:
            return complex(y.conj() @ J @ x)
        return complex(x @ J @ y.conj())


def siegel_form(size: int, convention: str = CONJ_TRANSPOSE) -> HermForm:
    """The antidiagonal-corner form 2 Re(z1 conj(z_size)) + sum |z_i|^2,
    as an exact Mat over Q[u,u^-1]."""
    rows = [[0] * size for _ in range(size)]
    rows[0][size - 1] = 1
    rows[size - 1][0] = 1
    for i in range(1, size - 1):
        rows[i][i] = 1
    return HermForm(Mat.laurent(rows), convention)


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


def herm_signature(form: HermForm | np.ndarray, tol: float = 1e-9) -> Signature:
    """Counts of eigenvalues above tol, below -tol, within [-tol, tol]."""
    if isinstance(form, HermForm):
        if form.is_exact and not form.mat.is_u_free():
            raise TypeError("signature of a u-dependent form: evaluate at an "
                            "angle first (form.numeric(alpha))")
        J = form.array()
    else:
        J = HermForm(form).array()  # validates hermitianness
    return signatures(J[None], tol)[0]


def signatures(J: np.ndarray, tol: float = 1e-9) -> list[Signature]:
    """``herm_signature`` of every hermitian matrix of a stack (N, n, n),
    from one eigvalsh call."""
    ev = np.linalg.eigvalsh(J)
    n = ev.shape[-1]
    plus = np.sum(ev > tol, axis=-1).tolist()
    minus = np.sum(ev < -tol, axis=-1).tolist()
    return [Signature(p, m, n - p - m) for p, m in zip(plus, minus)]


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


def _cluster_eigenvalues(ev: np.ndarray, rtol: float) -> list[list[complex]]:
    """Greedy union of eigenvalues within relative distance rtol,
    chain-linked: joining requires closeness to any member, so a
    symmetric Jordan scatter around one true value stays together."""
    scale = max(float(np.abs(ev).max()), 1.0)
    groups: list[list[complex]] = []
    for lam in sorted(ev, key=lambda z: (z.real, z.imag)):
        for g in groups:
            if any(abs(lam - w) <= rtol * scale for w in g):
                g.append(complex(lam))
                break
        else:
            groups.append([complex(lam)])
    return groups


NON_FINITE = "matrix has non-finite entries"


def finite_rows(S: np.ndarray) -> list[bool]:
    """Whether each matrix of a stack (N, n, n) has finite entries only."""
    return np.isfinite(S).all(axis=(1, 2)).tolist()


def _spectral_norms(S: np.ndarray) -> list[float]:
    """The spectral norm of each matrix of a finite stack (N, n, n),
    floored at 1e-300: one singular-value call."""
    sv = np.linalg.svd(S, compute_uv=False)  # sorted, largest first
    return [max(v, 1e-300) for v in sv[:, 0].tolist()]


@functools.lru_cache(maxsize=None)
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


def _centres(groups: list[list[complex]]) -> list[complex]:
    """The mean of every group, one reduction per group size."""
    by_size: dict[int, list[int]] = {}
    for j, g in enumerate(groups):
        by_size.setdefault(len(g), []).append(j)
    out = [0j] * len(groups)
    for idx in by_size.values():
        X = np.array([groups[j] for j in idx], dtype=complex)
        for j, centre in zip(idx, row_means(X).tolist()):
            out[j] = centre
    return out


def unwrap(result):
    """A result of a stacked routine: raise it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def eigen(A: np.ndarray, tol: float = 1e-9, cluster_rtol: float = 1e-7) -> EigenData:
    """Clustered spectrum with algebraic and geometric multiplicities.

    Geometric multiplicity of a cluster is n - rank(A - lambda I), with
    rank read off singular values at threshold tol * ||A||.  The margin
    records how decisively every singular value cleared (or missed) that
    threshold; classify() turns margins < 10 into an explicit
    indeterminate outcome rather than a guess.

    Computed eigenvalues of a defective matrix scatter like eps^(1/k)
    around the true value, which can exceed the base clustering radius.
    Whenever the multiplicities come out inconsistent (a cluster with
    geo < 1 or geo > alg) the radius escalates by 10x, up to 1e-3
    relative, before the result is declared indeterminate.

    The one-matrix case of ``eigen_stack``.
    """
    S = np.asarray(A, dtype=complex)[None]
    if not finite_rows(S)[0]:
        raise GeometryError(NON_FINITE)
    return unwrap(eigen_stack(S, tol, cluster_rtol)[0])


def eigen_stack(S: np.ndarray, tol: float = 1e-9,
                cluster_rtol: float = 1e-7) -> list[EigenData | IndeterminateError]:
    """``eigen`` of every matrix of a stack (N, n, n) of finite matrices:
    entry k is the EigenData of S[k] or the IndeterminateError that
    ``eigen`` raises for it.

    One eigvals call and one singular-value call (the spectral norms)
    serve the stack.  Each clustering radius then costs one
    singular-value call over every (matrix, cluster centre) pair of the
    matrices whose multiplicities are still inconsistent.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[-1]
    out: list = [None] * len(S)
    if len(S) == 0:
        return out
    ev = np.linalg.eigvals(S)
    norms = _spectral_norms(S)
    thr = [tol * norm for norm in norms]
    pending = list(range(len(S)))
    rtol = cluster_rtol
    while pending and rtol <= 1.1e-3:
        groups = [_cluster_eigenvalues(ev[k], rtol) for k in pending]
        rows = [k for k, gs in zip(pending, groups) for _ in gs]
        lams = _centres([g for gs in groups for g in gs])
        sv = np.linalg.svd(shifted(S[rows], lams), compute_uv=False)
        t = np.array([thr[k] for k in rows])[:, None]
        above = sv > t
        ranks = np.sum(above, axis=1).tolist()
        # the ratio is s / thr above the threshold, thr / max(s, 1e-300)
        # below it; fmin ignores a NaN ratio
        ratios = (np.where(above, sv, t)
                  / np.where(above, t, np.maximum(sv, 1e-300)))
        worst = np.fmin.reduce(ratios, axis=1, initial=np.inf).tolist()
        still, j = [], 0
        for k, gs in zip(pending, groups):
            clusters, margin = [], float("inf")
            for g in gs:
                clusters.append(EigenCluster(lams[j], len(g), n - ranks[j]))
                margin = min(margin, worst[j])
                j += 1
            out[k] = EigenData(tuple(clusters), margin, norms[k])
            if not all(1 <= c.geo <= c.alg for c in clusters):
                still.append(k)
        pending = still
        rtol *= 10.0
    for k in pending:
        out[k] = IndeterminateError(
            "eigenvalue clustering never reached consistent multiplicities",
            out[k].rank_margin if out[k] is not None else 1.0)
    return out


# ---------------------------------------------------------------------------
# Form invariance
# ---------------------------------------------------------------------------

def form_defect(g: np.ndarray, form: HermForm) -> float:
    """Max-entry absolute deviation of g from preserving the form."""
    return form_defects(np.asarray(g, dtype=complex)[None], form.array(),
                        form.convention)[0]


def form_defects(S: np.ndarray, J: np.ndarray, convention: str) -> list[float]:
    """``form_defect`` of every matrix of a stack (N, n, n) against the
    form matrix J (one for all, or a stack of one per matrix)."""
    if convention == CONJ_TRANSPOSE:
        defect = np.swapaxes(S.conj(), 1, 2) @ J @ S - J  # g* J g - J
    else:
        defect = np.swapaxes(S, 1, 2) @ J @ S.conj() - J  # g^T J conj(g) - J
    return np.abs(defect).max(axis=(1, 2)).tolist()


def form_preserved(g: Mat, form: HermForm) -> bool:
    """Exact invariance check over the exact backend (star applied to u,
    valid on the unit circle)."""
    J = form.mat
    if not isinstance(J, Mat):
        raise TypeError("exact check requires an exact form")
    if isinstance(J, Mat) and g.ring == "ext" and J.ring == "laurent":
        J = Mat.ext([[e for e in row] for row in J.rows], g.d)  # lift constants
    if form.convention == CONJ_TRANSPOSE:
        lhs = g.star_transpose() @ J @ g
    else:
        lhs = g.transpose() @ J @ g.star()
    return lhs == J
