"""Dense square matrices over the exact backends, plus the numeric
linear algebra (signatures, eigenstructure, form defects) that the
isometry classifier consumes.

Exact matrices are ``Mat`` (entries all LaurentPoly or all ExtScalar);
numeric matrices are plain numpy complex arrays.  ``Mat.evaluate_stack``
maps one to the stack of its values at a block of angles u = e^{i alpha};
``Mat.evaluate`` is its one-angle case.
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
from .tolerances import (CLUSTER_RTOL, CLUSTER_RTOL_CEILING, DECISION_TOL,
                         INDETERMINATE_FACTOR, NORM_FLOOR, STRUCTURE_TOL)


class GeometryError(ValueError):
    """A precondition of a geometric operation failed."""


class IndeterminateError(GeometryError):
    """A numerical decision fell within 10x of its threshold; the caller
    must not trust a guess."""

    def __init__(self, message: str, margin: float):
        super().__init__(f"{message} (margin {margin:.3g} < {INDETERMINATE_FACTOR})")
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

    def _one(self):
        return LaurentPoly.one() if self.ring == "laurent" else ExtScalar.one(self.d)

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
        """The product, each entry one ``_dot`` of the ring over the pairs
        of nonzero factors: their products add nothing, and a sum started
        at its first nonzero term is the same exact value."""
        self._compat(other)
        dot = _DOT[self.ring]
        cols = [{k: b for k, b in enumerate(c) if not b.is_zero}
                for c in zip(*other.rows)]
        zero = self._zero()
        out = []
        for r in self.rows:
            terms = [(k, a) for k, a in enumerate(r) if not a.is_zero]
            row = []
            for col in cols:
                pairs = [(a, col[k]) for k, a in terms if k in col]
                row.append(dot(pairs) if pairs else zero)
            out.append(row)
        return self._like(out)

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
        one = self._one()
        return all(e == one if i == j else e.is_zero
                   for i, r in enumerate(self.rows) for j, e in enumerate(r))

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
                return self._one()
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
        """Exact inverse, adj(A) / det(A); det must be a ring unit."""
        coeffs, adj = self._charpoly_adjugate()
        det = coeffs[0] if self.n % 2 == 0 else -coeffs[0]  # (-1)^n c_0
        det_inv = det.inverse()
        return self._like([[e * det_inv for e in r] for r in adj.rows])

    def _charpoly_adjugate(self) -> tuple[list, "Mat"]:
        """The coefficients c_0, ..., c_n of det(x I - A) = sum c_k x^k,
        and adj(A), by Faddeev-LeVerrier: M_1 = I, c_(n-1) = -tr(A) and

            M_k = A M_(k-1) + c_(n-k+1) I,   c_(n-k) = -tr(A M_k) / k,

        with adj(A) = (-1)^(n-1) M_n.  A M_1 is A itself and only the
        trace of A M_n is needed, so this takes n - 2 matrix products and
        one trace-only product, and divides only by the integers 2..n."""
        n = self.n
        coeffs = [None] * (n + 1)
        coeffs[n] = self._one()
        coeffs[n - 1] = -self.trace()
        M = Mat.identity(1, self.ring, self.d) if n == 1 else None  # M_1
        AM = self
        for k in range(2, n + 1):
            M = AM._plus_scalar(coeffs[n - k + 1])
            if k < n:
                AM = self @ M
                coeffs[n - k] = AM.trace() / -k
            else:
                coeffs[0] = _trace_of_product(self, M) / -n
        return coeffs, (M if n % 2 else -M)

    def _plus_scalar(self, s) -> "Mat":
        """self + s I."""
        return self._like([[e + s if i == j else e for j, e in enumerate(r)]
                           for i, r in enumerate(self.rows)])

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
        constant matrices): the one-angle case of ``evaluate_stack``."""
        a = alpha if alpha is not None else Angle.zero()
        return self.evaluate_stack(UnitPowers([a]))[0]

    def evaluate_stack(self, powers: "UnitPowers") -> np.ndarray:
        """The stack (K, n, n) of the numeric matrices at each angle of a
        block, bit for bit the entrywise ``eval_unit``.

        Each entry is summed over its terms in ``eval_unit``'s order, one
        term position at a time across the block and the entries, in
        real and imaginary parts.  A sum started at +0.0 is never -0.0,
        so adding a zero of either sign changes no bit: the zero cross
        terms of Python's complex products (every coefficient and surd
        factor is real) and the zero terms that pad the shorter entries
        drop out.
        """
        if self._plan is None:
            self._plan = self._compile()
        exponents, parts, surds = self._plan
        P = powers.table(exponents)
        sums = []
        for index, coef in parts:
            # (K, terms, entries): the products of every term position
            re, im = coef * P.real[:, index], coef * P.imag[:, index]
            total_re = total_im = np.zeros((len(P), self.n * self.n))
            for t in range(index.shape[0]):
                total_re = total_re + re[:, t]
                total_im = total_im + im[:, t]
            sums.append((total_re, total_im))
        out_re, out_im = sums[0]
        if surds is not None:  # p0 + p1 sqrt2 + p2 sqrt d + p3 sqrt 2d
            for (re, im), s in zip(sums[1:], surds):
                out_re = out_re + re * s
                out_im = out_im + im * s
        out = np.empty((len(P), self.n, self.n), dtype=complex)
        out.real = out_re.reshape(out.shape)
        out.imag = out_im.reshape(out.shape)
        return out

    def _compile(self):
        """The evaluation plan: the exponents that occur, sorted; per
        component (one for the laurent ring, four for the ext ring) the
        column of each entry's t-th ``LaurentPoly.unit_terms`` term in
        that order and its real coefficient, shape (terms, n*n), padded
        with zero coefficients; and, for the ext ring, the surd factors
        sqrt 2, sqrt d, sqrt 2d."""
        entries = [e for r in self.rows for e in r]
        if self.ring == "laurent":
            components, surds = [[e.unit_terms() for e in entries]], None
        else:
            components = [[e.c[i].unit_terms() for e in entries] for i in range(4)]
            surds = (math.sqrt(2), math.sqrt(self.d), math.sqrt(2 * self.d))
        exponents = sorted({k for comp in components for entry in comp for k, _ in entry})
        column = {k: j for j, k in enumerate(exponents)}
        parts = []
        for comp in components:
            width = max(map(len, comp))
            index = np.zeros((width, len(comp)), dtype=np.intp)
            coef = np.zeros((width, len(comp)))
            for j, entry in enumerate(comp):
                for t, (k, c) in enumerate(entry):
                    index[t, j] = column[k]
                    coef[t, j] = c.real
            parts.append((index, coef))
        return exponents, parts, surds

    def __repr__(self) -> str:
        body = "\n ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"Mat({self.ring}, n={self.n})[\n {body}\n]"


# the sum of products of each ring, which every exact product runs on
_DOT = {"laurent": LaurentPoly._dot, "ext": ExtScalar._dot}


def _trace_of_product(A: Mat, B: Mat):
    """``(A @ B).trace()``, value and term order alike, from the n
    diagonal entries of the product only.  A zero entry adds nothing to
    the trace's running sum, so it is skipped."""
    dot = _DOT[A.ring]
    acc = A._zero()
    for r, col in zip(A.rows, zip(*B.rows)):
        pairs = [(a, b) for a, b in zip(r, col) if not (a.is_zero or b.is_zero)]
        if pairs:
            acc = acc + dot(pairs)
    return acc


class UnitPowers:
    """The powers u^k = e^{i k alpha} at each angle of a block, computed
    once per (angle, exponent) and shared by every matrix evaluated on
    the block."""

    __slots__ = ("angles", "_columns")

    def __init__(self, angles: Sequence[Angle]):
        self.angles = list(angles)
        self._columns: dict[int, np.ndarray] = {}

    def table(self, exponents: Sequence[int]) -> np.ndarray:
        """The (K, len(exponents)) complex array of the powers.

        Each is ``alpha.times(k).exp_i()``, the power ``eval_unit``
        takes, with the same bits: u^0 is the 1+0j that it gives; for a
        raw angle x, x*k is never 0 when k is not, so it is
        cos(x*k) + i sin(x*k) without the exact angle arithmetic."""
        missing = [k for k in exponents if k not in self._columns]
        if missing:
            try:
                values = np.array([[1 + 0j if k == 0 else
                                    a.times(k).exp_i() if a.raw is None else
                                    complex(math.cos(a.raw * k), math.sin(a.raw * k))
                                    for k in missing] for a in self.angles],
                                  dtype=complex).reshape(len(self.angles), len(missing))
            except ValueError:  # math.cos of an infinite a.raw * k
                x, k = next((a.raw, k) for a in self.angles for k in missing
                            if a.raw is not None and math.isinf(a.raw * k))
                raise ValueError(f"angle {x!r} is too large: the power u^{k} needs "
                                 f"{x!r} * {k}, which overflows a float") from None
            for j, k in enumerate(missing):
                self._columns[k] = values[:, j]
        if not exponents:
            return np.zeros((len(self.angles), 0), dtype=complex)
        return np.stack([self._columns[k] for k in exponents], axis=1)

    def take(self, rows: Sequence[int]) -> "UnitPowers":
        """The powers at the angles of the given rows."""
        out = UnitPowers([self.angles[j] for j in rows])
        out._columns = {k: col[rows] for k, col in self._columns.items()}
        return out


# ---------------------------------------------------------------------------
# Hermitian forms
# ---------------------------------------------------------------------------

CONJ_TRANSPOSE = "conj-transpose"      # invariance  g* J g  = J   (Siegel models)
TRANSPOSE_CONJ = "transpose-conj"      # invariance  g^T J conj(g) = J

_CONVENTIONS = (CONJ_TRANSPOSE, TRANSPOSE_CONJ)
NON_FINITE_FORM = "form matrix has non-finite entries"
NOT_HERMITIAN = f"form matrix is not hermitian within {STRUCTURE_TOL:g}"


class HermForm:
    """A Hermitian form together with its invariance convention.

    Hermitianness (J* = J) is verified at construction: exactly for Mat
    input, to STRUCTURE_TOL (relative) for numeric input.
    """

    __slots__ = ("mat", "convention", "_array", "_lifts")

    def __init__(self, J, convention: str = CONJ_TRANSPOSE):
        if convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if isinstance(J, Mat):
            if J.star_transpose() != J:
                raise GeometryError("form matrix is not hermitian (exact check)")
        else:
            J = np.asarray(J, dtype=complex)
            if J.ndim != 2 or J.shape[0] != J.shape[1]:
                raise ValueError(f"form matrix must be square, got shape {J.shape}")
            failure = hermitian_failures(J[None])[0]
            if failure is not None:
                raise failure
        self.mat = J
        self.convention = convention
        self._array = None
        self._lifts: dict[int, Mat] = {}

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
        """The numeric form matrix; an exact one must be u-free, and is
        evaluated once and kept read-only."""
        if not isinstance(self.mat, Mat):
            return self.mat
        if self._array is None:
            if not self.mat.is_u_free():
                raise TypeError("a u-dependent form has no numeric matrix: "
                                "evaluate it at an angle first (form.numeric(alpha))")
            self._array = self.mat.evaluate()
            self._array.flags.writeable = False
        return self._array

    def _exact_in(self, g: Mat) -> Mat:
        """The exact form matrix over g's ring: a Laurent form is lifted
        into the ext ring of tag d once, and kept."""
        J = self.mat
        if g.ring == "ext" and J.ring == "laurent":
            if g.d not in self._lifts:
                self._lifts[g.d] = Mat.ext(J.rows, g.d)
            return self._lifts[g.d]
        return J


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


def herm_signature(form: HermForm | np.ndarray, tol: float = DECISION_TOL) -> Signature:
    """Counts of eigenvalues above tol, below -tol, within [-tol, tol]."""
    if not isinstance(form, HermForm):
        form = HermForm(form)  # validates hermitianness
    return signatures(form.array()[None], tol)[0]


def signatures(J: np.ndarray, tol: float = DECISION_TOL) -> list[Signature]:
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
    floored at NORM_FLOOR: one singular-value call."""
    sv = np.linalg.svd(S, compute_uv=False)  # sorted, largest first
    return [max(v, NORM_FLOOR) for v in sv[:, 0].tolist()]


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
    rtol = CLUSTER_RTOL
    while pending and rtol <= CLUSTER_RTOL_CEILING:
        groups = [_cluster_eigenvalues(ev[k], rtol) for k in pending]
        rows = [k for k, gs in zip(pending, groups) for _ in gs]
        lams = _centres([g for gs in groups for g in gs])
        sv = np.linalg.svd(shifted(S[rows], lams), compute_uv=False)
        t = np.array([thr[k] for k in rows])[:, None]
        above = sv > t
        ranks = np.sum(above, axis=1).tolist()
        # the ratio is s / thr above the threshold, thr / max(s, NORM_FLOOR)
        # below it; fmin ignores a NaN ratio
        with np.errstate(over="ignore"):  # an infinite ratio is decisive
            ratios = (np.where(above, sv, t)
                      / np.where(above, t, np.maximum(sv, NORM_FLOOR)))
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
    form matrix J (one for all, or a stack of one per matrix).  A product
    out of float range gives an infinite or NaN defect, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        if convention == CONJ_TRANSPOSE:
            defect = np.swapaxes(S.conj(), 1, 2) @ J @ S - J  # g* J g - J
        else:
            defect = np.swapaxes(S, 1, 2) @ J @ S.conj() - J  # g^T J conj(g) - J
    return np.abs(defect).max(axis=(1, 2)).tolist()


def form_preserved(g: Mat, form: HermForm) -> bool:
    """Exact invariance check over the exact backend (star applied to u,
    valid on the unit circle)."""
    if not form.is_exact:
        raise TypeError("exact check requires an exact form")
    J = form._exact_in(g)
    if form.convention == CONJ_TRANSPOSE:
        lhs = g.star_transpose() @ J @ g
    else:
        lhs = g.transpose() @ J @ g.star()
    return lhs == J
