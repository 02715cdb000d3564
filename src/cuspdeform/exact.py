"""Dense square matrices over the exact backends, the Hermitian forms
they preserve, and the errors of the geometric layer.

Exact matrices are ``Mat`` (entries all LaurentPoly or all ExtScalar);
``chain`` and ``chain_trace`` multiply and trace runs of them.
This module imports no numpy: every verdict reached here is exact.  The
numeric side of a ``Mat`` or a ``HermForm`` (``Mat.evaluate_stack``, a
form given as an array) imports numpy, and reaches the numeric layer,
``matrices``, through ``_numeric``, when it runs.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .scalars import Angle, ExtScalar, LaurentPoly, Surd, _canonical, power
from .tolerances import INDETERMINATE_FACTOR

if TYPE_CHECKING:
    import numpy as np

    from .matrices import UnitPowers


@functools.cache
def _numeric():
    """The numeric layer, ``matrices``, imported on first use and kept."""
    from . import matrices
    return matrices


UNIPOTENT_STEP2 = "unipotent-step2"
UNIPOTENT_STEP3 = "unipotent-step3"
ELLIPTO_PARABOLIC = "ellipto-parabolic"


class GeometryError(ValueError):
    """A precondition of a geometric operation failed."""


class IndeterminateError(GeometryError):
    """A numerical decision fell within 10x of its threshold, or could
    not be made at all; the caller must not trust a guess.  ``message``
    is the text before the margin; the two rebuild the error, so it
    survives pickle and copy."""

    def __init__(self, message: str, margin: float):
        self.message = message
        self.margin = float(margin)
        # "< 10" only where the printed margin is below it: some decisions
        # give up above the factor
        shown = f"{self.margin:.3g}"
        below = f" < {INDETERMINATE_FACTOR}" if float(shown) < INDETERMINATE_FACTOR else ""
        super().__init__(f"{message} (margin {shown}{below})")

    def __reduce__(self):
        return type(self), (self.message, self.margin), self.__dict__


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

    __slots__ = ("n", "rows", "ring", "d", "_plan", "_packing")

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
        self._plan = self._packing = None

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
        m._plan = m._packing = None
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
        """The product, each entry one ``_dot`` over the pairs of nonzero
        factors: their products add nothing, and a sum started at its
        first nonzero term is the same exact value."""
        self._compat(other)
        cols = [{k: b for k, b in enumerate(c) if not b.is_zero}
                for c in zip(*other.rows)]
        zero = self._zero()
        out = []
        for r in self.rows:
            terms = [(k, a) for k, a in enumerate(r) if not a.is_zero]
            row = []
            for col in cols:
                pairs = [(a, col[k]) for k, a in terms if k in col]
                row.append(_dot(pairs) if pairs else zero)
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
        """Exact determinant, (-1)^n c_0 of the characteristic polynomial
        (``_charpoly_adjugate``)."""
        c0 = self._charpoly_adjugate()[0][0]
        return c0 if self.n % 2 == 0 else -c0

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

        with adj(A) = (-1)^(n-1) M_n.  A M_1 is A itself, so this takes
        n - 1 matrix products, and divides only by the integers 2..n."""
        n = self.n
        coeffs = [None] * (n + 1)
        coeffs[n] = self._one()
        coeffs[n - 1] = -self.trace()
        M = Mat.identity(1, self.ring, self.d) if n == 1 else None  # M_1
        AM = self
        for k in range(2, n + 1):
            M = AM._plus_scalar(coeffs[n - k + 1])
            AM = self @ M
            coeffs[n - k] = AM.trace() / -k
        return coeffs, (M if n % 2 else -M)

    def rank(self) -> int:
        """The rank over Q(u) of a laurent-ring matrix, with no numpy.

        A = u^lo Q / den (``_Packing``) has the rank of Q, a matrix of
        integer polynomials, and evaluating Q at u = 2^B maps each minor of
        Q to its value there.  So Q at 2^B has Q's rank over Q(u) when no
        nonzero minor of Q vanishes at 2^B, which B = bitlen(||Q||^n)
        (``_rank_width``) ensures:

        * a k x k minor is a signed sum of products of one entry from each
          of its rows, so its l1 norm is at most the product of those
          rows' l1 sums, at most ||Q||^k <= ||Q||^n < 2^B;
        * an integer polynomial p != 0 with |p|_1 < 2^B does not vanish
          at 2^B: if c is its lowest nonzero coefficient, at u^j, then
          p(2^B) = 2^(Bj) (c + 2^B m) for an integer m, which is 0 only
          if 2^B divides c, and then |c| >= 2^B > |p|_1 >= |c|.

        The rank of the integer matrix is then ``_bareiss_rank``'s.  (The
        ``+ 1`` of ``_width`` is for decoding balanced digits, which a
        rank does not do.)"""
        if self.ring != "laurent":
            raise TypeError("rank is over Q(u): a laurent-ring matrix only")
        return _bareiss_rank(_packing(self).at(_rank_width(self)))

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
        return self.evaluate_stack(_numeric().UnitPowers([a]))[0]

    def evaluate_stack(self, powers: UnitPowers) -> np.ndarray:
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
        import numpy as np
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
        import numpy as np
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


def _dot(pairs):
    """The sum of a * b over a nonempty sequence of pairs of one ring,
    left to right: the sum of products that every exact product runs on."""
    acc = None
    for a, b in pairs:
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def chain(factors: Sequence[Mat]) -> Mat:
    """The left-to-right product of one or more matrices of one ring:
    packed for the laurent ring, even for one factor (``_Packing``), so
    its entries' terms come in ascending exponent order; ``Mat @`` for
    the ext ring."""
    if factors[0].ring != "laurent":
        return functools.reduce(operator.matmul, factors)
    packings, width = _packings(factors)
    g = _packed_product(packings, width)
    entries = iter(_unpacked([v for r in g for v in r], packings, width))
    return factors[0]._like([[next(entries) for _ in r] for r in g])


def chain_trace(factors: Sequence[Mat]):
    """``chain(factors).trace()``, value and term order alike.  Two or
    more laurent-ring factors multiply out all but the last, packed, and
    decode only the diagonal of the product with the last, summed as
    ``Mat.trace`` sums it."""
    if len(factors) < 2 or factors[0].ring != "laurent":
        return chain(factors).trace()
    packings, width = _packings(factors)
    last = packings[-1].at(width)
    g = _packed_product(packings[:-1], width)
    diag = [sum(map(operator.mul, r, c)) for r, c in zip(g, zip(*last))]
    acc = LaurentPoly.zero()
    for e in _unpacked(diag, packings, width):
        acc = acc + e
    return acc


class _Packing:
    """A laurent-ring matrix P = u^lo Q(u) / den, packed (Kronecker
    substitution): den the lcm of its entries' denominators, lo their
    lowest exponent, Q an n x n matrix of integer polynomials of degree
    at most ``span``, and ``norm`` the largest row sum of the l1 norms of
    Q's entries.  ``at`` gives Q's entries at u = 2^width, packed once
    per width; evaluation at 2^B is a ring homomorphism Z[X] -> Z, so the
    product of packed factors is the packed product of their Q's.  A zero
    matrix (a nilpotent image's power, say) is lo = span = 0, Q = 0."""

    __slots__ = ("den", "lo", "span", "norm", "_polys", "_at")

    def __init__(self, P: Mat):
        entries = [e for r in P.rows for e in r]
        self.den = math.lcm(*(e._d for e in entries))
        self.lo = min((k for e in entries for k in e._n), default=0)
        self.span = max((k for e in entries for k in e._n), default=0) - self.lo
        self._polys = [[{k - self.lo: v * (self.den // e._d) for k, v in e._n.items()}
                        for e in r] for r in P.rows]
        self.norm = max(sum(sum(map(abs, q.values())) for q in r) for r in self._polys)
        self._at: dict[int, list[list[int]]] = {}

    def at(self, width: int) -> list[list[int]]:
        packed = self._at.get(width)
        if packed is None:
            packed = self._at[width] = [[sum(v << width * k for k, v in q.items()) for q in r]
                                        for r in self._polys]
        return packed


def _packing(m: Mat) -> _Packing:
    """A laurent-ring matrix's packing, made on first use and kept."""
    if m._packing is None:
        m._packing = _Packing(m)
    return m._packing


def _packings(factors: Sequence[Mat]) -> tuple[list[_Packing], int]:
    """The factors' packings, and the width that decodes their product."""
    for f in factors[1:]:
        factors[0]._compat(f)
    packings = [_packing(f) for f in factors]
    return packings, _quantized(_width(packings))


def _width(packings: Sequence[_Packing]) -> int:
    """The width B = bitlen(x) + 1, x = prod ||Q_i||, that decodes every
    entry of the product of these packings, for ||Q|| = max_i sum_j
    |Q_ij|_1.  Since |ab|_1 <= |a|_1 |b|_1 for polynomials, |(QR)_ij|_1
    <= sum_k |Q_ik|_1 |R_kj|_1, and summing over j, sum_j |(QR)_ij|_1 <=
    sum_k |Q_ik|_1 ||R|| <= ||Q|| ||R||: the norm is submultiplicative.
    So every coefficient of an entry of Q_1 ... Q_r is at most x in
    absolute value, and 2^(B-1) = 2^bitlen(x) > x, which is what the
    balanced digits of ``_unpacked`` need.  Only entries are decoded (a
    trace sums its decoded diagonal), so no wider sum needs the bound.
    A larger width decodes the same digits, so B is rounded up to a few
    steps (``_quantized``) and each matrix is packed at a few widths."""
    return math.prod(p.norm for p in packings).bit_length() + 1


def _quantized(width: int) -> int:
    """A packing width rounded up to a multiple of 32 bits, or of an
    eighth of the power of two above it if that is more: up to 256 bits
    there are 8 widths, and then 4 per doubling."""
    step = 1 << max(5, width.bit_length() - 3)
    return -(-width // step) * step


def _packed_product(packings: Sequence[_Packing], width: int) -> list[list[int]]:
    """The product of one or more packings at ``width``."""
    g = packings[0].at(width)
    for p in packings[1:]:
        cols = list(zip(*p.at(width)))
        g = [[sum(map(operator.mul, r, c)) for c in cols] for r in g]
    return g


def _unpacked(values: Sequence[int], packings: Sequence[_Packing],
              width: int) -> list[LaurentPoly]:
    """The entries of the product of these packings whose packed values
    at ``width`` are ``values``: each read from its balanced base-2^width
    digits c_k in [-2^(width-1), 2^(width-1)), shifted by the summed lo,
    over the product of the den, and canonicalised, its terms in
    ascending exponent order.  A bias of 2^(width-1) in every digit makes
    them the bytes of the nonnegative value + bias."""
    shift = sum(p.lo for p in packings)
    den = math.prod(p.den for p in packings)
    digits = sum(p.span for p in packings) + 1
    step, half = width // 8, 1 << (width - 1)
    bias = int.from_bytes((bytes(step - 1) + b"\x80") * digits, "little")
    out = []
    for v in values:
        raw = (v + bias).to_bytes(step * digits, "little")
        nums = {}
        for k, i in enumerate(range(0, len(raw), step), shift):
            c = int.from_bytes(raw[i:i + step], "little") - half
            if c:
                nums[k] = c
        out.append(_canonical(nums, den))
    return out


def _rank_width(m: Mat) -> int:
    """The width B = bitlen(||Q||^n) at which ``Mat.rank`` evaluates a
    laurent-ring matrix's packing (0 for the zero matrix)."""
    return (_packing(m).norm ** m.n).bit_length()


def _bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of an integer matrix, by fraction-free (Bareiss)
    elimination with row swaps.  Once rows r_1..r_k have pivoted in
    columns c_1..c_k, each entry (i, j) below them is the minor on rows
    r_1..r_k, i and columns c_1..c_k, j, so each division by the previous
    pivot is exact; a column with no nonzero entry left is skipped."""
    a = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev, rank = p, rank + 1
    return rank


class Jordan(NamedTuple):
    """One eigenvalue c u^k (c = +-1) of a laurent-ring matrix A, its
    algebraic ``multiplicity``, and the ``ranks`` of (A - c u^k I)^j for
    j = 1, 2, ... down to n - multiplicity, each found by ``Mat.rank`` at
    the width in ``widths``: the Jordan data, and its certificate."""

    sign: int
    exponent: int
    multiplicity: int
    ranks: tuple[int, ...]
    widths: tuple[int, ...]


class GenericClass(NamedTuple):
    """``classify_generic``'s answer: the parabolic ``subtype`` (a
    ``Parabolic`` subtype of ``isometry.CLASSES``), or None where it
    decides none, and the ``eigenvalues`` it rests on, empty where the
    characteristic polynomial does not split into factors x - c u^k."""

    subtype: str | None
    eigenvalues: tuple[Jordan, ...]


def _root_division(coeffs: Sequence[LaurentPoly], root: LaurentPoly
                   ) -> tuple[list[LaurentPoly], LaurentPoly]:
    """The quotient of sum coeffs[j] x^j by x - root (its coefficients,
    lowest first), and the remainder, the value at root: synthetic
    division."""
    acc = coeffs[-1]
    out = [acc]
    for a in reversed(coeffs[:-1]):
        acc = a + root * acc
        out.append(acc)
    remainder = out.pop()
    return out[::-1], remainder


def _linear_factors(coeffs: Sequence[LaurentPoly]) -> list[tuple[int, int, int]] | None:
    """The factors (x - c u^k)^mult, c = +-1, as (c, k, mult), of a monic
    sum coeffs[j] x^j of degree >= 1, or None where it has another factor.

    With E the largest |exponent| of the coefficients, every such root
    has |k| <= 2E: for k > 2E the term coeffs[0] has its lowest exponent
    at most E, below every exponent of coeffs[j] u^(kj), j >= 1, which are
    at least k - E > E, so the value at c u^k is not 0 (and the mirror
    argument on the highest exponents holds for k < -2E).  A zero
    coeffs[0] (the root 0) is another factor."""
    coeffs = list(coeffs)
    bound = 2 * max((abs(k) for c in coeffs for k in c._n), default=0)
    factors = []
    for k in range(-bound, bound + 1):
        for c in (1, -1):
            mult = 0
            while len(coeffs) > 1:
                quotient, remainder = _root_division(coeffs, _canonical({k: c}, 1))
                if not remainder.is_zero:
                    break
                coeffs, mult = quotient, mult + 1
            if mult:
                factors.append((c, k, mult))
    return factors if len(coeffs) == 1 else None


def classify_generic(A: Mat) -> GenericClass:
    """The parabolic subtype of a laurent-ring matrix A at every
    transcendental u, from exact data, with the data as its certificate.

    The eigenvalues come from the characteristic polynomial
    (``_charpoly_adjugate``), where it splits into factors x - c u^k
    (``_linear_factors``); the Jordan data from the ranks over Q(u) of
    the powers of A - c u^k I (``Mat.rank``).  The rules are those of
    ``isometry.classify_columns``: one eigenvalue whose block needs the
    second or third power to vanish is ``unipotent-step2`` or ``-step3``;
    several eigenvalues, one with a nontrivial block, ellipto-parabolic;
    anything else (no nontrivial block, a longer one, another factor)
    None.  At a transcendental u (e^{i alpha} for a nonzero float alpha,
    by Hermite-Lindemann) no nonzero polynomial in u vanishes, so the
    eigenvalues stay distinct and no rank drops: the class holds there.
    Whether A is an isometry at all is the caller's to know (a family
    proves its form invariance exactly)."""
    if A.ring != "laurent":
        raise TypeError("classify_generic takes a laurent-ring matrix")
    factors = _linear_factors(A._charpoly_adjugate()[0])
    if factors is None:
        return GenericClass(None, ())
    eigenvalues = []
    for c, k, mult in factors:
        N = A._plus_scalar(_canonical({k: -c}, 1))
        P, ranks, widths = N, [], []
        while True:
            ranks.append(P.rank())
            widths.append(_rank_width(P))
            if ranks[-1] == A.n - mult:
                break
            P = P @ N
        eigenvalues.append(Jordan(c, k, mult, tuple(ranks), tuple(widths)))
    jordan = tuple(eigenvalues)
    if all(e.ranks[0] == A.n - e.multiplicity for e in jordan):
        return GenericClass(None, jordan)
    if len(jordan) > 1:
        return GenericClass(ELLIPTO_PARABOLIC, jordan)
    step = {2: UNIPOTENT_STEP2, 3: UNIPOTENT_STEP3}.get(len(jordan[0].ranks))
    return GenericClass(step, jordan)


# ---------------------------------------------------------------------------
# Hermitian forms
# ---------------------------------------------------------------------------

CONJ_TRANSPOSE = "conj-transpose"      # invariance  g* J g  = J   (Siegel models)
TRANSPOSE_CONJ = "transpose-conj"      # invariance  g^T J conj(g) = J

_CONVENTIONS = (CONJ_TRANSPOSE, TRANSPOSE_CONJ)


class HermForm:
    """A Hermitian form together with its invariance convention.

    Hermitianness (J* = J) is verified at construction: exactly for Mat
    input, to STRUCTURE_TOL (relative) for numeric input (through the
    numeric layer, ``matrices.hermitian_failures``).
    """

    __slots__ = ("mat", "convention", "_array", "_ones")

    def __init__(self, J, convention: str = CONJ_TRANSPOSE):
        if convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if isinstance(J, Mat):
            if J.star_transpose() != J:
                raise GeometryError("form matrix is not hermitian (exact check)")
        else:
            import numpy as np
            J = np.asarray(J, dtype=complex)
            if J.ndim != 2 or J.shape[0] != J.shape[1]:
                raise ValueError(f"form matrix must be square, got shape {J.shape}")
            failure = _numeric().hermitian_failures(J[None])[0]
            if failure is not None:
                raise failure
        self.mat = J
        self.convention = convention
        self._array = None
        # a permutation matrix of ones is the same matrix in every ring: the
        # exact layer reads it as the column of each row's one, and reindexes
        self._ones = _ones_columns(J) if isinstance(J, Mat) else None

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

    def _adjoint(self, g: Mat) -> Mat | None:
        """g^-1 for a g that preserves this exact form, where J is a
        permutation matrix of ones, as the Siegel forms are; None for any
        other form, whose generators go to ``Mat.inverse``.

        Such a J is Hermitian, so symmetric, and its own inverse, and
        star(J) = J: g* J g = J, and g^T J conj(g) = J conjugated, give
        g^-1 = J g* J in both conventions, in every ring.  Entry (i, j) of
        J g* J is entry (c_i, c_j) of g*, star(g[c_j][c_i]), for c the
        column of each row's one: the one-term entries of the general
        product, term for term."""
        c = self._ones
        if c is None:
            return None
        return g._like([[g.rows[cj][ci].star() for cj in c] for ci in c])


def _ones_columns(K: Mat) -> tuple[int, ...] | None:
    """For a permutation matrix K of the ring's ones, as the Siegel forms
    are, the column of each row's one; None for any other K."""
    one, cols = K._one(), []
    for r in K.rows:
        nonzero = [j for j, e in enumerate(r) if not e.is_zero]
        if len(nonzero) != 1 or r[nonzero[0]] != one:
            return None
        cols.append(nonzero[0])
    return tuple(cols) if len(set(cols)) == K.n else None


def siegel_form(size: int, convention: str = CONJ_TRANSPOSE) -> HermForm:
    """The antidiagonal-corner form 2 Re(z1 conj(z_size)) + sum |z_i|^2,
    as an exact Mat over Q[u,u^-1]: one form per (size, convention) and
    process, shared, and read-only (its matrix is an immutable ``Mat``,
    and its numeric array is not writeable)."""
    return _siegel_form(size, convention)


def _new_siegel_form(size: int, convention: str) -> HermForm:
    """A Siegel form built anew, outside the shared ones: ``classify
    --matrix`` takes one of its input's size, which would otherwise push
    the families' forms out of the shared cache."""
    rows = [[0] * size for _ in range(size)]
    rows[0][size - 1] = 1
    rows[size - 1][0] = 1
    for i in range(1, size - 1):
        rows[i][i] = 1
    return HermForm(Mat.laurent(rows), convention)


# both conventions of the sizes in use
_siegel_form = functools.lru_cache(maxsize=8)(_new_siegel_form)


def form_preserved(g: Mat, form: HermForm) -> bool:
    """Exact invariance check over the exact backend (star applied to u,
    valid on the unit circle).

    J is Hermitian (checked exactly when the form is built), so the
    product g* J g, or g^T J conj(g), is Hermitian too, and its entries
    on and above the diagonal decide: only those are formed, and the
    check returns at the first that differs from J's.  A J of ones
    multiplies by reindexing: J g, or J conj(g), is its right factor's
    rows in the order of J's columns, and J's entries are the ring's one
    and zero.  Any other J multiplies its left factor, lifted into the
    ext ring of g's tag where g is over that ring."""
    if not form.is_exact:
        raise TypeError("exact check requires an exact form")
    if form.convention == CONJ_TRANSPOSE:
        left, right = g.star_transpose(), g
    else:
        left, right = g.transpose(), g.star()
    J, rows, zero = form.mat, right.rows, g._zero()
    if form._ones is not None:
        if J.n != g.n:
            raise ValueError("incompatible matrices")
        rows = [rows[c] for c in form._ones]
        one = g._one()
        targets = [[one if j == c else zero for j in range(g.n)] for c in form._ones]
    else:
        if g.ring == "ext" and J.ring == "laurent":
            J = Mat.ext(J.rows, g.d)
        left, targets = left @ J, J.rows
    cols = [{k: b for k, b in enumerate(c) if not b.is_zero} for c in zip(*rows)]
    for i, (r, target) in enumerate(zip(left.rows, targets)):
        terms = [(k, a) for k, a in enumerate(r) if not a.is_zero]
        for j in range(i, g.n):
            col = cols[j]
            pairs = [(a, col[k]) for k, a in terms if k in col]
            if (_dot(pairs) if pairs else zero) != target[j]:
                return False
    return True
