"""Finitely presented groups, free words and representation evaluation.

Ships the built-in presentations (the two-generator knot-group
presentation m w = w n with w = [n, m^-1], and the three one-cusped
Bianchi presentations for d = 2, 7, 11) and the word-list file format:
one word per line, factors `sym^exp` separated by `.`, `#` comments.

The commutator convention is [a, b] = a b a^-1 b^-1 package-wide; the
tests validate it against the alternative on the undeformed lattice.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .exact import GeometryError, HermForm, Mat, _numeric, form_preserved
from .scalars import LaurentPoly, _canonical
from .tolerances import CONSTRUCTION_TOL, LAW_TOL

if TYPE_CHECKING:
    import numpy as np

COMMUTATOR_CONVENTION = "aba^-1b^-1"

_FACTOR = re.compile(r"([A-Za-z_]\w*)\s*(?:\^\s*([+-]?[0-9]+))?", re.ASCII)


class Word:
    """A freely reduced word: factors (symbol, nonzero exponent) with
    adjacent symbols distinct.  The empty word is the identity."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[str, int]] = ()):
        reduced: list[tuple[str, int]] = []
        for sym, exp in factors:
            exp = int(exp)
            if exp == 0:
                continue
            if reduced and reduced[-1][0] == sym:
                merged = reduced[-1][1] + exp
                reduced.pop()
                if merged:
                    reduced.append((sym, merged))
            else:
                reduced.append((sym, exp))
        self.factors = tuple(reduced)

    @classmethod
    def identity(cls) -> "Word":
        return cls()

    @classmethod
    def gen(cls, sym: str, exp: int = 1) -> "Word":
        return cls([(sym, exp)])

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse `m^1.n^-1.m^2` (exponent defaults to 1; `e`/empty is
        the identity word).  A factor is a symbol name (a letter or `_`,
        then letters, digits or `_`) with an optional `^` and signed
        integer exponent; any other factor raises ValueError."""
        text = text.strip()
        if text in ("", "e", "1"):
            return cls()
        factors = []
        for chunk in text.split("."):
            chunk = chunk.strip()
            if not chunk:
                continue
            match = _FACTOR.fullmatch(chunk)
            if match is None:
                raise ValueError(f"factor {chunk!r} of word {text!r} is not a symbol "
                                 f"with an optional integer exponent, like n^-2")
            sym, exp = match.groups()
            factors.append((sym, 1 if exp is None else int(exp)))
        return cls(factors)

    @property
    def symbols(self) -> set[str]:
        return {s for s, _ in self.factors}

    def length(self) -> int:
        return sum(abs(e) for _, e in self.factors)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.factors + other.factors)

    def inverse(self) -> "Word":
        return Word([(s, -e) for s, e in reversed(self.factors)])

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        out = Word()
        for _ in range(k):
            out = out * self
        return out

    def cyclic_shift(self) -> "Word":
        if not self.factors:
            return self
        (s, e), rest = self.factors[0], self.factors[1:]
        head = (s, 1 if e > 0 else -1)
        tail = (s, e - head[1])
        return Word(rest + ((tail,) if tail[1] else ()) + (head,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "e"
        return ".".join(f"{s}^{e}" for s, e in self.factors)

    def __repr__(self) -> str:
        return f"Word({self})"


def commutator(a: Word, b: Word, convention: str = COMMUTATOR_CONVENTION) -> Word:
    if convention == "aba^-1b^-1":
        return a * b * a.inverse() * b.inverse()
    if convention == "a^-1b^-1ab":
        return a.inverse() * b.inverse() * a * b
    raise ValueError(f"unknown commutator convention {convention!r}")


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    name: str = ""

    def __post_init__(self):
        gens = set(self.generators)
        for r in self.relators:
            if not r.symbols <= gens:
                raise ValueError(f"relator {r} uses undeclared generators")


@functools.lru_cache(maxsize=8)  # figure8 and the three Bianchi d
def builtin_presentation(name: str, d: int | None = None) -> Presentation:
    """The built-in presentations, each built once per process (a
    ``Presentation`` is frozen, and its words are never changed).

    * "figure8": generators m, n with the single relation m w = w n,
      w = [n, m^-1] (relator m w n^-1 w^-1).
    * "bianchi", d in {2, 7, 11}: generators a, t, u with relators
      [t,u], a^2, (at)^3 and a d-specific torsion word.
    """
    if name == "figure8":
        m, n = Word.gen("m"), Word.gen("n")
        w = commutator(n, m.inverse())
        relator = m * w * n.inverse() * w.inverse()
        return Presentation(("m", "n"), (relator,), "figure8")
    if name == "bianchi":
        a, t, u = Word.gen("a"), Word.gen("t"), Word.gen("u")
        common = (commutator(t, u), a * a, (a * t) ** 3)
        if d == 2:
            extra = (a * u.inverse() * a * u) ** 2
        elif d == 7:
            extra = (a * t * u.inverse() * a * u) ** 2
        elif d == 11:
            extra = (a * t * u.inverse() * a * u) ** 3
        else:
            raise ValueError(f"no built-in presentation for bianchi d={d}")
        return Presentation(("a", "t", "u"), common + (extra,), f"bianchi-{d}")
    raise ValueError(f"unknown presentation {name!r}")


def load_word_list(lines: Iterable[str]) -> list[Word]:
    """Parse the word-list file format (`#` comments, blank lines ok).
    A malformed word raises ValueError prefixed with its line number."""
    out = []
    for k, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if body:
            try:
                out.append(Word.parse(body))
            except ValueError as exc:
                raise ValueError(f"line {k}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

MatLike = Union[Mat, "np.ndarray"]


def _quantized(width: int) -> int:
    """A packing width rounded up to a multiple of 32 bits, or of an
    eighth of the power of two above it if that is more: up to 256 bits
    there are 8 widths, and then 4 per doubling."""
    step = 1 << max(5, width.bit_length() - 3)
    return -(-width // step) * step


def _matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(map(operator.mul, r, c)) for c in cols] for r in A]


class _Packed:
    """One exact laurent-ring generator power P = u^lo Q(u) / den: den
    the lcm of its entries' denominators, lo their lowest exponent, Q an
    n x n matrix of integer polynomials of degree at most ``span``, and
    ``norm`` the largest row sum of the l1 norms of Q's entries.  ``at``
    gives Q's entries at u = 2^width, packed once per width.  A zero
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


@dataclass
class Rep:
    """Generator images over one backend, with an optional invariant
    form (validated at construction: exactly or within CONSTRUCTION_TOL).

    Numeric images may also be stacks (K, n, n), one matrix per point of
    a block, without a form: a word's image is then the stack of its
    images at each point, bit for bit, since the inverse, the power and
    the product broadcast over the stack, and its trace the traces at
    each point.

    Exact generator inverses and powers are formed once per ``Rep``.  An
    exact generator's inverse is its form adjoint J g* J, a reindexing
    (``HermForm._adjoint``), where the form J is a permutation matrix of
    ones, as the Siegel forms are, and ``Mat.inverse`` otherwise.  Only
    numeric images import numpy, when they are used.

    Exact laurent-ring word images are products of n x n matrices of
    Python ints (Kronecker substitution).  Each generator power is
    P = u^lo Q(u) / den (``_Packed``), and its entries are packed as the
    integers Q_ij(2^B), once per width B.  Evaluation at 2^B is a ring
    homomorphism Z[X] -> Z, so the packed product of a word's factors is
    the product of their Q's evaluated at 2^B.  An entry that is read is
    decoded from its balanced base-2^B digits c_k in [-2^(B-1), 2^(B-1)),
    shifted by the factors' summed lo, over the product of their den,
    and canonicalised: its terms come in ascending exponent order.  The
    digits are the coefficients whenever every |c| < 2^(B-1).

    The width is B = bitlen(x) + 1 for x = prod ||Q_i||, with the norm
    ||Q|| = max_i sum_j |Q_ij|_1.  Since |ab|_1 <= |a|_1 |b|_1 for
    polynomials, |(QR)_ij|_1 <= sum_k |Q_ik|_1 |R_kj|_1, and summing over
    j, sum_j |(QR)_ij|_1 <= sum_k |Q_ik|_1 ||R|| <= ||Q|| ||R||: the norm
    is submultiplicative.  So every coefficient of an entry of
    Q_1 ... Q_r is at most x in absolute value, and 2^(B-1) = 2^bitlen(x)
    > x.  Only entries are decoded (a trace sums its decoded diagonal),
    so no wider sum needs the bound.  A larger width decodes the same
    digits, so B is rounded up to a few steps (``_quantized``) and each
    power is packed at a few widths.

    The ext ring's images multiply with ``Mat @``, left to right.
    """

    images: Mapping[str, MatLike]
    form: HermForm | None = None
    _inv_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _pow_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _packed_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.images:
            raise ValueError("representation needs at least one generator")
        kinds = {isinstance(g, Mat) for g in self.images.values()}
        if len(kinds) != 1:
            raise ValueError("all generator images must share one backend")
        exact = kinds == {True}
        if not exact:
            import numpy as np
        dims = {(g.n if exact else np.shape(g)[-1]) for g in self.images.values()}
        if len(dims) != 1:
            raise ValueError("all generator images must share one dimension")
        if self.form is not None:
            for sym, g in self.images.items():
                if exact:
                    if not form_preserved(g, self.form):
                        raise GeometryError(
                            f"generator {sym} does not preserve the form (exact)")
                else:
                    defect = _numeric().form_defect(np.asarray(g, dtype=complex), self.form)
                    if defect > CONSTRUCTION_TOL:
                        raise GeometryError(
                            f"generator {sym} has form defect {defect:.3g}")

    @property
    def is_exact(self) -> bool:
        return isinstance(next(iter(self.images.values())), Mat)

    @property
    def _packs(self) -> bool:
        """Whether word images multiply packed: exact laurent-ring images."""
        g = next(iter(self.images.values()))
        return isinstance(g, Mat) and g.ring == "laurent"

    @property
    def dim(self) -> int:
        g = next(iter(self.images.values()))
        if isinstance(g, Mat):
            return g.n
        import numpy as np
        return np.shape(g)[-1]

    def _power(self, sym: str, exp: int):
        key = (sym, exp)
        if key in self._pow_cache:
            return self._pow_cache[key]
        g = self.images[sym]
        if not isinstance(g, Mat):
            import numpy as np
        if exp < 0:
            # matrix_power inverts first as well, so the cached inverse
            # gives the same numeric result
            if sym not in self._inv_cache:
                self._inv_cache[sym] = (self._exact_inverse(g) if isinstance(g, Mat) else
                                        np.linalg.inv(np.asarray(g, dtype=complex)))
            g, exp = self._inv_cache[sym], -exp
        if isinstance(g, Mat):
            out = self._pow_cache[key] = g ** exp
            return out
        return np.linalg.matrix_power(np.asarray(g, dtype=complex), exp)

    def _exact_inverse(self, g: Mat) -> Mat:
        """g^-1 for an exact generator: the form adjoint J g* J of a form
        of ones, exact because construction proved that g preserves it;
        else ``Mat.inverse``."""
        adjoint = None if self.form is None else self.form._adjoint(g)
        return g.inverse() if adjoint is None else adjoint

    def _packed(self, sym: str, exp: int) -> _Packed:
        key = (sym, exp)
        if key not in self._packed_cache:
            self._packed_cache[key] = _Packed(self._power(sym, exp))
        return self._packed_cache[key]

    def _width(self, w: Word) -> int:
        """The width B = bitlen(prod ||Q_i||) + 1 that decodes every entry
        of the word's image (see the class)."""
        return math.prod(self._packed(*f).norm for f in w.factors).bit_length() + 1

    def _packed_product(self, factors: tuple, width: int) -> list[list[int]]:
        """The product of these (one or more) factors' packed powers."""
        g = self._packed(*factors[0]).at(width)
        for f in factors[1:]:
            g = _matmul(g, self._packed(*f).at(width))
        return g

    def _unpacked(self, values: Iterable[int], factors: tuple, width: int) -> list[LaurentPoly]:
        """The entries of the image of a word with these factors whose
        packed values at ``width`` are ``values``, read from their
        balanced digits: a bias of 2^(width-1) in every digit makes them
        the bytes of the nonnegative value + bias."""
        packed = [self._packed(*f) for f in factors]
        shift = sum(p.lo for p in packed)
        den = math.prod(p.den for p in packed)
        digits = sum(p.span for p in packed) + 1
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

    def _check_symbols(self, w: Word) -> None:
        missing = w.symbols - set(self.images)
        if missing:
            raise KeyError(f"word uses symbols not in the representation: {missing}")

    def evaluate(self, w: Word):
        """Image of a word: the ordered product of generator powers
        (exact laurent-ring images: packed, see the class)."""
        self._check_symbols(w)
        first = next(iter(self.images.values()))
        if isinstance(first, Mat):
            if not w.factors:
                return Mat.identity(first.n, first.ring, first.d)
            if self._packs:
                width = _quantized(self._width(w))
                g = self._packed_product(w.factors, width)
                entries = iter(self._unpacked([v for r in g for v in r], w.factors, width))
                return first._like([[next(entries) for _ in r] for r in g])
            out = self._power(*w.factors[0])
            for sym, exp in w.factors[1:]:
                out = out @ self._power(sym, exp)
            return out
        import numpy as np
        out = np.eye(np.shape(first)[-1], dtype=complex)
        for sym, exp in w.factors:
            out = out @ self._power(sym, exp)
        return out

    def trace(self, w: Word):
        """Trace of a word's image: exactly ``evaluate(w).trace()``, value
        and term order alike, for an exact one; a complex for a numeric
        one, and the array of the traces at each point for a stack.  A
        packed word of two or more factors multiplies out all but its
        last, at its own width, and decodes only the diagonal of the
        product with the last."""
        if self._packs and len(w.factors) > 1:
            self._check_symbols(w)
            width = _quantized(self._width(w))
            return self._packed_trace(self._packed_product(w.factors[:-1], width),
                                      w.factors, width)
        g = self.evaluate(w)
        if isinstance(g, Mat):
            return g.trace()
        import numpy as np
        t = np.trace(g, axis1=-2, axis2=-1)
        return complex(t) if t.ndim == 0 else t

    def _packed_trace(self, g: list[list[int]], factors: tuple, width: int) -> LaurentPoly:
        """The trace of the image of a word with these factors, from the
        packed image g of all but its last: the n diagonal entries of the
        product with the last, decoded and summed as ``Mat.trace`` sums."""
        last = self._packed(*factors[-1]).at(width)
        diag = [sum(map(operator.mul, r, c)) for r, c in zip(g, zip(*last))]
        acc = LaurentPoly.zero()
        for e in self._unpacked(diag, factors, width):
            acc = acc + e
        return acc


# ---------------------------------------------------------------------------
# Relation checking
# ---------------------------------------------------------------------------

def record_check(checks: dict, name: str, ok: bool, info: str = "") -> None:
    """Enter a named check in a report: whether it passed, and on what."""
    checks[name] = {"pass": bool(ok), "info": info}


@dataclass(frozen=True)
class RelationResult:
    relator: Word
    exact: bool | None          # exact backend: identity held exactly
    projective: bool | None     # exact backend: scalar multiple of identity
    scalar: str | None          # the scalar that occurred (projective pass)
    linear_defect: float | None        # numeric: max |W - I|
    projective_defect: float | None    # numeric: max |W - (trW/n) I|

    @property
    def passed(self) -> bool:
        if self.exact is not None:
            return bool(self.projective)
        return self.projective_defect is not None and self.projective_defect <= LAW_TOL

    def as_dict(self) -> dict:
        return {
            "relator": str(self.relator),
            "exact": self.exact,
            "projective": self.projective,
            "scalar": self.scalar,
            "linearDefect": self.linear_defect,
            "projectiveDefect": self.projective_defect,
            "pass": self.passed,
        }


def check_relations(rep: Rep, pres: Presentation) -> list[RelationResult]:
    """Evaluate every relator.  Exact backend: report exact identity and
    the projective (scalar-multiple) pass with the scalar that occurred.
    Numeric backend: report both the linear and projective max-entry
    defects."""
    if not rep.is_exact:
        import numpy as np
    results = []
    for r in pres.relators:
        g = rep.evaluate(r)
        if isinstance(g, Mat):
            scalar = g.is_scalar()
            results.append(RelationResult(
                relator=r,
                exact=g.is_identity(),
                projective=scalar is not None,
                scalar=None if scalar is None else str(scalar),
                linear_defect=None,
                projective_defect=None,
            ))
        else:
            g = np.asarray(g, dtype=complex)
            n = g.shape[0]
            lam = complex(np.trace(g)) / n
            results.append(RelationResult(
                relator=r,
                exact=None,
                projective=None,
                scalar=repr(lam),
                linear_defect=float(np.abs(g - np.eye(n)).max()),
                projective_defect=float(np.abs(g - lam * np.eye(n)).max()),
            ))
    return results
