"""Exact scalar backends for the deformation families.

Two exact rings and two small value types live here:

* ``LaurentPoly`` -- elements of Q[u, u^-1], carrying the circle-valued
  deformation parameter u.  The star involution substitutes u -> u^-1,
  which is complex conjugation when |u| = 1.
* ``ExtScalar`` -- elements of Q(sqrt2, sqrt d) tensored with Q[u, u^-1],
  written on the fixed basis (1, sqrt2, sqrt d, sqrt(2d)).  All Bianchi
  matrix entries live in this ring.
* ``Surd`` -- a single term q*sqrt(k) with q rational and k squarefree;
  ratios of surds have decidable rationality, which the R x S^1
  discreteness trichotomy requires.
* ``Angle`` -- either an exact rational multiple of pi or raw radians.
  Raw radians are *by convention* an irrational multiple of pi (an input
  marker; irrationality is never inferred from floating values).

The numeric backend is the builtin ``complex`` (finite values only).
Everything here is immutable and pure.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# cos(p*pi/q) for the denominators with textbook closed forms.
_EXACT_COS = {
    1: {0: 1.0, 1: -1.0},
    2: {0: 1.0, 1: 0.0, 2: -1.0, 3: 0.0},
    3: {0: 1.0, 1: 0.5, 2: -0.5, 3: -1.0, 4: -0.5, 5: 0.5},
    4: {0: 1.0, 1: _SQRT2 / 2, 2: 0.0, 3: -_SQRT2 / 2,
        4: -1.0, 5: -_SQRT2 / 2, 6: 0.0, 7: _SQRT2 / 2},
    6: {0: 1.0, 1: _SQRT3 / 2, 2: 0.5, 3: 0.0, 4: -0.5, 5: -_SQRT3 / 2,
        6: -1.0, 7: -_SQRT3 / 2, 8: -0.5, 9: 0.0, 10: 0.5, 11: _SQRT3 / 2},
}


def power(base, n: int, one, mul=operator.mul):
    """base**n for n >= 0 by repeated squaring under ``mul``, with no
    multiplication by the identity and no squaring past the top bit;
    ``one()`` is called only for n == 0."""
    if n < 0:
        raise ValueError("power() needs n >= 0")
    out = None
    while True:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if not n:
            return one() if out is None else out
        base = mul(base, base)


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Angle:
    """An angle, exact (rational multiple of pi) or raw radians.

    The exact kind stores the multiple of pi as a ``Fraction`` in lowest
    terms; trig evaluation uses closed forms for denominators 1,2,3,4,6
    so that e.g. cos(2pi/3) is exactly -0.5 in floating point.
    """

    __slots__ = ("pi_frac", "raw")

    def __init__(self, pi_frac: Fraction | None, raw: float | None):
        if (pi_frac is None) == (raw is None):
            raise ValueError("exactly one of pi_frac, raw must be given")
        self.pi_frac = pi_frac
        self.raw = raw

    @classmethod
    def pi_times(cls, frac: Rational) -> "Angle":
        return cls(_as_fraction(frac), None)

    @classmethod
    def pi_fraction(cls, num: int, den: int = 1) -> "Angle":
        return cls(Fraction(num, den), None)

    @classmethod
    def radians(cls, x: float) -> "Angle":
        if not math.isfinite(x):
            raise ValueError("angle must be finite")
        if x == 0.0:
            return cls(Fraction(0), None)
        return cls(None, float(x))

    @classmethod
    def zero(cls) -> "Angle":
        return cls(Fraction(0), None)

    @property
    def is_pi_rational(self) -> bool:
        return self.pi_frac is not None

    @property
    def value(self) -> float:
        if self.pi_frac is not None:
            return math.pi * self.pi_frac.numerator / self.pi_frac.denominator
        return self.raw  # type: ignore[return-value]

    def is_zero_mod_2pi(self) -> bool:
        if self.pi_frac is not None:
            return self.pi_frac % 2 == 0
        return False  # raw marker: irrational multiple of pi, never 0 mod 2pi

    def times(self, k: int) -> "Angle":
        if self.pi_frac is not None:
            return Angle(self.pi_frac * k, None)
        x = self.raw * k  # type: ignore[operator]
        return Angle(Fraction(0), None) if x == 0.0 else Angle(None, x)

    def __neg__(self) -> "Angle":
        return self.times(-1)

    def cos(self) -> float:
        if self.pi_frac is not None:
            f = self.pi_frac % 2  # in [0, 2)
            q = f.denominator
            if q in _EXACT_COS:
                return _EXACT_COS[q][f.numerator % (2 * q)]
            return math.cos(math.pi * f.numerator / q)
        return math.cos(self.raw)  # type: ignore[arg-type]

    def sin(self) -> float:
        if self.pi_frac is not None:
            shifted = Angle(Fraction(1, 2) - self.pi_frac, None)
            return shifted.cos()  # sin x = cos(pi/2 - x)
        return math.sin(self.raw)  # type: ignore[arg-type]

    def exp_i(self) -> complex:
        return complex(self.cos(), self.sin())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        return self.pi_frac == other.pi_frac and self.raw == other.raw

    def __hash__(self) -> int:
        return hash((self.pi_frac, self.raw))

    def __repr__(self) -> str:
        if self.pi_frac is not None:
            return f"Angle({self.pi_frac}*pi)"
        return f"Angle({self.raw} rad)"


class LaurentPoly:
    """Element of Q[u, u^-1]: finitely many exponent -> rational terms.

    Stored as integer numerators ``{exponent: int}`` over one positive
    integer denominator.  The form is canonical -- no zero numerators,
    ``gcd(den, *numerators) == 1``, and ``den == 1`` for zero -- so
    equality is structural.  Ring operations run on plain ints with one
    gcd pass per result (none when the denominator is 1, as it is for
    most of Z[u, u^-1, 1/2]).  The public view (``items``, ``coeff``,
    ``constant_value``, ``sum_coeffs``) is in ``Fraction``s.  All
    arithmetic is exact.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        terms: dict[int, tuple[int, int]] = {}
        den = 1
        if coeffs:
            for k, v in coeffs.items():
                fv = _as_fraction(v)
                if fv:
                    terms[int(k)] = (fv.numerator, fv.denominator)
                    den = math.lcm(den, fv.denominator)
        # over the lcm of reduced denominators the numerators are coprime
        # to den, so the form is already canonical
        self._n = {k: p * (den // q) for k, (p, q) in terms.items()}
        self._d = den

    @classmethod
    def const(cls, q: Rational) -> "LaurentPoly":
        if isinstance(q, int):
            return _canonical({0: int(q)} if q else {}, 1)
        fq = _as_fraction(q)
        return _canonical({0: fq.numerator} if fq else {}, fq.denominator)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _canonical({}, 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _canonical({0: 1}, 1)

    @classmethod
    def u(cls, k: int = 1) -> "LaurentPoly":
        return _canonical({int(k): 1}, 1)

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return sorted((k, Fraction(v, self._d)) for k, v in self._n.items())

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._n.get(k, 0), self._d)

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_constant(self) -> bool:
        return all(k == 0 for k in self._n)

    @property
    def is_monomial(self) -> bool:
        return len(self._n) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.coeff(0)

    def is_integral(self) -> bool:
        """Membership in Z[u, u^-1]: every coefficient an integer."""
        return self._d == 1

    def sum_coeffs(self) -> Fraction:
        """Exact evaluation at u = 1."""
        return Fraction(sum(self._n.values()), self._d)

    def max_denominator(self) -> int:
        den = self._d
        return max((den // math.gcd(v, den) for v in self._n.values()), default=1)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        o = other if type(other) is LaurentPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        b = o._n
        if not b:
            return self
        a = self._n
        if not a:
            return o
        da, db = self._d, o._d
        if da == db:
            c = dict(a)
            for k, v in b.items():
                c[k] = c.get(k, 0) + v
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            c = {k: v * ma for k, v in a.items()}
            for k, v in b.items():
                c[k] = c.get(k, 0) + v * mb
            da *= ma
        return _canonical({k: v for k, v in c.items() if v}, da)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _canonical({k: -v for k, v in self._n.items()}, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        a = self._n
        if isinstance(other, int):
            if not (a and other):
                return _canonical({}, 1)
            return _canonical({k: v * other for k, v in a.items()}, self._d)
        o = other if type(other) is LaurentPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        b = o._n
        if not (a and b):
            return _canonical({}, 1)
        if len(b) == 1:
            ((k2, v2),) = b.items()
            c = {k1 + k2: v1 * v2 for k1, v1 in a.items()}
        else:
            c = {}
            for k1, v1 in a.items():
                for k2, v2 in b.items():
                    k = k1 + k2
                    c[k] = c.get(k, 0) + v1 * v2
            c = {k: v for k, v in c.items() if v}
        return _canonical(c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            p, r = q.numerator, q.denominator
            if p < 0:
                p, r = -p, -r
            return _canonical({k: v * r for k, v in self._n.items()}, self._d * p)
        return NotImplemented

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, LaurentPoly.one)

    def inverse(self) -> "LaurentPoly":
        """Exact inverse; exists in Q[u,u^-1] only for monomials."""
        if not self.is_monomial:
            raise ZeroDivisionError(f"{self} is not a unit of Q[u,u^-1]")
        ((k, v),) = self._n.items()
        return _canonical({-k: self._d if v > 0 else -self._d}, abs(v))

    def star(self) -> "LaurentPoly":
        """The involution u -> u^-1 (conjugation on the unit circle): the
        numerators move, the denominator stays, and the form stays
        canonical."""
        p = object.__new__(LaurentPoly)
        p._n = {-k: v for k, v in self._n.items()}
        p._d = self._d
        return p

    # -- evaluation --------------------------------------------------------

    def eval_unit(self, alpha: Angle) -> complex:
        """Evaluate at u = e^{i*alpha}."""
        total = 0j
        for k, c in self.unit_terms():
            total += c * alpha.times(k).exp_i()
        return total

    def unit_terms(self) -> list[tuple[int, complex]]:
        """The ``(exponent, complex coefficient)`` terms that
        ``eval_unit`` sums, in its order."""
        den = self._d
        return [(k, complex(v / den)) for k, v in self._n.items()]

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        if self.is_constant:  # equal to an int or Fraction: hash like one
            return hash(Fraction(self._n.get(0, 0), self._d))
        return hash((frozenset(self._n.items()), self._d))

    def __bool__(self) -> bool:
        return bool(self._n)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self._n:
            return "0"
        parts = []
        for k, v in self.items():
            if k == 0:
                term = str(v)
            else:
                var = "u" if k == 1 else f"u^{k}"
                if v == 1:
                    term = var
                elif v == -1:
                    term = f"-{var}"
                else:
                    term = f"{v}*{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _canonical(nums: dict[int, int], den: int) -> LaurentPoly:
    """The LaurentPoly nums/den, for zero-free integer numerators and a
    positive den, divided through by gcd(den, *nums)."""
    if den != 1:
        g = math.gcd(den, *nums.values())  # == den when nums is empty
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    p = object.__new__(LaurentPoly)
    p._n = nums
    p._d = den
    return p


@functools.lru_cache(maxsize=256)  # a radicand is reduced once, not per Surd
def _squarefree(k: int) -> tuple[int, int]:
    """Return (s, m) with k = s^2 * m and m squarefree, by trial division
    up to the largest prime factor of a square in k."""
    if k <= 0:
        raise ValueError("radicand must be positive")
    s, m, p = 1, k, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        p += 1
    return s, m


class Surd:
    """A quadratic surd q*sqrt(k), q rational, k squarefree positive.

    The point of this type is that rationality of a ratio of surds is
    decidable: q1*sqrt(k1) / q2*sqrt(k2) is rational iff k1 == k2.
    """

    __slots__ = ("q", "k")

    def __init__(self, q: Rational, k: int = 1):
        s, m = _squarefree(k)
        fq = _as_fraction(q) * s
        if fq == 0:
            m = 1
        self.q = fq
        self.k = m

    @classmethod
    def _reduced(cls, q: Fraction, k: int) -> "Surd":
        """q*sqrt(k) for a Fraction q and a radicand k already squarefree,
        without reducing k again."""
        x = object.__new__(cls)
        x.q = q
        x.k = k if q else 1
        return x

    @classmethod
    def rational(cls, q: Rational) -> "Surd":
        return cls(q, 1)

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    @property
    def value(self) -> float:
        return float(self.q) * math.sqrt(self.k)

    def __float__(self) -> float:
        return self.value

    def __neg__(self) -> "Surd":
        return Surd._reduced(-self.q, self.k)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Surd._reduced(self.q * other, self.k)
        if isinstance(other, Surd):
            # k1, k2 squarefree: k1 k2 = g^2 (k1/g)(k2/g), the last two
            # coprime and squarefree, with g = gcd(k1, k2)
            g = math.gcd(self.k, other.k)
            return Surd._reduced(self.q * other.q * g, (self.k // g) * (other.k // g))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Surd._reduced(self.q / other, self.k)
        return NotImplemented

    def ratio(self, other: "Surd") -> Fraction | None:
        """self/other as an exact Fraction, or None if irrational."""
        if other.is_zero:
            raise ZeroDivisionError("ratio with zero surd")
        if self.is_zero:
            return Fraction(0)
        if self.k == other.k:
            return self.q / other.q
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Surd.rational(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self.q == other.q and self.k == other.k

    def __hash__(self) -> int:
        return hash(self.q) if self.k == 1 else hash((self.q, self.k))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"Surd({self.q})"
        return f"Surd({self.q}*sqrt({self.k}))"


class ExtScalar:
    """Element of Q(sqrt2, sqrt d) tensor Q[u, u^-1].

    Stored as c0 + c1*sqrt2 + c2*sqrt(d) + c3*sqrt(2d) with LaurentPoly
    components.  The multiplication table is
    sqrt2*sqrt2=2, sqrtd*sqrtd=d, sqrt2*sqrtd=sqrt(2d),
    sqrt(2d)*sqrt(2d)=2d, sqrt2*sqrt(2d)=2*sqrtd, sqrtd*sqrt(2d)=d*sqrt2.
    For d=2 the basis degenerates (sqrt d = sqrt 2, sqrt(2d) = 2); a
    normalization pass folds c2 into c1 and 2*c3 into c0 so equality
    stays canonical.  Scalars with different d tags never mix.
    """

    __slots__ = ("d", "c")

    def __init__(self, d: int, c0, c1=None, c2=None, c3=None):
        _check_tag(d)
        zero = LaurentPoly.zero()

        def lp(x) -> LaurentPoly:
            if x is None:
                return zero
            if isinstance(x, LaurentPoly):
                return x
            if isinstance(x, (int, Fraction)):
                return LaurentPoly.const(x)
            raise TypeError(f"bad component {x!r}")

        c = (lp(c0), lp(c1), lp(c2), lp(c3))
        self.d = d
        self.c = _fold(d, c)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_laurent(cls, p: LaurentPoly, d: int) -> "ExtScalar":
        return cls(d, p)

    @classmethod
    def rational(cls, q: Rational, d: int) -> "ExtScalar":
        """The shared constant q at tag d (``_ext_rational``)."""
        return _ext_rational(q, d)

    @classmethod
    def zero(cls, d: int) -> "ExtScalar":
        return _ext_rational(0, d)

    @classmethod
    def one(cls, d: int) -> "ExtScalar":
        return _ext_rational(1, d)

    @classmethod
    def sqrt2(cls, d: int) -> "ExtScalar":
        return cls(d, 0, 1)

    @classmethod
    def sqrtd(cls, d: int) -> "ExtScalar":
        return cls(d, 0, 0, 1)

    @classmethod
    def sqrt2d(cls, d: int) -> "ExtScalar":
        return cls(d, 0, 0, 0, 1)

    @classmethod
    def from_surd(cls, s: Surd, d: int) -> "ExtScalar":
        if s.k == 1:
            return cls(d, s.q)
        if s.k == 2:
            return cls(d, 0, s.q)
        if s.k == d:
            return cls(d, 0, 0, s.q)
        if s.k == 2 * d:
            return cls(d, 0, 0, 0, s.q)
        # d even: 2d = 4m, sqrt(2d) = 2 sqrt(m) with m = d//2
        if d % 2 == 0 and s.k == d // 2:
            return cls(d, 0, 0, 0, s.q / 2)
        raise ValueError(f"sqrt({s.k}) is not on the (1,sqrt2,sqrt{d},sqrt{2*d}) basis")

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not _support(self.c)

    @property
    def is_laurent(self) -> bool:
        return all(p.is_zero for p in self.c[1:])

    def as_laurent(self) -> LaurentPoly:
        if not self.is_laurent:
            raise ValueError(f"{self} has irrational components")
        return self.c[0]

    def max_denominator(self) -> int:
        return max(p.max_denominator() for p in self.c)

    def _check(self, other: "ExtScalar") -> None:
        if self.d != other.d:
            raise ValueError(f"cannot combine extensions d={self.d} and d={other.d}")

    def _coerce(self, other) -> "ExtScalar | None":
        if isinstance(other, ExtScalar):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return _ext_rational(other, self.d)
        if isinstance(other, LaurentPoly):
            zero = LaurentPoly.zero()
            return _ext(self.d, (other, zero, zero, zero))
        if isinstance(other, Surd):
            return ExtScalar.from_surd(other, self.d)
        return None

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _ext(self.d, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __neg__(self) -> "ExtScalar":
        return _ext(self.d, tuple(-p for p in self.c))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        """The product by the multiplication table, forming only the
        component products whose factors are both nonzero.  Each result
        component is summed in the order, and with the grouping, of

            a0*b0 + (a1*b1)*2 + (a2*b2)*d + (a3*b3)*(2*d)
            a0*b1 + a1*b0 + (a2*b3 + a3*b2)*d
            a0*b2 + a2*b0 + (a1*b3 + a3*b1)*2
            a0*b3 + a3*b0 + a1*b2 + a2*b1

        and a zero term adds nothing, so every component has the terms,
        in the order, that this dense formula gives."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        plan = _product_plan(_support(a), _support(b))
        d = self.d
        scales = (1, 2, d, 2 * d)
        out = []
        for groups in plan:
            acc = None
            for pairs, code in groups:
                s = None
                for i, j in pairs:
                    t = a[i] * b[j]
                    s = t if s is None else s + t
                if code:
                    s = s * scales[code]
                acc = s if acc is None else acc + s
            out.append(_ZERO if acc is None else acc)
        return _ext(d, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return _ext(self.d, tuple(p / q for p in self.c))
        return NotImplemented

    def __pow__(self, n: int) -> "ExtScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, lambda: ExtScalar.one(self.d))

    def galois(self, flip2: bool, flipd: bool) -> "ExtScalar":
        """Apply the field automorphism sqrt2 -> +-sqrt2, sqrtd -> +-sqrtd."""
        c0, c1, c2, c3 = self.c
        if flip2:
            c1, c3 = -c1, -c3
        if flipd:
            c2, c3 = -c2, -c3
        return _ext(self.d, (c0, c1, c2, c3))

    def inverse(self) -> "ExtScalar":
        """Exact inverse via the Galois norm; exists iff the norm is a
        unit (monomial) of Q[u, u^-1]."""
        y = self.galois(True, False) * self.galois(False, True) * self.galois(True, True)
        norm = self * y
        if not norm.is_laurent:
            raise ArithmeticError("norm computation left irrational parts")  # unreachable
        n = norm.as_laurent()
        return y * n.inverse()

    def star(self) -> "ExtScalar":
        """u -> u^-1 on every component (the radicals are real)."""
        return _ext(self.d, tuple(p.star() if p._n else p for p in self.c))

    # -- evaluation -----------------------------------------------------------

    def eval_unit(self, alpha: Angle) -> complex:
        c0, c1, c2, c3 = (p.eval_unit(alpha) for p in self.c)
        return (c0 + c1 * math.sqrt(2) + c2 * math.sqrt(self.d)
                + c3 * math.sqrt(2 * self.d))

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly, Surd)):
            try:
                coerced = self._coerce(other)
            except ValueError:  # a surd off this basis
                return False
            return self.c == coerced.c
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self.d == other.d and self.c == other.c

    def __hash__(self) -> int:
        # hash like the int, Fraction, LaurentPoly or Surd this equals
        if self.is_laurent:
            return hash(self.c[0])
        terms = [(i, p) for i, p in enumerate(self.c) if p]
        if len(terms) == 1 and terms[0][1].is_constant:
            i, p = terms[0]
            return hash(Surd(p.constant_value(), (1, 2, self.d, 2 * self.d)[i]))
        return hash((self.d, self.c))

    def __repr__(self) -> str:
        return f"ExtScalar(d={self.d}, {self})"

    def __str__(self) -> str:
        labels = ["", "sqrt2", f"sqrt{self.d}", f"sqrt{2 * self.d}"]
        parts = []
        for p, lab in zip(self.c, labels):
            if p.is_zero:
                continue
            body = str(p)
            if lab:
                body = f"({body})*{lab}" if (" " in body or body.startswith("-")) else f"{body}*{lab}"
            parts.append(body)
        return " + ".join(parts) if parts else "0"


_ZERO = LaurentPoly.zero()


@functools.lru_cache(maxsize=64)  # a tag is checked once, not per scalar
def _check_tag(d: int) -> None:
    if d < 2 or _squarefree(d)[0] != 1:
        raise ValueError(f"d must be squarefree >= 2, got {d}")


# A scalar is never changed once made, so one object per (rational, tag)
# serves every matrix entry, zero, one and coercion of that constant.  The
# bound holds the constants of a few dozen lattices, forms and identities;
# typed, so that a float key such as 1.0 is refused as it always was.
@functools.lru_cache(maxsize=512, typed=True)
def _ext_rational(q: Rational, d: int) -> ExtScalar:
    """The ExtScalar of the rational q at tag d, built once and shared."""
    return ExtScalar(d, q)


# The basis is 1, sqrt2, sqrt d, sqrt(2d), i.e. sqrt(2^(i&1) d^(i>>1)) for
# i = 0..3: basis elements i and j multiply to basis element i ^ j times
# 2 if i & j has bit 0 and d if it has bit 1.  Per result component, its
# groups of component pairs (i, j); a group is summed, then scaled.
_PRODUCT_GROUPS = (
    (((0, 0),), ((1, 1),), ((2, 2),), ((3, 3),)),
    (((0, 1), (1, 0)), ((2, 3), (3, 2))),
    (((0, 2), (2, 0)), ((1, 3), (3, 1))),
    (((0, 3), (3, 0), (1, 2), (2, 1)),),
)


def _support(c: tuple) -> int:
    """The bit mask of the nonzero components."""
    return ((1 if c[0]._n else 0) | (2 if c[1]._n else 0)
            | (4 if c[2]._n else 0) | (8 if c[3]._n else 0))


@functools.lru_cache(maxsize=256)  # one entry per pair of supports
def _product_plan(support_a: int, support_b: int) -> tuple:
    """Per result component, the groups of ``_PRODUCT_GROUPS`` that keep
    a pair with both factors nonzero, as (those pairs, scale code i & j)."""
    return tuple(
        tuple((live, pairs[0][0] & pairs[0][1]) for pairs in groups
              if (live := tuple((i, j) for i, j in pairs
                                if support_a >> i & 1 and support_b >> j & 1)))
        for groups in _PRODUCT_GROUPS)


def _fold(d: int, c: tuple) -> tuple:
    """For d = 2 the basis degenerates (sqrt d = sqrt2, sqrt(2d) = 2):
    fold c2 into c1 and 2*c3 into c0 so equality stays canonical."""
    if d == 2 and (c[2] or c[3]):
        zero = LaurentPoly.zero()
        return (c[0] + c[3] * 2, c[1] + c[2], zero, zero)
    return c


def _ext(d: int, c: tuple) -> ExtScalar:
    """An ExtScalar from four LaurentPoly components, for ring-operation
    results whose tag d is already validated."""
    x = object.__new__(ExtScalar)
    x.d = d
    x.c = _fold(d, c)
    return x
