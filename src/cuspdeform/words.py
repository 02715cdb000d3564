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
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .exact import GeometryError, HermForm, Mat, _numeric, chain, chain_trace, form_preserved
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


@dataclass
class Rep:
    """Generator images over one backend, with an optional invariant
    form (validated at construction: exactly or within CONSTRUCTION_TOL).

    Numeric images may also be stacks (K, n, n), all of one length K, one
    matrix per point of a block, without a form: a word's image is then
    the stack of its images at each point, bit for bit, since the
    inverse, the power and the product broadcast over the stack, and its
    trace the traces at each point.

    Exact generator inverses and powers are formed once per ``Rep``.  An
    exact generator's inverse is its form adjoint J g* J, a reindexing
    (``HermForm._adjoint``), where the form J is a permutation matrix of
    ones, as the Siegel forms are, and ``Mat.inverse`` otherwise.  Only
    numeric images import numpy, when they are used.

    Exact word images and traces are ``exact.chain`` and
    ``exact.chain_trace`` of the generator powers.
    """

    images: Mapping[str, MatLike]
    form: HermForm | None = None
    _inv_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _pow_cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        if not exact and len({np.shape(g) for g in self.images.values()}) != 1:
            raise ValueError("numeric generator images must share one shape: all (n, n), "
                             "or all stacks (K, n, n) of one length K")
        if self.form is not None:
            if not exact and any(np.ndim(g) != 2 for g in self.images.values()):
                raise ValueError("a Rep of numeric stacks (K, n, n) takes no form")
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

    def _powers(self, w: Word) -> list:
        """The generator powers of a word's factors, in order."""
        missing = w.symbols - set(self.images)
        if missing:
            raise KeyError(f"word uses symbols not in the representation: {missing}")
        return [self._power(*f) for f in w.factors]

    def evaluate(self, w: Word):
        """Image of a word: the ordered product of its generator powers."""
        powers = self._powers(w)
        first = next(iter(self.images.values()))
        if isinstance(first, Mat):
            return chain(powers) if powers else Mat.identity(first.n, first.ring, first.d)
        import numpy as np
        out = np.broadcast_to(np.eye(np.shape(first)[-1], dtype=complex), np.shape(first))
        for g in powers:
            out = out @ g
        return out if powers else out.copy()

    def trace(self, w: Word):
        """Trace of a word's image: exactly ``evaluate(w).trace()``, value
        and term order alike, for an exact one; a complex for a numeric
        one, and the array of the traces at each point for a stack."""
        if self.is_exact:
            powers = self._powers(w)
            return chain_trace(powers) if powers else self.evaluate(w).trace()
        import numpy as np
        t = np.trace(self.evaluate(w), axis1=-2, axis2=-1)
        return complex(t) if t.ndim == 0 else t


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
        if any(np.ndim(g) != 2 for g in rep.images.values()):
            raise ValueError("check_relations takes single matrices, not numeric stacks "
                             "(K, n, n): a RelationResult holds one defect per relator")
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
