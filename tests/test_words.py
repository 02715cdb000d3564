import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuspdeform import exact
from cuspdeform.bending import bianchi_family
from cuspdeform.figure8 import (L_WORD, RELATOR, build_family, generator_m, generator_n,
                                longitude_matrix)
from cuspdeform.matrices import (TRANSPOSE_CONJ, GeometryError, HermForm, Mat, UnitPowers,
                                 siegel_form)
from cuspdeform.scalars import Angle, LaurentPoly
from cuspdeform.words import (Presentation, Rep, Word, builtin_presentation, check_relations,
                              commutator, load_word_list)


@st.composite
def words(draw):
    n = draw(st.integers(0, 8))
    factors = [(draw(st.sampled_from("mn")), draw(st.integers(-2, 2)))
               for _ in range(n)]
    return Word(factors)


class TestWord:
    def test_free_reduction(self):
        w = Word([("m", 2), ("m", -2), ("n", 1)])
        assert w == Word.gen("n")

    def test_parse_format(self):
        w = Word.parse("m^1.n^-1.m^2")
        assert str(w) == "m^1.n^-1.m^2"
        assert Word.parse("m.n^-1") == Word([("m", 1), ("n", -1)])
        assert Word.parse("e") == Word.identity()

    def test_inverse(self):
        w = Word.parse("m.n^-2")
        assert (w * w.inverse()) == Word.identity()

    def test_pow(self):
        assert Word.gen("m") ** 3 == Word([("m", 3)])
        assert Word.parse("m.n") ** -1 == Word.parse("n^-1.m^-1")

    def test_commutator_conventions(self):
        a, b = Word.gen("a"), Word.gen("b")
        assert commutator(a, b) == Word.parse("a.b.a^-1.b^-1")
        assert commutator(a, b, "a^-1b^-1ab") == Word.parse("a^-1.b^-1.a.b")

    def test_relator_validation(self):
        with pytest.raises(ValueError):
            Presentation(("a",), (Word.gen("b"),))


class TestPresentations:
    def test_figure8(self):
        pres = builtin_presentation("figure8")
        assert pres.generators == ("m", "n")
        w = commutator(Word.gen("n"), Word.gen("m").inverse())
        want = Word.gen("m") * w * Word.gen("n").inverse() * w.inverse()
        assert pres.relators == (want,)

    def test_bianchi_relators(self):
        a, t, u = Word.gen("a"), Word.gen("t"), Word.gen("u")
        for d, extra in [
            (2, (a * u.inverse() * a * u) ** 2),
            (7, (a * t * u.inverse() * a * u) ** 2),
            (11, (a * t * u.inverse() * a * u) ** 3),
        ]:
            pres = builtin_presentation("bianchi", d)
            assert pres.relators[:3] == (commutator(t, u), a * a, (a * t) ** 3)
            assert pres.relators[3] == extra

    def test_unsupported_d(self):
        with pytest.raises(ValueError):
            builtin_presentation("bianchi", 5)

    def test_built_once_per_process(self):
        pres = builtin_presentation("bianchi", 7)
        assert builtin_presentation("bianchi", 7) is pres
        assert bianchi_family(7, "su31").presentation is pres
        assert bianchi_family(7, "so41").presentation is pres
        bound = builtin_presentation.cache_info().maxsize
        for d in range(bound + 3):
            assert builtin_presentation("figure8", d).relators == (RELATOR,)
        assert builtin_presentation.cache_info().currsize == bound


@st.composite
def word_batches(draw):
    """Words that share prefixes: a few stems, each extended by further
    factors with negative and repeated powers."""
    stems = draw(st.lists(words(), min_size=1, max_size=3))
    return [draw(st.sampled_from(stems)) * draw(words())
            for _ in range(draw(st.integers(1, 6)))]


def terms(p):
    return p._d, list(p._n.items())


class TestRep:
    def setup_method(self):
        self.rep = Rep({"m": generator_m(), "n": generator_n()})

    def test_empty_word(self):
        assert self.rep.evaluate(Word.identity()).is_identity()
        assert self.rep.trace(Word.identity()) == LaurentPoly.const(4)

    def test_trace_of_product(self):
        assert self.rep.trace(Word.parse("m.n")) == LaurentPoly.u() + 6

    @given(word_batches())
    @settings(max_examples=40, deadline=None)
    def test_traces_match_evaluated_traces(self, batch):
        # value and term order, from a new Rep whose powers are all formed
        # inside the calls
        want = [self.rep.evaluate(w).trace() for w in batch]
        rep = Rep({"m": generator_m(), "n": generator_n()})
        got = [rep.trace(w) for w in batch]
        assert got == want and list(map(terms, got)) == list(map(terms, want))
        for w, tr in zip(batch, want):
            assert terms(self.rep.trace(w)) == terms(tr)

    def test_ext_traces_match_evaluated_traces(self, monkeypatch):
        # the ext ring's images are not packed: a trace is the trace of
        # the evaluated image, and never packs a power
        rep = bianchi_family(7, "su31").rep()
        monkeypatch.setattr(exact, "_Packing", None)
        for text in ("a.t", "a.t.u^-1", "a.t.u^-1.a.u", "a.t^-2.u", "u^3.a", "t^-1", "e"):
            w = Word.parse(text)
            got, want = rep.trace(w), rep.evaluate(w).trace()
            assert got == want
            assert [terms(p) for p in got.c] == [terms(p) for p in want.c]

    @pytest.mark.parametrize("K", [3, 4])
    def test_stacked_numeric_traces(self, K):
        # a Rep of stacks (K, n, n) traces each point's image
        powers = UnitPowers([Angle.radians(0.4 * k - 0.5) for k in range(K)])
        rep = Rep({"m": generator_m().evaluate_stack(powers),
                   "n": generator_n().evaluate_stack(powers)})
        for text in ("m.n", "m^-2.n.m", "n^3"):
            w = Word.parse(text)
            got = rep.trace(w)
            assert got.shape == (K,)
            assert got.tolist() == [complex(np.trace(x)) for x in rep.evaluate(w)]
        single = Rep({"m": generator_m().evaluate(Angle.radians(0.3)),
                      "n": generator_n().evaluate(Angle.radians(0.3))})
        w = Word.parse("m.n")
        assert type(single.trace(w)) is complex
        assert single.trace(w) == complex(np.trace(single.evaluate(w)))

    def test_stacked_empty_word(self):
        # the empty word's image is the identity at each point of a stack
        K = 3
        powers = UnitPowers([Angle.radians(0.4 * k - 0.5) for k in range(K)])
        rep = Rep({"m": generator_m().evaluate_stack(powers),
                   "n": generator_n().evaluate_stack(powers)})
        g = rep.evaluate(Word.identity())
        assert g.shape == (K, 4, 4) and (g == np.eye(4)).all()
        g[0, 0, 0] = 2  # a fresh array, not a view of a shared one
        assert rep.trace(Word.identity()).tolist() == [4] * K

    def test_stacks_of_different_lengths_are_refused(self):
        # m at three angles and n at two: no word mixing them has a stack
        m = generator_m().evaluate_stack(UnitPowers([Angle.radians(x) for x in (0.1, 0.2, 0.3)]))
        n = generator_n().evaluate_stack(UnitPowers([Angle.radians(x) for x in (0.1, 0.2)]))
        with pytest.raises(ValueError, match=r"one shape: .* of one length K"):
            Rep({"m": m, "n": n})
        with pytest.raises(ValueError, match=r"one shape"):
            Rep({"m": m, "n": n[0]})
        assert Rep({"m": m, "n": m}).evaluate(Word.parse("m.n")).shape == (3, 4, 4)

    def test_stacks_take_no_form(self):
        fam = build_family(Angle.pi_fraction(1, 5))
        stacks = {"m": np.stack([fam.M] * 3), "n": np.stack([fam.N] * 3)}
        with pytest.raises(ValueError, match="stacks .* takes no form"):
            Rep(stacks, fam.form)
        Rep({"m": fam.M, "n": fam.N}, fam.form)  # fine

    def test_missing_symbol_in_a_trace(self):
        with pytest.raises(KeyError):
            self.rep.trace(Word.parse("m.q"))

    def test_missing_symbol(self):
        with pytest.raises(KeyError):
            self.rep.evaluate(Word.gen("q"))

    @given(words(), words())
    @settings(max_examples=30, deadline=None)
    def test_eval_is_homomorphic(self, w1, w2):
        lhs = self.rep.evaluate(w1 * w2)
        rhs = self.rep.evaluate(w1) @ self.rep.evaluate(w2)
        assert lhs == rhs

    @given(words())
    @settings(max_examples=30, deadline=None)
    def test_trace_cyclic_invariance(self, w):
        assert self.rep.trace(w) == self.rep.trace(w.cyclic_shift())

    @given(words())
    @settings(max_examples=30, deadline=None)
    def test_trace_of_inverse_is_star(self, w):
        # holds for unit-circle form-preserving exact families
        assert self.rep.trace(w.inverse()) == self.rep.trace(w).star()

    def test_form_validation_rejects_bad_rep(self):
        fam = build_family(None)
        good = {"m": fam.M, "n": fam.N}
        Rep(good, fam.form)  # fine
        bad = {"m": fam.M, "n": Mat.laurent([[1, 0, 0, 0], [0, 1, 0, 0],
                                             [0, 0, 1, 0], [0, 1, 0, 1]])}
        with pytest.raises(GeometryError):
            Rep(bad, fam.form)


BIANCHI_TARGETS = [(d, target) for d in (2, 5, 7, 11, 15) for target in ("su31", "so41")]


@st.composite
def bianchi_words(draw):
    """A short word in the Bianchi generators, exponents up to +-2."""
    return Word([(draw(st.sampled_from("atu")), draw(st.integers(-2, 2)))
                 for _ in range(draw(st.integers(1, 4)))])


class TestFormAdjointInverses:
    """Exact generator inverses of a Rep with a form of ones are form
    adjoints; the others go through ``Mat.inverse``."""

    @pytest.mark.parametrize("d, target", BIANCHI_TARGETS)
    def test_generator_inverses(self, d, target):
        fam = bianchi_family(d, target)
        n = fam.form.n
        # conjugated by D = Diag(2u, 1, ..., 1), the images preserve the
        # u-dependent form J = D* J_siegel D, which is not its own inverse,
        # and in the other convention its transpose, whose star is J
        D = Mat.diagonal([LaurentPoly.u() * 2] + [1] * (n - 1), "ext", d)
        D_inv = Mat.diagonal([LaurentPoly.u(-1) / 2] + [1] * (n - 1), "ext", d)
        bent = {sym: D_inv @ g @ D for sym, g in fam.images.items()}
        J = D.star_transpose() @ Mat.ext(fam.form.mat.rows, d) @ D
        for images, form in ((fam.images, fam.form),
                             (fam.images, siegel_form(n, TRANSPOSE_CONJ)),
                             (bent, HermForm(J)),
                             (bent, HermForm(J.transpose(), TRANSPOSE_CONJ))):
            rep = Rep(images, form)
            for sym, g in images.items():
                assert (form._adjoint(g) is None) == (images is bent)
                inverse = rep._power(sym, -1)
                assert inverse == g.inverse()
                assert (inverse @ g).is_identity()

    @given(st.sampled_from(BIANCHI_TARGETS), bianchi_words())
    @settings(max_examples=25, deadline=None)
    def test_word_inverses(self, case, w):
        rep = bianchi_family(*case).rep()
        g, inverse = rep.evaluate(w), rep.evaluate(w.inverse())
        assert inverse == g.inverse()
        assert (inverse @ g).is_identity()

    def test_figure8_and_formless_reps_invert_their_generators(self, monkeypatch):
        inverted = []
        inverse = Mat.inverse
        monkeypatch.setattr(Mat, "inverse", lambda m: inverted.append(m) or inverse(m))
        fam = build_family(None)
        form = HermForm(fam.form.mat, TRANSPOSE_CONJ)
        rep = Rep({"m": fam.M, "n": fam.N}, form)
        assert rep._power("m", -1) == inverse(fam.M)
        # the form is dense, and not inverted
        assert inverted == [fam.M] and form._adjoint(fam.M) is None
        assert rep._power("n", -2) == inverse(fam.N) @ inverse(fam.N)
        assert inverted[1:] == [fam.N]
        bianchi = bianchi_family(7, "so41").images
        assert Rep(bianchi)._power("u", -1) == inverse(bianchi["u"])
        assert inverted[2:] == [bianchi["u"]]

    def test_a_sparse_form_without_an_inverse_has_no_adjoint(self):
        # one nonzero entry in each row, but u^-1 + 1 + u is not a unit,
        # nor one
        u = LaurentPoly.u()
        form = HermForm(Mat.laurent([[u.star() + 1 + u, 0], [0, 1]]))
        assert form._adjoint(Mat.identity(2)) is None
        g = Mat.laurent([[1, 0], [0, u]])
        assert Rep({"g": g}, form)._power("g", -1) == g.inverse()


@st.composite
def long_words(draw, max_length=120):
    """Words in m, n of length up to max_length, exponents up to +-5."""
    factors, length = [], 0
    for _ in range(draw(st.integers(0, 60))):
        e = draw(st.integers(-5, 5).filter(bool))
        if length + abs(e) > max_length:
            break
        factors.append((draw(st.sampled_from("mn")), e))
        length += abs(e)
    return Word(factors)


def packed_coefficients(rep, w, image):
    """The integers that the packed product of w's factors carries: the
    numerators of the image's entries, over the product of the factors'
    common denominators."""
    den = math.prod(math.lcm(*(e._d for r in rep._power(*f).rows for e in r))
                    for f in w.factors)
    return [v * (den // e._d) for r in image.rows for e in r for v in e._n.values()]


def packings(rep, w):
    return [exact._packing(rep._power(*f)) for f in w.factors]


def assert_within_width(rep, w, image):
    top = max(map(abs, packed_coefficients(rep, w, image)), default=0)
    assert top < 2 ** (exact._width(packings(rep, w)) - 1)


class TestPeriodicExtWords:
    """An exact ext-ring word w^k, such as a Bianchi torsion relator, has
    the left-to-right product's image, which is the k-th power of w's."""

    @pytest.mark.parametrize("target", ["su31", "so41"])
    @pytest.mark.parametrize("d, products", [(2, 4), (7, 5), (11, 6)])
    def test_relators(self, monkeypatch, mat_chain, d, target, products):
        # the torsion relator (a u^-1 a u)^2, (a t u^-1 a u)^2 or ^3 is the
        # square or cube of its period's image, which ``Mat.__pow__`` forms
        # by squaring: 3 + 1, 4 + 1 or 4 + 2 products once the generator
        # powers are formed
        fam = bianchi_family(d, target)
        rep = Rep(fam.images, fam.form)
        relators = fam.presentation.relators
        for r in relators:
            assert rep.evaluate(r) == mat_chain(fam.images, r)
        torsion, k = relators[3], 2 if d < 11 else 3
        period = Word(torsion.factors[:len(torsion.factors) // k])
        assert period ** k == torsion
        want = rep.evaluate(torsion)
        assert want.is_scalar() is not None
        counted = []
        matmul = Mat.__matmul__
        monkeypatch.setattr(Mat, "__matmul__", lambda A, B: counted.append(A) or matmul(A, B))
        assert rep.evaluate(period) ** k == want
        assert len(counted) == products

    @pytest.mark.parametrize("text, period", [
        ("a^2", 1), ("a.t.a.t.a.t", 2), ("a.t.u^-1.a.u.a.t.u^-1.a.u", 5),
        ("a.t.a.t.u.t", 6), ("a.t.a.t.u.t.a.t.a.t.u.t", 6), ("a.t.u.a.t.u^2", 6)])
    def test_period(self, mat_chain, text, period):
        # w is whole copies of its first `period` factors: a.t.a.t.u.t
        # starts with two copies of a.t, but is not three
        w = Word.parse(text)
        k, rest = divmod(len(w.factors), period)
        assert rest == 0 and Word(w.factors[:period]) ** k == w
        fam = bianchi_family(7, "su31")
        want = mat_chain(fam.images, w)
        assert fam.rep().evaluate(w) == want
        assert fam.rep().evaluate(Word(w.factors[:period])) ** k == want

    @given(st.sampled_from([(2, "su31"), (7, "so41"), (15, "su31")]), bianchi_words(),
           st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_powers_of_random_words(self, mat_chain, case, w, k):
        fam = bianchi_family(*case)
        for base in (w, w * Word.gen("a") * w.inverse()):
            want = mat_chain(fam.images, base ** k)
            assert fam.rep().evaluate(base ** k) == want
            assert fam.rep().evaluate(base) ** k == want


class TestPackedImages:
    """Exact word images and traces against the left-to-right ``Mat @``
    product, by value, and the packing width against the coefficients it
    must hold."""

    def setup_method(self):
        self.images = {"m": generator_m(), "n": generator_n()}
        self.rep = Rep(self.images)

    @given(st.lists(long_words(), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_images_and_traces_match_the_mat_chain(self, mat_chain, batch):
        want = [mat_chain(self.images, w) for w in batch]
        assert [self.rep.evaluate(w) for w in batch] == want
        assert [self.rep.trace(w) for w in batch] == [g.trace() for g in want]
        fresh = Rep(self.images)
        assert [fresh.trace(w) for w in batch] == [g.trace() for g in want]
        for w, g in zip(batch, want):
            assert_within_width(self.rep, w, g)

    def test_relator_and_its_cyclic_shifts_are_the_identity(self, mat_chain):
        shifts = [RELATOR]
        while len(shifts) < RELATOR.length():
            shifts.append(shifts[-1].cyclic_shift())
        for w in shifts:
            assert self.rep.evaluate(w).is_identity()
            assert_within_width(self.rep, w, mat_chain(self.images, w))
        assert [self.rep.trace(w) for w in shifts] == [LaurentPoly.const(4)] * len(shifts)

    def test_longitude(self, mat_chain):
        L = self.rep.evaluate(L_WORD)
        assert L == longitude_matrix() == mat_chain(self.images, L_WORD)
        assert self.rep.trace(L_WORD) == L.trace()
        assert_within_width(self.rep, L_WORD, L)

    # (m n)^k grows fastest among the (m^a n^b)^k with |a|, |b| <= 5
    @pytest.mark.parametrize("text, k", [("m.n", 60), ("m^-1.n^-1", 60), ("m^2.n^2", 30),
                                         ("m.n^2", 40), ("m^5.n^-5", 12)])
    def test_fastest_growing_words(self, mat_chain, text, k):
        w = Word.parse(text) ** k
        g = mat_chain(self.images, w)
        assert self.rep.evaluate(w) == g
        assert self.rep.trace(w) == g.trace()
        assert_within_width(self.rep, w, g)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_scalar_images_attain_the_width_bound(self, n):
        # the diagonal entries of a word in 2 I and u I are prod ||Q_i||
        # itself, so a width one bit narrower could not hold them
        rep = Rep({"a": Mat.diagonal([2] * n), "b": Mat.diagonal([LaurentPoly.u()] * n)})
        for text, scale in [("a^3.b^-2", 8), ("a^-3.b", Fraction(1, 8)), ("a^2.b^3.a^-1", 2),
                            ("b^-1", 1)]:
            w = Word.parse(text)
            g = rep.evaluate(w)
            assert g.is_scalar().sum_coeffs() == scale    # the scalar 2^k u^j
            assert rep.trace(w) == g.trace()
            top = max(map(abs, packed_coefficients(rep, w, g)))
            assert top == math.prod(p.norm for p in packings(rep, w))
            assert_within_width(rep, w, g)

    @pytest.mark.parametrize("text", ["a^6", "a^7.b", "a^-2.b^-1.a^14", "a^15", "a^23.b^-3"])
    def test_decodes_at_the_width_bound(self, monkeypatch, mat_chain, text):
        # widths rounded up only to whole bytes, which the decoder reads: a
        # word in diag(-2, 2) and diag(u, 1) whose B is a multiple of 8
        # (2^6: B = 8) then decodes at B itself, and one a bit past it
        # (2^7: B = 9) at the next byte, where a width one bit short would
        # read a wrong digit
        monkeypatch.setattr(exact, "_quantized", lambda width: -(-width // 8) * 8)
        images = {"a": Mat.diagonal([-2, 2]), "b": Mat.diagonal([LaurentPoly.u(), 1])}
        rep, w = Rep(images), Word.parse(text)
        g = mat_chain(images, w)
        assert rep.evaluate(w) == g
        assert rep.trace(w) == g.trace() and terms(rep.trace(w)) == terms(g.trace())

    def test_nilpotent_images(self, mat_chain):
        # a power whose image is zero packs as zero
        images = {"a": Mat([[0, LaurentPoly.u()], [0, 0]], "laurent"),
                  "b": Mat([[1, 0], [Fraction(1, 2), LaurentPoly.u(-1)]], "laurent"),
                  "z": Mat([[0, 0], [0, 0]], "laurent")}
        rep = Rep(images)
        for text in ["a", "a^2", "a^3.b", "b.a.b^2", "b.a^2.b", "z", "b^-1.z.b^2", "b.a.b.a"]:
            w = Word.parse(text)
            g = mat_chain(images, w)
            assert rep.evaluate(w) == g
            assert rep.trace(w) == g.trace()
        assert rep.evaluate(Word.parse("a^2")) == Mat([[0, 0], [0, 0]], "laurent")
        assert rep.trace(Word.parse("b.a^2")) == LaurentPoly.zero()

    def test_entries_list_terms_in_ascending_order(self):
        g = self.rep.evaluate(Word.parse("m^2.n^-3.m.n^2"))
        assert all(list(e._n) == sorted(e._n) for r in g.rows for e in r)

    def test_each_power_is_packed_at_few_widths(self):
        for length in range(1, 121):
            w = Word([("m" if i % 2 else "n", 1 if i % 3 else -1) for i in range(length)])
            self.rep.trace(w)
        packed = [g._packing for g in self.rep._pow_cache.values() if g._packing is not None]
        widths = {k for p in packed for k in p._at}
        assert all(k % 32 == 0 for k in widths)
        assert max(len(p._at) for p in packed) <= 9


class TestCheckRelations:
    def test_exact_pass(self):
        rep = Rep({"m": generator_m(), "n": generator_n()})
        res = check_relations(rep, builtin_presentation("figure8"))
        assert len(res) == 1 and res[0].exact and res[0].passed

    def test_numeric_defects(self):
        fam = build_family(Angle.pi_fraction(1, 5))
        rep = Rep({"m": fam.M, "n": fam.N})
        res = check_relations(rep, builtin_presentation("figure8"))
        assert res[0].linear_defect < 1e-12
        assert res[0].projective_defect < 1e-12

    def test_fault_injection_reports_defect(self):
        fam = build_family(Angle.pi_fraction(1, 5))
        M = fam.M.copy()
        M[0, 1] += 1e-3
        rep = Rep({"m": M, "n": fam.N})
        res = check_relations(rep, builtin_presentation("figure8"))
        assert 1e-5 < res[0].projective_defect < 1.0
        assert not res[0].passed

    def test_stacks_are_refused(self):
        # a RelationResult holds one defect per relator, not one per point
        powers = UnitPowers([Angle.radians(0.3), Angle.radians(0.7), Angle.zero()])
        rep = Rep({"m": generator_m().evaluate_stack(powers),
                   "n": generator_n().evaluate_stack(powers)})
        with pytest.raises(ValueError, match="not numeric stacks"):
            check_relations(rep, builtin_presentation("figure8"))

    def test_ground_truth_anchor_at_undeformed_parameter(self):
        # every built-in presentation passes on its built-in family at
        # the undeformed parameter
        from cuspdeform.bending import bianchi_family
        fam8 = build_family(Angle.zero())
        rep8 = Rep({"m": fam8.M, "n": fam8.N})
        assert check_relations(rep8, builtin_presentation("figure8"))[0].passed
        for d in (2, 7, 11):
            fam = bianchi_family(d, "su31")
            rep = Rep(fam.numeric_images(Angle.zero()))
            for r in check_relations(rep, fam.presentation):
                assert r.linear_defect < 1e-12


class TestWordListFile:
    def test_parse_lines(self):
        lines = [
            "# longitude and friends",
            "m^1.n^-1.m^1",
            "",
            "n^2   # inline comment",
        ]
        got = load_word_list(lines)
        assert got == [Word.parse("m.n^-1.m"), Word.parse("n^2")]

    def test_malformed_factor_names_its_line(self):
        with pytest.raises(ValueError, match=r"^line 3: factor 'n\^x' of word 'm.n\^x'"):
            load_word_list(["m", "# n^x", "m.n^x"])
