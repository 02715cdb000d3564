import pytest
from hypothesis import given, settings, strategies as st

from cuspdeform.bending import bianchi_family
from cuspdeform.figure8 import build_family, generator_m, generator_n
from cuspdeform.matrices import GeometryError, Mat
from cuspdeform.scalars import Angle, LaurentPoly
from cuspdeform.words import (Presentation, Rep, Word, builtin_presentation,
                              check_relations, commutator, load_word_list)


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
        # value and term order, from a new Rep whose powers and prefixes
        # are all formed inside the call
        want = [self.rep.evaluate(w).trace() for w in batch]
        got = Rep({"m": generator_m(), "n": generator_n()})._traces(batch)
        assert got == want and list(map(terms, got)) == list(map(terms, want))
        for w, tr in zip(batch, want):
            assert terms(self.rep.trace(w)) == terms(tr)

    def test_ext_traces_match_evaluated_traces(self):
        rep = bianchi_family(7, "su31").rep()
        batch = [Word.parse(w) for w in ("a.t", "a.t.u^-1", "a.t.u^-1.a.u", "a.t^-2.u",
                                          "u^3.a", "a.t.u^-1.a.u^2", "t^-1")]
        want = [rep.evaluate(w).trace() for w in batch]
        got = rep._traces(batch)
        assert got == want
        assert [[terms(p) for p in g.c] for g in got] == [[terms(p) for p in g.c]
                                                           for g in want]

    def test_missing_symbol_in_a_trace(self):
        with pytest.raises(KeyError):
            self.rep._traces([Word.parse("m.n"), Word.parse("m.q")])

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
