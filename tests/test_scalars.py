import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspdeform.scalars import Angle, ExtScalar, LaurentPoly, Surd

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
exponents = st.integers(min_value=-6, max_value=6)


@st.composite
def laurents(draw):
    coeffs = draw(st.dictionaries(exponents, fractions, max_size=5))
    return LaurentPoly(coeffs)


@st.composite
def angles(draw):
    if draw(st.booleans()):
        return Angle.pi_times(draw(st.fractions(min_value=-4, max_value=4,
                                                max_denominator=12)))
    return Angle.radians(draw(st.floats(min_value=-10, max_value=10,
                                        allow_nan=False)))


@st.composite
def exts(draw, d=7):
    return ExtScalar(d, draw(laurents()), draw(laurents()),
                     draw(laurents()), draw(laurents()))


class TestLaurent:
    def test_inverse_pair(self):
        u = LaurentPoly.u()
        assert u * LaurentPoly.u(-1) == LaurentPoly.one()

    def test_mul_identity(self):
        p = LaurentPoly.u() + 6
        assert p * LaurentPoly.one() == p

    def test_hand_convolution(self):
        # (1+u)(1+u^-1) expanded by hand: u^-1 + 2 + u
        got = (LaurentPoly.u() + 1) * (LaurentPoly.u(-1) + 1)
        assert got == LaurentPoly({-1: 1, 0: 2, 1: 1})

    def test_star_examples(self):
        u = LaurentPoly.u()
        assert (u + 6).star() == LaurentPoly.u(-1) + 6
        assert (u ** 3).star() == LaurentPoly.u(-3)
        sym = LaurentPoly({-1: 1, 0: 2, 1: 1})
        assert sym.star() == sym

    def test_eval_examples(self):
        u = LaurentPoly.u()
        assert (u + 6).eval_unit(Angle.zero()) == pytest.approx(7)
        assert u.eval_unit(Angle.pi_fraction(1, 2)) == pytest.approx(1j)

    @given(laurents(), laurents(), laurents())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurents())
    @settings(max_examples=60, deadline=None)
    def test_star_involution(self, a):
        assert a.star().star() == a

    @given(laurents(), angles())
    @settings(max_examples=60, deadline=None)
    def test_star_is_conjugation_on_circle(self, a, alpha):
        lhs = a.star().eval_unit(alpha)
        rhs = a.eval_unit(alpha).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    @given(laurents(), laurents(), angles())
    @settings(max_examples=60, deadline=None)
    def test_eval_homomorphism(self, a, b, alpha):
        lhs = (a * b).eval_unit(alpha)
        rhs = a.eval_unit(alpha) * b.eval_unit(alpha)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_two_evaluation_orders(self):
        # |1 + e^{i a}|^2 computed through the ring vs directly
        p = (LaurentPoly.u() + 1) * (LaurentPoly.u(-1) + 1)
        for k in range(8):
            alpha = Angle.pi_fraction(k, 7)
            direct = abs(1 + alpha.exp_i()) ** 2
            assert p.eval_unit(alpha).real == pytest.approx(direct, abs=1e-12)
            assert p.eval_unit(alpha).imag == pytest.approx(0, abs=1e-12)

    def test_integrality(self):
        assert (LaurentPoly.u() + 6).is_integral()
        assert not (LaurentPoly.u() / 2).is_integral()

    def test_inverse_requires_monomial(self):
        assert LaurentPoly({3: Fraction(2)}).inverse() == LaurentPoly({-3: Fraction(1, 2)})
        with pytest.raises(ZeroDivisionError):
            (LaurentPoly.u() + 1).inverse()

    def test_str_roundtrip_style(self):
        assert str(LaurentPoly({-1: 1, 0: 2, 1: 1})) == "u^-1 + 2 + u"
        assert str(LaurentPoly.u() + 6) == "6 + u"


class TestExtScalar:
    def test_table_entries(self):
        d = 7
        assert ExtScalar.sqrt2(d) * ExtScalar.sqrt2(d) == ExtScalar.rational(2, d)
        assert ExtScalar.sqrt2(d) * ExtScalar.sqrtd(d) == ExtScalar.sqrt2d(d)
        assert ExtScalar.sqrtd(d) * ExtScalar.sqrtd(d) == ExtScalar.rational(d, d)
        assert ExtScalar.sqrt2d(d) * ExtScalar.sqrt2d(d) == ExtScalar.rational(2 * d, d)
        assert ExtScalar.sqrt2(d) * ExtScalar.sqrt2d(d) == ExtScalar.sqrtd(d) * 2
        assert ExtScalar.sqrtd(d) * ExtScalar.sqrt2d(d) == ExtScalar.sqrt2(d) * d

    @pytest.mark.parametrize("d", [2, 5, 6, 7, 11])
    def test_square_of_sum(self, d):
        # (sqrt2 + sqrt d)^2 = 2 + d + 2 sqrt(2d), numerically cross-checked
        s = ExtScalar.sqrt2(d) + ExtScalar.sqrtd(d)
        want = ExtScalar(d, 2 + d, 0, 0, 2)
        assert s * s == want
        num = (math.sqrt(2) + math.sqrt(d)) ** 2
        assert (s * s).eval_unit(Angle.zero()).real == pytest.approx(num)

    def test_mismatched_tags(self):
        with pytest.raises(ValueError):
            ExtScalar.sqrt2(2) + ExtScalar.sqrt2(7)

    def test_d2_folds_to_rationals(self):
        # sqrt(2d) = 2 and sqrt d = sqrt 2 when d = 2
        assert ExtScalar.sqrt2d(2) == ExtScalar.rational(2, 2)
        assert ExtScalar.sqrtd(2) == ExtScalar.sqrt2(2)

    @given(exts(), exts(), exts())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(exts(), angles())
    @settings(max_examples=40, deadline=None)
    def test_eval_star(self, a, alpha):
        lhs = a.star().eval_unit(alpha)
        rhs = a.eval_unit(alpha).conjugate()
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_inverse_via_norm(self):
        d = 7
        x = ExtScalar(d, LaurentPoly.u(), 0, 0, 0)  # a unit
        assert x * x.inverse() == ExtScalar.one(d)
        y = ExtScalar(d, 3, 1, 0, 0)  # 3 + sqrt2, Galois norm 49: invertible
        assert y * y.inverse() == ExtScalar.one(d)

    def test_inverse_fails_for_nonunits(self):
        d = 7
        x = ExtScalar(d, LaurentPoly.u() + 1)
        with pytest.raises(ZeroDivisionError):
            x.inverse()


class TestSurd:
    def test_squarefree_reduction(self):
        assert Surd(1, 8) == Surd(2, 2)
        assert Surd(1, 4) == Surd(2, 1)

    def test_ratio_decidable(self):
        assert Surd(1, 2).ratio(Surd(Fraction(1, 2), 2)) == 2
        assert Surd(1, 2).ratio(Surd(1, 14)) is None
        assert Surd(3).ratio(Surd(2)) == Fraction(3, 2)

    def test_value(self):
        assert Surd(Fraction(-1, 2), 14).value == pytest.approx(-math.sqrt(14) / 2)

    def test_mul(self):
        assert Surd(1, 2) * Surd(1, 7) == Surd(1, 14)
        assert Surd(1, 2) * Surd(1, 2) == Surd(2)


class TestAngle:
    def test_exact_trig_closed_forms(self):
        assert Angle.pi_fraction(2, 3).cos() == -0.5      # exactly
        assert Angle.pi_fraction(1, 2).cos() == 0.0
        assert Angle.pi_fraction(1, 1).sin() == 0.0
        assert Angle.pi_fraction(1, 6).sin() == 0.5

    def test_raw_is_irrational_marker(self):
        assert not Angle.radians(1.0).is_pi_rational
        assert Angle.radians(0.0).is_pi_rational  # canonicalized to exact zero

    def test_zero_mod_2pi(self):
        assert Angle.pi_fraction(4, 2).is_zero_mod_2pi()
        assert not Angle.pi_fraction(1, 3).is_zero_mod_2pi()
        assert not Angle.radians(2 * math.pi).is_zero_mod_2pi()  # marker semantics

    def test_times(self):
        a = Angle.pi_fraction(1, 3)
        assert a.times(4).pi_frac == Fraction(4, 3)
        assert a.times(4).exp_i() == pytest.approx(a.exp_i() ** 4)


# ---------------------------------------------------------------------------
# The integer-numerator kernel against a plain dict[int, Fraction] reference
# ---------------------------------------------------------------------------

coeff_dicts = st.dictionaries(exponents, fractions, max_size=5)
nonzero_rationals = st.one_of(
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool))


def _ref(coeffs):
    return {k: Fraction(v) for k, v in coeffs.items() if v}


def _ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return _ref(out)


def _ref_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
    return _ref(out)


def _as_ref(p):
    """The public view of p, checked against the canonical form."""
    nums, den = p._n, p._d
    assert type(den) is int and den > 0
    assert all(type(v) is int and v != 0 for v in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert den == 1 or nums
    return dict(p.items())


class TestLaurentKernel:
    @given(coeff_dicts, coeff_dicts)
    @settings(max_examples=150, deadline=None)
    def test_ring_ops_match_reference(self, ca, cb):
        a, b = LaurentPoly(ca), LaurentPoly(cb)
        ra, rb = _ref(ca), _ref(cb)
        assert _as_ref(a) == ra
        assert _as_ref(a + b) == _ref_add(ra, rb)
        assert _as_ref(a - b) == _ref_add(ra, {k: -v for k, v in rb.items()})
        assert _as_ref(-a) == {k: -v for k, v in ra.items()}
        assert _as_ref(a * b) == _ref_mul(ra, rb)
        assert _as_ref(a.star()) == {-k: v for k, v in ra.items()}

    @given(coeff_dicts, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_product(self, ca, n):
        want = {0: Fraction(1)}
        for _ in range(n):
            want = _ref_mul(want, _ref(ca))
        assert _as_ref(LaurentPoly(ca) ** n) == want

    @given(coeff_dicts, nonzero_rationals)
    @settings(max_examples=100, deadline=None)
    def test_scalar_operands(self, ca, q):
        a, ra, fq = LaurentPoly(ca), _ref(ca), Fraction(q)
        assert _as_ref(a * q) == {k: v * fq for k, v in ra.items()}
        assert _as_ref(q * a) == {k: v * fq for k, v in ra.items()}
        assert _as_ref(a / q) == {k: v / fq for k, v in ra.items()}
        assert _as_ref(a + q) == _ref_add(ra, {0: fq})
        assert _as_ref(q - a) == _ref_add({0: fq}, {k: -v for k, v in ra.items()})
        assert _as_ref(LaurentPoly.const(q)) == {0: fq}

    @given(st.integers(min_value=-6, max_value=6), nonzero_rationals)
    @settings(max_examples=60, deadline=None)
    def test_monomial_inverse(self, k, q):
        m = LaurentPoly({k: q})
        assert _as_ref(m.inverse()) == {-k: 1 / Fraction(q)}
        assert m * m.inverse() == LaurentPoly.one()

    @given(coeff_dicts)
    @settings(max_examples=100, deadline=None)
    def test_public_view(self, ca):
        a, ra = LaurentPoly(ca), _ref(ca)
        assert a.coeff(0) == ra.get(0, 0) and type(a.coeff(0)) is Fraction
        assert a.sum_coeffs() == sum(ra.values(), Fraction(0))
        assert a.is_integral() == all(v.denominator == 1 for v in ra.values())
        assert a.max_denominator() == max((v.denominator for v in ra.values()),
                                          default=1)
        assert a == LaurentPoly(ra) and hash(a) == hash(LaurentPoly(ra))

    @given(coeff_dicts, angles())
    @settings(max_examples=100, deadline=None)
    def test_eval_unit_is_the_fraction_sum(self, ca, alpha):
        # the same float sum, term by term in the same order, as summing
        # float(Fraction) coefficients
        want = 0j
        for k, v in _ref(ca).items():
            want += complex(v) * alpha.times(k).exp_i()
        assert LaurentPoly(ca).eval_unit(alpha) == want

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 0.5})
        with pytest.raises(TypeError):
            LaurentPoly.const(0.5)


# ---------------------------------------------------------------------------
# Equal values hash equally
# ---------------------------------------------------------------------------

class TestHashEquality:
    def test_examples(self):
        assert len({3, LaurentPoly.const(3)}) == 1
        assert len({3, Surd(3)}) == 1
        assert len({Fraction(1, 2), ExtScalar.rational(Fraction(1, 2), 7)}) == 1
        assert len({Surd(1, 2), ExtScalar.sqrt2(7)}) == 1

    @given(st.fractions(min_value=-9, max_value=9, max_denominator=9),
           st.sampled_from([2, 3, 5, 6, 7, 10, 11]), coeff_dicts)
    @settings(max_examples=150, deadline=None)
    def test_equal_values_hash_equally(self, q, d, ca):
        p = LaurentPoly(ca)
        values = [q, LaurentPoly.const(q), Surd.rational(q), ExtScalar.rational(q, d),
                  p, ExtScalar(d, p), ExtScalar(d, 0, p)]
        if q.denominator == 1:
            values.append(int(q))
        for k in (2, d, 2 * d, d // 2 if d % 2 == 0 else 1):
            values += [Surd(q, k), ExtScalar.from_surd(Surd(q, k), d)]
        equal_pairs = 0
        for a in values:
            for b in values:
                if a == b:
                    equal_pairs += 1
                    assert hash(a) == hash(b), (a, b)
        assert equal_pairs > len(values)  # the cross-type pairs are exercised

    def test_off_basis_surd_is_unequal(self):
        assert ExtScalar.sqrt2(7) != Surd(1, 3)
