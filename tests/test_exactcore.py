import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formspec.exactcore import (
    AlgebraicReal,
    ExactError,
    FieldElement,
    IntPolynomial,
    NumberField,
    QuadraticReal,
    RatInterval,
    _decide,
    _det,
    _solve,
    algebraic_to_quadratic,
    compare,
    isolate_real_roots,
    nth_root_interval,
    quadratic_to_algebraic,
    refine,
    same_value,
    sqrt_interval,
    sturm_chain,
    sturm_root_count,
)


X2M2 = IntPolynomial([-2, 0, 1])          # x^2 - 2
CUBIC = IntPolynomial([-1, -2, 1, 1])     # x^3 + x^2 - 2x - 1


class TestDecide:
    def test_widths_probed_in_order(self):
        seen = []

        def probe(w):
            seen.append(w)
            return "done" if len(seen) == 4 else None
        assert _decide(probe, F(1, 2), 4) == "done"
        assert seen == [F(1, 2), F(1, 8), F(1, 32), F(1, 128)]

    def test_false_and_zero_are_decisions(self):
        for answer in (False, 0):
            calls = []

            def probe(w):
                calls.append(w)
                return answer
            out = _decide(probe, F(1), 16, rounds=3)
            assert out is answer and calls == [F(1)]

    def test_gives_up_after_rounds(self):
        calls = []

        def probe(w):
            calls.append(w)
            return None
        assert _decide(probe, F(1), 2, rounds=5) is None
        assert calls == [F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16)]

    def test_interval_order(self):
        a, b = RatInterval(0, 1), RatInterval(2, 3)
        assert a.order(b) == -1 and b.order(a) == 1
        assert a.order(RatInterval(1, 2)) is None


class TestElimination:
    def test_det_with_row_swaps(self):
        rows = [[F(0), F(2), F(1)], [F(1), F(1), F(0)], [F(2), F(0), F(3)]]
        # expansion along the first row: -2*(3 - 0) + 1*(0 - 2) = -8
        assert _det(rows) == -8
        assert _det([[F(1), F(2)], [F(2), F(4)]]) == 0

    def test_solve_unique_and_inconsistent(self):
        a = [[F(1), F(1)], [F(1), F(-1)], [F(2), F(0)]]
        assert _solve(a, [F(3), F(1), F(4)]) == [F(2), F(1)]
        assert _solve(a, [F(3), F(1), F(5)]) is None

    def test_det_over_number_field(self):
        K = NumberField(isolate_real_roots(CUBIC)[-1])
        g = K.generator()
        d = _det([[g, K.rational(1)], [K.rational(2), g]])
        assert (d - (g * g - 2)).is_zero()


class TestSturmCount:
    def test_sqrt2_in_0_2(self):
        assert sturm_root_count(X2M2, RatInterval(0, 2)) == 1

    def test_sqrt2_above_2(self):
        assert sturm_root_count(X2M2, RatInterval(2, 3)) == 0

    def test_cubic_in_1_2(self):
        # p(1) = -1 < 0 < 7 = p(2), and the derivative 3x^2+2x-2 is
        # positive on (1,2) by sampling, so exactly one root
        dp = CUBIC.derivative()
        assert all(dp.eval(F(1) + F(k, 16)) > 0 for k in range(17))
        assert sturm_root_count(CUBIC, RatInterval(1, 2)) == 1

    def test_rejects_non_squarefree(self):
        sq = IntPolynomial([0, 0, 1])  # x^2
        with pytest.raises(ExactError):
            sturm_root_count(sq, RatInterval(-1, 1))
        with pytest.raises(ExactError):
            sturm_root_count(sq, RatInterval(-1, 1), _chain=sturm_chain(sq))
        nsf = IntPolynomial([-2, 1]) * IntPolynomial([1, 0, 1]) \
            * IntPolynomial([1, 0, 1])  # (x - 2)(x^2 + 1)^2, no real repeat
        with pytest.raises(ExactError):
            sturm_root_count(nsf, RatInterval(0, 3))
        with pytest.raises(ExactError):
            sturm_root_count(nsf, RatInterval(0, 3), _chain=sturm_chain(nsf))
        sf = IntPolynomial([-2, 0, 1])
        assert sturm_root_count(sf, RatInterval(0, 2),
                                _chain=sturm_chain(sf)) == 1


class TestIsolation:
    def test_sqrt2_two_roots(self):
        roots = isolate_real_roots(X2M2)
        assert len(roots) == 2
        assert roots[0].compare(F(-1)) < 0 and roots[0].compare(F(-2)) > 0
        assert roots[1].compare(F(1)) > 0 and roots[1].compare(F(2)) < 0

    def test_cubic_three_real_roots(self):
        roots = isolate_real_roots(CUBIC)
        assert len(roots) == 3
        approx = sorted(float(r) for r in roots)
        assert approx[2] == pytest.approx(1.24698, abs=1e-4)
        assert approx[1] == pytest.approx(-0.44504, abs=1e-4)
        assert approx[0] == pytest.approx(-1.80194, abs=1e-4)

    def test_no_real_roots(self):
        assert isolate_real_roots(IntPolynomial([1, 0, 1])) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ExactError):
            isolate_real_roots(IntPolynomial([]))

    def test_rational_roots_decidable(self):
        roots = isolate_real_roots(IntPolynomial([0, -1, 0, 1]))  # x^3 - x
        expected = [F(-1), F(0), F(1)]
        assert len(roots) == 3
        for r, v in zip(roots, expected):
            assert r.compare(v) == 0  # exact equality test pins the value
            assert r.as_fraction() == v


class TestRefineCompare:
    def test_refine_width(self):
        r = isolate_real_roots(X2M2)[1]
        ref = refine(r, F(1, 100))
        iv = ref.interval()
        assert iv.width <= F(1, 100)
        assert iv.lo >= F(141, 100) and iv.hi <= F(1425, 1000)

    def test_refine_idempotent(self):
        r = isolate_real_roots(X2M2)[1]
        a = refine(refine(r, F(1, 10)), F(1, 1000))
        b = refine(r, F(1, 1000))
        assert same_value(a, b)

    def test_refine_larger_width_keeps_value(self):
        r = isolate_real_roots(X2M2)[1]
        assert same_value(refine(r, F(10)), r)

    def test_compare_examples(self):
        r = isolate_real_roots(X2M2)[1]
        assert compare(r, F(3, 2)) == "less"
        assert compare(r, F(1)) == "greater"
        lin = AlgebraicReal(IntPolynomial([-3, 1]), RatInterval(3, 3))
        assert compare(lin, F(3)) == "equal"

    def test_compare_consistent_with_refinement(self):
        r = isolate_real_roots(CUBIC)[-1]
        q = F(5, 4)
        assert r.compare(q) == -1
        iv = r.enclosure(F(1, 10 ** 12))
        assert iv.hi < q


class TestQuadraticToAlgebraic:
    def test_golden_ratio(self):
        phi = QuadraticReal(1, 1, 5, 2)
        a = quadratic_to_algebraic(phi)
        assert a.minpoly == IntPolynomial([-1, -1, 1])
        assert a.compare(F(1)) > 0 and a.compare(F(2)) < 0

    def test_sqrt2(self):
        a = quadratic_to_algebraic(QuadraticReal(0, 1, 2, 1))
        assert a.minpoly == IntPolynomial([-2, 0, 1])
        assert a.compare(F(1)) > 0

    def test_rational_embeds_degree_one(self):
        a = quadratic_to_algebraic(QuadraticReal(3, 0, 2, 1))
        assert a.is_rational() and a.as_fraction() == 3

    def test_roundtrip_quadratic(self):
        v = QuadraticReal(2, -3, 7, 5)
        a = quadratic_to_algebraic(v)
        back = algebraic_to_quadratic(a)
        assert back == v

    def test_numeric_agreement(self):
        v = QuadraticReal(2, 3, 11, 4)
        a = quadratic_to_algebraic(v)
        direct = (2 + 3 * 11 ** 0.5) / 4
        iv = a.enclosure(F(1, 2 ** 40))
        assert iv.lo <= F(direct).limit_denominator(10 ** 12) <= iv.hi or \
            abs(float(a) - direct) < 1e-9


class TestQuadraticArithmetic:
    def test_field_ops(self):
        a = QuadraticReal(1, 1, 5, 2)   # phi
        assert a * a == a + 1           # phi^2 = phi + 1
        assert (1 / a) == a - 1         # 1/phi = phi - 1
        assert (a - a).is_zero()

    def test_floor_and_sign(self):
        a = QuadraticReal(1, 1, 5, 2)
        assert a.floor() == 1
        assert (-a).floor() == -2
        assert a.sign() == 1 and (-a).sign() == -1

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ExactError):
            QuadraticReal(0, 1, 2, 1) + QuadraticReal(0, 1, 3, 1)

    def test_square_radicand_rejected(self):
        with pytest.raises(ExactError):
            QuadraticReal(0, 1, 4, 1)


def _random_squarefree(rng) -> IntPolynomial:
    while True:
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + \
            [rng.choice([c for c in range(-20, 21) if c])]
        p = IntPolynomial(coeffs)
        if not p.is_zero() and p.is_squarefree():
            return p


class TestIsolationInvariants:
    def test_counts_and_disjointness(self):
        rng = random.Random(12345)
        for _ in range(60):
            p = _random_squarefree(rng)
            roots = isolate_real_roots(p)
            b = p.root_bound()
            total = sturm_root_count(p, RatInterval(-b, b))
            assert len(roots) == total
            ivs = [r.interval() for r in roots]
            for i in range(len(ivs)):
                for j in range(i + 1, len(ivs)):
                    assert ivs[i].hi <= ivs[j].lo or ivs[j].hi <= ivs[i].lo
            for r in roots:
                if not r.is_rational():
                    assert sturm_root_count(p, r.interval()) == 1


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(-10 ** 6, 10 ** 6), b=st.integers(1, 10 ** 6),
    c=st.integers(-10 ** 6, 10 ** 6), d=st.integers(1, 10 ** 6),
)
def test_rational_arithmetic_canonical(a, b, c, d):
    # exactness against a naive big-integer oracle, canonical form kept
    from math import gcd
    s = F(a, b) + F(c, d)
    num, den = a * d + c * b, b * d
    g = gcd(abs(num), den)
    assert s.numerator * (den // g) == (num // g) * s.denominator
    assert s.denominator >= 1
    assert gcd(abs(s.numerator), s.denominator) == 1


class TestNumberField:
    def test_conjugate_roots_verify(self):
        root = isolate_real_roots(CUBIC)[-1]
        K = NumberField(root)
        g = K.generator()
        chi = g * g - 2
        psi = K.rational(1) - g - g * g
        for w in (chi, psi):
            assert (w ** 3 + w * w - 2 * w - 1).is_zero()
        assert not (chi - psi).is_zero()

    def test_inverse_and_division(self):
        root = isolate_real_roots(CUBIC)[-1]
        K = NumberField(root)
        g = K.generator()
        assert ((g / g) - 1).is_zero()
        assert (g * g.inverse() - 1).is_zero()
        with pytest.raises(ZeroDivisionError):
            K.rational(0).inverse()

    def test_floor_and_minpoly(self):
        root = isolate_real_roots(CUBIC)[-1]
        K = NumberField(root)
        g = K.generator()
        assert g.floor() == 1
        chi = g * g - 2
        assert chi.floor() == -1
        mp = chi.min_polynomial()
        assert mp.eval(F(0)) != 0  # nonzero constant term
        a = chi.as_algebraic()
        assert float(a) == pytest.approx(-0.44504, abs=1e-5)


class TestRootExtraction:
    def test_sqrt_interval(self):
        iv = sqrt_interval(F(2), F(1, 10 ** 9))
        assert iv.width <= F(1, 10 ** 9)
        assert iv.lo ** 2 <= 2 <= iv.hi ** 2

    def test_nth_root(self):
        iv = nth_root_interval(F(1, 49), 4, F(1, 10 ** 9))
        assert iv.lo ** 4 <= F(1, 49) <= iv.hi ** 4

    def test_exact_cases(self):
        assert sqrt_interval(F(0), F(1)).lo == 0
        iv = nth_root_interval(F(16), 4, F(1, 10 ** 6))
        assert iv.lo <= 2 <= iv.hi
