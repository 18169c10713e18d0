import itertools
import random
from decimal import Decimal, getcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formspec.cfengine import (
    CFExpansion,
    Convergent,
    approx_error,
    assemble,
    cf_value,
    convergents,
    cylinder_interval,
    cylinder_measure,
    dioph_exponent_estimate,
    expand,
    is_convergent,
)
from formspec.exactcore import (
    ExactError,
    IntPolynomial,
    NumberField,
    QuadraticReal,
    RatInterval,
    isolate_real_roots,
)

PHI = QuadraticReal(1, 1, 5, 2)
SQRT2 = QuadraticReal(0, 1, 2, 1)
CUBIC = IntPolynomial([-1, -2, 1, 1])  # x^3 + x^2 - 2x - 1


def rho_root():
    return isolate_real_roots(CUBIC)[-1]


class TestExpand:
    def test_rational_euclid(self):
        cf = expand(F(355, 113), 10)
        assert cf.tail == "finite"
        assert cf.digits_upto(cf.finite_length()) == [3, 7, 16]

    def test_phi_all_ones(self):
        cf = expand(PHI, 12)
        assert cf.digits_upto(12) == [1] * 13
        assert cf.tail == "periodic" and cf.period_block == (1,)

    def test_quadratic_root_is_periodic(self):
        root = isolate_real_roots(IntPolynomial([-7, 0, 1]))[-1]  # sqrt 7
        cf = expand(root, 8)
        assert cf.tail == "periodic" and cf.period_block == (1, 1, 1, 4)
        assert cf.digits_upto(8) == [2, 1, 1, 1, 4, 1, 1, 1, 4]

    def test_clip(self):
        cf = expand(F(355, 113), 10)
        assert cf.clip(10) == 2 and cf.clip(1) == 1
        assert expand(PHI, 5).clip(40) == 40

    def test_cubic_against_decimal_oracle(self):
        # independent 200-digit floor-and-invert oracle on the largest real
        # root of each polynomial (coefficients from x^0 up), by Newton
        getcontext().prec = 220

        def oracle(coeffs, start, n):
            x = Decimal(start)
            for _ in range(100):
                f = sum(c * x ** i for i, c in enumerate(coeffs))
                df = sum(i * c * x ** (i - 1)
                         for i, c in enumerate(coeffs) if i)
                x = x - f / df
            digs = []
            for _ in range(n):
                a = int(x)
                digs.append(a)
                x = 1 / (x - a)
            return digs

        quartic = IntPolynomial([-2, 0, 0, 0, 1])  # x^4 - 2
        r = NumberField(isolate_real_roots(IntPolynomial([-1, -1, 0, 1]))[0])
        cases = [(rho_root(), CUBIC.coeffs, "1.2"),
                 (isolate_real_roots(quartic)[-1], quartic.coeffs, "1.2"),
                 (r.generator(), (-1, -1, 0, 1), "1.3")]  # r^3 = r + 1
        for value, coeffs, start in cases:
            cf = expand(value, 15)
            assert cf.digits_upto(15) == oracle(coeffs, start, 16)
            assert cf.tail == "lazy"

    def test_resumable(self):
        cf = expand(rho_root(), 3)
        first = cf.digits_upto(3)
        assert cf.digits_upto(8)[:4] == first

    def test_digit_guard(self):
        # a value with an enormous digit: x = [0; 1, HUGE, ...]
        huge = 10 ** 7
        v = assemble(0, [1, huge], [2])
        cf = expand(v, 1)
        with pytest.raises(ExactError):
            cf.digit(2)
        assert cf.digit(2, override_guard=True) == huge

    def test_finite_never_ends_in_one(self):
        rng = random.Random(7)
        for _ in range(200):
            x = F(rng.randint(-500, 500), rng.randint(1, 500))
            cf = expand(x, 50)
            L = cf.finite_length()
            digs = cf.digits_upto(L)
            if L >= 1:
                assert digs[-1] != 1


class TestConvergents:
    def test_fibonacci(self):
        cf = expand(PHI, 6)
        qs = [c.q for c in convergents(cf, 5)]
        assert qs == [1, 1, 2, 3, 5, 8]

    def test_finite_reproduces_value(self):
        cf = expand(F(355, 113), 5)
        cv = convergents(cf, cf.finite_length())
        assert cv[-1].as_fraction() == F(355, 113)

    def test_beyond_finite_errors(self):
        cf = expand(F(22, 7), 10)
        with pytest.raises(ExactError):
            convergents(cf, 9)

    def test_determinant_identity_random(self):
        rng = random.Random(3)
        for _ in range(100):
            a0 = rng.randint(-3, 3)
            digs = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
            v = assemble(a0, digs, [rng.randint(1, 5)])
            cv = convergents(expand(v, len(digs) + 2), len(digs) + 2)
            for c1, c2 in zip(cv, cv[1:]):
                det = c2.p * c1.q - c1.p * c2.q
                assert det in (1, -1)
            for c in cv[1:]:
                assert c.q >= 1


class TestApproxError:
    def test_phi_identity_window(self):
        iv = approx_error(PHI, 1)
        # error = 1/(q1 (a2 q1 + q0)) with a2 in [1, 2]
        assert iv.lo == F(1, 3) and iv.hi == F(1, 2)
        true_err = abs(float(PHI) - 2)
        assert iv.lo <= F(true_err).limit_denominator(10 ** 9) <= iv.hi

    def test_rational_last_convergent_exact_zero(self):
        iv = approx_error(F(355, 113), 2)
        assert iv.lo == iv.hi == 0

    def test_cubic_cross_check(self):
        r = rho_root()
        iv = approx_error(r, 4)
        cf = expand(r, 5)
        c = convergents(cf, 4)[4]
        # direct subtraction through a refined isolating interval
        renc = r.enclosure(F(1, 10 ** 12))
        dlo = abs(renc.mid - c.as_fraction()) - renc.width
        dhi = abs(renc.mid - c.as_fraction()) + renc.width
        assert iv.lo <= dhi and dlo <= iv.hi

    def test_enclosure_identity_random(self):
        rng = random.Random(11)
        for _ in range(50):
            digs = [rng.randint(1, 6) for _ in range(8)]
            v = assemble(0, digs, [rng.randint(1, 3)])
            N = rng.randint(1, 6)
            iv = approx_error(v, N)
            cf = expand(v, N)
            c = convergents(cf, N)[N]
            venc = v.enclosure(F(1, 10 ** 18))
            direct = abs(venc.mid - c.as_fraction())
            assert iv.lo - venc.width <= direct <= iv.hi + venc.width


class TestIsConvergent:
    def test_fibonacci_pair(self):
        assert is_convergent(PHI, 3, 2, 10)

    def test_non_convergent(self):
        assert not is_convergent(PHI, 7, 4, 10)

    def test_lemma_property(self):
        # any (X, Y) approximated better than 1/(2 Y^2) is a convergent
        rng = random.Random(5)
        hits = 0
        for _ in range(1000):
            Y = rng.randint(1, 400)
            X = rng.randint(-2 * Y, 2 * Y)
            from math import gcd
            if gcd(abs(X), Y) != 1:
                continue
            # sample x inside the good window around X/Y
            off = F(rng.randint(-10 ** 6 + 1, 10 ** 6 - 1), 10 ** 6) \
                * F(1, 2 * Y * Y)
            x = F(X, Y) + off
            assert is_convergent(x, X, Y, 64)
            hits += 1
        assert hits > 600


class TestAssemble:
    def test_all_ones_is_golden(self):
        assert assemble(1, [], [1]) == PHI

    def test_classic_sqrt2(self):
        assert assemble(1, [2], [2]) == SQRT2

    def test_round_trip_digits(self):
        rng = random.Random(17)
        for _ in range(50):
            a0 = rng.randint(0, 4)
            pre = [rng.randint(1, 7) for _ in range(rng.randint(0, 6))]
            blk = [rng.randint(1, 7) for _ in range(rng.randint(1, 4))]
            v = assemble(a0, pre, blk)
            want = [a0] + pre + blk * 3
            depth = len(want) - 1
            cf = expand(v, depth)
            assert cf.digits_upto(depth) == want

    def test_validation(self):
        with pytest.raises(ExactError):
            assemble(1, [0], [1])
        with pytest.raises(ExactError):
            assemble(1, [1], [])


class TestCylinders:
    def test_anchor_measures(self):
        assert cylinder_measure(0, [], 1) == F(1, 2)
        assert cylinder_measure(0, [], 2) == F(1, 6)
        assert cylinder_measure(0, [1], 3) == F(1, 20)

    def test_against_endpoint_subtraction(self):
        rng = random.Random(23)
        for _ in range(1000):
            a0 = 0
            pre = [rng.randint(1, 9) for _ in range(rng.randint(0, 7))]
            k = rng.randint(1, 9)
            z1 = cf_value(a0, pre + [k])
            z2 = cf_value(a0, pre + [k + 1])
            assert cylinder_measure(a0, pre, k) == abs(z1 - z2)

    def test_cylinder_interval(self):
        iv = cylinder_interval(0, [1])
        assert iv == RatInterval(F(1, 2), F(1))


class TestDiophExponent:
    def test_phi_exactly_two(self):
        iv = dioph_exponent_estimate(PHI, 15)
        assert iv.lo == iv.hi == 2

    def test_sqrt2_exact_power_value(self):
        # alpha_2 = Q_1 = 2 is an exact power: the truncated maximum is
        # exactly 1 and the statistic is exactly 3 at every depth >= 2
        iv = dioph_exponent_estimate(SQRT2, 20)
        assert iv.lo == iv.hi == 3

    def test_huge_digit_reaches_five(self):
        pre = [1, 1, 1, 1, 1]
        qN, qNm1 = 1, 0
        for a in pre:
            qN, qNm1 = a * qN + qNm1, qN
        v = assemble(0, pre + [qN ** 3], [1])
        iv = dioph_exponent_estimate(v, 7)
        assert iv.lo >= 5

    def test_depth_validation(self):
        with pytest.raises(ExactError):
            dioph_exponent_estimate(PHI, 1)


class TestBestApproximation:
    def test_brute_force_property(self):
        rng = random.Random(31)
        for _ in range(40):
            digs = [rng.randint(1, 5) for _ in range(6)]
            v = assemble(0, digs, [rng.randint(1, 4)])
            N = 5
            cf = expand(v, N)
            cv = convergents(cf, N)
            venc = v.enclosure(F(1, 10 ** 24))
            best = abs(venc.mid - cv[N].as_fraction())
            for Y in range(1, cv[N].q):
                X = round(venc.mid * Y)
                cand = min(abs(venc.mid - F(x, Y)) for x in (X - 1, X, X + 1))
                assert cand > best
