import random
from fractions import Fraction as F
from math import floor

import pytest

from formspec.exactcore import (
    IntPolynomial,
    NumberField,
    QuadraticReal,
    RatInterval,
    isolate_real_roots,
)
from formspec.cfengine import convergents, expand
from formspec.forms import BinaryForm, Mag, ProductForm, Transform, act
from formspec.minima import (
    brute_force_min,
    convergent_candidates,
    m_estimate,
    m_rho,
)

MORDELL_NEG = BinaryForm.parse("3: 1 0 -1 -1")
MORDELL_POS = BinaryForm.parse("3: 1 1 -2 -1")
PHI = QuadraticReal(1, 1, 5, 2)


class TestBruteForce:
    def test_mordell_negative(self):
        r = brute_force_min(MORDELL_NEG, 50)
        assert r.value.as_fraction() == 1 and r.attaining == (1, 0)

    def test_mordell_positive(self):
        r = brute_force_min(MORDELL_POS, 50)
        assert r.value.as_fraction() == 1

    def test_rational_root_zero(self):
        f = BinaryForm.parse("3: 1 0 -1 0")  # x (x - y) (x + y)
        r = brute_force_min(f, 2)
        assert r.value.is_zero()
        x, y = r.attaining
        assert f.evaluate(x, y) == 0  # the attaining vector is an exact zero


class TestConvergentCandidates:
    def test_fibonacci_identity(self):
        f = BinaryForm.parse("2: 1 -1 -1")
        cands = convergent_candidates(f, 6)
        fib_pairs = {(2, 1), (3, 2), (5, 3), (8, 5), (13, 8)}
        got = {(p, q) for p, q, _ in cands}
        assert fib_pairs <= got
        for p, q, mag in cands:
            if (p, q) in fib_pairs:
                assert mag.as_fraction() == 1

    def test_no_real_roots_empty(self):
        f = BinaryForm.parse("2: 1 0 1")
        assert convergent_candidates(f, 5) == []

    def test_positive_form_includes_all_roots(self):
        cands = convergent_candidates(MORDELL_POS, 5)
        qs = {q for _, q, _ in cands}
        assert len(qs) >= 5


class TestMEstimate:
    def test_anchors(self):
        r1 = m_estimate(MORDELL_NEG)
        assert r1.value.as_fraction() == 1 and r1.attaining == (1, 0)
        r2 = m_estimate(MORDELL_POS)
        assert r2.value.as_fraction() == 1 and r2.attaining == (1, 0)

    def test_rational_root_certified_zero(self):
        r = m_estimate(BinaryForm.parse("3: 1 0 -1 0"))
        assert r.value.is_zero() and r.certified

    def test_rational_root_missed_by_isolation(self):
        # (3x - 2y)(x^2 - 7y^2): the isolating interval of the middle root
        # does not land on 2/3, so only the digit engine exposes it
        form = "3: 3 -2 -21 14"
        mid = BinaryForm.parse(form).real_root_values()[1]
        assert not mid.is_rational()
        cf = expand(mid, 10)
        assert cf.tail == "finite" and cf.finite_length() == 2
        assert cf.digits_upto(2) == [0, 1, 2]
        r = m_estimate(BinaryForm.parse(form))
        assert r.value.is_zero() and r.attaining == (2, 3) and r.certified

    def test_anisotropic_certified(self):
        r = m_estimate(BinaryForm.parse("2: 1 0 1"))
        assert r.value.as_fraction() == 1 and r.certified

    def test_monotonicity(self):
        a = m_estimate(MORDELL_POS, box=20, depth=8)
        b = m_estimate(MORDELL_POS, box=60, depth=16)
        assert b.value.compare(a.value) <= 0

    def test_attaining_consistency(self):
        r = m_estimate(MORDELL_POS)
        x, y = r.attaining
        assert abs(MORDELL_POS.evaluate(x, y)) == r.value.as_fraction()

    def test_scaling(self):
        lam = F(7, 3)
        a = m_estimate(MORDELL_POS, box=30, depth=10)
        b = m_estimate(MORDELL_POS.scaled(lam), box=30, depth=10)
        assert b.value.as_fraction() == lam * a.value.as_fraction()
        assert b.attaining == a.attaining

    def test_gl_action_invariance(self):
        rng = random.Random(42)
        base = m_estimate(MORDELL_POS, box=40, depth=12)
        for _ in range(5):
            while True:
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                if a * d - b * c == 1:
                    break
            T = Transform.of_ints(a, b, c, d)
            moved = m_estimate(act(MORDELL_POS, T), box=60, depth=12)
            assert moved.value.as_fraction() == base.value.as_fraction()

    def test_certified_matches_larger_box_oracle(self):
        # oracle equivalence on certified results: quadruple the box
        rng = random.Random(77)
        checked = 0
        for _ in range(30):
            vals = sorted({F(rng.randint(-5, 5)) for _ in range(3)},
                          reverse=True)
            if len(vals) < 3:
                continue
            from formspec.forms import from_roots
            f = from_roots(vals, [], F(1))
            r = m_estimate(f, box=25, depth=8)
            if not r.certified:
                continue
            big = brute_force_min(f, 100)
            assert big.value.compare(r.value) == 0
            checked += 1
        assert checked >= 5


class TestMRho:
    def test_rational_value_zero(self):
        r = m_rho(F(22, 7), 3, 10)
        assert r.is_zero()

    def test_golden_ratio_degree_two(self):
        # the infimum includes Y = 1: |phi - 2| = (3 - sqrt 5)/2, attained
        # at the first convergent; confirmed by brute force over Y <= 10^4
        r = m_rho(PHI, 2, 20)
        expected = QuadraticReal(3, -1, 5, 2)
        iv = expected.enclosure(F(1, 10 ** 12))
        assert r.value.lo <= iv.hi and iv.lo <= r.value.hi
        phi_f = (1 + 5 ** 0.5) / 2
        best = min(y * abs(y * phi_f - round(y * phi_f))
                   for y in range(1, 10 ** 4))
        assert abs(best - float(r.value.mid)) < 1e-9

    def test_golden_ratio_degree_three_stabilizes(self):
        r1 = m_rho(PHI, 3, 10)
        r2 = m_rho(PHI, 3, 25)
        assert abs(float(r1.value.mid) - float(r2.value.mid)) < 1e-12
        phi_f = (1 + 5 ** 0.5) / 2
        best = min(y ** 2 * abs(y * phi_f - round(y * phi_f))
                   for y in range(1, 10 ** 4))
        assert abs(best - float(r1.value.mid)) < 1e-9

    def test_depth_monotone(self):
        rho = isolate_real_roots(IntPolynomial([-1, -2, 1, 1]))[-1]
        a = m_rho(rho, 3, 10)
        b = m_rho(rho, 3, 25)
        assert b.value.lo <= a.value.hi


def _brute_m_rho(rho, n: int, qmax: int) -> RatInterval:
    """Enclosure of min over 1 <= Y <= qmax, X in {floor(Y rho), ceil(Y rho)}
    of Y^(n-1) |Y rho - X|, by plain interval arithmetic on rho."""
    iv = rho.enclosure(F(1, 2 ** 200))
    lo = hi = None
    for Y in range(1, qmax + 1):
        X = floor(Y * iv.lo)
        assert floor(Y * iv.hi) == X
        for XX in (X, X + 1):
            d = iv.scale(Y).shift(-XX).abs().scale(F(Y) ** (n - 1))
            lo = d.lo if lo is None else min(lo, d.lo)
            hi = d.hi if hi is None else min(hi, d.hi)
    return RatInterval(lo, hi)


class TestMRhoBruteForce:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("which,depth", [("cubic", 6), ("phi", 8)])
    def test_contains_brute_minimum(self, which, depth, n):
        rho = (isolate_real_roots(IntPolynomial([-1, -2, 1, 1]))[-1]
               if which == "cubic" else PHI)
        r = m_rho(rho, n, depth)
        cf = expand(rho, depth, digit_limit=None)
        qmax = convergents(cf, depth)[depth].q
        brute = _brute_m_rho(rho, n, qmax)
        assert r.value.contains_interval(brute)


class TestProductFormMinima:
    def test_factored_mordell_matches_expanded(self):
        rho = isolate_real_roots(IntPolynomial([-1, -1, 0, 1]))[0]
        K = NumberField(rho)
        g = K.generator()
        pf = ProductForm(F(1), [g], [(K.rational(1), g, g * g - 1)])
        r = m_estimate(pf, box=40, depth=12)
        assert float(r.value) == pytest.approx(1.0, abs=1e-12)
        assert r.attaining == (1, 0)
