import random
from fractions import Fraction as F

import pytest

from formspec.exactcore import (
    ExactError,
    IntPolynomial,
    NumberField,
    QuadraticReal,
    isolate_real_roots,
    same_value,
)
from formspec.forms import (
    BinaryForm,
    Mag,
    Offset,
    ProductForm,
    Transform,
    act,
    compare_scalars,
    cubic_discriminant,
    discriminant,
    from_roots,
    normalized_minimum,
    real_roots,
)

MORDELL_NEG = "3: 1 0 -1 -1"    # x^3 - x y^2 - y^3
MORDELL_POS = "3: 1 1 -2 -1"    # x^3 + x^2 y - 2 x y^2 - y^3


def rand_unimodular(rng, bound=5) -> Transform:
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c == 1:
            return Transform.of_ints(a, b, c, d)


class TestDiscriminant:
    def test_anchor_negative(self):
        f = BinaryForm.parse(MORDELL_NEG)
        assert discriminant(f) == -23
        assert cubic_discriminant(f) == -23

    def test_anchor_positive(self):
        f = BinaryForm.parse(MORDELL_POS)
        assert discriminant(f) == 49
        assert cubic_discriminant(f) == 49

    def test_repeated_root_zero(self):
        assert discriminant(BinaryForm.parse("3: 1 0 0 0")) == 0

    def test_degenerate_leading_coefficient(self):
        # y | f: swap handles it; x y (x + y) has distinct projective roots
        f = BinaryForm(3, [F(0), F(1), F(1), F(0)])
        assert discriminant(f) != 0

    def test_two_routes_agree_random(self):
        rng = random.Random(2)
        for _ in range(40):
            cs = [F(rng.randint(-9, 9)) for _ in range(4)]
            if all(c == 0 for c in cs):
                continue
            f = BinaryForm(3, cs)
            assert discriminant(f) == cubic_discriminant(f)

    def test_sl2_invariance(self):
        rng = random.Random(4)
        f = BinaryForm.parse(MORDELL_POS)
        for _ in range(100):
            T = rand_unimodular(rng)
            assert discriminant(act(f, T)) == 49

    def test_sl2_invariance_degrees_3_to_6(self):
        rng = random.Random(14)
        for deg in (3, 4, 5, 6):
            for _ in range(8):
                cs = [F(rng.randint(-6, 6)) for _ in range(deg + 1)]
                if all(c == 0 for c in cs):
                    continue
                f = BinaryForm(deg, cs)
                d = discriminant(f)
                T = rand_unimodular(rng, bound=3)
                assert discriminant(act(f, T)) == d

    def test_scaling_law(self):
        rng = random.Random(9)
        for deg in (3, 4, 5, 6):
            cs = [F(rng.randint(-5, 5)) for _ in range(deg + 1)]
            cs[-1] = F(1)
            f = BinaryForm(deg, cs)
            lam = F(3, 2)
            assert discriminant(f.scaled(lam)) == \
                lam ** (2 * deg - 2) * discriminant(f)


class TestAction:
    def test_identity(self):
        f = BinaryForm.parse(MORDELL_NEG)
        assert act(f, Transform.identity()) == f

    def test_shear_moves_root_forward(self):
        f = BinaryForm.parse(MORDELL_NEG)
        g = act(f, Transform.shear(F(1)))
        rho = isolate_real_roots(IntPolynomial([-1, -1, 0, 1]))[0]
        moved = real_roots(g).real_roots[0]
        assert same_value(moved, rho.mobius(1, 1, 0, 1))

    def test_composition_in_application_order(self):
        rng = random.Random(1)
        f = BinaryForm.parse(MORDELL_POS)
        for _ in range(20):
            S, T = rand_unimodular(rng), rand_unimodular(rng)
            assert act(act(f, S), T) == act(f, T @ S)

    def test_det_minus_one(self):
        f = BinaryForm.parse(MORDELL_POS)
        swap = Transform.of_ints(0, 1, 1, 0)  # det -1
        g = act(f, swap)
        assert discriminant(g) == 49  # n(n-1) even keeps it fixed


class TestRealRoots:
    def test_positive_form_three_roots(self):
        rp = real_roots(BinaryForm.parse(MORDELL_POS))
        assert rp.real_count == 3 and rp.degree == 3
        vals = [float(r) for r in rp.real_roots]
        assert vals[0] > vals[1] > vals[2]
        assert vals[0] == pytest.approx(1.24698, abs=1e-4)

    def test_negative_form_single_root(self):
        rp = real_roots(BinaryForm.parse(MORDELL_NEG))
        assert rp.real_count == 1
        assert float(rp.real_roots[0]) == pytest.approx(1.32472, abs=1e-4)

    def test_mixed_product(self):
        pf = ProductForm(F(1), [F(1)], [(F(1), F(0), F(1))])
        rp = real_roots(pf.as_binary_form())
        assert rp.real_count == 1
        assert rp.real_roots[0].as_fraction() == 1

    def test_zero_discriminant_rejected(self):
        with pytest.raises(ExactError):
            real_roots(BinaryForm.parse("3: 1 0 0 0"))


class TestFromRoots:
    def test_field_family_collapses_to_rational(self):
        rho = isolate_real_roots(IntPolynomial([-1, -1, 0, 1]))[0]
        K = NumberField(rho)
        g = K.generator()
        f = from_roots([rho], [(K.rational(1), g, g * g - 1)], F(1))
        assert f.is_rational()
        assert f == BinaryForm.parse(MORDELL_NEG)

    def test_rational_roots(self):
        f = from_roots([F(0), F(1), F(-1)], [], F(1))
        assert f.canonical_text() == "3: 1 0 -1 0"

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(20):
            vals = sorted({F(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(3)}, reverse=True)
            if len(vals) < 2:
                continue
            f = from_roots(vals, [], F(rng.randint(1, 5)))
            back = real_roots(f).real_roots
            assert len(back) == len(vals)
            for got, want in zip(back, vals):
                assert got.compare(want) == 0

    def test_round_trip_with_quadratic_factor(self):
        f = from_roots([F(2)], [(F(1), F(1), F(1))], F(1))
        rp = real_roots(f)
        assert rp.real_count == 1 and rp.real_roots[0].as_fraction() == 2

    def test_non_definite_quadratic_rejected(self):
        with pytest.raises(ExactError):
            from_roots([F(0)], [(F(1), F(3), F(1))], F(1))  # disc 5 > 0


class TestNormalizedMinimum:
    def test_anchor_values(self):
        f = BinaryForm.parse(MORDELL_POS)
        iv = normalized_minimum(f, F(1))
        assert abs(float(iv.mid) - 49 ** -0.25) < 1e-16 or \
            iv.lo <= F(49) ** 0 * F(37796, 100000) + F(1, 2000)
        assert iv.lo ** 4 <= F(1, 49) <= iv.hi ** 4
        g = BinaryForm.parse(MORDELL_NEG)
        iv2 = normalized_minimum(g, F(1))
        assert iv2.lo ** 4 <= F(1, 23) <= iv2.hi ** 4

    def test_zero_minimum(self):
        f = BinaryForm.parse(MORDELL_POS)
        iv = normalized_minimum(f, F(0))
        assert iv.lo == iv.hi == 0

    def test_zero_discriminant_rejected(self):
        with pytest.raises(ExactError):
            normalized_minimum(BinaryForm.parse("3: 1 0 0 0"), F(1))


class TestTransforms:
    def test_det_enforced(self):
        with pytest.raises(ExactError):
            Transform.of_ints(2, 0, 0, 1)

    def test_inverse(self):
        rng = random.Random(8)
        for _ in range(20):
            T = rand_unimodular(rng)
            P = T @ T.inverse()
            assert P.is_identity()

    def test_apply_rational(self):
        T = Transform.of_ints(1, 1, 0, 1)
        assert T.apply(F(1, 2)) == F(3, 2)


class TestMag:
    def test_rational_compare(self):
        assert Mag(F(1, 3)).compare(Mag(F(1, 2))) == -1
        assert Mag(F(1, 2)).compare(Mag(F(1, 2))) == 0

    def test_product_with_sqrt(self):
        m = Mag(F(2), (), rad=F(2))  # 2 sqrt(2)
        iv = m.enclosure(F(1, 10 ** 9))
        assert iv.width <= F(1, 10 ** 9)
        assert (iv.lo / 2) ** 2 <= 2 <= (iv.hi / 2) ** 2

    def test_same_root_offsets_are_exact(self):
        # rho = largest root of x^3 + x^2 - 2x - 1, about 1.247
        rho = isolate_real_roots(IntPolynomial([-1, -2, 1, 1]))[-1]
        near = Mag(1, (Offset(rho, 1),))
        # 2^-400 apart: beyond the 40 refinement rounds of the general path
        assert near.compare(Mag(1, (Offset(rho, 1 - F(1, 2 ** 400)),))) == -1
        assert Mag(1, (Offset(rho, 1 - F(1, 2 ** 400)),)).compare(near) == 1
        assert near.compare(Mag(1, (Offset(rho, 1),))) == 0
        assert Mag(2, (Offset(rho, 2),)).compare(
            Mag(1, (Offset(rho, 2),)).scale(2)) == 0

    def test_rational_against_offset_on_both_sides(self):
        rho = isolate_real_roots(IntPolynomial([-1, -2, 1, 1]))[-1]
        iv = isolate_real_roots(IntPolynomial([-1, -2, 1, 1]))[-1] \
            .enclosure(F(1, 2 ** 300))
        for t, coeff in ((F(1), F(1)), (F(2), F(3, 7)), (F(-5, 3), F(9))):
            off = Offset(rho, t)
            mag = Mag(coeff, (off,))
            exact_lo = coeff * abs(iv.lo - t)
            exact_hi = coeff * abs(iv.hi - t)
            below = Mag(min(exact_lo, exact_hi) - F(1, 2 ** 290))
            above = Mag(max(exact_lo, exact_hi) + F(1, 2 ** 290))
            assert off.sign() == (1 if t < iv.lo else -1)
            assert mag.compare(below) == 1 and below.compare(mag) == -1
            assert mag.compare(above) == -1 and above.compare(mag) == 1

    def test_zero_offset_rejected(self):
        with pytest.raises(ExactError):
            Offset(F(1, 3), F(1, 3))

    def test_zero_absorbs(self):
        assert Mag(F(0)).times(Mag(F(5))).is_zero()

    def test_text_format_round_trip(self):
        f = BinaryForm.parse("4: 1 0 -2 0 1/3")
        assert BinaryForm.parse(f.canonical_text()) == f

    def test_malformed_text(self):
        for bad in ("", "3: 1 2", "x: 1 2 3", "2: a b c"):
            with pytest.raises(ExactError):
                BinaryForm.parse(bad)
