import random
from fractions import Fraction as F

import pytest

from formspec.cfengine import convergents, expand
from formspec.exactcore import (
    ExactError,
    IntPolynomial,
    QuadraticReal,
    RatInterval,
    isolate_real_roots,
)
from formspec.forms import (
    BinaryForm,
    Mag,
    Transform,
    act,
    cubic_discriminant,
    discriminant,
)
from formspec.minima import m_estimate
from formspec.spectrum import (
    CASE1,
    DiagonalInterval,
    MarkoffTriple,
    SweepConfig,
    classify_sweep_point,
    crossing_tent_path,
    diagonal_form,
    diagonal_interval,
    diagonal_prefactor,
    freiman_constant,
    linear_diagonal_path,
    markoff_triples,
    neg_disc_family,
    path_profile,
    pos_disc_family,
    sigma_solve,
    sweep,
)

MORDELL_POS = BinaryForm.parse("3: 1 1 -2 -1")


class TestNegDiscFamily:
    def test_t_zero_is_extremal_form(self):
        f = neg_disc_family(F(0))
        assert f.is_rational()
        assert f.canonical_text() == "3: 1 0 -1 -1"
        assert discriminant(f) == -23

    def test_unit_value_at_one_zero(self):
        for t in (F(0), F(1, 2), F(1), F(5)):
            f = neg_disc_family(t)
            v = f.abs_at(1, 0)
            assert v.is_rational() and v.as_fraction() == 1

    def test_negative_t_rejected(self):
        with pytest.raises(ExactError):
            neg_disc_family(F(-1))

    def test_pointwise_dominance_sample(self):
        f0 = neg_disc_family(F(0))
        f1 = neg_disc_family(F(1))
        rng = random.Random(6)
        for _ in range(60):
            x, y = rng.randint(-40, 40), rng.randint(-40, 40)
            if (x, y) == (0, 0):
                continue
            assert f1.abs_at(x, y).compare(f0.abs_at(x, y)) >= 0

    @pytest.mark.parametrize("t", [F(1, 3), F(5, 7)])
    def test_field_discriminant_matches_closed_form(self, t):
        # resultant elimination over Q(r) against the cubic closed form
        f = neg_disc_family(t)
        assert (discriminant(f) - cubic_discriminant(f)).is_zero()

    def test_discriminant_strictly_grows(self):
        from formspec.forms import scalar_enclosure
        mags = []
        for t in (F(0), F(1, 2), F(1), F(5)):
            d = discriminant(neg_disc_family(t))
            e = scalar_enclosure(d, F(1, 10 ** 12)).abs()
            mags.append(e)
        for a, b in zip(mags, mags[1:]):
            assert a.hi < b.lo


class TestPosDiscFamily:
    def test_digit_structure(self):
        pf, rebuilt = pos_disc_family(F(2), 12)
        rho = isolate_real_roots(IntPolynomial([-1, -2, 1, 1]))[-1]
        cf_r = expand(rho, 12)
        cf_b = expand(rebuilt, 14, digit_limit=None)
        assert cf_b.digits_upto(12) == cf_r.digits_upto(12)
        assert cf_b.tail == "periodic" and cf_b.period_block == (1,)
        # inserted digit equals the floor formula
        cv = convergents(cf_r, 12)
        QN = cv[12].q
        from formspec.exactcore import NumberField
        K = NumberField(rho)
        g = K.generator()
        want = ((3 * g * g + 2 * g - 2) * (F(2) * QN)).floor()
        assert cf_b.digit(13) == want

    def test_minimum_tracks_inverse_c(self):
        pf, _ = pos_disc_family(F(2), 14)
        res = m_estimate(pf, box=80, depth=28,
                         assumed_subcritical=pf.linear[1:])
        assert res.certified
        iv = res.value.enclosure(F(1, 10 ** 9))
        assert abs(2 * float(iv.mid) - 1) < 0.05

    def test_validation(self):
        with pytest.raises(ExactError):
            pos_disc_family(F(1, 2), 10)
        with pytest.raises(ExactError):
            pos_disc_family(F(2), 1)


class TestDiagonalMachinery:
    def test_identity_prefactor(self):
        assert diagonal_prefactor(F(1), 3).as_fraction() == 1

    def test_scaled_form_roots(self):
        g = diagonal_form(MORDELL_POS, F(1, 2))
        roots = g.real_root_values()
        base = MORDELL_POS.real_root_values()
        from formspec.forms import scalar_enclosure
        for r, b in zip(roots, base):
            er = scalar_enclosure(r, F(1, 2 ** 40))
            eb = scalar_enclosure(b, F(1, 2 ** 40))
            assert abs(er.mid - eb.mid / 2) < F(1, 2 ** 30)

    def test_interval_shape(self):
        di = diagonal_interval(MORDELL_POS, 10)
        assert di.theta_n.hi <= di.right_end.lo
        width = di.right_end.lo - di.theta_n.hi
        assert width < F(40, di.q_n ** 3)  # theta_N = right end + O(Q^-n)
        assert width > 0

    def test_vanishes_at_right_end(self):
        di = diagonal_interval(MORDELL_POS, 8)
        # |P o D_theta(P_N, Q_N)| crosses zero at the right end: evaluate
        # the scaled form at a rational point inside the enclosure
        theta = di.right_end.hi
        g = diagonal_form(MORDELL_POS, theta)
        v = g.abs_at(di.p_n, di.q_n)
        iv = v.enclosure(F(1, 2 ** 40))
        assert iv.lo < F(1, di.q_n)  # collapses toward zero

    def test_identity_theta_is_identity(self):
        g = diagonal_form(MORDELL_POS, F(1))
        assert g == MORDELL_POS


class TestSweep:
    def test_small_sweep_all_convergent_case(self):
        pts, summary = sweep(SweepConfig(MORDELL_POS, 10, 25, seed=7))
        assert summary["case1_fraction"] >= F(9, 10)
        for p in pts:
            if p.case == CASE1:
                x, y = p.min_result.attaining
                assert (abs(x), abs(y)) == (
                    abs(_di_cache().p_n), _di_cache().q_n) or y == _di_cache().q_n

    def test_spec_value_recomputation(self):
        pts, _ = sweep(SweepConfig(MORDELL_POS, 10, 8, seed=3))
        for p in pts:
            g = diagonal_form(MORDELL_POS, p.theta)
            x, y = p.min_result.attaining
            again = g.abs_at(x, y).times(diagonal_prefactor(p.theta, 3))
            iv = again.enclosure(F(1, 2 ** 50))
            assert iv.lo <= p.spec_value.hi and p.spec_value.lo <= iv.hi

    def test_deep_case_on_isolated_roots(self):
        # the roots of a rational form are AlgebraicReals: Case 2 scales
        # them by theta with an exact Mobius map
        from formspec.minima import MinResult
        theta = F(501211, 500000)  # theta * rho_1 is within 1e-6 of 5/4
        res = MinResult(Mag(F(1)), (125, 100), 60, 10, False, "")
        di = diagonal_interval(MORDELL_POS, 2)
        case = classify_sweep_point(MORDELL_POS, theta, res, di,
                                    MORDELL_POS.real_root_values(), F(4))
        assert case == "Case2_deep"

    def test_seed_reproducible(self):
        a = sweep(SweepConfig(MORDELL_POS, 10, 10, seed=5))[1]
        b = sweep(SweepConfig(MORDELL_POS, 10, 10, seed=5))[1]
        assert a["case1_fraction"] == b["case1_fraction"]
        assert a["max_case1_gap"] == b["max_case1_gap"]


_DI = {}


def _di_cache() -> DiagonalInterval:
    if "v" not in _DI:
        _DI["v"] = diagonal_interval(MORDELL_POS, 10)
    return _DI["v"]


class TestMarkoff:
    def test_tree_to_five(self):
        ts = markoff_triples(5)
        got = {(t.x, t.y, t.z) for t in ts}
        assert {(1, 1, 1), (1, 1, 2), (1, 2, 5)} <= got

    def test_equation_exact(self):
        for t in markoff_triples(1000):
            assert t.x ** 2 + t.y ** 2 + t.z ** 2 == 3 * t.x * t.y * t.z

    def test_leading_values(self):
        ts = markoff_triples(300)
        vals = sorted((t.value() for t in ts),
                      key=lambda v: -float(v))
        assert vals[0] == QuadraticReal(0, 1, 5, 5)      # 1/sqrt(5)
        assert vals[1] == QuadraticReal(0, 2, 32, 32)    # 1/sqrt(8)
        assert vals[2] == QuadraticReal(0, 5, 221, 221)  # 5/sqrt(221)

    def test_values_above_one_third(self):
        for t in markoff_triples(1000):
            assert t.value().compare(F(1, 3)) > 0

    def test_bad_triple_rejected(self):
        with pytest.raises(ExactError):
            MarkoffTriple(1, 1, 3)


class TestFreiman:
    def test_symbolic_inverse(self):
        c = freiman_constant()
        inv = c.inverse()
        want = QuadraticReal(2221564096, 283748, 462, 491993569)
        assert inv == want

    def test_decimal_enclosure(self):
        iv = freiman_constant().enclosure(F(1, 10 ** 8))
        assert F(2207, 10 ** 4) <= iv.mid <= F(2209, 10 ** 4)

    def test_product_with_inverse_is_one(self):
        c = freiman_constant()
        assert (c * c.inverse() - 1).is_zero()


class TestSigmaSolve:
    def _center(self, N, theta):
        from formspec.spectrum import _roots_in_primary_field
        K, roots = _roots_in_primary_field(MORDELL_POS)
        cf = expand(K.gen, N, digit_limit=None)
        cv = convergents(cf, N)
        A = F(cv[N].p, cv[N].q)
        center = K.rational(1)
        for w in roots[1:]:
            center = center * (K.rational(A) - w * theta)
        return K, roots, A, center

    def test_identity_case_exact(self):
        di = diagonal_interval(MORDELL_POS, 12)
        theta = (di.theta_n.hi + di.right_end.lo) / 2
        K, roots, A, center = self._center(12, theta)
        res = sigma_solve(MORDELL_POS, 12, theta, center)
        assert res.transform.is_identity()
        assert res.residual.hi == 0

    def test_perturbed_case(self):
        di = diagonal_interval(MORDELL_POS, 12)
        theta = (di.theta_n.hi + di.right_end.lo) / 2
        K, roots, A, center = self._center(12, theta)
        res = sigma_solve(MORDELL_POS, 12, theta, center + F(1, 1000))
        assert res.residual.hi <= F(1, 10 ** 12)
        assert res.distance_to_identity.hi < 1
        T = res.transform
        # constraints re-verified independently
        assert (T.apply(roots[0]) - roots[0]).is_zero()
        prod = K.rational(1)
        for w in roots[1:]:
            prod = prod * (K.rational(A) - T.apply(w) * theta)
        dev = (prod - (center + F(1, 1000))).abs()
        assert dev.enclosure(F(1, 10 ** 16)).hi <= F(1, 10 ** 12)
        # the composed form keeps the fixed root: exact evaluation
        g = act(MORDELL_POS, T)
        acc = K.rational(0)
        for c in reversed(g.coeffs):
            acc = acc * roots[0] + c
        assert acc.is_zero()

    def test_guard_window(self):
        di = diagonal_interval(MORDELL_POS, 12)
        theta = (di.theta_n.hi + di.right_end.lo) / 2
        K, roots, A, center = self._center(12, theta)
        with pytest.raises(ExactError):
            sigma_solve(MORDELL_POS, 12, theta, center + F(10 ** 6))


class TestPathProfile:
    def test_constant_path_constant_profile(self):
        pts = path_profile(MORDELL_POS, lambda t: Transform.identity(), 5,
                           depth=10)
        vals = {(p.value.lo, p.value.hi) for p in pts}
        assert len(vals) == 1
        assert pts[0].value.lo == 1 == pts[0].value.hi

    def test_crossing_dip(self):
        di = diagonal_interval(MORDELL_POS, 8)
        path, cap = crossing_tent_path(di)
        pts = path_profile(MORDELL_POS, path, 65, depth=16,
                           denominator_cap=cap)
        vals = [float(p.value.mid) for p in pts]
        assert vals[0] > 0.99 and vals[-1] > 0.99
        dips = [i for i, v in enumerate(vals) if v < 0.1]
        assert dips
        assert all(pts[i].near_rational_root for i in dips)

    def test_refined_sampling_reveals_new_dips(self):
        # non-equicontinuity: a 10x denser sweep of the same window finds
        # dips the coarse sweep misses entirely (frozen from an oracle run)
        di = diagonal_interval(MORDELL_POS, 4)
        a = di.theta_n.hi
        span = di.right_end.hi - a
        path = linear_diagonal_path(a - span * 60, di.right_end.hi + span)

        def clusters(pts, th):
            c, prev = 0, False
            for p in pts:
                cur = float(p.value.mid) < th
                if cur and not prev:
                    c += 1
                prev = cur
            return c

        coarse = path_profile(MORDELL_POS, path, 40, depth=12, box=40)
        fine = path_profile(MORDELL_POS, path, 400, depth=12, box=40)
        assert clusters(coarse, 0.5) == 0
        assert clusters(fine, 0.5) >= 1
        assert min(float(p.value.mid) for p in fine) < \
            min(float(p.value.mid) for p in coarse)


class TestConcurrency:
    def test_parallel_digit_reads(self):
        import threading
        rho = isolate_real_roots(IntPolynomial([-1, -2, 1, 1]))[-1]
        cf = expand(rho, 2)
        results = []

        def worker():
            results.append(tuple(cf.digits_upto(24)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert list(results[0]) == expand(rho, 24).digits_upto(24)
