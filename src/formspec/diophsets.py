"""Diophantine membership sets and the structural interval search.

Membership predicates:

* ``in_B_eps(x, rho, eps, n, depth)`` - x's degree-n approximation minimum
  exceeds (1 - eps) times rho's, both truncated at convergent ``depth``
  (heuristic at depth; exact at the stated depth).
* ``in_E_eta(x, rho, eta, height)`` - every rational X/Y with Y <= height
  that approximates x to within 1/Y^(2+eta) also approximates rho to
  within 2/Y^(2+eta) (certified up to the height).

``construct_S_point`` builds digit-window points sharing a prefix with a
target value; ``structural_classify`` decides whether an interval around a
value is already dense with members (Type I) or contains a distinguished
denser subinterval (Type II); ``ael_search`` iterates the classification
over all real roots of a form to produce a near-identity transform whose
transported roots keep near-extremal approximation constants.

All sampling is driven by a counter-based splitmix64 generator, so results
are reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor as _mfloor
from typing import List, Optional, Sequence, Tuple

from .cfengine import (
    cf_value,
    convergents,
    cylinder_interval,
    expand,
)
from .exactcore import (
    AlgebraicReal,
    ExactError,
    NumberField,
    QuadraticReal,
    RatInterval,
)
from .forms import (
    BinaryForm,
    Transform,
    compare_scalars,
    scalar_enclosure,
)
from .minima import m_estimate, m_rho
from .minima import _approx_mag, _nearest_int


class BudgetExhausted(Exception):
    """The iteration budget of a search was exhausted; carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


# ---------------------------------------------------------------------------
# deterministic sampling


_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def uniform_fraction(seed: int, counter: int, iv: RatInterval) -> Fraction:
    """Deterministic uniform rational in ``iv`` with denominator 2**53."""
    bits = _mix64(_mix64(seed & _M64) ^ (counter * 0xD1342543DE82EF95 & _M64))
    k = bits >> 11  # 53 bits
    return iv.lo + iv.width * Fraction(k, 1 << 53)


# ---------------------------------------------------------------------------
# parameters and results


@dataclass(frozen=True)
class DiophParams:
    """Knobs of the structural search: membership slack ``epsilon``, digit
    exponent ``eta``, classification thresholds ``tau1 >= tau2``, truncation
    ``height`` for E-membership and convergent ``depth`` for B-membership."""

    epsilon: Fraction
    eta: Fraction
    tau1: Fraction
    tau2: Fraction
    height: int = 10 ** 4
    depth: int = 30

    def __post_init__(self):
        for name in ("epsilon", "eta", "tau1", "tau2"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (0 < self.epsilon < 1):
            raise ExactError("epsilon must be in (0, 1)")
        if self.eta <= 0:
            raise ExactError("eta must be positive")
        if not (0 < self.tau2 <= self.tau1 < 1):
            raise ExactError("need 0 < tau2 <= tau1 < 1")
        if self.height < 1 or self.depth < 2:
            raise ExactError("height >= 1 and depth >= 2 required")


@dataclass
class ClassifiedInterval:
    """Outcome of the structural dichotomy on one interval."""

    interval: RatInterval
    kind: str  # "TypeI" | "TypeII"
    subinterval: Optional[RatInterval]
    density_estimate: Fraction
    sample_count: int
    c_estimate: Optional[Fraction] = None  # TypeII: (len ratio)/(tau1*eps)
    split_index: Optional[int] = None  # first digit index not constant


@dataclass
class AelWitness:
    """Near-identity transform with per-root membership evidence."""

    transform: Transform
    epsilon: Fraction
    per_root_lower_bounds: List[RatInterval]
    interval_trace: List[ClassifiedInterval]
    shift: Fraction = Fraction(0)
    candidates_tested: int = 0


# ---------------------------------------------------------------------------
# exact distance-power comparisons


def _as_field_value(x):
    """Represent x so that (x - rational) and powers stay exact."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, AlgebraicReal):
        if x.is_rational():
            return x.as_fraction()
        return NumberField(x).generator()
    return x


def _dist_pow_cmp(xv, X: int, Y: int, s: int, rhs: Fraction) -> int:
    """Exact sign of |x - X/Y|^s - rhs for rational rhs >= 0."""
    t = Fraction(X, Y)
    if isinstance(xv, Fraction):
        return ((abs(xv - t) ** s) > rhs) - ((abs(xv - t) ** s) < rhs)
    d = xv - t
    sgn = d.sign()
    if sgn == 0:
        return (0 > rhs) - (0 < rhs)
    if sgn < 0:
        d = -d
    return (d ** s - rhs).sign()


def in_E_eta(x, rho, eta: Fraction, height: int) -> bool:
    """Every eta-good approximation of x below ``height`` lands near rho.

    Certified up to the height: the quantifier over approximants is reduced
    to convergents of x (every sharper-than-1/(2Y^2) approximation is one)
    plus a direct scan of the finitely many Y with Y^eta < 2.
    """
    eta = Fraction(eta)
    if eta <= 0 or height < 1:
        raise ExactError("eta > 0 and height >= 1 required")
    s, p = eta.denominator, eta.numerator
    xv = _as_field_value(x)
    rv = _as_field_value(rho)

    def hypothesis(X, Y):
        # |x - X/Y| < 1 / Y^(2+eta)
        return _dist_pow_cmp(xv, X, Y, s, Fraction(1, Y ** (2 * s + p))) < 0

    def conclusion(X, Y):
        # |rho - X/Y| < 2 / Y^(2+eta)
        return _dist_pow_cmp(rv, X, Y, s, Fraction(2 ** s, Y ** (2 * s + p))) < 0

    # small denominators: Y^eta < 2, candidate X = nearest integers
    Y = 1
    while Y ** p < 2 ** s and Y <= height:
        base = _floor_times(xv, Y)
        for X in (base, base + 1):
            if hypothesis(X, Y) and not conclusion(X, Y):
                return False
        Y += 1
    # convergents of x (and their integer multiples) cover the rest
    cf = expand(x, 64, digit_limit=None)
    L = cf.finite_length()
    top = min(64, L) if L is not None else 64
    prev_q = 0
    for c in convergents(cf, top):
        if c.q > height:
            break
        if c.q == prev_q:
            continue
        prev_q = c.q
        g = 1
        while g * c.q <= height:
            X, Y = g * c.p, g * c.q
            if hypothesis(X, Y):
                if not conclusion(X, Y):
                    return False
            elif g > 1:
                break  # hypothesis is monotone decreasing in g
            g += 1
    return True


def _floor_times(xv, Y: int) -> int:
    if isinstance(xv, Fraction):
        return _mfloor(xv * Y)
    if isinstance(xv, AlgebraicReal):
        return xv.scale_by(Fraction(Y)).floor()
    return (xv * Fraction(Y)).floor()


def canonical_enclosure(v, bits: int) -> RatInterval:
    """The dyadic grid cell of resolution 2^-bits containing the value.

    Unlike plain refinement enclosures this is independent of how tightly
    the value happens to be refined already, so repeated runs in one
    process see identical intervals."""
    scale = 1 << bits
    k = _floor_times(v, scale)
    return RatInterval(Fraction(k, scale), Fraction(k + 1, scale))


def in_B_eps(x, rho, eps: Fraction, n: int, depth: int = 30) -> bool:
    """x's approximation minimum exceeds (1 - eps) times rho's, at depth.

    By the convention of the containment lemma, rho with zero minimum makes
    the set all of R (always True).  Heuristic at the stated depth.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ExactError("eps must be in (0, 1)")
    mr = m_rho(rho, n, depth)
    if mr.value_mag.is_zero():
        return True
    mx = m_rho(x, n, depth)
    if mx.value_mag.is_zero():
        return False
    return mx.value_mag.compare(mr.value_mag.scale(1 - eps)) > 0


# ---------------------------------------------------------------------------
# digit-window construction


def construct_S_point(rho, eps: Fraction, N: int, h: int, eta: Fraction,
                      n: int, depth: int = 30) -> QuadraticReal:
    """Point sharing rho's first N-1 digits, with digit N in the admissible
    window and an all-ones tail; the window upper end uses conservative
    enclosures (tail value a_N in [alpha_N, alpha_N + 1], upper bound of
    the truncated minimum), keeping the containment property safe."""
    eps = Fraction(eps)
    eta = Fraction(eta)
    if not (0 < eps < 1):
        raise ExactError("eps must be in (0, 1)")
    if N < 1:
        raise ExactError("N must be >= 1")
    cf = expand(rho, N + 1, digit_limit=None)
    L = cf.finite_length()
    if L is not None and L < N:
        raise ExactError("expansion of the target ends before index N")
    alpha_N = cf.digit(N)
    if h < 1 or h > alpha_N:
        raise ExactError(f"need 1 <= h <= alpha_N = {alpha_N}")
    cv = convergents(cf, N - 1)
    q_prev = cv[N - 1].q
    mr = m_rho(rho, n, depth)
    cap_tail = (1 + eps) * alpha_N  # conservative lower end of (1+eps)*a_N
    if mr.value_mag.is_zero():
        upper = cap_tail
    else:
        m_hi = mr.value.hi
        upper = min((Fraction(q_prev) ** (n - 2) / m_hi + 1) / (1 - eps) - 1,
                    cap_tail)
    w = _mfloor(upper)
    if w < h:
        raise ExactError(
            f"empty digit window: [{h}, {float(upper):.6g}] at index {N}")
    digit = h  # smallest admissible
    prefix = cf.digits_upto(N - 1)
    return _assemble_ones(prefix, digit)


def _assemble_ones(prefix_digits: List[int], digit: int) -> QuadraticReal:
    from .cfengine import assemble
    a0 = prefix_digits[0]
    return assemble(a0, prefix_digits[1:] + [digit], [1])


# ---------------------------------------------------------------------------
# measure-of-cutting estimator


def cutting_density_estimate(prefix: Sequence[int], eta: Fraction,
                             samples: int, seed: int, a0: int = 0,
                             window: int = 10) -> Fraction:
    """Sampled proportion of the prefix cylinder whose next ``window``
    digits all satisfy alpha_(N+i+1) < Q_(N+i)^eta (exact power compares);
    deterministic for a fixed seed."""
    eta = Fraction(eta)
    if samples < 1:
        raise ExactError("need at least one sample")
    if eta <= 0:
        raise ExactError("eta must be positive")
    iv = cylinder_interval(a0, list(prefix))
    s, p = eta.denominator, eta.numerator
    N = len(prefix)
    hits = 0
    for j in range(samples):
        x = uniform_fraction(seed, j, iv)
        cf = expand(x, N + window + 1, digit_limit=None)
        L = cf.finite_length()
        top = min(N + window, L if L is not None else N + window)
        cv = convergents(cf, top)
        ok = True
        for i in range(N, top):
            alpha_next = cf.digit(i + 1)
            Q = cv[i].q
            if alpha_next ** s >= Q ** p:
                ok = False
                break
        hits += ok
    return Fraction(hits, samples)


# ---------------------------------------------------------------------------
# structural classification


def _value_digits(x, upto: int) -> List[int]:
    """Digits alpha_0 .. alpha_upto of x, fewer if the expansion ends."""
    cf = expand(x, upto, digit_limit=None)
    L = cf.finite_length()
    top = min(upto, L) if L is not None else upto
    return cf.digits_upto(top)


def _first_split(iv: RatInterval, upto: int = 200) -> Tuple[int, List[int]]:
    """Smallest digit index where the digit map is not constant on iv,
    and the digits shared strictly before it.  Exact: digit cylinders are
    intervals, so endpoint agreement forces interior agreement."""
    da = _value_digits(iv.lo, upto)
    db = _value_digits(iv.hi, upto)
    m = 0
    while m < len(da) and m < len(db) and da[m] == db[m]:
        m += 1
    # also right when one endpoint's expansion ended: digits split there
    return m, da[:m]


def _digit_range_on(iv: RatInterval, n0: int, shared: List[int]
                    ) -> Tuple[int, Optional[int]]:
    """Digit values taken by alpha_n0 on iv: (min, max) with max None for
    unbounded (the inner cylinder boundary point lies inside iv)."""
    da = _value_digits(iv.lo, n0)
    db = _value_digits(iv.hi, n0)
    va = da[n0] if len(da) > n0 else None
    vb = db[n0] if len(db) > n0 else None
    if shared:
        boundary = cf_value(shared[0], shared[1:])
    else:
        boundary = None
    vals = [v for v in (va, vb) if v is not None]
    if boundary is not None and iv.lo < boundary < iv.hi:
        return (min(vals) if vals else 1), None
    if va is None or vb is None:
        return (min(vals) if vals else 1), None
    return min(va, vb), max(va, vb)


def _window_subinterval(shared: List[int], lo_digit: int, hi_digit: int,
                        iv: RatInterval) -> Optional[RatInterval]:
    """The union of the digit cylinders [lo_digit .. hi_digit] after the
    shared prefix, intersected with iv."""
    a0 = shared[0] if shared else 0
    rest = shared[1:] if shared else []
    z1 = cf_value(a0, rest + [lo_digit])
    z2 = cf_value(a0, rest + [hi_digit + 1])
    sub = RatInterval(min(z1, z2), max(z1, z2))
    return sub.intersect(iv)


def structural_classify(rho, iv: RatInterval, params: DiophParams, n: int,
                        samples: int = 40, seed: int = 0) -> ClassifiedInterval:
    """Classify an interval around rho as Type I (already dense with
    members of both membership sets) or Type II (a digit-window subinterval
    containing rho has higher concentration).

    The split index and digit ranges are exact (cylinder endpoints); the
    density estimate is sampled membership of both sets at the configured
    depth and height.
    """
    if not (_cmp_point(rho, iv.lo) >= 0 and _cmp_point(rho, iv.hi) <= 0):
        raise ExactError("the reference value must lie in the interval")
    if iv.width == 0:
        raise ExactError("interval must have positive length")
    # conclusion 1 first: an interval dense with members is Type I even
    # when a digit-window subinterval exists
    dens, cnt = _member_density(rho, iv, params, n, samples, seed)
    if dens >= 1 - params.tau1:
        n0, _ = _first_split(iv)
        return ClassifiedInterval(iv, "TypeI", None, dens, cnt,
                                  split_index=n0)
    n0, shared = _first_split(iv)
    lo_d, hi_d = _digit_range_on(iv, n0, shared)
    rho_digits = _value_digits(rho, n0 + 1)
    alpha_n0 = rho_digits[n0] if len(rho_digits) > n0 else lo_d
    if hi_d is None or hi_d - lo_d >= 2:
        # three or more digit values: digit-window subinterval
        sub = _case_window(rho, shared, n0, lo_d, hi_d, params, n)
        sub = sub.intersect(iv) if sub is not None else None
        if sub is None or sub.width == 0:
            sub = iv
        sdens, scnt = _member_density(rho, sub, params, n, samples, seed)
        ratio = (sub.width / iv.width) / (params.tau1 * params.epsilon)
        return ClassifiedInterval(iv, "TypeII", sub, sdens, scnt,
                                  c_estimate=ratio, split_index=n0)
    # exactly two digit values {k, k+1}
    s_val = rho_digits[n0 + 1] if len(rho_digits) > n0 + 1 else 1
    other = lo_d if alpha_n0 != lo_d else hi_d
    u = _minimal_tail_digit(shared, other, iv)
    if u is not None and Fraction(s_val, u) + 1 >= 2 / params.tau1:
        # the opposite-digit side is a negligible sliver: many points
        return ClassifiedInterval(iv, "TypeI", None, dens, cnt,
                                  split_index=n0)
    # denser subinterval inside the cylinder containing the reference value
    sub = _case_window(rho, shared + [alpha_n0], n0 + 1, s_val, None,
                       params, n)
    sub = sub.intersect(iv) if sub is not None else None
    if sub is None or sub.width == 0:
        sub = iv
    sdens, scnt = _member_density(rho, sub, params, n, samples, seed)
    ratio = (sub.width / iv.width) / (params.tau1 * params.epsilon)
    return ClassifiedInterval(iv, "TypeII", sub, sdens, scnt,
                              c_estimate=ratio, split_index=n0)


def _cmp_point(rho, q: Fraction) -> int:
    return compare_scalars(rho, q)


def _case_window(rho, shared: List[int], n0: int, h: int, hi_d: Optional[int],
                 params: DiophParams, n: int) -> Optional[RatInterval]:
    """Digit-window subinterval at index n0 following the shared prefix."""
    rho_digits = _value_digits(rho, n0)
    alpha = rho_digits[n0] if len(rho_digits) > n0 else h
    cv_q = 1
    if shared:
        qq, qp = 1, 0
        for d in shared[1:]:
            qq, qp = d * qq + qp, qq
        cv_q = qq
    mr = m_rho(rho, n, params.depth)
    if mr.value_mag.is_zero():
        upper = (1 + params.epsilon) * alpha
    else:
        m_hi = mr.value.hi
        upper = min((Fraction(cv_q) ** (n - 2) / m_hi + 1)
                    / (1 - params.epsilon) - 1,
                    (1 + params.epsilon) * alpha)
    w = max(_mfloor(upper), alpha)
    if hi_d is not None:
        w = min(w, hi_d)
    if not shared:
        # window on the integer part is just the enclosing unit interval
        return RatInterval(Fraction(alpha), Fraction(alpha + 1))
    return _window_subinterval(shared, h, w, RatInterval(
        Fraction(-10 ** 9), Fraction(10 ** 9)))


def _minimal_tail_digit(shared: List[int], other_digit: int,
                        iv: RatInterval, cap: int = 1 << 40) -> Optional[int]:
    """Minimal u with the cylinder [shared, other_digit, 1, >=u] inside iv."""
    a0 = shared[0] if shared else 0
    rest = (shared[1:] if shared else []) + [other_digit, 1]
    limit = cf_value(a0, rest)

    def subset(u: int) -> bool:
        z = cf_value(a0, rest + [u])
        lo, hi = (z, limit) if z <= limit else (limit, z)
        return iv.lo <= lo and hi <= iv.hi

    if not (iv.lo <= limit <= iv.hi):
        return None
    u = 1
    while u <= cap and not subset(u):
        u *= 2
    if u > cap:
        return None
    lo, hi = max(1, u // 2), u
    while lo < hi:
        mid = (lo + hi) // 2
        if subset(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _min_above(x, n: int, depth: int, thresh, boundary_scan: int = 50) -> bool:
    """True iff the depth-truncated approximation minimum of x exceeds
    ``thresh`` (a Mag); streams convergents and aborts on the first
    counterexample, so failures are detected early and exactly."""
    cf = expand(x, 0, digit_limit=None)
    p_prev, q_prev = 1, 0
    p, q = cf.a0, 1
    k = 0
    while True:
        if _approx_mag(x, p, q, n).compare(thresh) <= 0:
            return False
        if k >= depth or not cf.has_digit(k + 1):
            break
        a = cf.digit(k + 1)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        k += 1
    for Y in range(1, min(boundary_scan, q) + 1):
        X = _nearest_int(x, Y)
        for XX in (X - 1, X, X + 1):
            if _approx_mag(x, XX, Y, n).compare(thresh) <= 0:
                return False
    return True


def _membership_threshold(rho, params: DiophParams, n: int):
    mr = m_rho(rho, n, params.depth)
    if mr.value_mag.is_zero():
        return None
    return mr.value_mag.scale(1 - params.epsilon)


def _passes_membership(x, rho, params: DiophParams, n: int, thresh) -> bool:
    if thresh is not None and not _min_above(x, n, params.depth, thresh):
        return False
    return in_E_eta(x, rho, params.eta, params.height)


def _member_density(rho, iv: RatInterval, params: DiophParams, n: int,
                    samples: int, seed: int) -> Tuple[Fraction, int]:
    thresh = _membership_threshold(rho, params, n)
    hits = 0
    for j in range(samples):
        x = uniform_fraction(seed, j, iv)
        hits += _passes_membership(x, rho, params, n, thresh)
    return Fraction(hits, samples), samples


# ---------------------------------------------------------------------------
# the iterative refinement search


def ael_search(f: BinaryForm, eps: Fraction, params: DiophParams,
               seed: int = 0, budget: int = 10 ** 4,
               samples: int = 24, verify_form_min: bool = True) -> AelWitness:
    """Search for a near-identity shear whose transported roots pass both
    membership tests for every real root of the form.

    The interval around the largest root is transported to each root (the
    canonical one-parameter family through the identity is translation, so
    transport is an exact shift), classified, and shrunk on Type II; then
    candidate rational shifts are sampled from the final interval and
    verified.  Raises :class:`BudgetExhausted` with the classification
    trace when no witness is found within ``budget`` steps.
    """
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise ExactError("eps must be in (0, 1]")
    roots = f.real_root_values()
    if not roots:
        raise ExactError("form has no real roots")
    n = f.degree
    rho1 = roots[0]
    spent = 0
    trace: List[ClassifiedInterval] = []
    # canonical enclosures of the roots and their shifts from rho_1, so a
    # repeated run in one process reproduces the identical search
    bits = 70
    r1 = canonical_enclosure(rho1, bits)
    encs = [canonical_enclosure(v, bits) for v in roots]
    shifts = [RatInterval(e.lo - r1.hi, e.hi - r1.lo) for e in encs]
    gap = min((abs(encs[i].mid - r1.mid) for i in range(1, len(roots))),
              default=Fraction(1))
    delta = min(Fraction(eps) / 4, gap / 4, Fraction(1, 8))
    iv = RatInterval(r1.mid - delta, r1.mid + delta)
    ledger = set()
    max_passes = 3 * (len(roots) + 1)
    for _pass in range(max_passes):
        spent += 1
        if spent > budget:
            raise BudgetExhausted("budget exhausted during classification",
                                  trace)
        progressed = False
        for i, v in enumerate(roots):
            if i in ledger:
                continue
            pad = shifts[i].width
            ji = RatInterval(iv.lo + shifts[i].lo - pad,
                             iv.hi + shifts[i].hi + pad)
            cls = structural_classify(v, ji, params, n,
                                      samples=max(8, samples // 2),
                                      seed=_mix64(seed ^ (7919 * (spent + i))))
            trace.append(cls)
            if cls.kind == "TypeII" and cls.subinterval is not None:
                sub = cls.subinterval
                back = RatInterval(sub.lo - shifts[i].hi - pad,
                                   sub.hi - shifts[i].lo + pad)
                nxt = back.intersect(iv)
                if nxt is not None and nxt.width > 0 \
                        and _cmp_point(rho1, nxt.lo) > 0 \
                        and _cmp_point(rho1, nxt.hi) < 0:
                    iv = nxt
                ledger.add(i)
                progressed = True
                break
        else:
            break
        if not progressed:
            break
        if len(ledger) == len(roots):
            break
    # candidate rational shifts from iv - rho1 (inward-safe), tried from
    # coarse to fine: a dyadic magnitude ladder interleaved with seeded
    # uniform samples; small shifts share long digit prefixes with the
    # roots and pass the truncated membership tests, so the stream always
    # terminates well inside any reasonable budget
    lo = iv.lo - r1.lo
    hi = iv.hi - r1.hi
    if lo >= hi:
        lo, hi = -delta / 2, delta / 2
    sview = RatInterval(lo, hi)
    mbase = m_estimate(f, depth=params.depth, certify=False) \
        if verify_form_min else None
    reach = min(-lo, hi)

    def candidates():
        j = 0
        u = 1
        while True:
            yield uniform_fraction(seed, 1_000_000 + j, sview)
            j += 1
            step = reach / (1 << u)
            if step > 0:
                yield step if u % 2 else -step
                yield -step if u % 2 else step
            u += 1

    tested = 0
    stream = candidates()
    threshes = [_membership_threshold(v, params, n) for v in roots]
    while spent < budget:
        s = next(stream)
        spent += 1
        tested += 1
        if s == 0 or not (lo < s < hi):
            continue
        moved = [_shift_value(v, s) for v in roots]
        ok = True
        for v, x, thresh in zip(roots, moved, threshes):
            if thresh is not None and not _min_above(x, n, params.depth, thresh):
                ok = False
                break
            if not in_E_eta(x, v, params.eta, params.height):
                ok = False
                break
        if not ok:
            continue
        T = Transform.shear(s)
        if abs(s) >= eps:
            continue
        if mbase is not None and f.is_rational():
            from .forms import act
            moved_min = m_estimate(act(f, T), depth=params.depth,
                                   certify=False)
            lhs = moved_min.value
            rhs = mbase.value.scale(1 - eps)
            if lhs.compare(rhs) < 0:
                continue
        bounds = [m_rho(x, n, params.depth).value for x in moved]
        return AelWitness(T, eps, bounds, trace, shift=s,
                          candidates_tested=tested)
    raise BudgetExhausted("budget exhausted while sampling candidates", trace)


def _shift_value(v, s: Fraction):
    if isinstance(v, Fraction):
        return v + s
    if isinstance(v, int):
        return Fraction(v) + s
    if isinstance(v, AlgebraicReal):
        return v.shift(s)
    return v + s
