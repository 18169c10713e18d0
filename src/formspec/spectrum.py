"""Spectrum-filling constructions: perturbation families of extremal cubic
forms, diagonal sweeps over the interval ending at the convergent ratio,
Markoff triple enumeration, and near-identity transforms fixing the
largest root with a prescribed product constraint.

Diagonal action convention: for theta > 0 the unimodular diagonal matrix
with entries sqrt(theta), 1/sqrt(theta) sends each root rho to theta*rho
and scales values by theta^(-n/2); magnitudes of diagonally composed forms
are exposed as exact :class:`Mag` objects (rational times a square root),
never as coefficient expansions involving sqrt(theta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .cfengine import convergents, expand
from .exactcore import (
    AlgebraicReal,
    ExactError,
    FieldElement,
    IntPolynomial,
    NumberField,
    QuadraticReal,
    RatInterval,
    _decide,
    _eval_frac_interval,
    _solve,
    isolate_real_roots,
    same_value,
    sqrt_interval,
)
from .forms import (
    BinaryForm,
    Mag,
    ProductForm,
    Transform,
    act,
    real_roots,
    scalar_enclosure,
    scalar_is_rational,
    scalar_as_fraction,
    sqrt_exact,
)
from .minima import MinResult, m_estimate
from .diophsets import uniform_fraction

SWEEP_BOX = 60


# ---------------------------------------------------------------------------
# perturbation families


def _mordell_negative_field() -> Tuple[NumberField, FieldElement]:
    """Q(r) for the real root r of x^3 - x - 1 (discriminant -23)."""
    p = IntPolynomial([-1, -1, 0, 1])
    root = isolate_real_roots(p)[0]
    K = NumberField(root)
    return K, K.generator()


def neg_disc_family(t: Fraction) -> BinaryForm:
    """The one-parameter dominating family attached to the negative-
    discriminant extremal cubic: (x - r y) ((x + r/2 y)^2 + (3/4 r^2 - 1)
    (1 + t^2) y^2) with r the real root of x^3 - x - 1.

    At t = 0 the coefficients collapse to the rational extremal form
    x^3 - x y^2 - y^3; for t > 0 they live in Q(r) and the returned form
    keeps its factorization for exact magnitude evaluation.
    """
    t = Fraction(t)
    if t < 0:
        raise ExactError("parameter must be >= 0")
    K, g = _mordell_negative_field()
    s = 1 + t * t
    quad = (K.rational(1), g,
            g * g * Fraction(1, 4) + (g * g * Fraction(3, 4) - 1) * s)
    pf = ProductForm(Fraction(1), [g], [quad])
    return pf.as_binary_form()


def _mordell_positive_field() -> Tuple[NumberField, FieldElement, FieldElement, FieldElement]:
    """Q(rho) for the largest root rho of x^3 + x^2 - 2x - 1 (disc 49),
    with the conjugate roots chi = rho^2 - 2 and psi = 1 - rho - rho^2
    expressed exactly in the field (verified by evaluation)."""
    p = IntPolynomial([-1, -2, 1, 1])
    root = isolate_real_roots(p)[-1]
    K = NumberField(root)
    g = K.generator()
    chi = g * g - 2
    psi = K.rational(1) - g - g * g
    for w in (chi, psi):
        if not (w ** 3 + w * w - 2 * w - 1).is_zero():
            raise ExactError("conjugate root identities failed to verify")
    return K, g, chi, psi


def pos_disc_family(c: Fraction, N: int) -> Tuple[ProductForm, QuadraticReal]:
    """Totally real cubics with one root rebuilt from a digit prefix of the
    extremal root plus one large digit and an all-ones tail.

    Returns (form, rebuilt_root).  The inserted digit is the exact floor
    of c * (rho - chi)(rho - psi) * Q_N, computed in the field; the other
    two roots are kept exactly, so the form has mixed-algebraic
    coefficients and is returned in factored shape.
    """
    c = Fraction(c)
    if c < 1:
        raise ExactError("c must be >= 1")
    if N < 2:
        raise ExactError("N must be >= 2")
    K, g, chi, psi = _mordell_positive_field()
    rho = K.gen
    cf = expand(rho, N, digit_limit=None)
    digits = cf.digits_upto(N)
    QN = convergents(cf, N)[N].q
    # (rho - chi)(rho - psi) is the derivative of the cubic at rho
    gap_prod = 3 * g * g + 2 * g - 2
    big = (gap_prod * (c * QN)).floor()
    rebuilt = _assemble_digits(digits, big)
    pf = ProductForm(Fraction(1), [rebuilt, chi, psi])
    return pf, rebuilt


def _assemble_digits(prefix: List[int], extra: int) -> QuadraticReal:
    from .cfengine import assemble
    return assemble(prefix[0], prefix[1:] + [extra], [1])


# ---------------------------------------------------------------------------
# diagonal machinery


def diagonal_form(f: BinaryForm, theta: Fraction,
                  base_roots: Optional[Sequence] = None
                  ) -> Union[BinaryForm, ProductForm]:
    """Coefficient form with roots theta * rho_i; the theta^(-n/2)
    prefactor of the unimodular diagonal action is NOT included (track it
    with :func:`diagonal_prefactor`).  Passing ``base_roots`` (the roots
    of ``f``) lets repeated sweep samples skip re-isolating roots."""
    theta = Fraction(theta)
    if theta <= 0:
        raise ExactError("theta must be positive")
    if isinstance(f, ProductForm):
        return f.diagonal_scaled(theta)
    n = f.degree
    coeffs = [ci * theta ** (n - i) for i, ci in enumerate(f.coeffs)]
    backing = f.factors.diagonal_scaled(theta) if f.factors is not None else None
    g = BinaryForm(n, coeffs, factors=backing)
    if backing is None and base_roots is not None:
        g.with_known_roots([_scale_scalar(v, theta) for v in base_roots])
    return g


def _scale_scalar(v, theta: Fraction):
    if isinstance(v, Fraction):
        return v * theta
    if isinstance(v, AlgebraicReal):
        return v.scale_by(theta)
    return v * theta


def diagonal_prefactor(theta: Fraction, n: int) -> Mag:
    """theta^(-n/2) as an exact magnitude."""
    theta = Fraction(theta)
    v = theta ** (-n)
    r = sqrt_exact(v)
    if r is not None:
        return Mag(r)
    return Mag(Fraction(1), (), rad=v)


@dataclass
class DiagonalInterval:
    """Sweep interval data: enclosure of the left solve point, enclosure of
    the right endpoint (the convergent ratio over the largest root), the
    convergent pair used, and the minimum target."""

    theta_n: RatInterval
    right_end: RatInterval
    p_n: int
    q_n: int
    target: Mag
    degree: int


def diagonal_interval(f: Union[BinaryForm, ProductForm], N: int,
                      depth: Optional[int] = None,
                      box: int = SWEEP_BOX) -> DiagonalInterval:
    """Solve for the sweep interval: its right end is where the scaled
    form vanishes at the convergent pair; theta_n is the nearest point on
    the left where the magnitude at that pair returns to the form minimum.
    """
    depth = depth if depth is not None else N + 8
    n = f.degree
    roots = f.real_root_values()
    if not roots:
        raise ExactError("form has no real roots")
    rho1 = roots[0]
    from .forms import scalar_sign
    if scalar_sign(rho1) <= 0:
        raise ExactError("largest real root must be positive")
    cf = expand(rho1, N, digit_limit=None)
    cv = convergents(cf, N)
    PN, QN = cv[N].p, cv[N].q
    base = m_estimate(f, box=box, depth=depth, certify=False)
    target = base.value

    def mag_at(theta: Fraction) -> Mag:
        g = diagonal_form(f, theta)
        return g.abs_at(PN, QN).times(diagonal_prefactor(theta, n))

    # right end P_N / (rho1 Q_N) as a canonical exact enclosure
    from .diophsets import canonical_enclosure
    bits = (QN ** (n + 2)).bit_length() + 8
    while True:
        e = canonical_enclosure(rho1, bits)
        if e.lo > 0:
            renc = RatInterval(Fraction(PN) / (QN * e.hi),
                               Fraction(PN) / (QN * e.lo))
            if renc.width < Fraction(1, QN ** (n + 2)):
                break
        bits += 16
    # bracket leftward until the magnitude exceeds the target
    theta_hi = renc.lo
    step = Fraction(1, QN ** n)
    theta_lo = theta_hi - step
    tries = 0
    while theta_lo > 0 and mag_at(theta_lo).compare(target) < 0:
        step *= 2
        theta_lo = theta_hi - step
        tries += 1
        if tries > 80 or theta_lo <= renc.lo / 2:
            raise ExactError("minimum target unreachable on the left bracket")
    # bisect the crossing
    for _ in range(40):
        mid = (theta_lo + theta_hi) / 2
        if mag_at(mid).compare(target) >= 0:
            theta_lo = mid
        else:
            theta_hi = mid
    return DiagonalInterval(RatInterval(theta_lo, theta_hi), renc,
                            PN, QN, target, n)


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepConfig:
    form: BinaryForm
    N: int
    theta_samples: int
    depth: int = 0  # 0: use N + 8
    seed: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ExactError("N must be >= 2")
        if self.theta_samples < 1:
            raise ExactError("need at least one sample")


@dataclass
class SweepPoint:
    theta: Fraction
    min_result: MinResult
    case: str
    spec_value: RatInterval
    spec_mag: Mag = field(repr=False, default=None)


CASE1 = "Case1_convergent"
CASE2 = "Case2_deep"
CASE3 = "Case3_shallow"
CASE4 = "Case4_crossroot"
UNCLASSIFIED = "Unclassified"


def _coeff_scale(f: BinaryForm) -> Fraction:
    best = Fraction(1)
    for c in f.coeffs:
        e = scalar_enclosure(c, Fraction(1, 2 ** 20)).abs()
        best = max(best, e.hi)
    return best


def _dist_below(enclose, target: Fraction, bound: Fraction):
    """Probe for ``_decide``: whether every point of the enclosure
    ``enclose(w)`` lies within ``bound`` of ``target`` (True), none does
    (False), or neither is known yet (None, also when ``enclose`` gives
    None)."""
    def probe(w):
        e = enclose(w)
        if e is None:
            return None
        d_lo = max(Fraction(0), max(e.lo - target, target - e.hi))
        d_hi = max(abs(e.lo - target), abs(e.hi - target))
        if d_hi < bound:
            return True
        if d_lo >= bound:
            return False
        return None
    return probe


def _lt_dist(value, target: Fraction, bound: Fraction, tries: int = 30) -> bool:
    """|value - target| < bound with value an exact scalar (refined
    enclosures; borderline undecided counts as False)."""
    probe = _dist_below(lambda w: scalar_enclosure(value, w), target, bound)
    return bool(_decide(probe, Fraction(1, 2 ** 30), 2 ** 8, tries))


def classify_sweep_point(f: BinaryForm, theta: Fraction, res: MinResult,
                         di: DiagonalInterval, roots: Sequence,
                         mhat: Fraction) -> str:
    """Assign the attaining vector to one of the sweep cases; borderline
    samples stay unclassified."""
    x_c, y_c = res.attaining
    PN, QN, n = di.p_n, di.q_n, f.degree
    if (x_c, y_c) == (PN, QN) or (-x_c, -y_c) == (PN, QN):
        return CASE1
    if y_c <= 0:
        return UNCLASSIFIED
    t = Fraction(x_c, y_c)
    num, den = mhat.numerator, mhat.denominator
    # Case 2: y_c > Q_N^(5/4) / mhat  <=>  (mhat y_c)^4 > Q_N^5
    if (num * y_c) ** 4 > (den ** 4) * QN ** 5:
        for v in roots:
            if _lt_dist(_scale_scalar(v, theta), t, mhat / y_c ** n):
                return CASE2
    # Case 3: y_c < mhat Q_N^(5/7)  <=>  (den y_c)^7 < num^7 Q_N^5
    if (den * y_c) ** 7 < num ** 7 * QN ** 5:
        for v in roots:
            # |t - rho_i| < mhat / y_c^(14/5): compare via 5th powers
            if _lt_dist_pow(v, t, mhat, y_c):
                return CASE3
    # Case 4: y_c < mhat Q_N^(5/4) and t near (rho_i / rho_1) P_N/Q_N
    if (den * y_c) ** 4 < num ** 4 * QN ** 5:
        rho1 = roots[0]
        for v in roots[1:]:
            if _lt_dist_ratio(v, rho1, Fraction(PN, QN), t,
                              mhat / _frac_pow_54(y_c * QN)):
                return CASE4
    return UNCLASSIFIED


def _lt_dist_pow(v, t: Fraction, mhat: Fraction, y_c: int) -> bool:
    # |t - v| < mhat / y_c^(14/5): (|t - v| y_c^(14/5))^5 < mhat^5
    w = Fraction(1, 2 ** 40)
    e = scalar_enclosure(v, w)
    d_hi = max(abs(e.lo - t), abs(e.hi - t))
    return d_hi ** 5 * Fraction(y_c) ** 14 < mhat ** 5


def _frac_pow_54(m: int) -> Fraction:
    # rational upper bound of m^(5/4)
    from .exactcore import _int_nth_root
    r = _int_nth_root(m ** 5, 4)
    return Fraction(r + 1)


def _lt_dist_ratio(v, rho1, scalefrac: Fraction, t: Fraction,
                   bound: Fraction, tries: int = 16) -> bool:
    """|t - (v / rho1) * scalefrac| < bound via refined enclosures."""
    def ratio(w):
        ev = scalar_enclosure(v, w)
        er = scalar_enclosure(rho1, w)
        if er.lo <= 0 <= er.hi:
            return None
        cands = (ev.lo / er.lo, ev.lo / er.hi, ev.hi / er.lo, ev.hi / er.hi)
        return RatInterval(min(cands), max(cands)).scale(scalefrac)
    probe = _dist_below(ratio, t, bound)
    return bool(_decide(probe, Fraction(1, 2 ** 40), 2 ** 8, tries))


def _dyadic_window(window: RatInterval) -> Tuple[RatInterval, int]:
    """Round the window inward to dyadic endpoints: samples drawn from it
    then have small power-of-two denominators, keeping all downstream
    integer models compact."""
    if window.width <= 0:
        raise ExactError("empty sweep window")
    bits = (window.width.denominator // max(window.width.numerator, 1)
            ).bit_length() + 24
    scale = 1 << bits
    lo = Fraction(-((-window.lo * scale).__floor__()), scale)  # ceil
    hi = Fraction((window.hi * scale).__floor__(), scale)
    if lo >= hi:
        return window, 0
    return RatInterval(lo, hi), bits


def _dyadic_sample(seed: int, j: int, window: RatInterval, bits: int) -> Fraction:
    x = uniform_fraction(seed, j, window)
    if bits <= 0:
        return x
    scale = 1 << (bits + 30)
    r = Fraction((x * scale).__floor__(), scale)
    return min(max(r, window.lo), window.hi)


def sweep(config: SweepConfig) -> Tuple[List[SweepPoint], dict]:
    """Sample the sweep interval, compute each sample's minimum and
    classify its attaining vector; summarizes the convergent-case fraction
    and the spread of attained normalized values."""
    f = config.form
    n = f.degree
    depth = config.depth if config.depth else config.N + 8
    di = diagonal_interval(f, config.N, depth=depth)
    roots = f.real_root_values()
    mhat = 2 * _coeff_scale(f) if isinstance(f, BinaryForm) else Fraction(2)
    window, bits = _dyadic_window(RatInterval(di.theta_n.hi, di.right_end.lo))
    points: List[SweepPoint] = []
    for j in range(config.theta_samples):
        theta = _dyadic_sample(config.seed, j, window, bits)
        g = diagonal_form(f, theta, base_roots=roots)
        res = m_estimate(g, box=SWEEP_BOX, depth=depth, certify=False)
        pref = diagonal_prefactor(theta, n)
        smag = res.value.times(pref)
        case = classify_sweep_point(f, theta, res, di, roots, mhat)
        points.append(SweepPoint(theta, res, case,
                                 smag.enclosure(Fraction(1, 2 ** 40)), smag))
    case1 = [pt for pt in points if pt.case == CASE1]
    frac = Fraction(len(case1), len(points))
    values = sorted((pt.spec_value for pt in case1), key=lambda iv: iv.mid)
    max_gap = Fraction(0)
    covered = Fraction(0)
    t_hi = di.target.enclosure(Fraction(1, 2 ** 30)).hi
    gap_tol = t_hi * Fraction(5, 100)
    for a, b in zip(values, values[1:]):
        gap = max(Fraction(0), b.hi - a.lo)  # certified upper bound
        max_gap = max(max_gap, gap)
        if gap <= gap_tol:
            covered += gap
    summary = {
        "samples": len(points),
        "case1_fraction": frac,
        "cases": {c: sum(1 for p in points if p.case == c)
                  for c in (CASE1, CASE2, CASE3, CASE4, UNCLASSIFIED)},
        "max_case1_gap": max_gap,
        "covered_measure": covered,
        "value_min": min((v.lo for v in values), default=Fraction(0)),
        "value_max": max((v.hi for v in values), default=Fraction(0)),
        "target": di.target.enclosure(Fraction(1, 2 ** 30)),
    }
    return points, summary


# ---------------------------------------------------------------------------
# Markoff spectrum anchors


@dataclass(frozen=True)
class MarkoffTriple:
    x: int
    y: int
    z: int

    def __post_init__(self):
        if not (0 < self.x <= self.y <= self.z):
            raise ExactError("need 0 < x <= y <= z")
        if self.x ** 2 + self.y ** 2 + self.z ** 2 != 3 * self.x * self.y * self.z:
            raise ExactError("not a Markoff triple")

    def value(self) -> QuadraticReal:
        """The spectrum point z / sqrt(9 z^2 - 4)."""
        m = self.z
        d = 9 * m * m - 4
        return QuadraticReal(0, m, d, d)


def markoff_triples(bound: int) -> List[MarkoffTriple]:
    """All Markoff triples with maximum <= bound, by the Vieta tree from
    (1, 1, 1); sorted by (z, y, x)."""
    if bound < 1:
        raise ExactError("bound must be >= 1")
    seen = set()
    out = []
    stack = [(1, 1, 1)]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        out.append(t)
        x, y, z = t
        for nxt in ((x, y, 3 * x * y - z), (x, z, 3 * x * z - y),
                    (y, z, 3 * y * z - x)):
            s = tuple(sorted(nxt))
            if s[0] >= 1 and s[2] <= bound and s not in seen:
                stack.append(s)
    out = [t for t in out if t[2] <= bound]
    out.sort(key=lambda t: (t[2], t[1], t[0]))
    return [MarkoffTriple(*t) for t in out]


def freiman_constant() -> QuadraticReal:
    """Endpoint of the maximal full ray of the Markoff spectrum, as the
    exact inverse of (2221564096 + 283748 sqrt(462)) / 491993569."""
    return QuadraticReal(2221564096, 283748, 462, 491993569).inverse()


# ---------------------------------------------------------------------------
# fixed-root curve solve


@dataclass
class SigmaResult:
    transform: Transform
    residual: RatInterval
    distance_to_identity: RatInterval
    iterations: int


def _roots_in_primary_field(f: BinaryForm):
    """(field, [roots as FieldElements, largest first]) or None."""
    if f.factors is not None:
        vals = f.factors.real_root_values()
        fe = [v for v in vals if isinstance(v, FieldElement)]
        if len(fe) == len(vals) and fe and all(v.field == fe[0].field for v in fe):
            return fe[0].field, vals
        return None
    profile = real_roots(f)
    roots = profile.real_roots
    if not roots:
        return None
    rho1 = roots[0]
    if rho1.is_rational():
        return None
    K = NumberField(rho1)
    g = K.generator()
    # divide P(z,1) by (z - rho1) over the field and solve the quotient
    coeffs = [K.rational(scalar_as_fraction(c)) for c in f.coeffs]
    high_to_low = list(reversed(coeffs))
    quot_hl = [high_to_low[0]]
    for c in high_to_low[1:-1]:
        quot_hl.append(quot_hl[-1] * g + c)
    quot_poly = list(reversed(quot_hl))  # degree-indexed
    others: List[FieldElement] = []
    if len(quot_poly) - 1 == 1:
        b, a = quot_poly[0], quot_poly[1]
        others = [-(b / a)]
    elif len(quot_poly) - 1 == 2:
        cc, bb, aa = quot_poly
        disc = bb * bb - 4 * aa * cc
        s = _field_sqrt(disc)
        if s is None:
            return None
        others = [(-bb + s) / (2 * aa), (-bb - s) / (2 * aa)]
    else:
        return None
    vals = [g] + others
    # keep only the real roots actually present, sorted to match profile
    matched = []
    for ar in roots:
        hit = None
        for w in vals:
            if same_value(w.as_algebraic(), ar):
                hit = w
                break
        if hit is None:
            return None
        matched.append(hit)
    return K, matched


def _field_sqrt(D: FieldElement) -> Optional[FieldElement]:
    """Exact square root of D in its cubic field, when the field is
    totally real: recover candidate rational coordinates from the three
    real embeddings and verify s*s = D exactly (guess-and-verify; the
    verification is the soundness guarantee)."""
    K = D.field
    p = K.gen.minpoly
    embeddings = isolate_real_roots(p)
    if len(embeddings) != p.degree or p.degree != 3:
        return None
    w = Fraction(1, 2 ** 120)
    xs = [e.enclosure(w).mid for e in embeddings]
    imgs = []
    for e in embeddings:
        iv = _eval_frac_interval(list(D.coords), e.enclosure(w))
        if iv.hi < 0:
            return None  # a negative image: no square root in the field
        imgs.append(max(iv.mid, Fraction(0)))
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
        ys = [sg * sqrt_interval(v, Fraction(1, 2 ** 100)).mid
              for sg, v in zip(signs, imgs)]
        coords = _solve([[x ** j for j in range(len(xs))] for x in xs], ys)
        if coords is None:
            continue
        coords = [_round_frac(c, 48) for c in coords]
        s = K.element(coords)
        if (s * s - D).is_zero():
            return s
    return None


def _round_frac(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(round(x * scale), scale)


def _stabilizer(K: NumberField, g: FieldElement, gamma: FieldElement,
                delta: FieldElement) -> Tuple[FieldElement, FieldElement]:
    """alpha, beta of the determinant-one matrix fixing g with lower row
    (gamma, delta)."""
    den = delta + gamma * g
    alpha = (K.rational(1) + gamma * g * (gamma * g + delta)) / den
    beta = gamma * g * g + (delta - alpha) * g
    return alpha, beta


def sigma_solve(f: BinaryForm, N: int, theta: Fraction, u,
                guard: Fraction = Fraction(1, 2),
                residual_tol: Fraction = Fraction(1, 10 ** 12),
                max_iter: int = 60) -> SigmaResult:
    """Find T with T(rho1) = rho1 exactly, ||T - id|| < 1, and
    prod_{i>=2} (P_N/Q_N - theta T(rho_i)) = u to within ``residual_tol``.

    The solve runs in the two-parameter determinant-one stabilizer of the
    largest root, along the one-dimensional section delta = 1, by a damped
    Newton iteration with rational-rounded field coordinates.  Requires
    the real roots to lie in the field of the largest root (automatic for
    totally real cubics with square discriminant).
    """
    theta = Fraction(theta)
    got = _roots_in_primary_field(f)
    if got is None:
        raise ExactError("roots are not expressible over the largest root's "
                         "field; the curve solve needs a shared field")
    K, roots = got
    if len(roots) < 2:
        raise ExactError("need at least two real roots")
    g = roots[0]
    cf = expand(K.gen, N, digit_limit=None)
    cv = convergents(cf, N)
    A = Fraction(cv[N].p, cv[N].q)
    center = K.rational(1)
    for w in roots[1:]:
        center = center * (K.rational(A) - w * theta)
    u_el = K.rational(u) if isinstance(u, (int, Fraction)) else u
    if not isinstance(u_el, FieldElement) or u_el.field != K:
        raise ExactError("u must be rational or live in the root field")
    # guard: anchored at the root-gap product, per the curve's definition
    anchor = K.rational(1)
    for w in roots[1:]:
        anchor = anchor * (g - w)
    dev = (u_el - anchor).abs()
    if dev.enclosure(Fraction(1, 2 ** 20)).lo > guard:
        raise ExactError("u is out of the guarded window around the "
                         "root-gap product")

    if (u_el - center).is_zero():
        ident = Transform.identity()
        return SigmaResult(ident, RatInterval(Fraction(0), Fraction(0)),
                           RatInterval(Fraction(0), Fraction(0)), 0)

    def value(gamma: FieldElement) -> FieldElement:
        alpha, beta = _stabilizer(K, g, gamma, K.rational(1))
        prod = K.rational(1)
        for w in roots[1:]:
            tw = (alpha * w + beta) / (gamma * w + 1)
            prod = prod * (K.rational(A) - tw * theta)
        return prod - u_el

    gamma = K.rational(0)
    h = K.rational(Fraction(1, 2 ** 20))
    res = value(gamma)
    it = 0
    while it < max_iter:
        it += 1
        r_abs = res.abs().enclosure(residual_tol / 4)
        if r_abs.hi <= residual_tol:
            break
        deriv = (value(gamma + h) - res) / h
        if deriv.is_zero():
            raise ExactError("degenerate derivative in the curve solve")
        step = res / deriv
        gamma = gamma - step
        gamma = K.element([_round_frac(c, 200) for c in gamma.coords])
        res = value(gamma)
        # refresh the finite-difference scale as the residual shrinks
        h = K.rational(max(Fraction(1, 2 ** 60), r_abs.hi / 2 ** 10))
    r_abs = res.abs().enclosure(residual_tol / 4)
    if r_abs.hi > residual_tol:
        raise ExactError(f"no solution within tolerance: residual ~ "
                         f"{float(r_abs.hi):.3g} after {it} iterations")
    alpha, beta = _stabilizer(K, g, gamma, K.rational(1))
    T = Transform(alpha, beta, gamma, K.rational(1))
    dist = T.max_entry_distance_to_identity()
    if dist.lo >= 1:
        raise ExactError("no solution inside the unit ball around the "
                         "identity")
    return SigmaResult(T, RatInterval(Fraction(0), r_abs.hi), dist, it)


# ---------------------------------------------------------------------------
# profiles along transform paths


@dataclass
class ProfilePoint:
    t: Fraction
    theta: Optional[Fraction]
    value: RatInterval
    near_rational_root: bool
    min_root_gap: Fraction


PathSpec = Callable[[Fraction], Union[Transform, Tuple[str, Fraction]]]


def tent_diagonal_path(theta_far: Fraction) -> PathSpec:
    """Diagonal path 1 -> theta_far -> 1 (tent in the parameter)."""
    theta_far = Fraction(theta_far)

    def path(t: Fraction):
        s = 1 - abs(2 * t - 1)  # 0 -> 1 -> 0
        return ("diagonal", 1 + (theta_far - 1) * s)
    return path


def crossing_tent_path(di: DiagonalInterval) -> Tuple[PathSpec, int]:
    """Tent path between the solved left endpoint and its mirror image
    across the vanishing point, so the minimum dips to zero twice while
    both path endpoints sit at the minimum target.

    Returns (path, denominator_cap): the cap makes the nearest-rational
    annotation see the convergent pair responsible for the dip.
    """
    a = di.theta_n.hi
    mirror = di.right_end.hi + (di.right_end.hi - a)
    span = mirror - a
    if span <= 0:
        raise ExactError("degenerate crossing window")

    def path(t: Fraction):
        s = 1 - abs(2 * t - 1)
        return ("diagonal", a + span * s)
    return path, 2 * di.q_n


def linear_diagonal_path(theta_a: Fraction, theta_b: Fraction) -> PathSpec:
    theta_a, theta_b = Fraction(theta_a), Fraction(theta_b)

    def path(t: Fraction):
        return ("diagonal", theta_a + (theta_b - theta_a) * t)
    return path


def path_profile(f: BinaryForm, path: PathSpec, samples: int,
                 depth: int = 18, box: int = SWEEP_BOX,
                 near_threshold: Optional[Fraction] = None,
                 denominator_cap: int = 200) -> List[ProfilePoint]:
    """Sample t -> m(P o u(t)) along a path of transforms.

    Each sample carries a diagnostic annotation marking whether some
    transported root is within ``near_threshold`` of a rational with
    denominator <= ``denominator_cap`` (the mechanism behind discontinuous
    dips of the minimum)."""
    if samples < 2:
        raise ExactError("need at least two samples")
    n = f.degree
    if near_threshold is None:
        near_threshold = Fraction(1, 10 * denominator_cap ** 2)
    out = []
    base_roots = f.real_root_values()
    for j in range(samples):
        t = Fraction(j, samples - 1)
        spec = path(t)
        theta = None
        if isinstance(spec, tuple) and spec[0] == "diagonal":
            theta = Fraction(spec[1])
            g = diagonal_form(f, theta, base_roots=base_roots)
            res = m_estimate(g, box=box, depth=depth, certify=False)
            val = res.value.times(diagonal_prefactor(theta, n))
        elif isinstance(spec, Transform):
            g = act(f, spec)
            res = m_estimate(g, box=box, depth=depth, certify=False)
            val = res.value
        else:
            raise ExactError("path must yield a Transform or a diagonal tag")
        gap = _min_root_rational_gap(g, depth, denominator_cap)
        out.append(ProfilePoint(t, theta, val.enclosure(Fraction(1, 2 ** 40)),
                                gap < near_threshold, gap))
    return out


def _min_root_rational_gap(g, depth: int, cap: int) -> Fraction:
    best = Fraction(1)
    for v in g.real_root_values():
        if scalar_is_rational(v):
            return Fraction(0)
        cf = expand(v, depth, digit_limit=None)
        for c in convergents(cf, cf.clip(depth)):
            if c.q > cap:
                break
            e = scalar_enclosure(v, Fraction(1, 2 ** 60))
            d = max(abs(e.mid - Fraction(c.p, c.q)) - e.width, Fraction(0))
            best = min(best, d)
    return best
