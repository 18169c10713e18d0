"""Lattice minima of binary forms and approximation minima of real roots.

``m_estimate`` computes min over nonzero integer vectors of |P| as the
minimum of two exhaustive candidate families: all points in a box, and the
continued-fraction convergents of every real root.  For rational forms the
box minimum is searched at the critical points of each row (the integers
next to the real roots of P(t, 1) and of its derivative, scaled by y)
rather than at every point.  The result is exact on the candidate set; the
``certified`` flag is set only when a chain of rigorous inequalities shows
no point outside the candidate set can do better (which needs a permanent
digit bound for every real root, available for eventually periodic
expansions or by explicit caller assumption).  Anisotropic forms are
certified by a floor of |P| on the unit square boundary, taken at the
edge corners and at the critical points of the edge polynomials.

``m_rho`` is the root-level quantity: the degree-weighted approximation
minimum min over Y of Y^(n-1) |Y rho - X|, reduced to convergents by the
best-approximation property and truncated at a convergent depth.  Each
candidate is Y^n |rho - X/Y|, an :class:`~formspec.forms.Offset` of rho
itself, so comparing two candidates of the same root is a single exact
cut of rho and no candidate builds a polynomial of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor as _mfloor
from typing import List, Optional, Sequence, Tuple, Union

from .cfengine import convergents, expand
from .exactcore import (
    ExactError,
    IntPolynomial,
    RatInterval,
    _decide,
    _eval_frac_interval,
    isolate_real_roots,
)
from .forms import (
    BinaryForm,
    Mag,
    Offset,
    ProductForm,
    compare_scalars,
    scalar_as_fraction,
    scalar_enclosure,
    scalar_is_rational,
    scalar_is_zero,
)

DEFAULT_BOX = 100
DEFAULT_DEPTH = 30

FormLike = Union[BinaryForm, ProductForm]


@dataclass
class MinResult:
    """Minimum of |P| over candidate integer vectors, with certification."""

    value: Mag
    attaining: Optional[Tuple[int, int]]
    box_bound: int
    cf_depth: int
    certified: bool
    certificate_note: str

    def value_interval(self, width: Fraction = Fraction(1, 2 ** 48)) -> RatInterval:
        return self.value.enclosure(width)

    def value_fraction(self) -> Optional[Fraction]:
        return self.value.as_fraction() if self.value.is_rational() else None


@dataclass
class RootMinResult:
    """Truncated approximation minimum of a real number at a given degree."""

    value: RatInterval
    degree: int
    attaining_index: Optional[int]
    depth: int
    value_mag: Mag = field(repr=False, default=None)

    def is_zero(self) -> bool:
        return self.value_mag.is_zero()


# ---------------------------------------------------------------------------
# box scan


def _iter_box(T: int):
    """Representatives of +-(x, y): y > 0 with any x, or y = 0 with x > 0,
    ordered by (y, x) so ties resolve lexicographically."""
    for x in range(1, T + 1):
        yield x, 0
    for y in range(1, T + 1):
        for x in range(-T, T + 1):
            yield x, y


def _box_min_rational(f: BinaryForm, T: int) -> Tuple[Mag, Tuple[int, int]]:
    """Exact box minimum from the critical points of each row.

    For y >= 1, p_y(x) = P(x, y) = y^n P(x/y, 1) has its real roots at
    x = rho*y and its critical points at x = sigma*y, where rho and sigma
    run over the real roots of P(t, 1) and of its derivative.  Between
    consecutive such points |p_y| is strictly monotone, so every minimizer
    of a row is x = -T, x = T or an integer next to one of them.  With
    enclosures of width <= 1/(4T), the integers from floor(lo*y) to
    ceil(hi*y) cover those neighbours.  Row y = 0 is the single point
    (1, 0).  The candidates are evaluated in (y, x) order with a strict
    comparison, so value and attaining vector equal those of the full scan
    over ``_iter_box``.
    """
    ints, den = f._int_model()
    n = f.degree
    q = IntPolynomial(ints)
    encs = _root_enclosures(q, T) + _root_enclosures(q.derivative(), T)
    best = abs(ints[n])  # |P(x, 0)| = |c_n| |x|^n is least at x = 1
    best_vec = (1, 0)
    for y in range(1, T + 1):
        if best == 0:
            break
        xs = {-T, T}
        for lo, hi in encs:
            a = max(lo.numerator * y // lo.denominator, -T)
            b = min(-(-hi.numerator * y // hi.denominator), T)
            xs.update(range(a, b + 1))
        ypow = [1] * (n + 1)
        for i in range(1, n + 1):
            ypow[i] = ypow[i - 1] * y
        for x in sorted(xs):
            acc = 0
            for i in range(n, -1, -1):
                acc = acc * x + ints[i] * ypow[n - i]
            v = abs(acc)
            if v < best:
                best = v
                best_vec = (x, y)
                if v == 0:
                    break
    return Mag(Fraction(best, den)), best_vec


def _root_enclosures(q: IntPolynomial, T: int
                     ) -> List[Tuple[Fraction, Fraction]]:
    """(lo, hi) of width <= 1/(4T) around each real root of ``q``.

    The roots are isolated afresh, so no shared root value is refined."""
    if q.degree < 1:
        return []
    w = Fraction(1, 4 * T)
    out = []
    for r in isolate_real_roots(q.squarefree_part()):
        iv = r.enclosure(w)
        out.append((iv.lo, iv.hi))
    return out


def _box_min_product(pf: ProductForm, T: int) -> Tuple[Mag, Tuple[int, int]]:
    """Float prescreen with a generous error margin, then exact comparison
    of the surviving near-minimal points.

    Soundness margin: root approximations carry relative error <= 2^-52 at
    magnitudes O(T); each point uses <= 3 ops per factor and <= 8 factors,
    so accumulated relative error is far below the 2^-20 slack used, and
    every point within slack of the float minimum is re-checked exactly.
    """
    width = Fraction(1, 2 ** 80)
    lin_f = [float(scalar_enclosure(v, width).mid) for v in pf.linear]
    quads_f = [(float(scalar_enclosure(a, width).mid),
                float(scalar_enclosure(b, width).mid),
                float(scalar_enclosure(c, width).mid))
               for (a, b, c) in pf.quads]
    scale_f = abs(float(pf.scale))
    rel = 1.0 + 2.0 ** -20
    vals = []
    best_f = None
    for x, y in _iter_box(T):
        v = scale_f
        for r in lin_f:
            v *= abs(x - r * y)
        for (a, b, c) in quads_f:
            v *= abs(a * x * x + b * x * y + c * y * y)
        vals.append(v)
        if best_f is None or v < best_f:
            best_f = v
    # survivors: within multiplicative slack plus a degree-scaled absolute
    # slack dominating the worst-case accumulated rounding error
    n = len(lin_f) + 2 * len(quads_f)
    slack = best_f * rel * rel + scale_f * float(4 * T) ** n * 2.0 ** -44
    best_mag: Optional[Mag] = None
    best_vec = None
    for (x, y), v in zip(_iter_box(T), vals):
        if v > slack:
            continue
        mag = pf.abs_at(x, y)
        if best_mag is None or mag.compare(best_mag) < 0:
            best_mag, best_vec = mag, (x, y)
    return best_mag, best_vec


def brute_force_min(f: FormLike, box: int = DEFAULT_BOX) -> MinResult:
    """Exact minimum of |P| over nonzero integer points with |x|,|y| <= box.

    The scan is sequential and deterministic; ties break lexicographically
    in (y, x) on the +-v representative with y > 0 (or y = 0, x > 0).
    """
    if box < 1:
        raise ExactError("box bound must be >= 1")
    if isinstance(f, BinaryForm) and f.is_rational():
        mag, vec = _box_min_rational(f, box)
    else:
        pf = f if isinstance(f, ProductForm) else f.factors
        if pf is None:
            mag, vec = _box_min_generic(f, box)
        else:
            mag, vec = _box_min_product(pf, box)
    return MinResult(mag, vec, box, 0, False, "box scan only")


def _box_min_generic(f: BinaryForm, T: int) -> Tuple[Mag, Tuple[int, int]]:
    best_mag = None
    best_vec = None
    for x, y in _iter_box(T):
        mag = f.abs_at(x, y)
        if best_mag is None or mag.compare(best_mag) < 0:
            best_mag, best_vec = mag, (x, y)
            if mag.is_zero():
                break
    return best_mag, best_vec


# ---------------------------------------------------------------------------
# convergent candidates


def _root_pairs(v, depth: int
                ) -> Tuple[List[Tuple[int, int]], List[int],
                           Optional[Tuple[int, ...]], bool]:
    """Convergent pairs (p_k, q_k) for k <= depth, digits alpha_0 ..
    alpha_{depth+1}, periodic block (if any) and a finiteness flag for a
    real root value.

    ``expand`` gives degree-2 roots a periodic tail, so the period is
    detected.  An expansion that ends early (rational value) yields fewer
    pairs and digits.
    """
    cf = expand(v, depth + 1, digit_limit=None)
    top = cf.clip(depth + 1)
    digits = cf.digits_upto(top)
    pairs = [(c.p, c.q) for c in convergents(cf, min(depth, top))]
    blk = cf.period_block if cf.tail == "periodic" else None
    return pairs, digits, blk, cf.tail == "finite"


def convergent_candidates(f: FormLike, depth: int = DEFAULT_DEPTH
                          ) -> List[Tuple[int, int, Mag]]:
    """For each real root, the convergent pairs (p_k, q_k) with exact
    magnitude evaluations of |P|; empty when the form has no real roots."""
    roots = f.real_root_values()
    out: List[Tuple[int, int, Mag]] = []
    seen = set()
    for v in roots:
        pairs, _, _, _ = _root_pairs(v, depth)
        for (p, q) in pairs:
            key = (p, q)
            if key in seen:
                continue
            seen.add(key)
            out.append((p, q, f.abs_at(p, q)))
    return out


# ---------------------------------------------------------------------------
# m(P)


def m_estimate(f: FormLike, box: int = DEFAULT_BOX, depth: int = DEFAULT_DEPTH,
               eta: Optional[Fraction] = None,
               assumed_subcritical: Sequence = (),
               certify: bool = True) -> MinResult:
    """Minimum of |P| over the box plus all root convergents to ``depth``.

    ``eta`` is the digit-bound exponent used in the certification chain
    (default (n-2)/2).  ``assumed_subcritical`` lists real root values the
    caller asserts satisfy the digit bound permanently; roots with
    eventually periodic expansions are verified mechanically and need no
    assumption.  Without a permanent bound for every real root the result
    is reported with certified=False ("heuristic at depth N").
    """
    n = f.degree
    if eta is None:
        eta = Fraction(max(n - 2, 1), 2) if n > 2 else Fraction(1, 2)
    disc_guard(f)
    base = brute_force_min(f, box)
    best, best_vec = base.value, base.attaining
    cands = convergent_candidates(f, depth)
    for (p, q, mag) in cands:
        c = mag.compare(best)
        if c < 0 or (c == 0 and _vec_order(p, q) < _vec_order(*best_vec)):
            best, best_vec = mag, _norm_vec(p, q)
    if best.is_zero():
        return MinResult(best, best_vec, box, depth, True,
                         "exact zero witnessed at the attaining vector")
    if not certify:
        return MinResult(best, best_vec, box, depth, False,
                         f"heuristic at depth {depth}: certification skipped")
    certified, note = _certify(f, best, box, depth, eta, assumed_subcritical)
    return MinResult(best, best_vec, box, depth, certified, note)


def disc_guard(f: FormLike):
    from .forms import discriminant
    if isinstance(f, BinaryForm):
        if scalar_is_zero(discriminant(f)):
            raise ExactError("zero discriminant")
    else:
        vals = f.real_root_values()
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if compare_scalars(vals[i], vals[j]) == 0:
                    raise ExactError("repeated real root: zero discriminant")


def _norm_vec(x: int, y: int) -> Tuple[int, int]:
    if y < 0 or (y == 0 and x < 0):
        return (-x, -y)
    return (x, y)


def _vec_order(x: int, y: int) -> Tuple[int, int]:
    x, y = _norm_vec(x, y)
    return (y, x)


def _certify(f: FormLike, best: Mag, box: int, depth: int, eta: Fraction,
             assumed_subcritical: Sequence) -> Tuple[bool, str]:
    """Layered sufficiency argument that no vector outside the candidate
    set beats the candidate minimum.  Conservative: may return False for a
    true minimum; never returns True unsoundly (given the stated digit
    bound assumptions)."""
    n = f.degree
    roots = f.real_root_values()
    k = len(roots)
    if k == 0:
        return _certify_anisotropic(f, best, box)
    pf = f if isinstance(f, ProductForm) else \
        (f.factors if isinstance(f, BinaryForm) else None)
    if pf is None:
        if isinstance(f, BinaryForm) and len(roots) == f.degree:
            pf = None  # totally real rational form: factors implicit
        else:
            return False, (f"heuristic at depth {depth}: form has non-real "
                           "factors without a factored model")
    if pf is not None and len(pf.linear) + 2 * len(pf.quads) != n:
        return False, "heuristic: incomplete factorization"
    # scale and positive-definite floor of the non-real part
    if pf is not None:
        lc = abs(pf.scale)
        quad_floor = Fraction(1)
        for (a, b, c) in pf.quads:
            wa = scalar_enclosure(a, Fraction(1, 2 ** 40))
            wb = scalar_enclosure(b, Fraction(1, 2 ** 40))
            wc = scalar_enclosure(c, Fraction(1, 2 ** 40))
            # min over t of a t^2 + b t + c = (4ac - b^2) / (4a) > 0
            num = 4 * wa.lo * wc.lo - max(wb.lo * wb.lo, wb.hi * wb.hi)
            if num <= 0:
                return False, "heuristic: quadratic factor floor not positive"
            quad_floor *= num / (4 * wa.hi)
    else:
        ints, den = f._int_model()
        lc = Fraction(abs(ints[-1]), den)
        quad_floor = Fraction(1)
        if len(ints) - 1 != n:
            return False, "heuristic: degree drop (root at infinity)"
    m_hi = best.enclosure(Fraction(1, 2 ** 40)).hi

    width = Fraction(1, 2 ** 60)
    encs = [scalar_enclosure(v, width) for v in roots]
    # pairwise gaps (lower bounds)
    gap_lo = []
    for i in range(k):
        gl = None
        for j in range(k):
            if i == j:
                continue
            d = max(Fraction(0), max(encs[i].lo - encs[j].hi,
                                     encs[j].lo - encs[i].hi))
            gl = d if gl is None else min(gl, d)
        gap_lo.append(gl if gl is not None else None)
    min_gap = min((g for g in gap_lo if g is not None), default=None)
    if k > 1 and (min_gap is None or min_gap <= 0):
        return False, "heuristic: root gap not resolved"

    notes = []
    for i, v in enumerate(roots):
        if scalar_is_rational(v):
            return False, "rational root present but minimum not zero"
        assumed = any(compare_scalars(v, w) == 0 for w in assumed_subcritical)
        pairs, digits, block, finite = _root_pairs(v, depth + 1)
        if finite:
            return False, "rational root present but minimum not zero"
        permanent = block is not None
        if not (permanent or assumed):
            return (False, f"heuristic at depth {depth}: root {i} has no "
                           "permanent digit bound (tail not periodic, not "
                           "assumed subcritical)")
        if assumed and not permanent:
            notes.append(f"root {i}: digit bound assumed by caller")
        cv = pairs  # cv[k] = (p_k, q_k)
        # indices <= depth are candidates and are handled by the per-range
        # bounds below; the digit bound matters for the tail beyond depth
        s, p_ = eta.denominator, eta.numerator
        if permanent:
            alpha_max = max(list(block) + digits[depth + 1:] + [1])
            Qd = cv[depth][1]
            if alpha_max ** s > Qd ** p_:
                return (False, f"periodic digit bound of root {i} not yet "
                               f"dominated by Q_depth^eta; increase depth")
        # per-Y-range non-candidate bounds
        other_lo = Fraction(1)
        for j in range(k):
            if j == i:
                continue
            gap = max(encs[i].lo - encs[j].hi, encs[j].lo - encs[i].hi)
            other_lo *= gap - _window(gap_lo[i], cv[depth][1])
        j0 = 0
        while j0 < depth and cv[j0 + 1][1] <= box:
            j0 += 1
        for j in range(j0, depth):
            Qj, Qj1 = cv[j][1], cv[j + 1][1]
            alpha1 = digits[j + 1]
            e_lo = Fraction(1, (alpha1 + 2) * Qj)
            win = _window(gap_lo[i] if k > 1 else Fraction(1), Qj)
            o_lo = Fraction(1)
            for jj in range(k):
                if jj == i:
                    continue
                gap = max(encs[i].lo - encs[jj].hi, encs[jj].lo - encs[i].hi)
                o_lo *= gap - win
            if o_lo <= 0:
                return False, "heuristic: window exceeds root gap"
            # (a) same denominator, wrong numerator
            bound_a = lc * Fraction(Qj) ** (n - 1) * Fraction(1, 2) * o_lo * quad_floor
            # (b) denominators strictly between consecutive convergents
            bound_b = (lc * Fraction(Qj + 1) ** (n - 1) * e_lo * o_lo
                       * quad_floor) if Qj1 > Qj + 0 else None
            # (c) points outside every root window at this scale
            far_lo = win * (min_gap / 2 if k > 1 else Fraction(1)) ** (k - 1)
            bound_c = lc * Fraction(max(Qj, box + 1)) ** n * far_lo * quad_floor
            for tag, bnd in (("a", bound_a), ("b", bound_b), ("c", bound_c)):
                if bnd is not None and bnd < m_hi:
                    return (False, f"heuristic: range bound ({tag}) at root "
                                   f"{i}, index {j} is {float(bnd):.3g} < "
                                   f"minimum {float(m_hi):.3g}")
        # tail beyond depth: permanent bound alpha <= Q^eta
        Qd = cv[depth][1]
        if (n - 2) * s - p_ <= 0:
            return False, f"heuristic: eta={eta} not below n-2"
        tail_lo = (lc * other_lo * quad_floor
                   * Fraction(Qd) ** (n - 2) / _pow_frac(Qd, eta) / 3)
        if tail_lo < m_hi:
            return (False, f"heuristic: tail bound {float(tail_lo):.3g} below "
                           f"minimum at depth {depth}; increase depth")
    note = "certified: box + convergent bounds at depth %d" % depth
    if notes:
        note += " (" + "; ".join(notes) + ")"
    return True, note


def _window(gap: Optional[Fraction], Q: int) -> Fraction:
    base = gap if gap is not None else Fraction(1)
    return base / (8 * max(Q, 2))


def _pow_frac(base: int, e: Fraction) -> Fraction:
    """Upper bound for base**e with rational e > 0 (exact when integral)."""
    if e.denominator == 1:
        return Fraction(base) ** e.numerator
    # base^(p/s) <= ceil root bound
    from .exactcore import _int_nth_root
    v = base ** e.numerator
    r = _int_nth_root(v, e.denominator)
    return Fraction(r + 1)


def _certify_anisotropic(f: FormLike, best: Mag, box: int) -> Tuple[bool, str]:
    """No real roots: |P(x,y)| >= C * max(|x|,|y|)^n with C the floor of
    |P| on the unit square boundary from ``_boundary_floor``."""
    n = f.degree
    C = _boundary_floor(f)
    if C is None or C <= 0:
        return False, "heuristic: could not floor the anisotropic form"
    m_hi = best.enclosure(Fraction(1, 2 ** 40)).hi
    if C * Fraction(box + 1) ** n >= m_hi:
        return True, f"certified: anisotropic floor {float(C):.3g}"
    return False, "heuristic: box too small for the anisotropic floor"


def _boundary_floor(f: FormLike) -> Optional[Fraction]:
    """Rational lower bound of min |P| on the boundary of the unit square.

    Without a real root, |P| on an edge is |q(t)| for t in [-1, 1], with
    q(t) = P(t, 1) on the edges y = +-1 (|P(t, -1)| = |P(-t, 1)|) and
    q(t) = P(1, t) on the edges x = +-1.  Its minimum is at t = +-1, taken
    exactly, or at a real root sigma of q' in [-1, 1], bounded below by
    interval evaluation of q on an enclosure of sigma.  None for forms
    without rational coefficients; 0 when P has a real root.
    """
    if not (isinstance(f, BinaryForm) and f.is_rational()):
        return None
    ints, den = f._int_model()
    if ints[-1] == 0 or f.real_root_values():
        return Fraction(0)
    vals = []
    for q in (IntPolynomial(ints), IntPolynomial(ints[::-1])):
        vals += [abs(q.eval_int(1)), abs(q.eval_int(-1))]
        for s in isolate_real_roots(q.derivative().squarefree_part()):
            if s.compare(Fraction(-1)) >= 0 and s.compare(Fraction(1)) <= 0:
                vals.append(_critical_floor(q, s))
    return Fraction(min(vals)) / den


def _critical_floor(q: IntPolynomial, s) -> Fraction:
    """Lower bound of |q(s)| > 0 within a relative 2^-20 of it: the lower
    end of the interval image of an enclosure of ``s``, narrowed until
    that image excludes 0 and is that narrow."""
    if s.is_rational():
        return abs(q.eval(s.as_fraction()))

    def probe(w):
        iv = _eval_frac_interval(q.coeffs, s.enclosure(w)).abs()
        if iv.lo > 0 and (iv.hi - iv.lo) * 2 ** 20 <= iv.lo:
            return iv.lo
        return None
    return _decide(probe, s.interval().width, 4)


# ---------------------------------------------------------------------------
# m(rho)


def m_rho(rho, n: int, depth: int = DEFAULT_DEPTH,
          boundary_scan: int = 50) -> RootMinResult:
    """Enclosure of min over 1 <= Y <= Q_depth of Y^(n-1) |Y rho - X|.

    Reduced to convergents by the best-approximation property; a direct
    scan over small Y cross-checks the boundary between consecutive
    convergents.  Exact zero for rationals whose expansion terminates by
    ``depth``.
    """
    if n < 2:
        raise ExactError("degree must be >= 2")
    cf = expand(rho, depth, digit_limit=None)
    cv = convergents(cf, cf.clip(depth))
    best: Optional[Mag] = None
    best_idx: Optional[int] = None
    for c in cv:
        mag = _approx_mag(rho, c.p, c.q, n)
        if best is None or mag.compare(best) < 0:
            best, best_idx = mag, c.index
        if mag.is_zero():
            break
    if best is None or not best.is_zero():
        qmax = cv[-1].q
        for Y in range(1, min(boundary_scan, qmax) + 1):
            X = _nearest_int(rho, Y)
            for XX in (X - 1, X, X + 1):
                mag = _approx_mag(rho, XX, Y, n)
                if best is None or mag.compare(best) < 0:
                    best, best_idx = mag, None
    iv = best.enclosure(Fraction(1, 2 ** 48))
    return RootMinResult(iv, n, best_idx, depth, value_mag=best)


def _approx_mag(rho, X: int, Y: int, n: int) -> Mag:
    """Y^(n-1) |Y rho - X| = Y^n |rho - X/Y|, an offset of rho itself."""
    if scalar_is_rational(rho):
        diff = abs(Y * scalar_as_fraction(rho) - X)
        return Mag(diff * Fraction(Y) ** (n - 1))
    t = Fraction(X, Y)
    sign = compare_scalars(rho, t)
    if sign == 0:
        return Mag(Fraction(0))
    return Mag(Fraction(Y) ** n, (Offset(rho, t, sign),))


def _nearest_int(rho, Y: int) -> int:
    iv = scalar_enclosure(rho, Fraction(1, 4 * Y * Y))
    return int(_mfloor(iv.mid * Y + Fraction(1, 2)))
