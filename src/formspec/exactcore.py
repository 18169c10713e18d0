"""Exact rational, polynomial, interval and real-algebraic arithmetic.

Everything in this module is decision-procedure grade: comparisons, signs,
floors and root counts are computed exactly over arbitrary-precision
integers and rationals.  No floating point enters any decision.

Value types
-----------
``Rational``        alias of :class:`fractions.Fraction` (always reduced,
                    denominator >= 1).
``RatInterval``     closed rational interval ``[lo, hi]``.
``IntPolynomial``   dense integer-coefficient polynomial, degree-indexed.
``AlgebraicReal``   real root of a squarefree integer polynomial, pinned by
                    an isolating interval.
``QuadraticReal``   ``(p + q*sqrt(d)) / r`` in canonical form; closed under
                    field arithmetic, with exact floor and comparisons.
``FieldElement``    element of Q(theta) for a fixed generator theta, stored
                    by rational coordinates in the power basis.

Two private primitives carry every exact decision built on these types:
``_decide`` is the one "refine until decided" loop (probe an enclosure
at geometrically shrinking widths until the probe answers), and
``_echelon`` is the one exact elimination routine, with ``_det`` and
``_solve`` on top of it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import floor as _mfloor
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "ExactError",
    "RatInterval",
    "IntPolynomial",
    "AlgebraicReal",
    "QuadraticReal",
    "NumberField",
    "FieldElement",
    "sturm_root_count",
    "isolate_real_roots",
    "refine",
    "compare",
    "quadratic_to_algebraic",
    "algebraic_to_quadratic",
    "sqrt_interval",
    "nth_root_interval",
    "same_value",
]


class ExactError(ValueError):
    """A mathematical precondition of an exact operation was violated."""


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with rational endpoints, ``lo <= hi``."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ExactError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "RatInterval") -> Optional["RatInterval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return RatInterval(lo, hi)

    def shift(self, s: Fraction) -> "RatInterval":
        return RatInterval(self.lo + s, self.hi + s)

    def scale(self, s: Fraction) -> "RatInterval":
        s = Fraction(s)
        if s >= 0:
            return RatInterval(self.lo * s, self.hi * s)
        return RatInterval(self.hi * s, self.lo * s)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(cands), max(cands))

    def abs(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def order(self, other: "RatInterval") -> Optional[int]:
        """-1 or 1 when the intervals are disjoint (self below or above
        other), else None."""
        if self.hi < other.lo:
            return -1
        if other.hi < self.lo:
            return 1
        return None

    def sign(self) -> Optional[int]:
        """Definite sign of every point of the interval, or None."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _decide(probe, width, shrink, rounds=None):
    """First result of ``probe(w)`` that is not None, for w = width,
    width/shrink, width/shrink^2, ...; None once ``rounds`` probes have
    been made without a decision (never, when ``rounds`` is None).

    ``False`` and ``0`` are decisions like any other value."""
    w = width
    n = 0
    while rounds is None or n < rounds:
        out = probe(w)
        if out is not None:
            return out
        w = w / shrink
        n += 1
    return None


# ---------------------------------------------------------------------------
# integer polynomials


def _trim(coeffs: Sequence[int]) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies ``x**i``.

    Canonical form: no trailing zero coefficients, the zero polynomial is
    the empty tuple.  Content is not forced to 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = _trim([int(c) for c in coeffs])

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise ExactError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    # -- arithmetic --------------------------------------------------------
    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial([c * k for c in self.coeffs])

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: Fraction) -> Fraction:
        """Exact evaluation by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def primitive(self) -> "IntPolynomial":
        if self.is_zero():
            return self
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        sign = 1 if self.leading() > 0 else -1
        return IntPolynomial([sign * c // g for c in self.coeffs])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    # -- root machinery ----------------------------------------------------
    def root_bound(self) -> Fraction:
        """Cauchy bound: all real roots lie in (-B, B)."""
        lead = abs(self.leading())
        m = max((abs(c) for c in self.coeffs[:-1]), default=0)
        return 1 + Fraction(m, lead)

    def is_squarefree(self) -> bool:
        if self.is_zero():
            return False
        if self.degree == 0:
            return True
        return poly_gcd(self, self.derivative()).degree == 0

    def squarefree_part(self) -> "IntPolynomial":
        if self.is_zero():
            raise ExactError("zero polynomial")
        if self.degree == 0:
            return IntPolynomial([1])
        g = poly_gcd(self, self.derivative())
        if g.degree == 0:
            return self.primitive()
        q, _ = _frac_divmod(_to_frac(self), _to_frac(g))
        return _from_frac_primitive(q)


def _to_frac(p: IntPolynomial) -> list:
    return [Fraction(c) for c in p.coeffs]


def _frac_trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _frac_divmod(a: list, b: list) -> tuple:
    """Division with remainder for Fraction coefficient lists."""
    a = _frac_trim(list(a))
    b = _frac_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a
    while r and len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        r = _frac_trim(r)
    return q, r


def _from_frac_primitive(cs: Sequence[Fraction]) -> IntPolynomial:
    cs = _frac_trim(list(cs))
    if not cs:
        return IntPolynomial([])
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]
    return IntPolynomial(ints).primitive()


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, returned with positive leading coefficient."""
    fa, fb = _to_frac(a), _to_frac(b)
    while _frac_trim(list(fb)):
        _, r = _frac_divmod(fa, fb)
        fa, fb = fb, r
    return _from_frac_primitive(fa)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p: IntPolynomial) -> list:
    """Sturm chain of a squarefree polynomial, as Fraction coeff lists."""
    chain = [_to_frac(p), _to_frac(p.derivative())]
    while _frac_trim(list(chain[-1])):
        _, r = _frac_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if _frac_trim(list(c))]


def _eval_frac(cs: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _variations(signs: list) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def _sturm_var_at(chain: list, x: Fraction) -> int:
    return _variations([_sign(_eval_frac(c, x)) for c in chain])


def sturm_root_count(p: IntPolynomial, iv: RatInterval, _chain=None) -> int:
    """Exact number of real roots of squarefree ``p`` in ``(iv.lo, iv.hi]``."""
    if p.is_zero():
        raise ExactError("zero polynomial")
    if not p.is_squarefree():
        raise ExactError("polynomial is not squarefree")
    if p.degree == 0:
        return 0
    chain = _chain if _chain is not None else sturm_chain(p)
    return _sturm_var_at(chain, iv.lo) - _sturm_var_at(chain, iv.hi)


# ---------------------------------------------------------------------------
# algebraic reals


class AlgebraicReal:
    """A real algebraic number: squarefree minimal-by-construction
    polynomial plus an isolating interval containing exactly one real root.

    Values are semantically immutable; the internal isolating interval only
    ever shrinks (monotone refinement cache, safe under the GIL plus a lock).
    A value that turns out to be rational (degree-1 polynomial, or an exact
    rational hit during refinement) carries the exact Fraction.
    """

    __slots__ = ("minpoly", "isolating", "_lo", "_hi", "_rational", "_lock")

    def __init__(self, minpoly: IntPolynomial, isolating: RatInterval,
                 _rational: Optional[Fraction] = None, _checked: bool = False):
        self.minpoly = minpoly
        self.isolating = isolating
        self._rational = _rational
        self._lock = threading.Lock()
        if _rational is not None:
            self._lo = self._hi = Fraction(_rational)
            return
        lo, hi = isolating.lo, isolating.hi
        if not _checked:
            if minpoly.is_zero() or minpoly.degree < 1:
                raise ExactError("minimal polynomial must be nonconstant")
            if not minpoly.is_squarefree():
                raise ExactError("minimal polynomial must be squarefree")
            if minpoly.degree == 1:
                a, b = minpoly.coeffs[1], minpoly.coeffs[0]
                self._rational = Fraction(-b, a)
                self._lo = self._hi = self._rational
                return
            lo, hi = _normalize_isolation(minpoly, lo, hi)
            if isinstance(lo, Fraction) and lo == hi:
                self._rational = lo
                self._lo = self._hi = lo
                return
        self._lo, self._hi = lo, hi

    # -- basic views --------------------------------------------------------
    def is_rational(self) -> bool:
        return self._rational is not None

    def as_fraction(self) -> Fraction:
        if self._rational is None:
            raise ExactError("value is irrational")
        return self._rational

    def interval(self) -> RatInterval:
        return RatInterval(self._lo, self._hi)

    def __repr__(self):
        if self._rational is not None:
            return f"AlgebraicReal({self._rational})"
        return f"AlgebraicReal({list(self.minpoly.coeffs)}, ({self._lo}, {self._hi}))"

    def __float__(self):
        iv = self.enclosure(Fraction(1, 2 ** 56))
        return float(iv.mid)

    # -- refinement ---------------------------------------------------------
    def _bisect_once(self):
        p = self.minpoly
        lo, hi = self._lo, self._hi
        mid = (lo + hi) / 2
        v = p.eval(mid)
        if v == 0:
            self._rational = mid
            self._lo = self._hi = mid
            return
        if _sign(v) == _sign(p.eval(lo)):
            self._lo = mid
        else:
            self._hi = mid

    def enclosure(self, width: Fraction) -> RatInterval:
        """Interval of width <= ``width`` containing the value."""
        width = Fraction(width)
        if width <= 0:
            raise ExactError("width must be positive")
        if self._rational is not None:
            return RatInterval(self._rational, self._rational)
        with self._lock:
            while self._hi - self._lo > width and self._rational is None:
                self._bisect_once()
            return RatInterval(self._lo, self._hi)

    # -- exact comparisons ---------------------------------------------------
    def compare(self, q: Fraction) -> int:
        """Exact three-way comparison with a rational: -1, 0 or +1."""
        q = Fraction(q)
        if self._rational is not None:
            return _sign(self._rational - q)
        with self._lock:
            if q <= self._lo:
                return 1
            if q >= self._hi:
                return -1
            v = self.minpoly.eval(q)
            if v == 0:
                # q is the unique root in the isolating interval: equal.
                self._rational = q
                self._lo = self._hi = q
                return 0
            # single sign change across the interval
            if _sign(v) == _sign(self.minpoly.eval(self._lo)):
                self._lo = q
                return 1
            self._hi = q
            return -1

    def sign(self) -> int:
        return self.compare(Fraction(0))

    def floor(self) -> int:
        if self._rational is not None:
            return _mfloor(self._rational)
        while True:
            with self._lock:
                if self._rational is not None:
                    break
                flo = _mfloor(self._lo)
                fhi = _mfloor(self._hi)
                if self._hi == fhi:
                    fhi -= 1  # open upper endpoint: root < hi strictly
                if flo == fhi:
                    return flo
            # binary-search the integer part (one exact cut per step)
            k = Fraction((flo + fhi + 2) // 2)
            self.compare(k)
        return _mfloor(self._rational)

    # -- derived values ------------------------------------------------------
    def neg(self) -> "AlgebraicReal":
        if self._rational is not None:
            return AlgebraicReal(IntPolynomial([1]), RatInterval(0, 0),
                                 _rational=-self._rational)
        p = IntPolynomial([c if i % 2 == 0 else -c
                           for i, c in enumerate(self.minpoly.coeffs)])
        iv = RatInterval(-self._hi, -self._lo)
        return AlgebraicReal(p, iv, _checked=True)

    def mobius(self, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> "AlgebraicReal":
        """Exact image ``(a*x + b) / (c*x + d)`` as an AlgebraicReal.

        Requires ``ad - bc != 0``.  The result's polynomial is the cleared
        and squarefree transform of the minimal polynomial; the isolating
        interval is the image of a refinement on which the map is monotone.
        """
        a, b, c, d = map(Fraction, (a, b, c, d))
        det = a * d - b * c
        if det == 0:
            raise ExactError("singular coefficient matrix")
        if self._rational is not None:
            x = self._rational
            den = c * x + d
            if den == 0:
                raise ExactError("pole at the value")
            v = (a * x + b) / den
            return AlgebraicReal(IntPolynomial([-v.numerator, v.denominator]),
                                 RatInterval(v, v), _rational=v)
        # substitute x = (d*w - b) / (-c*w + a) and clear denominators:
        # (d*w - b)^i * (-c*w + a)^(n-i) convolution
        n = self.minpoly.degree
        out = [Fraction(0)] * (n + 1)
        pow_num = [[Fraction(1)]]
        pow_den = [[Fraction(1)]]
        lin_num = [Fraction(-b), Fraction(d)]
        lin_den = [Fraction(a), Fraction(-c)]
        for _ in range(n):
            pow_num.append(_poly_mul_frac(pow_num[-1], lin_num))
            pow_den.append(_poly_mul_frac(pow_den[-1], lin_den))
        for i, coef in enumerate(self.minpoly.coeffs):
            if coef == 0:
                continue
            term = _poly_mul_frac(pow_num[i], pow_den[n - i])
            for j, t in enumerate(term):
                out[j] += coef * t
        q = _from_frac_primitive(out)
        if q.is_zero() or q.degree < 1:
            raise ExactError("degenerate transform")
        q = q.squarefree_part()
        chain = sturm_chain(q)

        def image(width):
            iv = self.enclosure(width)
            lo, hi = iv.lo, iv.hi
            dlo, dhi = c * lo + d, c * hi + d
            if _sign(dlo) == 0 or _sign(dlo) != _sign(dhi):
                return None  # the pole is not yet excluded
            u = (a * lo + b) / dlo
            v = (a * hi + b) / dhi
            return _isolated(q, RatInterval(min(u, v), max(u, v)), chain)
        return _decide(image, self._hi - self._lo, 4)

    def shift(self, s: Fraction) -> "AlgebraicReal":
        return self.mobius(1, s, 0, 1)

    def scale_by(self, s: Fraction) -> "AlgebraicReal":
        return self.mobius(s, 0, 0, 1)


def _isolated(p: IntPolynomial, iv: RatInterval, chain=None
              ) -> Optional[AlgebraicReal]:
    """The root of ``p`` in ``iv`` when ``iv`` isolates exactly one root
    and neither endpoint is a root, else None."""
    if p.eval(iv.lo) != 0 and p.eval(iv.hi) != 0 \
            and sturm_root_count(p, iv, _chain=chain) == 1:
        return AlgebraicReal(p, iv, _checked=True)
    return None


def _poly_mul_frac(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _normalize_isolation(p: IntPolynomial, lo: Fraction, hi: Fraction):
    """Shrink (lo, hi] so that p(lo) != 0 != p(hi) and exactly one root is
    strictly inside, or collapse to the exact rational root."""
    lo, hi = Fraction(lo), Fraction(hi)
    chain = sturm_chain(p)
    if p.eval(hi) == 0:
        return hi, hi
    if p.eval(lo) == 0:
        # lo is a different root of p (the interval is half-open); step
        # inward without crossing the interior root
        step = hi - lo
        while True:
            step /= 2
            cand = lo + step
            if p.eval(cand) == 0:
                return cand, cand
            if sturm_root_count(p, RatInterval(cand, hi), _chain=chain) == 1:
                lo = cand
                break
    cnt = sturm_root_count(p, RatInterval(lo, hi), _chain=chain)
    if cnt != 1:
        raise ExactError(f"interval ({lo}, {hi}] isolates {cnt} roots, expected 1")
    # a single simple interior root forces a sign change across the interval
    while _sign(p.eval(lo)) == _sign(p.eval(hi)):
        mid = (lo + hi) / 2
        v = p.eval(mid)
        if v == 0:
            return mid, mid
        if sturm_root_count(p, RatInterval(lo, mid), _chain=chain) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def isolate_real_roots(p: IntPolynomial) -> list:
    """All real roots of squarefree ``p``, isolated and sorted ascending."""
    if p.is_zero():
        raise ExactError("zero polynomial")
    if not p.is_squarefree():
        raise ExactError("polynomial is not squarefree")
    if p.degree == 0:
        return []
    chain = sturm_chain(p)
    bound = p.root_bound()
    roots = []

    def recurse(lo: Fraction, hi: Fraction, cnt: int):
        if cnt == 0:
            return
        if cnt == 1:
            roots.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if p.eval(mid) == 0:
            roots.append((mid, mid))
            right = sturm_root_count(p, RatInterval(mid, hi), _chain=chain)
            # pull the left cut below mid without losing roots in between
            eps = (hi - lo) / 4
            while True:
                l2 = mid - eps
                if l2 > lo and p.eval(l2) != 0:
                    left = sturm_root_count(p, RatInterval(lo, l2), _chain=chain)
                    if left + 1 + right == cnt:
                        break
                eps /= 2
            recurse(lo, l2, left)
            recurse(mid, hi, right)
            return
        left = sturm_root_count(p, RatInterval(lo, mid), _chain=chain)
        recurse(lo, mid, left)
        recurse(mid, hi, cnt - left)

    total = sturm_root_count(p, RatInterval(-bound, bound), _chain=chain)
    recurse(-bound, bound, total)
    out = []
    for lo, hi in sorted(roots, key=lambda t: t[0]):
        if lo == hi:
            out.append(AlgebraicReal(p, RatInterval(lo, hi), _rational=lo))
        else:
            lo2, hi2 = _normalize_isolation(p, lo, hi)
            if lo2 == hi2:
                out.append(AlgebraicReal(p, RatInterval(lo2, hi2), _rational=lo2))
            else:
                out.append(AlgebraicReal(p, RatInterval(lo2, hi2), _checked=True))
    return out


def refine(a: AlgebraicReal, width: Fraction) -> AlgebraicReal:
    """Same root, isolating interval of width <= ``width``."""
    width = Fraction(width)
    if width <= 0:
        raise ExactError("width must be positive")
    iv = a.enclosure(width)
    if a.is_rational():
        return AlgebraicReal(a.minpoly, iv, _rational=a.as_fraction())
    return AlgebraicReal(a.minpoly, iv, _checked=True)


def compare(a: AlgebraicReal, q: Fraction) -> str:
    """Three-way comparison, returned as 'less' | 'equal' | 'greater'."""
    c = a.compare(q)
    return {1: "greater", 0: "equal", -1: "less"}[c]


def same_value(a: AlgebraicReal, b: AlgebraicReal) -> bool:
    """Exact equality test of two algebraic reals."""
    if a.is_rational() and b.is_rational():
        return a.as_fraction() == b.as_fraction()
    if a.is_rational():
        return b.compare(a.as_fraction()) == 0
    if b.is_rational():
        return a.compare(b.as_fraction()) == 0
    g = poly_gcd(a.minpoly, b.minpoly)
    gchain = sturm_chain(g) if g.degree >= 1 else None
    wa = a.interval().width or Fraction(1)
    wb = b.interval().width or Fraction(1)

    def verdict(s):
        j = a.enclosure(wa * s).intersect(b.enclosure(wb * s))
        if j is None:
            return False
        # both values lie in j; if j isolates a single root of g, and a
        # single root of each minimal polynomial, both equal that root
        if g.degree >= 1 and g.eval(j.lo) != 0 and g.eval(j.hi) != 0 \
                and sturm_root_count(g, j, _chain=gchain) == 1 \
                and sturm_root_count(a.minpoly, j) == 1 \
                and sturm_root_count(b.minpoly, j) == 1:
            return True
        return None
    return _decide(verdict, Fraction(1), 4)


# ---------------------------------------------------------------------------
# quadratic irrationals


def _squarefree_decompose(n: int) -> tuple:
    """n = s*s*d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ExactError("need a positive radicand")
    s, d = 1, n
    f = 2
    while f * f <= d:
        f2 = f * f
        while d % f2 == 0:
            d //= f2
            s *= f
        f += 1
    return s, d


def _cmp_sqrt(a: int, q: int, d: int) -> int:
    """Exact sign of a - q*sqrt(d)."""
    if q == 0:
        return _sign(a)
    if a <= 0 < q:
        return -1
    if q < 0 <= a:
        return 1
    s = _sign(a)  # a and q share this sign here
    return s * _sign(a * a - q * q * d)


class QuadraticReal:
    """``(p + q*sqrt(d)) / r`` with d > 0 squarefree, r > 0, gcd(p,q,r) = 1.

    Closed under field arithmetic within a fixed Q(sqrt(d)); supports exact
    floor, comparison and continued-fraction digit streams (detecting the
    eventual period exactly).
    """

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int, d: int, r: int):
        if r == 0:
            raise ExactError("zero denominator")
        d = int(d)
        if d <= 0 or isqrt(d) ** 2 == d:
            raise ExactError("radicand must be positive and not a square")
        s, d0 = _squarefree_decompose(d)
        p, q, r = int(p), int(q) * s, int(r)
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(abs(p), abs(q)), r)
        self.p, self.q, self.d, self.r = p // g, q // g, d0, r // g

    @classmethod
    def from_fraction(cls, x: Fraction, d: int = 2) -> "QuadraticReal":
        x = Fraction(x)
        return cls(x.numerator, 0, d, x.denominator)

    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ExactError("value is irrational")
        return Fraction(self.p, self.r)

    def __repr__(self):
        return f"QuadraticReal(({self.p} + {self.q}*sqrt({self.d}))/{self.r})"

    def key(self) -> tuple:
        return (self.p, self.q, self.d, self.r)

    def __eq__(self, other):
        return isinstance(other, QuadraticReal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ----------------------------------------------------------
    def _coerce(self, other) -> "QuadraticReal":
        if isinstance(other, QuadraticReal):
            if other.q != 0 and self.q != 0 and other.d != self.d:
                raise ExactError("mixed radicands")
            return other
        return QuadraticReal(Fraction(other).numerator, 0, self.d,
                             Fraction(other).denominator)

    def __add__(self, other):
        o = self._coerce(other)
        d = self.d if self.q != 0 else o.d
        return QuadraticReal(self.p * o.r + o.p * self.r,
                             self.q * o.r + o.q * self.r, d, self.r * o.r)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return QuadraticReal(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.d if self.q != 0 else o.d
        p = self.p * o.p + self.q * o.q * d
        q = self.p * o.q + self.q * o.p
        return QuadraticReal(p, q, d, self.r * o.r)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int) -> "QuadraticReal":
        if n < 0:
            return (self ** (-n)).inverse()
        acc = QuadraticReal(1, 0, self.d, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "QuadraticReal":
        # r / (p + q sqrt d) = r (p - q sqrt d) / (p^2 - q^2 d)
        n = self.p * self.p - self.q * self.q * self.d
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadraticReal(self.r * self.p, -self.r * self.q, self.d, n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "QuadraticReal":
        return QuadraticReal(self.p, -self.q, self.d, self.r)

    # -- order ----------------------------------------------------------------
    def sign(self) -> int:
        return _cmp_sqrt(self.p, -self.q, self.d)

    def compare(self, x) -> int:
        return (self - x).sign()

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def floor(self) -> int:
        lo, hi = self._float_bounds()
        k_lo, k_hi = _mfloor(lo) - 1, _mfloor(hi) + 1
        # widen the bracket if the coarse bounds were off, then bisect
        while self.compare(Fraction(k_lo)) < 0:
            k_lo -= max(1, k_hi - k_lo)
        while self.compare(Fraction(k_hi)) >= 0:
            k_hi += max(1, k_hi - k_lo)
        while k_hi - k_lo > 1:
            mid = (k_lo + k_hi) // 2
            if self.compare(Fraction(mid)) >= 0:
                k_lo = mid
            else:
                k_hi = mid
        return k_lo

    def _float_bounds(self):
        s = isqrt(self.d * 4 ** 30)
        lo = Fraction(self.p) + Fraction(self.q) * (
            Fraction(s, 2 ** 30) if self.q >= 0 else Fraction(s + 1, 2 ** 30))
        hi = Fraction(self.p) + Fraction(self.q) * (
            Fraction(s + 1, 2 ** 30) if self.q >= 0 else Fraction(s, 2 ** 30))
        return lo / self.r, hi / self.r

    def enclosure(self, width: Fraction) -> RatInterval:
        width = Fraction(width)
        if self.q == 0:
            v = Fraction(self.p, self.r)
            return RatInterval(v, v)
        k = 4
        while True:
            s = isqrt(self.d * 4 ** k)
            slo, shi = Fraction(s, 2 ** k), Fraction(s + 1, 2 ** k)
            if self.q >= 0:
                lo = (self.p + self.q * slo) / self.r
                hi = (self.p + self.q * shi) / self.r
            else:
                lo = (self.p + self.q * shi) / self.r
                hi = (self.p + self.q * slo) / self.r
            if hi - lo <= width:
                return RatInterval(lo, hi)
            k += max(4, (width.denominator.bit_length() - k))

    def __float__(self):
        return float(self.enclosure(Fraction(1, 2 ** 56)).mid)


def algebraic_to_quadratic(a: AlgebraicReal) -> Optional[QuadraticReal]:
    """Closed quadratic form of a degree-2 algebraic value, else None.

    The two quadratic-formula branches are both roots of the defining
    polynomial; the one whose value lies strictly inside the isolating
    interval is the represented value.
    """
    if a.is_rational() or a.minpoly.degree != 2:
        return None
    c0, c1, c2 = a.minpoly.coeffs
    disc = c1 * c1 - 4 * c2 * c0
    if disc <= 0 or isqrt(disc) ** 2 == disc:
        return None
    ivl = a.interval()
    w = ivl.width / 4 if ivl.width > 0 else Fraction(1, 16)
    for sgn in (1, -1):
        cand = QuadraticReal(-c1, sgn, disc, 2 * c2)

        def inside(w):
            civ = cand.enclosure(w)
            if civ.order(ivl) is not None:
                return False
            return True if civ.lo > ivl.lo and civ.hi < ivl.hi else None
        if _decide(inside, w, 16):
            return cand
    return None


def quadratic_to_algebraic(v: QuadraticReal) -> AlgebraicReal:
    """Embed a quadratic value as an AlgebraicReal (degree 1 if rational)."""
    if v.q == 0:
        x = Fraction(v.p, v.r)
        return AlgebraicReal(IntPolynomial([-x.numerator, x.denominator]),
                             RatInterval(x, x), _rational=x)
    p, q, d, r = v.p, v.q, v.d, v.r
    poly = IntPolynomial([p * p - q * q * d, -2 * p * r, r * r]).primitive()
    poly = poly.squarefree_part()
    chain = sturm_chain(poly)
    return _decide(lambda w: _isolated(poly, v.enclosure(w), chain),
                   Fraction(1, 4), 4)


# ---------------------------------------------------------------------------
# number fields


class NumberField:
    """Q(theta) for a fixed generator ``theta`` with squarefree defining
    polynomial.  The defining polynomial is assumed irreducible in the sense
    that inversion of a nonzero element must succeed; zero tests are exact
    even without that assumption.
    """

    def __init__(self, generator: AlgebraicReal):
        if generator.is_rational():
            raise ExactError("generator must be irrational")
        self.gen = generator
        p = generator.minpoly
        self.modulus = [Fraction(c) for c in p.coeffs]
        self.degree = p.degree
        lead = self.modulus[-1]
        # monic reduction row: x^deg = -(lower terms)/lead
        self.red = [-c / lead for c in self.modulus[:-1]]

    def element(self, coords) -> "FieldElement":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            cs = self._reduce(cs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def rational(self, x) -> "FieldElement":
        return self.element([Fraction(x)])

    def generator(self) -> "FieldElement":
        return self.element([0, 1])

    def _reduce(self, cs: list) -> list:
        cs = list(cs)
        while len(cs) > self.degree:
            top = cs.pop()
            if top != 0:
                k = len(cs) - self.degree
                for i, rc in enumerate(self.red):
                    cs[k + i] += top * rc
        return cs

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus \
            and same_value(self.gen, other.gen)

    def __hash__(self):
        return hash(tuple(self.modulus))


class FieldElement:
    """Element of a NumberField, by coordinates in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        self.field = field
        self.coords = coords

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"

    # -- ring ops -------------------------------------------------------------
    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ExactError("elements of different fields")
            return other
        return self.field.rational(Fraction(other))

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.coords, o.coords)))

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        prod = _poly_mul_frac(list(self.coords), list(o.coords))
        red = self.field._reduce(prod)
        red += [Fraction(0)] * (self.field.degree - len(red))
        return FieldElement(self.field, tuple(red[: self.field.degree]))

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inverse()
        acc = self.field.rational(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        a = _frac_trim(list(self.coords))
        if not a:
            raise ZeroDivisionError("inverse of zero")
        m = list(self.field.modulus)
        # extended Euclid over Q[x]
        r0, r1 = m, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _frac_trim(list(r1)):
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s_new = _poly_sub_frac(s0, _poly_mul_frac(q, s1))
            s0, s1 = s1, s_new
        r0 = _frac_trim(r0)
        if len(r0) != 1:
            if self.is_zero():
                raise ZeroDivisionError("inverse of zero")
            raise ExactError("defining polynomial reducible at this element")
        inv = [c / r0[0] for c in s0]
        inv = self.field._reduce(inv)
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return FieldElement(self.field, tuple(inv[:self.field.degree]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- decisions --------------------------------------------------------------
    def is_zero(self) -> bool:
        if all(c == 0 for c in self.coords):
            return True
        num = _from_frac_primitive(list(self.coords))
        if num.is_zero():
            return True
        g = poly_gcd(num, _from_frac_primitive(self.field.modulus))
        if g.degree < 1:
            return False
        # the generator's isolating interval contains no other root of the
        # modulus, hence no other root of g; count >= 1 iff g(theta) = 0
        gen = self.field.gen
        iv = gen.interval()
        while g.eval(iv.lo) == 0 or g.eval(iv.hi) == 0:
            iv = gen.enclosure(iv.width / 4)
        return sturm_root_count(g, iv) >= 1

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactError("value is irrational")
        return self.coords[0]

    def _image(self, w: Fraction) -> RatInterval:
        """Interval image of the generator's enclosure of width <= w."""
        return _eval_frac_interval(self.coords, self.field.gen.enclosure(w))

    def _gen_width(self) -> Fraction:
        return self.field.gen.interval().width or Fraction(1, 4)

    def enclosure(self, width: Fraction) -> RatInterval:
        width = Fraction(width)
        if self.is_rational():
            v = self.coords[0]
            return RatInterval(v, v)

        def narrow(w):
            out = self._image(w)
            return out if out.width <= width else None
        return _decide(narrow, self._gen_width(), 4)

    def sign(self) -> int:
        if all(c == 0 for c in self.coords):
            return 0
        w = self._gen_width()

        def sign_at(w):
            return self._image(w).sign()
        s = _decide(sign_at, w, 16, rounds=8)
        if s is not None:
            return s
        if self.is_zero():
            return 0
        return _decide(sign_at, w / 16 ** 9, 16)

    def compare(self, other) -> int:
        return (self - other).sign()

    def abs(self) -> "FieldElement":
        return self if self.sign() >= 0 else -self

    def floor(self) -> int:
        if self.is_rational():
            return _mfloor(self.coords[0])

        def floor_at(width):
            iv = self.enclosure(width)
            flo, fhi = _mfloor(iv.lo), _mfloor(iv.hi)
            if flo == fhi:
                return flo
            if (self - fhi).is_zero():
                return fhi
            if (self - fhi).sign() < 0 and flo == fhi - 1:
                return fhi - 1
            return None
        return _decide(floor_at, Fraction(1, 4), 16)

    def __float__(self):
        return float(self.enclosure(Fraction(1, 2 ** 56)).mid)

    def min_polynomial(self) -> IntPolynomial:
        """Squarefree annihilating polynomial via power-basis linear algebra."""
        d = self.field.degree
        rows = []
        acc = self.field.rational(1)
        for _ in range(d + 1):
            rows.append(list(acc.coords))
            acc = acc * self
        # find the first k with v^k in the span of 1, v, ..., v^(k-1)
        for k in range(1, d + 1):
            sol = _solve([[rows[i][j] for i in range(k)] for j in range(d)],
                         [-c for c in rows[k]])
            if sol is not None:
                return _from_frac_primitive(sol + [Fraction(1)]).squarefree_part()
        raise ExactError("no annihilating polynomial found")

    def as_algebraic(self) -> AlgebraicReal:
        if self.is_rational():
            x = self.coords[0]
            return AlgebraicReal(IntPolynomial([-x.numerator, x.denominator]),
                                 RatInterval(x, x), _rational=x)
        poly = self.min_polynomial()
        chain = sturm_chain(poly)
        return _decide(lambda w: _isolated(poly, self.enclosure(w), chain),
                       Fraction(1, 16), 16)


def _poly_sub_frac(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _eval_frac_interval(cs: list, iv: RatInterval) -> RatInterval:
    acc = RatInterval(Fraction(0), Fraction(0))
    for c in reversed(cs):
        acc = acc * iv + RatInterval(Fraction(c), Fraction(c))
    return acc


def _is_zero(x) -> bool:
    return x == 0 if isinstance(x, (int, Fraction)) else x.is_zero()


def _echelon(rows: list) -> tuple:
    """Forward Gaussian elimination over exact scalars: Fractions, or
    QuadraticReals or FieldElements of one field, mixed with Fractions.

    Returns ``(rows, pivots, sign)``: the matrix in row echelon form, the
    pivot column of each leading row, and the sign of the row permutation.
    """
    rows = [list(r) for r in rows]
    pivots = []
    sign = 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows))
                    if not _is_zero(rows[r][col])), None)
        if piv is None:
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            sign = -sign
        pivot = rows[top][col]
        inv = 1 / Fraction(pivot) if isinstance(pivot, (int, Fraction)) \
            else pivot.inverse()
        for r in range(top + 1, len(rows)):
            if _is_zero(rows[r][col]):
                continue
            factor = rows[r][col] * inv
            rows[r][col:] = [x - factor * y
                             for x, y in zip(rows[r][col:], rows[top][col:])]
        pivots.append(col)
    return rows, pivots, sign


def _det(rows: list):
    """Exact determinant of a square matrix of scalars."""
    ech, pivots, sign = _echelon(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    det = Fraction(sign)
    for i, row in enumerate(ech):
        det = row[i] * det
    return det


def _solve(a: list, b: list) -> Optional[list]:
    """A solution x of ``a x = b`` (unknowns without a pivot set to 0), or
    None when the system is inconsistent."""
    n = len(a[0])
    ech, pivots, _ = _echelon([list(r) + [v] for r, v in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, col in reversed(list(zip(ech, pivots))):
        acc = row[n]
        for j in range(col + 1, n):
            acc -= row[j] * x[j]
        x[col] = acc / row[col]
    return x


# ---------------------------------------------------------------------------
# root extraction on rational intervals


def _int_nth_root(n: int, k: int) -> int:
    """Largest integer r with r**k <= n (n >= 0); integer Newton iteration."""
    if n < 0:
        raise ExactError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        r2 = ((k - 1) * r + n // r ** (k - 1)) // k
        if r2 >= r:
            break
        r = r2
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def nth_root_interval(x, k: int, width: Fraction) -> RatInterval:
    """Enclosure of x**(1/k) for x a nonneg Fraction or RatInterval."""
    if isinstance(x, RatInterval):
        lo = nth_root_interval(x.lo, k, width / 2).lo
        hi = nth_root_interval(x.hi, k, width / 2).hi
        return RatInterval(lo, hi)
    x = Fraction(x)
    if x < 0:
        raise ExactError("negative radicand")
    if x == 0:
        return RatInterval(Fraction(0), Fraction(0))
    width = Fraction(width)
    prec = 8
    while True:
        scale = 2 ** (prec * k)
        v = (x.numerator * scale) // x.denominator
        r = _int_nth_root(v, k)
        lo = Fraction(r, 2 ** prec)
        hi = Fraction(r + 1, 2 ** prec)
        if hi - lo <= width:
            return RatInterval(lo, hi)
        prec *= 2


def sqrt_interval(x, width: Fraction) -> RatInterval:
    return nth_root_interval(x, 2, width)
