"""Small exact helpers for the generators and checks, written without
formspec so that checks recompute results independently of the code under
test.  Polynomials are lists of Fractions or ints, lowest degree first."""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt
from typing import List, Sequence, Tuple


def _trim(p: List[Fraction]) -> List[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _rem(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a = [Fraction(c) for c in a]
    while len(a) >= len(b) and any(a):
        k = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= k * c
        a.pop()
    return _trim(a or [Fraction(0)])


def _deriv(p: Sequence) -> List[Fraction]:
    return [Fraction(i * c) for i, c in enumerate(p)][1:] or [Fraction(0)]


def _gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    while any(b):
        a, b = b, _rem(a, b)
    return a


def is_squarefree(p: Sequence[int]) -> bool:
    """gcd(p, p') is constant, i.e. the discriminant is nonzero."""
    return len(_gcd([Fraction(c) for c in p], _deriv(p))) == 1


def peval(p: Sequence, t):
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def has_rational_root(p: Sequence[int]) -> bool:
    """Rational root test: a root r/s has r | p[0] and s | p[-1]."""
    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]
    if p[0] == 0:
        return True
    for r in divisors(p[0]):
        for s in divisors(p[-1]):
            for sgn in (1, -1):
                if peval(p, Fraction(sgn * r, s)) == 0:
                    return True
    return False


def real_root_count(p: Sequence[int]) -> int:
    """Distinct real roots of a squarefree polynomial (Sturm's theorem,
    signs at -infinity and +infinity)."""
    chain = _sturm_chain(p)
    at_pos = sum(1 for a, b in zip(chain, chain[1:])
                 if (a[-1] > 0) != (b[-1] > 0))
    at_neg = sum(1 for a, b in zip(chain, chain[1:])
                 if (a[-1] > 0) != (b[-1] > 0) ^ ((len(a) - len(b)) % 2 == 1))
    return at_neg - at_pos


def _sturm_chain(p: Sequence[int]) -> List[List[Fraction]]:
    chain = [[Fraction(c) for c in p], _deriv(p)]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if len(r) == 1 and r[0] == 0:
            break
        chain.append([-c for c in r])
    return chain


def _variations(chain, t: Fraction) -> int:
    signs = [v for v in (peval(q, t) for q in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def isolation_meets_root(p: Sequence[int]) -> bool:
    """True when bisecting the Cauchy interval (-B, B] to isolate the real
    roots of squarefree ``p`` lands exactly on a root.  This is the order
    of cuts formspec's root isolation makes; a root met this way is held as
    an exact rational, one that is not is held only as an interval."""
    chain = _sturm_chain(p)

    def count(lo, hi):  # roots in (lo, hi]
        return _variations(chain, lo) - _variations(chain, hi)

    def sign(t):
        v = peval(p, t)
        return (v > 0) - (v < 0)

    def single(lo, hi) -> bool:
        if sign(hi) == 0:
            return True
        if sign(lo) == 0:
            step = hi - lo
            while True:
                step /= 2
                if sign(lo + step) == 0:
                    return True
                if count(lo + step, hi) == 1:
                    lo += step
                    break
        while sign(lo) == sign(hi):
            mid = (lo + hi) / 2
            if sign(mid) == 0:
                return True
            if count(lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        return False

    def split(lo, hi, cnt) -> bool:
        if cnt == 0:
            return False
        if cnt == 1:
            return single(lo, hi)
        mid = (lo + hi) / 2
        if sign(mid) == 0:
            return True
        left = count(lo, mid)
        return split(lo, mid, left) or split(mid, hi, cnt - left)

    bound = 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))
    return split(-bound, bound, count(-bound, bound))


def form_value(coeffs_high_first: Sequence, x, y):
    """P(x, y) = sum c_i x^i y^(n-i) for the canonical "n: c_n ... c_0"."""
    n = len(coeffs_high_first) - 1
    return sum(c * x ** (n - k) * y ** k
               for k, c in enumerate(coeffs_high_first))


def parse_form(text: str) -> List[int]:
    deg, rest = text.split(":")
    cs = [int(t) for t in rest.split()]
    if len(cs) != int(deg) + 1:
        raise ValueError(f"bad form text {text!r}")
    return cs


# --------------------------------------------------------------------------
# the two reference values of dioph-search and the spectrum form's root

CUBIC = [-1, -2, 1, 1]  # x^3 + x^2 - 2x - 1, low first


def reference_inside(ref: str, lo: Fraction, hi: Fraction) -> bool:
    """lo < ref < hi, decided exactly."""
    if ref == "phi":  # phi = (1 + sqrt 5) / 2 is the root of t^2 - t - 1
        f = [-1, -1, 1]
    else:
        f = CUBIC
    # both references are the largest root and f is increasing beyond it
    # on the windows used here, so a sign change pins the root inside
    return 1 < lo and peval(f, lo) < 0 < peval(f, hi)


def _root_enclosure(p: Sequence[int], lo: Fraction, hi: Fraction,
                    bits: int) -> Tuple[Fraction, Fraction]:
    """Bisect a sign change of p on [lo, hi] to width 2^-bits."""
    slo = peval(p, lo) > 0
    while hi - lo > Fraction(1, 1 << bits):
        mid = (lo + hi) / 2
        v = peval(p, mid)
        if v == 0:
            return mid, mid
        if (v > 0) == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def euclid_digits(x: Fraction, cap: int) -> List[int]:
    out = []
    while len(out) < cap:
        a = floor(x)
        out.append(a)
        if x == a:
            break
        x = 1 / (x - a)
    return out


def cubic_root_digits(count: int) -> List[int]:
    """The first ``count`` CF digits of the largest root of x^3+x^2-2x-1,
    certified by agreement of both enclosure endpoints."""
    bits = 64
    while True:
        lo, hi = _root_enclosure(CUBIC, Fraction(1), Fraction(2), bits)
        da, db = euclid_digits(lo, count + 1), euclid_digits(hi, count + 1)
        if da[:count] == db[:count] and len(da) > count:
            return da[:count]
        bits *= 2


def reference_digits(ref: str, count: int) -> List[int]:
    return [1] * count if ref == "phi" else cubic_root_digits(count)


def convergent(digits: Sequence[int], k: int) -> Tuple[int, int]:
    """(p_k, q_k) of the digit list [a_0; a_1, ...]."""
    p_prev, q_prev, p, q = 1, 0, digits[0], 1
    for a in digits[1:k + 1]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q


def quadratic_digits(p: int, q: int, d: int, r: int, count: int) -> List[int]:
    """CF digits of (p + q sqrt d) / r with q != 0, d > 0 not a square.

    Rewritten as (P + sqrt D) / Q with Q | D - P^2, the classical
    recurrence keeps every integer bounded by D."""
    if q < 0:
        p, q, r = -p, -q, -r
    P, D, Q = p * abs(r), q * q * d * r * r, r * abs(r)
    s = isqrt(D)
    out = []
    for _ in range(count):
        # sqrt D is irrational, so floor((P + sqrt D) / Q) follows from s
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        out.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return out
