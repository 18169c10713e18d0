"""Continued fractions: exact expansion, convergents, cylinder measures,
a truncated Diophantine-exponent statistic, and assembly of quadratic values
from prescribed digit sequences with periodic tails.

Digit conventions: an expansion is ``[a0; d1, d2, ...]`` with all partial
quotients ``d_i >= 1``.  Finite (rational) expansions are canonical: they
never end in the redundant digit 1.  Expansions of algebraic numbers are
computed lazily and exactly.  Quadratic values, including degree-2
algebraic roots, carry their tail in closed form, which exposes the
eventual period.  Every other algebraic value (number field elements are
converted once to an ``AlgebraicReal``) keeps the value itself plus its
last two convergents: the next digit is the largest ``a`` for which the
value lies on the correct side of ``(a p_k + p_{k-1}) / (a q_k + q_{k-1})``,
found by exact comparisons with rationals only.  A comparison that hits
equality proves the value rational and ends the expansion.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import floor as _mfloor
from typing import List, Optional, Sequence, Tuple, Union

from .exactcore import (
    AlgebraicReal,
    ExactError,
    FieldElement,
    QuadraticReal,
    RatInterval,
    algebraic_to_quadratic,
)

Value = Union[Fraction, int, AlgebraicReal, QuadraticReal, FieldElement]

DIGIT_GUARD = 10 ** 6


@dataclass(frozen=True)
class Convergent:
    """Reduced convergent p/q at a given digit index."""

    index: int
    p: int
    q: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


class CFExpansion:
    """Digit prefix plus tail descriptor of a continued fraction.

    ``tail`` is one of ``"finite"`` (rational value, digits complete),
    ``"periodic"`` (eventually repeating block, digits available at any
    index) or ``"lazy"`` (resumable to any depth, backed by the exact tail
    value for rational and quadratic values, or by a ``_ConvergentTail``
    for every other algebraic value).  Digit computation is memoized;
    concurrent reads are safe and digit production is serialized per
    expansion.
    """

    def __init__(self, a0: int, digits: List[int], state, *,
                 periodic_block: Optional[Tuple[int, ...]] = None,
                 digit_limit: Optional[int] = DIGIT_GUARD):
        self.a0 = int(a0)
        self._digits = list(digits)  # alpha_1, alpha_2, ... computed so far
        self._state = state  # exact tail value after consumed digits, or None
        self._block = periodic_block
        self._seen = {}  # quadratic tail states -> digit index (period scan)
        self._limit = digit_limit
        self._lock = threading.Lock()

    # -- tail descriptor ------------------------------------------------------
    @property
    def tail(self) -> str:
        if self._block is not None:
            return "periodic"
        if self._state is None:
            return "finite"
        return "lazy"

    @property
    def period_block(self) -> Optional[Tuple[int, ...]]:
        return self._block

    def finite_length(self) -> Optional[int]:
        """Last digit index of a finite expansion, else None."""
        if self.tail == "finite":
            return len(self._digits)
        return None

    def clip(self, n: int) -> int:
        """``n``, or the last digit index if the expansion is finite and
        ends before ``n``."""
        L = self.finite_length()
        return n if L is None else min(n, L)

    def max_digit_from(self, i: int) -> int:
        """Max over all digits alpha_j with j >= i (periodic tails only)."""
        if self._block is None:
            raise ExactError("tail digit bound needs a periodic expansion")
        cands = list(self._block)
        for j in range(max(i, 1), len(self._digits) + 1):
            cands.append(self._digits[j - 1])
        return max(cands)

    # -- digit access -----------------------------------------------------------
    def digit(self, i: int, override_guard: bool = False) -> int:
        """Exact digit alpha_i (alpha_0 = a0)."""
        if i < 0:
            raise ExactError("negative digit index")
        if i == 0:
            return self.a0
        self._ensure(i, override_guard)
        if i <= len(self._digits):
            return self._digits[i - 1]
        # periodic tail beyond materialized prefix
        blk = self._block
        return blk[(i - 1 - len(self._digits)) % len(blk)]

    def digits_upto(self, n: int, override_guard: bool = False) -> List[int]:
        """[alpha_0, ..., alpha_n]."""
        return [self.digit(i, override_guard) for i in range(n + 1)]

    def has_digit(self, i: int) -> bool:
        if i <= 0:
            return True
        if self.tail == "finite":
            return i <= len(self._digits)
        return True

    def _ensure(self, i: int, override_guard: bool):
        if i <= len(self._digits) or self._block is not None:
            return
        with self._lock:
            while len(self._digits) < i and self._state is not None \
                    and self._block is None:
                self._step(override_guard)
        if self._state is None and self._block is None and i > len(self._digits):
            raise ExactError(
                f"finite expansion has {len(self._digits)} digits, "
                f"requested index {i}")

    def _step(self, override_guard: bool):
        v = self._state
        if isinstance(v, Fraction):
            a = _mfloor(v)
            if v == a:
                # final digit; canonicalize a trailing 1
                if a == 1 and self._digits:
                    self._digits[-1] += 1
                else:
                    self._digits.append(a)
                self._state = None
                return
            self._digits.append(a)
            self._state = 1 / (v - a)
            return
        if isinstance(v, QuadraticReal):
            if v.is_rational():
                self._state = v.as_fraction()
                return self._step(override_guard)
            key = v.key()
            if key in self._seen:
                start = self._seen[key]
                self._block = tuple(self._digits[start:])
                self._digits = self._digits[:start]
                self._state = None
                return
            a = v.floor()
            self._guard(a, override_guard)
            self._seen[key] = len(self._digits)
            self._digits.append(a)
            self._state = (v - Fraction(a)).inverse()
            return
        if isinstance(v, _ConvergentTail):
            a = v.next_digit()
            if v.x.is_rational():  # a comparison hit the value exactly
                self._state = v.rational_tail()
                return self._step(override_guard)
            self._guard(a, override_guard)
            self._digits.append(a)
            v.push(a)
            return
        raise ExactError(f"cannot expand values of type {type(v).__name__}")

    def _guard(self, a: int, override: bool):
        if self._limit is not None and not override and a > self._limit:
            raise ExactError(
                f"digit {a} exceeds the size guard {self._limit}; "
                "pass override_guard=True to continue")

    def resolve_period(self, override_guard: bool = False,
                       cap: int = 1_000_000):
        """Walk a quadratic-backed tail until its eventual period is found
        (always happens for quadratic irrationals); rational tails simply
        terminate.  No effect on other tail kinds."""
        steps = 0
        with self._lock:
            while self._block is None and isinstance(
                    self._state, (QuadraticReal, Fraction)):
                self._step(override_guard)
                if self._state is None:
                    return
                steps += 1
                if steps > cap:
                    raise ExactError("period resolution exceeded the cap")


class _ConvergentTail:
    """Lazy tail of an irrational algebraic value x after k >= 0 digits.

    Holds x, which never changes, and the convergents p_k/q_k and
    p_{k-1}/q_{k-1}.  The tail value t satisfies
    x = (t p_k + p_{k-1}) / (t q_k + q_{k-1}) with t > 1, so t >= a exactly
    when x lies on t's side of (a p_k + p_{k-1}) / (a q_k + q_{k-1}); the
    map t -> x increases when p_k q_{k-1} - p_{k-1} q_k > 0 and decreases
    otherwise.
    """

    __slots__ = ("x", "p", "q", "p_prev", "q_prev")

    def __init__(self, x: AlgebraicReal, a0: int):
        self.x = x
        self.p, self.q = a0, 1
        self.p_prev, self.q_prev = 1, 0

    def _tail_at_least(self, a: int) -> bool:
        c = self.x.compare(Fraction(a * self.p + self.p_prev,
                                    a * self.q + self.q_prev))
        increasing = self.p * self.q_prev - self.p_prev * self.q > 0
        return c == 0 or (c > 0) == increasing

    def next_digit(self) -> int:
        """floor(t): double a while t >= a, then bisect the last step."""
        lo, hi = 1, 2
        while self._tail_at_least(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._tail_at_least(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def push(self, a: int):
        self.p, self.p_prev = a * self.p + self.p_prev, self.p
        self.q, self.q_prev = a * self.q + self.q_prev, self.q

    def rational_tail(self) -> Fraction:
        """Exact t once x is known to be rational."""
        v = self.x.as_fraction()
        return (self.p_prev - v * self.q_prev) / (v * self.q - self.p)


def expand(x: Value, depth: int, *, digit_limit: Optional[int] = DIGIT_GUARD,
           override_guard: bool = False) -> CFExpansion:
    """Exact continued fraction of ``x`` with at least ``depth + 1`` digits
    materialized (fewer only if the expansion terminates earlier)."""
    if depth < 0:
        raise ExactError("depth must be nonnegative")
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        a0 = _mfloor(x)
        cf = CFExpansion(a0, [], None if x == a0 else 1 / (x - a0),
                         digit_limit=digit_limit)
    elif isinstance(x, QuadraticReal):
        if x.is_rational():
            return expand(x.as_fraction(), depth, digit_limit=digit_limit)
        a0 = x.floor()
        cf = CFExpansion(a0, [], (x - Fraction(a0)).inverse(),
                         digit_limit=digit_limit)
    elif isinstance(x, (AlgebraicReal, FieldElement)):
        if isinstance(x, FieldElement):
            x = x.as_algebraic()
        q = algebraic_to_quadratic(x)
        if q is not None:  # closed quadratic form: the period is detected
            return expand(q, depth, digit_limit=digit_limit,
                          override_guard=override_guard)
        a0 = x.floor()
        if x.is_rational():  # possibly exposed by the floor refinement
            return expand(x.as_fraction(), depth, digit_limit=digit_limit)
        cf = CFExpansion(a0, [], _ConvergentTail(x, a0),
                         digit_limit=digit_limit)
    else:
        raise ExactError(f"cannot expand values of type {type(x).__name__}")
    for i in range(1, depth + 1):
        if not cf.has_digit(i):
            break
        cf.digit(i, override_guard)
    if isinstance(cf._state, (QuadraticReal, Fraction)):
        try:
            cf.resolve_period(override_guard)
        except ExactError:
            pass  # guarded digit mid-walk: leave the tail lazily resumable
    return cf


def convergents(cf: CFExpansion, upto: int) -> List[Convergent]:
    """Convergents p_0/q_0 ... p_upto/q_upto by the three-term recurrence."""
    L = cf.finite_length()
    if L is not None and upto > L:
        raise ExactError(
            f"finite expansion ends at index {L}, requested {upto}")
    p_prev, q_prev = 1, 0
    p, q = cf.a0, 1
    out = [Convergent(0, p, q)]
    for i in range(1, upto + 1):
        a = cf.digit(i)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Convergent(i, p, q))
    return out


def cf_value(a0: int, digits: Sequence[int]) -> Fraction:
    """Exact value of the finite continued fraction [a0; digits]."""
    p_prev, q_prev = 1, 0
    p, q = int(a0), 1
    for a in digits:
        if a < 1:
            raise ExactError("digits must be >= 1")
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return Fraction(p, q)


def approx_error(x: Value, N: int, cf: Optional[CFExpansion] = None) -> RatInterval:
    """Exact enclosure of |x - p_N/q_N|.

    Uses the identity error = 1/(q_N (a_{N+1} q_N + q_{N-1})) with the tail
    value a_{N+1} enclosed by [alpha_{N+1}, alpha_{N+1} + 1]; exact (width
    zero) whenever x is rational.
    """
    cf = cf if cf is not None else expand(x, N + 1)
    L = cf.finite_length()
    if L is not None and N > L:
        raise ExactError(f"expansion ends at index {L}")
    cv = convergents(cf, N)
    pq = cv[N]
    if L is not None:
        # rational value: direct exact subtraction
        xv = x if isinstance(x, Fraction) else (
            Fraction(x) if isinstance(x, int) else x.as_fraction())
        e = abs(xv - pq.as_fraction())
        return RatInterval(e, e)
    qN = pq.q
    qNm1 = cv[N - 1].q if N >= 1 else 0
    alpha = cf.digit(N + 1)
    lo = Fraction(1, qN * ((alpha + 1) * qN + qNm1))
    hi = Fraction(1, qN * (alpha * qN + qNm1))
    return RatInterval(lo, hi)


def is_convergent(x: Value, X: int, Y: int, depth: int,
                  cf: Optional[CFExpansion] = None) -> bool:
    """True iff (X, Y) appears among the first ``depth`` convergents of x."""
    if Y <= 0:
        raise ExactError("denominator must be positive")
    if math.gcd(abs(X), Y) != 1:
        raise ExactError("(X, Y) must be coprime")
    cf = cf if cf is not None else expand(x, depth)
    top = cf.clip(depth)
    p_prev, q_prev = 1, 0
    p, q = cf.a0, 1
    if (p, q) == (X, Y):
        return True
    for i in range(1, top + 1):
        a = cf.digit(i)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > Y:
            return False
        if (p, q) == (X, Y):
            return True
    return False


def assemble(a0: int, prefix: Sequence[int], tail_block: Sequence[int]) -> QuadraticReal:
    """Exact value of the eventually periodic continued fraction
    [a0; prefix, tail_block, tail_block, ...]."""
    prefix = [int(d) for d in prefix]
    block = [int(d) for d in tail_block]
    if not block:
        raise ExactError("periodic block must be nonempty")
    if any(d < 1 for d in prefix) or any(d < 1 for d in block):
        raise ExactError("all digits must be >= 1")
    # fixed point of the block's Mobius matrix
    A, B, C, D = 1, 0, 0, 1
    for d in block:
        A, B, C, D = A * d + B, A, C * d + D, C
    # t = [block; block; ...] satisfies C t^2 + (D - A) t - B = 0, t > 1
    disc = (A - D) * (A - D) + 4 * B * C
    t = QuadraticReal(A - D, 1, disc, 2 * C)
    # apply a0 and the prefix as a Mobius image of the periodic tail
    MA, MB, MC, MD = int(a0), 1, 1, 0
    for d in prefix:
        MA, MB, MC, MD = MA * d + MB, MA, MC * d + MD, MC
    num = t * MA + MB
    den = t * MC + MD
    return num / den


def cylinder_interval(a0: int, prefix: Sequence[int]) -> RatInterval:
    """The set {x : alpha_i(x) = prefix_i for all i <= N} as an interval."""
    prefix = [int(d) for d in prefix]
    if any(d < 1 for d in prefix):
        raise ExactError("all digits must be >= 1")
    if not prefix:
        return RatInterval(Fraction(a0), Fraction(a0 + 1))
    z1 = cf_value(a0, prefix)
    bumped = prefix[:-1] + [prefix[-1] + 1]
    z2 = cf_value(a0, bumped)
    return RatInterval(min(z1, z2), max(z1, z2))


def cylinder_measure(a0: int, prefix: Sequence[int], k: int) -> Fraction:
    """Exact Lebesgue measure of the cylinder fixing ``prefix`` and next
    digit ``k``: 1 / ((k Q_N + Q_{N-1}) ((k+1) Q_N + Q_{N-1}))."""
    if k < 1:
        raise ExactError("digit must be >= 1")
    prefix = [int(d) for d in prefix]
    if any(d < 1 for d in prefix):
        raise ExactError("all digits must be >= 1")
    qN, qNm1 = 1, 0
    for a in prefix:
        qN, qNm1 = a * qN + qNm1, qN
    return Fraction(1, (k * qN + qNm1) * ((k + 1) * qN + qNm1))


def _log_ratio_bounds(a: int, q: int, denom_bits: int = 6) -> RatInterval:
    """Enclosure of log(a)/log(q) for integers a >= 2, q >= 2, by exact
    integer power comparisons.  Detects exact powers (width-zero result)."""
    if a < 2 or q < 2:
        raise ExactError("need integers >= 2")
    # exact power detection
    t = round(math.log(a) / math.log(q))
    if t >= 1 and q ** t == a:
        return RatInterval(Fraction(t), Fraction(t))
    s = 2 ** denom_bits
    # binary search the integer m with q^m <= a^s < q^(m+1)
    lo_m, hi_m = 0, 1
    while q ** hi_m <= a ** s:
        hi_m *= 2
    while lo_m < hi_m - 1:
        mid = (lo_m + hi_m) // 2
        if q ** mid <= a ** s:
            lo_m = mid
        else:
            hi_m = mid
    return RatInterval(Fraction(lo_m, s), Fraction(lo_m + 1, s))


def dioph_exponent_estimate(x: Value, depth: int,
                            cf: Optional[CFExpansion] = None,
                            denom_bits: int = 6) -> RatInterval:
    """Truncated exponent statistic 2 + max_{2<=i<=depth} log(alpha_i)/log(Q_{i-1}).

    This is an estimate at finite depth, not the limsup; indices with
    alpha_i = 1 contribute 0 and indices with Q_{i-1} < 2 are skipped.
    Returns a rational enclosure (exact [2, 2] when no index contributes).
    """
    if depth < 2:
        raise ExactError("depth must be >= 2")
    cf = cf if cf is not None else expand(x, depth)
    top = cf.clip(depth)
    qN, qNm1 = 1, 0
    best_lo = best_hi = None
    for i in range(1, top + 1):
        a = cf.digit(i)
        if i >= 2 and a >= 2 and qN >= 2:
            r = _log_ratio_bounds(a, qN, denom_bits)
            best_lo = r.lo if best_lo is None else max(best_lo, r.lo)
            best_hi = r.hi if best_hi is None else max(best_hi, r.hi)
        qN, qNm1 = a * qN + qNm1, qN
    if best_lo is None:
        return RatInterval(Fraction(2), Fraction(2))
    return RatInterval(2 + best_lo, 2 + best_hi)
