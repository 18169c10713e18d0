"""Binary forms, discriminants, the unimodular action, root extraction.

A :class:`BinaryForm` stores exact coefficients ``c_i`` of
``sum c_i x^i y^(n-i)``; coefficients are rationals or elements of one
number field.  A :class:`ProductForm` stores a form by its factorization
(linear factors ``x - v y`` plus positive-definite quadratic factors) and
evaluates magnitudes at integer points exactly; factors may live in
different fields, so products are compared through refinable enclosures.

Action convention: ``act(f, T)`` composes with the inverse matrix at the
coefficient level, so the roots of the result are the Mobius images
``T(root) = (a*root + b) / (c*root + d)`` of the roots of ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple, Union

from . import exactcore
from .exactcore import (
    AlgebraicReal,
    ExactError,
    FieldElement,
    IntPolynomial,
    NumberField,
    QuadraticReal,
    RatInterval,
    _decide,
    isolate_real_roots,
    nth_root_interval,
    quadratic_to_algebraic,
    same_value,
    sqrt_interval,
)

Scalar = Union[Fraction, int, FieldElement, QuadraticReal]


# ---------------------------------------------------------------------------
# scalar helpers (rational | quadratic | number-field values)


def scalar_is_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, QuadraticReal):
        return x.is_zero()
    if isinstance(x, FieldElement):
        return x.is_zero()
    if isinstance(x, AlgebraicReal):
        return x.is_rational() and x.as_fraction() == 0
    raise ExactError(f"not a scalar: {type(x).__name__}")


def scalar_sign(x) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    return x.sign()


def scalar_enclosure(x, width: Fraction) -> RatInterval:
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return RatInterval(x, x)
    return x.enclosure(width)


def scalar_is_rational(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return True
    return x.is_rational()


def scalar_as_fraction(x) -> Fraction:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    return x.as_fraction()


def scalar_to_algebraic(x) -> AlgebraicReal:
    if isinstance(x, AlgebraicReal):
        return x
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return AlgebraicReal(IntPolynomial([-x.numerator, x.denominator]),
                             RatInterval(x, x), _rational=x)
    if isinstance(x, QuadraticReal):
        return quadratic_to_algebraic(x)
    if isinstance(x, FieldElement):
        return x.as_algebraic()
    raise ExactError(f"not a scalar: {type(x).__name__}")


def compare_scalars(a, b) -> int:
    """Exact three-way comparison of two scalar values (any mix of kinds)."""
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a > b) - (a < b)
    if isinstance(b, Fraction):
        if isinstance(a, AlgebraicReal):
            return a.compare(b)
        return (a - b).sign()
    if isinstance(a, Fraction):
        return -compare_scalars(b, a)
    if isinstance(a, QuadraticReal) and isinstance(b, QuadraticReal) \
            and (a.q == 0 or b.q == 0 or a.d == b.d):
        return (a - b).sign()
    if isinstance(a, FieldElement) and isinstance(b, FieldElement) \
            and a.field == b.field:
        return (a - b).sign()
    # mixed exact kinds: compare through algebraic embeddings
    aa, bb = scalar_to_algebraic(a), scalar_to_algebraic(b)
    if same_value(aa, bb):
        return 0
    return _decide(lambda w: aa.enclosure(w).order(bb.enclosure(w)),
                   Fraction(1, 16), 16)


# ---------------------------------------------------------------------------
# exact magnitudes


class Mag:
    """Exact nonnegative magnitude ``coeff * prod |factor_i| * sqrt(rad)``.

    ``coeff`` is a nonnegative rational, factors are exact nonzero scalars,
    ``rad`` an optional positive rational under a square root.  Enclosures
    refine on demand; comparisons are decided by refinement with exact
    rational fast paths.
    """

    __slots__ = ("coeff", "factors", "rad")

    def __init__(self, coeff: Fraction, factors: tuple = (), rad: Optional[Fraction] = None):
        self.coeff = Fraction(coeff)
        if self.coeff < 0:
            raise ExactError("magnitude coefficient must be >= 0")
        self.factors = factors
        self.rad = None if rad is None or rad == 1 else Fraction(rad)
        if self.rad is not None and self.rad <= 0:
            raise ExactError("radicand must be positive")

    @classmethod
    def of(cls, value) -> "Mag":
        """Magnitude of a single exact scalar."""
        if isinstance(value, int):
            value = Fraction(value)
        if isinstance(value, Fraction):
            return cls(abs(value))
        if scalar_is_zero(value):
            return cls(Fraction(0))
        if scalar_is_rational(value):
            return cls(abs(scalar_as_fraction(value)))
        return cls(Fraction(1), (value,))

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_rational(self) -> bool:
        return not self.factors and self.rad is None

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactError("magnitude is irrational")
        return self.coeff

    def times(self, other: "Mag") -> "Mag":
        if self.is_zero() or other.is_zero():
            return Mag(Fraction(0))
        rad = None
        coeff = self.coeff * other.coeff
        if self.rad is not None and other.rad is not None:
            prod = self.rad * other.rad
            r = sqrt_exact(prod)
            if r is not None:
                coeff *= r
            else:
                rad = prod
        else:
            rad = self.rad if self.rad is not None else other.rad
        return Mag(coeff, self.factors + other.factors, rad)

    def scale(self, k: Fraction) -> "Mag":
        return Mag(self.coeff * abs(Fraction(k)), self.factors, self.rad)

    def enclosure(self, width: Fraction) -> RatInterval:
        if self.is_zero():
            return RatInterval(Fraction(0), Fraction(0))

        def narrow(w):
            iv = RatInterval(self.coeff, self.coeff)
            for f in self.factors:
                iv = iv * scalar_enclosure(f, w).abs()
            if self.rad is not None:
                iv = iv * sqrt_interval(self.rad, w)
            return iv if iv.width <= width else None
        return _decide(narrow, Fraction(1, 64), 16)

    def __float__(self):
        return float(self.enclosure(Fraction(1, 2 ** 48)).mid)

    def compare(self, other: "Mag") -> int:
        if self.is_zero() and other.is_zero():
            return 0
        if self.is_zero():
            return -1
        if other.is_zero():
            return 1
        if self.is_rational() and other.is_rational():
            return (self.coeff > other.coeff) - (self.coeff < other.coeff)
        c = _decide(lambda w: self.enclosure(w).order(other.enclosure(w)),
                    Fraction(1, 2 ** 10), 2 ** 8, rounds=40)
        return 0 if c is None else c  # equal to 330+ bits: treated as equal


def sqrt_exact(x: Fraction) -> Optional[Fraction]:
    """sqrt(x) if x is a perfect rational square, else None."""
    x = Fraction(x)
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# transforms


class Transform:
    """2x2 matrix with exact entries and determinant +1 or -1.

    Entries may be rationals, quadratic values or number-field elements
    (one field per matrix).  ``T(z) = (a z + b) / (c z + d)`` is the root
    action realized by :func:`act`.
    """

    __slots__ = ("a", "b", "c", "d", "det")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        self.a, self.b, self.c, self.d = a, b, c, d
        det = a * d - b * c
        if scalar_is_rational(det):
            dv = scalar_as_fraction(det)
            if dv == 1:
                self.det = 1
            elif dv == -1:
                self.det = -1
            else:
                raise ExactError(f"determinant must be +-1, got {dv}")
        else:
            raise ExactError("determinant must be +-1 exactly")

    @classmethod
    def identity(cls) -> "Transform":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    @classmethod
    def shear(cls, s: Fraction) -> "Transform":
        return cls(Fraction(1), Fraction(s), Fraction(0), Fraction(1))

    @classmethod
    def of_ints(cls, a: int, b: int, c: int, d: int) -> "Transform":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_identity(self) -> bool:
        return all(scalar_is_rational(e) and scalar_as_fraction(e) == v
                   for e, v in zip(self.entries(), (1, 0, 0, 1)))

    def __matmul__(self, other: "Transform") -> "Transform":
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return Transform(a, b, c, d)

    def inverse(self) -> "Transform":
        if self.det == 1:
            return Transform(self.d, -self.b, -self.c, self.a)
        return Transform(-self.d, self.b, self.c, -self.a)

    def apply(self, z):
        """Mobius image of an exact scalar or algebraic value."""
        if isinstance(z, AlgebraicReal) and not all(
                isinstance(e, (int, Fraction)) for e in self.entries()):
            raise ExactError("algebraic point needs rational matrix entries")
        if isinstance(z, AlgebraicReal):
            return z.mobius(Fraction(self.a), Fraction(self.b),
                            Fraction(self.c), Fraction(self.d))
        return _sc_div(self.a * z + self.b, self.c * z + self.d)

    def max_entry_distance_to_identity(self, width: Fraction = Fraction(1, 2 ** 40)) -> RatInterval:
        best = RatInterval(Fraction(0), Fraction(0))
        for e, v in zip(self.entries(), (1, 0, 0, 1)):
            iv = scalar_enclosure(e - v, width).abs()
            best = RatInterval(max(best.lo, iv.lo), max(best.hi, iv.hi))
        return best

    def __repr__(self):
        return f"Transform({self.a}, {self.b}; {self.c}, {self.d})"


def _sc_div(a, b):
    """a / b; a rational divisor is inverted as a Fraction, not in a field."""
    if isinstance(b, (int, Fraction)):
        if isinstance(a, (int, Fraction)):
            return Fraction(a) / b
        return a * (1 / Fraction(b))
    return a * b.inverse()


# ---------------------------------------------------------------------------
# binary forms


class BinaryForm:
    """Homogeneous form of degree n >= 2 with exact coefficients.

    ``coeffs[i]`` multiplies ``x^i y^(n-i)``.  Coefficients are Fractions,
    or elements of a single number field.  A form built from a known
    factorization keeps it as ``factors`` (a :class:`ProductForm`) so that
    downstream code can reuse exact roots without re-isolating them.
    """

    def __init__(self, degree: int, coeffs: Sequence[Scalar],
                 factors: Optional["ProductForm"] = None):
        if degree < 2:
            raise ExactError("degree must be >= 2")
        if len(coeffs) != degree + 1:
            raise ExactError("need degree + 1 coefficients")
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        field = None
        for c in cs:
            if isinstance(c, FieldElement):
                field = c.field
                break
        if field is not None:
            cs = [field.rational(c) if isinstance(c, Fraction) else c for c in cs]
            for c in cs:
                if not isinstance(c, FieldElement) or c.field != field:
                    raise ExactError("coefficients must share one field")
            if all(c.is_rational() for c in cs):
                cs = [c.as_fraction() for c in cs]
                field = None
        if all(scalar_is_zero(c) for c in cs):
            raise ExactError("form is identically zero")
        self.degree = degree
        self.coeffs = tuple(cs)
        self.field = field
        self.factors = factors
        self._root_cache: Optional[List[Scalar]] = None

    # -- text format -----------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "BinaryForm":
        """Parse the canonical text format ``"n: c_n ... c_0"``."""
        try:
            head, _, rest = text.partition(":")
            degree = int(head.strip())
            toks = rest.split()
            coeffs_desc = [Fraction(t) for t in toks]
        except (ValueError, ZeroDivisionError) as e:
            raise ExactError(f"malformed form text: {text!r}") from e
        if len(coeffs_desc) != degree + 1:
            raise ExactError(
                f"degree {degree} needs {degree + 1} coefficients, "
                f"got {len(coeffs_desc)}")
        return cls(degree, list(reversed(coeffs_desc)))

    def canonical_text(self) -> str:
        if self.field is not None:
            raise ExactError("no canonical text for field-coefficient forms")
        parts = []
        for c in reversed(self.coeffs):
            f = scalar_as_fraction(c)
            parts.append(str(f.numerator) if f.denominator == 1 else
                         f"{f.numerator}/{f.denominator}")
        return f"{self.degree}: " + " ".join(parts)

    def is_rational(self) -> bool:
        return self.field is None

    def rational_coeffs(self) -> List[Fraction]:
        return [scalar_as_fraction(c) for c in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, BinaryForm) or self.degree != other.degree:
            return False
        return all(scalar_is_zero(a - b)
                   for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        if self.is_rational():
            return f"BinaryForm({self.canonical_text()!r})"
        return f"BinaryForm(degree={self.degree}, field coeffs)"

    # -- evaluation --------------------------------------------------------------
    def evaluate(self, x: int, y: int):
        """Exact value at an integer point."""
        n = self.degree
        acc = None
        xp = 1
        ypows = [1] * (n + 1)
        for i in range(1, n + 1):
            ypows[i] = ypows[i - 1] * y
        for i, c in enumerate(self.coeffs):
            term = c * Fraction(xp * ypows[n - i])
            acc = term if acc is None else acc + term
            xp *= x
        return acc

    def _int_model(self) -> Tuple[List[int], int]:
        """(integer coefficients, denominator) with coeffs = ints/denominator."""
        if not self.is_rational():
            raise ExactError("integer model needs rational coefficients")
        fracs = self.rational_coeffs()
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return [int(f * den) for f in fracs], den

    def abs_at(self, x: int, y: int) -> Mag:
        return Mag.of(self.evaluate(x, y))

    def scaled(self, k: Fraction) -> "BinaryForm":
        k = Fraction(k)
        if k == 0:
            raise ExactError("zero scale")
        return BinaryForm(self.degree, [c * k for c in self.coeffs],
                          factors=self.factors.scaled(k) if self.factors else None)

    def real_root_values(self) -> List[Scalar]:
        """Distinct real roots of P(z, 1) = 0, sorted descending."""
        if self._root_cache is not None:
            return list(self._root_cache)
        if self.factors is not None:
            return self.factors.real_root_values()
        roots = [r for r in _rational_form_roots(self)]
        self._root_cache = roots
        return list(roots)

    def with_known_roots(self, roots: List[Scalar]) -> "BinaryForm":
        """Attach exact, descending-sorted real root values (trusted)."""
        self._root_cache = list(roots)
        return self


def _rational_form_roots(f: BinaryForm) -> List[AlgebraicReal]:
    ints, _ = f._int_model()
    p = IntPolynomial(ints)
    if p.is_zero():
        return []
    p = p.squarefree_part()
    roots = isolate_real_roots(p)
    return list(reversed(roots))


# ---------------------------------------------------------------------------
# factored forms


class ProductForm:
    """Form given as scale * prod (x - v_i y) * prod (a_j x^2 + b_j xy + c_j y^2).

    Linear root values and quadratic coefficient triples are exact scalars;
    different factors may live in different fields.  Quadratic factors must
    be positive definite.  Magnitudes at integer points are exact
    :class:`Mag` objects.
    """

    def __init__(self, scale: Fraction, linear: Sequence[Scalar],
                 quads: Sequence[Tuple[Scalar, Scalar, Scalar]] = ()):
        self.scale = Fraction(scale)
        if self.scale == 0:
            raise ExactError("zero scale")
        self.linear = [Fraction(v) if isinstance(v, int) else v for v in linear]
        self.quads = []
        for (a, b, c) in quads:
            a = Fraction(a) if isinstance(a, int) else a
            b = Fraction(b) if isinstance(b, int) else b
            c = Fraction(c) if isinstance(c, int) else c
            if scalar_sign(a) <= 0:
                raise ExactError("quadratic factor must have positive leading coefficient")
            disc = b * b - a * c * 4
            if scalar_sign(disc) >= 0:
                raise ExactError("quadratic factor is not positive definite")
            self.quads.append((a, b, c))
        self.degree = len(self.linear) + 2 * len(self.quads)
        if self.degree < 2:
            raise ExactError("degree must be >= 2")

    def real_root_values(self) -> List[Scalar]:
        out: List[Scalar] = []
        for v in self.linear:  # exact descending insertion sort
            i = 0
            while i < len(out) and compare_scalars(out[i], v) > 0:
                i += 1
            out.insert(i, v)
        return out

    def abs_at(self, x: int, y: int) -> Mag:
        out = Mag(abs(self.scale))
        for v in self.linear:
            out = out.times(Mag.of(x - v * y))
            if out.is_zero():
                return out
        for (a, b, c) in self.quads:
            out = out.times(Mag.of(a * (x * x) + b * (x * y) + c * (y * y)))
            if out.is_zero():
                return out
        return out

    def scaled(self, k: Fraction) -> "ProductForm":
        return ProductForm(self.scale * Fraction(k), self.linear, self.quads)

    def diagonal_scaled(self, theta: Fraction) -> "ProductForm":
        """Roots scaled by theta: x - theta v y and quads (a, theta b, theta^2 c).

        The overall theta^(-n/2) prefactor of a unimodular diagonal action
        is NOT included here; callers track it separately.
        """
        theta = Fraction(theta)
        if theta <= 0:
            raise ExactError("theta must be positive")
        lin = [v * theta for v in self.linear]
        quads = [(a, b * theta, c * (theta * theta))
                 for (a, b, c) in self.quads]
        return ProductForm(self.scale, lin, quads)

    def as_binary_form(self) -> BinaryForm:
        """Expand into coefficients (requires a common field or rationals)."""
        coeffs = [self.scale]  # homogeneous coefficient list, x-degree indexed
        for v in self.linear:
            nxt = [-v * coeffs[0]]
            for i in range(1, len(coeffs)):
                nxt.append(coeffs[i - 1] - v * coeffs[i])
            nxt.append(coeffs[-1])
            coeffs = nxt
        for (a, b, c) in self.quads:
            deg = len(coeffs) - 1
            nxt = [None] * (deg + 3)
            for i in range(deg + 3):
                acc = Fraction(0)
                if 0 <= i - 2 <= deg:
                    acc = acc + a * coeffs[i - 2]
                if 0 <= i - 1 <= deg:
                    acc = acc + b * coeffs[i - 1]
                if 0 <= i <= deg:
                    acc = acc + c * coeffs[i]
                nxt[i] = acc
            coeffs = nxt
        return BinaryForm(self.degree, coeffs, factors=self)

    def __repr__(self):
        return (f"ProductForm(scale={self.scale}, {len(self.linear)} linear, "
                f"{len(self.quads)} quadratic)")


# ---------------------------------------------------------------------------
# operations


def act(f: BinaryForm, T: Transform) -> BinaryForm:
    """Compose with T so that roots map by z -> (az + b)/(cz + d)."""
    a, b, c, d = T.entries()
    if T.det == 1:
        alpha, beta = d, -b     # new x = d*x - b*y
        gamma, delta = -c, a    # new y = -c*x + a*y
    else:
        alpha, beta = -d, b
        gamma, delta = c, -a
    n = f.degree
    # powers of the two linear substitutions as x-degree-indexed vectors
    upows = [[Fraction(1)]]
    vpows = [[Fraction(1)]]
    for _ in range(n):
        upows.append(_lin_mul(upows[-1], alpha, beta))
        vpows.append(_lin_mul(vpows[-1], gamma, delta))
    out = [Fraction(0)] * (n + 1)
    for i, coef in enumerate(f.coeffs):
        if scalar_is_zero(coef):
            continue
        term = _vec_mul(upows[i], vpows[n - i])
        for j, t in enumerate(term):
            out[j] = out[j] + coef * t
    return BinaryForm(n, out)


def _lin_mul(vec: list, alpha, beta) -> list:
    """Multiply an x-degree-indexed vector by (alpha*x + beta*y)."""
    out = [Fraction(0)] * (len(vec) + 1)
    for i, v in enumerate(vec):
        out[i + 1] = out[i + 1] + v * alpha
        out[i] = out[i] + v * beta
    return out


def _vec_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if scalar_is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def discriminant(f: BinaryForm):
    """Discriminant via the resultant of P(z,1) and its derivative.

    If the x^n coefficient vanishes, an x<->y swap is applied first (the
    discriminant is invariant since n(n-1) is even); if both end
    coefficients vanish, a unimodular shear is applied first.
    """
    n = f.degree
    cs = list(f.coeffs)
    if scalar_is_zero(cs[-1]):
        if not scalar_is_zero(cs[0]):
            cs = list(reversed(cs))
        else:
            for t in range(1, n + 2):
                sheared = act(f, Transform.of_ints(1, 0, t, 1))
                if not scalar_is_zero(sheared.coeffs[-1]):
                    return discriminant(sheared)
            raise ExactError("could not normalize the form")
    p = cs  # univariate P(z, 1), z-degree indexed
    dp = [c * i for i, c in enumerate(p)][1:]
    res = _resultant(p, dp)
    lead = p[-1]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return _sc_div(res, lead) * sign


def cubic_discriminant(f: BinaryForm):
    """Independent closed form 18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2."""
    if f.degree != 3:
        raise ExactError("cubic closed form needs degree 3")
    d, c, b, a = f.coeffs  # coeffs[i] multiplies x^i y^(3-i)
    return (a * b * c * d * 18 - b * b * b * d * 4 + b * b * c * c
            - a * c * c * c * 4 - a * a * d * d * 27)


def _resultant(p: list, q: list):
    """Resultant of two scalar-coefficient polynomials (degree-indexed)."""
    while p and scalar_is_zero(p[-1]):
        p = p[:-1]
    while q and scalar_is_zero(q[-1]):
        q = q[:-1]
    if not p or not q:
        raise ExactError("resultant of zero polynomial")
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = c
        rows.append(row)
    return exactcore._det(rows)


@dataclass
class RootProfile:
    """Real roots of P(z,1), sorted descending; first entry is the largest."""

    real_roots: List[AlgebraicReal]
    real_count: int
    degree: int


def real_roots(f: BinaryForm) -> RootProfile:
    """Isolate all real roots of P(z,1); requires nonzero discriminant."""
    D = discriminant(f)
    if scalar_is_zero(D):
        raise ExactError("zero discriminant: the form has a repeated root")
    if f.factors is not None:
        vals = [scalar_to_algebraic(v) for v in f.factors.real_root_values()]
        return RootProfile(vals, len(vals), f.degree)
    roots = _rational_form_roots(f)
    return RootProfile(roots, len(roots), f.degree)


def from_roots(reals: Sequence, quad_factors: Sequence[Tuple] = (),
               scale: Fraction = Fraction(1)) -> BinaryForm:
    """Build the expanded form scale * prod (x - r y) * prod quadratics.

    Real root inputs may be rationals, one shared-field family of
    FieldElements, AlgebraicReals equal to the field generator, or
    QuadraticReals over one radicand.  Quadratic factor triples (a, b, c)
    must be positive definite.  The result keeps the factorization.
    """
    lin = []
    field: Optional[NumberField] = None
    rad: Optional[int] = None
    items = list(reals) + [x for t in quad_factors for x in t]
    for v in items:
        if isinstance(v, FieldElement):
            if field is None:
                field = v.field
            elif field != v.field:
                raise ExactError("inputs must share one number field")
        elif isinstance(v, QuadraticReal) and not v.is_rational():
            if rad is None:
                rad = v.d
            elif rad != v.d:
                raise ExactError("inputs must share one radicand")
    if field is not None and rad is not None:
        raise ExactError("cannot mix number-field and quadratic inputs")

    def promote(v):
        if isinstance(v, int):
            v = Fraction(v)
        if isinstance(v, AlgebraicReal):
            if v.is_rational():
                v = v.as_fraction()
            elif field is not None and same_value(v, field.gen):
                return field.generator()
            else:
                nf = NumberField(v)
                return nf.generator()
        if isinstance(v, Fraction) and field is not None:
            return field.rational(v)
        return v

    # a bare AlgebraicReal generates its own field when one is not given
    if field is None and rad is None:
        for v in items:
            if isinstance(v, AlgebraicReal) and not v.is_rational():
                field = NumberField(v)
                break
    lin = [promote(v) for v in reals]
    quads = [tuple(promote(x) for x in t) for t in quad_factors]
    pf = ProductForm(Fraction(scale), lin, quads)
    return pf.as_binary_form()


def normalized_minimum(f: BinaryForm, m: Fraction,
                       width: Fraction = Fraction(1, 2 ** 48)) -> RatInterval:
    """Enclosure of m / |D|^(1/(2n-2)), the scale-invariant minimum."""
    m = Fraction(m)
    if m < 0:
        raise ExactError("minimum must be >= 0")
    D = discriminant(f)
    if scalar_is_zero(D):
        raise ExactError("zero discriminant")
    if m == 0:
        return RatInterval(Fraction(0), Fraction(0))
    k = 2 * f.degree - 2
    w = width / (4 * max(1, m.numerator))
    absd = scalar_enclosure(D, w).abs()
    while absd.lo <= 0:
        w /= 16
        absd = scalar_enclosure(D, w).abs()
    root = nth_root_interval(absd, k, w)
    return RatInterval(m / root.hi, m / root.lo)
