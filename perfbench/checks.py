"""Output checks by independent recomputation.

Each checker takes the job and its output (the parsed JSON payload of a
CLI job, or the result record of a library job) and returns None when the
output is right, else a one-line reason.  The checks use ``exact`` and
plain integer or float arithmetic, never formspec itself, and none of them
tests a ``certified`` flag: a later change may rightly certify more.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import exact
from workloads import MORDELL_POS

SCAN = 10  # plain-int scan box |x|, |y| <= SCAN
CASE1 = "Case1_convergent"
ALL_CASES = {CASE1, "Case2_deep", "Case3_shallow", "Case4_crossroot",
             "Unclassified"}


def _scan_points():
    for y in range(0, SCAN + 1):
        for x in range(-SCAN, SCAN + 1):
            if y > 0 or x > 0:
                yield x, y


def check_min(argv, p) -> Optional[str]:
    cs = exact.parse_form(argv[1])
    att = p.get("attaining")
    if att is None or tuple(att) == (0, 0):
        return "no attaining vector"
    reported = Fraction(p["value"]["exact"])
    at = abs(exact.form_value(cs, att[0], att[1]))
    if at != reported:
        return f"|P{tuple(att)}| = {at} but the payload says {reported}"
    for x, y in _scan_points():
        if abs(exact.form_value(cs, x, y)) < reported:
            return f"scan point ({x}, {y}) beats the reported minimum"
    return None


# real root r of x^3 - x - 1, to double precision
_R_NEG = 1.3247179572447460


def check_family(argv, p) -> Optional[str]:
    kind = argv[1]
    mn = p["min"]
    if kind == "neg-disc":
        # |P_t| >= |P_0| pointwise and P_t(1, 0) = 1, so m(P_t) = 1
        if not Fraction(mn["lo"]) <= 1 <= Fraction(mn["hi"]):
            return f"neg-disc minimum {mn['dec']} is not 1"
        t = float(Fraction(p["t"]))
        x, y = p["attaining"]
        r = _R_NEG
        val = abs((x - r * y) * ((x + r / 2 * y) ** 2
                                 + (0.75 * r * r - 1) * (1 + t * t) * y * y))
        if abs(val - 1.0) > 1e-9:
            return f"|P_t{(x, y)}| = {val!r}, not the minimum 1"
        if Fraction(p["discriminant"]["hi"]) > -23:
            return "neg-disc |D_t| below the t = 0 value 23"
        return None
    # criterion 03: c * m(P) within 5% of 1, discriminant within 5% of 49
    c = Fraction(p["c"])
    m = Fraction(mn["dec"])
    if abs(c * m - 1) > Fraction(5, 100):
        return f"pos-disc c*m = {float(c * m):.5f} is not within 5% of 1"
    d_lo, d_hi = Fraction(p["discriminant"]["lo"]), \
        Fraction(p["discriminant"]["hi"])
    if not (d_hi - d_lo < 1 and abs((d_lo + d_hi) / 2 - 49) <= Fraction(49 * 5, 100)):
        return "pos-disc discriminant not within 5% of 49"
    return None


_POS = exact.parse_form(MORDELL_POS)


def _scaled_form_sq(x: int, y: int, theta: Fraction) -> Fraction:
    """|P(x, theta y)|^2 theta^-n for the spectrum form P: the squared
    spectrum value of the diagonal form at (x, y)."""
    a, b = theta.numerator, theta.denominator
    n = len(_POS) - 1
    g = sum(c * x ** (n - k) * (a * y) ** k * b ** (n - k)
            for k, c in enumerate(_POS))  # b^n P(x, theta y)
    return Fraction(g * g, (a * b) ** n)


def _check_diagonal_point(theta: Fraction, lo: Fraction, hi: Fraction,
                          att=None) -> Optional[str]:
    if theta <= 0 or lo < 0 or lo > hi:
        return f"bad point theta={theta} value=[{lo}, {hi}]"
    if att is not None:
        v2 = _scaled_form_sq(att[0], att[1], theta)
        if not lo * lo <= v2 <= hi * hi:
            return f"value at {tuple(att)} is outside [{lo}, {hi}]"
    for x, y in _scan_points():
        if _scaled_form_sq(x, y, theta) < lo * lo:
            return f"scan point ({x}, {y}) beats the value at theta={theta}"
    return None


def _flag(argv, name: str) -> int:
    return int(argv[argv.index(name) + 1])


def check_sweep(argv, p) -> Optional[str]:
    N, samples = _flag(argv, "--N"), _flag(argv, "--samples")
    pts = p["points"]
    if not (len(pts) == p["samples"] == samples):
        return "sample count mismatch"
    cases = p["cases"]
    if set(cases) != ALL_CASES or sum(cases.values()) != samples:
        return "case counts do not add up to the samples"
    if Fraction(p["case1_fraction"]) != Fraction(cases[CASE1], samples):
        return "case1_fraction disagrees with the case counts"
    PN, QN = exact.convergent(exact.cubic_root_digits(N + 1), N)
    n_case1 = 0
    for row in pts:
        theta = Fraction(row["theta_lo"])
        if Fraction(row["theta_hi"]) != theta:
            return "theta is not a point"
        att = (row["x"], row["y"])
        is_conv = att in ((PN, QN), (-PN, -QN))
        if is_conv != (row["case"] == CASE1):
            return f"case {row['case']} at {att} with (P_N, Q_N) = {(PN, QN)}"
        n_case1 += is_conv
        bad = _check_diagonal_point(theta, Fraction(row["value_lo"]),
                                    Fraction(row["value_hi"]), att)
        if bad:
            return bad
    if n_case1 != cases[CASE1]:
        return "Case1 count disagrees with the points"
    return None


def check_profile(argv, p) -> Optional[str]:
    samples = _flag(argv, "--samples")
    pts = p["points"]
    if len(pts) != samples:
        return "sample count mismatch"
    # criterion 11: both path ends sit at the form minimum m(P) = 1
    for row in (pts[0], pts[-1]):
        if Fraction(row["value_lo"]) < Fraction(99, 100):
            return "profile endpoint below 0.99 m(P)"
    for j, row in enumerate(pts):
        if Fraction(row["t"]) != Fraction(j, samples - 1):
            return "profile parameter out of order"
        bad = _check_diagonal_point(Fraction(row["theta"]),
                                    Fraction(row["value_lo"]),
                                    Fraction(row["value_hi"]))
        if bad:
            return bad
    return None


def check_sigma(argv, p) -> Optional[str]:
    # criterion 10
    du = Fraction(p["du"])
    res_hi = Fraction(p["residual"]["hi"])
    if du == 0:
        return None if p["identity"] and res_hi == 0 else \
            "du = 0 did not give the identity"
    if res_hi > Fraction(1, 10 ** 12):
        return f"residual {float(res_hi):.3g} above 1e-12"
    if Fraction(p["distance_to_identity"]["hi"]) >= 1:
        return "transform not within distance 1 of the identity"
    return None


def check_ael(argv, p) -> Optional[str]:
    shift, eps = Fraction(p["shift"]), Fraction(p["eps"])
    if not 0 < abs(shift) < eps:
        return f"|shift| = {shift} not in (0, eps = {eps})"
    if p["candidates_tested"] < 1:
        return "no candidate tested"
    roots = exact.real_root_count(list(reversed(exact.parse_form(p["form"]))))
    if len(p["per_root_lower_bounds"]) != roots:
        return "one lower bound per real root expected"
    if any(c["kind"] not in ("TypeI", "TypeII") for c in p["classifications"]):
        return "unknown classification kind"
    return None


def check_classify(spec, r) -> Optional[str]:
    # criterion 07
    if r["kind"] == "TypeI":
        return None
    if r["kind"] != "TypeII":
        return f"unknown kind {r['kind']}"
    lo, hi = (Fraction(v) for v in r["interval"])
    slo, shi = (Fraction(v) for v in r["sub"])
    if not (lo <= slo < shi <= hi):
        return "TypeII subinterval not inside the interval"
    if not exact.reference_inside(spec["ref"], slo, shi):
        return "TypeII subinterval does not contain the reference"
    if Fraction(r["c"]) <= 0:
        return "TypeII constant not positive"
    return None


def check_spoint(spec, r) -> Optional[str]:
    # criterion 06: both memberships hold; the point keeps the reference's
    # first N digits, then digit h, then an all-ones tail
    if not (r["in_B"] and r["in_E"]):
        return f"membership failed: B={r['in_B']} E={r['in_E']}"
    N, h = spec["N"], spec["h"]
    got = exact.quadratic_digits(*r["s"], N + 6)
    want = exact.reference_digits(spec["ref"], N) + [h] + [1] * 5
    if got != want:
        return f"S-point digits {got} differ from {want}"
    return None


CLI_CHECKS = {"min": check_min, "family": check_family, "sweep": check_sweep,
              "profile": check_profile, "sigma": check_sigma,
              "ael": check_ael}
LIB_CHECKS = {"classify": check_classify, "spoint": check_spoint}


def check(job, output) -> Optional[str]:
    """None when the output of ``job`` is right, else the reason."""
    try:
        if job.kind == "cli":
            return CLI_CHECKS[job.argv[0]](job.argv, output)
        return LIB_CHECKS[job.kind](job.spec, output)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
