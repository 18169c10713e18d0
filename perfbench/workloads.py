"""Seeded job generators for the three benchmark workloads.

A run is made of rounds.  One round is a fixed, stratified class mix whose
inputs are drawn from ``random.Random(f"{workload}:{seed}:{round}")``, so
the same seed gives the same jobs on every machine and Python version.
Where a parameter sets a job's cost (the ``N`` of a sweep, the depth of a
profile), each slot of a class in the round takes a fixed stratum of it
and the seed draws the rest, so every round costs about the same whatever
the seed.
The program under test receives only the generated argv (CLI jobs) or the
generated values (library jobs).  Generators reject only input that falls
outside a class's definition or is invalid (a zero discriminant); they
never reject an input for being slow.

Every CLI job of a round is also a candidate for the replay phase: a
seeded subset of those argv is re-issued after the round, and each replay
must be a cache hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Tuple

import exact

# The form every spectrum job works on, and the Mordell form of negative
# discriminant the ael jobs work on.
MORDELL_POS = "3: 1 1 -2 -1"
MORDELL_NEG = "3: 1 0 -1 -1"


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``kind`` selects the runner and the checker;
    ``argv`` is set for CLI jobs, ``spec`` for library jobs."""

    kind: str
    cls: str
    argv: Optional[Tuple[str, ...]] = None
    spec: Dict = field(default_factory=dict, compare=False, hash=False)


# Class mix of one round: (class, jobs per round, why the class is there).
CLASS_MIX = {
    "minima-batch": [
        ("cubic-3real", 8, "irreducible cubic, 3 real roots: box scan plus "
                           "certified digits of three roots (25-60 ms)"),
        ("cubic-1real", 8, "irreducible cubic, 1 real root: the non-real "
                           "factor path of _certify (25-60 ms)"),
        ("quartic-real", 8, "quartic with a real root and no rational root "
                            "(~55 ms)"),
        ("quad-small", 8, "real quadratic, |coeff| <= 5: periodic tails, "
                          "certified chain (~25 ms)"),
        ("quad-large", 2, "real quadratic, |coeff| 100-300: full period "
                          "resolution in cfengine (0.07-1.5 s)"),
        ("quartic-aniso", 1, "anisotropic quartic: _certify boundary "
                             "subdivision (~4 s)"),
        ("cubic-reducible", 2, "cubic with a nonzero rational root that root "
                               "isolation meets exactly (~30 ms); the other "
                               "~93%, ~23 s each, do not fit the run budget"),
        ("family-pos", 1, "pos-disc family member: ProductForm float "
                          "prefilter plus exact re-check (0.3-2.5 s)"),
        ("family-neg", 8, "neg-disc family member over Q(r), r^3 = r + 1 "
                          "(~0.1 s)"),
    ],
    "spectrum-sweep": [
        ("sweep", 12, "diagonal sweep, 8 samples, N = 12..17 twice each: "
                      "box-60 scan and certified-digit refinement per "
                      "sample (150-220 ms)"),
        ("sweep-large", 1, "100-sample sweep at N = 14: a ~90 KB payload, so "
                           "the cache's linear JSON-lines scan shows (~1.8 s)"),
        ("profile", 2, "tent-path profile, 5 samples, depth 18-22 and 24-28: "
                       "cfengine.expand's lazy digits, whose work is "
                       "AlgebraicReal.mobius (0.4-0.7 s)"),
        ("sigma", 1, "fixed-root curve solve in Q(rho), du != 0 (~1.4 s)"),
    ],
    "dioph-search": [
        ("classify-phi", 1, "structural_classify around phi: closed-form "
                            "quadratic path, no mobius (control)"),
        ("classify-cubic", 1, "structural_classify around the largest root "
                              "of x^3+x^2-2x-1: m_rho through mobius"),
        ("spoint-phi", 1, "construct_S_point + in_B_eps + in_E_eta at "
                          "criterion-06 settings, reference phi"),
        ("spoint-cubic", 1, "the same membership job, reference the cubic "
                            "root"),
        ("ael-neg", 1, f"ael on {MORDELL_NEG}: classification passes and "
                       "m_rho on one real root (4-6 s)"),
    ],
}

WORKLOADS = tuple(CLASS_MIX)

# classes issued at the start of every round
LEAD = {"sweep-large"}

# How many times the replayed subset is re-issued, so that every round
# gives some 40 cache hits (dioph-search replays a single ael job).
REPLAY_PASSES = {"minima-batch": 5, "spectrum-sweep": 5, "dioph-search": 40}

# The percentile job_tail_ms reports, fixed per workload so that a faster
# program (more rounds in a run) is compared at the same rank.  Each is
# about the highest percentile that leaves 10 stream jobs beyond it in a
# run of --seconds 35 at the commit that defined the benchmark, moved to
# the middle of the class that holds it (a rank on the border of two
# classes jumps between their costs from seed to seed): family-neg on
# minima-batch, profile on spectrum-sweep, the library jobs on
# dioph-search.  Each run records how many jobs lay beyond it.
TAIL_PERCENTILE = {"minima-batch": 84.0, "spectrum-sweep": 81.0,
                   "dioph-search": 60.0}


def _form_text(coeffs_high_first: List[int]) -> str:
    return f"{len(coeffs_high_first) - 1}: " + " ".join(
        str(c) for c in coeffs_high_first)


def _rand_coeffs(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    """High-first integer coefficients with nonzero leading and constant
    terms (no root at infinity, no root at zero)."""
    while True:
        cs = [rng.randint(lo, hi) for _ in range(n + 1)]
        if cs[0] != 0 and cs[-1] != 0:
            return cs


def _valid_poly(cs: List[int]) -> Optional[List[int]]:
    """Low-first coefficients of P(t, 1), or None for a zero discriminant."""
    low = list(reversed(cs))
    return low if exact.is_squarefree(low) else None


def _gen_cubic(rng: random.Random, real_roots: int) -> str:
    while True:
        cs = _rand_coeffs(rng, 3, -4, 4)
        low = _valid_poly(cs)
        if low is None or exact.has_rational_root(low):
            continue
        if exact.real_root_count(low) == real_roots:
            return _form_text(cs)


def _gen_quartic(rng: random.Random, anisotropic: bool) -> str:
    while True:
        cs = _rand_coeffs(rng, 4, -4, 4)
        low = _valid_poly(cs)
        if low is None or exact.has_rational_root(low):
            continue
        if (exact.real_root_count(low) == 0) == anisotropic:
            return _form_text(cs)


def _gen_quadratic(rng: random.Random, lo: int, hi: int) -> str:
    while True:
        a, b, c = (rng.choice((-1, 1)) * rng.randint(lo, hi) for _ in range(3))
        d = b * b - 4 * a * c
        if d > 0 and isqrt(d) ** 2 != d:
            return _form_text([a, b, c])


def _gen_reducible_cubic(rng: random.Random) -> str:
    """(q x - p y)(a x^2 + b x y + c y^2) with an irreducible quadratic
    factor, so the rational root p/q is simple, and with p/q met exactly
    by root isolation (then it is held as a rational).  The other reducible
    cubics spend ~23 s each in _certified_digits, longer than a whole run
    may take, so they are not drawn."""
    while True:
        p = rng.choice((-1, 1)) * rng.randint(1, 3)
        q = rng.randint(1, 3)
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        d = b * b - 4 * a * c
        if a == 0 or c == 0 or d == 0 or (d > 0 and isqrt(d) ** 2 == d):
            continue
        # (q t - p)(a t^2 + b t + c), high first
        cs = [q * a, q * b - p * a, q * c - p * b, -p * c]
        if exact.isolation_meets_root(cs[::-1]):
            return _form_text(cs)


def _min(gen):
    return lambda rng, slot: ("min", gen(rng))


def _family_pos(rng, slot):
    return ("family", "pos-disc", "--c", str(rng.randint(1, 8)),
            "--N", str(rng.randint(16, 22)))


def _family_neg(rng, slot):
    t = Fraction(rng.randint(0, 40), rng.choice((1, 2, 4)))
    return ("family", "neg-disc", "--t", str(t))


def _sweep(samples: int, N=None):
    # a sweep's cost grows with N (150 ms at N = 12, 215 ms at 17) and
    # hardly depends on its --seed: slot k of the round takes N = 12 + k % 6
    return lambda rng, slot: ("sweep", "--form", MORDELL_POS,
                              "--N", str(N or 12 + slot % 6),
                              "--samples", str(samples),
                              "--seed", str(rng.randint(0, 10 ** 6)))


def _profile(rng, slot):
    # cost grows with depth (0.35 s at 16, 0.7 s at 30); the slots take a
    # low and a high depth band
    lo = (18, 24)[slot % 2]
    return ("profile", "--form", MORDELL_POS, "--N", str(rng.randint(6, 9)),
            "--samples", "5", "--depth", str(rng.randint(lo, lo + 4)))


def _sigma(rng, slot):
    # du = 0 is the identity case (0.1 s instead of 1.4 s), so it is not
    # drawn.  "--du=-1/1000": a separate negative value would parse as an
    # option
    du = rng.choice((-3, -2, -1, 1, 2, 3))
    return ("sigma", "--form", MORDELL_POS, "--N", str(rng.randint(8, 14)),
            f"--du={Fraction(du, 1000)}")


def _ael(form: str):
    return lambda rng, slot: ("ael", "--form", form, "--eps", "1/4",
                              "--seed", str(rng.randint(0, 10 ** 6)))


# Reference values of the dioph-search library jobs: name -> centre of the
# classification intervals (criterion 07).
REFERENCES = {"phi": Fraction(1618, 1000), "cubic": Fraction(1247, 1000)}


def _classify(ref: str):
    def gen(rng, slot):
        centre = REFERENCES[ref]
        w = Fraction(1, rng.randint(20, 2000))
        off = Fraction(rng.randint(-100, 100), 1000) * w
        lo, hi = centre + off - w, centre + off + w
        if not exact.reference_inside(ref, lo, hi):
            lo, hi = centre - w, centre + w
        return {"ref": ref, "lo": lo, "hi": hi,
                "seed": rng.randint(0, 10 ** 6)}
    return gen


def _spoint(ref: str):
    def gen(rng, slot):
        # criterion 06: h = 1 or h = alpha_N, the reference's digit N
        N = rng.choice((8, 12))
        return {"ref": ref, "N": N,
                "h": rng.choice((1, exact.reference_digits(ref, N + 1)[N])),
                "eps": rng.choice((Fraction(1, 10), Fraction(1, 4)))}
    return gen


# class -> (job kind, generator); a generator takes the round's random
# source and the job's slot within its class; CLI generators return the
# argv tuple, library generators the argument record
GENERATORS = {
    "cubic-3real": ("cli", _min(lambda rng: _gen_cubic(rng, 3))),
    "cubic-1real": ("cli", _min(lambda rng: _gen_cubic(rng, 1))),
    "quartic-real": ("cli", _min(lambda rng: _gen_quartic(rng, False))),
    "quartic-aniso": ("cli", _min(lambda rng: _gen_quartic(rng, True))),
    "quad-small": ("cli", _min(lambda rng: _gen_quadratic(rng, 1, 5))),
    "quad-large": ("cli", _min(lambda rng: _gen_quadratic(rng, 100, 300))),
    "cubic-reducible": ("cli", _min(_gen_reducible_cubic)),
    "family-pos": ("cli", _family_pos),
    "family-neg": ("cli", _family_neg),
    "sweep": ("cli", _sweep(8)),
    "sweep-large": ("cli", _sweep(100, N=14)),
    "profile": ("cli", _profile),
    "sigma": ("cli", _sigma),
    "classify-phi": ("classify", _classify("phi")),
    "classify-cubic": ("classify", _classify("cubic")),
    "spoint-phi": ("spoint", _spoint("phi")),
    "spoint-cubic": ("spoint", _spoint("cubic")),
    "ael-neg": ("cli", _ael(MORDELL_NEG)),
}


def make_round(workload: str, seed: int, index: int, seen: set) -> List[Job]:
    """The jobs of round ``index`` of a run, in issue order.  ``seen`` holds
    the argv issued earlier in the run; no CLI argv repeats, so every
    stream job computes (only replays hit the cache)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = []
    for cls, count, _ in CLASS_MIX[workload]:
        kind, gen = GENERATORS[cls]
        for slot in range(count):
            if kind != "cli":
                jobs.append(Job(kind, cls, spec=gen(rng, slot)))
                continue
            for _ in range(1000):
                argv = gen(rng, slot)
                if argv not in seen:
                    break
            else:
                raise RuntimeError(f"{cls}: no unused input left")
            seen.add(argv)
            jobs.append(Job(kind, cls, argv=argv))
    rng.shuffle(jobs)
    # the large payload goes first, so every later cache lookup scans it
    jobs.sort(key=lambda j: j.cls not in LEAD)
    return jobs


def replay_subset(jobs: List[Job], workload: str, seed: int, index: int
                  ) -> List[Job]:
    """Seeded subset of a round's CLI jobs to re-issue as cache hits: half
    of each class, rounded up, so the mix of payloads replayed (and with it
    the hit latency) does not depend on the draw."""
    rng = random.Random(f"{workload}:{seed}:{index}:replay")
    picked = []
    for cls, _, _ in CLASS_MIX[workload]:
        of_cls = [j for j in jobs if j.kind == "cli" and j.cls == cls]
        picked += rng.sample(of_cls, -(-len(of_cls) // 2))
    rng.shuffle(picked)
    return picked
