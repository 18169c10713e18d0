"""Command-line surface: parsing, serialization, result cache, config.

Commands: min, family, sweep, ael, sigma, markoff, cf, profile.
Exit codes: 0 success, 2 usage or malformed input, 3 mathematical
precondition, 4 search budget exhausted, 5 cache I/O or staleness.

Results are serialized with exact rational endpoints plus a display-only
decimal rendering; the cache stores the serialized payload keyed by the
canonical form text and a canonical parameter digest, so cached re-emits
are byte-identical to fresh computations under the same tool version.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import threading
from fractions import Fraction
from typing import Optional

from . import __version__
from .exactcore import ExactError, IntPolynomial, RatInterval, isolate_real_roots
from .forms import BinaryForm, Mag, ProductForm, discriminant, normalized_minimum
from .minima import m_estimate
from .diophsets import BudgetExhausted, DiophParams, ael_search
from .spectrum import (
    SweepConfig,
    diagonal_interval,
    freiman_constant,
    markoff_triples,
    neg_disc_family,
    path_profile,
    pos_disc_family,
    sigma_solve,
    sweep,
)

_CACHE_LOCK = threading.Lock()

DEFAULTS = {
    "box": 100,
    "depth": 30,
    "eta": "1/2",
    "precision": 12,
    "seed": 0,
    "format": "text",
}


class UsageError(Exception):
    pass


class CacheError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def dec_str(x: Fraction, digits: int) -> str:
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = int(x * 10 ** digits + Fraction(1, 2))
    s = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def interval_payload(iv: RatInterval, digits: int) -> dict:
    return {"lo": frac_str(iv.lo), "hi": frac_str(iv.hi),
            "dec": dec_str(iv.mid, digits)}


def mag_payload(m: Mag, digits: int) -> dict:
    iv = m.enclosure(Fraction(1, 10 ** (digits + 6)))
    out = interval_payload(iv, digits)
    if m.is_rational():
        out["exact"] = frac_str(m.as_fraction())
    return out


# ---------------------------------------------------------------------------
# cache


def cache_path(args) -> Optional[str]:
    if args.cache:
        return args.cache
    env = os.environ.get("FORMSPEC_CACHE")
    if env:
        return env
    return "formspec-cache.jsonl"


def cache_lookup(path: str, key: dict) -> Optional[dict]:
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as e:
                    raise CacheError(f"corrupt cache line: {e}")
                if (entry.get("form_key") == key["form_key"]
                        and entry.get("operation") == key["operation"]
                        and entry.get("params_digest") == key["params_digest"]
                        and entry.get("tool_version") == __version__):
                    return entry
    except OSError as e:
        raise CacheError(f"cache read failed: {e}")
    return None


def cache_append(path: str, key: dict, payload: dict):
    entry = dict(key)
    entry["tool_version"] = __version__
    entry["created_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    entry["result"] = payload
    line = json.dumps(entry, sort_keys=True)
    try:
        with _CACHE_LOCK:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
    except OSError as e:
        raise CacheError(f"cache write failed: {e}")


def run_cached(args, form_key: str, operation: str, params: dict, compute):
    """Serve from cache when enabled; verify existing entries otherwise."""
    digest = json.dumps(params, sort_keys=True)
    key = {"form_key": form_key, "operation": operation,
           "params_digest": digest}
    path = cache_path(args)
    if not args.no_cache:
        hit = cache_lookup(path, key)
        if hit is not None:
            return hit["result"], True
    payload = compute()
    if args.no_cache:
        hit = cache_lookup(path, key)
        if hit is not None and hit["result"] != payload:
            raise CacheError(
                "stale cache: existing entry does not match recomputation")
    else:
        cache_append(path, key, payload)
    return payload, False


# ---------------------------------------------------------------------------
# rendering


def emit(args, payload: dict, csv_rows=None, csv_header=None):
    fmt = args.format
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    elif fmt == "csv":
        if csv_rows is None:
            raise UsageError("this command has no CSV representation")
        lines = [",".join(csv_header)]
        lines += [",".join(str(c) for c in row) for row in csv_rows]
        text = "\n".join(lines)
    else:
        text = render_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def render_text(payload: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for k in payload:
        v = payload[k]
        if isinstance(v, dict):
            if set(v) >= {"lo", "hi", "dec"}:
                lines.append(f"{pad}{k}: {v['dec']}  [{v['lo']}, {v['hi']}]")
            else:
                lines.append(f"{pad}{k}:")
                lines.append(render_text(v, indent + 1))
        elif isinstance(v, list):
            lines.append(f"{pad}{k}: " + json.dumps(v))
        else:
            lines.append(f"{pad}{k}: {v}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def parse_form(text: str) -> BinaryForm:
    try:
        return BinaryForm.parse(text)
    except ExactError as e:
        raise UsageError(str(e))


def cmd_min(args) -> int:
    f = parse_form(args.form)

    def compute():
        res = m_estimate(f, box=args.box, depth=args.depth,
                         eta=Fraction(args.eta))
        return {
            "form": f.canonical_text(),
            "discriminant": frac_str(discriminant(f)),
            "value": mag_payload(res.value, args.precision),
            "attaining": list(res.attaining) if res.attaining else None,
            "box": res.box_bound,
            "depth": res.cf_depth,
            "certified": res.certified,
            "note": res.certificate_note,
        }

    params = {"box": args.box, "depth": args.depth, "eta": args.eta}
    payload, _ = run_cached(args, f.canonical_text(), "min", params, compute)
    emit(args, payload)
    return 0


def cmd_family(args) -> int:
    digits = args.precision
    if args.kind == "neg-disc":
        try:
            t = Fraction(args.t)
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad t: {e}")
        if t < 0:
            raise UsageError("t must be >= 0")
        key = f"neg-disc t={frac_str(t)}"

        def compute():
            form = neg_disc_family(t)
            res = m_estimate(form, box=args.box, depth=args.depth)
            D = discriminant(form)
            from .forms import scalar_enclosure
            denc = scalar_enclosure(D, Fraction(1, 10 ** (digits + 6)))
            mfrac = res.value.as_fraction() if res.value.is_rational() else \
                res.value.enclosure(Fraction(1, 10 ** (digits + 6))).mid
            nm = normalized_minimum(form, mfrac)
            return {
                "family": "neg-disc",
                "t": frac_str(t),
                "form": form.canonical_text() if form.is_rational()
                        else "field coefficients (factored)",
                "discriminant": interval_payload(denc, digits),
                "min": mag_payload(res.value, digits),
                "attaining": list(res.attaining),
                "certified": res.certified,
                "normalized_min": interval_payload(nm, digits),
            }
    elif args.kind == "pos-disc":
        try:
            c = Fraction(args.c)
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad c: {e}")
        N = args.N
        if N is None:
            raise UsageError("pos-disc needs --N")
        if c < 1 or N < 2:
            raise UsageError("need c >= 1 and N >= 2")
        key = f"pos-disc c={frac_str(c)} N={N}"

        def compute():
            form, rebuilt = pos_disc_family(c, N)
            res = m_estimate(form, box=args.box, depth=args.depth,
                             assumed_subcritical=form.linear[1:])
            dd = _product_disc(form, digits)
            return {
                "family": "pos-disc",
                "c": frac_str(c),
                "N": N,
                "rebuilt_root": interval_payload(
                    rebuilt.enclosure(Fraction(1, 10 ** (digits + 6))), digits),
                "discriminant": interval_payload(dd, digits),
                "min": mag_payload(res.value, digits),
                "attaining": list(res.attaining),
                "certified": res.certified,
                "note": res.certificate_note,
            }
    else:
        raise UsageError("family kind must be neg-disc or pos-disc")

    params = {"box": args.box, "depth": args.depth}
    payload, _ = run_cached(args, key, "family", params, compute)
    emit(args, payload)
    return 0


def _product_disc(pf: ProductForm, digits: int) -> RatInterval:
    """Discriminant of a totally real factored cubic via root gaps."""
    from .forms import scalar_enclosure
    vals = pf.real_root_values()
    w = Fraction(1, 10 ** (digits + 10))
    prod = RatInterval(Fraction(1), Fraction(1))
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            ei = scalar_enclosure(vals[i], w)
            ej = scalar_enclosure(vals[j], w)
            diff = RatInterval(ei.lo - ej.hi, ei.hi - ej.lo)
            prod = prod * (diff * diff)
    return prod.scale(pf.scale ** (2 * (pf.degree - 1)))


def cmd_sweep(args) -> int:
    f = parse_form(args.form)
    cfg = SweepConfig(f, args.N, args.samples, depth=args.depth_override or 0,
                      seed=args.seed)

    def compute():
        pts, summary = sweep(cfg)
        rows = []
        for p in pts:
            rows.append({
                "theta_lo": frac_str(p.theta), "theta_hi": frac_str(p.theta),
                "value_lo": frac_str(p.spec_value.lo),
                "value_hi": frac_str(p.spec_value.hi),
                "case": p.case,
                "x": p.min_result.attaining[0], "y": p.min_result.attaining[1],
            })
        return {
            "form": f.canonical_text(),
            "N": args.N,
            "samples": summary["samples"],
            "seed": args.seed,
            "case1_fraction": frac_str(summary["case1_fraction"]),
            "cases": summary["cases"],
            "max_case1_gap": frac_str(summary["max_case1_gap"]),
            "covered_measure": frac_str(summary["covered_measure"]),
            "target": interval_payload(summary["target"], args.precision),
            "points": rows,
        }

    params = {"N": args.N, "samples": args.samples, "seed": args.seed,
              "depth": args.depth_override or 0}
    payload, _ = run_cached(args, f.canonical_text(), "sweep", params, compute)
    header = ["theta_lo", "theta_hi", "value_lo", "value_hi", "case", "x", "y"]
    rows = [[r[h] for h in header] for r in payload["points"]]
    emit(args, payload, csv_rows=rows, csv_header=header)
    return 0


def cmd_ael(args) -> int:
    f = parse_form(args.form)
    eps = Fraction(args.eps)
    params = DiophParams(eps if 0 < eps < 1 else Fraction(1, 4),
                         Fraction(args.eta), Fraction(1, 4), Fraction(1, 100),
                         height=args.height, depth=args.depth)

    def compute():
        w = ael_search(f, eps, params, seed=args.seed, budget=args.budget)
        return {
            "form": f.canonical_text(),
            "eps": frac_str(eps),
            "seed": args.seed,
            "shift": frac_str(w.shift),
            "candidates_tested": w.candidates_tested,
            "per_root_lower_bounds": [
                interval_payload(iv, args.precision)
                for iv in w.per_root_lower_bounds],
            "classifications": [
                {"kind": c.kind, "interval": [frac_str(c.interval.lo),
                                              frac_str(c.interval.hi)],
                 "density": frac_str(c.density_estimate)}
                for c in w.interval_trace],
        }

    pkey = {"eps": args.eps, "seed": args.seed, "budget": args.budget,
            "depth": args.depth, "height": args.height, "eta": args.eta}
    payload, _ = run_cached(args, f.canonical_text(), "ael", pkey, compute)
    emit(args, payload)
    return 0


def cmd_sigma(args) -> int:
    f = parse_form(args.form)

    def compute():
        if args.theta is not None:
            theta = Fraction(args.theta)
        else:
            di = diagonal_interval(f, args.N)
            theta = (di.theta_n.hi + di.right_end.lo) / 2
        got = sigma_solve(f, args.N, theta, _sigma_u(f, args, theta))
        T = got.transform
        return {
            "form": f.canonical_text(),
            "N": args.N,
            "theta": frac_str(theta),
            "du": args.du,
            "residual": interval_payload(got.residual, args.precision + 6),
            "distance_to_identity": interval_payload(
                got.distance_to_identity, args.precision),
            "iterations": got.iterations,
            "identity": T.is_identity(),
        }

    pkey = {"N": args.N, "theta": args.theta, "du": args.du}
    payload, _ = run_cached(args, f.canonical_text(), "sigma", pkey, compute)
    emit(args, payload)
    return 0


def _sigma_u(f: BinaryForm, args, theta: Fraction):
    from .spectrum import _roots_in_primary_field
    from .cfengine import convergents, expand
    got = _roots_in_primary_field(f)
    if got is None:
        raise ExactError("roots not expressible over the largest root field")
    K, roots = got
    cf = expand(K.gen, args.N, digit_limit=None)
    cv = convergents(cf, args.N)
    A = Fraction(cv[args.N].p, cv[args.N].q)
    center = K.rational(1)
    for w in roots[1:]:
        center = center * (K.rational(A) - w * theta)
    return center + Fraction(args.du)


def cmd_markoff(args) -> int:
    def compute():
        ts = markoff_triples(args.bound)
        rows = []
        for t in ts:
            v = t.value()
            iv = v.enclosure(Fraction(1, 10 ** (args.precision + 6)))
            rows.append({"x": t.x, "y": t.y, "z": t.z,
                         "value_lo": frac_str(iv.lo),
                         "value_hi": frac_str(iv.hi),
                         "dec": dec_str(iv.mid, args.precision)})
        fc = freiman_constant().enclosure(Fraction(1, 10 ** (args.precision + 6)))
        return {"bound": args.bound, "count": len(rows),
                "freiman_constant": interval_payload(fc, args.precision),
                "triples": rows}

    payload, _ = run_cached(args, f"bound={args.bound}", "markoff",
                            {"bound": args.bound}, compute)
    header = ["x", "y", "z", "value_lo", "value_hi", "dec"]
    rows = [[r[h] for h in header] for r in payload["triples"]]
    emit(args, payload, csv_rows=rows, csv_header=header)
    return 0


def cmd_cf(args) -> int:
    if args.value is not None:
        x = Fraction(args.value)
        key = f"value {frac_str(x)}"

        def source():
            return x
    elif args.poly:
        try:
            coeffs = [int(t) for t in args.poly.split()]
        except ValueError:
            raise UsageError("poly wants integer coefficients, high to low")
        key = f"poly {args.poly} near {args.root_near}"

        def source():
            p = IntPolynomial(list(reversed(coeffs)))
            roots = isolate_real_roots(p.squarefree_part())
            if not roots:
                raise ExactError("polynomial has no real roots")
            target = Fraction(args.root_near) if args.root_near is not None \
                else None
            if target is None:
                return roots[-1]
            best = min(roots, key=lambda r: abs(
                r.enclosure(Fraction(1, 2 ** 30)).mid - target))
            return best
    else:
        raise UsageError("cf needs --poly or --value")

    def compute():
        from .cfengine import convergents, expand
        cf = expand(source(), args.depth)
        top = cf.clip(args.depth)
        digs = cf.digits_upto(top)
        cv = convergents(cf, top)
        return {"input": key, "depth": args.depth, "tail": cf.tail,
                "digits": digs,
                "period": list(cf.period_block) if cf.period_block else None,
                "convergents": [[c.p, c.q] for c in cv]}

    payload, _ = run_cached(args, key, "cf", {"depth": args.depth}, compute)
    emit(args, payload)
    return 0


def cmd_profile(args) -> int:
    f = parse_form(args.form)

    def compute():
        from .spectrum import crossing_tent_path
        di = diagonal_interval(f, args.N)
        path, cap = crossing_tent_path(di)
        pts = path_profile(f, path, args.samples, depth=args.depth,
                           denominator_cap=cap)
        rows = [{"t": frac_str(p.t),
                 "theta": frac_str(p.theta) if p.theta is not None else "",
                 "value_lo": frac_str(p.value.lo),
                 "value_hi": frac_str(p.value.hi),
                 "near_rational_root": int(p.near_rational_root)}
                for p in pts]
        return {"form": f.canonical_text(), "N": args.N,
                "samples": args.samples, "points": rows}

    pkey = {"N": args.N, "samples": args.samples, "depth": args.depth}
    payload, _ = run_cached(args, f.canonical_text(), "profile", pkey, compute)
    header = ["t", "theta", "value_lo", "value_hi", "near_rational_root"]
    rows = [[r[h] for h in header] for r in payload["points"]]
    emit(args, payload, csv_rows=rows, csv_header=header)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def load_config() -> dict:
    cfg = dict(DEFAULTS)
    path = os.environ.get("FORMSPEC_CONFIG")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"bad config file {path}: {e}")
    return cfg


def _add_common(parser, cfg, suppress: bool):
    sup = argparse.SUPPRESS

    def d(v):
        return sup if suppress else v
    parser.add_argument("--format", choices=["json", "csv", "text"],
                        default=d(cfg["format"]))
    parser.add_argument("--out", default=d(None))
    parser.add_argument("--cache", default=d(None))
    parser.add_argument("--no-cache", action="store_true",
                        default=d(False))
    parser.add_argument("--box", type=int, default=d(int(cfg["box"])))
    parser.add_argument("--depth", type=int, default=d(int(cfg["depth"])))
    parser.add_argument("--eta", default=d(str(cfg["eta"])))
    parser.add_argument("--precision", type=int,
                        default=d(int(cfg["precision"])))
    parser.add_argument("--seed", type=int, default=d(int(cfg["seed"])))


def build_parser(cfg: dict) -> argparse.ArgumentParser:
    # shared flags live on the top level with real defaults and on every
    # subcommand with SUPPRESS defaults, so both orders work
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, cfg, suppress=True)
    ap = argparse.ArgumentParser(
        prog="formspec",
        description="exact lattice minima of binary forms and the "
                    "constructions that fill their spectra")
    _add_common(ap, cfg, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("min", parents=[common],
                       help="minimum of |P| over nonzero vectors")
    p.add_argument("form")
    p.set_defaults(fn=cmd_min)

    p = sub.add_parser("family", parents=[common],
                       help="perturbation families")
    p.add_argument("kind", choices=["neg-disc", "pos-disc"])
    p.add_argument("--t", default="0")
    p.add_argument("--c", default="1")
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("sweep", parents=[common],
                       help="diagonal sweep of the convergent interval")
    p.add_argument("--form", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--depth-override", type=int, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("ael", parents=[common],
                       help="near-identity transform search")
    p.add_argument("--form", required=True)
    p.add_argument("--eps", default="1/4")
    p.add_argument("--budget", type=int, default=10 ** 4)
    p.add_argument("--height", type=int, default=10 ** 4)
    p.set_defaults(fn=cmd_ael)

    p = sub.add_parser("sigma", parents=[common],
                       help="fixed-root curve solve")
    p.add_argument("--form", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--theta", default=None)
    p.add_argument("--du", default="0")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("markoff", parents=[common],
                       help="Markoff triples and spectrum values")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=cmd_markoff)

    p = sub.add_parser("cf", parents=[common],
                       help="continued fraction digits and convergents")
    p.add_argument("--poly", default=None,
                   help="integer coefficients, high power first")
    p.add_argument("--root-near", default=None)
    p.add_argument("--value", default=None, help="rational value p/q")
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("profile", parents=[common],
                       help="minimum along a diagonal tent path")
    p.add_argument("--form", required=True)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--samples", type=int, default=65)
    p.set_defaults(fn=cmd_profile)
    return ap


_PARSERS: dict = {}


def _parser_for(cfg: dict) -> argparse.ArgumentParser:
    """The parser for ``cfg``, built once per distinct configuration."""
    key = json.dumps(cfg, sort_keys=True)
    ap = _PARSERS.get(key)
    if ap is None:
        ap = _PARSERS[key] = build_parser(cfg)
    return ap


def main(argv=None) -> int:
    try:
        cfg = load_config()
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ap = _parser_for(cfg)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except CacheError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except ExactError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
