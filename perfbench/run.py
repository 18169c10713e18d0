"""formspec benchmark: closed-loop workloads with checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload minima-batch --seed 1 --seconds 35 --trace 0

One process, one caller, no threads: a job is issued only after the
previous one returned.  CLI jobs run in-process through
``formspec.cli.main(argv)`` with ``--format json`` and a cache file that is
fresh for each round; library jobs call the public function directly.  A
run issues whole rounds (see ``workloads.py``) while the next round, at
the mean round time so far, still ends within ``--seconds``; after each
round it replays a seeded subset of the round's CLI jobs, which must be
cache hits with byte-identical output.  Every output is checked (see
``checks.py``); a job that raises, exits non-zero or fails its check
counts as failed.  Cheap fixed jobs run for a short warm-up before any
timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs rounds
traced (see ``spans.py``) for ``--seconds``, then the same rounds
untraced, and prints the per-layer metrics, the tracing overhead and the
span count; the spans are written to ``perfbench/out/``.  The last line
of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a JSON record of the
environment and per-class details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = HERE / "tmp"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Before timing, cheap fixed jobs run for this long: the first seconds of
# a busy process run up to 40% slower on a shared host.
WARMUP_S = 2.0
# Forms no generator draws (a coefficient of 7 is outside every class).
WARMUP_JOBS = (
    workloads.Job("cli", "warm-up", argv=("min", "3: 1 0 -7 5")),
    workloads.Job("cli", "warm-up", argv=("min", "2: 7 -3 -5")),
)


class SetupError(Exception):
    pass


def import_formspec():
    """Import formspec from this checkout's ``src`` and nowhere else."""
    if not (SRC / "formspec" / "__init__.py").is_file():
        raise SetupError(f"no formspec package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for var in ("FORMSPEC_CACHE", "FORMSPEC_CONFIG"):
        os.environ.pop(var, None)
    import formspec.cli
    got = Path(formspec.__file__).resolve()
    if SRC.resolve() not in got.parents:
        raise SetupError(f"formspec imported from {got}, not from {SRC}")
    return formspec


def tail_percentile(values: List[float], pct: float) -> Tuple[float, int]:
    """(value, jobs beyond it): the nearest-rank ``pct`` percentile of
    ``values`` and how many values lie above its rank."""
    if not values:
        raise ValueError("no values")
    k = max(1, -(-len(values) * pct // 100))  # ceil(n * pct / 100)
    k = int(min(k, len(values)))
    return sorted(values)[k - 1], len(values) - k


# ---------------------------------------------------------------------------
# job execution


class References:
    """The dioph-search reference values, built once per pass so that jobs
    share them (and their refinement state) the way library callers do."""

    def __init__(self):
        from formspec.exactcore import IntPolynomial, QuadraticReal, \
            isolate_real_roots
        self.values = {
            "phi": QuadraticReal(1, 1, 5, 2),
            "cubic": isolate_real_roots(IntPolynomial(exact.CUBIC))[-1],
        }


def _run_cli(argv, cache: str) -> Tuple[int, str]:
    from formspec import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv) + ["--format", "json", "--cache", cache])
    return rc, out.getvalue() if rc == 0 else err.getvalue()


def _run_classify(spec, refs: References) -> dict:
    from formspec.diophsets import DiophParams, structural_classify
    from formspec.exactcore import RatInterval
    params = DiophParams(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4),
                         Fraction(1, 100), height=1000, depth=12)
    c = structural_classify(refs.values[spec["ref"]],
                            RatInterval(spec["lo"], spec["hi"]), params, 3,
                            samples=6, seed=spec["seed"])
    sub = c.subinterval
    return {"kind": c.kind, "interval": [str(spec["lo"]), str(spec["hi"])],
            "sub": None if sub is None else [str(sub.lo), str(sub.hi)],
            "c": None if c.c_estimate is None else str(c.c_estimate),
            "density": str(c.density_estimate)}


def _run_spoint(spec, refs: References) -> dict:
    from formspec.diophsets import construct_S_point, in_B_eps, in_E_eta
    rho = refs.values[spec["ref"]]
    s = construct_S_point(rho, spec["eps"], spec["N"], spec["h"],
                          Fraction(1, 2), 3)
    return {"s": [s.p, s.q, s.d, s.r],
            "in_B": in_B_eps(s, rho, spec["eps"], 3, 30),
            "in_E": in_E_eta(s, rho, Fraction(1, 2), 10 ** 4)}


_LIB = {"classify": _run_classify, "spoint": _run_spoint}


class Pass:
    """One pass over a list of rounds: issues the jobs in order, times each,
    checks each, and records outputs so passes can be compared."""

    def __init__(self, workdir: Path, tracer=None, workload=None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.workload = workload
        self.cache = str(workdir / "cache-0.jsonl")
        self.cache_bytes: List[int] = []  # cache size after each round
        self.refs = References()
        self.tracer = tracer
        self.records: List[dict] = []  # one per job, in issue order
        self.round_ends: List[int] = []  # len(records) after each round
        self.failures: List[str] = []
        self.next_id = 0

    def issue(self, job, replay_of: Optional[str] = None) -> dict:
        jid, self.next_id = self.next_id, self.next_id + 1
        if self.tracer is not None:
            self.tracer.job = jid
        output = None
        t0 = time.perf_counter()
        try:
            if job.kind == "cli":
                rc, text = _run_cli(job.argv, self.cache)
            else:
                output = _LIB[job.kind](job.spec, self.refs)
                rc, text = 0, json.dumps(output, sort_keys=True)
        except Exception as e:  # a job that raises is a failed job
            rc, text = -1, f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if rc != 0:
            reason = f"exit {rc}: {text.strip()[:200]}"
        elif replay_of is not None:
            reason = None if text == replay_of else "replay differs"
        else:
            if output is None:
                output = json.loads(text)
            reason = checks.check(job, output)
        rec = {"job": job, "cls": job.cls, "s": elapsed, "text": text,
               "replay": replay_of is not None, "ok": reason is None,
               "output": output}
        if reason is not None:
            self.failures.append(f"{job.cls} {job.argv or job.spec}: {reason}")
        self.records.append(rec)
        return rec

    def run_round(self, index: int, jobs, replays) -> None:
        # a fresh cache per round keeps hit latency independent of how many
        # rounds the run fits
        self.cache = str(self.workdir / f"cache-{index}.jsonl")
        first: Dict[tuple, str] = {}
        for job in jobs:
            rec = self.issue(job)
            if job.kind == "cli" and rec["ok"]:
                first[job.argv] = rec["text"]
        for _ in range(workloads.REPLAY_PASSES[self.workload]):
            for job in replays:
                if job.argv in first:
                    self.issue(job, replay_of=first[job.argv])
        self.cache_bytes.append(os.path.getsize(self.cache)
                                if os.path.exists(self.cache) else 0)


def warm_up(workdir: Path) -> Pass:
    """Issue WARMUP_JOBS over and over, each time with a fresh cache,
    for WARMUP_S."""
    p = Pass(workdir)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < WARMUP_S:
        p.cache = str(workdir / f"cache-{p.next_id}.jsonl")
        for job in WARMUP_JOBS:
            p.issue(job)
    return p


def plan_rounds(workload: str, seed: int, index: int, seen: set):
    jobs = workloads.make_round(workload, seed, index, seen)
    return jobs, workloads.replay_subset(jobs, workload, seed, index)


def run_pass(workload: str, seed: int, seconds: float, workdir: Path,
             rounds: Optional[int] = None, tracer=None
             ) -> Tuple[Pass, int, float]:
    """Issue whole rounds while one more, at the mean round time so far,
    ends within ``seconds`` (at least one; or exactly ``rounds`` rounds);
    returns the pass, the round count and the wall time."""
    p = Pass(workdir, tracer, workload)
    seen: set = set()
    t0 = time.perf_counter()
    done = 0

    def another() -> bool:
        if rounds is not None:
            return done < rounds
        spent = time.perf_counter() - t0
        return done == 0 or spent + spent / done <= seconds

    while another():
        p.run_round(done, *plan_rounds(workload, seed, done, seen))
        p.round_ends.append(len(p.records))
        done += 1
    return p, done, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the time from
    importing formspec to the first job being ready (one more run first
    warms the bytecode cache and is discarded)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("FORMSPEC_CACHE", "FORMSPEC_CONFIG")}
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_probe(workload: str, seed: int) -> float:
    """Child side of ``measure_setup``."""
    t0 = time.perf_counter()
    import_formspec()
    plan_rounds(workload, seed, 0, set())
    References()
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as d:
        (Path(d) / "cache.jsonl").touch()
        return time.perf_counter() - t0


def best_hits(p: Pass) -> List[float]:
    """Per replayed job of each round, its fastest replay: a hit repeated
    right after itself measures the cache path, and the fastest of the
    repeats leaves out the host's bursts."""
    best: Dict[tuple, float] = {}
    start = 0
    for index, end in enumerate(p.round_ends):
        for r in p.records[start:end]:
            if r["replay"]:
                key = (index, r["job"].argv)
                best[key] = min(best.get(key, r["s"]), r["s"])
        start = end
    return list(best.values())


def end_to_end(p: Pass) -> Tuple[Dict[str, float], dict]:
    stream = [r["s"] for r in p.records if not r["replay"]]
    hits = best_hits(p)
    # a fixed percentile, so a run of more rounds (a faster program) is
    # still compared at the same rank
    pct = workloads.TAIL_PERCENTILE[p.workload]
    tail, beyond = tail_percentile(stream, pct)
    metrics = {
        "jobs_per_s": len(stream) / sum(stream),
        "job_p50_ms": 1e3 * statistics.median(stream),
        "job_tail_ms": 1e3 * tail,
        "cache_hit_p50_ms": 1e3 * statistics.median(hits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"tail_percentile": pct, "tail_beyond": beyond,
              "jobs_per_round": len(stream) // len(p.round_ends),
              "stream_jobs": len(stream), "replayed_jobs": len(hits),
              "cache_hits": sum(r["replay"] for r in p.records)}
    return metrics, detail


def from_outputs(p: Pass) -> Dict[str, float]:
    outputs = [r for r in p.records if r["ok"] and not r["replay"]]
    flags = [r["output"]["certified"] for r in outputs
             if "certified" in r["output"]]
    tested = sum(r["output"]["candidates_tested"] for r in outputs
                 if r["cls"].startswith("ael-"))
    return {
        "minima.certified_frac": sum(flags) / len(flags) if flags else 0.0,
        "diophsets.ael_candidates_tested": tested,
        "cli.cache_bytes": statistics.median(p.cache_bytes),
    }


def per_class(p: Pass) -> Dict[str, dict]:
    by: Dict[str, List[float]] = {}
    for rec in p.records:
        if not rec["replay"]:
            by.setdefault(rec["cls"], []).append(rec["s"])
    return {c: {"jobs": len(v), "median_ms": round(1e3 * statistics.median(v), 3),
                "total_s": round(sum(v), 3)} for c, v in sorted(by.items())}


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version()}


def run(args) -> dict:
    import_formspec()
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        if not args.trace:
            setup_s = measure_setup(args.workload, args.seed)
            warm = warm_up(work / "warm-up")
            p, rounds, wall = run_pass(args.workload, args.seed, args.seconds,
                                       work / "pass")
            metrics, detail = end_to_end(p)
            metrics["setup_s"] = setup_s
            units = unit_e2e
            passes = [warm, p]
        else:
            from spans import Tracer
            warm = warm_up(work / "warm-up")
            tracer = Tracer()
            tracer.install()
            try:
                p, rounds, wall = run_pass(args.workload, args.seed,
                                           args.seconds, work / "traced",
                                           tracer=tracer)
            finally:
                tracer.uninstall()
            p0, _, wall0 = run_pass(args.workload, args.seed, args.seconds,
                                    work / "untraced", rounds=rounds)
            for a, b in zip(p0.records, p.records):
                if a["text"] != b["text"] and b["ok"]:
                    b["ok"] = False
                    p.failures.append(f"{b['cls']}: traced output differs")
            metrics = tracer.summary()
            metrics.update(from_outputs(p))
            metrics["trace.overhead_s"] = wall - wall0
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write(str(span_file))
            detail = {"untraced_s": wall0, "traced_s": wall,
                      "span_file": str(span_file.relative_to(ROOT))}
            units = unit_layer
            passes = [warm, p, p0]
        attempted = sum(len(q.records) for q in passes)
        failed = sum(not r["ok"] for q in passes for r in q.records)
        failures = [f for q in passes for f in q.failures]
        detail.update({"workload": args.workload, "seed": args.seed,
                       "rounds": rounds, "environment": environment(),
                       "classes": per_class(p), "failures": failures[:20]})
        print(json.dumps({"detail": detail}, sort_keys=True))
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units(k)}
                            for k in sorted(metrics)}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def unit_e2e(name: str) -> str:
    return {"jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}.get(
        name, "ms")


def unit_layer(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "cli.cache_bytes":
        return "bytes"
    if name == "minima.certified_frac":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        result = run(args)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
