"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
from fractions import Fraction

import pytest

import checks
import run
import workloads
from spans import LAYERS, Tracer


def _plan(workload, seed):
    jobs = workloads.make_round(workload, seed, 0, set())
    return [(j.kind, j.cls, j.argv, sorted(j.spec.items())) for j in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert _plan(workload, 3) == _plan(workload, 3)
    assert _plan(workload, 3) != _plan(workload, 4)
    counts = {}
    for _, cls, _, _ in _plan(workload, 3):
        counts[cls] = counts.get(cls, 0) + 1
    assert counts == {c: k for c, k, _ in workloads.CLASS_MIX[workload]}


def test_cli_argv_never_repeat_within_a_run():
    seen = set()
    argvs = [j.argv for i in range(3)
             for j in workloads.make_round("spectrum-sweep", 1, i, seen)]
    assert len(argvs) == len(set(argvs))


def test_tail_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
    assert run.tail_percentile(values, 90.0) == (90.0, 10)
    assert run.tail_percentile(values, 81.5) == (82.0, 18)
    assert run.tail_percentile([3.0, 1.0, 2.0], 60.0) == (2.0, 1)
    assert run.tail_percentile([3.0, 1.0, 2.0], 0.0) == (1.0, 2)
    with pytest.raises(ValueError):
        run.tail_percentile([], 50.0)


def _min_job(form):
    return workloads.Job("cli", "cubic-3real", argv=("min", form))


def test_corrupted_attaining_vector_counts_as_failed(tmp_path, monkeypatch):
    run.import_formspec()
    p = run.Pass(tmp_path)
    job = _min_job("3: 1 1 -2 -1")
    assert p.issue(job)["ok"] and not p.failures
    good = json.loads(p.records[0]["text"])
    bad = dict(good, attaining=[2, 1])
    assert checks.check(job, bad) is not None
    monkeypatch.setattr(run, "_run_cli",
                        lambda argv, cache: (0, json.dumps(bad)))
    assert not p.issue(_min_job("3: 1 0 -1 -1"))["ok"]
    assert len(p.failures) == 1


def test_replay_must_be_byte_identical(tmp_path):
    run.import_formspec()
    p = run.Pass(tmp_path)
    job = _min_job("3: 1 0 -1 -1")
    first = p.issue(job)["text"]
    assert p.issue(job, replay_of=first)["ok"]
    assert not p.issue(job, replay_of=first + " ")["ok"]


CHEAP = [
    _min_job("3: 1 1 -2 -1"),
    workloads.Job("cli", "quad-small", argv=("min", "2: 1 -1 -1")),
    workloads.Job("cli", "family-neg", argv=("family", "neg-disc", "--t", "1/2")),
    workloads.Job("cli", "sweep", argv=(
        "sweep", "--form", workloads.MORDELL_POS, "--N", "12",
        "--samples", "3", "--seed", "5")),
    workloads.Job("spoint", "spoint-phi", spec={
        "ref": "phi", "N": 8, "h": 1, "eps": Fraction(1, 4)}),
]


def test_traced_and_untraced_runs_emit_identical_payloads(tmp_path):
    run.import_formspec()
    plain = run.Pass(tmp_path / "plain")
    for job in CHEAP:
        plain.issue(job)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.Pass(tmp_path / "traced", tracer)
        for job in CHEAP:
            traced.issue(job)
    finally:
        tracer.uninstall()
    assert not plain.failures and not traced.failures
    assert [r["text"] for r in plain.records] == \
        [r["text"] for r in traced.records]
    summary = tracer.summary()
    for layer in LAYERS:
        assert summary[f"{layer}.calls"] > 0, layer
        assert summary[f"{layer}.self_s"] >= 0, layer
    assert summary["cli.main.calls"] == 4
    assert summary["trace.spans"] == len(tracer.spans)
    # uninstall restores every patched name
    from formspec import cli, minima
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(minima.m_estimate, "__wrapped__")
