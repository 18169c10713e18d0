import json
import os
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import formspec
from formspec.cli import main
from formspec.forms import BinaryForm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMin:
    def test_negative_anchor(self, capsys, tmp_path):
        code, out, _ = run(capsys, "min", "3: 1 0 -1 -1",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert "discriminant: -23" in out
        assert "attaining: [1, 0]" in out

    def test_positive_anchor_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "min", "3: 1 1 -2 -1",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert payload["discriminant"] == "49"
        assert payload["value"]["exact"] == "1"

    def test_rational_root_zero(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "min", "3: 1 0 -1 0",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert payload["value"]["exact"] == "0"
        assert payload["certified"] is True

    @pytest.mark.parametrize("form", ["3: 1 0 -7 5", "2: 7 -3 -5"])
    def test_single_json_document(self, capsys, tmp_path, form):
        code, out, _ = run(capsys, "min", form, "--format", "json",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload, end = json.JSONDecoder().raw_decode(out)
        assert out[end:].strip() == ""  # exactly one document on stdout
        vec = payload["attaining"]
        assert isinstance(vec, list) and len(vec) == 2
        assert all(type(c) is int for c in vec)
        f = BinaryForm.parse(form)
        value = abs(f.evaluate(*vec))
        assert value == F(payload["value"]["exact"])
        assert all(abs(f.evaluate(x, y)) >= value
                   for x in range(-10, 11) for y in range(-10, 11)
                   if (x, y) != (0, 0))

    def test_malformed_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "min", "3: nope",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and "malformed" in err

    def test_zero_discriminant_exit_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "min", "3: 1 0 0 0",
                         "--cache", str(tmp_path / "c.jsonl"))
        assert code == 3


class TestFamily:
    def test_neg_disc_anchor(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "family", "neg-disc",
                           "--t", "0", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert payload["form"] == "3: 1 0 -1 -1"
        assert payload["min"]["exact"] == "1"
        # normalized minimum ~ 23^(-1/4)
        dec = float(payload["normalized_min"]["dec"])
        assert abs(dec - 23 ** -0.25) < 1e-6

    def test_invalid_t_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "family", "neg-disc", "--t", "-1",
                         "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2

    def test_pos_disc_small(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "family", "pos-disc",
                           "--c", "2", "--N", "10", "--box", "60",
                           "--depth", "25",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        m = float(payload["min"]["dec"])
        assert abs(2 * m - 1) < 0.05
        assert payload["certified"] is True
        d = float(payload["discriminant"]["dec"])
        assert abs(d - 49) < 0.05 * 49


class TestMarkoff:
    def test_bound_100(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "markoff",
                           "--bound", "100", "--cache",
                           str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert payload["triples"][0]["x"] == 1
        assert payload["triples"][0]["dec"].startswith("0.44721359")
        assert abs(float(payload["freiman_constant"]["dec"]) - 0.2208) < 1e-3

    def test_csv_format(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "csv", "markoff",
                           "--bound", "10", "--cache",
                           str(tmp_path / "c.jsonl"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,z,value_lo,value_hi,dec"
        assert lines[1].startswith("1,1,1,")


class TestCf:
    def test_sqrt2_digits(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "cf", "--poly",
                           "1 0 -2", "--root-near", "1.4", "--depth", "10",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert payload["digits"] == [1] + [2] * 10

    def test_rational_value(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "cf", "--value",
                           "355/113", "--depth", "10",
                           "--cache", str(tmp_path / "c.jsonl"))
        payload = json.loads(out)
        assert payload["digits"] == [3, 7, 16]
        assert payload["tail"] == "finite"

    def test_sqrt7_period(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "cf", "--poly",
                           "1 0 -7", "--depth", "8",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert payload["tail"] == "periodic"
        assert payload["period"] == [1, 1, 1, 4]
        assert payload["digits"] == [2, 1, 1, 1, 4, 1, 1, 1, 4]

    def test_needs_source(self, capsys, tmp_path):
        code, _, _ = run(capsys, "cf", "--depth", "5",
                         "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2


class TestCache:
    def test_round_trip_byte_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "c.jsonl")
        code1, out1, _ = run(capsys, "--format", "json", "min",
                             "3: 1 0 -1 -1", "--cache", cache)
        assert code1 == 0 and os.path.exists(cache)
        code2, out2, _ = run(capsys, "--format", "json", "min",
                             "3: 1 0 -1 -1", "--cache", cache)
        assert code2 == 0
        assert out1 == out2
        # exactly one entry was written
        with open(cache) as fh:
            assert len([ln for ln in fh if ln.strip()]) == 1

    def test_no_cache_verifies(self, capsys, tmp_path):
        cache = str(tmp_path / "c.jsonl")
        run(capsys, "--format", "json", "min", "3: 1 0 -1 -1",
            "--cache", cache)
        code, out, _ = run(capsys, "--format", "json", "min", "3: 1 0 -1 -1",
                           "--cache", cache, "--no-cache")
        assert code == 0
        with open(cache) as fh:
            assert len([ln for ln in fh if ln.strip()]) == 1

    def test_stale_cache_exit_5(self, capsys, tmp_path):
        cache = tmp_path / "c.jsonl"
        run(capsys, "--format", "json", "min", "3: 1 0 -1 -1",
            "--cache", str(cache))
        text = cache.read_text()
        entry = json.loads(text)
        entry["result"]["discriminant"] = "-24"
        cache.write_text(json.dumps(entry, sort_keys=True) + "\n")
        code, _, err = run(capsys, "--format", "json", "min", "3: 1 0 -1 -1",
                           "--cache", str(cache), "--no-cache")
        assert code == 5 and "stale" in err

    def test_env_config_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        monkeypatch.setenv("FORMSPEC_CONFIG", str(cfg))
        code, out, _ = run(capsys, "min", "3: 1 0 -1 -1",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        json.loads(out)  # default format picked up from the config file

    def test_config_change_between_calls(self, capsys, tmp_path, monkeypatch):
        # the parser is built once per configuration, and the config file
        # is still read on every call
        cache = str(tmp_path / "c.jsonl")
        for fmt, is_json in (("json", True), ("text", False), ("json", True)):
            cfg = tmp_path / f"{fmt}.json"
            cfg.write_text(json.dumps({"format": fmt}))
            monkeypatch.setenv("FORMSPEC_CONFIG", str(cfg))
            code, out, _ = run(capsys, "min", "3: 1 0 -1 -1", "--cache", cache)
            assert code == 0
            assert out.startswith("{") == is_json

    def test_env_cache_path(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache.jsonl"
        monkeypatch.setenv("FORMSPEC_CACHE", str(cache))
        code, _, _ = run(capsys, "--format", "json", "min", "3: 1 0 -1 -1")
        assert code == 0 and cache.exists()


class TestSweepProfileCli:
    def test_sweep_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "csv", "sweep", "--form",
                           "3: 1 1 -2 -1", "--N", "8", "--samples", "6",
                           "--seed", "7", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta_lo,theta_hi,value_lo,value_hi,case,x,y"
        assert len(lines) == 7

    def test_sigma_identity(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "sigma", "--form",
                           "3: 1 1 -2 -1", "--N", "10", "--du", "0",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert payload["identity"] is True

    def test_budget_exhausted_exit_4(self, capsys, tmp_path):
        code, _, _ = run(capsys, "ael", "--form", "3: 1 1 -2 -1",
                         "--eps", "1/4", "--budget", "2", "--depth", "12",
                         "--cache", str(tmp_path / "c.jsonl"))
        assert code == 4


def test_version_matches_pyproject():
    # tomllib is missing on Python 3.10: read the field with a regex
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    m = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert m is not None and m.group(1) == formspec.__version__
