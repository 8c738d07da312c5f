"""Seed discipline and contract checks of the benchmark, on reduced
F4-only inputs.  Run with: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEEDS = (11, 12)


def _pass(workload, seed, pass_id=0):
    return run.run_pass(workload, seed, 1, pass_id, time.monotonic() + run.PASS_TIMEOUT_S,
                        scale="f4")


def _counts(result):
    return {k: v for k, v in result["layers"].items() if run.unit_of(k) == "count"}


@pytest.fixture(scope="module", params=run.WORKLOADS)
def passes(request):
    w = request.param
    return w, [_pass(w, SEEDS[0]), _pass(w, SEEDS[0], 1), _pass(w, SEEDS[1])]


def test_same_seed_same_inputs(passes):
    _w, (a, again, _b) = passes
    assert a["input_hash"] == again["input_hash"]
    assert _counts(a) == _counts(again)


def test_seed_keeps_work_class(passes):
    """Different seeds: same verdicts and the same count on every layer."""
    _w, (a, _again, b) = passes
    assert a["verdicts"] == b["verdicts"]
    assert a["errors"] == b["errors"]
    assert _counts(a) == _counts(b)


def test_expected_verdicts(passes):
    w, (a, _again, _b) = passes
    if w == "negative_controls":
        assert set(a["verdicts"]) == {"fail"}
    elif w == "gfp":
        # ROADMAP 2(c): GF(p) check_structurable raises AttributeError
        assert a["errors"] == {"AttributeError": a["verdicts"]["raised"]}
        assert a["failed"] == 0
    else:
        assert set(a["verdicts"]) == {"pass"}


def test_metric_names_match_benchmark_json(passes):
    _w, (a, _again, _b) = passes
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = list(a["layers"]) + ["error_share", "trace.overhead_s"]
    assert sorted(per_layer) == sorted(produced)
    assert all(per_layer[k] == run.unit_of(k) for k in produced)


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gfp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
