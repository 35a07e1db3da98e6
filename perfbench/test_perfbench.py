"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench

Each workload is run once untraced and once traced with --seconds 1 (one
round each), which takes a minute or two.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny():
    """{(workload, trace): result line} of a one-round run of every workload."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return results


def test_workload_names_match():
    assert sorted(WORKLOADS) == sorted(workloads.GENERATORS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    text = workloads.generate(workload, 7, 1)
    assert workloads.generate(workload, 7, 1) == text
    assert workloads.generate(workload, 8, 1) != text
    for line in text.splitlines():
        assert set(json.loads(line)) <= {"id", "alphabet", "seq", "expect"}


def test_tiny_runs_check_out(tiny):
    for res in tiny.values():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1
        assert res["failed"] == 0  # failed_ratio == 0


def test_printed_metrics_match_benchmark_json(tiny):
    for (_, trace), res in tiny.items():
        declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_per_layer_metrics_are_the_tracers():
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracer.metric_units()


def test_every_wrapped_name_is_hit_on_some_workload(tiny):
    hit = set()
    for workload in WORKLOADS:
        record = ROOT / ".bench_out" / f"result-{workload}-seed{SEED}-trace1.json"
        hit |= set(json.loads(record.read_text())["hit"])
    assert hit == set(tracer.span_names())


def test_repeat_ratio_resolves_the_default_cap():
    sys.path.insert(0, str(ROOT / "src"))
    from comtrace import CLASS_CAP, enumerate_class
    from comtrace.files import parse_alphabet
    from comtrace.stepseq import parse

    alph = parse_alphabet("events: a b\nsim: (a,b)\nser:\ninl:\n")
    s = parse(alph, "{a,b}")
    t = tracer.Tracer()
    counted = t.wrap("congruence.enumerate_class", enumerate_class, value=len,
                     before=t._note_class_key)
    counted(alph, s)
    counted(alph, s, CLASS_CAP)
    counted(alph, s, cap=CLASS_CAP)
    counted(alph, s, 5)
    assert t.class_repeats == 2


def test_disagreeing_instance_counts_as_failed():
    line = json.dumps({
        "id": "bad", "alphabet": "events: a b\nsim: (a,b)\nser: (a,b) (b,a)\n", "seq": "{a,b}",
        "expect": {"size": 3, "members_sha": "0", "least": "{a,b}"},
    })
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", "large_class"],
                          input=line + "\n", capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failed"] == ["bad"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
