"""Smoke test of the end-to-end round benchmark (quick mode, ~20 s).

Runs the whole suite once with ``--quick`` (one set-up, 3 timed rounds, one
untraced and one traced run per workload) and checks what the benchmark
promises: every metric of ``BENCHMARK.json`` is printed with its unit for
every workload, tracing does not change the trajectory, the traced spans
cover the round, and ``compare.py`` flags a regression.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "1",
         "--out", str(out / "results.json"), "--trace-out", str(out / "traces")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads((out / "results.json").read_text()), out


def _sections(stdout: str) -> dict:
    sections, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = line.split()[1]
            sections[current] = []
        elif current is not None:
            sections[current].append(line.split())
    return sections


def test_every_metric_is_printed_with_its_unit(quick_suite):
    stdout, _, _ = quick_suite
    sections = _sections(stdout)
    assert sorted(sections) == sorted(WORKLOADS)
    for name in WORKLOADS:
        printed = {words[0]: words[2] for words in sections[name] if len(words) >= 3}
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], (name, metric["name"])


def test_tracing_leaves_the_trajectory_unchanged(quick_suite):
    _, results, _ = quick_suite
    for name in WORKLOADS:
        entry = results["workloads"][name]
        assert entry["runs"][0]["digest"] == entry["traced"]["digest"], name


def test_traced_spans_cover_the_round(quick_suite):
    _, results, out = quick_suite
    for name in WORKLOADS:
        assert results["workloads"][name]["traced"]["layers"]["round.coverage"] >= 0.95, name
        events = json.loads((out / "traces" / f"{name}.trace.json").read_text())["traceEvents"]
        assert {"round", "executor", "local_train", "noise"} <= {event["name"] for event in events}


def _compare(tmp_path, base, new):
    paths = []
    for label, payload in (("base", base), ("new", new)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(HERE / "compare.py"), *paths], capture_output=True, text=True, timeout=60
    )


def test_compare_flags_a_throughput_drop(quick_suite, tmp_path):
    _, results, _ = quick_suite
    assert _compare(tmp_path, results, results).returncode == 0
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "rounds_per_s")
    slower = copy.deepcopy(results)
    for entry in slower["workloads"].values():
        for run in entry["runs"]:
            run["metrics"]["rounds_per_s"] *= 1.0 - 2 * bound
    proc = _compare(tmp_path, results, slower)
    assert proc.returncode == 1
    flagged = [line.split()[0] for line in proc.stdout.splitlines() if "rounds_per_s" in line and "worse" in line]
    assert sorted(flagged) == sorted(WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
