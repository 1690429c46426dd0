"""Smoke test of the benchmark itself, at the smallest size it runs.

    python3 -m pytest perfbench/smoke.py      or      python3 perfbench/smoke.py

Each workload runs one round (the cli workload the 100 ops its p90 needs),
untraced, and one workload runs traced; every metric name in BENCHMARK.json
must be emitted with its unit.  A run with an injected wrong expected value
must exit nonzero and report "correct": false.  The file is not named
test_*.py, so the repository's own test suite does not collect it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _assert_metrics(result, wanted):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_every_end_to_end_metric_on_every_workload():
    spec = _spec()
    for w in spec["workloads"]:
        code, result, err = _run(w["name"], 0)
        assert code == 0, err
        _assert_metrics(result, spec["end_to_end"])


def test_every_per_layer_metric_when_traced():
    code, result, err = _run("search", 1)
    assert code == 0, err
    _assert_metrics(result, _spec()["per_layer"])


def test_injected_wrong_answer_fails_the_run():
    code, result, err = _run("calculus", 0, "--inject-wrong")
    assert code != 0
    assert result["correct"] is False
    assert "WRONG ANSWER" in err


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
