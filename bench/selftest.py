"""Self-tests of the benchmark harness, on tiny versions of each workload.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test collection; each test
starts real worker processes, so the module takes about a minute.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Same view count and cluster count as each workload, small everything else.
TINY_SHAPES = {
    "large-n": dict(n=120, dims=(12, 14, 13), layers=(9, 6, 3), max_iter=3),
    "wide-views": dict(n=80, dims=(60, 64), layers=(20, 10, 5), max_iter=3),
    "many-views": dict(n=112, dims=(16, 14, 20, 40, 24, 30), layers=(14, 10, 7), max_iter=3),
}


def tiny(name: str) -> run.Workload:
    return replace(
        run.WORKLOADS[name], name=f"{name}-tiny", pretrain_iters=10, kmeans_restarts=2, **TINY_SHAPES[name]
    )


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in run.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert set(TINY_SHAPES) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_prints_every_metric(name, trace, capsys):
    wl = tiny(name)
    result = run.measure(wl, seed=5, seconds=0.1, trace=trace)
    run.report(result, wl, seed=5)
    lines = capsys.readouterr().out.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in final["metrics"].items()] == expected
    for metric, unit in expected:
        assert any(line.startswith(f"{metric} ") and f" {unit} (samples=" in line for line in lines)
    assert any(line.startswith("failed_frac 0.0 ") for line in lines)
    assert any(line.startswith("environment ") for line in lines)


def test_forced_failure_counts_toward_failed_frac():
    wl = tiny("large-n")
    result = run.measure(wl, seed=6, seconds=0.1, trace=False, fail_first_at=2)
    res = result["result"]
    assert res["failed"] == 1
    assert res["attempted"] >= 3  # the failed fit, then at least one good fit and set-ups
    assert res["correct"] is False
    assert any("injected failure" in p for p in result["problems"])
    assert [k for k in res["metrics"]] == [name for name, _ in run.END_TO_END]


def test_traced_fingerprint_equals_untraced():
    wl = tiny("many-views")
    traced = run.measure(wl, seed=7, seconds=0.1, trace=True)
    plain = run.measure(wl, seed=7, seconds=0.1, trace=False)
    assert len(traced["fingerprints"]) == 2
    assert len(set(traced["fingerprints"] + plain["fingerprints"])) == 1
    assert traced["result"]["correct"] and plain["result"]["correct"]


def test_self_times_and_iteration_windows():
    # fit [0, 10] with initial objective [1, 2]; iterations end at marks 5 and 9
    spans = [
        {"name": "fitting.fit", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "fitting.objective_terms", "parent": 0, "start": 1.0, "end": 2.0},
        {"name": "finetune.sweep_view", "parent": 0, "start": 2.0, "end": 4.0},
        {"name": "fitting.objective_terms", "parent": 0, "start": 4.0, "end": 5.0},
        {"name": "consensus.compute_Q", "parent": 3, "start": 4.2, "end": 4.7},
        {"name": "finetune.sweep_view", "parent": 0, "start": 6.0, "end": 7.0},
    ]
    assert run.self_times(spans)[3] == pytest.approx(0.5)
    assert run.self_times(spans)[0] == pytest.approx(10.0 - 1.0 - 2.0 - 1.0 - 1.0)
    windows = run.iteration_windows(spans, [(5.0, 5.5), (9.0, 9.5)])
    assert windows == [(2.0, 5.0), (5.5, 9.0)]
