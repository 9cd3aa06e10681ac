"""Self-check of the benchmark, with every workload at its toy size.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json declares is emitted with its
declared unit, that every per-layer metric is hit on the workloads it is
declared for, that the traced work counts match the forward-mode
algorithm, that tracing reaches every name binding a traced function and
undoes itself, and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

bench.prepare()

import spans  # noqa: E402  (imports weilfield, so after prepare)

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# Per-layer metrics (by name prefix) that must be nonzero on each workload:
# the layers each workload was chosen to exercise.
DECLARED = {
    "bracket_oracle": ("poisson.differential.", "poisson.bracket.",
                       "dynamics.solve_smeared.", "dynamics.site_steps",
                       "dynamics.step_ms", "weil.", "lattice.d2_dx2.", "harness."),
    "conserve_sg": ("dynamics.solve_cauchy.", "dynamics.site_steps", "dynamics.step_ms",
                    "dynamics.history_bytes", "weil.", "lattice.", "zuckerman.",
                    "harness.build.", "harness.write_report.", "harness.run."),
    "jacobi_triple": ("poisson.", "weil.mul.", "weil.add.", "harness.build.",
                      "harness.write_report.", "harness.run."),
}
# the difference of two timings, of either sign
UNSIGNED = {"trace.overhead_s"}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def toy_runs(request):
    name = request.param
    plain = bench.benchmark(name, 0, 0.01, False, toy=True, setup_probes=1)
    traced = bench.benchmark(name, 0, 0.01, True, toy=True)
    return name, plain, traced


def _emitted(result: dict, declared: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


def test_end_to_end_metrics_emitted(toy_runs):
    _, (result, record), _ = toy_runs
    _emitted(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert record["verdicts"] and record["failed_share"] == 0.0


def test_per_layer_metrics_emitted_and_hit(toy_runs):
    name, _, (result, record) = toy_runs
    _emitted(result, SPEC["per_layer"])
    for key, metric in result["metrics"].items():
        if key.startswith(DECLARED[name]):
            assert metric["value"] > 0, f"{key} not hit on {name}"


def test_expected_counts_hold_at_toy_size(toy_runs):
    name, _, (_, record) = toy_runs
    checks = record["expected_counts"]
    assert bool(checks) == (name != "jacobi_triple")
    assert all(c["holds"] for c in checks.values()), checks


def test_every_per_layer_metric_is_declared_for_a_workload():
    prefixes = tuple(p for group in DECLARED.values() for p in group)
    for m in SPEC["per_layer"]:
        assert m["name"] in UNSIGNED or m["name"].startswith(prefixes), m["name"]


def test_tracing_reaches_every_binding_and_undoes_itself():
    import weilfield
    from weilfield import dynamics, poisson, weil
    from weilfield.harness import cli, experiments

    bindings = [
        (weilfield, "apply_smooth"), (dynamics, "apply_smooth"),
        (poisson, "solve_smeared"), (poisson, "solve_cauchy"), (poisson, "extract_top"),
        (experiments.dyn, "solve_cauchy"), (experiments.ps, "differential"),
        (experiments.zk, "slice_drift"), (cli, "run"),
        (weil.WeilValue, "__rmul__"), (weil.WeilValue, "__radd__"),
    ]
    before = [getattr(owner, name) for owner, name in bindings]
    with spans.Tracer().installed():
        for owner, name in bindings:
            assert hasattr(getattr(owner, name), "__wrapped__"), name
    assert [getattr(owner, name) for owner, name in bindings] == before


def test_recursion_counts_once_and_self_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("x.inner", lambda: time.sleep(0.02))

    def rec(n):
        if n:
            traced_rec(n - 1)
        inner()

    traced_rec = tracer.wrap("x.rec", rec)
    traced_rec(2)
    r, i = tracer.keys["x.rec"], tracer.keys["x.inner"]
    assert (r.calls, i.calls, tracer.layers["x"].calls) == (3, 3, 1)
    assert r.total_s == pytest.approx(r.self_s + i.self_s, abs=1e-3)
    assert i.self_s >= 0.06 > 0.5 * r.total_s > r.self_s
    assert tracer.layers["x"].total_s == pytest.approx(r.total_s)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(bench.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "bracket_oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
