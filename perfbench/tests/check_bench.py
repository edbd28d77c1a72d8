"""Tests of the benchmark itself; not part of the package's test suite.

Run from the repository root::

    python3 -m pytest -q perfbench/tests/check_bench.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request):
    return request.param, run_bench(request.param, 1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_untraced(workload):
    result, record = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["repeats"] >= 2
    assert set(record["environment"]) >= {"python", "numpy", "blas", "blas_threads", "nproc",
                                          "git_revision"}


def test_smoke_traced(traced_run):
    _, (result, record) = traced_run
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_spans_cover_each_stage(traced_run):
    _, (_, record) = traced_run
    assert record["coverage"]
    for stage, share in record["coverage"].items():
        assert share >= 0.9, (stage, share)


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_layer_metrics_cover_the_spec():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    computed = set(spans.layer_metrics([]))
    cli_and_run = {n for n in per_layer if n.startswith("cli.")} | {
        "train_images_per_s", "accuracy", "classify_images_per_s", "inventory_rows_per_s",
        "trace_overhead_s"}
    assert computed | cli_and_run == per_layer


def _bindings():
    """Every attribute of every loaded bridgecap module and class."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "bridgecap" or name.startswith("bridgecap."):
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for owner in owners:
                for attr, value in vars(owner).items():
                    found[(id(owner), attr)] = value
    return found


def test_tracer_restores_every_original(tmp_path):
    from bridgecap import cli, learner
    from bridgecap.learner import layers, network

    before = _bindings()
    original_train = cli.train
    with spans.Tracer() as tracer:
        assert cli.train is not original_train
        assert hasattr(network.Network.from_checkpoint, "__bench_tracer__")
        assert hasattr(layers.Conv.forward, "__bench_tracer__")
        assert hasattr(learner.predict_proba, "__bench_tracer__")
        assert cli.main(["synth-gen", "--out", str(tmp_path / "c"), "--classes", "2",
                         "--per-class", "3", "--size", "8"]) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.cmd_synth_gen", "synth.gen_corpus", "imaging.encode_pnm"} <= names


def test_self_time_subtracts_children():
    recorded = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    assert spans.attributed_seconds(recorded) == 4.0
