"""The benchmark's own tests; run with ``python3 -m pytest perfbench -q``.

They use the smoke size (n <= 3, t-order 8), so they take seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from conftorus import linalg, specseq  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_expected_table_fails_checks():
    inputs = workloads.crosscheck_inputs(1, smoke=True)
    inputs["expected_betti"][3] = [1, 2, 4, 5]
    checks = workloads.crosscheck(inputs)
    assert [name for name, _, _ in checks.failed] == ["n=3 betti table"]


def test_exception_becomes_failed_check(monkeypatch):
    def broken(n):
        raise RuntimeError("engine broke")

    monkeypatch.setattr(specseq, "e3_dims", broken)
    checks = workloads.crosscheck(workloads.crosscheck_inputs(1, smoke=True))
    assert len(checks.failed) == 4 and not any(passed for _, passed, _ in checks.items)


@pytest.mark.parametrize("name", NAMES)
def test_seed_permutes_order_only(name):
    w = workloads.WORKLOADS[name]
    one = w.make_inputs(1, True)
    two = next(x for x in (w.make_inputs(s, True) for s in range(2, 20)) if x != one)
    results = [w.run(one).results, w.run(two).results, w.run_traced(two).results]
    assert results[0] == results[1] == results[2]


def test_tracer_wraps_every_importing_namespace():
    original = linalg.kernel_of_columns
    assert specseq.kernel_of_columns is original
    with tracing.Tracer(["linalg.kernel_of_columns"]) as tracer:
        assert specseq.kernel_of_columns is linalg.kernel_of_columns is not original
        specseq.invariant_basis(3, 2, 1)
    assert specseq.kernel_of_columns is linalg.kernel_of_columns is original
    assert tracer.calls()["linalg.kernel_of_columns"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, NAMES[0], 0)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_speed_sampler_samples_and_restores_the_signal_state():
    import signal
    import time

    import run

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 4
    assert 0 < sampler.work_s < sampler.wall and sampler.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_layer_metrics_count_calls_and_account_for_the_wall_time():
    w = workloads.WORKLOADS["series_deep"]
    inputs = w.make_inputs(1, True)
    with tracing.Tracer(w.targets) as tracer:
        w.run_traced(inputs)
    metrics = {k: v for k, (v, _) in tracing.layer_metrics(tracer).items()}
    assert metrics["series.decode_calls"] == 2 * (inputs["t_order"] + 1)
    assert metrics["series.top_terms"] > 0 and metrics["gcalg.spaces_built"] == 0
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert abs(layers + metrics["trace.unattributed_s"] - metrics["trace.wall_s"]) < 1e-9
