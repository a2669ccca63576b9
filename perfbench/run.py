#!/usr/bin/env python3
"""Run one conftorus benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload's fixed work, tracing off, until
``--seconds`` have passed (at least once) and prints the end-to-end metrics.
``--trace 1`` runs the work once untraced and once traced and prints the
per-layer metrics; the spans go to ``.perfbench_out/`` at the checkout root.
``--smoke`` shrinks every workload (n <= 3, t-order 8) for the benchmark's
own tests.  The package is imported from ``src/`` of the checkout this file
sits in; without it the run fails before printing a result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (correctness checks over all passes)
and ``metrics`` ({name: {"value": ..., "unit": ...}}).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "conftorus" / "__init__.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11
SAMPLE_INTERVAL_S = 0.025
KERNEL_NOMINAL_S = 0.0007

# Import of conftorus plus building the inputs, timed inside a fresh
# interpreter; a first, untimed probe fills the bytecode cache.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}].make_inputs({seed!r}, {smoke!r})
print(time.perf_counter() - t0)
"""


def import_workloads():
    if not PACKAGE.is_file():
        raise SystemExit(f"run.py: no conftorus source at {PACKAGE}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import conftorus

    if Path(conftorus.__file__).resolve() != PACKAGE:
        raise SystemExit(f"run.py: imported conftorus from {conftorus.__file__}, not {PACKAGE}")
    import workloads

    return workloads


def setup_seconds(name, seed, smoke):
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed, smoke=smoke)
    samples = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        if probe:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def reference_kernel():
    """Fixed pure-Python work in the package's style: a small dict, tuple
    hashes and Fraction sums.  It never touches conftorus."""
    table, acc = {}, 0
    for i in range(1500):
        k = (i * 7919) & 255
        table[k] = table.get(k, 0) + i
        acc ^= hash((k, i))
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(1, i)
    return acc, total


class SpeedSampler:
    """Times a pass and samples how fast the machine runs during it.

    Every SAMPLE_INTERVAL_S a SIGALRM handler runs :func:`reference_kernel`
    (garbage collection off) and records its time.  ``work_s`` is the pass's
    wall time without those samples.  ``ref_s`` scales it by
    KERNEL_NOMINAL_S over the mean sample: the time the pass would take on a
    machine that runs the kernel in KERNEL_NOMINAL_S.  On a shared host whose
    speed drifts from minute to minute, ``ref_s`` varies far less between
    runs than ``work_s``.
    """

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.work_s = self.wall - sum(self.samples)
        if not self.samples:  # a pass shorter than one interval
            self._sample(None, None)
        self.kernel_s = statistics.fmean(self.samples)
        self.ref_s = self.work_s * KERNEL_NOMINAL_S / self.kernel_s
        return False

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()


def end_to_end(workload, inputs, args):
    passes, walls, refs, kernels = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        with SpeedSampler() as sampler:
            passes.append(workload.run(inputs))
        walls.append(sampler.work_s)
        refs.append(sampler.ref_s)
        kernels.append(sampler.kernel_s)
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload.name}: {len(walls)} passes; median wall {statistics.median(walls):.4f} s, "
          f"kernel {1e3 * statistics.median(kernels):.4f} ms, "
          f"wall at reference speed {statistics.median(refs):.4f} s")
    metrics = {
        "wall_ref_s": (statistics.median(refs), "s"),
        "setup_s": (setup_seconds(workload.name, args.seed, args.smoke), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, passes


def per_layer(workload, inputs, args):
    import tracing

    c0, t0 = time.process_time(), time.perf_counter()
    ref = workload.run(inputs)
    ref_wall, ref_cpu = time.perf_counter() - t0, time.process_time() - c0
    tracer = tracing.Tracer(workload.targets)
    with tracer:
        traced = workload.run_traced(inputs)
    metrics = tracing.layer_metrics(tracer)
    metrics["proc.wall_s"] = (ref_wall, "s")
    metrics["proc.cpu_s"] = (ref_cpu, "s")
    metrics["trace.overhead_frac"] = (tracer.wall_s / ref_wall - 1, "frac")
    for key, count in tracer.calls().items():
        traced.check(f"trace reached {key}", count > 0, "never called")
    accounted = metrics["trace.unattributed_s"][0] + sum(
        metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS
    )
    traced.check("layer self times + unattributed == traced wall",
                 math.isclose(accounted, tracer.wall_s, rel_tol=1e-9, abs_tol=1e-9),
                 f"{accounted} != {tracer.wall_s}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    print(f"{workload.name}: untraced {ref_wall:.4f} s, traced {tracer.wall_s:.4f} s, "
          f"{len(tracer.spans)} spans")
    return metrics, [ref, traced]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.smoke)

    measure = per_layer if args.trace else end_to_end
    metrics, passes = measure(workload, inputs, args)
    for checks in passes[1:]:
        passes[0].check("results identical across passes", checks.results == passes[0].results)
    attempted = sum(len(checks.items) for checks in passes)
    failed = [item for checks in passes for item in checks.failed]
    for name, _, detail in failed[:20]:
        print(f"FAILED {name}: {detail}")
    print(f"checks_failed_frac = {len(failed)}/{attempted}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
