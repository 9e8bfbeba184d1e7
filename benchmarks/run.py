"""The warpsim benchmark: one command, three workloads.

    python3 benchmarks/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that measures the per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The load comes from this one process, with no threads; the only
subprocesses are the fresh interpreters timed for ``setup_s``, one at a
time.  Metric names, units and bounds live in ``spec.py``; ``NOTES.md``
explains them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

import spec
from checkout import SRC, MissingProgram, git_commit, use_checkout_src

SETUP_RUNS = 15
TRACE_SETUP_RUNS = 5
TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9)

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import warpsim
built = time.perf_counter()
for kernel in ("single", "double", "single-instrumented"):
    warpsim.kernel_program(kernel)
print(built - start, time.perf_counter() - built)
"""


def setup_time() -> tuple[float, float]:
    """(wall, kernel build) seconds of one fresh interpreter importing warpsim
    and building the three kernel programs."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=120, check=True)
    return perf_counter() - start, float(proc.stdout.split()[1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that still has at
    least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    count = len(ordered)
    for pct in reversed(TAIL_LADDER):
        rank = math.ceil(pct / 100 * count)
        if count - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end(workload, seconds: float) -> tuple[dict, dict, int, int]:
    """End-to-end metrics, tracing off.

    The host's speed drifts by tens of percent over seconds (other
    tenants), so each unit's latency is its best over the run's passes,
    and throughput divides a pass's instructions by the sum of those
    bests.  Set-up interpreters are spread over the run and the best is
    kept, for the same reason.
    """
    from workloads import run_pass

    attempted, failed = workload.precheck()
    setup_time()  # writes the bytecode caches
    # The first pass fills warpsim's caches, so the heap figure includes
    # them; tracemalloc slows it ~15x, so it is not timed.
    gc.collect()
    tracemalloc.start()
    try:
        run_pass(workload, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    passes, setups = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        if len(setups) < SETUP_RUNS * (perf_counter() - start) / seconds:
            setups.append(setup_time()[0])
        gc.collect()
        passes.append(run_pass(workload))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_time()[0])
    best = [min(times) for times in zip(*(p.latencies for p in passes))]
    pass_seconds = sum(best) + min(p.finish_seconds for p in passes)
    pct, tail_value = tail(best)
    metrics = {
        "setup_s": min(setups),
        "emu_kinst_per_s": statistics.median(p.insts for p in passes) / pass_seconds / 1e3,
        "unit_ms_p50": statistics.median(best) * 1e3,
        "unit_ms_tail": tail_value * 1e3,
        "peak_heap_mb": peak / 1e6,
    }
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    info = {"passes": len(passes), "setup_runs": len(setups), "unit_samples": len(best),
            "unit_tail_percentile": pct, "fail_ratio": failed / attempted}
    return metrics, info, attempted, failed


def per_layer(workload, seconds: float) -> tuple[dict, dict, int, int]:
    """Per-layer metrics: span cost, tour passes, then the probes (see layers.py)."""
    import layers
    from spans import Spans, no_spans
    from workloads import run_pass

    attempted, failed = workload.precheck()
    setup_time()
    builds = [setup_time()[1] for _ in range(TRACE_SETUP_RUNS)]
    gc.collect()
    warm = run_pass(workload)
    attempted, failed = attempted + warm.attempted, failed + warm.failed

    # Tracing overhead: the same pass with and without spans, alternated.
    plain, traced = [], []
    deadline = perf_counter() + seconds / 4
    while len(plain) < 3 or perf_counter() < deadline:
        for span, times in ((no_spans, plain), (Spans(), traced)):
            gc.collect()
            result = run_pass(workload, span)
            times.append(result.seconds)
            attempted, failed = attempted + result.attempted, failed + result.failed

    tours = []
    deadline = perf_counter() + seconds * 3 / 4
    while len(tours) < 2 or perf_counter() < deadline:
        gc.collect()
        spans = Spans()
        counts, tour_attempted, tour_failed = layers.tour_pass(workload, spans)
        tours.append((spans.totals(), counts))
        attempted, failed = attempted + tour_attempted, failed + tour_failed
    # Simulated counts must repeat exactly from pass to pass.
    attempted += 1
    failed += len({json.dumps(c, sort_keys=True) for _, c in tours}) != 1

    metrics = layers.tour_metrics(tours)
    metrics.update(layers.op_probe(repeats=200))
    cli, cli_attempted, cli_failed = layers.cli_probe(3, workload.golden)
    metrics.update(cli)
    attempted, failed = attempted + cli_attempted, failed + cli_failed
    metrics["cost.parse_profile_s"] = layers.parse_profile_probe(2000)
    metrics["kernels.build_s"] = statistics.median(builds)
    metrics["bench.tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"tour_passes": len(tours), "overhead_pass_pairs": len(plain),
            "setup_runs": TRACE_SETUP_RUNS, "fail_ratio": failed / attempted}
    return metrics, info, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    try:
        ws = use_checkout_src()
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads

    golden = workloads.load_golden()
    workload = workloads.WORKLOADS[args.workload](args.seed, golden)
    measure = per_layer if args.trace else end_to_end
    metrics, info, attempted, failed = measure(workload, args.seconds)

    units = spec.PER_LAYER_UNITS if args.trace else spec.END_TO_END_UNITS
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "commit": git_commit(),
        "golden_commit": golden.get("recorded_at_commit"),
        "warpsim": getattr(ws, "__version__", "unknown"),
        "wall_s": round(perf_counter() - started, 1), **info,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} units)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
