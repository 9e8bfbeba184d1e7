"""Metric and workload tables of the warpsim benchmark.

``BENCHMARK.json`` at the repository root is generated from these tables:

    python3 benchmarks/spec.py > BENCHMARK.json

Per-layer names start with the warpsim module they time.  ``NOTES.md``
explains every metric and names the end-to-end metric and workload each
per-layer metric should move.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "benchmarks/run.py"]
PATHS = ["benchmarks"]
RUN_SECONDS = 20

# name -> one-line reason the workload exists.
WORKLOADS = {
    "paper-sweep": "the paper reproduction users run: sweep n=0..31 for 3 kernels x 2 archs, "
                   "then CSV and compare; core-bound, isa idle, 1 spill store per 18 pushes",
    "trace-emit": "traced kepler runs of every kernel and n plus JSONL emission; "
                  "trace-record building and harness serialisation are about 2/3 of the work",
    "asm-spill": "seeded assembly text parsed, decoded and run under a 4/2 on-chip stack; "
                 "the only workload where isa parse, core decode and stack spills do real work",
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("emu_kinst_per_s", "kinst/s", "higher", 0.25),
    ("unit_ms_p50", "ms", "lower", 0.25),
    ("unit_ms_tail", "ms", "lower", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.05),
]

# (name, unit, better)
PER_LAYER = [
    ("isa.parse_s", "s", "lower"),
    ("isa.parse_us_per_line", "us", "lower"),
    ("core.decode_s", "s", "lower"),
    ("core.run_s", "s", "lower"),
    ("core.ns_per_inst", "ns", "lower"),
    ("core.ns_per_inst.IADD", "ns", "lower"),
    ("core.ns_per_inst.FADD32I", "ns", "lower"),
    ("core.ns_per_inst.ISETP.LT", "ns", "lower"),
    ("core.ns_per_inst.MOV", "ns", "lower"),
    ("core.ns_per_inst.CLOCK", "ns", "lower"),
    ("core.ns_per_inst.STSLOT", "ns", "lower"),
    ("core.ns_per_inst.SSY", "ns", "lower"),
    ("core.ns_per_inst.BRA-divergent", "ns", "lower"),
    ("core.ns_per_inst.NOP.S", "ns", "lower"),
    ("core.verify_s", "s", "lower"),
    ("core.trace_overhead_s", "s", "lower"),
    ("stack.replay_s", "s", "lower"),
    ("stack.ns_per_op", "ns", "lower"),
    ("stack.ops", "count", "lower"),
    ("stack.spill_events", "count", "lower"),
    ("stack.spill_per_push", "ratio", "lower"),
    ("cost.charge_s", "s", "lower"),
    ("cost.parse_profile_s", "s", "lower"),
    ("kernels.build_s", "s", "lower"),
    ("harness.make_row_s", "s", "lower"),
    ("harness.compare_s", "s", "lower"),
    ("harness.write_sweep_s", "s", "lower"),
    ("harness.emit_trace_s", "s", "lower"),
    ("harness.trace_bytes", "bytes", "lower"),
    ("cli.main_s.run", "s", "lower"),
    ("cli.main_s.sweep", "s", "lower"),
    ("cli.main_s.compare", "s", "lower"),
    ("cli.main_s.trace", "s", "lower"),
    ("cli.main_s.dump", "s", "lower"),
    ("core.insts", "count", "lower"),
    ("core.branches", "count", "lower"),
    ("core.sim_cycles", "cycles", "lower"),
    ("harness.fit_max_abs_diff_cycles", "cycles", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
