"""Record the golden digests the benchmark checks its outputs against.

    python3 benchmarks/record_golden.py

Run once at the commit whose outputs are the reference; it rewrites
benchmarks/golden.json.  Digests are sha256 of the exact bytes:

* ``dump:K``: the ``warpsim dump`` listing of each kernel;
* ``csv:K:A`` and ``compare:K:A``: the sweep CSV and compare report of
  each (kernel, arch);
* ``trace.jsonl:K:A:N`` and ``trace.csv:K:A:N``: the trace of every point;
* ``cli:CMD``: the output of each CLI probe command.

``insts:K:A:N`` holds each point's emulated instruction count, which the
paper sweep needs for its throughput (sweep rows do not carry it).
"""

from __future__ import annotations

import json

from checkout import git_commit, use_checkout_src

ws = use_checkout_src()

import layers  # noqa: E402
from workloads import (ARCHS, GOLDEN_PATH, KERNELS, listing, sha256, sweep_csv,  # noqa: E402
                       trace_text)


def record() -> dict:
    golden = {"recorded_at_commit": git_commit()}
    for kernel in KERNELS:
        golden[f"dump:{kernel}"] = sha256(listing(kernel))
        for arch in ARCHS:
            profile = ws.get_profile(arch)
            rows = ws.sweep(kernel, profile)
            golden[f"csv:{kernel}:{arch}"] = sha256(sweep_csv(rows))
            report = ws.compare(rows, ws.OracleSet.for_profile(kernel, profile))
            golden[f"compare:{kernel}:{arch}"] = sha256(ws.format_compare_report(report))
            for n in range(32):
                result = ws.run_kernel(kernel, n, profile, record_trace=True)
                golden[f"insts:{kernel}:{arch}:{n}"] = result.executed_instructions
                for fmt in ("jsonl", "csv"):
                    golden[f"trace.{fmt}:{kernel}:{arch}:{n}"] = sha256(trace_text(result, fmt))
    for name, argv in layers.CLI_COMMANDS:
        golden[f"cli:{name}"] = sha256(layers.cli_output(name, argv))
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
