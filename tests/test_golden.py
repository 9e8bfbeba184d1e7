"""Byte identity of the user-visible outputs with the recorded golden digests.

``benchmarks/golden.json`` holds the sha256 of each output at the commit
that recorded it (``benchmarks/record_golden.py``); this module only reads
it.  A refactor that changes one byte of a ``dump`` listing, a sweep CSV,
a ``compare`` report, a trace or a ``warpsim`` command's output fails
here, as does one that changes a point's executed-instruction count.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import warpsim as ws
import warpsim.cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.append(str(BENCHMARKS))
from layers import CLI_COMMANDS  # noqa: E402

GOLDEN = json.loads((BENCHMARKS / "golden.json").read_text(encoding="utf-8"))
KERNELS = [kernel.value for kernel in ws.KernelId]
ARCHS = ("kepler", "maxwell")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kernel", KERNELS)
def test_dump_listing(kernel):
    listing = ws.format_program(ws.kernel_program(kernel))
    assert sha256(listing) == GOLDEN[f"dump:{kernel}"]


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_sweep_csv_and_compare_report(kernel, arch):
    profile = ws.get_profile(arch)
    rows = ws.sweep(kernel, profile)
    csv = io.StringIO()
    ws.write_sweep(rows, csv)
    assert sha256(csv.getvalue()) == GOLDEN[f"csv:{kernel}:{arch}"]
    report = ws.compare(rows, ws.OracleSet.for_profile(kernel, profile))
    assert sha256(ws.format_compare_report(report)) == GOLDEN[f"compare:{kernel}:{arch}"]


@pytest.mark.parametrize("n", [0, 16, 31])
@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_trace(kernel, arch, n):
    result = ws.run_kernel(kernel, n, ws.get_profile(arch), record_trace=True)
    for fmt in ("jsonl", "csv"):
        text = io.StringIO()
        ws.emit_trace(result, text, fmt)
        assert sha256(text.getvalue()) == GOLDEN[f"trace.{fmt}:{kernel}:{arch}:{n}"], fmt


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_executed_instruction_counts(kernel, arch):
    profile = ws.get_profile(arch)
    counts = [ws.run_kernel(kernel, n, profile).executed_instructions for n in range(32)]
    assert counts == [GOLDEN[f"insts:{kernel}:{arch}:{n}"] for n in range(32)]


@pytest.mark.parametrize("name,argv", CLI_COMMANDS, ids=[name for name, _ in CLI_COMMANDS])
def test_cli_output(name, argv, tmp_path):
    out = tmp_path / f"{name}.out"
    assert warpsim.cli.main(argv + ["--out", str(out)]) == 0
    assert sha256(out.read_text(encoding="utf-8")) == GOLDEN[f"cli:{name}"]
