"""Tests of the benchmark itself: every check it makes can fail.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import ROOT, use_checkout_src

ws = use_checkout_src()

import asmgen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_notes_name_every_metric_and_workload():
    notes = (HERE / "NOTES.md").read_text()
    names = ([m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
             + list(spec.WORKLOADS) + ["fail_ratio"])
    assert [name for name in names if f"`{name}`" not in notes] == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_outputs_pass_every_check(name, golden):
    workload = workloads.WORKLOADS[name](3, golden)
    assert workload.precheck()[1] == 0
    result = workloads.run_pass(workload)
    assert (result.failed, result.attempted) == (0, len(workload.items))
    assert result.insts > 0


def test_corrupt_sweep_digest_fails_its_group(golden):
    bad = dict(golden, **{"csv:double:kepler": "0" * 64})
    result = workloads.run_pass(workloads.PaperSweep(1, bad))
    assert result.failed == 32


def test_corrupt_trace_digest_fails_its_unit(golden):
    bad = dict(golden, **{"trace.jsonl:double:kepler:5": "0" * 64})
    workload = workloads.TraceEmit(1, bad)
    workload.items = [item for item in workload.items if item[2] in (4, 5)]
    assert workloads.run_pass(workload).failed == 1


def test_corrupt_dump_digest_fails_precheck(golden):
    bad = dict(golden, **{"dump:single": "0" * 64})
    assert workloads.AsmSpill(1, bad).precheck()[1] == 1


def test_perturbed_reference_register_fails(golden):
    workload = workloads.AsmSpill(1, golden)
    item = workload.items[0]
    registers = [list(reg) for reg in item.registers]
    registers[0][0] += 1
    item.registers = tuple(tuple(reg) for reg in registers)
    assert workloads.run_pass(workload).failed == 1


def test_dropped_replay_event_fails(golden, monkeypatch):
    replay = workloads.replay

    def drop_first_push(log, stack):
        index = next(i for i, r in enumerate(log) if r.kind is ws.StackEvent.SYNC_PUSH)
        return replay(log[:index] + log[index + 1:], stack)

    monkeypatch.setattr(workloads, "replay", drop_first_push)
    workload = workloads.AsmSpill(1, golden)
    assert workloads.run_pass(workload).failed == len(workload.items)


def test_generator_is_seeded_and_its_work_does_not_depend_on_the_seed(golden):
    assert asmgen.generate(4, 7).text == asmgen.generate(4, 7).text
    assert asmgen.generate(4, 7).text != asmgen.generate(5, 7).text
    insts = {seed: workloads.run_pass(workloads.AsmSpill(seed, golden)).insts
             for seed in (1, 2)}
    assert insts[1] == insts[2]


def test_reference_does_not_import_warpsim():
    tree = ast.parse((HERE / "asmgen.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} | {node.module for node in ast.walk(tree)
                                            if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.startswith("warpsim") for name in imported)


@pytest.mark.parametrize("name", list(layers.op_programs()))
def test_opcode_windows_cover_the_named_instructions(name):
    text, lo, hi = layers.op_programs()[name]
    result = ws.run(ws.parse_program(text), layers.op_launch(), record_trace=True)
    window = result.trace[lo:hi]
    opcode = {"BRA-divergent": "BRA"}.get(name, name)
    assert {record.opcode for record in window} == {opcode}
    expected_events = {"SSY": ("SYNC_PUSH",), "BRA-divergent": ("DIV_PUSH",),
                       "NOP.S": ("DIV_POP",)}.get(name, ())
    assert {record.events for record in window} == {expected_events}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert run.tail(samples) == (99, 990.0)
    assert run.tail(samples[:100]) == (90, 90.0)
    assert run.tail(samples[:15]) == (50, 8.0)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_every_metric_and_a_result_line():
    proc = _bench(ROOT, "--workload", "asm-spill", "--seed", "2", "--seconds", "0.3",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec.END_TO_END_UNITS
    provenance = json.loads(lines[0].split(": ", 1)[1])
    for key in ("python", "cpu_count", "commit", "seed", "seconds", "passes",
                "unit_tail_percentile", "unit_samples"):
        assert key in provenance


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
