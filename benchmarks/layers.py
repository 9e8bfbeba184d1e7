"""Per-layer measurements for the traced run (``--trace 1``).

Layers are named after warpsim's modules.  Two sources feed them:

* the *tour*: every input of the workload goes once through each layer,
  with a span around every call: ``isa.parse_program`` on the program
  text (for built-in kernels, their ``dump`` listing), ``core.run``
  three times (fresh program, repeat, traced), ``core.verify_result``,
  ``cost.charge``, a replay of the event log on a fresh ``SyncStack``,
  ``harness.emit_trace`` and, for kernel points, ``harness.make_row``,
  ``write_sweep`` and ``compare``.  A workload without kernel points
  (asm-spill) gets its harness figures from the kepler single-loop sweep.
* *probes*, the same on every workload: ns per instruction of
  straight-line programs for single opcodes, ``warpsim.cli.main`` per
  command, and ``cost.parse_profile``.

Import this module only after ``checkout.use_checkout_src()``.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import warpsim as ws
import warpsim.cli

import asmgen
from checkout import ROOT
from workloads import (KERNELS, CheckFailed, check_replay, expected_charge, listing, replay,
                       sha256, sweep_csv, trace_text)

# (command name, argv); each writes to a temporary --out file.
CLI_COMMANDS = (
    ("run", ["run", "--kernel", "double", "--arch", "kepler", "--n", "31"]),
    ("sweep", ["sweep", "--kernel", "double", "--arch", "kepler"]),
    ("compare", ["compare", "--kernel", "double", "--arch", "kepler"]),
    ("trace", ["trace", "--kernel", "single-instrumented", "--n", "31"]),
    ("dump", ["dump", "--kernel", "double"]),
)


def _tour_item(span, sums, text, launch, profile):
    with span("isa.parse_program"):
        program = ws.parse_program(text)
    with span("core.run.first"):
        first = ws.run(program, launch)
    with span("core.run"):
        result = ws.run(program, launch)
    with span("core.run.traced"):
        traced = ws.run(program, launch, record_trace=True)
    with span("core.verify_result"):
        ws.verify_result(result)
    with span("cost.charge"):
        cycles = ws.charge(result.events, profile)
    with span("harness.emit_trace"):
        jsonl = trace_text(traced, "jsonl")
    stack = profile.new_stack()
    with span("stack.replay"):
        produced = replay(result.event_log, stack)
    check_replay(result, produced, stack)
    for other in (first, traced):
        if (other.events, other.cycles, other.registers) != (result.events, result.cycles,
                                                              result.registers):
            raise CheckFailed("repeat or traced run differs from the first run")
    if cycles != expected_charge(produced, profile):
        raise CheckFailed("charge differs from the replayed events")
    sums["lines"] += len(text.splitlines())
    sums["insts"] += result.executed_instructions
    sums["branches"] += result.executed_branches
    sums["sim_cycles"] += result.cycles
    sums["stack_ops"] += result.events.pushes + result.events.pops
    sums["pushes"] += result.events.pushes
    sums["spill_events"] += result.spill_stores + result.spill_loads
    sums["trace_bytes"] += len(jsonl.encode("utf-8"))
    return result, traced, jsonl


def _harness_groups(span, rows_by_group, golden, sums):
    """write_sweep and compare for each complete (kernel, arch) group; checks digests."""
    failed = 0
    for (kernel, arch), rows in sorted(rows_by_group.items()):
        if len(rows) != 32:
            continue
        rows = [rows[n] for n in range(32)]
        with span("harness.write_sweep"):
            csv_text = sweep_csv(rows)
        with span("harness.compare"):
            report = ws.compare(rows, ws.OracleSet.for_profile(kernel, ws.get_profile(arch)))
            compare_text = ws.format_compare_report(report)
        failed += (sha256(csv_text) != golden[f"csv:{kernel}:{arch}"]
                   or sha256(compare_text) != golden[f"compare:{kernel}:{arch}"])
        if report.max_abs_diff is not None:
            sums["fit_diff"] = max(sums["fit_diff"], report.max_abs_diff)
    return failed


def tour_pass(workload, span) -> tuple[dict, int, int]:
    """One tour over the workload's inputs; returns (counts, attempted, failed)."""
    sums = dict.fromkeys(("lines", "insts", "branches", "sim_cycles", "stack_ops", "pushes",
                          "spill_events", "trace_bytes", "fit_diff"), 0)
    golden = workload.golden
    attempted = failed = 0
    rows_by_group: dict = {}
    texts = {k: listing(k) for k in KERNELS}
    for item in workload.items:
        attempted += 1
        try:
            if isinstance(item, tuple):
                kernel, arch, n = item
                profile = ws.get_profile(arch)
                launch = ws.kernel_launch(kernel, ws.bound_pattern(n).bounds, profile)
                result, traced, jsonl = _tour_item(span, sums, texts[kernel], launch, profile)
                key = f"{kernel}:{arch}:{n}"
                if (sha256(jsonl) != golden[f"trace.jsonl:{key}"]
                        or sha256(trace_text(traced, "csv")) != golden[f"trace.csv:{key}"]):
                    raise CheckFailed(f"trace of {item} differs from its golden digest")
                with span("harness.make_row"):
                    rows_by_group.setdefault((kernel, arch), {})[n] = ws.make_row(
                        kernel, profile, n, result)
            else:
                result, _, jsonl = _tour_item(span, sums, item.gen.text, item.launch,
                                              workload.profile)
                if (result.registers, result.slots) != (item.registers, item.slots):
                    raise CheckFailed(f"program {item.gen.index} differs from its reference")
                if jsonl.count("\n") != result.executed_instructions:
                    raise CheckFailed(f"program {item.gen.index}: trace length differs")
        except Exception:  # noqa: BLE001 - any raise is a failed unit
            failed += 1
    if not any(isinstance(item, tuple) for item in workload.items):
        # No kernel points in this workload: time the harness on the kepler
        # single-loop sweep so every harness figure still measures real work.
        for n in range(32):
            result = ws.verify_result(ws.run_kernel("single", n, ws.KEPLER))
            with span("harness.make_row"):
                rows_by_group.setdefault(("single", "kepler"), {})[n] = ws.make_row(
                    "single", ws.KEPLER, n, result)
    attempted += len(rows_by_group)
    failed += _harness_groups(span, rows_by_group, golden, sums)
    return sums, attempted, failed


def tour_metrics(passes: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics from (span totals, counts) of each tour pass.

    Times are medians over passes; the simulated counts are the same in
    every pass (the caller checks), so the first pass gives them.
    """
    counts = passes[0][1]

    def med(fn):
        return statistics.median(fn(t, c) for t, c in passes)

    def total(name):
        return med(lambda t, c: t.get(name, 0.0))

    return {
        "isa.parse_s": total("isa.parse_program"),
        "isa.parse_us_per_line": med(lambda t, c: t["isa.parse_program"] / c["lines"] * 1e6),
        "core.decode_s": med(lambda t, c: t["core.run.first"] - t["core.run"]),
        "core.run_s": total("core.run"),
        "core.ns_per_inst": med(lambda t, c: t["core.run"] / c["insts"] * 1e9),
        "core.verify_s": total("core.verify_result"),
        "core.trace_overhead_s": med(lambda t, c: t["core.run.traced"] - t["core.run"]),
        "stack.replay_s": total("stack.replay"),
        "stack.ns_per_op": med(lambda t, c: t["stack.replay"] / c["stack_ops"] * 1e9),
        "stack.ops": counts["stack_ops"],
        "stack.spill_events": counts["spill_events"],
        "stack.spill_per_push": counts["spill_events"] / 2 / counts["pushes"],
        "cost.charge_s": total("cost.charge"),
        "harness.make_row_s": total("harness.make_row"),
        "harness.compare_s": total("harness.compare"),
        "harness.write_sweep_s": total("harness.write_sweep"),
        "harness.emit_trace_s": total("harness.emit_trace"),
        "harness.trace_bytes": counts["trace_bytes"],
        "core.insts": counts["insts"],
        "core.branches": counts["branches"],
        "core.sim_cycles": counts["sim_cycles"],
        "harness.fit_max_abs_diff_cycles": counts["fit_diff"],
    }


# --- opcode probes -------------------------------------------------------

OP_REPEAT = 128
STACK_DEPTH = 31
_PLAIN_OPS = {
    "IADD": "IADD R7, R7, 1",
    "FADD32I": "FADD32I R0, R0, 1.3332999944686889648",
    "ISETP.LT": "ISETP.LT P0, R7, R9",
    "MOV": "MOV R7, 0",
    "CLOCK": "CLOCK R10",
    "STSLOT": "STSLOT [R4], R6",
}


def op_programs() -> dict:
    """name -> (program text, first and last+1 dynamic instruction of its window).

    Every instruction of these programs executes exactly once, so a
    window of dynamic instructions is a window of the listing.  The
    stack programs pair each push with its pop: ``SSY`` is timed over
    the pushes of a chain of SYNC tokens, ``BRA-divergent`` over a chain
    of branches each parking one more lane in a DIV token, and ``NOP.S``
    over the carriers that pop those DIV tokens.
    """
    programs = {}
    for name, line in _PLAIN_OPS.items():
        programs[name] = ("\n".join([line] * OP_REPEAT + ["EXIT"]) + "\n", 0, OP_REPEAT)
    k = STACK_DEPTH
    ssy = [f"SSY {2 * k - i}" for i in range(k)] + ["NOP.S"] * k + ["EXIT"]
    programs["SSY"] = ("\n".join(ssy) + "\n", 0, k)
    chain = [f".predicates {k}"] + [f"ISETP.LT P{i}, R2, {-i}" for i in range(k)]
    chain.append("SSY join")
    for i in range(k):
        chain += [f"C{i}: @P{i} BRA C{i + 1}", "NOP.S"]
    chain += [f"C{k}: NOP.S", "join: EXIT"]
    bra = "\n".join(chain) + "\n"
    programs["BRA-divergent"] = (bra, k + 1, 2 * k + 1)
    programs["NOP.S"] = (bra, 2 * k + 1, 3 * k + 1)
    return programs


def op_launch() -> ws.LaunchConfig:
    lanes = range(32)
    return ws.LaunchConfig(
        registers={"R2": [-t for t in lanes], "R4": list(lanes), "R6": [7] * 32,
                   "R9": [t % 5 for t in lanes]},
        profile=ws.KEPLER.without_spilling(),
    )


def _time_prefix(program, launch, budget: int) -> float:
    """Host time to run exactly ``budget`` instructions (the budget error ends it)."""
    start = perf_counter()
    try:
        ws.run(program, launch, budget=budget)
    except ws.RunawayLoopError:
        pass
    return perf_counter() - start


def op_probe(repeats: int) -> dict:
    """ns per instruction of each opcode window: median of prefix-time differences."""
    launch = op_launch()
    figures = {}
    for name, (text, lo, hi) in op_programs().items():
        program = ws.parse_program(text)
        ws.verify_result(ws.run(program, launch))
        diffs = []
        for _ in range(repeats):
            diffs.append(_time_prefix(program, launch, hi) - _time_prefix(program, launch, lo))
        figures[f"core.ns_per_inst.{name}"] = statistics.median(diffs) / (hi - lo) * 1e9
    return figures


# --- CLI and profile probes ---------------------------------------------

@contextmanager
def _scratch_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    tmp = Path(tempfile.mkdtemp(prefix=".benchtmp-", dir=ROOT))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cli_probe(repeats: int, golden: dict) -> tuple[dict, int, int]:
    """In-process ``warpsim.cli.main`` per command, output to a temporary file."""
    figures = {}
    attempted = failed = 0
    with _scratch_dir() as tmp:
        for name, argv in CLI_COMMANDS:
            out = tmp / f"{name}.out"
            times = []
            for _ in range(repeats):
                start = perf_counter()
                code = warpsim.cli.main(argv + ["--out", str(out)])
                times.append(perf_counter() - start)
                attempted += 1
                failed += code != 0 or sha256(out.read_text()) != golden[f"cli:{name}"]
            figures[f"cli.main_s.{name}"] = statistics.median(times)
    return figures, attempted, failed


def cli_output(name: str, argv: list) -> str:
    """Run one CLI probe command and return what it wrote (used to record goldens)."""
    with _scratch_dir() as tmp:
        out = tmp / f"{name}.out"
        if warpsim.cli.main(argv + ["--out", str(out)]) != 0:
            raise CheckFailed(f"warpsim {' '.join(argv)} failed")
        return out.read_text()


def parse_profile_probe(repeats: int) -> float:
    """Seconds per ``parse_profile`` call on the asm-spill profile (median)."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        ws.parse_profile(asmgen.PROFILE_TEXT)
        times.append(perf_counter() - start)
    return statistics.median(times)
