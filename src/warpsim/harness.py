"""Sweep driver, closed-form oracles, comparison report, trace emission.

A sweep runs a built-in kernel across divergent-thread counts n = 0..31,
collects the stack counters, and prices each run with the profile's cost
model.  Closed forms pin the expected counter columns exactly:

* single loop: total pushes n+1, max depth n+1;
* double loop: total pushes n(65-n)/2 + 33, max depth n+2.

For architectures with published fit curves the no-spill region must
match them exactly; in the spill region the report only tabulates the
differences (the fit curves do not include spill overhead).

Emitted stack-history traces plot logical stack *depth* against executed
instructions (the usual presentation labels that axis "cycles"; it is a
depth, with ticks 0..32).  ``emit_trace`` writes them straight from the
trace's pc log and move log, without building a record per instruction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import ceil
from itertools import repeat
from operator import mod
from typing import Iterable, Sequence, Union

from .core import DEFAULT_BUDGET, RunResult, run, verify_result
from .cost import ArchProfile, charge
from .errors import ProgramError
from .kernels import KernelId, bound_pattern, check_n, kernel_launch, kernel_program

# Per-pc trace line templates take (ordinal, state text, cycle); the state
# text (active mask, depth, events) is shared by every row of a run.
_JSONL_RECORD = '{"ordinal": %%d, "pc": %d, "opcode": "%s", "active_mask": %%s, "cycle": %%d}\n'
_JSONL_STATE = '"0x%08x", "depth": %d, "event": %s'
_CSV_TRACE_HEADER = "ordinal,pc,opcode,active_mask,depth,event,cycle\n"
_CSV_RECORD = "%%d,%d,%s,%%s,%%d\n"
_CSV_STATE = "0x%08x,%d,%s"

CSV_HEADER = ("n", "kernel", "arch", "div_pushes", "total_pushes", "max_depth",
              "spills", "extra_branches", "predicted_cycles", "oracle_cycles", "diff")


@dataclass(frozen=True)
class SweepRow:
    """Counters and predictions for one (kernel, arch, n) run."""

    n: int
    kernel: str
    arch: str
    div_pushes: int
    total_pushes: int
    max_depth: int
    spill_stores: int
    spill_loads: int
    extra_branches: int
    predicted_cycles: int
    oracle_cycles: Union[int, None]
    diff: Union[int, None]


def expected_push_count(kernel: Union[KernelId, str], n: int) -> int:
    """Total stack pushes over a run (SYNC plus DIV)."""
    check_n(n)
    if KernelId(kernel) is KernelId.DOUBLE_LOOP:
        return n * (65 - n) // 2 + 33
    return n + 1


def expected_max_depth(kernel: Union[KernelId, str], n: int) -> int:
    check_n(n)
    return n + 2 if KernelId(kernel) is KernelId.DOUBLE_LOOP else n + 1


def expected_spill_count(kernel: Union[KernelId, str], n: int,
                         phys_capacity: Union[int, None], spill_chunk: int) -> Union[int, None]:
    """Spill-store count for kernels whose stack climbs once then unwinds.

    The single-loop stack rises monotonically to its peak and then only
    pops, so spills follow a closed form; the double loop's sawtooth has
    no published one (None).
    """
    check_n(n)
    if KernelId(kernel) is KernelId.DOUBLE_LOOP:
        return None
    if phys_capacity is None:
        return 0
    peak = expected_max_depth(kernel, n)
    return max(0, ceil((peak - phys_capacity) / spill_chunk))


def fit_curve(kernel: Union[KernelId, str], arch: str, n: int) -> Union[int, None]:
    """Published cycle-count fit for (kernel, arch), or None if there is none.

    Fits exist for the plain loop kernels on kepler only: 1732 + 32n for
    the single loop and -16n^2 + 1040n + 57024 for the double loop.
    """
    check_n(n)
    if arch != "kepler":
        return None
    kernel = KernelId(kernel)
    if kernel is KernelId.SINGLE_LOOP:
        return 1732 + 32 * n
    if kernel is KernelId.DOUBLE_LOOP:
        return -16 * n * n + 1040 * n + 57024
    return None


@dataclass(frozen=True)
class OracleSet:
    """Closed-form expectations bound to one (kernel, arch, capacity)."""

    kernel: KernelId
    arch: str
    phys_capacity: Union[int, None]
    spill_chunk: int

    @classmethod
    def for_profile(cls, kernel: Union[KernelId, str], profile: ArchProfile) -> "OracleSet":
        return cls(kernel=KernelId(kernel), arch=profile.name,
                   phys_capacity=profile.phys_capacity, spill_chunk=profile.spill_chunk)


def run_kernel(kernel: Union[KernelId, str], n: int, profile: ArchProfile, *,
               budget: int = DEFAULT_BUDGET, record_trace: bool = False) -> RunResult:
    """bound_pattern -> launch -> run for one built-in kernel point."""
    kernel = KernelId(kernel)
    launch = kernel_launch(kernel, bound_pattern(n).bounds, profile)
    return run(kernel_program(kernel), launch, budget=budget, record_trace=record_trace)


def sweep(kernel: Union[KernelId, str], profile: ArchProfile,
          ns: Union[Iterable[int], None] = None, *,
          budget: int = DEFAULT_BUDGET) -> list[SweepRow]:
    """One verified row per n; deterministic and ordered by n."""
    kernel = KernelId(kernel)
    rows = []
    for n in sorted(set(range(32) if ns is None else ns)):
        result = verify_result(run_kernel(kernel, n, profile, budget=budget))
        rows.append(make_row(kernel, profile, n, result))
    return rows


def make_row(kernel: Union[KernelId, str], profile: ArchProfile, n: int,
             result: RunResult) -> SweepRow:
    kernel = KernelId(kernel)
    overhead = charge(result.events, profile)
    base = profile.base_cycles.get(kernel.value)
    predicted = overhead if base is None else base + overhead
    oracle = fit_curve(kernel, profile.name, n) if base is not None else None
    return SweepRow(
        n=n,
        kernel=kernel.value,
        arch=profile.name,
        div_pushes=result.div_pushes,
        total_pushes=result.events.pushes,
        max_depth=result.max_depth,
        spill_stores=result.spill_stores,
        spill_loads=result.spill_loads,
        extra_branches=result.spill_stores,
        predicted_cycles=predicted,
        oracle_cycles=oracle,
        diff=None if oracle is None else abs(predicted - oracle),
    )


@dataclass(frozen=True)
class CompareCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CompareReport:
    kernel: str
    arch: str
    rows: tuple[SweepRow, ...]
    checks: tuple[CompareCheck, ...]
    max_abs_diff: Union[int, None]
    max_rel_diff: Union[float, None]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def compare(rows: Sequence[SweepRow], oracles: OracleSet) -> CompareReport:
    """Check sweep rows against the closed forms and fit curves.

    Counter columns must match exactly for every n.  Predicted cycles
    must match the fit exactly wherever no spilling occurred; rows with
    spills only contribute to the reported diff summary.
    """
    if not rows:
        raise ProgramError("compare needs at least one sweep row")
    for row in rows:
        if row.kernel != oracles.kernel.value or row.arch != oracles.arch:
            raise ProgramError(
                f"row (kernel={row.kernel}, arch={row.arch}) does not match oracles "
                f"(kernel={oracles.kernel.value}, arch={oracles.arch})"
            )

    kernel, cap, chunk = oracles.kernel, oracles.phys_capacity, oracles.spill_chunk
    checks = [
        _check_rows("push_counts", rows, lambda r: r.total_pushes,
                    lambda r: expected_push_count(kernel, r.n)),
        _check_rows("max_depths", rows, lambda r: r.max_depth,
                    lambda r: expected_max_depth(kernel, r.n)),
        _check_rows("extra_branches_equal_spills", rows, lambda r: r.extra_branches,
                    lambda r: r.spill_stores),
    ]
    if all(expected_spill_count(kernel, row.n, cap, chunk) is not None for row in rows):
        checks.append(_check_rows("spill_counts", rows, lambda r: r.spill_stores,
                                  lambda r: expected_spill_count(kernel, r.n, cap, chunk)))

    exact = [row for row in rows if row.spill_stores == 0 and row.oracle_cycles is not None]
    failures = [row for row in exact if row.predicted_cycles != row.oracle_cycles]
    if failures:
        row = failures[0]
        detail = (f"n={row.n}: predicted {row.predicted_cycles} != fit {row.oracle_cycles}"
                  f" ({len(failures)} rows differ)")
    else:
        detail = f"{len(exact)} no-spill rows match the fit exactly"
    checks.append(CompareCheck("no_spill_cycles_exact", not failures, detail))

    diffs = [(row.diff, row) for row in rows if row.diff is not None]
    if diffs:
        max_abs, _ = max(diffs, key=lambda pair: pair[0])
        max_rel = max(d / row.oracle_cycles for d, row in diffs if row.oracle_cycles)
    else:
        max_abs = max_rel = None
    return CompareReport(
        kernel=rows[0].kernel,
        arch=rows[0].arch,
        rows=tuple(rows),
        checks=tuple(checks),
        max_abs_diff=max_abs,
        max_rel_diff=max_rel,
    )


def _check_rows(name, rows, actual, expected) -> CompareCheck:
    for row in rows:
        got, want = actual(row), expected(row)
        if got != want:
            return CompareCheck(name, False, f"n={row.n}: got {got}, expected {want}")
    return CompareCheck(name, True, f"all {len(rows)} rows match")


def format_compare_report(report: CompareReport) -> str:
    lines = [f"kernel={report.kernel} arch={report.arch} rows={len(report.rows)}"]
    for check in report.checks:
        status = "ok" if check.ok else "FAIL"
        lines.append(f"check {check.name}: {status} ({check.detail})")
    if report.max_abs_diff is not None:
        lines.append(f"max_abs_diff={report.max_abs_diff} max_rel_diff={report.max_rel_diff:.6f}")
    lines.append(f"overall: {'ok' if report.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_sweep(rows: Sequence[SweepRow], sink, fmt: str = "csv") -> None:
    """Serialize sweep rows as CSV (default) or JSON lines."""
    if fmt == "csv":
        # csv.writer's bytes: no field holds a comma, quote or line break.
        sink.write(",".join(CSV_HEADER) + "\n")
        sink.writelines("%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n" % (
            row.n, row.kernel, row.arch, row.div_pushes, row.total_pushes, row.max_depth,
            row.spill_stores, row.extra_branches, row.predicted_cycles,
            "" if row.oracle_cycles is None else row.oracle_cycles,
            "" if row.diff is None else row.diff) for row in rows)
    elif fmt == "jsonl":
        for row in rows:
            sink.write(json.dumps(asdict(row)) + "\n")
    else:
        raise ProgramError(f"unknown sweep format {fmt!r}")


def emit_trace(result: RunResult, sink, fmt: str = "jsonl") -> None:
    """Write the trace of a traced run, one line per executed instruction.

    Each record carries {ordinal, pc, opcode, active_mask, depth, event,
    cycle}; the depth column against ordinal reproduces the stack
    history plots.  Requires a run made with ``record_trace=True``.

    Lines come from the trace's runs (:meth:`Trace.rows`), not from
    :class:`TraceRecord` objects; each distinct state text and event list
    is rendered once.
    """
    trace = result.trace
    if trace is None:
        raise ProgramError("run was not traced; re-run with record_trace=True")
    if fmt == "jsonl":
        # json.dumps of {ordinal, pc, opcode, active_mask, depth, event, cycle}
        # spelled out; opcode labels are mnemonics that need no escaping.
        record, state_text, render = (_JSONL_RECORD, _JSONL_STATE,
                                      lambda names: json.dumps(list(names)))
    elif fmt == "csv":
        # csv.writer's bytes: no field holds a comma, quote or line break.
        record, state_text, render = _CSV_RECORD, _CSV_STATE, "+".join
        sink.write(_CSV_TRACE_HEADER)
    else:
        raise ProgramError(f"unknown trace format {fmt!r}")
    lines = [record % (pc, label) for pc, label in enumerate(trace.labels)]
    texts: dict[tuple, str] = {}
    rendered: dict[tuple, str] = {}
    for pcs, state, ordinals, cycles in trace.rows():
        mask, depth, names = state
        text = texts.get(state)
        if text is None:
            event = rendered.get(names)
            if event is None:
                event = rendered[names] = render(names)
            text = texts[state] = state_text % (mask, depth, event)
        if names:  # a run with events is one row: format it directly
            (pc,), (ordinal,), (cycle,) = pcs, ordinals, cycles
            sink.write(lines[pc] % (ordinal, text, cycle))
        else:
            sink.writelines(map(mod, map(lines.__getitem__, pcs),
                                zip(ordinals, repeat(text), cycles)))
