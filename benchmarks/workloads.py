"""The benchmark's three workloads: inputs, the timed unit of work, and checks.

Every workload is a closed loop driven by one client: the next unit starts
when the previous one returns.  A *pass* runs every unit of the workload
once, in an order drawn from the seed, followed by the workload's group
steps (CSV and compare for the paper sweep).  Every output a pass times
is checked afterwards, outside the timed region, against golden digests
recorded at the seed commit or against an independent reference.

Import this module only after ``checkout.use_checkout_src()``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path
from time import perf_counter

import warpsim as ws

import asmgen
from spans import no_spans

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
KERNELS = ("single", "double", "single-instrumented")
ARCHS = ("kepler", "maxwell")
ASM_PROGRAMS = 100

_PUSHES = {ws.StackEvent.SYNC_PUSH: ws.TokenKind.SYNC, ws.StackEvent.DIV_PUSH: ws.TokenKind.DIV}
_POPS = {ws.StackEvent.SYNC_POP: ws.TokenKind.SYNC, ws.StackEvent.DIV_POP: ws.TokenKind.DIV}


class CheckFailed(Exception):
    """An output differs from its golden digest or its reference."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def listing(kernel: str) -> str:
    """What ``warpsim dump --kernel K`` prints."""
    return ws.format_program(ws.kernel_program(kernel))


def sweep_csv(rows) -> str:
    buf = io.StringIO()
    ws.write_sweep(rows, buf)
    return buf.getvalue()


def trace_text(result, fmt: str) -> str:
    buf = io.StringIO()
    ws.emit_trace(result, buf, fmt)
    return buf.getvalue()


def replay(log, stack) -> list:
    """Replay a run's event log against a fresh stack; returns the events it produced.

    Spill records in the log are not fed in: the stack must produce them
    itself.  Every popped token must be the one the log says was popped.
    """
    produced = []
    for record in log:
        kind = record.kind
        if kind in _PUSHES:
            produced.extend(stack.push(ws.Token(record.token_mask, _PUSHES[kind], record.token_pc)))
        elif kind in _POPS:
            token, events = stack.pop()
            if (token.mask, token.kind, token.pc) != (record.token_mask, _POPS[kind],
                                                      record.token_pc):
                raise CheckFailed(f"replayed pop at ordinal {record.ordinal} returned {token}")
            produced.extend(events)
    return produced


def check_replay(result, produced: list, stack) -> None:
    """``produced``, the replay of ``result.event_log`` on ``stack``, must
    reproduce the log, spills included, and match the run's counters."""
    if produced != [record.kind for record in result.event_log] or stack.depth != 0:
        raise CheckFailed("stack replay does not reproduce the event log")
    stores = produced.count(ws.StackEvent.SPILL_STORE)
    loads = produced.count(ws.StackEvent.SPILL_LOAD)
    if (stores, loads) != (result.spill_stores, result.spill_loads):
        raise CheckFailed(f"replayed spills {stores}/{loads} != run's "
                          f"{result.spill_stores}/{result.spill_loads}")


def expected_charge(produced: list, profile) -> int:
    """Cycle overhead recomputed from replayed events, independently of cost.charge."""
    return (profile.div_cost * produced.count(ws.StackEvent.DIV_POP)
            + profile.spill_store_cost * produced.count(ws.StackEvent.SPILL_STORE)
            + profile.spill_load_cost * produced.count(ws.StackEvent.SPILL_LOAD))


class Workload:
    """Base: ``items`` in pass order; ``unit`` is the timed work of one item."""

    name = ""
    keeps_outputs = False  # whether finish() needs the units' outputs

    def __init__(self, seed: int, golden: dict):
        self.golden = golden

    def precheck(self) -> tuple[int, int]:
        """Untimed checks made once per run; returns (attempted, failed)."""
        failed = sum(sha256(listing(k)) != self.golden[f"dump:{k}"] for k in KERNELS)
        return len(KERNELS), failed

    def unit(self, item, span=no_spans):
        raise NotImplementedError

    def check(self, item, out) -> None:
        """Raise CheckFailed when the unit's output is wrong."""

    def insts(self, item, out) -> int:
        raise NotImplementedError

    def finish(self, outs: dict, span=no_spans) -> dict:
        """Timed group steps after the units; returns their outputs by group."""
        return {}

    def check_groups(self, groups: dict) -> set:
        """Items whose group output is wrong."""
        return set()


class PaperSweep(Workload):
    """sweep n=0..31 over 3 kernels x 2 archs, then write_sweep and compare."""

    name = "paper-sweep"
    keeps_outputs = True

    def __init__(self, seed: int, golden: dict):
        super().__init__(seed, golden)
        self.items = [(k, a, n) for k in KERNELS for a in ARCHS for n in range(32)]
        random.Random(seed).shuffle(self.items)
        self.profiles = {a: ws.get_profile(a) for a in ARCHS}

    def unit(self, item, span=no_spans):
        kernel, arch, n = item
        with span("harness.sweep"):
            return ws.sweep(kernel, self.profiles[arch], [n])[0]

    def check(self, item, row) -> None:
        if (row.kernel, row.arch, row.n) != item:
            raise CheckFailed(f"row {row.kernel}/{row.arch}/{row.n} for unit {item}")

    def insts(self, item, out) -> int:
        return self.golden["insts:{}:{}:{}".format(*item)]

    def finish(self, outs: dict, span=no_spans) -> dict:
        groups = {}
        for kernel in KERNELS:
            for arch in ARCHS:
                rows = [outs.get((kernel, arch, n)) for n in range(32)]
                if None in rows:
                    continue
                with span("harness.write_sweep"):
                    csv_text = sweep_csv(rows)
                with span("harness.compare"):
                    report = ws.compare(rows, ws.OracleSet.for_profile(kernel,
                                                                       self.profiles[arch]))
                    compare_text = ws.format_compare_report(report)
                groups[kernel, arch] = (csv_text, report, compare_text)
        return groups

    def check_groups(self, groups: dict) -> set:
        bad = set()
        for kernel in KERNELS:
            for arch in ARCHS:
                group = groups.get((kernel, arch))
                # compare(...).ok is required but is not evidence on its own:
                # its extra-branches check compares a value with itself.
                if (group is None or not group[1].ok
                        or sha256(group[0]) != self.golden[f"csv:{kernel}:{arch}"]
                        or sha256(group[2]) != self.golden[f"compare:{kernel}:{arch}"]):
                    bad.update((kernel, arch, n) for n in range(32))
        return bad


class TraceEmit(Workload):
    """Traced kepler runs of every kernel and n, verified and emitted as JSONL."""

    name = "trace-emit"

    def __init__(self, seed: int, golden: dict):
        super().__init__(seed, golden)
        self.items = [(k, "kepler", n) for k in KERNELS for n in range(32)]
        random.Random(seed).shuffle(self.items)
        self.profile = ws.KEPLER

    def unit(self, item, span=no_spans):
        kernel, _, n = item
        with span("harness.run_kernel"):
            result = ws.run_kernel(kernel, n, self.profile, record_trace=True)
        with span("core.verify_result"):
            ws.verify_result(result)
        with span("harness.emit_trace"):
            buf = io.StringIO()
            ws.emit_trace(result, buf)
        return result.executed_instructions, buf.getvalue()

    def check(self, item, out) -> None:
        if sha256(out[1]) != self.golden["trace.jsonl:{}:{}:{}".format(*item)]:
            raise CheckFailed(f"trace JSONL of {item} differs from its golden digest")

    def insts(self, item, out) -> int:
        return out[0]


class AsmItem:
    """One generated program with its launch and its reference final state."""

    __slots__ = ("gen", "launch", "registers", "slots")

    def __init__(self, gen: asmgen.GenProgram, profile):
        self.gen = gen
        self.launch = ws.LaunchConfig(registers=gen.launch, profile=profile)
        self.registers, self.slots = asmgen.reference(gen)


class AsmSpill(Workload):
    """Seeded assembly text: parse, run on a fresh Program, verify, charge."""

    name = "asm-spill"

    def __init__(self, seed: int, golden: dict):
        super().__init__(seed, golden)
        self.profile = ws.parse_profile(asmgen.PROFILE_TEXT)
        self.items = [AsmItem(asmgen.generate(seed, i), self.profile)
                      for i in range(ASM_PROGRAMS)]

    def unit(self, item, span=no_spans):
        with span("isa.parse_program"):
            program = ws.parse_program(item.gen.text)
        with span("core.run"):
            result = ws.run(program, item.launch)
        with span("core.verify_result"):
            ws.verify_result(result)
        with span("cost.charge"):
            cycles = ws.charge(result.events, self.profile)
        return result, cycles

    def check(self, item, out) -> None:
        result, cycles = out
        if result.registers != item.registers or result.slots != item.slots:
            raise CheckFailed(f"program {item.gen.index}: final state differs from reference")
        for got, want in zip(result.registers, item.registers):
            if any(type(a) is not type(b) for a, b in zip(got, want)):
                raise CheckFailed(f"program {item.gen.index}: register value types differ")
        stack = self.profile.new_stack()
        produced = replay(result.event_log, stack)
        check_replay(result, produced, stack)
        if cycles != expected_charge(produced, self.profile):
            raise CheckFailed(f"program {item.gen.index}: charge {cycles} != replayed events")

    def insts(self, item, out) -> int:
        return out[0].executed_instructions


WORKLOADS = {w.name: w for w in (PaperSweep, TraceEmit, AsmSpill)}


class PassResult:
    __slots__ = ("seconds", "finish_seconds", "insts", "latencies", "attempted", "failed")

    def __init__(self):
        self.seconds = 0.0
        self.finish_seconds = 0.0
        self.insts = 0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_pass(workload: Workload, span=no_spans, check: bool = True) -> PassResult:
    """One closed-loop pass: every unit in order, then the group steps.

    ``latencies`` follow ``workload.items``.  Unit latencies and the pass
    time cover only warpsim calls; checks run between units, outside both.
    """
    res = PassResult()
    kept = {}
    failed = set()
    for index, item in enumerate(workload.items):
        start = perf_counter()
        try:
            out = workload.unit(item, span)
        except Exception:  # noqa: BLE001 - any raise is a failed unit
            out = None
        res.latencies.append(perf_counter() - start)
        if out is None:
            failed.add(index)
            continue
        res.insts += workload.insts(item, out)
        if check:
            try:
                workload.check(item, out)
            except Exception:  # noqa: BLE001 - a check that raises is a failure
                failed.add(index)
        if workload.keeps_outputs:
            kept[item] = out
    start = perf_counter()
    try:
        groups = workload.finish(kept, span)
    except Exception:  # noqa: BLE001 - the group outputs then fail their checks
        groups = {}
    res.finish_seconds = perf_counter() - start
    res.seconds = sum(res.latencies) + res.finish_seconds
    if check:
        bad = workload.check_groups(groups)
        failed.update(i for i, item in enumerate(workload.items) if item in bad)
    res.attempted = len(workload.items)
    res.failed = len(failed)
    return res
